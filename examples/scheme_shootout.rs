//! Scheme shootout: compare every flat-memory scheme on a workload of your
//! choice — the single-workload version of the paper's Fig. 7.
//!
//! Run with: `cargo run --release --example scheme_shootout -- [workload]`
//! (default `lib`; any Table III name works, e.g. `mcf`, `milc`, `gcc`).
//!
//! The scheme grid runs twice — once serially, once through the sharded
//! worker pool (`silc_fm::sim::run_grid`, thread count from
//! `SILCFM_THREADS` or the machine) — and prints both wall-clock times
//! along with a check that the two paths produced identical results.

use silc_fm::obs::{Align, TextTable};
use silc_fm::sim::{
    run_grid, run_grid_serial, ExperimentGrid, RunParams, RunSpec, SchemeKind, Tier, TraceParams,
};
use silc_fm::trace::profiles;
use silc_fm::types::SystemConfig;

#[allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "a demo binary that *reports* wall-clock speedup; timing is its output, \
              not an input to any simulated result"
)]
fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "lib".to_string());
    let Some(workload) = profiles::by_name(&name) else {
        eprintln!("unknown workload '{name}'; Table III has:");
        for p in profiles::all() {
            eprintln!("  {p}");
        }
        std::process::exit(1);
    };

    let threads = silc_fm::sim::runner::default_threads();
    let jobs = ExperimentGrid::new(SystemConfig::experiment(), RunParams::smoke())
        .workload(workload)
        .scheme(SchemeKind::NoNm)
        .schemes(SchemeKind::fig7_lineup())
        .jobs();

    let t0 = std::time::Instant::now();
    let serial = run_grid_serial(&jobs);
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;

    // The traced grid also collects the latency-percentile plane; its
    // RunResults are bit-identical to the untraced serial pass (checked
    // below), so timing and the tail columns come from one run.
    let t1 = std::time::Instant::now();
    let spec = RunSpec {
        tier: Tier::Ring,
        trace: TraceParams {
            events_capacity: 1 << 14,
            ..TraceParams::default_capture()
        },
        ..RunSpec::default()
    };
    let parallel = run_grid(&jobs, &spec, threads).expect("a fault-free grid cannot fail");
    let parallel_ms = t1.elapsed().as_secs_f64() * 1e3;

    let identical = serial
        .iter()
        .zip(&parallel)
        .all(|(s, p)| s.cycles == p.result.cycles && s.traffic == p.result.traffic);

    println!("{workload}\n");
    let mut table = TextTable::new(&[
        ("scheme", Align::Left),
        ("speedup (vs base)", Align::Right),
        ("access rate", Align::Right),
        ("NM demand frac", Align::Right),
        ("lat p50", Align::Right),
        ("lat p95", Align::Right),
        ("lat p99", Align::Right),
        ("migration MiB", Align::Right),
        ("blocks migrated", Align::Right),
    ]);
    let base = &parallel[0].result;
    for out in &parallel[1..] {
        let (r, report) = (&out.result, out.obs.as_ref().expect("ring tier reports"));
        let overall = report.latency.overall();
        let [p50, p95, p99, _] = overall.percentiles();
        table.row(vec![
            r.scheme.clone(),
            format!("{:.2}x", r.speedup_over(base)),
            format!("{:.2}", r.access_rate),
            format!("{:.2}", r.traffic.nm_demand_fraction()),
            p50.to_string(),
            p95.to_string(),
            p99.to_string(),
            format!(
                "{:.1}",
                r.traffic.overhead_bytes() as f64 / (1 << 20) as f64
            ),
            r.scheme_stats.blocks_migrated.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!("\nlat pNN: demand issue-to-completion cycles from the mergeable quantile sketch.");
    println!("\nThe paper's Fig. 7 ordering: SILC-FM first, CAMEO the best prior scheme.");
    println!(
        "grid of {} runs: serial {serial_ms:.0} ms, parallel ({threads} threads) \
         {parallel_ms:.0} ms, results {}",
        jobs.len(),
        if identical {
            "bit-identical"
        } else {
            "DIVERGED"
        },
    );
    assert!(identical, "parallel runner diverged from the serial path");
}
