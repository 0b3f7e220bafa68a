//! Simulator throughput benchmark and performance-regression gate:
//! simulated accesses per second, per scheme, per layer and per tracer
//! tier.
//!
//! Every figure in the paper is produced by replaying post-LLC-miss
//! accesses through [`MemoryScheme::access`], so simulated-accesses-per-
//! second is the currency of the whole reproduction. This binary measures
//! it at two layers:
//!
//! * **scheme-only** — a pre-generated access stream driven straight into
//!   the scheme, isolating the placement logic (remap lookups, swap
//!   bookkeeping, op emission) from the rest of the machine;
//! * **full-system** — [`silcfm_sim::run_spec`], i.e. cores + caches +
//!   scheme + both DRAM timing models, which is what the experiment
//!   harnesses pay: every scheme untraced, and SILC-FM on each traced
//!   [`Tier`] of [`TRACED`].
//!
//! Each scheme gets a fixed access budget spread evenly over the Table III
//! workload profiles. The binary also times the `scheme_shootout` grid
//! (serial vs parallel). Results land in `results/BENCH_throughput.json`;
//! the same full-system rates make one row of the trajectory,
//! `BENCH_trajectory.json` beside it ([`silcfm_bench::trajectory`]).
//!
//! Run with: `cargo run --release -p silcfm-bench --bin throughput`
//! Options:
//!   --budget N    accesses per scheme per layer (default 560000; the
//!                 trajectory's rows are measured at 16000)
//!   --repeats N   interleaved rounds; best rate per regime wins (default 3)
//!   --out PATH    output JSON path (default results/BENCH_throughput.json)
//!   --no-write    measure and print, but do not write the output JSON
//!   --skip-grid   skip the serial-vs-parallel grid timing
//!   --check       exit 1 if a gated ratio left its band around the
//!                 trajectory's last row
//!   --label S     append this run to the trajectory under label S
//!
//! Full-system regimes are round-robined inside every round rather than
//! each measured `--repeats` times in a row: on a noisy shared host the
//! noise window drifts over seconds, and back-to-back regimes see the same
//! window. The best rate per regime across rounds is reported:
//! minimum-time estimation discards interference from whatever else the
//! host is running, which dwarfs the simulator's own run-to-run variation.
//!
//! [`MemoryScheme::access`]: silcfm_types::MemoryScheme::access

use std::path::Path;
use std::time::Instant;

use silcfm_bench::trajectory::{self, Row, BAND};
use silcfm_bench::{lineup, write_artifact};
use silcfm_sim::experiment::space_for;
use silcfm_sim::{
    run_grid, run_grid_serial, run_spec, ExperimentGrid, RunParams, RunSpec, SchemeKind, Tier,
    TraceParams,
};
use silcfm_trace::{profiles, PageMapper, PlacementPolicy, WorkloadGen};
use silcfm_types::{Access, CoreId, SystemConfig};

/// Default accesses per scheme per layer, spread over the profiles.
const DEFAULT_BUDGET: u64 = 560_000;

/// Ring capacity for the traced regimes. The timed region includes system
/// construction (as it does for the untraced rate, so both sides pay the
/// same fixed costs) — but a capture-sized 1 Mi-event ring per tracer
/// means ~75 MB of allocation, which at this benchmark's run lengths would
/// dwarf the record-path cost being measured. 16 Ki events is plenty for a
/// steady-state record-cost measurement (the ring wraps; wrapping *is* the
/// steady state) and allocates in microseconds.
const EVENTS_CAPACITY: usize = 1 << 14;

/// SILC-FM's traced tiers, each priced against its untraced run: full
/// tracing, the metrics plane alone, and the sampling tracer at two
/// periods that bracket its operating range. Full tracing comes first, so
/// in every round it directly follows untraced SILC-FM (the last scheme of
/// the lineup) and the gated overhead ratio pairs neighbours.
const TRACED: [Tier; 4] = [
    Tier::Sampled { period: 1 },
    Tier::MetricsOnly,
    Tier::Sampled { period: 16 },
    Tier::Sampled { period: 256 },
];

struct Options {
    budget: u64,
    repeats: u32,
    out: String,
    write: bool,
    grid: bool,
    check: bool,
    label: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        budget: DEFAULT_BUDGET,
        repeats: 3,
        out: "results/BENCH_throughput.json".to_string(),
        write: true,
        grid: true,
        check: false,
        label: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--budget" => {
                let v = args.next().expect("--budget needs a value");
                opts.budget = v.parse().expect("--budget must be an integer");
            }
            "--repeats" => {
                let v = args.next().expect("--repeats needs a value");
                opts.repeats = v.parse().expect("--repeats must be an integer");
                assert!(opts.repeats > 0, "--repeats must be positive");
            }
            "--out" => opts.out = args.next().expect("--out needs a path"),
            "--no-write" => opts.write = false,
            "--skip-grid" => opts.grid = false,
            "--check" => opts.check = true,
            "--label" => opts.label = Some(args.next().expect("--label needs a value")),
            other => {
                eprintln!("unknown argument '{other}'");
                eprintln!(
                    "usage: throughput [--budget N] [--repeats N] [--out PATH] \
                     [--no-write] [--skip-grid] [--check] [--label S]"
                );
                std::process::exit(2);
            }
        }
    }
    opts
}

/// Pre-generates one post-LLC-miss access stream per profile: the workload
/// generator's virtual stream pushed through first-touch translation, as
/// `System::run` would. Generated once and replayed for every scheme so
/// all schemes see identical streams.
fn generate_streams(
    cfg: &SystemConfig,
    params: &RunParams,
    per_profile: u64,
) -> Vec<(silcfm_types::AddressSpace, Vec<Access>)> {
    let cores = u64::from(cfg.core.cores);
    profiles::all()
        .iter()
        .map(|profile| {
            let scaled = profiles::scaled(profile, params.footprint_scale);
            let space = space_for(&scaled, cfg, params);
            let mut mapper = PageMapper::new(space, PlacementPolicy::RandomSeeded(params.seed));
            let mut gens: Vec<WorkloadGen> = (0..cores)
                .map(|i| WorkloadGen::new(&scaled, CoreId::new(i as u16), params.seed))
                .collect();
            let mut stream = Vec::with_capacity(per_profile as usize);
            for i in 0..per_profile {
                let core = CoreId::new((i % cores) as u16);
                let rec = gens[(i % cores) as usize].next_record();
                let paddr = mapper
                    .translate(core, rec.vaddr)
                    .expect("footprint exceeds physical memory");
                stream.push(Access::read(paddr, rec.pc, core));
            }
            (space, stream)
        })
        .collect()
}

/// Accesses/sec for one scheme with the access stream driven straight into
/// `MemoryScheme::access`, bypassing cores/caches/DRAM.
fn scheme_only_rate(
    kind: SchemeKind,
    streams: &[(silcfm_types::AddressSpace, Vec<Access>)],
    repeats: u32,
) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..repeats {
        let mut total = 0u64;
        let mut elapsed = 0.0f64;
        let mut sink = 0u64;
        let mut out = silcfm_types::SchemeOutcome::empty();
        for (space, stream) in streams {
            let mut scheme = kind.build(*space, stream.len() as u64);
            let t0 = Instant::now();
            for access in stream {
                scheme.access(access, &mut out);
                sink ^= out.critical_bytes().wrapping_add(out.background_bytes());
            }
            elapsed += t0.elapsed().as_secs_f64();
            total += stream.len() as u64;
        }
        std::hint::black_box(sink);
        best = best.max(total as f64 / elapsed);
    }
    best
}

/// Accesses/sec for `kind` on `tier` through the full `System::run`
/// pipeline, one pass over every profile. [`Tier::Off`] is what the
/// experiment harnesses pay; the gap against it is the price of the tier's
/// observability.
fn full_system_rate(
    kind: SchemeKind,
    tier: Tier,
    cfg: &SystemConfig,
    params: &RunParams,
    per_profile: u64,
) -> f64 {
    let cores = u64::from(cfg.core.cores);
    let p = RunParams {
        accesses_per_core: (per_profile / cores).max(1),
        ..*params
    };
    let spec = RunSpec {
        tier,
        trace: TraceParams {
            events_capacity: EVENTS_CAPACITY,
            ..TraceParams::default_capture()
        },
        ..RunSpec::default()
    };
    let mut total = 0u64;
    let mut elapsed = 0.0f64;
    for profile in profiles::all() {
        let t0 = Instant::now();
        let out = run_spec(profile, kind, cfg, &p, &spec).expect("a fault-free run cannot fail");
        elapsed += t0.elapsed().as_secs_f64();
        std::hint::black_box(&out);
        total += p.accesses_per_core * cores;
    }
    total as f64 / elapsed
}

/// The best full-system rate over `repeats` interleaved rounds of every
/// lineup scheme untraced, then SILC-FM on each tier of [`TRACED`], in
/// that order.
fn full_system_rates(
    cfg: &SystemConfig,
    params: &RunParams,
    per_profile: u64,
    repeats: u32,
) -> Vec<f64> {
    let regimes: Vec<(SchemeKind, Tier)> = lineup()
        .into_iter()
        .map(|kind| (kind, Tier::Off))
        .chain(TRACED.map(|tier| (SchemeKind::silcfm(), tier)))
        .collect();
    let mut best = vec![0.0f64; regimes.len()];
    for _ in 0..repeats {
        for (rate, &(kind, tier)) in best.iter_mut().zip(&regimes) {
            *rate = rate.max(full_system_rate(kind, tier, cfg, params, per_profile));
        }
    }
    best
}

/// Times the `scheme_shootout` grid serially and through the parallel grid pool.
fn grid_times() -> (usize, usize, f64, f64) {
    let threads = silcfm_sim::runner::default_threads();
    let workload = profiles::by_name("lib").unwrap();
    let jobs = ExperimentGrid::new(SystemConfig::experiment(), RunParams::smoke())
        .workload(workload)
        .scheme(SchemeKind::NoNm)
        .schemes(SchemeKind::fig7_lineup())
        .jobs();

    let t0 = Instant::now();
    let serial = run_grid_serial(&jobs);
    let serial_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t1 = Instant::now();
    let parallel =
        run_grid(&jobs, &RunSpec::default(), threads).expect("a fault-free grid cannot fail");
    let parallel_ms = t1.elapsed().as_secs_f64() * 1e3;

    assert!(
        serial
            .iter()
            .zip(&parallel)
            .all(|(s, p)| s.cycles == p.result.cycles && s.traffic == p.result.traffic),
        "parallel runner diverged from the serial path"
    );
    (jobs.len(), threads, serial_ms, parallel_ms)
}

/// Gates `now` against the trajectory's last row; exits 1 when a ratio
/// left its band or the trajectory holds no rows.
fn check(rows: &[Row], now: &Row) {
    let Some(last) = rows.last() else {
        eprintln!("the trajectory holds no runs; append one first (--label)");
        std::process::exit(1);
    };
    println!(
        "\nchecking against last committed run \"{}\" (band {BAND:.2}x):",
        last.label
    );
    let verdicts = trajectory::check(now, last);
    for v in &verdicts {
        println!(
            "  {:32} {:>8.4} -> {:>8.4}  ({:>5.2}x)  {}",
            v.name,
            v.base,
            v.now,
            v.now / v.base,
            if v.ok { "ok" } else { "OUT OF BAND" }
        );
    }
    if verdicts.iter().any(|v| !v.ok) {
        eprintln!(
            "regression gate FAILED: a gated ratio left its band; if the change is \
             intentional, append a new trajectory run (throughput --budget {} --label <why>) \
             and commit it",
            trajectory::SMOKE_BUDGET
        );
        std::process::exit(1);
    }
    println!("regression gate: ok");
}

fn main() {
    let opts = parse_args();
    let cfg = SystemConfig::small();
    let params = RunParams::smoke();
    let n_profiles = profiles::all().len() as u64;
    let per_profile = (opts.budget / n_profiles).max(1);
    println!(
        "throughput: {} accesses/scheme/layer over {} profiles ({} each), config=small",
        per_profile * n_profiles,
        n_profiles,
        per_profile
    );

    let streams = generate_streams(&cfg, &params, per_profile);
    let kinds = lineup();
    let scheme_only: Vec<f64> = kinds
        .iter()
        .map(|&kind| scheme_only_rate(kind, &streams, opts.repeats))
        .collect();
    let rates = full_system_rates(&cfg, &params, per_profile, opts.repeats);
    let (full_system, traced) = rates.split_at(kinds.len());
    let rate_of = |label: &str| {
        let i = kinds.iter().position(|k| k.label() == label);
        full_system[i.expect("scheme in lineup")]
    };
    println!(
        "\n{:8} {:>18} {:>18}",
        "scheme", "scheme-only acc/s", "full-system acc/s"
    );
    for ((kind, so), fs) in kinds.iter().zip(&scheme_only).zip(full_system) {
        println!("{:8} {so:>18.0} {fs:>18.0}", kind.label());
    }
    let off = rate_of("silcfm");
    println!("\nsilcfm full-system acc/s by tracer tier (untraced {off:.0}):");
    for (tier, rate) in TRACED.iter().zip(traced) {
        let slower = (1.0 - rate / off) * 100.0;
        println!(
            "  {:28} {rate:>10.0}  ({slower:.1}% slower)",
            format!("{tier:?}")
        );
    }

    let grid = opts.grid.then(|| {
        let (jobs, threads, serial_ms, parallel_ms) = grid_times();
        println!(
            "\ngrid of {jobs} runs: serial {serial_ms:.0} ms, \
             parallel ({threads} threads) {parallel_ms:.0} ms"
        );
        if threads == 1 {
            eprintln!(
                "warning: grid timed with 1 thread (host parallelism or SILCFM_THREADS); \
                 serial vs \"parallel\" measures pool overhead, not speedup — recording null"
            );
        }
        (jobs, threads, serial_ms, parallel_ms)
    });

    let label = opts.label.as_deref().unwrap_or("unlabeled");
    let row = Row::measured(
        label,
        opts.budget,
        rate_of("base"),
        rate_of("rand"),
        off,
        traced[0],
    );
    println!("\n{:32} {:>14}", "trajectory metric", "value");
    for (name, v) in trajectory::METRICS.iter().zip(&row.values) {
        println!("{name:32} {v:>14.4}");
    }
    if opts.check || opts.label.is_some() {
        let path = Path::new(&opts.out).with_file_name("BENCH_trajectory.json");
        let mut rows = trajectory::load(&path).unwrap_or_else(|e| {
            eprintln!("cannot read trajectory {}: {e}", path.display());
            std::process::exit(1);
        });
        if opts.check {
            check(&rows, &row);
        }
        if opts.label.is_some() {
            rows.push(row);
            write_artifact(&path.to_string_lossy(), &trajectory::render(&rows));
            println!(
                "\nappended run \"{label}\" ({} total) to {}",
                rows.len(),
                path.display()
            );
        }
    }

    if opts.write {
        let labels = kinds.iter().map(|k| k.label());
        let json = render_json(
            opts.budget,
            per_profile * n_profiles,
            &labels.clone().zip(scheme_only).collect::<Vec<_>>(),
            &labels.zip(full_system.iter().copied()).collect::<Vec<_>>(),
            grid,
            traced,
        );
        write_artifact(&opts.out, &json);
        println!("\nwrote {}", opts.out);
    }
}

/// Hand-rolled JSON (the workspace is dependency-free by policy).
/// `traced` is SILC-FM's full-system rate on each tier of [`TRACED`].
fn render_json(
    budget: u64,
    accesses: u64,
    scheme_only: &[(&'static str, f64)],
    full_system: &[(&'static str, f64)],
    grid: Option<(usize, usize, f64, f64)>,
    traced: &[f64],
) -> String {
    let rates = |pairs: &[(&str, f64)]| {
        let lines: Vec<String> = pairs
            .iter()
            .map(|(name, rate)| format!("    \"{name}\": {rate:.0}"))
            .collect();
        lines.join(",\n")
    };
    let grid = grid.map_or(String::new(), |(jobs, threads, serial_ms, parallel_ms)| {
        // A 1-thread "parallel" run measures pool overhead, not speedup;
        // recording 1.00x would misrepresent an unmeasurable quantity.
        let speedup = if threads == 1 {
            r#"null,
    "warning": "measured with 1 thread; speedup is not defined""#
                .to_string()
        } else {
            format!("{:.2}", serial_ms / parallel_ms)
        };
        format!(
            r#",
  "grid": {{
    "jobs": {jobs},
    "threads": {threads},
    "serial_ms": {serial_ms:.1},
    "parallel_ms": {parallel_ms:.1},
    "speedup": {speedup}
  }}"#
        )
    });
    let off = full_system
        .iter()
        .find(|(name, _)| *name == "silcfm")
        .map_or(0.0, |&(_, rate)| rate);
    let pct = |rate: f64| (1.0 - rate / off) * 100.0;
    let (on, metrics) = (traced[0], traced[1]);
    let mut sampling = Vec::new();
    for (tier, &rate) in TRACED.iter().zip(traced).skip(2) {
        if let Tier::Sampled { period } = tier {
            sampling.push(format!("      \"period_{period}_acc_s\": {rate:.0}"));
            let slower = pct(rate);
            sampling.push(format!(
                "      \"period_{period}_overhead_pct\": {slower:.1}"
            ));
        }
    }
    format!(
        r#"{{
  "meta": {{
    "budget_per_scheme_per_layer": {budget},
    "accesses_measured_per_scheme": {accesses},
    "config": "small",
    "unit": "simulated accesses per second"
  }},
  "scheme_only": {{
{}
  }},
  "full_system": {{
{}
  }}{grid},
  "tracing_overhead": {{
    "scheme": "silcfm",
    "layer": "full_system",
    "tracer_off_acc_s": {off:.0},
    "tracer_on_acc_s": {on:.0},
    "on_over_off_ratio": {:.3},
    "overhead_pct": {:.1},
    "metrics_only_acc_s": {metrics:.0},
    "metrics_only_overhead_pct": {:.1},
    "sampling_tracer": {{
{}
    }}
  }}
}}
"#,
        rates(scheme_only),
        rates(full_system),
        on / off,
        pct(on),
        pct(metrics),
        sampling.join(",\n"),
    )
}
