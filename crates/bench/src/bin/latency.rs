//! Per-class demand-latency percentiles: the tail story behind every
//! figure.
//!
//! The paper's argument is a latency-distribution argument — subblocked
//! interleaving keeps hot subblocks in NM so the *tail* collapses, not just
//! the mean. This binary measures issue-to-completion cycles for every
//! demand access through the full `System::run` pipeline, attributes each
//! sample to its service class (NM hit, FM hit, swap-path, bypass, locked,
//! fault-degraded), and reports p50/p95/p99/p999 per scheme × workload ×
//! class from the mergeable quantile sketches in `silcfm-obs`. Results
//! land in `results/BENCH_latency.json`.
//!
//! Run with: `cargo run --release -p silcfm-bench --bin latency`
//! Options:
//!   --smoke       tiny runs over a 3-workload subset (CI-sized, seconds)
//!   --full        full-size runs (minutes); default is the quick preset
//!   --out PATH    output JSON path (default results/BENCH_latency.json)
//!   --no-write    measure and print, but do not write the JSON

use silcfm_bench::{lineup, write_artifact};
use silcfm_obs::{LatencyBreakdown, QuantileSketch};
use silcfm_sim::runner::{default_threads, run_grid, ExperimentGrid};
use silcfm_sim::{RunParams, RunSpec, Tier};
use silcfm_trace::profiles;
use silcfm_types::{AccessClass, SystemConfig};

/// Workloads the `--smoke` tier covers: one streaming-heavy, one
/// pointer-chasing, one bandwidth-bound profile — enough class diversity
/// to exercise every sketch without paying for the full Table III.
const SMOKE_WORKLOADS: [&str; 3] = ["milc", "lib", "mcf"];

struct Options {
    smoke: bool,
    full: bool,
    out: String,
    write: bool,
}

fn parse_args() -> Options {
    let mut opts = Options {
        smoke: false,
        full: false,
        out: "results/BENCH_latency.json".to_string(),
        write: true,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--full" => opts.full = true,
            "--out" => opts.out = args.next().expect("--out needs a path"),
            "--no-write" => opts.write = false,
            other => {
                eprintln!("unknown argument '{other}'");
                eprintln!("usage: latency [--smoke | --full] [--out PATH] [--no-write]");
                std::process::exit(2);
            }
        }
    }
    assert!(
        !(opts.smoke && opts.full),
        "--smoke and --full are mutually exclusive"
    );
    opts
}

/// One JSON object body for a sketch: count, mean, and the four tail
/// quantiles the plane is built around.
fn sketch_json(s: &QuantileSketch) -> String {
    let [p50, p95, p99, p999] = s.percentiles();
    format!(
        "{{ \"count\": {}, \"mean\": {:.1}, \"p50\": {p50}, \"p95\": {p95}, \"p99\": {p99}, \"p999\": {p999}, \"max\": {} }}",
        s.count(),
        s.mean(),
        s.max()
    )
}

fn main() {
    let opts = parse_args();
    let (cfg, params, mode) = if opts.smoke {
        (SystemConfig::small(), RunParams::smoke(), "smoke")
    } else if opts.full {
        (SystemConfig::experiment(), RunParams::full(), "full")
    } else {
        (SystemConfig::experiment(), RunParams::quick(), "quick")
    };
    // The sketches are fed by the epoch sampler's `on_demand` hook, not by
    // event rings, so the metrics-only tier measures them without
    // buffering a single event.
    let spec = RunSpec {
        tier: Tier::MetricsOnly,
        ..RunSpec::default()
    };
    let workloads: Vec<&str> = if opts.smoke {
        SMOKE_WORKLOADS.to_vec()
    } else {
        profiles::all().iter().map(|p| p.name).collect()
    };
    let kinds = lineup();

    println!(
        "latency: {} schemes x {} workloads, mode={mode}, {} accesses/core",
        kinds.len(),
        workloads.len(),
        params.accesses_per_core
    );

    let mut grid = ExperimentGrid::new(cfg, params);
    for name in &workloads {
        grid = grid.workload(profiles::by_name(name).expect("known workload"));
    }
    let jobs = grid.schemes(kinds.iter().copied()).jobs();
    let results: Vec<LatencyBreakdown> = run_grid(&jobs, &spec, default_threads())
        .expect("fault-free grid")
        .into_iter()
        .map(|out| out.obs.expect("the metrics tier reports").latency)
        .collect();

    // Results are workload-major in `kinds` order (the grid contract).
    let per_scheme: Vec<Vec<&LatencyBreakdown>> = (0..kinds.len())
        .map(|s| {
            (0..workloads.len())
                .map(|w| &results[w * kinds.len() + s])
                .collect()
        })
        .collect();

    // Console summary: overall tail per scheme, sketches merged across
    // workloads — legal because merge is order-invariant and exact.
    println!(
        "\n{:10} {:>12} {:>8} {:>8} {:>8} {:>8}",
        "scheme", "samples", "p50", "p95", "p99", "p999"
    );
    for (kind, rows) in kinds.iter().zip(&per_scheme) {
        let mut merged = LatencyBreakdown::new();
        for lat in rows {
            merged.merge(lat);
        }
        let all = merged.overall();
        let [p50, p95, p99, p999] = all.percentiles();
        println!(
            "{:10} {:>12} {:>8} {:>8} {:>8} {:>8}",
            kind.label(),
            all.count(),
            p50,
            p95,
            p99,
            p999
        );
    }

    if opts.write {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"meta\": {\n");
        out.push_str(&format!("    \"mode\": \"{mode}\",\n"));
        out.push_str(&format!(
            "    \"accesses_per_core\": {},\n",
            params.accesses_per_core
        ));
        out.push_str(&format!("    \"seed\": {},\n", params.seed));
        out.push_str("    \"unit\": \"demand issue-to-completion cycles\",\n");
        out.push_str(&format!(
            "    \"relative_error_bound\": {}\n",
            silcfm_obs::sketch::REL_ERROR_BOUND
        ));
        out.push_str("  },\n");
        out.push_str("  \"schemes\": {\n");
        let scheme_bodies: Vec<String> = kinds
            .iter()
            .zip(&per_scheme)
            .map(|(kind, rows)| {
                let workload_bodies: Vec<String> = workloads
                    .iter()
                    .zip(rows)
                    .map(|(name, lat)| {
                        let mut classes: Vec<String> = vec![format!(
                            "        \"overall\": {}",
                            sketch_json(&lat.overall())
                        )];
                        for class in AccessClass::ALL {
                            classes.push(format!(
                                "        \"{}\": {}",
                                class.label(),
                                sketch_json(lat.sketch(class))
                            ));
                        }
                        format!("      \"{name}\": {{\n{}\n      }}", classes.join(",\n"))
                    })
                    .collect();
                format!(
                    "    \"{}\": {{\n{}\n    }}",
                    kind.label(),
                    workload_bodies.join(",\n")
                )
            })
            .collect();
        out.push_str(&scheme_bodies.join(",\n"));
        out.push_str("\n  }\n}\n");
        write_artifact(&opts.out, &out);
        println!("\nwrote {}", opts.out);
    }
}
