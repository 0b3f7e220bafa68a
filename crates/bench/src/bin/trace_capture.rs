//! Captures a fully traced run and exports the observability artifacts.
//!
//! Runs one (workload, scheme) pair through [`silcfm_sim::run_spec`] on the
//! sampling tier — by default at period 1, so the tracers on the controller
//! and both DRAM devices keep every event — plus the epoch time-series
//! sampler, then writes:
//!
//! * `--trace PATH` — Chrome trace-event JSON, loadable in
//!   `chrome://tracing` or <https://ui.perfetto.dev> (timestamps are raw
//!   simulation cycles);
//! * `--metrics-out PATH` — the per-epoch time series as CSV;
//! * `--summary` — the human summary table on stdout (event counts per
//!   unit, demand-latency histograms).
//!
//! Everything is deterministic: the same seed produces byte-identical
//! files. Options:
//!
//!   --workload NAME   Table III profile (default mcf)
//!   --scheme LABEL    base|rand|hma|cam|camp|pom|silcfm (default silcfm)
//!   --trace PATH      write Chrome trace JSON here
//!   --metrics-out P   write the epoch CSV here
//!   --summary         print the human summary table
//!   --smoke           small config + smoke-size run (CI-friendly)
//!   --epoch N         CPU cycles per sample (default 100000)
//!   --capacity N      ring capacity per tracer (default 1 Mi events)
//!   --sampling N      keep full events 1-in-N (N a power of two; default
//!                     1, every event). The per-kind counters printed
//!                     first are exact at any N; the exporters consume the
//!                     sampled ring unchanged.

use silcfm_bench::{lineup, write_artifact, Args};
use silcfm_obs::export;
use silcfm_sim::{run_spec, RunParams, RunSpec, Tier, TraceParams};
use silcfm_trace::profiles;
use silcfm_types::obs::EVENT_KIND_LABELS;
use silcfm_types::SystemConfig;

struct Options {
    workload: String,
    scheme: String,
    trace: Option<String>,
    metrics_out: Option<String>,
    summary: bool,
    smoke: bool,
    epoch: u64,
    capacity: usize,
    sampling: u64,
}

fn parse_args() -> Options {
    let defaults = TraceParams::default_capture();
    let mut opts = Options {
        workload: "mcf".to_string(),
        scheme: "silcfm".to_string(),
        trace: None,
        metrics_out: None,
        summary: false,
        smoke: false,
        epoch: defaults.epoch_cycles,
        capacity: defaults.events_capacity,
        sampling: 1,
    };
    let mut args = Args::from_env(
        "usage: trace_capture [--workload NAME] [--scheme LABEL] [--trace PATH] \
         [--metrics-out PATH] [--summary] [--smoke] [--epoch N] [--capacity N] \
         [--sampling N]",
    );
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => opts.workload = args.value("--workload"),
            "--scheme" => opts.scheme = args.value("--scheme"),
            "--trace" => opts.trace = Some(args.value("--trace")),
            "--metrics-out" => opts.metrics_out = Some(args.value("--metrics-out")),
            "--summary" => opts.summary = true,
            "--smoke" => opts.smoke = true,
            "--epoch" => opts.epoch = args.value("--epoch"),
            "--capacity" => opts.capacity = args.value("--capacity"),
            "--sampling" => opts.sampling = args.value("--sampling"),
            other => args.fail(&format!("unknown argument '{other}'")),
        }
    }
    if opts.epoch == 0 || opts.capacity == 0 {
        args.fail("--epoch and --capacity must be positive");
    }
    if !opts.sampling.is_power_of_two() {
        args.fail("--sampling must be a power of two");
    }
    opts
}

fn main() {
    let opts = parse_args();
    let profile = profiles::by_name(&opts.workload).unwrap_or_else(|| {
        eprintln!("unknown workload '{}'", opts.workload);
        let names: Vec<&str> = profiles::all().iter().map(|p| p.name).collect();
        eprintln!("known workloads: {}", names.join(" "));
        std::process::exit(2);
    });
    let scheme = lineup()
        .into_iter()
        .find(|k| k.label() == opts.scheme)
        .unwrap_or_else(|| {
            eprintln!("unknown scheme '{}'", opts.scheme);
            eprintln!("known schemes: base rand hma cam camp pom silcfm");
            std::process::exit(2);
        });

    let (cfg, params) = if opts.smoke {
        (SystemConfig::small(), RunParams::smoke())
    } else {
        (SystemConfig::experiment(), RunParams::quick())
    };
    let trace = TraceParams {
        events_capacity: opts.capacity,
        epoch_cycles: opts.epoch,
    };

    println!(
        "trace_capture: workload={} scheme={} accesses/core={} epoch={} capacity={} \
         sampling=1-in-{}",
        profile.name,
        opts.scheme,
        params.accesses_per_core,
        trace.epoch_cycles,
        trace.events_capacity,
        opts.sampling
    );
    let spec = RunSpec {
        tier: Tier::Sampled {
            period: opts.sampling,
        },
        trace,
        ..RunSpec::default()
    };
    let out =
        run_spec(profile, scheme, &cfg, &params, &spec).expect("a fault-free run cannot fail");
    let total: u64 = out.counters.iter().sum();
    println!("controller event counters ({total} events, exact):");
    for (label, count) in EVENT_KIND_LABELS.iter().zip(out.counters.iter()) {
        if *count > 0 {
            println!("  {label:<18} {count}");
        }
    }
    let (result, report) = (out.result, out.obs.expect("traced tiers always report"));
    println!(
        "run: {} cycles, access rate {:.3}, {} events captured, {} dropped",
        result.cycles,
        result.access_rate,
        report.event_count(),
        report.dropped
    );

    if let Some(path) = &opts.trace {
        write_artifact(path, &export::chrome_trace(&report));
        println!("wrote {path}");
    }
    if let Some(path) = &opts.metrics_out {
        write_artifact(path, &export::csv_series(&report));
        println!("wrote {path}");
    }
    if opts.summary {
        println!("\n{}", export::summary(&report));
    }
}
