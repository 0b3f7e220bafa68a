//! Simulator throughput benchmark: simulated accesses per second, per
//! scheme and per layer.
//!
//! Every figure in the paper is produced by replaying post-LLC-miss
//! accesses through [`MemoryScheme::access`], so simulated-accesses-per-
//! second is the currency of the whole reproduction. This binary measures
//! it at two layers:
//!
//! * **scheme-only** — a pre-generated access stream driven straight into
//!   the scheme, isolating the placement logic (remap lookups, swap
//!   bookkeeping, op emission) from the rest of the machine;
//! * **full-system** — [`silcfm_sim::run`], i.e. cores + caches + scheme +
//!   both DRAM timing models, which is what the experiment harnesses pay.
//!
//! Each scheme gets a fixed access budget spread evenly over the Table III
//! workload profiles. The binary also times the `scheme_shootout` grid
//! (serial vs sharded-parallel) so whole-grid speed is tracked alongside
//! per-access speed. Results land in `results/BENCH_throughput.json`.
//!
//! Run with: `cargo run --release -p silcfm-bench --bin throughput`
//! Options:
//!   --budget N    accesses per scheme per layer (default 560000)
//!   --repeats N   repetitions per measurement; best rate wins (default 3)
//!   --out PATH    output JSON path (default results/BENCH_throughput.json)
//!   --no-write    measure and print, but do not write the JSON
//!   --skip-grid   skip the serial-vs-parallel grid timing
//!   --overhead    also measure SILC-FM full-system on every traced tier
//!                 of [`Tier`]: the ring tracers and epoch sampler live
//!                 (tracer-on vs tracer-off acc/s), the metrics-only tier
//!                 (latency sketches ON, no event buffering), plus the
//!                 lean sampling tier at 1-in-N rates
//!   --baseline P  JSON from a pre-change build of this binary; its rates
//!                 are embedded as "pre_change" and a full-system SILC-FM
//!                 speedup ratio is computed against it
//!
//! Each measurement is repeated `--repeats` times and the best rate is
//! reported: minimum-time estimation discards interference from whatever
//! else the host is running, which on shared machines dwarfs the
//! simulator's own run-to-run variation.
//!
//! [`MemoryScheme::access`]: silcfm_types::MemoryScheme::access

use std::time::Instant;

use silcfm_sim::experiment::space_for;
use silcfm_sim::{
    run_grid, run_grid_serial, run_spec, ExperimentGrid, RunParams, RunSpec, SchemeKind, Tier,
    TraceParams,
};
use silcfm_trace::{profiles, PageMapper, PlacementPolicy, WorkloadGen};
use silcfm_types::{Access, CoreId, SystemConfig};

/// Default accesses per scheme per layer, spread over the profiles.
const DEFAULT_BUDGET: u64 = 560_000;

/// Ring capacity for the `--overhead` regimes. The timed region includes
/// system construction (as it does for the untraced rate, so both sides
/// pay the same fixed costs) — but a capture-sized 1 Mi-event ring per
/// tracer means ~75 MB of allocation, which at this benchmark's run
/// lengths would dwarf the record-path cost being measured. 16 Ki events
/// is plenty for a steady-state record-cost measurement (the ring wraps;
/// wrapping *is* the steady state) and allocates in microseconds.
const OVERHEAD_EVENTS_CAPACITY: usize = 1 << 14;

/// 1-in-N sampling periods the `--overhead` mode measures. The smallest
/// period is the most expensive (it retains the most full events), so the
/// pair brackets the tier's realistic operating range.
const SAMPLING_PERIODS: [u64; 2] = [16, 256];

struct Options {
    budget: u64,
    repeats: u32,
    out: String,
    write: bool,
    grid: bool,
    overhead: bool,
    baseline: Option<String>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        budget: DEFAULT_BUDGET,
        repeats: 3,
        out: "results/BENCH_throughput.json".to_string(),
        write: true,
        grid: true,
        overhead: false,
        baseline: None,
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
            "--overhead" => opts.overhead = true,
            "--baseline" => opts.baseline = Some(args.next().expect("--baseline needs a path")),
            other => {
                eprintln!("unknown argument '{other}'");
                eprintln!(
                    "usage: throughput [--budget N] [--repeats N] [--out PATH] \
                     [--no-write] [--skip-grid] [--overhead] [--baseline PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    opts
}

/// The benchmark lineup: the no-NM baseline plus the Fig. 7 schemes.
fn lineup() -> Vec<SchemeKind> {
    let mut kinds = vec![SchemeKind::NoNm];
    kinds.extend(SchemeKind::fig7_lineup());
    kinds
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

/// Accesses/sec for one scheme through the full `System::run` pipeline on
/// `tier`. [`Tier::Off`] is what the experiment harnesses pay; the gap
/// against it is the price of the tier's observability: the ring tracers
/// plus metrics plane, the metrics plane (latency sketches) alone, or the
/// always-on lean sampling tier. The NullTracer build pays nothing (the
/// emit sites monomorphize away).
fn full_system_rate(
    kind: SchemeKind,
    cfg: &SystemConfig,
    params: &RunParams,
    per_profile: u64,
    repeats: u32,
    tier: Tier,
) -> f64 {
    let cores = u64::from(cfg.core.cores);
    let p = RunParams {
        accesses_per_core: (per_profile / cores).max(1),
        ..*params
    };
    let spec = RunSpec {
        tier,
        trace: TraceParams {
            events_capacity: OVERHEAD_EVENTS_CAPACITY,
            ..TraceParams::default_capture()
        },
        ..RunSpec::default()
    };
    let mut best = 0.0f64;
    for _ in 0..repeats {
        let mut total = 0u64;
        let mut elapsed = 0.0f64;
        for profile in profiles::all() {
            let t0 = Instant::now();
            let out =
                run_spec(profile, kind, cfg, &p, &spec).expect("a fault-free run cannot fail");
            elapsed += t0.elapsed().as_secs_f64();
            std::hint::black_box(&out);
            total += p.accesses_per_core * cores;
        }
        best = best.max(total as f64 / elapsed);
    }
    best
}

/// What `--overhead` measured: the ring tier on/off pair, the metrics-only
/// (latency-sketch) tier, plus the sampling tier's rate at each period of
/// [`SAMPLING_PERIODS`].
struct Overhead {
    off: f64,
    on: f64,
    metrics: f64,
    sampled: Vec<(u64, f64)>,
}

/// Times the `scheme_shootout` grid serially and through the sharded pool.
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

/// Pre-change rates parsed back out of a JSON file written by an older
/// build of this binary (same format).
struct Baseline {
    scheme_only: String,
    full_system: String,
    silcfm_scheme_only: Option<f64>,
    silcfm_full_system: Option<f64>,
}

/// Extracts the body of a flat `"key": { ... }` object. The input is this
/// binary's own output, so object bodies never contain nested braces.
fn extract_object(json: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": {{");
    let start = json.find(&tag)? + tag.len();
    let end = start + json[start..].find('}')?;
    Some(json[start..end].trim().to_string())
}

/// Extracts a single `"name": <number>` rate from an object body.
fn extract_rate(body: &str, name: &str) -> Option<f64> {
    let tag = format!("\"{name}\": ");
    let start = body.find(&tag)? + tag.len();
    let rest = &body[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn load_baseline(path: &str) -> Baseline {
    let json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let full_system =
        extract_object(&json, "full_system").expect("baseline JSON has no full_system section");
    let scheme_only = extract_object(&json, "scheme_only").unwrap_or_default();
    Baseline {
        silcfm_full_system: extract_rate(&full_system, "silcfm"),
        silcfm_scheme_only: extract_rate(&scheme_only, "silcfm"),
        scheme_only,
        full_system,
    }
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

    let mut scheme_only: Vec<(&'static str, f64)> = Vec::new();
    let mut full_system: Vec<(&'static str, f64)> = Vec::new();
    println!(
        "\n{:8} {:>18} {:>18}",
        "scheme", "scheme-only acc/s", "full-system acc/s"
    );
    for kind in lineup() {
        let so = scheme_only_rate(kind, &streams, opts.repeats);
        let fs = full_system_rate(kind, &cfg, &params, per_profile, opts.repeats, Tier::Off);
        println!("{:8} {:>18.0} {:>18.0}", kind.label(), so, fs);
        scheme_only.push((kind.label(), so));
        full_system.push((kind.label(), fs));
    }

    let overhead = if opts.overhead {
        let kind = SchemeKind::silcfm();
        // Round-robin the regimes (off, ring-on, each sampling period) inside
        // every repeat instead of measuring each regime `repeats` times in a
        // row: on a noisy shared host the noise window drifts over seconds,
        // and back-to-back regimes see the same window while block-sequential
        // ones can see entirely different machines. Best-of per regime across
        // rounds keeps the ratios honest.
        let mut off = 0.0f64;
        let mut on = 0.0f64;
        let mut metrics = 0.0f64;
        let mut sampled: Vec<(u64, f64)> = SAMPLING_PERIODS
            .iter()
            .map(|&period| (period, 0.0))
            .collect();
        for _ in 0..opts.repeats.max(1) {
            let rate = |tier| full_system_rate(kind, &cfg, &params, per_profile, 1, tier);
            off = off.max(rate(Tier::Off));
            on = on.max(rate(Tier::Ring));
            metrics = metrics.max(rate(Tier::MetricsOnly));
            for entry in &mut sampled {
                entry.1 = entry.1.max(rate(Tier::SampledLean { period: entry.0 }));
            }
        }
        println!(
            "\nsilcfm full-system tracing overhead: {:.0} acc/s off, {:.0} acc/s on \
             ({:.1}% slower)",
            off,
            on,
            (1.0 - on / off) * 100.0
        );
        println!(
            "silcfm full-system latency sketches only: {:.0} acc/s \
             ({:.1}% slower than untraced)",
            metrics,
            (1.0 - metrics / off) * 100.0
        );
        for &(period, rate) in &sampled {
            println!(
                "silcfm full-system sampling tracer 1-in-{period}: {:.0} acc/s \
                 ({:.1}% slower than untraced)",
                rate,
                (1.0 - rate / off) * 100.0
            );
        }
        Some(Overhead {
            off,
            on,
            metrics,
            sampled,
        })
    } else {
        None
    };

    let grid = if opts.grid {
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
        Some((jobs, threads, serial_ms, parallel_ms))
    } else {
        None
    };

    let baseline = opts.baseline.as_deref().map(load_baseline);
    if let Some(b) = &baseline {
        let find = |pairs: &[(&'static str, f64)]| {
            pairs
                .iter()
                .find(|(name, _)| *name == "silcfm")
                .map(|&(_, r)| r)
        };
        if let (Some(pre), Some(post)) = (b.silcfm_scheme_only, find(&scheme_only)) {
            println!(
                "\nscheme-only silcfm vs baseline: {:.0} -> {:.0} acc/s ({:.3}x)",
                pre,
                post,
                post / pre
            );
        }
        if let (Some(pre), Some(post)) = (b.silcfm_full_system, find(&full_system)) {
            println!(
                "full-system silcfm vs baseline: {:.0} -> {:.0} acc/s ({:.3}x)",
                pre,
                post,
                post / pre
            );
        }
    }

    if opts.write {
        let json = render_json(
            opts.budget,
            per_profile * n_profiles,
            &scheme_only,
            &full_system,
            grid,
            overhead.as_ref(),
            baseline.as_ref(),
        );
        if let Some(dir) = std::path::Path::new(&opts.out).parent() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
        std::fs::write(&opts.out, json).expect("write results JSON");
        println!("\nwrote {}", opts.out);
    }
}

/// Hand-rolled JSON (the workspace is dependency-free by policy).
fn render_json(
    budget: u64,
    accesses: u64,
    scheme_only: &[(&'static str, f64)],
    full_system: &[(&'static str, f64)],
    grid: Option<(usize, usize, f64, f64)>,
    overhead: Option<&Overhead>,
    baseline: Option<&Baseline>,
) -> String {
    fn rates(pairs: &[(&'static str, f64)]) -> String {
        let body: Vec<String> = pairs
            .iter()
            .map(|(name, rate)| format!("    \"{name}\": {rate:.0}"))
            .collect();
        body.join(",\n")
    }
    fn reindent(body: &str, indent: &str) -> String {
        body.lines()
            .map(|l| format!("{indent}{}", l.trim()))
            .collect::<Vec<_>>()
            .join("\n")
    }
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"meta\": {\n");
    out.push_str(&format!("    \"budget_per_scheme_per_layer\": {budget},\n"));
    out.push_str(&format!(
        "    \"accesses_measured_per_scheme\": {accesses},\n"
    ));
    out.push_str("    \"config\": \"small\",\n");
    out.push_str("    \"unit\": \"simulated accesses per second\"\n");
    out.push_str("  },\n");
    out.push_str("  \"scheme_only\": {\n");
    out.push_str(&rates(scheme_only));
    out.push_str("\n  },\n");
    out.push_str("  \"full_system\": {\n");
    out.push_str(&rates(full_system));
    out.push_str("\n  }");
    if let Some((jobs, threads, serial_ms, parallel_ms)) = grid {
        out.push_str(",\n  \"grid\": {\n");
        out.push_str(&format!("    \"jobs\": {jobs},\n"));
        out.push_str(&format!("    \"threads\": {threads},\n"));
        out.push_str(&format!("    \"serial_ms\": {serial_ms:.1},\n"));
        out.push_str(&format!("    \"parallel_ms\": {parallel_ms:.1},\n"));
        // A 1-thread "parallel" run measures pool overhead, not speedup;
        // recording 1.00x would misrepresent an unmeasurable quantity.
        if threads == 1 {
            out.push_str("    \"speedup\": null,\n");
            out.push_str("    \"warning\": \"measured with 1 thread; speedup is not defined\"\n");
        } else {
            out.push_str(&format!(
                "    \"speedup\": {:.2}\n",
                serial_ms / parallel_ms
            ));
        }
        out.push_str("  }");
    }
    if let Some(ov) = overhead {
        let (off, on) = (ov.off, ov.on);
        out.push_str(",\n  \"tracing_overhead\": {\n");
        out.push_str("    \"scheme\": \"silcfm\",\n");
        out.push_str("    \"layer\": \"full_system\",\n");
        out.push_str(&format!("    \"tracer_off_acc_s\": {off:.0},\n"));
        out.push_str(&format!("    \"tracer_on_acc_s\": {on:.0},\n"));
        out.push_str(&format!(
            "    \"on_over_off_ratio\": {:.3},\n",
            if off > 0.0 { on / off } else { 0.0 }
        ));
        out.push_str(&format!(
            "    \"overhead_pct\": {:.1},\n",
            if off > 0.0 {
                (1.0 - on / off) * 100.0
            } else {
                0.0
            }
        ));
        out.push_str(&format!("    \"metrics_only_acc_s\": {:.0},\n", ov.metrics));
        out.push_str(&format!(
            "    \"metrics_only_overhead_pct\": {:.1},\n",
            if off > 0.0 {
                (1.0 - ov.metrics / off) * 100.0
            } else {
                0.0
            }
        ));
        out.push_str("    \"sampling_tracer\": {\n");
        let mut lines: Vec<String> = Vec::new();
        for &(period, rate) in &ov.sampled {
            lines.push(format!("      \"period_{period}_acc_s\": {rate:.0}"));
            lines.push(format!(
                "      \"period_{period}_overhead_pct\": {:.1}",
                if off > 0.0 {
                    (1.0 - rate / off) * 100.0
                } else {
                    0.0
                }
            ));
        }
        out.push_str(&lines.join(",\n"));
        out.push_str("\n    }\n");
        out.push_str("  }");
    }
    if let Some(b) = baseline {
        out.push_str(",\n  \"pre_change\": {\n");
        out.push_str("    \"scheme_only\": {\n");
        out.push_str(&reindent(&b.scheme_only, "      "));
        out.push_str("\n    },\n");
        out.push_str("    \"full_system\": {\n");
        out.push_str(&reindent(&b.full_system, "      "));
        out.push_str("\n    }\n  }");
        let find = |pairs: &[(&'static str, f64)]| {
            pairs
                .iter()
                .find(|(name, _)| *name == "silcfm")
                .map(|&(_, r)| r)
        };
        if let (Some(pre), Some(post)) = (b.silcfm_scheme_only, find(scheme_only)) {
            out.push_str(&format!(
                ",\n  \"speedup_scheme_only_silcfm\": {:.3}",
                post / pre
            ));
        }
        if let (Some(pre), Some(post)) = (b.silcfm_full_system, find(full_system)) {
            out.push_str(&format!(
                ",\n  \"speedup_full_system_silcfm\": {:.3}",
                post / pre
            ));
        }
    }
    out.push_str("\n}\n");
    out
}
