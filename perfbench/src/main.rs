//! `perfbench`: runs one workload of the repository benchmark and prints
//! every metric by name and unit, ending with one JSON result line. See
//! `perfbench/README.md` for the workloads, metrics and per-layer map.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use silcfm_perfbench::jobs::{expected_digest, golden, Job, Outcome, Workload, DEFAULT_SEED};
use silcfm_perfbench::ledger::{
    glue_share, layer_metrics, layer_table, trace_job, SpanLog, GLUE_TOLERANCE,
};
use silcfm_perfbench::report::{
    median, medians, peak_rss_mib, result_line, spans_json, tail, Metric,
};

const USAGE: &str =
    "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
       perfbench --print-digests
workloads: silcfm-table3, base-table3, serve-mcf";

/// Set-up passes a run makes at least, so `setup_s` is always a median.
const MIN_SETUP_PASSES: usize = 5;

/// The parsed command line.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    print_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        spans: None,
        print_digests: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--print-digests" {
            args.print_digests = true;
            continue;
        }
        if !["--workload", "--seed", "--seconds", "--trace", "--spans"].contains(&flag.as_str()) {
            return Err(format!("unknown argument '{flag}'"));
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => {
                args.seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes a whole number, not '{value}'"))?;
            }
            "--seconds" => {
                let seconds: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds takes a number, not '{value}'"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], not {value}"));
                }
                args.seconds = seconds;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                };
            }
            _ => args.spans = Some(PathBuf::from(value)),
        }
    }
    if args.workload.is_none() && !args.print_digests {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        _ if args.print_digests => print_digests(),
        Some(w) if args.trace => traced(w, &args),
        Some(w) => untraced(w, &args),
        None => Err("--workload is required".to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The end-to-end run, tracing off: an untimed warm-up batch, then whole
/// timed batches, each preceded by a timed set-up pass.
fn untraced(workload: Workload, args: &Args) -> Result<bool, String> {
    let m = workload.machine(args.seed);
    let jobs = workload.jobs(&m);
    let batches = workload.batches(args.seconds);
    println!(
        "perfbench: workload={} seed={} trace=0: {batches} timed batches of {} jobs, {} records per job",
        workload.name(),
        args.seed,
        jobs.len(),
        m.records_per_job()
    );

    let mut failures = Vec::new();
    let expected: Vec<Option<u64>> = jobs
        .iter()
        .map(|job| match expected_digest(workload, job, &m) {
            Ok(d) => Some(d),
            Err(e) => {
                failures.push(e);
                None
            }
        })
        .collect();
    // First-touch allocation and host caches settle before timing starts;
    // the warm-up's outputs are checked like the timed ones.
    for (job, want) in jobs.iter().zip(&expected) {
        if let Err(e) = check(job, *want, job.run(&m, 1)) {
            failures.push(e);
        }
    }

    let mut job_s = Vec::with_capacity(batches * jobs.len());
    let mut batch_rate = Vec::with_capacity(batches);
    let mut setup_s = Vec::new();
    let mut failed = 0;
    for pass in 0..batches.max(MIN_SETUP_PASSES) {
        let mut setup = Duration::ZERO;
        for job in &jobs {
            setup += job.setup_time(&m)?;
        }
        setup_s.push(setup.as_secs_f64());
        if pass >= batches {
            continue;
        }
        let mut batch = 0.0;
        for (job, want) in jobs.iter().zip(&expected) {
            let start = Instant::now();
            let out = job.run(&m, 1);
            let secs = start.elapsed().as_secs_f64();
            job_s.push(secs);
            batch += secs;
            if let Err(e) = check(job, *want, out) {
                failed += 1;
                failures.push(e);
            }
        }
        batch_rate.push(jobs.len() as f64 * m.records_per_job() as f64 / batch);
    }

    let attempted = job_s.len();
    let t = tail(&job_s);
    let metrics = [
        Metric::new("records_per_s", "records/s", median(&batch_rate)),
        Metric::new("job_s_p50", "s", median(&job_s)),
        Metric::new("job_s_tail", "s", t.value),
        Metric::new("setup_s", "s", median(&setup_s)),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mib().unwrap_or(0.0)),
    ];
    let notes = [
        format!("median over {batches} batches"),
        format!("median of {attempted} jobs"),
        format!(
            "p{:.1}, {} samples beyond, n={attempted}",
            t.percentile, t.beyond
        ),
        format!(
            "median of {} set-up passes of {} jobs",
            setup_s.len(),
            jobs.len()
        ),
        "peak resident set of the process".to_string(),
    ];
    for (metric, note) in metrics.iter().zip(&notes) {
        print_metric(metric, note);
    }
    print_metric(
        &Metric::new(
            "job_fail_frac",
            "fraction",
            failed as f64 / attempted as f64,
        ),
        &format!("{failed} of {attempted} timed jobs failed their check"),
    );
    for f in &failures {
        println!("FAIL {f}");
    }
    println!(
        "{}",
        result_line(failures.is_empty(), attempted, failed, &metrics)
    );
    Ok(failures.is_empty())
}

/// Checks one untraced job's outputs against the digest it must reproduce.
fn check(job: &Job, want: Option<u64>, out: Result<Outcome, String>) -> Result<(), String> {
    let out = out?;
    let Some(want) = want else {
        return Err(format!("{}: no expected digest", job.name));
    };
    if !out.conserved() {
        return Err(format!("{}: a conservation ledger is violated", job.name));
    }
    let got = out.digest();
    if got != want {
        return Err(format!(
            "{}: digest {got:016x}, expected {want:016x}",
            job.name
        ));
    }
    Ok(())
}

/// The traced run: every job captured once and every layer replayed alone,
/// repeated over whole batches until `--seconds` have passed. Timings are
/// medians over the passes; work counts are exact.
fn traced(workload: Workload, args: &Args) -> Result<bool, String> {
    let origin = Instant::now();
    let m = workload.machine(args.seed);
    let jobs = workload.jobs(&m);
    println!(
        "perfbench: workload={} seed={} trace=1: capture and per-layer replay of {} jobs, {} records per job",
        workload.name(),
        args.seed,
        jobs.len(),
        m.records_per_job()
    );
    let mut failures = Vec::new();
    let expected: Vec<Option<u64>> = jobs
        .iter()
        .map(|job| {
            if args.seed != DEFAULT_SEED {
                return None;
            }
            let stored = golden(workload, &job.name);
            if stored.is_none() {
                failures.push(format!("{}: no stored digest", job.name));
            }
            stored
        })
        .collect();
    let mut spans = SpanLog::new(origin);
    let mut passes = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    loop {
        let traced: Vec<_> = jobs
            .iter()
            .zip(&expected)
            .map(|(job, want)| trace_job(job, &m, *want, &mut spans))
            .collect();
        for tj in &traced {
            attempted += 1;
            if !tj.failures.is_empty() {
                failed += 1;
                failures.extend(tj.failures.iter().map(|f| format!("{}: {f}", tj.name)));
            }
        }
        if glue_share(&traced) < -GLUE_TOLERANCE {
            println!(
                "note: pass {}: the replayed layers exceed the traced end-to-end time by more than the tolerance",
                passes.len()
            );
        }
        if passes.is_empty() {
            print!("{}", layer_table(&traced));
        }
        passes.push(layer_metrics(&traced));
        if origin.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let metrics = medians(&passes);
    println!(
        "per-layer metrics, timings as medians over {} passes:",
        passes.len()
    );
    for metric in &metrics {
        print_metric(metric, "");
    }
    let path = args.spans.clone().unwrap_or_else(|| {
        PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.json",
            workload.name(),
            args.seed
        ))
    });
    match write_spans(&path, &spans) {
        Ok(()) => println!("spans: {} written to {}", spans.spans.len(), path.display()),
        Err(e) => println!("spans: not written to {}: {e}", path.display()),
    }
    for f in &failures {
        println!("FAIL {f}");
    }
    println!(
        "{}",
        result_line(failures.is_empty(), attempted, failed, &metrics)
    );
    Ok(failures.is_empty())
}

fn write_spans(path: &Path, spans: &SpanLog) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, spans_json(&spans.spans))
}

fn print_metric(m: &Metric, note: &str) {
    println!("{:<28} {:>18.6} {:<14} {note}", m.name, m.value, m.unit);
}

/// Prints every job's output digest at the default seed, in `golden.txt`'s
/// format.
fn print_digests() -> Result<bool, String> {
    println!("# workload job digest, at seed {DEFAULT_SEED}");
    for workload in Workload::ALL {
        let m = workload.machine(DEFAULT_SEED);
        for job in workload.jobs(&m) {
            let out = job.run(&m, 1)?;
            println!("{} {} {:016x}", workload.name(), job.name, out.digest());
        }
    }
    Ok(true)
}
