//! Crash/resume driver for the journaled experiment grid (DESIGN.md §10).
//!
//! `chaos --journal PATH [--resume] [--die-after-jobs N]` runs a seeded
//! experiment grid through the crash-safe journaled runner and prints an
//! aggregate digest of the results. `--die-after-jobs N` simulates a crash:
//! after `N` jobs have been journaled the process appends a torn half-line
//! and exits with code 3, so CI can rerun with `--resume` and check the
//! digest matches an uninterrupted run's.
//!
//! Exit codes: 2 on a usage error, 3 from `--die-after-jobs`, 4 when the
//! journal cannot be read or written. The fault plane's invariants are
//! asserted by the property tests, not here.

use std::hash::Hasher;
use std::io::Write as _;
use std::path::PathBuf;

use silcfm_bench::Args;
use silcfm_sim::runner::ExperimentGrid;
use silcfm_sim::{run_grid_journaled, RunParams, RunResult, RunSpec, SchemeKind};
use silcfm_trace::profiles;
use silcfm_types::{FxHasher, SystemConfig};

/// Order-sensitive digest of a result list, for comparing a resumed run
/// against an uninterrupted one byte for byte.
fn aggregate_digest(results: &[RunResult]) -> u64 {
    let mut h = FxHasher::default();
    for r in results {
        h.write(format!("{r:?}").as_bytes());
    }
    h.finish()
}

fn main() {
    let mut args = Args::from_env("usage: chaos --journal PATH [--resume] [--die-after-jobs N]");
    let mut journal: Option<PathBuf> = None;
    let mut resume = false;
    let mut die_after: Option<u64> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--journal" => journal = Some(args.value("--journal")),
            "--resume" => resume = true,
            "--die-after-jobs" => die_after = Some(args.value("--die-after-jobs")),
            other => args.fail(&format!("unknown argument '{other}'")),
        }
    }
    let Some(path) = journal else {
        args.fail("--journal is required");
    };

    let jobs = ExperimentGrid::new(SystemConfig::small(), RunParams::smoke())
        .workload(profiles::by_name("mcf").expect("known workload"))
        .workload(profiles::by_name("milc").expect("known workload"))
        .scheme(SchemeKind::silcfm())
        .scheme(SchemeKind::Hma)
        .seed_per_job()
        .jobs();

    let mut appended = 0u64;
    let on_done = |index: usize, _: &RunResult| {
        appended += 1;
        println!("journal: job {index} done ({appended} this process)");
        if Some(appended) == die_after {
            // A torn tail: half a record, no newline — what a kill -9 in
            // the middle of a write leaves behind. Journal::resume must discard it.
            if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(&path) {
                let _ = f.write_all(b"job 1 silcfm");
            }
            println!("journal: simulating a crash after {appended} jobs");
            std::process::exit(3);
        }
    };
    match run_grid_journaled(&jobs, &RunSpec::default(), 2, &path, resume, on_done) {
        Ok(results) => println!(
            "journal: {} jobs complete, aggregate={:016x}",
            results.len(),
            aggregate_digest(&results)
        ),
        Err(e) => {
            eprintln!("chaos: {e}");
            std::process::exit(4);
        }
    }
}
