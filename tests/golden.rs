//! Golden-stats snapshot test.
//!
//! One fixed-seed trace per Table III workload runs through SILC-FM and
//! each baseline (HMA, CAMEO, PoM); a digest of the stats the paper's
//! figures are built from — hit rate (Eq. 1 access rate), NM demand
//! fraction, and swap counts — is compared against the checked-in
//! snapshot `tests/golden_stats.txt`.
//!
//! The snapshot pins the *whole* simulation stack: trace generation (the
//! in-tree xoshiro256** streams), the cache hierarchy, every scheme's
//! placement decisions, and the DRAM timing models. Any behavioral change
//! shows up as a diff here before it shows up as a mystery in a figure.
//!
//! To bless a deliberate change: `BLESS=1 cargo test --test golden` and
//! review the diff like any other code change.

use std::fmt::Write as _;

use silc_fm::sim::experiment::space_for;
use silc_fm::sim::{
    run_grid, run_grid_serial, run_spec, ExperimentGrid, Job, RunOutput, RunParams, RunResult,
    RunSpec, SchemeKind,
};
use silc_fm::trace::{PageMapper, PlacementPolicy, WorkloadGen};
use silc_fm::types::{Access, CoreId, SchemeOutcome, SystemConfig};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_stats.txt");

/// The snapshot grid: every workload × (SILC-FM + the paper's baselines),
/// on the small config with sub-smoke-sized fixed-seed runs (the grid is
/// 56 cells and runs twice — serial and parallel — so each cell is kept
/// to a third of a smoke run to stay inside a tier-1 time budget).
fn snapshot_jobs() -> Vec<Job> {
    let params = RunParams {
        accesses_per_core: 10_000,
        ..RunParams::smoke()
    };
    ExperimentGrid::new(SystemConfig::small(), params)
        .all_workloads()
        .schemes([
            SchemeKind::Hma,
            SchemeKind::Cameo,
            SchemeKind::Pom,
            SchemeKind::silcfm(),
        ])
        .jobs()
}

/// Runs `job` the way `spec` says; the specs here arm no faults.
fn run_job(job: &Job, spec: &RunSpec) -> RunOutput {
    run_spec(&job.profile, job.scheme, &job.cfg, &job.params, spec).unwrap()
}

/// The results of a grid's outputs, in job order.
fn results(outputs: &[RunOutput]) -> Vec<RunResult> {
    outputs.iter().map(|o| o.result.clone()).collect()
}

/// Renders the stats digest, one line per run. Floats print with six
/// decimals: the runs are bit-deterministic, so the text is too.
fn digest(results: &[silc_fm::sim::RunResult]) -> String {
    let mut out = String::new();
    out.push_str("# workload scheme hit_rate nm_demand_frac subblock_swaps block_migrations\n");
    for r in results {
        writeln!(
            out,
            "{} {} hit_rate={:.6} nm_frac={:.6} sub_swaps={} blk_migr={}",
            r.workload,
            r.scheme,
            r.access_rate,
            r.traffic.nm_demand_fraction(),
            r.scheme_stats.subblocks_moved,
            r.scheme_stats.blocks_migrated,
        )
        .unwrap();
    }
    out
}

#[test]
fn golden_stats_snapshot() {
    let jobs = snapshot_jobs();
    let serial = run_grid_serial(&jobs);
    let actual = digest(&serial);

    // The parallel engine must reproduce the digest bit for bit — this is
    // the aggregate-level determinism guarantee of the sharded runner.
    let parallel = run_grid(&jobs, &RunSpec::default(), 4).unwrap();
    assert_eq!(
        digest(&results(&parallel)),
        actual,
        "parallel runner digest diverged from the serial path"
    );

    #[allow(
        clippy::disallowed_methods,
        reason = "BLESS is the sanctioned snapshot-regeneration switch; \
                  it rewrites the golden file, never the simulated results"
    )]
    if std::env::var("BLESS").is_ok() {
        std::fs::write(GOLDEN_PATH, &actual).expect("write golden snapshot");
        return;
    }

    let expected = std::fs::read_to_string(GOLDEN_PATH)
        .expect("tests/golden_stats.txt missing; regenerate with BLESS=1 cargo test --test golden");
    if actual != expected {
        // Line-level diff keeps the failure actionable.
        for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
            if a != e {
                eprintln!("line {}:\n  expected: {e}\n  actual:   {a}", i + 1);
            }
        }
        panic!(
            "golden stats diverged ({} vs {} lines); if intentional, rerun \
             with BLESS=1 and commit the diff",
            actual.lines().count(),
            expected.lines().count()
        );
    }
}

/// Thread-invariance of the *sharded single-run* engine against the same
/// committed snapshot: executing every workload × scheme row with the
/// simulation itself sharded at 2 and at 4 threads must reproduce the
/// serial digest bit for bit, with zero epoch-merge handoff mismatches —
/// and the per-job lane-delta checksums must be identical across thread
/// counts, because they are a pure function of the workload streams.
#[test]
fn sharded_digests_match_the_committed_snapshot_at_any_thread_count() {
    use silc_fm::sim::{run_sharded, ShardParams};

    #[allow(
        clippy::disallowed_methods,
        reason = "during a BLESS re-snapshot the committed file is mid-rewrite by the \
                  snapshot test; this check reruns on the next ordinary test pass"
    )]
    if std::env::var("BLESS").is_ok() {
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN_PATH)
        .expect("tests/golden_stats.txt missing; regenerate with BLESS=1 cargo test --test golden");

    let jobs = snapshot_jobs();
    let mut checksum_rows: Vec<Vec<u64>> = Vec::new();
    for threads in [2usize, 4] {
        let shard = ShardParams {
            threads,
            epoch_records: 1024,
            lookahead_epochs: 4,
        };
        let mut results = Vec::new();
        let mut checksums = Vec::new();
        for job in &jobs {
            let (r, report) = run_sharded(&job.profile, job.scheme, &job.cfg, &job.params, &shard);
            assert_eq!(
                report.delta_mismatches, 0,
                "{}/{} tore an epoch handoff at {threads} threads",
                r.workload, r.scheme
            );
            checksums.push(report.checksum);
            results.push(r);
        }
        assert_eq!(
            digest(&results),
            expected,
            "sharded digest at {threads} threads diverged from the committed snapshot"
        );
        checksum_rows.push(checksums);
    }
    assert_eq!(
        checksum_rows[0], checksum_rows[1],
        "lane-delta checksums must be thread-count invariant"
    );
}

/// The outcome-reuse protocol is behavior-neutral: driving every scheme with
/// one reused `SchemeOutcome` produces exactly the op sequences, servicing
/// decisions and tallies of a fresh outcome per access. This is the
/// equivalence `System::run` (which reuses) leans on, pinned here against a
/// fixed-seed workload for SILC-FM and all four baselines.
#[test]
fn outcome_reuse_matches_fresh_outcomes() {
    let cfg = SystemConfig::small();
    let params = RunParams::smoke();
    let profile = silc_fm::trace::profiles::scaled(
        silc_fm::trace::profiles::by_name("milc").unwrap(),
        params.footprint_scale,
    );
    let space = space_for(&profile, &cfg, &params);

    let schemes = [
        SchemeKind::Rand,
        SchemeKind::Hma,
        SchemeKind::Cameo,
        SchemeKind::CameoPrefetch,
        SchemeKind::Pom,
        SchemeKind::silcfm(),
    ];
    for kind in schemes {
        // Identical access stream for both drivers.
        let mut mapper = PageMapper::new(space, PlacementPolicy::RandomSeeded(params.seed));
        let mut gen = WorkloadGen::new(&profile, CoreId::new(0), params.seed);
        let accesses: Vec<Access> = (0..20_000)
            .map(|_| {
                let rec = gen.next_record();
                let paddr = mapper
                    .translate(CoreId::new(0), rec.vaddr)
                    .expect("footprint exceeds physical memory");
                Access::read(paddr, rec.pc, CoreId::new(0))
            })
            .collect();

        let mut fresh = kind.build(space, accesses.len() as u64);
        let mut reuse = kind.build(space, accesses.len() as u64);
        let mut out = SchemeOutcome::empty();
        for (i, access) in accesses.iter().enumerate() {
            let expected = fresh.access_fresh(access);
            reuse.access(access, &mut out);
            assert_eq!(
                out,
                expected,
                "access {i} diverged under outcome reuse ({})",
                fresh.name()
            );
        }
        assert_eq!(
            fresh.stats(),
            reuse.stats(),
            "stats diverged under outcome reuse ({})",
            fresh.name()
        );
    }
}

/// Tracing is observation only. Running the whole snapshot grid with every
/// event traced, the demand-latency histograms and epoch sampler live must
/// reproduce the untraced stats digest bit for bit — the `T::ENABLED` emit
/// sites never touch simulation state. And the exported artifacts are
/// themselves deterministic: a serial re-run of a cell produces Chrome
/// traces and CSV time series byte-identical to the parallel run's.
#[test]
fn tracing_is_behavior_neutral_and_deterministic() {
    use silc_fm::obs::export;
    use silc_fm::sim::{Tier, TraceParams};

    let jobs = snapshot_jobs();
    let untraced = digest(&run_grid_serial(&jobs));

    let spec = RunSpec {
        tier: Tier::Sampled { period: 1 },
        trace: TraceParams {
            events_capacity: 1 << 14,
            epoch_cycles: 50_000,
        },
        ..RunSpec::default()
    };
    let traced = run_grid(&jobs, &spec, 4).unwrap();
    assert_eq!(
        digest(&results(&traced)),
        untraced,
        "turning tracing on changed simulated behavior"
    );

    // Byte-identical exports, serial vs parallel, spot-checked on a few
    // cells (the full grid above already pins the numeric digest).
    for (job, parallel) in jobs.iter().zip(&traced).take(3) {
        let parallel_report = parallel.obs.as_ref().unwrap();
        let serial_report = run_job(job, &spec).obs.unwrap();
        assert_eq!(
            export::chrome_trace(&serial_report),
            export::chrome_trace(parallel_report),
            "chrome trace diverged between serial and parallel runs"
        );
        assert_eq!(
            export::csv_series(&serial_report),
            export::csv_series(parallel_report),
            "CSV time series diverged between serial and parallel runs"
        );
    }
}

/// The latency-percentile plane is engine-invariant: the per-class
/// quantile-sketch encodings (and therefore every percentile report built
/// from them) must be byte-identical whether a cell runs serially or on
/// the sharded engine at 2 or 4 threads. The sketches fold samples in
/// completion order, so this pins the guarantee that sharded epoch-barrier
/// commits replay the *exact* serial completion sequence — a weaker
/// "same multiset of samples" property would already give identical
/// percentiles, but byte equality of the counts is what the journal and
/// the grid aggregation rely on.
#[test]
fn latency_sketches_are_byte_identical_serial_vs_sharded() {
    use silc_fm::sim::{Engine, ShardParams, Tier, TraceParams};

    let spec = RunSpec {
        tier: Tier::Sampled { period: 1 },
        trace: TraceParams {
            events_capacity: 1 << 14,
            epoch_cycles: 50_000,
        },
        ..RunSpec::default()
    };
    // A slice of the snapshot grid with class diversity: SILC-FM exercises
    // swap/bypass/lock paths, HMA the epoch-migration path.
    let jobs: Vec<Job> = snapshot_jobs()
        .into_iter()
        .filter(|j| {
            matches!(j.scheme, SchemeKind::Hma | SchemeKind::SilcFm(_))
                && ["milc", "lib"].contains(&j.profile.name)
        })
        .collect();
    assert_eq!(
        jobs.len(),
        4,
        "the filter should keep 2 workloads x 2 schemes"
    );

    for job in &jobs {
        let serial_report = run_job(job, &spec).obs.unwrap();
        let mut serial_bytes = String::new();
        serial_report.latency.encode(&mut serial_bytes);
        assert!(
            serial_report.latency.count() > 0,
            "the percentile plane must see samples"
        );
        for threads in [2usize, 4] {
            let sharded = RunSpec {
                engine: Engine::Sharded(ShardParams::with_threads(threads)),
                ..spec
            };
            let sharded_report = run_job(job, &sharded).obs.unwrap();
            let mut sharded_bytes = String::new();
            sharded_report.latency.encode(&mut sharded_bytes);
            assert_eq!(
                sharded_bytes,
                serial_bytes,
                "{}/{}: sketch bytes diverged at {threads} threads",
                job.profile.name,
                job.scheme.label()
            );
        }
    }
}
