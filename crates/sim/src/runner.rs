//! Parallel execution of experiment grids.
//!
//! Every figure harness runs the same shape of computation: a grid of
//! (workload profile × scheme × configuration point) simulations, each
//! completely independent of the others. This module dispatches that grid
//! across a `std::thread` worker pool with work stealing and returns results
//! in grid order, **bit-identical** to running the jobs serially:
//!
//! * each [`Job`] is self-contained (its own profile, scheme, config and
//!   seed), so execution order cannot leak into results;
//! * per-job seeds are derived deterministically from a base seed and the
//!   job's grid index via [`SplitMix64`], so
//!   regridding or resharding never changes any individual run;
//! * workers tag each result with its job index and the pool reassembles
//!   them in index order, so aggregate output is a pure function of the grid.
//!
//! # Example
//!
//! ```
//! use silcfm_sim::runner::{ExperimentGrid, run_grid, run_grid_serial};
//! use silcfm_sim::{RunParams, RunSpec, SchemeKind};
//! use silcfm_trace::profiles;
//! use silcfm_types::SystemConfig;
//!
//! let grid = ExperimentGrid::new(SystemConfig::small(), RunParams::smoke())
//!     .workload(profiles::by_name("mcf").unwrap())
//!     .scheme(SchemeKind::NoNm)
//!     .scheme(SchemeKind::silcfm());
//! let jobs = grid.jobs();
//! let parallel = run_grid(&jobs, &RunSpec::default(), 2).unwrap();
//! let serial = run_grid_serial(&jobs);
//! for (p, s) in parallel.iter().zip(&serial) {
//!     assert_eq!(p.result.cycles, s.cycles);
//!     assert_eq!(p.result.traffic, s.traffic);
//! }
//! ```

use std::collections::VecDeque;
use std::path::Path;
use std::sync::mpsc;
#[allow(
    clippy::disallowed_types,
    reason = "the grid pool owns the workspace's job-level parallelism; results are reassembled in job order"
)]
use std::sync::Mutex;

use silcfm_trace::profiles::WorkloadProfile;
use silcfm_types::rng::SplitMix64;
use silcfm_types::{SilcFmError, SystemConfig};

use crate::experiment::{run, run_spec, RunOutput, RunParams, RunSpec, SchemeKind};
use crate::journal::{self, JobRecord, Journal};
use crate::metrics::RunResult;

/// One self-contained simulation: everything [`run`] needs, by value, so the
/// job can execute on any worker in any order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Workload profile to simulate.
    pub profile: WorkloadProfile,
    /// Placement scheme.
    pub scheme: SchemeKind,
    /// System configuration (cores, caches, memories).
    pub cfg: SystemConfig,
    /// Run-size and seeding knobs.
    pub params: RunParams,
}

impl Job {
    /// Executes the job. This is the *only* path by which both the serial
    /// and the parallel engines run a simulation, which is what makes their
    /// outputs comparable bit for bit.
    pub fn execute(&self) -> RunResult {
        run(&self.profile, self.scheme, &self.cfg, &self.params)
    }
}

/// Builder for the scheme × workload grid all figure harnesses iterate.
///
/// Jobs are emitted workload-major (all schemes of workload 0, then workload
/// 1, …), the row order of the paper's tables.
#[derive(Debug, Clone)]
pub struct ExperimentGrid {
    cfg: SystemConfig,
    params: RunParams,
    workloads: Vec<WorkloadProfile>,
    schemes: Vec<SchemeKind>,
    seeded: bool,
}

impl ExperimentGrid {
    /// Starts an empty grid over one configuration point.
    pub fn new(cfg: SystemConfig, params: RunParams) -> Self {
        Self {
            cfg,
            params,
            workloads: Vec::new(),
            schemes: Vec::new(),
            seeded: false,
        }
    }

    /// Adds one workload row.
    #[must_use]
    pub fn workload(mut self, profile: &WorkloadProfile) -> Self {
        self.workloads.push(*profile);
        self
    }

    /// Adds every Table III workload as a row.
    #[must_use]
    pub fn all_workloads(mut self) -> Self {
        self.workloads
            .extend(silcfm_trace::profiles::all().iter().copied());
        self
    }

    /// Adds one scheme column.
    #[must_use]
    pub fn scheme(mut self, scheme: SchemeKind) -> Self {
        self.schemes.push(scheme);
        self
    }

    /// Adds several scheme columns.
    #[must_use]
    pub fn schemes(mut self, schemes: impl IntoIterator<Item = SchemeKind>) -> Self {
        self.schemes.extend(schemes);
        self
    }

    /// Derives a decorrelated per-job seed from the base seed and each job's
    /// grid index. Without this, every cell of a sweep reuses one seed and a
    /// lucky placement can masquerade as a scheme effect; with it, reordering
    /// or resharding the grid still reproduces every run exactly.
    #[must_use]
    pub fn seed_per_job(mut self) -> Self {
        self.seeded = true;
        self
    }

    /// Materializes the grid in workload-major order.
    pub fn jobs(&self) -> Vec<Job> {
        let base = SplitMix64::new(self.params.seed);
        let mut jobs = Vec::with_capacity(self.workloads.len() * self.schemes.len());
        for profile in &self.workloads {
            for scheme in &self.schemes {
                let mut params = self.params;
                if self.seeded {
                    params.seed = base.split(jobs.len() as u64);
                }
                jobs.push(Job {
                    profile: *profile,
                    scheme: *scheme,
                    cfg: self.cfg,
                    params,
                });
            }
        }
        jobs
    }
}

/// Number of worker threads to use by default: the `SILCFM_THREADS`
/// environment variable if set, else the machine's available parallelism.
#[allow(
    clippy::disallowed_methods,
    reason = "explicit operator knob; thread count cannot change results \
              (the grid pool is bit-identical at any width, see tests)"
)]
pub fn default_threads() -> usize {
    std::env::var("SILCFM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Runs `jobs` serially in order, untraced and fault-free. The reference
/// implementation the other engines are checked against.
pub fn run_grid_serial(jobs: &[Job]) -> Vec<RunResult> {
    jobs.iter().map(Job::execute).collect()
}

/// The work-stealing scheduler behind [`run_grid`] and
/// [`run_grid_journaled`]: runs `execute` on every job index in `todo`
/// across `threads` workers and hands each output to `sink` on the calling
/// thread the moment its worker reports it (completion order).
///
/// Indices are dealt round-robin into per-worker deques. Each worker drains
/// its own deque from the front and, when empty, steals from the *back* of
/// the busiest sibling — the classic split that keeps owner and thief off
/// the same end. Long-running jobs (full SILC-FM sweeps take ~10× the no-NM
/// baseline) therefore cannot serialize the tail of the grid behind one
/// unlucky worker. Callers tag outputs with their index, so what they
/// assemble is independent of thread count, scheduling, and steal pattern.
#[allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the grid pool owns the workspace's job-level parallelism; results are reassembled in job order"
)]
fn schedule<R, F>(todo: &[usize], threads: usize, execute: F, mut sink: impl FnMut(usize, R))
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = threads.max(1).min(todo.len().max(1));
    if threads <= 1 || todo.len() <= 1 {
        for &i in todo {
            sink(i, execute(i));
        }
        return;
    }

    let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|w| Mutex::new(todo.iter().skip(w).step_by(threads).copied().collect()))
        .collect();
    let queues = &queues;
    let execute = &execute;

    let (tx, rx) = mpsc::channel::<(usize, R)>();
    std::thread::scope(|scope| {
        for me in 0..threads {
            let tx = tx.clone();
            scope.spawn(move || loop {
                // Own work first (front), then steal (back).
                let next = queues[me].lock().unwrap().pop_front().or_else(|| {
                    (0..queues.len())
                        .filter(|&w| w != me)
                        .max_by_key(|&w| queues[w].lock().unwrap().len())
                        .and_then(|w| queues[w].lock().unwrap().pop_back())
                });
                let Some(idx) = next else { break };
                if tx.send((idx, execute(idx))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Drain inside the scope, so a journaling sink records each job as
        // its worker finishes — a kill at any moment loses at most the jobs
        // still in flight.
        for (idx, output) in rx {
            sink(idx, output);
        }
    });
}

/// Runs `job` the way `spec` says ([`run_spec`]).
fn run_job(job: &Job, spec: &RunSpec) -> Result<RunOutput, SilcFmError> {
    run_spec(&job.profile, job.scheme, &job.cfg, &job.params, spec)
}

/// Runs `jobs` the way `spec` says across `threads` work-stealing workers
/// and returns the outputs in job order. Parallelism is across jobs only:
/// each job runs serially ([`run_spec`]) on one worker with tracers of its
/// own, so results, reports and their exports are bit-identical to a
/// serial loop over [`run_spec`] at any thread count.
///
/// # Errors
///
/// Returns the first failing job's error, in job order
/// ([`SilcFmError::FaultConfig`] when `spec.faults` is invalid).
pub fn run_grid(
    jobs: &[Job],
    spec: &RunSpec,
    threads: usize,
) -> Result<Vec<RunOutput>, SilcFmError> {
    let todo: Vec<usize> = (0..jobs.len()).collect();
    let mut slots: Vec<Option<Result<RunOutput, SilcFmError>>> = Vec::new();
    slots.resize_with(jobs.len(), || None);
    schedule(
        &todo,
        threads,
        |i| run_job(&jobs[i], spec),
        |i, output| slots[i] = Some(output),
    );
    slots
        .into_iter()
        .map(|r| r.expect("every job produces exactly one result"))
        .collect()
}

/// Runs `jobs` the way `spec` says with a crash-safe journal at `path`:
/// every finished job is appended (and flushed) the moment its worker
/// reports it, and with `resume == true` an existing journal's completed
/// jobs are loaded instead of re-run (a missing journal starts fresh, see
/// [`Journal::open`]). Results come back in job order and —
/// because each job is hermetic and the journal stores full bit-exact
/// records — the aggregate is identical whether the grid ran uninterrupted,
/// was killed and resumed, or was resumed with nothing left to do.
///
/// The journal is bound to the jobs and `spec.faults` (see
/// [`journal::grid_digest`]) but not to the tier, which never changes a
/// result, nor to `threads`: a grid journaled on one worker can be resumed
/// on several and vice versa.
///
/// `on_done(index, result)` fires once per *newly executed* job, in
/// completion order (not job order), for progress reporting and
/// kill-window testing.
///
/// # Errors
///
/// Returns [`SilcFmError::Journal`] when the journal cannot be written, is
/// corrupt, or belongs to a different grid, and a job's own error when it
/// fails to run.
pub fn run_grid_journaled(
    jobs: &[Job],
    spec: &RunSpec,
    threads: usize,
    path: &Path,
    resume: bool,
    mut on_done: impl FnMut(usize, &RunResult),
) -> Result<Vec<RunResult>, SilcFmError> {
    let digest = journal::grid_digest(jobs, spec.faults.as_ref());
    let (mut journal, done) = Journal::open(path, digest, resume)?;
    let mut slots: Vec<Option<RunResult>> = vec![None; jobs.len()];
    for JobRecord { index, result } in done {
        if let Some(slot) = slots.get_mut(index) {
            *slot = Some(result);
        }
        // Indices past the grid cannot occur for a digest-matched journal;
        // ignoring them beats panicking on a hand-edited file.
    }
    let todo: Vec<usize> = (0..jobs.len()).filter(|&i| slots[i].is_none()).collect();

    let mut failure = None;
    schedule(
        &todo,
        threads,
        |i| run_job(&jobs[i], spec).map(|out| out.result),
        |i, output| match output {
            Ok(result) => {
                let record = JobRecord { index: i, result };
                if failure.is_none() {
                    if let Err(e) = journal.append(&record) {
                        failure = Some(e);
                    }
                }
                on_done(i, &record.result);
                slots[i] = Some(record.result);
            }
            Err(e) => {
                failure.get_or_insert(e);
            }
        },
    );
    if let Some(e) = failure {
        return Err(e);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.ok_or_else(|| SilcFmError::journal(format!("job {i} produced no result"))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{FaultParams, Tier, TraceParams};
    use silcfm_fault::FaultRates;
    use silcfm_trace::profiles;

    const PLAIN: RunSpec = RunSpec {
        tier: Tier::Off,
        trace: TraceParams::default_capture(),
        faults: None,
    };

    fn small_grid() -> Vec<Job> {
        ExperimentGrid::new(SystemConfig::small(), RunParams::smoke())
            .workload(profiles::by_name("milc").unwrap())
            .workload(profiles::by_name("lib").unwrap())
            .schemes([SchemeKind::NoNm, SchemeKind::Rand, SchemeKind::silcfm()])
            .jobs()
    }

    #[test]
    fn grid_is_workload_major() {
        let jobs = small_grid();
        assert_eq!(jobs.len(), 6);
        assert_eq!(jobs[0].profile.name, "milc");
        assert_eq!(jobs[2].profile.name, "milc");
        assert_eq!(jobs[3].profile.name, "lib");
        assert_eq!(jobs[0].scheme.label(), "base");
        assert_eq!(jobs[5].scheme.label(), "silcfm");
    }

    #[test]
    fn all_workloads_covers_table3() {
        let jobs = ExperimentGrid::new(SystemConfig::small(), RunParams::smoke())
            .all_workloads()
            .scheme(SchemeKind::NoNm)
            .jobs();
        assert_eq!(jobs.len(), 14);
    }

    #[test]
    fn per_job_seeds_are_distinct_and_stable() {
        let grid = ExperimentGrid::new(SystemConfig::small(), RunParams::smoke())
            .workload(profiles::by_name("milc").unwrap())
            .workload(profiles::by_name("lib").unwrap())
            .schemes([SchemeKind::NoNm, SchemeKind::Rand])
            .seed_per_job();
        let a = grid.jobs();
        let b = grid.jobs();
        assert_eq!(a, b, "seed derivation is deterministic");
        let seeds: silcfm_types::FxHashSet<u64> = a.iter().map(|j| j.params.seed).collect();
        assert_eq!(seeds.len(), a.len(), "every job gets its own seed");
    }

    #[test]
    fn parallel_results_match_serial_bit_for_bit() {
        let jobs = small_grid();
        let serial = run_grid_serial(&jobs);
        for threads in [2, 3, 8] {
            let parallel = run_grid(&jobs, &PLAIN, threads).unwrap();
            assert_eq!(parallel.len(), serial.len());
            for (p, s) in parallel.iter().map(|o| &o.result).zip(&serial) {
                assert_eq!(p.cycles, s.cycles, "{}/{}", s.workload, s.scheme);
                assert_eq!(p.traffic, s.traffic);
                assert_eq!(p.scheme_stats, s.scheme_stats);
                assert_eq!(p.llc_misses, s.llc_misses);
            }
        }
    }

    #[test]
    fn degenerate_pools_still_work() {
        let jobs = &small_grid()[..1];
        assert_eq!(run_grid(jobs, &PLAIN, 1).unwrap().len(), 1);
        assert_eq!(run_grid(jobs, &PLAIN, 16).unwrap().len(), 1);
        assert!(run_grid(&[], &PLAIN, 4).unwrap().is_empty());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = option_env!("CARGO_TARGET_TMPDIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(std::env::temp_dir)
            .join("silcfm-runner-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn journaled_grid_matches_serial_bit_for_bit() {
        let jobs = small_grid();
        let path = tmp("full.journal");
        let serial = run_grid_serial(&jobs);
        let journaled = run_grid_journaled(&jobs, &PLAIN, 3, &path, false, |_, _| {}).unwrap();
        assert_eq!(serial, journaled);
        // A resume with everything already done re-runs nothing and still
        // returns the identical aggregate.
        let mut reran = 0;
        let resumed = run_grid_journaled(&jobs, &PLAIN, 3, &path, true, |_, _| reran += 1).unwrap();
        assert_eq!(reran, 0);
        assert_eq!(serial, resumed);
    }

    #[test]
    fn interrupted_journal_resumes_without_repeating_work() {
        let jobs = small_grid();
        let path = tmp("partial.journal");
        let serial = run_grid_serial(&jobs);

        // Simulate a run killed after three jobs: journal only a prefix.
        let digest = journal::grid_digest(&jobs, None);
        let mut w = Journal::create(&path, digest).unwrap();
        for (index, result) in serial.iter().cloned().enumerate().take(3) {
            w.append(&JobRecord { index, result }).unwrap();
        }
        drop(w);

        let mut executed = Vec::new();
        let resumed =
            run_grid_journaled(&jobs, &PLAIN, 2, &path, true, |i, _| executed.push(i)).unwrap();
        executed.sort_unstable();
        assert_eq!(executed, vec![3, 4, 5], "only the missing jobs run");
        assert_eq!(serial, resumed, "resumed aggregate is bit-identical");
    }

    #[test]
    fn journal_from_a_different_grid_is_refused() {
        let jobs = small_grid();
        let path = tmp("foreign.journal");
        let _ = run_grid_journaled(&jobs[..2], &PLAIN, 1, &path, false, |_, _| {}).unwrap();
        let err = run_grid_journaled(&jobs, &PLAIN, 2, &path, true, |_, _| {}).unwrap_err();
        assert!(err.to_string().contains("different grid"), "{err}");
    }

    #[test]
    fn journal_from_a_different_fault_plane_is_refused() {
        let jobs = &small_grid()[..2];
        let faulted = |fault_seed| RunSpec {
            faults: Some(FaultParams {
                fault_seed,
                horizon_cycles: 1_000_000,
                rates: FaultRates::gentle(),
            }),
            ..PLAIN
        };
        let path = tmp("fault-seed.journal");
        let _ = run_grid_journaled(jobs, &faulted(1), 1, &path, false, |_, _| {}).unwrap();
        // Same seed resumes cleanly; a different seed (or no faults at all)
        // would splice incompatible results and is refused.
        let mut reran = 0;
        let _ = run_grid_journaled(jobs, &faulted(1), 1, &path, true, |_, _| reran += 1).unwrap();
        assert_eq!(reran, 0);
        for other in [faulted(2), PLAIN] {
            let err = run_grid_journaled(jobs, &other, 1, &path, true, |_, _| {}).unwrap_err();
            assert!(err.to_string().contains("different grid"), "{err}");
        }
    }
}
