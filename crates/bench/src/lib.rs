//! Shared harness plumbing for the per-figure experiment binaries.
//!
//! Every binary reproduces one table or figure of the paper and prints the
//! same rows/series the paper reports. All binaries accept:
//!
//! * `--quick` (default) — reduced run sizes, tens of seconds;
//! * `--full` — full-size runs, minutes.
//!
//! See `DESIGN.md` §4 for the experiment index and `EXPERIMENTS.md` for
//! recorded paper-vs-measured results.

pub mod timing;
pub mod trajectory;

use silcfm_sim::runner::{default_threads, run_grid, ExperimentGrid, Job};
use silcfm_sim::{RunParams, RunResult, RunSpec, SchemeKind};
use silcfm_trace::profiles;
use silcfm_types::SystemConfig;

/// Harness options parsed from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarnessOpts {
    /// Run full-size experiments instead of the quick default.
    pub full: bool,
}

impl HarnessOpts {
    /// Parses `--quick` / `--full` from `std::env::args`.
    pub fn from_args() -> Self {
        let full = std::env::args().any(|a| a == "--full");
        Self { full }
    }

    /// The run parameters implied by the options.
    pub fn params(&self) -> RunParams {
        if self.full {
            RunParams::full()
        } else {
            RunParams::quick()
        }
    }

    /// Mode label for output headers.
    pub fn mode(&self) -> &'static str {
        if self.full {
            "full"
        } else {
            "quick"
        }
    }
}

/// The full scheme lineup: the no-NM baseline plus the Fig. 7 schemes.
pub fn lineup() -> Vec<SchemeKind> {
    let mut kinds = vec![SchemeKind::NoNm];
    kinds.extend(SchemeKind::fig7_lineup());
    kinds
}

/// Writes an output file, creating its directory first.
///
/// # Panics
///
/// Panics with the path when the file cannot be written.
pub fn write_artifact(path: &str, contents: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
    }
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

/// The system configuration all experiments run with (Table II with the
/// LLC miniaturized alongside the workload footprints; see DESIGN.md).
pub fn experiment_config() -> SystemConfig {
    SystemConfig::experiment()
}

/// Runs the full (workload × scheme) grid across the worker pool and
/// returns results indexed `[workload][scheme]`, in `profiles::all()` /
/// `kinds` order. All figure binaries funnel through this, so every harness
/// sweep is parallel; the ordered reassembly in
/// [`run_grid`] keeps output bit-identical to
/// the old serial loops.
pub fn run_matrix(kinds: &[SchemeKind], params: &RunParams) -> Vec<Vec<RunResult>> {
    let jobs = ExperimentGrid::new(experiment_config(), *params)
        .all_workloads()
        .schemes(kinds.iter().copied())
        .jobs();
    run_rows(&jobs, kinds.len())
}

/// [`run_matrix`] over a named subset of Table III workloads, for the
/// ablation sweeps. Results are indexed `[workload][scheme]` in the order
/// given.
///
/// # Panics
///
/// Panics if a workload name is not in Table III.
pub fn run_named_matrix(
    workloads: &[&str],
    kinds: &[SchemeKind],
    params: &RunParams,
) -> Vec<Vec<RunResult>> {
    let mut grid = ExperimentGrid::new(experiment_config(), *params);
    for name in workloads {
        grid = grid.workload(profiles::by_name(name).expect("known workload"));
    }
    let jobs = grid.schemes(kinds.iter().copied()).jobs();
    run_rows(&jobs, kinds.len())
}

/// Runs workload-major `jobs` untraced across the worker pool and splits
/// the results into rows of `per_row` schemes.
fn run_rows(jobs: &[Job], per_row: usize) -> Vec<Vec<RunResult>> {
    let flat: Vec<RunResult> = run_grid(jobs, &RunSpec::default(), default_threads())
        .expect("a fault-free grid cannot fail")
        .into_iter()
        .map(|out| out.result)
        .collect();
    flat.chunks(per_row.max(1))
        .map(<[RunResult]>::to_vec)
        .collect()
}

/// No-NM baseline runs for all workloads, in `profiles::all()` order.
pub fn baselines(params: &RunParams) -> Vec<RunResult> {
    run_matrix(&[SchemeKind::NoNm], params)
        .into_iter()
        .map(|mut row| row.remove(0))
        .collect()
}

/// Workload names in `profiles::all()` order, plus a trailing "gmean" label.
pub fn workload_labels() -> Vec<String> {
    profiles::all()
        .iter()
        .map(|p| p.name.to_string())
        .chain(["gmean".to_string()])
        .collect()
}

/// The best prior scheme of a Fig. 7 lineup: the one with the highest
/// gmean speedup among the migrating prior schemes, so leaving out SILC-FM
/// itself, static random placement and the no-NM baseline. Returns its
/// index into `kinds` and the name the paper gives it; ties go to the
/// earlier scheme.
pub fn best_prior(kinds: &[SchemeKind], gmeans: &[f64]) -> Option<(usize, &'static str)> {
    let mut best: Option<(usize, f64, &'static str)> = None;
    for (i, (kind, &g)) in kinds.iter().zip(gmeans).enumerate() {
        let name = match kind {
            SchemeKind::Hma => "HMA",
            SchemeKind::Cameo => "CAMEO",
            SchemeKind::CameoPrefetch => "CAMEO with prefetching",
            SchemeKind::Pom => "PoM",
            SchemeKind::NoNm | SchemeKind::Rand | SchemeKind::SilcFm(_) => continue,
        };
        if best.is_none_or(|(_, b, _)| g > b) {
            best = Some((i, g, name));
        }
    }
    best.map(|(i, _, name)| (i, name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_prior_names_the_leading_prior_scheme_either_way() {
        let kinds = SchemeKind::fig7_lineup();
        // rand, hma, cam, camp, pom, silcfm: quick mode, CAMEO ahead.
        let quick = [1.193, 1.245, 1.324, 1.158, 1.150, 1.481];
        assert_eq!(best_prior(&kinds, &quick), Some((2, "CAMEO")));
        // Full size: HMA overtakes CAMEO. SILC-FM and rand never count.
        let full = [1.9, 1.424, 1.334, 1.2, 1.1, 1.574];
        assert_eq!(best_prior(&kinds, &full), Some((1, "HMA")));
        assert_eq!(
            best_prior(&[SchemeKind::Rand, SchemeKind::silcfm()], &[2.0, 1.0]),
            None
        );
    }

    #[test]
    fn labels_cover_all_workloads() {
        let labels = workload_labels();
        assert_eq!(labels.len(), 15);
        assert_eq!(labels.last().unwrap(), "gmean");
    }

    #[test]
    fn opts_default_to_quick() {
        let opts = HarnessOpts { full: false };
        assert_eq!(opts.mode(), "quick");
        assert_eq!(opts.params(), RunParams::quick());
        let opts = HarnessOpts { full: true };
        assert_eq!(opts.mode(), "full");
        assert_eq!(opts.params(), RunParams::full());
    }

    #[test]
    fn experiment_config_is_table2_with_scaled_llc() {
        let cfg = experiment_config();
        assert_eq!(cfg.core.cores, 16);
        assert_eq!(cfg.l2.capacity_bytes, 1 << 20);
    }
}
