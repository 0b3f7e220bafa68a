//! The benchmark and reproduction harness.
//!
//! The `paper` binary reproduces every table and figure of the paper
//! ([`paper`]): each section declares its grid cells, one deduplicated
//! grid runs them all, and each section renders the rows/series the paper
//! reports ([`report`]). It accepts:
//!
//! * `--quick` (default) — reduced run sizes, a few minutes in all;
//! * `--full` — full-size runs;
//! * optional section names (`fig7_comparison`, `ablation_bypass`, …) to
//!   print only those sections.
//!
//! The other binaries are `throughput` (timing and the perf-regression
//! gate), `latency`, `slo` (the serving plane), `trace_capture`, and
//! `chaos`, the kill/resume driver of the journaled grid. All of them parse
//! their command lines through [`Args`]. See `DESIGN.md` §4 for the
//! experiment index and `EXPERIMENTS.md` for recorded paper-vs-measured
//! results.

pub mod paper;
pub mod report;
pub mod timing;
pub mod trajectory;

use silcfm_sim::SchemeKind;

/// The full scheme lineup: the no-NM baseline plus the Fig. 7 schemes.
pub fn lineup() -> Vec<SchemeKind> {
    let mut kinds = vec![SchemeKind::NoNm];
    kinds.extend(SchemeKind::fig7_lineup());
    kinds
}

/// A binary's command-line arguments, minus the program name, paired with
/// its usage line: every malformed command line is answered with a message
/// and that line on stderr and exit code 2, never a panic.
pub struct Args {
    args: std::env::Args,
    usage: &'static str,
}

impl Args {
    /// The process's arguments, answered on error with `usage`.
    pub fn from_env(usage: &'static str) -> Self {
        let mut args = std::env::args();
        args.next();
        Self { args, usage }
    }

    /// Parses the value that follows `flag`; a missing or malformed value
    /// is a usage error.
    pub fn value<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        let Some(v) = self.args.next() else {
            self.fail(&format!("{flag} needs a value"));
        };
        v.parse()
            .unwrap_or_else(|_| self.fail(&format!("{flag}: bad value '{v}'")))
    }

    /// Prints `msg` and the usage line on stderr and exits 2.
    pub fn fail(&self, msg: &str) -> ! {
        eprintln!("{msg}\n{}", self.usage);
        std::process::exit(2);
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.args.next()
    }
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
        let quick = [1.196, 1.255, 1.325, 1.158, 1.149, 1.482];
        assert_eq!(best_prior(&kinds, &quick), Some((2, "CAMEO")));
        // Full size: HMA overtakes CAMEO. SILC-FM and rand never count.
        let full = [1.9, 1.424, 1.334, 1.2, 1.1, 1.574];
        assert_eq!(best_prior(&kinds, &full), Some((1, "HMA")));
        assert_eq!(
            best_prior(&[SchemeKind::Rand, SchemeKind::silcfm()], &[2.0, 1.0]),
            None
        );
    }
}
