//! Crash-safe journal for the SLO max-RPS search.
//!
//! An AIMD search is a chain: trial `n+1`'s offered rate depends on every
//! prior trial's verdict. A killed search therefore cannot resume from
//! anywhere but an exact replay — so the journal records, per finished
//! trial, the offered rate, the full conservation ledger, the p99 and the
//! SLO verdict. On resume [`run_searches`] feeds the recorded verdicts back
//! through fresh regulators in order, which reconstructs the exact
//! regulator state (the regulator is a pure state machine over its
//! observations), and the search continues byte-identically to an
//! uninterrupted run.
//!
//! The file is a [`silcfm_sim::journal::Journal`] (header check, flushed
//! appends, torn-tail heal, interior corruption an error) of
//! [`TrialRecord`] lines:
//!
//! * header `silcfm-slo-journal v1 grid=<hex>`, binding the journal to one
//!   search grid (schemes × arrival profiles × parameters);
//! * `trial <search> <trial> <rate> <offered> <admitted> <completed>
//!   <shed> <timed_out> <failed> <retries> <p99> <met>` per finished
//!   trial, appended before the next trial starts.

use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

use silcfm_sim::journal::{Fields, Journal, Record};
use silcfm_types::{FxHasher, SilcFmError};

use crate::ledger::RequestLedger;
use crate::regulator::{Aimd, AimdParams};

/// The SLO search's journal.
pub type SloJournal = Journal<TrialRecord>;

/// Digest binding a journal to one search grid. Hash the search's full
/// configuration rendering (schemes, arrival profiles, rates, serve and
/// AIMD parameters) — any change invalidates old journals.
pub fn search_digest(spec: &str) -> u64 {
    let mut h = FxHasher::default();
    spec.hash(&mut h);
    h.finish()
}

/// One finished trial: enough to replay the regulator and to re-emit the
/// trial's row in the final artifact without re-running it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialRecord {
    /// Index of the (scheme × arrival) search this trial belongs to.
    pub search: usize,
    /// Trial index within its search.
    pub trial: u32,
    /// Offered rate, requests per million cycles per lane.
    pub rate: u64,
    /// The trial's conservation ledger.
    pub ledger: RequestLedger,
    /// Whole-run p99 of completed-request latency.
    pub p99: u64,
    /// Whether the trial met the SLO.
    pub met: bool,
}

impl Record for TrialRecord {
    const MAGIC: &'static str = "silcfm-slo-journal";
    const TAG: &'static str = "trial";

    fn encode(&self, line: &mut String) {
        let l = &self.ledger;
        let _ = write!(
            line,
            " {} {} {} {} {} {} {} {} {} {} {} {}",
            self.search,
            self.trial,
            self.rate,
            l.offered,
            l.admitted,
            l.completed,
            l.shed,
            l.timed_out,
            l.failed,
            l.retries,
            self.p99,
            u8::from(self.met),
        );
    }

    fn decode(f: &mut Fields<'_>) -> Option<Self> {
        Some(Self {
            search: usize::try_from(f.u64()?).ok()?,
            trial: u32::try_from(f.u64()?).ok()?,
            rate: f.u64()?,
            ledger: RequestLedger {
                offered: f.u64()?,
                admitted: f.u64()?,
                completed: f.u64()?,
                shed: f.u64()?,
                timed_out: f.u64()?,
                failed: f.u64()?,
                retries: f.u64()?,
            },
            p99: f.u64()?,
            met: match f.u64()? {
                0 => false,
                1 => true,
                _ => return None,
            },
        })
    }
}

/// Runs one AIMD search per entry of `searches`, in order, and returns
/// each search's best compliant rate and its trials.
///
/// Search `i` first replays the `replayed` records with `search == i`
/// (the trials a killed run already journaled) through a fresh regulator,
/// then runs live trials until the budget in `params` is spent:
/// `trial(spec, rate)` returns the trial's `(ledger, p99, met)`, the record
/// is appended to `journal`, and `on_trial(spec, record)` sees it.
///
/// # Errors
///
/// Returns [`SilcFmError::Journal`] when a replayed record is out of order
/// or at a rate the regulator would not offer (a journal that does not
/// belong to this search), or when an append fails.
pub fn run_searches<S>(
    searches: &[S],
    params: AimdParams,
    replayed: &[TrialRecord],
    mut journal: Option<&mut SloJournal>,
    mut trial: impl FnMut(&S, u64) -> (RequestLedger, u64, bool),
    mut on_trial: impl FnMut(&S, &TrialRecord),
) -> Result<Vec<(u64, Vec<TrialRecord>)>, SilcFmError> {
    let mut out = Vec::with_capacity(searches.len());
    for (search, spec) in searches.iter().enumerate() {
        let mut aimd = Aimd::new(params);
        let mut trials = Vec::new();
        for r in replayed.iter().filter(|r| r.search == search) {
            let (next, rate) = (aimd.observed(), aimd.rate());
            if aimd.done() || r.trial != next || r.rate != rate {
                return Err(SilcFmError::journal(format!(
                    "replayed {r:?} diverges from the regulator (next trial {next} at rate {rate})"
                )));
            }
            aimd.observe(r.met);
            trials.push(*r);
        }
        while !aimd.done() {
            let rate = aimd.rate();
            let (ledger, p99, met) = trial(spec, rate);
            let record = TrialRecord {
                search,
                trial: aimd.observed(),
                rate,
                ledger,
                p99,
                met,
            };
            if let Some(journal) = journal.as_deref_mut() {
                journal.append(&record)?;
            }
            on_trial(spec, &record);
            aimd.observe(met);
            trials.push(record);
        }
        out.push((aimd.best_ok(), trials));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_fields_are_corruption_not_truncation() {
        // 2^32 does not fit the u32 trial index; it must not wrap to 0.
        let dir = option_env!("CARGO_TARGET_TMPDIR").map_or_else(std::env::temp_dir, Into::into);
        let path = dir.join("silcfm-slo-range.journal");
        let header = "silcfm-slo-journal v1 grid=0000000000000003";
        let lines = "trial 0 4294967296 20 1 1 1 0 0 0 0 5 1\ntrial 0 1 26 1 1 1 0 0 0 0 5 1";
        std::fs::write(&path, format!("{header}\n{lines}\n")).unwrap();
        let err = SloJournal::resume(&path, 3).unwrap_err();
        assert!(err.to_string().contains("malformed"), "{err}");
    }

    #[test]
    fn digest_is_sensitive_to_the_spec() {
        assert_ne!(search_digest("a"), search_digest("b"));
        assert_eq!(search_digest("a"), search_digest("a"));
    }
}
