//! Search-level kill/resume: an AIMD search journaled trial by trial,
//! killed at an arbitrary cut, must resume through verdict replay and end
//! byte-identical to an uninterrupted search — for every cut point. The
//! searches run through `run_searches`, the same search loop `slo` runs.

use std::io::Write as _;
use std::path::PathBuf;

use silcfm_serve::{run_searches, AimdParams, RequestLedger, SloJournal, TrialRecord};
use silcfm_types::SilcFmError;

const DIGEST: u64 = 0x517c_f00d;

/// Synthetic capacities of the two searches.
const CAPS: [u64; 2] = [48, 30];

const PARAMS: AimdParams = AimdParams {
    trials: 8,
    ..AimdParams::default_search()
};

/// A deterministic stand-in for a serving trial: met iff the rate is at or
/// below the search's synthetic capacity.
fn trial(capacity: &u64, rate: u64) -> (RequestLedger, u64, bool) {
    let offered = 100 + rate;
    let met = rate <= *capacity;
    let completed = if met { offered } else { offered / 2 };
    let ledger = RequestLedger {
        offered,
        admitted: offered,
        completed,
        shed: 0,
        timed_out: offered - completed,
        failed: 0,
        retries: 0,
    };
    (ledger, if met { 1_000 } else { 50_000 }, met)
}

/// Runs the two-search grid, journaling each finished trial, starting from
/// whatever `replayed` trials the journal already held; returns every
/// trial in search order.
fn run_search(
    journal: &mut SloJournal,
    replayed: &[TrialRecord],
) -> Result<Vec<TrialRecord>, SilcFmError> {
    let out = run_searches(&CAPS, PARAMS, replayed, Some(journal), trial, |_, _| {})?;
    Ok(out.into_iter().flat_map(|(_, trials)| trials).collect())
}

fn tmp(name: &str) -> PathBuf {
    let dir = option_env!("CARGO_TARGET_TMPDIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir)
        .join("silcfm-slo-resume-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The uninterrupted reference search, journaled to `name`.
fn reference(name: &str) -> Vec<TrialRecord> {
    let mut j = SloJournal::create(&tmp(name), DIGEST).unwrap();
    run_search(&mut j, &[]).unwrap()
}

#[test]
fn killed_search_resumes_byte_identically_at_every_cut() {
    let reference = reference("reference.journal");
    assert_eq!(reference.len(), 16, "two searches of eight trials");

    for cut in 0..reference.len() {
        let path = tmp(&format!("cut-{cut}.journal"));
        // Phase 1: journal the first `cut` trials, then "crash" leaving a
        // torn half-record on the tail.
        let mut j = SloJournal::create(&path, DIGEST).unwrap();
        for rec in &reference[..cut] {
            j.append(rec).unwrap();
        }
        drop(j);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        write!(f, "trial 1 3 2").unwrap();
        drop(f);

        // Phase 2: resume. The torn tail is healed, the finished trials
        // replay, and the completed search matches the reference exactly.
        let (mut j, resumed) = SloJournal::resume(&path, DIGEST).unwrap();
        assert_eq!(resumed, reference[..cut].to_vec(), "cut {cut}: replay set");
        let finished = run_search(&mut j, &resumed).unwrap();
        drop(j);
        assert_eq!(finished, reference, "cut {cut}: resumed search diverged");

        // The healed journal now holds the full search: a second resume
        // replays everything with nothing left to run.
        let (_j, full) = SloJournal::resume(&path, DIGEST).unwrap();
        assert_eq!(full, reference, "cut {cut}: journal contents diverged");
    }
}

#[test]
fn a_replayed_trial_the_regulator_would_not_offer_is_an_error() {
    let reference = reference("diverged-reference.journal");
    let mut j = SloJournal::create(&tmp("diverged.journal"), DIGEST).unwrap();
    let mut replayed = reference[..3].to_vec();
    replayed[2].rate += 1;
    let err = run_search(&mut j, &replayed).unwrap_err();
    assert!(matches!(err, SilcFmError::Journal { .. }), "{err}");
    assert!(err.to_string().contains("diverges"), "{err}");

    replayed[2] = reference[3];
    let err = run_search(&mut j, &replayed).unwrap_err();
    assert!(err.to_string().contains("diverges"), "out of order: {err}");
}
