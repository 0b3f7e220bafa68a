//! Replay self-test: one small job per scheme kind and one faulted serving
//! trial, each captured and replayed layer by layer. Every replayed demand
//! completion must equal the tapped one, and the replayed cores must finish
//! on the cycle the engine's own entry point reports.

use std::time::Instant;

use silcfm_fault::FaultRates;
use silcfm_perfbench::capture::capture;
use silcfm_perfbench::jobs::{slo_plane, Job, Machine, Trial};
use silcfm_perfbench::ledger::{replay_layers, Replay, SpanLog};
use silcfm_sim::{FaultParams, RunParams, SchemeKind};
use silcfm_trace::{arrivals, profiles};
use silcfm_types::SystemConfig;

fn machine() -> Machine {
    Machine {
        cfg: SystemConfig::small(),
        params: RunParams {
            accesses_per_core: 5_000,
            ..RunParams::smoke()
        },
    }
}

/// Captures and replays `job`, asserting an exact replay and the engine's
/// finish cycle.
fn replay_exactly(job: &Job, m: &Machine) -> Replay {
    let cap = capture(job, m).expect("capture");
    let mut spans = SpanLog::new(Instant::now());
    let root = spans.open("job", &job.name, None);
    let rep = replay_layers(job, m, &cap, &mut spans, root);
    assert_eq!(
        rep.mismatches, 0,
        "{}: replayed completions differ",
        job.name
    );
    assert!(rep.failures.is_empty(), "{}: {:?}", job.name, rep.failures);
    let engine = job.run(m, 1).expect("untraced run");
    assert_eq!(
        engine.digest(),
        cap.digest,
        "{}: capture changed the run",
        job.name
    );
    assert_eq!(rep.finish_cycles, engine.cycles(), "{}", job.name);
    rep
}

#[test]
fn every_scheme_kind_replays_exactly() {
    let m = machine();
    let mcf = profiles::by_name("mcf").expect("mcf profile");
    for scheme in [
        SchemeKind::NoNm,
        SchemeKind::Rand,
        SchemeKind::Hma,
        SchemeKind::Cameo,
        SchemeKind::CameoPrefetch,
        SchemeKind::Pom,
        SchemeKind::silcfm(),
    ] {
        let rep = replay_exactly(&Job::batch(mcf, scheme), &m);
        if scheme == SchemeKind::Hma {
            assert!(
                rep.counts.stalls > 0,
                "HMA's epoch stalls must exercise Core::stall_until"
            );
        }
    }
}

#[test]
fn faulted_serving_trial_replays_exactly() {
    let m = machine();
    let trial = Trial {
        arrival: arrivals::by_name("poisson").expect("poisson arrivals"),
        rate_per_m: 200,
        serve: slo_plane(),
        faults: Some(FaultParams {
            fault_seed: 11,
            horizon_cycles: 3_000_000,
            rates: FaultRates::harsh(),
        }),
    };
    let job = Job::serve(
        "poisson-faulted",
        profiles::by_name("mcf").expect("mcf profile"),
        SchemeKind::silcfm(),
        trial,
    );
    let rep = replay_exactly(&job, &m);
    assert!(
        rep.counts.faults_delivered > 0,
        "harsh rates must deliver faults"
    );
    assert!(rep.counts.offered > 0);
}
