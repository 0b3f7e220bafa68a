//! Property tests for the serving plane: thread-invariance of the full
//! request-plane digest, ledger conservation under randomized fault
//! schedules, the retry ladder's budget/deadline bounds, and AIMD
//! convergence onto randomized capacity cliffs.

use silcfm_fault::FaultRates;
use silcfm_serve::{
    classify_retry, run_serve, Aimd, AimdParams, Disposition, FailureTimeline, ServeParams,
};
use silcfm_sim::{FaultParams, RunParams, SchemeKind, ShardParams};
use silcfm_trace::{arrivals, profiles};
use silcfm_types::fault::{ChannelFault, FaultKind, ScheduledFault};
use silcfm_types::rng::{Rng, SplitMix64, Xoshiro256StarStar};
use silcfm_types::{MemKind, SystemConfig};

fn serve_params() -> ServeParams {
    ServeParams {
        epoch_cycles: 200_000,
        ..ServeParams::default_plane()
    }
}

/// The schemes the `slo` bin's serving table compares.
fn slo_lineup() -> [SchemeKind; 4] {
    [
        SchemeKind::silcfm(),
        SchemeKind::Hma,
        SchemeKind::Cameo,
        SchemeKind::Pom,
    ]
}

fn run_once(
    scheme: SchemeKind,
    workload: &str,
    arrival: &str,
    rate: u64,
    threads: usize,
    faults: Option<&FaultParams>,
) -> silcfm_serve::ServeReport {
    run_serve(
        profiles::by_name(workload).unwrap(),
        scheme,
        &SystemConfig::small(),
        &RunParams::smoke(),
        &serve_params(),
        arrivals::by_name(arrival).unwrap(),
        rate,
        faults,
        &ShardParams::with_threads(threads),
    )
    .unwrap()
}

/// The full serving-plane digest — ledger, latency sketch, epoch series —
/// must be a pure function of the trial's inputs, independent of the
/// engine's thread count, for every scheme of the `slo` lineup and every
/// arrival shape. Faults included: fault delivery happens on the consumer,
/// so arming the fault schedule must not break the identity either.
#[test]
fn request_plane_digest_is_thread_invariant() {
    for scheme in slo_lineup() {
        for (workload, arrival, rate) in [
            ("lib", "diurnal", 25),
            ("mcf", "poisson", 40),
            ("milc", "bursty", 12),
        ] {
            let serial = run_once(scheme, workload, arrival, rate, 1, None);
            assert!(serial.stats.ledger.conserved());
            for threads in [2usize, 4] {
                let sharded = run_once(scheme, workload, arrival, rate, threads, None);
                assert_eq!(
                    serial.digest(),
                    sharded.digest(),
                    "{}: {workload}/{arrival} threads={threads} diverged from serial",
                    scheme.label()
                );
            }
        }
    }

    let faults = FaultParams {
        fault_seed: 7,
        horizon_cycles: 3_000_000,
        rates: FaultRates::harsh(),
    };
    let serial = run_once(SchemeKind::silcfm(), "milc", "bursty", 30, 1, Some(&faults));
    assert!(serial.faults_delivered > 0);
    for threads in [2usize, 4] {
        let sharded = run_once(
            SchemeKind::silcfm(),
            "milc",
            "bursty",
            30,
            threads,
            Some(&faults),
        );
        assert_eq!(
            serial.digest(),
            sharded.digest(),
            "faulted trial threads={threads} diverged from serial"
        );
    }
}

/// `offered = completed + shed + timed_out + failed` on every run, for
/// randomized fault schedules, rates and arrival shapes — along with the
/// fault plane's own effect-conservation ledger.
#[test]
fn ledger_conserves_under_random_fault_schedules() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(SplitMix64::new(2017).split(0x0510));
    let profiles_pool = ["milc", "lib", "mcf"];
    let arrivals_pool = ["poisson", "bursty", "diurnal"];
    for round in 0..6u64 {
        let workload = profiles_pool[rng.gen_range(0..profiles_pool.len())];
        let arrival = arrivals_pool[rng.gen_range(0..arrivals_pool.len())];
        let rate = rng.gen_range(5u64..500);
        let faults = FaultParams {
            fault_seed: rng.next_u64(),
            horizon_cycles: rng.gen_range(500_000u64..5_000_000),
            rates: if rng.gen_bool(0.5) {
                FaultRates::gentle()
            } else {
                FaultRates::harsh()
            },
        };
        let r = run_once(
            SchemeKind::silcfm(),
            workload,
            arrival,
            rate,
            1,
            Some(&faults),
        );
        assert!(
            r.stats.ledger.conserved(),
            "round {round} ({workload}/{arrival} rate={rate}): ledger leaks: {:?}",
            r.stats.ledger
        );
        assert!(
            r.fault_stats.conserved(),
            "round {round}: effect ledger leaks: {:?}",
            r.fault_stats
        );
        assert!(r.stats.ledger.offered > 0, "round {round} offered nothing");
    }
}

fn dram_fault(device: MemKind, channel: u8, at: u64, up: bool) -> ScheduledFault {
    let fault = if up {
        ChannelFault::Repair { channel }
    } else {
        ChannelFault::Fail { channel }
    };
    ScheduledFault {
        at,
        kind: FaultKind::Dram { device, fault },
    }
}

/// The retry ladder never issues more than `retry_budget` attempts, never
/// issues an attempt past the deadline, and every resolution lands at a
/// cycle consistent with the exponential-backoff schedule.
#[test]
fn retry_ladder_respects_budget_and_deadline_bounds() {
    let p = ServeParams::default_plane();
    let mut rng = Xoshiro256StarStar::seed_from_u64(SplitMix64::new(2017).split(0x0511));
    for round in 0..200u64 {
        // A randomized failure timeline over both devices.
        let mut faults = Vec::new();
        for _ in 0..rng.gen_range(0usize..4) {
            let device = if rng.gen_bool(0.5) {
                MemKind::Near
            } else {
                MemKind::Far
            };
            let channel = rng.gen_range(0u32..4) as u8;
            let down = rng.gen_range(0u64..60_000);
            faults.push(dram_fault(device, channel, down, false));
            if rng.gen_bool(0.7) {
                let up = down + rng.gen_range(1u64..50_000);
                faults.push(dram_fault(device, channel, up, true));
            }
        }
        faults.sort_by_key(|f| f.at);
        let timeline = FailureTimeline::from_faults(&faults);

        let arrival = rng.gen_range(0u64..30_000);
        let completion = arrival + rng.gen_range(1u64..50_000);
        let nm = rng.gen_bool(0.5);
        let fm = !nm || rng.gen_bool(0.5);
        let r = classify_retry(arrival, completion, nm, fm, &timeline, &p);
        let deadline_at = arrival + p.deadline_cycles;
        let tag = format!("round {round}: {r:?} (completion {completion}, deadline {deadline_at})");

        assert!(r.attempts <= p.retry_budget, "{tag}: budget exceeded");
        // Every issued attempt fired within the deadline.
        for i in 1..=r.attempts {
            let t = completion + p.retry_backoff_cycles * ((1u64 << i) - 1);
            assert!(t <= deadline_at, "{tag}: attempt {i} fired past deadline");
        }
        match r.disposition {
            Disposition::Completed => {
                assert!(r.final_at <= deadline_at, "{tag}: late completion");
                assert!(r.attempts >= 1, "{tag}: completion without an attempt");
                let t = completion + p.retry_backoff_cycles * ((1u64 << r.attempts) - 1);
                assert_eq!(r.final_at, t + p.est_service_cycles, "{tag}");
            }
            Disposition::TimedOut => {
                // Either no further attempt fit the deadline, or the last
                // attempt's re-service overshot it.
                assert!(
                    r.final_at == deadline_at
                        || (r.final_at > deadline_at
                            && r.final_at <= deadline_at + p.est_service_cycles),
                    "{tag}"
                );
            }
            Disposition::Failed => {
                assert_eq!(r.attempts, p.retry_budget, "{tag}: early abandonment");
                assert!(r.final_at <= deadline_at, "{tag}");
            }
        }
    }
}

/// AIMD converges to within one additive step of any capacity cliff inside
/// its search range, from either side.
#[test]
fn aimd_converges_onto_random_capacity_cliffs() {
    let params = AimdParams {
        trials: 40,
        ..AimdParams::default_search()
    };
    let mut rng = Xoshiro256StarStar::seed_from_u64(SplitMix64::new(2017).split(0x0512));
    for _ in 0..12 {
        // Keep the cliff well inside what 40 trials of additive climb from
        // `start_rate` can reach, so convergence is actually demanded.
        let capacity = rng.gen_range(params.min_rate..150);
        let mut a = Aimd::new(params);
        while !a.done() {
            let met = a.rate() <= capacity;
            a.observe(met);
        }
        assert!(a.best_ok() <= capacity, "overshot capacity {capacity}");
        assert!(
            a.best_ok() + params.add_step > capacity,
            "best_ok {} stalled below capacity {capacity}",
            a.best_ok()
        );
    }
}
