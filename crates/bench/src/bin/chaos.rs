//! Chaos soak: drives the fault plane hard and audits the robustness
//! invariants the design promises (DESIGN.md §10).
//!
//! Three phases, each skippable from the command line:
//!
//! * **Traced scheme soak** — SILC-FM under harsh fault rates with full
//!   observability. Audits the trace stream against the effect ledger
//!   (every `Poisoned` effect has exactly one `poisoned` event) and the
//!   controller's failover transitions against the schedule-only oracle
//!   [`expected_failover_transitions`].
//! * **Grid soak** — a (scheme × rates × seed) grid of untraced faulted
//!   runs. Audits effect conservation everywhere, the single-copy promise
//!   that stateless baselines never lose data, and bit-identical replay.
//! * **Journal kill/resume** (`--journal PATH`) — runs a seeded experiment
//!   grid through the crash-safe journaled runner and prints an aggregate
//!   digest of the results. `--die-after-jobs N` simulates a crash: after
//!   `N` jobs have been journaled the process appends a torn half-line and
//!   exits with code 3, so CI can rerun with `--resume` and check the
//!   digest matches an uninterrupted run's.
//! * **Serving-plane soak** (`--slo`) — open-loop serving trials under
//!   harsh faults. Audits the request conservation ledger, pins every
//!   NACK-audited request's service window to a real channel-failure
//!   interval of the device it names, cross-checks the controller's
//!   failover transitions against the schedule-only oracle over the
//!   delivered prefix, and drives a short AIMD search demanding ledger
//!   evidence behind every SLO violation the regulator backs off from.
//!
//! Exits 0 and prints `chaos: 0 invariant violations` when clean; exits 1
//! listing every violation otherwise.

use std::hash::Hasher;
use std::io::Write as _;
use std::path::PathBuf;

use silcfm_fault::{expected_failover_transitions, FaultRates, FaultSchedule, FaultStats};
use silcfm_serve::{run_serve, Aimd, AimdParams, FailureTimeline, ServeParams};
use silcfm_sim::experiment::space_for;
use silcfm_sim::runner::ExperimentGrid;
use silcfm_sim::{
    run_grid_journaled, run_spec, FaultParams, RunOutput, RunParams, RunResult, RunSpec,
    SchemeKind, ShardParams, Tier, TraceParams,
};
use silcfm_trace::{arrivals, profiles};
use silcfm_types::obs::Event;
use silcfm_types::{FxHasher, MemKind, SchemeStats, SystemConfig};

struct Opts {
    smoke: bool,
    seed: u64,
    skip_soak: bool,
    slo: bool,
    journal: Option<PathBuf>,
    resume: bool,
    die_after_jobs: Option<u64>,
}

impl Opts {
    fn from_args() -> Self {
        let mut opts = Self {
            smoke: false,
            seed: 99,
            skip_soak: false,
            slo: false,
            journal: None,
            resume: false,
            die_after_jobs: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            let mut value = |what: &str| {
                args.next()
                    .unwrap_or_else(|| die(&format!("{what} needs a value")))
            };
            match a.as_str() {
                "--smoke" => opts.smoke = true,
                "--seed" => {
                    opts.seed = value("--seed")
                        .parse()
                        .unwrap_or_else(|_| die("bad --seed"));
                }
                "--skip-soak" => opts.skip_soak = true,
                "--slo" => opts.slo = true,
                "--journal" => opts.journal = Some(PathBuf::from(value("--journal"))),
                "--resume" => opts.resume = true,
                "--die-after-jobs" => {
                    opts.die_after_jobs = Some(
                        value("--die-after-jobs")
                            .parse()
                            .unwrap_or_else(|_| die("bad --die-after-jobs")),
                    );
                }
                other => die(&format!("unknown option {other}")),
            }
        }
        opts
    }
}

fn die(msg: &str) -> ! {
    eprintln!("chaos: {msg}");
    eprintln!(
        "usage: chaos [--smoke] [--seed N] [--skip-soak] [--slo] \
         [--journal PATH [--resume] [--die-after-jobs N]]"
    );
    std::process::exit(2);
}

/// Looks a detail counter up in a scheme's stats (0 when absent).
fn stat(stats: &SchemeStats, key: &str) -> f64 {
    stats
        .details
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(0.0, |(_, v)| *v)
}

/// Order-sensitive digest of a result list, for comparing a resumed run
/// against an uninterrupted one byte for byte.
fn aggregate_digest(results: &[RunResult]) -> u64 {
    let mut h = FxHasher::default();
    for r in results {
        h.write(format!("{r:?}").as_bytes());
    }
    h.finish()
}

/// Phase 1: SILC-FM under harsh rates with the tracer on. The trace stream
/// and the stats ledger are two independent records of the same run; every
/// invariant here cross-checks one against the other or against the
/// schedule-only failover oracle.
fn traced_scheme_soak(opts: &Opts, violations: &mut Vec<String>) {
    let cfg = SystemConfig::small();
    let params = RunParams::smoke();
    let trace = TraceParams {
        events_capacity: 1 << 20,
        epoch_cycles: 100_000,
    };
    let seeds = if opts.smoke { 1 } else { 3 };
    let scheme = SchemeKind::silcfm();
    let assoc = match scheme {
        SchemeKind::SilcFm(p) => p.associativity,
        _ => unreachable!(),
    };
    let profile = profiles::by_name("milc").expect("known workload");

    for round in 0..seeds {
        let faults = FaultParams {
            fault_seed: opts.seed.wrapping_add(round),
            horizon_cycles: 6_000_000,
            rates: FaultRates::harsh(),
        };
        let tag = format!("traced seed={}", faults.fault_seed);
        let mut check = |ok: bool, msg: String| {
            if !ok {
                violations.push(format!("{tag}: {msg}"));
            }
        };

        let spec = RunSpec {
            tier: Tier::Sampled { period: 1 },
            trace,
            faults: Some(faults),
        };
        let (result, stats, report) = match run_spec(profile, scheme, &cfg, &params, &spec) {
            Ok(out) => (
                out.result,
                out.faults,
                out.obs.expect("the traced tier always reports"),
            ),
            Err(e) => {
                violations.push(format!("{tag}: run failed: {e}"));
                continue;
            }
        };
        check(stats.injected > 0, "harsh soak delivered no faults".into());
        check(stats.conserved(), format!("effect ledger leaks: {stats:?}"));
        check(
            report.dropped == 0,
            format!("tracer dropped {} events; raise capacity", report.dropped),
        );

        // Trace/ledger cross-checks are only exact over a complete stream.
        if report.dropped == 0 {
            let poisoned_events = report
                .events
                .iter()
                .filter(|e| matches!(e.event, Event::Poisoned { .. }))
                .count() as u64;
            check(
                poisoned_events == stats.poisoned,
                format!(
                    "{} poisoned events vs {} poisoned effects",
                    poisoned_events, stats.poisoned
                ),
            );
            check(
                stat(&result.scheme_stats, "fault_poisoned") as u64 == stats.poisoned,
                "controller's poisoned counter disagrees with the ledger".into(),
            );

            // Failover oracle: replay the delivered prefix of the identical
            // regenerated schedule through the shared hysteresis thresholds.
            let scaled = profiles::scaled(profile, params.footprint_scale);
            let space = space_for(&scaled, &cfg, &params);
            let topo = FaultParams::topology_for(&scheme, space);
            let schedule = FaultSchedule::generate(
                faults.fault_seed,
                faults.horizon_cycles,
                &faults.rates,
                &topo,
            )
            .expect("rates validated by the run above");
            let delivered = stats.injected as usize;
            check(
                delivered <= schedule.len(),
                format!("{delivered} delivered > {} scheduled", schedule.len()),
            );
            let oracle = expected_failover_transitions(&schedule.faults()[..delivered], assoc);
            let seen: Vec<bool> = report
                .events
                .iter()
                .filter_map(|e| match e.event {
                    Event::Failover { engaged } => Some(engaged),
                    _ => None,
                })
                .collect();
            let expected: Vec<bool> = oracle.iter().map(|(_, engaged)| *engaged).collect();
            check(
                seen == expected,
                format!("failover transitions {seen:?} != oracle {expected:?}"),
            );
            check(
                stat(&result.scheme_stats, "failover_transitions") as usize == oracle.len(),
                "controller's transition counter disagrees with the oracle".into(),
            );
        }

        // Bit-identical replay, trace stream included.
        match run_spec(profile, scheme, &cfg, &params, &spec) {
            Ok(RunOutput {
                result: r2,
                faults: s2,
                obs,
                ..
            }) => {
                let rep2 = obs.expect("the traced tier always reports");
                check(s2 == stats, "fault ledger differs on replay".into());
                check(
                    r2.cycles == result.cycles && r2.traffic == result.traffic,
                    "metrics differ on replay".into(),
                );
                check(
                    rep2.events == report.events,
                    "trace stream differs on replay".into(),
                );
            }
            Err(e) => violations.push(format!("{tag}: replay failed: {e}")),
        }

        println!(
            "traced soak seed={}: injected {} (corrected {} recovered {} poisoned {} masked {})",
            faults.fault_seed,
            stats.injected,
            stats.corrected,
            stats.recovered,
            stats.poisoned,
            stats.masked
        );
    }
}

/// Phase 2: conservation and the baseline no-loss promise across a
/// (scheme × rates × seed) grid, untraced.
fn grid_soak(opts: &Opts, violations: &mut Vec<String>) {
    let cfg = SystemConfig::small();
    let params = RunParams::smoke();
    let profile = profiles::by_name("milc").expect("known workload");
    let schemes = [SchemeKind::silcfm(), SchemeKind::Hma, SchemeKind::Cameo];
    let rates = [
        ("gentle", FaultRates::gentle()),
        ("harsh", FaultRates::harsh()),
    ];
    let seeds = if opts.smoke { 1 } else { 2 };

    let mut total = FaultStats::default();
    let mut first: Option<(RunSpec, SchemeKind, RunResult, FaultStats)> = None;
    for scheme in schemes {
        for (rate_name, rate) in &rates {
            for round in 0..seeds {
                let faults = FaultParams {
                    fault_seed: opts.seed.wrapping_add(1000 + round),
                    horizon_cycles: 6_000_000,
                    rates: *rate,
                };
                let tag = format!(
                    "grid {}/{rate_name}/seed={}",
                    scheme.label(),
                    faults.fault_seed
                );
                let spec = RunSpec {
                    faults: Some(faults),
                    ..RunSpec::default()
                };
                let (result, stats) = match run_spec(profile, scheme, &cfg, &params, &spec) {
                    Ok(out) => (out.result, out.faults),
                    Err(e) => {
                        violations.push(format!("{tag}: run failed: {e}"));
                        continue;
                    }
                };
                if !stats.conserved() {
                    violations.push(format!("{tag}: effect ledger leaks: {stats:?}"));
                }
                // Stateless baselines hold no interleaved data, so no fault
                // may cost them anything.
                if !matches!(scheme, SchemeKind::SilcFm(_)) && stats.poisoned != 0 {
                    violations.push(format!("{tag}: baseline lost data: {stats:?}"));
                }
                total.merge(&stats);
                if first.is_none() {
                    first = Some((spec, scheme, result, stats));
                }
            }
        }
    }
    if !total.conserved() {
        violations.push(format!("grid: merged ledger leaks: {total:?}"));
    }

    // Replay the first cell: the whole plane must be deterministic.
    if let Some((spec, scheme, result, stats)) = first {
        match run_spec(profile, scheme, &cfg, &params, &spec) {
            Ok(out) => {
                if out.faults != stats || out.result != result {
                    violations.push("grid: first cell differs on replay".into());
                }
            }
            Err(e) => violations.push(format!("grid: replay failed: {e}")),
        }
    }
    println!(
        "grid soak: injected {} across {} cells (corrected {} recovered {} poisoned {} masked {})",
        total.injected,
        schemes.len() * rates.len() * seeds as usize,
        total.corrected,
        total.recovered,
        total.poisoned,
        total.masked
    );
}

/// Slack around a NACK-audited request's service window when pinning it to
/// a channel-failure interval: the engine observes the failure through the
/// memory pipeline, so the NACK can trail the fault's CPU-cycle timestamp
/// by a bounded service latency.
const NACK_WINDOW_MARGIN: u64 = 4_096;

/// Serving-plane soak (`--slo`): open-loop serving trials under harsh
/// faults, auditing the request ledger against the fault plane.
fn slo_soak(opts: &Opts, violations: &mut Vec<String>) {
    let cfg = SystemConfig::small();
    let params = RunParams::smoke();
    let serve = ServeParams::default_plane();
    let profile = profiles::by_name("milc").expect("known workload");
    let arrival = arrivals::by_name("poisson").expect("known arrival profile");
    let scheme = SchemeKind::silcfm();
    let assoc = match scheme {
        SchemeKind::SilcFm(p) => p.associativity,
        _ => unreachable!(),
    };
    let seeds = if opts.smoke { 1 } else { 3 };
    // The request phase spans `accesses_per_core * est_service_cycles`;
    // faults stop well inside it so every scheduled repair can matter.
    let horizon = params.accesses_per_core * serve.est_service_cycles * 3 / 5;

    for round in 0..seeds {
        let faults = FaultParams {
            fault_seed: opts.seed.wrapping_add(500 + round),
            horizon_cycles: horizon,
            rates: FaultRates::harsh(),
        };
        let tag = format!("slo seed={}", faults.fault_seed);
        let mut check = |ok: bool, msg: String| {
            if !ok {
                violations.push(format!("{tag}: {msg}"));
            }
        };
        let run_at = |rate: u64| {
            run_serve(
                profile,
                scheme,
                &cfg,
                &params,
                &serve,
                arrival,
                rate,
                Some(&faults),
                &ShardParams::with_threads(1),
            )
        };
        let report = match run_at(300) {
            Ok(r) => r,
            Err(e) => {
                check(false, format!("run failed: {e}"));
                continue;
            }
        };
        check(
            report.stats.ledger.conserved(),
            format!("request ledger leaks: {:?}", report.stats.ledger),
        );
        check(report.fault_stats.conserved(), "effect ledger leaks".into());
        check(
            report.faults_delivered > 0,
            "harsh soak delivered no faults".into(),
        );

        // The audit trail's failure timeline, regenerated from the same
        // seed the run used — byte-identical by the schedule contract.
        let scaled = profiles::scaled(profile, params.footprint_scale);
        let space = space_for(&scaled, &cfg, &params);
        let topo = FaultParams::topology_for(&scheme, space);
        let schedule = FaultSchedule::generate(
            faults.fault_seed,
            faults.horizon_cycles,
            &faults.rates,
            &topo,
        )
        .expect("rates validated by the run above");
        let timeline = FailureTimeline::from_faults(schedule.faults());

        // Every NACK-audited request must pin to a real failure interval of
        // the device it names — a NACK with no channel down in (or near)
        // its service window would mean the retry ladder invents failures.
        for n in &report.stats.nacked {
            let from = n.first_issue.saturating_sub(NACK_WINDOW_MARGIN);
            let to = n.completion.saturating_add(NACK_WINDOW_MARGIN);
            for (hit, device) in [(n.nm, MemKind::Near), (n.fm, MemKind::Far)] {
                if hit {
                    check(
                        timeline.overlaps_failure(device, from, to),
                        format!(
                            "lane {} request@{}: {device:?} NACK window [{from}, {to}] \
                             overlaps no failure interval",
                            n.lane, n.arrival
                        ),
                    );
                }
            }
        }

        // Failover oracle over the delivered prefix, as in the traced soak.
        let delivered = report.faults_delivered;
        check(
            delivered <= schedule.len(),
            format!("{delivered} delivered > {} scheduled", schedule.len()),
        );
        let oracle = expected_failover_transitions(&schedule.faults()[..delivered], assoc);
        check(
            stat(&report.scheme_stats, "failover_transitions") as usize == oracle.len(),
            format!(
                "controller saw {} failover transitions, oracle expects {}",
                stat(&report.scheme_stats, "failover_transitions"),
                oracle.len()
            ),
        );

        // A short AIMD search under the same faults: every violation the
        // regulator backs off from must leave ledger evidence — shed,
        // timed-out, or failed requests, or a p99 actually over the SLO.
        let mut aimd = Aimd::new(AimdParams {
            min_rate: 50,
            start_rate: 600,
            add_step: 300,
            decrease_num: 3,
            decrease_den: 4,
            trials: 4,
        });
        while !aimd.done() {
            let r = match run_at(aimd.rate()) {
                Ok(r) => r,
                Err(e) => {
                    check(false, format!("search trial failed: {e}"));
                    break;
                }
            };
            check(
                r.stats.ledger.conserved(),
                format!(
                    "search rate={}: request ledger leaks: {:?}",
                    aimd.rate(),
                    r.stats.ledger
                ),
            );
            let met = r.slo_met(&serve, 0.95);
            if !met {
                let l = &r.stats.ledger;
                let evidence = l.shed > 0
                    || l.timed_out > 0
                    || l.failed > 0
                    || r.stats.p99() > serve.slo_p99_cycles;
                check(
                    evidence,
                    format!(
                        "search rate={}: regulator backs off with no ledger evidence \
                         ({l:?}, p99 {})",
                        aimd.rate(),
                        r.stats.p99()
                    ),
                );
            }
            aimd.observe(met);
        }

        println!(
            "slo soak seed={}: faults={} nacked={} ledger={:?} best_ok={}",
            faults.fault_seed,
            report.faults_delivered,
            report.stats.nacked.len(),
            report.stats.ledger,
            aimd.best_ok()
        );
    }
}

/// Phase 3: the crash-safe journaled grid. With `--die-after-jobs N` the
/// process tears its own journal mid-write and exits 3, simulating a kill;
/// a rerun with `--resume` must finish only the missing jobs and print the
/// same aggregate digest as an uninterrupted run.
fn journaled_grid(opts: &Opts, path: &PathBuf, violations: &mut Vec<String>) {
    let jobs = ExperimentGrid::new(SystemConfig::small(), RunParams::smoke())
        .workload(profiles::by_name("mcf").expect("known workload"))
        .workload(profiles::by_name("milc").expect("known workload"))
        .scheme(SchemeKind::silcfm())
        .scheme(SchemeKind::Hma)
        .seed_per_job()
        .jobs();

    let die_after = opts.die_after_jobs;
    let mut appended = 0u64;
    let on_done = |index: usize, _: &RunResult| {
        appended += 1;
        println!("journal: job {index} done ({appended} this process)");
        if Some(appended) == die_after {
            // A torn tail: half a record, no newline — what a kill -9 in
            // the middle of a write leaves behind. Journal::resume must discard it.
            if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(path) {
                let _ = f.write_all(b"job 1 silcfm");
            }
            println!("journal: simulating a crash after {appended} jobs");
            std::process::exit(3);
        }
    };
    let results = run_grid_journaled(&jobs, &RunSpec::default(), 2, path, opts.resume, on_done);
    match results {
        Ok(results) => {
            println!(
                "journal: {} jobs complete, aggregate={:016x}",
                results.len(),
                aggregate_digest(&results)
            );
        }
        Err(e) => violations.push(format!("journal: {e}")),
    }
}

fn main() {
    let opts = Opts::from_args();
    let mut violations = Vec::new();

    if !opts.skip_soak {
        traced_scheme_soak(&opts, &mut violations);
        grid_soak(&opts, &mut violations);
    }
    if opts.slo {
        slo_soak(&opts, &mut violations);
    }
    if let Some(path) = &opts.journal {
        journaled_grid(&opts, path, &mut violations);
    }

    for v in &violations {
        eprintln!("VIOLATION: {v}");
    }
    println!("chaos: {} invariant violations", violations.len());
    if !violations.is_empty() {
        std::process::exit(1);
    }
}
