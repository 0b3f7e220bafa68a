//! SLO-regulated max-RPS search: the serving-plane headline table.
//!
//! The paper frames SILC-FM as a datacenter memory organization, and the
//! datacenter question is never "how fast is one batch run" but "how much
//! open-loop load can this scheme carry before its tail blows the SLO".
//! This binary answers it: for each scheme × arrival profile it drives an
//! AIMD search (`silcfm-serve`) over the offered request rate, running one
//! full open-loop trial per step — seeded arrivals, deadline admission
//! control, retry ladder — and records the highest rate whose whole-run
//! p99 stayed inside the SLO with goodput intact. A per-scheme recovery
//! run then injects channel fail/repair faults and measures how many
//! cycles after each repair the `obs.slo.*` epoch series returns to
//! compliance. Results land in `results/BENCH_slo.json`.
//!
//! Guarantees enforced on every run:
//!
//! * the conservation ledger holds (`offered = completed + shed +
//!   timed_out + failed`) — a trial that leaks a request aborts the bench;
//! * with `--journal`, every finished trial is flushed to a crash-safe
//!   journal; `--resume` replays the recorded verdicts through fresh
//!   regulators and continues the search byte-identically (the
//!   `aggregate=` line matches an uninterrupted run's).
//!
//! Run with: `cargo run --release -p silcfm-bench --bin slo`
//! Options:
//!   --smoke              tiny runs, short searches (CI-sized, seconds)
//!   --full               full-size runs; default is the quick preset
//!   --out PATH           output JSON path (default results/BENCH_slo.json)
//!   --no-write           measure and print, but do not write the JSON
//!   --journal PATH       journal finished trials to PATH (crash-safe)
//!   --resume             resume a killed search from --journal PATH
//!                        (a missing PATH starts a fresh journal)
//!   --die-after-trials N exit(3) with a torn journal tail after N live
//!                        trials (crash-injection hook for CI)
//!
//! Exit codes: 2 on a usage error, 3 from `--die-after-trials`, 4 when the
//! journal cannot be created, read or appended to (one `slo: journal
//! error:` line on stderr).

use std::hash::{Hash, Hasher};
use std::path::Path;

use silcfm_fault::FaultRates;
use silcfm_serve::{
    run_searches, run_serve, search_digest, AimdParams, ServeParams, ServeReport, SloJournal,
    TrialRecord,
};
use silcfm_sim::{FaultParams, RunParams, SchemeKind, ShardParams};
use silcfm_trace::arrivals::{self, ArrivalProfile};
use silcfm_trace::profiles;
use silcfm_types::{FxHasher, SilcFmError, SystemConfig};

/// Workload the serving plane runs over: pointer-chasing and
/// memory-latency-bound, so scheme quality shows up directly in request
/// tails.
const WORKLOAD: &str = "mcf";

/// Goodput floor of the SLO: a trial shedding or failing more than this
/// fraction of offered requests violates even if the survivors are fast.
const MIN_GOODPUT: f64 = 0.95;

/// Nominal core clock used only to convert cycles to wall-clock RPS in the
/// artifact; the simulation itself never leaves the cycle domain.
const NOMINAL_GHZ: f64 = 4.0;

struct Options {
    smoke: bool,
    full: bool,
    out: String,
    write: bool,
    journal: Option<String>,
    resume: bool,
    die_after_trials: Option<usize>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        smoke: false,
        full: false,
        out: "results/BENCH_slo.json".to_string(),
        write: true,
        journal: None,
        resume: false,
        die_after_trials: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--full" => opts.full = true,
            "--out" => {
                opts.out = args
                    .next()
                    .unwrap_or_else(|| usage_exit("--out needs a path"));
            }
            "--no-write" => opts.write = false,
            "--journal" => {
                opts.journal = Some(
                    args.next()
                        .unwrap_or_else(|| usage_exit("--journal needs a path")),
                );
            }
            "--resume" => opts.resume = true,
            "--die-after-trials" => {
                let n = args
                    .next()
                    .unwrap_or_else(|| usage_exit("--die-after-trials needs a count"));
                opts.die_after_trials = Some(
                    n.parse()
                        .unwrap_or_else(|_| usage_exit("--die-after-trials needs a number")),
                );
            }
            other => usage_exit(&format!("unknown argument '{other}'")),
        }
    }
    if opts.smoke && opts.full {
        usage_exit("--smoke and --full are mutually exclusive");
    }
    if opts.journal.is_none() && (opts.resume || opts.die_after_trials.is_some()) {
        usage_exit("--resume and --die-after-trials require --journal");
    }
    opts
}

/// Reports a journal failure on one line and exits 4: distinct from usage
/// (2) and the injected crash (3), and without a panic's backtrace.
fn journal_exit(e: &SilcFmError) -> ! {
    eprintln!("slo: {e}");
    std::process::exit(4);
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: slo [--smoke | --full] [--out PATH] [--no-write] \
         [--journal PATH [--resume] [--die-after-trials N]]"
    );
    std::process::exit(2);
}

/// The schemes the serving table compares: SILC-FM against the three
/// baselines the paper positions it against.
fn lineup() -> Vec<SchemeKind> {
    vec![
        SchemeKind::silcfm(),
        SchemeKind::Hma,
        SchemeKind::Cameo,
        SchemeKind::Pom,
    ]
}

/// The serving contract the search runs under. The admission predictor is
/// deliberately *optimistic* (`est_service_cycles` below any scheme's real
/// per-record cost): the predictor then only sheds under genuine overload,
/// so the binding constraint at the cliff is each scheme's *measured*
/// behavior — deadline timeouts and tail latency — not the shared model.
fn serve_plane() -> ServeParams {
    ServeParams {
        est_service_cycles: 40,
        slo_p99_cycles: 8_000,
        ..ServeParams::default_plane()
    }
}

/// AIMD search ranges, tuned so the explored window straddles every
/// scheme's capacity cliff (requests per Mcycle per lane).
fn search_params(smoke: bool) -> AimdParams {
    if smoke {
        AimdParams {
            min_rate: 50,
            start_rate: 600,
            add_step: 250,
            decrease_num: 3,
            decrease_den: 4,
            trials: 6,
        }
    } else {
        AimdParams {
            min_rate: 50,
            start_rate: 600,
            add_step: 150,
            decrease_num: 3,
            decrease_den: 4,
            trials: 12,
        }
    }
}

/// Channel-only fault rates for the recovery runs: fail/repair cycles with
/// every other fault class off, so recovery time is attributable.
fn recovery_rates() -> FaultRates {
    FaultRates {
        channel_fail_per_m: 4.0,
        channel_repair_delay: 80_000,
        ..FaultRates::none()
    }
}

/// One (scheme × arrival) cell of the search grid, in journal order.
#[derive(Clone, Copy)]
struct SearchSpec {
    scheme: SchemeKind,
    arrival: &'static ArrivalProfile,
}

struct SearchSummary {
    spec: SearchSpec,
    best: u64,
    trials: Vec<TrialRecord>,
}

impl SearchSummary {
    /// The record of the last trial that met the SLO at the best rate.
    fn best_trial(&self) -> Option<&TrialRecord> {
        self.trials
            .iter()
            .rev()
            .find(|t| t.met && t.rate == self.best)
    }
}

struct Ctx {
    cfg: SystemConfig,
    params: RunParams,
    serve: ServeParams,
}

/// Runs one serial trial and enforces the conservation ledger.
fn run_trial(spec: &SearchSpec, rate: u64, ctx: &Ctx) -> ServeReport {
    let profile = profiles::by_name(WORKLOAD).expect("known workload");
    let report = run_serve(
        profile,
        spec.scheme,
        &ctx.cfg,
        &ctx.params,
        &ctx.serve,
        spec.arrival,
        rate,
        None,
        &ShardParams::with_threads(1),
    )
    .expect("serving trial");
    assert!(
        report.stats.ledger.conserved(),
        "{}/{} rate={rate}: conservation ledger violated: {:?}",
        report.scheme,
        report.arrival,
        report.stats.ledger
    );
    report
}

/// Per-scheme recovery run: channel fail/repair faults at a moderate rate,
/// recovery measured from each repair to the next compliant epoch.
fn recovery_run(scheme: SchemeKind, ctx: &Ctx, rate: u64) -> ServeReport {
    let profile = profiles::by_name(WORKLOAD).expect("known workload");
    let arrival = arrivals::by_name("poisson").expect("known arrival profile");
    // Faults stop at 60% of the arrival horizon so every repair (fail +
    // delay) lands while request traffic is still flowing.
    let faults = FaultParams {
        fault_seed: 2017,
        horizon_cycles: ctx.params.accesses_per_core * ctx.serve.est_service_cycles * 3 / 5,
        rates: recovery_rates(),
    };
    let report = run_serve(
        profile,
        scheme,
        &ctx.cfg,
        &ctx.params,
        &ctx.serve,
        arrival,
        rate,
        Some(&faults),
        &ShardParams::with_threads(1),
    )
    .expect("recovery trial");
    assert!(
        report.stats.ledger.conserved(),
        "{} recovery: conservation ledger violated: {:?}",
        report.scheme,
        report.stats.ledger
    );
    assert!(report.fault_stats.conserved());
    report
}

/// JSON body for one trial record.
fn trial_json(t: &TrialRecord) -> String {
    let l = &t.ledger;
    format!(
        "{{ \"rate_per_mcycle\": {}, \"offered\": {}, \"completed\": {}, \"shed\": {}, \
         \"timed_out\": {}, \"failed\": {}, \"retries\": {}, \"p99\": {}, \
         \"goodput\": {:.4}, \"shed_rate\": {:.4}, \"met\": {} }}",
        t.rate,
        l.offered,
        l.completed,
        l.shed,
        l.timed_out,
        l.failed,
        l.retries,
        t.p99,
        l.goodput(),
        l.shed_rate(),
        t.met
    )
}

fn json_u64_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |x| x.to_string())
}

/// Deterministic digest over the whole search outcome; equality between a
/// fresh run and a killed-then-resumed run is the resume-correctness
/// check CI scripts grep for.
fn aggregate_digest(summaries: &[SearchSummary]) -> u64 {
    let mut h = FxHasher::default();
    for s in summaries {
        s.best.hash(&mut h);
        for t in &s.trials {
            format!("{t:?}").hash(&mut h);
        }
    }
    h.finish()
}

fn main() {
    let opts = parse_args();
    let (cfg, params, mode) = if opts.smoke {
        (SystemConfig::small(), RunParams::smoke(), "smoke")
    } else if opts.full {
        (SystemConfig::experiment(), RunParams::full(), "full")
    } else {
        (SystemConfig::experiment(), RunParams::quick(), "quick")
    };
    let serve = serve_plane();
    let aimd_params = search_params(opts.smoke);
    let recovery_rate = aimd_params.start_rate / 2;
    let ctx = Ctx { cfg, params, serve };
    let kinds = lineup();
    let profile_names: Vec<&str> = arrivals::all().iter().map(|a| a.name).collect();
    let searches: Vec<SearchSpec> = kinds
        .iter()
        .flat_map(|&scheme| {
            arrivals::all()
                .iter()
                .map(move |arrival| SearchSpec { scheme, arrival })
        })
        .collect();

    println!(
        "slo: {} schemes x {} arrival profiles on {WORKLOAD}, mode={mode}, {} accesses/core, \
         {} trials/search",
        kinds.len(),
        profile_names.len(),
        params.accesses_per_core,
        aimd_params.trials
    );

    // The journal binds to the full search configuration: any change to the
    // grid, the serving contract, or the regulator invalidates old files.
    let labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
    let spec_text = format!(
        "slo v1 mode={mode} workload={WORKLOAD} schemes={labels:?} arrivals={profile_names:?} \
         serve={serve:?} aimd={aimd_params:?} seed={} apc={} cores={} min_goodput={MIN_GOODPUT}",
        params.seed, params.accesses_per_core, cfg.core.cores
    );
    let digest = search_digest(&spec_text);
    let (mut journal, replayed) = match &opts.journal {
        Some(p) => {
            let (j, done) = SloJournal::open(Path::new(p), digest, opts.resume)
                .unwrap_or_else(|e| journal_exit(&e));
            if opts.resume {
                println!("slo: resumed {} finished trials from {p}", done.len());
            }
            (Some(j), done)
        }
        None => (None, Vec::new()),
    };

    let mut live_done = 0usize;
    let outcomes = run_searches(
        &searches,
        aimd_params,
        &replayed,
        journal.as_mut(),
        |spec, rate| {
            let report = run_trial(spec, rate, &ctx);
            let met = report.slo_met(&serve, MIN_GOODPUT);
            (report.stats.ledger, report.stats.p99(), met)
        },
        |spec, rec| {
            println!(
                "slo: {}/{} trial {} rate={} p99={} goodput={:.3} shed={:.3} met={}",
                spec.scheme.label(),
                spec.arrival.name,
                rec.trial,
                rec.rate,
                rec.p99,
                rec.ledger.goodput(),
                rec.ledger.shed_rate(),
                rec.met
            );
            live_done += 1;
            if opts.die_after_trials == Some(live_done) {
                // Simulate a crash mid-append: leave a torn (newline-less)
                // record on the journal tail and die with the chaos
                // harness's crash exit code.
                let path = opts.journal.as_ref().expect("checked in parse_args");
                use std::io::Write as _;
                let mut f = std::fs::OpenOptions::new()
                    .append(true)
                    .open(path)
                    .expect("reopen journal for crash injection");
                write!(f, "trial {} 9 1", rec.search).expect("write torn tail");
                eprintln!("slo: dying after {live_done} live trials (torn journal tail)");
                std::process::exit(3);
            }
        },
    )
    .unwrap_or_else(|e| journal_exit(&e));
    let summaries: Vec<SearchSummary> = searches
        .iter()
        .zip(outcomes)
        .map(|(spec, (best, trials))| SearchSummary {
            spec: *spec,
            best,
            trials,
        })
        .collect();

    println!(
        "\n{:8} {:8} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "scheme", "arrival", "max_rate", "p99@best", "goodput", "shed", "rps@4GHz"
    );
    for s in &summaries {
        let (p99, goodput, shed) = s.best_trial().map_or((0, 0.0, 0.0), |t| {
            (t.p99, t.ledger.goodput(), t.ledger.shed_rate())
        });
        let rps = s.best as f64 * NOMINAL_GHZ * 1_000.0 * f64::from(cfg.core.cores);
        println!(
            "{:8} {:8} {:>10} {:>10} {:>9.3} {:>9.3} {:>9.2e}",
            s.spec.scheme.label(),
            s.spec.arrival.name,
            s.best,
            p99,
            goodput,
            shed,
            rps
        );
    }

    // Recovery: channel fail/repair injection per scheme at a moderate
    // fixed rate (half the search's start rate).
    let recoveries: Vec<(SchemeKind, ServeReport)> = kinds
        .iter()
        .map(|&scheme| (scheme, recovery_run(scheme, &ctx, recovery_rate)))
        .collect();
    println!();
    for (scheme, r) in &recoveries {
        let samples: Vec<u64> = r
            .stats
            .recoveries
            .iter()
            .filter_map(|&(_, rec)| rec)
            .collect();
        let mean = samples
            .iter()
            .sum::<u64>()
            .checked_div(samples.len() as u64);
        println!(
            "slo: recovery {} rate={recovery_rate} faults_delivered={} repairs={} recovered={} \
             mean={:?} cycles",
            scheme.label(),
            r.faults_delivered,
            r.stats.recoveries.len(),
            samples.len(),
            mean
        );
    }

    println!("slo: aggregate={:016x}", aggregate_digest(&summaries));

    if opts.write {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"meta\": {\n");
        out.push_str(&format!("    \"mode\": \"{mode}\",\n"));
        out.push_str(&format!("    \"workload\": \"{WORKLOAD}\",\n"));
        out.push_str(&format!(
            "    \"accesses_per_core\": {},\n",
            params.accesses_per_core
        ));
        out.push_str(&format!("    \"seed\": {},\n", params.seed));
        out.push_str(&format!("    \"lanes\": {},\n", cfg.core.cores));
        out.push_str("    \"rate_unit\": \"requests per million CPU cycles per lane\",\n");
        out.push_str(&format!("    \"nominal_ghz\": {NOMINAL_GHZ},\n"));
        out.push_str(&format!("    \"min_goodput\": {MIN_GOODPUT},\n"));
        out.push_str(&format!(
            "    \"slo_p99_cycles\": {},\n    \"deadline_cycles\": {},\n    \
             \"records_per_request\": {},\n    \"est_service_cycles\": {},\n    \
             \"retry_budget\": {},\n    \"retry_backoff_cycles\": {},\n    \
             \"epoch_cycles\": {},\n",
            serve.slo_p99_cycles,
            serve.deadline_cycles,
            serve.records_per_request,
            serve.est_service_cycles,
            serve.retry_budget,
            serve.retry_backoff_cycles,
            serve.epoch_cycles
        ));
        out.push_str(&format!(
            "    \"aimd\": {{ \"start_rate\": {}, \"add_step\": {}, \"decrease\": \"{}/{}\", \
             \"min_rate\": {}, \"trials\": {} }},\n",
            aimd_params.start_rate,
            aimd_params.add_step,
            aimd_params.decrease_num,
            aimd_params.decrease_den,
            aimd_params.min_rate,
            aimd_params.trials
        ));
        let rates = recovery_rates();
        out.push_str(&format!(
            "    \"recovery\": {{ \"rate_per_mcycle\": {recovery_rate}, \
             \"channel_fail_per_m\": {}, \"channel_repair_delay\": {}, \"fault_seed\": 2017 }}\n",
            rates.channel_fail_per_m, rates.channel_repair_delay
        ));
        out.push_str("  },\n");
        out.push_str("  \"schemes\": {\n");
        let scheme_bodies: Vec<String> = kinds
            .iter()
            .map(|&kind| {
                let arrival_bodies: Vec<String> = summaries
                    .iter()
                    .filter(|s| s.spec.scheme.label() == kind.label())
                    .map(|s| {
                        let trials: Vec<String> = s
                            .trials
                            .iter()
                            .map(|t| format!("          {}", trial_json(t)))
                            .collect();
                        let best = s.best_trial().map_or_else(
                            || "null".to_string(),
                            trial_json,
                        );
                        let rps =
                            s.best as f64 * NOMINAL_GHZ * 1_000.0 * f64::from(cfg.core.cores);
                        format!(
                            "      \"{}\": {{\n        \"max_rate_per_mcycle\": {},\n        \
                             \"max_rps_system_at_4ghz\": {rps:.0},\n        \"best\": {best},\n        \
                             \"trials\": [\n{}\n        ]\n      }}",
                            s.spec.arrival.name,
                            s.best,
                            trials.join(",\n")
                        )
                    })
                    .collect();
                let (_, r) = recoveries
                    .iter()
                    .find(|(k, _)| k.label() == kind.label())
                    .expect("recovery run covered every scheme");
                let samples: Vec<u64> = r
                    .stats
                    .recoveries
                    .iter()
                    .filter_map(|&(_, rec)| rec)
                    .collect();
                let mean = samples
                    .iter()
                    .sum::<u64>()
                    .checked_div(samples.len() as u64);
                let l = &r.stats.ledger;
                let recovery_body = format!(
                    "      \"recovery\": {{ \"rate_per_mcycle\": {recovery_rate}, \
                     \"faults_delivered\": {}, \"repairs\": {}, \"recovered\": {}, \
                     \"mean_recovery_cycles\": {}, \"max_recovery_cycles\": {}, \
                     \"completed\": {}, \"timed_out\": {}, \"failed\": {}, \"retries\": {} }}",
                    r.faults_delivered,
                    r.stats.recoveries.len(),
                    samples.len(),
                    json_u64_opt(mean),
                    json_u64_opt(samples.iter().max().copied()),
                    l.completed,
                    l.timed_out,
                    l.failed,
                    l.retries
                );
                format!(
                    "    \"{}\": {{\n{},\n{}\n    }}",
                    kind.label(),
                    arrival_bodies.join(",\n"),
                    recovery_body
                )
            })
            .collect();
        out.push_str(&scheme_bodies.join(",\n"));
        out.push_str("\n  }\n}\n");
        silcfm_bench::write_artifact(&opts.out, &out);
        println!("\nwrote {}", opts.out);
    }
}
