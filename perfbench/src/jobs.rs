//! The workloads and their jobs: what each job simulates, on which machine,
//! and how it is built, run with tracing off, and digested.

use std::hash::Hasher as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use silcfm_fault::{FaultDriver, FaultRates, FaultSchedule};
use silcfm_serve::{
    plan_trial, run_serve, FailureTimeline, LanePlan, RequestTracker, ServeParams, ServeReport,
    ServeRunStats, ServeSource,
};
use silcfm_sim::experiment::space_for;
use silcfm_sim::system::SystemOutcome;
use silcfm_sim::{
    run, run_sharded, run_system_sharded_tapped, FaultParams, RunParams, RunResult, SchemeKind,
    ShardParams, ShardReport, System,
};
use silcfm_trace::arrivals::{self, ArrivalProfile};
use silcfm_trace::{profiles, WorkloadProfile};
use silcfm_types::{AddressSpace, FxHasher, SystemConfig};

/// The seed the digests in `golden.txt` were taken at.
pub const DEFAULT_SEED: u64 = 2017;

/// Threads of the sharded engine: one trace producer plus the consumer.
pub const SHARD_THREADS: usize = 2;

/// Memory accesses per simulated core in a Table III job.
const TABLE3_ACCESSES: u64 = 6_000;

/// Records per lane in a serving trial.
const SERVE_ACCESSES: u64 = 8_000;

/// Per-job output digests at [`DEFAULT_SEED`], one `workload job digest`
/// line each.
const GOLDEN: &str = include_str!("../golden.txt");

/// One benchmark workload: a batch of jobs run back to back in one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SILC-FM on all 14 Table III profiles, serial engine.
    SilcfmTable3,
    /// The no-NM baseline on the same profiles and seed.
    BaseTable3,
    /// Three open-loop serving trials of SILC-FM on mcf.
    ServeMcf,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Self; 3] = [Self::SilcfmTable3, Self::BaseTable3, Self::ServeMcf];

    /// The workload's name on the command line.
    pub const fn name(self) -> &'static str {
        match self {
            Self::SilcfmTable3 => "silcfm-table3",
            Self::BaseTable3 => "base-table3",
            Self::ServeMcf => "serve-mcf",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulated machine at `seed`: Table II's 16 cores with the 1 MiB
    /// LLC the figure harnesses use, at `RunParams::quick`'s footprint
    /// scale.
    pub fn machine(self, seed: u64) -> Machine {
        let accesses_per_core = match self {
            Self::SilcfmTable3 | Self::BaseTable3 => TABLE3_ACCESSES,
            Self::ServeMcf => SERVE_ACCESSES,
        };
        Machine {
            cfg: SystemConfig::experiment(),
            params: RunParams {
                accesses_per_core,
                seed,
                ..RunParams::quick()
            },
        }
    }

    /// Whole batches a run of about `seconds` host seconds times. The count
    /// comes from the batch's measured cost on the reference host (a 2-vCPU
    /// x86-64 container), not from a clock during the run, so every run of
    /// a workload times the same jobs and ranks the same number of samples.
    pub fn batches(self, seconds: f64) -> usize {
        let batch_seconds = match self {
            Self::SilcfmTable3 => 0.85,
            Self::BaseTable3 => 0.6,
            Self::ServeMcf => 0.28,
        };
        ((seconds / batch_seconds).round() as usize).max(1)
    }

    /// One batch of jobs.
    pub fn jobs(self, machine: &Machine) -> Vec<Job> {
        match self {
            Self::SilcfmTable3 => table3(SchemeKind::silcfm()),
            Self::BaseTable3 => table3(SchemeKind::NoNm),
            Self::ServeMcf => serve_trials(machine),
        }
    }
}

fn table3(scheme: SchemeKind) -> Vec<Job> {
    profiles::all()
        .iter()
        .map(|p| Job::batch(p, scheme))
        .collect()
}

fn serve_trials(m: &Machine) -> Vec<Job> {
    let mcf = profiles::by_name("mcf").expect("mcf is a Table III profile");
    let poisson = arrivals::by_name("poisson").expect("poisson is a calibrated arrival profile");
    let bursty = arrivals::by_name("bursty").expect("bursty is a calibrated arrival profile");
    let trial = |arrival, rate_per_m, faults| Trial {
        arrival,
        rate_per_m,
        serve: slo_plane(),
        faults,
    };
    let silcfm = SchemeKind::silcfm();
    vec![
        Job::serve("poisson-300", mcf, silcfm, trial(poisson, 300, None)),
        Job::serve("bursty-900", mcf, silcfm, trial(bursty, 900, None)),
        Job::serve(
            "poisson-300-faulted",
            mcf,
            silcfm,
            trial(poisson, 300, Some(recovery_faults(m))),
        ),
    ]
}

/// The `slo` bin's serving contract: 8-record requests, an optimistic
/// 40-cycle service estimate, and a p99 SLO of 8000 cycles.
pub fn slo_plane() -> ServeParams {
    ServeParams {
        est_service_cycles: 40,
        slo_p99_cycles: 8_000,
        ..ServeParams::default_plane()
    }
}

/// The `slo` bin's recovery fault rates: channel fail/repair only. At these
/// rates the `slo` bin's horizon (60% of the arrival horizon) holds under
/// one fault at this run length, so the schedule spans ten arrival
/// horizons, about the trial's length. Seeded by the run seed, so a
/// held-out seed also draws a held-out schedule.
pub fn recovery_faults(m: &Machine) -> FaultParams {
    FaultParams {
        fault_seed: m.params.seed,
        horizon_cycles: m.params.accesses_per_core * slo_plane().est_service_cycles * 10,
        rates: FaultRates {
            channel_fail_per_m: 4.0,
            channel_repair_delay: 80_000,
            ..FaultRates::none()
        },
    }
}

/// The simulated machine and run length shared by a workload's jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Machine {
    /// The simulated system.
    pub cfg: SystemConfig,
    /// Run length, seed, and footprint scale.
    pub params: RunParams,
}

impl Machine {
    /// Simulated cores, one workload lane each.
    pub fn lanes(&self) -> usize {
        usize::from(self.cfg.core.cores)
    }

    /// Trace records one job services: every lane issues its full quota.
    pub fn records_per_job(&self) -> u64 {
        self.params.accesses_per_core * u64::from(self.cfg.core.cores)
    }
}

/// One serving trial: arrivals, offered rate, serving contract, faults.
#[derive(Debug, Clone, Copy)]
pub struct Trial {
    /// Arrival shape.
    pub arrival: &'static ArrivalProfile,
    /// Offered requests per million cycles per lane.
    pub rate_per_m: u64,
    /// The serving contract.
    pub serve: ServeParams,
    /// Channel faults armed on the engine and the retry ladder, if any.
    pub faults: Option<FaultParams>,
}

/// One job: a closed-loop run of a profile, or a serving trial.
#[derive(Debug, Clone)]
pub struct Job {
    /// The job's name in `golden.txt` and in failure lines.
    pub name: String,
    /// The Table III profile every lane runs.
    pub profile: &'static WorkloadProfile,
    /// The placement scheme under test.
    pub scheme: SchemeKind,
    /// The serving trial; `None` for a closed-loop run.
    pub trial: Option<Trial>,
}

/// What an untraced job returned.
pub enum Outcome {
    /// A closed-loop run's metrics.
    Run(RunResult),
    /// A serving trial's report.
    Serve(Box<ServeReport>),
}

impl Outcome {
    /// The output digest: the `RunResult` with its scheme stats and traffic,
    /// or `ServeReport::digest`.
    pub fn digest(&self) -> u64 {
        match self {
            Self::Run(r) => digest_result(r),
            Self::Serve(r) => digest_str(&r.digest()),
        }
    }

    /// Whether the trial's request and fault ledgers are conserved (always
    /// true for closed-loop runs, which keep no ledger).
    pub fn conserved(&self) -> bool {
        match self {
            Self::Run(_) => true,
            Self::Serve(r) => r.stats.ledger.conserved() && r.fault_stats.conserved(),
        }
    }

    /// Simulated cycles the run took.
    pub fn cycles(&self) -> u64 {
        match self {
            Self::Run(r) => r.cycles,
            Self::Serve(r) => r.cycles,
        }
    }
}

/// A job's machine and inputs, built as `run`/`run_serve` build them.
pub struct Built {
    /// The footprint-scaled profile.
    pub scaled: WorkloadProfile,
    /// The simulated flat address space.
    pub space: AddressSpace,
    /// The machine, scheme included, fault driver armed.
    pub system: System,
    /// The request plane (serving trials only).
    pub serving: Option<Serving>,
}

/// A serving trial's request-plane inputs.
pub struct Serving {
    /// The trial.
    pub trial: Trial,
    /// Every lane's admission plan.
    pub plans: Vec<LanePlan>,
    /// The fault schedule, if faults are armed.
    pub schedule: Option<FaultSchedule>,
    /// The request tracker that rides the service tap.
    pub tracker: RequestTracker,
}

impl Job {
    /// A closed-loop run of `profile` under `scheme`.
    pub fn batch(profile: &'static WorkloadProfile, scheme: SchemeKind) -> Self {
        Self {
            name: profile.name.to_string(),
            profile,
            scheme,
            trial: None,
        }
    }

    /// A serving trial named `name`.
    pub fn serve(
        name: &str,
        profile: &'static WorkloadProfile,
        scheme: SchemeKind,
        trial: Trial,
    ) -> Self {
        Self {
            name: name.to_string(),
            profile,
            scheme,
            trial: Some(trial),
        }
    }

    /// Runs the job through the simulator's public entry point with
    /// tracing off: `run` (or `run_sharded`) for profiles, `run_serve` for
    /// trials. `threads <= 1` is the serial engine.
    ///
    /// # Errors
    ///
    /// Returns a trial's invalid fault configuration.
    pub fn run(&self, m: &Machine, threads: usize) -> Result<Outcome, String> {
        let shard = ShardParams::with_threads(threads);
        match &self.trial {
            None if threads <= 1 => Ok(Outcome::Run(run(
                self.profile,
                self.scheme,
                &m.cfg,
                &m.params,
            ))),
            None => Ok(Outcome::Run(
                run_sharded(self.profile, self.scheme, &m.cfg, &m.params, &shard).0,
            )),
            Some(t) => run_serve(
                self.profile,
                self.scheme,
                &m.cfg,
                &m.params,
                &t.serve,
                t.arrival,
                t.rate_per_m,
                t.faults.as_ref(),
                &shard,
            )
            .map(|r| Outcome::Serve(Box::new(r)))
            .map_err(|e| format!("{}: {e}", self.name)),
        }
    }

    /// Builds everything the job needs before its first record issues, in
    /// `run`/`run_serve`'s order: the admission plans, the system with its
    /// scheme, the fault schedule and the request tracker.
    ///
    /// # Errors
    ///
    /// Returns a trial's invalid fault configuration.
    pub fn build(&self, m: &Machine) -> Result<Built, String> {
        let scaled = profiles::scaled(self.profile, m.params.footprint_scale);
        let space = space_for(&scaled, &m.cfg, &m.params);
        let plans = self.trial.map(|t| {
            plan_trial(
                t.arrival,
                t.rate_per_m,
                m.cfg.core.cores,
                m.params.seed,
                m.params.accesses_per_core,
                &t.serve,
            )
        });
        let mut system = System::new(
            m.cfg,
            space,
            self.scheme.placement(m.params.seed),
            self.scheme.build(space, m.records_per_job()),
        );
        let serving = match (self.trial, plans) {
            (Some(trial), Some(plans)) => {
                let schedule = trial.faults.map(|f| self.schedule(&f, space)).transpose()?;
                let timeline = schedule
                    .as_ref()
                    .map_or_else(FailureTimeline::default, |s| {
                        FailureTimeline::from_faults(s.faults())
                    });
                if let Some(s) = &schedule {
                    system.set_fault_driver(FaultDriver::new(s.clone()));
                }
                let tracker = RequestTracker::new(&plans, &trial.serve, timeline);
                Some(Serving {
                    trial,
                    plans,
                    schedule,
                    tracker,
                })
            }
            _ => None,
        };
        Ok(Built {
            scaled,
            space,
            system,
            serving,
        })
    }

    /// Host time to build the job's machine and inputs ([`Job::build`]).
    /// The built state is dropped after the clock stops.
    ///
    /// # Errors
    ///
    /// Returns a trial's invalid fault configuration.
    pub fn setup_time(&self, m: &Machine) -> Result<Duration, String> {
        let start = Instant::now();
        let built = black_box(self.build(m)?);
        let elapsed = start.elapsed();
        drop(built);
        Ok(elapsed)
    }

    /// The schedule `faults` generates for this job's scheme over `space`.
    ///
    /// # Errors
    ///
    /// Returns an invalid rate or topology.
    pub fn schedule(
        &self,
        faults: &FaultParams,
        space: AddressSpace,
    ) -> Result<FaultSchedule, String> {
        let topo = FaultParams::topology_for(&self.scheme, space);
        FaultSchedule::generate(
            faults.fault_seed,
            faults.horizon_cycles,
            &faults.rates,
            &topo,
        )
        .map_err(|e| format!("{}: {e}", self.name))
    }

    /// The `RunResult` `run` reports for a finished system.
    pub fn result(&self, system: &System, outcome: SystemOutcome) -> RunResult {
        let scheme_stats = system.scheme().stats();
        let mpki = if outcome.instructions == 0 {
            0.0
        } else {
            outcome.llc_misses as f64 * 1000.0 / outcome.instructions as f64
        };
        RunResult {
            scheme: self.scheme.label().to_string(),
            workload: self.profile.name.to_string(),
            cycles: outcome.cycles,
            instructions: outcome.instructions,
            llc_misses: outcome.llc_misses,
            access_rate: scheme_stats.access_rate(),
            traffic: *system.tally(),
            energy_pj: system.energy_pj(outcome.cycles),
            scheme_stats,
            mpki,
            footprint_bytes: system.footprint_bytes(),
        }
    }

    /// The `ServeReport` `run_serve` reports for a finished trial.
    pub fn serve_report(
        &self,
        trial: &Trial,
        system: &System,
        outcome: SystemOutcome,
        stats: ServeRunStats,
        scheduled: usize,
        producer_threads: usize,
    ) -> ServeReport {
        ServeReport {
            scheme: self.scheme.label().to_string(),
            workload: self.profile.name.to_string(),
            arrival: trial.arrival.name.to_string(),
            rate_per_m: trial.rate_per_m,
            cycles: outcome.cycles,
            stats,
            fault_stats: *system.fault_stats(),
            faults_delivered: scheduled - system.faults_remaining(),
            scheme_stats: system.scheme().stats(),
            producer_threads,
        }
    }

    /// Runs a serving trial on the sharded engine as `run_serve` does, but
    /// keeps the engine's shard report.
    ///
    /// # Errors
    ///
    /// Returns an error for a closed-loop job or an invalid fault
    /// configuration.
    pub fn run_serve_sharded(
        &self,
        m: &Machine,
        threads: usize,
    ) -> Result<(ServeReport, ShardReport), String> {
        let Built {
            scaled,
            mut system,
            serving,
            ..
        } = self.build(m)?;
        let Some(Serving {
            trial,
            plans,
            schedule,
            mut tracker,
        }) = serving
        else {
            return Err(format!("{} is not a serving trial", self.name));
        };
        let source = ServeSource::new(&scaled, &plans, &trial.serve, m.params.seed);
        let (outcome, shard) = run_system_sharded_tapped(
            &mut system,
            &source,
            m.params.accesses_per_core,
            &ShardParams::with_threads(threads),
            &mut tracker,
        );
        let scheduled = schedule.as_ref().map_or(0, FaultSchedule::len);
        let stats = tracker.finish(outcome.cycles);
        let report = self.serve_report(
            &trial,
            &system,
            outcome,
            stats,
            scheduled,
            shard.producer_threads,
        );
        Ok((report, shard))
    }
}

/// The stored digest of `job` on `workload` at [`DEFAULT_SEED`].
pub fn golden(workload: Workload, job: &str) -> Option<u64> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let mut fields = line.split_whitespace();
            let (w, j, hex) = (fields.next()?, fields.next()?, fields.next()?);
            if w == workload.name() && j == job {
                u64::from_str_radix(hex, 16).ok()
            } else {
                None
            }
        })
}

/// The digest every run of `job` must reproduce: the digest of the job on
/// the sharded engine, which the engines' bit-identity contract makes equal
/// to the serial one the workload times; at the default seed it must
/// also equal the stored one. Every seed runs the same cross-check, so
/// runs at held-out seeds do the same work as runs at the default seed.
///
/// # Errors
///
/// Returns the other engine's run error, or a digest that differs from the
/// stored one.
pub fn expected_digest(workload: Workload, job: &Job, m: &Machine) -> Result<u64, String> {
    let digest = job.run(m, SHARD_THREADS)?.digest();
    if m.params.seed == DEFAULT_SEED && golden(workload, &job.name) != Some(digest) {
        return Err(format!(
            "{}: digest {digest:016x} differs from the stored one",
            job.name
        ));
    }
    Ok(digest)
}

/// Digest of a closed-loop run: its full `Debug` rendering, hashed.
pub fn digest_result(r: &RunResult) -> u64 {
    digest_str(&format!("{r:?}"))
}

/// FxHash of a string.
pub fn digest_str(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}
