//! Experiment plumbing: scheme factory, run parameters, and [`run_spec`],
//! the one entry point every simulation goes through.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use silcfm_baselines::{Cameo, CameoParams, Hma, HmaParams, Pom, PomParams, RandomStatic};
use silcfm_core::{SilcFm, SilcFmParams};
use silcfm_dram::DramConfig;
use silcfm_fault::{FaultDriver, FaultRates, FaultSchedule, FaultStats, FaultTopology};
use silcfm_obs::{MetricsOnlyTracer, ObsReport, SamplingTracer};
use silcfm_trace::{profiles, PlacementPolicy, WorkloadProfile};
use silcfm_types::obs::{NullTracer, Tracer, EVENT_KINDS};
use silcfm_types::{AddressSpace, Geometry, MemoryScheme, SilcFmError, SystemConfig};

use crate::metrics::RunResult;
use crate::observe::RunObs;
use crate::shard::{run_system_sharded, ShardParams, ShardReport};
use crate::system::{System, SystemOutcome};

/// Which placement scheme to simulate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchemeKind {
    /// The paper's baseline system without die-stacked DRAM: everything in
    /// FM, no migration. All speedups are normalized to this.
    NoNm,
    /// Random static placement over NM+FM (`rand`).
    Rand,
    /// Epoch-based OS management (`hma`).
    Hma,
    /// CAMEO (`cam`).
    Cameo,
    /// CAMEO with next-3-line prefetching (`camp`).
    CameoPrefetch,
    /// Part of Memory (`pom`).
    Pom,
    /// SILC-FM with the given feature configuration (`silcfm`).
    SilcFm(SilcFmParams),
}

impl SchemeKind {
    /// Full SILC-FM with the paper's parameters.
    pub fn silcfm() -> Self {
        Self::SilcFm(SilcFmParams::paper())
    }

    /// Label used in figures ("base", "rand", "hma", "cam", "camp", "pom",
    /// "silcfm").
    pub fn label(&self) -> &'static str {
        match self {
            Self::NoNm => "base",
            Self::Rand => "rand",
            Self::Hma => "hma",
            Self::Cameo => "cam",
            Self::CameoPrefetch => "camp",
            Self::Pom => "pom",
            Self::SilcFm(_) => "silcfm",
        }
    }

    /// The static page placement this scheme starts from.
    pub fn placement(&self, seed: u64) -> PlacementPolicy {
        match self {
            Self::NoNm => PlacementPolicy::FarOnly,
            _ => PlacementPolicy::RandomSeeded(seed),
        }
    }

    /// Instantiates the scheme over `space` for a run of `total_accesses`
    /// memory accesses.
    ///
    /// The paper's time constants (HMA's epoch, SILC-FM's 1 M-access aging
    /// period, PoM's counter decay) are proportions of a 16-billion-
    /// instruction run; here they are scaled to the same *proportion* of the
    /// simulated run so reduced runs exercise the same number of epochs and
    /// agings as the full-length ones.
    pub fn build(&self, space: AddressSpace, total_accesses: u64) -> Box<dyn MemoryScheme> {
        self.build_with(space, total_accesses, NullTracer)
    }

    /// Like [`SchemeKind::build`], but a SILC-FM controller records its
    /// observability events into `tracer`. Baseline schemes have no
    /// controller-side emit points and ignore it (their trace hooks are the
    /// [`MemoryScheme`] defaults).
    pub fn build_with<T: Tracer + 'static>(
        &self,
        space: AddressSpace,
        total_accesses: u64,
        tracer: T,
    ) -> Box<dyn MemoryScheme> {
        let period = (total_accesses / 16).max(1_000);
        match self {
            Self::NoNm | Self::Rand => Box::new(RandomStatic::new(space)),
            Self::Hma => {
                // Software overheads and the hotness threshold are fixed
                // *fractions* of an epoch in the paper's setup; scale them
                // with the shortened epochs so HMA keeps its real-system
                // cost/benefit proportions.
                // Paper-scale epochs span ~1.5e8 accesses (hundreds of ms
                // at 16 cores); software stall costs shrink by the same
                // factor as the epochs so the ~1 % overhead proportion is
                // preserved.
                let scale = period as f64 / 150_000_000.0;
                Box::new(Hma::new(
                    space,
                    HmaParams {
                        epoch_accesses: period,
                        // The threshold adapts dynamically from this start.
                        hot_threshold: 64,
                        stall_per_migration: ((5_000.0 * scale) as u64).max(1),
                        stall_per_epoch: ((200_000.0 * scale) as u64).max(1),
                    },
                ))
            }
            Self::Cameo => Box::new(Cameo::new(space, CameoParams::default())),
            Self::CameoPrefetch => Box::new(Cameo::new(space, CameoParams::with_prefetch())),
            Self::Pom => Box::new(Pom::new(
                space,
                PomParams {
                    decay_period: period,
                    ..PomParams::default()
                },
            )),
            Self::SilcFm(params) => Box::new(SilcFm::with_tracer(
                space,
                Geometry::paper(),
                Self::scale_silcfm(params, total_accesses),
                tracer,
            )),
        }
    }

    /// The paper's published constants assume full-length runs; scale them
    /// to `total_accesses` unless the caller overrode the defaults.
    fn scale_silcfm(params: &SilcFmParams, total_accesses: u64) -> SilcFmParams {
        let period = (total_accesses / 16).max(1_000);
        let mut p = *params;
        if p.aging_period == SilcFmParams::paper().aging_period {
            p.aging_period = period;
        }
        if p.bypass_window == SilcFmParams::paper().bypass_window {
            p.bypass_window = (total_accesses / 64).max(500);
        }
        if p.lock_threshold == SilcFmParams::paper().lock_threshold {
            // Threshold 50 is calibrated against 1 M-access aging
            // periods; keep the same touches-per-period proportion.
            // The floor keeps locking selective: a lock fetches a
            // whole 2 KB block, which only pays off for blocks with
            // sustained reuse.
            p.lock_threshold = ((50.0 * p.aging_period as f64 / 1_000_000.0) as u8).clamp(16, 50);
        }
        p
    }

    /// The six schemes of Fig. 7, in the paper's order.
    pub fn fig7_lineup() -> Vec<SchemeKind> {
        vec![
            Self::Rand,
            Self::Hma,
            Self::Cameo,
            Self::CameoPrefetch,
            Self::Pom,
            Self::silcfm(),
        ]
    }
}

/// Size and reproducibility knobs for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunParams {
    /// Memory accesses issued per core.
    pub accesses_per_core: u64,
    /// Workload/placement RNG seed.
    pub seed: u64,
    /// Footprint scale applied to the Table III profiles.
    pub footprint_scale: f64,
    /// FM:NM capacity ratio (4 in the main experiments; Fig. 9 sweeps it).
    pub fm_to_nm_ratio: u64,
}

impl RunParams {
    /// Full-size experiment runs (minutes across the whole Fig. 7 grid).
    /// The access count is sized so each hot page is touched hundreds of
    /// times, amortizing migrations the way the paper's billion-instruction
    /// runs do.
    pub const fn full() -> Self {
        Self {
            accesses_per_core: 600_000,
            seed: 2017,
            footprint_scale: 1.0,
            fm_to_nm_ratio: 4,
        }
    }

    /// Reduced runs for `--quick` experiment invocations (tens of seconds).
    /// The footprint scale keeps hot sets comfortably larger than the LLC.
    pub const fn quick() -> Self {
        Self {
            accesses_per_core: 150_000,
            seed: 2017,
            footprint_scale: 0.5,
            fm_to_nm_ratio: 4,
        }
    }

    /// Tiny runs for unit tests and doctests. The scale is chosen so hot
    /// working sets still exceed [`SystemConfig::small`]'s 1 MiB LLC —
    /// below that, the memory system sees only cold misses and no placement
    /// scheme can help.
    pub const fn smoke() -> Self {
        Self {
            accesses_per_core: 30_000,
            seed: 2017,
            footprint_scale: 0.2,
            fm_to_nm_ratio: 4,
        }
    }

    /// Returns a copy with a different FM:NM ratio (Fig. 9).
    pub const fn with_ratio(mut self, ratio: u64) -> Self {
        self.fm_to_nm_ratio = ratio;
        self
    }
}

impl Default for RunParams {
    fn default() -> Self {
        Self::full()
    }
}

/// Sizes the flat address space for a workload: FM holds the whole combined
/// footprint (so the no-NM baseline fits), NM adds `1/ratio` on top, and
/// block counts stay divisible by 64 for set/associativity alignment.
pub fn space_for(
    profile: &WorkloadProfile,
    cfg: &SystemConfig,
    params: &RunParams,
) -> AddressSpace {
    let total_pages = profile.footprint_pages * u64::from(cfg.core.cores);
    let align = params.fm_to_nm_ratio * 64;
    let fm_blocks = total_pages.div_ceil(align) * align;
    let nm_blocks = fm_blocks / params.fm_to_nm_ratio;
    AddressSpace::new(nm_blocks * 2048, fm_blocks * 2048)
}

/// Fault-injection knobs for [`RunSpec::faults`]: an independent seed (so the
/// fault plane never perturbs workload or placement randomness), a schedule
/// horizon in CPU cycles, and the per-class rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultParams {
    /// Seed of the fault plane, decorrelated from [`RunParams::seed`].
    pub fault_seed: u64,
    /// CPU-cycle horizon the schedule covers; faults past the run's actual
    /// length are simply never delivered.
    pub horizon_cycles: u64,
    /// Per-class injection rates.
    pub rates: FaultRates,
}

impl FaultParams {
    /// The fault topology `scheme` exposes over `space`: the controller's
    /// way count, NM frame and subblock geometry, and the Table II channel
    /// counts.
    pub fn topology_for(scheme: &SchemeKind, space: AddressSpace) -> FaultTopology {
        let ways = match scheme {
            SchemeKind::SilcFm(p) => p.associativity,
            _ => 1,
        };
        FaultTopology {
            nm_ways: ways.min(u32::from(u8::MAX)) as u8,
            nm_frames: (space.nm_bytes() / 2048).min(u64::from(u32::MAX)) as u32,
            subblocks: 32,
            nm_channels: DramConfig::hbm2().channels.min(u32::from(u8::MAX)) as u8,
            fm_channels: DramConfig::ddr3().channels.min(u32::from(u8::MAX)) as u8,
        }
    }

    /// Generates this configuration's schedule for `scheme` over `space`
    /// and wraps it in a delivery cursor.
    ///
    /// # Errors
    ///
    /// Returns [`SilcFmError::FaultConfig`] when the rates or derived
    /// topology are invalid.
    pub fn driver_for(
        &self,
        scheme: &SchemeKind,
        space: AddressSpace,
    ) -> Result<FaultDriver, SilcFmError> {
        let topo = Self::topology_for(scheme, space);
        let schedule =
            FaultSchedule::generate(self.fault_seed, self.horizon_cycles, &self.rates, &topo)?;
        Ok(FaultDriver::new(schedule))
    }
}

/// Observability sizing for the traced [`Tier`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceParams {
    /// Ring-buffer capacity (events) of each tracer: one for the
    /// controller and one per DRAM device. Oldest events are overwritten
    /// once full; the report counts the drops.
    pub events_capacity: usize,
    /// CPU cycles between time-series samples (and queue-depth events).
    pub epoch_cycles: u64,
}

impl TraceParams {
    /// Defaults sized for a full workload capture: 1 Mi events per tracer,
    /// a sample every 100 k cycles.
    pub const fn default_capture() -> Self {
        Self {
            events_capacity: 1 << 20,
            epoch_cycles: 100_000,
        }
    }
}

impl Default for TraceParams {
    fn default() -> Self {
        Self::default_capture()
    }
}

/// Folds one finished system + outcome into the figure-level metrics.
fn collect<T: Tracer>(
    profile: &WorkloadProfile,
    scheme: SchemeKind,
    system: &System<T>,
    outcome: SystemOutcome,
) -> RunResult {
    let scheme_stats = system.scheme().stats();
    let mpki = if outcome.instructions == 0 {
        0.0
    } else {
        // Per-core MPKI: total misses and total instructions scale together.
        outcome.llc_misses as f64 * 1000.0 / outcome.instructions as f64
    };

    RunResult {
        scheme: scheme.label().to_string(),
        workload: profile.name.to_string(),
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

/// Which tracers a run carries and whether it assembles an [`ObsReport`].
/// Each tier fixes the controller tracer, the DRAM tracers and the
/// [`RunObs`] apparatus together. Observation never steers the simulation:
/// every tier returns a [`RunResult`] bit-identical to [`Tier::Off`]'s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tier {
    /// No tracers and no report: the untraced machine.
    #[default]
    Off,
    /// The metrics plane only: the per-class latency quantile sketches,
    /// the demand-latency histograms and the epoch sampler populate, but no
    /// event is buffered — the DRAM devices carry [`MetricsOnlyTracer`]s
    /// whose `record` inlines to nothing and the controller runs its
    /// untraced build. Its latency plane is byte-identical to
    /// [`Tier::Sampled`]'s; its report's event stream is empty.
    MetricsOnly,
    /// The sampling tracer on the controller and both DRAM devices, plus
    /// the metrics plane: every event is counted ([`RunOutput::counters`])
    /// and full events are kept one-in-`period` in rings of
    /// [`TraceParams::events_capacity`]. `period: 1` keeps every event —
    /// full tracing.
    Sampled {
        /// Retention period; must be a power of two.
        period: u64,
    },
}

/// Which engine executes a run. Both produce bit-identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The run loop on the calling thread, generators inline.
    #[default]
    Serial,
    /// Workload generation on producer threads, the shared-state commit
    /// loop on the calling thread, lane deltas merged at epoch barriers
    /// (DESIGN.md §11).
    Sharded(ShardParams),
}

/// Everything about *how* to run a simulation, apart from what to simulate:
/// the tracer tier, its sizing, an optional fault schedule, and the engine.
/// `RunSpec::default()` is the plain run: untraced, fault-free, serial.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunSpec {
    /// Tracers and observability report.
    pub tier: Tier,
    /// Ring capacity and epoch spacing; ignored by [`Tier::Off`].
    pub trace: TraceParams,
    /// Deterministic fault schedule to arm, if any.
    pub faults: Option<FaultParams>,
    /// Serial or sharded execution.
    pub engine: Engine,
}

/// What [`run_spec`] measured.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The figure-level metrics, bit-identical across tiers and engines.
    pub result: RunResult,
    /// The observability report; `Some` exactly for [`Tier::MetricsOnly`]
    /// and [`Tier::Sampled`].
    pub obs: Option<ObsReport>,
    /// The controller's exact per-kind event totals (indexed by
    /// [`Event::kind_index`](silcfm_types::obs::Event::kind_index)); zero
    /// except on [`Tier::Sampled`].
    pub counters: [u64; EVENT_KINDS],
    /// The fault-effect ledger; all zero when no faults were armed.
    pub faults: FaultStats,
    /// The sharded engine's merge report; `Some` exactly for
    /// [`Engine::Sharded`].
    pub shard: Option<ShardReport>,
}

/// Simulates `scheme` on `profile` (rate mode: one copy per core) the way
/// `spec` says, and returns the measured metrics plus whatever the tier,
/// fault plane and engine report.
///
/// # Errors
///
/// Returns [`SilcFmError::FaultConfig`] when `spec.faults` is invalid.
///
/// # Panics
///
/// Panics if [`Tier::Sampled`]'s `period` is not a power of two.
pub fn run_spec(
    profile: &WorkloadProfile,
    scheme: SchemeKind,
    cfg: &SystemConfig,
    params: &RunParams,
    spec: &RunSpec,
) -> Result<RunOutput, SilcFmError> {
    let scaled = profiles::scaled(profile, params.footprint_scale);
    let space = space_for(&scaled, cfg, params);
    let total = params.accesses_per_core * u64::from(cfg.core.cores);
    let prologue = Prologue {
        profile,
        scaled,
        scheme,
        cfg,
        params,
        space,
        faults: spec
            .faults
            .map(|f| f.driver_for(&scheme, space))
            .transpose()?,
        engine: spec.engine,
    };
    let capacity = spec.trace.events_capacity;
    // The expected length is a preallocation hint only; the sampler grows
    // if the run overshoots.
    let obs = || {
        Some(RunObs::new(
            spec.trace.epoch_cycles,
            params.accesses_per_core.saturating_mul(64),
        ))
    };
    let sampling = |period| SamplingTracer::with_capacity(capacity, period);
    Ok(match spec.tier {
        Tier::Off => prologue.drive(scheme.build(space, total), NullTracer, NullTracer, None),
        Tier::MetricsOnly => prologue.drive(
            scheme.build(space, total),
            MetricsOnlyTracer,
            MetricsOnlyTracer,
            obs(),
        ),
        Tier::Sampled { period } => prologue.drive(
            scheme.build_with(space, total, sampling(period)),
            sampling(period),
            sampling(period),
            obs(),
        ),
    })
}

/// The tier-independent part of a run, prepared once by [`run_spec`].
struct Prologue<'a> {
    profile: &'a WorkloadProfile,
    scaled: WorkloadProfile,
    scheme: SchemeKind,
    cfg: &'a SystemConfig,
    params: &'a RunParams,
    space: AddressSpace,
    faults: Option<FaultDriver>,
    engine: Engine,
}

impl Prologue<'_> {
    /// Builds the machine around the tier's scheme instance and DRAM
    /// tracers, runs it on the chosen engine, and collects every output.
    fn drive<T: Tracer>(
        self,
        instance: Box<dyn MemoryScheme>,
        nm_tracer: T,
        fm_tracer: T,
        obs: Option<RunObs>,
    ) -> RunOutput {
        let mut system = System::with_observability(
            *self.cfg,
            self.space,
            self.scheme.placement(self.params.seed),
            instance,
            nm_tracer,
            fm_tracer,
            obs,
        );
        if let Some(driver) = self.faults {
            system.set_fault_driver(driver);
        }
        let (apc, seed) = (self.params.accesses_per_core, self.params.seed);
        let (outcome, shard) = match self.engine {
            Engine::Serial => (system.run(&self.scaled, apc, seed), None),
            Engine::Sharded(shard) => {
                let (outcome, report) =
                    run_system_sharded(&mut system, &self.scaled, apc, seed, &shard);
                (outcome, Some(report))
            }
        };
        let result = collect(self.profile, self.scheme, &system, outcome);
        let counters = system.scheme().trace_counters();
        let faults = *system.fault_stats();
        let obs = system.finish_observation(outcome.cycles);
        RunOutput {
            result,
            obs,
            counters,
            faults,
            shard,
        }
    }
}

/// Simulates `scheme` on `profile` untraced, fault-free and serially:
/// [`run_spec`] with the default [`RunSpec`].
#[allow(
    clippy::expect_used,
    reason = "the default spec arms no faults, the only fallible input"
)]
pub fn run(
    profile: &WorkloadProfile,
    scheme: SchemeKind,
    cfg: &SystemConfig,
    params: &RunParams,
) -> RunResult {
    run_spec(profile, scheme, cfg, params, &RunSpec::default())
        .expect("a fault-free run cannot fail")
        .result
}

/// [`run`] on the sharded engine ([`Engine::Sharded`]): the [`RunResult`]
/// is bit-identical to [`run`]'s at any [`ShardParams::threads`].
pub fn run_sharded(
    profile: &WorkloadProfile,
    scheme: SchemeKind,
    cfg: &SystemConfig,
    params: &RunParams,
    shard: &ShardParams,
) -> (RunResult, ShardReport) {
    let spec = RunSpec {
        engine: Engine::Sharded(*shard),
        ..RunSpec::default()
    };
    #[allow(
        clippy::expect_used,
        reason = "the spec arms no faults, the only fallible input"
    )]
    let out = run_spec(profile, scheme, cfg, params, &spec).expect("a fault-free run cannot fail");
    #[allow(
        clippy::expect_used,
        reason = "the sharded engine always reports its merge"
    )]
    let report = out.shard.expect("a sharded run reports its merge");
    (out.result, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> &'static WorkloadProfile {
        profiles::by_name("milc").unwrap()
    }

    fn faulted(faults: FaultParams) -> RunSpec {
        RunSpec {
            faults: Some(faults),
            ..RunSpec::default()
        }
    }

    /// SILC-FM on the smoke run under `tier`.
    fn run_tier(tier: Tier, trace: TraceParams) -> RunOutput {
        let spec = RunSpec {
            tier,
            trace,
            ..RunSpec::default()
        };
        let (cfg, params) = (SystemConfig::small(), RunParams::smoke());
        run_spec(profile(), SchemeKind::silcfm(), &cfg, &params, &spec).unwrap()
    }

    #[test]
    fn space_sizing_is_aligned_and_sufficient() {
        let cfg = SystemConfig::small();
        let params = RunParams::smoke();
        let scaled = profiles::scaled(profile(), params.footprint_scale);
        let space = space_for(&scaled, &cfg, &params);
        // FM alone holds the whole footprint.
        assert!(space.fm_bytes() >= scaled.footprint_pages * 2048 * 4);
        // Integral ratio for congruence groups.
        assert_eq!(space.fm_bytes() % space.nm_bytes(), 0);
        // NM block count divisible by 4-way sets.
        assert_eq!((space.nm_bytes() / 2048) % 64, 0);
    }

    #[test]
    fn all_schemes_run_to_completion() {
        let cfg = SystemConfig::small();
        let params = RunParams::smoke();
        for kind in SchemeKind::fig7_lineup()
            .into_iter()
            .chain([SchemeKind::NoNm])
        {
            let r = run(profile(), kind, &cfg, &params);
            assert!(r.cycles > 0, "{} produced no cycles", r.scheme);
            assert_eq!(r.workload, "milc");
            assert!(r.instructions > 0);
        }
    }

    #[test]
    fn no_nm_baseline_has_zero_access_rate() {
        let cfg = SystemConfig::small();
        let r = run(profile(), SchemeKind::NoNm, &cfg, &RunParams::smoke());
        assert_eq!(r.access_rate, 0.0);
        assert_eq!(r.traffic.nm_demand, 0);
    }

    #[test]
    fn silcfm_beats_the_no_nm_baseline() {
        let cfg = SystemConfig::small();
        let params = RunParams::smoke();
        let base = run(profile(), SchemeKind::NoNm, &cfg, &params);
        let silc = run(profile(), SchemeKind::silcfm(), &cfg, &params);
        assert!(
            silc.speedup_over(&base) > 1.0,
            "SILC-FM must beat no-NM: {:.3}",
            silc.speedup_over(&base)
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SchemeKind::NoNm.label(), "base");
        assert_eq!(SchemeKind::silcfm().label(), "silcfm");
        let labels: Vec<_> = SchemeKind::fig7_lineup()
            .iter()
            .map(|k| k.label())
            .collect();
        assert_eq!(labels, vec!["rand", "hma", "cam", "camp", "pom", "silcfm"]);
    }

    #[test]
    fn faulted_run_with_empty_schedule_matches_the_plain_run() {
        let cfg = SystemConfig::small();
        let params = RunParams::smoke();
        let faults = FaultParams {
            fault_seed: 1,
            horizon_cycles: 1_000_000,
            rates: FaultRates::none(),
        };
        let plain = run(profile(), SchemeKind::silcfm(), &cfg, &params);
        let out = run_spec(
            profile(),
            SchemeKind::silcfm(),
            &cfg,
            &params,
            &faulted(faults),
        )
        .unwrap();
        let (faulted, stats) = (out.result, out.faults);
        assert_eq!(stats.injected, 0);
        assert_eq!(plain.cycles, faulted.cycles);
        assert_eq!(plain.traffic, faulted.traffic);
        assert_eq!(plain.scheme_stats, faulted.scheme_stats);
    }

    #[test]
    fn faulted_runs_conserve_and_are_deterministic() {
        let cfg = SystemConfig::small();
        let params = RunParams::smoke();
        let faults = FaultParams {
            fault_seed: 7,
            horizon_cycles: 4_000_000,
            rates: FaultRates::harsh(),
        };
        let spec = faulted(faults);
        let a = run_spec(profile(), SchemeKind::silcfm(), &cfg, &params, &spec).unwrap();
        let b = run_spec(profile(), SchemeKind::silcfm(), &cfg, &params, &spec).unwrap();
        let (a, sa, b, sb) = (a.result, a.faults, b.result, b.faults);
        assert!(sa.injected > 0, "harsh rates must inject something");
        assert!(sa.conserved());
        assert_eq!(sa, sb);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.scheme_stats, b.scheme_stats);
    }

    #[test]
    fn baselines_mask_scheme_faults_but_feel_channel_faults() {
        let cfg = SystemConfig::small();
        let params = RunParams::smoke();
        let faults = FaultParams {
            fault_seed: 3,
            horizon_cycles: 4_000_000,
            rates: FaultRates::harsh(),
        };
        let out = run_spec(profile(), SchemeKind::Hma, &cfg, &params, &faulted(faults)).unwrap();
        let (r, stats) = (out.result, out.faults);
        assert!(r.cycles > 0);
        assert!(stats.conserved());
        // The default `apply_fault` masks every scheme-side fault; nothing
        // may be lost by a scheme that holds no interleaved state.
        assert_eq!(stats.poisoned, 0);
    }

    #[test]
    fn sampled_runs_match_plain_runs_and_count_every_event() {
        use silcfm_obs::Unit;

        let cfg = SystemConfig::small();
        let params = RunParams::smoke();
        // Capacity large enough that neither run drops, so the fully-traced
        // stream is the exact reference for the counter totals.
        let trace = TraceParams {
            events_capacity: 1 << 20,
            epoch_cycles: 100_000,
        };
        let plain = run(profile(), SchemeKind::silcfm(), &cfg, &params);
        let full = run_tier(Tier::Sampled { period: 1 }, trace);
        let (full_report, full_counters) = (full.obs.unwrap(), full.counters);
        let out = run_tier(Tier::Sampled { period: 64 }, trace);
        let (sampled, report, counters) = (out.result, out.obs.unwrap(), out.counters);
        // Observability must never perturb the simulation.
        assert_eq!(plain.cycles, sampled.cycles);
        assert_eq!(plain.traffic, sampled.traffic);
        assert_eq!(plain.scheme_stats, sampled.scheme_stats);
        // The counter tier is exact: at period 1 nothing was dropped, so the
        // per-kind tally of the retained controller events is the reference,
        // and the 1-in-64 run counts the same totals.
        assert_eq!(full_report.dropped, 0);
        let mut tally = [0u64; EVENT_KINDS];
        for e in full_report
            .events
            .iter()
            .filter(|e| e.unit == Unit::Controller)
        {
            tally[e.event.kind_index()] += 1;
        }
        let full_controller = full_report.events_from(Unit::Controller) as u64;
        assert!(full_controller > 0);
        assert_eq!(full_counters, tally);
        assert_eq!(counters, tally);
        // The sampled stream really is ~64x sparser.
        let sampled_controller = report.events_from(Unit::Controller) as u64;
        assert_eq!(sampled_controller, full_controller.div_ceil(64));
    }

    #[test]
    fn metrics_only_tier_matches_plain_and_traced_runs() {
        let cfg = SystemConfig::small();
        let params = RunParams::smoke();
        let trace = TraceParams {
            events_capacity: 1 << 14,
            epoch_cycles: 100_000,
        };
        let plain = run(profile(), SchemeKind::silcfm(), &cfg, &params);
        let full = run_tier(Tier::Sampled { period: 1 }, trace);
        let (traced, traced_report) = (full.result, full.obs.unwrap());
        let out = run_tier(Tier::MetricsOnly, trace);
        let (metrics, metrics_report) = (out.result, out.obs.unwrap());
        // The tier is behavior-neutral against both neighbors.
        assert_eq!(plain.cycles, metrics.cycles);
        assert_eq!(plain.traffic, metrics.traffic);
        assert_eq!(plain.scheme_stats, metrics.scheme_stats);
        assert_eq!(traced.cycles, metrics.cycles);
        // The latency-percentile plane is byte-identical to the fully
        // traced tier's: retention policy never changes what the sketches fold.
        let mut traced_bytes = String::new();
        traced_report.latency.encode(&mut traced_bytes);
        let mut metrics_bytes = String::new();
        metrics_report.latency.encode(&mut metrics_bytes);
        assert_eq!(traced_bytes, metrics_bytes);
        assert!(metrics_report.latency.count() > 0);
        // But no events were buffered anywhere.
        assert_eq!(metrics_report.event_count(), 0);
        assert_eq!(metrics_report.dropped, 0);
    }

    #[test]
    fn runs_are_reproducible() {
        let cfg = SystemConfig::small();
        let params = RunParams::smoke();
        let a = run(profile(), SchemeKind::silcfm(), &cfg, &params);
        let b = run(profile(), SchemeKind::silcfm(), &cfg, &params);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.traffic, b.traffic);
    }
}
