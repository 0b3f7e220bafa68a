//! Per-run observability state: the epoch time-series sampler, the
//! per-class demand-latency sketches, and the final report assembly.
//!
//! Lives outside `system.rs` so the delta bookkeeping stays off the
//! simulator's hot path: [`System`](crate::system::System) calls in here at
//! most once per epoch (plus one sketch update per demand miss), and
//! only when built with a real tracer.

use silcfm_dram::DramModel;
use silcfm_obs::sampler::{
    EpochSampler, COL_FM_BUS_UTIL, COL_HIT_RATE, COL_LAT_P50, COL_LAT_P95, COL_LAT_P99,
    COL_LAT_P999, COL_LOCKS, COL_NM_BUS_UTIL, COL_NM_DEMAND_FRAC, COL_READ_QUEUE, COL_SWAPS,
    COL_WRITE_QUEUE, RUN_SERIES,
};
use silcfm_obs::{LatencyBreakdown, ObsReport, QuantileSketch};
use silcfm_types::obs::Tracer;
use silcfm_types::{AccessClass, MemKind, MemoryScheme};

use crate::metrics::TrafficTally;

/// Guarded division for the fraction columns.
fn frac(num: f64, den: f64) -> f64 {
    if den <= 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Observability state carried by one traced [`System`](crate::system::System)
/// run: accumulates the per-epoch time series and the demand-latency
/// sketches, then folds everything (plus the drained event buffers) into
/// an [`ObsReport`].
#[derive(Debug)]
pub struct RunObs {
    sampler: EpochSampler,
    /// Whole-run per-class latency sketches (the percentile plane).
    latency: LatencyBreakdown,
    /// Within-epoch latency sketch behind the `obs.lat.*` series columns,
    /// cleared at every tick.
    epoch_latency: QuantileSketch,
    // Within-epoch demand counters, reset at every tick.
    epoch_accesses: u64,
    epoch_nm_hits: u64,
    // Cumulative baselines for the delta columns.
    last_swaps: u64,
    last_locks: u64,
    last_nm_demand: u64,
    last_fm_demand: u64,
    last_nm_busy: u64,
    last_fm_busy: u64,
    last_cycle: u64,
}

impl RunObs {
    /// Creates the run state with `epoch_cycles` between samples;
    /// `expected_cycles` only sizes the preallocation.
    pub fn new(epoch_cycles: u64, expected_cycles: u64) -> Self {
        Self {
            sampler: EpochSampler::new(RUN_SERIES, epoch_cycles, expected_cycles),
            latency: LatencyBreakdown::new(),
            epoch_latency: QuantileSketch::new(),
            epoch_accesses: 0,
            epoch_nm_hits: 0,
            last_swaps: 0,
            last_locks: 0,
            last_nm_demand: 0,
            last_fm_demand: 0,
            last_nm_busy: 0,
            last_fm_busy: 0,
            last_cycle: 0,
        }
    }

    /// Records one serviced demand miss: where it was serviced from (for
    /// the epoch NM-hit column), its service-path [`AccessClass`], and its
    /// critical-path latency in CPU cycles.
    pub fn on_demand(&mut self, from: MemKind, class: AccessClass, latency: u64) {
        self.epoch_accesses += 1;
        if from == MemKind::Near {
            self.epoch_nm_hits += 1;
        }
        self.latency.record(class, latency);
        self.epoch_latency.record(latency);
    }

    /// Whether the next epoch boundary has been crossed at `cycle`.
    pub fn due(&self, cycle: u64) -> bool {
        self.sampler.due(cycle)
    }

    /// Computes one time-series row from the deltas since the previous
    /// tick and advances every baseline to `cycle`.
    fn row<T: Tracer>(
        &mut self,
        cycle: u64,
        scheme: &dyn MemoryScheme,
        tally: &TrafficTally,
        nm: &DramModel<T>,
        fm: &DramModel<T>,
    ) -> [f64; 12] {
        let stats = scheme.stats();
        let elapsed = cycle.saturating_sub(self.last_cycle);
        let nm_demand = tally.nm_demand.saturating_sub(self.last_nm_demand);
        let fm_demand = tally.fm_demand.saturating_sub(self.last_fm_demand);
        let nm_busy = nm.stats().bus_busy_cycles.saturating_sub(self.last_nm_busy);
        let fm_busy = fm.stats().bus_busy_cycles.saturating_sub(self.last_fm_busy);
        // Bus occupancy: busy memory cycles × clock ratio, averaged over the
        // elapsed CPU cycles and the device's channel count.
        let nm_span = elapsed as f64 * f64::from(nm.config().channels)
            / nm.config().cpu_cycles_per_mem_cycle as f64;
        let fm_span = elapsed as f64 * f64::from(fm.config().channels)
            / fm.config().cpu_cycles_per_mem_cycle as f64;
        let (read_q, write_q) = {
            let (nr, nw) = nm.queue_depth_totals(cycle);
            let (fr, fw) = fm.queue_depth_totals(cycle);
            (nr + fr, nw + fw)
        };

        let mut row = [0.0f64; 12];
        row[COL_HIT_RATE] = frac(self.epoch_nm_hits as f64, self.epoch_accesses as f64);
        row[COL_NM_DEMAND_FRAC] = frac(nm_demand as f64, (nm_demand + fm_demand) as f64);
        row[COL_SWAPS] = stats.subblocks_moved.saturating_sub(self.last_swaps) as f64;
        row[COL_LOCKS] = stats.blocks_migrated.saturating_sub(self.last_locks) as f64;
        row[COL_NM_BUS_UTIL] = frac(nm_busy as f64, nm_span);
        row[COL_FM_BUS_UTIL] = frac(fm_busy as f64, fm_span);
        row[COL_READ_QUEUE] = read_q as f64;
        row[COL_WRITE_QUEUE] = write_q as f64;
        // Within-epoch demand-latency percentiles; u64 cycle counts convert
        // exactly for any realistic latency (< 2^53 cycles).
        let [p50, p95, p99, p999] = self.epoch_latency.percentiles();
        row[COL_LAT_P50] = p50 as f64;
        row[COL_LAT_P95] = p95 as f64;
        row[COL_LAT_P99] = p99 as f64;
        row[COL_LAT_P999] = p999 as f64;

        self.epoch_latency.clear();
        self.epoch_accesses = 0;
        self.epoch_nm_hits = 0;
        self.last_swaps = stats.subblocks_moved;
        self.last_locks = stats.blocks_migrated;
        self.last_nm_demand = tally.nm_demand;
        self.last_fm_demand = tally.fm_demand;
        self.last_nm_busy = nm.stats().bus_busy_cycles;
        self.last_fm_busy = fm.stats().bus_busy_cycles;
        self.last_cycle = cycle;
        row
    }

    /// Takes one epoch sample at `cycle`: per-channel queue-depth events
    /// into the DRAM tracers plus one row of the numeric time series.
    pub fn epoch_tick<T: Tracer>(
        &mut self,
        cycle: u64,
        scheme: &dyn MemoryScheme,
        tally: &TrafficTally,
        nm: &mut DramModel<T>,
        fm: &mut DramModel<T>,
    ) {
        nm.sample_queues(cycle);
        fm.sample_queues(cycle);
        let row = self.row(cycle, scheme, tally, nm, fm);
        self.sampler.record(&row);
    }

    /// Finalizes the run: a closing sample covering the tail of the run,
    /// the sampler sealed to exactly `ceil(total_cycles / epoch)` rows, and
    /// every tracer drained into the report.
    pub fn finish<T: Tracer>(
        mut self,
        total_cycles: u64,
        scheme: &mut dyn MemoryScheme,
        tally: &TrafficTally,
        nm: &mut DramModel<T>,
        fm: &mut DramModel<T>,
    ) -> ObsReport {
        let row = self.row(total_cycles, scheme, tally, nm, fm);
        self.sampler.seal(total_cycles, &row);
        let dropped = scheme.trace_dropped() + nm.trace_dropped() + fm.trace_dropped();
        ObsReport::assemble(
            [scheme.drain_trace(), nm.drain_trace(), fm.drain_trace()],
            dropped,
            self.latency,
            self.sampler,
            total_cycles,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silcfm_baselines::RandomStatic;
    use silcfm_dram::DramConfig;
    use silcfm_types::obs::NullTracer;
    use silcfm_types::AddressSpace;

    #[test]
    fn rows_carry_epoch_deltas_not_totals() {
        let mut obs = RunObs::new(1_000, 10_000);
        let space = AddressSpace::new(64 * 2048, 256 * 2048);
        let mut scheme = RandomStatic::new(space);
        let mut nm = DramModel::<NullTracer>::with_tracer(DramConfig::hbm2(), NullTracer);
        let mut fm = DramModel::<NullTracer>::with_tracer(DramConfig::ddr3(), NullTracer);
        let mut tally = TrafficTally::default();

        obs.on_demand(MemKind::Near, AccessClass::NmHit, 100);
        obs.on_demand(MemKind::Far, AccessClass::SwapPath, 400);
        tally.nm_demand = 64;
        tally.fm_demand = 192;
        assert!(obs.due(1_000));
        obs.epoch_tick(1_000, &scheme, &tally, &mut nm, &mut fm);
        // Second epoch: no new demand traffic — the fraction resets.
        obs.on_demand(MemKind::Near, AccessClass::NmHit, 90);
        obs.epoch_tick(2_000, &scheme, &tally, &mut nm, &mut fm);

        let report = obs.finish(2_500, &mut scheme, &tally, &mut nm, &mut fm);
        assert_eq!(report.series.rows(), 3); // ceil(2500/1000)
        assert!((report.series.row(0)[COL_HIT_RATE] - 0.5).abs() < 1e-12);
        assert!((report.series.row(0)[COL_NM_DEMAND_FRAC] - 0.25).abs() < 1e-12);
        assert!((report.series.row(1)[COL_HIT_RATE] - 1.0).abs() < 1e-12);
        assert_eq!(report.series.row(1)[COL_NM_DEMAND_FRAC], 0.0);
        assert_eq!(report.total_cycles, 2_500);

        // The percentile plane: per-class attribution plus within-epoch
        // percentile columns. The epoch sketch resets at each tick, so the
        // first row sees {100, 400} and the second only {90}.
        assert_eq!(report.latency.count(), 3);
        assert_eq!(report.latency.sketch(AccessClass::NmHit).count(), 2);
        assert_eq!(report.latency.sketch(AccessClass::SwapPath).count(), 1);
        assert_eq!(report.latency.sketch(AccessClass::Bypass).count(), 0);
        let p50 = report.series.row(0)[COL_LAT_P50];
        assert!((100.0..=104.0).contains(&p50), "p50 {p50} outside bound");
        assert_eq!(report.series.row(0)[COL_LAT_P999], 400.0); // clamped to max
        assert_eq!(report.series.row(1)[COL_LAT_P50], 90.0); // clamped to max
        assert_eq!(
            report.latency.overall().p999(),
            report.latency.overall().max()
        );
    }
}
