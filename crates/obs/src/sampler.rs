//! The per-epoch time-series sampler.
//!
//! A run is divided into fixed-length epochs of simulation cycles; at each
//! epoch boundary the driving loop records one row of metric values. The
//! columns are a `&'static` list of names fixed up front: [`RUN_SERIES`]
//! for every simulated run and [`SLO_SERIES`] for the serving plane. Both
//! live in the `obs.` namespace, which scheme detail keys
//! ([`silcfm_types::STAT_KEYS`]) stay out of; `tests/properties.rs` checks
//! the split.

/// Column index of the epoch NM-service rate in [`RUN_SERIES`].
pub const COL_HIT_RATE: usize = 0;
/// Column index of the epoch NM demand-byte fraction in [`RUN_SERIES`].
pub const COL_NM_DEMAND_FRAC: usize = 1;
/// Column index of the epoch subblock-swap count in [`RUN_SERIES`].
pub const COL_SWAPS: usize = 2;
/// Column index of the epoch lock count in [`RUN_SERIES`].
pub const COL_LOCKS: usize = 3;
/// Column index of the epoch NM bus utilization in [`RUN_SERIES`].
pub const COL_NM_BUS_UTIL: usize = 4;
/// Column index of the epoch FM bus utilization in [`RUN_SERIES`].
pub const COL_FM_BUS_UTIL: usize = 5;
/// Column index of the sampled read-queue depth in [`RUN_SERIES`].
pub const COL_READ_QUEUE: usize = 6;
/// Column index of the sampled write-queue depth in [`RUN_SERIES`].
pub const COL_WRITE_QUEUE: usize = 7;
/// Column index of the epoch demand-latency p50 in [`RUN_SERIES`].
pub const COL_LAT_P50: usize = 8;
/// Column index of the epoch demand-latency p95 in [`RUN_SERIES`].
pub const COL_LAT_P95: usize = 9;
/// Column index of the epoch demand-latency p99 in [`RUN_SERIES`].
pub const COL_LAT_P99: usize = 10;
/// Column index of the epoch demand-latency p99.9 in [`RUN_SERIES`].
pub const COL_LAT_P999: usize = 11;

/// The standard per-run column set sampled by the simulator: NM service
/// rate and demand fraction, swap/lock activity, per-device bus
/// utilization, aggregate queue depths, and within-epoch demand-latency
/// percentiles from the quantile sketch, in `COL_*` order.
pub const RUN_SERIES: &[&str] = &[
    "obs.hit_rate",
    "obs.nm_demand_frac",
    "obs.swaps",
    "obs.locks",
    "obs.nm_bus_util",
    "obs.fm_bus_util",
    "obs.read_queue",
    "obs.write_queue",
    "obs.lat.p50",
    "obs.lat.p95",
    "obs.lat.p99",
    "obs.lat.p999",
];

/// Column index of the per-epoch offered-request count in [`SLO_SERIES`].
pub const SLO_COL_OFFERED: usize = 0;
/// Column index of the per-epoch completed-request count in [`SLO_SERIES`].
pub const SLO_COL_COMPLETED: usize = 1;
/// Column index of the per-epoch shed-request count in [`SLO_SERIES`].
pub const SLO_COL_SHED: usize = 2;
/// Column index of the per-epoch timed-out-request count in [`SLO_SERIES`].
pub const SLO_COL_TIMED_OUT: usize = 3;
/// Column index of the per-epoch failed-request count in [`SLO_SERIES`].
pub const SLO_COL_FAILED: usize = 4;
/// Column index of the per-epoch issued-retry count in [`SLO_SERIES`].
pub const SLO_COL_RETRIES: usize = 5;
/// Column index of the per-epoch request-latency p99 in [`SLO_SERIES`].
pub const SLO_COL_P99: usize = 6;
/// Column index of the epoch SLO-compliance flag (1.0 / 0.0) in
/// [`SLO_SERIES`].
pub const SLO_COL_COMPLIANT: usize = 7;

/// The request-serving plane's per-epoch column set: the conservation
/// ledger's four request dispositions plus offered load, issued retries,
/// the epoch's request-latency p99 and whether the epoch met the SLO, in
/// `SLO_COL_*` order.
pub const SLO_SERIES: &[&str] = &[
    "obs.slo.offered",
    "obs.slo.completed",
    "obs.slo.shed",
    "obs.slo.timed_out",
    "obs.slo.failed",
    "obs.slo.retries",
    "obs.slo.p99",
    "obs.slo.compliant",
];

/// Collects one row of `f64` metric values per epoch of simulation cycles.
///
/// The contract, pinned by property tests: after [`seal`](Self::seal) with
/// the run's total cycle count `T`, the sampler holds exactly
/// `⌈T / epoch⌉` rows — one per started epoch, including a final partial
/// epoch. Storage is preallocated row-major; recording never reallocates
/// when the expected cycle count given at construction was an upper bound.
#[derive(Debug, Clone)]
pub struct EpochSampler {
    names: &'static [&'static str],
    epoch: u64,
    /// End (exclusive) of the epoch the next recorded row describes.
    boundary: u64,
    data: Vec<f64>,
}

impl EpochSampler {
    /// Creates a sampler over the columns `names` with `epoch`-cycle
    /// granularity (must be > 0), preallocating for `expected_cycles` of
    /// simulated time.
    pub fn new(names: &'static [&'static str], epoch: u64, expected_cycles: u64) -> Self {
        assert!(epoch > 0, "epoch length must be positive");
        let rows = (expected_cycles / epoch + 2) as usize;
        Self {
            names,
            epoch,
            boundary: epoch,
            data: Vec::with_capacity(rows.saturating_mul(names.len())),
        }
    }

    /// The epoch length in simulation cycles.
    pub const fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The declared column names.
    pub fn names(&self) -> &'static [&'static str] {
        self.names
    }

    /// Whether the epoch containing `cycle` lies beyond the last recorded
    /// row, i.e. the driving loop owes the sampler a row.
    pub fn due(&self, cycle: u64) -> bool {
        cycle >= self.boundary
    }

    /// Records one row of values (one per declared column) for the current
    /// epoch and advances to the next.
    pub fn record(&mut self, row: &[f64]) {
        debug_assert_eq!(row.len(), self.names.len(), "row arity mismatch");
        self.data.extend_from_slice(row);
        self.boundary += self.epoch;
    }

    /// Finalizes the series for a run of `total_cycles`, topping up with
    /// copies of `row` until exactly `⌈total_cycles / epoch⌉` rows exist
    /// (the last epoch is usually partial).
    pub fn seal(&mut self, total_cycles: u64, row: &[f64]) {
        let target = total_cycles.div_ceil(self.epoch) as usize;
        while self.rows() < target {
            self.record(row);
        }
    }

    /// Number of rows recorded so far.
    pub fn rows(&self) -> usize {
        if self.names.is_empty() {
            0
        } else {
            self.data.len() / self.names.len()
        }
    }

    /// The `i`-th row (empty slice when out of range).
    pub fn row(&self, i: usize) -> &[f64] {
        let cols = self.names.len();
        self.data.get(i * cols..(i + 1) * cols).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_series_columns_line_up() {
        let cols = RUN_SERIES;
        assert_eq!(cols[COL_HIT_RATE], "obs.hit_rate");
        assert_eq!(cols[COL_NM_DEMAND_FRAC], "obs.nm_demand_frac");
        assert_eq!(cols[COL_SWAPS], "obs.swaps");
        assert_eq!(cols[COL_LOCKS], "obs.locks");
        assert_eq!(cols[COL_NM_BUS_UTIL], "obs.nm_bus_util");
        assert_eq!(cols[COL_FM_BUS_UTIL], "obs.fm_bus_util");
        assert_eq!(cols[COL_READ_QUEUE], "obs.read_queue");
        assert_eq!(cols[COL_WRITE_QUEUE], "obs.write_queue");
        assert_eq!(cols[COL_LAT_P50], "obs.lat.p50");
        assert_eq!(cols[COL_LAT_P95], "obs.lat.p95");
        assert_eq!(cols[COL_LAT_P99], "obs.lat.p99");
        assert_eq!(cols[COL_LAT_P999], "obs.lat.p999");
        assert_eq!(cols.len(), 12);
        assert!(cols.iter().all(|n| n.starts_with("obs.")));
    }

    #[test]
    fn slo_series_columns_line_up() {
        let cols = SLO_SERIES;
        assert_eq!(cols[SLO_COL_OFFERED], "obs.slo.offered");
        assert_eq!(cols[SLO_COL_COMPLETED], "obs.slo.completed");
        assert_eq!(cols[SLO_COL_SHED], "obs.slo.shed");
        assert_eq!(cols[SLO_COL_TIMED_OUT], "obs.slo.timed_out");
        assert_eq!(cols[SLO_COL_FAILED], "obs.slo.failed");
        assert_eq!(cols[SLO_COL_RETRIES], "obs.slo.retries");
        assert_eq!(cols[SLO_COL_P99], "obs.slo.p99");
        assert_eq!(cols[SLO_COL_COMPLIANT], "obs.slo.compliant");
        assert_eq!(cols.len(), 8);
        assert!(cols.iter().all(|n| n.starts_with("obs.slo.")));
    }

    /// A single-column series.
    const ONE_COLUMN: &[&str] = &["obs.hit_rate"];

    #[test]
    fn exact_row_count_on_seal() {
        let mut s = EpochSampler::new(ONE_COLUMN, 100, 1000);
        // Simulate sparse in-run sampling: only one boundary noticed live.
        assert!(!s.due(99));
        assert!(s.due(100));
        s.record(&[0.5]);
        assert!(!s.due(150));
        s.seal(1001, &[0.75]);
        assert_eq!(s.rows(), 11); // ceil(1001 / 100)
        assert_eq!(s.row(0), &[0.5]);
        assert_eq!(s.row(10), &[0.75]);
        assert!(s.row(11).is_empty());
    }

    #[test]
    fn zero_cycles_zero_rows() {
        let mut s = EpochSampler::new(ONE_COLUMN, 50, 0);
        s.seal(0, &[0.0]);
        assert_eq!(s.rows(), 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_epoch_rejected() {
        let _ = EpochSampler::new(&[], 0, 10);
    }
}
