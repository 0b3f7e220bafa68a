//! Deterministic, mergeable quantile sketches over the u64 cycle domain.
//!
//! The paper's argument is a tail story — subblocked interleaving keeps hot
//! subblocks in NM so the *p99* of demand latency collapses, not just the
//! mean — and tails need principled quantiles. [`QuantileSketch`] is an
//! HdrHistogram-style log-bucketed histogram with [`SUB_BUCKETS`] linear
//! sub-buckets per power of two: fixed storage, no allocation after
//! construction, and every reported quantile within a relative error of
//! `1/SUB_BUCKETS` (3.125%) of the true order statistic.
//!
//! Determinism is the design center, not an afterthought:
//!
//! * **Recording** touches one counter plus four scalars — no floats, no
//!   wall clock, no allocation.
//! * **[`merge`](QuantileSketch::merge)** is pointwise wrapping addition of
//!   counters plus min/max folds: commutative and associative, so any
//!   permutation of partial sketches — `(epoch, lane)` shard folds,
//!   grid-job aggregation, journal resume — produces byte-identical state
//!   and therefore byte-identical reports (lint N1/F1 hold by
//!   construction).
//! * **[`encode`](QuantileSketch::encode)/[`decode`](QuantileSketch::decode)**
//!   round-trip the sketch through sparse whitespace-separated text fields,
//!   bit-exactly, so byte equality of two encodings is equality of the
//!   sketches — what every serial-vs-sharded latency gate compares.
//!
//! [`LatencyReservoir`] rides along for validation: a fixed-capacity
//! uniform sample (Vitter's algorithm R) seeded from the run's SplitMix64
//! stream — never the wall clock — whose quantiles are *exact* while the
//! stream fits the capacity. The sketch property tests compare the two
//! within the sketch's error bound.
//!
//! [`LatencyBreakdown`] bundles one sketch per [`AccessClass`] so per-class
//! attribution (NM hit / FM hit / swap-path / bypass / locked /
//! fault-degraded) shares the machinery; classes are mutually exclusive and
//! total, so the merged union of the class sketches *is* the per-scheme
//! distribution.

use silcfm_types::rng::{Rng, Xoshiro256StarStar};
use silcfm_types::AccessClass;

/// Log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 5;

/// Linear sub-buckets per power-of-two range. The relative error bound of
/// every reported quantile is `1/SUB_BUCKETS`.
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;

/// Total counters: the first [`SUB_BUCKETS`] values are exact, then each of
/// the `64 - SUB_BITS` remaining exponent ranges splits into
/// [`SUB_BUCKETS`] linear sub-buckets (1920 total at `SUB_BITS = 5`).
pub const SKETCH_BUCKETS: usize = (SUB_BUCKETS as usize) * (64 - SUB_BITS as usize + 1);

/// Upper bound on the relative error of any quantile the sketch reports.
pub const REL_ERROR_BOUND: f64 = 1.0 / SUB_BUCKETS as f64;

/// Index of the bucket holding `v`. Values below [`SUB_BUCKETS`] map to
/// themselves (exact); above, the exponent picks a run of [`SUB_BUCKETS`]
/// sub-buckets and the top `SUB_BITS` mantissa bits pick the slot.
const fn bucket_of(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let shift = exp - SUB_BITS;
    let sub = (v >> shift) - SUB_BUCKETS;
    (SUB_BUCKETS + shift as u64 * SUB_BUCKETS + sub) as usize
}

/// Inclusive upper edge of bucket `index` — the value the sketch reports
/// for quantiles landing in that bucket.
const fn bucket_high(index: usize) -> u64 {
    if index < SUB_BUCKETS as usize {
        return index as u64;
    }
    let k = (index - SUB_BUCKETS as usize) as u64;
    let shift = (k / SUB_BUCKETS) as u32;
    let sub = k % SUB_BUCKETS;
    let low = (SUB_BUCKETS + sub) << shift;
    // Parenthesized so the topmost bucket's edge (u64::MAX) can't overflow.
    low + ((1 << shift) - 1)
}

/// A deterministic, mergeable, relative-error-bounded quantile sketch over
/// u64 cycle counts. See the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    counts: Box<[u64; SKETCH_BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl QuantileSketch {
    /// An empty sketch. Allocates its fixed counter array once; recording
    /// and merging never allocate.
    pub fn new() -> Self {
        Self {
            counts: Box::new([0; SKETCH_BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one value. Constant time, allocation-free.
    pub fn record(&mut self, v: u64) {
        // `bucket_of` maps the whole u64 domain inside the table, so the
        // probe cannot miss; `get_mut` keeps the hot path panic-free anyway.
        if let Some(slot) = self.counts.get_mut(bucket_of(v)) {
            *slot = slot.wrapping_add(1);
        }
        self.count = self.count.wrapping_add(1);
        self.sum = self.sum.wrapping_add(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded values.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (wrapping, like the counters).
    pub const fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, or 0 when empty.
    pub const fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub const fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` (clamped to `[0, 1]`): an upper bound on
    /// the true order statistic within [`REL_ERROR_BOUND`] relative error,
    /// clamped to the recorded maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil(q * n) as a rank in [1, n]; f64 has 53 mantissa bits, far
        // beyond any realistic sample count, so the rank is deterministic.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (index, &c) in self.counts.iter().enumerate() {
            cumulative = cumulative.wrapping_add(c);
            if cumulative >= rank {
                return bucket_high(index).min(self.max);
            }
        }
        self.max
    }

    /// p50 (median).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// p95.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// p99.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// p999 (99.9th percentile).
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// The report row `[p50, p95, p99, p999]`.
    pub fn percentiles(&self) -> [u64; 4] {
        [self.p50(), self.p95(), self.p99(), self.p999()]
    }

    /// Folds `other` into `self`. Pointwise wrapping addition plus min/max
    /// folds — commutative and associative, so any merge order over any
    /// partition of the sample stream yields byte-identical state.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.wrapping_add(*b);
        }
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Resets to the empty state, keeping the counter storage.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Appends the sketch as whitespace-separated fields:
    /// `count sum min max nnz (index count)*` — sparse (only non-zero
    /// buckets), deterministic, and bit-exact under
    /// [`decode`](Self::decode), so comparing encodings compares sketches.
    pub fn encode(&self, line: &mut String) {
        use core::fmt::Write as _;
        let nnz = self.counts.iter().filter(|&&c| c != 0).count();
        let _ = write!(
            line,
            " {} {} {} {} {nnz}",
            self.count, self.sum, self.min, self.max
        );
        for (index, &c) in self.counts.iter().enumerate() {
            if c != 0 {
                let _ = write!(line, " {index} {c}");
            }
        }
    }

    /// Parses fields appended by [`encode`](Self::encode) from a token
    /// stream. Returns `None` on any shortfall or malformed field.
    pub fn decode<'a, I: Iterator<Item = &'a str>>(it: &mut I) -> Option<Self> {
        let mut int = || it.next()?.parse::<u64>().ok();
        let mut sketch = Self::new();
        sketch.count = int()?;
        sketch.sum = int()?;
        sketch.min = int()?;
        sketch.max = int()?;
        let nnz = int()? as usize;
        if nnz > SKETCH_BUCKETS {
            return None;
        }
        for _ in 0..nnz {
            let index = int()? as usize;
            let c = int()?;
            *sketch.counts.get_mut(index)? = c;
        }
        Some(sketch)
    }
}

/// A fixed-capacity uniform sample of a latency stream (Vitter's algorithm
/// R), for exact small-N validation of [`QuantileSketch`]. Deterministic:
/// the replacement draws come from an in-tree generator seeded by the
/// caller — derive the seed from the run's SplitMix64 stream, never a
/// clock. While `seen() <= capacity` the reservoir holds *every* sample, so
/// its quantiles are exact order statistics.
#[derive(Debug, Clone)]
pub struct LatencyReservoir {
    samples: Vec<u64>,
    capacity: usize,
    seen: u64,
    rng: Xoshiro256StarStar,
}

impl LatencyReservoir {
    /// A reservoir holding at most `capacity` samples, with replacement
    /// draws seeded from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "a zero-capacity reservoir holds nothing");
        Self {
            samples: Vec::with_capacity(capacity),
            capacity,
            seen: 0,
            rng: Xoshiro256StarStar::seed_from_u64(seed),
        }
    }

    /// Offers one value to the reservoir.
    pub fn observe(&mut self, v: u64) {
        if self.samples.len() < self.capacity {
            self.samples.push(v);
        } else {
            // Keep each prefix uniformly represented: replace a random slot
            // with probability capacity / (seen + 1).
            let j = self.rng.gen_range(0..=self.seen);
            if let Some(slot) = self.samples.get_mut(j as usize) {
                *slot = v;
            }
        }
        self.seen += 1;
    }

    /// Total values offered so far.
    pub const fn seen(&self) -> u64 {
        self.seen
    }

    /// Whether the reservoir still holds every offered value, making its
    /// quantiles exact.
    pub fn is_exact(&self) -> bool {
        self.seen as usize <= self.capacity
    }

    /// The value at quantile `q` over the held samples (the exact order
    /// statistic while [`is_exact`](Self::is_exact)). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }
}

/// One [`QuantileSketch`] per [`AccessClass`], plus the derived overall
/// distribution. Classes are mutually exclusive and total, so
/// [`overall`](Self::overall) — the merged union of the class sketches —
/// is exactly the per-scheme demand-latency distribution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencyBreakdown {
    /// Per-class sketches, indexed by [`AccessClass::index`].
    pub class: [QuantileSketch; AccessClass::COUNT],
}

impl LatencyBreakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one classified sample.
    pub fn record(&mut self, class: AccessClass, v: u64) {
        // `index()` is dense over `AccessClass::COUNT`, so the probe cannot
        // miss; `get_mut` keeps the hot path panic-free anyway.
        if let Some(sketch) = self.class.get_mut(class.index()) {
            sketch.record(v);
        }
    }

    /// The sketch of one class.
    pub fn sketch(&self, class: AccessClass) -> &QuantileSketch {
        &self.class[class.index()]
    }

    /// The per-scheme distribution: the merged union of every class.
    pub fn overall(&self) -> QuantileSketch {
        let mut all = QuantileSketch::new();
        for sketch in &self.class {
            all.merge(sketch);
        }
        all
    }

    /// Total samples across all classes.
    pub fn count(&self) -> u64 {
        self.class.iter().map(QuantileSketch::count).sum()
    }

    /// Folds `other` in, class by class. Inherits the sketch merge's
    /// order-invariance.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.class.iter_mut().zip(other.class.iter()) {
            a.merge(b);
        }
    }

    /// Appends every class sketch's fields, in [`AccessClass::ALL`] order.
    pub fn encode(&self, line: &mut String) {
        for sketch in &self.class {
            sketch.encode(line);
        }
    }

    /// Parses fields appended by [`encode`](Self::encode).
    pub fn decode<'a, I: Iterator<Item = &'a str>>(it: &mut I) -> Option<Self> {
        let mut breakdown = Self::new();
        for sketch in &mut breakdown.class {
            *sketch = QuantileSketch::decode(it)?;
        }
        Some(breakdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silcfm_types::check::{forall, forall_cases};

    fn encoded(s: &QuantileSketch) -> String {
        let mut line = String::new();
        s.encode(&mut line);
        line
    }

    #[test]
    fn bucket_layout_is_monotone_and_exhaustive() {
        // Probe around every power of two plus extremes, sorted: bucket
        // indexes must be non-decreasing in the value, every high edge must
        // upper-bound its contents within the relative error, and the whole
        // domain must stay inside the table.
        let mut probes = vec![0u64, 1, u64::MAX - 1, u64::MAX];
        for shift in 1..64u32 {
            let p = 1u64 << shift;
            probes.extend([p - 1, p, p + 1, p + (p >> 1)]);
        }
        probes.sort_unstable();
        let mut last = 0usize;
        for &v in &probes {
            let index = bucket_of(v);
            assert!(index < SKETCH_BUCKETS, "index {index} out of table at {v}");
            assert!(index >= last, "index regressed at {v}");
            let high = bucket_high(index);
            assert!(high >= v, "high edge below value at {v}");
            assert!(
                (high - v) as f64 <= REL_ERROR_BOUND * v as f64 + 1.0,
                "edge {high} too far above {v}"
            );
            last = index;
        }
        assert_eq!(bucket_high(bucket_of(u64::MAX)), u64::MAX);
        // Small values are exact.
        for v in 0..SUB_BUCKETS {
            assert_eq!(bucket_high(bucket_of(v)), v);
        }
    }

    #[test]
    fn quantiles_hold_the_relative_error_bound() {
        forall_cases("sketch_relative_error", 64, |rng| {
            let mut sketch = QuantileSketch::new();
            let mut values: Vec<u64> = (0..500).map(|_| rng.gen_range(1u64..1_000_000)).collect();
            for &v in &values {
                sketch.record(v);
            }
            values.sort_unstable();
            for q in [0.5, 0.95, 0.99, 0.999] {
                let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
                let exact = values[rank - 1];
                let approx = sketch.quantile(q);
                assert!(
                    approx >= exact,
                    "sketch must upper-bound: {approx} < {exact}"
                );
                let err = (approx - exact) as f64 / exact as f64;
                assert!(
                    err <= REL_ERROR_BOUND + 1e-12,
                    "relative error {err} over bound at q={q}"
                );
            }
        });
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        forall_cases("sketch_quantile_monotone", 64, |rng| {
            let mut sketch = QuantileSketch::new();
            for _ in 0..200 {
                sketch.record(rng.next_u64() >> rng.gen_range(0u32..60));
            }
            let qs = [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0];
            for pair in qs.windows(2) {
                assert!(
                    sketch.quantile(pair[0]) <= sketch.quantile(pair[1]),
                    "quantile must be monotone in q"
                );
            }
            let [p50, p95, p99, p999] = sketch.percentiles();
            assert!(p50 <= p95 && p95 <= p99 && p99 <= p999);
            assert!(p999 <= sketch.max());
        });
    }

    #[test]
    fn merge_is_order_invariant_to_the_byte() {
        forall_cases("sketch_merge_order_invariance", 64, |rng| {
            // Partition one stream into several partial sketches, then
            // merge them in two random orders: identical encodings.
            let parts = rng.gen_range(2usize..6);
            let mut partials = vec![QuantileSketch::new(); parts];
            for _ in 0..300 {
                let v = rng.next_u64() >> rng.gen_range(0u32..56);
                partials[rng.gen_range(0..parts as u64) as usize].record(v);
            }
            let mut order: Vec<usize> = (0..parts).collect();
            let mut a = QuantileSketch::new();
            for &i in &order {
                a.merge(&partials[i]);
            }
            rng.shuffle(&mut order);
            let mut b = QuantileSketch::new();
            for &i in &order {
                b.merge(&partials[i]);
            }
            assert_eq!(a, b, "merge must be order-invariant");
            assert_eq!(encoded(&a), encoded(&b), "encodings must be byte-identical");
            // And the merged sketch equals recording the stream serially.
            let mut serial = QuantileSketch::new();
            for p in &partials {
                serial.merge(p);
            }
            assert_eq!(encoded(&serial), encoded(&a));
        });
    }

    #[test]
    fn reservoir_agrees_with_sketch_within_error_bound() {
        forall_cases("reservoir_vs_sketch", 64, |rng| {
            let capacity = 256usize;
            let n = rng.gen_range(1u64..=capacity as u64);
            let mut sketch = QuantileSketch::new();
            let mut reservoir = LatencyReservoir::new(capacity, rng.next_u64());
            for _ in 0..n {
                let v = rng.gen_range(1u64..100_000);
                sketch.record(v);
                reservoir.observe(v);
            }
            assert!(reservoir.is_exact(), "N <= capacity must stay exact");
            for q in [0.5, 0.95, 0.99, 0.999] {
                let exact = reservoir.quantile(q);
                let approx = sketch.quantile(q);
                assert!(approx >= exact);
                let err = (approx - exact) as f64 / exact.max(1) as f64;
                assert!(err <= REL_ERROR_BOUND + 1e-12, "err {err} at q={q}");
            }
        });
    }

    #[test]
    fn reservoir_is_seed_deterministic_and_bounded() {
        let mut a = LatencyReservoir::new(16, 42);
        let mut b = LatencyReservoir::new(16, 42);
        for v in 0..10_000u64 {
            a.observe(v);
            b.observe(v);
        }
        assert_eq!(a.samples, b.samples, "same seed, same sample");
        assert_eq!(a.samples.len(), 16);
        assert!(!a.is_exact());
        assert_eq!(a.seen(), 10_000);
        // Past capacity the reservoir is a uniform subsample: its median
        // should land well inside the stream's range.
        let med = a.quantile(0.5);
        assert!(med > 0 && med < 10_000);
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        forall("sketch_codec_round_trip", |rng| {
            let mut sketch = QuantileSketch::new();
            for _ in 0..rng.gen_range(0u64..200) {
                sketch.record(rng.next_u64() >> rng.gen_range(0u32..60));
            }
            let line = encoded(&sketch);
            let decoded = QuantileSketch::decode(&mut line.split_whitespace())
                .expect("well-formed encoding must decode");
            assert_eq!(decoded, sketch);
            assert_eq!(encoded(&decoded), line);
        });
    }

    #[test]
    fn decode_rejects_malformed_fields() {
        assert!(QuantileSketch::decode(&mut "".split_whitespace()).is_none());
        assert!(QuantileSketch::decode(&mut "1 2 3".split_whitespace()).is_none());
        assert!(QuantileSketch::decode(&mut "1 2 3 4 1 99999999 1".split_whitespace()).is_none());
        assert!(QuantileSketch::decode(&mut "1 2 3 4 zz".split_whitespace()).is_none());
        // nnz larger than the bucket table is rejected outright.
        let huge = format!("1 2 3 4 {}", SKETCH_BUCKETS + 1);
        assert!(QuantileSketch::decode(&mut huge.split_whitespace()).is_none());
    }

    #[test]
    fn empty_sketch_reports_zeros() {
        let s = QuantileSketch::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
        let mut line = String::new();
        s.encode(&mut line);
        assert_eq!(line, " 0 0 18446744073709551615 0 0");
    }

    #[test]
    fn clear_matches_fresh() {
        let mut s = QuantileSketch::new();
        for v in [1, 5, 70_000] {
            s.record(v);
        }
        s.clear();
        assert_eq!(s, QuantileSketch::new());
    }

    #[test]
    fn breakdown_overall_is_the_union_of_classes() {
        forall_cases("breakdown_union", 32, |rng| {
            let mut breakdown = LatencyBreakdown::new();
            let mut union = QuantileSketch::new();
            for _ in 0..200 {
                let class = AccessClass::ALL[rng.gen_range(0..AccessClass::COUNT as u64) as usize];
                let v = rng.gen_range(1u64..1_000_000);
                breakdown.record(class, v);
                union.record(v);
            }
            assert_eq!(breakdown.overall(), union);
            assert_eq!(breakdown.count(), union.count());
            // Codec round-trips the whole breakdown.
            let mut line = String::new();
            breakdown.encode(&mut line);
            let decoded = LatencyBreakdown::decode(&mut line.split_whitespace()).unwrap();
            assert_eq!(decoded, breakdown);
            // Breakdown merge inherits order-invariance.
            let mut doubled = breakdown.clone();
            doubled.merge(&breakdown);
            assert_eq!(doubled.count(), 2 * breakdown.count());
        });
    }
}
