//! The sampling tracer tier: full counters always, full events 1-in-N.
//!
//! Recording every event costs double-digit percentages of the system's
//! throughput — roughly half with capture-sized (1 Mi-event) buffers —
//! too much to leave on outside a debugging session (see
//! `results/BENCH_throughput.json`, `tracing_overhead`).
//! Most observability questions, though, only need *rates*: how many lock
//! promotions, how many swaps, how often did bypass engage. The
//! [`SamplingTracer`] answers those with a fixed array of per-kind event
//! counters that is always up to date, while recording the *full* event
//! (with its cycle stamp and payload) only once every `period` events —
//! a power of two, so the sample decision is one mask-and-compare.
//!
//! Sampled events land in a preallocated ring: once it fills, each new
//! event overwrites the oldest one and bumps the drop count, so long runs
//! keep the most recent window at a hard memory bound. `ObsReport`
//! assembly and the Chrome-trace exporter see an ordinary (sparser) event
//! stream through `drain`/`dropped`, and [`Tracer::counters`] surfaces the
//! exact totals the samples no longer carry.

use silcfm_types::obs::{Event, TraceEvent, Tracer, EVENT_KINDS};

/// A [`Tracer`] that counts every event and keeps one full event per
/// `period` in a fixed-capacity ring. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct SamplingTracer {
    /// The sampled events; never grows past its initial capacity.
    buf: Vec<TraceEvent>,
    /// Index of the oldest event once the ring has wrapped; equivalently
    /// the slot the next overwrite lands in.
    head: usize,
    /// Sampled events overwritten by newer ones.
    dropped: u64,
    /// `period - 1`; the period is a power of two, so `seq & mask == 0`
    /// selects exactly one event in `period`.
    mask: u64,
    /// Events seen so far (the sampling phase).
    seq: u64,
    /// Per-kind totals, indexed by [`Event::kind_index`].
    counts: [u64; EVENT_KINDS],
}

impl SamplingTracer {
    /// Creates a sampling tracer keeping at most `capacity` sampled events
    /// and recording one full event in `period`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `period` is not a power of two
    /// (`period = 1` is allowed and records every event: full tracing with
    /// counters on top).
    pub fn with_capacity(capacity: usize, period: u64) -> Self {
        assert!(
            period.is_power_of_two(),
            "sampling period must be a power of two"
        );
        assert!(capacity > 0, "sampling tracer needs at least one slot");
        Self {
            buf: Vec::with_capacity(capacity),
            head: 0,
            dropped: 0,
            mask: period - 1,
            seq: 0,
            counts: [0; EVENT_KINDS],
        }
    }

    /// The sampling period (one recorded event per this many seen).
    pub const fn period(&self) -> u64 {
        self.mask + 1
    }

    /// Number of events seen (counted) so far, sampled or not.
    pub const fn seen(&self) -> u64 {
        self.seq
    }

    /// Number of sampled events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no sampled events are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl Tracer for SamplingTracer {
    const ENABLED: bool = true;

    #[inline]
    fn record(&mut self, cycle: u64, event: Event) {
        // The counter tier is unconditional: totals stay exact at any
        // sampling rate.
        if let Some(count) = self.counts.get_mut(event.kind_index()) {
            *count += 1;
        }
        if self.seq & self.mask == 0 {
            let e = TraceEvent { at: cycle, event };
            if self.buf.len() < self.buf.capacity() {
                self.buf.push(e);
            } else if let Some(slot) = self.buf.get_mut(self.head) {
                *slot = e;
                self.head += 1;
                if self.head == self.buf.len() {
                    self.head = 0;
                }
                self.dropped += 1;
            }
        }
        self.seq += 1;
    }

    fn drain(&mut self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(self.buf.get(self.head..).unwrap_or(&[]));
        out.extend_from_slice(self.buf.get(..self.head).unwrap_or(&[]));
        self.buf.clear();
        self.head = 0;
        out
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn counters(&self) -> [u64; EVENT_KINDS] {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silcfm_types::obs::EVENT_KIND_LABELS;

    #[test]
    fn counters_are_exact_at_any_rate() {
        for period in [1u64, 4, 64] {
            let mut t = SamplingTracer::with_capacity(1024, period);
            for i in 0..300u64 {
                t.record(i, Event::PredictorHit);
                t.record(
                    i,
                    Event::SwapStart {
                        frame: 1,
                        subblock: 2,
                    },
                );
            }
            let counts = t.counters();
            assert_eq!(counts[Event::PredictorHit.kind_index()], 300);
            let swap = Event::SwapStart {
                frame: 0,
                subblock: 0,
            };
            assert_eq!(counts[swap.kind_index()], 300);
            assert_eq!(counts.iter().sum::<u64>(), 600, "period {period}");
            assert_eq!(t.seen(), 600);
        }
    }

    #[test]
    fn records_exactly_one_in_period() {
        let mut t = SamplingTracer::with_capacity(1024, 8);
        for i in 0..64u64 {
            t.record(i, Event::PredictorMiss);
        }
        let events = t.drain();
        assert_eq!(events.len(), 8, "64 events at 1-in-8");
        let stamps: Vec<u64> = events.iter().map(|e| e.at).collect();
        assert_eq!(stamps, vec![0, 8, 16, 24, 32, 40, 48, 56]);
    }

    #[test]
    fn period_one_keeps_every_event_under_capacity() {
        let mut t = SamplingTracer::with_capacity(16, 1);
        for i in 0..10u64 {
            t.record(i, Event::PredictorHit);
        }
        let stamps: Vec<u64> = t.drain().iter().map(|e| e.at).collect();
        assert_eq!(stamps, (0..10).collect::<Vec<u64>>());
        assert_eq!(t.dropped(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn drain_resets_the_window() {
        let mut t = SamplingTracer::with_capacity(3, 1);
        for i in 0..7u64 {
            t.record(i, Event::PredictorHit);
        }
        let _ = t.drain();
        t.record(100, Event::PredictorHit);
        let events = t.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].at, 100);
    }

    #[test]
    fn overwrites_count_as_drops() {
        let mut t = SamplingTracer::with_capacity(4, 2);
        for i in 0..40u64 {
            t.record(i, Event::PredictorHit);
        }
        // 20 sampled events into 4 slots: 16 overwritten.
        assert_eq!(t.dropped(), 16);
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    fn counter_labels_cover_every_kind() {
        // The label table and the counter array share indices.
        let t = SamplingTracer::with_capacity(1, 2);
        assert_eq!(t.counters().len(), EVENT_KIND_LABELS.len());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_period_rejected() {
        let _ = SamplingTracer::with_capacity(8, 3);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_rejected() {
        let _ = SamplingTracer::with_capacity(0, 1);
    }
}
