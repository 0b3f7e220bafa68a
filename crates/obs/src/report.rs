//! The assembled observability record of one simulated run.

use silcfm_types::obs::{Event, TraceEvent};

use crate::sampler::EpochSampler;
use crate::sketch::LatencyBreakdown;

/// Which simulated component emitted an event; selects its track in the
/// Chrome-trace export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Unit {
    /// The flat-memory placement controller (SILC-FM or a baseline).
    Controller,
    /// The near-memory (HBM) device model.
    Nm,
    /// The far-memory (DDR) device model.
    Fm,
}

impl Unit {
    /// Short lowercase label used by exporters.
    pub fn label(self) -> &'static str {
        match self {
            Unit::Controller => "controller",
            Unit::Nm => "nm",
            Unit::Fm => "fm",
        }
    }
}

/// A [`TraceEvent`] tagged with the unit that emitted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaggedEvent {
    /// Emitting component.
    pub unit: Unit,
    /// CPU-domain simulation cycle.
    pub at: u64,
    /// What occurred.
    pub event: Event,
}

/// Everything observed during one run: the merged event stream, the
/// per-class demand-latency sketches, the epoch time series, and
/// bookkeeping totals.
///
/// Reports are plain data; the exporters in [`crate::export`] turn them
/// into Chrome-trace JSON, CSV, or a human summary. All content derives
/// from simulation state only, so identical seeds produce identical
/// reports.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// All captured events, sorted by cycle (stable within a cycle: the
    /// controller's events precede NM's precede FM's).
    pub events: Vec<TaggedEvent>,
    /// Events lost to ring-buffer capacity, across all units.
    pub dropped: u64,
    /// Per-class demand-latency quantile sketches (the percentile plane).
    pub latency: LatencyBreakdown,
    /// The sealed per-epoch time series.
    pub series: EpochSampler,
    /// Total simulated cycles of the run.
    pub total_cycles: u64,
}

impl ObsReport {
    /// Builds a report from the per-unit event streams, given in
    /// controller, NM, FM order. The merged stream is sorted by cycle;
    /// ties keep controller → NM → FM order (the construction order below
    /// plus the stable sort).
    pub fn assemble(
        streams: [Vec<TraceEvent>; 3],
        dropped: u64,
        latency: LatencyBreakdown,
        series: EpochSampler,
        total_cycles: u64,
    ) -> Self {
        let mut events = Vec::with_capacity(streams.iter().map(Vec::len).sum());
        for (unit, stream) in [Unit::Controller, Unit::Nm, Unit::Fm]
            .into_iter()
            .zip(streams)
        {
            events.extend(stream.into_iter().map(|e| TaggedEvent {
                unit,
                at: e.at,
                event: e.event,
            }));
        }
        events.sort_by_key(|e| e.at);
        Self {
            events,
            dropped,
            latency,
            series,
            total_cycles,
        }
    }

    /// Number of captured events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Number of captured events emitted by `unit`.
    pub fn events_from(&self, unit: Unit) -> usize {
        self.events.iter().filter(|e| e.unit == unit).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silcfm_types::obs::Event;

    fn te(at: u64) -> TraceEvent {
        TraceEvent {
            at,
            event: Event::PredictorHit,
        }
    }

    #[test]
    fn assemble_merges_sorted_with_stable_ties() {
        let r = ObsReport::assemble(
            [vec![te(5), te(9)], vec![te(5), te(1)], vec![te(5)]],
            3,
            LatencyBreakdown::new(),
            EpochSampler::new(&[], 100, 0),
            1000,
        );
        let order: Vec<(u64, Unit)> = r.events.iter().map(|e| (e.at, e.unit)).collect();
        assert_eq!(
            order,
            vec![
                (1, Unit::Nm),
                (5, Unit::Controller),
                (5, Unit::Nm),
                (5, Unit::Fm),
                (9, Unit::Controller),
            ]
        );
        assert_eq!(r.event_count(), 5);
        assert_eq!(r.events_from(Unit::Controller), 2);
        assert_eq!(r.dropped, 3);
    }
}
