//! The tracing vocabulary shared by every instrumented component.
//!
//! Observability in this workspace is *monomorphized in*: components that
//! can emit trace events take a type parameter `T: Tracer` defaulting to
//! [`NullTracer`]. The associated constant [`Tracer::ENABLED`] lets every
//! emit site be written as
//!
//! ```ignore
//! if T::ENABLED {
//!     self.tracer.record(cycle, Event::PredictorHit);
//! }
//! ```
//!
//! which the compiler deletes entirely when `T = NullTracer` (the constant
//! is `false` at monomorphization time), so the disabled path costs zero —
//! no branch, no call, no data — and the access hot path stays exactly as
//! PR 2/3 left it.
//!
//! All timestamps are **simulation cycles** (CPU domain). Wall-clock time
//! never enters a trace: runs must be deterministic and byte-identical
//! across hosts, serial/parallel execution, and repetitions.

/// DRAM row-buffer outcome of one command, as classified by the bank model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowKind {
    /// Row already open: column access only.
    Hit,
    /// Bank idle: activate then access.
    Miss,
    /// Different row open: precharge, activate, access.
    Conflict,
}

impl RowKind {
    /// Short lowercase label used by exporters.
    pub fn label(self) -> &'static str {
        match self {
            RowKind::Hit => "hit",
            RowKind::Miss => "miss",
            RowKind::Conflict => "conflict",
        }
    }
}

/// Coarse classification of an injected fault, carried by
/// [`Event::FaultInjected`] so traces can distinguish fault classes without
/// paying for the full `FaultKind` payload (events must stay two words).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// An NM associative way was degraded and masked out.
    DegradedWay,
    /// A previously degraded NM way was repaired.
    RestoredWay,
    /// A transient bit flip in a resident subblock (any ECC outcome).
    BitFlip,
    /// A parity error in a frame's remap/metadata entry.
    MetadataParity,
    /// A DRAM channel entered a stall window.
    ChannelStall,
    /// A DRAM channel hard-failed (commands NACK until repair).
    ChannelFail,
    /// A failed or stalled DRAM channel was repaired.
    ChannelRepair,
}

impl FaultClass {
    /// Short lowercase label used by exporters.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::DegradedWay => "degraded_way",
            FaultClass::RestoredWay => "restored_way",
            FaultClass::BitFlip => "bit_flip",
            FaultClass::MetadataParity => "metadata_parity",
            FaultClass::ChannelStall => "channel_stall",
            FaultClass::ChannelFail => "channel_fail",
            FaultClass::ChannelRepair => "channel_repair",
        }
    }
}

/// One traceable occurrence inside the simulator, in compact binary form.
///
/// Variants carry only small fixed-width payloads so a [`TraceEvent`] stays
/// two words of payload and ring-buffer storage is cheap. The taxonomy
/// follows the paper's mechanisms: the swap engine (Table I), locking
/// (§III-C), bypassing (§III-E), the way/location predictor (§III-F) and
/// history-guided bulk fetch, plus the DRAM command stream under them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A subblock exchange between an NM frame and its FM tenant began.
    SwapStart {
        /// NM frame index.
        frame: u32,
        /// Subblock slot being exchanged.
        subblock: u8,
    },
    /// The matching exchange finished (all ops emitted).
    SwapDone {
        /// NM frame index.
        frame: u32,
        /// Subblock slot that was exchanged.
        subblock: u8,
    },
    /// A frame was locked (§III-C): hot data pinned into NM.
    LockPromote {
        /// NM frame index.
        frame: u32,
        /// `true` when the frame's *native* block was locked in place,
        /// `false` when a remapped FM tenant was fully pulled in.
        native: bool,
    },
    /// A locked frame was released by the aging pass.
    LockDemote {
        /// NM frame index.
        frame: u32,
    },
    /// The bypass governor (§III-E) changed state.
    BypassDecision {
        /// `true` when bypassing engaged, `false` when it disengaged.
        engaged: bool,
    },
    /// The history table triggered a bulk fetch of previously-hot subblocks.
    HistoryFetch {
        /// Number of extra subblocks fetched alongside the demand.
        bits: u8,
    },
    /// The way/location predictor was consulted and was right.
    PredictorHit,
    /// The way/location predictor was consulted and was wrong.
    PredictorMiss,
    /// The DRAM model issued one channel-interleaved command chunk.
    DramCmdIssue {
        /// Channel the chunk was routed to.
        channel: u8,
        /// `true` for writes (writes skip the row model: bus-only).
        write: bool,
        /// Row-buffer outcome of the command.
        outcome: RowKind,
    },
    /// Periodic sample of one channel's in-flight queue depths and bus
    /// occupancy.
    QueueDepthSample {
        /// Channel sampled.
        channel: u8,
        /// Reads in flight at the sample instant.
        reads: u16,
        /// Writes in flight at the sample instant.
        writes: u16,
        /// Memory cycles the channel's data bus was busy since the previous
        /// sample (saturating).
        busy: u32,
    },
    /// The fault plane delivered a fault to a component.
    FaultInjected {
        /// Which class of fault fired.
        kind: FaultClass,
        /// Class-dependent target: frame index for scheme faults, way index
        /// for way degradation/repair, channel index for DRAM faults.
        target: u32,
    },
    /// A recovery path ran and preserved all data (entry invalidated with
    /// the FM home intact, tenant evacuated from a degraded way, …).
    Recovered {
        /// NM frame index that was recovered.
        frame: u32,
    },
    /// A frame lost the only valid copy of resident data: poisoned and
    /// reported (the flat organization has nothing to restore from).
    Poisoned {
        /// NM frame index that was poisoned.
        frame: u32,
    },
    /// The controller crossed the NM-unhealthy threshold and switched the
    /// bypass-all failover mode (with hysteresis; see DESIGN.md §10).
    Failover {
        /// `true` when failover engaged, `false` when it disengaged.
        engaged: bool,
    },
}

/// Number of [`Event`] variants, i.e. the arity of a per-kind counter
/// array indexed by [`Event::kind_index`].
pub const EVENT_KINDS: usize = 14;

/// Labels of every event kind, indexed by [`Event::kind_index`] — the
/// vocabulary a counting tracer reports its per-kind totals under.
pub const EVENT_KIND_LABELS: [&str; EVENT_KINDS] = [
    "swap_start",
    "swap_done",
    "lock_promote",
    "lock_demote",
    "bypass_decision",
    "history_fetch",
    "predictor_hit",
    "predictor_miss",
    "dram_cmd",
    "queue_depth",
    "fault_injected",
    "recovered",
    "poisoned",
    "failover",
];

impl Event {
    /// Dense index of this event's kind in `0..EVENT_KINDS`, in declaration
    /// order. Counting tracers (the sampling tier in `silcfm-obs`) use it to
    /// keep one monotonic counter per kind without hashing.
    pub const fn kind_index(&self) -> usize {
        match self {
            Event::SwapStart { .. } => 0,
            Event::SwapDone { .. } => 1,
            Event::LockPromote { .. } => 2,
            Event::LockDemote { .. } => 3,
            Event::BypassDecision { .. } => 4,
            Event::HistoryFetch { .. } => 5,
            Event::PredictorHit => 6,
            Event::PredictorMiss => 7,
            Event::DramCmdIssue { .. } => 8,
            Event::QueueDepthSample { .. } => 9,
            Event::FaultInjected { .. } => 10,
            Event::Recovered { .. } => 11,
            Event::Poisoned { .. } => 12,
            Event::Failover { .. } => 13,
        }
    }

    /// Short machine-readable label, used for Chrome-trace event names and
    /// summary tables.
    pub fn label(&self) -> &'static str {
        match self {
            Event::SwapStart { .. } => "swap_start",
            Event::SwapDone { .. } => "swap_done",
            Event::LockPromote { .. } => "lock_promote",
            Event::LockDemote { .. } => "lock_demote",
            Event::BypassDecision { .. } => "bypass_decision",
            Event::HistoryFetch { .. } => "history_fetch",
            Event::PredictorHit => "predictor_hit",
            Event::PredictorMiss => "predictor_miss",
            Event::DramCmdIssue { .. } => "dram_cmd",
            Event::QueueDepthSample { .. } => "queue_depth",
            Event::FaultInjected { .. } => "fault_injected",
            Event::Recovered { .. } => "recovered",
            Event::Poisoned { .. } => "poisoned",
            Event::Failover { .. } => "failover",
        }
    }
}

/// An [`Event`] stamped with the simulation cycle it occurred at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// CPU-domain simulation cycle of the occurrence.
    pub at: u64,
    /// What occurred.
    pub event: Event,
}

/// A sink for trace events, resolved at compile time.
///
/// The trait is deliberately *not* object safe (it carries an associated
/// constant): instrumented components are generic over their tracer so the
/// [`NullTracer`] specialization compiles down to nothing. Concrete sinks
/// (the ring buffer in `silcfm-obs`) set [`ENABLED`](Self::ENABLED) to
/// `true`.
pub trait Tracer {
    /// Whether emit sites guarded by `if T::ENABLED` are live. When this is
    /// `false` the guarded code is unreachable at monomorphization time and
    /// the optimizer removes it.
    const ENABLED: bool;

    /// Records `event` as having occurred at simulation cycle `cycle`.
    fn record(&mut self, cycle: u64, event: Event);

    /// Removes and returns all buffered events, oldest first.
    fn drain(&mut self) -> Vec<TraceEvent>;

    /// Number of events lost to capacity limits since construction.
    fn dropped(&self) -> u64;

    /// Monotonic per-kind event totals, indexed by [`Event::kind_index`].
    /// Sinks without always-on counters (the ring, the null tracer) report
    /// all zeros; the sampling tier in `silcfm-obs` counts every record
    /// even when the event itself is not retained.
    fn counters(&self) -> [u64; EVENT_KINDS] {
        [0; EVENT_KINDS]
    }
}

/// The no-op tracer: every instrumented component's default.
///
/// All methods are empty and [`Tracer::ENABLED`] is `false`, so code
/// monomorphized against `NullTracer` contains no tracing residue at all —
/// this is what keeps the A1/P1-scrubbed hot path intact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullTracer;

impl Tracer for NullTracer {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _cycle: u64, _event: Event) {}

    fn drain(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }

    fn dropped(&self) -> u64 {
        0
    }
}

/// The metrics-only tracer: `ENABLED` is `true` so every `if T::ENABLED`
/// observability hook runs — demand-latency attribution into the quantile
/// sketches, the histograms, the epoch sampler — but [`Tracer::record`]
/// is a no-op that inlines away, so no event is ever buffered and full
/// tracing's per-event cost vanishes. This is the cheapest configuration
/// that still produces the latency-percentile plane, and the one the
/// `throughput` bench prices as "sketches ON".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsOnlyTracer;

impl Tracer for MetricsOnlyTracer {
    const ENABLED: bool = true;

    #[inline(always)]
    fn record(&mut self, _cycle: u64, _event: Event) {}

    fn drain(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }

    fn dropped(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_tracer_is_inert() {
        let mut t = NullTracer;
        t.record(17, Event::PredictorHit);
        assert!(t.drain().is_empty());
        assert_eq!(t.dropped(), 0);
        const { assert!(!NullTracer::ENABLED) };
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Event::PredictorHit.label(), "predictor_hit");
        assert_eq!(
            Event::SwapStart {
                frame: 3,
                subblock: 1
            }
            .label(),
            "swap_start"
        );
        assert_eq!(RowKind::Conflict.label(), "conflict");
        assert_eq!(
            Event::FaultInjected {
                kind: FaultClass::BitFlip,
                target: 9
            }
            .label(),
            "fault_injected"
        );
        assert_eq!(Event::Poisoned { frame: 2 }.label(), "poisoned");
        assert_eq!(Event::Recovered { frame: 2 }.label(), "recovered");
        assert_eq!(Event::Failover { engaged: true }.label(), "failover");
        assert_eq!(FaultClass::ChannelFail.label(), "channel_fail");
    }

    #[test]
    fn kind_indices_are_dense_and_label_aligned() {
        let all = [
            Event::SwapStart {
                frame: 0,
                subblock: 0,
            },
            Event::SwapDone {
                frame: 0,
                subblock: 0,
            },
            Event::LockPromote {
                frame: 0,
                native: false,
            },
            Event::LockDemote { frame: 0 },
            Event::BypassDecision { engaged: true },
            Event::HistoryFetch { bits: 1 },
            Event::PredictorHit,
            Event::PredictorMiss,
            Event::DramCmdIssue {
                channel: 0,
                write: false,
                outcome: RowKind::Hit,
            },
            Event::QueueDepthSample {
                channel: 0,
                reads: 0,
                writes: 0,
                busy: 0,
            },
            Event::FaultInjected {
                kind: FaultClass::BitFlip,
                target: 0,
            },
            Event::Recovered { frame: 0 },
            Event::Poisoned { frame: 0 },
            Event::Failover { engaged: true },
        ];
        assert_eq!(all.len(), EVENT_KINDS);
        for (i, e) in all.iter().enumerate() {
            assert_eq!(e.kind_index(), i, "{} out of order", e.label());
            assert_eq!(EVENT_KIND_LABELS[i], e.label());
        }
    }

    #[test]
    fn trace_event_is_small() {
        // The ring buffer stores these by value; keep them compact.
        assert!(core::mem::size_of::<TraceEvent>() <= 24);
    }
}
