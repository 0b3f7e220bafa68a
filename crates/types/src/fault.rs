//! The fault vocabulary shared by the injector, the DRAM model and the
//! SILC-FM controller.
//!
//! SILC-FM is a *flat* organization: after a subblock exchange the NM frame
//! holds the **only** valid copy of the swapped-in data (the single-copy
//! invariant of §III-B). A hardware fault is therefore a correctness event,
//! not merely a slowdown, and every fault class below comes with a defined
//! recovery outcome ([`FaultEffect`]):
//!
//! * **Transient subblock bit flips** pass through an ECC model. A corrected
//!   flip costs nothing; a detected-uncorrectable error (DUE) in a resident
//!   subblock *poisons* it — there is no second copy to restore from; an
//!   undetected flip is silent data corruption, counted but invisible to the
//!   controller (that is the point of modeling it).
//! * **Remap/metadata parity errors** hit the frame's remap entry. If the
//!   tenant has no subblocks resident (`bitvec == 0`) the FM home still holds
//!   every byte, so the entry is invalidated and the access stream recovers;
//!   if subblocks *were* resident, their only copy just became unreachable —
//!   the frame is poisoned and reported.
//! * **NM way degradation** masks a whole associative way out of the probe:
//!   its frames are evacuated (tenants restored to FM while the data is still
//!   readable — degradation is a *warning*, not data loss) and the way stops
//!   accepting tenancies until repaired. Enough degraded ways trip a
//!   bypass-all failover with hysteresis (see `silcfm-core`).
//! * **DRAM channel faults** live in the timing domain: a stalled channel
//!   delays every command until the stall window closes; a failed channel
//!   NACKs commands at a fixed penalty until repaired.
//!
//! Schedules are *data*, generated deterministically from a seed by
//! `silcfm-fault` and replayed identically on every run — the injector never
//! draws randomness at injection time.

use crate::mem::MemKind;

/// The ECC outcome of one transient bit flip, drawn at schedule-generation
/// time (never at injection time, so replays are bit-identical).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EccOutcome {
    /// Single-bit flip inside ECC's correction budget: fixed in place.
    Corrected,
    /// Multi-bit flip ECC detects but cannot correct (DUE).
    DetectedUncorrectable,
    /// Flip that aliases past the code entirely: silent corruption.
    Undetected,
}

impl EccOutcome {
    /// Short lowercase label used by reports.
    pub fn label(self) -> &'static str {
        match self {
            EccOutcome::Corrected => "corrected",
            EccOutcome::DetectedUncorrectable => "due",
            EccOutcome::Undetected => "undetected",
        }
    }
}

/// A fault targeting the placement scheme's own structures (NM ways,
/// subblocks, remap metadata). Delivered to `MemoryScheme::apply_fault`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeFault {
    /// An NM associative way went unhealthy: evacuate and mask it.
    DegradeWay {
        /// Way index (`< associativity`).
        way: u8,
    },
    /// A previously degraded way was repaired and rejoins the probe.
    RestoreWay {
        /// Way index (`< associativity`).
        way: u8,
    },
    /// A transient bit flip in one resident NM subblock.
    BitFlip {
        /// NM frame index the flip landed in.
        frame: u32,
        /// Subblock slot within the frame.
        subblock: u8,
        /// ECC outcome, pre-drawn by the schedule generator.
        ecc: EccOutcome,
    },
    /// A parity error in the frame's remap/metadata entry.
    MetadataParity {
        /// NM frame index whose metadata was hit.
        frame: u32,
    },
}

/// A fault targeting one DRAM channel's timing behavior. Delivered to
/// `DramModel::inject_channel_fault`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelFault {
    /// The channel stops making progress for a window; queued and newly
    /// arriving commands complete only after the window closes.
    Stall {
        /// Channel index within the device.
        channel: u8,
        /// Stall length in **CPU-domain** cycles (the model converts to its
        /// own memory clock).
        duration_cycles: u64,
    },
    /// The channel hard-fails: every command is NACKed at a fixed penalty
    /// until a matching [`ChannelFault::Repair`] arrives.
    Fail {
        /// Channel index within the device.
        channel: u8,
    },
    /// A failed or stalled channel returns to healthy service.
    Repair {
        /// Channel index within the device.
        channel: u8,
    },
}

impl ChannelFault {
    /// The channel this fault targets.
    pub fn channel(self) -> u8 {
        match self {
            ChannelFault::Stall { channel, .. }
            | ChannelFault::Fail { channel }
            | ChannelFault::Repair { channel } => channel,
        }
    }
}

/// One fault, routed to the component that models it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A fault in the placement scheme's structures.
    Scheme(SchemeFault),
    /// A fault in one DRAM device's channel.
    Dram {
        /// Which device (NM = HBM stack, FM = DDR) is affected.
        device: MemKind,
        /// The channel-level fault.
        fault: ChannelFault,
    },
}

/// A fault stamped with the CPU-domain simulation cycle it fires at.
///
/// Schedules are sorted by `at`; the driver delivers every fault whose time
/// has come before processing the next demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// CPU-domain cycle at (or after) which the fault is delivered.
    pub at: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// What actually happened when a fault was applied: the recovery outcome
/// the fault ledger checks conservation over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEffect {
    /// The fault was absorbed with no data impact (ECC correction, parity
    /// error on an empty entry, degradation of an already-degraded way).
    Corrected,
    /// Data was moved or invalidated to survive the fault; nothing was lost.
    Recovered,
    /// At least one subblock's only copy became unreachable: data loss,
    /// reported via a `Poisoned` trace event and the poison counters.
    Poisoned,
    /// The fault had no observable target (silent/undetected, or aimed at
    /// state that does not exist) and was dropped.
    Masked,
}

impl FaultEffect {
    /// Short lowercase label used by reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultEffect::Corrected => "corrected",
            FaultEffect::Recovered => "recovered",
            FaultEffect::Poisoned => "poisoned",
            FaultEffect::Masked => "masked",
        }
    }
}

/// Degraded-way count at which the controller engages bypass-all failover:
/// half the ways (rounded up), never less than one. Shared by the
/// controller and the failover oracle so both sides honor one formula.
pub fn failover_engage_threshold(associativity: u32) -> u32 {
    associativity.div_ceil(2).max(1)
}

/// Degraded-way count at (or below) which an engaged failover disengages:
/// a quarter of the ways, rounded down. Strictly below the engage threshold
/// for every associativity, which is what makes the hysteresis band real.
pub fn failover_disengage_threshold(associativity: u32) -> u32 {
    associativity / 4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hysteresis_band_is_nonempty_for_all_assocs() {
        for assoc in 1..=64 {
            let engage = failover_engage_threshold(assoc);
            let disengage = failover_disengage_threshold(assoc);
            assert!(engage >= 1);
            assert!(
                disengage < engage,
                "assoc {assoc}: disengage {disengage} >= engage {engage}"
            );
        }
        assert_eq!(failover_engage_threshold(4), 2);
        assert_eq!(failover_disengage_threshold(4), 1);
        assert_eq!(failover_engage_threshold(1), 1);
        assert_eq!(failover_disengage_threshold(1), 0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(EccOutcome::Corrected.label(), "corrected");
        assert_eq!(EccOutcome::DetectedUncorrectable.label(), "due");
        assert_eq!(EccOutcome::Undetected.label(), "undetected");
        assert_eq!(FaultEffect::Poisoned.label(), "poisoned");
        assert_eq!(FaultEffect::Masked.label(), "masked");
    }

    #[test]
    fn channel_accessor_covers_all_variants() {
        assert_eq!(
            ChannelFault::Stall {
                channel: 3,
                duration_cycles: 100
            }
            .channel(),
            3
        );
        assert_eq!(ChannelFault::Fail { channel: 1 }.channel(), 1);
        assert_eq!(ChannelFault::Repair { channel: 7 }.channel(), 7);
    }

    #[test]
    fn scheduled_fault_is_copy_and_small() {
        // Schedules hold thousands of these; keep them compact.
        assert!(core::mem::size_of::<ScheduledFault>() <= 32);
        let f = ScheduledFault {
            at: 10,
            kind: FaultKind::Dram {
                device: MemKind::Near,
                fault: ChannelFault::Fail { channel: 0 },
            },
        };
        let g = f;
        assert_eq!(f, g);
    }
}
