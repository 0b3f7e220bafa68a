//! Fault-schedule generation: one seed in, a sorted fault timeline out.
//!
//! Rates are expressed as *expected events per million CPU cycles*; the
//! generator converts each to an event count over the horizon (integer part
//! plus one Bernoulli draw on the fraction), places the events uniformly in
//! time, and draws per-event payloads (target frame, subblock, channel, ECC
//! outcome) from the same per-class stream. Each class's stream seed comes
//! from `SplitMix64::split(class_id)`, so classes are decorrelated and
//! enabling one never shifts another's timeline.

use silcfm_types::error::SilcFmError;
use silcfm_types::fault::{ChannelFault, EccOutcome, FaultKind, ScheduledFault, SchemeFault};
use silcfm_types::rng::{Rng, SplitMix64, Xoshiro256StarStar};
use silcfm_types::MemKind;

/// Per-class stream salts. Distinct constants (not 0..n) so a schedule's
/// streams stay stable even if classes are later reordered.
const CLASS_WAY: u64 = 0xFA01;
const CLASS_FLIP: u64 = 0xFA02;
const CLASS_PARITY: u64 = 0xFA03;
const CLASS_NM_CHANNEL: u64 = 0xFA04;
const CLASS_FM_CHANNEL: u64 = 0xFA05;

/// Expected fault intensities, all per **million CPU cycles** unless noted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// NM way degradation events.
    pub way_degrade_per_m: f64,
    /// CPU cycles between a way degradation and its scheduled repair;
    /// `0` means degraded ways are never repaired.
    pub way_repair_delay: u64,
    /// Transient subblock bit flips.
    pub bit_flip_per_m: f64,
    /// Probability a flip is ECC-corrected.
    pub ecc_correct_p: f64,
    /// Probability a flip is detected but uncorrectable (DUE). The
    /// remainder (`1 - correct - due`) is silent/undetected.
    pub ecc_due_p: f64,
    /// Remap/metadata parity errors.
    pub metadata_parity_per_m: f64,
    /// DRAM channel stall windows (split between NM and FM devices).
    pub channel_stall_per_m: f64,
    /// Length of one stall window, in CPU cycles.
    pub channel_stall_cycles: u64,
    /// DRAM channel hard failures (split between NM and FM devices).
    pub channel_fail_per_m: f64,
    /// CPU cycles between a channel failure and its scheduled repair;
    /// `0` means failed channels stay down.
    pub channel_repair_delay: u64,
}

impl FaultRates {
    /// No faults at all: generates an empty schedule. The behavioral
    /// baseline every golden test pins.
    pub fn none() -> Self {
        Self {
            way_degrade_per_m: 0.0,
            way_repair_delay: 0,
            bit_flip_per_m: 0.0,
            ecc_correct_p: 0.95,
            ecc_due_p: 0.04,
            metadata_parity_per_m: 0.0,
            channel_stall_per_m: 0.0,
            channel_stall_cycles: 0,
            channel_fail_per_m: 0.0,
            channel_repair_delay: 0,
        }
    }

    /// A mild mixed workload of every fault class — the property tests'
    /// gentle setting: enough events to exercise all recovery paths without
    /// drowning the run.
    pub fn gentle() -> Self {
        Self {
            way_degrade_per_m: 2.0,
            way_repair_delay: 200_000,
            bit_flip_per_m: 20.0,
            ecc_correct_p: 0.90,
            ecc_due_p: 0.08,
            metadata_parity_per_m: 4.0,
            channel_stall_per_m: 4.0,
            channel_stall_cycles: 10_000,
            channel_fail_per_m: 1.0,
            channel_repair_delay: 300_000,
        }
    }

    /// An aggressive soak: frequent faults in every class, repairs enabled
    /// so failover engages *and* disengages within one run.
    pub fn harsh() -> Self {
        Self {
            way_degrade_per_m: 12.0,
            way_repair_delay: 60_000,
            bit_flip_per_m: 120.0,
            ecc_correct_p: 0.80,
            ecc_due_p: 0.15,
            metadata_parity_per_m: 30.0,
            channel_stall_per_m: 20.0,
            channel_stall_cycles: 5_000,
            channel_fail_per_m: 6.0,
            channel_repair_delay: 80_000,
        }
    }

    /// Checks every rate and probability for sanity.
    pub fn validate(&self) -> Result<(), SilcFmError> {
        let rates = [
            ("way_degrade_per_m", self.way_degrade_per_m),
            ("bit_flip_per_m", self.bit_flip_per_m),
            ("metadata_parity_per_m", self.metadata_parity_per_m),
            ("channel_stall_per_m", self.channel_stall_per_m),
            ("channel_fail_per_m", self.channel_fail_per_m),
        ];
        for (name, r) in rates {
            if !r.is_finite() || r < 0.0 {
                return Err(SilcFmError::fault_config(format!(
                    "{name} must be finite and >= 0, got {r}"
                )));
            }
        }
        for (name, p) in [
            ("ecc_correct_p", self.ecc_correct_p),
            ("ecc_due_p", self.ecc_due_p),
        ] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(SilcFmError::fault_config(format!(
                    "{name} must be in [0, 1], got {p}"
                )));
            }
        }
        if self.ecc_correct_p + self.ecc_due_p > 1.0 {
            return Err(SilcFmError::fault_config(format!(
                "ecc_correct_p + ecc_due_p must be <= 1, got {}",
                self.ecc_correct_p + self.ecc_due_p
            )));
        }
        if self.channel_stall_per_m > 0.0 && self.channel_stall_cycles == 0 {
            return Err(SilcFmError::fault_config(
                "channel_stall_cycles must be > 0 when stalls are enabled",
            ));
        }
        Ok(())
    }
}

/// The shape of the hardware the generator aims faults at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultTopology {
    /// NM associative ways (SILC-FM's `associativity`).
    pub nm_ways: u8,
    /// Total NM frames (fault targets for flips and parity errors).
    pub nm_frames: u32,
    /// Subblock slots per frame.
    pub subblocks: u8,
    /// NM (HBM) channels.
    pub nm_channels: u8,
    /// FM (DDR) channels.
    pub fm_channels: u8,
}

impl FaultTopology {
    /// Checks every extent is non-zero.
    pub fn validate(&self) -> Result<(), SilcFmError> {
        let extents = [
            ("nm_ways", u32::from(self.nm_ways)),
            ("nm_frames", self.nm_frames),
            ("subblocks", u32::from(self.subblocks)),
            ("nm_channels", u32::from(self.nm_channels)),
            ("fm_channels", u32::from(self.fm_channels)),
        ];
        for (name, v) in extents {
            if v == 0 {
                return Err(SilcFmError::fault_config(format!("{name} must be > 0")));
            }
        }
        Ok(())
    }
}

/// A time-sorted fault timeline, fully determined by `(seed, horizon,
/// rates, topology)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSchedule {
    faults: Vec<ScheduledFault>,
}

/// Expected event count for one class: integer part of `rate_per_m *
/// horizon / 1e6` plus one Bernoulli draw on the fractional part.
fn event_count<R: Rng>(rng: &mut R, rate_per_m: f64, horizon: u64) -> u64 {
    if rate_per_m <= 0.0 || horizon == 0 {
        return 0;
    }
    let lambda = rate_per_m * horizon as f64 / 1_000_000.0;
    let base = lambda.floor();
    let extra = u64::from(rng.gen_bool(lambda - base));
    base as u64 + extra
}

impl FaultSchedule {
    /// Generates the schedule for `horizon` CPU cycles.
    pub fn generate(
        seed: u64,
        horizon: u64,
        rates: &FaultRates,
        topo: &FaultTopology,
    ) -> Result<Self, SilcFmError> {
        rates.validate()?;
        topo.validate()?;
        let root = SplitMix64::new(seed);
        let mut faults: Vec<ScheduledFault> = Vec::new();

        // NM way degradation (+ optional scheduled repair).
        let mut rng = Xoshiro256StarStar::seed_from_u64(root.split(CLASS_WAY));
        for _ in 0..event_count(&mut rng, rates.way_degrade_per_m, horizon) {
            let at = rng.gen_range(0..horizon.max(1));
            let way = rng.gen_range(0u32..u32::from(topo.nm_ways)) as u8;
            faults.push(ScheduledFault {
                at,
                kind: FaultKind::Scheme(SchemeFault::DegradeWay { way }),
            });
            if rates.way_repair_delay > 0 {
                faults.push(ScheduledFault {
                    at: at.saturating_add(rates.way_repair_delay),
                    kind: FaultKind::Scheme(SchemeFault::RestoreWay { way }),
                });
            }
        }

        // Transient subblock bit flips with pre-drawn ECC outcomes.
        let mut rng = Xoshiro256StarStar::seed_from_u64(root.split(CLASS_FLIP));
        for _ in 0..event_count(&mut rng, rates.bit_flip_per_m, horizon) {
            let at = rng.gen_range(0..horizon.max(1));
            let frame = rng.gen_range(0..topo.nm_frames);
            let subblock = rng.gen_range(0u32..u32::from(topo.subblocks)) as u8;
            let u = rng.next_f64();
            let ecc = if u < rates.ecc_correct_p {
                EccOutcome::Corrected
            } else if u < rates.ecc_correct_p + rates.ecc_due_p {
                EccOutcome::DetectedUncorrectable
            } else {
                EccOutcome::Undetected
            };
            faults.push(ScheduledFault {
                at,
                kind: FaultKind::Scheme(SchemeFault::BitFlip {
                    frame,
                    subblock,
                    ecc,
                }),
            });
        }

        // Remap/metadata parity errors.
        let mut rng = Xoshiro256StarStar::seed_from_u64(root.split(CLASS_PARITY));
        for _ in 0..event_count(&mut rng, rates.metadata_parity_per_m, horizon) {
            let at = rng.gen_range(0..horizon.max(1));
            let frame = rng.gen_range(0..topo.nm_frames);
            faults.push(ScheduledFault {
                at,
                kind: FaultKind::Scheme(SchemeFault::MetadataParity { frame }),
            });
        }

        // Channel stalls and hard failures, one stream per device.
        for (class, device, channels) in [
            (CLASS_NM_CHANNEL, MemKind::Near, topo.nm_channels),
            (CLASS_FM_CHANNEL, MemKind::Far, topo.fm_channels),
        ] {
            let mut rng = Xoshiro256StarStar::seed_from_u64(root.split(class));
            // Each device carries half the configured channel-fault rate.
            for _ in 0..event_count(&mut rng, rates.channel_stall_per_m / 2.0, horizon) {
                let at = rng.gen_range(0..horizon.max(1));
                let channel = rng.gen_range(0u32..u32::from(channels)) as u8;
                faults.push(ScheduledFault {
                    at,
                    kind: FaultKind::Dram {
                        device,
                        fault: ChannelFault::Stall {
                            channel,
                            duration_cycles: rates.channel_stall_cycles,
                        },
                    },
                });
            }
            for _ in 0..event_count(&mut rng, rates.channel_fail_per_m / 2.0, horizon) {
                let at = rng.gen_range(0..horizon.max(1));
                let channel = rng.gen_range(0u32..u32::from(channels)) as u8;
                faults.push(ScheduledFault {
                    at,
                    kind: FaultKind::Dram {
                        device,
                        fault: ChannelFault::Fail { channel },
                    },
                });
                if rates.channel_repair_delay > 0 {
                    faults.push(ScheduledFault {
                        at: at.saturating_add(rates.channel_repair_delay),
                        kind: FaultKind::Dram {
                            device,
                            fault: ChannelFault::Repair { channel },
                        },
                    });
                }
            }
        }

        // Stable sort: simultaneous faults keep their deterministic
        // generation order, so replays deliver in the exact same sequence.
        faults.sort_by_key(|f| f.at);
        Ok(Self { faults })
    }

    /// The timeline, sorted by delivery cycle.
    pub fn faults(&self) -> &[ScheduledFault] {
        &self.faults
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// ECC outcome counts over all scheduled bit flips:
    /// `(corrected, due, undetected)`. Used by the distribution property
    /// test to compare against the configured probabilities.
    pub fn ecc_histogram(&self) -> (u64, u64, u64) {
        let mut h = (0, 0, 0);
        for f in &self.faults {
            if let FaultKind::Scheme(SchemeFault::BitFlip { ecc, .. }) = f.kind {
                match ecc {
                    EccOutcome::Corrected => h.0 += 1,
                    EccOutcome::DetectedUncorrectable => h.1 += 1,
                    EccOutcome::Undetected => h.2 += 1,
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> FaultTopology {
        FaultTopology {
            nm_ways: 4,
            nm_frames: 4096,
            subblocks: 32,
            nm_channels: 8,
            fm_channels: 4,
        }
    }

    #[test]
    fn zero_rates_yield_empty_schedule() {
        let s = FaultSchedule::generate(1, 1_000_000, &FaultRates::none(), &topo()).unwrap();
        assert!(s.is_empty());
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultSchedule::generate(42, 2_000_000, &FaultRates::harsh(), &topo()).unwrap();
        let b = FaultSchedule::generate(42, 2_000_000, &FaultRates::harsh(), &topo()).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultSchedule::generate(1, 2_000_000, &FaultRates::harsh(), &topo()).unwrap();
        let b = FaultSchedule::generate(2, 2_000_000, &FaultRates::harsh(), &topo()).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn schedule_is_time_sorted_and_targets_in_range() {
        let s = FaultSchedule::generate(7, 3_000_000, &FaultRates::harsh(), &topo()).unwrap();
        let t = topo();
        let mut prev = 0;
        for f in s.faults() {
            assert!(f.at >= prev);
            prev = f.at;
            match f.kind {
                FaultKind::Scheme(SchemeFault::DegradeWay { way })
                | FaultKind::Scheme(SchemeFault::RestoreWay { way }) => {
                    assert!(way < t.nm_ways);
                }
                FaultKind::Scheme(SchemeFault::BitFlip {
                    frame, subblock, ..
                }) => {
                    assert!(frame < t.nm_frames);
                    assert!(subblock < t.subblocks);
                }
                FaultKind::Scheme(SchemeFault::MetadataParity { frame }) => {
                    assert!(frame < t.nm_frames);
                }
                FaultKind::Dram { device, fault } => {
                    let chans = match device {
                        MemKind::Near => t.nm_channels,
                        MemKind::Far => t.fm_channels,
                    };
                    assert!(fault.channel() < chans);
                }
            }
        }
    }

    #[test]
    fn every_degrade_gets_a_repair_when_delay_set() {
        let rates = FaultRates::harsh();
        let s = FaultSchedule::generate(3, 4_000_000, &rates, &topo()).unwrap();
        let degrades = s
            .faults()
            .iter()
            .filter(|f| matches!(f.kind, FaultKind::Scheme(SchemeFault::DegradeWay { .. })))
            .count();
        let repairs = s
            .faults()
            .iter()
            .filter(|f| matches!(f.kind, FaultKind::Scheme(SchemeFault::RestoreWay { .. })))
            .count();
        assert_eq!(degrades, repairs);
        assert!(degrades > 0);
    }

    #[test]
    fn validation_rejects_bad_rates() {
        let mut r = FaultRates::none();
        r.bit_flip_per_m = -1.0;
        assert!(r.validate().is_err());
        let mut r = FaultRates::none();
        r.ecc_correct_p = 0.9;
        r.ecc_due_p = 0.2;
        assert!(r.validate().is_err());
        let mut r = FaultRates::none();
        r.channel_stall_per_m = 1.0;
        r.channel_stall_cycles = 0;
        assert!(r.validate().is_err());
        let mut t = topo();
        t.nm_ways = 0;
        assert!(t.validate().is_err());
    }
}
