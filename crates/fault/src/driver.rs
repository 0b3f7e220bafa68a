//! The run-time side of the fault plane: the delivery cursor and the
//! effect ledger the property tests audit.

use silcfm_types::fault::{
    failover_disengage_threshold, failover_engage_threshold, FaultEffect, FaultKind,
    ScheduledFault, SchemeFault,
};

use crate::schedule::FaultSchedule;

/// A cursor over a [`FaultSchedule`] that hands out faults as simulation
/// time passes. The driving loop calls [`pop_due`](FaultDriver::pop_due) in
/// a `while let` before each demand access; delivery order is exactly
/// schedule order, so runs replay bit-identically.
#[derive(Debug, Clone)]
pub struct FaultDriver {
    faults: Vec<ScheduledFault>,
    cursor: usize,
}

impl FaultDriver {
    /// Builds a driver positioned at the start of `schedule`.
    pub fn new(schedule: FaultSchedule) -> Self {
        Self {
            faults: schedule.faults().to_vec(),
            cursor: 0,
        }
    }

    /// Returns the next fault whose delivery cycle is `<= now`, advancing
    /// past it, or `None` when no fault is due yet.
    pub fn pop_due(&mut self, now: u64) -> Option<ScheduledFault> {
        let f = *self.faults.get(self.cursor)?;
        if f.at <= now {
            self.cursor += 1;
            Some(f)
        } else {
            None
        }
    }

    /// Faults not yet delivered.
    pub fn remaining(&self) -> usize {
        self.faults.len() - self.cursor
    }

    /// Total faults in the underlying schedule.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// `true` when the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Rewinds to the start of the schedule (for replay runs).
    pub fn reset(&mut self) {
        self.cursor = 0;
    }
}

/// The effect ledger: one increment per delivered fault, bucketed by
/// [`FaultEffect`]. The fault plane's core invariant is
/// [`conserved`](FaultStats::conserved) — no delivered fault may vanish
/// without an accounted outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Faults delivered to any component.
    pub injected: u64,
    /// Absorbed with no data impact (ECC corrections, timing-only faults).
    pub corrected: u64,
    /// Survived through a degraded-service path (evacuation, invalidation,
    /// NACK-and-retry); nothing lost.
    pub recovered: u64,
    /// Data loss: a resident subblock's only copy became unreachable.
    pub poisoned: u64,
    /// No observable target (silent flips, faults aimed at absent state).
    pub masked: u64,
}

impl FaultStats {
    /// Records one delivery and its effect.
    pub fn record(&mut self, effect: FaultEffect) {
        self.injected += 1;
        match effect {
            FaultEffect::Corrected => self.corrected += 1,
            FaultEffect::Recovered => self.recovered += 1,
            FaultEffect::Poisoned => self.poisoned += 1,
            FaultEffect::Masked => self.masked += 1,
        }
    }

    /// `true` when every injected fault has exactly one accounted effect.
    pub fn conserved(&self) -> bool {
        self.injected == self.corrected + self.recovered + self.poisoned + self.masked
    }

    /// Folds another ledger into this one (grid aggregation).
    pub fn merge(&mut self, other: &FaultStats) {
        self.injected += other.injected;
        self.corrected += other.corrected;
        self.recovered += other.recovered;
        self.poisoned += other.poisoned;
        self.masked += other.masked;
    }
}

/// Replays the way degradations/repairs in `faults` through the shared
/// hysteresis thresholds and returns the failover transitions a correct
/// controller must emit: `(cycle, engaged)` pairs, alternating starting
/// with `engaged == true`. Pass a prefix of
/// [`FaultSchedule::faults`] to model a run that ended before the whole
/// schedule was delivered.
///
/// This is schedule-only arithmetic — no controller state — which is what
/// lets the property tests check the controller against an independent
/// oracle.
pub fn expected_failover_transitions(
    faults: &[ScheduledFault],
    associativity: u32,
) -> Vec<(u64, bool)> {
    let engage_at = failover_engage_threshold(associativity);
    let disengage_at = failover_disengage_threshold(associativity);
    let mut degraded = vec![false; associativity as usize];
    let mut engaged = false;
    let mut out = Vec::new();
    for f in faults {
        let count_was = degraded.iter().filter(|d| **d).count() as u32;
        match f.kind {
            FaultKind::Scheme(SchemeFault::DegradeWay { way }) => {
                if let Some(d) = degraded.get_mut(way as usize) {
                    *d = true;
                }
            }
            FaultKind::Scheme(SchemeFault::RestoreWay { way }) => {
                if let Some(d) = degraded.get_mut(way as usize) {
                    *d = false;
                }
            }
            _ => continue,
        }
        let count = degraded.iter().filter(|d| **d).count() as u32;
        if count == count_was {
            continue;
        }
        if !engaged && count >= engage_at {
            engaged = true;
            out.push((f.at, true));
        } else if engaged && count <= disengage_at {
            engaged = false;
            out.push((f.at, false));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{FaultRates, FaultTopology};

    fn topo() -> FaultTopology {
        FaultTopology {
            nm_ways: 4,
            nm_frames: 1024,
            subblocks: 32,
            nm_channels: 8,
            fm_channels: 4,
        }
    }

    #[test]
    fn driver_delivers_in_order_and_respects_time() {
        let s = FaultSchedule::generate(9, 2_000_000, &FaultRates::harsh(), &topo()).unwrap();
        let total = s.len();
        let mut d = FaultDriver::new(s);
        assert_eq!(d.remaining(), total);
        assert!(d.pop_due(0).is_none() || d.faults[0].at == 0);
        let mut seen = 0;
        let mut prev_at = 0;
        while let Some(f) = d.pop_due(u64::MAX) {
            assert!(f.at >= prev_at);
            prev_at = f.at;
            seen += 1;
        }
        assert_eq!(seen, total);
        assert_eq!(d.remaining(), 0);
        d.reset();
        assert_eq!(d.remaining(), total);
    }

    #[test]
    fn pop_due_holds_future_faults() {
        let s = FaultSchedule::generate(11, 1_000_000, &FaultRates::harsh(), &topo()).unwrap();
        assert!(!s.is_empty());
        let first_at = s.faults()[0].at;
        let mut d = FaultDriver::new(s);
        if first_at > 0 {
            assert!(d.pop_due(first_at - 1).is_none());
        }
        assert!(d.pop_due(first_at).is_some());
    }

    #[test]
    fn stats_conserve_exactly_when_every_effect_recorded() {
        let mut st = FaultStats::default();
        st.record(FaultEffect::Corrected);
        st.record(FaultEffect::Recovered);
        st.record(FaultEffect::Poisoned);
        st.record(FaultEffect::Masked);
        assert!(st.conserved());
        assert_eq!(st.injected, 4);
        st.injected += 1; // a delivery that lost its effect
        assert!(!st.conserved());
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = FaultStats {
            injected: 2,
            corrected: 1,
            recovered: 1,
            ..Default::default()
        };
        let b = FaultStats {
            injected: 3,
            poisoned: 2,
            masked: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.injected, 5);
        assert!(a.conserved());
    }

    #[test]
    fn expected_transitions_alternate_and_start_engaged() {
        let s = FaultSchedule::generate(21, 6_000_000, &FaultRates::harsh(), &topo()).unwrap();
        let tr = expected_failover_transitions(s.faults(), 4);
        for (i, (_, engaged)) in tr.iter().enumerate() {
            // First transition engages; they alternate thereafter.
            assert_eq!(*engaged, i % 2 == 0);
        }
        let mut prev = 0;
        for (at, _) in &tr {
            assert!(*at >= prev);
            prev = *at;
        }
    }
}
