//! The request conservation ledger.
//!
//! Every request the load generator offers must end in exactly one
//! disposition — completed within deadline, shed at admission, timed out,
//! or failed after exhausting its retry budget. [`RequestLedger::conserved`]
//! is the invariant the property tests check on every run: a request that
//! vanishes (or is double-counted) means the serving plane lost track of
//! work, which is precisely the bug class SLO accounting exists to rule
//! out.

/// End-of-run request accounting for one serving trial.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestLedger {
    /// Requests the open-loop generator offered (admitted + shed).
    pub offered: u64,
    /// Requests the admission controller let through to the engine.
    pub admitted: u64,
    /// Admitted requests that completed within their deadline.
    pub completed: u64,
    /// Requests shed at admission (predicted wait exceeded the deadline,
    /// or the trial's record capacity was exhausted).
    pub shed: u64,
    /// Admitted requests that missed their deadline (including retry
    /// ladders that ran past it).
    pub timed_out: u64,
    /// Admitted requests abandoned after exhausting their retry budget.
    pub failed: u64,
    /// Retry attempts actually issued (not a disposition — attempts ride
    /// on their request's final disposition).
    pub retries: u64,
}

impl RequestLedger {
    /// `true` when every offered request has exactly one disposition and
    /// the admitted population is internally consistent.
    pub const fn conserved(&self) -> bool {
        self.offered == self.completed + self.shed + self.timed_out + self.failed
            && self.admitted == self.completed + self.timed_out + self.failed
            && self.offered == self.admitted + self.shed
    }

    /// Completed fraction of offered load (1.0 when nothing was offered).
    pub fn goodput(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.completed as f64 / self.offered as f64
        }
    }

    /// Shed fraction of offered load (0.0 when nothing was offered).
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }

    /// Folds another ledger into this one (per-lane → per-run
    /// aggregation).
    pub fn merge(&mut self, other: &RequestLedger) {
        self.offered += other.offered;
        self.admitted += other.admitted;
        self.completed += other.completed;
        self.shed += other.shed;
        self.timed_out += other.timed_out;
        self.failed += other.failed;
        self.retries += other.retries;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_holds_and_breaks_as_expected() {
        let mut l = RequestLedger {
            offered: 10,
            admitted: 7,
            completed: 5,
            shed: 3,
            timed_out: 1,
            failed: 1,
            retries: 4,
        };
        assert!(l.conserved());
        l.completed += 1; // a request counted twice
        assert!(!l.conserved());
    }

    #[test]
    fn merge_adds_fieldwise() {
        let a = RequestLedger {
            offered: 4,
            admitted: 3,
            completed: 3,
            shed: 1,
            ..RequestLedger::default()
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.offered, 8);
        assert_eq!(b.completed, 6);
        assert!(b.conserved());
    }

    #[test]
    fn rates_handle_empty_runs() {
        let l = RequestLedger::default();
        assert!(l.conserved());
        assert_eq!(l.goodput(), 1.0);
        assert_eq!(l.shed_rate(), 0.0);
    }
}
