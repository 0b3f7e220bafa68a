//! The AIMD rate regulator searching a scheme's maximum sustainable RPS.
//!
//! Modeled on rd-hashd's load bench: offer a rate, run a full trial,
//! observe whether the SLO held, and adjust — additive increase while
//! compliant, multiplicative decrease on violation. The regulator is a pure
//! state machine over `(rate, observation)`; the engine feedback it
//! consumes crosses *trials*, never a single run's record stream, so each
//! trial remains a pure function of its offered rate and the whole search
//! is deterministic and journal-resumable.

/// AIMD tuning knobs. Rates are requests per million cycles per lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AimdParams {
    /// Floor the multiplicative decrease never crosses.
    pub min_rate: u64,
    /// First trial's rate.
    pub start_rate: u64,
    /// Additive increase applied after a compliant trial.
    pub add_step: u64,
    /// Multiplicative decrease numerator (rate scales by `num/den` on a
    /// violated trial).
    pub decrease_num: u64,
    /// Multiplicative decrease denominator.
    pub decrease_den: u64,
    /// Trials in one search.
    pub trials: u32,
}

impl AimdParams {
    /// Search configuration of the `slo` bench's full mode.
    pub const fn default_search() -> Self {
        Self {
            min_rate: 2,
            start_rate: 20,
            add_step: 6,
            decrease_num: 3,
            decrease_den: 4,
            trials: 12,
        }
    }
}

/// The regulator: holds the next rate to offer and the best rate that met
/// the SLO so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aimd {
    params: AimdParams,
    rate: u64,
    best_ok: u64,
    observed: u32,
}

impl Aimd {
    /// A fresh search at `params.start_rate`.
    pub const fn new(params: AimdParams) -> Self {
        Self {
            params,
            rate: params.start_rate,
            best_ok: 0,
            observed: 0,
        }
    }

    /// The rate the next trial should offer.
    pub const fn rate(&self) -> u64 {
        self.rate
    }

    /// Highest rate that met the SLO so far (0 until one does).
    pub const fn best_ok(&self) -> u64 {
        self.best_ok
    }

    /// Trials observed so far.
    pub const fn observed(&self) -> u32 {
        self.observed
    }

    /// Whether the search has consumed its trial budget.
    pub const fn done(&self) -> bool {
        self.observed >= self.params.trials
    }

    /// Feeds one trial's outcome: `met` is whether the offered rate held
    /// the SLO. Additive increase on success, multiplicative decrease on
    /// violation (never below `min_rate`).
    pub fn observe(&mut self, met: bool) {
        self.observed += 1;
        if met {
            self.best_ok = self.best_ok.max(self.rate);
            self.rate = self.rate.saturating_add(self.params.add_step);
        } else {
            let den = self.params.decrease_den.max(1);
            self.rate = (self.rate * self.params.decrease_num / den).max(self.params.min_rate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a search against a synthetic capacity cliff: rates at or
    /// below `capacity` meet the SLO, anything above violates it.
    fn search(capacity: u64, params: AimdParams) -> Aimd {
        let mut a = Aimd::new(params);
        while !a.done() {
            let met = a.rate() <= capacity;
            a.observe(met);
        }
        a
    }

    #[test]
    fn converges_onto_a_synthetic_capacity() {
        let params = AimdParams {
            trials: 30,
            ..AimdParams::default_search()
        };
        let a = search(48, params);
        // best_ok ends within one additive step of the true capacity.
        assert!(a.best_ok() <= 48);
        assert!(
            a.best_ok() + params.add_step > 48,
            "best_ok {} too far below capacity",
            a.best_ok()
        );
    }

    #[test]
    fn floor_is_respected_when_nothing_complies() {
        let a = search(0, AimdParams::default_search());
        assert_eq!(a.best_ok(), 0);
        assert!(a.rate() >= AimdParams::default_search().min_rate);
    }

    #[test]
    fn searches_are_pure_functions_of_observations() {
        let a = search(48, AimdParams::default_search());
        let b = search(48, AimdParams::default_search());
        assert_eq!(a, b);
    }
}
