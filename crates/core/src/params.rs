//! SILC-FM configuration parameters and the Fig. 6 feature ladder.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use core::fmt;

/// Tunable parameters of the SILC-FM controller.
///
/// Defaults are the paper's published values: 4-way associativity, lock
/// threshold 50 on 6-bit aging counters halved every million accesses,
/// bypass target 0.8, a 4 K-entry way predictor and a 1 M-entry bit-vector
/// history table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SilcFmParams {
    /// Ways per congruence set (1, 2 or 4 in the paper's sweep).
    pub associativity: u32,
    /// Whether hot blocks are locked into NM (§III-C).
    pub locking: bool,
    /// Minimum number of distinct subblocks a tenancy must have used before
    /// its block may be locked. Locking fetches the whole 2 KB block, which
    /// only pays back for blocks whose observed footprint is dense; the
    /// paper locks on access count alone but leaves the density question
    /// open.
    pub lock_min_resident: u32,
    /// Hotness threshold on the 6-bit activity counters (50 in the paper).
    pub lock_threshold: u8,
    /// Memory accesses between counter agings (right shifts); 1 M in the
    /// paper.
    pub aging_period: u64,
    /// Whether bandwidth-balancing bypass is enabled (§III-E).
    pub bypass: bool,
    /// Access-rate target above which swap-ins are suspended (0.8 for the
    /// 4:1 NM:FM bandwidth ratio).
    pub bypass_target: f64,
    /// Effective window (accesses) of the access-rate estimator.
    pub bypass_window: u64,
    /// Whether evicted bit vectors are saved and replayed (§III-A).
    pub history_fetch: bool,
    /// Entries in the bit-vector history table (1 M in the paper).
    pub history_entries: usize,
    /// Whether the way/location predictor is enabled (§III-F).
    pub predictor: bool,
    /// Entries in the predictor (4 K in the paper).
    pub predictor_entries: usize,
}

impl SilcFmParams {
    /// The paper's full configuration.
    pub const fn paper() -> Self {
        Self {
            associativity: 4,
            locking: true,
            lock_min_resident: 8,
            lock_threshold: 50,
            aging_period: 1_000_000,
            bypass: true,
            bypass_target: 0.8,
            bypass_window: 10_000,
            history_fetch: true,
            history_entries: 1 << 20,
            predictor: true,
            predictor_entries: 4 << 10,
        }
    }

    /// Fig. 6 rung 1 — "SILC-FM swap": direct-mapped subblock swapping only
    /// (no locking, associativity or bypassing).
    pub const fn swap_only() -> Self {
        Self {
            associativity: 1,
            locking: false,
            bypass: false,
            ..Self::paper()
        }
    }

    /// Fig. 6 rung 2 — adds hot-block locking.
    pub const fn with_locking() -> Self {
        Self {
            locking: true,
            ..Self::swap_only()
        }
    }

    /// Fig. 6 rung 3 — adds 4-way associativity.
    pub const fn with_associativity() -> Self {
        Self {
            associativity: 4,
            ..Self::with_locking()
        }
    }

    /// Fig. 6 rung 4 — adds bypassing; identical to [`SilcFmParams::paper`].
    pub const fn with_bypass() -> Self {
        Self {
            bypass: true,
            ..Self::with_associativity()
        }
    }

    /// Validates invariants the controller relies on.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated invariant.
    pub fn validate(&self) -> Result<(), ParamsError> {
        if !self.associativity.is_power_of_two() || self.associativity > 16 {
            return Err(ParamsError::BadAssociativity(self.associativity));
        }
        if self.lock_threshold > 63 {
            return Err(ParamsError::ThresholdExceedsCounter(self.lock_threshold));
        }
        if !(0.0..=1.0).contains(&self.bypass_target) {
            return Err(ParamsError::BadBypassTarget(self.bypass_target));
        }
        if self.history_entries == 0 || self.predictor_entries == 0 {
            return Err(ParamsError::EmptyTable);
        }
        Ok(())
    }
}

impl Default for SilcFmParams {
    fn default() -> Self {
        Self::paper()
    }
}

/// Invalid [`SilcFmParams`] combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamsError {
    /// Associativity must be a power of two up to 16.
    BadAssociativity(u32),
    /// The lock threshold must fit a 6-bit counter.
    ThresholdExceedsCounter(u8),
    /// The bypass target must lie in `[0, 1]`.
    BadBypassTarget(f64),
    /// Table sizes must be non-zero.
    EmptyTable,
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadAssociativity(a) => write!(f, "associativity {a} is not a power of two <= 16"),
            Self::ThresholdExceedsCounter(t) => {
                write!(
                    f,
                    "lock threshold {t} exceeds the 6-bit counter maximum of 63"
                )
            }
            Self::BadBypassTarget(t) => write!(f, "bypass target {t} is outside [0, 1]"),
            Self::EmptyTable => write!(f, "history and predictor tables must be non-empty"),
        }
    }
}

impl std::error::Error for ParamsError {}

impl From<ParamsError> for silcfm_types::SilcFmError {
    fn from(e: ParamsError) -> Self {
        silcfm_types::SilcFmError::params(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let p = SilcFmParams::paper();
        assert_eq!(p.associativity, 4);
        assert_eq!(p.lock_threshold, 50);
        assert_eq!(p.aging_period, 1_000_000);
        assert!((p.bypass_target - 0.8).abs() < 1e-12);
        assert_eq!(p.history_entries, 1 << 20);
        assert_eq!(p.predictor_entries, 4096);
        assert_eq!(SilcFmParams::default(), p);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn feature_ladder_is_monotone() {
        let swap = SilcFmParams::swap_only();
        assert_eq!(swap.associativity, 1);
        assert!(!swap.locking);
        assert!(!swap.bypass);

        let lock = SilcFmParams::with_locking();
        assert!(lock.locking);
        assert_eq!(lock.associativity, 1);

        let assoc = SilcFmParams::with_associativity();
        assert_eq!(assoc.associativity, 4);
        assert!(!assoc.bypass);

        let full = SilcFmParams::with_bypass();
        assert_eq!(full, SilcFmParams::paper());
    }

    #[test]
    fn validation_rejects_bad_values() {
        let mut p = SilcFmParams::paper();
        p.associativity = 3;
        assert_eq!(p.validate(), Err(ParamsError::BadAssociativity(3)));

        let mut p = SilcFmParams::paper();
        p.lock_threshold = 64;
        assert_eq!(p.validate(), Err(ParamsError::ThresholdExceedsCounter(64)));

        let mut p = SilcFmParams::paper();
        p.bypass_target = 1.5;
        assert!(matches!(p.validate(), Err(ParamsError::BadBypassTarget(_))));

        let mut p = SilcFmParams::paper();
        p.history_entries = 0;
        assert_eq!(p.validate(), Err(ParamsError::EmptyTable));
    }

    #[test]
    fn params_error_converts_to_typed_workspace_error() {
        let e: silcfm_types::SilcFmError = ParamsError::BadAssociativity(3).into();
        assert!(matches!(e, silcfm_types::SilcFmError::Params { .. }));
        assert!(e.to_string().contains("associativity 3"));
    }

    #[test]
    fn error_messages_are_nonempty() {
        for e in [
            ParamsError::BadAssociativity(3),
            ParamsError::ThresholdExceedsCounter(99),
            ParamsError::BadBypassTarget(2.0),
            ParamsError::EmptyTable,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
