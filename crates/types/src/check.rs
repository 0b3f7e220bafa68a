//! A minimal fixed-seed property-testing harness.
//!
//! The workspace's property tests used to ride on an external framework;
//! this harness replaces it with ~60 lines over [`crate::rng`], keeping the
//! build hermetic. The trade-offs are deliberate:
//!
//! * **Fixed seeding.** Every case's generator is derived from a constant
//!   base seed and the case index, so CI failures reproduce locally with no
//!   persistence files.
//! * **No shrinking.** On failure the harness prints the property name, case
//!   index and the exact seed; [`forall_seed`] reruns that one case under a
//!   debugger.
//!
//! # Example
//!
//! ```
//! use silcfm_types::check::forall;
//! use silcfm_types::rng::Rng;
//!
//! forall("addition commutes", |rng| {
//!     let (a, b) = (rng.next_u32(), rng.next_u32());
//!     assert_eq!(u64::from(a) + u64::from(b), u64::from(b) + u64::from(a));
//! });
//! ```

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::rng::{SplitMix64, Xoshiro256StarStar};

/// Cases run per property (the harness's `proptest` heritage shows: enough
/// to catch off-by-ones and invariant violations, small enough for tier-1).
pub const DEFAULT_CASES: u64 = 256;

/// Base seed all properties derive their case seeds from. Changing it
/// reshuffles every property's inputs at once — bump it when a generator
/// change would otherwise silently keep exercising the same corner.
pub const BASE_SEED: u64 = 0x51_1CF1_2017;

/// Runs `property` over [`DEFAULT_CASES`] generated cases.
///
/// # Panics
///
/// Re-raises the property's panic after printing the failing case's seed.
pub fn forall<F>(name: &str, property: F)
where
    F: Fn(&mut Xoshiro256StarStar),
{
    forall_cases(name, DEFAULT_CASES, property);
}

/// Runs `property` over `cases` generated cases (for expensive properties
/// that need fewer, or cheap ones that deserve more).
///
/// # Panics
///
/// Re-raises the property's panic after printing the failing case's seed.
pub fn forall_cases<F>(name: &str, cases: u64, property: F)
where
    F: Fn(&mut Xoshiro256StarStar),
{
    let base = SplitMix64::new(BASE_SEED);
    for case in 0..cases {
        let seed = base.split(case);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            property(&mut rng);
        }));
        if let Err(panic) = outcome {
            eprintln!(
                "property '{name}' failed at case {case}/{cases} (seed {seed:#018x}); \
                 rerun just this case with `forall_seed(\"{name}\", {seed:#x}, ...)`"
            );
            resume_unwind(panic);
        }
    }
}

/// Reruns a single case by its printed seed — the debugging companion to
/// [`forall`].
pub fn forall_seed<F>(name: &str, seed: u64, property: F)
where
    F: Fn(&mut Xoshiro256StarStar),
{
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        property(&mut rng);
    }));
    if let Err(panic) = outcome {
        eprintln!("property '{name}' failed under seed {seed:#018x}");
        resume_unwind(panic);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use std::cell::{Cell, RefCell};

    #[test]
    fn runs_the_requested_number_of_cases() {
        let count = Cell::new(0u64);
        forall_cases("counter", 17, |_| count.set(count.get() + 1));
        assert_eq!(count.get(), 17);
    }

    #[test]
    fn case_seeds_differ() {
        let firsts = RefCell::new(crate::FxHashSet::default());
        forall_cases("distinct", 64, |rng| {
            firsts.borrow_mut().insert(rng.next_u64());
        });
        assert_eq!(
            firsts.borrow().len(),
            64,
            "every case sees a distinct stream"
        );
    }

    #[test]
    fn failing_property_panics_with_context() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            forall_cases("always fails", 4, |_| panic!("boom"));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn forall_seed_reproduces_a_case() {
        // Whatever case 3 generates under forall, forall_seed regenerates.
        let seed = SplitMix64::new(BASE_SEED).split(3);
        let expected = Cell::new(None);
        forall_seed("repro", seed, |rng| expected.set(Some(rng.next_u64())));
        let mut again = Xoshiro256StarStar::seed_from_u64(seed);
        assert_eq!(expected.get(), Some(again.next_u64()));
    }
}
