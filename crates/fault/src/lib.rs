//! Deterministic, seed-derived fault injection for the SILC-FM simulator.
//!
//! The crate turns a single `u64` seed plus a [`FaultRates`] configuration
//! into a [`FaultSchedule`]: a time-sorted list of
//! [`ScheduledFault`](silcfm_types::fault::ScheduledFault)s covering NM way
//! degradation/repair, transient subblock bit flips (with ECC outcomes
//! pre-drawn), remap/metadata parity errors, and DRAM channel stalls and
//! hard failures. All randomness is spent at *generation* time — each fault
//! class draws from its own [`SplitMix64`](silcfm_types::rng::SplitMix64)-
//! split stream, so adding events of one class never perturbs another, and
//! replaying a schedule is bit-identical by construction.
//!
//! At run time the schedule becomes a [`FaultDriver`] cursor the simulation
//! loop polls (`pop_due`) before each demand access, and a [`FaultStats`]
//! ledger that records the [`FaultEffect`](silcfm_types::fault::FaultEffect)
//! of every delivery. The property tests assert the ledger *conserves* —
//! every injected fault is accounted as corrected, recovered, poisoned or
//! masked — and that the controller's failover transitions match
//! [`expected_failover_transitions`] computed from the schedule alone.
//!
//! ```
//! use silcfm_fault::{FaultRates, FaultSchedule, FaultTopology};
//!
//! let rates = FaultRates::gentle();
//! let topo = FaultTopology {
//!     nm_ways: 4,
//!     nm_frames: 4096,
//!     subblocks: 32,
//!     nm_channels: 8,
//!     fm_channels: 4,
//! };
//! let a = FaultSchedule::generate(7, 1_000_000, &rates, &topo).unwrap();
//! let b = FaultSchedule::generate(7, 1_000_000, &rates, &topo).unwrap();
//! assert_eq!(a.faults(), b.faults()); // same seed, same schedule — always
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod driver;
pub mod schedule;

pub use driver::{expected_failover_transitions, FaultDriver, FaultStats};
pub use schedule::{FaultRates, FaultSchedule, FaultTopology};
