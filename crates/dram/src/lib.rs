//! Event-driven DRAM timing model for the SILC-FM simulator.
//!
//! This is the substrate that replaces Ramulator in the paper's setup. It is
//! a *resource-reservation* model rather than a per-cycle finite-state
//! machine: every bank tracks its open row and the time it next becomes
//! ready, every channel tracks data-bus availability and read-queue
//! occupancy, and each transaction's completion time is computed analytically
//! against those timelines. Writes and streams are bus-only, and their write
//! queue, which can never delay them, is kept only for tracing (see
//! [`channel::Channel`]). This preserves what the paper's evaluation
//! depends on — row-buffer locality, bank conflicts, queueing delay and the
//! 4:1 NM:FM bandwidth ratio — while simulating tens of millions of requests
//! per second of host time.
//!
//! Two presets mirror Table II of the paper:
//!
//! * [`DramConfig::hbm2`] — 8 channels × 128-bit @ 800 MHz DDR (204.8 GB/s);
//! * [`DramConfig::ddr3`] — 4 channels × 64-bit @ 800 MHz DDR (51.2 GB/s).
//!
//! # Example
//!
//! ```
//! use silcfm_dram::{DramConfig, DramModel};
//!
//! let mut nm = DramModel::new(DramConfig::hbm2());
//! // A read at time 0 completes after activate + CAS + burst.
//! let done = nm.read(0, 0x1000, 64);
//! assert!(done > 0);
//! assert_eq!(nm.stats().reads, 1);
//! ```

pub mod bank;
pub mod channel;
pub mod config;
pub mod energy;
pub mod mapping;
pub mod model;
pub mod stats;

pub use channel::ChannelHealth;
pub use config::{DramConfig, DramTimings};
pub use energy::EnergyParams;
pub use mapping::{AddressMapper, ChunkWalker, Location};
pub use model::DramModel;
pub use stats::DramStats;
