//! SRAM cache hierarchy for the SILC-FM simulator.
//!
//! Models the on-chip caches of Table II: private L1 instruction and data
//! caches per core and a shared L2 that acts as the last-level cache (LLC).
//! Requests that miss the LLC are what the flat-memory schemes see.
//!
//! # Example
//!
//! ```
//! use silcfm_cache::{SetAssocCache, AccessKind};
//! use silcfm_types::CacheParams;
//!
//! let params = CacheParams { capacity_bytes: 4096, ways: 4, line_bytes: 64, latency_cycles: 4 };
//! let mut cache = SetAssocCache::new(params);
//! assert!(!cache.access(0x1000 / 64, AccessKind::Read).hit); // cold miss
//! assert!(cache.access(0x1000 / 64, AccessKind::Read).hit);  // now resident
//! ```

pub mod hierarchy;
pub mod set_assoc;

pub use hierarchy::{CacheHierarchy, HierarchyAccess, HierarchyStats, MissTraffic, Writebacks};
pub use set_assoc::{AccessKind, AccessResult, SetAssocCache};
