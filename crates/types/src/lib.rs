//! Core types shared by every crate of the SILC-FM reproduction.
//!
//! This crate defines the vocabulary of the simulator:
//!
//! * [`addr`] — physical/virtual address newtypes and block/subblock indices;
//! * [`geometry`] — the 64 B subblock / 2 KB large-block layout of the paper;
//! * [`layout`] — the flat NM+FM physical address space (NM at low addresses);
//! * [`mem`] — memory operations ([`MemOp`]) produced by placement schemes and
//!   consumed by the DRAM timing model;
//! * [`access`] — post-LLC-miss demand accesses ([`Access`]) as seen by a
//!   flat-memory scheme;
//! * [`scheme`] — the [`MemoryScheme`] trait implemented by SILC-FM and all
//!   baselines;
//! * [`oplist`] — the inline-capacity [`OpList`] that keeps outcome
//!   assembly off the heap on the access hot path;
//! * [`hash`] — the in-tree multiply-xor [`FxHasher`] used by every hot
//!   `HashMap` (page translation, baseline bookkeeping);
//! * [`config`] — the Table II system configuration;
//! * [`rng`] — hermetic in-tree pseudo-random number generation (SplitMix64
//!   seeding, xoshiro256\*\* streams) used by workload generation, placement
//!   and the experiment runner;
//! * [`check`] — a minimal fixed-seed property-testing harness;
//! * [`stats`] — small ratio, mean and rate helpers used across crates;
//! * [`obs`] — the tracing vocabulary ([`obs::Event`], [`obs::Tracer`],
//!   [`obs::NullTracer`]) that lets components be instrumented with zero
//!   cost when tracing is off (sinks live in `silcfm-obs`);
//! * [`fault`] — the fault-injection vocabulary ([`fault::ScheduledFault`],
//!   [`fault::SchemeFault`], [`fault::ChannelFault`], [`fault::FaultEffect`])
//!   shared by the `silcfm-fault` injector and the components that recover
//!   from faults;
//! * [`error`] — the typed [`error::SilcFmError`] returned by every fallible
//!   configuration/setup path (hot paths never error).
//!
//! # Example
//!
//! ```
//! use silcfm_types::{PhysAddr, Geometry, AddressSpace, MemKind};
//!
//! let geom = Geometry::paper();
//! assert_eq!(geom.subblocks_per_block(), 32);
//!
//! // 256 MiB of near memory followed by 1 GiB of far memory.
//! let space = AddressSpace::new(256 << 20, 1 << 30);
//! assert_eq!(space.kind_of(PhysAddr::new(0)), MemKind::Near);
//! assert_eq!(space.kind_of(PhysAddr::new(256 << 20)), MemKind::Far);
//! ```

pub mod access;
pub mod addr;
pub mod check;
pub mod config;
pub mod error;
pub mod fault;
pub mod geometry;
pub mod hash;
pub mod layout;
pub mod mem;
pub mod obs;
pub mod oplist;
pub mod record;
pub mod rng;
pub mod scheme;
pub mod stats;

pub use access::{Access, CoreId};
pub use addr::{BlockIndex, PhysAddr, SubblockIndex, VirtAddr};
pub use config::{CacheParams, CoreParams, SystemConfig};
pub use error::SilcFmError;
pub use fault::{ChannelFault, EccOutcome, FaultEffect, FaultKind, ScheduledFault, SchemeFault};
pub use geometry::Geometry;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use layout::AddressSpace;
pub use mem::{MemKind, MemOp, OpKind, TrafficClass};
pub use obs::{Event, FaultClass, NullTracer, RowKind, TraceEvent, Tracer};
pub use oplist::OpList;
pub use record::TraceRecord;
pub use scheme::{AccessClass, AccessFlags, MemoryScheme, SchemeOutcome, SchemeStats, STAT_KEYS};
