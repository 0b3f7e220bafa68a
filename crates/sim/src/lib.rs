//! Full-system simulation for the SILC-FM reproduction.
//!
//! Composes the substrate crates — ROB-window cores ([`silcfm_cpu`]), the
//! Table II cache hierarchy ([`silcfm_cache`]), synthetic workloads
//! ([`silcfm_trace`]), the HBM2/DDR3 timing models ([`silcfm_dram`]) — under
//! any [`silcfm_types::MemoryScheme`] (SILC-FM or a baseline), and measures
//! what the paper's figures report: execution time and speedup, the NM
//! access rate (Eq. 1), the demand-bandwidth split between memories
//! (Fig. 8), and energy / EDP.
//!
//! # Example
//!
//! ```
//! use silcfm_sim::{run, RunParams, SchemeKind};
//! use silcfm_trace::profiles;
//! use silcfm_types::SystemConfig;
//!
//! let cfg = SystemConfig::small();
//! let params = RunParams::smoke();
//! let profile = profiles::by_name("mcf").unwrap();
//! let base = run(profile, SchemeKind::NoNm, &cfg, &params);
//! let silc = run(profile, SchemeKind::silcfm(), &cfg, &params);
//! assert!(silc.cycles > 0 && base.cycles > 0);
//! ```

pub mod experiment;
pub mod journal;
pub mod metrics;
pub mod observe;
pub mod report;
pub mod runner;
pub mod shard;
pub mod system;

pub use experiment::{
    run, run_sharded, run_spec, Engine, FaultParams, RunOutput, RunParams, RunSpec, SchemeKind,
    Tier, TraceParams,
};
pub use metrics::{RunResult, TrafficTally};
pub use observe::RunObs;
pub use report::{format_table, Row};
pub use runner::{run_grid, run_grid_journaled, run_grid_serial, ExperimentGrid, Job};
pub use shard::{
    run_system_sharded, run_system_sharded_tapped, LaneSource, RecordStream, ShardParams,
    ShardReport,
};
pub use system::{NullTap, RecordFeed, ServiceTap, System};
