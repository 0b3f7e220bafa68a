//! `silcfm-perfbench`: the repository benchmark for the SILC-FM simulator.
//!
//! The simulator is a batch program, so the benchmark measures host time
//! and work per host second. Each workload runs a batch of jobs back to back
//! through the simulator's public entry points ([`silcfm_sim::run`],
//! [`silcfm_serve::run_serve`]) with tracing off and checks every job's
//! simulated outputs ([`jobs`]). Simulated cycles and request latencies are
//! outputs the benchmark pins, never timings.
//!
//! A separate traced run captures each job's exact per-layer inputs through
//! the engine's public feed and tap hooks ([`capture`]), then replays every
//! layer alone through its own public functions ([`ledger`]), so the layer
//! times plus the run-loop glue add up to the traced end-to-end time.

pub mod capture;
pub mod jobs;
pub mod ledger;
pub mod report;
