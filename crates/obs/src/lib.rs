//! `silcfm-obs`: observability for the SILC-FM simulator.
//!
//! The paper's evaluation (§VI) hinges on *why* SILC-FM wins — swap-engine
//! transitions, lock promotions, bypass decisions, NM/FM bandwidth balance —
//! but end-of-run counters can't answer per-phase questions ("when did the
//! lock set saturate?", "what do the DRAM queues look like during
//! write-drain?"). This crate provides the sinks and exporters behind the
//! tracing vocabulary defined in [`silcfm_types::obs`]:
//!
//! * [`RingTracer`] — a fixed-capacity ring buffer implementing
//!   [`Tracer`]; when full it overwrites the oldest events (and counts the
//!   drops) so long runs keep the most recent window;
//! * [`SamplingTracer`] — the tracer the simulator runs with: exact
//!   per-kind event counters on every record, full events retained in an
//!   inner [`RingTracer`] only 1-in-N (power-of-two N; N = 1 is full
//!   tracing);
//! * [`LatencyHistogram`] — log-bucketed (power-of-two) latency histograms
//!   with fixed storage, HdrHistogram style;
//! * [`EpochSampler`] — a per-epoch time-series sampler over a declared
//!   [`SeriesSpec`] column set, with preallocated storage;
//! * [`QuantileSketch`] / [`LatencyBreakdown`] — deterministic, mergeable
//!   quantile sketches for per-class latency percentiles (p50/p95/p99/p999),
//!   with a seeded [`LatencyReservoir`] for exact small-N validation;
//! * [`export`] — Chrome trace-event JSON (`chrome://tracing`-loadable),
//!   CSV time series, and a human summary table;
//! * [`TextTable`] — the shared fixed-width table renderer used by every
//!   binary that prints aligned columns;
//! * [`json`] — a minimal hand-rolled JSON parser backing the
//!   `trace_check` validator binary (the workspace is dependency-free).
//!
//! Everything here is deterministic: timestamps are simulation cycles
//! (never wall clock, per the workspace `clippy.toml`) and exporters format floats with fixed
//! precision, so identical seeds produce byte-identical artifacts across
//! hosts and across serial/parallel runs.

pub mod export;
pub mod hist;
pub mod json;
pub mod report;
pub mod ring;
pub mod sampler;
pub mod sampling;
pub mod sketch;
pub mod table;

pub use hist::LatencyHistogram;
pub use report::{ObsReport, TaggedEvent, Unit};
pub use ring::RingTracer;
pub use sampler::{run_series, slo_series, EpochSampler, SeriesSpec};
pub use sampling::SamplingTracer;
pub use sketch::{LatencyBreakdown, LatencyReservoir, QuantileSketch};
pub use table::{Align, TextTable};

// Re-export the vocabulary so downstream crates can depend on `silcfm-obs`
// alone for all tracing needs.
pub use silcfm_types::obs::{Event, MetricsOnlyTracer, NullTracer, RowKind, TraceEvent, Tracer};
