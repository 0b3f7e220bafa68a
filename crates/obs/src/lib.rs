//! `silcfm-obs`: observability for the SILC-FM simulator.
//!
//! The paper's evaluation (§VI) hinges on *why* SILC-FM wins — swap-engine
//! transitions, lock promotions, bypass decisions, NM/FM bandwidth balance —
//! but end-of-run counters can't answer per-phase questions ("when did the
//! lock set saturate?", "what do the DRAM queues look like during
//! write-drain?"). This crate provides the sinks and exporters behind the
//! tracing vocabulary defined in [`silcfm_types::obs`]:
//!
//! * [`SamplingTracer`] — the [`Tracer`] the simulator runs with: exact
//!   per-kind event counters on every record, full events retained 1-in-N
//!   (power-of-two N; N = 1 is full tracing) in a fixed-capacity ring that
//!   overwrites its oldest events (and counts the drops) so long runs keep
//!   the most recent window;
//! * [`EpochSampler`] — a per-epoch time-series sampler over a fixed
//!   column list ([`RUN_SERIES`] or [`SLO_SERIES`]), with preallocated
//!   storage;
//! * [`QuantileSketch`] / [`LatencyBreakdown`] — deterministic, mergeable
//!   quantile sketches for per-class latency percentiles (p50/p95/p99/p999),
//!   the crate's one latency structure, with a seeded [`LatencyReservoir`]
//!   for exact small-N validation;
//! * [`export`] — Chrome trace-event JSON (`chrome://tracing`-loadable),
//!   CSV time series, and a human summary table, plus
//!   [`export::check_chrome_trace`], the trace validator;
//! * [`TextTable`] — a fixed-width table renderer with per-column
//!   alignment, for the trace summaries and the `scheme_shootout` example;
//! * [`json`] — a minimal hand-rolled JSON parser backing the trace
//!   validator and the bench crate's trajectory reader (the workspace is
//!   dependency-free).
//!
//! Everything here is deterministic: timestamps are simulation cycles
//! (never wall clock, per the workspace `clippy.toml`) and exporters format floats with fixed
//! precision, so identical seeds produce byte-identical artifacts across
//! hosts and across serial/parallel runs.

pub mod export;
pub mod json;
pub mod report;
pub mod sampler;
pub mod sampling;
pub mod sketch;
pub mod table;

pub use report::{ObsReport, TaggedEvent, Unit};
pub use sampler::{EpochSampler, RUN_SERIES, SLO_SERIES};
pub use sampling::SamplingTracer;
pub use sketch::{LatencyBreakdown, LatencyReservoir, QuantileSketch};
pub use table::{Align, TextTable};

// Re-export the vocabulary so downstream crates can depend on `silcfm-obs`
// alone for all tracing needs.
pub use silcfm_types::obs::{Event, MetricsOnlyTracer, NullTracer, RowKind, TraceEvent, Tracer};
