#![warn(missing_docs)]
//! # sentinel-telemetry — pipeline observability
//!
//! Structured tracing, latency histograms, and metrics export for the
//! event → rule → transaction path. The paper's architecture (Figure 2)
//! is a pipeline — method send raises bom/eom events, events fan out to
//! subscribed rules, detectors advance, firings are scheduled per
//! coupling mode, conditions and actions run inside transactions — and
//! this crate gives every stage of that pipeline a name ([`Stage`]), a
//! latency histogram, and an optional structured trace record.
//!
//! It also holds the pipeline's one counter table, [`Facts`]: sends,
//! occurrences, notifications, scheduled firings, condition evaluations,
//! action runs, commits, aborts and detached runs, each counted once,
//! always on, and published as one cut per transaction. A stage that is a fact ([`Stage::fact`]) reports the
//! fact's count; telemetry itself keeps only distributions, trace
//! records and firing history.
//!
//! Design constraints:
//!
//! * **Zero-cost when disabled.** Every instrumentation entry point
//!   checks one relaxed [`AtomicBool`](std::sync::atomic::AtomicBool)
//!   and returns; subjects are lazy closures that are never evaluated
//!   unless tracing is on. The repository benchmark (`benchmark/`)
//!   reports the enabled path's cost as `telemetry.overhead_ratio`.
//! * **Lock-light when enabled.** Facts are counted in plain cells and
//!   published once per transaction; histogram buckets are relaxed
//!   atomics, and each rule records into its own latency cell
//!   (found by name once, at its first timed firing); the only lock
//!   taken per record is the trace ring buffer's mutex, and only while
//!   tracing.
//! * **No external deps.** Histograms use power-of-two buckets (no HDR
//!   dependency); exporters emit Prometheus-style text and JSON from the
//!   serializable [`TelemetrySnapshot`].

pub mod export;
pub mod fact;
pub mod handle;
pub mod histogram;
pub mod history;
pub mod shard;
pub mod stage;
pub mod trace;

pub use export::{prometheus_shard_text, prometheus_text};
pub use fact::{Fact, FactCounts, Facts};
pub use handle::{RuleLatency, Telemetry, TelemetrySnapshot, Timer, TraceMeta};
pub use histogram::{Histogram, HistogramSnapshot};
pub use history::{
    ExecutionLane, FiringCoupling, FiringHistory, FiringId, FiringOutcome, FiringRecord,
    HistoryMeta,
};
pub use shard::{ShardCounters, ShardLoad};
pub use stage::Stage;
pub use trace::{RingBufferSink, TraceRecord, TraceSink};
