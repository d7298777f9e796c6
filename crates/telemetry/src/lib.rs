#![warn(missing_docs)]
//! # sentinel-telemetry — pipeline observability
//!
//! Structured tracing, latency histograms, and metrics export for the
//! event → rule → transaction path. The paper's architecture (Figure 2)
//! is a pipeline — method send raises bom/eom events, events fan out to
//! subscribed rules, detectors advance, firings are scheduled per
//! coupling mode, conditions and actions run inside transactions — and
//! this crate gives every stage of that pipeline a name ([`Stage`]), a
//! counter, a latency histogram, and an optional structured trace
//! record.
//!
//! Design constraints:
//!
//! * **Zero-cost when disabled.** Every instrumentation entry point
//!   checks one relaxed [`AtomicBool`](std::sync::atomic::AtomicBool)
//!   and returns; subjects are lazy closures that are never evaluated
//!   unless tracing is on. The repository benchmark (`benchmark/`)
//!   reports the enabled path's cost as `telemetry.overhead_ratio`.
//! * **Lock-light when enabled.** Counters and histogram buckets are
//!   relaxed atomics; the only lock is the trace ring buffer's mutex,
//!   taken per record and only while tracing.
//! * **No external deps.** Histograms use power-of-two buckets (no HDR
//!   dependency); exporters emit Prometheus-style text and JSON from the
//!   serializable [`TelemetrySnapshot`].

pub mod export;
pub mod handle;
pub mod histogram;
pub mod history;
pub mod shard;
pub mod stage;
pub mod trace;

pub use export::{prometheus_shard_text, prometheus_text};
pub use handle::{BodyKind, Telemetry, TelemetrySnapshot, Timer, TraceMeta};
pub use histogram::{Histogram, HistogramSnapshot};
pub use history::{
    ExecutionLane, FiringCoupling, FiringHistory, FiringId, FiringOutcome, FiringRecord,
    HistoryMeta,
};
pub use shard::{ShardCounters, ShardLoad};
pub use stage::Stage;
pub use trace::{RingBufferSink, TraceRecord, TraceSink};
