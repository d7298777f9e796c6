//! Database configuration.

use sentinel_events::{DetectorCaps, ParamContext, TimeMode};
use sentinel_rules::BackpressurePolicy;
use sentinel_storage::SyncPolicy;
use std::path::PathBuf;

/// How deferred and detached firings execute.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Every firing runs on the committing (or draining) thread, in
    /// firing order. The paper's semantics, and the default.
    #[default]
    Serial,
    /// Provably independent firings run concurrently on a worker pool;
    /// everything else (undeclared effects, raising actions, immediate
    /// coupling) falls back to the serial path. Observable semantics
    /// match `Serial` — see `DESIGN.md` §16 for the argument.
    Parallel {
        /// Worker threads in the pool (clamped to at least 1).
        workers: usize,
    },
}

impl ExecutionMode {
    /// Worker count: 0 for the serial mode.
    pub fn workers(&self) -> usize {
        match self {
            ExecutionMode::Serial => 0,
            ExecutionMode::Parallel { workers } => (*workers).max(1),
        }
    }
}

/// Tunables of a [`Database`](crate::Database).
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Directory for the WAL and snapshots; `None` = in-memory only.
    pub data_dir: Option<PathBuf>,
    /// WAL durability (ignored without a `data_dir`).
    pub sync: SyncPolicy,
    /// Limit on rule-cascade depth: a rule action sends a message, whose
    /// events trigger rules, whose actions send messages, ... The paper
    /// does not bound this; an unbounded implementation hangs on the
    /// first accidentally self-triggering rule.
    ///
    /// The semantics are inclusive and uniform across every checkpoint
    /// (nested `dispatch`, rule-action nesting, deferred rounds,
    /// detached rounds): exactly `max_cascade_depth` nesting levels (or
    /// end-of-transaction rounds) are permitted, and the request for
    /// level `max_cascade_depth + 1` fails with
    /// `CascadeDepthExceeded`.
    ///
    /// In lineage terms: a deferred-coupling chain runs one firing
    /// generation per round, so the deepest lineage depth a committed
    /// firing can ever record is `max_cascade_depth - 1`. Immediate
    /// coupling is costlier — each hop nests a message dispatch *and*
    /// an action frame, so an immediate chain needs roughly
    /// `2 * (depth + 1)` levels and aborts well before the deferred
    /// ceiling. The static analyzer's `cascade-bound-exceeds-limit`
    /// diagnostic fires when a proven lineage bound reaches
    /// `max_cascade_depth`: at that point not even the cheapest
    /// (deferred) accounting can fit the worst-case cascade.
    pub max_cascade_depth: usize,
    /// Default parameter context for rules that do not specify one.
    pub default_context: ParamContext,
    /// The time axis temporal operators (`at`, `every`, windows,
    /// aggregates) measure against. [`TimeMode::Logical`] (default)
    /// equates instants with the occurrence sequence; `Virtual` is
    /// advanced explicitly via
    /// [`Database::advance_time`](crate::Database::advance_time)
    /// (deterministic tests); `Wall` reads elapsed milliseconds.
    pub time_mode: TimeMode,
    /// Occurrence-buffer caps applied to every rule detector.
    pub detector_caps: DetectorCaps,
    /// Record pipeline telemetry (histograms and per-rule latencies)
    /// from the start; facts are counted either way. Off by default:
    /// the disabled path costs one branch per instrumentation point. Can be toggled at runtime via
    /// [`Database::telemetry`](crate::Database::telemetry).
    pub telemetry_enabled: bool,
    /// Capacity of the structured-trace ring buffer (records kept when
    /// tracing is turned on).
    pub trace_capacity: usize,
    /// Record firing history (causal lineage) from the start. Off by
    /// default: the disabled path costs one branch per firing. Can be
    /// toggled at runtime via `telemetry().set_history(..)`.
    pub history_enabled: bool,
    /// Capacity of the firing-history ring (records kept when history
    /// is turned on; the oldest record is shed on overflow).
    pub history_capacity: usize,
    /// Bound on the detached-firing queue. Past it the
    /// [`detached_policy`](Self::detached_policy) decides what happens;
    /// a storm of detached rules can no longer grow the queue without
    /// limit.
    pub detached_cap: usize,
    /// What to do when the detached queue is full: `Block` makes the
    /// committing transaction drain the overflow itself (backpressure),
    /// `Shed` drops the newest firing and counts it in
    /// `EngineStats::detached_shed`.
    pub detached_policy: BackpressurePolicy,
    /// How deferred/detached firings execute: serially (default) or on
    /// a conflict-aware worker pool.
    pub execution: ExecutionMode,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            data_dir: None,
            sync: SyncPolicy::OnCommit,
            max_cascade_depth: 64,
            default_context: ParamContext::default(),
            time_mode: TimeMode::Logical,
            detector_caps: DetectorCaps::default(),
            telemetry_enabled: false,
            trace_capacity: 4096,
            history_enabled: false,
            history_capacity: 4096,
            detached_cap: 4096,
            detached_policy: BackpressurePolicy::Block,
            execution: ExecutionMode::Serial,
        }
    }
}

impl DbConfig {
    /// In-memory configuration (tests, benchmarks).
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// Durable configuration rooted at `dir`.
    pub fn durable(dir: impl Into<PathBuf>) -> Self {
        DbConfig {
            data_dir: Some(dir.into()),
            ..Default::default()
        }
    }

    /// Override the WAL sync policy.
    pub fn sync(mut self, policy: SyncPolicy) -> Self {
        self.sync = policy;
        self
    }

    /// Override the cascade-depth limit.
    pub fn max_cascade_depth(mut self, depth: usize) -> Self {
        self.max_cascade_depth = depth;
        self
    }

    /// Override the default parameter context.
    pub fn default_context(mut self, ctx: ParamContext) -> Self {
        self.default_context = ctx;
        self
    }

    /// Override the time axis (see [`DbConfig::time_mode`]).
    pub fn time_mode(mut self, mode: TimeMode) -> Self {
        self.time_mode = mode;
        self
    }

    /// Record telemetry from the start.
    pub fn telemetry_enabled(mut self, on: bool) -> Self {
        self.telemetry_enabled = on;
        self
    }

    /// Override the trace ring-buffer capacity.
    pub fn trace_capacity(mut self, records: usize) -> Self {
        self.trace_capacity = records;
        self
    }

    /// Record firing history (causal lineage) from the start.
    pub fn history_enabled(mut self, on: bool) -> Self {
        self.history_enabled = on;
        self
    }

    /// Override the firing-history ring capacity.
    pub fn history_capacity(mut self, records: usize) -> Self {
        self.history_capacity = records;
        self
    }

    /// Override the detached-queue bound (clamped to at least 1).
    pub fn detached_cap(mut self, cap: usize) -> Self {
        self.detached_cap = cap.max(1);
        self
    }

    /// Override the detached-queue overflow policy.
    pub fn detached_policy(mut self, policy: BackpressurePolicy) -> Self {
        self.detached_policy = policy;
        self
    }

    /// Override the execution mode for deferred/detached firings.
    pub fn execution(mut self, mode: ExecutionMode) -> Self {
        self.execution = mode;
        self
    }

    /// Path of the write-ahead log, if durable.
    pub fn wal_path(&self) -> Option<PathBuf> {
        self.data_dir.as_ref().map(|d| d.join("wal.log"))
    }

    /// Path of the snapshot file, if durable.
    pub fn snapshot_path(&self) -> Option<PathBuf> {
        self.data_dir.as_ref().map(|d| d.join("snapshot.json"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_in_memory() {
        let c = DbConfig::default();
        assert!(c.data_dir.is_none());
        assert!(c.wal_path().is_none());
        assert_eq!(c.max_cascade_depth, 64);
    }

    #[test]
    fn execution_mode_builder() {
        let c = DbConfig::in_memory().execution(ExecutionMode::Parallel { workers: 4 });
        assert_eq!(c.execution, ExecutionMode::Parallel { workers: 4 });
        assert_eq!(c.execution.workers(), 4);
        assert_eq!(ExecutionMode::Serial.workers(), 0);
        // Zero workers would deadlock the pool; clamp to one.
        assert_eq!(ExecutionMode::Parallel { workers: 0 }.workers(), 1);
        assert_eq!(DbConfig::default().execution, ExecutionMode::Serial);
    }

    #[test]
    fn durable_paths() {
        let c = DbConfig::durable("/tmp/x").max_cascade_depth(5);
        assert_eq!(c.wal_path().unwrap(), PathBuf::from("/tmp/x/wal.log"));
        assert_eq!(
            c.snapshot_path().unwrap(),
            PathBuf::from("/tmp/x/snapshot.json")
        );
        assert_eq!(c.max_cascade_depth, 5);
    }
}
