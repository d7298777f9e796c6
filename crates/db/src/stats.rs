//! Database-level counters used by the experiments.
//!
//! [`DbStats`] is the serializable point-in-time snapshot; the live
//! counters are [`SharedDbStats`] — relaxed atomics shared (via `Arc`)
//! between the write core and concurrent reader sessions, so `stats`
//! and the metrics exporters never need the core lock.

use sentinel_rules::EngineStats;
use sentinel_telemetry::TelemetrySnapshot;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters aggregated by the facade on top of the engine's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DbStats {
    /// Messages dispatched (externally initiated and nested).
    pub sends: u64,
    /// Primitive events generated (bom + eom).
    pub events_generated: u64,
    /// Rule condition evaluations executed by the facade.
    pub condition_evals: u64,
    /// Conditions that held.
    pub condition_true: u64,
    /// Rule actions executed.
    pub actions_run: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Transactions aborted (by rules or explicitly).
    pub aborts: u64,
    /// Detached firings executed (each in its own transaction).
    pub detached_runs: u64,
}

/// The facade and engine counters of the Prometheus exposition, as
/// `(name, help, value)` — shared by `Database` and `Session`.
pub(crate) fn prometheus_counters(
    d: &DbStats,
    e: &EngineStats,
) -> [(&'static str, &'static str, u64); 14] {
    [
        ("sends_total", "Messages dispatched.", d.sends),
        (
            "events_generated_total",
            "Primitive events generated.",
            d.events_generated,
        ),
        (
            "condition_evals_total",
            "Rule condition evaluations.",
            d.condition_evals,
        ),
        (
            "condition_true_total",
            "Rule conditions that held.",
            d.condition_true,
        ),
        ("actions_run_total", "Rule actions executed.", d.actions_run),
        ("commits_total", "Transactions committed.", d.commits),
        ("aborts_total", "Transactions aborted.", d.aborts),
        (
            "detached_runs_total",
            "Detached firings executed.",
            d.detached_runs,
        ),
        (
            "occurrences_total",
            "Primitive occurrences offered to the rule engine.",
            e.occurrences,
        ),
        (
            "notifications_total",
            "Deliveries of an occurrence to a detector; rules sharing a detector count once.",
            e.notifications,
        ),
        (
            "scheduled_immediate_total",
            "Firings scheduled with immediate coupling.",
            e.immediate,
        ),
        (
            "scheduled_deferred_total",
            "Firings scheduled with deferred coupling.",
            e.deferred,
        ),
        (
            "scheduled_detached_total",
            "Firings scheduled with detached coupling.",
            e.detached,
        ),
        (
            "detached_shed_total",
            "Detached firings shed at a full queue.",
            e.detached_shed,
        ),
    ]
}

/// Live facade counters: the atomic twin of [`DbStats`].
///
/// Counters are relaxed — they are monotonic tallies, not
/// synchronisation points — and a [`snapshot`](Self::snapshot) is
/// therefore only per-field consistent, which is what the experiments
/// have always assumed.
#[derive(Debug, Default)]
pub struct SharedDbStats {
    /// Messages dispatched (externally initiated and nested).
    pub sends: AtomicU64,
    /// Primitive events generated (bom + eom).
    pub events_generated: AtomicU64,
    /// Rule condition evaluations executed by the facade.
    pub condition_evals: AtomicU64,
    /// Conditions that held.
    pub condition_true: AtomicU64,
    /// Rule actions executed.
    pub actions_run: AtomicU64,
    /// Transactions committed.
    pub commits: AtomicU64,
    /// Transactions aborted (by rules or explicitly).
    pub aborts: AtomicU64,
    /// Detached firings executed (each in its own transaction).
    pub detached_runs: AtomicU64,
}

impl SharedDbStats {
    /// Add one to `field` (relaxed).
    #[inline]
    pub fn bump(field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> DbStats {
        DbStats {
            sends: self.sends.load(Ordering::Relaxed),
            events_generated: self.events_generated.load(Ordering::Relaxed),
            condition_evals: self.condition_evals.load(Ordering::Relaxed),
            condition_true: self.condition_true.load(Ordering::Relaxed),
            actions_run: self.actions_run.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            detached_runs: self.detached_runs.load(Ordering::Relaxed),
        }
    }

    /// Zero every counter (benchmark warm-up).
    pub fn reset(&self) {
        for f in [
            &self.sends,
            &self.events_generated,
            &self.condition_evals,
            &self.condition_true,
            &self.actions_run,
            &self.commits,
            &self.aborts,
            &self.detached_runs,
        ] {
            f.store(0, Ordering::Relaxed);
        }
    }
}

/// The facade's counters plus the engine's and a full telemetry
/// snapshot, serialized together — the payload of `stats json` and the
/// JSON metrics exporter.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FullStats {
    /// Facade-level counters.
    pub db: DbStats,
    /// Engine-level counters.
    pub engine: EngineStats,
    /// Pipeline telemetry (stage counters, histograms, trace-ring state).
    pub telemetry: TelemetrySnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = DbStats::default();
        assert_eq!(s.sends, 0);
        assert_eq!(s.events_generated, 0);
    }

    #[test]
    fn full_stats_serde_round_trip() {
        let s = FullStats::default();
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(serde_json::from_str::<FullStats>(&json).unwrap(), s);
    }

    #[test]
    fn shared_stats_snapshot_and_reset() {
        let s = SharedDbStats::default();
        SharedDbStats::bump(&s.sends);
        SharedDbStats::bump(&s.sends);
        SharedDbStats::bump(&s.aborts);
        let snap = s.snapshot();
        assert_eq!(snap.sends, 2);
        assert_eq!(snap.aborts, 1);
        assert_eq!(snap.commits, 0);
        s.reset();
        assert_eq!(s.snapshot(), DbStats::default());
    }
}
