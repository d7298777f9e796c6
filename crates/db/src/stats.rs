//! Database-level counters (the root `paper_claims` test asserts the
//! paper's claims on them).
//!
//! [`DbStats`] is a serializable read of the pipeline's one counter
//! table, the facts. The write core counts them in plain cells and
//! publishes them into the telemetry handle's [`Facts`] once per commit
//! or abort; concurrent reader sessions and the metrics exporters read
//! one published cut without the core lock, and the core's own reads
//! add the transaction in flight's counts.

use sentinel_rules::EngineStats;
#[cfg(doc)]
use sentinel_telemetry::Facts;
use sentinel_telemetry::{Fact, FactCounts, Telemetry, TelemetrySnapshot};
use serde::{Deserialize, Serialize};

/// Counters aggregated by the facade on top of the engine's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DbStats {
    /// Messages dispatched (externally initiated and nested).
    pub sends: u64,
    /// Primitive events generated (bom + eom): the engine's
    /// occurrences, each raised event being offered to it once.
    pub events_generated: u64,
    /// Rule condition evaluations executed by the facade.
    pub condition_evals: u64,
    /// Conditions that held: one per action run, and read from it.
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

impl DbStats {
    /// The facade's counts in a cut of the fact table.
    pub(crate) fn read(facts: &FactCounts) -> Self {
        DbStats {
            sends: facts.get(Fact::Sends),
            events_generated: facts.get(Fact::Occurrences),
            condition_evals: facts.get(Fact::ConditionEvals),
            condition_true: facts.get(Fact::ActionsRun),
            actions_run: facts.get(Fact::ActionsRun),
            commits: facts.get(Fact::Commits),
            aborts: facts.get(Fact::Aborts),
            detached_runs: facts.get(Fact::DetachedRuns),
        }
    }
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

/// The facade's counters plus the engine's and a full telemetry
/// snapshot, serialized together — the payload of `stats json` and the
/// JSON metrics exporter.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FullStats {
    /// Facade-level counters.
    pub db: DbStats,
    /// Engine-level counters.
    pub engine: EngineStats,
    /// Pipeline telemetry (stage counts, histograms, trace-ring state).
    pub telemetry: TelemetrySnapshot,
}

impl FullStats {
    /// Everything `telemetry` reports, its fact stages and the counters
    /// read from `facts`.
    pub(crate) fn read(telemetry: &Telemetry, facts: &FactCounts) -> Self {
        FullStats {
            db: DbStats::read(facts),
            engine: EngineStats::read(facts),
            telemetry: telemetry.snapshot_with(facts),
        }
    }
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
    fn db_stats_read_the_fact_table() {
        let mut f = FactCounts::default();
        f.bump(Fact::Sends);
        f.bump(Fact::Sends);
        f.bump(Fact::Aborts);
        f.bump(Fact::Occurrences);
        f.bump(Fact::ActionsRun);
        let snap = DbStats::read(&f);
        assert_eq!(snap.sends, 2);
        assert_eq!(snap.aborts, 1);
        assert_eq!(snap.commits, 0);
        assert_eq!(snap.events_generated, 1);
        assert_eq!((snap.condition_true, snap.actions_run), (1, 1));
        assert_eq!(DbStats::read(&FactCounts::default()), DbStats::default());
    }
}
