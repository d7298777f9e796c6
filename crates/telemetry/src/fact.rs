//! The always-on counter table: one relaxed atomic per fact.
//!
//! A fact is something the pipeline counts whether or not telemetry is
//! enabled — a send, an occurrence, a condition evaluation, a commit.
//! Each is counted once, at one site, into one [`Facts`] table shared
//! (via `Arc`) by the rule engine, the database facade, its sessions and
//! the exporters. `DbStats`, `EngineStats` and the counts of the stages
//! that *are* facts ([`Stage::fact`](crate::Stage::fact)) are all reads
//! of this table, so they agree by construction.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// One always-on counter of the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fact {
    /// Messages dispatched (externally initiated and nested).
    Sends,
    /// Primitive occurrences raised and offered to the rule engine.
    Occurrences,
    /// Deliveries of an occurrence (or timer fire) to a detector.
    Notifications,
    /// Firings scheduled with immediate coupling.
    Immediate,
    /// Firings scheduled with deferred coupling.
    Deferred,
    /// Firings scheduled with detached coupling.
    Detached,
    /// Detached firings shed at a full queue.
    DetachedShed,
    /// Rule condition evaluations executed.
    ConditionEvals,
    /// Rule actions run: one per condition that held.
    ActionsRun,
    /// Transactions committed.
    Commits,
    /// Transactions aborted.
    Aborts,
    /// Detached firings executed, each in its own transaction.
    DetachedRuns,
}

impl Fact {
    /// Number of facts.
    pub const COUNT: usize = 12;
}

/// The counter table: one relaxed atomic per [`Fact`]. Relaxed, because
/// the counts are monotonic tallies, not synchronisation points; a read
/// of several facts is consistent per fact only.
#[derive(Debug, Default)]
pub struct Facts([AtomicU64; Fact::COUNT]);

impl Facts {
    /// Count one occurrence of `fact`.
    #[inline]
    pub fn bump(&self, fact: Fact) {
        self.0[fact as usize].fetch_add(1, Relaxed);
    }

    /// The count of `fact`.
    #[inline]
    pub fn get(&self, fact: Fact) -> u64 {
        self.0[fact as usize].load(Relaxed)
    }

    /// Zero every fact.
    pub fn reset(&self) {
        for cell in &self.0 {
            cell.store(0, Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_get_reset() {
        let f = Facts::default();
        f.bump(Fact::Sends);
        f.bump(Fact::Sends);
        f.bump(Fact::DetachedRuns);
        assert_eq!(f.get(Fact::Sends), 2);
        assert_eq!(f.get(Fact::DetachedRuns), 1);
        assert_eq!(f.get(Fact::Commits), 0);
        f.reset();
        assert_eq!(f.get(Fact::Sends), 0);
    }
}
