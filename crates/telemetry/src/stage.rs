//! Named stages of the event → rule → transaction pipeline.

use crate::fact::Fact;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One stage of an occurrence's life, from the method send that raised
/// it to the commit (or abort) of the transaction that consumed it.
///
/// A stage's count is either a [`Fact`] ([`Stage::fact`], always on) or
/// the count of its histogram in [`Telemetry`](crate::Telemetry)
/// (recorded while telemetry is enabled, since its last reset). Most
/// stages record latencies in nanoseconds; the
/// exceptions are [`Stage::DetectorDepth`] (occurrences buffered by a
/// detector after a delivery), [`Stage::WalBatch`] (committed
/// transactions covered by one group-commit fsync),
/// [`Stage::RecoveryReplay`] (log records replayed by one recovery run),
/// [`Stage::LineageRecord`] (cascade depth of a recorded firing) and
/// [`Stage::SchedulerGroup`] (firings per dispatched conflict group)
/// — see [`Stage::unit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// A message dispatched through the database facade.
    MethodSend,
    /// A primitive (bom/eom) event raised by a dispatch.
    EventRaised,
    /// One occurrence fanned out to its subscribed consumers
    /// (latency covers detection and scheduling for all of them).
    FanOut,
    /// One delivery of an occurrence to a rule's detector
    /// (latency of the detector-node transitions it caused).
    DetectorTransition,
    /// Occurrences buffered across a rule's detector nodes after a
    /// delivery (a depth distribution, not a latency).
    DetectorDepth,
    /// A firing scheduled with immediate coupling.
    FiringImmediate,
    /// A firing scheduled with deferred coupling.
    FiringDeferred,
    /// A firing scheduled with detached coupling.
    FiringDetached,
    /// A rule-condition evaluation.
    ConditionEval,
    /// A rule-action execution.
    ActionRun,
    /// A transaction commit (latency covers the deferred-rule drain and
    /// the commit record reaching the log).
    TxnCommit,
    /// A transaction rollback.
    TxnAbort,
    /// A detached firing executed in its own follow-on transaction.
    DetachedRun,
    /// One append to the write-ahead log: one frame of records.
    WalAppend,
    /// A WAL flush + fsync (per the active sync policy).
    WalFsync,
    /// A group-commit batch made durable by a single fsync (value =
    /// number of committed transactions the fsync covered).
    WalBatch,
    /// Time a detached firing spent queued between scheduling and the
    /// worker draining it.
    DetachedQueueWait,
    /// A recovery pass replaying committed log records (value = number
    /// of records replayed).
    RecoveryReplay,
    /// A firing record appended to the firing-history ring (value =
    /// cascade depth of the recorded firing).
    LineageRecord,
    /// Time the committing thread spent on a parallel batch: running its
    /// own share of the groups, then waiting for the scheduler's workers
    /// to finish theirs.
    SchedulerWait,
    /// A conflict group of a parallel batch (value = number of firings
    /// in the group — a group-size distribution).
    SchedulerGroup,
    /// A drain of due timers from the timer wheel (latency covers the
    /// detector deliveries and scheduling for every fire in the drain).
    TimerDrain,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 22;

    /// All stages, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::MethodSend,
        Stage::EventRaised,
        Stage::FanOut,
        Stage::DetectorTransition,
        Stage::DetectorDepth,
        Stage::FiringImmediate,
        Stage::FiringDeferred,
        Stage::FiringDetached,
        Stage::ConditionEval,
        Stage::ActionRun,
        Stage::TxnCommit,
        Stage::TxnAbort,
        Stage::DetachedRun,
        Stage::WalAppend,
        Stage::WalFsync,
        Stage::WalBatch,
        Stage::DetachedQueueWait,
        Stage::RecoveryReplay,
        Stage::LineageRecord,
        Stage::SchedulerWait,
        Stage::SchedulerGroup,
        Stage::TimerDrain,
    ];

    /// Dense index, for per-stage storage.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name, used as the `stage` label in exports.
    pub const fn name(self) -> &'static str {
        match self {
            Stage::MethodSend => "method_send",
            Stage::EventRaised => "event_raised",
            Stage::FanOut => "fan_out",
            Stage::DetectorTransition => "detector_transition",
            Stage::DetectorDepth => "detector_depth",
            Stage::FiringImmediate => "firing_immediate",
            Stage::FiringDeferred => "firing_deferred",
            Stage::FiringDetached => "firing_detached",
            Stage::ConditionEval => "condition_eval",
            Stage::ActionRun => "action_run",
            Stage::TxnCommit => "txn_commit",
            Stage::TxnAbort => "txn_abort",
            Stage::DetachedRun => "detached_run",
            Stage::WalAppend => "wal_append",
            Stage::WalFsync => "wal_fsync",
            Stage::WalBatch => "wal_batch",
            Stage::DetachedQueueWait => "detached_queue_wait",
            Stage::RecoveryReplay => "recovery_replay",
            Stage::LineageRecord => "lineage_record",
            Stage::SchedulerWait => "scheduler_wait",
            Stage::SchedulerGroup => "scheduler_group",
            Stage::TimerDrain => "timer_drain",
        }
    }

    /// The fact this stage's count reads, for the stages that are facts.
    /// Their counts are always on; every other stage counts the values
    /// its histogram recorded while telemetry was enabled.
    pub const fn fact(self) -> Option<Fact> {
        Some(match self {
            Stage::MethodSend => Fact::Sends,
            Stage::EventRaised | Stage::FanOut => Fact::Occurrences,
            Stage::DetectorTransition => Fact::Notifications,
            Stage::FiringImmediate => Fact::Immediate,
            Stage::FiringDeferred => Fact::Deferred,
            Stage::FiringDetached => Fact::Detached,
            Stage::ConditionEval => Fact::ConditionEvals,
            Stage::ActionRun => Fact::ActionsRun,
            Stage::TxnCommit => Fact::Commits,
            Stage::TxnAbort => Fact::Aborts,
            Stage::DetachedRun => Fact::DetachedRuns,
            _ => return None,
        })
    }

    /// Unit of the values this stage records into its histogram.
    pub const fn unit(self) -> &'static str {
        match self {
            Stage::DetectorDepth => "occurrences",
            Stage::WalBatch => "txns",
            Stage::RecoveryReplay => "records",
            Stage::LineageRecord => "depth",
            Stage::SchedulerGroup => "firings",
            _ => "ns",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_dense_and_ordered() {
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i, "{s}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::COUNT);
    }
}
