//! Rollback: the abort half of the commit pipeline.
//!
//! Abort undoes two kinds of state the transaction touched eagerly:
//! store mutations (the [`WriteBatch`](sentinel_storage::WriteBatch)'s
//! staged undo ops, replayed in reverse — rule and event objects
//! included) and rule-detection state (the engine's capture/restore
//! mechanism plus a clock-based prune). The engine's rules are then
//! re-synced from every rule object the transaction created, wrote or
//! deleted. The staged redo records are discarded unwritten — an
//! aborted transaction leaves no trace in the log.

use crate::database::Database;
use sentinel_telemetry::{Fact, Stage};

impl Database {
    /// Undo everything the active transaction did (store, and with it
    /// the catalog), discard pending firings, and drop its staged log
    /// records.
    pub(crate) fn rollback(&mut self) {
        self.pipeline.rollback(&self.store);
        // The store holds the pre-transaction rule objects again; make
        // the engine agree with them. Rules whose objects are gone go
        // first, so a restored rule can take back a name a rolled-back
        // one held. The list keeps its capacity for the next transaction.
        let mut rules = std::mem::take(&mut self.txn_rules);
        rules.sort_unstable_by_key(|&oid| (self.store.exists(oid), oid));
        rules.dedup();
        for &oid in &rules {
            let _ = self.sync_rule(oid);
        }
        rules.clear();
        self.txn_rules = rules;
        self.engine.discard_pending();
        // Restore the pre-transaction detection state of every rule the
        // transaction touched: events generated by the rolled-back
        // transaction must not later complete a composite event, and
        // occurrences consumed by a rolled-back detection must be
        // re-armed. As a belt-and-braces measure, prune anything newer
        // than the transaction start that a restore could have missed
        // (e.g. a rule created during the transaction).
        self.engine.abort_capture();
        // The store-level undo bypassed index maintenance; refresh every
        // object the transaction touched from its restored state. The
        // list is swapped out around the `&mut self` calls and swapped
        // back cleared, so its capacity survives for the next
        // transaction.
        let mut touched = std::mem::take(&mut self.txn_touched);
        for oid in touched.drain(..) {
            let _ = self.index_refresh(oid);
        }
        self.txn_touched = touched;
        self.engine.prune_detectors_newer_than(self.txn_start_clock);
        self.engine.count_fact(Fact::Aborts);
        self.engine.publish_facts();
        // Firings this transaction executed died with it: seal their
        // history records as aborted.
        self.flush_pending_firings(true);
        self.telemetry.trace(Stage::TxnAbort, self.clock.now(), || {
            String::from("rollback")
        });
    }
}
