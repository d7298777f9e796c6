//! Per-transaction write batches.
//!
//! A [`WriteBatch`] carries everything one transaction wants to say to
//! the storage layer — its redo log records *and* the in-memory undo
//! ops that reverse its eager store mutations — as a single unit. The
//! commit pipeline stages into the batch while the transaction runs;
//! at commit the records are appended to the WAL in one
//! [`Wal::append_batch`](crate::Wal::append_batch) call, and at abort
//! the undo ops are replayed in reverse without a byte reaching the log.

use crate::records::{LogRecord, TxnId};
use crate::txn::{apply_undo, UndoOp};
use sentinel_object::ObjectStore;

/// The log records and undo ops of one transaction, staged as a unit.
#[derive(Debug, Default)]
pub struct WriteBatch {
    txn: Option<TxnId>,
    records: Vec<LogRecord>,
    undo: Vec<UndoOp>,
}

impl WriteBatch {
    /// An empty, closed batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open the batch for transaction `txn`, clearing any leftovers.
    pub fn begin(&mut self, txn: TxnId) {
        self.txn = Some(txn);
        self.records.clear();
        self.undo.clear();
    }

    /// The transaction this batch is staging for, if open.
    pub fn txn(&self) -> Option<TxnId> {
        self.txn
    }

    /// Stage a redo record.
    pub fn push_record(&mut self, record: LogRecord) {
        self.records.push(record);
    }

    /// Stage the inverse of a mutation just applied to the store.
    pub fn push_undo(&mut self, op: UndoOp) {
        self.undo.push(op);
    }

    /// The staged redo records, in append order.
    pub fn records(&self) -> &[LogRecord] {
        &self.records
    }

    /// Number of staged redo records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are staged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of staged undo ops.
    pub fn undo_len(&self) -> usize {
        self.undo.len()
    }

    /// Close the batch after its records have been appended: the undo
    /// ops are no longer needed.
    pub fn commit(&mut self) {
        self.txn = None;
        self.records.clear();
        self.undo.clear();
    }

    /// Close the batch by rolling back: replay the undo ops in reverse
    /// against `store` and discard the staged records unwritten. Like
    /// [`begin`](Self::begin)/[`commit`](Self::commit), the vectors keep
    /// their capacity for the next transaction.
    pub fn rollback(&mut self, store: &ObjectStore) {
        self.txn = None;
        self.records.clear();
        apply_undo(store, &mut self.undo);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_object::{ClassDecl, ClassRegistry, TypeTag, Value};

    #[test]
    fn batch_lifecycle_stages_and_clears() {
        let mut b = WriteBatch::new();
        assert!(b.is_empty());
        assert_eq!(b.txn(), None);
        b.begin(7);
        b.push_record(LogRecord::Begin { txn: 7 });
        b.push_record(LogRecord::Commit { txn: 7 });
        assert_eq!(b.txn(), Some(7));
        assert_eq!(b.len(), 2);
        b.commit();
        assert!(b.is_empty());
        assert_eq!(b.txn(), None);
    }

    #[test]
    fn rollback_replays_undo_in_reverse_and_drops_records() {
        let mut reg = ClassRegistry::new();
        reg.define(ClassDecl::new("Account").attr("balance", TypeTag::Int))
            .unwrap();
        let store = ObjectStore::new();
        let acct = reg.id_of("Account").unwrap();
        let a = store.create(&reg, acct);
        let slot = reg.get(acct).slot_of("balance").unwrap();

        let mut b = WriteBatch::new();
        b.begin(1);
        for v in [10, 20] {
            let old = store.set_attr(&reg, a, "balance", Value::Int(v)).unwrap();
            b.push_undo(UndoOp::SetSlot { oid: a, slot, old });
            b.push_record(LogRecord::SetSlot {
                txn: 1,
                oid: a,
                class: acct,
                slot: slot as u32,
                new: Value::Int(v),
            });
        }
        assert_eq!(b.undo_len(), 2);
        b.rollback(&store);
        assert!(b.is_empty());
        assert_eq!(b.undo_len(), 0);
        assert_eq!(store.get_attr(&reg, a, "balance").unwrap(), Value::Int(0));
    }
}
