#![warn(missing_docs)]
//! # sentinel-storage — persistence and transactions
//!
//! The paper derives its `Rule` and `Event` classes from Zeitgeist's
//! `zg-pos` persistence root so that "rule and event objects can be
//! designated as persistent" and are "subject to the same transaction
//! semantics" as other objects (§2, §4). This crate is the Zeitgeist
//! substitute: a write-ahead log with crash recovery, full-store
//! snapshots, and a transaction manager with undo.
//!
//! Layering: this crate knows how to log, persist, and roll back *object
//! mutations*; it does not know what an event or a rule is. The database
//! facade (`sentinel-db`) stores rules and events as ordinary objects, so
//! they inherit persistence and transactionality for free — exactly the
//! paper's argument for making them first-class.
//!
//! Durability model: redo logging. Mutations are applied to the in-memory
//! [`ObjectStore`](sentinel_object::ObjectStore) immediately and logged;
//! recovery replays only the records of *committed* transactions on top
//! of the latest snapshot. Aborts are handled in memory by the undo log
//! and additionally recorded so recovery can skip them.

pub mod batch;
pub mod records;
pub mod recovery;
pub mod snapshot;
pub mod txn;
pub mod wal;

pub use batch::WriteBatch;
pub use records::{LogRecord, TxnId};
pub use recovery::{committed_records, recover, recover_with, Recovered};
pub use snapshot::{ObjectSnapshot, Snapshot};
pub use txn::{apply_undo, TxnManager, UndoOp};
pub use wal::{BatchAck, SyncPolicy, Wal, WalSyncer};
