//! Crash recovery: snapshot + committed WAL suffix.

use crate::records::{LogRecord, TxnId};
use crate::snapshot::Snapshot;
use crate::wal::Wal;
use sentinel_object::{ClassRegistry, ObjectError, ObjectState, ObjectStore, Result};
use sentinel_telemetry::{Stage, Telemetry};
use std::collections::HashSet;
use std::path::Path;

/// The outcome of recovery: a rebuilt registry/store pair, the restored
/// clock watermark, and the snapshot's opaque payload.
pub struct Recovered {
    /// The rebuilt schema.
    pub registry: ClassRegistry,
    /// The rebuilt object store.
    pub store: ObjectStore,
    /// Logical-clock watermark to resume from.
    pub clock: u64,
    /// The snapshot's opaque payload (the database facade's detector
    /// state).
    pub extra: String,
    /// Highest transaction id seen anywhere in the log (committed or
    /// not); the reopened transaction manager must allocate above it so
    /// a later recovery cannot confuse old and new records.
    pub max_txn: TxnId,
    /// Committed log records replayed by this recovery pass.
    pub replayed: u64,
    /// Bytes of torn-tail garbage truncated off the log before replay
    /// (0 when the log was clean).
    pub tail_trimmed: u64,
}

/// Whether recovery replays `record`, given the transactions that
/// committed: `ClockAdvance` always, data records of committed
/// transactions, and no `Begin`/`Commit`/`Abort` markers.
fn replays(record: &LogRecord, committed: &HashSet<TxnId>) -> bool {
    match record {
        LogRecord::Begin { .. } | LogRecord::Commit { .. } | LogRecord::Abort { .. } => false,
        LogRecord::ClockAdvance { .. } => true,
        other => other.txn().is_some_and(|t| committed.contains(&t)),
    }
}

fn committed_txns(log: &[LogRecord]) -> HashSet<TxnId> {
    log.iter()
        .filter_map(|r| match r {
            LogRecord::Commit { txn } => Some(*txn),
            _ => None,
        })
        .collect()
}

/// Filter a raw log down to the records of committed transactions, in
/// log order. `Begin`/`Commit`/`Abort` markers and records of
/// uncommitted or aborted transactions are dropped; `ClockAdvance`
/// records always survive.
pub fn committed_records(log: &[LogRecord]) -> Vec<&LogRecord> {
    let committed = committed_txns(log);
    log.iter().filter(|r| replays(r, &committed)).collect()
}

/// Recover a database image from `snapshot_path` + `wal_path`.
///
/// Replay is idempotent: re-running recovery over the same inputs yields
/// the same state (property-tested in the workspace `tests/`).
pub fn recover(snapshot_path: impl AsRef<Path>, wal_path: impl AsRef<Path>) -> Result<Recovered> {
    recover_with(snapshot_path, wal_path, None)
}

/// [`recover`], additionally reporting the replay size to a telemetry
/// handle (one `recovery_replay` observation whose value is the number
/// of committed records replayed).
pub fn recover_with(
    snapshot_path: impl AsRef<Path>,
    wal_path: impl AsRef<Path>,
    telemetry: Option<&Telemetry>,
) -> Result<Recovered> {
    let wal_path = wal_path.as_ref();
    let mut snapshot = Snapshot::load(snapshot_path)?;
    let mut clock = snapshot.clock;
    let extra = std::mem::take(&mut snapshot.extra);
    let (mut registry, store) = snapshot.restore()?;
    let mut replayed = 0u64;

    let (log, tail_trimmed) = Wal::read_all_repair(wal_path)?;
    if tail_trimmed > 0 {
        eprintln!(
            "sentinel-storage: torn tail in {}: truncated {tail_trimmed} byte(s) of garbage; \
             recovering the fully-synced prefix",
            wal_path.display()
        );
    }
    let max_txn = log.iter().filter_map(LogRecord::txn).max().unwrap_or(0);
    let committed = committed_txns(&log);
    for record in log {
        if !replays(&record, &committed) {
            continue;
        }
        replayed += 1;
        match record {
            LogRecord::CreateSlots {
                oid, class, slots, ..
            } => {
                // Creates name the class by registry id; ids are
                // reproduced exactly by snapshot restore + schema
                // replay, so an id out of range, or a row of the wrong
                // width, means a foreign log.
                let fits = (class.0 as usize) < registry.len()
                    && registry.get(class).layout.len() == slots.len();
                if !fits {
                    return Err(ObjectError::Storage(format!(
                        "log record creates {oid} with {} slots in class {class}, \
                         which the registry of {} classes does not match",
                        slots.len(),
                        registry.len()
                    )));
                }
                store.insert_raw(oid, ObjectState { class, slots });
            }
            LogRecord::SetSlot { oid, slot, new, .. } => {
                // The object may have been deleted later in the log; a
                // missing object here is not an error.
                if store.exists(oid) {
                    store.set_slot(&registry, oid, slot as usize, new)?;
                }
            }
            LogRecord::Delete { oid, .. } => {
                let _ = store.delete(oid);
            }
            LogRecord::ClockAdvance { at } => {
                clock = clock.max(at);
            }
            LogRecord::Schema { decl, .. } => {
                // Replays after a checkpoint may see a class that is
                // already in the snapshot; that is not an error.
                if registry.id_of(&decl.name).is_err() {
                    registry.define(*decl)?;
                }
            }
            LogRecord::Begin { .. } | LogRecord::Commit { .. } | LogRecord::Abort { .. } => {
                unreachable!("markers are never replayed")
            }
        }
    }

    if let Some(tel) = telemetry {
        tel.observe(Stage::RecoveryReplay, clock, replayed, || {
            wal_path.display().to_string()
        });
    }

    Ok(Recovered {
        registry,
        store,
        clock,
        extra,
        max_txn,
        replayed,
        tail_trimmed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::SyncPolicy;
    use sentinel_object::{ClassDecl, ClassId, Oid, TypeTag, Value};

    fn tmp(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("sentinel-rec-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d.join(name)
    }

    fn registry() -> ClassRegistry {
        let mut reg = ClassRegistry::new();
        reg.define(ClassDecl::new("Account").attr("balance", TypeTag::Float))
            .unwrap();
        reg
    }

    /// A `balance` write on `oid` (slot 0 of `Account`).
    fn set_balance(txn: TxnId, class: ClassId, oid: Oid, v: f64) -> LogRecord {
        LogRecord::SetSlot {
            txn,
            oid,
            class,
            slot: 0,
            new: Value::Float(v),
        }
    }

    #[test]
    fn committed_filter_drops_uncommitted_and_aborted() {
        let acct = registry().id_of("Account").unwrap();
        let log = vec![
            LogRecord::Begin { txn: 1 },
            set_balance(1, acct, Oid(1), 1.0),
            LogRecord::Commit { txn: 1 },
            LogRecord::Begin { txn: 2 },
            set_balance(2, acct, Oid(1), 2.0),
            LogRecord::Abort { txn: 2 },
            LogRecord::Begin { txn: 3 },
            set_balance(3, acct, Oid(1), 3.0),
            // txn 3 never commits (crash).
            LogRecord::ClockAdvance { at: 9 },
        ];
        let kept = committed_records(&log);
        assert_eq!(kept.len(), 2); // txn 1's SetSlot + ClockAdvance
        assert!(matches!(kept[0], LogRecord::SetSlot { txn: 1, .. }));
        assert!(matches!(kept[1], LogRecord::ClockAdvance { at: 9 }));
    }

    #[test]
    fn full_recovery_replays_only_committed_work() {
        let snap_p = tmp("full.snap");
        let wal_p = tmp("full.wal");
        let _ = std::fs::remove_file(&snap_p);
        let _ = std::fs::remove_file(&wal_p);

        // Base state: one account at balance 100, snapshotted.
        let reg = registry();
        let store = ObjectStore::new();
        let acct = reg.id_of("Account").unwrap();
        let a = store.create(&reg, acct);
        store
            .set_attr(&reg, a, "balance", Value::Float(100.0))
            .unwrap();
        Snapshot::capture(&reg, &store, 10, "x".into())
            .write(&snap_p)
            .unwrap();

        // Post-snapshot history: committed update to 150, committed
        // create of a second account, then an uncommitted update to 999.
        let mut wal = Wal::open(&wal_p, SyncPolicy::Always).unwrap();
        wal.append(&LogRecord::Begin { txn: 1 }).unwrap();
        wal.append(&set_balance(1, acct, a, 150.0)).unwrap();
        wal.append(&LogRecord::CreateSlots {
            txn: 1,
            oid: Oid(999),
            class: acct,
            slots: vec![Value::Float(7.0)],
        })
        .unwrap();
        wal.append(&LogRecord::Schema {
            txn: 1,
            decl: Box::new(ClassDecl::new("Later").attr("n", TypeTag::Int)),
        })
        .unwrap();
        wal.append(&LogRecord::Commit { txn: 1 }).unwrap();
        wal.append(&LogRecord::ClockAdvance { at: 42 }).unwrap();
        wal.append(&LogRecord::Begin { txn: 2 }).unwrap();
        wal.append(&set_balance(2, acct, a, 999.0)).unwrap();
        wal.flush().unwrap();
        drop(wal); // crash before txn 2 commits

        let rec = recover(&snap_p, &wal_p).unwrap();
        assert_eq!(
            rec.store.get_attr(&rec.registry, a, "balance").unwrap(),
            Value::Float(150.0),
            "committed update applied, uncommitted one discarded"
        );
        assert!(rec.store.exists(Oid(999)));
        assert_eq!(
            rec.store
                .get_attr(&rec.registry, Oid(999), "balance")
                .unwrap(),
            Value::Float(7.0)
        );
        assert!(
            rec.registry.id_of("Later").is_ok(),
            "logged schema replayed"
        );
        assert_eq!(rec.clock, 42);
        assert_eq!(rec.extra, "x");
    }

    #[test]
    fn recovery_without_snapshot_or_wal_is_empty() {
        let rec = recover(tmp("none.snap.missing"), tmp("none.wal.missing")).unwrap();
        assert!(rec.store.is_empty());
        assert_eq!(rec.clock, 0);
    }

    #[test]
    fn delete_then_set_in_log_is_tolerated() {
        let snap_p = tmp("delset.snap");
        let wal_p = tmp("delset.wal");
        let _ = std::fs::remove_file(&snap_p);
        let _ = std::fs::remove_file(&wal_p);
        let reg = registry();
        let acct = reg.id_of("Account").unwrap();
        Snapshot::capture(&reg, &ObjectStore::new(), 0, String::new())
            .write(&snap_p)
            .unwrap();
        let mut wal = Wal::open(&wal_p, SyncPolicy::Always).unwrap();
        wal.append(&LogRecord::CreateSlots {
            txn: 1,
            oid: Oid(5),
            class: acct,
            slots: vec![Value::Float(0.0)],
        })
        .unwrap();
        wal.append(&LogRecord::Delete {
            txn: 1,
            oid: Oid(5),
        })
        .unwrap();
        wal.append(&set_balance(1, acct, Oid(5), 1.0)).unwrap();
        wal.append(&LogRecord::Commit { txn: 1 }).unwrap();
        drop(wal);
        let rec = recover(&snap_p, &wal_p).unwrap();
        assert!(!rec.store.exists(Oid(5)));
    }
}
