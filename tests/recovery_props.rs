//! Crash-recovery property for group commit: a crash loses exactly the
//! *unacknowledged* suffix. We commit a random stream of transactions
//! under `SyncPolicy::Grouped` with random sync points, drop the
//! `Database` without shutdown (staged records die with the process),
//! reopen, and assert the recovered state is precisely the prefix the
//! WAL had acknowledged as durable — nothing more, nothing less.

use proptest::prelude::*;
use sentinel::prelude::*;
use std::time::Duration;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sentinel-recovery-props-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn grouped(max_batch: usize) -> SyncPolicy {
    SyncPolicy::Grouped {
        max_batch,
        // Never "due" on its own: syncs happen only at `max_batch` or
        // when the test asks for one, so the acknowledged prefix is
        // fully under the test's control.
        max_wait: Duration::from_secs(3600),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn crash_recovers_exactly_the_acknowledged_prefix(
        values in prop::collection::vec(-1000i64..1000, 1..32),
        syncs in prop::collection::vec(any::<bool>(), 32),
        max_batch in 1usize..6,
        case in 0u64..u64::MAX,
    ) {
        let dir = tmpdir(&format!("{case:x}"));
        let mut oids = Vec::new();
        let acked;
        {
            let mut db = Database::with_config(
                DbConfig::durable(&dir).sync(grouped(max_batch)),
            ).unwrap();
            db.define_class(ClassDecl::new("X").attr("v", TypeTag::Int)).unwrap();
            // Make the schema (and any bootstrap commits) durable so the
            // property starts from a clean acknowledged baseline.
            db.sync_wal().unwrap();
            let base = db.durable_commits();

            for (i, v) in values.iter().enumerate() {
                db.begin().unwrap();
                let o = db.create("X").unwrap();
                db.set_attr(o, "v", Value::Int(*v)).unwrap();
                db.commit().unwrap();
                oids.push(o);
                if syncs[i] {
                    db.sync_wal().unwrap();
                }
            }
            // Whatever reached disk — via explicit syncs or automatic
            // max_batch syncs inside append — is the acknowledged prefix.
            acked = (db.durable_commits() - base) as usize;
            prop_assert!(acked <= values.len());
            prop_assert_eq!(db.wal_staged_commits() as usize, values.len() - acked);
            // Crash: drop without shutdown. Staged records are never
            // written, so the file ends at the last synced batch.
        }

        let rec = Database::recover(DbConfig::durable(&dir).sync(grouped(max_batch))).unwrap();
        let extent = rec.extent("X").unwrap();
        prop_assert_eq!(extent.len(), acked, "recovered txn count");
        for (i, o) in oids.iter().enumerate() {
            if i < acked {
                prop_assert_eq!(rec.get_attr(*o, "v").unwrap(), Value::Int(values[i]));
            } else {
                prop_assert!(rec.get_attr(*o, "v").is_err(), "unacked txn {i} leaked");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Slot-interned records (`CreateSlots` / `SetSlot`) replay a history.
// ---------------------------------------------------------------------

/// Write a random object history through the durable write path and
/// return the per-oid expected final values.
fn write_history(dir: &std::path::Path, values: &[i64]) -> Vec<(Oid, i64)> {
    let mut db = Database::with_config(DbConfig::durable(dir)).unwrap();
    db.define_class(
        ClassDecl::new("X")
            .attr("v", TypeTag::Int)
            .attr("w", TypeTag::Int),
    )
    .unwrap();
    let mut expect = Vec::new();
    for (i, v) in values.iter().enumerate() {
        db.begin().unwrap();
        let o = db.create("X").unwrap();
        db.set_attr(o, "v", Value::Int(*v)).unwrap();
        // Touch a second (nonzero) slot on every other object so slot
        // indices beyond 0 are exercised, and overwrite `v` so replay
        // order matters.
        if i % 2 == 1 {
            db.set_attr(o, "w", Value::Int(-*v)).unwrap();
        }
        db.set_attr(o, "v", Value::Int(v + 1)).unwrap();
        db.commit().unwrap();
        expect.push((o, v + 1));
    }
    expect
}

fn assert_state(db: &Database, expect: &[(Oid, i64)]) {
    let extent = db.extent("X").unwrap();
    assert_eq!(extent.len(), expect.len());
    for (o, v) in expect {
        assert_eq!(db.get_attr(*o, "v").unwrap(), Value::Int(*v));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Recovering the log of a random history restores every object's
    /// final values, the second slot included.
    #[test]
    fn logged_history_recovers_exactly(
        values in prop::collection::vec(-1000i64..1000, 1..16),
    ) {
        let dir = tmpdir("history");
        let expect = write_history(&dir, &values);
        let rec = Database::recover(DbConfig::durable(&dir)).unwrap();
        assert_state(&rec, &expect);
        for (i, (o, _)) in expect.iter().enumerate() {
            let w = if i % 2 == 1 { -values[i] } else { 0 };
            prop_assert_eq!(rec.get_attr(*o, "w").unwrap(), Value::Int(w));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A torn tail — the final commit's bytes cut mid-record by a crash
/// — is trimmed, and exactly the preceding transactions recover.
#[test]
fn torn_v2_tail_recovers_the_prefix() {
    let dir = tmpdir("torn-v2");
    let values: Vec<i64> = (0..6).collect();
    let expect = write_history(&dir, &values);

    // Cut into the final line (the last transaction's Commit record):
    // the transaction loses its commit marker, so its records must
    // not replay.
    let wal = dir.join("wal.log");
    let len = std::fs::metadata(&wal).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .unwrap()
        .set_len(len - 5)
        .unwrap();

    let rec = Database::recover(DbConfig::durable(&dir)).unwrap();
    assert_state(&rec, &expect[..expect.len() - 1]);
    assert!(
        rec.get_attr(expect.last().unwrap().0, "v").is_err(),
        "torn transaction leaked into the recovered state"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Deterministic spot check: with `max_batch = 3` and no manual syncs,
/// seven commits acknowledge exactly six (two full batches) and a crash
/// loses precisely the seventh.
#[test]
fn auto_batch_boundary_is_the_durability_frontier() {
    let dir = tmpdir("boundary");
    let mut oids = Vec::new();
    {
        let mut db = Database::with_config(DbConfig::durable(&dir).sync(grouped(3))).unwrap();
        db.define_class(ClassDecl::new("X").attr("v", TypeTag::Int))
            .unwrap();
        db.sync_wal().unwrap();
        let base = db.durable_commits();
        for i in 0..7i64 {
            db.begin().unwrap();
            let o = db.create("X").unwrap();
            db.set_attr(o, "v", Value::Int(i)).unwrap();
            db.commit().unwrap();
            oids.push(o);
        }
        assert_eq!(db.durable_commits() - base, 6);
        assert_eq!(db.wal_staged_commits(), 1);
    }
    let rec = Database::recover(DbConfig::durable(&dir).sync(grouped(3))).unwrap();
    assert_eq!(rec.extent("X").unwrap().len(), 6);
    assert!(rec.get_attr(oids[6], "v").is_err());
    let _ = std::fs::remove_dir_all(&dir);
}
