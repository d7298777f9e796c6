//! Crash-recovery property for group commit: a crash loses exactly the
//! *unacknowledged* suffix. We commit a random stream of transactions
//! under `SyncPolicy::Grouped` with random sync points, drop the
//! `Database` without shutdown (staged records die with the process),
//! reopen, and assert the recovered state is precisely the prefix the
//! WAL had acknowledged as durable — nothing more, nothing less.

use proptest::prelude::*;
use sentinel::prelude::*;
use std::sync::{Arc, Mutex};
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

// ---------------------------------------------------------------------
// Catalog histories: rule objects survive a crash as they were.
// ---------------------------------------------------------------------

const RULES: [&str; 4] = ["Zed", "Amy", "Mid", "Bo"];

/// One catalog operation on rule `RULES[r]`. `object` picks the target
/// of a subscription: the probe object or its whole class. A rule is
/// added subscribed, so most histories have rules that fire.
#[derive(Debug, Clone)]
enum CatalogOp {
    Add {
        r: usize,
        recent: bool,
        object: bool,
    },
    Remove {
        r: usize,
    },
    Subscribe {
        r: usize,
        object: bool,
    },
    Unsubscribe {
        r: usize,
        object: bool,
    },
    Enable {
        r: usize,
    },
    Disable {
        r: usize,
    },
    Priority {
        r: usize,
        p: i64,
    },
    Coupling {
        r: usize,
        mode: usize,
    },
}

fn catalog_op() -> impl Strategy<Value = CatalogOp> {
    let r = || 0..RULES.len();
    let add = || {
        (r(), any::<bool>(), any::<bool>()).prop_map(|(r, recent, object)| CatalogOp::Add {
            r,
            recent,
            object,
        })
    };
    let subscribe =
        || (r(), any::<bool>()).prop_map(|(r, object)| CatalogOp::Subscribe { r, object });
    // Adds are listed three times, subscriptions twice, so histories
    // grow rules.
    prop_oneof![
        add(),
        add(),
        add(),
        r().prop_map(|r| CatalogOp::Remove { r }),
        subscribe(),
        subscribe(),
        (r(), any::<bool>()).prop_map(|(r, object)| CatalogOp::Unsubscribe { r, object }),
        r().prop_map(|r| CatalogOp::Enable { r }),
        r().prop_map(|r| CatalogOp::Disable { r }),
        (r(), -2i64..3).prop_map(|(r, p)| CatalogOp::Priority { r, p }),
        (r(), 0usize..3).prop_map(|(r, mode)| CatalogOp::Coupling { r, mode }),
    ]
}

/// Apply `op`. Operations on a missing rule (or adding one twice) fail,
/// and failing is part of the history.
fn apply(db: &mut Database, op: &CatalogOp, probe: Oid) -> Result<()> {
    let target = |object: bool| {
        if object {
            Target::Object(probe)
        } else {
            Target::Class("X")
        }
    };
    match *op {
        CatalogOp::Add { r, recent, object } => {
            let mut def = RuleDef::new(RULES[r], event("end X::Ping()")?, "log");
            if recent {
                def = def.context(ParamContext::Recent);
            }
            db.add_rule(def)?;
            db.subscribe(target(object), RULES[r])
        }
        CatalogOp::Remove { r } => db.remove_rule(RULES[r]),
        CatalogOp::Subscribe { r, object } => db.subscribe(target(object), RULES[r]),
        CatalogOp::Unsubscribe { r, object } => db.unsubscribe(target(object), RULES[r]),
        CatalogOp::Enable { r } => db.enable_rule(RULES[r]),
        CatalogOp::Disable { r } => db.disable_rule(RULES[r]),
        CatalogOp::Priority { r, p } => {
            let oid = db.rule_oid(RULES[r])?;
            db.set_attr(oid, "priority", Value::Int(p))
        }
        CatalogOp::Coupling { r, mode } => {
            let oid = db.rule_oid(RULES[r])?;
            let mode = ["immediate", "deferred", "detached"][mode];
            db.set_attr(oid, "coupling", Value::Str(mode.into()))
        }
    }
}

/// The rules that fired for one `Ping` to `probe`, in order.
fn probe_order(db: &mut Database, fired: &Arc<Mutex<Vec<String>>>, probe: Oid) -> Vec<String> {
    db.send(probe, "Ping", &[]).unwrap();
    std::mem::take(&mut *fired.lock().unwrap())
}

/// `order` must be the firing order: immediate rules, then deferred,
/// then detached, each by priority (higher first) and then rule-object
/// oid, as `rules` (a `meta_rules` relation) defines them.
fn assert_firing_order(rules: &Relation, order: &[String]) {
    let key = |name: &String| {
        let row = rules
            .rows()
            .iter()
            .find(|r| r[0] == Value::Str(name.clone()))
            .expect("a rule that fired is in the catalog");
        let phase = ["immediate", "deferred", "detached"]
            .iter()
            .position(|c| row[2] == Value::Str((*c).into()));
        let (Value::Oid(oid), Value::Int(priority)) = (&row[1], &row[3]) else {
            panic!("unexpected meta_rules row {row:?}");
        };
        (phase, std::cmp::Reverse(*priority), *oid)
    };
    let keys: Vec<_> = order.iter().map(key).collect();
    assert!(keys.is_sorted(), "{order:?} fired out of order: {keys:?}");
}

fn register_log(db: &mut Database, fired: &Arc<Mutex<Vec<String>>>) {
    let fired = Arc::clone(fired);
    db.register_method("X", "Ping", |_, _, _| Ok(Value::Null))
        .unwrap();
    db.register_action("log", move |_, f| {
        fired.lock().unwrap().push(f.rule_name.to_string());
        Ok(())
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A random catalog history — rules added and removed, subscribed,
    /// toggled, re-prioritised and re-coupled, a quarter of the steps
    /// inside aborted transactions, with a checkpoint along the way in
    /// about half the cases — recovers to the same rules, the same
    /// subscriptions, and the same firing order for one probe send.
    /// Rules with equal context and subscriptions share a detector, the
    /// others do not; either way the probe fires them in the order their
    /// definitions fix.
    #[test]
    fn catalog_history_survives_a_crash(
        steps in prop::collection::vec((catalog_op(), 0u8..4), 1..32),
        checkpoint_at in 0usize..64,
        case in 0u64..u64::MAX,
    ) {
        let dir = tmpdir(&format!("catalog-{case:x}"));
        let fired = Arc::new(Mutex::new(Vec::new()));
        let (probe, rules, subs, order);
        {
            let mut db = Database::with_config(DbConfig::durable(&dir)).unwrap();
            db.define_class(ClassDecl::reactive("X").event_method("Ping", &[], EventSpec::End))
                .unwrap();
            register_log(&mut db, &fired);
            probe = db.create("X").unwrap();
            for (i, (op, abort)) in steps.iter().enumerate() {
                if checkpoint_at == i {
                    db.checkpoint().unwrap();
                }
                if *abort == 0 {
                    db.begin().unwrap();
                    let _ = apply(&mut db, op, probe);
                    db.abort().unwrap();
                } else {
                    let _ = apply(&mut db, op, probe);
                }
            }
            rules = db.meta_rules();
            subs = db.meta_subscriptions();
            order = probe_order(&mut db, &fired, probe);
            assert_firing_order(&rules, &order);
        } // drop = crash

        let mut db = Database::recover(DbConfig::durable(&dir)).unwrap();
        register_log(&mut db, &fired);
        prop_assert_eq!(db.meta_rules(), rules);
        prop_assert_eq!(db.meta_subscriptions(), subs);
        let recovered = probe_order(&mut db, &fired, probe);
        assert_firing_order(&db.meta_rules(), &recovered);
        prop_assert_eq!(recovered, order);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
