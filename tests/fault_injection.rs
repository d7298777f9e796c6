//! Failure-injection tests: torn log tails, missing code after
//! recovery, detector-state caps, and cascade runaways.

use sentinel::db::event;
use sentinel::prelude::*;
use std::io::Write;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("sentinel-fault-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn simple_schema(db: &mut Database) {
    db.define_class(
        ClassDecl::reactive("X")
            .attr("v", TypeTag::Int)
            .event_method("Set", &[("v", TypeTag::Int)], EventSpec::End),
    )
    .unwrap();
    db.register_setter("X", "Set", "v").unwrap();
}

#[test]
fn torn_wal_tail_recovers_committed_prefix() {
    let dir = tmpdir("torn");
    let o;
    {
        let mut db = Database::with_config(DbConfig::durable(&dir)).unwrap();
        simple_schema(&mut db);
        db.checkpoint().unwrap();
        o = db.create("X").unwrap();
        db.send(o, "Set", &[Value::Int(5)]).unwrap();
    }
    // Simulate a crash mid-append: garbage half-record at the tail.
    let wal = dir.join("wal.log");
    let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
    f.write_all(b"{\"SetSlot\":{\"txn\":99,\"oi").unwrap();
    drop(f);

    let db = Database::recover(DbConfig::durable(&dir)).unwrap();
    assert_eq!(db.get_attr(o, "v").unwrap(), Value::Int(5));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovered_rule_without_code_fails_cleanly_until_rebound() {
    let dir = tmpdir("nobody");
    let o;
    {
        let mut db = Database::with_config(DbConfig::durable(&dir)).unwrap();
        simple_schema(&mut db);
        db.register_action("custom-act", |_, _| Ok(()));
        db.add_class_rule(
            "X",
            RuleDef::new(
                "NeedsCode",
                event("end X::Set(int v)").unwrap(),
                "custom-act",
            ),
        )
        .unwrap();
        o = db.create("X").unwrap();
        db.send(o, "Set", &[Value::Int(1)]).unwrap();
    }
    let mut db = Database::recover(DbConfig::durable(&dir)).unwrap();
    db.register_setter("X", "Set", "v").unwrap();
    // The rule is back but its action body is not registered: firing
    // errors cleanly (and the auto-transaction rolls back) rather than
    // panicking or silently skipping.
    let err = db.send(o, "Set", &[Value::Int(2)]).err().unwrap();
    assert!(
        matches!(err, ObjectError::BodyNotRegistered { kind: "action", .. }),
        "got {err}"
    );
    // The predicates classify it: not an abort, not a lookup miss.
    assert!(!err.is_abort());
    assert!(!err.is_not_found());
    assert_eq!(db.get_attr(o, "v").unwrap(), Value::Int(1));
    // Whereas asking for things that don't exist IS a lookup miss —
    // `is_not_found()` spares callers matching `#[non_exhaustive]`
    // variants directly.
    assert!(db.remove_rule("NoSuchRule").unwrap_err().is_not_found());
    assert!(db.get_attr(Oid(u64::MAX), "v").unwrap_err().is_not_found());
    // Re-registering the body restores full operation.
    db.register_action("custom-act", |_, _| Ok(()));
    db.send(o, "Set", &[Value::Int(2)]).unwrap();
    assert_eq!(db.get_attr(o, "v").unwrap(), Value::Int(2));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn detector_caps_bound_state_under_flood() {
    // An unbalanced conjunction (left events flood, right never comes)
    // must not grow without bound.
    let mut cfg = DbConfig::in_memory();
    cfg.detector_caps = DetectorCaps {
        max_buffered_per_node: 16,
    };
    let mut db = Database::with_config(cfg).unwrap();
    db.define_class(ClassDecl::reactive("L").event_method("m", &[], EventSpec::End))
        .unwrap();
    db.define_class(ClassDecl::reactive("R").event_method("n", &[], EventSpec::End))
        .unwrap();
    db.register_method("L", "m", |_, _, _| Ok(Value::Null))
        .unwrap();
    db.register_method("R", "n", |_, _, _| Ok(Value::Null))
        .unwrap();
    db.register_action("ok", |_, _| Ok(()));
    db.add_rule(RuleDef::new(
        "flood",
        event("end L::m()")
            .unwrap()
            .and(event("end R::n()").unwrap()),
        "ok",
    ))
    .unwrap();
    let l = db.create("L").unwrap();
    db.subscribe(l, "flood").unwrap();
    for _ in 0..10_000 {
        db.send(l, "m", &[]).unwrap();
    }
    assert!(db.rule_detector_buffered("flood").unwrap() <= 16);
}

#[test]
fn abort_restores_consumed_detector_state() {
    // Regression test for the banking scenario: an aborted transaction
    // whose detection consumed a buffered occurrence must re-arm it.
    let mut db = Database::new();
    db.define_class(
        ClassDecl::reactive("A")
            .attr("hits", TypeTag::Int)
            .event_method("First", &[], EventSpec::End)
            .event_method("Second", &[], EventSpec::End),
    )
    .unwrap();
    db.register_method("A", "First", |_, _, _| Ok(Value::Null))
        .unwrap();
    db.register_method("A", "Second", |_, _, _| Ok(Value::Null))
        .unwrap();
    db.register_action("hit", |w, f| {
        let o = f.occurrence.constituents[0].oid;
        let n = w.get_attr(o, "hits")?.as_int()?;
        w.set_attr(o, "hits", Value::Int(n + 1))
    });
    db.add_class_rule(
        "A",
        RuleDef::new(
            "seq",
            event("end A::First()")
                .unwrap()
                .then(event("end A::Second()").unwrap()),
            "hit",
        )
        .context(ParamContext::Chronicle),
    )
    .unwrap();
    let a = db.create("A").unwrap();
    db.send(a, "First", &[]).unwrap(); // committed: arms the sequence

    // An explicitly aborted transaction performs Second: the detection
    // fires inside it (and is rolled back), and the consumed First must
    // be restored.
    db.begin().unwrap();
    db.send(a, "Second", &[]).unwrap();
    assert_eq!(db.get_attr(a, "hits").unwrap(), Value::Int(1));
    db.abort().unwrap();
    assert_eq!(db.get_attr(a, "hits").unwrap(), Value::Int(0));

    // The committed First is still armed: a committed Second detects.
    db.send(a, "Second", &[]).unwrap();
    assert_eq!(db.get_attr(a, "hits").unwrap(), Value::Int(1));
    // And it was consumed by that committed detection.
    db.send(a, "Second", &[]).unwrap();
    assert_eq!(db.get_attr(a, "hits").unwrap(), Value::Int(1));
}

#[test]
fn checkpoint_truncates_wal_and_survives() {
    let dir = tmpdir("ckpt");
    let o;
    {
        let mut db = Database::with_config(DbConfig::durable(&dir)).unwrap();
        simple_schema(&mut db);
        o = db.create("X").unwrap();
        for v in 0..100 {
            db.send(o, "Set", &[Value::Int(v)]).unwrap();
        }
        db.checkpoint().unwrap();
        let wal_len = std::fs::metadata(dir.join("wal.log")).unwrap().len();
        assert_eq!(wal_len, 0, "checkpoint truncates the log");
        db.send(o, "Set", &[Value::Int(123)]).unwrap();
    }
    let db = Database::recover(DbConfig::durable(&dir)).unwrap();
    assert_eq!(db.get_attr(o, "v").unwrap(), Value::Int(123));
    let _ = std::fs::remove_dir_all(&dir);
}
