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

/// Floats the JSON log and snapshot could not hold (they became
/// `null`), plus `-0.0` and a subnormal.
const ODD_FLOATS: [f64; 5] = [
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -0.0,
    f64::MIN_POSITIVE / 2.0,
];

/// One `F` object per entry of [`ODD_FLOATS`], each written in its own
/// committed transaction.
fn odd_floats(db: &mut Database) -> Vec<Oid> {
    db.define_class(ClassDecl::new("F").attr("f", TypeTag::Float))
        .unwrap();
    ODD_FLOATS
        .iter()
        .map(|&f| {
            let o = db.create("F").unwrap();
            db.set_attr(o, "f", Value::Float(f)).unwrap();
            o
        })
        .collect()
}

fn assert_odd_floats(db: &Database, oids: &[Oid]) {
    for (&o, f) in oids.iter().zip(ODD_FLOATS) {
        match db.get_attr(o, "f").unwrap() {
            Value::Float(g) => assert_eq!(g.to_bits(), f.to_bits(), "{f} came back as {g}"),
            other => panic!("{f} came back as {other:?}"),
        }
    }
}

#[test]
fn non_finite_floats_in_the_log_recover_bit_for_bit() {
    let dir = tmpdir("float-log");
    let oids = odd_floats(&mut Database::with_config(DbConfig::durable(&dir)).unwrap());
    let db = Database::recover(DbConfig::durable(&dir)).unwrap();
    assert_odd_floats(&db, &oids);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_finite_floats_in_a_snapshot_recover_bit_for_bit() {
    let dir = tmpdir("float-snapshot");
    let oids = {
        let mut db = Database::with_config(DbConfig::durable(&dir)).unwrap();
        let oids = odd_floats(&mut db);
        db.checkpoint().unwrap();
        oids
    };
    let db = Database::recover(DbConfig::durable(&dir)).unwrap();
    assert_odd_floats(&db, &oids);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A durable database holding one `X` per value, each created in its own
/// transaction and so in its own log frame (the default sync policy
/// writes a frame per commit). Returns the log's length before the
/// first value and after each one: frame `i` spans
/// `ends[i]..ends[i + 1]`.
fn framed_history(dir: &std::path::Path, values: &[i64]) -> Vec<u64> {
    let mut db = Database::with_config(DbConfig::durable(dir)).unwrap();
    db.define_class(ClassDecl::new("X").attr("v", TypeTag::Int))
        .unwrap();
    let log_len = || std::fs::metadata(dir.join("wal.log")).unwrap().len();
    let mut ends = vec![log_len()];
    for &v in values {
        db.create_with("X", &[("v", Value::Int(v))]).unwrap();
        ends.push(log_len());
    }
    ends
}

/// The `v` of every `X`, in creation order.
fn values(db: &Database) -> Vec<i64> {
    let mut oids = db.extent("X").unwrap();
    oids.sort();
    oids.iter()
        .map(|&o| db.get_attr(o, "v").unwrap().as_int().unwrap())
        .collect()
}

/// Write `log` as the only file of the data dir `case`, then run the
/// storage layer's recovery on it.
fn recover_log(case: &std::path::Path, log: &[u8]) -> Result<sentinel::storage::Recovered> {
    std::fs::create_dir_all(case).unwrap();
    std::fs::write(case.join("wal.log"), log).unwrap();
    sentinel::storage::recover(case.join("snapshot.json"), case.join("wal.log"))
}

#[test]
fn cutting_the_final_frame_anywhere_recovers_the_prefix() {
    let dir = tmpdir("cut-final");
    let ends = framed_history(&dir, &[10, 20, 30]);
    let log = std::fs::read(dir.join("wal.log")).unwrap();
    let (start, end) = (ends[2], ends[3]);
    let case = tmpdir("cut-final-case");
    for cut in start + 1..end {
        let rec = recover_log(&case, &log[..cut as usize]).unwrap();
        assert_eq!(rec.tail_trimmed, cut - start, "cut at {cut}");
        std::fs::write(case.join("wal.log"), &log[..cut as usize]).unwrap();
        let db = Database::recover(DbConfig::durable(&case)).unwrap();
        assert_eq!(values(&db), [10, 20], "cut at {cut}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&case);
}

#[test]
fn a_flipped_bit_before_the_final_frame_is_an_error() {
    let dir = tmpdir("flip-middle");
    let ends = framed_history(&dir, &[10, 20, 30]);
    let log = std::fs::read(dir.join("wal.log")).unwrap();
    let (start, end) = (ends[1] as usize, ends[2] as usize);
    let case = tmpdir("flip-middle-case");
    for bit in start * 8..end * 8 {
        let mut bad = log.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        let err = recover_log(&case, &bad).err().unwrap_or_else(|| {
            panic!("bit {bit} flipped in a middle frame, yet the log recovered")
        });
        assert!(
            err.to_string().contains(&format!("at byte {start} ")),
            "bit {bit}: {err}"
        );
        assert!(sentinel::storage::Wal::read_all(case.join("wal.log")).is_err());
    }
    let mut bad = log.clone();
    bad[start + 9] ^= 0x10;
    std::fs::write(case.join("wal.log"), &bad).unwrap();
    assert!(Database::recover(DbConfig::durable(&case)).is_err());
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&case);
}

#[test]
fn a_flipped_bit_in_the_final_frame_is_trimmed() {
    let dir = tmpdir("flip-final");
    let ends = framed_history(&dir, &[10, 20, 30]);
    let log = std::fs::read(dir.join("wal.log")).unwrap();
    let (start, end) = (ends[2] as usize, ends[3] as usize);
    let case = tmpdir("flip-final-case");
    for bit in start * 8..end * 8 {
        let mut bad = log.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        let rec = recover_log(&case, &bad).unwrap();
        assert_eq!(rec.tail_trimmed, (end - start) as u64, "bit {bit}");
        std::fs::write(case.join("wal.log"), &bad).unwrap();
        let db = Database::recover(DbConfig::durable(&case)).unwrap();
        assert_eq!(values(&db), [10, 20], "bit {bit}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&case);
}

/// Two committed `X`s, values 10 and 20.
fn two_xs(db: &mut Database) {
    db.define_class(ClassDecl::new("X").attr("v", TypeTag::Int))
        .unwrap();
    for v in [10, 20] {
        db.create_with("X", &[("v", Value::Int(v))]).unwrap();
    }
}

#[test]
fn snapshot_damage_is_an_error_but_a_stray_temp_file_is_not() {
    let dir = tmpdir("snapshot-damage");
    {
        let mut db = Database::with_config(DbConfig::durable(&dir)).unwrap();
        two_xs(&mut db);
        db.checkpoint().unwrap();
    }
    // A checkpoint the crash cut short leaves a temp file behind.
    std::fs::write(dir.join("snapshot.tmp"), b"\x00garbage").unwrap();
    let db = Database::recover(DbConfig::durable(&dir)).unwrap();
    assert_eq!(values(&db), [10, 20]);
    drop(db);

    let snapshot = std::fs::read(dir.join("snapshot.json")).unwrap();
    // Every 13th bit: each one must be caught (the snapshot's own unit
    // test flips every bit of a smaller one).
    for bit in (0..snapshot.len() * 8).step_by(13) {
        let mut bad = snapshot.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(dir.join("snapshot.json"), &bad).unwrap();
        assert!(
            Database::recover(DbConfig::durable(&dir)).is_err(),
            "bit {bit} flipped, yet the snapshot loaded"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn data_dirs_in_the_old_json_format_name_it() {
    let dir = tmpdir("old-json-log");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("wal.log"),
        b"{\"Begin\":{\"txn\":1}}\n{\"Commit\":{\"txn\":1}}\n",
    )
    .unwrap();
    let err = Database::recover(DbConfig::durable(&dir)).err().unwrap();
    assert!(err.to_string().contains("JSON log"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);

    let dir = tmpdir("old-json-snapshot");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("snapshot.json"),
        b"{\n  \"classes\": [],\n  \"objects\": [],\n  \"clock\": 0,\n  \"extra\": \"\"\n}",
    )
    .unwrap();
    let err = Database::recover(DbConfig::durable(&dir)).err().unwrap();
    assert!(err.to_string().contains("JSON snapshot"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
