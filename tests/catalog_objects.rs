//! Rule and event objects are the catalog. A rule's definition, its
//! `enabled` flag and its `subscriptions` (the Figure 4 consumer
//! relation, stored at the rule's end) are slots of the rule object, so
//! they commit, abort, and recover exactly like any other attribute, and
//! the engine's rules are only a cache rebuilt from them.

use sentinel::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Schema of the paper's running examples: Employee/Manager with an
/// income method in the event interface.
fn payroll_db(config: DbConfig) -> Database {
    let mut db = Database::with_config(config).unwrap();
    db.define_class(
        ClassDecl::reactive("Employee")
            .attr("salary", TypeTag::Float)
            .event_method("Change-Income", &[("x", TypeTag::Float)], EventSpec::End),
    )
    .unwrap();
    db.define_class(ClassDecl::reactive("Manager").parent("Employee"))
        .unwrap();
    register_code(&mut db);
    db
}

/// Method and rule bodies are code: registered at open and again after
/// recovery.
fn register_code(db: &mut Database) {
    db.register_setter("Employee", "Change-Income", "salary")
        .unwrap();
    db.register_action("nothing", |_, _| Ok(()));
}

fn income_rule(name: &str) -> RuleDef {
    RuleDef::new(
        name,
        event("end Employee::Change-Income(float x)").unwrap(),
        "nothing",
    )
}

fn data_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sentinel-catalog-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn aborted_delete_keeps_its_subscriptions() {
    let mut db = payroll_db(DbConfig::in_memory());
    let rule = db.add_rule(income_rule("R")).unwrap();
    let fred = db.create("Employee").unwrap();
    db.subscribe(fred, "R").unwrap();

    db.begin().unwrap();
    db.delete(fred).unwrap();
    db.abort().unwrap();

    db.send(fred, "Change-Income", &[Value::Float(1.0)])
        .unwrap();
    assert_eq!(db.rule_stats("R").unwrap().triggered, 1);
    assert_eq!(
        db.get_attr(rule, "subscriptions").unwrap(),
        Value::List(vec![Value::Oid(fred)])
    );

    // A committed delete drops the edge for good.
    db.delete(fred).unwrap();
    assert_eq!(
        db.get_attr(rule, "subscriptions").unwrap(),
        Value::List(vec![])
    );
    assert_eq!(db.meta_subscriptions().len(), 0);
}

#[test]
fn enabled_slot_write_is_the_rule_flag() {
    let mut db = payroll_db(DbConfig::in_memory());
    let rule = db.add_rule(income_rule("R")).unwrap();
    let fred = db.create("Employee").unwrap();
    db.subscribe(fred, "R").unwrap();

    db.set_attr(rule, "enabled", Value::Bool(false)).unwrap();
    assert!(!db.rule_enabled("R").unwrap());
    db.send(fred, "Change-Income", &[Value::Float(1.0)])
        .unwrap();
    assert_eq!(db.rule_stats("R").unwrap().notifications, 0);

    db.set_attr(rule, "enabled", Value::Bool(true)).unwrap();
    db.begin().unwrap();
    db.set_attr(rule, "enabled", Value::Bool(false)).unwrap();
    assert!(!db.rule_enabled("R").unwrap());
    db.abort().unwrap();
    assert!(db.rule_enabled("R").unwrap());
    assert_eq!(db.get_attr(rule, "enabled").unwrap(), Value::Bool(true));
    db.send(fred, "Change-Income", &[Value::Float(2.0)])
        .unwrap();
    assert_eq!(db.rule_stats("R").unwrap().triggered, 1);
}

/// Subscribe, disable, and delete a subscribed object, crash, recover:
/// the subscription relation and every rule's flag match their
/// pre-crash values, whether the catalog changes were replayed from the
/// WAL or loaded from a snapshot.
fn catalog_survives_crash(checkpoint: bool) {
    let dir = data_dir(if checkpoint { "ckpt" } else { "wal" });
    let (fred, subs, flags);
    {
        let mut db = payroll_db(DbConfig::durable(&dir));
        db.add_rule(income_rule("Watch")).unwrap();
        db.add_class_rule("Manager", income_rule("Managers"))
            .unwrap();
        db.add_rule(income_rule("Off")).unwrap();
        fred = db.create("Employee").unwrap();
        let bob = db.create("Employee").unwrap();
        db.subscribe(fred, "Watch").unwrap();
        db.subscribe(bob, "Watch").unwrap();
        db.subscribe(fred, "Off").unwrap();
        db.disable_rule("Off").unwrap();
        db.delete(bob).unwrap();
        if checkpoint {
            db.checkpoint().unwrap();
        }
        subs = db.meta_subscriptions();
        flags = db.meta_rules();
    } // drop = crash

    let mut db = Database::recover(DbConfig::durable(&dir)).unwrap();
    assert_eq!(db.meta_subscriptions(), subs);
    assert_eq!(db.meta_rules(), flags);
    assert_eq!(db.rule_names(), ["Watch", "Managers", "Off"]);
    assert_eq!(subs.len(), 3, "{subs:?}");
    assert!(!db.rule_enabled("Off").unwrap());
    assert!(db.rule_enabled("Watch").unwrap());

    // The recovered cache routes like the original.
    register_code(&mut db);
    db.send(fred, "Change-Income", &[Value::Float(5.0)])
        .unwrap();
    assert_eq!(db.rule_stats("Watch").unwrap().triggered, 1);
    assert_eq!(db.rule_stats("Off").unwrap().notifications, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn catalog_survives_crash_from_the_wal() {
    catalog_survives_crash(false);
}

#[test]
fn catalog_survives_crash_from_a_checkpoint() {
    catalog_survives_crash(true);
}

#[test]
fn action_sends_enable_to_another_rule_object() {
    let mut db = payroll_db(DbConfig::in_memory());
    let sleeper = db.add_rule(income_rule("Sleeper")).unwrap();
    db.disable_rule("Sleeper").unwrap();
    db.register(
        ActionDef::new("wake")
            .raises(("Rule", "Enable"))
            .writes(("Rule", "enabled"))
            .body(move |w, _f| w.send(sleeper, "Enable", &[]).map(|_| ())),
    )
    .unwrap();
    db.add_rule(RuleDef::new(
        "Alarm",
        event("end Employee::Change-Income(float x)").unwrap(),
        "wake",
    ))
    .unwrap();
    let fred = db.create("Employee").unwrap();
    db.subscribe(fred, "Alarm").unwrap();
    db.subscribe(fred, "Sleeper").unwrap();

    db.send(fred, "Change-Income", &[Value::Float(1.0)])
        .unwrap();
    assert!(db.rule_enabled("Sleeper").unwrap());
    assert_eq!(db.get_attr(sleeper, "enabled").unwrap(), Value::Bool(true));
    db.send(fred, "Change-Income", &[Value::Float(2.0)])
        .unwrap();
    assert_eq!(db.rule_stats("Sleeper").unwrap().triggered, 1);
}

#[test]
fn catalog_mutations_roll_back_with_transaction() {
    let mut db = payroll_db(DbConfig::in_memory());
    let fred = db.create("Employee").unwrap();

    db.begin().unwrap();
    db.add_rule(income_rule("Tx")).unwrap();
    db.subscribe(fred, "Tx").unwrap();
    db.abort().unwrap();

    // The rule and its subscription are gone, in memory and on replay.
    assert!(db.rule_stats("Tx").is_err());
    db.send(fred, "Change-Income", &[Value::Float(1.0)])
        .unwrap();
    assert_eq!(db.engine_stats().notifications, 0);
    // And the name is reusable.
    db.add_rule(income_rule("Tx")).unwrap();
}

#[test]
fn durable_database_recovers_rules_events_and_subscriptions() {
    let dir = data_dir("rec");
    let fred;
    {
        let mut db = payroll_db(DbConfig::durable(&dir));
        fred = db.create("Employee").unwrap();
        db.send(fred, "Change-Income", &[Value::Float(70.0)])
            .unwrap();
        db.define_event("E", event("end Employee::Change-Income(float x)").unwrap())
            .unwrap();
        db.add_rule(RuleDef::new("R", db.event_expr("E").unwrap(), "nothing"))
            .unwrap();
        db.subscribe(fred, "R").unwrap();
        db.disable_rule("R").unwrap();
        db.checkpoint().unwrap();
        db.enable_rule("R").unwrap(); // post-checkpoint, recovered from WAL
        db.send(fred, "Change-Income", &[Value::Float(80.0)])
            .unwrap();
    } // drop = crash (nothing flushed beyond commit records)

    let mut db = Database::recover(DbConfig::durable(&dir)).unwrap();
    // Object state: both committed updates survive.
    assert_eq!(db.get_attr(fred, "salary").unwrap(), Value::Float(80.0));
    // Catalog: event object, rule, enablement, subscription all back.
    assert!(db.event_expr("E").is_ok());
    assert!(db.define_event("E", db.event_expr("E").unwrap()).is_err());
    assert!(db.rule_enabled("R").unwrap());
    // Re-register code, then the recovered rule fires again.
    register_code(&mut db);
    db.send(fred, "Change-Income", &[Value::Float(90.0)])
        .unwrap();
    assert_eq!(db.rule_stats("R").unwrap().triggered, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rules_on_rules_meta_monitoring() {
    // A meta-rule fires when another rule is disabled — possible because
    // Rule is a reactive class whose Disable is an event generator.
    let mut db = payroll_db(DbConfig::in_memory());
    db.define_class(ClassDecl::new("Audit").attr("count", TypeTag::Int))
        .unwrap();
    let audit = db.create("Audit").unwrap();
    db.register_action("note-disable", move |w, _f| {
        let n = w.get_attr(audit, "count")?.as_int()?;
        w.set_attr(audit, "count", Value::Int(n + 1))
    });
    let target_oid = db.add_rule(income_rule("Target")).unwrap();
    db.add_rule(RuleDef::new(
        "Watcher",
        event("end Rule::Disable()").unwrap(),
        "note-disable",
    ))
    .unwrap();
    db.subscribe(target_oid, "Watcher").unwrap();

    db.send(target_oid, "Disable", &[]).unwrap();
    assert_eq!(db.get_attr(audit, "count").unwrap(), Value::Int(1));
    // Enable does not match the Watcher's event.
    db.send(target_oid, "Enable", &[]).unwrap();
    assert_eq!(db.get_attr(audit, "count").unwrap(), Value::Int(1));
}

// ---------------------------------------------------------------------
// Firing order is a function of the rule objects, and every definition
// slot reaches the engine.
// ---------------------------------------------------------------------

/// Rule names in the order their actions ran.
type Fired = Arc<Mutex<Vec<String>>>;

/// Register `log` (and `log2`, which tags its entries) so tests can see
/// which rules ran, in which order, with which action.
fn register_log(db: &mut Database, fired: &Fired) {
    for (action, tag) in [("log", ""), ("log2", "+")] {
        let fired = Arc::clone(fired);
        db.register_action(action, move |_, f| {
            fired.lock().unwrap().push(format!("{}{tag}", f.rule_name));
            Ok(())
        });
    }
}

/// One income change on `fred`; returns the rules that fired, in order.
fn probe(db: &mut Database, fired: &Fired, fred: Oid) -> Vec<String> {
    db.send(fred, "Change-Income", &[Value::Float(1.0)])
        .unwrap();
    std::mem::take(&mut *fired.lock().unwrap())
}

fn logged_rule(name: &str) -> RuleDef {
    RuleDef::new(
        name,
        event("end Employee::Change-Income(float x)").unwrap(),
        "log",
    )
}

#[test]
fn aborted_remove_rule_keeps_the_firing_order() {
    let fired = Fired::default();
    let mut db = payroll_db(DbConfig::in_memory());
    register_log(&mut db, &fired);
    for name in ["Zed", "Amy", "Mid"] {
        db.add_class_rule("Employee", logged_rule(name)).unwrap();
    }
    let fred = db.create("Employee").unwrap();
    let before = probe(&mut db, &fired, fred);
    assert_eq!(before, ["Zed", "Amy", "Mid"]);

    db.begin().unwrap();
    db.remove_rule("Zed").unwrap();
    assert_eq!(probe(&mut db, &fired, fred), ["Amy", "Mid"]);
    db.abort().unwrap();

    assert_eq!(probe(&mut db, &fired, fred), before);
    assert_eq!(db.rule_names(), ["Zed", "Amy", "Mid"]);
}

/// `Zed` and `Mid` share a detector; `Amy`'s context keeps hers
/// private. A crash, replayed from the WAL or loaded from a checkpoint,
/// must not change the order in which the three fire.
fn firing_order_survives_crash(checkpoint: bool) {
    let dir = data_dir(if checkpoint {
        "order-ckpt"
    } else {
        "order-wal"
    });
    let fired = Fired::default();
    let (fred, before);
    {
        let mut db = payroll_db(DbConfig::durable(&dir));
        register_log(&mut db, &fired);
        db.add_class_rule("Employee", logged_rule("Zed")).unwrap();
        db.add_class_rule("Employee", logged_rule("Amy").context(ParamContext::Recent))
            .unwrap();
        db.add_class_rule("Employee", logged_rule("Mid")).unwrap();
        fred = db.create("Employee").unwrap();
        before = probe(&mut db, &fired, fred);
        assert_eq!(db.detector_count(), 2, "Zed and Mid share, Amy does not");
        if checkpoint {
            db.checkpoint().unwrap();
        }
    } // drop = crash

    let mut db = Database::recover(DbConfig::durable(&dir)).unwrap();
    register_code(&mut db);
    register_log(&mut db, &fired);
    assert_eq!(probe(&mut db, &fired, fred), before);
    assert_eq!(db.detector_count(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn firing_order_survives_crash_from_the_wal_and_a_checkpoint() {
    firing_order_survives_crash(false);
    firing_order_survives_crash(true);
}

/// Column `column` of rule `name`'s `meta_rules` row.
fn meta_cell(db: &Database, name: &str, column: &str) -> Value {
    let rel = db.meta_rules();
    let col = rel.columns().iter().position(|c| c == column).unwrap();
    let row = rel
        .rows()
        .iter()
        .find(|r| r[0] == Value::Str(name.into()))
        .unwrap();
    row[col].clone()
}

#[test]
fn coupling_and_action_slot_writes_change_what_runs() {
    let dir = data_dir("slots");
    let fired = Fired::default();
    let (fred, rule, rules);
    {
        let mut db = payroll_db(DbConfig::durable(&dir));
        register_log(&mut db, &fired);
        rule = db.add_class_rule("Employee", logged_rule("R")).unwrap();
        fred = db.create("Employee").unwrap();

        // An aborted write changes nothing.
        db.begin().unwrap();
        db.set_attr(rule, "coupling", Value::Str("deferred".into()))
            .unwrap();
        db.set_attr(rule, "action", Value::Str("log2".into()))
            .unwrap();
        db.abort().unwrap();
        assert_eq!(
            meta_cell(&db, "R", "coupling"),
            Value::Str("immediate".into())
        );
        assert_eq!(probe(&mut db, &fired, fred), ["R"]);

        // Deferred: the firing waits for the commit.
        db.set_attr(rule, "coupling", Value::Str("deferred".into()))
            .unwrap();
        db.begin().unwrap();
        db.send(fred, "Change-Income", &[Value::Float(2.0)])
            .unwrap();
        assert!(fired.lock().unwrap().is_empty(), "ran before commit");
        db.commit().unwrap();
        assert_eq!(std::mem::take(&mut *fired.lock().unwrap()), ["R"]);

        // A new action body runs instead of the old one.
        db.set_attr(rule, "action", Value::Str("log2".into()))
            .unwrap();
        assert_eq!(probe(&mut db, &fired, fred), ["R+"]);

        // An unregistered body is rejected: the write aborts its
        // transaction, explicit or not, and the rule is unchanged.
        for explicit in [false, true] {
            if explicit {
                db.begin().unwrap();
            }
            let err = db
                .set_attr(rule, "action", Value::Str("missing".into()))
                .unwrap_err();
            assert!(
                err.is_abort() && err.to_string().contains("missing"),
                "{err}"
            );
            assert!(db.commit().is_err(), "the transaction is gone");
            assert_eq!(
                db.get_attr(rule, "action").unwrap(),
                Value::Str("log2".into())
            );
            assert_eq!(meta_cell(&db, "R", "action"), Value::Str("log2".into()));
            assert_eq!(probe(&mut db, &fired, fred), ["R+"]);
        }
        rules = db.meta_rules();
    } // drop = crash

    let mut db = Database::recover(DbConfig::durable(&dir)).unwrap();
    assert_eq!(db.meta_rules(), rules);
    register_code(&mut db);
    register_log(&mut db, &fired);
    db.begin().unwrap();
    db.send(fred, "Change-Income", &[Value::Float(3.0)])
        .unwrap();
    assert!(
        fired.lock().unwrap().is_empty(),
        "recovered rule is not deferred"
    );
    db.commit().unwrap();
    assert_eq!(std::mem::take(&mut *fired.lock().unwrap()), ["R+"]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Does `analyze` report `code`?
fn diagnosed(db: &Database, code: DiagCode) -> bool {
    db.analyze().diagnostics.iter().any(|d| d.code == code)
}

#[test]
fn priority_slot_write_reaches_the_analyzer() {
    let dir = data_dir("priority");
    let non_confluent = |db: &Database| diagnosed(db, DiagCode::NonConfluent);
    let (rule, rules);
    {
        let mut db = payroll_db(DbConfig::durable(&dir));
        db.register(
            ActionDef::new("raise")
                .writes(("Employee", "salary"))
                .body(|_, _| Ok(())),
        )
        .unwrap();
        for name in ["A", "B"] {
            let def = RuleDef::new(
                name,
                event("end Employee::Change-Income(float x)").unwrap(),
                "raise",
            );
            db.add_class_rule("Employee", def).unwrap();
        }
        rule = db.rule_oid("B").unwrap();
        assert!(non_confluent(&db), "equal priorities, same write");

        db.begin().unwrap();
        db.set_attr(rule, "priority", Value::Int(5)).unwrap();
        assert_eq!(meta_cell(&db, "B", "priority"), Value::Int(5));
        assert!(!non_confluent(&db));
        db.abort().unwrap();
        assert_eq!(meta_cell(&db, "B", "priority"), Value::Int(0));
        assert!(non_confluent(&db));

        db.set_attr(rule, "priority", Value::Int(5)).unwrap();
        assert!(!non_confluent(&db));
        rules = db.meta_rules();
    } // drop = crash

    let db = Database::recover(DbConfig::durable(&dir)).unwrap();
    assert_eq!(db.meta_rules(), rules);
    assert_eq!(meta_cell(&db, "B", "priority"), Value::Int(5));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A write to a slot the detector does not read (priority, coupling)
/// keeps the rule's detector, with its half-detected sequence, and its
/// counters, whether the write commits or aborts.
#[test]
fn non_event_slot_writes_keep_partial_detections() {
    for (attr, value, commit) in [
        ("priority", Value::Int(7), false),
        ("coupling", Value::Str("deferred".into()), false),
        ("priority", Value::Int(7), true),
    ] {
        let fired = Fired::default();
        let mut db = payroll_db(DbConfig::in_memory());
        register_log(&mut db, &fired);
        let income = || event("end Employee::Change-Income(float x)").unwrap();
        let def = RuleDef::new("Twice", income().then(income()), "log");
        let rule = db.add_class_rule("Employee", def).unwrap();
        let fred = db.create("Employee").unwrap();
        assert!(probe(&mut db, &fired, fred).is_empty(), "half a sequence");
        assert_eq!(db.rule_detector_buffered("Twice").unwrap(), 1);

        db.begin().unwrap();
        db.set_attr(rule, attr, value).unwrap();
        if commit {
            db.commit().unwrap();
        } else {
            db.abort().unwrap();
        }
        assert_eq!(db.rule_detector_buffered("Twice").unwrap(), 1, "{attr}");
        assert_eq!(db.rule_stats("Twice").unwrap().notifications, 1, "{attr}");
        assert_eq!(probe(&mut db, &fired, fred), ["Twice"], "{attr}");
    }
}

/// A new event, like a removal, discards the rule's partial detection;
/// an abort brings it back, counters included. `Twice` shares its
/// detector with `Pair`, which keeps its own half-detected sequence.
#[test]
fn aborted_event_write_and_removal_restore_partial_detections() {
    for removal in [false, true] {
        let fired = Fired::default();
        let mut db = payroll_db(DbConfig::in_memory());
        register_log(&mut db, &fired);
        let income = || event("end Employee::Change-Income(float x)").unwrap();
        let mut rules = Vec::new();
        for name in ["Twice", "Pair"] {
            let def = RuleDef::new(name, income().then(income()), "log");
            rules.push(db.add_class_rule("Employee", def).unwrap());
        }
        let once = db.add_rule(logged_rule("Once")).unwrap();
        let fred = db.create("Employee").unwrap();
        assert!(probe(&mut db, &fired, fred).is_empty(), "half a sequence");
        assert_eq!(db.detector_count(), 2, "Twice and Pair share");

        db.begin().unwrap();
        if removal {
            db.remove_rule("Twice").unwrap();
        } else {
            let single = db.get_attr(once, "event").unwrap();
            db.set_attr(rules[0], "event", single).unwrap();
            assert_eq!(db.rule_detector_buffered("Twice").unwrap(), 0);
        }
        assert_eq!(db.rule_detector_buffered("Pair").unwrap(), 1);
        db.abort().unwrap();

        assert_eq!(db.rule_detector_buffered("Twice").unwrap(), 1);
        assert_eq!(db.rule_stats("Twice").unwrap().notifications, 1);
        assert_eq!(probe(&mut db, &fired, fred), ["Twice", "Pair"]);
    }
}

// ---------------------------------------------------------------------
// The database runs the order the analyzer certifies.
// ---------------------------------------------------------------------

/// Two rules write one attribute at distinct priorities: the analyzer
/// finds them confluent because the lower priority always writes last,
/// and swapping the priorities swaps the value that lands.
#[test]
fn priority_decides_which_write_lands_last() {
    let mut db = payroll_db(DbConfig::in_memory());
    for (action, pay) in [("pay-10", 10.0), ("pay-20", 20.0)] {
        db.register(
            ActionDef::new(action)
                .writes(("Employee", "salary"))
                .body(move |w, f| {
                    let target = f.occurrence.constituents[0].oid;
                    w.set_attr(target, "salary", Value::Float(pay))
                }),
        )
        .unwrap();
    }
    let mut add = |name: &str, action: &str, priority: i32| {
        let def = RuleDef::new(
            name,
            event("end Employee::Change-Income(float x)").unwrap(),
            action,
        );
        db.add_class_rule("Employee", def.priority(priority))
            .unwrap()
    };
    let ten = add("Ten", "pay-10", 1);
    let twenty = add("Twenty", "pay-20", 2);
    let fred = db.create("Employee").unwrap();
    let salary_after_a_change = |db: &mut Database| {
        db.send(fred, "Change-Income", &[Value::Float(1.0)])
            .unwrap();
        db.get_attr(fred, "salary").unwrap()
    };

    assert!(!diagnosed(&db, DiagCode::NonConfluent));
    assert_eq!(salary_after_a_change(&mut db), Value::Float(10.0));

    db.set_attr(ten, "priority", Value::Int(2)).unwrap();
    db.set_attr(twenty, "priority", Value::Int(1)).unwrap();
    assert!(!diagnosed(&db, DiagCode::NonConfluent));
    assert_eq!(salary_after_a_change(&mut db), Value::Float(20.0));
}

/// An unconditional abort at a higher priority, created after the rule
/// it shadows, fires first: the analyzer says so, and the shadowed
/// action never runs.
#[test]
fn a_later_higher_priority_abort_shadows_an_older_rule() {
    let mut db = payroll_db(DbConfig::in_memory());
    let runs = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&runs);
    db.register_action("count", move |_, _| {
        counter.fetch_add(1, Ordering::SeqCst);
        Ok(())
    });
    let income = || event("end Employee::Change-Income(float x)").unwrap();
    db.add_class_rule("Employee", RuleDef::new("Counted", income(), "count"))
        .unwrap();
    db.add_class_rule(
        "Employee",
        RuleDef::new("Veto", income(), ACTION_ABORT).priority(1),
    )
    .unwrap();
    assert!(diagnosed(&db, DiagCode::ShadowedByAbort));

    let fred = db.create("Employee").unwrap();
    for _ in 0..3 {
        let err = db
            .send(fred, "Change-Income", &[Value::Float(1.0)])
            .unwrap_err();
        assert!(err.is_abort(), "{err}");
    }
    assert_eq!(runs.load(Ordering::SeqCst), 0, "the shadowed action ran");
}

// ---------------------------------------------------------------------
// A queued firing runs the bodies bound when it was scheduled, whatever
// happens to its rule object before it runs.
// ---------------------------------------------------------------------

/// Register conditions `counted` and `counted2`. Each counts its runs
/// and never holds, so no action runs.
fn counted_conditions(db: &mut Database) -> [Arc<AtomicUsize>; 2] {
    ["counted", "counted2"].map(|name| {
        let runs = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&runs);
        db.register_condition(name, move |_, _| {
            seen.fetch_add(1, Ordering::SeqCst);
            Ok(false)
        });
        runs
    })
}

fn counted_rule(coupling: CouplingMode) -> RuleDef {
    income_rule("R").condition("counted").coupling(coupling)
}

fn runs(counter: &AtomicUsize) -> usize {
    counter.load(Ordering::SeqCst)
}

#[test]
fn a_deferred_firing_runs_after_its_rule_is_removed() {
    let mut db = payroll_db(DbConfig::in_memory());
    let [counted, _] = counted_conditions(&mut db);
    db.add_class_rule("Employee", counted_rule(CouplingMode::Deferred))
        .unwrap();
    let fred = db.create("Employee").unwrap();

    db.begin().unwrap();
    db.send(fred, "Change-Income", &[Value::Float(1.0)])
        .unwrap();
    db.remove_rule("R").unwrap();
    assert_eq!(runs(&counted), 0, "deferred to the commit");
    db.commit().unwrap();
    assert_eq!(runs(&counted), 1);
    assert!(db.rule_names().is_empty());
}

#[test]
fn a_deferred_firing_runs_the_condition_bound_when_it_was_scheduled() {
    let mut db = payroll_db(DbConfig::in_memory());
    let [counted, counted2] = counted_conditions(&mut db);
    let rule = db
        .add_class_rule("Employee", counted_rule(CouplingMode::Deferred))
        .unwrap();
    let fred = db.create("Employee").unwrap();

    db.begin().unwrap();
    db.send(fred, "Change-Income", &[Value::Float(1.0)])
        .unwrap();
    db.set_attr(rule, "condition", Value::Str("counted2".into()))
        .unwrap();
    db.commit().unwrap();
    assert_eq!((runs(&counted), runs(&counted2)), (1, 0));

    // Firings scheduled after the write run the new condition.
    db.send(fred, "Change-Income", &[Value::Float(2.0)])
        .unwrap();
    assert_eq!((runs(&counted), runs(&counted2)), (1, 1));
}

#[test]
fn a_queued_detached_firing_survives_an_aborted_removal() {
    let mut db = payroll_db(DbConfig::in_memory());
    let [counted, _] = counted_conditions(&mut db);
    db.set_inline_detached(false);
    db.add_class_rule("Employee", counted_rule(CouplingMode::Detached))
        .unwrap();
    let fred = db.create("Employee").unwrap();
    db.send(fred, "Change-Income", &[Value::Float(1.0)])
        .unwrap();
    assert_eq!(db.pending_detached(), 1);

    // The abort brings `R` back as a new engine rule, which may take the
    // removed one's place in the rule table.
    db.begin().unwrap();
    db.remove_rule("R").unwrap();
    db.abort().unwrap();
    assert_eq!(db.rule_names(), ["R"]);
    assert_eq!(runs(&counted), 0);

    assert_eq!(db.run_pending_detached().unwrap(), 1);
    assert_eq!(runs(&counted), 1);
    // The firing was scheduled by the removed instance: the rule that
    // came back is not credited with its evaluation.
    let stats = db.rule_stats("R").unwrap();
    assert_eq!((stats.triggered, stats.condition_evals), (1, 0));
}

#[test]
fn a_deferred_firing_runs_the_body_registered_when_it_was_scheduled() {
    let mut db = payroll_db(DbConfig::in_memory());
    let [counted, _] = counted_conditions(&mut db);
    db.add_class_rule("Employee", counted_rule(CouplingMode::Deferred))
        .unwrap();
    let fred = db.create("Employee").unwrap();

    db.begin().unwrap();
    db.send(fred, "Change-Income", &[Value::Float(1.0)])
        .unwrap();
    // Re-register the condition's code under the same name, then
    // schedule a second firing under it before the commit.
    let replaced = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&replaced);
    db.register_condition("counted", move |_, _| {
        seen.fetch_add(1, Ordering::SeqCst);
        Ok(false)
    });
    db.send(fred, "Change-Income", &[Value::Float(2.0)])
        .unwrap();
    db.commit().unwrap();
    assert_eq!((runs(&counted), runs(&replaced)), (1, 1));
    assert_eq!(db.rule_stats("R").unwrap().condition_evals, 2);
}

#[test]
fn a_detached_firing_runs_the_bodies_bound_before_its_rule_was_redefined() {
    let mut db = payroll_db(DbConfig::in_memory());
    let [counted, counted2] = counted_conditions(&mut db);
    db.set_inline_detached(false);
    let rule = db
        .add_class_rule("Employee", counted_rule(CouplingMode::Detached))
        .unwrap();
    let fred = db.create("Employee").unwrap();
    db.send(fred, "Change-Income", &[Value::Float(1.0)])
        .unwrap();
    db.set_attr(rule, "condition", Value::Str("counted2".into()))
        .unwrap();
    db.send(fred, "Change-Income", &[Value::Float(2.0)])
        .unwrap();
    assert_eq!(db.pending_detached(), 2);

    assert_eq!(db.run_pending_detached().unwrap(), 2);
    assert_eq!((runs(&counted), runs(&counted2)), (1, 1));
    let stats = db.rule_stats("R").unwrap();
    assert_eq!((stats.triggered, stats.condition_evals), (2, 2));
}

/// Two rules fire on one event, in one immediate batch. The first one's
/// action deletes the second rule's object; the second firing was
/// already scheduled, so it still runs its condition, once, and is
/// counted engine-wide only, its rule being gone.
#[test]
fn an_immediate_firing_runs_after_an_earlier_firing_removes_its_rule() {
    let mut db = payroll_db(DbConfig::in_memory());
    let [counted, _] = counted_conditions(&mut db);
    let second = db
        .add_class_rule(
            "Employee",
            income_rule("Second").condition("counted").priority(1),
        )
        .unwrap();
    db.register_action("remove-second", move |w, _| match w.class_of(second) {
        Ok(_) => w.delete(second),
        Err(_) => Ok(()),
    });
    db.add_class_rule(
        "Employee",
        RuleDef::new(
            "First",
            event("end Employee::Change-Income(float x)").unwrap(),
            "remove-second",
        )
        .priority(10),
    )
    .unwrap();
    let fred = db.create("Employee").unwrap();
    db.reset_stats();

    db.send(fred, "Change-Income", &[Value::Float(1.0)])
        .unwrap();
    assert_eq!(
        runs(&counted),
        1,
        "the second firing ran its condition once"
    );
    assert_eq!(db.rule_names(), ["First"]);
    let stats = db.stats();
    assert_eq!((stats.condition_evals, stats.actions_run), (2, 1));
    assert_eq!(db.engine_stats().immediate, 2);
    assert_eq!(db.rule_stats("First").unwrap().condition_evals, 1);

    // Later events reach the first rule only.
    db.send(fred, "Change-Income", &[Value::Float(2.0)])
        .unwrap();
    assert_eq!(runs(&counted), 1);
    assert_eq!(db.stats().condition_evals, 3);
}
