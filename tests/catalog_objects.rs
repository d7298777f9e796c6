//! Rule and event objects are the catalog. A rule's `enabled` flag and
//! its `subscriptions` (the Figure 4 consumer relation, stored at the
//! rule's end) are slots of the rule object, so they commit, abort, and
//! recover exactly like any other attribute, and the engine's flags and
//! subscription sets are only a cache rebuilt from them.

use sentinel::prelude::*;

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
