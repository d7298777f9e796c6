//! End-to-end tests of the Sentinel database facade, mapped to the
//! paper's figures and worked examples.

use sentinel_db::prelude::*;
use sentinel_db::{event, Database};

/// Schema of the paper's running examples: Employee/Manager with income
/// methods in the event interface.
fn payroll_db() -> Database {
    let mut db = Database::new();
    db.define_class(
        ClassDecl::reactive("Employee")
            .attr("salary", TypeTag::Float)
            .attr("name", TypeTag::Str)
            .attr("mgr", TypeTag::Oid)
            .event_method(
                "Change-Income",
                &[("amount", TypeTag::Float)],
                EventSpec::End,
            )
            .method("Get-Income", &[]),
    )
    .unwrap();
    db.define_class(ClassDecl::reactive("Manager").parent("Employee"))
        .unwrap();
    db.register_setter("Employee", "Change-Income", "salary")
        .unwrap();
    db.register_getter("Employee", "Get-Income", "salary")
        .unwrap();
    db
}

#[test]
fn quickstart_counter() {
    let mut db = Database::new();
    db.define_class(
        ClassDecl::reactive("Counter")
            .attr("n", TypeTag::Int)
            .event_method("Bump", &[], EventSpec::End),
    )
    .unwrap();
    db.register_method("Counter", "Bump", |w, this, _| {
        let n = w.get_attr(this, "n")?.as_int()?;
        w.set_attr(this, "n", Value::Int(n + 1))?;
        Ok(Value::Null)
    })
    .unwrap();
    let c = db.create("Counter").unwrap();
    for _ in 0..3 {
        db.send(c, "Bump", &[]).unwrap();
    }
    assert_eq!(db.get_attr(c, "n").unwrap(), Value::Int(3));
    assert_eq!(db.stats().events_generated, 3);
}

#[test]
fn figure_10_income_level_instance_rule_spans_classes() {
    // Fred (Employee) and Mike (Manager) must always have equal income.
    let mut db = payroll_db();
    let fred = db
        .create_with("Employee", &[("name", "Fred".into())])
        .unwrap();
    let mike = db
        .create_with("Manager", &[("name", "Mike".into())])
        .unwrap();

    db.register_condition("incomes-differ", move |w, _f| {
        Ok(w.get_attr(fred, "salary")? != w.get_attr(mike, "salary")?)
    });
    db.register_action("make-equal", move |w, f| {
        // Set both to the amount carried by the triggering event.
        let amount = f
            .param_of("Change-Income", 0)
            .cloned()
            .unwrap_or(Value::Float(0.0));
        w.set_attr(fred, "salary", amount.clone())?;
        w.set_attr(mike, "salary", amount)?;
        Ok(())
    });

    // Disjunction over events from two distinct classes (Figure 10).
    let e = event("end Employee::Change-Income(float amount)")
        .unwrap()
        .or(event("end Manager::Change-Income(float amount)").unwrap());
    db.add_rule(RuleDef::new("IncomeLevel", e, "make-equal").condition("incomes-differ"))
        .unwrap();
    db.subscribe(fred, "IncomeLevel").unwrap();
    db.subscribe(mike, "IncomeLevel").unwrap();

    db.send(fred, "Change-Income", &[Value::Float(120.0)])
        .unwrap();
    assert_eq!(db.get_attr(mike, "salary").unwrap(), Value::Float(120.0));
    db.send(mike, "Change-Income", &[Value::Float(300.0)])
        .unwrap();
    assert_eq!(db.get_attr(fred, "salary").unwrap(), Value::Float(300.0));

    let rs = db.rule_stats("IncomeLevel").unwrap();
    assert!(rs.triggered >= 2);
    assert!(rs.actions_run >= 2);
}

#[test]
fn figure_9_marriage_rule_aborts_transaction() {
    let mut db = Database::new();
    db.define_class(
        ClassDecl::reactive("Person")
            .attr("sex", TypeTag::Str)
            .attr("spouse", TypeTag::Oid)
            .event_method("Marry", &[("spouse", TypeTag::Oid)], EventSpec::Begin),
    )
    .unwrap();
    db.register_method("Person", "Marry", |w, this, args| {
        let spouse = args[0].as_oid()?;
        w.set_attr(this, "spouse", Value::Oid(spouse))?;
        w.set_attr(spouse, "spouse", Value::Oid(this))?;
        Ok(Value::Null)
    })
    .unwrap();
    db.register_condition("same-sex", |w, f| {
        let p = f.occurrence.constituent_for_method("Marry").unwrap();
        let spouse = p.param(0).unwrap().as_oid()?;
        Ok(w.get_attr(p.oid, "sex")? == w.get_attr(spouse, "sex")?)
    });
    // Class-level rule: applies to all Person objects (Figure 9).
    db.add_class_rule(
        "Person",
        RuleDef::new(
            "Marriage",
            event("begin Person::Marry(Person* spouse)").unwrap(),
            ACTION_ABORT,
        )
        .condition("same-sex"),
    )
    .unwrap();

    let a = db.create_with("Person", &[("sex", "m".into())]).unwrap();
    let b = db.create_with("Person", &[("sex", "m".into())]).unwrap();
    let c = db.create_with("Person", &[("sex", "f".into())]).unwrap();

    // Violating marriage: aborted, no state change.
    let err = db.send(a, "Marry", &[Value::Oid(b)]).err().unwrap();
    assert!(err.is_abort());
    assert_eq!(db.get_attr(a, "spouse").unwrap(), Value::Oid(Oid::NIL));
    assert_eq!(db.get_attr(b, "spouse").unwrap(), Value::Oid(Oid::NIL));

    // Valid marriage: proceeds.
    db.send(a, "Marry", &[Value::Oid(c)]).unwrap();
    assert_eq!(db.get_attr(a, "spouse").unwrap(), Value::Oid(c));
    assert_eq!(db.get_attr(c, "spouse").unwrap(), Value::Oid(a));
    assert_eq!(db.stats().aborts, 1);
    assert!(db.stats().commits >= 1);
}

#[test]
fn class_level_rule_applies_to_future_instances() {
    let mut db = payroll_db();
    db.register_action("count", |w, _f| {
        let counter = w.extent("Tally")?[0];
        let n = w.get_attr(counter, "n")?.as_int()?;
        w.set_attr(counter, "n", Value::Int(n + 1))
    });
    db.define_class(ClassDecl::new("Tally").attr("n", TypeTag::Int))
        .unwrap();
    db.create("Tally").unwrap();
    db.add_class_rule(
        "Employee",
        RuleDef::new(
            "CountIncomeChanges",
            event("end Employee::Change-Income(float x)").unwrap(),
            "count",
        ),
    )
    .unwrap();
    // Instance created *after* the rule — still covered.
    let late = db.create("Employee").unwrap();
    db.send(late, "Change-Income", &[Value::Float(1.0)])
        .unwrap();
    // Subclass instance — covered through the class hierarchy.
    let mgr = db.create("Manager").unwrap();
    db.send(mgr, "Change-Income", &[Value::Float(2.0)]).unwrap();
    let tally = db.extent("Tally").unwrap()[0];
    assert_eq!(db.get_attr(tally, "n").unwrap(), Value::Int(2));
}

#[test]
fn purchase_rule_inter_object_conjunction() {
    // §2.1: WHEN IBM!SetPrice And DowJones!SetValue
    //       IF IBM price < 80 and DowJones change < 3.4
    //       THEN Parker!PurchaseIBMStock
    let mut db = Database::new();
    db.define_class(
        ClassDecl::reactive("Stock")
            .attr("price", TypeTag::Float)
            .event_method("SetPrice", &[("p", TypeTag::Float)], EventSpec::End),
    )
    .unwrap();
    db.define_class(
        ClassDecl::reactive("FinancialInfo")
            .attr("change", TypeTag::Float)
            .event_method("SetValue", &[("v", TypeTag::Float)], EventSpec::End),
    )
    .unwrap();
    db.define_class(
        ClassDecl::new("Portfolio")
            .attr("shares", TypeTag::Int)
            .method("PurchaseIBMStock", &[]),
    )
    .unwrap();
    db.register_setter("Stock", "SetPrice", "price").unwrap();
    db.register_setter("FinancialInfo", "SetValue", "change")
        .unwrap();
    db.register_method("Portfolio", "PurchaseIBMStock", |w, this, _| {
        let s = w.get_attr(this, "shares")?.as_int()?;
        w.set_attr(this, "shares", Value::Int(s + 100))?;
        Ok(Value::Null)
    })
    .unwrap();

    let ibm = db.create("Stock").unwrap();
    let dj = db.create("FinancialInfo").unwrap();
    let parker = db.create("Portfolio").unwrap();

    db.register_condition("buy-window", move |w, _f| {
        Ok(w.get_attr(ibm, "price")?.as_float()? < 80.0
            && w.get_attr(dj, "change")?.as_float()? < 3.4)
    });
    db.register_action("purchase", move |w, _f| {
        w.send(parker, "PurchaseIBMStock", &[])?;
        Ok(())
    });

    let e = event("end Stock::SetPrice(float p)")
        .unwrap()
        .and(event("end FinancialInfo::SetValue(float v)").unwrap());
    db.add_rule(
        RuleDef::new("Purchase", e, "purchase")
            .condition("buy-window")
            .context(ParamContext::Recent),
    )
    .unwrap();
    db.subscribe(ibm, "Purchase").unwrap();
    db.subscribe(dj, "Purchase").unwrap();

    // Price high: conjunction completes but condition fails.
    db.send(ibm, "SetPrice", &[Value::Float(95.0)]).unwrap();
    db.send(dj, "SetValue", &[Value::Float(1.0)]).unwrap();
    assert_eq!(db.get_attr(parker, "shares").unwrap(), Value::Int(0));

    // Price drops into the window: next conjunction buys.
    db.send(ibm, "SetPrice", &[Value::Float(75.0)]).unwrap();
    db.send(dj, "SetValue", &[Value::Float(2.0)]).unwrap();
    assert_eq!(db.get_attr(parker, "shares").unwrap(), Value::Int(100));
}

#[test]
fn deposit_withdraw_sequence_event() {
    // §4.6: Sequence(end Deposit, before Withdraw).
    let mut db = Database::new();
    db.define_class(
        ClassDecl::reactive("Account")
            .attr("balance", TypeTag::Float)
            .attr("flagged", TypeTag::Bool)
            .event_method("Deposit", &[("x", TypeTag::Float)], EventSpec::End)
            .event_method("Withdraw", &[("x", TypeTag::Float)], EventSpec::Begin),
    )
    .unwrap();
    db.register_method("Account", "Deposit", |w, this, args| {
        let b = w.get_attr(this, "balance")?.as_float()?;
        w.set_attr(this, "balance", Value::Float(b + args[0].as_float()?))?;
        Ok(Value::Null)
    })
    .unwrap();
    db.register_method("Account", "Withdraw", |w, this, args| {
        let b = w.get_attr(this, "balance")?.as_float()?;
        w.set_attr(this, "balance", Value::Float(b - args[0].as_float()?))?;
        Ok(Value::Null)
    })
    .unwrap();
    db.register_action("flag", |w, f| {
        let acct = f.occurrence.constituent_for_method("Withdraw").unwrap().oid;
        w.set_attr(acct, "flagged", Value::Bool(true))
    });
    let dep_wit = event("end Account::Deposit(float x)")
        .unwrap()
        .then(event("before Account::Withdraw(float x)").unwrap());
    db.define_event("DepWit", dep_wit.clone()).unwrap();
    db.add_class_rule(
        "Account",
        RuleDef::new(
            "FlagDepositThenWithdraw",
            db.event_expr("DepWit").unwrap(),
            "flag",
        )
        .context(ParamContext::Chronicle),
    )
    .unwrap();

    let a = db.create("Account").unwrap();
    // Withdraw alone: no flag (sequence needs the deposit first).
    db.send(a, "Withdraw", &[Value::Float(5.0)]).unwrap();
    assert_eq!(db.get_attr(a, "flagged").unwrap(), Value::Bool(false));
    db.send(a, "Deposit", &[Value::Float(10.0)]).unwrap();
    db.send(a, "Withdraw", &[Value::Float(5.0)]).unwrap();
    assert_eq!(db.get_attr(a, "flagged").unwrap(), Value::Bool(true));
    assert_eq!(db.get_attr(a, "balance").unwrap(), Value::Float(0.0));
    // The event object is first-class: it has an oid in the store.
    assert!(!db.event_oid("DepWit").unwrap().is_nil());
}

#[test]
fn passive_objects_generate_no_events() {
    let mut db = Database::new();
    db.define_class(
        ClassDecl::new("Plain")
            .attr("x", TypeTag::Int)
            .method("Set", &[("v", TypeTag::Int)]),
    )
    .unwrap();
    db.register_setter("Plain", "Set", "x").unwrap();
    let p = db.create("Plain").unwrap();
    db.send(p, "Set", &[Value::Int(5)]).unwrap();
    assert_eq!(db.stats().events_generated, 0);
    assert_eq!(db.engine_stats().occurrences, 0);
    // Subscribing a rule to a passive object is rejected.
    db.register_action("noop2", |_, _| Ok(()));
    db.define_class(ClassDecl::reactive("R").event_method("m", &[], EventSpec::End))
        .unwrap();
    db.add_rule(RuleDef::new("r", event("end R::m()").unwrap(), "noop2"))
        .unwrap();
    assert!(db.subscribe(p, "r").is_err());
}

#[test]
fn undeclared_methods_generate_no_events() {
    let mut db = payroll_db();
    let fred = db.create("Employee").unwrap();
    db.set_attr(fred, "salary", Value::Float(10.0)).unwrap();
    db.send(fred, "Get-Income", &[]).unwrap();
    assert_eq!(
        db.stats().events_generated,
        0,
        "Get-Income is not in the event interface"
    );
    db.send(fred, "Change-Income", &[Value::Float(1.0)])
        .unwrap();
    assert_eq!(db.stats().events_generated, 1);
}

#[test]
fn coupling_modes_execution_placement() {
    let mut db = payroll_db();
    db.define_class(ClassDecl::new("Log").attr("entries", TypeTag::List))
        .unwrap();
    let log = db.create("Log").unwrap();
    let mk_action = |label: &'static str| {
        move |w: &mut dyn World, _f: &Firing| {
            let log = w.extent("Log")?[0];
            let mut l = w.get_attr(log, "entries")?.as_list()?.to_vec();
            l.push(Value::Str(label.into()));
            w.set_attr(log, "entries", Value::List(l))
        }
    };
    db.register_action("log-imm", mk_action("immediate"));
    db.register_action("log-def", mk_action("deferred"));
    db.register_action("log-det", mk_action("detached"));

    let e = || event("end Employee::Change-Income(float x)").unwrap();
    db.add_class_rule("Employee", RuleDef::new("imm", e(), "log-imm"))
        .unwrap();
    db.add_class_rule(
        "Employee",
        RuleDef::new("def", e(), "log-def").coupling(CouplingMode::Deferred),
    )
    .unwrap();
    db.add_class_rule(
        "Employee",
        RuleDef::new("det", e(), "log-det").coupling(CouplingMode::Detached),
    )
    .unwrap();

    let fred = db.create("Employee").unwrap();
    db.begin().unwrap();
    db.send(fred, "Change-Income", &[Value::Float(10.0)])
        .unwrap();
    db.send(fred, "Change-Income", &[Value::Float(20.0)])
        .unwrap();
    // Mid-transaction: only the immediate rule has run.
    let entries = db.get_attr(log, "entries").unwrap();
    assert_eq!(
        entries.as_list().unwrap().len(),
        2,
        "two immediate runs, deferred/detached still pending"
    );
    db.commit().unwrap();
    let entries = db.get_attr(log, "entries").unwrap();
    let labels: Vec<String> = entries
        .as_list()
        .unwrap()
        .iter()
        .map(|v| v.as_str().unwrap().to_string())
        .collect();
    assert_eq!(
        labels,
        [
            "immediate",
            "immediate",
            "deferred",
            "deferred",
            "detached",
            "detached"
        ]
    );
    assert_eq!(db.stats().detached_runs, 2);
}

#[test]
fn deferred_rules_die_with_aborted_transaction() {
    let mut db = payroll_db();
    db.register_action("boom", |_, _| panic!("must never run"));
    db.add_class_rule(
        "Employee",
        RuleDef::new(
            "NeverRuns",
            event("end Employee::Change-Income(float x)").unwrap(),
            "boom",
        )
        .coupling(CouplingMode::Deferred),
    )
    .unwrap();
    let fred = db.create("Employee").unwrap();
    db.begin().unwrap();
    db.send(fred, "Change-Income", &[Value::Float(9.0)])
        .unwrap();
    db.abort().unwrap();
    assert_eq!(db.get_attr(fred, "salary").unwrap(), Value::Float(0.0));
}

#[test]
fn detached_abort_is_isolated() {
    // A detached rule that aborts only rolls back its own transaction.
    let mut db = payroll_db();
    db.register_action("update-then-abort", |w, _f| {
        let fred = w.extent("Employee")?[0];
        w.set_attr(fred, "name", Value::Str("ghost".into()))?;
        Err(ObjectError::abort("detached failure"))
    });
    db.add_class_rule(
        "Employee",
        RuleDef::new(
            "DetachedAbort",
            event("end Employee::Change-Income(float x)").unwrap(),
            "update-then-abort",
        )
        .coupling(CouplingMode::Detached),
    )
    .unwrap();
    let fred = db
        .create_with("Employee", &[("name", "Fred".into())])
        .unwrap();
    db.send(fred, "Change-Income", &[Value::Float(50.0)])
        .unwrap();
    // The triggering update survives; the detached mutation was undone.
    assert_eq!(db.get_attr(fred, "salary").unwrap(), Value::Float(50.0));
    assert_eq!(
        db.get_attr(fred, "name").unwrap(),
        Value::Str("Fred".into())
    );
    assert_eq!(db.stats().aborts, 1);
}

#[test]
fn rules_are_first_class_objects_with_oids() {
    let mut db = payroll_db();
    db.register_action("nothing", |_, _| Ok(()));
    let oid = db
        .add_rule(RuleDef::new(
            "R",
            event("end Employee::Change-Income(float x)").unwrap(),
            "nothing",
        ))
        .unwrap();
    // The rule object lives in the store with readable attributes.
    assert_eq!(db.get_attr(oid, "name").unwrap(), Value::Str("R".into()));
    assert_eq!(db.get_attr(oid, "enabled").unwrap(), Value::Bool(true));
    // Enable/Disable are messages to the rule object.
    db.send(oid, "Disable", &[]).unwrap();
    assert!(!db.rule_enabled("R").unwrap());
    assert_eq!(db.get_attr(oid, "enabled").unwrap(), Value::Bool(false));
    db.send(oid, "Enable", &[]).unwrap();
    assert!(db.rule_enabled("R").unwrap());
    // Deleting the rule removes the rule object.
    db.remove_rule("R").unwrap();
    assert!(db.get_attr(oid, "name").is_err());
}

#[test]
fn disabled_rule_does_not_fire_or_record() {
    let mut db = payroll_db();
    db.register_action("nothing", |_, _| Ok(()));
    db.add_class_rule(
        "Employee",
        RuleDef::new(
            "R",
            event("end Employee::Change-Income(float x)").unwrap(),
            "nothing",
        ),
    )
    .unwrap();
    let fred = db.create("Employee").unwrap();
    db.disable_rule("R").unwrap();
    db.send(fred, "Change-Income", &[Value::Float(1.0)])
        .unwrap();
    let rs = db.rule_stats("R").unwrap();
    assert_eq!(rs.notifications, 0);
    assert_eq!(rs.triggered, 0);
}

#[test]
fn cascade_depth_limit_stops_self_triggering_rule() {
    let mut db = Database::new();
    db.define_class(
        ClassDecl::reactive("Ping")
            .attr("n", TypeTag::Int)
            .event_method("Hit", &[], EventSpec::End),
    )
    .unwrap();
    db.register_method("Ping", "Hit", |w, this, _| {
        let n = w.get_attr(this, "n")?.as_int()?;
        w.set_attr(this, "n", Value::Int(n + 1))?;
        Ok(Value::Null)
    })
    .unwrap();
    db.register_action("hit-again", |w, f| {
        let this = f.occurrence.constituents[0].oid;
        w.send(this, "Hit", &[])?;
        Ok(())
    });
    db.add_class_rule(
        "Ping",
        RuleDef::new(
            "SelfTrigger",
            event("end Ping::Hit()").unwrap(),
            "hit-again",
        ),
    )
    .unwrap();
    let p = db.create("Ping").unwrap();
    let err = db.send(p, "Hit", &[]).err().unwrap();
    assert!(matches!(err, ObjectError::CascadeDepthExceeded { .. }));
    // The auto-transaction rolled everything back.
    assert_eq!(db.get_attr(p, "n").unwrap(), Value::Int(0));
}

/// A `Ping` database whose `Chain` rule re-sends `Hit` until `n` passes
/// `hops`, with firing history on so lineage depths are recorded.
fn hit_chain_db(limit: usize, hops: i64, coupling: CouplingMode) -> (Database, Oid) {
    let cfg = DbConfig {
        max_cascade_depth: limit,
        history_enabled: true,
        ..DbConfig::default()
    };
    let mut db = Database::with_config(cfg).unwrap();
    db.define_class(
        ClassDecl::reactive("Ping")
            .attr("n", TypeTag::Int)
            .event_method("Hit", &[], EventSpec::End),
    )
    .unwrap();
    db.register_method("Ping", "Hit", |w, this, _| {
        let n = w.get_attr(this, "n")?.as_int()?;
        w.set_attr(this, "n", Value::Int(n + 1))?;
        Ok(Value::Null)
    })
    .unwrap();
    db.register_action("hit-chain", move |w, f| {
        let this = f.occurrence.constituents[0].oid;
        let n = w.get_attr(this, "n")?.as_int()?;
        if n <= hops {
            w.send(this, "Hit", &[])?;
        }
        Ok(())
    });
    db.add_class_rule(
        "Ping",
        RuleDef::new("Chain", event("end Ping::Hit()").unwrap(), "hit-chain").coupling(coupling),
    )
    .unwrap();
    let p = db.create("Ping").unwrap();
    (db, p)
}

/// Pins the exact inclusive semantics documented on
/// `DbConfig::max_cascade_depth`: every checkpoint permits exactly
/// `max_cascade_depth` levels/rounds, so a deferred chain commits
/// lineage depths up to `limit - 1` and aborts one hop past it, while
/// an immediate chain burns a dispatch level plus an action level per
/// hop and needs `limit >= 2 * (depth + 1)`.
#[test]
fn cascade_depth_limit_boundary_is_inclusive() {
    let committed_max_depth = |db: &Database| {
        db.telemetry()
            .firings()
            .dump_all()
            .iter()
            .map(|r| r.depth)
            .max()
    };

    // Deferred: one firing generation per round. `limit` rounds permit
    // lineage depths 0..=limit-1, and the next generation aborts.
    let (mut db, p) = hit_chain_db(3, 2, CouplingMode::Deferred);
    db.send(p, "Hit", &[]).unwrap();
    assert_eq!(db.get_attr(p, "n").unwrap(), Value::Int(3));
    assert_eq!(committed_max_depth(&db), Some(2));

    let (mut db, p) = hit_chain_db(3, 3, CouplingMode::Deferred);
    let err = db.send(p, "Hit", &[]).err().unwrap();
    assert!(matches!(
        err,
        ObjectError::CascadeDepthExceeded { limit: 3 }
    ));
    assert_eq!(db.get_attr(p, "n").unwrap(), Value::Int(0));

    // Immediate: each hop nests a message dispatch and an action frame,
    // so lineage depth 1 fits in 4 levels but not 3.
    let (mut db, p) = hit_chain_db(4, 1, CouplingMode::Immediate);
    db.send(p, "Hit", &[]).unwrap();
    assert_eq!(db.get_attr(p, "n").unwrap(), Value::Int(2));
    assert_eq!(committed_max_depth(&db), Some(1));

    let (mut db, p) = hit_chain_db(3, 1, CouplingMode::Immediate);
    let err = db.send(p, "Hit", &[]).err().unwrap();
    assert!(matches!(
        err,
        ObjectError::CascadeDepthExceeded { limit: 3 }
    ));
    assert_eq!(db.get_attr(p, "n").unwrap(), Value::Int(0));

    // Depth 0 (the root firing alone) always fits in 2 levels.
    let (mut db, p) = hit_chain_db(2, 0, CouplingMode::Immediate);
    db.send(p, "Hit", &[]).unwrap();
    assert_eq!(committed_max_depth(&db), Some(0));
}

#[test]
fn unsubscribe_stops_delivery() {
    let mut db = payroll_db();
    db.register_action("nothing", |_, _| Ok(()));
    db.add_rule(RuleDef::new(
        "R",
        event("end Employee::Change-Income(float x)").unwrap(),
        "nothing",
    ))
    .unwrap();
    let fred = db.create("Employee").unwrap();
    db.subscribe(fred, "R").unwrap();
    db.send(fred, "Change-Income", &[Value::Float(1.0)])
        .unwrap();
    db.unsubscribe(fred, "R").unwrap();
    db.send(fred, "Change-Income", &[Value::Float(2.0)])
        .unwrap();
    assert_eq!(db.rule_stats("R").unwrap().notifications, 1);
}

#[test]
fn recovery_is_idempotent() {
    let dir = std::env::temp_dir().join(format!("sentinel-db-idem-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let fred;
    {
        let mut db = Database::with_config(DbConfig::durable(&dir)).unwrap();
        db.define_class(
            ClassDecl::reactive("Employee")
                .attr("salary", TypeTag::Float)
                .event_method("Change-Income", &[("x", TypeTag::Float)], EventSpec::End),
        )
        .unwrap();
        db.register_setter("Employee", "Change-Income", "salary")
            .unwrap();
        fred = db.create("Employee").unwrap();
        db.checkpoint().unwrap();
        db.send(fred, "Change-Income", &[Value::Float(70.0)])
            .unwrap();
    }
    // Recover twice without writing; state must match.
    let db1 = Database::recover(DbConfig::durable(&dir)).unwrap();
    let v1 = db1.get_attr(fred, "salary").unwrap();
    drop(db1);
    let db2 = Database::recover(DbConfig::durable(&dir)).unwrap();
    assert_eq!(db2.get_attr(fred, "salary").unwrap(), v1);
    assert_eq!(v1, Value::Float(70.0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explicit_transaction_groups_sends() {
    let mut db = payroll_db();
    let fred = db.create("Employee").unwrap();
    db.begin().unwrap();
    db.send(fred, "Change-Income", &[Value::Float(10.0)])
        .unwrap();
    db.send(fred, "Change-Income", &[Value::Float(20.0)])
        .unwrap();
    db.abort().unwrap();
    assert_eq!(db.get_attr(fred, "salary").unwrap(), Value::Float(0.0));
    db.begin().unwrap();
    db.send(fred, "Change-Income", &[Value::Float(30.0)])
        .unwrap();
    db.commit().unwrap();
    assert_eq!(db.get_attr(fred, "salary").unwrap(), Value::Float(30.0));
}

#[test]
fn meta_class_hierarchy_matches_figure_3() {
    let db = Database::new();
    let reg = db.registry();
    let zg = reg.id_of("zg-pos").unwrap();
    let notifiable = reg.id_of("Notifiable").unwrap();
    let reactive = reg.id_of("Reactive").unwrap();
    let event_c = reg.id_of("Event").unwrap();
    let rule_c = reg.id_of("Rule").unwrap();
    assert!(reg.is_subclass(notifiable, zg));
    assert!(reg.is_subclass(reactive, zg));
    assert!(reg.is_subclass(event_c, notifiable));
    assert!(reg.is_subclass(rule_c, notifiable));
    for sub in ["Primitive", "Conjunction", "Disjunction", "Sequence"] {
        assert!(reg.is_subclass(reg.id_of(sub).unwrap(), event_c), "{sub}");
    }
    // Rule objects are reactive so rules can monitor rules.
    assert_eq!(reg.get(rule_c).reactivity, Reactivity::Reactive);
}

#[test]
fn event_objects_take_their_operator_subclass() {
    let mut db = payroll_db();
    let prim = event("end Employee::Change-Income(float x)").unwrap();
    let cases = [
        ("e-prim", prim.clone(), "Primitive"),
        ("e-and", prim.clone().and(prim.clone()), "Conjunction"),
        ("e-or", prim.clone().or(prim.clone()), "Disjunction"),
        ("e-seq", prim.clone().then(prim.clone()), "Sequence"),
    ];
    for (name, expr, class) in cases {
        let oid = db.define_event(name, expr).unwrap();
        let cid = db.class_of(oid).unwrap();
        assert_eq!(db.registry().get(cid).name, class, "{name}");
    }
}
