//! Cross-crate integration: the paper's Figure 2 producer/consumer
//! pipeline and Figure 1 dual interface, driven through the umbrella
//! crate's public API only.

use sentinel::prelude::*;
use sentinel_baselines::{ActiveEngine, AdamEngine, OdeEngine};

/// Figure 2: two independent reactive objects generate primitive events
/// `e1` and `e2`; a rule consumes both through its local detector
/// (conjunction) and reacts.
#[test]
fn producer_consumer_pipeline() {
    let mut db = Database::new();
    db.define_class(ClassDecl::reactive("Object1").event_method(
        "m1",
        &[("x", TypeTag::Int)],
        EventSpec::End,
    ))
    .unwrap();
    db.define_class(ClassDecl::reactive("Object2").event_method(
        "m2",
        &[("y", TypeTag::Int)],
        EventSpec::End,
    ))
    .unwrap();
    db.define_class(ClassDecl::new("Sink").attr("sum", TypeTag::Int))
        .unwrap();
    db.register_method("Object1", "m1", |_, _, _| Ok(Value::Null))
        .unwrap();
    db.register_method("Object2", "m2", |_, _, _| Ok(Value::Null))
        .unwrap();

    let o1 = db.create("Object1").unwrap();
    let o2 = db.create("Object2").unwrap();
    let sink = db.create("Sink").unwrap();

    // Action: sum the parameters recorded with each constituent — this
    // is the paper's point of the detector *storing* event parameters.
    db.register_action("consume", move |w, firing| {
        let x = firing.param_of("m1", 0).unwrap().as_int().unwrap();
        let y = firing.param_of("m2", 0).unwrap().as_int().unwrap();
        let s = w.get_attr(sink, "sum")?.as_int()?;
        w.set_attr(sink, "sum", Value::Int(s + x + y))
    });
    let e1_and_e2 = event("end Object1::m1(int x)")
        .unwrap()
        .and(event("end Object2::m2(int y)").unwrap());
    db.add_rule(RuleDef::new("R1", e1_and_e2, "consume"))
        .unwrap();
    db.subscribe(o1, "R1").unwrap();
    db.subscribe(o2, "R1").unwrap();

    db.send(o1, "m1", &[Value::Int(40)]).unwrap();
    assert_eq!(db.get_attr(sink, "sum").unwrap(), Value::Int(0));
    db.send(o2, "m2", &[Value::Int(2)]).unwrap();
    assert_eq!(db.get_attr(sink, "sum").unwrap(), Value::Int(42));
}

/// Figure 1: a reactive object serves its conventional (synchronous)
/// interface and its event (asynchronous) interface simultaneously —
/// the return value reaches the caller, the event reaches the rule.
#[test]
fn reactive_class_dual_interface() {
    let mut db = Database::new();
    db.define_class(
        ClassDecl::reactive("Cell")
            .attr("v", TypeTag::Int)
            .attr("observed", TypeTag::Int)
            .event_method("Swap", &[("new", TypeTag::Int)], EventSpec::End),
    )
    .unwrap();
    db.register_method("Cell", "Swap", |w, this, args| {
        let old = w.get_attr(this, "v")?;
        w.set_attr(this, "v", args[0].clone())?;
        Ok(old) // conventional interface: the previous value
    })
    .unwrap();
    db.register_action("observe", |w, firing| {
        let occ = &firing.occurrence.constituents[0];
        w.set_attr(occ.oid, "observed", occ.param(0).unwrap().clone())
    });
    db.add_class_rule(
        "Cell",
        RuleDef::new(
            "Observe",
            event("end Cell::Swap(int new)").unwrap(),
            "observe",
        ),
    )
    .unwrap();

    let c = db.create("Cell").unwrap();
    let old = db.send(c, "Swap", &[Value::Int(7)]).unwrap();
    assert_eq!(old, Value::Int(0), "synchronous result");
    assert_eq!(
        db.get_attr(c, "observed").unwrap(),
        Value::Int(7),
        "asynchronous event"
    );
}

/// The E1 capability matrix: what each engine's architecture can
/// express, checked against the baselines' self-descriptions.
#[test]
fn capability_matrix_cross_check() {
    let ode = OdeEngine::new();
    let adam = AdamEngine::new();
    // Ode: nothing movable at runtime.
    assert!(!ode.capabilities().runtime_rule_addition);
    assert!(!ode.capabilities().rules_first_class);
    // ADAM: runtime rules, but no inter-class events and no direct
    // instance rules.
    assert!(adam.capabilities().runtime_rule_addition);
    assert!(!adam.capabilities().inter_class_composite_events);
    assert!(!adam.capabilities().direct_instance_level_rules);

    // Sentinel: demonstrate the capabilities positively.
    let mut db = Database::new();
    db.define_class(ClassDecl::reactive("A").event_method("m", &[], EventSpec::End))
        .unwrap();
    db.define_class(ClassDecl::reactive("B").event_method("n", &[], EventSpec::End))
        .unwrap();
    db.register_method("A", "m", |_, _, _| Ok(Value::Null))
        .unwrap();
    db.register_method("B", "n", |_, _, _| Ok(Value::Null))
        .unwrap();
    let a = db.create("A").unwrap();
    let b = db.create("B").unwrap();
    // Runtime rule addition over pre-existing instances, inter-class
    // composite event, instance-level subscription — all at once.
    db.register_action("ok", |_, _| Ok(()));
    let cross = event("end A::m()")
        .unwrap()
        .and(event("end B::n()").unwrap());
    db.add_rule(RuleDef::new("Cross", cross, "ok")).unwrap();
    db.subscribe(a, "Cross").unwrap();
    db.subscribe(b, "Cross").unwrap();
    db.send(a, "m", &[]).unwrap();
    db.send(b, "n", &[]).unwrap();
    assert_eq!(db.rule_stats("Cross").unwrap().triggered, 1);
    // Rules are first-class: the rule object exists in the store.
    assert!(db.get_attr(db.rule_oid("Cross").unwrap(), "name").is_ok());
}

/// One rule definition shared by objects of different classes — the
/// paper's §3.5 second advantage (define once, subscribe many).
#[test]
fn rule_sharing_across_classes() {
    let mut db = Database::new();
    for class in ["Pump", "Valve", "Sensor"] {
        db.define_class(
            ClassDecl::reactive(class)
                .attr("failures", TypeTag::Int)
                .event_method("Fail", &[], EventSpec::End),
        )
        .unwrap();
        db.register_method(class, "Fail", |w, this, _| {
            let n = w.get_attr(this, "failures")?.as_int()?;
            w.set_attr(this, "failures", Value::Int(n + 1))?;
            Ok(Value::Null)
        })
        .unwrap();
    }
    db.define_class(ClassDecl::new("Ops").attr("alerts", TypeTag::Int))
        .unwrap();
    let ops = db.create("Ops").unwrap();
    db.register_action("alert", move |w, _| {
        let n = w.get_attr(ops, "alerts")?.as_int()?;
        w.set_attr(ops, "alerts", Value::Int(n + 1))
    });
    // ONE rule over a disjunction of three classes' events.
    let e = event("end Pump::Fail()")
        .unwrap()
        .or(event("end Valve::Fail()").unwrap())
        .or(event("end Sensor::Fail()").unwrap());
    db.add_rule(RuleDef::new("AnyFailure", e, "alert")).unwrap();
    for class in ["Pump", "Valve", "Sensor"] {
        db.subscribe(Target::Class(class), "AnyFailure").unwrap();
    }
    let p = db.create("Pump").unwrap();
    let v = db.create("Valve").unwrap();
    let s = db.create("Sensor").unwrap();
    for o in [p, v, s] {
        db.send(o, "Fail", &[]).unwrap();
    }
    assert_eq!(db.get_attr(ops, "alerts").unwrap(), Value::Int(3));
    assert_eq!(db.rule_count(), 1, "one rule object covers three classes");
}
