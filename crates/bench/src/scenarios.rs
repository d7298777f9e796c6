//! Prepared scenarios shared by the Criterion benches and the
//! experiments binary. Each returns a ready-to-drive engine so the
//! measured region contains only the workload.

use sentinel_baselines::{ActiveEngine, AdamEngine, AdamRuleSpec, OdeConstraintKind, OdeEngine};
use sentinel_db::prelude::*;
use sentinel_db::{event, Database};
use std::sync::Arc;

// ---------------------------------------------------------------------
// E3 — subscription vs centralized rule checking
// ---------------------------------------------------------------------

/// Sentinel: `total` rules exist; `hot` of them subscribe to the hot
/// object, the rest subscribe each to its own cold object. Returns the
/// database and the hot object.
pub fn sentinel_hot_object(total: usize, hot: usize) -> (Database, Oid) {
    assert!(hot <= total);
    let mut db = Database::new();
    db.define_class(
        ClassDecl::reactive("Hot")
            .attr("v", TypeTag::Float)
            .event_method("Set", &[("x", TypeTag::Float)], EventSpec::End),
    )
    .unwrap();
    db.register_setter("Hot", "Set", "v").unwrap();
    db.register_action("nothing", |_, _| Ok(()));
    db.register_condition("never", |_, _| Ok(false));

    let hot_obj = db.create("Hot").unwrap();
    let e = || event("end Hot::Set(float x)").unwrap();
    for i in 0..total {
        let name = format!("r{i}");
        db.add_rule(RuleDef::on(e()).named(&name).when("never").then("nothing"))
            .unwrap();
        if i < hot {
            db.subscribe(hot_obj, &name).unwrap();
        } else {
            let cold = db.create("Hot").unwrap();
            db.subscribe(cold, &name).unwrap();
        }
    }
    db.reset_stats();
    (db, hot_obj)
}

/// ADAM: `total` rules on the `Hot` class — the centralized table every
/// message send scans. Returns the engine and the hot object.
pub fn adam_hot_object(total: usize) -> (AdamEngine, Oid) {
    let mut adam = AdamEngine::new();
    adam.define_class(
        ClassDecl::new("Hot")
            .attr("v", TypeTag::Float)
            .method("Set", &[("x", TypeTag::Float)]),
    )
    .unwrap();
    adam.register_setter("Hot", "Set", "v").unwrap();
    for i in 0..total {
        // Each rule's event names a method that never runs, so the cost
        // measured is pure dispatch-table scanning, matching the
        // Sentinel side (whose conditions never hold).
        let ev = adam.define_event(&format!("Phantom-{i}"), EventModifier::End);
        adam.add_rule(AdamRuleSpec {
            name: format!("r{i}"),
            event: ev,
            active_class: "Hot".into(),
            condition: Arc::new(|_, _, _| Ok(true)),
            action: Arc::new(|_, _, _| Ok(())),
        })
        .unwrap();
    }
    let hot_obj = adam.create("Hot").unwrap();
    adam.reset_counters();
    (adam, hot_obj)
}

// ---------------------------------------------------------------------
// E5 — the salary-check comparison (Figures 10–13)
// ---------------------------------------------------------------------

pub struct SentinelSalary {
    pub db: Database,
    pub employees: Vec<Oid>,
    pub manager: Oid,
}

pub fn sentinel_salary(employees: usize) -> SentinelSalary {
    let mut db = Database::new();
    db.define_class(
        ClassDecl::reactive("Employee")
            .attr("sal", TypeTag::Float)
            .attr("mgr", TypeTag::Oid)
            .event_method("Set-Salary", &[("x", TypeTag::Float)], EventSpec::End),
    )
    .unwrap();
    db.define_class(ClassDecl::reactive("Manager").parent("Employee"))
        .unwrap();
    db.register_setter("Employee", "Set-Salary", "sal").unwrap();
    let manager = db
        .create_with("Manager", &[("sal", Value::Float(100.0))])
        .unwrap();
    let emps: Vec<Oid> = (0..employees)
        .map(|_| {
            db.create_with(
                "Employee",
                &[("sal", Value::Float(50.0)), ("mgr", Value::Oid(manager))],
            )
            .unwrap()
        })
        .collect();
    db.register_condition("violates", move |w, f| {
        // Check only the object that changed (the triggering constituent).
        let occ = &f.occurrence.constituents[0];
        if occ.oid == manager {
            let my = w.get_attr(manager, "sal")?.as_float()?;
            for e in w.extent("Employee")? {
                if e != manager && w.get_attr(e, "sal")?.as_float()? >= my {
                    return Ok(true);
                }
            }
            Ok(false)
        } else {
            Ok(
                w.get_attr(occ.oid, "sal")?.as_float()?
                    >= w.get_attr(manager, "sal")?.as_float()?,
            )
        }
    });
    // ONE rule over a disjunction of the two classes' events.
    let e = event("end Employee::Set-Salary(float x)")
        .unwrap()
        .or(event("end Manager::Set-Salary(float x)").unwrap());
    db.add_class_rule(
        "Employee",
        RuleDef::on(e)
            .named("SalaryCheck")
            .when("violates")
            .then(ACTION_ABORT),
    )
    .unwrap();
    db.reset_stats();
    SentinelSalary {
        db,
        employees: emps,
        manager,
    }
}

pub struct OdeSalary {
    pub ode: OdeEngine,
    pub employees: Vec<Oid>,
    pub manager: Oid,
}

pub fn ode_salary(employees: usize) -> OdeSalary {
    let mut ode = OdeEngine::new();
    ode.define_class(
        ClassDecl::new("Employee")
            .attr("sal", TypeTag::Float)
            .attr("mgr", TypeTag::Oid)
            .method("Set-Salary", &[("x", TypeTag::Float)]),
    )
    .unwrap();
    ode.define_class(ClassDecl::new("Manager").parent("Employee"))
        .unwrap();
    ode.register_setter("Employee", "Set-Salary", "sal")
        .unwrap();
    ode.declare_constraint(
        "Employee",
        "below-mgr",
        OdeConstraintKind::Hard,
        |w, this| {
            let mgr = w.get_attr(this, "mgr")?.as_oid()?;
            if mgr.is_nil() {
                return Ok(true);
            }
            Ok(w.get_attr(this, "sal")?.as_float()? < w.get_attr(mgr, "sal")?.as_float()?)
        },
        None,
    )
    .unwrap();
    ode.declare_constraint(
        "Manager",
        "above-emps",
        OdeConstraintKind::Hard,
        |w, this| {
            let my = w.get_attr(this, "sal")?.as_float()?;
            for e in w.extent("Employee")? {
                if e != this
                    && w.get_attr(e, "mgr")?.as_oid()? == this
                    && w.get_attr(e, "sal")?.as_float()? >= my
                {
                    return Ok(false);
                }
            }
            Ok(true)
        },
        None,
    )
    .unwrap();
    let manager = ode.create("Manager").unwrap();
    ode.set_attr(manager, "sal", Value::Float(100.0)).unwrap();
    let emps: Vec<Oid> = (0..employees)
        .map(|_| {
            let e = ode.create("Employee").unwrap();
            ode.set_attr(e, "sal", Value::Float(50.0)).unwrap();
            ode.set_attr(e, "mgr", Value::Oid(manager)).unwrap();
            e
        })
        .collect();
    ode.reset_counters();
    OdeSalary {
        ode,
        employees: emps,
        manager,
    }
}

pub struct AdamSalary {
    pub adam: AdamEngine,
    pub employees: Vec<Oid>,
    pub manager: Oid,
}

pub fn adam_salary(employees: usize) -> AdamSalary {
    let mut adam = AdamEngine::new();
    adam.define_class(
        ClassDecl::new("Employee")
            .attr("sal", TypeTag::Float)
            .attr("mgr", TypeTag::Oid)
            .method("Set-Salary", &[("x", TypeTag::Float)]),
    )
    .unwrap();
    adam.define_class(ClassDecl::new("Manager").parent("Employee"))
        .unwrap();
    adam.register_setter("Employee", "Set-Salary", "sal")
        .unwrap();
    let ev = adam.define_event("Set-Salary", EventModifier::End);
    adam.add_rule(AdamRuleSpec {
        name: "emp-check".into(),
        event: ev,
        active_class: "Employee".into(),
        condition: Arc::new(|w, this, _| {
            let mgr = w.get_attr(this, "mgr")?.as_oid()?;
            if mgr.is_nil() {
                return Ok(false);
            }
            Ok(w.get_attr(this, "sal")?.as_float()? >= w.get_attr(mgr, "sal")?.as_float()?)
        }),
        action: Arc::new(|_, _, _| Err(ObjectError::abort("Invalid Salary"))),
    })
    .unwrap();
    adam.add_rule(AdamRuleSpec {
        name: "mgr-check".into(),
        event: ev,
        active_class: "Manager".into(),
        condition: Arc::new(|w, this, _| {
            let my = w.get_attr(this, "sal")?.as_float()?;
            for e in w.extent("Employee")? {
                if e != this
                    && w.get_attr(e, "mgr")?.as_oid()? == this
                    && w.get_attr(e, "sal")?.as_float()? >= my
                {
                    return Ok(true);
                }
            }
            Ok(false)
        }),
        action: Arc::new(|_, _, _| Err(ObjectError::abort("Invalid Salary"))),
    })
    .unwrap();
    let manager = adam.create("Manager").unwrap();
    adam.set_attr(manager, "sal", Value::Float(100.0)).unwrap();
    let emps: Vec<Oid> = (0..employees)
        .map(|_| {
            let e = adam.create("Employee").unwrap();
            adam.set_attr(e, "sal", Value::Float(50.0)).unwrap();
            adam.set_attr(e, "mgr", Value::Oid(manager)).unwrap();
            e
        })
        .collect();
    adam.reset_counters();
    AdamSalary {
        adam,
        employees: emps,
        manager,
    }
}

// ---------------------------------------------------------------------
// E6 — dispatch overhead
// ---------------------------------------------------------------------

/// Dispatch-overhead variants for E6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchKind {
    /// Plain passive class.
    Passive,
    /// Reactive class, but the invoked method is not in the event
    /// interface.
    ReactiveUndeclared,
    /// Reactive class, method declared `event end`, with this many
    /// subscribed rules.
    ReactiveDeclared { subscribers: usize },
    /// Footnote 7's alternative: every method is an event generator
    /// (begin && end), with this many subscribed rules.
    AllMethodsEvents { subscribers: usize },
}

/// Build a database + object for one dispatch-overhead variant.
pub fn dispatch_scenario(kind: DispatchKind) -> (Database, Oid) {
    let mut db = Database::new();
    let (reactive, espec) = match kind {
        DispatchKind::Passive => (false, EventSpec::None),
        DispatchKind::ReactiveUndeclared => (true, EventSpec::None),
        DispatchKind::ReactiveDeclared { .. } => (true, EventSpec::End),
        DispatchKind::AllMethodsEvents { .. } => (true, EventSpec::BeginAndEnd),
    };
    let mut decl = if reactive {
        ClassDecl::reactive("T")
    } else {
        ClassDecl::new("T")
    };
    decl = decl.attr("v", TypeTag::Float);
    decl = if espec == EventSpec::None {
        decl.method("Set", &[("x", TypeTag::Float)])
    } else {
        decl.event_method("Set", &[("x", TypeTag::Float)], espec)
    };
    db.define_class(decl).unwrap();
    db.register_setter("T", "Set", "v").unwrap();
    let obj = db.create("T").unwrap();
    let subscribers = match kind {
        DispatchKind::ReactiveDeclared { subscribers }
        | DispatchKind::AllMethodsEvents { subscribers } => subscribers,
        _ => 0,
    };
    if subscribers > 0 {
        db.register_condition("never", |_, _| Ok(false));
        db.register_action("nothing", |_, _| Ok(()));
        for i in 0..subscribers {
            let name = format!("s{i}");
            db.add_rule(
                RuleDef::on(event("end T::Set(float x)").unwrap())
                    .named(&name)
                    .when("never")
                    .then("nothing"),
            )
            .unwrap();
            db.subscribe(obj, &name).unwrap();
        }
    }
    db.reset_stats();
    (db, obj)
}

// ---------------------------------------------------------------------
// E2 / E8 / E12 — event detection scenarios
// ---------------------------------------------------------------------

/// A reactive class with `methods` declared event-generator methods,
/// plus one rule subscribed to one instance. Driving any `m{i}` method
/// measures primitive detection cost.
pub fn generator_scenario(methods: usize) -> (Database, Oid, Vec<String>) {
    let mut db = Database::new();
    let mut decl = ClassDecl::reactive("G").attr("v", TypeTag::Int);
    let names: Vec<String> = (0..methods).map(|i| format!("m{i}")).collect();
    for n in &names {
        decl = decl.event_method(n, &[], EventSpec::End);
    }
    db.define_class(decl).unwrap();
    for n in &names {
        db.register_method("G", n, |_, _, _| Ok(Value::Null))
            .unwrap();
    }
    db.register_action("nothing", |_, _| Ok(()));
    let obj = db.create("G").unwrap();
    db.add_rule(
        RuleDef::on(event("end G::m0()").unwrap())
            .named("watch-m0")
            .then("nothing"),
    )
    .unwrap();
    db.subscribe(obj, "watch-m0").unwrap();
    db.reset_stats();
    (db, obj, names)
}

/// Operator kinds swept by E2's composite-detection experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    And,
    Or,
    Seq,
}

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::And => "and",
            OpKind::Or => "or",
            OpKind::Seq => "seq",
        }
    }
}

/// A rule over a left-deep chain of `depth` operators applied to
/// `depth + 1` distinct primitive events, subscribed to one object.
/// Returns the database, the object, and the event-method names in
/// chain order (round-robin sends exercise the whole chain).
pub fn chain_scenario(
    op: OpKind,
    depth: usize,
    context: ParamContext,
) -> (Database, Oid, Vec<String>) {
    let mut db = Database::new();
    let names: Vec<String> = (0..=depth).map(|i| format!("e{i}")).collect();
    let mut decl = ClassDecl::reactive("C");
    for n in &names {
        decl = decl.event_method(n, &[], EventSpec::End);
    }
    db.define_class(decl).unwrap();
    for n in &names {
        db.register_method("C", n, |_, _, _| Ok(Value::Null))
            .unwrap();
    }
    let mut expr = event(&format!("end C::{}()", names[0])).unwrap();
    for n in &names[1..] {
        let rhs = event(&format!("end C::{n}()")).unwrap();
        expr = match op {
            OpKind::And => expr.and(rhs),
            OpKind::Or => expr.or(rhs),
            OpKind::Seq => expr.then(rhs),
        };
    }
    db.register_action("nothing", |_, _| Ok(()));
    let obj = db.create("C").unwrap();
    db.add_rule(
        RuleDef::on(expr)
            .named("chain")
            .then("nothing")
            .context(context),
    )
    .unwrap();
    db.subscribe(obj, "chain").unwrap();
    db.reset_stats();
    (db, obj, names)
}

/// The §2.1 stock/index conjunction (E8): `stocks` stock objects and an
/// index object; one Purchase-shaped rule per stock.
pub fn market_scenario(stocks: usize) -> (Database, Vec<Oid>, Oid) {
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
    db.register_setter("Stock", "SetPrice", "price").unwrap();
    db.register_setter("FinancialInfo", "SetValue", "change")
        .unwrap();
    db.register_action("nothing", |_, _| Ok(()));
    db.register_condition("buy-window", |w, f| {
        let stock = f.occurrence.constituent_for_method("SetPrice").unwrap().oid;
        let index = f.occurrence.constituent_for_method("SetValue").unwrap().oid;
        Ok(w.get_attr(stock, "price")?.as_float()? < 80.0
            && w.get_attr(index, "change")?.as_float()? < 3.4)
    });
    let index = db.create("FinancialInfo").unwrap();
    let e = event("end Stock::SetPrice(float p)")
        .unwrap()
        .and(event("end FinancialInfo::SetValue(float v)").unwrap());
    let stock_oids: Vec<Oid> = (0..stocks)
        .map(|i| {
            let s = db.create("Stock").unwrap();
            let name = format!("Purchase{i}");
            db.add_rule(
                RuleDef::on(e.clone())
                    .named(&name)
                    .when("buy-window")
                    .then("nothing")
                    .context(ParamContext::Recent),
            )
            .unwrap();
            db.subscribe(s, &name).unwrap();
            db.subscribe(index, &name).unwrap();
            s
        })
        .collect();
    db.reset_stats();
    (db, stock_oids, index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_object_scenarios_build() {
        let (mut db, hot) = sentinel_hot_object(16, 4);
        db.send(hot, "Set", &[Value::Float(1.0)]).unwrap();
        // The four hot rules are identical: they share one detector, and
        // each still counts the delivery.
        assert_eq!(db.engine_stats().notifications, 1);
        let heard: u64 = (0..4)
            .map(|i| db.rule_stats(&format!("r{i}")).unwrap().notifications)
            .sum();
        assert_eq!(heard, 4);
        let (mut adam, hot) = adam_hot_object(16);
        adam.send(hot, "Set", &[Value::Float(1.0)]).unwrap();
        assert_eq!(
            sentinel_baselines::ActiveEngine::counters(&adam).rule_checks,
            32 // begin + end sweeps over 16 rules
        );
    }

    #[test]
    fn salary_scenarios_reject_violations() {
        let mut s = sentinel_salary(4);
        assert!(s
            .db
            .send(s.employees[0], "Set-Salary", &[Value::Float(200.0)])
            .is_err());
        let mut o = ode_salary(4);
        assert!(o
            .ode
            .send(o.employees[0], "Set-Salary", &[Value::Float(200.0)])
            .is_err());
        let mut a = adam_salary(4);
        assert!(a
            .adam
            .send(a.employees[0], "Set-Salary", &[Value::Float(200.0)])
            .is_err());
    }

    #[test]
    fn chain_scenario_detects_round_robin() {
        let (mut db, obj, names) = chain_scenario(OpKind::Seq, 3, ParamContext::Chronicle);
        for n in &names {
            db.send(obj, n, &[]).unwrap();
        }
        assert_eq!(db.rule_stats("chain").unwrap().triggered, 1);
    }

    #[test]
    fn dispatch_scenarios_generate_expected_events() {
        for (kind, expected) in [
            (DispatchKind::Passive, 0),
            (DispatchKind::ReactiveUndeclared, 0),
            (DispatchKind::ReactiveDeclared { subscribers: 2 }, 1),
            (DispatchKind::AllMethodsEvents { subscribers: 2 }, 2),
        ] {
            let (mut db, obj) = dispatch_scenario(kind);
            db.send(obj, "Set", &[Value::Float(1.0)]).unwrap();
            assert_eq!(db.stats().events_generated, expected, "{kind:?}");
        }
    }

    #[test]
    fn market_scenario_detects() {
        let (mut db, stocks, index) = market_scenario(2);
        db.send(stocks[0], "SetPrice", &[Value::Float(70.0)])
            .unwrap();
        db.send(index, "SetValue", &[Value::Float(1.0)]).unwrap();
        assert_eq!(db.rule_stats("Purchase0").unwrap().triggered, 1);
        assert_eq!(db.rule_stats("Purchase1").unwrap().triggered, 0);
    }
}
