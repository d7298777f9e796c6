//! The paper's comparative claims, asserted on exact counters.
//!
//! The 1993 paper argues for Sentinel by comparison: subscription checks
//! only the rules that asked (§3.5), one rule serves several classes
//! (§3.5), passive objects pay nothing (§3.2, footnote 7), rules arrive
//! at run time without touching stored instances (§1). Each test below
//! pins one such claim — or one experiment of the reproduction (E1–E8
//! and E10–E12, indexed in EXPERIMENTS.md) — as an equality or an
//! ordering over the counters the engines already keep: `DbStats`,
//! `EngineStats`, `RuleStats` and the baselines' `EngineCounters`.
//! Inputs are small and seeded, so every value is exact and a claim
//! that inverts fails here.
//!
//! Nothing is timed. Wall-clock and throughput claims belong to the
//! repository benchmark (`benchmark/`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sentinel::prelude::*;
use sentinel_baselines::{
    ActiveEngine, AdamEngine, AdamRuleSpec, Capabilities, OdeConstraintKind, OdeEngine,
};
use std::sync::Arc;

/// Sum of every rule's own delivery count. Identical rules share one
/// detector, so `EngineStats::notifications` would count their shared
/// delivery once; each rule's `RuleStats::notifications` still counts it.
fn rule_notifications(db: &Database) -> u64 {
    db.rule_names()
        .iter()
        .map(|n| db.rule_stats(n).unwrap().notifications)
        .sum()
}

// ---------------------------------------------------------------------
// Claim 1 — §3.5 advantage 1 (E3): only subscribed rules are checked
// ---------------------------------------------------------------------

/// Sentinel: `total` rules exist; `hot` of them subscribe to the hot
/// object, the rest each to a cold object of their own. Returns the
/// database and the hot object.
fn sentinel_hot_object(total: usize, hot: usize) -> (Database, Oid) {
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
    for i in 0..total {
        let name = format!("r{i}");
        db.add_rule(
            RuleDef::on(event("end Hot::Set(float x)").unwrap())
                .named(&name)
                .when("never")
                .then("nothing"),
        )
        .unwrap();
        let target = if i < hot {
            hot_obj
        } else {
            db.create("Hot").unwrap()
        };
        db.subscribe(target, &name).unwrap();
    }
    db.reset_stats();
    (db, hot_obj)
}

/// ADAM: `total` rules on the `Hot` class — the centralized table every
/// message send scans. Each rule's event names a method that never runs,
/// matching the Sentinel side, whose conditions never hold.
fn adam_hot_object(total: usize) -> (AdamEngine, Oid) {
    let mut adam = AdamEngine::new();
    adam.define_class(
        ClassDecl::new("Hot")
            .attr("v", TypeTag::Float)
            .method("Set", &[("x", TypeTag::Float)]),
    )
    .unwrap();
    adam.register_setter("Hot", "Set", "v").unwrap();
    for i in 0..total {
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

/// Four rules watch the hot object while R rules exist in all. Sentinel
/// checks exactly the four subscribers per update, whatever R is; ADAM
/// scans its whole class table twice (the `begin` and `end` sweeps).
#[test]
fn subscription_checks_only_the_subscribed_rules() {
    const HOT: usize = 4;
    const UPDATES: u64 = 16;
    for total in [16usize, 256, 1024] {
        let (mut db, hot) = sentinel_hot_object(total, HOT);
        let (mut adam, adam_hot) = adam_hot_object(total);
        for i in 0..UPDATES {
            db.send(hot, "Set", &[Value::Float(i as f64)]).unwrap();
            adam.send(adam_hot, "Set", &[Value::Float(i as f64)])
                .unwrap();
        }
        assert_eq!(
            rule_notifications(&db),
            HOT as u64 * UPDATES,
            "sentinel checks per update at R = {total}"
        );
        assert_eq!(
            adam.counters().rule_checks,
            2 * total as u64 * UPDATES,
            "adam checks per update at R = {total}"
        );
    }
}

// ---------------------------------------------------------------------
// Claim 2 — §3.5 advantage 2 (E4): one rule shared across classes
// ---------------------------------------------------------------------

/// `classes` reactive classes `C0..`, one object each, and either one
/// rule over an or-chain of every class's event subscribed to all the
/// classes, or one duplicated rule per class. Returns the database
/// after `updates` round-robin sends.
fn shared_or_duplicated(classes: usize, shared: bool, updates: usize) -> Database {
    let mut db = Database::new();
    for c in 0..classes {
        db.define_class(
            ClassDecl::reactive(format!("C{c}"))
                .attr("v", TypeTag::Float)
                .event_method("Set", &[("x", TypeTag::Float)], EventSpec::End),
        )
        .unwrap();
        db.register_setter(&format!("C{c}"), "Set", "v").unwrap();
    }
    db.register_action("nothing", |_, _| Ok(()));
    let objs: Vec<Oid> = (0..classes)
        .map(|c| db.create(&format!("C{c}")).unwrap())
        .collect();
    let set = |c: usize| event(&format!("end C{c}::Set(float x)")).unwrap();
    if shared {
        let expr = (1..classes).fold(set(0), |e, c| e.or(set(c)));
        db.add_rule(RuleDef::new("shared", expr, "nothing"))
            .unwrap();
        for c in 0..classes {
            db.subscribe(Target::Class(&format!("C{c}")), "shared")
                .unwrap();
        }
    } else {
        for c in 0..classes {
            db.add_class_rule(
                &format!("C{c}"),
                RuleDef::new(format!("dup{c}"), set(c), "nothing"),
            )
            .unwrap();
        }
    }
    db.reset_stats();
    for i in 0..updates {
        db.send(objs[i % classes], "Set", &[Value::Float(i as f64)])
            .unwrap();
    }
    db
}

/// One shared rule object does the work of C duplicated ones: the same
/// actions run on the same stream.
#[test]
fn one_rule_is_shared_across_classes() {
    const UPDATES: usize = 64;
    for classes in [2usize, 8, 32] {
        let shared = shared_or_duplicated(classes, true, UPDATES);
        let duplicated = shared_or_duplicated(classes, false, UPDATES);
        assert_eq!(shared.rule_count(), 1);
        assert_eq!(duplicated.rule_count(), classes);
        assert_eq!(shared.stats().actions_run, UPDATES as u64);
        assert_eq!(
            shared.stats().actions_run,
            duplicated.stats().actions_run,
            "firings at C = {classes}"
        );
    }
}

// ---------------------------------------------------------------------
// Claim 3 — §5 Example One, Figures 10–13 (E5): the salary check
// ---------------------------------------------------------------------

/// One salary update: employee index and new salary.
#[derive(Debug, Clone, Copy)]
struct SalaryUpdate {
    employee: usize,
    amount: f64,
}

/// A reproducible salary stream; `violate_ratio` of the updates raise an
/// employee above any manager.
fn salary_stream(seed: u64, employees: usize, len: usize, violate_ratio: f64) -> Vec<SalaryUpdate> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let amount = if rng.random_bool(violate_ratio) {
                rng.random_range(150.0..300.0)
            } else {
                rng.random_range(10.0..90.0)
            };
            SalaryUpdate {
                employee: rng.random_range(0..employees),
                amount,
            }
        })
        .collect()
}

/// Sentinel (Figure 10): ONE rule over the disjunction of the
/// `Employee` and `Manager` salary events. Returns the database and the
/// employees; the manager earns 100, each employee 50.
fn sentinel_salary(employees: usize) -> (Database, Vec<Oid>) {
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
        // Check only the object that changed.
        let changed = f.occurrence.constituents[0].oid;
        let top = w.get_attr(manager, "sal")?.as_float()?;
        if changed == manager {
            for e in w.extent("Employee")? {
                if e != manager && w.get_attr(e, "sal")?.as_float()? >= top {
                    return Ok(true);
                }
            }
            Ok(false)
        } else {
            Ok(w.get_attr(changed, "sal")?.as_float()? >= top)
        }
    });
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
    (db, emps)
}

/// Ode (Figure 11): two complementary hard constraints compiled into
/// the two classes.
fn ode_salary(employees: usize) -> (OdeEngine, Vec<Oid>) {
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
    (ode, emps)
}

/// ADAM (Figures 12–13): two rule objects, one per active class, sharing
/// one `db-event`.
fn adam_salary(employees: usize) -> (AdamEngine, Vec<Oid>) {
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
    (adam, emps)
}

/// One Sentinel rule decides exactly what Ode's two constraints and
/// ADAM's two rule objects decide, evaluating no more conditions.
#[test]
fn one_disjunctive_rule_matches_two_constraints_and_two_rule_objects() {
    const EMPLOYEES: usize = 8;
    let stream = salary_stream(1993, EMPLOYEES, 400, 0.1);
    let (mut db, s_emps) = sentinel_salary(EMPLOYEES);
    let (mut ode, o_emps) = ode_salary(EMPLOYEES);
    let (mut adam, a_emps) = adam_salary(EMPLOYEES);
    for u in &stream {
        let arg = [Value::Float(u.amount)];
        let s = db.send(s_emps[u.employee], "Set-Salary", &arg).is_ok();
        let o = ode.send(o_emps[u.employee], "Set-Salary", &arg).is_ok();
        let a = adam.send(a_emps[u.employee], "Set-Salary", &arg).is_ok();
        assert_eq!((s, o), (a, a), "engines disagree on {u:?}");
    }
    let aborts = db.stats().aborts;
    assert!(aborts > 0, "the stream must exercise the rule");
    assert_eq!(aborts, ode.counters().aborts);
    assert_eq!(aborts, adam.counters().aborts);
    let evals = db.stats().condition_evals;
    assert!(evals <= ode.counters().condition_evals);
    assert!(evals <= adam.counters().condition_evals);
}

// ---------------------------------------------------------------------
// Claim 4 — §3.2 and footnote 7 (E6): passive objects pay nothing
// ---------------------------------------------------------------------

/// The object kinds E6 compares.
#[derive(Debug, Clone, Copy)]
enum DispatchKind {
    /// A plain passive class.
    Passive,
    /// A reactive class whose invoked method is not an event generator.
    ReactiveUndeclared,
    /// A reactive class, method declared `event end`, with this many
    /// subscribed rules.
    Declared(usize),
    /// Footnote 7's alternative: the method generates `begin && end`.
    BeginAndEnd,
}

/// A database holding one object of the given kind.
fn dispatch_scenario(kind: DispatchKind) -> (Database, Oid) {
    let mut db = Database::new();
    let (decl, spec) = match kind {
        DispatchKind::Passive => (ClassDecl::new("T"), EventSpec::None),
        DispatchKind::ReactiveUndeclared => (ClassDecl::reactive("T"), EventSpec::None),
        DispatchKind::Declared(_) => (ClassDecl::reactive("T"), EventSpec::End),
        DispatchKind::BeginAndEnd => (ClassDecl::reactive("T"), EventSpec::BeginAndEnd),
    };
    let decl = decl.attr("v", TypeTag::Float);
    let decl = if spec == EventSpec::None {
        decl.method("Set", &[("x", TypeTag::Float)])
    } else {
        decl.event_method("Set", &[("x", TypeTag::Float)], spec)
    };
    db.define_class(decl).unwrap();
    db.register_setter("T", "Set", "v").unwrap();
    let obj = db.create("T").unwrap();
    if let DispatchKind::Declared(subscribers) = kind {
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

/// Events per send are 0 for passive objects and undeclared methods, 1
/// for a declared `end` and 2 for `begin && end`; rule checks per send
/// equal the subscriber count.
#[test]
fn passive_objects_and_undeclared_methods_generate_no_events() {
    const SENDS: u64 = 16;
    // (events generated, rule checks) over SENDS sends.
    let totals = |kind: DispatchKind| {
        let (mut db, obj) = dispatch_scenario(kind);
        for i in 0..SENDS {
            db.send(obj, "Set", &[Value::Float(i as f64)]).unwrap();
        }
        assert_eq!(db.stats().sends, SENDS, "{kind:?}");
        (db.stats().events_generated, rule_notifications(&db))
    };
    assert_eq!(totals(DispatchKind::Passive), (0, 0));
    assert_eq!(totals(DispatchKind::ReactiveUndeclared), (0, 0));
    assert_eq!(totals(DispatchKind::BeginAndEnd), (2 * SENDS, 0));
    for subscribers in [0u64, 1, 8] {
        assert_eq!(
            totals(DispatchKind::Declared(subscribers as usize)),
            (SENDS, subscribers * SENDS)
        );
    }
}

// ---------------------------------------------------------------------
// Claim 5 — §1 issue 1 (E7): rules added at run time touch no instance
// ---------------------------------------------------------------------

/// Adding a class-level rule over N stored instances evaluates nothing
/// and writes nothing but the rule object. Ode's model must recompile
/// the class and revalidate all N instances.
#[test]
fn runtime_rule_addition_leaves_stored_instances_alone() {
    for n in [100usize, 1000] {
        let mut db = Database::new();
        db.define_class(
            ClassDecl::reactive("P")
                .attr("v", TypeTag::Float)
                .event_method("Set", &[("x", TypeTag::Float)], EventSpec::End),
        )
        .unwrap();
        db.register_setter("P", "Set", "v").unwrap();
        db.register_condition("holds", |_, _| Ok(true));
        db.register_action("nothing", |_, _| Ok(()));
        for i in 0..n {
            db.create_with("P", &[("v", Value::Float(i as f64))])
                .unwrap();
        }
        let extent = db.extent("P").unwrap();
        let values = |db: &Database| -> Vec<Value> {
            extent
                .iter()
                .map(|&o| db.get_attr(o, "v").unwrap())
                .collect()
        };
        let before = values(&db);
        let objects = db.object_count();
        db.reset_stats();

        db.add_class_rule(
            "P",
            RuleDef::on(event("end P::Set(float x)").unwrap())
                .named("late")
                .when("holds")
                .then("nothing"),
        )
        .unwrap();

        assert_eq!(db.stats().condition_evals, 0, "N = {n}");
        assert_eq!(values(&db), before, "N = {n}");
        assert_eq!(db.extent("P").unwrap(), extent);
        assert_eq!(db.object_count(), objects + 1, "only the rule object");
        assert!(!extent.contains(&db.rule_oid("late").unwrap()));

        let mut ode = OdeEngine::new();
        ode.define_class(
            ClassDecl::new("P")
                .attr("v", TypeTag::Float)
                .method("Set", &[("x", TypeTag::Float)]),
        )
        .unwrap();
        for _ in 0..n {
            ode.create("P").unwrap();
        }
        let recompiles = ode.recompiles();
        let revalidated = ode
            .recompile_with_constraint("P", "late", OdeConstraintKind::Hard, |_, _| Ok(true), None)
            .unwrap();
        assert_eq!(revalidated, n);
        assert_eq!(ode.recompiles(), recompiles + 1);
    }
}

// ---------------------------------------------------------------------
// Claim 6 — §1 issue 2 (E10), §2.1 Purchase (E8), event cost (E2)
// ---------------------------------------------------------------------

/// A class-level rule over N instances is one subscription entry, not N.
#[test]
fn class_level_rule_is_one_subscription_entry() {
    for n in [100usize, 1000] {
        let mut db = Database::new();
        db.define_class(
            ClassDecl::reactive("P")
                .attr("v", TypeTag::Float)
                .event_method("Set", &[("x", TypeTag::Float)], EventSpec::End),
        )
        .unwrap();
        db.register_setter("P", "Set", "v").unwrap();
        db.register_action("nothing", |_, _| Ok(()));
        let objs: Vec<Oid> = (0..n).map(|_| db.create("P").unwrap()).collect();
        db.add_class_rule(
            "P",
            RuleDef::new("class", event("end P::Set(float x)").unwrap(), "nothing"),
        )
        .unwrap();
        let subs = db.meta_subscriptions();
        assert_eq!(subs.len(), 1, "N = {n}");
        assert_eq!(subs.rows()[0][1], Value::Str("class".into()));
        // The one entry covers every instance.
        db.reset_stats();
        for &o in &objs {
            db.send(o, "Set", &[Value::Float(1.0)]).unwrap();
        }
        assert_eq!(db.rule_stats("class").unwrap().triggered, n as u64);
    }
}

/// One stock-market tick.
#[derive(Debug, Clone, Copy, PartialEq)]
enum MarketEvent {
    /// (stock index, new price)
    Price(usize, f64),
    /// New index change, in percent.
    IndexChange(f64),
}

/// A reproducible stream over `stocks` stocks; index updates arrive
/// with probability `index_ratio`.
fn market_stream(seed: u64, stocks: usize, len: usize, index_ratio: f64) -> Vec<MarketEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            if rng.random_bool(index_ratio) {
                MarketEvent::IndexChange(rng.random_range(0.0..8.0))
            } else {
                MarketEvent::Price(rng.random_range(0..stocks), rng.random_range(40.0..140.0))
            }
        })
        .collect()
}

const MAX_PRICE: f64 = 80.0;
const MAX_CHANGE: f64 = 3.4;

/// The §2.1 stock/index conjunction: `stocks` stock objects, one index
/// object, and one Purchase rule per stock over
/// `Stock::SetPrice && FinancialInfo::SetValue` (recent context).
fn market_scenario(stocks: usize) -> (Database, Vec<Oid>, Oid) {
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
        Ok(w.get_attr(stock, "price")?.as_float()? < MAX_PRICE
            && w.get_attr(index, "change")?.as_float()? < MAX_CHANGE)
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

/// Purchase detections and firings over a seeded market stream equal an
/// oracle's. Under the recent context one side of each conjunction is
/// retained: an arrival pairs with a retained opposite-side occurrence
/// (which stays), or else becomes the retained occurrence itself.
#[test]
fn purchase_rule_fires_as_the_oracle_predicts() {
    const STOCKS: usize = 8;
    let stream = market_stream(42, STOCKS, 2000, 0.2);
    let (mut db, stock_oids, index) = market_scenario(STOCKS);

    #[derive(Clone, Copy, PartialEq)]
    enum Held {
        Nothing,
        Price,
        Index,
    }
    let mut held = [Held::Nothing; STOCKS];
    let mut price = [0.0f64; STOCKS];
    let mut change = 0.0f64;
    let (mut detections, mut purchases) = (0u64, 0u64);
    let mut arrive = |i: usize, side: Held, price: &[f64; STOCKS], change: f64| {
        if held[i] != Held::Nothing && held[i] != side {
            detections += 1;
            purchases += u64::from(price[i] < MAX_PRICE && change < MAX_CHANGE);
        } else {
            held[i] = side;
        }
    };
    for ev in &stream {
        match *ev {
            MarketEvent::Price(i, p) => {
                db.send(stock_oids[i], "SetPrice", &[Value::Float(p)])
                    .unwrap();
                price[i] = p;
                arrive(i, Held::Price, &price, change);
            }
            MarketEvent::IndexChange(c) => {
                db.send(index, "SetValue", &[Value::Float(c)]).unwrap();
                change = c;
                for i in 0..STOCKS {
                    arrive(i, Held::Index, &price, change);
                }
            }
        }
    }
    let triggered: u64 = (0..STOCKS)
        .map(|i| db.rule_stats(&format!("Purchase{i}")).unwrap().triggered)
        .sum();
    assert!(purchases > 0, "the stream must open the buy window");
    assert_eq!(triggered, detections);
    assert_eq!(db.stats().actions_run, purchases);
}

/// A reactive class with `methods` declared event generators, one rule
/// on `m0` subscribed to the one object.
fn generator_scenario(methods: usize) -> (Database, Oid, Vec<String>) {
    let mut db = Database::new();
    let names: Vec<String> = (0..methods).map(|i| format!("m{i}")).collect();
    let decl = names.iter().fold(
        ClassDecl::reactive("G").attr("v", TypeTag::Int),
        |decl, n| decl.event_method(n, &[], EventSpec::End),
    );
    db.define_class(decl).unwrap();
    for n in &names {
        db.register_method("G", n, |_, _, _| Ok(Value::Null))
            .unwrap();
    }
    db.register_action("nothing", |_, _| Ok(()));
    let obj = db.create("G").unwrap();
    db.add_rule(RuleDef::new(
        "watch-m0",
        event("end G::m0()").unwrap(),
        "nothing",
    ))
    .unwrap();
    db.subscribe(obj, "watch-m0").unwrap();
    db.reset_stats();
    (db, obj, names)
}

/// Declaring more event generators adds no detector work: a send of the
/// watched method reaches one detector and a send of any other declared
/// generator reaches none, whether the class declares 1 or 64.
#[test]
fn detector_deliveries_do_not_grow_with_declared_generators() {
    const SENDS: u64 = 16;
    for methods in [1usize, 4, 16, 64] {
        let (mut db, obj, names) = generator_scenario(methods);
        for _ in 0..SENDS {
            db.send(obj, "m0", &[]).unwrap();
        }
        assert_eq!(db.engine_stats().notifications, SENDS, "G = {methods}");
        for _ in 0..SENDS {
            db.send(obj, names.last().unwrap(), &[]).unwrap();
        }
        // With a single generator, the last one is `m0` itself.
        let watched = if methods == 1 { 2 * SENDS } else { SENDS };
        assert_eq!(db.engine_stats().notifications, watched, "G = {methods}");
        assert_eq!(db.stats().events_generated, 2 * SENDS);
    }
}

// ---------------------------------------------------------------------
// Claim 7 — §6 capabilities (E1), §4.6 DepWit (E11), contexts (E12)
// ---------------------------------------------------------------------

/// The capability rows an engine lacks, by name.
fn lacks(c: &Capabilities) -> Vec<&'static str> {
    [
        ("runtime rule addition", c.runtime_rule_addition),
        ("direct instance-level rules", c.direct_instance_level_rules),
        (
            "inter-class composite events",
            c.inter_class_composite_events,
        ),
        ("events as first-class objects", c.events_first_class),
        ("rules as first-class objects", c.rules_first_class),
        (
            "one rule shared across classes",
            c.rule_sharing_across_classes,
        ),
        ("rules on rules", c.rules_on_rules),
    ]
    .into_iter()
    .filter(|&(_, has)| !has)
    .map(|(name, _)| name)
    .collect()
}

/// §6: Ode fixes rules at class definition and has no event or rule
/// objects; ADAM has runtime rule objects but ties each to one active
/// class. Neither has composite events, inter-class events or rules on
/// rules, and both couple immediately only.
#[test]
fn baselines_lack_what_section_6_says() {
    let ode = OdeEngine::new().capabilities();
    let adam = AdamEngine::new().capabilities();
    assert_eq!(
        lacks(&ode),
        [
            "runtime rule addition",
            "inter-class composite events",
            "events as first-class objects",
            "rules as first-class objects",
            "one rule shared across classes",
            "rules on rules",
        ]
    );
    assert_eq!(
        lacks(&adam),
        [
            "direct instance-level rules",
            "inter-class composite events",
            "one rule shared across classes",
            "rules on rules",
        ]
    );
    for c in [ode, adam] {
        assert!(c.composite_operators.is_empty());
        assert_eq!(c.coupling_modes, ["immediate"]);
    }
}

/// One banking operation.
#[derive(Debug, Clone, Copy)]
struct BankOp {
    account: usize,
    deposit: bool,
    amount: f64,
}

/// An interleaved deposit/withdraw stream across `accounts` accounts.
fn bank_stream(seed: u64, accounts: usize, len: usize) -> Vec<BankOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| BankOp {
            account: rng.random_range(0..accounts),
            deposit: rng.random_bool(0.5),
            amount: rng.random_range(1.0..100.0),
        })
        .collect()
}

/// Expected DepWit detections per account under the chronicle context:
/// each withdraw pairs with the oldest unconsumed earlier deposit of the
/// same account; a withdraw with none pending is dropped.
fn dep_wit_oracle(ops: &[BankOp], accounts: usize) -> Vec<u64> {
    let mut pending = vec![0u64; accounts];
    let mut detected = vec![0u64; accounts];
    for op in ops {
        if op.deposit {
            pending[op.account] += 1;
        } else if pending[op.account] > 0 {
            pending[op.account] -= 1;
            detected[op.account] += 1;
        }
    }
    detected
}

/// §4.6's `Sequence(end Deposit, Withdraw)`, one chronicle rule per
/// account subscribed to that account only, detects exactly the oracle's
/// pairs. (`chronicle_props` pins the detector's pairing on random
/// programs; this pins it through per-object subscriptions.)
#[test]
fn dep_wit_detections_match_the_oracle() {
    const ACCOUNTS: usize = 16;
    let ops = bank_stream(7, ACCOUNTS, 2000);
    let mut db = Database::new();
    db.define_class(
        ClassDecl::reactive("Account")
            .attr("balance", TypeTag::Float)
            .event_method("Deposit", &[("x", TypeTag::Float)], EventSpec::End)
            .event_method("Withdraw", &[("x", TypeTag::Float)], EventSpec::End),
    )
    .unwrap();
    for (method, sign) in [("Deposit", 1.0), ("Withdraw", -1.0)] {
        db.register_method("Account", method, move |w, this, args| {
            let b = w.get_attr(this, "balance")?.as_float()?;
            w.set_attr(
                this,
                "balance",
                Value::Float(b + sign * args[0].as_float()?),
            )?;
            Ok(Value::Null)
        })
        .unwrap();
    }
    db.register_action("nothing", |_, _| Ok(()));
    let expr = event("end Account::Deposit(float x)")
        .unwrap()
        .then(event("end Account::Withdraw(float x)").unwrap());
    let accounts: Vec<Oid> = (0..ACCOUNTS)
        .map(|i| {
            let a = db.create("Account").unwrap();
            let name = format!("depwit{i}");
            db.add_rule(
                RuleDef::new(&name, expr.clone(), "nothing").context(ParamContext::Chronicle),
            )
            .unwrap();
            db.subscribe(a, &name).unwrap();
            a
        })
        .collect();
    for op in &ops {
        let m = if op.deposit { "Deposit" } else { "Withdraw" };
        db.send(accounts[op.account], m, &[Value::Float(op.amount)])
            .unwrap();
    }
    let detected: Vec<u64> = (0..ACCOUNTS)
        .map(|i| db.rule_stats(&format!("depwit{i}")).unwrap().triggered)
        .collect();
    assert_eq!(detected, dep_wit_oracle(&ops, ACCOUNTS));
}

/// A conjunction under skewed constituent rates (15 left : 1 right),
/// `len` sends. Returns the rule's detections and the occurrences its
/// detector still buffers.
fn skewed_conjunction(ctx: ParamContext, len: usize) -> (u64, usize) {
    let mut db = Database::new();
    db.define_class(
        ClassDecl::reactive("S")
            .event_method("l", &[], EventSpec::End)
            .event_method("r", &[], EventSpec::End),
    )
    .unwrap();
    for m in ["l", "r"] {
        db.register_method("S", m, |_, _, _| Ok(Value::Null))
            .unwrap();
    }
    db.register_action("nothing", |_, _| Ok(()));
    let expr = event("end S::l()")
        .unwrap()
        .and(event("end S::r()").unwrap());
    db.add_rule(RuleDef::new("skew", expr, "nothing").context(ctx))
        .unwrap();
    let o = db.create("S").unwrap();
    db.subscribe(o, "skew").unwrap();
    for i in 0..len {
        let m = if i % 16 == 15 { "r" } else { "l" };
        db.send(o, m, &[]).unwrap();
    }
    (
        db.rule_stats("skew").unwrap().triggered,
        db.rule_detector_buffered("skew").unwrap(),
    )
}

/// The paper's implicit unrestricted context detects every left × right
/// pair and buffers every occurrence. The restricted contexts bound
/// both: recent, chronicle and cumulative detect once per right arrival,
/// continuous once per left initiator, and the buffers order
/// cumulative = continuous < recent < chronicle < unrestricted.
#[test]
fn restricted_contexts_bound_detections_and_state() {
    const LEN: usize = 320;
    let (left, right) = (LEN as u64 * 15 / 16, LEN as u64 / 16);
    let run = |ctx| skewed_conjunction(ctx, LEN);
    let unrestricted = run(ParamContext::Unrestricted);
    let recent = run(ParamContext::Recent);
    let chronicle = run(ParamContext::Chronicle);
    let continuous = run(ParamContext::Continuous);
    let cumulative = run(ParamContext::Cumulative);

    assert_eq!(unrestricted, (left * right, LEN));
    assert_eq!(recent, (right, 1));
    assert_eq!(chronicle, (right, (left - right) as usize));
    assert_eq!(continuous, (left, 0));
    assert_eq!(cumulative, (right, 0));
    assert!(cumulative.1 < recent.1 && recent.1 < chronicle.1 && chronicle.1 < unrestricted.1);
}
