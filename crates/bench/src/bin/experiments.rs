//! The experiment harness: regenerates every table in EXPERIMENTS.md.
//!
//! Usage:
//!   experiments            # run everything
//!   experiments --quick    # smaller sweeps (CI)
//!   experiments e3 e5      # run selected experiments only
//!
//! Each experiment E1..E14 is anchored to a paper claim; the index is
//! DESIGN.md §6 and the results commentary is EXPERIMENTS.md.

use sentinel_baselines::{ActiveEngine, AdamEngine, AdamRuleSpec, Capabilities, OdeConstraintKind};
use sentinel_bench::measure::{per_item, throughput, time_once, Table};
use sentinel_bench::scenarios::{
    self, adam_hot_object, adam_salary, chain_scenario, dispatch_scenario, generator_scenario,
    market_scenario, sentinel_hot_object, sentinel_salary, DispatchKind, OpKind,
};
use sentinel_bench::workload::{
    bank_stream, dep_wit_oracle, market_stream, salary_stream, MarketEvent,
};
use sentinel_db::prelude::*;
use sentinel_db::{event, Database};
use std::sync::Arc;
use std::time::Instant;

struct Cfg {
    quick: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let selected: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|a| a.to_lowercase())
        .collect();
    let cfg = Cfg { quick };
    let want = |name: &str| selected.is_empty() || selected.iter().any(|s| s == name);

    type Experiment = (&'static str, &'static str, fn(&Cfg));
    let experiments: &[Experiment] = &[
        ("e1", "capability matrix (paper §6 comparison)", e1),
        ("e2", "event management cost (paper §1 issue 3)", e2),
        (
            "e3",
            "subscription vs centralized checking (§3.5 adv. 1)",
            e3,
        ),
        ("e4", "rule sharing across classes (§3.5 adv. 2)", e4),
        ("e5", "salary check across engines (§5 example one)", e5),
        ("e6", "dispatch overhead by object kind (§3.2, fn.7)", e6),
        ("e7", "runtime rule addition vs recompile (§1 issue 1)", e7),
        ("e8", "inter-object conjunction (§2.1 purchase rule)", e8),
        ("e9", "coupling modes (§4.4)", e9),
        (
            "e10",
            "class-level vs instance-level association (§1 issue 2)",
            e10,
        ),
        ("e11", "sequence detection precision (§4.6 DepWit)", e11),
        ("e12", "parameter-context ablation (detector state)", e12),
        ("e13", "first-class persistence & recovery (§3.3–3.4)", e13),
        ("e14", "rules on rules (§1 closing claim)", e14),
        (
            "e15",
            "conflict-resolution strategies (§3 extensibility)",
            e15,
        ),
        ("e16", "index vs scan (access-path ablation)", e16),
        ("e17", "pipeline telemetry snapshot (observability)", e17),
    ];

    let t0 = Instant::now();
    for (name, title, f) in experiments {
        if !want(name) {
            continue;
        }
        println!("\n## {} — {}\n", name.to_uppercase(), title);
        f(&cfg);
    }
    eprintln!("\n(total harness time: {:.1?})", t0.elapsed());
}

fn yn(b: bool) -> String {
    (if b { "yes" } else { "no" }).to_string()
}

/// Sentinel's own capability set (demonstrated positively by the
/// integration tests; asserted here for the table).
fn sentinel_capabilities() -> Capabilities {
    Capabilities {
        runtime_rule_addition: true,
        direct_instance_level_rules: true,
        inter_class_composite_events: true,
        events_first_class: true,
        rules_first_class: true,
        rule_sharing_across_classes: true,
        rules_on_rules: true,
        composite_operators: &["and", "or", "seq", "any", "not", "aperiodic"],
        coupling_modes: &["immediate", "deferred", "detached"],
    }
}

// ---------------------------------------------------------------------
fn e1(_cfg: &Cfg) {
    let ode = sentinel_baselines::OdeEngine::new().capabilities();
    let adam = AdamEngine::new().capabilities();
    let sentinel = sentinel_capabilities();
    let mut t = Table::new(&["capability", "ode", "adam", "sentinel"]);
    type Row = (&'static str, fn(&Capabilities) -> String);
    let rows: &[Row] = &[
        ("runtime rule addition", |c| yn(c.runtime_rule_addition)),
        ("direct instance-level rules", |c| {
            yn(c.direct_instance_level_rules)
        }),
        ("inter-class composite events", |c| {
            yn(c.inter_class_composite_events)
        }),
        (
            "events as first-class objects",
            |c| yn(c.events_first_class),
        ),
        ("rules as first-class objects", |c| yn(c.rules_first_class)),
        ("one rule shared across classes", |c| {
            yn(c.rule_sharing_across_classes)
        }),
        ("rules on rules", |c| yn(c.rules_on_rules)),
        ("composite operators", |c| c.composite_operators.join(",")),
        ("coupling modes", |c| c.coupling_modes.join(",")),
    ];
    for (name, f) in rows {
        t.row(vec![name.to_string(), f(&ode), f(&adam), f(&sentinel)]);
    }
    t.print();
}

// ---------------------------------------------------------------------
fn e2(cfg: &Cfg) {
    let n = if cfg.quick { 20_000 } else { 200_000 };

    println!("(a) primitive detection: cost per send vs declared event generators\n");
    let mut t = Table::new(&["declared generators", "sends", "time/send", "events/s"]);
    for methods in [1usize, 4, 16, 64] {
        let (mut db, obj, names) = generator_scenario(methods);
        let d = time_once(|| {
            for i in 0..n {
                db.send(obj, &names[i % names.len()], &[]).unwrap();
            }
        });
        t.row(vec![
            methods.to_string(),
            n.to_string(),
            per_item(d, n),
            throughput(d, n),
        ]);
    }
    t.print();

    println!(
        "\n(b) composite detection: cost per event vs operator and depth (chronicle context)\n"
    );
    let mut t = Table::new(&["operator", "depth", "events", "time/event", "detections"]);
    for op in [OpKind::Or, OpKind::And, OpKind::Seq] {
        for depth in [1usize, 2, 4, 6] {
            let (mut db, obj, names) = chain_scenario(op, depth, ParamContext::Chronicle);
            let events = n / 4;
            let d = time_once(|| {
                for i in 0..events {
                    db.send(obj, &names[i % names.len()], &[]).unwrap();
                }
            });
            t.row(vec![
                op.name().to_string(),
                depth.to_string(),
                events.to_string(),
                per_item(d, events),
                db.rule_stats("chain").unwrap().triggered.to_string(),
            ]);
        }
    }
    t.print();
}

// ---------------------------------------------------------------------
fn e3(cfg: &Cfg) {
    let updates = if cfg.quick { 5_000 } else { 50_000 };
    let hot = 4usize;
    println!(
        "{hot} rules relevant to the hot object; R rules total in the system; \
         {updates} updates to the hot object\n"
    );
    let mut t = Table::new(&[
        "R (total rules)",
        "sentinel time/upd",
        "sentinel checks/upd",
        "adam time/upd",
        "adam checks/upd",
        "adam/sentinel time",
    ]);
    let sweep: &[usize] = if cfg.quick {
        &[16, 64, 256]
    } else {
        &[16, 64, 256, 1024, 4096]
    };
    for &total in sweep {
        let (mut sdb, shot) = sentinel_hot_object(total, hot);
        let sd = time_once(|| {
            for i in 0..updates {
                sdb.send(shot, "Set", &[Value::Float(i as f64)]).unwrap();
            }
        });
        // Rules checked per update: each rule's own delivery count (the
        // hot rules are identical, so they share one detector between
        // them — the engine counter would read 1).
        let rule_checks: u64 = sdb
            .rule_names()
            .iter()
            .map(|n| sdb.rule_stats(n).unwrap().notifications)
            .sum();
        let s_checks = rule_checks as f64 / updates as f64;

        let (mut adb, ahot) = adam_hot_object(total);
        let ad = time_once(|| {
            for i in 0..updates {
                adb.send(ahot, "Set", &[Value::Float(i as f64)]).unwrap();
            }
        });
        let a_checks = adb.counters().rule_checks as f64 / updates as f64;

        t.row(vec![
            total.to_string(),
            per_item(sd, updates),
            format!("{s_checks:.1}"),
            per_item(ad, updates),
            format!("{a_checks:.1}"),
            format!("{:.1}x", ad.as_secs_f64() / sd.as_secs_f64()),
        ]);
    }
    t.print();
}

// ---------------------------------------------------------------------
fn e4(cfg: &Cfg) {
    let updates = if cfg.quick { 2_000 } else { 20_000 };
    let mut t = Table::new(&[
        "classes",
        "strategy",
        "rule objects",
        "setup time",
        "firings",
        "time/update",
    ]);
    for classes in [2usize, 8, 32] {
        for shared in [true, false] {
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
            let setup = time_once(|| {
                if shared {
                    // One rule, an or-chain over all classes' events,
                    // subscribed to every class.
                    let mut expr = event("end C0::Set(float x)").unwrap();
                    for c in 1..classes {
                        expr = expr.or(event(&format!("end C{c}::Set(float x)")).unwrap());
                    }
                    db.add_rule(RuleDef::new("shared", expr, "nothing"))
                        .unwrap();
                    for c in 0..classes {
                        db.subscribe(sentinel_db::Target::Class(&format!("C{c}")), "shared")
                            .unwrap();
                    }
                } else {
                    // One rule object per class (the duplication the
                    // paper criticises).
                    for c in 0..classes {
                        let name = format!("dup{c}");
                        db.add_class_rule(
                            &format!("C{c}"),
                            RuleDef::new(
                                &name,
                                event(&format!("end C{c}::Set(float x)")).unwrap(),
                                "nothing",
                            ),
                        )
                        .unwrap();
                    }
                }
            });
            db.reset_stats();
            let d = time_once(|| {
                for i in 0..updates {
                    let o = objs[i % objs.len()];
                    db.send(o, "Set", &[Value::Float(i as f64)]).unwrap();
                }
            });
            t.row(vec![
                classes.to_string(),
                (if shared {
                    "1 shared rule"
                } else {
                    "N duplicated"
                })
                .to_string(),
                db.rule_count().to_string(),
                format!("{:?}", setup),
                db.stats().actions_run.to_string(),
                per_item(d, updates),
            ]);
        }
    }
    t.print();
}

// ---------------------------------------------------------------------
fn e5(cfg: &Cfg) {
    let employees = 8;
    let updates = if cfg.quick { 3_000 } else { 30_000 };
    let stream = salary_stream(1993, employees, updates, 0.1);
    println!("{employees} employees + 1 manager, {updates} salary updates (10% violating)\n");
    let mut t = Table::new(&[
        "engine",
        "rule objects",
        "time/update",
        "updates/s",
        "condition evals",
        "aborts",
    ]);

    let mut s = sentinel_salary(employees);
    let sd = time_once(|| {
        for u in &stream {
            let _ = s.db.send(
                s.employees[u.employee],
                "Set-Salary",
                &[Value::Float(u.amount)],
            );
        }
    });
    t.row(vec![
        "sentinel (1 rule, disjunction)".into(),
        "1".into(),
        per_item(sd, updates),
        throughput(sd, updates),
        s.db.stats().condition_evals.to_string(),
        s.db.stats().aborts.to_string(),
    ]);

    let mut o = scenarios::ode_salary(employees);
    let od = time_once(|| {
        for u in &stream {
            let _ = o.ode.send(
                o.employees[u.employee],
                "Set-Salary",
                &[Value::Float(u.amount)],
            );
        }
    });
    t.row(vec![
        "ode (2 complementary constraints)".into(),
        "2 (in-class)".into(),
        per_item(od, updates),
        throughput(od, updates),
        o.ode.counters().condition_evals.to_string(),
        o.ode.counters().aborts.to_string(),
    ]);

    let mut a = adam_salary(employees);
    let ad = time_once(|| {
        for u in &stream {
            let _ = a.adam.send(
                a.employees[u.employee],
                "Set-Salary",
                &[Value::Float(u.amount)],
            );
        }
    });
    t.row(vec![
        "adam (2 rule objects)".into(),
        "2".into(),
        per_item(ad, updates),
        throughput(ad, updates),
        a.adam.counters().condition_evals.to_string(),
        a.adam.counters().aborts.to_string(),
    ]);
    t.print();
}

// ---------------------------------------------------------------------
fn e6(cfg: &Cfg) {
    let n = if cfg.quick { 50_000 } else { 500_000 };
    let mut t = Table::new(&["object kind", "subscribers", "time/send", "events/send"]);
    let cases = [
        (DispatchKind::Passive, "passive"),
        (
            DispatchKind::ReactiveUndeclared,
            "reactive, method undeclared",
        ),
        (
            DispatchKind::ReactiveDeclared { subscribers: 0 },
            "reactive, declared (end)",
        ),
        (
            DispatchKind::ReactiveDeclared { subscribers: 1 },
            "reactive, declared (end)",
        ),
        (
            DispatchKind::ReactiveDeclared { subscribers: 8 },
            "reactive, declared (end)",
        ),
        (
            DispatchKind::ReactiveDeclared { subscribers: 64 },
            "reactive, declared (end)",
        ),
        (
            DispatchKind::AllMethodsEvents { subscribers: 8 },
            "reactive, begin && end (fn.7)",
        ),
    ];
    for (kind, label) in cases {
        let (mut db, obj) = dispatch_scenario(kind);
        let d = time_once(|| {
            for i in 0..n {
                db.send(obj, "Set", &[Value::Float(i as f64)]).unwrap();
            }
        });
        let subs = match kind {
            DispatchKind::ReactiveDeclared { subscribers }
            | DispatchKind::AllMethodsEvents { subscribers } => subscribers.to_string(),
            _ => "-".into(),
        };
        let events = db.stats().events_generated as f64 / n as f64;
        t.row(vec![
            label.to_string(),
            subs,
            per_item(d, n),
            format!("{events:.0}"),
        ]);
    }
    t.print();
}

// ---------------------------------------------------------------------
fn e7(cfg: &Cfg) {
    println!("cost of adding one rule when N instances already exist\n");
    let mut t = Table::new(&[
        "N instances",
        "sentinel add_rule+subscribe_class",
        "adam add_rule",
        "ode recompile (revalidates extent)",
    ]);
    let sweep: &[usize] = if cfg.quick {
        &[100, 1_000, 10_000]
    } else {
        &[100, 1_000, 10_000, 100_000]
    };
    for &n in sweep {
        // Sentinel.
        let mut db = Database::new();
        db.define_class(
            ClassDecl::reactive("P")
                .attr("v", TypeTag::Float)
                .event_method("Set", &[("x", TypeTag::Float)], EventSpec::End),
        )
        .unwrap();
        db.register_setter("P", "Set", "v").unwrap();
        db.register_action("nothing", |_, _| Ok(()));
        for _ in 0..n {
            db.create("P").unwrap();
        }
        let sd = time_once(|| {
            db.add_class_rule(
                "P",
                RuleDef::new("late", event("end P::Set(float x)").unwrap(), "nothing"),
            )
            .unwrap();
        });

        // ADAM.
        let mut adam = AdamEngine::new();
        adam.define_class(
            ClassDecl::new("P")
                .attr("v", TypeTag::Float)
                .method("Set", &[("x", TypeTag::Float)]),
        )
        .unwrap();
        adam.register_setter("P", "Set", "v").unwrap();
        for _ in 0..n {
            adam.create("P").unwrap();
        }
        let ev = adam.define_event("Set", EventModifier::End);
        let ad = time_once(|| {
            adam.add_rule(AdamRuleSpec {
                name: "late".into(),
                event: ev,
                active_class: "P".into(),
                condition: Arc::new(|_, _, _| Ok(false)),
                action: Arc::new(|_, _, _| Ok(())),
            })
            .unwrap();
        });

        // Ode: schema change + revalidation sweep.
        let mut ode = sentinel_baselines::OdeEngine::new();
        ode.define_class(
            ClassDecl::new("P")
                .attr("v", TypeTag::Float)
                .method("Set", &[("x", TypeTag::Float)]),
        )
        .unwrap();
        ode.register_setter("P", "Set", "v").unwrap();
        for _ in 0..n {
            ode.create("P").unwrap();
        }
        let od = time_once(|| {
            ode.recompile_with_constraint(
                "P",
                "late",
                OdeConstraintKind::Hard,
                |_, _| Ok(true),
                None,
            )
            .unwrap();
        });

        t.row(vec![
            n.to_string(),
            format!("{sd:?}"),
            format!("{ad:?}"),
            format!("{od:?}"),
        ]);
    }
    t.print();
}

// ---------------------------------------------------------------------
fn e8(cfg: &Cfg) {
    let len = if cfg.quick { 20_000 } else { 100_000 };
    let stocks = 8;
    let stream = market_stream(42, stocks, len, 0.2);
    let (mut db, stock_oids, index) = market_scenario(stocks);
    println!(
        "{stocks} stocks + 1 index, {len} market events (20% index updates); \
         one Purchase rule per stock (conjunction over two classes)\n"
    );
    let d = time_once(|| {
        for ev in &stream {
            match *ev {
                MarketEvent::Price(i, p) => {
                    db.send(stock_oids[i], "SetPrice", &[Value::Float(p)])
                        .unwrap();
                }
                MarketEvent::IndexChange(c) => {
                    db.send(index, "SetValue", &[Value::Float(c)]).unwrap();
                }
            }
        }
    });
    let triggered: u64 = (0..stocks)
        .map(|i| db.rule_stats(&format!("Purchase{i}")).unwrap().triggered)
        .sum();
    let actions: u64 = db.stats().actions_run;
    let mut t = Table::new(&["metric", "value"]);
    t.row(vec!["events".into(), len.to_string()]);
    t.row(vec!["time/event".into(), per_item(d, len)]);
    t.row(vec!["throughput".into(), throughput(d, len)]);
    t.row(vec!["conjunctions detected".into(), triggered.to_string()]);
    t.row(vec![
        "purchases executed (condition held)".into(),
        actions.to_string(),
    ]);
    t.row(vec![
        "engine notifications".into(),
        db.engine_stats().notifications.to_string(),
    ]);
    t.print();
}

// ---------------------------------------------------------------------
fn e9(cfg: &Cfg) {
    let mut t = Table::new(&[
        "batch size",
        "coupling",
        "txn total",
        "actions before commit",
        "actions at/after commit",
    ]);
    let batches: &[usize] = if cfg.quick {
        &[10, 100]
    } else {
        &[10, 100, 1000]
    };
    for &b in batches {
        for mode in [
            CouplingMode::Immediate,
            CouplingMode::Deferred,
            CouplingMode::Detached,
        ] {
            let mut db = Database::new();
            db.define_class(
                ClassDecl::reactive("X")
                    .attr("v", TypeTag::Float)
                    .attr("seen", TypeTag::Int)
                    .event_method("Set", &[("x", TypeTag::Float)], EventSpec::End),
            )
            .unwrap();
            db.register_setter("X", "Set", "v").unwrap();
            db.register_action("tick", |w, f| {
                let o = f.occurrence.constituents[0].oid;
                let n = w.get_attr(o, "seen")?.as_int()?;
                w.set_attr(o, "seen", Value::Int(n + 1))
            });
            db.add_class_rule(
                "X",
                RuleDef::new("R", event("end X::Set(float x)").unwrap(), "tick").coupling(mode),
            )
            .unwrap();
            let o = db.create("X").unwrap();
            db.reset_stats();
            let mut mid = 0i64;
            let d = time_once(|| {
                db.begin().unwrap();
                for i in 0..b {
                    db.send(o, "Set", &[Value::Float(i as f64)]).unwrap();
                }
                mid = db.get_attr(o, "seen").unwrap().as_int().unwrap();
                db.commit().unwrap();
            });
            let total = db.get_attr(o, "seen").unwrap().as_int().unwrap();
            t.row(vec![
                b.to_string(),
                mode.name().to_string(),
                format!("{d:?}"),
                mid.to_string(),
                (total - mid).to_string(),
            ]);
        }
    }
    t.print();

    println!(
        "\n(b) asynchronous detached execution: commit latency with a slow (1 ms) \
         detached action, inline vs Sentinel background executor\n"
    );
    let mut t = Table::new(&["executor", "commit+send latency", "actions completed"]);
    for background in [false, true] {
        let mut db = Database::new();
        db.define_class(
            ClassDecl::reactive("X")
                .attr("v", TypeTag::Float)
                .attr("seen", TypeTag::Int)
                .event_method("Set", &[("x", TypeTag::Float)], EventSpec::End),
        )
        .unwrap();
        db.register_setter("X", "Set", "v").unwrap();
        db.register_action("slow-tick", |w, f| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            let o = f.occurrence.constituents[0].oid;
            let n = w.get_attr(o, "seen")?.as_int()?;
            w.set_attr(o, "seen", Value::Int(n + 1))
        });
        db.add_class_rule(
            "X",
            RuleDef::new("R", event("end X::Set(float x)").unwrap(), "slow-tick")
                .coupling(CouplingMode::Detached),
        )
        .unwrap();
        let o = db.create("X").unwrap();
        if background {
            let shared = sentinel_db::Sentinel::open(db);
            let d = time_once(|| {
                for i in 0..20 {
                    shared
                        .try_with(|db| db.send(o, "Set", &[Value::Float(i as f64)]))
                        .unwrap();
                }
            });
            shared.drain();
            let seen = shared
                .try_with(|db| db.get_attr(o, "seen"))
                .unwrap()
                .as_int()
                .unwrap();
            drop(shared);
            t.row(vec![
                "background (Sentinel)".into(),
                per_item(d, 20),
                seen.to_string(),
            ]);
        } else {
            let d = time_once(|| {
                for i in 0..20 {
                    db.send(o, "Set", &[Value::Float(i as f64)]).unwrap();
                }
            });
            let seen = db.get_attr(o, "seen").unwrap().as_int().unwrap();
            t.row(vec![
                "inline (default)".into(),
                per_item(d, 20),
                seen.to_string(),
            ]);
        }
    }
    t.print();
    println!("\n(background rows complete their actions after the producer returns)");
}

// ---------------------------------------------------------------------
fn e10(cfg: &Cfg) {
    let updates = if cfg.quick { 5_000 } else { 20_000 };
    let sweep: &[usize] = if cfg.quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let mut t = Table::new(&[
        "N instances",
        "association",
        "setup time",
        "subscription edges",
        "time/update",
    ]);
    for &n in sweep {
        // (a) class-level rule: one edge regardless of N.
        {
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
            let setup = time_once(|| {
                db.add_class_rule(
                    "P",
                    RuleDef::new("class", event("end P::Set(float x)").unwrap(), "nothing"),
                )
                .unwrap();
            });
            db.reset_stats();
            let d = time_once(|| {
                for i in 0..updates {
                    db.send(objs[i % n], "Set", &[Value::Float(1.0)]).unwrap();
                }
            });
            t.row(vec![
                n.to_string(),
                "sentinel class-level (1 class sub)".into(),
                format!("{setup:?}"),
                "1".into(),
                per_item(d, updates),
            ]);
        }
        // (b) instance-level rule on one object of N.
        {
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
            let setup = time_once(|| {
                db.add_rule(RuleDef::new(
                    "one",
                    event("end P::Set(float x)").unwrap(),
                    "nothing",
                ))
                .unwrap();
                db.subscribe(objs[0], "one").unwrap();
            });
            db.reset_stats();
            let d = time_once(|| {
                for i in 0..updates {
                    db.send(objs[i % n], "Set", &[Value::Float(1.0)]).unwrap();
                }
            });
            t.row(vec![
                n.to_string(),
                "sentinel instance-level (1-of-N)".into(),
                format!("{setup:?}"),
                "1".into(),
                per_item(d, updates),
            ]);
        }
        // (c) ADAM instance-level emulation: disabled-for N-1 instances.
        {
            let mut adam = AdamEngine::new();
            adam.define_class(
                ClassDecl::new("P")
                    .attr("v", TypeTag::Float)
                    .method("Set", &[("x", TypeTag::Float)]),
            )
            .unwrap();
            adam.register_setter("P", "Set", "v").unwrap();
            let objs: Vec<Oid> = (0..n).map(|_| adam.create("P").unwrap()).collect();
            let ev = adam.define_event("Set", EventModifier::End);
            let setup = time_once(|| {
                adam.add_rule(AdamRuleSpec {
                    name: "one".into(),
                    event: ev,
                    active_class: "P".into(),
                    condition: Arc::new(|_, _, _| Ok(false)),
                    action: Arc::new(|_, _, _| Ok(())),
                })
                .unwrap();
                for &o in &objs[1..] {
                    adam.disable_for("one", o).unwrap();
                }
            });
            adam.reset_counters();
            let d = time_once(|| {
                for i in 0..updates {
                    adam.send(objs[i % n], "Set", &[Value::Float(1.0)]).unwrap();
                }
            });
            t.row(vec![
                n.to_string(),
                "adam disabled-for (N-1 entries)".into(),
                format!("{setup:?}"),
                (n - 1).to_string(),
                per_item(d, updates),
            ]);
        }
    }
    t.print();
}

// ---------------------------------------------------------------------
fn e11(cfg: &Cfg) {
    let accounts = 16;
    let len = if cfg.quick { 10_000 } else { 50_000 };
    let ops = bank_stream(7, accounts, len);
    let oracle: usize = dep_wit_oracle(&ops, accounts).iter().sum();

    println!(
        "{accounts} accounts, {len} interleaved deposit/withdraw ops; \
         per-account Deposit;Withdraw sequence rules (chronicle context)\n"
    );
    let mut db = Database::new();
    db.define_class(
        ClassDecl::reactive("Account")
            .attr("balance", TypeTag::Float)
            .event_method("Deposit", &[("x", TypeTag::Float)], EventSpec::End)
            .event_method("Withdraw", &[("x", TypeTag::Float)], EventSpec::End),
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
    db.register_action("nothing", |_, _| Ok(()));
    // One rule per account, subscribed to that account only, so pairs
    // never cross accounts.
    let expr = event("end Account::Deposit(float x)")
        .unwrap()
        .then(event("end Account::Withdraw(float x)").unwrap());
    let accts: Vec<Oid> = (0..accounts)
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
    db.reset_stats();
    let d = time_once(|| {
        for op in &ops {
            let m = if op.deposit { "Deposit" } else { "Withdraw" };
            db.send(accts[op.account], m, &[Value::Float(op.amount)])
                .unwrap();
        }
    });
    let detected: u64 = (0..accounts)
        .map(|i| db.rule_stats(&format!("depwit{i}")).unwrap().triggered)
        .sum();
    let mut t = Table::new(&["metric", "value"]);
    t.row(vec!["ops".into(), len.to_string()]);
    t.row(vec!["time/op".into(), per_item(d, len)]);
    t.row(vec![
        "expected detections (oracle)".into(),
        oracle.to_string(),
    ]);
    t.row(vec!["detected".into(), detected.to_string()]);
    t.row(vec![
        "precision/recall".into(),
        if detected as usize == oracle {
            "exact (1.0 / 1.0)".into()
        } else {
            format!("MISMATCH ({detected} vs {oracle})")
        },
    ]);
    t.print();
    assert_eq!(
        detected as usize, oracle,
        "sequence detection must match the oracle"
    );
}

// ---------------------------------------------------------------------
fn e12(cfg: &Cfg) {
    let len = if cfg.quick { 20_000 } else { 100_000 };
    println!(
        "conjunction under skewed constituent rates (15 left : 1 right), {len} events; \
         detector state and detections per context\n"
    );
    let mut t = Table::new(&[
        "context",
        "events",
        "time/event",
        "detections",
        "buffered after run",
    ]);
    for ctx in ParamContext::ALL {
        // The unrestricted context emits O(left × right) composites —
        // inherent to its semantics; cap its stream so the full run
        // stays tractable (the quadratic shape is visible well before).
        let len = if ctx == ParamContext::Unrestricted {
            len.min(20_000)
        } else {
            len
        };
        let mut db = Database::new();
        db.define_class(
            ClassDecl::reactive("S")
                .event_method("l", &[], EventSpec::End)
                .event_method("r", &[], EventSpec::End),
        )
        .unwrap();
        db.register_method("S", "l", |_, _, _| Ok(Value::Null))
            .unwrap();
        db.register_method("S", "r", |_, _, _| Ok(Value::Null))
            .unwrap();
        db.register_action("nothing", |_, _| Ok(()));
        db.add_rule(
            RuleDef::new(
                "skew",
                event("end S::l()")
                    .unwrap()
                    .and(event("end S::r()").unwrap()),
                "nothing",
            )
            .context(ctx),
        )
        .unwrap();
        let o = db.create("S").unwrap();
        db.subscribe(o, "skew").unwrap();
        db.reset_stats();
        let d = time_once(|| {
            for i in 0..len {
                let m = if i % 16 == 15 { "r" } else { "l" };
                db.send(o, m, &[]).unwrap();
            }
        });
        let rs = db.rule_stats("skew").unwrap();
        t.row(vec![
            ctx.name().to_string(),
            len.to_string(),
            per_item(d, len),
            rs.triggered.to_string(),
            db.rule_detector_buffered("skew").unwrap().to_string(),
        ]);
    }
    t.print();
    println!(
        "\nnote: the unrestricted context is the paper's implicit semantics; its buffer\n\
         grows with the skew and its detections grow multiplicatively — the restricted\n\
         contexts bound both (state <= 1 for recent; consumed pairs for chronicle)."
    );
}

// ---------------------------------------------------------------------
fn e13(cfg: &Cfg) {
    let sweep: &[usize] = if cfg.quick {
        &[10, 100]
    } else {
        &[10, 100, 1000]
    };
    let mut t = Table::new(&[
        "rules+events (objects)",
        "checkpoint time",
        "recovery time",
        "rules recovered",
        "fires after recovery",
    ]);
    for &n in sweep {
        let dir = std::env::temp_dir().join(format!("sentinel-e13-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (ckpt, obj) = {
            let mut db = Database::with_config(DbConfig::durable(&dir)).unwrap();
            db.define_class(
                ClassDecl::reactive("P")
                    .attr("v", TypeTag::Float)
                    .event_method("Set", &[("x", TypeTag::Float)], EventSpec::End),
            )
            .unwrap();
            db.register_setter("P", "Set", "v").unwrap();
            db.register_action("nothing", |_, _| Ok(()));
            let obj = db.create("P").unwrap();
            for i in 0..n {
                db.define_event(&format!("ev{i}"), event("end P::Set(float x)").unwrap())
                    .unwrap();
                db.add_rule(RuleDef::new(
                    format!("r{i}"),
                    db.event_expr(&format!("ev{i}")).unwrap(),
                    "nothing",
                ))
                .unwrap();
                db.subscribe(obj, &format!("r{i}")).unwrap();
                db.create("P").unwrap();
            }
            let ckpt = time_once(|| db.checkpoint().unwrap());
            (ckpt, obj)
        };
        let t0 = Instant::now();
        let mut db = Database::recover(DbConfig::durable(&dir)).unwrap();
        let rec = t0.elapsed();
        db.register_setter("P", "Set", "v").unwrap();
        db.register_action("nothing", |_, _| Ok(()));
        db.send(obj, "Set", &[Value::Float(1.0)]).unwrap();
        let fires: u64 = (0..n)
            .map(|i| db.rule_stats(&format!("r{i}")).unwrap().triggered)
            .sum();
        t.row(vec![
            n.to_string(),
            format!("{ckpt:?}"),
            format!("{rec:?}"),
            db.rule_count().to_string(),
            fires.to_string(),
        ]);
        let _ = std::fs::remove_dir_all(&dir);
    }
    t.print();
}

// ---------------------------------------------------------------------
fn e14(cfg: &Cfg) {
    let toggles = if cfg.quick { 2_000 } else { 10_000 };
    println!(
        "Enable/Disable a rule object {toggles} times, with and without a meta-rule watching\n"
    );
    let mut t = Table::new(&["configuration", "time/toggle", "meta-rule firings"]);
    for watched in [false, true] {
        let mut db = Database::new();
        db.define_class(ClassDecl::reactive("P").event_method("m", &[], EventSpec::End))
            .unwrap();
        db.register_method("P", "m", |_, _, _| Ok(Value::Null))
            .unwrap();
        db.register_action("nothing", |_, _| Ok(()));
        let target = db
            .add_rule(RuleDef::new(
                "target",
                event("end P::m()").unwrap(),
                "nothing",
            ))
            .unwrap();
        if watched {
            db.add_rule(RuleDef::new(
                "watcher",
                event("end Rule::Disable()")
                    .unwrap()
                    .or(event("end Rule::Enable()").unwrap()),
                "nothing",
            ))
            .unwrap();
            db.subscribe(target, "watcher").unwrap();
        }
        db.reset_stats();
        let d = time_once(|| {
            for _ in 0..toggles {
                db.send(target, "Disable", &[]).unwrap();
                db.send(target, "Enable", &[]).unwrap();
            }
        });
        let firings = if watched {
            db.rule_stats("watcher").unwrap().triggered.to_string()
        } else {
            "-".into()
        };
        t.row(vec![
            (if watched {
                "watched by meta-rule"
            } else {
                "unwatched"
            })
            .to_string(),
            per_item(d, toggles * 2),
            firings,
        ]);
    }
    t.print();
}

// ---------------------------------------------------------------------
fn e15(cfg: &Cfg) {
    use sentinel_rules::{FifoResolver, LifoResolver, PriorityResolver};
    let events = if cfg.quick { 5_000 } else { 20_000 };
    let fanout = 16; // rules triggered by each event
    println!(
        "{fanout} rules all triggered by the same event, {events} events; \
         resolver installed at runtime without touching application code\n"
    );
    let mut t = Table::new(&[
        "resolver",
        "time/event",
        "first-fired rule",
        "orders correctly",
    ]);
    for which in ["fifo", "lifo", "priority"] {
        let mut db = Database::new();
        db.define_class(
            ClassDecl::reactive("X")
                .attr("order", TypeTag::List)
                .event_method("Hit", &[], EventSpec::End),
        )
        .unwrap();
        db.register_method("X", "Hit", |_, _, _| Ok(Value::Null))
            .unwrap();
        for i in 0..fanout {
            let name = format!("r{i:02}");
            let label = name.clone();
            db.register_action(&format!("act{i:02}"), move |w, f| {
                let o = f.occurrence.constituents[0].oid;
                let mut l = w.get_attr(o, "order")?.as_list()?.to_vec();
                if l.len() < 64 {
                    l.push(Value::Str(label.clone()));
                }
                w.set_attr(o, "order", Value::List(l))
            });
            db.add_class_rule(
                "X",
                RuleDef::new(&name, event("end X::Hit()").unwrap(), format!("act{i:02}"))
                    .priority(i),
            )
            .unwrap();
        }
        match which {
            "fifo" => db.set_conflict_resolver(Box::new(FifoResolver)),
            "lifo" => db.set_conflict_resolver(Box::new(LifoResolver)),
            _ => db.set_conflict_resolver(Box::new(PriorityResolver)),
        }
        let o = db.create("X").unwrap();
        // Correctness probe on the first event.
        db.send(o, "Hit", &[]).unwrap();
        let order = db.get_attr(o, "order").unwrap();
        let first = order.as_list().unwrap()[0].as_str().unwrap().to_string();
        let expected_first = match which {
            "fifo" => "r00",
            _ => "r15", // lifo reverses trigger order; priority fires 15 first
        };
        db.set_attr(o, "order", Value::List(vec![])).unwrap();
        db.reset_stats();
        let d = time_once(|| {
            for _ in 0..events {
                db.send(o, "Hit", &[]).unwrap();
            }
        });
        t.row(vec![
            which.into(),
            per_item(d, events),
            first.clone(),
            (first == expected_first).to_string(),
        ]);
    }
    t.print();
}

// ---------------------------------------------------------------------
fn e16(cfg: &Cfg) {
    use sentinel_db::Query;
    let queries = if cfg.quick { 200 } else { 1_000 };
    println!(
        "narrow range query (1% selectivity) over N objects, {queries} queries each; \
         declarative `range` with and without an attribute index\n"
    );
    let mut t = Table::new(&[
        "N objects",
        "scan time/query",
        "indexed time/query",
        "speedup",
        "results agree",
    ]);
    let sweep: &[usize] = if cfg.quick {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    for &n in sweep {
        let mut db = Database::new();
        db.define_class(ClassDecl::new("P").attr("v", TypeTag::Float))
            .unwrap();
        for i in 0..n {
            db.create_with("P", &[("v", Value::Float(i as f64))])
                .unwrap();
        }
        let lo = (n / 2) as f64;
        let hi = lo + (n as f64) * 0.01;
        let q = Query::over("P").range("v", Some(Value::Float(lo)), Some(Value::Float(hi)));
        let scan = time_once(|| {
            for _ in 0..queries {
                std::hint::black_box(q.run_oids(&db).unwrap());
            }
        });
        let scan_result = q.run_oids(&db).unwrap();
        db.create_index("P", "v").unwrap();
        let indexed = time_once(|| {
            for _ in 0..queries {
                std::hint::black_box(q.run_oids(&db).unwrap());
            }
        });
        let indexed_result = q.run_oids(&db).unwrap();
        t.row(vec![
            n.to_string(),
            per_item(scan, queries),
            per_item(indexed, queries),
            format!("{:.0}x", scan.as_secs_f64() / indexed.as_secs_f64()),
            (scan_result == indexed_result).to_string(),
        ]);
    }
    t.print();
}

// ---------------------------------------------------------------------
fn e17(cfg: &Cfg) {
    let updates = if cfg.quick { 2_000 } else { 20_000 };
    println!(
        "one mixed workload ({updates} updates, all three coupling modes, 10% aborts) \
         with telemetry + tracing on; per-stage counts/latencies and the reconciliation \
         of stage counters against the facade's own statistics\n"
    );
    let mut db = Database::new();
    let tel = db.telemetry().clone();
    tel.set_enabled(true);
    tel.set_tracing(true);
    db.define_class(
        ClassDecl::reactive("X")
            .attr("v", TypeTag::Float)
            .attr("seen", TypeTag::Int)
            .event_method("Set", &[("x", TypeTag::Float)], EventSpec::End),
    )
    .unwrap();
    db.register_setter("X", "Set", "v").unwrap();
    db.register_action("tick", |w, f| {
        let o = f.occurrence.constituents[0].oid;
        let n = w.get_attr(o, "seen")?.as_int()?;
        w.set_attr(o, "seen", Value::Int(n + 1))
    });
    for (name, mode) in [
        ("R-imm", CouplingMode::Immediate),
        ("R-def", CouplingMode::Deferred),
        ("R-det", CouplingMode::Detached),
    ] {
        db.add_class_rule(
            "X",
            RuleDef::new(name, event("end X::Set(float x)").unwrap(), "tick").coupling(mode),
        )
        .unwrap();
    }
    let o = db.create("X").unwrap();
    db.reset_stats();
    for i in 0..updates {
        db.begin().unwrap();
        db.send(o, "Set", &[Value::Float(i as f64)]).unwrap();
        if i % 10 == 9 {
            db.abort().unwrap();
        } else {
            db.commit().unwrap();
        }
    }

    let snap = tel.snapshot();
    let mut t = Table::new(&["stage", "count", "unit", "p-of-2 mean", "min..max"]);
    for s in &snap.stages {
        if s.count == 0 {
            continue;
        }
        let mean = if s.values.count > 0 {
            format!("{:.0}", s.values.sum as f64 / s.values.count as f64)
        } else {
            "-".into()
        };
        let range = if s.values.count > 0 {
            format!(
                "{}..{}",
                s.values.min.unwrap_or(0),
                s.values.max.unwrap_or(0)
            )
        } else {
            "-".into()
        };
        t.row(vec![
            s.stage.clone(),
            s.count.to_string(),
            s.unit.clone(),
            mean,
            range,
        ]);
    }
    t.print();

    let d = db.stats();
    let e = db.engine_stats();
    use sentinel_db::prelude::Stage;
    let checks = [
        (
            "method_send == sends",
            tel.stage_count(Stage::MethodSend),
            d.sends,
        ),
        (
            "event_raised == events_generated",
            tel.stage_count(Stage::EventRaised),
            d.events_generated,
        ),
        (
            "fan_out == occurrences",
            tel.stage_count(Stage::FanOut),
            e.occurrences,
        ),
        (
            "detector_transition == notifications",
            tel.stage_count(Stage::DetectorTransition),
            e.notifications,
        ),
        (
            "condition_eval == condition_evals",
            tel.stage_count(Stage::ConditionEval),
            d.condition_evals,
        ),
        (
            "action_run == actions_run",
            tel.stage_count(Stage::ActionRun),
            d.actions_run,
        ),
        (
            "txn_commit == commits",
            tel.stage_count(Stage::TxnCommit),
            d.commits,
        ),
        (
            "txn_abort == aborts",
            tel.stage_count(Stage::TxnAbort),
            d.aborts,
        ),
        (
            "detached_run == detached_runs",
            tel.stage_count(Stage::DetachedRun),
            d.detached_runs,
        ),
    ];
    println!("\nreconciliation (stage counter vs facade statistic):");
    let mut all_ok = true;
    for (what, a, b) in checks {
        let ok = a == b;
        all_ok &= ok;
        println!("  {} {what}: {a} vs {b}", if ok { "ok " } else { "FAIL" });
    }
    assert!(all_ok, "telemetry does not reconcile with stats");
    println!(
        "\ntrace ring: {} recorded, {} buffered, {} dropped (capacity {})",
        snap.trace.recorded, snap.trace.buffered, snap.trace.dropped, snap.trace.capacity
    );
    println!("\nPrometheus exposition (first 12 lines):");
    for line in db.metrics_prometheus().lines().take(12) {
        println!("  {line}");
    }
}
