//! Semantic parity of the three engines on the paper's Example One
//! (§5.1): "an employee's salary must always be less than his/her
//! manager's salary", enforced under the same randomized workload.
//!
//! The architectures differ (one Sentinel rule with a disjunction event;
//! two complementary Ode hard constraints; two ADAM rule objects), but
//! the *observable* outcome must agree: after every update attempt, the
//! invariant holds, and an update is rejected iff it would violate it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sentinel::prelude::*;
use sentinel_baselines::{AdamEngine, AdamRuleSpec, OdeConstraintKind, OdeEngine};
use std::sync::Arc;

const EMPLOYEES: usize = 6;
const UPDATES: usize = 300;

/// The shared random workload: (employee index or manager, new salary).
#[derive(Debug, Clone, Copy)]
enum Update {
    Employee(usize, f64),
    Manager(f64),
}

fn workload(seed: u64) -> Vec<Update> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..UPDATES)
        .map(|_| {
            if rng.random_bool(0.2) {
                Update::Manager(rng.random_range(10.0..200.0))
            } else {
                Update::Employee(
                    rng.random_range(0..EMPLOYEES),
                    rng.random_range(10.0..200.0),
                )
            }
        })
        .collect()
}

/// Drive one engine; returns per-update acceptance plus final salaries.
type Outcome = (Vec<bool>, Vec<f64>, f64);

fn run_sentinel(updates: &[Update]) -> Outcome {
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

    let mike = db
        .create_with("Manager", &[("sal", Value::Float(100.0))])
        .unwrap();
    let emps: Vec<Oid> = (0..EMPLOYEES)
        .map(|_| {
            db.create_with(
                "Employee",
                &[("sal", Value::Float(50.0)), ("mgr", Value::Oid(mike))],
            )
            .unwrap()
        })
        .collect();

    db.register_condition("violates", move |w, _f| {
        let cap = w.get_attr(mike, "sal")?.as_float()?;
        for e in w.extent("Employee")? {
            if e == mike {
                continue;
            }
            if w.get_attr(e, "sal")?.as_float()? >= cap {
                return Ok(true);
            }
        }
        Ok(false)
    });
    // ONE rule, disjunction over both classes' events (Figure 10 style).
    let e = event("end Employee::Set-Salary(float x)")
        .unwrap()
        .or(event("end Manager::Set-Salary(float x)").unwrap());
    db.add_class_rule(
        "Employee",
        RuleDef::new("SalaryCheck", e, ACTION_ABORT).condition("violates"),
    )
    .unwrap();

    let mut accepted = Vec::new();
    for u in updates {
        let r = match *u {
            Update::Employee(i, x) => db.send(emps[i], "Set-Salary", &[Value::Float(x)]),
            Update::Manager(x) => db.send(mike, "Set-Salary", &[Value::Float(x)]),
        };
        accepted.push(r.is_ok());
    }
    let finals = emps
        .iter()
        .map(|&e| db.get_attr(e, "sal").unwrap().as_float().unwrap())
        .collect();
    let mgr_final = db.get_attr(mike, "sal").unwrap().as_float().unwrap();
    (accepted, finals, mgr_final)
}

fn run_ode(updates: &[Update]) -> Outcome {
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
                if e == this {
                    continue;
                }
                if w.get_attr(e, "mgr")?.as_oid()? == this
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

    let mike = ode.create("Manager").unwrap();
    ode.set_attr(mike, "sal", Value::Float(100.0)).unwrap();
    let emps: Vec<Oid> = (0..EMPLOYEES)
        .map(|_| {
            let e = ode.create("Employee").unwrap();
            ode.set_attr(e, "sal", Value::Float(50.0)).unwrap();
            ode.set_attr(e, "mgr", Value::Oid(mike)).unwrap();
            e
        })
        .collect();

    let mut accepted = Vec::new();
    for u in updates {
        let r = match *u {
            Update::Employee(i, x) => ode.send(emps[i], "Set-Salary", &[Value::Float(x)]),
            Update::Manager(x) => ode.send(mike, "Set-Salary", &[Value::Float(x)]),
        };
        accepted.push(r.is_ok());
    }
    let finals = emps
        .iter()
        .map(|&e| ode.get_attr(e, "sal").unwrap().as_float().unwrap())
        .collect();
    let mgr_final = ode.get_attr(mike, "sal").unwrap().as_float().unwrap();
    (accepted, finals, mgr_final)
}

fn run_adam(updates: &[Update]) -> Outcome {
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
                if e == this {
                    continue;
                }
                if w.get_attr(e, "mgr")?.as_oid()? == this
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

    let mike = adam.create("Manager").unwrap();
    adam.set_attr(mike, "sal", Value::Float(100.0)).unwrap();
    let emps: Vec<Oid> = (0..EMPLOYEES)
        .map(|_| {
            let e = adam.create("Employee").unwrap();
            adam.set_attr(e, "sal", Value::Float(50.0)).unwrap();
            adam.set_attr(e, "mgr", Value::Oid(mike)).unwrap();
            e
        })
        .collect();

    let mut accepted = Vec::new();
    for u in updates {
        let r = match *u {
            Update::Employee(i, x) => adam.send(emps[i], "Set-Salary", &[Value::Float(x)]),
            Update::Manager(x) => adam.send(mike, "Set-Salary", &[Value::Float(x)]),
        };
        accepted.push(r.is_ok());
    }
    let finals = emps
        .iter()
        .map(|&e| adam.get_attr(e, "sal").unwrap().as_float().unwrap())
        .collect();
    let mgr_final = adam.get_attr(mike, "sal").unwrap().as_float().unwrap();
    (accepted, finals, mgr_final)
}

#[test]
fn three_engines_agree_on_salary_check() {
    for seed in [7, 42, 1993] {
        let w = workload(seed);
        let sentinel = run_sentinel(&w);
        let ode = run_ode(&w);
        let adam = run_adam(&w);
        assert_eq!(
            sentinel.0, ode.0,
            "accept/reject parity sentinel vs ode (seed {seed})"
        );
        assert_eq!(
            sentinel.0, adam.0,
            "accept/reject parity sentinel vs adam (seed {seed})"
        );
        assert_eq!(
            sentinel.1, ode.1,
            "final salaries sentinel vs ode (seed {seed})"
        );
        assert_eq!(
            sentinel.1, adam.1,
            "final salaries sentinel vs adam (seed {seed})"
        );
        assert_eq!(sentinel.2, ode.2, "manager salary (seed {seed})");
        assert_eq!(sentinel.2, adam.2, "manager salary (seed {seed})");
        // And the invariant actually holds at the end.
        for &s in &sentinel.1 {
            assert!(s < sentinel.2, "invariant: {s} < {}", sentinel.2);
        }
    }
}
