//! The Ode-style engine: rules fixed at class-definition time.
//!
//! Models the Ode/O++ architecture as the paper characterises it (§1,
//! §5–6, Figure 11):
//!
//! * **Constraints** (hard/soft) and **triggers** are declared *with the
//!   class*. After class definition they cannot change without
//!   "recompiling" — modelled by
//!   [`OdeEngine::recompile_with_constraint`], which rebuilds the class's
//!   rule table and revalidates every stored instance (the cost the
//!   paper's extensibility critique is about).
//! * Every public method invocation on an instance checks **all**
//!   constraints of its class (inherited ones included): there is no
//!   subscription filtering. Hard-constraint violations abort the
//!   transaction; soft violations run a fixup and re-check.
//! * Triggers are declared with the class but *activated per instance*
//!   at runtime (`activate_trigger`), once or perpetually — Ode's
//!   concession to instance-level behaviour.
//! * A rule spanning two classes must be written as complementary
//!   constraints in both classes (Figure 11) — there are no inter-class
//!   composite events.
//!
//! The model omits O++'s own composite-event sublanguage: the paper's
//! comparison uses only Ode's constraints/triggers, and its point is
//! that Ode's events cannot span instances of distinct classes.

use crate::interface::{ActiveEngine, Capabilities, EngineCounters};
use crate::kernel::Kernel;
use sentinel_object::{ClassDecl, ClassId, ClassRegistry, ObjectError, Oid, Result, Value, World};
use std::collections::HashMap;
use std::sync::Arc;

/// Hard constraints abort; soft constraints run a fixup and re-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OdeConstraintKind {
    /// Violation aborts the transaction.
    Hard,
    /// Violation runs a fixup, then re-checks.
    Soft,
}

/// Predicate: does the constraint *hold* for this object?
pub type OdePredicate = Arc<dyn Fn(&mut dyn World, Oid) -> Result<bool> + Send + Sync>;
/// Soft-constraint fixup or trigger action.
pub type OdeAction = Arc<dyn Fn(&mut dyn World, Oid) -> Result<()> + Send + Sync>;

struct OdeConstraint {
    name: String,
    kind: OdeConstraintKind,
    holds: OdePredicate,
    fixup: Option<OdeAction>,
}

struct OdeTriggerDecl {
    name: String,
    condition: OdePredicate,
    action: OdeAction,
    perpetual: bool,
}

#[derive(Clone)]
struct TriggerActivation {
    class: ClassId,
    index: usize,
    active: bool,
}

/// The Ode-style engine.
pub struct OdeEngine {
    kernel: Kernel,
    constraints: HashMap<ClassId, Vec<OdeConstraint>>,
    triggers: HashMap<ClassId, Vec<OdeTriggerDecl>>,
    activations: HashMap<Oid, Vec<TriggerActivation>>,
    counters: EngineCounters,
    recompiles: u64,
    depth: usize,
    max_depth: usize,
}

impl Default for OdeEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl OdeEngine {
    /// An empty engine.
    pub fn new() -> Self {
        OdeEngine {
            kernel: Kernel::new(),
            constraints: HashMap::new(),
            triggers: HashMap::new(),
            activations: HashMap::new(),
            counters: EngineCounters::default(),
            recompiles: 0,
            depth: 0,
            max_depth: 64,
        }
    }

    /// Define a class. Constraints and triggers must be attached *now*
    /// (or never, short of a recompile) — that is the Ode model.
    pub fn define_class(&mut self, decl: ClassDecl) -> Result<ClassId> {
        self.kernel.define_class(decl)
    }

    /// Attach a constraint during class definition. Errors once any
    /// instance of the class exists (declaration time is over).
    pub fn declare_constraint<P>(
        &mut self,
        class: &str,
        name: &str,
        kind: OdeConstraintKind,
        holds: P,
        fixup: Option<OdeAction>,
    ) -> Result<()>
    where
        P: Fn(&mut dyn World, Oid) -> Result<bool> + Send + Sync + 'static,
    {
        let id = self.kernel.registry.id_of(class)?;
        if !self
            .kernel
            .store
            .extent(&self.kernel.registry, id)
            .is_empty()
        {
            return Err(ObjectError::Unsupported(
                "Ode: constraints are fixed at class-definition time; \
                 use recompile_with_constraint to simulate schema recompilation"
                    .into(),
            ));
        }
        if kind == OdeConstraintKind::Soft && fixup.is_none() {
            return Err(ObjectError::App(
                "soft constraint requires a fixup action".into(),
            ));
        }
        self.constraints.entry(id).or_default().push(OdeConstraint {
            name: name.to_string(),
            kind,
            holds: Arc::new(holds),
            fixup,
        });
        Ok(())
    }

    /// Attach a trigger declaration during class definition.
    pub fn declare_trigger<P, A>(
        &mut self,
        class: &str,
        name: &str,
        condition: P,
        action: A,
        perpetual: bool,
    ) -> Result<()>
    where
        P: Fn(&mut dyn World, Oid) -> Result<bool> + Send + Sync + 'static,
        A: Fn(&mut dyn World, Oid) -> Result<()> + Send + Sync + 'static,
    {
        let id = self.kernel.registry.id_of(class)?;
        if !self
            .kernel
            .store
            .extent(&self.kernel.registry, id)
            .is_empty()
        {
            return Err(ObjectError::Unsupported(
                "Ode: triggers are declared at class-definition time".into(),
            ));
        }
        self.triggers.entry(id).or_default().push(OdeTriggerDecl {
            name: name.to_string(),
            condition: Arc::new(condition),
            action: Arc::new(action),
            perpetual,
        });
        Ok(())
    }

    /// Activate a declared trigger on a specific instance (Ode's
    /// `object->trigger()` runtime binding).
    pub fn activate_trigger(&mut self, oid: Oid, name: &str) -> Result<()> {
        let class = self.kernel.store.class_of(oid)?;
        for &cid in &self.kernel.registry.get(class).linearization {
            if let Some(decls) = self.triggers.get(&cid) {
                if let Some(idx) = decls.iter().position(|t| t.name == name) {
                    self.activations
                        .entry(oid)
                        .or_default()
                        .push(TriggerActivation {
                            class: cid,
                            index: idx,
                            active: true,
                        });
                    return Ok(());
                }
            }
        }
        Err(ObjectError::UnknownRule(format!(
            "no trigger `{name}` declared on the class of {oid}"
        )))
    }

    /// Simulate adding a constraint after instances exist: Ode requires
    /// changing the class definition and recompiling; stored instances
    /// of the changed class must be revalidated. The revalidation sweep
    /// over the extent is the O(instances) cost §1 objects to. Returns
    /// the number of instances revalidated.
    pub fn recompile_with_constraint<P>(
        &mut self,
        class: &str,
        name: &str,
        kind: OdeConstraintKind,
        holds: P,
        fixup: Option<OdeAction>,
    ) -> Result<usize>
    where
        P: Fn(&mut dyn World, Oid) -> Result<bool> + Send + Sync + 'static,
    {
        let id = self.kernel.registry.id_of(class)?;
        self.constraints.entry(id).or_default().push(OdeConstraint {
            name: name.to_string(),
            kind,
            holds: Arc::new(holds),
            fixup,
        });
        self.recompiles += 1;
        // Revalidate every stored instance against the changed class.
        let instances: Vec<Oid> = self.kernel.store.extent(&self.kernel.registry, id);
        let n = instances.len();
        self.kernel.txn.begin()?;
        for oid in instances {
            if let Err(e) = self.check_constraints(oid) {
                self.kernel.rollback();
                return Err(e);
            }
        }
        self.kernel.txn.commit()?;
        Ok(n)
    }

    /// Number of simulated recompilations.
    pub fn recompiles(&self) -> u64 {
        self.recompiles
    }

    /// Create an instance (auto-transaction).
    pub fn create(&mut self, class: &str) -> Result<Oid> {
        let id = self.kernel.registry.id_of(class)?;
        self.kernel.txn.begin()?;
        let oid = self.kernel.create_in_txn(id);
        match oid {
            Ok(o) => {
                self.kernel.txn.commit()?;
                Ok(o)
            }
            Err(e) => {
                self.kernel.rollback();
                Err(e)
            }
        }
    }

    /// Write an attribute directly (no constraint checking: Ode checks
    /// at method boundaries).
    pub fn set_attr(&mut self, oid: Oid, attr: &str, value: Value) -> Result<()> {
        self.kernel.txn.begin()?;
        match self.kernel.set_attr_in_txn(oid, attr, value) {
            Ok(()) => {
                self.kernel.txn.commit()?;
                Ok(())
            }
            Err(e) => {
                self.kernel.rollback();
                Err(e)
            }
        }
    }

    /// Read an attribute.
    pub fn get_attr(&self, oid: Oid, attr: &str) -> Result<Value> {
        self.kernel.store.get_attr(&self.kernel.registry, oid, attr)
    }

    /// Register a method body.
    pub fn register_method<F>(&mut self, class: &str, method: &str, body: F) -> Result<()>
    where
        F: Fn(&mut dyn World, Oid, &[Value]) -> Result<Value> + Send + Sync + 'static,
    {
        self.kernel.register_method(class, method, body)
    }

    /// Register a setter body.
    pub fn register_setter(&mut self, class: &str, method: &str, attr: &str) -> Result<()> {
        self.kernel.register_setter(class, method, attr)
    }

    /// Public message send: auto-transaction; constraint violations
    /// abort it.
    pub fn send(&mut self, receiver: Oid, method: &str, args: &[Value]) -> Result<Value> {
        self.kernel.txn.begin()?;
        match self.dispatch(receiver, method, args) {
            Ok(v) => {
                self.kernel.txn.commit()?;
                Ok(v)
            }
            Err(e) => {
                self.kernel.rollback();
                if e.is_abort() {
                    self.counters.aborts += 1;
                }
                Err(e)
            }
        }
    }

    fn dispatch(&mut self, receiver: Oid, method: &str, args: &[Value]) -> Result<Value> {
        if self.depth >= self.max_depth {
            return Err(ObjectError::CascadeDepthExceeded {
                limit: self.max_depth,
            });
        }
        self.depth += 1;
        let out = self.dispatch_inner(receiver, method, args);
        self.depth -= 1;
        out
    }

    fn dispatch_inner(&mut self, receiver: Oid, method: &str, args: &[Value]) -> Result<Value> {
        let class = self.kernel.store.class_of(receiver)?;
        let (_owner, _def, body) =
            self.kernel
                .methods
                .resolve(&self.kernel.registry, class, method, args)?;
        self.kernel.tick();
        let result = body(self, receiver, args)?;
        // Ode: every public method boundary checks the class's
        // constraints and the object's active triggers.
        self.check_constraints(receiver)?;
        self.check_triggers(receiver)?;
        Ok(result)
    }

    fn check_constraints(&mut self, oid: Oid) -> Result<()> {
        let class = self.kernel.store.class_of(oid)?;
        let lin = self.kernel.registry.get(class).linearization.clone();
        for cid in lin {
            let n = self.constraints.get(&cid).map(Vec::len).unwrap_or(0);
            for idx in 0..n {
                self.counters.rule_checks += 1;
                self.counters.condition_evals += 1;
                let (holds, kind, fixup, name) = {
                    let c = &self.constraints[&cid][idx];
                    (c.holds.clone(), c.kind, c.fixup.clone(), c.name.clone())
                };
                if holds(self, oid)? {
                    continue;
                }
                match kind {
                    OdeConstraintKind::Hard => {
                        return Err(ObjectError::abort(format!(
                            "hard constraint `{name}` violated by {oid}"
                        )));
                    }
                    OdeConstraintKind::Soft => {
                        let fixup = fixup.expect("soft constraint has fixup");
                        self.counters.actions_run += 1;
                        fixup(self, oid)?;
                        self.counters.condition_evals += 1;
                        if !holds(self, oid)? {
                            return Err(ObjectError::abort(format!(
                                "soft constraint `{name}` still violated after fixup"
                            )));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn check_triggers(&mut self, oid: Oid) -> Result<()> {
        let Some(acts) = self.activations.get(&oid) else {
            return Ok(());
        };
        let snapshot: Vec<(usize, TriggerActivation)> = acts
            .iter()
            .cloned()
            .enumerate()
            .filter(|(_, a)| a.active)
            .collect();
        for (pos, act) in snapshot {
            self.counters.rule_checks += 1;
            let (condition, action, perpetual) = {
                let t = &self.triggers[&act.class][act.index];
                (t.condition.clone(), t.action.clone(), t.perpetual)
            };
            self.counters.condition_evals += 1;
            if condition(self, oid)? {
                self.counters.actions_run += 1;
                action(self, oid)?;
                if !perpetual {
                    if let Some(v) = self.activations.get_mut(&oid) {
                        v[pos].active = false;
                    }
                }
            }
        }
        Ok(())
    }

    /// All instances of a class.
    pub fn extent(&self, class: &str) -> Result<Vec<Oid>> {
        let id = self.kernel.registry.id_of(class)?;
        Ok(self.kernel.store.extent(&self.kernel.registry, id))
    }
}

impl World for OdeEngine {
    fn registry(&self) -> &ClassRegistry {
        &self.kernel.registry
    }
    fn create(&mut self, class: &str) -> Result<Oid> {
        let id = self.kernel.registry.id_of(class)?;
        self.kernel.create_in_txn(id)
    }
    fn delete(&mut self, oid: Oid) -> Result<()> {
        self.activations.remove(&oid);
        self.kernel.delete_in_txn(oid)
    }
    fn get_attr(&self, oid: Oid, attr: &str) -> Result<Value> {
        self.kernel.store.get_attr(&self.kernel.registry, oid, attr)
    }
    fn set_attr(&mut self, oid: Oid, attr: &str, value: Value) -> Result<()> {
        self.kernel.set_attr_in_txn(oid, attr, value)
    }
    fn send(&mut self, receiver: Oid, method: &str, args: &[Value]) -> Result<Value> {
        self.dispatch(receiver, method, args)
    }
    fn class_of(&self, oid: Oid) -> Result<ClassId> {
        self.kernel.store.class_of(oid)
    }
    fn extent(&self, class: &str) -> Result<Vec<Oid>> {
        OdeEngine::extent(self, class)
    }
    fn now(&self) -> u64 {
        self.kernel.now()
    }
}

impl ActiveEngine for OdeEngine {
    fn engine_name(&self) -> &'static str {
        "ode"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            runtime_rule_addition: false,
            direct_instance_level_rules: true, // trigger activation per instance
            inter_class_composite_events: false,
            events_first_class: false,
            rules_first_class: false,
            rule_sharing_across_classes: false,
            rules_on_rules: false,
            composite_operators: &[],
            coupling_modes: &["immediate"],
        }
    }

    fn counters(&self) -> EngineCounters {
        self.counters
    }

    fn reset_counters(&mut self) {
        self.counters = EngineCounters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_object::TypeTag;

    /// The paper's Figure 11 schema: employee.sal < mgr->salary(),
    /// expressed as two complementary hard constraints.
    fn salary_check_engine() -> OdeEngine {
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
        // Constraint in the employee class...
        ode.declare_constraint(
            "Employee",
            "sal-below-mgr",
            OdeConstraintKind::Hard,
            |w, this| {
                let mgr = w.get_attr(this, "mgr")?.as_oid()?;
                if mgr.is_nil() {
                    return Ok(true); // managers have no manager here
                }
                Ok(w.get_attr(this, "sal")?.as_float()? < w.get_attr(mgr, "sal")?.as_float()?)
            },
            None,
        )
        .unwrap();
        // ...and its complement in the manager class (Figure 11's
        // sal_greater_than_all_employees).
        ode.declare_constraint(
            "Manager",
            "sal-above-employees",
            OdeConstraintKind::Hard,
            |w, this| {
                let my = w.get_attr(this, "sal")?.as_float()?;
                for e in w.extent("Employee")? {
                    if e == this {
                        continue;
                    }
                    let m = w.get_attr(e, "mgr")?.as_oid()?;
                    if m == this && w.get_attr(e, "sal")?.as_float()? >= my {
                        return Ok(false);
                    }
                }
                Ok(true)
            },
            None,
        )
        .unwrap();
        ode
    }

    #[test]
    fn figure_11_two_complementary_constraints() {
        let mut ode = salary_check_engine();
        let mike = ode.create("Manager").unwrap();
        ode.set_attr(mike, "sal", Value::Float(100.0)).unwrap();
        let fred = ode.create("Employee").unwrap();
        ode.set_attr(fred, "mgr", Value::Oid(mike)).unwrap();

        // Valid raise passes both constraints.
        ode.send(fred, "Set-Salary", &[Value::Float(80.0)]).unwrap();
        assert_eq!(ode.get_attr(fred, "sal").unwrap(), Value::Float(80.0));
        // Raising Fred above Mike violates the employee constraint.
        let err = ode
            .send(fred, "Set-Salary", &[Value::Float(150.0)])
            .err()
            .unwrap();
        assert!(err.is_abort());
        assert_eq!(ode.get_attr(fred, "sal").unwrap(), Value::Float(80.0));
        // Dropping Mike below Fred violates the manager constraint.
        let err = ode
            .send(mike, "Set-Salary", &[Value::Float(50.0)])
            .err()
            .unwrap();
        assert!(err.is_abort());
        assert_eq!(ode.get_attr(mike, "sal").unwrap(), Value::Float(100.0));
        assert_eq!(ode.counters().aborts, 2);
    }

    #[test]
    fn constraints_fixed_once_instances_exist() {
        let mut ode = salary_check_engine();
        ode.create("Employee").unwrap();
        let err = ode
            .declare_constraint(
                "Employee",
                "late",
                OdeConstraintKind::Hard,
                |_, _| Ok(true),
                None,
            )
            .err()
            .unwrap();
        assert!(matches!(err, ObjectError::Unsupported(_)));
        // The recompile path works and revalidates the extent.
        let n = ode
            .recompile_with_constraint(
                "Employee",
                "late",
                OdeConstraintKind::Hard,
                |_, _| Ok(true),
                None,
            )
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(ode.recompiles(), 1);
    }

    #[test]
    fn every_instance_pays_for_class_constraints() {
        // Ode has no subscriptions: a method send on *any* instance
        // evaluates the class's constraints.
        let mut ode = salary_check_engine();
        let mike = ode.create("Manager").unwrap();
        ode.set_attr(mike, "sal", Value::Float(1000.0)).unwrap();
        let mut emps = Vec::new();
        for _ in 0..10 {
            let e = ode.create("Employee").unwrap();
            ode.set_attr(e, "mgr", Value::Oid(mike)).unwrap();
            emps.push(e);
        }
        ode.reset_counters();
        for &e in &emps {
            ode.send(e, "Set-Salary", &[Value::Float(10.0)]).unwrap();
        }
        // One constraint per employee send (Employee has 1 constraint).
        assert_eq!(ode.counters().rule_checks, 10);
    }

    #[test]
    fn soft_constraint_fixup_repairs() {
        let mut ode = OdeEngine::new();
        ode.define_class(
            ClassDecl::new("Gauge")
                .attr("v", TypeTag::Float)
                .method("Set", &[("x", TypeTag::Float)]),
        )
        .unwrap();
        ode.register_setter("Gauge", "Set", "v").unwrap();
        ode.declare_constraint(
            "Gauge",
            "clamp",
            OdeConstraintKind::Soft,
            |w, this| Ok(w.get_attr(this, "v")?.as_float()? <= 100.0),
            Some(Arc::new(|w, this| {
                w.set_attr(this, "v", Value::Float(100.0))
            })),
        )
        .unwrap();
        let g = ode.create("Gauge").unwrap();
        ode.send(g, "Set", &[Value::Float(250.0)]).unwrap();
        assert_eq!(ode.get_attr(g, "v").unwrap(), Value::Float(100.0));
        assert_eq!(ode.counters().actions_run, 1);
    }

    #[test]
    fn once_trigger_fires_once_perpetual_keeps_firing() {
        let mut ode = OdeEngine::new();
        ode.define_class(
            ClassDecl::new("Tank")
                .attr("level", TypeTag::Float)
                .attr("alerts", TypeTag::Int)
                .method("Fill", &[("x", TypeTag::Float)]),
        )
        .unwrap();
        ode.register_method("Tank", "Fill", |w, this, args| {
            let l = w.get_attr(this, "level")?.as_float()?;
            w.set_attr(this, "level", Value::Float(l + args[0].as_float()?))?;
            Ok(Value::Null)
        })
        .unwrap();
        let bump = |w: &mut dyn World, this: Oid| {
            let a = w.get_attr(this, "alerts")?.as_int()?;
            w.set_attr(this, "alerts", Value::Int(a + 1))
        };
        ode.declare_trigger(
            "Tank",
            "once-high",
            |w, this| Ok(w.get_attr(this, "level")?.as_float()? > 10.0),
            bump,
            false,
        )
        .unwrap();
        ode.declare_trigger(
            "Tank",
            "always-high",
            |w, this| Ok(w.get_attr(this, "level")?.as_float()? > 10.0),
            bump,
            true,
        )
        .unwrap();
        let t = ode.create("Tank").unwrap();
        // Triggers apply only to instances that activated them.
        let other = ode.create("Tank").unwrap();
        ode.activate_trigger(t, "once-high").unwrap();
        ode.activate_trigger(t, "always-high").unwrap();

        ode.send(t, "Fill", &[Value::Float(20.0)]).unwrap(); // both fire
        ode.send(t, "Fill", &[Value::Float(1.0)]).unwrap(); // only perpetual
        ode.send(other, "Fill", &[Value::Float(99.0)]).unwrap(); // none active
        assert_eq!(ode.get_attr(t, "alerts").unwrap(), Value::Int(3));
        assert_eq!(ode.get_attr(other, "alerts").unwrap(), Value::Int(0));
    }

    #[test]
    fn capability_matrix_matches_the_model() {
        let ode = OdeEngine::new();
        let c = ode.capabilities();
        assert!(!c.runtime_rule_addition);
        assert!(!c.inter_class_composite_events);
        assert!(!c.rules_first_class);
        assert!(c.direct_instance_level_rules);
    }
}
