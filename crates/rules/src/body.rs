//! Named condition and action bodies — the PMF analog.
//!
//! The paper's rule class stores `PMF *condition, *action` — pointers to
//! C++ member functions. Persisting a pointer is meaningless; what
//! Zeitgeist actually persisted was the *identity* of the function, with
//! the code supplied by the (re)compiled application. This registry
//! reproduces that split: rules store body *names*; applications register
//! the code under those names at startup; recovery rebinds by name.

use crate::rule::RuleId;
use sentinel_events::CompositeOccurrence;
use sentinel_object::{ObjectError, Result, Value, World};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// A primitive event an action may raise: "some `class::method` send".
/// Matches both the `begin` and `end` shade and closes over subclasses
/// (declaring `Account::Withdraw` covers `SavingsAccount::Withdraw`).
/// Used by the static analyzer to build the triggering graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EventPattern {
    /// Class name (the declared static class; subclass sends match too).
    pub class: String,
    /// Method name.
    pub method: String,
}

impl EventPattern {
    /// Convenience constructor.
    pub fn new(class: impl Into<String>, method: impl Into<String>) -> Self {
        EventPattern {
            class: class.into(),
            method: method.into(),
        }
    }
}

impl std::fmt::Display for EventPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}::{}", self.class, self.method)
    }
}

/// An attribute an action may write, for the analyzer's confluence
/// check. Subclass-closed like [`EventPattern`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AttrPattern {
    /// Class name.
    pub class: String,
    /// Attribute name.
    pub attr: String,
}

impl AttrPattern {
    /// Convenience constructor.
    pub fn new(class: impl Into<String>, attr: impl Into<String>) -> Self {
        AttrPattern {
            class: class.into(),
            attr: attr.into(),
        }
    }
}

impl std::fmt::Display for AttrPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.class, self.attr)
    }
}

/// Declared side-effects of an action body. Actions are opaque Rust
/// closures, so the analyzer cannot inspect them; this is the contract
/// the author states at registration. An action with *no* declaration
/// is conservatively analyzed as "may raise anything" (and flagged with
/// an `unknown-effects` info lint); a declared empty `ActionEffects`
/// asserts the action raises no events, writes no attributes, and
/// reads no attributes.
///
/// The declaration covers the whole rule firing: a rule's *condition*
/// reads must also fall inside the action's declared `reads`/`writes`
/// footprint for the parallel scheduler to trust the rule.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ActionEffects {
    /// Events the action may cause to be raised (message sends it makes).
    pub raises: Vec<EventPattern>,
    /// Attributes the action may write.
    pub writes: Vec<AttrPattern>,
    /// Attributes the firing (condition + action) may read *beyond* its
    /// writes. `None` means the read-set is **unknown** — the parallel
    /// scheduler must assume the firing can read anything and keeps its
    /// rules on the serial path; `Some(vec![])` asserts the firing reads
    /// nothing but what it writes.
    pub reads: Option<Vec<AttrPattern>>,
}

impl ActionEffects {
    /// An action that provably raises no events, writes nothing, and
    /// reads nothing (pure observers of firing parameters, `abort`,
    /// `noop`).
    pub fn none() -> Self {
        ActionEffects {
            raises: Vec::new(),
            writes: Vec::new(),
            reads: Some(Vec::new()),
        }
    }

    /// Builder: add a raised event pattern.
    pub fn raising(mut self, class: impl Into<String>, method: impl Into<String>) -> Self {
        self.raises.push(EventPattern::new(class, method));
        self
    }

    /// Builder: add a written attribute pattern.
    pub fn writing(mut self, class: impl Into<String>, attr: impl Into<String>) -> Self {
        self.writes.push(AttrPattern::new(class, attr));
        self
    }

    /// Builder: add a read attribute pattern (an attribute the firing
    /// reads but does not write — declared writes are implicitly
    /// readable).
    pub fn reading(mut self, class: impl Into<String>, attr: impl Into<String>) -> Self {
        self.reads
            .get_or_insert_with(Vec::new)
            .push(AttrPattern::new(class, attr));
        self
    }

    /// Builder: mark the read-set as unknown. The analyzer then treats
    /// the action's rules as able to read anything, which confines them
    /// to the serial execution path.
    pub fn reads_unknown(mut self) -> Self {
        self.reads = None;
        self
    }
}

/// Causal coordinates of a firing, stamped at scheduling time while
/// firing history is enabled (all-zero [`Default`] otherwise). The
/// coordinates travel inside the [`Firing`] through the deferred and
/// detached queues, so a firing executed long after its raise still
/// knows its cascade.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lineage {
    /// `FiringId` value allocated by the telemetry handle (0 = never
    /// stamped, i.e. history was off when the firing was scheduled).
    pub id: u64,
    /// Id of the firing whose action raised the triggering occurrence
    /// (`None` for a cascade root).
    pub parent: Option<u64>,
    /// OccId of the occurrence at the root of this cascade.
    pub root: u64,
    /// Cascade depth: 0 for a root firing, parent's depth + 1 below.
    pub depth: u32,
}

/// Everything a condition/action can inspect about its triggering: the
/// rule identity and the composite occurrence (constituent primitives
/// with their recorded parameters — the paper's `Record`ed state).
///
/// Bodies borrow it for the length of their call: the executor lends
/// it out of the batch that holds the detection and the rule's binding,
/// so running a firing clones no reference count. A body that keeps the
/// detection past its call clones `occurrence` (one `Arc`).
#[derive(Debug, Clone, Copy)]
pub struct Firing<'a> {
    /// The triggered rule.
    pub rule: RuleId,
    /// Its name.
    pub rule_name: &'a str,
    /// The detected (possibly composite) event occurrence, shared by
    /// every rule that consumes the same detection.
    pub occurrence: &'a Arc<CompositeOccurrence>,
    /// Causal coordinates (meaningful only while firing history is
    /// enabled).
    pub lineage: Lineage,
}

impl<'a> Firing<'a> {
    /// Parameter `i` of the constituent raised by `method`, if present.
    /// The common access pattern for conditions ("the amount passed to
    /// Change-Income").
    pub fn param_of(&self, method: &str, i: usize) -> Option<&'a Value> {
        self.occurrence
            .constituent_for_method(method)
            .and_then(|c| c.param(i))
    }
}

/// A condition body: evaluated when the rule's event is detected;
/// returning `Ok(true)` lets the action run.
pub type CondFn = Arc<dyn Fn(&mut dyn World, &Firing<'_>) -> Result<bool> + Send + Sync>;

/// An action body: executed when the condition holds. Returning
/// `Err(TransactionAborted)` aborts the triggering transaction.
pub type ActionFn = Arc<dyn Fn(&mut dyn World, &Firing<'_>) -> Result<()> + Send + Sync>;

/// A rule's condition and action, resolved once and shared by every
/// firing the rule schedules. A queued firing keeps the bodies it was
/// scheduled with, whatever later happens to its rule.
pub struct BoundBodies {
    /// Resolved condition body.
    pub condition: CondFn,
    /// Resolved action body.
    pub action: ActionFn,
}

/// Name → body registry for rule conditions and actions.
#[derive(Clone)]
pub struct RuleBodyRegistry {
    conditions: HashMap<String, CondFn>,
    actions: HashMap<String, ActionFn>,
    /// Declared side-effects per action name. Absence means "effects
    /// unknown" — the analyzer treats the action as able to raise
    /// anything.
    effects: HashMap<String, ActionEffects>,
    /// Bumped on every registration. Rules cache resolved body handles
    /// tagged with this version; a mismatch re-resolves, so re-registering
    /// a body (recovery, hot swap) invalidates every stale cache without
    /// the registry knowing which rules reference which names.
    version: u64,
}

impl std::fmt::Debug for RuleBodyRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleBodyRegistry")
            .field("conditions", &self.conditions.len())
            .field("actions", &self.actions.len())
            .finish()
    }
}

/// Built-in condition that always holds (a rule with no condition part).
pub const COND_TRUE: &str = "true";
/// Built-in action that aborts the triggering transaction — Figure 9's
/// `A : abort`.
pub const ACTION_ABORT: &str = "abort";
/// Built-in action that does nothing (event-logging rules).
pub const ACTION_NOOP: &str = "noop";

impl Default for RuleBodyRegistry {
    fn default() -> Self {
        let mut reg = RuleBodyRegistry {
            conditions: HashMap::new(),
            actions: HashMap::new(),
            effects: HashMap::new(),
            version: 0,
        };
        reg.register_condition(COND_TRUE, |_, _| Ok(true));
        // The built-ins provably raise no events and write nothing, so
        // they carry an empty effects declaration out of the box.
        reg.register_action_with_effects(ACTION_ABORT, ActionEffects::none(), |_, firing| {
            Err(ObjectError::abort(format!(
                "rule `{}` aborted the transaction",
                firing.rule_name
            )))
        });
        reg.register_action_with_effects(ACTION_NOOP, ActionEffects::none(), |_, _| Ok(()));
        reg
    }
}

impl RuleBodyRegistry {
    /// A registry pre-populated with the built-in bodies.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a condition body under `name`.
    pub fn register_condition<F>(&mut self, name: impl Into<String>, f: F)
    where
        F: Fn(&mut dyn World, &Firing<'_>) -> Result<bool> + Send + Sync + 'static,
    {
        self.version += 1;
        self.conditions.insert(name.into(), Arc::new(f));
    }

    /// Register (or replace) an action body under `name` with no
    /// effects declaration ("effects unknown" to the analyzer). Any
    /// previously declared effects for the name are dropped, since they
    /// described the replaced body.
    pub fn register_action<F>(&mut self, name: impl Into<String>, f: F)
    where
        F: Fn(&mut dyn World, &Firing<'_>) -> Result<()> + Send + Sync + 'static,
    {
        self.version += 1;
        let name = name.into();
        self.effects.remove(&name);
        self.actions.insert(name, Arc::new(f));
    }

    /// Register (or replace) an action body together with its declared
    /// side-effects — what events it may raise and attributes it may
    /// write. The analyzer uses the declaration to build precise
    /// triggering-graph edges instead of conservative ones.
    pub fn register_action_with_effects<F>(
        &mut self,
        name: impl Into<String>,
        effects: ActionEffects,
        f: F,
    ) where
        F: Fn(&mut dyn World, &Firing<'_>) -> Result<()> + Send + Sync + 'static,
    {
        self.install_action(name.into(), Some(effects), Arc::new(f));
    }

    /// Install an already-boxed action body, with effects declared when
    /// `effects` is `Some` and dropped to "unknown" otherwise. The shared
    /// back end of [`register_action_with_effects`](Self::register_action_with_effects)
    /// and [`register_def`](Self::register_def).
    pub(crate) fn install_action(
        &mut self,
        name: String,
        effects: Option<ActionEffects>,
        body: ActionFn,
    ) {
        self.version += 1;
        match effects {
            Some(fx) => {
                self.effects.insert(name.clone(), fx);
            }
            None => {
                self.effects.remove(&name);
            }
        }
        self.actions.insert(name, body);
    }

    /// Declare (or replace) the effects of an already-registered action.
    /// Errors with [`ObjectError::BodyNotRegistered`] if no action body
    /// exists under `name` — a declaration for a missing body would be
    /// silently meaningless.
    pub fn declare_action_effects(
        &mut self,
        name: impl Into<String>,
        effects: ActionEffects,
    ) -> Result<()> {
        self.declare_effects_internal(name.into(), effects)
    }

    pub(crate) fn declare_effects_internal(
        &mut self,
        name: String,
        effects: ActionEffects,
    ) -> Result<()> {
        if !self.actions.contains_key(&name) {
            return Err(ObjectError::BodyNotRegistered {
                kind: "action",
                name,
            });
        }
        self.version += 1;
        self.effects.insert(name, effects);
        Ok(())
    }

    /// Declared effects of an action, if the author provided them.
    /// `None` means "unknown" — not "no effects".
    pub fn action_effects(&self, name: &str) -> Option<&ActionEffects> {
        self.effects.get(name)
    }

    /// Current registration version (see the `version` field).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Fetch a condition body.
    pub fn condition(&self, name: &str) -> Result<CondFn> {
        self.conditions
            .get(name)
            .cloned()
            .ok_or_else(|| ObjectError::BodyNotRegistered {
                kind: "condition",
                name: name.to_string(),
            })
    }

    /// Fetch an action body.
    pub fn action(&self, name: &str) -> Result<ActionFn> {
        self.actions
            .get(name)
            .cloned()
            .ok_or_else(|| ObjectError::BodyNotRegistered {
                kind: "action",
                name: name.to_string(),
            })
    }

    /// Resolve a condition and an action together, condition first.
    pub fn bind(&self, condition: &str, action: &str) -> Result<Arc<BoundBodies>> {
        Ok(Arc::new(BoundBodies {
            condition: self.condition(condition)?,
            action: self.action(action)?,
        }))
    }

    /// Is a condition body registered?
    pub fn has_condition(&self, name: &str) -> bool {
        self.conditions.contains_key(name)
    }

    /// Is an action body registered?
    pub fn has_action(&self, name: &str) -> bool {
        self.actions.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_events::{EventModifier, PrimitiveOccurrence};
    use sentinel_object::{ClassId, Oid};

    fn occurrence() -> Arc<CompositeOccurrence> {
        let p = PrimitiveOccurrence {
            at: 1,
            oid: Oid(9),
            class: ClassId(0),
            owner: ClassId(0),
            method: "Change-Income".into(),
            modifier: EventModifier::End,
            params: Arc::from(vec![Value::Float(55.0)]),
        };
        Arc::new(CompositeOccurrence::from_primitive(p))
    }

    fn firing(occurrence: &Arc<CompositeOccurrence>) -> Firing<'_> {
        Firing {
            rule: RuleId(1),
            rule_name: "IncomeLevel",
            occurrence,
            lineage: Lineage::default(),
        }
    }

    #[test]
    fn builtins_present() {
        let reg = RuleBodyRegistry::new();
        assert!(reg.has_condition(COND_TRUE));
        assert!(reg.has_action(ACTION_ABORT));
        assert!(reg.has_action(ACTION_NOOP));
        assert!(!reg.has_condition("nope"));
        assert!(matches!(
            reg.condition("nope"),
            Err(ObjectError::BodyNotRegistered {
                kind: "condition",
                ..
            })
        ));
        assert!(matches!(
            reg.action("nope"),
            Err(ObjectError::BodyNotRegistered { kind: "action", .. })
        ));
        // Built-ins ship with an explicit "no effects" declaration.
        assert_eq!(
            reg.action_effects(ACTION_ABORT),
            Some(&ActionEffects::none())
        );
        assert_eq!(
            reg.action_effects(ACTION_NOOP),
            Some(&ActionEffects::none())
        );
    }

    #[test]
    fn effects_declaration_lifecycle() {
        let mut reg = RuleBodyRegistry::new();
        // Plain registration leaves effects unknown.
        reg.register_action("mutate", |_, _| Ok(()));
        assert_eq!(reg.action_effects("mutate"), None);
        // A declaration sticks...
        let fx = ActionEffects::none()
            .raising("Account", "Withdraw")
            .writing("Account", "suspicious");
        reg.declare_action_effects("mutate", fx.clone()).unwrap();
        assert_eq!(reg.action_effects("mutate"), Some(&fx));
        // ...until the body is replaced without one.
        reg.register_action("mutate", |_, _| Ok(()));
        assert_eq!(reg.action_effects("mutate"), None);
        // Registering with effects sets both at once.
        reg.register_action_with_effects("mutate", fx.clone(), |_, _| Ok(()));
        assert_eq!(reg.action_effects("mutate"), Some(&fx));
        // Declaring for a missing body is an error, not a silent no-op.
        assert!(matches!(
            reg.declare_action_effects("ghost", ActionEffects::none()),
            Err(ObjectError::BodyNotRegistered { kind: "action", .. })
        ));
    }

    #[test]
    fn abort_action_signals_abort_with_rule_name() {
        let reg = RuleBodyRegistry::new();
        let action = reg.action(ACTION_ABORT).unwrap();
        // A world is required by the signature but not touched by abort;
        // passing a dummy is fine because the closure ignores it. Every
        // operation returns a clean `Unsupported` error (never panics),
        // so a body that unexpectedly touches the world surfaces as a
        // diagnosable failure instead of unwinding through the engine.
        struct NoWorld(sentinel_object::ClassRegistry);
        fn no_world(op: &str) -> ObjectError {
            ObjectError::Unsupported(format!("{op}: no world available in this context"))
        }
        impl World for NoWorld {
            fn registry(&self) -> &sentinel_object::ClassRegistry {
                &self.0
            }
            fn create(&mut self, _: &str) -> Result<Oid> {
                Err(no_world("create"))
            }
            fn delete(&mut self, _: Oid) -> Result<()> {
                Err(no_world("delete"))
            }
            fn get_attr(&self, _: Oid, _: &str) -> Result<Value> {
                Err(no_world("get_attr"))
            }
            fn set_attr(&mut self, _: Oid, _: &str, _: Value) -> Result<()> {
                Err(no_world("set_attr"))
            }
            fn send(&mut self, _: Oid, _: &str, _: &[Value]) -> Result<Value> {
                Err(no_world("send"))
            }
            fn class_of(&self, _: Oid) -> Result<ClassId> {
                Err(no_world("class_of"))
            }
            fn extent(&self, _: &str) -> Result<Vec<Oid>> {
                Err(no_world("extent"))
            }
            fn now(&self) -> u64 {
                0
            }
        }
        let mut w = NoWorld(sentinel_object::ClassRegistry::new());
        let err = action(&mut w, &firing(&occurrence())).err().unwrap();
        assert!(err.is_abort());
        assert!(err.to_string().contains("IncomeLevel"));
    }

    #[test]
    fn firing_param_access() {
        let occ = occurrence();
        let f = firing(&occ);
        assert_eq!(f.param_of("Change-Income", 0), Some(&Value::Float(55.0)));
        assert_eq!(f.param_of("Change-Income", 1), None);
        assert_eq!(f.param_of("Other", 0), None);
    }
}
