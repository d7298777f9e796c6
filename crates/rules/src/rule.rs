//! First-class rule objects (paper §3.4, Figure 7).

use crate::body::{BoundBodies, RuleBodyRegistry};
use crate::coupling::CouplingMode;
use sentinel_events::{DetectorCaps, DetectorInstance, EventExpr, ParamContext};
use sentinel_object::{ClassRegistry, EventSym, Oid, Result};
use sentinel_telemetry::RuleLatency;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Rule identifier, unique per engine lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RuleId(pub u64);

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule#{}", self.0)
    }
}

/// The serializable definition of a rule — what Figure 7 stores:
/// `name`, `event-id`, `condition`, `action`, `mode`, plus a priority
/// that orders co-triggered rules.
///
/// `condition`/`action` are *names* into the
/// [`RuleBodyRegistry`](crate::body::RuleBodyRegistry), the persistable
/// analog of Figure 7's `PMF` pointers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleDef {
    /// Rule name (unique per engine).
    pub name: String,
    /// The triggering event expression.
    pub event: EventExpr,
    /// Name of the condition body in the body registry.
    pub condition: String,
    /// Name of the action body in the body registry.
    pub action: String,
    /// When the rule executes relative to its triggering transaction.
    pub coupling: CouplingMode,
    /// Rank among co-triggered rules: larger fires first, and ties go to
    /// the lower rule-object oid, then the lower [`RuleId`]. The
    /// analyzer's confluence and `shadowed-by-abort` diagnostics assume
    /// the same order.
    pub priority: i32,
    /// Parameter context for this rule's private detector.
    pub context: ParamContext,
}

impl RuleDef {
    /// A rule with the given name, event and action, an always-true
    /// condition, immediate coupling, and default priority/context.
    pub fn new(name: impl Into<String>, event: EventExpr, action: impl Into<String>) -> Self {
        RuleDef {
            name: name.into(),
            event,
            condition: crate::body::COND_TRUE.into(),
            action: action.into(),
            coupling: CouplingMode::Immediate,
            priority: 0,
            context: ParamContext::default(),
        }
    }

    /// Set the condition body name.
    pub fn condition(mut self, name: impl Into<String>) -> Self {
        self.condition = name.into();
        self
    }

    /// Set the coupling mode.
    pub fn coupling(mut self, mode: CouplingMode) -> Self {
        self.coupling = mode;
        self
    }

    /// Set the priority (see [`RuleDef::priority`]).
    pub fn priority(mut self, p: i32) -> Self {
        self.priority = p;
        self
    }

    /// Set the parameter context for the rule's detector.
    pub fn context(mut self, ctx: ParamContext) -> Self {
        self.context = ctx;
        self
    }

    /// Select the event-consumption policy — an alias for
    /// [`context`](Self::context) in the vocabulary of the temporal
    /// operators ("how are constituent occurrences consumed by a
    /// detection?").
    pub fn consume(self, ctx: ParamContext) -> Self {
        self.context(ctx)
    }

    /// Start a fluent builder from the triggering event, reading in ECA
    /// order:
    ///
    /// ```
    /// use sentinel_rules::{CouplingMode, RuleDef};
    /// use sentinel_events::{EventExpr, PrimitiveEventSpec};
    ///
    /// let e = EventExpr::primitive(PrimitiveEventSpec::end("Acct", "Withdraw"));
    /// let def = RuleDef::on(e)
    ///     .named("Overdraft")
    ///     .when("balance-negative")
    ///     .then("freeze-account")
    ///     .coupling(CouplingMode::Deferred)
    ///     .build();
    /// assert_eq!(def.name, "Overdraft");
    /// ```
    ///
    /// `when` is optional (default: always-true condition); `named` and
    /// `then` are required before the definition is usable. Anything
    /// taking `impl Into<RuleDef>` accepts the builder directly, without
    /// [`build`](RuleBuilder::build).
    pub fn on(event: EventExpr) -> RuleBuilder {
        RuleBuilder {
            def: RuleDef::new("", event, crate::body::ACTION_NOOP),
        }
    }
}

/// Fluent builder for [`RuleDef`], created by [`RuleDef::on`].
#[derive(Debug, Clone)]
pub struct RuleBuilder {
    def: RuleDef,
}

impl RuleBuilder {
    /// Set the rule name (required; unique per engine).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.def.name = name.into();
        self
    }

    /// Set the condition body name (default: always true).
    pub fn when(mut self, condition: impl Into<String>) -> Self {
        self.def.condition = condition.into();
        self
    }

    /// Set the action body name (required).
    pub fn then(mut self, action: impl Into<String>) -> Self {
        self.def.action = action.into();
        self
    }

    /// Set the coupling mode (default: immediate).
    pub fn coupling(mut self, mode: CouplingMode) -> Self {
        self.def.coupling = mode;
        self
    }

    /// Set the priority (default 0; see [`RuleDef::priority`]).
    pub fn priority(mut self, p: i32) -> Self {
        self.def.priority = p;
        self
    }

    /// Set the parameter context for the rule's detector.
    pub fn context(mut self, ctx: ParamContext) -> Self {
        self.def.context = ctx;
        self
    }

    /// Select the event-consumption policy (alias for
    /// [`context`](Self::context)).
    pub fn consume(self, ctx: ParamContext) -> Self {
        self.context(ctx)
    }

    /// Finish, yielding the [`RuleDef`].
    pub fn build(self) -> RuleDef {
        self.def
    }
}

impl From<RuleBuilder> for RuleDef {
    fn from(b: RuleBuilder) -> Self {
        b.build()
    }
}

/// Per-rule counters, read from the rule by [`Rule::stats`]; the root
/// `paper_claims` test asserts the paper's comparative claims on them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleStats {
    /// Primitive occurrences delivered to this rule's detector.
    pub notifications: u64,
    /// Detections of the rule's (composite) event.
    pub triggered: u64,
    /// Condition evaluations performed.
    pub condition_evals: u64,
    /// Conditions that held: one per action run, and read from it.
    pub condition_true: u64,
    /// Actions executed.
    pub actions_run: u64,
}

/// A rule's live counters. A condition that held is an action run, so
/// conditions that held are not stored apart.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RuleCounts {
    pub(crate) notifications: u64,
    pub(crate) triggered: u64,
    pub(crate) condition_evals: u64,
    pub(crate) actions_run: u64,
}

/// A live rule: definition + runtime state. Its event detector lives in
/// the engine's arena ([`RuleEngine::detector_of`](crate::RuleEngine::detector_of)).
pub struct Rule {
    /// Engine-local identity.
    pub id: RuleId,
    /// The rule's identity as a first-class object in the store
    /// ([`Oid::NIL`] when the engine is used standalone without a store).
    pub oid: Oid,
    /// The serializable definition.
    pub def: RuleDef,
    /// The rule's name, shared: firings and telemetry labels clone the
    /// `Arc`, not the string.
    pub name: Arc<str>,
    /// Disabled rules receive no events and hold no detector state.
    pub enabled: bool,
    /// Firing counters (see [`stats`](Self::stats)).
    pub(crate) counts: RuleCounts,
    /// The rule's body-latency cell in the engine's telemetry, resolved
    /// by name at its first timed firing; `None` until then, and again
    /// after a rename.
    pub(crate) latency: Option<Arc<RuleLatency>>,
    /// The detector's primitive-event alphabet: the interned symbols that
    /// can advance it, closed over subclasses. `None` means unbounded
    /// (the expression contains `Plus`, whose deadline is signalled by
    /// any subsequent occurrence) — such rules are routed broadly.
    pub(crate) alphabet: Option<Vec<EventSym>>,
    /// Schema size the alphabet was computed against; a later `define`
    /// may add subclasses whose symbols belong in the alphabet.
    pub(crate) alphabet_schema_len: usize,
    /// Caps the rule's detector was compiled with.
    pub(crate) caps: DetectorCaps,
    /// The engine arena slot holding the rule's event detector (paper
    /// Figure 2) — shared with every rule whose detector would be
    /// indistinguishable from it.
    pub(crate) slot: usize,
    /// Resolved condition and action, cached: the engine's binding table
    /// takes them from here, so a table rebuild resolves only what
    /// changed. Bound when the rule is created or redefined; `None`
    /// while a body is unregistered (recovery).
    pub(crate) bound: Option<Arc<BoundBodies>>,
    /// Body-registry version `bound` was resolved at; re-registering a
    /// body bumps the registry version and forces a rebind at the next
    /// binding-table rebuild.
    pub(crate) bodies_version: u64,
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rule")
            .field("id", &self.id)
            .field("oid", &self.oid)
            .field("def", &self.def)
            .field("enabled", &self.enabled)
            .field("slot", &self.slot)
            .field("stats", &self.stats())
            .field("alphabet", &self.alphabet)
            .finish_non_exhaustive()
    }
}

impl Rule {
    /// Instantiate a rule, compiling its detector against the schema.
    /// The engine files the detector in its arena and points
    /// [`slot`](Self::slot) at it.
    pub fn instantiate(
        id: RuleId,
        oid: Oid,
        def: RuleDef,
        registry: &ClassRegistry,
        caps: DetectorCaps,
    ) -> Result<(Self, DetectorInstance)> {
        let detector = DetectorInstance::compile(&def.event, registry, def.context, caps)?;
        let name: Arc<str> = def.name.as_str().into();
        let alphabet = def.event.alphabet(registry);
        let rule = Rule {
            id,
            oid,
            def,
            name,
            enabled: true,
            counts: RuleCounts::default(),
            latency: None,
            alphabet,
            alphabet_schema_len: registry.len(),
            caps,
            slot: 0,
            bound: None,
            bodies_version: 0,
        };
        Ok((rule, detector))
    }

    /// The rule's firing counters.
    pub fn stats(&self) -> RuleStats {
        let c = self.counts;
        RuleStats {
            notifications: c.notifications,
            triggered: c.triggered,
            condition_evals: c.condition_evals,
            condition_true: c.actions_run,
            actions_run: c.actions_run,
        }
    }

    /// Bind the bodies the definition names, if they are registered;
    /// otherwise they bind, or fail, at the first firing.
    pub(crate) fn bind(&mut self, bodies: &RuleBodyRegistry) {
        self.bound = bodies.bind(&self.def.condition, &self.def.action).ok();
        self.bodies_version = bodies.version();
    }

    /// The bound bodies, rebound first if the registry changed since.
    pub(crate) fn bodies(&mut self, bodies: &RuleBodyRegistry) -> Result<Arc<BoundBodies>> {
        match &self.bound {
            Some(bound) if self.bodies_version == bodies.version() => Ok(Arc::clone(bound)),
            _ => {
                let bound = bodies.bind(&self.def.condition, &self.def.action)?;
                self.bound = Some(Arc::clone(&bound));
                self.bodies_version = bodies.version();
                Ok(bound)
            }
        }
    }

    /// Recompute the alphabet if classes were defined since it was last
    /// derived (a new subclass adds fresh symbols for inherited methods).
    pub(crate) fn refresh_alphabet(&mut self, registry: &ClassRegistry) {
        if self.alphabet_schema_len != registry.len() {
            self.alphabet = self.def.event.alphabet(registry);
            self.alphabet_schema_len = registry.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_events::PrimitiveEventSpec;
    use sentinel_object::ClassDecl;

    #[test]
    fn def_builder_defaults() {
        let e = EventExpr::primitive(PrimitiveEventSpec::end("C", "m"));
        let d = RuleDef::new("R", e.clone(), crate::body::ACTION_NOOP);
        assert_eq!(d.condition, crate::body::COND_TRUE);
        assert_eq!(d.coupling, CouplingMode::Immediate);
        assert_eq!(d.priority, 0);
        let d = d
            .condition("c1")
            .coupling(CouplingMode::Deferred)
            .priority(5)
            .context(ParamContext::Recent);
        assert_eq!(d.condition, "c1");
        assert_eq!(d.coupling, CouplingMode::Deferred);
        assert_eq!(d.priority, 5);
        assert_eq!(d.context, ParamContext::Recent);
    }

    #[test]
    fn def_serde_round_trip() {
        let e = EventExpr::primitive(PrimitiveEventSpec::end("C", "m"))
            .and(EventExpr::primitive(PrimitiveEventSpec::begin("C", "n")));
        let d = RuleDef::new("R", e, "act").priority(-3);
        let s = serde_json::to_string(&d).unwrap();
        assert_eq!(serde_json::from_str::<RuleDef>(&s).unwrap(), d);
    }

    #[test]
    fn instantiate_compiles_detector() {
        let mut reg = ClassRegistry::new();
        reg.define(ClassDecl::reactive("C").method("m", &[]))
            .unwrap();
        let def = RuleDef::new(
            "R",
            EventExpr::primitive(PrimitiveEventSpec::end("C", "m")),
            crate::body::ACTION_NOOP,
        );
        let (r, _) =
            Rule::instantiate(RuleId(1), Oid::NIL, def, &reg, DetectorCaps::default()).unwrap();
        assert!(r.enabled);
        assert_eq!(r.stats(), RuleStats::default());
        // Unknown class in the event is rejected at instantiation.
        let bad = RuleDef::new(
            "B",
            EventExpr::primitive(PrimitiveEventSpec::end("Nope", "m")),
            crate::body::ACTION_NOOP,
        );
        assert!(
            Rule::instantiate(RuleId(2), Oid::NIL, bad, &reg, DetectorCaps::default()).is_err()
        );
    }
}
