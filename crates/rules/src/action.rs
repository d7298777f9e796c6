//! `ActionDef` — the declarative action-registration surface.
//!
//! Historically an action and its declared side-effects were registered
//! through two calls (`register_action_with_effects`, or
//! `register_action` followed by `declare_action_effects`). That split
//! made it easy to register a body and forget the declaration, leaving
//! the analyzer — and now the parallel scheduler — with "effects
//! unknown". `ActionDef` folds both into one builder mirroring
//! [`RuleDef`](crate::rule::RuleDef):
//!
//! ```
//! use sentinel_rules::{ActionDef, RuleBodyRegistry};
//!
//! let credit = ActionDef::new("credit")
//!     .writes(("Account", "balance"))
//!     .raises(("Account", "Notify"))
//!     .body(|_w, _firing| Ok(()));
//!
//! let mut reg = RuleBodyRegistry::new();
//! reg.register_def(credit).unwrap();
//! assert!(reg.has_action("credit"));
//! assert!(reg.action_effects("credit").is_some());
//! ```
//!
//! The effects contract is what the parallel scheduler trusts: an action
//! whose definition declares writes and raises nothing is eligible for
//! conflict-grouped concurrent execution; an action registered with no
//! effects calls at all stays "unknown" and its rules run serially.

use crate::body::{ActionEffects, ActionFn, AttrPattern, EventPattern, Firing, RuleBodyRegistry};
use sentinel_object::{ObjectError, Result, World};
use std::sync::Arc;

/// Split a `"Class::member"` / `"Class.member"` shorthand into its two
/// halves. A string with no separator yields an empty member — such a
/// pattern matches nothing, which (like any wrong effects declaration)
/// is the author's contract to get right.
fn split_pattern(s: &str) -> (&str, &str) {
    if let Some((class, member)) = s.split_once("::") {
        (class, member)
    } else if let Some((class, member)) = s.split_once('.') {
        (class, member)
    } else {
        (s, "")
    }
}

impl From<(&str, &str)> for AttrPattern {
    fn from((class, attr): (&str, &str)) -> Self {
        AttrPattern::new(class, attr)
    }
}

impl From<&str> for AttrPattern {
    fn from(s: &str) -> Self {
        let (class, attr) = split_pattern(s);
        AttrPattern::new(class, attr)
    }
}

impl From<(&str, &str)> for EventPattern {
    fn from((class, method): (&str, &str)) -> Self {
        EventPattern::new(class, method)
    }
}

impl From<&str> for EventPattern {
    fn from(s: &str) -> Self {
        let (class, method) = split_pattern(s);
        EventPattern::new(class, method)
    }
}

/// A declarative action definition: name, declared side-effects, and
/// (optionally) the body closure, registered in one step.
///
/// Three effect states, mirroring the registry's contract:
///
/// * no effects call at all → effects **unknown** (analyzer is
///   conservative, scheduler runs the action's rules serially);
/// * [`pure`](Self::pure), or any [`writes`](Self::writes) /
///   [`reads`](Self::reads) / [`raises`](Self::raises) → effects
///   **declared** as exactly the accumulated patterns (an empty
///   declaration asserts "no effects").
///
/// A declared `ActionDef` states the firing's **complete data
/// footprint**: [`writes`](Self::writes) lists every attribute the
/// action may write (and read), [`reads`](Self::reads) lists every
/// *additional* attribute the action — or any rule condition paired
/// with it — may read. Omitting `reads` asserts the firing reads
/// nothing beyond its writes. The parallel scheduler trusts this
/// footprint to run independent firings concurrently, and its worker
/// shim verifies it at runtime: an access outside the declared
/// footprint (or to an object other than the firing's target) makes
/// the whole group fall back to serial re-execution.
///
/// A definition without a [`body`](Self::body) re-declares the effects
/// of an action already registered under the same name — the successor
/// of `declare_action_effects`.
#[derive(Clone)]
pub struct ActionDef {
    name: String,
    effects: Option<ActionEffects>,
    body: Option<ActionFn>,
}

impl std::fmt::Debug for ActionDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActionDef")
            .field("name", &self.name)
            .field("effects", &self.effects)
            .field("has_body", &self.body.is_some())
            .finish()
    }
}

impl ActionDef {
    /// Start a definition for the action registered under `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ActionDef {
            name: name.into(),
            effects: None,
            body: None,
        }
    }

    /// The action's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declare an attribute the action may write. Accepts an
    /// [`AttrPattern`], a `("Class", "attr")` pair, or a `"Class.attr"`
    /// string.
    pub fn writes(mut self, pattern: impl Into<AttrPattern>) -> Self {
        self.effects
            .get_or_insert_with(ActionEffects::none)
            .writes
            .push(pattern.into());
        self
    }

    /// Declare an attribute the firing reads but does not write
    /// (declared writes are implicitly readable, so read-modify-write
    /// attributes need only a [`writes`](Self::writes) entry). The
    /// declaration covers the rule's *condition* as well as the action
    /// body. Accepts the same pattern forms as [`writes`](Self::writes).
    pub fn reads(mut self, pattern: impl Into<AttrPattern>) -> Self {
        self.effects
            .get_or_insert_with(ActionEffects::none)
            .reads
            .get_or_insert_with(Vec::new)
            .push(pattern.into());
        self
    }

    /// Declare an event the action may cause to be raised. Accepts an
    /// [`EventPattern`], a `("Class", "method")` pair, or a
    /// `"Class.method"` string.
    pub fn raises(mut self, pattern: impl Into<EventPattern>) -> Self {
        self.effects
            .get_or_insert_with(ActionEffects::none)
            .raises
            .push(pattern.into());
        self
    }

    /// Assert the action raises no events, writes no attributes, and
    /// reads no attributes (a pure observer of firing parameters).
    /// Equivalent to declaring empty [`ActionEffects`]; without this
    /// (or any `writes`/`reads`/`raises`) the effects stay *unknown*.
    pub fn pure(mut self) -> Self {
        self.effects.get_or_insert_with(ActionEffects::none);
        self
    }

    /// Attach the body closure.
    pub fn body<F>(mut self, f: F) -> Self
    where
        F: Fn(&mut dyn World, &Firing<'_>) -> Result<()> + Send + Sync + 'static,
    {
        self.body = Some(Arc::new(f));
        self
    }

    /// The declared effects, if any (`None` = unknown).
    pub fn declared_effects(&self) -> Option<&ActionEffects> {
        self.effects.as_ref()
    }

    /// Does the definition carry a body closure?
    pub fn has_body(&self) -> bool {
        self.body.is_some()
    }

    /// Consume the definition into its parts.
    pub(crate) fn into_parts(self) -> (String, Option<ActionEffects>, Option<ActionFn>) {
        (self.name, self.effects, self.body)
    }
}

impl RuleBodyRegistry {
    /// Register an [`ActionDef`]: body plus effects in one step.
    ///
    /// * With a body: registers (or replaces) the action, with effects
    ///   declared if the definition carries any, unknown otherwise.
    /// * Without a body: re-declares the effects of an
    ///   already-registered action; errors with
    ///   [`ObjectError::BodyNotRegistered`] if no body exists under the
    ///   name, and with [`ObjectError::Unsupported`] if the definition
    ///   has neither body nor effects (it would do nothing).
    pub fn register_def(&mut self, def: ActionDef) -> Result<()> {
        let (name, effects, body) = def.into_parts();
        match (body, effects) {
            (Some(body), effects) => {
                self.install_action(name, effects, body);
                Ok(())
            }
            (None, Some(effects)) => self.declare_effects_internal(name, effects),
            (None, None) => Err(ObjectError::Unsupported(format!(
                "ActionDef `{name}` has neither a body nor declared effects"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_with_body_and_effects_registers_both() {
        let mut reg = RuleBodyRegistry::new();
        reg.register_def(
            ActionDef::new("credit")
                .writes(("Account", "balance"))
                .raises("Account::Notify")
                .body(|_, _| Ok(())),
        )
        .unwrap();
        assert!(reg.has_action("credit"));
        let fx = reg.action_effects("credit").unwrap();
        assert_eq!(fx.writes, vec![AttrPattern::new("Account", "balance")]);
        assert_eq!(fx.raises, vec![EventPattern::new("Account", "Notify")]);
    }

    #[test]
    fn def_without_effects_is_unknown() {
        let mut reg = RuleBodyRegistry::new();
        reg.register_def(ActionDef::new("opaque").body(|_, _| Ok(())))
            .unwrap();
        assert!(reg.has_action("opaque"));
        assert_eq!(reg.action_effects("opaque"), None);
    }

    #[test]
    fn pure_declares_empty_effects() {
        let mut reg = RuleBodyRegistry::new();
        reg.register_def(ActionDef::new("watch").pure().body(|_, _| Ok(())))
            .unwrap();
        assert_eq!(reg.action_effects("watch"), Some(&ActionEffects::none()));
    }

    #[test]
    fn bodyless_def_redeclares_existing_action() {
        let mut reg = RuleBodyRegistry::new();
        reg.register_action("mutate", |_, _| Ok(()));
        assert_eq!(reg.action_effects("mutate"), None);
        reg.register_def(ActionDef::new("mutate").writes("Account.balance"))
            .unwrap();
        assert_eq!(
            reg.action_effects("mutate").unwrap().writes,
            vec![AttrPattern::new("Account", "balance")]
        );
    }

    #[test]
    fn bodyless_def_for_missing_action_errors() {
        let mut reg = RuleBodyRegistry::new();
        assert!(matches!(
            reg.register_def(ActionDef::new("ghost").pure()),
            Err(ObjectError::BodyNotRegistered { kind: "action", .. })
        ));
    }

    #[test]
    fn empty_def_is_rejected() {
        let mut reg = RuleBodyRegistry::new();
        assert!(matches!(
            reg.register_def(ActionDef::new("nothing")),
            Err(ObjectError::Unsupported(_))
        ));
    }

    #[test]
    fn string_patterns_split_on_double_colon_and_dot() {
        assert_eq!(
            AttrPattern::from("Account.balance"),
            AttrPattern::new("Account", "balance")
        );
        assert_eq!(
            EventPattern::from("Account::Withdraw"),
            EventPattern::new("Account", "Withdraw")
        );
        // No separator: empty member, matches nothing.
        assert_eq!(
            AttrPattern::from("Account"),
            AttrPattern::new("Account", "")
        );
    }
}
