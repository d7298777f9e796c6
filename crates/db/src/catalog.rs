//! The event/rule catalog and its persistence forms.
//!
//! Events and rules are first-class objects, and the object store is the
//! catalog: an `Event` object's `name`/`expr` slots *are* the event, and
//! a `Rule` object's `enabled` and `subscriptions` slots *are* the
//! rule's flag and its Figure 4 consumer relation. Those slots change
//! through the ordinary slot-write path, so ordinary undo, redo, and
//! snapshots cover them; the engine's flags and subscription sets are a
//! cache rebuilt from the slots by [`Database::sync_rule`].
//!
//! Only rule *definitions* (event expression, coupling, bodies' names)
//! still travel beside the store, as [`MetaOp`] records in the WAL and
//! [`CatalogSnapshot::rules`] in snapshots. Bodies (conditions, actions,
//! method implementations) are code and are re-registered by the
//! application after recovery, keyed by name — the same contract a
//! recompiled C++ application had with Zeitgeist.

use crate::database::{meta, Database, Target};
use sentinel_events::{DetectorState, EventExpr, ParamContext};
use sentinel_object::{ObjectError, Oid, Result, Value};
use sentinel_rules::{Firing, RuleDef, RuleStats};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// A rule definition bound to its rule object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleRecord {
    /// The rule object's identity in the store.
    pub oid: Oid,
    /// The serializable rule definition (Figure 7's attributes).
    pub def: RuleDef,
}

/// Rule-definition changes, logged as WAL `Meta` records (tag
/// `"catalog"`) so recovery can rebuild the engine's rules created or
/// deleted after the last snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(missing_docs)] // field names are self-describing records
pub enum MetaOp {
    /// A rule object was created.
    AddRule(RuleRecord),
    /// A rule object was deleted.
    RemoveRule { name: String },
}

/// Rule definitions and detector state embedded in a snapshot's `extra`
/// payload (everything else is in the snapshot's objects).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CatalogSnapshot {
    /// Every rule definition.
    pub rules: Vec<RuleRecord>,
    /// Partial composite-detection state per rule name, captured at
    /// checkpoint so a half-detected sequence/window survives a restart.
    /// Rules with nothing buffered are omitted.
    pub detector_state: Vec<(String, DetectorState)>,
    /// The temporal-axis instant at checkpoint: recovery under
    /// `TimeMode::Virtual` resumes the virtual clock here instead of
    /// at 0.
    pub instant: u64,
}

/// In-memory inverse of a rule-definition change, replayed (in reverse)
/// when the surrounding transaction aborts. The rule object itself is
/// restored by the store's undo; this restores the engine's definition.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // field names are self-describing records
pub enum CatalogUndo {
    /// Undo an `add_rule`: remove the rule from the engine.
    RuleAdded { name: String },
    /// Undo a `remove_rule`: re-create the rule from its definition.
    RuleRemoved { record: Box<RuleRecord> },
}

impl Database {
    // ------------------------------------------------------------------
    // First-class events
    // ------------------------------------------------------------------

    /// Create a named first-class event object from an expression. The
    /// object is an instance of the matching `Event` subclass
    /// (Figure 5) and is persisted like any other object.
    pub fn define_event(&mut self, name: &str, expr: EventExpr) -> Result<Oid> {
        if self.find_event(name).is_some() {
            return Err(ObjectError::App(format!("event `{name}` already defined")));
        }
        // Validate the expression against the schema now.
        sentinel_events::DetectorInstance::compile_default(&expr, &self.registry)?;
        let subclass = match &expr {
            EventExpr::Primitive(_) => meta::EVENT_PRIMITIVE,
            EventExpr::And(..) => meta::EVENT_CONJUNCTION,
            EventExpr::Or(..) => meta::EVENT_DISJUNCTION,
            EventExpr::Seq(..) => meta::EVENT_SEQUENCE,
            _ => meta::EVENT,
        };
        let class = self.registry.id_of(subclass)?;
        let expr_json = serde_json::to_string(&expr)
            .map_err(|e| ObjectError::Storage(format!("serialize event expr: {e}")))?;
        let name = name.to_string();
        self.with_auto_txn(move |db| {
            let oid = db.create_internal(class)?;
            db.set_attr_internal(oid, "name", Value::Str(name))?;
            db.set_attr_internal(oid, "expr", Value::Str(expr_json))?;
            Ok(oid)
        })
    }

    /// The expression of a named event object, parsed from its `expr`
    /// slot.
    pub fn event_expr(&self, name: &str) -> Result<EventExpr> {
        let oid = self.event_oid(name)?;
        let json = self.store.get_attr(&self.registry, oid, "expr")?;
        serde_json::from_str(json.as_str()?)
            .map_err(|e| ObjectError::Storage(format!("parse event expr of `{name}`: {e}")))
    }

    /// The store oid of a named event object.
    pub fn event_oid(&self, name: &str) -> Result<Oid> {
        self.find_event(name)
            .ok_or_else(|| ObjectError::UnknownEvent(name.to_string()))
    }

    /// Scan the `Event` extent for the object named `name`. Event lookup
    /// happens only at definition time, so a scan beats keeping an index
    /// that transactions would have to undo.
    fn find_event(&self, name: &str) -> Option<Oid> {
        self.store
            .extent(&self.registry, self.event_class)
            .into_iter()
            .find(|&oid| {
                matches!(self.store.get_attr(&self.registry, oid, "name"),
                         Ok(Value::Str(n)) if n == name)
            })
    }

    // ------------------------------------------------------------------
    // First-class rules
    // ------------------------------------------------------------------

    /// Create a rule object. Its condition/action bodies must already be
    /// registered. Returns the rule object's oid.
    pub fn add_rule(&mut self, def: impl Into<RuleDef>) -> Result<Oid> {
        let mut def = def.into();
        if def.context == ParamContext::default() {
            def.context = self.config.default_context;
        }
        let rule_class = self.rule_class;
        self.with_auto_txn(move |db| {
            let oid = db.create_internal(rule_class)?;
            db.set_attr_internal(oid, "name", Value::Str(def.name.clone()))?;
            db.set_attr_internal(oid, "coupling", Value::Str(def.coupling.name().into()))?;
            db.set_attr_internal(oid, "priority", Value::Int(def.priority as i64))?;
            db.engine.add_rule(def.clone(), oid, &db.registry)?;
            db.catalog_undo.push(CatalogUndo::RuleAdded {
                name: def.name.clone(),
            });
            db.log_meta(MetaOp::AddRule(RuleRecord { oid, def }))?;
            Ok(oid)
        })
    }

    /// Declare a class-level rule (paper Figure 9): the rule is created
    /// and subscribed to the whole class, so it applies to every present
    /// and future instance (and instances of subclasses).
    pub fn add_class_rule(&mut self, class: &str, def: impl Into<RuleDef>) -> Result<Oid> {
        let def = def.into();
        let name = def.name.clone();
        let oid = self.add_rule(def)?;
        self.subscribe(class, &name)?;
        Ok(oid)
    }

    /// Delete a rule and its rule object.
    pub fn remove_rule(&mut self, name: &str) -> Result<()> {
        let id = self.engine.id_of(name)?;
        let oid = self.engine.rule(id)?.oid;
        let name = name.to_string();
        self.with_auto_txn(move |db| {
            let def = db.engine.remove_rule(id)?;
            db.delete_internal(oid)?;
            db.catalog_undo.push(CatalogUndo::RuleRemoved {
                record: Box::new(RuleRecord { oid, def }),
            });
            db.log_meta(MetaOp::RemoveRule { name })
        })
    }

    /// Enable a rule by name: a write of its `enabled` slot. Sending
    /// `Enable` to the rule object does the same and additionally
    /// generates the rule's own events.
    pub fn enable_rule(&mut self, name: &str) -> Result<()> {
        let oid = self.rule_oid(name)?;
        self.set_attr(oid, "enabled", Value::Bool(true))
    }

    /// Disable a rule by name: it stops receiving events and its partial
    /// detector state is discarded.
    pub fn disable_rule(&mut self, name: &str) -> Result<()> {
        let oid = self.rule_oid(name)?;
        self.set_attr(oid, "enabled", Value::Bool(false))
    }

    /// Reconcile the engine's cached view of one rule — its enabled flag
    /// and its subscription edges — with the rule object's `enabled` and
    /// `subscriptions` slots. Called after every slot write to a `Rule`
    /// object, for each rule object a rolled-back transaction wrote, and
    /// for every rule object at recovery. A no-op for an object with no
    /// engine rule behind it (a rule mid-creation or already removed).
    pub(crate) fn sync_rule(&mut self, oid: Oid) -> Result<()> {
        let Some(id) = self.engine.id_of_oid(oid) else {
            return Ok(());
        };
        let enabled = self
            .store
            .get_attr(&self.registry, oid, "enabled")?
            .as_bool()?;
        if self.engine.rule(id)?.enabled != enabled {
            if enabled {
                self.engine.enable(id)?;
            } else {
                self.engine.disable(id)?;
            }
        }
        let targets = self.store.get_attr(&self.registry, oid, "subscriptions")?;
        let mut objects = Vec::new();
        let mut classes = Vec::new();
        for t in targets.as_list()? {
            match t {
                Value::Oid(o) => objects.push(*o),
                Value::Str(c) => classes.push(self.registry.id_of(c)?),
                other => {
                    return Err(ObjectError::App(format!(
                        "rule object {oid}: subscription target must be an oid or a \
                         class name, not `{other}`"
                    )))
                }
            }
        }
        let subs = &mut self.engine.subscriptions;
        let wanted: HashSet<Oid> = objects.iter().copied().collect();
        for o in subs.objects_of(id) {
            if !wanted.contains(&o) {
                subs.unsubscribe_object(o, id);
            }
        }
        for c in subs.classes_of(id) {
            if !classes.contains(&c) {
                subs.unsubscribe_class(c, id);
            }
        }
        // Subscribing is idempotent; walking the slot in order keeps the
        // consumer lists in subscription order.
        for o in objects {
            subs.subscribe_object(o, id);
        }
        for c in classes {
            subs.subscribe_class(c, id);
        }
        Ok(())
    }

    /// The rule object's oid (so other rules can subscribe to it).
    pub fn rule_oid(&self, name: &str) -> Result<Oid> {
        let id = self.engine.id_of(name)?;
        Ok(self.engine.rule(id)?.oid)
    }

    /// Is the rule currently enabled?
    pub fn rule_enabled(&self, name: &str) -> Result<bool> {
        let id = self.engine.id_of(name)?;
        Ok(self.engine.rule(id)?.enabled)
    }

    /// Per-rule counters.
    pub fn rule_stats(&self, name: &str) -> Result<RuleStats> {
        let id = self.engine.id_of(name)?;
        Ok(self.engine.rule(id)?.stats)
    }

    /// Occurrences buffered by a rule's detector (experiment E12).
    pub fn rule_detector_buffered(&self, name: &str) -> Result<usize> {
        let id = self.engine.id_of(name)?;
        Ok(self.engine.detector_of(id)?.buffered())
    }

    /// Live event detectors: rules whose detectors would be
    /// indistinguishable share one, so this is at most the rule count.
    pub fn detector_count(&self) -> usize {
        self.engine.detector_count()
    }

    /// Names of all rules.
    pub fn rule_names(&self) -> Vec<String> {
        self.engine
            .iter_rules()
            .map(|r| r.def.name.clone())
            .collect()
    }

    // ------------------------------------------------------------------
    // Subscriptions: the rule object's `subscriptions` slot
    // ------------------------------------------------------------------

    /// Connect a rule to a [`Target`] — one reactive object or a whole
    /// reactive class. `Oid` and `&str` convert into [`Target`], so
    /// `db.subscribe(oid, "R")` and `db.subscribe("Class", "R")` both
    /// read naturally. The edge is an entry in the rule object's
    /// `subscriptions` slot (an oid or a class name), so it commits,
    /// aborts, and recovers with that slot.
    pub fn subscribe<'a>(&mut self, target: impl Into<Target<'a>>, rule: &str) -> Result<()> {
        let target = target.into();
        let (class, entry) = match target {
            Target::Object(object) => (self.store.class_of(object)?, Value::Oid(object)),
            Target::Class(class) => (self.registry.id_of(class)?, Value::Str(class.into())),
        };
        let def = self.registry.get(class);
        if def.reactivity != sentinel_object::Reactivity::Reactive {
            return Err(ObjectError::App(match target {
                Target::Object(object) => format!(
                    "object {object} is of passive class `{}` and generates no events",
                    def.name
                ),
                Target::Class(class) => {
                    format!("class `{class}` is passive and generates no events")
                }
            }));
        }
        let oid = self.rule_oid(rule)?;
        self.with_auto_txn(|db| {
            db.edit_subscriptions(oid, |list| {
                if !list.contains(&entry) {
                    list.push(entry);
                }
            })
        })
    }

    /// Reverse of [`subscribe`](Self::subscribe), for either target kind.
    pub fn unsubscribe<'a>(&mut self, target: impl Into<Target<'a>>, rule: &str) -> Result<()> {
        let entry = match target.into() {
            Target::Object(object) => Value::Oid(object),
            Target::Class(class) => {
                self.registry.id_of(class)?;
                Value::Str(class.into())
            }
        };
        let oid = self.rule_oid(rule)?;
        self.with_auto_txn(|db| db.edit_subscriptions(oid, |list| list.retain(|t| *t != entry)))
    }

    /// Rewrite a rule object's `subscriptions` slot through the ordinary
    /// write path (which re-syncs the engine); skips the write when the
    /// edit changes nothing.
    pub(crate) fn edit_subscriptions(
        &mut self,
        rule_oid: Oid,
        edit: impl FnOnce(&mut Vec<Value>),
    ) -> Result<()> {
        let Value::List(mut list) =
            self.store
                .get_attr(&self.registry, rule_oid, "subscriptions")?
        else {
            return Err(ObjectError::App(format!(
                "rule object {rule_oid} has no subscription list"
            )));
        };
        let before = list.len();
        edit(&mut list);
        if list.len() == before {
            // Both edits only add or only remove, so an unchanged
            // length is an unchanged list.
            return Ok(());
        }
        self.set_attr_internal(rule_oid, "subscriptions", Value::List(list))
    }

    /// Convenience: install an *observer* — a notifiable consumer that
    /// runs a callback on every detection of `expr`, with no condition
    /// and no effect on the database unless the callback makes one. An
    /// observer is exactly a rule whose action is the callback (the
    /// paper's point that rules are just one kind of notifiable object);
    /// connect it with [`subscribe`](Database::subscribe) at object or
    /// class granularity like any rule.
    pub fn observe<F>(&mut self, name: &str, expr: EventExpr, callback: F) -> Result<Oid>
    where
        F: Fn(&Firing) + Send + Sync + 'static,
    {
        let action_name = format!("__observer::{name}");
        // The callback only sees the firing, never the world, so the
        // empty effects declaration is sound — and keeps observers from
        // showing up as unknown-effects in `analyze`.
        self.register(sentinel_rules::ActionDef::new(&action_name).pure().body(
            move |_w, firing| {
                callback(firing);
                Ok(())
            },
        ))?;
        self.add_rule(RuleDef::new(name, expr, action_name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_events::PrimitiveEventSpec;

    fn record(oid: u64) -> RuleRecord {
        RuleRecord {
            oid: Oid(oid),
            def: RuleDef::new(
                "r",
                EventExpr::primitive(PrimitiveEventSpec::begin("C", "m")),
                "noop",
            ),
        }
    }

    #[test]
    fn meta_op_serde_round_trip() {
        for op in [
            MetaOp::AddRule(record(4)),
            MetaOp::RemoveRule { name: "r".into() },
        ] {
            let s = serde_json::to_string(&op).unwrap();
            assert_eq!(serde_json::from_str::<MetaOp>(&s).unwrap(), op);
        }
    }

    #[test]
    fn catalog_snapshot_serde() {
        let snap = CatalogSnapshot {
            rules: vec![record(9)],
            detector_state: vec![],
            instant: 42,
        };
        let s = serde_json::to_string(&snap).unwrap();
        assert_eq!(serde_json::from_str::<CatalogSnapshot>(&s).unwrap(), snap);
    }
}
