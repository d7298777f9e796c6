//! The event/rule catalog and its persistence forms.
//!
//! Events and rules are first-class objects, and the object store is the
//! catalog. An `Event` object's `name`/`expr` slots *are* the event. A
//! `Rule` object's slots *are* the rule (Figure 7): `name`, `event` (the
//! expression as JSON text, like an event's `expr`), `condition`,
//! `action`, `coupling`, `priority`, `context`, `enabled`, and
//! `subscriptions`, the rule's Figure 4 consumer relation. Creating,
//! deleting and updating a rule are creating, deleting and writing its
//! object, so ordinary undo, redo and snapshots cover them. The engine's
//! rules are a cache rebuilt from the slots by [`Database::sync_rule`].
//! Bodies (conditions, actions, method implementations) are code and
//! are re-registered by the application after recovery, keyed by name —
//! the same contract a recompiled C++ application had with Zeitgeist.

use crate::database::{meta, Database, Target};
use sentinel_events::{DetectorState, EventExpr, ParamContext};
use sentinel_object::{FastSet, ObjectError, ObjectState, Oid, Result, Value};
use sentinel_rules::{CouplingMode, Firing, RuleDef, RuleId, RuleStats};
use serde::{Deserialize, Serialize};

/// Detector state embedded in a snapshot's `extra` payload (everything
/// else, rule definitions included, is in the snapshot's objects).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CatalogSnapshot {
    /// Partial composite-detection state per rule name, captured at
    /// checkpoint so a half-detected sequence/window survives a restart.
    /// Rules with nothing buffered are omitted.
    pub detector_state: Vec<(String, DetectorState)>,
    /// The temporal-axis instant at checkpoint: recovery under
    /// `TimeMode::Virtual` resumes the virtual clock here instead of
    /// at 0.
    pub instant: u64,
}

/// The variant of `all` whose display name is `text`.
fn by_name<T: Copy>(all: &[T], name: fn(T) -> &'static str, text: &str) -> Result<T> {
    let found = all.iter().copied().find(|&v| name(v) == text);
    found.ok_or_else(|| ObjectError::App(format!("rule slot: unknown value `{text}`")))
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
        self.create_rule(def.into(), Vec::new())
    }

    /// Declare a class-level rule (paper Figure 9): the rule is created
    /// subscribed to the whole class, so it applies to every present and
    /// future instance (and instances of subclasses).
    pub fn add_class_rule(&mut self, class: &str, def: impl Into<RuleDef>) -> Result<Oid> {
        let entry = self.subscription_entry(Target::Class(class))?;
        self.create_rule(def.into(), vec![entry])
    }

    /// Create a rule object with every slot written, then instantiate its
    /// engine rule once.
    fn create_rule(&mut self, mut def: RuleDef, subscriptions: Vec<Value>) -> Result<Oid> {
        if def.context == ParamContext::default() {
            def.context = self.config.default_context;
        }
        let event = serde_json::to_string(&def.event)
            .map_err(|e| ObjectError::Storage(format!("serialize rule event: {e}")))?;
        let class = self.registry.get(self.rule_class);
        let mut state = ObjectState::new(class);
        for (attr, value) in [
            ("name", Value::Str(def.name.clone())),
            ("event", Value::Str(event)),
            ("condition", Value::Str(def.condition.clone())),
            ("action", Value::Str(def.action.clone())),
            ("coupling", Value::Str(def.coupling.name().into())),
            ("priority", Value::Int(def.priority.into())),
            ("context", Value::Str(def.context.name().into())),
            ("subscriptions", Value::List(subscriptions)),
        ] {
            state.set_slot(class, class.slot_of(attr).expect("Rule slot"), value)?;
        }
        self.with_auto_txn(move |db| {
            // The engine vets the definition before the object exists,
            // so a rejected rule leaves nothing behind.
            let oid = db.store.allocate_oid();
            let id = db.engine.add_rule(def, oid, &db.registry)?;
            db.txn_rules.push(oid);
            db.insert_internal(oid, state)?;
            db.sync_rule_flags(id, oid)?;
            Ok(oid)
        })
    }

    /// Delete a rule: delete its rule object.
    pub fn remove_rule(&mut self, name: &str) -> Result<()> {
        let oid = self.rule_oid(name)?;
        self.with_auto_txn(move |db| db.delete_internal(oid))
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

    /// Reconcile the engine's rule behind rule object `oid` with the
    /// object's slots: remove it when the object is gone, instantiate it
    /// when the engine has none, redefine it in place when a definition
    /// slot differs (a new event or context also gets a fresh detector,
    /// see [`RuleEngine::redefine`](sentinel_rules::RuleEngine::redefine)),
    /// then bring its flag and subscription edges in line. Bodies are
    /// not checked here: recovery runs before the application registers
    /// them. A definition
    /// the engine rejects (a taken name, an event over an unknown class)
    /// is an error.
    /// Called after every write or delete of a `Rule` object, for each
    /// rule object a rolled-back transaction touched, and for every rule
    /// object at recovery.
    pub(crate) fn sync_rule(&mut self, oid: Oid) -> Result<()> {
        let current = self.engine.id_of_oid(oid);
        if !self.store.exists(oid) {
            if let Some(id) = current {
                self.engine.remove_rule(id)?;
            }
            return Ok(());
        }
        let def = self.rule_def(oid)?;
        let id = match current {
            None => self.engine.add_rule_unchecked(def, oid, &self.registry)?,
            Some(id) => {
                if self.engine.rule(id)?.def != def {
                    self.engine.redefine(id, def, &self.registry)?;
                }
                id
            }
        };
        self.sync_rule_flags(id, oid)
    }

    /// The definition held by rule object `oid`'s slots.
    fn rule_def(&self, oid: Oid) -> Result<RuleDef> {
        let slot = |attr| self.store.get_attr(&self.registry, oid, attr);
        let text = |attr| -> Result<String> { Ok(slot(attr)?.as_str()?.to_owned()) };
        let bad = |what: String| ObjectError::App(format!("rule object {oid}: {what}"));
        let priority = slot("priority")?.as_int()?;
        Ok(RuleDef {
            name: text("name")?,
            event: serde_json::from_str(&text("event")?).map_err(|e| bad(e.to_string()))?,
            condition: text("condition")?,
            action: text("action")?,
            coupling: by_name(&CouplingMode::ALL, CouplingMode::name, &text("coupling")?)?,
            priority: i32::try_from(priority).map_err(|e| bad(e.to_string()))?,
            context: by_name(&ParamContext::ALL, ParamContext::name, &text("context")?)?,
        })
    }

    /// Bring rule `id`'s enabled flag and subscription edges in line
    /// with rule object `oid`'s `enabled` and `subscriptions` slots.
    pub(crate) fn sync_rule_flags(&mut self, id: RuleId, oid: Oid) -> Result<()> {
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
        let mut objects = FastSet::default();
        let mut classes = FastSet::default();
        for t in targets.as_list()? {
            match t {
                Value::Oid(o) => {
                    objects.insert(*o);
                }
                Value::Str(c) => {
                    classes.insert(self.registry.id_of(c)?);
                }
                other => {
                    return Err(ObjectError::App(format!(
                        "rule object {oid}: subscription target must be an oid or a \
                         class name, not `{other}`"
                    )))
                }
            }
        }
        // Apply the difference: drop the edges the slot lost, and add
        // the rest — subscribing an existing edge changes nothing.
        let subs = &mut self.engine.subscriptions;
        for o in subs.objects_of(id) {
            if !objects.contains(&o) {
                subs.unsubscribe_object(o, id);
            }
        }
        for c in subs.classes_of(id) {
            if !classes.contains(&c) {
                subs.unsubscribe_class(c, id);
            }
        }
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
        Ok(self.engine.rule(id)?.stats())
    }

    /// Occurrences buffered by a rule's detector.
    pub fn rule_detector_buffered(&self, name: &str) -> Result<usize> {
        let id = self.engine.id_of(name)?;
        Ok(self.engine.detector_of(id)?.buffered())
    }

    /// Live event detectors: rules whose detectors would be
    /// indistinguishable share one, so this is at most the rule count.
    pub fn detector_count(&self) -> usize {
        self.engine.detector_count()
    }

    /// Names of all rules, in creation (rule-object oid) order.
    pub fn rule_names(&self) -> Vec<String> {
        let mut rules: Vec<_> = self.engine.iter_rules().collect();
        rules.sort_unstable_by_key(|r| r.oid);
        rules.into_iter().map(|r| r.def.name.clone()).collect()
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
        let entry = self.subscription_entry(target.into())?;
        let oid = self.rule_oid(rule)?;
        self.with_auto_txn(|db| {
            db.edit_subscriptions(oid, |list| {
                if !list.contains(&entry) {
                    list.push(entry);
                }
            })
        })
    }

    /// The `subscriptions` slot entry for `target`, which must be a
    /// reactive object or class.
    fn subscription_entry(&self, target: Target<'_>) -> Result<Value> {
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
        Ok(entry)
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

    #[test]
    fn catalog_snapshot_serde() {
        let snap = CatalogSnapshot {
            detector_state: vec![],
            instant: 42,
        };
        let s = serde_json::to_string(&snap).unwrap();
        assert_eq!(serde_json::from_str::<CatalogSnapshot>(&s).unwrap(), snap);
    }

    /// A `subscriptions` write touches only the edges it changes, and an
    /// `enabled` write touches none.
    #[test]
    fn slot_writes_apply_only_the_edge_difference() {
        use sentinel_object::ClassDecl;
        let mut db = Database::with_config(crate::DbConfig::in_memory()).unwrap();
        db.define_class(ClassDecl::reactive("X").method("Ping", &[]))
            .unwrap();
        let expr = crate::dsl::event("end X::Ping()").unwrap();
        let rule = db
            .add_rule(RuleDef::new("R", expr, sentinel_rules::ACTION_NOOP))
            .unwrap();
        let generation = |db: &Database| db.engine.subscriptions.generation();
        for _ in 0..8 {
            let object = db.create("X").unwrap();
            let before = generation(&db);
            db.subscribe(object, "R").unwrap();
            assert_eq!(generation(&db), before + 1);
        }
        for enabled in [false, true] {
            let before = generation(&db);
            db.set_attr(rule, "enabled", Value::Bool(enabled)).unwrap();
            assert_eq!(generation(&db), before);
        }
        let id = db.engine.id_of("R").unwrap();
        assert_eq!(db.engine.subscriptions.object_subscription_count(id), 8);
    }
}
