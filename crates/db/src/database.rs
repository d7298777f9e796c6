//! The [`Database`]: Sentinel's public face.
//!
//! This module holds the handle itself — construction, schema and code
//! registration, object access, and the reactive dispatch path. The
//! transaction/commit machinery lives in [`crate::commit`], rollback in
//! [`crate::undo`], the first-class event/rule catalog operations and
//! subscriptions in [`crate::catalog`], and attribute indexes in
//! [`crate::index`]; all of them extend `Database` with further `impl`
//! blocks.

use crate::commit::CommitPipeline;
use crate::config::DbConfig;
use crate::index::AttrIndex;
use crate::stats::{DbStats, FullStats};
use parking_lot::RwLock;
use sentinel_analyze::{diff_effects, AnalysisReport, ObservedEffects, RuleAnalyzer};
use sentinel_events::{EventModifier, PrimitiveOccurrence, TimeMode, TimeSource};
use sentinel_object::{
    ClassDecl, ClassId, ClassRegistry, EventSpec, MethodTable, ObjectError, ObjectState,
    ObjectStore, Oid, Reactivity, Result, TypeTag, Value, World,
};
use sentinel_rules::{ActionDef, EngineStats, Firing, FiringBatch, Lineage, RuleEngine};
use sentinel_storage::{LogRecord, UndoOp, Wal};
use sentinel_telemetry::{Fact, FiringRecord, Stage, Telemetry};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Names of the bootstrap meta-classes (paper Figure 3).
pub mod meta {
    /// Zeitgeist's persistence root.
    pub const ZG_POS: &str = "zg-pos";
    /// Consumers of events.
    pub const NOTIFIABLE: &str = "Notifiable";
    /// Producers of events.
    pub const REACTIVE: &str = "Reactive";
    /// First-class event objects.
    pub const EVENT: &str = "Event";
    /// Primitive-event subclass (Figure 5).
    pub const EVENT_PRIMITIVE: &str = "Primitive";
    /// Conjunction subclass (Figure 6).
    pub const EVENT_CONJUNCTION: &str = "Conjunction";
    /// Disjunction subclass.
    pub const EVENT_DISJUNCTION: &str = "Disjunction";
    /// Sequence subclass.
    pub const EVENT_SEQUENCE: &str = "Sequence";
    /// First-class rule objects.
    pub const RULE: &str = "Rule";
}

/// What a rule subscribes to: one reactive object (instance-level
/// monitoring, paper Figure 10) or every instance of a reactive class,
/// present and future (class-level monitoring, Figure 9).
///
/// `Oid` and `&str` convert into a `Target`, so most call sites never
/// name the enum: `db.subscribe(oid, "R")`, `db.subscribe("Class", "R")`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target<'a> {
    /// One reactive object.
    Object(Oid),
    /// All instances of a reactive class, present and future.
    Class(&'a str),
}

impl From<Oid> for Target<'static> {
    fn from(oid: Oid) -> Self {
        Target::Object(oid)
    }
}

impl<'a> From<&'a str> for Target<'a> {
    fn from(class: &'a str) -> Self {
        Target::Class(class)
    }
}

/// The Sentinel database: schema + objects + events + rules +
/// transactions, behind one handle.
pub struct Database {
    pub(crate) registry: ClassRegistry,
    /// Copy of the schema published for concurrent reader sessions,
    /// refreshed after every DDL (`define_class`). Readers never touch
    /// the owned `registry`, which stays `&self`-borrowable for the
    /// ~everything that already depends on `World::registry()`.
    pub(crate) published_registry: Arc<RwLock<ClassRegistry>>,
    pub(crate) store: Arc<ObjectStore>,
    pub(crate) methods: MethodTable,
    pub(crate) clock: Arc<TimeSource>,
    pub(crate) engine: RuleEngine,
    /// The layered write path: transaction manager, WAL, and the active
    /// transaction's staged write batch (see [`crate::commit`]).
    pub(crate) pipeline: CommitPipeline,
    pub(crate) config: DbConfig,
    pub(crate) depth: usize,
    /// Logical-clock value when the active transaction began; abort
    /// prunes detector state newer than this.
    pub(crate) txn_start_clock: u64,
    /// Run detached firings inline at commit (default); `false` defers
    /// them to an external executor.
    pub(crate) inline_detached: bool,
    pub(crate) indexes: Arc<RwLock<Vec<AttrIndex>>>,
    /// Cached `!indexes.is_empty()`, so the hot write path can skip the
    /// index-refresh branch without acquiring the `indexes` read lock.
    /// Sound because the index set is only mutated through `&mut self`
    /// methods (`create_index` / `drop_index`), which keep it in sync.
    pub(crate) has_indexes: bool,
    /// Objects mutated by the active transaction, re-indexed on abort.
    pub(crate) txn_touched: Vec<Oid>,
    /// Rule objects the active transaction created, wrote or deleted;
    /// rollback re-syncs the engine from each one's restored slots.
    pub(crate) txn_rules: Vec<Oid>,
    pub(crate) rule_class: ClassId,
    pub(crate) event_class: ClassId,
    /// Shared pipeline observability handle, with the fact table every
    /// counter of `stats` and `engine_stats` reads; clones live in the
    /// engine, every rule detector, and the WAL.
    pub(crate) telemetry: Arc<Telemetry>,
    /// Opt-in runtime effect recorder: while `Some`, every raise and
    /// attribute write performed during a rule action is attributed to
    /// that action, for diffing against its declared effects.
    pub(crate) effect_recorder: Option<EffectRecorder>,
    /// Stack of the firings currently executing (mirrors
    /// [`EffectRecorder::stack`]): a raise from inside a rule action
    /// stamps the innermost firing as the parent of whatever it
    /// triggers. Pushed/popped by `execute_firing` while firing history
    /// is enabled.
    pub(crate) lineage_stack: Vec<Lineage>,
    /// Firing records of the transaction in flight, held back until
    /// their fate is known: flushed with outcome `Committed` when the
    /// transaction commits, `Aborted` when it rolls back.
    pub(crate) pending_firings: Vec<FiringRecord>,
    /// The conflict-aware worker pool (plus its cached conflict matrix
    /// and counters); `None` under [`ExecutionMode::Serial`](crate::ExecutionMode::Serial).
    pub(crate) scheduler: Option<crate::scheduler::Scheduler>,
}

/// Observed effects per action name, plus the stack of actions currently
/// executing (a cascade attributes inner raises to the innermost action).
///
/// Observations are interned: a write is `(ClassId, slot)` and a raise
/// `(ClassId, Arc<str>)`, so recording on the hot write path costs a
/// set insert — no class-name or attribute-name clone per write. Names
/// are resolved against the schema only when the record is read back
/// ([`RawEffects::resolve`]).
#[derive(Default)]
pub(crate) struct EffectRecorder {
    pub(crate) records: BTreeMap<String, RawEffects>,
    pub(crate) stack: Vec<String>,
}

/// Slot-interned observed effects of one action.
#[derive(Default)]
pub(crate) struct RawEffects {
    pub(crate) raises: BTreeSet<(ClassId, Arc<str>)>,
    pub(crate) writes: BTreeSet<(ClassId, u32)>,
}

impl RawEffects {
    /// Rebuild the public string-keyed view by resolving class ids and
    /// slot indices against the schema. Slot layouts are immutable, so
    /// a recorded `(class, slot)` pair always names the same attribute.
    pub(crate) fn resolve(&self, registry: &ClassRegistry) -> ObservedEffects {
        let mut out = ObservedEffects::default();
        for (class, method) in &self.raises {
            out.record_raise(registry.get(*class).name.clone(), method.as_ref());
        }
        for (class, slot) in &self.writes {
            let def = registry.get(*class);
            out.record_write(
                def.name.clone(),
                def.layout[*slot as usize].attr.name.clone(),
            );
        }
        out
    }
}

impl EffectRecorder {
    /// The record of the innermost executing action, creating it on
    /// first observation. Steady state is a by-`&str` map hit — the
    /// action name is cloned only the first time it is seen.
    pub(crate) fn active_record(&mut self) -> Option<&mut RawEffects> {
        let action = self.stack.last()?;
        if self.records.contains_key(action.as_str()) {
            return self.records.get_mut(action.as_str());
        }
        Some(self.records.entry(action.clone()).or_default())
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("classes", &self.registry.len())
            .field("objects", &self.store.len())
            .field("rules", &self.engine.rule_count())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// A fresh in-memory database with the meta-classes bootstrapped.
    pub fn new() -> Self {
        Self::with_config(DbConfig::in_memory()).expect("in-memory open cannot fail")
    }

    /// Open a database with the given configuration. With a `data_dir`,
    /// any existing snapshot + WAL are recovered first.
    pub fn with_config(config: DbConfig) -> Result<Self> {
        if let Some(dir) = &config.data_dir {
            std::fs::create_dir_all(dir).map_err(|e| ObjectError::Storage(e.to_string()))?;
            let snap_p = config.snapshot_path().expect("durable");
            let wal_p = config.wal_path().expect("durable");
            if snap_p.exists() || wal_p.exists() {
                return Self::recover(config);
            }
        }
        let telemetry = Self::new_telemetry(&config);
        let mut db = Self::assemble(ClassRegistry::new(), ObjectStore::new(), config, telemetry)?;
        db.bootstrap_meta_classes()?;
        Ok(db)
    }

    pub(crate) fn new_telemetry(config: &DbConfig) -> Arc<Telemetry> {
        let tel = Arc::new(Telemetry::with_capacities(
            config.trace_capacity,
            config.history_capacity,
        ));
        tel.set_enabled(config.telemetry_enabled);
        tel.set_history(config.history_enabled);
        tel
    }

    pub(crate) fn assemble(
        registry: ClassRegistry,
        store: ObjectStore,
        config: DbConfig,
        telemetry: Arc<Telemetry>,
    ) -> Result<Self> {
        let wal = match config.wal_path() {
            Some(p) => {
                let mut w = Wal::open(p, config.sync)?;
                w.set_telemetry(telemetry.clone());
                Some(w)
            }
            None => None,
        };
        let mut engine = RuleEngine::new();
        engine.set_detector_caps(config.detector_caps);
        engine.set_detached_queue(config.detached_cap, config.detached_policy);
        engine.set_telemetry(telemetry.clone());
        let store = Arc::new(store);
        let clock = Arc::new(TimeSource::new(config.time_mode));
        engine.set_time_source(Arc::clone(&clock));
        let scheduler = match config.execution.workers() {
            0 => None,
            n => Some(crate::scheduler::Scheduler::new(
                n,
                Arc::clone(&store),
                Arc::clone(&clock),
                Arc::clone(&telemetry),
            )),
        };
        Ok(Database {
            published_registry: Arc::new(RwLock::new(registry.clone())),
            registry,
            store,
            methods: MethodTable::new(),
            clock,
            engine,
            pipeline: CommitPipeline::new(wal),
            config,
            depth: 0,
            txn_start_clock: 0,
            inline_detached: true,
            indexes: Arc::new(RwLock::new(Vec::new())),
            has_indexes: false,
            txn_touched: Vec::new(),
            txn_rules: Vec::new(),
            rule_class: ClassId(0),
            event_class: ClassId(0),
            telemetry,
            effect_recorder: None,
            lineage_stack: Vec::new(),
            pending_firings: Vec::new(),
            scheduler,
        })
    }

    /// Define the Figure 3 class hierarchy and the `Rule` meta-class's
    /// reactive `Enable`/`Disable` interface. Goes through
    /// [`define_class`](Self::define_class) so durable configurations
    /// log the meta-schema like any other DDL.
    pub(crate) fn bootstrap_meta_classes(&mut self) -> Result<()> {
        self.define_class(ClassDecl::new(meta::ZG_POS))?;
        self.define_class(ClassDecl::new(meta::NOTIFIABLE).parent(meta::ZG_POS))?;
        self.define_class(ClassDecl::reactive(meta::REACTIVE).parent(meta::ZG_POS))?;
        self.event_class = self.define_class(
            ClassDecl::new(meta::EVENT)
                .parent(meta::NOTIFIABLE)
                .attr("name", TypeTag::Str)
                .attr("expr", TypeTag::Str),
        )?;
        for sub in [
            meta::EVENT_PRIMITIVE,
            meta::EVENT_CONJUNCTION,
            meta::EVENT_DISJUNCTION,
            meta::EVENT_SEQUENCE,
        ] {
            self.define_class(ClassDecl::new(sub).parent(meta::EVENT))?;
        }
        // Rule is notifiable (it consumes events) *and* reactive: its
        // Enable/Disable operations are themselves event generators, so
        // rules can be monitored by other rules. Its slots are the whole
        // definition (Figure 7); `event` is the expression as JSON text,
        // and `subscriptions` is the Figure 4 consumer relation stored
        // at the rule's end: oids of monitored objects and names of
        // monitored classes.
        self.rule_class = self.define_class(
            ClassDecl::reactive(meta::RULE)
                .parent(meta::NOTIFIABLE)
                .attr("name", TypeTag::Str)
                .attr("event", TypeTag::Str)
                .attr("condition", TypeTag::Str)
                .attr("action", TypeTag::Str)
                .attr("coupling", TypeTag::Str)
                .attr("priority", TypeTag::Int)
                .attr("context", TypeTag::Str)
                .attr_with_default("enabled", TypeTag::Bool, Value::Bool(true))
                .attr_with_default("subscriptions", TypeTag::List, Value::List(Vec::new()))
                .event_method("Enable", &[], EventSpec::End)
                .event_method("Disable", &[], EventSpec::End),
        )?;
        self.register_rule_methods();
        Ok(())
    }

    /// `Rule::Enable`/`Disable` are ordinary bodies writing the rule
    /// object's `enabled` slot; the write path re-syncs the engine.
    /// Bodies are code, so recovery registers them again.
    pub(crate) fn register_rule_methods(&mut self) {
        for (method, on) in [("Enable", true), ("Disable", false)] {
            self.methods
                .register(self.rule_class, method, move |w, this, _| {
                    w.set_attr(this, "enabled", Value::Bool(on))?;
                    Ok(Value::Null)
                });
        }
    }

    // ------------------------------------------------------------------
    // Schema & code registration
    // ------------------------------------------------------------------

    /// Define an application class. With a durable configuration the
    /// declaration is logged so recovery can rebuild the schema even
    /// without a checkpoint. Schema definition is DDL: it is durable
    /// once logged and is not undone by a surrounding abort.
    pub fn define_class(&mut self, decl: ClassDecl) -> Result<ClassId> {
        let id = self.registry.define(decl.clone())?;
        self.publish_registry();
        if self.pipeline.is_durable() {
            self.with_auto_txn(|db| {
                let txn = db
                    .pipeline
                    .current()
                    .ok_or(ObjectError::NoActiveTransaction)?;
                db.log(LogRecord::Schema {
                    txn,
                    decl: Box::new(decl),
                })
            })?;
        }
        Ok(id)
    }

    /// Refresh the schema copy published to concurrent reader sessions.
    fn publish_registry(&self) {
        *self.published_registry.write() = self.registry.clone();
    }

    /// The shared read-side state captured by [`Sentinel`](crate::Sentinel)
    /// at open time: everything a reader session needs without the core
    /// lock.
    pub(crate) fn read_handles(&self) -> crate::session::ReadHandles {
        crate::session::ReadHandles {
            store: Arc::clone(&self.store),
            registry: Arc::clone(&self.published_registry),
            indexes: Arc::clone(&self.indexes),
            clock: Arc::clone(&self.clock),
            telemetry: Arc::clone(&self.telemetry),
        }
    }

    /// Register the body of `class::method`.
    pub fn register_method<F>(&mut self, class: &str, method: &str, body: F) -> Result<()>
    where
        F: Fn(&mut dyn World, Oid, &[Value]) -> Result<Value> + Send + Sync + 'static,
    {
        let id = self.registry.id_of(class)?;
        self.methods.register(id, method, body);
        Ok(())
    }

    /// Register `method(x)` as a store of `x` into `attr`.
    pub fn register_setter(&mut self, class: &str, method: &str, attr: &str) -> Result<()> {
        let id = self.registry.id_of(class)?;
        self.methods.register_setter(id, method, attr);
        Ok(())
    }

    /// Register `method()` as a read of `attr`.
    pub fn register_getter(&mut self, class: &str, method: &str, attr: &str) -> Result<()> {
        let id = self.registry.id_of(class)?;
        self.methods.register_getter(id, method, attr);
        Ok(())
    }

    /// Register a named rule-condition body.
    pub fn register_condition<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&mut dyn World, &Firing) -> Result<bool> + Send + Sync + 'static,
    {
        self.engine.bodies.register_condition(name, f);
    }

    /// Register a named rule-action body.
    pub fn register_action<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&mut dyn World, &Firing) -> Result<()> + Send + Sync + 'static,
    {
        self.engine.bodies.register_action(name, f);
    }

    /// Register an action from its [`ActionDef`] — the declarative
    /// builder that mirrors `RuleDef`: body, declared writes, declared
    /// raises, all in one value.
    ///
    /// ```ignore
    /// db.register(
    ///     ActionDef::new("credit")
    ///         .writes(("Account", "balance"))
    ///         .body(|w, firing| { /* ... */ Ok(()) }),
    /// )?;
    /// ```
    ///
    /// Declared effects are the contract both the static analyzer
    /// ([`analyze`](Self::analyze)) and the parallel scheduler build on:
    /// an action with no declaration is conservatively treated as able
    /// to write and raise anything (and its rules stay on the serial
    /// execution path). A bodyless `ActionDef` re-declares the effects
    /// of an already-registered action.
    pub fn register(&mut self, action: ActionDef) -> Result<()> {
        self.engine.bodies.register_def(action)
    }

    // ------------------------------------------------------------------
    // Objects
    // ------------------------------------------------------------------

    /// Create an instance of the named class (default-initialised).
    pub fn create(&mut self, class: &str) -> Result<Oid> {
        let id = self.registry.id_of(class)?;
        self.with_auto_txn(|db| db.create_internal(id))
    }

    /// Create an instance and initialise some attributes.
    pub fn create_with(&mut self, class: &str, attrs: &[(&str, Value)]) -> Result<Oid> {
        let id = self.registry.id_of(class)?;
        self.with_auto_txn(|db| {
            let oid = db.create_internal(id)?;
            for (attr, value) in attrs {
                db.set_attr_internal(oid, attr, value.clone())?;
            }
            Ok(oid)
        })
    }

    /// Delete an object, dropping its consumer list.
    pub fn delete(&mut self, oid: Oid) -> Result<()> {
        self.with_auto_txn(|db| db.delete_internal(oid))
    }

    /// Read an attribute (no transaction required).
    pub fn get_attr(&self, oid: Oid, attr: &str) -> Result<Value> {
        self.store.get_attr(&self.registry, oid, attr)
    }

    /// Write an attribute directly. Note: direct writes bypass methods
    /// and therefore generate **no events** — the paper's model is that
    /// monitored state changes happen through event-generating methods.
    pub fn set_attr(&mut self, oid: Oid, attr: &str, value: Value) -> Result<()> {
        self.with_auto_txn(|db| db.set_attr_internal(oid, attr, value))
    }

    /// Dynamic class of an object.
    pub fn class_of(&self, oid: Oid) -> Result<ClassId> {
        self.store.class_of(oid)
    }

    /// All instances of a class (subclass instances included).
    pub fn extent(&self, class: &str) -> Result<Vec<Oid>> {
        let id = self.registry.id_of(class)?;
        Ok(self.store.extent(&self.registry, id))
    }

    /// Send a message: the externally initiated dispatch entry point.
    /// Wraps the call in an auto-committed transaction when none is
    /// active; an abort raised by a triggered rule rolls everything back.
    pub fn send(&mut self, receiver: Oid, method: &str, args: &[Value]) -> Result<Value> {
        self.with_auto_txn(|db| db.dispatch(receiver, method, args))
    }

    pub(crate) fn create_internal(&mut self, class: ClassId) -> Result<Oid> {
        let state = ObjectState::new(self.registry.get(class));
        self.insert_internal(self.store.allocate_oid(), state)
    }

    /// Insert object `oid` with slot row `state` inside the active
    /// transaction, staging its undo and redo.
    pub(crate) fn insert_internal(&mut self, oid: Oid, state: ObjectState) -> Result<Oid> {
        if !self.pipeline.in_txn() {
            return Err(ObjectError::NoActiveTransaction);
        }
        // The slot row is cloned once for the redo record, and only when
        // a WAL is attached; the in-memory path logs nothing and clones
        // nothing. The record is the slot-interned v2 form
        // (`CreateSlots`): it carries the class id, not the name.
        let logged = self
            .pipeline
            .is_durable()
            .then(|| (state.class, state.slots.clone()));
        self.store.insert_raw(oid, state);
        self.pipeline.stage_undo(UndoOp::Create { oid })?;
        if let Some((class, slots)) = logged {
            let txn = self.pipeline.current().expect("in txn");
            self.log(LogRecord::CreateSlots {
                txn,
                oid,
                class,
                slots,
            })?;
        }
        self.index_refresh(oid)?;
        self.txn_touched.push(oid);
        Ok(oid)
    }

    pub(crate) fn set_attr_internal(&mut self, oid: Oid, attr: &str, value: Value) -> Result<()> {
        if !self.pipeline.in_txn() {
            return Err(ObjectError::NoActiveTransaction);
        }
        // The store takes ownership of `value`, so the staged redo
        // record needs its own copy — the only clone on this path, and
        // only when a WAL is attached.
        let logged = self.pipeline.is_durable().then(|| value.clone());
        let (class, slot, old) = self
            .store
            .set_attr_resolved(&self.registry, oid, attr, value)?;
        // The displaced value moves into the undo op; the v2 `SetSlot`
        // redo record does not carry it (undo is in-memory state, not
        // log state), so nothing is cloned here.
        self.pipeline
            .stage_undo(UndoOp::SetSlot { oid, slot, old })?;
        if let Some(new) = logged {
            let txn = self.pipeline.current().expect("in txn");
            self.log(LogRecord::SetSlot {
                txn,
                oid,
                class,
                slot: slot as u32,
                new,
            })?;
        }
        if let Some(rec) = &mut self.effect_recorder {
            if let Some(raw) = rec.active_record() {
                raw.writes.insert((class, slot as u32));
            }
        }
        if self.has_indexes {
            self.index_refresh_attr(oid, class, attr)?;
            self.txn_touched.push(oid);
        }
        if class == self.rule_class {
            self.rule_written(oid, attr)?;
        }
        Ok(())
    }

    /// Slot `attr` of rule object `oid` changed: remember the object for
    /// rollback and bring the engine's rule up to date. An `enabled` or
    /// `subscriptions` write only re-syncs the flag and edges; a rule
    /// instantiated or given new bodies by the write must name registered
    /// ones. A write the engine cannot follow aborts the transaction,
    /// whose rollback restores the rule.
    pub(crate) fn rule_written(&mut self, oid: Oid, attr: &str) -> Result<()> {
        self.txn_rules.push(oid);
        let synced = match (attr, self.engine.id_of_oid(oid)) {
            ("enabled" | "subscriptions", Some(id)) => self.sync_rule_flags(id, oid),
            (_, before) => self
                .sync_rule(oid)
                .and_then(|()| match self.engine.id_of_oid(oid) {
                    Some(id) if before.is_none() || matches!(attr, "condition" | "action") => {
                        self.engine.check_bodies(&self.engine.rule(id)?.def)
                    }
                    _ => Ok(()),
                }),
        };
        synced.map_err(|e| ObjectError::abort(format!("rule object {oid}: {e}")))
    }

    pub(crate) fn delete_internal(&mut self, oid: Oid) -> Result<()> {
        if !self.pipeline.in_txn() {
            return Err(ObjectError::NoActiveTransaction);
        }
        let state = self.store.delete(oid)?;
        let class = state.class;
        self.pipeline.stage_undo(UndoOp::Delete { oid, state })?;
        // Rules monitoring the object drop it from their `subscriptions`
        // slot through the ordinary write path, so an abort restores
        // the edges along with the object.
        for rule in self.engine.subscriptions.subscribers_of(oid).to_vec() {
            let rule_oid = self.engine.rule(rule)?.oid;
            self.edit_subscriptions(rule_oid, |list| list.retain(|t| *t != Value::Oid(oid)))?;
        }
        let txn = self.pipeline.current().expect("in txn");
        self.log(LogRecord::Delete { txn, oid })?;
        for idx in self.indexes.write().iter_mut() {
            idx.remove(oid);
        }
        self.txn_touched.push(oid);
        if class == self.rule_class {
            self.txn_rules.push(oid);
            self.sync_rule(oid)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Dispatch: the reactive message send
    // ------------------------------------------------------------------

    pub(crate) fn dispatch(
        &mut self,
        receiver: Oid,
        method: &str,
        args: &[Value],
    ) -> Result<Value> {
        // Unified cascade-limit semantics (see `DbConfig::
        // max_cascade_depth`): entering nesting level `depth + 1` is
        // rejected when it would exceed the limit, i.e. exactly
        // `max_cascade_depth` levels are permitted and the deepest
        // lineage depth a committed firing can record is
        // `max_cascade_depth - 1`. The same post-increment `> limit`
        // shape guards rule rounds in `commit.rs`.
        self.depth += 1;
        if self.depth > self.config.max_cascade_depth {
            self.depth -= 1;
            return Err(ObjectError::CascadeDepthExceeded {
                limit: self.config.max_cascade_depth,
            });
        }
        // Top-level sends are the dispatch-boundary drain point for due
        // timers: `at`/`every` occurrences that came due since the last
        // boundary are delivered before the new message's own events.
        // Nested sends (depth > 1) skip the drain — a cascade observes
        // one consistent "now".
        if self.depth == 1 && self.engine.timer_count() > 0 {
            if let Err(e) = self.drain_due_timers() {
                self.depth -= 1;
                return Err(e);
            }
        }
        let out = self.dispatch_inner(receiver, method, args);
        self.depth -= 1;
        out
    }

    fn dispatch_inner(&mut self, receiver: Oid, method: &str, args: &[Value]) -> Result<Value> {
        self.engine.count_fact(Fact::Sends);
        self.telemetry
            .trace(Stage::MethodSend, self.clock.now(), || {
                format!("{receiver}.{method}")
            });
        let class = self.store.class_of(receiver)?;
        let (owner, def, body) = self.methods.resolve(&self.registry, class, method, args)?;
        // Visibility (paper §1, difference #2): externally initiated
        // sends (depth 1 — `dispatch` already incremented) may only
        // reach public methods. Nested sends from method/rule bodies
        // stand in for intra-class calls and may reach anything — a
        // simplification of C++ access control, but it preserves the
        // property the paper relies on: private event generators
        // (Figure 8's `event begin Change-Salary`) still raise events
        // while staying uncallable from outside.
        if self.depth <= 1 && def.visibility != sentinel_object::Visibility::Public {
            return Err(ObjectError::VisibilityViolation {
                class: self.registry.get(owner).name.clone(),
                method: method.to_string(),
            });
        }
        let espec = if self.registry.get(class).reactivity == Reactivity::Passive {
            EventSpec::None
        } else {
            def.events
        };
        if espec == EventSpec::None {
            // No event, so no name or parameters to record: a passive
            // send allocates nothing of its own.
            return body(self, receiver, args);
        }
        let params: Arc<[Value]> = Arc::from(args);
        let method_name: Arc<str> = Arc::from(method);

        if espec.begin() {
            self.raise(
                receiver,
                class,
                owner,
                method_name.clone(),
                EventModifier::Begin,
                params.clone(),
            )?;
        }

        let result = body(self, receiver, args)?;

        if espec.end() {
            self.raise(
                receiver,
                class,
                owner,
                method_name,
                EventModifier::End,
                params,
            )?;
        }
        Ok(result)
    }

    /// Deliver every due `at`/`every` timer to its owning rule's
    /// detector and run the immediate firings that result. Timer
    /// occurrences consume fresh sequence numbers (they are ordered
    /// events like any other); deferred/detached firings they schedule
    /// join the normal end-of-transaction queues. Returns how many
    /// immediate firings ran (deferred work is picked up by the
    /// commit's fixpoint loop).
    pub(crate) fn drain_due_timers(&mut self) -> Result<usize> {
        let now = self.clock.instant_now();
        let clock = Arc::clone(&self.clock);
        let immediate = self.engine.drain_timers(now, || clock.tick())?;
        let n = immediate.len();
        self.execute_batch(immediate)?;
        Ok(n)
    }

    /// Generate a primitive event and run the immediate rules it
    /// triggers, in conflict-resolution order.
    fn raise(
        &mut self,
        oid: Oid,
        class: ClassId,
        owner: ClassId,
        method: Arc<str>,
        modifier: EventModifier,
        params: Arc<[Value]>,
    ) -> Result<()> {
        let occ = PrimitiveOccurrence {
            at: self.clock.tick(),
            oid,
            class,
            owner,
            method,
            modifier,
            params,
        };
        self.telemetry.trace(Stage::EventRaised, occ.at, || {
            format!("{}.{}:{:?}", occ.oid, occ.method, occ.modifier)
        });
        if let Some(rec) = &mut self.effect_recorder {
            if let Some(raw) = rec.active_record() {
                // `Arc<str>` clone is a refcount bump, not a copy.
                raw.raises.insert((class, occ.method.clone()));
            }
        }
        if self.telemetry.is_history() {
            // The innermost executing firing (if any) is the causal
            // parent of every firing this occurrence schedules.
            let ctx = self.lineage_stack.last().map(|l| (l.id, l.root, l.depth));
            self.engine.set_lineage_context(ctx);
        }
        let immediate = self.engine.on_occurrence(&self.registry, &occ)?;
        self.execute_batch(immediate)
    }

    /// Run a batch of firings in order, inside the open transaction,
    /// then hand it back to the engine for reuse.
    pub(crate) fn execute_batch(&mut self, batch: FiringBatch) -> Result<()> {
        for f in batch.iter() {
            self.execute_firing(&f)?;
        }
        self.engine.recycle(batch);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Static rule-set analysis
    // ------------------------------------------------------------------

    /// Statically analyze the current rule set: build the triggering
    /// graph from declared action effects, detect triggering cycles
    /// (coupling-mode-aware — an all-Immediate cycle is an error, a
    /// Deferred one a warning), and lint reachability, shadowing,
    /// confluence, and event-expression well-formedness. When the
    /// runtime effect recorder is on
    /// ([`set_effect_recording`](Self::set_effect_recording)), observed
    /// effects are additionally diffed against each action's declaration.
    pub fn analyze(&self) -> AnalysisReport {
        let mut object_classes = HashMap::new();
        for r in self.engine.iter_rules() {
            for oid in self.engine.subscriptions.objects_of(r.id) {
                if let Ok(c) = self.store.class_of(oid) {
                    object_classes.insert(oid, c);
                }
            }
        }
        let mut report = RuleAnalyzer::new(&self.registry, &self.engine)
            .with_object_classes(object_classes)
            .with_cascade_limit(self.config.max_cascade_depth)
            .analyze();
        if let Some(rec) = &self.effect_recorder {
            for (action, raw) in &rec.records {
                if let Some(declared) = self.engine.bodies.action_effects(action) {
                    let observed = raw.resolve(&self.registry);
                    report.diagnostics.extend(diff_effects(
                        action,
                        declared,
                        &observed,
                        &self.registry,
                    ));
                }
            }
            report.resort();
        }
        report
    }

    /// [`analyze`](Self::analyze) and fail on any error-severity finding
    /// — the programmatic form of the CI analyze gate.
    pub fn analyze_gate(&self) -> Result<()> {
        self.analyze().gate()
    }

    /// Toggle the runtime effect recorder. Turning it on starts a fresh
    /// record; turning it off discards all observations.
    pub fn set_effect_recording(&mut self, on: bool) {
        self.effect_recorder = on.then(EffectRecorder::default);
    }

    /// Observed per-action effects recorded so far (empty unless
    /// recording is on). The internal record is slot-interned; names
    /// are resolved against the schema here.
    pub fn observed_effects(&self) -> Vec<(String, ObservedEffects)> {
        self.effect_recorder
            .as_ref()
            .map(|r| {
                r.records
                    .iter()
                    .map(|(k, v)| (k.clone(), v.resolve(&self.registry)))
                    .collect()
            })
            .unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The schema.
    pub fn registry(&self) -> &ClassRegistry {
        &self.registry
    }

    /// Facade counters: everything published so far, plus what the
    /// transaction in flight has counted.
    pub fn stats(&self) -> DbStats {
        DbStats::read(&self.engine.fact_counts())
    }

    /// Engine counters.
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Counters of the parallel firing scheduler: batches and conflict
    /// groups formed, firings merged from workers, serial fallbacks and
    /// re-runs, matrix rebuilds. All zero under
    /// [`ExecutionMode::Serial`](crate::ExecutionMode::Serial).
    pub fn scheduler_stats(&self) -> crate::SchedulerStats {
        self.scheduler.as_ref().map(|s| s.stats).unwrap_or_default()
    }

    /// Zero all counters (benchmark warm-up): the published fact table,
    /// the facts the transaction in flight has counted, and every rule's
    /// counters. Also clears telemetry histograms and the trace
    /// ring, keeping the enablement flags. [`Telemetry::reset`] alone
    /// leaves the counters as they are.
    pub fn reset_stats(&mut self) {
        self.engine.reset_stats();
        self.telemetry.reset();
    }

    /// The pipeline telemetry handle. Toggle recording/tracing at
    /// runtime via [`Telemetry::set_enabled`] / [`Telemetry::set_tracing`].
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Facade + engine counters plus a telemetry snapshot, in one
    /// serializable value.
    pub fn full_stats(&self) -> FullStats {
        FullStats::read(&self.telemetry, &self.engine.fact_counts())
    }

    /// Prometheus-style text exposition of the full telemetry snapshot
    /// plus the facade and engine counters.
    pub fn metrics_prometheus(&self) -> String {
        let full = self.full_stats();
        let mut extra = crate::stats::prometheus_counters(&full.db, &full.engine).to_vec();
        extra.push((
            "wal_durable_commits_total",
            "Commits made durable in the write-ahead log.",
            self.pipeline.durable_commits(),
        ));
        let mut out = sentinel_telemetry::prometheus_text(&full.telemetry, &extra);
        self.append_rule_metrics(&mut out);
        out
    }

    /// Per-rule counters, firing-latency quantiles from the history
    /// ring, and the cascade-depth watermark, appended to the
    /// Prometheus exposition.
    fn append_rule_metrics(&self, out: &mut String) {
        use std::fmt::Write;
        let mut names = self.rule_names();
        names.sort();
        if !names.is_empty() {
            let _ = writeln!(
                out,
                "# HELP sentinel_rule_firings_total Executed firings (condition evaluations) per rule."
            );
            let _ = writeln!(out, "# TYPE sentinel_rule_firings_total counter");
            for name in &names {
                if let Ok(s) = self.rule_stats(name) {
                    let _ = writeln!(
                        out,
                        "sentinel_rule_firings_total{{rule=\"{name}\"}} {}",
                        s.condition_evals
                    );
                }
            }
        }
        // Firing latency quantiles per rule, over the records still in
        // the history ring (empty unless history capture is on).
        let mut by_rule: std::collections::BTreeMap<String, Vec<u64>> = Default::default();
        for r in self.telemetry.firings().dump_all() {
            if r.outcome != sentinel_telemetry::FiringOutcome::Shed {
                by_rule.entry(r.rule).or_default().push(r.latency_ns);
            }
        }
        if !by_rule.is_empty() {
            let _ = writeln!(
                out,
                "# HELP sentinel_rule_firing_latency_ns Firing latency quantiles over the history ring."
            );
            let _ = writeln!(out, "# TYPE sentinel_rule_firing_latency_ns summary");
            for (rule, mut lat) in by_rule {
                lat.sort_unstable();
                for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                    let idx = ((lat.len() as f64 - 1.0) * q).round() as usize;
                    let _ = writeln!(
                        out,
                        "sentinel_rule_firing_latency_ns{{rule=\"{rule}\",quantile=\"{label}\"}} {}",
                        lat[idx]
                    );
                }
                let sum: u64 = lat.iter().sum();
                let _ = writeln!(
                    out,
                    "sentinel_rule_firing_latency_ns_sum{{rule=\"{rule}\"}} {sum}"
                );
                let _ = writeln!(
                    out,
                    "sentinel_rule_firing_latency_ns_count{{rule=\"{rule}\"}} {}",
                    lat.len()
                );
            }
        }
        let firings = self.telemetry.firings();
        let _ = writeln!(
            out,
            "# HELP sentinel_cascade_depth_max Deepest firing cascade ever recorded (survives ring eviction)."
        );
        let _ = writeln!(out, "# TYPE sentinel_cascade_depth_max gauge");
        let _ = writeln!(out, "sentinel_cascade_depth_max {}", firings.max_depth());
        let _ = writeln!(out, "# TYPE sentinel_firing_history_recorded_total counter");
        let _ = writeln!(
            out,
            "sentinel_firing_history_recorded_total {}",
            firings.recorded()
        );
        let _ = writeln!(out, "# TYPE sentinel_firing_history_dropped_total counter");
        let _ = writeln!(
            out,
            "sentinel_firing_history_dropped_total {}",
            firings.dropped()
        );
    }

    /// Pretty-printed JSON of [`full_stats`](Self::full_stats).
    pub fn metrics_json(&self) -> Result<String> {
        serde_json::to_string_pretty(&self.full_stats())
            .map_err(|e| ObjectError::Storage(format!("serialize stats: {e}")))
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.store.len()
    }

    /// Number of rules.
    pub fn rule_count(&self) -> usize {
        self.engine.rule_count()
    }

    /// Current logical time (the occurrence sequence axis).
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Current instant on the temporal axis (what `at`/`every`/windows
    /// measure against). Equal to [`now`](Self::now) under
    /// [`TimeMode::Logical`].
    pub fn now_instant(&self) -> u64 {
        self.clock.instant_now()
    }

    /// Advance time by `delta` instants and deliver every timer that
    /// comes due, returning the new instant. Under [`TimeMode::Virtual`]
    /// this is the *only* way time passes — the deterministic test
    /// harness for temporal rules. Under [`TimeMode::Logical`] it jumps
    /// the shared sequence clock forward; under [`TimeMode::Wall`] it
    /// only drains (wall time advances by itself).
    pub fn advance_time(&mut self, delta: u64) -> Result<u64> {
        let now = match self.config.time_mode {
            TimeMode::Virtual => self.clock.advance_virtual(delta),
            TimeMode::Logical => {
                self.clock
                    .advance_to(self.clock.now().saturating_add(delta));
                self.clock.instant_now()
            }
            TimeMode::Wall => self.clock.instant_now(),
        };
        if self.engine.timer_count() > 0 {
            self.with_auto_txn(|db| db.drain_due_timers().map(|_| ()))?;
        }
        Ok(now)
    }

    /// Scheduled timers, resolved to their owning rules: `(row, rule
    /// name)`. The tabular form is the `timers` meta relation.
    pub fn timer_rows(&self) -> Vec<(sentinel_events::TimerRow, Option<Arc<str>>)> {
        self.engine.timer_rows()
    }

    /// The earliest scheduled timer instant, if any — what an embedding
    /// event loop would sleep until under [`TimeMode::Wall`].
    pub fn next_timer_due(&self) -> Option<u64> {
        self.engine.next_timer_due()
    }
}

/// Rule bodies and method bodies see the database through [`World`]:
/// nested sends re-enter the reactive dispatch (and may cascade), all
/// mutations are transactional.
impl World for Database {
    fn registry(&self) -> &ClassRegistry {
        &self.registry
    }

    fn create(&mut self, class: &str) -> Result<Oid> {
        let id = self.registry.id_of(class)?;
        self.create_internal(id)
    }

    fn delete(&mut self, oid: Oid) -> Result<()> {
        self.delete_internal(oid)
    }

    fn get_attr(&self, oid: Oid, attr: &str) -> Result<Value> {
        self.store.get_attr(&self.registry, oid, attr)
    }

    fn set_attr(&mut self, oid: Oid, attr: &str, value: Value) -> Result<()> {
        self.set_attr_internal(oid, attr, value)
    }

    fn send(&mut self, receiver: Oid, method: &str, args: &[Value]) -> Result<Value> {
        self.dispatch(receiver, method, args)
    }

    fn class_of(&self, oid: Oid) -> Result<ClassId> {
        self.store.class_of(oid)
    }

    fn extent(&self, class: &str) -> Result<Vec<Oid>> {
        let id = self.registry.id_of(class)?;
        Ok(self.store.extent(&self.registry, id))
    }

    fn now(&self) -> u64 {
        self.clock.now()
    }
}
