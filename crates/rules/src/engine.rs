//! The rule engine: detection fan-out and firing scheduling.
//!
//! Figure 2 of the paper: reactive objects propagate primitive events to
//! the notifiable objects subscribed to them; each rule passes the events
//! to its local detector; when the detector signals, the rule checks its
//! condition and runs its action. This engine implements everything up
//! to (but not including) body execution: the database facade executes
//! the [`ReadyFiring`]s the engine hands back, because execution needs
//! the full `World`, which owns the engine.
//!
//! Detectors live in an engine-owned arena, not in the rules. Rules whose
//! detectors could never be told apart — same event, context, caps and
//! subscriptions, same partial state — share one arena slot, so a
//! composite event is detected once per occurrence however many rules
//! consume it (events as first-class notifiable objects, Figures 5–6).

use crate::body::{ActionFn, CondFn, Firing, Lineage, RuleBodyRegistry};
use crate::conflict::{ConflictResolver, FifoResolver};
use crate::coupling::CouplingMode;
use crate::rule::{Rule, RuleDef, RuleId, RuleStats};
use crate::subscription::SubscriptionManager;
use sentinel_events::{
    CompositeOccurrence, DetectorCaps, DetectorInstance, EventExpr, ParamContext,
    PrimitiveOccurrence, TimeSource, TimerId, TimerRow, TimerWheel,
};
use sentinel_object::{ClassId, ClassRegistry, EventSym, ObjectError, Oid, Result};
use sentinel_telemetry::{
    FiringCoupling, FiringId, FiringOutcome, FiringRecord, Stage, Telemetry, Timer,
};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A triggered rule whose bodies are resolved and which is ready to run.
#[derive(Clone)]
pub struct ReadyFiring {
    /// The rule's priority (consumed by conflict resolvers).
    pub priority: i32,
    /// The coupling mode the firing was scheduled under (recorded into
    /// its lineage record by the executor).
    pub coupling: CouplingMode,
    /// Resolved condition body.
    pub condition: CondFn,
    /// Resolved action body.
    pub action: ActionFn,
    /// What triggered and with which occurrence.
    pub firing: Firing,
    /// Conflict-group component the rule belonged to when the firing was
    /// scheduled (stamped from the engine's conflict tags, if any).
    /// `None` means "not known to be parallel-safe" — the scheduler runs
    /// such firings on the serial path.
    pub group: Option<u32>,
}

impl std::fmt::Debug for ReadyFiring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadyFiring")
            .field("rule", &self.firing.rule)
            .field("name", &self.firing.rule_name)
            .field("priority", &self.priority)
            .field("group", &self.group)
            .finish()
    }
}

/// A detached firing waiting in the queue, stamped with its enqueue time
/// so the drain can report queue-wait latency (`detached_queue_wait`).
#[derive(Debug, Clone)]
struct QueuedDetached {
    ready: ReadyFiring,
    queued: std::time::Instant,
}

/// What to do when a detached firing arrives and the detached queue is
/// already at capacity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackpressurePolicy {
    /// Admit the firing anyway; the committing side must drain the
    /// overflow inline before acknowledging the commit, so the producer
    /// pays the latency and the queue returns to its cap.
    #[default]
    Block,
    /// Drop the firing and count it in
    /// [`EngineStats::detached_shed`] — the queue never exceeds its cap.
    Shed,
}

/// Engine-wide counters (experiments E3, E5, E6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Primitive occurrences offered to the engine.
    pub occurrences: u64,
    /// Deliveries of an occurrence (or timer fire) to a detector — the
    /// "rule checking" work the subscription mechanism minimises. Rules
    /// sharing a detector count one delivery between them; each rule's
    /// own [`RuleStats::notifications`] still counts every delivery it
    /// heard.
    pub notifications: u64,
    /// Firings routed with immediate coupling.
    pub immediate: u64,
    /// Firings routed with deferred coupling.
    pub deferred: u64,
    /// Firings routed with detached coupling.
    pub detached: u64,
    /// Detached firings dropped at a full queue under
    /// [`BackpressurePolicy::Shed`].
    pub detached_shed: u64,
}

/// Live engine counters: the atomic twin of [`EngineStats`], shared
/// (via `Arc`) with stats readers so snapshots need no engine access.
#[derive(Debug, Default)]
pub struct EngineCounters {
    occurrences: AtomicU64,
    notifications: AtomicU64,
    immediate: AtomicU64,
    deferred: AtomicU64,
    detached: AtomicU64,
    detached_shed: AtomicU64,
}

impl EngineCounters {
    #[inline]
    fn bump(field: &AtomicU64) {
        field.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of every counter.
    pub fn snapshot(&self) -> EngineStats {
        EngineStats {
            occurrences: self.occurrences.load(Ordering::Relaxed),
            notifications: self.notifications.load(Ordering::Relaxed),
            immediate: self.immediate.load(Ordering::Relaxed),
            deferred: self.deferred.load(Ordering::Relaxed),
            detached: self.detached.load(Ordering::Relaxed),
            detached_shed: self.detached_shed.load(Ordering::Relaxed),
        }
    }

    /// Zero every counter (benchmark warm-up).
    pub fn reset(&self) {
        for f in [
            &self.occurrences,
            &self.notifications,
            &self.immediate,
            &self.deferred,
            &self.detached,
            &self.detached_shed,
        ] {
            f.store(0, Ordering::Relaxed);
        }
    }
}

/// Index of a [`Slot`] in the detector arena.
type SlotId = usize;

/// One detector and the rules it detects for. Every member has the same
/// [`ShareKey`], so each would have received the same deliveries into
/// the same state had it kept a private detector.
struct Slot {
    detector: DetectorInstance,
    /// Member rules in id order — the order a detection fans out in.
    members: Vec<RuleId>,
}

/// The detector arena: slots addressed by index, freed indices reused.
#[derive(Default)]
struct Arena {
    slots: Vec<Option<Slot>>,
    free: Vec<SlotId>,
}

impl Arena {
    fn insert(&mut self, detector: DetectorInstance, members: Vec<RuleId>) -> SlotId {
        let slot = Some(Slot { detector, members });
        match self.free.pop() {
            Some(sid) => {
                self.slots[sid] = slot;
                sid
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        }
    }

    fn remove(&mut self, sid: SlotId) -> Slot {
        self.free.push(sid);
        self.slots[sid].take().expect("live slot")
    }

    fn get(&self, sid: SlotId) -> &Slot {
        self.slots[sid].as_ref().expect("live slot")
    }

    fn get_mut(&mut self, sid: SlotId) -> &mut Slot {
        self.slots[sid].as_mut().expect("live slot")
    }

    fn live(&self) -> impl Iterator<Item = (SlotId, &Slot)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(sid, s)| Some((sid, s.as_ref()?)))
    }

    fn live_mut(&mut self) -> impl Iterator<Item = &mut Slot> {
        self.slots.iter_mut().flatten()
    }
}

/// What two rules must agree on to share a detector. Rules with equal
/// keys hear exactly the same occurrences, so once their detectors hold
/// equal state they stay equal forever after.
#[derive(PartialEq, Eq, Hash)]
struct ShareKey<'a> {
    event: &'a EventExpr,
    context: ParamContext,
    caps: DetectorCaps,
    objects: Vec<Oid>,
    classes: Vec<ClassId>,
}

impl<'a> ShareKey<'a> {
    /// `None` keeps the rule private: a disabled rule is not routed, and
    /// a timer-bearing rule is fed by its own wheel entries.
    fn of(rule: &'a Rule, subs: &SubscriptionManager) -> Option<Self> {
        if !rule.enabled || rule.def.event.has_timers() {
            return None;
        }
        let mut objects = subs.objects_of(rule.id);
        objects.sort_unstable();
        let mut classes = subs.classes_of(rule.id);
        classes.sort_unstable();
        Some(ShareKey {
            event: &rule.def.event,
            context: rule.def.context,
            caps: rule.caps,
            objects,
            classes,
        })
    }
}

/// Keyed dispatch over `(subscription target, event symbol)`.
///
/// Built lazily from the subscription tables plus each rule's detector
/// *alphabet* (the interned primitive-event symbols that can advance it,
/// closed over subclasses). An occurrence then reaches only the slots
/// whose alphabet contains its symbol, instead of every subscriber of
/// the generating object. Rules with an unbounded alphabet (`Plus`
/// deadlines are signalled by any subsequent occurrence) go in the
/// *broad* tables and hear everything from their subscribed producers.
///
/// Validity is version-based: the index records the schema size, the
/// subscription generation, and the engine epoch it was built at, and is
/// rebuilt on any mismatch. That keeps it correct even though
/// `engine.subscriptions` is a public field mutable behind the engine's
/// back. Splitting a rule off its slot drops the index outright.
#[derive(Debug, Default)]
struct RoutingIndex {
    /// Schema size at build time (the registry is append-only).
    schema_len: usize,
    /// Subscription-table generation at build time.
    subs_gen: u64,
    /// Engine epoch (rule add/remove/enable/disable) at build time.
    epoch: u64,
    /// Instance subscriptions of symbol-bounded slots.
    by_object: HashMap<(Oid, EventSym), Vec<SlotId>>,
    /// Instance subscriptions of unbounded (broad) slots.
    broad_by_object: HashMap<Oid, Vec<SlotId>>,
    /// Class subscriptions of symbol-bounded slots. A symbol names its
    /// dynamic class, so subclass closure is resolved at build time and
    /// dispatch is a single lookup — no linearization walk.
    by_class_sym: HashMap<EventSym, Vec<SlotId>>,
    /// Class subscriptions of unbounded slots, looked up along the
    /// occurrence's class linearization (only when non-empty).
    broad_by_class: HashMap<ClassId, Vec<SlotId>>,
}

impl RoutingIndex {
    fn clear(&mut self) {
        self.by_object.clear();
        self.broad_by_object.clear();
        self.by_class_sym.clear();
        self.broad_by_class.clear();
    }
}

/// Append `sid` to `list` unless present. Lists are short, so a linear
/// scan beats hashing.
fn push_slot(list: &mut Vec<SlotId>, sid: SlotId) {
    if !list.contains(&sid) {
        list.push(sid);
    }
}

/// Append `list` to `out`, skipping slots already present. Fan-outs are
/// small, so a linear scan beats hashing and allocates nothing.
fn push_unique(out: &mut Vec<SlotId>, list: Option<&Vec<SlotId>>) {
    for &sid in list.into_iter().flatten() {
        push_slot(out, sid);
    }
}

/// Everything scheduling a completed detection needs, borrowed from the
/// engine field by field so dispatch can hold the arena and a rule at
/// the same time.
struct Fanout<'a> {
    bodies: &'a RuleBodyRegistry,
    bodies_version: u64,
    history: bool,
    lineage_ctx: Option<(u64, u64, u32)>,
    conflict_tags: Option<&'a HashMap<RuleId, u32>>,
    immediate: Vec<ReadyFiring>,
    deferred: &'a mut Vec<ReadyFiring>,
    detached: &'a mut VecDeque<QueuedDetached>,
    detached_cap: usize,
    detached_policy: BackpressurePolicy,
    stats: &'a EngineCounters,
    telemetry: &'a Option<Arc<Telemetry>>,
}

impl Fanout<'_> {
    /// Schedule one rule's firings for the occurrences its detector
    /// completed: resolve its bodies (cached per registry version), stamp
    /// lineage, and route each firing by the rule's coupling mode.
    fn fire(
        &mut self,
        rule: &mut Rule,
        completions: impl ExactSizeIterator<Item = CompositeOccurrence>,
        target: Oid,
        at: u64,
    ) -> Result<()> {
        rule.stats.triggered += completions.len() as u64;
        if rule.bodies_version != self.bodies_version
            || rule.cached_condition.is_none()
            || rule.cached_action.is_none()
        {
            rule.cached_condition = Some(self.bodies.condition(&rule.def.condition)?);
            rule.cached_action = Some(self.bodies.action(&rule.def.action)?);
            rule.bodies_version = self.bodies_version;
        }
        let condition = rule.cached_condition.as_ref().expect("resolved above");
        let action = rule.cached_action.as_ref().expect("resolved above");
        for occurrence in completions {
            let lineage = if self.history {
                let tel = self.telemetry.as_ref().expect("history implies telemetry");
                let id = tel.next_firing_id();
                match self.lineage_ctx {
                    Some((parent, root, parent_depth)) => Lineage {
                        id,
                        parent: Some(parent),
                        root,
                        depth: parent_depth + 1,
                    },
                    None => Lineage {
                        id,
                        parent: None,
                        root: occurrence.end,
                        depth: 0,
                    },
                }
            } else {
                Lineage::default()
            };
            let ready = ReadyFiring {
                priority: rule.def.priority,
                coupling: rule.def.coupling,
                condition: condition.clone(),
                action: action.clone(),
                firing: Firing {
                    rule: rule.id,
                    rule_name: rule.name.clone(),
                    occurrence,
                    lineage,
                },
                group: self.conflict_tags.and_then(|t| t.get(&rule.id).copied()),
            };
            self.route(ready, &rule.name, target, at);
        }
        Ok(())
    }

    /// Route one ready firing to its coupling destination — the immediate
    /// batch, the deferred queue, or the (bounded) detached queue.
    fn route(&mut self, ready: ReadyFiring, rule_name: &Arc<str>, target: Oid, at: u64) {
        let stage = match ready.coupling {
            CouplingMode::Immediate => {
                EngineCounters::bump(&self.stats.immediate);
                self.immediate.push(ready);
                Some(Stage::FiringImmediate)
            }
            CouplingMode::Deferred => {
                EngineCounters::bump(&self.stats.deferred);
                self.deferred.push(ready);
                Some(Stage::FiringDeferred)
            }
            CouplingMode::Detached => {
                if self.detached.len() >= self.detached_cap
                    && self.detached_policy == BackpressurePolicy::Shed
                {
                    // Full queue, shed policy: drop the firing rather than
                    // grow without bound — but leave a lineage record, so
                    // cascade trees show the shed firing instead of a
                    // silent gap.
                    EngineCounters::bump(&self.stats.detached_shed);
                    if let Some(tel) = self.telemetry {
                        let lin = ready.firing.lineage;
                        let end = ready.firing.occurrence.end;
                        tel.record_firing(|| FiringRecord {
                            id: FiringId(lin.id),
                            rule: rule_name.to_string(),
                            target: target.0,
                            coupling: FiringCoupling::Detached,
                            parent: lin.parent.map(FiringId),
                            root_occurrence: lin.root,
                            occurrence: end,
                            depth: lin.depth,
                            latency_ns: 0,
                            outcome: FiringOutcome::Shed,
                            lane: Default::default(),
                        });
                    }
                    None
                } else {
                    EngineCounters::bump(&self.stats.detached);
                    self.detached.push_back(QueuedDetached {
                        ready,
                        queued: std::time::Instant::now(),
                    });
                    Some(Stage::FiringDetached)
                }
            }
        };
        if let (Some(tel), Some(stage)) = (self.telemetry, stage) {
            // Lazy: the closure runs only when tracing is on.
            tel.hit(stage, at, || rule_name.to_string());
        }
    }
}

/// Detection and scheduling for a set of first-class rules.
pub struct RuleEngine {
    rules: HashMap<RuleId, Rule>,
    by_name: HashMap<String, RuleId>,
    by_oid: HashMap<Oid, RuleId>,
    /// Every rule's event detector, shared between rules whose detectors
    /// would be indistinguishable (see [`ShareKey`]).
    arena: Arena,
    /// Named condition/action bodies (the PMF analog).
    pub bodies: RuleBodyRegistry,
    /// The consumer lists connecting rules to reactive objects.
    pub subscriptions: SubscriptionManager,
    resolver: Box<dyn ConflictResolver>,
    caps: DetectorCaps,
    next_rule: u64,
    deferred: Vec<ReadyFiring>,
    /// Bounded detached-firing queue: each entry remembers when it was
    /// scheduled so the drain can report queue-wait latency.
    detached: VecDeque<QueuedDetached>,
    detached_cap: usize,
    detached_policy: BackpressurePolicy,
    /// Queue length at [`begin_capture`](Self::begin_capture): an abort
    /// discards only the aborting transaction's detached work, not
    /// firings earlier committed transactions already queued.
    detached_floor: usize,
    stats: Arc<EngineCounters>,
    scratch: Vec<SlotId>,
    /// Lazily built `(target, symbol)` dispatch index; `None` until the
    /// first occurrence.
    routing: Option<RoutingIndex>,
    /// Bumped on rule add/remove/enable/disable — the rule-side half of
    /// the routing index's validity stamp.
    epoch: u64,
    /// Between [`begin_capture`](Self::begin_capture) and its commit or
    /// abort: the first delivery to a slot opens an undo journal on its
    /// detector and records the slot in `touched`.
    capturing: bool,
    /// Slots whose detectors have a journal open for the transaction in
    /// flight (kept across transactions for its capacity).
    touched: Vec<SlotId>,
    telemetry: Option<Arc<Telemetry>>,
    /// Causal context for firings scheduled by the next occurrence:
    /// `(parent firing id, root occurrence, parent depth)`. Set by the
    /// database facade around each raise while firing history is
    /// enabled; `None` means occurrences start fresh cascades.
    lineage_ctx: Option<(u64, u64, u32)>,
    /// Conflict-group tag per rule, installed by the scheduler after it
    /// compiles a conflict matrix. Rules absent from the map are not
    /// known to be parallel-safe; their firings carry `group: None`.
    conflict_tags: Option<Arc<HashMap<RuleId, u32>>>,
    /// Due-time scheduling for the temporal operators: each timer-bearing
    /// rule's `at`/`every` leaves are registered here when the rule is
    /// added or enabled, and the database drains due fires at dispatch
    /// and deferred-round boundaries.
    timers: TimerWheel,
    /// Routes a fire back to its consumer: `TimerId → (rule, leaf idx)`.
    timer_routes: HashMap<TimerId, (RuleId, usize)>,
    /// Time source handed to every detector (window/aggregate nodes stamp
    /// arrivals with its instant axis).
    time: Option<Arc<TimeSource>>,
}

impl std::fmt::Debug for RuleEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleEngine")
            .field("rules", &self.rules.len())
            .field("detectors", &self.detector_count())
            .field("resolver", &self.resolver.name())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Default for RuleEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl RuleEngine {
    /// An empty engine with the built-in bodies and FIFO resolution.
    pub fn new() -> Self {
        RuleEngine {
            rules: HashMap::new(),
            by_name: HashMap::new(),
            by_oid: HashMap::new(),
            arena: Arena::default(),
            bodies: RuleBodyRegistry::new(),
            subscriptions: SubscriptionManager::new(),
            resolver: Box::new(FifoResolver),
            caps: DetectorCaps::default(),
            next_rule: 0,
            deferred: Vec::new(),
            detached: VecDeque::new(),
            detached_cap: usize::MAX,
            detached_policy: BackpressurePolicy::default(),
            detached_floor: 0,
            stats: Arc::new(EngineCounters::default()),
            scratch: Vec::new(),
            routing: None,
            epoch: 0,
            capturing: false,
            touched: Vec::new(),
            telemetry: None,
            lineage_ctx: None,
            conflict_tags: None,
            timers: TimerWheel::new(),
            timer_routes: HashMap::new(),
            time: None,
        }
    }

    /// Install the time source: every existing detector (and every one
    /// compiled later) reads window instants from it.
    pub fn set_time_source(&mut self, time: Arc<TimeSource>) {
        for slot in self.arena.live_mut() {
            slot.detector.set_time_source(time.clone());
        }
        self.time = Some(time);
    }

    /// Install (or clear) the conflict-group tags stamped onto firings
    /// scheduled from now on. Compiled by the scheduler from the static
    /// analysis; keyed by rule id, valued with the rule's conflict
    /// component.
    pub fn set_conflict_tags(&mut self, tags: Option<Arc<HashMap<RuleId, u32>>>) {
        self.conflict_tags = tags;
    }

    /// The engine epoch: bumped on every rule add/remove/enable/disable.
    /// External caches keyed on the rule set (routing index, conflict
    /// matrix) use it as their validity stamp.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Set (or clear) the causal context stamped onto firings scheduled
    /// by subsequent occurrences: the currently executing firing's id,
    /// its cascade-root occurrence, and its depth. Cleared context means
    /// the next occurrence roots a fresh cascade.
    pub fn set_lineage_context(&mut self, ctx: Option<(u64, u64, u32)>) {
        self.lineage_ctx = ctx;
    }

    /// Attach an observability handle; it is propagated to every
    /// existing detector (and to detectors compiled later), labelled
    /// with the name of the (first) rule it serves.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        for slot in self.arena.live_mut() {
            let name = self.rules[&slot.members[0]].name.clone();
            slot.detector.set_telemetry(telemetry.clone(), name);
        }
        self.telemetry = Some(telemetry);
    }

    /// Start transactional detection: until
    /// [`commit_capture`](Self::commit_capture) or
    /// [`abort_capture`](Self::abort_capture), the first delivery to
    /// each detector opens an undo journal on it, so an abort can
    /// restore exactly the pre-transaction detection state — including
    /// occurrences a rolled-back detection consumed. Journaling costs
    /// O(1) per state mutation, independent of buffered-state size.
    pub fn begin_capture(&mut self) {
        self.capturing = true;
        self.detached_floor = self.detached.len();
    }

    /// Transaction committed: close the journals.
    pub fn commit_capture(&mut self) {
        self.end_capture(DetectorInstance::commit_txn);
    }

    /// Transaction aborted: roll every touched detector back — once per
    /// slot, for all the rules it serves.
    pub fn abort_capture(&mut self) {
        self.end_capture(DetectorInstance::abort_txn);
    }

    fn end_capture(&mut self, close: fn(&mut DetectorInstance)) {
        self.capturing = false;
        for sid in self.touched.drain(..) {
            // A slot freed (or freed and reused) since it was touched has
            // no journal of this transaction left; closing is a no-op.
            if let Some(slot) = self.arena.slots[sid].as_mut() {
                close(&mut slot.detector);
            }
        }
    }

    /// Install a different conflict-resolution strategy (no application
    /// code changes — paper §3).
    pub fn set_resolver(&mut self, resolver: Box<dyn ConflictResolver>) {
        self.resolver = resolver;
    }

    /// Detector caps applied to rules added from now on.
    pub fn set_detector_caps(&mut self, caps: DetectorCaps) {
        self.caps = caps;
    }

    /// Create a rule object. `oid` is the rule's store identity
    /// ([`Oid::NIL`] when the engine runs storeless). The rule starts
    /// enabled but fires only once subscriptions connect it to event
    /// producers.
    pub fn add_rule(&mut self, def: RuleDef, oid: Oid, registry: &ClassRegistry) -> Result<RuleId> {
        if !self.bodies.has_condition(&def.condition) {
            return Err(ObjectError::BodyNotRegistered {
                kind: "condition",
                name: def.condition,
            });
        }
        if !self.bodies.has_action(&def.action) {
            return Err(ObjectError::BodyNotRegistered {
                kind: "action",
                name: def.action,
            });
        }
        self.add_rule_unchecked(def, oid, registry)
    }

    /// Create a rule without validating that its condition/action bodies
    /// are registered yet. Recovery uses this: rule objects come back
    /// from the log before the application re-registers its code; the
    /// body lookup happens (and errors cleanly) at fire time.
    pub fn add_rule_unchecked(
        &mut self,
        def: RuleDef,
        oid: Oid,
        registry: &ClassRegistry,
    ) -> Result<RuleId> {
        if self.by_name.contains_key(&def.name) {
            return Err(ObjectError::DuplicateRule(def.name));
        }
        self.next_rule += 1;
        let id = RuleId(self.next_rule);
        let name = def.name.clone();
        let (mut rule, mut detector) = Rule::instantiate(id, oid, def, registry, self.caps)?;
        // Resolve the body handles now so the first completion doesn't
        // pay the name lookup. Unregistered bodies (the recovery path)
        // stay `None` and resolve — or error — at fire time.
        rule.cached_condition = self.bodies.condition(&rule.def.condition).ok();
        rule.cached_action = self.bodies.action(&rule.def.action).ok();
        rule.bodies_version = self.bodies.version();
        if let Some(tel) = &self.telemetry {
            detector.set_telemetry(tel.clone(), rule.name.clone());
        }
        if let Some(time) = &self.time {
            detector.set_time_source(time.clone());
        }
        // Private until the next routing rebuild finds it a group.
        rule.slot = self.arena.insert(detector, vec![id]);
        self.rules.insert(id, rule);
        self.by_name.insert(name, id);
        if !oid.is_nil() {
            self.by_oid.insert(oid, id);
        }
        self.schedule_rule_timers(id);
        self.epoch += 1;
        Ok(id)
    }

    /// Register a rule's `at`/`every` leaves on the timer wheel. Periodic
    /// timers start at the first period boundary after the present
    /// instant (the time source's, falling back to the wheel's cursor),
    /// so a rule added late doesn't replay every elapsed period.
    fn schedule_rule_timers(&mut self, id: RuleId) {
        let Some(rule) = self.rules.get(&id) else {
            return;
        };
        let specs = rule.def.event.timer_specs();
        let now = self
            .time
            .as_ref()
            .map(|t| t.instant_now())
            .unwrap_or(0)
            .max(self.timers.cursor());
        for (idx, (due, period)) in specs.into_iter().enumerate() {
            let (due, label): (u64, Arc<str>) = match period {
                Some(p) => {
                    let p = p.max(1);
                    ((now / p + 1) * p, format!("every({p})").into())
                }
                None => (due, format!("at({due})").into()),
            };
            let tid = self.timers.schedule(due, period, id.0, label);
            self.timer_routes.insert(tid, (id, idx));
        }
    }

    fn cancel_rule_timers(&mut self, id: RuleId) {
        self.timers.cancel_owner(id.0);
        self.timer_routes.retain(|_, (r, _)| *r != id);
    }

    /// Re-align every enabled rule's timers to `now` without firing the
    /// elapsed boundaries. Recovery calls this after rebuilding the
    /// catalog: downtime is not replayed — periodic timers resume at the
    /// first boundary after `now`, and one-shot timers already past
    /// catch up on the next drain.
    pub fn reset_timers_to(&mut self, now: u64) {
        let ids: Vec<RuleId> = self.rules.keys().copied().collect();
        for id in &ids {
            self.cancel_rule_timers(*id);
        }
        // The wheel is empty; advancing just moves the cursor so the
        // re-registration below aligns periods to the present.
        let _ = self.timers.advance(now);
        for id in ids {
            if self.rules.get(&id).is_some_and(|r| r.enabled) {
                self.schedule_rule_timers(id);
            }
        }
    }

    /// Delete a rule and all its subscriptions. The rules it shared a
    /// detector with keep it.
    pub fn remove_rule(&mut self, id: RuleId) -> Result<RuleDef> {
        let rule = self
            .rules
            .remove(&id)
            .ok_or_else(|| ObjectError::UnknownRule(format!("{id}")))?;
        let slot = self.arena.get_mut(rule.slot);
        slot.members.retain(|&m| m != id);
        if slot.members.is_empty() {
            self.arena.remove(rule.slot);
        }
        self.by_name.remove(&rule.def.name);
        if !rule.oid.is_nil() {
            self.by_oid.remove(&rule.oid);
        }
        self.subscriptions.remove_rule(id);
        self.cancel_rule_timers(id);
        self.epoch += 1;
        Ok(rule.def)
    }

    /// Resolve a rule by name.
    pub fn id_of(&self, name: &str) -> Result<RuleId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| ObjectError::UnknownRule(name.to_string()))
    }

    /// Resolve a rule by its store oid (rules-on-rules path).
    pub fn id_of_oid(&self, oid: Oid) -> Option<RuleId> {
        self.by_oid.get(&oid).copied()
    }

    /// Borrow a rule.
    pub fn rule(&self, id: RuleId) -> Result<&Rule> {
        self.rules
            .get(&id)
            .ok_or_else(|| ObjectError::UnknownRule(format!("{id}")))
    }

    /// Mutably borrow a rule (the facade updates its stats after
    /// executing bodies).
    pub fn rule_mut(&mut self, id: RuleId) -> Result<&mut Rule> {
        self.rules
            .get_mut(&id)
            .ok_or_else(|| ObjectError::UnknownRule(format!("{id}")))
    }

    /// Iterate over all rules (unspecified order).
    pub fn iter_rules(&self) -> impl Iterator<Item = &Rule> {
        self.rules.values()
    }

    /// Number of rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// The detector a rule's events are delivered to — shared with every
    /// rule it is grouped with, all of which see the same state.
    pub fn detector_of(&self, id: RuleId) -> Result<&DetectorInstance> {
        Ok(&self.arena.get(self.rule(id)?.slot).detector)
    }

    /// Mutable access to a rule's detector. The rule first gets a private
    /// copy, so the change cannot leak into the rules it shared with; the
    /// next routing rebuild regroups it if its state still matches.
    pub fn detector_of_mut(&mut self, id: RuleId) -> Result<&mut DetectorInstance> {
        let sid = self.split_off(id)?;
        Ok(&mut self.arena.get_mut(sid).detector)
    }

    /// Number of live detectors: rules minus the ones sharing. Grouping
    /// is recomputed lazily, at the first occurrence after a rule or
    /// subscription change.
    pub fn detector_count(&self) -> usize {
        self.arena.live().count()
    }

    /// Discard partial detections involving occurrences newer than `ts`
    /// in every detector — one walk over the arena, not one per rule.
    pub fn prune_detectors_newer_than(&mut self, ts: u64) {
        for slot in self.arena.live_mut() {
            slot.detector.prune_newer_than(ts);
        }
    }

    /// Give a rule a private copy of its slot's detector (a no-op when it
    /// is already alone) and return the rule's slot. A copy made inside a
    /// capture carries the open journal, so an abort still restores it.
    fn split_off(&mut self, id: RuleId) -> Result<SlotId> {
        let rule = self
            .rules
            .get_mut(&id)
            .ok_or_else(|| ObjectError::UnknownRule(format!("{id}")))?;
        let slot = self.arena.get_mut(rule.slot);
        if slot.members.len() == 1 {
            return Ok(rule.slot);
        }
        slot.members.retain(|&m| m != id);
        let mut detector = slot.detector.clone();
        if let Some(tel) = &self.telemetry {
            detector.set_telemetry(tel.clone(), rule.name.clone());
        }
        let journaled = detector.in_txn();
        rule.slot = self.arena.insert(detector, vec![id]);
        if journaled {
            self.touched.push(rule.slot);
        }
        // The index still routes to the old slot only.
        self.routing = None;
        Ok(rule.slot)
    }

    /// Enable a rule. (Figure 7's `Enable` method.) Re-registers the
    /// rule's timers (if it was disabled they were cancelled).
    pub fn enable(&mut self, id: RuleId) -> Result<()> {
        let r = self.rule_mut(id)?;
        let was_enabled = std::mem::replace(&mut r.enabled, true);
        if !was_enabled {
            self.schedule_rule_timers(id);
        }
        self.epoch += 1;
        Ok(())
    }

    /// Disable a rule: it stops receiving and recording events, its
    /// partial detector state is discarded, and its timers stop firing.
    /// The rules it shared a detector with keep their partial state.
    pub fn disable(&mut self, id: RuleId) -> Result<()> {
        let sid = self.split_off(id)?;
        self.arena.get_mut(sid).detector.reset();
        self.rule_mut(id)?.enabled = false;
        self.cancel_rule_timers(id);
        self.epoch += 1;
        Ok(())
    }

    /// Is the routing index still valid against every mutation source?
    fn routing_fresh(&self, registry: &ClassRegistry) -> bool {
        match &self.routing {
            Some(idx) => {
                idx.schema_len == registry.len()
                    && idx.subs_gen == self.subscriptions.generation()
                    && idx.epoch == self.epoch
            }
            None => false,
        }
    }

    /// (Re)build the routing index from the subscription tables and the
    /// enabled rules' alphabets, after regrouping the arena. Reuses the
    /// previous index's allocations.
    fn rebuild_routing(&mut self, registry: &ClassRegistry) {
        for rule in self.rules.values_mut() {
            rule.refresh_alphabet(registry);
        }
        self.regroup();
        let mut idx = self.routing.take().unwrap_or_default();
        idx.clear();
        idx.schema_len = registry.len();
        idx.subs_gen = self.subscriptions.generation();
        idx.epoch = self.epoch;
        for (oid, list) in self.subscriptions.object_lists() {
            for &rid in list {
                let Some(rule) = self.rules.get(&rid) else {
                    continue; // stale subscription of a deleted rule
                };
                if !rule.enabled {
                    continue;
                }
                match &rule.alphabet {
                    Some(syms) => {
                        for &s in syms {
                            push_slot(idx.by_object.entry((oid, s)).or_default(), rule.slot);
                        }
                    }
                    None => push_slot(idx.broad_by_object.entry(oid).or_default(), rule.slot),
                }
            }
        }
        for def in registry.iter() {
            let Some(list) = self.subscriptions.class_list(def.id) else {
                continue;
            };
            for &rid in list {
                let Some(rule) = self.rules.get(&rid) else {
                    continue;
                };
                if !rule.enabled {
                    continue;
                }
                match &rule.alphabet {
                    Some(syms) => {
                        for &s in syms {
                            // A symbol names its dynamic class; the rule
                            // hears it only when that class falls under
                            // the subscribed one.
                            if registry.is_subclass(registry.sym_info(s).class, def.id) {
                                push_slot(idx.by_class_sym.entry(s).or_default(), rule.slot);
                            }
                        }
                    }
                    None => push_slot(idx.broad_by_class.entry(def.id).or_default(), rule.slot),
                }
            }
        }
        self.routing = Some(idx);
    }

    /// Regroup the arena so rules share a detector exactly when sharing
    /// is unobservable. First every member whose [`ShareKey`] no longer
    /// matches its slot's gets its own copy of the detector (members
    /// that still agree stay together, state and journal included).
    /// Then slots with equal keys and equal exported state merge —
    /// unless either has a journal open, since two journals cannot be
    /// folded into one.
    fn regroup(&mut self) {
        let keys: HashMap<RuleId, ShareKey<'_>> = self
            .rules
            .iter()
            .filter_map(|(&id, r)| Some((id, ShareKey::of(r, &self.subscriptions)?)))
            .collect();
        let mut moved: Vec<(RuleId, SlotId)> = Vec::new();

        for sid in 0..self.arena.slots.len() {
            let Some(slot) = self.arena.slots[sid].as_mut() else {
                continue;
            };
            if slot.members.len() < 2 {
                continue;
            }
            // Partition by key; unkeyed members go alone.
            let mut groups: Vec<Vec<RuleId>> = Vec::new();
            for rid in std::mem::take(&mut slot.members) {
                let key = keys.get(&rid);
                match groups
                    .iter_mut()
                    .find(|g| key.is_some() && keys.get(&g[0]) == key)
                {
                    Some(g) => g.push(rid),
                    None => groups.push(vec![rid]),
                }
            }
            let mut groups = groups.into_iter();
            slot.members = groups.next().expect("a live slot has members");
            for members in groups {
                let mut detector = self.arena.get(sid).detector.clone();
                if let Some(tel) = &self.telemetry {
                    detector.set_telemetry(tel.clone(), self.rules[&members[0]].name.clone());
                }
                let journaled = detector.in_txn();
                let new = self.arena.insert(detector, members.clone());
                if journaled {
                    self.touched.push(new);
                }
                moved.extend(members.into_iter().map(|rid| (rid, new)));
            }
        }

        let mut buckets: HashMap<&ShareKey<'_>, Vec<SlotId>> = HashMap::new();
        for (sid, slot) in self.arena.live() {
            if let Some(key) = keys.get(&slot.members[0]) {
                if !slot.detector.in_txn() {
                    buckets.entry(key).or_default().push(sid);
                }
            }
        }
        for bucket in buckets.into_values().filter(|b| b.len() > 1) {
            let states: Vec<_> = bucket
                .iter()
                .map(|&sid| self.arena.get(sid).detector.export_state())
                .collect();
            let mut gone = vec![false; bucket.len()];
            for i in 0..bucket.len() {
                if gone[i] {
                    continue;
                }
                for j in i + 1..bucket.len() {
                    if gone[j] || states[i] != states[j] {
                        continue;
                    }
                    gone[j] = true;
                    let absorbed = self.arena.remove(bucket[j]).members;
                    moved.extend(absorbed.iter().map(|&rid| (rid, bucket[i])));
                    let survivor = &mut self.arena.get_mut(bucket[i]).members;
                    survivor.extend(absorbed);
                    survivor.sort_unstable();
                }
            }
        }

        for (rid, sid) in moved {
            self.rules.get_mut(&rid).expect("grouped rules exist").slot = sid;
        }
    }

    /// Split borrow for dispatch: the arena, the rules, the touched-slot
    /// list, and a fan-out over everything firings are routed through.
    fn dispatch_parts(
        &mut self,
    ) -> (
        &mut Arena,
        &mut HashMap<RuleId, Rule>,
        Option<&mut Vec<SlotId>>,
        Fanout<'_>,
    ) {
        let fanout = Fanout {
            bodies: &self.bodies,
            bodies_version: self.bodies.version(),
            history: self.telemetry.as_ref().is_some_and(|t| t.is_history()),
            lineage_ctx: self.lineage_ctx,
            conflict_tags: self.conflict_tags.as_deref(),
            immediate: Vec::new(),
            deferred: &mut self.deferred,
            detached: &mut self.detached,
            detached_cap: self.detached_cap,
            detached_policy: self.detached_policy,
            stats: &self.stats,
            telemetry: &self.telemetry,
        };
        let touched = self.capturing.then_some(&mut self.touched);
        (&mut self.arena, &mut self.rules, touched, fanout)
    }

    /// Offer one primitive occurrence: deliver it to the detectors of the
    /// rules subscribed to the generating object (directly or via its
    /// class), and return the **immediate** firings in execution order.
    /// Deferred/detached firings are queued internally for
    /// [`take_deferred`](Self::take_deferred) /
    /// [`take_detached`](Self::take_detached).
    ///
    /// Only detectors whose alphabet contains the occurrence's interned
    /// symbol are notified, plus the broad (unbounded-alphabet) ones,
    /// which hear everything. A symbol-less occurrence (a method outside
    /// the declared schema) reaches only the broad ones. Each detector
    /// runs once; its completions fan out to every rule it serves.
    pub fn on_occurrence(
        &mut self,
        registry: &ClassRegistry,
        occ: &PrimitiveOccurrence,
    ) -> Result<Vec<ReadyFiring>> {
        EngineCounters::bump(&self.stats.occurrences);
        let fan_out_timer = match &self.telemetry {
            Some(t) => t.timer(),
            None => Timer::off(),
        };
        let sym = occ.sym(registry);
        if !self.routing_fresh(registry) {
            self.rebuild_routing(registry);
        }
        let mut consumers = std::mem::take(&mut self.scratch);
        let idx = self.routing.as_ref().expect("routing index just built");
        push_unique(
            &mut consumers,
            sym.and_then(|s| idx.by_object.get(&(occ.oid, s))),
        );
        push_unique(&mut consumers, idx.broad_by_object.get(&occ.oid));
        push_unique(&mut consumers, sym.and_then(|s| idx.by_class_sym.get(&s)));
        if !idx.broad_by_class.is_empty() {
            for &c in &registry.get(occ.class).linearization {
                push_unique(&mut consumers, idx.broad_by_class.get(&c));
            }
        }

        let (arena, rules, mut touched, mut fanout) = self.dispatch_parts();
        for &sid in &consumers {
            let slot = arena.get_mut(sid);
            EngineCounters::bump(&fanout.stats.notifications);
            if let Some(touched) = touched.as_deref_mut() {
                if !slot.detector.in_txn() {
                    slot.detector.begin_txn();
                    touched.push(sid);
                }
            }
            let mut completions = slot.detector.process_resolved(registry, occ, sym);
            let last = slot.members.len() - 1;
            for (i, rid) in slot.members.iter().enumerate() {
                let Some(rule) = rules.get_mut(rid) else {
                    continue;
                };
                if !rule.enabled {
                    continue;
                }
                rule.stats.notifications += 1;
                if completions.is_empty() {
                    continue;
                }
                // The last member takes the completions; the others copy.
                if i == last {
                    fanout.fire(rule, completions.drain(..), occ.oid, occ.at)?;
                } else {
                    fanout.fire(rule, completions.iter().cloned(), occ.oid, occ.at)?;
                }
            }
        }
        let mut immediate = fanout.immediate;
        consumers.clear();
        self.scratch = consumers;
        self.resolver.order(&mut immediate);
        if let Some(tel) = &self.telemetry {
            tel.observe_timer(Stage::FanOut, occ.at, fan_out_timer, || {
                format!("{}.{}", occ.oid, occ.method)
            });
        }
        Ok(immediate)
    }

    /// Advance the timer wheel to instant `now` and deliver every due
    /// fire to its owning rule's detector, returning the **immediate**
    /// firings in execution order (deferred/detached firings queue as
    /// usual). Each delivery consumes one sequence number from
    /// `next_seq`, so timer occurrences are totally ordered against
    /// primitive occurrences. Timer-bearing rules never share a
    /// detector, so each fire reaches exactly one rule.
    pub fn drain_timers(
        &mut self,
        now: u64,
        mut next_seq: impl FnMut() -> u64,
    ) -> Result<Vec<ReadyFiring>> {
        if self.timers.is_empty() {
            // Keep the cursor tracking `now` even with nothing scheduled,
            // so timers registered later (a rule enabled mid-run) align
            // to the present rather than replaying from instant 0.
            self.timers.advance(now);
            return Ok(Vec::new());
        }
        let drain_timer = match &self.telemetry {
            Some(t) => t.timer(),
            None => Timer::off(),
        };
        let fires = self.timers.advance(now);
        if fires.is_empty() {
            return Ok(Vec::new());
        }
        let n_fires = fires.len();
        let routes = &mut self.timer_routes;
        let routed: Vec<(RuleId, usize, u64)> = fires
            .into_iter()
            .filter_map(|fire| {
                // A fire with no route is a stale fire of a removed rule.
                let &(rid, idx) = routes.get(&fire.id)?;
                if fire.period.is_none() {
                    routes.remove(&fire.id);
                }
                Some((rid, idx, fire.due))
            })
            .collect();
        let (arena, rules, mut touched, mut fanout) = self.dispatch_parts();
        for (rid, idx, due) in routed {
            let Some(rule) = rules.get_mut(&rid) else {
                continue;
            };
            if !rule.enabled {
                continue;
            }
            EngineCounters::bump(&fanout.stats.notifications);
            rule.stats.notifications += 1;
            let slot = arena.get_mut(rule.slot);
            if let Some(touched) = touched.as_deref_mut() {
                if !slot.detector.in_txn() {
                    slot.detector.begin_txn();
                    touched.push(rule.slot);
                }
            }
            let completions = slot.detector.process_timer(idx, due, next_seq());
            if !completions.is_empty() {
                let target = rule.oid;
                fanout.fire(rule, completions.into_iter(), target, due)?;
            }
        }
        let mut immediate = fanout.immediate;
        self.resolver.order(&mut immediate);
        if let Some(tel) = &self.telemetry {
            tel.observe_timer(Stage::TimerDrain, now, drain_timer, || {
                format!("fires={n_fires}")
            });
        }
        Ok(immediate)
    }

    /// The earliest due instant across all scheduled timers.
    pub fn next_timer_due(&self) -> Option<u64> {
        self.timers.next_due()
    }

    /// Number of scheduled timers.
    pub fn timer_count(&self) -> usize {
        self.timers.len()
    }

    /// Snapshot of every scheduled timer, with its owning rule's name
    /// resolved — the `timers` meta relation.
    pub fn timer_rows(&self) -> Vec<(TimerRow, Option<Arc<str>>)> {
        self.timers
            .rows()
            .into_iter()
            .map(|row| {
                let name = self
                    .timer_routes
                    .get(&row.id)
                    .and_then(|(rid, _)| self.rules.get(rid))
                    .map(|r| r.name.clone());
                (row, name)
            })
            .collect()
    }

    /// Drain the deferred queue (at commit), in execution order.
    pub fn take_deferred(&mut self) -> Vec<ReadyFiring> {
        let mut out = std::mem::take(&mut self.deferred);
        self.resolver.order(&mut out);
        out
    }

    /// Drain the detached queue (after commit), in execution order.
    pub fn take_detached(&mut self) -> Vec<ReadyFiring> {
        let n = self.detached.len();
        self.drain_detached_front(n)
    }

    /// Drain only the *overflow*: the oldest firings beyond `cap`, in
    /// execution order. The commit path uses this under
    /// [`BackpressurePolicy::Block`] to bring a transiently over-full
    /// queue back to its cap before acknowledging the commit.
    pub fn take_detached_over(&mut self, cap: usize) -> Vec<ReadyFiring> {
        let n = self.detached.len().saturating_sub(cap);
        self.drain_detached_front(n)
    }

    fn drain_detached_front(&mut self, n: usize) -> Vec<ReadyFiring> {
        let mut out = Vec::with_capacity(n);
        for q in self.detached.drain(..n) {
            if let Some(tel) = &self.telemetry {
                let waited = q.queued.elapsed().as_nanos() as u64;
                let name = q.ready.firing.rule_name.clone();
                tel.observe(
                    Stage::DetachedQueueWait,
                    q.ready.firing.occurrence.end,
                    waited,
                    || name.to_string(),
                );
            }
            out.push(q.ready);
        }
        self.detached_floor = self.detached_floor.min(self.detached.len());
        self.resolver.order(&mut out);
        out
    }

    /// Throw away the aborting transaction's queued work: its deferred
    /// firings die with it, and the detached firings *it* scheduled
    /// belong to a commit that never happened. Detached work queued by
    /// earlier committed transactions (before
    /// [`begin_capture`](Self::begin_capture)) survives.
    pub fn discard_pending(&mut self) {
        self.deferred.clear();
        self.detached.truncate(self.detached_floor);
    }

    /// Bound the detached queue at `cap` entries with the given
    /// overflow policy. Defaults to an unbounded blocking queue.
    pub fn set_detached_queue(&mut self, cap: usize, policy: BackpressurePolicy) {
        self.detached_cap = cap.max(1);
        self.detached_policy = policy;
    }

    /// The detached queue's capacity.
    pub fn detached_cap(&self) -> usize {
        self.detached_cap
    }

    /// The detached queue's overflow policy.
    pub fn detached_policy(&self) -> BackpressurePolicy {
        self.detached_policy
    }

    /// Pending queue sizes (deferred, detached).
    pub fn pending(&self) -> (usize, usize) {
        (self.deferred.len(), self.detached.len())
    }

    /// Engine-wide counters.
    pub fn stats(&self) -> EngineStats {
        self.stats.snapshot()
    }

    /// Shared handle to the live counters (read concurrently by stats
    /// exporters without going through the engine).
    pub fn counters(&self) -> Arc<EngineCounters> {
        Arc::clone(&self.stats)
    }

    /// Reset engine-wide counters (benchmark warm-up).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        for r in self.rules.values_mut() {
            r.stats = RuleStats::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::{ACTION_NOOP, COND_TRUE};
    use sentinel_events::{EventExpr, EventModifier, PrimitiveEventSpec};
    use sentinel_object::{ClassDecl, Value};
    use std::sync::Arc;

    fn registry() -> ClassRegistry {
        let mut reg = ClassRegistry::new();
        reg.define(ClassDecl::reactive("Stock").method("SetPrice", &[]))
            .unwrap();
        reg.define(ClassDecl::reactive("Index").method("SetValue", &[]))
            .unwrap();
        reg
    }

    fn occ(
        reg: &ClassRegistry,
        at: u64,
        oid: u64,
        class: &str,
        method: &str,
    ) -> PrimitiveOccurrence {
        let cid = reg.id_of(class).unwrap();
        PrimitiveOccurrence {
            at,
            oid: Oid(oid),
            class: cid,
            owner: cid,
            method: method.into(),
            modifier: EventModifier::End,
            params: Arc::from(vec![Value::Int(at as i64)]),
        }
    }

    fn simple_rule(name: &str) -> RuleDef {
        RuleDef::new(
            name,
            EventExpr::primitive(PrimitiveEventSpec::end("Stock", "SetPrice")),
            ACTION_NOOP,
        )
    }

    #[test]
    fn only_subscribed_rules_are_notified() {
        let reg = registry();
        let mut eng = RuleEngine::new();
        let r1 = eng.add_rule(simple_rule("r1"), Oid::NIL, &reg).unwrap();
        let _r2 = eng.add_rule(simple_rule("r2"), Oid::NIL, &reg).unwrap();
        eng.subscriptions.subscribe_object(Oid(1), r1);

        let fired = eng
            .on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
            .unwrap();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].firing.rule, r1);
        // Exactly one notification delivered: r2 was never checked.
        assert_eq!(eng.stats().notifications, 1);
        assert_eq!(eng.rule(r1).unwrap().stats.triggered, 1);
    }

    #[test]
    fn inter_object_conjunction_spanning_classes() {
        // The paper's Purchase rule shape: IBM!SetPrice && DowJones!SetValue.
        let reg = registry();
        let mut eng = RuleEngine::new();
        let e = EventExpr::primitive(PrimitiveEventSpec::end("Stock", "SetPrice")).and(
            EventExpr::primitive(PrimitiveEventSpec::end("Index", "SetValue")),
        );
        let r = eng
            .add_rule(RuleDef::new("Purchase", e, ACTION_NOOP), Oid::NIL, &reg)
            .unwrap();
        let ibm = Oid(10);
        let dj = Oid(20);
        eng.subscriptions.subscribe_object(ibm, r);
        eng.subscriptions.subscribe_object(dj, r);

        assert!(eng
            .on_occurrence(&reg, &occ(&reg, 1, 10, "Stock", "SetPrice"))
            .unwrap()
            .is_empty());
        let fired = eng
            .on_occurrence(&reg, &occ(&reg, 2, 20, "Index", "SetValue"))
            .unwrap();
        assert_eq!(fired.len(), 1);
        let f = &fired[0].firing;
        assert!(f.occurrence.constituent_of(ibm).is_some());
        assert!(f.occurrence.constituent_of(dj).is_some());
    }

    #[test]
    fn events_from_unsubscribed_objects_are_invisible() {
        // A second Stock instance the rule did not subscribe to must not
        // complete the rule's event (instance-level monitoring).
        let reg = registry();
        let mut eng = RuleEngine::new();
        let r = eng.add_rule(simple_rule("r"), Oid::NIL, &reg).unwrap();
        eng.subscriptions.subscribe_object(Oid(1), r);
        let fired = eng
            .on_occurrence(&reg, &occ(&reg, 1, 2, "Stock", "SetPrice"))
            .unwrap();
        assert!(fired.is_empty());
        assert_eq!(eng.stats().notifications, 0);
    }

    #[test]
    fn coupling_modes_route_to_queues() {
        let reg = registry();
        let mut eng = RuleEngine::new();
        let ri = eng.add_rule(simple_rule("imm"), Oid::NIL, &reg).unwrap();
        let rd = eng
            .add_rule(
                simple_rule("def").coupling(CouplingMode::Deferred),
                Oid::NIL,
                &reg,
            )
            .unwrap();
        let rx = eng
            .add_rule(
                simple_rule("det").coupling(CouplingMode::Detached),
                Oid::NIL,
                &reg,
            )
            .unwrap();
        for r in [ri, rd, rx] {
            eng.subscriptions.subscribe_object(Oid(1), r);
        }
        let fired = eng
            .on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
            .unwrap();
        assert_eq!(fired.len(), 1);
        assert_eq!(eng.pending(), (1, 1));
        let d = eng.take_deferred();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].firing.rule, rd);
        let x = eng.take_detached();
        assert_eq!(x[0].firing.rule, rx);
        assert_eq!(eng.pending(), (0, 0));
    }

    #[test]
    fn discard_pending_on_abort() {
        let reg = registry();
        let mut eng = RuleEngine::new();
        let rd = eng
            .add_rule(
                simple_rule("def").coupling(CouplingMode::Deferred),
                Oid::NIL,
                &reg,
            )
            .unwrap();
        eng.subscriptions.subscribe_object(Oid(1), rd);
        eng.on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
            .unwrap();
        assert_eq!(eng.pending(), (1, 0));
        eng.discard_pending();
        assert_eq!(eng.pending(), (0, 0));
    }

    fn detached_engine(reg: &ClassRegistry) -> RuleEngine {
        let mut eng = RuleEngine::new();
        let r = eng
            .add_rule(
                simple_rule("det").coupling(CouplingMode::Detached),
                Oid::NIL,
                reg,
            )
            .unwrap();
        eng.subscriptions.subscribe_object(Oid(1), r);
        eng
    }

    #[test]
    fn shed_policy_caps_the_detached_queue() {
        let reg = registry();
        let mut eng = detached_engine(&reg);
        eng.set_detached_queue(3, BackpressurePolicy::Shed);
        for at in 0..10 {
            eng.on_occurrence(&reg, &occ(&reg, at, 1, "Stock", "SetPrice"))
                .unwrap();
        }
        assert_eq!(eng.pending(), (0, 3), "queue never exceeds its cap");
        assert_eq!(eng.stats().detached, 3, "only admitted firings counted");
        assert_eq!(eng.stats().detached_shed, 7, "the overflow is visible");
        assert_eq!(eng.take_detached().len(), 3);
    }

    #[test]
    fn block_policy_admits_overflow_for_the_committer_to_drain() {
        let reg = registry();
        let mut eng = detached_engine(&reg);
        eng.set_detached_queue(3, BackpressurePolicy::Block);
        for at in 0..10 {
            eng.on_occurrence(&reg, &occ(&reg, at, 1, "Stock", "SetPrice"))
                .unwrap();
        }
        assert_eq!(eng.pending(), (0, 10), "block admits transient overflow");
        assert_eq!(eng.stats().detached_shed, 0);
        // The committer drains the overflow, oldest first, back to cap.
        let over = eng.take_detached_over(3);
        assert_eq!(over.len(), 7);
        assert_eq!(over[0].firing.occurrence.end, 0);
        assert_eq!(eng.pending(), (0, 3));
        assert_eq!(eng.take_detached_over(3).len(), 0);
    }

    #[test]
    fn abort_keeps_detached_work_of_earlier_transactions() {
        let reg = registry();
        let mut eng = detached_engine(&reg);
        // Transaction 1 commits with one detached firing queued.
        eng.begin_capture();
        eng.on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
            .unwrap();
        eng.commit_capture();
        assert_eq!(eng.pending(), (0, 1));
        // Transaction 2 queues another and aborts: only its own firing
        // is discarded.
        eng.begin_capture();
        eng.on_occurrence(&reg, &occ(&reg, 2, 1, "Stock", "SetPrice"))
            .unwrap();
        assert_eq!(eng.pending(), (0, 2));
        eng.discard_pending();
        eng.abort_capture();
        assert_eq!(eng.pending(), (0, 1));
        assert_eq!(eng.take_detached()[0].firing.occurrence.end, 1);
    }

    #[test]
    fn disabled_rule_neither_notified_nor_retains_state() {
        let reg = registry();
        let mut eng = RuleEngine::new();
        let e = EventExpr::primitive(PrimitiveEventSpec::end("Stock", "SetPrice")).and(
            EventExpr::primitive(PrimitiveEventSpec::end("Index", "SetValue")),
        );
        let r = eng
            .add_rule(RuleDef::new("r", e, ACTION_NOOP), Oid::NIL, &reg)
            .unwrap();
        eng.subscriptions.subscribe_object(Oid(1), r);
        eng.subscriptions.subscribe_object(Oid(2), r);
        // Buffer a left constituent, then disable: state must be dropped.
        eng.on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
            .unwrap();
        eng.disable(r).unwrap();
        eng.on_occurrence(&reg, &occ(&reg, 2, 2, "Index", "SetValue"))
            .unwrap();
        eng.enable(r).unwrap();
        // After re-enable, the old left must not pair.
        let fired = eng
            .on_occurrence(&reg, &occ(&reg, 3, 2, "Index", "SetValue"))
            .unwrap();
        assert!(fired.is_empty());
        assert_eq!(eng.rule(r).unwrap().stats.notifications, 2);
    }

    #[test]
    fn duplicate_names_and_missing_bodies_rejected() {
        let reg = registry();
        let mut eng = RuleEngine::new();
        eng.add_rule(simple_rule("r"), Oid::NIL, &reg).unwrap();
        assert!(matches!(
            eng.add_rule(simple_rule("r"), Oid::NIL, &reg),
            Err(ObjectError::DuplicateRule(_))
        ));
        let bad = simple_rule("bad").condition("never-registered");
        assert!(matches!(
            eng.add_rule(bad, Oid::NIL, &reg),
            Err(ObjectError::BodyNotRegistered {
                kind: "condition",
                ..
            })
        ));
        let mut bad = simple_rule("bad2");
        bad.action = "never-registered".into();
        assert!(matches!(
            eng.add_rule(bad, Oid::NIL, &reg),
            Err(ObjectError::BodyNotRegistered { kind: "action", .. })
        ));
    }

    /// Regression: a rule whose bodies are still missing at fire time
    /// (the `add_rule_unchecked` recovery path) must error cleanly with
    /// `BodyNotRegistered` when its event arrives — never panic inside
    /// dispatch.
    #[test]
    fn missing_body_at_fire_time_errors_cleanly() {
        let reg = registry();
        let mut eng = RuleEngine::new();
        let r = eng
            .add_rule_unchecked(
                simple_rule("orphan").condition("not-yet-registered"),
                Oid::NIL,
                &reg,
            )
            .unwrap();
        eng.subscriptions.subscribe_object(Oid(1), r);
        let err = eng
            .on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
            .unwrap_err();
        assert!(matches!(
            err,
            ObjectError::BodyNotRegistered {
                kind: "condition",
                ..
            }
        ));
        // Registering the body afterwards (recovery completing) heals
        // the rule: the next occurrence resolves and fires.
        eng.bodies
            .register_condition("not-yet-registered", |_, _| Ok(true));
        let fired = eng
            .on_occurrence(&reg, &occ(&reg, 2, 1, "Stock", "SetPrice"))
            .unwrap();
        assert_eq!(fired.len(), 1);
    }

    #[test]
    fn remove_rule_clears_subscriptions_and_name() {
        let reg = registry();
        let mut eng = RuleEngine::new();
        let r = eng.add_rule(simple_rule("r"), Oid::NIL, &reg).unwrap();
        eng.subscriptions.subscribe_object(Oid(1), r);
        let def = eng.remove_rule(r).unwrap();
        assert_eq!(def.name, "r");
        assert!(eng.id_of("r").is_err());
        // Occurrence delivery hits no rules.
        let fired = eng
            .on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
            .unwrap();
        assert!(fired.is_empty());
        // Name is reusable after removal.
        eng.add_rule(simple_rule("r"), Oid::NIL, &reg).unwrap();
    }

    #[test]
    fn priority_resolver_orders_simultaneous_firings() {
        let reg = registry();
        let mut eng = RuleEngine::new();
        eng.set_resolver(Box::new(crate::conflict::PriorityResolver));
        let lo = eng
            .add_rule(simple_rule("lo").priority(1), Oid::NIL, &reg)
            .unwrap();
        let hi = eng
            .add_rule(simple_rule("hi").priority(10), Oid::NIL, &reg)
            .unwrap();
        eng.subscriptions.subscribe_object(Oid(1), lo);
        eng.subscriptions.subscribe_object(Oid(1), hi);
        let fired = eng
            .on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
            .unwrap();
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[0].firing.rule, hi);
        assert_eq!(fired[1].firing.rule, lo);
    }

    #[test]
    fn class_subscription_fires_for_every_instance() {
        let reg = registry();
        let mut eng = RuleEngine::new();
        let r = eng
            .add_rule(simple_rule("class-rule"), Oid::NIL, &reg)
            .unwrap();
        eng.subscriptions
            .subscribe_class(reg.id_of("Stock").unwrap(), r);
        for oid in [1, 2, 3] {
            let fired = eng
                .on_occurrence(&reg, &occ(&reg, oid, oid, "Stock", "SetPrice"))
                .unwrap();
            assert_eq!(fired.len(), 1, "instance {oid}");
        }
        assert_eq!(eng.rule(r).unwrap().stats.triggered, 3);
    }

    #[test]
    fn timer_rules_fire_from_the_drain_without_subscriptions() {
        let reg = registry();
        let mut eng = RuleEngine::new();
        let r = eng
            .add_rule(
                RuleDef::new("tick", EventExpr::every(10), ACTION_NOOP),
                Oid::NIL,
                &reg,
            )
            .unwrap();
        assert_eq!(eng.timer_count(), 1);
        let mut seq = 100u64;
        let fired = eng
            .drain_timers(25, || {
                seq += 1;
                seq
            })
            .unwrap();
        // Boundaries 10 and 20 elapsed: two firings, in due order.
        assert_eq!(fired.len(), 2);
        assert!(fired.iter().all(|f| f.firing.rule == r));
        assert_eq!(fired[0].firing.occurrence.end, 101);
        assert_eq!(fired[1].firing.occurrence.end, 102);
        assert_eq!(eng.rule(r).unwrap().stats.triggered, 2);
        // Nothing new due yet.
        assert!(eng.drain_timers(29, || 0).unwrap().is_empty());
    }

    #[test]
    fn timer_rules_keep_private_detectors() {
        // Each rule's wheel entries feed its own detector, so two
        // identical timer-bearing rules never share one; two identical
        // event-only rules do.
        let reg = registry();
        let mut eng = RuleEngine::new();
        let windowed = EventExpr::primitive(PrimitiveEventSpec::end("Stock", "SetPrice"))
            .then(EventExpr::every(10));
        for name in ["t1", "t2"] {
            let r = eng
                .add_rule(
                    RuleDef::new(name, windowed.clone(), ACTION_NOOP),
                    Oid::NIL,
                    &reg,
                )
                .unwrap();
            eng.subscriptions.subscribe_object(Oid(1), r);
        }
        for name in ["p1", "p2"] {
            let r = eng.add_rule(simple_rule(name), Oid::NIL, &reg).unwrap();
            eng.subscriptions.subscribe_object(Oid(1), r);
        }
        eng.on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
            .unwrap();
        assert_eq!(eng.detector_count(), 3);
        assert_eq!(eng.stats().notifications, 3);
    }

    #[test]
    fn disable_cancels_timers_and_enable_reschedules() {
        let reg = registry();
        let mut eng = RuleEngine::new();
        let r = eng
            .add_rule(
                RuleDef::new("tick", EventExpr::every(10), ACTION_NOOP),
                Oid::NIL,
                &reg,
            )
            .unwrap();
        eng.disable(r).unwrap();
        assert_eq!(eng.timer_count(), 0);
        assert!(eng.drain_timers(50, || 1).unwrap().is_empty());
        // Re-enabling schedules at the next boundary after the cursor —
        // the elapsed periods are not replayed.
        eng.enable(r).unwrap();
        assert_eq!(eng.timer_count(), 1);
        let mut seq = 0u64;
        let fired = eng
            .drain_timers(60, || {
                seq += 1;
                seq
            })
            .unwrap();
        assert_eq!(fired.len(), 1);
        let rows = eng.timer_rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1.as_deref(), Some("tick"));
        assert_eq!(rows[0].0.due, 70);
    }

    #[test]
    fn timer_fires_in_aborted_transactions_roll_back() {
        // An `m ; every(10)` rule under Chronicle: a tick consumed the
        // buffered left inside a transaction that aborts — the left must
        // be re-armed for the next tick.
        let reg = registry();
        let mut eng = RuleEngine::new();
        let e = EventExpr::primitive(PrimitiveEventSpec::end("Stock", "SetPrice"))
            .then(EventExpr::every(10));
        let r = eng
            .add_rule(
                RuleDef::new("windowed", e, ACTION_NOOP)
                    .consume(sentinel_events::ParamContext::Chronicle),
                Oid::NIL,
                &reg,
            )
            .unwrap();
        eng.subscriptions.subscribe_object(Oid(1), r);
        eng.on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
            .unwrap();
        eng.begin_capture();
        let mut seq = 1u64;
        let fired = eng
            .drain_timers(10, || {
                seq += 1;
                seq
            })
            .unwrap();
        assert_eq!(fired.len(), 1);
        eng.discard_pending();
        eng.abort_capture();
        let fired = eng
            .drain_timers(20, || {
                seq += 1;
                seq
            })
            .unwrap();
        assert_eq!(fired.len(), 1, "left re-armed after abort");
    }

    #[test]
    fn condition_true_builtin_used() {
        let reg = registry();
        let mut eng = RuleEngine::new();
        let r = eng.add_rule(simple_rule("r"), Oid::NIL, &reg).unwrap();
        assert_eq!(eng.rule(r).unwrap().def.condition, COND_TRUE);
    }
}
