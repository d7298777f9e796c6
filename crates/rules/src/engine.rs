//! The rule engine: detection fan-out and firing scheduling.
//!
//! Figure 2 of the paper: reactive objects propagate primitive events to
//! the notifiable objects subscribed to them; each rule passes the events
//! to its local detector; when the detector signals, the rule checks its
//! condition and runs its action. This engine implements everything up
//! to (but not including) body execution: the database facade executes
//! the [`FiringBatch`]es the engine hands back, because execution needs
//! the full `World`, which owns the engine.
//!
//! A batch holds each detection once and one handle on the table of
//! rule bindings it was scheduled under; its firings are a few indices
//! into both. Executing a firing borrows its [`Firing`] from the batch,
//! so the send → detect → fire path clones no reference count per
//! firing, and batches go back to the engine to be reused.
//!
//! Detectors live in an engine-owned arena, not in the rules. Rules whose
//! detectors could never be told apart — same event, context, caps and
//! subscriptions, same partial state — share one arena slot, so a
//! composite event is detected once per occurrence however many rules
//! consume it (events as first-class notifiable objects, Figures 5–6).

use crate::body::{BoundBodies, Firing, Lineage, RuleBodyRegistry};
use crate::coupling::CouplingMode;
use crate::rule::{Rule, RuleCounts, RuleDef, RuleId};
use crate::subscription::SubscriptionManager;
use sentinel_events::{
    CompositeOccurrence, DetectorCaps, DetectorInstance, EventExpr, ParamContext,
    PrimitiveOccurrence, TimeSource, TimerId, TimerRow, TimerWheel,
};
use sentinel_object::{ClassId, ClassRegistry, EventSym, FastMap, ObjectError, Oid, Result};
use sentinel_telemetry::{
    Fact, FactCounts, FiringCoupling, FiringId, FiringOutcome, FiringRecord, Stage, Telemetry,
    Timer,
};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// What a firing runs and reports under: its rule's name and bound
/// bodies, as of the scheduling that made it.
#[derive(Clone)]
struct Binding {
    name: Arc<str>,
    bodies: Arc<BoundBodies>,
}

/// The binding of every rule place, as of one engine epoch and
/// body-registry version. Immutable once built: a batch holds the table
/// it was scheduled under, so an earlier firing's action that changes
/// the catalog cannot change what a later firing of the batch runs.
#[derive(Default)]
struct BindingTable {
    /// `(engine epoch, body-registry version)` the table was built at;
    /// `None` before the first build.
    stamp: Option<(u64, u64)>,
    /// By rule place; `None` for a free place, or while a rule's bodies
    /// are not registered (its firing then fails with the lookup error).
    entries: Vec<Option<Binding>>,
}

/// A triggered rule, ready to run: indices into the batch that holds
/// its detection and into the binding table of its rule, plus its
/// lineage. A queued firing whose table was replaced since it was
/// scheduled carries a copy of its binding instead (it is *pinned*), so
/// it still runs the bodies bound when it was scheduled.
#[derive(Clone)]
pub struct ReadyFiring {
    /// The coupling mode the firing was scheduled under (recorded into
    /// its lineage record by the executor).
    pub coupling: CouplingMode,
    /// The triggered rule.
    pub rule: RuleId,
    /// Causal coordinates (meaningful only while firing history is
    /// enabled).
    pub lineage: Lineage,
    /// The rule's place in the engine's rule table. A place is reused
    /// after its rule is removed, so it is only trusted together with
    /// `rule`.
    index: RuleIdx,
    /// The detection's place in its batch's occurrences.
    occurrence: u32,
    pinned: Option<Box<Binding>>,
}

impl ReadyFiring {
    /// The rule's place in the engine's rule table when the firing was
    /// scheduled (see [`RuleEngine::iter_rules_indexed`]). A place is
    /// reused after its rule is removed, so it identifies the rule only
    /// together with `rule`.
    pub fn rule_index(&self) -> usize {
        self.index
    }

    /// The binding the firing runs under: its pinned copy, or its place
    /// in `table`.
    fn binding<'a>(&'a self, table: &'a BindingTable) -> &'a Binding {
        match &self.pinned {
            Some(b) => b,
            None => table.entries[self.index]
                .as_ref()
                .expect("a firing is scheduled only under a bound rule"),
        }
    }
}

impl std::fmt::Debug for ReadyFiring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadyFiring")
            .field("rule", &self.rule)
            .field("coupling", &self.coupling)
            .finish_non_exhaustive()
    }
}

/// Firings ready to run, in execution order, with what they run on:
/// each detection they consume, once, and the binding table they were
/// scheduled under. Returned by [`RuleEngine::on_occurrence`],
/// [`RuleEngine::drain_timers`] and the `take_*` queue drains; hand an
/// executed batch back through [`RuleEngine::recycle`] so its buffers
/// are reused.
#[derive(Default)]
pub struct FiringBatch {
    firings: Vec<ReadyFiring>,
    occurrences: Vec<Arc<CompositeOccurrence>>,
    bindings: Option<Arc<BindingTable>>,
}

impl FiringBatch {
    /// Number of firings.
    pub fn len(&self) -> usize {
        self.firings.len()
    }

    /// No firings?
    pub fn is_empty(&self) -> bool {
        self.firings.is_empty()
    }

    /// The `i`-th firing, borrowed with its bodies and detection.
    pub fn get(&self, i: usize) -> Option<ReadyRef<'_>> {
        let f = self.firings.get(i)?;
        let binding = f.binding(
            self.bindings
                .as_ref()
                .expect("a batch with firings is bound"),
        );
        Some(ReadyRef {
            coupling: f.coupling,
            bodies: &binding.bodies,
            firing: Firing {
                rule: f.rule,
                rule_name: &binding.name,
                occurrence: &self.occurrences[f.occurrence as usize],
                lineage: f.lineage,
            },
            index: f.index,
        })
    }

    /// The firings in execution order, each borrowed with its bodies
    /// and detection.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = ReadyRef<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i).expect("in range"))
    }

    /// Bind to `table` and make room for `n` more firings.
    fn open(&mut self, table: &Arc<BindingTable>, n: usize) {
        if self.bindings.is_none() {
            self.bindings = Some(Arc::clone(table));
        }
        self.firings.reserve(n);
    }
}

impl std::fmt::Debug for FiringBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(&self.firings).finish()
    }
}

/// One firing of a [`FiringBatch`], borrowed from it: what the executor
/// needs to run the firing and account for it.
#[derive(Clone, Copy)]
pub struct ReadyRef<'a> {
    /// The coupling mode the firing was scheduled under.
    pub coupling: CouplingMode,
    /// The rule's condition and action as bound when the firing was
    /// scheduled: a queued firing runs these even if its rule has been
    /// redefined or removed since.
    pub bodies: &'a BoundBodies,
    /// What the bodies see: the rule and the detection.
    pub firing: Firing<'a>,
    index: RuleIdx,
}

impl ReadyRef<'_> {
    /// See [`ReadyFiring::rule_index`].
    pub fn rule_index(&self) -> usize {
        self.index
    }
}

impl std::fmt::Debug for ReadyRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadyRef")
            .field("rule", &self.firing.rule)
            .field("name", &self.firing.rule_name)
            .finish()
    }
}

/// A detached firing waiting in the queue with its own handle on its
/// detection, stamped with its enqueue time so the drain can report
/// queue-wait latency (`detached_queue_wait`).
struct QueuedDetached {
    ready: ReadyFiring,
    occurrence: Arc<CompositeOccurrence>,
    queued: std::time::Instant,
}

/// One detection a slot completed during an occurrence, wrapped once,
/// with its place in the immediate batch and in the deferred queue once
/// a member has fired on it there.
struct Shared {
    occ: Arc<CompositeOccurrence>,
    immediate: Option<u32>,
    deferred: Option<u32>,
}

impl Shared {
    fn new(occ: CompositeOccurrence) -> Self {
        Shared {
            occ: Arc::new(occ),
            immediate: None,
            deferred: None,
        }
    }
}

/// Emptied batches the engine keeps for reuse; more are dropped.
const SPARE_BATCHES: usize = 8;

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

/// Engine-wide counters (the root `paper_claims` test asserts on them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Primitive occurrences offered to the engine.
    pub occurrences: u64,
    /// Deliveries of an occurrence (or timer fire) to a detector — the
    /// "rule checking" work the subscription mechanism minimises. Rules
    /// sharing a detector count one delivery between them; each rule's
    /// own [`RuleStats::notifications`](crate::RuleStats::notifications)
    /// still counts every delivery it heard.
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

impl EngineStats {
    /// The engine's counts in a cut of the fact table.
    pub fn read(facts: &FactCounts) -> Self {
        EngineStats {
            occurrences: facts.get(Fact::Occurrences),
            notifications: facts.get(Fact::Notifications),
            immediate: facts.get(Fact::Immediate),
            deferred: facts.get(Fact::Deferred),
            detached: facts.get(Fact::Detached),
            detached_shed: facts.get(Fact::DetachedShed),
        }
    }
}

/// Index of a [`Slot`] in the detector arena.
type SlotId = usize;

/// Index of a [`Rule`] in the engine's rule table.
type RuleIdx = usize;

/// One detector and the rules it detects for. Every member has the same
/// [`ShareKey`], so each would have received the same deliveries into
/// the same state had it kept a private detector.
struct Slot {
    detector: DetectorInstance,
    /// Member rules in firing order.
    members: Vec<RuleIdx>,
    /// Each member's firing rank, as of the last routing rebuild.
    ranks: Vec<u32>,
}

impl Slot {
    fn new(detector: DetectorInstance, members: Vec<RuleIdx>) -> Self {
        Slot {
            detector,
            members,
            ranks: Vec::new(),
        }
    }
}

/// A slot whose detector completed during one occurrence: its
/// completions, as a range of the engine's shared-occurrence scratch,
/// and its next member to fire.
struct Completed {
    slot: SlotId,
    occurrences: std::ops::Range<usize>,
    next: usize,
}

/// Where a rule fires among co-triggered rules: higher priority first,
/// then lower rule-object oid (so a rule re-instantiated under a fresh
/// [`RuleId`] keeps its place), then lower `RuleId` — insertion order
/// among storeless rules, which all carry [`Oid::NIL`].
fn firing_key(rule: &Rule) -> (Reverse<i32>, Oid, RuleId) {
    (Reverse(rule.def.priority), rule.oid, rule.id)
}

/// A dense table: entries addressed by index, freed indices reused, so
/// churn leaves no holes behind. Holds the detector arena and the rules.
struct Slab<T> {
    entries: Vec<Option<T>>,
    free: Vec<usize>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    fn insert(&mut self, value: T) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.entries[i] = Some(value);
                i
            }
            None => {
                self.entries.push(Some(value));
                self.entries.len() - 1
            }
        }
    }

    fn remove(&mut self, i: usize) -> T {
        self.free.push(i);
        self.entries[i].take().expect("live entry")
    }

    fn get(&self, i: usize) -> &T {
        self.entries[i].as_ref().expect("live entry")
    }

    fn get_mut(&mut self, i: usize) -> &mut T {
        self.entries[i].as_mut().expect("live entry")
    }

    fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    fn live(&self) -> impl Iterator<Item = (usize, &T)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| Some((i, e.as_ref()?)))
    }

    fn live_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.entries.iter_mut().flatten()
    }
}

/// A detector a rule lost inside the capture in flight, to
/// [`remove_rule`](RuleEngine::remove_rule) or to a new event in
/// [`redefine`](RuleEngine::redefine). A rollback that brings rule
/// object `oid` back to `event` and `context` takes it back, open
/// journal and all, so the abort restores its partial detections.
struct Retired {
    oid: Oid,
    event: EventExpr,
    context: ParamContext,
    detector: DetectorInstance,
    counts: RuleCounts,
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
    by_object: FastMap<(Oid, EventSym), Vec<SlotId>>,
    /// Instance subscriptions of unbounded (broad) slots.
    broad_by_object: FastMap<Oid, Vec<SlotId>>,
    /// Class subscriptions of symbol-bounded slots. A symbol names its
    /// dynamic class, so subclass closure is resolved at build time and
    /// dispatch is a single lookup — no linearization walk.
    by_class_sym: FastMap<EventSym, Vec<SlotId>>,
    /// Class subscriptions of unbounded slots, looked up along the
    /// occurrence's class linearization (only when non-empty).
    broad_by_class: FastMap<ClassId, Vec<SlotId>>,
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
    bindings: &'a Arc<BindingTable>,
    history: bool,
    lineage_ctx: Option<(u64, u64, u32)>,
    immediate: FiringBatch,
    spare: &'a mut Vec<FiringBatch>,
    deferred: &'a mut Vec<ReadyFiring>,
    deferred_occ: &'a mut Vec<Arc<CompositeOccurrence>>,
    detached: &'a mut VecDeque<QueuedDetached>,
    detached_cap: usize,
    detached_policy: BackpressurePolicy,
    facts: &'a mut FactCounts,
    telemetry: &'a Option<Arc<Telemetry>>,
}

impl Fanout<'_> {
    /// Count one delivery to `slot` (place `sid`) — once engine-wide,
    /// and once for each enabled rule it serves — and open the slot's
    /// undo journal if a capture is in flight. Returns how many of those
    /// rules fire immediately.
    fn notify(
        &mut self,
        slot: &mut Slot,
        sid: SlotId,
        rules: &mut Slab<Rule>,
        touched: Option<&mut Vec<SlotId>>,
    ) -> usize {
        self.facts.bump(Fact::Notifications);
        if let Some(touched) = touched {
            if !slot.detector.in_txn() {
                slot.detector.begin_txn();
                touched.push(sid);
            }
        }
        let mut immediate = 0;
        for &at in &slot.members {
            let rule = rules.get_mut(at);
            if rule.enabled {
                rule.counts.notifications += 1;
                immediate += usize::from(rule.def.coupling == CouplingMode::Immediate);
            }
        }
        immediate
    }

    /// Make room for `n` immediate firings in one allocation at most,
    /// reusing a spare batch.
    fn reserve_immediate(&mut self, n: usize) {
        if n > 0 && self.immediate.bindings.is_none() {
            self.immediate = self.spare.pop().unwrap_or_default();
        }
        self.immediate.open(self.bindings, n);
    }

    /// Schedule the firings of rule `index` for the detections its
    /// detector completed: stamp lineage, and route each firing by the
    /// rule's coupling mode. Fails, as the body lookup does, while the
    /// rule's bodies are not registered.
    fn fire(
        &mut self,
        index: RuleIdx,
        rule: &mut Rule,
        completions: &mut [Shared],
        target: Oid,
        at: u64,
    ) -> Result<()> {
        rule.counts.triggered += completions.len() as u64;
        if self.bindings.entries[index].is_none() {
            self.bodies.bind(&rule.def.condition, &rule.def.action)?;
        }
        for shared in completions {
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
                        root: shared.occ.end,
                        depth: 0,
                    },
                }
            } else {
                Lineage::default()
            };
            let ready = ReadyFiring {
                coupling: rule.def.coupling,
                rule: rule.id,
                lineage,
                index,
                occurrence: 0,
                pinned: None,
            };
            self.route(ready, shared, &rule.name, target, at);
        }
        Ok(())
    }

    /// Route one ready firing to its coupling destination — the immediate
    /// batch, the deferred queue, or the (bounded) detached queue. The
    /// batch and the deferred queue each take the detection once.
    fn route(
        &mut self,
        mut ready: ReadyFiring,
        shared: &mut Shared,
        rule_name: &Arc<str>,
        target: Oid,
        at: u64,
    ) {
        let stage = match ready.coupling {
            CouplingMode::Immediate => {
                self.facts.bump(Fact::Immediate);
                if self.immediate.bindings.is_none() {
                    self.reserve_immediate(1);
                }
                let batch = &mut self.immediate;
                ready.occurrence = *shared.immediate.get_or_insert_with(|| {
                    batch.occurrences.push(Arc::clone(&shared.occ));
                    (batch.occurrences.len() - 1) as u32
                });
                batch.firings.push(ready);
                Some(Stage::FiringImmediate)
            }
            CouplingMode::Deferred => {
                self.facts.bump(Fact::Deferred);
                let queue = &mut *self.deferred_occ;
                ready.occurrence = *shared.deferred.get_or_insert_with(|| {
                    queue.push(Arc::clone(&shared.occ));
                    (queue.len() - 1) as u32
                });
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
                    self.facts.bump(Fact::DetachedShed);
                    if let Some(tel) = self.telemetry {
                        let lin = ready.lineage;
                        let end = shared.occ.end;
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
                    self.facts.bump(Fact::Detached);
                    self.detached.push_back(QueuedDetached {
                        ready,
                        occurrence: Arc::clone(&shared.occ),
                        queued: std::time::Instant::now(),
                    });
                    Some(Stage::FiringDetached)
                }
            }
        };
        if let (Some(tel), Some(stage)) = (self.telemetry, stage) {
            // Lazy: the closure runs only when tracing is on.
            tel.trace(stage, at, || rule_name.to_string());
        }
    }
}

/// Detection and scheduling for a set of first-class rules.
pub struct RuleEngine {
    /// The rules, addressed by [`RuleIdx`]: detector slots and queued
    /// firings refer to rules by their place here.
    rules: Slab<Rule>,
    /// Each rule's place in `rules`, for the by-id API.
    index: FastMap<RuleId, RuleIdx>,
    by_name: HashMap<String, RuleId>,
    by_oid: HashMap<Oid, RuleId>,
    /// Every rule's event detector, shared between rules whose detectors
    /// would be indistinguishable (see [`ShareKey`]).
    arena: Slab<Slot>,
    /// Named condition/action bodies (the PMF analog).
    pub bodies: RuleBodyRegistry,
    /// The consumer lists connecting rules to reactive objects.
    pub subscriptions: SubscriptionManager,
    caps: DetectorCaps,
    next_rule: u64,
    /// The bindings firings are scheduled under, rebuilt at the first
    /// scheduling after the engine epoch or the body-registry version
    /// moved. Every queued firing that is not pinned refers to it.
    bindings: Arc<BindingTable>,
    /// The deferred queue: its firings, and each detection they consume
    /// once.
    deferred: Vec<ReadyFiring>,
    deferred_occ: Vec<Arc<CompositeOccurrence>>,
    /// Bounded detached-firing queue: each entry remembers when it was
    /// scheduled so the drain can report queue-wait latency.
    detached: VecDeque<QueuedDetached>,
    detached_cap: usize,
    detached_policy: BackpressurePolicy,
    /// Queue length at [`begin_capture`](Self::begin_capture): an abort
    /// discards only the aborting transaction's detached work, not
    /// firings earlier committed transactions already queued.
    detached_floor: usize,
    /// The facts counted since the last publish, in plain cells. With
    /// telemetry attached, the write core publishes them into the
    /// handle's table once per transaction
    /// ([`publish_facts`](Self::publish_facts)); a bare engine keeps
    /// them here.
    facts: FactCounts,
    /// Emptied batches, reused for the next ones.
    spare: Vec<FiringBatch>,
    /// Reused by [`on_occurrence`](Self::on_occurrence): the slots an
    /// occurrence reaches, the ones that completed, and their
    /// completions, each wrapped once for all the rules that consume it.
    scratch: Vec<SlotId>,
    completed: Vec<Completed>,
    shared: Vec<Shared>,
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
    /// Detectors that rules of stored rule objects lost during the
    /// capture in flight; emptied when it ends.
    retired: Vec<Retired>,
    telemetry: Option<Arc<Telemetry>>,
    /// Causal context for firings scheduled by the next occurrence:
    /// `(parent firing id, root occurrence, parent depth)`. Set by the
    /// database facade around each raise while firing history is
    /// enabled; `None` means occurrences start fresh cascades.
    lineage_ctx: Option<(u64, u64, u32)>,
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
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for RuleEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl RuleEngine {
    /// An empty engine with the built-in bodies.
    pub fn new() -> Self {
        RuleEngine {
            rules: Slab::default(),
            index: FastMap::default(),
            by_name: HashMap::new(),
            by_oid: HashMap::new(),
            arena: Slab::default(),
            bodies: RuleBodyRegistry::new(),
            subscriptions: SubscriptionManager::new(),
            caps: DetectorCaps::default(),
            next_rule: 0,
            bindings: Arc::default(),
            deferred: Vec::new(),
            deferred_occ: Vec::new(),
            detached: VecDeque::new(),
            detached_cap: usize::MAX,
            detached_policy: BackpressurePolicy::default(),
            detached_floor: 0,
            facts: FactCounts::default(),
            spare: Vec::new(),
            scratch: Vec::new(),
            completed: Vec::new(),
            shared: Vec::new(),
            routing: None,
            epoch: 0,
            capturing: false,
            touched: Vec::new(),
            retired: Vec::new(),
            telemetry: None,
            lineage_ctx: None,
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
    /// with the name of the (first) rule it serves; rules take their
    /// latency cells from it. The engine's facts are published into the
    /// handle's table from now on.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        for slot in self.arena.live_mut() {
            let name = self.rules.get(slot.members[0]).name.clone();
            slot.detector.set_telemetry(telemetry.clone(), name);
        }
        for rule in self.rules.live_mut() {
            rule.latency = None;
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
        self.retired.clear();
        for sid in self.touched.drain(..) {
            // A slot freed since it was touched has no journal of this
            // transaction left; a slot reused by a reclaimed detector
            // closes that detector's journal.
            if let Some(slot) = self.arena.entries[sid].as_mut() {
                close(&mut slot.detector);
            }
        }
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
        self.check_bodies(&def)?;
        self.add_rule_unchecked(def, oid, registry)
    }

    /// Fail unless `def`'s condition and action bodies are registered.
    pub fn check_bodies(&self, def: &RuleDef) -> Result<()> {
        if !self.bodies.has_condition(&def.condition) {
            return Err(ObjectError::BodyNotRegistered {
                kind: "condition",
                name: def.condition.clone(),
            });
        }
        if !self.bodies.has_action(&def.action) {
            return Err(ObjectError::BodyNotRegistered {
                kind: "action",
                name: def.action.clone(),
            });
        }
        Ok(())
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
        if let Some(retired) = self.reclaim(oid, &rule.def) {
            detector = retired.detector;
            rule.counts = retired.counts;
        }
        rule.bind(&self.bodies);
        if let Some(tel) = &self.telemetry {
            detector.set_telemetry(tel.clone(), rule.name.clone());
        }
        if let Some(time) = &self.time {
            detector.set_time_source(time.clone());
        }
        // Private until the next routing rebuild finds it a group.
        let journaled = detector.in_txn();
        let at = self.rules.insert(rule);
        let sid = self.arena.insert(Slot::new(detector, vec![at]));
        self.rules.get_mut(at).slot = sid;
        if journaled {
            self.touched.push(sid);
        }
        self.index.insert(id, at);
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
        let Ok(rule) = self.rule(id) else {
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
        let ids: Vec<RuleId> = self.iter_rules().map(|r| r.id).collect();
        for id in &ids {
            self.cancel_rule_timers(*id);
        }
        // The wheel is empty; advancing just moves the cursor so the
        // re-registration below aligns periods to the present.
        let _ = self.timers.advance(now);
        for id in ids {
            if self.rule(id).is_ok_and(|r| r.enabled) {
                self.schedule_rule_timers(id);
            }
        }
    }

    /// Delete a rule and all its subscriptions. The rules it shared a
    /// detector with keep it. Inside a capture, a stored rule's detector
    /// is kept for a rollback that adds the rule back.
    pub fn remove_rule(&mut self, id: RuleId) -> Result<RuleDef> {
        let at = self.idx(id)?;
        self.index.remove(&id);
        let rule = self.rules.remove(at);
        let keep = self.will_retire(rule.oid);
        let slot = self.arena.get_mut(rule.slot);
        slot.members.retain(|&m| m != at);
        let detector = if slot.members.is_empty() {
            let detector = self.arena.remove(rule.slot).detector;
            keep.then_some(detector)
        } else {
            keep.then(|| slot.detector.clone())
        };
        if let Some(detector) = detector {
            self.retire(
                rule.oid,
                rule.def.event.clone(),
                rule.def.context,
                detector,
                rule.counts,
            );
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

    /// Give rule `id` a new definition under the same [`RuleId`]. A new
    /// event or parameter context compiles a fresh detector: partial
    /// detections are discarded, as by [`disable`](Self::disable), and
    /// an abort brings them back. Any other change (name, bodies,
    /// coupling, priority) keeps the detector, its open journal, the
    /// rule's stats and its timers. Bodies are not checked.
    pub fn redefine(&mut self, id: RuleId, def: RuleDef, registry: &ClassRegistry) -> Result<()> {
        let rule = self.rule(id)?;
        if def.name != rule.def.name && self.by_name.contains_key(&def.name) {
            return Err(ObjectError::DuplicateRule(def.name));
        }
        let detector = if def.event != rule.def.event || def.context != rule.def.context {
            let oid = rule.oid;
            let detector = match self.reclaim(oid, &def) {
                Some(retired) => retired.detector,
                None => DetectorInstance::compile(&def.event, registry, def.context, self.caps)?,
            };
            self.cancel_rule_timers(id);
            let sid = self.split_off(id)?;
            Some((sid, detector))
        } else {
            None
        };
        let caps = self.caps;
        let rule = self.rules.get_mut(self.idx(id)?);
        if def.name != rule.def.name {
            self.by_name.remove(&rule.def.name);
            self.by_name.insert(def.name.clone(), id);
            rule.name = def.name.as_str().into();
            rule.latency = None;
        }
        let mut retired = None;
        if let Some((sid, mut detector)) = detector {
            if let Some(tel) = &self.telemetry {
                detector.set_telemetry(tel.clone(), rule.name.clone());
            }
            if let Some(time) = &self.time {
                detector.set_time_source(time.clone());
            }
            if detector.in_txn() {
                self.touched.push(sid);
            }
            let old = std::mem::replace(&mut self.arena.get_mut(sid).detector, detector);
            rule.alphabet = def.event.alphabet(registry);
            rule.alphabet_schema_len = registry.len();
            rule.caps = caps;
            retired = Some(old);
        }
        let old = std::mem::replace(&mut rule.def, def);
        rule.bind(&self.bodies);
        let (oid, counts, enabled) = (rule.oid, rule.counts, rule.enabled);
        if let Some(detector) = retired {
            self.retire(oid, old.event, old.context, detector, counts);
            if enabled {
                self.schedule_rule_timers(id);
            }
        }
        // Routing, sharing and any conflict matrix built over the old
        // definition are stale.
        self.epoch += 1;
        Ok(())
    }

    /// Does a detector rule object `oid` loses now go to `retired`?
    fn will_retire(&self, oid: Oid) -> bool {
        self.capturing && !oid.is_nil()
    }

    /// Keep a detector rule object `oid` lost while it had `event` and
    /// `context`, for a rollback to reclaim.
    fn retire(
        &mut self,
        oid: Oid,
        event: EventExpr,
        context: ParamContext,
        detector: DetectorInstance,
        counts: RuleCounts,
    ) {
        if self.will_retire(oid) {
            self.retired.push(Retired {
                oid,
                event,
                context,
                detector,
                counts,
            });
        }
    }

    /// Take back the latest detector rule object `oid` lost while it
    /// had `def`'s event and context.
    fn reclaim(&mut self, oid: Oid, def: &RuleDef) -> Option<Retired> {
        let at = self
            .retired
            .iter()
            .rposition(|r| r.oid == oid && r.event == def.event && r.context == def.context)?;
        Some(self.retired.swap_remove(at))
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

    /// Rule `id`'s place in the rule table.
    fn idx(&self, id: RuleId) -> Result<RuleIdx> {
        self.index
            .get(&id)
            .copied()
            .ok_or_else(|| ObjectError::UnknownRule(format!("{id}")))
    }

    /// Borrow a rule.
    pub fn rule(&self, id: RuleId) -> Result<&Rule> {
        Ok(self.rules.get(self.idx(id)?))
    }

    /// Mutably borrow a rule.
    pub fn rule_mut(&mut self, id: RuleId) -> Result<&mut Rule> {
        let at = self.idx(id)?;
        Ok(self.rules.get_mut(at))
    }

    /// The rule that scheduled `f`, found through the firing's handle
    /// without a lookup by id; `None` once that rule is removed, even if
    /// another rule has since taken its place in the table.
    pub fn rule_of(&self, f: &ReadyRef<'_>) -> Option<&Rule> {
        self.rules.entries[f.index]
            .as_ref()
            .filter(|r| r.id == f.firing.rule)
    }

    /// Count one executed firing — a condition evaluation and, if the
    /// condition held, an action run — engine-wide and on its rule, and
    /// record the body latencies measured while telemetry was enabled
    /// into the `ConditionEval`/`ActionRun` stages and the rule's latency
    /// cell. The rule resolves its cell by name at its first timed
    /// firing and keeps it, so an untraced run allocates none. The
    /// facade's serial executor and its parallel merge both account
    /// here. A firing whose rule is gone (see [`rule_of`](Self::rule_of))
    /// counts engine-wide only.
    pub fn account_firing(
        &mut self,
        f: &ReadyRef<'_>,
        held: bool,
        condition_ns: Option<u64>,
        action_ns: Option<u64>,
        at: u64,
    ) {
        self.facts.bump(Fact::ConditionEvals);
        if held {
            self.facts.bump(Fact::ActionsRun);
        }
        let mut rule = self.rules.entries[f.index]
            .as_mut()
            .filter(|r| r.id == f.firing.rule);
        if let Some(rule) = rule.as_mut() {
            rule.counts.condition_evals += 1;
            rule.counts.actions_run += u64::from(held);
        }
        let (Some(tel), Some(_)) = (&self.telemetry, condition_ns.or(action_ns)) else {
            return;
        };
        let latency = rule.map(|r| &**r.latency.get_or_insert_with(|| tel.rule_latency(&r.name)));
        let name = f.firing.rule_name;
        if let Some(ns) = condition_ns {
            tel.observe(Stage::ConditionEval, at, ns, || name.to_string());
            if let Some(l) = latency {
                l.condition.record(ns);
            }
        }
        if let Some(ns) = action_ns {
            tel.observe(Stage::ActionRun, at, ns, || name.to_string());
            if let Some(l) = latency {
                l.action.record(ns);
            }
        }
    }

    /// Iterate over all rules (unspecified order).
    pub fn iter_rules(&self) -> impl Iterator<Item = &Rule> {
        self.rules.live().map(|(_, r)| r)
    }

    /// Iterate over all rules with their places in the rule table, in
    /// place order. A place stays the rule's until the rule is removed;
    /// every change of the rule set bumps [`epoch`](Self::epoch).
    pub fn iter_rules_indexed(&self) -> impl Iterator<Item = (usize, &Rule)> {
        self.rules.live()
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
        let at = self.idx(id)?;
        let rule = self.rules.get_mut(at);
        let slot = self.arena.get_mut(rule.slot);
        if slot.members.len() == 1 {
            return Ok(rule.slot);
        }
        slot.members.retain(|&m| m != at);
        let mut detector = slot.detector.clone();
        if let Some(tel) = &self.telemetry {
            detector.set_telemetry(tel.clone(), rule.name.clone());
        }
        let journaled = detector.in_txn();
        rule.slot = self.arena.insert(Slot::new(detector, vec![at]));
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
        for rule in self.rules.live_mut() {
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
                let Ok(rule) = self.rule(rid) else {
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
                let Ok(rule) = self.rule(rid) else {
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
        self.rank();
        self.routing = Some(idx);
    }

    /// Give every rule its dense position under [`firing_key`], then
    /// sort each slot's members by it and cache their ranks on the slot.
    fn rank(&mut self) {
        let mut order: Vec<_> = self
            .rules
            .live()
            .map(|(at, r)| (firing_key(r), at))
            .collect();
        order.sort_unstable();
        let mut rank = vec![0u32; self.rules.entries.len()];
        for (pos, &(_, at)) in order.iter().enumerate() {
            rank[at] = pos as u32;
        }
        for slot in self.arena.live_mut() {
            slot.members.sort_unstable_by_key(|&at| rank[at]);
            slot.ranks.clear();
            slot.ranks.extend(slot.members.iter().map(|&at| rank[at]));
        }
    }

    /// Regroup the arena so rules share a detector exactly when sharing
    /// is unobservable. First every member whose [`ShareKey`] no longer
    /// matches its slot's gets its own copy of the detector (members
    /// that still agree stay together, state and journal included).
    /// Then slots with equal keys and equal exported state merge —
    /// unless either has a journal open, since two journals cannot be
    /// folded into one.
    fn regroup(&mut self) {
        let keys: Vec<Option<ShareKey<'_>>> = self
            .rules
            .entries
            .iter()
            .map(|r| ShareKey::of(r.as_ref()?, &self.subscriptions))
            .collect();
        let mut moved: Vec<(RuleIdx, SlotId)> = Vec::new();

        for sid in 0..self.arena.entries.len() {
            let Some(slot) = self.arena.entries[sid].as_mut() else {
                continue;
            };
            if slot.members.len() < 2 {
                continue;
            }
            // Partition by key; unkeyed members go alone.
            let mut groups: Vec<Vec<RuleIdx>> = Vec::new();
            for at in std::mem::take(&mut slot.members) {
                let key = keys[at].as_ref();
                match groups
                    .iter_mut()
                    .find(|g| key.is_some() && keys[g[0]].as_ref() == key)
                {
                    Some(g) => g.push(at),
                    None => groups.push(vec![at]),
                }
            }
            let mut groups = groups.into_iter();
            slot.members = groups.next().expect("a live slot has members");
            for members in groups {
                let mut detector = self.arena.get(sid).detector.clone();
                if let Some(tel) = &self.telemetry {
                    detector.set_telemetry(tel.clone(), self.rules.get(members[0]).name.clone());
                }
                let journaled = detector.in_txn();
                let new = self.arena.insert(Slot::new(detector, members.clone()));
                if journaled {
                    self.touched.push(new);
                }
                moved.extend(members.into_iter().map(|at| (at, new)));
            }
        }

        let mut buckets: HashMap<&ShareKey<'_>, Vec<SlotId>> = HashMap::new();
        for (sid, slot) in self.arena.live() {
            if let Some(key) = &keys[slot.members[0]] {
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
                    moved.extend(absorbed.iter().map(|&at| (at, bucket[i])));
                    self.arena.get_mut(bucket[i]).members.extend(absorbed);
                }
            }
        }

        for (at, sid) in moved {
            self.rules.get_mut(at).slot = sid;
        }
    }

    /// Rebuild the binding table if a rule or a body changed since it
    /// was built. Queued firings scheduled under the old table are
    /// pinned first: each keeps a copy of its binding, so it runs the
    /// bodies bound when it was scheduled. Rules are bound from their
    /// cached handles, so a rebuild resolves only what changed.
    fn refresh_bindings(&mut self) {
        let stamp = (self.epoch, self.bodies.version());
        if self.bindings.stamp == Some(stamp) {
            return;
        }
        let old = &self.bindings;
        let queued = self
            .deferred
            .iter_mut()
            .chain(self.detached.iter_mut().map(|q| &mut q.ready));
        for f in queued.filter(|f| f.pinned.is_none()) {
            f.pinned = Some(Box::new(f.binding(old).clone()));
        }
        if Arc::get_mut(&mut self.bindings).is_none() {
            self.bindings = Arc::default();
        }
        let table = Arc::get_mut(&mut self.bindings).expect("unshared");
        table.entries.clear();
        for entry in &mut self.rules.entries {
            let binding = entry.as_mut().and_then(|rule| {
                let bodies = rule.bodies(&self.bodies).ok()?;
                Some(Binding {
                    name: Arc::clone(&rule.name),
                    bodies,
                })
            });
            table.entries.push(binding);
        }
        table.stamp = Some(stamp);
    }

    /// A spare batch, or a new one.
    fn spare_batch(&mut self) -> FiringBatch {
        self.spare.pop().unwrap_or_default()
    }

    /// Take back an executed batch: its buffers are reused for the next
    /// firings, and its hold on the binding table and the detections is
    /// dropped.
    pub fn recycle(&mut self, mut batch: FiringBatch) {
        batch.bindings = None;
        if self.spare.len() < SPARE_BATCHES && batch.firings.capacity() > 0 {
            batch.firings.clear();
            batch.occurrences.clear();
            self.spare.push(batch);
        }
    }

    /// Split borrow for dispatch: the arena, the rules, the touched-slot
    /// list, and a fan-out over everything firings are routed through,
    /// under a fresh binding table.
    fn dispatch_parts(
        &mut self,
    ) -> (
        &mut Slab<Slot>,
        &mut Slab<Rule>,
        Option<&mut Vec<SlotId>>,
        Fanout<'_>,
    ) {
        self.refresh_bindings();
        let fanout = Fanout {
            bodies: &self.bodies,
            bindings: &self.bindings,
            history: self.telemetry.as_ref().is_some_and(|t| t.is_history()),
            lineage_ctx: self.lineage_ctx,
            immediate: FiringBatch::default(),
            spare: &mut self.spare,
            deferred: &mut self.deferred,
            deferred_occ: &mut self.deferred_occ,
            detached: &mut self.detached,
            detached_cap: self.detached_cap,
            detached_policy: self.detached_policy,
            facts: &mut self.facts,
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
    /// The rules that complete fire in one order however their
    /// detectors are shared: higher priority first, then lower rule
    /// object oid, then lower [`RuleId`].
    pub fn on_occurrence(
        &mut self,
        registry: &ClassRegistry,
        occ: &PrimitiveOccurrence,
    ) -> Result<FiringBatch> {
        self.facts.bump(Fact::Occurrences);
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
        let mut completed = std::mem::take(&mut self.completed);
        let mut shared = std::mem::take(&mut self.shared);
        let (arena, rules, mut touched, mut fanout) = self.dispatch_parts();
        let mut immediate = 0;
        for &sid in &consumers {
            let slot = arena.get_mut(sid);
            let immediate_members = fanout.notify(slot, sid, rules, touched.as_deref_mut());
            let completions = slot.detector.process_resolved(registry, occ, sym);
            if !completions.is_empty() {
                immediate += immediate_members * completions.len();
                let start = shared.len();
                shared.extend(completions.into_iter().map(Shared::new));
                completed.push(Completed {
                    slot: sid,
                    occurrences: start..shared.len(),
                    next: 0,
                });
            }
        }
        // One allocation at most for the immediate firings, however many
        // rules share each detection.
        if immediate > 0 {
            fanout.reserve_immediate(immediate);
        }
        // Fire the completed slots' members, merged by rank: each step
        // takes the slot whose next member ranks lowest. Every member
        // shares the slot's completions.
        loop {
            let mut lowest: Option<(u32, usize)> = None;
            for (c, done) in completed.iter().enumerate() {
                if let Some(&rank) = arena.get(done.slot).ranks.get(done.next) {
                    if lowest.is_none_or(|(low, _)| rank < low) {
                        lowest = Some((rank, c));
                    }
                }
            }
            let Some((_, c)) = lowest else {
                break;
            };
            let done = &mut completed[c];
            let at = arena.get(done.slot).members[done.next];
            done.next += 1;
            let rule = rules.get_mut(at);
            if rule.enabled {
                let completions = &mut shared[done.occurrences.clone()];
                fanout.fire(at, rule, completions, occ.oid, occ.at)?;
            }
        }
        let immediate = fanout.immediate;
        consumers.clear();
        completed.clear();
        shared.clear();
        self.scratch = consumers;
        self.completed = completed;
        self.shared = shared;
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
    /// usual). Fires are delivered by due instant, and fires due at the
    /// same instant in firing order (see
    /// [`on_occurrence`](Self::on_occurrence)). Each delivery consumes
    /// one sequence number from `next_seq`, so timer occurrences are
    /// totally ordered against primitive occurrences. Timer-bearing
    /// rules never share a detector, so each fire reaches exactly one
    /// rule.
    pub fn drain_timers(
        &mut self,
        now: u64,
        mut next_seq: impl FnMut() -> u64,
    ) -> Result<FiringBatch> {
        if self.timers.is_empty() {
            // Keep the cursor tracking `now` even with nothing scheduled,
            // so timers registered later (a rule enabled mid-run) align
            // to the present rather than replaying from instant 0.
            self.timers.advance(now);
            return Ok(FiringBatch::default());
        }
        let drain_timer = match &self.telemetry {
            Some(t) => t.timer(),
            None => Timer::off(),
        };
        let fires = self.timers.advance(now);
        if fires.is_empty() {
            return Ok(FiringBatch::default());
        }
        let n_fires = fires.len();
        let routes = &mut self.timer_routes;
        let index = &self.index;
        let mut routed: Vec<(RuleIdx, usize, u64)> = fires
            .into_iter()
            .filter_map(|fire| {
                // A fire with no route is a stale fire of a removed rule.
                let &(rid, idx) = routes.get(&fire.id)?;
                if fire.period.is_none() {
                    routes.remove(&fire.id);
                }
                Some((*index.get(&rid)?, idx, fire.due))
            })
            .collect();
        // By the key itself: no routing rebuild precedes a drain, so the
        // slots' cached ranks may predate the last rule change.
        let rules = &self.rules;
        routed.sort_by_key(|&(at, _, due)| (due, firing_key(rules.get(at))));
        let mut shared = std::mem::take(&mut self.shared);
        let (arena, rules, mut touched, mut fanout) = self.dispatch_parts();
        for (at, idx, due) in routed {
            if !rules.get(at).enabled {
                continue;
            }
            let sid = rules.get(at).slot;
            let slot = arena.get_mut(sid);
            fanout.notify(slot, sid, rules, touched.as_deref_mut());
            let completions = slot.detector.process_timer(idx, due, next_seq());
            if !completions.is_empty() {
                let rule = rules.get_mut(at);
                let target = rule.oid;
                shared.extend(completions.into_iter().map(Shared::new));
                fanout.fire(at, rule, &mut shared, target, due)?;
                shared.clear();
            }
        }
        let immediate = fanout.immediate;
        self.shared = shared;
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
                    .and_then(|(rid, _)| self.rule(*rid).ok())
                    .map(|r| r.name.clone());
                (row, name)
            })
            .collect()
    }

    /// Drain the deferred queue (at commit), in execution order: by
    /// occurrence, and in firing order within one.
    pub fn take_deferred(&mut self) -> FiringBatch {
        if self.deferred.is_empty() {
            return FiringBatch::default();
        }
        let mut batch = self.spare_batch();
        std::mem::swap(&mut batch.firings, &mut self.deferred);
        std::mem::swap(&mut batch.occurrences, &mut self.deferred_occ);
        batch.bindings = Some(Arc::clone(&self.bindings));
        batch
    }

    /// Drain the detached queue (after commit), in execution order.
    pub fn take_detached(&mut self) -> FiringBatch {
        let n = self.detached.len();
        self.drain_detached_front(n)
    }

    /// Drain only the *overflow*: the oldest firings beyond `cap`, in
    /// execution order. The commit path uses this under
    /// [`BackpressurePolicy::Block`] to bring a transiently over-full
    /// queue back to its cap before acknowledging the commit.
    pub fn take_detached_over(&mut self, cap: usize) -> FiringBatch {
        let n = self.detached.len().saturating_sub(cap);
        self.drain_detached_front(n)
    }

    /// Drain at most the `n` oldest firings, in execution order. A
    /// background executor runs the queue in such slices so that it
    /// gives the write core back between them.
    pub fn take_detached_oldest(&mut self, n: usize) -> FiringBatch {
        let n = n.min(self.detached.len());
        self.drain_detached_front(n)
    }

    fn drain_detached_front(&mut self, n: usize) -> FiringBatch {
        if n == 0 {
            return FiringBatch::default();
        }
        let mut batch = self.spare_batch();
        batch.firings.reserve(n);
        batch.occurrences.reserve(n);
        for q in self.detached.drain(..n) {
            let QueuedDetached {
                mut ready,
                occurrence,
                queued,
            } = q;
            if let Some(tel) = &self.telemetry {
                let waited = queued.elapsed().as_nanos() as u64;
                let name = &ready.binding(&self.bindings).name;
                tel.observe(Stage::DetachedQueueWait, occurrence.end, waited, || {
                    name.to_string()
                });
            }
            ready.occurrence = batch.occurrences.len() as u32;
            batch.occurrences.push(occurrence);
            batch.firings.push(ready);
        }
        batch.bindings = Some(Arc::clone(&self.bindings));
        self.detached_floor = self.detached_floor.min(self.detached.len());
        batch
    }

    /// Throw away the aborting transaction's queued work: its deferred
    /// firings die with it, and the detached firings *it* scheduled
    /// belong to a commit that never happened. Detached work queued by
    /// earlier committed transactions (before
    /// [`begin_capture`](Self::begin_capture)) survives.
    pub fn discard_pending(&mut self) {
        self.deferred.clear();
        self.deferred_occ.clear();
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
        EngineStats::read(&self.fact_counts())
    }

    /// Every fact counted so far: the published cut of the attached
    /// telemetry's table plus the engine's unpublished delta (the delta
    /// alone for a bare engine).
    pub fn fact_counts(&self) -> FactCounts {
        match &self.telemetry {
            Some(tel) => tel.facts().read().plus(&self.facts),
            None => self.facts,
        }
    }

    /// Count one occurrence of `fact` into the unpublished delta: the
    /// write core counts its own facts (sends, commits, aborts,
    /// detached runs) here too, so one publish carries them all.
    #[inline]
    pub fn count_fact(&mut self, fact: Fact) {
        self.facts.bump(fact);
    }

    /// Publish the facts counted since the last publish into the
    /// attached telemetry's table, as one cut. The write core calls
    /// this at every commit and abort; a bare engine keeps its counts.
    pub fn publish_facts(&mut self) {
        if let Some(tel) = &self.telemetry {
            if !self.facts.is_zero() {
                tel.facts().publish(&self.facts);
                self.facts = FactCounts::default();
            }
        }
    }

    /// Zero the engine's facts — published and unpublished — and every
    /// rule's counters (benchmark warm-up).
    pub fn reset_stats(&mut self) {
        self.facts = FactCounts::default();
        if let Some(tel) = &self.telemetry {
            tel.facts().reset();
        }
        for r in self.rules.live_mut() {
            r.counts = RuleCounts::default();
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
        assert_eq!(fired.get(0).unwrap().firing.rule, r1);
        // Exactly one notification delivered: r2 was never checked.
        assert_eq!(eng.stats().notifications, 1);
        assert_eq!(eng.rule(r1).unwrap().stats().triggered, 1);
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
        let f = &fired.get(0).unwrap().firing;
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
        assert_eq!(d.get(0).unwrap().firing.rule, rd);
        let x = eng.take_detached();
        assert_eq!(x.get(0).unwrap().firing.rule, rx);
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
        assert_eq!(over.get(0).unwrap().firing.occurrence.end, 0);
        assert_eq!(eng.pending(), (0, 3));
        assert_eq!(eng.take_detached_over(3).len(), 0);
    }

    #[test]
    fn take_detached_oldest_slices_the_queue_front_first() {
        let reg = registry();
        let mut eng = detached_engine(&reg);
        for at in 0..5 {
            eng.on_occurrence(&reg, &occ(&reg, at, 1, "Stock", "SetPrice"))
                .unwrap();
        }
        let first = eng.take_detached_oldest(2);
        let ends: Vec<u64> = first.iter().map(|f| f.firing.occurrence.end).collect();
        assert_eq!(ends, [0, 1]);
        assert_eq!(eng.pending(), (0, 3));
        assert_eq!(
            eng.take_detached_oldest(8).len(),
            3,
            "a short queue drains whole"
        );
        assert!(eng.take_detached_oldest(8).is_empty());
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
        assert_eq!(eng.take_detached().get(0).unwrap().firing.occurrence.end, 1);
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
        assert_eq!(eng.rule(r).unwrap().stats().notifications, 2);
    }

    #[test]
    fn redefine_keeps_the_detector_unless_the_event_changes() {
        let reg = registry();
        let mut eng = RuleEngine::new();
        let e = EventExpr::primitive(PrimitiveEventSpec::end("Stock", "SetPrice")).and(
            EventExpr::primitive(PrimitiveEventSpec::end("Index", "SetValue")),
        );
        let def = RuleDef::new("r", e, ACTION_NOOP);
        let r = eng.add_rule(def.clone(), Oid::NIL, &reg).unwrap();
        eng.subscriptions.subscribe_object(Oid(1), r);
        eng.on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
            .unwrap();

        // Rename and reprioritise: same id, same half-detected state.
        eng.redefine(r, def.clone().priority(3), &reg).unwrap();
        let mut renamed = def.clone().priority(3);
        renamed.name = "s".into();
        eng.redefine(r, renamed.clone(), &reg).unwrap();
        assert_eq!(eng.id_of("s").unwrap(), r);
        assert!(eng.id_of("r").is_err());
        assert_eq!(eng.detector_of(r).unwrap().buffered(), 1);
        assert_eq!(eng.rule(r).unwrap().stats().notifications, 1);

        // A new event starts from nothing; a taken name is refused.
        let other = eng.add_rule(simple_rule("t"), Oid::NIL, &reg).unwrap();
        renamed.event = EventExpr::primitive(PrimitiveEventSpec::end("Index", "SetValue"));
        eng.redefine(r, renamed.clone(), &reg).unwrap();
        assert_eq!(eng.detector_of(r).unwrap().buffered(), 0);
        renamed.name = "t".into();
        assert!(eng.redefine(r, renamed, &reg).is_err());
        assert_eq!(eng.id_of("t").unwrap(), other);
        assert_eq!(eng.id_of("s").unwrap(), r);
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

    /// Co-triggered rules fire by priority, then rule-object oid, then
    /// `RuleId` — across detectors as well as within a shared one — and
    /// a priority change moves a rule at once.
    #[test]
    fn priority_resolver_orders_simultaneous_firings() {
        let reg = registry();
        let mut eng = RuleEngine::new();
        let stock = reg.id_of("Stock").unwrap();
        let mut add = |name: &str, priority: i32, oid: Oid| {
            let def = simple_rule(name).priority(priority);
            let id = eng.add_rule(def, oid, &reg).unwrap();
            eng.subscriptions.subscribe_object(Oid(1), id);
            id
        };
        let lo = add("lo", 1, Oid(7));
        let hi = add("hi", 10, Oid(9));
        let tie = add("tie", 1, Oid(3));
        let bare = add("bare", 1, Oid::NIL);
        // `tie` hears its class too, so it gets a detector of its own.
        eng.subscriptions.subscribe_class(stock, tie);
        let fired = |eng: &mut RuleEngine, at| -> Vec<RuleId> {
            let fired = eng
                .on_occurrence(&reg, &occ(&reg, at, 1, "Stock", "SetPrice"))
                .unwrap();
            fired.iter().map(|f| f.firing.rule).collect()
        };
        assert_eq!(fired(&mut eng, 1), [hi, bare, tie, lo]);
        assert_eq!(eng.detector_count(), 2);
        let def = eng.rule(lo).unwrap().def.clone().priority(20);
        eng.redefine(lo, def, &reg).unwrap();
        assert_eq!(fired(&mut eng, 2), [lo, hi, bare, tie]);
    }

    #[test]
    fn a_shared_detection_is_one_occurrence_for_every_rule() {
        let reg = registry();
        let mut eng = RuleEngine::new();
        let stock = reg.id_of("Stock").unwrap();
        let ids: Vec<RuleId> = (0..8)
            .map(|i| {
                let r = eng
                    .add_rule(simple_rule(&format!("r{i}")), Oid::NIL, &reg)
                    .unwrap();
                eng.subscriptions.subscribe_class(stock, r);
                r
            })
            .collect();
        let fired = eng
            .on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
            .unwrap();
        assert_eq!(eng.detector_count(), 1);
        assert_eq!(fired.iter().map(|f| f.firing.rule).collect::<Vec<_>>(), ids);
        let first = fired.get(0).unwrap().firing.occurrence;
        assert!(fired
            .iter()
            .all(|f| Arc::ptr_eq(f.firing.occurrence, first)));
        // Each rule shares its bodies among its own firings only.
        let (r0, r1) = (fired.get(0).unwrap(), fired.get(1).unwrap());
        assert!(!std::ptr::eq(r0.bodies, r1.bodies));
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
        assert_eq!(eng.rule(r).unwrap().stats().triggered, 3);
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
        assert_eq!(fired.get(0).unwrap().firing.occurrence.end, 101);
        assert_eq!(fired.get(1).unwrap().firing.occurrence.end, 102);
        assert_eq!(eng.rule(r).unwrap().stats().triggered, 2);
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
