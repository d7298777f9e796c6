//! Effect-aware parallel execution of deferred and detached firings.
//!
//! The serial semantics of the paper — deferred firings run at commit
//! in firing order, detached firings each in their own
//! follow-on transaction — stay the observable contract. This module
//! adds a fast path underneath it: when a whole batch of ready firings
//! is *provably independent*, the firings execute concurrently on a
//! persistent worker pool and the committing thread merges their
//! effects back deterministically.
//!
//! **What "provably independent" means.** The compiled
//! [`ConflictMatrix`] (built from the static triggering graph and each
//! action's declared read *and* write footprint) assigns every rule a
//! lane: parallel rules are grouped into conflict components
//! (footprints with a write-write or read-write overlap share a
//! component), everything else — undeclared effects, undeclared
//! read-sets, raising actions, immediate coupling — is serial with a
//! recorded reason. At dispatch time a batch runs in parallel only if
//! *every* firing carries a conflict-group tag that matches the fresh
//! matrix. Within the batch, firings are partitioned into groups keyed
//! by `(conflict component, target oid)`: same key → same group,
//! executed in original firing order on one worker; different keys →
//! declared footprints disjoint (or instance-local to different
//! targets), so the groups run concurrently.
//!
//! **Runtime footprint enforcement.** Target sharding and cross-group
//! disjointness are only as good as the declarations, so [`ShardWorld`]
//! verifies every access instead of trusting them: a write must hit
//! the firing's own target *and* match the rule's declared write
//! patterns; a read must either hit the firing's own target within its
//! declared read footprint, or touch an attribute outside *every*
//! parallel rule's write-set (which no concurrent firing can be
//! mutating). Any access outside those bounds — like
//! `create`/`delete`/`send`, which belong to the serial path — fails
//! the body, rolling the group back to `NeedsSerial`.
//!
//! **Hand-off.** A batch costs one channel send per worker, however
//! many groups it holds: the groups go into one shared `Batch`, and the
//! committing thread and the workers claim them one at a time from an
//! atomic cursor. The committing thread runs groups from the start
//! rather than sleeping on replies, so a worker that wakes late finds
//! fewer groups left instead of holding the commit up.
//!
//! **Determinism.** A group never touches the transaction pipeline,
//! whichever thread runs it: it executes against a [`ShardWorld`] that
//! applies writes to the shared sharded [`ObjectStore`] and records
//! `(oid, slot, old, new)` per write. The committing thread then
//! merges the results of *all* groups strictly in original batch
//! order — even when group memberships interleave — staging undo ops,
//! redo records, index refreshes, stats, and history records exactly
//! as the serial path
//! would have. Commit order, per-rule stats, and the firing history are
//! therefore independent of worker interleaving.
//!
//! **Fallback.** Any body error on a worker (including a footprint
//! violation) rolls back the whole group's recorded writes and marks
//! the group `NeedsSerial`; the coordinator re-runs its firings through
//! the ordinary serial path at their original batch positions,
//! restoring full transactional semantics. A lying effects declaration
//! therefore degrades to serial re-execution, never to a half-applied
//! group or a silent race.

use crate::database::Database;
use crate::stats::SharedDbStats;
use crossbeam::channel::{unbounded, Receiver, Sender};
use sentinel_analyze::{pattern_matches, ConflictMatrix, Lane, RuleFootprint};
use sentinel_events::TimeSource;
use sentinel_object::{
    ClassId, ClassRegistry, ObjectError, ObjectStore, Oid, Result, Value, World,
};
use sentinel_rules::{AttrPattern, ReadyFiring, RuleId};
use sentinel_storage::{LogRecord, UndoOp};
use sentinel_telemetry::{BodyKind, ExecutionLane, Stage, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};

/// Counters of the conflict-aware scheduler, retrievable via
/// [`Database::scheduler_stats`] (all zero under
/// [`ExecutionMode::Serial`](crate::ExecutionMode::Serial)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// Batches executed on the worker pool.
    pub parallel_batches: u64,
    /// Non-empty batches that fell back to the serial path (ineligible
    /// firing, single conflict group, effect recording on).
    pub serial_fallbacks: u64,
    /// Conflict groups formed across all parallel batches.
    pub groups_formed: u64,
    /// Firings whose effects were computed on a worker and merged.
    pub parallel_firings: u64,
    /// Firings run on the serial path while the scheduler was active
    /// (fallbacks plus re-runs).
    pub serial_firings: u64,
    /// Firings re-run serially after their group failed on a worker.
    pub serial_reruns: u64,
    /// Conflict-matrix (re)compilations.
    pub matrix_rebuilds: u64,
}

/// One attribute write recorded by a worker, carrying everything the
/// coordinator needs to stage it: the undo op (`slot`, `old`) and the
/// slot-interned redo record / index refresh (`class`, `slot`, `new`).
/// No attribute name is carried — the cold index path resolves it from
/// the schema when needed.
struct WriteRec {
    oid: Oid,
    class: ClassId,
    slot: usize,
    old: Value,
    new: Value,
}

/// The [`World`] a parallel firing executes against: reads and
/// attribute writes go straight to the shared (sharded, thread-safe)
/// store; every write is recorded for the coordinator to stage.
///
/// Every access is checked against the firing's declared footprint —
/// this is what turns the declarations from trusted hints into an
/// enforced contract. Writes must hit the firing's own target within
/// the rule's declared write patterns (target sharding assumes writes
/// are instance-local, so a cross-target write would race a concurrent
/// same-component group). Reads must hit the firing's own target
/// within its declared read footprint, or an attribute outside every
/// parallel rule's write-set (`shared_writes`) — anything else could
/// observe a concurrent group's writes mid-flight. Object lifecycle
/// and message sends are rejected outright — those belong to the
/// serial path. Each rejection fails the body, which makes a lying
/// declaration degrade safely to a serial re-run.
struct ShardWorld {
    store: Arc<ObjectStore>,
    registry: Arc<ClassRegistry>,
    clock: Arc<TimeSource>,
    writes: Vec<WriteRec>,
    /// Target oid of the group currently executing — the only object
    /// the footprint licenses writes (and contended reads) on.
    target: Oid,
    /// Declared footprint of the firing currently executing.
    footprint: RuleFootprint,
    /// Union of every parallel rule's declared writes: the attributes
    /// some concurrent group may be writing right now.
    shared_writes: Arc<Vec<AttrPattern>>,
}

impl ShardWorld {
    fn unsupported(op: &str) -> ObjectError {
        ObjectError::Unsupported(format!(
            "{op} is not available to parallel rule firings; the group re-runs serially"
        ))
    }

    fn undeclared(kind: &str, class_name: &str, attr: &str) -> ObjectError {
        ObjectError::Unsupported(format!(
            "parallel firing {kind} of {class_name}.{attr} is outside the rule's declared \
             footprint (or not on the firing's target); the group re-runs serially"
        ))
    }

    /// Restore every recorded write, newest first (whole-group rollback
    /// before a `NeedsSerial` verdict).
    fn undo_all(&self) {
        for w in self.writes.iter().rev() {
            let _ = self
                .store
                .set_slot(&self.registry, w.oid, w.slot, w.old.clone());
        }
    }
}

impl World for ShardWorld {
    fn registry(&self) -> &ClassRegistry {
        &self.registry
    }

    fn create(&mut self, _class: &str) -> Result<Oid> {
        Err(Self::unsupported("create"))
    }

    fn delete(&mut self, _oid: Oid) -> Result<()> {
        Err(Self::unsupported("delete"))
    }

    fn get_attr(&self, oid: Oid, attr: &str) -> Result<Value> {
        let class = self.store.class_of(oid)?;
        let in_footprint = oid == self.target
            && self
                .footprint
                .reads
                .iter()
                .any(|p| pattern_matches(&self.registry, p, class, attr));
        if !in_footprint {
            // Off-target (or undeclared) reads are safe only when no
            // concurrently running firing can be writing the attribute.
            let contended = self
                .shared_writes
                .iter()
                .any(|p| pattern_matches(&self.registry, p, class, attr));
            if contended {
                return Err(Self::undeclared(
                    "read",
                    &self.registry.get(class).name,
                    attr,
                ));
            }
        }
        self.store.get_attr(&self.registry, oid, attr)
    }

    fn set_attr(&mut self, oid: Oid, attr: &str, value: Value) -> Result<()> {
        let class = self.store.class_of(oid)?;
        // Enforce the declared write-set: only the firing's own target,
        // only declared attributes. This is what lets groups of the
        // same component run concurrently on different targets, and
        // what keeps disjoint components genuinely disjoint even when
        // a declaration lies.
        let allowed = oid == self.target
            && self
                .footprint
                .writes
                .iter()
                .any(|p| pattern_matches(&self.registry, p, class, attr));
        if !allowed {
            return Err(Self::undeclared(
                "write",
                &self.registry.get(class).name,
                attr,
            ));
        }
        let (_, slot, old) =
            self.store
                .set_attr_resolved(&self.registry, oid, attr, value.clone())?;
        self.writes.push(WriteRec {
            oid,
            class,
            slot,
            old,
            new: value,
        });
        Ok(())
    }

    fn send(&mut self, _receiver: Oid, _method: &str, _args: &[Value]) -> Result<Value> {
        Err(Self::unsupported("send"))
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

/// The result of one firing that completed on a worker, ready to merge.
pub(crate) struct FiringDone {
    cond_held: bool,
    cond_ns: Option<u64>,
    action_ns: Option<u64>,
    /// Worker-measured condition-to-action latency for the history
    /// record (0 when history capture is off).
    firing_ns: u64,
    writes: Vec<WriteRec>,
}

/// What a worker reports for one conflict group.
pub(crate) enum GroupResult {
    /// Every firing ran; results align index-for-index with the group.
    Completed(Vec<FiringDone>),
    /// A body errored (or violated its declared footprint): the group's
    /// writes were rolled back on the worker and every firing must
    /// re-run serially.
    NeedsSerial,
}

/// One `(conflict component, target oid)` shard of a ready batch: its
/// firings in batch order, each tagged with its original batch
/// index.
pub(crate) struct ConflictGroup {
    /// The target oid every firing in the group fired on — the only
    /// object the worker's footprint guard licenses writes on.
    target: Oid,
    firings: Vec<(usize, ReadyFiring)>,
}

/// One parallel batch, shared by the committing thread and the workers
/// it was handed to. Every thread claims groups one at a time until none
/// are left, so a batch costs one hand-off per worker however many
/// groups it holds, the committing thread starts on it at once, and a
/// worker that wakes late finds less to do instead of holding the
/// commit up.
struct Batch {
    groups: Vec<ConflictGroup>,
    /// One slot per group, filled by whichever thread ran it.
    results: Vec<OnceLock<GroupResult>>,
    /// Index of the next unclaimed group.
    next: AtomicUsize,
    /// Groups whose result slot is filled.
    done: AtomicUsize,
    registry: Arc<ClassRegistry>,
    /// Declared footprints of the parallel-lane rules (from the fresh
    /// conflict matrix), consulted per firing.
    footprints: Arc<HashMap<RuleId, RuleFootprint>>,
    /// Union of every parallel rule's declared writes, for the read
    /// guard.
    shared_writes: Arc<Vec<AttrPattern>>,
    /// The committing thread, unparked by whoever completes the last
    /// group.
    coordinator: Thread,
}

impl Batch {
    fn new(
        groups: Vec<ConflictGroup>,
        registry: Arc<ClassRegistry>,
        footprints: Arc<HashMap<RuleId, RuleFootprint>>,
        shared_writes: Arc<Vec<AttrPattern>>,
    ) -> Self {
        Batch {
            results: groups.iter().map(|_| OnceLock::new()).collect(),
            groups,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            registry,
            footprints,
            shared_writes,
            coordinator: std::thread::current(),
        }
    }

    /// Claim and run groups until none are left.
    fn run_share(&self, store: &Arc<ObjectStore>, clock: &Arc<TimeSource>, telemetry: &Telemetry) {
        loop {
            // The claim only hands out distinct indices; the groups were
            // published by the hand-off itself, so `Relaxed` is enough.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(group) = self.groups.get(i) else {
                return;
            };
            let result = run_group(self, group, store, clock, telemetry);
            assert!(self.results[i].set(result).is_ok(), "group {i} ran twice");
            // `AcqRel` pairs with the `Acquire` in `wait`: the thread that
            // sees every group done sees every slot filled.
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.groups.len() {
                self.coordinator.unpark();
            }
        }
    }

    /// Return once every group has a result, parked until the thread
    /// that completes the last group unparks this one. The unpark token
    /// outlives an early unpark, and a spurious wake-up just re-checks.
    fn wait(&self) {
        while self.done.load(Ordering::Acquire) < self.groups.len() {
            std::thread::park();
        }
    }
}

/// Per-firing execution record inside a group run: (write-log start,
/// cond_held, cond_ns, action_ns, firing_ns).
type FiringSpan = (usize, bool, Option<u64>, Option<u64>, u64);

fn run_group(
    batch: &Batch,
    group: &ConflictGroup,
    store: &Arc<ObjectStore>,
    clock: &Arc<TimeSource>,
    telemetry: &Telemetry,
) -> GroupResult {
    let mut world = ShardWorld {
        store: Arc::clone(store),
        registry: Arc::clone(&batch.registry),
        clock: Arc::clone(clock),
        writes: Vec::new(),
        target: group.target,
        footprint: RuleFootprint {
            writes: Arc::new(Vec::new()),
            reads: Arc::new(Vec::new()),
        },
        shared_writes: Arc::clone(&batch.shared_writes),
    };
    // A body that panics fails its group like one that errors, so no
    // thread waits on a group that never completes; the serial re-run
    // then raises the panic again on the committing thread, as `Serial`
    // would.
    let spans = catch_unwind(AssertUnwindSafe(|| {
        run_firings(batch, group, &mut world, telemetry)
    }));
    let Ok(Some(spans)) = spans else {
        world.undo_all();
        return GroupResult::NeedsSerial;
    };
    // Writes are carved into per-firing vecs only once the whole group
    // has succeeded.
    let mut writes = world.writes;
    let mut dones = Vec::with_capacity(spans.len());
    for (start, cond_held, cond_ns, action_ns, firing_ns) in spans.into_iter().rev() {
        dones.push(FiringDone {
            cond_held,
            cond_ns,
            action_ns,
            firing_ns,
            writes: writes.split_off(start),
        });
    }
    dones.reverse();
    GroupResult::Completed(dones)
}

/// Run a group's firings in firing order; `None` as soon as a body
/// errors or leaves its declared footprint.
fn run_firings(
    batch: &Batch,
    group: &ConflictGroup,
    world: &mut ShardWorld,
    telemetry: &Telemetry,
) -> Option<Vec<FiringSpan>> {
    let mut spans = Vec::with_capacity(group.firings.len());
    for (_, f) in &group.firings {
        // Arm the guard with this firing's declared footprint. A rule
        // missing from the map was planned against a stale matrix —
        // treat like any other violation and fall back.
        world.footprint = batch.footprints.get(&f.firing.rule)?.clone();
        let start = world.writes.len();
        let firing_timer = telemetry.history_timer();
        let cond_timer = telemetry.timer();
        let held = (f.bodies.condition)(&mut *world, &f.firing).ok()?;
        let cond_ns = cond_timer.elapsed_ns();
        let mut action_ns = None;
        if held {
            let action_timer = telemetry.timer();
            (f.bodies.action)(&mut *world, &f.firing).ok()?;
            action_ns = action_timer.elapsed_ns();
        }
        let firing_ns = firing_timer.elapsed_ns().unwrap_or(0);
        spans.push((start, held, cond_ns, action_ns, firing_ns));
    }
    Some(spans)
}

fn worker_loop(
    rx: Receiver<Arc<Batch>>,
    busy: Arc<AtomicBool>,
    store: Arc<ObjectStore>,
    clock: Arc<TimeSource>,
    telemetry: Arc<Telemetry>,
) {
    while let Ok(batch) = rx.recv() {
        batch.run_share(&store, &clock, &telemetry);
        drop(batch);
        busy.store(false, Ordering::Release);
    }
}

/// The worker pool plus the cached conflict matrix and counters. Owned
/// by [`Database`] when the configuration selects
/// [`ExecutionMode::Parallel`](crate::ExecutionMode::Parallel).
pub(crate) struct Scheduler {
    /// One hand-off channel per worker, and whether it still holds a
    /// batch; closing the channel stops the worker.
    workers: Vec<(Sender<Arc<Batch>>, Arc<AtomicBool>)>,
    handles: Vec<JoinHandle<()>>,
    pub(crate) stats: SchedulerStats,
    pub(crate) matrix: Option<ConflictMatrix>,
    /// Schema snapshot shared with workers, re-cloned only when the
    /// (append-only) registry grows.
    registry_snapshot: Option<(usize, Arc<ClassRegistry>)>,
}

impl Scheduler {
    pub(crate) fn new(
        workers: usize,
        store: Arc<ObjectStore>,
        clock: Arc<TimeSource>,
        telemetry: Arc<Telemetry>,
    ) -> Self {
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = unbounded::<Arc<Batch>>();
            let busy = Arc::new(AtomicBool::new(false));
            senders.push((tx, Arc::clone(&busy)));
            let store = Arc::clone(&store);
            let clock = Arc::clone(&clock);
            let telemetry = Arc::clone(&telemetry);
            let handle = std::thread::Builder::new()
                .name(format!("sentinel-sched-{i}"))
                .spawn(move || worker_loop(rx, busy, store, clock, telemetry))
                .expect("spawn scheduler worker");
            handles.push(handle);
        }
        Scheduler {
            workers: senders,
            handles,
            stats: SchedulerStats::default(),
            matrix: None,
            registry_snapshot: None,
        }
    }

    fn snapshot_registry(&mut self, registry: &ClassRegistry) -> Arc<ClassRegistry> {
        match &self.registry_snapshot {
            Some((len, arc)) if *len == registry.len() => Arc::clone(arc),
            _ => {
                let arc = Arc::new(registry.clone());
                self.registry_snapshot = Some((registry.len(), Arc::clone(&arc)));
                arc
            }
        }
    }

    /// Run `batch`: hand it to as many idle workers as it has groups
    /// beyond one, run a share on this thread, and wait for the rest.
    fn execute(
        &self,
        batch: Batch,
        store: &Arc<ObjectStore>,
        clock: &Arc<TimeSource>,
        telemetry: &Telemetry,
        now: u64,
    ) -> Arc<Batch> {
        for group in &batch.groups {
            let size = group.firings.len();
            telemetry.observe(Stage::SchedulerGroup, now, size as u64, || {
                format!("group of {size}")
            });
        }
        let n = batch.groups.len();
        let batch = Arc::new(batch);
        let timer = telemetry.timer();
        // A worker still holding an earlier batch is skipped: queueing
        // batches behind a descheduled worker would keep them all alive.
        let idle = self
            .workers
            .iter()
            .filter(|(_, busy)| !busy.swap(true, Ordering::AcqRel));
        for (tx, _) in idle.take(n.saturating_sub(1)) {
            assert!(
                tx.send(Arc::clone(&batch)).is_ok(),
                "scheduler workers alive"
            );
        }
        batch.run_share(store, clock, telemetry);
        batch.wait();
        telemetry.observe_timer(Stage::SchedulerWait, now, timer, || format!("{n} groups"));
        batch
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        // Closing a worker's channel is its shutdown signal.
        self.workers.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// How a ready batch will execute.
pub(crate) enum Plan {
    /// On the committing/draining thread, in firing order (the only
    /// plan under `ExecutionMode::Serial`).
    Serial(Vec<ReadyFiring>),
    /// Partitioned into ≥ 2 independent conflict groups; each group
    /// keeps `(original batch index, firing)` in firing order.
    Parallel(Vec<ConflictGroup>),
}

impl Database {
    /// Rebuild the cached conflict matrix if the rule set, body
    /// registry, or schema changed, and hand the engine the fresh tags
    /// it stamps onto scheduled firings. No-op under serial execution.
    pub(crate) fn refresh_conflict_matrix(&mut self) {
        let Some(sched) = &mut self.scheduler else {
            return;
        };
        let fresh = sched
            .matrix
            .as_ref()
            .is_some_and(|m| m.is_fresh(&self.registry, &self.engine));
        if fresh {
            return;
        }
        let matrix = ConflictMatrix::build(&self.registry, &self.engine);
        self.engine.set_conflict_tags(Some(matrix.tags()));
        sched.stats.matrix_rebuilds += 1;
        sched.matrix = Some(matrix);
    }

    /// Decide how `batch` executes. Parallel requires: a scheduler, no
    /// runtime effect recording (its attribution stack is inherently
    /// serial), every firing tagged with a conflict component matching
    /// the fresh matrix, and at least two distinct `(component, target)`
    /// groups — one group would serialize on a worker anyway.
    pub(crate) fn plan_batch(&mut self, batch: Vec<ReadyFiring>) -> Plan {
        if self.scheduler.is_none() || batch.is_empty() {
            return Plan::Serial(batch);
        }
        if batch.len() < 2 || self.effect_recorder.is_some() {
            return self.plan_serial_fallback(batch);
        }
        self.refresh_conflict_matrix();
        let sched = self.scheduler.as_ref().expect("checked above");
        let matrix = sched.matrix.as_ref().expect("refreshed above");
        let mut keys = Vec::with_capacity(batch.len());
        for f in &batch {
            match (f.group, matrix.lane(f.firing.rule)) {
                (Some(tag), Some(Lane::Parallel { component })) if tag == component => {
                    let target = f
                        .firing
                        .occurrence
                        .constituents
                        .last()
                        .map_or(Oid::NIL, |c| c.oid);
                    keys.push((component, target));
                }
                // Untagged, serial-lane, or stamped under a stale
                // matrix: the whole batch keeps the serial order.
                _ => return self.plan_serial_fallback(batch),
            }
        }
        let mut order: Vec<(u32, Oid)> = Vec::new();
        let mut groups: HashMap<(u32, Oid), Vec<(usize, ReadyFiring)>> = HashMap::new();
        for (i, (f, key)) in batch.into_iter().zip(keys).enumerate() {
            let slot = groups.entry(key).or_default();
            if slot.is_empty() {
                order.push(key);
            }
            slot.push((i, f));
        }
        if order.len() < 2 {
            let key = order[0];
            let batch = groups
                .remove(&key)
                .expect("sole group")
                .into_iter()
                .map(|(_, f)| f)
                .collect();
            return self.plan_serial_fallback(batch);
        }
        let sched = self.scheduler.as_mut().expect("checked above");
        sched.stats.parallel_batches += 1;
        sched.stats.groups_formed += order.len() as u64;
        Plan::Parallel(
            order
                .into_iter()
                .map(|key| ConflictGroup {
                    target: key.1,
                    firings: groups.remove(&key).expect("grouped"),
                })
                .collect(),
        )
    }

    fn plan_serial_fallback(&mut self, batch: Vec<ReadyFiring>) -> Plan {
        if let Some(sched) = &mut self.scheduler {
            sched.stats.serial_fallbacks += 1;
            sched.stats.serial_firings += batch.len() as u64;
        }
        Plan::Serial(batch)
    }

    fn dispatch_to_pool(&mut self, groups: Vec<ConflictGroup>) -> Arc<Batch> {
        let sched = self.scheduler.as_mut().expect("parallel plan");
        let registry = sched.snapshot_registry(&self.registry);
        let matrix = sched.matrix.as_ref().expect("fresh matrix behind plan");
        let batch = Batch::new(
            groups,
            registry,
            matrix.footprints(),
            matrix.shared_writes(),
        );
        let now = self.clock.now();
        sched.execute(batch, &self.store, &self.clock, &self.telemetry, now)
    }

    /// Restore (newest first) every worker write from flattened step
    /// `from` onward that has not been merged into the transaction
    /// pipeline — the cleanup before propagating an error, so no
    /// unstaged store mutation survives it. `from` is the *failing*
    /// step itself: a merge that errored partway leaves a tail of
    /// writes with no staged undo, and re-restoring its already-staged
    /// head is idempotent (both put back the same old value).
    fn undo_unmerged(&self, steps: &[(usize, MergeStep<'_>)], from: usize) {
        for (_, step) in steps[from..].iter().rev() {
            if let MergeStep::Merge(_, done) = step {
                for w in done.writes.iter().rev() {
                    let _ = self
                        .store
                        .set_slot(&self.registry, w.oid, w.slot, w.old.clone());
                }
            }
        }
    }

    /// Merge one worker-completed firing into the active transaction:
    /// the same stats bumps, telemetry observations, history record,
    /// undo/redo staging, and index refreshes the serial path performs
    /// — just from the recorded write log instead of live execution.
    fn merge_parallel_firing(&mut self, f: &ReadyFiring, done: &FiringDone) -> Result<()> {
        SharedDbStats::bump(&self.stats.condition_evals);
        if let Some(stats) = self.engine.stats_of(f) {
            stats.condition_evals += 1;
        }
        if done.cond_held {
            SharedDbStats::bump(&self.stats.condition_true);
            SharedDbStats::bump(&self.stats.actions_run);
            if let Some(stats) = self.engine.stats_of(f) {
                stats.condition_true += 1;
                stats.actions_run += 1;
            }
        }
        let at = self.clock.now();
        let name = &f.firing.rule_name;
        if let Some(ns) = done.cond_ns {
            self.telemetry
                .observe(Stage::ConditionEval, at, ns, || name.to_string());
            self.telemetry.observe_rule(name, BodyKind::Condition, ns);
        }
        if let Some(ns) = done.action_ns {
            self.telemetry
                .observe(Stage::ActionRun, at, ns, || name.to_string());
            self.telemetry.observe_rule(name, BodyKind::Action, ns);
        }
        if self.telemetry.is_history() && f.firing.lineage.id != 0 {
            self.stage_firing_record(f, done.firing_ns, true, ExecutionLane::Parallel);
        }
        let durable = self.pipeline.is_durable();
        let txn = self.pipeline.current().expect("merge runs inside a txn");
        for w in &done.writes {
            self.pipeline.stage_undo(UndoOp::SetSlot {
                oid: w.oid,
                slot: w.slot,
                old: w.old.clone(),
            })?;
            if durable {
                self.log(LogRecord::SetSlot {
                    txn,
                    oid: w.oid,
                    class: w.class,
                    slot: w.slot as u32,
                    new: w.new.clone(),
                })?;
            }
            if w.class == self.rule_class {
                let attr = self.registry.get(w.class).layout[w.slot].attr.name.clone();
                self.rule_written(w.oid, &attr)?;
            }
        }
        if self.has_indexes {
            for w in &done.writes {
                // Cold path: resolve the attribute name from the schema
                // only when an index actually needs it.
                let attr = self.registry.get(w.class).layout[w.slot].attr.name.clone();
                self.index_refresh_attr(w.oid, w.class, &attr)?;
                self.txn_touched.push(w.oid);
            }
        }
        if let Some(sched) = &mut self.scheduler {
            sched.stats.parallel_firings += 1;
        }
        Ok(())
    }

    /// Re-run one firing of a failed group on the serial path (step `k`
    /// of `steps`). Should the re-run panic, every unmerged worker write
    /// from `k` on is restored before the panic continues: later groups
    /// wrote straight to the store with no undo staged, and under
    /// `Serial` they would never have run.
    fn rerun_serial(
        &mut self,
        steps: &[(usize, MergeStep<'_>)],
        k: usize,
        run: impl FnOnce(&mut Self) -> Result<()>,
    ) -> Result<()> {
        if let Some(sched) = &mut self.scheduler {
            sched.stats.serial_reruns += 1;
            sched.stats.serial_firings += 1;
        }
        catch_unwind(AssertUnwindSafe(|| run(self))).unwrap_or_else(|panic| {
            self.undo_unmerged(steps, k);
            resume_unwind(panic)
        })
    }

    /// Parallel execution of one deferred round, inside the committing
    /// transaction. Worker results are merged — and `NeedsSerial`
    /// firings re-run — strictly in original batch order, so the WAL,
    /// undo, stats, and history streams come out exactly as the serial
    /// path would have produced them. On error every unmerged worker
    /// write is restored first; the caller's rollback then covers
    /// everything staged.
    pub(crate) fn run_deferred_parallel(&mut self, groups: Vec<ConflictGroup>) -> Result<()> {
        let results = self.dispatch_to_pool(groups);
        let steps = flatten_steps(&results);
        for k in 0..steps.len() {
            let outcome = match steps[k].1 {
                MergeStep::Merge(f, done) => self.merge_parallel_firing(f, done),
                MergeStep::Rerun(f) => self.rerun_serial(&steps, k, |db| db.execute_firing(f)),
            };
            if let Err(e) = outcome {
                self.undo_unmerged(&steps, k);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Parallel execution of a detached batch: worker-completed firings
    /// are merged each inside its own follow-on transaction (preserving
    /// the one-transaction-per-detached-firing contract) and
    /// `NeedsSerial` firings replay the ordinary serial detached path,
    /// all strictly in original batch order.
    pub(crate) fn run_detached_parallel(&mut self, groups: Vec<ConflictGroup>) -> Result<()> {
        let results = self.dispatch_to_pool(groups);
        let steps = flatten_steps(&results);
        for k in 0..steps.len() {
            match steps[k].1 {
                MergeStep::Merge(f, done) => {
                    SharedDbStats::bump(&self.stats.detached_runs);
                    self.telemetry
                        .hit(Stage::DetachedRun, self.clock.now(), || {
                            f.firing.rule_name.to_string()
                        });
                    let committed = self
                        .pipeline
                        .begin()
                        .and_then(|_| self.merge_parallel_firing(f, done))
                        .and_then(|_| self.commit_internal());
                    if let Err(e) = committed {
                        if self.pipeline.in_txn() {
                            self.rollback();
                        }
                        self.undo_unmerged(&steps, k);
                        return Err(e);
                    }
                }
                MergeStep::Rerun(f) => {
                    if let Err(e) = self.rerun_serial(&steps, k, |db| db.run_detached_serial(f)) {
                        self.undo_unmerged(&steps, k);
                        return Err(e);
                    }
                }
            }
        }
        Ok(())
    }
}

/// One unit of coordinator work after a parallel dispatch: merge a
/// worker-completed firing, or re-run a firing whose group fell back.
enum MergeStep<'a> {
    Merge(&'a ReadyFiring, &'a FiringDone),
    Rerun(&'a ReadyFiring),
}

/// Flatten group results into individual steps sorted by original
/// batch index, so the coordinator replays the batch in exactly the
/// order the serial path would have used — even when group memberships
/// interleave (group A holding batch indices 0 and 2, group B holding
/// 1 and 3).
fn flatten_steps(batch: &Batch) -> Vec<(usize, MergeStep<'_>)> {
    let mut steps = Vec::new();
    for (group, result) in batch.groups.iter().zip(&batch.results) {
        match result.get().expect("the batch waited for every group") {
            GroupResult::Completed(dones) => {
                for ((i, f), done) in group.firings.iter().zip(dones) {
                    steps.push((*i, MergeStep::Merge(f, done)));
                }
            }
            GroupResult::NeedsSerial => {
                for (i, f) in &group.firings {
                    steps.push((*i, MergeStep::Rerun(f)));
                }
            }
        }
    }
    steps.sort_by_key(|(i, _)| *i);
    steps
}
