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
//! lane: parallel rules carry a declared footprint, everything else —
//! undeclared effects, undeclared read-sets, raising actions, immediate
//! coupling — is serial with a recorded reason. At dispatch time a batch
//! runs in parallel only if the fresh matrix holds a footprint for
//! *every* firing's rule, looked up at the rule's place in the engine's
//! rule table. Within the batch, firings are partitioned into one group
//! per target oid: the firings on one target run in original firing
//! order on one thread, whatever their rules; groups on different
//! targets touch disjoint declared state, so they run concurrently.
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
//! the body, rolling the group back to `NeedsSerial`. The patterns come
//! resolved to class ids from the matrix, so a check costs no name
//! lookup.
//!
//! **Hand-off.** The plan sorts the batch's indices by `(target, index)`
//! and a group is a run of that order, so planning neither hashes nor
//! moves a firing. The firings and the groups go into one shared
//! `Batch`, and the committing thread and the workers claim groups one
//! at a time from an atomic cursor. The committing thread hands the
//! batch to at most `max(1, available_parallelism − 1)` idle workers,
//! one channel send each, because it is a runner too: more runners than
//! cores only queue behind each other. It then runs groups itself
//! rather than sleeping on replies, so a worker that wakes late finds
//! fewer groups left instead of holding the commit up, and spins
//! briefly before parking for the last group in flight. Each runner
//! borrows one [`ShardWorld`] for the whole batch.
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
use crossbeam::channel::{unbounded, Receiver, Sender};
use sentinel_analyze::{ConflictMatrix, ResolvedPattern};
use sentinel_events::TimeSource;
use sentinel_object::{
    ClassId, ClassRegistry, ObjectError, ObjectStore, Oid, Result, Value, World,
};
use sentinel_rules::{FiringBatch, ReadyRef};
use sentinel_storage::{LogRecord, UndoOp};
use sentinel_telemetry::{ExecutionLane, Stage, Telemetry};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// How long the committing thread spins on the last groups in flight
/// before it parks: a few groups of short bodies, such as the benchmark
/// `firing_cpu`'s three 2 µs audits per target. Spinning saves the
/// futex wake and reschedule of a park on the commit path; on 2 vCPUs
/// it was worth about 4 % of `firing_cpu`'s throughput.
const SPIN: Duration = Duration::from_micros(30);

/// Counters of the conflict-aware scheduler, retrievable via
/// [`Database::scheduler_stats`] (all zero under
/// [`ExecutionMode::Serial`](crate::ExecutionMode::Serial)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// Batches executed on the worker pool.
    pub parallel_batches: u64,
    /// Non-empty batches that fell back to the serial path (ineligible
    /// firing, single target, effect recording on).
    pub serial_fallbacks: u64,
    /// Groups (one per target) formed across all parallel batches.
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
/// store; every write is recorded for the coordinator to stage. Each
/// runner borrows one for a whole batch and re-arms it per group and
/// per firing.
///
/// Every access is checked against the firing's declared footprint —
/// this is what turns the declarations from trusted hints into an
/// enforced contract. Writes must hit the firing's own target within
/// the rule's declared write patterns (target sharding assumes writes
/// are instance-local, so a cross-target write would race a concurrent
/// group). Reads must hit the firing's own target within its declared
/// read footprint, or an attribute outside every parallel rule's
/// write-set (`shared_writes`) — anything else could observe a
/// concurrent group's writes mid-flight. Object lifecycle and message
/// sends are rejected outright — those belong to the serial path. Each
/// rejection fails the body, which makes a lying declaration degrade
/// safely to a serial re-run.
struct ShardWorld<'a> {
    store: &'a ObjectStore,
    registry: &'a ClassRegistry,
    clock: &'a TimeSource,
    /// The running group's writes, oldest first.
    writes: Vec<WriteRec>,
    /// Target oid of the group currently executing — the only object
    /// the footprint licenses writes (and contended reads) on.
    target: Oid,
    /// Declared reads (writes included) of the firing currently
    /// executing.
    reads: &'a [ResolvedPattern],
    /// Declared writes of the firing currently executing.
    writable: &'a [ResolvedPattern],
    /// Union of every parallel rule's declared writes: the attributes
    /// some concurrent group may be writing right now.
    shared_writes: &'a [ResolvedPattern],
}

impl ShardWorld<'_> {
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

    /// Restore every write of the running group, newest first, and
    /// forget them (whole-group rollback before a `NeedsSerial`
    /// verdict), so the next group starts from a clean buffer.
    fn undo_all(&mut self) {
        for w in self.writes.drain(..).rev() {
            let _ = self.store.set_slot(self.registry, w.oid, w.slot, w.old);
        }
    }
}

impl World for ShardWorld<'_> {
    fn registry(&self) -> &ClassRegistry {
        self.registry
    }

    fn create(&mut self, _class: &str) -> Result<Oid> {
        Err(Self::unsupported("create"))
    }

    fn delete(&mut self, _oid: Oid) -> Result<()> {
        Err(Self::unsupported("delete"))
    }

    fn get_attr(&self, oid: Oid, attr: &str) -> Result<Value> {
        let class = self.store.class_of(oid)?;
        let in_footprint = oid == self.target && self.reads.iter().any(|p| p.matches(class, attr));
        // Off-target (or undeclared) reads are safe only when no
        // concurrently running firing can be writing the attribute.
        if !in_footprint && self.shared_writes.iter().any(|p| p.matches(class, attr)) {
            return Err(Self::undeclared(
                "read",
                &self.registry.get(class).name,
                attr,
            ));
        }
        self.store.get_attr(self.registry, oid, attr)
    }

    fn set_attr(&mut self, oid: Oid, attr: &str, value: Value) -> Result<()> {
        let class = self.store.class_of(oid)?;
        // Enforce the declared write-set: only the firing's own target,
        // only declared attributes. This is what lets groups run
        // concurrently on different targets, and what keeps disjoint
        // footprints genuinely disjoint even when a declaration lies.
        let allowed = oid == self.target && self.writable.iter().any(|p| p.matches(class, attr));
        if !allowed {
            return Err(Self::undeclared(
                "write",
                &self.registry.get(class).name,
                attr,
            ));
        }
        let (_, slot, old) =
            self.store
                .set_attr_resolved(self.registry, oid, attr, value.clone())?;
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
        Ok(self.store.extent(self.registry, id))
    }

    fn now(&self) -> u64 {
        self.clock.now()
    }
}

/// The result of one firing that completed on a worker, ready to merge.
struct FiringDone {
    cond_held: bool,
    cond_ns: Option<u64>,
    action_ns: Option<u64>,
    /// Worker-measured condition-to-action latency for the history
    /// record (0 when history capture is off).
    firing_ns: u64,
    /// The firing's writes, as a range of its group's write buffer.
    writes: Range<usize>,
}

/// What a runner reports for one group.
enum GroupResult {
    /// Every firing ran: one write buffer for the group, and per firing
    /// (in group order) its outcome and its range of that buffer.
    Completed {
        writes: Vec<WriteRec>,
        firings: Vec<FiringDone>,
    },
    /// A body errored (or violated its declared footprint): the group's
    /// writes were rolled back on the worker and every firing must
    /// re-run serially.
    NeedsSerial,
}

/// The firings of a batch on one target: a run of the batch's sorted
/// order.
struct Group {
    /// The target oid every firing in the group fired on — the only
    /// object the worker's footprint guard licenses writes on.
    target: Oid,
    /// The group's range of [`Batch::order`].
    members: Range<usize>,
}

/// One parallel batch, shared by the committing thread and the workers
/// it was handed to. Every thread claims groups one at a time until none
/// are left, so a batch costs one hand-off per helper however many
/// groups it holds, the committing thread starts on it at once, and a
/// worker that wakes late finds less to do instead of holding the
/// commit up.
pub(crate) struct Batch {
    /// The ready firings, in batch (firing) order.
    firings: FiringBatch,
    /// `(target, batch index)` of every firing, sorted: each group is a
    /// run of one target, in batch order.
    order: Vec<(Oid, u32)>,
    groups: Vec<Group>,
    /// Per batch index: its group and its position in the group.
    place: Vec<(u32, u32)>,
    /// One slot per group, filled by whichever thread ran it.
    results: Vec<OnceLock<GroupResult>>,
    /// Index of the next unclaimed group.
    next: AtomicUsize,
    /// Groups whose result slot is filled.
    done: AtomicUsize,
    registry: Arc<ClassRegistry>,
    /// The fresh matrix the batch was planned against: the footprints
    /// every access is checked with.
    matrix: Arc<ConflictMatrix>,
    /// The committing thread, unparked by whoever completes the last
    /// group.
    coordinator: Thread,
}

impl Batch {
    /// Claim and run groups until none are left, on one borrowed world.
    fn run_share(&self, store: &ObjectStore, clock: &TimeSource, telemetry: &Telemetry) {
        let mut world = ShardWorld {
            store,
            registry: &self.registry,
            clock,
            writes: Vec::new(),
            target: Oid::NIL,
            reads: &[],
            writable: &[],
            shared_writes: self.matrix.shared_writes(),
        };
        loop {
            // The claim only hands out distinct indices; the groups were
            // published by the hand-off itself, so `Relaxed` is enough.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(group) = self.groups.get(i) else {
                return;
            };
            let result = self.run_group(group, &mut world, telemetry);
            assert!(self.results[i].set(result).is_ok(), "group {i} ran twice");
            // `AcqRel` pairs with the `Acquire` in `wait`: the thread that
            // sees every group done sees every slot filled.
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.groups.len() {
                self.coordinator.unpark();
            }
        }
    }

    fn run_group<'a>(
        &'a self,
        group: &Group,
        world: &mut ShardWorld<'a>,
        telemetry: &Telemetry,
    ) -> GroupResult {
        world.target = group.target;
        // A body that panics fails its group like one that errors, so no
        // thread waits on a group that never completes; the serial re-run
        // then raises the panic again on the committing thread, as `Serial`
        // would.
        let ran = catch_unwind(AssertUnwindSafe(|| {
            self.run_firings(group, world, telemetry)
        }));
        match ran {
            Ok(Some(firings)) => GroupResult::Completed {
                writes: std::mem::take(&mut world.writes),
                firings,
            },
            _ => {
                world.undo_all();
                GroupResult::NeedsSerial
            }
        }
    }

    /// Run a group's firings in firing order; `None` as soon as a body
    /// errors or leaves its declared footprint.
    fn run_firings<'a>(
        &'a self,
        group: &Group,
        world: &mut ShardWorld<'a>,
        telemetry: &Telemetry,
    ) -> Option<Vec<FiringDone>> {
        let mut done = Vec::with_capacity(group.members.len());
        for &(_, i) in &self.order[group.members.clone()] {
            let f = self.firings.get(i as usize).expect("planned firing");
            // Arm the guard with this firing's declared footprint (the
            // plan found one for every firing in this same matrix).
            let footprint = self.matrix.footprint(f.rule_index(), f.firing.rule)?;
            world.reads = &footprint.reads;
            world.writable = &footprint.writes;
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
            done.push(FiringDone {
                cond_held: held,
                cond_ns,
                action_ns,
                firing_ns: firing_timer.elapsed_ns().unwrap_or(0),
                writes: start..world.writes.len(),
            });
        }
        Some(done)
    }

    /// Return once every group has a result: spin for up to [`SPIN`],
    /// then park until the thread that completes the last group unparks
    /// this one. The unpark token outlives an early unpark, and a
    /// spurious wake-up just re-checks.
    fn wait(&self) {
        let all_done = || self.done.load(Ordering::Acquire) == self.groups.len();
        let started = Instant::now();
        while !all_done() {
            if started.elapsed() < SPIN {
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        }
    }

    /// Merge step `k`: the firing at batch index `k`, with its worker
    /// outcome and writes, or marked for a serial re-run if its group
    /// failed.
    fn step(&self, k: usize) -> MergeStep<'_> {
        let f = self.firings.get(k).expect("merge step in range");
        let (group, pos) = self.place[k];
        match self.results[group as usize]
            .get()
            .expect("the batch waited for every group")
        {
            GroupResult::Completed { writes, firings } => {
                let done = &firings[pos as usize];
                MergeStep::Merge(f, done, &writes[done.writes.clone()])
            }
            GroupResult::NeedsSerial => MergeStep::Rerun(f),
        }
    }
}

/// One unit of coordinator work after a parallel dispatch: merge a
/// worker-completed firing and its writes, or re-run a firing whose
/// group fell back.
enum MergeStep<'a> {
    Merge(ReadyRef<'a>, &'a FiringDone, &'a [WriteRec]),
    Rerun(ReadyRef<'a>),
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
    pub(crate) matrix: Option<Arc<ConflictMatrix>>,
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
    /// beyond one, at most [`helpers`], run a share on this thread, and
    /// wait for the rest.
    fn execute(
        &self,
        batch: &Arc<Batch>,
        store: &ObjectStore,
        clock: &TimeSource,
        telemetry: &Telemetry,
        now: u64,
    ) {
        for group in &batch.groups {
            let size = group.members.len();
            telemetry.observe(Stage::SchedulerGroup, now, size as u64, || {
                format!("group of {size}")
            });
        }
        let n = batch.groups.len();
        let timer = telemetry.timer();
        // A worker still holding an earlier batch is skipped: queueing
        // batches behind a descheduled worker would keep them all alive.
        let idle = self
            .workers
            .iter()
            .filter(|(_, busy)| !busy.swap(true, Ordering::AcqRel));
        for (tx, _) in idle.take((n - 1).min(helpers())) {
            assert!(
                tx.send(Arc::clone(batch)).is_ok(),
                "scheduler workers alive"
            );
        }
        batch.run_share(store, clock, telemetry);
        batch.wait();
        telemetry.observe_timer(Stage::SchedulerWait, now, timer, || format!("{n} groups"));
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
    Serial(FiringBatch),
    /// On the pool, in ≥ 2 groups, one per target.
    Parallel(Arc<Batch>),
}

/// Most workers one batch is handed to: one fewer than the cores, since
/// the committing thread runs groups too, and at least one. Asked of the
/// OS once per process, at the first parallel batch rather than when a
/// database starts (the answer reads the cgroup limits, tens of µs).
fn helpers() -> usize {
    // 0 until first asked; racing first callers store the same value.
    static HELPERS: AtomicUsize = AtomicUsize::new(0);
    match HELPERS.load(Ordering::Relaxed) {
        0 => {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            let helpers = cores.saturating_sub(1).max(1);
            HELPERS.store(helpers, Ordering::Relaxed);
            helpers
        }
        helpers => helpers,
    }
}

/// The object a firing fired on: the last constituent of its occurrence.
fn target_of(f: &ReadyRef<'_>) -> Oid {
    f.firing
        .occurrence
        .constituents
        .last()
        .map_or(Oid::NIL, |c| c.oid)
}

impl Database {
    /// Rebuild the cached conflict matrix if the rule set, body
    /// registry, or schema changed. No-op under serial execution.
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
        sched.stats.matrix_rebuilds += 1;
        sched.matrix = Some(Arc::new(ConflictMatrix::build(
            &self.registry,
            &self.engine,
        )));
    }

    /// Decide how `batch` executes. Parallel requires: a scheduler, no
    /// runtime effect recording (its attribution stack is inherently
    /// serial), a footprint in the fresh matrix for every firing's rule,
    /// and at least two distinct targets — one group would serialize on
    /// a worker anyway.
    pub(crate) fn plan_batch(&mut self, batch: FiringBatch) -> Plan {
        if self.scheduler.is_none() || batch.is_empty() {
            return Plan::Serial(batch);
        }
        if batch.len() < 2 || self.effect_recorder.is_some() {
            return self.plan_serial_fallback(batch);
        }
        self.refresh_conflict_matrix();
        let sched = self.scheduler.as_ref().expect("checked above");
        let matrix = Arc::clone(sched.matrix.as_ref().expect("refreshed above"));
        let mut order = Vec::with_capacity(batch.len());
        // A serial-lane rule, or one removed since the firing was
        // scheduled, keeps the whole batch in the serial order.
        let planned = batch.iter().enumerate().all(|(i, f)| {
            order.push((target_of(&f), i as u32));
            matrix.footprint(f.rule_index(), f.firing.rule).is_some()
        });
        if !planned {
            return self.plan_serial_fallback(batch);
        }
        order.sort_unstable();
        let mut groups: Vec<Group> = Vec::new();
        let mut place = vec![(0, 0); batch.len()];
        for (at, &(target, i)) in order.iter().enumerate() {
            match groups.last_mut() {
                Some(g) if g.target == target => g.members.end = at + 1,
                _ => groups.push(Group {
                    target,
                    members: at..at + 1,
                }),
            }
            let g = groups.len() - 1;
            place[i as usize] = (g as u32, (at - groups[g].members.start) as u32);
        }
        if groups.len() < 2 {
            return self.plan_serial_fallback(batch);
        }
        let sched = self.scheduler.as_mut().expect("checked above");
        sched.stats.parallel_batches += 1;
        sched.stats.groups_formed += groups.len() as u64;
        let registry = sched.snapshot_registry(&self.registry);
        Plan::Parallel(Arc::new(Batch {
            results: groups.iter().map(|_| OnceLock::new()).collect(),
            firings: batch,
            order,
            groups,
            place,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            registry,
            matrix,
            coordinator: std::thread::current(),
        }))
    }

    fn plan_serial_fallback(&mut self, batch: FiringBatch) -> Plan {
        if let Some(sched) = &mut self.scheduler {
            sched.stats.serial_fallbacks += 1;
            sched.stats.serial_firings += batch.len() as u64;
        }
        Plan::Serial(batch)
    }

    fn dispatch_to_pool(&self, batch: &Arc<Batch>) {
        let sched = self.scheduler.as_ref().expect("parallel plan");
        let now = self.clock.now();
        sched.execute(batch, &self.store, &self.clock, &self.telemetry, now);
    }

    /// Restore (newest first) every worker write from merge step `from`
    /// onward that has not been merged into the transaction pipeline —
    /// the cleanup before propagating an error, so no unstaged store
    /// mutation survives it. `from` is the *failing* step itself: a
    /// merge that errored partway leaves a tail of writes with no staged
    /// undo, and re-restoring its already-staged head is idempotent
    /// (both put back the same old value).
    fn undo_unmerged(&self, batch: &Batch, from: usize) {
        for k in (from..batch.firings.len()).rev() {
            if let MergeStep::Merge(_, _, writes) = batch.step(k) {
                for w in writes.iter().rev() {
                    let _ = self
                        .store
                        .set_slot(&self.registry, w.oid, w.slot, w.old.clone());
                }
            }
        }
    }

    /// Merge one worker-completed firing into the active transaction:
    /// the same accounting, history record, undo/redo staging, and
    /// index refreshes the serial path performs — just from the
    /// recorded write log instead of live execution.
    fn merge_parallel_firing(
        &mut self,
        f: ReadyRef<'_>,
        done: &FiringDone,
        writes: &[WriteRec],
    ) -> Result<()> {
        self.engine.account_firing(
            &f,
            done.cond_held,
            done.cond_ns,
            done.action_ns,
            self.clock.now(),
        );
        if self.telemetry.is_history() && f.firing.lineage.id != 0 {
            self.stage_firing_record(&f, done.firing_ns, true, ExecutionLane::Parallel);
        }
        let durable = self.pipeline.is_durable();
        let txn = self.pipeline.current().expect("merge runs inside a txn");
        for w in writes {
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
            for w in writes {
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

    /// Re-run one firing of a failed group on the serial path (merge
    /// step `k` of `batch`). Should the re-run panic, every unmerged
    /// worker write from `k` on is restored before the panic continues:
    /// later groups wrote straight to the store with no undo staged, and
    /// under `Serial` they would never have run.
    fn rerun_serial(
        &mut self,
        batch: &Batch,
        k: usize,
        run: impl FnOnce(&mut Self) -> Result<()>,
    ) -> Result<()> {
        if let Some(sched) = &mut self.scheduler {
            sched.stats.serial_reruns += 1;
            sched.stats.serial_firings += 1;
        }
        catch_unwind(AssertUnwindSafe(|| run(self))).unwrap_or_else(|panic| {
            self.undo_unmerged(batch, k);
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
    pub(crate) fn run_deferred_parallel(&mut self, batch: Arc<Batch>) -> Result<()> {
        self.dispatch_to_pool(&batch);
        for k in 0..batch.firings.len() {
            let outcome = match batch.step(k) {
                MergeStep::Merge(f, done, writes) => self.merge_parallel_firing(f, done, writes),
                MergeStep::Rerun(f) => self.rerun_serial(&batch, k, |db| db.execute_firing(&f)),
            };
            if let Err(e) = outcome {
                self.undo_unmerged(&batch, k);
                return Err(e);
            }
        }
        self.recycle_parallel(batch);
        Ok(())
    }

    /// Hand a run batch's firings back to the engine for reuse, unless a
    /// worker still holds the batch.
    fn recycle_parallel(&mut self, batch: Arc<Batch>) {
        if let Ok(batch) = Arc::try_unwrap(batch) {
            self.engine.recycle(batch.firings);
        }
    }

    /// Parallel execution of a detached batch: worker-completed firings
    /// are merged each inside its own follow-on transaction (preserving
    /// the one-transaction-per-detached-firing contract) and
    /// `NeedsSerial` firings replay the ordinary serial detached path,
    /// all strictly in original batch order.
    pub(crate) fn run_detached_parallel(&mut self, batch: Arc<Batch>) -> Result<()> {
        self.dispatch_to_pool(&batch);
        for k in 0..batch.firings.len() {
            match batch.step(k) {
                MergeStep::Merge(f, done, writes) => {
                    self.count_detached_run(&f);
                    let committed = self
                        .pipeline
                        .begin()
                        .and_then(|_| self.merge_parallel_firing(f, done, writes))
                        .and_then(|_| self.commit_internal());
                    if let Err(e) = committed {
                        if self.pipeline.in_txn() {
                            self.rollback();
                        }
                        self.undo_unmerged(&batch, k);
                        return Err(e);
                    }
                }
                MergeStep::Rerun(f) => {
                    if let Err(e) = self.rerun_serial(&batch, k, |db| db.run_detached_serial(&f)) {
                        self.undo_unmerged(&batch, k);
                        return Err(e);
                    }
                }
            }
        }
        self.recycle_parallel(batch);
        Ok(())
    }
}
