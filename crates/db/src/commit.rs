//! The commit pipeline: stage → validate → WAL append → apply → ack.
//!
//! A [`Database`] mutation never talks to the WAL directly. While a
//! transaction runs, every redo record and every undo op is staged into
//! the transaction's [`WriteBatch`]; commit pushes the whole batch
//! through the write-ahead log in one call (one durability point per
//! transaction under `SyncPolicy::OnCommit`, one per *group* under
//! `SyncPolicy::Grouped`), and abort replays the staged undo without a
//! byte reaching the log. This module owns that machinery — the
//! [`CommitPipeline`] value plus the transaction-facing half of
//! `Database` (begin/commit/abort, detached execution, checkpoint and
//! recovery). The rollback half lives in [`crate::undo`].

use crate::catalog::CatalogSnapshot;
use crate::config::DbConfig;
use crate::database::{meta, Database};
use sentinel_object::{ObjectError, ObjectStore, Result};
use sentinel_rules::{BackpressurePolicy, FiringBatch, ReadyRef};
use sentinel_storage::{
    BatchAck, LogRecord, Snapshot, TxnId, TxnManager, UndoOp, Wal, WalSyncer, WriteBatch,
};
use sentinel_telemetry::{ExecutionLane, Fact, FiringId, FiringOutcome, FiringRecord, Stage};

/// The layered write path of one database: transaction ids, the WAL,
/// and the active transaction's staged [`WriteBatch`].
///
/// Stages of a commit:
/// 1. **stage** — mutations applied eagerly to the store push their redo
///    record and undo op here;
/// 2. **validate** — deferred rules run to a fixpoint inside the
///    transaction (an abort discards the batch);
/// 3. **WAL append** — the batch's records, closed by `ClockAdvance` +
///    `Commit`, reach the log in one `append_batch` call;
/// 4. **apply/ack** — under `OnCommit` the commit record's fsync is the
///    ack; under `Grouped` the records stay staged in the WAL until the
///    group fsync acknowledges the whole batch. A bare database runs
///    that fsync inline, at `max_batch` or once `max_wait` has passed;
///    behind a [`Sentinel`](crate::Sentinel) the worker runs it through
///    a [`WalSyncer`], without the core lock, and a commit only stages.
pub(crate) struct CommitPipeline {
    txn: TxnManager,
    wal: Option<Wal>,
    batch: WriteBatch,
}

impl CommitPipeline {
    pub(crate) fn new(wal: Option<Wal>) -> Self {
        CommitPipeline {
            txn: TxnManager::new(),
            wal,
            batch: WriteBatch::new(),
        }
    }

    /// Is there a log to stage for?
    pub(crate) fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    pub(crate) fn current(&self) -> Option<TxnId> {
        self.txn.current()
    }

    pub(crate) fn in_txn(&self) -> bool {
        self.txn.in_txn()
    }

    /// Ensure future transaction ids exceed `floor` (recovery path).
    pub(crate) fn set_floor(&mut self, floor: TxnId) {
        self.txn.set_floor(floor);
    }

    /// Open a transaction and its write batch.
    pub(crate) fn begin(&mut self) -> Result<TxnId> {
        let id = self.txn.begin()?;
        if self.wal.is_some() {
            self.batch.begin(id);
            self.batch.push_record(LogRecord::Begin { txn: id });
        }
        Ok(id)
    }

    /// Stage a redo record into the active transaction's batch. In-memory
    /// configurations skip staging entirely (nothing would ever drain it).
    pub(crate) fn stage(&mut self, record: LogRecord) {
        if self.wal.is_some() {
            self.batch.push_record(record);
        }
    }

    /// Stage the inverse of a mutation just applied to the store.
    /// Errors when no transaction is active, like the mutation itself
    /// should have.
    pub(crate) fn stage_undo(&mut self, op: UndoOp) -> Result<()> {
        if !self.txn.in_txn() {
            return Err(ObjectError::NoActiveTransaction);
        }
        self.batch.push_undo(op);
        Ok(())
    }

    /// Commit: close the batch with `ClockAdvance` + `Commit`, append it
    /// to the WAL as one unit, and (policy permitting) make it durable.
    pub(crate) fn commit(&mut self, clock_now: u64) -> Result<TxnId> {
        let id = self.txn.commit()?;
        if let Some(w) = &mut self.wal {
            self.batch
                .push_record(LogRecord::ClockAdvance { at: clock_now });
            self.batch.push_record(LogRecord::Commit { txn: id });
            w.append_batch(&self.batch)?;
            // Without a background syncer, honour the group's max_wait
            // bound here so a trickle of commits is not staged forever.
            if w.inline_sync() && w.sync_due() {
                w.sync_batch()?;
            }
        }
        self.batch.commit();
        Ok(id)
    }

    /// Abort: replay the staged undo ops in reverse and discard the
    /// staged records unwritten — an aborted transaction leaves no trace
    /// in the log. Returns the aborted id, or `None` when no transaction
    /// was active.
    pub(crate) fn rollback(&mut self, store: &ObjectStore) -> Option<TxnId> {
        self.batch.rollback(store);
        self.txn.abort(store).ok()
    }

    /// Force the WAL's staged group to disk now (no-op ack under other
    /// policies or in memory).
    pub(crate) fn sync(&mut self) -> Result<BatchAck> {
        match &mut self.wal {
            Some(w) => w.sync_batch(),
            None => Ok(BatchAck::default()),
        }
    }

    /// Hand group syncs to a background thread (`inline == false`),
    /// returning the handle it syncs through, or take them back.
    pub(crate) fn set_inline_sync(&mut self, inline: bool) -> Option<WalSyncer> {
        let w = self.wal.as_mut()?;
        w.set_inline_sync(inline);
        Some(w.syncer())
    }

    /// Committed transactions staged in the WAL but not yet fsynced.
    pub(crate) fn staged_commits(&self) -> u64 {
        self.wal.as_ref().map(Wal::staged_commits).unwrap_or(0)
    }

    /// Committed transactions acknowledged as durable by an fsync.
    pub(crate) fn durable_commits(&self) -> u64 {
        self.wal.as_ref().map(Wal::durable_commits).unwrap_or(0)
    }

    /// Truncate the WAL after a checkpoint.
    pub(crate) fn truncate(&mut self) -> Result<()> {
        match &mut self.wal {
            Some(w) => w.truncate(),
            None => Ok(()),
        }
    }
}

impl Database {
    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Begin an explicit transaction.
    pub fn begin(&mut self) -> Result<()> {
        self.pipeline.begin()?;
        self.txn_start_clock = self.clock.now();
        self.engine.begin_capture();
        Ok(())
    }

    /// Is a transaction active?
    pub fn in_txn(&self) -> bool {
        self.pipeline.in_txn()
    }

    /// Commit the active transaction: run deferred rules (inside it),
    /// make it durable, then run detached firings in follow-on
    /// transactions (unless inline detached execution is off — see
    /// [`set_inline_detached`](Self::set_inline_detached)). With inline
    /// execution off, a full detached queue under
    /// [`BackpressurePolicy::Block`] makes this call drain the overflow
    /// itself — backpressure lands on the producer, not on memory.
    pub fn commit(&mut self) -> Result<()> {
        self.commit_internal()?;
        if self.inline_detached {
            self.run_detached()
        } else {
            self.enforce_detached_cap()
        }
    }

    /// When `false`, commits leave detached firings queued for an
    /// external executor ([`run_pending_detached`](Self::run_pending_detached));
    /// [`Sentinel`](crate::Sentinel) uses this to run them on a
    /// background thread.
    pub fn set_inline_detached(&mut self, inline: bool) {
        self.inline_detached = inline;
    }

    /// Detached firings awaiting execution.
    pub fn pending_detached(&self) -> usize {
        self.engine.pending().1
    }

    /// Execute queued detached firings now (each in its own
    /// transaction); returns how many ran.
    pub fn run_pending_detached(&mut self) -> Result<u64> {
        let before = self.stats().detached_runs;
        self.run_detached()?;
        Ok(self.stats().detached_runs - before)
    }

    /// Run at most `n` of the oldest queued detached firings, each in
    /// its own transaction; returns how many were taken.
    /// [`Sentinel`](crate::Sentinel)'s worker runs the queue in such
    /// slices, one per hold of the core.
    pub(crate) fn run_detached_slice(&mut self, n: usize) -> Result<usize> {
        let batch = self.engine.take_detached_oldest(n);
        let taken = batch.len();
        if taken > 0 {
            self.run_detached_batch(batch)?;
        }
        Ok(taken)
    }

    /// Hand background work to a worker thread (`true`), or take it
    /// back: detached firings stop or resume running inline at commit,
    /// and group fsyncs stop or resume running inline in commits. Returns
    /// the handle the worker syncs the WAL through (`None` in memory).
    pub(crate) fn set_background_worker(&mut self, worker: bool) -> Option<WalSyncer> {
        self.inline_detached = !worker;
        self.pipeline.set_inline_sync(!worker)
    }

    /// Abort the active transaction: undo object mutations and catalog
    /// mutations, discard pending rule work.
    pub fn abort(&mut self) -> Result<()> {
        if !self.pipeline.in_txn() {
            return Err(ObjectError::NoActiveTransaction);
        }
        self.rollback();
        Ok(())
    }

    pub(crate) fn commit_internal(&mut self) -> Result<()> {
        if !self.pipeline.in_txn() {
            return Err(ObjectError::NoActiveTransaction);
        }
        let commit_timer = self.telemetry.timer();
        // Deferred rules run at end-of-transaction, inside it. Their
        // actions may queue more deferred work; drain to a fixpoint,
        // bounded by the cascade limit. Each round boundary also drains
        // due timers: occurrences raised during the transaction advance
        // the logical instant, so `at`/`every`/window deadlines that
        // passed mid-transaction are delivered before the commit seals.
        let mut rounds = 0usize;
        loop {
            let timer_fires = if self.engine.timer_count() > 0 {
                match self.drain_due_timers() {
                    Ok(n) => n,
                    Err(e) => {
                        self.rollback();
                        return Err(e);
                    }
                }
            } else {
                0
            };
            let batch = self.engine.take_deferred();
            if batch.is_empty() {
                if timer_fires == 0 {
                    break;
                }
                // Timer firings ran but queued nothing deferred; loop
                // once more (they may have ticked the clock past another
                // deadline), still under the round bound below.
                rounds += 1;
                if rounds > self.config.max_cascade_depth {
                    let e = ObjectError::CascadeDepthExceeded {
                        limit: self.config.max_cascade_depth,
                    };
                    self.rollback();
                    return Err(e);
                }
                continue;
            }
            rounds += 1;
            if rounds > self.config.max_cascade_depth {
                let e = ObjectError::CascadeDepthExceeded {
                    limit: self.config.max_cascade_depth,
                };
                self.rollback();
                return Err(e);
            }
            match self.plan_batch(batch) {
                crate::scheduler::Plan::Serial(batch) => {
                    if let Err(e) = self.execute_batch(batch) {
                        self.rollback();
                        return Err(e);
                    }
                }
                crate::scheduler::Plan::Parallel(groups) => {
                    if let Err(e) = self.run_deferred_parallel(groups) {
                        self.rollback();
                        return Err(e);
                    }
                }
            }
        }
        let id = self.pipeline.commit(self.clock.now())?;
        self.engine.commit_capture();
        self.txn_rules.clear();
        self.txn_touched.clear();
        // The transaction is durable: its firings' fates are sealed.
        self.flush_pending_firings(false);
        self.engine.count_fact(Fact::Commits);
        self.engine.publish_facts();
        self.telemetry
            .observe_timer(Stage::TxnCommit, self.clock.now(), commit_timer, || {
                format!("txn {id}")
            });
        Ok(())
    }

    /// Execute queued detached firings, each in its own transaction. An
    /// abort in one detached firing does not affect the others.
    fn run_detached(&mut self) -> Result<()> {
        let mut rounds = 0usize;
        loop {
            let batch = self.engine.take_detached();
            if batch.is_empty() {
                return Ok(());
            }
            rounds += 1;
            if rounds > self.config.max_cascade_depth {
                return Err(ObjectError::CascadeDepthExceeded {
                    limit: self.config.max_cascade_depth,
                });
            }
            self.run_detached_batch(batch)?;
        }
    }

    /// With inline execution off and the `Block` policy, a commit that
    /// overflowed the detached queue drains the *overflow* (oldest
    /// first) before returning: the producer pays for the work its own
    /// storm created, and the queue never exceeds its cap for longer
    /// than one commit.
    fn enforce_detached_cap(&mut self) -> Result<()> {
        if self.engine.detached_policy() != BackpressurePolicy::Block {
            return Ok(());
        }
        let cap = self.engine.detached_cap();
        if self.pending_detached() <= cap {
            return Ok(());
        }
        let over = self.engine.take_detached_over(cap);
        self.run_detached_batch(over)
    }

    fn run_detached_batch(&mut self, batch: FiringBatch) -> Result<()> {
        match self.plan_batch(batch) {
            crate::scheduler::Plan::Serial(batch) => {
                for f in batch.iter() {
                    self.run_detached_serial(&f)?;
                }
                self.engine.recycle(batch);
                Ok(())
            }
            crate::scheduler::Plan::Parallel(groups) => self.run_detached_parallel(groups),
        }
    }

    /// One detached firing in its own transaction: an abort in it does
    /// not affect its siblings.
    pub(crate) fn run_detached_serial(&mut self, f: &ReadyRef<'_>) -> Result<()> {
        self.count_detached_run(f);
        self.pipeline.begin()?;
        match self.execute_firing(f) {
            Ok(()) => self.commit_internal(),
            Err(_) => {
                self.rollback();
                Ok(())
            }
        }
    }

    /// Count the run of detached firing `f` in its own transaction —
    /// serially or merged from a worker.
    pub(crate) fn count_detached_run(&mut self, f: &ReadyRef<'_>) {
        self.engine.count_fact(Fact::DetachedRuns);
        self.telemetry
            .trace(Stage::DetachedRun, self.clock.now(), || {
                f.firing.rule_name.to_string()
            });
    }

    /// Evaluate a triggered rule's condition and, if it holds, run its
    /// action. Bodies receive the database itself as their `World`.
    ///
    /// While firing history is on, the firing's lineage frame is pushed
    /// around body execution (so raises from the bodies stamp it as
    /// their parent) and a [`FiringRecord`] is staged; the record's
    /// outcome is sealed when the surrounding transaction commits or
    /// rolls back.
    pub(crate) fn execute_firing(&mut self, f: &ReadyRef<'_>) -> Result<()> {
        let history = self.telemetry.is_history() && f.firing.lineage.id != 0;
        if !history {
            return self.execute_firing_body(f);
        }
        let firing_timer = self.telemetry.history_timer();
        self.lineage_stack.push(f.firing.lineage);
        let out = self.execute_firing_body(f);
        self.lineage_stack.pop();
        let ns = firing_timer.elapsed_ns().unwrap_or(0);
        self.stage_firing_record(f, ns, out.is_ok(), ExecutionLane::Serial);
        out
    }

    pub(crate) fn stage_firing_record(
        &mut self,
        f: &ReadyRef<'_>,
        latency_ns: u64,
        ok: bool,
        lane: ExecutionLane,
    ) {
        let lin = f.firing.lineage;
        let target = f
            .firing
            .occurrence
            .constituents
            .last()
            .map_or(0, |c| c.oid.0);
        self.pending_firings.push(FiringRecord {
            id: FiringId(lin.id),
            rule: f.firing.rule_name.to_string(),
            target,
            coupling: f.coupling.into(),
            parent: lin.parent.map(FiringId),
            root_occurrence: lin.root,
            occurrence: f.firing.occurrence.end,
            depth: lin.depth,
            latency_ns,
            outcome: if ok {
                FiringOutcome::Committed
            } else {
                FiringOutcome::Aborted
            },
            lane,
        });
    }

    /// Flush staged firing records into the history ring. On a rollback
    /// (`force_abort`) every record is sealed as `Aborted`, including
    /// firings whose own bodies succeeded — their effects died with the
    /// transaction.
    pub(crate) fn flush_pending_firings(&mut self, force_abort: bool) {
        if self.pending_firings.is_empty() {
            return;
        }
        for mut rec in std::mem::take(&mut self.pending_firings) {
            if force_abort {
                rec.outcome = FiringOutcome::Aborted;
            }
            self.telemetry.record_firing(move || rec);
        }
    }

    fn execute_firing_body(&mut self, f: &ReadyRef<'_>) -> Result<()> {
        let cond_timer = self.telemetry.timer();
        let cond = (f.bodies.condition)(self, &f.firing);
        let cond_ns = cond_timer.elapsed_ns();
        let held = matches!(cond, Ok(true));
        let (out, action_ns) = match cond {
            Ok(true) => self.run_action(f),
            Ok(false) => (Ok(()), None),
            Err(e) => (Err(e), None),
        };
        // Accounted before the error propagates, so a firing whose body
        // aborts the transaction counts like any other.
        self.engine
            .account_firing(f, held, cond_ns, action_ns, self.clock.now());
        out
    }

    /// Run the action of `f`, whose condition held, one nesting level
    /// down; returns its result and, if telemetry timed it, its latency.
    fn run_action(&mut self, f: &ReadyRef<'_>) -> (Result<()>, Option<u64>) {
        // Pre-increment `>= limit` is the same inclusive semantics as
        // `dispatch`'s post-increment `> limit`: the action about to run
        // would sit at nesting level `depth + 1`.
        if self.depth >= self.config.max_cascade_depth {
            let limit = self.config.max_cascade_depth;
            return (Err(ObjectError::CascadeDepthExceeded { limit }), None);
        }
        let mut effect_frame = false;
        if self.effect_recorder.is_some() {
            if let Some(r) = self.engine.rule_of(f) {
                let action = r.def.action.clone();
                if let Some(rec) = &mut self.effect_recorder {
                    rec.stack.push(action);
                    effect_frame = true;
                }
            }
        }
        self.depth += 1;
        let action_timer = self.telemetry.timer();
        let out = (f.bodies.action)(self, &f.firing);
        let action_ns = action_timer.elapsed_ns();
        self.depth -= 1;
        if effect_frame {
            if let Some(rec) = &mut self.effect_recorder {
                rec.stack.pop();
            }
        }
        (out, action_ns)
    }

    /// Run `f` inside the active transaction, or inside a fresh
    /// auto-committed one when none is active (mirroring the paper's
    /// implicit per-message transactions).
    pub(crate) fn with_auto_txn<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.pipeline.in_txn() {
            let r = f(self);
            if let Err(e) = &r {
                if e.is_abort() {
                    self.rollback();
                }
            }
            r
        } else {
            self.begin()?;
            match f(self) {
                Ok(v) => {
                    self.commit()?;
                    Ok(v)
                }
                Err(e) => {
                    if self.pipeline.in_txn() {
                        self.rollback();
                    }
                    Err(e)
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Durability control
    // ------------------------------------------------------------------

    /// Force the WAL's staged group-commit batch to disk now. Returns
    /// the batch durability receipt (zero under other sync policies or
    /// in memory); when a [`Sentinel`](crate::Sentinel) worker has a
    /// group in flight, returns only once that group is durable too.
    pub fn sync_wal(&mut self) -> Result<BatchAck> {
        self.pipeline.sync()
    }

    /// Committed transactions staged in the WAL awaiting their group
    /// fsync. Always 0 outside `SyncPolicy::Grouped`.
    pub fn wal_staged_commits(&self) -> u64 {
        self.pipeline.staged_commits()
    }

    /// Committed transactions acknowledged as durable by an fsync. Under
    /// `SyncPolicy::Grouped` a crash loses exactly the commits beyond
    /// this count (property-tested in `tests/recovery_props.rs`).
    pub fn durable_commits(&self) -> u64 {
        self.pipeline.durable_commits()
    }

    // ------------------------------------------------------------------
    // Persistence
    // ------------------------------------------------------------------

    /// Stage a redo record into the active transaction's write batch.
    pub(crate) fn log(&mut self, record: LogRecord) -> Result<()> {
        self.pipeline.stage(record);
        Ok(())
    }

    pub(crate) fn catalog_snapshot(&self) -> CatalogSnapshot {
        let mut detector_state = Vec::new();
        for r in self.engine.iter_rules() {
            // Partial detections survive the checkpoint: a half-matched
            // sequence or an open window resumes after recovery instead
            // of silently restarting from scratch.
            let state = self
                .engine
                .detector_of(r.id)
                .expect("every rule has a detector")
                .export_state();
            if !state.is_trivial() {
                detector_state.push((r.def.name.clone(), state));
            }
        }
        detector_state.sort_by(|a, b| a.0.cmp(&b.0));
        CatalogSnapshot {
            detector_state,
            instant: self.clock.instant_now(),
        }
    }

    /// Write a snapshot and truncate the WAL (staged group-commit
    /// records count as covered by the snapshot). No transaction may be
    /// active.
    pub fn checkpoint(&mut self) -> Result<()> {
        if self.pipeline.in_txn() {
            return Err(ObjectError::TransactionAlreadyActive);
        }
        let Some(path) = self.config.snapshot_path() else {
            return Err(ObjectError::Storage(
                "checkpoint requires a durable configuration (data_dir)".into(),
            ));
        };
        let extra = serde_json::to_string(&self.catalog_snapshot())
            .map_err(|e| ObjectError::Storage(format!("serialize catalog: {e}")))?;
        Snapshot::capture(&self.registry, &self.store, self.clock.now(), extra).write(path)?;
        self.pipeline.truncate()
    }

    /// Recover a database from its data directory. Method bodies and
    /// rule condition/action bodies are code and must be re-registered
    /// by the application afterwards (by name); a rule whose bodies are
    /// missing fails cleanly when it fires. A torn WAL tail (bytes of a
    /// group batch the crash cut short) is truncated with a warning; the
    /// fully-synced prefix recovers.
    pub fn recover(config: DbConfig) -> Result<Self> {
        let snap_p = config
            .snapshot_path()
            .ok_or_else(|| ObjectError::Storage("recover requires data_dir".into()))?;
        let wal_p = config.wal_path().expect("durable");
        let telemetry = Self::new_telemetry(&config);
        let rec = sentinel_storage::recover_with(&snap_p, &wal_p, Some(&telemetry))?;
        let fresh = rec.registry.is_empty();
        let mut db = Self::assemble(rec.registry, rec.store, config, telemetry)?;
        db.pipeline.set_floor(rec.max_txn);
        db.clock.advance_to(rec.clock);
        if fresh {
            db.bootstrap_meta_classes()?;
        } else {
            db.rule_class = db.registry.id_of(meta::RULE)?;
            db.event_class = db.registry.id_of(meta::EVENT)?;
            db.register_rule_methods();
        }
        // The rule objects came back with the store; instantiate each
        // one from its slots, in oid order so co-triggered rules keep
        // their fan-out order.
        let mut rules = db.store.extent(&db.registry, db.rule_class);
        rules.sort_unstable();
        for oid in rules {
            db.sync_rule(oid)?;
        }
        let snap: CatalogSnapshot = if rec.extra.is_empty() {
            CatalogSnapshot::default()
        } else {
            serde_json::from_str(&rec.extra)
                .map_err(|e| ObjectError::Storage(format!("parse catalog snapshot: {e}")))?
        };
        // Restore partial detections captured at checkpoint, now that
        // the rules' enabled flags are known. Import is shape-checked: a
        // rule whose event expression changed between checkpoint and
        // recovery rejects the stale state and starts fresh rather than
        // corrupting its detector.
        for (rule, state) in snap.detector_state {
            let Ok(id) = db.engine.id_of(&rule) else {
                continue; // the rule was removed after the checkpoint
            };
            if db.engine.rule(id)?.enabled {
                db.engine.detector_of_mut(id)?.import_state(&state);
            }
        }
        if snap.instant > 0 {
            db.clock.set_virtual(snap.instant);
        }
        // Timers were registered while the clocks were still rewinding;
        // re-align them to the recovered instant so downtime is not
        // replayed as a burst of elapsed `every` boundaries.
        db.engine.reset_timers_to(db.clock.instant_now());
        Ok(db)
    }
}
