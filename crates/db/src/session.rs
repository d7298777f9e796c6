//! The session-handle API: [`Sentinel`] and [`Session`].
//!
//! [`Database`] is a single-threaded value — one owner, `&mut` for
//! everything. [`Sentinel`] is the concurrent face over the same engine:
//! a cloneable `Send + Sync` handle that owns the database's serialized
//! **write core** (a mutex around the [`Database`]) plus shared
//! references to its **read side** (the sharded object store, the
//! published schema, the attribute indexes, the logical clock, and the
//! telemetry handle with its atomic fact table). A [`Session`] opened
//! from the handle reads — `get_attr`, extents, [`Query`] runs, stats
//! snapshots, metrics export — without ever taking the core lock, so
//! any number of reader threads proceed in parallel with each other and
//! with the single writer.
//!
//! What stays single-writer: `send` (method dispatch + rule cascades),
//! DDL, rule/event catalog mutation, explicit transactions, checkpoint
//! and recovery. The paper's semantics are inherently single-writer —
//! immediate rules run inside the triggering transaction — so the
//! redesign moves exactly the operations with no ordering obligations
//! off the lock, and nothing else.
//!
//! Isolation: readers are read-uncommitted with respect to the in-flight
//! transaction (they see writes the moment the shard lock is released,
//! and may see state an abort later undoes). Each individual read is
//! internally consistent — it happens under one shard read lock. The
//! trade-off and the lock ordering rules are documented in DESIGN.md §11.
//!
//! The background worker runs detached firings and doubles as the
//! **group-commit syncer**. Each wakeup it runs the detached queue in
//! slices of at most eight firings, taking the core lock once per
//! slice, so a backlog never holds the producers off for more than one
//! slice. Then it writes and fsyncs the WAL's staged group through a
//! [`WalSyncer`] *without* the core lock: the syncer swaps the group out
//! for a spare buffer, so producers keep committing into the next group
//! while the fsync runs. Under `SyncPolicy::Grouped` a burst of producer
//! commits shares one fsync, and no producer commit ever fsyncs: opening
//! a `Sentinel` turns the WAL's inline syncs (at `max_batch`, and once
//! `max_wait` has passed) off, and [`shutdown`](Sentinel::shutdown) turns
//! them back on. Lock order: core → WAL file → staged group; the worker
//! never takes the core while it holds the file lock.
//! [`drain`](Sentinel::drain) runs what is left under the core lock and
//! syncs before returning, waiting out any group the worker still has in
//! flight.

use crate::database::Database;
use crate::index::AttrIndex;
use crate::query::ObjectView;
use crate::stats::{DbStats, FullStats};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use sentinel_events::TimeSource;
use sentinel_object::{ClassRegistry, ObjectError, ObjectStore, Oid, Result, Value};
use sentinel_storage::WalSyncer;
use sentinel_telemetry::{ShardLoad, Telemetry};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The read-side state shared between the write core and every session.
#[derive(Clone)]
pub(crate) struct ReadHandles {
    pub store: Arc<ObjectStore>,
    pub registry: Arc<RwLock<ClassRegistry>>,
    pub indexes: Arc<RwLock<Vec<AttrIndex>>>,
    pub clock: Arc<TimeSource>,
    pub telemetry: Arc<Telemetry>,
}

enum Signal {
    Drain,
    Shutdown,
}

struct SentinelInner {
    core: Arc<Mutex<Database>>,
    reads: ReadHandles,
    tx: Sender<Signal>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl Drop for SentinelInner {
    fn drop(&mut self) {
        let _ = self.tx.send(Signal::Shutdown);
        if let Some(w) = self.worker.lock().take() {
            let _ = w.join();
        }
    }
}

/// A cloneable, thread-safe handle to a Sentinel database.
///
/// Writes serialize through the core lock ([`with`](Self::with) /
/// [`send`](Self::send) / [`transaction`](Self::transaction)); reads go
/// through [`Session`]s and never touch it. Detached firings run on a
/// background worker thread.
///
/// ```
/// use sentinel_db::prelude::*;
///
/// let sentinel = Sentinel::new();
/// sentinel
///     .with(|db| db.define_class(ClassDecl::new("Emp").attr("salary", TypeTag::Float)))
///     .unwrap();
/// let e = sentinel.with(|db| db.create("Emp")).unwrap();
/// let session = sentinel.session();
/// assert_eq!(session.get_attr(e, "salary").unwrap(), Value::Float(0.0));
/// ```
#[derive(Clone)]
pub struct Sentinel {
    inner: Arc<SentinelInner>,
}

impl Default for Sentinel {
    fn default() -> Self {
        Self::new()
    }
}

impl Sentinel {
    /// A fresh in-memory database behind a concurrent handle.
    pub fn new() -> Self {
        Self::open(Database::new())
    }

    /// Wrap an existing database. Detached firings stop running inline
    /// on the committing thread, and commits stop syncing the WAL; the
    /// spawned worker picks up both.
    pub fn open(mut db: Database) -> Self {
        let syncer = db.set_background_worker(true);
        let reads = db.read_handles();
        let core = Arc::new(Mutex::new(db));
        let (tx, rx): (Sender<Signal>, Receiver<Signal>) = unbounded();
        // The worker captures only the core Arc (not SentinelInner), so
        // dropping the last Sentinel clone tears the whole thing down.
        let worker_core = Arc::clone(&core);
        let worker = std::thread::Builder::new()
            .name("sentinel-detached".into())
            .spawn(move || {
                while let Ok(first) = rx.recv() {
                    let mut shutdown = matches!(first, Signal::Shutdown);
                    // Coalesce queued signals into one drain pass, but
                    // never lose a Shutdown seen on the way.
                    while let Ok(sig) = rx.try_recv() {
                        if matches!(sig, Signal::Shutdown) {
                            shutdown = true;
                        }
                    }
                    run_detached_in_slices(&worker_core, syncer.as_ref());
                    // One group fsync, off the core lock, covers every
                    // commit this wakeup ran (and any the producers
                    // staged since).
                    if let Some(syncer) = &syncer {
                        let _ = syncer.sync_batch();
                    }
                    if shutdown {
                        break;
                    }
                }
            })
            .expect("spawn detached worker");
        Sentinel {
            inner: Arc::new(SentinelInner {
                core,
                reads,
                tx,
                worker: Mutex::new(Some(worker)),
            }),
        }
    }

    /// Open a read session. Sessions are cheap (a few `Arc` clones) and
    /// cloneable; open one per thread or share one — either works.
    pub fn session(&self) -> Session {
        Session {
            reads: Arc::new(self.inner.reads.clone()),
        }
    }

    /// Run `f` on the write core, under the lock. If the call left
    /// detached work queued or group-commit records staged in the WAL,
    /// the background worker is signalled to drain/sync.
    pub fn with<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        let mut db = self.inner.core.lock();
        let out = f(&mut db);
        let pending = db.pending_detached() > 0 || db.wal_staged_commits() > 0;
        drop(db);
        if pending {
            let _ = self.inner.tx.send(Signal::Drain);
        }
        out
    }

    /// Convenience: a fallible operation on the write core.
    pub fn try_with<R>(&self, f: impl FnOnce(&mut Database) -> Result<R>) -> Result<R> {
        self.with(f)
    }

    /// Statically analyze the rule set (see [`Database::analyze`]).
    pub fn analyze(&self) -> sentinel_analyze::AnalysisReport {
        self.with(|db| db.analyze())
    }

    /// Counters of the parallel firing scheduler (see
    /// [`Database::scheduler_stats`]); all zero under
    /// [`ExecutionMode::Serial`](crate::ExecutionMode::Serial).
    pub fn scheduler_stats(&self) -> crate::SchedulerStats {
        self.with(|db| db.scheduler_stats())
    }

    /// Fail on any error-severity analysis finding (see
    /// [`Database::analyze_gate`]).
    pub fn analyze_gate(&self) -> Result<()> {
        self.with(|db| db.analyze_gate())
    }

    /// Send a message (serialized through the write core).
    pub fn send(&self, receiver: Oid, method: &str, args: &[Value]) -> Result<Value> {
        self.with(|db| db.send(receiver, method, args))
    }

    /// Run `f` inside one explicit transaction: `begin`, then `f`, then
    /// `commit` on `Ok` / `abort` on `Err` (the error is passed through).
    pub fn transaction<R>(&self, f: impl FnOnce(&mut Database) -> Result<R>) -> Result<R> {
        self.with(|db| {
            db.begin()?;
            match f(db) {
                Ok(out) => {
                    db.commit()?;
                    Ok(out)
                }
                Err(e) => {
                    // A rule abort may already have closed the txn.
                    if db.in_txn() {
                        let _ = db.abort();
                    }
                    Err(e)
                }
            }
        })
    }

    /// Block until no detached work is pending and every committed
    /// transaction is durable (best-effort: new commits can queue more).
    pub fn drain(&self) {
        loop {
            {
                let mut db = self.inner.core.lock();
                let _ = db.run_pending_detached();
                if db.pending_detached() == 0 {
                    let _ = db.sync_wal();
                    return;
                }
            }
            std::thread::yield_now();
        }
    }

    /// Stop the worker (running remaining detached work first) and give
    /// the database back. Errors if other `Sentinel` clones are alive.
    pub fn shutdown(self) -> Result<Database> {
        self.drain();
        let _ = self.inner.tx.send(Signal::Shutdown);
        if let Some(w) = self.inner.worker.lock().take() {
            let _ = w.join();
        }
        let inner = Arc::try_unwrap(self.inner).map_err(|_| {
            ObjectError::App("Sentinel::shutdown with outstanding handle clones".into())
        })?;
        let core = Arc::clone(&inner.core);
        drop(inner); // Drop impl is a no-op now: worker already joined
        match Arc::try_unwrap(core) {
            Ok(m) => {
                let mut db = m.into_inner();
                db.set_background_worker(false);
                Ok(db)
            }
            Err(_) => Err(ObjectError::App(
                "Sentinel::shutdown with a live detached worker".into(),
            )),
        }
    }
}

/// Detached firings the worker runs per hold of the core lock.
const DETACHED_SLICE: usize = 8;

/// Run the detached queue on the worker, one slice per hold of the core,
/// until it is empty. Like [`Database::run_pending_detached`], one call
/// makes at most `max_cascade_depth` passes over the queue (a pass runs
/// the firings queued when it began), so a self-triggering detached rule
/// cannot keep the worker busy forever; what it leaves waits for the
/// next signal. Between slices a group that reached `max_batch` is
/// synced, off the lock.
fn run_detached_in_slices(core: &Mutex<Database>, syncer: Option<&WalSyncer>) {
    let mut passes = 0;
    // Firings of the current pass not yet run.
    let mut left = 0;
    loop {
        {
            let mut db = core.lock();
            if left == 0 {
                left = db.pending_detached();
                passes += 1;
                if left == 0 || passes > db.config.max_cascade_depth {
                    return;
                }
            }
            // Errors inside detached firings abort only their own
            // transaction; scheduling failures surface in stats.
            left = match db.run_detached_slice(left.min(DETACHED_SLICE)) {
                Ok(taken) if taken > 0 => left.saturating_sub(taken),
                _ => 0,
            };
        }
        if let Some(syncer) = syncer.filter(|s| s.batch_full()) {
            let _ = syncer.sync_batch();
        }
    }
}

/// A read-only view of the database, usable concurrently from many
/// threads without blocking the writer (or each other).
///
/// Reads are read-uncommitted: a value written by an in-flight
/// transaction is visible before that transaction commits. Every
/// individual read is internally consistent (one shard read lock).
#[derive(Clone)]
pub struct Session {
    reads: Arc<ReadHandles>,
}

impl Session {
    /// Read an attribute of an object.
    pub fn get_attr(&self, oid: Oid, attr: &str) -> Result<Value> {
        let registry = self.reads.registry.read();
        self.reads.store.get_attr(&registry, oid, attr)
    }

    /// Does the object exist?
    pub fn exists(&self, oid: Oid) -> bool {
        self.reads.store.exists(oid)
    }

    /// The class name of an object.
    pub fn class_name_of(&self, oid: Oid) -> Result<String> {
        let registry = self.reads.registry.read();
        let cid = self.reads.store.class_of(oid)?;
        Ok(registry.get(cid).name.clone())
    }

    /// All instances of a class (subclass instances included).
    pub fn extent(&self, class: &str) -> Result<Vec<Oid>> {
        let registry = self.reads.registry.read();
        let cid = registry.id_of(class)?;
        Ok(self.reads.store.extent(&registry, cid))
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.reads.store.len()
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.reads.clock.now()
    }

    /// Facade counters, as of the last transaction boundary: one
    /// published cut, read without the core lock.
    pub fn stats(&self) -> DbStats {
        DbStats::read(&self.reads.telemetry.facts().read())
    }

    /// Facade + engine counters plus a telemetry snapshot, all counted
    /// from one published cut.
    pub fn full_stats(&self) -> FullStats {
        let facts = self.reads.telemetry.facts().read();
        FullStats::read(&self.reads.telemetry, &facts)
    }

    /// Per-shard store-lock load counters.
    pub fn shard_loads(&self) -> Vec<ShardLoad> {
        self.reads.store.shard_loads()
    }

    /// Prometheus-style text exposition of the full telemetry snapshot
    /// plus the facade, engine, and per-shard counters.
    pub fn metrics_prometheus(&self) -> String {
        let full = self.full_stats();
        let extra = crate::stats::prometheus_counters(&full.db, &full.engine);
        let mut out = sentinel_telemetry::prometheus_text(&full.telemetry, &extra);
        out.push_str(&sentinel_telemetry::prometheus_shard_text(
            &self.reads.store.shard_loads(),
        ));
        out
    }

    /// Pretty-printed JSON of [`full_stats`](Self::full_stats).
    pub fn metrics_json(&self) -> Result<String> {
        serde_json::to_string_pretty(&self.full_stats())
            .map_err(|e| ObjectError::Storage(format!("serialize stats: {e}")))
    }
}

/// Sessions power the query layer: `Query::run(&session)` evaluates
/// concurrently with other sessions and with the writer.
impl ObjectView for Session {
    fn view_attr(&self, oid: Oid, attr: &str) -> Result<Value> {
        self.get_attr(oid, attr)
    }

    fn view_extent(&self, class: &str) -> Result<Vec<Oid>> {
        self.extent(class)
    }

    fn view_range_candidates(
        &self,
        class: &str,
        attr: &str,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Option<Vec<Oid>> {
        let registry = self.reads.registry.read();
        let cid = registry.id_of(class).ok()?;
        drop(registry);
        self.reads
            .indexes
            .read()
            .iter()
            .find(|i| i.class == cid && i.attr == attr)
            .map(|i| i.range(lo, hi))
    }
}

// The whole point: handles and sessions cross threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Sentinel>();
    assert_send_sync::<Session>()
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::event;
    use crate::query::{attr, Query};
    use sentinel_object::{ClassDecl, EventSpec, TypeTag};
    use sentinel_rules::{CouplingMode, RuleDef};
    use std::time::{Duration, Instant};

    fn build() -> Database {
        let mut db = Database::new();
        db.define_class(
            ClassDecl::reactive("X")
                .attr("v", TypeTag::Float)
                .attr("audits", TypeTag::Int)
                .event_method("Set", &[("x", TypeTag::Float)], EventSpec::End),
        )
        .unwrap();
        db.register_setter("X", "Set", "v").unwrap();
        db.register_action("audit", |w, f| {
            let o = f.occurrence.constituents[0].oid;
            let n = w.get_attr(o, "audits")?.as_int()?;
            w.set_attr(o, "audits", Value::Int(n + 1))
        });
        db.add_class_rule(
            "X",
            RuleDef::new("Audit", event("end X::Set(float x)").unwrap(), "audit")
                .coupling(CouplingMode::Detached),
        )
        .unwrap();
        db
    }

    #[test]
    fn sessions_read_without_the_core_lock() {
        let sentinel = Sentinel::open(build());
        let o = sentinel.try_with(|db| db.create("X")).unwrap();
        let session = sentinel.session();
        // Hold the core lock on this thread; the session still reads.
        sentinel.with(|db| {
            assert_eq!(session.get_attr(o, "v").unwrap(), Value::Float(0.0));
            assert!(session.exists(o));
            assert_eq!(session.extent("X").unwrap(), vec![o]);
            assert_eq!(session.stats().sends, db.stats().sends);
        });
    }

    #[test]
    fn detached_work_runs_on_the_worker() {
        let sentinel = Sentinel::open(build());
        let o = sentinel.try_with(|db| db.create("X")).unwrap();
        sentinel.send(o, "Set", &[Value::Float(1.0)]).unwrap();
        let session = sentinel.session();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if session.get_attr(o, "audits").unwrap() == Value::Int(1) {
                break;
            }
            assert!(Instant::now() < deadline, "audit never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        let db = sentinel.shutdown().unwrap();
        assert_eq!(db.stats().detached_runs, 1);
    }

    #[test]
    fn transaction_commits_on_ok_and_aborts_on_err() {
        let sentinel = Sentinel::open(build());
        let o = sentinel
            .transaction(|db| {
                let o = db.create("X")?;
                db.set_attr(o, "v", Value::Float(5.0))?;
                Ok(o)
            })
            .unwrap();
        let session = sentinel.session();
        assert_eq!(session.get_attr(o, "v").unwrap(), Value::Float(5.0));

        let err = sentinel.transaction(|db| {
            db.set_attr(o, "v", Value::Float(99.0))?;
            Err::<(), _>(ObjectError::App("nope".into()))
        });
        assert!(err.is_err());
        assert_eq!(session.get_attr(o, "v").unwrap(), Value::Float(5.0));
        assert!(!sentinel.with(|db| db.in_txn()));
    }

    #[test]
    fn queries_run_against_a_session_with_index_acceleration() {
        let sentinel = Sentinel::open(build());
        sentinel.try_with(|db| db.create_index("X", "v")).unwrap();
        for i in 0..10 {
            sentinel
                .try_with(|db| {
                    let o = db.create("X")?;
                    db.set_attr(o, "v", Value::Float(i as f64))
                })
                .unwrap();
        }
        let session = sentinel.session();
        let q = Query::over("X").range("v", Some(Value::Float(3.0)), Some(Value::Float(6.0)));
        assert_eq!(q.count(&session).unwrap(), 4);
        // The index really was used: candidates come back non-None.
        assert!(session
            .view_range_candidates("X", "v", Some(&Value::Float(3.0)), Some(&Value::Float(6.0)))
            .is_some());
        let filtered = Query::over("X")
            .filter(attr("v").gt(Value::Float(7.0)))
            .count(&session)
            .unwrap();
        assert_eq!(filtered, 2);
    }

    #[test]
    fn sessions_see_classes_defined_after_open() {
        let sentinel = Sentinel::new();
        let session = sentinel.session();
        assert!(session.extent("Late").is_err());
        sentinel
            .try_with(|db| db.define_class(ClassDecl::new("Late").attr("n", TypeTag::Int)))
            .unwrap();
        let o = sentinel.try_with(|db| db.create("Late")).unwrap();
        assert_eq!(session.extent("Late").unwrap(), vec![o]);
        assert_eq!(session.class_name_of(o).unwrap(), "Late");
    }

    #[test]
    fn metrics_export_needs_no_core_lock() {
        let sentinel = Sentinel::open(build());
        let o = sentinel.try_with(|db| db.create("X")).unwrap();
        sentinel.send(o, "Set", &[Value::Float(2.0)]).unwrap();
        let session = sentinel.session();
        sentinel.with(|_db| {
            // Core lock held: exporters still work.
            let text = session.metrics_prometheus();
            assert!(text.contains("sentinel_sends_total 1"));
            assert!(text.contains("sentinel_store_shard_reads_total"));
            assert!(session.metrics_json().unwrap().contains("\"sends\""));
            assert!(!session.shard_loads().is_empty());
        });
    }

    #[test]
    fn shutdown_fails_with_outstanding_clones() {
        let sentinel = Sentinel::new();
        let extra = sentinel.clone();
        assert!(sentinel.shutdown().is_err());
        drop(extra);
    }

    #[test]
    fn concurrent_readers_with_writer() {
        let sentinel = Sentinel::open(build());
        let o = sentinel.try_with(|db| db.create("X")).unwrap();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let session = sentinel.session();
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let v = session.get_attr(o, "v").unwrap();
                    assert!(matches!(v, Value::Float(_)));
                }
            }));
        }
        for i in 0..200 {
            sentinel.send(o, "Set", &[Value::Float(i as f64)]).unwrap();
        }
        for h in handles {
            h.join().unwrap();
        }
        sentinel.drain();
        let session = sentinel.session();
        assert_eq!(session.get_attr(o, "audits").unwrap(), Value::Int(200));
    }

    #[test]
    fn commit_latency_excludes_detached_work() {
        // With a deliberately slow detached action, the producer's send
        // returns quickly and the work lands later.
        let mut db = build();
        db.register_action("slow-audit", |w, f| {
            std::thread::sleep(Duration::from_millis(30));
            let o = f.occurrence.constituents[0].oid;
            let n = w.get_attr(o, "audits")?.as_int()?;
            w.set_attr(o, "audits", Value::Int(n + 1))
        });
        db.remove_rule("Audit").unwrap();
        db.add_class_rule(
            "X",
            RuleDef::new("Audit", event("end X::Set(float x)").unwrap(), "slow-audit")
                .coupling(CouplingMode::Detached),
        )
        .unwrap();
        let sentinel = Sentinel::open(db);
        let o = sentinel.try_with(|db| db.create("X")).unwrap();
        let t0 = Instant::now();
        sentinel.send(o, "Set", &[Value::Float(1.0)]).unwrap();
        let send_latency = t0.elapsed();
        assert!(
            send_latency < Duration::from_millis(25),
            "send blocked on detached work: {send_latency:?}"
        );
        sentinel.drain();
        let session = sentinel.session();
        assert_eq!(session.get_attr(o, "audits").unwrap(), Value::Int(1));
    }

    #[test]
    fn shutdown_flushes_pending_work() {
        let sentinel = Sentinel::open(build());
        let o = sentinel.try_with(|db| db.create("X")).unwrap();
        for i in 0..10 {
            sentinel.send(o, "Set", &[Value::Float(i as f64)]).unwrap();
        }
        let db = sentinel.shutdown().unwrap();
        assert_eq!(db.get_attr(o, "audits").unwrap(), Value::Int(10));
    }

    #[test]
    fn multiple_producer_threads() {
        let sentinel = Sentinel::open(build());
        let o = sentinel.try_with(|db| db.create("X")).unwrap();
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = sentinel.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    s.send(o, "Set", &[Value::Float((t * 100 + i) as f64)])
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        sentinel.drain();
        let session = sentinel.session();
        assert_eq!(session.get_attr(o, "audits").unwrap(), Value::Int(100));
    }
}
