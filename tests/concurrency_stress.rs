//! Stress tests for the session-handle concurrency model: N reader
//! threads hammering `Session` reads and queries while one writer
//! commits sends through the `Sentinel` core — plus a behavioural
//! parity check between a plain single-threaded `Database` and
//! `Sentinel` over the producer/consumer pipeline.

use sentinel::db::{Query, Sentinel};
use sentinel::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const READERS: usize = 4;
const WRITES: usize = 300;

/// Writer thread updates a two-element list attribute whose halves must
/// always sum to zero; each update is a single `set_attr`, so a reader
/// holding the shard read lock must never observe a half-applied value.
/// Readers also run extent queries and metrics exports the whole time.
#[test]
fn readers_never_observe_torn_state() {
    let sentinel = Sentinel::new();
    sentinel
        .try_with(|db| {
            db.define_class(
                ClassDecl::new("Cell")
                    .attr("pair", TypeTag::List)
                    .attr("gen", TypeTag::Int),
            )
        })
        .unwrap();
    let cells: Vec<Oid> = (0..8)
        .map(|_| {
            sentinel
                .try_with(|db| {
                    let o = db.create("Cell")?;
                    db.set_attr(o, "pair", Value::List(vec![Value::Int(0), Value::Int(0)]))?;
                    Ok(o)
                })
                .unwrap()
        })
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let passes = Arc::new(AtomicU64::new(0));
    let mut readers = Vec::new();
    for r in 0..READERS {
        let session = sentinel.session();
        let cells = cells.clone();
        let stop = Arc::clone(&stop);
        let passes = Arc::clone(&passes);
        readers.push(std::thread::spawn(move || {
            let mut reads = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for &c in &cells {
                    let v = session.get_attr(c, "pair").unwrap();
                    let pair = v.as_list().unwrap();
                    let (a, b) = (pair[0].as_int().unwrap(), pair[1].as_int().unwrap());
                    assert_eq!(a, -b, "torn read in reader {r}: {a} vs {b}");
                    reads += 1;
                }
                // Queries and metrics share the same read path.
                assert_eq!(session.extent("Cell").unwrap().len(), cells.len());
                assert!(session
                    .metrics_prometheus()
                    .contains("sentinel_store_shard_reads_total"));
                passes.fetch_add(1, Ordering::Relaxed);
            }
            reads
        }));
    }

    // Keep writing until the minimum load is done AND every reader has
    // completed at least one pass overlapping the writes — on a loaded
    // single-core box the first 300 writes can finish before the readers
    // are ever scheduled.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let mut i = 1i64;
    while i <= WRITES as i64
        || (passes.load(Ordering::Relaxed) < READERS as u64 && std::time::Instant::now() < deadline)
    {
        let c = cells[i as usize % cells.len()];
        sentinel
            .try_with(|db| {
                db.set_attr(c, "pair", Value::List(vec![Value::Int(i), Value::Int(-i)]))?;
                db.set_attr(c, "gen", Value::Int(i))
            })
            .unwrap();
        i += 1;
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    let total_reads: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total_reads > 0, "readers made progress");
}

/// One writer commits sends (each triggering an immediate rule) while
/// readers snapshot stats concurrently. Afterwards the counters must
/// reconcile exactly with the work performed — nothing lost, nothing
/// double-counted by the lock-free stats path.
#[test]
fn stats_reconcile_exactly_after_concurrent_load() {
    let sentinel = Sentinel::new();
    sentinel
        .try_with(|db| {
            db.define_class(
                ClassDecl::reactive("Acct")
                    .attr("v", TypeTag::Float)
                    .attr("audits", TypeTag::Int)
                    .event_method("Set", &[("x", TypeTag::Float)], EventSpec::End),
            )?;
            db.register_setter("Acct", "Set", "v")?;
            db.register_action("audit", |w, f| {
                let o = f.occurrence.constituents[0].oid;
                let n = w.get_attr(o, "audits")?.as_int()?;
                w.set_attr(o, "audits", Value::Int(n + 1))
            });
            db.add_class_rule(
                "Acct",
                RuleDef::on(event("end Acct::Set(float x)")?)
                    .named("Audit")
                    .then("audit"),
            )?;
            Ok(())
        })
        .unwrap();
    let acct = sentinel.try_with(|db| db.create("Acct")).unwrap();
    sentinel.with(|db| db.reset_stats());

    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..READERS {
        let session = sentinel.session();
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let s = session.stats();
                // Monotone counters mid-flight: an audit can only have
                // run for a send that happened.
                assert!(s.actions_run <= s.sends);
                // One published cut: an action follows its condition's
                // evaluation in the same transaction.
                assert!(s.actions_run <= s.condition_evals);
                let _ = session.full_stats();
            }
        }));
    }

    for i in 0..WRITES {
        sentinel
            .send(acct, "Set", &[Value::Float(i as f64)])
            .unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in readers {
        h.join().unwrap();
    }
    sentinel.drain();

    let session = sentinel.session();
    let s = session.stats();
    let w = WRITES as u64;
    assert_eq!(s.sends, w, "every send counted once");
    assert_eq!(s.events_generated, w, "one end-of-Set event per send");
    assert_eq!(s.actions_run, w, "the audit rule ran per send");
    assert_eq!(s.aborts, 0);
    // The counters reconcile with the data itself.
    assert_eq!(
        session.get_attr(acct, "audits").unwrap(),
        Value::Int(w as i64)
    );
    // And the session's lock-free snapshot agrees with the core's.
    assert_eq!(sentinel.with(|db| db.stats()), s);
}

/// Driving the producer/consumer pipeline (paper Figure 2) through a
/// plain `Database` and through the concurrent `Sentinel` handle must
/// yield identical results and identical counters.
#[test]
fn inline_database_and_sentinel_parity_over_producer_consumer() {
    fn build() -> (Database, Oid, Oid, Oid) {
        let mut db = Database::new();
        db.define_class(ClassDecl::reactive("Object1").event_method(
            "m1",
            &[("x", TypeTag::Int)],
            EventSpec::End,
        ))
        .unwrap();
        db.define_class(ClassDecl::reactive("Object2").event_method(
            "m2",
            &[("y", TypeTag::Int)],
            EventSpec::End,
        ))
        .unwrap();
        db.define_class(ClassDecl::new("Sink").attr("sum", TypeTag::Int))
            .unwrap();
        db.register_method("Object1", "m1", |_, _, _| Ok(Value::Null))
            .unwrap();
        db.register_method("Object2", "m2", |_, _, _| Ok(Value::Null))
            .unwrap();
        let o1 = db.create("Object1").unwrap();
        let o2 = db.create("Object2").unwrap();
        let sink = db.create("Sink").unwrap();
        db.register_action("consume", move |w, firing| {
            let x = firing.param_of("m1", 0).unwrap().as_int().unwrap();
            let y = firing.param_of("m2", 0).unwrap().as_int().unwrap();
            let s = w.get_attr(sink, "sum")?.as_int()?;
            w.set_attr(sink, "sum", Value::Int(s + x + y))
        });
        let e = event("end Object1::m1(int x)")
            .unwrap()
            .and(event("end Object2::m2(int y)").unwrap());
        db.add_rule(RuleDef::on(e).named("R1").then("consume"))
            .unwrap();
        db.subscribe(o1, "R1").unwrap();
        db.subscribe(o2, "R1").unwrap();
        db.reset_stats();
        (db, o1, o2, sink)
    }

    type Step<'a> = &'a mut dyn FnMut(&mut Database);
    fn drive(with: &dyn Fn(Step)) {
        for i in 0..20i64 {
            with(&mut |db| {
                db.send(db_o1(db), "m1", &[Value::Int(i)]).unwrap();
            });
            with(&mut |db| {
                db.send(db_o2(db), "m2", &[Value::Int(i * 10)]).unwrap();
            });
        }
    }
    // Helper lookups so the driver closure stays object-agnostic.
    fn db_o1(db: &Database) -> Oid {
        db.extent("Object1").unwrap()[0]
    }
    fn db_o2(db: &Database) -> Oid {
        db.extent("Object2").unwrap()[0]
    }

    // Run against a plain single-threaded Database...
    let (inline_sum, inline_stats) = {
        let (db, _, _, sink) = build();
        let db = std::cell::RefCell::new(db);
        drive(&|f| f(&mut db.borrow_mut()));
        let mut db = db.into_inner();
        db.run_pending_detached().unwrap();
        (db.get_attr(sink, "sum").unwrap(), db.stats())
    };

    // ...and through the Sentinel handle.
    let (sentinel_sum, sentinel_stats) = {
        let (db, _, _, sink) = build();
        let sentinel = Sentinel::open(db);
        drive(&|f| sentinel.with(|db| f(db)));
        sentinel.drain();
        let session = sentinel.session();
        let sum = session.get_attr(sink, "sum").unwrap();
        let stats = session.stats();
        let db = sentinel.shutdown().unwrap();
        assert_eq!(db.stats(), stats, "session snapshot matches the core");
        (sum, stats)
    };

    assert_eq!(inline_sum, sentinel_sum, "same pipeline result");
    assert_eq!(inline_stats, sentinel_stats, "same counters");

    // Sanity: under the default (unrestricted) parameter context the
    // conjunction detects every m1 x m2 combination, so the sink holds
    // the sum of i + 10*j over all ordered pairs.
    let expected: i64 = (0..20i64)
        .flat_map(|i| (0..20i64).map(move |j| i + j * 10))
        .sum();
    assert_eq!(sentinel_sum, Value::Int(expected));
}

/// Query evaluation against sessions scales across threads: every
/// reader runs range + filter queries over a populated extent while the
/// writer keeps inserting.
#[test]
fn concurrent_queries_with_live_writer() {
    let sentinel = Sentinel::new();
    sentinel
        .try_with(|db| {
            db.define_class(ClassDecl::new("P").attr("score", TypeTag::Float))?;
            db.create_index("P", "score")
        })
        .unwrap();
    for i in 0..64 {
        sentinel
            .try_with(|db| {
                let o = db.create("P")?;
                db.set_attr(o, "score", Value::Float(i as f64))
            })
            .unwrap();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..READERS {
        let session = sentinel.session();
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                // The first 64 objects never move: scores 0..64 stay put,
                // so this indexed range always finds exactly 10 of them
                // among however many the writer has added since.
                let q = Query::over("P").range(
                    "score",
                    Some(Value::Float(10.0)),
                    Some(Value::Float(19.0)),
                );
                assert_eq!(q.count(&session).unwrap(), 10);
            }
        }));
    }
    for i in 64..(64 + WRITES) {
        sentinel
            .try_with(|db| {
                let o = db.create("P")?;
                db.set_attr(o, "score", Value::Float(1000.0 + i as f64))
            })
            .unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in readers {
        h.join().unwrap();
    }
    let session = sentinel.session();
    assert_eq!(session.object_count(), 64 + WRITES);
}

/// Build a database whose deferred firings run on the worker pool.
/// CI's parallel-stress matrix overrides the pool size (1/2/4) via
/// `SENTINEL_TEST_WORKERS`; the default exercises four workers.
fn parallel_db() -> Database {
    let workers = std::env::var("SENTINEL_TEST_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    Database::with_config(DbConfig::default().execution(ExecutionMode::Parallel { workers }))
        .unwrap()
}

/// The torn-state invariant of the first suite, but with the writes
/// coming from *parallel rule firings*: each committed transaction
/// sends `Set` to every cell, the deferred `Mirror` rule fires once per
/// cell on the scheduler's worker pool, and each firing rewrites the
/// cell's two-element `pair` whose halves must always sum to zero.
/// Readers holding shard read locks must never observe a half-applied
/// value even while four workers are merging concurrently.
#[test]
fn readers_never_observe_torn_state_under_parallel_firing() {
    let mut db = parallel_db();
    db.define_class(
        ClassDecl::reactive("Cell")
            .attr("pair", TypeTag::List)
            .event_method("Set", &[("x", TypeTag::Float)], EventSpec::End),
    )
    .unwrap();
    db.register_method("Cell", "Set", |_, _, _| Ok(Value::Null))
        .unwrap();
    db.register(
        ActionDef::new("mirror")
            .writes(("Cell", "pair"))
            .body(|w, f| {
                let occ = &f.occurrence.constituents[0];
                let x = occ.param(0).unwrap().as_float()? as i64;
                w.set_attr(
                    occ.oid,
                    "pair",
                    Value::List(vec![Value::Int(x), Value::Int(-x)]),
                )?;
                Ok(())
            }),
    )
    .unwrap();
    db.add_class_rule(
        "Cell",
        RuleDef::on(event("end Cell::Set(float x)").unwrap())
            .named("Mirror")
            .then("mirror")
            .coupling(CouplingMode::Deferred),
    )
    .unwrap();
    let cells: Vec<Oid> = (0..8)
        .map(|_| {
            let o = db.create("Cell").unwrap();
            db.set_attr(o, "pair", Value::List(vec![Value::Int(0), Value::Int(0)]))
                .unwrap();
            o
        })
        .collect();
    let sentinel = Sentinel::open(db);

    let stop = Arc::new(AtomicBool::new(false));
    let passes = Arc::new(AtomicU64::new(0));
    let mut readers = Vec::new();
    for r in 0..READERS {
        let session = sentinel.session();
        let cells = cells.clone();
        let stop = Arc::clone(&stop);
        let passes = Arc::clone(&passes);
        readers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                for &c in &cells {
                    let v = session.get_attr(c, "pair").unwrap();
                    let pair = v.as_list().unwrap();
                    let (a, b) = (pair[0].as_int().unwrap(), pair[1].as_int().unwrap());
                    assert_eq!(a, -b, "torn read in reader {r}: {a} vs {b}");
                }
                passes.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let mut i = 1i64;
    while i <= (WRITES / 4) as i64
        || (passes.load(Ordering::Relaxed) < READERS as u64 && std::time::Instant::now() < deadline)
    {
        sentinel
            .try_with(|db| {
                db.begin()?;
                for &c in &cells {
                    db.send(c, "Set", &[Value::Float(i as f64)])?;
                }
                db.commit()
            })
            .unwrap();
        i += 1;
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    for h in readers {
        h.join().unwrap();
    }
    let stats = sentinel.scheduler_stats();
    assert!(stats.parallel_batches > 0, "pool never engaged: {stats:?}");
    assert!(stats.groups_formed >= 2 * stats.parallel_batches);
}

/// The exact-reconciliation suite under `Parallel { workers: 4 }`:
/// counters bumped during coordinator merges of pool-run firings must
/// reconcile exactly with the work performed, while reader threads
/// snapshot the lock-free stats mid-merge.
#[test]
fn stats_reconcile_exactly_after_parallel_load() {
    const TXNS: usize = WRITES / 4;
    let mut db = parallel_db();
    db.define_class(
        ClassDecl::reactive("Acct")
            .attr("v", TypeTag::Float)
            .attr("audits", TypeTag::Int)
            .event_method("Set", &[("x", TypeTag::Float)], EventSpec::End),
    )
    .unwrap();
    db.register_setter("Acct", "Set", "v").unwrap();
    db.register(
        ActionDef::new("audit")
            .writes(("Acct", "audits"))
            .body(|w, f| {
                let o = f.occurrence.constituents[0].oid;
                let n = w.get_attr(o, "audits")?.as_int()?;
                w.set_attr(o, "audits", Value::Int(n + 1))?;
                Ok(())
            }),
    )
    .unwrap();
    db.add_class_rule(
        "Acct",
        RuleDef::on(event("end Acct::Set(float x)").unwrap())
            .named("Audit")
            .then("audit")
            .coupling(CouplingMode::Deferred),
    )
    .unwrap();
    let accts: Vec<Oid> = (0..4).map(|_| db.create("Acct").unwrap()).collect();
    db.reset_stats();
    let sentinel = Sentinel::open(db);

    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..READERS {
        let session = sentinel.session();
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let s = session.stats();
                assert!(s.actions_run <= s.sends);
                assert!(s.actions_run <= s.condition_evals);
                let _ = session.full_stats();
            }
        }));
    }

    for i in 0..TXNS {
        sentinel
            .try_with(|db| {
                db.begin()?;
                for &a in &accts {
                    db.send(a, "Set", &[Value::Float(i as f64)])?;
                }
                db.commit()
            })
            .unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in readers {
        h.join().unwrap();
    }
    sentinel.drain();

    let session = sentinel.session();
    let s = session.stats();
    let w = (TXNS * accts.len()) as u64;
    assert_eq!(s.sends, w, "every send counted once");
    assert_eq!(s.events_generated, w, "one end-of-Set event per send");
    assert_eq!(s.actions_run, w, "the audit rule ran per send");
    assert_eq!(s.aborts, 0);
    for &a in &accts {
        assert_eq!(
            session.get_attr(a, "audits").unwrap(),
            Value::Int(TXNS as i64)
        );
    }
    let sched = sentinel.scheduler_stats();
    assert_eq!(
        sched.parallel_firings + sched.serial_firings,
        w,
        "every deferred firing ran on exactly one lane: {sched:?}"
    );
    assert!(sched.parallel_batches > 0, "pool never engaged: {sched:?}");
    assert_eq!(sentinel.with(|db| db.stats()), s);
}
