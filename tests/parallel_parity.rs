//! Serial/parallel execution parity over random disjoint-rule
//! workloads.
//!
//! The parallel scheduler promises *indistinguishability*: running the
//! same transactions under `ExecutionMode::Parallel` must leave the
//! store in the same final state and fire the same rules on the same
//! targets the same number of times as `ExecutionMode::Serial`. The
//! property is driven over randomly generated batches of sends against
//! two independent rule families (distinct conflict-matrix components),
//! so batches mix parallel groups, single-group fallbacks, and repeated
//! targets.

use proptest::prelude::*;
use sentinel::prelude::*;
use std::collections::BTreeMap;

const ACCTS: usize = 4;
const SENSORS: usize = 4;

/// Worker-pool size under test; CI's parallel-stress matrix overrides
/// it via `SENTINEL_TEST_WORKERS` (1/2/4).
fn pool_workers() -> usize {
    std::env::var("SENTINEL_TEST_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

#[derive(Debug, Clone)]
enum Op {
    /// `Credit(acct, x)`: sets `balance`, then the deferred
    /// `AuditCredit` rule bumps the account's `audited` counter.
    Credit(usize, f64),
    /// `Ping(sensor, v)`: sets `last`, then the deferred `CountPing`
    /// rule bumps the sensor's `pings` counter.
    Ping(usize, f64),
}

/// Build the workload database: two reactive classes whose rules write
/// disjoint attribute sets, so the conflict matrix assigns them
/// separate parallel components.
fn build_db(mode: ExecutionMode) -> (Database, Vec<Oid>, Vec<Oid>) {
    let mut db = Database::with_config(
        DbConfig::default()
            .history_enabled(true)
            .history_capacity(8192)
            .execution(mode),
    )
    .unwrap();
    db.define_class(
        ClassDecl::reactive("Acct")
            .attr("balance", TypeTag::Float)
            .attr("audited", TypeTag::Int)
            .event_method("Credit", &[("x", TypeTag::Float)], EventSpec::End),
    )
    .unwrap();
    db.register_setter("Acct", "Credit", "balance").unwrap();
    db.register(
        ActionDef::new("audit-credit")
            .writes(("Acct", "audited"))
            .body(|w, f| {
                let acct = f.occurrence.constituents[0].oid;
                let n = w.get_attr(acct, "audited")?.as_int()?;
                w.set_attr(acct, "audited", Value::Int(n + 1))?;
                Ok(())
            }),
    )
    .unwrap();
    db.add_class_rule(
        "Acct",
        RuleDef::on(event("end Acct::Credit(float x)").unwrap())
            .named("AuditCredit")
            .then("audit-credit")
            .coupling(CouplingMode::Deferred),
    )
    .unwrap();

    db.define_class(
        ClassDecl::reactive("Sensor")
            .attr("last", TypeTag::Float)
            .attr("pings", TypeTag::Int)
            .event_method("Ping", &[("v", TypeTag::Float)], EventSpec::End),
    )
    .unwrap();
    db.register_setter("Sensor", "Ping", "last").unwrap();
    db.register(
        ActionDef::new("count-ping")
            .writes(("Sensor", "pings"))
            .body(|w, f| {
                let s = f.occurrence.constituents[0].oid;
                let n = w.get_attr(s, "pings")?.as_int()?;
                w.set_attr(s, "pings", Value::Int(n + 1))?;
                Ok(())
            }),
    )
    .unwrap();
    db.add_class_rule(
        "Sensor",
        RuleDef::on(event("end Sensor::Ping(float v)").unwrap())
            .named("CountPing")
            .then("count-ping")
            .coupling(CouplingMode::Deferred),
    )
    .unwrap();

    let accts = (0..ACCTS).map(|_| db.create("Acct").unwrap()).collect();
    let sensors = (0..SENSORS).map(|_| db.create("Sensor").unwrap()).collect();
    (db, accts, sensors)
}

/// `(attr values per account, per sensor, per-(rule, target) firing
/// multiset)` snapshotted after a workload run.
type WorkloadOutcome = (
    Database,
    Vec<(f64, i64)>,
    Vec<(f64, i64)>,
    BTreeMap<(String, u64), u64>,
);

/// Replay `txns` (plus one fixed multi-target transaction that is
/// guaranteed parallel-eligible), then snapshot final attribute state
/// and the per-(rule, target) firing multiset.
fn run_workload(mode: ExecutionMode, txns: &[Vec<Op>]) -> WorkloadOutcome {
    let (mut db, accts, sensors) = build_db(mode);
    let apply = |db: &mut Database, op: &Op| match *op {
        Op::Credit(i, x) => db.send(accts[i % ACCTS], "Credit", &[Value::Float(x)]),
        Op::Ping(i, v) => db.send(sensors[i % SENSORS], "Ping", &[Value::Float(v)]),
    };
    for txn in txns {
        db.begin().unwrap();
        for op in txn {
            apply(&mut db, op).unwrap();
        }
        db.commit().unwrap();
    }
    // A transaction touching four distinct targets across both
    // components: always forms >= 2 conflict groups.
    db.begin().unwrap();
    for op in [
        Op::Credit(0, 10.0),
        Op::Credit(1, 20.0),
        Op::Ping(0, 1.0),
        Op::Ping(1, 2.0),
    ] {
        apply(&mut db, &op).unwrap();
    }
    db.commit().unwrap();

    let acct_state = accts
        .iter()
        .map(|&o| {
            (
                db.get_attr(o, "balance").unwrap().as_float().unwrap(),
                db.get_attr(o, "audited").unwrap().as_int().unwrap(),
            )
        })
        .collect();
    let sensor_state = sensors
        .iter()
        .map(|&o| {
            (
                db.get_attr(o, "last").unwrap().as_float().unwrap(),
                db.get_attr(o, "pings").unwrap().as_int().unwrap(),
            )
        })
        .collect();
    let mut firings: BTreeMap<(String, u64), u64> = BTreeMap::new();
    for r in db.telemetry().firings().dump_all() {
        *firings.entry((r.rule.clone(), r.target)).or_insert(0) += 1;
    }
    (db, acct_state, sensor_state, firings)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..ACCTS, -100.0f64..100.0).prop_map(|(i, x)| Op::Credit(i, x)),
        (0..SENSORS, -10.0f64..10.0).prop_map(|(i, v)| Op::Ping(i, v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_mode_is_indistinguishable_from_serial(
        txns in prop::collection::vec(prop::collection::vec(op_strategy(), 1..6), 0..8),
    ) {
        let (serial_db, s_accts, s_sensors, s_firings) =
            run_workload(ExecutionMode::Serial, &txns);
        let (parallel_db, p_accts, p_sensors, p_firings) =
            run_workload(ExecutionMode::Parallel { workers: pool_workers() }, &txns);

        // Identical final store state, object by object.
        prop_assert_eq!(&s_accts, &p_accts);
        prop_assert_eq!(&s_sensors, &p_sensors);
        // Identical firing multiset per (rule, target).
        prop_assert_eq!(&s_firings, &p_firings);

        // The serial database never consulted a scheduler; the parallel
        // one actually exercised the worker pool (the fixed tail
        // transaction guarantees at least one eligible batch).
        prop_assert_eq!(serial_db.scheduler_stats(), SchedulerStats::default());
        let stats = parallel_db.scheduler_stats();
        prop_assert!(stats.parallel_batches >= 1, "no parallel batch ran: {stats:?}");
        prop_assert!(stats.parallel_firings >= 4, "too few pool firings: {stats:?}");
        prop_assert!(stats.groups_formed >= 2, "no group fan-out: {stats:?}");

        // Every pool-run firing is tagged with the parallel lane.
        let parallel_lane = parallel_db
            .telemetry()
            .firings()
            .dump_all()
            .iter()
            .filter(|r| r.lane == ExecutionLane::Parallel)
            .count() as u64;
        prop_assert_eq!(parallel_lane, stats.parallel_firings);
    }
}

/// Deterministic smoke check (kept out of proptest so a bare `cargo
/// test parallel_smoke` exercises the pool): four disjoint targets in
/// one transaction form two-plus groups, run on workers, and reconcile
/// stats exactly.
#[test]
fn parallel_smoke_two_components() {
    let (_db, accts, sensors, firings) = run_workload(ExecutionMode::Parallel { workers: 2 }, &[]);
    assert_eq!(accts[0], (10.0, 1));
    assert_eq!(accts[1], (20.0, 1));
    assert_eq!(sensors[0], (1.0, 1));
    assert_eq!(sensors[1], (2.0, 1));
    assert_eq!(firings.len(), 4, "{firings:?}");
}

// ---------------------------------------------------------------------
// Runtime footprint enforcement: a body whose actual accesses exceed
// its declaration must degrade to a serial re-run — never merge a
// half-checked result or race a concurrent group.
// ---------------------------------------------------------------------

/// Two accounts and one deferred `Audit` rule whose action is supplied
/// by the test: the declarations on `def` say one thing, the body may
/// do another.
fn build_audit_db(mode: ExecutionMode, def: ActionDef) -> (Database, Vec<Oid>) {
    let mut db = Database::with_config(
        DbConfig::default()
            .history_enabled(true)
            .history_capacity(8192)
            .execution(mode),
    )
    .unwrap();
    db.define_class(
        ClassDecl::reactive("Acct")
            .attr("balance", TypeTag::Float)
            .attr("audited", TypeTag::Int)
            .attr("shadow", TypeTag::Int)
            .event_method("Credit", &[("x", TypeTag::Float)], EventSpec::End),
    )
    .unwrap();
    db.register_setter("Acct", "Credit", "balance").unwrap();
    db.register(def).unwrap();
    db.add_class_rule(
        "Acct",
        RuleDef::on(event("end Acct::Credit(float x)").unwrap())
            .named("Audit")
            .then("audit")
            .coupling(CouplingMode::Deferred),
    )
    .unwrap();
    let accts = (0..2).map(|_| db.create("Acct").unwrap()).collect();
    (db, accts)
}

/// Credit both accounts in one transaction (two same-component groups,
/// so the batch is parallel-eligible) and snapshot `(audited, shadow)`
/// per account.
fn run_two_credits(mode: ExecutionMode, def: &ActionDef) -> (Database, Vec<(i64, i64)>) {
    let (mut db, accts) = build_audit_db(mode, def.clone());
    db.begin().unwrap();
    db.send(accts[0], "Credit", &[Value::Float(5.0)]).unwrap();
    db.send(accts[1], "Credit", &[Value::Float(6.0)]).unwrap();
    db.commit().unwrap();
    let state = accts
        .iter()
        .map(|&o| {
            (
                db.get_attr(o, "audited").unwrap().as_int().unwrap(),
                db.get_attr(o, "shadow").unwrap().as_int().unwrap(),
            )
        })
        .collect();
    (db, state)
}

/// The other account in a two-account extent.
fn counterparty(w: &dyn World, me: Oid) -> Oid {
    w.extent("Acct")
        .unwrap()
        .into_iter()
        .find(|&o| o != me)
        .expect("two accounts")
}

/// A body that writes an attribute missing from its declared write-set
/// is rejected on the worker and the whole batch re-runs serially,
/// producing exactly the serial outcome (`shadow` written included).
#[test]
fn undeclared_write_degrades_to_serial_rerun() {
    let def = ActionDef::new("audit")
        .writes(("Acct", "audited"))
        .body(|w, f| {
            let me = f.occurrence.constituents[0].oid;
            let n = w.get_attr(me, "audited")?.as_int()?;
            w.set_attr(me, "audited", Value::Int(n + 1))?;
            // Undeclared: `shadow` is not in the write-set above.
            let s = w.get_attr(me, "shadow")?.as_int()?;
            w.set_attr(me, "shadow", Value::Int(s + 1))?;
            Ok(())
        });
    let (_sdb, serial) = run_two_credits(ExecutionMode::Serial, &def);
    let (pdb, parallel) = run_two_credits(
        ExecutionMode::Parallel {
            workers: pool_workers(),
        },
        &def,
    );
    assert_eq!(serial, vec![(1, 1), (1, 1)]);
    assert_eq!(serial, parallel);
    let stats = pdb.scheduler_stats();
    assert_eq!(stats.serial_reruns, 2, "{stats:?}");
    assert_eq!(stats.parallel_firings, 0, "{stats:?}");
}

/// A write to a *declared* attribute on an object other than the
/// firing's target is rejected: target sharding assumes instance-local
/// writes, so a cross-instance write would race the counterparty's own
/// group. The serial re-run applies it with full ordering semantics.
#[test]
fn cross_target_write_degrades_to_serial_rerun() {
    let def = ActionDef::new("audit")
        .writes(("Acct", "audited"))
        .body(|w, f| {
            let me = f.occurrence.constituents[0].oid;
            let other = counterparty(w, me);
            let n = w.get_attr(me, "audited")?.as_int()?;
            // Declared attribute, wrong instance.
            w.set_attr(other, "audited", Value::Int(n + 1))?;
            Ok(())
        });
    let (_sdb, serial) = run_two_credits(ExecutionMode::Serial, &def);
    let (pdb, parallel) = run_two_credits(
        ExecutionMode::Parallel {
            workers: pool_workers(),
        },
        &def,
    );
    // Order-dependent by construction: the second firing reads the
    // first one's write. Only strict serial-order re-execution gets
    // `(2, _), (1, _)`.
    assert_eq!(serial, vec![(2, 0), (1, 0)]);
    assert_eq!(serial, parallel);
    let stats = pdb.scheduler_stats();
    assert_eq!(stats.serial_reruns, 2, "{stats:?}");
    assert_eq!(stats.parallel_firings, 0, "{stats:?}");
}

/// An undeclared read of an attribute some parallel rule writes
/// (`audited` on the counterparty) could observe a concurrent group's
/// half-applied effects — the exact race the read-set analysis exists
/// to prevent. The guard rejects it and the serial re-run preserves
/// read-your-predecessor ordering.
#[test]
fn undeclared_contended_read_degrades_to_serial_rerun() {
    let def = ActionDef::new("audit")
        .writes(("Acct", "audited"))
        .body(|w, f| {
            let me = f.occurrence.constituents[0].oid;
            let other = counterparty(w, me);
            // Undeclared read of an attribute concurrently written by
            // the counterparty's group.
            let n = w.get_attr(other, "audited")?.as_int()?;
            w.set_attr(me, "audited", Value::Int(n + 10))?;
            Ok(())
        });
    let (_sdb, serial) = run_two_credits(ExecutionMode::Serial, &def);
    let (pdb, parallel) = run_two_credits(
        ExecutionMode::Parallel {
            workers: pool_workers(),
        },
        &def,
    );
    // Serial order: firing 1 observes firing 0's write (10 → 20).
    assert_eq!(serial, vec![(10, 0), (20, 0)]);
    assert_eq!(serial, parallel);
    let stats = pdb.scheduler_stats();
    assert_eq!(stats.serial_reruns, 2, "{stats:?}");
    assert_eq!(stats.parallel_firings, 0, "{stats:?}");
}

/// A body that panics on the pool fails its group like one that errors:
/// the serial re-run raises the panic on the committing thread, as under
/// `Serial`, instead of leaving the commit waiting on a dead group. The
/// later account's group already ran on the pool; its write must not
/// outlive an abort, since under `Serial` it would never have run.
#[test]
fn panicking_body_surfaces_on_the_committing_thread() {
    let def = ActionDef::new("audit")
        .writes(("Acct", "audited"))
        .body(|w, f| {
            let me = f.occurrence.constituents[0].oid;
            if w.get_attr(me, "balance")?.as_float()? == 5.0 {
                panic!("audit body panicked");
            }
            let n = w.get_attr(me, "audited")?.as_int()?;
            w.set_attr(me, "audited", Value::Int(n + 1))?;
            Ok(())
        });
    let (mut db, accts) = build_audit_db(
        ExecutionMode::Parallel {
            workers: pool_workers(),
        },
        def,
    );
    db.begin().unwrap();
    db.send(accts[0], "Credit", &[Value::Float(5.0)]).unwrap();
    db.send(accts[1], "Credit", &[Value::Float(6.0)]).unwrap();
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| db.commit()));
    let payload = caught.expect_err("the body's panic reaches the caller");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"audit body panicked"));
    db.abort().unwrap();
    for &acct in &accts {
        assert_eq!(db.get_attr(acct, "audited").unwrap(), Value::Int(0));
    }
    assert_eq!(db.scheduler_stats().parallel_firings, 0);
}

/// A *declared* read of an attribute no parallel rule writes is safe
/// from any object — nothing concurrent can be mutating it — so the
/// batch keeps the worker-pool fast path.
#[test]
fn benign_declared_read_keeps_parallel_lane() {
    let def = ActionDef::new("audit")
        .writes(("Acct", "audited"))
        .reads(("Acct", "balance"))
        .body(|w, f| {
            let me = f.occurrence.constituents[0].oid;
            let other = counterparty(w, me);
            // Off-target read, but `balance` is written only by the
            // (serial) setter — never by a parallel rule.
            let b = w.get_attr(other, "balance")?.as_float()?;
            let n = w.get_attr(me, "audited")?.as_int()?;
            w.set_attr(me, "audited", Value::Int(n + 1 + (b < 0.0) as i64))?;
            Ok(())
        });
    let (_sdb, serial) = run_two_credits(ExecutionMode::Serial, &def);
    let (pdb, parallel) = run_two_credits(
        ExecutionMode::Parallel {
            workers: pool_workers(),
        },
        &def,
    );
    assert_eq!(serial, vec![(1, 0), (1, 0)]);
    assert_eq!(serial, parallel);
    let stats = pdb.scheduler_stats();
    assert_eq!(stats.serial_reruns, 0, "{stats:?}");
    assert_eq!(stats.parallel_firings, 2, "{stats:?}");
    assert_eq!(stats.parallel_batches, 1, "{stats:?}");
}

/// Group memberships that interleave across the batch (indices 0 and 2
/// in one group, 1 and 3 in another) must still merge in original batch
/// order: the firing-history stream under Parallel is byte-identical in
/// order to the Serial one.
#[test]
fn merge_preserves_original_batch_order() {
    let run = |mode| {
        let (mut db, accts, sensors) = build_db(mode);
        db.begin().unwrap();
        db.send(accts[0], "Credit", &[Value::Float(1.0)]).unwrap();
        db.send(sensors[0], "Ping", &[Value::Float(2.0)]).unwrap();
        db.send(accts[0], "Credit", &[Value::Float(3.0)]).unwrap();
        db.send(sensors[0], "Ping", &[Value::Float(4.0)]).unwrap();
        db.commit().unwrap();
        let seq: Vec<(String, u64)> = db
            .telemetry()
            .firings()
            .dump_all()
            .into_iter()
            .map(|r| (r.rule, r.target))
            .collect();
        (db, seq)
    };
    let (_sdb, serial_seq) = run(ExecutionMode::Serial);
    let (pdb, parallel_seq) = run(ExecutionMode::Parallel {
        workers: pool_workers(),
    });
    assert_eq!(serial_seq.len(), 4, "{serial_seq:?}");
    assert_eq!(serial_seq, parallel_seq);
    let stats = pdb.scheduler_stats();
    assert_eq!(stats.parallel_firings, 4, "{stats:?}");
    assert!(stats.groups_formed >= 2, "{stats:?}");
}

// ---------------------------------------------------------------------
// Pool shapes: one group per target, a failed group among many on
// reused worlds, and a pool larger than the cores.
// ---------------------------------------------------------------------

/// The rules' history stream: `(rule, target)` per firing, in order.
fn firing_stream(db: &Database) -> Vec<(String, u64)> {
    db.telemetry()
        .firings()
        .dump_all()
        .into_iter()
        .map(|r| (r.rule, r.target))
        .collect()
}

/// Two deferred rules on one event whose footprints are disjoint
/// (`a` and `b`), so the matrix puts them in different components. Each
/// body is order-sensitive: it shifts the credited amount into its
/// counter.
fn build_two_component_db(mode: ExecutionMode, accounts: usize) -> (Database, Vec<Oid>) {
    let mut db = Database::with_config(
        DbConfig::default()
            .history_enabled(true)
            .history_capacity(8192)
            .execution(mode),
    )
    .unwrap();
    db.define_class(
        ClassDecl::reactive("Acct")
            .attr("balance", TypeTag::Float)
            .attr("a", TypeTag::Int)
            .attr("b", TypeTag::Int)
            .event_method("Credit", &[("x", TypeTag::Float)], EventSpec::End),
    )
    .unwrap();
    db.register_setter("Acct", "Credit", "balance").unwrap();
    for (rule, attr, base) in [("ShiftA", "a", 10), ("ShiftB", "b", 7)] {
        db.register(
            ActionDef::new(rule.to_lowercase())
                .writes(("Acct", attr))
                .reads(("Acct", "balance"))
                .body(move |w, f| {
                    let me = f.occurrence.constituents[0].oid;
                    let x = w.get_attr(me, "balance")?.as_float()? as i64;
                    let n = w.get_attr(me, attr)?.as_int()?;
                    w.set_attr(me, attr, Value::Int(n * base + x))?;
                    Ok(())
                }),
        )
        .unwrap();
        db.add_class_rule(
            "Acct",
            RuleDef::on(event("end Acct::Credit(float x)").unwrap())
                .named(rule)
                .then(rule.to_lowercase())
                .coupling(CouplingMode::Deferred),
        )
        .unwrap();
    }
    let accts = (0..accounts).map(|_| db.create("Acct").unwrap()).collect();
    (db, accts)
}

/// `(a, b)` of every account.
fn shifted_state(db: &Database, accts: &[Oid]) -> Vec<(i64, i64)> {
    accts
        .iter()
        .map(|&o| {
            (
                db.get_attr(o, "a").unwrap().as_int().unwrap(),
                db.get_attr(o, "b").unwrap().as_int().unwrap(),
            )
        })
        .collect()
}

/// Two components firing on one target form one group, not one group
/// per component: the batch below has six firings on two targets, so
/// two groups, and its state and firing stream equal Serial's.
#[test]
fn components_on_one_target_share_a_group() {
    let run = |mode| {
        let (mut db, accts) = build_two_component_db(mode, 2);
        db.begin().unwrap();
        for (i, x) in [(0, 1.0), (1, 2.0), (0, 3.0)] {
            db.send(accts[i], "Credit", &[Value::Float(x)]).unwrap();
        }
        db.commit().unwrap();
        let state = shifted_state(&db, &accts);
        let stream = firing_stream(&db);
        (db, state, stream)
    };
    let (_sdb, s_state, s_stream) = run(ExecutionMode::Serial);
    let (pdb, p_state, p_stream) = run(ExecutionMode::Parallel {
        workers: pool_workers(),
    });
    assert_eq!(s_stream.len(), 6, "{s_stream:?}");
    assert_eq!(s_state, vec![(33, 24), (2, 2)]);
    assert_eq!(s_state, p_state);
    assert_eq!(s_stream, p_stream);
    let stats = pdb.scheduler_stats();
    assert_eq!(stats.parallel_batches, 1, "{stats:?}");
    assert_eq!(stats.groups_formed, 2, "{stats:?}");
    assert_eq!(stats.parallel_firings, 6, "{stats:?}");
    assert_eq!(stats.serial_reruns, 0, "{stats:?}");
}

/// More cores than any runner count the pool can reach, plus slack, so
/// a batch over this many targets has more groups than runners.
fn more_targets_than_runners() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()) + 3
}

/// A middle group of a batch with more groups than runners writes a
/// declared attribute, then breaks its footprint. Its writes are rolled
/// back before its thread runs another group on the same world, so
/// nothing of it leaks: state and firing stream equal Serial's, and
/// exactly that group's firings re-run serially.
#[test]
fn failed_middle_group_leaks_nothing_into_later_groups() {
    let def = ActionDef::new("audit")
        .writes(("Acct", "audited"))
        .reads(("Acct", "balance"))
        .body(|w, f| {
            let me = f.occurrence.constituents[0].oid;
            let n = w.get_attr(me, "audited")?.as_int()?;
            w.set_attr(me, "audited", Value::Int(n + 1))?;
            // Only the middle account's credits touch the undeclared
            // `shadow`, after their declared write.
            if w.get_attr(me, "balance")?.as_float()? >= 1000.0 {
                let s = w.get_attr(me, "shadow")?.as_int()?;
                w.set_attr(me, "shadow", Value::Int(s + n + 1))?;
            }
            Ok(())
        });
    let targets = more_targets_than_runners();
    let middle = targets / 2;
    let run = |mode| {
        let (mut db, _) = build_audit_db(mode, def.clone());
        let accts: Vec<Oid> = (0..targets).map(|_| db.create("Acct").unwrap()).collect();
        db.begin().unwrap();
        for (i, &acct) in accts.iter().enumerate() {
            let x = if i == middle { 1000.0 } else { i as f64 };
            db.send(acct, "Credit", &[Value::Float(x)]).unwrap();
        }
        // A second credit on the middle account: its group holds two.
        db.send(accts[middle], "Credit", &[Value::Float(2000.0)])
            .unwrap();
        db.commit().unwrap();
        let state: Vec<(i64, i64)> = accts
            .iter()
            .map(|&o| {
                (
                    db.get_attr(o, "audited").unwrap().as_int().unwrap(),
                    db.get_attr(o, "shadow").unwrap().as_int().unwrap(),
                )
            })
            .collect();
        let stream = firing_stream(&db);
        (db, state, stream)
    };
    let (_sdb, s_state, s_stream) = run(ExecutionMode::Serial);
    let (pdb, p_state, p_stream) = run(ExecutionMode::Parallel {
        workers: pool_workers(),
    });
    assert_eq!(s_state[middle], (2, 3));
    assert_eq!(s_state, p_state);
    assert_eq!(s_stream, p_stream);
    let stats = pdb.scheduler_stats();
    assert_eq!(stats.groups_formed, targets as u64, "{stats:?}");
    assert_eq!(stats.serial_reruns, 2, "{stats:?}");
    assert_eq!(stats.parallel_firings, targets as u64 - 1, "{stats:?}");
}

/// A pool of four workers hands each batch to at most
/// `available_parallelism − 1` of them; the outcome is still Serial's.
#[test]
fn a_pool_larger_than_the_cores_keeps_serial_state() {
    let targets = more_targets_than_runners();
    let txns: Vec<Vec<Op>> = (0..4)
        .map(|round| {
            (0..targets)
                .map(|i| {
                    if i % 2 == 0 {
                        Op::Credit(i / 2, (round * 10 + i) as f64)
                    } else {
                        Op::Ping(i / 2, (round + i) as f64)
                    }
                })
                .collect()
        })
        .collect();
    let (_sdb, s_accts, s_sensors, s_firings) = run_workload(ExecutionMode::Serial, &txns);
    let (pdb, p_accts, p_sensors, p_firings) =
        run_workload(ExecutionMode::Parallel { workers: 4 }, &txns);
    assert_eq!(s_accts, p_accts);
    assert_eq!(s_sensors, p_sensors);
    assert_eq!(s_firings, p_firings);
    let stats = pdb.scheduler_stats();
    assert!(stats.parallel_batches >= 4, "{stats:?}");
    assert_eq!(stats.serial_reruns, 0, "{stats:?}");
}
