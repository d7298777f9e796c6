//! Property-based reconciliation of pipeline telemetry with the
//! engine's own statistics: across random workloads — including
//! transaction aborts that exercise the detector undo journal — with a
//! large-enough ring the structured trace must contain exactly one
//! record per counted fact for each stage that is a fact, and one per
//! stage firing overall; and the Prometheus text, the `full_stats`
//! JSON and `stats()` / `engine_stats()` must report the same value for
//! every fact.

use proptest::prelude::*;
use sentinel::prelude::*;

/// One step of a random workload.
#[derive(Debug, Clone)]
enum Op {
    /// A plain send in its own auto-committed transaction.
    Send(i32),
    /// An explicit transaction around a batch of sends, committed or
    /// aborted at the end.
    Txn { sends: Vec<i32>, abort: bool },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..100i32).prop_map(Op::Send),
        (prop::collection::vec(0..100i32, 0..6), any::<bool>())
            .prop_map(|(sends, abort)| Op::Txn { sends, abort }),
    ]
}

/// Build a database with rules in all three coupling modes plus a
/// `Seq` composite rule (whose detector buffers state that aborts must
/// roll back), telemetry recording and tracing on.
fn workload_db() -> Database {
    let mut db = Database::with_config(
        DbConfig::in_memory()
            .telemetry_enabled(true)
            .trace_capacity(200_000),
    )
    .unwrap();
    db.telemetry().set_tracing(true);
    db.define_class(
        ClassDecl::reactive("X")
            .attr("v", TypeTag::Int)
            .attr("seen", TypeTag::Int)
            .event_method("Set", &[("x", TypeTag::Int)], EventSpec::End)
            .event_method("Bump", &[], EventSpec::End),
    )
    .unwrap();
    db.register_setter("X", "Set", "v").unwrap();
    db.register_method("X", "Bump", |w, this, _| {
        let n = w.get_attr(this, "seen")?.as_int()?;
        w.set_attr(this, "seen", Value::Int(n + 1))?;
        Ok(Value::Null)
    })
    .unwrap();
    db.register_action("tick", |w, f| {
        let o = f.occurrence.constituents[0].oid;
        let n = w.get_attr(o, "seen")?.as_int()?;
        w.set_attr(o, "seen", Value::Int(n + 1))
    });
    let set = sentinel::db::event("end X::Set(int x)").unwrap();
    let bump = sentinel::db::event("end X::Bump()").unwrap();
    for (name, mode) in [
        ("R-imm", CouplingMode::Immediate),
        ("R-def", CouplingMode::Deferred),
        ("R-det", CouplingMode::Detached),
    ] {
        db.add_class_rule("X", RuleDef::new(name, set.clone(), "tick").coupling(mode))
            .unwrap();
    }
    db.add_class_rule(
        "X",
        RuleDef::new("R-seq", set.clone().then(bump), ACTION_NOOP),
    )
    .unwrap();
    db
}

fn run_ops(db: &mut Database, o: Oid, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Send(v) => {
                db.send(o, "Set", &[Value::Int(*v as i64)]).unwrap();
            }
            Op::Txn { sends, abort } => {
                db.begin().unwrap();
                for (i, v) in sends.iter().enumerate() {
                    // Alternate the two event generators so Seq's
                    // detector accumulates (and must roll back) state.
                    if i % 2 == 0 {
                        db.send(o, "Set", &[Value::Int(*v as i64)]).unwrap();
                    } else {
                        db.send(o, "Bump", &[]).unwrap();
                    }
                }
                if *abort {
                    db.abort().unwrap();
                } else {
                    db.commit().unwrap();
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn telemetry_reconciles_with_stats(ops in prop::collection::vec(op_strategy(), 0..30)) {
        let mut db = workload_db();
        let o = db.create("X").unwrap();
        db.reset_stats();
        run_ops(&mut db, o, &ops);

        let tel = db.telemetry().clone();
        let d = db.stats();
        let e = db.engine_stats();
        let facts = [
            (Stage::MethodSend, "sends_total", d.sends),
            (Stage::EventRaised, "events_generated_total", d.events_generated),
            (Stage::FanOut, "occurrences_total", e.occurrences),
            (Stage::DetectorTransition, "notifications_total", e.notifications),
            (Stage::ConditionEval, "condition_evals_total", d.condition_evals),
            (Stage::ActionRun, "actions_run_total", d.actions_run),
            (Stage::FiringImmediate, "scheduled_immediate_total", e.immediate),
            (Stage::FiringDeferred, "scheduled_deferred_total", e.deferred),
            (Stage::FiringDetached, "scheduled_detached_total", e.detached),
            (Stage::TxnCommit, "commits_total", d.commits),
            (Stage::TxnAbort, "aborts_total", d.aborts),
            (Stage::DetachedRun, "detached_runs_total", d.detached_runs),
        ];
        prop_assert_eq!(
            facts.len(),
            Stage::ALL.iter().filter(|s| s.fact().is_some()).count()
        );

        // Every export reports each fact as `stats()` does.
        let text = db.metrics_prometheus();
        let json: FullStats = serde_json::from_str(&db.metrics_json().unwrap()).unwrap();
        prop_assert_eq!(json.db, d);
        prop_assert_eq!(json.engine, e);
        for (stage, counter, want) in facts {
            let series = format!("sentinel_stage_total{{stage=\"{stage}\"}} {want}");
            prop_assert!(text.lines().any(|l| l == series), "missing `{}`", series);
            let counter = format!("sentinel_{counter} {want}");
            prop_assert!(text.lines().any(|l| l == counter), "missing `{}`", counter);
            prop_assert_eq!(json.telemetry.stage_count(stage), want, "{}", stage);
        }

        // The trace ring is big enough for these workloads, so nothing
        // was evicted and every stage firing left exactly one record.
        let snap = tel.snapshot();
        prop_assert_eq!(snap.trace.dropped, 0);
        let total: u64 = snap.stages.iter().map(|s| s.count).sum();
        prop_assert_eq!(snap.trace.recorded, total);
        let records = tel.trace_dump(usize::MAX);
        prop_assert_eq!(records.len() as u64, total);
        let count_of = |stage: Stage| -> u64 {
            records.iter().filter(|r| r.stage == stage).count() as u64
        };
        prop_assert_eq!(count_of(Stage::EventRaised), e.occurrences);
        prop_assert_eq!(count_of(Stage::ConditionEval), d.condition_evals);
        prop_assert_eq!(count_of(Stage::TxnAbort), d.aborts);
        // With tracing on since the reset, each fact stage left exactly
        // one record per counted fact.
        for (stage, _, want) in facts {
            prop_assert_eq!(count_of(stage), want, "{}", stage);
        }
    }

    /// The abort path restores detector state exactly: a rolled-back
    /// prefix must leave detection behaviour (and the counters derived
    /// from it) identical to never having run it.
    #[test]
    fn aborted_work_leaves_counts_consistent(
        committed in prop::collection::vec(0..100i32, 0..10),
        aborted in prop::collection::vec(0..100i32, 1..10),
    ) {
        let mut with_abort = workload_db();
        let o1 = with_abort.create("X").unwrap();
        with_abort.reset_stats();
        run_ops(&mut with_abort, o1, &[Op::Txn { sends: aborted, abort: true }]);
        // Rule counters are not undone by abort (they describe work that
        // happened); detection state is. Compare the committed suffix's
        // trigger delta, not the absolute count.
        let base = with_abort.rule_stats("R-seq").unwrap().triggered;
        run_ops(&mut with_abort, o1, &[Op::Txn { sends: committed.clone(), abort: false }]);

        let mut without = workload_db();
        let o2 = without.create("X").unwrap();
        without.reset_stats();
        run_ops(&mut without, o2, &[Op::Txn { sends: committed, abort: false }]);

        // The aborted prefix adds its own sends/evals, but the Seq
        // detections of the committed suffix — which depend on buffered
        // detector state surviving or being rolled back — must match a
        // run that never saw the aborted work.
        prop_assert_eq!(
            with_abort.rule_stats("R-seq").unwrap().triggered - base,
            without.rule_stats("R-seq").unwrap().triggered
        );
        let a = with_abort.telemetry().stage_count(Stage::ConditionEval);
        prop_assert_eq!(a, with_abort.stats().condition_evals);
    }
}
