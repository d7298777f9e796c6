//! Integration test of the metrics exporters: the Prometheus text
//! exposition and the JSON snapshot must reconcile exactly with the
//! counters the database reports through `stats()` / `engine_stats()`;
//! and the two reset scopes: `Telemetry::reset` empties telemetry only,
//! `Database::reset_stats` zeroes the counters too.

use sentinel::prelude::*;
use sentinel::rules::EngineStats;
use std::collections::HashMap;

/// A fixed workload touching every pipeline stage: three coupling
/// modes, a composite rule, explicit transactions, and an abort.
fn run_workload() -> Database {
    let mut db = Database::with_config(
        DbConfig::in_memory()
            .telemetry_enabled(true)
            .trace_capacity(50_000),
    )
    .unwrap();
    db.telemetry().set_tracing(true);
    db.define_class(
        ClassDecl::reactive("Stock")
            .attr("price", TypeTag::Float)
            .attr("hits", TypeTag::Int)
            .event_method("SetPrice", &[("p", TypeTag::Float)], EventSpec::End),
    )
    .unwrap();
    db.register_setter("Stock", "SetPrice", "price").unwrap();
    db.register_action("count", |w, f| {
        let o = f.occurrence.constituents[0].oid;
        let n = w.get_attr(o, "hits")?.as_int()?;
        w.set_attr(o, "hits", Value::Int(n + 1))
    });
    let ev = sentinel::db::event("end Stock::SetPrice(float p)").unwrap();
    for (name, mode) in [
        ("imm", CouplingMode::Immediate),
        ("def", CouplingMode::Deferred),
        ("det", CouplingMode::Detached),
    ] {
        db.add_class_rule(
            "Stock",
            RuleDef::new(name, ev.clone(), "count").coupling(mode),
        )
        .unwrap();
    }
    let s = db.create("Stock").unwrap();
    db.reset_stats();
    for i in 0..50 {
        db.send(s, "SetPrice", &[Value::Float(i as f64)]).unwrap();
    }
    db.begin().unwrap();
    db.send(s, "SetPrice", &[Value::Float(999.0)]).unwrap();
    db.abort().unwrap();
    db
}

/// Parse the plain `sentinel_<name> <value>` counter lines (histogram
/// and labelled series are skipped).
fn parse_counters(text: &str) -> HashMap<String, u64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            if name.contains('{') {
                return None;
            }
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

#[test]
fn prometheus_counters_match_stats() {
    let db = run_workload();
    let d = db.stats();
    let e = db.engine_stats();
    let text = db.metrics_prometheus();
    let counters = parse_counters(&text);
    let expect = [
        ("sentinel_sends_total", d.sends),
        ("sentinel_events_generated_total", d.events_generated),
        ("sentinel_condition_evals_total", d.condition_evals),
        ("sentinel_condition_true_total", d.condition_true),
        ("sentinel_actions_run_total", d.actions_run),
        ("sentinel_commits_total", d.commits),
        ("sentinel_aborts_total", d.aborts),
        ("sentinel_detached_runs_total", d.detached_runs),
        ("sentinel_occurrences_total", e.occurrences),
        ("sentinel_notifications_total", e.notifications),
        ("sentinel_scheduled_immediate_total", e.immediate),
        ("sentinel_scheduled_deferred_total", e.deferred),
        ("sentinel_scheduled_detached_total", e.detached),
    ];
    for (name, want) in expect {
        assert_eq!(counters.get(name), Some(&want), "{name}\n{text}");
    }
    // The workload is non-trivial: the counters must not all be zero.
    assert!(d.sends > 0 && d.aborts == 1 && e.detached > 0);

    // Per-stage series reconcile with the same statistics.
    let stage_line = |stage: &str| format!("sentinel_stage_total{{stage=\"{stage}\"}}");
    for (stage, want) in [
        ("method_send", d.sends),
        ("event_raised", d.events_generated),
        ("condition_eval", d.condition_evals),
        ("action_run", d.actions_run),
        ("txn_commit", d.commits),
        ("txn_abort", d.aborts),
        ("detached_run", d.detached_runs),
    ] {
        let needle = format!("{} {want}", stage_line(stage));
        assert!(text.contains(&needle), "missing `{needle}` in:\n{text}");
    }
}

#[test]
fn json_snapshot_round_trips_and_matches() {
    let db = run_workload();
    let json = db.metrics_json().unwrap();
    let parsed: FullStats = serde_json::from_str(&json).unwrap();
    assert_eq!(parsed, db.full_stats());
    assert_eq!(parsed.db, db.stats());
    assert_eq!(parsed.engine, db.engine_stats());
    assert_eq!(
        parsed.telemetry.stage_count(Stage::MethodSend),
        db.stats().sends
    );
    assert!(parsed.telemetry.enabled && parsed.telemetry.tracing);
    assert!(parsed.telemetry.trace.recorded > 0);
    // Rule latencies were recorded for each of the three rules.
    let names: Vec<&str> = parsed
        .telemetry
        .rules
        .iter()
        .map(|r| r.rule.as_str())
        .collect();
    assert_eq!(names, ["def", "det", "imm"]);
}

#[test]
fn telemetry_disabled_by_default_and_costs_nothing() {
    let mut db = Database::new();
    db.define_class(
        ClassDecl::reactive("X")
            .attr("v", TypeTag::Float)
            .event_method("Set", &[("x", TypeTag::Float)], EventSpec::End),
    )
    .unwrap();
    db.register_setter("X", "Set", "v").unwrap();
    let o = db.create("X").unwrap();
    db.send(o, "Set", &[Value::Float(1.0)]).unwrap();
    let snap = db.telemetry().snapshot();
    assert!(!snap.enabled);
    // Facts count while telemetry is off; histograms, rule latencies
    // and the trace stay empty.
    assert!(snap.stages.iter().all(|s| s.values.count == 0));
    assert!(snap.rules.is_empty());
    assert_eq!(snap.trace.recorded, 0);
    assert_eq!(snap.stage_count(Stage::MethodSend), db.stats().sends);
    // Runtime enablement works without reopening the database.
    db.telemetry().set_enabled(true);
    db.send(o, "Set", &[Value::Float(2.0)]).unwrap();
    let commits = db
        .telemetry()
        .snapshot()
        .stage(Stage::TxnCommit)
        .unwrap()
        .values
        .count;
    assert_eq!(commits, 1);
}

/// `Telemetry::reset` (the benchmark's switch into its traced phase)
/// empties histograms, rule latencies and the trace, and changes no
/// counter; `Database::reset_stats` zeroes the counters as well.
#[test]
fn reset_scopes_telemetry_and_counters_apart() {
    let sentinel = Sentinel::open(run_workload());
    let session = sentinel.session();
    let rules = ["def", "det", "imm"];
    let counters = |db: &Database| {
        let per_rule: Vec<RuleStats> = rules.iter().map(|r| db.rule_stats(r).unwrap()).collect();
        (db.stats(), db.engine_stats(), per_rule, session.stats())
    };
    sentinel.with(|db| {
        let before = counters(db);
        assert!(before.0.condition_evals > 0 && before.2.iter().all(|r| r.actions_run > 0));
        assert_eq!(before.3, before.0);
        db.telemetry().reset();
        assert_eq!(counters(db), before, "Telemetry::reset changed a counter");
        let snap = db.telemetry().snapshot();
        assert!(snap.stages.iter().all(|s| s.values.count == 0));
        assert!(snap.rules.is_empty());
        assert_eq!(snap.trace.recorded, 0);
        assert!(db.telemetry().trace_dump(usize::MAX).is_empty());
    });
    // A later evaluation lands in the rule's cell, which the reset
    // zeroed rather than dropped.
    let s = sentinel.with(|db| db.extent("Stock").unwrap()[0]);
    sentinel.send(s, "SetPrice", &[Value::Float(1.0)]).unwrap();
    sentinel.drain();
    sentinel.with(|db| {
        let snap = db.telemetry().snapshot();
        let imm = snap.rules.iter().find(|r| r.rule == "imm").unwrap();
        assert_eq!(imm.condition.count, 1);
        assert_eq!(imm.action.count, 1);
        db.reset_stats();
        assert_eq!(db.stats(), DbStats::default());
        assert_eq!(db.engine_stats(), EngineStats::default());
        for r in rules {
            assert_eq!(db.rule_stats(r).unwrap(), RuleStats::default(), "{r}");
        }
        assert_eq!(session.stats(), DbStats::default());
        assert!(db.telemetry().snapshot().rules.is_empty());
    });
}

/// A timer delivery is a detector transition like any other: each one
/// is a notification, a `detector_transition` sample and, while
/// tracing, a trace record.
#[test]
fn timer_deliveries_are_timed_and_traced() {
    let mut db = Database::with_config(DbConfig::in_memory().time_mode(TimeMode::Virtual)).unwrap();
    db.add_rule(RuleDef::new("Tick", EventExpr::every(100), ACTION_NOOP))
        .unwrap();
    db.telemetry().set_enabled(true);
    db.telemetry().set_tracing(true);
    db.reset_stats();
    db.advance_time(1_000).unwrap();
    assert_eq!(db.engine_stats().notifications, 10);
    let snap = db.full_stats().telemetry;
    let transitions = snap.stage(Stage::DetectorTransition).unwrap();
    assert_eq!(transitions.count, 10, "the fact: one per delivery");
    assert_eq!(
        transitions.values.count, 10,
        "one timing sample per delivery"
    );
    let traced = db
        .telemetry()
        .trace_dump(usize::MAX)
        .iter()
        .filter(|r| r.stage == Stage::DetectorTransition)
        .count();
    assert_eq!(traced, 10, "one trace record per delivery");
}
