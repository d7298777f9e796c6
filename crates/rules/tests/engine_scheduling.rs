//! Engine scheduling behaviour: deferred-queue ordering under conflict
//! resolvers, mixed class/instance delivery, stats accounting, and
//! capture lifecycles.

use sentinel_events::{EventExpr, EventModifier, PrimitiveEventSpec, PrimitiveOccurrence};
use sentinel_object::{ClassDecl, ClassRegistry, Oid, Value};
use sentinel_rules::{CouplingMode, PriorityResolver, RuleDef, RuleEngine, ACTION_NOOP};
use std::sync::Arc;

fn registry() -> ClassRegistry {
    let mut reg = ClassRegistry::new();
    reg.define(ClassDecl::reactive("S").method("m", &[]))
        .unwrap();
    reg
}

fn occ(reg: &ClassRegistry, at: u64, oid: u64) -> PrimitiveOccurrence {
    let cid = reg.id_of("S").unwrap();
    PrimitiveOccurrence {
        at,
        oid: Oid(oid),
        class: cid,
        owner: cid,
        method: "m".into(),
        modifier: EventModifier::End,
        params: Arc::from(Vec::<Value>::new()),
    }
}

fn leaf() -> EventExpr {
    EventExpr::primitive(PrimitiveEventSpec::end("S", "m"))
}

#[test]
fn deferred_queue_is_ordered_by_the_resolver_at_drain() {
    let reg = registry();
    let mut eng = RuleEngine::new();
    eng.set_resolver(Box::new(PriorityResolver));
    for (name, prio) in [("low", 1), ("high", 9), ("mid", 5)] {
        let id = eng
            .add_rule(
                RuleDef::new(name, leaf(), ACTION_NOOP)
                    .coupling(CouplingMode::Deferred)
                    .priority(prio),
                Oid::NIL,
                &reg,
            )
            .unwrap();
        eng.subscriptions.subscribe_object(Oid(1), id);
    }
    eng.on_occurrence(&reg, &occ(&reg, 1, 1)).unwrap();
    let drained = eng.take_deferred();
    let names: Vec<&str> = drained.iter().map(|f| &*f.firing.rule_name).collect();
    assert_eq!(names, ["high", "mid", "low"]);
    // Queue is empty afterwards.
    assert!(eng.take_deferred().is_empty());
}

#[test]
fn engine_stats_route_per_coupling_mode() {
    let reg = registry();
    let mut eng = RuleEngine::new();
    for (name, mode) in [
        ("i", CouplingMode::Immediate),
        ("d", CouplingMode::Deferred),
        ("x", CouplingMode::Detached),
    ] {
        let id = eng
            .add_rule(
                RuleDef::new(name, leaf(), ACTION_NOOP).coupling(mode),
                Oid::NIL,
                &reg,
            )
            .unwrap();
        eng.subscriptions.subscribe_object(Oid(1), id);
    }
    for t in 1..=3 {
        eng.on_occurrence(&reg, &occ(&reg, t, 1)).unwrap();
    }
    let s = eng.stats();
    assert_eq!(s.occurrences, 3);
    // The three rules differ only in coupling: one shared detector.
    assert_eq!(s.notifications, 3);
    for name in ["i", "d", "x"] {
        let id = eng.id_of(name).unwrap();
        assert_eq!(eng.rule(id).unwrap().stats.notifications, 3);
    }
    assert_eq!((s.immediate, s.deferred, s.detached), (3, 3, 3));
    eng.reset_stats();
    assert_eq!(eng.stats().occurrences, 0);
}

#[test]
fn class_and_instance_subscription_deliver_once() {
    let reg = registry();
    let mut eng = RuleEngine::new();
    let id = eng
        .add_rule(RuleDef::new("r", leaf(), ACTION_NOOP), Oid::NIL, &reg)
        .unwrap();
    let class = reg.id_of("S").unwrap();
    eng.subscriptions.subscribe_object(Oid(1), id);
    eng.subscriptions.subscribe_class(class, id);
    let fired = eng.on_occurrence(&reg, &occ(&reg, 1, 1)).unwrap();
    assert_eq!(fired.len(), 1, "exactly one delivery despite two routes");
    assert_eq!(eng.rule(id).unwrap().stats.notifications, 1);
}

#[test]
fn capture_lifecycle_commit_keeps_abort_restores() {
    let reg = registry();
    let mut eng = RuleEngine::new();
    // Sequence rule so partial state is visible through `buffered`.
    let expr = EventExpr::primitive(PrimitiveEventSpec::end("S", "m"))
        .then(EventExpr::primitive(PrimitiveEventSpec::end("S", "m")));
    let id = eng
        .add_rule(RuleDef::new("seq", expr, ACTION_NOOP), Oid::NIL, &reg)
        .unwrap();
    eng.subscriptions.subscribe_object(Oid(1), id);

    // Abort path: buffered left restored (to nothing).
    eng.begin_capture();
    eng.on_occurrence(&reg, &occ(&reg, 1, 1)).unwrap();
    assert_eq!(eng.detector_of(id).unwrap().buffered(), 1);
    eng.abort_capture();
    assert_eq!(eng.detector_of(id).unwrap().buffered(), 0);

    // Commit path: buffered left survives.
    eng.begin_capture();
    eng.on_occurrence(&reg, &occ(&reg, 2, 1)).unwrap();
    eng.commit_capture();
    assert_eq!(eng.detector_of(id).unwrap().buffered(), 1);
    // And the detector journal is closed: processing outside a capture
    // window still works.
    let fired = eng.on_occurrence(&reg, &occ(&reg, 3, 1)).unwrap();
    assert_eq!(fired.len(), 1);
}

#[test]
fn discard_pending_clears_both_queues() {
    let reg = registry();
    let mut eng = RuleEngine::new();
    for (name, mode) in [("d", CouplingMode::Deferred), ("x", CouplingMode::Detached)] {
        let id = eng
            .add_rule(
                RuleDef::new(name, leaf(), ACTION_NOOP).coupling(mode),
                Oid::NIL,
                &reg,
            )
            .unwrap();
        eng.subscriptions.subscribe_object(Oid(1), id);
    }
    eng.on_occurrence(&reg, &occ(&reg, 1, 1)).unwrap();
    assert_eq!(eng.pending(), (1, 1));
    eng.discard_pending();
    assert_eq!(eng.pending(), (0, 0));
    assert!(eng.take_deferred().is_empty());
    assert!(eng.take_detached().is_empty());
}

#[test]
fn rule_oid_reverse_lookup() {
    let reg = registry();
    let mut eng = RuleEngine::new();
    let id = eng
        .add_rule(RuleDef::new("r", leaf(), ACTION_NOOP), Oid(42), &reg)
        .unwrap();
    assert_eq!(eng.id_of_oid(Oid(42)), Some(id));
    assert_eq!(eng.id_of_oid(Oid(43)), None);
    eng.remove_rule(id).unwrap();
    assert_eq!(eng.id_of_oid(Oid(42)), None);
}
