//! Routing-index correctness under every invalidation source.
//!
//! The engine's `(target, symbol)` dispatch index is rebuilt lazily from
//! version stamps (schema size, subscription generation, engine epoch).
//! These tests drive events, mutate each stamp's source, and assert the
//! delivered notification counts — the observable the index changes —
//! against the reference consumer lists of `SubscriptionManager`.

use sentinel_events::PrimitiveOccurrence;
use sentinel_events::{EventExpr, EventModifier, ParamContext, PrimitiveEventSpec};
use sentinel_object::{ClassDecl, ClassRegistry, Oid, Value};
use sentinel_rules::{RuleDef, RuleEngine, RuleId, ACTION_NOOP};
use std::sync::Arc;

fn registry() -> ClassRegistry {
    let mut reg = ClassRegistry::new();
    reg.define(
        ClassDecl::reactive("Stock")
            .method("SetPrice", &[])
            .method("SetVolume", &[]),
    )
    .unwrap();
    reg
}

fn occ(reg: &ClassRegistry, at: u64, oid: u64, class: &str, method: &str) -> PrimitiveOccurrence {
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

fn watcher(name: &str, class: &str, method: &str) -> RuleDef {
    RuleDef::new(
        name,
        EventExpr::primitive(PrimitiveEventSpec::end(class, method)),
        ACTION_NOOP,
    )
}

/// Rules notified so far, by id.
fn notified(eng: &RuleEngine) -> Vec<RuleId> {
    let mut ids: Vec<RuleId> = eng
        .iter_rules()
        .filter(|r| r.stats.notifications > 0)
        .map(|r| r.id)
        .collect();
    ids.sort();
    ids
}

/// Routing filters notifications down to the alphabet-matching rules,
/// which are always a subset of the generating object's consumer lists.
#[test]
fn routing_notifies_a_subset_of_the_consumers() {
    let reg = registry();
    let stock = reg.id_of("Stock").unwrap();
    let mut eng = RuleEngine::new();
    let price = eng
        .add_rule(watcher("price", "Stock", "SetPrice"), Oid::NIL, &reg)
        .unwrap();
    let volume = eng
        .add_rule(watcher("volume", "Stock", "SetVolume"), Oid::NIL, &reg)
        .unwrap();
    let any_price = eng
        .add_rule(watcher("any_price", "Stock", "SetPrice"), Oid::NIL, &reg)
        .unwrap();
    let other = eng
        .add_rule(watcher("other", "Stock", "SetPrice"), Oid::NIL, &reg)
        .unwrap();
    eng.subscriptions.subscribe_object(Oid(1), price);
    eng.subscriptions.subscribe_object(Oid(1), volume);
    eng.subscriptions.subscribe_class(stock, any_price);
    eng.subscriptions.subscribe_object(Oid(2), other);

    eng.on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
        .unwrap();
    // Routed: only the SetPrice watchers that hear object 1 were notified.
    assert_eq!(eng.stats().notifications, 2);
    assert_eq!(notified(&eng), vec![price, any_price]);

    let mut consumers = Vec::new();
    eng.subscriptions
        .consumers(&reg, Oid(1), stock, &mut consumers);
    assert_eq!(consumers, vec![price, volume, any_price]);
    assert!(notified(&eng).iter().all(|r| consumers.contains(r)));

    eng.on_occurrence(&reg, &occ(&reg, 2, 1, "Stock", "SetVolume"))
        .unwrap();
    assert_eq!(eng.stats().notifications, 3);
    assert_eq!(eng.rule(volume).unwrap().stats.notifications, 1);
    assert!(notified(&eng).iter().all(|r| consumers.contains(r)));
    assert_eq!(eng.rule(other).unwrap().stats.notifications, 0);
}

/// Removing a rule after the index was built must stop its deliveries.
#[test]
fn remove_rule_invalidates_index() {
    let reg = registry();
    let mut eng = RuleEngine::new();
    let a = eng
        .add_rule(watcher("a", "Stock", "SetPrice"), Oid::NIL, &reg)
        .unwrap();
    let b = eng
        .add_rule(watcher("b", "Stock", "SetPrice"), Oid::NIL, &reg)
        .unwrap();
    eng.subscriptions.subscribe_object(Oid(1), a);
    eng.subscriptions.subscribe_object(Oid(1), b);

    let fired = eng
        .on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(fired.len(), 2);
    // Identical rules share one detector: one delivery serves both.
    assert_eq!(eng.stats().notifications, 1);
    assert_eq!(eng.detector_count(), 1);

    eng.remove_rule(a).unwrap();
    let fired = eng
        .on_occurrence(&reg, &occ(&reg, 2, 1, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].firing.rule, b);
    assert_eq!(eng.stats().notifications, 2);
}

/// Rules with the same event but different subscriptions hear different
/// occurrences, so they keep separate detectors — even while their
/// states happen to be equal.
#[test]
fn same_event_different_subscriptions_stay_apart() {
    let reg = registry();
    let stock = reg.id_of("Stock").unwrap();
    let mut eng = RuleEngine::new();
    let pair = EventExpr::primitive(PrimitiveEventSpec::end("Stock", "SetPrice")).then(
        EventExpr::primitive(PrimitiveEventSpec::end("Stock", "SetPrice")),
    );
    let ids: Vec<RuleId> = ["on1", "on2", "class"]
        .into_iter()
        .map(|n| {
            eng.add_rule(RuleDef::new(n, pair.clone(), ACTION_NOOP), Oid::NIL, &reg)
                .unwrap()
        })
        .collect();
    eng.subscriptions.subscribe_object(Oid(1), ids[0]);
    eng.subscriptions.subscribe_object(Oid(2), ids[1]);
    eng.subscriptions.subscribe_class(stock, ids[2]);

    eng.on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(eng.detector_count(), 3);
    // Object 1's event reaches the `on1` and class detectors, one each.
    assert_eq!(eng.stats().notifications, 2);
    assert_eq!(eng.detector_of(ids[0]).unwrap().buffered(), 1);
    assert_eq!(eng.detector_of(ids[1]).unwrap().buffered(), 0);
    let fired = eng
        .on_occurrence(&reg, &occ(&reg, 2, 2, "Stock", "SetPrice"))
        .unwrap();
    let fired: Vec<RuleId> = fired.iter().map(|f| f.firing.rule).collect();
    assert_eq!(fired, vec![ids[2]], "only the class rule saw both events");

    // Subscribing `on2` to object 1 as well does not make it `on1`'s
    // twin either: object sets still differ.
    eng.subscriptions.subscribe_object(Oid(1), ids[1]);
    eng.on_occurrence(&reg, &occ(&reg, 3, 1, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(eng.detector_count(), 3);
}

/// Disabled rules drop out of the index; re-enabling re-admits them.
#[test]
fn disable_enable_invalidates_index() {
    let reg = registry();
    let mut eng = RuleEngine::new();
    let r = eng
        .add_rule(watcher("r", "Stock", "SetPrice"), Oid::NIL, &reg)
        .unwrap();
    eng.subscriptions.subscribe_object(Oid(1), r);

    eng.on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(eng.stats().notifications, 1);

    eng.disable(r).unwrap();
    eng.on_occurrence(&reg, &occ(&reg, 2, 1, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(eng.stats().notifications, 1, "disabled: not notified");
    assert_eq!(eng.rule(r).unwrap().stats.notifications, 1);

    eng.enable(r).unwrap();
    let fired = eng
        .on_occurrence(&reg, &occ(&reg, 3, 1, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(fired.len(), 1);
    assert_eq!(eng.stats().notifications, 2);
}

/// Subscribing and unsubscribing after events already flowed (the index
/// is hot) must be reflected on the very next occurrence, including
/// mutations made through the public `subscriptions` field.
#[test]
fn subscribe_unsubscribe_after_events_flowed() {
    let reg = registry();
    let mut eng = RuleEngine::new();
    let r = eng
        .add_rule(watcher("r", "Stock", "SetPrice"), Oid::NIL, &reg)
        .unwrap();
    eng.subscriptions.subscribe_object(Oid(1), r);

    eng.on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(eng.stats().notifications, 1);

    // A second producer subscribed while the index is hot.
    eng.subscriptions.subscribe_object(Oid(2), r);
    eng.on_occurrence(&reg, &occ(&reg, 2, 2, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(eng.stats().notifications, 2);

    eng.subscriptions.unsubscribe_object(Oid(1), r);
    eng.on_occurrence(&reg, &occ(&reg, 3, 1, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(eng.stats().notifications, 2, "unsubscribed: silent");

    // Class subscription added late is honoured too.
    let stock = reg.id_of("Stock").unwrap();
    eng.subscriptions.subscribe_class(stock, r);
    eng.on_occurrence(&reg, &occ(&reg, 4, 7, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(eng.stats().notifications, 3);
    eng.subscriptions.unsubscribe_class(stock, r);
    eng.on_occurrence(&reg, &occ(&reg, 5, 7, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(eng.stats().notifications, 3);
}

/// A subclass defined *after* a rule (and its index entry) exists mints
/// fresh symbols for inherited methods; an instance of that subclass
/// raising the parent-spec method must still reach the rule.
#[test]
fn subclass_instance_raises_parent_spec_method() {
    let mut reg = registry();
    let mut eng = RuleEngine::new();
    let r = eng
        .add_rule(watcher("r", "Stock", "SetPrice"), Oid::NIL, &reg)
        .unwrap();
    let stock = reg.id_of("Stock").unwrap();
    eng.subscriptions.subscribe_class(stock, r);

    // Build the index against the current schema.
    eng.on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
        .unwrap();
    assert_eq!(eng.stats().notifications, 1);

    // New subclass: SetPrice on a TechStock is a *different* symbol.
    reg.define(ClassDecl::reactive("TechStock").parent("Stock"))
        .unwrap();
    let fired = eng
        .on_occurrence(&reg, &occ(&reg, 2, 9, "TechStock", "SetPrice"))
        .unwrap();
    assert_eq!(fired.len(), 1, "subclass event reaches the parent rule");
    assert_eq!(eng.stats().notifications, 2);

    // And the sibling method still routes away from the rule.
    eng.on_occurrence(&reg, &occ(&reg, 3, 9, "TechStock", "SetVolume"))
        .unwrap();
    assert_eq!(eng.stats().notifications, 2);
}

/// Expressions containing `Plus` have an unbounded alphabet (any
/// subsequent occurrence can signal the deadline), so such rules must
/// hear *every* event of their subscribed producers even under routing.
#[test]
fn plus_rules_are_routed_broadly() {
    let reg = registry();
    let mut eng = RuleEngine::new();
    let plus = EventExpr::primitive(PrimitiveEventSpec::end("Stock", "SetPrice")).plus(5);
    let r = eng
        .add_rule(
            RuleDef::new("deadline", plus, ACTION_NOOP).context(ParamContext::Chronicle),
            Oid::NIL,
            &reg,
        )
        .unwrap();
    eng.subscriptions.subscribe_object(Oid(1), r);

    // The anchor event, then an unrelated method past the deadline: the
    // rule must be notified of both for the deadline to be detected.
    eng.on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "SetPrice"))
        .unwrap();
    let fired = eng
        .on_occurrence(&reg, &occ(&reg, 10, 1, "Stock", "SetVolume"))
        .unwrap();
    assert_eq!(eng.stats().notifications, 2, "broad rule hears everything");
    assert_eq!(fired.len(), 1, "deadline detected via unrelated event");
}

/// Occurrences whose method is outside the declared schema carry no
/// symbol: they reach the broad (`Plus`) subscribers, which hear every
/// event, and no symbol-bounded one.
#[test]
fn symbol_less_occurrences_reach_only_broad_rules() {
    let reg = registry();
    let mut eng = RuleEngine::new();
    let bounded = eng
        .add_rule(watcher("bounded", "Stock", "SetPrice"), Oid::NIL, &reg)
        .unwrap();
    let plus = EventExpr::primitive(PrimitiveEventSpec::end("Stock", "SetPrice")).plus(5);
    let broad = eng
        .add_rule(RuleDef::new("broad", plus, ACTION_NOOP), Oid::NIL, &reg)
        .unwrap();
    eng.subscriptions.subscribe_object(Oid(1), bounded);
    eng.subscriptions.subscribe_object(Oid(1), broad);

    // "Audit" is not in Stock's declared interface: no symbol.
    eng.on_occurrence(&reg, &occ(&reg, 1, 1, "Stock", "Audit"))
        .unwrap();
    assert_eq!(eng.stats().notifications, 1);
    assert_eq!(eng.rule(broad).unwrap().stats.notifications, 1);
    assert_eq!(eng.rule(bounded).unwrap().stats.notifications, 0);
    assert_eq!(eng.rule(broad).unwrap().stats.triggered, 0);
}
