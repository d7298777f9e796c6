//! The subscription mechanism (paper §3.5, §4.1, Figure 4).
//!
//! The paper's `Reactive` class keeps a `consumers` list per reactive
//! object: the notifiable objects (rules, event objects) that subscribed
//! to its events. This manager centralises those per-object lists —
//! physically one map instead of a field in every object, which is an
//! implementation detail; the *semantics* are per-object lists, and
//! lookup cost is proportional to the subscribers of the generating
//! object, not to the number of rules in the system (the paper's first
//! claimed advantage, benchmarked in E3).
//!
//! Two granularities:
//!
//! * **instance subscriptions** (`Fred.Subscribe(IncomeLevel)`) — the
//!   rule hears events from exactly that object;
//! * **class subscriptions** — the rule hears events from every instance
//!   of a class, subclass instances included. This implements class-level
//!   rules (Figure 9) with O(1) association cost per rule instead of
//!   O(instances) (experiment E10).

use crate::rule::RuleId;
use sentinel_object::{ClassId, ClassRegistry, Oid};
use std::collections::{HashMap, HashSet};

/// Consumer lists at instance and class granularity.
#[derive(Debug, Default)]
pub struct SubscriptionManager {
    by_object: HashMap<Oid, Vec<RuleId>>,
    by_class: HashMap<ClassId, Vec<RuleId>>,
    // Reverse indices so a rule can be dropped in O(its subscriptions).
    objects_of: HashMap<RuleId, HashSet<Oid>>,
    classes_of: HashMap<RuleId, HashSet<ClassId>>,
    /// Bumped on every mutation. The engine's routing index records the
    /// generation it was built at and rebuilds on mismatch, which keeps
    /// the index correct even though these methods are reachable without
    /// going through the engine (`engine.subscriptions` is public).
    generation: u64,
}

impl SubscriptionManager {
    /// An empty subscription table.
    pub fn new() -> Self {
        Self::default()
    }

    /// `object.Subscribe(rule)` — the rule becomes a consumer of the
    /// object's events. Idempotent.
    pub fn subscribe_object(&mut self, object: Oid, rule: RuleId) {
        if self.objects_of.entry(rule).or_default().insert(object) {
            self.by_object.entry(object).or_default().push(rule);
            self.generation += 1;
        }
    }

    /// Reverse of [`subscribe_object`](Self::subscribe_object). The
    /// object's consumer list is dropped with its last consumer.
    pub fn unsubscribe_object(&mut self, object: Oid, rule: RuleId) {
        if let Some(set) = self.objects_of.get_mut(&rule) {
            if set.remove(&object) {
                if let Some(v) = self.by_object.get_mut(&object) {
                    v.retain(|&r| r != rule);
                    if v.is_empty() {
                        self.by_object.remove(&object);
                    }
                }
                self.generation += 1;
            }
        }
    }

    /// Subscribe a rule to every instance of a class (present and
    /// future) — the class-level rule association. Idempotent.
    pub fn subscribe_class(&mut self, class: ClassId, rule: RuleId) {
        if self.classes_of.entry(rule).or_default().insert(class) {
            self.by_class.entry(class).or_default().push(rule);
            self.generation += 1;
        }
    }

    /// Reverse of [`subscribe_class`](Self::subscribe_class).
    pub fn unsubscribe_class(&mut self, class: ClassId, rule: RuleId) {
        if let Some(set) = self.classes_of.get_mut(&rule) {
            if set.remove(&class) {
                if let Some(v) = self.by_class.get_mut(&class) {
                    v.retain(|&r| r != rule);
                }
                self.generation += 1;
            }
        }
    }

    /// Drop every subscription of a rule (rule deletion).
    pub fn remove_rule(&mut self, rule: RuleId) {
        if let Some(objects) = self.objects_of.remove(&rule) {
            for o in objects {
                if let Some(v) = self.by_object.get_mut(&o) {
                    v.retain(|&r| r != rule);
                }
                self.generation += 1;
            }
        }
        if let Some(classes) = self.classes_of.remove(&rule) {
            for c in classes {
                if let Some(v) = self.by_class.get_mut(&c) {
                    v.retain(|&r| r != rule);
                }
                self.generation += 1;
            }
        }
    }

    /// The rules subscribed to `object` itself (its instance-level
    /// consumer list, in subscription order).
    pub fn subscribers_of(&self, object: Oid) -> &[RuleId] {
        self.by_object.get(&object).map_or(&[], Vec::as_slice)
    }

    /// Mutation counter: changes whenever any subscription edge is added
    /// or removed. Caches over the consumer lists key on this.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Iterate the instance-level consumer lists (index construction).
    pub(crate) fn object_lists(&self) -> impl Iterator<Item = (Oid, &[RuleId])> {
        self.by_object.iter().map(|(&o, v)| (o, v.as_slice()))
    }

    /// The consumer list of one class, if any (index construction).
    pub(crate) fn class_list(&self, class: ClassId) -> Option<&[RuleId]> {
        self.by_class.get(&class).map(Vec::as_slice)
    }

    /// The consumers to notify when `object` (of dynamic class `class`)
    /// generates an event: its instance subscribers plus the class
    /// subscribers of every class in its linearization, deduplicated in
    /// subscription order.
    ///
    /// `out` doubles as the seen-list: fan-outs are small, so one linear
    /// `contains` scan per class subscriber beats allocating a `HashSet`
    /// per event. Instance lists are duplicate-free by construction
    /// (idempotent insert), so only the class loop needs the scan — which
    /// also catches a rule subscribed both to the object and its class.
    pub fn consumers(
        &self,
        registry: &ClassRegistry,
        object: Oid,
        class: ClassId,
        out: &mut Vec<RuleId>,
    ) {
        out.clear();
        if let Some(v) = self.by_object.get(&object) {
            out.extend_from_slice(v);
        }
        for &c in &registry.get(class).linearization {
            if let Some(v) = self.by_class.get(&c) {
                for &r in v {
                    if !out.contains(&r) {
                        out.push(r);
                    }
                }
            }
        }
    }

    /// The objects a rule is subscribed to (unspecified order).
    pub fn objects_of(&self, rule: RuleId) -> Vec<Oid> {
        self.objects_of
            .get(&rule)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// The classes a rule is subscribed to (unspecified order).
    pub fn classes_of(&self, rule: RuleId) -> Vec<ClassId> {
        self.classes_of
            .get(&rule)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Number of instance subscriptions of a rule.
    pub fn object_subscription_count(&self, rule: RuleId) -> usize {
        self.objects_of.get(&rule).map(HashSet::len).unwrap_or(0)
    }

    /// Number of class subscriptions of a rule.
    pub fn class_subscription_count(&self, rule: RuleId) -> usize {
        self.classes_of.get(&rule).map(HashSet::len).unwrap_or(0)
    }

    /// Total subscription edges (memory metric for E4/E10).
    pub fn edge_count(&self) -> usize {
        self.objects_of.values().map(HashSet::len).sum::<usize>()
            + self.classes_of.values().map(HashSet::len).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_object::ClassDecl;

    fn registry() -> (ClassRegistry, ClassId, ClassId) {
        let mut reg = ClassRegistry::new();
        let emp = reg.define(ClassDecl::reactive("Employee")).unwrap();
        let mgr = reg
            .define(ClassDecl::reactive("Manager").parent("Employee"))
            .unwrap();
        (reg, emp, mgr)
    }

    #[test]
    fn instance_subscription_delivery() {
        let (reg, emp, _) = registry();
        let mut subs = SubscriptionManager::new();
        let fred = Oid(1);
        let mike = Oid(2);
        subs.subscribe_object(fred, RuleId(10));
        subs.subscribe_object(fred, RuleId(11));
        subs.subscribe_object(mike, RuleId(11));

        let mut out = Vec::new();
        subs.consumers(&reg, fred, emp, &mut out);
        assert_eq!(out, vec![RuleId(10), RuleId(11)]);
        subs.consumers(&reg, mike, emp, &mut out);
        assert_eq!(out, vec![RuleId(11)]);
        subs.consumers(&reg, Oid(99), emp, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn subscription_is_idempotent() {
        let (reg, emp, _) = registry();
        let mut subs = SubscriptionManager::new();
        subs.subscribe_object(Oid(1), RuleId(1));
        subs.subscribe_object(Oid(1), RuleId(1));
        let mut out = Vec::new();
        subs.consumers(&reg, Oid(1), emp, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(subs.edge_count(), 1);
    }

    #[test]
    fn class_subscription_covers_subclasses() {
        let (reg, emp, mgr) = registry();
        let mut subs = SubscriptionManager::new();
        subs.subscribe_class(emp, RuleId(7));
        let mut out = Vec::new();
        // An event from a Manager instance reaches the Employee-level rule.
        subs.consumers(&reg, Oid(5), mgr, &mut out);
        assert_eq!(out, vec![RuleId(7)]);
        // A rule on Manager does not hear plain Employees.
        subs.subscribe_class(mgr, RuleId(8));
        subs.consumers(&reg, Oid(6), emp, &mut out);
        assert_eq!(out, vec![RuleId(7)]);
        subs.consumers(&reg, Oid(5), mgr, &mut out);
        assert_eq!(out, vec![RuleId(8), RuleId(7)]);
    }

    #[test]
    fn object_plus_class_subscription_delivers_once() {
        let (reg, emp, _) = registry();
        let mut subs = SubscriptionManager::new();
        subs.subscribe_object(Oid(1), RuleId(3));
        subs.subscribe_class(emp, RuleId(3));
        let mut out = Vec::new();
        subs.consumers(&reg, Oid(1), emp, &mut out);
        assert_eq!(out, vec![RuleId(3)]);
    }

    #[test]
    fn unsubscribe_and_remove() {
        let (reg, emp, _) = registry();
        let mut subs = SubscriptionManager::new();
        subs.subscribe_object(Oid(1), RuleId(1));
        subs.subscribe_object(Oid(2), RuleId(1));
        subs.subscribe_class(emp, RuleId(1));
        assert_eq!(subs.edge_count(), 3);

        subs.unsubscribe_object(Oid(1), RuleId(1));
        let mut out = Vec::new();
        subs.consumers(&reg, Oid(1), emp, &mut out);
        assert_eq!(out, vec![RuleId(1)], "class subscription still applies");
        subs.unsubscribe_class(emp, RuleId(1));
        subs.consumers(&reg, Oid(1), emp, &mut out);
        assert!(out.is_empty());

        subs.subscribe_object(Oid(3), RuleId(1));
        subs.remove_rule(RuleId(1));
        subs.consumers(&reg, Oid(3), emp, &mut out);
        assert!(out.is_empty());
        assert_eq!(subs.edge_count(), 0);
    }

    #[test]
    fn last_unsubscribe_drops_the_consumer_list() {
        let mut subs = SubscriptionManager::new();
        subs.subscribe_object(Oid(1), RuleId(1));
        subs.subscribe_object(Oid(1), RuleId(2));
        assert_eq!(subs.subscribers_of(Oid(1)), &[RuleId(1), RuleId(2)]);
        subs.unsubscribe_object(Oid(1), RuleId(1));
        assert_eq!(subs.subscribers_of(Oid(1)), &[RuleId(2)]);
        subs.unsubscribe_object(Oid(1), RuleId(2));
        assert!(subs.subscribers_of(Oid(1)).is_empty());
        assert!(!subs.by_object.contains_key(&Oid(1)));
        assert_eq!(subs.object_subscription_count(RuleId(1)), 0);
    }
}
