//! Compiled conflict matrix — the static analysis, made dispatchable.
//!
//! The triggering graph and declared effects footprints already answer
//! "which rules can interfere with which"; this module compiles that
//! answer into a form the runtime scheduler can consult per firing
//! without re-running the analyzer:
//!
//! * each **eligible** rule (enabled, non-immediate coupling, declared
//!   effects that raise nothing and carry a declared read-set) is
//!   assigned a **conflict component** — rules whose footprints exhibit
//!   a write-write *or read-write* overlap (same attribute on
//!   subclass-related classes) share a component;
//! * every other rule is marked serial with the reason, so stats and
//!   diagnostics can say *why* the fast path was skipped.
//!
//! Read dependencies matter as much as writes: a rule whose condition
//! or action reads an attribute another rule writes would observe
//! worker interleaving if the two ran concurrently, so a read-write
//! overlap unions their components exactly like a write-write overlap.
//! A rule whose action declares writes but no read-set
//! ([`ActionEffects::reads`](sentinel_rules::ActionEffects) `= None`)
//! is conservatively treated as able to read *anything* and is pinned
//! to the serial lane ([`SerialReason::UnknownReads`]).
//!
//! Rules that raise events are excluded even when their raises are
//! declared: a raise schedules further firings whose relative order the
//! serial semantics fixes, so running the raiser concurrently would need
//! cross-group ordering the scheduler does not attempt. Immediate
//! firings run inside the triggering call stack and are inherently
//! serial.
//!
//! The matrix is a pure function of `(rule set, body registry, schema)`;
//! [`ConflictMatrix::is_fresh`] checks the same version stamps the
//! engine's routing index uses, so callers cache the matrix and rebuild
//! only on rule-set or effects change.

use sentinel_object::{ClassId, ClassRegistry};
use sentinel_rules::{AttrPattern, CouplingMode, RuleEngine, RuleId};
use std::collections::HashMap;

/// Why a rule is confined to the serial execution path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SerialReason {
    /// The rule's action has no declared effects — it may write or raise
    /// anything, so it conflicts with everything.
    UnknownEffects,
    /// The action declares writes but no read-set — it may read
    /// anything, including attributes concurrent firings write, so its
    /// condition and action outcomes could depend on worker
    /// interleaving.
    UnknownReads,
    /// The action's declared effects include raised events; the firings
    /// it schedules must observe the serial order.
    RaisesEvents,
    /// Immediate coupling executes inside the triggering send.
    ImmediateCoupling,
    /// The rule is disabled (it cannot fire at all).
    Disabled,
}

impl SerialReason {
    /// Human-readable label for diagnostics and stats.
    pub fn as_str(&self) -> &'static str {
        match self {
            SerialReason::UnknownEffects => "effects unknown",
            SerialReason::UnknownReads => "read-set unknown",
            SerialReason::RaisesEvents => "raises events",
            SerialReason::ImmediateCoupling => "immediate coupling",
            SerialReason::Disabled => "disabled",
        }
    }
}

/// The execution lane the matrix assigns a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Eligible for concurrent execution, in the given conflict
    /// component. Firings of rules in *different* components never
    /// interfere on declared state; the scheduler runs the firings on
    /// one target in one group and checks every access at runtime, so
    /// it needs only the footprint, not the component.
    Parallel {
        /// Dense component id, `0..component_count`.
        component: u32,
    },
    /// Must run on the serial path.
    Serial(SerialReason),
}

/// A declared attribute pattern resolved against the schema the matrix
/// was compiled with: the attribute name and every class the pattern
/// covers, so checking an access costs no name lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedPattern {
    /// Attribute name.
    pub attr: String,
    /// Every class subclass-related to the pattern's class, in either
    /// direction, ascending. Empty when the class is not in the schema:
    /// a later `define` makes the matrix stale, so such a pattern can
    /// match nothing while the matrix is fresh.
    classes: Vec<ClassId>,
}

impl ResolvedPattern {
    /// Resolve `pattern` with the subclass-closed relation
    /// [`ConflictMatrix::build`] unions components with.
    fn resolve(registry: &ClassRegistry, pattern: &AttrPattern) -> Self {
        let classes = match registry.id_of(&pattern.class) {
            Ok(pc) => (0..registry.len() as u32)
                .map(ClassId)
                .filter(|&c| registry.is_subclass(c, pc) || registry.is_subclass(pc, c))
                .collect(),
            Err(_) => Vec::new(),
        };
        ResolvedPattern {
            attr: pattern.attr.clone(),
            classes,
        }
    }

    /// Does the pattern cover an access to `attr` on an object of
    /// `class`? Any access passing this check was accounted for by the
    /// static grouping; the scheduler's worker shim checks every access
    /// with it.
    pub fn matches(&self, class: ClassId, attr: &str) -> bool {
        self.classes.contains(&class) && self.attr == attr
    }
}

/// The declared data footprint of a parallel-eligible rule, resolved
/// against the schema, in the shape the scheduler's worker shim verifies
/// at runtime.
#[derive(Debug, Clone)]
pub struct RuleFootprint {
    /// The rule the footprint belongs to.
    pub rule: RuleId,
    /// Attributes the firing may write (the action's declared writes).
    pub writes: Vec<ResolvedPattern>,
    /// Everything the firing may read: the declared read-set *plus* the
    /// declared writes (written attributes are implicitly readable).
    pub reads: Vec<ResolvedPattern>,
}

/// The compiled matrix: per-rule lanes plus the version stamps they were
/// derived from.
#[derive(Debug, Clone)]
pub struct ConflictMatrix {
    lanes: HashMap<RuleId, Lane>,
    /// Footprints of the parallel-lane rules, at each rule's place in
    /// the engine's rule table (`None` for serial-lane rules and free
    /// places), for the scheduler's runtime access guard.
    footprints: Vec<Option<RuleFootprint>>,
    /// Deduplicated union of every parallel rule's write patterns — the
    /// attributes some concurrent firing might be writing while a batch
    /// is in flight.
    shared_writes: Vec<ResolvedPattern>,
    parallel_rules: usize,
    components: u32,
    epoch: u64,
    bodies_version: u64,
    schema_len: usize,
}

/// Do two declared attribute patterns possibly touch the same
/// attribute? Same attribute name, and the classes subclass-related in
/// either direction (a write to `Employee.salary` conflicts with a
/// write to `Manager.salary`). Classes unknown to the registry compare
/// by name.
pub(crate) fn attrs_overlap(registry: &ClassRegistry, a: &AttrPattern, b: &AttrPattern) -> bool {
    if a.attr != b.attr {
        return false;
    }
    match (registry.id_of(&a.class), registry.id_of(&b.class)) {
        (Ok(ca), Ok(cb)) => registry.is_subclass(ca, cb) || registry.is_subclass(cb, ca),
        _ => a.class == b.class,
    }
}

/// Path-compressing union-find root lookup.
fn find(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

impl ConflictMatrix {
    /// Compile the matrix for the engine's current rule set against the
    /// given schema.
    pub fn build(registry: &ClassRegistry, engine: &RuleEngine) -> Self {
        let mut lanes = HashMap::new();
        // (rule, place in the rule table, writes, full read-set =
        // declared reads ∪ writes) of each parallel-eligible rule.
        let mut eligible: Vec<(RuleId, usize, Vec<AttrPattern>, Vec<AttrPattern>)> = Vec::new();
        let mut table_len = 0;
        for (index, rule) in engine.iter_rules_indexed() {
            table_len = table_len.max(index + 1);
            let lane = if !rule.enabled {
                Err(SerialReason::Disabled)
            } else if rule.def.coupling == CouplingMode::Immediate {
                Err(SerialReason::ImmediateCoupling)
            } else {
                match engine.bodies.action_effects(&rule.def.action) {
                    None => Err(SerialReason::UnknownEffects),
                    Some(fx) if !fx.raises.is_empty() => Err(SerialReason::RaisesEvents),
                    Some(fx) => match &fx.reads {
                        None => Err(SerialReason::UnknownReads),
                        Some(reads) => {
                            let mut full_reads = fx.writes.clone();
                            for r in reads {
                                if !full_reads.contains(r) {
                                    full_reads.push(r.clone());
                                }
                            }
                            eligible.push((rule.id, index, fx.writes.clone(), full_reads));
                            Ok(())
                        }
                    },
                }
            };
            if let Err(reason) = lane {
                lanes.insert(rule.id, Lane::Serial(reason));
            }
        }
        // Deterministic component numbering regardless of table order.
        eligible.sort_by_key(|(id, ..)| *id);

        // Union rules that may interfere: a write-write overlap, or a
        // read-write overlap in either direction (a firing that reads
        // what another writes would observe worker interleaving). The
        // read-sets include the writes, so checking reads-vs-writes
        // both ways subsumes the write-write case. Rule sets are small
        // and footprints smaller; the quadratic sweep is not a cost.
        let mut parent: Vec<usize> = (0..eligible.len()).collect();
        for i in 0..eligible.len() {
            for j in (i + 1)..eligible.len() {
                let (_, _, ref wi, ref ri) = eligible[i];
                let (_, _, ref wj, ref rj) = eligible[j];
                let conflicted = ri
                    .iter()
                    .any(|a| wj.iter().any(|b| attrs_overlap(registry, a, b)))
                    || wi
                        .iter()
                        .any(|a| rj.iter().any(|b| attrs_overlap(registry, a, b)));
                if conflicted {
                    let (pi, pj) = (find(&mut parent, i), find(&mut parent, j));
                    if pi != pj {
                        parent[pi] = pj;
                    }
                }
            }
        }
        let resolve = |patterns: &[AttrPattern]| -> Vec<ResolvedPattern> {
            patterns
                .iter()
                .map(|p| ResolvedPattern::resolve(registry, p))
                .collect()
        };
        let mut component_of_root: HashMap<usize, u32> = HashMap::new();
        let mut footprints = vec![None; table_len];
        let mut shared_writes: Vec<AttrPattern> = Vec::new();
        for (i, (rule_id, index, writes, full_reads)) in eligible.iter().enumerate() {
            let root = find(&mut parent, i);
            let next = component_of_root.len() as u32;
            let component = *component_of_root.entry(root).or_insert(next);
            lanes.insert(*rule_id, Lane::Parallel { component });
            for w in writes {
                if !shared_writes.contains(w) {
                    shared_writes.push(w.clone());
                }
            }
            footprints[*index] = Some(RuleFootprint {
                rule: *rule_id,
                writes: resolve(writes),
                reads: resolve(full_reads),
            });
        }

        ConflictMatrix {
            lanes,
            footprints,
            shared_writes: resolve(&shared_writes),
            parallel_rules: eligible.len(),
            components: component_of_root.len() as u32,
            epoch: engine.epoch(),
            bodies_version: engine.bodies.version(),
            schema_len: registry.len(),
        }
    }

    /// Is the matrix still valid for the engine's current rule set,
    /// body registry, and schema? Mirrors the engine's routing-index
    /// freshness check.
    pub fn is_fresh(&self, registry: &ClassRegistry, engine: &RuleEngine) -> bool {
        self.epoch == engine.epoch()
            && self.bodies_version == engine.bodies.version()
            && self.schema_len == registry.len()
    }

    /// The lane assigned to `rule` (`None` for rules added after the
    /// matrix was built — treat as serial).
    pub fn lane(&self, rule: RuleId) -> Option<Lane> {
        self.lanes.get(&rule).copied()
    }

    /// The declared footprint of the rule at place `index` of the
    /// engine's rule table, if that place holds `rule` and `rule` is on
    /// the parallel lane: what the scheduler's worker shim verifies each
    /// of its firing's accesses against. `None` for a serial-lane rule,
    /// and for a place reused by another rule since the matrix was
    /// built.
    pub fn footprint(&self, index: usize, rule: RuleId) -> Option<&RuleFootprint> {
        self.footprints
            .get(index)?
            .as_ref()
            .filter(|fp| fp.rule == rule)
    }

    /// Deduplicated union of every parallel rule's declared write
    /// patterns. An attribute *outside* this set cannot be written by
    /// any concurrent firing, so reading it from a worker is always
    /// safe.
    pub fn shared_writes(&self) -> &[ResolvedPattern] {
        &self.shared_writes
    }

    /// Number of distinct conflict components among eligible rules.
    pub fn component_count(&self) -> u32 {
        self.components
    }

    /// Number of rules eligible for the parallel lane.
    pub fn parallel_rules(&self) -> usize {
        self.parallel_rules
    }

    /// Number of rules confined to the serial path (including disabled
    /// ones).
    pub fn serial_rules(&self) -> usize {
        self.lanes.len() - self.parallel_rules
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_events::{EventExpr, PrimitiveEventSpec};
    use sentinel_object::{ClassDecl, ClassRegistry, Oid};
    use sentinel_rules::{ActionDef, ActionEffects, RuleDef};

    fn registry() -> ClassRegistry {
        let mut reg = ClassRegistry::new();
        reg.define(
            ClassDecl::reactive("Account")
                .method("Deposit", &[])
                .method("Audit", &[]),
        )
        .unwrap();
        reg.define(ClassDecl::reactive("Savings").parent("Account"))
            .unwrap();
        reg.define(ClassDecl::reactive("Ledger").method("Post", &[]))
            .unwrap();
        reg
    }

    fn deferred_rule(name: &str, class: &str, method: &str, action: &str) -> RuleDef {
        RuleDef::new(
            name,
            EventExpr::primitive(PrimitiveEventSpec::end(class, method)),
            action,
        )
        .coupling(CouplingMode::Deferred)
    }

    fn engine(_reg: &ClassRegistry) -> RuleEngine {
        let mut eng = RuleEngine::new();
        eng.bodies
            .register_def(
                ActionDef::new("w-balance")
                    .writes(("Account", "balance"))
                    .body(|_, _| Ok(())),
            )
            .unwrap();
        eng.bodies
            .register_def(
                ActionDef::new("w-savings-balance")
                    .writes(("Savings", "balance"))
                    .body(|_, _| Ok(())),
            )
            .unwrap();
        eng.bodies
            .register_def(
                ActionDef::new("w-total")
                    .writes(("Ledger", "total"))
                    .body(|_, _| Ok(())),
            )
            .unwrap();
        eng.bodies.register_action("opaque", |_, _| Ok(()));
        eng.bodies.register_action_with_effects(
            "raiser",
            ActionEffects::none().raising("Account", "Audit"),
            |_, _| Ok(()),
        );
        eng.bodies.register_action_with_effects(
            "blind-reader",
            ActionEffects::none()
                .writing("Ledger", "total")
                .reads_unknown(),
            |_, _| Ok(()),
        );
        eng.bodies
            .register_def(
                ActionDef::new("r-balance-w-total")
                    .writes(("Ledger", "total"))
                    .reads(("Account", "balance"))
                    .body(|_, _| Ok(())),
            )
            .unwrap();
        eng
    }

    #[test]
    fn overlapping_writes_share_a_component() {
        let reg = registry();
        let mut eng = engine(&reg);
        let a = eng
            .add_rule(
                deferred_rule("A", "Account", "Deposit", "w-balance"),
                Oid::NIL,
                &reg,
            )
            .unwrap();
        // Subclass-related class, same attribute: conflicts with A.
        let b = eng
            .add_rule(
                deferred_rule("B", "Account", "Deposit", "w-savings-balance"),
                Oid::NIL,
                &reg,
            )
            .unwrap();
        // Disjoint class/attribute: its own component.
        let c = eng
            .add_rule(
                deferred_rule("C", "Ledger", "Post", "w-total"),
                Oid::NIL,
                &reg,
            )
            .unwrap();
        let m = ConflictMatrix::build(&reg, &eng);
        assert_eq!(m.component_count(), 2);
        assert_eq!(m.parallel_rules(), 3);
        let comp = |r| match m.lane(r) {
            Some(Lane::Parallel { component }) => component,
            other => panic!("expected parallel lane, got {other:?}"),
        };
        assert_eq!(comp(a), comp(b));
        assert_ne!(comp(a), comp(c));
    }

    #[test]
    fn read_write_overlap_unions_components() {
        let reg = registry();
        let mut eng = engine(&reg);
        // A writes Account.balance; R writes Ledger.total but *reads*
        // Account.balance — running them concurrently would let R's
        // reads observe worker interleaving, so they must share a
        // component despite disjoint write-sets.
        let a = eng
            .add_rule(
                deferred_rule("A", "Account", "Deposit", "w-balance"),
                Oid::NIL,
                &reg,
            )
            .unwrap();
        let r = eng
            .add_rule(
                deferred_rule("R", "Ledger", "Post", "r-balance-w-total"),
                Oid::NIL,
                &reg,
            )
            .unwrap();
        let m = ConflictMatrix::build(&reg, &eng);
        assert_eq!(m.component_count(), 1);
        let comp = |r| match m.lane(r) {
            Some(Lane::Parallel { component }) => component,
            other => panic!("expected parallel lane, got {other:?}"),
        };
        assert_eq!(comp(a), comp(r));
    }

    /// `rule`'s place in the engine's rule table.
    fn place_of(eng: &RuleEngine, rule: RuleId) -> Option<usize> {
        eng.iter_rules_indexed()
            .find(|(_, r)| r.id == rule)
            .map(|(i, _)| i)
    }

    /// The footprint the matrix holds for `rule`, looked up at the
    /// rule's place in the engine's table.
    fn footprint_of<'m>(
        m: &'m ConflictMatrix,
        eng: &RuleEngine,
        rule: RuleId,
    ) -> Option<&'m RuleFootprint> {
        m.footprint(place_of(eng, rule)?, rule)
    }

    #[test]
    fn undeclared_read_set_is_serial() {
        let reg = registry();
        let mut eng = engine(&reg);
        let b = eng
            .add_rule(
                deferred_rule("Blind", "Ledger", "Post", "blind-reader"),
                Oid::NIL,
                &reg,
            )
            .unwrap();
        let m = ConflictMatrix::build(&reg, &eng);
        assert_eq!(m.lane(b), Some(Lane::Serial(SerialReason::UnknownReads)));
        assert!(footprint_of(&m, &eng, b).is_none());
    }

    #[test]
    fn footprints_cover_reads_and_writes() {
        let reg = registry();
        let mut eng = engine(&reg);
        let r = eng
            .add_rule(
                deferred_rule("R", "Ledger", "Post", "r-balance-w-total"),
                Oid::NIL,
                &reg,
            )
            .unwrap();
        let m = ConflictMatrix::build(&reg, &eng);
        let fp = footprint_of(&m, &eng, r).expect("parallel rule");
        let resolved = |class, attr| ResolvedPattern::resolve(&reg, &AttrPattern::new(class, attr));
        assert_eq!(fp.writes, [resolved("Ledger", "total")]);
        // Full read-set = writes ∪ declared reads.
        assert!(fp.reads.contains(&resolved("Ledger", "total")));
        assert!(fp.reads.contains(&resolved("Account", "balance")));
        assert!(m.shared_writes().contains(&resolved("Ledger", "total")));
        // A resolved pattern closes over subclasses in both directions.
        let account = reg.id_of("Account").unwrap();
        let savings = reg.id_of("Savings").unwrap();
        let ledger = reg.id_of("Ledger").unwrap();
        let p = resolved("Account", "balance");
        assert!(p.matches(savings, "balance"));
        assert!(!p.matches(savings, "total"));
        assert!(!p.matches(ledger, "balance"));
        assert!(resolved("Savings", "balance").matches(account, "balance"));
        // A class the schema does not know matches nothing.
        assert!(!resolved("Nowhere", "balance").matches(account, "balance"));
    }

    #[test]
    fn ineligible_rules_get_serial_reasons() {
        let reg = registry();
        let mut eng = engine(&reg);
        let imm = eng
            .add_rule(
                RuleDef::new(
                    "Imm",
                    EventExpr::primitive(PrimitiveEventSpec::end("Account", "Deposit")),
                    "w-balance",
                ),
                Oid::NIL,
                &reg,
            )
            .unwrap();
        let unk = eng
            .add_rule(
                deferred_rule("Unk", "Account", "Deposit", "opaque"),
                Oid::NIL,
                &reg,
            )
            .unwrap();
        let rai = eng
            .add_rule(
                deferred_rule("Rai", "Account", "Deposit", "raiser"),
                Oid::NIL,
                &reg,
            )
            .unwrap();
        let dis = eng
            .add_rule(
                deferred_rule("Dis", "Ledger", "Post", "w-total"),
                Oid::NIL,
                &reg,
            )
            .unwrap();
        eng.disable(dis).unwrap();
        let m = ConflictMatrix::build(&reg, &eng);
        assert_eq!(
            m.lane(imm),
            Some(Lane::Serial(SerialReason::ImmediateCoupling))
        );
        assert_eq!(
            m.lane(unk),
            Some(Lane::Serial(SerialReason::UnknownEffects))
        );
        assert_eq!(m.lane(rai), Some(Lane::Serial(SerialReason::RaisesEvents)));
        assert_eq!(m.lane(dis), Some(Lane::Serial(SerialReason::Disabled)));
        assert_eq!(m.parallel_rules(), 0);
        assert_eq!(m.serial_rules(), 4);
    }

    #[test]
    fn freshness_tracks_rule_set_and_effects_changes() {
        let reg = registry();
        let mut eng = engine(&reg);
        eng.add_rule(
            deferred_rule("A", "Account", "Deposit", "w-balance"),
            Oid::NIL,
            &reg,
        )
        .unwrap();
        let m = ConflictMatrix::build(&reg, &eng);
        assert!(m.is_fresh(&reg, &eng));
        // Adding a rule bumps the epoch.
        eng.add_rule(
            deferred_rule("B", "Ledger", "Post", "w-total"),
            Oid::NIL,
            &reg,
        )
        .unwrap();
        assert!(!m.is_fresh(&reg, &eng));
        // Re-declaring effects bumps the body-registry version.
        let m = ConflictMatrix::build(&reg, &eng);
        assert!(m.is_fresh(&reg, &eng));
        eng.bodies
            .declare_action_effects("w-total", ActionEffects::none())
            .unwrap();
        assert!(!m.is_fresh(&reg, &eng));
    }

    #[test]
    fn footprints_cover_exactly_the_parallel_rules() {
        let reg = registry();
        let mut eng = engine(&reg);
        let a = eng
            .add_rule(
                deferred_rule("A", "Account", "Deposit", "w-balance"),
                Oid::NIL,
                &reg,
            )
            .unwrap();
        let u = eng
            .add_rule(
                deferred_rule("U", "Account", "Deposit", "opaque"),
                Oid::NIL,
                &reg,
            )
            .unwrap();
        let m = ConflictMatrix::build(&reg, &eng);
        assert!(footprint_of(&m, &eng, a).is_some());
        assert!(footprint_of(&m, &eng, u).is_none());
        // A place reused by a rule added after the build is not trusted.
        let index = place_of(&eng, a).unwrap();
        eng.remove_rule(a).unwrap();
        let b = eng
            .add_rule(
                deferred_rule("B", "Account", "Deposit", "w-balance"),
                Oid::NIL,
                &reg,
            )
            .unwrap();
        assert_eq!(place_of(&eng, b), Some(index));
        assert!(m.footprint(index, b).is_none());
    }
}
