//! The rule-set analyzer: builds the triggering graph and runs every
//! lint, producing an [`AnalysisReport`].

use crate::conflict::attrs_overlap;
use crate::diagnostic::{DiagCode, Diagnostic, Severity};
use crate::graph::{EdgeKind, GraphEdge, GraphNode, TriggeringGraph};
use crate::termination::{self, RuleFacts, TerminationReport, Verdict};
use sentinel_events::{sym_alphabet, EventExpr, EventModifier};
use sentinel_object::{ClassId, ClassRegistry, EventSym, ObjectError, Oid, Reactivity, Result};
use sentinel_rules::{ActionEffects, CouplingMode, Rule, RuleEngine, ACTION_ABORT, COND_TRUE};
use serde::Serialize;
use std::collections::{BTreeSet, HashMap};

/// Static analysis over a compiled schema + rule set + subscription
/// table.
///
/// `object_classes` maps object-level subscription targets to their
/// dynamic class; the database supplies it (the engine stores only
/// oids). Targets missing from the map are treated as delivering no
/// events.
pub struct RuleAnalyzer<'a> {
    registry: &'a ClassRegistry,
    engine: &'a RuleEngine,
    object_classes: HashMap<Oid, ClassId>,
    /// The runtime `max_cascade_depth`, when known: proven bounds that
    /// reach it are reported as errors (the cascade is doomed to abort).
    cascade_limit: Option<usize>,
}

/// Everything the lints need per rule, precomputed once.
struct RuleInfo<'a> {
    rule: &'a Rule,
    name: String,
    /// `None` = unbounded (expression contains `Plus`).
    alphabet: Option<Vec<EventSym>>,
    n_subs: usize,
    /// Symbols some subscription can deliver *and* the alphabet admits
    /// (for unbounded alphabets: everything deliverable).
    audible: BTreeSet<EventSym>,
    /// Declared action effects; `None` = unknown.
    effects: Option<ActionEffects>,
    /// Symbols the action can raise per its declaration; `None` =
    /// unknown (conservative).
    raised: Option<BTreeSet<EventSym>>,
}

impl<'a> RuleAnalyzer<'a> {
    /// Analyzer over `engine`'s rules against `registry`'s schema, with
    /// no object-class information (object-level subscriptions deliver
    /// nothing; fine for class-level rule sets and unit tests).
    pub fn new(registry: &'a ClassRegistry, engine: &'a RuleEngine) -> Self {
        RuleAnalyzer {
            registry,
            engine,
            object_classes: HashMap::new(),
            cascade_limit: None,
        }
    }

    /// Provide the dynamic class of object-level subscription targets.
    pub fn with_object_classes(mut self, map: HashMap<Oid, ClassId>) -> Self {
        self.object_classes = map;
        self
    }

    /// Provide the runtime cascade-depth limit. With it set, any rule
    /// whose proven static bound reaches the limit gets a
    /// `cascade-bound-exceeds-limit` error: its worst-case cascade is
    /// doomed to hit the runtime kill-switch and abort.
    pub fn with_cascade_limit(mut self, limit: usize) -> Self {
        self.cascade_limit = Some(limit);
        self
    }

    /// Run every check and return the report.
    pub fn analyze(&self) -> AnalysisReport {
        let mut rules: Vec<&Rule> = self.engine.iter_rules().collect();
        rules.sort_by(|a, b| a.name.cmp(&b.name));
        let infos: Vec<RuleInfo<'_>> = rules.iter().map(|r| self.rule_info(r)).collect();

        let graph = self.build_graph(&infos);
        let mut diagnostics = Vec::new();
        self.lint_bodies(&infos, &mut diagnostics);
        self.lint_reachability(&infos, &mut diagnostics);
        self.lint_shadowing(&infos, &mut diagnostics);
        self.lint_confluence(&infos, &mut diagnostics);
        self.lint_disabled_forever(&infos, &mut diagnostics);
        for info in &infos {
            self.lint_expr(&info.name, &info.rule.def.event, &mut diagnostics);
        }
        let termination = self.prove_termination(&infos, &graph, &mut diagnostics);
        self.lint_cycles(&graph, &termination, &mut diagnostics);

        let mut report = AnalysisReport {
            diagnostics,
            graph,
            termination,
        };
        report.resort();
        report
    }

    /// Run the termination prover and fold its findings into the
    /// diagnostics: an info per discharged cycle, a warning per
    /// undischarged cycle, and (when the cascade limit is known) an
    /// error for every proven bound that is doomed to hit it.
    fn prove_termination(
        &self,
        infos: &[RuleInfo<'_>],
        graph: &TriggeringGraph,
        out: &mut Vec<Diagnostic>,
    ) -> TerminationReport {
        let facts: Vec<RuleFacts> = infos
            .iter()
            .map(|info| RuleFacts {
                rule: info.name.clone(),
                condition_trivial: info.rule.def.condition == COND_TRUE,
                reads_known: info.effects.as_ref().is_some_and(|fx| fx.reads.is_some()),
                raises_known: info.raised.is_some(),
                abort_shadowed: self.abort_blocker(infos, info).is_some(),
                timer_gated: info.rule.def.event.timer_gated(),
            })
            .collect();
        let feedback: Vec<Vec<bool>> = infos
            .iter()
            .map(|from| {
                infos
                    .iter()
                    .map(|to| self.writes_feed_reads(from, to))
                    .collect()
            })
            .collect();
        let termination = termination::prove(graph, &facts, &feedback);

        for c in &termination.discharged {
            let ring = c
                .members
                .iter()
                .map(|n| format!("`{n}`"))
                .collect::<Vec<_>>()
                .join(" -> ");
            out.push(Diagnostic::new(
                DiagCode::CycleDischarged,
                Some(c.witness.clone()),
                format!(
                    "triggering cycle {ring} is discharged by `{}` ({}): it \
                     cannot sustain an unbounded cascade",
                    c.witness,
                    c.reason.as_str()
                ),
            ));
        }
        for c in &termination.undischarged {
            let ring = c
                .members
                .iter()
                .map(|n| format!("`{n}`"))
                .collect::<Vec<_>>()
                .join(" -> ");
            out.push(Diagnostic::new(
                DiagCode::UnprovenTermination,
                Some(c.members[0].clone()),
                format!(
                    "no discharge proof found for triggering cycle {ring}; \
                     termination is not guaranteed (declare read/write/raise \
                     effects, add a non-trivial condition, or break the loop)"
                ),
            ));
        }
        if let Some(limit) = self.cascade_limit {
            for v in &termination.verdicts {
                if let Verdict::Proven(bound) = v.verdict {
                    if bound as usize >= limit {
                        out.push(Diagnostic::new(
                            DiagCode::CascadeBoundExceedsLimit,
                            Some(v.rule.clone()),
                            format!(
                                "static cascade bound {bound} reaches the \
                                 runtime limit (max_cascade_depth = {limit} \
                                 permits lineage depths 0..={}); a worst-case \
                                 cascade from this rule aborts at runtime",
                                limit - 1
                            ),
                        ));
                    }
                }
            }
        }
        termination
    }

    /// May `from`'s declared writes overlap `to`'s full read-set
    /// (declared reads plus its own writes, which are always readable)?
    /// Unknown effects on either side answer `true` — this is
    /// may-analysis; only a declared-empty intersection refutes.
    fn writes_feed_reads(&self, from: &RuleInfo<'_>, to: &RuleInfo<'_>) -> bool {
        let Some(ffx) = &from.effects else {
            return true;
        };
        if ffx.writes.is_empty() {
            return false;
        }
        let Some(tfx) = &to.effects else {
            return true;
        };
        let Some(reads) = &tfx.reads else {
            return true;
        };
        ffx.writes.iter().any(|w| {
            tfx.writes
                .iter()
                .chain(reads.iter())
                .any(|r| attrs_overlap(self.registry, w, r))
        })
    }

    /// Can instances of the symbol's class emit events at all?
    fn emittable(&self, sym: EventSym) -> bool {
        let info = self.registry.sym_info(sym);
        self.registry.get(info.class).reactivity == Reactivity::Reactive
    }

    /// `Class::method (begin|end)` for a symbol.
    fn sym_desc(&self, sym: EventSym) -> String {
        let info = self.registry.sym_info(sym);
        format!(
            "{}::{} ({})",
            self.registry.get(info.class).name,
            info.method,
            if info.end { "end" } else { "begin" }
        )
    }

    /// Symbols one subscription target can put in front of the rule.
    fn delivered_by_class(&self, class: ClassId) -> BTreeSet<EventSym> {
        (0..self.registry.sym_count())
            .map(|i| EventSym(i as u32))
            .filter(|&s| self.emittable(s))
            .filter(|&s| {
                self.registry
                    .is_subclass(self.registry.sym_info(s).class, class)
            })
            .collect()
    }

    fn delivered_by_object(&self, oid: Oid) -> BTreeSet<EventSym> {
        let Some(&class) = self.object_classes.get(&oid) else {
            return BTreeSet::new();
        };
        (0..self.registry.sym_count())
            .map(|i| EventSym(i as u32))
            .filter(|&s| self.emittable(s))
            // An object-level target pins the dynamic class exactly: a
            // subscription to a `Savings` object never sees `Account`
            // symbols, because occurrences carry the dynamic class.
            .filter(|&s| self.registry.sym_info(s).class == class)
            .collect()
    }

    fn rule_info(&self, rule: &'a Rule) -> RuleInfo<'a> {
        let alphabet = rule.def.event.alphabet(self.registry);
        let objects = self.engine.subscriptions.objects_of(rule.id);
        let classes = self.engine.subscriptions.classes_of(rule.id);
        let mut delivered: BTreeSet<EventSym> = BTreeSet::new();
        for &c in &classes {
            delivered.extend(self.delivered_by_class(c));
        }
        for &o in &objects {
            delivered.extend(self.delivered_by_object(o));
        }
        let audible = match &alphabet {
            Some(a) => delivered
                .iter()
                .copied()
                .filter(|s| a.contains(s))
                .collect(),
            None => delivered,
        };
        let effects = self.engine.bodies.action_effects(&rule.def.action).cloned();
        let raised = effects.as_ref().map(|fx| {
            let mut syms = BTreeSet::new();
            for p in &fx.raises {
                if let Ok(cid) = self.registry.id_of(&p.class) {
                    for m in [EventModifier::Begin, EventModifier::End] {
                        syms.extend(
                            sym_alphabet(self.registry, cid, &p.method, m)
                                .into_iter()
                                .filter(|&s| self.emittable(s)),
                        );
                    }
                }
            }
            syms
        });
        RuleInfo {
            rule,
            name: rule.name.to_string(),
            alphabet,
            n_subs: objects.len() + classes.len(),
            audible,
            effects,
            raised,
        }
    }

    /// Build the refined triggering graph. For each ordered rule pair
    /// the edge lands on the refinement lattice:
    ///
    /// - **definite** — the source's declared raises intersect the
    ///   target's audible alphabet;
    /// - **conservative** — the source's effects are undeclared ("may
    ///   raise anything"), or its raises provably miss but its declared
    ///   writes may touch the target's read-set (data feedback: the
    ///   write can re-enable the target's condition);
    /// - **refuted** — the source declared its effects, raises nothing
    ///   audible, and writes nothing the target reads: the pair is
    ///   provably independent. Recorded so the pruning is auditable,
    ///   except when the source's declared effects are completely empty
    ///   (a pure action refutes *every* pair — recording the full fan
    ///   of trivial refutations would only be noise).
    fn build_graph(&self, infos: &[RuleInfo<'_>]) -> TriggeringGraph {
        let nodes = infos
            .iter()
            .map(|i| GraphNode {
                rule: i.name.clone(),
                coupling: i.rule.def.coupling,
                enabled: i.rule.enabled,
            })
            .collect();
        let mut edges = Vec::new();
        for (i, from) in infos.iter().enumerate() {
            if !from.rule.enabled {
                continue;
            }
            for (j, to) in infos.iter().enumerate() {
                if !to.rule.enabled || to.audible.is_empty() {
                    continue;
                }
                match &from.raised {
                    Some(raised) => {
                        if let Some(&sym) = raised.intersection(&to.audible).next() {
                            edges.push(GraphEdge {
                                from: i,
                                to: j,
                                kind: EdgeKind::Definite,
                                via: self.sym_desc(sym),
                            });
                        } else if self.writes_feed_reads(from, to) {
                            let fx = from.effects.as_ref().expect("raised implies effects");
                            let attr = fx.writes.first().map(|w| w.to_string()).unwrap_or_default();
                            edges.push(GraphEdge {
                                from: i,
                                to: j,
                                kind: EdgeKind::Conservative,
                                via: format!("data feedback: writes {attr}"),
                            });
                        } else {
                            let fx = from.effects.as_ref().expect("raised implies effects");
                            if fx.raises.is_empty() && fx.writes.is_empty() {
                                continue; // pure action: skip the trivial refutation
                            }
                            edges.push(GraphEdge {
                                from: i,
                                to: j,
                                kind: EdgeKind::Refuted,
                                via: "refuted: raises miss the alphabet, writes miss the read-set"
                                    .into(),
                            });
                        }
                    }
                    None => edges.push(GraphEdge {
                        from: i,
                        to: j,
                        kind: EdgeKind::Conservative,
                        via: "effects unknown".into(),
                    }),
                }
            }
        }
        TriggeringGraph { nodes, edges }
    }

    fn lint_bodies(&self, infos: &[RuleInfo<'_>], out: &mut Vec<Diagnostic>) {
        for info in infos {
            let def = &info.rule.def;
            let mut missing = false;
            if !self.engine.bodies.has_condition(&def.condition) {
                missing = true;
                out.push(Diagnostic::new(
                    DiagCode::UnregisteredBody,
                    Some(info.name.clone()),
                    format!("condition body `{}` is not registered", def.condition),
                ));
            }
            if !self.engine.bodies.has_action(&def.action) {
                missing = true;
                out.push(Diagnostic::new(
                    DiagCode::UnregisteredBody,
                    Some(info.name.clone()),
                    format!("action body `{}` is not registered", def.action),
                ));
            }
            if info.rule.enabled && info.effects.is_none() && !missing {
                out.push(Diagnostic::new(
                    DiagCode::UnknownEffects,
                    Some(info.name.clone()),
                    format!(
                        "action `{}` has no declared effects; the analyzer \
                         assumes it may raise anything (declare ActionEffects \
                         at registration for precise edges)",
                        def.action
                    ),
                ));
            }
        }
    }

    fn lint_reachability(&self, infos: &[RuleInfo<'_>], out: &mut Vec<Diagnostic>) {
        for info in infos {
            if !info.rule.enabled {
                continue;
            }
            if info.n_subs == 0 {
                // Timer leaves are delivered by the wheel, not by
                // subscriptions: a rule with one can trigger anyway.
                if !info.rule.def.event.has_timers() {
                    out.push(Diagnostic::new(
                        DiagCode::NoSubscription,
                        Some(info.name.clone()),
                        "rule has no subscriptions, so it can never trigger \
                         (subscribe an object or class to it)",
                    ));
                }
                continue;
            }
            // An empty-but-bounded alphabet (the event names only
            // undeclared methods) is unreachable too: no leaf matches a
            // symbol-less occurrence.
            if info.audible.is_empty() && !info.rule.def.event.has_timers() {
                out.push(Diagnostic::new(
                    DiagCode::UnreachableRule,
                    Some(info.name.clone()),
                    "no subscribed target can emit any event in the rule's \
                     alphabet; the rule can never trigger",
                ));
                continue;
            }
            // Per-target deafness: the rule is reachable, but one of its
            // subscriptions contributes nothing.
            for &c in &self.engine.subscriptions.classes_of(info.rule.id) {
                let contrib = self.delivered_by_class(c);
                if self.target_is_deaf(&contrib, &info.alphabet) {
                    out.push(Diagnostic::new(
                        DiagCode::DeafSubscription,
                        Some(info.name.clone()),
                        format!(
                            "class-level subscription to `{}` delivers no \
                             event in the rule's alphabet",
                            self.registry.get(c).name
                        ),
                    ));
                }
            }
            for &o in &self.engine.subscriptions.objects_of(info.rule.id) {
                let contrib = self.delivered_by_object(o);
                if self.target_is_deaf(&contrib, &info.alphabet) {
                    out.push(Diagnostic::new(
                        DiagCode::DeafSubscription,
                        Some(info.name.clone()),
                        format!(
                            "subscription to object {o} delivers no event in \
                             the rule's alphabet"
                        ),
                    ));
                }
            }
        }
    }

    fn target_is_deaf(
        &self,
        contrib: &BTreeSet<EventSym>,
        alphabet: &Option<Vec<EventSym>>,
    ) -> bool {
        match alphabet {
            Some(a) => !contrib.iter().any(|s| a.contains(s)),
            None => contrib.is_empty(),
        }
    }

    /// The rule (if any) that abort-shadows `shadowed`: enabled,
    /// unconditional Immediate abort at higher priority whose audible
    /// set covers every event that can trigger `shadowed`. Shared
    /// between the `shadowed-by-abort` lint and the termination
    /// prover's abort-shadow discharge predicate.
    fn abort_blocker<'b>(
        &self,
        infos: &'b [RuleInfo<'a>],
        shadowed: &RuleInfo<'a>,
    ) -> Option<&'b RuleInfo<'a>> {
        if !shadowed.rule.enabled || shadowed.audible.is_empty() {
            return None;
        }
        infos.iter().find(|blocker| {
            blocker.rule.enabled
                && blocker.rule.id != shadowed.rule.id
                && blocker.rule.def.action == ACTION_ABORT
                && blocker.rule.def.condition == COND_TRUE
                && blocker.rule.def.coupling == CouplingMode::Immediate
                && blocker.rule.def.priority > shadowed.rule.def.priority
                && shadowed.audible.is_subset(&blocker.audible)
        })
    }

    fn lint_shadowing(&self, infos: &[RuleInfo<'_>], out: &mut Vec<Diagnostic>) {
        for shadowed in infos {
            if shadowed.rule.def.action == ACTION_ABORT {
                continue; // two unconditional aborts shadowing each other is moot
            }
            if let Some(blocker) = self.abort_blocker(infos, shadowed) {
                out.push(Diagnostic::new(
                    DiagCode::ShadowedByAbort,
                    Some(shadowed.name.clone()),
                    format!(
                        "every event that can trigger this rule also \
                         triggers higher-priority rule `{}`, which \
                         unconditionally aborts first",
                        blocker.name
                    ),
                ));
            }
        }
    }

    fn lint_confluence(&self, infos: &[RuleInfo<'_>], out: &mut Vec<Diagnostic>) {
        for (i, a) in infos.iter().enumerate() {
            for b in infos.iter().skip(i + 1) {
                if !a.rule.enabled
                    || !b.rule.enabled
                    || a.rule.def.priority != b.rule.def.priority
                    || a.audible.intersection(&b.audible).next().is_none()
                {
                    continue;
                }
                let (Some(fa), Some(fb)) = (&a.effects, &b.effects) else {
                    continue; // unknown effects already carry an info lint
                };
                let overlap = fa.writes.iter().find(|wa| {
                    fb.writes.iter().any(|wb| {
                        wa.attr == wb.attr
                            && (self.class_covers(&wa.class, &wb.class)
                                || self.class_covers(&wb.class, &wa.class))
                    })
                });
                if let Some(w) = overlap {
                    out.push(Diagnostic::new(
                        DiagCode::NonConfluent,
                        Some(a.name.clone()),
                        format!(
                            "rules `{}` and `{}` share priority {}, can \
                             trigger on the same occurrence, and both write \
                             `{}`; the final value depends on execution order",
                            a.name, b.name, a.rule.def.priority, w
                        ),
                    ));
                }
            }
        }
    }

    fn class_covers(&self, declared: &str, observed: &str) -> bool {
        match (self.registry.id_of(declared), self.registry.id_of(observed)) {
            (Ok(sup), Ok(sub)) => self.registry.is_subclass(sub, sup),
            _ => declared == observed,
        }
    }

    fn lint_disabled_forever(&self, infos: &[RuleInfo<'_>], out: &mut Vec<Diagnostic>) {
        let any_unknown = infos.iter().any(|i| i.rule.enabled && i.raised.is_none());
        if any_unknown {
            return; // an unknown action may re-enable anything
        }
        // A rule is re-enabled by sending it `Enable` or by writing its
        // `enabled` slot, which is the flag itself.
        let rule_meta = self.registry.id_of("Rule").ok();
        let enabler_exists = infos.iter().filter(|i| i.rule.enabled).any(|i| {
            let sends_enable = i.raised.iter().flatten().any(|&s| {
                let si = self.registry.sym_info(s);
                si.method == "Enable"
                    && rule_meta.is_none_or(|rm| self.registry.is_subclass(si.class, rm))
            });
            let writes_enabled = i
                .effects
                .iter()
                .flat_map(|fx| &fx.writes)
                .any(|w| w.attr == "enabled" && self.class_covers(&w.class, "Rule"));
            sends_enable || writes_enabled
        });
        if enabler_exists {
            return;
        }
        for info in infos.iter().filter(|i| !i.rule.enabled) {
            out.push(Diagnostic::new(
                DiagCode::DisabledForever,
                Some(info.name.clone()),
                "rule is disabled and no enabled rule can re-enable it \
                 (only direct application calls could)",
            ));
        }
    }

    /// Well-formedness walk over one rule's event expression.
    fn lint_expr(&self, rule: &str, expr: &EventExpr, out: &mut Vec<Diagnostic>) {
        match expr {
            EventExpr::Primitive(_) => {}
            EventExpr::And(a, b) => {
                let left = a.primitives();
                let dup = b.primitives().into_iter().find(|p| left.contains(p));
                if let Some(p) = dup {
                    out.push(Diagnostic::new(
                        DiagCode::DupPrimitiveConjunction,
                        Some(rule.to_string()),
                        format!(
                            "conjunction lists `{p}` on both sides; one \
                             occurrence satisfies both operands"
                        ),
                    ));
                }
                self.lint_expr(rule, a, out);
                self.lint_expr(rule, b, out);
            }
            EventExpr::Or(a, b) => {
                self.lint_expr(rule, a, out);
                self.lint_expr(rule, b, out);
            }
            EventExpr::Seq(a, b) => {
                for (side, operand) in [("left", a), ("right", b)] {
                    if operand
                        .alphabet(self.registry)
                        .is_some_and(|syms| syms.is_empty())
                        && !operand.primitives().is_empty()
                    {
                        out.push(Diagnostic::new(
                            DiagCode::SeqDeadOperand,
                            Some(rule.to_string()),
                            format!(
                                "{side} operand `{operand}` has an empty \
                                 alphabet under the current schema; the \
                                 sequence can never complete through interned \
                                 events"
                            ),
                        ));
                    }
                }
                self.lint_expr(rule, a, out);
                self.lint_expr(rule, b, out);
            }
            EventExpr::Any { m, exprs } => {
                let mut seen: Vec<&sentinel_events::PrimitiveEventSpec> = Vec::new();
                for e in exprs {
                    for p in e.primitives() {
                        if seen.contains(&p) {
                            out.push(Diagnostic::new(
                                DiagCode::DupPrimitiveConjunction,
                                Some(rule.to_string()),
                                format!("any({m}, ...) lists `{p}` more than once"),
                            ));
                        } else {
                            seen.push(p);
                        }
                    }
                }
                for e in exprs {
                    self.lint_expr(rule, e, out);
                }
            }
            EventExpr::Not { watch, start, end } => {
                self.lint_expr(rule, watch, out);
                self.lint_expr(rule, start, out);
                self.lint_expr(rule, end, out);
            }
            EventExpr::Aperiodic { start, each, end } => {
                self.lint_expr(rule, start, out);
                self.lint_expr(rule, each, out);
                self.lint_expr(rule, end, out);
            }
            EventExpr::Times { expr, .. } => self.lint_expr(rule, expr, out),
            EventExpr::Plus { expr, delta } => {
                if *delta == 0 {
                    out.push(Diagnostic::new(
                        DiagCode::PlusZeroDeadline,
                        Some(rule.to_string()),
                        "plus() deadline of zero: equivalent to the operand \
                         alone, at the cost of unbounded event routing",
                    ));
                }
                self.lint_expr(rule, expr, out);
            }
            EventExpr::At { .. } => {}
            EventExpr::Every { period } => {
                if *period == 0 {
                    out.push(Diagnostic::new(
                        DiagCode::ZeroSpanTemporal,
                        Some(rule.to_string()),
                        "every(0): a zero period is clamped to one instant \
                         at schedule time, firing on every drain",
                    ));
                }
            }
            EventExpr::Within { expr, deadline } => {
                if *deadline == 0 {
                    out.push(Diagnostic::new(
                        DiagCode::ZeroSpanTemporal,
                        Some(rule.to_string()),
                        "within(0): only composites whose constituents all \
                         share one instant can ever complete",
                    ));
                }
                self.lint_expr(rule, expr, out);
            }
            EventExpr::Window { expr, size, .. } => {
                if *size == 0 {
                    out.push(Diagnostic::new(
                        DiagCode::ZeroSpanTemporal,
                        Some(rule.to_string()),
                        "window of size zero covers no instants; the operand \
                         is evicted as it arrives",
                    ));
                }
                self.lint_expr(rule, expr, out);
            }
            EventExpr::Aggregate {
                expr,
                size,
                threshold,
                ..
            } => {
                if *size == 0 {
                    out.push(Diagnostic::new(
                        DiagCode::ZeroSpanTemporal,
                        Some(rule.to_string()),
                        "aggregate over a zero-sized window sees no \
                         occurrences and can never reach its threshold",
                    ));
                }
                if *threshold <= 0 {
                    out.push(Diagnostic::new(
                        DiagCode::ZeroSpanTemporal,
                        Some(rule.to_string()),
                        format!(
                            "aggregate threshold {threshold} is satisfied by \
                             an empty window; the latch opens on the first \
                             operand occurrence and never re-arms"
                        ),
                    ));
                }
                self.lint_expr(rule, expr, out);
            }
        }
    }

    fn lint_cycles(
        &self,
        graph: &TriggeringGraph,
        termination: &TerminationReport,
        out: &mut Vec<Diagnostic>,
    ) {
        for cycle in graph.cycles() {
            let names: Vec<&str> = cycle
                .members
                .iter()
                .map(|&i| graph.nodes[i].rule.as_str())
                .collect();
            // A discharge proof supersedes the cycle warnings below: the
            // loop provably cannot sustain itself, and the
            // `cycle-discharged` info already reports it. Immediate
            // definite cycles stay errors regardless — even a shadowed
            // one recurses inside the triggering transaction.
            let discharged = termination.discharged.iter().any(|d| {
                d.members.len() == names.len() && {
                    let mut sorted = names.clone();
                    sorted.sort_unstable();
                    sorted.iter().zip(&d.members).all(|(a, b)| *a == b.as_str())
                }
            });
            let ring = if names.len() == 1 {
                format!("`{}` can retrigger itself", names[0])
            } else {
                format!(
                    "rules {} can trigger each other in a loop",
                    names
                        .iter()
                        .map(|n| format!("`{n}`"))
                        .collect::<Vec<_>>()
                        .join(" -> ")
                )
            };
            let first = names[0].to_string();
            if !cycle.definite {
                if discharged {
                    continue;
                }
                out.push(Diagnostic::new(
                    DiagCode::PotentialCycle,
                    Some(first),
                    format!(
                        "{ring} through conservative edges (undeclared \
                         effects or data feedback); declare ActionEffects to \
                         confirm or rule this out"
                    ),
                ));
            } else if cycle
                .members
                .iter()
                .any(|&i| graph.nodes[i].coupling == CouplingMode::Immediate)
            {
                out.push(Diagnostic::new(
                    DiagCode::ImmediateCycle,
                    Some(first),
                    format!(
                        "{ring}; at least one member is Immediate-coupled, so \
                         the cascade recurses inside the triggering \
                         transaction until the depth limit aborts it"
                    ),
                ));
            } else {
                if discharged {
                    continue;
                }
                out.push(Diagnostic::new(
                    DiagCode::DeferredCycle,
                    Some(first),
                    format!(
                        "{ring}; all members are Deferred/Detached, so each \
                         round is bounded but the rule set never quiesces"
                    ),
                ));
            }
        }
    }
}

/// The analyzer's output: every finding, the triggering graph, and the
/// termination verdicts.
#[derive(Debug, Clone, Serialize)]
pub struct AnalysisReport {
    /// Findings, sorted most severe first.
    pub diagnostics: Vec<Diagnostic>,
    /// The refined triggering graph (render with
    /// [`TriggeringGraph::to_dot`]).
    pub graph: TriggeringGraph,
    /// Per-rule termination verdicts and the cycle-discharge record.
    pub termination: TerminationReport,
}

impl AnalysisReport {
    /// Restore the severity-first sort order after appending findings
    /// (e.g. runtime effect-mismatch diffs).
    pub fn resort(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.code.cmp(&b.code))
                .then_with(|| a.rule.cmp(&b.rule))
                .then_with(|| a.message.cmp(&b.message))
        });
    }

    /// Any error-severity findings?
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// `"N errors, M warnings, K infos across R rules"`.
    pub fn summary(&self) -> String {
        format!(
            "{} errors, {} warnings, {} infos across {} rules",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
            self.graph.nodes.len()
        )
    }

    /// Fixed-width diagnostic table (the shell's `analyze` output).
    pub fn render_table(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        if self.diagnostics.is_empty() {
            s.push_str("no findings\n");
        } else {
            let rule_w = self
                .diagnostics
                .iter()
                .map(|d| d.rule.as_deref().unwrap_or("-").len())
                .max()
                .unwrap_or(1)
                .max(4);
            let code_w = self
                .diagnostics
                .iter()
                .map(|d| d.code.as_str().len())
                .max()
                .unwrap_or(4)
                .max(4);
            let _ = writeln!(
                s,
                "{:<8} {:<code_w$} {:<rule_w$} MESSAGE",
                "SEVERITY", "CODE", "RULE"
            );
            for d in &self.diagnostics {
                let _ = writeln!(
                    s,
                    "{:<8} {:<code_w$} {:<rule_w$} {}",
                    d.severity.to_string(),
                    d.code.as_str(),
                    d.rule.as_deref().unwrap_or("-"),
                    d.message
                );
            }
        }
        let refuted = self.graph.count(EdgeKind::Refuted);
        let live = self.graph.edges.len() - refuted;
        let _ = writeln!(
            s,
            "triggering graph: {} rules, {} edges ({} refuted) | termination: {} | {}",
            self.graph.nodes.len(),
            live,
            refuted,
            self.termination.summary(),
            self.summary()
        );
        s
    }

    /// DOT dump of the triggering graph.
    pub fn to_dot(&self) -> String {
        self.graph.to_dot()
    }

    /// The whole report as pretty-printed JSON — a stable schema for CI
    /// tooling: `diagnostics` (code/severity/rule/message), `graph`
    /// (nodes/edges with their refinement `kind`), and `termination`
    /// (verdicts/discharged/undischarged).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// The CI gate: `Err` listing every error-severity finding, `Ok`
    /// otherwise (warnings and infos pass).
    pub fn gate(&self) -> Result<()> {
        if !self.has_errors() {
            return Ok(());
        }
        let mut msg = String::from("rule-set analysis found errors:");
        for d in self.errors() {
            msg.push_str("\n  ");
            msg.push_str(&d.to_string());
        }
        Err(ObjectError::App(msg))
    }
}
