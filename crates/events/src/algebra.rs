//! The composite-event algebra (paper Figure 5 plus extensions).
//!
//! The paper supports three operators:
//!
//! * **conjunction** `E1 && E2` — signalled when both have occurred, in
//!   any order;
//! * **disjunction** `E1 || E2` — signalled when either occurs;
//! * **sequence** `E1 ; E2` — signalled when `E2` occurs after `E1`.
//!
//! The crate also implements three operators from the Snoop lineage that
//! the paper's group published subsequently; they are flagged as
//! *extensions*:
//!
//! * `any(m, [E...])` — m distinct members of the list have occurred;
//! * `not(W) in (S, E)` — `E` occurs after `S` with no `W` in between;
//! * `aperiodic(S, M, E)` — every `M` between an `S` and the next `E`.
//!
//! Five *temporal* operators put events on the real time axis supplied
//! by [`TimeSource`](crate::TimeSource) (DESIGN.md §19):
//!
//! * `at(t)` — an absolute timer, fired once at instant `t`;
//! * `every(p)` — a periodic timer, fired at `p`, `2p`, `3p`, …;
//! * `within(E, d)` — occurrences of `E` whose own interval fits in `d`
//!   (deadline-scoped composites; subsumes `plus`);
//! * `window(E, s)` — `E` observed through a sliding or tumbling window
//!   of `s` instants (expired operand state is evicted);
//! * `aggregate(count|sum(i) over E, s) >= k` — fires when the windowed
//!   count (or parameter sum) of `E` reaches the threshold.

use crate::spec::PrimitiveEventSpec;
use sentinel_object::{ClassRegistry, EventSym};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A composite event expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // operand fields are positional and described per variant
pub enum EventExpr {
    /// A primitive event (leaf).
    Primitive(PrimitiveEventSpec),
    /// Conjunction: both sides occur, any order.
    And(Box<EventExpr>, Box<EventExpr>),
    /// Disjunction: either side occurs.
    Or(Box<EventExpr>, Box<EventExpr>),
    /// Sequence: right side occurs strictly after the left side.
    Seq(Box<EventExpr>, Box<EventExpr>),
    /// Extension — `m` distinct members of `exprs` have occurred.
    Any { m: usize, exprs: Vec<EventExpr> },
    /// Extension — `end` occurs after `start` with no `watch` between.
    Not {
        watch: Box<EventExpr>,
        start: Box<EventExpr>,
        end: Box<EventExpr>,
    },
    /// Extension — every `each` between a `start` and the next `end`.
    Aperiodic {
        start: Box<EventExpr>,
        each: Box<EventExpr>,
        end: Box<EventExpr>,
    },
    /// Extension — every `n`-th occurrence of the operand (counting
    /// semantics; occurrences are consumed in arrival order).
    Times { n: usize, expr: Box<EventExpr> },
    /// Extension — `delta` logical-time units after an occurrence of
    /// the operand. Detection is lazy: it is signalled by the first
    /// subsequently delivered occurrence whose timestamp reaches the
    /// deadline (an event-driven stand-in for Snoop's timer events).
    Plus { expr: Box<EventExpr>, delta: u64 },
    /// Temporal — an absolute timer: fires once, at instant `at` on the
    /// time axis. Delivered by the engine's timer drain, not by any
    /// object's events (no routing key).
    At { at: u64 },
    /// Temporal — a periodic timer: fires at `period`, `2·period`, …
    /// on the time axis.
    Every { period: u64 },
    /// Temporal — deadline-scoped composites: occurrences of the
    /// operand whose own interval (`end - start`) is at most
    /// `deadline`. Operand state older than the deadline is evicted, so
    /// a never-completing composite cannot grow without bound.
    Within { expr: Box<EventExpr>, deadline: u64 },
    /// Temporal — the operand observed through a window of `size`
    /// instants: emissions pass through, and operand occurrences that
    /// fall out of the window (sliding) or behind the current window
    /// epoch (tumbling) are evicted.
    Window {
        expr: Box<EventExpr>,
        size: u64,
        tumbling: bool,
    },
    /// Temporal — windowed aggregation: fires when the aggregate of the
    /// operand's occurrences inside the window reaches `threshold`.
    Aggregate {
        expr: Box<EventExpr>,
        size: u64,
        tumbling: bool,
        agg: AggFn,
        threshold: i64,
    },
}

/// The aggregation function of [`EventExpr::Aggregate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggFn {
    /// Number of operand occurrences in the window.
    Count,
    /// Sum of the i-th parameter of each occurrence's completing
    /// constituent (integers and floats; floats truncate).
    Sum(usize),
}

impl fmt::Display for AggFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggFn::Count => f.write_str("count"),
            AggFn::Sum(i) => write!(f, "sum(p{i})"),
        }
    }
}

impl EventExpr {
    /// Leaf constructor from a spec.
    pub fn primitive(spec: PrimitiveEventSpec) -> Self {
        EventExpr::Primitive(spec)
    }

    /// `self && other` (paper's conjunction).
    pub fn and(self, other: EventExpr) -> Self {
        EventExpr::And(Box::new(self), Box::new(other))
    }

    /// `self || other` (paper's disjunction).
    pub fn or(self, other: EventExpr) -> Self {
        EventExpr::Or(Box::new(self), Box::new(other))
    }

    /// `self ; other` (paper's sequence).
    pub fn then(self, other: EventExpr) -> Self {
        EventExpr::Seq(Box::new(self), Box::new(other))
    }

    /// Extension constructor: `m` of the given events.
    pub fn any(m: usize, exprs: Vec<EventExpr>) -> Self {
        EventExpr::Any { m, exprs }
    }

    /// Extension constructor: non-occurrence of `watch` between `start`
    /// and `end`.
    pub fn not_between(watch: EventExpr, start: EventExpr, end: EventExpr) -> Self {
        EventExpr::Not {
            watch: Box::new(watch),
            start: Box::new(start),
            end: Box::new(end),
        }
    }

    /// Extension constructor: every `each` inside a `(start, end)` window.
    pub fn aperiodic(start: EventExpr, each: EventExpr, end: EventExpr) -> Self {
        EventExpr::Aperiodic {
            start: Box::new(start),
            each: Box::new(each),
            end: Box::new(end),
        }
    }

    /// Extension constructor: every `n`-th occurrence of `self`.
    pub fn times(self, n: usize) -> Self {
        EventExpr::Times {
            n,
            expr: Box::new(self),
        }
    }

    /// Extension constructor: `delta` logical ticks after `self`.
    pub fn plus(self, delta: u64) -> Self {
        EventExpr::Plus {
            expr: Box::new(self),
            delta,
        }
    }

    /// Temporal constructor: an absolute timer at instant `t`.
    pub fn at(t: u64) -> Self {
        EventExpr::At { at: t }
    }

    /// Temporal constructor: a periodic timer every `period` instants.
    pub fn every(period: u64) -> Self {
        EventExpr::Every { period }
    }

    /// Temporal constructor: occurrences of `self` completing within
    /// `deadline` time units of their first constituent.
    pub fn within(self, deadline: u64) -> Self {
        EventExpr::Within {
            expr: Box::new(self),
            deadline,
        }
    }

    /// Temporal constructor: `self` through a sliding window of `size`
    /// instants.
    pub fn sliding_window(self, size: u64) -> Self {
        EventExpr::Window {
            expr: Box::new(self),
            size,
            tumbling: false,
        }
    }

    /// Temporal constructor: `self` through a tumbling window of `size`
    /// instants (epochs aligned to multiples of `size`).
    pub fn tumbling_window(self, size: u64) -> Self {
        EventExpr::Window {
            expr: Box::new(self),
            size,
            tumbling: true,
        }
    }

    /// Temporal constructor: windowed aggregation of `self`.
    pub fn aggregate(self, size: u64, tumbling: bool, agg: AggFn, threshold: i64) -> Self {
        EventExpr::Aggregate {
            expr: Box::new(self),
            size,
            tumbling,
            agg,
            threshold,
        }
    }

    /// Convenience: `count(self) over a sliding window >= threshold`.
    pub fn count_within(self, size: u64, threshold: i64) -> Self {
        self.aggregate(size, false, AggFn::Count, threshold)
    }

    /// Convenience: `sum(param i of self) over a sliding window >=
    /// threshold`.
    pub fn sum_within(self, size: u64, param: usize, threshold: i64) -> Self {
        self.aggregate(size, false, AggFn::Sum(param), threshold)
    }

    /// All primitive specs referenced by this expression, in leaf order.
    pub fn primitives(&self) -> Vec<&PrimitiveEventSpec> {
        let mut out = Vec::new();
        self.collect_primitives(&mut out);
        out
    }

    fn collect_primitives<'a>(&'a self, out: &mut Vec<&'a PrimitiveEventSpec>) {
        match self {
            EventExpr::Primitive(s) => out.push(s),
            EventExpr::And(a, b) | EventExpr::Or(a, b) | EventExpr::Seq(a, b) => {
                a.collect_primitives(out);
                b.collect_primitives(out);
            }
            EventExpr::Any { exprs, .. } => {
                for e in exprs {
                    e.collect_primitives(out);
                }
            }
            EventExpr::Not { watch, start, end } => {
                watch.collect_primitives(out);
                start.collect_primitives(out);
                end.collect_primitives(out);
            }
            EventExpr::Aperiodic { start, each, end } => {
                start.collect_primitives(out);
                each.collect_primitives(out);
                end.collect_primitives(out);
            }
            EventExpr::Times { expr, .. } | EventExpr::Plus { expr, .. } => {
                expr.collect_primitives(out);
            }
            EventExpr::At { .. } | EventExpr::Every { .. } => {}
            EventExpr::Within { expr, .. }
            | EventExpr::Window { expr, .. }
            | EventExpr::Aggregate { expr, .. } => expr.collect_primitives(out),
        }
    }

    /// The timers this expression needs: `(due, period)` pairs —
    /// `(t, None)` per `at(t)`, `(p, Some(p))` per `every(p)` — in leaf
    /// order. The engine schedules them on the timer wheel when the
    /// owning rule is added or enabled.
    pub fn timer_specs(&self) -> Vec<(u64, Option<u64>)> {
        let mut out = Vec::new();
        self.collect_timers(&mut out);
        out
    }

    fn collect_timers(&self, out: &mut Vec<(u64, Option<u64>)>) {
        match self {
            EventExpr::Primitive(_) => {}
            EventExpr::At { at } => out.push((*at, None)),
            EventExpr::Every { period } => out.push((*period, Some(*period))),
            EventExpr::And(a, b) | EventExpr::Or(a, b) | EventExpr::Seq(a, b) => {
                a.collect_timers(out);
                b.collect_timers(out);
            }
            EventExpr::Any { exprs, .. } => {
                for e in exprs {
                    e.collect_timers(out);
                }
            }
            // Visit children in the same order the detector compiles
            // them, so a spec's index here is its delivery index.
            EventExpr::Not { watch, start, end } => {
                watch.collect_timers(out);
                start.collect_timers(out);
                end.collect_timers(out);
            }
            EventExpr::Aperiodic { start, each, end } => {
                start.collect_timers(out);
                each.collect_timers(out);
                end.collect_timers(out);
            }
            EventExpr::Times { expr, .. }
            | EventExpr::Plus { expr, .. }
            | EventExpr::Within { expr, .. }
            | EventExpr::Window { expr, .. }
            | EventExpr::Aggregate { expr, .. } => expr.collect_timers(out),
        }
    }

    /// `true` when the expression contains a timer operator (`at` /
    /// `every`) anywhere.
    pub fn has_timers(&self) -> bool {
        !self.timer_specs().is_empty()
    }

    /// `true` when every emission of this expression requires at least
    /// one timer constituent: the expression can fire at most once per
    /// timer tick, so its cascades are bounded per-window rather than
    /// per-event. The termination prover uses this to discharge cycles
    /// through periodic rules.
    pub fn timer_gated(&self) -> bool {
        match self {
            EventExpr::Primitive(_) => false,
            EventExpr::At { .. } | EventExpr::Every { .. } => true,
            // A conjunction/sequence emission contains both operands: one
            // gated side gates the whole emission.
            EventExpr::And(a, b) | EventExpr::Seq(a, b) => a.timer_gated() || b.timer_gated(),
            // A disjunction emission contains either side: both must gate.
            EventExpr::Or(a, b) => a.timer_gated() && b.timer_gated(),
            // An any(m, ...) emission picks m members: it is gated only
            // when fewer than m members are ungated.
            EventExpr::Any { m, exprs } => exprs.iter().filter(|e| !e.timer_gated()).count() < *m,
            // Not/Aperiodic emissions are completed by `end` / `each`.
            EventExpr::Not { end, .. } => end.timer_gated(),
            EventExpr::Aperiodic { each, .. } => each.timer_gated(),
            EventExpr::Times { expr, .. }
            | EventExpr::Plus { expr, .. }
            | EventExpr::Within { expr, .. }
            | EventExpr::Window { expr, .. }
            | EventExpr::Aggregate { expr, .. } => expr.timer_gated(),
        }
    }

    /// The expression's primitive-event *alphabet*: the sorted, deduped
    /// set of interned [`EventSym`]s any leaf can consume, closed over
    /// subclass linearizations. `None` means the alphabet is unbounded:
    /// a `Plus` operand uses a lazy timer whose deadline is signalled by
    /// the *first subsequently delivered occurrence of any kind*, so an
    /// expression containing `Plus` must be routed every event its
    /// producers raise, not just alphabet members. Timer operators
    /// (`at` / `every`) poison the alphabet the same way: a timer-
    /// bearing rule sits in the engine's broad routing tables so every
    /// delivered occurrence advances its windows and deadlines.
    pub fn alphabet(&self, registry: &ClassRegistry) -> Option<Vec<EventSym>> {
        let mut syms = Vec::new();
        self.collect_alphabet(registry, true, &mut syms)?;
        syms.sort_unstable();
        syms.dedup();
        Some(syms)
    }

    /// The *event* alphabet: like [`alphabet`](Self::alphabet), but
    /// timer operators contribute nothing instead of poisoning the walk
    /// — the set of interned symbols actual objects can deliver. The
    /// analyzer uses this for triggering-edge precision (a timer tick is
    /// not an event another rule's action can raise); `Plus` still
    /// yields `None`.
    pub fn event_alphabet(&self, registry: &ClassRegistry) -> Option<Vec<EventSym>> {
        let mut syms = Vec::new();
        self.collect_alphabet(registry, false, &mut syms)?;
        syms.sort_unstable();
        syms.dedup();
        Some(syms)
    }

    /// Recursive helper for [`EventExpr::alphabet`]; `None` aborts the
    /// walk when an unbounded operator is found. `timers_poison` makes
    /// `at` / `every` unbounded (routing view) rather than silent
    /// (analyzer view).
    fn collect_alphabet(
        &self,
        registry: &ClassRegistry,
        timers_poison: bool,
        out: &mut Vec<EventSym>,
    ) -> Option<()> {
        match self {
            EventExpr::Primitive(s) => {
                out.extend(s.alphabet(registry));
                Some(())
            }
            EventExpr::And(a, b) | EventExpr::Or(a, b) | EventExpr::Seq(a, b) => {
                a.collect_alphabet(registry, timers_poison, out)?;
                b.collect_alphabet(registry, timers_poison, out)
            }
            EventExpr::Any { exprs, .. } => {
                for e in exprs {
                    e.collect_alphabet(registry, timers_poison, out)?;
                }
                Some(())
            }
            EventExpr::Not { watch, start, end }
            | EventExpr::Aperiodic {
                start,
                each: watch,
                end,
            } => {
                watch.collect_alphabet(registry, timers_poison, out)?;
                start.collect_alphabet(registry, timers_poison, out)?;
                end.collect_alphabet(registry, timers_poison, out)
            }
            EventExpr::Times { expr, .. }
            | EventExpr::Within { expr, .. }
            | EventExpr::Window { expr, .. }
            | EventExpr::Aggregate { expr, .. } => {
                expr.collect_alphabet(registry, timers_poison, out)
            }
            EventExpr::Plus { .. } => None,
            EventExpr::At { .. } | EventExpr::Every { .. } => {
                if timers_poison {
                    None
                } else {
                    Some(())
                }
            }
        }
    }

    /// Depth of the operator tree (a primitive has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            EventExpr::Primitive(_) => 1,
            EventExpr::And(a, b) | EventExpr::Or(a, b) | EventExpr::Seq(a, b) => {
                1 + a.depth().max(b.depth())
            }
            EventExpr::Any { exprs, .. } => {
                1 + exprs.iter().map(EventExpr::depth).max().unwrap_or(0)
            }
            EventExpr::Not { watch, start, end } => {
                1 + watch.depth().max(start.depth()).max(end.depth())
            }
            EventExpr::Aperiodic { start, each, end } => {
                1 + start.depth().max(each.depth()).max(end.depth())
            }
            EventExpr::Times { expr, .. } | EventExpr::Plus { expr, .. } => 1 + expr.depth(),
            EventExpr::At { .. } | EventExpr::Every { .. } => 1,
            EventExpr::Within { expr, .. }
            | EventExpr::Window { expr, .. }
            | EventExpr::Aggregate { expr, .. } => 1 + expr.depth(),
        }
    }

    /// Number of operator nodes (primitives excluded).
    pub fn operator_count(&self) -> usize {
        match self {
            EventExpr::Primitive(_) => 0,
            EventExpr::And(a, b) | EventExpr::Or(a, b) | EventExpr::Seq(a, b) => {
                1 + a.operator_count() + b.operator_count()
            }
            EventExpr::Any { exprs, .. } => {
                1 + exprs.iter().map(EventExpr::operator_count).sum::<usize>()
            }
            EventExpr::Not { watch, start, end } => {
                1 + watch.operator_count() + start.operator_count() + end.operator_count()
            }
            EventExpr::Aperiodic { start, each, end } => {
                1 + start.operator_count() + each.operator_count() + end.operator_count()
            }
            EventExpr::Times { expr, .. } | EventExpr::Plus { expr, .. } => {
                1 + expr.operator_count()
            }
            EventExpr::At { .. } | EventExpr::Every { .. } => 1,
            EventExpr::Within { expr, .. }
            | EventExpr::Window { expr, .. }
            | EventExpr::Aggregate { expr, .. } => 1 + expr.operator_count(),
        }
    }
}

impl fmt::Display for EventExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventExpr::Primitive(s) => write!(f, "{s}"),
            EventExpr::And(a, b) => write!(f, "({a} && {b})"),
            EventExpr::Or(a, b) => write!(f, "({a} || {b})"),
            EventExpr::Seq(a, b) => write!(f, "({a} ; {b})"),
            EventExpr::Any { m, exprs } => {
                write!(f, "any({m}, [")?;
                for (i, e) in exprs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str("])")
            }
            EventExpr::Not { watch, start, end } => {
                write!(f, "not({watch}) in ({start}, {end})")
            }
            EventExpr::Aperiodic { start, each, end } => {
                write!(f, "aperiodic({start}, {each}, {end})")
            }
            EventExpr::Times { n, expr } => write!(f, "times({n}, {expr})"),
            EventExpr::Plus { expr, delta } => write!(f, "({expr} + {delta})"),
            EventExpr::At { at } => write!(f, "at({at})"),
            EventExpr::Every { period } => write!(f, "every({period})"),
            EventExpr::Within { expr, deadline } => write!(f, "within({expr}, {deadline})"),
            EventExpr::Window {
                expr,
                size,
                tumbling,
            } => write!(
                f,
                "window({expr}, {size}, {})",
                if *tumbling { "tumbling" } else { "sliding" }
            ),
            EventExpr::Aggregate {
                expr,
                size,
                tumbling,
                agg,
                threshold,
            } => write!(
                f,
                "aggregate({agg}({expr}) >= {threshold}, {size}, {})",
                if *tumbling { "tumbling" } else { "sliding" }
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PrimitiveEventSpec as P;

    fn leaf(m: &str) -> EventExpr {
        EventExpr::primitive(P::end("C", m))
    }

    #[test]
    fn builders_and_display() {
        let e = leaf("a").and(leaf("b").or(leaf("c"))).then(leaf("d"));
        assert_eq!(
            e.to_string(),
            "((end C::a && (end C::b || end C::c)) ; end C::d)"
        );
        assert_eq!(e.depth(), 4);
        assert_eq!(e.operator_count(), 3);
    }

    #[test]
    fn primitives_in_leaf_order() {
        let e = leaf("a").and(leaf("b")).or(leaf("c"));
        let names: Vec<_> = e.primitives().iter().map(|s| s.method.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn extension_constructors() {
        let any = EventExpr::any(2, vec![leaf("a"), leaf("b"), leaf("c")]);
        assert_eq!(any.depth(), 2);
        assert_eq!(any.primitives().len(), 3);
        let not = EventExpr::not_between(leaf("w"), leaf("s"), leaf("e"));
        assert_eq!(not.to_string(), "not(end C::w) in (end C::s, end C::e)");
        let ap = EventExpr::aperiodic(leaf("s"), leaf("m"), leaf("e"));
        assert_eq!(ap.operator_count(), 1);
    }

    #[test]
    fn alphabet_closes_over_subclasses_and_flags_plus_unbounded() {
        use sentinel_object::ClassDecl;
        let mut reg = sentinel_object::ClassRegistry::new();
        reg.define(
            ClassDecl::reactive("Base")
                .method("a", &[])
                .method("b", &[]),
        )
        .unwrap();
        reg.define(ClassDecl::reactive("Sub").parent("Base"))
            .unwrap();

        let base = reg.id_of("Base").unwrap();
        let sub = reg.id_of("Sub").unwrap();
        let e = EventExpr::primitive(P::end("Base", "a"))
            .and(EventExpr::primitive(P::end("Base", "b")));
        let alpha = e.alphabet(&reg).unwrap();
        // Each leaf contributes its Base symbol plus the Sub closure.
        assert_eq!(alpha.len(), 4);
        assert!(alpha.contains(&reg.event_sym(base, "a", true).unwrap()));
        assert!(alpha.contains(&reg.event_sym(sub, "a", true).unwrap()));
        assert!(alpha.contains(&reg.event_sym(base, "b", true).unwrap()));
        assert!(alpha.contains(&reg.event_sym(sub, "b", true).unwrap()));
        // Begin symbols are not in an end-spec's alphabet.
        assert!(!alpha.contains(&reg.event_sym(base, "a", false).unwrap()));

        // A Plus anywhere makes the alphabet unbounded.
        assert!(e.clone().plus(5).alphabet(&reg).is_none());
        assert!(e
            .then(EventExpr::primitive(P::end("Base", "a")).plus(1))
            .alphabet(&reg)
            .is_none());

        // Specs on unknown classes have empty alphabets (never match).
        let unknown = EventExpr::primitive(P::end("Nope", "a"));
        assert_eq!(unknown.alphabet(&reg).unwrap(), vec![]);
    }

    /// Analyzer-feeding edge cases: `Plus` nested arbitrarily deep under
    /// `Seq` (and other operators) must still poison the whole alphabet,
    /// because the unboundedness is about routing, not tree position.
    #[test]
    fn nested_plus_under_seq_propagates_unbounded() {
        use sentinel_object::ClassDecl;
        let mut reg = sentinel_object::ClassRegistry::new();
        reg.define(ClassDecl::reactive("C").method("a", &[]).method("b", &[]))
            .unwrap();

        // Plus as the *left* Seq operand.
        let left = leaf("a").plus(5).then(leaf("b"));
        assert!(left.alphabet(&reg).is_none());
        // Plus buried two operators deep: Seq(a, Times(3, Plus(b))).
        let deep = leaf("a").then(EventExpr::times(leaf("b").plus(1), 3));
        assert!(deep.alphabet(&reg).is_none());
        // Plus inside a Not window under a Seq.
        let in_not = leaf("a").then(EventExpr::not_between(
            leaf("b").plus(2),
            leaf("a"),
            leaf("b"),
        ));
        assert!(in_not.alphabet(&reg).is_none());
        // Control: the same shapes without Plus stay bounded.
        let bounded = leaf("a").then(EventExpr::times(leaf("b"), 3));
        assert_eq!(bounded.alphabet(&reg).unwrap().len(), 2);
    }

    /// Duplicate primitives across `And`/`Or` operands collapse to one
    /// alphabet entry (sorted + deduped), so the analyzer sees set
    /// semantics, not leaf counts.
    #[test]
    fn duplicate_primitives_in_and_or_dedupe() {
        use sentinel_object::ClassDecl;
        let mut reg = sentinel_object::ClassRegistry::new();
        reg.define(ClassDecl::reactive("C").method("a", &[]).method("b", &[]))
            .unwrap();
        let cid = reg.id_of("C").unwrap();

        let and_dup = leaf("a").and(leaf("a"));
        assert_eq!(and_dup.primitives().len(), 2, "leaves are not deduped");
        assert_eq!(
            and_dup.alphabet(&reg).unwrap(),
            vec![reg.event_sym(cid, "a", true).unwrap()]
        );
        let or_dup = leaf("a").or(leaf("a").and(leaf("b")));
        let alpha = or_dup.alphabet(&reg).unwrap();
        assert_eq!(alpha.len(), 2, "`a` appears once despite two leaves");
        // Deduped output stays sorted (binary-search invariant downstream).
        let mut sorted = alpha.clone();
        sorted.sort_unstable();
        assert_eq!(alpha, sorted);
    }

    /// A spec naming a known class but an *undeclared* method interns no
    /// symbols, so the alphabet is `Some(empty)` — bounded but deaf. The
    /// analyzer reports such a rule as unreachable.
    #[test]
    fn undeclared_method_yields_empty_alphabet() {
        use sentinel_object::ClassDecl;
        let mut reg = sentinel_object::ClassRegistry::new();
        reg.define(ClassDecl::reactive("C").method("a", &[]))
            .unwrap();

        let ghost = EventExpr::primitive(P::end("C", "no-such-method"));
        assert_eq!(ghost.alphabet(&reg).unwrap(), vec![]);
        // Composed with a live leaf, only the live leaf contributes.
        let mixed = ghost.or(leaf("a"));
        assert_eq!(mixed.alphabet(&reg).unwrap().len(), 1);
    }

    #[test]
    fn serde_round_trip() {
        let e = leaf("a").then(leaf("b")).and(leaf("c"));
        let json = serde_json::to_string(&e).unwrap();
        let back: EventExpr = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
        let t = EventExpr::every(5)
            .and(leaf("a").count_within(10, 3))
            .or(EventExpr::at(100).then(leaf("b").within(7)));
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(serde_json::from_str::<EventExpr>(&json).unwrap(), t);
    }

    #[test]
    fn temporal_display_and_shape() {
        assert_eq!(EventExpr::at(5).to_string(), "at(5)");
        assert_eq!(EventExpr::every(9).to_string(), "every(9)");
        assert_eq!(leaf("a").within(3).to_string(), "within(end C::a, 3)");
        assert_eq!(
            leaf("a").sliding_window(10).to_string(),
            "window(end C::a, 10, sliding)"
        );
        assert_eq!(
            leaf("a").tumbling_window(10).to_string(),
            "window(end C::a, 10, tumbling)"
        );
        assert_eq!(
            leaf("a").count_within(10, 3).to_string(),
            "aggregate(count(end C::a) >= 3, 10, sliding)"
        );
        assert_eq!(
            leaf("a").aggregate(4, true, AggFn::Sum(1), 100).to_string(),
            "aggregate(sum(p1)(end C::a) >= 100, 4, tumbling)"
        );
        assert_eq!(EventExpr::at(5).depth(), 1);
        assert_eq!(EventExpr::at(5).operator_count(), 1);
        assert_eq!(leaf("a").within(3).depth(), 2);
        assert_eq!(leaf("a").count_within(10, 3).operator_count(), 1);
        assert!(EventExpr::at(5).primitives().is_empty());
        assert_eq!(leaf("a").tumbling_window(10).primitives().len(), 1);
    }

    #[test]
    fn timer_operators_poison_routing_but_not_event_alphabet() {
        use sentinel_object::ClassDecl;
        let mut reg = sentinel_object::ClassRegistry::new();
        reg.define(ClassDecl::reactive("C").method("a", &[]))
            .unwrap();
        let cid = reg.id_of("C").unwrap();

        let timered = EventExpr::every(5).and(leaf("a"));
        // Routing view: unbounded, so the rule lands in the broad tables.
        assert!(timered.alphabet(&reg).is_none());
        assert!(EventExpr::at(3).alphabet(&reg).is_none());
        // Analyzer view: only the real event symbols.
        assert_eq!(
            timered.event_alphabet(&reg).unwrap(),
            vec![reg.event_sym(cid, "a", true).unwrap()]
        );
        assert_eq!(EventExpr::at(3).event_alphabet(&reg).unwrap(), vec![]);
        // Windows and deadlines do not poison anything by themselves.
        let windowed = leaf("a").count_within(10, 3);
        assert_eq!(windowed.alphabet(&reg).unwrap().len(), 1);
        assert_eq!(windowed.event_alphabet(&reg).unwrap().len(), 1);
        // Plus still poisons both views.
        assert!(leaf("a").plus(1).event_alphabet(&reg).is_none());
    }

    #[test]
    fn timer_specs_collect_in_leaf_order() {
        let e = EventExpr::at(30)
            .and(EventExpr::every(5))
            .then(leaf("a").within(4));
        assert_eq!(e.timer_specs(), vec![(30, None), (5, Some(5))]);
        assert!(e.has_timers());
        assert!(!leaf("a").count_within(10, 2).has_timers());
    }

    #[test]
    fn timer_gating_classifies_emission_paths() {
        // Pure timers gate; pure events do not.
        assert!(EventExpr::at(1).timer_gated());
        assert!(EventExpr::every(2).timer_gated());
        assert!(!leaf("a").timer_gated());
        // Conjunction/sequence: one gated side suffices.
        assert!(EventExpr::every(2).and(leaf("a")).timer_gated());
        assert!(leaf("a").then(EventExpr::every(2)).timer_gated());
        // Disjunction: both sides must gate.
        assert!(!EventExpr::every(2).or(leaf("a")).timer_gated());
        assert!(EventExpr::every(2).or(EventExpr::at(9)).timer_gated());
        // any(m): gated when fewer than m members are ungated.
        assert!(EventExpr::any(2, vec![EventExpr::every(2), leaf("a")]).timer_gated());
        assert!(!EventExpr::any(1, vec![EventExpr::every(2), leaf("a")]).timer_gated());
        // Wrappers follow the operand.
        assert!(EventExpr::every(2).and(leaf("a")).within(5).timer_gated());
        assert!(!leaf("a").count_within(10, 3).timer_gated());
    }
}
