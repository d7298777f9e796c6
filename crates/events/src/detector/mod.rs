//! Incremental composite-event detection.
//!
//! Each rule in the paper owns a "local event detector" (Figure 2) that
//! receives the primitive events propagated to the rule and signals the
//! rule when its (possibly composite) event occurs. A
//! [`DetectorInstance`] is that detector: an [`EventExpr`] compiled into
//! a tree of operator nodes, each holding the partial-detection state the
//! paper describes for the `Conjunction` subclass (Figure 6: the two
//! constituent event references plus a `Raised` flag — generalised here
//! to occurrence buffers so that constituent *parameters* survive until
//! the composite completes).
//!
//! Detection is driven one primitive occurrence at a time through
//! [`DetectorInstance::process`]; occurrences must arrive in timestamp
//! order (the database's logical clock guarantees this).
//!
//! ## Operator semantics (with `Unrestricted`, the paper's context)
//!
//! * `And(a, b)` — every occurrence of `a` pairs with every occurrence of
//!   `b`, regardless of order.
//! * `Or(a, b)` — every occurrence of either side is an occurrence of the
//!   whole.
//! * `Seq(a, b)` — every occurrence of `b` pairs with every *earlier*
//!   occurrence of `a` (strictly: `a.end < b.start`).
//!
//! The restricted contexts ([`ParamContext`]) change which buffered
//! occurrences participate and whether they are consumed; see the module
//! docs in [`crate::context`].
//!
//! ## Transactional detection state
//!
//! Rules are "subject to the same transaction semantics" as other
//! objects (paper §2) — which must include their *detection state*: an
//! occurrence generated inside a rolled-back transaction must not later
//! complete a composite event, and an occurrence *consumed* by a
//! detection that was rolled back must be re-armed. The detector
//! therefore supports an undo journal: between
//! [`begin_txn`](DetectorInstance::begin_txn) and
//! [`commit_txn`](DetectorInstance::commit_txn) /
//! [`abort_txn`](DetectorInstance::abort_txn) every state mutation
//! records its inverse. The journal costs O(1) per mutation (a marker
//! for appends; a clone only for destructive pops/clears), so a
//! transaction over a detector with a large buffer does **not** pay for
//! the buffer size — the reason this design replaced an earlier
//! clone-the-detector checkpoint (see DESIGN.md §9).

mod conjunction;
mod leaf;
mod sequence;
mod state;
mod temporal;
mod window;

use crate::algebra::{AggFn, EventExpr};
use crate::clock::TimeSource;
use crate::context::ParamContext;
use crate::occurrence::{CompositeOccurrence, PrimitiveOccurrence};
use crate::spec::EventModifier;
use sentinel_object::{ClassId, ClassRegistry, EventSym, Result};
use sentinel_telemetry::{Stage, Telemetry, Timer};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

use conjunction::pair_and;
use sequence::pair_seq;
use state::{
    apply_buffer_undo, evict_buffer, Buffer, Env, JournalEntry, NodeUndo, Stim, WindowBuf,
};
use window::Watermarks;

/// Resource limits protecting against unbounded detector state (the
/// unrestricted context never discards occurrences on its own).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DetectorCaps {
    /// Maximum occurrences buffered per operator-node side; the oldest
    /// occurrence is dropped (and counted) when the cap is exceeded.
    pub max_buffered_per_node: usize,
}

impl Default for DetectorCaps {
    fn default() -> Self {
        DetectorCaps {
            max_buffered_per_node: 65_536,
        }
    }
}

/// Counters exposed for the event-management-cost experiments (E2, E12).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectorStats {
    /// Occurrences offered to the detector.
    pub offered: u64,
    /// Occurrences that matched at least one primitive leaf.
    pub matched: u64,
    /// Composite occurrences emitted at the root.
    pub emitted: u64,
    /// Occurrences dropped because a node buffer hit its cap.
    pub dropped: u64,
}

/// A compiled, stateful detector for one event expression.
///
/// `Clone` duplicates the full partial-detection state, open undo
/// journal included: the rule engine clones a shared detector to split
/// a rule off it, and tests cross-check the journal against brute-force
/// snapshots.
#[derive(Clone)]
pub struct DetectorInstance {
    root: Node,
    context: ParamContext,
    caps: DetectorCaps,
    stats: DetectorStats,
    journal: Option<Vec<JournalEntry>>,
    telemetry: Option<Arc<Telemetry>>,
    /// The instant axis windows are measured on. `None` (unit tests,
    /// standalone detectors) falls back to each stimulus's seq — i.e.
    /// logical-mode semantics.
    time: Option<Arc<TimeSource>>,
    label: Arc<str>,
    /// Registry length the leaf alphabets were computed against. The
    /// registry is append-only, so a length mismatch means classes were
    /// defined since compile time and subclass closures may be stale.
    schema_len: usize,
}

impl std::fmt::Debug for DetectorInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetectorInstance")
            .field("context", &self.context)
            .field("stats", &self.stats)
            .field("buffered", &self.buffered())
            .field("in_txn", &self.journal.is_some())
            .finish()
    }
}

impl DetectorInstance {
    /// Compile an expression against the schema. Class names in primitive
    /// specs are resolved here; unknown classes are reported immediately
    /// rather than silently never matching.
    pub fn compile(
        expr: &EventExpr,
        registry: &ClassRegistry,
        context: ParamContext,
        caps: DetectorCaps,
    ) -> Result<Self> {
        let mut next_id = 0u32;
        let mut next_timer = 0usize;
        Ok(DetectorInstance {
            root: Node::compile(expr, registry, &mut next_id, &mut next_timer)?,
            context,
            caps,
            stats: DetectorStats::default(),
            journal: None,
            telemetry: None,
            time: None,
            label: Arc::from(""),
            schema_len: registry.len(),
        })
    }

    /// Attach an observability handle. `label` (typically the owning
    /// rule's name) becomes the subject of the detector's trace records.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>, label: impl Into<Arc<str>>) {
        self.telemetry = Some(telemetry);
        self.label = label.into();
    }

    /// Attach the database's time authority: window edges and epochs are
    /// then measured on its instant axis instead of the sequence axis.
    pub fn set_time_source(&mut self, time: Arc<TimeSource>) {
        self.time = Some(time);
    }

    /// Compile with default context and caps.
    pub fn compile_default(expr: &EventExpr, registry: &ClassRegistry) -> Result<Self> {
        Self::compile(
            expr,
            registry,
            ParamContext::default(),
            DetectorCaps::default(),
        )
    }

    /// Feed one primitive occurrence; returns the composite occurrences
    /// of the whole expression completed by it (possibly several under
    /// the unrestricted context, at most one under the restricted ones
    /// for binary operators).
    pub fn process(
        &mut self,
        registry: &ClassRegistry,
        occ: &PrimitiveOccurrence,
    ) -> Vec<CompositeOccurrence> {
        let sym = registry.event_sym(occ.class, &occ.method, occ.modifier.is_end());
        self.process_resolved(registry, occ, sym)
    }

    /// [`process`](Self::process) with the occurrence's interned symbol
    /// already resolved by the caller (the engine resolves once per event
    /// and shares the symbol across every notified detector). `None`
    /// means the occurrence names a method outside the schema: no leaf
    /// matches it, though it still advances time-driven operators.
    pub fn process_resolved(
        &mut self,
        registry: &ClassRegistry,
        occ: &PrimitiveOccurrence,
        sym: Option<EventSym>,
    ) -> Vec<CompositeOccurrence> {
        if self.schema_len != registry.len() {
            self.root.refresh_alphabets(registry);
            self.schema_len = registry.len();
        }
        self.stats.offered += 1;
        let timer = match &self.telemetry {
            Some(t) => t.timer(),
            None => Timer::off(),
        };
        let now = match &self.time {
            Some(t) => t.instant_now(),
            None => occ.at,
        };
        let mut env = Env {
            sym,
            context: self.context,
            caps: self.caps,
            now,
            matched: false,
            dropped: 0,
            journal: self.journal.as_mut(),
        };
        let out = self.root.process(&Stim::Prim(occ), &mut env);
        if env.matched {
            self.stats.matched += 1;
        }
        self.stats.dropped += env.dropped;
        self.stats.emitted += out.len() as u64;
        if let Some(tel) = &self.telemetry {
            // The enabled check also guards the `buffered` tree walk, which
            // is not free on deep expressions.
            if tel.is_enabled() {
                let label = &self.label;
                tel.observe_timer(Stage::DetectorTransition, occ.at, timer, || {
                    label.to_string()
                });
                tel.observe(
                    Stage::DetectorDepth,
                    occ.at,
                    self.root.buffered() as u64,
                    || label.to_string(),
                );
            }
        }
        out
    }

    /// Deliver one timer fire to the `at`/`every` leaf at `idx` (its
    /// position in [`EventExpr::timer_specs`] leaf order). `due` is the
    /// instant the timer came due — windows advance to it — and `seq`
    /// the fresh logical timestamp the engine assigned to the fire, so
    /// the tick is totally ordered against event occurrences.
    pub fn process_timer(&mut self, idx: usize, due: u64, seq: u64) -> Vec<CompositeOccurrence> {
        self.stats.offered += 1;
        let mut env = Env {
            sym: None,
            context: self.context,
            caps: self.caps,
            now: due,
            matched: false,
            dropped: 0,
            journal: self.journal.as_mut(),
        };
        let out = self.root.process(&Stim::Timer { idx, seq }, &mut env);
        if env.matched {
            self.stats.matched += 1;
        }
        self.stats.dropped += env.dropped;
        self.stats.emitted += out.len() as u64;
        out
    }

    /// Export the detector's partial-detection state for a checkpoint: a
    /// pre-order walk of every node's buffers, slots and windows.
    pub fn export_state(&self) -> DetectorState {
        let mut nodes = Vec::new();
        self.root.export_state(&mut nodes);
        DetectorState { nodes }
    }

    /// Restore state exported by [`export_state`](Self::export_state).
    /// Returns `false` (leaving the detector untouched) when the state's
    /// shape does not match this detector's expression — e.g. the rule
    /// was redefined between checkpoint and recovery.
    pub fn import_state(&mut self, state: &DetectorState) -> bool {
        let mut trial = self.root.clone();
        let mut it = state.nodes.iter();
        if trial.import_state(&mut it) && it.next().is_none() {
            self.root = trial;
            true
        } else {
            false
        }
    }

    /// Start journaling state mutations for the enclosing transaction.
    pub fn begin_txn(&mut self) {
        debug_assert!(self.journal.is_none(), "nested detector transactions");
        self.journal = Some(Vec::new());
    }

    /// The transaction committed: discard the journal.
    pub fn commit_txn(&mut self) {
        self.journal = None;
    }

    /// The transaction aborted: replay the journal in reverse, restoring
    /// exactly the pre-transaction detection state.
    pub fn abort_txn(&mut self) {
        let Some(journal) = self.journal.take() else {
            return;
        };
        for entry in journal.into_iter().rev() {
            match entry {
                JournalEntry::Full(node) => {
                    self.root = *node;
                }
                JournalEntry::Node { node, undo } => {
                    self.root.apply_undo(node, undo);
                }
            }
        }
    }

    /// Is a journal currently active?
    pub fn in_txn(&self) -> bool {
        self.journal.is_some()
    }

    /// Total occurrences currently buffered across all operator nodes —
    /// the detector-state metric of experiment E12.
    pub fn buffered(&self) -> usize {
        self.root.buffered()
    }

    /// Counters so far.
    pub fn stats(&self) -> DetectorStats {
        self.stats
    }

    /// Discard all partial state (e.g. when a rule is disabled; the paper
    /// says a disabled rule no longer records propagated events). When a
    /// journal is active the pre-reset state is recorded so an abort can
    /// restore it.
    pub fn reset(&mut self) {
        if let Some(j) = self.journal.as_mut() {
            j.push(JournalEntry::Full(Box::new(self.root.clone())));
        }
        self.root.reset();
    }

    /// Discard partial state involving occurrences newer than `ts` —
    /// a backstop for abort paths that could not be journaled (e.g. a
    /// rule created inside the aborted transaction). Not journaled.
    pub fn prune_newer_than(&mut self, ts: u64) {
        self.root.prune_newer_than(ts);
    }

    /// The parameter context the detector was compiled with.
    pub fn context(&self) -> ParamContext {
        self.context
    }
}

/// Serializable partial-detection state: one entry per node, in
/// pre-order. Persisted into the checkpoint snapshot so long-lived
/// sequence/conjunction/window progress survives a restart.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorState {
    nodes: Vec<NodeState>,
}

impl DetectorState {
    /// `true` when no node holds any partial state (nothing worth
    /// persisting).
    pub fn is_trivial(&self) -> bool {
        self.nodes.iter().all(|n| match n {
            NodeState::Stateless => true,
            NodeState::Bufs(bufs) => bufs.iter().all(Vec::is_empty),
            NodeState::Latest(slots) => slots.iter().all(Option::is_none),
            NodeState::Open { open, violated } => open.is_none() && !violated,
            NodeState::Windowed { items, latched, .. } => items.is_empty() && !latched,
            NodeState::Marks(samples) => samples.is_empty(),
        })
    }
}

/// One node's exported state (shape-checked on import).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum NodeState {
    /// Primitive / timer leaves, `Or`, `Within`.
    Stateless,
    /// `And` (two sides), `Seq` / `Times` / `Plus` (one).
    Bufs(Vec<Vec<CompositeOccurrence>>),
    /// `Any`'s latest-per-child slots.
    Latest(Vec<Option<CompositeOccurrence>>),
    /// `Not` / `Aperiodic` window slots.
    Open {
        open: Option<CompositeOccurrence>,
        violated: bool,
    },
    /// `Aggregate`'s instant-stamped window buffer.
    Windowed {
        items: Vec<(u64, CompositeOccurrence)>,
        epoch: u64,
        latched: bool,
    },
    /// `Window`'s instant→seq watermark samples.
    Marks(Vec<(u64, u64)>),
}

#[derive(Debug, Clone)]
enum Node {
    Primitive {
        class: ClassId,
        method: String,
        modifier: EventModifier,
        /// Sorted interned symbols this leaf consumes (the spec closed
        /// over subclasses), matched by binary search. `class`, `method`
        /// and `modifier` recompute it when the schema grows.
        alphabet: Vec<EventSym>,
    },
    And {
        id: u32,
        left: Box<Node>,
        right: Box<Node>,
        lbuf: Buffer,
        rbuf: Buffer,
    },
    Or {
        left: Box<Node>,
        right: Box<Node>,
    },
    Seq {
        id: u32,
        left: Box<Node>,
        right: Box<Node>,
        lbuf: Buffer,
    },
    Any {
        id: u32,
        m: usize,
        children: Vec<Node>,
        latest: Vec<Option<CompositeOccurrence>>,
    },
    Not {
        id: u32,
        watch: Box<Node>,
        start: Box<Node>,
        end: Box<Node>,
        open: Option<CompositeOccurrence>,
        violated: bool,
    },
    Aperiodic {
        id: u32,
        start: Box<Node>,
        each: Box<Node>,
        end: Box<Node>,
        open: Option<CompositeOccurrence>,
    },
    Times {
        id: u32,
        n: usize,
        child: Box<Node>,
        buf: Buffer,
    },
    Plus {
        id: u32,
        child: Box<Node>,
        delta: u64,
        pending: Buffer,
    },
    /// Timer leaves: stateless, matched by timer-fire stimuli only.
    At {
        timer_idx: usize,
    },
    Every {
        timer_idx: usize,
    },
    /// Deadline scope: filters operand emissions by interval span and
    /// evicts operand state too old to ever complete in time.
    Within {
        child: Box<Node>,
        deadline: u64,
    },
    /// Window scope: evicts operand state that left the window on the
    /// instant axis, so e.g. `Seq(a, b)` inside a window only pairs
    /// constituents from the same window.
    Window {
        child: Box<Node>,
        size: u64,
        tumbling: bool,
        marks: Watermarks,
    },
    /// Windowed aggregation with a latched threshold.
    Aggregate {
        id: u32,
        child: Box<Node>,
        size: u64,
        tumbling: bool,
        agg: AggFn,
        threshold: i64,
        wbuf: WindowBuf,
        epoch: u64,
        latched: bool,
    },
}

impl Node {
    fn compile(
        expr: &EventExpr,
        registry: &ClassRegistry,
        next_id: &mut u32,
        next_timer: &mut usize,
    ) -> Result<Node> {
        let mut fresh = || {
            let id = *next_id;
            *next_id += 1;
            id
        };
        // Timer leaves take their delivery index in the same traversal
        // order `EventExpr::timer_specs` collects specs.
        let mut fresh_timer = || {
            let idx = *next_timer;
            *next_timer += 1;
            idx
        };
        Ok(match expr {
            EventExpr::Primitive(spec) => leaf::compile(spec, registry)?,
            EventExpr::And(a, b) => Node::And {
                id: fresh(),
                left: Box::new(Node::compile(a, registry, next_id, next_timer)?),
                right: Box::new(Node::compile(b, registry, next_id, next_timer)?),
                lbuf: Buffer::default(),
                rbuf: Buffer::default(),
            },
            EventExpr::Or(a, b) => Node::Or {
                left: Box::new(Node::compile(a, registry, next_id, next_timer)?),
                right: Box::new(Node::compile(b, registry, next_id, next_timer)?),
            },
            EventExpr::Seq(a, b) => Node::Seq {
                id: fresh(),
                left: Box::new(Node::compile(a, registry, next_id, next_timer)?),
                right: Box::new(Node::compile(b, registry, next_id, next_timer)?),
                lbuf: Buffer::default(),
            },
            EventExpr::Any { m, exprs } => Node::Any {
                id: fresh(),
                m: *m,
                latest: exprs.iter().map(|_| None).collect(),
                children: exprs
                    .iter()
                    .map(|e| Node::compile(e, registry, next_id, next_timer))
                    .collect::<Result<_>>()?,
            },
            EventExpr::Not { watch, start, end } => Node::Not {
                id: fresh(),
                watch: Box::new(Node::compile(watch, registry, next_id, next_timer)?),
                start: Box::new(Node::compile(start, registry, next_id, next_timer)?),
                end: Box::new(Node::compile(end, registry, next_id, next_timer)?),
                open: None,
                violated: false,
            },
            EventExpr::Aperiodic { start, each, end } => Node::Aperiodic {
                id: fresh(),
                start: Box::new(Node::compile(start, registry, next_id, next_timer)?),
                each: Box::new(Node::compile(each, registry, next_id, next_timer)?),
                end: Box::new(Node::compile(end, registry, next_id, next_timer)?),
                open: None,
            },
            EventExpr::Times { n, expr } => Node::Times {
                id: fresh(),
                n: (*n).max(1),
                child: Box::new(Node::compile(expr, registry, next_id, next_timer)?),
                buf: Buffer::default(),
            },
            EventExpr::Plus { expr, delta } => Node::Plus {
                id: fresh(),
                child: Box::new(Node::compile(expr, registry, next_id, next_timer)?),
                delta: *delta,
                pending: Buffer::default(),
            },
            EventExpr::At { .. } => Node::At {
                timer_idx: fresh_timer(),
            },
            EventExpr::Every { .. } => Node::Every {
                timer_idx: fresh_timer(),
            },
            EventExpr::Within { expr, deadline } => Node::Within {
                child: Box::new(Node::compile(expr, registry, next_id, next_timer)?),
                deadline: *deadline,
            },
            EventExpr::Window {
                expr,
                size,
                tumbling,
            } => Node::Window {
                child: Box::new(Node::compile(expr, registry, next_id, next_timer)?),
                size: (*size).max(1),
                tumbling: *tumbling,
                marks: Watermarks::default(),
            },
            EventExpr::Aggregate {
                expr,
                size,
                tumbling,
                agg,
                threshold,
            } => Node::Aggregate {
                id: fresh(),
                child: Box::new(Node::compile(expr, registry, next_id, next_timer)?),
                size: (*size).max(1),
                tumbling: *tumbling,
                agg: *agg,
                threshold: *threshold,
                wbuf: WindowBuf::default(),
                epoch: 0,
                latched: false,
            },
        })
    }

    fn process(&mut self, stim: &Stim<'_>, env: &mut Env<'_>) -> Vec<CompositeOccurrence> {
        match self {
            Node::Primitive { alphabet, .. } => match stim {
                Stim::Prim(occ) if leaf::matches(env.sym, alphabet) => {
                    env.matched = true;
                    vec![CompositeOccurrence::from_primitive((*occ).clone())]
                }
                _ => Vec::new(),
            },

            Node::At { timer_idx } | Node::Every { timer_idx } => match stim {
                Stim::Timer { idx, seq } if idx == timer_idx => {
                    env.matched = true;
                    vec![temporal::timer_occurrence(*seq)]
                }
                _ => Vec::new(),
            },

            Node::Or { left, right } => {
                let mut out = left.process(stim, env);
                out.extend(right.process(stim, env));
                out
            }

            Node::And {
                id,
                left,
                right,
                lbuf,
                rbuf,
            } => {
                let le = left.process(stim, env);
                let re = right.process(stim, env);
                pair_and(*id, le, re, lbuf, rbuf, env)
            }

            Node::Seq {
                id,
                left,
                right,
                lbuf,
            } => {
                let le = left.process(stim, env);
                let re = right.process(stim, env);
                pair_seq(*id, le, re, lbuf, env)
            }

            Node::Within { child, deadline } => {
                let deadline = *deadline;
                // Evict operand state that can no longer complete in
                // time — this is what bounds a never-completing
                // composite's memory.
                if let Some(cut) = temporal::within_cutoff(stim.seq(), deadline) {
                    child.evict_state(cut, true, env);
                }
                child
                    .process(stim, env)
                    .into_iter()
                    .filter(|o| temporal::within_span_ok(o, deadline))
                    .collect()
            }

            Node::Window {
                child,
                size,
                tumbling,
                marks,
            } => {
                marks.observe(env.now, stim.seq());
                if let Some(cut) = window::window_cutoff(marks, env.now, *size, *tumbling) {
                    child.evict_state(cut, false, env);
                }
                child.process(stim, env)
            }

            Node::Aggregate {
                id,
                child,
                size,
                tumbling,
                agg,
                threshold,
                wbuf,
                epoch,
                latched,
            } => {
                let arrivals = child.process(stim, env);
                window::step_aggregate(
                    *id, arrivals, env.now, *size, *tumbling, *agg, *threshold, wbuf, epoch,
                    latched, env,
                )
            }

            Node::Any {
                id,
                m,
                children,
                latest,
            } => {
                let id = *id;
                let mut completed = Vec::new();
                for (i, child) in children.iter_mut().enumerate() {
                    let es = child.process(stim, env);
                    if let Some(e) = es.into_iter().next_back() {
                        let prev = latest[i].replace(e);
                        let was_present = prev.is_some();
                        env.record(id, NodeUndo::SetLatest { i, prev });
                        if !was_present {
                            let present = latest.iter().filter(|l| l.is_some()).count();
                            if present >= *m {
                                let merged =
                                    CompositeOccurrence::merge_all(latest.iter().flatten());
                                for (j, l) in latest.iter_mut().enumerate() {
                                    let prev = l.take();
                                    if prev.is_some() {
                                        env.record(id, NodeUndo::SetLatest { i: j, prev });
                                    }
                                }
                                completed.push(merged);
                            }
                        }
                    }
                }
                completed
            }

            Node::Not {
                id,
                watch,
                start,
                end,
                open,
                violated,
            } => {
                let id = *id;
                // Deterministic intra-occurrence ordering: close windows
                // first, then record violations, then open new windows.
                let ee = end.process(stim, env);
                let mut out = Vec::new();
                if let Some(e) = ee.into_iter().next() {
                    let prev_open = open.take();
                    if let Some(s) = prev_open.clone() {
                        if !*violated {
                            out.push(CompositeOccurrence::merge(&s, &e));
                        }
                    }
                    env.record(id, NodeUndo::SetOpen { prev: prev_open });
                    if *violated {
                        env.record(id, NodeUndo::SetViolated { prev: true });
                        *violated = false;
                    }
                }
                if open.is_some() && !watch.process(stim, env).is_empty() && !*violated {
                    env.record(id, NodeUndo::SetViolated { prev: false });
                    *violated = true;
                }
                if let Some(s) = start.process(stim, env).into_iter().next_back() {
                    let prev = open.replace(s);
                    env.record(id, NodeUndo::SetOpen { prev });
                    if *violated {
                        env.record(id, NodeUndo::SetViolated { prev: true });
                        *violated = false;
                    }
                }
                out
            }

            Node::Aperiodic {
                id,
                start,
                each,
                end,
                open,
            } => {
                let id = *id;
                if !end.process(stim, env).is_empty() && open.is_some() {
                    let prev = open.take();
                    env.record(id, NodeUndo::SetOpen { prev });
                }
                let mut out = Vec::new();
                if let Some(s) = open.as_ref() {
                    for e in each.process(stim, env) {
                        out.push(CompositeOccurrence::merge(s, &e));
                    }
                } else {
                    // Still drive the child so its own state stays fresh.
                    let _ = each.process(stim, env);
                }
                if let Some(s) = start.process(stim, env).into_iter().next_back() {
                    let prev = open.replace(s);
                    env.record(id, NodeUndo::SetOpen { prev });
                }
                out
            }

            Node::Times { id, n, child, buf } => {
                let id = *id;
                let mut out = Vec::new();
                for e in child.process(stim, env) {
                    buf.push(id, 0, e, env);
                    if buf.len() >= *n {
                        let merged = CompositeOccurrence::merge_all(buf.items.iter());
                        buf.clear(id, 0, env);
                        out.push(merged);
                    }
                }
                out
            }

            Node::Plus {
                id,
                child,
                delta,
                pending,
            } => {
                let id = *id;
                // Deadlines are checked against the *current* stimulus's
                // timestamp first (lazy timer), then new bases enqueue.
                let at = stim.seq();
                let mut out = Vec::new();
                while pending
                    .items
                    .front()
                    .map(|b| b.end + *delta <= at)
                    .unwrap_or(false)
                {
                    let base = pending.pop_front(id, 0, env).expect("checked non-empty");
                    out.push(CompositeOccurrence {
                        constituents: base.constituents.clone(),
                        start: base.start,
                        end: at,
                    });
                }
                for e in child.process(stim, env) {
                    pending.push(id, 0, e, env);
                }
                out
            }
        }
    }

    /// Locate the stateful node `target` and apply one undo entry.
    /// Returns true when applied (search stops).
    fn apply_undo(&mut self, target: u32, undo: NodeUndo) -> bool {
        match self {
            Node::Primitive { .. } => false,
            Node::Or { left, right } => {
                // `undo` moves into whichever branch matches; try left
                // first, then right.
                match left.apply_undo(target, undo.clone()) {
                    true => true,
                    false => right.apply_undo(target, undo),
                }
            }
            Node::And {
                id,
                left,
                right,
                lbuf,
                rbuf,
            } => {
                if *id == target {
                    apply_buffer_undo(undo, lbuf, Some(rbuf));
                    true
                } else {
                    match left.apply_undo(target, undo.clone()) {
                        true => true,
                        false => right.apply_undo(target, undo),
                    }
                }
            }
            Node::Seq {
                id,
                left,
                right,
                lbuf,
            } => {
                if *id == target {
                    apply_buffer_undo(undo, lbuf, None);
                    true
                } else {
                    match left.apply_undo(target, undo.clone()) {
                        true => true,
                        false => right.apply_undo(target, undo),
                    }
                }
            }
            Node::Any {
                id,
                children,
                latest,
                ..
            } => {
                if *id == target {
                    if let NodeUndo::SetLatest { i, prev } = undo {
                        latest[i] = prev;
                    }
                    true
                } else {
                    children
                        .iter_mut()
                        .any(|c| c.apply_undo(target, undo.clone()))
                }
            }
            Node::Not {
                id,
                watch,
                start,
                end,
                open,
                violated,
            } => {
                if *id == target {
                    match undo {
                        NodeUndo::SetOpen { prev } => *open = prev,
                        NodeUndo::SetViolated { prev } => *violated = prev,
                        _ => {}
                    }
                    true
                } else {
                    watch.apply_undo(target, undo.clone())
                        || start.apply_undo(target, undo.clone())
                        || end.apply_undo(target, undo)
                }
            }
            Node::Aperiodic {
                id,
                start,
                each,
                end,
                open,
            } => {
                if *id == target {
                    if let NodeUndo::SetOpen { prev } = undo {
                        *open = prev;
                    }
                    true
                } else {
                    start.apply_undo(target, undo.clone())
                        || each.apply_undo(target, undo.clone())
                        || end.apply_undo(target, undo)
                }
            }
            Node::Times { id, child, buf, .. } => {
                if *id == target {
                    apply_buffer_undo(undo, buf, None);
                    true
                } else {
                    child.apply_undo(target, undo)
                }
            }
            Node::Plus {
                id, child, pending, ..
            } => {
                if *id == target {
                    apply_buffer_undo(undo, pending, None);
                    true
                } else {
                    child.apply_undo(target, undo)
                }
            }
            Node::At { .. } | Node::Every { .. } => false,
            Node::Within { child, .. } | Node::Window { child, .. } => {
                child.apply_undo(target, undo)
            }
            Node::Aggregate {
                id,
                child,
                wbuf,
                epoch,
                latched,
                ..
            } => {
                if *id == target {
                    match undo {
                        NodeUndo::PopWindowBack => {
                            wbuf.pop_back();
                        }
                        NodeUndo::RestoreWindow {
                            items,
                            epoch: e,
                            latched: l,
                        } => {
                            *wbuf = items;
                            *epoch = e;
                            *latched = l;
                        }
                        NodeUndo::RestoreWindowFront { items } => {
                            for e in items.into_iter().rev() {
                                wbuf.push_front(e);
                            }
                        }
                        NodeUndo::SetLatched { prev } => *latched = prev,
                        _ => {}
                    }
                    true
                } else {
                    child.apply_undo(target, undo)
                }
            }
        }
    }

    /// Evict operand state that has left an enclosing temporal scope:
    /// occurrences whose scope key — `start` for the `within` axis
    /// (`by_start`), `end` for the window axis — is at or before
    /// `cutoff` (sequence units). Journaled, so aborts restore evicted
    /// state like any other mutation.
    fn evict_state(&mut self, cutoff: u64, by_start: bool, env: &mut Env<'_>) {
        let key = |o: &CompositeOccurrence| if by_start { o.start } else { o.end };
        match self {
            Node::Primitive { .. } | Node::At { .. } | Node::Every { .. } => {}
            Node::Or { left, right } => {
                left.evict_state(cutoff, by_start, env);
                right.evict_state(cutoff, by_start, env);
            }
            Node::And {
                id,
                left,
                right,
                lbuf,
                rbuf,
            } => {
                left.evict_state(cutoff, by_start, env);
                right.evict_state(cutoff, by_start, env);
                evict_buffer(lbuf, *id, 0, cutoff, by_start, env);
                evict_buffer(rbuf, *id, 1, cutoff, by_start, env);
            }
            Node::Seq {
                id,
                left,
                right,
                lbuf,
            } => {
                left.evict_state(cutoff, by_start, env);
                right.evict_state(cutoff, by_start, env);
                evict_buffer(lbuf, *id, 0, cutoff, by_start, env);
            }
            Node::Any {
                id,
                children,
                latest,
                ..
            } => {
                let id = *id;
                for c in children.iter_mut() {
                    c.evict_state(cutoff, by_start, env);
                }
                for (i, l) in latest.iter_mut().enumerate() {
                    if l.as_ref().map(|o| key(o) <= cutoff).unwrap_or(false) {
                        let prev = l.take();
                        env.record(id, NodeUndo::SetLatest { i, prev });
                    }
                }
            }
            Node::Not {
                id,
                watch,
                start,
                end,
                open,
                violated,
            } => {
                let id = *id;
                watch.evict_state(cutoff, by_start, env);
                start.evict_state(cutoff, by_start, env);
                end.evict_state(cutoff, by_start, env);
                if open.as_ref().map(|o| key(o) <= cutoff).unwrap_or(false) {
                    let prev = open.take();
                    env.record(id, NodeUndo::SetOpen { prev });
                    if *violated {
                        env.record(id, NodeUndo::SetViolated { prev: true });
                        *violated = false;
                    }
                }
            }
            Node::Aperiodic {
                id,
                start,
                each,
                end,
                open,
            } => {
                let id = *id;
                start.evict_state(cutoff, by_start, env);
                each.evict_state(cutoff, by_start, env);
                end.evict_state(cutoff, by_start, env);
                if open.as_ref().map(|o| key(o) <= cutoff).unwrap_or(false) {
                    let prev = open.take();
                    env.record(id, NodeUndo::SetOpen { prev });
                }
            }
            Node::Times { id, child, buf, .. } => {
                child.evict_state(cutoff, by_start, env);
                evict_buffer(buf, *id, 0, cutoff, by_start, env);
            }
            Node::Plus {
                id, child, pending, ..
            } => {
                child.evict_state(cutoff, by_start, env);
                evict_buffer(pending, *id, 0, cutoff, by_start, env);
            }
            Node::Within { child, .. } | Node::Window { child, .. } => {
                child.evict_state(cutoff, by_start, env);
            }
            Node::Aggregate {
                id,
                child,
                wbuf,
                epoch,
                latched,
                ..
            } => {
                child.evict_state(cutoff, by_start, env);
                if wbuf.iter().any(|(_, o)| key(o) <= cutoff) {
                    if env.journaling() {
                        env.record(
                            *id,
                            NodeUndo::RestoreWindow {
                                items: wbuf.clone(),
                                epoch: *epoch,
                                latched: *latched,
                            },
                        );
                    }
                    wbuf.retain(|(_, o)| key(o) > cutoff);
                }
            }
        }
    }

    fn buffered(&self) -> usize {
        match self {
            Node::Primitive { .. } => 0,
            Node::Or { left, right } => left.buffered() + right.buffered(),
            Node::And {
                left,
                right,
                lbuf,
                rbuf,
                ..
            } => left.buffered() + right.buffered() + lbuf.len() + rbuf.len(),
            Node::Seq {
                left, right, lbuf, ..
            } => left.buffered() + right.buffered() + lbuf.len(),
            Node::Any {
                children, latest, ..
            } => {
                children.iter().map(Node::buffered).sum::<usize>()
                    + latest.iter().filter(|l| l.is_some()).count()
            }
            Node::Not {
                watch,
                start,
                end,
                open,
                ..
            } => watch.buffered() + start.buffered() + end.buffered() + usize::from(open.is_some()),
            Node::Aperiodic {
                start,
                each,
                end,
                open,
                ..
            } => start.buffered() + each.buffered() + end.buffered() + usize::from(open.is_some()),
            Node::Times { child, buf, .. } => child.buffered() + buf.len(),
            Node::Plus { child, pending, .. } => child.buffered() + pending.len(),
            Node::At { .. } | Node::Every { .. } => 0,
            Node::Within { child, .. } | Node::Window { child, .. } => child.buffered(),
            Node::Aggregate { child, wbuf, .. } => child.buffered() + wbuf.len(),
        }
    }

    fn prune_newer_than(&mut self, ts: u64) {
        match self {
            Node::Primitive { .. } => {}
            Node::Or { left, right } => {
                left.prune_newer_than(ts);
                right.prune_newer_than(ts);
            }
            Node::And {
                left,
                right,
                lbuf,
                rbuf,
                ..
            } => {
                left.prune_newer_than(ts);
                right.prune_newer_than(ts);
                lbuf.items.retain(|o| o.end <= ts);
                rbuf.items.retain(|o| o.end <= ts);
            }
            Node::Seq {
                left, right, lbuf, ..
            } => {
                left.prune_newer_than(ts);
                right.prune_newer_than(ts);
                lbuf.items.retain(|o| o.end <= ts);
            }
            Node::Any {
                children, latest, ..
            } => {
                for c in children {
                    c.prune_newer_than(ts);
                }
                for l in latest {
                    if l.as_ref().map(|o| o.end > ts).unwrap_or(false) {
                        *l = None;
                    }
                }
            }
            Node::Not {
                watch,
                start,
                end,
                open,
                violated,
                ..
            } => {
                watch.prune_newer_than(ts);
                start.prune_newer_than(ts);
                end.prune_newer_than(ts);
                if open.as_ref().map(|o| o.end > ts).unwrap_or(false) {
                    *open = None;
                    *violated = false;
                }
            }
            Node::Aperiodic {
                start,
                each,
                end,
                open,
                ..
            } => {
                start.prune_newer_than(ts);
                each.prune_newer_than(ts);
                end.prune_newer_than(ts);
                if open.as_ref().map(|o| o.end > ts).unwrap_or(false) {
                    *open = None;
                }
            }
            Node::Times { child, buf, .. } => {
                child.prune_newer_than(ts);
                buf.items.retain(|o| o.end <= ts);
            }
            Node::Plus { child, pending, .. } => {
                child.prune_newer_than(ts);
                pending.items.retain(|o| o.end <= ts);
            }
            Node::At { .. } | Node::Every { .. } => {}
            Node::Within { child, .. } | Node::Window { child, .. } => {
                child.prune_newer_than(ts);
            }
            Node::Aggregate { child, wbuf, .. } => {
                child.prune_newer_than(ts);
                wbuf.retain(|(_, o)| o.end <= ts);
            }
        }
    }

    fn reset(&mut self) {
        match self {
            Node::Primitive { .. } => {}
            Node::Or { left, right } => {
                left.reset();
                right.reset();
            }
            Node::And {
                left,
                right,
                lbuf,
                rbuf,
                ..
            } => {
                left.reset();
                right.reset();
                lbuf.items.clear();
                rbuf.items.clear();
            }
            Node::Seq {
                left, right, lbuf, ..
            } => {
                left.reset();
                right.reset();
                lbuf.items.clear();
            }
            Node::Any {
                children, latest, ..
            } => {
                for c in children {
                    c.reset();
                }
                for l in latest {
                    *l = None;
                }
            }
            Node::Not {
                watch,
                start,
                end,
                open,
                violated,
                ..
            } => {
                watch.reset();
                start.reset();
                end.reset();
                *open = None;
                *violated = false;
            }
            Node::Aperiodic {
                start,
                each,
                end,
                open,
                ..
            } => {
                start.reset();
                each.reset();
                end.reset();
                *open = None;
            }
            Node::Times { child, buf, .. } => {
                child.reset();
                buf.items.clear();
            }
            Node::Plus { child, pending, .. } => {
                child.reset();
                pending.items.clear();
            }
            Node::At { .. } | Node::Every { .. } => {}
            Node::Within { child, .. } | Node::Window { child, .. } => {
                // Watermark samples are clock facts, not detection
                // state; they survive a reset.
                child.reset();
            }
            Node::Aggregate {
                child,
                wbuf,
                latched,
                ..
            } => {
                child.reset();
                wbuf.clear();
                *latched = false;
            }
        }
    }

    /// Recompute every leaf's symbol alphabet against a grown schema
    /// (classes defined after compile time may add subclass symbols).
    fn refresh_alphabets(&mut self, registry: &ClassRegistry) {
        match self {
            Node::Primitive {
                class,
                method,
                modifier,
                alphabet,
            } => {
                *alphabet = leaf::alphabet(registry, *class, method, *modifier);
            }
            Node::Or { left, right } => {
                left.refresh_alphabets(registry);
                right.refresh_alphabets(registry);
            }
            Node::And { left, right, .. } | Node::Seq { left, right, .. } => {
                left.refresh_alphabets(registry);
                right.refresh_alphabets(registry);
            }
            Node::Any { children, .. } => {
                for c in children {
                    c.refresh_alphabets(registry);
                }
            }
            Node::Not {
                watch, start, end, ..
            } => {
                watch.refresh_alphabets(registry);
                start.refresh_alphabets(registry);
                end.refresh_alphabets(registry);
            }
            Node::Aperiodic {
                start, each, end, ..
            } => {
                start.refresh_alphabets(registry);
                each.refresh_alphabets(registry);
                end.refresh_alphabets(registry);
            }
            Node::Times { child, .. } | Node::Plus { child, .. } => {
                child.refresh_alphabets(registry);
            }
            Node::At { .. } | Node::Every { .. } => {}
            Node::Within { child, .. }
            | Node::Window { child, .. }
            | Node::Aggregate { child, .. } => {
                child.refresh_alphabets(registry);
            }
        }
    }

    /// Pre-order export of every node's state (checkpoint persistence).
    fn export_state(&self, out: &mut Vec<NodeState>) {
        match self {
            Node::Primitive { .. } | Node::At { .. } | Node::Every { .. } => {
                out.push(NodeState::Stateless);
            }
            Node::Or { left, right } => {
                out.push(NodeState::Stateless);
                left.export_state(out);
                right.export_state(out);
            }
            Node::And {
                left,
                right,
                lbuf,
                rbuf,
                ..
            } => {
                out.push(NodeState::Bufs(vec![
                    lbuf.items.iter().cloned().collect(),
                    rbuf.items.iter().cloned().collect(),
                ]));
                left.export_state(out);
                right.export_state(out);
            }
            Node::Seq {
                left, right, lbuf, ..
            } => {
                out.push(NodeState::Bufs(vec![lbuf.items.iter().cloned().collect()]));
                left.export_state(out);
                right.export_state(out);
            }
            Node::Any {
                children, latest, ..
            } => {
                out.push(NodeState::Latest(latest.clone()));
                for c in children {
                    c.export_state(out);
                }
            }
            Node::Not {
                watch,
                start,
                end,
                open,
                violated,
                ..
            } => {
                out.push(NodeState::Open {
                    open: open.clone(),
                    violated: *violated,
                });
                watch.export_state(out);
                start.export_state(out);
                end.export_state(out);
            }
            Node::Aperiodic {
                start,
                each,
                end,
                open,
                ..
            } => {
                out.push(NodeState::Open {
                    open: open.clone(),
                    violated: false,
                });
                start.export_state(out);
                each.export_state(out);
                end.export_state(out);
            }
            Node::Times { child, buf, .. } => {
                out.push(NodeState::Bufs(vec![buf.items.iter().cloned().collect()]));
                child.export_state(out);
            }
            Node::Plus { child, pending, .. } => {
                out.push(NodeState::Bufs(vec![pending
                    .items
                    .iter()
                    .cloned()
                    .collect()]));
                child.export_state(out);
            }
            Node::Within { child, .. } => {
                out.push(NodeState::Stateless);
                child.export_state(out);
            }
            Node::Window { child, marks, .. } => {
                out.push(NodeState::Marks(marks.export()));
                child.export_state(out);
            }
            Node::Aggregate {
                child,
                wbuf,
                epoch,
                latched,
                ..
            } => {
                out.push(NodeState::Windowed {
                    items: wbuf.iter().cloned().collect(),
                    epoch: *epoch,
                    latched: *latched,
                });
                child.export_state(out);
            }
        }
    }

    /// Pre-order import matching [`export_state`](Self::export_state);
    /// `false` on any shape mismatch.
    fn import_state(&mut self, it: &mut std::slice::Iter<'_, NodeState>) -> bool {
        let Some(st) = it.next() else {
            return false;
        };
        match (self, st) {
            (Node::Primitive { .. }, NodeState::Stateless)
            | (Node::At { .. }, NodeState::Stateless)
            | (Node::Every { .. }, NodeState::Stateless) => true,
            (Node::Or { left, right }, NodeState::Stateless) => {
                left.import_state(it) && right.import_state(it)
            }
            (
                Node::And {
                    left,
                    right,
                    lbuf,
                    rbuf,
                    ..
                },
                NodeState::Bufs(bufs),
            ) if bufs.len() == 2 => {
                lbuf.items = bufs[0].iter().cloned().collect();
                rbuf.items = bufs[1].iter().cloned().collect();
                left.import_state(it) && right.import_state(it)
            }
            (
                Node::Seq {
                    left, right, lbuf, ..
                },
                NodeState::Bufs(bufs),
            ) if bufs.len() == 1 => {
                lbuf.items = bufs[0].iter().cloned().collect();
                left.import_state(it) && right.import_state(it)
            }
            (
                Node::Any {
                    children, latest, ..
                },
                NodeState::Latest(slots),
            ) if slots.len() == latest.len() => {
                latest.clone_from(slots);
                children.iter_mut().all(|c| c.import_state(it))
            }
            (
                Node::Not {
                    watch,
                    start,
                    end,
                    open,
                    violated,
                    ..
                },
                NodeState::Open {
                    open: o,
                    violated: v,
                },
            ) => {
                *open = o.clone();
                *violated = *v;
                watch.import_state(it) && start.import_state(it) && end.import_state(it)
            }
            (
                Node::Aperiodic {
                    start,
                    each,
                    end,
                    open,
                    ..
                },
                NodeState::Open { open: o, .. },
            ) => {
                *open = o.clone();
                start.import_state(it) && each.import_state(it) && end.import_state(it)
            }
            (Node::Times { child, buf, .. }, NodeState::Bufs(bufs)) if bufs.len() == 1 => {
                buf.items = bufs[0].iter().cloned().collect();
                child.import_state(it)
            }
            (Node::Plus { child, pending, .. }, NodeState::Bufs(bufs)) if bufs.len() == 1 => {
                pending.items = bufs[0].iter().cloned().collect();
                child.import_state(it)
            }
            (Node::Within { child, .. }, NodeState::Stateless) => child.import_state(it),
            (Node::Window { child, marks, .. }, NodeState::Marks(samples)) => {
                *marks = Watermarks::import(samples.clone());
                child.import_state(it)
            }
            (
                Node::Aggregate {
                    child,
                    wbuf,
                    epoch,
                    latched,
                    ..
                },
                NodeState::Windowed {
                    items,
                    epoch: e,
                    latched: l,
                },
            ) => {
                *wbuf = items.iter().cloned().collect();
                *epoch = *e;
                *latched = *l;
                child.import_state(it)
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PrimitiveEventSpec as P;
    use sentinel_object::{ClassDecl, Oid, Value};
    use std::sync::Arc;

    /// Schema with two reactive classes used throughout. The one-letter
    /// methods are the operands of the composite-operator tests.
    fn registry() -> ClassRegistry {
        let mut reg = ClassRegistry::new();
        let mut stock = ClassDecl::reactive("Stock").method("SetPrice", &[]);
        for m in ["a", "b", "c", "s", "m", "e", "w"] {
            stock = stock.method(m, &[]);
        }
        reg.define(stock).unwrap();
        reg.define(
            ClassDecl::reactive("FinancialInfo")
                .method("SetValue", &[])
                .method("c", &[]),
        )
        .unwrap();
        reg.define(ClassDecl::reactive("Growth").parent("Stock"))
            .unwrap();
        reg
    }

    fn occ(reg: &ClassRegistry, at: u64, class: &str, method: &str) -> PrimitiveOccurrence {
        let cid = reg.id_of(class).unwrap();
        PrimitiveOccurrence {
            at,
            oid: Oid(at),
            class: cid,
            owner: cid,
            method: method.into(),
            modifier: EventModifier::End,
            params: Arc::from(vec![Value::Int(at as i64)]),
        }
    }

    fn stock(m: &str) -> EventExpr {
        EventExpr::primitive(P::end("Stock", m))
    }
    fn fininfo(m: &str) -> EventExpr {
        EventExpr::primitive(P::end("FinancialInfo", m))
    }

    #[test]
    fn primitive_matches_class_method_modifier() {
        let reg = registry();
        let mut d = DetectorInstance::compile_default(&stock("SetPrice"), &reg).unwrap();
        assert_eq!(d.process(&reg, &occ(&reg, 1, "Stock", "SetPrice")).len(), 1);
        // Wrong method.
        assert!(d.process(&reg, &occ(&reg, 2, "Stock", "Other")).is_empty());
        // Wrong class.
        assert!(d
            .process(&reg, &occ(&reg, 3, "FinancialInfo", "SetPrice"))
            .is_empty());
        // Wrong modifier.
        let mut begin_occ = occ(&reg, 4, "Stock", "SetPrice");
        begin_occ.modifier = EventModifier::Begin;
        assert!(d.process(&reg, &begin_occ).is_empty());
        let s = d.stats();
        assert_eq!(s.offered, 4);
        assert_eq!(s.matched, 1);
        assert_eq!(s.emitted, 1);
    }

    #[test]
    fn primitive_matches_subclass_instances() {
        let reg = registry();
        let mut d = DetectorInstance::compile_default(&stock("SetPrice"), &reg).unwrap();
        // Growth is a subclass of Stock: its invocations match.
        assert_eq!(
            d.process(&reg, &occ(&reg, 1, "Growth", "SetPrice")).len(),
            1
        );
    }

    #[test]
    fn subclass_defined_after_compile_still_matches() {
        // The leaf alphabet is computed at compile time; defining a new
        // subclass afterwards must refresh it (lazily, keyed on registry
        // length) so the subclass's fresh symbols match.
        let mut reg = registry();
        let mut d = DetectorInstance::compile_default(&stock("SetPrice"), &reg).unwrap();
        assert_eq!(d.process(&reg, &occ(&reg, 1, "Stock", "SetPrice")).len(), 1);
        reg.define(ClassDecl::reactive("Late").parent("Stock"))
            .unwrap();
        assert_eq!(d.process(&reg, &occ(&reg, 2, "Late", "SetPrice")).len(), 1);
        // And the pre-resolved entry point agrees.
        let o = occ(&reg, 3, "Late", "SetPrice");
        let sym = o.sym(&reg);
        assert!(sym.is_some());
        assert_eq!(d.process_resolved(&reg, &o, sym).len(), 1);
    }

    #[test]
    fn compile_rejects_unknown_class() {
        let reg = registry();
        let err =
            DetectorInstance::compile_default(&EventExpr::primitive(P::end("Nope", "m")), &reg)
                .err()
                .unwrap();
        assert!(matches!(err, sentinel_object::ObjectError::UnknownClass(_)));
    }

    #[test]
    fn conjunction_detects_in_any_order() {
        let reg = registry();
        let expr = stock("SetPrice").and(fininfo("SetValue"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        assert!(d
            .process(&reg, &occ(&reg, 1, "Stock", "SetPrice"))
            .is_empty());
        let got = d.process(&reg, &occ(&reg, 2, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].start, 1);
        assert_eq!(got[0].end, 2);
        // Reverse order also detects.
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        assert!(d
            .process(&reg, &occ(&reg, 3, "FinancialInfo", "SetValue"))
            .is_empty());
        assert_eq!(d.process(&reg, &occ(&reg, 4, "Stock", "SetPrice")).len(), 1);
    }

    #[test]
    fn conjunction_unrestricted_all_combinations() {
        let reg = registry();
        let expr = stock("SetPrice").and(fininfo("SetValue"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        d.process(&reg, &occ(&reg, 1, "Stock", "SetPrice"));
        d.process(&reg, &occ(&reg, 2, "Stock", "SetPrice"));
        // Two buffered lefts: one right pairs with both.
        let got = d.process(&reg, &occ(&reg, 3, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 2);
        // Nothing is consumed: another right pairs with both lefts again.
        let got = d.process(&reg, &occ(&reg, 4, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 2);
        assert_eq!(d.buffered(), 4);
    }

    #[test]
    fn disjunction_forwards_both_sides() {
        let reg = registry();
        let expr = stock("SetPrice").or(fininfo("SetValue"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        assert_eq!(d.process(&reg, &occ(&reg, 1, "Stock", "SetPrice")).len(), 1);
        assert_eq!(
            d.process(&reg, &occ(&reg, 2, "FinancialInfo", "SetValue"))
                .len(),
            1
        );
        assert!(d
            .process(&reg, &occ(&reg, 3, "Stock", "Nothing"))
            .is_empty());
        assert_eq!(d.buffered(), 0, "disjunction is stateless");
    }

    #[test]
    fn sequence_requires_order() {
        let reg = registry();
        let expr = stock("SetPrice").then(fininfo("SetValue"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        // Right before left: no detection, right is discarded.
        assert!(d
            .process(&reg, &occ(&reg, 1, "FinancialInfo", "SetValue"))
            .is_empty());
        assert!(d
            .process(&reg, &occ(&reg, 2, "Stock", "SetPrice"))
            .is_empty());
        let got = d.process(&reg, &occ(&reg, 3, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].start, got[0].end), (2, 3));
    }

    #[test]
    fn nested_composites_propagate() {
        // (a ; b) && c — paper: "E1 and E2 may potentially be composite".
        let reg = registry();
        let expr = stock("a").then(stock("b")).and(fininfo("c"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        d.process(&reg, &occ(&reg, 1, "Stock", "a"));
        d.process(&reg, &occ(&reg, 2, "FinancialInfo", "c"));
        // Seq completes now, pairing with buffered c.
        let got = d.process(&reg, &occ(&reg, 3, "Stock", "b"));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].constituents.len(), 3);
        assert_eq!((got[0].start, got[0].end), (1, 3));
    }

    #[test]
    fn same_primitive_on_both_sides_of_and() {
        // And(e, e): one occurrence matches both children and pairs with
        // itself exactly once.
        let reg = registry();
        let expr = stock("SetPrice").and(stock("SetPrice"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        let got = d.process(&reg, &occ(&reg, 1, "Stock", "SetPrice"));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].constituents.len(), 2);
    }

    #[test]
    fn same_primitive_on_both_sides_of_seq_never_self_pairs() {
        // Seq(e, e): an occurrence is not strictly after itself.
        let reg = registry();
        let expr = stock("SetPrice").then(stock("SetPrice"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        assert!(d
            .process(&reg, &occ(&reg, 1, "Stock", "SetPrice"))
            .is_empty());
        // Second occurrence pairs with the first.
        assert_eq!(d.process(&reg, &occ(&reg, 2, "Stock", "SetPrice")).len(), 1);
    }

    #[test]
    fn recent_context_keeps_latest_initiator() {
        let reg = registry();
        let expr = stock("SetPrice").and(fininfo("SetValue"));
        let mut d =
            DetectorInstance::compile(&expr, &reg, ParamContext::Recent, DetectorCaps::default())
                .unwrap();
        d.process(&reg, &occ(&reg, 1, "Stock", "SetPrice"));
        d.process(&reg, &occ(&reg, 2, "Stock", "SetPrice")); // replaces t=1
        let got = d.process(&reg, &occ(&reg, 3, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].start, 2, "most recent left wins");
        // Initiator retained: another terminator pairs again.
        let got = d.process(&reg, &occ(&reg, 4, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 1);
        assert!(d.buffered() <= 1, "recent context state is bounded");
    }

    #[test]
    fn chronicle_context_pairs_fifo_and_consumes() {
        let reg = registry();
        let expr = stock("SetPrice").and(fininfo("SetValue"));
        let mut d = DetectorInstance::compile(
            &expr,
            &reg,
            ParamContext::Chronicle,
            DetectorCaps::default(),
        )
        .unwrap();
        d.process(&reg, &occ(&reg, 1, "Stock", "SetPrice"));
        d.process(&reg, &occ(&reg, 2, "Stock", "SetPrice"));
        let got = d.process(&reg, &occ(&reg, 3, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].start, 1, "oldest left pairs first");
        let got = d.process(&reg, &occ(&reg, 4, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].start, 2);
        // Both lefts consumed.
        let got = d.process(&reg, &occ(&reg, 5, "FinancialInfo", "SetValue"));
        assert!(got.is_empty());
    }

    #[test]
    fn cumulative_context_flushes_everything_once() {
        let reg = registry();
        let expr = stock("SetPrice").and(fininfo("SetValue"));
        let mut d = DetectorInstance::compile(
            &expr,
            &reg,
            ParamContext::Cumulative,
            DetectorCaps::default(),
        )
        .unwrap();
        d.process(&reg, &occ(&reg, 1, "Stock", "SetPrice"));
        d.process(&reg, &occ(&reg, 2, "Stock", "SetPrice"));
        let got = d.process(&reg, &occ(&reg, 3, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].constituents.len(), 3, "all occurrences flushed");
        assert_eq!(d.buffered(), 0);
    }

    #[test]
    fn any_two_of_three() {
        let reg = registry();
        let expr = EventExpr::any(2, vec![stock("a"), stock("b"), stock("c")]);
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        assert!(d.process(&reg, &occ(&reg, 1, "Stock", "a")).is_empty());
        // Repeats of the same child do not complete.
        assert!(d.process(&reg, &occ(&reg, 2, "Stock", "a")).is_empty());
        let got = d.process(&reg, &occ(&reg, 3, "Stock", "c"));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].constituents.len(), 2);
        // State cleared after detection.
        assert!(d.process(&reg, &occ(&reg, 4, "Stock", "b")).is_empty());
    }

    #[test]
    fn not_between_window() {
        let reg = registry();
        let expr = EventExpr::not_between(stock("w"), stock("s"), stock("e"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        // s .. e with no w: detect.
        d.process(&reg, &occ(&reg, 1, "Stock", "s"));
        assert_eq!(d.process(&reg, &occ(&reg, 2, "Stock", "e")).len(), 1);
        // s .. w .. e: suppressed.
        d.process(&reg, &occ(&reg, 3, "Stock", "s"));
        d.process(&reg, &occ(&reg, 4, "Stock", "w"));
        assert!(d.process(&reg, &occ(&reg, 5, "Stock", "e")).is_empty());
        // e without open window: nothing.
        assert!(d.process(&reg, &occ(&reg, 6, "Stock", "e")).is_empty());
    }

    #[test]
    fn aperiodic_emits_each_inside_window() {
        let reg = registry();
        let expr = EventExpr::aperiodic(stock("s"), stock("m"), stock("e"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        assert!(d.process(&reg, &occ(&reg, 1, "Stock", "m")).is_empty());
        d.process(&reg, &occ(&reg, 2, "Stock", "s"));
        assert_eq!(d.process(&reg, &occ(&reg, 3, "Stock", "m")).len(), 1);
        assert_eq!(d.process(&reg, &occ(&reg, 4, "Stock", "m")).len(), 1);
        d.process(&reg, &occ(&reg, 5, "Stock", "e"));
        assert!(d.process(&reg, &occ(&reg, 6, "Stock", "m")).is_empty());
    }

    #[test]
    fn caps_drop_oldest_and_count() {
        let reg = registry();
        let expr = stock("SetPrice").and(fininfo("SetValue"));
        let mut d = DetectorInstance::compile(
            &expr,
            &reg,
            ParamContext::Unrestricted,
            DetectorCaps {
                max_buffered_per_node: 2,
            },
        )
        .unwrap();
        for t in 1..=5 {
            d.process(&reg, &occ(&reg, t, "Stock", "SetPrice"));
        }
        assert_eq!(d.buffered(), 2);
        assert_eq!(d.stats().dropped, 3);
        // Only the two newest survive to pair.
        let got = d.process(&reg, &occ(&reg, 6, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 2);
        assert_eq!(got.iter().map(|g| g.start).min(), Some(4));
    }

    #[test]
    fn reset_clears_partial_state() {
        let reg = registry();
        let expr = stock("SetPrice").and(fininfo("SetValue"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        d.process(&reg, &occ(&reg, 1, "Stock", "SetPrice"));
        assert_eq!(d.buffered(), 1);
        d.reset();
        assert_eq!(d.buffered(), 0);
        assert!(d
            .process(&reg, &occ(&reg, 2, "FinancialInfo", "SetValue"))
            .is_empty());
    }

    // -----------------------------------------------------------------
    // Journal (transactional detection state) tests
    // -----------------------------------------------------------------

    /// Drive the same stream through a journaled detector (which then
    /// aborts) and assert its state equals the pre-transaction clone.
    fn assert_abort_restores(
        expr: &EventExpr,
        ctx: ParamContext,
        pre: &[PrimitiveOccurrence],
        during: &[PrimitiveOccurrence],
        reg: &ClassRegistry,
    ) {
        let mut d = DetectorInstance::compile(expr, reg, ctx, DetectorCaps::default()).unwrap();
        for o in pre {
            d.process(reg, o);
        }
        let snapshot = d.clone();
        d.begin_txn();
        for o in during {
            d.process(reg, o);
        }
        d.abort_txn();
        // Equality via behaviour: same buffered count and identical
        // emissions for a common probe suffix.
        assert_eq!(d.buffered(), snapshot.buffered(), "buffered after abort");
        let mut d2 = snapshot;
        let probe: Vec<PrimitiveOccurrence> = (1000..1010)
            .map(|t| occ(reg, t, "Stock", "SetPrice"))
            .chain((1010..1020).map(|t| occ(reg, t, "FinancialInfo", "SetValue")))
            .collect();
        for o in &probe {
            assert_eq!(
                d.process(reg, o),
                d2.process(reg, o),
                "behavioural divergence after abort"
            );
        }
    }

    #[test]
    fn abort_restores_state_across_contexts() {
        let reg = registry();
        let expr = stock("SetPrice").and(fininfo("SetValue"));
        let pre: Vec<_> = (1..6).map(|t| occ(&reg, t, "Stock", "SetPrice")).collect();
        let during: Vec<_> = vec![
            occ(&reg, 10, "FinancialInfo", "SetValue"), // consumes under chronicle
            occ(&reg, 11, "Stock", "SetPrice"),
            occ(&reg, 12, "FinancialInfo", "SetValue"),
        ];
        for ctx in ParamContext::ALL {
            assert_abort_restores(&expr, ctx, &pre, &during, &reg);
        }
    }

    #[test]
    fn abort_restores_seq_and_extensions() {
        let reg = registry();
        let pre: Vec<_> = (1..4).map(|t| occ(&reg, t, "Stock", "SetPrice")).collect();
        let during: Vec<_> = vec![
            occ(&reg, 10, "FinancialInfo", "SetValue"),
            occ(&reg, 11, "Stock", "SetPrice"),
        ];
        let seq = stock("SetPrice").then(fininfo("SetValue"));
        for ctx in ParamContext::ALL {
            assert_abort_restores(&seq, ctx, &pre, &during, &reg);
        }
        // Any / Not / Aperiodic use window state.
        let any = EventExpr::any(2, vec![stock("SetPrice"), fininfo("SetValue"), stock("x")]);
        assert_abort_restores(&any, ParamContext::Unrestricted, &pre, &during, &reg);
        let not = EventExpr::not_between(stock("w"), stock("SetPrice"), fininfo("SetValue"));
        assert_abort_restores(&not, ParamContext::Unrestricted, &pre, &during, &reg);
        let ap = EventExpr::aperiodic(stock("SetPrice"), fininfo("SetValue"), stock("e"));
        assert_abort_restores(&ap, ParamContext::Unrestricted, &pre, &during, &reg);
    }

    #[test]
    fn abort_restores_consumed_occurrences() {
        // The banking regression shape, at detector level: a chronicle
        // sequence whose left constituent is consumed inside the aborted
        // transaction must be re-armed.
        let reg = registry();
        let expr = stock("SetPrice").then(fininfo("SetValue"));
        let mut d = DetectorInstance::compile(
            &expr,
            &reg,
            ParamContext::Chronicle,
            DetectorCaps::default(),
        )
        .unwrap();
        d.process(&reg, &occ(&reg, 1, "Stock", "SetPrice"));
        d.begin_txn();
        let got = d.process(&reg, &occ(&reg, 2, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 1, "detection inside the transaction");
        d.abort_txn();
        // The left is armed again: a new terminator pairs.
        let got = d.process(&reg, &occ(&reg, 3, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 1, "consumed occurrence restored by abort");
    }

    #[test]
    fn commit_keeps_transaction_state() {
        let reg = registry();
        let expr = stock("SetPrice").and(fininfo("SetValue"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        d.begin_txn();
        d.process(&reg, &occ(&reg, 1, "Stock", "SetPrice"));
        d.commit_txn();
        assert_eq!(d.buffered(), 1);
        let got = d.process(&reg, &occ(&reg, 2, "FinancialInfo", "SetValue"));
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn reset_inside_txn_is_undone_by_abort() {
        let reg = registry();
        let expr = stock("SetPrice").and(fininfo("SetValue"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        d.process(&reg, &occ(&reg, 1, "Stock", "SetPrice"));
        d.begin_txn();
        d.reset();
        assert_eq!(d.buffered(), 0);
        d.abort_txn();
        assert_eq!(d.buffered(), 1, "reset rolled back");
    }

    #[test]
    fn journal_overhead_is_constant_per_event() {
        // The journal must not clone buffers on append-only workloads:
        // with N buffered occurrences, a journaled append stays O(1).
        // (Guarded indirectly: entries recorded equal events processed.)
        let reg = registry();
        let expr = stock("SetPrice").and(fininfo("SetValue"));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        for t in 1..=1000 {
            d.process(&reg, &occ(&reg, t, "Stock", "SetPrice"));
        }
        d.begin_txn();
        d.process(&reg, &occ(&reg, 2000, "Stock", "SetPrice"));
        assert_eq!(
            d.journal.as_ref().map(|j| j.len()),
            Some(1),
            "one journal marker for one append"
        );
        d.commit_txn();
    }
}

#[cfg(test)]
mod extension_op_tests {
    use super::*;
    use crate::spec::PrimitiveEventSpec as P;
    use sentinel_object::{ClassDecl, Oid, Value};
    use std::sync::Arc;

    fn registry() -> ClassRegistry {
        let mut reg = ClassRegistry::new();
        reg.define(ClassDecl::reactive("C").method("m", &[]).method("x", &[]))
            .unwrap();
        reg
    }

    fn occ(reg: &ClassRegistry, at: u64, method: &str) -> PrimitiveOccurrence {
        let cid = reg.id_of("C").unwrap();
        PrimitiveOccurrence {
            at,
            oid: Oid(at),
            class: cid,
            owner: cid,
            method: method.into(),
            modifier: EventModifier::End,
            params: Arc::from(Vec::<Value>::new()),
        }
    }

    fn leaf(m: &str) -> EventExpr {
        EventExpr::primitive(P::end("C", m))
    }

    #[test]
    fn times_emits_every_nth_and_consumes() {
        let reg = registry();
        let mut d = DetectorInstance::compile_default(&leaf("m").times(3), &reg).unwrap();
        let mut emissions = 0;
        for t in 1..=9 {
            emissions += d.process(&reg, &occ(&reg, t, "m")).len();
        }
        assert_eq!(emissions, 3, "9 occurrences / n=3");
        assert_eq!(d.buffered(), 0, "every group consumed");
        // Each emission carries its n constituents.
        let mut d = DetectorInstance::compile_default(&leaf("m").times(2), &reg).unwrap();
        d.process(&reg, &occ(&reg, 1, "m"));
        let got = d.process(&reg, &occ(&reg, 2, "m"));
        assert_eq!(got[0].constituents.len(), 2);
        assert_eq!((got[0].start, got[0].end), (1, 2));
    }

    #[test]
    fn times_abort_restores_partial_count() {
        let reg = registry();
        let mut d = DetectorInstance::compile_default(&leaf("m").times(3), &reg).unwrap();
        d.process(&reg, &occ(&reg, 1, "m"));
        d.begin_txn();
        d.process(&reg, &occ(&reg, 2, "m"));
        assert_eq!(d.process(&reg, &occ(&reg, 3, "m")).len(), 1);
        d.abort_txn();
        // Back to one buffered occurrence: two more complete the group.
        assert_eq!(d.buffered(), 1);
        d.process(&reg, &occ(&reg, 4, "m"));
        assert_eq!(d.process(&reg, &occ(&reg, 5, "m")).len(), 1);
    }

    #[test]
    fn plus_fires_lazily_at_or_after_deadline() {
        let reg = registry();
        // m + 10 ticks, signalled by whatever occurrence crosses it.
        let mut d = DetectorInstance::compile_default(&leaf("m").plus(10), &reg).unwrap();
        d.process(&reg, &occ(&reg, 5, "m")); // base at t=5, deadline 15
        assert!(d.process(&reg, &occ(&reg, 10, "x")).is_empty(), "too early");
        let got = d.process(&reg, &occ(&reg, 16, "x"));
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].start, got[0].end), (5, 16));
        assert_eq!(d.buffered(), 0);
    }

    #[test]
    fn plus_queues_multiple_bases_fifo() {
        let reg = registry();
        let mut d = DetectorInstance::compile_default(&leaf("m").plus(5), &reg).unwrap();
        d.process(&reg, &occ(&reg, 1, "m"));
        d.process(&reg, &occ(&reg, 3, "m"));
        // t=8 crosses 1+5 and 3+5: both fire, oldest first.
        let got = d.process(&reg, &occ(&reg, 8, "x"));
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].start, 1);
        assert_eq!(got[1].start, 3);
    }

    #[test]
    fn plus_abort_reinstates_pending_deadline() {
        let reg = registry();
        let mut d = DetectorInstance::compile_default(&leaf("m").plus(5), &reg).unwrap();
        d.process(&reg, &occ(&reg, 1, "m"));
        d.begin_txn();
        assert_eq!(d.process(&reg, &occ(&reg, 7, "x")).len(), 1);
        d.abort_txn();
        // The pending deadline is re-armed and fires again.
        assert_eq!(d.process(&reg, &occ(&reg, 9, "x")).len(), 1);
    }

    #[test]
    fn continuous_context_one_detection_per_initiator() {
        let reg = registry();
        let mut d = DetectorInstance::compile(
            &leaf("m").and(leaf("x")),
            &reg,
            ParamContext::Continuous,
            DetectorCaps::default(),
        )
        .unwrap();
        d.process(&reg, &occ(&reg, 1, "m"));
        d.process(&reg, &occ(&reg, 2, "m"));
        // The terminator completes *both* open initiators at once...
        let got = d.process(&reg, &occ(&reg, 3, "x"));
        assert_eq!(got.len(), 2);
        assert_eq!(d.buffered(), 0, "initiators consumed");
        // ...and a lone arrival afterwards opens a window of its own.
        assert!(d.process(&reg, &occ(&reg, 4, "x")).is_empty());
        assert_eq!(d.process(&reg, &occ(&reg, 5, "m")).len(), 1);
    }

    #[test]
    fn continuous_sequence_discards_unterminated_rights() {
        let reg = registry();
        let mut d = DetectorInstance::compile(
            &leaf("m").then(leaf("x")),
            &reg,
            ParamContext::Continuous,
            DetectorCaps::default(),
        )
        .unwrap();
        assert!(d.process(&reg, &occ(&reg, 1, "x")).is_empty());
        d.process(&reg, &occ(&reg, 2, "m"));
        d.process(&reg, &occ(&reg, 3, "m"));
        let got = d.process(&reg, &occ(&reg, 4, "x"));
        assert_eq!(got.len(), 2, "one detection per open initiator");
        assert_eq!(d.buffered(), 0);
        assert!(d.process(&reg, &occ(&reg, 5, "x")).is_empty());
    }

    #[test]
    fn composition_times_of_sequence() {
        // Every 2nd (a ; b) pair.
        let reg = registry();
        let expr = leaf("m").then(leaf("x")).times(2);
        let mut d = DetectorInstance::compile(
            &expr,
            &reg,
            ParamContext::Chronicle,
            DetectorCaps::default(),
        )
        .unwrap();
        let mut emissions = 0;
        for t in 0..8 {
            let m = if t % 2 == 0 { "m" } else { "x" };
            emissions += d.process(&reg, &occ(&reg, t + 1, m)).len();
        }
        // 4 sequence detections → 2 times-emissions of 4 constituents.
        assert_eq!(emissions, 2);
    }
}

#[cfg(test)]
mod temporal_op_tests {
    use super::*;
    use crate::algebra::AggFn;
    use crate::spec::PrimitiveEventSpec as P;
    use sentinel_object::{ClassDecl, Oid, Value};
    use std::sync::Arc;

    fn registry() -> ClassRegistry {
        let mut reg = ClassRegistry::new();
        reg.define(ClassDecl::reactive("C").method("m", &[]).method("x", &[]))
            .unwrap();
        reg
    }

    fn occ_amt(reg: &ClassRegistry, at: u64, method: &str, amount: i64) -> PrimitiveOccurrence {
        let cid = reg.id_of("C").unwrap();
        PrimitiveOccurrence {
            at,
            oid: Oid(at),
            class: cid,
            owner: cid,
            method: method.into(),
            modifier: EventModifier::End,
            params: Arc::from(vec![Value::Int(amount)]),
        }
    }

    fn occ(reg: &ClassRegistry, at: u64, method: &str) -> PrimitiveOccurrence {
        occ_amt(reg, at, method, at as i64)
    }

    fn leaf(m: &str) -> EventExpr {
        EventExpr::primitive(P::end("C", m))
    }

    #[test]
    fn at_timer_fires_only_via_the_timer_path() {
        let reg = registry();
        let mut d = DetectorInstance::compile_default(&EventExpr::at(5), &reg).unwrap();
        // Primitive occurrences never match a timer leaf.
        assert!(d.process(&reg, &occ(&reg, 1, "m")).is_empty());
        let got = d.process_timer(0, 5, 2);
        assert_eq!(got.len(), 1);
        assert!(got[0].constituents.is_empty(), "a tick has no parameters");
        assert_eq!((got[0].start, got[0].end), (2, 2));
        assert_eq!(d.stats().matched, 1);
    }

    #[test]
    fn timer_pairs_in_sequence_like_an_event() {
        // m ; every(10) — the tick terminates the sequence.
        let reg = registry();
        let expr = leaf("m").then(EventExpr::every(10));
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        d.process(&reg, &occ(&reg, 5, "m"));
        let got = d.process_timer(0, 10, 6);
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].start, got[0].end), (5, 6));
        assert_eq!(got[0].constituents.len(), 1, "only the event constituent");
        // A fire addressed to a different leaf index is ignored.
        assert!(d.process_timer(1, 20, 7).is_empty());
    }

    #[test]
    fn timer_fire_inside_txn_is_undone_by_abort() {
        let reg = registry();
        let expr = leaf("m").then(EventExpr::every(5));
        let mut d = DetectorInstance::compile(
            &expr,
            &reg,
            ParamContext::Chronicle,
            DetectorCaps::default(),
        )
        .unwrap();
        d.process(&reg, &occ(&reg, 1, "m"));
        d.begin_txn();
        assert_eq!(d.process_timer(0, 5, 2).len(), 1);
        d.abort_txn();
        // The consumed left is re-armed: the next fire pairs again.
        assert_eq!(d.process_timer(0, 10, 3).len(), 1);
    }

    #[test]
    fn within_filters_by_span_and_evicts_stale_state() {
        let reg = registry();
        let expr = leaf("m").then(leaf("x")).within(5);
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        d.process(&reg, &occ(&reg, 1, "m"));
        // Nine ticks later: over the deadline — and the stale left was
        // evicted before it could pair.
        assert!(d.process(&reg, &occ(&reg, 10, "x")).is_empty());
        assert_eq!(d.buffered(), 0, "stale operand state evicted");
        d.process(&reg, &occ(&reg, 20, "m"));
        let got = d.process(&reg, &occ(&reg, 23, "x"));
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].start, got[0].end), (20, 23));
    }

    #[test]
    fn within_bounds_memory_under_never_completing_composite() {
        // Regression: an unrestricted Seq buffers every left forever when
        // its right never arrives. A `within` scope gives the buffer an
        // eviction rule, so memory stays bounded by the deadline.
        let reg = registry();
        let expr = leaf("m").then(leaf("x")).within(8);
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        for t in 1..=5_000 {
            d.process(&reg, &occ(&reg, t, "m"));
        }
        assert!(
            d.buffered() <= 10,
            "buffered {} grew past the deadline bound",
            d.buffered()
        );
        // And the unscoped control really does grow without bound.
        let mut ctl = DetectorInstance::compile_default(&leaf("m").then(leaf("x")), &reg).unwrap();
        for t in 1..=5_000 {
            ctl.process(&reg, &occ(&reg, t, "m"));
        }
        assert_eq!(ctl.buffered(), 5_000);
    }

    #[test]
    fn sliding_window_scopes_sequence_pairing() {
        // The fraud shape: m ; x inside a sliding window — constituents
        // further apart than the window never pair.
        let reg = registry();
        let expr = leaf("m").then(leaf("x")).sliding_window(10);
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        d.process(&reg, &occ(&reg, 1, "m"));
        assert!(d.process(&reg, &occ(&reg, 20, "x")).is_empty());
        assert_eq!(d.buffered(), 0, "out-of-window left evicted");
        d.process(&reg, &occ(&reg, 21, "m"));
        assert_eq!(d.process(&reg, &occ(&reg, 25, "x")).len(), 1);
    }

    #[test]
    fn sliding_aggregate_latches_on_crossing() {
        let reg = registry();
        let expr = leaf("m").count_within(5, 2);
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        assert!(d.process(&reg, &occ(&reg, 3, "m")).is_empty());
        // Window (1, 6] holds both: crossing emits once...
        let got = d.process(&reg, &occ(&reg, 6, "m"));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].constituents.len(), 2);
        // ...and the overlapping window at t=9 ({6, 9}) stays latched.
        assert!(d.process(&reg, &occ(&reg, 9, "m")).is_empty());
        // A lull drops the count below threshold: unlatch...
        assert!(d.process(&reg, &occ(&reg, 15, "m")).is_empty());
        // ...so the next crossing fires again.
        assert_eq!(d.process(&reg, &occ(&reg, 16, "m")).len(), 1);
    }

    #[test]
    fn tumbling_edge_starts_the_new_epoch() {
        let reg = registry();
        let expr = leaf("m").aggregate(10, true, AggFn::Count, 2);
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        d.process(&reg, &occ(&reg, 8, "m"));
        assert_eq!(d.process(&reg, &occ(&reg, 9, "m")).len(), 1);
        // t=10 sits exactly on the edge: it belongs to the NEW epoch, so
        // the count restarts at 1.
        assert!(d.process(&reg, &occ(&reg, 10, "m")).is_empty());
        assert_eq!(d.process(&reg, &occ(&reg, 11, "m")).len(), 1);
    }

    #[test]
    fn empty_window_aggregation_is_silent() {
        let reg = registry();
        let expr = leaf("m").aggregate(10, true, AggFn::Count, 1);
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        d.process(&reg, &occ(&reg, 5, "m"));
        // An unrelated stimulus two epochs later rolls the window; the
        // empty window must not emit (count 0 never crosses).
        assert!(d.process(&reg, &occ(&reg, 25, "x")).is_empty());
        assert_eq!(d.buffered(), 0);
        assert_eq!(d.process(&reg, &occ(&reg, 26, "m")).len(), 1);
    }

    #[test]
    fn sum_aggregate_over_params() {
        let reg = registry();
        let expr = leaf("m").sum_within(10, 0, 100);
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        assert!(d.process(&reg, &occ_amt(&reg, 1, "m", 60)).is_empty());
        let got = d.process(&reg, &occ_amt(&reg, 3, "m", 50));
        assert_eq!(got.len(), 1, "60 + 50 crosses 100");
        // After the pair slides out, small amounts stay silent.
        assert!(d.process(&reg, &occ_amt(&reg, 30, "m", 50)).is_empty());
    }

    #[test]
    fn aggregate_abort_restores_window_state() {
        let reg = registry();
        let expr = leaf("m").count_within(10, 2);
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        d.process(&reg, &occ(&reg, 1, "m"));
        d.begin_txn();
        assert_eq!(d.process(&reg, &occ(&reg, 2, "m")).len(), 1);
        d.abort_txn();
        // The aborted arrival and the latch are both rolled back.
        assert_eq!(d.buffered(), 1);
        assert_eq!(d.process(&reg, &occ(&reg, 3, "m")).len(), 1);
    }

    #[test]
    fn detector_state_round_trips_mid_sequence() {
        let reg = registry();
        let expr = leaf("m").then(leaf("x"));
        let mut d = DetectorInstance::compile(
            &expr,
            &reg,
            ParamContext::Chronicle,
            DetectorCaps::default(),
        )
        .unwrap();
        d.process(&reg, &occ(&reg, 1, "m"));
        let st = d.export_state();
        assert!(!st.is_trivial());
        // Serde round trip, as the checkpoint snapshot does it.
        let bytes = serde_json::to_vec(&st).unwrap();
        let st: DetectorState = serde_json::from_slice(&bytes).unwrap();
        // A fresh instance (the recovered process) resumes mid-sequence.
        let mut d2 = DetectorInstance::compile(
            &expr,
            &reg,
            ParamContext::Chronicle,
            DetectorCaps::default(),
        )
        .unwrap();
        assert!(d2.import_state(&st));
        assert_eq!(d2.process(&reg, &occ(&reg, 2, "x")).len(), 1);
    }

    #[test]
    fn state_import_rejects_shape_mismatch() {
        let reg = registry();
        let mut seq = DetectorInstance::compile_default(&leaf("m").then(leaf("x")), &reg).unwrap();
        seq.process(&reg, &occ(&reg, 1, "m"));
        let st = seq.export_state();
        let mut and = DetectorInstance::compile_default(&leaf("m").and(leaf("x")), &reg).unwrap();
        assert!(!and.import_state(&st), "And expects two buffer sides");
        assert_eq!(and.buffered(), 0, "failed import leaves state untouched");
    }

    #[test]
    fn aggregate_state_round_trips_with_instants() {
        let reg = registry();
        let expr = leaf("m").count_within(10, 2);
        let mut d = DetectorInstance::compile_default(&expr, &reg).unwrap();
        d.process(&reg, &occ(&reg, 5, "m"));
        let st = d.export_state();
        let mut d2 = DetectorInstance::compile_default(&expr, &reg).unwrap();
        assert!(d2.import_state(&st));
        assert_eq!(d2.process(&reg, &occ(&reg, 6, "m")).len(), 1);
    }

    #[test]
    fn abort_restores_temporal_operators() {
        // The journal property extends to the new operators.
        let reg = registry();
        let pre: Vec<_> = (1..4).map(|t| occ(&reg, t, "m")).collect();
        let during: Vec<_> = vec![occ(&reg, 5, "x"), occ(&reg, 6, "m")];
        for expr in [
            leaf("m").then(leaf("x")).within(20),
            leaf("m").then(leaf("x")).sliding_window(20),
            leaf("m").count_within(20, 3),
            leaf("m").sum_within(20, 0, 10),
        ] {
            for ctx in ParamContext::ALL {
                let mut d =
                    DetectorInstance::compile(&expr, &reg, ctx, DetectorCaps::default()).unwrap();
                for o in &pre {
                    d.process(&reg, o);
                }
                let snapshot = d.clone();
                d.begin_txn();
                for o in &during {
                    d.process(&reg, o);
                }
                d.abort_txn();
                assert_eq!(d.buffered(), snapshot.buffered(), "buffered after abort");
                let mut d2 = snapshot;
                for t in 100..110 {
                    let m = if t % 2 == 0 { "m" } else { "x" };
                    assert_eq!(
                        d.process(&reg, &occ(&reg, t, m)),
                        d2.process(&reg, &occ(&reg, t, m)),
                        "behavioural divergence after abort"
                    );
                }
            }
        }
    }
}
