#![warn(missing_docs)]
//! # sentinel-analyze — static analysis for ECA rule sets
//!
//! The paper makes rules first-class objects installable at runtime,
//! spanning classes the rule author never wrote (§3–§4) — exactly the
//! setting where a rule set can silently contain infinite trigger
//! cascades, dead rules, and shadowed subscriptions. This crate checks
//! those properties *statically*, in the tradition of the
//! termination/confluence analyses for active rule programs (Flesca &
//! Greco; Aiken/Widom/Hellerstein):
//!
//! * **Triggering graph** ([`TriggeringGraph`]) — nodes are rules; an
//!   edge R1→R2 exists when R1's action can raise an event in R2's
//!   alphabet on an object R2 is subscribed to. Cycles of definite
//!   edges are non-termination findings, graded by coupling mode
//!   (an Immediate-coupled cycle is an error; Deferred/Detached-only
//!   cycles a warning); cycles that exist only through conservative
//!   "effects unknown" edges are informational.
//! * **Confluence** — same-priority rules that can trigger on the same
//!   occurrence and whose declared writes overlap have an
//!   order-dependent final state.
//! * **Reachability** — rules subscribed to targets whose classes can
//!   never emit any symbol of the rule's alphabet, rules with no
//!   subscriptions, rules disabled with no enabler in sight, rules
//!   shadowed by a higher-priority unconditional `abort`.
//! * **Well-formedness** — `Seq` operands that can never occur, `Plus`
//!   deadlines of zero, conjunctions duplicating a primitive,
//!   unregistered condition/action bodies.
//!
//! Because actions are opaque Rust closures, precision comes from the
//! *declared-effects* contract ([`ActionEffects`] in `sentinel-rules`):
//! authors declare at registration what an action may raise and write.
//! Undeclared actions are conservatively treated as "may raise
//! anything" and tagged with an `unknown-effects` info lint. An opt-in
//! runtime recorder (`sentinel-db`) captures *actual* raises/writes and
//! [`diff_effects`] reports divergence from the declarations.
//!
//! On top of the refined graph sits the **termination prover**
//! ([`termination`]): edges the declared effects refute are pruned,
//! remaining cycles are discharged by abort-shadow / no-self-feedback /
//! no-event-feedback arguments, and every rule receives a verdict —
//! `Proven(bound)` with a static cascade-depth bound, or
//! `CycleUndischarged` / `Unbounded`. The runtime reconciliation pass
//! ([`reconcile_bounds`]) checks observed lineage depth watermarks
//! against the proven bounds, so a lying effect declaration cannot
//! silently invalidate a proof.

pub mod analyzer;
pub mod conflict;
pub mod diagnostic;
pub mod effects;
pub mod graph;
pub mod reconcile;
pub mod termination;

pub use analyzer::{AnalysisReport, RuleAnalyzer};
pub use conflict::{ConflictMatrix, Lane, ResolvedPattern, RuleFootprint, SerialReason};
pub use diagnostic::{DiagCode, Diagnostic, Severity};
pub use effects::{diff_effects, ObservedEffects};
pub use graph::{EdgeKind, GraphEdge, GraphNode, TriggeringGraph};
pub use reconcile::{
    reconcile, reconcile_bounds, reconcile_lanes, ObservedEdge, ObservedLanes, ObservedRootDepth,
    ReconciliationReport,
};
pub use termination::{
    DischargeReason, DischargedCycle, RuleVerdict, TerminationReport, UndischargedCycle, Verdict,
};

// Re-exported so analyzer consumers can name the contract types without
// a direct sentinel-rules dependency.
pub use sentinel_rules::{ActionEffects, AttrPattern, EventPattern};
