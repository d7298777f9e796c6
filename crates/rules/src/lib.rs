#![warn(missing_docs)]
//! # sentinel-rules — ECA rules, subscriptions, coupling, firing order
//!
//! The rule layer of Sentinel (paper §3.4–§3.5, §4.4, Figure 7):
//!
//! * [`Rule`] — a first-class rule object: name, triggering
//!   [`EventExpr`], condition, action, coupling mode, priority, enabled
//!   flag, plus its private event detector (Figure 2).
//! * [`RuleBodyRegistry`] — named condition/action bodies, the analog of
//!   the paper's pointers-to-member-function (`PMF`). Naming the bodies
//!   (rather than storing raw closures in the rule) is what makes rule
//!   objects serializable and recoverable: code is re-registered by the
//!   application on startup, exactly as recompiled C++ member functions
//!   were in Zeitgeist.
//! * [`SubscriptionManager`] — the paper's `consumers` lists (Figure 4):
//!   which notifiable rules receive the events generated by which
//!   reactive objects, at both instance granularity (instance-level
//!   rules, Figure 10) and class granularity (class-level rules,
//!   Figure 9).
//! * [`RuleEngine`] — detection and scheduling: offered occurrences fan
//!   out to subscribed rules; completed events become pending firings
//!   routed by [`CouplingMode`]. Co-triggered rules fire in one order
//!   fixed by their definitions: higher [`RuleDef::priority`] first,
//!   then lower rule-object oid, then lower [`RuleId`].
//!
//! The engine deliberately does not *execute* firings: execution needs
//! the full database (`World`), which owns the engine. The database
//! facade drains ready firings and runs their bodies, re-entering the
//! engine for any events the bodies generate (cascading), under a depth
//! limit.

pub mod action;
pub mod body;
pub mod coupling;
pub mod engine;
pub mod rule;
pub mod subscription;

pub use action::ActionDef;
pub use body::{
    ActionEffects, ActionFn, AttrPattern, BoundBodies, CondFn, EventPattern, Firing, Lineage,
    RuleBodyRegistry, ACTION_ABORT, ACTION_NOOP, COND_TRUE,
};
pub use coupling::CouplingMode;
pub use engine::{BackpressurePolicy, EngineStats, FiringBatch, ReadyFiring, ReadyRef, RuleEngine};
pub use rule::{Rule, RuleBuilder, RuleDef, RuleId, RuleStats};
pub use subscription::SubscriptionManager;
