#![warn(missing_docs)]
//! # sentinel-db — the Sentinel active object-oriented database
//!
//! This crate is the paper's primary contribution assembled over the
//! substrates: a database where
//!
//! * classes declare an **event interface** (which methods generate
//!   begin/end-of-method events — §3.1, Figure 8);
//! * a message send ([`Database::send`]) dispatches the method *and*
//!   raises the declared primitive events, which propagate to subscribed
//!   consumers (Figure 2);
//! * **events and rules are first-class objects**: creating one creates
//!   an instance of the bootstrap `Event`/`Rule` meta-classes (Figure 3),
//!   with an oid, persistence, and transactional semantics;
//! * rules connect to the objects they monitor through the runtime
//!   **subscription** mechanism, at instance or class granularity
//!   (Figures 9–10), supporting the *external monitoring viewpoint* —
//!   rules over objects of different classes, defined after the fact;
//! * rule execution honours **coupling modes** (immediate / deferred /
//!   detached) and can **abort** the triggering transaction;
//! * because the `Rule` meta-class is itself reactive (its `Enable` /
//!   `Disable` methods are event generators), **rules can monitor
//!   rules**.
//!
//! See the crate-level example in the workspace README and the runnable
//! programs under `examples/`.

pub mod catalog;
pub(crate) mod commit;
pub mod config;
pub mod database;
pub mod dsl;
pub mod index;
pub mod meta;
pub mod query;
pub mod scheduler;
pub mod session;
pub mod stats;
pub(crate) mod undo;

pub use catalog::CatalogSnapshot;
pub use config::{DbConfig, ExecutionMode};
pub use database::{Database, Target};
pub use dsl::event;
pub use index::{AttrIndex, IndexId};
pub use meta::{CmpOp, Relation, META_RELATIONS};
pub use query::{attr, ObjectView, Predicate, Query};
pub use scheduler::SchedulerStats;
pub use session::{Sentinel, Session};
pub use stats::{DbStats, FullStats};

pub use sentinel_analyze::{
    AnalysisReport, ConflictMatrix, DiagCode, Diagnostic, Lane, ObservedEdge, ObservedEffects,
    ReconciliationReport, RuleAnalyzer, SerialReason, Severity,
};
pub use sentinel_rules::{ActionDef, ActionEffects, AttrPattern, BackpressurePolicy, EventPattern};
pub use sentinel_storage::BatchAck;
pub use sentinel_telemetry::ExecutionLane;

/// Everything an application typically needs, re-exported flat.
pub mod prelude {
    pub use crate::config::{DbConfig, ExecutionMode};
    pub use crate::database::{Database, Target};
    pub use crate::dsl::event;
    pub use crate::meta::{CmpOp, Relation, META_RELATIONS};
    pub use crate::query::{attr, ObjectView, Predicate, Query};
    pub use crate::scheduler::SchedulerStats;
    pub use crate::session::{Sentinel, Session};
    pub use crate::stats::{DbStats, FullStats};
    pub use sentinel_analyze::{
        AnalysisReport, ConflictMatrix, DiagCode, Diagnostic, Lane, ObservedEdge,
        ReconciliationReport, SerialReason, Severity,
    };
    pub use sentinel_events::{
        AggFn, CompositeOccurrence, DetectorCaps, EventExpr, EventModifier, ParamContext,
        PrimitiveEventSpec, PrimitiveOccurrence, TimeMode, TimerRow,
    };
    pub use sentinel_object::{
        ClassDecl, ClassId, ClassRegistry, EventSpec, ObjectError, Oid, Reactivity, Result,
        TypeTag, Value, Visibility, World,
    };
    pub use sentinel_rules::{
        ActionDef, ActionEffects, AttrPattern, BackpressurePolicy, CouplingMode, EventPattern,
        Firing, RuleBuilder, RuleDef, RuleId, RuleStats, ACTION_ABORT, ACTION_NOOP, COND_TRUE,
    };
    pub use sentinel_storage::{BatchAck, SyncPolicy};
    pub use sentinel_telemetry::{
        prometheus_text, ExecutionLane, FiringCoupling, FiringId, FiringOutcome, FiringRecord,
        Stage, Telemetry, TelemetrySnapshot, TraceRecord,
    };
}
