#![warn(missing_docs)]
//! # sentinel-baselines — the engines the paper compares against
//!
//! Section 5–6 of the paper contrasts Sentinel with **Ode** (AT&T Bell
//! Labs; constraints/triggers fixed at class-definition time, compiled
//! into the class) and **ADAM** (PROLOG OODB; rules as runtime objects
//! attached to an `active-class`, dispatched through a central
//! per-class lookup). Neither original system is available, so this
//! crate implements faithful *models* of their rule architectures over
//! the same object substrate Sentinel uses — which isolates exactly the
//! variable the paper argues about: how rules are associated with
//! objects and when they can be (re)defined.
//!
//! | | rules defined | applicability | inter-class composite events |
//! |---|---|---|---|
//! | Ode model | at class definition (recompile to change) | every instance of the class | no (duplicate complementary constraints) |
//! | ADAM model | at runtime, as objects | every instance of the `active-class` (minus `disabled-for`) | no (one rule object per class) |
//! | Sentinel | at runtime, as objects | exactly the subscribed objects/classes | yes |
//!
//! The [`ActiveEngine`] trait exposes capability probes and uniform
//! counters so the root `paper_claims` test can drive all three engines
//! with the same workloads.

pub mod adam;
pub mod interface;
pub mod kernel;
pub mod ode;

pub use adam::{AdamEngine, AdamEventId, AdamRuleSpec};
pub use interface::{ActiveEngine, Capabilities};
pub use kernel::Kernel;
pub use ode::{OdeConstraintKind, OdeEngine};
