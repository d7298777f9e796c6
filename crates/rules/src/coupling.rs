//! Coupling modes (paper §4.4, the `Coupling mode` rule attribute).
//!
//! A coupling mode says *when*, relative to the triggering transaction, a
//! triggered rule's condition/action run:
//!
//! * **Immediate** — right where the event was raised, inside the
//!   triggering transaction (Figure 9's Marriage rule uses this so its
//!   `abort` can kill the transaction before the update takes).
//! * **Deferred** — queued, executed at the end of the triggering
//!   transaction, still inside it (classic integrity-constraint timing).
//! * **Detached** — executed in a separate transaction after the
//!   triggering transaction commits.

use serde::{Deserialize, Serialize};

/// When a triggered rule executes relative to its triggering transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CouplingMode {
    /// At the triggering point, inside the transaction.
    #[default]
    Immediate,
    /// At commit time, inside the transaction.
    Deferred,
    /// In a separate transaction after commit.
    Detached,
}

impl CouplingMode {
    /// All modes, in declaration order.
    pub const ALL: [CouplingMode; 3] = [
        CouplingMode::Immediate,
        CouplingMode::Deferred,
        CouplingMode::Detached,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            CouplingMode::Immediate => "immediate",
            CouplingMode::Deferred => "deferred",
            CouplingMode::Detached => "detached",
        }
    }
}

impl From<CouplingMode> for sentinel_telemetry::FiringCoupling {
    fn from(m: CouplingMode) -> Self {
        match m {
            CouplingMode::Immediate => Self::Immediate,
            CouplingMode::Deferred => Self::Deferred,
            CouplingMode::Detached => Self::Detached,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_immediate() {
        // Figure 9 spells the mode out as `M: Immediate`; it is also the
        // only mode that makes an aborting constraint meaningful.
        assert_eq!(CouplingMode::default(), CouplingMode::Immediate);
    }

    #[test]
    fn serde_round_trip() {
        for m in CouplingMode::ALL {
            let s = serde_json::to_string(&m).unwrap();
            assert_eq!(serde_json::from_str::<CouplingMode>(&s).unwrap(), m);
        }
    }
}
