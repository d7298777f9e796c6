//! Parameter contexts — occurrence-buffering policies for composite
//! detection.
//!
//! The 1993 paper stores the parameters of constituent events in the
//! event object ("The state information associated with each event
//! includes the occurrence of the event and the parameters computed when
//! an event is raised") but leaves the pairing policy implicit, which
//! corresponds to the *unrestricted* context: every combination of
//! constituent occurrences is a detection, and nothing is discarded.
//! That policy has unbounded state and combinatorial output; the
//! restricted contexts later formalised by the same group (Snoop) bound
//! both. They are implemented here as an ablation (experiment E12):
//!
//! * **Unrestricted** — all combinations; buffers grow without bound
//!   (subject to [`DetectorCaps`](crate::detector::DetectorCaps)).
//! * **Recent** — only the most recent occurrence of each constituent
//!   participates; new occurrences overwrite old ones.
//! * **Chronicle** — occurrences pair up in FIFO order and are consumed
//!   by detection.
//! * **Continuous** — every initiator opens its own detection window; a
//!   terminator completes *all* open windows at once (one detection per
//!   initiator), consuming them.
//! * **Cumulative** — all occurrences accumulate and are flushed into a
//!   single detection once the composite completes.

use serde::{Deserialize, Serialize};

/// The buffering/pairing policy used by every binary operator node in a
/// detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ParamContext {
    /// Paper semantics: every combination detects; nothing consumed.
    #[default]
    Unrestricted,
    /// Most recent occurrence wins; older ones are discarded.
    Recent,
    /// FIFO pairing; participating occurrences are consumed.
    Chronicle,
    /// Every initiator starts a detection; a terminator completes them
    /// all (one detection per initiator) and consumes them.
    Continuous,
    /// Accumulate everything; flush all constituents in one detection.
    Cumulative,
}

impl ParamContext {
    /// All contexts, for sweep experiments.
    pub const ALL: [ParamContext; 5] = [
        ParamContext::Unrestricted,
        ParamContext::Recent,
        ParamContext::Chronicle,
        ParamContext::Continuous,
        ParamContext::Cumulative,
    ];

    /// Short name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            ParamContext::Unrestricted => "unrestricted",
            ParamContext::Recent => "recent",
            ParamContext::Chronicle => "chronicle",
            ParamContext::Continuous => "continuous",
            ParamContext::Cumulative => "cumulative",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_semantics() {
        assert_eq!(ParamContext::default(), ParamContext::Unrestricted);
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> =
            ParamContext::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), 5);
    }
}
