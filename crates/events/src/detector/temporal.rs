//! Timer leaves (`at` / `every`) and deadline scoping (`within`).
//!
//! Timer occurrences are not raised by any object: the engine's timer
//! wheel delivers a fire straight to the owning detector
//! ([`DetectorInstance::process_timer`](super::DetectorInstance::process_timer)),
//! addressed by the leaf's index in
//! [`EventExpr::timer_specs`](crate::EventExpr::timer_specs) order. A
//! fire contributes an occurrence with no constituents — a tick carries
//! no parameters — whose interval is pinned to the fresh logical
//! timestamp the engine assigned to the fire, so sequence and
//! conjunction pairing work on timers exactly as on events.

use crate::occurrence::CompositeOccurrence;

/// The occurrence a timer fire contributes at its leaf.
pub(super) fn timer_occurrence(seq: u64) -> CompositeOccurrence {
    CompositeOccurrence {
        constituents: Default::default(),
        start: seq,
        end: seq,
    }
}

/// `within` eviction cutoff: operand state whose interval *started* at
/// or before the returned timestamp can never complete inside the
/// deadline, so it is dead weight. `None` when nothing can be stale yet.
pub(super) fn within_cutoff(seq: u64, deadline: u64) -> Option<u64> {
    seq.checked_sub(deadline.saturating_add(1))
}

/// `within` emission filter: the operand occurrence's own interval must
/// fit inside the deadline.
pub(super) fn within_span_ok(o: &CompositeOccurrence, deadline: u64) -> bool {
    o.end.saturating_sub(o.start) <= deadline
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cutoff_is_exactly_complementary_to_the_span_filter() {
        // An occurrence started at the cutoff timestamp would, if it
        // completed right now, have span deadline+1: just over.
        let (seq, deadline) = (100, 10);
        let cut = within_cutoff(seq, deadline).unwrap();
        assert_eq!(cut, 89);
        let kept = CompositeOccurrence {
            constituents: Default::default(),
            start: cut + 1,
            end: seq,
        };
        assert!(within_span_ok(&kept, deadline));
        let evicted = CompositeOccurrence {
            constituents: Default::default(),
            start: cut,
            end: seq,
        };
        assert!(!within_span_ok(&evicted, deadline));
        // Early in the stream nothing is stale.
        assert_eq!(within_cutoff(5, 10), None);
    }
}
