//! Conjunction (`And`) pairing: how a new occurrence on one side
//! combines with the buffered occurrences of the other under each
//! parameter context.

use crate::context::ParamContext;
use crate::occurrence::CompositeOccurrence;

use super::emit::Emits;
use super::state::{Buffer, Env};

/// Conjunction pairing under each parameter context.
pub(super) fn pair_and(
    id: u32,
    le: Emits,
    re: Emits,
    lbuf: &mut Buffer,
    rbuf: &mut Buffer,
    env: &mut Env<'_>,
) -> Emits {
    let mut out = Emits::new();
    match env.context {
        ParamContext::Unrestricted => {
            for l in &le {
                for r in rbuf.items.iter() {
                    out.push(CompositeOccurrence::merge(l, r));
                }
            }
            for r in &re {
                for l in lbuf.items.iter() {
                    out.push(CompositeOccurrence::merge(l, r));
                }
            }
            for l in &le {
                for r in &re {
                    out.push(CompositeOccurrence::merge(l, r));
                }
            }
            for l in le {
                lbuf.push(id, 0, l, env);
            }
            for r in re {
                rbuf.push(id, 1, r, env);
            }
        }
        ParamContext::Recent => {
            // Each side retains at most its most recent occurrence. A new
            // arrival pairs with the retained occurrence of the opposite
            // side (which is kept — the initiator survives detections);
            // an arrival that finds no partner becomes the retained one.
            for l in le {
                if let Some(r) = rbuf.items.back() {
                    out.push(CompositeOccurrence::merge(&l, r));
                } else {
                    lbuf.clear(id, 0, env);
                    lbuf.push(id, 0, l, env);
                }
            }
            for r in re {
                if let Some(l) = lbuf.items.back() {
                    out.push(CompositeOccurrence::merge(l, &r));
                } else {
                    rbuf.clear(id, 1, env);
                    rbuf.push(id, 1, r, env);
                }
            }
        }
        ParamContext::Chronicle => {
            // The partner is read in place, then moves into the journal.
            for l in le {
                match rbuf.items.front() {
                    Some(r) => {
                        out.push(CompositeOccurrence::merge(&l, r));
                        rbuf.consume_front(id, 1, env);
                    }
                    None => lbuf.push(id, 0, l, env),
                }
            }
            for r in re {
                match lbuf.items.front() {
                    Some(l) => {
                        out.push(CompositeOccurrence::merge(l, &r));
                        lbuf.consume_front(id, 0, env);
                    }
                    None => rbuf.push(id, 1, r, env),
                }
            }
        }
        ParamContext::Continuous => {
            // Every buffered occurrence opened its own detection window;
            // an opposite-side arrival terminates them all at once (one
            // detection per initiator) and consumes them. An arrival
            // with no open windows becomes an initiator itself.
            for l in le {
                if rbuf.len() > 0 {
                    for r in rbuf.items.iter() {
                        out.push(CompositeOccurrence::merge(&l, r));
                    }
                    rbuf.clear(id, 1, env);
                } else {
                    lbuf.push(id, 0, l, env);
                }
            }
            for r in re {
                if lbuf.len() > 0 {
                    for l in lbuf.items.iter() {
                        out.push(CompositeOccurrence::merge(l, &r));
                    }
                    lbuf.clear(id, 0, env);
                } else {
                    rbuf.push(id, 1, r, env);
                }
            }
        }
        ParamContext::Cumulative => {
            for l in le {
                lbuf.push(id, 0, l, env);
            }
            for r in re {
                rbuf.push(id, 1, r, env);
            }
            if lbuf.len() > 0 && rbuf.len() > 0 {
                out.push(CompositeOccurrence::merge_all(
                    lbuf.items.iter().chain(rbuf.items.iter()),
                ));
                lbuf.clear(id, 0, env);
                rbuf.clear(id, 1, env);
            }
        }
    }
    out
}
