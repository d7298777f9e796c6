//! Sequence (`Seq`) pairing: a right-side occurrence combines with
//! strictly earlier left-side occurrences under each parameter context.

use crate::context::ParamContext;
use crate::occurrence::CompositeOccurrence;

use super::emit::Emits;
use super::state::{Buffer, Env, NodeUndo};

/// Sequence pairing under each parameter context. Only left-side
/// occurrences are buffered; a right occurrence that finds no earlier
/// left can never participate later and is discarded.
pub(super) fn pair_seq(
    id: u32,
    le: Emits,
    re: Emits,
    lbuf: &mut Buffer,
    env: &mut Env<'_>,
) -> Emits {
    let mut out = Emits::new();
    match env.context {
        ParamContext::Unrestricted => {
            for r in &re {
                for l in lbuf.items.iter().filter(|l| l.end < r.start) {
                    out.push(CompositeOccurrence::merge(l, r));
                }
            }
            for l in le {
                lbuf.push(id, 0, l, env);
            }
        }
        ParamContext::Recent => {
            for r in &re {
                if let Some(l) = lbuf.items.back().filter(|l| l.end < r.start) {
                    out.push(CompositeOccurrence::merge(l, r));
                }
            }
            for l in le {
                lbuf.clear(id, 0, env);
                lbuf.push(id, 0, l, env);
            }
        }
        ParamContext::Chronicle => {
            for r in &re {
                if let Some(l) = lbuf.items.front().filter(|l| l.end < r.start) {
                    out.push(CompositeOccurrence::merge(l, r));
                    lbuf.consume_front(id, 0, env);
                }
            }
            for l in le {
                lbuf.push(id, 0, l, env);
            }
        }
        ParamContext::Continuous => {
            // Each buffered left is an open initiator; a right
            // terminates every strictly earlier one (one detection per
            // initiator) and consumes them.
            for r in &re {
                if lbuf.items.iter().any(|l| l.end < r.start) {
                    for l in lbuf.items.iter().filter(|l| l.end < r.start) {
                        out.push(CompositeOccurrence::merge(l, r));
                    }
                    if env.journaling() {
                        env.record(
                            id,
                            NodeUndo::RestoreSide {
                                side: 0,
                                items: lbuf.items.clone(),
                            },
                        );
                    }
                    lbuf.items.retain(|l| l.end >= r.start);
                }
            }
            for l in le {
                lbuf.push(id, 0, l, env);
            }
        }
        ParamContext::Cumulative => {
            for r in &re {
                let eligible: Vec<_> = lbuf
                    .items
                    .iter()
                    .filter(|l| l.end < r.start)
                    .cloned()
                    .collect();
                if !eligible.is_empty() {
                    let mut merged = CompositeOccurrence::merge_all(eligible.iter());
                    merged = CompositeOccurrence::merge(&merged, r);
                    out.push(merged);
                    // Journal the pre-retain contents, then consume the
                    // eligible prefix.
                    if env.journaling() {
                        env.record(
                            id,
                            NodeUndo::RestoreSide {
                                side: 0,
                                items: lbuf.items.clone(),
                            },
                        );
                    }
                    lbuf.items.retain(|l| l.end >= r.start);
                }
            }
            for l in le {
                lbuf.push(id, 0, l, env);
            }
        }
    }
    out
}
