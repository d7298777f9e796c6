//! Detection-state machinery shared by every operator node: the
//! per-transaction undo journal (entry types + buffer-shaped replay)
//! and the bounded occurrence buffers that hold partial detections.

use crate::context::ParamContext;
use crate::occurrence::{CompositeOccurrence, PrimitiveOccurrence};
use sentinel_object::EventSym;
use std::collections::VecDeque;

use super::{DetectorCaps, Node};

/// One stimulus driven through the node tree: either a primitive
/// occurrence (raised by an object) or a timer fire (delivered by the
/// engine's due-timer drain to the `at`/`every` leaf at `idx` in
/// [`EventExpr::timer_specs`](crate::EventExpr::timer_specs) order).
#[derive(Debug, Clone, Copy)]
pub(super) enum Stim<'a> {
    Prim(&'a PrimitiveOccurrence),
    Timer { idx: usize, seq: u64 },
}

impl Stim<'_> {
    /// The stimulus's logical timestamp on the sequence axis.
    #[inline]
    pub(super) fn seq(&self) -> u64 {
        match self {
            Stim::Prim(o) => o.at,
            Stim::Timer { seq, .. } => *seq,
        }
    }
}

/// A window buffer: operand occurrences stamped with the instant they
/// arrived at the window node.
pub(super) type WindowBuf = VecDeque<(u64, CompositeOccurrence)>;

/// Inverse of one state mutation, tagged with the stateful node it
/// applies to. Entries are applied in reverse journal order on abort.
#[derive(Debug, Clone)]
pub(super) enum NodeUndo {
    /// Undo an append to a buffer side.
    PopBack { side: u8 },
    /// Undo a consumption (or cap-drop) from the front of a buffer side.
    PushFront { side: u8, occ: CompositeOccurrence },
    /// Undo a clear/retain of a whole buffer side.
    RestoreSide {
        side: u8,
        items: VecDeque<CompositeOccurrence>,
    },
    /// Undo a write to an `Any` node's latest-per-child slot.
    SetLatest {
        i: usize,
        prev: Option<CompositeOccurrence>,
    },
    /// Undo a write to a window node's `open` slot.
    SetOpen { prev: Option<CompositeOccurrence> },
    /// Undo a write to a `Not` node's violation flag.
    SetViolated { prev: bool },
    /// Undo an append to an `Aggregate` node's window buffer.
    PopWindowBack,
    /// Undo an eviction/roll of an `Aggregate` node's window state.
    RestoreWindow {
        items: WindowBuf,
        epoch: u64,
        latched: bool,
    },
    /// Undo a sliding eviction from the front of an `Aggregate` node's
    /// window buffer: `items` hold the evicted entries in eviction
    /// order and are re-prepended in reverse. Recorded instead of a
    /// full `RestoreWindow` snapshot on the steady-state path, where
    /// cloning the whole window per stimulus would cost O(window).
    RestoreWindowFront {
        items: Vec<(u64, CompositeOccurrence)>,
    },
    /// Undo a write to an `Aggregate` node's emission latch.
    SetLatched { prev: bool },
}

#[derive(Debug, Clone)]
pub(super) enum JournalEntry {
    Node {
        node: u32,
        undo: NodeUndo,
    },
    /// A full pre-state snapshot (recorded by `reset` when a journal is
    /// active — rare, so the clone is acceptable there).
    Full(Box<Node>),
}

/// Per-call environment threaded through the node recursion.
pub(super) struct Env<'a> {
    /// The occurrence's interned symbol (`None` = out-of-schema event or
    /// timer fire).
    pub(super) sym: Option<EventSym>,
    pub(super) context: ParamContext,
    pub(super) caps: DetectorCaps,
    /// The stimulus's position on the instant axis (from the detector's
    /// [`TimeSource`](crate::clock::TimeSource); falls back to the
    /// stimulus's seq when none is attached — logical-mode semantics).
    /// Windows and epochs are measured on this axis.
    pub(super) now: u64,
    pub(super) matched: bool,
    pub(super) dropped: u64,
    pub(super) journal: Option<&'a mut Vec<JournalEntry>>,
}

impl Env<'_> {
    #[inline]
    pub(super) fn record(&mut self, node: u32, undo: NodeUndo) {
        if let Some(j) = self.journal.as_deref_mut() {
            j.push(JournalEntry::Node { node, undo });
        }
    }

    #[inline]
    pub(super) fn journaling(&self) -> bool {
        self.journal.is_some()
    }
}

/// A bounded occurrence buffer (one side of a binary operator).
#[derive(Debug, Default, Clone)]
pub(super) struct Buffer {
    pub(super) items: VecDeque<CompositeOccurrence>,
}

impl Buffer {
    /// Append, honouring the cap; journals the append (and any cap-drop).
    pub(super) fn push(
        &mut self,
        node: u32,
        side: u8,
        occ: CompositeOccurrence,
        env: &mut Env<'_>,
    ) {
        if self.items.len() >= env.caps.max_buffered_per_node {
            if let Some(dropped) = self.items.pop_front() {
                env.record(node, NodeUndo::PushFront { side, occ: dropped });
                env.dropped += 1;
            }
        }
        self.items.push_back(occ);
        env.record(node, NodeUndo::PopBack { side });
    }

    /// Consume from the front; journals the consumption.
    pub(super) fn pop_front(
        &mut self,
        node: u32,
        side: u8,
        env: &mut Env<'_>,
    ) -> Option<CompositeOccurrence> {
        let occ = self.items.pop_front()?;
        if env.journaling() {
            env.record(
                node,
                NodeUndo::PushFront {
                    side,
                    occ: occ.clone(),
                },
            );
        }
        Some(occ)
    }

    /// Drop everything; journals the old contents.
    pub(super) fn clear(&mut self, node: u32, side: u8, env: &mut Env<'_>) {
        if self.items.is_empty() {
            return;
        }
        let old = std::mem::take(&mut self.items);
        if env.journaling() {
            env.record(node, NodeUndo::RestoreSide { side, items: old });
        }
    }

    pub(super) fn len(&self) -> usize {
        self.items.len()
    }
}

/// Evict from `buf` every occurrence whose scope key (`start` when
/// `by_start`, the `within` axis; `end` otherwise, the window axis) is
/// at or before `cutoff`. Journals the pre-eviction contents when
/// anything is evicted.
pub(super) fn evict_buffer(
    buf: &mut Buffer,
    node: u32,
    side: u8,
    cutoff: u64,
    by_start: bool,
    env: &mut Env<'_>,
) {
    let key = |o: &CompositeOccurrence| if by_start { o.start } else { o.end };
    if !buf.items.iter().any(|o| key(o) <= cutoff) {
        return;
    }
    if env.journaling() {
        env.record(
            node,
            NodeUndo::RestoreSide {
                side,
                items: buf.items.clone(),
            },
        );
    }
    buf.items.retain(|o| key(o) > cutoff);
}

/// Apply a buffer-shaped undo to an And node (both sides) or a Seq node
/// (left side only; `rbuf` is `None`).
pub(super) fn apply_buffer_undo(undo: NodeUndo, lbuf: &mut Buffer, rbuf: Option<&mut Buffer>) {
    let side_of = |undo: &NodeUndo| match undo {
        NodeUndo::PopBack { side }
        | NodeUndo::PushFront { side, .. }
        | NodeUndo::RestoreSide { side, .. } => Some(*side),
        _ => None,
    };
    let buf = match side_of(&undo) {
        Some(0) => lbuf,
        Some(1) => match rbuf {
            Some(r) => r,
            None => return,
        },
        _ => return,
    };
    match undo {
        NodeUndo::PopBack { .. } => {
            buf.items.pop_back();
        }
        NodeUndo::PushFront { occ, .. } => {
            buf.items.push_front(occ);
        }
        NodeUndo::RestoreSide { items, .. } => {
            buf.items = items;
        }
        _ => {}
    }
}
