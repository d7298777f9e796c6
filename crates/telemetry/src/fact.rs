//! The always-on counter table, published as one cut per transaction.
//!
//! A fact is something the pipeline counts whether or not telemetry is
//! enabled — a send, an occurrence, a condition evaluation, a commit.
//! Each is counted once, at one site. The counting side (the database's
//! write core, or a bare rule engine) counts into plain [`FactCounts`]
//! cells with no atomic operation; the write core publishes its delta
//! into the shared [`Facts`] table once per commit or abort. Readers
//! without the core — sessions, exporters, [`Stage::fact`] counts — read
//! a [`cut`](Facts::read) of that table: every fact as of one
//! transaction boundary, so a snapshot never holds more actions than the
//! sends and condition evaluations that led to them.
//!
//! [`Stage::fact`]: crate::Stage::fact

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// One always-on counter of the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fact {
    /// Messages dispatched (externally initiated and nested).
    Sends,
    /// Primitive occurrences raised and offered to the rule engine.
    Occurrences,
    /// Deliveries of an occurrence (or timer fire) to a detector.
    Notifications,
    /// Firings scheduled with immediate coupling.
    Immediate,
    /// Firings scheduled with deferred coupling.
    Deferred,
    /// Firings scheduled with detached coupling.
    Detached,
    /// Detached firings shed at a full queue.
    DetachedShed,
    /// Rule condition evaluations executed.
    ConditionEvals,
    /// Rule actions run: one per condition that held.
    ActionsRun,
    /// Transactions committed.
    Commits,
    /// Transactions aborted.
    Aborts,
    /// Detached firings executed, each in its own transaction.
    DetachedRuns,
}

impl Fact {
    /// Number of facts.
    pub const COUNT: usize = 12;
}

/// Plain per-fact counts: the counting side's unpublished delta, or a
/// cut read from [`Facts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FactCounts([u64; Fact::COUNT]);

impl FactCounts {
    /// Count one occurrence of `fact`.
    #[inline]
    pub fn bump(&mut self, fact: Fact) {
        self.0[fact as usize] += 1;
    }

    /// The count of `fact`.
    #[inline]
    pub fn get(&self, fact: Fact) -> u64 {
        self.0[fact as usize]
    }

    /// These counts plus `other`'s.
    pub fn plus(mut self, other: &FactCounts) -> FactCounts {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
        self
    }

    /// Does every fact count zero?
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&n| n == 0)
    }
}

/// The published fact table: one cell per [`Fact`] behind a sequence
/// lock. One writer at a time — the holder of the database's write
/// core — publishes whole deltas; any number of readers take cuts, and
/// retry while the sequence is odd (a publish in progress) or changed
/// under them.
#[derive(Debug, Default)]
pub struct Facts {
    seq: AtomicU64,
    cells: [AtomicU64; Fact::COUNT],
}

impl Facts {
    /// A consistent cut of every fact: all as of one publish.
    pub fn read(&self) -> FactCounts {
        loop {
            let before = self.seq.load(Ordering::Acquire);
            if before & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let mut out = FactCounts::default();
            for (o, cell) in out.0.iter_mut().zip(&self.cells) {
                *o = cell.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == before {
                return out;
            }
        }
    }

    /// The published count of one fact.
    #[inline]
    pub fn get(&self, fact: Fact) -> u64 {
        self.cells[fact as usize].load(Ordering::Relaxed)
    }

    /// Add `delta` to the table as one cut. The caller must be the only
    /// writer (the write core's holder); the cells are then updated by
    /// plain loads and stores, with no read-modify-write.
    pub fn publish(&self, delta: &FactCounts) {
        self.write(|cell, i| cell.load(Ordering::Relaxed) + delta.0[i]);
    }

    /// Zero every fact, as one cut. Same single-writer rule as
    /// [`publish`](Self::publish).
    pub fn reset(&self) {
        self.write(|_, _| 0);
    }

    fn write(&self, value: impl Fn(&AtomicU64, usize) -> u64) {
        let seq = self.seq.load(Ordering::Relaxed);
        debug_assert!(seq & 1 == 0, "two writers published facts at once");
        self.seq.store(seq + 1, Ordering::Relaxed);
        // Orders the odd sequence before the cell stores: a reader that
        // sees any new cell value also sees the sequence move.
        fence(Ordering::Release);
        for (i, cell) in self.cells.iter().enumerate() {
            cell.store(value(cell, i), Ordering::Relaxed);
        }
        self.seq.store(seq + 2, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bump_get_reset() {
        let mut d = FactCounts::default();
        d.bump(Fact::Sends);
        d.bump(Fact::Sends);
        d.bump(Fact::DetachedRuns);
        assert_eq!(d.get(Fact::Sends), 2);
        let f = Facts::default();
        assert_eq!(f.read(), FactCounts::default());
        f.publish(&d);
        f.publish(&d);
        assert_eq!(f.get(Fact::Sends), 4);
        assert_eq!(f.read().get(Fact::DetachedRuns), 2);
        assert_eq!(f.read().get(Fact::Commits), 0);
        assert_eq!(f.read().plus(&d).get(Fact::Sends), 6);
        f.reset();
        assert!(f.read().is_zero());
    }

    /// A reader never sees half a publish: every delta bumps two facts
    /// together, so every cut holds them equal.
    #[test]
    fn readers_see_whole_cuts() {
        let facts = Arc::new(Facts::default());
        let writer = {
            let facts = Arc::clone(&facts);
            std::thread::spawn(move || {
                let mut d = FactCounts::default();
                d.bump(Fact::Sends);
                d.bump(Fact::ActionsRun);
                for _ in 0..20_000 {
                    facts.publish(&d);
                }
            })
        };
        for _ in 0..20_000 {
            let cut = facts.read();
            assert_eq!(cut.get(Fact::Sends), cut.get(Fact::ActionsRun));
        }
        writer.join().unwrap();
        assert_eq!(facts.get(Fact::Sends), 20_000);
    }
}
