//! Spans around the benchmark's own calls into `sentinel-db`, and the
//! ledger that reconciles them with wall time.
//!
//! Nothing here instruments the program: a span is opened and closed by
//! the benchmark's client code around a public call. The untraced run
//! uses [`NoProbe`], whose methods compile to nothing.

use std::time::Instant;

/// The calls the clients make. `Txn` is the root of one client
/// transaction (the whole `with` call, lock wait included), as
/// `AdvanceTime` and `Checkpoint` are of theirs; `Gen` is the generator
/// producing a round's transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SpanName {
    Gen,
    Txn,
    LockWait,
    Begin,
    Send,
    SetAttr,
    Create,
    Delete,
    Commit,
    AdvanceTime,
    Checkpoint,
    Drain,
}

impl SpanName {
    pub const ALL: [SpanName; 12] = [
        SpanName::Gen,
        SpanName::Txn,
        SpanName::LockWait,
        SpanName::Begin,
        SpanName::Send,
        SpanName::SetAttr,
        SpanName::Create,
        SpanName::Delete,
        SpanName::Commit,
        SpanName::AdvanceTime,
        SpanName::Checkpoint,
        SpanName::Drain,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Gen => "gen",
            SpanName::Txn => "txn",
            SpanName::LockWait => "lock_wait",
            SpanName::Begin => "begin",
            SpanName::Send => "send",
            SpanName::SetAttr => "set_attr",
            SpanName::Create => "create",
            SpanName::Delete => "delete",
            SpanName::Commit => "commit",
            SpanName::AdvanceTime => "advance_time",
            SpanName::Checkpoint => "checkpoint",
            SpanName::Drain => "drain",
        }
    }
}

/// No parent: the span is a root.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch;
/// `parent` indexes the same client's span list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: SpanName,
    pub client: u8,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What client code records spans through.
pub trait Probe: Send {
    type Token;
    fn enter(&mut self, name: SpanName) -> Self::Token;
    fn exit(&mut self, token: Self::Token);

    /// Run `f` inside a span.
    fn span<R>(&mut self, name: SpanName, f: impl FnOnce(&mut Self) -> R) -> R {
        let token = self.enter(name);
        let out = f(self);
        self.exit(token);
        out
    }
}

/// The untraced run's probe: records nothing, costs nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoProbe;

impl Probe for NoProbe {
    type Token = ();
    #[inline(always)]
    fn enter(&mut self, _name: SpanName) {}
    #[inline(always)]
    fn exit(&mut self, _token: ()) {}
}

/// One client's span recorder. Spans stay in memory until the run ends.
#[derive(Debug)]
pub struct Tracer {
    client: u8,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(client: u8, epoch: Instant) -> Self {
        Tracer {
            client,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        debug_assert!(self.open.is_empty(), "spans still open");
        &self.spans
    }
}

impl Probe for Tracer {
    type Token = u32;

    fn enter(&mut self, name: SpanName) -> u32 {
        let index = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            client: self.client,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        index
    }

    fn exit(&mut self, token: u32) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(token), "spans close in LIFO order");
        self.spans[token as usize].end_ns = end_ns;
    }
}

/// Totals of one span name over a client's (or every client's) spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times: duration minus the part child spans cover.
    pub self_ns: u64,
}

/// Per-name totals, indexed by `SpanName as usize`.
pub type Totals = [NameTotals; SpanName::ALL.len()];

/// Add one client's spans to `totals`. A span's self time is its
/// duration minus its children's durations (children of one parent do
/// not overlap: a client is one thread).
pub fn accumulate(spans: &[Span], totals: &mut Totals) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.duration_ns();
        }
    }
    for (s, covered) in spans.iter().zip(child_ns) {
        let t = &mut totals[s.name as usize];
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns() - covered;
    }
}

/// Largest share of wall time the spans may leave unaccounted for.
pub const LEDGER_TOLERANCE: f64 = 0.05;

/// Span self times against the wall time they should add up to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ledger {
    /// Client wall time: each client's own time from its first op to
    /// its last reply in every traced round, plus the drains and the
    /// generator.
    pub wall_ns: u64,
    /// Sum of every span's self time (equally: of root durations).
    pub accounted_ns: u64,
}

impl Ledger {
    pub fn new(wall_ns: u64, totals: &Totals) -> Self {
        Ledger {
            wall_ns,
            accounted_ns: totals.iter().map(|t| t.self_ns).sum(),
        }
    }

    /// Unaccounted time as a share of wall time; negative when spans
    /// claim more than the wall allows.
    pub fn residual(&self) -> f64 {
        (self.wall_ns as f64 - self.accounted_ns as f64) / self.wall_ns as f64
    }

    pub fn reconciles(&self) -> bool {
        self.residual().abs() <= LEDGER_TOLERANCE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: SpanName, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            client: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // txn [0,100): lock_wait [0,10), send [10,40), commit [50,90)
        let spans = [
            span(SpanName::Txn, NO_PARENT, 0, 100),
            span(SpanName::LockWait, 0, 0, 10),
            span(SpanName::Send, 0, 10, 40),
            span(SpanName::Commit, 0, 50, 90),
            span(SpanName::Gen, NO_PARENT, 100, 130),
        ];
        let mut totals = Totals::default();
        accumulate(&spans, &mut totals);
        assert_eq!(totals[SpanName::Txn as usize].total_ns, 100);
        assert_eq!(totals[SpanName::Txn as usize].self_ns, 20);
        assert_eq!(totals[SpanName::Send as usize].self_ns, 30);
        assert_eq!(totals[SpanName::Commit as usize].self_ns, 40);
        assert_eq!(totals[SpanName::Gen as usize].self_ns, 30);
        // Self times add up to the root durations.
        assert_eq!(totals.iter().map(|t| t.self_ns).sum::<u64>(), 130);
    }

    #[test]
    fn tracer_nests_and_no_probe_is_inert() {
        let mut t = Tracer::new(3, Instant::now());
        t.span(SpanName::Txn, |t| {
            t.span(SpanName::Send, |_| ());
            t.span(SpanName::Commit, |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (NO_PARENT, 0, 0));
        assert!(s.iter().all(|s| s.client == 3 && s.end_ns >= s.start_ns));
        assert!(s[1].end_ns <= s[2].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(NoProbe.span(SpanName::Txn, |_| 7), 7);
    }

    #[test]
    fn ledger_reconciles_within_tolerance_only() {
        let mut totals = Totals::default();
        totals[SpanName::Txn as usize].self_ns = 960;
        assert!(Ledger::new(1000, &totals).reconciles());
        totals[SpanName::Txn as usize].self_ns = 940;
        let l = Ledger::new(1000, &totals);
        assert!(!l.reconciles());
        assert!((l.residual() - 0.06).abs() < 1e-12);
        totals[SpanName::Txn as usize].self_ns = 1100;
        assert!(!Ledger::new(1000, &totals).reconciles());
    }
}
