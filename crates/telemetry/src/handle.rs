//! The [`Telemetry`] handle threaded through the pipeline.

use crate::fact::{FactCounts, Facts};
use crate::histogram::{Histogram, HistogramSnapshot};
use crate::history::{FiringHistory, FiringRecord, HistoryMeta};
use crate::stage::Stage;
use crate::trace::{RingBufferSink, TraceRecord, TraceSink};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// One rule's body-latency histograms. A rule takes its cell from
/// [`Telemetry::rule_latency`] once, at its first timed firing, and
/// records into it directly from then on: no lookup on the firing path.
#[derive(Debug, Default)]
pub struct RuleLatency {
    /// Condition-evaluation latencies (ns).
    pub condition: Histogram,
    /// Action-execution latencies (ns).
    pub action: Histogram,
}

/// A started wall-clock timer, or nothing when telemetry was disabled
/// at start time — so the disabled path never reads the clock.
#[derive(Debug, Clone, Copy)]
pub struct Timer(Option<Instant>);

impl Timer {
    /// A timer that records nothing.
    pub const fn off() -> Self {
        Timer(None)
    }

    /// Nanoseconds since the timer started (`None` if it never did).
    #[inline]
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.0.map(|t0| t0.elapsed().as_nanos() as u64)
    }
}

/// The shared observability handle: the always-on [`Facts`] table, and
/// while enabled per-stage histograms, per-rule body latencies and a
/// structured trace ring.
///
/// One handle is created per [`Database`] and cloned (via `Arc`) into
/// the rule engine, each rule's detector, and the WAL, so a single
/// snapshot sees the whole pipeline.
///
/// The handle counts no fact itself: the sites that do bump
/// [`facts`](Self::facts), and a stage that is a fact reports the
/// fact's count. All other entry points are gated on one relaxed atomic
/// load; with telemetry disabled (the default) they cost a single
/// predictable branch.
///
/// [`Database`]: https://docs.rs/sentinel-db
pub struct Telemetry {
    enabled: AtomicBool,
    tracing: AtomicBool,
    history: AtomicBool,
    seq: AtomicU64,
    firing_seq: AtomicU64,
    facts: Arc<Facts>,
    stages: [Histogram; Stage::COUNT],
    /// Every rule name's latency cell, for snapshots and resets; rules
    /// hold their own handles for recording.
    rules: Mutex<BTreeMap<Arc<str>, Arc<RuleLatency>>>,
    ring: RingBufferSink,
    firings: FiringHistory,
    custom: RwLock<Option<Arc<dyn TraceSink>>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .field("tracing", &self.is_tracing())
            .field("history", &self.is_history())
            .field("trace_buffered", &self.ring.len())
            .field("firings_buffered", &self.firings.len())
            .finish()
    }
}

impl Telemetry {
    /// A disabled handle whose trace ring holds at most
    /// `trace_capacity` records and whose firing-history ring uses the
    /// same capacity.
    pub fn new(trace_capacity: usize) -> Self {
        Self::with_capacities(trace_capacity, trace_capacity)
    }

    /// A disabled handle with separate trace-ring and firing-history
    /// capacities.
    pub fn with_capacities(trace_capacity: usize, history_capacity: usize) -> Self {
        Telemetry {
            enabled: AtomicBool::new(false),
            tracing: AtomicBool::new(false),
            history: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            firing_seq: AtomicU64::new(0),
            facts: Arc::default(),
            stages: std::array::from_fn(|_| Histogram::default()),
            rules: Mutex::new(BTreeMap::new()),
            ring: RingBufferSink::new(trace_capacity),
            firings: FiringHistory::new(history_capacity),
            custom: RwLock::new(None),
        }
    }

    /// A shared disabled handle (convenience for `Arc::new(Self::new(..))`).
    pub fn shared(trace_capacity: usize) -> Arc<Self> {
        Arc::new(Self::new(trace_capacity))
    }

    // -- gating ---------------------------------------------------------

    /// Are histograms being recorded?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    /// Turn histogram recording on or off. Facts are counted either way.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Relaxed);
    }

    /// Are structured trace records being captured? (Only meaningful
    /// while enabled.)
    #[inline]
    pub fn is_tracing(&self) -> bool {
        self.tracing.load(Relaxed)
    }

    /// Turn trace capture on or off. Tracing also requires
    /// [`set_enabled`](Self::set_enabled)`(true)`.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Relaxed);
    }

    /// Is firing history (causal lineage) being recorded? Independent
    /// of [`is_enabled`](Self::is_enabled): the history ring records
    /// whenever this flag is on; only the `lineage_record` stage
    /// histogram additionally requires telemetry to be enabled.
    #[inline]
    pub fn is_history(&self) -> bool {
        self.history.load(Relaxed)
    }

    /// Turn firing-history capture on or off.
    pub fn set_history(&self, on: bool) {
        self.history.store(on, Relaxed);
    }

    // -- recording ------------------------------------------------------

    /// The published fact table this handle reports fact stages from.
    #[inline]
    pub fn facts(&self) -> &Arc<Facts> {
        &self.facts
    }

    /// Trace one firing of a fact stage that records no value: a trace
    /// record while tracing, nothing otherwise. The caller counts the
    /// fact. `subject` is evaluated only if tracing is on.
    #[inline]
    pub fn trace<F: FnOnce() -> String>(&self, stage: Stage, at: u64, subject: F) {
        debug_assert!(stage.fact().is_some(), "{stage} is not a fact");
        if self.is_enabled() && self.is_tracing() {
            self.trace_inner(stage, at, 0, subject());
        }
    }

    /// Record `value` into `stage`'s histogram and, while tracing, a
    /// trace record. `subject` is evaluated only if tracing is on.
    #[inline]
    pub fn observe<F: FnOnce() -> String>(&self, stage: Stage, at: u64, value: u64, subject: F) {
        if !self.is_enabled() {
            return;
        }
        self.stages[stage.index()].record(value);
        if self.is_tracing() {
            self.trace_inner(stage, at, value, subject());
        }
    }

    /// Start a wall-clock timer — a no-op [`Timer::off`] when disabled,
    /// so the disabled path never touches the clock.
    #[inline]
    pub fn timer(&self) -> Timer {
        if self.is_enabled() {
            Timer(Some(Instant::now()))
        } else {
            Timer::off()
        }
    }

    /// Record the elapsed time of `timer` into `stage` (no-op for a
    /// [`Timer::off`]).
    #[inline]
    pub fn observe_timer<F: FnOnce() -> String>(
        &self,
        stage: Stage,
        at: u64,
        timer: Timer,
        subject: F,
    ) {
        if let Some(ns) = timer.elapsed_ns() {
            self.observe(stage, at, ns, subject);
        }
    }

    /// Allocate the next [`FiringId`](crate::FiringId) value. Ids start
    /// at 1 so that 0 can mark "never stamped". Callers gate on
    /// [`is_history`](Self::is_history); minting is not itself gated.
    #[inline]
    pub fn next_firing_id(&self) -> u64 {
        self.firing_seq.fetch_add(1, Relaxed) + 1
    }

    /// Append one firing record to the history ring. The record is
    /// built lazily: with history disabled (the default) this is one
    /// relaxed load and a branch, and `make` is never evaluated.
    #[inline]
    pub fn record_firing<F: FnOnce() -> FiringRecord>(&self, make: F) {
        if !self.is_history() {
            return;
        }
        self.record_firing_inner(make());
    }

    #[cold]
    fn record_firing_inner(&self, rec: FiringRecord) {
        self.observe(
            Stage::LineageRecord,
            rec.occurrence,
            u64::from(rec.depth),
            || format!("{} {}", rec.rule, rec.id),
        );
        self.firings.record(rec);
    }

    /// Start a wall-clock timer gated on the *history* flag instead of
    /// the counters flag — used to time whole firings for their
    /// lineage records without forcing counters on.
    #[inline]
    pub fn history_timer(&self) -> Timer {
        if self.is_history() {
            Timer(Some(Instant::now()))
        } else {
            Timer::off()
        }
    }

    /// The latency cell of rule `name`, created at the first call.
    /// Rules of the same name, at different times, share one cell.
    pub fn rule_latency(&self, name: &str) -> Arc<RuleLatency> {
        Arc::clone(self.rules.lock().entry(name.into()).or_default())
    }

    #[cold]
    fn trace_inner(&self, stage: Stage, at: u64, value: u64, subject: String) {
        let rec = TraceRecord {
            seq: self.seq.fetch_add(1, Relaxed),
            at,
            stage,
            subject,
            value,
        };
        if let Some(sink) = self.custom.read().clone() {
            sink.record(rec.clone());
        }
        self.ring.record(rec);
    }

    // -- inspection -----------------------------------------------------

    /// Count of firings of one stage: its fact, if it is one, else the
    /// values its histogram recorded since the last reset.
    pub fn stage_count(&self, stage: Stage) -> u64 {
        match stage.fact() {
            Some(fact) => self.facts.get(fact),
            None => self.stages[stage.index()].count(),
        }
    }

    /// The built-in trace ring.
    pub fn ring(&self) -> &RingBufferSink {
        &self.ring
    }

    /// The firing-history ring.
    pub fn firings(&self) -> &FiringHistory {
        &self.firings
    }

    /// The most recent `n` trace records, oldest first.
    pub fn trace_dump(&self, n: usize) -> Vec<TraceRecord> {
        self.ring.dump(n)
    }

    /// The most recent `n` firing records, oldest first.
    pub fn firing_dump(&self, n: usize) -> Vec<FiringRecord> {
        self.firings.dump(n)
    }

    /// Install (or clear) an additional sink that receives every trace
    /// record alongside the ring.
    pub fn set_sink(&self, sink: Option<Arc<dyn TraceSink>>) {
        *self.custom.write() = sink;
    }

    /// Zero the histograms and per-rule latencies, and empty the trace
    /// and history rings (benchmark warm-up). Facts, which are no
    /// telemetry, keep their counts; enablement flags are left as they
    /// are.
    pub fn reset(&self) {
        for hist in &self.stages {
            hist.reset();
        }
        for cell in self.rules.lock().values() {
            cell.condition.reset();
            cell.action.reset();
        }
        self.ring.clear();
        self.firings.clear();
        self.seq.store(0, Relaxed);
        self.firing_seq.store(0, Relaxed);
    }

    /// A serializable copy of everything recorded so far, its fact
    /// stages counted from one published cut of the fact table.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.snapshot_with(&self.facts.read())
    }

    /// [`snapshot`](Self::snapshot), with the fact stages counted from
    /// `facts` — the write core passes the published cut plus its
    /// in-flight delta.
    pub fn snapshot_with(&self, facts: &FactCounts) -> TelemetrySnapshot {
        let stages = Stage::ALL
            .iter()
            .map(|&s| StageSnapshot {
                stage: s.name().to_string(),
                unit: s.unit().to_string(),
                count: match s.fact() {
                    Some(fact) => facts.get(fact),
                    None => self.stages[s.index()].count(),
                },
                values: self.stages[s.index()].snapshot(),
            })
            .collect();
        let rules = self
            .rules
            .lock()
            .iter()
            .filter(|(_, cell)| cell.condition.count() + cell.action.count() > 0)
            .map(|(name, cell)| RuleLatencySnapshot {
                rule: name.to_string(),
                condition: cell.condition.snapshot(),
                action: cell.action.snapshot(),
            })
            .collect();
        TelemetrySnapshot {
            enabled: self.is_enabled(),
            tracing: self.is_tracing(),
            history_enabled: self.is_history(),
            stages,
            rules,
            trace: TraceMeta {
                recorded: self.ring.recorded(),
                buffered: self.ring.len() as u64,
                dropped: self.ring.dropped(),
                capacity: self.ring.capacity() as u64,
            },
            history: HistoryMeta {
                recorded: self.firings.recorded(),
                buffered: self.firings.len() as u64,
                dropped: self.firings.dropped(),
                capacity: self.firings.capacity() as u64,
                max_depth: self.firings.max_depth(),
            },
        }
    }
}

/// Count and histogram of one stage, frozen for export.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// The stage's snake_case [`name`](Stage::name).
    pub stage: String,
    /// The [`unit`](Stage::unit) of `values`.
    pub unit: String,
    /// How many times the stage fired: its fact's count for a stage
    /// that is a fact ([`Stage::fact`]), always on; else the count of
    /// `values`.
    pub count: u64,
    /// Distribution of the recorded values (empty for untimed stages).
    pub values: HistogramSnapshot,
}

/// Per-rule body latencies, frozen for export.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RuleLatencySnapshot {
    /// The rule's name.
    pub rule: String,
    /// Condition-evaluation latencies (ns).
    pub condition: HistogramSnapshot,
    /// Action-execution latencies (ns).
    pub action: HistogramSnapshot,
}

/// State of the trace ring at snapshot time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Records ever captured.
    pub recorded: u64,
    /// Records currently buffered.
    pub buffered: u64,
    /// Records evicted to make room.
    pub dropped: u64,
    /// Ring capacity.
    pub capacity: u64,
}

/// A serializable point-in-time copy of a [`Telemetry`] handle —
/// embedded in `sentinel-db`'s `FullStats` and consumed by the
/// exporters in [`crate::export`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Was recording enabled at snapshot time?
    pub enabled: bool,
    /// Was trace capture enabled at snapshot time?
    pub tracing: bool,
    /// Was firing-history capture enabled at snapshot time?
    pub history_enabled: bool,
    /// Every stage, in pipeline order.
    pub stages: Vec<StageSnapshot>,
    /// Per-rule body latencies, sorted by rule name; rules with no
    /// samples are left out.
    pub rules: Vec<RuleLatencySnapshot>,
    /// Trace-ring state.
    pub trace: TraceMeta,
    /// Firing-history ring state.
    pub history: HistoryMeta,
}

impl TelemetrySnapshot {
    /// The snapshot of one stage, by [`Stage`].
    pub fn stage(&self, stage: Stage) -> Option<&StageSnapshot> {
        self.stages.iter().find(|s| s.stage == stage.name())
    }

    /// Firing count of one stage (0 if absent).
    pub fn stage_count(&self, stage: Stage) -> u64 {
        self.stage(stage).map_or(0, |s| s.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fact::Fact;

    /// Publish one count of each of `facts`, as the write core would.
    fn publish(t: &Telemetry, facts: &[Fact]) {
        let mut delta = FactCounts::default();
        for &f in facts {
            delta.bump(f);
        }
        t.facts().publish(&delta);
    }

    #[test]
    fn disabled_records_nothing() {
        let t = Telemetry::new(16);
        t.set_tracing(true);
        t.trace(Stage::MethodSend, 1, || unreachable!("lazy subject"));
        t.observe(Stage::WalAppend, 1, 99, || unreachable!());
        let _cell = t.rule_latency("r");
        assert!(t.timer().elapsed_ns().is_none());
        let s = t.snapshot();
        assert!(s.stages.iter().all(|st| st.count == 0));
        assert!(s.stages.iter().all(|st| st.values.count == 0));
        assert!(s.rules.is_empty(), "a cell with no samples is left out");
        assert_eq!(s.trace.recorded, 0);
    }

    #[test]
    fn enabled_without_tracing_skips_subjects() {
        let t = Telemetry::new(16);
        t.set_enabled(true);
        t.trace(Stage::MethodSend, 1, || unreachable!("tracing is off"));
        assert_eq!(t.ring().recorded(), 0);
    }

    #[test]
    fn fact_stages_report_the_fact_table() {
        let t = Telemetry::new(16);
        publish(&t, &[Fact::Sends, Fact::Occurrences]);
        assert_eq!(
            t.stage_count(Stage::MethodSend),
            1,
            "counted while disabled"
        );
        assert_eq!(t.stage_count(Stage::EventRaised), 1);
        assert_eq!(t.stage_count(Stage::FanOut), 1);
        t.set_enabled(true);
        t.observe(Stage::WalFsync, 0, 10, String::new);
        assert_eq!(t.stage_count(Stage::WalFsync), 1, "the histogram's count");
        for stage in Stage::ALL {
            assert_eq!(t.snapshot().stage_count(stage), t.stage_count(stage));
        }
    }

    #[test]
    fn tracing_captures_records_and_histograms_fill() {
        let t = Telemetry::new(16);
        t.set_enabled(true);
        t.set_tracing(true);
        publish(&t, &[Fact::ConditionEvals]);
        t.observe(Stage::ConditionEval, 7, 1000, || "rule-x".into());
        let cell = t.rule_latency("rule-x");
        cell.condition.record(1000);
        cell.action.record(2000);
        let s = t.snapshot();
        let stage = s.stage(Stage::ConditionEval).unwrap();
        assert_eq!(stage.count, 1);
        assert_eq!(stage.values.count, 1);
        assert_eq!(stage.values.sum, 1000);
        assert_eq!(s.rules.len(), 1);
        assert_eq!(s.rules[0].rule, "rule-x");
        assert_eq!(s.rules[0].condition.count, 1);
        assert_eq!(s.rules[0].action.sum, 2000);
        let dump = t.trace_dump(10);
        assert_eq!(dump.len(), 1);
        assert_eq!(dump[0].subject, "rule-x");
        assert_eq!(dump[0].at, 7);
    }

    #[test]
    fn custom_sink_sees_records() {
        struct Collect(Mutex<Vec<TraceRecord>>);
        impl TraceSink for Collect {
            fn record(&self, rec: TraceRecord) {
                self.0.lock().push(rec);
            }
        }
        let t = Telemetry::new(4);
        t.set_enabled(true);
        t.set_tracing(true);
        let sink = Arc::new(Collect(Mutex::new(Vec::new())));
        t.set_sink(Some(sink.clone()));
        t.trace(Stage::TxnAbort, 3, || "txn 1".into());
        assert_eq!(sink.0.lock().len(), 1);
        t.set_sink(None);
        t.trace(Stage::TxnAbort, 4, || "txn 2".into());
        assert_eq!(sink.0.lock().len(), 1);
        assert_eq!(t.ring().recorded(), 2);
    }

    #[test]
    fn reset_zeroes_but_keeps_flags() {
        let t = Telemetry::new(4);
        t.set_enabled(true);
        t.set_tracing(true);
        publish(&t, &[Fact::ActionsRun]);
        t.observe(Stage::ActionRun, 1, 5, || "r".into());
        let cell = t.rule_latency("r");
        cell.action.record(5);
        t.reset();
        assert!(t.is_enabled() && t.is_tracing());
        assert_eq!(t.stage_count(Stage::ActionRun), 1, "facts survive");
        assert_eq!(
            t.snapshot().stage(Stage::ActionRun).unwrap().values.count,
            0
        );
        assert!(t.snapshot().rules.is_empty());
        assert_eq!(t.ring().recorded(), 0);
        // The rule's cell was zeroed, not orphaned.
        cell.action.record(7);
        assert_eq!(t.snapshot().rules[0].action.sum, 7);
    }

    #[test]
    fn history_gating_and_snapshot_meta() {
        use crate::history::{FiringCoupling, FiringOutcome};
        use crate::FiringId;
        let t = Telemetry::with_capacities(4, 2);
        // Disabled: no record, the closure never runs, timers stay off.
        t.record_firing(|| unreachable!("history is off"));
        assert!(t.history_timer().elapsed_ns().is_none());
        t.set_history(true);
        assert!(t.history_timer().elapsed_ns().is_some());
        for i in 1..=3u64 {
            let id = t.next_firing_id();
            assert_eq!(id, i);
            t.record_firing(|| FiringRecord {
                id: FiringId(id),
                rule: "r".into(),
                target: 1,
                coupling: FiringCoupling::Deferred,
                parent: None,
                root_occurrence: 9,
                occurrence: 9,
                depth: i as u32 - 1,
                latency_ns: 5,
                outcome: FiringOutcome::Committed,
                lane: Default::default(),
            });
        }
        // History records regardless of the enabled flag; the stage
        // histogram stays gated on it.
        assert_eq!(t.stage_count(Stage::LineageRecord), 0);
        let s = t.snapshot();
        assert!(s.history_enabled);
        assert_eq!(s.history.recorded, 3);
        assert_eq!(s.history.buffered, 2);
        assert_eq!(s.history.dropped, 1);
        assert_eq!(s.history.capacity, 2);
        assert_eq!(s.history.max_depth, 2);
        assert_eq!(t.firing_dump(8).len(), 2);
        t.reset();
        assert!(t.is_history(), "reset keeps flags");
        assert!(t.firings().is_empty());
        assert_eq!(t.next_firing_id(), 1, "reset rewinds the id counter");
    }

    #[test]
    fn snapshot_serde_round_trip() {
        let t = Telemetry::new(8);
        t.set_enabled(true);
        t.observe(Stage::WalFsync, 0, 12_345, String::new);
        t.rule_latency("r1").condition.record(10);
        let s = t.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(serde_json::from_str::<TelemetrySnapshot>(&json).unwrap(), s);
        assert_eq!(s.stage_count(Stage::WalFsync), 1);
    }
}
