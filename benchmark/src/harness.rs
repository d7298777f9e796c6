//! What the four workloads share: the closed-loop client helpers, the
//! round loop that measures for a fixed time, and the result record.

use crate::layers::{self, LayerInput};
use crate::stats;
use crate::trace::{self, Ledger, NoProbe, Probe, SpanName, Totals, Tracer};
use sentinel_db::{Database, Sentinel};
use sentinel_telemetry::{Stage, TelemetrySnapshot};
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub type Error = Box<dyn std::error::Error + Send + Sync>;
pub type Res<T> = Result<T, Error>;

/// Set-up is run at least this many times, and until it has taken
/// `SETUP_SECONDS` in all, and its median reported: one slow directory
/// creation or thread spawn must not decide `setup_s`, and the quickest
/// set-up here takes a fraction of a millisecond.
const SETUP_REPEATS: usize = 5;
const SETUP_SECONDS: f64 = 0.5;

/// A traced run spends this share of `--seconds` untraced, for the
/// reference rate, and the same again traced; the layer replays and the
/// recoveries take about the rest.
const TRACED_SHARE: f64 = 0.3;

/// Command-line options of one workload run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes, checks only.
    pub smoke: bool,
    /// Where data directories are made (default: `benchmark/out/data`).
    pub data_dir: Option<PathBuf>,
    /// Rewrite the golden file of `cep_shared` instead of checking it.
    pub write_golden: bool,
}

/// What a workload's set-up may depend on.
pub struct Env<'a> {
    pub opts: &'a Opts,
    /// A fresh, empty directory for a durable workload's data.
    pub dir: PathBuf,
}

impl Env<'_> {
    /// The generator shape of this run: `full`, or `smoke` under `--smoke`.
    pub fn shape<S>(&self, full: S, smoke: S) -> S {
        if self.opts.smoke {
            smoke
        } else {
            full
        }
    }
}

/// `benchmark/` — the only directory the benchmark writes under.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

/// The write core as a client holds it: the bare [`Database`] of a
/// single-client in-memory workload, or a [`Sentinel`] clone.
pub trait Core {
    fn with<R>(&mut self, f: impl FnOnce(&mut Database) -> R) -> R;
}

impl Core for Database {
    fn with<R>(&mut self, f: impl FnOnce(&mut Database) -> R) -> R {
        f(self)
    }
}

impl Core for Sentinel {
    fn with<R>(&mut self, f: impl FnOnce(&mut Database) -> R) -> R {
        Sentinel::with(self, f)
    }
}

/// One client call that takes the write core: a root span named `name`
/// whose first child is the wait for the core (from the call until the
/// closure has it).
pub fn locked<C: Core, P: Probe, R>(
    core: &mut C,
    probe: &mut P,
    name: SpanName,
    body: impl FnOnce(&mut Database, &mut P) -> R,
) -> R {
    let root = probe.enter(name);
    let wait = probe.enter(SpanName::LockWait);
    let out = core.with(|db| {
        probe.exit(wait);
        body(db, probe)
    });
    probe.exit(root);
    out
}

/// `begin`, the body, then `commit`, or `abort` on an error that left
/// the transaction open: what `Sentinel::transaction` does inside the
/// core, with a span around each step.
pub fn in_transaction<P: Probe, R>(
    db: &mut Database,
    probe: &mut P,
    body: impl FnOnce(&mut Database, &mut P) -> sentinel_object::Result<R>,
) -> sentinel_object::Result<R> {
    probe.span(SpanName::Begin, |_| db.begin())?;
    match body(db, probe) {
        Ok(v) => {
            probe.span(SpanName::Commit, |_| db.commit())?;
            Ok(v)
        }
        Err(e) => {
            // A rule abort has already closed the transaction.
            if db.in_txn() {
                let _ = db.abort();
            }
            Err(e)
        }
    }
}

/// One client transaction: take the core, run [`in_transaction`].
pub fn transaction<C: Core, P: Probe, R>(
    core: &mut C,
    probe: &mut P,
    body: impl FnOnce(&mut Database, &mut P) -> sentinel_object::Result<R>,
) -> sentinel_object::Result<R> {
    locked(core, probe, SpanName::Txn, |db, probe| {
        in_transaction(db, probe, body)
    })
}

/// What one client did in one round.
#[derive(Debug, Default)]
pub struct ClientRound {
    /// Client-observed latency of every transaction, commit or abort.
    pub latencies_ns: Vec<u32>,
    pub ops: u64,
    pub failed_ops: u64,
    /// The client's own time from its first op to its last reply.
    pub busy_ns: u64,
}

impl ClientRound {
    /// Time one transaction and count its ops. `run` returns how many
    /// ops it issued and how many of them had an unexpected outcome.
    pub fn record(&mut self, run: impl FnOnce() -> (u64, u64)) {
        let t0 = Instant::now();
        let (ops, failed) = run();
        let ns = t0.elapsed().as_nanos();
        self.latencies_ns.push(ns.min(u32::MAX as u128) as u32);
        self.ops += ops;
        self.failed_ops += failed;
    }
}

/// One round: a fixed block of generated transactions run to the point
/// where every commit is acknowledged.
#[derive(Debug, Default)]
pub struct Round {
    /// Generator time, outside `wall_ns`.
    pub gen_ns: u64,
    /// First op until `drain()` returned and, when durable, every commit
    /// was durable.
    pub wall_ns: u64,
    /// The final `drain()` inside `wall_ns` (durable workloads).
    pub drain_ns: u64,
    pub clients: Vec<ClientRound>,
}

impl Round {
    fn ops(&self) -> u64 {
        self.clients.iter().map(|c| c.ops).sum()
    }
}

/// Output checks. A failed check makes the run incorrect and the exit
/// code non-zero; it does not stop the remaining checks.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// What a workload reports once its rounds are over.
#[derive(Debug, Default)]
pub struct Finished {
    /// Median time of `Database::recover` plus re-registering code plus
    /// the first send, on copies of the directory the run left.
    pub recover_s: f64,
    /// Bytes appended to `wal.log` over the whole run.
    pub wal_bytes: u64,
    /// Ops the WAL bytes belong to (every op since set-up).
    pub wal_ops: u64,
    /// The data directory as the run left it (snapshot plus a fixed log
    /// tail), for the storage replays. Removed by the harness.
    pub dir: Option<PathBuf>,
    /// Serial run time ÷ parallel run time of one round's job
    /// (`firing_cpu` only).
    pub parallel_speedup: f64,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    const CLIENTS: usize;
    /// Sync policy, for the result record.
    const SYNC: &'static str;
    /// Rules whose bodies run on scheduler workers: their body time is
    /// not client time (the client's share is `scheduler_wait`).
    const PARALLEL_RULES: &'static [&'static str] = &[];

    /// Schema, rules, `analyze()`, populated objects: all that happens
    /// before the clock starts.
    fn setup(env: &Env) -> Res<Self>;
    /// `Database::analyze()` time inside the last set-up.
    fn analyze_ms(&self) -> f64;
    /// Generate and run round `round`, one probe per client.
    fn round<P: Probe>(&mut self, round: u64, probes: &mut [P]) -> Res<Round>;
    /// Checked once, after the untimed warm-up round 0.
    fn check_warmup(&mut self, _opts: &Opts, _checks: &mut Checks) -> Res<()> {
        Ok(())
    }
    /// The database under test, for its telemetry handle and counters.
    fn database<R>(&mut self, f: impl FnOnce(&mut Database) -> R) -> R;
    /// The schema, rules and a bounded sample of generated input, for
    /// the per-layer replays.
    fn layer_input(&mut self) -> Res<LayerInput>;
    /// Output checks, recovery, shutdown.
    fn finish(self, env: &Env, checks: &mut Checks) -> Res<Finished>;
}

/// A metric as printed and as written to the result line.
#[derive(Debug, Clone, Serialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// Metrics by name.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Metrics(BTreeMap<String, Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        let unit = unit.to_string();
        self.0.insert(name.to_string(), Metric { value, unit });
    }
}

/// The last line of standard output, as the driver reads it.
#[derive(Debug, Serialize)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Totals of one measured phase.
#[derive(Debug, Default)]
struct Phase {
    rounds: u64,
    ops: u64,
    txns: u64,
    failed_ops: u64,
    wall_ns: u64,
    gen_ns: u64,
    /// Clients' busy time plus the drains: what their spans should add
    /// up to, with `gen_ns`.
    client_ns: u64,
    /// Per round: ops per second, p50 and p99 in microseconds.
    ops_per_s: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    /// Fewest latency samples any round had.
    min_samples: usize,
}

impl Phase {
    fn add(&mut self, round: Round) {
        let mut lat: Vec<u32> = round
            .clients
            .iter()
            .flat_map(|c| c.latencies_ns.iter().copied())
            .collect();
        lat.sort_unstable();
        self.rounds += 1;
        self.ops += round.ops();
        self.txns += lat.len() as u64;
        self.failed_ops += round.clients.iter().map(|c| c.failed_ops).sum::<u64>();
        self.wall_ns += round.wall_ns;
        self.gen_ns += round.gen_ns;
        self.client_ns += round.drain_ns + round.clients.iter().map(|c| c.busy_ns).sum::<u64>();
        self.ops_per_s
            .push(round.ops() as f64 / (round.wall_ns as f64 / 1e9));
        self.p50_us.push(stats::percentile(&lat, 50.0) as f64 / 1e3);
        self.p99_us.push(stats::percentile(&lat, 99.0) as f64 / 1e3);
        self.min_samples = if self.rounds == 1 {
            lat.len()
        } else {
            self.min_samples.min(lat.len())
        };
    }

    /// Ops per second over the whole phase.
    fn rate(&self) -> f64 {
        self.ops as f64 / (self.wall_ns as f64 / 1e9)
    }

    fn print(&self, name: &str, seed: u64, clients: usize) {
        println!(
            "{name}: seed {seed} | {clients} client(s) | {} rounds, {} txns, {} ops in {:.3} s untraced",
            self.rounds,
            self.txns,
            self.ops,
            self.wall_ns as f64 / 1e9
        );
        println!(
            "  latency samples per round >= {} (supports up to p{})",
            self.min_samples,
            stats::highest_supported_percentile(self.min_samples).unwrap_or(0.0)
        );
        for (what, per_round) in [
            ("ops/s", &self.ops_per_s),
            ("p50 us", &self.p50_us),
            ("p99 us", &self.p99_us),
        ] {
            let (min, max) = per_round
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
            println!(
                "  per round {what:<7} min {min:.1} | median {:.1} | max {max:.1}",
                stats::median(per_round)
            );
        }
    }
}

/// Run rounds `first..` until `seconds` have passed (at least one).
fn run_phase<W: Workload, P: Probe>(
    w: &mut W,
    first: u64,
    seconds: f64,
    probes: &mut [P],
) -> Res<Phase> {
    let mut phase = Phase::default();
    let t0 = Instant::now();
    loop {
        phase.add(w.round(first + phase.rounds, probes)?);
        if t0.elapsed().as_secs_f64() >= seconds {
            return Ok(phase);
        }
    }
}

fn fresh_dir(opts: &Opts, n: usize) -> Res<PathBuf> {
    let base = opts
        .data_dir
        .clone()
        .unwrap_or_else(|| out_dir().join("data"));
    let dir = base.join(format!("{}-{}-{n}", opts.workload, std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Set up `W` repeatedly; the last set-up is the one measured on.
/// Returns it with the median set-up time in seconds.
fn set_up<W: Workload>(opts: &Opts) -> Res<(W, Env<'_>, f64)> {
    let mut secs = Vec::new();
    let mut live: Option<(W, Env)> = None;
    let started = Instant::now();
    for n in 0.. {
        let enough = n >= SETUP_REPEATS && started.elapsed().as_secs_f64() >= SETUP_SECONDS;
        if enough || (opts.smoke && n >= 1) {
            break;
        }
        if let Some((w, env)) = live.take() {
            drop(w);
            remove_dir(&env.dir);
        }
        let env = Env {
            opts,
            dir: fresh_dir(opts, n)?,
        };
        let t0 = Instant::now();
        let w = W::setup(&env)?;
        secs.push(t0.elapsed().as_secs_f64());
        live = Some((w, env));
    }
    let (w, env) = live.expect("at least one set-up");
    Ok((w, env, stats::median(&secs)))
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where the traced phase's time went, by layer, from the client spans
/// and the program's own stage totals. Stage totals include work on the
/// `Sentinel` worker thread, which clients see as lock wait: the rows
/// can overlap there, and `db_other`, the remainder, is clamped at 0.
fn layer_shares(
    metrics: &mut Metrics,
    totals: &Totals,
    snap: &TelemetrySnapshot,
    parallel_rules: &[&str],
    ledger: &Ledger,
) {
    let sum = |s: Stage| snap.stage(s).map_or(0, |s| s.values.sum) as f64;
    let own = |n: SpanName| totals[n as usize].self_ns as f64;
    let wall = ledger.wall_ns as f64;
    let parallel_body: f64 = snap
        .rules
        .iter()
        .filter(|r| parallel_rules.contains(&r.rule.as_str()))
        .map(|r| (r.condition.sum + r.action.sum) as f64)
        .sum();
    // Detector transitions happen inside the fan-out; routing is the
    // rest of it.
    let events = sum(Stage::DetectorTransition);
    let rules = (sum(Stage::FanOut) + sum(Stage::TimerDrain) - events).max(0.0);
    let firing = sum(Stage::ConditionEval) + sum(Stage::ActionRun) - parallel_body
        + sum(Stage::SchedulerWait);
    let storage = sum(Stage::WalAppend) + sum(Stage::WalFsync) + own(SpanName::Checkpoint);
    let object = own(SpanName::SetAttr) + own(SpanName::Create) + own(SpanName::Delete);
    let lock_wait = own(SpanName::LockWait);
    let client = own(SpanName::Gen) + (wall - ledger.accounted_ns as f64).max(0.0);
    let attributed = events + rules + firing + storage + object + lock_wait + client;
    let shares = [
        ("share.events", events),
        ("share.rules", rules),
        ("share.firing", firing),
        ("share.storage", storage),
        ("share.object", object),
        ("share.db_lock_wait", lock_wait),
        ("share.db_other", (wall - attributed).max(0.0)),
        ("share.client", client),
    ];
    for (name, ns) in shares {
        metrics.put(name, 100.0 * ns / wall, "%");
    }
}

fn write_trace_file(workload: &str, tracers: &[Tracer]) -> Res<PathBuf> {
    use std::io::Write;
    /// Spans written per client; the ledger uses all of them.
    const MAX_LINES: usize = 200_000;
    let path = out_dir().join(format!("{workload}.trace.jsonl"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for t in tracers {
        for (i, s) in t.spans().iter().take(MAX_LINES).enumerate() {
            let parent = if s.parent == trace::NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                f,
                "{{\"client\":{},\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.client,
                s.name.as_str(),
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    f.flush()?;
    Ok(path)
}

/// One of the program's own telemetry stages, dumped verbatim.
#[derive(Debug, Serialize)]
struct StageTotal {
    stage: String,
    unit: String,
    count: u64,
    total: u64,
}

/// The traced phase: the same rounds with a span around every call and
/// the program's own stage telemetry switched on, then the layer
/// replays. Prints the span and stage tables and adds the per-layer
/// metrics that come from them.
fn trace_phase<W: Workload>(
    w: &mut W,
    opts: &Opts,
    first_round: u64,
    untraced: &Phase,
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> Res<(Phase, Vec<StageTotal>)> {
    let epoch = Instant::now();
    let mut tracers: Vec<Tracer> = (0..W::CLIENTS)
        .map(|c| Tracer::new(c as u8, epoch))
        .collect();
    let telemetry = w.database(|db| db.telemetry().clone());
    telemetry.reset();
    telemetry.set_enabled(true);
    let traced = run_phase(w, first_round, opts.seconds * TRACED_SHARE, &mut tracers)?;
    telemetry.set_enabled(false);
    let snap = telemetry.snapshot();

    let mut totals = Totals::default();
    for t in &tracers {
        trace::accumulate(t.spans(), &mut totals);
    }
    let ledger = Ledger::new(traced.client_ns + traced.gen_ns, &totals);
    let path = write_trace_file(W::NAME, &tracers)?;
    println!(
        "  traced {} rounds, {} ops in {:.3} s; {} spans, first ones in {}",
        traced.rounds,
        traced.ops,
        traced.wall_ns as f64 / 1e9,
        tracers.iter().map(|t| t.spans().len()).sum::<usize>(),
        path.display()
    );
    println!("  span           count      total_ms       self_ms");
    for name in SpanName::ALL {
        let t = totals[name as usize];
        if t.count > 0 {
            println!(
                "  {:<12} {:>8} {:>13.3} {:>13.3}",
                name.as_str(),
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
    }
    println!(
        "  ledger: wall {:.3} ms, spans {:.3} ms, residual {:+.2} %",
        ledger.wall_ns as f64 / 1e6,
        ledger.accounted_ns as f64 / 1e6,
        100.0 * ledger.residual()
    );
    checks.require(ledger.reconciles(), || {
        format!(
            "ledger does not reconcile: residual {:+.2} % of wall time",
            100.0 * ledger.residual()
        )
    });
    println!("  stage (program telemetry)   count        total unit");
    let mut stages = Vec::new();
    for s in &snap.stages {
        if s.count > 0 {
            println!(
                "  {:<24} {:>8} {:>12} {}",
                s.stage, s.count, s.values.sum, s.unit
            );
        }
        stages.push(StageTotal {
            stage: s.stage.clone(),
            unit: s.unit.clone(),
            count: s.count,
            total: s.values.sum,
        });
    }

    metrics.put("ledger.residual_pct", 100.0 * ledger.residual(), "%");
    layer_shares(metrics, &totals, &snap, W::PARALLEL_RULES, &ledger);
    let per_call = |name: SpanName| {
        let t = totals[name as usize];
        stats::ratio(t.total_ns as f64, t.count as f64)
    };
    metrics.put("db.send_ns", per_call(SpanName::Send), "ns");
    metrics.put("db.commit_ns", per_call(SpanName::Commit), "ns");
    metrics.put("db.drain_ns", per_call(SpanName::Drain), "ns");
    metrics.put("db.lock_wait_ns", per_call(SpanName::LockWait), "ns");
    metrics.put(
        "storage.checkpoint_ms",
        per_call(SpanName::Checkpoint) / 1e6,
        "ms",
    );
    metrics.put(
        "telemetry.overhead_ratio",
        untraced.rate() / traced.rate(),
        "ratio",
    );
    metrics.put("analyze.analyze_ms", w.analyze_ms(), "ms");
    let sched = w.database(|db| db.scheduler_stats());
    metrics.put(
        "db.parallel_ratio",
        stats::ratio(
            sched.parallel_firings as f64,
            (sched.parallel_firings + sched.serial_firings) as f64,
        ),
        "ratio",
    );
    metrics.put("db.serial_reruns", sched.serial_reruns as f64, "count");
    // What group commit achieved under this workload's traffic: the
    // `BatchAck` of every group, as the program recorded it.
    let stage = |s: Stage| snap.stage(s).cloned().unwrap_or_default();
    let batches = stage(Stage::WalBatch);
    metrics.put(
        "storage.commits_per_fsync",
        stats::ratio(batches.values.sum as f64, batches.count as f64),
        "ratio",
    );
    metrics.put(
        "storage.fsyncs",
        stage(Stage::WalFsync).count as f64,
        "count",
    );
    layers::replay(&w.layer_input()?, metrics)?;
    Ok((traced, stages))
}

/// The per-run record written under `benchmark/out/`.
#[derive(Debug, Serialize)]
struct RunRecord {
    workload: String,
    commit: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    nproc: usize,
    cpu_model: String,
    data_dir_filesystem: String,
    sync_policy: String,
    clients: usize,
    rounds: u64,
    txns: u64,
    ops: u64,
    failed_ops: u64,
    check_failures: Vec<String>,
    metrics: Metrics,
    stages: Vec<StageTotal>,
}

fn commit_id() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(package_dir())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount `dir` lives on.
fn filesystem_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|l| {
                    let mut f = l.split_whitespace();
                    let (_dev, point, fs) = (f.next()?, f.next()?, f.next()?);
                    dir.starts_with(point)
                        .then(|| (point.len(), fs.to_string()))
                })
                .max_by_key(|(len, _)| *len)
                .map(|(_, fs)| fs)
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run workload `W` as `opts` says, print every metric, and return the
/// result line.
pub fn measure<W: Workload>(opts: &Opts) -> Res<ResultLine> {
    if W::CLIENTS > nproc() {
        return Err(format!(
            "{} runs {} client threads; this machine has {} processor(s)",
            W::NAME,
            W::CLIENTS,
            nproc()
        )
        .into());
    }
    std::fs::create_dir_all(out_dir())?;
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let (mut w, env, setup_s) = set_up::<W>(opts)?;
    let filesystem = filesystem_of(&env.dir);

    // Round 0 is an untimed warm-up of fixed size: allocator, routing
    // index and detector buffers reach their working state, and the
    // checks that need a fixed op count look at it.
    let warm = w.round(0, &mut vec![NoProbe; W::CLIENTS])?;
    let mut attempted = warm.ops();
    let mut failed = warm.clients.iter().map(|c| c.failed_ops).sum::<u64>();
    w.check_warmup(opts, &mut checks)?;

    let untraced_s = if opts.trace {
        opts.seconds * TRACED_SHARE
    } else {
        opts.seconds
    };
    let untraced = run_phase(&mut w, 1, untraced_s, &mut vec![NoProbe; W::CLIENTS])?;
    attempted += untraced.ops;
    failed += untraced.failed_ops;
    let mut rounds = 1 + untraced.rounds;
    let mut txns = untraced.txns;
    untraced.print(W::NAME, opts.seed, W::CLIENTS);
    checks.require(opts.smoke || untraced.min_samples >= 1000, || {
        format!(
            "p99 needs ten samples beyond it: a round had only {} transactions",
            untraced.min_samples
        )
    });

    let mut stages = Vec::new();
    if opts.trace {
        let (traced, stage_totals) =
            trace_phase(&mut w, opts, rounds, &untraced, &mut metrics, &mut checks)?;
        attempted += traced.ops;
        failed += traced.failed_ops;
        rounds += traced.rounds;
        txns += traced.txns;
        stages = stage_totals;
    }

    let finished = w.finish(&env, &mut checks)?;
    if opts.trace {
        metrics.put("db.parallel_speedup", finished.parallel_speedup, "ratio");
        metrics.put("storage.recover_s", finished.recover_s, "s");
        metrics.put(
            "storage.wal_bytes_per_op",
            stats::ratio(finished.wal_bytes as f64, finished.wal_ops as f64),
            "B/op",
        );
        layers::replay_storage(finished.dir.as_deref(), &mut metrics)?;
    } else {
        metrics.put("ops_per_s", stats::median(&untraced.ops_per_s), "op/s");
        metrics.put("txn_p50_us", stats::median(&untraced.p50_us), "us");
        metrics.put("txn_p99_us", stats::median(&untraced.p99_us), "us");
        metrics.put("setup_s", setup_s, "s");
        metrics.put("peak_rss_mb", peak_rss_mb(), "MiB");
    }
    if let Some(dir) = &finished.dir {
        remove_dir(dir);
    }
    remove_dir(&env.dir);

    checks.require(failed == 0, || {
        format!("{failed} ops had an unexpected outcome")
    });
    for (name, m) in &metrics.0 {
        println!("  {name:<36} {:>16.4} {}", m.value, m.unit);
    }
    if !opts.trace && finished.dir.is_some() {
        // Reported with the layers in the traced run; shown here too.
        println!(
            "  (storage.recover_s {:.4} s, storage.wal_bytes_per_op {:.4} B/op)",
            finished.recover_s,
            stats::ratio(finished.wal_bytes as f64, finished.wal_ops as f64)
        );
    }
    println!("  attempted_ops {attempted}, failed_ops {failed}");
    for f in &checks.failures {
        println!("  CHECK FAILED: {f}");
    }

    let record = RunRecord {
        workload: W::NAME.into(),
        commit: commit_id(),
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.trace,
        smoke: opts.smoke,
        nproc: nproc(),
        cpu_model: cpu_model(),
        data_dir_filesystem: filesystem,
        sync_policy: W::SYNC.into(),
        clients: W::CLIENTS,
        rounds,
        txns,
        ops: attempted,
        failed_ops: failed,
        check_failures: checks.failures.clone(),
        metrics: metrics.clone(),
        stages,
    };
    let kind = if opts.trace { "traced" } else { "run" };
    std::fs::write(
        out_dir().join(format!("{}.{kind}.json", W::NAME)),
        serde_json::to_string_pretty(&record)? + "\n",
    )?;

    Ok(ResultLine {
        correct: checks.failures.is_empty(),
        attempted,
        failed,
        metrics,
    })
}
