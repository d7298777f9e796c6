//! `fraud_mixed`: the rule set of `examples/fraud_detection.rs` widened
//! to all three coupling modes, on virtual time, durable through group
//! commit, with two clients on `Sentinel` clones.
//!
//! The whole pipeline in realistic proportion, and the only workload
//! with contention for the write core, group commit under concurrency,
//! rule aborts beside commits, and checkpoints stalling another client.

use super::{
    check_all_durable, checkpoint, copy_data_dir, durable_config, state_of, synced_wal_len,
    timed_analyze, timed_recovery, GROUPED_NAME,
};
use crate::gen::fraud::{self, SPEND_LIMIT};
use crate::harness::{
    in_transaction, locked, remove_dir, Checks, ClientRound, Env, Finished, Res, Round, Workload,
};
use crate::layers::{LayerInput, Stim};
use crate::trace::{NoProbe, Probe, SpanName};
use sentinel_db::prelude::*;
use sentinel_db::Database;
use sentinel_storage::{LogRecord, Wal};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const CLASS: &str = "Card";
const CLIENTS: usize = 2;

/// What the committed transactions must have left on one card.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct CardTotals {
    spent: i64,
    spends: i64,
    probes: i64,
}

/// A copy of the data directory taken while the run was going, and what
/// the database said was durable just before.
struct MidRunCopy {
    dir: PathBuf,
    durable_commits: u64,
    /// Commits the snapshot in the copy already covers.
    commits_in_snapshot: u64,
}

pub struct FraudMixed {
    core: Sentinel,
    dir: PathBuf,
    cards: Vec<Oid>,
    shape: fraud::Shape,
    seed: u64,
    expected: Vec<CardTotals>,
    expected_aborts: u64,
    observed_aborts: u64,
    mid_run: Option<MidRunCopy>,
    next_round: u64,
    wal_bytes: u64,
    ops: u64,
    analyze_ms: f64,
}

fn config(dir: &Path) -> DbConfig {
    durable_config(dir).time_mode(TimeMode::Virtual)
}

fn rules() -> Vec<RuleDef> {
    let probe = || EventExpr::primitive(PrimitiveEventSpec::end(CLASS, "Probe"));
    let spend = || EventExpr::primitive(PrimitiveEventSpec::end(CLASS, "Spend"));
    vec![
        // Immediate: refuses the transaction.
        RuleDef::new("OverLimit", spend(), ACTION_ABORT)
            .condition("over-limit")
            .priority(10),
        // Immediate: a sequence inside a sliding window.
        RuleDef::new(
            "TestThenSpend",
            probe().then(spend()).sliding_window(20),
            "flag",
        )
        .priority(1),
        // Deferred: windowed aggregates.
        RuleDef::new("RapidFire", spend().count_within(60, 3), "freeze")
            .coupling(CouplingMode::Deferred),
        RuleDef::new("LargeOutflow", spend().sum_within(100, 0, 5000), "flag")
            .coupling(CouplingMode::Deferred),
        // Detached: runs in its own transaction on the worker.
        RuleDef::new("Audit", probe(), "audit").coupling(CouplingMode::Detached),
        // Periodic.
        RuleDef::new("NightlySweep", EventExpr::every(1000), "clear-flags"),
    ]
}

/// The card a composite occurrence is about: its latest constituent's.
fn card_of(f: &Firing) -> Option<Oid> {
    f.occurrence.constituents.last().map(|c| c.oid)
}

/// Method and rule bodies are code: registered at set-up and again
/// after every recovery.
fn register_code(db: &mut Database) -> sentinel_object::Result<()> {
    db.register_method(CLASS, "Probe", |_, _, _| Ok(Value::Null))?;
    db.register_method(CLASS, "Spend", |w, this, args| {
        let spent = w.get_attr(this, "spent")?.as_int()?;
        w.set_attr(this, "spent", Value::Int(spent + args[0].as_int()?))?;
        let spends = w.get_attr(this, "spends")?.as_int()?;
        w.set_attr(this, "spends", Value::Int(spends + 1))?;
        Ok(Value::Null)
    })?;
    db.register_condition("over-limit", |_, f| {
        Ok(matches!(f.param_of("Spend", 0), Some(Value::Int(x)) if *x > SPEND_LIMIT))
    });
    db.register(
        ActionDef::new("flag")
            .writes((CLASS, "flagged"))
            .body(|w, f| match card_of(f) {
                Some(card) => w.set_attr(card, "flagged", Value::Bool(true)),
                None => Ok(()),
            }),
    )?;
    db.register(
        ActionDef::new("freeze")
            .writes((CLASS, "frozen"))
            .body(|w, f| match card_of(f) {
                Some(card) => w.set_attr(card, "frozen", Value::Bool(true)),
                None => Ok(()),
            }),
    )?;
    db.register(
        ActionDef::new("audit")
            .writes((CLASS, "audits"))
            .body(|w, f| match card_of(f) {
                Some(card) => {
                    let n = w.get_attr(card, "audits")?.as_int()?;
                    w.set_attr(card, "audits", Value::Int(n + 1))
                }
                None => Ok(()),
            }),
    )?;
    db.register(
        ActionDef::new("clear-flags")
            .writes((CLASS, "flagged"))
            .reads((CLASS, "frozen"))
            .body(|w, _| {
                for card in w.extent(CLASS)? {
                    if w.get_attr(card, "flagged")? == Value::Bool(true)
                        && w.get_attr(card, "frozen")? != Value::Bool(true)
                    {
                        w.set_attr(card, "flagged", Value::Bool(false))?;
                    }
                }
                Ok(())
            }),
    )
}

const ATTRS: [&str; 5] = ["spent", "spends", "audits", "flagged", "frozen"];

/// What one client reports from one round, beyond its latencies.
#[derive(Default)]
struct ClientOut {
    client: ClientRound,
    /// Every committed send: the card, and the amount if it was a spend.
    committed: Vec<(u32, Option<i64>)>,
    expected_aborts: u64,
    observed_aborts: u64,
    wal_bytes: u64,
    mid_run: Option<MidRunCopy>,
}

/// What client 0 does besides its transactions.
#[derive(Clone, Copy)]
struct Chores<'a> {
    dir: &'a Path,
    /// Take a copy of the data directory three quarters through.
    copy_mid_run: bool,
}

fn run_client<P: Probe>(
    core: &mut Sentinel,
    cards: &[Oid],
    txns: &[fraud::Txn],
    probe: &mut P,
    chores: Option<Chores>,
) -> Res<ClientOut> {
    let mut out = ClientOut::default();
    out.client.latencies_ns.reserve(txns.len());
    let t0 = Instant::now();
    // `durable_commits()` right after this round's checkpoint, which
    // comes before the copy.
    let mut commits_in_snapshot = 0;
    for (i, txn) in txns.iter().enumerate() {
        if let Some(chores) = chores {
            if i == txns.len() / 2 {
                let (bytes, commits) =
                    locked(core, probe, SpanName::Checkpoint, |db, _| -> Res<_> {
                        Ok((checkpoint(db, chores.dir)?, db.durable_commits()))
                    })?;
                out.wal_bytes += bytes;
                commits_in_snapshot = commits;
            }
            if chores.copy_mid_run && i == txns.len() * 3 / 4 {
                // Under the core lock nothing else touches the files.
                let copy = chores.dir.with_extension("midrun");
                let durable_commits = core.with(|db| -> Res<_> {
                    let durable = db.durable_commits();
                    copy_data_dir(chores.dir, &copy)?;
                    Ok(durable)
                })?;
                out.mid_run = Some(MidRunCopy {
                    dir: copy,
                    durable_commits,
                    commits_in_snapshot,
                });
            }
        }
        let aborts_at = txn.aborts_at();
        out.expected_aborts += aborts_at.is_some() as u64;
        let (committed, observed_aborts) = (&mut out.committed, &mut out.observed_aborts);
        out.client.record(|| {
            let mut issued = 0u64;
            // The clock moves under the same hold of the core as the
            // transaction: one acquisition per client call.
            let done = locked(core, probe, SpanName::Txn, |db, probe| {
                let done = in_transaction(db, probe, |db, probe| {
                    for s in &txn.sends {
                        issued += 1;
                        probe.span(SpanName::Send, |_| match *s {
                            fraud::Send::Probe { card } => {
                                db.send(cards[card as usize], "Probe", &[])
                            }
                            fraud::Send::Spend { card, amount } => {
                                db.send(cards[card as usize], "Spend", &[Value::Int(amount)])
                            }
                        })?;
                    }
                    Ok(())
                });
                probe.span(SpanName::AdvanceTime, |_| db.advance_time(txn.advance))?;
                done
            });
            // A rule abort at the generated over-limit spend is the
            // expected outcome of that transaction, not a failure.
            let as_expected = match (&done, aborts_at) {
                (Ok(()), None) => {
                    committed.extend(txn.sends.iter().map(|s| match *s {
                        fraud::Send::Spend { card, amount } => (card, Some(amount)),
                        fraud::Send::Probe { card } => (card, None),
                    }));
                    true
                }
                (Err(e), Some(at)) if e.is_abort() && issued == at as u64 + 1 => {
                    *observed_aborts += 1;
                    true
                }
                _ => false,
            };
            (issued, if as_expected { 0 } else { issued })
        });
    }
    out.client.busy_ns = t0.elapsed().as_nanos() as u64;
    Ok(out)
}

impl FraudMixed {
    fn absorb(&mut self, out: &mut ClientOut) {
        for &(card, amount) in &out.committed {
            let c = &mut self.expected[card as usize];
            match amount {
                Some(amount) => {
                    c.spent += amount;
                    c.spends += 1;
                }
                None => c.probes += 1,
            }
        }
        self.expected_aborts += out.expected_aborts;
        self.observed_aborts += out.observed_aborts;
        self.wal_bytes += out.wal_bytes;
        self.ops += out.client.ops;
        if let Some(copy) = out.mid_run.take() {
            self.mid_run = Some(copy);
        }
    }

    /// Wait until every commit is acknowledged, and check that it is.
    fn drain<P: Probe>(&mut self, probe: &mut P) -> Res<()> {
        probe.span(SpanName::Drain, |_| self.core.drain());
        self.core.with(|db| check_all_durable(db))
    }

    fn check_mid_run_copy(&self, final_spends: i64, checks: &mut Checks) -> Res<()> {
        let Some(copy) = &self.mid_run else {
            checks.require(false, || "no mid-run copy was taken".to_string());
            return Ok(());
        };
        let in_log = Wal::read_all(copy.dir.join("wal.log"))?
            .iter()
            .filter(|r| matches!(r, LogRecord::Commit { .. }))
            .count() as u64;
        checks.require(
            copy.commits_in_snapshot + in_log >= copy.durable_commits,
            || {
                format!(
                    "mid-run copy holds {} + {in_log} commits, {} were acknowledged durable",
                    copy.commits_in_snapshot, copy.durable_commits
                )
            },
        );
        let db = Database::recover(config(&copy.dir))?;
        let spends: i64 = state_of(&db, &self.cards, &ATTRS)?
            .iter()
            .map(|card| card[1].as_int())
            .sum::<sentinel_object::Result<i64>>()?;
        checks.require(spends > 0 && spends <= final_spends, || {
            format!("mid-run copy recovers {spends} spends, the run ended with {final_spends}")
        });
        Ok(())
    }
}

impl Workload for FraudMixed {
    const NAME: &'static str = "fraud_mixed";
    const CLIENTS: usize = CLIENTS;
    const SYNC: &'static str = GROUPED_NAME;

    fn setup(env: &Env) -> Res<Self> {
        let shape = env.shape(fraud::Shape::FULL, fraud::Shape::SMOKE);
        let mut db = Database::with_config(config(&env.dir))?;
        db.define_class(
            ClassDecl::reactive(CLASS)
                .attr("owner", TypeTag::Str)
                .attr("spent", TypeTag::Int)
                .attr("spends", TypeTag::Int)
                .attr("audits", TypeTag::Int)
                .attr("flagged", TypeTag::Bool)
                .attr("frozen", TypeTag::Bool)
                .event_method("Probe", &[], EventSpec::End)
                .event_method("Spend", &[("amount", TypeTag::Int)], EventSpec::End),
        )?;
        register_code(&mut db)?;
        for def in rules() {
            if def.event.has_timers() {
                db.add_rule(def)?;
            } else {
                db.add_class_rule(CLASS, def)?;
            }
        }
        let analyze_ms = timed_analyze(&db)?;
        let mut cards = Vec::with_capacity(shape.cards as usize);
        for chunk in (0..shape.cards).collect::<Vec<_>>().chunks(64) {
            db.begin()?;
            for i in chunk {
                cards.push(db.create_with(CLASS, &[("owner", format!("holder-{i}").into())])?);
            }
            db.commit()?;
        }
        // The clock starts on an empty log.
        checkpoint(&mut db, &env.dir)?;
        Ok(FraudMixed {
            core: Sentinel::open(db),
            dir: env.dir.clone(),
            expected: vec![CardTotals::default(); cards.len()],
            cards,
            shape,
            seed: env.opts.seed,
            expected_aborts: 0,
            observed_aborts: 0,
            mid_run: None,
            next_round: 0,
            wal_bytes: 0,
            ops: 0,
            analyze_ms,
        })
    }

    fn analyze_ms(&self) -> f64 {
        self.analyze_ms
    }

    fn round<P: Probe>(&mut self, round: u64, probes: &mut [P]) -> Res<Round> {
        let t0 = Instant::now();
        let txns: Vec<Vec<fraud::Txn>> = probes[0].span(SpanName::Gen, |_| {
            (0..CLIENTS as u64)
                .map(|c| fraud::round(self.seed, c, round, &self.shape))
                .collect()
        });
        let gen_ns = t0.elapsed().as_nanos() as u64;
        self.next_round = round + 1;

        let chores = Chores {
            dir: &self.dir,
            // In the untimed warm-up round.
            copy_mid_run: round == 0,
        };
        let (core, cards) = (&self.core, &self.cards);
        let t0 = Instant::now();
        let outs: Vec<Res<ClientOut>> = std::thread::scope(|scope| {
            let handles: Vec<_> = probes
                .iter_mut()
                .zip(&txns)
                .enumerate()
                .map(|(c, (probe, txns))| {
                    let mut core = core.clone();
                    let chores = (c == 0).then_some(chores);
                    scope.spawn(move || run_client(&mut core, cards, txns, probe, chores))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut clients = Vec::with_capacity(CLIENTS);
        for out in outs {
            let mut out = out?;
            self.absorb(&mut out);
            clients.push(out.client);
        }
        let drain_t0 = Instant::now();
        self.drain(&mut probes[0])?;
        Ok(Round {
            gen_ns,
            wall_ns: t0.elapsed().as_nanos() as u64,
            drain_ns: drain_t0.elapsed().as_nanos() as u64,
            clients,
        })
    }

    fn database<R>(&mut self, f: impl FnOnce(&mut Database) -> R) -> R {
        self.core.with(f)
    }

    fn layer_input(&mut self) -> Res<LayerInput> {
        let (probe, spend): (Arc<str>, Arc<str>) = (Arc::from("Probe"), Arc::from("Spend"));
        let per_client: Vec<Vec<fraud::Txn>> = (0..CLIENTS as u64)
            .map(|c| fraud::round(self.seed, c, 1, &self.shape))
            .collect();
        let mut stream = Vec::new();
        let mut writes = Vec::new();
        // The two clients' transactions interleaved one for one.
        for i in 0..per_client[0].len().min(1000) {
            for txn in per_client.iter().map(|txns| &txns[i]) {
                for s in &txn.sends {
                    match *s {
                        fraud::Send::Probe { card } => stream.push(Stim::Send {
                            oid: self.cards[card as usize],
                            method: probe.clone(),
                            params: Arc::from(Vec::new()),
                        }),
                        fraud::Send::Spend { card, amount } => {
                            stream.push(Stim::Send {
                                oid: self.cards[card as usize],
                                method: spend.clone(),
                                params: Arc::from(vec![Value::Int(amount)]),
                            });
                            for attr in ["spent", "spends"] {
                                writes.push((card as usize, attr.to_string(), Value::Int(amount)));
                            }
                        }
                    }
                }
                stream.push(Stim::Commit);
                stream.push(Stim::Advance(txn.advance));
            }
        }
        Ok(LayerInput {
            registry: self.core.with(|db| db.registry().clone()),
            class: Some(CLASS.into()),
            rules: rules()
                .into_iter()
                .filter(|r| !r.event.has_timers())
                .collect(),
            caps: DetectorCaps::default(),
            time_mode: TimeMode::Virtual,
            stream,
            write_class: Some(CLASS.into()),
            write_objects: self.cards.len(),
            writes,
        })
    }

    fn finish(mut self, _env: &Env, checks: &mut Checks) -> Res<Finished> {
        // A log tail of fixed size after the last checkpoint, so recovery
        // replays the same amount whatever the run's length was.
        let dir = self.dir.clone();
        self.wal_bytes += self.core.with(|db| checkpoint(db, &dir))?;
        for c in 0..CLIENTS as u64 {
            let tail = fraud::round(self.seed, c, self.next_round, &self.shape);
            let mut core = self.core.clone();
            let mut out = run_client(&mut core, &self.cards, &tail, &mut NoProbe, None)?;
            checks.require(out.client.failed_ops == 0, || {
                format!("{} ops of the log tail failed", out.client.failed_ops)
            });
            self.absorb(&mut out);
        }
        self.drain(&mut NoProbe)?;
        self.wal_bytes += self.core.with(|db| synced_wal_len(db, &dir))?;

        checks.require(
            self.expected_aborts > 0 && self.observed_aborts == self.expected_aborts,
            || {
                format!(
                    "{} rule aborts observed, {} over-limit transactions generated",
                    self.observed_aborts, self.expected_aborts
                )
            },
        );
        let before = self.core.with(|db| state_of(db, &self.cards, &ATTRS))?;
        let mut final_spends = 0;
        for (i, (got, want)) in before.iter().zip(&self.expected).enumerate() {
            let (spent, spends, audits) = (got[0].as_int()?, got[1].as_int()?, got[2].as_int()?);
            final_spends += spends;
            checks.require(
                spent == want.spent && spends == want.spends && audits == want.probes,
                || {
                    format!(
                        "card {i}: spent {spent} in {spends} spends, {audits} audits; \
                         the committed transactions amount to {want:?}"
                    )
                },
            );
        }
        let stats = self.core.with(|db| db.stats());
        checks.require(stats.aborts == self.observed_aborts, || {
            format!(
                "the database counts {} aborts, the clients saw {}",
                stats.aborts, self.observed_aborts
            )
        });
        self.check_mid_run_copy(final_spends, checks)?;
        if let Some(copy) = &self.mid_run {
            remove_dir(&copy.dir);
        }

        let FraudMixed {
            core,
            cards,
            wal_bytes,
            ops,
            ..
        } = self;
        drop(core.shutdown()?);
        let first = cards[0];
        let recover_s = timed_recovery(&dir, config, |db| {
            register_code(db)?;
            db.send(first, "Probe", &[]).map(|_| ())
        })?;
        let recovered = Database::recover(config(&dir))?;
        checks.require(state_of(&recovered, &cards, &ATTRS)? == before, || {
            "recovered card state differs from the state before shutdown".to_string()
        });
        drop(recovered);
        Ok(Finished {
            recover_s,
            wal_bytes,
            wal_ops: ops,
            dir: Some(dir),
            ..Finished::default()
        })
    }
}
