//! `firing_cpu`: condition/action execution and the parallel scheduler
//! under CPU-bound rule bodies. In memory, one client, two scheduler
//! workers, no I/O, trivial primitive detectors.
//!
//! Every credit triggers three deferred rules with declared effects (each
//! burns a fixed integer-hash loop, then bumps its own counter), one
//! immediate rule with a condition, and one detached rule whose action
//! declares nothing and so stays on the serial lane. The undeclared rule
//! is detached, not deferred, because one serial-lane firing in a
//! deferred batch sends the whole batch down the serial path.

use super::{state_of, timed_analyze};
use crate::gen::firing;
use crate::harness::{transaction, Checks, ClientRound, Env, Finished, Res, Round, Workload};
use crate::layers::{LayerInput, Stim};
use crate::stats;
use crate::trace::{NoProbe, Probe, SpanName};
use sentinel_db::prelude::*;
use sentinel_db::Database;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const CLASS: &str = "Acct";
const WORKERS: usize = 2;
const AUDIT_RULES: [&str; 3] = ["Audit1", "Audit2", "Audit3"];
/// Iterations of the hash loop in each audit body: about 2 µs.
const HASH_ROUNDS: u64 = 1400;
/// Serial-against-parallel pairs the speed-up is the median of.
const SPEEDUP_PAIRS: usize = 3;

/// What one account must hold after the credits generated so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Expected {
    credits: i64,
    big: i64,
    balance: i64,
}

pub struct FiringCpu {
    db: Database,
    accounts: Vec<Oid>,
    expected: Vec<Expected>,
    shape: firing::Shape,
    seed: u64,
    analyze_ms: f64,
}

/// A fixed amount of integer work the optimizer cannot remove.
fn burn(seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..HASH_ROUNDS {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
    }
    x
}

fn bump(w: &mut dyn World, oid: Oid, attr: &str) -> sentinel_object::Result<()> {
    let n = w.get_attr(oid, attr)?.as_int()?;
    w.set_attr(oid, attr, Value::Int(n + 1))
}

fn rules() -> Vec<RuleDef> {
    let credit = || EventExpr::primitive(PrimitiveEventSpec::end(CLASS, "Credit"));
    let mut out: Vec<RuleDef> = AUDIT_RULES
        .iter()
        .map(|name| {
            RuleDef::new(*name, credit(), name.to_lowercase()).coupling(CouplingMode::Deferred)
        })
        .collect();
    out.push(RuleDef::new("Big", credit(), "mark-big").condition("big-credit"));
    out.push(RuleDef::new("Legacy", credit(), "legacy-count").coupling(CouplingMode::Detached));
    out
}

fn build(mode: ExecutionMode, accounts: u32) -> Res<(Database, Vec<Oid>, f64)> {
    let mut db = Database::with_config(DbConfig::in_memory().execution(mode))?;
    db.define_class(
        ClassDecl::reactive(CLASS)
            .attr("balance", TypeTag::Int)
            .attr("a1", TypeTag::Int)
            .attr("a2", TypeTag::Int)
            .attr("a3", TypeTag::Int)
            .attr("big", TypeTag::Int)
            .attr("legacy", TypeTag::Int)
            .event_method("Credit", &[("x", TypeTag::Int)], EventSpec::End),
    )?;
    db.register_method(CLASS, "Credit", |w, this, args| {
        let balance = w.get_attr(this, "balance")?.as_int()?;
        w.set_attr(this, "balance", Value::Int(balance + args[0].as_int()?))?;
        Ok(Value::Null)
    })?;
    for (rule, attr) in AUDIT_RULES.iter().zip(["a1", "a2", "a3"]) {
        db.register(
            ActionDef::new(rule.to_lowercase())
                .writes((CLASS, attr))
                .body(move |w, f| {
                    black_box(burn(black_box(f.occurrence.end)));
                    bump(w, f.occurrence.constituents[0].oid, attr)
                }),
        )?;
    }
    db.register_condition("big-credit", |_, f| {
        Ok(matches!(f.param_of("Credit", 0), Some(Value::Int(x)) if *x > firing::BIG_CREDIT))
    });
    db.register(
        ActionDef::new("mark-big")
            .writes((CLASS, "big"))
            .body(|w, f| bump(w, f.occurrence.constituents[0].oid, "big")),
    )?;
    // No effects declared: the scheduler must keep this one serial.
    db.register_action("legacy-count", |w, f| {
        bump(w, f.occurrence.constituents[0].oid, "legacy")
    });
    for def in rules() {
        db.add_class_rule(CLASS, def)?;
    }
    let analyze_ms = timed_analyze(&db)?;
    let oids = (0..accounts)
        .map(|_| db.create(CLASS))
        .collect::<sentinel_object::Result<_>>()?;
    Ok((db, oids, analyze_ms))
}

/// Run `txns` on `db`; ops that failed.
fn run_txns<P: Probe>(
    db: &mut Database,
    accounts: &[Oid],
    txns: &[firing::Txn],
    probe: &mut P,
    client: &mut ClientRound,
) {
    for txn in txns {
        client.record(|| {
            let done = transaction(db, probe, |db, probe| {
                for c in &txn.credits {
                    let oid = accounts[c.account as usize];
                    probe.span(SpanName::Send, |_| {
                        db.send(oid, "Credit", &[Value::Int(c.amount)])
                    })?;
                }
                Ok(())
            });
            let ops = firing::CREDITS_PER_TXN as u64;
            (ops, if done.is_ok() { 0 } else { ops })
        });
    }
}

const ATTRS: [&str; 6] = ["balance", "a1", "a2", "a3", "big", "legacy"];

impl Workload for FiringCpu {
    const NAME: &'static str = "firing_cpu";
    const CLIENTS: usize = 1;
    const SYNC: &'static str = "in-memory";
    const PARALLEL_RULES: &'static [&'static str] = &AUDIT_RULES;

    fn setup(env: &Env) -> Res<Self> {
        let shape = env.shape(firing::Shape::FULL, firing::Shape::SMOKE);
        let (db, accounts, analyze_ms) =
            build(ExecutionMode::Parallel { workers: WORKERS }, shape.accounts)?;
        Ok(FiringCpu {
            db,
            expected: vec![Expected::default(); accounts.len()],
            accounts,
            shape,
            seed: env.opts.seed,
            analyze_ms,
        })
    }

    fn analyze_ms(&self) -> f64 {
        self.analyze_ms
    }

    fn round<P: Probe>(&mut self, round: u64, probes: &mut [P]) -> Res<Round> {
        let probe = &mut probes[0];
        let t0 = Instant::now();
        let txns = probe.span(SpanName::Gen, |_| {
            firing::round(self.seed, round, &self.shape)
        });
        for c in txns.iter().flat_map(|t| &t.credits) {
            let e = &mut self.expected[c.account as usize];
            e.credits += 1;
            e.big += (c.amount > firing::BIG_CREDIT) as i64;
            e.balance += c.amount;
        }
        let gen_ns = t0.elapsed().as_nanos() as u64;

        let mut client = ClientRound::default();
        client.latencies_ns.reserve(txns.len());
        let t0 = Instant::now();
        run_txns(&mut self.db, &self.accounts, &txns, probe, &mut client);
        let wall_ns = t0.elapsed().as_nanos() as u64;
        client.busy_ns = wall_ns;
        Ok(Round {
            gen_ns,
            wall_ns,
            drain_ns: 0,
            clients: vec![client],
        })
    }

    fn database<R>(&mut self, f: impl FnOnce(&mut Database) -> R) -> R {
        f(&mut self.db)
    }

    fn layer_input(&mut self) -> Res<LayerInput> {
        let method: Arc<str> = Arc::from("Credit");
        let mut stream = Vec::new();
        let mut writes = Vec::new();
        for txn in firing::round(self.seed, 1, &self.shape).iter().take(1000) {
            for c in &txn.credits {
                stream.push(Stim::Send {
                    oid: self.accounts[c.account as usize],
                    method: method.clone(),
                    params: Arc::from(vec![Value::Int(c.amount)]),
                });
                // What a credit writes: the balance and four counters.
                for attr in ["balance", "a1", "a2", "a3", "legacy"] {
                    writes.push((c.account as usize, attr.to_string(), Value::Int(c.amount)));
                }
            }
            stream.push(Stim::Commit);
        }
        Ok(LayerInput {
            registry: self.db.registry().clone(),
            class: Some(CLASS.into()),
            rules: rules(),
            caps: DetectorCaps::default(),
            time_mode: TimeMode::Logical,
            stream,
            write_class: Some(CLASS.into()),
            write_objects: self.accounts.len(),
            writes,
        })
    }

    fn finish(self, _env: &Env, checks: &mut Checks) -> Res<Finished> {
        // Exact counts: every rule fired once per credit, on the right
        // account, whichever thread ran it.
        for (i, (&oid, e)) in self.accounts.iter().zip(&self.expected).enumerate() {
            let got: Vec<i64> = ATTRS
                .iter()
                .map(|a| Ok(self.db.get_attr(oid, a)?.as_int()?))
                .collect::<Res<_>>()?;
            let want = vec![e.balance, e.credits, e.credits, e.credits, e.big, e.credits];
            checks.require(got == want, || {
                format!("account {i}: {ATTRS:?} = {got:?}, expected {want:?}")
            });
        }
        let sched = self.db.scheduler_stats();
        checks.require(
            sched.parallel_firings > 0 && sched.serial_reruns == 0,
            || format!("the worker pool did not run the audits cleanly: {sched:?}"),
        );
        drop(self.db);

        // The same job under Serial and under Parallel: equal states,
        // and how much faster the pool makes it.
        let job = firing::round(self.seed, 0, &self.shape);
        let mut speedups = Vec::new();
        for _ in 0..SPEEDUP_PAIRS {
            let mut timed = Vec::new();
            for mode in [
                ExecutionMode::Serial,
                ExecutionMode::Parallel { workers: WORKERS },
            ] {
                let (mut db, accounts, _) = build(mode, self.shape.accounts)?;
                let mut client = ClientRound::default();
                let t0 = Instant::now();
                run_txns(&mut db, &accounts, &job, &mut NoProbe, &mut client);
                let secs = t0.elapsed().as_secs_f64();
                checks.require(client.failed_ops == 0, || {
                    format!("{mode:?}: {} ops failed", client.failed_ops)
                });
                timed.push((secs, state_of(&db, &accounts, &ATTRS)?));
            }
            checks.require(timed[0].1 == timed[1].1, || {
                "state after Parallel execution differs from Serial".to_string()
            });
            speedups.push(timed[0].0 / timed[1].0);
        }
        Ok(Finished {
            parallel_speedup: stats::median(&speedups),
            ..Finished::default()
        })
    }
}
