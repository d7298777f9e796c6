//! The worker pool across rule-body costs.
//!
//! The rule shape is the benchmark's `firing_cpu`: every credit to an
//! account triggers three deferred audit rules with declared effects
//! (each burns a fixed integer-hash loop, then bumps its own counter),
//! one immediate rule with a condition, and one detached rule with no
//! declared effects. A transaction credits sixteen distinct accounts
//! out of sixty-four. The sweep varies only the cost of an audit body:
//! about 2, 10, 50 and 200 µs in a release build.
//!
//! `sweep_smoke` checks that Serial and `Parallel { workers: 2 }` end in
//! the same state at every cost. `sweep_timed` prints the pool's
//! speed-up per cost; timing needs a fixed core count, so it is
//! `#[ignore]`d and run by hand:
//!
//! ```text
//! cargo test --release --test pool_sweep -- --ignored --nocapture
//! ```

use sentinel::prelude::*;
use std::hint::black_box;
use std::time::Instant;

const ACCOUNTS: usize = 64;
const CREDITS_PER_TXN: usize = 16;
const AUDITS: [(&str, &str); 3] = [("Audit1", "a1"), ("Audit2", "a2"), ("Audit3", "a3")];
const ATTRS: [&str; 6] = ["balance", "a1", "a2", "a3", "big", "legacy"];
/// Hash-loop rounds per µs of body time: `firing_cpu` burns 1,400
/// rounds for about 2 µs.
const ROUNDS_PER_US: u64 = 700;
/// The body costs swept, in µs.
const COSTS_US: [u64; 4] = [2, 10, 50, 200];

/// A fixed amount of integer work the optimizer cannot remove.
fn burn(seed: u64, rounds: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..rounds {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
    }
    x
}

fn bump(w: &mut dyn World, oid: Oid, attr: &str) -> sentinel::object::Result<()> {
    let n = w.get_attr(oid, attr)?.as_int()?;
    w.set_attr(oid, attr, Value::Int(n + 1))
}

/// `firing_cpu`'s database with audit bodies of `cost_us` µs.
fn build(mode: ExecutionMode, cost_us: u64) -> (Database, Vec<Oid>) {
    let mut db = Database::with_config(DbConfig::in_memory().execution(mode)).unwrap();
    db.define_class(
        ClassDecl::reactive("Acct")
            .attr("balance", TypeTag::Int)
            .attr("a1", TypeTag::Int)
            .attr("a2", TypeTag::Int)
            .attr("a3", TypeTag::Int)
            .attr("big", TypeTag::Int)
            .attr("legacy", TypeTag::Int)
            .event_method("Credit", &[("x", TypeTag::Int)], EventSpec::End),
    )
    .unwrap();
    db.register_method("Acct", "Credit", |w, this, args| {
        let balance = w.get_attr(this, "balance")?.as_int()?;
        w.set_attr(this, "balance", Value::Int(balance + args[0].as_int()?))?;
        Ok(Value::Null)
    })
    .unwrap();
    let rounds = cost_us * ROUNDS_PER_US;
    let credit = || event("end Acct::Credit(int x)").unwrap();
    for (rule, attr) in AUDITS {
        db.register(
            ActionDef::new(rule.to_lowercase())
                .writes(("Acct", attr))
                .body(move |w, f| {
                    black_box(burn(black_box(f.occurrence.end), rounds));
                    bump(w, f.occurrence.constituents[0].oid, attr)
                }),
        )
        .unwrap();
        db.add_class_rule(
            "Acct",
            RuleDef::on(credit())
                .named(rule)
                .then(rule.to_lowercase())
                .coupling(CouplingMode::Deferred),
        )
        .unwrap();
    }
    db.register_condition("big-credit", |_, f| {
        Ok(matches!(f.param_of("Credit", 0), Some(Value::Int(x)) if *x > 900))
    });
    db.register(
        ActionDef::new("mark-big")
            .writes(("Acct", "big"))
            .body(|w, f| bump(w, f.occurrence.constituents[0].oid, "big")),
    )
    .unwrap();
    db.add_class_rule(
        "Acct",
        RuleDef::on(credit())
            .named("Big")
            .when("big-credit")
            .then("mark-big"),
    )
    .unwrap();
    // No effects declared: the scheduler keeps this one serial.
    db.register_action("legacy-count", |w, f| {
        bump(w, f.occurrence.constituents[0].oid, "legacy")
    });
    db.add_class_rule(
        "Acct",
        RuleDef::on(credit())
            .named("Legacy")
            .then("legacy-count")
            .coupling(CouplingMode::Detached),
    )
    .unwrap();
    let accounts = (0..ACCOUNTS).map(|_| db.create("Acct").unwrap()).collect();
    (db, accounts)
}

/// `txns` transactions of sixteen `(account, amount)` credits on
/// distinct accounts, from a fixed xorshift seed.
fn traffic(txns: usize) -> Vec<Vec<(usize, i64)>> {
    let mut x: u64 = 0x5EED_1993;
    let mut next = move |below: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % below
    };
    let mut deck: Vec<usize> = (0..ACCOUNTS).collect();
    (0..txns)
        .map(|_| {
            (0..CREDITS_PER_TXN)
                .map(|i| {
                    let j = i + next((ACCOUNTS - i) as u64) as usize;
                    deck.swap(i, j);
                    (deck[i], 1 + next(1000) as i64)
                })
                .collect()
        })
        .collect()
}

/// Run `txns` on `db`; the seconds it took.
fn run(db: &mut Database, accounts: &[Oid], txns: &[Vec<(usize, i64)>]) -> f64 {
    let t0 = Instant::now();
    for txn in txns {
        db.begin().unwrap();
        for &(account, amount) in txn {
            db.send(accounts[account], "Credit", &[Value::Int(amount)])
                .unwrap();
        }
        db.commit().unwrap();
    }
    t0.elapsed().as_secs_f64()
}

fn state(db: &Database, accounts: &[Oid]) -> Vec<Vec<Value>> {
    accounts
        .iter()
        .map(|&o| ATTRS.iter().map(|a| db.get_attr(o, a).unwrap()).collect())
        .collect()
}

/// Run `txns` under `mode` at `cost_us`: seconds, end state, and the
/// scheduler's counters.
fn measure(
    mode: ExecutionMode,
    cost_us: u64,
    txns: &[Vec<(usize, i64)>],
) -> (f64, Vec<Vec<Value>>, SchedulerStats) {
    let (mut db, accounts) = build(mode, cost_us);
    let secs = run(&mut db, &accounts, txns);
    (secs, state(&db, &accounts), db.scheduler_stats())
}

const POOL: ExecutionMode = ExecutionMode::Parallel { workers: 2 };

#[test]
fn sweep_smoke() {
    let txns = traffic(3);
    for cost in COSTS_US {
        let (_, serial, _) = measure(ExecutionMode::Serial, cost, &txns);
        let (_, parallel, stats) = measure(POOL, cost, &txns);
        assert_eq!(serial, parallel, "end states differ at {cost} µs bodies");
        assert_eq!(
            stats.parallel_firings,
            (txns.len() * CREDITS_PER_TXN * AUDITS.len()) as u64,
            "{cost} µs: {stats:?}"
        );
        assert_eq!(stats.serial_reruns, 0, "{cost} µs: {stats:?}");
    }
}

#[test]
#[ignore = "timing: run by hand on a machine with a known core count"]
fn sweep_timed() {
    println!("body_us  serial_ms  parallel_ms  speedup");
    for cost in COSTS_US {
        // About the same serial work at every cost: ~0.5 s of bodies.
        let txns = traffic((10_000 / cost as usize).max(3));
        let mut pairs = Vec::new();
        for _ in 0..5 {
            let (serial_s, serial, _) = measure(ExecutionMode::Serial, cost, &txns);
            let (parallel_s, parallel, _) = measure(POOL, cost, &txns);
            assert_eq!(serial, parallel, "end states differ at {cost} µs bodies");
            pairs.push((serial_s, parallel_s));
        }
        pairs.sort_by(|a, b| (a.0 / a.1).total_cmp(&(b.0 / b.1)));
        let (serial_s, parallel_s) = pairs[pairs.len() / 2];
        println!(
            "{cost:>7}  {:>9.1}  {:>11.1}  {:>7.2}",
            serial_s * 1e3,
            parallel_s * 1e3,
            serial_s / parallel_s
        );
    }
}
