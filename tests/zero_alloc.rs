//! Allocation budgets of the steady-state hot paths (see DESIGN.md
//! §17), on an in-memory database in the default configuration
//! (telemetry counters, firing history and attribute indexes off):
//!
//! - `set_attr` allocates nothing: slot resolution is a map hit under
//!   one lock, the displaced old value moves into the pooled undo
//!   vector, and without a WAL no log record is ever built;
//! - a send to a passive object allocates nothing: the method body is
//!   found by `&str`, and no event names or parameters are built when
//!   no event is raised;
//! - rules sharing one detector cost no allocation per rule: a
//!   completion is wrapped once and every rule's firing shares it; an
//!   `A ; B` send pair costs at most 8 allocations;
//! - a send on a `cep_shared`-shaped rule set (256 rules in 32 sharing
//!   groups, a quarter of them deferred) costs at most 10 allocations,
//!   its commit included: firings are indices into pooled batches,
//!   detector nodes emit zero or one occurrence inline, and a primitive
//!   detection holds its constituent inline.
//!
//! A counting global allocator wraps the system allocator and counts
//! the allocations of the calling thread only, so tests running in
//! parallel do not disturb each other's counts. Each test first warms
//! up, growing every pooled buffer to capacity.

use sentinel_db::prelude::*;
use sentinel_db::Database;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts every allocation-path entry (alloc, alloc_zeroed, realloc);
/// frees are deliberately not counted — the budget is on acquiring
/// memory, not returning it.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread's last frees and allocations may come after
    // its locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far on this thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARMUP_TXNS: i64 = 4;
const WARMUP_WRITES: i64 = 2_000;
const MEASURED_WRITES: i64 = 1_000;

#[test]
fn steady_state_set_attr_does_not_allocate() {
    let mut db = Database::new();
    db.define_class(ClassDecl::new("W").attr("v", TypeTag::Int))
        .unwrap();
    let w = db.create("W").unwrap();

    // Warm-up: grow the pooled undo vector past the measured write
    // count, fault in the store shard entry, and settle any lazy
    // one-time state. The warm-up transactions are strictly larger
    // than the measured one so no Vec regrowth can land inside the
    // measured window.
    for i in 0..WARMUP_TXNS {
        db.begin().unwrap();
        for j in 0..WARMUP_WRITES {
            db.set_attr(w, "v", Value::Int(i * WARMUP_WRITES + j))
                .unwrap();
        }
        db.commit().unwrap();
    }

    db.begin().unwrap();
    db.set_attr(w, "v", Value::Int(-1)).unwrap();
    let before = allocs();
    for j in 0..MEASURED_WRITES {
        db.set_attr(w, "v", Value::Int(j)).unwrap();
    }
    let allocated = allocs() - before;
    db.commit().unwrap();

    assert_eq!(
        allocated, 0,
        "steady-state set_attr allocated: {allocated} heap allocations \
         over {MEASURED_WRITES} writes"
    );
}

#[test]
fn steady_state_passive_send_does_not_allocate() {
    let mut db = Database::new();
    db.define_class(
        ClassDecl::new("P")
            .attr("v", TypeTag::Int)
            .method("SetV", &[("x", TypeTag::Int)]),
    )
    .unwrap();
    db.register_setter("P", "SetV", "v").unwrap();
    let p = db.create("P").unwrap();

    for i in 0..WARMUP_TXNS {
        db.begin().unwrap();
        for j in 0..WARMUP_WRITES {
            db.send(p, "SetV", &[Value::Int(i * WARMUP_WRITES + j)])
                .unwrap();
        }
        db.commit().unwrap();
    }

    db.begin().unwrap();
    db.send(p, "SetV", &[Value::Int(-1)]).unwrap();
    let before = allocs();
    for j in 0..MEASURED_WRITES {
        db.send(p, "SetV", &[Value::Int(j)]).unwrap();
    }
    let allocated = allocs() - before;
    db.commit().unwrap();
    assert_eq!(
        db.get_attr(p, "v").unwrap(),
        Value::Int(MEASURED_WRITES - 1)
    );

    assert_eq!(
        allocated, 0,
        "steady-state passive send allocated: {allocated} heap allocations \
         over {MEASURED_WRITES} sends"
    );
}

const WARMUP_PAIRS: i64 = 1_000;
const MEASURED_PAIRS: i64 = 500;

/// Send `A` then `B` to `s`: one detection of `A ; B`.
fn send_pair(db: &mut Database, s: Oid, x: i64) {
    db.send(s, "A", &[Value::Int(x)]).unwrap();
    db.send(s, "B", &[Value::Int(x)]).unwrap();
}

/// Allocations made by `MEASURED_PAIRS` `A`,`B` send pairs inside one
/// open transaction, after a warm-up, with `rules` immediate rules on
/// `A ; B` in `Recent` context sharing one detector. Their condition
/// never holds, so no action adds work of its own.
fn allocations_of_shared_detection(rules: usize) -> u64 {
    let mut db = Database::new();
    db.define_class(
        ClassDecl::reactive("S")
            .attr("v", TypeTag::Int)
            .event_method("A", &[("x", TypeTag::Int)], EventSpec::End)
            .event_method("B", &[("x", TypeTag::Int)], EventSpec::End),
    )
    .unwrap();
    db.register_setter("S", "A", "v").unwrap();
    db.register_setter("S", "B", "v").unwrap();
    db.register_condition("never", |_, _| Ok(false));
    let a = EventExpr::primitive(PrimitiveEventSpec::end("S", "A"));
    let b = EventExpr::primitive(PrimitiveEventSpec::end("S", "B"));
    for r in 0..rules {
        let def = RuleDef::new(format!("R{r}"), a.clone().then(b.clone()), ACTION_NOOP)
            .condition("never")
            .context(ParamContext::Recent);
        db.add_class_rule("S", def).unwrap();
    }
    let s = db.create("S").unwrap();

    for i in 0..WARMUP_TXNS {
        db.begin().unwrap();
        for j in 0..WARMUP_PAIRS {
            send_pair(&mut db, s, i * WARMUP_PAIRS + j);
        }
        db.commit().unwrap();
    }
    assert_eq!(db.detector_count(), 1, "the rules share one detector");

    db.begin().unwrap();
    send_pair(&mut db, s, -1);
    let before = allocs();
    for j in 0..MEASURED_PAIRS {
        send_pair(&mut db, s, j);
    }
    let allocated = allocs() - before;
    db.commit().unwrap();
    let detections = (WARMUP_TXNS * WARMUP_PAIRS + MEASURED_PAIRS + 1) as u64;
    for r in 0..rules {
        let stats = db.rule_stats(&format!("R{r}")).unwrap();
        assert_eq!(stats.condition_evals, detections);
    }
    allocated
}

#[test]
fn rules_sharing_a_detector_allocate_nothing_per_rule() {
    let one = allocations_of_shared_detection(1);
    let eight = allocations_of_shared_detection(8);
    assert_eq!(
        one, eight,
        "{MEASURED_PAIRS} detections allocated {one} times for one rule \
         and {eight} times for eight rules sharing the detector"
    );
    let per_pair = eight as f64 / MEASURED_PAIRS as f64;
    assert!(
        per_pair <= 8.0,
        "an `A ; B` send pair allocated {per_pair:.2} times (budget 8)"
    );
}

const CEP_METHODS: usize = 16;
const CEP_GROUPS: usize = 32;
const CEP_RULES_PER_GROUP: usize = 8;
const CEP_SENSORS: usize = 64;
const CEP_SENDS_PER_TXN: usize = 8;
const CEP_WARMUP_TXNS: usize = 2_000;
const CEP_MEASURED_TXNS: usize = 500;

fn cep_leaf(m: usize) -> EventExpr {
    EventExpr::primitive(PrimitiveEventSpec::end("Sensor", format!("M{m}")))
}

/// Sharing group `g`'s expression and context: the operator mix of the
/// benchmark's `cep_shared` workload.
fn cep_group_event(g: usize) -> (EventExpr, ParamContext) {
    let a = g % CEP_METHODS;
    let b = (a + 1 + g / 8) % CEP_METHODS;
    let c = (a + 7 + g / 4) % CEP_METHODS;
    let (a, b, c) = (cep_leaf(a), cep_leaf(b), cep_leaf(c));
    match g % 8 {
        0 => (a.then(b), ParamContext::Chronicle),
        1 => (a.and(b), ParamContext::Recent),
        2 => (a.or(b), ParamContext::Recent),
        3 => (a.count_within(64, 4), ParamContext::Recent),
        4 => (a.then(b.and(c)), ParamContext::Recent),
        5 => (a.then(b).sliding_window(32), ParamContext::Unrestricted),
        6 => (EventExpr::any(2, vec![a, b, c]), ParamContext::Continuous),
        _ => (a.and(b.or(c)), ParamContext::Chronicle),
    }
}

/// A seeded stream of `(sensor, method, value)` sends (xorshift64*).
struct CepStream(u64);

impl CepStream {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
    }

    fn send(&mut self) -> (usize, usize, i64) {
        let sensor = self.below(CEP_SENSORS as u64) as usize;
        let method = self.below(CEP_METHODS as u64) as usize;
        (sensor, method, self.below(999) as i64)
    }
}

/// Allocations per send, commits included, of a `cep_shared`-shaped
/// database after a warm-up: 256 rules in 32 sharing groups, a quarter
/// of them deferred, conditions that never hold.
fn cep_shared_allocations_per_send() -> f64 {
    let mut config = DbConfig::in_memory();
    config.detector_caps.max_buffered_per_node = 64;
    let mut db = Database::with_config(config).unwrap();
    let mut decl = ClassDecl::reactive("Sensor").attr("label", TypeTag::Str);
    let methods: Vec<String> = (0..CEP_METHODS).map(|m| format!("M{m}")).collect();
    for m in &methods {
        decl = decl.event_method(m, &[("v", TypeTag::Int)], EventSpec::End);
    }
    db.define_class(decl).unwrap();
    for m in &methods {
        db.register_method("Sensor", m, |_, _, _| Ok(Value::Null))
            .unwrap();
    }
    db.register_condition("never", |_, f| {
        let last = f.occurrence.constituents.last();
        Ok(last.and_then(|c| c.param(0)) == Some(&Value::Int(999)))
    });
    for g in 0..CEP_GROUPS {
        let (event, context) = cep_group_event(g);
        for r in 0..CEP_RULES_PER_GROUP {
            let coupling = if r % 4 == 0 {
                CouplingMode::Deferred
            } else {
                CouplingMode::Immediate
            };
            let def = RuleDef::new(format!("g{g}r{r}"), event.clone(), ACTION_NOOP)
                .condition("never")
                .coupling(coupling)
                .priority(r as i32)
                .context(context);
            db.add_class_rule("Sensor", def).unwrap();
        }
    }
    let sensors: Vec<Oid> = (0..CEP_SENSORS)
        .map(|_| db.create("Sensor").unwrap())
        .collect();
    let mut stream = CepStream(1993);
    let mut run = |db: &mut Database, txns: usize| {
        for _ in 0..txns {
            db.begin().unwrap();
            for _ in 0..CEP_SENDS_PER_TXN {
                let (s, m, v) = stream.send();
                db.send(sensors[s], &methods[m], &[Value::Int(v)]).unwrap();
            }
            db.commit().unwrap();
        }
    };
    run(&mut db, CEP_WARMUP_TXNS);
    assert!(
        db.detector_count() <= CEP_GROUPS,
        "the groups share detectors"
    );
    let before = allocs();
    run(&mut db, CEP_MEASURED_TXNS);
    let allocated = allocs() - before;
    assert!(db.engine_stats().immediate > 0 && db.engine_stats().deferred > 0);
    allocated as f64 / (CEP_MEASURED_TXNS * CEP_SENDS_PER_TXN) as f64
}

#[test]
fn cep_shared_send_stays_within_its_allocation_budget() {
    let per_send = cep_shared_allocations_per_send();
    assert!(
        per_send <= 10.0,
        "a cep_shared-shaped send allocated {per_send:.2} times (budget 10)"
    );
}
