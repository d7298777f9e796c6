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
//!   completion is wrapped once and every rule's firing shares it.
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
}
