//! Detector sharing is unobservable.
//!
//! The engine gives rules with the same event, context, caps and
//! subscriptions — and equal partial state — one shared detector. The
//! oracle checks that no rule can tell. A seeded generator writes
//! programs over groups of identical rules that interleave sends,
//! disable/enable, object and class (un)subscriptions, rule removal,
//! aborted transactions, and checkpoint + recover. Each program runs on
//! one engine holding every rule and, per rule, on a reference engine
//! holding only that rule, whose detector is private by construction.
//! Every rule's stats and firing multiset must agree, and every
//! occurrence must fire its immediate rules in one order — priority,
//! then rule-object oid — the order the reference engines' firings
//! merge into.
//!
//! The database-level tests at the end pin the same guarantees through
//! the public facade: a half-matched sequence in a shared group survives
//! checkpoint and recovery, an abort restores a shared detector for all
//! its members, and disabling one member leaves the others' partial
//! detections intact.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sentinel::db::CatalogSnapshot;
use sentinel::prelude::*;
use sentinel::rules::{FiringBatch, ReadyRef, RuleEngine};
use sentinel::storage::Snapshot;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

const GROUPS: usize = 3;
const PER_GROUP: usize = 3;
/// Objects 1 and 2 are `S`s, object 3 is a `T` (a subclass of `S`).
const OBJECTS: u64 = 3;
const METHODS: [&str; 4] = ["A", "B", "C", "D"];
/// Small enough that the unrestricted groups hit it.
const CAPS: DetectorCaps = DetectorCaps {
    max_buffered_per_node: 4,
};

fn registry() -> ClassRegistry {
    let mut reg = ClassRegistry::new();
    let decl = METHODS
        .iter()
        .fold(ClassDecl::reactive("S"), |d, &m| d.method(m, &[]));
    reg.define(decl).unwrap();
    reg.define(ClassDecl::reactive("T").parent("S")).unwrap();
    reg
}

fn leaf(method: &str) -> EventExpr {
    EventExpr::primitive(PrimitiveEventSpec::end("S", method))
}

/// The event and consumption policy a sharing group draws: every
/// operator family, symbol-bounded and broad (`Plus`) alike.
fn group_event(kind: usize) -> (EventExpr, ParamContext) {
    let (a, b, c) = (leaf("A"), leaf("B"), leaf("C"));
    match kind % 9 {
        0 => (a.then(b), ParamContext::Chronicle),
        1 => (a.and(b), ParamContext::Recent),
        2 => (a.or(b).then(c), ParamContext::Continuous),
        3 => (a.times(2), ParamContext::Chronicle),
        4 => (EventExpr::any(2, vec![a, b, c]), ParamContext::Continuous),
        5 => (EventExpr::not_between(c, a, b), ParamContext::Recent),
        6 => (a.then(b).sliding_window(6), ParamContext::Unrestricted),
        7 => (a.plus(3), ParamContext::Chronicle),
        _ => (a.and(b.or(c)), ParamContext::Unrestricted),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Sub {
    Object(u64),
    Class(&'static str),
}

#[derive(Debug, Clone)]
enum Op {
    Send {
        oid: u64,
        method: &'static str,
        v: i64,
    },
    Disable(String),
    Enable(String),
    Subscribe(Vec<String>, Sub),
    Unsubscribe(Vec<String>, Sub),
    Remove(String),
}

#[derive(Debug, Clone)]
struct Txn {
    ops: Vec<Op>,
    commit: bool,
    /// Checkpoint and recover after the transaction ends.
    checkpoint: bool,
}

/// What the database keeps of a rule besides its definition: the
/// `enabled` flag and the subscription edges.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    enabled: bool,
    subs: BTreeSet<Sub>,
}

/// A detection as the rule saw it: interval and constituents.
type Fired = (u64, u64, Vec<(u64, Oid)>);

/// A rule's place in the firing order: priority, then rule-object oid.
type Key = (Reverse<i32>, Oid);

/// One immediate firing of an occurrence: the rule's key and name, and
/// what it detected.
type Step = (Key, String, Fired);

/// A rule as the catalog holds it: definition, rule-object oid, and
/// flag and edges.
type Spec = (RuleDef, Oid, Entry);

/// One engine plus the catalog bookkeeping a database does around it.
struct World {
    reg: ClassRegistry,
    eng: RuleEngine,
    defs: BTreeMap<String, (RuleDef, Oid)>,
    live: BTreeMap<String, Entry>,
    ids: HashMap<String, RuleId>,
    /// At transaction start: the clock and the catalog to roll back to.
    saved: Option<(u64, BTreeMap<String, Entry>)>,
    /// Stats of rule incarnations gone (removed, or lost to recovery).
    past: BTreeMap<String, RuleStats>,
    fired: BTreeMap<String, Vec<Fired>>,
    /// Each occurrence's immediate firings, in the order they came.
    sends: Vec<Vec<Step>>,
    at: u64,
    /// Most rules seen sharing one engine's detectors at once.
    max_shared: usize,
}

fn add_stats(acc: &mut RuleStats, s: RuleStats) {
    acc.notifications += s.notifications;
    acc.triggered += s.triggered;
    acc.condition_evals += s.condition_evals;
    acc.condition_true += s.condition_true;
    acc.actions_run += s.actions_run;
}

impl World {
    fn new(reg: &ClassRegistry, rules: &[Spec]) -> World {
        let mut w = World {
            reg: reg.clone(),
            eng: engine(),
            defs: BTreeMap::new(),
            live: BTreeMap::new(),
            ids: HashMap::new(),
            saved: None,
            past: BTreeMap::new(),
            fired: BTreeMap::new(),
            sends: Vec::new(),
            at: 0,
            max_shared: 0,
        };
        for (def, oid, entry) in rules {
            w.defs.insert(def.name.clone(), (def.clone(), *oid));
            w.install(&def.name, entry);
        }
        w
    }

    fn holds(&self, name: &str) -> bool {
        self.defs.contains_key(name)
    }

    /// Add a fresh incarnation of `name` and bring it to `entry`.
    fn install(&mut self, name: &str, entry: &Entry) -> RuleId {
        let (def, oid) = self.defs[name].clone();
        let id = self.eng.add_rule(def, oid, &self.reg).unwrap();
        self.ids.insert(name.to_string(), id);
        self.live.insert(
            name.to_string(),
            Entry {
                enabled: true,
                subs: BTreeSet::new(),
            },
        );
        self.sync(name, entry);
        id
    }

    /// Make the engine's flag and edges for `name` match `want` — what
    /// `Database::sync_rule` does from the rule object's slots.
    fn sync(&mut self, name: &str, want: &Entry) {
        let id = self.ids[name];
        let have = self.live[name].clone();
        if have.enabled != want.enabled {
            if want.enabled {
                self.eng.enable(id).unwrap();
            } else {
                self.eng.disable(id).unwrap();
            }
        }
        for &s in have.subs.difference(&want.subs) {
            self.edge(id, s, false);
        }
        for &s in want.subs.difference(&have.subs) {
            self.edge(id, s, true);
        }
        self.live.insert(name.to_string(), want.clone());
    }

    fn edge(&mut self, id: RuleId, sub: Sub, on: bool) {
        let subs = &mut self.eng.subscriptions;
        match (sub, on) {
            (Sub::Object(o), true) => subs.subscribe_object(Oid(o), id),
            (Sub::Object(o), false) => subs.unsubscribe_object(Oid(o), id),
            (Sub::Class(c), true) => subs.subscribe_class(self.reg.id_of(c).unwrap(), id),
            (Sub::Class(c), false) => subs.unsubscribe_class(self.reg.id_of(c).unwrap(), id),
        }
    }

    fn record(&mut self, firings: FiringBatch) {
        for f in firings.iter() {
            let (name, fired) = detection(&f);
            self.fired.entry(name).or_default().push(fired);
        }
    }

    /// Record an occurrence's immediate firings, keyed, in the order
    /// they came.
    fn record_send(&mut self, firings: FiringBatch) {
        let steps = firings
            .iter()
            .map(|f| {
                let (name, fired) = detection(&f);
                let (def, oid) = &self.defs[&name];
                ((Reverse(def.priority), *oid), name, fired)
            })
            .collect();
        self.sends.push(steps);
        self.record(firings);
    }

    fn begin(&mut self) {
        self.eng.begin_capture();
        self.saved = Some((self.at, self.live.clone()));
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Send { oid, method, v } => {
                self.at += 1;
                let class = self.reg.id_of(if *oid == 3 { "T" } else { "S" }).unwrap();
                let occ = PrimitiveOccurrence {
                    at: self.at,
                    oid: Oid(*oid),
                    class,
                    owner: self.reg.id_of("S").unwrap(),
                    method: (*method).into(),
                    modifier: EventModifier::End,
                    params: Arc::from(vec![Value::Int(*v)]),
                };
                let fired = self.eng.on_occurrence(&self.reg, &occ).unwrap();
                self.record_send(fired);
                let shared = self.eng.rule_count() - self.eng.detector_count();
                self.max_shared = self.max_shared.max(shared);
            }
            Op::Disable(name) | Op::Enable(name) => {
                if let Some(entry) = self.live.get(name) {
                    let mut want = entry.clone();
                    want.enabled = matches!(op, Op::Enable(_));
                    self.sync(name, &want);
                }
            }
            Op::Subscribe(names, sub) | Op::Unsubscribe(names, sub) => {
                for name in names {
                    if let Some(entry) = self.live.get(name) {
                        let mut want = entry.clone();
                        if matches!(op, Op::Subscribe(..)) {
                            want.subs.insert(*sub);
                        } else {
                            want.subs.remove(sub);
                        }
                        self.sync(name, &want);
                    }
                }
            }
            Op::Remove(name) => {
                if self.live.remove(name).is_some() {
                    let id = self.ids[name];
                    add_stats(
                        self.past.entry(name.clone()).or_default(),
                        self.eng.rule(id).unwrap().stats(),
                    );
                    self.eng.remove_rule(id).unwrap();
                }
            }
        }
    }

    /// End the transaction the way the database does: a commit drains
    /// the queues; an abort restores the catalog (re-adding rules the
    /// transaction removed), re-syncs the engine from it, discards the
    /// queued firings, rolls back the journaled detectors and prunes
    /// what the journals could not cover.
    fn end(&mut self, commit: bool) {
        let (start, saved) = self.saved.take().expect("a transaction is open");
        if commit {
            let deferred = self.eng.take_deferred();
            self.record(deferred);
            self.eng.commit_capture();
            let detached = self.eng.take_detached();
            self.record(detached);
            return;
        }
        for (name, entry) in &saved {
            if self.live.contains_key(name) {
                self.sync(name, entry);
            } else {
                self.install(name, entry);
            }
        }
        self.eng.discard_pending();
        self.eng.abort_capture();
        self.eng.prune_detectors_newer_than(start);
    }

    /// Checkpoint every rule's detector state by name, then rebuild the
    /// engine from the catalog and re-import it — recovery's path.
    fn checkpoint_recover(&mut self) {
        let old = std::mem::replace(&mut self.eng, engine());
        for (name, entry) in self.live.clone() {
            let old_id = self.ids[&name];
            add_stats(
                self.past.entry(name.clone()).or_default(),
                old.rule(old_id).unwrap().stats(),
            );
            let state = old.detector_of(old_id).unwrap().export_state();
            let id = self.install(&name, &entry);
            if entry.enabled {
                assert!(self.eng.detector_of_mut(id).unwrap().import_state(&state));
            }
        }
    }

    fn run(&mut self, program: &[Txn]) {
        for txn in program {
            self.begin();
            for op in &txn.ops {
                let applies = match op {
                    Op::Send { .. } | Op::Subscribe(..) | Op::Unsubscribe(..) => true,
                    Op::Disable(n) | Op::Enable(n) | Op::Remove(n) => self.holds(n),
                };
                if applies {
                    self.apply(op);
                }
            }
            self.end(txn.commit);
            if txn.checkpoint {
                self.checkpoint_recover();
            }
        }
    }

    /// Each rule's lifetime stats and sorted firings.
    fn outcome(&self, name: &str) -> (RuleStats, Vec<Fired>) {
        let mut stats = self.past.get(name).copied().unwrap_or_default();
        if self.live.contains_key(name) {
            add_stats(&mut stats, self.eng.rule(self.ids[name]).unwrap().stats());
        }
        let mut fired = self.fired.get(name).cloned().unwrap_or_default();
        fired.sort();
        (stats, fired)
    }
}

/// The rule a firing belongs to, and what it detected.
fn detection(f: &ReadyRef<'_>) -> (String, Fired) {
    let occ = f.firing.occurrence;
    let parts = occ.constituents.iter().map(|c| (c.at, c.oid)).collect();
    (f.firing.rule_name.to_string(), (occ.start, occ.end, parts))
}

fn engine() -> RuleEngine {
    let mut eng = RuleEngine::new();
    eng.set_detector_caps(CAPS);
    eng
}

/// `GROUPS` groups of `PER_GROUP` rules; a group shares its event and
/// context and differs in coupling. Priorities are drawn from a small
/// range, so ties are common, and rule-object oids are drawn in random
/// order. Every rule starts subscribed to class `S`, so each group
/// starts out shareable.
fn rules(rng: &mut StdRng) -> Vec<Spec> {
    let couplings = [
        CouplingMode::Immediate,
        CouplingMode::Deferred,
        CouplingMode::Detached,
    ];
    let mut out = Vec::new();
    for g in 0..GROUPS {
        let (event, context) = group_event(rng.random_range(0..9usize));
        for r in 0..PER_GROUP {
            let def = RuleDef::new(format!("g{g}r{r}"), event.clone(), ACTION_NOOP)
                .coupling(couplings[r % couplings.len()])
                .priority(rng.random_range(0..3))
                .context(context);
            // Distinct: the low bits number the rule.
            let oid = Oid(rng.random_range(1..1000u64) * 16 + (g * PER_GROUP + r) as u64);
            let entry = Entry {
                enabled: true,
                subs: BTreeSet::from([Sub::Class("S")]),
            };
            out.push((def, oid, entry));
        }
    }
    out
}

fn program(rng: &mut StdRng) -> Vec<Txn> {
    let rule = |rng: &mut StdRng| {
        format!(
            "g{}r{}",
            rng.random_range(0..GROUPS),
            rng.random_range(0..PER_GROUP)
        )
    };
    (0..rng.random_range(8..20))
        .map(|_| {
            let ops = (0..rng.random_range(1..9))
                .map(|_| match rng.random_range(0..100) {
                    0..=5 => Op::Disable(rule(rng)),
                    6..=13 => Op::Enable(rule(rng)),
                    14..=29 => {
                        // Half the edge changes hit a whole group, so
                        // split groups get the chance to merge again.
                        let names = if rng.random_bool(0.5) {
                            let g = rng.random_range(0..GROUPS);
                            (0..PER_GROUP).map(|r| format!("g{g}r{r}")).collect()
                        } else {
                            vec![rule(rng)]
                        };
                        let sub = match rng.random_range(0..4) {
                            0 => Sub::Class("S"),
                            1 => Sub::Class("T"),
                            _ => Sub::Object(rng.random_range(1..OBJECTS + 1)),
                        };
                        if rng.random_bool(0.5) {
                            Op::Subscribe(names, sub)
                        } else {
                            Op::Unsubscribe(names, sub)
                        }
                    }
                    30..=31 => Op::Remove(rule(rng)),
                    _ => Op::Send {
                        oid: rng.random_range(1..OBJECTS + 1),
                        method: METHODS[rng.random_range(0..METHODS.len())],
                        v: rng.random_range(0..100i64),
                    },
                })
                .collect();
            Txn {
                ops,
                commit: rng.random_bool(0.7),
                checkpoint: rng.random_bool(0.15),
            }
        })
        .collect()
}

/// Run `program` on one engine holding `rules` and on one reference
/// engine per rule; every rule must see the same outcome on both, and
/// each occurrence must fire the shared engine's immediate rules in key
/// order, as the reference engines' firings merge. Returns the most
/// rules the shared engine ever had sharing at once.
fn check(reg: &ClassRegistry, rules: &[Spec], program: &[Txn], tag: &str) -> usize {
    let mut shared = World::new(reg, rules);
    shared.run(program);
    let mut alone = Vec::new();
    for rule in rules {
        let mut world = World::new(reg, std::slice::from_ref(rule));
        world.run(program);
        let name = &rule.0.name;
        assert_eq!(
            shared.outcome(name),
            world.outcome(name),
            "{tag}: rule {name} diverged from its private reference"
        );
        alone.push(world);
    }
    for (k, got) in shared.sends.iter().enumerate() {
        assert!(
            got.is_sorted_by_key(|(key, ..)| *key),
            "{tag}: occurrence {k} fired out of key order: {got:?}"
        );
        let mut want: Vec<Step> = alone.iter().flat_map(|w| w.sends[k].clone()).collect();
        want.sort_by_key(|(key, ..)| *key);
        assert_eq!(got, &want, "{tag}: occurrence {k} fired in another order");
    }
    shared.max_shared
}

#[test]
fn shared_detectors_match_private_reference_engines() {
    let reg = registry();
    let mut max_shared = 0;
    for seed in 0..96 {
        let mut rng = StdRng::seed_from_u64(seed);
        let rules = rules(&mut rng);
        let program = program(&mut rng);
        max_shared = max_shared.max(check(&reg, &rules, &program, &format!("seed {seed}")));
    }
    assert!(
        max_shared >= PER_GROUP,
        "the programs never shared a detector"
    );
}

/// Two detectors that reach equal state and equal keys mid-transaction
/// must not merge while either has a journal open: the abort has to
/// restore each to its own pre-transaction state.
#[test]
fn journaled_detectors_stay_apart_until_the_transaction_ends() {
    let reg = registry();
    let (event, context) = group_event(0); // A ; B, chronicle
    let rule = |name: &str, oid: u64, sub: Sub| {
        let def = RuleDef::new(name, event.clone(), ACTION_NOOP).context(context);
        let entry = Entry {
            enabled: true,
            subs: BTreeSet::from([sub]),
        };
        (def, Oid(oid), entry)
    };
    let rules = [
        rule("class", 100, Sub::Class("S")),
        rule("one", 101, Sub::Object(1)),
    ];
    let send = |oid, method| Op::Send { oid, method, v: 0 };
    let txn = |ops, commit| Txn {
        ops,
        commit,
        checkpoint: false,
    };
    let names = |n: &str| vec![n.to_string()];
    let program = [
        // Only `class` hears object 2: it arms an A.
        txn(vec![send(2, "A")], true),
        // `class` consumes its A (journaled); both are now empty, and
        // `one` takes `class`'s subscriptions — equal keys, equal state.
        txn(
            vec![
                send(2, "B"),
                Op::Subscribe(names("one"), Sub::Class("S")),
                Op::Unsubscribe(names("one"), Sub::Object(1)),
                send(3, "D"),
            ],
            false,
        ),
        // After the abort `class` has its A back and `one` has nothing:
        // a B on object 1 completes `class` only.
        txn(vec![send(1, "B")], true),
    ];
    check(&reg, &rules, &program, "journaled merge");
}

fn sensor_db(config: DbConfig) -> Database {
    let mut db = Database::with_config(config).unwrap();
    db.define_class(
        ClassDecl::reactive("Sensor")
            .event_method("Warm", &[], EventSpec::End)
            .event_method("Hot", &[], EventSpec::End),
    )
    .unwrap();
    register_code(&mut db);
    db
}

fn register_code(db: &mut Database) {
    for m in ["Warm", "Hot"] {
        db.register_method("Sensor", m, |_, _, _| Ok(Value::Null))
            .unwrap();
    }
}

const WATCHERS: [&str; 3] = ["W0", "W1", "W2"];

/// Three class rules on the same half-matchable sequence.
fn add_watchers(db: &mut Database) {
    let warm_then_hot = event("end Sensor::Warm()")
        .unwrap()
        .then(event("end Sensor::Hot()").unwrap());
    for name in WATCHERS {
        let def =
            RuleDef::new(name, warm_then_hot.clone(), ACTION_NOOP).context(ParamContext::Chronicle);
        db.add_class_rule("Sensor", def).unwrap();
    }
}

fn buffered(db: &Database) -> Vec<usize> {
    WATCHERS
        .iter()
        .map(|n| db.rule_detector_buffered(n).unwrap())
        .collect()
}

fn triggered(db: &Database) -> Vec<u64> {
    WATCHERS
        .iter()
        .map(|n| db.rule_stats(n).unwrap().triggered)
        .collect()
}

#[test]
fn half_matched_shared_sequence_survives_checkpoint_and_regroups() {
    let dir = std::env::temp_dir().join(format!("sentinel-shared-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sensor;
    {
        let mut db = sensor_db(DbConfig::durable(&dir));
        add_watchers(&mut db);
        sensor = db.create("Sensor").unwrap();
        db.send(sensor, "Warm", &[]).unwrap();
        assert_eq!(
            db.detector_count(),
            1,
            "three identical rules, one detector"
        );
        db.checkpoint().unwrap();
    }

    // The snapshot format is unchanged: state is keyed per rule name,
    // one entry for each member of the group.
    let snap = Snapshot::load(dir.join("snapshot.json")).unwrap();
    let catalog: CatalogSnapshot = serde_json::from_str(&snap.extra).unwrap();
    let names: Vec<&str> = catalog
        .detector_state
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    assert_eq!(names, WATCHERS);
    assert!(catalog.detector_state.windows(2).all(|w| w[0].1 == w[1].1));

    let mut db = Database::recover(DbConfig::durable(&dir)).unwrap();
    register_code(&mut db);
    assert_eq!(buffered(&db), [1, 1, 1], "the armed Warm survived");
    db.send(sensor, "Hot", &[]).unwrap();
    assert_eq!(triggered(&db), [1, 1, 1]);
    assert_eq!(db.detector_count(), 1, "the group merged again");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn abort_restores_a_shared_detector_for_every_member() {
    let mut db = sensor_db(DbConfig::in_memory());
    add_watchers(&mut db);
    let sensor = db.create("Sensor").unwrap();
    db.send(sensor, "Warm", &[]).unwrap();

    // Hot consumes the armed Warm inside a transaction that aborts:
    // every member gets its Warm back.
    db.begin().unwrap();
    db.send(sensor, "Hot", &[]).unwrap();
    assert_eq!(buffered(&db), [0, 0, 0]);
    db.abort().unwrap();
    assert_eq!(buffered(&db), [1, 1, 1]);
    assert_eq!(db.detector_count(), 1);

    // A Warm raised by an aborted transaction arms nobody.
    db.send(sensor, "Hot", &[]).unwrap();
    let before = triggered(&db);
    db.begin().unwrap();
    db.send(sensor, "Warm", &[]).unwrap();
    db.abort().unwrap();
    db.send(sensor, "Hot", &[]).unwrap();
    assert_eq!(triggered(&db), before);
    assert_eq!(buffered(&db), [0, 0, 0]);
}

#[test]
fn disabling_one_member_keeps_the_others_partial_detections() {
    let mut db = sensor_db(DbConfig::in_memory());
    add_watchers(&mut db);
    let sensor = db.create("Sensor").unwrap();
    db.send(sensor, "Warm", &[]).unwrap();

    db.disable_rule("W0").unwrap();
    assert_eq!(buffered(&db), [0, 1, 1]);
    db.send(sensor, "Hot", &[]).unwrap();
    assert_eq!(triggered(&db), [0, 1, 1]);
    assert_eq!(db.detector_count(), 2, "W0 alone, W1 and W2 still shared");

    // Re-enabled, W0 starts empty — as the others are now — so the next
    // occurrence folds it back into the group.
    db.enable_rule("W0").unwrap();
    db.send(sensor, "Warm", &[]).unwrap();
    assert_eq!(db.detector_count(), 1);
    db.send(sensor, "Hot", &[]).unwrap();
    assert_eq!(triggered(&db), [1, 2, 2]);
}
