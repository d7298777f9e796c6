//! `durable_ingest`: a passive class (no event interface, no rules)
//! written through group commit: creates, setter sends, direct attribute
//! writes and deletes, a checkpoint every round, then recovery.
//! `storage` and `object` do the work; `events` and `rules` almost none,
//! which is the paper's "passive objects pay nothing" path.
//!
//! One client on a bare `Database`: the group is synced inline, when it
//! is `max_wait` old or `max_batch` full. (Behind a `Sentinel` the sync
//! moves to the worker thread, and how often that thread wins the core
//! from a client that never pauses decides the throughput: a property of
//! the host's scheduler, which `fraud_mixed` is there to show.)

use super::{
    check_all_durable, checkpoint, durable_config, synced_wal_len, timed_analyze, timed_recovery,
    GROUPED_NAME,
};
use crate::gen::ingest::{self, DocId, Val};
use crate::harness::{
    locked, transaction, Checks, ClientRound, Env, Finished, Res, Round, Workload,
};
use crate::layers::LayerInput;
use crate::trace::{NoProbe, Probe, SpanName};
use sentinel_db::prelude::*;
use sentinel_db::Database;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

const CLASS: &str = "Doc";
/// Creates per populating transaction.
const POPULATE_BATCH: usize = 64;
/// Transactions kept from round 1 for the object-layer replay.
const SAMPLE_TXNS: usize = 500;

pub struct DurableIngest {
    db: Database,
    dir: PathBuf,
    generator: ingest::Generator,
    oids: HashMap<DocId, Oid>,
    attr_names: Vec<String>,
    setter_names: Vec<String>,
    next_round: u64,
    sample: Vec<ingest::Txn>,
    wal_bytes: u64,
    ops: u64,
    analyze_ms: f64,
}

fn value(v: &Val) -> Value {
    match v {
        Val::Int(i) => Value::Int(*i),
        Val::Float(f) => Value::Float(*f),
        Val::Str(s) => Value::Str(s.clone()),
    }
}

fn type_of(attr: u8) -> TypeTag {
    match attr {
        0..=7 => TypeTag::Int,
        8..=15 => TypeTag::Float,
        _ => TypeTag::Str,
    }
}

fn setter_name(attr: u8) -> String {
    format!("Set_{}", ingest::attr_name(attr))
}

/// Method bodies are code: registered at set-up and again after recovery.
fn register_setters(db: &mut Database) -> sentinel_object::Result<()> {
    for attr in ingest::SETTER_ATTRS {
        db.register_setter(CLASS, &setter_name(attr), &ingest::attr_name(attr))?;
    }
    Ok(())
}

impl DurableIngest {
    /// Run `txns`, with a checkpoint halfway through if `checkpointed`.
    fn run_txns<P: Probe>(
        &mut self,
        txns: &[ingest::Txn],
        probe: &mut P,
        checkpointed: bool,
    ) -> Res<ClientRound> {
        let mut client = ClientRound::default();
        client.latencies_ns.reserve(txns.len());
        let t0 = Instant::now();
        let checkpoint_at = txns.len() / 2;
        for (i, txn) in txns.iter().enumerate() {
            if checkpointed && i == checkpoint_at {
                let dir = &self.dir;
                self.wal_bytes += locked(&mut self.db, probe, SpanName::Checkpoint, |db, _| {
                    checkpoint(db, dir)
                })?;
            }
            let (oids, attrs, setters) = (&mut self.oids, &self.attr_names, &self.setter_names);
            let core = &mut self.db;
            client.record(|| {
                let done = transaction(core, probe, |db, probe| {
                    let oid = probe.span(SpanName::Create, |_| db.create(CLASS))?;
                    oids.insert(txn.create, oid);
                    for w in &txn.setters {
                        let (oid, name) = (oids[&w.doc], &setters[w.attr as usize]);
                        probe.span(SpanName::Send, |_| db.send(oid, name, &[value(&w.value)]))?;
                    }
                    for w in &txn.writes {
                        let (oid, name) = (oids[&w.doc], &attrs[w.attr as usize]);
                        probe.span(SpanName::SetAttr, |_| {
                            db.set_attr(oid, name, value(&w.value))
                        })?;
                    }
                    for doc in &txn.deletes {
                        let oid = oids.remove(doc).expect("deleted doc was live");
                        probe.span(SpanName::Delete, |_| db.delete(oid))?;
                    }
                    Ok(())
                });
                (txn.ops(), if done.is_ok() { 0 } else { txn.ops() })
            });
        }
        client.busy_ns = t0.elapsed().as_nanos() as u64;
        self.ops += client.ops;
        Ok(client)
    }

    /// Sync the last group, and check that every commit is acknowledged.
    fn drain<P: Probe>(&mut self, probe: &mut P) -> Res<()> {
        probe.span(SpanName::Drain, |_| self.db.sync_wal())?;
        check_all_durable(&self.db)
    }
}

/// Compare every live document in `db` with the generator's model.
fn check_against_model(
    db: &Database,
    what: &str,
    generator: &ingest::Generator,
    oids: &HashMap<DocId, Oid>,
    attr_names: &[String],
    checks: &mut Checks,
) -> Res<()> {
    let model = generator.model();
    let extent = db.extent(CLASS)?.len();
    checks.require(extent == model.len(), || {
        format!("{what}: {extent} documents, the model has {}", model.len())
    });
    let mut wrong = 0usize;
    for (doc, want) in model {
        for (attr, want) in want.iter().enumerate() {
            if db.get_attr(oids[doc], &attr_names[attr]).ok() != Some(value(want)) {
                wrong += 1;
            }
        }
    }
    checks.require(wrong == 0, || {
        format!("{what}: {wrong} attribute values differ from the model")
    });
    Ok(())
}

impl Workload for DurableIngest {
    const NAME: &'static str = "durable_ingest";
    const CLIENTS: usize = 1;
    const SYNC: &'static str = GROUPED_NAME;

    fn setup(env: &Env) -> Res<Self> {
        let shape = env.shape(ingest::Shape::FULL, ingest::Shape::SMOKE);
        let mut db = Database::with_config(durable_config(&env.dir))?;
        let mut decl = ClassDecl::new(CLASS);
        for attr in 0..ingest::ATTRS as u8 {
            decl = decl.attr(ingest::attr_name(attr), type_of(attr));
        }
        for attr in ingest::SETTER_ATTRS {
            decl = decl.method(setter_name(attr), &[("x", type_of(attr))]);
        }
        db.define_class(decl)?;
        register_setters(&mut db)?;
        let analyze_ms = timed_analyze(&db)?;

        let mut generator = ingest::Generator::new(env.opts.seed, shape);
        let mut oids = HashMap::new();
        for docs in generator.populate().chunks(POPULATE_BATCH) {
            db.begin()?;
            for doc in docs {
                oids.insert(*doc, db.create(CLASS)?);
            }
            db.commit()?;
        }
        // The clock starts on an empty log.
        checkpoint(&mut db, &env.dir)?;
        Ok(DurableIngest {
            db,
            dir: env.dir.clone(),
            generator,
            oids,
            attr_names: (0..ingest::ATTRS as u8).map(ingest::attr_name).collect(),
            setter_names: (0..ingest::ATTRS as u8).map(setter_name).collect(),
            next_round: 0,
            sample: Vec::new(),
            wal_bytes: 0,
            ops: 0,
            analyze_ms,
        })
    }

    fn analyze_ms(&self) -> f64 {
        self.analyze_ms
    }

    fn round<P: Probe>(&mut self, round: u64, probes: &mut [P]) -> Res<Round> {
        let probe = &mut probes[0];
        let t0 = Instant::now();
        let txns = probe.span(SpanName::Gen, |_| self.generator.round(round));
        let gen_ns = t0.elapsed().as_nanos() as u64;
        self.next_round = round + 1;
        if round == 1 {
            self.sample = txns[..SAMPLE_TXNS.min(txns.len())].to_vec();
        }
        let t0 = Instant::now();
        let client = self.run_txns(&txns, probe, true)?;
        let drain_t0 = Instant::now();
        self.drain(probe)?;
        Ok(Round {
            gen_ns,
            wall_ns: t0.elapsed().as_nanos() as u64,
            drain_ns: drain_t0.elapsed().as_nanos() as u64,
            clients: vec![client],
        })
    }

    fn database<R>(&mut self, f: impl FnOnce(&mut Database) -> R) -> R {
        f(&mut self.db)
    }

    fn layer_input(&mut self) -> Res<LayerInput> {
        // Documents by index: the sampled transactions' own creates
        // first, then whatever else they touch.
        let mut index: HashMap<DocId, usize> = HashMap::new();
        let mut writes = Vec::new();
        for txn in &self.sample {
            for w in txn.setters.iter().chain(&txn.writes) {
                let next = index.len();
                let object = *index.entry(w.doc).or_insert(next);
                writes.push((
                    object,
                    self.attr_names[w.attr as usize].clone(),
                    value(&w.value),
                ));
            }
        }
        Ok(LayerInput {
            registry: self.db.registry().clone(),
            class: None,
            rules: Vec::new(),
            caps: DetectorCaps::default(),
            time_mode: TimeMode::Logical,
            stream: Vec::new(),
            write_class: Some(CLASS.into()),
            write_objects: index.len(),
            writes,
        })
    }

    fn finish(mut self, _env: &Env, checks: &mut Checks) -> Res<Finished> {
        // A log tail of fixed size after the last checkpoint, so recovery
        // replays the same amount whatever the run's length was.
        let dir = self.dir.clone();
        self.wal_bytes += checkpoint(&mut self.db, &dir)?;
        let tail = self.generator.tail(self.next_round);
        let client = self.run_txns(&tail, &mut NoProbe, false)?;
        checks.require(client.failed_ops == 0, || {
            format!("{} ops of the log tail failed", client.failed_ops)
        });
        self.drain(&mut NoProbe)?;
        self.wal_bytes += synced_wal_len(&mut self.db, &dir)?;

        let DurableIngest {
            db,
            generator,
            oids,
            attr_names,
            wal_bytes,
            ops,
            ..
        } = self;
        let stats = db.stats();
        checks.require(stats.aborts == 0, || {
            format!("{} transactions aborted", stats.aborts)
        });
        let notified = db.engine_stats().notifications;
        checks.require(notified == 0, || {
            format!("a passive class notified rules {notified} times")
        });
        check_against_model(
            &db,
            "before shutdown",
            &generator,
            &oids,
            &attr_names,
            checks,
        )?;
        drop(db);

        let first = oids[generator.model().keys().min().expect("live documents")];
        let recover_s = timed_recovery(&dir, durable_config, |db| {
            register_setters(db)?;
            db.send(first, &setter_name(0), &[Value::Int(1)])
                .map(|_| ())
        })?;
        let recovered = Database::recover(durable_config(&dir))?;
        check_against_model(
            &recovered,
            "after recovery",
            &generator,
            &oids,
            &attr_names,
            checks,
        )?;
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
