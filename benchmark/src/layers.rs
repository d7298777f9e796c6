//! Per-layer replays: each layer timed on its own, from outside, by
//! calling its crate's public functions on the input the workload's
//! generator produced.

use crate::harness::{Metrics, Res};
use crate::stats::ratio;
use sentinel_events::{
    DetectorCaps, DetectorInstance, EventModifier, PrimitiveOccurrence, TimeMode, TimeSource,
};
use sentinel_object::{ClassRegistry, ObjectStore, Oid, Value};
use sentinel_rules::{RuleDef, RuleEngine, ACTION_NOOP, COND_TRUE};
use sentinel_storage::{LogRecord, SyncPolicy, Wal, WriteBatch};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One step of a workload's event stream.
pub enum Stim {
    /// A message sent to a reactive object: one end-of-method event.
    Send {
        oid: Oid,
        method: Arc<str>,
        params: Arc<[Value]>,
    },
    /// Virtual time passing.
    Advance(u64),
    /// A transaction boundary: queued firings are dropped here.
    Commit,
}

/// What the replays need from a workload: its schema and rule set, and
/// the event and write streams of a bounded sample of generated rounds.
pub struct LayerInput {
    pub registry: ClassRegistry,
    /// The reactive class the rules subscribe to (`None`: no rules).
    pub class: Option<String>,
    /// Class-level rules; timer-only rules are left out (no occurrence
    /// reaches them).
    pub rules: Vec<RuleDef>,
    pub caps: DetectorCaps,
    pub time_mode: TimeMode,
    pub stream: Vec<Stim>,
    /// The class written to, how many objects of it to create, and the
    /// attribute writes `(object index, attribute, value)`.
    pub write_class: Option<String>,
    pub write_objects: usize,
    pub writes: Vec<(usize, String, Value)>,
}

/// The stream as occurrences, handed to `each` with the clock advanced.
fn for_each_occurrence(
    input: &LayerInput,
    time: &TimeSource,
    mut each: impl FnMut(Option<&PrimitiveOccurrence>) -> Res<()>,
) -> Res<()> {
    let Some(class) = &input.class else {
        return Ok(());
    };
    let class = input.registry.id_of(class)?;
    for stim in &input.stream {
        match stim {
            Stim::Send {
                oid,
                method,
                params,
            } => each(Some(&PrimitiveOccurrence {
                at: time.tick(),
                oid: *oid,
                class,
                owner: class,
                method: method.clone(),
                modifier: EventModifier::End,
                params: params.clone(),
            }))?,
            Stim::Advance(delta) => {
                time.advance_virtual(*delta);
            }
            Stim::Commit => each(None)?,
        }
    }
    Ok(())
}

/// `events`: every occurrence offered to every rule's compiled detector.
fn replay_events(input: &LayerInput, metrics: &mut Metrics) -> Res<()> {
    let time = Arc::new(TimeSource::new(input.time_mode));
    let mut detectors = Vec::new();
    for def in &input.rules {
        let mut d =
            DetectorInstance::compile(&def.event, &input.registry, def.context, input.caps)?;
        d.set_time_source(time.clone());
        detectors.push(d);
    }
    let t0 = Instant::now();
    for_each_occurrence(input, &time, |occ| {
        if let Some(occ) = occ {
            for d in &mut detectors {
                black_box(d.process(&input.registry, black_box(occ)));
            }
        }
        Ok(())
    })?;
    let ns = t0.elapsed().as_nanos() as f64;
    let offered: u64 = detectors.iter().map(|d| d.stats().offered).sum();
    let matched: u64 = detectors.iter().map(|d| d.stats().matched).sum();
    metrics.put("events.deliver_ns", ratio(ns, offered as f64), "ns");
    metrics.put(
        "events.match_ratio",
        ratio(matched as f64, offered as f64),
        "ratio",
    );
    Ok(())
}

/// `rules`: the same stream through `RuleEngine::on_occurrence`, the
/// rules keeping their events and coupling but with no-op bodies.
fn replay_rules(input: &LayerInput, metrics: &mut Metrics) -> Res<()> {
    let time = Arc::new(TimeSource::new(input.time_mode));
    let mut engine = RuleEngine::new();
    engine.set_detector_caps(input.caps);
    engine.set_time_source(time.clone());
    if let Some(class) = &input.class {
        let class = input.registry.id_of(class)?;
        for def in &input.rules {
            let def = RuleDef {
                condition: COND_TRUE.into(),
                action: ACTION_NOOP.into(),
                ..def.clone()
            };
            let id = engine.add_rule(def, Oid::NIL, &input.registry)?;
            engine.subscriptions.subscribe_class(class, id);
        }
    }
    let t0 = Instant::now();
    for_each_occurrence(input, &time, |occ| {
        match occ {
            Some(occ) => {
                black_box(engine.on_occurrence(&input.registry, black_box(occ))?);
            }
            None => {
                engine.take_deferred();
                engine.take_detached();
            }
        }
        Ok(())
    })?;
    let ns = t0.elapsed().as_nanos() as f64;
    let stats = engine.stats();
    metrics.put("rules.route_ns", ratio(ns, stats.occurrences as f64), "ns");
    metrics.put(
        "rules.notifications_per_occurrence",
        ratio(stats.notifications as f64, stats.occurrences as f64),
        "ratio",
    );
    Ok(())
}

/// `object`: the write set against a bare `ObjectStore`.
fn replay_object(input: &LayerInput, metrics: &mut Metrics) -> Res<()> {
    let Some(class) = &input.write_class else {
        metrics.put("object.write_ns", 0.0, "ns");
        return Ok(());
    };
    let class = input.registry.id_of(class)?;
    let store = ObjectStore::new();
    let t0 = Instant::now();
    let oids: Vec<Oid> = (0..input.write_objects)
        .map(|_| store.create(&input.registry, class))
        .collect();
    for (object, attr, value) in &input.writes {
        black_box(store.set_attr_resolved(&input.registry, oids[*object], attr, value.clone())?);
    }
    let ns = t0.elapsed().as_nanos() as f64;
    metrics.put(
        "object.write_ns",
        ratio(ns, (input.write_objects + input.writes.len()) as f64),
        "ns",
    );
    Ok(())
}

pub fn replay(input: &LayerInput, metrics: &mut Metrics) -> Res<()> {
    replay_events(input, metrics)?;
    replay_rules(input, metrics)?;
    replay_object(input, metrics)
}

/// `storage`: the log tail the run left, appended again to a fresh WAL
/// one transaction batch at a time, and recovered.
pub fn replay_storage(dir: Option<&Path>, metrics: &mut Metrics) -> Res<()> {
    let Some(dir) = dir else {
        for (name, unit) in [
            ("storage.append_ns_per_record", "ns"),
            ("storage.bytes_per_record", "B"),
            ("storage.replay_records_per_s", "1/s"),
        ] {
            metrics.put(name, 0.0, unit);
        }
        return Ok(());
    };
    let records = Wal::read_all(dir.join("wal.log"))?;
    let replay_path = dir.join("replay.log");
    // The group never fills or ages on its own: appends only encode and
    // stage, and the one sync at the end is outside the timed part.
    let mut wal = Wal::open(
        &replay_path,
        SyncPolicy::Grouped {
            max_batch: usize::MAX,
            max_wait: Duration::MAX,
        },
    )?;
    let mut batch = WriteBatch::new();
    let mut append_ns = 0u128;
    for record in &records {
        if let LogRecord::Begin { txn } = record {
            batch.begin(*txn);
        }
        batch.push_record(record.clone());
        if matches!(record, LogRecord::Commit { .. }) {
            let t0 = Instant::now();
            wal.append_batch(&batch)?;
            append_ns += t0.elapsed().as_nanos();
            batch.commit();
        }
    }
    wal.sync_batch()?;
    drop(wal);
    let bytes = std::fs::metadata(&replay_path)?.len();
    std::fs::remove_file(&replay_path)?;
    metrics.put(
        "storage.append_ns_per_record",
        ratio(append_ns as f64, records.len() as f64),
        "ns",
    );
    metrics.put(
        "storage.bytes_per_record",
        ratio(bytes as f64, records.len() as f64),
        "B",
    );

    let t0 = Instant::now();
    let recovered = sentinel_storage::recover(dir.join("snapshot.json"), dir.join("wal.log"))?;
    let secs = t0.elapsed().as_secs_f64();
    metrics.put(
        "storage.replay_records_per_s",
        ratio(recovered.replayed as f64, secs),
        "1/s",
    );
    Ok(())
}
