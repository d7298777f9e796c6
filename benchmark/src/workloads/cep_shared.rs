//! `cep_shared`: 256 rules over a 16-method reactive class, built from
//! 32 distinct composite expressions that eight rules each share.
//! In memory, one client, conditions almost always false: detection and
//! routing do the work, storage none.

use super::timed_analyze;
use crate::gen::{cep, DEFAULT_SEED};
use crate::harness::{
    package_dir, transaction, Checks, ClientRound, Env, Finished, Opts, Res, Round, Workload,
};
use crate::layers::{LayerInput, Stim};
use crate::trace::{Probe, SpanName};
use sentinel_db::prelude::*;
use sentinel_db::Database;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

const GROUPS: usize = 32;
const RULES_PER_GROUP: usize = 8;
const CLASS: &str = "Sensor";

pub struct CepShared {
    db: Database,
    sensors: Vec<Oid>,
    methods: Vec<Arc<str>>,
    shape: cep::Shape,
    seed: u64,
    analyze_ms: f64,
}

fn method_name(m: usize) -> String {
    format!("M{m}")
}

fn leaf(m: usize) -> EventExpr {
    EventExpr::primitive(PrimitiveEventSpec::end(CLASS, method_name(m)))
}

/// The expression and consumption policy rule group `g` shares. Every
/// kind keeps bounded state: restricted contexts or a window.
fn group_event(g: usize) -> (EventExpr, ParamContext) {
    let a = g % cep::METHODS;
    let b = (a + 1 + g / 8) % cep::METHODS;
    let c = (a + 7 + g / 4) % cep::METHODS;
    debug_assert!(a != b && b != c && a != c);
    let (a, b, c) = (leaf(a), leaf(b), leaf(c));
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

fn rule_name(g: usize, r: usize) -> String {
    format!("g{g:02}r{r}")
}

fn rules() -> Vec<RuleDef> {
    let mut out = Vec::with_capacity(GROUPS * RULES_PER_GROUP);
    for g in 0..GROUPS {
        let (event, context) = group_event(g);
        for r in 0..RULES_PER_GROUP {
            let coupling = if r % 4 == 0 {
                CouplingMode::Deferred
            } else {
                CouplingMode::Immediate
            };
            out.push(
                RuleDef::new(rule_name(g, r), event.clone(), ACTION_NOOP)
                    .condition("top-reading")
                    .coupling(coupling)
                    .priority(r as i32)
                    .context(context),
            );
        }
    }
    out
}

/// Detections per sharing group after the warm-up round, for the default
/// seed, at the full and the smoke size.
#[derive(Debug, Default, PartialEq, Serialize, Deserialize)]
struct Golden {
    full: Vec<u64>,
    smoke: Vec<u64>,
}

fn golden_path() -> std::path::PathBuf {
    package_dir().join("golden").join("cep_shared.json")
}

impl CepShared {
    /// Detections of each group's first rule; a failed check if the
    /// group's other rules disagree with it.
    fn group_detections(&self, checks: &mut Checks) -> Res<Vec<u64>> {
        let mut out = Vec::with_capacity(GROUPS);
        for g in 0..GROUPS {
            let first = self.db.rule_stats(&rule_name(g, 0))?;
            for r in 1..RULES_PER_GROUP {
                let other = self.db.rule_stats(&rule_name(g, r))?;
                checks.require(
                    other.triggered == first.triggered
                        && other.condition_evals == first.condition_evals
                        && other.notifications == first.notifications,
                    || format!("sharing group {g}: rule {r} saw {other:?}, rule 0 saw {first:?}"),
                );
            }
            out.push(first.triggered);
        }
        Ok(out)
    }
}

impl Workload for CepShared {
    const NAME: &'static str = "cep_shared";
    const CLIENTS: usize = 1;
    const SYNC: &'static str = "in-memory";

    fn setup(env: &Env) -> Res<Self> {
        let shape = env.shape(cep::Shape::FULL, cep::Shape::SMOKE);
        let mut config = DbConfig::in_memory();
        // Restricted contexts pair operands off, but one operand can run
        // ahead of the other; the cap keeps that backlog (and so the
        // cost per event) from drifting over a long run.
        config.detector_caps.max_buffered_per_node = 64;
        let mut db = Database::with_config(config)?;
        let mut decl = ClassDecl::reactive(CLASS).attr("label", TypeTag::Str);
        for m in 0..cep::METHODS {
            decl = decl.event_method(method_name(m), &[("v", TypeTag::Int)], EventSpec::End);
        }
        db.define_class(decl)?;
        for m in 0..cep::METHODS {
            db.register_method(CLASS, &method_name(m), |_, _, _| Ok(Value::Null))?;
        }
        db.register_condition("top-reading", |_, f| {
            let last = f.occurrence.constituents.last();
            Ok(last.and_then(|c| c.param(0)) == Some(&Value::Int(cep::PARAM_RANGE - 1)))
        });
        for def in rules() {
            db.add_class_rule(CLASS, def)?;
        }
        let analyze_ms = timed_analyze(&db)?;
        let sensors = (0..shape.sensors)
            .map(|_| db.create(CLASS))
            .collect::<sentinel_object::Result<_>>()?;
        Ok(CepShared {
            db,
            sensors,
            methods: (0..cep::METHODS)
                .map(|m| Arc::from(method_name(m)))
                .collect(),
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
        let txns = probe.span(SpanName::Gen, |_| cep::round(self.seed, round, &self.shape));
        let gen_ns = t0.elapsed().as_nanos() as u64;

        let mut client = ClientRound::default();
        client.latencies_ns.reserve(txns.len());
        let t0 = Instant::now();
        for txn in &txns {
            client.record(|| {
                let done = transaction(&mut self.db, probe, |db, probe| {
                    for s in &txn.sends {
                        let (oid, method) = (
                            self.sensors[s.sensor as usize],
                            &self.methods[s.method as usize],
                        );
                        probe.span(SpanName::Send, |_| db.send(oid, method, &[Value::Int(s.v)]))?;
                    }
                    Ok(())
                });
                let ops = cep::SENDS_PER_TXN as u64;
                (ops, if done.is_ok() { 0 } else { ops })
            });
        }
        let wall_ns = t0.elapsed().as_nanos() as u64;
        client.busy_ns = wall_ns;
        Ok(Round {
            gen_ns,
            wall_ns,
            drain_ns: 0,
            clients: vec![client],
        })
    }

    fn check_warmup(&mut self, opts: &Opts, checks: &mut Checks) -> Res<()> {
        let detections = self.group_detections(checks)?;
        if opts.seed != DEFAULT_SEED {
            return Ok(());
        }
        let path = golden_path();
        let mut golden: Golden = match std::fs::read_to_string(&path) {
            Ok(text) => serde_json::from_str(&text)?,
            Err(_) if opts.write_golden => Golden::default(),
            Err(e) => return Err(format!("{}: {e}", path.display()).into()),
        };
        let slot = if opts.smoke {
            &mut golden.smoke
        } else {
            &mut golden.full
        };
        if opts.write_golden {
            *slot = detections;
            std::fs::create_dir_all(path.parent().expect("golden dir"))?;
            std::fs::write(&path, serde_json::to_string_pretty(&golden)? + "\n")?;
        } else {
            checks.require(*slot == detections, || {
                format!("detections per group {detections:?} differ from golden {slot:?}")
            });
        }
        Ok(())
    }

    fn database<R>(&mut self, f: impl FnOnce(&mut Database) -> R) -> R {
        f(&mut self.db)
    }

    fn layer_input(&mut self) -> Res<LayerInput> {
        let mut stream = Vec::new();
        for txn in cep::round(self.seed, 1, &self.shape).iter().take(1000) {
            for s in &txn.sends {
                stream.push(Stim::Send {
                    oid: self.sensors[s.sensor as usize],
                    method: self.methods[s.method as usize].clone(),
                    params: Arc::from(vec![Value::Int(s.v)]),
                });
            }
            stream.push(Stim::Commit);
        }
        Ok(LayerInput {
            registry: self.db.registry().clone(),
            class: Some(CLASS.into()),
            rules: rules(),
            caps: DetectorCaps {
                max_buffered_per_node: 64,
            },
            time_mode: TimeMode::Logical,
            stream,
            write_class: None,
            write_objects: 0,
            writes: Vec::new(),
        })
    }

    fn finish(self, _env: &Env, checks: &mut Checks) -> Res<Finished> {
        self.group_detections(checks)?;
        let stats = self.db.stats();
        checks.require(stats.aborts == 0, || {
            format!("{} transactions aborted", stats.aborts)
        });
        checks.require(
            stats.condition_true * 100 < stats.condition_evals.max(1),
            || {
                format!(
                    "conditions held {} times in {}: not almost always false",
                    stats.condition_true, stats.condition_evals
                )
            },
        );
        Ok(Finished::default())
    }
}
