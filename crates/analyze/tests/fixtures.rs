//! Intentionally-broken rule sets under `tests/fixtures/` must produce
//! exactly the documented diagnostic codes — this is what makes the CI
//! `analyze-gate` step trustworthy: the gate that passes the shipped
//! examples is proven here to fail on broken input.

use sentinel_analyze::{diff_effects, ObservedEffects, RuleAnalyzer, Severity, Verdict};
use sentinel_events::{parse_signature, EventExpr};
use sentinel_object::{ClassDecl, ClassRegistry, Oid};
use sentinel_rules::{ActionEffects, CouplingMode, RuleDef, RuleEngine};
use serde::Deserialize;
use std::collections::HashMap;

#[derive(Deserialize)]
struct Fixture {
    #[allow(dead_code)]
    comment: String,
    classes: Vec<FixtureClass>,
    rules: Vec<FixtureRule>,
    effects: Vec<(String, FixtureEffects)>,
    class_subs: Vec<(String, String)>,
    object_subs: Vec<(String, String)>,
    observed: Vec<(String, FixtureEffectPairs)>,
    expect: Vec<FixtureExpect>,
}

#[derive(Deserialize)]
struct FixtureClass {
    name: String,
    reactive: bool,
    parent: String,
    methods: Vec<String>,
}

#[derive(Deserialize)]
struct FixtureRule {
    name: String,
    event: String,
    condition: String,
    action: String,
    coupling: String,
    priority: i64,
    enabled: bool,
}

#[derive(Deserialize)]
struct FixtureEffects {
    raises: Vec<(String, String)>,
    writes: Vec<(String, String)>,
}

#[derive(Deserialize)]
struct FixtureEffectPairs {
    raises: Vec<(String, String)>,
    writes: Vec<(String, String)>,
}

#[derive(Deserialize)]
struct FixtureExpect {
    code: String,
    /// Empty string = finding not attached to a rule.
    rule: String,
}

fn load(name: &str) -> Fixture {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

/// Build schema + engine + subscriptions from a fixture and run the
/// analyzer plus the declared-vs-observed diff.
fn analyze(fixture: &Fixture) -> sentinel_analyze::AnalysisReport {
    let mut registry = ClassRegistry::new();
    for c in &fixture.classes {
        let mut decl = if c.reactive {
            ClassDecl::reactive(&c.name)
        } else {
            ClassDecl::new(&c.name)
        };
        if !c.parent.is_empty() {
            decl = decl.parent(&c.parent);
        }
        for m in &c.methods {
            decl = decl.method(m, &[]);
        }
        registry.define(decl).unwrap();
    }

    let mut engine = RuleEngine::new();
    for r in &fixture.rules {
        if !engine.bodies.has_condition(&r.condition) {
            engine
                .bodies
                .register_condition(&r.condition, |_, _| Ok(true));
        }
        if !engine.bodies.has_action(&r.action) {
            engine.bodies.register_action(&r.action, |_, _| Ok(()));
        }
    }
    for (action, fx) in &fixture.effects {
        let mut effects = ActionEffects::none();
        for (class, method) in &fx.raises {
            effects = effects.raising(class, method);
        }
        for (class, attr) in &fx.writes {
            effects = effects.writing(class, attr);
        }
        engine
            .bodies
            .declare_action_effects(action, effects)
            .unwrap();
    }

    let mut object_classes = HashMap::new();
    let mut next_oid = 1000u64;
    for r in &fixture.rules {
        let coupling = match r.coupling.as_str() {
            "Immediate" => CouplingMode::Immediate,
            "Deferred" => CouplingMode::Deferred,
            "Detached" => CouplingMode::Detached,
            other => panic!("fixture coupling `{other}`"),
        };
        let spec = parse_signature(&r.event).unwrap();
        let def = RuleDef::new(&r.name, EventExpr::primitive(spec), &r.action)
            .condition(&r.condition)
            .coupling(coupling)
            .priority(r.priority as i32);
        let id = engine.add_rule(def, Oid::NIL, &registry).unwrap();
        if !r.enabled {
            engine.disable(id).unwrap();
        }
        for (class, rule) in &fixture.class_subs {
            if rule == &r.name {
                engine
                    .subscriptions
                    .subscribe_class(registry.id_of(class).unwrap(), id);
            }
        }
        for (class, rule) in &fixture.object_subs {
            if rule == &r.name {
                let oid = Oid(next_oid);
                next_oid += 1;
                object_classes.insert(oid, registry.id_of(class).unwrap());
                engine.subscriptions.subscribe_object(oid, id);
            }
        }
    }

    let mut report = RuleAnalyzer::new(&registry, &engine)
        .with_object_classes(object_classes)
        .analyze();
    for (action, obs) in &fixture.observed {
        let declared = engine
            .bodies
            .action_effects(action)
            .unwrap_or_else(|| panic!("fixture observes undeclared action `{action}`"))
            .clone();
        let mut observed = ObservedEffects::default();
        for (class, method) in &obs.raises {
            observed.record_raise(class, method);
        }
        for (class, attr) in &obs.writes {
            observed.record_write(class, attr);
        }
        report
            .diagnostics
            .extend(diff_effects(action, &declared, &observed, &registry));
    }
    report
}

/// Every expected (code, rule) pair must be found, with multiplicity.
fn assert_expected(fixture: &Fixture, report: &sentinel_analyze::AnalysisReport) {
    let mut unmatched: Vec<&sentinel_analyze::Diagnostic> = report.diagnostics.iter().collect();
    for want in &fixture.expect {
        let rule = (!want.rule.is_empty()).then_some(want.rule.as_str());
        let pos = unmatched
            .iter()
            .position(|d| d.code.as_str() == want.code && d.rule.as_deref() == rule)
            .unwrap_or_else(|| {
                panic!(
                    "expected `{}` on rule {:?}; got:\n{}",
                    want.code,
                    rule,
                    report.render_table()
                )
            });
        unmatched.remove(pos);
    }
}

#[test]
fn immediate_cycle_fixture_fails_the_gate() {
    let fixture = load("immediate_cycle.json");
    let report = analyze(&fixture);
    assert_expected(&fixture, &report);
    // Both cycle members are named in the finding.
    let cycle = report
        .diagnostics
        .iter()
        .find(|d| d.code.as_str() == "immediate-cycle")
        .unwrap();
    assert!(cycle.message.contains("`DecOnInc`") && cycle.message.contains("`IncOnDec`"));
    assert_eq!(cycle.severity, Severity::Error);
    assert!(report.has_errors());
    assert!(report.gate().is_err());
    // The DOT dump shows both definite edges.
    let dot = report.to_dot();
    assert!(dot.contains("\"DecOnInc\" -> \"IncOnDec\""));
    assert!(dot.contains("\"IncOnDec\" -> \"DecOnInc\""));
}

#[test]
fn unreachable_fixture_fails_the_gate() {
    let fixture = load("unreachable.json");
    let report = analyze(&fixture);
    assert_expected(&fixture, &report);
    assert!(report.has_errors());
    let err = report.gate().unwrap_err().to_string();
    assert!(err.contains("unreachable-rule"), "{err}");
}

/// A rule whose event names an undeclared method has an empty alphabet:
/// no occurrence carries a symbol it admits, so it can never fire.
#[test]
fn undeclared_method_fixture_fails_the_gate() {
    let fixture = load("undeclared_method.json");
    let report = analyze(&fixture);
    assert_expected(&fixture, &report);
    assert!(report.gate().is_err());
}

#[test]
fn effects_mismatch_fixture_fails_the_gate() {
    let fixture = load("effects_mismatch.json");
    let report = analyze(&fixture);
    assert_expected(&fixture, &report);
    assert_eq!(
        report
            .diagnostics
            .iter()
            .filter(|d| d.code.as_str() == "effect-mismatch")
            .count(),
        2,
        "one mismatch per undeclared raise/write"
    );
    assert!(report.gate().is_err());
}

/// Writing a rule's `enabled` slot re-enables it, so a declared write of
/// `Rule.enabled` counts as an enabler; without it the same rule set
/// reports the disabled rule.
#[test]
fn slot_enabler_fixture_is_not_disabled_forever() {
    let disabled_forever = |report: &sentinel_analyze::AnalysisReport| {
        report
            .diagnostics
            .iter()
            .any(|d| d.code.as_str() == "disabled-forever")
    };
    let mut fixture = load("slot_enabler.json");
    let report = analyze(&fixture);
    assert_expected(&fixture, &report);
    assert!(!disabled_forever(&report), "{}", report.render_table());

    for (_, fx) in &mut fixture.effects {
        fx.writes.clear();
    }
    let report = analyze(&fixture);
    assert!(disabled_forever(&report), "{}", report.render_table());
}

/// Known-terminating corpus: a definite acyclic chain must prove every
/// rule with the exact longest-path bound and raise no termination
/// findings at all.
#[test]
fn terminating_chain_fixture_is_fully_proven() {
    let fixture = load("terminating_chain.json");
    let report = analyze(&fixture);
    assert_expected(&fixture, &report);
    assert!(!report.has_errors(), "{}", report.render_table());
    assert!(report.termination.all_proven(), "{}", report.render_table());
    let bound = |rule: &str| report.termination.verdict_of(rule).unwrap().verdict;
    assert_eq!(bound("OnIngest"), Verdict::Proven(2));
    assert_eq!(bound("OnRefine"), Verdict::Proven(1));
    assert_eq!(bound("OnPublish"), Verdict::Proven(0));
    assert_eq!(report.termination.max_proven_bound(), Some(2));
    assert!(!report
        .diagnostics
        .iter()
        .any(|d| d.code.as_str() == "unproven-termination"));
    assert!(report.gate().is_ok());
}

/// Known-diverging corpus: a definite two-rule cycle with trivial
/// conditions defeats every discharge predicate, so both members are
/// Unbounded and the gate still passes (warnings, not errors).
#[test]
fn diverging_cycle_fixture_is_unbounded() {
    let fixture = load("diverging_cycle.json");
    let report = analyze(&fixture);
    assert_expected(&fixture, &report);
    for rule in ["AonB", "BonA"] {
        assert_eq!(
            report.termination.verdict_of(rule).unwrap().verdict,
            Verdict::Unbounded,
            "{}",
            report.render_table()
        );
    }
    assert_eq!(report.termination.max_proven_bound(), None);
    assert_eq!(report.termination.undischarged.len(), 1);
}

/// Discharge-able corpus: a data-feedback self-loop (declared-empty
/// raises, writes overlapping its own read-set) is discharged and the
/// rule proven at bound 0; the conservative cycle warning is superseded
/// by the discharge info.
#[test]
fn discharged_cycle_fixture_is_proven() {
    let fixture = load("discharged_cycle.json");
    let report = analyze(&fixture);
    assert_expected(&fixture, &report);
    assert_eq!(
        report.termination.verdict_of("SelfTune").unwrap().verdict,
        Verdict::Proven(0),
        "{}",
        report.render_table()
    );
    assert_eq!(report.termination.discharged.len(), 1);
    assert_eq!(report.termination.discharged[0].witness, "SelfTune");
    // The discharge proof silences the potential-cycle warning.
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.code.as_str() == "potential-cycle"),
        "{}",
        report.render_table()
    );
    assert!(report.gate().is_ok());
}

/// Negative control: the same schema with truthful declarations and a
/// reachable subscription produces no error-severity findings — the
/// gate passes clean rule sets.
#[test]
fn clean_rule_set_passes_the_gate() {
    let mut registry = ClassRegistry::new();
    registry
        .define(ClassDecl::reactive("Sensor").method("Beep", &[]))
        .unwrap();
    let mut engine = RuleEngine::new();
    engine
        .bodies
        .register_action_with_effects("log", ActionEffects::none(), |_, _| Ok(()));
    let def = RuleDef::new(
        "BeepLog",
        EventExpr::primitive(parse_signature("end Sensor::Beep").unwrap()),
        "log",
    );
    let id = engine.add_rule(def, Oid::NIL, &registry).unwrap();
    engine
        .subscriptions
        .subscribe_class(registry.id_of("Sensor").unwrap(), id);
    let report = RuleAnalyzer::new(&registry, &engine).analyze();
    assert!(!report.has_errors(), "{}", report.render_table());
    assert!(report.gate().is_ok());
    assert!(report.render_table().contains("no findings"));
}
