//! Uniform comparison interface over the three engines.

/// What an engine's rule architecture can express — the rows of the
/// paper's back-of-the-envelope comparison (§6), probed programmatically
/// by the root `paper_claims` test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Can a new rule be added without redefining/recompiling classes?
    pub runtime_rule_addition: bool,
    /// Can a rule target a specific instance (not a whole class) without
    /// enumerating exceptions?
    pub direct_instance_level_rules: bool,
    /// Can one rule be triggered by a composite event spanning instances
    /// of *different* classes?
    pub inter_class_composite_events: bool,
    /// Are events first-class objects (creatable, persistent, shareable)?
    pub events_first_class: bool,
    /// Are rules first-class objects?
    pub rules_first_class: bool,
    /// Can one rule definition be shared by (subscribed to) objects of
    /// several classes instead of duplicating it per class?
    pub rule_sharing_across_classes: bool,
    /// Can rules monitor other rules' operations?
    pub rules_on_rules: bool,
    /// Composite event operators available.
    pub composite_operators: &'static [&'static str],
    /// Coupling modes available.
    pub coupling_modes: &'static [&'static str],
}

/// Counters every engine reports, comparable across engines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Rule-dispatch work: how many rules were *considered* per the
    /// engine's architecture (subscription delivery for Sentinel,
    /// class-table scan for ADAM, per-method constraint sweep for Ode).
    pub rule_checks: u64,
    /// Condition/predicate evaluations actually performed.
    pub condition_evals: u64,
    /// Actions (or fixups) executed.
    pub actions_run: u64,
    /// Transactions aborted by rules/constraints.
    pub aborts: u64,
}

/// The comparison surface of an active-rule engine.
pub trait ActiveEngine {
    /// Engine name.
    fn engine_name(&self) -> &'static str;

    /// Expressiveness probes.
    fn capabilities(&self) -> Capabilities;

    /// Uniform counters.
    fn counters(&self) -> EngineCounters;

    /// Zero the counters (between a scenario's setup and its workload).
    fn reset_counters(&mut self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_default_zero() {
        let c = EngineCounters::default();
        assert_eq!(c.rule_checks, 0);
        assert_eq!(c.condition_evals, 0);
    }
}
