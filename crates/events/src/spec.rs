//! Primitive event specifications.

use sentinel_object::{ClassId, ClassRegistry, EventSym};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The shade of a primitive event: before or after method execution.
///
/// The paper uses `begin`/`end` (bom/eom) in §4.3 and `before`/`after` in
/// §4.6's signature examples; both surface syntaxes map to this enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventModifier {
    /// begin-of-method: signalled before the body executes.
    Begin,
    /// end-of-method: signalled after the body returns.
    End,
}

impl EventModifier {
    /// Is this the end-of-method half? (Selects the symbol slot in the
    /// schema's per-method `[begin, end]` pair.)
    pub fn is_end(self) -> bool {
        matches!(self, EventModifier::End)
    }
}

impl fmt::Display for EventModifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EventModifier::Begin => "begin",
            EventModifier::End => "end",
        })
    }
}

/// The interned-symbol *alphabet* of one primitive spec: the sorted set of
/// [`EventSym`]s the spec can consume, closed over subclasses — a spec on
/// `Employee::Change-Salary` also matches the `Manager` symbol for that
/// method, because a manager *is an* employee. Matching an occurrence then
/// reduces to an integer membership test instead of a string compare plus
/// a linearization walk.
pub fn sym_alphabet(
    registry: &ClassRegistry,
    class: ClassId,
    method: &str,
    modifier: EventModifier,
) -> Vec<EventSym> {
    let mut syms: Vec<EventSym> = registry
        .iter()
        .filter(|def| registry.is_subclass(def.id, class))
        .filter_map(|def| def.event_syms(method))
        .map(|pair| pair[modifier.is_end() as usize])
        .collect();
    syms.sort_unstable();
    syms
}

/// A primitive event specification: *which* method invocations, on
/// instances of *which* class, at *which* shade.
///
/// A specification written against a class also matches invocations on
/// instances of its subclasses (matching ADAM's inheritance of rules and
/// the natural OO reading of "an employee object executes the method
/// Change-Income" — a manager *is an* employee). Matching against the
/// dynamic class is performed by the detector, which resolves the class
/// name against the schema at compile time.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PrimitiveEventSpec {
    /// The class whose instances (and subclass instances) generate it.
    pub class: String,
    /// The generating method.
    pub method: String,
    /// begin-of-method or end-of-method.
    pub modifier: EventModifier,
}

impl PrimitiveEventSpec {
    /// Spec for the begin-of-method event of `class::method`.
    pub fn begin(class: impl Into<String>, method: impl Into<String>) -> Self {
        PrimitiveEventSpec {
            class: class.into(),
            method: method.into(),
            modifier: EventModifier::Begin,
        }
    }

    /// Spec for the end-of-method event of `class::method`.
    pub fn end(class: impl Into<String>, method: impl Into<String>) -> Self {
        PrimitiveEventSpec {
            class: class.into(),
            method: method.into(),
            modifier: EventModifier::End,
        }
    }

    /// The spec's interned-symbol alphabet (see [`sym_alphabet`]). Empty
    /// when the class is unknown or the method is undeclared — such specs
    /// never match.
    pub fn alphabet(&self, registry: &ClassRegistry) -> Vec<EventSym> {
        match registry.id_of(&self.class) {
            Ok(cid) => sym_alphabet(registry, cid, &self.method, self.modifier),
            Err(_) => Vec::new(),
        }
    }
}

impl fmt::Display for PrimitiveEventSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}::{}", self.modifier, self.class, self.method)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_display() {
        let s = PrimitiveEventSpec::end("Employee", "Set-Salary");
        assert_eq!(s.modifier, EventModifier::End);
        assert_eq!(s.to_string(), "end Employee::Set-Salary");
        let b = PrimitiveEventSpec::begin("Person", "Marry");
        assert_eq!(b.to_string(), "begin Person::Marry");
    }
}
