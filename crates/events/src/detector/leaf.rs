//! Primitive-event leaves: compiling a spec into a leaf node and
//! matching incoming occurrences against it by interned symbol.

use crate::spec::{sym_alphabet, EventModifier, PrimitiveEventSpec};
use sentinel_object::{ClassId, ClassRegistry, EventSym, Result};

use super::Node;

/// Compile a primitive spec against the schema. Unknown classes are
/// reported immediately rather than silently never matching.
pub(super) fn compile(spec: &PrimitiveEventSpec, registry: &ClassRegistry) -> Result<Node> {
    let class = registry.id_of(&spec.class)?;
    Ok(Node::Primitive {
        class,
        method: spec.method.clone(),
        modifier: spec.modifier,
        alphabet: alphabet(registry, class, &spec.method, spec.modifier),
    })
}

/// The leaf's sorted interned-symbol alphabet, closed over subclasses.
pub(super) fn alphabet(
    registry: &ClassRegistry,
    class: ClassId,
    method: &str,
    modifier: EventModifier,
) -> Vec<EventSym> {
    sym_alphabet(registry, class, method, modifier)
}

/// Does the leaf consume an occurrence with this interned symbol? A
/// symbol-less occurrence names a method outside the schema, which no
/// leaf can declare, so it never matches.
pub(super) fn matches(sym: Option<EventSym>, alphabet: &[EventSym]) -> bool {
    sym.is_some_and(|s| alphabet.binary_search(&s).is_ok())
}
