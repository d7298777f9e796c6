//! Class schemas, inheritance, and the **event interface**.
//!
//! A *reactive class definition* in the paper is
//!
//! ```text
//! Reactive class definition = Traditional class definition
//!                           + Event interface specification
//! ```
//!
//! so a [`ClassDecl`] carries, per method, an [`EventSpec`] saying whether
//! invoking the method generates a begin-of-method (bom) event, an
//! end-of-method (eom) event, both, or none (paper Figure 8:
//! `event begin Change-Salary(float x);`, `event end Get-Salary();`,
//! `event begin && end Get-Age();`).
//!
//! Classes support single and multiple inheritance. Method and attribute
//! lookup walks the C3 linearization of the class, which gives the usual
//! "most-derived wins, left parent before right parent" resolution and
//! rejects genuinely ambiguous hierarchies at definition time.

use crate::error::{ObjectError, Result};
use crate::hash::FastMap;
use crate::value::{TypeTag, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a class inside a [`ClassRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClassId(pub u32);

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Interned primitive-event symbol: a dense identifier for one
/// `(class, method, begin|end)` triple.
///
/// Every method visible on a class (own or inherited) gets two symbols —
/// the paper's "every method of a class corresponds to two potential
/// primitive events" — interned when the class is defined. A subclass
/// receives *fresh* symbols for inherited methods: the symbol identifies
/// the event as raised by an instance of that dynamic class, which is what
/// lets subclass-closed alphabets match by integer compare instead of a
/// string compare plus a linearization walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EventSym(pub u32);

impl fmt::Display for EventSym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Reverse-lookup record for an interned [`EventSym`].
#[derive(Debug, Clone)]
pub struct EventSymInfo {
    /// The dynamic class the symbol belongs to.
    pub class: ClassId,
    /// The method name.
    pub method: String,
    /// `false` = begin-of-method half, `true` = end-of-method half.
    pub end: bool,
}

/// C++-style member visibility (paper difference #2: "the distinctions
/// between features supported (e.g., private, protected, and public in
/// C++) need to be accounted for").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Visibility {
    /// Callable/readable from anywhere.
    #[default]
    Public,
    /// Visible to the class and its subclasses.
    Protected,
    /// Visible to the defining class only.
    Private,
}

/// Per-method event-interface declaration.
///
/// `None` means invocations are invisible to the rule system — the method
/// behaves exactly like a method of a passive object ("The method Get-Name
/// does not generate any events, and hence its invocation does not cause
/// any rule evaluation").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EventSpec {
    /// Not an event generator (the default).
    #[default]
    None,
    /// `event begin M(...)` — raise before executing the body.
    Begin,
    /// `event end M(...)` — raise after the body returns.
    End,
    /// `event begin && end M(...)`.
    BeginAndEnd,
}

impl EventSpec {
    /// Does this spec generate a begin-of-method event?
    pub fn begin(self) -> bool {
        matches!(self, EventSpec::Begin | EventSpec::BeginAndEnd)
    }

    /// Does this spec generate an end-of-method event?
    pub fn end(self) -> bool {
        matches!(self, EventSpec::End | EventSpec::BeginAndEnd)
    }

    /// Number of potential primitive events this spec contributes
    /// (paper: "every method of a class corresponds to two potential
    /// primitive events").
    pub fn event_count(self) -> usize {
        self.begin() as usize + self.end() as usize
    }
}

/// Whether instances of a class can generate events at all.
///
/// The paper's three-way object classification is: *passive* (plain
/// objects, zero event overhead), *reactive* (event producers), and
/// *notifiable* (event consumers). Notifiability is a property of the
/// consumer side (rules, event objects) and is modelled in
/// `sentinel-rules`; the schema records only the producer side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Reactivity {
    /// Plain objects; zero event overhead.
    #[default]
    Passive,
    /// Instances generate events through the event interface.
    Reactive,
}

/// A declared attribute (data member).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttributeDef {
    /// Attribute name (unique within a declaration).
    pub name: String,
    /// Declared slot type.
    pub ty: TypeTag,
    /// Initial value for fresh instances; must conform to `ty`.
    pub default: Value,
    /// C++-style member visibility.
    pub visibility: Visibility,
}

/// A declared method parameter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ParamDef {
    /// Parameter name (carried into event-occurrence records).
    pub name: String,
    /// Declared parameter type (checked at dispatch).
    pub ty: TypeTag,
}

/// A declared method (member function).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodDef {
    /// Method name (unique within a declaration).
    pub name: String,
    /// Declared parameters, in order.
    pub params: Vec<ParamDef>,
    /// C++-style member visibility.
    pub visibility: Visibility,
    /// The event-interface entry for this method.
    pub events: EventSpec,
}

/// User-facing class declaration, fed to [`ClassRegistry::define`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ClassDecl {
    /// Class name (unique within a registry).
    pub name: String,
    /// Parent class names, in C++ base-class order.
    pub parents: Vec<String>,
    /// Whether instances generate events.
    pub reactivity: Reactivity,
    /// Attributes introduced by this class.
    pub attributes: Vec<AttributeDef>,
    /// Methods introduced (or overridden) by this class.
    pub methods: Vec<MethodDef>,
}

impl ClassDecl {
    /// Start a declaration for a passive class.
    pub fn new(name: impl Into<String>) -> Self {
        ClassDecl {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Start a declaration for a reactive class (one able to generate
    /// events through its event interface).
    pub fn reactive(name: impl Into<String>) -> Self {
        ClassDecl {
            name: name.into(),
            reactivity: Reactivity::Reactive,
            ..Default::default()
        }
    }

    /// Add a parent class (may be called repeatedly for multiple
    /// inheritance; order is the C++ base-class order and drives C3).
    pub fn parent(mut self, name: impl Into<String>) -> Self {
        self.parents.push(name.into());
        self
    }

    /// Add a public attribute with the type's zero default.
    pub fn attr(mut self, name: impl Into<String>, ty: TypeTag) -> Self {
        self.attributes.push(AttributeDef {
            name: name.into(),
            ty,
            default: Value::default_for(ty),
            visibility: Visibility::Public,
        });
        self
    }

    /// Add an attribute with an explicit default value.
    pub fn attr_with_default(
        mut self,
        name: impl Into<String>,
        ty: TypeTag,
        default: Value,
    ) -> Self {
        self.attributes.push(AttributeDef {
            name: name.into(),
            ty,
            default,
            visibility: Visibility::Public,
        });
        self
    }

    /// Add a public method with no event-interface entry.
    pub fn method(mut self, name: impl Into<String>, params: &[(&str, TypeTag)]) -> Self {
        self.methods.push(MethodDef {
            name: name.into(),
            params: params
                .iter()
                .map(|(n, t)| ParamDef {
                    name: (*n).into(),
                    ty: *t,
                })
                .collect(),
            visibility: Visibility::Public,
            events: EventSpec::None,
        });
        self
    }

    /// Add a public method that is a primitive event generator.
    pub fn event_method(
        mut self,
        name: impl Into<String>,
        params: &[(&str, TypeTag)],
        events: EventSpec,
    ) -> Self {
        self.methods.push(MethodDef {
            name: name.into(),
            params: params
                .iter()
                .map(|(n, t)| ParamDef {
                    name: (*n).into(),
                    ty: *t,
                })
                .collect(),
            visibility: Visibility::Public,
            events,
        });
        self
    }

    /// Adjust the visibility of the most recently added method.
    pub fn last_method_visibility(mut self, vis: Visibility) -> Self {
        if let Some(m) = self.methods.last_mut() {
            m.visibility = vis;
        }
        self
    }
}

/// One slot of an instance's state vector: the attribute plus the class
/// that introduced it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlotDef {
    /// The class that introduced (or overrode) this slot.
    pub owner: ClassId,
    /// The attribute stored in this slot.
    pub attr: AttributeDef,
}

/// A fully elaborated class: declaration plus precomputed linearization
/// and slot layout.
#[derive(Debug, Clone)]
pub struct ClassDef {
    /// The class's registry index.
    pub id: ClassId,
    /// Class name.
    pub name: String,
    /// Direct parents, in declaration order.
    pub parents: Vec<ClassId>,
    /// Whether instances generate events.
    pub reactivity: Reactivity,
    /// Attributes/methods introduced by this class (not inherited ones).
    pub own_attributes: Vec<AttributeDef>,
    /// Methods introduced (or overridden) by this class.
    pub own_methods: Vec<MethodDef>,
    /// C3 linearization, starting with this class.
    pub linearization: Vec<ClassId>,
    /// Effective instance layout: all slots, inherited first (base-to-
    /// derived), with derived redefinitions overriding in place.
    pub layout: Vec<SlotDef>,
    slot_index: FastMap<String, usize>,
    /// Method resolution cache: name → (defining class, index into that
    /// class's `own_methods`).
    method_index: FastMap<String, (ClassId, usize)>,
    /// Interned event symbols for every visible method:
    /// name → `[begin-sym, end-sym]`.
    event_sym_index: FastMap<String, [EventSym; 2]>,
}

impl ClassDef {
    /// Index of `attr` in the instance layout.
    pub fn slot_of(&self, attr: &str) -> Option<usize> {
        self.slot_index.get(attr).copied()
    }

    /// Number of slots a fresh instance has.
    pub fn slot_count(&self) -> usize {
        self.layout.len()
    }

    /// The `[begin, end]` event symbols of a visible method, if declared.
    pub fn event_syms(&self, method: &str) -> Option<&[EventSym; 2]> {
        self.event_sym_index.get(method)
    }
}

/// The schema: all class definitions plus name lookup.
///
/// Classes are immutable once defined (the paper's critique of Ode hinges
/// on *rules* being changeable without touching class definitions; the
/// class definitions themselves stay fixed, as in any compiled schema).
#[derive(Debug, Default, Clone)]
pub struct ClassRegistry {
    classes: Vec<ClassDef>,
    by_name: FastMap<String, ClassId>,
    /// Interned event-symbol table, dense over all classes. Append-only,
    /// like the class list, so `len()` doubles as a schema version for
    /// caches keyed on symbols.
    syms: Vec<EventSymInfo>,
}

impl ClassRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of defined classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// True when no classes are defined.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Look up a class by name.
    pub fn id_of(&self, name: &str) -> Result<ClassId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| ObjectError::UnknownClass(name.to_string()))
    }

    /// Borrow a class definition.
    pub fn get(&self, id: ClassId) -> &ClassDef {
        &self.classes[id.0 as usize]
    }

    /// Borrow a class definition by name.
    pub fn get_by_name(&self, name: &str) -> Result<&ClassDef> {
        Ok(self.get(self.id_of(name)?))
    }

    /// Iterate over all classes in definition order.
    pub fn iter(&self) -> impl Iterator<Item = &ClassDef> {
        self.classes.iter()
    }

    /// Define a class, validating parents, duplicates, defaults, and the
    /// C3 linearization.
    pub fn define(&mut self, decl: ClassDecl) -> Result<ClassId> {
        if self.by_name.contains_key(&decl.name) {
            return Err(ObjectError::DuplicateClass(decl.name));
        }
        let mut parent_ids = Vec::with_capacity(decl.parents.len());
        for p in &decl.parents {
            let pid = self
                .by_name
                .get(p)
                .copied()
                .ok_or_else(|| ObjectError::UnknownParent {
                    class: decl.name.clone(),
                    parent: p.clone(),
                })?;
            parent_ids.push(pid);
        }
        // Duplicate detection within the declaration itself.
        for (i, a) in decl.attributes.iter().enumerate() {
            if decl.attributes[..i].iter().any(|b| b.name == a.name) {
                return Err(ObjectError::DuplicateAttribute {
                    class: decl.name,
                    attribute: a.name.clone(),
                });
            }
            if !a.default.conforms_to(a.ty) {
                return Err(ObjectError::TypeMismatch {
                    expected: a.ty,
                    found: a.default.type_tag(),
                });
            }
        }
        for (i, m) in decl.methods.iter().enumerate() {
            if decl.methods[..i].iter().any(|n| n.name == m.name) {
                return Err(ObjectError::DuplicateMethod {
                    class: decl.name,
                    method: m.name.clone(),
                });
            }
        }

        let id = ClassId(self.classes.len() as u32);
        let linearization = self.linearize(id, &decl.name, &parent_ids)?;

        // Build the slot layout: walk the linearization from the most
        // basic class to the most derived so that base slots come first;
        // a redefinition overrides the slot in place.
        let mut layout: Vec<SlotDef> = Vec::new();
        let mut slot_index: FastMap<String, usize> = FastMap::default();
        let mut method_index: FastMap<String, (ClassId, usize)> = FastMap::default();
        let mut method_order: Vec<String> = Vec::new();
        for &cid in linearization.iter().rev() {
            let (attrs, methods): (&[AttributeDef], &[MethodDef]) = if cid == id {
                (&decl.attributes, &decl.methods)
            } else {
                let c = self.get(cid);
                (&c.own_attributes, &c.own_methods)
            };
            for a in attrs {
                match slot_index.get(&a.name) {
                    Some(&idx) => {
                        layout[idx] = SlotDef {
                            owner: cid,
                            attr: a.clone(),
                        };
                    }
                    None => {
                        slot_index.insert(a.name.clone(), layout.len());
                        layout.push(SlotDef {
                            owner: cid,
                            attr: a.clone(),
                        });
                    }
                }
            }
            for (mi, m) in methods.iter().enumerate() {
                if method_index.insert(m.name.clone(), (cid, mi)).is_none() {
                    method_order.push(m.name.clone());
                }
            }
        }

        // Intern the event symbols: two per visible method, in the
        // deterministic base-to-derived declaration order collected above.
        let mut event_sym_index: FastMap<String, [EventSym; 2]> = FastMap::default();
        for name in method_order {
            let begin = EventSym(self.syms.len() as u32);
            self.syms.push(EventSymInfo {
                class: id,
                method: name.clone(),
                end: false,
            });
            let end = EventSym(self.syms.len() as u32);
            self.syms.push(EventSymInfo {
                class: id,
                method: name.clone(),
                end: true,
            });
            event_sym_index.insert(name, [begin, end]);
        }

        // A subclass of a reactive class is itself reactive.
        let reactivity = if decl.reactivity == Reactivity::Reactive
            || parent_ids
                .iter()
                .any(|&p| self.get(p).reactivity == Reactivity::Reactive)
        {
            Reactivity::Reactive
        } else {
            Reactivity::Passive
        };

        self.classes.push(ClassDef {
            id,
            name: decl.name.clone(),
            parents: parent_ids,
            reactivity,
            own_attributes: decl.attributes,
            own_methods: decl.methods,
            linearization,
            layout,
            slot_index,
            method_index,
            event_sym_index,
        });
        self.by_name.insert(decl.name, id);
        Ok(id)
    }

    /// C3 linearization of a class being defined with the given parents.
    fn linearize(&self, id: ClassId, name: &str, parents: &[ClassId]) -> Result<Vec<ClassId>> {
        // L(C) = C + merge(L(P1), ..., L(Pn), [P1..Pn])
        let mut sequences: Vec<Vec<ClassId>> = parents
            .iter()
            .map(|&p| self.get(p).linearization.clone())
            .collect();
        sequences.push(parents.to_vec());
        let mut result = vec![id];
        loop {
            sequences.retain(|s| !s.is_empty());
            if sequences.is_empty() {
                return Ok(result);
            }
            // Find a head that appears in no tail.
            let mut chosen: Option<ClassId> = None;
            'heads: for s in &sequences {
                let head = s[0];
                for t in &sequences {
                    if t[1..].contains(&head) {
                        continue 'heads;
                    }
                }
                chosen = Some(head);
                break;
            }
            match chosen {
                Some(head) => {
                    result.push(head);
                    for s in &mut sequences {
                        s.retain(|&c| c != head);
                    }
                }
                None => return Err(ObjectError::InconsistentHierarchy(name.to_string())),
            }
        }
    }

    /// Is `sub` the same class as, or a (transitive) subclass of, `sup`?
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        self.get(sub).linearization.contains(&sup)
    }

    /// Resolve a method on `class`, returning the defining class and the
    /// definition. Follows the C3 linearization (most derived wins).
    pub fn resolve_method(&self, class: ClassId, method: &str) -> Result<(ClassId, &MethodDef)> {
        let c = self.get(class);
        match c.method_index.get(method) {
            Some(&(owner, idx)) => Ok((owner, &self.get(owner).own_methods[idx])),
            None => Err(ObjectError::UnknownMethod {
                class: c.name.clone(),
                method: method.to_string(),
            }),
        }
    }

    /// The *effective* event spec of a method on a class: the spec of the
    /// resolved definition, masked to `None` for passive classes — a
    /// passive class never generates events even if it inherits a method
    /// that a reactive sibling uses as a generator.
    pub fn effective_event_spec(&self, class: ClassId, method: &str) -> Result<EventSpec> {
        let (_, def) = self.resolve_method(class, method)?;
        if self.get(class).reactivity == Reactivity::Passive {
            Ok(EventSpec::None)
        } else {
            Ok(def.events)
        }
    }

    /// Resolve the interned symbol for a primitive event raised by an
    /// instance of `class` invoking `method` (`end` selects the
    /// end-of-method half). `None` when the method is not part of the
    /// class's visible interface; no primitive event spec matches it.
    pub fn event_sym(&self, class: ClassId, method: &str, end: bool) -> Option<EventSym> {
        self.classes
            .get(class.0 as usize)?
            .event_sym_index
            .get(method)
            .map(|pair| pair[end as usize])
    }

    /// Number of interned event symbols (grows monotonically with the
    /// schema; usable as a cache version together with `len()`).
    pub fn sym_count(&self) -> usize {
        self.syms.len()
    }

    /// Reverse lookup for an interned symbol.
    pub fn sym_info(&self, sym: EventSym) -> &EventSymInfo {
        &self.syms[sym.0 as usize]
    }

    /// Total number of potential primitive events declared on a class
    /// (used by the event-management-cost experiment E2).
    pub fn declared_event_count(&self, class: ClassId) -> usize {
        let c = self.get(class);
        c.method_index
            .values()
            .map(|&(owner, idx)| self.get(owner).own_methods[idx].events.event_count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg_with_employee() -> (ClassRegistry, ClassId) {
        let mut reg = ClassRegistry::new();
        let id = reg
            .define(
                ClassDecl::reactive("Employee")
                    .attr("age", TypeTag::Int)
                    .attr("salary", TypeTag::Float)
                    .attr("name", TypeTag::Str)
                    .event_method("Change-Salary", &[("x", TypeTag::Float)], EventSpec::Begin)
                    .event_method("Get-Salary", &[], EventSpec::End)
                    .event_method("Get-Age", &[], EventSpec::BeginAndEnd)
                    .method("Get-Name", &[]),
            )
            .unwrap();
        (reg, id)
    }

    #[test]
    fn figure_8_event_interface() {
        let (reg, id) = reg_with_employee();
        assert_eq!(
            reg.effective_event_spec(id, "Change-Salary").unwrap(),
            EventSpec::Begin
        );
        assert_eq!(
            reg.effective_event_spec(id, "Get-Salary").unwrap(),
            EventSpec::End
        );
        assert_eq!(
            reg.effective_event_spec(id, "Get-Age").unwrap(),
            EventSpec::BeginAndEnd
        );
        assert_eq!(
            reg.effective_event_spec(id, "Get-Name").unwrap(),
            EventSpec::None
        );
        // begin + end + (begin && end) = 1 + 1 + 2 potential events.
        assert_eq!(reg.declared_event_count(id), 4);
    }

    #[test]
    fn single_inheritance_resolves_and_overrides() {
        let (mut reg, emp) = reg_with_employee();
        let mgr = reg
            .define(
                ClassDecl::reactive("Manager")
                    .parent("Employee")
                    .attr("bonus", TypeTag::Float)
                    .event_method("Change-Salary", &[("x", TypeTag::Float)], EventSpec::End),
            )
            .unwrap();
        assert!(reg.is_subclass(mgr, emp));
        assert!(!reg.is_subclass(emp, mgr));
        // Override: Manager's spec wins on Manager.
        assert_eq!(
            reg.effective_event_spec(mgr, "Change-Salary").unwrap(),
            EventSpec::End
        );
        assert_eq!(
            reg.effective_event_spec(emp, "Change-Salary").unwrap(),
            EventSpec::Begin
        );
        // Inherited method resolves to Employee's definition.
        let (owner, _) = reg.resolve_method(mgr, "Get-Name").unwrap();
        assert_eq!(owner, emp);
        // Layout: inherited slots first, own slot appended.
        let mdef = reg.get(mgr);
        let names: Vec<_> = mdef.layout.iter().map(|s| s.attr.name.as_str()).collect();
        assert_eq!(names, ["age", "salary", "name", "bonus"]);
    }

    #[test]
    fn passive_subclass_masks_event_generation() {
        let mut reg = ClassRegistry::new();
        reg.define(ClassDecl::reactive("Base").event_method("M", &[], EventSpec::BeginAndEnd))
            .unwrap();
        // A subclass of a reactive class is reactive (cannot opt out).
        let sub = reg.define(ClassDecl::new("Sub").parent("Base")).unwrap();
        assert_eq!(reg.get(sub).reactivity, Reactivity::Reactive);
        // But a genuinely passive class never generates events.
        let passive = reg
            .define(ClassDecl::new("Plain").method("M", &[]))
            .unwrap();
        assert_eq!(
            reg.effective_event_spec(passive, "M").unwrap(),
            EventSpec::None
        );
    }

    #[test]
    fn multiple_inheritance_c3_order() {
        let mut reg = ClassRegistry::new();
        let a = reg
            .define(ClassDecl::new("A").method("m", &[]).attr("x", TypeTag::Int))
            .unwrap();
        let b = reg
            .define(ClassDecl::new("B").parent("A").method("m", &[]))
            .unwrap();
        let c = reg
            .define(ClassDecl::new("C").parent("A").method("m", &[]))
            .unwrap();
        let d = reg
            .define(ClassDecl::new("D").parent("B").parent("C"))
            .unwrap();
        // C3: D, B, C, A.
        assert_eq!(reg.get(d).linearization, vec![d, b, c, a]);
        // Diamond: `m` resolves to B (leftmost parent).
        let (owner, _) = reg.resolve_method(d, "m").unwrap();
        assert_eq!(owner, b);
        // The shared attribute `x` appears exactly once in the layout.
        assert_eq!(reg.get(d).slot_count(), 1);
    }

    #[test]
    fn inconsistent_hierarchy_rejected() {
        let mut reg = ClassRegistry::new();
        reg.define(ClassDecl::new("X")).unwrap();
        reg.define(ClassDecl::new("Y")).unwrap();
        reg.define(ClassDecl::new("P").parent("X").parent("Y"))
            .unwrap();
        reg.define(ClassDecl::new("Q").parent("Y").parent("X"))
            .unwrap();
        // P orders X before Y; Q orders Y before X — no valid C3 merge.
        let err = reg
            .define(ClassDecl::new("R").parent("P").parent("Q"))
            .unwrap_err();
        assert!(matches!(err, ObjectError::InconsistentHierarchy(_)));
    }

    #[test]
    fn duplicate_and_unknown_rejections() {
        let mut reg = ClassRegistry::new();
        reg.define(ClassDecl::new("A")).unwrap();
        assert!(matches!(
            reg.define(ClassDecl::new("A")),
            Err(ObjectError::DuplicateClass(_))
        ));
        assert!(matches!(
            reg.define(ClassDecl::new("B").parent("Nope")),
            Err(ObjectError::UnknownParent { .. })
        ));
        assert!(matches!(
            reg.define(
                ClassDecl::new("C")
                    .attr("x", TypeTag::Int)
                    .attr("x", TypeTag::Int)
            ),
            Err(ObjectError::DuplicateAttribute { .. })
        ));
        assert!(matches!(
            reg.define(ClassDecl::new("D").method("m", &[]).method("m", &[])),
            Err(ObjectError::DuplicateMethod { .. })
        ));
        assert!(matches!(
            reg.id_of("Nope"),
            Err(ObjectError::UnknownClass(_))
        ));
    }

    #[test]
    fn default_must_conform_to_declared_type() {
        let mut reg = ClassRegistry::new();
        let err = reg
            .define(ClassDecl::new("Bad").attr_with_default(
                "x",
                TypeTag::Int,
                Value::Str("oops".into()),
            ))
            .unwrap_err();
        assert!(matches!(err, ObjectError::TypeMismatch { .. }));
    }

    #[test]
    fn event_syms_are_interned_per_class_and_method() {
        let (mut reg, emp) = reg_with_employee();
        let [b, e] = *reg.get(emp).event_syms("Change-Salary").unwrap();
        assert_ne!(b, e);
        assert_eq!(reg.event_sym(emp, "Change-Salary", false), Some(b));
        assert_eq!(reg.event_sym(emp, "Change-Salary", true), Some(e));
        assert_eq!(reg.event_sym(emp, "No-Such-Method", true), None);
        let info = reg.sym_info(e);
        assert_eq!(info.class, emp);
        assert_eq!(info.method, "Change-Salary");
        assert!(info.end);

        // A subclass re-interns fresh symbols for inherited methods: the
        // symbol identifies the *dynamic* class of the raising instance.
        let mgr = reg
            .define(ClassDecl::reactive("Manager").parent("Employee"))
            .unwrap();
        let m = reg.event_sym(mgr, "Change-Salary", true).unwrap();
        assert_ne!(m, e);
        assert_eq!(reg.sym_info(m).class, mgr);
        // Every visible method got both halves: 4 methods × 2 each class.
        assert_eq!(reg.sym_count(), 16);
    }

    #[test]
    fn attribute_override_replaces_slot_in_place() {
        let mut reg = ClassRegistry::new();
        reg.define(ClassDecl::new("Base").attr_with_default("x", TypeTag::Int, Value::Int(1)))
            .unwrap();
        let sub = reg
            .define(ClassDecl::new("Sub").parent("Base").attr_with_default(
                "x",
                TypeTag::Int,
                Value::Int(2),
            ))
            .unwrap();
        let def = reg.get(sub);
        assert_eq!(def.slot_count(), 1);
        assert_eq!(def.layout[0].attr.default, Value::Int(2));
        assert_eq!(def.layout[0].owner, sub);
    }
}
