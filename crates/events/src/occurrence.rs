//! Event occurrences.
//!
//! A generated primitive event is the tuple the paper prescribes (§3.1):
//!
//! ```text
//! Generated primitive event = Oid + Class + Method + Actual parameters + Time stamp
//! ```
//!
//! Composite occurrences carry their constituent primitives so that rule
//! conditions can inspect the parameters computed when each constituent
//! was raised (the paper's `Record` method on Notifiable stores exactly
//! these).

use crate::spec::EventModifier;
use sentinel_object::{ClassId, ClassRegistry, EventSym, Oid, Value};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// One generated primitive event.
///
/// `method` and `params` are reference-counted: an occurrence is fanned
/// out to every subscribed consumer (paper Figure 2), so clones must be
/// cheap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrimitiveOccurrence {
    /// Logical timestamp (strictly increasing database-wide).
    pub at: u64,
    /// The reactive object that generated the event.
    pub oid: Oid,
    /// Dynamic class of that object.
    pub class: ClassId,
    /// Class that *defines* the resolved method (differs from `class`
    /// when the method is inherited).
    pub owner: ClassId,
    /// Method name.
    pub method: Arc<str>,
    /// begin-of-method or end-of-method.
    pub modifier: EventModifier,
    /// Actual arguments of the message.
    pub params: Arc<[Value]>,
}

impl PrimitiveOccurrence {
    /// Convenience accessor: the i-th actual parameter.
    pub fn param(&self, i: usize) -> Option<&Value> {
        self.params.get(i)
    }

    /// The occurrence's interned event symbol, or `None` when the method
    /// is not part of the dynamic class's declared interface (only a
    /// hand-built occurrence can be; no primitive leaf matches it).
    pub fn sym(&self, registry: &ClassRegistry) -> Option<EventSym> {
        registry.event_sym(self.class, &self.method, self.modifier.is_end())
    }
}

impl fmt::Display for PrimitiveOccurrence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[t={} {} {} {}(",
            self.at, self.modifier, self.oid, self.method
        )?;
        for (i, v) in self.params.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")]")
    }
}

/// The constituent primitives of a [`CompositeOccurrence`], in
/// detection order. A primitive detection holds its one constituent
/// inline, so detecting it allocates nothing beyond the occurrence
/// itself; composites hold theirs in a `Vec`. Either way it reads as a
/// slice (`.last()`, `[0]`, `.iter()`, `.len()`), compares by contents,
/// and serialises as an array.
#[derive(Clone)]
pub struct Constituents(Repr);

#[derive(Clone)]
enum Repr {
    One(PrimitiveOccurrence),
    Many(Vec<PrimitiveOccurrence>),
}

impl Constituents {
    /// No constituents (a timer tick's occurrence).
    pub const fn new() -> Self {
        Constituents(Repr::Many(Vec::new()))
    }

    /// Room for `n` constituents.
    pub fn with_capacity(n: usize) -> Self {
        Constituents(Repr::Many(Vec::with_capacity(n)))
    }

    /// Append clones of every constituent in `more`.
    pub fn extend_from_slice(&mut self, more: &[PrimitiveOccurrence]) {
        match (&mut self.0, more) {
            (_, []) => {}
            (Repr::Many(v), _) if !v.is_empty() || v.capacity() > 0 => v.extend_from_slice(more),
            (Repr::Many(_), [one]) => self.0 = Repr::One(one.clone()),
            _ => {
                let mut v = Vec::with_capacity(self.len() + more.len());
                v.extend_from_slice(self);
                v.extend_from_slice(more);
                self.0 = Repr::Many(v);
            }
        }
    }
}

impl Default for Constituents {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for Constituents {
    type Target = [PrimitiveOccurrence];

    #[inline]
    fn deref(&self) -> &[PrimitiveOccurrence] {
        match &self.0 {
            Repr::One(p) => std::slice::from_ref(p),
            Repr::Many(v) => v,
        }
    }
}

impl From<Vec<PrimitiveOccurrence>> for Constituents {
    fn from(v: Vec<PrimitiveOccurrence>) -> Self {
        Constituents(Repr::Many(v))
    }
}

impl From<PrimitiveOccurrence> for Constituents {
    fn from(p: PrimitiveOccurrence) -> Self {
        Constituents(Repr::One(p))
    }
}

impl<'a> IntoIterator for &'a Constituents {
    type Item = &'a PrimitiveOccurrence;
    type IntoIter = std::slice::Iter<'a, PrimitiveOccurrence>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Constituents {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Constituents {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Serialize for Constituents {
    fn to_content(&self) -> serde::Content {
        serde::Content::Array(self.iter().map(Serialize::to_content).collect())
    }
}

impl Deserialize for Constituents {
    fn from_content(v: &serde::Content) -> Result<Self, serde::Error> {
        let mut all = Vec::<PrimitiveOccurrence>::from_content(v)?;
        Ok(match all.len() {
            1 => Constituents(Repr::One(all.pop().expect("one constituent"))),
            _ => Constituents(Repr::Many(all)),
        })
    }
}

/// An occurrence of a (possibly composite) event: the constituent
/// primitive occurrences plus the occurrence interval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompositeOccurrence {
    /// Constituents in detection order.
    pub constituents: Constituents,
    /// Timestamp of the earliest constituent.
    pub start: u64,
    /// Timestamp of the latest constituent — the detection time.
    pub end: u64,
}

impl CompositeOccurrence {
    /// Wrap a single primitive occurrence.
    pub fn from_primitive(p: PrimitiveOccurrence) -> Self {
        let at = p.at;
        CompositeOccurrence {
            constituents: Constituents::from(p),
            start: at,
            end: at,
        }
    }

    /// Merge two occurrences into one (conjunction/sequence emission).
    pub fn merge(a: &CompositeOccurrence, b: &CompositeOccurrence) -> Self {
        let mut constituents =
            Constituents::with_capacity(a.constituents.len() + b.constituents.len());
        constituents.extend_from_slice(&a.constituents);
        constituents.extend_from_slice(&b.constituents);
        CompositeOccurrence {
            constituents,
            start: a.start.min(b.start),
            end: a.end.max(b.end),
        }
    }

    /// Merge many occurrences (cumulative context, `any` operator).
    pub fn merge_all<'a>(occs: impl IntoIterator<Item = &'a CompositeOccurrence>) -> Self {
        let mut out = CompositeOccurrence {
            constituents: Constituents::new(),
            start: u64::MAX,
            end: 0,
        };
        for o in occs {
            out.constituents.extend_from_slice(&o.constituents);
            out.start = out.start.min(o.start);
            out.end = out.end.max(o.end);
        }
        out
    }

    /// The constituent generated by a given object, if any — how a rule
    /// condition retrieves "the parameters of the IBM SetPrice event".
    pub fn constituent_of(&self, oid: Oid) -> Option<&PrimitiveOccurrence> {
        self.constituents.iter().find(|c| c.oid == oid)
    }

    /// The constituent for a given method name, if any.
    pub fn constituent_for_method(&self, method: &str) -> Option<&PrimitiveOccurrence> {
        self.constituents.iter().find(|c| &*c.method == method)
    }

    /// The most recent constituent (the one whose arrival completed the
    /// detection, under every context).
    pub fn last(&self) -> Option<&PrimitiveOccurrence> {
        self.constituents.iter().max_by_key(|c| c.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prim(at: u64, oid: u64, method: &str) -> PrimitiveOccurrence {
        PrimitiveOccurrence {
            at,
            oid: Oid(oid),
            class: ClassId(0),
            owner: ClassId(0),
            method: method.into(),
            modifier: EventModifier::End,
            params: Arc::from(vec![Value::Int(at as i64)]),
        }
    }

    #[test]
    fn merge_tracks_interval() {
        let a = CompositeOccurrence::from_primitive(prim(5, 1, "A"));
        let b = CompositeOccurrence::from_primitive(prim(3, 2, "B"));
        let m = CompositeOccurrence::merge(&a, &b);
        assert_eq!(m.start, 3);
        assert_eq!(m.end, 5);
        assert_eq!(m.constituents.len(), 2);
    }

    #[test]
    fn constituent_lookup() {
        let m = CompositeOccurrence::merge(
            &CompositeOccurrence::from_primitive(prim(1, 10, "SetPrice")),
            &CompositeOccurrence::from_primitive(prim(2, 20, "SetValue")),
        );
        assert_eq!(m.constituent_of(Oid(10)).unwrap().at, 1);
        assert_eq!(m.constituent_for_method("SetValue").unwrap().at, 2);
        assert!(m.constituent_of(Oid(99)).is_none());
        assert_eq!(m.last().unwrap().at, 2);
    }

    #[test]
    fn constituents_compare_and_serialise_by_contents() {
        let one = CompositeOccurrence::from_primitive(prim(1, 10, "A"));
        let many = Constituents::from(vec![prim(1, 10, "A")]);
        assert_eq!(one.constituents, many, "inline and vec forms are equal");
        let json = serde_json::to_string(&one).unwrap();
        let vec_json = serde_json::to_string(&vec![prim(1, 10, "A")]).unwrap();
        assert!(json.contains(&vec_json), "serialised as an array: {json}");
        let back: CompositeOccurrence = serde_json::from_str(&json).unwrap();
        assert_eq!(back, one);
        let two = CompositeOccurrence::merge(&one, &one);
        assert_eq!(two.constituents.len(), 2);
        let back: CompositeOccurrence =
            serde_json::from_str(&serde_json::to_string(&two).unwrap()).unwrap();
        assert_eq!(back, two);
        let mut grown = Constituents::new();
        grown.extend_from_slice(&[prim(1, 10, "A")]);
        grown.extend_from_slice(&[prim(2, 20, "B")]);
        let oids: Vec<Oid> = grown.iter().map(|c| c.oid).collect();
        assert_eq!(oids, [Oid(10), Oid(20)]);
    }

    #[test]
    fn merge_all_spans_everything() {
        let occs = vec![
            CompositeOccurrence::from_primitive(prim(7, 1, "A")),
            CompositeOccurrence::from_primitive(prim(2, 2, "B")),
            CompositeOccurrence::from_primitive(prim(4, 3, "C")),
        ];
        let m = CompositeOccurrence::merge_all(&occs);
        assert_eq!((m.start, m.end), (2, 7));
        assert_eq!(m.constituents.len(), 3);
    }
}
