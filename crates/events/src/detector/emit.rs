//! What one stimulus completes at a node: zero, one or many
//! occurrences, zero or one of them held inline.
//!
//! Almost every delivery completes nothing or one occurrence, at every
//! node it passes. Returning a `Vec` from each node would allocate for
//! each of those; [`Emits`] allocates only when a node completes a
//! second occurrence in one step.

use crate::occurrence::CompositeOccurrence;

/// The occurrences a detector (or one of its nodes) completed for one
/// stimulus, in emission order. Reads as a slice.
#[derive(Debug, Clone, Default)]
pub struct Emits(Repr);

#[derive(Debug, Clone, Default)]
enum Repr {
    #[default]
    Zero,
    One(CompositeOccurrence),
    Many(Vec<CompositeOccurrence>),
}

impl Emits {
    /// Nothing completed.
    pub const fn new() -> Self {
        Emits(Repr::Zero)
    }

    /// Append one completion.
    pub fn push(&mut self, occ: CompositeOccurrence) {
        match &mut self.0 {
            Repr::Zero => self.0 = Repr::One(occ),
            Repr::Many(v) => v.push(occ),
            Repr::One(_) => {
                let Repr::One(first) = std::mem::take(&mut self.0) else {
                    unreachable!("matched above")
                };
                self.0 = Repr::Many(vec![first, occ]);
            }
        }
    }

    /// Keep only the completions `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&CompositeOccurrence) -> bool) {
        match &mut self.0 {
            Repr::Zero => {}
            Repr::One(o) => {
                if !keep(o) {
                    self.0 = Repr::Zero;
                }
            }
            Repr::Many(v) => v.retain(|o| keep(o)),
        }
    }

    /// The first completion, by value.
    pub fn into_first(self) -> Option<CompositeOccurrence> {
        self.into_iter().next()
    }

    /// The last completion, by value.
    pub fn into_last(self) -> Option<CompositeOccurrence> {
        match self.0 {
            Repr::Zero => None,
            Repr::One(o) => Some(o),
            Repr::Many(mut v) => v.pop(),
        }
    }
}

impl std::ops::Deref for Emits {
    type Target = [CompositeOccurrence];

    #[inline]
    fn deref(&self) -> &[CompositeOccurrence] {
        match &self.0 {
            Repr::Zero => &[],
            Repr::One(o) => std::slice::from_ref(o),
            Repr::Many(v) => v,
        }
    }
}

/// Equal when they hold equal completions in the same order.
impl PartialEq for Emits {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Extend<CompositeOccurrence> for Emits {
    fn extend<I: IntoIterator<Item = CompositeOccurrence>>(&mut self, iter: I) {
        for occ in iter {
            self.push(occ);
        }
    }
}

impl IntoIterator for Emits {
    type Item = CompositeOccurrence;
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        IntoIter(match self.0 {
            Repr::Zero => IterRepr::One(None),
            Repr::One(o) => IterRepr::One(Some(o)),
            Repr::Many(v) => IterRepr::Many(v.into_iter()),
        })
    }
}

impl<'a> IntoIterator for &'a Emits {
    type Item = &'a CompositeOccurrence;
    type IntoIter = std::slice::Iter<'a, CompositeOccurrence>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The by-value iterator of [`Emits`].
#[derive(Debug)]
pub struct IntoIter(IterRepr);

#[derive(Debug)]
enum IterRepr {
    One(Option<CompositeOccurrence>),
    Many(std::vec::IntoIter<CompositeOccurrence>),
}

impl Iterator for IntoIter {
    type Item = CompositeOccurrence;

    fn next(&mut self) -> Option<CompositeOccurrence> {
        match &mut self.0 {
            IterRepr::One(o) => o.take(),
            IterRepr::Many(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match &self.0 {
            IterRepr::One(o) => usize::from(o.is_some()),
            IterRepr::Many(it) => it.len(),
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for IntoIter {}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(at: u64) -> CompositeOccurrence {
        CompositeOccurrence {
            constituents: Default::default(),
            start: at,
            end: at,
        }
    }

    #[test]
    fn zero_one_many_read_as_slices() {
        let mut e = Emits::new();
        assert!(e.is_empty());
        e.push(tick(1));
        assert_eq!(e.len(), 1);
        e.extend([tick(2), tick(3)]);
        assert_eq!(e.iter().map(|o| o.end).collect::<Vec<_>>(), [1, 2, 3]);
        e.retain(|o| o.end != 2);
        assert_eq!(e.len(), 2);
        assert_eq!(e.clone().into_last().map(|o| o.end), Some(3));
        assert_eq!(e.clone().into_first().map(|o| o.end), Some(1));
        let ends: Vec<u64> = e.into_iter().map(|o| o.end).collect();
        assert_eq!(ends, [1, 3]);
        let mut one = Emits::new();
        one.push(tick(7));
        one.retain(|_| false);
        assert!(one.is_empty());
        assert_eq!(one.into_iter().len(), 0);
    }
}
