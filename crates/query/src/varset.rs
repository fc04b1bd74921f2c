//! Compact sets of query variables.
//!
//! Queries in this workspace have at most 64 variables (far beyond anything
//! the paper's polytopes can handle anyway), so a variable set is a `u64`
//! bitmask. The set of variables `x` that parameterizes residual queries
//! `q_x` and bin combinations (Sections 4.2–4.3) is always a `VarSet`.

use std::fmt;

/// A set of variable indices `0..64`, stored as a bitmask.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct VarSet(u64);

impl VarSet {
    /// The empty set.
    pub const EMPTY: VarSet = VarSet(0);

    /// Singleton set `{i}`.
    pub fn singleton(i: usize) -> VarSet {
        assert!(i < 64, "variable index out of range");
        VarSet(1 << i)
    }

    /// Build from an iterator of indices.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter(iter: impl IntoIterator<Item = usize>) -> VarSet {
        iter.into_iter()
            .fold(VarSet::EMPTY, |s, i| s.union(VarSet::singleton(i)))
    }

    /// Build directly from a bitmask.
    pub fn from_bits(bits: u64) -> VarSet {
        VarSet(bits)
    }

    /// Number of elements.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True iff empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Membership test.
    pub fn contains(self, i: usize) -> bool {
        i < 64 && self.0 & (1 << i) != 0
    }

    /// Set union.
    pub fn union(self, other: VarSet) -> VarSet {
        VarSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersect(self, other: VarSet) -> VarSet {
        VarSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    pub fn minus(self, other: VarSet) -> VarSet {
        VarSet(self.0 & !other.0)
    }

    /// Insert an element.
    pub fn insert(self, i: usize) -> VarSet {
        self.union(VarSet::singleton(i))
    }

    /// True iff `self ⊆ other`.
    pub fn is_subset(self, other: VarSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Iterate the elements in increasing order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(i)
            }
        })
    }

    /// Iterate over all subsets of `self` (including the empty set and
    /// `self` itself), in an order where a subset always precedes any of its
    /// strict supersets... (specifically: increasing bitmask order restricted
    /// to subsets of `self`).
    pub fn subsets(self) -> impl Iterator<Item = VarSet> {
        let full = self.0;
        let mut cur: Option<u64> = Some(0);
        std::iter::from_fn(move || {
            let v = cur?;
            cur = if v == full {
                None
            } else {
                Some(((v | !full).wrapping_add(1)) & full)
            };
            Some(VarSet(v))
        })
    }
}

impl fmt::Display for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (n, i) in self.iter().enumerate() {
            if n > 0 {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let a = VarSet::from_iter([0, 2, 5]);
        let b = VarSet::from_iter([2, 3]);
        assert_eq!(a.len(), 3);
        assert!(a.contains(2));
        assert!(!a.contains(3));
        assert_eq!(a.union(b), VarSet::from_iter([0, 2, 3, 5]));
        assert_eq!(a.intersect(b), VarSet::singleton(2));
        assert_eq!(a.minus(b), VarSet::from_iter([0, 5]));
        assert!(VarSet::singleton(2).is_subset(a));
        assert!(!a.is_subset(b));
        assert!(VarSet::EMPTY.is_empty());
    }

    #[test]
    fn iteration_order() {
        let s = VarSet::from_iter([7, 1, 4]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 4, 7]);
    }

    #[test]
    fn subsets_enumeration() {
        let s = VarSet::from_iter([1, 3]);
        let subs: Vec<VarSet> = s.subsets().collect();
        assert_eq!(subs.len(), 4);
        assert!(subs.contains(&VarSet::EMPTY));
        assert!(subs.contains(&VarSet::singleton(1)));
        assert!(subs.contains(&VarSet::singleton(3)));
        assert!(subs.contains(&s));
    }

    #[test]
    fn subsets_of_empty() {
        assert_eq!(VarSet::EMPTY.subsets().count(), 1);
    }

    #[test]
    fn display() {
        assert_eq!(VarSet::from_iter([0, 3]).to_string(), "{0,3}");
        assert_eq!(VarSet::EMPTY.to_string(), "{}");
    }
}
