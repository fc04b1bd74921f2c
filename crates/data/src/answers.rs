//! Flat, row-major answer storage.
//!
//! Every algorithm in the workspace ultimately produces a set of answer
//! rows over the query's variables. Materializing them as `Vec<Vec<u64>>`
//! costs one heap allocation per answer and a pointer-chasing sort;
//! [`AnswerSet`] stores all rows contiguously (`arity` + one flat `Vec`),
//! so collection is an `extend_from_slice`, the canonicalizing
//! [`AnswerSet::sort_dedup`] sorts rows through [`sort_rows`] without a
//! row allocation, and iteration is cache-linear. The paper's cost model
//! counts tuples, not allocator round-trips — the simulator's data plane
//! shouldn't either.
//!
//! ```
//! use mpc_data::AnswerSet;
//!
//! let mut ans = AnswerSet::new(2);
//! ans.push(&[3, 1]);
//! ans.push(&[1, 2]);
//! ans.push(&[3, 1]); // duplicate
//! ans.sort_dedup();
//! assert_eq!(ans.len(), 2);
//! assert_eq!(ans.row(0), &[1, 2]);
//! assert_eq!(ans, vec![vec![1, 2], vec![3, 1]]); // nested-vec comparisons work
//! ```

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide accumulator behind [`rows_materialized_total`].
static ROWS_MATERIALIZED: AtomicU64 = AtomicU64::new(0);

/// Total answer rows materialized into [`AnswerSet`]s in this process (all
/// threads; [`AnswerSet::push_repeat`] counts every copy). The bench
/// harness samples it around a run to report `rows_materialized_per_iter`:
/// aggregate pushdown keeps the delta near zero while the
/// materialize-then-fold baseline grows with the join's output size.
/// Deltas of this counter are meaningful, absolute values are not.
pub fn rows_materialized_total() -> u64 {
    ROWS_MATERIALIZED.load(Ordering::Relaxed)
}

/// A set of fixed-arity `u64` rows in one contiguous allocation.
///
/// The type deliberately mirrors the slice of `Vec<Vec<u64>>` the workspace
/// historically used: [`AnswerSet::rows`] iterates `&[u64]` rows,
/// [`AnswerSet::sort_dedup`] is lexicographic sort + dedup, and equality
/// against nested vectors is provided for tests ([`AnswerSet::to_nested`]
/// is the full escape hatch).
#[derive(Clone, PartialEq, Eq)]
pub struct AnswerSet {
    arity: usize,
    /// Row count, tracked explicitly so `arity == 0` (boolean queries)
    /// still counts rows.
    rows: usize,
    data: Vec<u64>,
}

impl AnswerSet {
    /// New empty set of `arity`-wide rows.
    pub fn new(arity: usize) -> AnswerSet {
        AnswerSet {
            arity,
            rows: 0,
            data: Vec::new(),
        }
    }

    /// New empty set with room for `rows` rows.
    pub fn with_capacity(arity: usize, rows: usize) -> AnswerSet {
        AnswerSet {
            arity,
            rows: 0,
            data: Vec::with_capacity(arity * rows),
        }
    }

    /// Row width (the query's variable count).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Append one row.
    ///
    /// # Panics
    /// Panics when `row.len() != arity`.
    #[inline]
    pub fn push(&mut self, row: &[u64]) {
        assert_eq!(row.len(), self.arity, "answer arity mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
        ROWS_MATERIALIZED.fetch_add(1, Ordering::Relaxed);
    }

    /// Append `times` copies of one row: an emit `(row, mult)` of
    /// [`Join::for_each`](crate::join::Join::for_each), expanded into its
    /// share of the derivation multiset under that method's contract.
    /// `times == 0` appends nothing; the copies come from doubling
    /// `extend_from_within` calls, so the cost is one slice append plus
    /// O(log times) memcpys.
    ///
    /// # Panics
    /// Panics when `row.len() != arity`.
    #[inline]
    pub fn push_repeat(&mut self, row: &[u64], times: u64) {
        assert_eq!(row.len(), self.arity, "answer arity mismatch");
        if times == 0 {
            return;
        }
        let start = self.data.len();
        self.data.extend_from_slice(row);
        let mut have = 1u64;
        while have < times {
            let copy = (times - have).min(have);
            self.data
                .extend_from_within(start..start + copy as usize * self.arity);
            have += copy;
        }
        self.rows += times as usize;
        ROWS_MATERIALIZED.fetch_add(times, Ordering::Relaxed);
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// The first row, if any.
    pub fn first(&self) -> Option<&[u64]> {
        (self.rows > 0).then(|| self.row(0))
    }

    /// Iterate all rows as slices (no allocation; [`Rows`] is a plain
    /// cursor).
    pub fn rows(&self) -> Rows<'_> {
        Rows { set: self, i: 0 }
    }

    /// Append every row of `other`, preserving order (the merge step of
    /// parallel collection).
    ///
    /// # Panics
    /// Panics when the arities differ.
    pub fn append(&mut self, other: AnswerSet) {
        assert_eq!(
            self.arity, other.arity,
            "cannot append arity-{} answers to arity-{}",
            other.arity, self.arity
        );
        self.rows += other.rows;
        self.data.extend(other.data);
    }

    /// Sort rows lexicographically in place, keeping duplicates (multiset
    /// comparisons; set semantics want [`AnswerSet::sort_dedup`]).
    pub fn sort(&mut self) {
        if self.arity > 0 {
            sort_rows(&mut self.data, self.arity, false);
        }
    }

    /// Sort rows lexicographically and remove duplicates, in place
    /// ([`sort_rows`]) — the canonical form every answer-set comparison in
    /// the workspace uses.
    pub fn sort_dedup(&mut self) {
        self.rows = match self.arity {
            // All rows are the empty tuple.
            0 => self.rows.min(1),
            arity => sort_rows(&mut self.data, arity, true),
        };
    }

    /// Materialize as nested vectors (the escape hatch for assertions and
    /// interop; everything hot should stay on [`AnswerSet::rows`]).
    pub fn to_nested(&self) -> Vec<Vec<u64>> {
        self.rows().map(|r| r.to_vec()).collect()
    }
}

/// Sort the `arity`-wide rows of the row-major `flat` lexicographically,
/// drop repeated rows when `dedup`, and return how many rows are left.
/// This is the one row sort: answer sets, relations and the per-server
/// answer count all sort through it.
///
/// Rows up to four values wide sort in place as fixed-size arrays, and
/// `dedup` compacts them in place and truncates `flat`. The sort is the
/// stable one because it merges the ascending runs it finds, and a local
/// join emits long ones: each leaf of its search emits the last unbound
/// variable's values in ascending order with every other variable fixed.
/// On the heavy servers of a §4.1 skew join with 1 024 × 128 copies of one
/// value (~21 000 bindings each) it took a third of `sort_unstable`'s time
/// (2-core x86-64 VM). Wider rows sort one index of row slices and are
/// copied back in order.
///
/// # Panics
/// Panics when `arity` is 0 or `flat.len()` is not a multiple of it.
pub fn sort_rows(flat: &mut Vec<u64>, arity: usize, dedup: bool) -> usize {
    fn fixed<const A: usize>(flat: &mut Vec<u64>, dedup: bool) -> usize {
        let (rows, _) = flat.as_chunks_mut::<A>();
        rows.sort();
        let mut kept = rows.len();
        if dedup && kept > 1 {
            kept = 1;
            for i in 1..rows.len() {
                if rows[i] != rows[kept - 1] {
                    rows[kept] = rows[i];
                    kept += 1;
                }
            }
        }
        flat.truncate(kept * A);
        kept
    }
    assert!(
        arity > 0 && flat.len().is_multiple_of(arity),
        "{} values are not rows of arity {arity}",
        flat.len()
    );
    match arity {
        1 => fixed::<1>(flat, dedup),
        2 => fixed::<2>(flat, dedup),
        3 => fixed::<3>(flat, dedup),
        4 => fixed::<4>(flat, dedup),
        _ => {
            let mut rows: Vec<&[u64]> = flat.chunks_exact(arity).collect();
            rows.sort_unstable();
            if dedup {
                rows.dedup();
            }
            *flat = rows.concat();
            flat.len() / arity
        }
    }
}

/// Borrowing row iterator of an [`AnswerSet`] (see [`AnswerSet::rows`]).
#[derive(Clone, Debug)]
pub struct Rows<'a> {
    set: &'a AnswerSet,
    i: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [u64];

    #[inline]
    fn next(&mut self) -> Option<&'a [u64]> {
        if self.i >= self.set.rows {
            return None;
        }
        let row = &self.set.data[self.i * self.set.arity..(self.i + 1) * self.set.arity];
        self.i += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.set.rows - self.i;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Rows<'_> {}

impl std::ops::Index<usize> for AnswerSet {
    type Output = [u64];

    fn index(&self, i: usize) -> &[u64] {
        self.row(i)
    }
}

impl<'a> IntoIterator for &'a AnswerSet {
    type Item = &'a [u64];
    type IntoIter = Rows<'a>;

    fn into_iter(self) -> Rows<'a> {
        self.rows()
    }
}

/// Row-wise equality against nested vectors (test ergonomics; arity of an
/// empty nested vector is unknowable, so only rows are compared).
impl PartialEq<Vec<Vec<u64>>> for AnswerSet {
    fn eq(&self, other: &Vec<Vec<u64>>) -> bool {
        self.len() == other.len() && self.rows().zip(other).all(|(a, b)| a == b.as_slice())
    }
}

impl PartialEq<AnswerSet> for Vec<Vec<u64>> {
    fn eq(&self, other: &AnswerSet) -> bool {
        other == self
    }
}

impl PartialEq<&[Vec<u64>]> for AnswerSet {
    fn eq(&self, other: &&[Vec<u64>]) -> bool {
        self.len() == other.len()
            && self
                .rows()
                .zip(other.iter())
                .all(|(a, b)| a == b.as_slice())
    }
}

impl fmt::Debug for AnswerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const SHOWN: usize = 20;
        write!(f, "AnswerSet(arity {}, {} rows", self.arity, self.rows)?;
        if !self.is_empty() {
            write!(f, ": ")?;
            f.debug_list().entries(self.rows().take(SHOWN)).finish()?;
            if self.rows > SHOWN {
                write!(f, " … +{} more", self.rows - SHOWN)?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build from nested rows; panics when a row's length differs from
    /// `arity`.
    fn from_nested(arity: usize, rows: &[Vec<u64>]) -> AnswerSet {
        let mut out = AnswerSet::with_capacity(arity, rows.len());
        for row in rows {
            out.push(row);
        }
        out
    }

    #[test]
    fn push_row_len_and_iteration() {
        let mut a = AnswerSet::new(3);
        assert!(a.is_empty());
        a.push(&[1, 2, 3]);
        a.push(&[4, 5, 6]);
        assert_eq!(a.len(), 2);
        assert_eq!(a.arity(), 3);
        assert_eq!(a.row(1), &[4, 5, 6]);
        assert_eq!(a[0], [1, 2, 3]);
        assert_eq!(a.first(), Some([1u64, 2, 3].as_slice()));
        let collected: Vec<&[u64]> = a.rows().collect();
        assert_eq!(collected.len(), 2);
        let via_iter: Vec<&[u64]> = (&a).into_iter().collect();
        assert_eq!(collected, via_iter);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        AnswerSet::new(2).push(&[1]);
    }

    #[test]
    fn push_repeat_matches_repeated_push() {
        let mut a = AnswerSet::new(2);
        a.push_repeat(&[1, 2], 0);
        assert!(a.is_empty());
        a.push_repeat(&[1, 2], 1);
        a.push_repeat(&[3, 4], 5);
        let mut b = AnswerSet::new(2);
        b.push(&[1, 2]);
        for _ in 0..5 {
            b.push(&[3, 4]);
        }
        assert_eq!(a, b);

        // Zero-arity rows still count.
        let mut z = AnswerSet::new(0);
        z.push_repeat(&[], 7);
        assert_eq!(z.len(), 7);
    }

    #[test]
    fn sort_keeps_duplicates() {
        let mut a = from_nested(2, &[vec![3, 1], vec![1, 2], vec![3, 1]]);
        a.sort();
        assert_eq!(a, vec![vec![1, 2], vec![3, 1], vec![3, 1]]);
        let mut one = from_nested(1, &[vec![4], vec![2], vec![4]]);
        one.sort();
        assert_eq!(one, vec![vec![2], vec![4], vec![4]]);
    }

    #[test]
    fn sort_dedup_canonicalizes() {
        let mut a = from_nested(2, &[vec![3, 1], vec![1, 2], vec![3, 1], vec![0, 9]]);
        a.sort_dedup();
        assert_eq!(a, vec![vec![0, 9], vec![1, 2], vec![3, 1]]);
    }

    #[test]
    fn sort_dedup_arity_one_uses_flat_path() {
        let mut a = from_nested(1, &[vec![5], vec![1], vec![5], vec![3]]);
        a.sort_dedup();
        assert_eq!(a, vec![vec![1], vec![3], vec![5]]);
    }

    #[test]
    fn sort_dedup_handles_empty_and_all_duplicates() {
        let mut empty = AnswerSet::new(2);
        empty.sort_dedup();
        assert!(empty.is_empty());

        let mut dup = AnswerSet::new(2);
        for _ in 0..50 {
            dup.push(&[7, 7]);
        }
        dup.sort_dedup();
        assert_eq!(dup, vec![vec![7, 7]]);
    }

    #[test]
    fn zero_arity_rows_count_and_collapse() {
        let mut a = AnswerSet::new(0);
        a.push(&[]);
        a.push(&[]);
        assert_eq!(a.len(), 2);
        a.sort_dedup();
        assert_eq!(a.len(), 1);
        assert_eq!(a.row(0), &[] as &[u64]);
    }

    #[test]
    fn append_concatenates_in_order() {
        let mut a = from_nested(2, &[vec![1, 2]]);
        let b = from_nested(2, &[vec![3, 4], vec![5, 6]]);
        a.append(b);
        assert_eq!(a, vec![vec![1, 2], vec![3, 4], vec![5, 6]]);
    }

    #[test]
    #[should_panic(expected = "cannot append arity-1 answers to arity-2")]
    fn append_arity_mismatch_panics() {
        AnswerSet::new(2).append(AnswerSet::new(1));
    }

    #[test]
    fn rows_materialized_probe_accumulates() {
        let before = rows_materialized_total();
        let mut a = AnswerSet::new(2);
        a.push(&[1, 2]);
        a.push_repeat(&[3, 4], 5);
        a.push_repeat(&[5, 6], 0);
        // Other tests run in the same process; the global only ever grows.
        assert!(rows_materialized_total() - before >= 6);
    }

    #[test]
    fn nested_round_trip_and_equality() {
        let rows = vec![vec![9, 8], vec![7, 6]];
        let a = from_nested(2, &rows);
        assert_eq!(a.to_nested(), rows);
        assert_eq!(a, rows);
        assert_eq!(rows, a);
        assert_eq!(a, rows.as_slice());
        assert_ne!(a, vec![vec![9, 8]]);
    }

    #[test]
    fn debug_truncates_large_sets() {
        let mut a = AnswerSet::new(1);
        for i in 0..100 {
            a.push(&[i]);
        }
        let dbg = format!("{a:?}");
        assert!(dbg.contains("100 rows"), "{dbg}");
        assert!(dbg.contains("+80 more"), "{dbg}");
    }
}
