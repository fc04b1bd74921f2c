//! Row-major relation storage.
//!
//! A relation instance `S_j ⊆ [n]^{a_j}` is a bag of fixed-arity tuples of
//! `u64` values stored contiguously. The paper measures communication in
//! bits with `M_j = a_j · m_j · log n` (Section 3); [`Relation::bit_size`]
//! implements exactly that accounting given the domain's bit width.

use crate::fastmap::FastMap;
use std::cell::Cell;
use std::fmt;

thread_local! {
    /// Bytes of relation data read by statistics scans on this thread.
    ///
    /// Advanced by [`Relation::frequencies`] (the exact-statistics pass
    /// reads every tuple) and by [`record_stats_scan_bytes`] callers such
    /// as the sketch module's one-time projection backfills. Benches
    /// snapshot it via [`stats_scan_bytes_total`] to prove a statistics
    /// path is sublinear: a sketch maintained on ingest keeps this flat
    /// per append while an exact rescan grows with the relation.
    /// Thread-local (statistics scans run on the planning thread), so
    /// parallel tests and pooled workers never pollute a measurement.
    static STATS_SCAN_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Monotone total of this thread's statistics-scan bytes (the
/// thread-local meter documented above); wraps on overflow, so consumers
/// must diff two snapshots, never read it as an absolute.
pub fn stats_scan_bytes_total() -> u64 {
    STATS_SCAN_BYTES.with(|c| c.get())
}

/// Record `bytes` of relation data read by a statistics scan. Public so
/// statistics code outside this crate (sketch backfills, samplers) taxes
/// the same meter as [`Relation::frequencies`].
#[inline]
pub fn record_stats_scan_bytes(bytes: u64) {
    STATS_SCAN_BYTES.with(|c| c.set(c.get().wrapping_add(bytes)));
}

/// A relation: `m` tuples of fixed arity over a `u64` domain.
#[derive(Clone, PartialEq, Eq)]
pub struct Relation {
    name: String,
    arity: usize,
    data: Vec<u64>,
}

impl Relation {
    /// New empty relation.
    pub fn new(name: impl Into<String>, arity: usize) -> Relation {
        assert!(arity > 0, "relations must have positive arity");
        Relation {
            name: name.into(),
            arity,
            data: Vec::new(),
        }
    }

    /// New empty relation with room for `cap` tuples.
    pub fn with_capacity(name: impl Into<String>, arity: usize, cap: usize) -> Relation {
        let mut r = Relation::new(name, arity);
        r.data.reserve(cap * arity);
        r
    }

    /// Build from explicit rows (mostly for tests).
    pub fn from_rows(name: impl Into<String>, arity: usize, rows: &[&[u64]]) -> Relation {
        let mut r = Relation::new(name, arity);
        for row in rows {
            r.push(row);
        }
        r
    }

    /// Build from row-major flat data (`data.len()` a multiple of `arity`)
    /// without copying — the ingest path of the resident service, which
    /// parses wire tuples straight into a flat buffer.
    ///
    /// # Panics
    /// Panics when `data.len()` is not a multiple of `arity`.
    pub fn from_flat(name: impl Into<String>, arity: usize, data: Vec<u64>) -> Relation {
        assert!(arity > 0, "relation arity must be positive");
        assert_eq!(
            data.len() % arity,
            0,
            "flat tuple data not a multiple of arity {arity}"
        );
        Relation {
            name: name.into(),
            arity,
            data,
        }
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Arity `a_j`.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Cardinality `m_j` (number of tuples).
    pub fn len(&self) -> usize {
        self.data.len() / self.arity
    }

    /// True iff no tuples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Append one tuple.
    ///
    /// # Panics
    /// Panics when `tuple.len() != arity`.
    #[inline]
    pub fn push(&mut self, tuple: &[u64]) {
        assert_eq!(tuple.len(), self.arity, "tuple arity mismatch");
        self.data.extend_from_slice(tuple);
    }

    /// Append every tuple of `other`, preserving order (the fragment-merge
    /// step of the parallel shuffle).
    ///
    /// # Panics
    /// Panics when the arities differ.
    pub fn append(&mut self, other: Relation) {
        assert_eq!(
            self.arity, other.arity,
            "cannot append arity-{} relation to arity-{}",
            other.arity, self.arity
        );
        self.data.extend(other.data);
    }

    /// Append tuples stored flat (row-major, `flat.len()` a multiple of the
    /// arity) — the zero-copy merge step of the shuffle scratch buffers.
    ///
    /// # Panics
    /// Panics when `flat.len()` is not a multiple of the arity.
    #[inline]
    pub fn push_rows(&mut self, flat: &[u64]) {
        assert_eq!(
            flat.len() % self.arity,
            0,
            "flat tuple data not a multiple of arity {}",
            self.arity
        );
        self.data.extend_from_slice(flat);
    }

    /// Tuple `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterate all tuples.
    pub fn rows(&self) -> impl Iterator<Item = &[u64]> + '_ {
        self.data.chunks_exact(self.arity)
    }

    /// `M_j` in bits: `arity * m * value_bits` (Section 3's
    /// `M_j = a_j m_j log n`).
    pub fn bit_size(&self, value_bits: u32) -> u64 {
        self.arity as u64 * self.len() as u64 * value_bits as u64
    }

    /// Sort tuples lexicographically and remove duplicates (set semantics).
    pub fn sort_dedup(&mut self) {
        let arity = self.arity;
        let mut rows: Vec<&[u64]> = self.data.chunks_exact(arity).collect();
        rows.sort_unstable();
        rows.dedup();
        let mut out = Vec::with_capacity(rows.len() * arity);
        for row in rows {
            out.extend_from_slice(row);
        }
        self.data = out;
    }

    /// True iff no duplicate tuples (after the eye of `sort_dedup`).
    pub fn is_set(&self) -> bool {
        let mut rows: Vec<&[u64]> = self.data.chunks_exact(self.arity).collect();
        rows.sort_unstable();
        rows.windows(2).all(|w| w[0] != w[1])
    }

    /// Frequency map of the projections onto attribute positions `cols`:
    /// for each distinct projected value, how many tuples carry it. This is
    /// `m_j(h_j) = |σ_{x_j = h_j}(S_j)|` of Section 4. The map is keyed by
    /// the `mix64` hasher ([`crate::fastmap::FastMap`]): statistics passes
    /// scan every tuple, and SipHash dominated that scan.
    pub fn frequencies(&self, cols: &[usize]) -> FastMap<Vec<u64>, usize> {
        record_stats_scan_bytes(self.data.len() as u64 * 8);
        let mut freq: FastMap<Vec<u64>, usize> = FastMap::default();
        for row in self.rows() {
            let key: Vec<u64> = cols.iter().map(|&c| row[c]).collect();
            *freq.entry(key).or_insert(0) += 1;
        }
        freq
    }

    /// Maximum frequency of any value combination at `cols` (0 for empty
    /// relations).
    pub fn max_frequency(&self, cols: &[usize]) -> usize {
        self.frequencies(cols).values().copied().max().unwrap_or(0)
    }

    /// Select tuples whose projection on `cols` equals `key`
    /// (`σ_{cols = key}(S)`), as a new relation.
    pub fn select_eq(&self, cols: &[usize], key: &[u64]) -> Relation {
        assert_eq!(cols.len(), key.len());
        let mut out = Relation::new(self.name.clone(), self.arity);
        for row in self.rows() {
            if cols.iter().zip(key).all(|(&c, &v)| row[c] == v) {
                out.push(row);
            }
        }
        out
    }

    /// Partition tuples by a predicate into (matching, non-matching).
    pub fn partition(&self, mut pred: impl FnMut(&[u64]) -> bool) -> (Relation, Relation) {
        let mut yes = Relation::new(self.name.clone(), self.arity);
        let mut no = Relation::new(self.name.clone(), self.arity);
        for row in self.rows() {
            if pred(row) {
                yes.push(row);
            } else {
                no.push(row);
            }
        }
        (yes, no)
    }

    /// The set of distinct values in attribute `col`.
    pub fn distinct_values(&self, col: usize) -> Vec<u64> {
        let mut vals: Vec<u64> = self.rows().map(|r| r[col]).collect();
        vals.sort_unstable();
        vals.dedup();
        vals
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Relation({}: arity {}, {} tuples)",
            self.name,
            self.arity,
            self.len()
        )
    }
}

/// Number of bits needed to address a domain of size `n` (at least 1).
pub fn domain_bits(n: u64) -> u32 {
    if n <= 2 {
        1
    } else {
        64 - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        Relation::from_rows("S", 2, &[&[1, 10], &[2, 10], &[3, 20], &[1, 10]])
    }

    #[test]
    fn basic_accessors() {
        let r = sample();
        assert_eq!(r.name(), "S");
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 4);
        assert_eq!(r.row(2), &[3, 20]);
        assert_eq!(r.rows().count(), 4);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let mut r = Relation::new("S", 2);
        r.push(&[1]);
    }

    #[test]
    fn append_concatenates_in_order() {
        let mut a = Relation::from_rows("S", 2, &[&[1, 2], &[3, 4]]);
        let b = Relation::from_rows("S", 2, &[&[5, 6]]);
        a.append(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.row(0), &[1, 2]);
        assert_eq!(a.row(2), &[5, 6]);
    }

    #[test]
    #[should_panic(expected = "cannot append arity-1 relation to arity-2")]
    fn append_arity_mismatch_panics() {
        let mut a = Relation::new("S", 2);
        a.append(Relation::new("T", 1));
    }

    #[test]
    fn bit_size_matches_formula() {
        let r = sample();
        // a=2, m=4, 7 bits -> 56.
        assert_eq!(r.bit_size(7), 56);
    }

    #[test]
    fn sort_dedup_and_is_set() {
        let mut r = sample();
        assert!(!r.is_set());
        r.sort_dedup();
        assert!(r.is_set());
        assert_eq!(r.len(), 3);
        assert_eq!(r.row(0), &[1, 10]);
    }

    #[test]
    fn frequencies_per_column() {
        let r = sample();
        let f = r.frequencies(&[1]);
        assert_eq!(f[&vec![10]], 3);
        assert_eq!(f[&vec![20]], 1);
        assert_eq!(r.max_frequency(&[1]), 3);
        let f2 = r.frequencies(&[0, 1]);
        assert_eq!(f2[&vec![1, 10]], 2);
    }

    #[test]
    fn frequencies_on_empty_projection() {
        let r = sample();
        let f = r.frequencies(&[]);
        // One group: the empty tuple, with the full cardinality.
        assert_eq!(f[&Vec::<u64>::new()], 4);
    }

    #[test]
    fn select_and_partition() {
        let r = sample();
        let sel = r.select_eq(&[1], &[10]);
        assert_eq!(sel.len(), 3);
        let (heavy, light) = r.partition(|row| row[1] == 10);
        assert_eq!(heavy.len(), 3);
        assert_eq!(light.len(), 1);
        assert_eq!(heavy.len() + light.len(), r.len());
    }

    #[test]
    fn distinct_values() {
        let r = sample();
        assert_eq!(r.distinct_values(0), vec![1, 2, 3]);
        assert_eq!(r.distinct_values(1), vec![10, 20]);
    }

    #[test]
    fn domain_bits_edges() {
        assert_eq!(domain_bits(1), 1);
        assert_eq!(domain_bits(2), 1);
        assert_eq!(domain_bits(3), 2);
        assert_eq!(domain_bits(256), 8);
        assert_eq!(domain_bits(257), 9);
        assert_eq!(domain_bits(1 << 20), 20);
    }
}
