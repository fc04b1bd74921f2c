//! The statistics surface planners consume: one trait, three sources.
//!
//! Section 4 needs one kind of statistic — per `(relation, attribute
//! subset)`, the heavy hitters `m_j(h_j) > m_j/p` "and their (approximate)
//! frequencies". [`Stats`] is the only way a planner asks for it, and every
//! answer is a [`FreqEstimate`] overcount interval. [`ExactStats`] reads
//! the data (zero-width intervals; the scan-based oracle the parity suites
//! compare every other source against, and what the engine plans from
//! when it is handed no source), [`SketchStats`] answers from
//! [`crate::sketch`] summaries, [`SyntheticStats`] carries cardinalities
//! only.
//!
//! Planners consume estimates through the **pinned conservative fallback
//! rule** ([`FreqEstimate::may_exceed`]): an estimate whose interval
//! straddles the `m_j/p` threshold is treated as heavy.
//! Overclassifying only shifts load (within the paper's constants);
//! answers never change, because every algorithm in this workspace is
//! answer-complete under any heavy classification.

use crate::cardinality::SimpleStatistics;
use crate::sketch::{FreqEstimate, RelationSketch};
use mpc_data::catalog::Database;
use mpc_data::fastmap::FastMap;
use std::cell::RefCell;

/// The statistics a planner consumes — the paper's two information regimes
/// behind one interface, as *overcount intervals*.
pub trait Stats {
    /// Simple database statistics (Section 3): cardinalities, bit sizes.
    fn simple(&self) -> SimpleStatistics;

    /// Heavy-hitter overcount intervals of atom `atom`'s projection
    /// onto attribute positions `cols`, at the Section 4 threshold
    /// `m_j/p` (the complex regime).
    ///
    /// Contract: a **conservative superset**, sorted by key — every
    /// assignment whose *true* frequency may exceed `m_j/p` given the
    /// implementation's error bounds must appear (exact sources return
    /// exactly the heavy hitters with zero-width bounds). Extra
    /// sub-threshold keys are allowed but wasteful.
    fn heavy_hitters(&self, atom: usize, cols: &[usize], p: usize) -> Vec<FreqEstimate>;

    /// Best-known count of one assignment `key` of the `cols` projection:
    /// the largest count consistent with what the source knows, 0 when it
    /// knows nothing. Only ever asked about *light* assignments, to order
    /// the §4.2 `|C'(B)| <= p` cap — any value at or below the threshold
    /// is consistent there, so 0 costs balance, never correctness.
    fn frequency(&self, atom: usize, cols: &[usize], key: &[u64]) -> usize;
}

/// Exact statistics read from the database. The frequency map of each
/// `(atom, cols)` projection is built by one relation scan on first
/// request and memoized for the life of the value, so skew detection,
/// skew-join planning and every §4.2 point lookup share that scan.
pub struct ExactStats<'a> {
    db: &'a Database,
    #[allow(clippy::type_complexity)]
    cache: RefCell<FastMap<(usize, Vec<usize>), FastMap<Vec<u64>, usize>>>,
}

impl<'a> ExactStats<'a> {
    /// Wrap a database.
    pub fn of(db: &'a Database) -> ExactStats<'a> {
        ExactStats {
            db,
            cache: RefCell::new(FastMap::default()),
        }
    }

    fn with_frequencies<T>(
        &self,
        atom: usize,
        cols: &[usize],
        f: impl FnOnce(&FastMap<Vec<u64>, usize>) -> T,
    ) -> T {
        let mut cache = self.cache.borrow_mut();
        let map = cache
            .entry((atom, cols.to_vec()))
            .or_insert_with(|| self.db.relation(atom).frequencies(cols));
        f(map)
    }
}

impl Stats for ExactStats<'_> {
    fn simple(&self) -> SimpleStatistics {
        SimpleStatistics::of(self.db)
    }

    fn heavy_hitters(&self, atom: usize, cols: &[usize], p: usize) -> Vec<FreqEstimate> {
        let threshold = self.db.relation(atom).len() as f64 / p as f64;
        let mut out: Vec<FreqEstimate> = self.with_frequencies(atom, cols, |map| {
            map.iter()
                .filter(|(_, &c)| c as f64 > threshold)
                .map(|(k, &c)| FreqEstimate::exact(k.clone(), c))
                .collect()
        });
        out.sort_by(|a, b| a.key.cmp(&b.key));
        out
    }

    fn frequency(&self, atom: usize, cols: &[usize], key: &[u64]) -> usize {
        self.with_frequencies(atom, cols, |map| map.get(key).copied().unwrap_or(0))
    }
}

/// Sketch-backed statistics: one [`RelationSketch`] per relation, built
/// lazily by one streaming pass per projection first asked about (the
/// resident service maintains the same summaries incrementally on append);
/// after that every question is answered from `O(capacity)` state with
/// guaranteed error bounds, never rescanning.
pub struct SketchStats<'a> {
    db: &'a Database,
    capacity: usize,
    cache: RefCell<FastMap<usize, RelationSketch>>,
}

impl<'a> SketchStats<'a> {
    /// Sketch `db` at `capacity` tracked keys per projection. Capacity
    /// `>= p` guarantees no true `m/p`-heavy hitter is missed.
    pub fn of(db: &'a Database, capacity: usize) -> SketchStats<'a> {
        SketchStats {
            db,
            capacity,
            cache: RefCell::new(FastMap::default()),
        }
    }

    fn with_sketch<T>(
        &self,
        atom: usize,
        cols: &[usize],
        f: impl FnOnce(&RelationSketch) -> T,
    ) -> T {
        let mut cache = self.cache.borrow_mut();
        let rel = self.db.relation(atom);
        let sk = cache
            .entry(atom)
            .or_insert_with(|| RelationSketch::of(rel, self.capacity));
        sk.ensure_projection(rel, cols);
        f(sk)
    }
}

impl Stats for SketchStats<'_> {
    fn simple(&self) -> SimpleStatistics {
        SimpleStatistics::of(self.db)
    }

    fn heavy_hitters(&self, atom: usize, cols: &[usize], p: usize) -> Vec<FreqEstimate> {
        self.with_sketch(atom, cols, |sk| {
            sk.heavy_hitters(cols, p).expect("projection ensured")
        })
    }

    fn frequency(&self, atom: usize, cols: &[usize], key: &[u64]) -> usize {
        self.with_sketch(atom, cols, |sk| {
            sk.frequency(cols, key).expect("projection ensured")
        })
    }
}

/// Cardinalities-only statistics: the planner sees no heavy hitters, so
/// an automatic algorithm choice resolves to HyperCube whatever the data
/// looks like.
pub struct SyntheticStats(pub SimpleStatistics);

impl Stats for SyntheticStats {
    fn simple(&self) -> SimpleStatistics {
        self.0.clone()
    }

    fn heavy_hitters(&self, _atom: usize, _cols: &[usize], _p: usize) -> Vec<FreqEstimate> {
        Vec::new()
    }

    fn frequency(&self, _atom: usize, _cols: &[usize], _key: &[u64]) -> usize {
        0
    }
}
