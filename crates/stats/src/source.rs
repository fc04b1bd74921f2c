//! The statistics surface planners consume: one trait, two questions,
//! three sources.
//!
//! The paper's algorithms read two statistics and nothing else: the
//! cardinalities `m_j` (Section 3, [`Stats::simple`]) and, on skewed data,
//! per `(relation, attribute subset)` the heavy hitters `m_j(h_j) > m_j/p`
//! "and their (approximate) frequencies" (Section 4,
//! [`Stats::heavy_hitters`]). [`Stats`] is the only way a planner asks for
//! them, and every heavy hitter is a [`FreqEstimate`] overcount interval;
//! no planner asks about a light assignment. [`ExactStats`] reads
//! the data (zero-width intervals; the scan-based oracle the parity suites
//! compare every other source against, and what the engine plans from
//! when it is handed no source), [`SketchStats`] answers from
//! [`crate::sketch`] summaries — its own, or ones the resident service
//! lends it — and [`SyntheticStats`] carries cardinalities only.
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
use mpc_data::relation::Relation;
use std::borrow::BorrowMut;
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
}

/// Exact statistics read from the database. The frequency map of each
/// `(atom, cols)` projection is built by one relation scan on first
/// request and memoized for the life of the value, so skew detection,
/// skew-join planning and §4.2 share that scan at every threshold.
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
}

impl Stats for ExactStats<'_> {
    fn simple(&self) -> SimpleStatistics {
        SimpleStatistics::of(self.db)
    }

    fn heavy_hitters(&self, atom: usize, cols: &[usize], p: usize) -> Vec<FreqEstimate> {
        let threshold = self.db.relation(atom).len() as f64 / p as f64;
        let mut cache = self.cache.borrow_mut();
        let map = cache
            .entry((atom, cols.to_vec()))
            .or_insert_with(|| self.db.relation(atom).frequencies(cols));
        let mut out: Vec<FreqEstimate> = map
            .iter()
            .filter(|(_, &c)| c as f64 > threshold)
            .map(|(k, &c)| FreqEstimate::exact(k.clone(), c))
            .collect();
        out.sort_by(|a, b| a.key.cmp(&b.key));
        out
    }
}

/// Sketch-backed statistics: one [`RelationSketch`] per atom, owned
/// ([`SketchStats::of`]) or lent by the resident service, which keeps its
/// sketches current on append ([`SketchStats::over`]). A projection is
/// registered — one streaming pass over the relation — the first time
/// anything asks for it; after that every question is answered from
/// `O(capacity)` state with guaranteed error bounds, never rescanning.
pub struct SketchStats<'a, S = RelationSketch> {
    relations: Vec<&'a Relation>,
    sketches: RefCell<Vec<S>>,
    domain: u64,
}

impl<'a> SketchStats<'a> {
    /// Sketch `db` at `capacity` tracked keys per projection. Capacity
    /// `>= p` guarantees no true `m/p`-heavy hitter is missed.
    pub fn of(db: &'a Database, capacity: usize) -> SketchStats<'a> {
        let relations: Vec<&Relation> = db.relations().iter().map(|rel| &**rel).collect();
        let sketches = relations
            .iter()
            .map(|rel| RelationSketch::of(rel, capacity))
            .collect();
        SketchStats::over(relations, sketches, db.domain())
    }
}

impl<'a, S: BorrowMut<RelationSketch>> SketchStats<'a, S> {
    /// Statistics over one relation and one sketch per atom, in atom
    /// order, over domain `[0, domain)`. Each sketch must have been fed
    /// every tuple of its relation.
    pub fn over(relations: Vec<&'a Relation>, sketches: Vec<S>, domain: u64) -> SketchStats<'a, S> {
        assert_eq!(relations.len(), sketches.len(), "one sketch per atom");
        SketchStats {
            relations,
            sketches: RefCell::new(sketches),
            domain,
        }
    }
}

impl<S: BorrowMut<RelationSketch>> Stats for SketchStats<'_, S> {
    fn simple(&self) -> SimpleStatistics {
        SimpleStatistics::over(self.relations.iter().copied(), self.domain)
    }

    fn heavy_hitters(&self, atom: usize, cols: &[usize], p: usize) -> Vec<FreqEstimate> {
        let mut sketches = self.sketches.borrow_mut();
        let sk = sketches[atom].borrow_mut();
        sk.ensure_projection(self.relations[atom], cols);
        sk.heavy_hitters(cols, p).expect("projection ensured")
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
}
