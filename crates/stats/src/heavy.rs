//! Heavy-hitter detection (Section 4).
//!
//! A partial assignment `h_j` to a variable subset `x_j ⊆ vars(S_j)` is a
//! *heavy hitter* when its frequency exceeds the threshold:
//! `m_j(h_j) > m_j / p` (Section 4.2). By construction there are fewer than
//! `p` heavy hitters per `(relation, subset)` pair. The paper assumes every
//! input server knows all heavy hitters and their (approximate)
//! frequencies; [`HeavyHitters::of`] takes them from any
//! [`Stats`] source, and [`heavy_hitters`] from the
//! exact one.

use crate::source::{ExactStats, Stats};
use mpc_data::catalog::Database;
use mpc_data::fastmap::FastMap;
use mpc_query::{Query, VarSet};

/// The heavy hitters of one relation at one variable subset.
#[derive(Clone, Debug)]
pub struct HeavyHitters {
    /// Atom index `j`.
    pub atom: usize,
    /// The variable subset `x_j` (query variable indices).
    pub vars: VarSet,
    /// Attribute positions within the atom realizing `vars`, in `vars.iter()`
    /// order (first position for repeated variables).
    pub cols: Vec<usize>,
    /// Heavy assignments and their exact frequencies `m_j(h_j)`, keyed in
    /// `cols` order (`mix64`-hashed: this map is probed per tuple).
    pub entries: FastMap<Vec<u64>, usize>,
    /// The relation's cardinality `m_j` (denominator of the threshold).
    pub cardinality: usize,
    /// The `p` used for the threshold.
    pub p: usize,
}

impl HeavyHitters {
    /// The heavy hitters of atom `atom` (of cardinality `cardinality`) at
    /// variable subset `vars` as `stats` reports them (variables outside
    /// the atom are ignored) — the §4.2 entry point for every statistics
    /// source, exact or estimated.
    ///
    /// Applies the pinned conservative-fallback rule: every estimate whose
    /// error interval *may* exceed the `m/p` threshold
    /// ([`crate::sketch::FreqEstimate::may_exceed`]) is kept as heavy, at
    /// its largest consistent count (clamped to `m`; a key cannot occur
    /// more often than the relation has tuples). Overcounting only moves
    /// keys from light to heavy handling, which shifts load but never
    /// answers — every consumer in this workspace is answer-complete under
    /// any heavy classification.
    pub fn of(
        q: &Query,
        stats: &dyn Stats,
        cardinality: usize,
        atom: usize,
        vars: VarSet,
        p: usize,
    ) -> HeavyHitters {
        let vars = vars.intersect(q.atom(atom).var_set());
        let cols = columns_for(q, atom, vars);
        let threshold = cardinality as f64 / p as f64;
        let entries = stats
            .heavy_hitters(atom, &cols, p)
            .iter()
            .filter(|e| e.may_exceed(threshold))
            .map(|e| (e.key.clone(), e.count_upper().min(cardinality.max(1))))
            .collect();
        HeavyHitters {
            atom,
            vars,
            cols,
            entries,
            cardinality,
            p,
        }
    }

    /// The heaviness threshold `m_j / p`.
    pub fn threshold(&self) -> f64 {
        self.cardinality as f64 / self.p as f64
    }

    /// True iff assignment `key` (in `cols` order) is heavy.
    pub fn is_heavy(&self, key: &[u64]) -> bool {
        self.entries.contains_key(key)
    }

    /// Frequency of a heavy assignment (`None` for light ones).
    pub fn frequency(&self, key: &[u64]) -> Option<usize> {
        self.entries.get(key).copied()
    }

    /// Number of heavy hitters (always `< p`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff there are no heavy hitters.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Attribute positions of `vars` within atom `j` of `q`, in `vars.iter()`
/// order. Variables not present in the atom are skipped.
pub fn columns_for(q: &Query, atom: usize, vars: VarSet) -> Vec<usize> {
    let a = q.atom(atom);
    vars.iter().filter_map(|v| a.position_of_var(v)).collect()
}

/// The exact heavy hitters of atom `j` of `db` at variable subset `vars`
/// (`vars ⊆ vars(S_j)` after intersection; variables outside the atom are
/// ignored) — [`HeavyHitters::of`] over [`ExactStats`].
pub fn heavy_hitters(db: &Database, atom: usize, vars: VarSet, p: usize) -> HeavyHitters {
    let cardinality = db.relation(atom).len();
    HeavyHitters::of(db.query(), &ExactStats::of(db), cardinality, atom, vars, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_data::{generators, Relation, Rng};
    use mpc_query::named;

    /// Every `(atom, nonempty variable subset)` pair of `db`'s query — the
    /// full complex-statistics regime of Section 4.2 ("one needs to
    /// consider sets of attributes of each relation S_j that may be heavy
    /// hitters jointly, even if none of them is a heavy hitter by itself").
    fn all_subsets(db: &Database) -> Vec<(usize, VarSet)> {
        let q = db.query();
        (0..q.num_atoms())
            .flat_map(|j| q.atom(j).var_set().subsets().map(move |s| (j, s)))
            .filter(|(_, s)| !s.is_empty())
            .collect()
    }

    fn skewed_join_db(p: usize) -> (Database, usize) {
        // S1(x,z): 100 tuples with z=7 (heavy for p >= 2), 100 spread out.
        let q = named::two_way_join();
        let mut rng = Rng::seed_from_u64(1);
        let degrees: Vec<(Vec<u64>, usize)> = std::iter::once((vec![7u64], 100))
            .chain((0..100).map(|i| (vec![100 + i as u64], 1)))
            .collect();
        let s1 = generators::from_degree_sequence("S1", 2, &[1], &degrees, 1 << 10, &mut rng);
        let s2 = generators::uniform("S2", 2, 200, 1 << 10, &mut rng);
        let db = Database::new(q, vec![s1, s2], 1 << 10).unwrap();
        (db, p)
    }

    #[test]
    fn detects_planted_heavy_hitter() {
        let (db, p) = skewed_join_db(8);
        let q = db.query();
        let z = q.var_index("z").unwrap();
        let hh = heavy_hitters(&db, 0, VarSet::singleton(z), p);
        // threshold = 200/8 = 25; only z=7 (freq 100) exceeds it.
        assert_eq!(hh.len(), 1);
        assert_eq!(hh.frequency(&[7]), Some(100));
        assert!(hh.is_heavy(&[7]));
        assert!(!hh.is_heavy(&[100]));
        assert!((hh.threshold() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn heavy_count_is_below_p() {
        // Structural guarantee: fewer than p assignments can each exceed m/p.
        let (db, _) = skewed_join_db(4);
        for p in [2usize, 4, 8, 64] {
            for (j, subset) in all_subsets(&db) {
                let hh = heavy_hitters(&db, j, subset, p);
                assert!(hh.len() < p, "p={p}: {} heavy hitters", hh.len());
            }
        }
    }

    #[test]
    fn joint_attribute_subsets_are_enumerated() {
        // 14 tuples share the pair (x,z) = (1,2) out of 120; with p = 16 the
        // threshold is 7.5, so the *pair* is a heavy hitter of the attribute
        // subset {x,z} even though neither value is rare on its own.
        let q = named::two_way_join();
        let mut rng = Rng::seed_from_u64(2);
        let mut s1 = Relation::new("S1", 2);
        for _ in 0..14 {
            s1.push(&[1, 2]);
        }
        for i in 0..106u64 {
            s1.push(&[10 + i, 300 + i]);
        }
        let s2 = generators::uniform("S2", 2, 100, 1 << 10, &mut rng);
        let db = Database::new(q, vec![s1, s2], 1 << 10).unwrap();
        let p = 16;
        // threshold = 120/16 = 7.5
        let x = db.query().var_index("x").unwrap();
        let z = db.query().var_index("z").unwrap();
        let joint = heavy_hitters(&db, 0, VarSet::from_iter([x, z]), p);
        assert_eq!(joint.frequency(&[1, 2]), Some(14));
        let single_x = heavy_hitters(&db, 0, VarSet::singleton(x), p);
        assert_eq!(single_x.frequency(&[1]), Some(14));
    }

    #[test]
    fn uniform_data_has_no_heavy_hitters() {
        let q = named::two_way_join();
        let mut rng = Rng::seed_from_u64(3);
        let n = 1u64 << 16;
        let s1 = generators::matching("S1", 2, 1000, n, &mut rng);
        let s2 = generators::matching("S2", 2, 1000, n, &mut rng);
        let db = Database::new(q, vec![s1, s2], n).unwrap();
        for (j, subset) in all_subsets(&db) {
            let hh = heavy_hitters(&db, j, subset, 64);
            assert!(hh.is_empty(), "unexpected heavy hitters: {hh:?}");
        }
    }
}
