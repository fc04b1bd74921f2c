//! Per-dimension hash families and the bucket-load experiment of Lemma 3.1.
//!
//! The HyperCube algorithm needs `k` independent hash functions
//! `h_i : [n] → [p_i]` (Section 3.1). We realize them as keyed 64-bit
//! mixers with independently drawn keys — the empirical stand-in for the
//! paper's "independent and perfectly random hash functions", whose max-load
//! behaviour Lemma 3.1 analyzes and the `hashing` experiment measures.

use crate::topology::Grid;
use mpc_data::relation::Relation;
use mpc_data::rng::{mix64, Rng};

/// A family of independent hash functions, one per grid dimension.
#[derive(Clone, Debug)]
pub struct HashFamily {
    keys: Vec<u64>,
}

impl HashFamily {
    /// Draw `dims` independent functions from the seed.
    pub fn new(dims: usize, seed: u64) -> HashFamily {
        let mut rng = Rng::seed_from_u64(seed ^ 0x6A09_E667_F3BC_C908);
        let keys = (0..dims).map(|_| rng.next_u64()).collect();
        HashFamily { keys }
    }

    /// Number of functions in the family.
    pub(crate) fn dims(&self) -> usize {
        self.keys.len()
    }

    /// `h_i(value)` in `[0, buckets)`.
    #[inline]
    pub fn hash(&self, dim: usize, value: u64, buckets: usize) -> usize {
        debug_assert!(buckets > 0);
        (mix64(value, self.keys[dim]) % buckets as u64) as usize
    }
}

/// Hash every tuple of `relation` onto `grid` — attribute `a` of the tuple
/// is hashed by family dimension `attr_dims[a]` into the grid's dimension
/// `attr_dims[a]` — and return the per-cell tuple loads.
///
/// This is precisely the experiment of Lemma 3.1: an `r`-ary relation
/// hashed to `p = p1 ··· pr` bins via independent per-attribute hashes.
/// The grid must have one dimension per attribute.
pub fn bucket_loads(relation: &Relation, grid: &Grid, family: &HashFamily) -> Vec<u64> {
    assert_eq!(
        grid.rank(),
        relation.arity(),
        "grid must have one dimension per attribute"
    );
    assert!(family.dims() >= grid.rank());
    let mut loads = vec![0u64; grid.num_cells()];
    let mut coords = vec![0usize; grid.rank()];
    for row in relation.rows() {
        for (a, &v) in row.iter().enumerate() {
            coords[a] = family.hash(a, v, grid.dims()[a]);
        }
        loads[grid.encode(&coords)] += 1;
    }
    loads
}

/// Summary statistics of a load vector.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadSummary {
    /// Largest per-cell load.
    pub max: u64,
    /// Mean per-cell load.
    pub mean: f64,
    /// max / mean — the headroom factor the high-probability bounds cap.
    pub imbalance: f64,
}

/// Summarize a load vector.
pub fn summarize(loads: &[u64]) -> LoadSummary {
    let max = loads.iter().copied().max().unwrap_or(0);
    let total: u64 = loads.iter().sum();
    let mean = total as f64 / loads.len().max(1) as f64;
    let imbalance = if mean > 0.0 { max as f64 / mean } else { 0.0 };
    LoadSummary {
        max,
        mean,
        imbalance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_data::generators;

    #[test]
    fn family_is_deterministic_per_seed() {
        let f1 = HashFamily::new(3, 7);
        let f2 = HashFamily::new(3, 7);
        let f3 = HashFamily::new(3, 8);
        for v in 0..100u64 {
            assert_eq!(f1.hash(0, v, 16), f2.hash(0, v, 16));
        }
        let diff = (0..100u64)
            .filter(|&v| f1.hash(0, v, 16) != f3.hash(0, v, 16))
            .count();
        assert!(diff > 50);
    }

    #[test]
    fn dimensions_are_independent() {
        let f = HashFamily::new(2, 42);
        let diff = (0..200u64)
            .filter(|&v| f.hash(0, v, 64) != f.hash(1, v, 64))
            .count();
        assert!(diff > 150, "dimensions look correlated: {diff}");
    }

    #[test]
    fn total_load_is_cardinality() {
        let mut rng = Rng::seed_from_u64(1);
        let r = generators::uniform("R", 2, 5000, 1 << 16, &mut rng);
        let grid = Grid::new(vec![4, 8]);
        let loads = bucket_loads(&r, &grid, &HashFamily::new(2, 3));
        assert_eq!(loads.iter().sum::<u64>(), 5000);
        assert_eq!(loads.len(), 32);
    }

    /// Lemma 3.1(2): matchings spread within a small constant of m/p.
    #[test]
    fn matching_loads_concentrate() {
        let mut rng = Rng::seed_from_u64(2);
        let m = 1 << 14;
        let r = generators::matching("R", 2, m, 1 << 20, &mut rng);
        let grid = Grid::new(vec![8, 8]);
        let s = summarize(&bucket_loads(&r, &grid, &HashFamily::new(2, 5)));
        assert!((s.mean - (m / 64) as f64).abs() < 1e-9);
        assert!(s.imbalance < 2.0, "matching imbalance {}", s.imbalance);
    }

    /// Lemma 3.1(4): a single-value attribute pins the load at m / p_other.
    #[test]
    fn single_value_attribute_floors_load() {
        let mut rng = Rng::seed_from_u64(3);
        let m = 1 << 12;
        let r = generators::single_value_column("R", 2, m, 1 << 16, 0, 99, &mut rng);
        let grid = Grid::new(vec![8, 8]);
        let s = summarize(&bucket_loads(&r, &grid, &HashFamily::new(2, 5)));
        // All tuples land in one slice of 8 cells: max >= m/8, and in fact
        // mean within the slice is m/8.
        assert!(s.max >= (m / 8) as u64, "max {} < m/p_2 {}", s.max, m / 8);
    }

    #[test]
    fn summarize_empty() {
        let s = summarize(&[]);
        assert_eq!(s.max, 0);
        assert_eq!(s.mean, 0.0);
    }
}
