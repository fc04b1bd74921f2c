//! The two-relation skew join of Section 4.1.
//!
//! For `q(x, y, z) = S1(x, z), S2(y, z)` (more generally: two atoms sharing
//! a non-empty variable set `z`), the algorithm classifies every `z`-value
//! by which side finds it heavy (`m_j(h) > m_j/p`) and handles each class
//! with its own server block, all within one communication round:
//!
//! 1. light values — plain hash join on `z` over all `p` servers;
//! 2. `h ∈ H12` (heavy on both sides) — a `p1(h) × p2(h)` cartesian grid
//!    with `p_h ∝ p · m1(h)m2(h) / Σ K12`, `p1 = √(p_h m1(h)/m2(h))`;
//! 3. `h ∈ H1` (heavy in S1 only) — hash-partition `S1(x, h)` on `x` over
//!    `p_h ∝ p · m1(h) / Σ K1` servers and broadcast the light `S2(y, h)`;
//! 4. `h ∈ H2` — symmetric.
//!
//! The resulting load matches the lower bound
//! `L = max(m1/p, m2/p, L1, L2, L12)` (Eq. 10) up to `O(log p)`.
//! Each class is a block of the plan's [`Placement`]: the light hash
//! join's `p` cells, then one `p1 × p2` grid per heavy value, laid out back
//! to back and folded onto the `p` physical servers by the placement; the
//! total block volume is `Θ(p)`, so folding adds only a constant factor.
//! Every block has at most `p` cells, so each of its cells owns a distinct
//! server. A server joins each of its blocks on its own, and two tuples
//! that join share a `z`-value and hence a block, so every join derivation
//! materializes on exactly one server — the invariant aggregate pushdown
//! ([`crate::aggregate`]) relies on for exact multiplicities.

use crate::bounds::skew_join_bound;
use mpc_data::catalog::Database;
use mpc_data::fastmap::{with_projected_key, FastMap};
use mpc_data::mix64;
use mpc_query::{Query, VarSet};
use mpc_sim::backend::Backend;
use mpc_sim::cluster::{Cluster, Router};
use mpc_sim::load::LoadReport;
use mpc_sim::placement::Placement;
use mpc_sim::topology::{Grid, Subcubes};
use mpc_stats::heavy::HeavyHitters;
use mpc_stats::source::{ExactStats, Stats};
use std::sync::Arc;

/// How a heavy `z`-value is handled: a `p1 × p2` block. S1's tuples hash
/// their private attributes to a row, key `keys[0] + row`, held on every
/// column of it; S2's hash to a column, key `keys[1] + column`, held on
/// every row. Heavy on both sides is a true grid; heavy in S1 only is
/// `p_h × 1` (partition S1, broadcast S2's matching tuples), heavy in S2
/// only is `1 × p_h`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct HeavyRoute {
    keys: [usize; 2],
    p1: usize,
    p2: usize,
}

/// A planned skew join (Section 4.1).
///
/// [`SkewJoin::plan_with`] is the one planner, with the shape of §4.2's
/// `GeneralSkewAlgorithm::plan_with`:
/// `(q, p, seed)` and one [`Stats`] source, of which it reads the
/// cardinalities and the two shared-variable heavy sets. There is no
/// other knob; [`SkewJoin::plan`] is that over [`ExactStats`], and the
/// engine calls it with whatever source
/// [`Engine::stats`](crate::engine::Engine::stats) was given. The plan
/// carries its Eq. (10) prediction, which the engine reports as
/// [`Plan::predicted_load_bits`](crate::engine::Plan::predicted_load_bits).
///
/// ```
/// use mpc_core::skew_join::SkewJoin;
/// use mpc_core::verify;
/// use mpc_data::{generators, Database, Rng};
/// use mpc_query::named;
///
/// // A join with one hot z-value carrying half of S1.
/// let q = named::two_way_join();
/// let mut rng = Rng::seed_from_u64(7);
/// let degrees: Vec<(Vec<u64>, usize)> = std::iter::once((vec![9u64], 512))
///     .chain((0..512u64).map(|i| (vec![100 + i], 1)))
///     .collect();
/// let s1 = generators::from_degree_sequence("S1", 2, &[1], &degrees, 4096, &mut rng);
/// let s2 = generators::matching("S2", 2, 1024, 4096, &mut rng);
/// let db = Database::new(q, vec![s1, s2], 4096).unwrap();
///
/// let sj = SkewJoin::plan(&db, 16, 3);
/// let (cluster, report) = sj.run(&db);
/// assert!(verify::verify(&db, &cluster).is_complete());
/// // The hot value's tuples were split, not dumped on one server:
/// assert!(report.max_load_tuples() < 512);
/// ```
#[derive(Clone, Debug)]
pub struct SkewJoin {
    /// The light block, then every heavy value's.
    pub(crate) placement: Placement,
    /// Shared-variable attribute positions per atom.
    shared_cols: [Vec<usize>; 2],
    /// Private (non-shared) attribute positions per atom.
    private_cols: [Vec<usize>; 2],
    /// Heavy-hitter route table, probed once per routed tuple with a
    /// stack-projected key (no per-tuple allocation).
    routes: FastMap<Vec<u64>, HeavyRoute>,
    predicted_load_bits: f64,
    key_light: u64,
    key_private: [u64; 2],
}

impl SkewJoin {
    /// Plan from the exact statistics of `db`: [`SkewJoin::plan_with`]
    /// over [`ExactStats`].
    pub fn plan(db: &Database, p: usize, seed: u64) -> SkewJoin {
        SkewJoin::plan_with(db.query(), p, seed, &ExactStats::of(db))
    }

    /// Plan `q` (two atoms sharing a non-empty variable set) for `p`
    /// servers from any [`Stats`] source, the way
    /// `GeneralSkewAlgorithm::plan_with`
    /// plans §4.2: the cardinalities and each side's shared-variable heavy
    /// set ([`HeavyHitters::of`], straddle-is-heavy) are everything it
    /// reads. A value is in H12, H1 or H2 by membership in those two sets,
    /// and [`skew_join_bound`] reads the same two sets, so the routes and
    /// the Eq. (10) prediction share one classification. Both relations
    /// consult the same per-value route table, so *any* classification
    /// yields a complete algorithm: estimate error only shifts load
    /// (`tests/stats_parity.rs` bounds by how much). The plan is a function
    /// of `(q, p, seed)` and what `stats` reports, nothing else: a variant
    /// of the algorithm is a statistics view (the grid ablation hides from
    /// S2 the values S1 finds heavy, so every H12 value is planned as H1).
    pub fn plan_with(q: &Query, p: usize, seed: u64, stats: &dyn Stats) -> SkewJoin {
        assert_eq!(q.num_atoms(), 2, "skew join handles exactly two relations");
        let shared: VarSet = q.atom(0).var_set().intersect(q.atom(1).var_set());
        assert!(!shared.is_empty(), "the two atoms must share variables");

        let simple = stats.simple();
        let heavy =
            [0, 1].map(|j| HeavyHitters::of(q, stats, simple.cardinalities[j], j, shared, p));
        // Eq. (10) is stated in tuples; convert with the widest tuple so
        // the prediction stays an upper shape.
        let width = q.max_arity() as f64 * simple.value_bits as f64;
        let predicted_load_bits = skew_join_bound(&heavy[0], &heavy[1]).max_tuples() * width;

        let shared_cols = [heavy[0].cols.clone(), heavy[1].cols.clone()];
        let private_cols = [0, 1].map(|j| {
            (0..q.atom(j).arity())
                .filter(|c| !shared_cols[j].contains(c))
                .collect::<Vec<_>>()
        });

        // Classify heavy hitters by membership in the two heavy sets.
        let mut h12: Vec<(Vec<u64>, f64, f64)> = Vec::new();
        let mut h1: Vec<(Vec<u64>, f64)> = Vec::new();
        let mut h2: Vec<(Vec<u64>, f64)> = Vec::new();
        for (h, &c1) in &heavy[0].entries {
            match heavy[1].frequency(h) {
                Some(c2) => h12.push((h.clone(), c1 as f64, c2 as f64)),
                None => h1.push((h.clone(), c1 as f64)),
            }
        }
        for (h, &c2) in &heavy[1].entries {
            if heavy[0].frequency(h).is_none() {
                h2.push((h.clone(), c2 as f64));
            }
        }
        // Deterministic ordering for reproducible offsets.
        h12.sort_by(|a, b| a.0.cmp(&b.0));
        h1.sort_by(|a, b| a.0.cmp(&b.0));
        h2.sort_by(|a, b| a.0.cmp(&b.0));

        let k12_total: f64 = h12.iter().map(|(_, a, b)| a * b).sum();
        let k1_total: f64 = h1.iter().map(|(_, a)| a).sum();
        let k2_total: f64 = h2.iter().map(|(_, a)| a).sum();

        // The light hash join: one block of `p` cells, keys `0..p`.
        let mut placement = Placement::identity(p);
        let light = Grid::new(vec![p]).subcubes([&[0][..], &[0][..]]);
        placement.push(Arc::new(light), 1);
        let mut shapes: FastMap<[usize; 2], Arc<Subcubes>> = FastMap::default();
        let mut routes = FastMap::default();
        let mut heavy = |h, p1, p2| {
            let shape = shapes.entry([p1, p2]).or_insert_with(|| {
                Arc::new(Grid::new(vec![p1, p2]).subcubes([&[0][..], &[1][..]]))
            });
            let keys = placement.push(Arc::clone(shape), 1).try_into();
            let keys = keys.expect("two atoms");
            routes.insert(h, HeavyRoute { keys, p1, p2 });
        };
        for (h, c1, c2) in h12 {
            let ph = ((p as f64 * c1 * c2 / k12_total).ceil() as usize).max(1);
            let p1 = (((ph as f64 * c1 / c2).sqrt().ceil()) as usize).clamp(1, ph);
            // `p1 * p2 <= ph <= p` keeps every block within `p` cells, so
            // the placement's fold gives each grid cell its own server —
            // the invariant that makes join *derivations* partition across
            // servers (aggregate pushdown counts every derivation exactly
            // once). Rounding the grid down instead of up costs at most a
            // factor 2 in per-cell load.
            let p2 = (ph / p1).max(1);
            heavy(h, p1, p2);
        }
        for (h, c1) in h1 {
            heavy(h, ((p as f64 * c1 / k1_total).ceil() as usize).max(1), 1);
        }
        for (h, c2) in h2 {
            heavy(h, 1, ((p as f64 * c2 / k2_total).ceil() as usize).max(1));
        }

        SkewJoin {
            placement,
            shared_cols,
            private_cols,
            routes,
            predicted_load_bits,
            key_light: mix64(seed, 0x2722_0A95_FE4D_BA1B),
            key_private: [
                mix64(seed, 0x5851_F42D_4C95_7F2D),
                mix64(seed, 0x1405_7B7E_F767_814F),
            ],
        }
    }

    /// The plan's predicted per-server load in bits: Eq. (10)'s
    /// `max(m1/p, m2/p, L1, L2, L12)` tuples times the widest tuple.
    pub(crate) fn predicted_load_bits(&self) -> f64 {
        self.predicted_load_bits
    }

    /// Number of heavy `z` values handled specially.
    pub(crate) fn num_heavy(&self) -> usize {
        self.routes.len()
    }

    fn hash_private(&self, atom: usize, tuple: &[u64], buckets: usize) -> usize {
        let cols = &self.private_cols[atom];
        bucket(
            cols.iter()
                .fold(self.key_private[atom], |h, &c| mix64(tuple[c], h)),
            buckets,
        )
    }

    /// Execute on `db` with the [`Backend::from_env`] backend.
    pub fn run(&self, db: &Database) -> (Cluster, LoadReport) {
        self.run_on(db, Backend::from_env())
    }

    /// [`SkewJoin::run`] on an explicit execution backend. Results are
    /// bit-identical across backends (`Sequential` and `Threads(n)`).
    pub fn run_on(&self, db: &Database, backend: Backend) -> (Cluster, LoadReport) {
        let cluster = Cluster::run_round_on(db, &self.placement, self, backend);
        let report = cluster.report();
        (cluster, report)
    }
}

/// `h` reduced to one of `buckets`.
fn bucket(h: u64, buckets: usize) -> usize {
    (h % buckets as u64) as usize
}

/// A light tuple's key is its light block's cell, `z`'s hash; a heavy
/// tuple's is its row (S1) or column (S2) of `z`'s grid.
impl Router for SkewJoin {
    fn route(&self, atom: usize, tuple: &[u64], out: &mut Vec<usize>) {
        // The shared-variable key lives on the stack; the route table is
        // probed with the borrowed slice (`Vec<u64>: Borrow<[u64]>`).
        with_projected_key(tuple, &self.shared_cols[atom], |z| {
            out.push(match self.routes.get(z) {
                None => bucket(
                    z.iter().fold(self.key_light, |h, &v| mix64(v, h)),
                    self.placement.p(),
                ),
                Some(r) => r.keys[atom] + self.hash_private(atom, tuple, [r.p1, r.p2][atom]),
            })
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::baselines::HashJoinRouter;
    use crate::verify::assert_complete;
    use mpc_data::{generators, Rng};
    use mpc_query::named;
    use mpc_stats::heavy::heavy_hitters;

    /// `S1(x,z), S2(y,z)` with Zipf(`theta`) degrees on `z` on both sides.
    pub(crate) fn zipf_db(m: usize, theta: f64, seed: u64) -> Database {
        let q = named::two_way_join();
        let n = 1u64 << 14;
        let mut rng = Rng::seed_from_u64(seed);
        let d1 = generators::zipf_degrees(m, n, theta);
        let d2 = generators::zipf_degrees(m, n, theta);
        let s1 = generators::from_degree_sequence("S1", 2, &[1], &d1, n, &mut rng);
        let s2 = generators::from_degree_sequence("S2", 2, &[1], &d2, n, &mut rng);
        Database::new(q, vec![s1, s2], n).unwrap()
    }

    /// `S1(x,z), S2(y,z)`, 2 048 tuples a side: `z = 5` carries half of S1
    /// (and of S2 when `both`), every other `z` one tuple.
    fn planted_db(seed: u64, both: bool) -> Database {
        let (n, m) = (1u64 << 12, 2048usize);
        let mut rng = Rng::seed_from_u64(seed);
        let degrees: Vec<(Vec<u64>, usize)> = std::iter::once((vec![5u64], m / 2))
            .chain((0..(m / 2) as u64).map(|i| (vec![100 + i], 1)))
            .collect();
        let s1 = generators::from_degree_sequence("S1", 2, &[1], &degrees, n, &mut rng);
        let s2 = match both {
            true => generators::from_degree_sequence("S2", 2, &[1], &degrees, n, &mut rng),
            false => generators::matching("S2", 2, m, n, &mut rng),
        };
        Database::new(named::two_way_join(), vec![s1, s2], n).unwrap()
    }

    #[test]
    fn correct_on_skew_free_data() {
        let db = zipf_db(2000, 0.0, 1);
        let sj = SkewJoin::plan(&db, 16, 7);
        assert_eq!(sj.num_heavy(), 0, "uniform data should have no heavy z");
        let (cluster, report) = sj.run(&db);
        assert_complete(&db, &cluster);
        assert!((report.replication_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn correct_on_heavily_skewed_data() {
        for theta in [1.0f64, 1.5] {
            let db = zipf_db(4000, theta, 2);
            let sj = SkewJoin::plan(&db, 16, 8);
            assert!(
                sj.num_heavy() > 0,
                "theta={theta} should plant heavy hitters"
            );
            let (cluster, _) = sj.run(&db);
            assert_complete(&db, &cluster);
        }
    }

    #[test]
    fn one_sided_heavy_hitter_uses_only1_block() {
        let (db, m) = (planted_db(3, false), 2048usize);
        let sj = SkewJoin::plan(&db, 16, 9);
        let route = sj.routes.get(&vec![5u64]).expect("5 is heavy in S1");
        assert!(route.p1 > 1 && route.p2 == 1, "{route:?}");
        let (cluster, report) = sj.run(&db);
        assert_complete(&db, &cluster);
        // The heavy S1 side is partitioned: no server sees all m/2 heavy
        // tuples.
        assert!(
            report.max_load_tuples_for_atom(0) < (m / 2) as u64,
            "heavy side not partitioned: {}",
            report.max_load_tuples_for_atom(0)
        );
    }

    #[test]
    fn both_sided_heavy_uses_grid() {
        let (db, m) = (planted_db(4, true), 2048usize);
        let p = 16usize;
        let sj = SkewJoin::plan(&db, p, 10);
        let HeavyRoute { p1, p2, .. } = sj.routes.get(&vec![5u64]).expect("5 is heavy");
        assert!(*p1 > 1 && *p2 > 1, "expected an H12 grid, got {p1}x{p2}");
        // Symmetric frequencies: a roughly square grid.
        assert!((*p1 as i64 - *p2 as i64).abs() <= 2, "grid {p1}x{p2}");
        let (cluster, report) = sj.run(&db);
        assert_complete(&db, &cluster);
        // Load should be near the bound: L12 = sqrt(m/2 * m/2 / p).
        let bound = ((m / 2) as f64 * (m / 2) as f64 / p as f64).sqrt();
        let measured = report.max_load_tuples() as f64;
        assert!(
            measured <= bound * (p as f64).ln() * 3.0,
            "measured {measured} far above grid bound {bound}"
        );
    }

    #[test]
    fn beats_hash_join_under_skew_and_tracks_eq_10() {
        let p = 16usize;
        let db = zipf_db(6000, 1.2, 5);
        let q = db.query().clone();
        let sj = SkewJoin::plan(&db, p, 11);
        let (c_skew, rep_skew) = sj.run(&db);
        assert_complete(&db, &c_skew);

        let z = q.var_index("z").unwrap();
        let hj = HashJoinRouter::new(&q, VarSet::singleton(z), p, 11);
        let c_hash = Cluster::run_round(&db, p, &hj);
        let rep_hash = c_hash.report();

        assert!(
            rep_skew.max_load_tuples() < rep_hash.max_load_tuples(),
            "skew join {} should beat hash join {}",
            rep_skew.max_load_tuples(),
            rep_hash.max_load_tuples()
        );

        // Eq. (10): measured within polylog of the bound.
        let zs = VarSet::singleton(z);
        let bound = skew_join_bound(&heavy_hitters(&db, 0, zs, p), &heavy_hitters(&db, 1, zs, p));
        let measured = rep_skew.max_load_tuples() as f64;
        let cap = bound.max_tuples() * (p as f64).ln() * 4.0;
        assert!(
            measured <= cap,
            "measured {measured} above Eq.(10) polylog cap {cap} (bound {})",
            bound.max_tuples()
        );
    }

    /// Exact statistics of `S1(x,z), S2(y,z)`, except that S2 hides the
    /// `z` values S1 finds heavy: every H12 value is planned as heavy in S1
    /// only (the grid ablation).
    struct NoGrids<'a>(ExactStats<'a>);

    impl Stats for NoGrids<'_> {
        fn simple(&self) -> mpc_stats::cardinality::SimpleStatistics {
            self.0.simple()
        }

        fn heavy_hitters(
            &self,
            atom: usize,
            cols: &[usize],
            p: usize,
        ) -> Vec<mpc_stats::sketch::FreqEstimate> {
            let mut heavy = self.0.heavy_hitters(atom, cols, p);
            if atom == 1 {
                // `z` sits at the same column in both atoms.
                let in_s1 = self.0.heavy_hitters(0, cols, p);
                heavy.retain(|e| !in_s1.iter().any(|h| h.key == e.key));
            }
            heavy
        }
    }

    #[test]
    fn grid_ablation_is_correct_but_slower() {
        // Without H12 grids the algorithm stays correct but the broadcast
        // side of the H12 value inflates the load.
        let db = planted_db(13, true);
        let p = 16usize;

        let with_grid = SkewJoin::plan(&db, p, 9);
        let (c1, r1) = with_grid.run(&db);
        assert_complete(&db, &c1);

        let without = SkewJoin::plan_with(db.query(), p, 9, &NoGrids(ExactStats::of(&db)));
        let route = without.routes.get(&vec![5u64]).expect("5 is heavy in S1");
        assert_eq!(route.p2, 1, "the H12 value is planned as H1: {route:?}");
        let (c2, r2) = without.run(&db);
        assert_complete(&db, &c2);

        assert!(
            r1.max_load_tuples() < r2.max_load_tuples(),
            "grid {} should beat broadcast fallback {}",
            r1.max_load_tuples(),
            r2.max_load_tuples()
        );
    }

    #[test]
    fn derivations_partition_for_exact_aggregates() {
        // Multiplicity exactness, not just answer completeness: per-server
        // folds summed across the cluster must equal the sequential fold.
        // Small p with an H12 grid is where a wrapped (p1*p2 > p) block
        // would double-count derivations.
        use crate::verify::verify_aggregate;
        use mpc_query::{AggregateOp, AggregateSpec};
        let check = |db: &Database, p: usize, label: &str| {
            let z = db.query().var_index("z").unwrap();
            let x = db.query().var_index("x").unwrap();
            let spec =
                AggregateSpec::new(vec![z], vec![AggregateOp::Count, AggregateOp::Sum(x)]).unwrap();
            let sj = SkewJoin::plan(db, p, 11);
            assert!(sj.num_heavy() > 0, "{label}: no heavy hitters planned");
            let (cluster, _) = sj.run(db);
            let v = verify_aggregate(db, &cluster, &spec);
            assert_eq!(v.got, v.expected, "{label}");
        };
        // Planted H12 value at small p: the grid is forced and the old
        // wrapped (div_ceil) layout would fold two of its cells together.
        for p in [4usize, 7] {
            check(&planted_db(4, true), p, &format!("planted H12, p={p}"));
        }
        for theta in [1.2f64, 1.5] {
            check(&zipf_db(3000, theta, 9), 16, &format!("zipf theta={theta}"));
        }
    }

    #[test]
    fn virtual_block_volume_is_linear_in_p() {
        for theta in [0.8f64, 1.2, 1.8] {
            let db = zipf_db(4000, theta, 6);
            for p in [8usize, 32, 128] {
                let sj = SkewJoin::plan(&db, p, 12);
                let virtual_servers = sj.placement.virtual_servers();
                assert!(
                    virtual_servers <= 6 * p + sj.num_heavy(),
                    "theta={theta} p={p}: {virtual_servers} virtual servers"
                );
            }
        }
    }
}
