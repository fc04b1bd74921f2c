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
//! Virtual server blocks are laid out sequentially and folded onto the `p`
//! physical servers round-robin; the total block volume is `Θ(p)`, so the
//! folding adds only a constant factor. Every block is at most `p` virtual
//! servers long, so the fold is injective *within* a block: each grid cell
//! owns a distinct physical server and every join derivation materializes
//! on exactly one server — the invariant aggregate pushdown
//! ([`crate::aggregate`]) relies on for exact multiplicities.

use mpc_data::catalog::Database;
use mpc_data::fastmap::{with_projected_key, FastMap};
use mpc_data::mix64;
use mpc_query::VarSet;
use mpc_sim::backend::Backend;
use mpc_sim::cluster::{Cluster, Router};
use mpc_sim::load::LoadReport;

/// How a heavy `z`-value is handled: a `p1 × p2` block of virtual servers
/// at `offset`. S1's tuples hash their private attributes to a row and go
/// to every column of it, S2's hash to a column and go to every row.
/// Heavy on both sides is a true grid; heavy in S1 only is `p_h × 1`
/// (partition S1, broadcast S2's matching tuples), heavy in S2 only is
/// `1 × p_h`.
#[derive(Clone, Debug, PartialEq, Eq)]
struct HeavyRoute {
    offset: usize,
    p1: usize,
    p2: usize,
}

/// Configuration knobs for [`SkewJoin`] (ablations).
#[derive(Clone, Copy, Debug)]
pub struct SkewJoinConfig {
    /// Handle H12 (heavy-both-sides) values with a `p1 × p2` cartesian grid
    /// (the paper's step 2). When false they fall back to the H1 treatment
    /// (`p2 = 1`), whose broadcast side costs `Θ(m2(h))` per server instead of
    /// `Θ(sqrt(m1(h) m2(h) / p_h))`.
    pub use_grids: bool,
}

impl Default for SkewJoinConfig {
    fn default() -> Self {
        SkewJoinConfig { use_grids: true }
    }
}

/// A planned skew join (Section 4.1).
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
/// assert!(sj.num_heavy() >= 1);           // the hot value was classified
/// let (cluster, report) = sj.run(&db);
/// assert!(verify::verify(&db, &cluster).is_complete());
/// // The hot value's tuples were split, not dumped on one server:
/// assert!(report.max_load_tuples() < 512);
/// ```
#[derive(Clone, Debug)]
pub struct SkewJoin {
    p: usize,
    /// Shared-variable attribute positions per atom.
    shared_cols: [Vec<usize>; 2],
    /// Private (non-shared) attribute positions per atom.
    private_cols: [Vec<usize>; 2],
    /// Heavy-hitter route table, probed once per routed tuple with a
    /// stack-projected key (no per-tuple allocation).
    routes: FastMap<Vec<u64>, HeavyRoute>,
    /// Total virtual servers (diagnostics; `Θ(p)`).
    virtual_servers: usize,
    key_light: u64,
    key_private: [u64; 2],
}

impl SkewJoin {
    /// Plan the algorithm from exact statistics of `db` (two-atom query with
    /// a non-empty shared variable set): the shared-variable frequency maps
    /// are scanned from the data and handed to
    /// [`SkewJoin::plan_from_parts`] under the default configuration.
    pub fn plan(db: &Database, p: usize, seed: u64) -> SkewJoin {
        let q = db.query();
        let shared: VarSet = q.atom(0).var_set().intersect(q.atom(1).var_set());
        let f1 = db
            .relation(0)
            .frequencies(&mpc_stats::heavy::columns_for(q, 0, shared));
        let f2 = db
            .relation(1)
            .frequencies(&mpc_stats::heavy::columns_for(q, 1, shared));
        let (m1, m2) = (db.relation(0).len(), db.relation(1).len());
        SkewJoin::plan_from_parts(q, m1, m2, p, seed, SkewJoinConfig::default(), &f1, &f2)
    }

    /// Plan without touching any data at all: query shape, cardinalities,
    /// and shared-variable frequency maps are everything the §4.1
    /// algorithm needs — the statistics surface `mpc_core::engine`'s
    /// planner feeds it, and the entry point for externally estimated
    /// frequencies (e.g. [`mpc_stats::sampling`]) and ablation
    /// configurations. Classification is driven entirely by these maps,
    /// and because both relations consult the same per-value route table,
    /// *any* maps yield a correct (complete) algorithm: estimation error
    /// only shifts load, exactly the robustness the paper's
    /// approximate-frequency assumption relies on.
    #[allow(clippy::too_many_arguments)]
    pub fn plan_from_parts(
        q: &mpc_query::Query,
        m1: usize,
        m2: usize,
        p: usize,
        seed: u64,
        config: SkewJoinConfig,
        f1: &FastMap<Vec<u64>, usize>,
        f2: &FastMap<Vec<u64>, usize>,
    ) -> SkewJoin {
        assert_eq!(q.num_atoms(), 2, "skew join handles exactly two relations");
        let shared: VarSet = q.atom(0).var_set().intersect(q.atom(1).var_set());
        assert!(!shared.is_empty(), "the two atoms must share variables");

        let shared_cols = [
            mpc_stats::heavy::columns_for(q, 0, shared),
            mpc_stats::heavy::columns_for(q, 1, shared),
        ];
        let private_cols = [
            (0..q.atom(0).arity())
                .filter(|c| !shared_cols[0].contains(c))
                .collect::<Vec<_>>(),
            (0..q.atom(1).arity())
                .filter(|c| !shared_cols[1].contains(c))
                .collect::<Vec<_>>(),
        ];

        let t1 = m1 as f64 / p as f64;
        let t2 = m2 as f64 / p as f64;

        // Classify heavy hitters.
        let mut h12: Vec<(Vec<u64>, f64, f64)> = Vec::new();
        let mut h1: Vec<(Vec<u64>, f64)> = Vec::new();
        let mut h2: Vec<(Vec<u64>, f64)> = Vec::new();
        for (h, &c1) in f1 {
            let c1 = c1 as f64;
            let c2 = f2.get(h).copied().unwrap_or(0) as f64;
            if c1 > t1 && c2 > t2 {
                h12.push((h.clone(), c1, c2));
            } else if c1 > t1 {
                h1.push((h.clone(), c1));
            }
        }
        for (h, &c2) in f2 {
            let c2f = c2 as f64;
            if c2f > t2 && f1.get(h).copied().unwrap_or(0) as f64 <= t1 {
                h2.push((h.clone(), c2f));
            }
        }
        // Ablation: without grids, H12 hitters degrade to the H1 treatment
        // (partition S1, broadcast S2's heavy tuples) — the configuration
        // the `ablation_skew` experiment measures to show why the grid exists.
        if !config.use_grids {
            for (h, c1, _c2) in h12.drain(..) {
                h1.push((h, c1));
            }
        }
        // Deterministic ordering for reproducible offsets.
        h12.sort_by(|a, b| a.0.cmp(&b.0));
        h1.sort_by(|a, b| a.0.cmp(&b.0));
        h2.sort_by(|a, b| a.0.cmp(&b.0));

        let k12_total: f64 = h12.iter().map(|(_, a, b)| a * b).sum();
        let k1_total: f64 = h1.iter().map(|(_, a)| a).sum();
        let k2_total: f64 = h2.iter().map(|(_, a)| a).sum();

        let mut routes = FastMap::default();
        let mut offset = p; // virtual block 0 = the light hash join
        for (h, c1, c2) in h12 {
            let ph = ((p as f64 * c1 * c2 / k12_total).ceil() as usize).max(1);
            let p1 = (((ph as f64 * c1 / c2).sqrt().ceil()) as usize).clamp(1, ph);
            // `p1 * p2 <= ph <= p` keeps every block no longer than `p`, so
            // the round-robin fold stays injective within a block and each
            // grid cell owns a distinct physical server — the invariant that
            // makes join *derivations* partition across servers (aggregate
            // pushdown counts every derivation exactly once). Rounding the
            // grid down instead of up costs at most a factor 2 in per-cell
            // load.
            let p2 = (ph / p1).max(1);
            routes.insert(h, HeavyRoute { offset, p1, p2 });
            offset += p1 * p2;
        }
        for (h, c1) in h1 {
            let p1 = ((p as f64 * c1 / k1_total).ceil() as usize).max(1);
            routes.insert(h, HeavyRoute { offset, p1, p2: 1 });
            offset += p1;
        }
        for (h, c2) in h2 {
            let p2 = ((p as f64 * c2 / k2_total).ceil() as usize).max(1);
            routes.insert(h, HeavyRoute { offset, p1: 1, p2 });
            offset += p2;
        }

        SkewJoin {
            p,
            shared_cols,
            private_cols,
            routes,
            virtual_servers: offset,
            key_light: mix64(seed, 0x2722_0A95_FE4D_BA1B),
            key_private: [
                mix64(seed, 0x5851_F42D_4C95_7F2D),
                mix64(seed, 0x1405_7B7E_F767_814F),
            ],
        }
    }

    /// Total virtual servers laid out (`Θ(p)`; diagnostics).
    pub fn virtual_servers(&self) -> usize {
        self.virtual_servers
    }

    /// Number of heavy `z` values handled specially.
    pub fn num_heavy(&self) -> usize {
        self.routes.len()
    }

    fn fold(&self, virtual_id: usize) -> usize {
        virtual_id % self.p
    }

    fn hash_private(&self, atom: usize, tuple: &[u64], buckets: usize) -> usize {
        let mut h = self.key_private[atom];
        for &c in &self.private_cols[atom] {
            h = mix64(tuple[c], h);
        }
        (h % buckets as u64) as usize
    }

    /// Execute on `db` with the [`Backend::from_env`] backend.
    pub fn run(&self, db: &Database) -> (Cluster, LoadReport) {
        self.run_on(db, Backend::from_env())
    }

    /// [`SkewJoin::run`] on an explicit execution backend. Results are
    /// bit-identical across backends (`Sequential` and `Threads(n)`).
    pub fn run_on(&self, db: &Database, backend: Backend) -> (Cluster, LoadReport) {
        let cluster = Cluster::run_round_on(db, self.p, self, backend);
        let report = cluster.report();
        (cluster, report)
    }
}

impl Router for SkewJoin {
    fn route(&self, atom: usize, tuple: &[u64], out: &mut Vec<usize>) {
        // The shared-variable key lives on the stack; the route table is
        // probed with the borrowed slice (`Vec<u64>: Borrow<[u64]>`).
        with_projected_key(tuple, &self.shared_cols[atom], |z| {
            match self.routes.get(z) {
                None => {
                    // Light: hash join on z over the first block.
                    let mut h = self.key_light;
                    for &v in z {
                        h = mix64(v, h);
                    }
                    out.push((h % self.p as u64) as usize);
                }
                Some(HeavyRoute { offset, p1, p2 }) => {
                    if atom == 0 {
                        let row = self.hash_private(0, tuple, *p1);
                        for col in 0..*p2 {
                            out.push(self.fold(offset + row * p2 + col));
                        }
                    } else {
                        let col = self.hash_private(1, tuple, *p2);
                        for row in 0..*p1 {
                            out.push(self.fold(offset + row * p2 + col));
                        }
                    }
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::HashJoinRouter;
    use crate::bounds::skew_join_bound;
    use crate::verify::assert_complete;
    use mpc_data::{generators, Rng};
    use mpc_query::named;

    fn zipf_db(m: usize, theta: f64, seed: u64) -> Database {
        let q = named::two_way_join();
        let n = 1u64 << 14;
        let mut rng = Rng::seed_from_u64(seed);
        let d1 = generators::zipf_degrees(m, n, theta);
        let d2 = generators::zipf_degrees(m, n, theta);
        let s1 = generators::from_degree_sequence("S1", 2, &[1], &d1, n, &mut rng);
        let s2 = generators::from_degree_sequence("S2", 2, &[1], &d2, n, &mut rng);
        Database::new(q, vec![s1, s2], n).unwrap()
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
        let q = named::two_way_join();
        let n = 1u64 << 12;
        let mut rng = Rng::seed_from_u64(3);
        let m = 2048usize;
        let degrees: Vec<(Vec<u64>, usize)> = std::iter::once((vec![5u64], m / 2))
            .chain((0..(m / 2) as u64).map(|i| (vec![100 + i], 1)))
            .collect();
        let s1 = generators::from_degree_sequence("S1", 2, &[1], &degrees, n, &mut rng);
        let s2 = generators::matching("S2", 2, m, n, &mut rng);
        let db = Database::new(q, vec![s1, s2], n).unwrap();
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
        let q = named::two_way_join();
        let n = 1u64 << 12;
        let mut rng = Rng::seed_from_u64(4);
        let m = 2048usize;
        let degrees: Vec<(Vec<u64>, usize)> = std::iter::once((vec![5u64], m / 2))
            .chain((0..(m / 2) as u64).map(|i| (vec![100 + i], 1)))
            .collect();
        let s1 = generators::from_degree_sequence("S1", 2, &[1], &degrees, n, &mut rng);
        let s2 = generators::from_degree_sequence("S2", 2, &[1], &degrees, n, &mut rng);
        let db = Database::new(q, vec![s1, s2], n).unwrap();
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
        let f1 = db.relation(0).frequencies(&[1]);
        let f2 = db.relation(1).frequencies(&[1]);
        let bound = skew_join_bound(db.relation(0).len(), db.relation(1).len(), &f1, &f2, p);
        let measured = rep_skew.max_load_tuples() as f64;
        let cap = bound.max_tuples() * (p as f64).ln() * 4.0;
        assert!(
            measured <= cap,
            "measured {measured} above Eq.(10) polylog cap {cap} (bound {})",
            bound.max_tuples()
        );
    }

    #[test]
    fn sampled_statistics_plan_is_complete_and_near_exact() {
        // Plan from Bernoulli-sampled frequency estimates instead of exact
        // counts: completeness is unconditional, and the load stays close to
        // the exactly-planned load.
        let db = zipf_db(6000, 1.2, 21);
        let p = 16usize;
        let mut rng = mpc_data::Rng::seed_from_u64(77);
        let sf1 = mpc_stats::sampling::sample_heavy_hitters(db.relation(0), &[1], p, &mut rng);
        let sf2 = mpc_stats::sampling::sample_heavy_hitters(db.relation(1), &[1], p, &mut rng);
        let sampled = SkewJoin::plan_from_parts(
            db.query(),
            db.relation(0).len(),
            db.relation(1).len(),
            p,
            5,
            SkewJoinConfig::default(),
            &sf1.estimates,
            &sf2.estimates,
        );
        let (c_s, r_s) = sampled.run(&db);
        assert_complete(&db, &c_s);

        let exact = SkewJoin::plan(&db, p, 5);
        let (_, r_e) = exact.run(&db);
        let ratio = r_s.max_load_tuples() as f64 / r_e.max_load_tuples() as f64;
        assert!(
            ratio < 3.0,
            "sampled plan {}x worse than exact ({} vs {})",
            ratio,
            r_s.max_load_tuples(),
            r_e.max_load_tuples()
        );
    }

    #[test]
    fn grid_ablation_is_correct_but_slower() {
        // Without H12 grids the algorithm stays correct but the broadcast
        // side of the H12 value inflates the load.
        let q = named::two_way_join();
        let n = 1u64 << 12;
        let mut rng = Rng::seed_from_u64(13);
        let m = 2048usize;
        let degrees: Vec<(Vec<u64>, usize)> = std::iter::once((vec![5u64], m / 2))
            .chain((0..(m / 2) as u64).map(|i| (vec![100 + i], 1)))
            .collect();
        let s1 = generators::from_degree_sequence("S1", 2, &[1], &degrees, n, &mut rng);
        let s2 = generators::from_degree_sequence("S2", 2, &[1], &degrees, n, &mut rng);
        let db = Database::new(q, vec![s1, s2], n).unwrap();
        let p = 16usize;

        let with_grid = SkewJoin::plan(&db, p, 9);
        let (c1, r1) = with_grid.run(&db);
        assert_complete(&db, &c1);

        let without = SkewJoin::plan_from_parts(
            db.query(),
            db.relation(0).len(),
            db.relation(1).len(),
            p,
            9,
            SkewJoinConfig { use_grids: false },
            &db.relation(0).frequencies(&[1]),
            &db.relation(1).frequencies(&[1]),
        );
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
        let q = named::two_way_join();
        let n = 1u64 << 12;
        let m = 2048usize;
        for p in [4usize, 7] {
            let mut rng = Rng::seed_from_u64(4);
            let degrees: Vec<(Vec<u64>, usize)> = std::iter::once((vec![5u64], m / 2))
                .chain((0..(m / 2) as u64).map(|i| (vec![100 + i], 1)))
                .collect();
            let s1 = generators::from_degree_sequence("S1", 2, &[1], &degrees, n, &mut rng);
            let s2 = generators::from_degree_sequence("S2", 2, &[1], &degrees, n, &mut rng);
            let db = Database::new(q.clone(), vec![s1, s2], n).unwrap();
            check(&db, p, &format!("planted H12, p={p}"));
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
                assert!(
                    sj.virtual_servers() <= 6 * p + sj.num_heavy(),
                    "theta={theta} p={p}: {} virtual servers",
                    sj.virtual_servers()
                );
            }
        }
    }
}
