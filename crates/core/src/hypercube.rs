//! The HyperCube (HC) algorithm (Section 3.1).
//!
//! Servers form a grid with one dimension per query variable (`p_i` shares
//! for variable `x_i`, `Π p_i <= p`). A tuple `S_j(a_{i1}, ..., a_{ir})`
//! knows its coordinates in the dimensions of its own variables — it hashes
//! each attribute — and is replicated along every other dimension:
//! the subcube `{y : y_{i_m} = h_{i_m}(a_{i_m})}`. Every potential answer
//! `(a_1, ..., a_k)` is then fully known by the server
//! `(h_1(a_1), ..., h_k(a_k))`, so one local join per server finds all
//! answers in a single round.
//!
//! Everything about that destination set except the hashes is fixed by the
//! atom and the shares, so it is compiled when the plan is built: each
//! atom's [`SubcubePlan`] on the grid, and a one-block [`Placement`] of
//! the grid. Routing a tuple is then its hashes: the router emits the
//! tuple's slice on the atom's own dimensions as its one key, and the
//! placement holds that one fragment on every server of the slice's
//! subcube.

use crate::shares::ShareAllocation;
use mpc_data::catalog::Database;
use mpc_query::Query;
use mpc_sim::backend::Backend;
use mpc_sim::cluster::{Cluster, Router};
use mpc_sim::hashing::HashFamily;
use mpc_sim::load::LoadReport;
use mpc_sim::placement::Placement;
use mpc_sim::topology::{Grid, SubcubePlan, Subcubes};
use mpc_stats::cardinality::SimpleStatistics;
use std::sync::Arc;

/// A configured HyperCube run: query + grid + hash family.
///
/// ```
/// use mpc_core::hypercube::HyperCube;
/// use mpc_core::verify;
/// use mpc_data::{generators, Database, Rng};
/// use mpc_query::named;
/// use mpc_stats::SimpleStatistics;
///
/// // Triangles over three uniform relations, 16 servers.
/// let q = named::cycle(3);
/// let mut rng = Rng::seed_from_u64(1);
/// let rels = q.atoms().iter()
///     .map(|a| generators::uniform(a.name(), a.arity(), 500, 64, &mut rng))
///     .collect();
/// let db = Database::new(q.clone(), rels, 64).unwrap();
/// let stats = SimpleStatistics::of(&db);
///
/// let hc = HyperCube::with_optimal_shares(&q, &stats, 16, 42);
/// let (cluster, report) = hc.run(&db);
/// assert!(verify::verify(&db, &cluster).is_complete());
/// assert!(report.max_load_bits() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct HyperCube {
    query: Query,
    grid: Grid,
    family: HashFamily,
    /// Every atom's subcube plan on the grid.
    shape: Arc<Subcubes>,
    /// The grid as one block on `p` servers (it may use fewer cells).
    pub(crate) placement: Placement,
}

impl HyperCube {
    /// Build from an explicit share allocation. Hash functions are drawn
    /// deterministically from `seed`.
    pub fn new(query: &Query, alloc: &ShareAllocation, seed: u64) -> HyperCube {
        assert_eq!(alloc.shares.len(), query.num_vars());
        let grid = Grid::new(alloc.shares.clone());
        assert!(
            grid.num_cells() <= alloc.p,
            "share product exceeds server budget"
        );
        let shape = Arc::new(grid.subcubes(query.atoms().iter().map(|a| a.vars())));
        let mut placement = Placement::identity(alloc.p);
        placement.push(Arc::clone(&shape), 1);
        HyperCube {
            query: query.clone(),
            grid,
            family: HashFamily::new(query.num_vars(), seed),
            shape,
            placement,
        }
    }

    /// LP-optimal shares for the statistics (Theorem 3.4).
    pub fn with_optimal_shares(
        query: &Query,
        stats: &SimpleStatistics,
        p: usize,
        seed: u64,
    ) -> HyperCube {
        let alloc =
            ShareAllocation::optimize(query, stats, p).expect("share LP is always feasible");
        HyperCube::new(query, &alloc, seed)
    }

    /// Equal shares `p^{1/k}` — the skew-resilient configuration of
    /// Corollary 3.2(ii).
    pub fn with_equal_shares(query: &Query, p: usize, seed: u64) -> HyperCube {
        HyperCube::new(query, &ShareAllocation::equal(query, p), seed)
    }

    /// The underlying grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Replication factor of atom `j`: the number of servers each of its
    /// tuples is sent to (`Π_{i ∉ S_j} p_i`).
    pub(crate) fn replication_of(&self, atom: usize) -> usize {
        let vars = self.query.atom(atom).var_set();
        self.grid
            .dims()
            .iter()
            .enumerate()
            .filter(|(i, _)| !vars.contains(*i))
            .map(|(_, &d)| d)
            .product()
    }

    /// Execute the round on `db` with the [`Backend::from_env`] backend;
    /// returns the cluster state and its load report.
    pub fn run(&self, db: &Database) -> (Cluster, LoadReport) {
        self.run_on(db, Backend::from_env())
    }

    /// [`HyperCube::run`] on an explicit execution backend. Results are
    /// bit-identical across backends (`Sequential` and `Threads(n)`).
    pub fn run_on(&self, db: &Database, backend: Backend) -> (Cluster, LoadReport) {
        let cluster = Cluster::run_round_on(db, &self.placement, self, backend);
        let report = cluster.report();
        (cluster, report)
    }

    /// Corollary 3.2(ii): the *unconditional* load cap, valid on any
    /// *set* instance (the paper's model: relations are subsets of
    /// `[n]^{a_j}`, so duplicate tuples — which no algorithm could split —
    /// do not occur): `Σ_j M_j / min_{i ∈ S_j} p_i` bits. A worst-case
    /// instance pins an entire relation into one slice of its
    /// least-sharded dimension, and nothing can be worse.
    pub fn worst_case_load_bits(&self, stats: &SimpleStatistics) -> f64 {
        (0..self.query.num_atoms())
            .map(|j| {
                let min_share = self
                    .query
                    .atom(j)
                    .var_set()
                    .iter()
                    .map(|i| self.grid.dims()[i])
                    .min()
                    .unwrap_or(1)
                    .max(1);
                stats.bit_sizes_f64()[j] / min_share as f64
            })
            .sum() // every relation can concentrate simultaneously
    }
}

/// The slice of `tuple` on an atom's subcube plan: its attributes hashed
/// by the variables' hash functions. `None` when a repeated variable's
/// occurrences hash apart — such a tuple can never satisfy the atom and is
/// dropped. The check is on the hashes, not the values: unequal values
/// that collide keep being routed.
#[inline]
pub(crate) fn slice_of(plan: SubcubePlan<'_>, family: &HashFamily, tuple: &[u64]) -> Option<usize> {
    plan.slice(|pos, var, size| family.hash(var, tuple[pos], size))
}

/// A tuple's key is its slice; the placement holds it on the slice's
/// subcube.
impl Router for HyperCube {
    fn route(&self, atom: usize, tuple: &[u64], out: &mut Vec<usize>) {
        out.extend(slice_of(self.shape.get(atom), &self.family, tuple));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::assert_complete;
    use mpc_data::{generators, Rng};
    use mpc_query::named;

    fn uniform_db(q: &Query, m: usize, n: u64, seed: u64) -> Database {
        let mut rng = Rng::seed_from_u64(seed);
        let rels = q
            .atoms()
            .iter()
            .map(|a| generators::uniform(a.name(), a.arity(), m, n, &mut rng))
            .collect();
        Database::new(q.clone(), rels, n).unwrap()
    }

    #[test]
    fn triangle_hc_finds_all_answers() {
        let q = named::cycle(3);
        let db = uniform_db(&q, 3000, 64, 1); // dense: plenty of triangles
        let st = SimpleStatistics::of(&db);
        let hc = HyperCube::with_optimal_shares(&q, &st, 64, 42);
        let (cluster, report) = hc.run(&db);
        assert_complete(&db, &cluster);
        assert!(report.max_load_bits() > 0);
    }

    #[test]
    fn join_hc_optimal_equals_hash_join_shape() {
        // Skew-free join: optimal shares are (1, p, 1) on (x, z, y); the
        // algorithm degenerates to a hash join with zero replication.
        let q = named::two_way_join();
        let db = uniform_db(&q, 2000, 1 << 14, 2);
        let st = SimpleStatistics::of(&db);
        let hc = HyperCube::with_optimal_shares(&q, &st, 16, 7);
        let z = q.var_index("z").unwrap();
        assert_eq!(hc.grid().dims()[z], 16);
        let (cluster, report) = hc.run(&db);
        assert_complete(&db, &cluster);
        assert!((report.replication_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cartesian_grid_replication() {
        // 2-way product on a 4x4 grid: each S1 tuple to 4 servers, each S2
        // tuple to 4 servers; replication rate ~4 on equal sizes.
        let q = named::cartesian(2);
        let db = uniform_db(&q, 1000, 1 << 12, 3);
        let st = SimpleStatistics::of(&db);
        let hc = HyperCube::with_optimal_shares(&q, &st, 16, 9);
        assert_eq!(hc.grid().dims(), &[4, 4]);
        assert_eq!(hc.replication_of(0), 4);
        assert_eq!(hc.replication_of(1), 4);
        let (cluster, report) = hc.run(&db);
        assert_complete(&db, &cluster);
        assert!((report.replication_rate() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn skew_free_load_tracks_lupper() {
        // Theorem 3.4: on skew-free data the max load is within a polylog
        // factor of p^λ. Use matchings (the extreme skew-free case).
        let q = named::cycle(3);
        let n = 1u64 << 16;
        let m = 1 << 13;
        let mut rng = Rng::seed_from_u64(4);
        let rels = q
            .atoms()
            .iter()
            .map(|a| generators::matching(a.name(), a.arity(), m, n, &mut rng))
            .collect();
        let db = Database::new(q.clone(), rels, n).unwrap();
        let st = SimpleStatistics::of(&db);
        let p = 64usize;
        let hc = HyperCube::with_optimal_shares(&q, &st, p, 5);
        let (_, report) = hc.run(&db);
        let lupper = ShareAllocation::optimize(&q, &st, p)
            .unwrap()
            .predicted_load_bits();
        let measured = report.max_load_bits() as f64;
        // Within [0.3, polylog] of the prediction.
        assert!(measured >= 0.3 * lupper, "measured {measured} << {lupper}");
        assert!(
            measured <= lupper * (p as f64).ln().powi(2),
            "measured {measured} >> {lupper}"
        );
    }

    #[test]
    fn equal_shares_resilient_to_skew() {
        // Example 3.3: all z equal. Hash-join shares (1,p,1) overload one
        // server with everything; equal shares cap at ~m/p^{1/3} per
        // relation.
        let q = named::two_way_join();
        let n = 1u64 << 12;
        let m = 4096usize;
        let mut rng = Rng::seed_from_u64(6);
        let s1 = generators::single_value_column("S1", 2, m, n, 1, 7, &mut rng);
        let s2 = generators::single_value_column("S2", 2, m, n, 1, 7, &mut rng);
        let db = Database::new(q.clone(), vec![s1, s2], n).unwrap();
        let p = 64usize;

        let equal = HyperCube::with_equal_shares(&q, p, 8);
        let (_, rep_eq) = equal.run(&db);
        let mut hj_shares = vec![1usize; 3];
        hj_shares[q.var_index("z").unwrap()] = p;
        let hj = HyperCube::new(&q, &ShareAllocation::explicit(hj_shares, p), 8);
        let (_, rep_hj) = hj.run(&db);

        // Hash join: one server receives both entire relations.
        assert_eq!(rep_hj.max_load_tuples(), 2 * m as u64);
        // Equal shares: max load around 2m/p^{1/3} = 2m/4, far below 2m.
        assert!(
            rep_eq.max_load_tuples() < rep_hj.max_load_tuples() / 2,
            "equal {} vs hash-join {}",
            rep_eq.max_load_tuples(),
            rep_hj.max_load_tuples()
        );
        let cap = 3.0 * 2.0 * m as f64 / (p as f64).powf(1.0 / 3.0);
        assert!(
            (rep_eq.max_load_tuples() as f64) <= cap,
            "equal-share load {} above resilience cap {cap}",
            rep_eq.max_load_tuples()
        );
    }

    /// Routing as Section 3.1 states it, independent of the compiled
    /// routes: hash every attribute, then enumerate the subcube.
    fn reference_route(hc: &HyperCube, atom: usize, tuple: &[u64]) -> Vec<usize> {
        let fixed: Vec<(usize, usize)> = (hc.query.atom(atom).vars().iter().enumerate())
            .map(|(pos, &var)| (var, hc.family.hash(var, tuple[pos], hc.grid.dims()[var])))
            .collect();
        hc.grid.subcube_vec(&fixed)
    }

    #[test]
    fn compiled_routes_match_the_reference() {
        // An arity-3 atom with a repeated variable; a grid using fewer
        // cells than p; a dimension of size 1; a broadcast atom.
        for (text, shares, p) in [
            ("R(x,y,x), S(y,z)", vec![3, 2, 2], 12),
            ("R(x,y,x), S(y,x)", vec![3, 3], 10),
            ("R(x,y,x), S(y,z), T(z)", vec![4, 1, 3], 16),
            ("S1(x,y), S2(y,z), S3(z,w)", vec![8, 1, 8, 1], 64),
        ] {
            let q = mpc_query::parse_query(text).unwrap();
            // A small domain, so repeated-variable tuples both agree and
            // disagree, and disagreeing values sometimes hash together.
            let db = uniform_db(&q, 400, 6, 11);
            let hc = HyperCube::new(&q, &ShareAllocation::explicit(shares, p), 5);
            let (mut out, mut dests, mut dropped) = (Vec::new(), Vec::new(), 0);
            for (j, rel) in db.relations().iter().enumerate() {
                let slices = hc.grid.num_cells() / hc.replication_of(j);
                assert_eq!(hc.placement.keys(j), slices, "{text}");
                for row in rel.rows() {
                    out.clear();
                    dests.clear();
                    hc.route(j, row, &mut out);
                    assert!(out.len() <= 1, "{text}: one key per tuple");
                    for &key in &out {
                        let (block, servers) = hc.placement.place(j, key);
                        assert_eq!(block, 0, "one block");
                        dests.extend(servers);
                    }
                    assert_eq!(
                        dests,
                        reference_route(&hc, j, row),
                        "{text} atom {j} {row:?}"
                    );
                    dropped += usize::from(out.is_empty());
                }
            }
            assert_eq!(
                dropped > 0,
                text.contains("R(x,y,x)"),
                "{text}: tuples are dropped iff a repeated variable disagrees"
            );
            // Through the cluster: every backend charges what the reference
            // router does, and a server joins its fragments only when it
            // holds one of every atom.
            let reference = |j: usize, row: &[u64], out: &mut Vec<usize>| {
                out.extend(reference_route(&hc, j, row))
            };
            let identity = &Placement::identity(p);
            let want = Cluster::run_round_on(&db, identity, &reference, Backend::Sequential);
            for backend in [Backend::Sequential, Backend::Threads(3)] {
                let (got, report) = hc.run_on(&db, backend);
                assert_eq!(report, want.report(), "{text} on {backend}");
                for s in 0..p {
                    let rels: Vec<&mpc_data::Relation> =
                        (0..q.num_atoms()).map(|j| want.fragment(j, s)).collect();
                    let joined = Vec::from_iter(rels.iter().all(|r| !r.is_empty()).then_some(rels));
                    assert_eq!(got.blocks(s).collect::<Vec<_>>(), joined, "{text}");
                }
                assert_complete(&db, &got);
            }
        }
    }

    #[test]
    fn a_plans_hypercube_arm_holds_each_slice_once() {
        // The triangle at 4x4x4 through `Plan`: one key per slice, 16 per
        // atom, and the report and answers of the explicit destinations
        // on every backend.
        let q = named::cycle(3);
        let db = uniform_db(&q, 5000, 1 << 12, 12);
        let plan = crate::engine::Engine::new(&q).p(64).seed(3).plan(&db);
        assert_eq!(plan.shares(), Some(vec![4, 4, 4]));
        let placement = plan.placement();
        assert!((0..3).all(|j| placement.keys(j) == 16));
        let explicit = |j: usize, row: &[u64], out: &mut Vec<usize>| {
            let mut keys = Vec::new();
            plan.route(j, row, &mut keys);
            out.extend(keys.into_iter().flat_map(|key| placement.place(j, key).1));
        };
        let want = Cluster::run_round(&db, 64, &explicit);
        for backend in [
            Backend::Sequential,
            Backend::Threads(2),
            Backend::Threads(8),
        ] {
            let got = Cluster::run_round_on(&db, placement, &plan, backend);
            assert_eq!(got.report(), want.report(), "{backend}");
            assert_eq!(got.all_answers(&q), want.all_answers(&q), "{backend}");
        }
    }

    #[test]
    fn repeated_variable_tuples_are_dropped() {
        // Atom R(x,x): tuples with row[0] != row[1] reach no server.
        let q = mpc_query::Query::build("q", &[("R", &["x", "x"])]).unwrap();
        let mut rel = mpc_data::Relation::new("R", 2);
        rel.push(&[3, 3]);
        rel.push(&[4, 5]);
        let db = Database::new(q.clone(), vec![rel], 16).unwrap();
        let alloc = ShareAllocation::explicit(vec![4], 4);
        let hc = HyperCube::new(&q, &alloc, 1);
        let (cluster, report) = hc.run(&db);
        assert_eq!(report.total_tuples(), 1);
        let answers = cluster.all_answers(&q);
        assert_eq!(answers, vec![vec![3]]);
    }
}
