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
//! atom and the shares, so it is compiled when the plan is built: one
//! route per atom (attribute positions, dimension sizes and strides, the
//! repeated-variable checks, and the offsets of the atom's
//! [`SubcubePlan`]). Routing a tuple is then its hashes plus one `extend`
//! — there is no per-thread routing scratch (`RouteScratch` and its
//! `thread_local!` are gone).

use crate::shares::ShareAllocation;
use mpc_data::catalog::Database;
use mpc_query::Query;
use mpc_sim::backend::Backend;
use mpc_sim::cluster::{Cluster, Router};
use mpc_sim::hashing::HashFamily;
use mpc_sim::load::LoadReport;
use mpc_sim::topology::{Grid, SubcubePlan};
use mpc_stats::cardinality::SimpleStatistics;

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
    /// Physical server count (the grid may use fewer cells).
    p: usize,
    /// One compiled route per atom.
    routes: CompiledRoutes,
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
        let routes = CompiledRoutes::compile(query, &grid);
        HyperCube {
            query: query.clone(),
            grid,
            family: HashFamily::new(query.num_vars(), seed),
            p: alloc.p,
            routes,
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
    pub fn replication_of(&self, atom: usize) -> usize {
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
    /// bit-identical across backends (`Sequential` and the
    /// persistent-pool `Pooled(n)`).
    pub fn run_on(&self, db: &Database, backend: Backend) -> (Cluster, LoadReport) {
        let cluster = Cluster::run_round_on(db, self.p, self, backend);
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

/// The tuple-independent part of routing every atom of a query on one
/// grid, compiled once per plan (per distinct block grid in
/// [`crate::skew_general::GeneralSkewAlgorithm`]). Plans are cached by the
/// hundred, so the atoms share three flat allocations.
#[derive(Clone, Debug)]
pub(crate) struct CompiledRoutes {
    /// Every atom's hashed attributes, concatenated in atom order.
    attrs: Box<[RouteAttr]>,
    /// Every atom's ascending subcube offsets ([`SubcubePlan::offsets`]),
    /// concatenated in atom order.
    offsets: Box<[u32]>,
    /// Per atom: where its run ends in `attrs` and in `offsets`.
    ends: Box<[(u32, u32)]>,
}

/// One attribute that needs hashing. A dimension of size 1 hashes
/// everything to coordinate 0, so its attributes are left out.
#[derive(Clone, Debug)]
struct RouteAttr {
    /// Attribute position in the tuple.
    pos: usize,
    /// Query variable = hash function = grid dimension.
    var: usize,
    /// Size of that dimension.
    dim: usize,
    /// What one step of the coordinate adds to the server id.
    stride: usize,
    /// For a repeated variable: the position of its first occurrence. The
    /// two hashes must agree or the tuple matches no server.
    repeat_of: Option<usize>,
}

/// One atom's compiled route ([`CompiledRoutes::atom`]).
pub(crate) struct AtomRoute<'a> {
    attrs: &'a [RouteAttr],
    /// Ascending offsets from [`AtomRoute::base`] to every destination:
    /// the subcube over the dimensions of the variables the atom lacks.
    pub(crate) offsets: &'a [u32],
}

impl CompiledRoutes {
    /// Compile every atom of `query` for `grid` (one dimension per query
    /// variable). O(cells of the free subcube) ≤ O(p) per atom.
    pub(crate) fn compile(query: &Query, grid: &Grid) -> CompiledRoutes {
        let narrow = |len: usize| u32::try_from(len).expect("fewer than 2^32 compiled offsets");
        let (mut attrs, mut offsets, mut ends) = (Vec::new(), Vec::new(), Vec::new());
        for atom in query.atoms() {
            let vars = atom.vars();
            let plan: SubcubePlan = grid.subcube_plan(vars);
            for (pos, &var) in vars.iter().enumerate() {
                if grid.dims()[var] > 1 {
                    attrs.push(RouteAttr {
                        pos,
                        var,
                        dim: grid.dims()[var],
                        stride: plan.stride(pos),
                        repeat_of: vars[..pos].iter().position(|&v| v == var),
                    });
                }
            }
            offsets.extend_from_slice(plan.offsets());
            ends.push((narrow(attrs.len()), narrow(offsets.len())));
        }
        CompiledRoutes {
            attrs: attrs.into(),
            offsets: offsets.into(),
            ends: ends.into(),
        }
    }

    /// The route of atom `atom`.
    #[inline]
    pub(crate) fn atom(&self, atom: usize) -> AtomRoute<'_> {
        let (attrs_lo, offsets_lo) = match atom {
            0 => (0, 0),
            _ => self.ends[atom - 1],
        };
        let (attrs_hi, offsets_hi) = self.ends[atom];
        AtomRoute {
            attrs: &self.attrs[attrs_lo as usize..attrs_hi as usize],
            offsets: &self.offsets[offsets_lo as usize..offsets_hi as usize],
        }
    }
}

impl AtomRoute<'_> {
    /// The first cell of `tuple`'s subcube, or `None` when a repeated
    /// variable's occurrences hash apart — such a tuple can never satisfy
    /// the atom and is dropped. The check is on the hashes, not the values:
    /// unequal values that collide keep being routed.
    #[inline]
    pub(crate) fn base(&self, family: &HashFamily, tuple: &[u64]) -> Option<usize> {
        let mut base = 0usize;
        for a in self.attrs {
            let hash = |pos: usize| family.hash(a.var, tuple[pos], a.dim);
            let h = hash(a.pos);
            match a.repeat_of {
                None => base += h * a.stride,
                Some(first) if hash(first) != h => return None,
                Some(_) => {}
            }
        }
        Some(base)
    }
}

impl Router for HyperCube {
    fn route(&self, atom: usize, tuple: &[u64], out: &mut Vec<usize>) {
        let route = self.routes.atom(atom);
        if let Some(base) = route.base(&self.family, tuple) {
            out.extend(route.offsets.iter().map(|&o| base + o as usize));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_data::{generators, Rng};
    use mpc_query::named;

    fn verify_complete(db: &Database, cluster: &Cluster) {
        let mut expected = mpc_data::Join::of(db).answers().unwrap();
        expected.sort_dedup();
        assert_eq!(cluster.all_answers(db.query()), expected);
    }

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
        verify_complete(&db, &cluster);
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
        verify_complete(&db, &cluster);
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
        verify_complete(&db, &cluster);
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
            let (mut out, mut dropped) = (Vec::new(), 0);
            for (j, rel) in db.relations().iter().enumerate() {
                for row in rel.rows() {
                    out.clear();
                    hc.route(j, row, &mut out);
                    assert_eq!(out, reference_route(&hc, j, row), "{text} atom {j} {row:?}");
                    assert!(out.windows(2).all(|w| w[0] < w[1]), "not ascending");
                    dropped += usize::from(out.is_empty());
                }
            }
            assert_eq!(
                dropped > 0,
                text.contains("R(x,y,x)"),
                "{text}: tuples are dropped iff a repeated variable disagrees"
            );
            // Through the cluster: same fragments as the reference router.
            let reference = |j: usize, row: &[u64], out: &mut Vec<usize>| {
                out.extend(reference_route(&hc, j, row))
            };
            let (got, _) = hc.run_on(&db, Backend::Sequential);
            let want = Cluster::run_round_on(&db, p, &reference, Backend::Sequential);
            for j in 0..q.num_atoms() {
                for s in 0..p {
                    assert_eq!(got.fragment(j, s), want.fragment(j, s), "{text}");
                }
            }
            verify_complete(&db, &got);
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
