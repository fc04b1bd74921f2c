//! The general skew-aware algorithm of Section 4.2.
//!
//! One HyperCube sub-instance per *bin combination* `B = (x, (β_j)_j)`
//! (Definition 4.1), all packed into a single communication round:
//!
//! * the empty combination `B_∅` runs the plain share-LP HyperCube over all
//!   tuples that contain no heavy hitter (the "all light" run);
//! * every other combination owns `|C'(B)| <= p` assignments `h`; each
//!   assignment gets a block of `p^{1-α}` virtual servers
//!   (`α = log_p |C'(B)|`) running HyperCube on the *residual* variables
//!   `V − x`, with share exponents from the per-combination LP (11) —
//!   LP (5) over the residual variables, built and solved by
//!   [`crate::shares`]'s one share-LP builder:
//!
//!   ```text
//!   minimize λ
//!   s.t. ∀j: λ + Σ_{i ∈ vars(S_j) − x_j} e_i >= µ_j − β_j
//!        Σ_{i ∈ V − x} e_i <= 1 − α
//!        e, λ >= 0
//!   ```
//!
//! A tuple of atom `j` participates in `(B, h)` iff its projection on
//! `x_j` equals `h_j` (atoms with `x_j = ∅` participate in every
//! assignment, exactly like a residual-query input relation). Theorem 4.6:
//! the maximum load is `polylog(p) · max_B p^{λ(B)}`.
//!
//! **Deviation from the paper, documented:** the paper selects `C'(B)` by a
//! non-adaptive overweight recursion (Lemma 4.2) so that only approximate
//! frequencies are needed; this implementation selects assignments directly
//! from the exact statistics it already holds and enforces the same
//! `|C'(B)| <= p` cap. When the cap drops an assignment, the affected
//! tuples fall back to the `B_∅` run (correctness is preserved
//! unconditionally; the load guarantee then degrades gracefully —
//! [`GeneralSkewAlgorithm::dropped_assignments`] reports the count).
//!
//! Routing is compiled at plan time like plain HyperCube's: one route per
//! *(bin combination, atom)* on the combination's block grid, so a tuple's
//! destinations inside a block are its hashes plus the block offset (the
//! per-thread `RouteScratch` and its `thread_local!` are gone).

use crate::hypercube::CompiledRoutes;
use crate::shares::{log_p_sizes, solve_share_lp};
use mpc_data::catalog::Database;
use mpc_data::fastmap::{with_projected_key, FastMap, FastSet};
use mpc_query::VarSet;
use mpc_sim::backend::Backend;
use mpc_sim::cluster::{Cluster, Router};
use mpc_sim::hashing::HashFamily;
use mpc_sim::load::LoadReport;
use mpc_sim::topology::{round_shares, Grid};
use mpc_stats::combination::{enumerate_combinations_with, BinChoice, BinCombination};
use mpc_stats::heavy::HeavyHitters;
use mpc_stats::source::{ExactStats, Stats};
use std::sync::Arc;

/// One prepared bin combination: its LP solution, grid shape, and block
/// layout.
#[derive(Clone, Debug)]
struct PreparedCombo {
    combo: BinCombination,
    /// LP (11) optimum (load exponent).
    lambda: f64,
    /// Every atom's compiled route on this combination's block grid (the
    /// full k-dimensional grid; dimensions of `x` variables have size 1, so
    /// they contribute coordinate 0 and are never hashed). A route depends
    /// on the grid's shape only, so combinations with equal shapes share
    /// one set.
    routes: Arc<CompiledRoutes>,
    /// The block grid the routes were compiled for (the tests' reference
    /// router enumerates its subcubes directly).
    #[cfg(test)]
    grid: Grid,
    /// Virtual-server offset of each assignment's block.
    offsets: Vec<usize>,
    /// Per atom: map from `x_j`-projection to the assignment indices
    /// carrying it (`None` when `x_j = ∅`: all assignments). Probed per
    /// routed tuple, hence `mix64`-keyed.
    lookups: Vec<Option<FastMap<Vec<u64>, Vec<usize>>>>,
    /// Per atom: attribute positions of `x_j`.
    proj_cols: Vec<Vec<usize>>,
}

/// The Section 4.2 algorithm, planned against exact statistics.
pub struct GeneralSkewAlgorithm {
    p: usize,
    family: HashFamily,
    combos: Vec<PreparedCombo>,
    /// Index (into `combos`) of `B_∅`.
    base: usize,
    /// Per atom: heavy `(cols, key)` projections covered by some kept
    /// assignment of a combination where that atom chose a heavy bin.
    covered_heavy: Vec<FastMap<Vec<usize>, FastSet<Vec<u64>>>>,
    /// Per atom: all heavy `(cols, key)` projections (for the `B_∅`
    /// exclusion test).
    all_heavy: Vec<FastMap<Vec<usize>, FastSet<Vec<u64>>>>,
    virtual_servers: usize,
    dropped: usize,
}

impl GeneralSkewAlgorithm {
    /// Plan from the data's exact statistics.
    pub fn plan(db: &Database, p: usize, seed: u64) -> GeneralSkewAlgorithm {
        GeneralSkewAlgorithm::plan_with(db, p, seed, &ExactStats::of(db))
    }

    /// Plan from any [`Stats`] source — exact, sketch- or sample-backed.
    /// One source feeds both the §4.2 bin combinations and the
    /// residual-base exclusion tables, so tuples a given source classifies
    /// as heavy are either covered by a heavy combination or stay in `B_∅`
    /// — completeness holds under any (including overcounted)
    /// classification; estimate error only shifts load.
    #[allow(clippy::needless_range_loop)]
    pub fn plan_with(
        db: &Database,
        p: usize,
        seed: u64,
        stats: &dyn Stats,
    ) -> GeneralSkewAlgorithm {
        let q = db.query().clone();
        let simple = stats.simple();
        let mu = log_p_sizes(&simple, p);

        let raw = enumerate_combinations_with(&q, p, stats);
        let mut combos: Vec<PreparedCombo> = Vec::with_capacity(raw.len());
        let mut compiled: FastMap<Vec<usize>, Arc<CompiledRoutes>> = FastMap::default();
        let mut base = usize::MAX;
        let mut offset = 0usize;
        for combo in raw {
            let x = combo.x;
            // LP (11): LP (5) over `V − x` at `µ_j − β_j` and budget `1 − α`.
            // One server has nothing to divide (the exponent space is
            // degenerate at p = 1, as in `ShareAllocation::optimize`).
            let budget = if p == 1 {
                0.0
            } else {
                (1.0 - combo.alpha(p)).max(0.0)
            };
            let (lambda, exponents) = solve_share_lp(&q, x, |j| mu[j] - combo.beta[j], budget)
                .expect("LP (11) is always feasible");

            // Integer shares for one assignment's block.
            let ph = (p / combo.assignments.len().max(1)).max(1);
            let mut dims = round_shares(ph, &exponents);
            for i in 0..q.num_vars() {
                if x.contains(i) {
                    dims[i] = 1;
                }
            }
            let grid = Grid::new(dims);
            let routes = compiled
                .entry(grid.dims().to_vec())
                .or_insert_with(|| Arc::new(CompiledRoutes::compile(&q, &grid)));
            let routes = Arc::clone(routes);

            // Block layout + per-atom lookups.
            let block = grid.num_cells();
            let offsets: Vec<usize> = (0..combo.assignments.len())
                .map(|a| offset + a * block)
                .collect();
            offset += block * combo.assignments.len();

            let xvars: Vec<usize> = x.iter().collect();
            let mut lookups: Vec<Option<FastMap<Vec<u64>, Vec<usize>>>> = Vec::new();
            let mut proj_cols: Vec<Vec<usize>> = Vec::new();
            for j in 0..q.num_atoms() {
                let xj = x.intersect(q.atom(j).var_set());
                let cols = mpc_stats::heavy::columns_for(&q, j, xj);
                if xj.is_empty() {
                    lookups.push(None);
                    proj_cols.push(cols);
                    continue;
                }
                // Slot positions of x_j's variables within x.
                let slots: Vec<usize> = xj
                    .iter()
                    .map(|v| xvars.iter().position(|&w| w == v).expect("x_j ⊆ x"))
                    .collect();
                let mut map: FastMap<Vec<u64>, Vec<usize>> = FastMap::default();
                for (a, assignment) in combo.assignments.iter().enumerate() {
                    let key: Vec<u64> = slots.iter().map(|&s| assignment.values[s]).collect();
                    map.entry(key).or_default().push(a);
                }
                lookups.push(Some(map));
                proj_cols.push(cols);
            }

            if x.is_empty() {
                base = combos.len();
            }
            combos.push(PreparedCombo {
                combo,
                lambda,
                routes,
                #[cfg(test)]
                grid,
                offsets,
                lookups,
                proj_cols,
            });
        }
        assert!(base != usize::MAX, "B_∅ always enumerated");

        // Heavy-projection tables for the B_∅ exclusion rule — from the
        // SAME source as the combinations above, so the heavy/light split
        // stays internally consistent whatever the estimate error.
        let mut all_heavy: Vec<FastMap<Vec<usize>, FastSet<Vec<u64>>>> =
            vec![FastMap::default(); q.num_atoms()];
        for j in 0..q.num_atoms() {
            for subset in q.atom(j).var_set().subsets() {
                if subset.is_empty() {
                    continue;
                }
                let hh = HeavyHitters::of(&q, stats, simple.cardinalities[j], j, subset, p);
                if hh.entries.is_empty() {
                    continue;
                }
                all_heavy[hh.atom]
                    .entry(hh.cols.clone())
                    .or_default()
                    .extend(hh.entries.keys().cloned());
            }
        }
        let mut covered_heavy: Vec<FastMap<Vec<usize>, FastSet<Vec<u64>>>> =
            vec![FastMap::default(); q.num_atoms()];
        let mut dropped = 0usize;
        for pc in &combos {
            for j in 0..q.num_atoms() {
                if !matches!(pc.combo.bins[j], BinChoice::Heavy(_)) {
                    continue;
                }
                // The atom's keys of the kept assignments are its lookup's.
                if let Some(map) = &pc.lookups[j] {
                    covered_heavy[j]
                        .entry(pc.proj_cols[j].clone())
                        .or_default()
                        .extend(map.keys().cloned());
                }
            }
        }
        // Dropped = heavy projections never covered by a kept assignment of
        // a heavy-choice combination.
        for j in 0..q.num_atoms() {
            for (cols, keys) in &all_heavy[j] {
                let covered = covered_heavy[j].get(cols);
                for key in keys {
                    if covered.is_none_or(|c| !c.contains(key)) {
                        dropped += 1;
                    }
                }
            }
        }

        GeneralSkewAlgorithm {
            p,
            family: HashFamily::new(q.num_vars(), seed),
            combos,
            base,
            covered_heavy,
            all_heavy,
            virtual_servers: offset,
            dropped,
        }
    }

    /// `max_B p^{λ(B)}` — the Theorem 4.6 load prediction in bits (up to
    /// polylog factors).
    pub fn predicted_load_bits(&self) -> f64 {
        self.combos
            .iter()
            .map(|c| (self.p.max(2) as f64).powf(c.lambda))
            .fold(0.0, f64::max)
    }

    /// Per-combination `(x, λ(B), |C'(B)|)` diagnostics.
    pub fn combination_summary(&self) -> Vec<(VarSet, f64, usize)> {
        self.combos
            .iter()
            .map(|c| (c.combo.x, c.lambda, c.combo.assignments.len()))
            .collect()
    }

    /// Heavy projections not covered by any kept assignment (their tuples
    /// fall back to `B_∅`). Zero in every experiment of this repository.
    pub fn dropped_assignments(&self) -> usize {
        self.dropped
    }

    /// Total virtual servers across all blocks (`polylog(p) · p`).
    pub fn virtual_servers(&self) -> usize {
        self.virtual_servers
    }

    fn fold(&self, v: usize) -> usize {
        v % self.p
    }

    /// True iff every heavy projection of the tuple is covered by a kept
    /// assignment (then the tuple is excluded from `B_∅`; if it has no heavy
    /// projection it belongs to `B_∅`).
    fn tuple_in_base(&self, atom: usize, tuple: &[u64]) -> bool {
        let mut has_heavy = false;
        for (cols, keys) in &self.all_heavy[atom] {
            // `None`: not heavy at this subset; `Some(uncovered)`: heavy,
            // with coverage by a kept assignment. Keys are projected on the
            // stack and probed as slices.
            let heavy_uncovered = with_projected_key(tuple, cols, |key| {
                keys.contains(key).then(|| {
                    self.covered_heavy[atom]
                        .get(cols)
                        .is_none_or(|c| !c.contains(key))
                })
            });
            match heavy_uncovered {
                None => {}
                // Heavy but uncovered: this tuple must stay in B_∅.
                Some(true) => return true,
                Some(false) => has_heavy = true,
            }
        }
        !has_heavy
    }

    /// HyperCube routing of a tuple of `atom` inside the blocks of
    /// `assignments`: the block-relative subcube is the same in every
    /// block, so its base is hashed once.
    fn route_blocks(
        &self,
        pc: &PreparedCombo,
        assignments: impl Iterator<Item = usize>,
        atom: usize,
        tuple: &[u64],
        out: &mut Vec<usize>,
    ) {
        let route = pc.routes.atom(atom);
        let Some(base) = route.base(&self.family, tuple) else {
            return;
        };
        for a in assignments {
            let first = pc.offsets[a] + base;
            out.extend(route.offsets.iter().map(|&o| self.fold(first + o as usize)));
        }
    }

    /// Execute on `db` with the [`Backend::from_env`] backend.
    pub fn run(&self, db: &Database) -> (Cluster, LoadReport) {
        self.run_on(db, Backend::from_env())
    }

    /// [`GeneralSkewAlgorithm::run`] on an explicit execution backend.
    /// Results are bit-identical across backends (`Sequential` and the
    /// persistent-pool `Pooled(n)`).
    pub fn run_on(&self, db: &Database, backend: Backend) -> (Cluster, LoadReport) {
        let cluster = Cluster::run_round_on(db, self.p, self, backend);
        let report = cluster.report();
        (cluster, report)
    }
}

impl Router for GeneralSkewAlgorithm {
    fn route(&self, atom: usize, tuple: &[u64], out: &mut Vec<usize>) {
        for (ci, pc) in self.combos.iter().enumerate() {
            if ci == self.base {
                if self.tuple_in_base(atom, tuple) {
                    self.route_blocks(pc, 0..1, atom, tuple, out);
                }
                continue;
            }
            match &pc.lookups[atom] {
                // x_j = ∅: participate in every assignment.
                None => self.route_blocks(pc, 0..pc.offsets.len(), atom, tuple, out),
                Some(map) => {
                    let assignments =
                        with_projected_key(tuple, &pc.proj_cols[atom], |key| map.get(key));
                    if let Some(assignments) = assignments {
                        self.route_blocks(pc, assignments.iter().copied(), atom, tuple, out);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypercube::HyperCube;
    use crate::verify::assert_complete;
    use mpc_data::{generators, Rng};
    use mpc_query::named;
    use mpc_stats::cardinality::SimpleStatistics;

    fn zipf_join(m: usize, theta: f64, seed: u64) -> Database {
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
    fn skew_free_reduces_to_plain_hypercube() {
        let q = named::two_way_join();
        let n = 1u64 << 14;
        let mut rng = Rng::seed_from_u64(1);
        let s1 = generators::matching("S1", 2, 2048, n, &mut rng);
        let s2 = generators::matching("S2", 2, 2048, n, &mut rng);
        let db = Database::new(q, vec![s1, s2], n).unwrap();
        let alg = GeneralSkewAlgorithm::plan(&db, 16, 3);
        assert_eq!(alg.combination_summary().len(), 1, "only B_∅ on matchings");
        assert_eq!(alg.dropped_assignments(), 0);
        let (cluster, report) = alg.run(&db);
        assert_complete(&db, &cluster);
        // Equivalent plain HC for comparison: same ballpark load.
        let st = SimpleStatistics::of(&db);
        let hc = HyperCube::with_optimal_shares(db.query(), &st, 16, 3);
        let (_, hc_rep) = hc.run(&db);
        let ratio = report.max_load_bits() as f64 / hc_rep.max_load_bits() as f64;
        assert!(ratio < 3.0, "general algorithm {ratio}x worse than HC");
    }

    #[test]
    fn correct_under_zipf_skew() {
        for theta in [0.8f64, 1.2] {
            let db = zipf_join(3000, theta, 2);
            let alg = GeneralSkewAlgorithm::plan(&db, 16, 5);
            assert_eq!(alg.dropped_assignments(), 0, "theta {theta}");
            let (cluster, _) = alg.run(&db);
            assert_complete(&db, &cluster);
        }
    }

    #[test]
    fn load_tracks_theorem_4_6_prediction() {
        let p = 16usize;
        let db = zipf_join(4000, 1.2, 3);
        let alg = GeneralSkewAlgorithm::plan(&db, p, 7);
        let (cluster, report) = alg.run(&db);
        assert_complete(&db, &cluster);
        let predicted = alg.predicted_load_bits();
        let measured = report.max_load_bits() as f64;
        let polylog = (p as f64).ln().powi(2) * 8.0;
        assert!(
            measured <= predicted * polylog,
            "measured {measured} >> predicted {predicted} (cap {})",
            predicted * polylog
        );
    }

    #[test]
    fn beats_hash_join_on_skew() {
        let p = 16usize;
        let db = zipf_join(4000, 1.5, 4);
        let q = db.query().clone();
        let alg = GeneralSkewAlgorithm::plan(&db, p, 9);
        let (cluster, rep_gen) = alg.run(&db);
        assert_complete(&db, &cluster);
        let z = q.var_index("z").unwrap();
        let hj = crate::baselines::HashJoinRouter::new(&q, VarSet::singleton(z), p, 9);
        let c_hash = Cluster::run_round(&db, p, &hj);
        assert!(
            rep_gen.max_load_tuples() < c_hash.report().max_load_tuples(),
            "general {} vs hash join {}",
            rep_gen.max_load_tuples(),
            c_hash.report().max_load_tuples()
        );
    }

    #[test]
    fn triangle_with_joint_heavy_pair_is_correct() {
        // Plant a heavy (x1,x2) pair in S1 of the triangle: the combination
        // machinery must pick it up via the {x1,x2} attribute subset.
        let q = named::cycle(3);
        let n = 1u64 << 10;
        let mut rng = Rng::seed_from_u64(5);
        let m = 1024usize;
        let p = 8usize;
        let mut degrees: Vec<(Vec<u64>, usize)> = vec![(vec![3, 4], m / 4)];
        degrees.extend((0..(3 * m / 4) as u64).map(|i| (vec![10 + (i % 500), 600 + (i % 300)], 1)));
        let s1 = generators::from_degree_sequence("S1", 2, &[0, 1], &degrees, n, &mut rng);
        let s2 = generators::uniform("S2", 2, m, n, &mut rng);
        let s3 = generators::uniform("S3", 2, m, n, &mut rng);
        let db = Database::new(q, vec![s1, s2, s3], n).unwrap();
        let alg = GeneralSkewAlgorithm::plan(&db, p, 11);
        // The pair (3,4) is heavy for {x1,x2}; some combination must carry it.
        let has_pair_combo = alg
            .combination_summary()
            .iter()
            .any(|(x, _, cnt)| x.len() == 2 && *cnt >= 1);
        assert!(has_pair_combo, "no pairwise combination found");
        let (cluster, _) = alg.run(&db);
        assert_complete(&db, &cluster);
    }

    /// Routing as Section 4.2 states it, independent of the compiled
    /// routes: per combination pick the tuple's assignments, pin `x`
    /// variables to coordinate 0, hash the rest, enumerate the block's
    /// subcube, and fold the virtual server ids onto `p`.
    fn reference_route(
        alg: &GeneralSkewAlgorithm,
        q: &mpc_query::Query,
        atom: usize,
        tuple: &[u64],
    ) -> Vec<usize> {
        let mut out = Vec::new();
        for (ci, pc) in alg.combos.iter().enumerate() {
            let assignments: Vec<usize> = if ci == alg.base {
                Vec::from_iter(alg.tuple_in_base(atom, tuple).then_some(0))
            } else {
                match &pc.lookups[atom] {
                    None => (0..pc.offsets.len()).collect(),
                    Some(map) => with_projected_key(tuple, &pc.proj_cols[atom], |key| {
                        map.get(key).cloned().unwrap_or_default()
                    }),
                }
            };
            let fixed: Vec<(usize, usize)> = (q.atom(atom).vars().iter().enumerate())
                .map(|(pos, &var)| {
                    let dim = pc.grid.dims()[var];
                    let x = pc.combo.x.contains(var);
                    (
                        var,
                        if x {
                            0
                        } else {
                            alg.family.hash(var, tuple[pos], dim)
                        },
                    )
                })
                .collect();
            for a in assignments {
                let cells = pc.grid.subcube_vec(&fixed);
                out.extend(cells.iter().map(|&cell| (pc.offsets[a] + cell) % alg.p));
            }
        }
        out
    }

    fn assert_routes_match_reference(db: &Database, p: usize, min_combos: usize) {
        let q = db.query();
        let alg = GeneralSkewAlgorithm::plan(db, p, 17);
        let combos = alg.combination_summary().len();
        assert!(combos >= min_combos, "{q}: only {combos} bin combinations");
        let mut out = Vec::new();
        for (j, rel) in db.relations().iter().enumerate() {
            for row in rel.rows() {
                out.clear();
                alg.route(j, row, &mut out);
                assert_eq!(
                    out,
                    reference_route(&alg, q, j, row),
                    "{q} atom {j} {row:?}"
                );
            }
        }
        let reference = |j: usize, row: &[u64], out: &mut Vec<usize>| {
            out.extend(reference_route(&alg, q, j, row))
        };
        let (got, _) = alg.run_on(db, Backend::Sequential);
        let want = Cluster::run_round_on(db, p, &reference, Backend::Sequential);
        for j in 0..q.num_atoms() {
            for s in 0..p {
                assert_eq!(got.fragment(j, s), want.fragment(j, s), "{q}");
            }
        }
        assert_complete(db, &got);
    }

    #[test]
    fn compiled_routes_match_the_reference() {
        let zipf_db = |text: &str, m: usize, n: u64| {
            let q = mpc_query::parse_query(text).unwrap();
            let mut rng = Rng::seed_from_u64(21);
            let rels = (q.atoms().iter())
                .map(|a| generators::zipf_column(a.name(), a.arity(), m, n, 0, 1.1, &mut rng))
                .collect();
            Database::new(q, rels, n).unwrap()
        };
        // `skew_hit`-style triangles: Zipf on column 0 of every atom.
        assert_routes_match_reference(&zipf_db("S1(x,y), S2(y,z), S3(z,x)", 512, 4096), 64, 10);
        // An arity-3 atom with a repeated variable, heavy on x; a small
        // domain so its occurrences both agree and disagree.
        assert_routes_match_reference(&zipf_db("R(x,y,x), S(y,z)", 600, 8), 16, 2);
        // A block grid using fewer cells than p (p = 10 is no power).
        assert_routes_match_reference(&zipf_db("S1(x,z), S2(y,z)", 800, 64), 10, 2);
    }

    #[test]
    fn base_exclusion_keeps_light_tuples() {
        let db = zipf_join(2000, 1.0, 6);
        let alg = GeneralSkewAlgorithm::plan(&db, 16, 13);
        // A tuple with a fresh (never-seen) z value must be in B_∅.
        assert!(alg.tuple_in_base(0, &[1, 16000]));
        // The top zipf value z=0 is heavy and covered, so excluded.
        assert!(!alg.tuple_in_base(0, &[1, 0]));
    }
}
