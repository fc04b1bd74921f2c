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
//! by the heavy hitters' reported frequencies (their overcount intervals'
//! upper ends; exact from exact statistics) and enforces the same
//! `|C'(B)| <= p` cap. When the cap drops an assignment, the affected
//! tuples fall back to the `B_∅` run (correctness is preserved
//! unconditionally; the load guarantee then degrades gracefully —
//! [`GeneralSkewAlgorithm::dropped_assignments`] reports the count). What
//! reading estimates this way costs is a tested bound, not an assumption:
//! `tests/stats_parity.rs` holds the sketch-planned max load within
//! `SKETCH_LOAD_FACTOR` (1.5) of the exact-planned one at every sketch
//! capacity `>= p`, on a Zipf triangle and 3-chain among other inputs, and
//! shows it exceeded at capacity `p/2`. Lemma 4.2's selection is what
//! would remove the need for capacity `>= p`.
//!
//! Routing is compiled at plan time like plain HyperCube's: every atom's
//! subcube plan on each combination's block grid. Every
//! (combination, assignment) is one block of the plan's [`Placement`],
//! laid out back to back in combination order: a tuple's key in a block
//! is its slice on that grid, and the placement folds the block's cells
//! onto the `p` servers.

use crate::hypercube::slice_of;
use crate::shares::{log_p_sizes, solve_share_lp};
use mpc_data::catalog::Database;
use mpc_data::fastmap::{with_projected_key, FastMap, FastSet};
use mpc_query::{Query, VarSet};
use mpc_sim::backend::Backend;
use mpc_sim::cluster::{Cluster, Router};
use mpc_sim::hashing::HashFamily;
use mpc_sim::load::LoadReport;
use mpc_sim::placement::Placement;
use mpc_sim::topology::{round_shares, Grid, Subcubes};
use mpc_stats::combination::{enumerate_combinations_with, heavy_table, BinChoice, BinCombination};
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
    /// Every atom's subcube plan on this combination's block grid (the
    /// full k-dimensional grid; dimensions of `x` variables have size 1, so
    /// they contribute coordinate 0 and are never hashed). Combinations
    /// with equal grids share one shape.
    shape: Arc<Subcubes>,
    /// The block grid the shape was compiled for (the tests' reference
    /// router enumerates its subcubes directly).
    #[cfg(test)]
    grid: Grid,
    /// Per atom: its key in slice 0 of the first assignment's block;
    /// assignment `a`'s block follows `a` blocks of `slices` keys later.
    keys: Vec<usize>,
    /// Per atom: map from `x_j`-projection to the assignment indices
    /// carrying it (`None` when `x_j = ∅`: all assignments). Probed per
    /// routed tuple, hence `mix64`-keyed.
    lookups: Vec<Option<FastMap<Vec<u64>, Vec<usize>>>>,
    /// Per atom: attribute positions of `x_j`.
    proj_cols: Vec<Vec<usize>>,
}

/// The Section 4.2 algorithm, planned against exact statistics.
pub struct GeneralSkewAlgorithm {
    family: HashFamily,
    /// One block per (combination, assignment), in combination order.
    pub(crate) placement: Placement,
    combos: Vec<PreparedCombo>,
    /// Index (into `combos`) of `B_∅`.
    base: usize,
    /// Per atom: heavy `(cols, key)` projections covered by some kept
    /// assignment of a combination where that atom chose a heavy bin.
    covered_heavy: Vec<FastMap<Vec<usize>, FastSet<Vec<u64>>>>,
    /// Per atom: its heavy sets with any heavy key (for the `B_∅`
    /// exclusion test).
    all_heavy: Vec<Vec<HeavyHitters>>,
    dropped: usize,
}

impl GeneralSkewAlgorithm {
    /// Plan from the data's exact statistics.
    pub fn plan(db: &Database, p: usize, seed: u64) -> GeneralSkewAlgorithm {
        GeneralSkewAlgorithm::plan_with(db.query(), p, seed, &ExactStats::of(db))
    }

    /// Plan `q` for `p` servers from any [`Stats`] source — exact or
    /// sketch-backed — the one way §4.2 plans, with the shape of
    /// [`SkewJoin::plan_with`](crate::skew_join::SkewJoin::plan_with): the
    /// query, the cardinalities and the heavy sets are everything it reads
    /// (no data). One heavy table ([`heavy_table`], over
    /// [`HeavyHitters::of`]), read from the source once per plan, feeds
    /// both the §4.2 bin combinations and the residual-base exclusion
    /// tables, so tuples the source classifies as heavy are either covered
    /// by a heavy combination or stay in `B_∅` — completeness holds under
    /// any (including overcounted) classification; estimate error only
    /// shifts load, within the bound the module docs cite.
    #[allow(clippy::needless_range_loop)]
    pub(crate) fn plan_with(
        q: &Query,
        p: usize,
        seed: u64,
        stats: &dyn Stats,
    ) -> GeneralSkewAlgorithm {
        let simple = stats.simple();
        let mu = log_p_sizes(&simple, p);

        let binned = heavy_table(q, p, stats);
        let raw = enumerate_combinations_with(q, p, &binned);
        let mut combos: Vec<PreparedCombo> = Vec::with_capacity(raw.len());
        let mut shapes: FastMap<Vec<usize>, Arc<Subcubes>> = FastMap::default();
        let mut placement = Placement::identity(p);
        let mut base = usize::MAX;
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
            let (lambda, exponents) = solve_share_lp(q, x, |j| mu[j] - combo.beta[j], budget)
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
            let shape = shapes
                .entry(grid.dims().to_vec())
                .or_insert_with(|| Arc::new(grid.subcubes(q.atoms().iter().map(|a| a.vars()))));
            let shape = Arc::clone(shape);

            // Block layout + per-atom lookups.
            let keys = placement.push(Arc::clone(&shape), combo.assignments.len());

            let xvars: Vec<usize> = x.iter().collect();
            let mut lookups: Vec<Option<FastMap<Vec<u64>, Vec<usize>>>> = Vec::new();
            let mut proj_cols: Vec<Vec<usize>> = Vec::new();
            for j in 0..q.num_atoms() {
                let xj = x.intersect(q.atom(j).var_set());
                let cols = mpc_stats::heavy::columns_for(q, j, xj);
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
                shape,
                #[cfg(test)]
                grid,
                keys,
                lookups,
                proj_cols,
            });
        }
        assert!(base != usize::MAX, "B_∅ always enumerated");

        // The B_∅ exclusion rule reads the SAME heavy table as the
        // combinations above, so the heavy/light split stays internally
        // consistent whatever the estimate error.
        let mut all_heavy: Vec<Vec<HeavyHitters>> = vec![Vec::new(); q.num_atoms()];
        for bh in binned.into_values().filter(|bh| !bh.source.is_empty()) {
            all_heavy[bh.source.atom].push(bh.source);
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
        for (j, heavy) in all_heavy.iter().enumerate() {
            for hh in heavy {
                let covered = covered_heavy[j].get(&hh.cols);
                let uncovered = |key: &&Vec<u64>| covered.is_none_or(|c| !c.contains(*key));
                dropped += hh.entries.keys().filter(uncovered).count();
            }
        }

        GeneralSkewAlgorithm {
            family: HashFamily::new(q.num_vars(), seed),
            placement,
            combos,
            base,
            covered_heavy,
            all_heavy,
            dropped,
        }
    }

    /// `max_B p^{λ(B)}` — the Theorem 4.6 load prediction in bits (up to
    /// polylog factors).
    pub fn predicted_load_bits(&self) -> f64 {
        self.combos
            .iter()
            .map(|c| (self.placement.p().max(2) as f64).powf(c.lambda))
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

    /// True iff every heavy projection of the tuple is covered by a kept
    /// assignment (then the tuple is excluded from `B_∅`; if it has no heavy
    /// projection it belongs to `B_∅`).
    fn tuple_in_base(&self, atom: usize, tuple: &[u64]) -> bool {
        let mut has_heavy = false;
        for hh in &self.all_heavy[atom] {
            // `None`: not heavy at this subset; `Some(uncovered)`: heavy,
            // with coverage by a kept assignment. Keys are projected on the
            // stack and probed as slices.
            let heavy_uncovered = with_projected_key(tuple, &hh.cols, |key| {
                hh.entries.contains_key(key).then(|| {
                    self.covered_heavy[atom]
                        .get(&hh.cols)
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
    /// `assignments`: its slice is the same in every block, so it is hashed
    /// once, and its key in block `a` is `a` blocks of slices later.
    fn route_blocks(
        &self,
        pc: &PreparedCombo,
        assignments: impl Iterator<Item = usize>,
        atom: usize,
        tuple: &[u64],
        out: &mut Vec<usize>,
    ) {
        let plan = pc.shape.get(atom);
        if let Some(slice) = slice_of(plan, &self.family, tuple) {
            let first = pc.keys[atom] + slice;
            out.extend(assignments.map(|a| first + a * plan.slices()));
        }
    }

    /// Execute on `db` with the [`Backend::from_env`] backend.
    pub fn run(&self, db: &Database) -> (Cluster, LoadReport) {
        self.run_on(db, Backend::from_env())
    }

    /// [`GeneralSkewAlgorithm::run`] on an explicit execution backend.
    /// Results are bit-identical across backends (`Sequential` and
    /// `Threads(n)`).
    pub fn run_on(&self, db: &Database, backend: Backend) -> (Cluster, LoadReport) {
        let cluster = Cluster::run_round_on(db, &self.placement, self, backend);
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
                None => {
                    let assignments = 0..pc.combo.assignments.len();
                    self.route_blocks(pc, assignments, atom, tuple, out)
                }
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
    use crate::skew_join::tests::zipf_db;
    use crate::verify::assert_complete;
    use mpc_data::{generators, Rng};
    use mpc_query::named;
    use mpc_stats::cardinality::SimpleStatistics;

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
            let db = zipf_db(3000, theta, 2);
            let alg = GeneralSkewAlgorithm::plan(&db, 16, 5);
            assert_eq!(alg.dropped_assignments(), 0, "theta {theta}");
            let (cluster, _) = alg.run(&db);
            assert_complete(&db, &cluster);
        }
    }

    #[test]
    fn load_tracks_theorem_4_6_prediction() {
        let p = 16usize;
        let db = zipf_db(4000, 1.2, 3);
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
        let db = zipf_db(4000, 1.5, 4);
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
        let (mut out, mut offset) = (Vec::new(), 0);
        for (ci, pc) in alg.combos.iter().enumerate() {
            let assignments: Vec<usize> = if ci == alg.base {
                Vec::from_iter(alg.tuple_in_base(atom, tuple).then_some(0))
            } else {
                match &pc.lookups[atom] {
                    None => (0..pc.combo.assignments.len()).collect(),
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
            let block = pc.grid.num_cells();
            for a in assignments {
                let cells = pc.grid.subcube_vec(&fixed);
                let first = offset + a * block;
                out.extend(cells.iter().map(|&cell| (first + cell) % alg.placement.p()));
            }
            offset += block * pc.combo.assignments.len();
        }
        out
    }

    fn assert_routes_match_reference(db: &Database, p: usize, min_combos: usize) {
        let q = db.query();
        let alg = GeneralSkewAlgorithm::plan(db, p, 17);
        let combos = alg.combination_summary().len();
        assert!(combos >= min_combos, "{q}: only {combos} bin combinations");
        let (mut keys, mut dests) = (Vec::new(), Vec::new());
        for (j, rel) in db.relations().iter().enumerate() {
            for row in rel.rows() {
                keys.clear();
                dests.clear();
                alg.route(j, row, &mut keys);
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys ascend");
                for &key in &keys {
                    dests.extend(alg.placement.place(j, key).1);
                }
                assert_eq!(
                    dests,
                    reference_route(&alg, q, j, row),
                    "{q} atom {j} {row:?}"
                );
            }
        }
        // Through the cluster: every server is charged once per tuple it
        // holds, as when the reference's servers were the keys.
        let reference = |j: usize, row: &[u64], out: &mut Vec<usize>| {
            out.extend(reference_route(&alg, q, j, row))
        };
        let identity = &mpc_sim::placement::Placement::identity(p);
        let want = Cluster::run_round_on(db, identity, &reference, Backend::Sequential);
        for backend in [Backend::Sequential, Backend::Threads(3)] {
            let (got, report) = alg.run_on(db, backend);
            assert_eq!(report, want.report(), "{q} on {backend}");
            assert_eq!(got.all_answers(q), want.all_answers(q), "{q} on {backend}");
            assert_complete(db, &got);
        }
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
        let db = zipf_db(2000, 1.0, 6);
        let alg = GeneralSkewAlgorithm::plan(&db, 16, 13);
        // A tuple with a fresh (never-seen) z value must be in B_∅.
        assert!(alg.tuple_in_base(0, &[1, 16000]));
        // The top zipf value z=0 is heavy and covered, so excluded.
        assert!(!alg.tuple_in_base(0, &[1, 0]));
    }
}
