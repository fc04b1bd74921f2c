//! Cross-crate property tests: the paper's structural identities, checked
//! on randomized queries, statistics and data.

use mpc_skew::core::bounds;
use mpc_skew::core::engine::{Algorithm, Engine, SyntheticStats};
use mpc_skew::core::hypercube::HyperCube;
use mpc_skew::core::shares::ShareAllocation;
use mpc_skew::core::skew_join::SkewJoin;
use mpc_skew::core::verify;
use mpc_skew::data::{generators, Database, Relation, Rng};
use mpc_skew::lp::{Cmp, LinearProgram, Sense};
use mpc_skew::query::{max_packing_value, named, packing_vertices, Query};
use mpc_skew::stats::SimpleStatistics;
use mpc_testkit::prelude::*;

fn query_pool() -> Vec<Query> {
    vec![
        named::two_way_join(),
        named::cycle(3),
        named::chain(2),
        named::chain(3),
        named::star(2),
        named::star(3),
        named::cartesian(2),
        named::cartesian(3),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Theorem 3.6 as a property: for random cardinalities, the LP (5)
    /// optimum equals max_u L(u, M, p) over packing vertices — and that
    /// optimum is the `L_lower` every plan reports, whatever algorithm the
    /// query admits (the planner never enumerates the vertices itself).
    #[test]
    fn lp_equals_closed_form(
        qi in 0usize..8,
        log_cards in mpc_testkit::collection::vec(8u32..24, 4),
        p_exp in 2u32..10,
    ) {
        let q = &query_pool()[qi];
        let p = 1usize << p_exp;
        let cards: Vec<usize> = (0..q.num_atoms())
            .map(|j| 1usize << log_cards[j % log_cards.len()])
            .collect();
        let arities: Vec<usize> = q.atoms().iter().map(|a| a.arity()).collect();
        let st = SimpleStatistics::synthetic(&arities, cards, 1 << 24);
        let alloc = ShareAllocation::optimize(q, &st, p).unwrap();
        let lp_val = alloc.predicted_load_bits();
        let (closed, _) = bounds::l_lower(&packing_vertices(q), &st, p);
        prop_assert!(
            (lp_val - closed).abs() / closed.max(1.0) < 1e-4,
            "{}: LP {lp_val} vs closed {closed}", q.name()
        );
        // Plans read the statistics, never the data: one tuple per relation
        // stands in for the synthetic cardinalities.
        let rels = q.atoms().iter()
            .map(|a| Relation::from_flat(a.name(), a.arity(), vec![0; a.arity()]))
            .collect();
        let db = Database::new(q.clone(), rels, 1 << 24).unwrap();
        let stats = SyntheticStats(st);
        for algo in Algorithm::all() {
            if algo == Algorithm::SkewJoin && !q.is_two_atom_join() {
                continue;
            }
            let plan = Engine::new(q).p(p).algorithm(algo).stats(&stats).plan(&db);
            let lower = plan.lower_bound_bits();
            prop_assert!(
                (lower - closed).abs() / closed.max(1.0) < 1e-4,
                "{} {algo}: plan L_lower {lower} vs closed {closed}", q.name()
            );
        }
    }

    /// Share products never exceed p, across random budgets.
    #[test]
    fn share_budget_never_violated(
        qi in 0usize..8,
        p in 1usize..2000,
        log_m in 10u32..22,
    ) {
        let q = &query_pool()[qi];
        let arities: Vec<usize> = q.atoms().iter().map(|a| a.arity()).collect();
        let st = SimpleStatistics::synthetic(
            &arities, vec![1usize << log_m; q.num_atoms()], 1 << 24);
        let alloc = ShareAllocation::optimize(q, &st, p).unwrap();
        let product: usize = alloc.shares.iter().product();
        prop_assert!(product <= p.max(1));
        prop_assert!(alloc.shares.iter().all(|&s| s >= 1));
    }

    /// HyperCube completeness on random small instances of the join suite.
    #[test]
    fn hypercube_always_complete(
        qi in 0usize..8,
        seed in 0u64..500,
        m in 50usize..220,
        p_exp in 1u32..5,
    ) {
        let q = &query_pool()[qi];
        let n = 64u64;
        let mut rng = Rng::seed_from_u64(seed);
        let rels = q.atoms().iter()
            .map(|a| generators::uniform(a.name(), a.arity(), m, n, &mut rng))
            .collect();
        let db = Database::new(q.clone(), rels, n).unwrap();
        let st = SimpleStatistics::of(&db);
        let p = 1usize << p_exp;
        let hc = HyperCube::with_optimal_shares(q, &st, p, seed ^ 0xF00D);
        let (cluster, report) = hc.run(&db);
        let v = verify::verify(&db, &cluster);
        prop_assert!(v.is_complete(),
            "{} seed={seed} p={p}: {} missing", q.name(), v.missing.len());
        // Load sanity: no server exceeds the whole input.
        prop_assert!(report.max_load_bits() <= db.total_bits());
    }

    /// Skew join completeness on random degree sequences (including heavy
    /// hitters on both sides).
    #[test]
    fn skew_join_always_complete(
        seed in 0u64..300,
        heavy1 in 0usize..400,
        heavy2 in 0usize..400,
        light in 50usize..300,
    ) {
        let q = named::two_way_join();
        let n = 1u64 << 10;
        let mut rng = Rng::seed_from_u64(seed);
        let mk = |name: &str, heavy: usize, rng: &mut Rng| {
            let mut d: Vec<(Vec<u64>, usize)> = Vec::new();
            if heavy > 0 {
                d.push((vec![3], heavy));
            }
            d.extend((0..light).map(|i| (vec![50 + i as u64], 1)));
            generators::from_degree_sequence(name, 2, &[1], &d, n, rng)
        };
        let s1 = mk("S1", heavy1, &mut rng);
        let s2 = mk("S2", heavy2, &mut rng);
        let db = Database::new(q.clone(), vec![s1, s2], n).unwrap();
        for p in [4usize, 16] {
            let sj = SkewJoin::plan(&db, p, seed);
            let (cluster, _) = sj.run(&db);
            let v = verify::verify(&db, &cluster);
            prop_assert!(v.is_complete(),
                "seed={seed} p={p} h1={heavy1} h2={heavy2}: {} missing",
                v.missing.len());
        }
    }

    /// The replication-rate bound is monotone decreasing in the reducer
    /// size L, and at L = ΣM it is at most 1 (one reducer can take it all).
    #[test]
    fn replication_bound_monotone(qi in 0usize..8, log_m in 12u32..20) {
        let q = &query_pool()[qi];
        let arities: Vec<usize> = q.atoms().iter().map(|a| a.arity()).collect();
        let st = SimpleStatistics::synthetic(
            &arities, vec![1usize << log_m; q.num_atoms()], 1 << 24);
        let total = st.total_bits() as f64;
        let vertices = packing_vertices(q);
        let mut last = f64::INFINITY;
        for div in [64.0f64, 16.0, 4.0, 1.0] {
            let r = bounds::replication_rate_bound(&vertices, &st, total / div);
            prop_assert!(r <= last + 1e-9, "{}: bound not monotone", q.name());
            last = r;
        }
        prop_assert!(last <= 1.0 + 1e-9, "{}: r(ΣM) = {last} > 1", q.name());
    }

    /// Corollary 3.2(ii): HyperCube's measured load never exceeds the
    /// unconditional resilience cap `Σ_j M_j / min_{i∈S_j} p_i`, on
    /// *adversarially skewed* data (single-value columns).
    #[test]
    fn hypercube_respects_resilience_cap(
        qi in 0usize..8,
        seed in 0u64..200,
        p_exp in 2u32..7,
    ) {
        let q = &query_pool()[qi];
        let n = 1u64 << 10;
        let m = 512usize;
        let p = 1usize << p_exp;
        let mut rng = Rng::seed_from_u64(seed);
        // Adversarial *set* instances (the paper's model — duplicates would
        // make concentration unavoidable for any algorithm): relations of
        // arity >= 2 concentrate one attribute on a single value with the
        // rest distinct; unary relations are distinct by definition.
        let rels = q.atoms().iter()
            .map(|a| {
                let mut r = if a.arity() >= 2 {
                    generators::single_value_column(
                        a.name(), a.arity(), m, n, 0, 7, &mut rng)
                } else {
                    generators::uniform_set(a.name(), 1, m, n, &mut rng)
                };
                r.sort_dedup();
                r
            })
            .collect();
        let db = Database::new(q.clone(), rels, n).unwrap();
        let st = SimpleStatistics::of(&db);
        let hc = HyperCube::with_equal_shares(q, p, seed ^ 0xBEEF);
        let (_, report) = hc.run(&db);
        let cap = hc.worst_case_load_bits(&st);
        prop_assert!(
            report.max_load_bits() as f64 <= cap * 1.5 + 64.0,
            "{} p={p}: measured {} above Cor 3.2(ii) cap {cap}",
            q.name(), report.max_load_bits()
        );
    }

    /// Friedgut/AGM (Section 2.3): the actual output size never exceeds the
    /// AGM bound computed from the minimum-weight fractional edge cover.
    #[test]
    fn agm_bound_holds_on_random_instances(
        qi in 0usize..8,
        seed in 0u64..200,
        m in 20usize..120,
    ) {
        let q = &query_pool()[qi];
        let n = 32u64;
        let mut rng = Rng::seed_from_u64(seed);
        let rels: Vec<mpc_skew::data::Relation> = q.atoms().iter()
            .map(|a| {
                let mut r = generators::uniform(a.name(), a.arity(), m, n, &mut rng);
                r.sort_dedup(); // AGM is a set bound
                r
            })
            .collect();
        let cards: Vec<usize> = rels.iter().map(|r| r.len()).collect();
        let db = Database::new(q.clone(), rels, n).unwrap();
        let bound = mpc_skew::query::cover::agm_bound(q, &cards).unwrap();
        let actual = mpc_skew::data::Join::of(&db).count().unwrap() as f64;
        prop_assert!(actual <= bound * (1.0 + 1e-9),
            "{}: |q(I)| = {actual} exceeds AGM bound {bound}", q.name());
    }

    /// The space exponent lies in [0, 1) and equals 1 - 1/τ* for equal
    /// sizes.
    #[test]
    fn space_exponent_range(qi in 0usize..8, log_m in 12u32..20) {
        let q = &query_pool()[qi];
        let arities: Vec<usize> = q.atoms().iter().map(|a| a.arity()).collect();
        let st = SimpleStatistics::synthetic(
            &arities, vec![1usize << log_m; q.num_atoms()], 1 << 24);
        let vertices = packing_vertices(q);
        let eps = bounds::space_exponent(&vertices, &st, 64);
        prop_assert!((0.0 - 1e-9..1.0).contains(&eps), "{}: eps = {eps}", q.name());
        let tau = max_packing_value(&vertices).to_f64();
        prop_assert!((eps - (1.0 - 1.0 / tau)).abs() < 1e-6,
            "{}: eps {eps} vs 1 - 1/tau* {}", q.name(), 1.0 - 1.0 / tau);
    }
}

/// LP (5) exactly as the paper states it — `min λ` and nothing else — built
/// here independently of the planner: the reference the tie-break is held to.
fn single_objective_lp5(q: &Query, st: &SimpleStatistics, p: usize) -> (f64, Vec<f64>) {
    let logp = (p as f64).ln();
    let mut lp = LinearProgram::new(Sense::Minimize);
    let lambda = lp.add_var(1.0);
    let e: Vec<usize> = (0..q.num_vars()).map(|_| lp.add_var(0.0)).collect();
    let all: Vec<(usize, f64)> = e.iter().map(|&v| (v, 1.0)).collect();
    lp.add_constraint(&all, Cmp::Le, 1.0);
    for (j, m) in st.bit_sizes_f64().into_iter().enumerate() {
        let mut terms: Vec<(usize, f64)> =
            (q.atom(j).var_set().iter().map(|i| (e[i], 1.0))).collect();
        terms.push((lambda, 1.0));
        lp.add_constraint(&terms, Cmp::Ge, m.max(1.0).ln() / logp);
    }
    let sol = lp.solve().unwrap();
    (sol.objective, e.iter().map(|&v| sol.x[v]).collect())
}

/// `Σ_j Σ_{i ∈ S_j} e_i`: log_p of how many ways the atoms are partitioned
/// in total — what the share LP's tie-break maximizes.
fn partition_exponent(q: &Query, e: &[f64]) -> f64 {
    (0..q.num_atoms())
        .flat_map(|j| q.atom(j).var_set().iter())
        .map(|i| e[i])
        .sum()
}

/// The tie-break is a tie-break: `λ` is still the LP (5) optimum (so
/// Theorem 3.6 and every reported bound are untouched), and the vertex it
/// lands on partitions at least as much as the one `min λ` alone stops on.
#[test]
fn share_tie_break_keeps_lambda_and_never_replicates_more() {
    let queries = [
        named::two_way_join(),
        named::chain(3),
        named::chain(4),
        named::chain(5),
        named::cycle(3),
        named::cycle(4),
        named::cycle(5),
        named::star(3),
        named::cartesian(3),
        named::loomis_whitney(3),
    ];
    // The vectors of `theorem_3_6_holds_across_queries_and_cardinalities`,
    // cycled over however many atoms the query has.
    let log_cards: [&[u32]; 7] = [
        &[16, 16, 16],
        &[20, 12, 12],
        &[18, 16, 10],
        &[14, 18, 14],
        &[16, 14, 12],
        &[18, 12],
        &[12, 14, 16],
    ];
    let mut moved = 0;
    for q in &queries {
        let arities: Vec<usize> = q.atoms().iter().map(|a| a.arity()).collect();
        for logs in log_cards {
            let cards = (0..q.num_atoms())
                .map(|j| 1usize << logs[j % logs.len()])
                .collect();
            let st = SimpleStatistics::synthetic(&arities, cards, 1 << 20);
            for p in [2usize, 3, 8, 60, 64, 512] {
                let alloc = ShareAllocation::optimize(q, &st, p).unwrap();
                let (lambda, e) = single_objective_lp5(q, &st, p);
                let ctx = format!("{} logs={logs:?} p={p}", q.name());
                assert!(
                    (alloc.lambda - lambda).abs() <= 1e-12,
                    "{ctx}: λ {} vs LP (5) {lambda}",
                    alloc.lambda
                );
                let (got, reference) = (
                    partition_exponent(q, &alloc.exponents),
                    partition_exponent(q, &e),
                );
                assert!(got >= reference - 1e-9, "{ctx}: {got} < {reference}");
                assert!(alloc.exponents.iter().sum::<f64>() <= 1.0 + 1e-9, "{ctx}");
                moved += usize::from(got > reference + 1e-9);
            }
        }
    }
    assert!(moved > 0, "no case had a tie to break");
}
