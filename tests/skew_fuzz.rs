//! Completeness fuzzing for the skew-handling algorithms: randomized
//! multi-relation, multi-attribute skew patterns must never lose answers.

use mpc_skew::core::engine::{Algorithm, Engine};
use mpc_skew::core::hypercube::HyperCube;
use mpc_skew::core::skew_general::GeneralSkewAlgorithm;
use mpc_skew::core::skew_join::SkewJoin;
use mpc_skew::core::verify;
use mpc_skew::data::{generators, Database, Relation, Rng};
use mpc_skew::query::{named, Query};
use mpc_skew::sim::backend::Backend;
use mpc_testkit::prelude::*;

/// A randomized relation for one atom: a mix of planted heavy values on a
/// random attribute, Zipf noise, and uniform filler.
fn random_skewed_relation(
    name: &str,
    arity: usize,
    m: usize,
    n: u64,
    heavy_frac: f64,
    heavy_col: usize,
    rng: &mut Rng,
) -> Relation {
    let heavy = (m as f64 * heavy_frac) as usize;
    let mut degrees: Vec<(Vec<u64>, usize)> = Vec::new();
    if heavy > 0 {
        degrees.push((vec![rng.below(8)], heavy));
    }
    degrees.extend((0..(m - heavy) as u64).map(|i| (vec![16 + (i % (n - 16))], 1)));
    generators::from_degree_sequence(name, arity, &[heavy_col % arity], &degrees, n, rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The §4.2 general algorithm never loses answers, whatever the skew
    /// pattern, on the query suite.
    #[test]
    fn general_algorithm_completeness_fuzz(
        qi in 0usize..4,
        seed in 0u64..10_000,
        frac0 in 0.0f64..0.6,
        frac1 in 0.0f64..0.6,
        col in 0usize..2,
        p_exp in 2u32..6,
    ) {
        let queries: Vec<Query> = vec![
            named::two_way_join(),
            named::cycle(3),
            named::star(2),
            named::chain(3),
        ];
        let q = &queries[qi];
        let n = 1u64 << 9;
        let m = 600usize;
        let p = 1usize << p_exp;
        let mut rng = Rng::seed_from_u64(seed);
        let rels: Vec<Relation> = q.atoms().iter().enumerate()
            .map(|(j, a)| {
                let frac = match j {
                    0 => frac0,
                    1 => frac1,
                    _ => 0.0,
                };
                random_skewed_relation(a.name(), a.arity(), m, n, frac, col, &mut rng)
            })
            .collect();
        let db = Database::new(q.clone(), rels, n).unwrap();
        let alg = GeneralSkewAlgorithm::plan(&db, p, seed ^ 0xABCD);
        let (cluster, _) = alg.run(&db);
        let v = verify::verify(&db, &cluster);
        prop_assert!(v.is_complete(),
            "{} seed={seed} p={p} frac=({frac0:.2},{frac1:.2}) col={col}: {} missing",
            q.name(), v.missing.len());
    }

    /// The §4.1 skew join never loses answers under randomized two-sided
    /// skew, including when both sides are heavy on the same or different
    /// values.
    #[test]
    fn skew_join_completeness_fuzz(
        seed in 0u64..10_000,
        frac0 in 0.0f64..0.8,
        frac1 in 0.0f64..0.8,
        p_exp in 2u32..7,
    ) {
        let q = named::two_way_join();
        let n = 1u64 << 9;
        let m = 800usize;
        let p = 1usize << p_exp;
        let mut rng = Rng::seed_from_u64(seed);
        let s1 = random_skewed_relation("S1", 2, m, n, frac0, 1, &mut rng);
        let s2 = random_skewed_relation("S2", 2, m, n, frac1, 1, &mut rng);
        let db = Database::new(q.clone(), vec![s1, s2], n).unwrap();
        let sj = SkewJoin::plan(&db, p, seed ^ 0x1234);
        let (cluster, _) = sj.run(&db);
        let v = verify::verify(&db, &cluster);
        prop_assert!(v.is_complete(),
            "seed={seed} p={p} frac=({frac0:.2},{frac1:.2}): {} missing",
            v.missing.len());
    }

    /// Determinism regression guard: for random queries and databases,
    /// answer sets and per-server loads (the whole `LoadReport`) are
    /// invariant under the executor's thread count — `Pooled(t)` is
    /// bit-identical to `Sequential` for both the §4.2 general algorithm and equal-share HyperCube.
    #[test]
    fn thread_count_invariance_fuzz(
        qi in 0usize..4,
        seed in 0u64..10_000,
        frac0 in 0.0f64..0.6,
        col in 0usize..2,
        p_exp in 2u32..6,
        threads in 2usize..9,
    ) {
        let queries: Vec<Query> = vec![
            named::two_way_join(),
            named::cycle(3),
            named::star(2),
            named::chain(3),
        ];
        let q = &queries[qi];
        let n = 1u64 << 9;
        let m = 600usize;
        let p = 1usize << p_exp;
        let mut rng = Rng::seed_from_u64(seed);
        let rels: Vec<Relation> = q.atoms().iter().enumerate()
            .map(|(j, a)| {
                let frac = if j == 0 { frac0 } else { 0.0 };
                random_skewed_relation(a.name(), a.arity(), m, n, frac, col, &mut rng)
            })
            .collect();
        let db = Database::new(q.clone(), rels, n).unwrap();

        let alg = GeneralSkewAlgorithm::plan(&db, p, seed ^ 0x7777);
        let (c_seq, r_seq) = alg.run_on(&db, Backend::Sequential);
        let (c_pool, r_pool) = alg.run_on(&db, Backend::Pooled(threads));
        prop_assert_eq!(&r_seq, &r_pool,
            "{} seed={seed} p={p} threads={threads}: general LoadReport drifted", q.name());
        prop_assert_eq!(c_seq.all_answers(q), c_pool.all_answers(q),
            "{} seed={seed} p={p} threads={threads}: general answers drifted", q.name());

        let hc = HyperCube::with_equal_shares(q, p, seed ^ 0x2222);
        let (h_seq, hr_seq) = hc.run_on(&db, Backend::Sequential);
        let (h_pool, hr_pool) = hc.run_on(&db, Backend::Pooled(threads));
        prop_assert_eq!(&hr_seq, &hr_pool,
            "{} seed={seed} p={p} threads={threads}: HC LoadReport drifted", q.name());
        prop_assert_eq!(h_seq.all_answers(q), h_pool.all_answers(q),
            "{} seed={seed} p={p} threads={threads}: HC answers drifted", q.name());
    }

    /// The engine's auto planner never loses answers and never decides
    /// differently from the statistics: whatever skew pattern it sees, the
    /// plan it picks is complete, bit-identical across executors, and
    /// bit-identical to invoking the resolved algorithm explicitly.
    #[test]
    fn engine_auto_invariance_fuzz(
        qi in 0usize..4,
        seed in 0u64..10_000,
        frac0 in 0.0f64..0.6,
        frac1 in 0.0f64..0.6,
        col in 0usize..2,
        p_exp in 2u32..6,
        threads in 2usize..9,
    ) {
        let queries: Vec<Query> = vec![
            named::two_way_join(),
            named::cycle(3),
            named::star(2),
            named::chain(3),
        ];
        let q = &queries[qi];
        let n = 1u64 << 9;
        let m = 600usize;
        let p = 1usize << p_exp;
        let mut rng = Rng::seed_from_u64(seed);
        let rels: Vec<Relation> = q.atoms().iter().enumerate()
            .map(|(j, a)| {
                let frac = match j {
                    0 => frac0,
                    1 => frac1,
                    _ => 0.0,
                };
                random_skewed_relation(a.name(), a.arity(), m, n, frac, col, &mut rng)
            })
            .collect();
        let db = Database::new(q.clone(), rels, n).unwrap();
        let plan = Engine::new(q).p(p).seed(seed ^ 0x5A5A).plan(&db);
        let outcome = plan.execute(&db, Backend::Sequential);
        let v = outcome.verify(&db);
        prop_assert!(v.is_complete(),
            "{} seed={seed} p={p} plan={}: {} missing",
            q.name(), plan.algorithm(), v.missing.len());

        // Bit-identical to the explicitly constructed algorithm.
        let (c_exp, r_exp) = match plan.algorithm() {
            Algorithm::HyperCube => {
                let st = mpc_skew::stats::SimpleStatistics::of(&db);
                HyperCube::with_optimal_shares(q, &st, p, seed ^ 0x5A5A)
                    .run_on(&db, Backend::Sequential)
            }
            Algorithm::SkewJoin =>
                SkewJoin::plan(&db, p, seed ^ 0x5A5A).run_on(&db, Backend::Sequential),
            Algorithm::GeneralSkew =>
                GeneralSkewAlgorithm::plan(&db, p, seed ^ 0x5A5A)
                    .run_on(&db, Backend::Sequential),
            other => panic!("auto resolved to {other}"),
        };
        prop_assert_eq!(outcome.report(), Some(&r_exp),
            "{} seed={seed} p={p} plan={}: engine LoadReport drifted from explicit",
            q.name(), plan.algorithm());
        prop_assert_eq!(outcome.answers(), &c_exp.all_answers(q),
            "{} seed={seed} p={p}: engine answers drifted from explicit", q.name());

        // Invariant under the executor.
        let backend = Backend::Pooled(threads);
        let par = plan.execute(&db, backend);
        prop_assert_eq!(par.report(), outcome.report(),
            "{} seed={seed} p={p} [{}]: engine LoadReport drifted", q.name(), backend);
        prop_assert_eq!(par.answers(), outcome.answers(),
            "{} seed={seed} p={p} [{}]: engine answers drifted", q.name(), backend);
    }

    /// Join-product-skew workloads (correlated hot values on both sides,
    /// so `|output| ≫ |inputs|`) through the auto-planned engine: the
    /// answer set stays complete and the pushed-down aggregate matches
    /// the sequential oracle fold, bit-identically on every backend.
    #[test]
    fn correlated_skew_aggregate_fuzz(
        kind in 0usize..2,
        seed in 0u64..10_000,
        hot in 1usize..6,
        fanout in 4usize..24,
        theta in 0.6f64..1.4,
        p_exp in 2u32..6,
        threads in 2usize..7,
    ) {
        use mpc_bench::workloads::{correlated_zipf_db, product_skew_db};
        use mpc_skew::core::verify::aggregate_oracle;
        use mpc_skew::query::parse_aggregate_query;

        let (q, spec) =
            parse_aggregate_query("Q(z; count, sum(x)) :- S1(x,z), S2(y,z)").unwrap();
        let spec = spec.unwrap();
        let n = 1u64 << 11;
        let m = 400usize;
        let p = 1usize << p_exp;
        let db = if kind == 0 {
            product_skew_db(&q, m, n, hot, fanout, seed)
        } else {
            correlated_zipf_db(&q, m, n, theta, seed)
        };
        let expected = aggregate_oracle(&db, &spec);

        let plan = Engine::new(&q)
            .p(p)
            .seed(seed ^ 0x0906)
            .aggregate(spec.clone())
            .plan(&db);
        let mut per_backend = Vec::new();
        for backend in [Backend::Sequential, Backend::Pooled(threads)] {
            let outcome = plan.execute(&db, backend);
            let v = outcome.verify(&db);
            prop_assert!(v.is_complete(),
                "kind={kind} seed={seed} p={p} [{}] plan={}: {} answers missing",
                backend, plan.algorithm(), v.missing.len());
            prop_assert_eq!(outcome.aggregate(), Some(&expected),
                "kind={kind} seed={seed} p={p} [{}] plan={}: aggregate drifted from oracle",
                backend, plan.algorithm());
            per_backend.push(outcome.aggregate().cloned().unwrap());
        }
        prop_assert!(per_backend.windows(2).all(|w| w[0] == w[1]),
            "kind={kind} seed={seed} p={p}: aggregate not bit-identical across backends");
    }

    /// The multi-round baseline never loses answers either (it is a
    /// baseline, but a *correct* one).
    #[test]
    fn multi_round_completeness_fuzz(
        qi in 0usize..4,
        seed in 0u64..10_000,
        p_exp in 1u32..5,
    ) {
        let queries: Vec<Query> = vec![
            named::two_way_join(),
            named::cycle(3),
            named::star(2),
            named::chain(3),
        ];
        let q = &queries[qi];
        let n = 1u64 << 8;
        let m = 300usize;
        let p = 1usize << p_exp;
        let mut rng = Rng::seed_from_u64(seed);
        let rels: Vec<Relation> = q.atoms().iter()
            .map(|a| generators::uniform(a.name(), a.arity(), m, n, &mut rng))
            .collect();
        let db = Database::new(q.clone(), rels, n).unwrap();
        let outcome = Engine::new(q).p(p).seed(seed).algorithm(Algorithm::MultiRound).run(&db);
        prop_assert!(outcome.verify(&db).is_complete(),
            "{} seed={seed} p={p}: multi-round lost answers", q.name());
    }
}
