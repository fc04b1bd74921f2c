//! Planner-choice differential tests: `Engine::auto` must pick the
//! expected algorithm for each workload shape, and its execution must be
//! bit-identical — answers *and* `LoadReport` — to invoking that algorithm
//! explicitly, on every backend.

use mpc_skew::core::engine::{Algorithm, Engine, Plan};
use mpc_skew::core::hypercube::HyperCube;
use mpc_skew::core::shares::ShareAllocation;
use mpc_skew::core::skew_general::GeneralSkewAlgorithm;
use mpc_skew::core::skew_join::SkewJoin;
use mpc_skew::data::{generators, Database, Relation, Rng};
use mpc_skew::query::named;
use mpc_skew::sim::backend::Backend;
use mpc_skew::stats::SimpleStatistics;

const BACKENDS: [Backend; 3] = [Backend::Sequential, Backend::Pooled(2), Backend::Pooled(4)];

const P: usize = 16;
const SEED: u64 = 11;

/// The planner scenario matrix over the two-way join: each workload with
/// the algorithm `auto` must resolve to.
fn scenarios() -> Vec<(&'static str, Database, Algorithm)> {
    let q = named::two_way_join();
    let n = 1u64 << 10;
    let mut out = Vec::new();

    // Uniform: skew-free, so the LP-optimal HyperCube.
    {
        let mut rng = Rng::seed_from_u64(0xBEEF_0001);
        let s1 = generators::uniform("S1", 2, 2000, n, &mut rng);
        let s2 = generators::uniform("S2", 2, 2000, n, &mut rng);
        out.push((
            "uniform",
            Database::new(q.clone(), vec![s1, s2], n).unwrap(),
            Algorithm::HyperCube,
        ));
    }

    // Zipf(1.2) on z on both sides: heavy hitters on the join variable,
    // two atoms — the §4.1 skew join.
    {
        let mut rng = Rng::seed_from_u64(0xBEEF_0002);
        let d1 = generators::zipf_degrees(1800, n, 1.2);
        let d2 = generators::zipf_degrees(1800, n, 1.2);
        let s1 = generators::from_degree_sequence("S1", 2, &[1], &d1, n, &mut rng);
        let s2 = generators::from_degree_sequence("S2", 2, &[1], &d2, n, &mut rng);
        out.push((
            "zipf",
            Database::new(q.clone(), vec![s1, s2], n).unwrap(),
            Algorithm::SkewJoin,
        ));
    }

    // Single heavy hitter: one z value carries half of S1.
    {
        let n = 1u64 << 12;
        let mut rng = Rng::seed_from_u64(0xBEEF_0003);
        let m = 2048usize;
        let degrees: Vec<(Vec<u64>, usize)> = std::iter::once((vec![9u64], m / 2))
            .chain((0..(m / 2) as u64).map(|i| (vec![100 + (i % 900)], 1)))
            .collect();
        let s1 = generators::from_degree_sequence("S1", 2, &[1], &degrees, n, &mut rng);
        let s2 = generators::matching("S2", 2, m, n, &mut rng);
        out.push((
            "single_heavy_hitter",
            Database::new(q.clone(), vec![s1, s2], n).unwrap(),
            Algorithm::SkewJoin,
        ));
    }

    // Empty relation: no tuples, no heavy hitters — HyperCube.
    {
        let mut rng = Rng::seed_from_u64(0xBEEF_0004);
        let s1 = Relation::new("S1", 2);
        let s2 = generators::uniform("S2", 2, 1500, n, &mut rng);
        out.push((
            "empty_relation",
            Database::new(q.clone(), vec![s1, s2], n).unwrap(),
            Algorithm::HyperCube,
        ));
    }

    out
}

/// Run the explicitly-constructed algorithm `expected` with the same
/// `(p, seed)` the engine used and assert the engine outcome is
/// bit-identical on `backend`.
fn assert_matches_explicit(
    tag: &str,
    db: &Database,
    plan: &Plan,
    expected: Algorithm,
    backend: Backend,
) {
    let q = db.query();
    let (explicit_cluster, explicit_report) = match expected {
        Algorithm::HyperCube => {
            let st = SimpleStatistics::of(db);
            HyperCube::with_optimal_shares(q, &st, P, SEED).run_on(db, backend)
        }
        Algorithm::SkewJoin => SkewJoin::plan(db, P, SEED).run_on(db, backend),
        Algorithm::GeneralSkew => GeneralSkewAlgorithm::plan(db, P, SEED).run_on(db, backend),
        other => panic!("unexpected explicit algorithm {other}"),
    };
    let outcome = plan.execute(db, backend);
    assert_eq!(
        outcome.report(),
        Some(&explicit_report),
        "{tag} [{backend}]: engine LoadReport differs from explicit"
    );
    assert_eq!(
        outcome.answers(),
        &explicit_cluster.all_answers(q),
        "{tag} [{backend}]: engine answers differ from explicit"
    );
}

fn oracle(db: &Database) -> mpc_skew::data::AnswerSet {
    let mut ans = mpc_skew::data::Join::of(db).answers().unwrap();
    ans.sort_dedup();
    ans
}

#[test]
fn auto_picks_the_expected_plan_and_matches_explicit_execution() {
    for (name, db, expected) in scenarios() {
        let engine = Engine::new(db.query()).p(P).seed(SEED);
        let plan = engine.plan(&db);
        assert_eq!(
            plan.algorithm(),
            expected,
            "{name}: auto picked {} instead of {expected}",
            plan.algorithm()
        );
        assert!(
            plan.predicted_load_bits() >= 0.0 && plan.predicted_load_bits().is_finite(),
            "{name}: predicted load must be finite"
        );
        let expected_answers = oracle(&db);
        for backend in BACKENDS {
            assert_matches_explicit(name, &db, &plan, expected, backend);
            let outcome = plan.execute(&db, backend);
            assert_eq!(
                outcome.answers(),
                &expected_answers,
                "{name} [{backend}]: oracle mismatch"
            );
        }
    }
}

#[test]
fn auto_picks_general_skew_on_skewed_triangle() {
    // Beyond two atoms, skew must route to the §4.2 general algorithm.
    let q = named::cycle(3);
    let n = 1u64 << 7;
    let mut rng = Rng::seed_from_u64(0xBEEF_0005);
    let d = generators::zipf_degrees(1500, n, 1.0);
    let mut rels = vec![generators::from_degree_sequence(
        "S1",
        2,
        &[1],
        &d,
        n,
        &mut rng,
    )];
    for a in ["S2", "S3"] {
        rels.push(generators::uniform(a, 2, 1500, n, &mut rng));
    }
    let db = Database::new(q.clone(), rels, n).unwrap();
    let plan = Engine::new(&q).p(P).seed(SEED).plan(&db);
    assert_eq!(plan.algorithm(), Algorithm::GeneralSkew);
    for backend in BACKENDS {
        assert_matches_explicit("triangle_zipf", &db, &plan, Algorithm::GeneralSkew, backend);
    }
}

#[test]
fn predicted_load_is_reported_next_to_measured() {
    // The acceptance shape: every plan carries its predicted L(u, M, p)
    // and the outcome pairs it with the measured LoadReport.
    for (name, db, _) in scenarios() {
        let plan = Engine::new(db.query()).p(P).seed(SEED).plan(&db);
        let outcome = plan.execute(&db, Backend::Sequential);
        assert_eq!(outcome.predicted_load_bits(), plan.predicted_load_bits());
        assert_eq!(outcome.lower_bound_bits(), plan.lower_bound_bits());
        let report = outcome.report().expect("one-round plan");
        assert_eq!(report.max_load_bits(), outcome.max_load_bits(), "{name}");
        // The prediction is a real number of bits on non-empty inputs.
        if db.relations().iter().all(|r| !r.is_empty()) {
            assert!(
                plan.predicted_load_bits() > 0.0,
                "{name}: predicted load is zero"
            );
            assert!(plan.lower_bound_bits() > 0.0, "{name}: lower bound is zero");
        }
    }
}

#[test]
fn every_explicit_algorithm_is_backend_invariant_through_the_engine() {
    // The engine surface itself must be deterministic across executors
    // for every algorithm, not just the auto picks.
    let (_, db, _) = scenarios().remove(1); // zipf
    for algo in Algorithm::all() {
        let plan = Engine::new(db.query())
            .p(8)
            .seed(3)
            .algorithm(algo)
            .plan(&db);
        let baseline = plan.execute(&db, Backend::Sequential);
        for backend in [Backend::Pooled(2), Backend::Pooled(4)] {
            let outcome = plan.execute(&db, backend);
            assert_eq!(
                outcome.answers(),
                baseline.answers(),
                "{algo} [{backend}]: answers drifted"
            );
            assert_eq!(
                outcome.report(),
                baseline.report(),
                "{algo} [{backend}]: LoadReport drifted"
            );
            assert_eq!(outcome.max_load_bits(), baseline.max_load_bits());
        }
    }
}

#[test]
fn planned_chain3_shares_never_load_more_than_the_other_lambda_optimal_vertex() {
    // The 3-chain's share LP has two λ-optimal vertices at p = 64:
    // [8,1,8,1] (where Bland's rule alone stops; every relation replicated
    // 8×) and [1,8,8,1] (S2 partitioned 64 ways). The planner must land on
    // the one that loads servers less — measured, on uniform and on skewed
    // data — and both must still compute the query.
    //
    // HyperCube is held to the other vertex on the same data and seed. On
    // the skewed inputs Auto resolves to the §4.2 algorithm, whose bin
    // combinations get the same tie-break through LP (11); that it loses
    // to plain HyperCube at θ = 1.1 with either vertex is `engine::choose`'s
    // detection rule, not the shares, so it is held to its own max load
    // before the tie-break (`general_before`, measured at the parent
    // commit on this data and seed).
    let q = named::chain(3);
    let (m, n, p, seed) = (32_768usize, 1u64 << 16, 64usize, 1u64);
    for (theta, general_before) in [(0.0, None), (0.8, Some(534_240)), (1.1, Some(1_219_392))] {
        let mut rng = Rng::seed_from_u64(seed);
        let rels = (q.atoms().iter())
            .map(|a| match theta {
                0.0 => generators::uniform(a.name(), 2, m, n, &mut rng),
                _ => generators::zipf_column(a.name(), 2, m, n, 1, theta, &mut rng),
            })
            .collect();
        let db = Database::new(q.clone(), rels, n).unwrap();
        let expected = oracle(&db);

        let other = ShareAllocation::explicit(vec![8, 1, 8, 1], p);
        let (cluster, other_report) =
            HyperCube::new(&q, &other, seed).run_on(&db, Backend::Sequential);
        assert_eq!(cluster.all_answers(&q), expected, "theta={theta} [8,1,8,1]");

        for algo in [Algorithm::HyperCube, Algorithm::Auto] {
            let plan = Engine::new(&q).p(p).seed(seed).algorithm(algo).plan(&db);
            let outcome = plan.execute(&db, Backend::Sequential);
            assert_eq!(outcome.answers(), &expected, "theta={theta} {algo}");
            let bar = match plan.algorithm() {
                Algorithm::HyperCube => {
                    assert_eq!(plan.shares().unwrap(), [1, 8, 8, 1], "theta={theta} {algo}");
                    other_report.max_load_bits()
                }
                Algorithm::GeneralSkew => general_before.expect("general only under skew"),
                picked => panic!("theta={theta}: auto picked {picked}"),
            };
            assert!(
                outcome.max_load_bits() <= bar,
                "theta={theta} {algo} → {}: max load {} above {bar}",
                plan.algorithm(),
                outcome.max_load_bits(),
            );
        }
    }
}
