//! Cross-backend differential oracle suite.
//!
//! A shared scenario matrix (uniform / Zipf / single heavy hitter / empty
//! relation / all-duplicates) is run through every algorithm (HyperCube
//! LP-optimal and equal-shares, the §4.1 skew join, the §4.2 general
//! algorithm, and the hash-join / fragment-replicate / broadcast
//! baselines), asserting two things for each (scenario, algorithm) cell:
//!
//! 1. **oracle equality** — the distributed answer set equals the
//!    sequential `mpc_data::Join` of the input;
//! 2. **backend determinism** — `Sequential` and the persistent pool at
//!    2, 4 and 8 workers produce identical answer sets *and* identical
//!    [`LoadReport`]s (exact per-server equality), i.e. the parallel
//!    executor is bit-identical to the sequential one.

use mpc_skew::core::baselines::{FragmentReplicateRouter, HashJoinRouter};
use mpc_skew::core::engine::{execute_batch, Algorithm, Engine, Plan};
use mpc_skew::core::hypercube::HyperCube;
use mpc_skew::core::multi_round::{run_multi_round, MultiRoundResult};
use mpc_skew::core::skew_general::GeneralSkewAlgorithm;
use mpc_skew::core::skew_join::SkewJoin;
use mpc_skew::data::{generators, Database, QueryBudget, Relation, Rng};
use mpc_skew::query::{named, VarSet};
use mpc_skew::sim::backend::Backend;
use mpc_skew::sim::cluster::{BroadcastRouter, Cluster, Router};
use mpc_skew::sim::load::LoadReport;

/// The backends the acceptance matrix requires (`Pooled(1)` is covered
/// separately by `pooled_one_matches_sequential`). Each `Pooled(n)` runs
/// on the shared persistent pool of that size, so the whole matrix doubles
/// as a pool-reuse soak: one worker set serves every (scenario, algorithm)
/// cell.
const BACKENDS: [Backend; 4] = [
    Backend::Sequential,
    Backend::Pooled(2),
    Backend::Pooled(8),
    Backend::Pooled(4),
];

/// The scenario matrix over the two-way join `S1(x,z) ⋈ S2(y,z)`. Sizes
/// are chosen so the pooled shuffle genuinely shards (> 512-tuple
/// chunks) without making the oracle join expensive.
fn scenarios() -> Vec<(&'static str, Database)> {
    let q = named::two_way_join();
    let n = 1u64 << 10;
    let mut out = Vec::new();

    // Uniform: no skew at all.
    {
        let mut rng = Rng::seed_from_u64(0xD1FF_0001);
        let s1 = generators::uniform("S1", 2, 2000, n, &mut rng);
        let s2 = generators::uniform("S2", 2, 2000, n, &mut rng);
        out.push((
            "uniform",
            Database::new(q.clone(), vec![s1, s2], n).unwrap(),
        ));
    }

    // Zipf(1.2) on z on both sides.
    {
        let mut rng = Rng::seed_from_u64(0xD1FF_0002);
        let d1 = generators::zipf_degrees(1800, n, 1.2);
        let d2 = generators::zipf_degrees(1800, n, 1.2);
        let s1 = generators::from_degree_sequence("S1", 2, &[1], &d1, n, &mut rng);
        let s2 = generators::from_degree_sequence("S2", 2, &[1], &d2, n, &mut rng);
        out.push(("zipf", Database::new(q.clone(), vec![s1, s2], n).unwrap()));
    }

    // Single heavy hitter: one z value carries half of S1, S2 is a matching
    // (matchings need m <= n, hence the wider domain).
    {
        let n = 1u64 << 12;
        let mut rng = Rng::seed_from_u64(0xD1FF_0003);
        let m = 2048usize;
        let degrees: Vec<(Vec<u64>, usize)> = std::iter::once((vec![9u64], m / 2))
            .chain((0..(m / 2) as u64).map(|i| (vec![100 + (i % 900)], 1)))
            .collect();
        let s1 = generators::from_degree_sequence("S1", 2, &[1], &degrees, n, &mut rng);
        let s2 = generators::matching("S2", 2, m, n, &mut rng);
        out.push((
            "single_heavy_hitter",
            Database::new(q.clone(), vec![s1, s2], n).unwrap(),
        ));
    }

    // Empty relation: S1 has no tuples, so there are no answers.
    {
        let mut rng = Rng::seed_from_u64(0xD1FF_0004);
        let s1 = Relation::new("S1", 2);
        let s2 = generators::uniform("S2", 2, 1500, n, &mut rng);
        out.push((
            "empty_relation",
            Database::new(q.clone(), vec![s1, s2], n).unwrap(),
        ));
    }

    // All duplicates: every tuple of each relation is the same row, and the
    // shared z matches — maximal duplication on one answer (heavy on both
    // sides, so the skew join's H12 grid is exercised too). 600 copies:
    // enough for the pooled shuffle to shard, while keeping the
    // broadcast baseline's quadratic per-server output (600²·p) tame.
    {
        let mut s1 = Relation::new("S1", 2);
        let mut s2 = Relation::new("S2", 2);
        for _ in 0..600 {
            s1.push(&[3, 7]);
            s2.push(&[5, 7]);
        }
        out.push((
            "all_duplicates",
            Database::new(q.clone(), vec![s1, s2], n).unwrap(),
        ));
    }

    out
}

/// Sequential ground truth.
fn oracle(db: &Database) -> mpc_skew::data::AnswerSet {
    let mut ans = mpc_skew::data::Join::of(db).answers().unwrap();
    ans.sort_dedup();
    ans
}

/// Run `router` over every backend; assert oracle equality (`expected` is
/// the precomputed sequential join) and exact cross-backend equality of
/// answers and reports.
fn check_router(
    tag: &str,
    db: &Database,
    expected: &mpc_skew::data::AnswerSet,
    p: usize,
    router: &(impl Router + Sync),
) {
    let mut baseline: Option<(mpc_skew::data::AnswerSet, LoadReport)> = None;
    for backend in BACKENDS {
        let cluster = Cluster::run_round_on(db, p, router, backend);
        let answers = cluster.all_answers(db.query());
        let report = cluster.report();
        assert_eq!(&answers, expected, "{tag} [{backend}]: oracle mismatch");
        match &baseline {
            None => baseline = Some((answers, report)),
            Some((a0, r0)) => {
                assert_eq!(
                    &answers, a0,
                    "{tag} [{backend}]: answers differ from Sequential"
                );
                assert_eq!(
                    &report, r0,
                    "{tag} [{backend}]: LoadReport differs from Sequential"
                );
            }
        }
    }
}

#[test]
fn scenario_matrix_times_algorithms_is_deterministic_and_complete() {
    let p = 16usize;
    for (name, db) in scenarios() {
        let q = db.query().clone();
        let st = mpc_skew::stats::SimpleStatistics::of(&db);
        let z = q.var_index("z").unwrap();
        let expected = oracle(&db);

        let hc = HyperCube::with_optimal_shares(&q, &st, p, 11);
        check_router(&format!("{name}/hypercube_optimal"), &db, &expected, p, &hc);

        let hce = HyperCube::with_equal_shares(&q, p, 11);
        check_router(&format!("{name}/hypercube_equal"), &db, &expected, p, &hce);

        let sj = SkewJoin::plan(&db, p, 11);
        check_router(&format!("{name}/skew_join"), &db, &expected, p, &sj);

        let general = GeneralSkewAlgorithm::plan(&db, p, 11);
        check_router(&format!("{name}/general_skew"), &db, &expected, p, &general);

        let hj = HashJoinRouter::new(&q, VarSet::singleton(z), p, 11);
        check_router(&format!("{name}/hash_join"), &db, &expected, p, &hj);

        let fr = FragmentReplicateRouter::new(p, 0, 11);
        check_router(
            &format!("{name}/fragment_replicate"),
            &db,
            &expected,
            p,
            &fr,
        );

        check_router(
            &format!("{name}/broadcast"),
            &db,
            &expected,
            p,
            &BroadcastRouter { p },
        );
    }
}

#[test]
fn multi_round_is_backend_invariant_on_the_matrix() {
    // Per-scenario `(intermediate_tuples, broadcast)` of every round,
    // recorded from the pre-`Cluster` data plane (PR 15) at p = 8, seed = 5:
    // the rewrite must reproduce them. `all_duplicates` is the row that
    // tells bag intermediates (600 × 600 derivations of one answer) from
    // set intermediates (1). Loads are hash placement, so they are
    // compared across backends, not pinned.
    let recorded: [(&str, &[(u64, bool)]); 5] = [
        ("uniform", &[(3870, false)]),
        ("zipf", &[(237502, false)]),
        ("single_heavy_hitter", &[(502, false)]),
        ("empty_relation", &[(0, false)]),
        ("all_duplicates", &[(360000, false)]),
    ];
    let p = 8usize;
    let run = |db: &Database, backend: Backend| -> MultiRoundResult {
        run_multi_round(db, p, 5, backend, &QueryBudget::unlimited()).expect("no budget is set")
    };
    for ((name, db), (recorded_name, rounds)) in scenarios().into_iter().zip(recorded) {
        assert_eq!(name, recorded_name);
        let expected = oracle(&db);
        let seq = run(&db, Backend::Sequential);
        assert_eq!(seq.answers, expected, "{name}: multi-round lost answers");
        assert_eq!(seq.num_rounds(), rounds.len(), "{name}");
        let got: Vec<(u64, bool)> = seq
            .rounds
            .iter()
            .map(|r| (r.intermediate_tuples, r.broadcast))
            .collect();
        assert_eq!(got, rounds, "{name}: per-round shape moved");
        for backend in [Backend::Pooled(2), Backend::Pooled(8), Backend::Pooled(4)] {
            let thr = run(&db, backend);
            assert_eq!(thr.answers, seq.answers, "{name} [{backend}]");
            assert_eq!(thr.num_rounds(), seq.num_rounds(), "{name} [{backend}]");
            for (a, b) in seq.rounds.iter().zip(&thr.rounds) {
                assert_eq!(a.max_load_bits, b.max_load_bits, "{name} [{backend}]");
                assert_eq!(
                    a.intermediate_tuples, b.intermediate_tuples,
                    "{name} [{backend}]"
                );
            }
        }
    }
}

#[test]
fn pooled_matrix_reuses_one_worker_set() {
    // Every Pooled(4) cell above runs on the process-wide pool; this pins
    // the lifecycle claim directly: ≥3 consecutive rounds (different
    // scenarios and algorithms) spawn no new threads.
    let pool = mpc_skew::sim::pool::global(4);
    let spawned = pool.spawn_count();
    assert_eq!(spawned, 4, "the shared pool has exactly its worker set");
    let p = 16usize;
    for (round, (name, db)) in scenarios().into_iter().enumerate().take(3) {
        let sj = SkewJoin::plan(&db, p, 11);
        let (c_seq, r_seq) = sj.run_on(&db, Backend::Sequential);
        let (c_pool, r_pool) = sj.run_on(&db, Backend::Pooled(4));
        assert_eq!(r_seq, r_pool, "{name}");
        assert_eq!(
            c_seq.all_answers(db.query()),
            c_pool.all_answers(db.query()),
            "{name}"
        );
        assert_eq!(
            pool.spawn_count(),
            spawned,
            "round {round} ({name}) spawned threads"
        );
    }
}

#[test]
fn parallel_oracle_matches_sequential_on_the_matrix() {
    // The hash-partitioned parallel ground-truth join must agree with the
    // sequential oracle on every scenario, for every backend that might
    // compute it during verification.
    for (name, db) in scenarios() {
        let expected = oracle(&db);
        for backend in BACKENDS {
            assert_eq!(
                mpc_skew::sim::oracle::join_database_on(&db, backend),
                expected,
                "{name} [{backend}]"
            );
        }
    }
}

#[test]
fn batch_submission_matches_per_round_execution() {
    // execute_batch parallelizes across jobs; its per-job results must
    // equal running each plan alone, whatever executor the batch is on.
    // Every scenario rides twice: as its auto plan and as a multi-round
    // plan (batches may mix the two kinds).
    let dbs = scenarios();
    let plans: Vec<Plan> = [Algorithm::Auto, Algorithm::MultiRound]
        .into_iter()
        .flat_map(|algo| dbs.iter().map(move |(_, db)| (algo, db)))
        .map(|(algo, db)| {
            Engine::new(db.query())
                .p(16)
                .seed(11)
                .algorithm(algo)
                .plan(db)
        })
        .collect();
    let jobs: Vec<(&Plan, &Database)> = plans
        .iter()
        .zip(dbs.iter().chain(&dbs).map(|(_, db)| db))
        .collect();
    let expected: Vec<_> = jobs
        .iter()
        .map(|(plan, db)| plan.execute(db, Backend::Sequential))
        .collect();
    for backend in BACKENDS {
        let results = execute_batch(&jobs, backend);
        assert_eq!(results.len(), jobs.len(), "{backend}");
        for (i, (got, want)) in results.iter().zip(&expected).enumerate() {
            let tag = format!("{}/{} [{backend}]", dbs[i % dbs.len()].0, want.algorithm());
            assert_eq!(got.report(), want.report(), "{tag}: report");
            assert_eq!(got.max_load_bits(), want.max_load_bits(), "{tag}: load");
            assert_eq!(got.answers(), want.answers(), "{tag}: answers");
        }
    }
}

#[test]
fn pooled_one_matches_sequential() {
    // Pooled(1) is the degenerate pool configuration; it must take the
    // same inline fast path and produce the same bits.
    let (_, db) = scenarios().remove(1);
    let p = 16usize;
    let sj = SkewJoin::plan(&db, p, 3);
    let (c_seq, r_seq) = sj.run_on(&db, Backend::Sequential);
    let (c_one, r_one) = sj.run_on(&db, Backend::Pooled(1));
    assert_eq!(r_seq, r_one);
    assert_eq!(c_seq.all_answers(db.query()), c_one.all_answers(db.query()));
}

#[test]
fn triangle_differential_beyond_two_atoms() {
    // The matrix above is two-atom (so the skew join applies everywhere);
    // cover a 3-atom query for the algorithms that support it.
    let q = named::cycle(3);
    let n = 1u64 << 7;
    let mut rng = Rng::seed_from_u64(0xD1FF_0005);
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
    let p = 16usize;
    let st = mpc_skew::stats::SimpleStatistics::of(&db);

    let expected = oracle(&db);
    let hc = HyperCube::with_optimal_shares(&q, &st, p, 7);
    check_router("triangle/hypercube_optimal", &db, &expected, p, &hc);

    let general = GeneralSkewAlgorithm::plan(&db, p, 7);
    check_router("triangle/general_skew", &db, &expected, p, &general);
}
