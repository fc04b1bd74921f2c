//! Cross-backend differential oracle suite.
//!
//! A shared scenario matrix (uniform / Zipf / single heavy hitter / empty
//! relation / all-duplicates) is run through every algorithm (HyperCube
//! LP-optimal and equal-shares, the §4.1 skew join, the §4.2 general
//! algorithm, and the hash-join / fragment-replicate / broadcast
//! baselines), asserting two things for each (scenario, algorithm) cell:
//!
//! 1. **oracle equality** — the distributed answer set equals the
//!    sequential join of the input (`mpc_sim::oracle::join_database`);
//! 2. **backend determinism** — `Sequential` and `Threads(n)` at 2, 4
//!    and 8 workers produce identical answer sets *and* identical
//!    [`LoadReport`]s (exact per-server equality), i.e. the parallel
//!    executor is bit-identical to the sequential one;
//! 3. **the output floor** — every one-round cell, on every backend,
//!    clears the floor its answer count sets (`bounds::output_floor`);
//! 4. **the answer count** — on every backend, a router that produces each
//!    binding on one server counts the oracle's distinct answers per
//!    server (`Cluster::partitioned_answer_count`), and every engine
//!    plan's `RunOutcome::answer_count` equals the oracle's. A server's
//!    join emits a binding once per copy of a repeated driver row, so a
//!    count of emits overcounts wherever a relation repeats a row; the
//!    `all_duplicates` scenario is the extreme, 600 emits of one answer.

use mpc_skew::core::baselines::{FragmentReplicateRouter, HashJoinRouter};
use mpc_skew::core::engine::{Algorithm, Engine};
use mpc_skew::core::hypercube::HyperCube;
use mpc_skew::core::multi_round::run_multi_round;
use mpc_skew::core::skew_general::GeneralSkewAlgorithm;
use mpc_skew::core::skew_join::SkewJoin;
use mpc_skew::data::{generators, Database, QueryBudget, Relation, Rng};
use mpc_skew::query::{named, VarSet};
use mpc_skew::sim::backend::Backend;
use mpc_skew::sim::cluster::{BroadcastRouter, Cluster};
use mpc_skew::sim::load::LoadReport;
use mpc_skew::sim::oracle::join_database;
use mpc_skew::sim::placement::Placement;

mod output_floor;
use output_floor::assert_clears_output_floor;

/// The backends the acceptance matrix requires (`Threads(1)` is covered
/// separately by `pooled_one_matches_sequential`).
const BACKENDS: [Backend; 4] = [
    Backend::Sequential,
    Backend::Threads(2),
    Backend::Threads(8),
    Backend::Threads(4),
];

/// The scenario matrix over the two-way join `S1(x,z) ⋈ S2(y,z)`, sized to
/// keep the oracle join cheap. Only `uniform_split` is above the shuffle's
/// 4 096-row split threshold, so every algorithm also runs the threaded
/// route-then-merge-scatter path on it.
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
    // sides, so the skew join's H12 grid is exercised too). 600 copies
    // keep the broadcast baseline's quadratic per-server output (600²·p)
    // tame.
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

    // Uniform again, but large enough that every threaded backend splits
    // each relation into two routed chunks (5 000 > 4 096 rows), over a
    // wider domain so the answer set stays small.
    {
        let n = 1u64 << 12;
        let mut rng = Rng::seed_from_u64(0xD1FF_0006);
        let s1 = generators::uniform("S1", 2, 5000, n, &mut rng);
        let s2 = generators::uniform("S2", 2, 5000, n, &mut rng);
        out.push((
            "uniform_split",
            Database::new(q.clone(), vec![s1, s2], n).unwrap(),
        ));
    }

    out
}

/// Whether a router produces every binding on one server only, so that
/// summing per-server distinct counts counts the answers.
#[derive(Clone, Copy, PartialEq)]
enum Bindings {
    OnOneServer,
    Repeated,
}

/// Run `router` over every backend; assert oracle equality (`expected` is
/// the precomputed sequential join), the per-server answer count when the
/// router puts each binding on one server, and exact cross-backend
/// equality of answers and reports.
fn check_router(
    name: &str,
    algo: &str,
    db: &Database,
    expected: &mpc_skew::data::AnswerSet,
    round: impl Fn(Backend) -> Cluster,
    bindings: Bindings,
) {
    let tag = format!("{name}/{algo}");
    let mut baseline: Option<(mpc_skew::data::AnswerSet, LoadReport)> = None;
    for backend in BACKENDS {
        let cluster = round(backend);
        if bindings == Bindings::OnOneServer {
            let count = cluster.partitioned_answer_count(db.query(), &QueryBudget::unlimited());
            assert_eq!(
                count,
                Ok(expected.len() as u64),
                "{tag} [{backend}]: per-server count differs from the oracle's"
            );
        }
        let answers = cluster.all_answers(db.query());
        let report = cluster.report();
        assert_eq!(&answers, expected, "{tag} [{backend}]: oracle mismatch");
        let out = answers.len() as u64;
        assert_clears_output_floor(&format!("{tag} [{backend}]"), db.query(), &report, out);
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
        let expected = join_database(&db);

        let one = Bindings::OnOneServer;
        let repeated = Bindings::Repeated;
        let hc = HyperCube::with_optimal_shares(&q, &st, p, 11);
        check_router(
            name,
            "hypercube_optimal",
            &db,
            &expected,
            |b| hc.run_on(&db, b).0,
            one,
        );

        let hce = HyperCube::with_equal_shares(&q, p, 11);
        check_router(
            name,
            "hypercube_equal",
            &db,
            &expected,
            |b| hce.run_on(&db, b).0,
            one,
        );

        let sj = SkewJoin::plan(&db, p, 11);
        check_router(
            name,
            "skew_join",
            &db,
            &expected,
            |b| sj.run_on(&db, b).0,
            one,
        );

        let general = GeneralSkewAlgorithm::plan(&db, p, 11);
        let round = |b| general.run_on(&db, b).0;
        check_router(name, "general_skew", &db, &expected, round, repeated);

        let hj = HashJoinRouter::new(&q, VarSet::singleton(z), p, 11);
        check_router(
            name,
            "hash_join",
            &db,
            &expected,
            |b| hj.run_on(&db, b).0,
            one,
        );

        let fr = FragmentReplicateRouter::new(p, 0, 11);
        check_router(
            name,
            "fragment_replicate",
            &db,
            &expected,
            |b| fr.run_on(&db, b).0,
            one,
        );

        let broadcast = BroadcastRouter { p };
        let round = |b| Cluster::run_round_on(&db, &Placement::identity(p), &broadcast, b);
        check_router(name, "broadcast", &db, &expected, round, repeated);

        check_answer_counts(name, &db, expected.len() as u64, p);
    }
}

/// Every engine plan's `RunOutcome::answer_count`, on every backend,
/// equals the oracle's distinct count: counted per server on `hc` and
/// `skew-join`, materialized on `general`.
fn check_answer_counts(name: &str, db: &Database, expected: u64, p: usize) {
    let q = db.query();
    let two_atoms = q.is_two_atom_join();
    for algorithm in Algorithm::all() {
        if algorithm == Algorithm::SkewJoin && !two_atoms {
            continue;
        }
        for backend in BACKENDS {
            let outcome = (Engine::new(q).p(p).seed(11))
                .algorithm(algorithm)
                .backend(backend)
                .run(db);
            assert_eq!(
                outcome.answer_count(),
                expected,
                "{name}/{algorithm} [{backend}]: answer_count differs from the oracle's"
            );
        }
    }
}

#[test]
fn multi_round_is_backend_invariant_on_the_matrix() {
    // Per-scenario `(intermediate_tuples, broadcast)` of every round,
    // recorded from the pre-`Cluster` data plane (PR 15) at p = 8, seed = 5:
    // the rewrite must reproduce them. `all_duplicates` is the row that
    // tells bag intermediates (600 × 600 derivations of one answer) from
    // set intermediates (1). Loads are hash placement, so they are
    // compared across backends, not pinned. `uniform_split` joined the
    // matrix later and was recorded on the `Cluster` data plane.
    let recorded: [(&str, &[(u64, bool)]); 6] = [
        ("uniform", &[(3870, false)]),
        ("zipf", &[(237502, false)]),
        ("single_heavy_hitter", &[(502, false)]),
        ("empty_relation", &[(0, false)]),
        ("all_duplicates", &[(360000, false)]),
        ("uniform_split", &[(6069, false)]),
    ];
    let p = 8usize;
    let run = |db: &Database, backend| run_multi_round(db, p, 5, backend);
    for ((name, db), (recorded_name, rounds)) in scenarios().into_iter().zip(recorded) {
        assert_eq!(name, recorded_name);
        let expected = join_database(&db);
        let seq = run(&db, Backend::Sequential);
        assert_eq!(seq.answers, expected, "{name}: multi-round lost answers");
        assert_eq!(seq.num_rounds(), rounds.len(), "{name}");
        let got: Vec<(u64, bool)> = seq
            .rounds
            .iter()
            .map(|r| (r.intermediate_tuples, r.broadcast))
            .collect();
        assert_eq!(got, rounds, "{name}: per-round shape moved");
        for backend in [
            Backend::Threads(2),
            Backend::Threads(8),
            Backend::Threads(4),
        ] {
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
fn pooled_one_matches_sequential() {
    // Threads(1) is the degenerate configuration; it must take the same
    // inline fast path and produce the same bits.
    let (_, db) = scenarios().remove(1);
    let p = 16usize;
    let sj = SkewJoin::plan(&db, p, 3);
    let (c_seq, r_seq) = sj.run_on(&db, Backend::Sequential);
    let (c_one, r_one) = sj.run_on(&db, Backend::Threads(1));
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

    let expected = join_database(&db);
    let hc = HyperCube::with_optimal_shares(&q, &st, p, 7);
    let one = Bindings::OnOneServer;
    check_router(
        "triangle",
        "hypercube_optimal",
        &db,
        &expected,
        |b| hc.run_on(&db, b).0,
        one,
    );

    let general = GeneralSkewAlgorithm::plan(&db, p, 7);
    let repeated = Bindings::Repeated;
    let round = |b| general.run_on(&db, b).0;
    check_router("triangle", "general_skew", &db, &expected, round, repeated);

    check_answer_counts("triangle", &db, expected.len() as u64, p);
}
