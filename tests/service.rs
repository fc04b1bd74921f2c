//! Integration tests for the resident [`Service`]: cache correctness.
//!
//! Two properties the plan cache must never trade away:
//!
//! 1. **Differential** — ingest-then-query through the service is
//!    bit-identical to a fresh `Database` + `Engine::run` over the same
//!    tuples, on every backend, including after `append` rounds that keep
//!    cached plans warm.
//! 2. **Staleness** — when appended tuples push a join value across the
//!    `m_j / p` heavy threshold, the cached plan is invalidated and the
//!    replan flips `Algorithm::Auto`'s pick (HyperCube → skew join), with
//!    the invalidation visible in the counters.

use mpc_skew::core::engine::{Algorithm, Engine};
use mpc_skew::core::service::{CacheStatus, QuerySpec, Service};
use mpc_skew::data::{generators, AnswerSet, Database, Relation, Rng};
use mpc_skew::query::{parse_query, Query};
use mpc_skew::sim::backend::Backend;

/// Ground truth: build a fresh database from scratch (full rescan, exact
/// stats, no cache) and run the engine once.
fn fresh_run(
    q: &Query,
    rels: &[Relation],
    domain: u64,
    p: usize,
    backend: Backend,
) -> (Algorithm, AnswerSet) {
    let db = Database::new(q.clone(), rels.to_vec(), domain).expect("valid db");
    let plan = Engine::new(q).p(p).seed(1).plan(&db);
    let out = plan.execute(&db, backend);
    (out.algorithm(), out.answers().clone())
}

#[test]
fn ingest_then_query_matches_fresh_build_across_backends() {
    let q = parse_query("S1(x,z), S2(y,z)").expect("query parses");
    let domain = 1u64 << 12;
    let p = 16;
    let mut rng = Rng::seed_from_u64(7);
    let s1 = generators::zipf_column("S1", 2, 800, domain, 1, 1.1, &mut rng);
    let s2 = generators::uniform("S2", 2, 600, domain, &mut rng);

    for backend in [
        Backend::Sequential,
        Backend::Threads(2),
        Backend::Threads(4),
    ] {
        let mut svc = Service::new(domain)
            .with_backend(backend)
            .with_defaults(p, 1);
        svc.load(s1.clone()).expect("load S1");
        svc.load(s2.clone()).expect("load S2");

        let mut rels = vec![s1.clone(), s2.clone()];
        let mut append_rng = Rng::seed_from_u64(99);
        for round in 0..4 {
            let got = svc.query(&q).expect("service query");
            let (want_algo, want) = fresh_run(&q, &rels, domain, p, backend);
            assert_eq!(
                got.answers(),
                &want,
                "round {round}, backend {backend}: service answers diverge from fresh build"
            );
            assert_eq!(
                got.algorithm(),
                want_algo,
                "round {round}, backend {backend}: memoized stats picked a different algorithm"
            );

            // Grow S2 in place; mirror the tuples into the fresh-build copy.
            let extra: Vec<u64> = (0..80).map(|_| append_rng.below(domain)).collect();
            svc.append("S2", &extra).expect("append S2");
            rels[1].push_rows(&extra);
        }
    }
}

#[test]
fn batch_queries_match_serial_and_fresh_build() {
    let q1 = parse_query("S1(x,z), S2(y,z)").expect("query parses");
    let q2 = parse_query("S1(x,y), S2(y,z)").expect("query parses");
    let domain = 1u64 << 10;
    let p = 8;
    let mut rng = Rng::seed_from_u64(21);
    let s1 = generators::uniform("S1", 2, 400, domain, &mut rng);
    let s2 = generators::uniform("S2", 2, 400, domain, &mut rng);
    let rels = vec![s1.clone(), s2.clone()];

    let mut svc = Service::new(domain)
        .with_backend(Backend::Threads(4))
        .with_defaults(p, 1);
    svc.load(s1).expect("load S1");
    svc.load(s2).expect("load S2");

    let specs = [
        QuerySpec::new(q1.clone()),
        QuerySpec::new(q2.clone()),
        QuerySpec::new(q1.clone()),
    ];
    let outcomes: Vec<_> = svc
        .query_batch(&specs)
        .into_iter()
        .map(|r| r.expect("batch query runs"))
        .collect();
    assert_eq!(outcomes.len(), 3);
    for (spec, out) in [&q1, &q2, &q1].into_iter().zip(&outcomes) {
        let (_, want) = fresh_run(spec, &rels, domain, p, Backend::Sequential);
        assert_eq!(out.answers(), &want, "batch answer diverges for {spec}");
    }
    // The third spec repeats the first's shape: same plan, served warm.
    assert_eq!(outcomes[2].cache_status(), CacheStatus::Hit);
}

/// Appending tuples that cross the heavy threshold must invalidate the
/// cached plan and flip Auto's pick; appends that stay light must not.
#[test]
fn stale_plan_invalidation_fires_on_heavy_threshold_crossing() {
    let q = parse_query("S1(x,z), S2(y,z)").expect("query parses");
    let domain = 1u64 << 16;
    let p = 8;

    // 1100 tuples each, every z distinct: max frequency 1 <= m/p = 137.5,
    // so the join is skew-free and Auto picks HyperCube.
    let light = |name: &str, offset: u64| {
        let mut data = Vec::with_capacity(2 * 1100);
        for i in 0..1100u64 {
            data.push(offset + i);
            data.push(i);
        }
        Relation::from_flat(name, 2, data)
    };
    let mut svc = Service::new(domain)
        .with_backend(Backend::Sequential)
        .with_defaults(p, 1);
    svc.load(light("S1", 40_000)).expect("load S1");
    svc.load(light("S2", 50_000)).expect("load S2");

    let first = svc.query(&q).expect("cold query");
    assert_eq!(first.cache_status(), CacheStatus::Miss);
    assert_eq!(first.algorithm(), Algorithm::HyperCube);

    // A light append: 50 fresh distinct z values. The cardinality bucket
    // (2048) and the (empty) heavy set are unchanged, so the cached plan
    // stays warm.
    let fresh: Vec<u64> = (0..50u64).flat_map(|i| [60_000 + i, 2_000 + i]).collect();
    svc.append("S2", &fresh).expect("light append");
    let warm = svc.query(&q).expect("warm query");
    assert_eq!(warm.cache_status(), CacheStatus::Hit);
    assert_eq!(warm.algorithm(), Algorithm::HyperCube);
    assert_eq!(svc.counters().invalidations, 0);

    // A skewed append: 200 copies of z = 7. Now m_2 = 1350, the threshold
    // is 168.75, and freq(z = 7) = 201 > 168.75 — z = 7 turns heavy while
    // the cardinality bucket still reads 2048. Only the changed heavy
    // membership can (and must) invalidate the plan.
    let skewed: Vec<u64> = (0..200u64).flat_map(|i| [61_000 + i, 7]).collect();
    svc.append("S2", &skewed).expect("skewed append");
    assert_eq!(
        svc.counters().invalidations,
        1,
        "heavy-threshold crossing must invalidate the cached plan"
    );

    let replanned = svc.query(&q).expect("replanned query");
    assert_ne!(replanned.cache_status(), CacheStatus::Hit);
    assert_eq!(
        replanned.algorithm(),
        Algorithm::SkewJoin,
        "Auto must flip to the skew join once z = 7 is heavy"
    );

    // And the replanned answers still agree with a from-scratch build.
    let mut s1 = light("S1", 40_000);
    let mut s2 = light("S2", 50_000);
    let _ = &mut s1; // S1 untouched
    s2.push_rows(&fresh);
    s2.push_rows(&skewed);
    let (want_algo, want) = fresh_run(&q, &[s1, s2], domain, p, Backend::Sequential);
    assert_eq!(want_algo, Algorithm::SkewJoin);
    assert_eq!(replanned.answers(), &want);

    // Counter book-keeping: 2 misses (cold + replan), 1 hit, 1 invalidation.
    let c = svc.counters();
    assert_eq!((c.misses, c.hits, c.invalidations), (2, 1, 1));
}
