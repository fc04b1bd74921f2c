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
//!
//! And one the shared service must keep: **sessions** served concurrently
//! over one `Mutex<Service>` (the TCP front) each read byte for byte what
//! they read served alone.

use mpc_skew::core::engine::{Algorithm, Engine, StatsMode};
use mpc_skew::core::service::{CacheStatus, QuerySpec, Service};
use mpc_skew::core::wire::{serve, Session};
use mpc_skew::data::{generators, AnswerSet, Database, Relation, Rng};
use mpc_skew::query::{parse_query, Query};
use mpc_skew::sim::backend::Backend;
use std::io;
use std::sync::{Barrier, Mutex};

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

    let outcomes: Vec<_> = [&q1, &q2, &q1]
        .into_iter()
        .map(|q| {
            svc.query_spec(&QuerySpec::new(q.clone()))
                .expect("query runs")
        })
        .collect();
    for (q, out) in [&q1, &q2, &q1].into_iter().zip(&outcomes) {
        let (_, want) = fresh_run(q, &rels, domain, p, Backend::Sequential);
        assert_eq!(out.answers(), &want, "service answer diverges for {q}");
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

#[test]
fn concurrent_sessions_match_one_session() {
    // Readers send `rows` queries whose plans the warm-up cached; one
    // writer APPENDs to `W`, which no reader names. Whatever the
    // interleaving of their commands under the service lock, each
    // session must read exactly what it reads served alone.
    let queries = [
        "QUERY A(x,z), B(y,z) rows",
        "QUERY B(x,z), C(z,y) p=8 rows",
        "QUERY Q(z; count, sum(x)) :- A(x,z), C(y,z) rows",
        "QUERY A(x,y), B(y,z), C(z,x) seed=3 algo=hc rows",
    ];
    let rows = |a: u64, b: u64| -> String {
        let rows: Vec<String> = (0..300u64)
            .map(|i| format!("{},{}", (i * a) % 97, (i * b) % 31))
            .collect();
        rows.join(";")
    };
    let warmed = || {
        let mut svc = Service::new(1 << 10)
            .with_stats_mode(StatsMode::Sketch)
            .with_defaults(4, 1);
        let mut session = Session::new();
        let loads = [
            format!("LOAD A 2 {}", rows(37, 11)),
            format!("LOAD B 2 {}", rows(13, 7)),
            format!("LOAD C 2 {}", rows(29, 5)),
            "LOAD W 2 0,0".to_string(),
        ];
        for line in loads.iter().map(String::as_str).chain(queries) {
            assert!(session.handle(&mut svc, line)[0].starts_with("ok "));
        }
        svc
    };
    let mut scripts: Vec<String> = (0..3)
        .map(|k| {
            let lines: Vec<&str> = (0..12).map(|i| queries[(k + i) % queries.len()]).collect();
            lines.join("\n")
        })
        .collect();
    let appends: Vec<String> = (1..=24u64)
        .map(|i| format!("APPEND W {i},{}", (i * 7) % 31))
        .collect();
    scripts.push(appends.join("\n"));

    let run = |script: &str, svc: &Mutex<Service>| {
        let mut out = Vec::new();
        let end = serve(io::Cursor::new(script), &mut out, svc);
        assert!(end.error.is_none(), "{:?}", end.error);
        String::from_utf8(out).expect("replies are UTF-8")
    };
    let alone: Vec<String> = scripts
        .iter()
        .map(|script| run(script, &Mutex::new(warmed())))
        .collect();
    let shared = Mutex::new(warmed());
    // Every session starts at once, so their commands contend for the lock.
    let start = Barrier::new(scripts.len());
    let together: Vec<String> = std::thread::scope(|scope| {
        let sessions: Vec<_> = scripts
            .iter()
            .map(|script| {
                scope.spawn(|| {
                    start.wait();
                    run(script, &shared)
                })
            })
            .collect();
        sessions
            .into_iter()
            .map(|s| s.join().expect("session thread"))
            .collect()
    });
    for (i, (want, got)) in alone.iter().zip(&together).enumerate() {
        assert!(got == want, "session {i} diverged from its solo run");
    }
    for out in &alone[..3] {
        assert!(out.lines().count() > 100, "readers see answer rows: {out}");
        for reply in out.lines().filter(|l| l.starts_with("ok ")) {
            assert!(reply.contains("cache=hit"), "{reply}");
        }
    }
    assert!(alone[3].ends_with("ok appended W +1 tuples=25\n"));
    assert_eq!(
        shared.lock().unwrap().counters().misses,
        queries.len() as u64
    );
}

#[test]
fn serve_recovers_a_poisoned_service_lock() {
    let svc = Mutex::new(
        Service::new(16)
            .with_backend(Backend::Sequential)
            .with_defaults(4, 1),
    );
    // A session thread that dies holding the lock poisons it.
    let died = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let _held = svc.lock().unwrap();
                panic!("session thread died");
            })
            .join()
    });
    assert!(died.is_err() && svc.is_poisoned());
    let mut out = Vec::new();
    let end = serve(io::Cursor::new("LOAD S1 2 0,1\nSHUTDOWN\n"), &mut out, &svc);
    assert!(end.shutdown);
    assert_eq!(out, b"ok loaded S1 arity=2 tuples=1\nok bye\n");
}
