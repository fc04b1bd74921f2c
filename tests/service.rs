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
//! And what the shared service must keep for **sessions** served
//! concurrently over one `Mutex<Service>` (the TCP front). `serve` holds
//! the lock only while a command is applied — catalog, plan cache, ingest,
//! planning on a miss —; a query's execution and render run outside it,
//! on the snapshot of the catalog it was prepared against. So each session
//! reads byte for byte what it reads served alone, and a reader racing a
//! writer reads, answers and `load=` alike, what the serial history reads
//! after some number of the writer's appends, never fewer than before.

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
    // interleaving of their commands, each session must read exactly what
    // it reads served alone.
    let queries = [
        "QUERY A(x,z), B(y,z) rows",
        "QUERY B(x,z), C(z,y) p=8 rows",
        "QUERY Q(z; count, sum(x)) :- A(x,z), C(y,z) rows",
        "QUERY A(x,y), B(y,z), C(z,x) seed=3 algo=hc rows",
    ];
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

    let alone: Vec<String> = scripts
        .iter()
        .map(|script| serve_one(script, &Mutex::new(warmed_service(None, &queries))))
        .collect();
    let shared = Mutex::new(warmed_service(None, &queries));
    let together = serve_together(&scripts, &shared);
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

/// Three relations of 300 rows, `(i·a mod 97, i·b mod 31)` with `(a, b)`
/// per relation, loaded into a sketch-mode service on `backend` through a
/// session that then warms the plan of every query in `queries`.
fn warmed_service(backend: Option<Backend>, queries: &[&str]) -> Service {
    let rows = |a: u64, b: u64| -> String {
        let rows: Vec<String> = (0..300u64)
            .map(|i| format!("{},{}", (i * a) % 97, (i * b) % 31))
            .collect();
        rows.join(";")
    };
    let mut svc = Service::new(1 << 10)
        .with_stats_mode(StatsMode::Sketch)
        .with_defaults(4, 1);
    if let Some(backend) = backend {
        svc = svc.with_backend(backend);
    }
    let mut session = Session::new();
    let loads = [
        format!("LOAD A 2 {}", rows(37, 11)),
        format!("LOAD B 2 {}", rows(13, 7)),
        format!("LOAD C 2 {}", rows(29, 5)),
        "LOAD W 2 0,0".to_string(),
    ];
    for line in loads
        .iter()
        .map(String::as_str)
        .chain(queries.iter().copied())
    {
        assert!(session.handle(&mut svc, line)[0].starts_with("ok "));
    }
    svc
}

/// Serve each script as its own session on one shared service, all
/// started at once so their commands contend; each session's output.
fn serve_together(scripts: &[String], shared: &Mutex<Service>) -> Vec<String> {
    let start = Barrier::new(scripts.len());
    std::thread::scope(|scope| {
        let sessions: Vec<_> = scripts
            .iter()
            .map(|script| {
                scope.spawn(|| {
                    start.wait();
                    serve_one(script, shared)
                })
            })
            .collect();
        sessions
            .into_iter()
            .map(|s| s.join().expect("session thread"))
            .collect()
    })
}

fn serve_one(script: &str, svc: &Mutex<Service>) -> String {
    let mut out = Vec::new();
    let end = serve(io::Cursor::new(script), &mut out, svc);
    assert!(end.error.is_none(), "{:?}", end.error);
    String::from_utf8(out).expect("replies are UTF-8")
}

#[test]
fn readers_racing_appends_read_a_serial_history() {
    // The appends land in `A`, which three of the four queries read, and
    // each joins `B` (and `C`) on z: every append changes their answers.
    // A reader's query reads the catalog as of the moment it was prepared,
    // so each of its replies must be the serial reply after some number k
    // of appends, and k must never go down within one session.
    const APPENDS: usize = 24;
    let queries = [
        "QUERY A(x,z), B(y,z) rows",
        "QUERY B(x,z), C(z,y) p=8 rows",
        "QUERY Q(z; count, sum(x)) :- A(x,z), C(y,z) rows",
        "QUERY A(x,y), B(y,z), C(z,x) seed=3 algo=hc rows",
    ];
    let appends: Vec<String> = (0..APPENDS)
        .map(|i| format!("APPEND A {},{}", 100 + i, (i * 7) % 31))
        .collect();
    for backend in [Backend::Sequential, Backend::Threads(4)] {
        // serial[k][q]: query q's reply after the first k appends.
        let mut svc = warmed_service(Some(backend), &queries);
        let mut session = Session::new();
        let mut read = |svc: &mut Service| -> Vec<String> {
            (queries.iter())
                .map(|q| session.handle(svc, q).join("\n") + "\n")
                .collect()
        };
        let mut serial = vec![read(&mut svc)];
        for append in &appends {
            Session::new().handle(&mut svc, append);
            serial.push(read(&mut svc));
        }
        assert!(
            (serial.windows(2)).all(|w| w[0][0] != w[1][0]),
            "every append changes the join's answers"
        );

        let mut scripts: Vec<String> = (0..3)
            .map(|r| {
                let lines: Vec<&str> = (0..12).map(|i| queries[(r + i) % queries.len()]).collect();
                lines.join("\n")
            })
            .collect();
        // The writer reads between its appends (a query that does not read
        // `A`), which spreads them over the readers' run.
        let writes: Vec<&str> = (appends.iter())
            .flat_map(|a| [a.as_str(), queries[1]])
            .collect();
        scripts.push(writes.join("\n"));
        let shared = Mutex::new(warmed_service(Some(backend), &queries));
        let together = serve_together(&scripts, &shared);
        for (r, out) in together[..3].iter().enumerate() {
            // Every query asks for rows, so every reply ends with `end`.
            let replies: Vec<&str> = out.split_inclusive("end\n").collect();
            assert_eq!(replies.len(), 12, "[{backend}] reader {r}: {out}");
            let mut at = 0;
            for (i, reply) in replies.into_iter().enumerate() {
                let q = (r + i) % queries.len();
                let seen = (0..=APPENDS).filter(|&k| serial[k][q] == reply);
                let seen: Vec<usize> = seen.collect();
                assert!(
                    !seen.is_empty(),
                    "[{backend}] reader {r}, reply {i}: no serial history reads {reply}"
                );
                at = *(seen.iter().find(|&&k| k >= at)).unwrap_or_else(|| {
                    panic!("[{backend}] reader {r}, reply {i}: read appends {seen:?} after {at}")
                });
            }
        }
        let want: Vec<String> = (1..=APPENDS)
            .map(|k| format!("ok appended A +1 tuples={}\n{}", 300 + k, serial[k][1]))
            .collect();
        assert_eq!(together[3], want.concat(), "[{backend}]");
        // Once the writer is done, every query reads all of its appends.
        let after = serve_one(&queries.join("\n"), &shared);
        assert_eq!(after, serial[APPENDS].concat(), "[{backend}]");
        // No append changed a plan: every reply above was a cache hit, as
        // in the serial history.
        let c = shared.lock().unwrap().counters();
        assert_eq!((c.misses, c.invalidations), (queries.len() as u64, 0));
    }
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
