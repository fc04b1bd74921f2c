//! Chaos suite: failpoint-injected worker panics and delays against the
//! resident service (Satellite of the fault-containment PR).
//!
//! The properties under test:
//!
//! 1. **Containment** — an injected panic at any failpoint site
//!    (`plan`, `shuffle`, `merge`, `local_join`), on any backend, surfaces as
//!    `ServiceError::Internal` and nothing else: no unwinding into the
//!    caller, no torn service state.
//! 2. **Survival** — the very next query on the same service (and the
//!    same wire session) succeeds, with answers bit-identical to a run
//!    that was never injected, and plan-cache counters consistent.
//! 3. **Budgets** — a deadline expired mid-query (forced deterministic
//!    with a `delay` failpoint) returns `err timeout` and leaves the plan
//!    cache and maintained statistics untouched.
//!
//! The failpoint registry is process-global, so every in-process test
//! body — baselines included — runs under one `failpoint::arm` handle: the
//! handle is exclusive, and a query outside it could be killed by a site
//! some *other* test just armed. `arm("")` holds the handle with nothing
//! armed; `rearm` swaps sites in and out while keeping it.

use mpc_skew::core::service::{CacheStatus, QuerySpec, Service, ServiceError};
use mpc_skew::core::wire::{serve, Session};
use mpc_skew::data::{generators, Relation, Rng};
use mpc_skew::query::parse_query;
use mpc_skew::sim::backend::Backend;
use mpc_testkit::failpoint;
use std::io::Cursor;
use std::sync::Mutex;

const DOMAIN: u64 = 1 << 12;
/// Rows per relation: above the shuffle's 4 096-row split threshold.
const ROWS: usize = 5000;

/// A service whose relations are big enough (≥ 2 shuffle chunks) that the
/// parallel backends split them — so the `merge` site (one hit per
/// scattered chunk of a split relation) actually fires on them.
fn loaded_service(backend: Backend) -> Service {
    let mut rng = Rng::seed_from_u64(42);
    let mut svc = Service::new(DOMAIN)
        .with_backend(backend)
        .with_defaults(4, 1);
    svc.load(generators::uniform("S1", 2, ROWS, DOMAIN, &mut rng))
        .unwrap();
    svc.load(generators::uniform("S2", 2, ROWS, DOMAIN, &mut rng))
        .unwrap();
    svc
}

fn two_way() -> mpc_skew::query::Query {
    parse_query("S1(x,z), S2(y,z)").unwrap()
}

#[test]
fn injected_panics_are_contained_and_survivors_are_bit_identical() {
    // `merge` only fires when a relation was routed in several chunks
    // (the parallel backends); the other two sites fire on every backend.
    let matrix: &[(Backend, &[&str])] = &[
        (Backend::Sequential, &["shuffle", "local_join"]),
        (Backend::Threads(4), &["shuffle", "merge", "local_join"]),
    ];
    for &(backend, sites) in matrix {
        for &site in sites {
            let mut fp = failpoint::arm("");
            let q = two_way();
            let mut svc = loaded_service(backend);
            let baseline = svc.query(&q).expect("uninjected query");
            assert_eq!(baseline.cache_status(), CacheStatus::Miss);
            let expected = baseline.answers();

            fp.rearm(&format!("{site}:panic"));
            // `shuffle`/`merge` fire during execution, `local_join`
            // during row materialization (one-round answers join
            // lazily) — both legs run behind the containment
            // boundary, so drive the full query-to-rows path.
            let err = svc
                .query(&q)
                .and_then(|out| out.try_answers().cloned())
                .expect_err("injected panic must surface as an error");
            assert_eq!(
                err,
                ServiceError::Internal(format!("failpoint `{site}` injected panic")),
                "{backend:?}/{site}"
            );
            assert!(failpoint::fires(site) > 0, "{site} never fired");
            fp.rearm("");

            // Survival: same service, next query, bit-identical answers,
            // and the failed attempt still counted its cache hit.
            let after = svc.query(&q).expect("query after injected panic");
            assert_eq!(after.cache_status(), CacheStatus::Hit, "{backend:?}/{site}");
            assert_eq!(after.answers(), expected, "{backend:?}/{site}");
            let c = svc.counters();
            assert_eq!(
                (c.hits, c.misses, c.invalidations, c.evictions),
                (2, 1, 0, 0),
                "{backend:?}/{site}: counters drifted"
            );
        }
    }
}

#[test]
fn injected_delays_change_nothing_but_time() {
    let mut fp = failpoint::arm("");
    for backend in [Backend::Sequential, Backend::Threads(4)] {
        let q = two_way();
        let mut svc = loaded_service(backend);
        let expected = svc.query(&q).expect("uninjected query").answers().clone();

        fp.rearm("shuffle:delay:1ms,local_join:delay:1ms");
        let slow = svc.query(&q).expect("delayed query still succeeds");
        assert_eq!(slow.answers(), &expected, "{backend:?}");
        assert!(failpoint::fires("local_join") > 0);
        fp.rearm("");
    }
}

#[test]
fn probabilistic_panics_eventually_let_a_query_through() {
    // A p < 1 panic site fires deterministically per hit counter: over
    // enough attempts both outcomes must occur, and every success must be
    // bit-identical to the uninjected baseline.
    let mut fp = failpoint::arm("");
    let q = two_way();
    let mut svc = loaded_service(Backend::Threads(4));
    let expected = svc.query(&q).expect("uninjected query").answers().clone();

    fp.rearm("local_join:panic:0.2");
    let (mut failed, mut succeeded) = (0u32, 0u32);
    for _ in 0..24 {
        match svc.query(&q).and_then(|out| out.try_answers().cloned()) {
            Ok(answers) => {
                assert_eq!(answers, expected);
                succeeded += 1;
            }
            Err(e) => {
                assert!(matches!(e, ServiceError::Internal(_)), "{e}");
                failed += 1;
            }
        }
    }
    assert!(failed > 0, "p=0.2 over 24 queries never fired");
    assert!(succeeded > 0, "p=0.2 over 24 queries never let one through");
}

#[test]
fn deadline_expiry_leaves_plan_cache_and_stats_untouched() {
    let mut fp = failpoint::arm("");
    let spec = QuerySpec::new(two_way());
    let mut svc = loaded_service(Backend::Sequential);
    let baseline = svc.query_spec(&spec).expect("uninjected query");
    let expected = baseline.answers();
    let plans_before = svc.cached_plans();
    let infos_before = format!("{:?}", svc.relation_infos());

    // A 25ms injected stall against a 1ms deadline: the cooperative poll
    // right after the failpoint trips deterministically.
    fp.rearm("local_join:delay:25ms");
    let err = svc
        .query_spec(&spec.clone().timeout_ms(1))
        .expect_err("deadline must expire");
    assert_eq!(err, ServiceError::Timeout);
    fp.rearm("");

    // The expired query consumed nothing: same cached plan (served as a
    // hit), same counters shape, same catalog statistics.
    assert_eq!(svc.cached_plans(), plans_before);
    assert_eq!(format!("{:?}", svc.relation_infos()), infos_before);
    let c = svc.counters();
    assert_eq!((c.hits, c.misses, c.invalidations), (1, 1, 0));
    let after = svc.query_spec(&spec).expect("query after expiry");
    assert_eq!(after.cache_status(), CacheStatus::Hit);
    assert_eq!(after.answers(), expected);
    assert_eq!(after.max_load_bits(), baseline.max_load_bits());
}

#[test]
fn wire_session_reports_err_internal_and_keeps_serving() {
    let mut fp = failpoint::arm("");
    let mut svc = Service::new(64)
        .with_backend(Backend::Sequential)
        .with_defaults(4, 1);
    let mut s = Session::new();
    s.handle(&mut svc, "LOAD S1 2 0,1;1,1;2,3");
    s.handle(&mut svc, "LOAD S2 2 5,1;6,3");
    // Warm the cache so pre- and post-injection replies are comparable.
    s.handle(&mut svc, "QUERY S1(x,z), S2(y,z) rows");
    let baseline = s.handle(&mut svc, "QUERY S1(x,z), S2(y,z) rows");
    assert!(baseline[0].starts_with("ok answers=3 "), "{baseline:?}");

    fp.rearm("local_join:panic");
    let out = s.handle(&mut svc, "QUERY S1(x,z), S2(y,z) rows");
    assert_eq!(
        out,
        vec!["err internal failpoint `local_join` injected panic".to_string()],
        "one err line, no rows, no end marker"
    );
    fp.rearm("");

    // Same session, same service: the next reply is byte-identical.
    let after = s.handle(&mut svc, "QUERY S1(x,z), S2(y,z) rows");
    assert_eq!(after, baseline);
    assert!(s.handle(&mut svc, "SHUTDOWN")[0].starts_with("ok bye"));
}

#[test]
fn a_bad_plan_is_one_err_line_and_caches_nothing() {
    // Planning runs behind the same containment boundary as execution;
    // the in-process twin of `tests/cli.rs`'s serve regression, plus the
    // `err internal` path only a failpoint can reach.
    use mpc_skew::core::engine::SKEW_JOIN_NEEDS_TWO_ATOMS;
    let mut fp = failpoint::arm("");
    let mut svc = Service::new(64)
        .with_backend(Backend::Sequential)
        .with_defaults(4, 1);
    let mut s = Session::new();
    s.handle(&mut svc, "LOAD S1 2 0,1;1,1;2,3");
    s.handle(&mut svc, "LOAD S2 2 5,1;6,3");
    s.handle(&mut svc, "QUERY S1(x,z), S2(y,z) rows");
    let baseline = s.handle(&mut svc, "QUERY S1(x,z), S2(y,z) rows");
    assert!(baseline[0].starts_with("ok answers=3 "), "{baseline:?}");

    assert_eq!(
        s.handle(&mut svc, "QUERY S1(x,z), S2(y,w) algo=skew-join"),
        vec![format!("err unsupported {SKEW_JOIN_NEEDS_TWO_ATOMS}")]
    );
    assert_eq!(
        s.handle(&mut svc, "QUERY S1(x,z), S2(y,z) p=100000000"),
        vec!["err p= must be at most 65536".to_string()]
    );
    // At p = 1 nothing exceeds m/1: §4.2 plans B_∅ alone, and the one
    // server receives the whole database (5 tuples x 2 values x 6 bits).
    assert_eq!(
        s.handle(&mut svc, "QUERY S1(x,z), S2(y,z) p=1 algo=general"),
        vec!["ok answers=3 algo=general cache=miss rounds=1 load=60 predicted=36".to_string()]
    );
    let before = (svc.cached_plans(), svc.counters());

    // Any other planner panic is this query's `err internal`: nothing is
    // counted, nothing is cached, and the same line plans cold afterwards.
    fp.rearm("plan:panic");
    let cold = "QUERY S1(x,z), S2(y,z) seed=77";
    assert_eq!(
        s.handle(&mut svc, cold),
        vec!["err internal failpoint `plan` injected panic".to_string()]
    );
    assert!(failpoint::fires("plan") > 0);
    fp.rearm("");
    assert_eq!((svc.cached_plans(), svc.counters()), before);
    assert!(s.handle(&mut svc, cold)[0].contains(" cache=miss "));

    // Same session, same service: the next reply is byte-identical.
    assert_eq!(s.handle(&mut svc, "QUERY S1(x,z), S2(y,z) rows"), baseline);
    assert!(s.handle(&mut svc, "SHUTDOWN")[0].starts_with("ok bye"));
}

/// A session's writer that logs, in arrival order across sessions, the
/// first line of every reply under the session's tag.
struct Tagged<'a>(&'static str, &'a Mutex<Vec<String>>);

impl std::io::Write for Tagged<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let reply = String::from_utf8_lossy(buf);
        let first = reply.lines().next().unwrap_or_default();
        self.1.lock().unwrap().push(format!("{} {first}", self.0));
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_slow_query_does_not_hold_up_other_sessions() {
    // Session A's query stalls in each of its 64 servers' local joins.
    // Once it is stalled, session B asks for STATS and appends to a
    // relation A does not read: the service lock covers neither A's join
    // nor its render, so both of B's replies arrive before A's.
    let mut fp = failpoint::arm("");
    let mut svc = loaded_service(Backend::Sequential);
    svc.load(Relation::from_rows("W", 2, &[&[0, 0]])).unwrap();
    let shared = Mutex::new(svc);
    let log = Mutex::new(Vec::new());
    fp.rearm("local_join:delay:20ms");
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let a = Cursor::new("QUERY S1(x,z), S2(y,z) p=64 rows\n");
            serve(a, Tagged("A", &log), &shared)
        });
        // (A reply from A first means it never stalled; the assertion
        // below reports it.)
        while failpoint::fires("local_join") == 0 && log.lock().unwrap().is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        serve(
            Cursor::new("STATS\nAPPEND W 1,1\n"),
            Tagged("B", &log),
            &shared,
        );
    });
    fp.rearm("");
    let log = log.into_inner().unwrap();
    let tags: Vec<&str> = log.iter().map(|l| &l[..4]).collect();
    assert_eq!(tags, ["B ok", "B ok", "A ok"], "{log:?}");
    // A's plan was cached before its execution began.
    assert!(
        log[0].starts_with("B ok plans=1 hits=0 misses=1 "),
        "{}",
        log[0]
    );
    assert_eq!(log[1], "B ok appended W +1 tuples=2");
}

// ---------------------------------------------------------------------------
// End-to-end: `mpcskew serve` with env-armed failpoints
// ---------------------------------------------------------------------------

use std::io::Write;
use std::process::{Command, Stdio};

/// Run `mpcskew serve` over piped stdio with `MPCSKEW_FAILPOINTS=spec`,
/// returning all stdout lines. The child must exit successfully however
/// much was injected.
fn serve_with_failpoints(spec: &str, script: &str) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mpcskew"))
        .args(["serve", "--domain", "1024", "--p", "4", "--threads", "2"])
        .env("MPCSKEW_FAILPOINTS", spec)
        .env("RUST_BACKTRACE", "0")
        .env_remove("MPCSKEW_THREADS")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .expect("script written");
    let out = child.wait_with_output().expect("serve exits");
    assert!(
        out.status.success(),
        "serve died under failpoints `{spec}`; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_owned)
        .collect()
}

/// Split serve output into per-QUERY reply blocks: an `err ...` line is a
/// block of its own; an `ok ...` line followed by rows runs to `end`.
fn query_blocks(lines: &[String]) -> Vec<Vec<String>> {
    let mut blocks = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        if lines[i].starts_with("err ") {
            blocks.push(vec![lines[i].clone()]);
            i += 1;
        } else if lines[i].starts_with("ok answers=") {
            let mut block = Vec::new();
            while lines[i] != "end" {
                block.push(lines[i].clone());
                i += 1;
            }
            block.push(lines[i].clone());
            i += 1;
            blocks.push(block);
        } else {
            i += 1; // LOAD acks, `ok bye`
        }
    }
    blocks
}

#[test]
fn serve_survives_env_injected_worker_panics_bit_identically() {
    let mut rng = Rng::seed_from_u64(7);
    let mut rel = |name: &str| {
        let r = generators::uniform(name, 2, 400, 1024, &mut rng);
        let rows: Vec<String> = r.rows().map(|t| format!("{},{}", t[0], t[1])).collect();
        format!("LOAD {name} 2 {}\n", rows.join(";"))
    };
    let mut script = rel("S1");
    script.push_str(&rel("S2"));
    for _ in 0..12 {
        script.push_str("QUERY S1(x,z), S2(y,z) rows\n");
    }
    script.push_str("SHUTDOWN\n");

    let clean = serve_with_failpoints("", &script);
    let clean_blocks = query_blocks(&clean);
    assert_eq!(clean_blocks.len(), 12, "{clean_blocks:?}");
    // Uninjected rows are identical across repeats (drop the status line:
    // cache=miss flips to cache=hit after the first).
    let expected_rows = clean_blocks[0][1..].to_vec();
    for b in &clean_blocks {
        assert!(b[0].starts_with("ok answers="), "{b:?}");
        assert_eq!(b[1..], expected_rows[..]);
    }

    // Inject mid-query worker panics into the threaded local join. The
    // deterministic per-hit coin means some queries die and some survive;
    // every survivor must be bit-identical to the uninjected run, on the
    // same connection, after an earlier query was killed.
    let chaotic = serve_with_failpoints("local_join:panic:0.1", &script);
    let blocks = query_blocks(&chaotic);
    assert_eq!(blocks.len(), 12, "{blocks:?}");
    let died = blocks.iter().filter(|b| b[0].starts_with("err ")).count();
    assert!(died > 0, "p=0.1 over 12 queries x 4 servers never fired");
    assert!(died < 12, "every query died; nothing verified survival");
    let first_err = blocks
        .iter()
        .position(|b| b[0].starts_with("err "))
        .unwrap();
    assert!(
        blocks[first_err + 1..]
            .iter()
            .any(|b| b[0].starts_with("ok ")),
        "no query survived after the first injected panic"
    );
    for b in &blocks {
        if b[0].starts_with("err ") {
            assert_eq!(
                b[0], "err internal failpoint `local_join` injected panic",
                "{b:?}"
            );
        } else {
            assert_eq!(b[1..], expected_rows[..], "survivor rows drifted");
        }
    }
    assert_eq!(chaotic.last().map(String::as_str), Some("ok bye"));
}
