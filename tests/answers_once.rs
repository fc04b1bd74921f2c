//! Answers are held once, by the layer that computes them, and only
//! when a caller reads them.
//!
//! The tests read the process-wide `rows_materialized_total` /
//! `visited_bindings_total` counters, which any other test running in the
//! same process would move: they share this binary with no other test and
//! take `COUNTERS` so that they run one at a time.

use mpc_skew::core::engine::{Algorithm, Engine};
use mpc_skew::core::service::{QuerySpec, Service};
use mpc_skew::core::wire::Session;
use mpc_skew::data::{
    generators, rows_materialized_total, visited_bindings_total, Database, Relation, Rng,
};
use mpc_skew::query::named;
use mpc_skew::sim::backend::Backend;
use mpc_skew::sim::oracle::join_database;
use std::sync::{Mutex, PoisonError};

static COUNTERS: Mutex<()> = Mutex::new(());

#[test]
fn an_outcome_joins_its_answers_once() {
    let _counters = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let q = named::two_way_join();
    let n = 1u64 << 10;
    let mut rng = Rng::seed_from_u64(16);
    let s1 = generators::uniform("S1", 2, 800, n, &mut rng);
    let s2 = generators::uniform("S2", 2, 800, n, &mut rng);
    let db = Database::new(q.clone(), vec![s1.clone(), s2.clone()], n).unwrap();

    // `RunOutcome::answers`: lazy under `Plan::execute`, joined by the
    // first read, borrowed by every later one.
    let plan = Engine::new(&q).p(8).seed(3).plan(&db);
    let outcome = plan.execute(&db, Backend::Sequential);
    let before = rows_materialized_total();
    assert!(!outcome.answers().is_empty());
    let first_read = rows_materialized_total() - before;
    assert!(first_read >= outcome.answers().len() as u64);
    assert!(std::ptr::eq(outcome.answers(), outcome.answers()));
    assert_eq!(rows_materialized_total() - before, first_read);

    // `ServiceOutcome::try_answers` after a `limit=` query: the budgeted
    // execution already joined the answers; reading them joins nothing.
    let mut svc = Service::new(n)
        .with_backend(Backend::Sequential)
        .with_defaults(8, 3);
    svc.load(s1).unwrap();
    svc.load(s2).unwrap();
    let capped = svc
        .query_spec(&QuerySpec::new(q).limit(1 << 20))
        .expect("the cap is far away");
    let (bindings, rows) = (visited_bindings_total(), rows_materialized_total());
    let read = capped.try_answers().expect("already materialized");
    assert_eq!(read, outcome.answers());
    assert!(std::ptr::eq(read, capped.answers()));
    assert_eq!(visited_bindings_total(), bindings, "a second join ran");
    assert_eq!(rows_materialized_total(), rows, "a second set was built");
}

#[test]
fn a_query_without_rows_counts_without_materializing() {
    let _counters = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    // Zipf(1.2) on z over a small domain: heavy z values for the skew join
    // and duplicated rows, so a server's join emits some bindings twice.
    let n = 1u64 << 6;
    let mut rng = Rng::seed_from_u64(43);
    let s1 = generators::zipf_column("S1", 2, 2000, n, 1, 1.2, &mut rng);
    let s2 = generators::zipf_column("S2", 2, 2000, n, 1, 1.2, &mut rng);
    let mut svc = Service::new(n)
        .with_backend(Backend::Sequential)
        .with_defaults(16, 3);
    svc.load(s1).unwrap();
    svc.load(s2).unwrap();
    let mut session = Session::new();
    // One query's reply and the answer rows it materialized.
    let mut ask = |line: &str| {
        let before = rows_materialized_total();
        let reply = session.handle(&mut svc, line);
        assert!(reply[0].starts_with("ok answers="), "{line}: {reply:?}");
        (reply, rows_materialized_total() - before)
    };
    for algo in ["hc", "skew-join"] {
        for limit in ["", " limit=100000000"] {
            let query = format!("QUERY S1(x,z), S2(y,z) algo={algo}{limit}");
            // The first run plans; the next two are both cache hits.
            ask(&format!("{query} rows"));
            let (counted, materialized) = ask(&query);
            assert_eq!(materialized, 0, "{query} materialized answers");
            let (listed, materialized) = ask(&format!("{query} rows"));
            assert_eq!(counted[0], listed[0], "{query}: status lines differ");
            let rows = listed.len() as u64 - 2;
            assert!(rows > 1000 && materialized >= rows, "{query}: {rows} rows");
        }
    }
    // `general` repeats bindings across servers: its count materializes.
    let query = "QUERY S1(x,z), S2(y,z) algo=general";
    ask(query);
    let (_, materialized) = ask(query);
    assert!(materialized > 0, "{query} counted per server");
}

#[test]
fn answers_hold_each_emitted_binding_once() {
    let _counters = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    // 600 copies of one joining pair in each atom: one answer with
    // 600 × 600 derivations. A server's join emits it once per copy of its
    // driver row, with multiplicity 600 each time.
    let q = named::two_way_join();
    let (mut s1, mut s2) = (Relation::new("S1", 2), Relation::new("S2", 2));
    for _ in 0..600 {
        s1.push(&[3, 7]);
        s2.push(&[5, 7]);
    }
    let db = Database::new(q.clone(), vec![s1, s2], 1 << 4).unwrap();
    let plan = (Engine::new(&q).p(16).seed(3))
        .algorithm(Algorithm::HyperCube)
        .plan(&db);
    let outcome = plan.execute(&db, Backend::Sequential);
    let expected = join_database(&db);
    let before = rows_materialized_total();
    assert_eq!(outcome.answers(), &expected);
    let collected = rows_materialized_total() - before;
    assert_eq!(expected.len(), 1);
    assert!(
        collected <= 600,
        "answers() collected {collected} rows for 600 emits"
    );
}
