//! Answers are held once, by the layer that computes them.
//!
//! One test in a binary of its own: it reads the process-wide
//! `rows_materialized_total` / `visited_bindings_total` counters, which
//! any other test running in the same process would move.

use mpc_skew::core::engine::Engine;
use mpc_skew::core::service::{QuerySpec, Service};
use mpc_skew::data::{generators, rows_materialized_total, visited_bindings_total, Database, Rng};
use mpc_skew::query::named;
use mpc_skew::sim::backend::Backend;

#[test]
fn an_outcome_joins_its_answers_once() {
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
