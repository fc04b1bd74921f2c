//! Aggregate pushdown vs materialize-then-fold, end to end through the
//! engine, on the workloads where the difference is structural:
//!
//! * `aggregate/count_star_zipf` — global `COUNT(*)` over the correlated
//!   Zipf join (the same Zipf degree sequence on both sides, so the join
//!   output grows like `Σ_z d(z)²`);
//! * `aggregate/group_by_product_skew` — `Q(z; count, sum(x))` over the
//!   planted hot-value product workload (`|output| = hot · fanout² ≫
//!   |inputs|`).
//!
//! Each workload runs twice: the pushdown path (`Engine::aggregate`, per
//! -server folds merged, answers never materialized) and the baseline
//! that materializes the bag of answer rows and folds the same aggregate
//! over them afterwards. Wall-clock medians are one signal; the
//! machine-noise-free ones are in the JSON records: `allocs_per_iter`
//! and `rows_materialized_per_iter` (the `mpc_data` answer-row counter)
//! stay near zero on pushdown and grow with `|output|` on the baseline.

use mpc_bench::workloads::{correlated_zipf_db, product_skew_db};
use mpc_core::aggregate::{aggregate_cluster, AggregateAccumulator, Mergeable};
use mpc_core::engine::Engine;
use mpc_data::catalog::Database;
use mpc_data::{AnswerSet, QueryBudget};
use mpc_query::aggregate::AggregateSpec;
use mpc_query::{named, parse_aggregate_query};
use mpc_sim::backend::Backend;
use mpc_testkit::criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

/// Count every heap allocation so `allocs_per_iter` lands in the bench
/// JSON records (see `mpc_bench::alloc_counter`).
#[global_allocator]
static ALLOC: mpc_bench::alloc_counter::CountingAllocator =
    mpc_bench::alloc_counter::CountingAllocator;

const P: usize = 16;

/// The materialize-then-fold baseline: per-server local joins push every
/// bag row into an [`AnswerSet`] (exactly what the non-aggregate engine
/// path materializes), then one pass over the rows feeds the same
/// accumulator the pushdown folds during the join.
fn materialize_then_fold(
    cluster: &mpc_sim::cluster::Cluster,
    query: &mpc_query::Query,
    spec: &AggregateSpec,
) -> mpc_core::aggregate::AggregateResult {
    let parts = cluster
        .fold_answers(
            query,
            &QueryBudget::unlimited(),
            || AnswerSet::new(query.num_vars()),
            |rows, binding, mult| {
                rows.push_repeat(binding, mult);
                Ok(())
            },
        )
        .expect("no budget is set");
    let mut acc = AggregateAccumulator::new(spec);
    for part in parts {
        let mut local = AggregateAccumulator::new(spec);
        for row in part.rows() {
            local.fold(row, 1);
        }
        acc.merge(local);
    }
    acc.finish()
}

fn run_pair(
    g: &mut mpc_testkit::criterion::BenchmarkGroup<'_>,
    name: &str,
    db: &Database,
    spec: &AggregateSpec,
) {
    let q = db.query();
    let backend = Backend::from_env();
    let plan = Engine::new(q)
        .p(P)
        .seed(3)
        .backend(backend)
        .aggregate(spec.clone())
        .plan(db);
    // Shuffle once; both variants collect from the same cluster state so
    // the measured gap is purely collect-side (fold-during-join vs
    // materialize-rows-then-fold).
    let outcome = plan.execute(db, backend);
    let cluster = outcome.cluster().expect("aggregate plans are one-round");
    let pushdown = outcome.aggregate().expect("plan carries the spec");
    assert_eq!(
        pushdown,
        &materialize_then_fold(cluster, q, spec),
        "baseline and pushdown must agree on {name}"
    );

    let total_tuples: usize = db.cardinalities().iter().sum();
    g.throughput(Throughput::Elements(total_tuples as u64));
    g.bench_function(BenchmarkId::new(name, "pushdown"), |b| {
        b.iter(|| {
            let folded = aggregate_cluster(cluster, q, spec, &QueryBudget::unlimited());
            black_box(folded.expect("no budget is set").num_groups())
        })
    });
    g.bench_function(BenchmarkId::new(name, "materialize"), |b| {
        b.iter(|| black_box(materialize_then_fold(cluster, q, spec).num_groups()))
    });
}

fn bench_aggregate(c: &mut Criterion) {
    mpc_testkit::criterion::set_alloc_probe(mpc_bench::alloc_counter::alloc_count);
    mpc_testkit::criterion::set_counter_probe(
        "rows_materialized_per_iter",
        mpc_data::rows_materialized_total,
    );

    let mut g = c.benchmark_group("aggregate");

    let q = named::two_way_join();
    let (_, count_star) = parse_aggregate_query("Q(; count) :- S1(x,z), S2(y,z)").unwrap();
    let zipf = correlated_zipf_db(&q, 1 << 13, 1 << 14, 1.1, 7);
    run_pair(&mut g, "count_star_zipf", &zipf, &count_star.unwrap());

    let (_, group_by) = parse_aggregate_query("Q(z; count, sum(x)) :- S1(x,z), S2(y,z)").unwrap();
    // 8 hot values x 192² pairs: ~295k derivations from 8k input tuples.
    let product = product_skew_db(&q, 1 << 12, 1 << 14, 8, 192, 9);
    run_pair(
        &mut g,
        "group_by_product_skew",
        &product,
        &group_by.unwrap(),
    );

    g.finish();
}

criterion_group!(benches, bench_aggregate);
criterion_main!(benches);
