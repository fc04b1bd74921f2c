//! Local multiway-join throughput (the per-server compute step) and the
//! full-cluster Zipf end-to-end case (shuffle + per-server local joins)
//! on every execution backend, including the many-small-rounds case.

use mpc_bench::workloads::{skewed_join_db, uniform_db, zipf_triangle_db};
use mpc_core::engine::{Algorithm, Engine};
use mpc_core::skew_join::SkewJoin;
use mpc_data::{Join, JoinOrder, QueryBudget, Relation};
use mpc_query::named;
use mpc_sim::backend::Backend;
use mpc_testkit::criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

/// Count every heap allocation so `allocs_per_iter` lands in the bench
/// JSON records (see `mpc_bench::alloc_counter`).
#[global_allocator]
static ALLOC: mpc_bench::alloc_counter::CountingAllocator =
    mpc_bench::alloc_counter::CountingAllocator;

fn bench_local_join(c: &mut Criterion) {
    let mut g = c.benchmark_group("local_join");
    for (name, q, m, n) in [
        ("join_16k", named::two_way_join(), 1usize << 14, 1u64 << 14),
        ("triangle_4k", named::cycle(3), 1usize << 12, 1u64 << 8),
        ("chain3_8k", named::chain(3), 1usize << 13, 1u64 << 12),
    ] {
        let db = uniform_db(&q, m, n, 3);
        let rels: Vec<&Relation> = db.relations().iter().map(|r| r.as_ref()).collect();
        g.throughput(Throughput::Elements((m * q.num_atoms()) as u64));
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| black_box(Join::new(black_box(&q), &rels).count()))
        });
    }

    // The dynamic-vs-fixed differential pairs: the default dynamic order
    // (what `count()` above already runs) against the legacy fixed atom
    // order on the uniform triangle and on the locally-skewed triangle
    // (`zipf_triangle_db`: x2 Zipf-hot in both S1 and S2). The
    // `bindings_per_iter` field in the JSON records — the visited-bindings
    // counter both engines advance — is the machine-noise-free signal next
    // to wall-clock medians: dynamic < fixed is the point of this PR.
    let tri = named::cycle(3);
    let uniform = uniform_db(&tri, 1usize << 12, 1u64 << 8, 3);
    let skewed = zipf_triangle_db(&tri, 1usize << 12, 1u64 << 8, 1.2, 11);
    for (name, db, order) in [
        ("triangle_4k_fixed", &uniform, JoinOrder::Fixed),
        ("skewed_triangle", &skewed, JoinOrder::Dynamic),
        ("skewed_triangle_fixed", &skewed, JoinOrder::Fixed),
    ] {
        let rels: Vec<&Relation> = db.relations().iter().map(|r| r.as_ref()).collect();
        g.throughput(Throughput::Elements((rels.len() << 12) as u64));
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| black_box(Join::new(black_box(&tri), &rels).order(order).count()))
        });
    }
    g.finish();
}

/// The cost of cooperative budget enforcement on the local-join hot loop:
/// the same `join_16k` workload unbudgeted (no `Join::budget`, the
/// untracked probe) versus under a budget that never trips (a far-future
/// deadline, so every check is live but no limit fires). The budgeted
/// variant pays one predicted compare per visited binding plus a
/// `charge_rows` per emitted answer — the PR's acceptance gate is that
/// `local_join/*` itself (which stays on the untracked path) regresses
/// < 2%, with this pair quantifying the opt-in cost of a real budget.
fn bench_deadline_overhead(c: &mut Criterion) {
    let q = named::two_way_join();
    let m = 1usize << 14;
    let db = uniform_db(&q, m, 1u64 << 14, 3);
    let rels: Vec<&Relation> = db.relations().iter().map(|r| r.as_ref()).collect();

    let mut g = c.benchmark_group("deadline_overhead");
    g.throughput(Throughput::Elements((m * q.num_atoms()) as u64));
    g.bench_function(BenchmarkId::from_parameter("unbudgeted"), |b| {
        b.iter(|| black_box(Join::new(black_box(&q), &rels).count()))
    });
    g.bench_function(BenchmarkId::from_parameter("far_deadline"), |b| {
        b.iter(|| {
            let budget = QueryBudget::new(Some(Duration::from_secs(3600)), None, None);
            let count = Join::new(black_box(&q), &rels).budget(&budget).count();
            black_box(count.expect("far-future deadline never trips"))
        })
    });
    g.finish();
}

/// The large Zipf end-to-end case: plan once, then per iteration run the
/// full round (shuffle + load report + every server's local join) on a
/// given backend. `Sequential` vs `Threads(4)` quantifies the parallel
/// executor's wall-clock win (parity on single-core machines — results are
/// bit-identical either way).
fn bench_cluster_zipf(c: &mut Criterion) {
    let q = named::two_way_join();
    let m = 1usize << 15;
    let db = skewed_join_db(&q, m, 1 << 15, 1.2, 500, 5);
    let p = 64usize;
    let sj = SkewJoin::plan(&db, p, 2);

    let mut g = c.benchmark_group("cluster_zipf");
    g.throughput(Throughput::Elements(2 * m as u64));
    for (name, backend) in [
        ("sequential", Backend::Sequential),
        ("threads4", Backend::Threads(4)),
    ] {
        g.bench_function(BenchmarkId::new("skew_join_e2e", name), |b| {
            b.iter(|| {
                let (cluster, report) = sj.run_on(black_box(&db), backend);
                black_box((cluster.all_answers(&q).len(), report.max_load_bits()))
            })
        });
    }

    // The same round dispatched through the unified engine plan: `auto`
    // resolves to the identical skew join, so the median vs `sequential`
    // above isolates the engine's dispatch overhead (expected: none — one
    // vtable hop per routed tuple batch and a metadata-carrying wrapper).
    let plan = Engine::new(&q).p(p).seed(2).plan(&db);
    assert_eq!(plan.algorithm(), Algorithm::SkewJoin);
    g.bench_function(
        BenchmarkId::new("skew_join_e2e", "engine_sequential"),
        |b| {
            b.iter(|| {
                let outcome = plan.execute(black_box(&db), Backend::Sequential);
                let cluster = outcome.cluster().expect("one-round outcome");
                black_box((cluster.all_answers(&q).len(), outcome.max_load_bits()))
            })
        },
    );

    // Many-small-rounds case: 16 rounds per iteration on Threads(4). At
    // 4 096 rows per relation the shuffle does not split (its threshold is
    // more than 4 096 rows), nor does the 16-server load report, so every
    // round runs inline: small rounds pay nothing for threads.
    let rounds = 16usize;
    let m_small = 1usize << 12;
    let small = skewed_join_db(&q, m_small, 1 << 12, 1.2, 200, 7);
    let sj_small = SkewJoin::plan(&small, 16, 2);
    g.throughput(Throughput::Elements((rounds * 2 * m_small) as u64));
    g.bench_function(BenchmarkId::new("small_rounds_x16", "threads4"), |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..rounds {
                let (cluster, report) = sj_small.run_on(black_box(&small), Backend::Threads(4));
                acc ^= report.max_load_bits() ^ cluster.p() as u64;
            }
            black_box(acc)
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = {
        mpc_testkit::criterion::set_alloc_probe(mpc_bench::alloc_counter::alloc_count);
        mpc_testkit::criterion::set_counter_probe(
            "bindings_per_iter",
            mpc_data::join::visited_bindings_total,
        );
        Criterion::default().sample_size(10)
    };
    targets = bench_local_join, bench_deadline_overhead, bench_cluster_zipf
}
criterion_main!(benches);
