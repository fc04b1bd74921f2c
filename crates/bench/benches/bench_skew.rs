//! Skew-handling round throughput: planning + one communication round for
//! the Section 4.1 skew join, the Section 4.2 general algorithm, and the
//! hash-join baseline, on a Zipf(1.2) workload.

use mpc_bench::workloads::skewed_join_db;
use mpc_core::baselines::HashJoinRouter;
use mpc_core::skew_general::GeneralSkewAlgorithm;
use mpc_core::skew_join::SkewJoin;
use mpc_query::{named, VarSet};
use mpc_sim::backend::Backend;
use mpc_testkit::criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

/// Count every heap allocation so `allocs_per_iter` lands in the bench
/// JSON records (see `mpc_bench::alloc_counter`).
#[global_allocator]
static ALLOC: mpc_bench::alloc_counter::CountingAllocator =
    mpc_bench::alloc_counter::CountingAllocator;

fn bench_skew_round(c: &mut Criterion) {
    let backend = Backend::from_env();
    let q = named::two_way_join();
    let m = 1usize << 14;
    let db = skewed_join_db(&q, m, 1 << 14, 1.2, 400, 5);
    let p = 64usize;
    let z = q.var_index("z").unwrap();

    let mut g = c.benchmark_group("skew_round");
    g.throughput(Throughput::Elements(2 * m as u64));

    g.bench_function(BenchmarkId::new("hash_join", p), |b| {
        let router = HashJoinRouter::new(&q, VarSet::singleton(z), p, 1);
        b.iter(|| {
            let (_, report) = router.run_on(black_box(&db), backend);
            black_box(report.max_load_tuples())
        })
    });

    g.bench_function(BenchmarkId::new("skew_join_plan_and_run", p), |b| {
        b.iter(|| {
            let sj = SkewJoin::plan(black_box(&db), p, 2);
            let (cluster, _) = sj.run_on(&db, backend);
            black_box(cluster.p())
        })
    });

    // Planned outside `bench_function`: its closure runs once per sample,
    // so a plan built inside it would leak plan allocations ÷
    // iterations-per-sample into `allocs_per_iter`.
    let sj = SkewJoin::plan(&db, p, 2);
    g.bench_function(BenchmarkId::new("skew_join_run_only", p), |b| {
        b.iter(|| {
            let (cluster, report) = sj.run_on(black_box(&db), backend);
            black_box((cluster.p(), report.max_load_tuples()))
        })
    });

    g.bench_function(BenchmarkId::new("general_alg_plan", p), |b| {
        b.iter(|| {
            let alg = GeneralSkewAlgorithm::plan(black_box(&db), p, 3);
            black_box(alg.virtual_servers())
        })
    });

    let alg = GeneralSkewAlgorithm::plan(&db, p, 3);
    g.bench_function(BenchmarkId::new("general_alg_run_only", p), |b| {
        b.iter(|| {
            let (cluster, report) = alg.run_on(black_box(&db), backend);
            black_box((cluster.p(), report.max_load_bits()))
        })
    });

    g.finish();
}

criterion_group! {
    name = benches;
    config = {
        mpc_testkit::criterion::set_alloc_probe(mpc_bench::alloc_counter::alloc_count);
        Criterion::default().sample_size(10)
    };
    targets = bench_skew_round
}
criterion_main!(benches);
