//! End-to-end shuffle throughput of the HyperCube algorithm: one full
//! communication round (routing + fragment materialization) per iteration.

use mpc_bench::workloads::uniform_db;
use mpc_core::hypercube::HyperCube;
use mpc_query::named;
use mpc_sim::backend::Backend;
use mpc_stats::SimpleStatistics;
use mpc_testkit::criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

/// Count every heap allocation so `allocs_per_iter` lands in the bench
/// JSON records (see `mpc_bench::alloc_counter`).
#[global_allocator]
static ALLOC: mpc_bench::alloc_counter::CountingAllocator =
    mpc_bench::alloc_counter::CountingAllocator;

fn bench_round(c: &mut Criterion) {
    let backend = Backend::from_env();
    let mut g = c.benchmark_group("hypercube_round");
    // `chain3_32k` is `uniform_hit`'s heaviest round: shares `[1,8,8,1]`
    // send every tuple of S1 and S3 to 8 servers and of S2 to one —
    // 557 056 destinations.
    for (name, q, m, n, ps) in [
        (
            "join_16k",
            named::two_way_join(),
            1usize << 14,
            1u64 << 16,
            &[16usize, 64][..],
        ),
        ("triangle_8k", named::cycle(3), 1 << 13, 1 << 12, &[16, 64]),
        ("star3_8k", named::star(3), 1 << 13, 1 << 12, &[16, 64]),
        ("chain3_32k", named::chain(3), 1 << 15, 1 << 16, &[64]),
    ] {
        let db = uniform_db(&q, m, n, 7);
        let st = SimpleStatistics::of(&db);
        let total: u64 = db.cardinalities().iter().map(|&c| c as u64).sum();
        g.throughput(Throughput::Elements(total));
        for &p in ps {
            let hc = HyperCube::with_optimal_shares(&q, &st, p, 3);
            g.bench_function(BenchmarkId::new(name, p), |b| {
                b.iter(|| {
                    let (cluster, report) = hc.run_on(black_box(&db), backend);
                    black_box((cluster.p(), report.max_load_bits()))
                })
            });
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = {
        mpc_testkit::criterion::set_alloc_probe(mpc_bench::alloc_counter::alloc_count);
        Criterion::default().sample_size(10)
    };
    targets = bench_round
}
criterion_main!(benches);
