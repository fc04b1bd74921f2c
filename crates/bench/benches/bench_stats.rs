//! Statistics-maintenance cost: building planner statistics from scratch
//! (`stats_build/{exact,sketch}`) and keeping them fresh under ingest
//! (`service_append_sketch`). The `scan_bytes_per_iter` counter is the
//! acceptance probe — a sketch-mode service folds appended tuples into
//! its SpaceSaving summaries without rescanning the relation, so its
//! scan bytes stay flat as the resident relation grows, while the
//! rebuild path's full `ExactStats` scan grows linearly.

use mpc_core::engine::{sketch_capacity, Engine, ExactStats, SketchStats, Stats, StatsMode};
use mpc_core::service::Service;
use mpc_data::{generators, Database, Relation, Rng};
use mpc_query::named;
use mpc_sim::backend::Backend;
use mpc_testkit::criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

/// Count every heap allocation so `allocs_per_iter` lands in the bench
/// JSON records (see `mpc_bench::alloc_counter`).
#[global_allocator]
static ALLOC: mpc_bench::alloc_counter::CountingAllocator =
    mpc_bench::alloc_counter::CountingAllocator;

const DOMAIN: u64 = 1 << 16;
const P: usize = 16;
const SIZES: [usize; 3] = [1 << 12, 1 << 14, 1 << 16];

/// A two-way-join database with Zipf(1.1) join-column skew at `m` tuples
/// per relation — enough heavy mass that heavy-hitter extraction does
/// real work.
fn zipf_db(m: usize) -> Database {
    let q = named::two_way_join();
    let mut rng = Rng::seed_from_u64(0xBE9C_0000 + m as u64);
    let d1 = generators::zipf_degrees(m, DOMAIN, 1.1);
    let d2 = generators::zipf_degrees(m, DOMAIN, 1.1);
    let s1 = generators::from_degree_sequence("S1", 2, &[1], &d1, DOMAIN, &mut rng);
    let s2 = generators::from_degree_sequence("S2", 2, &[1], &d2, DOMAIN, &mut rng);
    Database::new(q, vec![s1, s2], DOMAIN).expect("valid db")
}

/// Build statistics from scratch and extract the join-column heavy
/// hitters of both atoms — the work `Engine::plan` pays per plan.
fn bench_stats_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("stats_build");
    for m in SIZES {
        let db = zipf_db(m);
        g.throughput(Throughput::Elements(2 * m as u64));
        g.bench_function(BenchmarkId::new("exact", m), |b| {
            b.iter(|| {
                let stats = ExactStats::of(black_box(&db));
                let h0 = stats.heavy_hitters(0, &[1], P);
                let h1 = stats.heavy_hitters(1, &[1], P);
                black_box(h0.len() + h1.len())
            })
        });
        g.bench_function(BenchmarkId::new("sketch", m), |b| {
            b.iter(|| {
                let stats = SketchStats::of(black_box(&db), sketch_capacity(P));
                let h0 = stats.heavy_hitters(0, &[1], P);
                let h1 = stats.heavy_hitters(1, &[1], P);
                black_box(h0.len() + h1.len())
            })
        });
    }
    g.finish();
}

/// Uniform variant of [`zipf_db`]: skew-free join columns keep the
/// answer set (and so query-execution time) small, so the append arms
/// below measure statistics maintenance rather than join output.
fn uniform_db(m: usize) -> Database {
    let q = named::two_way_join();
    let mut rng = Rng::seed_from_u64(0xBE9C_1111 + m as u64);
    let s1 = generators::uniform("S1", 2, m, DOMAIN, &mut rng);
    let s2 = generators::uniform("S2", 2, m, DOMAIN, &mut rng);
    Database::new(q, vec![s1, s2], DOMAIN).expect("valid db")
}

/// The 32-tuple batch round `round` appends to `S2`.
fn append_batch(round: u64) -> Vec<u64> {
    (0..32u64)
        .flat_map(|i| [i, (i * 7 + round) % DOMAIN])
        .collect()
}

/// One ingest round against a relation of `m` tuples, the same work on
/// every arm: append a 32-tuple batch, answer the join, read the answers.
/// In sketch mode the append folds into the summaries and the fingerprint
/// reads them back — no rescan, so `scan_bytes_per_iter` is flat in `m`.
/// The rebuild arm is the service-less process: it revalidates the grown
/// relations into a fresh `Database` and replans from a fresh
/// `ExactStats` each round, so its scan bytes grow with `m`.
fn bench_service_append(c: &mut Criterion) {
    let q = named::two_way_join();
    let mut g = c.benchmark_group("service_append_sketch");
    g.throughput(Throughput::Elements(32));
    for m in SIZES {
        for (tag, mode) in [("sketch", StatsMode::Sketch), ("exact", StatsMode::Exact)] {
            let mut svc = Service::new(DOMAIN)
                .with_backend(Backend::Sequential)
                .with_defaults(P, 1)
                .with_stats_mode(mode);
            let db = uniform_db(m);
            for r in db.relations() {
                svc.load(r.as_ref().clone()).expect("load");
            }
            let mut round = 0u64;
            g.bench_function(BenchmarkId::new(format!("resident_{tag}"), m), |b| {
                b.iter(|| {
                    round += 1;
                    svc.append("S2", black_box(&append_batch(round)))
                        .expect("append");
                    let out = svc.query(&q).expect("query");
                    black_box(out.answers().len())
                })
            });
        }
        // The service-less baseline: rebuild the database and replan from
        // fresh exact statistics after every batch — the full-relation
        // scan the sketch avoids.
        let mut rels: Vec<Relation> = uniform_db(m)
            .relations()
            .iter()
            .map(|r| r.as_ref().clone())
            .collect();
        let mut round = 0u64;
        g.bench_function(BenchmarkId::new("rebuild_exact", m), |b| {
            b.iter(|| {
                round += 1;
                rels[1].push_rows(black_box(&append_batch(round)));
                let db = Database::new(q.clone(), rels.clone(), DOMAIN).expect("valid db");
                let plan = Engine::new(&q).p(P).seed(1).plan(&db);
                let out = plan.execute(&db, Backend::Sequential);
                black_box(out.answers().len())
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = {
        mpc_testkit::criterion::set_alloc_probe(mpc_bench::alloc_counter::alloc_count);
        mpc_testkit::criterion::set_counter_probe(
            "scan_bytes_per_iter",
            mpc_data::stats_scan_bytes_total,
        );
        Criterion::default().sample_size(10)
    };
    targets = bench_stats_build, bench_service_append
}
criterion_main!(benches);
