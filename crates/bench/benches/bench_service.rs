//! Resident-service throughput: how many queries per second the plan
//! cache + memoized statistics sustain, against the per-query rebuild
//! path (fresh `Database`, fresh `ExactStats`, fresh plan every time)
//! that a process without the [`Service`] would pay.
//!
//! The stream mixes shapes whose planning cost spans two orders of
//! magnitude: the 6-variable star's share-LP vertex enumeration is ~15x
//! its execution cost at this scale, the triangle's closer to 2x — the
//! cache's win is exactly the planning it skips.
//!
//! `wire_render/*` times the reply renderer alone — one outcome, already
//! materialized, appended to a reused buffer — so `allocs_per_iter` is the
//! renderer's own: 0 once the buffer is warm, however many rows.

use mpc_core::engine::Engine;
use mpc_core::service::{QuerySpec, Service};
use mpc_core::wire::render_outcome;
use mpc_data::{generators, Database, Relation, Rng};
use mpc_query::{named, parse_aggregate_query, Query};
use mpc_sim::backend::Backend;
use mpc_testkit::criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

/// Count every heap allocation so `allocs_per_iter` lands in the bench
/// JSON records (see `mpc_bench::alloc_counter`).
#[global_allocator]
static ALLOC: mpc_bench::alloc_counter::CountingAllocator =
    mpc_bench::alloc_counter::CountingAllocator;

const M: usize = 1 << 10;
const DOMAIN: u64 = 1 << 10;
const P: usize = 16;

/// Five shared binary relations S1..S5; every query shape in the stream
/// joins a subset of them, the way service clients share one catalog.
fn catalog() -> Vec<Relation> {
    let mut rng = Rng::seed_from_u64(9);
    (1..=5)
        .map(|i| generators::uniform(&format!("S{i}"), 2, M, DOMAIN, &mut rng))
        .collect()
}

/// The query stream: one wide star (planning-heavy), one triangle, one
/// 4-cycle.
fn stream() -> Vec<Query> {
    vec![named::star(5), named::cycle(3), named::cycle(4)]
}

/// The relations `q` joins, resolved from the catalog by atom name.
fn rels_for(q: &Query, rels: &[Relation]) -> Vec<Relation> {
    q.atoms()
        .iter()
        .map(|a| {
            rels.iter()
                .find(|r| r.name() == a.name())
                .expect("catalog relation")
                .clone()
        })
        .collect()
}

fn bench_service_qps(c: &mut Criterion) {
    let rels = catalog();
    let queries = stream();

    let mut g = c.benchmark_group("service_qps");
    // One element = one answered query, so `thrpt` reads as queries/sec.
    g.throughput(Throughput::Elements(queries.len() as u64));

    // Resident service: relations loaded once, statistics memoized, every
    // plan served from the cache after the first round.
    let mut svc = Service::new(DOMAIN)
        .with_backend(Backend::Sequential)
        .with_defaults(P, 1);
    for r in &rels {
        svc.load(r.clone()).expect("load");
    }
    g.bench_function(BenchmarkId::from_parameter("resident"), |b| {
        b.iter(|| {
            for q in &queries {
                let out = svc.query(black_box(q)).expect("query");
                black_box(out.answers().len());
            }
        })
    });

    // The baseline a service-less process pays per query: revalidate the
    // tuples into a fresh Database, recompute exact statistics, replan,
    // then execute.
    g.bench_function(BenchmarkId::from_parameter("rebuild"), |b| {
        b.iter(|| {
            for q in &queries {
                let db = Database::new(q.clone(), rels_for(q, &rels), DOMAIN).expect("valid db");
                let plan = Engine::new(q).p(P).seed(1).plan(&db);
                let out = plan.execute(&db, Backend::Sequential);
                black_box(out.answers().len());
            }
        })
    });
    g.finish();
}

/// Render one resident outcome into a reused buffer: a 100 352-row
/// answer (`mpcbench`'s `rows_out` shape: 8 hot join values, fan-out 112
/// on both sides), its 8-group aggregate twin, and the status line alone.
fn bench_wire_render(c: &mut Criterion) {
    const HOT: u64 = 8;
    const FAN: u64 = 112;
    let side = |name: &str, base: u64| {
        let flat = (0..HOT)
            .flat_map(|z| (0..FAN).flat_map(move |v| [base + z * FAN + v, z]))
            .collect();
        Relation::from_flat(name, 2, flat)
    };
    let mut svc = Service::new(1 << 11)
        .with_backend(Backend::Sequential)
        .with_defaults(P, 1);
    svc.load(side("S1", 0)).expect("load");
    svc.load(side("S2", HOT * FAN)).expect("load");
    let (plain, _) = parse_aggregate_query("S1(x,z), S2(y,z)").expect("parses");
    let (body, head) =
        parse_aggregate_query("Q(z; count, sum(x)) :- S1(x,z), S2(y,z)").expect("parses");
    let rows = svc.query(&plain).expect("query");
    assert_eq!(rows.answers().len() as u64, HOT * FAN * FAN);
    let groups = svc
        .query_spec(&QuerySpec::new(body).aggregate(head.expect("aggregate head")))
        .expect("query");

    let mut g = c.benchmark_group("wire_render");
    let mut buf = String::new();
    for (name, outcome, want_rows) in [
        ("rows_100k", &rows, true),
        ("groups_8", &groups, true),
        ("status_only", &rows, false),
    ] {
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                buf.clear();
                render_outcome(&mut buf, black_box(outcome), want_rows);
                black_box(buf.len())
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = {
        mpc_testkit::criterion::set_alloc_probe(mpc_bench::alloc_counter::alloc_count);
        Criterion::default()
    };
    targets = bench_service_qps, bench_wire_render
}
criterion_main!(benches);
