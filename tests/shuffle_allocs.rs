//! A round allocates every fragment once, at its final size, and once per
//! fragment key — a HyperCube subcube slice, a §4.1 heavy row or column —
//! rather than once per server holding it.
//!
//! One test in a binary of its own: it installs the counting global
//! allocator and reads its process-wide counter, which any other test
//! running in the same process would move.

use mpc_bench::alloc_counter::{alloc_count, CountingAllocator};
use mpc_bench::workloads::{skewed_join_db, uniform_db};
use mpc_skew::core::engine::{Algorithm, Engine, Plan};
use mpc_skew::data::Database;
use mpc_skew::query::named;
use mpc_skew::sim::backend::Backend;
use mpc_skew::sim::cluster::Cluster;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The allocations of one sequential round of `plan` over `db`, and the
/// fragments it made: the keys that received a row.
fn round_allocs(db: &Database, plan: &Plan) -> (u64, u64) {
    let before = alloc_count();
    let cluster = Cluster::run_round_on(db, plan.placement(), plan, Backend::Sequential);
    let allocs = alloc_count() - before;
    let l = db.query().num_atoms();
    let keys = |j: usize| (0..plan.placement().keys(j)).map(move |k| (j, k));
    let fragments = (0..l)
        .flat_map(keys)
        .filter(|&(j, k)| !cluster.fragment(j, k).is_empty());
    (allocs, fragments.count() as u64)
}

#[test]
fn a_round_allocates_each_fragment_once() {
    let q = named::cycle(3);
    let l = q.num_atoms() as u64;
    let engine = Engine::new(&q)
        .p(64)
        .seed(3)
        .algorithm(Algorithm::HyperCube);
    let hypercube = |m: usize| {
        let db = uniform_db(&q, m, 1 << 12, 7);
        let plan = engine.plan(&db);
        assert_eq!(plan.shares(), Some(vec![4, 4, 4]));
        round_allocs(&db, &plan)
    };
    // A HyperCube tuple is copied once per subcube slice, and the servers
    // of a slice share its fragment: 16 slices per atom on the 4x4x4
    // grid, each holding its 4 servers' copies, so 48 fragments where
    // there were 192. Per fragment: its name and its buffer. Per
    // relation: the key list, row ends, counts, the empty fragment and
    // the small vectors around them. Nothing per tuple — a fragment that
    // regrew by doubling would add log2(rows per fragment) each — and
    // nothing per server: the 2 * p * l this bound replaces is 384.
    let (small, slices) = hypercube(1 << 10);
    let (large, _) = hypercube(1 << 15);
    assert_eq!(slices, l * 16);
    assert_eq!(
        small, large,
        "allocations per round must not depend on the relation size"
    );
    assert!(
        large <= 2 * slices + 16 * l,
        "{large} allocations in one round"
    );

    // The §4.1 join with heavy values on both sides: a heavy S1 tuple has
    // one key, its row of the value's grid, however many columns hold it.
    let q = named::two_way_join();
    let db = skewed_join_db(&q, 1 << 13, 1 << 13, 1.2, 512, 5);
    let plan = Engine::new(&q).p(64).seed(3).plan(&db);
    assert_eq!(plan.algorithm(), Algorithm::SkewJoin);
    assert!(plan.num_heavy().unwrap() > 0);
    let (allocs, fragments) = round_allocs(&db, &plan);
    assert!(
        allocs <= 2 * fragments + 16 * 2,
        "{allocs} allocations for {fragments} fragments"
    );
}
