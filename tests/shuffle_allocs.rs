//! A round allocates every fragment once, at its final size, and once per
//! subcube slice rather than once per server.
//!
//! One test in a binary of its own: it installs the counting global
//! allocator and reads its process-wide counter, which any other test
//! running in the same process would move.

use mpc_bench::alloc_counter::{alloc_count, CountingAllocator};
use mpc_bench::workloads::uniform_db;
use mpc_skew::core::hypercube::HyperCube;
use mpc_skew::query::named;
use mpc_skew::sim::backend::Backend;
use mpc_skew::sim::cluster::Cluster;
use mpc_skew::stats::SimpleStatistics;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn a_round_allocates_each_fragment_once() {
    let q = named::cycle(3);
    let (p, l) = (64u64, q.num_atoms() as u64);
    let round_allocs = |m: usize| {
        let db = uniform_db(&q, m, 1 << 12, 7);
        let hc = HyperCube::with_optimal_shares(&q, &SimpleStatistics::of(&db), p as usize, 3);
        assert_eq!(hc.grid().dims(), &[4, 4, 4]);
        let before = alloc_count();
        let cluster = Cluster::run_round_on(&db, p as usize, &hc, Backend::Sequential);
        let allocs = alloc_count() - before;
        assert_eq!(cluster.report().total_tuples(), 3 * 4 * m as u64);
        allocs
    };
    // A HyperCube tuple is copied once per subcube slice, and the servers
    // of a slice share its fragment: 16 slices per atom on the 4x4x4
    // grid, each holding its 4 servers' copies, so 48 fragments where
    // there were 192. Per fragment: its name and its buffer. Per
    // relation: the key list, row ends, counts, the empty fragment and
    // the small vectors around them. Nothing per tuple — a fragment that
    // regrew by doubling would add log2(rows per fragment) each — and
    // nothing per server: the 2 * p * l this bound replaces is 384.
    let slices = l * 16;
    let small = round_allocs(1 << 10);
    let large = round_allocs(1 << 15);
    assert_eq!(
        small, large,
        "allocations per round must not depend on the relation size"
    );
    assert!(
        large <= 2 * slices + 16 * l,
        "{large} allocations in one round"
    );
}
