//! Planning solves one share LP; it never enumerates packing vertices.
//!
//! One test in a binary of its own, like `tests/shuffle_allocs.rs`: it
//! installs the counting global allocator and reads its process-wide
//! counter, which any other test running in the same process would move.

use mpc_bench::alloc_counter::{alloc_count, CountingAllocator};
use mpc_bench::workloads::uniform_db;
use mpc_skew::core::engine::{Algorithm, Engine};
use mpc_skew::query::named;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn planning_five_atom_queries_allocates_in_the_thousands() {
    // `L_lower` used to come from the rational vertex enumeration of the
    // packing polytope: 154 845 / 109 260 / 152 269 allocations to plan
    // these three under `auto`. As the LP (5) optimum it is one simplex
    // solve (Theorem 3.6), and what is left is statistics and routes.
    for q in [named::chain(5), named::cycle(5), named::star(5)] {
        let db = uniform_db(&q, 512, 1 << 12, 7);
        for algo in [Algorithm::Auto, Algorithm::GeneralSkew] {
            let engine = Engine::new(&q).p(64).seed(3).algorithm(algo);
            let before = alloc_count();
            let plan = engine.plan(&db);
            let allocs = alloc_count() - before;
            assert!(plan.lower_bound_bits() > 0.0);
            assert!(
                allocs <= 10_000,
                "{} under {algo}: {allocs} allocations to plan",
                q.name()
            );
        }
    }
}
