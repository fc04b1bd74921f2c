//! E2 — Example 3.3: the two HC share allocations for the join
//! `q(x,y,z) = S1(x,z), S2(y,z)` on skew-free vs fully-skewed data.
//!
//! * shares `(p^{1/3}, p^{1/3}, p^{1/3})`: `O(m/p^{2/3})` skew-free, and —
//!   the resilience result, Cor. 3.2(ii) — still `O(m/p^{1/3})` on fully
//!   skewed data;
//! * shares `(1, p, 1)` (a hash join on z): `O(m/p)` skew-free but `Ω(m)`
//!   when all tuples share one `z`.

use crate::table::{fmt, Table};
use mpc_core::hypercube::HyperCube;
use mpc_core::shares::ShareAllocation;
use mpc_data::{generators, Database, Rng};
use mpc_query::named;

/// Run E2.
pub(crate) fn run() {
    let q = named::two_way_join();
    let n = 1u64 << 14;
    let m = 1usize << 13;
    let z = q.var_index("z").unwrap();

    let mut rng = Rng::seed_from_u64(31);
    let skew_free = Database::new(
        q.clone(),
        vec![
            generators::matching("S1", 2, m, n, &mut rng),
            generators::matching("S2", 2, m, n, &mut rng),
        ],
        n,
    )
    .unwrap();
    let skewed = Database::new(
        q.clone(),
        vec![
            generators::single_value_column("S1", 2, m, n, 1, 7, &mut rng),
            generators::single_value_column("S2", 2, m, n, 1, 7, &mut rng),
        ],
        n,
    )
    .unwrap();

    let t = Table::new(
        "E2: Example 3.3 — join, cube shares (p^1/3 each) vs hash-join shares (1,p,1), m = 8192",
        &[
            "p",
            "cube free",
            "m/p^2/3",
            "hash free",
            "m/p",
            "cube skew",
            "m/p^1/3",
            "hash skew",
        ],
    );
    for p in [8usize, 27, 64, 125] {
        let cube = HyperCube::with_equal_shares(&q, p, 5);
        let mut hj_shares = vec![1usize; 3];
        hj_shares[z] = p;
        let hash = HyperCube::new(&q, &ShareAllocation::explicit(hj_shares, p), 5);

        let (_, cf) = cube.run(&skew_free);
        let (_, hf) = hash.run(&skew_free);
        let (_, cs) = cube.run(&skewed);
        let (_, hs) = hash.run(&skewed);
        let mf = 2.0 * m as f64;
        t.row(&[
            p.to_string(),
            fmt(cf.max_load_tuples() as f64),
            fmt(mf / (p as f64).powf(2.0 / 3.0)),
            fmt(hf.max_load_tuples() as f64),
            fmt(mf / p as f64),
            fmt(cs.max_load_tuples() as f64),
            fmt(mf / (p as f64).powf(1.0 / 3.0)),
            fmt(hs.max_load_tuples() as f64),
        ]);
    }
    println!(
        "shape: 'hash skew' is pinned at 2m = {} regardless of p (the collapse), while\n\
         'cube skew' tracks m/p^1/3 — the HC resilience of Corollary 3.2(ii).",
        2 * m
    );
}
