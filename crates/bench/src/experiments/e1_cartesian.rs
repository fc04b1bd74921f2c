//! E1 — Section 1's cartesian-product warm-up.
//!
//! `q(x,y) = S1(x), S2(y)` with `m1 != m2`: the optimal one-round load is
//! `Θ(sqrt(m1 m2 / p))`, achieved by a `p1 × p2` grid with
//! `p1 = sqrt(m1 p / m2)`. We sweep `p`, run HyperCube with LP-optimal
//! shares, and report measured max load against both the ideal
//! `2 sqrt(m1 m2 / p)` (upper) and `sqrt(m1 m2 / p)` (lower bound).

use crate::table::{fmt, fmt_ratio, Table};
use crate::workloads::uniform_db;
use mpc_core::hypercube::HyperCube;
use mpc_core::verify;
use mpc_query::named;
use mpc_stats::SimpleStatistics;

/// Run E1.
pub(crate) fn run() {
    let q = named::cartesian(2);
    let (m1, m2) = (1usize << 12, 1usize << 14);
    let n = 1u64 << 16;

    // Correctness at small scale (the full product is too large to
    // materialize at measurement scale).
    let small = {
        let mut db = uniform_db(&q, 256, n, 11);
        let rel2 =
            mpc_data::generators::uniform("S2", 1, 512, n, &mut mpc_data::Rng::seed_from_u64(12));
        db.replace_relation(1, rel2).unwrap();
        db
    };
    let st_small = SimpleStatistics::of(&small);
    let hc = HyperCube::with_optimal_shares(&q, &st_small, 16, 1);
    let (cluster, _) = hc.run(&small);
    verify::assert_complete(&small, &cluster);

    // Load sweep.
    let mut db = uniform_db(&q, m1, n, 13);
    let rel2 = mpc_data::generators::uniform("S2", 1, m2, n, &mut mpc_data::Rng::seed_from_u64(14));
    db.replace_relation(1, rel2).unwrap();
    let st = SimpleStatistics::of(&db);

    let t = Table::new(
        "E1: cartesian product S1 x S2 (m1=4096, m2=16384) — load vs sqrt(m1 m2 / p)",
        &[
            "p",
            "shares",
            "max tuples",
            "2√(m1m2/p)",
            "ratio",
            "lower √(m1m2/p)",
        ],
    );
    for p in [4usize, 16, 64, 256] {
        let hc = HyperCube::with_optimal_shares(&q, &st, p, 21);
        let (_, report) = hc.run(&db);
        let ideal = 2.0 * ((m1 * m2) as f64 / p as f64).sqrt();
        let lower = ideal / 2.0;
        let measured = report.max_load_tuples() as f64;
        t.row(&[
            p.to_string(),
            format!("{:?}", hc.grid().dims()),
            fmt(measured),
            fmt(ideal),
            fmt_ratio(measured / ideal),
            fmt(lower),
        ]);
    }
    println!("shape: ratio stays in a constant band (~0.5–1.5) across the whole sweep.");
}
