//! E11 (ablation) — why the H12 cartesian grid exists.
//!
//! When a value is heavy on *both* sides, Section 4.1 computes its residual
//! cartesian product on a `p1 × p2` grid (load `~sqrt(m1(h)m2(h)/p_h)`).
//! The obvious simpler treatment — keep partitioning one side and broadcast
//! the other, as for one-sided hitters — costs `Θ(m2(h))` per server. This
//! ablation plants an H12 value of growing frequency and measures both
//! variants.

use crate::table::{fmt, fmt_ratio, Table};
use mpc_core::skew_join::{SkewJoin, SkewJoinConfig};
use mpc_core::verify;
use mpc_data::{generators, Database, Rng};
use mpc_query::named;

/// Run E11.
pub fn run() {
    let q = named::two_way_join();
    let n = 1u64 << 14;
    let m = 1usize << 14;
    let p = 64usize;

    let t = Table::new(
        "E11 (ablation): H12 grid vs broadcast fallback, m = 16384, p = 64 (max tuples)",
        &[
            "h12 freq",
            "with grid",
            "no grid",
            "grid gain",
            "sqrt(f1 f2/p)",
        ],
    );
    for frac in [8usize, 4, 2] {
        let heavy = m / frac;
        let mut rng = Rng::seed_from_u64(111);
        let degrees: Vec<(Vec<u64>, usize)> = std::iter::once((vec![5u64], heavy))
            .chain((0..(m - heavy) as u64).map(|i| (vec![100 + i], 1)))
            .collect();
        let s1 = generators::from_degree_sequence("S1", 2, &[1], &degrees, n, &mut rng);
        let s2 = generators::from_degree_sequence("S2", 2, &[1], &degrees, n, &mut rng);
        let db = Database::new(q.clone(), vec![s1, s2], n).unwrap();

        let with = SkewJoin::plan(&db, p, 3);
        let (c1, r1) = with.run(&db);
        let without = SkewJoin::plan_from_parts(
            db.query(),
            db.relation(0).len(),
            db.relation(1).len(),
            p,
            3,
            SkewJoinConfig { use_grids: false },
            &db.relation(0).frequencies(&[1]),
            &db.relation(1).frequencies(&[1]),
        );
        let (c2, r2) = without.run(&db);
        // Both remain correct — only the load differs.
        if frac == 4 {
            verify::assert_complete(&db, &c1);
            verify::assert_complete(&db, &c2);
        }
        let grid_bound = ((heavy * heavy) as f64 / p as f64).sqrt();
        t.row(&[
            heavy.to_string(),
            fmt(r1.max_load_tuples() as f64),
            fmt(r2.max_load_tuples() as f64),
            fmt_ratio(r2.max_load_tuples() as f64 / r1.max_load_tuples() as f64),
            fmt(grid_bound),
        ]);
    }
    println!(
        "shape: the broadcast fallback's load grows linearly with the H12 frequency\n\
         while the grid's grows as its square root — the gap ('grid gain') widens\n\
         exactly as Section 4.1 predicts."
    );
}
