//! E11 (ablation) — why the H12 cartesian grid exists.
//!
//! When a value is heavy on *both* sides, Section 4.1 computes its residual
//! cartesian product on a `p1 × p2` grid (load `~sqrt(m1(h)m2(h)/p_h)`).
//! The obvious simpler treatment — keep partitioning one side and broadcast
//! the other, as for one-sided hitters — costs `Θ(m2(h))` per server. This
//! ablation plants an H12 value of growing frequency and measures both
//! variants; the one without grids plans over the view `NoGrids`.

use crate::table::{fmt, fmt_ratio, Table};
use mpc_core::engine::{ExactStats, Stats};
use mpc_core::skew_join::SkewJoin;
use mpc_core::verify;
use mpc_data::{generators, Database, Rng};
use mpc_query::named;
use mpc_stats::{FreqEstimate, SimpleStatistics};

/// Exact statistics of `S1(x,z), S2(y,z)`, except that S2 hides the
/// `z` values S1 finds heavy: every H12 value is then planned as heavy in
/// S1 only, so S1 is partitioned and S2's matching tuples broadcast.
struct NoGrids<'a>(ExactStats<'a>);

impl Stats for NoGrids<'_> {
    fn simple(&self) -> SimpleStatistics {
        self.0.simple()
    }

    fn heavy_hitters(&self, atom: usize, cols: &[usize], p: usize) -> Vec<FreqEstimate> {
        let mut heavy = self.0.heavy_hitters(atom, cols, p);
        if atom == 1 {
            // `z` sits at the same column in both atoms.
            let in_s1 = self.0.heavy_hitters(0, cols, p);
            heavy.retain(|e| !in_s1.iter().any(|h| h.key == e.key));
        }
        heavy
    }
}

/// Run E11.
pub(crate) fn run() {
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
        let without = SkewJoin::plan_with(db.query(), p, 3, &NoGrids(ExactStats::of(&db)));
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
