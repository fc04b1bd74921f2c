//! E3 — Example 3.7: the packing-vertex table for the triangle query.
//!
//! `pk(C3)` has four vertices; each yields a different `L(u, M, p)`, the
//! load/lower bound is their maximum, and the winning vertex switches with
//! the cardinality regime. Also checks Theorem 3.6 (`L_lower = L_upper`)
//! numerically in every regime.

use crate::table::{fmt, Table};
use mpc_core::{bounds, shares::ShareAllocation};
use mpc_query::{named, packing_vertices};
use mpc_stats::SimpleStatistics;

/// Run E3.
pub(crate) fn run() {
    let q = named::cycle(3);
    let vertices = packing_vertices(&q);
    let p = 64usize;
    let regimes: Vec<(&str, [usize; 3])> = vec![
        ("balanced", [1 << 16, 1 << 16, 1 << 16]),
        ("S1 giant", [1 << 24, 1 << 12, 1 << 12]),
        ("S2 giant", [1 << 12, 1 << 24, 1 << 12]),
        ("mixed", [1 << 20, 1 << 16, 1 << 12]),
    ];

    let t = Table::new(
        "E3: Example 3.7 — L(u, M, p) per pk(C3) vertex, p = 64 (bits)",
        &[
            "regime",
            "(1/2,1/2,1/2)",
            "(1,0,0)",
            "(0,1,0)",
            "(0,0,1)",
            "max = bound",
            "LP (5)",
        ],
    );
    for (name, cards) in regimes {
        let st = SimpleStatistics::synthetic(&[2, 2, 2], cards.to_vec(), 1 << 26);
        let table = bounds::packing_load_table(&vertices, &st, p);
        let find = |u: &[f64]| {
            table
                .iter()
                .find(|(v, _)| v.to_f64() == u)
                .map(|(_, l)| *l)
                .unwrap_or(f64::NAN)
        };
        let half = find(&[0.5, 0.5, 0.5]);
        let u1 = find(&[1.0, 0.0, 0.0]);
        let u2 = find(&[0.0, 1.0, 0.0]);
        let u3 = find(&[0.0, 0.0, 1.0]);
        let (lower, _) = bounds::l_lower(&vertices, &st, p);
        let lp = ShareAllocation::optimize(&q, &st, p)
            .unwrap()
            .predicted_load_bits();
        assert!(
            (lower - lp).abs() / lp < 1e-5,
            "{name}: Theorem 3.6 violated ({lower} vs {lp})"
        );
        t.row(&[
            name.to_string(),
            fmt(half),
            fmt(u1),
            fmt(u2),
            fmt(u3),
            fmt(lower),
            fmt(lp),
        ]);
    }
    println!(
        "shape: the fractional vertex wins when balanced; a unit vertex wins when its\n\
         relation dominates; 'max = bound' always equals the LP optimum (Theorem 3.6)."
    );
}
