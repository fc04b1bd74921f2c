//! E10 (ablation) — share optimization objective: LP (5)'s *maximum* load
//! vs Afrati–Ullman's *total* load (Section 3.1: "Afrati and Ullman compute
//! the shares by optimizing the total load ... Here we take a different
//! approach").
//!
//! On symmetric statistics the two coincide; with unequal cardinalities the
//! AU optimum can leave one relation's residual load far above the LP
//! optimum — the reason the paper's analysis is built on LP (5).

use crate::table::{fmt, fmt_ratio, Table};
use mpc_core::shares::ShareAllocation;
use mpc_query::named;
use mpc_stats::SimpleStatistics;

/// Run E10.
pub(crate) fn run() {
    let q = named::cycle(3);
    let p = 64usize;
    let t = Table::new(
        "E10 (ablation): LP(5) max-load shares vs Afrati–Ullman total-load shares, C3, p = 64",
        &[
            "cardinalities",
            "LP max bits",
            "AU max bits",
            "AU/LP",
            "LP shares",
            "AU shares",
        ],
    );
    for cards in [
        vec![1usize << 16, 1 << 16, 1 << 16],
        vec![1 << 20, 1 << 14, 1 << 14],
        vec![1 << 22, 1 << 16, 1 << 10],
        vec![1 << 24, 1 << 12, 1 << 12],
    ] {
        let st = SimpleStatistics::synthetic(&[2, 2, 2], cards.clone(), 1 << 26);
        let lp = ShareAllocation::optimize(&q, &st, p).unwrap();
        let au = ShareAllocation::afrati_ullman(&q, &st, p);
        let lp_load = lp.expected_load_bits(&q, &st);
        let au_load = au.expected_load_bits(&q, &st);
        t.row(&[
            format!(
                "2^{:?}",
                cards.iter().map(|c| c.ilog2()).collect::<Vec<_>>()
            ),
            fmt(lp_load),
            fmt(au_load),
            fmt_ratio(au_load / lp_load),
            format!("{:?}", lp.shares),
            format!("{:?}", au.shares),
        ]);
    }
    println!(
        "finding: the two optimizers reach the same maximum load on every regime (the\n\
         share vectors may differ along flat directions of the optimum). This is not an\n\
         accident: loads are exponential in the share exponents, so minimizing the\n\
         total (a log-sum-exp) tracks minimizing the max within a factor ℓ. The paper's\n\
         LP (5) formulation is preferred not because AU is wrong but because the LP's\n\
         dual yields the closed form over pk(q) (Theorem 3.6) and the matching lower\n\
         bound — which no Lagrange-multiplier derivation provides."
    );
}
