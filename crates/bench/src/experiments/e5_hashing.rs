//! E5 — Lemma 3.1 / Appendix B: max bucket load when hashing an `r`-ary
//! relation per-attribute onto a `p1 × ... × pr` grid.
//!
//! * (2) matchings: max load `O(m/p)`;
//! * (3) degree-bounded (every value set frequency `<= a·m/Π p_i`):
//!   max load `Õ(m/p)`;
//! * (4) adversarial single-value attribute: max load pinned at
//!   `m / min_i p_i` — independent of the instance, the universal cap.

use crate::table::{fmt, fmt_ratio, Table};
use mpc_data::{generators, Rng};
use mpc_sim::hashing::{bucket_loads, summarize, HashFamily};
use mpc_sim::topology::Grid;

/// Run E5.
pub(crate) fn run() {
    let t = Table::new(
        "E5: Lemma 3.1 — max bucket load under per-attribute hashing (m = 65536)",
        &[
            "instance",
            "r",
            "grid",
            "max",
            "m/p",
            "max/(m/p)",
            "m/min p_i",
        ],
    );
    let m = 1usize << 16;
    let n = 1u64 << 20;
    let mut rng = Rng::seed_from_u64(51);

    // (2) matchings, r = 1, 2, 3.
    for (r, dims) in [(1usize, vec![64usize]), (2, vec![8, 8]), (3, vec![4, 4, 4])] {
        let rel = generators::matching("R", r, m, n, &mut rng);
        let grid = Grid::new(dims.clone());
        let s = summarize(&bucket_loads(&rel, &grid, &HashFamily::new(r, 5)));
        let p = grid.num_cells() as f64;
        t.row(&[
            "matching".into(),
            r.to_string(),
            format!("{dims:?}"),
            fmt(s.max as f64),
            fmt(m as f64 / p),
            fmt_ratio(s.max as f64 / (m as f64 / p)),
            fmt(m as f64 / *dims.iter().min().unwrap() as f64),
        ]);
    }

    // (3) degree-bounded: zipf-ish but capped below m/p_i per value.
    {
        let dims = vec![8usize, 8];
        let grid = Grid::new(dims.clone());
        let cap = m / 8 / 2; // below m/p_1
        let mut degrees: Vec<(Vec<u64>, usize)> = Vec::new();
        let mut left = m;
        let mut v = 0u64;
        while left > 0 {
            let c = cap.min(left);
            degrees.push((vec![v], c));
            left -= c;
            v += 1;
        }
        let rel = generators::from_degree_sequence("R", 2, &[0], &degrees, n, &mut rng);
        let s = summarize(&bucket_loads(&rel, &grid, &HashFamily::new(2, 6)));
        let p = grid.num_cells() as f64;
        t.row(&[
            "deg<=m/2p1".into(),
            "2".into(),
            format!("{dims:?}"),
            fmt(s.max as f64),
            fmt(m as f64 / p),
            fmt_ratio(s.max as f64 / (m as f64 / p)),
            fmt(m as f64 / 8.0),
        ]);
    }

    // (4) adversarial: one value in attribute 0.
    {
        let dims = vec![8usize, 8];
        let grid = Grid::new(dims.clone());
        let rel = generators::single_value_column("R", 2, m, n, 0, 3, &mut rng);
        let s = summarize(&bucket_loads(&rel, &grid, &HashFamily::new(2, 7)));
        let p = grid.num_cells() as f64;
        t.row(&[
            "one value".into(),
            "2".into(),
            format!("{dims:?}"),
            fmt(s.max as f64),
            fmt(m as f64 / p),
            fmt_ratio(s.max as f64 / (m as f64 / p)),
            fmt(m as f64 / 8.0),
        ]);
    }
    println!(
        "shape: matchings and degree-bounded instances stay within a small factor of\n\
         m/p; the single-value instance is pinned near m/min(p_i) = 8x m/p — exactly\n\
         Lemma 3.1's (2)/(3) vs (4) separation."
    );
}
