//! E7 — Example 4.8 / Theorem 4.7: residual lower bounds from degree
//! sequences.
//!
//! For the join (`x = {z}`) and the triangle (`x = {x1}`), the residual
//! bound `L_x(u, M, p)` strictly dominates the cardinality-only bound when
//! the degree sequence is skewed, and collapses back to it (up to the `m/p`
//! floor) when degrees are uniform — "skew in the input data makes query
//! evaluation harder".

use crate::table::{fmt, fmt_ratio, Table};
use mpc_core::bounds;
use mpc_data::{generators, Database, Rng};
use mpc_query::{named, packing_vertices, Query, VarSet};
use mpc_stats::{degree_statistics, SimpleStatistics};

fn join_with_degrees(theta: f64, m: usize, n: u64, seed: u64) -> Database {
    let q = named::two_way_join();
    let mut rng = Rng::seed_from_u64(seed);
    let d1 = generators::zipf_degrees(m, n, theta);
    let d2 = generators::zipf_degrees(m, n, theta);
    let s1 = generators::from_degree_sequence("S1", 2, &[1], &d1, n, &mut rng);
    let s2 = generators::from_degree_sequence("S2", 2, &[1], &d2, n, &mut rng);
    Database::new(q, vec![s1, s2], n).unwrap()
}

/// Triangle with a planted x1 value carrying fraction `alpha` of S1 and S3
/// (x1 sits at position 0 of S1 and position 1 of S3). The Example 4.8
/// residual bound `sqrt(Σ_h M1(h)M3(h)/p)` beats the flat bound exactly
/// when `alpha` exceeds `p^{-1/6}`·(...) — here the crossover is at
/// `alpha = 1/2` for equal sizes, so 0.5 ties and 0.9 separates.
fn triangle_with_planted(alpha: f64, m: usize, n: u64, seed: u64) -> Database {
    let q = named::cycle(3);
    let mut rng = Rng::seed_from_u64(seed);
    let heavy = (alpha * m as f64) as usize;
    let degrees = |heavy: usize| -> Vec<(Vec<u64>, usize)> {
        let mut d: Vec<(Vec<u64>, usize)> = Vec::new();
        if heavy > 0 {
            d.push((vec![5], heavy));
        }
        d.extend((0..(m - heavy) as u64).map(|i| (vec![100 + (i % (n - 100))], 1)));
        d
    };
    let s1 = generators::from_degree_sequence("S1", 2, &[0], &degrees(heavy), n, &mut rng);
    let s2 = generators::uniform("S2", 2, m, n, &mut rng);
    let s3 = generators::from_degree_sequence("S3", 2, &[1], &degrees(heavy), n, &mut rng);
    Database::new(q, vec![s1, s2, s3], n).unwrap()
}

fn report(t: &Table, label: &str, q: &Query, db: &Database, x: VarSet, p: usize) {
    let st = SimpleStatistics::of(db);
    let (flat, _) = bounds::l_lower(&packing_vertices(q), &st, p);
    let deg = degree_statistics(db, x);
    let (resid, u) = bounds::residual_lower_bound(q, &deg, p, db.value_bits(), db.domain())
        .expect("saturating packing exists");
    t.row(&[
        label.to_string(),
        x.to_string(),
        fmt(flat),
        fmt(resid),
        fmt_ratio(resid / flat),
        format!("{:?}", u.to_f64()),
    ]);
}

/// Run E7.
pub(crate) fn run() {
    let p = 64usize;
    let m = 1usize << 14;
    let n = 1u64 << 14;
    let t = Table::new(
        "E7: Theorem 4.7 residual bounds vs the cardinality-only bound (bits), p = 64",
        &[
            "workload",
            "x",
            "flat bound",
            "residual",
            "resid/flat",
            "packing u",
        ],
    );

    for theta in [0.0f64, 1.0, 1.5] {
        let db = join_with_degrees(theta, m, n, 71);
        let q = db.query().clone();
        let z = q.var_index("z").unwrap();
        report(
            &t,
            &format!("join θ={theta}"),
            &q,
            &db,
            VarSet::singleton(z),
            p,
        );
    }
    for alpha in [0.0f64, 0.5, 0.9] {
        let db = triangle_with_planted(alpha, m, n, 72);
        let q = db.query().clone();
        report(
            &t,
            &format!("C3 α={alpha}"),
            &q,
            &db,
            VarSet::singleton(0),
            p,
        );
    }
    println!(
        "shape: skew-free inputs give ratio ~1 (the residual bound degenerates to the\n\
         flat one); past the crossover (join θ>1, C3 α>1/2) the residual bound pulls\n\
         ahead — the Theorem 4.7 separation showing that skew provably increases the\n\
         required communication. The C3 crossover sits exactly at α = 1/2 (the planted\n\
         fraction where sqrt(Σ M1(h)M3(h)/p) = M/p^(2/3))."
    );
}
