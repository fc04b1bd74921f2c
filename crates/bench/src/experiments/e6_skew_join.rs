//! E6 — Section 4.1: the skew join vs the standard hash join vs resilient
//! HC across a Zipf sweep, against the Eq. (10) lower bound.
//!
//! The paper's story: hash join degrades linearly with the top frequency,
//! plain HC is capped at `~m/p^{1/3}`, and the skew join tracks
//! `max(m/p, L1, L2, L12)` within `O(log p)`.

use crate::table::{fmt, Table};
use crate::workloads::skewed_join_db;
use mpc_core::baselines::HashJoinRouter;
use mpc_core::bounds::skew_join_bound;
use mpc_core::engine::{Algorithm, Engine};
use mpc_core::hypercube::HyperCube;
use mpc_query::{named, VarSet};
use mpc_sim::backend::Backend;
use mpc_stats::heavy::heavy_hitters;

/// Run E6.
pub(crate) fn run() {
    let q = named::two_way_join();
    let p = 64usize;
    let m = 60_000usize;
    let n = 1u64 << 16;

    let t = Table::new(
        "E6: Section 4.1 skew join vs baselines, m = 60000, p = 64 (max tuples/server)",
        &[
            "theta",
            "hash join",
            "HC equal",
            "skew join",
            "Eq.(10)",
            "skew/Eq10",
            "#heavy",
        ],
    );
    // The baselines run their routers directly: the hash join partitions
    // on z, the classical join key.
    let z = VarSet::singleton(q.var_index("z").expect("join key"));
    let hash = HashJoinRouter::new(&q, z, p, 1);
    let hc = HyperCube::with_equal_shares(&q, p, 2);
    let engine = Engine::new(&q).p(p).seed(3).algorithm(Algorithm::SkewJoin);
    for theta in [0.0f64, 0.5, 1.0, 1.5, 2.0] {
        let db = skewed_join_db(&q, m, n, theta, 800, 61 + theta as u64);

        let (_, hash_rep) = hash.run_on(&db, Backend::from_env());
        let (_, hc_rep) = hc.run_on(&db, Backend::from_env());
        let plan = engine.plan(&db);
        let sj = plan.execute(&db, Backend::from_env());
        if theta == 1.0 {
            // Full correctness audit at one representative skew level (the
            // others are covered by the integration tests at smaller m).
            assert!(sj.verify(&db).is_complete(), "skew join lost answers");
        }
        let sj_rep = sj.report().expect("one-round outcome");

        let bound = skew_join_bound(&heavy_hitters(&db, 0, z, p), &heavy_hitters(&db, 1, z, p));
        t.row(&[
            theta.to_string(),
            fmt(hash_rep.max_load_tuples() as f64),
            fmt(hc_rep.max_load_tuples() as f64),
            fmt(sj_rep.max_load_tuples() as f64),
            fmt(bound.max_tuples()),
            format!(
                "{:.1}x",
                sj_rep.max_load_tuples() as f64 / bound.max_tuples()
            ),
            plan.num_heavy().expect("skew-join plan").to_string(),
        ]);
    }
    println!(
        "shape: hash join grows with the hot z frequency toward m; HC-equal plateaus\n\
         near 2m/p^(1/3); the skew join stays within a small multiple of Eq. (10)\n\
         across the whole sweep — the Section 4.1 optimality claim."
    );
}
