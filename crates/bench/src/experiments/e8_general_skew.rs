//! E8 — Section 4.2 / Theorem 4.6: the general bin-combination algorithm on
//! multi-attribute skew, vs skew-oblivious HyperCube, vs the per-combination
//! prediction `max_B p^{λ(B)}`.

use crate::table::{fmt, fmt_ratio, Table};
use crate::workloads::general_skew_inputs;
use mpc_core::engine::{Algorithm, Engine};
use mpc_sim::backend::Backend;

/// Run E8.
pub(crate) fn run() {
    let p = 64usize;
    let t = Table::new(
        "E8: Section 4.2 general algorithm vs oblivious HC (bits/server), p = 64",
        &[
            "workload",
            "HC oblivious",
            "general alg",
            "gen/HC",
            "max p^λ(B)",
            "combos",
            "dropped",
        ],
    );
    for (name, db) in general_skew_inputs() {
        let q = db.query().clone();
        let engine = Engine::new(&q).p(p).seed(7);
        let hc = engine.clone().algorithm(Algorithm::HyperCube).run(&db);
        assert!(hc.verify(&db).is_complete(), "{name}: HC lost answers");

        let plan = engine.clone().algorithm(Algorithm::GeneralSkew).plan(&db);
        let gen = plan.execute(&db, Backend::from_env());
        assert!(
            gen.verify(&db).is_complete(),
            "{name}: general lost answers"
        );

        t.row(&[
            name.to_string(),
            fmt(hc.max_load_bits() as f64),
            fmt(gen.max_load_bits() as f64),
            fmt_ratio(gen.max_load_bits() as f64 / hc.max_load_bits() as f64),
            fmt(plan.predicted_load_bits()),
            plan.num_bin_combinations()
                .expect("general plan")
                .to_string(),
            plan.dropped_assignments()
                .expect("general plan")
                .to_string(),
        ]);
    }
    println!(
        "shape: on skewed inputs the general algorithm beats or matches oblivious HC\n\
         (gen/HC <= 1) and stays within polylog of max_B p^λ(B) (Theorem 4.6); zero\n\
         dropped assignments means the full guarantee applied."
    );
}
