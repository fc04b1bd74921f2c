//! E12 — the statistics pipeline: what planning from a sketch costs in load.
//!
//! The paper assumes heavy hitters and (approximate) frequencies are known,
//! noting engines learn them by sampling (§1) and that factor-2 accuracy
//! suffices (§4.2). This experiment plans the §4.1 skew join through
//! [`Engine::stats`] from each statistics source the engine takes — exact
//! counts, SpaceSaving sketches at capacities `p/2`, `p` and `2p`, and
//! cardinalities only (every value light: the plain hash join) — and
//! measures the max load each plan runs at. From capacity `p` up a
//! sketch cannot miss an `m/p`-heavy hitter, and the plan tracks the
//! exact one; `tests/stats_parity.rs` pins that bound.

use crate::table::{fmt, fmt_ratio, Table};
use crate::workloads::skewed_join_db;
use mpc_core::engine::{Algorithm, Engine, ExactStats, SketchStats, Stats, SyntheticStats};
use mpc_query::named;
use mpc_stats::cardinality::SimpleStatistics;

/// Run E12.
pub(crate) fn run() {
    let q = named::two_way_join();
    let p = 64usize;
    let m = 60_000usize;
    let n = 1u64 << 16;

    let t = Table::new(
        "E12: skew join planned from exact, sketched and no statistics, p = 64 (max tuples)",
        &[
            "theta",
            "exact stats",
            "sketch p/2",
            "/exact",
            "sketch p",
            "/exact",
            "sketch 2p",
            "/exact",
            "no stats",
        ],
    );
    let engine = Engine::new(&q).p(p).seed(9).algorithm(Algorithm::SkewJoin);
    for theta in [1.0f64, 1.5, 2.0] {
        let db = skewed_join_db(&q, m, n, theta, 800, 121 + theta as u64);
        let max_load = |stats: &dyn Stats| {
            let outcome = engine.clone().stats(stats).run(&db);
            assert!(outcome.verify(&db).is_complete(), "skew join lost answers");
            outcome
                .report()
                .expect("one-round outcome")
                .max_load_tuples() as f64
        };
        let exact = max_load(&ExactStats::of(&db));
        let mut row = vec![theta.to_string(), fmt(exact)];
        for capacity in [p / 2, p, 2 * p] {
            let sketched = max_load(&SketchStats::of(&db, capacity));
            row.extend([fmt(sketched), fmt_ratio(sketched / exact)]);
        }
        row.push(fmt(max_load(&SyntheticStats(SimpleStatistics::of(&db)))));
        t.row(&row);
    }
    println!(
        "shape: from capacity p up the sketched plan tracks the exact plan, at statistics\n\
         that never hold more than 2p counters per projection; below p a heavy hitter\n\
         can go unseen and its tuples land on one server. With no statistics the\n\
         algorithm degenerates to the hash join and its skew collapse. Completeness\n\
         holds in every configuration — estimation error can only shift load."
    );
}
