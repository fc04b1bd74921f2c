//! E12 — the statistics pipeline: exact vs sampled heavy hitters.
//!
//! The paper assumes heavy hitters and (approximate) frequencies are known,
//! noting engines learn them by sampling (§1) and that factor-2 accuracy
//! suffices (§4.2). This experiment runs the §4.1 skew join planned three
//! ways — exact statistics, Bernoulli-sampled statistics at the recommended
//! rate, and *no* statistics (everything classified light = plain hash
//! join) — and shows the sampled plan recovers nearly all of the exact
//! plan's benefit at a tiny statistics cost.

use crate::table::{fmt, fmt_ratio, Table};
use crate::workloads::skewed_join_db;
use mpc_core::skew_join::{SkewJoin, SkewJoinConfig};
use mpc_core::verify;
use mpc_data::Rng;
use mpc_query::named;
use mpc_stats::sampling;

/// Run E12.
pub fn run() {
    let q = named::two_way_join();
    let p = 64usize;
    let m = 60_000usize;
    let n = 1u64 << 16;

    let t = Table::new(
        "E12: skew join planned from exact vs sampled vs no statistics, p = 64 (max tuples)",
        &[
            "theta",
            "exact stats",
            "sampled",
            "sampled/exact",
            "no stats",
            "sample size",
        ],
    );
    for theta in [1.0f64, 1.5, 2.0] {
        let db = skewed_join_db(&q, m, n, theta, 800, 121 + theta as u64);
        let mut rng = Rng::seed_from_u64(5000 + theta as u64);

        let exact = SkewJoin::plan(&db, p, 9);
        let (c_e, r_e) = exact.run(&db);
        verify::assert_complete(&db, &c_e);

        let sf1 = sampling::sample_heavy_hitters(db.relation(0), &[1], p, &mut rng);
        let sf2 = sampling::sample_heavy_hitters(db.relation(1), &[1], p, &mut rng);
        let (m1, m2) = (db.relation(0).len(), db.relation(1).len());
        let config = SkewJoinConfig::default();
        let sampled = SkewJoin::plan_from_parts(
            db.query(),
            m1,
            m2,
            p,
            9,
            config,
            &sf1.estimates,
            &sf2.estimates,
        );
        let (c_s, r_s) = sampled.run(&db);
        verify::assert_complete(&db, &c_s);

        let empty: mpc_data::FastMap<Vec<u64>, usize> = mpc_data::FastMap::default();
        let blind = SkewJoin::plan_from_parts(db.query(), m1, m2, p, 9, config, &empty, &empty);
        let (c_b, r_b) = blind.run(&db);
        verify::assert_complete(&db, &c_b);

        t.row(&[
            theta.to_string(),
            fmt(r_e.max_load_tuples() as f64),
            fmt(r_s.max_load_tuples() as f64),
            fmt_ratio(r_s.max_load_tuples() as f64 / r_e.max_load_tuples() as f64),
            fmt(r_b.max_load_tuples() as f64),
            (sf1.sample_size + sf2.sample_size).to_string(),
        ]);
    }
    println!(
        "shape: the sampled plan tracks the exact plan within a small factor while the\n\
         statistics pass touches only ~p·log(p)/m of the data; with no statistics the\n\
         algorithm degenerates to the hash join and its skew collapse. Completeness\n\
         holds in *all three* configurations — estimation error can only shift load."
    );
}
