//! A skewed two-relation join, three ways.
//!
//! The scenario from the paper's introduction: a web-scale join
//! `q(x,y,z) = S1(x,z), S2(y,z)` where `z` follows a Zipf law (a few
//! celebrity values carry a large fraction of the tuples). We run
//!
//! 1. the standard parallel hash join (partition by `h(z)`),
//! 2. plain HyperCube with equal shares (skew-resilient, Cor. 3.2(ii)),
//! 3. the Section 4.1 skew join (light / H1 / H2 / H12 decomposition),
//!
//! and print each algorithm's maximum per-server load next to the paper's
//! Eq. (10) lower bound.
//!
//! ```text
//! cargo run --release --example skewed_join
//! ```

use mpc_skew::core::baselines::HashJoinRouter;
use mpc_skew::core::bounds::skew_join_bound;
use mpc_skew::core::hypercube::HyperCube;
use mpc_skew::core::skew_join::SkewJoin;
use mpc_skew::core::verify;
use mpc_skew::data::{generators, Database, Rng};
use mpc_skew::query::named;
use mpc_skew::query::VarSet;
use mpc_skew::sim::cluster::Cluster;
use mpc_skew::stats::heavy::heavy_hitters;

fn main() {
    let query = named::two_way_join();
    let p = 64usize;
    let m = 60_000usize;
    let n = 1u64 << 16;

    println!("query: {query},  p = {p},  m = {m} per relation\n");
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "theta", "hash join", "HC equal", "skew join", "Eq.(10)", "answers"
    );

    for theta in [0.0f64, 0.5, 1.0, 1.5] {
        let mut rng = Rng::seed_from_u64(7 + (theta * 10.0) as u64);
        // S1 is hot at low values, S2 at high values (disjoint celebrity
        // sets, the common case), plus one shared heavy value 777 on both
        // sides (the H12 case) with bounded frequency so the join output
        // stays materializable.
        let mut d1 = generators::zipf_degrees(m - 800, n, theta);
        let mut d2: Vec<(Vec<u64>, usize)> = generators::zipf_degrees(m - 800, n, theta)
            .into_iter()
            .map(|(k, c)| (vec![n - 1 - k[0]], c))
            .collect();
        d1.push((vec![777], 800));
        d2.push((vec![777], 800));
        let s1 = generators::from_degree_sequence("S1", 2, &[1], &d1, n, &mut rng);
        let s2 = generators::from_degree_sequence("S2", 2, &[1], &d2, n, &mut rng);
        let db = Database::new(query.clone(), vec![s1, s2], n).expect("valid db");

        // 1. Standard hash join on z.
        let z = query.var_index("z").expect("z exists");
        let hj = HashJoinRouter::new(&query, VarSet::singleton(z), p, 1);
        let c_hash = Cluster::run_round(&db, p, &hj);

        // 2. HyperCube with equal shares p^(1/3).
        let hc = HyperCube::with_equal_shares(&query, p, 2);
        let (c_hc, rep_hc) = hc.run(&db);

        // 3. The Section 4.1 skew join.
        let sj = SkewJoin::plan(&db, p, 3);
        let (c_sj, rep_sj) = sj.run(&db);

        // All three must be complete.
        let answers = verify::verify(&db, &c_sj).found;
        assert!(verify::verify(&db, &c_hash).is_complete());
        assert!(verify::verify(&db, &c_hc).is_complete());
        assert!(verify::verify(&db, &c_sj).is_complete());

        // Eq. (10) bound from the exact z heavy hitters.
        let zs = VarSet::singleton(z);
        let bound = skew_join_bound(&heavy_hitters(&db, 0, zs, p), &heavy_hitters(&db, 1, zs, p));

        println!(
            "{:<8} {:>12} {:>12} {:>12} {:>12.0} {:>10}",
            theta,
            c_hash.report().max_load_tuples(),
            rep_hc.max_load_tuples(),
            rep_sj.max_load_tuples(),
            bound.max_tuples(),
            answers,
        );
    }

    println!(
        "\nShape check (the paper's story): the hash join degrades toward m = {m} \
         as theta grows,\nHC-equal stays near m/p^(1/3) = {:.0}, and the skew join \
         tracks Eq. (10) within polylog(p).",
        2.0 * m as f64 / (p as f64).powf(1.0 / 3.0)
    );
}
