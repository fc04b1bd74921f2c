//! The paper's worked examples, executed as assertions.
//!
//! Each test reproduces a numbered example from Beame–Koutris–Suciu
//! (PODS 2014) end-to-end: construct the instance, run the algorithm the
//! example discusses, and check the loads/bounds the example derives.

use mpc_lp::Rat;
use mpc_skew::core::bounds;
use mpc_skew::core::hypercube::HyperCube;
use mpc_skew::core::shares::ShareAllocation;
use mpc_skew::core::verify;
use mpc_skew::data::{generators, Database, Rng};
use mpc_skew::query::packing::{packing_vertices, pk};
use mpc_skew::query::{named, residual_query, saturating_pk, Packing, VarSet};
use mpc_skew::stats::degree_statistics;
use mpc_skew::stats::SimpleStatistics;

/// Section 1's warm-up: the cartesian product `S1(x) × S2(y)` with
/// cardinalities m1, m2 has optimal load `~2·sqrt(m1 m2 / p)`, achieved by a
/// `p1 × p2` grid with `p1 = sqrt(m1 p / m2)`.
#[test]
fn section_1_cartesian_product() {
    let q = named::cartesian(2);
    let (m1, m2) = (4096usize, 16384usize);
    let n = 1u64 << 16;
    let mut rng = Rng::seed_from_u64(1);
    let s1 = generators::uniform("S1", 1, m1, n, &mut rng);
    let s2 = generators::uniform("S2", 1, m2, n, &mut rng);
    let db = Database::new(q.clone(), vec![s1, s2], n).unwrap();
    let st = SimpleStatistics::of(&db);
    let p = 64usize;

    // The paper's split: p1 = sqrt(m1 p / m2) = sqrt(16) = 4, p2 = 16.
    let alloc = ShareAllocation::optimize(&q, &st, p).unwrap();
    assert_eq!(alloc.shares, vec![4, 16], "paper's p1/p2 split");

    let hc = HyperCube::new(&q, &alloc, 3);
    let (_, report) = hc.run(&db);

    // Completeness at a scale whose output (256 x 512 = 128k rows) is cheap
    // to materialize; the load measurement above uses the full sizes whose
    // 64M-row product would dominate the whole suite's runtime.
    let small = Database::new(
        q.clone(),
        vec![
            generators::uniform("S1", 1, 256, n, &mut rng),
            generators::uniform("S2", 1, 512, n, &mut rng),
        ],
        n,
    )
    .unwrap();
    let st_small = SimpleStatistics::of(&small);
    let hc_small = HyperCube::with_optimal_shares(&q, &st_small, 16, 3);
    let (cluster_small, _) = hc_small.run(&small);
    verify::assert_complete(&small, &cluster_small);

    // Load per server ~ 2 sqrt(m1 m2 / p) tuples = m1/p1 + m2/p2.
    let ideal = 2.0 * ((m1 * m2) as f64 / p as f64).sqrt();
    let measured = report.max_load_tuples() as f64;
    assert!(
        measured < 2.0 * ideal && measured > 0.5 * ideal,
        "measured {measured} vs ideal {ideal}"
    );
}

/// Example 3.3: the join under the two share allocations, on skew-free and
/// on fully-skewed data.
#[test]
fn example_3_3_join_two_allocations() {
    let q = named::two_way_join();
    let n = 1u64 << 14;
    let m = 8192usize;
    let p = 64usize;
    let z = q.var_index("z").unwrap();

    // Skew-free: every z-value has frequency <= m/p.
    let mut rng = Rng::seed_from_u64(2);
    let skew_free = Database::new(
        q.clone(),
        vec![
            generators::matching("S1", 2, m, n, &mut rng),
            generators::matching("S2", 2, m, n, &mut rng),
        ],
        n,
    )
    .unwrap();
    // Fully skewed: a single z-value.
    let skewed = Database::new(
        q.clone(),
        vec![
            generators::single_value_column("S1", 2, m, n, 1, 7, &mut rng),
            generators::single_value_column("S2", 2, m, n, 1, 7, &mut rng),
        ],
        n,
    )
    .unwrap();

    let cube = HyperCube::with_equal_shares(&q, p, 4); // (p^1/3 each)
    let mut hj_shares = vec![1usize; 3];
    hj_shares[z] = p;
    let hash = HyperCube::new(&q, &ShareAllocation::explicit(hj_shares, p), 4);

    // Skew-free: hash join achieves O(m/p); cube pays m/p^{2/3}.
    let (_, cube_free) = cube.run(&skew_free);
    let (_, hash_free) = hash.run(&skew_free);
    let scan = (2 * m) as f64 / p as f64;
    assert!(
        (hash_free.max_load_tuples() as f64) < 4.0 * scan,
        "hash join on skew-free data should be ~m/p: {} vs {scan}",
        hash_free.max_load_tuples()
    );
    let cube_expected = 2.0 * m as f64 / (p as f64).powf(2.0 / 3.0);
    assert!(
        (cube_free.max_load_tuples() as f64) < 4.0 * cube_expected,
        "cube on skew-free data: {} vs {cube_expected}",
        cube_free.max_load_tuples()
    );

    // Skewed: hash join collapses to m; cube stays at ~m/p^{1/3}.
    let (_, cube_skew) = cube.run(&skewed);
    let (_, hash_skew) = hash.run(&skewed);
    assert_eq!(
        hash_skew.max_load_tuples(),
        (2 * m) as u64,
        "hash join must collapse onto one server"
    );
    let resilience = 2.0 * m as f64 / (p as f64).powf(1.0 / 3.0);
    assert!(
        (cube_skew.max_load_tuples() as f64) < 3.0 * resilience,
        "Cor 3.2(ii) resilience violated: {} vs {resilience}",
        cube_skew.max_load_tuples()
    );
}

/// Example 3.7: the four vertices of `pk(C3)` and their loads; the maximum
/// is both the algorithm's load and the lower bound.
#[test]
fn example_3_7_triangle_vertex_table() {
    let q = named::cycle(3);
    let vertices = pk(&q);
    let mut expected = vec![
        Packing(vec![Rat::new(1, 2); 3]),
        Packing(vec![Rat::ONE, Rat::ZERO, Rat::ZERO]),
        Packing(vec![Rat::ZERO, Rat::ONE, Rat::ZERO]),
        Packing(vec![Rat::ZERO, Rat::ZERO, Rat::ONE]),
    ];
    expected.sort();
    assert_eq!(vertices, expected);

    // Regime A (balanced sizes): the fractional vertex wins.
    let st_a = SimpleStatistics::synthetic(&[2, 2, 2], vec![1 << 16; 3], 1 << 20);
    let (_, win_a) = bounds::l_lower(&packing_vertices(&q), &st_a, 64);
    assert_eq!(win_a.to_f64(), vec![0.5, 0.5, 0.5]);

    // Regime B (one giant relation): its unit vertex wins.
    let st_b = SimpleStatistics::synthetic(&[2, 2, 2], vec![1 << 26, 1 << 10, 1 << 10], 64);
    let (_, win_b) = bounds::l_lower(&packing_vertices(&q), &st_b, 8);
    assert_eq!(win_b.to_f64(), vec![1.0, 0.0, 0.0]);
}

/// Example 4.8: residual lower bounds for the join and the triangle.
#[test]
fn example_4_8_residual_bounds() {
    // Join: x = {z} gives sqrt(Σ_h M1(h) M2(h) / p); C3: x = {x1} gives
    // sqrt(Σ_h M1(h) M3(h) / p) via the packing (1, 0, 1).
    let q = named::cycle(3);
    let n = 1u64 << 12;
    let mut rng = Rng::seed_from_u64(3);
    let d: Vec<(Vec<u64>, usize)> = vec![(vec![5], 200), (vec![6], 100)];
    // x1 appears at position 0 of S1 and position 1 of S3.
    let s1 = generators::from_degree_sequence("S1", 2, &[0], &d, n, &mut rng);
    let s2 = generators::uniform("S2", 2, 300, n, &mut rng);
    let s3 = generators::from_degree_sequence("S3", 2, &[1], &d, n, &mut rng);
    let db = Database::new(q.clone(), vec![s1, s2, s3], n).unwrap();

    let x1 = VarSet::singleton(0);
    // The saturating packing (1,0,1) exists for q_{x1}.
    let sat = saturating_pk(&q, x1);
    assert!(sat.contains(&Packing(vec![Rat::ONE, Rat::ZERO, Rat::ONE])));
    // And the residual query has the shape the example says.
    let qx = residual_query(&q, x1);
    assert_eq!(qx.atom(0).arity(), 1);
    assert_eq!(qx.atom(1).arity(), 2);
    assert_eq!(qx.atom(2).arity(), 1);

    let deg = degree_statistics(&db, x1);
    let bits = db.value_bits();
    let (val, u) = bounds::residual_lower_bound(&q, &deg, 16, bits, n).unwrap();
    // Manual sqrt(Σ_h M1(h) M3(h) / p) for the planted degrees.
    let term = |f: f64| 2.0 * f * bits as f64;
    let manual = ((term(200.0) * term(200.0) + term(100.0) * term(100.0)) / 16.0).sqrt();
    assert!(
        (val - manual).abs() / manual < 1e-9,
        "bound {val} vs manual {manual} (u = {:?})",
        u.to_f64()
    );
    assert_eq!(u.to_f64(), vec![1.0, 0.0, 1.0]);
}

/// Example 5.2: triangles with equal sizes — replication rate `Ω(sqrt(M/L))`
/// and at least `(M/L)^{3/2}` reducers.
#[test]
fn example_5_2_triangle_replication() {
    let q = named::cycle(3);
    let m_bits = (3u64 << 20) as f64;
    let st = SimpleStatistics {
        cardinalities: vec![1 << 17; 3],
        bit_sizes: vec![m_bits as u64; 3],
        value_bits: 12,
        domain: 1 << 12,
    };
    let vertices = packing_vertices(&q);
    for factor in [4.0f64, 16.0, 64.0] {
        let l = m_bits / factor;
        let r = bounds::replication_rate_bound(&vertices, &st, l);
        let expected = (m_bits / l).sqrt() / 3.0;
        assert!((r - expected).abs() / expected < 1e-9);
        let reducers = bounds::min_reducers(&vertices, &st, l);
        assert!((reducers - factor.powf(1.5)).abs() / reducers < 1e-9);
    }
}

/// Section 3.3's broadcast observation: a relation with `M_j <= M/p` can be
/// broadcast, and the closed-form bound follows the residual query. Checks
/// that our `l_lower` handles the regime (dominated vertices can win).
#[test]
fn broadcast_regime_lower_bound() {
    let q = named::cartesian(3);
    // M1 tiny: optimal strategy broadcasts S1 and splits S2 x S3.
    let st = SimpleStatistics::synthetic(&[1, 1, 1], vec![1 << 4, 1 << 14, 1 << 16], 1 << 20);
    let p = 8usize;
    let (val, u) = bounds::l_lower(&packing_vertices(&q), &st, p);
    let m = st.bit_sizes_f64();
    let expected = (m[1] * m[2] / p as f64).sqrt();
    assert!(
        (val - expected).abs() / expected < 1e-9,
        "broadcast-regime bound {val} vs {expected}"
    );
    assert_eq!(u.to_f64(), vec![0.0, 1.0, 1.0]);
}
