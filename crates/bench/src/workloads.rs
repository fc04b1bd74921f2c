//! Shared workload builders for the experiment binaries.

use mpc_data::{generators, Database, Rng};
use mpc_query::Query;

/// One uniform relation per atom.
pub fn uniform_db(q: &Query, m: usize, n: u64, seed: u64) -> Database {
    let mut rng = Rng::seed_from_u64(seed);
    let rels = q
        .atoms()
        .iter()
        .map(|a| generators::uniform(a.name(), a.arity(), m, n, &mut rng))
        .collect();
    Database::new(q.clone(), rels, n).expect("valid uniform db")
}

/// One matching relation per atom (the skew-free extreme).
pub fn matching_db(q: &Query, m: usize, n: u64, seed: u64) -> Database {
    let mut rng = Rng::seed_from_u64(seed);
    let rels = q
        .atoms()
        .iter()
        .map(|a| generators::matching(a.name(), a.arity(), m, n, &mut rng))
        .collect();
    Database::new(q.clone(), rels, n).expect("valid matching db")
}

/// The skewed two-way-join workload used by E6: `z` Zipf(θ) in S1 with hot
/// values at the low end, Zipf(θ) in S2 with hot values at the *high* end
/// (disjoint celebrity sets, so the output stays materializable), plus one
/// shared heavy value (777 on both sides) of frequency `h12` — the H12
/// class of Section 4.1.
pub fn skewed_join_db(q: &Query, m: usize, n: u64, theta: f64, h12: usize, seed: u64) -> Database {
    assert!(h12 < m);
    let mut rng = Rng::seed_from_u64(seed);
    let mut d1 = generators::zipf_degrees(m - h12, n, theta);
    let mut d2: Vec<(Vec<u64>, usize)> = generators::zipf_degrees(m - h12, n, theta)
        .into_iter()
        .map(|(k, c)| (vec![n - 1 - k[0]], c))
        .collect();
    if h12 > 0 {
        d1.push((vec![777], h12));
        d2.push((vec![777], h12));
    }
    let s1 = generators::from_degree_sequence("S1", 2, &[1], &d1, n, &mut rng);
    let s2 = generators::from_degree_sequence("S2", 2, &[1], &d2, n, &mut rng);
    Database::new(q.clone(), vec![s1, s2], n).expect("valid skewed db")
}

/// Join-product skew for a two-atom join: `hot` shared join values, each
/// carried by `fanout` tuples on *both* sides, plus degree-1 light tails
/// on disjoint value ranges. Every hot value contributes a `fanout²`
/// cartesian block, so `|output| = hot · fanout² ≫ |inputs| = 2m` — the
/// inputs are barely skewed (`fanout ≪ m`), the *output* is extreme.
/// This is the workload where materializing answers costs `Θ(output)`
/// memory while aggregate pushdown (`mpc_core::aggregate`) stays
/// `Θ(groups)`.
pub fn product_skew_db(
    q: &Query,
    m: usize,
    n: u64,
    hot: usize,
    fanout: usize,
    seed: u64,
) -> Database {
    assert_eq!(q.num_atoms(), 2, "product_skew_db wants a two-atom join");
    assert!(hot * fanout <= m, "hot block exceeds relation size");
    assert!(hot as u64 + 2 * m as u64 <= n, "domain too small");
    let mut rng = Rng::seed_from_u64(seed);
    let light = m - hot * fanout;
    // Hot values 0..hot shared verbatim by both sides; light tails on
    // disjoint ranges (low for S1, high for S2) so they never join and
    // the output is exactly the hot product.
    let mut d1: Vec<(Vec<u64>, usize)> = (0..hot as u64).map(|z| (vec![z], fanout)).collect();
    d1.extend((0..light as u64).map(|i| (vec![hot as u64 + i], 1)));
    let mut d2: Vec<(Vec<u64>, usize)> = (0..hot as u64).map(|z| (vec![z], fanout)).collect();
    d2.extend((0..light as u64).map(|i| (vec![n - 1 - i], 1)));
    let s1 = generators::from_degree_sequence("S1", 2, &[1], &d1, n, &mut rng);
    let s2 = generators::from_degree_sequence("S2", 2, &[1], &d2, n, &mut rng);
    Database::new(q.clone(), vec![s1, s2], n).expect("valid product-skew db")
}

/// Correlated Zipf fan-out: both sides draw the *same* Zipf(θ) degree
/// sequence over the *same* join values, so the hottest value is hot on
/// both sides at once and the join output grows like `Σ_z d(z)²` — a
/// smooth version of [`product_skew_db`] (`skewed_join_db`, by contrast,
/// puts the two celebrity sets at opposite ends of the domain precisely
/// to keep its output small).
pub fn correlated_zipf_db(q: &Query, m: usize, n: u64, theta: f64, seed: u64) -> Database {
    assert_eq!(q.num_atoms(), 2, "correlated_zipf_db wants a two-atom join");
    let mut rng = Rng::seed_from_u64(seed);
    let d = generators::zipf_degrees(m, n, theta);
    let s1 = generators::from_degree_sequence("S1", 2, &[1], &d, n, &mut rng);
    let s2 = generators::from_degree_sequence("S2", 2, &[1], &d, n, &mut rng);
    Database::new(q.clone(), vec![s1, s2], n).expect("valid correlated zipf db")
}

/// A locally-skewed triangle workload for `named::cycle(3)`: the shared
/// variable `x2` is Zipf(θ)-distributed in *both* S1 (column 1) and S2
/// (column 0), with the same value 0 heaviest on both sides, while S3 stays
/// uniform. All three relations have `m` tuples. Fixed-order enumeration
/// that descends through the hot S1×S2 pairs first does Θ(heavy²) work on
/// this instance; the cardinality-guided dynamic order routes around it —
/// `local_join/skewed_triangle` in `bench_join.rs` measures exactly that
/// gap (`q` must be `named::cycle(3)` or an identically-shaped triangle).
pub fn zipf_triangle_db(q: &Query, m: usize, n: u64, theta: f64, seed: u64) -> Database {
    assert_eq!(q.num_atoms(), 3, "zipf_triangle_db wants a triangle query");
    let mut rng = Rng::seed_from_u64(seed);
    let s1 = generators::zipf_column("S1", 2, m, n, 1, theta, &mut rng);
    let s2 = generators::zipf_column("S2", 2, m, n, 0, theta, &mut rng);
    let s3 = generators::uniform("S3", 2, m, n, &mut rng);
    Database::new(q.clone(), vec![s1, s2, s3], n).expect("valid zipf triangle db")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_query::named;

    #[test]
    fn uniform_and_matching_builders() {
        let q = named::cycle(3);
        let u = uniform_db(&q, 100, 256, 1);
        assert_eq!(u.cardinalities(), vec![100; 3]);
        let m = matching_db(&q, 100, 256, 1);
        for j in 0..3 {
            assert_eq!(m.relation(j).max_frequency(&[0]), 1);
        }
    }

    #[test]
    fn zipf_triangle_builder_aligns_the_hot_variable() {
        let q = named::cycle(3);
        let db = zipf_triangle_db(&q, 2000, 1 << 10, 1.2, 3);
        assert_eq!(db.cardinalities(), vec![2000, 2000, 2000]);
        // x2 is column 1 of S1 and column 0 of S2; value 0 is the heaviest
        // on both sides (aligned local skew), far above the uniform mean.
        let hot1 = db.relation(0).frequencies(&[1])[&vec![0u64]];
        let hot2 = db.relation(1).frequencies(&[0])[&vec![0u64]];
        assert!(hot1 > 100 && hot2 > 100, "hot1={hot1} hot2={hot2}");
        assert!(db.relation(2).max_frequency(&[0]) < 20);
    }

    #[test]
    fn product_skew_output_is_the_hot_product() {
        let q = named::two_way_join();
        let (m, hot, fanout) = (400usize, 3usize, 20usize);
        let db = product_skew_db(&q, m, 1 << 12, hot, fanout, 7);
        assert_eq!(db.cardinalities(), vec![m, m]);
        let f1 = db.relation(0).frequencies(&[1]);
        let f2 = db.relation(1).frequencies(&[1]);
        for z in 0..hot as u64 {
            assert_eq!(f1[&vec![z]], fanout);
            assert_eq!(f2[&vec![z]], fanout);
        }
        // Light tails live on disjoint ranges: the output is exactly the
        // hot cartesian blocks, far larger than the inputs.
        let out = mpc_data::Join::of(&db).answers().unwrap();
        assert_eq!(out.len(), hot * fanout * fanout);
        assert!(out.len() > 2 * m);
    }

    #[test]
    fn correlated_zipf_aligns_hot_values_on_both_sides() {
        let q = named::two_way_join();
        let db = correlated_zipf_db(&q, 2000, 1 << 12, 1.2, 5);
        let f1 = db.relation(0).frequencies(&[1]);
        let f2 = db.relation(1).frequencies(&[1]);
        // Identical degree sequences: the same value is hottest on both
        // sides (unlike skewed_join_db's disjoint celebrity sets).
        let hot1 = f1.iter().max_by_key(|(_, &c)| c).unwrap();
        let hot2 = f2.iter().max_by_key(|(_, &c)| c).unwrap();
        assert_eq!(hot1.0, hot2.0);
        assert!(*hot1.1 > 100, "zipf head should be heavy: {}", hot1.1);
        assert_eq!(hot1.1, hot2.1);
    }

    #[test]
    fn skewed_join_builder_plants_h12() {
        let q = named::two_way_join();
        let db = skewed_join_db(&q, 2000, 1 << 12, 1.0, 300, 2);
        assert_eq!(db.cardinalities(), vec![2000, 2000]);
        let f1 = db.relation(0).frequencies(&[1]);
        let f2 = db.relation(1).frequencies(&[1]);
        assert!(f1[&vec![777u64]] >= 300);
        assert!(f2[&vec![777u64]] >= 300);
        // The two hot tails live at opposite ends of the domain.
        assert!(f1.contains_key(&vec![0u64]));
        assert!(f2.contains_key(&vec![(1u64 << 12) - 1]));
    }
}
