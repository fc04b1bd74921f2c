//! Property tests for the statistics collectors.

use mpc_data::{generators, Database, Rng};
use mpc_query::{named, VarSet};
use mpc_stats::bins::{bin_of_frequency, num_bins};
use mpc_stats::combination::enumerate_combinations;
use mpc_stats::degree::{degree_statistics, sum_over_assignments};
use mpc_stats::heavy::heavy_hitters;
use mpc_testkit::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Binning is exhaustive and exclusive over the heavy range: every
    /// frequency above m/p lands in exactly one bin 1..=log2(p), and every
    /// frequency at or below m/p in none.
    #[test]
    fn bins_partition_heavy_range(
        m in 64usize..100_000,
        p_exp in 1u32..10,
        freq_frac in 0.0f64..1.0,
    ) {
        let p = 1usize << p_exp;
        let freq = ((m as f64 * freq_frac) as usize).min(m);
        let threshold = m as f64 / p as f64;
        match bin_of_frequency(freq, m, p) {
            None => prop_assert!(freq as f64 <= threshold),
            Some(b) => {
                prop_assert!((1..=num_bins(p)).contains(&b));
                prop_assert!(freq as f64 > threshold);
                // Bin membership matches the defining inequality, except the
                // last bin which absorbs everything down to the threshold.
                let upper = m as f64 / 2f64.powi(b as i32 - 1);
                prop_assert!(freq as f64 <= upper + 1e-9,
                    "freq {freq} above bin {b} upper {upper}");
                if b < num_bins(p) {
                    let lower = m as f64 / 2f64.powi(b as i32);
                    prop_assert!(freq as f64 > lower - 1e-9);
                }
            }
        }
    }

    /// There are always fewer than p heavy hitters (the paper's O(p) claim
    /// is actually < p for strict threshold m/p).
    #[test]
    fn heavy_hitter_count_below_p(seed in 0u64..300, p_exp in 1u32..8, theta in 0.0f64..2.0) {
        let p = 1usize << p_exp;
        let q = named::two_way_join();
        let n = 1u64 << 12;
        let m = 4096usize;
        let mut rng = Rng::seed_from_u64(seed);
        let d = generators::zipf_degrees(m, n, theta);
        let s1 = generators::from_degree_sequence("S1", 2, &[1], &d, n, &mut rng);
        let s2 = generators::uniform("S2", 2, m, n, &mut rng);
        let db = Database::new(q, vec![s1, s2], n).unwrap();
        let z = db.query().var_index("z").unwrap();
        let hh = heavy_hitters(&db, 0, VarSet::singleton(z), p);
        prop_assert!(hh.len() < p, "{} heavy hitters at p = {p}", hh.len());
        // All reported frequencies really exceed the threshold.
        for &f in hh.entries.values() {
            prop_assert!(f as f64 > hh.threshold());
        }
    }

    /// sum_over_assignments with f = freq equals the true join size for the
    /// two-way join (Σ_h m1(h) m2(h) = |q(I)|).
    #[test]
    fn sum_over_assignments_is_join_size(seed in 0u64..300, theta in 0.0f64..1.6) {
        let q = named::two_way_join();
        let n = 1u64 << 10;
        let m = 800usize;
        let mut rng = Rng::seed_from_u64(seed);
        let d1 = generators::zipf_degrees(m, n, theta);
        let d2 = generators::zipf_degrees(m, n, theta * 0.5);
        let s1 = generators::from_degree_sequence("S1", 2, &[1], &d1, n, &mut rng);
        let s2 = generators::from_degree_sequence("S2", 2, &[1], &d2, n, &mut rng);
        let db = Database::new(q, vec![s1, s2], n).unwrap();
        let z = db.query().var_index("z").unwrap();
        let st = degree_statistics(&db, VarSet::singleton(z));
        let s = sum_over_assignments(&st, &[0, 1], n, |_, f| f as f64);
        let actual = mpc_data::Join::of(&db).count().unwrap() as f64;
        prop_assert!((s - actual).abs() < 0.5, "sum {s} vs join size {actual}");
    }

    /// Every enumerated bin combination respects its own invariants:
    /// assignments consistent with (x, bins), |C'(B)| <= p, β ∈ [0, 1].
    #[test]
    fn combinations_are_internally_consistent(seed in 0u64..150, theta in 0.8f64..1.8) {
        let q = named::two_way_join();
        let n = 1u64 << 10;
        let m = 2048usize;
        let p = 16usize;
        let mut rng = Rng::seed_from_u64(seed);
        let d1 = generators::zipf_degrees(m, n, theta);
        let s1 = generators::from_degree_sequence("S1", 2, &[1], &d1, n, &mut rng);
        let s2 = generators::uniform("S2", 2, m, n, &mut rng);
        let db = Database::new(q, vec![s1, s2], n).unwrap();
        for combo in enumerate_combinations(&db, p) {
            prop_assert!(combo.assignments.len() <= p);
            prop_assert!(!combo.assignments.is_empty());
            for beta in &combo.beta {
                prop_assert!((0.0..=1.0 + 1e-9).contains(beta));
            }
            for a in &combo.assignments {
                prop_assert_eq!(a.values.len(), combo.x.len());
            }
        }
    }
}
