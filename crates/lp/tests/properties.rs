//! Property-based tests for the exact-rational and LP substrate.

use mpc_lp::{enumerate_vertices, is_feasible, Cmp, LinearProgram, Rat, RatMatrix, Sense};
use mpc_testkit::prelude::*;

/// Small rationals that cannot overflow through a few field operations.
fn small_rat() -> impl Strategy<Value = Rat> {
    (-50i128..=50, 1i128..=12).prop_map(|(n, d)| Rat::new(n, d))
}

proptest! {
    #[test]
    fn rat_addition_commutes(a in small_rat(), b in small_rat()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn rat_multiplication_commutes(a in small_rat(), b in small_rat()) {
        prop_assert_eq!(a * b, b * a);
    }

    #[test]
    fn rat_distributivity(a in small_rat(), b in small_rat(), c in small_rat()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn rat_additive_inverse(a in small_rat()) {
        prop_assert_eq!(a + (-a), Rat::ZERO);
    }

    #[test]
    fn rat_mul_div_roundtrip(a in small_rat(), b in small_rat()) {
        prop_assume!(!b.is_zero());
        prop_assert_eq!((a * b) / b, a);
    }

    #[test]
    fn rat_ordering_consistent_with_f64(a in small_rat(), b in small_rat()) {
        if a < b {
            prop_assert!(a.to_f64() <= b.to_f64());
        }
    }

    #[test]
    fn rat_canonical_form(n in -200i128..=200, d in 1i128..=60) {
        let r = Rat::new(n, d);
        // gcd(num, den) == 1 and den > 0
        prop_assert!(r.denom() > 0);
        let g = {
            let (mut a, mut b) = (r.numer().abs(), r.denom());
            while b != 0 { let t = a % b; a = b; b = t; }
            a
        };
        prop_assert!(g <= 1 || r.numer() == 0);
    }
}

// Random exactly-solvable square systems: Gaussian elimination must
// reconstruct the planted solution.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn solve_reconstructs_planted_solution(
        entries in mpc_testkit::collection::vec(-6i64..=6, 9),
        xs in mpc_testkit::collection::vec(-5i64..=5, 3),
    ) {
        let a = RatMatrix::from_fn(3, 3, |r, c| Rat::int(entries[r * 3 + c]));
        let x: Vec<Rat> = xs.iter().map(|&v| Rat::int(v)).collect();
        let b = a.mul_vec(&x);
        if let Some(solved) = a.solve(&b) {
            // Solution must satisfy the system even if A is singular-adjacent.
            prop_assert_eq!(a.mul_vec(&solved), b);
        }
    }
}

// Every enumerated vertex must be feasible, and every vertex must make at
// least `n` constraints tight (it is a basic feasible solution).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn vertices_are_basic_feasible(rows in mpc_testkit::collection::vec(
        mpc_testkit::collection::vec(0i64..=2, 3), 2..5))
    {
        let m = rows.len();
        let a = RatMatrix::from_fn(m, 3, |r, c| Rat::int(rows[r][c]));
        let b = vec![Rat::ONE; m];
        for v in enumerate_vertices(&a, &b) {
            prop_assert!(is_feasible(&a, &b, &v));
            let tight_nonneg = v.iter().filter(|x| x.is_zero()).count();
            let ax = a.mul_vec(&v);
            let tight_rows = ax.iter().zip(&b).filter(|(l, r)| l == r).count();
            prop_assert!(tight_nonneg + tight_rows >= 3,
                "vertex {:?} has only {} tight constraints", v, tight_nonneg + tight_rows);
        }
    }
}

// LP solutions must be feasible and no worse than a brute-force grid scan
// over the feasible region (sanity optimality check on random 2-var LPs).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn simplex_beats_grid_scan(
        c0 in -5.0f64..5.0, c1 in -5.0f64..5.0,
        a00 in 0.1f64..3.0, a01 in 0.1f64..3.0,
        a10 in 0.1f64..3.0, a11 in 0.1f64..3.0,
        b0 in 1.0f64..10.0, b1 in 1.0f64..10.0,
    ) {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_var(c0);
        let y = lp.add_var(c1);
        lp.add_constraint(&[(x, a00), (y, a01)], Cmp::Le, b0);
        lp.add_constraint(&[(x, a10), (y, a11)], Cmp::Le, b1);
        let sol = lp.solve().expect("bounded feasible LP");
        // Feasibility.
        prop_assert!(sol.x[x] >= -1e-9 && sol.x[y] >= -1e-9);
        prop_assert!(a00 * sol.x[x] + a01 * sol.x[y] <= b0 + 1e-6);
        prop_assert!(a10 * sol.x[x] + a11 * sol.x[y] <= b1 + 1e-6);
        // Optimality vs a coarse grid of feasible points.
        let hi = (b0 / a00.min(a01)).max(b1 / a10.min(a11));
        let steps = 60;
        for i in 0..=steps {
            for j in 0..=steps {
                let px = hi * i as f64 / steps as f64;
                let py = hi * j as f64 / steps as f64;
                if a00 * px + a01 * py <= b0 && a10 * px + a11 * py <= b1 {
                    let val = c0 * px + c1 * py;
                    prop_assert!(sol.objective >= val - 1e-5,
                        "grid point ({px},{py}) beats simplex: {val} > {}", sol.objective);
                }
            }
        }
    }
}
