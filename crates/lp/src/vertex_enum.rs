//! Exact vertex enumeration for small H-polytopes.
//!
//! Section 3.3 of the paper characterizes the optimal load as a maximum of
//! `L(u, M, p)` over the *vertices* of the fractional edge packing polytope
//! `pk(q)`. This module enumerates those vertices exactly: every vertex of
//! `{x >= 0, A x <= b}` in dimension `n` is the unique solution of some
//! square subsystem of `n` tight constraints, so we enumerate all
//! `n`-subsets of the `m + n` constraints, solve each exactly over the
//! rationals, and keep the feasible, deduplicated solutions.
//!
//! The cost is `C(m + n, n)` exact `n × n` solves. The paper's polytopes
//! have `n = ℓ` (one coordinate per atom) and `m` rows, one per variable
//! plus one per zero-arity atom (see `mpc_query::packing::packing_system`),
//! so the count grows fast with the query: 24 310 subsets for the 8-atom
//! chain, 352 716 for the 10-atom chain. Every redundant row multiplies it,
//! which is why callers keep only the rows that can be tight at a vertex
//! and enumerate a polytope once per question. Unlike floating-point
//! pivoting, it never misses a degenerate vertex.

use crate::matrix::RatMatrix;
use crate::rational::Rat;
use std::collections::HashSet;

/// Enumerate all vertices of `{x in R^n : x >= 0, A x <= b}` exactly.
///
/// Returns each vertex once, in an unspecified but deterministic order.
/// The polytope must be bounded in the region of interest for the result to
/// be meaningful as "the set of vertices"; unbounded polyhedra simply yield
/// the vertices of their bounded skeleton (sufficient for packing polytopes,
/// which live in `[0,1]^n`).
pub fn enumerate_vertices(a: &RatMatrix, b: &[Rat]) -> Vec<Vec<Rat>> {
    let n = a.cols();
    let m = a.rows();
    assert_eq!(b.len(), m, "rhs length mismatch");
    let total = m + n;
    if n == 0 {
        return vec![vec![]];
    }

    // Constraint row i (< m): A_i x <= b_i. Row m+j: -x_j <= 0.
    let constraint_row = |idx: usize| -> (Vec<Rat>, Rat) {
        if idx < m {
            (a.row(idx).to_vec(), b[idx])
        } else {
            let j = idx - m;
            let mut row = vec![Rat::ZERO; n];
            row[j] = -Rat::ONE;
            (row, Rat::ZERO)
        }
    };

    let mut seen: HashSet<Vec<Rat>> = HashSet::new();
    let mut out = Vec::new();
    let mut subset: Vec<usize> = (0..n).collect();

    loop {
        // Solve the tight system for this subset.
        let sys = RatMatrix::from_fn(n, n, |r, c| constraint_row(subset[r]).0[c]);
        let rhs: Vec<Rat> = subset.iter().map(|&i| constraint_row(i).1).collect();
        if let Some(x) = sys.solve(&rhs) {
            if is_feasible(a, b, &x) && seen.insert(x.clone()) {
                out.push(x);
            }
        }

        // Advance to the next n-combination of [0, total).
        let mut i = n;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if subset[i] != i + total - n {
                subset[i] += 1;
                for j in (i + 1)..n {
                    subset[j] = subset[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// Check `x >= 0` and `A x <= b` exactly.
pub fn is_feasible(a: &RatMatrix, b: &[Rat], x: &[Rat]) -> bool {
    if x.iter().any(Rat::is_negative) {
        return false;
    }
    let ax = a.mul_vec(x);
    ax.iter().zip(b).all(|(lhs, rhs)| lhs <= rhs)
}

/// Filter a set of points down to the maximal (non-dominated) ones under the
/// componentwise partial order: `u` is dominated when some *other* point
/// `u'` satisfies `u'_j >= u_j` for all `j` with at least one strict.
///
/// This is exactly the `pk(q)` filter of Section 3.3: dominated packing
/// vertices can never achieve the maximum of `L(u, M, p)` because `L` is
/// monotone in each `u_j` (for `M_j >= p`). Input order is kept, so a
/// sorted vertex list filters to a sorted `pk(q)`.
pub fn non_dominated_max<P: AsRef<[Rat]> + Clone>(points: &[P]) -> Vec<P> {
    points
        .iter()
        .filter(|u| {
            let u = u.as_ref();
            !points.iter().any(|v| {
                let v = v.as_ref();
                v != u && v.iter().zip(u).all(|(a, b)| a >= b)
            })
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rat {
        Rat::new(n as i128, d as i128)
    }

    /// The unit square {0<=x<=1, 0<=y<=1}.
    #[test]
    fn unit_square_vertices() {
        let a = RatMatrix::from_fn(2, 2, |i, j| if i == j { Rat::ONE } else { Rat::ZERO });
        let b = vec![Rat::ONE, Rat::ONE];
        let mut vs = enumerate_vertices(&a, &b);
        vs.sort();
        assert_eq!(
            vs,
            vec![
                vec![Rat::ZERO, Rat::ZERO],
                vec![Rat::ZERO, Rat::ONE],
                vec![Rat::ONE, Rat::ZERO],
                vec![Rat::ONE, Rat::ONE],
            ]
        );
    }

    /// The triangle-query packing polytope:
    ///   u1+u2 <= 1, u2+u3 <= 1, u3+u1 <= 1, u >= 0.
    /// Vertices: 0, the three unit vectors, and (1/2,1/2,1/2).
    #[test]
    fn c3_packing_polytope() {
        let pairs = [[0usize, 1], [1, 2], [2, 0]];
        let a = RatMatrix::from_fn(3, 3, |i, j| {
            if pairs[i].contains(&j) {
                Rat::ONE
            } else {
                Rat::ZERO
            }
        });
        let b = vec![Rat::ONE; 3];
        let mut vs = enumerate_vertices(&a, &b);
        vs.sort();
        let mut expected = vec![
            vec![Rat::ZERO, Rat::ZERO, Rat::ZERO],
            vec![Rat::ONE, Rat::ZERO, Rat::ZERO],
            vec![Rat::ZERO, Rat::ONE, Rat::ZERO],
            vec![Rat::ZERO, Rat::ZERO, Rat::ONE],
            vec![r(1, 2), r(1, 2), r(1, 2)],
        ];
        expected.sort();
        assert_eq!(vs, expected);
    }

    #[test]
    fn non_dominated_filters_origin_and_units_below_half() {
        let pts = vec![
            vec![Rat::ZERO, Rat::ZERO],
            vec![Rat::ONE, Rat::ZERO],
            vec![Rat::ZERO, Rat::ONE],
            vec![r(1, 2), r(1, 2)],
        ];
        let mut nd = non_dominated_max(&pts);
        nd.sort();
        // Origin is dominated by everything; the rest are incomparable.
        let mut expected = vec![
            vec![Rat::ONE, Rat::ZERO],
            vec![Rat::ZERO, Rat::ONE],
            vec![r(1, 2), r(1, 2)],
        ];
        expected.sort();
        assert_eq!(nd, expected);
    }

    #[test]
    fn feasibility_is_exact() {
        let a = RatMatrix::from_fn(1, 2, |_, _| Rat::ONE);
        let b = vec![Rat::ONE];
        assert!(is_feasible(&a, &b, &[r(1, 2), r(1, 2)]));
        assert!(!is_feasible(&a, &b, &[r(1, 2), r(2, 3)]));
        assert!(!is_feasible(&a, &b, &[-r(1, 10), r(1, 2)]));
    }

    /// A degenerate polytope (a single point) is handled.
    #[test]
    fn single_point_polytope() {
        // x <= 0 together with x >= 0 pins x = 0.
        let a = RatMatrix::from_fn(1, 1, |_, _| Rat::ONE);
        let b = vec![Rat::ZERO];
        let vs = enumerate_vertices(&a, &b);
        assert_eq!(vs, vec![vec![Rat::ZERO]]);
    }
}
