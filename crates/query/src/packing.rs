//! Fractional edge packings and the vertex set `pk(q)` (Sections 2.2, 3.3).
//!
//! A fractional edge packing of `q` assigns a weight `u_j >= 0` to every
//! atom such that for every variable `x_i`, the atoms containing `x_i` have
//! total weight at most 1 (Eq. 2 of the paper). The communication cost of
//! one-round evaluation is governed by the *non-dominated vertices* of this
//! polytope, which Theorem 3.6 calls `pk(q)`; this module enumerates them
//! exactly over the rationals.

use crate::query::Query;
use mpc_lp::{enumerate_vertices, non_dominated_max, Rat, RatMatrix};

/// A fractional edge packing: one rational weight per atom, in atom order.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Packing(pub Vec<Rat>);

impl Packing {
    /// The packing's total weight `u = Σ_j u_j`.
    pub fn value(&self) -> Rat {
        self.0.iter().copied().sum()
    }

    /// Weights as `f64`s.
    pub fn to_f64(&self) -> Vec<f64> {
        self.0.iter().map(Rat::to_f64).collect()
    }

    /// Number of atoms.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

impl AsRef<[Rat]> for Packing {
    fn as_ref(&self) -> &[Rat] {
        &self.0
    }
}

/// The constraint system `A u <= b` of the packing polytope of `q` (Eq. 2):
/// one row `Σ_{j: i∈S_j} u_j <= 1` per variable that occurs in some atom,
/// then a cap `u_j <= 1` per zero-arity atom (residual queries `q_x` have
/// those when `x` swallows an atom, and no variable row bounds them).
///
/// A cap on any other atom would be redundant and leave the vertex set as
/// it is: where `u_j = 1` is tight, the row of any `i ∈ S_j` is tight too,
/// as is `u_{j'} >= 0` for every other atom `j'` holding `i`, and those
/// already span `e_j`. A variable in no atom would add an all-zero row,
/// which no nonsingular subsystem holds. Redundant rows only cost: the
/// enumeration tries `C(rows + ℓ, ℓ)` subsets, 24 310 on the 8-atom chain
/// instead of 1 081 575 with every cap.
pub fn packing_system(q: &Query) -> (RatMatrix, Vec<Rat>) {
    // Each row as the atoms it sums: an atom holds a variable or not (a
    // repeated occurrence counts once, per `i ∈ S_j`).
    let caps = (0..q.num_atoms()).filter(|&j| q.atom(j).vars().is_empty());
    let rows: Vec<Vec<usize>> = (0..q.num_vars())
        .map(|i| q.atoms_with_var(i).collect::<Vec<_>>())
        .filter(|atoms| !atoms.is_empty())
        .chain(caps.map(|j| vec![j]))
        .collect();
    let a = RatMatrix::from_fn(rows.len(), q.num_atoms(), |r, j| {
        Rat::int(rows[r].contains(&j) as i64)
    });
    (a, vec![Rat::ONE; rows.len()])
}

/// True iff `u` is a feasible fractional edge packing of `q`.
pub fn is_packing(q: &Query, u: &Packing) -> bool {
    u.len() == q.num_atoms()
        && !u.0.iter().any(Rat::is_negative)
        && (0..q.num_vars()).all(|i| var_weight(q, u, i) <= Rat::ONE)
}

/// True iff `u` is a *tight* packing: every variable constraint holds with
/// equality. (Every tight fractional edge packing is a tight fractional edge
/// cover and vice versa — Section 2.2.)
#[cfg(test)]
pub(crate) fn is_tight_packing(q: &Query, u: &Packing) -> bool {
    is_packing(q, u) && (0..q.num_vars()).all(|i| var_weight(q, u, i) == Rat::ONE)
}

/// The weight `Σ_{j: i∈S_j} u_j` that `u` puts on variable `i`.
pub(crate) fn var_weight(q: &Query, u: &Packing, i: usize) -> Rat {
    q.atoms_with_var(i).map(|j| u.0[j]).sum()
}

/// All vertices of the packing polytope of `q` (including dominated ones and
/// the origin), sorted. This is the one place the polytope is enumerated:
/// τ*, `pk(q)` and every bound in `mpc_core::bounds` are derived from this
/// list, so a caller that needs several of them enumerates once.
pub fn packing_vertices(q: &Query) -> Vec<Packing> {
    let (a, b) = packing_system(q);
    let mut vs: Vec<Packing> = enumerate_vertices(&a, &b)
        .into_iter()
        .map(Packing)
        .collect();
    vs.sort();
    vs
}

/// `pk(q)`: the non-dominated vertices of the packing polytope
/// (Section 3.3), sorted. These are the only candidates for the maximizer
/// of `L(u, M, p)` after broadcast preprocessing.
pub fn pk(q: &Query) -> Vec<Packing> {
    non_dominated_max(&packing_vertices(q))
}

/// The maximum total weight `τ*` over a packing polytope's `vertices`
/// (from [`packing_vertices`]), equal by LP duality to the fractional
/// vertex covering number of `q` (Section 1, discussion after Theorem 1.1).
pub fn max_packing_value(vertices: &[Packing]) -> Rat {
    vertices
        .iter()
        .map(Packing::value)
        .max()
        .unwrap_or(Rat::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::named;

    fn r(n: i64, d: i64) -> Rat {
        Rat::new(n as i128, d as i128)
    }

    fn tau(q: &Query) -> Rat {
        max_packing_value(&packing_vertices(q))
    }

    #[test]
    fn triangle_pk_matches_example_3_7() {
        // Example 3.7: pk(C3) has exactly four vertices:
        // (1/2,1/2,1/2), (1,0,0), (0,1,0), (0,0,1).
        let q = named::cycle(3);
        let mut got = pk(&q);
        got.sort();
        let mut expected = vec![
            Packing(vec![r(1, 2), r(1, 2), r(1, 2)]),
            Packing(vec![Rat::ONE, Rat::ZERO, Rat::ZERO]),
            Packing(vec![Rat::ZERO, Rat::ONE, Rat::ZERO]),
            Packing(vec![Rat::ZERO, Rat::ZERO, Rat::ONE]),
        ];
        expected.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn chain_l3_contains_101() {
        // Section 2.2: for L3 = S1(x1,x2),S2(x2,x3),S3(x3,x4) the solution
        // (1,0,1) is a tight feasible packing and appears in pk.
        let q = named::chain(3);
        let u = Packing(vec![Rat::ONE, Rat::ZERO, Rat::ONE]);
        assert!(is_packing(&q, &u));
        assert!(is_tight_packing(&q, &u));
        assert!(pk(&q).contains(&u));
    }

    #[test]
    fn chain_packing_violations_detected() {
        let q = named::chain(3);
        // u1 + u2 = 3/2 > 1 at variable x2.
        let bad = Packing(vec![Rat::ONE, r(1, 2), Rat::ZERO]);
        assert!(!is_packing(&q, &bad));
        let neg = Packing(vec![-r(1, 2), Rat::ZERO, Rat::ZERO]);
        assert!(!is_packing(&q, &neg));
        let wrong_len = Packing(vec![Rat::ONE]);
        assert!(!is_packing(&q, &wrong_len));
    }

    #[test]
    fn cartesian_product_packing_is_all_ones() {
        // Atoms share no variables: u = (1,...,1) is the unique non-dominated
        // vertex and τ* = ℓ.
        let q = named::cartesian(3);
        let vs = pk(&q);
        assert_eq!(vs, vec![Packing(vec![Rat::ONE; 3])]);
        assert_eq!(tau(&q), Rat::int(3));
    }

    #[test]
    fn star_query_tau_star() {
        // Star with 3 rays S_i(x_i, z): the center's row forces
        // Σ u_i <= 1, so τ* = 1.
        let q = named::star(3);
        assert_eq!(tau(&q), Rat::ONE);
        // Non-dominated vertices are the three unit vectors.
        let vs = pk(&q);
        assert_eq!(vs.len(), 3);
        for v in &vs {
            assert_eq!(v.value(), Rat::ONE);
        }
    }

    #[test]
    fn two_way_join_tau_star_is_one() {
        // q(x,y,z) = S1(x,z), S2(y,z): the shared z caps u1+u2 <= 1.
        let q = named::two_way_join();
        assert_eq!(tau(&q), Rat::ONE);
        let vs = pk(&q);
        let mut expected = vec![
            Packing(vec![Rat::ONE, Rat::ZERO]),
            Packing(vec![Rat::ZERO, Rat::ONE]),
        ];
        expected.sort();
        assert_eq!(vs, expected);
    }

    #[test]
    fn tightness_examples() {
        let q = named::cycle(3);
        assert!(is_tight_packing(&q, &Packing(vec![r(1, 2); 3])));
        assert!(!is_tight_packing(
            &q,
            &Packing(vec![Rat::ONE, Rat::ZERO, Rat::ZERO])
        ));
    }

    #[test]
    fn pk_excludes_origin_and_dominated() {
        let q = named::cycle(3);
        let all = packing_vertices(&q);
        // The raw polytope has the origin; pk must not.
        assert!(all.contains(&Packing(vec![Rat::ZERO; 3])));
        assert!(!pk(&q).contains(&Packing(vec![Rat::ZERO; 3])));
        assert!(all.len() > pk(&q).len());
    }

    #[test]
    fn longer_cycles_and_chains_have_sane_tau() {
        // C4: maximum matching of a 4-cycle = 2; C5: τ* = 5/2 fractional.
        assert_eq!(tau(&named::cycle(4)), Rat::int(2));
        assert_eq!(tau(&named::cycle(5)), r(5, 2));
        // Chain Lw: ceil(w/2)... L4 = S1..S4 over x1..x5: max packing 2
        // ({S1,S3} or {S1,S4} or {S2,S4}).
        assert_eq!(tau(&named::chain(4)), Rat::int(2));
        assert_eq!(tau(&named::chain(5)), Rat::int(3));
    }
}
