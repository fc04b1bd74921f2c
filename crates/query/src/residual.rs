//! Residual queries `q_x` and saturating packings (Section 4.3).
//!
//! For a set of variables `x`, the residual query `q_x` is obtained from `q`
//! by deleting the variables of `x` from every atom (the arity of `S_j`
//! drops by `|x ∩ vars(S_j)|`). A packing `u` of `q_x` *saturates* a
//! variable `x_i ∈ x` if the atoms that contained `x_i` in the *original*
//! query carry total weight at least 1. The skewed-data lower bound
//! (Theorem 4.7) ranges over packings of `q_x` that saturate all of `x`.
//!
//! Residual queries here keep the original variable index space (deleted
//! variables simply occur in no atom); this keeps atom indices and variable
//! indices stable across `q` and all of its residuals, which every consumer
//! of these types relies on.

use crate::packing::{packing_system, var_weight, Packing};
use crate::query::Query;
use crate::varset::VarSet;
use mpc_lp::{enumerate_vertices, non_dominated_max, Rat, RatMatrix};

/// The residual query `q_x`: drop the variables of `x` from every atom.
///
/// Atom order, atom names and variable indices are preserved; atoms whose
/// variables are all in `x` become zero-arity placeholders (they still
/// constrain the bound through their residual cardinality `m_j(h_j)`).
pub fn residual_query(q: &Query, x: VarSet) -> Query {
    let atoms = q
        .atoms()
        .iter()
        .map(|a| {
            let vars: Vec<usize> = a
                .vars()
                .iter()
                .copied()
                .filter(|&v| !x.contains(v))
                .collect();
            Query::make_atom(a.name().to_string(), vars)
        })
        .collect();
    let name = format!("{}_res{}", q.name(), x);
    let var_names = (0..q.num_vars())
        .map(|i| q.var_name(i).to_string())
        .collect();
    Query::from_parts(name, var_names, atoms)
}

/// True iff packing `u` (over `q_x`'s atoms = `q`'s atoms) saturates every
/// variable of `x`: for each `x_i ∈ x`, `Σ_{j : x_i ∈ vars(S_j)} u_j >= 1`,
/// with atom incidence taken in the *original* query.
pub fn saturates(q: &Query, u: &Packing, x: VarSet) -> bool {
    x.iter().all(|i| var_weight(q, u, i) >= Rat::ONE)
}

/// The constraint system of the *saturated residual polytope*: packings of
/// `q_x` (with caps on its zero-arity atoms, see [`packing_system`])
/// intersected with the saturation half-spaces `Σ_{j: x_i ∈ S_j} u_j >= 1`
/// for each `x_i ∈ x`.
fn saturated_system(q: &Query, x: VarSet) -> (RatMatrix, Vec<Rat>) {
    let qx = residual_query(q, x);
    let (a, mut b) = packing_system(&qx);
    let l = q.num_atoms();
    let extra = x.len();
    let base_rows = a.rows();
    let full = RatMatrix::from_fn(base_rows + extra, l, |row, j| {
        if row < base_rows {
            a[(row, j)]
        } else {
            // -Σ u_j <= -1 for the (row - base_rows)-th variable of x.
            let var = x.iter().nth(row - base_rows).expect("row in range");
            if q.atom(j).vars().contains(&var) {
                -Rat::ONE
            } else {
                Rat::ZERO
            }
        }
    });
    b.extend(std::iter::repeat_n(-Rat::ONE, extra));
    (full, b)
}

/// All vertices of the saturated residual polytope. Empty iff no packing of
/// `q_x` saturates `x` (then `x` yields no Theorem 4.7 bound).
pub fn saturating_packing_vertices(q: &Query, x: VarSet) -> Vec<Packing> {
    let (a, b) = saturated_system(q, x);
    let mut vs: Vec<Packing> = enumerate_vertices(&a, &b)
        .into_iter()
        .map(Packing)
        .collect();
    vs.sort();
    vs
}

/// Non-dominated vertices of the saturated residual polytope — the
/// candidates for the maximizer of `L_x(u, M, p)`.
pub fn saturating_pk(q: &Query, x: VarSet) -> Vec<Packing> {
    non_dominated_max(&saturating_packing_vertices(q, x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::named;

    #[test]
    fn residual_of_join_on_z() {
        // Example 4.8: q(x,y,z) = S1(x,z), S2(y,z); x = {z} gives
        // q_x = S1(x), S2(y) whose sole maximal packing (1,1) saturates z.
        let q = named::two_way_join();
        let z = q.var_index("z").unwrap();
        let x = VarSet::singleton(z);
        let qx = residual_query(&q, x);
        assert_eq!(qx.atom(0).vars(), &[q.var_index("x").unwrap()]);
        assert_eq!(qx.atom(1).vars(), &[q.var_index("y").unwrap()]);
        let u11 = Packing(vec![Rat::ONE, Rat::ONE]);
        assert!(crate::packing::is_packing(&qx, &u11));
        assert!(saturates(&q, &u11, x));
        assert!(saturating_packing_vertices(&q, x).contains(&u11));
        // (1,1) dominates everything else.
        assert_eq!(saturating_pk(&q, x), vec![u11]);
    }

    #[test]
    fn residual_of_triangle_on_x1() {
        // Example 4.8: C3, x = {x1}: residual S1(x2), S2(x2,x3), S3(x3);
        // (1,0,1) saturates x1 but (0,1,0) does not.
        let q = named::cycle(3);
        let x = VarSet::singleton(0);
        let u101 = Packing(vec![Rat::ONE, Rat::ZERO, Rat::ONE]);
        let u010 = Packing(vec![Rat::ZERO, Rat::ONE, Rat::ZERO]);
        let qx = residual_query(&q, x);
        assert!(crate::packing::is_packing(&qx, &u101));
        assert!(saturates(&q, &u101, x));
        assert!(!saturates(&q, &u010, x));
        assert!(saturating_packing_vertices(&q, x).contains(&u101));
        assert!(!saturating_packing_vertices(&q, x).contains(&u010));
    }

    #[test]
    fn zero_arity_atoms_survive() {
        // Remove both variables of S1 in the chain: S1 becomes zero-arity
        // but stays in the query with its index.
        let q = named::chain(2); // S1(x1,x2), S2(x2,x3)
        let x = VarSet::from_iter([0, 1]);
        let qx = residual_query(&q, x);
        assert_eq!(qx.num_atoms(), 2);
        assert_eq!(qx.atom(0).arity(), 0);
        assert_eq!(qx.atom(1).arity(), 1);
    }

    #[test]
    fn saturation_feasible_when_every_residual_atom_is_capped_alone() {
        // Star(2) = S1(x1,z), S2(x2,z) at x = {z, x1, x2}: saturation needs
        // u1 >= 1, u2 >= 1 and u1 + u2 >= 1, and the zero-arity residual
        // atoms' caps allow u = (1,1). Saturation is feasible here.
        let q = named::star(2);
        let x = q.all_vars();
        assert!(!saturating_packing_vertices(&q, x).is_empty());
    }

    #[test]
    fn saturation_infeasible_when_a_residual_variable_caps_the_sum() {
        // S1(x,z), S2(y,z) at x = {x, y}: saturating x needs u1 >= 1 and
        // saturating y needs u2 >= 1, but the residual S1(z), S2(z) keeps
        // z's packing row u1 + u2 <= 1. No packing saturates x.
        let q = named::two_way_join();
        let x = VarSet::from_iter([q.var_index("x").unwrap(), q.var_index("y").unwrap()]);
        assert!(saturating_packing_vertices(&q, x).is_empty());
    }

    #[test]
    fn empty_x_reduces_to_plain_packing_polytope() {
        let q = named::cycle(3);
        let with_empty = saturating_packing_vertices(&q, VarSet::EMPTY);
        let plain = crate::packing::packing_vertices(&q);
        assert_eq!(with_empty, plain);
    }

    #[test]
    fn residual_system_caps_only_swallowed_atoms() {
        // C3 = S1(x1,x2), S2(x2,x3), S3(x3,x1) at x = {x1, x2}: the residual
        // S1(), S2(x3), S3(x3) keeps the x3 row and caps only S1.
        let q = named::cycle(3);
        let (a, _) = packing_system(&residual_query(&q, VarSet::from_iter([0, 1])));
        assert_eq!(a.rows(), 2);
        assert_eq!(a.row(0), &[Rat::ZERO, Rat::ONE, Rat::ONE]);
        assert_eq!(a.row(1), &[Rat::ONE, Rat::ZERO, Rat::ZERO]);
    }

    #[test]
    fn residual_preserves_names_and_indices() {
        let q = named::cycle(3);
        let x = VarSet::singleton(1);
        let qx = residual_query(&q, x);
        assert_eq!(qx.atom(0).name(), "S1");
        assert_eq!(qx.num_vars(), q.num_vars());
        assert_eq!(qx.var_name(2), q.var_name(2));
    }
}
