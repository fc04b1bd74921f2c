//! Fractional edge covers, the AGM bound, and the vertex-cover LP for `τ*`.
//!
//! A fractional edge cover flips the `<=` of the packing constraints to `>=`
//! (Section 2.2). Covers bound the *output size* of a query (Friedgut's
//! inequality / AGM, Section 2.3: `|q| <= Π_j |S_j|^{u_j}`), and the minimum
//! cover value `ρ*` captures sequential complexity, while the maximum
//! packing value `τ*` captures one-round parallel complexity — the contrast
//! the paper's introduction draws.

use crate::query::Query;
use mpc_lp::{Cmp, LinearProgram, LpError, Sense};

/// Minimum fractional edge cover weights (argmin of `Σ u_j`), via LP.
pub fn min_edge_cover(q: &Query) -> Result<Vec<f64>, LpError> {
    let mut lp = LinearProgram::new(Sense::Minimize);
    let vars: Vec<usize> = (0..q.num_atoms()).map(|_| lp.add_var(1.0)).collect();
    for i in 0..q.num_vars() {
        let terms: Vec<(usize, f64)> = q.atoms_with_var(i).map(|j| (vars[j], 1.0)).collect();
        lp.add_constraint(&terms, Cmp::Ge, 1.0);
    }
    lp.solve().map(|s| s.x)
}

/// The fractional edge covering number `ρ*` of `q`.
pub fn edge_cover_number(q: &Query) -> Result<f64, LpError> {
    Ok(min_edge_cover(q)?.iter().sum())
}

/// The fractional vertex covering number `τ*` of `q`, computed by LP
/// (minimize `Σ_i v_i` s.t. `Σ_{i ∈ S_j} v_i >= 1` per atom). By LP duality
/// this equals the maximum fractional edge packing value — the identity the
/// paper uses after Theorem 1.1.
pub fn vertex_cover_number(q: &Query) -> Result<f64, LpError> {
    let mut lp = LinearProgram::new(Sense::Minimize);
    let vars: Vec<usize> = (0..q.num_vars()).map(|_| lp.add_var(1.0)).collect();
    for j in 0..q.num_atoms() {
        let terms: Vec<(usize, f64)> = q.atom(j).var_set().iter().map(|i| (vars[i], 1.0)).collect();
        lp.add_constraint(&terms, Cmp::Ge, 1.0);
    }
    lp.solve().map(|s| s.objective)
}

/// The AGM output-size bound `Π_j m_j^{u_j}` for the *minimum-value*
/// fractional edge cover weighted by `log m_j` (i.e. the tightest AGM bound
/// for the given cardinalities): `min Σ_j u_j log m_j` over covers `u`.
///
/// `cardinalities[j]` is `m_j = |S_j|`. Returns the bound on `|q|`.
pub fn agm_bound(q: &Query, cardinalities: &[usize]) -> Result<f64, LpError> {
    assert_eq!(cardinalities.len(), q.num_atoms());
    let mut lp = LinearProgram::new(Sense::Minimize);
    let vars: Vec<usize> = (0..q.num_atoms())
        .map(|j| lp.add_var((cardinalities[j].max(1) as f64).ln()))
        .collect();
    for i in 0..q.num_vars() {
        let terms: Vec<(usize, f64)> = q.atoms_with_var(i).map(|j| (vars[j], 1.0)).collect();
        lp.add_constraint(&terms, Cmp::Ge, 1.0);
    }
    lp.solve().map(|s| s.objective.exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::named;
    use crate::packing::{max_packing_value, packing_vertices, var_weight, Packing};
    use mpc_lp::Rat;

    /// True iff `u` is a feasible fractional edge cover of `q`: every
    /// variable is covered with total weight at least 1.
    fn is_cover(q: &Query, u: &Packing) -> bool {
        u.len() == q.num_atoms()
            && !u.0.iter().any(Rat::is_negative)
            && (0..q.num_vars()).all(|i| var_weight(q, u, i) >= Rat::ONE)
    }

    #[test]
    fn triangle_cover_number_is_three_halves() {
        let q = named::cycle(3);
        let rho = edge_cover_number(&q).unwrap();
        assert!((rho - 1.5).abs() < 1e-7, "rho* = {rho}");
    }

    #[test]
    fn triangle_agm_bound_is_sqrt_product() {
        // |C3| <= sqrt(m1 m2 m3) (Section 2.3).
        let q = named::cycle(3);
        let bound = agm_bound(&q, &[100, 400, 900]).unwrap();
        let expected = (100.0f64 * 400.0 * 900.0).sqrt();
        assert!(
            (bound - expected).abs() / expected < 1e-6,
            "bound {bound} vs {expected}"
        );
    }

    #[test]
    fn agm_bound_unequal_sizes_uses_small_relations() {
        // Join S1(x,z), S2(y,z): only cover is u1=u2=1 (x needs S1, y needs
        // S2), so AGM = m1*m2.
        let q = named::two_way_join();
        let bound = agm_bound(&q, &[10, 1000]).unwrap();
        assert!((bound - 10_000.0).abs() < 1.0, "bound {bound}");
    }

    #[test]
    fn duality_holds_on_standard_queries() {
        for q in [
            named::cycle(3),
            named::cycle(4),
            named::cycle(5),
            named::chain(2),
            named::chain(3),
            named::chain(4),
            named::star(2),
            named::star(3),
            named::star(4),
            named::two_way_join(),
            named::cartesian(2),
            named::cartesian(4),
        ] {
            let v = max_packing_value(&packing_vertices(&q)).to_f64();
            let tau = vertex_cover_number(&q).unwrap();
            assert!((v - tau).abs() < 1e-6, "{}: {v} vs {tau}", q.name());
        }
    }

    #[test]
    fn cover_predicate() {
        let q = named::cycle(3);
        let half = Packing(vec![Rat::new(1, 2); 3]);
        assert!(is_cover(&q, &half));
        let unit = Packing(vec![Rat::ONE, Rat::ZERO, Rat::ZERO]);
        assert!(!is_cover(&q, &unit)); // variable x3 uncovered
        let big = Packing(vec![Rat::ONE; 3]);
        assert!(is_cover(&q, &big));
    }

    #[test]
    fn tight_packing_is_tight_cover() {
        // Section 2.2: tight packings and tight covers coincide.
        let q = named::cycle(3);
        let u = Packing(vec![Rat::new(1, 2); 3]);
        assert!(crate::packing::is_tight_packing(&q, &u));
        assert!(is_cover(&q, &u));
    }

    #[test]
    fn star_cover_number() {
        // Star with 3 rays: every ray's leaf must be covered by its own atom,
        // so u_i = 1 for all: rho* = 3.
        let rho = edge_cover_number(&named::star(3)).unwrap();
        assert!((rho - 3.0).abs() < 1e-7);
    }
}
