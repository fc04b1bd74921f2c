//! Property-based tests for packing polytopes and residual queries.

use mpc_lp::{enumerate_vertices, Rat, RatMatrix};
use mpc_query::packing::{is_packing, max_packing_value, packing_system, packing_vertices, pk};
use mpc_query::residual::{residual_query, saturates, saturating_packing_vertices};
use mpc_query::{named, Packing, VarSet};
use mpc_testkit::prelude::*;

/// Generate a random small query: a random hypergraph over <= 5 variables
/// with 2..=4 atoms of arity 1..=3 (distinct variables per atom, distinct
/// relation names).
fn arb_query() -> impl Strategy<Value = mpc_query::Query> {
    let atom = mpc_testkit::collection::btree_set(0usize..5, 1..=3);
    mpc_testkit::collection::vec(atom, 2..=4).prop_map(|atoms| {
        let names: Vec<String> = (0..atoms.len()).map(|j| format!("S{}", j + 1)).collect();
        let var_names: Vec<String> = (0..5).map(|i| format!("x{}", i + 1)).collect();
        let spec: Vec<(&str, Vec<&str>)> = atoms
            .iter()
            .enumerate()
            .map(|(j, vs)| {
                (
                    names[j].as_str(),
                    vs.iter().map(|&v| var_names[v].as_str()).collect(),
                )
            })
            .collect();
        let borrowed: Vec<(&str, &[&str])> = spec.iter().map(|(n, v)| (*n, v.as_slice())).collect();
        mpc_query::Query::build("rq", &borrowed).expect("generated query is valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every enumerated vertex is a feasible packing; every pk element is a
    /// vertex; and pk contains a maximizer of the total weight.
    #[test]
    fn vertices_are_packings_and_pk_attains_tau(q in arb_query()) {
        let all = packing_vertices(&q);
        prop_assert!(!all.is_empty());
        for v in &all {
            prop_assert!(is_packing(&q, v), "vertex {:?} infeasible for {}", v, q);
        }
        let nd = pk(&q);
        for v in &nd {
            prop_assert!(all.contains(v));
        }
        let tau = max_packing_value(&all);
        prop_assert!(nd.iter().any(|v| v.value() == tau),
            "no pk vertex attains tau* = {tau}");
    }

    /// Scaling any vertex down stays feasible (the polytope is down-closed).
    #[test]
    fn polytope_is_down_closed(q in arb_query(), num in 0i64..=4) {
        let scale = Rat::new(num as i128, 4);
        for v in packing_vertices(&q) {
            let scaled = Packing(v.0.iter().map(|w| *w * scale).collect());
            prop_assert!(is_packing(&q, &scaled));
        }
    }

    /// τ* is monotone under removing atoms... (removing an atom cannot
    /// increase the packing value of the remaining atoms beyond the original
    /// polytope's projection — here we check the weaker sound property that
    /// τ* of a sub-query with one atom dropped is <= τ* + 1 and >= τ* - 1.)
    #[test]
    fn tau_star_is_stable_under_atom_removal(q in arb_query()) {
        let tau = max_packing_value(&packing_vertices(&q)).to_f64();
        prop_assume!(q.num_atoms() > 2);
        // Rebuild without the last atom.
        let spec: Vec<(String, Vec<String>)> = q.atoms()[..q.num_atoms() - 1]
            .iter()
            .map(|a| (
                a.name().to_string(),
                a.vars().iter().map(|&v| q.var_name(v).to_string()).collect(),
            ))
            .collect();
        let refs: Vec<(&str, Vec<&str>)> = spec.iter()
            .map(|(n, vs)| (n.as_str(), vs.iter().map(String::as_str).collect()))
            .collect();
        let borrowed: Vec<(&str, &[&str])> = refs.iter().map(|(n, v)| (*n, v.as_slice())).collect();
        let q2 = mpc_query::Query::build("rq2", &borrowed).unwrap();
        let tau2 = max_packing_value(&packing_vertices(&q2)).to_f64();
        prop_assert!(tau2 <= tau + 1e-9, "dropping an atom increased tau*");
        prop_assert!(tau2 >= tau - 1.0 - 1e-9, "dropping one atom lost more than 1");
    }

    /// LP duality: τ* (max packing, exact) equals the fractional vertex
    /// cover number (f64 LP) on random queries.
    #[test]
    fn duality_on_random_queries(q in arb_query()) {
        let tau = max_packing_value(&packing_vertices(&q)).to_f64();
        let vc = mpc_query::cover::vertex_cover_number(&q).unwrap();
        prop_assert!((tau - vc).abs() < 1e-6, "tau*={tau} vc={vc} for {q}");
    }

    /// The packing system keeps only the rows that can be tight at a vertex
    /// (variables that occur, caps on zero-arity atoms), and has the same
    /// vertex set as Eq. (2) with a row for every variable and a cap for
    /// every atom, on residual queries too.
    #[test]
    fn trimmed_system_has_the_every_cap_vertices(q in arb_query(), xbits in 0u64..32) {
        let x = VarSet::from_bits(xbits & ((1u64 << q.num_vars()) - 1));
        let qx = residual_query(&q, x);
        let (k, l) = (qx.num_vars(), qx.num_atoms());
        let every_cap = RatMatrix::from_fn(k + l, l, |row, j| {
            let hit = if row < k { qx.atom(j).vars().contains(&row) } else { row - k == j };
            if hit { Rat::ONE } else { Rat::ZERO }
        });
        let mut want = enumerate_vertices(&every_cap, &vec![Rat::ONE; k + l]);
        want.sort();
        let (a, b) = packing_system(&qx);
        prop_assert!(a.rows() <= k + l);
        let mut got = enumerate_vertices(&a, &b);
        got.sort();
        prop_assert_eq!(got, want, "vertex sets differ for {}", qx);
    }

    /// Saturating vertices: every returned vertex is a packing of q_x and
    /// saturates x.
    #[test]
    fn saturating_vertices_are_sound(q in arb_query(), xbits in 0u64..32) {
        let x = VarSet::from_bits(xbits & ((1u64 << q.num_vars()) - 1));
        let qx = residual_query(&q, x);
        for v in saturating_packing_vertices(&q, x) {
            prop_assert!(is_packing(&qx, &v),
                "vertex {:?} not a packing of residual {}", v, qx);
            prop_assert!(saturates(&q, &v, x),
                "vertex {:?} does not saturate {}", v, x);
        }
    }

    /// Residual query structure: variables of x occur in no residual atom,
    /// and arities only shrink.
    #[test]
    fn residual_erases_x(q in arb_query(), xbits in 0u64..32) {
        let x = VarSet::from_bits(xbits & ((1u64 << q.num_vars()) - 1));
        let qx = residual_query(&q, x);
        for (a, ra) in q.atoms().iter().zip(qx.atoms()) {
            prop_assert!(ra.arity() <= a.arity());
            for &v in ra.vars() {
                prop_assert!(!x.contains(v));
            }
        }
    }
}

/// L8 has 9 variables and no zero-arity atom: 9 rows, where a cap on every
/// atom would add 8 more.
#[test]
fn chain_system_has_one_row_per_variable_and_no_caps() {
    let (a, b) = packing_system(&named::chain(8));
    assert_eq!((a.rows(), a.cols(), b.len()), (9, 8, 9));
}

/// Round-trip: Display output of any named query re-parses to an equal query.
#[test]
fn display_parse_roundtrip() {
    for q in [
        named::cycle(3),
        named::cycle(4),
        named::chain(3),
        named::star(3),
        named::two_way_join(),
        named::cartesian(3),
    ] {
        let text = q.to_string();
        let q2 = mpc_query::parse_query(&text).expect("display output parses");
        assert_eq!(q, q2, "round-trip failed for {text}");
    }
}
