//! A library of the standard queries used throughout the paper.
//!
//! All constructors produce atoms named `S1, S2, ...` so statistics and
//! relation bindings line up by atom index everywhere in the workspace.

use crate::query::Query;

/// The `u`-way cartesian product `q(x1..xu) = S1(x1), ..., Su(xu)`
/// (Section 1's warm-up example).
pub fn cartesian(u: usize) -> Query {
    assert!(u >= 1);
    let names: Vec<String> = (1..=u).map(|i| format!("S{i}")).collect();
    let vars: Vec<String> = (1..=u).map(|i| format!("x{i}")).collect();
    let atoms: Vec<(&str, Vec<&str>)> = (0..u)
        .map(|i| (names[i].as_str(), vec![vars[i].as_str()]))
        .collect();
    let borrowed: Vec<(&str, &[&str])> = atoms.iter().map(|(n, v)| (*n, v.as_slice())).collect();
    Query::build(format!("X{u}"), &borrowed).expect("cartesian query is well-formed")
}

/// The chain (path) query
/// `Lw = S1(x1,x2), S2(x2,x3), ..., Sw(xw, x(w+1))` (Section 2.2).
pub fn chain(w: usize) -> Query {
    assert!(w >= 1);
    let names: Vec<String> = (1..=w).map(|i| format!("S{i}")).collect();
    let vars: Vec<String> = (1..=w + 1).map(|i| format!("x{i}")).collect();
    let atoms: Vec<(&str, Vec<&str>)> = (0..w)
        .map(|i| {
            (
                names[i].as_str(),
                vec![vars[i].as_str(), vars[i + 1].as_str()],
            )
        })
        .collect();
    let borrowed: Vec<(&str, &[&str])> = atoms.iter().map(|(n, v)| (*n, v.as_slice())).collect();
    Query::build(format!("L{w}"), &borrowed).expect("chain query is well-formed")
}

/// The cycle query
/// `Cw = S1(x1,x2), ..., Sw(xw,x1)`; `cycle(3)` is the triangle query `C3`
/// of Eq. (4).
pub fn cycle(w: usize) -> Query {
    assert!(w >= 3, "cycles need at least 3 atoms to avoid a self-join");
    let names: Vec<String> = (1..=w).map(|i| format!("S{i}")).collect();
    let vars: Vec<String> = (1..=w).map(|i| format!("x{i}")).collect();
    let atoms: Vec<(&str, Vec<&str>)> = (0..w)
        .map(|i| {
            (
                names[i].as_str(),
                vec![vars[i].as_str(), vars[(i + 1) % w].as_str()],
            )
        })
        .collect();
    let borrowed: Vec<(&str, &[&str])> = atoms.iter().map(|(n, v)| (*n, v.as_slice())).collect();
    Query::build(format!("C{w}"), &borrowed).expect("cycle query is well-formed")
}

/// The star query with `w` rays sharing a center:
/// `q = S1(x1, z), ..., Sw(xw, z)`.
pub fn star(w: usize) -> Query {
    assert!(w >= 1);
    let names: Vec<String> = (1..=w).map(|i| format!("S{i}")).collect();
    let vars: Vec<String> = (1..=w).map(|i| format!("x{i}")).collect();
    let atoms: Vec<(&str, Vec<&str>)> = (0..w)
        .map(|i| (names[i].as_str(), vec![vars[i].as_str(), "z"]))
        .collect();
    let borrowed: Vec<(&str, &[&str])> = atoms.iter().map(|(n, v)| (*n, v.as_slice())).collect();
    Query::build(format!("Star{w}"), &borrowed).expect("star query is well-formed")
}

/// The two-relation join `q(x,y,z) = S1(x,z), S2(y,z)` of Example 3.3 and
/// Section 4.1.
pub fn two_way_join() -> Query {
    Query::build("Join", &[("S1", &["x", "z"]), ("S2", &["y", "z"])])
        .expect("join query is well-formed")
}

/// The Loomis–Whitney query `LW(k)`: `k` atoms of arity `k-1`, atom `j`
/// containing every variable except `x_j`. `LW(3)` is the triangle `C3`
/// (up to attribute order). These queries maximize the gap between
/// sequential (`ρ* = k/(k-1)`) and one-round parallel (`τ* = k/(k-1)` too —
/// their packing polytope is the uniform simplex slice) complexity and are
/// the standard stress test in this literature.
pub fn loomis_whitney(k: usize) -> Query {
    assert!(k >= 3, "LW needs k >= 3 (LW(2) would be a self-join pair)");
    let names: Vec<String> = (1..=k).map(|i| format!("S{i}")).collect();
    let vars: Vec<String> = (1..=k).map(|i| format!("x{i}")).collect();
    let atoms: Vec<(&str, Vec<&str>)> = (0..k)
        .map(|j| {
            (
                names[j].as_str(),
                (0..k)
                    .filter(|&i| i != j)
                    .map(|i| vars[i].as_str())
                    .collect(),
            )
        })
        .collect();
    let borrowed: Vec<(&str, &[&str])> = atoms.iter().map(|(n, v)| (*n, v.as_slice())).collect();
    Query::build(format!("LW{k}"), &borrowed).expect("LW query is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes() {
        assert_eq!(cartesian(3).num_vars(), 3);
        assert_eq!(cartesian(3).num_atoms(), 3);
        assert_eq!(chain(3).num_vars(), 4);
        assert_eq!(chain(3).num_atoms(), 3);
        assert_eq!(cycle(3).num_vars(), 3);
        assert_eq!(cycle(5).num_atoms(), 5);
        assert_eq!(star(4).num_vars(), 5);
        assert_eq!(two_way_join().num_vars(), 3);
    }

    #[test]
    fn chain_matches_section_2_2() {
        let q = chain(3);
        assert_eq!(
            q.to_string(),
            "L3(x1,x2,x3,x4) = S1(x1,x2), S2(x2,x3), S3(x3,x4)"
        );
    }

    #[test]
    fn triangle_matches_eq_4() {
        let q = cycle(3);
        assert_eq!(
            q.to_string(),
            "C3(x1,x2,x3) = S1(x1,x2), S2(x2,x3), S3(x3,x1)"
        );
    }

    #[test]
    #[should_panic(expected = "self-join")]
    fn tiny_cycle_panics() {
        let _ = cycle(2);
    }

    #[test]
    fn loomis_whitney_shape() {
        let q = loomis_whitney(3);
        assert_eq!(q.num_vars(), 3);
        assert_eq!(q.num_atoms(), 3);
        assert_eq!(q.atom(0).arity(), 2);
        // Atom j omits exactly the variable named x_{j+1} (variable
        // *indices* follow interning order, not name order).
        for j in 0..3 {
            let omitted = q.var_index(&format!("x{}", j + 1)).unwrap();
            assert!(!q.atom(j).var_set().contains(omitted));
        }
        let q4 = loomis_whitney(4);
        assert_eq!(q4.num_vars(), 4);
        assert_eq!(q4.atom(2).arity(), 3);
    }

    #[test]
    fn loomis_whitney_tau_star() {
        // Every variable appears in k-1 atoms: the uniform packing
        // u_j = 1/(k-1) is tight, so τ* = k/(k-1).
        use crate::packing::{max_packing_value, packing_vertices};
        use mpc_lp::Rat;
        for (k, tau) in [
            (3, Rat::new(3, 2)),
            (4, Rat::new(4, 3)),
            (5, Rat::new(5, 4)),
        ] {
            assert_eq!(
                max_packing_value(&packing_vertices(&loomis_whitney(k))),
                tau
            );
        }
    }
}
