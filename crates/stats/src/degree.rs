//! Degree sequences — the paper's *x-statistics* (Section 4.3).
//!
//! For a variable set `x` and each atom `S_j` with `x_j = x ∩ vars(S_j)`,
//! the x-statistics record the exact frequency `m_j(h_j) = |σ_{x_j=h_j}(S_j)|`
//! of every partial assignment. The skewed lower bound `L_x(u, M, p)`
//! (Theorem 4.7) is a sum over joint assignments `h` of products of these
//! frequencies; [`sum_over_assignments`] evaluates such sums exactly,
//! factorizing over connected components of the atom-overlap graph so that
//! cartesian blow-ups never materialize.

use mpc_data::catalog::Database;
use mpc_data::fastmap::FastMap;
use mpc_query::VarSet;

/// Frequencies of one atom's projections onto `x_j`.
#[derive(Clone, Debug)]
pub struct AtomDegrees {
    /// Atom index `j`.
    pub atom: usize,
    /// `x_j = x ∩ vars(S_j)`.
    pub vars: VarSet,
    /// Attribute positions realizing `vars`, in `vars.iter()` order.
    pub cols: Vec<usize>,
    /// `m_j(h_j)` for every present assignment (absent ⇒ 0). For
    /// `x_j = ∅` this holds a single empty key mapping to `m_j`.
    pub map: FastMap<Vec<u64>, usize>,
    /// Cardinality `m_j`.
    pub cardinality: usize,
}

/// The full x-statistics of a database.
#[derive(Clone, Debug)]
pub struct DegreeStatistics {
    /// The variable set `x`.
    pub x: VarSet,
    /// Per-atom degree maps, in atom order.
    pub per_atom: Vec<AtomDegrees>,
}

/// Collect exact x-statistics from the data.
pub fn degree_statistics(db: &Database, x: VarSet) -> DegreeStatistics {
    let q = db.query();
    let per_atom = (0..q.num_atoms())
        .map(|j| {
            let vars = x.intersect(q.atom(j).var_set());
            let cols = crate::heavy::columns_for(q, j, vars);
            let rel = db.relation(j);
            let map = rel.frequencies(&cols);
            AtomDegrees {
                atom: j,
                vars,
                cols,
                map,
                cardinality: rel.len(),
            }
        })
        .collect();
    DegreeStatistics { x, per_atom }
}

/// Positions (within `x.iter()` order) of the variables of `sub ⊆ x`.
fn slots_of(x: VarSet, sub: VarSet) -> Vec<usize> {
    let xvars: Vec<usize> = x.iter().collect();
    sub.iter()
        .map(|v| {
            xvars
                .iter()
                .position(|&w| w == v)
                .expect("sub must be a subset of x")
        })
        .collect()
}

/// Enumerate the joint assignments `h` to `x` that are *present* (nonzero
/// frequency) in every atom of `active`, together with the per-active-atom
/// frequencies. Variables of `x` not covered by any active atom must not
/// exist (assert), since they would make the assignment set infinite.
///
/// Returned values are in `x.iter()` (ascending variable index) order.
pub(crate) fn joint_assignments(
    stats: &DegreeStatistics,
    active: &[usize],
) -> Vec<(Vec<u64>, Vec<usize>)> {
    let x = stats.x;
    let d = x.len();
    let covered = active
        .iter()
        .fold(VarSet::EMPTY, |s, &j| s.union(stats.per_atom[j].vars));
    assert_eq!(
        covered, x,
        "active atoms must cover all of x for explicit enumeration"
    );
    // Partial assignments: values over x-slots (None = unbound) plus the
    // frequencies of the atoms processed so far.
    let mut partials: Vec<(Vec<Option<u64>>, Vec<usize>)> = vec![(vec![None; d], Vec::new())];
    for &j in active {
        let ad = &stats.per_atom[j];
        let slots = slots_of(x, ad.vars);
        if slots.is_empty() {
            for p in &mut partials {
                p.1.push(ad.cardinality);
            }
            continue;
        }
        // Index this atom's keys by the sub-key on slots already bound by
        // *all* partials. Bound slots are identical across partials (they
        // are determined by the processing order), so inspect the first.
        let bound_positions: Vec<usize> = (0..slots.len())
            .filter(|&i| partials.first().is_some_and(|p| p.0[slots[i]].is_some()))
            .collect();
        let mut index: FastMap<Vec<u64>, Vec<(&Vec<u64>, usize)>> = FastMap::default();
        for (key, &freq) in &ad.map {
            let sub: Vec<u64> = bound_positions.iter().map(|&i| key[i]).collect();
            index.entry(sub).or_default().push((key, freq));
        }
        let mut next: Vec<(Vec<Option<u64>>, Vec<usize>)> = Vec::new();
        for (values, freqs) in &partials {
            let probe: Vec<u64> = bound_positions
                .iter()
                .map(|&i| values[slots[i]].expect("bound position"))
                .collect();
            let Some(matches) = index.get(&probe) else {
                continue;
            };
            for (key, freq) in matches {
                let mut v2 = values.clone();
                let mut ok = true;
                for (i, &slot) in slots.iter().enumerate() {
                    match v2[slot] {
                        None => v2[slot] = Some(key[i]),
                        Some(existing) => {
                            if existing != key[i] {
                                ok = false;
                                break;
                            }
                        }
                    }
                }
                if ok {
                    let mut f2 = freqs.clone();
                    f2.push(*freq);
                    next.push((v2, f2));
                }
            }
        }
        partials = next;
        if partials.is_empty() {
            return Vec::new();
        }
    }
    partials
        .into_iter()
        .map(|(values, freqs)| {
            let vals: Vec<u64> = values
                .into_iter()
                .map(|v| v.expect("all x variables covered"))
                .collect();
            (vals, freqs)
        })
        .collect()
}

/// Evaluate `Σ_h Π_{j ∈ active} f(j, m_j(h_j))` over joint assignments `h`
/// to `x` present in every active atom, factorized over connected
/// components of the overlap graph (atoms are connected when their `x_j`
/// intersect). Variables of `x` covered by no active atom contribute a free
/// factor of `domain` each (they range over all of `[n]`).
pub fn sum_over_assignments(
    stats: &DegreeStatistics,
    active: &[usize],
    domain: u64,
    f: impl Fn(usize, usize) -> f64,
) -> f64 {
    // Partition active atoms into overlap components.
    let mut remaining: Vec<usize> = active.to_vec();
    let mut total = 1.0f64;
    let mut covered = VarSet::EMPTY;
    while let Some(seed) = remaining.pop() {
        let mut comp = vec![seed];
        let mut comp_vars = stats.per_atom[seed].vars;
        loop {
            let before = comp.len();
            remaining.retain(|&j| {
                if !stats.per_atom[j].vars.intersect(comp_vars).is_empty() {
                    comp.push(j);
                    comp_vars = comp_vars.union(stats.per_atom[j].vars);
                    false
                } else {
                    true
                }
            });
            if comp.len() == before {
                break;
            }
        }
        covered = covered.union(comp_vars);
        // Sum within the component by explicit enumeration restricted to the
        // component's variables.
        let comp_stats = DegreeStatistics {
            x: comp_vars,
            per_atom: stats.per_atom.clone(),
        };
        let mut comp_sum = 0.0f64;
        if comp_vars.is_empty() {
            // All atoms in this component have x_j = ∅: single assignment.
            let mut term = 1.0;
            for &j in &comp {
                term *= f(j, stats.per_atom[j].cardinality);
            }
            comp_sum = term;
        } else {
            for (_, freqs) in joint_assignments(&comp_stats, &comp) {
                let mut term = 1.0;
                for (idx, &j) in comp.iter().enumerate() {
                    term *= f(j, freqs[idx]);
                }
                comp_sum += term;
            }
        }
        total *= comp_sum;
    }
    // Free variables of x range over the whole domain.
    let free = stats.x.minus(covered).len() as u32;
    total * (domain as f64).powi(free as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_data::{generators, Database, Relation, Rng};
    use mpc_query::named;

    fn join_db() -> Database {
        // S1(x,z), S2(y,z) with controlled z-degrees.
        let q = named::two_way_join();
        let mut rng = Rng::seed_from_u64(1);
        let d1: Vec<(Vec<u64>, usize)> = vec![(vec![5], 4), (vec![6], 2), (vec![7], 1)];
        let d2: Vec<(Vec<u64>, usize)> = vec![(vec![5], 3), (vec![7], 5), (vec![8], 2)];
        let s1 = generators::from_degree_sequence("S1", 2, &[1], &d1, 64, &mut rng);
        let s2 = generators::from_degree_sequence("S2", 2, &[1], &d2, 64, &mut rng);
        Database::new(q, vec![s1, s2], 64).unwrap()
    }

    #[test]
    fn degree_maps_are_exact() {
        let db = join_db();
        let z = db.query().var_index("z").unwrap();
        let st = degree_statistics(&db, VarSet::singleton(z));
        assert_eq!(st.per_atom[0].map[&vec![5u64]], 4);
        assert_eq!(st.per_atom[1].map[&vec![7u64]], 5);
        assert_eq!(st.per_atom[0].cardinality, 7);
    }

    #[test]
    fn empty_x_gives_cardinality_stat() {
        let db = join_db();
        let st = degree_statistics(&db, VarSet::EMPTY);
        assert_eq!(st.per_atom[0].map[&Vec::<u64>::new()], 7);
        assert_eq!(st.per_atom[1].map[&Vec::<u64>::new()], 10);
    }

    #[test]
    fn joint_assignments_intersect_keys() {
        let db = join_db();
        let z = db.query().var_index("z").unwrap();
        let st = degree_statistics(&db, VarSet::singleton(z));
        let mut ja = joint_assignments(&st, &[0, 1]);
        ja.sort();
        // Shared z values: 5 (4 & 3) and 7 (1 & 5). 6 and 8 are one-sided.
        assert_eq!(ja, vec![(vec![5u64], vec![4, 3]), (vec![7u64], vec![1, 5])]);
    }

    #[test]
    fn sum_over_assignments_matches_manual_join_size() {
        // Σ_h m1(h)·m2(h) is the exact join size: 4*3 + 1*5 = 17.
        let db = join_db();
        let z = db.query().var_index("z").unwrap();
        let st = degree_statistics(&db, VarSet::singleton(z));
        let s = sum_over_assignments(&st, &[0, 1], db.domain(), |_, freq| freq as f64);
        assert!((s - 17.0).abs() < 1e-9);
        // Cross-check against the actual join.
        assert_eq!(mpc_data::Join::of(&db).count().unwrap(), 17);
    }

    #[test]
    fn sum_factorizes_over_disjoint_atoms() {
        // x = {x, y}: S1 covers x, S2 covers y, no overlap: the sum of
        // m1(hx)·m2(hy) over pairs = m1 · m2 (each tuple counted once per
        // side) = 7 * 10 = 70. The factorized path must not materialize the
        // cross product.
        let db = join_db();
        let xv = db.query().var_index("x").unwrap();
        let yv = db.query().var_index("y").unwrap();
        let st = degree_statistics(&db, VarSet::from_iter([xv, yv]));
        let s = sum_over_assignments(&st, &[0, 1], db.domain(), |_, freq| freq as f64);
        assert!((s - 70.0).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn uncovered_variables_multiply_by_domain() {
        // x = {x}, active = [1] (S2 does not contain x): every value of x in
        // [n] is consistent, so Σ_h m2 = n * m2 = 64 * 10.
        let db = join_db();
        let xv = db.query().var_index("x").unwrap();
        let st = degree_statistics(&db, VarSet::singleton(xv));
        let s = sum_over_assignments(&st, &[1], db.domain(), |_, freq| freq as f64);
        assert!((s - 640.0).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn triangle_joint_assignments_chain_through_shared_vars() {
        // C3 with tiny explicit relations; x = {x1, x2}: S1 sees both, S2
        // sees x2, S3 sees x1.
        let q = named::cycle(3);
        let s1 = Relation::from_rows("S1", 2, &[&[1, 2], &[1, 3], &[4, 2]]);
        let s2 = Relation::from_rows("S2", 2, &[&[2, 9], &[3, 9], &[5, 9]]);
        let s3 = Relation::from_rows("S3", 2, &[&[9, 1], &[9, 4], &[9, 6]]);
        let db = Database::new(q, vec![s1, s2, s3], 16).unwrap();
        let st = degree_statistics(&db, VarSet::from_iter([0, 1]));
        let mut ja = joint_assignments(&st, &[0, 1, 2]);
        ja.sort();
        // Consistent (x1,x2) pairs present in S1 (cols x1,x2), S2 (x2), S3 (x1):
        // (1,2): S1 freq 1, S2(x2=2) 1, S3(x1=1) 1 -> yes
        // (1,3): S1 1, S2(3) 1, S3(1) 1 -> yes
        // (4,2): S1 1, S2(2) 1, S3(4) 1 -> yes
        assert_eq!(ja.len(), 3);
        for (_, freqs) in &ja {
            assert_eq!(freqs, &vec![1, 1, 1]);
        }
    }

    #[test]
    #[should_panic(expected = "cover")]
    fn joint_assignments_rejects_uncovered_x() {
        let db = join_db();
        let xv = db.query().var_index("x").unwrap();
        let st = degree_statistics(&db, VarSet::singleton(xv));
        // Active atom S2 does not contain x.
        let _ = joint_assignments(&st, &[1]);
    }
}
