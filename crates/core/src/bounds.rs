//! Every bound the paper states, as executable formulas.
//!
//! * `K(u, M)` and `L(u, M, p)` — Eqs. (6)–(7);
//! * `L_lower = max_{u ∈ pk(q)} L(u, M, p)` — Theorems 3.5/3.6;
//! * `L_x(u, M, p)` over saturating packings of residual queries —
//!   Theorem 4.7 (Eq. 12);
//! * the two-relation skew-join bound — Eq. (10);
//! * the MapReduce replication-rate bound — Theorem 5.1;
//! * the space exponent for given statistics — Section 3.3;
//! * the floor a run's answer count puts under its own loads — the
//!   counting argument of "Communication Cost in Parallel Query
//!   Processing" ([`output_floor`]).
//!
//! All bounds are "up to a constant `c` < 1 and polylog(p) factors"; the
//! functions below return the clean algebraic expression (constant 1), which
//! is the quantity the experiments compare measured loads against.
//!
//! The closed forms over the packing polytope take its vertex list, from
//! [`packing_vertices`](mpc_query::packing::packing_vertices), rather than
//! the query: a caller that needs several of them enumerates the polytope
//! once.

use mpc_lp::{non_dominated_max, Rat};
use mpc_query::cover::{agm_bound, min_edge_cover};
use mpc_query::residual::saturating_packing_vertices;
use mpc_query::{Packing, Query};
use mpc_stats::cardinality::SimpleStatistics;
use mpc_stats::degree::{sum_over_assignments, DegreeStatistics};
use mpc_stats::heavy::HeavyHitters;

/// `K(u, M) = Π_j M_j^{u_j}` (Eq. 6), computed in log space.
fn k_value(u: &[f64], m_bits: &[f64]) -> f64 {
    assert_eq!(u.len(), m_bits.len());
    let log_k: f64 = u
        .iter()
        .zip(m_bits)
        .map(|(&uj, &mj)| {
            if uj == 0.0 {
                0.0
            } else {
                uj * mj.max(f64::MIN_POSITIVE).ln()
            }
        })
        .sum();
    log_k.exp()
}

/// `L(u, M, p) = (K(u, M) / p)^{1/u}` with `u = Σ_j u_j` (Eq. 7).
/// Returns 0 for the degenerate `u = 0`.
fn l_value(u: &[f64], m_bits: &[f64], p: usize) -> f64 {
    let total: f64 = u.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let log_l = (k_value(u, m_bits).ln() - (p as f64).ln()) / total;
    log_l.exp()
}

/// The lower bound `L_lower = max_u L(u, M, p)` over the packing
/// polytope's `vertices` (Theorem 3.5 via Theorem 3.6), together with the
/// first maximizing vertex in list order.
///
/// Note on `pk(q)`: Theorem 3.6 states the maximum over the *non-dominated*
/// vertices `pk(q)`, which is valid after the paper's broadcast
/// preprocessing (every `M_j > max_j M_j / p`). For arbitrary statistics a
/// dominated vertex can win — e.g. the cartesian product `S1 × S2 × S3`
/// with `M_1 <= M_3/p` has its optimum at `(0,1,1)`, dominated by
/// `(1,1,1)`, because adding a broadcastable relation to the packing
/// *lowers* `L`. Maximizing over all vertices is always correct (every
/// packing gives a valid lower bound) and always equals the LP (5) optimum.
pub fn l_lower(vertices: &[Packing], stats: &SimpleStatistics, p: usize) -> (f64, Packing) {
    let m_bits = stats.bit_sizes_f64();
    let mut best_val = f64::NEG_INFINITY;
    let mut best = None;
    for v in vertices {
        let val = l_value(&v.to_f64(), &m_bits, p);
        if val > best_val {
            best_val = val;
            best = Some(v);
        }
    }
    (
        best_val,
        best.cloned()
            .expect("a packing polytope has at least the origin"),
    )
}

/// The per-vertex table of Example 3.7: every non-dominated member of
/// `vertices` (`pk(q)`) with its `L(u, M, p)`, sorted descending by load.
pub fn packing_load_table(
    vertices: &[Packing],
    stats: &SimpleStatistics,
    p: usize,
) -> Vec<(Packing, f64)> {
    let m_bits = stats.bit_sizes_f64();
    let mut rows: Vec<(Packing, f64)> = non_dominated_max(vertices)
        .into_iter()
        .map(|v| {
            let val = l_value(&v.to_f64(), &m_bits, p);
            (v, val)
        })
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite loads"));
    rows
}

/// `L_x(u, M, p) = (Σ_h K(u, M(h)) / p)^{1/u}` (Eq. 12) for one saturating
/// packing `u` of the residual query `q_x`, evaluated from exact
/// x-statistics. `M_j(h_j) = a_j · m_j(h_j) · log n` per the paper's bit
/// accounting. Returns 0 for `Σ u_j = 0`.
fn l_x_value(
    q: &Query,
    deg: &DegreeStatistics,
    u: &[f64],
    p: usize,
    value_bits: u32,
    domain: u64,
) -> f64 {
    let total: f64 = u.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let active: Vec<usize> = (0..q.num_atoms()).filter(|&j| u[j] > 0.0).collect();
    let sum = sum_over_assignments(deg, &active, domain, |j, freq| {
        let bits = q.atom(j).arity() as f64 * freq as f64 * value_bits as f64;
        if freq == 0 {
            0.0
        } else {
            bits.powf(u[j])
        }
    });
    ((sum / p as f64).ln() / total).exp()
}

/// The Theorem 4.7 lower bound for one variable set `x`: the maximum of
/// `L_x(u, M, p)` over the vertices of the saturated residual polytope.
/// Returns `None` when no packing of `q_x` saturates `x`.
pub fn residual_lower_bound(
    q: &Query,
    deg: &DegreeStatistics,
    p: usize,
    value_bits: u32,
    domain: u64,
) -> Option<(f64, Packing)> {
    let vertices = saturating_packing_vertices(q, deg.x);
    let mut best: Option<(f64, Packing)> = None;
    for v in vertices {
        let val = l_x_value(q, deg, &v.to_f64(), p, value_bits, domain);
        if val.is_finite() && best.as_ref().is_none_or(|(bv, _)| val > *bv) {
            best = Some((val, v));
        }
    }
    best
}

/// The Section 4.1 skew-join bound (Eq. 10):
/// `L = max(M1/p, M2/p, L1, L2, L12)` in bits, where
/// `L12 = sqrt(Σ_{h∈H12} M1(h)M2(h) / p)`, `Lj = sqrt(Σ_{h∈Hj} Mj(h) / p)`
/// ... the paper states these in tuples; we keep tuple units for `L1`,`L2`
/// (they come from cartesian products against broadcast sides) and convert
/// to bits uniformly at the end using each side's tuple width.
#[derive(Clone, Debug)]
pub struct SkewJoinBound {
    /// `m1/p` in tuples.
    pub scan1: f64,
    /// `m2/p` in tuples.
    pub scan2: f64,
    /// `sqrt(Σ_{h ∈ H12} m1(h) m2(h) / p)` in tuples.
    pub l12: f64,
    /// `sqrt(Σ_{h ∈ H1} m1(h) / p)` in tuples.
    pub l1: f64,
    /// `sqrt(Σ_{h ∈ H2} m2(h) / p)` in tuples.
    pub l2: f64,
}

impl SkewJoinBound {
    /// The combined bound `max(...)` in tuples.
    pub fn max_tuples(&self) -> f64 {
        self.scan1
            .max(self.scan2)
            .max(self.l12)
            .max(self.l1)
            .max(self.l2)
    }
}

/// Eq. (10) from the two shared-variable heavy sets the §4.1 planner
/// routes by ([`SkewJoin::plan_with`](crate::skew_join::SkewJoin::plan_with)
/// builds both with [`HeavyHitters::of`]). A value is in H12, H1 or H2 by
/// membership in `heavy1` and `heavy2`, the classification the routes use;
/// each set carries its cardinality `m_j` and `p`.
pub fn skew_join_bound(heavy1: &HeavyHitters, heavy2: &HeavyHitters) -> SkewJoinBound {
    let p = heavy1.p as f64;
    let mut k12 = 0.0f64;
    let mut k1 = 0.0f64;
    let mut k2 = 0.0f64;
    for (h, &f1) in &heavy1.entries {
        match heavy2.frequency(h) {
            Some(f2) => k12 += f1 as f64 * f2 as f64,
            None => k1 += f1 as f64,
        }
    }
    for (h, &f2) in &heavy2.entries {
        if heavy1.frequency(h).is_none() {
            k2 += f2 as f64;
        }
    }
    SkewJoinBound {
        scan1: heavy1.threshold(),
        scan2: heavy2.threshold(),
        l12: (k12 / p).sqrt(),
        l1: (k1 / p).sqrt(),
        l2: (k2 / p).sqrt(),
    }
}

/// Theorem 5.1: lower bound on the replication rate of any MapReduce-style
/// algorithm with reducer size `L` bits:
/// `r >= (L / Σ_j M_j) · max_u Π_j (M_j / L)^{u_j}`
/// over packings with total weight `u >= 1` (the theorem's proof uses
/// `u >= 1` for the optimal packing; sub-unit packings only yield the
/// trivial `r >= L/ΣM`), taken over the packing polytope's `vertices`. The
/// paper's constant `c^u` is omitted — shapes, not constants.
pub fn replication_rate_bound(
    vertices: &[Packing],
    stats: &SimpleStatistics,
    reducer_bits: f64,
) -> f64 {
    let m_bits = stats.bit_sizes_f64();
    let total: f64 = m_bits.iter().sum();
    let best = vertices
        .iter()
        .filter(|u| u.value() >= Rat::ONE)
        .map(|u| {
            let uf = u.to_f64();
            let log_prod: f64 = uf
                .iter()
                .zip(&m_bits)
                .map(|(&uj, &mj)| uj * (mj / reducer_bits).max(f64::MIN_POSITIVE).ln())
                .sum();
            log_prod.exp()
        })
        .fold(0.0f64, f64::max);
    reducer_bits / total * best
}

/// Minimum number of reducers implied by Theorem 5.1:
/// `p >= r · |I| / L` (Section 5; for equal-size triangles this is
/// `(M/L)^{3/2}` as in Example 5.2).
pub fn min_reducers(vertices: &[Packing], stats: &SimpleStatistics, reducer_bits: f64) -> f64 {
    let r = replication_rate_bound(vertices, stats, reducer_bits);
    r * stats.total_bits() as f64 / reducer_bits
}

/// Lemma A.1: the expected number of answers over the uniform probability
/// space of the lower bounds (each `S_j` a uniform random subset of
/// `[n]^{a_j}` of size `m_j`):
///
/// ```text
/// E[|q(I)|] = n^{k-a} · Π_j m_j
/// ```
///
/// Computed in log space; returns `f64::INFINITY` only on absurd inputs.
pub fn expected_answers(q: &Query, cardinalities: &[usize], n: u64) -> f64 {
    assert_eq!(cardinalities.len(), q.num_atoms());
    let k = q.num_vars() as f64;
    let a = q.total_arity() as f64;
    let log = (k - a) * (n as f64).ln()
        + cardinalities
            .iter()
            .map(|&m| (m.max(1) as f64).ln())
            .sum::<f64>();
    log.exp()
}

/// What one round's answer count forces on its own servers, from
/// `fragments[atom][server]` (a `LoadReport`'s per-atom, per-server tuple
/// counts), the answer count `out` and `p`. Returns `(L_out, Σ_s AGM)`:
///
/// * `Σ_s AGM(q; a_s)`: a server holding fragments of sizes `a_s` derives
///   at most `AGM(q; a_s)` distinct answers (none when one is empty), and
///   every answer is derived on some server, so a correct round has
///   `Σ_s AGM(q; a_s) ≥ out`.
/// * `L_out`, in tuples: for the minimum fractional edge cover `u` of value
///   `ρ`, `Π_j a_j^{u_j}` under `Σ_j a_j ≤ L` peaks at `a_j = u_j L / ρ`,
///   so some server holds at least
///   `L_out = (out / (p · Π_j (u_j/ρ)^{u_j}))^{1/ρ}` tuples. On the
///   two-atom join (`u = (1, 1)`) that is `2·√(out / p)`.
///
/// `out` is the distinct answer count; the derivation (bag) count is also
/// valid when the cover is integral, as on the join.
pub fn output_floor(q: &Query, fragments: &[Vec<u64>], out: u64, p: usize) -> (f64, f64) {
    assert_eq!(fragments.len(), q.num_atoms());
    let u = min_edge_cover(q).expect("every variable is in an atom, so a cover exists");
    let rho: f64 = u.iter().sum();
    let peak: f64 = (u.iter().filter(|&&uj| uj > 0.0))
        .map(|&uj| (uj / rho).powf(uj))
        .product();
    let l_out = (out as f64 / (p as f64 * peak)).powf(1.0 / rho);
    let agm_sum = (0..p)
        .map(|s| {
            let a: Vec<usize> = fragments.iter().map(|f| f[s] as usize).collect();
            match a.contains(&0) {
                true => 0.0,
                false => agm_bound(q, &a).expect("the cover LP is feasible"),
            }
        })
        .sum();
    (l_out, agm_sum)
}

/// The space exponent for given statistics (Section 3.3): writing
/// `M = max_j M_j` and `M_j = M / p^{ν_j}`, the optimal load is `M / p^{v*}`
/// with `v* = min_u (Σ_j ν_j u_j + 1) / Σ_j u_j` over the packing polytope's
/// nonzero `vertices`, and the space exponent is `1 - v*`.
pub fn space_exponent(vertices: &[Packing], stats: &SimpleStatistics, p: usize) -> f64 {
    let m_bits = stats.bit_sizes_f64();
    let m_max = m_bits.iter().fold(0.0f64, |a, &b| a.max(b));
    let logp = (p as f64).ln();
    let nu: Vec<f64> = m_bits
        .iter()
        .map(|&mj| ((m_max / mj.max(f64::MIN_POSITIVE)).ln() / logp).min(1.0))
        .collect();
    let v_star = vertices
        .iter()
        .filter_map(|u| {
            let uf = u.to_f64();
            let total: f64 = uf.iter().sum();
            if total <= 0.0 {
                return None;
            }
            let weighted: f64 = uf.iter().zip(&nu).map(|(&uj, &nuj)| uj * nuj).sum();
            Some((weighted + 1.0) / total)
        })
        .fold(f64::INFINITY, f64::min);
    1.0 - v_star
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_data::{generators, Database, Rng};
    use mpc_query::named;
    use mpc_query::packing::packing_vertices;
    use mpc_query::VarSet;
    use mpc_stats::degree::degree_statistics;

    fn stats(arities: &[usize], cards: &[usize]) -> SimpleStatistics {
        SimpleStatistics::synthetic(arities, cards.to_vec(), 1 << 20)
    }

    #[test]
    fn k_and_l_values() {
        // Equal sizes M: L((1/2,1/2,1/2), M, p) = M / p^{2/3}.
        let m = 1 << 20;
        let m_bits = vec![m as f64; 3];
        let u = vec![0.5; 3];
        let p = 64usize;
        let expected = m as f64 / (p as f64).powf(2.0 / 3.0);
        let got = l_value(&u, &m_bits, p);
        assert!((got - expected).abs() / expected < 1e-12);
        // Singleton packing: L = M/p.
        let got1 = l_value(&[1.0, 0.0, 0.0], &m_bits, p);
        assert!((got1 - m as f64 / 64.0).abs() < 1e-6);
    }

    #[test]
    fn example_3_7_table_for_triangle() {
        // Example 3.7's four rows: (1/2,1/2,1/2) -> (M1M2M3)^{1/3}/p^{2/3},
        // unit vectors -> M_j/p.
        let q = named::cycle(3);
        let st = stats(&[2, 2, 2], &[1 << 16, 1 << 18, 1 << 14]);
        let p = 64usize;
        let table = packing_load_table(&packing_vertices(&q), &st, p);
        assert_eq!(table.len(), 4);
        let m: Vec<f64> = st.bit_sizes_f64();
        let expect_half = (m[0] * m[1] * m[2]).powf(1.0 / 3.0) / (p as f64).powf(2.0 / 3.0);
        let found_half = table
            .iter()
            .find(|(u, _)| u.to_f64() == vec![0.5, 0.5, 0.5])
            .expect("fractional vertex present");
        assert!((found_half.1 - expect_half).abs() / expect_half < 1e-9);
        for j in 0..3 {
            let mut unit = vec![0.0; 3];
            unit[j] = 1.0;
            let found = table
                .iter()
                .find(|(u, _)| u.to_f64() == unit)
                .expect("unit vertex present");
            let expect = m[j] / p as f64;
            assert!((found.1 - expect).abs() / expect < 1e-9);
        }
        // l_lower is the table's max.
        let (lv, _) = l_lower(&packing_vertices(&q), &st, p);
        assert!((lv - table[0].1).abs() < 1e-9);
    }

    #[test]
    fn equal_cardinality_lower_bound_is_m_over_p_tau() {
        // When all M_j = M: L_lower = M / p^{1/τ*} (Section 3.2 discussion).
        for (q, tau) in [
            (named::cycle(3), 1.5),
            (named::chain(3), 2.0),
            (named::cartesian(2), 2.0),
            (named::two_way_join(), 1.0),
        ] {
            let st = stats(
                &vec![q.atom(0).arity(); q.num_atoms()],
                &vec![1 << 16; q.num_atoms()],
            );
            let p = 64usize;
            let (lv, _) = l_lower(&packing_vertices(&q), &st, p);
            let m = st.bit_sizes_f64()[0];
            let expected = m / (p as f64).powf(1.0 / tau);
            assert!(
                (lv - expected).abs() / expected < 1e-9,
                "{}: got {lv}, expected {expected}",
                q.name()
            );
        }
    }

    #[test]
    fn cartesian_bound_is_geometric_mean() {
        // Section 1: L = (m1 m2 / p)^{1/2} for the 2-way product.
        let q = named::cartesian(2);
        let st = stats(&[1, 1], &[1 << 12, 1 << 14]);
        let p = 16usize;
        let (lv, u) = l_lower(&packing_vertices(&q), &st, p);
        let m = st.bit_sizes_f64();
        let expected = (m[0] * m[1] / p as f64).sqrt();
        assert!((lv - expected).abs() / expected < 1e-9);
        assert_eq!(u.to_f64(), vec![1.0, 1.0]);
    }

    #[test]
    fn residual_bound_example_4_8_join() {
        // q = S1(x,z), S2(y,z), x = {z}: bound = sqrt(Σ_h M1(h)M2(h)/p).
        let q = named::two_way_join();
        let mut rng = Rng::seed_from_u64(1);
        let n = 1u64 << 12;
        let d: Vec<(Vec<u64>, usize)> = vec![(vec![1], 100), (vec![2], 50), (vec![3], 10)];
        let s1 = generators::from_degree_sequence("S1", 2, &[1], &d, n, &mut rng);
        let s2 = generators::from_degree_sequence("S2", 2, &[1], &d, n, &mut rng);
        let db = Database::new(q.clone(), vec![s1, s2], n).unwrap();
        let z = q.var_index("z").unwrap();
        let deg = degree_statistics(&db, VarSet::singleton(z));
        let p = 16usize;
        let bits = db.value_bits();
        let (val, u) = residual_lower_bound(&q, &deg, p, bits, n).unwrap();
        // Manual: Σ_h M1(h)M2(h) with M_j(h) = 2 * m_j(h) * bits.
        let term = |f: f64| 2.0 * f * bits as f64;
        let sum = term(100.0) * term(100.0) + term(50.0) * term(50.0) + term(10.0) * term(10.0);
        let expected = (sum / p as f64).sqrt();
        assert!(
            (val - expected).abs() / expected < 1e-9,
            "got {val} vs {expected}"
        );
        assert_eq!(u.to_f64(), vec![1.0, 1.0]);
    }

    #[test]
    fn residual_bound_dominates_cardinality_bound_under_skew() {
        // With a massive heavy hitter, the x={z} bound must exceed the
        // cardinality-only bound (x = ∅).
        let q = named::two_way_join();
        let mut rng = Rng::seed_from_u64(2);
        let n = 1u64 << 12;
        let m = 4096usize;
        let d: Vec<(Vec<u64>, usize)> = vec![(vec![1], m)];
        let s1 = generators::from_degree_sequence("S1", 2, &[1], &d, n, &mut rng);
        let s2 = generators::from_degree_sequence("S2", 2, &[1], &d, n, &mut rng);
        let db = Database::new(q.clone(), vec![s1, s2], n).unwrap();
        let p = 64usize;
        let bits = db.value_bits();
        let st = SimpleStatistics::of(&db);
        let (flat, _) = l_lower(&packing_vertices(&q), &st, p);
        let z = q.var_index("z").unwrap();
        let deg = degree_statistics(&db, VarSet::singleton(z));
        let (skewed, _) = residual_lower_bound(&q, &deg, p, bits, n).unwrap();
        assert!(
            skewed > 2.0 * flat,
            "skewed bound {skewed} should dominate flat {flat}"
        );
    }

    #[test]
    fn residual_bound_is_none_when_no_packing_saturates_x() {
        // x = {x, y} on S1(x,z), S2(y,z): saturation needs u1 >= 1 and
        // u2 >= 1 while z caps u1 + u2 <= 1, so x yields no bound.
        let q = named::two_way_join();
        let mut rng = Rng::seed_from_u64(3);
        let n = 1u64 << 10;
        let s1 = generators::uniform("S1", 2, 500, n, &mut rng);
        let s2 = generators::uniform("S2", 2, 500, n, &mut rng);
        let db = Database::new(q.clone(), vec![s1, s2], n).unwrap();
        let x = VarSet::from_iter([q.var_index("x").unwrap(), q.var_index("y").unwrap()]);
        let deg = degree_statistics(&db, x);
        assert!(residual_lower_bound(&q, &deg, 16, db.value_bits(), n).is_none());
    }

    #[test]
    fn skew_join_bound_matches_section_4_1_manual() {
        use mpc_data::FastMap;
        let p = 4usize;
        let m = 100usize;
        // threshold = 25. h=1: heavy both (50, 40). h=2: heavy in S1 only
        // (30; 5 in S2, light). h=3: heavy in S2 only (55; 10 in S1, light).
        // Light values are in neither heavy set.
        let heavy = |atom: usize, entries: &[(u64, usize)]| HeavyHitters {
            atom,
            vars: VarSet::singleton(1),
            cols: vec![1],
            entries: entries
                .iter()
                .map(|&(h, f)| (vec![h], f))
                .collect::<FastMap<_, _>>(),
            cardinality: m,
            p,
        };
        let b = skew_join_bound(
            &heavy(0, &[(1, 50), (2, 30)]),
            &heavy(1, &[(1, 40), (3, 55)]),
        );
        assert!((b.scan1 - 25.0).abs() < 1e-12);
        assert!((b.l12 - (50.0f64 * 40.0 / 4.0).sqrt()).abs() < 1e-9);
        assert!((b.l1 - (30.0f64 / 4.0).sqrt()).abs() < 1e-9);
        assert!((b.l2 - (55.0f64 / 4.0).sqrt()).abs() < 1e-9);
        assert!((b.max_tuples() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn replication_rate_example_5_2() {
        // Triangles with equal sizes M: r >= sqrt(M/L) and reducers >=
        // (M/L)^{3/2} (Example 5.2). Our constant-free versions give exactly
        // those with the (1/2,1/2,1/2) packing: r = L/3M * (M/L)^{3/2}
        // = sqrt(M/L)/3.
        let q = named::cycle(3);
        let m = (1u64 << 24) as f64;
        let st = SimpleStatistics {
            cardinalities: vec![1 << 20; 3],
            bit_sizes: vec![m as u64; 3],
            value_bits: 8,
            domain: 1 << 8,
        };
        let l = m / 64.0;
        let r = replication_rate_bound(&packing_vertices(&q), &st, l);
        let expected = (m / l).sqrt() / 3.0;
        assert!(
            (r - expected).abs() / expected < 1e-9,
            "r {r} vs {expected}"
        );
        let reducers = min_reducers(&packing_vertices(&q), &st, l);
        let expected_p = expected * 3.0 * m / l;
        assert!((reducers - expected_p).abs() / expected_p < 1e-9);
        // Shape: (M/L)^{3/2} up to the constant 3.
        assert!((reducers - (m / l).powf(1.5)).abs() / reducers < 1e-9);
    }

    #[test]
    fn expected_answers_matches_lemma_a1_empirically() {
        // Average |q(I)| over seeds vs n^{k-a} Π m_j for the two-way join.
        let q = named::two_way_join();
        let n = 64u64;
        let (m1, m2) = (600usize, 500usize);
        let formula = expected_answers(&q, &[m1, m2], n);
        assert!((formula - m1 as f64 * m2 as f64 / n as f64).abs() < 1e-6);
        let mut total = 0u64;
        let seeds = 30u64;
        for seed in 0..seeds {
            let mut rng = Rng::seed_from_u64(seed);
            let s1 = generators::uniform("S1", 2, m1, n, &mut rng);
            let s2 = generators::uniform("S2", 2, m2, n, &mut rng);
            let db = Database::new(q.clone(), vec![s1, s2], n).unwrap();
            total += mpc_data::Join::of(&db).count().unwrap();
        }
        let avg = total as f64 / seeds as f64;
        assert!(
            (avg - formula).abs() < formula * 0.1,
            "avg {avg} vs Lemma A.1 {formula}"
        );
    }

    #[test]
    fn expected_answers_triangle() {
        // C3: k=3, a=6 => E = m^3 / n^3.
        let q = named::cycle(3);
        let n = 128u64;
        let m = 1000usize;
        let e = expected_answers(&q, &[m; 3], n);
        let manual = (m as f64 / n as f64).powi(3);
        assert!((e - manual).abs() / manual < 1e-9);
    }

    #[test]
    fn space_exponent_equal_sizes() {
        // Equal sizes: v* = 1/τ*, ε = 1 - 1/τ*. For C3: 1 - 2/3 = 1/3.
        let q = named::cycle(3);
        let st = stats(&[2, 2, 2], &[1 << 16; 3]);
        let eps = space_exponent(&packing_vertices(&q), &st, 64);
        assert!((eps - (1.0 - 2.0 / 3.0)).abs() < 1e-9, "eps {eps}");
        // Two-way join: τ* = 1, ε = 0 (perfectly parallelizable).
        let j = named::two_way_join();
        let stj = stats(&[2, 2], &[1 << 16; 2]);
        assert!(space_exponent(&packing_vertices(&j), &stj, 64).abs() < 1e-9);
    }

    #[test]
    fn space_exponent_skewed_cardinalities_shrinks() {
        // If two of the triangle's relations are tiny, broadcasting them is
        // nearly free and the third is just scanned: exponent goes to ~0.
        let q = named::cycle(3);
        let p = 1usize << 12;
        let st = stats(&[2, 2, 2], &[1 << 24, 1 << 6, 1 << 6]);
        let eps = space_exponent(&packing_vertices(&q), &st, p);
        let st_eq = stats(&[2, 2, 2], &[1 << 24; 3]);
        let eps_eq = space_exponent(&packing_vertices(&q), &st_eq, p);
        assert!(eps < eps_eq, "skewed {eps} should be below equal {eps_eq}");
    }
}
