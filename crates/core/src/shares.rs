//! Share-exponent optimization — LP (5), its residual form LP (11), and
//! Theorem 3.6.
//!
//! Given statistics `M` and `p` servers, the HyperCube algorithm needs one
//! share `p_i = p^{e_i}` per variable. The paper computes the exponents by
//! the LP
//!
//! ```text
//! minimize λ
//! s.t.  Σ_i e_i <= 1
//!       ∀j: Σ_{i ∈ S_j} e_i + λ >= µ_j      (µ_j = log_p M_j)
//!       e_i, λ >= 0
//! ```
//!
//! whose optimum `p^λ` equals the closed form
//! `max_{u ∈ pk(q)} L(u, M, p)` (Theorem 3.6) — so the LP is also how the
//! planner gets `L_lower`; the vertex enumeration in [`crate::bounds`] is
//! the reference the tests hold it to.
//!
//! §4.2's per-bin-combination LP (11) is the same program over the residual
//! variables `V − x` with right-hand sides `µ_j − β_j` and budget `1 − α`:
//! LP (5) is its instance `x = ∅, β = 0, α = 0`. `solve_share_lp` is the
//! one place either is built and solved.

use mpc_lp::{Cmp, LinearProgram, LpError, Sense};
use mpc_query::{Query, VarSet};
use mpc_sim::topology::round_shares;
use mpc_stats::cardinality::SimpleStatistics;

/// An optimized share allocation for a query.
#[derive(Clone, Debug)]
pub struct ShareAllocation {
    /// Share exponents `e_i`, one per query variable.
    pub exponents: Vec<f64>,
    /// The LP optimum `λ` (so the expected load is `p^λ` bits).
    pub lambda: f64,
    /// Integer shares (`Π shares <= p`), from [`round_shares`].
    pub shares: Vec<usize>,
    /// Server budget `p`.
    pub p: usize,
}

impl ShareAllocation {
    /// Solve LP (5) for `q`, `stats`, `p` and round to integer shares.
    pub fn optimize(
        q: &Query,
        stats: &SimpleStatistics,
        p: usize,
    ) -> Result<ShareAllocation, LpError> {
        assert!(p >= 1);
        assert_eq!(stats.num_relations(), q.num_atoms());
        if p == 1 {
            // Exponent space is degenerate at p = 1: the only allocation is
            // all-ones shares, and the load is the largest relation.
            let m_max = stats.bit_sizes_f64().iter().fold(1.0f64, |a, &b| a.max(b));
            return Ok(ShareAllocation {
                exponents: vec![0.0; q.num_vars()],
                lambda: m_max.log2(), // predicted_load_bits uses base p.max(2)
                shares: vec![1; q.num_vars()],
                p,
            });
        }
        let mu = log_p_sizes(stats, p);
        let (lambda, exponents) = solve_share_lp(q, VarSet::EMPTY, |j| mu[j], 1.0)?;
        let shares = round_shares(p, &exponents);
        Ok(ShareAllocation {
            exponents,
            lambda,
            shares,
            p,
        })
    }

    /// Equal shares `p_i = floor(p^{1/k})`: the skew-resilient allocation of
    /// Corollary 3.2(ii) / Example 3.3.
    pub(crate) fn equal(q: &Query, p: usize) -> ShareAllocation {
        let k = q.num_vars();
        let e = 1.0 / k as f64;
        let exponents = vec![e; k];
        let shares = round_shares(p, &exponents);
        ShareAllocation {
            exponents,
            lambda: f64::NAN,
            shares,
            p,
        }
    }

    /// The Afrati–Ullman share optimizer \[2\], for ablation: minimize the
    /// *total* (equivalently average) load `Σ_j M_j / Π_{i ∈ S_j} p^{e_i}`
    /// over the simplex `Σ e_i <= 1, e >= 0`, instead of LP (5)'s *maximum*
    /// load. The objective is convex in `e` (a sum of exponentials of
    /// affine functions), so projected gradient descent converges; on
    /// symmetric inputs both optimizers agree, on skewed cardinalities the
    /// AU solution can have a strictly worse maximum load — the reason the
    /// paper replaces the Lagrange-multiplier formulation with LP (5).
    pub fn afrati_ullman(q: &Query, stats: &SimpleStatistics, p: usize) -> ShareAllocation {
        let k = q.num_vars();
        let logp = (p.max(2) as f64).ln();
        let log_m: Vec<f64> = stats
            .bit_sizes_f64()
            .iter()
            .map(|&m| m.max(1.0).ln())
            .collect();
        let atoms_vars: Vec<Vec<usize>> = (0..q.num_atoms())
            .map(|j| q.atom(j).var_set().iter().collect())
            .collect();

        // Total load and gradient at exponent vector e.
        let eval = |e: &[f64]| -> (f64, Vec<f64>) {
            let mut total = 0.0;
            let mut grad = vec![0.0; k];
            for (j, vars) in atoms_vars.iter().enumerate() {
                let exponent = log_m[j] - logp * vars.iter().map(|&i| e[i]).sum::<f64>();
                let term = exponent.exp();
                total += term;
                for &i in vars {
                    grad[i] -= logp * term;
                }
            }
            (total, grad)
        };
        // Euclidean projection onto {e >= 0, Σ e <= 1}.
        let project = |e: &mut [f64]| {
            for v in e.iter_mut() {
                *v = v.max(0.0);
            }
            let s: f64 = e.iter().sum();
            if s <= 1.0 {
                return;
            }
            // Project onto the simplex Σ = 1 (sorting-based).
            let mut sorted: Vec<f64> = e.to_vec();
            sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
            let mut cum = 0.0;
            let mut theta = 0.0;
            for (r, &v) in sorted.iter().enumerate() {
                cum += v;
                let t = (cum - 1.0) / (r as f64 + 1.0);
                if v - t > 0.0 {
                    theta = t;
                }
            }
            for v in e.iter_mut() {
                *v = (*v - theta).max(0.0);
            }
        };

        let mut e = vec![1.0 / k as f64; k];
        let mut step = 0.5 / logp;
        let (mut best_val, _) = eval(&e);
        for _ in 0..500 {
            let (_, grad) = eval(&e);
            let norm = grad.iter().map(|g| g * g).sum::<f64>().sqrt().max(1e-12);
            let mut cand = e.clone();
            for (c, g) in cand.iter_mut().zip(&grad) {
                *c -= step * g / norm;
            }
            project(&mut cand);
            let (val, _) = eval(&cand);
            if val < best_val {
                best_val = val;
                e = cand;
            } else {
                step *= 0.7;
                if step < 1e-10 {
                    break;
                }
            }
        }
        // Report lambda as the resulting *maximum* per-relation exponent so
        // it is comparable with LP (5)'s objective.
        let lambda = (0..q.num_atoms())
            .map(|j| log_m[j] / logp - q.atom(j).var_set().iter().map(|i| e[i]).sum::<f64>())
            .fold(f64::NEG_INFINITY, f64::max)
            .max(0.0);
        let shares = round_shares(p, &e);
        ShareAllocation {
            exponents: e,
            lambda,
            shares,
            p,
        }
    }

    /// Explicit shares (testing / baselines).
    pub fn explicit(shares: Vec<usize>, p: usize) -> ShareAllocation {
        let logp = (p.max(2) as f64).ln();
        let exponents = shares.iter().map(|&s| (s as f64).ln() / logp).collect();
        ShareAllocation {
            exponents,
            lambda: f64::NAN,
            shares,
            p,
        }
    }

    /// The LP's predicted load `L_upper = p^λ` in bits.
    pub fn predicted_load_bits(&self) -> f64 {
        (self.p.max(2) as f64).powf(self.lambda)
    }

    /// The expected per-server load in bits for the *integer* shares:
    /// `max_j M_j / Π_{i ∈ S_j} p_i` (the expectation of Lemma 3.1(1),
    /// maxed over relations).
    pub fn expected_load_bits(&self, q: &Query, stats: &SimpleStatistics) -> f64 {
        self.per_atom_load_bits(q, stats).fold(0.0, f64::max)
    }

    /// The mean load in bits of the servers the integer shares use:
    /// `Σ_j M_j / Π_{i ∈ S_j} p_i`. Each of them receives that in
    /// expectation, and since atom `j`'s `M_j` bits go to `Π_{i ∉ S_j} p_i`
    /// of the `Π_i p_i` used servers, it is also the round's total
    /// communication divided among them: whatever the hashing does, the
    /// busiest server receives at least this much.
    pub(crate) fn mean_load_bits(&self, q: &Query, stats: &SimpleStatistics) -> f64 {
        self.per_atom_load_bits(q, stats).sum()
    }

    /// `M_j / Π_{i ∈ S_j} p_i` for each atom `j`.
    fn per_atom_load_bits<'a>(
        &'a self,
        q: &'a Query,
        stats: &'a SimpleStatistics,
    ) -> impl Iterator<Item = f64> + 'a {
        (q.atoms().iter().zip(&stats.bit_sizes)).map(|(atom, &m)| {
            let denom: f64 = (atom.var_set().iter())
                .map(|i| self.shares[i] as f64)
                .product();
            m as f64 / denom
        })
    }
}

/// `µ_j = log_p M_j` per atom (bit sizes clamped at 1, base `max(p, 2)`):
/// the right-hand sides of LP (5).
pub(crate) fn log_p_sizes(stats: &SimpleStatistics, p: usize) -> Vec<f64> {
    let logp = (p.max(2) as f64).ln();
    stats
        .bit_sizes_f64()
        .iter()
        .map(|&m| m.max(1.0).ln() / logp)
        .collect()
}

/// Build and solve the paper's share LP over the variables `V − x`:
///
/// ```text
/// minimize λ
/// s.t.  Σ_{i ∈ V − x} e_i <= budget
///       ∀j: λ + Σ_{i ∈ S_j − x} e_i >= rhs(j)
///       e, λ >= 0
/// ```
///
/// LP (5) is `x = ∅`, `rhs(j) = µ_j`, `budget = 1`; LP (11) of a bin
/// combination is `rhs(j) = µ_j − β_j`, `budget = 1 − α`.
///
/// `λ` bounds the *largest* per-relation load, but a server receives the
/// *sum* over atoms, and the λ-optimal face is often more than one vertex
/// (uniform 3-chain: `(½,0,½,0)` replicates all three relations 8×,
/// `(0,½,½,0)` partitions `S2` 64 ways at the same λ). So the solve is
/// lexicographic: among λ-optimal solutions, maximize
/// `Σ_j Σ_{i ∈ S_j − x} e_i` — i.e. minimize the product of the per-atom
/// per-server loads, Afrati–Ullman's total-communication objective applied
/// only where it costs no max load. Same model, same tableau, `λ`
/// untouched (Theorem 3.6 still reads it).
///
/// Returns `(λ, e)`
/// with `e` indexed by query variable (0 on `x`) and stated as fractions of
/// the budget — exponents to the base `p^budget`, the number of servers the
/// shares divide, which is what [`round_shares`] takes.
pub(crate) fn solve_share_lp(
    q: &Query,
    x: VarSet,
    rhs: impl Fn(usize) -> f64,
    budget: f64,
) -> Result<(f64, Vec<f64>), LpError> {
    let mut lp = LinearProgram::new(Sense::Minimize);
    let lambda = lp.add_var(1.0);
    let evars: Vec<Option<usize>> = (0..q.num_vars())
        .map(|i| (!x.contains(i)).then(|| lp.add_var(0.0)))
        .collect();
    let mut terms: Vec<(usize, f64)> = Vec::with_capacity(evars.len() + 1);
    terms.extend(evars.iter().flatten().map(|&v| (v, 1.0)));
    lp.add_constraint(&terms, Cmp::Le, budget);
    // The tie-break, in the model's (minimizing) sense: −(number of atoms
    // containing x_i) on e_i, 0 on λ.
    let mut fewest_copies = vec![0.0; lp.num_vars()];
    for j in 0..q.num_atoms() {
        terms.clear();
        terms.extend((q.atom(j).var_set().iter()).filter_map(|i| evars[i].map(|v| (v, 1.0))));
        for &(v, _) in &terms {
            fewest_copies[v] -= 1.0;
        }
        terms.push((lambda, 1.0));
        lp.add_constraint(&terms, Cmp::Ge, rhs(j));
    }
    let sol = lp.solve_lex(&fewest_copies)?;
    let exponents = evars
        .iter()
        .map(|v| match *v {
            Some(v) if budget > 1e-9 => sol.x[v].max(0.0) / budget,
            _ => 0.0,
        })
        .collect();
    Ok((sol.objective, exponents))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_query::{named, packing_vertices};

    fn stats(q: &Query, cards: &[usize]) -> SimpleStatistics {
        let arities: Vec<usize> = q.atoms().iter().map(|a| a.arity()).collect();
        SimpleStatistics::synthetic(&arities, cards.to_vec(), 1 << 20)
    }

    #[test]
    fn triangle_equal_sizes_gives_thirds() {
        let q = named::cycle(3);
        let st = stats(&q, &[1 << 16; 3]);
        let p = 64usize;
        let alloc = ShareAllocation::optimize(&q, &st, p).unwrap();
        for &e in &alloc.exponents {
            assert!(
                (e - 1.0 / 3.0).abs() < 1e-6,
                "exponents {:?}",
                alloc.exponents
            );
        }
        assert_eq!(alloc.shares, vec![4, 4, 4]);
        let lp_val = alloc.predicted_load_bits();
        let (closed, _) = crate::bounds::l_lower(&packing_vertices(&q), &st, p);
        assert!((lp_val - closed).abs() / closed < 1e-6);
    }

    #[test]
    fn theorem_3_6_holds_across_queries_and_cardinalities() {
        let cases: Vec<(Query, Vec<usize>)> = vec![
            (named::cycle(3), vec![1 << 16, 1 << 16, 1 << 16]),
            (named::cycle(3), vec![1 << 20, 1 << 12, 1 << 12]),
            (named::cycle(3), vec![1 << 18, 1 << 16, 1 << 10]),
            (named::chain(3), vec![1 << 14, 1 << 18, 1 << 14]),
            (named::star(3), vec![1 << 16, 1 << 14, 1 << 12]),
            (named::two_way_join(), vec![1 << 18, 1 << 12]),
            (named::cartesian(3), vec![1 << 12, 1 << 14, 1 << 16]),
        ];
        for (q, cards) in cases {
            let st = stats(&q, &cards);
            for p in [8usize, 64, 512] {
                let alloc = ShareAllocation::optimize(&q, &st, p).unwrap();
                let lp_val = alloc.predicted_load_bits();
                let (closed, _) = crate::bounds::l_lower(&packing_vertices(&q), &st, p);
                assert!(
                    (lp_val - closed).abs() / closed < 1e-5,
                    "{} p={p}: LP {lp_val} vs closed {closed}",
                    q.name()
                );
            }
        }
    }

    #[test]
    fn unequal_join_shares_follow_cartesian_split() {
        // Cartesian product S1(x) × S2(y) with m1 = m2: shares ~ sqrt(p)
        // each (Section 1's warm-up).
        let q = named::cartesian(2);
        let st = SimpleStatistics::synthetic(&[1, 1], vec![1 << 16, 1 << 16], 1 << 20);
        let alloc = ShareAllocation::optimize(&q, &st, 64).unwrap();
        assert_eq!(alloc.shares, vec![8, 8]);
    }

    #[test]
    fn two_way_join_puts_all_shares_on_z() {
        // Skew-free join optimum: hash on z with all p (Example 3.3's second
        // allocation).
        let q = named::two_way_join();
        let st = stats(&q, &[1 << 16, 1 << 16]);
        let alloc = ShareAllocation::optimize(&q, &st, 64).unwrap();
        let z = q.var_index("z").unwrap();
        assert!(alloc.exponents[z] > 0.99, "exponents {:?}", alloc.exponents);
        assert_eq!(alloc.shares[z], 64);
        let x = q.var_index("x").unwrap();
        assert_eq!(alloc.shares[x], 1);
    }

    #[test]
    fn tiny_relation_gets_broadcast_shares() {
        // If M2 << M1/p the optimum gives S2's private variable y no share
        // (so S2 is replicated — footnote 1's broadcast join) and spends the
        // whole budget on S1's variables. Any split between x and z achieves
        // the same λ, and a share on x broadcasts S2 that many times; z is in
        // both atoms, so the tie-break puts all of p there and S2 is hashed
        // along with S1.
        let q = named::two_way_join();
        let st = stats(&q, &[1 << 20, 1 << 4]);
        let p = 64usize;
        let alloc = ShareAllocation::optimize(&q, &st, p).unwrap();
        let x = q.var_index("x").unwrap();
        let z = q.var_index("z").unwrap();
        let y = q.var_index("y").unwrap();
        assert_eq!(
            (alloc.shares[x], alloc.shares[y], alloc.shares[z]),
            (1, 1, p),
            "shares {:?}",
            alloc.shares
        );
        // The predicted load matches the closed form (Theorem 3.6).
        let lp_val = alloc.predicted_load_bits();
        let (closed, _) = crate::bounds::l_lower(&packing_vertices(&q), &st, p);
        assert!((lp_val - closed).abs() / closed < 1e-5);
    }

    #[test]
    fn ties_break_toward_least_communication() {
        // Equal cardinalities. "was" names the vertex Bland's rule alone
        // stopped on, where the tie-break moves it.
        let pinned: Vec<(Query, usize, Vec<usize>, &str)> = vec![
            // was [8,1,8,1]: all three relations replicated 8×. Now S2 is
            // partitioned 64 ways and only S1, S3 are replicated 8×.
            (named::chain(3), 64, vec![1, 8, 8, 1], "S2 partitioned"),
            // was [4,1,4,1,4,1]: every relation replicated 16×. Now S2 is
            // replicated 4× and the rest 16×.
            (
                named::chain(5),
                64,
                vec![1, 4, 4, 1, 4, 1],
                "S2 replicated 4x",
            ),
            // was [2,1,1,1]: S2 and S3 broadcast whole. Now only S3 is.
            (
                named::chain(3),
                2,
                vec![1, 2, 1, 1],
                "one broadcast, not two",
            ),
            // Unchanged: the λ-optimal face is one vertex, or the incumbent
            // vertex already has the fewest copies and the warm start keeps
            // it (a cold second solve would flip the 4-cycle to [8,1,8,1]).
            (named::two_way_join(), 64, vec![1, 64, 1], "unique"),
            (named::cycle(3), 64, vec![4, 4, 4], "unique"),
            (named::chain(4), 64, vec![1, 8, 1, 8, 1], "incumbent kept"),
            (named::cycle(4), 64, vec![1, 8, 1, 8], "incumbent kept"),
            (named::cycle(5), 64, vec![4, 2, 2, 2, 2], "unique (all 1/5)"),
            (
                mpc_query::parse_query("S1(z,x1), S2(z,x2), S3(z,x3)").unwrap(),
                64,
                vec![64, 1, 1, 1],
                "unique",
            ),
        ];
        for (q, p, shares, why) in pinned {
            let st = stats(&q, &vec![1 << 16; q.num_atoms()]);
            let alloc = ShareAllocation::optimize(&q, &st, p).unwrap();
            assert_eq!(alloc.shares, shares, "{} p={p} ({why})", q.name());
        }
    }

    #[test]
    fn afrati_ullman_agrees_on_symmetric_triangle() {
        // Equal sizes: minimizing total load and minimizing max load give
        // the same symmetric solution e = (1/3, 1/3, 1/3).
        let q = named::cycle(3);
        let st = stats(&q, &[1 << 16; 3]);
        let au = ShareAllocation::afrati_ullman(&q, &st, 64);
        for &e in &au.exponents {
            assert!(
                (e - 1.0 / 3.0).abs() < 0.02,
                "AU exponents {:?}",
                au.exponents
            );
        }
        let lp = ShareAllocation::optimize(&q, &st, 64).unwrap();
        assert!(
            (au.lambda - lp.lambda).abs() < 0.02,
            "AU λ {} vs LP λ {}",
            au.lambda,
            lp.lambda
        );
    }

    #[test]
    fn afrati_ullman_never_beats_lp_max_load() {
        // The LP minimizes the max; AU minimizes the total. AU's max-load
        // exponent can only be >= the LP optimum (up to solver tolerance).
        for cards in [
            vec![1usize << 16, 1 << 16, 1 << 16],
            vec![1 << 20, 1 << 12, 1 << 12],
            vec![1 << 18, 1 << 16, 1 << 10],
        ] {
            let q = named::cycle(3);
            let st = stats(&q, &cards);
            let au = ShareAllocation::afrati_ullman(&q, &st, 64);
            let lp = ShareAllocation::optimize(&q, &st, 64).unwrap();
            assert!(
                au.lambda >= lp.lambda - 0.02,
                "cards {cards:?}: AU λ {} below LP λ {}",
                au.lambda,
                lp.lambda
            );
        }
    }

    #[test]
    fn equal_shares_allocation() {
        let q = named::cycle(3);
        let alloc = ShareAllocation::equal(&q, 27);
        assert_eq!(alloc.shares, vec![3, 3, 3]);
        let alloc64 = ShareAllocation::equal(&q, 64);
        assert_eq!(alloc64.shares, vec![4, 4, 4]);
    }

    #[test]
    fn expected_load_uses_integer_shares() {
        let q = named::two_way_join();
        let st = stats(&q, &[1 << 16, 1 << 16]);
        let mut shares = vec![1usize; 3];
        shares[q.var_index("z").unwrap()] = 64;
        let alloc = ShareAllocation::explicit(shares, 64);
        // Load = max_j M_j / p_z = M / 64.
        let expected = st.bit_sizes_f64()[0] / 64.0;
        let got = alloc.expected_load_bits(&q, &st);
        assert!((got - expected).abs() / expected < 1e-12);
    }
}
