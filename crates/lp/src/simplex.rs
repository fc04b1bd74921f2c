//! Two-phase primal simplex over `f64` with Bland's anti-cycling rule, plus
//! an optional lexicographic third phase (`solve_lex`) that breaks ties on
//! the optimal face by a secondary objective without leaving the tableau.
//!
//! The LPs solved in this workspace (share-exponent LP (5), its dual (8),
//! the bin-combination LP (11)) have at most a few dozen variables and
//! constraints, so a dense tableau implementation is both simple and fast.
//! Bland's rule guarantees termination even on the degenerate bases these
//! packing polytopes produce.

use crate::problem::{Cmp, LinearProgram, LpError, Sense, Solution};

const EPS: f64 = 1e-9;

/// Dense simplex tableau in the standard `min c'x, Ax = b, x >= 0, b >= 0`
/// form. The last column of `rows` is the right-hand side.
struct Tableau {
    /// m x (n+1) constraint rows (rhs in the final slot).
    rows: Vec<Vec<f64>>,
    /// Cost row of length n+1 (objective constant in the final slot, negated).
    cost: Vec<f64>,
    /// Index of the basic variable for each row.
    basis: Vec<usize>,
    /// Total number of columns excluding the rhs.
    n: usize,
}

impl Tableau {
    /// Bring the cost row to canonical form: zero reduced cost for basic
    /// variables.
    fn price_out(&mut self) {
        for (r, &bv) in self.basis.iter().enumerate() {
            let c = self.cost[bv];
            if c.abs() > 0.0 {
                for j in 0..=self.n {
                    self.cost[j] -= c * self.rows[r][j];
                }
            }
        }
    }

    /// One simplex pivot targeting column `col` and row `row`.
    fn pivot(&mut self, row: usize, col: usize) {
        let pv = self.rows[row][col];
        debug_assert!(pv.abs() > EPS, "pivot on (near-)zero element");
        for j in 0..=self.n {
            self.rows[row][j] /= pv;
        }
        for r in 0..self.rows.len() {
            if r == row {
                continue;
            }
            let factor = self.rows[r][col];
            if factor.abs() > 0.0 {
                for j in 0..=self.n {
                    self.rows[r][j] -= factor * self.rows[row][j];
                }
            }
        }
        let factor = self.cost[col];
        if factor.abs() > 0.0 {
            for j in 0..=self.n {
                self.cost[j] -= factor * self.rows[row][j];
            }
        }
        self.basis[row] = col;
    }

    /// Run simplex iterations until optimal, unbounded, or iteration limit.
    /// `allowed` masks which columns may enter the basis.
    fn iterate(&mut self, allowed: &[bool]) -> Result<(), LpError> {
        // Generous budget: these LPs have << 100 columns.
        let limit = 50_000usize;
        for _ in 0..limit {
            // Bland: entering column = lowest index with negative reduced cost.
            let Some(col) = (0..self.n).find(|&j| allowed[j] && self.cost[j] < -EPS) else {
                return Ok(());
            };
            // Ratio test; Bland tie-break on lowest basic variable index.
            let mut best: Option<(usize, f64)> = None;
            for r in 0..self.rows.len() {
                let a = self.rows[r][col];
                if a > EPS {
                    let ratio = self.rows[r][self.n] / a;
                    match best {
                        None => best = Some((r, ratio)),
                        Some((br, bratio)) => {
                            if ratio < bratio - EPS
                                || (ratio < bratio + EPS && self.basis[r] < self.basis[br])
                            {
                                best = Some((r, ratio));
                            }
                        }
                    }
                }
            }
            let Some((row, _)) = best else {
                return Err(LpError::Unbounded);
            };
            self.pivot(row, col);
        }
        Err(LpError::IterationLimit)
    }
}

/// Solve a [`LinearProgram`]; see [`LinearProgram::solve`].
pub(crate) fn solve(lp: &LinearProgram) -> Result<Solution, LpError> {
    solve_lex(lp, &[])
}

/// Solve a [`LinearProgram`] lexicographically; see
/// [`LinearProgram::solve_lex`]. Phases 1–2 are [`solve`]'s; phase 3 keeps
/// the tableau they end on, so a vertex that is already secondary-optimal is
/// returned as it stands and an all-zero `secondary` pivots nothing.
pub(crate) fn solve_lex(lp: &LinearProgram, secondary: &[f64]) -> Result<Solution, LpError> {
    let n_orig = lp.num_vars();
    assert!(
        secondary.len() <= n_orig,
        "secondary objective names unknown variables"
    );
    let m = lp.num_constraints();

    // Count auxiliary columns: one slack/surplus per inequality, one
    // artificial per >=/= (or per <= with negative rhs, after normalization).
    let mut n_total = n_orig;
    let mut slack_col = vec![None; m];
    let mut art_col = vec![None; m];
    // Normalize rows to have non-negative rhs.
    let mut rows_sign = vec![1.0; m];
    let mut cmps = Vec::with_capacity(m);
    for (i, c) in lp.constraints().iter().enumerate() {
        let mut cmp = c.cmp;
        if c.rhs < 0.0 {
            rows_sign[i] = -1.0;
            cmp = match cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            };
        }
        cmps.push(cmp);
    }
    for (i, cmp) in cmps.iter().enumerate() {
        match cmp {
            Cmp::Le => {
                slack_col[i] = Some(n_total);
                n_total += 1;
            }
            Cmp::Ge => {
                slack_col[i] = Some(n_total);
                n_total += 1;
                art_col[i] = Some(n_total);
                n_total += 1;
            }
            Cmp::Eq => {
                art_col[i] = Some(n_total);
                n_total += 1;
            }
        }
    }

    let mut rows = vec![vec![0.0; n_total + 1]; m];
    let mut basis = vec![0usize; m];
    for (i, c) in lp.constraints().iter().enumerate() {
        for (j, &coef) in c.coeffs.iter().enumerate() {
            rows[i][j] = rows_sign[i] * coef;
        }
        rows[i][n_total] = rows_sign[i] * c.rhs;
        match cmps[i] {
            Cmp::Le => {
                let s = slack_col[i].expect("slack allocated");
                rows[i][s] = 1.0;
                basis[i] = s;
            }
            Cmp::Ge => {
                let s = slack_col[i].expect("surplus allocated");
                let a = art_col[i].expect("artificial allocated");
                rows[i][s] = -1.0;
                rows[i][a] = 1.0;
                basis[i] = a;
            }
            Cmp::Eq => {
                let a = art_col[i].expect("artificial allocated");
                rows[i][a] = 1.0;
                basis[i] = a;
            }
        }
    }

    let has_artificials = art_col.iter().any(Option::is_some);
    let is_artificial = |j: usize| -> bool { art_col.contains(&Some(j)) };

    // ---- Phase 1: minimize sum of artificials. ----
    if has_artificials {
        let mut cost = vec![0.0; n_total + 1];
        for a in art_col.iter().flatten() {
            cost[*a] = 1.0;
        }
        let mut t = Tableau {
            rows,
            cost,
            basis,
            n: n_total,
        };
        t.price_out();
        let allowed = vec![true; n_total];
        t.iterate(&allowed)?;
        // Objective constant sits negated in the last cost slot.
        let phase1_obj = -t.cost[n_total];
        if phase1_obj > 1e-7 {
            return Err(LpError::Infeasible);
        }
        // Pivot any artificial still in the basis out (degenerate), or note
        // its row as redundant by leaving it with zero rhs.
        for r in 0..t.rows.len() {
            if is_artificial(t.basis[r]) {
                if let Some(col) =
                    (0..n_total).find(|&j| !is_artificial(j) && t.rows[r][j].abs() > EPS)
                {
                    t.pivot(r, col);
                }
            }
        }
        rows = t.rows;
        basis = t.basis;
    }

    // ---- Phase 2: original objective (as minimization). ----
    let sign = match lp.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut cost = vec![0.0; n_total + 1];
    for (j, &c) in lp.objective().iter().enumerate() {
        cost[j] = sign * c;
    }
    let mut t = Tableau {
        rows,
        cost,
        basis,
        n: n_total,
    };
    t.price_out();
    let mut allowed: Vec<bool> = (0..n_total).map(|j| !is_artificial(j)).collect();
    t.iterate(&allowed)?;
    // Cost row's last slot holds -z for the minimized objective.
    let objective = sign * -t.cost[n_total];

    // ---- Phase 3: secondary objective over the optimal face. ----
    // A column priced above zero must stay at zero in every optimal
    // solution, so the columns left are exactly the face; the basis is among
    // them (reduced cost 0) and stays feasible.
    if secondary.iter().any(|&c| c != 0.0) {
        for (a, &reduced) in allowed.iter_mut().zip(&t.cost) {
            *a &= reduced <= EPS;
        }
        t.cost.fill(0.0);
        for (slot, &c) in t.cost.iter_mut().zip(secondary) {
            *slot = sign * c;
        }
        t.price_out();
        t.iterate(&allowed)?;
    }

    let mut x = vec![0.0; n_orig];
    for (r, &bv) in t.basis.iter().enumerate() {
        if bv < n_orig {
            x[bv] = t.rows[r][n_total];
        }
    }
    Ok(Solution { x, objective })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Cmp, LinearProgram, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    // The models under test, by name, so the lexicographic tests can run
    // over every one of them.

    /// max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 => x=4, y=0, z=12.
    fn textbook() -> LinearProgram {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_var("x", 3.0);
        let y = lp.add_var("y", 2.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        lp.add_constraint(&[(x, 1.0), (y, 3.0)], Cmp::Le, 6.0);
        lp
    }

    /// min 2x + 3y s.t. x + y >= 10, x >= 3: (10, 0) costs 20, (3, 7) 27.
    fn min_with_ge() -> LinearProgram {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_var("x", 2.0);
        let y = lp.add_var("y", 3.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 10.0);
        lp.add_constraint(&[(x, 1.0)], Cmp::Ge, 3.0);
        lp
    }

    /// min x + y s.t. x + 2y = 4, x - y = 1 => y=1, x=2, z=3.
    fn equalities() -> LinearProgram {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 2.0)], Cmp::Eq, 4.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], Cmp::Eq, 1.0);
        lp
    }

    /// x <= 1 and x >= 2.
    fn infeasible() -> LinearProgram {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_var("x", 1.0);
        lp.add_constraint(&[(x, 1.0)], Cmp::Le, 1.0);
        lp.add_constraint(&[(x, 1.0)], Cmp::Ge, 2.0);
        lp
    }

    /// max x s.t. x - y <= 1: follow y up.
    fn unbounded() -> LinearProgram {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 0.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], Cmp::Le, 1.0);
        lp
    }

    /// min x s.t. -x <= -5  (i.e. x >= 5).
    fn negative_rhs() -> LinearProgram {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_var("x", 1.0);
        lp.add_constraint(&[(x, -1.0)], Cmp::Le, -5.0);
        lp
    }

    /// Classic degenerate example; Bland's rule must terminate.
    fn degenerate() -> LinearProgram {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x1 = lp.add_var("x1", 10.0);
        let x2 = lp.add_var("x2", -57.0);
        let x3 = lp.add_var("x3", -9.0);
        let x4 = lp.add_var("x4", -24.0);
        lp.add_constraint(
            &[(x1, 0.5), (x2, -5.5), (x3, -2.5), (x4, 9.0)],
            Cmp::Le,
            0.0,
        );
        lp.add_constraint(
            &[(x1, 0.5), (x2, -1.5), (x3, -0.5), (x4, 1.0)],
            Cmp::Le,
            0.0,
        );
        lp.add_constraint(&[(x1, 1.0)], Cmp::Le, 1.0);
        lp
    }

    /// LP (5) for C3 with equal sizes: mu_j = mu for all j. With
    /// p-normalized units mu = 1: minimize lambda s.t.
    ///   e1+e2+lambda >= 1, e2+e3+lambda >= 1, e3+e1+lambda >= 1,
    ///   e1+e2+e3 <= 1.
    /// Optimum: e_i = 1/3, lambda = 1/3  (load M/p^{1/3}... in exponent
    /// space: lambda = mu - 2/3 = 1/3 when mu = 1).
    fn triangle_share_lp() -> LinearProgram {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let l = lp.add_var("lambda", 1.0);
        let e1 = lp.add_var("e1", 0.0);
        let e2 = lp.add_var("e2", 0.0);
        let e3 = lp.add_var("e3", 0.0);
        lp.add_constraint(&[(e1, 1.0), (e2, 1.0), (e3, 1.0)], Cmp::Le, 1.0);
        lp.add_constraint(&[(e1, 1.0), (e2, 1.0), (l, 1.0)], Cmp::Ge, 1.0);
        lp.add_constraint(&[(e2, 1.0), (e3, 1.0), (l, 1.0)], Cmp::Ge, 1.0);
        lp.add_constraint(&[(e3, 1.0), (e1, 1.0), (l, 1.0)], Cmp::Ge, 1.0);
        lp
    }

    /// max x + y s.t. x + y <= 4, x <= 3, y <= 3: the optimum 4 is attained
    /// on the whole edge from (1, 3) to (3, 1).
    fn optimal_edge() -> LinearProgram {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_var("x", 1.0);
        let y = lp.add_var("y", 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        lp.add_constraint(&[(x, 1.0)], Cmp::Le, 3.0);
        lp.add_constraint(&[(y, 1.0)], Cmp::Le, 3.0);
        lp
    }

    fn models() -> Vec<LinearProgram> {
        vec![
            textbook(),
            min_with_ge(),
            equalities(),
            infeasible(),
            unbounded(),
            negative_rhs(),
            degenerate(),
            triangle_share_lp(),
            optimal_edge(),
        ]
    }

    /// The solution's exact bits, or the error.
    fn bits(r: Result<Solution, LpError>) -> Result<(Vec<u64>, u64), LpError> {
        r.map(|s| {
            (
                s.x.iter().map(|v| v.to_bits()).collect(),
                s.objective.to_bits(),
            )
        })
    }

    #[test]
    fn textbook_maximization() {
        let s = textbook().solve().unwrap();
        assert_close(s.objective, 12.0);
        assert_close(s.x[0], 4.0);
        assert_close(s.x[1], 0.0);
    }

    #[test]
    fn minimization_with_ge() {
        let s = min_with_ge().solve().unwrap();
        assert_close(s.objective, 20.0);
        assert_close(s.x[0], 10.0);
    }

    #[test]
    fn equality_constraints() {
        let s = equalities().solve().unwrap();
        assert_close(s.objective, 3.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 1.0);
    }

    #[test]
    fn infeasible_detected() {
        assert_eq!(infeasible().solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        assert_eq!(unbounded().solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn negative_rhs_normalization() {
        let s = negative_rhs().solve().unwrap();
        assert_close(s.x[0], 5.0);
        assert_close(s.objective, 5.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        let s = degenerate().solve().unwrap();
        assert_close(s.objective, 1.0);
    }

    #[test]
    fn share_exponent_lp_for_triangle() {
        let s = triangle_share_lp().solve().unwrap();
        assert_close(s.objective, 1.0 / 3.0);
    }

    #[test]
    fn secondary_picks_an_end_of_the_optimal_edge() {
        let lp = optimal_edge();
        let primary = lp.solve().unwrap().objective;
        // Model sense is Maximize: x − y prefers (3, 1), y − x prefers (1, 3).
        for (secondary, end) in [([1.0, -1.0], [3.0, 1.0]), ([-1.0, 1.0], [1.0, 3.0])] {
            let s = lp.solve_lex(&secondary).unwrap();
            assert!((s.x[0] - end[0]).abs() < 1e-12, "{secondary:?}: {:?}", s.x);
            assert!((s.x[1] - end[1]).abs() < 1e-12, "{secondary:?}: {:?}", s.x);
            // The reported objective is the primary's, not the tie-break's.
            assert!((s.objective - primary).abs() < 1e-12);
        }
    }

    #[test]
    fn secondary_never_trades_away_the_primary() {
        // The primary 3x + 2y has the single optimal vertex (4, 0); a
        // secondary that wants y large has no face to move along.
        let lp = textbook();
        let s = lp.solve_lex(&[0.0, 100.0]).unwrap();
        assert_eq!(bits(Ok(s)), bits(lp.solve()));
    }

    #[test]
    fn zero_secondary_is_solve_bit_for_bit() {
        for lp in models() {
            let zeros = vec![0.0; lp.num_vars()];
            assert_eq!(bits(lp.solve_lex(&zeros)), bits(lp.solve()));
            assert_eq!(bits(lp.solve_lex(&[])), bits(lp.solve()));
        }
    }

    #[test]
    fn secondary_optimal_incumbent_is_kept() {
        // Whichever end of the edge phase 2 stopped on, a secondary that
        // prefers that end pivots nothing: same vertex, same bits.
        let lp = optimal_edge();
        let incumbent = lp.solve().unwrap();
        let toward = if incumbent.x[0] > incumbent.x[1] {
            [1.0, -1.0]
        } else {
            [-1.0, 1.0]
        };
        assert_eq!(bits(lp.solve_lex(&toward)), bits(Ok(incumbent)));
    }

    #[test]
    fn phase_one_and_two_errors_survive_a_secondary() {
        assert_eq!(
            infeasible().solve_lex(&[1.0]).unwrap_err(),
            LpError::Infeasible
        );
        assert_eq!(
            unbounded().solve_lex(&[1.0, 1.0]).unwrap_err(),
            LpError::Unbounded
        );
    }

    #[test]
    fn unbounded_secondary_errors_instead_of_looping() {
        // min x s.t. x >= 1 with y free: the optimal face {x = 1, y >= 0}
        // is a ray, and the secondary min −y runs off along it. Share LPs
        // cannot do this (Σ e <= budget bounds the face).
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_var("x", 1.0);
        let _y = lp.add_var("y", 0.0);
        lp.add_constraint(&[(x, 1.0)], Cmp::Ge, 1.0);
        assert_close(lp.solve().unwrap().objective, 1.0);
        assert_eq!(lp.solve_lex(&[0.0, -1.0]).unwrap_err(), LpError::Unbounded);
        // Toward the bounded side the same face is fine.
        let s = lp.solve_lex(&[0.0, 1.0]).unwrap();
        assert_close(s.x[1], 0.0);
        assert_close(s.objective, 1.0);
    }
}
