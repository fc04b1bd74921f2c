//! Linear-program model builder.
//!
//! The paper solves three closely-related LPs: the share-exponent LP (5), its
//! dual (8), and the per-bin-combination LP (11). All of them have
//! non-negative variables and a handful of constraints, which is exactly the
//! shape this builder targets. Models are solved by the two-phase simplex in
//! [`crate::simplex`].

use std::fmt;

/// Optimization direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Constraint comparison operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// `lhs <= rhs`
    Le,
    /// `lhs >= rhs`
    Ge,
    /// `lhs == rhs`
    Eq,
}

/// A single linear constraint `sum(coeffs[i] * x[i]) cmp rhs`.
#[derive(Clone, Debug)]
pub struct Constraint {
    /// Dense coefficient vector over all model variables.
    pub coeffs: Vec<f64>,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program over non-negative variables.
///
/// Variables are identified by the index returned from [`LinearProgram::add_var`].
#[derive(Clone, Debug)]
pub struct LinearProgram {
    sense: Sense,
    objective: Vec<f64>,
    names: Vec<String>,
    constraints: Vec<Constraint>,
}

/// Outcome of solving a [`LinearProgram`].
#[derive(Clone, Debug)]
pub struct Solution {
    /// Optimal assignment for the model variables, in `add_var` order.
    pub x: Vec<f64>,
    /// Objective value at `x` (in the model's own sense).
    pub objective: f64,
}

/// Reasons an LP has no optimal solution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LpError {
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// The solver exceeded its iteration budget (should not happen with
    /// Bland's rule; indicates a malformed model).
    IterationLimit,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

impl LinearProgram {
    /// New empty model with the given sense.
    pub fn new(sense: Sense) -> LinearProgram {
        LinearProgram {
            sense,
            objective: Vec::new(),
            names: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Add a non-negative variable with objective coefficient `obj`.
    /// Returns the variable's index.
    pub fn add_var(&mut self, name: impl Into<String>, obj: f64) -> usize {
        self.objective.push(obj);
        self.names.push(name.into());
        for c in &mut self.constraints {
            c.coeffs.push(0.0);
        }
        self.objective.len() - 1
    }

    /// Number of variables added so far.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Variable name lookup (for diagnostics).
    pub fn var_name(&self, idx: usize) -> &str {
        &self.names[idx]
    }

    /// Add the constraint `sum(coeff * x[var]) cmp rhs` from a sparse list of
    /// `(var, coeff)` terms. Terms for the same variable accumulate.
    pub fn add_constraint(&mut self, terms: &[(usize, f64)], cmp: Cmp, rhs: f64) {
        let mut coeffs = vec![0.0; self.num_vars()];
        for &(var, coef) in terms {
            assert!(var < coeffs.len(), "constraint references unknown variable");
            coeffs[var] += coef;
        }
        self.constraints.push(Constraint { coeffs, cmp, rhs });
    }

    /// Model sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Objective coefficients.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Constraint list.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Solve with the two-phase simplex method.
    pub fn solve(&self) -> Result<Solution, LpError> {
        crate::simplex::solve(self)
    }

    /// Solve lexicographically: first the model's objective, then — among
    /// its optimal solutions only — `secondary` (one coefficient per
    /// variable in `add_var` order, in the model's own sense; missing
    /// trailing coefficients are zero). [`Solution::objective`] is the
    /// primary optimum, exactly as [`LinearProgram::solve`] reports it, and
    /// an all-zero `secondary` returns `solve`'s solution bit for bit.
    /// [`LpError::Unbounded`] also covers a secondary objective unbounded
    /// over the optimal face.
    pub fn solve_lex(&self, secondary: &[f64]) -> Result<Solution, LpError> {
        crate::simplex::solve_lex(self, secondary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_model_shape() {
        let mut lp = LinearProgram::new(Sense::Maximize);
        let x = lp.add_var("x", 3.0);
        let y = lp.add_var("y", 2.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        lp.add_constraint(&[(x, 1.0), (y, 3.0)], Cmp::Le, 6.0);
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_constraints(), 2);
        assert_eq!(lp.var_name(x), "x");
        assert_eq!(lp.constraints()[1].coeffs, vec![1.0, 3.0]);
    }

    #[test]
    fn add_var_after_constraint_pads() {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_var("x", 1.0);
        lp.add_constraint(&[(x, 2.0)], Cmp::Ge, 1.0);
        let _y = lp.add_var("y", 1.0);
        assert_eq!(lp.constraints()[0].coeffs.len(), 2);
        assert_eq!(lp.constraints()[0].coeffs[1], 0.0);
    }

    #[test]
    fn duplicate_terms_accumulate() {
        let mut lp = LinearProgram::new(Sense::Minimize);
        let x = lp.add_var("x", 1.0);
        lp.add_constraint(&[(x, 1.0), (x, 2.0)], Cmp::Le, 3.0);
        assert_eq!(lp.constraints()[0].coeffs[0], 3.0);
    }
}
