//! Dense matrices over exact rationals with Gaussian elimination.
//!
//! Used by the vertex enumerator to solve the square systems that arise when
//! a subset of packing constraints is made tight (Section 3.3 of the paper:
//! "Each vertex can be obtained by choosing m out of the k+ℓ inequalities,
//! transforming them into equalities, then solving for u").

use crate::rational::Rat;
use std::fmt;

/// A dense row-major matrix of exact rationals.
#[derive(Clone, PartialEq, Eq)]
pub struct RatMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Rat>,
}

impl RatMatrix {
    /// An all-zero `rows x cols` matrix.
    pub(crate) fn zeros(rows: usize, cols: usize) -> RatMatrix {
        RatMatrix {
            rows,
            cols,
            data: vec![Rat::ZERO; rows * cols],
        }
    }

    /// Build from a row-major closure.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> Rat) -> RatMatrix {
        let mut m = RatMatrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `r` as a slice.
    pub fn row(&self, r: usize) -> &[Rat] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix-vector product.
    pub fn mul_vec(&self, v: &[Rat]) -> Vec<Rat> {
        assert_eq!(v.len(), self.cols, "mul_vec: dimension mismatch");
        (0..self.rows)
            .map(|r| {
                self.row(r)
                    .iter()
                    .zip(v)
                    .fold(Rat::ZERO, |acc, (a, b)| acc + *a * *b)
            })
            .collect()
    }

    /// Solve the square system `A x = b` exactly.
    ///
    /// Returns `None` when `A` is singular. `A` must be square and `b` must
    /// have matching length.
    pub fn solve(&self, b: &[Rat]) -> Option<Vec<Rat>> {
        assert_eq!(self.rows, self.cols, "solve: matrix must be square");
        assert_eq!(b.len(), self.rows, "solve: rhs length mismatch");
        let n = self.rows;
        // Augmented matrix [A | b].
        let mut a = self.clone();
        let mut rhs = b.to_vec();
        for col in 0..n {
            // Partial pivoting by largest absolute value keeps numbers small.
            let pivot = (col..n)
                .filter(|&r| !a[(r, col)].is_zero())
                .max_by_key(|&r| a[(r, col)].abs())?;
            if pivot != col {
                a.swap_rows(pivot, col);
                rhs.swap(pivot, col);
            }
            let pv = a[(col, col)];
            for r in 0..n {
                if r == col || a[(r, col)].is_zero() {
                    continue;
                }
                let factor = a[(r, col)] / pv;
                for c in col..n {
                    let sub = factor * a[(col, c)];
                    a[(r, c)] -= sub;
                }
                let sub = factor * rhs[col];
                rhs[r] -= sub;
            }
        }
        Some((0..n).map(|i| rhs[i] / a[(i, i)]).collect())
    }

    fn swap_rows(&mut self, r1: usize, r2: usize) {
        if r1 == r2 {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(r1 * self.cols + c, r2 * self.cols + c);
        }
    }
}

impl std::ops::Index<(usize, usize)> for RatMatrix {
    type Output = Rat;
    fn index(&self, (r, c): (usize, usize)) -> &Rat {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for RatMatrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Rat {
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for RatMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RatMatrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rat {
        Rat::new(n as i128, d as i128)
    }

    fn identity(n: usize) -> RatMatrix {
        RatMatrix::from_fn(n, n, |r, c| if r == c { Rat::ONE } else { Rat::ZERO })
    }

    /// Rank via fraction-free style row reduction.
    fn rank(m: &RatMatrix) -> usize {
        let mut a = m.clone();
        let (rows, cols) = (a.rows, a.cols);
        let mut rank = 0;
        let mut row = 0;
        for col in 0..cols {
            if row >= rows {
                break;
            }
            let Some(pivot) = (row..rows).find(|&r| !a[(r, col)].is_zero()) else {
                continue;
            };
            a.swap_rows(pivot, row);
            let pv = a[(row, col)];
            for r in (row + 1)..rows {
                if a[(r, col)].is_zero() {
                    continue;
                }
                let factor = a[(r, col)] / pv;
                for c in col..cols {
                    let sub = factor * a[(row, c)];
                    a[(r, c)] -= sub;
                }
            }
            rank += 1;
            row += 1;
        }
        rank
    }

    #[test]
    fn identity_solves_trivially() {
        let id = identity(3);
        let b = vec![r(1, 2), r(3, 1), r(-2, 5)];
        assert_eq!(id.solve(&b).unwrap(), b);
    }

    #[test]
    fn solve_2x2() {
        // x + y = 1 ; x - y = 0  =>  x = y = 1/2
        let a = RatMatrix::from_fn(2, 2, |i, j| match (i, j) {
            (0, _) => Rat::ONE,
            (1, 0) => Rat::ONE,
            (1, 1) => -Rat::ONE,
            _ => unreachable!(),
        });
        let x = a.solve(&[Rat::ONE, Rat::ZERO]).unwrap();
        assert_eq!(x, vec![r(1, 2), r(1, 2)]);
    }

    #[test]
    fn solve_singular_returns_none() {
        let a = RatMatrix::from_fn(2, 2, |_, _| Rat::ONE);
        assert!(a.solve(&[Rat::ONE, Rat::ONE]).is_none());
    }

    #[test]
    fn solve_triangle_packing_system() {
        // The C3 tight system: u1+u2 = 1, u2+u3 = 1, u3+u1 = 1
        // has the unique solution (1/2, 1/2, 1/2).
        let a = RatMatrix::from_fn(3, 3, |i, j| {
            let pairs = [[0, 1], [1, 2], [2, 0]];
            if pairs[i].contains(&j) {
                Rat::ONE
            } else {
                Rat::ZERO
            }
        });
        let x = a.solve(&[Rat::ONE, Rat::ONE, Rat::ONE]).unwrap();
        assert_eq!(x, vec![r(1, 2), r(1, 2), r(1, 2)]);
    }

    #[test]
    fn rank_of_rectangular() {
        let a = RatMatrix::from_fn(3, 2, |i, j| r((i + j) as i64, 1));
        // rows (0,1),(1,2),(2,3): rank 2
        assert_eq!(rank(&a), 2);
        assert_eq!(rank(&identity(4)), 4);
        assert_eq!(rank(&RatMatrix::zeros(3, 3)), 0);
    }

    #[test]
    fn mul_vec_matches_solve() {
        let a = RatMatrix::from_fn(3, 3, |i, j| r((i * 3 + j + 1) as i64, 1 + (i == j) as i64));
        let x = vec![r(1, 3), r(-2, 7), r(5, 1)];
        let b = a.mul_vec(&x);
        let solved = a.solve(&b).unwrap();
        assert_eq!(solved, x);
    }
}
