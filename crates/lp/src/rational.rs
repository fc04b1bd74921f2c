//! Exact rational arithmetic over `i128`.
//!
//! The polytope machinery of the paper (Section 3.3) works with fractional
//! edge packings whose defining constraint matrices contain only 0/1
//! coefficients, so vertex coordinates are small rationals (denominators
//! bounded by the determinant of a 0/1 matrix of the query's size). `i128`
//! therefore gives plenty of headroom; all operations are overflow-checked
//! and panic with a descriptive message if the headroom is ever exceeded,
//! which for the supported query sizes cannot happen.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An exact rational number `num / den` with `den > 0`, always in lowest
/// terms.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

/// Greatest common divisor of the absolute values (Euclid).
fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rat {
    /// The rational 0.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// The rational 1.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Create `num / den`, reducing to lowest terms.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "Rat::new: zero denominator");
        let sign = if den < 0 { -1 } else { 1 };
        let g = gcd(num, den);
        if g == 0 {
            return Rat::ZERO;
        }
        Rat {
            num: sign * num / g,
            den: sign * den / g,
        }
    }

    /// The integer `n` as a rational.
    pub fn int(n: i64) -> Rat {
        Rat {
            num: n as i128,
            den: 1,
        }
    }

    /// Numerator (sign-carrying).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// Denominator (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Exact conversion to `f64` (within `f64` precision).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// True iff this rational is zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// True iff strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics on zero.
    fn recip(&self) -> Rat {
        assert!(self.num != 0, "Rat::recip of zero");
        Rat::new(self.den, self.num)
    }

    /// Absolute value.
    pub(crate) fn abs(&self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den,
        }
    }

    fn checked(num: Option<i128>, den: Option<i128>, op: &str) -> Rat {
        match (num, den) {
            (Some(n), Some(d)) => Rat::new(n, d),
            _ => panic!("Rat arithmetic overflow in {op}"),
        }
    }
}

impl Default for Rat {
    fn default() -> Self {
        Rat::ZERO
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Rat {
        Rat::int(n)
    }
}

impl From<u32> for Rat {
    fn from(n: u32) -> Rat {
        Rat::int(n as i64)
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        // Reduce cross terms first to delay overflow.
        let g = gcd(self.den, rhs.den);
        let (ld, rd) = (self.den / g, rhs.den / g);
        let num = self
            .num
            .checked_mul(rd)
            .and_then(|a| rhs.num.checked_mul(ld).and_then(|b| a.checked_add(b)));
        let den = self.den.checked_mul(rd);
        Rat::checked(num, den, "add")
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        // Cross-reduce to keep intermediates small.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        let num = (self.num / g1).checked_mul(rhs.num / g2);
        let den = (self.den / g2).checked_mul(rhs.den / g1);
        Rat::checked(num, den, "mul")
    }
}

impl Div for Rat {
    type Output = Rat;
    // a / b as a * b^{-1} is the canonical exact-rational division.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Rat) -> Rat {
        self * rhs.recip()
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, rhs: Rat) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rat {
    fn sub_assign(&mut self, rhs: Rat) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rat {
    fn mul_assign(&mut self, rhs: Rat) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rat {
    fn div_assign(&mut self, rhs: Rat) {
        *self = *self / rhs;
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b   (b, d > 0)
        let lhs = self
            .num
            .checked_mul(other.den)
            .expect("Rat comparison overflow");
        let rhs = other
            .num
            .checked_mul(self.den)
            .expect("Rat comparison overflow");
        lhs.cmp(&rhs)
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl std::iter::Sum for Rat {
    fn sum<I: Iterator<Item = Rat>>(iter: I) -> Rat {
        iter.fold(Rat::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_reduces() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, 5), Rat::ZERO);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rat::new(1, 0);
    }

    #[test]
    fn basic_arithmetic() {
        let half = Rat::new(1, 2);
        let third = Rat::new(1, 3);
        assert_eq!(half + third, Rat::new(5, 6));
        assert_eq!(half - third, Rat::new(1, 6));
        assert_eq!(half * third, Rat::new(1, 6));
        assert_eq!(half / third, Rat::new(3, 2));
        assert_eq!(-half, Rat::new(-1, 2));
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::ZERO);
        assert_eq!(Rat::new(3, 6).cmp(&Rat::new(1, 2)), Ordering::Equal);
        assert_eq!(Rat::new(2, 3).max(Rat::new(3, 4)), Rat::new(3, 4));
        assert_eq!(Rat::new(2, 3).min(Rat::new(3, 4)), Rat::new(2, 3));
    }

    #[test]
    fn display() {
        assert_eq!(Rat::new(1, 2).to_string(), "1/2");
        assert_eq!(Rat::int(7).to_string(), "7");
        assert_eq!(Rat::new(-3, 9).to_string(), "-1/3");
    }

    #[test]
    fn to_f64_roundtrip() {
        assert!((Rat::new(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-15);
        assert_eq!(Rat::int(-5).to_f64(), -5.0);
    }

    #[test]
    fn recip_and_predicates() {
        assert_eq!(Rat::new(2, 3).recip(), Rat::new(3, 2));
        assert!(Rat::new(-1, 7).is_negative());
        assert!(!Rat::new(1, 7).is_negative());
        assert!(Rat::ZERO.is_zero());
    }

    #[test]
    fn sum_iterator() {
        let s: Rat = (1..=4).map(|i| Rat::new(1, i)).sum();
        assert_eq!(s, Rat::new(25, 12));
    }
}
