//! Zipf (power-law) sampling for skewed attribute generation.
//!
//! A Zipf distribution with exponent `θ` over ranks `1..=n` assigns rank `r`
//! probability proportional to `1/r^θ`. `θ = 0` is uniform; growing `θ`
//! concentrates mass on low ranks — the canonical model for the heavy
//! hitters the paper's Section 4 is about (at `θ >= 1` the top rank's
//! expected frequency exceeds the paper's `m/p` heaviness threshold for any
//! realistic `p`).

use crate::rng::Rng;

/// A sampler for the Zipf distribution over `[0, n)` (value `v` has rank
/// `v + 1`), using an exact precomputed CDF with binary search.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n` values with exponent `theta >= 0`.
    ///
    /// # Panics
    /// Panics when `n == 0` or `theta` is negative/non-finite.
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "Zipf over empty domain");
        assert!(theta >= 0.0 && theta.is_finite(), "invalid Zipf exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for r in 1..=n {
            acc += (r as f64).powf(-theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating-point shortfall at the top.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Zipf { cdf }
    }

    /// Probability of value `v`.
    pub(crate) fn pmf(&self, v: usize) -> f64 {
        if v == 0 {
            self.cdf[0]
        } else {
            self.cdf[v] - self.cdf[v - 1]
        }
    }

    /// Sample one value in `[0, n)`.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.f64();
        // First index with cdf >= u.
        let mut lo = 0usize;
        let mut hi = self.cdf.len() - 1;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.cdf[mid] < u {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_when_theta_zero() {
        let z = Zipf::new(10, 0.0);
        for v in 0..10 {
            assert!((z.pmf(v) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        for theta in [0.0, 0.5, 1.0, 2.0] {
            let z = Zipf::new(100, theta);
            let total: f64 = (0..100).map(|v| z.pmf(v)).sum();
            assert!((total - 1.0).abs() < 1e-9, "theta={theta}: total {total}");
        }
    }

    #[test]
    fn pmf_is_decreasing() {
        let z = Zipf::new(50, 1.2);
        for v in 1..50 {
            assert!(z.pmf(v) <= z.pmf(v - 1) + 1e-15);
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn samples_match_pmf() {
        let z = Zipf::new(20, 1.0);
        let mut rng = Rng::seed_from_u64(123);
        let trials = 200_000;
        let mut counts = [0usize; 20];
        for _ in 0..trials {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for v in 0..20 {
            let expected = z.pmf(v) * trials as f64;
            let got = counts[v] as f64;
            // 5-sigma-ish binomial tolerance.
            let tol = 5.0 * expected.sqrt() + 5.0;
            assert!(
                (got - expected).abs() < tol,
                "value {v}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn high_theta_concentrates() {
        let z = Zipf::new(1000, 2.0);
        // P(0) ~ 1/zeta(2) ~ 0.6.
        assert!(z.pmf(0) > 0.5);
    }

    #[test]
    fn sample_range() {
        let z = Zipf::new(5, 1.5);
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 5);
        }
    }
}
