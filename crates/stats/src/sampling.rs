//! Sampling-based heavy-hitter detection.
//!
//! The paper assumes heavy hitters and their (approximate) frequencies are
//! known, noting that production engines obtain them by sampling
//! (Section 1: "first detecting the heavy hitters (e.g. using sampling)"),
//! and that *approximate* frequencies suffice for the Section 4.2 algorithm
//! because its bins already tolerate a factor-2 slack.
//!
//! This module implements the standard Bernoulli-sample estimator: keep each
//! tuple independently with probability `rate`, estimate
//! `m̂(h) = count_in_sample(h) / rate`, and report every assignment whose
//! estimate clears a *detection* threshold set at half the heaviness
//! threshold `m/p`. Chernoff bounds give: with `rate >= c·p·ln(p)/m`, every
//! true heavy hitter is detected and every reported frequency is within a
//! constant factor, with high probability — which is exactly the accuracy
//! the binning of Section 4.2 needs. Tests exercise both guarantees
//! empirically.
//!
//! The guarantees hold with high probability only, so sampled counts are
//! not a planner statistics source: the sampling experiment (E12) reads
//! [`SampledFrequencies::estimates`] directly and compares them with the
//! exact counts.

use mpc_data::fastmap::FastMap;
use mpc_data::relation::{record_stats_scan_bytes, Relation};
use mpc_data::rng::Rng;

/// Frequencies estimated from a Bernoulli sample.
#[derive(Clone, Debug)]
pub struct SampledFrequencies {
    /// Estimated frequency per assignment (only assignments whose estimate
    /// cleared the detection threshold are kept).
    pub estimates: FastMap<Vec<u64>, usize>,
    /// The sampling rate used.
    pub rate: f64,
    /// Number of sampled tuples.
    pub sample_size: usize,
}

/// The recommended sampling rate for detecting `m/p`-heavy hitters in a
/// relation of `m` tuples: `min(1, 8 p ln(max(p,2)) / m)`.
pub fn recommended_rate(m: usize, p: usize) -> f64 {
    if m == 0 {
        return 1.0;
    }
    let r = 8.0 * p as f64 * (p.max(2) as f64).ln() / m as f64;
    r.min(1.0)
}

/// Estimate the frequencies of the projections on `cols` from a Bernoulli
/// sample at `rate`, keeping assignments whose *estimated* frequency
/// exceeds `m / (2p)` (half the heaviness threshold, so true heavy hitters
/// survive estimation noise).
pub fn sampled_frequencies(
    rel: &Relation,
    cols: &[usize],
    p: usize,
    rate: f64,
    rng: &mut Rng,
) -> SampledFrequencies {
    assert!((0.0..=1.0).contains(&rate) && rate > 0.0, "invalid rate");
    // The Bernoulli pass still reads every row once; tax it like any other
    // statistics scan.
    record_stats_scan_bytes(rel.len() as u64 * rel.arity() as u64 * 8);
    let mut counts: FastMap<Vec<u64>, usize> = FastMap::default();
    let mut sample_size = 0usize;
    for row in rel.rows() {
        if rng.f64() < rate {
            sample_size += 1;
            let key: Vec<u64> = cols.iter().map(|&c| row[c]).collect();
            *counts.entry(key).or_insert(0) += 1;
        }
    }
    let m = rel.len();
    let detect = m as f64 / (2.0 * p as f64);
    let estimates = counts
        .into_iter()
        .filter_map(|(key, c)| {
            let est = c as f64 / rate;
            if est > detect {
                Some((key, est.round() as usize))
            } else {
                None
            }
        })
        .collect();
    SampledFrequencies {
        estimates,
        rate,
        sample_size,
    }
}

/// Convenience: sampled frequencies at the recommended rate.
pub fn sample_heavy_hitters(
    rel: &Relation,
    cols: &[usize],
    p: usize,
    rng: &mut Rng,
) -> SampledFrequencies {
    let rate = recommended_rate(rel.len(), p);
    sampled_frequencies(rel, cols, p, rate, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_data::generators;

    fn planted(m: usize, heavies: &[(u64, usize)], rng: &mut Rng) -> Relation {
        let planted: usize = heavies.iter().map(|(_, c)| c).sum();
        let mut degrees: Vec<(Vec<u64>, usize)> =
            heavies.iter().map(|&(v, c)| (vec![v], c)).collect();
        degrees.extend((0..(m - planted) as u64).map(|i| (vec![10_000 + i], 1)));
        generators::from_degree_sequence("S", 2, &[1], &degrees, 1 << 20, rng)
    }

    #[test]
    fn recommended_rate_shrinks_with_m() {
        assert_eq!(recommended_rate(10, 64), 1.0); // tiny relation: keep all
        let r1 = recommended_rate(1 << 16, 16);
        let r2 = recommended_rate(1 << 20, 16);
        assert!(r1 > r2);
        assert!(r2 > 0.0);
    }

    #[test]
    fn detects_all_true_heavy_hitters() {
        let m = 1 << 16;
        let p = 16usize;
        // Heavies at 2x..8x the threshold m/p = 4096.
        let heavies = [(1u64, 8192usize), (2, 16384), (3, 32768)];
        let mut misses = 0;
        for seed in 0..20u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let rel = planted(m, &heavies, &mut rng);
            let sf = sample_heavy_hitters(&rel, &[1], p, &mut rng);
            for (v, _) in &heavies {
                if !sf.estimates.contains_key(&vec![*v]) {
                    misses += 1;
                }
            }
        }
        assert_eq!(misses, 0, "true heavy hitters missed by sampling");
    }

    #[test]
    fn estimates_within_factor_two() {
        let m = 1 << 16;
        let p = 16usize;
        let heavies = [(1u64, 8192usize), (2, 16384)];
        let mut rng = Rng::seed_from_u64(7);
        let rel = planted(m, &heavies, &mut rng);
        let sf = sample_heavy_hitters(&rel, &[1], p, &mut rng);
        for (v, true_freq) in &heavies {
            let est = sf.estimates[&vec![*v]] as f64;
            let ratio = est / *true_freq as f64;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "estimate {est} vs true {true_freq} (ratio {ratio})"
            );
        }
    }

    #[test]
    fn few_false_positives() {
        // Uniform data: nothing is heavy; the detector should report close
        // to nothing (noise can push a few values over half-threshold only
        // if the sample is pathological).
        let m = 1 << 16;
        let p = 16usize;
        let mut rng = Rng::seed_from_u64(9);
        let rel = generators::uniform("S", 2, m, 1 << 18, &mut rng);
        let sf = sample_heavy_hitters(&rel, &[1], p, &mut rng);
        assert!(
            sf.estimates.len() <= 2,
            "{} false positives on uniform data",
            sf.estimates.len()
        );
    }

    #[test]
    fn full_rate_equals_exact_counts() {
        let m = 4096;
        let p = 8usize;
        let heavies = [(1u64, 1024usize)];
        let mut rng = Rng::seed_from_u64(3);
        let rel = planted(m, &heavies, &mut rng);
        let sf = sampled_frequencies(&rel, &[1], p, 1.0, &mut rng);
        assert_eq!(sf.sample_size, m);
        assert_eq!(sf.estimates[&vec![1u64]], 1024);
    }
}
