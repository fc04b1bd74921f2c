//! Frequency bins for heavy hitters (Section 4.2).
//!
//! The general algorithm groups the heavy hitters of each `(relation,
//! attribute subset)` pair into `log2 p` geometric bins: bin `b`
//! (`b = 1..log2 p`) holds assignments with
//!
//! ```text
//! m_j / 2^{b-1}  >=  m_j(h_j)  >  m_j / 2^b
//! ```
//!
//! so all members of a bin have frequencies within a factor of two — which
//! is why approximate frequencies suffice for the algorithm. The *bin
//! exponent* is `β_b = log_p(2^{b-1})`; the light "bin" (everything at or
//! below the `m_j/p` threshold) has exponent 1.

use crate::heavy::HeavyHitters;

/// Number of heavy bins for `p` servers: `log2 p` (p is expected to be a
/// power of two per Section 4.2; other values round up).
pub fn num_bins(p: usize) -> usize {
    assert!(p >= 2, "binning needs p >= 2");
    (usize::BITS - (p - 1).leading_zeros()) as usize
}

/// The 1-based bin index of a frequency, or `None` when the assignment is
/// light (`freq <= m/p`).
pub fn bin_of_frequency(freq: usize, m: usize, p: usize) -> Option<usize> {
    let threshold = m as f64 / p as f64;
    if (freq as f64) <= threshold {
        return None;
    }
    for b in 1..=num_bins(p) {
        // bin b: m/2^{b-1} >= freq > m/2^b
        let upper = m as f64 / 2f64.powi(b as i32 - 1);
        let lower = m as f64 / 2f64.powi(b as i32);
        if (freq as f64) <= upper && (freq as f64) > lower {
            return Some(b);
        }
    }
    // Heavier than m/2 yet matched no bin can't happen (b = 1 catches it);
    // frequencies in (m/p, m/2^{log2 p}] land in the last bin.
    Some(num_bins(p))
}

/// The bin exponent `β_b = log_p(2^{b-1})` of heavy bin `b`; the light bin
/// is represented by exponent 1 ([`LIGHT_BIN_EXPONENT`]).
pub(crate) fn bin_exponent(b: usize, p: usize) -> f64 {
    assert!(b >= 1);
    ((b - 1) as f64) * 2f64.ln() / (p as f64).ln()
}

/// The light bin's exponent (`β = 1`): frequencies `<= m/p` behave like a
/// `p`-way split.
pub const LIGHT_BIN_EXPONENT: f64 = 1.0;

/// Heavy hitters of one `(relation, attribute subset)` pair, grouped into
/// geometric frequency bins.
#[derive(Clone, Debug)]
pub struct BinnedHitters {
    /// The underlying detection result (atom, vars, cols, threshold).
    pub source: HeavyHitters,
    /// `bins[b-1]` lists `(assignment, frequency)` for heavy bin `b`.
    pub bins: Vec<Vec<(Vec<u64>, usize)>>,
}

impl BinnedHitters {
    /// Group a detection result into bins.
    pub(crate) fn build(source: HeavyHitters) -> BinnedHitters {
        let nb = num_bins(source.p);
        let mut bins: Vec<Vec<(Vec<u64>, usize)>> = vec![Vec::new(); nb];
        for (key, &freq) in &source.entries {
            let b = bin_of_frequency(freq, source.cardinality, source.p)
                .expect("entries are heavy by construction");
            bins[b - 1].push((key.clone(), freq));
        }
        for bin in &mut bins {
            bin.sort();
        }
        BinnedHitters { source, bins }
    }

    /// Non-empty bins as `(bin index b, members)`.
    pub(crate) fn occupied(&self) -> impl Iterator<Item = (usize, &[(Vec<u64>, usize)])> {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(|(i, v)| (i + 1, v.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heavy::heavy_hitters;
    use mpc_data::catalog::Database;
    use mpc_data::generators;
    use mpc_data::rng::Rng;
    use mpc_query::{named, VarSet};

    #[test]
    fn num_bins_matches_log2() {
        assert_eq!(num_bins(2), 1);
        assert_eq!(num_bins(4), 2);
        assert_eq!(num_bins(64), 6);
        assert_eq!(num_bins(60), 6); // non-power-of-two rounds up
    }

    #[test]
    fn bin_boundaries() {
        let (m, p) = (1024usize, 16usize);
        // m/p = 64: anything <= 64 is light.
        assert_eq!(bin_of_frequency(64, m, p), None);
        assert_eq!(bin_of_frequency(1, m, p), None);
        // Bin 1: (512, 1024]; bin 2: (256, 512]; ... bin 4: (64, 128].
        assert_eq!(bin_of_frequency(1024, m, p), Some(1));
        assert_eq!(bin_of_frequency(513, m, p), Some(1));
        assert_eq!(bin_of_frequency(512, m, p), Some(2));
        assert_eq!(bin_of_frequency(300, m, p), Some(2));
        assert_eq!(bin_of_frequency(128, m, p), Some(4));
        assert_eq!(bin_of_frequency(65, m, p), Some(4));
    }

    #[test]
    fn members_within_factor_two() {
        // Any two members of the same bin differ by at most 2x in frequency.
        let (m, p) = (1 << 14, 64usize);
        for freq_a in [300usize, 400, 500, 1000, 5000, 16000] {
            for freq_b in [300usize, 400, 500, 1000, 5000, 16000] {
                if bin_of_frequency(freq_a, m, p) == bin_of_frequency(freq_b, m, p)
                    && bin_of_frequency(freq_a, m, p).is_some()
                {
                    let ratio = freq_a.max(freq_b) as f64 / freq_a.min(freq_b) as f64;
                    assert!(ratio <= 2.0, "{freq_a} and {freq_b} share a bin");
                }
            }
        }
    }

    #[test]
    fn estimates_bin_conservatively() {
        use crate::cardinality::SimpleStatistics;
        use crate::sketch::FreqEstimate;
        use crate::source::Stats;

        /// A source reporting the same `(key, estimate, error_bound)`
        /// intervals for every projection.
        struct Fixed(Vec<(u64, usize, usize)>);
        impl Stats for Fixed {
            fn simple(&self) -> SimpleStatistics {
                SimpleStatistics::synthetic(&[2, 2], vec![1024, 1024], 1 << 12)
            }
            fn heavy_hitters(&self, _: usize, _: &[usize], _: usize) -> Vec<FreqEstimate> {
                let interval = |&(key, estimate, error_bound): &(u64, usize, usize)| FreqEstimate {
                    key: vec![key],
                    estimate,
                    error_bound,
                };
                self.0.iter().map(interval).collect()
            }
        }

        // The rule planning applies: `HeavyHitters::of` keeps what may
        // exceed m/p = 64 at its largest consistent count (clamped to m),
        // then `BinnedHitters::build` bins it. Exact counts (keys 1, 5) bin
        // like raw frequencies, 64 itself being light; the interval
        // [60, 70] straddling the threshold (key 2) rounds up into a heavy
        // bin; the entirely-light [56, 60] (key 3) stays light; an upper
        // end past m (key 4) bins at m.
        let (m, p) = (1024usize, 16usize);
        let stats = Fixed(vec![
            (1, 300, 0),
            (5, 64, 0),
            (2, 70, 10),
            (3, 60, 4),
            (4, 2 * m, 1500),
        ]);
        let q = named::two_way_join();
        let z = VarSet::singleton(q.var_index("z").unwrap());
        let binned = BinnedHitters::build(HeavyHitters::of(&q, &stats, m, 0, z, p));
        let bin_of = |key: u64| {
            (binned.occupied())
                .find(|(_, members)| members.iter().any(|(k, _)| k == &[key]))
                .map(|(b, _)| b)
        };
        assert_eq!(bin_of(1), bin_of_frequency(300, m, p));
        assert_eq!(bin_of(5), None);
        assert_eq!(bin_of(2), bin_of_frequency(70, m, p));
        assert_eq!(bin_of(3), None);
        assert_eq!(bin_of(4), Some(1));
        assert_eq!(binned.source.frequency(&[4]), Some(m));
    }

    #[test]
    fn exponents_are_monotone_from_zero() {
        let p = 64;
        assert_eq!(bin_exponent(1, p), 0.0);
        let nb = num_bins(p);
        for b in 2..=nb {
            assert!(bin_exponent(b, p) > bin_exponent(b - 1, p));
        }
        // The last heavy bin's exponent approaches (but stays below) 1.
        assert!(bin_exponent(nb, p) < LIGHT_BIN_EXPONENT + 1e-12);
        // For p a power of two: β_{log2 p} = log_p(p/2) = 1 - 1/log2(p).
        let expected = 1.0 - 1.0 / (p as f64).log2();
        assert!((bin_exponent(nb, p) - expected).abs() < 1e-12);
    }

    #[test]
    fn binned_hitters_group_planted_degrees() {
        let q = named::two_way_join();
        let mut rng = Rng::seed_from_u64(1);
        let m = 1024usize;
        let p = 16usize;
        // Frequencies: 600 (bin 1), 300 (bin 2), 100 (bin 4), rest light.
        let degrees: Vec<(Vec<u64>, usize)> = vec![
            (vec![1], 600),
            (vec![2], 300),
            (vec![3], 100),
            (vec![4], 24),
        ];
        let s1 = generators::from_degree_sequence("S1", 2, &[1], &degrees, 1 << 10, &mut rng);
        assert_eq!(s1.len(), m);
        let s2 = generators::uniform("S2", 2, 64, 1 << 10, &mut rng);
        let db = Database::new(q, vec![s1, s2], 1 << 10).unwrap();
        let z = db.query().var_index("z").unwrap();
        let hh = heavy_hitters(&db, 0, VarSet::singleton(z), p);
        let binned = BinnedHitters::build(hh);
        assert_eq!(binned.bins[0], vec![(vec![1u64], 600)]);
        assert_eq!(binned.bins[1], vec![(vec![2u64], 300)]);
        assert_eq!(binned.bins[3], vec![(vec![3u64], 100)]);
        // freq 24 <= 1024/16 = 64: light, absent everywhere.
        for bin in &binned.bins {
            assert!(!bin.iter().any(|(k, _)| k == &vec![4u64]));
        }
        let occupied: Vec<usize> = binned.occupied().map(|(b, _)| b).collect();
        assert_eq!(occupied, vec![1, 2, 4]);
    }
}
