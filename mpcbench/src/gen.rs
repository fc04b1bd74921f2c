//! Input generation: the benchmark's own RNG and relation generators.
//!
//! Deliberately independent of `mpc_data::generators` and
//! `mpc_bench::workloads` — later changes may refactor those, and the
//! benchmark's inputs must not move with them. Everything here is a pure
//! function of the `--seed` argument.

/// xoshiro256** seeded through SplitMix64.
pub struct Rng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        Rng {
            s: std::array::from_fn(|_| splitmix64(&mut sm)),
        }
    }

    /// An independent stream for one named part of a workload, so adding a
    /// relation to one workload never shifts the tuples of another.
    pub fn stream(seed: u64, tag: &str) -> Rng {
        let mut d = Digest::new();
        d.bytes(tag.as_bytes());
        Rng::new(seed ^ d.finish())
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, n)` (multiply-shift; the bias at these `n` is far
    /// below anything a workload could observe).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Exact Zipf(theta) degree sequence: how often each of the ranks
/// `0..support` occurs among `m` draws — `m * r^-theta / H` rounded so the
/// counts sum to `m` (largest remainders first). Frequencies are exact
/// rather than sampled, so every seed sees the same heavy hitters and the
/// planner builds the same plan structure; the seed decides only which
/// tuples carry them.
pub fn zipf_degrees(m: usize, support: u64, theta: f64) -> Vec<usize> {
    let weights: Vec<f64> = (1..=support).map(|r| (r as f64).powf(-theta)).collect();
    let total: f64 = weights.iter().sum();
    let shares: Vec<f64> = weights.iter().map(|w| w / total * m as f64).collect();
    let mut counts: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..counts.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        let frac = |i: usize| shares[i] - shares[i].floor();
        frac(b).total_cmp(&frac(a)).then(a.cmp(&b))
    });
    let missing = m - counts.iter().sum::<usize>();
    for &rank in &by_remainder[..missing] {
        counts[rank] += 1;
    }
    counts
}

/// Which end of the domain a Zipf column's most frequent values sit at.
/// Two relations skewed at opposite ends are each heavy on their own join
/// column without their hot values meeting, so the join output stays small.
#[derive(Clone, Copy)]
pub enum End {
    Low,
    High,
}

/// `m` binary tuples, both columns uniform over `[0, domain)`.
pub fn uniform(rng: &mut Rng, m: usize, domain: u64) -> Vec<u64> {
    (0..2 * m).map(|_| rng.below(domain)).collect()
}

/// `m` binary tuples whose column `col` follows [`zipf_degrees`] from one
/// end of the domain and whose other column is uniform, in shuffled order.
/// `planted = (value, copies)` makes `copies` of the `m` tuples carry
/// `value` instead: a heavy hitter placed by hand.
pub fn zipf_column(
    rng: &mut Rng,
    m: usize,
    domain: u64,
    theta: f64,
    col: usize,
    end: End,
    planted: Option<(u64, usize)>,
) -> Vec<u64> {
    let (planted_value, copies) = planted.unwrap_or((0, 0));
    let degrees = zipf_degrees(m - copies, domain, theta);
    let values = degrees.iter().enumerate().map(|(rank, &count)| {
        let value = match end {
            End::Low => rank as u64,
            End::High => domain - 1 - rank as u64,
        };
        (value, count)
    });
    let mut rows: Vec<[u64; 2]> = Vec::with_capacity(m);
    for (skewed, count) in values.chain([(planted_value, copies)]) {
        for _ in 0..count {
            let other = rng.below(domain);
            rows.push(if col == 0 {
                [skewed, other]
            } else {
                [other, skewed]
            });
        }
    }
    // Fisher-Yates: hot values must not arrive as one sorted run.
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.below(i as u64 + 1) as usize);
    }
    rows.into_iter().flatten().collect()
}

/// Join-product skew for `R(a, z)`: `hot` values of `z` with `fanout`
/// tuples each (the same hot values on both sides of the join, so the
/// output is `hot * fanout^2`), then a light tail whose `z` is drawn from
/// `tail` — give the two sides disjoint tails and the tail adds no answers.
pub fn product_skew(
    rng: &mut Rng,
    m: usize,
    domain: u64,
    hot: u64,
    fanout: usize,
    tail: std::ops::Range<u64>,
) -> Vec<u64> {
    assert!(hot as usize * fanout <= m && tail.start >= hot && tail.end <= domain);
    let mut flat = Vec::with_capacity(2 * m);
    for z in 0..hot {
        for _ in 0..fanout {
            flat.extend([rng.below(domain), z]);
        }
    }
    while flat.len() < 2 * m {
        flat.extend([
            rng.below(domain),
            tail.start + rng.below(tail.end - tail.start),
        ]);
    }
    flat
}

/// FNV-1a over everything a workload feeds the program: the digest printed
/// as `input_digest`, and the per-reply row checksum.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn words(&mut self, words: &[u64]) {
        for w in words {
            self.bytes(&w.to_le_bytes());
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_seed_sensitive() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut r = Rng::new(1);
        assert!((0..10_000).all(|_| r.below(37) < 37));
    }

    #[test]
    fn zipf_degrees_are_exact_and_seed_free() {
        let d = zipf_degrees(512, 1 << 12, 1.1);
        assert_eq!(d.iter().sum::<usize>(), 512);
        assert!(d.windows(2).all(|w| w[0] >= w[1]), "non-increasing in rank");
        // 1/H(4096, 1.1) is about 0.16, and rank r gets r^-1.1 of that.
        assert!((78..=86).contains(&d[0]), "{}", d[0]);
        assert!((d[1] as f64 - d[0] as f64 / 2f64.powf(1.1)).abs() <= 1.0);
        let col = |seed| {
            let flat = zipf_column(
                &mut Rng::new(seed),
                512 + 7,
                1 << 12,
                1.1,
                0,
                End::High,
                Some((9, 7)),
            );
            let mut hot: Vec<u64> = flat.chunks_exact(2).map(|r| r[0]).collect();
            hot.sort_unstable();
            (hot, flat)
        };
        let ((hot_a, flat_a), (hot_b, flat_b)) = (col(1), col(2));
        assert_eq!(hot_a, hot_b, "same frequencies whatever the seed");
        assert_ne!(flat_a, flat_b, "but other tuples");
        assert_eq!(hot_a.iter().filter(|&&v| v == (1 << 12) - 1).count(), d[0]);
        assert_eq!(
            hot_a.iter().filter(|&&v| v == 9).count(),
            7,
            "planted copies"
        );
    }

    #[test]
    fn product_skew_has_the_planted_shape() {
        let mut rng = Rng::new(5);
        let flat = product_skew(&mut rng, 1000, 1 << 16, 4, 50, 100..200);
        assert_eq!(flat.len(), 2000);
        for z in 0..4u64 {
            assert_eq!(flat.chunks_exact(2).filter(|r| r[1] == z).count(), 50);
        }
        assert!(flat
            .chunks_exact(2)
            .skip(200)
            .all(|r| (100..200).contains(&r[1])));
    }
}
