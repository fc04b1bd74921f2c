//! Deterministic pseudo-randomness: xoshiro256** seeded via SplitMix64.
//!
//! Every random choice in the workspace — hash functions, generated
//! relations, algorithm coin flips — flows through this generator, so every
//! experiment in the README's experiment index is reproducible bit-for-bit
//! from its seed.
//! (The MPC model's "random bits available to all servers, computed
//! independently of the input data" is exactly a shared seed.)

/// xoshiro256** by Blackman & Vigna: fast, high-quality, 256-bit state.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

/// SplitMix64 step, used for seeding and as a standalone mixer.
#[inline]
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stateless 64-bit mixing function (a single SplitMix64 round applied to
/// `x ^ key`). This is the "perfectly random hash function" stand-in used by
/// the simulator: independent keys give (empirically) independent hash
/// functions per variable, which is what Lemma 3.1's analysis needs.
#[inline]
pub fn mix64(x: u64, key: u64) -> u64 {
    let mut s = x ^ key;
    splitmix64(&mut s)
}

impl Rng {
    /// Seed deterministically from a single `u64`.
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Next raw 64-bit output.
    #[inline]
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

    /// Uniform value in `[0, bound)` via Lemire's multiply-shift with
    /// rejection (unbiased).
    ///
    /// # Panics
    /// Panics when `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "Rng::below(0)");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Sample `k` distinct values uniformly from `[0, n)` (Floyd's
    /// algorithm); order is unspecified but deterministic.
    pub(crate) fn sample_distinct(&mut self, n: u64, k: usize) -> Vec<u64> {
        assert!(
            k as u64 <= n,
            "cannot sample {k} distinct values from [0,{n})"
        );
        let mut chosen = std::collections::HashSet::with_capacity(k);
        let mut out = Vec::with_capacity(k);
        for j in (n - k as u64)..n {
            let t = self.below(j + 1);
            let v = if chosen.contains(&t) { j } else { t };
            chosen.insert(v);
            out.push(v);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fisher–Yates shuffle.
    fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    #[test]
    fn determinism() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = Rng::seed_from_u64(7);
        let mut counts = [0usize; 10];
        let trials = 100_000;
        for _ in 0..trials {
            let v = rng.below(10) as usize;
            counts[v] += 1;
        }
        for &c in &counts {
            let expected = trials / 10;
            assert!(
                (c as f64 - expected as f64).abs() < expected as f64 * 0.1,
                "bucket count {c} too far from {expected}"
            );
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn sample_distinct_is_distinct() {
        let mut rng = Rng::seed_from_u64(5);
        let sample = rng.sample_distinct(100, 40);
        let set: std::collections::HashSet<_> = sample.iter().collect();
        assert_eq!(set.len(), 40);
        assert!(sample.iter().all(|&v| v < 100));
    }

    #[test]
    fn sample_distinct_full_population() {
        let mut rng = Rng::seed_from_u64(5);
        let mut sample = rng.sample_distinct(10, 10);
        sample.sort_unstable();
        assert_eq!(sample, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        shuffle(&mut rng, &mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<_>>(),
            "shuffle left input unchanged"
        );
    }

    #[test]
    fn mix64_keys_give_distinct_functions() {
        // Same input, different keys -> different outputs (w.h.p.).
        let collisions = (0..1000u64).filter(|&x| mix64(x, 1) == mix64(x, 2)).count();
        assert_eq!(collisions, 0);
    }
}
