//! Deterministic random number generation for simulations.
//!
//! The generator is a self-contained xoshiro256++ (Blackman–Vigna, public
//! domain) seeded through SplitMix64, so the workspace needs no external RNG
//! crate and every stream is bit-reproducible across platforms and Rust
//! versions — a property `StdRng` explicitly does not guarantee.

/// A seedable random number generator with the samplers used by the
/// signaling simulator.
///
/// Every simulation replication receives its own `SimRng` derived from a
/// campaign seed and the replication index, making campaigns reproducible and
/// embarrassingly parallel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

/// One step of the SplitMix64 sequence; used for seeding and stream
/// derivation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // Expand the seed into four non-degenerate words with SplitMix64, as
        // the xoshiro authors recommend.
        let mut s = seed;
        let state = [
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
            splitmix64(&mut s),
        ];
        Self { state }
    }

    /// Derives a generator for replication `index` of a campaign seeded with
    /// `campaign_seed`.  Uses SplitMix64-style mixing so neighbouring indices
    /// produce uncorrelated streams.
    pub fn for_replication(campaign_seed: u64, index: u64) -> Self {
        let mut z = campaign_seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Self::new(z)
    }

    /// The next raw 64-bit output (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let mut s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        s3 = s3.rotate_left(45);
        self.state = [s0, s1, s2, s3];
        result
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high-quality bits → the standard [0, 1) double construction.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi >= lo);
        lo + (hi - lo) * self.uniform()
    }

    /// Bernoulli trial: returns `true` with probability `p`.
    ///
    /// `p <= 0` never succeeds, `p >= 1` always succeeds.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Exponential sample with the given mean (`mean <= 0` returns 0).
    pub fn exponential_mean(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        // Inverse transform; `1 - u` avoids ln(0).
        let u = self.uniform();
        -mean * (1.0 - u).ln()
    }

    /// Exponential sample with the given rate (`rate <= 0` returns +inf,
    /// representing an event that never happens).
    pub fn exponential_rate(&mut self, rate: f64) -> f64 {
        if rate <= 0.0 {
            return f64::INFINITY;
        }
        self.exponential_mean(1.0 / rate)
    }

    /// Uniform integer in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        // Lemire's multiply-shift bounded sampler with rejection for an
        // unbiased draw.
        let n = n as u64;
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let m = (x as u128) * (n as u128);
                ((m >> 64) as u64, m as u64)
            };
            if lo >= n || lo >= n.wrapping_neg() % n {
                return hi as usize;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let xa: Vec<f64> = (0..10).map(|_| a.uniform()).collect();
        let xb: Vec<f64> = (0..10).map(|_| b.uniform()).collect();
        assert_ne!(xa, xb);
    }

    #[test]
    fn replication_streams_are_deterministic_and_distinct() {
        let mut r0 = SimRng::for_replication(42, 0);
        let mut r0b = SimRng::for_replication(42, 0);
        let mut r1 = SimRng::for_replication(42, 1);
        assert_eq!(r0.uniform(), r0b.uniform());
        assert_ne!(r0.uniform(), r1.uniform());
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = SimRng::new(3);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
        assert!(!rng.bernoulli(-1.0));
        assert!(rng.bernoulli(2.0));
    }

    #[test]
    fn bernoulli_frequency_close_to_p() {
        let mut rng = SimRng::new(11);
        let p = 0.3;
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.bernoulli(p)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - p).abs() < 0.01, "freq = {freq}");
    }

    #[test]
    fn exponential_mean_close_to_requested() {
        let mut rng = SimRng::new(5);
        let mean = 4.0;
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| rng.exponential_mean(mean)).sum();
        let emp = sum / n as f64;
        assert!((emp - mean).abs() / mean < 0.02, "empirical mean = {emp}");
    }

    #[test]
    fn exponential_rate_zero_is_never() {
        let mut rng = SimRng::new(5);
        assert!(rng.exponential_rate(0.0).is_infinite());
        assert_eq!(rng.exponential_mean(0.0), 0.0);
    }

    #[test]
    fn index_bounds() {
        let mut rng = SimRng::new(9);
        for _ in 0..1000 {
            let i = rng.index(7);
            assert!(i < 7);
        }
        assert_eq!(rng.index(0), 0);
    }

    #[test]
    fn index_covers_all_residues() {
        let mut rng = SimRng::new(13);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.index(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn stream_is_stable_across_construction() {
        // Guards against silent drift of the generator: every recorded
        // campaign result depends on this exact stream, so cloning or
        // re-seeding must reproduce it bit for bit.
        let mut rng = SimRng::new(0);
        let first: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        let mut again = SimRng::new(0);
        let repeat: Vec<u64> = (0..8).map(|_| again.next_u64()).collect();
        assert_eq!(first, repeat);
        assert!(first.windows(2).any(|w| w[0] != w[1]));
        let mut cloned = SimRng::new(1);
        let mut snapshot = cloned.clone();
        assert_eq!(cloned.next_u64(), snapshot.next_u64());
    }

    proptest! {
        #[test]
        fn prop_uniform_in_unit_interval(seed in any::<u64>()) {
            let mut rng = SimRng::new(seed);
            for _ in 0..50 {
                let u = rng.uniform();
                prop_assert!((0.0..1.0).contains(&u));
            }
        }

        #[test]
        fn prop_exponential_nonnegative(seed in any::<u64>(), mean in 0.001f64..1e4) {
            let mut rng = SimRng::new(seed);
            for _ in 0..20 {
                prop_assert!(rng.exponential_mean(mean) >= 0.0);
            }
        }
    }
}
