//! The benchmark's own arithmetic: medians, the nearest-rank tail rule,
//! and the output digest.

/// Median of `samples` (mean of the two middle values for an even count).
/// Returns `0.0` for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// The percentiles the tail rule may report, highest first.
pub const TAIL_LADDER: [f64; 7] = [99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 50.0];

/// Samples that must lie strictly beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a latency sample: the highest percentile on [`TAIL_LADDER`]
/// with at least [`TAIL_BEYOND`] samples ranked beyond it, as
/// `(percentile, value)`.  With fewer than `TAIL_BEYOND` samples beyond even
/// the median, the median is reported.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n == 0 {
        return (50.0, 0.0);
    }
    for p in TAIL_LADDER {
        let rank = nearest_rank(n, p);
        let beyond = n - (rank + 1);
        if beyond >= TAIL_BEYOND {
            return (p, sorted[rank]);
        }
    }
    (50.0, sorted[nearest_rank(n, 50.0)])
}

/// 0-based index of the nearest-rank `p`-th percentile in a sorted sample
/// of `n` values.
fn nearest_rank(n: usize, p: f64) -> usize {
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 64-bit FNV-1a digest, folded over several byte strings in order.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of one string.
    pub fn of(text: &str) -> u64 {
        let mut d = Digest::default();
        d.update(text.as_bytes());
        d.finish()
    }

    /// The current value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_indices() {
        assert_eq!(nearest_rank(100, 50.0), 49);
        assert_eq!(nearest_rank(100, 95.0), 94);
        assert_eq!(nearest_rank(100, 99.9), 99);
        assert_eq!(nearest_rank(1, 99.0), 0);
    }

    #[test]
    fn tail_is_the_highest_ladder_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond (ranks 991..1000).
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        // 999 samples: p99 would leave 9 beyond, so p98 is reported.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v), (98.0, 980.0));
        // 200 samples: p95 leaves 10 beyond.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), (95.0, 190.0));
        // Order of the input does not matter.
        let mut r = v.clone();
        r.reverse();
        assert_eq!(tail(&r), (95.0, 190.0));
    }

    #[test]
    fn tail_falls_back_to_the_median_on_tiny_samples() {
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&v), (50.0, 6.0));
        assert_eq!(tail(&[]), (50.0, 0.0));
    }

    #[test]
    fn every_reported_tail_leaves_at_least_ten_samples_beyond() {
        for n in 20..=1200 {
            let v: Vec<f64> = (0..n).map(f64::from).collect();
            let (p, value) = tail(&v);
            let beyond = v.iter().filter(|&&x| x > value).count();
            assert!(beyond >= TAIL_BEYOND, "n = {n}: p{p} leaves {beyond}");
        }
    }

    #[test]
    fn fnv_digest_matches_reference_values() {
        assert_eq!(Digest::of(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Digest::of("a"), 0xaf63_dc4c_8601_ec8c);
        let mut d = Digest::default();
        d.update(b"foo");
        d.update(b"bar");
        assert_eq!(d.finish(), Digest::of("foobar"));
    }
}
