//! Sample statistics and the seeded key sampler.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `(0, 1]`) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it, on the side of
/// its tail (above it from the median up, below it under the median): a
/// p50 needs 20 samples, a p90 100, a p10 101 and a p1 1 001.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = if q < 0.5 { rank - 1 } else { n - rank };
    if beyond < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The plain median (middle element, upper of the two for an even
/// count) — for the few repeated set-ups of one run, where the
/// percentile rule cannot apply.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted.get(sorted.len() / 2).copied().unwrap_or(0.0)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// A seeded Zipf key sampler over `0..n`: rank `r` (1-based) is drawn
/// with weight `r^-s`, and ranks map to keys through a seeded
/// permutation so the hot keys spread over the whole key space.
pub struct Zipf {
    cdf: Vec<f64>,
    keys: Vec<usize>,
}

impl Zipf {
    /// A sampler over `n >= 1` keys with exponent `s`; the permutation
    /// is drawn from `seed`.
    pub fn new(n: usize, s: f64, seed: u64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += (r as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut keys: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..n).rev() {
            keys.swap(i, rng.gen_range(0..=i));
        }
        Zipf { cdf, keys }
    }

    /// The keys of the `k` most probable ranks, most probable first.
    pub fn hottest(&self, k: usize) -> &[usize] {
        &self.keys[..k.min(self.keys.len())]
    }

    /// Draw one key.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.keys.len() - 1);
        self.keys[rank]
    }
}

/// A uniform random sample of at most `cap` values from a stream
/// (Algorithm R), so a run of millions of microsecond ops keeps its
/// percentiles without holding every latency. The values kept are
/// values as measured.
pub struct Reservoir {
    cap: usize,
    seen: usize,
    sum: f64,
    kept: Vec<f64>,
    rng: StdRng,
}

impl Reservoir {
    /// An empty reservoir of capacity `cap`, drawing from `seed`.
    pub fn new(cap: usize, seed: u64) -> Reservoir {
        Reservoir {
            cap,
            seen: 0,
            sum: 0.0,
            kept: Vec::with_capacity(cap),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Offer one value.
    pub fn push(&mut self, value: f64) {
        self.seen += 1;
        self.sum += value;
        if self.kept.len() < self.cap {
            self.kept.push(value);
        } else {
            let slot = self.rng.gen_range(0..self.seen);
            if slot < self.cap {
                self.kept[slot] = value;
            }
        }
    }

    /// Values offered so far.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// Sum of every value offered.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The sample.
    pub fn kept(&self) -> &[f64] {
        &self.kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let nineteen: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&nineteen, 0.5), None);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 0.5), Some(10.0));
        assert_eq!(percentile(&twenty, 0.9), None);
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(percentile(&hundred, 0.95), None);
        // Under the median the tail is below: a p10 needs 10 samples
        // under it.
        assert_eq!(percentile(&hundred, 0.1), None);
        let hundred_one: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&hundred_one, 0.1), Some(11.0));
        assert_eq!(percentile(&hundred_one, 0.01), None);
        let thousand_one: Vec<f64> = (1..=1001).map(f64::from).collect();
        assert_eq!(percentile(&thousand_one, 0.01), Some(11.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn zipf_sampler_is_deterministic_per_seed() {
        let draw = |seed: u64| {
            let zipf = Zipf::new(1000, 1.1, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 1);
            (0..500).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert!(draw(7).iter().all(|&k| k < 1000));
    }

    #[test]
    fn reservoir_keeps_a_bounded_deterministic_sample() {
        let fill = |seed: u64| {
            let mut r = Reservoir::new(100, seed);
            for i in 0..10_000 {
                r.push(f64::from(i));
            }
            r
        };
        let r = fill(5);
        assert_eq!((r.seen(), r.kept().len()), (10_000, 100));
        assert_eq!(r.sum(), 49_995_000.0);
        assert_eq!(r.kept(), fill(5).kept());
        // A uniform sample of 0..10 000 has its median near 5 000.
        let p50 = percentile(r.kept(), 0.5).expect("100 samples");
        assert!((3_000.0..7_000.0).contains(&p50), "p50 {p50}");
        let mut small = Reservoir::new(100, 1);
        small.push(2.0);
        assert_eq!(small.kept(), &[2.0]);
    }

    #[test]
    fn zipf_sampler_is_skewed() {
        let zipf = Zipf::new(10_000, 1.1, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..20_000 {
            *counts.entry(zipf.sample(&mut rng)).or_insert(0_usize) += 1;
        }
        let top = counts.get(&zipf.hottest(1)[0]).copied().unwrap_or(0);
        // The rank-1 key carries ~10 % of the mass at s = 1.1.
        assert!(top > 1_000, "top key drawn {top} times");
        // The 1 000 hottest keys carry most of the draws.
        let hot: usize = zipf
            .hottest(1_000)
            .iter()
            .filter_map(|k| counts.get(k))
            .sum();
        assert!(hot > 10_000, "hottest keys drawn {hot} times");
        assert!(counts.len() > 500, "only {} distinct keys", counts.len());
    }
}
