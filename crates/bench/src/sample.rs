//! The one timing loop behind every bench row.
//!
//! [`sample`] calls the closure once untimed, doubles a batch size
//! until one batch takes at least [`MIN_BATCH`] (so µs-scale rows are
//! not clock-bound), then times batches until both [`MIN_SAMPLES`]
//! batches and [`BUDGET`] have passed. Each batch gives one
//! per-iteration sample; a [`Sample`] summarises them as a
//! distribution, never a single mean.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The shortest batch worth timing.
pub const MIN_BATCH: Duration = Duration::from_micros(100);
/// Sampling lasts at least this long...
pub const BUDGET: Duration = Duration::from_millis(500);
/// ...and times at least this many batches.
pub const MIN_SAMPLES: usize = 10;
/// The tail percentile reported is the highest with at least this many
/// samples beyond it.
const TAIL_BEYOND: usize = 10;
/// Below this many samples, the tail would be no further out than the
/// upper quartile, and is omitted.
const TAIL_MIN_SAMPLES: usize = 4 * TAIL_BEYOND;

/// Per-iteration timing distribution of one bench row, in µs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Timed batches.
    pub samples: usize,
    /// Iterations per batch.
    pub batch: u64,
    /// The fastest batch's time per iteration.
    pub min_us: f64,
    /// The median batch's time per iteration.
    pub median_us: f64,
    /// Interquartile range over the median.
    pub spread: f64,
    /// `(percentile, µs)` at the highest whole percentile with at
    /// least 10 samples beyond it; `None` under 40 samples.
    pub tail: Option<(u32, f64)>,
}

/// Time `f` (see the module doc for the loop).
pub fn sample<O>(mut f: impl FnMut() -> O) -> Sample {
    black_box(f());
    let started = Instant::now();
    let mut batch = 1_u64;
    let mut per_iter_us = Vec::new();
    while per_iter_us.len() < MIN_SAMPLES || started.elapsed() < BUDGET {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let took = t.elapsed();
        if per_iter_us.is_empty() && took < MIN_BATCH {
            batch *= 2;
            continue;
        }
        per_iter_us.push(took.as_secs_f64() * 1e6 / batch as f64);
    }
    Sample::from_times(per_iter_us, batch)
}

impl Sample {
    /// Summarise per-iteration times (µs) taken at `batch` iterations
    /// per sample. Panics on an empty `per_iter_us`.
    fn from_times(mut per_iter_us: Vec<f64>, batch: u64) -> Sample {
        per_iter_us.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (per_iter_us.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            per_iter_us[lo] + (per_iter_us[hi] - per_iter_us[lo]) * (pos - pos.floor())
        };
        let n = per_iter_us.len();
        let median_us = at(0.5);
        let tail = (n >= TAIL_MIN_SAMPLES).then(|| {
            let pct = (100 - (100 * TAIL_BEYOND).div_ceil(n) as u32).min(99);
            (pct, at(f64::from(pct) / 100.0))
        });
        Sample {
            samples: n,
            batch,
            min_us: per_iter_us[0],
            median_us,
            spread: (at(0.75) - at(0.25)) / median_us,
            tail,
        }
    }
}

/// Sample `f` and print one row: `label`, the [`Sample`], and elements
/// per second at the median when `elements` (per iteration) is given.
pub fn bench<O>(label: &str, elements: Option<u64>, f: impl FnMut() -> O) {
    let s = sample(f);
    let rate = elements
        .map(|n| format!("  {:>12.0} elem/s", n as f64 / (s.median_us * 1e-6)))
        .unwrap_or_default();
    println!("{label:<56} {s}{rate}");
}

/// The row as printed: median µs/iter, then min, spread, tail and
/// sample count.
impl std::fmt::Display for Sample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>12.3} µs/iter (min {:.3}, spread {:.1} %",
            self.median_us,
            self.min_us,
            100.0 * self.spread
        )?;
        if let Some((pct, us)) = self.tail {
            write!(f, ", p{pct} {us:.3}")?;
        }
        write!(f, ", n {})", self.samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_reads_the_sorted_times() {
        let times: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = Sample::from_times(times, 4);
        assert_eq!(
            (s.samples, s.batch, s.min_us, s.median_us),
            (100, 4, 1.0, 50.5)
        );
        assert!((s.spread - (75.25 - 25.75) / 50.5).abs() < 1e-12);
        // 10 of 100 samples lie beyond p90.
        let (pct, us) = s.tail.unwrap();
        assert!(pct == 90 && (us - 90.1).abs() < 1e-9, "{pct} {us}");
        assert!(s.to_string().ends_with("p90 90.100, n 100)"), "{s}");
    }

    #[test]
    fn the_tail_needs_ten_samples_beyond_it() {
        let times = |n: u32| (1..=n).map(f64::from).collect::<Vec<_>>();
        assert_eq!(Sample::from_times(times(39), 1).tail, None);
        assert_eq!(Sample::from_times(times(40), 1).tail.unwrap().0, 75);
        assert_eq!(Sample::from_times(times(200), 1).tail.unwrap().0, 95);
        assert_eq!(Sample::from_times(times(5000), 1).tail.unwrap().0, 99);
        let one = Sample::from_times(vec![3.0], 1);
        assert_eq!((one.min_us, one.median_us, one.spread), (3.0, 3.0, 0.0));
    }

    #[test]
    fn sampling_batches_fast_closures_and_meets_both_floors() {
        let started = Instant::now();
        let mut calls = 0_u64;
        let s = sample(|| calls += 1);
        assert!(started.elapsed() >= BUDGET);
        assert!(s.samples >= MIN_SAMPLES && s.batch > 1, "{s:?}");
        assert!(calls > s.batch * s.samples as u64);
        assert!(s.min_us <= s.median_us && s.spread >= 0.0);
    }
}
