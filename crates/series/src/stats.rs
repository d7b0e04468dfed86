//! Descriptive statistics over series values.
//!
//! These are the measures the paper names when discussing output quality
//! ("the statistics (e.g., correlation, sparseness, autocorrelation) of
//! the output of flexibility extraction", §3.1), implemented natively so
//! the workspace has no external analytics dependency (§5 ref \[11\]).
//!
//! All functions operate on plain `&[f64]` so they work on whole series
//! ([`crate::TimeSeries::values`]), slices of days, or flex-offer
//! profiles alike.

/// Arithmetic mean; `None` on empty input.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Population variance (divide by `n`); `None` on empty input.
pub fn variance(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Smallest value; `None` on empty input.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().fold(None, |acc, v| match acc {
        None => Some(v),
        Some(a) => Some(a.min(v)),
    })
}

/// Largest value; `None` on empty input.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().fold(None, |acc, v| match acc {
        None => Some(v),
        Some(a) => Some(a.max(v)),
    })
}

/// Linear-interpolated quantile, `q` in `[0, 1]`; `None` on empty input
/// or out-of-range `q`.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("series values are finite"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Median (the 0.5 quantile).
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Pearson correlation coefficient of two equal-length slices.
///
/// `None` if lengths differ, fewer than 2 points, or either side has
/// zero variance.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let mx = mean(xs)?;
    let my = mean(ys)?;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Autocorrelation of `xs` at `lag` (biased estimator, normalised by the
/// full-series variance). `None` when `lag >= len` or variance is zero.
pub fn autocorrelation(xs: &[f64], lag: usize) -> Option<f64> {
    let n = xs.len();
    if lag >= n {
        return None;
    }
    let m = mean(xs)?;
    let denom: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    if denom == 0.0 {
        return None;
    }
    let num: f64 = (0..n - lag).map(|i| (xs[i] - m) * (xs[i + lag] - m)).sum();
    Some(num / denom)
}

/// Sparseness: the fraction of values with magnitude at most `eps`.
///
/// Consumption series are dense; *extracted flexibility* series are
/// sparse — most intervals carry no flexible energy. The paper lists
/// sparseness among the statistics by which extraction output would be
/// judged (§3.1).
pub fn sparseness(xs: &[f64], eps: f64) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    xs.iter().filter(|v| v.abs() <= eps).count() as f64 / xs.len() as f64
}

/// Shannon entropy (nats) of a discrete distribution given by
/// non-negative weights; zero-weight bins are skipped. `None` if the
/// total weight is not positive.
pub fn entropy(weights: &[f64]) -> Option<f64> {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return None;
    }
    Some(
        weights
            .iter()
            .filter(|&&w| w > 0.0)
            .map(|&w| {
                let p = w / total;
                -p * p.ln()
            })
            .sum(),
    )
}

/// Normalised entropy in `[0, 1]`: [`entropy`] divided by `ln(len)`.
///
/// 1 means perfectly uniform (the paper's criticism of the random
/// baseline: "macro flex-offers are more or less uniformly dispatched
/// within the day"), 0 means fully concentrated in one bin.
pub fn normalized_entropy(weights: &[f64]) -> Option<f64> {
    if weights.len() < 2 {
        return None;
    }
    Some(entropy(weights)? / (weights.len() as f64).ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-9;

    #[test]
    fn mean_variance_std() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs).unwrap() - 2.5).abs() < EPS);
        assert!((variance(&xs).unwrap() - 1.25).abs() < EPS);
        assert!((std_dev(&xs).unwrap() - 1.25_f64.sqrt()).abs() < EPS);
        assert_eq!(mean(&[]), None);
        assert_eq!(variance(&[]), None);
    }

    #[test]
    fn min_max_quantiles() {
        let xs = [3.0, 1.0, 4.0, 1.5, 9.0];
        assert_eq!(min(&xs), Some(1.0));
        assert_eq!(max(&xs), Some(9.0));
        assert_eq!(median(&xs), Some(3.0));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(9.0));
        assert_eq!(quantile(&xs, 1.5), None);
        assert_eq!(quantile(&[], 0.5), None);
        // Interpolation between sorted neighbours.
        let ys = [0.0, 10.0];
        assert!((quantile(&ys, 0.25).unwrap() - 2.5).abs() < EPS);
    }

    #[test]
    fn pearson_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < EPS);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < EPS);
        assert_eq!(pearson(&xs, &[1.0, 1.0, 1.0, 1.0]), None); // zero variance
        assert_eq!(pearson(&xs, &ys[..3]), None); // length mismatch
    }

    #[test]
    fn autocorrelation_of_periodic_signal() {
        // Period-4 sawtooth: lag-4 autocorrelation is strongly positive,
        // lag-2 strongly negative.
        let xs: Vec<f64> = (0..64).map(|i| (i % 4) as f64).collect();
        let r4 = autocorrelation(&xs, 4).unwrap();
        let r2 = autocorrelation(&xs, 2).unwrap();
        assert!(r4 > 0.8, "lag-4 {r4}");
        assert!(r2 < 0.0, "lag-2 {r2}");
        assert!((autocorrelation(&xs, 0).unwrap() - 1.0).abs() < EPS);
        assert_eq!(autocorrelation(&xs, 64), None);
        assert_eq!(autocorrelation(&[1.0, 1.0], 1), None); // zero variance
    }

    #[test]
    fn sparseness_counts_zeros() {
        let xs = [0.0, 0.0, 1.0, 0.0];
        assert!((sparseness(&xs, 0.0) - 0.75).abs() < EPS);
        assert!((sparseness(&xs, 2.0) - 1.0).abs() < EPS);
        assert_eq!(sparseness(&[], 0.0), 1.0);
    }

    #[test]
    fn entropy_extremes() {
        // Uniform → maximal, concentrated → zero.
        let uniform = [1.0, 1.0, 1.0, 1.0];
        assert!((normalized_entropy(&uniform).unwrap() - 1.0).abs() < EPS);
        let point = [1.0, 0.0, 0.0, 0.0];
        assert!(normalized_entropy(&point).unwrap().abs() < EPS);
        assert_eq!(entropy(&[0.0, 0.0]), None);
        assert_eq!(normalized_entropy(&[1.0]), None);
    }
}
