//! Gap handling for measured series.
//!
//! Real metering data has holes (meter outages, transmission loss).
//! Gaps are represented as `NaN` inside a raw value vector and must be
//! filled before the vector becomes a [`TimeSeries`](crate::TimeSeries), whose invariant is
//! all-finite values. The fill strategies mirror the disaggregation
//! literature the paper cites for "filling the missing values"
//! (§5 ref \[14\]).

use crate::SeriesError;
use serde::{Deserialize, Serialize};

/// Strategy for replacing `NaN` gaps in a raw value vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FillStrategy {
    /// Linear interpolation between the nearest finite neighbours;
    /// leading/trailing gaps take the nearest finite value.
    Linear,
    /// Repeat the previous finite value; a leading gap takes the first
    /// finite value.
    Previous,
    /// Replace each gap with the mean of the same interval-of-period
    /// across all days (periodic seasonal fill). Falls back to
    /// [`FillStrategy::Linear`] for phases that are missing everywhere.
    SeasonalDaily,
    /// Replace gaps with zero (appropriate for *extracted-flexibility*
    /// series where absence means "no flexible energy").
    Zero,
}

/// Number of `NaN` gaps in the vector.
pub fn gap_count(values: &[f64]) -> usize {
    values.iter().filter(|v| v.is_nan()).count()
}

/// `true` if the vector contains at least one gap.
pub fn has_gaps(values: &[f64]) -> bool {
    values.iter().any(|v| v.is_nan())
}

/// Fill gaps in `values` according to `strategy`.
///
/// `intervals_per_day` is only used by [`FillStrategy::SeasonalDaily`].
/// Returns the number of gaps filled. Errors with
/// [`SeriesError::Empty`] when *all* values are gaps (nothing to anchor
/// any strategy except [`FillStrategy::Zero`], which always succeeds).
///
/// # Edge (leading/trailing) gap behavior, per strategy
///
/// A gap run touching the start or end of the vector has only one
/// finite neighbour, so every strategy defines its edge behavior
/// explicitly:
///
/// * [`FillStrategy::Linear`] — an interior run interpolates between
///   its two finite neighbours; a **leading** run takes the first
///   finite value and a **trailing** run takes the last finite value
///   (nearest-neighbour extension, no extrapolated slope).
/// * [`FillStrategy::Previous`] — every gap repeats the previous
///   finite value; a **leading** run, which has no previous value,
///   takes the *first finite* value (backward fill at the edge only).
///   Trailing runs are ordinary carry-forward.
/// * [`FillStrategy::SeasonalDaily`] — edges behave like interior
///   gaps (the phase mean does not care about position); only a phase
///   missing on *every* day falls back to [`FillStrategy::Linear`],
///   inheriting its edge rules.
/// * [`FillStrategy::Zero`] — position never matters; every gap
///   becomes `0.0`.
///
/// # Energy bound
///
/// For every strategy except [`FillStrategy::Zero`], each filled value
/// is a convex combination of finite values already present in the
/// vector, so it lies within `[min, max]` of the finite values. The
/// total energy after filling is therefore bounded by
/// `observed + gaps·min ≤ total ≤ observed + gaps·max`, where
/// `observed` is the sum of the finite values. [`FillStrategy::Zero`]
/// adds exactly zero energy: `total == observed`. The dataset-layer
/// property tests pin this bound.
pub fn fill_gaps(
    values: &mut [f64],
    strategy: FillStrategy,
    intervals_per_day: usize,
) -> Result<usize, SeriesError> {
    let gaps = gap_count(values);
    if gaps == 0 {
        return Ok(0);
    }
    if gaps == values.len() && strategy != FillStrategy::Zero {
        return Err(SeriesError::Empty);
    }
    match strategy {
        FillStrategy::Zero => {
            for v in values.iter_mut() {
                if v.is_nan() {
                    *v = 0.0;
                }
            }
        }
        FillStrategy::Previous => {
            let Some(first_finite) = values.iter().copied().find(|v| !v.is_nan()) else {
                return Err(SeriesError::Empty);
            };
            let mut prev = first_finite;
            for v in values.iter_mut() {
                if v.is_nan() {
                    *v = prev;
                } else {
                    prev = *v;
                }
            }
        }
        FillStrategy::Linear => fill_linear(values)?,
        FillStrategy::SeasonalDaily => {
            let period = intervals_per_day.max(1);
            // Per-phase means over finite values.
            let mut sums = vec![(0.0, 0usize); period];
            for day in values.chunks(period) {
                for ((sum, count), v) in sums.iter_mut().zip(day) {
                    if !v.is_nan() {
                        *sum += v;
                        *count += 1;
                    }
                }
            }
            for day in values.chunks_mut(period) {
                for (v, &(sum, count)) in day.iter_mut().zip(&sums) {
                    if v.is_nan() && count > 0 {
                        *v = sum / count as f64;
                    }
                }
            }
            // Phases missing everywhere: fall back to linear.
            if has_gaps(values) {
                fill_linear(values)?;
            }
        }
    }
    Ok(gaps)
}

/// Errors with [`SeriesError::Empty`] when the slice holds no finite
/// value at all (nothing to interpolate from).
fn fill_linear(values: &mut [f64]) -> Result<(), SeriesError> {
    let mut rest = values;
    while let Some(gap) = rest.iter().position(|v| v.is_nan()) {
        // Past the first run `rest` starts on the previous run's right
        // neighbour, so only a leading run has nothing on its left.
        let (before, tail) = std::mem::take(&mut rest).split_at_mut(gap);
        let run = tail.iter().position(|v| !v.is_nan()).unwrap_or(tail.len());
        let (holes, after) = tail.split_at_mut(run);
        match (before.last().copied(), after.first().copied()) {
            (Some(l), Some(r)) => {
                let run = run as f64 + 1.0;
                for (k, v) in holes.iter_mut().enumerate() {
                    let frac = (k + 1) as f64 / run;
                    *v = l + (r - l) * frac;
                }
            }
            (Some(l), None) => holes.fill(l),
            (None, Some(r)) => holes.fill(r),
            (None, None) => return Err(SeriesError::Empty),
        }
        rest = after;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAN: f64 = f64::NAN;

    #[test]
    fn gap_detection() {
        assert_eq!(gap_count(&[1.0, NAN, 2.0, NAN]), 2);
        assert!(has_gaps(&[1.0, NAN]));
        assert!(!has_gaps(&[1.0, 2.0]));
    }

    #[test]
    fn linear_interpolates_interior_runs() {
        let mut v = vec![1.0, NAN, NAN, 4.0];
        assert_eq!(fill_gaps(&mut v, FillStrategy::Linear, 96).unwrap(), 2);
        assert!((v[1] - 2.0).abs() < 1e-12);
        assert!((v[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn linear_extends_edges() {
        let mut v = vec![NAN, NAN, 3.0, NAN];
        fill_gaps(&mut v, FillStrategy::Linear, 96).unwrap();
        assert_eq!(v, vec![3.0, 3.0, 3.0, 3.0]);
    }

    #[test]
    fn previous_carries_forward() {
        let mut v = vec![NAN, 2.0, NAN, NAN, 5.0, NAN];
        fill_gaps(&mut v, FillStrategy::Previous, 96).unwrap();
        assert_eq!(v, vec![2.0, 2.0, 2.0, 2.0, 5.0, 5.0]);
    }

    #[test]
    fn zero_fill_always_succeeds() {
        let mut v = vec![NAN, NAN];
        assert_eq!(fill_gaps(&mut v, FillStrategy::Zero, 96).unwrap(), 2);
        assert_eq!(v, vec![0.0, 0.0]);
    }

    #[test]
    fn all_nan_errors_for_anchored_strategies() {
        for s in [
            FillStrategy::Linear,
            FillStrategy::Previous,
            FillStrategy::SeasonalDaily,
        ] {
            let mut v = vec![NAN, NAN, NAN];
            assert_eq!(fill_gaps(&mut v, s, 96), Err(SeriesError::Empty));
        }
    }

    #[test]
    fn no_gaps_is_a_noop() {
        let mut v = vec![1.0, 2.0];
        assert_eq!(fill_gaps(&mut v, FillStrategy::Linear, 96).unwrap(), 0);
        assert_eq!(v, vec![1.0, 2.0]);
    }

    #[test]
    fn seasonal_fill_uses_same_phase_mean() {
        // Two "days" of period 4; phase 1 of day 2 is missing and should
        // take the phase-1 value from day 1 (the only finite sample).
        let mut v = vec![1.0, 10.0, 1.0, 1.0, 1.0, NAN, 1.0, 1.0];
        fill_gaps(&mut v, FillStrategy::SeasonalDaily, 4).unwrap();
        assert!((v[5] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn seasonal_fill_averages_multiple_days() {
        // Phase 0 samples: 2.0 and 4.0 → gap takes 3.0.
        let mut v = vec![2.0, 1.0, 4.0, 1.0, NAN, 1.0];
        fill_gaps(&mut v, FillStrategy::SeasonalDaily, 2).unwrap();
        assert!((v[4] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn seasonal_fill_falls_back_to_linear() {
        // Phase 1 is missing in every period → linear fallback kicks in.
        let mut v = vec![1.0, NAN, 3.0, NAN];
        fill_gaps(&mut v, FillStrategy::SeasonalDaily, 2).unwrap();
        assert!((v[1] - 2.0).abs() < 1e-12);
        assert!((v[3] - 3.0).abs() < 1e-12); // trailing edge-extend
    }

    #[test]
    fn previous_edge_behavior_is_backward_fill_at_the_leading_edge_only() {
        // Leading run: no previous value exists, so the *first finite*
        // value is used (documented backward fill at the edge).
        let mut v = vec![NAN, NAN, 7.0, 1.0];
        fill_gaps(&mut v, FillStrategy::Previous, 96).unwrap();
        assert_eq!(v, vec![7.0, 7.0, 7.0, 1.0]);
        // Trailing run: ordinary carry-forward of the last finite value.
        let mut v = vec![3.0, 9.0, NAN, NAN];
        fill_gaps(&mut v, FillStrategy::Previous, 96).unwrap();
        assert_eq!(v, vec![3.0, 9.0, 9.0, 9.0]);
    }

    #[test]
    fn linear_edge_behavior_is_nearest_finite_no_extrapolation() {
        // Leading run extends the first finite value backwards (no
        // slope extrapolation from the 4.0→8.0 ramp).
        let mut v = vec![NAN, NAN, 4.0, 8.0];
        fill_gaps(&mut v, FillStrategy::Linear, 96).unwrap();
        assert_eq!(v, vec![4.0, 4.0, 4.0, 8.0]);
        // Trailing run extends the last finite value forwards.
        let mut v = vec![4.0, 8.0, NAN, NAN];
        fill_gaps(&mut v, FillStrategy::Linear, 96).unwrap();
        assert_eq!(v, vec![4.0, 8.0, 8.0, 8.0]);
    }

    #[test]
    fn seasonal_edge_gaps_use_the_phase_mean_like_interior_ones() {
        // Phase 0 of the first period is missing, but phase 0 has a
        // finite sample in the second period — the edge gap takes the
        // phase mean, not a linear extension.
        let mut v = vec![NAN, 1.0, 6.0, 1.0];
        fill_gaps(&mut v, FillStrategy::SeasonalDaily, 2).unwrap();
        assert_eq!(v, vec![6.0, 1.0, 6.0, 1.0]);
    }

    #[test]
    fn fill_stays_within_the_documented_energy_bound() {
        for strategy in [
            FillStrategy::Linear,
            FillStrategy::Previous,
            FillStrategy::SeasonalDaily,
        ] {
            let mut v = vec![NAN, 2.0, NAN, NAN, 8.0, NAN, 5.0, NAN];
            let finite: Vec<f64> = v.iter().copied().filter(|x| !x.is_nan()).collect();
            let observed: f64 = finite.iter().sum();
            let (lo, hi) = (2.0, 8.0);
            let gaps = fill_gaps(&mut v, strategy, 4).unwrap();
            assert_eq!(gaps, 5);
            let total: f64 = v.iter().sum();
            assert!(
                total >= observed + gaps as f64 * lo - 1e-9
                    && total <= observed + gaps as f64 * hi + 1e-9,
                "{strategy:?}: total {total} outside bound"
            );
            // And every filled value individually sits in [min, max].
            assert!(
                v.iter().all(|&x| (lo..=hi).contains(&x)),
                "{strategy:?}: {v:?}"
            );
        }
        // Zero adds exactly nothing.
        let mut v = vec![NAN, 2.0, NAN, 8.0];
        fill_gaps(&mut v, FillStrategy::Zero, 4).unwrap();
        assert_eq!(v.iter().sum::<f64>(), 10.0);
    }
}
