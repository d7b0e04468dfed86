//! Rolling-baseline anomaly detection: the cleaning stage's screen.
//!
//! The related work the paper builds on includes "time series data
//! mining techniques, which stress … anomaly detection" (§5, ref \[13\]).
//! Here a metered interval is anomalous when it leaves the band of a
//! trailing median ± z × trailing std, and runs of such intervals are
//! masked back into gaps ([`mask_anomalies`]) for the gap fill to
//! replace.

use crate::{rolling, TimeSeries};
use flextract_time::{Resolution, Timestamp};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Direction of a detected deviation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AnomalyDirection {
    /// Consumption above expectation.
    High,
    /// Consumption below expectation.
    Low,
}

/// One contiguous anomalous run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Anomaly {
    /// First anomalous interval.
    pub start: Timestamp,
    /// Number of consecutive anomalous intervals.
    pub intervals: usize,
    /// Above or below expectation.
    pub direction: AnomalyDirection,
    /// Total signed deviation energy over the run (kWh; negative for
    /// [`AnomalyDirection::Low`]).
    pub deviation_kwh: f64,
    /// Peak |z|-score within the run.
    pub max_z: f64,
}

/// Detect runs deviating from a *rolling* baseline: trailing median ±
/// `z_threshold` × trailing std over `window` intervals. Works on any
/// series length; the leading `window` intervals are never flagged (the
/// baseline is still warming up).
///
/// Interval `i` is judged against the window `i - window .. i`. One pass
/// streams [`rolling::full_window_medians`] (no warm-up window is ever
/// built), the std's sums as [`rolling::rolling_std`] runs them, and
/// the runs. The std is only taken for an interval more than
/// `noise_floor_kwh` from its median, which is exact: the band
/// `(z · std).max(floor)` is never below the floor, and a `NaN` floor
/// fails the test, so every interval it skips is unflagged.
pub fn rolling_anomalies(
    series: &TimeSeries,
    window: usize,
    z_threshold: f64,
    noise_floor_kwh: f64,
) -> Vec<Anomaly> {
    let xs = series.values();
    let Some((_, history)) = xs.split_last().filter(|_| xs.len() > window) else {
        return Vec::new();
    };
    let (n, head) = (window as f64, window.saturating_sub(1));
    let primer = xs.iter().take(head);
    let (mut sum, mut sum_sq) = primer.fold((0.0, 0.0), |(s, q), &x| (s + x, q + x * x));
    // The window ending at `k` takes in sample `k`, drops `k - window`
    // (nothing on the first step) and judges sample `k + 1`.
    let leaving = std::iter::once(None).chain(xs.iter().map(Some));
    let judged = xs.iter().enumerate().skip(window);
    let mut steps = xs.iter().skip(head).zip(leaving).zip(judged);
    let mut found: Vec<Anomaly> = Vec::new();
    // Whether the last run reaches the last judged interval.
    let mut open = false;
    rolling::full_window_medians(history, window, |median| {
        let Some(((&came, gone), (i, &x))) = steps.next() else {
            return;
        };
        sum += came;
        sum_sq += came * came;
        if let Some(&y) = gone {
            sum -= y;
            sum_sq -= y * y;
        }
        // A value outside `median ± band` extends the last run when that
        // run is open and keeps its direction, or starts a run. A median
        // that overflowed to ±∞ is no expectation at all.
        let diff = x - median;
        let verdict = if diff.abs() <= noise_floor_kwh || !median.is_finite() {
            None
        } else {
            let mean = sum / n;
            let std = (sum_sq / n - mean * mean).max(0.0).sqrt();
            let band = (z_threshold * std).max(noise_floor_kwh);
            if diff > band {
                Some((AnomalyDirection::High, diff / band.max(1e-12)))
            } else if diff < -band {
                Some((AnomalyDirection::Low, -diff / band.max(1e-12)))
            } else {
                None
            }
        };
        let extends = std::mem::replace(&mut open, verdict.is_some());
        let Some((direction, z)) = verdict else {
            return;
        };
        match found.last_mut() {
            Some(run) if extends && run.direction == direction => {
                run.intervals += 1;
                run.deviation_kwh += diff;
                run.max_z = run.max_z.max(z);
            }
            _ => found.push(Anomaly {
                start: series.timestamp_of(i),
                intervals: 1,
                direction,
                deviation_kwh: diff,
                max_z: z,
            }),
        }
    });
    found
}

/// The index range each anomaly covers in a series of `len` intervals
/// starting at `start` with `resolution`, clipped to the series.
/// Anomalies starting off-grid are skipped; runs entirely outside the
/// span yield empty ranges.
pub fn anomaly_spans<'a>(
    anomalies: &'a [Anomaly],
    start: Timestamp,
    resolution: Resolution,
    len: usize,
) -> impl Iterator<Item = Range<usize>> + 'a {
    let res_min = resolution.minutes();
    let len = len as i64;
    anomalies.iter().filter_map(move |a| {
        let offset_min = (a.start - start).as_minutes();
        if offset_min.rem_euclid(res_min) != 0 {
            return None;
        }
        let idx = offset_min.div_euclid(res_min);
        let begin = idx.clamp(0, len);
        let end = idx.saturating_add(a.intervals as i64).clamp(begin, len);
        Some(begin as usize..end as usize)
    })
}

/// Replace every interval covered by `anomalies` with `NaN`, in place:
/// `values` are the values of a series starting at `start` with
/// `resolution`. This is the hand-off from detection to the gap-fill
/// machinery ([`crate::missing`]). Screening an anomaly means treating
/// it as if the meter had not reported at all: the masked intervals
/// become gaps and are re-filled from the surrounding signal, which is
/// how the dataset ingestion pipeline neutralises spikes and dropouts.
///
/// Anomalies entirely outside the series span (or starting off-grid)
/// are ignored; runs overhanging either end are clipped to the overlap
/// (see [`anomaly_spans`]).
pub fn mask_anomalies(
    values: &mut [f64],
    start: Timestamp,
    resolution: Resolution,
    anomalies: &[Anomaly],
) {
    for span in anomaly_spans(anomalies, start, resolution, values.len()) {
        if let Some(run) = values.get_mut(span) {
            run.fill(f64::NAN);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextract_time::Resolution;

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    /// Seven identical flat days, then one day with a block anomaly.
    fn series_with_block() -> TimeSeries {
        let mut values = vec![0.5; 8 * 96];
        for v in values.iter_mut().skip(7 * 96 + 40).take(4) {
            *v = 1.5;
        }
        TimeSeries::new(ts("2013-03-18"), Resolution::MIN_15, values).unwrap()
    }

    #[test]
    fn low_anomalies_are_signed_negative() {
        let mut values = vec![0.5; 8 * 96];
        for v in values.iter_mut().skip(7 * 96 + 20).take(3) {
            *v = 0.0;
        }
        let s = TimeSeries::new(ts("2013-03-18"), Resolution::MIN_15, values).unwrap();
        let anomalies = rolling_anomalies(&s, 96, 2.0, 0.05);
        assert_eq!(anomalies.len(), 1, "{anomalies:?}");
        assert_eq!(anomalies[0].direction, AnomalyDirection::Low);
        assert_eq!(anomalies[0].intervals, 3);
        assert!(anomalies[0].deviation_kwh < -1.0);
    }

    #[test]
    fn rolling_detector_flags_steps_not_baseline() {
        // Flat 0.2, one spike of 2 intervals.
        let mut values = vec![0.2; 200];
        values[150] = 2.0;
        values[151] = 2.0;
        let s = TimeSeries::new(ts("2013-03-18"), Resolution::MIN_15, values).unwrap();
        let anomalies = rolling_anomalies(&s, 24, 3.0, 0.05);
        assert_eq!(anomalies.len(), 1, "{anomalies:?}");
        assert_eq!(anomalies[0].direction, AnomalyDirection::High);
        assert_eq!(anomalies[0].intervals, 2);
        assert_eq!(s.index_of(anomalies[0].start), Some(150));
    }

    #[test]
    fn rolling_detector_skips_warmup() {
        // A spike inside the warm-up window is not judged.
        let mut values = vec![0.2; 100];
        values[5] = 5.0;
        let s = TimeSeries::new(ts("2013-03-18"), Resolution::MIN_15, values).unwrap();
        let anomalies = rolling_anomalies(&s, 24, 3.0, 0.05);
        assert!(anomalies.iter().all(|a| s.index_of(a.start).unwrap() >= 24));
    }

    #[test]
    fn short_series_yield_nothing_or_error() {
        let s = TimeSeries::new(ts("2013-03-18"), Resolution::MIN_15, vec![0.5; 10]).unwrap();
        assert!(rolling_anomalies(&s, 24, 3.0, 0.05).is_empty());
        assert!(rolling_anomalies(&s, 10, 3.0, 0.05).is_empty());
    }

    fn mask_copy(s: &TimeSeries, anomalies: &[Anomaly]) -> Vec<f64> {
        let mut values = s.values().to_vec();
        mask_anomalies(&mut values, s.start(), s.resolution(), anomalies);
        values
    }

    #[test]
    fn mask_anomalies_turns_runs_into_gaps() {
        let s = series_with_block();
        let anomalies = rolling_anomalies(&s, 96, 2.0, 0.05);
        let masked = mask_copy(&s, &anomalies);
        let nan_count = masked.iter().filter(|v| v.is_nan()).count();
        assert_eq!(nan_count, 4, "exactly the planted block is masked");
        for (i, v) in masked.iter().enumerate() {
            if (7 * 96 + 40..7 * 96 + 44).contains(&i) {
                assert!(v.is_nan());
            } else {
                assert!(!v.is_nan());
            }
        }
        // A run extending past the end is clipped, one before the
        // start is ignored.
        let wild = vec![
            Anomaly {
                start: ts("2013-03-25 23:45"),
                intervals: 10,
                direction: AnomalyDirection::High,
                deviation_kwh: 1.0,
                max_z: 2.0,
            },
            Anomaly {
                start: ts("2013-03-01"),
                intervals: 3,
                direction: AnomalyDirection::Low,
                deviation_kwh: -1.0,
                max_z: 2.0,
            },
        ];
        let masked = mask_copy(&s, &wild);
        assert_eq!(masked.iter().filter(|v| v.is_nan()).count(), 1);
        assert!(masked[8 * 96 - 1].is_nan());
        // A run overhanging the *start* is clipped symmetrically: the
        // in-span part is masked.
        let overhang = vec![Anomaly {
            start: ts("2013-03-17 23:45"),
            intervals: 3,
            direction: AnomalyDirection::High,
            deviation_kwh: 1.0,
            max_z: 2.0,
        }];
        let masked = mask_copy(&s, &overhang);
        assert!(masked[0].is_nan());
        assert!(masked[1].is_nan());
        assert_eq!(masked.iter().filter(|v| v.is_nan()).count(), 2);
    }

    #[test]
    fn noise_floor_suppresses_tiny_wiggles() {
        let mut values = vec![0.5; 6 * 96];
        values[300] = 0.52; // 0.02 above — inside a 0.05 floor
        let s = TimeSeries::new(ts("2013-03-18"), Resolution::MIN_15, values).unwrap();
        let anomalies = rolling_anomalies(&s, 96, 2.0, 0.05);
        assert!(anomalies.is_empty(), "{anomalies:?}");
    }
}
