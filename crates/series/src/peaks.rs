//! Consumption-peak detection — the engine of the paper's peak-based
//! extraction approach (§3.2, Figure 5).
//!
//! A *peak* is a maximal contiguous run of intervals whose energy is
//! strictly above a threshold. The paper draws the threshold as "the
//! average daily consumption … shown as a thick horizontal line"; the
//! [`PeakThreshold`] enum generalises this for the ablation study
//! (mean / median / quantile / absolute), defaulting to the paper's
//! choice.

use crate::{stats, SeriesError, TimeSeries};
use flextract_time::{Resolution, TimeRange, Timestamp};
use serde::{Deserialize, Serialize};

/// How the peak-detection threshold is derived from the analysed window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum PeakThreshold {
    /// The mean interval energy of the window — the paper's definition
    /// ("calculates the average daily consumption and considers only
    /// those peaks which have energy amount greater than average").
    #[default]
    Mean,
    /// The median interval energy; more robust to a single huge spike.
    Median,
    /// An arbitrary quantile of the interval energies (0 < q < 1).
    Quantile(f64),
    /// A fixed threshold in kWh per interval.
    Absolute(f64),
}

impl PeakThreshold {
    /// Resolve the threshold value for a window of interval energies.
    pub fn resolve(self, values: &[f64]) -> Result<f64, SeriesError> {
        match self {
            PeakThreshold::Mean => stats::mean(values).ok_or(SeriesError::Empty),
            PeakThreshold::Median => stats::median(values).ok_or(SeriesError::Empty),
            PeakThreshold::Quantile(q) => stats::quantile(values, q).ok_or(SeriesError::Empty),
            PeakThreshold::Absolute(v) => Ok(v),
        }
    }
}

/// A maximal run of intervals strictly above the detection threshold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Peak {
    /// Index of the first interval of the run (into the analysed window).
    pub start_index: usize,
    /// Number of intervals in the run.
    pub len: usize,
    /// Total energy of the run in kWh — the paper's "peak size".
    ///
    /// This is the sum of the full interval energies inside the run
    /// (matching Figure 5, where e.g. a single 0.47 kWh interval above
    /// the ~0.41 kWh average line is reported as "size = 0.47").
    pub energy_kwh: f64,
    /// The largest single interval energy inside the run.
    pub max_interval_kwh: f64,
    /// Time span of the run.
    pub range: TimeRange,
}

impl Peak {
    /// Index one past the last interval of the run.
    pub fn end_index(&self) -> usize {
        self.start_index + self.len
    }
}

/// Detect all peaks of `series` above `threshold`.
///
/// Returns the resolved threshold value alongside the peaks so callers
/// can report it (Figure 5 prints the average line).
pub fn detect_peaks(
    series: &TimeSeries,
    threshold: PeakThreshold,
) -> Result<(f64, Vec<Peak>), SeriesError> {
    if series.is_empty() {
        return Err(SeriesError::Empty);
    }
    let thr = threshold.resolve(series.values())?;
    let mut peaks = Vec::new();
    detect_peaks_into(
        series.values(),
        series.start(),
        series.resolution(),
        thr,
        &mut peaks,
    );
    Ok((thr, peaks))
}

/// The peaks [`detect_peaks`] finds above the resolved threshold `thr`,
/// over `values`, the intervals of a series that starts at `start` with
/// `resolution`, into a reusable buffer (cleared first). Allocates only
/// when `peaks` must grow.
pub fn detect_peaks_into(
    values: &[f64],
    start: Timestamp,
    resolution: Resolution,
    thr: f64,
    peaks: &mut Vec<Peak>,
) {
    peaks.clear();
    let at = |i: usize| start + resolution.interval() * i as i64;
    let mut run_start: Option<usize> = None;
    for i in 0..=values.len() {
        let above = i < values.len() && values[i] > thr;
        match (run_start, above) {
            (None, true) => run_start = Some(i),
            (Some(s), false) => {
                let window = &values[s..i];
                peaks.push(Peak {
                    start_index: s,
                    len: i - s,
                    energy_kwh: window.iter().sum(),
                    max_interval_kwh: stats::max(window).expect("run is non-empty"),
                    range: TimeRange::new(at(s), at(i)).expect("indices are ordered"),
                });
                run_start = None;
            }
            _ => {}
        }
    }
}

/// Retain only peaks with `energy_kwh >= min_energy` — the paper's
/// *peak filtering* phase ("discards some peaks, which have the total
/// energy amount smaller than the flexible part of the day").
pub fn filter_peaks(peaks: Vec<Peak>, min_energy: f64) -> Vec<Peak> {
    peaks
        .into_iter()
        .filter(|p| p.energy_kwh >= min_energy)
        .collect()
}

/// Selection probabilities proportional to peak size — the paper's
/// final phase ("remaining candidate peaks … are given probabilities of
/// being selected depending on their size").
///
/// Returns an empty vector when `peaks` is empty or total energy is not
/// positive.
pub fn selection_probabilities(peaks: &[Peak]) -> Vec<f64> {
    let mut probs = Vec::new();
    selection_probabilities_into(peaks.iter().map(|p| p.energy_kwh), &mut probs);
    probs
}

/// [`selection_probabilities`] for the peak sizes `sizes`, into a
/// reusable buffer (cleared first, left empty when the total is not
/// positive).
pub fn selection_probabilities_into(
    sizes: impl Iterator<Item = f64> + Clone,
    probs: &mut Vec<f64>,
) {
    probs.clear();
    let total: f64 = sizes.clone().sum();
    if total <= 0.0 {
        return;
    }
    probs.extend(sizes.map(|e| e / total));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    fn series(vals: Vec<f64>) -> TimeSeries {
        TimeSeries::new(ts("2013-03-18"), Resolution::MIN_15, vals).unwrap()
    }

    #[test]
    fn detects_runs_above_mean() {
        // Mean is 1.0; two runs above: [2.0] and [1.5, 3.0].
        let s = series(vec![0.0, 2.0, 0.0, 1.5, 3.0, 0.0, 0.5, 1.0]);
        let (thr, peaks) = detect_peaks(&s, PeakThreshold::Mean).unwrap();
        assert!((thr - 1.0).abs() < 1e-9);
        assert_eq!(peaks.len(), 2);
        assert_eq!(peaks[0].start_index, 1);
        assert_eq!(peaks[0].len, 1);
        assert!((peaks[0].energy_kwh - 2.0).abs() < 1e-9);
        assert_eq!(peaks[1].start_index, 3);
        assert_eq!(peaks[1].len, 2);
        assert!((peaks[1].energy_kwh - 4.5).abs() < 1e-9);
        assert!((peaks[1].max_interval_kwh - 3.0).abs() < 1e-9);
        assert_eq!(peaks[1].end_index(), 5);
    }

    #[test]
    fn threshold_is_strict() {
        // Values exactly at the threshold are NOT peaks.
        let s = series(vec![1.0, 1.0, 1.0, 1.0]);
        let (_, peaks) = detect_peaks(&s, PeakThreshold::Mean).unwrap();
        assert!(peaks.is_empty());
    }

    #[test]
    fn trailing_run_is_closed() {
        let s = series(vec![0.0, 0.0, 5.0, 6.0]);
        let (_, peaks) = detect_peaks(&s, PeakThreshold::Mean).unwrap();
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].start_index, 2);
        assert_eq!(peaks[0].len, 2);
    }

    #[test]
    fn peak_ranges_are_in_time() {
        let s = series(vec![0.0, 0.0, 0.0, 0.0, 9.0, 9.0, 0.0, 0.0]);
        let (_, peaks) = detect_peaks(&s, PeakThreshold::Mean).unwrap();
        assert_eq!(peaks[0].range.start(), ts("2013-03-18 01:00"));
        assert_eq!(peaks[0].range.end(), ts("2013-03-18 01:30"));
    }

    #[test]
    fn threshold_variants() {
        let vals = vec![0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 100.0];
        let s = series(vals.clone());
        // Mean is dragged to 12.5 by the outlier; median stays 0.
        let (thr_mean, _) = detect_peaks(&s, PeakThreshold::Mean).unwrap();
        assert!((thr_mean - 12.5).abs() < 1e-9);
        let (thr_med, peaks_med) = detect_peaks(&s, PeakThreshold::Median).unwrap();
        assert_eq!(thr_med, 0.0);
        assert_eq!(peaks_med.len(), 1); // only the outlier is above 0
        let (thr_q, _) = detect_peaks(&s, PeakThreshold::Quantile(1.0)).unwrap();
        assert!((thr_q - 100.0).abs() < 1e-9);
        let (thr_abs, peaks_abs) = detect_peaks(&s, PeakThreshold::Absolute(50.0)).unwrap();
        assert_eq!(thr_abs, 50.0);
        assert_eq!(peaks_abs.len(), 1);
        assert!(detect_peaks(&s, PeakThreshold::Quantile(2.0)).is_err());
    }

    #[test]
    fn empty_series_is_an_error() {
        let s = TimeSeries::new(ts("2013-03-18"), Resolution::MIN_15, vec![]).unwrap();
        assert_eq!(
            detect_peaks(&s, PeakThreshold::Mean),
            Err(SeriesError::Empty)
        );
    }

    #[test]
    fn filtering_drops_small_peaks() {
        let s = series(vec![0.0, 2.0, 0.0, 1.5, 3.0, 0.0, 0.0, 0.0]);
        let (_, peaks) = detect_peaks(&s, PeakThreshold::Mean).unwrap();
        let kept = filter_peaks(peaks, 3.0);
        assert_eq!(kept.len(), 1);
        assert!((kept[0].energy_kwh - 4.5).abs() < 1e-9);
        // Threshold equal to size keeps the peak (>=).
        let s2 = series(vec![0.0, 2.0, 0.0, 0.0]);
        let (_, p2) = detect_peaks(&s2, PeakThreshold::Mean).unwrap();
        assert_eq!(filter_peaks(p2, 2.0).len(), 1);
    }

    #[test]
    fn probabilities_are_proportional() {
        let s = series(vec![0.0, 2.22, 0.0, 0.0, 5.47, 0.0, 0.0, 0.0]);
        let (_, peaks) = detect_peaks(&s, PeakThreshold::Mean).unwrap();
        let probs = selection_probabilities(&peaks);
        assert_eq!(probs.len(), 2);
        // The Figure-5 numbers: 29 % and 71 % after rounding.
        assert_eq!((probs[0] * 100.0).round() as i32, 29);
        assert_eq!((probs[1] * 100.0).round() as i32, 71);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(selection_probabilities(&[]).is_empty());
    }

    #[test]
    fn detect_peaks_into_clears_its_buffer() {
        let s = series(vec![0.0, 2.0, 0.0, 1.5, 3.0, 0.0, 0.5, 1.0]);
        let (_, want) = detect_peaks(&s, PeakThreshold::Absolute(1.0)).unwrap();
        let mut buffer = want.clone();
        detect_peaks_into(s.values(), s.start(), s.resolution(), 1.0, &mut buffer);
        assert_eq!(buffer, want);
    }
}
