//! The cleaning stage: measured series → extraction-ready series.
//!
//! Ingestion runs two deterministic repairs in a fixed order:
//!
//! 1. **Gap fill** — missing intervals are filled with the configured
//!    [`FillStrategy`] (see [`flextract_series::missing::fill_gaps`]
//!    for per-strategy edge behavior and the energy bound);
//! 2. **Anomaly screen** (optional) — runs deviating from a rolling
//!    baseline beyond a z-threshold are masked back into gaps
//!    ([`flextract_series::anomaly::mask_anomalies`]) and re-filled
//!    with the same strategy, so a stuck register or a spurious spike
//!    is replaced by plausible signal instead of poisoning extraction.
//!    Screening works in place on the filled series' own buffer: no
//!    copy of the series is made, only the screened intervals' detected
//!    values are kept to tally `screened_kwh`.
//!
//! Both repairs are pure functions of the input, so a cleaned dataset
//! consumer is as deterministic as a simulated one — which is what lets
//! dataset-backed scenarios live in the golden-file corpus.
//!
//! Cleaning is **chunk-windowed**: its input is a scan window
//! (typically the scenario horizon materialized through
//! [`crate::Dataset::consumer_in`], which assembles only the chunks
//! overlapping the window), never the whole stored series. For `n`
//! scanned intervals gap-fill costs `O(n)`. The rolling-z screen hashes
//! the `n` readings once, `O(n)`, and sorts only the `d` distinct ones,
//! `O(d·log d)`. Each step then moves a cursor over those distinct
//! readings, ~130 in a 1-min week on a metering register's grid, so it
//! mostly stays put. The screen streams median, std and runs in one
//! pass and allocates no horizon-length buffer of `f64`s. Its hash
//! table and per-reading ranks are per-thread scratch that is reused
//! across consumers.

use crate::{DatasetError, MeasuredSeries};
use flextract_series::{anomaly, missing, FillStrategy, TimeSeries};
use serde::{Deserialize, Serialize};

/// Configuration of the cleaning stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CleaningConfig {
    /// Gap-fill strategy (also used to re-fill screened anomalies).
    pub fill: FillStrategy,
    /// Whether to run the anomaly screen after gap filling.
    pub screen_anomalies: bool,
    /// Rolling-baseline window for the anomaly screen, in intervals;
    /// `0` means one day at the series resolution.
    pub anomaly_window: usize,
    /// z-threshold for the anomaly screen (deviations beyond
    /// `z · rolling std` are screened).
    pub anomaly_z: f64,
    /// Absolute deviation floor (kWh) below which nothing is screened,
    /// whatever the z-score — keeps flat series from flagging noise.
    pub noise_floor_kwh: f64,
}

impl Default for CleaningConfig {
    fn default() -> Self {
        CleaningConfig {
            fill: FillStrategy::Linear,
            screen_anomalies: false,
            anomaly_window: 0,
            anomaly_z: 4.0,
            noise_floor_kwh: 0.05,
        }
    }
}

impl CleaningConfig {
    /// Check every field's domain.
    pub fn validate(&self) -> Result<(), String> {
        if !self.anomaly_z.is_finite() || self.anomaly_z <= 0.0 {
            return Err("anomaly_z must be finite and positive".into());
        }
        if !self.noise_floor_kwh.is_finite() || self.noise_floor_kwh < 0.0 {
            return Err("noise_floor_kwh must be finite and non-negative".into());
        }
        Ok(())
    }
}

/// What the cleaning stage repaired, for one consumer.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CleaningReport {
    /// Missing intervals filled by the gap-fill pass.
    pub gaps_filled: usize,
    /// Anomalous runs screened (0 when screening is off).
    pub anomalies_screened: usize,
    /// Intervals covered by those runs.
    pub anomalous_intervals: usize,
    /// Total absolute energy adjustment of the screen (kWh): how much
    /// the screened intervals changed between detection and re-fill.
    pub screened_kwh: f64,
}

impl CleaningReport {
    /// Merge another consumer's report into this fleet-level tally.
    pub fn absorb(&mut self, other: &CleaningReport) {
        self.gaps_filled += other.gaps_filled;
        self.anomalies_screened += other.anomalies_screened;
        self.anomalous_intervals += other.anomalous_intervals;
        self.screened_kwh += other.screened_kwh;
    }
}

/// Run the cleaning stage on one measured series.
///
/// Returns the extraction-ready series and the repair tally. Errors if
/// the series is all-gaps under a non-[`FillStrategy::Zero`] strategy
/// (nothing to anchor a fill), or if the config is out of domain.
pub fn clean(
    measured: MeasuredSeries,
    cfg: &CleaningConfig,
) -> Result<(TimeSeries, CleaningReport), DatasetError> {
    cfg.validate().map_err(|what| DatasetError::Invalid {
        file: "<cleaning>".to_string(),
        what,
    })?;
    let mut report = CleaningReport::default();
    let (mut series, gaps_filled) = measured.fill(cfg.fill)?;
    report.gaps_filled = gaps_filled;
    if cfg.screen_anomalies && !series.is_empty() {
        let window = if cfg.anomaly_window == 0 {
            series.resolution().intervals_per_day()
        } else {
            cfg.anomaly_window
        };
        let anomalies =
            anomaly::rolling_anomalies(&series, window, cfg.anomaly_z, cfg.noise_floor_kwh);
        if !anomalies.is_empty() {
            report.anomalies_screened = anomalies.len();
            report.anomalous_intervals = anomalies.iter().map(|a| a.intervals).sum();
            let (start, resolution) = (series.start(), series.resolution());
            let mut values = series.into_values();
            // The screen's runs are disjoint and ascending, so their
            // spans visit the screened intervals once, in index order.
            let spans: Vec<_> =
                anomaly::anomaly_spans(&anomalies, start, resolution, values.len()).collect();
            let detected: Vec<f64> = spans
                .iter()
                .filter_map(|span| values.get(span.clone()))
                .flatten()
                .copied()
                .collect();
            anomaly::mask_anomalies(&mut values, start, resolution, &anomalies);
            missing::fill_gaps(&mut values, cfg.fill, resolution.intervals_per_day())?;
            // Unscreened intervals would each add |v - v| = +0.0, so the
            // sum over the screened ones alone has the same bits.
            report.screened_kwh = spans
                .iter()
                .filter_map(|span| values.get(span.clone()))
                .flatten()
                .zip(&detected)
                .map(|(a, b)| (a - b).abs())
                .sum();
            series = TimeSeries::new(start, resolution, values)?;
        }
    }
    Ok((series, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextract_time::{Resolution, Timestamp};

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    fn measured(values: Vec<f64>) -> MeasuredSeries {
        MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_15, values).unwrap()
    }

    #[test]
    fn clean_fills_gaps_and_reports_them() {
        let m = measured(vec![1.0, f64::NAN, 3.0, f64::NAN, 5.0]);
        let (series, report) = clean(m, &CleaningConfig::default()).unwrap();
        assert_eq!(report.gaps_filled, 2);
        assert_eq!(report.anomalies_screened, 0);
        assert_eq!(series.values(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn screen_neutralises_a_spike() {
        // Flat 0.5 with one 2-interval spike far from the warm-up.
        let mut values = vec![0.5; 300];
        values[200] = 6.0;
        values[201] = 6.0;
        let cfg = CleaningConfig {
            screen_anomalies: true,
            anomaly_window: 24,
            anomaly_z: 3.0,
            ..CleaningConfig::default()
        };
        let (series, report) = clean(measured(values), &cfg).unwrap();
        assert_eq!(report.anomalies_screened, 1);
        assert_eq!(report.anomalous_intervals, 2);
        assert!(report.screened_kwh > 10.0, "{}", report.screened_kwh);
        assert!((series.values()[200] - 0.5).abs() < 1e-9);
        assert!((series.values()[201] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn screening_off_leaves_spikes_alone() {
        let mut values = vec![0.5; 300];
        values[200] = 6.0;
        let (series, report) = clean(measured(values), &CleaningConfig::default()).unwrap();
        assert_eq!(report.anomalies_screened, 0);
        assert_eq!(series.values()[200], 6.0);
    }

    #[test]
    fn all_gap_series_errors_except_zero_fill() {
        let m = measured(vec![f64::NAN; 8]);
        assert!(clean(m.clone(), &CleaningConfig::default()).is_err());
        let cfg = CleaningConfig {
            fill: FillStrategy::Zero,
            ..CleaningConfig::default()
        };
        let (series, report) = clean(m, &cfg).unwrap();
        assert_eq!(report.gaps_filled, 8);
        assert_eq!(series.total_energy(), 0.0);
    }

    #[test]
    fn config_domains_are_validated() {
        for cfg in [
            CleaningConfig {
                anomaly_z: 0.0,
                ..CleaningConfig::default()
            },
            CleaningConfig {
                noise_floor_kwh: -1.0,
                ..CleaningConfig::default()
            },
        ] {
            assert!(cfg.validate().is_err());
            assert!(clean(measured(vec![1.0, 2.0]), &cfg).is_err());
        }
    }

    #[test]
    fn cleaning_report_absorbs() {
        let mut fleet = CleaningReport::default();
        fleet.absorb(&CleaningReport {
            gaps_filled: 3,
            anomalies_screened: 1,
            anomalous_intervals: 2,
            screened_kwh: 1.5,
        });
        fleet.absorb(&CleaningReport {
            gaps_filled: 1,
            anomalies_screened: 0,
            anomalous_intervals: 0,
            screened_kwh: 0.0,
        });
        assert_eq!(fleet.gaps_filled, 4);
        assert_eq!(fleet.anomalies_screened, 1);
        assert_eq!(fleet.anomalous_intervals, 2);
        assert!((fleet.screened_kwh - 1.5).abs() < 1e-12);
    }
}
