//! Extrinsic accuracy against simulated ground truth.
//!
//! The simulator records every shiftable appliance cycle it placed
//! (`flextract_sim::Activation`), so the *true flexible load* is a
//! known series. An extraction is scored by interval-level energy
//! overlap: of the energy the extractor called flexible, how much
//! really was (precision); of the truly flexible energy, how much was
//! captured (recall).

use flextract_series::TimeSeries;
use serde::{Deserialize, Serialize};

/// Interval-level energy precision/recall of an extraction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GroundTruthScore {
    /// Overlap energy ÷ extracted energy.
    pub precision: f64,
    /// Overlap energy ÷ true flexible energy.
    pub recall: f64,
    /// Total extracted energy (kWh).
    pub extracted_kwh: f64,
    /// Total true flexible energy (kWh).
    pub truth_kwh: f64,
    /// Energy counted as correct: `Σ min(extracted_i, truth_i)`.
    pub overlap_kwh: f64,
}

impl GroundTruthScore {
    /// Score `extracted` against the ground-truth `truth` series.
    ///
    /// Both must live on the same grid (resample first if needed);
    /// intervals present in only one series count as zero on the other
    /// side.
    pub fn score(extracted: &TimeSeries, truth: &TimeSeries) -> Self {
        let mut overlap = 0.0;
        for (t, e) in extracted.iter() {
            let tr = truth.value_at(t).unwrap_or(0.0);
            overlap += e.min(tr).max(0.0);
        }
        let extracted_kwh = extracted.total_energy();
        let truth_kwh = truth.total_energy();
        GroundTruthScore {
            precision: if extracted_kwh > 0.0 {
                overlap / extracted_kwh
            } else {
                0.0
            },
            recall: if truth_kwh > 0.0 {
                overlap / truth_kwh
            } else {
                0.0
            },
            extracted_kwh,
            truth_kwh,
            overlap_kwh: overlap,
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision;
        let r = self.recall;
        if p + r <= 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

impl std::fmt::Display for GroundTruthScore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "P {:.2} / R {:.2} / F1 {:.2} ({:.1} of {:.1} kWh)",
            self.precision,
            self.recall,
            self.f1(),
            self.overlap_kwh,
            self.truth_kwh
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextract_time::{Resolution, Timestamp};

    fn series(vals: Vec<f64>) -> TimeSeries {
        TimeSeries::new(
            "2013-03-18".parse::<Timestamp>().unwrap(),
            Resolution::MIN_15,
            vals,
        )
        .unwrap()
    }

    #[test]
    fn perfect_extraction_scores_one() {
        let truth = series(vec![0.0, 1.0, 2.0, 0.0]);
        let s = GroundTruthScore::score(&truth, &truth);
        assert!((s.precision - 1.0).abs() < 1e-12);
        assert!((s.recall - 1.0).abs() < 1e-12);
        assert!((s.f1() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_extraction_scores_zero() {
        let truth = series(vec![0.0, 1.0, 0.0, 0.0]);
        let wrong = series(vec![1.0, 0.0, 0.0, 0.0]);
        let s = GroundTruthScore::score(&wrong, &truth);
        assert_eq!(s.precision, 0.0);
        assert_eq!(s.recall, 0.0);
        assert_eq!(s.f1(), 0.0);
    }

    #[test]
    fn partial_overlap() {
        let truth = series(vec![1.0, 1.0, 0.0, 0.0]);
        let got = series(vec![0.5, 1.0, 0.5, 0.0]);
        let s = GroundTruthScore::score(&got, &truth);
        // Overlap = 0.5 + 1.0 = 1.5; extracted = 2.0; truth = 2.0.
        assert!((s.overlap_kwh - 1.5).abs() < 1e-12);
        assert!((s.precision - 0.75).abs() < 1e-12);
        assert!((s.recall - 0.75).abs() < 1e-12);
    }

    #[test]
    fn grid_mismatch_counts_missing_as_zero() {
        let truth = series(vec![1.0; 4]);
        let shifted = TimeSeries::new(
            "2013-03-18 01:00".parse::<Timestamp>().unwrap(),
            Resolution::MIN_15,
            vec![1.0; 4],
        )
        .unwrap();
        let s = GroundTruthScore::score(&shifted, &truth);
        assert_eq!(s.overlap_kwh, 0.0);
    }

    #[test]
    fn empty_series_yield_zero_not_nan() {
        let empty = series(vec![]);
        let truth = series(vec![1.0]);
        let s = GroundTruthScore::score(&empty, &truth);
        assert_eq!(s.precision, 0.0);
        assert_eq!(s.recall, 0.0);
        assert!(!s.f1().is_nan());
    }

    #[test]
    fn display_is_compact() {
        let truth = series(vec![1.0, 1.0]);
        let s = GroundTruthScore::score(&truth, &truth);
        let shown = s.to_string();
        assert!(shown.contains("P 1.00"));
        assert!(shown.contains("F1 1.00"));
    }
}
