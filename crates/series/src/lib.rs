//! # flextract-series
//!
//! Fixed-interval energy time-series engine for the `flextract`
//! workspace — the substrate every extraction approach in the paper
//! operates on.
//!
//! The central type is [`TimeSeries`]: a start instant, a
//! [`Resolution`](flextract_time::Resolution) and a dense vector of
//! energy values (kWh per interval). Around it the crate provides the
//! analytical toolkit the paper leans on but delegates to "general
//! analytical tools such as Matlab" (§5, ref \[11\]) — here everything is
//! implemented natively:
//!
//! * [`stats`] — descriptive statistics, Pearson correlation,
//!   autocorrelation, sparseness: exactly the measures the paper names
//!   when discussing how extracted flex-offers could be evaluated
//!   ("correlation, sparseness, autocorrelation", §3.1).
//! * [`decompose`] — classical trend/seasonal/remainder decomposition
//!   ("the time series is composed of the trend, seasonal, and error
//!   components", §5 ref \[12\]).
//! * [`peaks`] — contiguous-run peak detection with pluggable
//!   thresholds, the engine of the peak-based approach (§3.2, Fig. 5).
//! * [`segment`] — day segmentation and typical-day profiles, the
//!   engine of the multi-tariff approach's baseline estimation (§3.3).
//! * [`sax`] — SAX discretisation and motif discovery ("finding motifs
//!   in time series", §5 ref \[13\]), used by schedule mining.
//! * [`resample`] — exact down-sampling and uniform up-sampling between
//!   resolutions (ref \[14\] motivates reasoning across granularities).
//! * [`missing`] — gap handling: detection and fill strategies.
//!
//! ```
//! use flextract_series::TimeSeries;
//! use flextract_time::{Resolution, Timestamp};
//!
//! // One day of 15-min consumption, 0.4 kWh per interval.
//! let day = TimeSeries::constant(
//!     Timestamp::from_ymd_hm(2013, 3, 18, 0, 0).unwrap(),
//!     Resolution::MIN_15,
//!     0.4,
//!     96,
//! );
//! assert!((day.total_energy() - 38.4).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anomaly;
pub mod decompose;
pub mod forecast;
pub mod missing;
pub mod peaks;
pub mod resample;
pub mod rolling;
pub mod sax;
pub mod segment;
mod series;
pub mod stats;

pub use missing::FillStrategy;
pub use peaks::{Peak, PeakThreshold};
pub use series::TimeSeries;

/// Errors produced by series construction and algebra.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesError {
    /// Two series were combined that do not share a resolution.
    ResolutionMismatch {
        /// Resolution of the left operand.
        left: flextract_time::Resolution,
        /// Resolution of the right operand.
        right: flextract_time::Resolution,
    },
    /// Two series were combined whose interval grids are not aligned
    /// (different phase or start).
    AlignmentMismatch,
    /// Two equal-length series were required.
    LengthMismatch {
        /// Length of the left operand.
        left: usize,
        /// Length of the right operand.
        right: usize,
    },
    /// A resample needed the series length to be a whole multiple of
    /// the fine-intervals-per-coarse-interval chunk, and it was not.
    RaggedLength {
        /// Actual (fine) series length.
        len: usize,
        /// Required multiple: fine intervals per coarse interval.
        chunk: usize,
    },
    /// An operation needed more data than the series holds.
    TooShort {
        /// Actual series length.
        len: usize,
        /// Minimum required length.
        required: usize,
    },
    /// A non-finite value (NaN or ±∞) was handed to a constructor at
    /// the given index; [`TimeSeries`] guarantees all-finite values.
    NonFinite {
        /// Index of the first offending value.
        index: usize,
    },
    /// A timestamp or index fell outside the series span.
    OutOfRange,
    /// An operation that requires data was applied to an empty series.
    Empty,
    /// The start timestamp is not aligned to the resolution grid.
    UnalignedStart,
    /// An operation needed a finer/coarser resolution relationship that
    /// does not hold (e.g. resampling 15 min → 10 min).
    IncompatibleResolution,
}

impl std::fmt::Display for SeriesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeriesError::ResolutionMismatch { left, right } => {
                write!(f, "resolution mismatch: {left} vs {right}")
            }
            SeriesError::AlignmentMismatch => write!(f, "series grids are not aligned"),
            SeriesError::LengthMismatch { left, right } => {
                write!(f, "length mismatch: {left} vs {right}")
            }
            SeriesError::RaggedLength { len, chunk } => {
                write!(
                    f,
                    "series length {len} is not a whole multiple of {chunk} \
                     fine intervals per coarse interval \
                     (nearest whole length: {})",
                    (len / chunk) * chunk
                )
            }
            SeriesError::TooShort { len, required } => {
                write!(
                    f,
                    "series too short: {len} intervals, need at least {required}"
                )
            }
            SeriesError::NonFinite { index } => {
                write!(f, "non-finite value (NaN or ±∞) at index {index}")
            }
            SeriesError::OutOfRange => write!(f, "timestamp or index outside series span"),
            SeriesError::Empty => write!(f, "operation requires a non-empty series"),
            SeriesError::UnalignedStart => {
                write!(f, "series start is not aligned to the resolution grid")
            }
            SeriesError::IncompatibleResolution => {
                write!(f, "resolutions are not integer multiples of each other")
            }
        }
    }
}

impl std::error::Error for SeriesError {}

#[cfg(test)]
mod lib_tests {
    use super::*;
    use flextract_time::Resolution;

    #[test]
    fn error_display() {
        let e = SeriesError::ResolutionMismatch {
            left: Resolution::MIN_15,
            right: Resolution::HOUR_1,
        };
        assert!(e.to_string().contains("15min"));
        assert!(e.to_string().contains("1h"));
        assert!(SeriesError::Empty.to_string().contains("non-empty"));
        assert!(SeriesError::LengthMismatch { left: 3, right: 4 }
            .to_string()
            .contains('3'));
        // The ragged-resample message states fine length and required
        // multiple explicitly — it must not read like a two-series
        // length comparison.
        let ragged = SeriesError::RaggedLength { len: 5, chunk: 4 }.to_string();
        assert!(ragged.contains("length 5"), "{ragged}");
        assert!(ragged.contains("multiple of 4"), "{ragged}");
        assert!(ragged.contains("nearest whole length: 4"), "{ragged}");
        let short = SeriesError::TooShort {
            len: 5,
            required: 8,
        }
        .to_string();
        assert!(short.contains("5 intervals"), "{short}");
        assert!(short.contains("at least 8"), "{short}");
        assert!(SeriesError::NonFinite { index: 7 }
            .to_string()
            .contains('7'));
    }
}
