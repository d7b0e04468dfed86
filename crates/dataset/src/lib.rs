//! # flextract-dataset
//!
//! Metered-series ingestion for the flextract pipeline: a chunked,
//! memory-light columnar store for measured consumer series, the
//! degradation operators that turn simulated fleets into realistic
//! metered feeds, and the cleaning stage that makes measured data
//! extractable again.
//!
//! The paper's premise is extracting flexibilities **from electricity
//! time series** — recorded meter data — but real meter feeds are not
//! the pristine series a simulator emits: they arrive at coarse
//! granularity (the paper's own "only 15 min" caveat, §4), with holes
//! from meter and transmission outages, with spurious spikes, and with
//! measurement noise. This crate models that reality explicitly:
//!
//! * [`MeasuredSeries`] — a raw metered series in which gaps are
//!   first-class (`NaN` intervals), unlike
//!   [`TimeSeries`](flextract_series::TimeSeries) whose invariant is
//!   all-finite values (re-exported from
//!   [`flextract_frame`], which owns the columnar substrate);
//! * [`codec`] — the one series-file codec: the chunked binary formats
//!   (compressed `FXM3`, stat-carrying `FXM2`, legacy `FXM1`) delegated
//!   to [`flextract_frame::fxm`], and the `interval_start,kwh` CSV
//!   format (an empty `kwh` field is a gap), all loss-free, written
//!   through one `encode(series, codec)` entry point;
//! * [`degrade`] — seeded, deterministic degradation operators
//!   (downsampling, measurement noise, anomaly spikes, gap injection)
//!   applied when a simulated fleet is exported to the metered format;
//! * [`ingest`] — the cleaning stage: gap-fill then anomaly-screen,
//!   producing an extraction-ready `TimeSeries` plus a
//!   [`CleaningReport`] of what was repaired;
//! * [`store`] — the on-disk dataset: one `manifest.json` naming the
//!   fleet plus one series file per consumer (and, for exported
//!   datasets, the simulator ground truth), loadable consumer by
//!   consumer — wholly, or as **ranged reads** that decode only the
//!   chunks overlapping a time slice, or as streamed chunk-stat
//!   aggregates that may touch no payload at all;
//! * [`resident`] — the warm-path layer: a thread-safe
//!   [`ResidentStore`] handle that parses indexes once, caches decoded
//!   frames and chunk payloads under byte budgets, and invalidates by
//!   generation at the store's rename-commit point.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod degrade;
pub mod ingest;
pub mod resident;
pub mod sharded;
pub mod store;

pub use degrade::Degradation;
pub use flextract_frame::{
    Aggregates, ChunkCache, ChunkStats, Frame, FrameError, MeasuredSeries, Predicate, Scan,
    ScanReport,
};
pub use ingest::{CleaningConfig, CleaningReport};
pub use resident::{CacheStats, ResidentConfig, ResidentStore};
pub use sharded::{
    compact, CompactionSummary, RootIndex, ShardSummary, ShardedWriter, DEFAULT_SHARD_CAPACITY,
    ROOT_FILE, SHARDS_DIR,
};
pub use store::{
    ConsumerEntry, ConsumerKind, Dataset, DatasetRecord, DatasetWriter, Manifest, SeriesCodec,
    MANIFEST_FILE,
};

use flextract_series::SeriesError;

/// Errors surfaced by dataset reading, writing, and cleaning.
///
/// Wherever a failure originates in a file, the error names the file —
/// and for row-shaped formats also the row and column — so a user can
/// fix the offending line rather than guess.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetError {
    /// A file or directory could not be read or written.
    Io {
        /// The offending path.
        path: String,
        /// The underlying OS error.
        what: String,
    },
    /// `manifest.json` is missing, malformed, or inconsistent.
    Manifest {
        /// The manifest path.
        path: String,
        /// What is wrong with it.
        what: String,
    },
    /// A CSV series file has a malformed or misplaced row.
    Csv {
        /// The offending file.
        file: String,
        /// 1-based row number (counting every line, header included).
        row: usize,
        /// Which column is at fault (`interval_start` or `kwh`).
        column: &'static str,
        /// What is wrong with the value.
        what: String,
    },
    /// A binary series file failed to decode.
    Codec {
        /// The offending file.
        file: String,
        /// What is wrong with the buffer.
        what: String,
    },
    /// A series file decoded but violates the dataset's declared grid
    /// (start, resolution, interval count) or another invariant.
    Invalid {
        /// The offending file.
        file: String,
        /// Which invariant is violated.
        what: String,
    },
    /// A consumer index outside the dataset's consumer directory.
    OutOfRange {
        /// The requested index.
        index: usize,
        /// Number of consumers in the dataset.
        len: usize,
        /// The dataset directory, so the message names which store was
        /// addressed.
        dir: String,
    },
    /// A manifest entry references a series file that no longer exists
    /// on disk (renamed or deleted since export).
    MissingSeriesFile {
        /// The consumer id whose entry references the file.
        consumer: String,
        /// The expected path of the missing file.
        path: String,
    },
    /// A series-level operation failed during cleaning or degradation.
    Series(SeriesError),
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::Io { path, what } => write!(f, "cannot access {path}: {what}"),
            DatasetError::Manifest { path, what } => {
                write!(f, "invalid dataset manifest {path}: {what}")
            }
            DatasetError::Csv {
                file,
                row,
                column,
                what,
            } => write!(f, "{file}: row {row}, column `{column}`: {what}"),
            DatasetError::Codec { file, what } => write!(f, "{file}: codec error: {what}"),
            DatasetError::Invalid { file, what } => write!(f, "{file}: {what}"),
            DatasetError::OutOfRange { index, len, dir } => {
                write!(
                    f,
                    "consumer index {index} out of range for dataset {dir} \
                     (valid range 0..{len})"
                )
            }
            DatasetError::MissingSeriesFile { consumer, path } => {
                write!(
                    f,
                    "consumer `{consumer}` references missing series file {path} \
                     (renamed or deleted since export?)"
                )
            }
            DatasetError::Series(e) => write!(f, "series error: {e}"),
        }
    }
}

impl std::error::Error for DatasetError {}

impl From<SeriesError> for DatasetError {
    fn from(e: SeriesError) -> Self {
        DatasetError::Series(e)
    }
}

impl From<FrameError> for DatasetError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Codec { file, what } => DatasetError::Codec { file, what },
            // The typed trailing-bytes error keeps its offset in the
            // message; frame-level callers can still match the typed
            // variant directly.
            FrameError::TrailingBytes {
                file,
                offset,
                trailing,
            } => DatasetError::Codec {
                file,
                what: format!(
                    "{trailing} trailing byte(s) after the final chunk at byte offset {offset}"
                ),
            },
            FrameError::ShortRead {
                file,
                offset,
                needed,
                len,
            } => DatasetError::Codec {
                file,
                what: format!(
                    "need {needed} byte(s) at byte offset {offset}, but the buffer ends at {len}"
                ),
            },
            FrameError::ZeroChunkLen => DatasetError::Invalid {
                file: "<encode>".to_string(),
                what: "chunk length must be at least 1 (got 0)".to_string(),
            },
            FrameError::Scan { what } => DatasetError::Invalid {
                file: "<scan>".to_string(),
                what,
            },
            FrameError::Series(e) => DatasetError::Series(e),
        }
    }
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn error_display_names_file_row_and_column() {
        let e = DatasetError::Csv {
            file: "datasets/x/consumer_0.csv".into(),
            row: 17,
            column: "kwh",
            what: "not a number: `abc`".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("consumer_0.csv"), "{msg}");
        assert!(msg.contains("row 17"), "{msg}");
        assert!(msg.contains("`kwh`"), "{msg}");
        assert!(msg.contains("abc"), "{msg}");

        let e = DatasetError::OutOfRange {
            index: 9,
            len: 3,
            dir: "datasets/x".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("index 9"), "{msg}");
        assert!(msg.contains("0..3"), "{msg}");
        assert!(msg.contains("datasets/x"), "{msg}");

        let e = DatasetError::MissingSeriesFile {
            consumer: "7".into(),
            path: "datasets/x/consumer_7.fxm".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("`7`"), "{msg}");
        assert!(msg.contains("consumer_7.fxm"), "{msg}");

        let e: DatasetError = SeriesError::Empty.into();
        assert!(e.to_string().contains("series"));
    }
}
