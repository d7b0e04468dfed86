//! The on-disk dataset: a root index over shards, each shard a
//! manifest plus one series file per consumer.
//!
//! A shard is a directory:
//!
//! ```text
//! <shard>/
//!   manifest.json          — shard metadata + consumer directory
//!   consumer_<id>.csv|.fxm — measured series, one file per consumer
//!   truth_<id>.csv|.fxm    — (exported datasets) undegraded total
//!   flex_<id>.csv|.fxm     — (exported datasets) true flexible series
//! ```
//!
//! A sharded store keeps its shards under `shards/NNNN/` and lists them
//! in `root.json` (see [`crate::sharded`]). A directory that is itself
//! a shard — one `manifest.json`, no `root.json` — opens as a store
//! with exactly one implicit shard, under a root index synthesized in
//! memory at open. Either way [`Dataset`] has one read path: route a
//! global consumer index through the root to a shard, then read there.
//!
//! Storage is columnar twice over: each consumer's series is its own
//! contiguous column file (loading consumer `i` touches
//! `O(intervals)` bytes regardless of fleet size), and each file is a
//! chunked [`Frame`] — FXM2/FXM3 files carry per-chunk statistics and a
//! footer index, so **ranged reads** ([`Dataset::consumer_in`],
//! [`Dataset::consumer_slice`]) decode only the chunks overlapping a
//! time slice and stat queries ([`Dataset::consumer_aggregates`]) may
//! decode no payload at all. The scenario runner's sharded workers
//! pull consumers by index concurrently through a shared [`Dataset`]
//! handle: loads take `&self`, and the only interior state is one
//! open-once slot per shard. Ground-truth files ride along only when
//! the dataset was exported from the simulator; real metered feeds
//! simply do not have them.

use crate::codec;
use crate::degrade::Degradation;
use crate::sharded::{RootIndex, ROOT_FILE};
use crate::{DatasetError, MeasuredSeries};
use flextract_frame::{Aggregates, Frame, Scan, ScanReport};
use flextract_time::{Resolution, TimeRange, Timestamp};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Current manifest format version.
pub const FORMAT_VERSION: u32 = 1;

/// The manifest file name inside a dataset directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// How the series files of a dataset are encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeriesCodec {
    /// `interval_start,kwh` text rows; an empty `kwh` field is a gap.
    Csv,
    /// The chunked `FXM2` binary format: per-chunk statistics plus a
    /// footer chunk index, enabling ranged reads and stat pushdown.
    Binary,
    /// The legacy chunked `FXM1` binary format (no statistics; readers
    /// fall back to full decodes). Readable everywhere — the read path
    /// sniffs the magic, so any binary flavour loads regardless of the
    /// manifest's declared codec. Only the library still writes it (to
    /// keep that read path tested and benchmarked); the CLI cannot.
    BinaryV1,
    /// The chunked `FXM3` binary format: the same per-chunk statistics
    /// and footer index as `FXM2`, with payloads XOR-compressed
    /// losslessly and gaps carried in a per-chunk bitmap. The export
    /// default.
    BinaryV3,
}

impl SeriesCodec {
    /// The file extension used by this codec.
    pub fn extension(self) -> &'static str {
        match self {
            SeriesCodec::Csv => "csv",
            SeriesCodec::Binary | SeriesCodec::BinaryV1 | SeriesCodec::BinaryV3 => "fxm",
        }
    }

    /// Human-readable label (matches the CLI `--codec` values).
    pub fn label(self) -> &'static str {
        match self {
            SeriesCodec::Csv => "csv",
            SeriesCodec::Binary => "fxm2",
            SeriesCodec::BinaryV1 => "fxm1",
            SeriesCodec::BinaryV3 => "fxm3",
        }
    }
}

/// What kind of consumer a series belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConsumerKind {
    /// A residential household.
    Household,
    /// An industrial site.
    Industrial,
}

/// One consumer's entry in the manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConsumerEntry {
    /// Stable identifier (also the file stem suffix).
    pub id: String,
    /// Household or industrial site.
    pub kind: ConsumerKind,
    /// Measured-series file name, relative to the dataset directory.
    pub measured: String,
    /// Undegraded ground-truth total series file (exported datasets).
    pub truth_total: Option<String>,
    /// Ground-truth flexible series file (exported datasets).
    pub truth_flex: Option<String>,
    /// Missing intervals in the measured series (denormalised from the
    /// file so `inspect` can summarise without decoding everything).
    pub gap_count: usize,
}

/// A series file carried as raw bytes: relative file name + contents.
/// The unit of compaction — files move between shards byte-for-byte,
/// never re-encoded.
pub(crate) type RawFile = (String, Vec<u8>);

/// Dataset-level metadata plus the consumer directory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// Manifest format version (currently [`FORMAT_VERSION`]).
    pub format: u32,
    /// Dataset name.
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// First instant covered by every measured series, `YYYY-MM-DD
    /// [HH:MM]`.
    pub start: String,
    /// Resolution of every measured series, in minutes.
    pub resolution_min: i64,
    /// Interval count of every measured series.
    pub intervals: usize,
    /// How the series files are encoded.
    pub codec: SeriesCodec,
    /// Name of the scenario this dataset was exported from, if any.
    pub source_scenario: Option<String>,
    /// The degradation applied at export time, if any.
    pub degradation: Option<Degradation>,
    /// The export seed (degradation RNG base), if exported.
    pub seed: Option<u64>,
    /// The consumers, in index order.
    pub consumers: Vec<ConsumerEntry>,
}

impl Manifest {
    /// The declared start timestamp, parsed.
    pub fn start_timestamp(&self) -> Result<Timestamp, DatasetError> {
        self.start.parse().map_err(|e| DatasetError::Manifest {
            path: MANIFEST_FILE.to_string(),
            what: format!("start `{}`: {e}", self.start),
        })
    }

    /// The declared resolution, parsed.
    pub fn resolution(&self) -> Result<Resolution, DatasetError> {
        Resolution::from_minutes(self.resolution_min).map_err(|e| DatasetError::Manifest {
            path: MANIFEST_FILE.to_string(),
            what: format!("resolution_min {}: {e}", self.resolution_min),
        })
    }
}

/// One consumer loaded from a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetRecord {
    /// The manifest entry this record was loaded from.
    pub entry: ConsumerEntry,
    /// The measured series (gaps as `NaN`).
    pub measured: MeasuredSeries,
    /// Undegraded ground-truth total, when the dataset carries it.
    pub truth_total: Option<flextract_series::TimeSeries>,
    /// Ground-truth flexible series, when the dataset carries it.
    pub truth_flex: Option<flextract_series::TimeSeries>,
}

/// A dataset opened for reading: a root index over shards, each shard a
/// directory holding a `manifest.json` and its consumers' series files.
/// Loading is per consumer and takes `&self`, so one handle can be
/// shared across shard workers.
///
/// Both on-disk layouts open into this one shape. A directory holding a
/// [`ROOT_FILE`] is a **sharded** store: its root index is read from
/// disk and each `shards/NNNN/` directory opens lazily on first
/// access. Any other directory is a **single-manifest** dataset: its
/// `manifest.json` is parsed at open and becomes the one implicit shard
/// of a root index synthesized in memory (nothing on disk is
/// rewritten). Consumer indices are global: index `i` routes to the
/// shard holding it via the root's per-shard counts, without opening
/// any other shard.
#[derive(Debug)]
pub struct Dataset {
    dir: PathBuf,
    root: RootIndex,
    /// `true` when `root` was read from `root.json`. A synthesized
    /// root's one summary carries counts but no roll-up, so shard
    /// pruning and stats-only answers apply only when this is set.
    sharded: bool,
    /// One slot per shard, caching the outcome of its first open
    /// (errors included), so repeated access neither re-reads nor
    /// flip-flops. An implicit shard's slot is filled at open.
    shards: Vec<OnceLock<Result<Shard, DatasetError>>>,
    /// On-disk size of the index parsed at open (`root.json` or
    /// `manifest.json`) — what [`ScanReport::bytes_read_index`]
    /// charges every cold query before any shard manifest.
    index_bytes: usize,
}

/// One shard: a directory whose `manifest.json` names its consumers,
/// with the grid parsed **once** at open — per-consumer validation and
/// loads reuse the parsed start and resolution instead of re-parsing
/// the manifest's strings per file touched. Consumer indices are local
/// to the shard.
#[derive(Debug)]
pub(crate) struct Shard {
    dir: PathBuf,
    pub(crate) manifest: Manifest,
    start: Timestamp,
    resolution: Resolution,
    /// On-disk size of the shard manifest, charged on top of the
    /// store's index: 0 for an implicit shard, whose manifest *is* the
    /// store's index.
    index_bytes: usize,
}

pub(crate) fn read_file(path: &Path) -> Result<Vec<u8>, DatasetError> {
    std::fs::read(path).map_err(|e| DatasetError::Io {
        path: path.display().to_string(),
        what: e.to_string(),
    })
}

/// The index file that defines the store at `dir`: `root.json` when
/// present (a sharded store), else `manifest.json`. The one layout
/// sniff — [`Dataset::open`] parses this file and the resident store
/// fingerprints it.
pub(crate) fn index_file(dir: &Path) -> PathBuf {
    let root = dir.join(ROOT_FILE);
    if root.is_file() {
        root
    } else {
        dir.join(MANIFEST_FILE)
    }
}

/// Decode raw series-file bytes into a chunk-addressable [`Frame`]:
/// binary formats are sniffed by magic (FXM2/FXM3 open lazily, FXM1
/// with one decode pass); anything else parses as CSV and is chunked
/// virtually on the same partitioning.
pub(crate) fn frame_from_raw(raw: Vec<u8>, display: &str) -> Result<Frame, DatasetError> {
    if codec::sniff(&raw).is_some() {
        Frame::from_fxm_bytes(raw, display).map_err(Into::into)
    } else {
        let text = String::from_utf8(raw).map_err(|_| DatasetError::Invalid {
            file: display.to_string(),
            what: "not valid UTF-8 (and not FXM binary)".to_string(),
        })?;
        let measured = codec::from_csv(&text, display)?;
        Frame::from_measured(measured, codec::DEFAULT_CHUNK_LEN, display).map_err(Into::into)
    }
}

/// Materialize a frame, whole or sliced to `range` (a ranged read:
/// only the chunks overlapping the slice decode).
fn materialize(frame: Frame, range: Option<TimeRange>) -> Result<MeasuredSeries, DatasetError> {
    match range {
        // Whole-series read: already-materialized frames (FXM1, CSV)
        // move their values instead of copying.
        None => frame.into_measured().map_err(Into::into),
        Some(r) => Scan::new()
            .time_slice(r)
            .materialize(&frame)
            .map(|(series, _)| series)
            .map_err(Into::into),
    }
}

impl Shard {
    /// Parse and validate the `manifest.json` in `dir`: format version,
    /// a non-empty consumer list with unique ids, an aligned grid, and
    /// every series file it names present on disk.
    pub(crate) fn open(dir: &Path) -> Result<Shard, DatasetError> {
        let dir = dir.to_path_buf();
        let manifest_path = dir.join(MANIFEST_FILE);
        let raw = read_file(&manifest_path)?;
        let index_bytes = raw.len();
        let text = String::from_utf8(raw).map_err(|_| DatasetError::Manifest {
            path: manifest_path.display().to_string(),
            what: "not valid UTF-8".to_string(),
        })?;
        let manifest: Manifest =
            serde_json::from_str(&text).map_err(|e| DatasetError::Manifest {
                path: manifest_path.display().to_string(),
                what: e.to_string(),
            })?;
        let invalid = |what: String| DatasetError::Manifest {
            path: manifest_path.display().to_string(),
            what,
        };
        if manifest.format != FORMAT_VERSION {
            return Err(invalid(format!(
                "unsupported format version {} (this build reads {FORMAT_VERSION})",
                manifest.format
            )));
        }
        if manifest.consumers.is_empty() {
            return Err(invalid("dataset has no consumers".to_string()));
        }
        let start = manifest.start_timestamp()?;
        let resolution = manifest.resolution()?;
        if !start.is_aligned(resolution) {
            return Err(invalid(format!(
                "start {} is not aligned to the {}-min grid",
                manifest.start, manifest.resolution_min
            )));
        }
        let mut seen = std::collections::BTreeSet::new();
        for entry in &manifest.consumers {
            if !seen.insert(entry.id.clone()) {
                return Err(invalid(format!("duplicate consumer id `{}`", entry.id)));
            }
            for file in [Some(&entry.measured), entry.truth_total.as_ref()]
                .into_iter()
                .flatten()
                .chain(entry.truth_flex.as_ref())
            {
                if !dir.join(file).is_file() {
                    // Typed, not a generic io error mid-scan: the entry
                    // and the expected path are named at open time.
                    return Err(DatasetError::MissingSeriesFile {
                        consumer: entry.id.clone(),
                        path: dir.join(file).display().to_string(),
                    });
                }
            }
        }
        Ok(Shard {
            dir,
            manifest,
            start,
            resolution,
            index_bytes,
        })
    }

    /// The manifest entry at local index `rel`.
    fn entry(&self, rel: usize) -> Result<&ConsumerEntry, DatasetError> {
        self.manifest
            .consumers
            .get(rel)
            .ok_or_else(|| DatasetError::OutOfRange {
                index: rel,
                len: self.manifest.consumers.len(),
                dir: self.dir.display().to_string(),
            })
    }

    /// Open `file` as a chunk-addressable [`Frame`]: binary formats
    /// open lazily (FXM2/FXM3) or with one decode pass (FXM1); CSV
    /// parses and is chunked virtually. Cold opens are one buffered
    /// sequential read of the whole file — never per-chunk-header
    /// seeks — which is what [`ScanReport::bytes_read`] accounts.
    fn load_frame(&self, file: &str) -> Result<Frame, DatasetError> {
        let path = self.dir.join(file);
        let raw = read_file(&path)?;
        frame_from_raw(raw, &path.display().to_string())
    }

    /// The grid-validated measured frame at local index `rel` — the
    /// shared open step behind every consumer-level query path.
    fn frame(&self, rel: usize) -> Result<Frame, DatasetError> {
        let entry = self.entry(rel)?;
        let frame = self.load_frame(&entry.measured)?;
        self.validate_grid(&frame, &entry.measured)?;
        Ok(frame)
    }

    /// Check a frame's header against the manifest's declared grid —
    /// a constant-time check that decodes nothing.
    fn validate_grid(&self, frame: &Frame, file: &str) -> Result<(), DatasetError> {
        let manifest = &self.manifest;
        let header = frame.header();
        let file = self.dir.join(file).display().to_string();
        if header.start != self.start {
            return Err(DatasetError::Invalid {
                file,
                what: format!(
                    "series starts at {} but the manifest declares {}",
                    header.start, manifest.start
                ),
            });
        }
        if header.resolution != self.resolution {
            return Err(DatasetError::Invalid {
                file,
                what: format!(
                    "series resolution is {} but the manifest declares {} min",
                    header.resolution, manifest.resolution_min
                ),
            });
        }
        if header.len != manifest.intervals {
            return Err(DatasetError::Invalid {
                file,
                what: format!(
                    "series has {} intervals but the manifest declares {}",
                    header.len, manifest.intervals
                ),
            });
        }
        Ok(())
    }

    /// Load a ground-truth file and validate it against the manifest:
    /// gap-free, same start, and covering the same horizon as the
    /// measured grid (truth may be finer — it is the undegraded series
    /// at its native resolution — but a short or shifted truth file
    /// would silently corrupt the fidelity numbers). With a `range`,
    /// only the overlapping part is materialized.
    fn load_truth_file(
        &self,
        file: &str,
        range: Option<TimeRange>,
    ) -> Result<flextract_series::TimeSeries, DatasetError> {
        let manifest = &self.manifest;
        let frame = self.load_frame(file)?;
        let header = *frame.header();
        let display = || self.dir.join(file).display().to_string();
        if header.start != self.start {
            return Err(DatasetError::Invalid {
                file: display(),
                what: format!(
                    "ground-truth series starts at {} but the manifest declares {}",
                    header.start, manifest.start
                ),
            });
        }
        let covered = header.len as i64 * header.resolution.minutes();
        let declared = manifest.intervals as i64 * manifest.resolution_min;
        if covered != declared {
            return Err(DatasetError::Invalid {
                file: display(),
                what: format!(
                    "ground-truth series covers {covered} min but the manifest grid \
                     covers {declared} min"
                ),
            });
        }
        let measured = materialize(frame, range)?;
        if measured.is_empty() {
            // Distinguish a non-overlapping range from file corruption:
            // an empty slice is a caller problem, not a gap problem.
            return Err(DatasetError::Invalid {
                file: display(),
                what: match range {
                    Some(range) => {
                        format!("requested range {range} does not overlap the stored series")
                    }
                    // A whole-series read only comes back empty if the
                    // file itself holds an empty grid.
                    None => "the stored series is empty".to_string(),
                },
            });
        }
        let gaps = measured.gap_count();
        measured.into_series().map_err(|_| DatasetError::Invalid {
            file: display(),
            what: format!("ground-truth series has {gaps} gap(s); truth files must be gap-free"),
        })
    }

    /// Load the consumer at local index `rel`: the measured series
    /// (validated against the declared grid) plus any ground truth.
    fn load_consumer(
        &self,
        rel: usize,
        with_truth_total: bool,
        range: Option<TimeRange>,
    ) -> Result<DatasetRecord, DatasetError> {
        let entry = self.entry(rel)?;
        let measured = materialize(self.frame(rel)?, range)?;
        let truth_total = if with_truth_total {
            entry
                .truth_total
                .as_ref()
                .map(|f| self.load_truth_file(f, range))
                .transpose()?
        } else {
            None
        };
        let truth_flex = entry
            .truth_flex
            .as_ref()
            .map(|f| self.load_truth_file(f, range))
            .transpose()?;
        Ok(DatasetRecord {
            entry: entry.clone(),
            measured,
            truth_total,
            truth_flex,
        })
    }
}

impl Dataset {
    /// Open `dir`. A directory carrying `root.json` opens as a sharded
    /// store (shard manifests load lazily on first access); any other
    /// directory's `manifest.json` is parsed and validated now and
    /// opens as a store with one implicit shard — the migration
    /// contract that keeps pre-sharding directories readable, like
    /// `SeriesCodec::BinaryV1` files staying loadable by magic.
    pub fn open(dir: impl AsRef<Path>) -> Result<Dataset, DatasetError> {
        let dir = dir.as_ref().to_path_buf();
        let sharded = index_file(&dir).ends_with(ROOT_FILE);
        let (root, shards, index_bytes) = if sharded {
            let (root, index_bytes) = crate::sharded::read_root(&dir)?;
            let shards = root.shards.iter().map(|_| OnceLock::new()).collect();
            (root, shards, index_bytes)
        } else {
            let mut shard = Shard::open(&dir)?;
            // The store charges the manifest it parsed; the implicit
            // shard adds nothing on top.
            let index_bytes = std::mem::take(&mut shard.index_bytes);
            let root = RootIndex::implicit(&shard.manifest);
            (root, vec![OnceLock::from(Ok(shard))], index_bytes)
        };
        Ok(Dataset {
            dir,
            root,
            sharded,
            shards,
            index_bytes,
        })
    }

    /// The root index of a sharded store; `None` for a single-manifest
    /// dataset, whose root is synthesized rather than stored.
    pub fn root(&self) -> Option<&RootIndex> {
        self.sharded.then_some(&self.root)
    }

    /// `true` when this dataset's root index was read from `root.json`.
    pub fn is_sharded(&self) -> bool {
        self.sharded
    }

    /// Number of shards: 1 for a single-manifest dataset (the whole
    /// directory is one implicit shard), the root's shard count for a
    /// sharded store.
    pub fn shard_count(&self) -> usize {
        self.root.shards.len()
    }

    /// The dataset directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of consumers across every shard.
    pub fn len(&self) -> usize {
        self.root.len()
    }

    /// `true` if the dataset has no consumers (never true for an opened
    /// dataset — `open` rejects empty manifests and empty roots).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.root.name
    }

    /// One-line human description.
    pub fn description(&self) -> &str {
        &self.root.description
    }

    /// The declared start, as stored (`YYYY-MM-DD [HH:MM]`).
    pub fn start_str(&self) -> &str {
        &self.root.start
    }

    /// The declared start timestamp, parsed.
    pub fn start_timestamp(&self) -> Result<Timestamp, DatasetError> {
        self.root.start_timestamp()
    }

    /// The declared resolution, in minutes.
    pub fn resolution_min(&self) -> i64 {
        self.root.resolution_min
    }

    /// The declared resolution, parsed.
    pub fn resolution(&self) -> Result<Resolution, DatasetError> {
        self.root.resolution()
    }

    /// Interval count of every measured series.
    pub fn intervals(&self) -> usize {
        self.root.intervals
    }

    /// How the series files are encoded.
    pub fn codec(&self) -> SeriesCodec {
        self.root.codec
    }

    /// Name of the scenario this dataset was exported from, if any.
    pub fn source_scenario(&self) -> Option<&str> {
        self.root.source_scenario.as_deref()
    }

    /// The degradation applied at export time, if any.
    pub fn degradation(&self) -> Option<&Degradation> {
        self.root.degradation.as_ref()
    }

    /// The export seed, if exported.
    pub fn seed(&self) -> Option<u64> {
        self.root.seed
    }

    /// `true` when every consumer carries a ground-truth total series,
    /// answered from the root's per-shard counts without opening any
    /// shard.
    pub fn all_have_truth(&self) -> bool {
        self.root.shards.iter().all(|s| s.with_truth == s.consumers)
    }

    /// The typed error for a shard index the root does not list.
    fn no_shard(&self, k: usize) -> DatasetError {
        DatasetError::Invalid {
            file: self.dir.display().to_string(),
            what: format!(
                "internal: shard index {k} out of range for {} shard(s)",
                self.root.shards.len()
            ),
        }
    }

    /// Open (or fetch the cached handle of) shard `k`. The first open
    /// reads and validates the shard manifest against the root; the
    /// outcome — success or error — is cached in the slot.
    fn shard(&self, k: usize) -> Result<&Shard, DatasetError> {
        let Some((summary, slot)) = self.root.shards.get(k).zip(self.shards.get(k)) else {
            return Err(self.no_shard(k));
        };
        slot.get_or_init(|| crate::sharded::open_shard(&self.dir, &self.root, summary))
            .as_ref()
            .map_err(|e| e.clone())
    }

    /// Route a global consumer index to the shard holding it and the
    /// index local to that shard — found from the root's per-shard
    /// counts, opening only that shard.
    fn locate(&self, idx: usize) -> Result<(&Shard, usize), DatasetError> {
        let mut rel = idx;
        for (k, summary) in self.root.shards.iter().enumerate() {
            if rel < summary.consumers {
                return Ok((self.shard(k)?, rel));
            }
            rel -= summary.consumers;
        }
        Err(DatasetError::OutOfRange {
            index: idx,
            len: self.len(),
            dir: self.dir.display().to_string(),
        })
    }

    /// Load consumer `idx` (measured series plus any ground truth),
    /// validating it against the manifest's declared grid.
    pub fn consumer(&self, idx: usize) -> Result<DatasetRecord, DatasetError> {
        let (shard, rel) = self.locate(idx)?;
        shard.load_consumer(rel, true, None)
    }

    /// Ranged consumer read: like [`Dataset::consumer`], but every
    /// series (measured and ground truth) is materialized only over
    /// `range` — for FXM2/FXM3 files, chunks outside the range are
    /// never decoded — and the ground-truth *total* loads only when
    /// `with_truth_total` is set (`truth_flex`, the scoring reference,
    /// always loads). The file's declared grid is still validated
    /// against the manifest in full (a header check, no decode).
    pub fn consumer_in(
        &self,
        idx: usize,
        range: TimeRange,
        with_truth_total: bool,
    ) -> Result<DatasetRecord, DatasetError> {
        let (shard, rel) = self.locate(idx)?;
        shard.load_consumer(rel, with_truth_total, Some(range))
    }

    /// The grid-validated lazy frame of consumer `idx`'s measured
    /// series — the entry point for scans and pushdown queries.
    pub fn consumer_frame(&self, idx: usize) -> Result<Frame, DatasetError> {
        let (shard, rel) = self.locate(idx)?;
        shard.frame(rel)
    }

    /// Index bytes a cold open consults to answer a query for consumer
    /// `idx`: the store's index plus the holding shard's own manifest
    /// (nothing extra for an implicit shard).
    pub fn consumer_index_bytes(&self, idx: usize) -> Result<usize, DatasetError> {
        let (shard, _) = self.locate(idx)?;
        Ok(self.index_bytes + shard.index_bytes)
    }

    /// On-disk size of the index this handle parsed at open:
    /// `root.json` for a sharded store, `manifest.json` for a
    /// single-manifest dataset — the fixed routing cost every cold
    /// query pays before touching a series file, accounted by
    /// [`ScanReport::bytes_read_index`].
    pub fn index_bytes(&self) -> usize {
        self.index_bytes
    }

    /// Consumer `idx`'s manifest entry. This opens (at most) the
    /// holding shard.
    pub fn consumer_entry(&self, idx: usize) -> Result<ConsumerEntry, DatasetError> {
        let (shard, rel) = self.locate(idx)?;
        shard.entry(rel).cloned()
    }

    /// Ranged read of consumer `idx`'s measured series: decode only
    /// the chunks overlapping `range`, returning the slice and the
    /// scan report (how many chunks were skipped vs decoded).
    pub fn consumer_slice(
        &self,
        idx: usize,
        range: TimeRange,
    ) -> Result<(MeasuredSeries, ScanReport), DatasetError> {
        let frame = self.consumer_frame(idx)?;
        Scan::new()
            .time_slice(range)
            .materialize(&frame)
            .map_err(Into::into)
    }

    /// Execute `scan` against consumer `idx`'s measured series,
    /// returning aggregates plus the pushdown report. FXM2 files
    /// answer stat-coverable queries without decoding any payload.
    pub fn consumer_aggregates(
        &self,
        idx: usize,
        scan: &Scan,
    ) -> Result<(Aggregates, ScanReport), DatasetError> {
        self.consumer_aggregates_with(idx, scan, &mut Vec::new())
    }

    /// Like [`Dataset::consumer_aggregates`], but decoding through a
    /// caller-owned scratch buffer so a multi-consumer sweep reuses one
    /// allocation instead of allocating per chunk per consumer.
    ///
    /// `bytes_read_index` charges the index bytes this query consulted
    /// (the store's index + the holding shard's manifest) —
    /// single-consumer queries pay the full routing cost; fleet sweeps
    /// charge each index once instead (see
    /// [`Dataset::fleet_aggregates`]).
    pub fn consumer_aggregates_with(
        &self,
        idx: usize,
        scan: &Scan,
        scratch: &mut Vec<f64>,
    ) -> Result<(Aggregates, ScanReport), DatasetError> {
        let (shard, rel) = self.locate(idx)?;
        let (agg, mut report) = scan.aggregates_with(&shard.frame(rel)?, scratch)?;
        report.bytes_read_index = self.index_bytes + shard.index_bytes;
        Ok((agg, report))
    }

    /// Execute `scan` against every consumer of shard `k`. A shard
    /// listed in `root.json` is first checked against its roll-up:
    ///
    /// * any predicate excluded by the roll-up, or a time slice
    ///   disjoint from the shard's coverage ⇒ **pruned** — neither the
    ///   shard manifest nor any series file is opened;
    /// * no predicates and the slice covers the whole shard ⇒
    ///   **stats-only** — answered from the roll-up alone (built with
    ///   the same fold association as a full scan, so the answer is
    ///   bit-identical).
    ///
    /// Otherwise — and always for the implicit shard of a
    /// single-manifest dataset, whose synthesized summary has no
    /// roll-up — every consumer is scanned and merged in consumer
    /// order, reusing `scratch` across decodes.
    ///
    /// The report counts this shard under `shards_*` and charges the
    /// shard manifest when it was opened (the caller adds the store's
    /// index); per-chunk counters accumulate only when files open.
    pub fn shard_aggregates(
        &self,
        k: usize,
        scan: &Scan,
        scratch: &mut Vec<f64>,
    ) -> Result<(Aggregates, ScanReport), DatasetError> {
        let Some(summary) = self.root.shards.get(k) else {
            return Err(self.no_shard(k));
        };
        let mut report = ScanReport {
            shards_total: 1,
            ..ScanReport::default()
        };
        if self.sharded {
            let coverage = summary.coverage(self.root.resolution()?)?;
            let disjoint = scan.slice().is_some_and(|s| !s.overlaps(coverage));
            let excluded = scan.predicates().iter().any(|p| summary.excludes(p));
            if disjoint || excluded {
                report.shards_pruned = 1;
                return Ok((Aggregates::default(), report));
            }
            let covers_all = scan.slice().is_none_or(|s| s.contains_range(coverage));
            if scan.predicates().is_empty() && covers_all {
                let agg = summary.aggregates();
                report.shards_stats_only = 1;
                report.intervals_selected = agg.intervals;
                return Ok((agg, report));
            }
        }
        let shard = self.shard(k)?;
        // The shard's manifest is consulted once for the whole sweep —
        // charge it once, not per consumer.
        report.bytes_read_index = shard.index_bytes;
        let mut agg = Aggregates::default();
        for rel in 0..summary.consumers {
            let (a, r) = scan.aggregates_with(&shard.frame(rel)?, scratch)?;
            agg.merge(&a);
            report.absorb(&r);
        }
        Ok((agg, report))
    }

    /// Execute `scan` against every consumer in the store, in the
    /// canonical fold order (chunk → consumer → shard → fleet), with
    /// shard-level pruning where the root carries roll-ups. The
    /// store's index is charged once for the whole sweep.
    pub fn fleet_aggregates(&self, scan: &Scan) -> Result<(Aggregates, ScanReport), DatasetError> {
        let mut scratch = Vec::new();
        let mut agg = Aggregates::default();
        let mut report = ScanReport {
            bytes_read_index: self.index_bytes,
            ..ScanReport::default()
        };
        for k in 0..self.root.shards.len() {
            let (a, r) = self.shard_aggregates(k, scan, &mut scratch)?;
            agg.merge(&a);
            report.absorb(&r);
        }
        Ok((agg, report))
    }

    /// Consumer `idx`'s manifest entry plus the raw bytes of every file
    /// it references — the compaction primitive (files are copied
    /// byte-for-byte, never re-encoded).
    pub(crate) fn consumer_raw(
        &self,
        idx: usize,
    ) -> Result<(ConsumerEntry, Vec<RawFile>), DatasetError> {
        let (shard, rel) = self.locate(idx)?;
        let entry = shard.entry(rel)?.clone();
        let mut files = Vec::new();
        for file in [Some(&entry.measured), entry.truth_total.as_ref()]
            .into_iter()
            .flatten()
            .chain(entry.truth_flex.as_ref())
        {
            files.push((file.clone(), read_file(&shard.dir.join(file))?));
        }
        Ok((entry, files))
    }
}

/// Writes a dataset directory consumer by consumer, then the manifest.
///
/// The writer holds only the manifest in memory; each consumer's series
/// goes straight to disk. A consumer write has two halves: the files
/// half ([`ConsumerFiles::write`], `&self`, shareable across workers)
/// checks the grid and writes the series files, and the ordered half
/// ([`DatasetWriter::push_consumer`]) lists the entry.
/// [`DatasetWriter::write_consumer`] runs both.
#[derive(Debug)]
pub struct DatasetWriter {
    dir: PathBuf,
    manifest: Manifest,
}

impl DatasetWriter {
    /// Create the dataset directory (and parents) and an empty
    /// manifest. `start`, `resolution` and `intervals` declare the grid
    /// every measured series must share.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        dir: impl AsRef<Path>,
        name: &str,
        description: &str,
        start: Timestamp,
        resolution: Resolution,
        intervals: usize,
        codec: SeriesCodec,
    ) -> Result<DatasetWriter, DatasetError> {
        let dir = dir.as_ref().to_path_buf();
        // A 1-row CSV cannot be read back (the parser infers the
        // resolution from row spacing), so refuse to write one.
        if codec == SeriesCodec::Csv && intervals < 2 {
            return Err(DatasetError::Invalid {
                file: dir.display().to_string(),
                what: format!(
                    "the CSV codec needs at least 2 intervals (got {intervals}); \
                     use the binary codec for single-interval series"
                ),
            });
        }
        std::fs::create_dir_all(&dir).map_err(|e| DatasetError::Io {
            path: dir.display().to_string(),
            what: e.to_string(),
        })?;
        Ok(DatasetWriter {
            dir,
            manifest: Manifest {
                format: FORMAT_VERSION,
                name: name.to_string(),
                description: description.to_string(),
                start: start.to_string(),
                resolution_min: resolution.minutes(),
                intervals,
                codec,
                source_scenario: None,
                degradation: None,
                seed: None,
                consumers: Vec::new(),
            },
        })
    }

    /// Record export provenance in the manifest.
    pub fn set_provenance(&mut self, source_scenario: &str, degradation: Degradation, seed: u64) {
        self.manifest.source_scenario = Some(source_scenario.to_string());
        self.manifest.degradation = Some(degradation);
        self.manifest.seed = Some(seed);
    }

    /// The files half of this writer: every consumer's files go into
    /// the dataset directory.
    pub fn files(&self) -> ConsumerFiles {
        ConsumerFiles {
            dir: self.dir.clone(),
            start: self.manifest.start.clone(),
            resolution_min: self.manifest.resolution_min,
            intervals: self.manifest.intervals,
            codec: self.manifest.codec,
            shards: None,
        }
    }

    /// Append one consumer: the measured series plus optional ground
    /// truth. The measured series must sit on the declared grid.
    pub fn write_consumer(
        &mut self,
        id: &str,
        kind: ConsumerKind,
        measured: &MeasuredSeries,
        truth_total: Option<&flextract_series::TimeSeries>,
        truth_flex: Option<&flextract_series::TimeSeries>,
    ) -> Result<(), DatasetError> {
        let at = self.manifest.consumers.len();
        let (total, flex) = (
            truth_total.map(MeasuredSeries::from_series),
            truth_flex.map(MeasuredSeries::from_series),
        );
        let written = self
            .files()
            .write(at, id, kind, measured, total.as_ref(), flex.as_ref())?;
        self.push_consumer(written)
    }

    /// The ordered half of a consumer write: list a consumer whose
    /// files [`DatasetWriter::files`] wrote. Entries are listed in call
    /// order.
    pub fn push_consumer(&mut self, written: WrittenConsumer) -> Result<(), DatasetError> {
        if let Some((shard, _)) = written.shard {
            return Err(DatasetError::Invalid {
                file: MANIFEST_FILE.to_string(),
                what: format!(
                    "consumer `{}` was written into shard {shard}, not this \
                     single-manifest dataset",
                    written.entry.id
                ),
            });
        }
        self.push_entry(written.entry);
        Ok(())
    }

    /// List `entry` in the manifest.
    pub(crate) fn push_entry(&mut self, entry: ConsumerEntry) {
        self.manifest.consumers.push(entry);
    }

    /// Write `manifest.json` and finish. Returns the manifest.
    ///
    /// Also removes series files from previous writes into the same
    /// directory that this manifest no longer references (a re-export
    /// with fewer consumers or a different codec must not leave orphans
    /// beside the manifest). Only files matching the writer's own
    /// naming scheme are touched.
    pub fn finish(self) -> Result<Manifest, DatasetError> {
        let path = self.dir.join(MANIFEST_FILE);
        let json =
            serde_json::to_string_pretty(&self.manifest).map_err(|e| DatasetError::Manifest {
                path: path.display().to_string(),
                what: format!("serialise: {e}"),
            })? + "\n";
        write_file(&path, json.as_bytes())?;
        let referenced: std::collections::BTreeSet<&str> = self
            .manifest
            .consumers
            .iter()
            .flat_map(|c| {
                [Some(c.measured.as_str()), c.truth_total.as_deref()]
                    .into_iter()
                    .flatten()
                    .chain(c.truth_flex.as_deref())
            })
            .collect();
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().to_string();
                let ours = ["consumer_", "truth_", "flex_"]
                    .iter()
                    .any(|p| name.starts_with(p))
                    && [".csv", ".fxm"].iter().any(|e| name.ends_with(e));
                if ours && !referenced.contains(name.as_str()) {
                    std::fs::remove_file(entry.path()).map_err(|e| DatasetError::Io {
                        path: entry.path().display().to_string(),
                        what: format!("removing stale series file: {e}"),
                    })?;
                }
            }
        }
        // A single-manifest export over a previously sharded directory
        // must remove the stale root index (layout sniffing prefers
        // `root.json`) and the shard directories it referenced.
        let stale_root = self.dir.join(ROOT_FILE);
        if stale_root.is_file() {
            std::fs::remove_file(&stale_root).map_err(|e| DatasetError::Io {
                path: stale_root.display().to_string(),
                what: format!("removing stale root index: {e}"),
            })?;
            let stale_shards = self.dir.join(crate::sharded::SHARDS_DIR);
            if stale_shards.is_dir() {
                std::fs::remove_dir_all(&stale_shards).map_err(|e| DatasetError::Io {
                    path: stale_shards.display().to_string(),
                    what: format!("removing stale shard directories: {e}"),
                })?;
            }
        }
        Ok(self.manifest)
    }
}

/// The files half of a dataset writer: the declared grid and codec,
/// and where each consumer's series files go. It holds no per-consumer
/// state and writes through `&self`, so export workers share one and
/// write their own consumers' files concurrently, while the writer's
/// ordered half lists the results in index order.
///
/// A single-manifest dataset puts every consumer in its directory. A
/// sharded store puts the session's `j`-th consumer in shard
/// `first + j / capacity` (`first` is the session's first shard id), the
/// rule [`crate::ShardedWriter`] rotates its tail shard by.
#[derive(Debug, Clone)]
pub struct ConsumerFiles {
    dir: PathBuf,
    start: String,
    resolution_min: i64,
    intervals: usize,
    codec: SeriesCodec,
    /// Sharded layout: the session's first shard id and the capacity.
    shards: Option<(u64, usize)>,
}

/// A consumer whose series files are on disk but not yet listed: what
/// the files half hands the ordered half.
#[derive(Debug, Clone)]
pub struct WrittenConsumer {
    pub(crate) entry: ConsumerEntry,
    /// Sharded layout: the shard holding the files and the consumer's
    /// roll-up.
    pub(crate) shard: Option<(u64, Aggregates)>,
}

impl WrittenConsumer {
    /// Missing intervals in the consumer's measured series.
    pub fn gap_count(&self) -> usize {
        self.entry.gap_count
    }
}

impl ConsumerFiles {
    /// The files half of a sharded session at `dir`: `root` is the
    /// committed root, whose `next_shard_id` is the session's first
    /// shard id until the session commits.
    pub(crate) fn sharded(dir: &Path, root: &RootIndex) -> ConsumerFiles {
        ConsumerFiles {
            dir: dir.to_path_buf(),
            start: root.start.clone(),
            resolution_min: root.resolution_min,
            intervals: root.intervals,
            codec: root.codec,
            shards: Some((root.next_shard_id, root.shard_capacity)),
        }
    }

    /// The directory and shard id of the session's `j`-th consumer,
    /// creating the shard directory if it is missing.
    fn place(&self, j: usize) -> Result<(PathBuf, Option<u64>), DatasetError> {
        let Some((first, capacity)) = self.shards else {
            return Ok((self.dir.clone(), None));
        };
        let id = first + (j / capacity) as u64;
        let dir = crate::sharded::shard_dir(&self.dir, id);
        std::fs::create_dir_all(&dir).map_err(|e| DatasetError::Io {
            path: dir.display().to_string(),
            what: e.to_string(),
        })?;
        Ok((dir, Some(id)))
    }

    /// Write the session's `j`-th consumer's series files: the measured
    /// series plus optional gap-free ground truth. The measured series
    /// must sit on the declared grid; it is checked before any file is
    /// written.
    pub fn write(
        &self,
        j: usize,
        id: &str,
        kind: ConsumerKind,
        measured: &MeasuredSeries,
        truth_total: Option<&MeasuredSeries>,
        truth_flex: Option<&MeasuredSeries>,
    ) -> Result<WrittenConsumer, DatasetError> {
        let declared = |what: String| DatasetError::Invalid {
            file: format!("consumer `{id}`"),
            what,
        };
        if measured.start().to_string() != self.start {
            return Err(declared(format!(
                "starts at {} but the dataset declares {}",
                measured.start(),
                self.start
            )));
        }
        if measured.resolution().minutes() != self.resolution_min {
            return Err(declared(format!(
                "resolution {} does not match the declared {} min",
                measured.resolution(),
                self.resolution_min
            )));
        }
        if measured.len() != self.intervals {
            return Err(declared(format!(
                "{} intervals but the dataset declares {}",
                measured.len(),
                self.intervals
            )));
        }
        let (dir, shard) = self.place(j)?;
        let ext = self.codec.extension();
        let write = |file: String, series: &MeasuredSeries| {
            write_file(&dir.join(&file), &codec::encode(series, self.codec)).map(|()| file)
        };
        let measured_file = write(format!("consumer_{id}.{ext}"), measured)?;
        let truth = |prefix: &str, s: Option<&MeasuredSeries>| {
            s.map(|s| write(format!("{prefix}_{id}.{ext}"), s))
                .transpose()
        };
        let truth_total_file = truth("truth", truth_total)?;
        let truth_flex_file = truth("flex", truth_flex)?;
        Ok(WrittenConsumer {
            entry: ConsumerEntry {
                id: id.to_string(),
                kind,
                measured: measured_file,
                truth_total: truth_total_file,
                truth_flex: truth_flex_file,
                gap_count: measured.gap_count(),
            },
            shard: shard.map(|s| (s, crate::sharded::consumer_rollup(measured.values()))),
        })
    }

    /// Copy an already-encoded consumer byte for byte as the session's
    /// `j`-th: write its raw series files and keep its entry unchanged.
    /// The compaction primitive — no re-encoding, no grid re-validation
    /// (the bytes came from a validated store and are copied, not
    /// interpreted); a sharded roll-up is folded from the stored
    /// statistics.
    pub(crate) fn adopt(
        &self,
        j: usize,
        entry: &ConsumerEntry,
        files: &[RawFile],
    ) -> Result<WrittenConsumer, DatasetError> {
        let (dir, shard) = self.place(j)?;
        let rollup = |shard| {
            let (name, raw) = files
                .iter()
                .find(|(name, _)| *name == entry.measured)
                .ok_or_else(|| DatasetError::Invalid {
                    file: entry.measured.clone(),
                    what: "internal: adopted consumer carries no measured bytes".to_string(),
                })?;
            let frame = frame_from_raw(raw.clone(), name)?;
            let (agg, _) = Scan::new().aggregates(&frame)?;
            Ok::<_, DatasetError>((shard, agg))
        };
        let shard = shard.map(rollup).transpose()?;
        for (name, raw) in files {
            write_file(&dir.join(name), raw)?;
        }
        Ok(WrittenConsumer {
            entry: entry.clone(),
            shard,
        })
    }
}

fn write_file(path: &Path, bytes: &[u8]) -> Result<(), DatasetError> {
    std::fs::write(path, bytes).map_err(|e| DatasetError::Io {
        path: path.display().to_string(),
        what: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextract_series::TimeSeries;

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "flextract_dataset_store_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_measured() -> MeasuredSeries {
        MeasuredSeries::new(
            ts("2013-03-18"),
            Resolution::MIN_15,
            vec![0.5, f64::NAN, 0.7, 0.9],
        )
        .unwrap()
    }

    fn write_sample(dir: &Path, codec: SeriesCodec) -> Manifest {
        let mut w = DatasetWriter::create(
            dir,
            "unit",
            "unit-test dataset",
            ts("2013-03-18"),
            Resolution::MIN_15,
            4,
            codec,
        )
        .unwrap();
        let truth = TimeSeries::new(
            ts("2013-03-18"),
            Resolution::MIN_15,
            vec![0.5, 0.6, 0.7, 0.9],
        )
        .unwrap();
        let flex = TimeSeries::new(
            ts("2013-03-18"),
            Resolution::MIN_15,
            vec![0.1, 0.0, 0.2, 0.0],
        )
        .unwrap();
        w.write_consumer(
            "0",
            ConsumerKind::Household,
            &sample_measured(),
            Some(&truth),
            Some(&flex),
        )
        .unwrap();
        w.write_consumer(
            "1",
            ConsumerKind::Industrial,
            &sample_measured(),
            None,
            None,
        )
        .unwrap();
        w.finish().unwrap()
    }

    #[test]
    fn round_trip_csv_and_binary() {
        for codec in [SeriesCodec::Csv, SeriesCodec::Binary, SeriesCodec::BinaryV3] {
            let dir = scratch(codec.label());
            let manifest = write_sample(&dir, codec);
            assert_eq!(manifest.consumers.len(), 2);
            assert_eq!(manifest.consumers[0].gap_count, 1);

            let ds = Dataset::open(&dir).unwrap();
            assert_eq!(ds.len(), 2);
            let rec = ds.consumer(0).unwrap();
            assert_eq!(rec.measured.gap_count(), 1);
            assert_eq!(rec.entry.kind, ConsumerKind::Household);
            let truth = rec.truth_total.unwrap();
            assert_eq!(truth.values(), &[0.5, 0.6, 0.7, 0.9]);
            assert!(rec.truth_flex.is_some());
            let rec1 = ds.consumer(1).unwrap();
            assert!(rec1.truth_total.is_none());
            assert_eq!(rec1.entry.kind, ConsumerKind::Industrial);
            assert!(matches!(
                ds.consumer(2),
                Err(DatasetError::OutOfRange {
                    index: 2,
                    len: 2,
                    ..
                })
            ));
            // The out-of-range message names the dataset directory and
            // the valid range.
            let msg = ds.consumer(2).unwrap_err().to_string();
            assert!(msg.contains("0..2"), "{msg}");
            assert!(msg.contains(&dir.display().to_string()), "{msg}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn open_rejects_missing_and_malformed_manifests() {
        let dir = scratch("missing");
        assert!(matches!(Dataset::open(&dir), Err(DatasetError::Io { .. })));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), "{ not json").unwrap();
        let err = Dataset::open(&dir).unwrap_err();
        assert!(err.to_string().contains("manifest.json"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_rejects_manifest_naming_missing_files() {
        let dir = scratch("dangling");
        write_sample(&dir, SeriesCodec::Csv);
        std::fs::remove_file(dir.join("consumer_1.csv")).unwrap();
        let err = Dataset::open(&dir).unwrap_err();
        assert!(
            matches!(err, DatasetError::MissingSeriesFile { .. }),
            "{err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains("consumer_1.csv"), "{msg}");
        assert!(msg.contains("`1`"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn consumer_grid_must_match_manifest() {
        let dir = scratch("grid");
        write_sample(&dir, SeriesCodec::Csv);
        // Rewrite consumer 1 with a wrong interval count.
        let short =
            MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_15, vec![0.5, 0.6]).unwrap();
        std::fs::write(dir.join("consumer_1.csv"), codec::to_csv(&short)).unwrap();
        let ds = Dataset::open(&dir).unwrap();
        let err = ds.consumer(1).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("consumer_1.csv"), "{msg}");
        assert!(msg.contains("2 intervals"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truth_files_must_match_the_manifest_horizon() {
        let dir = scratch("truthgrid");
        write_sample(&dir, SeriesCodec::Csv);
        // Truncate the truth series to half the horizon: loading must
        // fail instead of silently feeding the fidelity leg bad data.
        let short =
            MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_15, vec![0.5, 0.6]).unwrap();
        std::fs::write(dir.join("truth_0.csv"), codec::to_csv(&short)).unwrap();
        let ds = Dataset::open(&dir).unwrap();
        let err = ds.consumer(0).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("truth_0.csv"), "{msg}");
        assert!(msg.contains("covers 30 min"), "{msg}");
        // A shifted start is rejected too.
        let shifted = MeasuredSeries::new(
            ts("2013-03-19"),
            Resolution::MIN_15,
            vec![0.5, 0.6, 0.7, 0.9],
        )
        .unwrap();
        std::fs::write(dir.join("truth_0.csv"), codec::to_csv(&shifted)).unwrap();
        let err = ds.consumer(0).unwrap_err();
        assert!(err.to_string().contains("starts at"), "{err}");
        // A finer-resolution truth covering the same horizon is fine
        // (exports write truth at the simulator's native resolution).
        let fine = MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_5, vec![0.1; 12]).unwrap();
        std::fs::write(dir.join("truth_0.csv"), codec::to_csv(&fine)).unwrap();
        assert!(ds.consumer(0).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finish_removes_stale_series_files_from_previous_exports() {
        let dir = scratch("restale");
        write_sample(&dir, SeriesCodec::Csv); // 2 consumers + truth files
        let mut w = DatasetWriter::create(
            &dir,
            "unit",
            "d",
            ts("2013-03-18"),
            Resolution::MIN_15,
            4,
            SeriesCodec::Binary,
        )
        .unwrap();
        w.write_consumer("0", ConsumerKind::Household, &sample_measured(), None, None)
            .unwrap();
        w.finish().unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().to_string())
            .collect();
        assert!(
            !names.iter().any(|n| n.ends_with(".csv")),
            "stale CSV files survived the re-export: {names:?}"
        );
        assert_eq!(
            names.iter().filter(|n| n.ends_with(".fxm")).count(),
            1,
            "{names:?}"
        );
        let ds = Dataset::open(&dir).unwrap();
        assert_eq!(ds.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truth_files_must_be_gap_free() {
        let dir = scratch("truthgap");
        write_sample(&dir, SeriesCodec::Csv);
        std::fs::write(dir.join("truth_0.csv"), codec::to_csv(&sample_measured())).unwrap();
        let ds = Dataset::open(&dir).unwrap();
        let err = ds.consumer(0).unwrap_err();
        assert!(err.to_string().contains("gap-free"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_rejects_off_grid_consumers() {
        let dir = scratch("offgrid");
        let mut w = DatasetWriter::create(
            &dir,
            "unit",
            "d",
            ts("2013-03-18"),
            Resolution::MIN_15,
            4,
            SeriesCodec::Csv,
        )
        .unwrap();
        let wrong_len =
            MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_15, vec![1.0; 5]).unwrap();
        assert!(w
            .write_consumer("x", ConsumerKind::Household, &wrong_len, None, None)
            .is_err());
        let wrong_res =
            MeasuredSeries::new(ts("2013-03-18"), Resolution::HOUR_1, vec![1.0; 4]).unwrap();
        assert!(w
            .write_consumer("x", ConsumerKind::Household, &wrong_res, None, None)
            .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_writer_rejects_single_interval_grids() {
        let dir = scratch("csv1row");
        let err = DatasetWriter::create(
            &dir,
            "unit",
            "d",
            ts("2013-03-18"),
            Resolution::MIN_15,
            1,
            SeriesCodec::Csv,
        )
        .unwrap_err();
        assert!(err.to_string().contains("at least 2 intervals"), "{err}");
        // The binary codec handles single-interval series fine.
        let mut w = DatasetWriter::create(
            &dir,
            "unit",
            "d",
            ts("2013-03-18"),
            Resolution::MIN_15,
            1,
            SeriesCodec::Binary,
        )
        .unwrap();
        let one = MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_15, vec![0.5]).unwrap();
        w.write_consumer("0", ConsumerKind::Household, &one, None, None)
            .unwrap();
        w.finish().unwrap();
        let ds = Dataset::open(&dir).unwrap();
        assert_eq!(ds.consumer(0).unwrap().measured.values(), &[0.5]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ranged_reads_slice_without_decoding_everything() {
        use flextract_time::Duration;
        // Two days of 15-min data in FXM2: 192 intervals, 2 chunks of
        // 96 — a one-day slice must decode exactly one chunk.
        let dir = scratch("ranged");
        let mut w = DatasetWriter::create(
            &dir,
            "unit",
            "ranged-read dataset",
            ts("2013-03-18"),
            Resolution::MIN_15,
            192,
            SeriesCodec::Binary,
        )
        .unwrap();
        let values: Vec<f64> = (0..192)
            .map(|i| if i == 100 { f64::NAN } else { i as f64 * 0.01 })
            .collect();
        let m = MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_15, values).unwrap();
        let truth = TimeSeries::new(
            ts("2013-03-18"),
            Resolution::MIN_15,
            (0..192).map(|i| i as f64 * 0.01).collect(),
        )
        .unwrap();
        w.write_consumer("0", ConsumerKind::Household, &m, Some(&truth), Some(&truth))
            .unwrap();
        w.finish().unwrap();

        let ds = Dataset::open(&dir).unwrap();
        let day2 = TimeRange::starting_at(ts("2013-03-19"), Duration::days(1)).unwrap();
        let (slice, report) = ds.consumer_slice(0, day2).unwrap();
        assert_eq!(slice.start(), ts("2013-03-19"));
        assert_eq!(slice.len(), 96);
        assert_eq!(report.chunks_decoded, 1, "{report:?}");
        assert_eq!(report.chunks_skipped_slice, 1);
        for (j, v) in slice.values().iter().enumerate() {
            let orig = m.values()[96 + j];
            assert!(v.is_nan() == orig.is_nan());
            if !v.is_nan() {
                assert_eq!(v.to_bits(), orig.to_bits());
            }
        }

        // The ranged record slices measured AND truth to the range.
        let record = ds.consumer_in(0, day2, true).unwrap();
        assert_eq!(record.measured.len(), 96);
        assert_eq!(record.measured.gap_count(), 1);
        let truth_slice = record.truth_total.unwrap();
        assert_eq!(truth_slice.start(), ts("2013-03-19"));
        assert_eq!(truth_slice.len(), 96);
        assert_eq!(truth_slice.values()[0], 0.96);

        // Aggregates over the whole series answer from stats alone.
        let (agg, report) = ds.consumer_aggregates(0, &Scan::new()).unwrap();
        assert_eq!(report.chunks_decoded, 0);
        assert_eq!(report.chunks_stats_only, 2);
        assert_eq!(agg.gaps, 1);
        assert_eq!(agg.observed, 191);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_v1_datasets_write_and_read_back() {
        let dir = scratch("binv1");
        let mut w = DatasetWriter::create(
            &dir,
            "unit",
            "legacy-codec dataset",
            ts("2013-03-18"),
            Resolution::MIN_15,
            4,
            SeriesCodec::BinaryV1,
        )
        .unwrap();
        w.write_consumer("0", ConsumerKind::Household, &sample_measured(), None, None)
            .unwrap();
        w.finish().unwrap();
        // The file carries the FXM1 magic and the read path sniffs it.
        let raw = std::fs::read(dir.join("consumer_0.fxm")).unwrap();
        assert_eq!(codec::sniff(&raw), Some(codec::FxmVersion::V1));
        let ds = Dataset::open(&dir).unwrap();
        assert_eq!(ds.codec(), SeriesCodec::BinaryV1);
        assert!(!ds.is_sharded());
        let rec = ds.consumer(0).unwrap();
        assert_eq!(rec.measured.gap_count(), 1);
        // Frames over v1 files carry no stats: scans degrade to full
        // decodes but still answer.
        let frame = ds.consumer_frame(0).unwrap();
        assert!(frame.chunks().iter().all(|c| c.stats.is_none()));
        let (agg, report) = ds.consumer_aggregates(0, &Scan::new()).unwrap();
        assert_eq!(agg.gaps, 1);
        assert_eq!(report.chunks_stats_only, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_ids_are_rejected_on_open() {
        let dir = scratch("dup");
        let mut manifest = write_sample(&dir, SeriesCodec::Csv);
        manifest.consumers[1].id = manifest.consumers[0].id.clone();
        std::fs::write(
            dir.join(MANIFEST_FILE),
            serde_json::to_string_pretty(&manifest).unwrap(),
        )
        .unwrap();
        let err = Dataset::open(&dir).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
