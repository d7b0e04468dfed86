//! The on-disk dataset: a manifest plus one series file per consumer.
//!
//! A dataset is a directory:
//!
//! ```text
//! <dir>/
//!   manifest.json          — fleet metadata + consumer directory
//!   consumer_<id>.csv|.fxm — measured series, one file per consumer
//!   truth_<id>.csv|.fxm    — (exported datasets) undegraded total
//!   flex_<id>.csv|.fxm     — (exported datasets) true flexible series
//! ```
//!
//! The layout is columnar twice over: each consumer's series is its
//! own contiguous column file (loading consumer `i` touches
//! `O(intervals)` bytes regardless of fleet size), and each file is a
//! chunked [`Frame`] — FXM2 files carry per-chunk statistics and a
//! footer index, so **ranged reads** ([`Dataset::consumer_in`],
//! [`Dataset::consumer_slice`]) decode only the chunks overlapping a
//! time slice and stat queries ([`Dataset::consumer_aggregates`]) may
//! decode no payload at all. The scenario runner's sharded workers
//! pull consumers by index concurrently through a shared [`Dataset`]
//! handle (`&self` loads — no interior mutability, no cache).
//! Ground-truth files ride along only when the dataset was exported
//! from the simulator; real metered feeds simply do not have them.

use crate::codec;
use crate::degrade::Degradation;
use crate::{DatasetError, MeasuredSeries};
use bytes::Bytes;
use flextract_frame::{Aggregates, Frame, Scan, ScanReport};
use flextract_time::{Resolution, TimeRange, Timestamp};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

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

/// A dataset opened for reading. Loading is per consumer and takes
/// `&self`, so one handle can be shared across shard workers.
///
/// Two on-disk layouts open through the same handle, sniffed like the
/// series codecs: a directory holding a [`ROOT_FILE`](crate::ROOT_FILE)
/// is a **sharded** store (a root index over `shards/NNNN/` directories,
/// each an ordinary single-manifest dataset, opened lazily on first
/// access), anything else is the **legacy** single-manifest layout.
/// Consumer indices are global either way: a sharded store routes index
/// `i` to the shard holding it via the root's per-shard counts, without
/// opening any other shard.
#[derive(Debug)]
pub struct Dataset {
    dir: PathBuf,
    layout: Layout,
    /// On-disk size of the index parsed at open (`root.json` or
    /// `manifest.json`) — what [`ScanReport::bytes_read_index`]
    /// accounts for cold opens.
    index_bytes: usize,
}

#[derive(Debug)]
enum Layout {
    /// One `manifest.json` naming every consumer.
    Legacy(LegacyLayout),
    /// A root index over lazily-opened shard datasets. Each slot caches
    /// the outcome of the first open (errors included), so repeated
    /// access neither re-reads nor flip-flops.
    Sharded {
        root: crate::sharded::RootIndex,
        shards: Vec<std::sync::OnceLock<Result<Dataset, DatasetError>>>,
    },
}

/// A legacy single-manifest layout with its grid parsed **once** at
/// open. Per-consumer validation and loads reuse the parsed start and
/// resolution instead of re-parsing the manifest's strings on every
/// access — open already parsed them to validate alignment, so keeping
/// them is free and the per-consumer paths stop paying a string parse
/// per file touched.
#[derive(Debug)]
struct LegacyLayout {
    manifest: Manifest,
    start: Timestamp,
    resolution: Resolution,
}

pub(crate) fn read_file(path: &Path) -> Result<Vec<u8>, DatasetError> {
    std::fs::read(path).map_err(|e| DatasetError::Io {
        path: path.display().to_string(),
        what: e.to_string(),
    })
}

/// Decode raw series-file bytes into a chunk-addressable [`Frame`]:
/// binary formats are sniffed by magic (FXM2/FXM3 open lazily, FXM1
/// with one decode pass); anything else parses as CSV and is chunked
/// virtually on the same partitioning.
pub(crate) fn frame_from_raw(raw: Vec<u8>, display: &str) -> Result<Frame, DatasetError> {
    if codec::sniff(&raw).is_some() {
        Frame::from_fxm_bytes(Bytes::from(raw), display).map_err(Into::into)
    } else {
        let text = String::from_utf8(raw).map_err(|_| DatasetError::Invalid {
            file: display.to_string(),
            what: "not valid UTF-8 (and not FXM binary)".to_string(),
        })?;
        let measured = codec::from_csv(&text, display)?;
        Frame::from_measured(measured, codec::DEFAULT_CHUNK_LEN, display).map_err(Into::into)
    }
}

impl Dataset {
    /// Open `dir`, sniffing the layout: a directory carrying
    /// `root.json` opens as a sharded store (shard manifests load
    /// lazily on first access), anything else as a legacy
    /// single-manifest dataset — the migration contract that keeps
    /// pre-sharding directories readable, like `SeriesCodec::BinaryV1`
    /// files staying loadable by magic.
    pub fn open(dir: impl AsRef<Path>) -> Result<Dataset, DatasetError> {
        let dir = dir.as_ref().to_path_buf();
        let root_path = dir.join(crate::sharded::ROOT_FILE);
        if root_path.is_file() {
            let index_bytes = std::fs::metadata(&root_path)
                .map(|m| m.len() as usize)
                .unwrap_or(0);
            let root = crate::sharded::read_root(&dir)?;
            let shards = root.shards.iter().map(|_| Default::default()).collect();
            Ok(Dataset {
                dir,
                layout: Layout::Sharded { root, shards },
                index_bytes,
            })
        } else {
            Self::open_legacy(&dir)
        }
    }

    /// Open `dir` as a legacy single-manifest dataset, parse and
    /// validate its manifest.
    pub(crate) fn open_legacy(dir: &Path) -> Result<Dataset, DatasetError> {
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
        let res = manifest.resolution()?;
        if !start.is_aligned(res) {
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
        Ok(Dataset {
            dir,
            layout: Layout::Legacy(LegacyLayout {
                manifest,
                start,
                resolution: res,
            }),
            index_bytes,
        })
    }

    /// The parsed manifest of a legacy single-manifest dataset; `None`
    /// for a sharded store (whose metadata lives in
    /// [`Dataset::root`] and the layout-independent accessors).
    pub fn manifest(&self) -> Option<&Manifest> {
        match &self.layout {
            Layout::Legacy(l) => Some(&l.manifest),
            Layout::Sharded { .. } => None,
        }
    }

    /// The root index of a sharded store; `None` for a legacy dataset.
    pub fn root(&self) -> Option<&crate::sharded::RootIndex> {
        match &self.layout {
            Layout::Legacy(_) => None,
            Layout::Sharded { root, .. } => Some(root),
        }
    }

    /// `true` when this dataset uses the sharded layout.
    pub fn is_sharded(&self) -> bool {
        matches!(self.layout, Layout::Sharded { .. })
    }

    /// Number of shards: 1 for a legacy dataset (the whole directory is
    /// one implicit shard), the root's shard count for a sharded store.
    pub fn shard_count(&self) -> usize {
        match &self.layout {
            Layout::Legacy(_) => 1,
            Layout::Sharded { root, .. } => root.shards.len(),
        }
    }

    /// The dataset directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of consumers (across every shard for a sharded store).
    pub fn len(&self) -> usize {
        match &self.layout {
            Layout::Legacy(l) => l.manifest.consumers.len(),
            Layout::Sharded { root, .. } => root.len(),
        }
    }

    /// `true` if the dataset has no consumers (never true for an opened
    /// dataset — `open` rejects empty manifests and empty roots).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        match &self.layout {
            Layout::Legacy(l) => &l.manifest.name,
            Layout::Sharded { root, .. } => &root.name,
        }
    }

    /// One-line human description.
    pub fn description(&self) -> &str {
        match &self.layout {
            Layout::Legacy(l) => &l.manifest.description,
            Layout::Sharded { root, .. } => &root.description,
        }
    }

    /// The declared start, as stored (`YYYY-MM-DD [HH:MM]`).
    pub fn start_str(&self) -> &str {
        match &self.layout {
            Layout::Legacy(l) => &l.manifest.start,
            Layout::Sharded { root, .. } => &root.start,
        }
    }

    /// The declared start timestamp, parsed.
    pub fn start_timestamp(&self) -> Result<Timestamp, DatasetError> {
        match &self.layout {
            Layout::Legacy(l) => Ok(l.start),
            Layout::Sharded { root, .. } => root.start_timestamp(),
        }
    }

    /// The declared resolution, in minutes.
    pub fn resolution_min(&self) -> i64 {
        match &self.layout {
            Layout::Legacy(l) => l.manifest.resolution_min,
            Layout::Sharded { root, .. } => root.resolution_min,
        }
    }

    /// The declared resolution, parsed.
    pub fn resolution(&self) -> Result<Resolution, DatasetError> {
        match &self.layout {
            Layout::Legacy(l) => Ok(l.resolution),
            Layout::Sharded { root, .. } => root.resolution(),
        }
    }

    /// Interval count of every measured series.
    pub fn intervals(&self) -> usize {
        match &self.layout {
            Layout::Legacy(l) => l.manifest.intervals,
            Layout::Sharded { root, .. } => root.intervals,
        }
    }

    /// How the series files are encoded.
    pub fn codec(&self) -> SeriesCodec {
        match &self.layout {
            Layout::Legacy(l) => l.manifest.codec,
            Layout::Sharded { root, .. } => root.codec,
        }
    }

    /// Name of the scenario this dataset was exported from, if any.
    pub fn source_scenario(&self) -> Option<&str> {
        match &self.layout {
            Layout::Legacy(l) => l.manifest.source_scenario.as_deref(),
            Layout::Sharded { root, .. } => root.source_scenario.as_deref(),
        }
    }

    /// The degradation applied at export time, if any.
    pub fn degradation(&self) -> Option<&Degradation> {
        match &self.layout {
            Layout::Legacy(l) => l.manifest.degradation.as_ref(),
            Layout::Sharded { root, .. } => root.degradation.as_ref(),
        }
    }

    /// The export seed, if exported.
    pub fn seed(&self) -> Option<u64> {
        match &self.layout {
            Layout::Legacy(l) => l.manifest.seed,
            Layout::Sharded { root, .. } => root.seed,
        }
    }

    /// `true` when every consumer carries a ground-truth total series.
    /// A sharded store answers from the root roll-up without opening
    /// any shard.
    pub fn all_have_truth(&self) -> bool {
        match &self.layout {
            Layout::Legacy(l) => l.manifest.consumers.iter().all(|c| c.truth_total.is_some()),
            Layout::Sharded { root, .. } => root.shards.iter().all(|s| s.with_truth == s.consumers),
        }
    }

    /// The [`DatasetError::OutOfRange`] for `index` against this
    /// dataset, naming the valid range and the directory.
    fn out_of_range(&self, index: usize) -> DatasetError {
        DatasetError::OutOfRange {
            index,
            len: self.len(),
            dir: self.dir.display().to_string(),
        }
    }

    /// The manifest when this is a legacy dataset; a typed internal
    /// error otherwise (routing always lands consumer access on a
    /// legacy handle, so hitting this on a sharded one is a bug, but a
    /// reportable one rather than a panic).
    fn legacy(&self) -> Result<&Manifest, DatasetError> {
        self.legacy_layout().map(|l| &l.manifest)
    }

    /// The legacy layout (manifest plus the grid parsed at open); same
    /// contract as [`Dataset::legacy`].
    fn legacy_layout(&self) -> Result<&LegacyLayout, DatasetError> {
        match &self.layout {
            Layout::Legacy(l) => Ok(l),
            Layout::Sharded { .. } => Err(DatasetError::Invalid {
                file: self.dir.display().to_string(),
                what: "internal: expected a single-manifest dataset handle".to_string(),
            }),
        }
    }

    /// Crate-internal accessor for shard validation.
    pub(crate) fn legacy_manifest(&self) -> Result<&Manifest, DatasetError> {
        self.legacy()
    }

    /// Open (or fetch the cached handle of) shard `k`. The first open
    /// reads and validates the shard manifest against the root; the
    /// outcome — success or error — is cached in the slot.
    fn shard(&self, k: usize) -> Result<&Dataset, DatasetError> {
        let Layout::Sharded { root, shards } = &self.layout else {
            return Err(DatasetError::Invalid {
                file: self.dir.display().to_string(),
                what: "internal: shard access on a single-manifest dataset".to_string(),
            });
        };
        let Some((summary, slot)) = root.shards.get(k).zip(shards.get(k)) else {
            return Err(DatasetError::Invalid {
                file: self.dir.display().to_string(),
                what: format!(
                    "internal: shard index {k} out of range for {} shard(s)",
                    root.shards.len()
                ),
            });
        };
        slot.get_or_init(|| crate::sharded::open_shard(&self.dir, root, summary))
            .as_ref()
            .map_err(|e| e.clone())
    }

    /// Route a global consumer index to the dataset handle holding it:
    /// `(self, idx)` for a legacy dataset, `(shard, local_idx)` for a
    /// sharded one — found from the root's per-shard counts, opening
    /// only that shard.
    fn locate(&self, idx: usize) -> Result<(&Dataset, usize), DatasetError> {
        match &self.layout {
            Layout::Legacy(l) => {
                if idx < l.manifest.consumers.len() {
                    Ok((self, idx))
                } else {
                    Err(self.out_of_range(idx))
                }
            }
            Layout::Sharded { root, .. } => {
                let mut rel = idx;
                for (k, summary) in root.shards.iter().enumerate() {
                    if rel < summary.consumers {
                        return Ok((self.shard(k)?, rel));
                    }
                    rel -= summary.consumers;
                }
                Err(self.out_of_range(idx))
            }
        }
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

    /// Materialize a frame, whole or sliced to `range` (a ranged read:
    /// only the chunks overlapping the slice decode).
    fn materialize(frame: Frame, range: Option<TimeRange>) -> Result<MeasuredSeries, DatasetError> {
        match range {
            // Whole-series read: already-materialized frames (FXM1,
            // CSV) move their values instead of copying.
            None => frame.into_measured().map_err(Into::into),
            Some(r) => Scan::new()
                .time_slice(r)
                .materialize(&frame)
                .map(|(series, _)| series)
                .map_err(Into::into),
        }
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
        start: Timestamp,
        range: Option<TimeRange>,
    ) -> Result<flextract_series::TimeSeries, DatasetError> {
        let manifest = self.legacy()?;
        let frame = self.load_frame(file)?;
        let header = *frame.header();
        let display = || self.dir.join(file).display().to_string();
        if header.start != start {
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
        let measured = Self::materialize(frame, range)?;
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

    /// Load consumer `idx` (measured series plus any ground truth),
    /// validating it against the manifest's declared grid. Indices are
    /// global: a sharded store routes to the holding shard.
    pub fn consumer(&self, idx: usize) -> Result<DatasetRecord, DatasetError> {
        let (ds, rel) = self.locate(idx)?;
        ds.load_consumer(rel, true, None)
    }

    /// Like [`Dataset::consumer`], but skip loading the ground-truth
    /// *total* series (`truth_total` comes back `None` even when the
    /// manifest names it). `truth_flex` still loads — it is the
    /// scoring reference. For callers that will not run a fidelity
    /// comparison, this avoids reading and decoding one file per
    /// consumer for nothing.
    pub fn consumer_without_truth_total(&self, idx: usize) -> Result<DatasetRecord, DatasetError> {
        let (ds, rel) = self.locate(idx)?;
        ds.load_consumer(rel, false, None)
    }

    /// Ranged consumer read: like [`Dataset::consumer`] /
    /// [`Dataset::consumer_without_truth_total`], but every series
    /// (measured and ground truth) is materialized only over `range` —
    /// for FXM2 files, chunks outside the range are never decoded.
    /// The file's declared grid is still validated against the
    /// manifest in full (a header check, no decode).
    pub fn consumer_in(
        &self,
        idx: usize,
        range: TimeRange,
        with_truth_total: bool,
    ) -> Result<DatasetRecord, DatasetError> {
        let (ds, rel) = self.locate(idx)?;
        ds.load_consumer(rel, with_truth_total, Some(range))
    }

    /// The grid-validated lazy frame of consumer `idx`'s measured
    /// series — the entry point for scans and pushdown queries.
    pub fn consumer_frame(&self, idx: usize) -> Result<Frame, DatasetError> {
        let (ds, rel) = self.locate(idx)?;
        ds.frame_local(rel)
    }

    /// The grid-validated frame at a **local** (shard-relative) index —
    /// the shared open step behind every consumer-level query path.
    fn frame_local(&self, rel: usize) -> Result<Frame, DatasetError> {
        let entry = self.entry_local(rel)?;
        let frame = self.load_frame(&entry.measured)?;
        self.validate_grid(&frame, &entry.measured)?;
        Ok(frame)
    }

    /// Index bytes a cold open consults to answer a query for consumer
    /// `idx`: the top-level index (`root.json` or `manifest.json`) plus,
    /// for a sharded store, the holding shard's own manifest.
    pub fn consumer_index_bytes(&self, idx: usize) -> Result<usize, DatasetError> {
        let (ds, _) = self.locate(idx)?;
        Ok(self.index_bytes + if self.is_sharded() { ds.index_bytes } else { 0 })
    }

    /// On-disk size of the index this handle parsed at open:
    /// `root.json` for a sharded store, `manifest.json` for a legacy
    /// dataset — the fixed routing cost every cold query pays before
    /// touching a series file, accounted by
    /// [`ScanReport::bytes_read_index`].
    pub fn index_bytes(&self) -> usize {
        self.index_bytes
    }

    /// Consumer `idx`'s manifest entry. For a sharded store this opens
    /// (at most) the holding shard.
    pub fn consumer_entry(&self, idx: usize) -> Result<ConsumerEntry, DatasetError> {
        let (ds, rel) = self.locate(idx)?;
        ds.entry_local(rel).cloned()
    }

    /// The local (shard-relative) manifest entry at `idx`.
    fn entry_local(&self, idx: usize) -> Result<&ConsumerEntry, DatasetError> {
        let manifest = self.legacy()?;
        manifest
            .consumers
            .get(idx)
            .ok_or_else(|| self.out_of_range(idx))
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
    /// (top-level index + holding shard manifest) — single-consumer
    /// queries pay the full routing cost; fleet sweeps charge each
    /// index once instead (see [`Dataset::fleet_aggregates`]).
    pub fn consumer_aggregates_with(
        &self,
        idx: usize,
        scan: &Scan,
        scratch: &mut Vec<f64>,
    ) -> Result<(Aggregates, ScanReport), DatasetError> {
        let (ds, rel) = self.locate(idx)?;
        let frame = ds.frame_local(rel)?;
        let (agg, mut report) = scan.aggregates_with(&frame, scratch)?;
        report.bytes_read_index =
            self.index_bytes + if self.is_sharded() { ds.index_bytes } else { 0 };
        Ok((agg, report))
    }

    /// Execute `scan` against every consumer of shard `k`, pruning the
    /// whole shard from its roll-up when the statistics allow it:
    ///
    /// * any predicate excluded by the roll-up, or a time slice
    ///   disjoint from the shard's coverage ⇒ **pruned** — neither the
    ///   shard manifest nor any series file is opened;
    /// * no predicates and the slice covers the whole shard ⇒
    ///   **stats-only** — answered from the roll-up alone (built with
    ///   the same fold association as a full scan, so the answer is
    ///   bit-identical);
    /// * otherwise every consumer is scanned and merged in consumer
    ///   order, reusing `scratch` across decodes.
    ///
    /// The report counts this shard under `shards_*`; per-chunk
    /// counters accumulate only when files actually open. Legacy
    /// datasets have no shards — use [`Dataset::fleet_aggregates`].
    pub fn shard_aggregates(
        &self,
        k: usize,
        scan: &Scan,
        scratch: &mut Vec<f64>,
    ) -> Result<(Aggregates, ScanReport), DatasetError> {
        let Layout::Sharded { root, .. } = &self.layout else {
            return Err(DatasetError::Invalid {
                file: self.dir.display().to_string(),
                what: "internal: shard_aggregates on a single-manifest dataset".to_string(),
            });
        };
        let Some(summary) = root.shards.get(k) else {
            return Err(DatasetError::Invalid {
                file: self.dir.display().to_string(),
                what: format!(
                    "internal: shard index {k} out of range for {} shard(s)",
                    root.shards.len()
                ),
            });
        };
        let mut report = ScanReport {
            shards_total: 1,
            ..ScanReport::default()
        };
        let coverage = summary.coverage(root.resolution()?)?;
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
        let shard = self.shard(k)?;
        // The shard's manifest is consulted once for the whole sweep —
        // charge it once, not per consumer (the caller adds the root).
        report.bytes_read_index = shard.index_bytes;
        let mut agg = Aggregates::default();
        for rel in 0..summary.consumers {
            let frame = shard.frame_local(rel)?;
            let (a, r) = scan.aggregates_with(&frame, scratch)?;
            agg.merge(&a);
            report.absorb(&r);
        }
        Ok((agg, report))
    }

    /// Execute `scan` against every consumer in the store, in the
    /// canonical fold order (chunk → consumer → shard → fleet), with
    /// shard-level pruning for sharded stores. A legacy dataset counts
    /// as one implicit shard that always opens.
    pub fn fleet_aggregates(&self, scan: &Scan) -> Result<(Aggregates, ScanReport), DatasetError> {
        let mut scratch = Vec::new();
        match &self.layout {
            Layout::Legacy(l) => {
                let mut report = ScanReport {
                    shards_total: 1,
                    // One manifest parse serves the whole sweep.
                    bytes_read_index: self.index_bytes,
                    ..ScanReport::default()
                };
                let mut sub = Aggregates::default();
                for rel in 0..l.manifest.consumers.len() {
                    let frame = self.frame_local(rel)?;
                    let (a, r) = scan.aggregates_with(&frame, &mut scratch)?;
                    sub.merge(&a);
                    report.absorb(&r);
                }
                let mut agg = Aggregates::default();
                agg.merge(&sub);
                Ok((agg, report))
            }
            Layout::Sharded { root, .. } => {
                let mut agg = Aggregates::default();
                let mut report = ScanReport {
                    // The root index is parsed once for the whole
                    // fleet; opened shard manifests accumulate from
                    // the per-shard reports.
                    bytes_read_index: self.index_bytes,
                    ..ScanReport::default()
                };
                for k in 0..root.shards.len() {
                    let (a, r) = self.shard_aggregates(k, scan, &mut scratch)?;
                    agg.merge(&a);
                    report.absorb(&r);
                }
                Ok((agg, report))
            }
        }
    }

    /// Consumer `idx`'s manifest entry plus the raw bytes of every file
    /// it references — the compaction primitive (files are copied
    /// byte-for-byte, never re-encoded).
    pub(crate) fn consumer_raw(
        &self,
        idx: usize,
    ) -> Result<(ConsumerEntry, Vec<RawFile>), DatasetError> {
        let (ds, rel) = self.locate(idx)?;
        let entry = ds.entry_local(rel)?.clone();
        let mut files = Vec::new();
        for file in [Some(&entry.measured), entry.truth_total.as_ref()]
            .into_iter()
            .flatten()
            .chain(entry.truth_flex.as_ref())
        {
            files.push((file.clone(), read_file(&ds.dir.join(file))?));
        }
        Ok((entry, files))
    }

    /// Check a frame's header against the manifest's declared grid —
    /// a constant-time check that decodes nothing.
    fn validate_grid(&self, frame: &Frame, file: &str) -> Result<(), DatasetError> {
        // The grid was parsed once at open — per-consumer validation
        // compares against the parsed form instead of re-parsing the
        // manifest's strings on every file touched.
        let layout = self.legacy_layout()?;
        let manifest = &layout.manifest;
        let header = frame.header();
        let file = self.dir.join(file).display().to_string();
        let start = layout.start;
        let res = layout.resolution;
        if header.start != start {
            return Err(DatasetError::Invalid {
                file,
                what: format!(
                    "series starts at {} but the manifest declares {}",
                    header.start, manifest.start
                ),
            });
        }
        if header.resolution != res {
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

    /// Local (shard-relative) consumer load; public callers route
    /// through [`Dataset::locate`] first.
    fn load_consumer(
        &self,
        idx: usize,
        with_truth_total: bool,
        range: Option<TimeRange>,
    ) -> Result<DatasetRecord, DatasetError> {
        let entry = self.entry_local(idx)?;
        let frame = self.load_frame(&entry.measured)?;
        self.validate_grid(&frame, &entry.measured)?;
        let measured = Self::materialize(frame, range)?;
        let start = self.legacy_layout()?.start;
        let truth_total = if with_truth_total {
            entry
                .truth_total
                .as_ref()
                .map(|f| self.load_truth_file(f, start, range))
                .transpose()?
        } else {
            None
        };
        let truth_flex = entry
            .truth_flex
            .as_ref()
            .map(|f| self.load_truth_file(f, start, range))
            .transpose()?;
        Ok(DatasetRecord {
            entry: entry.clone(),
            measured,
            truth_total,
            truth_flex,
        })
    }
}

/// Writes a dataset directory consumer by consumer, then the manifest.
///
/// The writer holds only the manifest in memory; each consumer's series
/// goes straight to disk, so exporting a large fleet stays memory-light.
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

    fn write_series_file(&self, file: &str, series: &MeasuredSeries) -> Result<(), DatasetError> {
        let path = self.dir.join(file);
        std::fs::write(&path, codec::encode(series, self.manifest.codec)).map_err(|e| {
            DatasetError::Io {
                path: path.display().to_string(),
                what: e.to_string(),
            }
        })
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
        let declared = |what: String| DatasetError::Invalid {
            file: format!("consumer `{id}`"),
            what,
        };
        if measured.start().to_string() != self.manifest.start {
            return Err(declared(format!(
                "starts at {} but the dataset declares {}",
                measured.start(),
                self.manifest.start
            )));
        }
        if measured.resolution().minutes() != self.manifest.resolution_min {
            return Err(declared(format!(
                "resolution {} does not match the declared {} min",
                measured.resolution(),
                self.manifest.resolution_min
            )));
        }
        if measured.len() != self.manifest.intervals {
            return Err(declared(format!(
                "{} intervals but the dataset declares {}",
                measured.len(),
                self.manifest.intervals
            )));
        }
        let ext = self.manifest.codec.extension();
        let measured_file = format!("consumer_{id}.{ext}");
        self.write_series_file(&measured_file, measured)?;
        let truth_total_file = truth_total
            .map(|s| {
                let file = format!("truth_{id}.{ext}");
                self.write_series_file(&file, &MeasuredSeries::from_series(s))
                    .map(|()| file)
            })
            .transpose()?;
        let truth_flex_file = truth_flex
            .map(|s| {
                let file = format!("flex_{id}.{ext}");
                self.write_series_file(&file, &MeasuredSeries::from_series(s))
                    .map(|()| file)
            })
            .transpose()?;
        self.manifest.consumers.push(ConsumerEntry {
            id: id.to_string(),
            kind,
            measured: measured_file,
            truth_total: truth_total_file,
            truth_flex: truth_flex_file,
            gap_count: measured.gap_count(),
        });
        Ok(())
    }

    /// Adopt an already-encoded consumer byte-for-byte: write its raw
    /// series files and push its entry unchanged. The compaction
    /// primitive — no re-encoding, no grid re-validation (the bytes
    /// came from a validated store and are copied, not interpreted).
    pub(crate) fn adopt_consumer_raw(
        &mut self,
        entry: &ConsumerEntry,
        files: &[RawFile],
    ) -> Result<(), DatasetError> {
        for (name, raw) in files {
            let path = self.dir.join(name);
            std::fs::write(&path, raw).map_err(|e| DatasetError::Io {
                path: path.display().to_string(),
                what: e.to_string(),
            })?;
        }
        self.manifest.consumers.push(entry.clone());
        Ok(())
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
        std::fs::write(&path, json).map_err(|e| DatasetError::Io {
            path: path.display().to_string(),
            what: e.to_string(),
        })?;
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
        let stale_root = self.dir.join(crate::sharded::ROOT_FILE);
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
        assert_eq!(ds.manifest().unwrap().codec, SeriesCodec::BinaryV1);
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
