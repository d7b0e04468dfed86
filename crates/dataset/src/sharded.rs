//! The sharded dataset layout: a million-consumer store that opens in
//! `O(shards)`, prunes whole shards from roll-up statistics, and grows
//! by crash-safe append and compaction.
//!
//! ```text
//! <dir>/
//!   root.json                — root index: grid + one summary per shard
//!   shards/
//!     0000/
//!       manifest.json        — the shard's consumer directory
//!       consumer_<id>.fxm    — series files, one per consumer
//!       ...
//!     0001/
//!       ...
//! ```
//!
//! Each shard directory has the same shape as a single-manifest
//! dataset, and [`crate::Dataset`] reads both through one path: a
//! single-manifest directory opens as a store with one implicit shard.
//! What a root index on disk adds is a per-shard [`ShardSummary`] —
//! consumer count, time coverage, and min/max/sum/gap roll-ups folded
//! from the FXM2 chunk statistics in the canonical order — so a query
//! can exclude a whole shard without opening its manifest, the same
//! statistics-only-exclude contract as chunk pushdown, one level up.
//!
//! # Crash safety
//!
//! `root.json` is the **only** commit point, swapped by
//! write-temp-then-rename. Writers (export, append, compaction) only
//! ever create *new* shard directories that no committed root
//! references; a crash at any intermediate step leaves the previous
//! root — and every shard it references — byte-for-byte intact, with at
//! worst some orphaned files that the next successful commit sweeps
//! out. Shard ids are allocated from `next_shard_id`, which only
//! advances on commit: a committed id is never reused, while the
//! orphans of a crashed session are safely overwritten by the next one.
//!
//! # Append and compaction
//!
//! Every append session seals its consumers into fresh shard
//! directories (at most [`RootIndex::shard_capacity`] consumers each),
//! so repeated small appends accumulate small shards. [`compact`]
//! rewrites the store into canonical capacity-aligned shards — the same
//! grouping a fresh export produces — copying series files byte-for-byte
//! and recomputing roll-ups, then swaps the root and removes every
//! unreferenced shard directory. Single-manifest directories remain
//! fully readable: [`crate::Dataset::open`] looks for `root.json`
//! first and otherwise synthesizes a one-shard root in memory, like
//! the codec sniffing that keeps `SeriesCodec::BinaryV1` files
//! loadable.

use crate::degrade::Degradation;
use crate::store::{
    frame_from_raw, read_file, ConsumerEntry, ConsumerKind, Dataset, DatasetWriter, Manifest,
    SeriesCodec, Shard, FORMAT_VERSION,
};
use crate::{DatasetError, MeasuredSeries};
use flextract_frame::{Aggregates, ChunkStats, Predicate, Scan};
use flextract_time::{Resolution, TimeRange, Timestamp};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// The root-index file name inside a sharded dataset directory.
pub const ROOT_FILE: &str = "root.json";

/// The sub-directory holding the shard directories.
pub const SHARDS_DIR: &str = "shards";

/// Default consumers per shard for sharded exports.
pub const DEFAULT_SHARD_CAPACITY: usize = 512;

/// One shard's entry in the root index: where it lives, how many
/// consumers it holds, and the statistics roll-up that lets queries
/// prune it without opening anything.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSummary {
    /// Shard id; the directory name is the id zero-padded to 4 digits.
    pub id: u64,
    /// Committed consumer count (authoritative over the shard
    /// manifest's own list).
    pub consumers: usize,
    /// How many of those consumers carry a ground-truth total series.
    pub with_truth: usize,
    /// Total missing intervals across the shard's measured series.
    pub gap_count: usize,
    /// Smallest observed value anywhere in the shard (kWh per
    /// interval); `None` when nothing is observed.
    pub min_kwh: Option<f64>,
    /// Largest observed value anywhere in the shard.
    pub max_kwh: Option<f64>,
    /// Sum of observed values, folded per chunk, then per consumer,
    /// then across consumers in index order.
    pub sum_kwh: f64,
    /// First instant covered by the shard's series.
    pub start: String,
    /// Interval count covered by the shard's series.
    pub intervals: usize,
}

impl ShardSummary {
    /// The shard's directory name under [`SHARDS_DIR`].
    pub fn dir_name(&self) -> String {
        format!("{:04}", self.id)
    }

    /// The roll-up as an [`Aggregates`] over every interval of every
    /// consumer in the shard — the statistics-only answer to a
    /// whole-shard, no-predicate scan.
    pub fn aggregates(&self) -> Aggregates {
        let intervals = self.consumers * self.intervals;
        Aggregates {
            intervals,
            observed: intervals.saturating_sub(self.gap_count),
            gaps: self.gap_count,
            sum_kwh: self.sum_kwh,
            min: self.min_kwh,
            max: self.max_kwh,
        }
    }

    /// `true` when the roll-up proves `predicate` cannot match any
    /// chunk of any consumer in the shard — the shard-level mirror of
    /// chunk-statistics exclusion (statistics only ever exclude).
    pub fn excludes(&self, predicate: &Predicate) -> bool {
        match predicate {
            Predicate::HasGaps => self.gap_count == 0,
            Predicate::MaxAbove(t) => self.max_kwh.is_none_or(|m| m <= *t),
            Predicate::MinBelow(t) => self.min_kwh.is_none_or(|m| m >= *t),
        }
    }

    /// The time range covered by the shard's series.
    pub fn coverage(&self, resolution: Resolution) -> Result<TimeRange, DatasetError> {
        let start: Timestamp = self.start.parse().map_err(|e| DatasetError::Manifest {
            path: ROOT_FILE.to_string(),
            what: format!("shard {} start `{}`: {e}", self.id, self.start),
        })?;
        TimeRange::starting_at(start, resolution.interval() * self.intervals as i64).map_err(|e| {
            DatasetError::Manifest {
                path: ROOT_FILE.to_string(),
                what: format!("shard {} coverage: {e}", self.id),
            }
        })
    }
}

/// The root index of a sharded dataset: the declared grid (shared by
/// every shard) plus one [`ShardSummary`] per shard in consumer-index
/// order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RootIndex {
    /// Format version (currently [`FORMAT_VERSION`], shared with
    /// `manifest.json`).
    pub format: u32,
    /// Dataset name.
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// First instant covered by every measured series.
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
    /// Maximum consumers per shard (writers seal a shard when it
    /// fills).
    pub shard_capacity: usize,
    /// The next shard id a writer may allocate; only ever advances, so
    /// committed shard ids are never reused.
    pub next_shard_id: u64,
    /// The shards, in consumer-index order.
    pub shards: Vec<ShardSummary>,
}

impl RootIndex {
    /// The declared start timestamp, parsed.
    pub fn start_timestamp(&self) -> Result<Timestamp, DatasetError> {
        self.start.parse().map_err(|e| DatasetError::Manifest {
            path: ROOT_FILE.to_string(),
            what: format!("start `{}`: {e}", self.start),
        })
    }

    /// The declared resolution, parsed.
    pub fn resolution(&self) -> Result<Resolution, DatasetError> {
        Resolution::from_minutes(self.resolution_min).map_err(|e| DatasetError::Manifest {
            path: ROOT_FILE.to_string(),
            what: format!("resolution_min {}: {e}", self.resolution_min),
        })
    }

    /// Total consumers across every shard.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.consumers).sum()
    }

    /// `true` when the root lists no shards (never true once
    /// committed — writers refuse to commit an empty store).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The in-memory root of a single-manifest dataset: the manifest's
    /// grid and provenance over one implicit shard. The summary carries
    /// the manifest's counts but no roll-up — nothing on disk records
    /// one — so readers never prune a shard or answer from it.
    pub(crate) fn implicit(manifest: &Manifest) -> RootIndex {
        let consumers = &manifest.consumers;
        RootIndex {
            format: manifest.format,
            name: manifest.name.clone(),
            description: manifest.description.clone(),
            start: manifest.start.clone(),
            resolution_min: manifest.resolution_min,
            intervals: manifest.intervals,
            codec: manifest.codec,
            source_scenario: manifest.source_scenario.clone(),
            degradation: manifest.degradation.clone(),
            seed: manifest.seed,
            shard_capacity: consumers.len(),
            next_shard_id: 1,
            shards: vec![ShardSummary {
                id: 0,
                consumers: consumers.len(),
                with_truth: consumers.iter().filter(|c| c.truth_total.is_some()).count(),
                gap_count: consumers.iter().map(|c| c.gap_count).sum(),
                min_kwh: None,
                max_kwh: None,
                sum_kwh: 0.0,
                start: manifest.start.clone(),
                intervals: manifest.intervals,
            }],
        }
    }
}

fn io_err(path: &Path, e: std::io::Error) -> DatasetError {
    DatasetError::Io {
        path: path.display().to_string(),
        what: e.to_string(),
    }
}

/// Write `bytes` to `path` atomically: write a `.tmp` sibling, then
/// rename over the destination. A crash between the two steps leaves
/// the previous file untouched.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), DatasetError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes).map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

/// Parse and validate `root.json` in `dir`. Returns the root and the
/// length of the bytes parsed — the index size a cold query is charged.
pub(crate) fn read_root(dir: &Path) -> Result<(RootIndex, usize), DatasetError> {
    let path = dir.join(ROOT_FILE);
    let raw = read_file(&path)?;
    let len = raw.len();
    let text = String::from_utf8(raw).map_err(|_| DatasetError::Manifest {
        path: path.display().to_string(),
        what: "not valid UTF-8".to_string(),
    })?;
    let root: RootIndex = serde_json::from_str(&text).map_err(|e| DatasetError::Manifest {
        path: path.display().to_string(),
        what: e.to_string(),
    })?;
    let invalid = |what: String| DatasetError::Manifest {
        path: path.display().to_string(),
        what,
    };
    if root.format != FORMAT_VERSION {
        return Err(invalid(format!(
            "unsupported format version {} (this build reads {FORMAT_VERSION})",
            root.format
        )));
    }
    if root.shards.is_empty() {
        return Err(invalid("sharded dataset has no shards".to_string()));
    }
    if root.shard_capacity == 0 {
        return Err(invalid("shard_capacity must be at least 1".to_string()));
    }
    let start = root.start_timestamp()?;
    let res = root.resolution()?;
    if !start.is_aligned(res) {
        return Err(invalid(format!(
            "start {} is not aligned to the {}-min grid",
            root.start, root.resolution_min
        )));
    }
    let mut seen = std::collections::BTreeSet::new();
    for s in &root.shards {
        if !seen.insert(s.id) {
            return Err(invalid(format!("duplicate shard id {}", s.id)));
        }
        if s.consumers == 0 {
            return Err(invalid(format!("shard {} records no consumers", s.id)));
        }
        if s.id >= root.next_shard_id {
            return Err(invalid(format!(
                "shard id {} is not below next_shard_id {}",
                s.id, root.next_shard_id
            )));
        }
    }
    Ok((root, len))
}

/// Open shard `summary` of the sharded dataset at `dir`, validating its
/// manifest against the root index: same grid, same codec, and exactly
/// the committed consumer count.
pub(crate) fn open_shard(
    dir: &Path,
    root: &RootIndex,
    summary: &ShardSummary,
) -> Result<Shard, DatasetError> {
    let shard_dir = dir.join(SHARDS_DIR).join(summary.dir_name());
    let shard = Shard::open(&shard_dir)?;
    let invalid = |what: String| DatasetError::Manifest {
        path: shard_dir.join(crate::MANIFEST_FILE).display().to_string(),
        what,
    };
    let m = &shard.manifest;
    if m.consumers.len() != summary.consumers {
        return Err(invalid(format!(
            "shard manifest lists {} consumer(s) but the root index records {}",
            m.consumers.len(),
            summary.consumers
        )));
    }
    if m.start != root.start || m.resolution_min != root.resolution_min {
        return Err(invalid(format!(
            "shard grid ({} @ {} min) does not match the root grid ({} @ {} min)",
            m.start, m.resolution_min, root.start, root.resolution_min
        )));
    }
    if m.intervals != root.intervals {
        return Err(invalid(format!(
            "shard declares {} intervals but the root declares {}",
            m.intervals, root.intervals
        )));
    }
    if m.codec != root.codec {
        return Err(invalid(format!(
            "shard codec {} does not match the root codec {}",
            m.codec.label(),
            root.codec.label()
        )));
    }
    Ok(shard)
}

/// The open tail shard of a [`ShardedWriter`]: an ordinary
/// [`DatasetWriter`] plus the running roll-up.
#[derive(Debug)]
struct TailShard {
    id: u64,
    writer: DatasetWriter,
    consumers: usize,
    with_truth: usize,
    agg: Aggregates,
}

/// Writes (or appends to) a sharded dataset, consumer by consumer.
///
/// Consumers stream into shard directories of at most
/// [`RootIndex::shard_capacity`] each; every directory this writer
/// touches is new (unreferenced by the committed root), and nothing
/// becomes visible to readers until [`ShardedWriter::finish`] swaps
/// `root.json` atomically. Dropping the writer without calling
/// `finish` aborts the session: the committed store is untouched.
#[derive(Debug)]
pub struct ShardedWriter {
    dir: PathBuf,
    root: RootIndex,
    next_id: u64,
    tail: Option<TailShard>,
}

impl ShardedWriter {
    /// Create a fresh sharded dataset at `dir` (replacing any dataset
    /// committed there once `finish` runs). `shard_capacity` is the
    /// maximum number of consumers per shard.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        dir: impl AsRef<Path>,
        name: &str,
        description: &str,
        start: Timestamp,
        resolution: Resolution,
        intervals: usize,
        codec: SeriesCodec,
        shard_capacity: usize,
    ) -> Result<ShardedWriter, DatasetError> {
        let dir = dir.as_ref().to_path_buf();
        if shard_capacity == 0 {
            return Err(DatasetError::Invalid {
                file: dir.display().to_string(),
                what: "shard capacity must be at least 1".to_string(),
            });
        }
        if codec == SeriesCodec::Csv && intervals < 2 {
            return Err(DatasetError::Invalid {
                file: dir.display().to_string(),
                what: format!(
                    "the CSV codec needs at least 2 intervals (got {intervals}); \
                     use the binary codec for single-interval series"
                ),
            });
        }
        let shards_dir = dir.join(SHARDS_DIR);
        std::fs::create_dir_all(&shards_dir).map_err(|e| io_err(&shards_dir, e))?;
        // Re-exporting over a committed sharded store must not write
        // into directories its still-valid root references: resume id
        // allocation past the old root's high-water mark so a crash
        // mid-export leaves the old store fully intact.
        let next_id = if dir.join(ROOT_FILE).is_file() {
            read_root(&dir).map(|(r, _)| r.next_shard_id).unwrap_or(0)
        } else {
            0
        };
        Ok(ShardedWriter {
            dir,
            root: RootIndex {
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
                shard_capacity,
                next_shard_id: next_id,
                shards: Vec::new(),
            },
            next_id,
            tail: None,
        })
    }

    /// Open the committed sharded dataset at `dir` for appending:
    /// existing shards are kept as-is, new consumers stream into fresh
    /// shard directories, and nothing is visible until `finish`
    /// commits. A session that crashes (or is dropped) leaves the
    /// committed store untouched.
    pub fn append(dir: impl AsRef<Path>) -> Result<ShardedWriter, DatasetError> {
        let dir = dir.as_ref().to_path_buf();
        let (root, _) = read_root(&dir)?;
        let next_id = root.next_shard_id;
        Ok(ShardedWriter {
            dir,
            root,
            next_id,
            tail: None,
        })
    }

    /// Record export provenance in the root index (and in every shard
    /// manifest sealed from now on).
    pub fn set_provenance(&mut self, source_scenario: &str, degradation: Degradation, seed: u64) {
        self.root.source_scenario = Some(source_scenario.to_string());
        self.root.degradation = Some(degradation);
        self.root.seed = Some(seed);
    }

    /// The declared grid, parsed from the root.
    fn grid(&self) -> Result<(Timestamp, Resolution), DatasetError> {
        Ok((self.root.start_timestamp()?, self.root.resolution()?))
    }

    /// Open a fresh tail shard under the next never-committed id.
    fn open_tail(&mut self) -> Result<(), DatasetError> {
        let (start, resolution) = self.grid()?;
        let id = self.next_id;
        self.next_id += 1;
        let shard_dir = self.dir.join(SHARDS_DIR).join(format!("{id:04}"));
        let writer = DatasetWriter::create(
            &shard_dir,
            &self.root.name,
            &self.root.description,
            start,
            resolution,
            self.root.intervals,
            self.root.codec,
        )?;
        self.tail = Some(TailShard {
            id,
            writer,
            consumers: 0,
            with_truth: 0,
            agg: Aggregates::default(),
        });
        Ok(())
    }

    /// Seal the open tail shard: write its manifest and fold its
    /// roll-up into the root (in memory — nothing is committed until
    /// `finish`).
    fn seal_tail(&mut self) -> Result<(), DatasetError> {
        let Some(mut tail) = self.tail.take() else {
            return Ok(());
        };
        if let (Some(scenario), Some(degradation), Some(seed)) = (
            self.root.source_scenario.as_deref(),
            self.root.degradation.clone(),
            self.root.seed,
        ) {
            tail.writer.set_provenance(scenario, degradation, seed);
        }
        tail.writer.finish()?;
        self.root.shards.push(ShardSummary {
            id: tail.id,
            consumers: tail.consumers,
            with_truth: tail.with_truth,
            gap_count: tail.agg.gaps,
            min_kwh: tail.agg.min,
            max_kwh: tail.agg.max,
            sum_kwh: tail.agg.sum_kwh,
            start: self.root.start.clone(),
            intervals: self.root.intervals,
        });
        Ok(())
    }

    /// Rotate to a fresh tail shard if the current one is missing or
    /// full, then hand it back.
    fn tail_for_write(&mut self) -> Result<&mut TailShard, DatasetError> {
        let full = self
            .tail
            .as_ref()
            .is_some_and(|t| t.consumers >= self.root.shard_capacity);
        if full {
            self.seal_tail()?;
        }
        if self.tail.is_none() {
            self.open_tail()?;
        }
        self.tail.as_mut().ok_or_else(|| DatasetError::Invalid {
            file: ROOT_FILE.to_string(),
            what: "internal: no open tail shard".to_string(),
        })
    }

    /// Append one consumer: the measured series plus optional ground
    /// truth, exactly like [`DatasetWriter::write_consumer`], routed
    /// into the current tail shard.
    pub fn write_consumer(
        &mut self,
        id: &str,
        kind: ConsumerKind,
        measured: &MeasuredSeries,
        truth_total: Option<&flextract_series::TimeSeries>,
        truth_flex: Option<&flextract_series::TimeSeries>,
    ) -> Result<(), DatasetError> {
        let tail = self.tail_for_write()?;
        tail.writer
            .write_consumer(id, kind, measured, truth_total, truth_flex)?;
        tail.agg.merge(&consumer_rollup(measured.values()));
        tail.consumers += 1;
        tail.with_truth += usize::from(truth_total.is_some());
        Ok(())
    }

    /// Adopt an already-encoded consumer byte-for-byte: write its raw
    /// series files into the tail shard and fold its roll-up from the
    /// stored statistics. The compaction primitive — no re-encoding, so
    /// the copied files are bit-identical to their source.
    fn adopt_consumer(
        &mut self,
        entry: &ConsumerEntry,
        files: &[(String, Vec<u8>)],
    ) -> Result<(), DatasetError> {
        let measured_agg = files
            .iter()
            .find(|(name, _)| *name == entry.measured)
            .map(|(name, raw)| {
                let frame = frame_from_raw(raw.clone(), name)?;
                Scan::new()
                    .aggregates(&frame)
                    .map(|(agg, _)| agg)
                    .map_err(DatasetError::from)
            })
            .transpose()?
            .ok_or_else(|| DatasetError::Invalid {
                file: entry.measured.clone(),
                what: "internal: adopted consumer carries no measured bytes".to_string(),
            })?;
        let tail = self.tail_for_write()?;
        tail.writer.adopt_consumer_raw(entry, files)?;
        tail.agg.merge(&measured_agg);
        tail.consumers += 1;
        tail.with_truth += usize::from(entry.truth_total.is_some());
        Ok(())
    }

    /// Seal the tail shard, commit the new `root.json` atomically, and
    /// sweep shard directories the committed root does not reference
    /// (orphans of crashed sessions, stale shards of a re-export).
    /// Returns the committed root index.
    pub fn finish(mut self) -> Result<RootIndex, DatasetError> {
        self.seal_tail()?;
        if self.root.shards.is_empty() {
            return Err(DatasetError::Invalid {
                file: self.dir.display().to_string(),
                what: "sharded dataset has no consumers".to_string(),
            });
        }
        self.root.next_shard_id = self.next_id;
        let path = self.dir.join(ROOT_FILE);
        let json =
            serde_json::to_string_pretty(&self.root).map_err(|e| DatasetError::Manifest {
                path: path.display().to_string(),
                what: format!("serialise: {e}"),
            })? + "\n";
        write_atomic(&path, json.as_bytes())?;
        sweep_unreferenced(&self.dir, &self.root)?;
        // A sharded store has no top-level manifest.json; remove one
        // left behind by a single-manifest dataset exported here.
        let stale = self.dir.join(crate::MANIFEST_FILE);
        if stale.is_file() {
            std::fs::remove_file(&stale).map_err(|e| io_err(&stale, e))?;
        }
        Ok(self.root)
    }
}

/// Remove every directory under `shards/` the root does not reference.
/// Runs only after a successful commit, so everything it deletes is
/// invisible to readers.
fn sweep_unreferenced(dir: &Path, root: &RootIndex) -> Result<(), DatasetError> {
    let referenced: std::collections::BTreeSet<String> =
        root.shards.iter().map(|s| s.dir_name()).collect();
    let shards_dir = dir.join(SHARDS_DIR);
    let entries = std::fs::read_dir(&shards_dir).map_err(|e| io_err(&shards_dir, e))?;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().to_string();
        if entry.path().is_dir() && !referenced.contains(&name) {
            std::fs::remove_dir_all(entry.path()).map_err(|e| io_err(&entry.path(), e))?;
        }
    }
    Ok(())
}

/// The per-consumer roll-up: chunk statistics folded in chunk order —
/// exactly the fold a full scan of the stored FXM2 file performs, so
/// the stored summary is bit-identical to what a scan would compute.
pub(crate) fn consumer_rollup(values: &[f64]) -> Aggregates {
    let mut agg = Aggregates::default();
    for chunk in values.chunks(crate::codec::DEFAULT_CHUNK_LEN) {
        agg.absorb(&ChunkStats::from_values(chunk), chunk.len());
    }
    agg
}

/// What [`compact`] did, for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactionSummary {
    /// Shards before compaction.
    pub shards_before: usize,
    /// Shards after compaction.
    pub shards_after: usize,
    /// Total consumers (unchanged by compaction).
    pub consumers: usize,
    /// The committed root index.
    pub root: RootIndex,
}

/// Rewrite the sharded dataset at `dir` into canonical capacity-aligned
/// shards: series files are copied byte-for-byte into fresh shard
/// directories grouped exactly as a fresh export would group them,
/// roll-ups are recomputed from the stored statistics, and the new root
/// is committed atomically — the old root (and every shard it
/// references) stays valid until the swap, after which unreferenced
/// directories are swept.
pub fn compact(dir: impl AsRef<Path>) -> Result<CompactionSummary, DatasetError> {
    let dir = dir.as_ref();
    let ds = Dataset::open(dir)?;
    let Some(root) = ds.root() else {
        return Err(DatasetError::Manifest {
            path: dir.join(crate::MANIFEST_FILE).display().to_string(),
            what: "not a sharded dataset (a single-manifest layout has nothing to compact)"
                .to_string(),
        });
    };
    let shards_before = root.shards.len();
    let consumers = ds.len();
    let mut writer = ShardedWriter {
        dir: dir.to_path_buf(),
        root: RootIndex {
            shards: Vec::new(),
            ..root.clone()
        },
        next_id: root.next_shard_id,
        tail: None,
    };
    for idx in 0..consumers {
        let (entry, raws) = ds.consumer_raw(idx)?;
        writer.adopt_consumer(&entry, &raws)?;
    }
    let root = writer.finish()?;
    Ok(CompactionSummary {
        shards_before,
        shards_after: root.shards.len(),
        consumers,
        root,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Manifest;
    use flextract_series::TimeSeries;
    use flextract_time::Duration;

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "flextract_dataset_sharded_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn series_for(i: usize, intervals: usize) -> MeasuredSeries {
        let values: Vec<f64> = (0..intervals)
            .map(|j| {
                let x = (i * 37 + j * 13) % 101;
                if x == 100 {
                    f64::NAN
                } else {
                    x as f64 * 0.01
                }
            })
            .collect();
        MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_15, values).unwrap()
    }

    /// Export `n` consumers into a sharded store with `capacity`
    /// consumers per shard.
    fn export_sharded(dir: &Path, n: usize, capacity: usize) -> RootIndex {
        let mut w = ShardedWriter::create(
            dir,
            "unit",
            "sharded unit dataset",
            ts("2013-03-18"),
            Resolution::MIN_15,
            96,
            SeriesCodec::Binary,
            capacity,
        )
        .unwrap();
        for i in 0..n {
            w.write_consumer(
                &i.to_string(),
                ConsumerKind::Household,
                &series_for(i, 96),
                None,
                None,
            )
            .unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn sharded_round_trip_routes_consumers_through_shards() {
        let dir = scratch("roundtrip");
        let root = export_sharded(&dir, 11, 4);
        assert_eq!(root.shards.len(), 3);
        assert_eq!(
            root.shards.iter().map(|s| s.consumers).collect::<Vec<_>>(),
            vec![4, 4, 3]
        );
        assert_eq!(root.next_shard_id, 3);

        let ds = Dataset::open(&dir).unwrap();
        assert!(ds.is_sharded());
        assert_eq!(ds.len(), 11);
        assert_eq!(ds.shard_count(), 3);
        for i in 0..11 {
            let rec = ds.consumer(i).unwrap();
            assert_eq!(rec.entry.id, i.to_string());
            let expect = series_for(i, 96);
            assert_eq!(rec.measured.gap_count(), expect.gap_count());
            for (a, b) in rec.measured.values().iter().zip(expect.values()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let err = ds.consumer(11).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("0..11"), "{msg}");
        assert!(msg.contains("index 11"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rollups_match_a_forced_full_scan_bit_for_bit() {
        let dir = scratch("rollup");
        export_sharded(&dir, 10, 4);
        let ds = Dataset::open(&dir).unwrap();
        let root = ds.root().unwrap();
        // Recompute each shard's roll-up by scanning every consumer and
        // merging in the canonical order: bit-identical to the stored
        // summary.
        let mut idx = 0;
        for summary in &root.shards {
            let mut forced = Aggregates::default();
            for _ in 0..summary.consumers {
                let (agg, _) = ds.consumer_aggregates(idx, &Scan::new()).unwrap();
                forced.merge(&agg);
                idx += 1;
            }
            assert_eq!(forced.sum_kwh.to_bits(), summary.sum_kwh.to_bits());
            assert_eq!(forced.gaps, summary.gap_count);
            assert_eq!(forced.min, summary.min_kwh);
            assert_eq!(forced.max, summary.max_kwh);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Export the same `n` consumers as [`export_sharded`] into one
    /// `manifest.json`.
    fn export_single_manifest(dir: &Path, n: usize) {
        let mut w = DatasetWriter::create(
            dir,
            "unit",
            "single-manifest unit dataset",
            ts("2013-03-18"),
            Resolution::MIN_15,
            96,
            SeriesCodec::Binary,
        )
        .unwrap();
        for i in 0..n {
            w.write_consumer(
                &i.to_string(),
                ConsumerKind::Household,
                &series_for(i, 96),
                None,
                None,
            )
            .unwrap();
        }
        w.finish().unwrap();
    }

    /// `scan` over every consumer, merged in the canonical nesting
    /// (consumer → shard → fleet) with `shard_sizes` consumers per
    /// shard — the brute-force reference for store-level folds.
    fn nested_fold(ds: &Dataset, scan: &Scan, shard_sizes: &[usize]) -> Aggregates {
        let mut fleet = Aggregates::default();
        let mut idx = 0;
        for &size in shard_sizes {
            let mut sub = Aggregates::default();
            for _ in 0..size {
                let (a, _) = ds.consumer_aggregates(idx, scan).unwrap();
                sub.merge(&a);
                idx += 1;
            }
            fleet.merge(&sub);
        }
        fleet
    }

    fn assert_bit_identical(a: &Aggregates, b: &Aggregates) {
        assert_eq!(a, b);
        assert_eq!(a.sum_kwh.to_bits(), b.sum_kwh.to_bits());
    }

    #[test]
    fn fleet_scan_answers_stats_only_and_matches_forced_decode() {
        let dir = scratch("fleet");
        export_sharded(&dir, 10, 4);
        let ds = Dataset::open(&dir).unwrap();
        let (agg, report) = ds.fleet_aggregates(&Scan::new()).unwrap();
        assert_eq!(report.shards_total, 3);
        assert_eq!(report.shards_stats_only, 3);
        assert_eq!(report.shards_opened(), 0);
        assert_eq!(agg.intervals, 960);
        // The roll-up answer equals a brute-force merge of per-consumer
        // scans in the canonical nesting.
        let sizes: Vec<usize> = ds
            .root()
            .unwrap()
            .shards
            .iter()
            .map(|s| s.consumers)
            .collect();
        assert_bit_identical(&agg, &nested_fold(&ds, &Scan::new(), &sizes));

        // The same consumers in one manifest: the implicit shard has no
        // roll-up, so it opens, and the answer is the same fold.
        let single_dir = scratch("fleet_single");
        export_single_manifest(&single_dir, 10);
        let single = Dataset::open(&single_dir).unwrap();
        let (single_agg, report) = single.fleet_aggregates(&Scan::new()).unwrap();
        assert_eq!(report.shards_total, 1);
        assert_eq!(report.shards_opened(), 1);
        assert_bit_identical(&single_agg, &nested_fold(&single, &Scan::new(), &[10]));
        // Shard 0 is the whole store; there is no shard 1.
        let (shard0, shard0_report) = single
            .shard_aggregates(0, &Scan::new(), &mut Vec::new())
            .unwrap();
        assert_bit_identical(&shard0, &single_agg);
        assert_eq!(shard0_report.shards_opened(), 1);
        let err = single
            .shard_aggregates(1, &Scan::new(), &mut Vec::new())
            .unwrap_err();
        assert!(
            matches!(&err, DatasetError::Invalid { what, .. } if what.contains("shard index 1")),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&single_dir).ok();
    }

    #[test]
    fn predicates_prune_whole_shards_from_rollups() {
        let (dir, single_dir) = (scratch("prune"), scratch("prune_single"));
        // Shards of 2: consumers 0..2 quiet, 2..4 spiky, 4..6 gappy. The
        // same six consumers also go into one manifest.
        let mut w = ShardedWriter::create(
            &dir,
            "unit",
            "prune test",
            ts("2013-03-18"),
            Resolution::MIN_15,
            8,
            SeriesCodec::Binary,
            2,
        )
        .unwrap();
        let mut single = DatasetWriter::create(
            &single_dir,
            "unit",
            "prune test",
            ts("2013-03-18"),
            Resolution::MIN_15,
            8,
            SeriesCodec::Binary,
        )
        .unwrap();
        for i in 0..6 {
            let values: Vec<f64> = (0..8)
                .map(|j| match (i, j) {
                    (2..=3, 4) => 9.0,
                    (4..=5, 2) => f64::NAN,
                    _ => 0.5,
                })
                .collect();
            let m = MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_15, values).unwrap();
            w.write_consumer(&i.to_string(), ConsumerKind::Household, &m, None, None)
                .unwrap();
            single
                .write_consumer(&i.to_string(), ConsumerKind::Household, &m, None, None)
                .unwrap();
        }
        w.finish().unwrap();
        single.finish().unwrap();
        let ds = Dataset::open(&dir).unwrap();
        let single = Dataset::open(&single_dir).unwrap();
        let manifest_len = std::fs::metadata(single_dir.join(crate::MANIFEST_FILE))
            .unwrap()
            .len() as usize;

        let spikes = Scan::new().with_predicate(Predicate::MaxAbove(1.0));
        let (agg, report) = ds.fleet_aggregates(&spikes).unwrap();
        assert_eq!(report.shards_total, 3);
        assert_eq!(report.shards_pruned, 2, "{report:?}");
        assert_eq!(agg.max, Some(9.0));

        let gaps = Scan::new().with_predicate(Predicate::HasGaps);
        let (agg, report) = ds.fleet_aggregates(&gaps).unwrap();
        assert_eq!(report.shards_pruned, 2);
        assert_eq!(agg.gaps, 2);

        // A time slice outside the coverage prunes everything.
        let elsewhere = TimeRange::starting_at(ts("2014-01-01"), Duration::days(1)).unwrap();
        let outside = Scan::new().time_slice(elsewhere);
        let (agg, report) = ds.fleet_aggregates(&outside).unwrap();
        assert_eq!(report.shards_pruned, 3);
        assert_eq!(agg.intervals, 0);

        // The single-manifest store has no roll-up to prune from: its
        // one implicit shard always opens, charges its manifest once,
        // and answers with the consumer-order fold.
        for scan in [&spikes, &gaps, &outside] {
            let (agg, report) = single.fleet_aggregates(scan).unwrap();
            assert_eq!(report.shards_total, 1, "{report:?}");
            assert_eq!(report.shards_pruned, 0, "{report:?}");
            assert_eq!(report.shards_stats_only, 0, "{report:?}");
            assert_eq!(report.bytes_read_index, manifest_len, "{report:?}");
            assert_bit_identical(&agg, &nested_fold(&single, scan, &[6]));
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&single_dir).ok();
    }

    #[test]
    fn append_sessions_accumulate_and_commit_atomically() {
        let dir = scratch("append");
        export_sharded(&dir, 5, 4); // shards: 4 + 1
        let mut w = ShardedWriter::append(&dir).unwrap();
        for i in 5..8 {
            w.write_consumer(
                &i.to_string(),
                ConsumerKind::Household,
                &series_for(i, 96),
                None,
                None,
            )
            .unwrap();
        }
        let root = w.finish().unwrap();
        assert_eq!(root.len(), 8);
        // The append created a fresh shard; committed shards are never
        // reopened or rewritten.
        assert_eq!(
            root.shards.iter().map(|s| s.consumers).collect::<Vec<_>>(),
            vec![4, 1, 3]
        );
        assert_eq!(root.next_shard_id, 3);
        let ds = Dataset::open(&dir).unwrap();
        for i in 0..8 {
            assert_eq!(ds.consumer(i).unwrap().entry.id, i.to_string());
        }
        // A dropped (uncommitted) session leaves the store unchanged.
        let mut w = ShardedWriter::append(&dir).unwrap();
        w.write_consumer(
            "orphan",
            ConsumerKind::Household,
            &series_for(9, 96),
            None,
            None,
        )
        .unwrap();
        drop(w);
        let ds = Dataset::open(&dir).unwrap();
        assert_eq!(ds.len(), 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_canonicalises_append_fragments() {
        let dir = scratch("compact");
        export_sharded(&dir, 5, 4);
        for batch in [5..6, 6..9] {
            let mut w = ShardedWriter::append(&dir).unwrap();
            for i in batch {
                w.write_consumer(
                    &i.to_string(),
                    ConsumerKind::Household,
                    &series_for(i, 96),
                    None,
                    None,
                )
                .unwrap();
            }
            w.finish().unwrap();
        }
        let before = Dataset::open(&dir).unwrap();
        assert_eq!(before.shard_count(), 4); // fragments: 4, 1, 1, 3
        let summary = compact(&dir).unwrap();
        assert_eq!(summary.consumers, 9);
        assert_eq!(summary.shards_after, 3); // 4 + 4 + 1
        let ds = Dataset::open(&dir).unwrap();
        assert_eq!(
            ds.root()
                .unwrap()
                .shards
                .iter()
                .map(|s| s.consumers)
                .collect::<Vec<_>>(),
            vec![4, 4, 1]
        );
        for i in 0..9 {
            let rec = ds.consumer(i).unwrap();
            assert_eq!(rec.entry.id, i.to_string());
            let expect = series_for(i, 96);
            for (a, b) in rec.measured.values().iter().zip(expect.values()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // Compacting a compacted store is a no-op on the grouping.
        let again = compact(&dir).unwrap();
        assert_eq!(again.shards_after, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_output_matches_a_fresh_export_bit_for_bit() {
        // compact(append*(export(fleet))) must round-trip to exactly
        // what a single fresh export of the same fleet produces: same
        // shard grouping, same manifests, and byte-identical series
        // files (shard ids differ — they are generation counters — so
        // the comparison maps shard position, not directory name).
        let (frag_dir, fresh_dir) = (scratch("bitexact_frag"), scratch("bitexact_fresh"));
        export_sharded(&frag_dir, 3, 4);
        for i in 3..10 {
            let mut w = ShardedWriter::append(&frag_dir).unwrap();
            w.write_consumer(
                &i.to_string(),
                ConsumerKind::Household,
                &series_for(i, 96),
                None,
                None,
            )
            .unwrap();
            w.finish().unwrap();
        }
        compact(&frag_dir).unwrap();
        export_sharded(&fresh_dir, 10, 4);

        let frag_root = read_root(&frag_dir).unwrap().0;
        let fresh_root = read_root(&fresh_dir).unwrap().0;
        assert_eq!(frag_root.shards.len(), fresh_root.shards.len());
        for (a, b) in frag_root.shards.iter().zip(&fresh_root.shards) {
            // Everything but the generation-dependent id matches.
            let mut a = a.clone();
            a.id = b.id;
            assert_eq!(&a, b);
        }
        for (a, b) in frag_root.shards.iter().zip(&fresh_root.shards) {
            let dir_a = frag_dir.join(SHARDS_DIR).join(a.dir_name());
            let dir_b = fresh_dir.join(SHARDS_DIR).join(b.dir_name());
            let mut names_a: Vec<String> = std::fs::read_dir(&dir_a)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().to_string())
                .collect();
            let mut names_b: Vec<String> = std::fs::read_dir(&dir_b)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().to_string())
                .collect();
            names_a.sort();
            names_b.sort();
            assert_eq!(names_a, names_b);
            for name in names_a {
                let bytes_a = std::fs::read(dir_a.join(&name)).unwrap();
                let bytes_b = std::fs::read(dir_b.join(&name)).unwrap();
                assert_eq!(bytes_a, bytes_b, "shard file {name} differs");
            }
        }
        std::fs::remove_dir_all(&frag_dir).ok();
        std::fs::remove_dir_all(&fresh_dir).ok();
    }

    #[test]
    fn missing_series_file_is_typed_at_first_access_for_shards() {
        let dir = scratch("missingfile");
        export_sharded(&dir, 3, 2);
        std::fs::remove_file(dir.join(SHARDS_DIR).join("0001").join("consumer_2.fxm")).unwrap();
        // The root opens fine — shard manifests load lazily.
        let ds = Dataset::open(&dir).unwrap();
        assert!(ds.consumer(0).is_ok());
        let err = ds.consumer(2).unwrap_err();
        assert!(
            matches!(err, DatasetError::MissingSeriesFile { .. }),
            "{err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains("consumer_2.fxm"), "{msg}");
        assert!(msg.contains("`2`"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_root_and_mismatched_shards_are_typed_errors() {
        let dir = scratch("torn");
        export_sharded(&dir, 4, 2);
        // A shard manifest disagreeing with the root count is reported
        // against the shard manifest, not a mid-scan io error.
        let shard_manifest = dir.join(SHARDS_DIR).join("0000").join(crate::MANIFEST_FILE);
        let text = std::fs::read_to_string(&shard_manifest).unwrap();
        let mut m: Manifest = serde_json::from_str(&text).unwrap();
        m.consumers.pop();
        std::fs::write(&shard_manifest, serde_json::to_string_pretty(&m).unwrap()).unwrap();
        let ds = Dataset::open(&dir).unwrap();
        let err = ds.consumer(0).unwrap_err();
        assert!(err.to_string().contains("root index records 2"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_have_truth_reads_the_rollup_not_the_shards() {
        let dir = scratch("truthy");
        let mut w = ShardedWriter::create(
            &dir,
            "unit",
            "truth rollup",
            ts("2013-03-18"),
            Resolution::MIN_15,
            4,
            SeriesCodec::Binary,
            2,
        )
        .unwrap();
        let truth = TimeSeries::new(
            ts("2013-03-18"),
            Resolution::MIN_15,
            vec![0.5, 0.6, 0.7, 0.9],
        )
        .unwrap();
        for i in 0..3 {
            let m =
                MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_15, vec![0.5; 4]).unwrap();
            w.write_consumer(
                &i.to_string(),
                ConsumerKind::Household,
                &m,
                Some(&truth),
                Some(&truth),
            )
            .unwrap();
        }
        w.finish().unwrap();
        let ds = Dataset::open(&dir).unwrap();
        assert!(ds.all_have_truth());
        assert!(ds.consumer(1).unwrap().truth_total.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn copy_dir_recursive(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            let dst = to.join(entry.file_name());
            if entry.path().is_dir() {
                copy_dir_recursive(&entry.path(), &dst);
            } else {
                std::fs::copy(entry.path(), &dst).unwrap();
            }
        }
    }

    /// Every file under `dir`, keyed by relative path — the bit-exact
    /// fingerprint the kill-point tests compare store states with.
    fn fingerprint(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
        fn walk(root: &Path, dir: &Path, out: &mut std::collections::BTreeMap<String, Vec<u8>>) {
            for entry in std::fs::read_dir(dir).unwrap() {
                let entry = entry.unwrap();
                if entry.path().is_dir() {
                    walk(root, &entry.path(), out);
                } else {
                    let rel = entry
                        .path()
                        .strip_prefix(root)
                        .unwrap()
                        .to_string_lossy()
                        .to_string();
                    out.insert(rel, std::fs::read(entry.path()).unwrap());
                }
            }
        }
        let mut out = std::collections::BTreeMap::new();
        walk(dir, dir, &mut out);
        out
    }

    /// What every consumer's measured bytes look like through the read
    /// path — the observable state a reader reopening the store sees.
    fn observed_values(dir: &Path) -> Vec<Vec<u64>> {
        let ds = Dataset::open(dir).unwrap();
        (0..ds.len())
            .map(|i| {
                ds.consumer(i)
                    .unwrap()
                    .measured
                    .values()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect()
    }

    /// Build a fragmented store (append sessions of 3+2+4 consumers at
    /// capacity 4) and a fully-compacted twin, so the kill-point tests
    /// can replay every intermediate disk state of the compaction in
    /// between the two.
    fn fragmented_store(dir: &Path) -> RootIndex {
        export_sharded(dir, 3, 4);
        for batch in [3..5, 5..9] {
            let mut w = ShardedWriter::append(dir).unwrap();
            for i in batch {
                w.write_consumer(
                    &i.to_string(),
                    ConsumerKind::Household,
                    &series_for(i, 96),
                    None,
                    None,
                )
                .unwrap();
            }
            w.finish().unwrap();
        }
        read_root(dir).unwrap().0
    }

    /// Interrupt compaction after each write step it performs — new
    /// shard directories, the `root.json.tmp` staging file, the rename
    /// — and reopen. Before the rename the store must read back as the
    /// old state bit-for-bit; after it, as the new state. Never torn.
    #[test]
    fn compaction_interrupted_at_every_write_step_is_never_torn() {
        let before_dir = scratch("kill_before");
        let root = fragmented_store(&before_dir);
        assert_eq!(root.shards.len(), 3, "append fragments: 3+2+4 at cap 4");
        let before_files = fingerprint(&before_dir);
        let before_values = observed_values(&before_dir);

        // A completed compaction on a twin tells us exactly which
        // files each interrupted prefix would have written.
        let done_dir = scratch("kill_done");
        copy_dir_recursive(&before_dir, &done_dir);
        let summary = compact(&done_dir).unwrap();
        assert_eq!(summary.shards_after, 3, "9 consumers at cap 4: 4+4+1");
        let new_shard_dirs: Vec<String> =
            summary.root.shards.iter().map(|s| s.dir_name()).collect();
        assert!(
            new_shard_dirs.iter().all(|d| !before_files
                .keys()
                .any(|k| k.starts_with(&format!("{SHARDS_DIR}/{d}/")))),
            "compaction must write only never-referenced shard dirs"
        );

        // Kill points 1..=N: after each new shard dir lands (but before
        // the root swap), plus after the staged root.json.tmp lands.
        for kill_after in 1..=new_shard_dirs.len() + 1 {
            let work = scratch(&format!("kill_at_{kill_after}"));
            copy_dir_recursive(&before_dir, &work);
            for d in new_shard_dirs
                .iter()
                .take(kill_after.min(new_shard_dirs.len()))
            {
                copy_dir_recursive(
                    &done_dir.join(SHARDS_DIR).join(d),
                    &work.join(SHARDS_DIR).join(d),
                );
            }
            if kill_after > new_shard_dirs.len() {
                std::fs::copy(
                    done_dir.join(ROOT_FILE),
                    work.join(format!("{ROOT_FILE}.tmp")),
                )
                .unwrap();
            }
            // Reopen: the old root is still the committed one, so the
            // store reads back as the exact pre-compaction state.
            assert_eq!(observed_values(&work), before_values, "kill {kill_after}");
            let reread = read_root(&work).unwrap().0;
            assert_eq!(reread, root, "kill {kill_after}: old root still valid");
            // And a re-run of compaction from this state converges to a
            // store observably identical to the uninterrupted one.
            let resumed = compact(&work).unwrap();
            assert_eq!(resumed.shards_after, 3);
            assert_eq!(observed_values(&work), observed_values(&done_dir));
            let tmp = work.join(format!("{ROOT_FILE}.tmp"));
            assert!(!tmp.exists(), "recovery must not leave a staged root");
            std::fs::remove_dir_all(&work).ok();
        }

        // Final kill point: after the rename (commit) but before the
        // sweep. The new state is fully visible; the old fragment dirs
        // linger but are unreferenced, and the next writer sweeps them.
        let work = scratch("kill_post_commit");
        copy_dir_recursive(&before_dir, &work);
        for d in &new_shard_dirs {
            copy_dir_recursive(
                &done_dir.join(SHARDS_DIR).join(d),
                &work.join(SHARDS_DIR).join(d),
            );
        }
        std::fs::copy(done_dir.join(ROOT_FILE), work.join(ROOT_FILE)).unwrap();
        assert_eq!(observed_values(&work), observed_values(&done_dir));
        let old_dirs: Vec<String> = root.shards.iter().map(|s| s.dir_name()).collect();
        assert!(work.join(SHARDS_DIR).join(&old_dirs[0]).is_dir());
        let again = compact(&work).unwrap();
        assert_eq!(again.consumers, 9);
        for d in &old_dirs {
            assert!(
                !work.join(SHARDS_DIR).join(d).is_dir(),
                "post-commit recovery sweeps stale shard dir {d}"
            );
        }
        assert_eq!(observed_values(&work), observed_values(&done_dir));

        for d in [&before_dir, &done_dir, &work] {
            std::fs::remove_dir_all(d).ok();
        }
    }
}
