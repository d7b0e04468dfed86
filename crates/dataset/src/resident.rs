//! The resident store: a long-lived, thread-safe dataset handle that
//! amortizes index parsing and payload decoding across queries.
//!
//! [`Dataset`] caches nothing across opens — every open re-reads its
//! index (`root.json`, or the `manifest.json` of a single-manifest
//! directory), and every consumer query re-reads and re-decodes its
//! series file. That is the right contract for one-shot tools, but a
//! long-lived process (the serving loop the ROADMAP aims at) pays the
//! whole routing cost per query: the committed bench baseline spends
//! ~54 ms per sliced point query on a 100k-consumer store to read
//! 848 B, almost all of it re-parsing indexes.
//! [`ResidentStore`] keeps the parsed state resident:
//!
//! * the **dataset snapshot** — `root.json` parsed once, shard
//!   manifests parsed once each (via [`Dataset`]'s per-shard
//!   memoization) and the per-shard stat roll-ups with them, shared
//!   behind an [`Arc`];
//! * a **frame cache** — whole decoded consumer frames keyed by global
//!   consumer index, LRU under a byte budget;
//! * a **chunk buffer pool** — decoded chunk payloads keyed by
//!   `(file, chunk index)`, LRU under its own byte budget, consulted
//!   through the [`ChunkCache`] trait so the scan fold itself is the
//!   one implementation on both the cached and uncached paths.
//!
//! # Invalidation contract
//!
//! Both caches key off a **generation**. Every query entry point
//! revalidates the handle by fingerprinting the index file
//! [`Dataset::open`] parses (length + mtime of `root.json`, or of
//! `manifest.json` in a single-manifest directory).
//! The sharded writer's only commit point is the atomic rename of
//! `root.json` — kill points before it leave the old root byte-for-byte
//! in place (new shard directories and `root.json.tmp` are invisible to
//! the fingerprint), and the rename itself changes the fingerprint. A
//! changed fingerprint reopens the dataset, bumps the generation and
//! clears both caches **before** the new snapshot is served, so a query
//! either sees the old committed store in full or the new one in full —
//! never a torn mix, and stale reads are impossible by construction.
//!
//! # Determinism
//!
//! Cached answers are bit-identical to fresh-open answers because the
//! cache only replaces the decode step inside the one shared scan fold
//! (see [`ChunkCache`]). Both caches and the process-wide registry use
//! `BTreeMap` — nothing that feeds a report or an eviction decision
//! iterates a hash map.

use crate::store::index_file;
use crate::{Dataset, DatasetError};
use flextract_frame::{Aggregates, ChunkCache, Frame, Scan, ScanReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::SystemTime;

/// Byte budgets for the resident caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidentConfig {
    /// Budget for the chunk buffer pool (decoded payloads, 8 bytes per
    /// interval), in bytes. Entries above the budget are not cached.
    pub chunk_pool_bytes: usize,
    /// Budget for the frame cache (whole consumer files as opened),
    /// in bytes.
    pub frame_cache_bytes: usize,
}

impl Default for ResidentConfig {
    /// 32 MiB of decoded chunks + 64 MiB of frames — small against a
    /// serving process, large against per-consumer series files.
    fn default() -> Self {
        ResidentConfig {
            chunk_pool_bytes: 32 << 20,
            frame_cache_bytes: 64 << 20,
        }
    }
}

/// A point-in-time view of the resident caches, for tests and CLI
/// summaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Snapshot generation (1 after open, +1 per revalidation reopen).
    pub generation: u64,
    /// Frames resident in the frame cache.
    pub frame_entries: usize,
    /// Bytes held by the frame cache.
    pub frame_bytes: usize,
    /// Decoded chunk payloads resident in the pool.
    pub chunk_entries: usize,
    /// Bytes held by the chunk pool.
    pub chunk_bytes: usize,
}

/// The index-file identity a snapshot was opened against: length +
/// mtime of the file [`Dataset::open`] parses (`root.json`, or a
/// single-manifest directory's `manifest.json`). The sharded commit
/// point is an atomic rename onto `root.json`, which changes both;
/// uncommitted `.tmp` siblings change neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IndexFingerprint {
    len: u64,
    mtime: Option<SystemTime>,
}

/// The revalidated shared state: one open dataset per generation.
struct Snapshot {
    generation: u64,
    fingerprint: IndexFingerprint,
    dataset: Arc<Dataset>,
}

/// A deterministic LRU map: `BTreeMap` storage, recency tracked by a
/// monotonic tick, eviction pops the smallest tick until the byte
/// budget holds. No hash-map iteration anywhere near a report.
struct Lru<K: Ord + Clone, V: Clone> {
    budget: usize,
    bytes: usize,
    tick: u64,
    /// key → (value, bytes, last-use tick)
    entries: BTreeMap<K, (V, usize, u64)>,
    /// last-use tick → key (ticks are unique: one per touch)
    by_use: BTreeMap<u64, K>,
}

impl<K: Ord + Clone, V: Clone> Lru<K, V> {
    fn new(budget: usize) -> Self {
        Lru {
            budget,
            bytes: 0,
            tick: 0,
            entries: BTreeMap::new(),
            by_use: BTreeMap::new(),
        }
    }

    fn lookup(&mut self, key: &K) -> Option<V> {
        let (value, _, last_use) = self.entries.get_mut(key)?;
        let old = *last_use;
        self.tick += 1;
        *last_use = self.tick;
        let value = value.clone();
        self.by_use.remove(&old);
        self.by_use.insert(self.tick, key.clone());
        Some(value)
    }

    fn insert(&mut self, key: K, value: V, bytes: usize) {
        if bytes > self.budget {
            // An entry that alone busts the budget would only evict
            // everything else for nothing — decline it.
            return;
        }
        if let Some((_, old_bytes, old_tick)) = self.entries.remove(&key) {
            self.bytes -= old_bytes;
            self.by_use.remove(&old_tick);
        }
        self.tick += 1;
        self.by_use.insert(self.tick, key.clone());
        self.entries.insert(key, (value, bytes, self.tick));
        self.bytes += bytes;
        while self.bytes > self.budget {
            let Some((&oldest, _)) = self.by_use.iter().next() else {
                break;
            };
            let key = self.by_use.remove(&oldest).expect("tick just observed");
            if let Some((_, freed, _)) = self.entries.remove(&key) {
                self.bytes -= freed;
            }
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.by_use.clear();
        self.bytes = 0;
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn bytes(&self) -> usize {
        self.bytes
    }
}

/// The chunk buffer pool: decoded chunk payloads keyed by
/// `(file, chunk_index)`, shared across every query on the handle.
type ChunkPool = Mutex<Lru<(String, usize), Arc<Vec<f64>>>>;

/// Per-call adapter handing the chunk pool to the scan fold: each
/// lookup/store takes the pool mutex briefly, so concurrent scans
/// interleave at chunk granularity instead of serializing whole
/// queries.
struct PoolHandle<'a> {
    pool: &'a ChunkPool,
}

impl ChunkCache for PoolHandle<'_> {
    fn lookup(&mut self, file: &str, chunk: usize) -> Option<Arc<Vec<f64>>> {
        self.pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .lookup(&(file.to_string(), chunk))
    }

    fn store(&mut self, file: &str, chunk: usize, values: Arc<Vec<f64>>) {
        let bytes = values.len() * std::mem::size_of::<f64>();
        self.pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert((file.to_string(), chunk), values, bytes);
    }
}

/// A long-lived, thread-safe dataset handle with resident caches.
///
/// See the [module docs](self) for the cache and invalidation
/// contract. All methods take `&self`; the handle is `Sync` and meant
/// to be shared (wrap in an [`Arc`], or use [`ResidentStore::shared`]
/// for one process-wide handle per store directory).
pub struct ResidentStore {
    dir: PathBuf,
    config: ResidentConfig,
    state: RwLock<Snapshot>,
    frames: Mutex<Lru<usize, Arc<Frame>>>,
    pool: ChunkPool,
}

impl std::fmt::Debug for ResidentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidentStore")
            .field("dir", &self.dir)
            .field("config", &self.config)
            .field(
                "generation",
                &self
                    .state
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .generation,
            )
            .finish_non_exhaustive()
    }
}

impl ResidentStore {
    /// Open `dir` with the default cache budgets.
    pub fn open(dir: impl AsRef<Path>) -> Result<ResidentStore, DatasetError> {
        Self::open_with(dir, ResidentConfig::default())
    }

    /// Open `dir` with explicit cache budgets. The open parses the
    /// index once; subsequent queries revalidate against the index
    /// fingerprint instead of re-reading it.
    pub fn open_with(
        dir: impl AsRef<Path>,
        config: ResidentConfig,
    ) -> Result<ResidentStore, DatasetError> {
        let dir = dir.as_ref().to_path_buf();
        // Fingerprint BEFORE opening: if a commit lands in between,
        // the stored fingerprint is older than the opened data and the
        // next revalidation reopens — the safe direction. The reverse
        // order could pin a new fingerprint to old data.
        let fingerprint = index_fingerprint(&dir)?;
        let dataset = Arc::new(Dataset::open(&dir)?);
        Ok(ResidentStore {
            dir,
            config,
            state: RwLock::new(Snapshot {
                generation: 1,
                fingerprint,
                dataset,
            }),
            frames: Mutex::new(Lru::new(config.frame_cache_bytes)),
            pool: Mutex::new(Lru::new(config.chunk_pool_bytes)),
        })
    }

    /// The process-wide shared handle for `dir` (keyed by canonical
    /// path, created with default budgets on first use) — what
    /// `flextract query` and the scenario runner use so repeated
    /// queries against one store share one set of caches.
    pub fn shared(dir: impl AsRef<Path>) -> Result<Arc<ResidentStore>, DatasetError> {
        static REGISTRY: OnceLock<Mutex<BTreeMap<PathBuf, Arc<ResidentStore>>>> = OnceLock::new();
        let dir = dir.as_ref();
        let key = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
        let mut registry = REGISTRY
            .get_or_init(Mutex::default)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(store) = registry.get(&key) {
            return Ok(store.clone());
        }
        let store = Arc::new(ResidentStore::open(dir)?);
        registry.insert(key, store.clone());
        Ok(store)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured cache budgets.
    pub fn config(&self) -> ResidentConfig {
        self.config
    }

    /// The current snapshot generation: 1 after open, +1 every time
    /// revalidation observed a committed change and reopened.
    pub fn generation(&self) -> u64 {
        self.state
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .generation
    }

    /// Cache occupancy, for tests and summaries.
    pub fn cache_stats(&self) -> CacheStats {
        let generation = self
            .state
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .generation;
        let (frame_entries, frame_bytes) = {
            let frames = self.frames.lock().unwrap_or_else(PoisonError::into_inner);
            (frames.len(), frames.bytes())
        };
        let (chunk_entries, chunk_bytes) = {
            let pool = self.pool.lock().unwrap_or_else(PoisonError::into_inner);
            (pool.len(), pool.bytes())
        };
        CacheStats {
            generation,
            frame_entries,
            frame_bytes,
            chunk_entries,
            chunk_bytes,
        }
    }

    /// The revalidated dataset snapshot. Returns the shared handle and
    /// whether this call had to reopen (`true` = the index fingerprint
    /// changed: the caches were cleared and the generation bumped).
    ///
    /// Hold the returned [`Arc`] for the duration of one logical query
    /// so every sub-read (every shard of a fleet scan) answers from
    /// one generation.
    pub fn snapshot(&self) -> Result<(Arc<Dataset>, bool), DatasetError> {
        let fingerprint = index_fingerprint(&self.dir)?;
        {
            let state = self.state.read().unwrap_or_else(PoisonError::into_inner);
            if state.fingerprint == fingerprint {
                return Ok((state.dataset.clone(), false));
            }
        }
        let mut state = self.state.write().unwrap_or_else(PoisonError::into_inner);
        // Another thread may have revalidated while we waited for the
        // write lock.
        if state.fingerprint == fingerprint {
            return Ok((state.dataset.clone(), false));
        }
        // Fingerprint again before the open (same safe order as
        // `open_with`), then clear the caches BEFORE publishing the
        // new snapshot: a concurrent reader either sees the old
        // generation with old cache entries or the new generation with
        // empty caches — never new data with stale entries.
        let fingerprint = index_fingerprint(&self.dir)?;
        let dataset = Arc::new(Dataset::open(&self.dir)?);
        self.frames
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        state.generation += 1;
        state.fingerprint = fingerprint;
        state.dataset = dataset.clone();
        Ok((dataset, true))
    }

    /// The revalidated dataset snapshot (without the reopen flag).
    pub fn dataset(&self) -> Result<Arc<Dataset>, DatasetError> {
        self.snapshot().map(|(dataset, _)| dataset)
    }

    /// The grid-validated frame of consumer `idx`, from the frame
    /// cache when resident.
    pub fn consumer_frame(&self, idx: usize) -> Result<Arc<Frame>, DatasetError> {
        let (dataset, _) = self.snapshot()?;
        self.frame_entry(&dataset, idx).map(|(frame, _)| frame)
    }

    /// Execute `scan` against consumer `idx` through the resident
    /// caches. See [`ResidentStore::consumer_aggregates_with`].
    pub fn consumer_aggregates(
        &self,
        idx: usize,
        scan: &Scan,
    ) -> Result<(Aggregates, ScanReport), DatasetError> {
        self.consumer_aggregates_with(idx, scan, &mut Vec::new())
    }

    /// Execute `scan` against consumer `idx` through the resident
    /// caches: the frame comes from the frame cache when resident, and
    /// chunk decodes go through the chunk pool. The answer is
    /// bit-identical to [`Dataset::consumer_aggregates_with`] on a
    /// fresh open — the cache only substitutes the decode step inside
    /// the shared scan fold.
    ///
    /// Accounting: a warm query charges no `bytes_read_index` (the
    /// open — or the revalidation that reopened — paid the parse) and
    /// counts the index bytes it did not re-read as `bytes_saved`; a
    /// query that itself triggered a reopen charges them as read. A
    /// frame served from cache moves its `bytes_read` to `bytes_saved`
    /// and counts one extra `cache_hit`.
    pub fn consumer_aggregates_with(
        &self,
        idx: usize,
        scan: &Scan,
        scratch: &mut Vec<f64>,
    ) -> Result<(Aggregates, ScanReport), DatasetError> {
        let (dataset, reopened) = self.snapshot()?;
        let (frame, frame_hit) = self.frame_entry(&dataset, idx)?;
        let mut handle = PoolHandle { pool: &self.pool };
        let (agg, mut report) = scan.aggregates_cached(&frame, &mut handle, scratch)?;
        let index_bytes = dataset.consumer_index_bytes(idx)?;
        if reopened {
            report.bytes_read_index = index_bytes;
        } else {
            report.bytes_saved += index_bytes;
        }
        if frame_hit {
            report.cache_hits += 1;
            report.bytes_saved += report.bytes_read;
            report.bytes_read = 0;
        }
        Ok((agg, report))
    }

    /// Execute `scan` against the whole fleet on one revalidated
    /// snapshot, in the canonical fold order. Shard roll-ups answer
    /// stats-coverable queries without touching any file; on a warm
    /// handle the index bytes move from `bytes_read_index` to
    /// `bytes_saved` (they were parsed at open, not re-read here).
    pub fn fleet_aggregates(&self, scan: &Scan) -> Result<(Aggregates, ScanReport), DatasetError> {
        let (dataset, reopened) = self.snapshot()?;
        let (agg, mut report) = dataset.fleet_aggregates(scan)?;
        if !reopened {
            report.cache_hits += 1;
            report.bytes_saved += report.bytes_read_index;
            report.bytes_read_index = 0;
        }
        Ok((agg, report))
    }

    /// The frame of consumer `idx` from the cache, loading (and
    /// caching) on miss. The `bool` is `true` on a cache hit.
    fn frame_entry(
        &self,
        dataset: &Dataset,
        idx: usize,
    ) -> Result<(Arc<Frame>, bool), DatasetError> {
        if let Some(frame) = self
            .frames
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .lookup(&idx)
        {
            return Ok((frame, true));
        }
        let frame = Arc::new(dataset.consumer_frame(idx)?);
        let bytes = frame.disk_bytes();
        self.frames
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(idx, frame.clone(), bytes);
        Ok((frame, false))
    }
}

/// Fingerprint the store's index file — the same file
/// [`Dataset::open`] parses.
fn index_fingerprint(dir: &Path) -> Result<IndexFingerprint, DatasetError> {
    let path = index_file(dir);
    let meta = std::fs::metadata(&path).map_err(|e| DatasetError::Io {
        path: path.display().to_string(),
        what: e.to_string(),
    })?;
    Ok(IndexFingerprint {
        len: meta.len(),
        mtime: meta.modified().ok(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{ConsumerKind, DatasetWriter, SeriesCodec};
    use crate::{MeasuredSeries, ShardedWriter};
    use flextract_frame::Predicate;
    use flextract_time::{Resolution, TimeRange, Timestamp};

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("flextract_resident_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The deterministic series pattern shared with the sharded-store
    /// tests: `(i*37 + j*13) % 101`, scaled, with a gap at 100.
    fn series_for(i: usize, intervals: usize) -> MeasuredSeries {
        let values: Vec<f64> = (0..intervals)
            .map(|j| {
                let v = (i * 37 + j * 13) % 101;
                if v == 100 {
                    f64::NAN
                } else {
                    v as f64 * 0.01
                }
            })
            .collect();
        MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_15, values).unwrap()
    }

    fn export_sharded(dir: &Path, consumers: usize, capacity: usize) {
        let mut w = ShardedWriter::create(
            dir,
            "resident",
            "resident-store test fleet",
            ts("2013-03-18"),
            Resolution::MIN_15,
            96,
            SeriesCodec::BinaryV3,
            capacity,
        )
        .unwrap();
        for i in 0..consumers {
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

    fn export_single_manifest(dir: &Path, consumers: usize, codec: SeriesCodec) {
        let mut w = DatasetWriter::create(
            dir,
            "resident",
            "resident-store single-manifest fleet",
            ts("2013-03-18"),
            Resolution::MIN_15,
            96,
            codec,
        )
        .unwrap();
        for i in 0..consumers {
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

    fn agg_bits(a: &Aggregates) -> (usize, usize, usize, u64, Option<u64>, Option<u64>) {
        (
            a.intervals,
            a.observed,
            a.gaps,
            a.sum_kwh.to_bits(),
            a.min.map(f64::to_bits),
            a.max.map(f64::to_bits),
        )
    }

    #[test]
    fn lru_evicts_least_recent_under_budget_deterministically() {
        let mut lru: Lru<u32, Arc<Vec<f64>>> = Lru::new(100);
        let v = Arc::new(vec![0.0]);
        lru.insert(1, v.clone(), 40);
        lru.insert(2, v.clone(), 40);
        // Touch 1 so 2 is the LRU entry.
        assert!(lru.lookup(&1).is_some());
        lru.insert(3, v.clone(), 40);
        assert!(lru.lookup(&2).is_none(), "LRU entry evicted");
        assert!(lru.lookup(&1).is_some());
        assert!(lru.lookup(&3).is_some());
        assert_eq!(lru.bytes(), 80);
        // Re-inserting an existing key replaces, never double-counts.
        lru.insert(1, v.clone(), 60);
        assert_eq!(lru.bytes(), 40 + 60);
        // An entry above the whole budget is declined.
        lru.insert(9, v, 101);
        assert!(lru.lookup(&9).is_none());
        lru.clear();
        assert_eq!(lru.len(), 0);
        assert_eq!(lru.bytes(), 0);
    }

    #[test]
    fn warm_queries_are_bit_identical_to_fresh_opens() {
        let dir = scratch("warm");
        export_sharded(&dir, 10, 4);
        let store = ResidentStore::open(&dir).unwrap();
        let slice = TimeRange::new(ts("2013-03-18 01:00"), ts("2013-03-18 07:00")).unwrap();
        let scans = [
            Scan::new(),
            Scan::new().time_slice(slice),
            Scan::new().with_predicate(Predicate::MaxAbove(0.5)),
        ];
        for scan in &scans {
            for idx in [0, 5, 9] {
                // Prime, then query warm; compare against a fresh open.
                let _ = store.consumer_aggregates(idx, scan).unwrap();
                let (warm, warm_rep) = store.consumer_aggregates(idx, scan).unwrap();
                let fresh_ds = Dataset::open(&dir).unwrap();
                let (fresh, _) = fresh_ds.consumer_aggregates(idx, scan).unwrap();
                assert_eq!(agg_bits(&warm), agg_bits(&fresh), "idx {idx}");
                assert!(warm_rep.cache_hits > 0, "warm pass must hit: {warm_rep:?}");
                assert_eq!(warm_rep.bytes_read, 0, "warm frame re-read: {warm_rep:?}");
                assert_eq!(warm_rep.bytes_read_index, 0, "{warm_rep:?}");
                assert!(warm_rep.bytes_saved > 0, "{warm_rep:?}");
            }
            let (warm_fleet, fleet_rep) = store.fleet_aggregates(scan).unwrap();
            let fresh_ds = Dataset::open(&dir).unwrap();
            let (fresh_fleet, _) = fresh_ds.fleet_aggregates(scan).unwrap();
            assert_eq!(agg_bits(&warm_fleet), agg_bits(&fresh_fleet));
            assert_eq!(fleet_rep.bytes_read_index, 0, "{fleet_rep:?}");
        }
        assert_eq!(store.generation(), 1, "no commit happened");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn committed_append_bumps_the_generation_and_serves_new_data() {
        let dir = scratch("append");
        export_sharded(&dir, 6, 4);
        let store = ResidentStore::open(&dir).unwrap();
        let (before, _) = store.fleet_aggregates(&Scan::new()).unwrap();
        assert_eq!(store.generation(), 1);
        assert!(store.cache_stats().generation == 1);

        let mut w = ShardedWriter::append(&dir).unwrap();
        for i in 6..9 {
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

        let (after, _) = store.fleet_aggregates(&Scan::new()).unwrap();
        assert_eq!(store.generation(), 2, "rename-commit must revalidate");
        assert_eq!(after.intervals, 9 * 96);
        assert!(after.intervals > before.intervals);
        // The caches were cleared at the generation bump.
        let fresh = Dataset::open(&dir).unwrap();
        let (expect, _) = fresh.fleet_aggregates(&Scan::new()).unwrap();
        assert_eq!(agg_bits(&after), agg_bits(&expect));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_bumps_the_generation_once_committed() {
        let dir = scratch("compact");
        export_sharded(&dir, 3, 4);
        let mut w = ShardedWriter::append(&dir).unwrap();
        for i in 3..9 {
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

        let store = ResidentStore::open(&dir).unwrap();
        let (before, _) = store.fleet_aggregates(&Scan::new()).unwrap();
        let g = store.generation();
        crate::sharded::compact(&dir).unwrap();
        let (after, _) = store.fleet_aggregates(&Scan::new()).unwrap();
        assert!(store.generation() > g, "compaction commit must reopen");
        // Compaction rewrites the layout, never the data.
        assert_eq!(agg_bits(&after), agg_bits(&before));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncommitted_tmp_files_do_not_invalidate() {
        let dir = scratch("tmp");
        export_sharded(&dir, 6, 4);
        let store = ResidentStore::open(&dir).unwrap();
        let (before, _) = store.fleet_aggregates(&Scan::new()).unwrap();
        // A crashed writer leaves `root.json.tmp` and orphan shard
        // directories — none of it committed.
        std::fs::write(dir.join("root.json.tmp"), b"{ half-written").unwrap();
        std::fs::create_dir_all(dir.join("shards/0099")).unwrap();
        std::fs::write(dir.join("shards/0099/garbage.fxm"), b"junk").unwrap();
        let (after, _) = store.fleet_aggregates(&Scan::new()).unwrap();
        assert_eq!(store.generation(), 1, "no commit, no reopen");
        assert_eq!(agg_bits(&after), agg_bits(&before));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn single_manifest_revalidates_on_manifest_rewrite() {
        let dir = scratch("single");
        export_single_manifest(&dir, 3, SeriesCodec::Binary);
        let store = ResidentStore::open(&dir).unwrap();
        let (a, first_rep) = store.consumer_aggregates(0, &Scan::new()).unwrap();
        let (_, warm_rep) = store.consumer_aggregates(0, &Scan::new()).unwrap();
        assert!(warm_rep.cache_hits >= first_rep.cache_hits);
        // Re-export with one more consumer: single-manifest writes are
        // not atomic, but the finished manifest has a new length.
        export_single_manifest(&dir, 4, SeriesCodec::Binary);
        let ds = store.dataset().unwrap();
        assert_eq!(ds.len(), 4);
        assert!(store.generation() >= 2);
        let (b, _) = store.consumer_aggregates(0, &Scan::new()).unwrap();
        assert_eq!(agg_bits(&a), agg_bits(&b), "consumer 0 unchanged");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunk_pool_budget_is_enforced() {
        let dir = scratch("budget");
        export_single_manifest(&dir, 4, SeriesCodec::BinaryV1);
        // Budget fits exactly one 96-interval chunk payload (768 B):
        // scanning v1 frames (no stats → every chunk decodes) keeps at
        // most one payload resident.
        let store = ResidentStore::open_with(
            &dir,
            ResidentConfig {
                chunk_pool_bytes: 800,
                frame_cache_bytes: 1 << 20,
            },
        )
        .unwrap();
        for idx in 0..4 {
            let _ = store.consumer_aggregates(idx, &Scan::new()).unwrap();
        }
        let stats = store.cache_stats();
        assert!(stats.chunk_entries <= 1, "{stats:?}");
        assert!(stats.chunk_bytes <= 800, "{stats:?}");
        assert_eq!(stats.frame_entries, 4, "{stats:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_registry_returns_one_handle_per_directory() {
        let dir = scratch("sharedreg");
        export_single_manifest(&dir, 2, SeriesCodec::Binary);
        let a = ResidentStore::shared(&dir).unwrap();
        let b = ResidentStore::shared(&dir).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // Priming through one alias is visible through the other.
        let _ = a.consumer_aggregates(0, &Scan::new()).unwrap();
        let (_, rep) = b.consumer_aggregates(0, &Scan::new()).unwrap();
        assert!(rep.cache_hits > 0, "{rep:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
