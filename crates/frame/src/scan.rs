//! The lazy scan pipeline: time slices, chunk predicates and
//! aggregates planned against per-chunk statistics.
//!
//! A [`Scan`] describes *what* to read; executing it against a
//! [`Frame`] decides *how little* can be read:
//!
//! * chunks entirely outside the time slice are skipped without even
//!   touching their statistics;
//! * chunks whose statistics **prove** a predicate cannot match are
//!   skipped without decoding the payload (statistics only ever
//!   exclude — a surviving chunk is decoded and the predicate is
//!   re-checked exactly on the sliced values, so pushdown never
//!   changes a result, it only avoids work);
//! * aggregate queries with no predicates answer fully-covered chunks
//!   from their statistics alone.
//!
//! Frames without statistics (`FXM1`, CSV) degrade gracefully: every
//! overlapping chunk is decoded and every result is identical — the
//! determinism contract is that a scan's output is a pure function of
//! the series and the scan, never of the backing format. Aggregate
//! sums fold **per chunk first, then across chunks in order** on every
//! path, so the statistics-only answer is bit-identical to the
//! full-decode answer.

use crate::fxm::{ChunkMeta, Frame};
use crate::stats::ChunkStats;
use crate::{FrameError, MeasuredSeries};
use flextract_series::recycle;
use flextract_time::{Resolution, TimeRange, Timestamp};
use std::sync::Arc;

/// A reusable pool of decoded chunk payloads, keyed by
/// `(file, chunk index)`.
///
/// [`Scan::aggregates_cached`] runs the **same fold** as
/// [`Scan::aggregates_with`] and consults the cache only at the
/// payload-decode step, so a cached answer is bit-identical to a fresh
/// one by construction — a cache changes how many bytes are decoded,
/// never what is computed. Implementations live at the store layer
/// (the resident store in `flextract-dataset`); the trait is defined
/// here so the scan loop can consult a pool without the frame crate
/// knowing about any store.
pub trait ChunkCache {
    /// The cached decoded payload of chunk `chunk` of `file`, if
    /// resident. An implementation must return exactly the values a
    /// fresh [`Frame::chunk_values`] decode would produce — the scan
    /// does not re-verify them.
    fn lookup(&mut self, file: &str, chunk: usize) -> Option<Arc<Vec<f64>>>;

    /// Offer a freshly decoded payload for residency. Implementations
    /// may decline (for example when the payload alone exceeds the
    /// pool's byte budget).
    fn store(&mut self, file: &str, chunk: usize, values: Arc<Vec<f64>>);
}

/// A chunk-level selection predicate.
///
/// Predicates select **chunks** (the unit of pushdown), evaluated on
/// the chunk's sliced values: a chunk matches if *any* selected
/// interval satisfies the condition. Statistics are used to skip
/// chunks that provably cannot match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Predicate {
    /// The chunk contains at least one missing interval.
    HasGaps,
    /// Some observed value exceeds the threshold (kWh per interval).
    MaxAbove(f64),
    /// Some observed value falls below the threshold (kWh per
    /// interval).
    MinBelow(f64),
}

impl Predicate {
    /// `true` when whole-chunk statistics prove the predicate cannot
    /// match anywhere in the chunk (hence in any sliced portion).
    fn excluded_by(&self, stats: &ChunkStats) -> bool {
        match self {
            Predicate::HasGaps => stats.gaps == 0,
            // NaN extremes (all-gap chunk) count as excluded: with no
            // observed values, no threshold can match.
            Predicate::MaxAbove(t) => stats.max.is_nan() || stats.max <= *t,
            Predicate::MinBelow(t) => stats.min.is_nan() || stats.min >= *t,
        }
    }

    /// Exact evaluation on a chunk's sliced values.
    fn matches(&self, values: &[f64]) -> bool {
        match self {
            Predicate::HasGaps => values.iter().any(|v| v.is_nan()),
            Predicate::MaxAbove(t) => values.iter().any(|v| !v.is_nan() && *v > *t),
            Predicate::MinBelow(t) => values.iter().any(|v| !v.is_nan() && *v < *t),
        }
    }
}

/// What a scan execution actually touched — the pushdown audit trail.
///
/// Single-frame executions fill only the `chunks_*`/`intervals_selected`
/// counters. Dataset-level scans over a sharded store add one more
/// pruning tier with the `shards_*` counters: a shard whose roll-up
/// statistics prove no consumer can match is *pruned* (its manifest and
/// files are never opened), and a shard fully answerable from its
/// roll-up alone is *stats-only* — the same stats-only-exclude contract
/// as chunk pushdown, one level up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanReport {
    /// Chunks in the frame.
    pub chunks_total: usize,
    /// Chunks skipped because they lie entirely outside the time
    /// slice (their statistics were never read).
    pub chunks_skipped_slice: usize,
    /// Chunks skipped because their statistics prove no predicate
    /// match (payload never decoded).
    pub chunks_skipped_stats: usize,
    /// Chunks answered from statistics alone (payload never decoded).
    pub chunks_stats_only: usize,
    /// Chunks whose payload was decoded.
    pub chunks_decoded: usize,
    /// Intervals that contributed to the result.
    pub intervals_selected: usize,
    /// Shards in the store (0 for single-frame scans; 1 for a
    /// single-manifest dataset, which is one implicit shard).
    pub shards_total: usize,
    /// Shards excluded by their roll-up statistics or time coverage —
    /// neither their manifest nor any series file was opened.
    pub shards_pruned: usize,
    /// Shards answered entirely from their roll-up summary (manifest
    /// and series files never opened).
    pub shards_stats_only: usize,
    /// On-disk bytes read to open the scanned frame(s) — the whole
    /// file for a cold open, 0 for shards answered from roll-ups and
    /// for in-memory frames.
    pub bytes_read: usize,
    /// On-disk payload bytes decoded on demand by this scan (raw
    /// IEEE-754 words for `FXM2`, gap bitmap + compressed stream for
    /// `FXM3`). Eagerly decoded formats (`FXM1`, CSV) pay their decode
    /// at open, so this stays 0 for them — `bytes_read` carries their
    /// cost. A stats-only answer leaves this at 0 on every format.
    pub bytes_decoded: usize,
    /// Index bytes consulted to route this scan: the store's index
    /// (`root.json`, or a single-manifest dataset's `manifest.json`)
    /// plus any shard manifests opened on top of it, 0 for
    /// single-frame scans. Filled by the
    /// dataset layer — frame-level executions don't know about
    /// manifests.
    pub bytes_read_index: usize,
    /// Chunk payloads (or, at the store layer, whole frames and parsed
    /// indexes) served from a resident cache instead of disk.
    pub cache_hits: usize,
    /// Bytes a resident cache kept this scan from re-reading or
    /// re-decoding: payload bytes of cache-served chunks, plus file
    /// and index bytes when the store layer answers from residency.
    pub bytes_saved: usize,
}

impl ScanReport {
    /// Fraction of chunks whose payload was **not** decoded (1.0 =
    /// everything answered without touching a payload; 0 for an empty
    /// frame).
    pub fn skip_fraction(&self) -> f64 {
        if self.chunks_total == 0 {
            0.0
        } else {
            1.0 - self.chunks_decoded as f64 / self.chunks_total as f64
        }
    }

    /// Shards whose manifest (and therefore files) had to be opened.
    pub fn shards_opened(&self) -> usize {
        self.shards_total
            .saturating_sub(self.shards_pruned + self.shards_stats_only)
    }

    /// Fold another execution's counters into this report — the audit
    /// aggregation for multi-consumer and multi-shard scans. Plain
    /// counter addition, so folding order cannot matter.
    pub fn absorb(&mut self, other: &ScanReport) {
        self.chunks_total += other.chunks_total;
        self.chunks_skipped_slice += other.chunks_skipped_slice;
        self.chunks_skipped_stats += other.chunks_skipped_stats;
        self.chunks_stats_only += other.chunks_stats_only;
        self.chunks_decoded += other.chunks_decoded;
        self.intervals_selected += other.intervals_selected;
        self.shards_total += other.shards_total;
        self.shards_pruned += other.shards_pruned;
        self.shards_stats_only += other.shards_stats_only;
        self.bytes_read += other.bytes_read;
        self.bytes_decoded += other.bytes_decoded;
        self.bytes_read_index += other.bytes_read_index;
        self.cache_hits += other.cache_hits;
        self.bytes_saved += other.bytes_saved;
    }
}

/// Aggregates over the selected intervals.
///
/// `min`, `max` and `sum_kwh` range over observed (non-gap) values;
/// `None` extremes mean nothing was observed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Aggregates {
    /// Selected intervals (gaps included).
    pub intervals: usize,
    /// Observed (non-gap) intervals among them.
    pub observed: usize,
    /// Missing intervals among them.
    pub gaps: usize,
    /// Sum of the observed values (kWh).
    pub sum_kwh: f64,
    /// Smallest observed value.
    pub min: Option<f64>,
    /// Largest observed value.
    pub max: Option<f64>,
}

impl Aggregates {
    /// Aggregates over one contiguous run of values (`NaN` = gap) —
    /// the exact fold a scan applies per chunk, exposed so callers
    /// summarising already-materialized series (e.g. resampled query
    /// output) share the same determinism rules.
    pub fn from_values(values: &[f64]) -> Aggregates {
        let mut agg = Aggregates::default();
        agg.absorb(&ChunkStats::from_values(values), values.len());
        agg
    }

    /// Mean observed value, if anything was observed.
    pub fn mean(&self) -> Option<f64> {
        (self.observed > 0).then(|| self.sum_kwh / self.observed as f64)
    }

    /// Fold another aggregate into this one, in caller-chosen order —
    /// the canonical multi-series fold. The hierarchy is fixed: chunk
    /// stats fold into a per-series aggregate (in chunk order) via
    /// [`Aggregates::absorb`], per-series aggregates merge into a
    /// per-shard subtotal (in consumer order), and subtotals merge into
    /// the fleet total (in shard order). Keeping every path on that one
    /// association is what makes a statistics-only answer bit-identical
    /// to a full decode.
    pub fn merge(&mut self, other: &Aggregates) {
        self.intervals += other.intervals;
        self.observed += other.observed;
        self.gaps += other.gaps;
        self.sum_kwh += other.sum_kwh;
        if let Some(m) = other.min {
            if self.min.is_none_or(|cur| m < cur) {
                self.min = Some(m);
            }
        }
        if let Some(m) = other.max {
            if self.max.is_none_or(|cur| m > cur) {
                self.max = Some(m);
            }
        }
    }

    /// Fold one chunk's statistics into the aggregate — the exact
    /// per-chunk step every scan execution uses, public so store-level
    /// roll-ups (per-shard summaries) are built with the same
    /// association as the scans that later verify them.
    pub fn absorb(&mut self, stats: &ChunkStats, len: usize) {
        self.intervals += len;
        self.gaps += stats.gaps as usize;
        self.observed += len - stats.gaps as usize;
        self.sum_kwh += stats.sum;
        if !stats.min.is_nan() && self.min.is_none_or(|m| stats.min < m) {
            self.min = Some(stats.min);
        }
        if !stats.max.is_nan() && self.max.is_none_or(|m| stats.max > m) {
            self.max = Some(stats.max);
        }
    }
}

/// A lazy query over one frame: time slice + chunk predicates.
///
/// Build with [`Scan::new`], narrow with [`Scan::time_slice`] and
/// [`Scan::with_predicate`], then execute with [`Scan::aggregates`],
/// [`Scan::peak`], [`Scan::collect`] or [`Scan::materialize`]. The
/// scan itself holds no data; executions borrow the frame.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scan {
    slice: Option<TimeRange>,
    predicates: Vec<Predicate>,
}

impl Scan {
    /// A scan selecting the whole frame.
    pub fn new() -> Self {
        Scan::default()
    }

    /// Restrict to intervals whose start lies inside `range`
    /// (half-open, like every [`TimeRange`]).
    pub fn time_slice(mut self, range: TimeRange) -> Self {
        self.slice = Some(match self.slice {
            None => range,
            Some(prev) => prev
                .intersect(range)
                .unwrap_or_else(|| TimeRange::empty_at(range.start())),
        });
        self
    }

    /// Add a chunk predicate (multiple predicates AND together).
    pub fn with_predicate(mut self, p: Predicate) -> Self {
        self.predicates.push(p);
        self
    }

    /// The configured time slice, if any.
    pub fn slice(&self) -> Option<TimeRange> {
        self.slice
    }

    /// The configured predicates.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// Global interval bounds `[lo, hi)` selected by the time slice.
    fn bounds(&self, frame: &Frame) -> (usize, usize) {
        let h = frame.header();
        let Some(slice) = self.slice else {
            return (0, h.len);
        };
        let res = h.resolution.minutes();
        let rel_start = (slice.start() - h.start).as_minutes();
        let rel_end = (slice.end() - h.start).as_minutes();
        let lo = rel_start.div_euclid(res) + i64::from(rel_start.rem_euclid(res) != 0);
        let lo = lo.clamp(0, h.len as i64) as usize;
        let hi = rel_end.div_euclid(res) + i64::from(rel_end.rem_euclid(res) != 0);
        let hi = hi.clamp(lo as i64, h.len as i64) as usize;
        (lo, hi)
    }

    /// Compute all aggregates over the selected intervals in one pass.
    pub fn aggregates(&self, frame: &Frame) -> Result<(Aggregates, ScanReport), FrameError> {
        self.aggregates_with(frame, &mut Vec::new())
    }

    /// [`Scan::aggregates`] with a caller-supplied decode buffer, so a
    /// multi-consumer scan reuses one allocation across every frame it
    /// visits instead of growing a fresh `Vec` per consumer.
    pub fn aggregates_with(
        &self,
        frame: &Frame,
        scratch: &mut Vec<f64>,
    ) -> Result<(Aggregates, ScanReport), FrameError> {
        self.aggregates_impl(frame, scratch, None)
    }

    /// [`Scan::aggregates_with`] through a [`ChunkCache`]: chunks whose
    /// decoded payload is resident are served from the cache (counted
    /// in [`ScanReport::cache_hits`] / [`ScanReport::bytes_saved`]);
    /// fresh decodes are offered back for residency. The fold is the
    /// **same code path** as the uncached execution, so the answer is
    /// bit-identical by construction.
    pub fn aggregates_cached(
        &self,
        frame: &Frame,
        cache: &mut dyn ChunkCache,
        scratch: &mut Vec<f64>,
    ) -> Result<(Aggregates, ScanReport), FrameError> {
        self.aggregates_impl(frame, scratch, Some(cache))
    }

    /// The one aggregate fold behind [`Scan::aggregates_with`] and
    /// [`Scan::aggregates_cached`]: the cache, when present, replaces
    /// only the payload-decode step — slice skipping, stats exclusion,
    /// stats-only answers and the per-chunk absorb order are shared.
    fn aggregates_impl(
        &self,
        frame: &Frame,
        scratch: &mut Vec<f64>,
        mut cache: Option<&mut dyn ChunkCache>,
    ) -> Result<(Aggregates, ScanReport), FrameError> {
        let (lo, hi) = self.bounds(frame);
        let mut report = ScanReport {
            chunks_total: frame.chunks().len(),
            bytes_read: frame.disk_bytes(),
            ..ScanReport::default()
        };
        let mut agg = Aggregates::default();
        for (ci, meta) in frame.chunks().iter().enumerate() {
            let Some((a, b)) = chunk_overlap(meta, lo, hi) else {
                report.chunks_skipped_slice += 1;
                continue;
            };
            if let Some(stats) = &meta.stats {
                if self.predicates.iter().any(|p| p.excluded_by(stats)) {
                    report.chunks_skipped_stats += 1;
                    continue;
                }
                if self.predicates.is_empty() && b - a == meta.len {
                    report.chunks_stats_only += 1;
                    agg.absorb(stats, meta.len);
                    continue;
                }
            }
            let resident = cache
                .as_deref_mut()
                .and_then(|c| c.lookup(frame.file(), ci));
            let values: &[f64] = match &resident {
                Some(hit) => {
                    report.cache_hits += 1;
                    report.bytes_saved += meta.payload_bytes();
                    hit.as_slice()
                }
                None => {
                    let values = frame.chunk_values(ci, scratch)?;
                    report.chunks_decoded += 1;
                    report.bytes_decoded += meta.payload_bytes();
                    if let Some(c) = cache.as_deref_mut() {
                        c.store(frame.file(), ci, Arc::new(values.to_vec()));
                    }
                    values
                }
            };
            let sliced = slice_chunk(values, a, b, frame)?;
            if !self.predicates.iter().all(|p| p.matches(sliced)) {
                continue;
            }
            // Fold the slice into chunk-local statistics first, then
            // absorb — the same association as the stats-only path, so
            // both are bit-identical.
            agg.absorb(&ChunkStats::from_values(sliced), sliced.len());
        }
        report.intervals_selected = agg.intervals;
        Ok((agg, report))
    }

    /// The first-attaining maximum observed value and its timestamp —
    /// argmax with ties broken towards the earliest interval.
    ///
    /// Statistics narrow the search: a chunk only decodes when its
    /// recorded maximum beats the best value seen so far.
    pub fn peak(
        &self,
        frame: &Frame,
    ) -> Result<(Option<(Timestamp, f64)>, ScanReport), FrameError> {
        let (lo, hi) = self.bounds(frame);
        let mut scratch = Vec::new();
        let h = *frame.header();
        let mut report = ScanReport {
            chunks_total: frame.chunks().len(),
            bytes_read: frame.disk_bytes(),
            ..ScanReport::default()
        };
        let mut best: Option<(usize, f64)> = None;
        for (ci, meta) in frame.chunks().iter().enumerate() {
            let Some((a, b)) = chunk_overlap(meta, lo, hi) else {
                report.chunks_skipped_slice += 1;
                continue;
            };
            if let Some(stats) = &meta.stats {
                if self.predicates.iter().any(|p| p.excluded_by(stats)) {
                    report.chunks_skipped_stats += 1;
                    continue;
                }
                if self.predicates.is_empty() && b - a == meta.len {
                    // Fully covered: the chunk max is exact, so only a
                    // strictly better max forces a decode (strict keeps
                    // the earliest interval on ties).
                    if stats.max.is_nan() || best.is_some_and(|(_, bv)| stats.max <= bv) {
                        report.chunks_stats_only += 1;
                        report.intervals_selected += meta.len;
                        continue;
                    }
                    let max = stats.max;
                    let values = frame.chunk_values(ci, &mut scratch)?;
                    report.chunks_decoded += 1;
                    report.bytes_decoded += meta.payload_bytes();
                    report.intervals_selected += meta.len;
                    // Statistics are sanity-checked at open but never
                    // verified against the payload — a corrupt file
                    // whose recorded max names no value is a codec
                    // error, not a panic.
                    let Some(j) = values.iter().position(|v| *v == max) else {
                        return Err(FrameError::Codec {
                            file: frame.file().to_string(),
                            what: "chunk statistics disagree with the payload \
                                   (recorded max not found in the chunk)"
                                .to_string(),
                        });
                    };
                    best = Some((meta.first + j, max));
                    continue;
                }
            }
            let values = frame.chunk_values(ci, &mut scratch)?;
            report.chunks_decoded += 1;
            report.bytes_decoded += meta.payload_bytes();
            let sliced = slice_chunk(values, a, b, frame)?;
            if !self.predicates.iter().all(|p| p.matches(sliced)) {
                continue;
            }
            report.intervals_selected += sliced.len();
            for (j, v) in sliced.iter().enumerate() {
                if !v.is_nan() && best.is_none_or(|(_, bv)| *v > bv) {
                    best = Some((meta.first + a + j, *v));
                }
            }
        }
        let located = best.map(|(idx, v)| (h.start + h.resolution.interval() * idx as i64, v));
        Ok((located, report))
    }

    /// Collect the selected intervals as `(global index, value)` pairs
    /// (gaps as `NaN`) — the exact, unaggregated answer.
    pub fn collect(&self, frame: &Frame) -> Result<(Vec<(usize, f64)>, ScanReport), FrameError> {
        let (lo, hi) = self.bounds(frame);
        let mut report = ScanReport {
            chunks_total: frame.chunks().len(),
            bytes_read: frame.disk_bytes(),
            ..ScanReport::default()
        };
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        for (ci, meta) in frame.chunks().iter().enumerate() {
            let Some((a, b)) = chunk_overlap(meta, lo, hi) else {
                report.chunks_skipped_slice += 1;
                continue;
            };
            if let Some(stats) = &meta.stats {
                if self.predicates.iter().any(|p| p.excluded_by(stats)) {
                    report.chunks_skipped_stats += 1;
                    continue;
                }
            }
            let values = frame.chunk_values(ci, &mut scratch)?;
            report.chunks_decoded += 1;
            report.bytes_decoded += meta.payload_bytes();
            let sliced = slice_chunk(values, a, b, frame)?;
            if !self.predicates.iter().all(|p| p.matches(sliced)) {
                continue;
            }
            out.extend(
                sliced
                    .iter()
                    .enumerate()
                    .map(|(j, v)| (meta.first + a + j, *v)),
            );
        }
        report.intervals_selected = out.len();
        Ok((out, report))
    }

    /// Materialize the time slice as a contiguous [`MeasuredSeries`] —
    /// the ranged-read primitive. Only chunks overlapping the slice
    /// are decoded. Errors if the scan carries predicates (a filtered
    /// selection is not contiguous).
    ///
    /// The series' buffer and the chunk decode scratch come from this
    /// thread's [`recycle`] free list; the scratch goes back to it.
    pub fn materialize(&self, frame: &Frame) -> Result<(MeasuredSeries, ScanReport), FrameError> {
        let h = frame.header();
        let mut scratch = recycle::take(h.chunk_len.min(h.len));
        let materialized = self.materialize_with(frame, &mut scratch);
        recycle::recycle(scratch);
        materialized
    }

    /// [`Scan::materialize`] with a caller-supplied decode buffer. The
    /// series' buffer still comes from this thread's [`recycle`] free
    /// list.
    fn materialize_with(
        &self,
        frame: &Frame,
        scratch: &mut Vec<f64>,
    ) -> Result<(MeasuredSeries, ScanReport), FrameError> {
        if !self.predicates.is_empty() {
            return Err(FrameError::Scan {
                what: "materialize cannot combine with predicates (a filtered selection \
                       is not a contiguous series)"
                    .into(),
            });
        }
        let (lo, hi) = self.bounds(frame);
        let h = *frame.header();
        let mut report = ScanReport {
            chunks_total: frame.chunks().len(),
            bytes_read: frame.disk_bytes(),
            ..ScanReport::default()
        };
        let mut out = recycle::take(hi - lo);
        for (ci, meta) in frame.chunks().iter().enumerate() {
            let Some((a, b)) = chunk_overlap(meta, lo, hi) else {
                report.chunks_skipped_slice += 1;
                continue;
            };
            let values = frame.chunk_values(ci, scratch)?;
            report.chunks_decoded += 1;
            report.bytes_decoded += meta.payload_bytes();
            out.extend_from_slice(slice_chunk(values, a, b, frame)?);
        }
        report.intervals_selected = out.len();
        let start = h.start + h.resolution.interval() * lo as i64;
        let series = MeasuredSeries::new(start, h.resolution, out)?;
        Ok((series, report))
    }

    /// Like [`Scan::materialize`], then resample to a coarser grid:
    /// each `target` bucket sums its observed constituents; a bucket
    /// whose constituents are all gaps stays a gap.
    pub fn materialize_resampled(
        &self,
        frame: &Frame,
        target: Resolution,
    ) -> Result<(MeasuredSeries, ScanReport), FrameError> {
        let (fine, report) = self.materialize_with(frame, &mut Vec::new())?;
        let res = fine.resolution();
        let k = target.ratio_to(res).ok_or_else(|| FrameError::Scan {
            what: format!("cannot resample {res} to {target} (must be a coarser multiple)"),
        })?;
        if k == 1 {
            return Ok((fine, report));
        }
        if fine.len() % k != 0 {
            return Err(FrameError::Scan {
                what: format!(
                    "{} selected intervals do not fill whole {target} buckets \
                     (each bucket needs {k})",
                    fine.len()
                ),
            });
        }
        if !fine.start().is_aligned(target) {
            return Err(FrameError::Scan {
                what: format!(
                    "slice start {} is not aligned to the {target} grid",
                    fine.start()
                ),
            });
        }
        let coarse: Vec<f64> = fine
            .values()
            .chunks(k)
            .map(|bucket| {
                let stats = ChunkStats::from_values(bucket);
                if stats.all_gaps(bucket.len()) {
                    f64::NAN
                } else {
                    stats.sum
                }
            })
            .collect();
        let series = MeasuredSeries::new(fine.start(), target, coarse)?;
        Ok((series, report))
    }
}

/// The `[a, b)` slice of a decoded chunk. Bounds come from
/// [`chunk_overlap`] against the chunk directory, so a miss means the
/// decode returned fewer values than the directory promised — a codec
/// error naming the chunk-local range, never a panic.
fn slice_chunk<'v>(
    values: &'v [f64],
    a: usize,
    b: usize,
    frame: &Frame,
) -> Result<&'v [f64], FrameError> {
    values.get(a..b).ok_or_else(|| FrameError::Codec {
        file: frame.file().to_string(),
        what: format!(
            "decoded chunk holds {} value(s), too few for the selected range [{a}, {b})",
            values.len()
        ),
    })
}

/// The sliced sub-range `[a, b)` of a chunk's local indices, or `None`
/// when the chunk lies entirely outside the global selection.
fn chunk_overlap(meta: &ChunkMeta, lo: usize, hi: usize) -> Option<(usize, usize)> {
    let c_lo = meta.first;
    let c_hi = meta.first + meta.len;
    if c_hi <= lo || c_lo >= hi || lo == hi {
        return None;
    }
    let a = lo.saturating_sub(c_lo);
    let b = (hi - c_lo).min(meta.len);
    Some((a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fxm::{encode_chunked, encode_chunked_v1, Frame};
    use flextract_time::Duration;

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    /// Two days of 15-min data (192 intervals), chunked per 24
    /// intervals (8 chunks): a flat 0.5 base, a spike block in chunk 5,
    /// and a gap run in chunk 2.
    fn sample() -> MeasuredSeries {
        let mut values = vec![0.5; 192];
        values[48] = f64::NAN;
        values[49] = f64::NAN;
        for v in values.iter_mut().skip(120).take(3) {
            *v = 3.0;
        }
        MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_15, values).unwrap()
    }

    fn v2_frame(m: &MeasuredSeries) -> Frame {
        Frame::from_fxm_bytes(encode_chunked(m, 24).unwrap(), "t.fxm").unwrap()
    }

    fn v1_frame(m: &MeasuredSeries) -> Frame {
        Frame::from_fxm_bytes(encode_chunked_v1(m, 24).unwrap(), "t.fxm").unwrap()
    }

    #[test]
    fn full_scan_aggregates_from_stats_alone_on_v2() {
        let m = sample();
        let (agg, report) = Scan::new().aggregates(&v2_frame(&m)).unwrap();
        assert_eq!(report.chunks_total, 8);
        assert_eq!(report.chunks_decoded, 0);
        assert_eq!(report.chunks_stats_only, 8);
        assert_eq!(agg.intervals, 192);
        assert_eq!(agg.gaps, 2);
        assert_eq!(agg.observed, 190);
        assert_eq!(agg.min, Some(0.5));
        assert_eq!(agg.max, Some(3.0));
        assert!((agg.sum_kwh - (187.0 * 0.5 + 9.0)).abs() < 1e-9);

        // The stat-less v1 path decodes everything but agrees exactly.
        let (agg1, report1) = Scan::new().aggregates(&v1_frame(&m)).unwrap();
        assert_eq!(report1.chunks_decoded, 8);
        assert_eq!(report1.chunks_stats_only, 0);
        assert_eq!(agg1.sum_kwh.to_bits(), agg.sum_kwh.to_bits());
        assert_eq!(agg1, agg);
    }

    #[test]
    fn byte_accounting_tracks_reads_and_payload_decodes() {
        let m = sample();
        for frame in [
            v2_frame(&m),
            Frame::from_fxm_bytes(crate::fxm::encode_chunked_v3(&m, 24).unwrap(), "t.fxm").unwrap(),
        ] {
            // A stats-only full scan reads the file once and decodes
            // zero payload bytes, on both stat-carrying codecs.
            let (_, report) = Scan::new().aggregates(&frame).unwrap();
            assert_eq!(report.bytes_read, frame.disk_bytes(), "{report:?}");
            assert_eq!(report.bytes_decoded, 0, "{report:?}");

            // A misaligned slice decodes its two boundary chunks, and
            // the byte count is exactly those chunks' payload extents.
            let shifted = TimeRange::new(ts("2013-03-18 01:00"), ts("2013-03-18 07:00")).unwrap();
            let (_, report) = Scan::new().time_slice(shifted).aggregates(&frame).unwrap();
            assert_eq!(report.chunks_decoded, 2);
            let expected: usize = frame.chunks()[..2].iter().map(|c| c.payload_bytes()).sum();
            assert_eq!(report.bytes_decoded, expected, "{report:?}");
            assert!(report.bytes_decoded > 0);
        }
        // The eagerly decoded v1 path pays at open: bytes_read covers
        // the file, bytes_decoded stays 0 (there is no on-demand work).
        let v1 = v1_frame(&m);
        let (_, report) = Scan::new().aggregates(&v1).unwrap();
        assert_eq!(report.bytes_read, v1.disk_bytes());
        assert_eq!(report.bytes_decoded, 0);
    }

    #[test]
    fn time_slice_decodes_only_overlapping_chunks() {
        let m = sample();
        let frame = v2_frame(&m);
        // Second day only: chunks 4..8.
        let day2 = TimeRange::starting_at(ts("2013-03-19"), Duration::days(1)).unwrap();
        let scan = Scan::new().time_slice(day2);
        let (agg, report) = scan.aggregates(&frame).unwrap();
        assert_eq!(report.chunks_skipped_slice, 4);
        assert_eq!(report.chunks_decoded, 0, "aligned slice answers from stats");
        assert_eq!(agg.intervals, 96);
        // A misaligned slice decodes exactly its two boundary chunks.
        let shifted = TimeRange::new(ts("2013-03-18 01:00"), ts("2013-03-18 07:00")).unwrap();
        let (agg, report) = Scan::new().time_slice(shifted).aggregates(&frame).unwrap();
        assert_eq!(agg.intervals, 24);
        assert_eq!(report.chunks_decoded, 2);
        assert_eq!(report.chunks_skipped_slice, 6);
    }

    #[test]
    fn predicates_skip_via_stats_and_recheck_exactly() {
        let m = sample();
        let frame = v2_frame(&m);
        // Gaps live in chunk 2 only.
        let (agg, report) = Scan::new()
            .with_predicate(Predicate::HasGaps)
            .aggregates(&frame)
            .unwrap();
        assert_eq!(report.chunks_skipped_stats, 7);
        assert_eq!(report.chunks_decoded, 1);
        assert_eq!(agg.intervals, 24);
        assert_eq!(agg.gaps, 2);
        // The spike lives in chunk 5 only.
        let (agg, report) = Scan::new()
            .with_predicate(Predicate::MaxAbove(1.0))
            .aggregates(&frame)
            .unwrap();
        assert_eq!(report.chunks_decoded, 1);
        assert_eq!(agg.max, Some(3.0));
        // v1 reaches the same answers by decoding everything.
        let (agg1, report1) = Scan::new()
            .with_predicate(Predicate::MaxAbove(1.0))
            .aggregates(&v1_frame(&m))
            .unwrap();
        assert_eq!(report1.chunks_decoded, 8);
        assert_eq!(agg1, agg);
    }

    #[test]
    fn peak_locates_the_argmax_with_minimal_decodes() {
        let m = sample();
        let frame = v2_frame(&m);
        let (peak, report) = Scan::new().peak(&frame).unwrap();
        let (t, v) = peak.unwrap();
        assert_eq!(t, ts("2013-03-19 06:00")); // interval 120
        assert_eq!(v, 3.0);
        // Chunks 0..5 share max 0.5 → one decode for chunk 0 (first
        // candidate), one for chunk 5 (the strictly better max).
        assert_eq!(report.chunks_decoded, 2);
        // Ties resolve to the earliest interval, matching brute force.
        let (peak1, _) = Scan::new().peak(&v1_frame(&m)).unwrap();
        assert_eq!(peak1, peak);
        let flat =
            MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_15, vec![0.7; 96]).unwrap();
        let (p, _) = Scan::new().peak(&v2_frame(&flat)).unwrap();
        assert_eq!(p, Some((ts("2013-03-18"), 0.7)));
    }

    #[test]
    fn peak_on_corrupt_stats_is_a_codec_error_not_a_panic() {
        use crate::fxm::HEADER_LEN;
        let m = MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_15, vec![0.5; 96]).unwrap();
        let mut raw = encode_chunked(&m, 96).unwrap();
        // Rewrite chunk 0's recorded max (finite, gap-consistent, so
        // the open-time sanity checks pass) to a value the payload
        // does not contain.
        let max_at = HEADER_LEN + 16;
        raw[max_at..max_at + 8].copy_from_slice(&5.0f64.to_bits().to_le_bytes());
        let frame = Frame::from_fxm_bytes(raw, "t.fxm").unwrap();
        let err = Scan::new().peak(&frame).unwrap_err();
        assert!(matches!(err, FrameError::Codec { .. }), "{err:?}");
        assert!(err.to_string().contains("disagree"), "{err}");
    }

    #[test]
    fn collect_matches_brute_force_on_both_codecs() {
        let m = sample();
        let slice = TimeRange::new(ts("2013-03-18 11:00"), ts("2013-03-19 08:00")).unwrap();
        let scan = Scan::new()
            .time_slice(slice)
            .with_predicate(Predicate::MaxAbove(1.0));
        let brute: Vec<(usize, u64)> = m
            .values()
            .chunks(24)
            .enumerate()
            .flat_map(|(c, chunk)| {
                let lo = 44usize; // 11:00
                let hi = 128usize; // next day 08:00
                let first = c * 24;
                let a = lo.saturating_sub(first).min(chunk.len());
                let b = hi.saturating_sub(first).min(chunk.len());
                let sliced = if a < b { &chunk[a..b] } else { &[][..] };
                let matches = sliced.iter().any(|v| !v.is_nan() && *v > 1.0);
                sliced
                    .iter()
                    .enumerate()
                    .filter(move |_| matches)
                    .map(move |(j, v)| (first + a + j, v.to_bits()))
                    .collect::<Vec<_>>()
            })
            .collect();
        for frame in [v2_frame(&m), v1_frame(&m)] {
            let (got, _) = scan.collect(&frame).unwrap();
            let got: Vec<(usize, u64)> = got.into_iter().map(|(i, v)| (i, v.to_bits())).collect();
            assert_eq!(got, brute);
        }
    }

    #[test]
    fn materialize_is_a_ranged_read() {
        let m = sample();
        let frame = v2_frame(&m);
        let slice = TimeRange::new(ts("2013-03-18 12:15"), ts("2013-03-19 00:00")).unwrap();
        let (sliced, report) = Scan::new().time_slice(slice).materialize(&frame).unwrap();
        assert_eq!(sliced.start(), ts("2013-03-18 12:15"));
        assert_eq!(sliced.len(), 47);
        assert_eq!(report.chunks_decoded, 2);
        assert_eq!(report.chunks_skipped_slice, 6);
        for (j, v) in sliced.values().iter().enumerate() {
            let orig = m.values()[49 + j];
            assert!(v.is_nan() == orig.is_nan());
            if !v.is_nan() {
                assert_eq!(v.to_bits(), orig.to_bits());
            }
        }
        // Predicates refuse to materialize.
        assert!(matches!(
            Scan::new()
                .with_predicate(Predicate::HasGaps)
                .materialize(&frame),
            Err(FrameError::Scan { .. })
        ));
    }

    #[test]
    fn materialize_resampled_buckets_sum_and_propagate_all_gap_buckets() {
        let mut values = vec![0.25; 8];
        values[4] = f64::NAN;
        values[5] = f64::NAN;
        values[6] = f64::NAN;
        values[7] = f64::NAN;
        let m = MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_15, values).unwrap();
        let frame = v2_frame(&m);
        let (coarse, _) = Scan::new()
            .materialize_resampled(&frame, Resolution::HOUR_1)
            .unwrap();
        assert_eq!(coarse.len(), 2);
        assert!((coarse.values()[0] - 1.0).abs() < 1e-12);
        assert!(coarse.values()[1].is_nan(), "all-gap bucket stays a gap");
        // A target the resolution does not divide is a scan error.
        let err = Scan::new()
            .materialize_resampled(&frame, Resolution::MIN_5)
            .unwrap_err();
        assert!(err.to_string().contains("coarser"), "{err}");
    }

    #[test]
    fn scratch_reuse_and_report_absorb_match_the_allocating_paths() {
        let m = sample();
        let frame = v2_frame(&m);
        let mut scratch = Vec::new();
        let scan = Scan::new().with_predicate(Predicate::MaxAbove(1.0));
        let (a0, r0) = scan.aggregates(&frame).unwrap();
        let (a1, r1) = scan.aggregates_with(&frame, &mut scratch).unwrap();
        assert_eq!(a0, a1);
        assert_eq!(r0, r1);
        // Report absorption is plain counter addition; the shard-tier
        // counters stay zero for single-frame scans and fold in from
        // dataset-level audits.
        let mut total = ScanReport::default();
        total.absorb(&r0);
        total.absorb(&r1);
        assert_eq!(total.chunks_total, r0.chunks_total * 2);
        assert_eq!(total.chunks_decoded, r0.chunks_decoded * 2);
        assert_eq!(total.shards_total, 0);
        let shardy = ScanReport {
            shards_total: 4,
            shards_pruned: 2,
            shards_stats_only: 1,
            ..ScanReport::default()
        };
        total.absorb(&shardy);
        assert_eq!(total.shards_total, 4);
        assert_eq!(total.shards_opened(), 1);
    }

    /// A minimal ordered cache for exercising the cached fold: every
    /// offered payload is kept, keyed deterministically.
    #[derive(Default)]
    struct MapCache {
        entries: std::collections::BTreeMap<(String, usize), Arc<Vec<f64>>>,
        hits: usize,
        misses: usize,
    }

    impl ChunkCache for MapCache {
        fn lookup(&mut self, file: &str, chunk: usize) -> Option<Arc<Vec<f64>>> {
            let got = self.entries.get(&(file.to_string(), chunk)).cloned();
            if got.is_some() {
                self.hits += 1;
            } else {
                self.misses += 1;
            }
            got
        }
        fn store(&mut self, file: &str, chunk: usize, values: Arc<Vec<f64>>) {
            self.entries.insert((file.to_string(), chunk), values);
        }
    }

    #[test]
    fn cached_aggregates_are_bit_identical_and_account_hits() {
        let m = sample();
        let slice = TimeRange::new(ts("2013-03-18 01:00"), ts("2013-03-19 07:00")).unwrap();
        for frame in [
            v2_frame(&m),
            v1_frame(&m),
            Frame::from_fxm_bytes(crate::fxm::encode_chunked_v3(&m, 24).unwrap(), "t.fxm").unwrap(),
        ] {
            for scan in [
                Scan::new(),
                Scan::new().time_slice(slice),
                Scan::new()
                    .time_slice(slice)
                    .with_predicate(Predicate::MaxAbove(1.0)),
            ] {
                let (fresh_agg, fresh_rep) = scan.aggregates(&frame).unwrap();
                let mut cache = MapCache::default();
                let mut scratch = Vec::new();
                // Cold pass: all misses, answer identical, decodes
                // offered into the cache.
                let (cold_agg, cold_rep) = scan
                    .aggregates_cached(&frame, &mut cache, &mut scratch)
                    .unwrap();
                assert_eq!(cold_agg, fresh_agg);
                assert_eq!(cold_rep.cache_hits, 0);
                assert_eq!(cold_rep.bytes_saved, 0);
                assert_eq!(cold_rep.chunks_decoded, fresh_rep.chunks_decoded);
                assert_eq!(cache.entries.len(), fresh_rep.chunks_decoded);
                // Warm pass: every decode becomes a hit; the answer
                // (and everything but the decode accounting) is
                // bit-identical to the fresh execution.
                let (warm_agg, warm_rep) = scan
                    .aggregates_cached(&frame, &mut cache, &mut scratch)
                    .unwrap();
                assert_eq!(warm_agg.sum_kwh.to_bits(), fresh_agg.sum_kwh.to_bits());
                assert_eq!(warm_agg, fresh_agg);
                assert_eq!(warm_rep.cache_hits, fresh_rep.chunks_decoded);
                assert_eq!(warm_rep.bytes_saved, fresh_rep.bytes_decoded);
                assert_eq!(warm_rep.chunks_decoded, 0);
                assert_eq!(warm_rep.bytes_decoded, 0);
                assert_eq!(warm_rep.chunks_stats_only, fresh_rep.chunks_stats_only);
                assert_eq!(warm_rep.intervals_selected, fresh_rep.intervals_selected);
            }
        }
    }

    #[test]
    fn report_absorb_folds_cache_counters() {
        let a = ScanReport {
            cache_hits: 2,
            bytes_saved: 100,
            bytes_read_index: 848,
            ..ScanReport::default()
        };
        let mut total = ScanReport::default();
        total.absorb(&a);
        total.absorb(&a);
        assert_eq!(total.cache_hits, 4);
        assert_eq!(total.bytes_saved, 200);
        assert_eq!(total.bytes_read_index, 1696);
    }

    #[test]
    fn empty_and_degenerate_slices_behave() {
        let m = sample();
        let frame = v2_frame(&m);
        // A slice entirely before the series selects nothing.
        let before = TimeRange::new(ts("2013-03-01"), ts("2013-03-02")).unwrap();
        let (agg, report) = Scan::new().time_slice(before).aggregates(&frame).unwrap();
        assert_eq!(agg.intervals, 0);
        assert_eq!(report.chunks_decoded + report.chunks_stats_only, 0);
        // Disjoint stacked slices collapse to empty.
        let a = TimeRange::new(ts("2013-03-18"), ts("2013-03-18 06:00")).unwrap();
        let b = TimeRange::new(ts("2013-03-19"), ts("2013-03-19 06:00")).unwrap();
        let (agg, _) = Scan::new()
            .time_slice(a)
            .time_slice(b)
            .aggregates(&frame)
            .unwrap();
        assert_eq!(agg.intervals, 0);
        // Stacked overlapping slices intersect.
        let c = TimeRange::new(ts("2013-03-18 03:00"), ts("2013-03-20")).unwrap();
        let (agg, _) = Scan::new()
            .time_slice(a)
            .time_slice(c)
            .aggregates(&frame)
            .unwrap();
        assert_eq!(agg.intervals, 12);
    }
}
