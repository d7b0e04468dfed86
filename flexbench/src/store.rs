//! The store layers, measured per layer only, in `metered_extract`'s
//! traced run, over a sharded FXM3 store of generated series:
//!
//! * warm point queries: pages of 64 12-h sliced point queries on
//!   Zipf-skewed keys through one long-lived `ResidentStore` whose frame
//!   budget holds the hot set but not the whole store, so cold keys miss
//!   and evict; each page has a traced replay;
//! * the warm fleet queries: the stats-only roll-up and a predicate
//!   that prunes every shard;
//! * the cold path: a fresh `Dataset::open` plus the same sliced point
//!   query, the shape of a one-shot `flextract query`;
//! * the write path on a side store: append a batch, commit, read one
//!   appended consumer back through a long-lived `ResidentStore`, and
//!   every 16th op compact.
//!
//! None of it is an end-to-end workload: on a shared host these paths'
//! latencies swing with the neighbours' load far more than the
//! extraction runs do (see `README.md`).
//!
//! Every series value is a multiple of 1/1024 kWh, so every sum is
//! exact and each answer can be checked bit for bit against the
//! generator, whatever order the store folds in.

use crate::check::{same, same_aggregates, Checks};
use crate::harness::{insert_percentile, settle, timed, Ctx, Deadline};
use crate::stats::{mean, percentile, Reservoir, Zipf};
use crate::trace::{stage_sum_verdict, Tracer};
use crate::{Metrics, RunConfig, Samples};
use flextract_dataset::{
    compact, Aggregates, ConsumerKind, Dataset, DatasetError, MeasuredSeries, Predicate,
    ResidentConfig, ResidentStore, RootIndex, Scan, ScanReport, SeriesCodec, ShardedWriter,
    ROOT_FILE, SHARDS_DIR,
};
use flextract_time::{Duration, Resolution, TimeRange, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Consumers in the serving store.
const SERVE_CONSUMERS: usize = 2_048;
/// The hot set: the consumers of the most probable Zipf ranks.
const HOT_KEYS: usize = 256;
/// The resident caches hold this many hot sets' worth of consumers.
const HOT_SETS_RESIDENT: usize = 2;
/// Zipf exponent of the point-query keys.
const ZIPF_S: f64 = 1.1;
/// Point queries per op: one page of meters, read one after another.
const PAGE: usize = 64;
/// Latency samples kept per query kind.
const RESERVOIR: usize = 50_000;
/// Share of the store layers' budget spent on the warm point queries;
/// the cold path gets the rest.
const WARM_SHARE: f64 = 0.3;
/// Untraced cold queries per traced cold replay.
const COLD_UNTRACED_PER_REPLAY: usize = 3;
/// Consumers in the store the write-path probe starts from.
const WRITE_BASE: usize = 512;
/// Consumers appended per write op.
const BATCH: usize = 64;
/// Every this many write ops, the op also compacts.
const COMPACT_EVERY: usize = 16;
/// Consumers per shard.
const CAPACITY: usize = 512;
/// One day at 15 minutes.
const INTERVALS: usize = 96;
/// The point queries' slice: 06:00 to 18:00.
const SLICE: Range<usize> = 24..72;
/// No generated value reaches this, so the predicate prunes every shard.
const PRUNE_ABOVE_KWH: f64 = 2.0;

fn start() -> Timestamp {
    Timestamp::from_ymd_hm(2013, 3, 18, 0, 0).expect("a valid date")
}

fn slice_scan() -> Scan {
    let from = start() + Duration::minutes(15 * SLICE.start as i64);
    let range = TimeRange::starting_at(from, Duration::minutes(15 * SLICE.len() as i64))
        .expect("a valid slice");
    Scan::new().time_slice(range)
}

/// The generated reading of `consumer` at interval `i`: a daily shape
/// plus seeded noise, on a 1/1024 kWh grid (at most 1663/1024 kWh).
fn value(seed: u64, consumer: usize, i: usize) -> f64 {
    let mut z = seed ^ ((consumer as u64) << 24) ^ i as u64;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let evening = if (68..84).contains(&i) { 512 } else { 0 };
    (128 + (z % 1024) + evening) as f64 / 1024.0
}

fn series(seed: u64, consumer: usize) -> Result<MeasuredSeries, String> {
    let values = (0..INTERVALS).map(|i| value(seed, consumer, i)).collect();
    MeasuredSeries::new(start(), Resolution::MIN_15, values).ctx("generated series")
}

/// What a scan over `range` of `consumer` must answer, from the
/// generator alone.
fn expected(seed: u64, consumer: usize, range: Range<usize>) -> Aggregates {
    let mut agg = Aggregates {
        intervals: range.len(),
        observed: range.len(),
        ..Aggregates::default()
    };
    for i in range {
        let v = value(seed, consumer, i);
        agg.sum_kwh += v;
        agg.min = Some(agg.min.map_or(v, |m| m.min(v)));
        agg.max = Some(agg.max.map_or(v, |m| m.max(v)));
    }
    agg
}

fn expected_fleet(seed: u64, consumers: usize) -> Aggregates {
    let mut agg = Aggregates::default();
    for c in 0..consumers {
        agg.merge(&expected(seed, c, 0..INTERVALS));
    }
    agg
}

/// Append `consumers` to `writer`.
fn write_consumers(
    w: &mut ShardedWriter,
    seed: u64,
    consumers: Range<usize>,
) -> Result<(), String> {
    for c in consumers {
        w.write_consumer(
            &c.to_string(),
            ConsumerKind::Household,
            &series(seed, c)?,
            None,
            None,
        )
        .ctx("write consumer")?;
    }
    Ok(())
}

/// Write a fresh sharded FXM3 store of `consumers` at `dir`.
fn write_store(dir: &Path, seed: u64, consumers: usize) -> Result<RootIndex, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut w = ShardedWriter::create(
        dir,
        "flexbench",
        "flexbench generated store",
        start(),
        Resolution::MIN_15,
        INTERVALS,
        SeriesCodec::BinaryV3,
        CAPACITY,
    )
    .ctx("create store")?;
    write_consumers(&mut w, seed, 0..consumers)?;
    w.finish().ctx("commit store")
}

/// Bytes of every file under `dir`, and of the `.fxm` series files
/// among them.
fn dir_bytes(dir: &Path) -> Result<(u64, u64), String> {
    let mut total = (0, 0);
    for entry in std::fs::read_dir(dir).ctx("list store")? {
        let entry = entry.ctx("list store")?;
        let meta = entry.metadata().ctx("stat store file")?;
        if meta.is_dir() {
            let (all, series) = dir_bytes(&entry.path())?;
            total.0 += all;
            total.1 += series;
        } else {
            total.0 += meta.len();
            if entry.path().extension().is_some_and(|x| x == "fxm") {
                total.1 += meta.len();
            }
        }
    }
    Ok(total)
}

/// The shard directory holding global consumer `idx`, routed from the
/// root's per-shard counts.
fn shard_dir(dir: &Path, root: &RootIndex, idx: usize) -> Result<PathBuf, String> {
    let mut rel = idx;
    for summary in &root.shards {
        if rel < summary.consumers {
            return Ok(dir.join(SHARDS_DIR).join(summary.dir_name()));
        }
        rel -= summary.consumers;
    }
    Err(format!("consumer {idx} is beyond the store"))
}

/// The long-lived state of the warm workload.
struct Warm {
    dir: PathBuf,
    store: ResidentStore,
    zipf: Zipf,
    /// Expected slice answers of every consumer.
    expected: Vec<Aggregates>,
    fleet: Aggregates,
    shards: usize,
    hot_set_bytes: u64,
    /// Bytes of every series file in the store.
    series_bytes: u64,
    /// Bytes of every file under the store directory.
    store_bytes: u64,
    /// The point query's slice, the roll-up, and the pruning predicate.
    point: Scan,
    stats: Scan,
    prune: Scan,
}

impl Warm {
    /// Write the serving store, size the resident caches to
    /// [`HOT_SETS_RESIDENT`] hot sets (more than the hot set, less than
    /// the store), open the handle and prime it with the hot keys and
    /// each fleet query.
    fn set_up(cfg: &RunConfig) -> Result<Warm, String> {
        let dir = cfg.work.join("serve");
        let root = write_store(&dir, cfg.seed, SERVE_CONSUMERS)?;
        let zipf = Zipf::new(SERVE_CONSUMERS, ZIPF_S, cfg.seed);
        let plain = Dataset::open(&dir).ctx("open store")?;
        let mut hot_set_bytes = 0;
        for &key in zipf.hottest(HOT_KEYS) {
            hot_set_bytes += plain.consumer_frame(key).ctx("hot frame")?.disk_bytes() as u64;
        }
        let (store_bytes, series_bytes) = dir_bytes(&dir)?;
        let config = ResidentConfig {
            frame_cache_bytes: HOT_SETS_RESIDENT * hot_set_bytes as usize,
            chunk_pool_bytes: HOT_SETS_RESIDENT * HOT_KEYS * INTERVALS * 8,
        };
        if config.frame_cache_bytes as u64 >= series_bytes {
            return Err(format!(
                "a frame budget of {} B holds the whole store ({series_bytes} B)",
                config.frame_cache_bytes
            ));
        }
        let store = ResidentStore::open_with(&dir, config).ctx("open resident store")?;
        let point = slice_scan();
        let stats = Scan::new();
        let prune = Scan::new().with_predicate(Predicate::MaxAbove(PRUNE_ABOVE_KWH));
        for &key in zipf.hottest(HOT_KEYS) {
            store.consumer_aggregates(key, &point).ctx("prime")?;
        }
        store.fleet_aggregates(&stats).ctx("prime")?;
        store.fleet_aggregates(&prune).ctx("prime")?;
        Ok(Warm {
            dir,
            store,
            zipf,
            expected: (0..SERVE_CONSUMERS)
                .map(|c| expected(cfg.seed, c, SLICE))
                .collect(),
            fleet: expected_fleet(cfg.seed, SERVE_CONSUMERS),
            shards: root.shards.len(),
            hot_set_bytes,
            series_bytes,
            store_bytes,
            point,
            stats,
            prune,
        })
    }

    /// Check a point answer against the generator; hand back its
    /// report.
    fn verify_point(
        &self,
        key: usize,
        answer: Result<(Aggregates, ScanReport), DatasetError>,
    ) -> Result<ScanReport, String> {
        let (agg, report) = answer.ctx("warm point query")?;
        same_aggregates("warm point answer", &agg, &self.expected[key])?;
        Ok(report)
    }

    /// Run one warm fleet query (`prune` picks the predicate over the
    /// roll-up) and check it. Returns its seconds and report.
    fn fleet_query(&self, prune: bool) -> Result<(f64, ScanReport), String> {
        let scan = if prune { &self.prune } else { &self.stats };
        let (answer, secs) = timed(|| self.store.fleet_aggregates(scan));
        let (agg, report) = answer.ctx("warm fleet query")?;
        if prune {
            same_aggregates("pruned answer", &agg, &Aggregates::default())?;
            same("shards pruned", report.shards_pruned, self.shards)?;
        } else {
            same_aggregates("fleet roll-up answer", &agg, &self.fleet)?;
            same(
                "shards answered from roll-ups",
                report.shards_stats_only,
                self.shards,
            )?;
        }
        Ok((secs, report))
    }
}

/// What the traced point replays and fleet queries counted.
#[derive(Default)]
struct WarmCounts {
    points: u64,
    frame_hits: u64,
    cache_hits: u64,
    pruned: usize,
    prunes: usize,
    stats_only: usize,
    rollups: usize,
}

/// The store layers, measured in `metered_extract`'s traced run for
/// `budget`: pages of Zipf-skewed point queries through one long-lived
/// `ResidentStore` over the serving store, each page followed by a
/// traced replay and the warm fleet queries; then the cold path; then
/// the write path, which runs a fixed number of ops. Returns the
/// per-layer metrics and the sample counts behind them.
pub fn trace_layers(
    cfg: &RunConfig,
    budget: std::time::Duration,
    checks: &mut Checks,
) -> Result<(Metrics, Samples), String> {
    let w = Warm::set_up(cfg)?;
    settle();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x3A53);
    let mut queried = vec![false; SERVE_CONSUMERS];
    // Up to millions of queries: keep a uniform sample of each latency.
    let mut page_s = Reservoir::new(RESERVOIR, cfg.seed ^ 1);
    let mut point_s = Reservoir::new(RESERVOIR, cfg.seed ^ 2);
    let mut fleet_s = Reservoir::new(RESERVOIR, cfg.seed ^ 3);
    let mut t = Tracer::default();
    let mut counts = WarmCounts::default();
    let warm_budget = budget.mul_f64(WARM_SHARE);
    let mut keys = [0; PAGE];
    let mut answers = Vec::with_capacity(PAGE);
    let deadline = Deadline::after(warm_budget);
    while deadline.more() {
        // The untraced page, each query timed on its own.
        keys.fill_with(|| w.zipf.sample(&mut rng));
        let mut page = 0.0;
        for &key in &keys {
            let (answer, secs) = timed(|| w.store.consumer_aggregates(key, &w.point));
            answers.push(answer);
            point_s.push(secs);
            page += secs;
        }
        page_s.push(page);
        for (&key, answer) in keys.iter().zip(answers.drain(..)) {
            checks.op(w.verify_point(key, answer).map(drop));
            queried[key] = true;
        }
        // Its traced twin: one span around each resident call.
        keys.fill_with(|| w.zipf.sample(&mut rng));
        let traced = t.op(|t| {
            keys.iter()
                .map(|&key| {
                    t.span("resident.point", || {
                        w.store.consumer_aggregates(key, &w.point)
                    })
                })
                .collect::<Vec<_>>()
        });
        for (&key, answer) in keys.iter().zip(traced) {
            let verdict = w.verify_point(key, answer);
            if let Ok(report) = &verdict {
                counts.points += 1;
                counts.cache_hits += report.cache_hits as u64;
                counts.frame_hits += u64::from(report.bytes_read == 0);
            }
            checks.op(verdict.map(drop));
        }
        checks.op(probe_warm_layers(&mut t, &w, &mut fleet_s, &mut counts));
    }
    // Warm answers must be bit-identical to a plain handle's cold-path
    // answers, for every key the loop queried.
    let plain = Dataset::open(&w.dir).ctx("open plain dataset")?;
    for key in (0..SERVE_CONSUMERS).filter(|&k| queried[k]) {
        let warm = w
            .store
            .consumer_aggregates(key, &w.point)
            .ctx("warm point query")?
            .0;
        let cold = plain
            .consumer_aggregates(key, &w.point)
            .ctx("plain point query")?
            .0;
        checks.fail_if(same_aggregates("warm vs cold answer", &warm, &cold));
    }
    let mut metrics = Metrics::new();
    let untraced_ms = page_s.sum() / page_s.seen().max(1) as f64 * 1e3;
    let gap = t.against(untraced_ms).abs();
    checks.op(stage_sum_verdict(gap));
    metrics.insert("trace.warm_stage_gap_pct", gap);
    let cache = w.store.cache_stats();
    let per_point = |n: u64| n as f64 / counts.points.max(1) as f64;
    metrics.insert(
        "resident.query_busy_us",
        t.span_ms("resident.point") * 1e3 / PAGE as f64,
    );
    metrics.insert(
        "resident.revalidate_us",
        t.probe_ms("resident.revalidate") * 1e3,
    );
    metrics.insert("resident.frame_hit_ratio", per_point(counts.frame_hits));
    metrics.insert(
        "resident.cache_hits_per_query",
        per_point(counts.cache_hits),
    );
    metrics.insert("resident.frame_bytes", cache.frame_bytes as f64);
    metrics.insert("resident.chunk_bytes", cache.chunk_bytes as f64);
    metrics.insert(
        "resident.frame_budget_bytes",
        w.store.config().frame_cache_bytes as f64,
    );
    metrics.insert("resident.hot_set_bytes", w.hot_set_bytes as f64);
    metrics.insert("store.series_bytes", w.series_bytes as f64);
    metrics.insert(
        "store.disk_bytes_per_value",
        w.store_bytes as f64 / (SERVE_CONSUMERS * INTERVALS) as f64,
    );
    metrics.insert(
        "dataset.fleet_fold_us",
        t.probe_ms("dataset.fleet_fold") * 1e3,
    );
    metrics.insert(
        "dataset.shards_pruned_ratio",
        counts.pruned as f64 / counts.prunes.max(1) as f64,
    );
    metrics.insert(
        "dataset.shards_stats_only_ratio",
        counts.stats_only as f64 / counts.rollups.max(1) as f64,
    );
    for (name, q) in [
        ("serve.point_warm_us_p50", 0.5),
        ("serve.point_warm_us_p90", 0.9),
    ] {
        insert_percentile(&mut metrics, name, point_s.kept(), q, 1e6);
    }
    for (name, q) in [
        ("serve.fleet_warm_us_p50", 0.5),
        ("serve.fleet_warm_us_p90", 0.9),
    ] {
        insert_percentile(&mut metrics, name, fleet_s.kept(), q, 1e6);
    }
    let mut samples = vec![
        ("warm_pages", page_s.seen()),
        ("point_warm", point_s.seen()),
        ("traced_pages", t.ops() as usize),
        ("fleet_warm", fleet_s.seen()),
    ];
    let cold_budget = budget.saturating_sub(warm_budget);
    let colds = probe_cold_path(cfg, &w, cold_budget, &mut metrics, checks)?;
    samples.push(("point_cold", colds));
    let writes = probe_write_path(cfg, &mut metrics, checks)?;
    samples.push(("write_path_ops", writes));
    Ok((metrics, samples))
}

/// Finer splits of warm queries, timed outside the replayed ops:
/// revalidation alone, each warm fleet query (checked, its latency kept
/// in `fleet_s`), and the plain fleet fold on a held snapshot.
fn probe_warm_layers(
    t: &mut Tracer,
    w: &Warm,
    fleet_s: &mut Reservoir,
    counts: &mut WarmCounts,
) -> Result<(), String> {
    let (dataset, _) = t
        .probe("resident.revalidate", || w.store.snapshot())
        .ctx("revalidate")?;
    for prune in [false, true] {
        let (secs, report) = w.fleet_query(prune)?;
        fleet_s.push(secs);
        if prune {
            counts.pruned += report.shards_pruned;
            counts.prunes += report.shards_total;
        } else {
            counts.stats_only += report.shards_stats_only;
            counts.rollups += report.shards_total;
        }
    }
    t.probe("dataset.fleet_fold", || {
        dataset.fleet_aggregates(&Scan::new())
    })
    .ctx("fleet fold")?;
    Ok(())
}

/// The cold path, measured for `budget`:
/// one-shot point queries on uniform keys (a fresh `Dataset::open` plus
/// the sliced query), with every [`COLD_UNTRACED_PER_REPLAY`]th query
/// followed by a replay that times open, route, frame open and fold as
/// spans. Its stage sum is checked against the untraced queries.
/// Returns the number of untraced cold queries.
fn probe_cold_path(
    cfg: &RunConfig,
    w: &Warm,
    budget: std::time::Duration,
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> Result<usize, String> {
    let dir = &w.dir;
    let root_path = dir.join(ROOT_FILE);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC01D);
    // The traced replay of one query: open, route, frame open and fold,
    // each a span; the index read is a probe outside the op.
    let replay = |t: &mut Tracer, key: usize| -> Result<(), String> {
        let index = t.probe("dataset.index_read", || std::fs::read(&root_path));
        t.count("dataset.index_bytes", index.map_or(0, |b| b.len() as u64));
        t.op(|t| {
            let ds = t.span("dataset.open", || Dataset::open(dir)).ctx("open")?;
            let entry = t
                .span("dataset.route", || ds.consumer_entry(key))
                .ctx("route")?;
            let root = ds.root().ok_or("the serving store is not sharded")?;
            let path = shard_dir(dir, root, key)?.join(&entry.measured);
            let frame = t
                .span("frame.open", || flextract_frame::fxm::open_file(&path))
                .ctx("open frame")?;
            let (agg, report) = t
                .span("scan.fold", || w.point.aggregates(&frame))
                .ctx("fold")?;
            t.count("scan.chunks_decoded", report.chunks_decoded as u64);
            t.count("scan.chunks_total", report.chunks_total as u64);
            t.count("scan.bytes_decoded", report.bytes_decoded as u64);
            let shard_index = ds.consumer_index_bytes(key).ctx("index bytes")? - ds.index_bytes();
            t.count("dataset.shard_index_bytes", shard_index as u64);
            same_aggregates("traced cold point answer", &agg, &w.expected[key])
        })
    };
    let mut t = Tracer::default();
    let mut op_s = Vec::new();
    let deadline = Deadline::after(budget);
    while deadline.more() {
        for _ in 0..COLD_UNTRACED_PER_REPLAY {
            let key = rng.gen_range(0..SERVE_CONSUMERS);
            let (answer, secs) =
                timed(|| Dataset::open(dir).and_then(|ds| ds.consumer_aggregates(key, &w.point)));
            checks.op(answer
                .ctx("cold point query")
                .and_then(|(agg, _)| same_aggregates("cold point answer", &agg, &w.expected[key])));
            op_s.push(secs);
        }
        let key = rng.gen_range(0..SERVE_CONSUMERS);
        checks.op(replay(&mut t, key));
    }
    let untraced_ms = mean(&op_s) * 1e3;
    let gap = t.against(untraced_ms).abs();
    checks.op(stage_sum_verdict(gap));
    metrics.insert("trace.cold_stage_gap_pct", gap);
    let read_us = t.probe_ms("dataset.index_read") * 1e3;
    let parse_us = t.span_ms("dataset.open") * 1e3 - read_us;
    let route_us = t.span_ms("dataset.route") * 1e3;
    metrics.insert("dataset.index_read_us", read_us);
    metrics.insert("dataset.index_parse_us", parse_us);
    metrics.insert("dataset.index_bytes", t.count_per_op("dataset.index_bytes"));
    metrics.insert("dataset.route_us", route_us);
    metrics.insert(
        "dataset.shard_index_bytes",
        t.count_per_op("dataset.shard_index_bytes"),
    );
    if let Some(p50_ms) = percentile(&op_s, 0.5).map(|s| s * 1e3) {
        metrics.insert(
            "dataset.parse_route_share_pct",
            100.0 * (parse_us + route_us) / 1e3 / p50_ms,
        );
    }
    metrics.insert("frame.open_us", t.span_ms("frame.open") * 1e3);
    metrics.insert("scan.fold_us", t.span_ms("scan.fold") * 1e3);
    metrics.insert("scan.chunks_decoded", t.count_per_op("scan.chunks_decoded"));
    metrics.insert("scan.chunks_total", t.count_per_op("scan.chunks_total"));
    metrics.insert("scan.bytes_decoded", t.count_per_op("scan.bytes_decoded"));
    metrics.insert("store.unaccounted_us", t.unaccounted_ms() * 1e3);
    insert_percentile(metrics, "serve.point_cold_ms_p50", &op_s, 0.5, 1e3);
    insert_percentile(metrics, "serve.point_cold_ms_p90", &op_s, 0.9, 1e3);
    Ok(op_s.len())
}

/// Re-create `to` as a tree of hard links to `from` (copies where the
/// file system refuses links). The writers never modify a file in
/// place, so the links keep `from` pristine.
fn link_tree(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).ctx("create store copy")?;
    for entry in std::fs::read_dir(from).ctx("list base store")? {
        let entry = entry.ctx("list base store")?;
        let dst = to.join(entry.file_name());
        if entry.file_type().ctx("stat base store")?.is_dir() {
            link_tree(&entry.path(), &dst)?;
        } else {
            std::fs::hard_link(entry.path(), &dst)
                .or_else(|_| std::fs::copy(entry.path(), &dst).map(drop))
                .ctx("link base store")?;
        }
    }
    Ok(())
}

/// The long-lived state of the write-path probe: a pristine base store,
/// the live store the ops write to, and the resident handle reading it.
struct Writer {
    base: PathBuf,
    live: PathBuf,
    store: ResidentStore,
    seed: u64,
    consumers: usize,
    ops_in_epoch: usize,
    rng: StdRng,
}

/// What one write op measured, in seconds.
struct WriteOp {
    append: f64,
    read_after_write: f64,
}

impl Writer {
    fn set_up(cfg: &RunConfig) -> Result<Writer, String> {
        let base = cfg.work.join("write-base");
        write_store(&base, cfg.seed, WRITE_BASE)?;
        let live = cfg.work.join("write-live");
        let _ = std::fs::remove_dir_all(&live);
        link_tree(&base, &live)?;
        let store = ResidentStore::open(&live).ctx("open resident store")?;
        store.consumer_aggregates(0, &slice_scan()).ctx("prime")?;
        Ok(Writer {
            base,
            live,
            store,
            seed: cfg.seed,
            consumers: WRITE_BASE,
            ops_in_epoch: 0,
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x1A7E),
        })
    }

    /// Whether the current epoch has run all its ops.
    fn epoch_done(&self) -> bool {
        self.ops_in_epoch == COMPACT_EVERY
    }

    /// Put the live store back to the base store, outside any op, and
    /// let the resident handle observe it.
    fn reset(&mut self) -> Result<(), String> {
        std::fs::remove_dir_all(&self.live).ctx("remove live store")?;
        link_tree(&self.base, &self.live)?;
        self.consumers = WRITE_BASE;
        self.ops_in_epoch = 0;
        self.store
            .consumer_aggregates(0, &slice_scan())
            .ctx("reopen after reset")?;
        settle();
        Ok(())
    }

    /// One op: append a batch and commit, then read one appended
    /// consumer back. Every library call is a span of `t`.
    fn op(&mut self, t: &mut Tracer) -> Result<WriteOp, String> {
        let batch = self.consumers..self.consumers + BATCH;
        let generation = self.store.generation();
        self.ops_in_epoch += 1;
        let started = std::time::Instant::now();
        let mut writer = t
            .span("sharded.append_open", || ShardedWriter::append(&self.live))
            .ctx("append open")?;
        for c in batch.clone() {
            let s = series(self.seed, c)?;
            t.span("sharded.write_consumer", || {
                writer.write_consumer(&c.to_string(), ConsumerKind::Household, &s, None, None)
            })
            .ctx("write consumer")?;
        }
        let root = t.span("sharded.finish", || writer.finish()).ctx("commit")?;
        let append = started.elapsed().as_secs_f64();
        self.consumers = batch.end;
        same("committed consumers", root.len(), self.consumers)?;

        let key = batch.start + self.rng.gen_range(0..BATCH);
        let scan = slice_scan();
        let started = std::time::Instant::now();
        // The reopen the read forces, split out of the query.
        t.span("resident.reopen", || self.store.snapshot())
            .ctx("reopen")?;
        let (agg, _) = t
            .span("resident.query", || {
                self.store.consumer_aggregates(key, &scan)
            })
            .ctx("read after write")?;
        let read_after_write = started.elapsed().as_secs_f64();
        same_aggregates(
            "read-after-write answer",
            &agg,
            &expected(self.seed, key, SLICE),
        )?;
        same(
            "generation after one commit",
            self.store.generation(),
            generation + 1,
        )?;
        same(
            "fleet count",
            self.store.dataset().ctx("snapshot")?.len(),
            self.consumers,
        )?;
        t.count(
            "resident.generation_bumps",
            self.store.generation() - generation,
        );
        t.count("sharded.shards", root.shards.len() as u64);
        let root_bytes = std::fs::metadata(self.live.join(ROOT_FILE)).map_or(0, |m| m.len());
        t.count("sharded.root_bytes", root_bytes);
        Ok(WriteOp {
            append,
            read_after_write,
        })
    }

    /// Compact the live store, checking that no consumer row changed
    /// and that the commit bumps the generation once. Returns the
    /// seconds `compact` took and the bytes it left under `shards/`.
    fn compact(&mut self) -> Result<(f64, u64), String> {
        let scan = slice_scan();
        // Sample the last batch: before and after compaction it sits in
        // one shard, so the check opens one shard manifest on each side.
        let sample: Vec<usize> = (0..8)
            .map(|_| self.rng.gen_range(self.consumers - BATCH..self.consumers))
            .collect();
        let rows = |store: &ResidentStore| -> Result<Vec<Aggregates>, String> {
            sample
                .iter()
                .map(|&k| {
                    store
                        .consumer_aggregates(k, &scan)
                        .map(|(a, _)| a)
                        .ctx("row")
                })
                .collect()
        };
        let before = rows(&self.store)?;
        let generation = self.store.generation();
        let (summary, secs) = timed(|| compact(&self.live));
        let summary = summary.ctx("compact")?;
        same(
            "consumers after compaction",
            summary.consumers,
            self.consumers,
        )?;
        let after = rows(&self.store)?;
        same(
            "generation after compaction",
            self.store.generation(),
            generation + 1,
        )?;
        for ((a, b), &k) in after.iter().zip(&before).zip(&sample) {
            same_aggregates("row across compaction", a, b)?;
            same_aggregates("row after compaction", a, &expected(self.seed, k, SLICE))?;
        }
        let (bytes, _) = dir_bytes(&self.live.join(SHARDS_DIR))?;
        Ok((secs, bytes))
    }
}

/// Epochs the write-path probe runs (each [`COMPACT_EVERY`] appends and
/// a compaction).
const WRITE_PROBE_EPOCHS: usize = 2;

/// The write path, measured on a side store
/// of 512 consumers: epochs of appends, each read back through a
/// long-lived `ResidentStore`, each epoch ending in a compaction, and
/// the store put back to its base between epochs. Per-layer only: every
/// write op creates files, and file creation on a shared VM drifts
/// several-fold between runs, so no end-to-end metric rests on it.
/// Returns the number of write ops.
fn probe_write_path(
    cfg: &RunConfig,
    metrics: &mut Metrics,
    checks: &mut Checks,
) -> Result<usize, String> {
    let mut w = Writer::set_up(cfg)?;
    let mut t = Tracer::default();
    let (mut append_s, mut raw_s, mut compact_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut compact_bytes = 0;
    for _ in 0..WRITE_PROBE_EPOCHS {
        while !w.epoch_done() {
            match t.op(|t| w.op(t)) {
                Ok(op) => {
                    append_s.push(op.append);
                    raw_s.push(op.read_after_write);
                    checks.op(Ok(()));
                }
                Err(e) => {
                    checks.op(Err(e));
                    break;
                }
            }
            let s = series(cfg.seed, w.consumers)?;
            t.probe("frame.encode", || flextract_frame::fxm::encode_v3(&s));
        }
        if w.epoch_done() {
            match w.compact() {
                Ok((secs, bytes)) => {
                    compact_s.push(secs);
                    compact_bytes = bytes;
                }
                Err(e) => checks.fail_if(Err(e)),
            }
        }
        w.reset()?;
    }
    metrics.insert("sharded.append_open_ms", t.span_ms("sharded.append_open"));
    metrics.insert(
        "sharded.write_consumer_us",
        t.span_ms("sharded.write_consumer") * 1e3 / BATCH as f64,
    );
    metrics.insert("sharded.finish_ms", t.span_ms("sharded.finish"));
    metrics.insert("sharded.root_bytes", t.count_per_op("sharded.root_bytes"));
    metrics.insert("sharded.compact_ms", mean(&compact_s) * 1e3);
    metrics.insert("sharded.compact_bytes_rewritten", compact_bytes as f64);
    metrics.insert("sharded.shards", t.count_per_op("sharded.shards"));
    metrics.insert("frame.encode_us", t.probe_ms("frame.encode") * 1e3);
    metrics.insert("resident.reopen_ms", t.span_ms("resident.reopen"));
    metrics.insert(
        "resident.generation_bumps",
        t.count_per_op("resident.generation_bumps"),
    );
    metrics.insert("write.unaccounted_ms", t.unaccounted_ms());
    insert_percentile(metrics, "write.append_ms_p50", &append_s, 0.5, 1e3);
    insert_percentile(metrics, "write.read_after_write_ms_p50", &raw_s, 0.5, 1e3);
    Ok(append_s.len())
}
