//! End-to-end scenario-pipeline benchmark **with a recorded baseline**.
//!
//! Unlike the micro benches, this harness measures the whole
//! simulate→extract→aggregate pipeline through [`ScenarioRunner`] on
//! one consumer thread and on as many as the host has cores (that leg
//! is skipped on a 1-core host), times the simulator, peak-extraction
//! and scheduling stages of a 300-household week and the store's read
//! and write stages, prints each row's median against the committed
//! file (flagging changes inside the rows' spread), and
//! **writes the measurements to
//! `BENCH_pipeline.json`** at the workspace root (per row: the
//! sampler's batch count, min, median, interquartile spread and tail
//! percentile in µs/iter, plus thread count and host parallelism; the
//! git revision once), so the perf trajectory across PRs has
//! distributions instead of folklore. Run it
//! with `cargo bench -p flextract-bench --bench bench_pipeline`; commit
//! the regenerated JSON when the numbers move for a reason.

use flextract_agg::{aggregate_offers, schedule_offers, AggregationConfig, ScheduleConfig};
use flextract_appliance::Catalog;
use flextract_bench::sample::{sample, Sample};
use flextract_core::{ExtractionConfig, ExtractionInput, FlexibilityExtractor, PeakExtractor};
use flextract_dataset::{
    ConsumerKind, Dataset, DatasetWriter, Degradation, MeasuredSeries, Predicate, ResidentStore,
    Scan, SeriesCodec, ShardedWriter,
};
use flextract_flexoffer::FlexOffer;
use flextract_scenario::{
    export_dataset, AggregationPolicy, DatasetCleaning, ExportOptions, ExtractorChoice, Scenario,
    ScenarioRunner, Workload,
};
use flextract_series::{FillStrategy, TimeSeries};
use flextract_sim::{
    simulate_household_series, simulate_household_with_catalog, simulate_wind_production,
    FleetConfig, HouseholdArchetype, WindFarmConfig,
};
use flextract_time::{Duration, Resolution, TimeRange, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::{Path, PathBuf};

/// One measured configuration.
struct Record {
    name: String,
    consumer_threads: usize,
    sample: Sample,
    /// Free-form context recorded next to the timing (e.g. the
    /// shard-prune ratio a sharded-store query achieved).
    note: Option<String>,
}

/// The corpus' default archetype mix, inlined so the bench is
/// self-contained (no dependency on the scenarios/ directory).
fn default_mix() -> Vec<(HouseholdArchetype, f64)> {
    vec![
        (HouseholdArchetype::SingleResident, 0.25),
        (HouseholdArchetype::Couple, 0.35),
        (HouseholdArchetype::FamilyWithChildren, 0.25),
        (HouseholdArchetype::SuburbanWithEv, 0.15),
    ]
}

fn fleet_scenario(name: &str, households: usize) -> Scenario {
    Scenario {
        name: name.into(),
        description: "pipeline benchmark fleet".into(),
        workload: Workload::Households {
            households,
            archetype_mix: default_mix(),
            tariff_sensitivity: 0.0,
        },
        start: "2013-03-18".into(),
        days: 1,
        resolution_min: 15,
        extractor: ExtractorChoice::Basic,
        flexible_share: 0.05,
        aggregation: AggregationPolicy::None,
        res_capacity_share: 0.0,
        seed: 2013,
    }
}

fn workspace_root() -> PathBuf {
    // crates/bench → workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .expect("bench crate lives two levels below the workspace root")
}

fn git_rev(root: &Path) -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let Some(rev) = git(&["rev-parse", "--short", "HEAD"]) else {
        return "unknown".into();
    };
    // A baseline recorded before its change is committed must not
    // pass for the parent revision.
    match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(changes) if !changes.is_empty() => format!("{rev}-dirty"),
        _ => rev,
    }
}

/// Export a degraded 48-household dataset to a scratch directory and
/// return the dataset-backed scenario that ingests it — the measured
/// leg of the `ingest_clean_extract` bench. The export itself is
/// deliberately untimed (it is a one-off, not part of the serving hot
/// path).
fn ingest_scenario(dir: &Path) -> Scenario {
    let source = fleet_scenario("bench_ingest_source", 48);
    export_dataset(
        &source,
        dir,
        &ExportOptions {
            degradation: Degradation {
                resolution_min: Some(15),
                noise_std: 0.02,
                gap_rate: 0.01,
                ..Degradation::default()
            },
            ..ExportOptions::default()
        },
    )
    .expect("benchmark dataset exports");
    Scenario {
        name: "bench_ingest_48hh_1d".into(),
        workload: Workload::Dataset {
            path: dir.display().to_string(),
            consumers: 48,
            cleaning: DatasetCleaning {
                fill: FillStrategy::Linear,
                screen_anomalies: true,
            },
            disaggregate: false,
        },
        ..fleet_scenario("bench_ingest_48hh_1d", 48)
    }
}

/// Write a 30-day 1-min 4-consumer dataset in the given codec and
/// return its directory. Synthetic values (no simulation) so the bench
/// isolates the storage layer.
fn query_dataset(codec: SeriesCodec, tag: &str) -> PathBuf {
    let start: Timestamp = "2013-03-18".parse().expect("static date");
    let intervals = 30 * 1440;
    let dir = std::env::temp_dir().join(format!(
        "flextract_bench_query_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut w = DatasetWriter::create(
        &dir,
        "bench_query",
        "30-day query benchmark fleet",
        start,
        Resolution::MIN_1,
        intervals,
        codec,
    )
    .expect("benchmark dataset dir is writable");
    for c in 0..4_usize {
        let values: Vec<f64> = (0..intervals)
            .map(|i| {
                let x = (i * 37 + c * 13) % 101;
                if x == 100 {
                    f64::NAN
                } else {
                    0.2 + x as f64 * 0.01
                }
            })
            .collect();
        let m = MeasuredSeries::new(start, Resolution::MIN_1, values).expect("finite values");
        w.write_consumer(&c.to_string(), ConsumerKind::Household, &m, None, None)
            .expect("consumer writes");
    }
    w.finish().expect("manifest writes");
    dir
}

/// Bytes of series payload files in a dataset directory (everything
/// but the manifest) — the on-disk footprint a codec choice buys.
fn series_disk_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter(|e| e.file_name().to_string_lossy() != "manifest.json")
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The query-engine stages: a one-day slice out of a 30-day series and
/// a whole-series aggregate, on FXM3 (compressed, chunk-skipping) vs
/// FXM2 (raw, chunk-skipping) vs FXM1 (full decode). Each iteration
/// re-reads the files — the out-of-core serving shape, not a warm
/// in-memory scan. Notes carry the on-disk footprint so the storage
/// cost sits next to the serving latency it buys.
fn query_benches(records: &mut Vec<Record>) {
    let start: Timestamp = "2013-03-18".parse().expect("static date");
    let day15 =
        TimeRange::starting_at(start + Duration::days(14), Duration::days(1)).expect("1 day");
    let mut fxm2_bytes = 0_u64;
    for (codec, tag) in [
        (SeriesCodec::Binary, "fxm2"),
        (SeriesCodec::BinaryV1, "fxm1"),
        (SeriesCodec::BinaryV3, "fxm3"),
    ] {
        let dir = query_dataset(codec, tag);
        let disk = series_disk_bytes(&dir);
        if tag == "fxm2" {
            fxm2_bytes = disk;
        }
        let size_note = if tag == "fxm3" && fxm2_bytes > 0 {
            format!(
                "{disk} B on disk ({:.2}x smaller than fxm2)",
                fxm2_bytes as f64 / disk as f64
            )
        } else {
            format!("{disk} B on disk")
        };
        let ds = Dataset::open(&dir).expect("benchmark dataset opens");
        let timed = sample(|| {
            for c in 0..ds.len() {
                black_box(ds.consumer_slice(c, day15).expect("slice reads"));
            }
        });
        records.push(Record {
            name: format!("query/time_slice_1d_of_30d/{tag}"),
            consumer_threads: 1,
            sample: timed,
            note: Some(size_note.clone()),
        });
        let scan = Scan::new();
        let timed = sample(|| {
            for c in 0..ds.len() {
                black_box(ds.consumer_aggregates(c, &scan).expect("aggregates"));
            }
        });
        records.push(Record {
            name: format!("query/full_scan_agg/{tag}"),
            consumer_threads: 1,
            sample: timed,
            note: Some(size_note),
        });
        // Print the pushdown audit once per codec so the skip ratio is
        // on record next to the timings.
        let (_, slice_report) = ds.consumer_slice(0, day15).expect("slice reads");
        let (_, agg_report) = ds.consumer_aggregates(0, &scan).expect("aggregates");
        println!(
            "query/{tag}: slice decoded {}/{} chunks, full-scan agg decoded {}/{} \
             (skip fractions {:.3} / {:.3})",
            slice_report.chunks_decoded,
            slice_report.chunks_total,
            agg_report.chunks_decoded,
            agg_report.chunks_total,
            slice_report.skip_fraction(),
            agg_report.skip_fraction(),
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The simulator stage of the `fleet_extract` workload: 300 households
/// of the default archetype mix over one week, simulated serially
/// against one shared catalog. Nothing is resampled or extracted, so the
/// rows are the simulator's per-minute loops and cycle placement alone.
///
/// - `sim/fleet_week/300hh` also builds each household's activation log
///   (`simulate_household_with_catalog`).
/// - `sim/fleet_week_series/300hh` builds none
///   (`simulate_household_series`): the call the scenario runner's
///   consumer loop makes.
fn sim_benches(records: &mut Vec<Record>) {
    let configs = FleetConfig {
        households: 300,
        base_seed: 1,
        archetype_mix: default_mix(),
        tariff_response: None,
        threads: 1,
    }
    .household_configs();
    let catalog = Catalog::extended();
    let week = TimeRange::starting_at(
        "2013-03-18".parse().expect("static date"),
        Duration::weeks(1),
    )
    .expect("one week");
    let timed = sample(|| {
        for cfg in &configs {
            black_box(simulate_household_with_catalog(cfg, week, &catalog));
        }
    });
    let minutes = configs.len() * 7 * 1440;
    records.push(Record {
        name: "sim/fleet_week/300hh".into(),
        consumer_threads: 1,
        sample: timed,
        note: Some(format!("{minutes} simulated minutes per iteration")),
    });
    let timed = sample(|| {
        for cfg in &configs {
            black_box(simulate_household_series(cfg, week, &catalog));
        }
    });
    records.push(Record {
        name: "sim/fleet_week_series/300hh".into(),
        consumer_threads: 1,
        sample: timed,
        note: Some(format!(
            "{minutes} simulated minutes per iteration, no activation log"
        )),
    });
}

/// The per-item stages of the `fleet_extract` workload, on its inputs:
/// 300 households of the default mix over one week (fleet seed 1),
/// simulated and resampled to 15 min untimed.
///
/// - `core/extract_peak/300hh_1w` times the peak extractor over every
///   household, one generator per consumer.
/// - `agg/schedule/300hh_1w` times the RES scheduler over the
///   aggregates of those offers, against the summed modified series
///   and wind sized to 30 % of the mean load.
fn extract_and_schedule_benches(records: &mut Vec<Record>) {
    let week = TimeRange::starting_at(
        "2013-03-18".parse().expect("static date"),
        Duration::weeks(1),
    )
    .expect("one week");
    let catalog = Catalog::extended();
    let markets: Vec<TimeSeries> = FleetConfig {
        households: 300,
        base_seed: 1,
        archetype_mix: default_mix(),
        tariff_response: None,
        threads: 1,
    }
    .household_configs()
    .iter()
    .map(|cfg| simulate_household_with_catalog(cfg, week, &catalog).series_at(Resolution::MIN_15))
    .collect();
    let extractor = PeakExtractor::new(ExtractionConfig::default());
    let consumer_rng = |i: usize| StdRng::seed_from_u64(1 ^ (i as u64).wrapping_mul(0x9E37_79B9));
    let extract_all = || {
        markets
            .iter()
            .enumerate()
            .map(|(i, m)| {
                extractor
                    .extract(&ExtractionInput::household(m), &mut consumer_rng(i))
                    .expect("peak extraction runs")
            })
            .collect::<Vec<_>>()
    };
    let timed = sample(|| black_box(extract_all()));
    let outputs = extract_all();
    let offers: Vec<FlexOffer> = outputs
        .iter()
        .flat_map(|o| o.flex_offers.iter().cloned())
        .collect();
    records.push(Record {
        name: "core/extract_peak/300hh_1w".into(),
        consumer_threads: 1,
        sample: timed,
        note: Some(format!(
            "{} households, {} offers",
            markets.len(),
            offers.len()
        )),
    });

    let mut demand = outputs[0].modified_series.clone();
    for o in &outputs[1..] {
        demand
            .add_assign(&o.modified_series)
            .expect("households share the market grid");
    }
    let total_kwh: f64 = markets.iter().map(TimeSeries::total_energy).sum();
    let farm = WindFarmConfig {
        capacity_kw: 0.3 * total_kwh / week.duration().as_hours_f64(),
        seed: 1 ^ 0xCAFE,
        ..WindFarmConfig::default()
    };
    let production = simulate_wind_production(&farm, week, Resolution::MIN_15);
    let aggregates: Vec<FlexOffer> = aggregate_offers(&offers, &AggregationConfig::default())
        .expect("offers aggregate")
        .into_iter()
        .map(|a| a.offer)
        .collect();
    let timed = sample(|| {
        schedule_offers(
            &aggregates,
            &demand,
            &production,
            &ScheduleConfig::default(),
            &mut StdRng::seed_from_u64(1 ^ 0xBEEF),
        )
        .expect("aggregates schedule")
    });
    records.push(Record {
        name: "agg/schedule/300hh_1w".into(),
        consumer_threads: 1,
        sample: timed,
        note: Some(format!(
            "{} aggregates of {} offers, {} climbing moves",
            aggregates.len(),
            offers.len(),
            ScheduleConfig::default().iterations
        )),
    });
}

/// The write stages over one metered-shaped export: 48 one-week 1-min
/// households (noise, anomalies, gaps, 0.001 kWh registers), each
/// written as its measured, truth and flex series.
///
/// - `write/export_dataset/48hh_1w` times the whole `export_dataset`
///   (simulate, degrade, encode, write), each run into a fresh
///   directory, so file creation is in the row.
/// - `write/encode_fxm3/48hh_1w` times `fxm::encode_v3` alone over the
///   export's 144 series, read back from the first run's files.
fn write_benches(records: &mut Vec<Record>, host_cpus: usize) {
    let base = std::env::temp_dir().join(format!("flextract_bench_write_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let source = Scenario {
        days: 7,
        ..fleet_scenario("bench_encode_source", 48)
    };
    let options = ExportOptions {
        degradation: Degradation {
            noise_std: 0.02,
            anomaly_rate: 0.0005,
            anomaly_factor: 4.0,
            anomaly_len: 3,
            gap_rate: 0.002,
            mean_gap_len: 5.0,
            quantize_kwh: 0.001,
            ..Degradation::default()
        },
        codec: SeriesCodec::BinaryV3,
        include_truth: true,
        ..ExportOptions::default()
    };
    let mut runs = 0;
    let timed = sample(|| {
        runs += 1;
        export_dataset(&source, &base.join(runs.to_string()), &options)
            .expect("benchmark dataset exports")
    });
    let dir = base.join("1");
    let files = std::fs::read_dir(&dir).map_or(0, Iterator::count);
    records.push(Record {
        name: "write/export_dataset/48hh_1w".into(),
        consumer_threads: host_cpus.max(1),
        sample: timed,
        note: Some(format!(
            "{files} files into a fresh directory per run, on every core"
        )),
    });

    let series: Vec<MeasuredSeries> = ["consumer", "truth", "flex"]
        .iter()
        .flat_map(|kind| (0..48).map(move |c| format!("{kind}_{c}.fxm")))
        .map(|name| {
            flextract_frame::fxm::open_file(&dir.join(name))
                .expect("exported frame opens")
                .into_measured()
                .expect("exported frame decodes")
        })
        .collect();
    std::fs::remove_dir_all(&base).ok();
    let values: usize = series.iter().map(MeasuredSeries::len).sum();
    let bytes: usize = series
        .iter()
        .map(|s| flextract_frame::fxm::encode_v3(s).len())
        .sum();
    let timed = sample(|| {
        for s in &series {
            black_box(flextract_frame::fxm::encode_v3(black_box(s)));
        }
    });
    records.push(Record {
        name: "write/encode_fxm3/48hh_1w".into(),
        consumer_threads: 1,
        sample: timed,
        note: Some(format!(
            "{} series, {values} values to {bytes} B ({:.1} ns per value)",
            series.len(),
            timed.median_us * 1e3 / values as f64
        )),
    });
}

/// The cold-open stage: opening a month of 1-min FXM3 files up to
/// stats-ready state through the single-read read-ahead path. What's
/// measured is IO, not decode work — no compressed payload byte is
/// touched.
fn cold_open_benches(records: &mut Vec<Record>) {
    let dir = query_dataset(SeriesCodec::BinaryV3, "cold_open");
    let files: Vec<PathBuf> = (0..4)
        .map(|c| dir.join(format!("consumer_{c}.fxm")))
        .collect();
    let chunks = flextract_frame::fxm::open_file(&files[0])
        .expect("read-ahead open")
        .chunks()
        .len();
    let disk = series_disk_bytes(&dir);

    let timed = sample(|| {
        for f in &files {
            let frame = flextract_frame::fxm::open_file(f).expect("read-ahead open");
            black_box(frame.chunks().len());
        }
    });
    records.push(Record {
        name: "cold_open/readahead_single_read/fxm3".into(),
        consumer_threads: 1,
        sample: timed,
        note: Some(format!(
            "4 files, {chunks} chunks each, {disk} B total — one buffered read per file"
        )),
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// The committed-corpus storage stage: what the FXM3 flip actually
/// bought on the datasets shipped in this repository. Re-encodes the
/// committed 1-min measured series as FXM2 and compares footprints;
/// the timing is a full cold open + payload decode of all three files.
fn committed_storage_bench(records: &mut Vec<Record>) {
    let ds_dir = workspace_root().join("datasets/ds_household_1min");
    let files: Vec<PathBuf> = (0..3)
        .map(|c| ds_dir.join(format!("consumer_{c}.fxm")))
        .collect();
    let v3_bytes: u64 = files
        .iter()
        .map(|f| std::fs::metadata(f).expect("committed dataset file").len())
        .sum();
    let v2_bytes: u64 = files
        .iter()
        .map(|f| {
            let series = flextract_frame::fxm::open_file(f)
                .expect("committed frame opens")
                .into_measured()
                .expect("committed frame decodes");
            flextract_frame::fxm::encode(&series).len() as u64
        })
        .sum();
    let ratio = v2_bytes as f64 / v3_bytes as f64;
    assert!(
        ratio >= 2.0,
        "the committed 1-min dataset must compress at least 2x ({v3_bytes} B vs {v2_bytes} B)"
    );
    let timed = sample(|| {
        for f in &files {
            let series = flextract_frame::fxm::open_file(f)
                .expect("committed frame opens")
                .into_measured()
                .expect("committed frame decodes");
            black_box(series.len());
        }
    });
    records.push(Record {
        name: "storage/committed_ds_household_1min/fxm3".into(),
        consumer_threads: 1,
        sample: timed,
        note: Some(format!(
            "measured files {v3_bytes} B on disk vs {v2_bytes} B as fxm2 — {ratio:.2}x compression"
        )),
    });
}

/// The sharded-store stages: a large lightweight fleet (one day at
/// 15 min per consumer, `BENCH_SHARD_CONSUMERS` consumers, default
/// 100 000 — CI sets a small value) behind shard-level statistics.
/// Measures the three serving shapes the root index is for: a
/// time-sliced point query that routes to one shard, a fleet roll-up
/// that opens no shard at all, and a predicate scan whose statistics
/// prune every shard. Each iteration reopens the store cold, so the
/// cost of *not* touching 99+% of the manifests is what's measured.
fn shard_store_benches(records: &mut Vec<Record>) {
    let consumers: usize = std::env::var("BENCH_SHARD_CONSUMERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000);
    let capacity = 512;
    let intervals = 96;
    let start: Timestamp = "2013-03-18".parse().expect("static date");
    let dir = std::env::temp_dir().join(format!(
        "flextract_bench_sharded_{}_{}",
        consumers,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut w = ShardedWriter::create(
        &dir,
        "bench_sharded",
        "large lightweight fleet for shard-prune benchmarks",
        start,
        Resolution::MIN_15,
        intervals,
        SeriesCodec::Binary,
        capacity,
    )
    .expect("benchmark store dir is writable");
    for c in 0..consumers {
        let values: Vec<f64> = (0..intervals)
            .map(|i| 0.2 + ((i * 37 + c * 13) % 101) as f64 * 0.01)
            .collect();
        let m = MeasuredSeries::new(start, Resolution::MIN_15, values).expect("finite values");
        w.write_consumer(&c.to_string(), ConsumerKind::Household, &m, None, None)
            .expect("consumer writes");
    }
    let root = w.finish().expect("root commits");
    let shards = root.shards.len();
    println!("shard_store: {consumers} consumers in {shards} shards at capacity {capacity}");

    // 1. Time-sliced single-consumer query: the root index routes to
    //    the one shard owning the consumer; the other shards' manifests
    //    are never read, let alone their series files.
    let midday = TimeRange::starting_at(start + Duration::minutes(6 * 60), Duration::minutes(720))
        .expect("12 h slice");
    let target = consumers / 2;
    let scan = Scan::new().time_slice(midday);
    let (_, point_report) = Dataset::open(&dir)
        .expect("store opens")
        .consumer_aggregates(target, &scan)
        .expect("point query");
    let timed = sample(|| {
        let ds = Dataset::open(&dir).expect("store opens");
        ds.consumer_aggregates(target, &scan).expect("point query")
    });
    records.push(Record {
        name: format!("shard_store/point_query_sliced/{consumers}c"),
        consumer_threads: 1,
        sample: timed,
        note: Some(format!(
            "opens 1/{shards} shard manifests ({:.1} % pruned); {} B read, {} B of payload decoded",
            100.0 * (shards - 1) as f64 / shards as f64,
            point_report.bytes_read,
            point_report.bytes_decoded
        )),
    });

    // 2. Fleet roll-up with no predicates: answered from the root's
    //    per-shard statistics alone — zero shards opened.
    let fleet_scan = Scan::new();
    let ds = Dataset::open(&dir).expect("store opens");
    let (_, report) = ds.fleet_aggregates(&fleet_scan).expect("fleet roll-up");
    assert_eq!(report.shards_opened(), 0, "stats-only fleet scan");
    assert_eq!(report.shards_stats_only, shards);
    let timed = sample(|| {
        let ds = Dataset::open(&dir).expect("store opens");
        ds.fleet_aggregates(&fleet_scan).expect("fleet roll-up")
    });
    records.push(Record {
        name: format!("shard_store/fleet_stats_only/{consumers}c"),
        consumer_threads: 1,
        sample: timed,
        note: Some(format!(
            "opens 0/{shards} shards (100.0 % answered from roll-ups); {} B read, {} B of payload decoded",
            report.bytes_read, report.bytes_decoded
        )),
    });

    // 3. A predicate no shard satisfies: the roll-ups prune everything.
    let prune_scan = Scan::new().with_predicate(Predicate::MaxAbove(1e9));
    let (_, report) = ds.fleet_aggregates(&prune_scan).expect("pruned scan");
    assert_eq!(report.shards_pruned, shards, "statistics prune every shard");
    let timed = sample(|| {
        let ds = Dataset::open(&dir).expect("store opens");
        ds.fleet_aggregates(&prune_scan).expect("pruned scan")
    });
    records.push(Record {
        name: format!("shard_store/fleet_predicate_prune/{consumers}c"),
        consumer_threads: 1,
        sample: timed,
        note: Some(format!(
            "prunes {shards}/{shards} shards (100.0 % pruned); {} B read, {} B of payload decoded",
            report.bytes_read, report.bytes_decoded
        )),
    });

    // 4. The resident warm path against the same store: the cold stage
    //    opens a fresh handle per query (full root parse — the serving
    //    shape the `shard_store/*` stages measure), the warm stages
    //    re-query one long-lived `ResidentStore` whose caches are
    //    primed, so only the fingerprint revalidation and the fold
    //    itself remain.
    let cold = sample(|| {
        let store = ResidentStore::open(&dir).expect("resident store opens");
        store
            .consumer_aggregates(target, &scan)
            .expect("point query")
    });
    records.push(Record {
        name: format!("query_cache/cold/{consumers}c"),
        consumer_threads: 1,
        sample: cold,
        note: Some("fresh ResidentStore per query: full root.json parse, empty caches".into()),
    });

    let store = ResidentStore::open(&dir).expect("resident store opens");
    let _ = store
        .consumer_aggregates(target, &scan)
        .expect("priming query");
    let (_, warm_report) = store
        .consumer_aggregates(target, &scan)
        .expect("warm point query");
    assert!(warm_report.cache_hits > 0, "warm point query must hit");
    assert_eq!(warm_report.bytes_read, 0, "warm point query re-read bytes");
    let warm = sample(|| {
        store
            .consumer_aggregates(target, &scan)
            .expect("warm query")
    });
    records.push(Record {
        name: format!("query_cache/warm/{consumers}c"),
        consumer_threads: 1,
        sample: warm,
        note: Some(format!(
            "resident frame + chunk pool: {} B saved per query; {:.0}x faster than cold ({:.1} ms)",
            warm_report.bytes_saved,
            cold.median_us / warm.median_us,
            cold.median_us / 1e3
        )),
    });

    let _ = store
        .fleet_aggregates(&fleet_scan)
        .expect("priming roll-up");
    let (_, warm_fleet_report) = store.fleet_aggregates(&fleet_scan).expect("warm roll-up");
    assert_eq!(
        warm_fleet_report.bytes_read_index, 0,
        "warm fleet roll-up re-read the index"
    );
    let warm_fleet = sample(|| store.fleet_aggregates(&fleet_scan).expect("warm roll-up"));
    records.push(Record {
        name: format!("query_cache/warm_fleet/{consumers}c"),
        consumer_threads: 1,
        sample: warm_fleet,
        note: Some(format!(
            "resident roll-ups over {shards} shard summaries, 0 B re-read; {} B of index saved",
            warm_fleet_report.bytes_saved
        )),
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// The static-analysis stages: one cold `flextract analyze` pass over
/// the committed workspace (no cache file — every source is lexed and
/// item-parsed) against warm passes where the file-hash cache answers
/// every file and only the symbol table, call graph and reachability
/// walk re-run. The gap between the two is the incremental win a CI
/// rerun or a watch loop actually sees.
fn analyze_benches(records: &mut Vec<Record>) {
    let root = workspace_root();
    let allowlist = flextract_analyze::load_allowlist(&root).expect("analyze.toml parses");
    let cache = std::env::temp_dir().join(format!(
        "flextract_bench_analyze_cache_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&cache);
    let opts = flextract_analyze::AnalyzeOptions {
        cache_path: Some(cache.clone()),
    };

    // Each cold pass deletes the cache first, so every pass lexes and
    // item-parses every file.
    let mut cold = None;
    let timed = sample(|| {
        let _ = std::fs::remove_file(&cache);
        cold = Some(
            flextract_analyze::analyze_tree_with(&root, &allowlist, &opts)
                .expect("the committed workspace scans"),
        );
    });
    let cold = cold.expect("sampled at least once");
    records.push(Record {
        name: "analyze/cold".into(),
        consumer_threads: 1,
        sample: timed,
        note: Some(format!(
            "{} files scanned, {} re-parsed",
            cold.files_scanned, cold.files_reparsed
        )),
    });

    let timed = sample(|| {
        let a = flextract_analyze::analyze_tree_with(&root, &allowlist, &opts)
            .expect("the committed workspace scans");
        assert_eq!(a.files_reparsed, 0, "warm runs must hit the cache");
        a
    });
    records.push(Record {
        name: "analyze/warm".into(),
        consumer_threads: 1,
        sample: timed,
        note: Some("file-hash cache hit on every file; semantic pass re-runs".into()),
    });
    let _ = std::fs::remove_file(&cache);
}

/// One row of a committed `BENCH_pipeline.json`, as far as the
/// comparison below reads it.
#[derive(serde::Deserialize)]
struct BaselineRow {
    name: String,
    consumer_threads: usize,
    median_us: f64,
    spread: f64,
}

#[derive(serde::Deserialize)]
struct Baseline {
    benches: Vec<BaselineRow>,
}

/// Print each row's median against the baseline at `path` (the file
/// about to be overwritten): old → new, the ratio, and "within spread"
/// when |ratio − 1| is below the larger of the two rows' spreads, i.e.
/// when the row cannot tell the change from noise. Prints only.
fn print_against_baseline(path: &Path, records: &[Record]) {
    let baseline = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str::<Baseline>(&text).map_err(|e| e.to_string()))
    {
        Ok(b) => b,
        Err(e) => {
            println!("no baseline to compare with ({}: {e})", path.display());
            return;
        }
    };
    println!("against {}:", path.display());
    for r in records {
        let old = baseline
            .benches
            .iter()
            .find(|b| b.name == r.name && b.consumer_threads == r.consumer_threads);
        let Some(old) = old else {
            println!("{:<44} ct={} new row", r.name, r.consumer_threads);
            continue;
        };
        let ratio = r.sample.median_us / old.median_us;
        let verdict = if (ratio - 1.0).abs() < old.spread.max(r.sample.spread) {
            "within spread"
        } else if ratio < 1.0 {
            "faster"
        } else {
            "slower"
        };
        println!(
            "{:<44} ct={} {:.1} -> {:.1} us  x{ratio:.3}  {verdict}",
            r.name, r.consumer_threads, old.median_us, r.sample.median_us
        );
    }
}

fn main() {
    let mid = fleet_scenario("bench_mid_fleet", 48);
    let stress = fleet_scenario("bench_stress_10k", 10_000);
    let ds_dir =
        std::env::temp_dir().join(format!("flextract_bench_dataset_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ds_dir);
    let ingest = ingest_scenario(&ds_dir);

    // The parallel leg runs at the host's core count, which
    // `ordered_parallel_map` clamps any larger request to, and not at
    // all on one core.
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let legs = std::iter::once(1).chain((host_cpus > 1).then_some(host_cpus));
    let mut records: Vec<Record> = Vec::new();
    for consumer_threads in legs {
        let runner = ScenarioRunner::with_threads(1).with_consumer_threads(consumer_threads);
        let run =
            |scenario: &Scenario| sample(|| runner.run(scenario).expect("benchmark scenario runs"));
        records.push(Record {
            name: "pipeline/mid_fleet_48hh_1d".into(),
            consumer_threads,
            sample: run(&mid),
            note: None,
        });
        // The measured-data leg: ingest (load + gap-fill + anomaly
        // screen) → extract → evaluate, fidelity leg included.
        records.push(Record {
            name: "pipeline/ingest_clean_extract_48hh_1d".into(),
            consumer_threads,
            sample: run(&ingest),
            note: Some("dataset leg reads fxm3 (the default export codec)".into()),
        });
        records.push(Record {
            name: "pipeline/stress_10k_households_1d".into(),
            consumer_threads,
            sample: run(&stress),
            note: None,
        });
    }
    std::fs::remove_dir_all(&ds_dir).ok();
    sim_benches(&mut records);
    extract_and_schedule_benches(&mut records);
    query_benches(&mut records);
    write_benches(&mut records, host_cpus);
    cold_open_benches(&mut records);
    committed_storage_bench(&mut records);
    shard_store_benches(&mut records);
    analyze_benches(&mut records);

    let root = workspace_root();
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"generated_by\": \"cargo bench -p flextract-bench --bench bench_pipeline\",\n",
    );
    json.push_str(&format!("  \"git_rev\": \"{}\",\n", git_rev(&root)));
    json.push_str("  \"benches\": [\n");
    for (i, r) in records.iter().enumerate() {
        let s = &r.sample;
        let tail = s
            .tail
            .map(|(pct, us)| format!(", \"p{pct}_us\": {us:.3}"))
            .unwrap_or_default();
        let note = r
            .note
            .as_ref()
            .map(|n| format!(", \"note\": \"{n}\""))
            .unwrap_or_default();
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"consumer_threads\": {}, \"host_cpus\": {host_cpus}, \
             \"samples\": {}, \"batch\": {}, \"min_us\": {:.3}, \"median_us\": {:.3}, \
             \"spread\": {:.3}{tail}{note} }}{}\n",
            r.name,
            r.consumer_threads,
            s.samples,
            s.batch,
            s.min_us,
            s.median_us,
            s.spread,
            if i + 1 < records.len() { "," } else { "" }
        ));
        println!(
            "{:<44} ct={} {s}{}",
            r.name,
            r.consumer_threads,
            r.note
                .as_ref()
                .map(|n| format!("  [{n}]"))
                .unwrap_or_default()
        );
    }
    json.push_str("  ]\n}\n");
    let out = root.join("BENCH_pipeline.json");
    print_against_baseline(&out, &records);
    std::fs::write(&out, &json).expect("BENCH_pipeline.json is writable");
    println!("wrote {}", out.display());
}
