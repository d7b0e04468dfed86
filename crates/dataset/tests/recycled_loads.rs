//! Ranged loads draw their series buffers and decode scratch from the
//! per-thread free list of [`flextract_series::recycle`]. Whatever that
//! list holds (dirty, oversized, or the previous consumer's series), a
//! load and clean must give the same bits as on a fresh thread, and a
//! consumer loop that hands its buffers back must be served from them.

use flextract_dataset::{
    ingest, CleaningConfig, ConsumerKind, Dataset, DatasetWriter, MeasuredSeries, SeriesCodec,
};
use flextract_series::{recycle, TimeSeries};
use flextract_time::{Duration, Resolution, TimeRange, Timestamp};
use std::path::{Path, PathBuf};

const CONSUMERS: usize = 3;
const DAYS: usize = 3;

fn start() -> Timestamp {
    "2013-03-18".parse().unwrap()
}

/// A 1-min FXM3 dataset with ground truth: noisy readings on a
/// 0.001 kWh grid with gap runs and spikes for the screen to catch.
fn export(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "flextract_recycled_loads_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let n = DAYS * 1440;
    let mut writer = DatasetWriter::create(
        &dir,
        "recycled_loads",
        "ranged loads through the recycler",
        start(),
        Resolution::MIN_1,
        n,
        SeriesCodec::BinaryV3,
    )
    .unwrap();
    let mut state = 0x853C_49E6_748F_EA9B_u64;
    let mut uniform = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1_u64 << 53) as f64
    };
    for c in 0..CONSUMERS {
        let total: Vec<f64> = (0..n)
            .map(|i| {
                let base = if (420..1380).contains(&(i % 1440)) {
                    0.02
                } else {
                    0.004
                };
                base + 0.01 * uniform()
            })
            .collect();
        let flex: Vec<f64> = total.iter().map(|v| 0.25 * v).collect();
        let measured: Vec<f64> = total
            .iter()
            .map(|&v| match uniform() {
                u if u < 0.003 => f64::NAN,
                u if u > 0.998 => 2.0,
                _ => (v / 0.001_f64).round() * 0.001,
            })
            .collect();
        writer
            .write_consumer(
                &c.to_string(),
                ConsumerKind::Household,
                &MeasuredSeries::new(start(), Resolution::MIN_1, measured).unwrap(),
                Some(&TimeSeries::new(start(), Resolution::MIN_1, total).unwrap()),
                Some(&TimeSeries::new(start(), Resolution::MIN_1, flex).unwrap()),
            )
            .unwrap();
    }
    writer.finish().unwrap();
    dir
}

/// The scenario-style horizon: a ranged read that starts and ends
/// mid-chunk.
fn horizon() -> TimeRange {
    TimeRange::starting_at(
        start() + Duration::minutes(100),
        Duration::minutes(2 * 1440 - 50),
    )
    .unwrap()
}

/// Every value bit a load and clean of one consumer yields, and its
/// cleaning tally.
#[derive(Debug, PartialEq)]
struct Loaded {
    measured: Vec<u64>,
    truth_total: Vec<u64>,
    truth_flex: Vec<u64>,
    cleaned: Vec<u64>,
    report: (usize, usize, usize, u64),
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Load and clean consumer `idx`, then hand its buffers back as the
/// scenario source does after resampling.
fn load_and_clean(ds: &Dataset, idx: usize) -> Loaded {
    let record = ds.consumer_in(idx, horizon(), true).unwrap();
    let truth_total = record.truth_total.unwrap();
    let truth_flex = record.truth_flex.unwrap();
    let measured = bits(record.measured.values());
    let cfg = CleaningConfig {
        screen_anomalies: true,
        ..CleaningConfig::default()
    };
    let (cleaned, report) = ingest::clean(record.measured, &cfg).unwrap();
    let loaded = Loaded {
        measured,
        truth_total: bits(truth_total.values()),
        truth_flex: bits(truth_flex.values()),
        cleaned: bits(cleaned.values()),
        report: (
            report.gaps_filled,
            report.anomalies_screened,
            report.anomalous_intervals,
            report.screened_kwh.to_bits(),
        ),
    };
    for series in [cleaned, truth_total, truth_flex] {
        recycle::recycle(series.into_values());
    }
    loaded
}

/// Every consumer loaded and cleaned on a fresh thread, whose free
/// list starts empty.
fn reference(dir: &Path) -> Vec<Loaded> {
    let dir = dir.to_path_buf();
    std::thread::spawn(move || {
        let ds = Dataset::open(&dir).unwrap();
        (0..CONSUMERS).map(|idx| load_and_clean(&ds, idx)).collect()
    })
    .join()
    .unwrap()
}

#[test]
fn dirty_recycled_buffers_do_not_reach_results() {
    let dir = export("dirty");
    let want = reference(&dir);
    assert!(
        want.iter().all(|l| l.report.0 > 0) && want.iter().any(|l| l.report.1 > 0),
        "the corpus must fill gaps and screen spikes: {:?}",
        want.iter().map(|l| l.report).collect::<Vec<_>>()
    );
    let ds = Dataset::open(&dir).unwrap();
    for (idx, want) in want.iter().enumerate() {
        // NaN, garbage and oversized buffers for the loads to draw
        // from: scratch-sized, horizon-sized and larger.
        recycle::recycle(vec![f64::NAN; 96]);
        recycle::recycle(vec![f64::from_bits(0x7FF8_DEAD_BEEF_0001); 2 * 1440]);
        recycle::recycle(vec![-1e300; 40 * 1440]);
        recycle::recycle(vec![f64::MIN_POSITIVE; 3 * 1440]);
        assert_eq!(&load_and_clean(&ds, idx), want, "consumer {idx}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn consumer_loops_reuse_their_buffers_and_stay_capped() {
    let dir = export("loop");
    let want = reference(&dir);
    let ds = Dataset::open(&dir).unwrap();
    assert_eq!(load_and_clean(&ds, 0), want[0]);
    // After the first consumer, every take on the load path (series
    // buffers and decode scratch alike) is served from recycled
    // buffers, and loading a consumer again gives the same bits.
    recycle::stats::reset();
    for pass in 0..3 {
        for (idx, want) in want.iter().enumerate() {
            assert_eq!(
                &load_and_clean(&ds, idx),
                want,
                "pass {pass}, consumer {idx}"
            );
            let stats = recycle::stats::get();
            assert!(stats.retained <= recycle::RETAINED, "{stats:?}");
            assert_eq!(stats.hits, stats.takes, "pass {pass}, consumer {idx}");
        }
    }
    // Three passes over the consumers, three files per consumer, and a
    // series buffer and a decode scratch per file.
    assert_eq!(recycle::stats::get().takes, 3 * CONSUMERS as u64 * 3 * 2);
    std::fs::remove_dir_all(&dir).ok();
}
