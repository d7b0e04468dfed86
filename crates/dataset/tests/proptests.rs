//! Property tests for the dataset layer.
//!
//! 1. **Codec round-trips** — CSV and chunked `FXM1` reproduce a
//!    measured series exactly, gaps included, for any chunk length.
//! 2. **Gap-fill energy bound** — `fill_gaps` stays within the bound
//!    documented on [`flextract_series::missing::fill_gaps`]: every
//!    anchored strategy adds between `gaps·min` and `gaps·max` of the
//!    finite values, and `Zero` adds exactly nothing.
//! 3. **Degradation determinism** — equal seeds produce byte-identical
//!    measured series.
//! 4. **Cleaning against its oracle** — `ingest::clean` (in-place
//!    screening, inline trailing std) is bit-identical to the copying
//!    pipeline it replaced, kept here as [`oracle_clean`]: same series,
//!    same `CleaningReport`, `screened_kwh` bits included.

use flextract_dataset::{
    codec, ingest, CleaningConfig, CleaningReport, ConsumerKind, Dataset, DatasetWriter,
    Degradation, MeasuredSeries, Predicate, ResidentStore, Scan, SeriesCodec, ShardedWriter,
};
use flextract_frame::fxm;
use flextract_series::anomaly::{Anomaly, AnomalyDirection};
use flextract_series::{missing, rolling, FillStrategy, TimeSeries};
use flextract_time::{Duration, Resolution, TimeRange, Timestamp};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn start() -> Timestamp {
    "2013-03-18".parse().unwrap()
}

/// A raw metered vector: finite non-negative values with gaps mixed in,
/// never all-gaps.
fn arb_metered(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        prop_oneof![
            3 => 0.0_f64..5.0,
            1 => Just(f64::NAN),
        ],
        2..max_len,
    )
    .prop_map(|mut v| {
        if v.iter().all(|x| x.is_nan()) {
            v[0] = 1.0;
        }
        v
    })
}

fn arb_fill() -> impl Strategy<Value = FillStrategy> {
    prop_oneof![
        Just(FillStrategy::Linear),
        Just(FillStrategy::Previous),
        Just(FillStrategy::SeasonalDaily),
        Just(FillStrategy::Zero),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn binary_codec_round_trips_any_series(values in arb_metered(300), chunk_len in 1_usize..64) {
        let m = MeasuredSeries::new(start(), Resolution::MIN_15, values).unwrap();
        // Both binary flavours: FXM2 (stats + footer) and legacy FXM1.
        for bytes in [
            fxm::encode_chunked(&m, chunk_len).unwrap(),
            fxm::encode_chunked_v1(&m, chunk_len).unwrap(),
        ] {
            let back = codec::decode(&bytes, "prop.fxm").unwrap();
            prop_assert_eq!(back.len(), m.len());
            prop_assert_eq!(back.gap_count(), m.gap_count());
            for (a, b) in back.values().iter().zip(m.values()) {
                prop_assert!(a.is_nan() == b.is_nan());
                if !a.is_nan() {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn csv_codec_round_trips_any_series(values in arb_metered(120)) {
        let m = MeasuredSeries::new(start(), Resolution::MIN_15, values).unwrap();
        let text = codec::to_csv(&m);
        let back = codec::from_csv(&text, "prop.csv").unwrap();
        prop_assert_eq!(back.len(), m.len());
        for (a, b) in back.values().iter().zip(m.values()) {
            prop_assert!(a.is_nan() == b.is_nan());
            if !a.is_nan() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "shortest-float must round-trip");
            }
        }
    }

    #[test]
    fn fill_gaps_respects_the_documented_energy_bound(
        values in arb_metered(200),
        strategy in arb_fill(),
    ) {
        let gaps = missing::gap_count(&values);
        let finite: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        let observed: f64 = finite.iter().sum();
        let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut filled = values.clone();
        let n = missing::fill_gaps(&mut filled, strategy, 96).unwrap();
        prop_assert_eq!(n, gaps);
        prop_assert!(filled.iter().all(|v| v.is_finite()));
        let total: f64 = filled.iter().sum();
        match strategy {
            FillStrategy::Zero => {
                prop_assert!((total - observed).abs() < 1e-9, "Zero adds no energy");
            }
            _ => {
                prop_assert!(
                    total >= observed + gaps as f64 * lo - 1e-9,
                    "{strategy:?}: total {total} below bound (observed {observed}, {gaps} gaps, min {lo})"
                );
                prop_assert!(
                    total <= observed + gaps as f64 * hi + 1e-9,
                    "{strategy:?}: total {total} above bound (observed {observed}, {gaps} gaps, max {hi})"
                );
            }
        }
    }

    #[test]
    fn degradation_is_a_pure_function_of_seed(
        seed in any::<u64>(),
        gap_rate in 0.0_f64..0.2,
        noise in 0.0_f64..0.1,
    ) {
        let series = TimeSeries::new(
            start(),
            Resolution::MIN_15,
            (0..192).map(|i| 0.2 + (i % 7) as f64 * 0.05).collect(),
        )
        .unwrap();
        let d = Degradation {
            noise_std: noise,
            gap_rate,
            ..Degradation::default()
        };
        let a = d.apply(&series, &mut StdRng::seed_from_u64(seed)).unwrap();
        let b = d.apply(&series, &mut StdRng::seed_from_u64(seed)).unwrap();
        prop_assert_eq!(
            codec::encode(&a, SeriesCodec::Binary),
            codec::encode(&b, SeriesCodec::Binary)
        );
    }

    /// **Compaction round-trip** — for any fleet, shard capacity and
    /// append-batch split, `compact(append*(export(fleet)))` yields a
    /// store whose shard grouping, roll-ups (modulo shard id — ids are
    /// generation counters) and every consumer's series bytes are
    /// bit-identical to exporting the whole fleet in one session.
    #[test]
    fn compaction_round_trips_to_a_fresh_export(
        fleet in proptest::collection::vec(arb_metered(40).prop_map(|mut v| { v.truncate(24); v }), 1..9),
        capacity in 1_usize..5,
        split in 1_usize..8,
    ) {
        let intervals = 24;
        let fleet: Vec<Vec<f64>> = fleet
            .into_iter()
            .map(|mut v| {
                v.resize(intervals, 0.5);
                v
            })
            .collect();
        let series = |values: &[f64]| {
            MeasuredSeries::new(start(), Resolution::MIN_15, values.to_vec()).unwrap()
        };
        let scratch = |tag: &str| {
            let dir = std::env::temp_dir().join(format!(
                "flextract_prop_compact_{tag}_{}_{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        };
        let writer = |dir: &std::path::Path| {
            ShardedWriter::create(
                dir,
                "prop",
                "compaction proptest",
                start(),
                Resolution::MIN_15,
                intervals,
                SeriesCodec::Binary,
                capacity,
            )
            .unwrap()
        };

        // One-session fresh export of the whole fleet.
        let fresh_dir = scratch("fresh");
        let mut w = writer(&fresh_dir);
        for (i, values) in fleet.iter().enumerate() {
            w.write_consumer(&i.to_string(), ConsumerKind::Household, &series(values), None, None)
                .unwrap();
        }
        let fresh_root = w.finish().unwrap();

        // The same fleet through export + append sessions in batches of
        // `split`, then compaction.
        let frag_dir = scratch("frag");
        let mut batches = fleet.chunks(split).enumerate();
        let (_, first) = batches.next().unwrap();
        let mut w = writer(&frag_dir);
        let mut next = 0_usize;
        for values in first {
            w.write_consumer(&next.to_string(), ConsumerKind::Household, &series(values), None, None)
                .unwrap();
            next += 1;
        }
        w.finish().unwrap();
        for (_, batch) in batches {
            let mut w = ShardedWriter::append(&frag_dir).unwrap();
            for values in batch {
                w.write_consumer(&next.to_string(), ConsumerKind::Household, &series(values), None, None)
                    .unwrap();
                next += 1;
            }
            w.finish().unwrap();
        }
        let summary = flextract_dataset::compact(&frag_dir).unwrap();

        // Same shard grouping and bit-identical roll-ups, id aside.
        prop_assert_eq!(summary.root.shards.len(), fresh_root.shards.len());
        for (a, b) in summary.root.shards.iter().zip(&fresh_root.shards) {
            let mut a = a.clone();
            a.id = b.id;
            prop_assert_eq!(&a, b);
        }
        // Every consumer's stored series reads back bit-identical.
        let fresh = Dataset::open(&fresh_dir).unwrap();
        let compacted = Dataset::open(&frag_dir).unwrap();
        prop_assert_eq!(fresh.len(), compacted.len());
        for i in 0..fresh.len() {
            let a = fresh.consumer(i).unwrap();
            let b = compacted.consumer(i).unwrap();
            prop_assert_eq!(&a.entry.id, &b.entry.id);
            for (x, y) in a.measured.values().iter().zip(b.measured.values()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        std::fs::remove_dir_all(&fresh_dir).ok();
        std::fs::remove_dir_all(&frag_dir).ok();
    }

    /// **Resident-store transparency** — any query answered through a
    /// warm [`ResidentStore`] (frame cache + chunk pool primed by a
    /// prior pass) is bit-identical to the answer a fresh
    /// [`Dataset::open`] computes, across both layouts, every codec,
    /// and arbitrary slice/predicate pushdowns.
    #[test]
    fn resident_store_answers_are_bit_identical_to_fresh_opens(
        fleet in proptest::collection::vec(arb_metered(40).prop_map(|mut v| { v.truncate(24); v }), 1..7),
        codec_pick in 0_usize..4,
        sharded in any::<bool>(),
        capacity in 1_usize..4,
        slice_at in 0_usize..24,
        slice_len in 1_usize..25,
        threshold in 0.0_f64..5.0,
    ) {
        let intervals = 24;
        let fleet: Vec<Vec<f64>> = fleet
            .into_iter()
            .map(|mut v| {
                v.resize(intervals, 0.5);
                v
            })
            .collect();
        let codec = [
            SeriesCodec::Csv,
            SeriesCodec::Binary,
            SeriesCodec::BinaryV1,
            SeriesCodec::BinaryV3,
        ][codec_pick];
        let dir = std::env::temp_dir().join(format!(
            "flextract_prop_resident_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let series = |values: &[f64]| {
            MeasuredSeries::new(start(), Resolution::MIN_15, values.to_vec()).unwrap()
        };
        if sharded {
            let mut w = ShardedWriter::create(
                &dir, "prop", "resident proptest", start(), Resolution::MIN_15,
                intervals, codec, capacity,
            ).unwrap();
            for (i, values) in fleet.iter().enumerate() {
                w.write_consumer(&i.to_string(), ConsumerKind::Household, &series(values), None, None)
                    .unwrap();
            }
            w.finish().unwrap();
        } else {
            let mut w = DatasetWriter::create(
                &dir, "prop", "resident proptest", start(), Resolution::MIN_15,
                intervals, codec,
            ).unwrap();
            for (i, values) in fleet.iter().enumerate() {
                w.write_consumer(&i.to_string(), ConsumerKind::Household, &series(values), None, None)
                    .unwrap();
            }
            w.finish().unwrap();
        }

        let lo = start() + Duration::minutes(15 * slice_at as i64);
        let hi = start() + Duration::minutes(15 * (slice_at + slice_len).min(intervals) as i64);
        let scans = [
            Scan::new(),
            Scan::new().time_slice(TimeRange::new(lo, hi).unwrap()),
            Scan::new().with_predicate(Predicate::MaxAbove(threshold)),
        ];

        let bits = |a: &flextract_dataset::Aggregates| (
            a.intervals, a.observed, a.gaps, a.sum_kwh.to_bits(),
            a.min.map(f64::to_bits), a.max.map(f64::to_bits),
        );
        let store = ResidentStore::open(&dir).unwrap();
        let fresh = Dataset::open(&dir).unwrap();
        for scan in &scans {
            for idx in 0..fleet.len() {
                // Cold (fills the caches), then warm (serves from them):
                // both must equal the fresh-open answer.
                let (cold, _) = store.consumer_aggregates(idx, scan).unwrap();
                let (warm, rep) = store.consumer_aggregates(idx, scan).unwrap();
                let (expect, _) = fresh.consumer_aggregates(idx, scan).unwrap();
                prop_assert_eq!(bits(&cold), bits(&expect));
                prop_assert_eq!(bits(&warm), bits(&expect));
                prop_assert!(rep.cache_hits > 0, "warm pass must hit: {:?}", rep);
                prop_assert_eq!(rep.bytes_read, 0, "warm pass re-read the frame");
            }
            let (warm_fleet, _) = store.fleet_aggregates(scan).unwrap();
            let (expect_fleet, _) = fresh.fleet_aggregates(scan).unwrap();
            prop_assert_eq!(bits(&warm_fleet), bits(&expect_fleet));
        }
        prop_assert_eq!(store.generation(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A sorted insert/remove buffer's trailing median — O(n·w), and no
/// code shared with `rolling::rolling_median` or the screen's kernel.
fn sorted_buffer_median(xs: &[f64], window: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(xs.len());
    let mut sorted: Vec<f64> = Vec::with_capacity(window);
    for (i, &x) in xs.iter().enumerate() {
        let pos = sorted.partition_point(|v| v.total_cmp(&x).is_lt());
        sorted.insert(pos, x);
        if i >= window {
            let old = xs[i - window];
            let pos = sorted.partition_point(|v| v.total_cmp(&old).is_lt());
            sorted.remove(pos);
        }
        let n = sorted.len();
        out.push(if n % 2 == 1 {
            sorted[n / 2]
        } else {
            0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
        });
    }
    out
}

/// The rolling screen as the copying pipeline ran it: the whole
/// trailing median (from [`sorted_buffer_median`]) and the whole
/// trailing std (`rolling_std`), then each interval judged against the
/// previous window's baseline.
fn oracle_rolling_anomalies(
    series: &TimeSeries,
    window: usize,
    z_threshold: f64,
    noise_floor_kwh: f64,
) -> Vec<Anomaly> {
    let xs = series.values();
    if xs.len() <= window {
        return Vec::new();
    }
    let med = sorted_buffer_median(xs, window);
    let std = rolling::rolling_std(xs, window);
    let mut runs: Vec<Anomaly> = Vec::new();
    let mut open = false;
    for i in window..xs.len() {
        let band = (z_threshold * std[i - 1]).max(noise_floor_kwh);
        let diff = xs[i] - med[i - 1];
        let status = if diff > band {
            Some((AnomalyDirection::High, diff / band.max(1e-12)))
        } else if diff < -band {
            Some((AnomalyDirection::Low, -diff / band.max(1e-12)))
        } else {
            None
        };
        match (runs.last_mut(), status) {
            (Some(run), Some((direction, z))) if open && run.direction == direction => {
                run.intervals += 1;
                run.deviation_kwh += diff;
                run.max_z = run.max_z.max(z);
            }
            (_, Some((direction, z))) => runs.push(Anomaly {
                start: series.timestamp_of(i),
                intervals: 1,
                direction,
                deviation_kwh: diff,
                max_z: z,
            }),
            (_, None) => {}
        }
        open = status.is_some();
    }
    runs
}

/// The copying cleaner: gap fill, then the screen masks a *copy* of
/// the filled values, re-fills the copy, and sums `screened_kwh` over
/// every interval of the two series.
fn oracle_clean(
    measured: MeasuredSeries,
    cfg: &CleaningConfig,
) -> Result<(TimeSeries, CleaningReport), String> {
    cfg.validate()?;
    let mut report = CleaningReport::default();
    let (mut series, gaps_filled) = measured.fill(cfg.fill).map_err(|e| e.to_string())?;
    report.gaps_filled = gaps_filled;
    if cfg.screen_anomalies && !series.is_empty() {
        let per_day = series.resolution().intervals_per_day();
        let window = if cfg.anomaly_window == 0 {
            per_day
        } else {
            cfg.anomaly_window
        };
        let anomalies =
            oracle_rolling_anomalies(&series, window, cfg.anomaly_z, cfg.noise_floor_kwh);
        if !anomalies.is_empty() {
            report.anomalies_screened = anomalies.len();
            report.anomalous_intervals = anomalies.iter().map(|a| a.intervals).sum();
            let mut values = series.values().to_vec();
            for a in &anomalies {
                let begin = series.index_of(a.start).unwrap();
                for v in &mut values[begin..(begin + a.intervals).min(series.len())] {
                    *v = f64::NAN;
                }
            }
            missing::fill_gaps(&mut values, cfg.fill, per_day).map_err(|e| e.to_string())?;
            let screened = TimeSeries::new(series.start(), series.resolution(), values)
                .map_err(|e| e.to_string())?;
            report.screened_kwh = screened
                .values()
                .iter()
                .zip(series.values())
                .map(|(a, b)| (a - b).abs())
                .sum();
            series = screened;
        }
    }
    Ok((series, report))
}

/// `clean` and the oracle agree on Ok/Err, the error text, every value
/// bit and every report field (`screened_kwh` by its bits). Returns
/// the agreed report.
fn assert_clean_matches_oracle(
    measured: &MeasuredSeries,
    cfg: &CleaningConfig,
) -> Result<Option<CleaningReport>, TestCaseError> {
    let got = ingest::clean(measured.clone(), cfg).map_err(|e| e.to_string());
    let want = oracle_clean(measured.clone(), cfg);
    match (got, want) {
        (Ok((series, report)), Ok((want_series, want_report))) => {
            prop_assert_eq!(series.start(), want_series.start());
            prop_assert_eq!(series.resolution(), want_series.resolution());
            let bits = |s: &TimeSeries| s.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&series), bits(&want_series), "{:?}", cfg);
            prop_assert_eq!(report.gaps_filled, want_report.gaps_filled);
            prop_assert_eq!(report.anomalies_screened, want_report.anomalies_screened);
            prop_assert_eq!(report.anomalous_intervals, want_report.anomalous_intervals);
            prop_assert_eq!(
                report.screened_kwh.to_bits(),
                want_report.screened_kwh.to_bits(),
                "screened_kwh {} vs {}",
                report.screened_kwh,
                want_report.screened_kwh
            );
            Ok(Some(report))
        }
        (Err(got), Err(want)) => {
            prop_assert!(got.ends_with(&want), "{} vs {}", got, want);
            Ok(None)
        }
        (got, want) => Err(TestCaseError::fail(format!(
            "clean {:?} but the oracle {:?}",
            got.map(|(_, r)| r),
            want.map(|(_, r)| r)
        ))),
    }
}

/// A deterministic week of 1-min readings on a 0.001 kWh grid: a
/// day/night base load with noise, spikes and dropouts, and gap runs.
/// The last three readings are a spike, so a screened run touches the
/// series end, and one spike run straddles a gap run.
fn metered_week_1min() -> MeasuredSeries {
    let mut state = 0x2545_F491_4F6C_DD1D_u64;
    let mut uniform = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1_u64 << 53) as f64
    };
    let n = 7 * 1440;
    let mut values: Vec<f64> = (0..n)
        .map(|i| {
            let base = if (420..1380).contains(&(i % 1440)) {
                0.02
            } else {
                0.004
            };
            let kwh = match uniform() {
                u if u < 0.002 => 0.0,
                u if u > 0.998 => 0.5 + 2.0 * uniform(),
                _ => base + 0.006 * uniform(),
            };
            (kwh / 0.001_f64).round() * 0.001
        })
        .collect();
    for (i, v) in values.iter_mut().enumerate() {
        if uniform() < 0.002 || (3000..3025).contains(&i) {
            *v = f64::NAN;
        }
    }
    // A spike run with a gap in its middle, well past the warm-up day.
    values[5000..5006].copy_from_slice(&[3.0, 3.0, f64::NAN, f64::NAN, 3.0, 3.0]);
    values[n - 3..].fill(3.0);
    MeasuredSeries::new(Timestamp::from_minutes(0), Resolution::MIN_1, values).unwrap()
}

#[test]
fn clean_matches_the_copying_oracle_on_a_metered_week() {
    let week = metered_week_1min();
    let len = week.len();
    let screen = |anomaly_window, anomaly_z, noise_floor_kwh| CleaningConfig {
        screen_anomalies: true,
        anomaly_window,
        anomaly_z,
        noise_floor_kwh,
        ..CleaningConfig::default()
    };
    for fill in [
        FillStrategy::Linear,
        FillStrategy::Previous,
        FillStrategy::SeasonalDaily,
        FillStrategy::Zero,
    ] {
        let cases = [
            (screen(0, 4.0, 0.05), true),
            (screen(60, 1.0, 0.0), true),
            (screen(len, 4.0, 0.05), false),
            (screen(len + 7, 1.0, 0.0), false),
            (CleaningConfig::default(), false),
        ];
        for (cfg, screens) in cases {
            let cfg = CleaningConfig { fill, ..cfg };
            let report = assert_clean_matches_oracle(&week, &cfg)
                .unwrap()
                .expect("the week has observed values under every strategy");
            assert!(report.gaps_filled > 25, "{fill:?}: {report:?}");
            assert_eq!(report.anomalies_screened > 0, screens, "{fill:?} {cfg:?}");
        }
        // The corpus reaches the edges it is meant to: a screened run
        // ending at the last interval and, under the strategies that
        // fill from the neighbours, one covering a filled gap.
        let (filled, _) = week.clone().fill(fill).unwrap();
        let runs = oracle_rolling_anomalies(&filled, 1440, 4.0, 0.05);
        assert!(
            runs.iter()
                .any(|a| filled.index_of(a.start).unwrap() + a.intervals == len),
            "{fill:?}: no run touches the end"
        );
        assert!(
            runs.iter().any(|a| {
                let at = filled.index_of(a.start).unwrap();
                (at..at + a.intervals).contains(&5002)
            }) || matches!(fill, FillStrategy::SeasonalDaily | FillStrategy::Zero),
            "{fill:?}: no run covers the filled gap"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn clean_matches_the_copying_oracle(
        values in proptest::collection::vec(
            prop_oneof![
                6 => (0_i64..60).prop_map(|k| 0.2 + k as f64 * 0.001),
                1 => 1.0_f64..5.0,
                1 => Just(0.0),
                1 => Just(f64::NAN),
            ],
            1..400,
        ),
        fill in arb_fill(),
        screen_anomalies in prop_oneof![4 => Just(true), 1 => Just(false)],
        anomaly_window in prop_oneof![Just(0_usize), 1_usize..80, 300_usize..500],
        anomaly_z in 0.5_f64..6.0,
        noise_floor_kwh in prop_oneof![Just(0.0), 0.0_f64..0.2],
    ) {
        let measured = MeasuredSeries::new(start(), Resolution::MIN_15, values).unwrap();
        let cfg = CleaningConfig {
            fill,
            screen_anomalies,
            anomaly_window,
            anomaly_z,
            noise_floor_kwh,
        };
        assert_clean_matches_oracle(&measured, &cfg)?;
    }
}
