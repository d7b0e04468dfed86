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

use flextract_dataset::{
    codec, ConsumerKind, Dataset, DatasetWriter, Degradation, MeasuredSeries, Predicate,
    ResidentStore, Scan, SeriesCodec, ShardedWriter,
};
use flextract_frame::fxm;
use flextract_series::{missing, FillStrategy, TimeSeries};
use flextract_time::{Duration, Resolution, TimeRange, Timestamp};
use proptest::prelude::*;
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
