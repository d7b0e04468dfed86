//! Property tests for the chunk-stat frame engine.
//!
//! 1. **Stats fidelity** — for random series and random chunk lengths,
//!    the per-chunk statistics stored in an FXM2 buffer exactly match
//!    statistics recomputed from a full decode (bit-for-bit f64s).
//! 2. **Scan equivalence** — a `Scan` with any time slice and
//!    predicate produces exactly the brute-force filter over the
//!    materialized series, on the stat-carrying paths (FXM2 and
//!    compressed FXM3) and the degraded full-decode (FXM1) path —
//!    pushdown may only skip work, never change an answer.
//! 3. **Aggregate path equality** — the statistics-only aggregate
//!    answer is bit-identical to the full-decode answer (the chunk-
//!    ordered sum fold is shared by both paths).
//! 4. **Codec equivalence** — the FXM3 decode is bit-exact to the FXM2
//!    decode of the same series, over adversarial values (±0,
//!    subnormals, NaN-gap patterns, long constant runs).
//! 5. **Corruption contract** — random byte flips and truncations of
//!    FXM3 buffers never panic; every chunk that still decodes holds
//!    no ±∞ and exactly as many NaNs as its header's gap count.

use flextract_frame::fxm::{encode_chunked, encode_chunked_v1, encode_chunked_v3, Frame};
use flextract_frame::{ChunkStats, MeasuredSeries, Predicate, Scan};
use flextract_time::{Duration, Resolution, TimeRange, Timestamp};
use proptest::prelude::*;

fn start() -> Timestamp {
    "2013-03-18".parse().unwrap()
}

/// A raw metered vector: finite non-negative values with gaps mixed
/// in, never all-gaps.
fn arb_metered(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        prop_oneof![
            4 => 0.0_f64..5.0,
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

/// Adversarial values for the FXM3 XOR compressor: signed zeros,
/// subnormals, huge magnitudes, NaN gaps, and long constant runs (the
/// repeat arm expands one draw into a run of identical values).
fn arb_adversarial(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    let special = prop_oneof![
        Just(0.0_f64),
        Just(-0.0_f64),
        Just(f64::MIN_POSITIVE),
        Just(f64::from_bits(1)),                     // smallest subnormal
        Just(f64::from_bits(0x000F_FFFF_FFFF_FFFF)), // largest subnormal
        // Huge but sum-safe: both frame parsers reject chunks whose
        // statistics overflow to ±inf, so the format's domain excludes
        // runs of f64::MAX.
        Just(1e300),
        Just(-1e300),
        Just(1.0 + f64::EPSILON),
        Just(f64::NAN),
        -5.0_f64..5.0,
        1e-300_f64..1e-290,
    ];
    proptest::collection::vec((special, 1_usize..24), 2..max_len / 8).prop_map(|runs| {
        let mut v: Vec<f64> = runs
            .into_iter()
            .flat_map(|(x, n)| std::iter::repeat_n(x, n))
            .collect();
        if v.iter().all(|x| x.is_nan()) {
            v[0] = 1.0;
        }
        if v.len() < 2 {
            v.push(0.25);
        }
        v
    })
}

fn arb_predicate() -> impl Strategy<Value = Option<Predicate>> {
    prop_oneof![
        Just(None),
        Just(Some(Predicate::HasGaps)),
        (0.0_f64..5.0).prop_map(|t| Some(Predicate::MaxAbove(t))),
        (0.0_f64..5.0).prop_map(|t| Some(Predicate::MinBelow(t))),
    ]
}

/// The brute-force reference: chunk the values virtually, keep the
/// sliced part of every chunk whose sliced values match the predicate.
fn brute_force(
    values: &[f64],
    chunk_len: usize,
    lo: usize,
    hi: usize,
    predicate: Option<Predicate>,
) -> Vec<(usize, u64)> {
    let matches = |sliced: &[f64]| match predicate {
        None => true,
        Some(Predicate::HasGaps) => sliced.iter().any(|v| v.is_nan()),
        Some(Predicate::MaxAbove(t)) => sliced.iter().any(|v| !v.is_nan() && *v > t),
        Some(Predicate::MinBelow(t)) => sliced.iter().any(|v| !v.is_nan() && *v < t),
    };
    let mut out = Vec::new();
    for (c, chunk) in values.chunks(chunk_len).enumerate() {
        let first = c * chunk_len;
        let a = lo.saturating_sub(first).min(chunk.len());
        let b = hi.saturating_sub(first).min(chunk.len());
        if a >= b {
            continue;
        }
        let sliced = &chunk[a..b];
        if !matches(sliced) {
            continue;
        }
        out.extend(
            sliced
                .iter()
                .enumerate()
                .map(|(j, v)| (first + a + j, v.to_bits())),
        );
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fxm2_chunk_stats_match_a_full_decode(
        values in arb_metered(300),
        chunk_len in 1_usize..64,
    ) {
        let m = MeasuredSeries::new(start(), Resolution::MIN_15, values).unwrap();
        let frame = Frame::from_fxm_bytes(
            encode_chunked(&m, chunk_len).unwrap(),
            "prop.fxm",
        )
        .unwrap();
        let decoded = frame.decode().unwrap();
        prop_assert_eq!(decoded.len(), m.len());
        for meta in frame.chunks() {
            let stats = meta.stats.expect("v2 chunks carry stats");
            let recomputed =
                ChunkStats::from_values(&decoded.values()[meta.first..meta.first + meta.len]);
            prop_assert_eq!(stats.gaps, recomputed.gaps);
            prop_assert_eq!(stats.min.to_bits(), recomputed.min.to_bits());
            prop_assert_eq!(stats.max.to_bits(), recomputed.max.to_bits());
            prop_assert_eq!(stats.sum.to_bits(), recomputed.sum.to_bits());
        }
    }

    #[test]
    fn scan_equals_brute_force_on_both_codecs(
        values in arb_metered(300),
        chunk_len in 1_usize..64,
        slice_lo in 0_usize..300,
        slice_len in 0_usize..300,
        predicate in arb_predicate(),
    ) {
        let n = values.len();
        let m = MeasuredSeries::new(start(), Resolution::MIN_15, values.clone()).unwrap();
        let lo = slice_lo.min(n);
        let hi = (slice_lo + slice_len).min(n);
        let slice = TimeRange::starting_at(
            start() + Duration::minutes(lo as i64 * 15),
            Duration::minutes((hi - lo) as i64 * 15),
        )
        .unwrap();
        let mut scan = Scan::new().time_slice(slice);
        if let Some(p) = predicate {
            scan = scan.with_predicate(p);
        }
        let expected = brute_force(&values, chunk_len, lo, hi, predicate);

        let v2 = Frame::from_fxm_bytes(encode_chunked(&m, chunk_len).unwrap(), "p.fxm").unwrap();
        let v1 =
            Frame::from_fxm_bytes(encode_chunked_v1(&m, chunk_len).unwrap(), "p.fxm").unwrap();
        let v3 =
            Frame::from_fxm_bytes(encode_chunked_v3(&m, chunk_len).unwrap(), "p.fxm").unwrap();
        for frame in [&v2, &v1, &v3] {
            let (got, report) = scan.collect(frame).unwrap();
            let got: Vec<(usize, u64)> =
                got.into_iter().map(|(i, v)| (i, v.to_bits())).collect();
            prop_assert_eq!(&got, &expected);
            prop_assert_eq!(report.intervals_selected, expected.len());
        }

        // Aggregates agree bit-exactly across the codec paths, and
        // with a brute-force fold over the selected values.
        let (agg2, rep2) = scan.aggregates(&v2).unwrap();
        let (agg1, _) = scan.aggregates(&v1).unwrap();
        let (agg3, rep3) = scan.aggregates(&v3).unwrap();
        prop_assert_eq!(agg2.sum_kwh.to_bits(), agg1.sum_kwh.to_bits());
        prop_assert_eq!(agg2, agg1);
        prop_assert_eq!(agg2, agg3);
        // The compressed codec carries the same chunk statistics, so
        // its pushdown skips exactly what FXM2's does.
        prop_assert_eq!(rep2.chunks_decoded, rep3.chunks_decoded);
        prop_assert_eq!(rep2.chunks_stats_only, rep3.chunks_stats_only);
        let brute_sum: f64 = expected
            .iter()
            .map(|(_, bits)| f64::from_bits(*bits))
            .filter(|v| !v.is_nan())
            .sum();
        prop_assert!((agg2.sum_kwh - brute_sum).abs() < 1e-9);
        let brute_gaps = expected
            .iter()
            .filter(|(_, bits)| f64::from_bits(*bits).is_nan())
            .count();
        prop_assert_eq!(agg2.gaps, brute_gaps);
        // Pushdown only ever skips decodes; it never decodes more
        // than the stat-less path.
        prop_assert!(rep2.chunks_decoded <= agg_decodes_upper_bound(&v1, &scan));

        // Peak agrees across codecs (first-argmax semantics).
        let (peak2, _) = scan.peak(&v2).unwrap();
        let (peak1, _) = scan.peak(&v1).unwrap();
        let (peak3, _) = scan.peak(&v3).unwrap();
        prop_assert_eq!(peak2, peak1);
        prop_assert_eq!(peak2, peak3);
    }

    #[test]
    fn fxm3_round_trip_is_bit_exact_to_fxm2(
        pattern in arb_adversarial(260),
        chunk_len in 1_usize..64,
    ) {
        let m = MeasuredSeries::new(start(), Resolution::MIN_15, pattern).unwrap();
        let v2 = Frame::from_fxm_bytes(encode_chunked(&m, chunk_len).unwrap(), "a.fxm")
            .unwrap()
            .decode()
            .unwrap();
        let v3 = Frame::from_fxm_bytes(encode_chunked_v3(&m, chunk_len).unwrap(), "a.fxm")
            .unwrap()
            .decode()
            .unwrap();
        prop_assert_eq!(v2.len(), v3.len());
        for (a, b) in v2.values().iter().zip(v3.values()) {
            prop_assert_eq!(a.is_nan(), b.is_nan());
            if !a.is_nan() {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn materialize_is_an_exact_ranged_read(
        values in arb_metered(300),
        chunk_len in 1_usize..64,
        slice_lo in 0_usize..300,
        slice_len in 1_usize..300,
    ) {
        let n = values.len();
        let m = MeasuredSeries::new(start(), Resolution::MIN_15, values.clone()).unwrap();
        let lo = slice_lo.min(n);
        let hi = (slice_lo + slice_len).min(n);
        let slice = TimeRange::starting_at(
            start() + Duration::minutes(lo as i64 * 15),
            Duration::minutes((hi - lo) as i64 * 15),
        )
        .unwrap();
        let frame =
            Frame::from_fxm_bytes(encode_chunked(&m, chunk_len).unwrap(), "p.fxm").unwrap();
        let (sliced, report) = Scan::new().time_slice(slice).materialize(&frame).unwrap();
        prop_assert_eq!(sliced.len(), hi - lo);
        for (j, v) in sliced.values().iter().enumerate() {
            let orig = values[lo + j];
            prop_assert!(v.is_nan() == orig.is_nan());
            if !v.is_nan() {
                prop_assert_eq!(v.to_bits(), orig.to_bits());
            }
        }
        // Exactly the overlapping chunks decode, no more.
        let overlapping = values
            .chunks(chunk_len)
            .enumerate()
            .filter(|(c, chunk)| {
                let first = c * chunk_len;
                lo < first + chunk.len() && hi > first
            })
            .count();
        prop_assert_eq!(report.chunks_decoded, overlapping);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn fxm3_corruption_never_panics_and_keeps_the_gap_contract(
        pattern in arb_adversarial(260),
        chunk_len in 1_usize..64,
        flips in proptest::collection::vec((any::<u64>(), any::<u8>()), 0..6),
        cut in any::<u64>(),
        truncate in 0_u8..4,
    ) {
        let m = MeasuredSeries::new(start(), Resolution::MIN_15, pattern).unwrap();
        let mut raw = encode_chunked_v3(&m, chunk_len).unwrap();
        for (at, mask) in flips {
            let i = (at % raw.len() as u64) as usize;
            raw[i] ^= mask.max(1);
        }
        // One case in four also cuts the buffer short.
        if truncate == 0 {
            raw.truncate((cut % raw.len() as u64) as usize);
        }
        let Ok(frame) = Frame::from_fxm_bytes(raw, "c.fxm") else {
            return Ok(());
        };
        let mut scratch = Vec::new();
        for (i, meta) in frame.chunks().iter().enumerate() {
            let Ok(values) = frame.chunk_values(i, &mut scratch) else {
                continue;
            };
            prop_assert_eq!(values.len(), meta.len);
            prop_assert!(values.iter().all(|v| !v.is_infinite()));
            let nans = values.iter().filter(|v| v.is_nan()).count();
            prop_assert_eq!(Some(nans as u32), meta.stats.map(|s| s.gaps));
        }
    }
}

/// Every chunk the stat-less path decodes for this scan — the upper
/// bound pushdown must stay under.
fn agg_decodes_upper_bound(v1: &Frame, scan: &Scan) -> usize {
    let (_, report) = scan.aggregates(v1).unwrap();
    report.chunks_decoded
}

/// The acceptance-criterion shape: one day sliced out of a 30-day
/// FXM2 series decodes only the chunks overlapping that day.
#[test]
fn one_day_of_thirty_decodes_only_overlapping_chunks() {
    // 30 days of 1-min data: 43 200 intervals, 450 chunks of 96.
    let values: Vec<f64> = (0..43_200)
        .map(|i| 0.2 + ((i * 37) % 101) as f64 * 0.01)
        .collect();
    let m = MeasuredSeries::new(start(), Resolution::MIN_1, values).unwrap();
    let frame = Frame::from_fxm_bytes(encode_chunked(&m, 96).unwrap(), "month.fxm").unwrap();
    assert_eq!(frame.chunks().len(), 450);

    let day15 = TimeRange::starting_at(start() + Duration::days(14), Duration::days(1)).unwrap();
    let scan = Scan::new().time_slice(day15);

    // One day = 1440 intervals = exactly 15 chunks (96-interval
    // chunks align with day boundaries at 1-min resolution).
    let (sliced, report) = scan.materialize(&frame).unwrap();
    assert_eq!(sliced.len(), 1440);
    assert_eq!(report.chunks_decoded, 15, "{report:?}");
    assert_eq!(report.chunks_skipped_slice, 435, "{report:?}");

    // The aggregate form of the same query touches no payload at all:
    // every selected chunk is fully covered, so stats answer it.
    let (agg, report) = scan.aggregates(&frame).unwrap();
    assert_eq!(agg.intervals, 1440);
    assert_eq!(report.chunks_decoded, 0, "{report:?}");
    assert_eq!(report.chunks_stats_only, 15, "{report:?}");
    assert!(report.skip_fraction() == 1.0);
}
