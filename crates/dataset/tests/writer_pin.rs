//! A byte-level pin on every series-file writer.
//!
//! One fixed series with gaps, ±0, a subnormal and repeated values is
//! written by each codec: `FXM2`, legacy `FXM1` and `FXM3`, each at the
//! default chunk length and at a short one, and the CSV codec. The
//! committed datasets only pin the `FXM3` and CSV writers (no committed
//! file is `FXM1` or `FXM2`), so this is what holds the legacy writers'
//! bytes in place when the encoders change how they build a buffer.

use flextract_dataset::{codec, MeasuredSeries, SeriesCodec};
use flextract_frame::fxm;
use flextract_time::{Resolution, Timestamp};

/// FNV-1a over bytes, fixed across platforms and toolchains.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// 250 one-minute intervals: a ramp on a 0.001 grid with a run of
/// repeated readings, scattered gaps and a gap run, both zeros and the
/// smallest subnormal.
fn series() -> MeasuredSeries {
    let mut values: Vec<f64> = (0..250)
        .map(|i| ((i * 37) % 113) as f64 * 0.001 + 0.05)
        .collect();
    values[40..52].fill(0.125);
    for i in [3, 97, 191, 249] {
        values[i] = f64::NAN;
    }
    values[120..131].fill(f64::NAN);
    values[10] = 0.0;
    values[11] = -0.0;
    values[200] = f64::from_bits(1);
    let start: Timestamp = "2013-03-18 00:00".parse().expect("static date");
    MeasuredSeries::new(start, Resolution::MIN_1, values).expect("finite values")
}

#[test]
fn every_writer_emits_the_pinned_bytes() {
    let m = series();
    let hashes = [
        ("fxm2", fnv(&codec::encode(&m, SeriesCodec::Binary))),
        ("fxm1", fnv(&codec::encode(&m, SeriesCodec::BinaryV1))),
        ("fxm3", fnv(&codec::encode(&m, SeriesCodec::BinaryV3))),
        ("csv", fnv(&codec::encode(&m, SeriesCodec::Csv))),
        ("fxm2/7", fnv(&fxm::encode_chunked(&m, 7).unwrap())),
        ("fxm1/7", fnv(&fxm::encode_chunked_v1(&m, 7).unwrap())),
        ("fxm3/7", fnv(&fxm::encode_chunked_v3(&m, 7).unwrap())),
    ];
    let pinned = [
        ("fxm2", 0xe607_cf98_af3e_dce3),
        ("fxm1", 0xb1fd_d63a_eb7d_2edb),
        ("fxm3", 0x9ec6_a301_a72f_ec1b),
        ("csv", 0x962e_2b9f_b35b_6c2c),
        ("fxm2/7", 0x938b_4608_7e4e_0620),
        ("fxm1/7", 0x1df6_bd80_c6bf_7f54),
        ("fxm3/7", 0x4da9_f042_fe39_5631),
    ];
    let table: Vec<String> = hashes
        .iter()
        .map(|(name, h)| format!("(\"{name}\", 0x{h:016x}),"))
        .collect();
    assert_eq!(hashes, pinned, "writer bytes moved:\n{}", table.join("\n"));
}

#[test]
fn the_pinned_series_round_trips_through_every_writer() {
    let m = series();
    let bits = |s: &MeasuredSeries| s.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for c in [
        SeriesCodec::Binary,
        SeriesCodec::BinaryV1,
        SeriesCodec::BinaryV3,
    ] {
        let back = codec::decode(&codec::encode(&m, c), "pin.fxm").unwrap();
        assert_eq!(bits(&back), bits(&m), "{c:?}");
    }
    let csv = codec::encode(&m, SeriesCodec::Csv);
    let back = codec::from_csv(std::str::from_utf8(&csv).unwrap(), "pin.csv").unwrap();
    assert_eq!(bits(&back), bits(&m), "Csv");
}
