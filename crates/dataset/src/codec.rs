//! Loss-free codecs for measured series: the chunked binary frame
//! formats (compressed `FXM3`, stat-carrying `FXM2` and legacy `FXM1`,
//! all owned by [`flextract_frame::fxm`]) and `interval_start,kwh` CSV.
//!
//! All formats carry gaps explicitly (a gap bitmap in `FXM3`, a
//! canonical `NaN` payload in the older binary formats, an empty `kwh`
//! field in CSV) and round-trip exactly: the binary formats preserve
//! raw IEEE-754 bits (`FXM3` compresses them losslessly), and the CSV
//! writer uses Rust's shortest round-trip float rendering, so
//! `decode(encode(m)) == m` byte for byte in both directions.
//!
//! This is the one module that knows how a series file is laid out:
//! [`encode`] writes any [`SeriesCodec`], [`decode`] reads any binary
//! version (sniffed by magic) and [`from_csv`] reads the rest. The
//! binary layouts (including the per-chunk statistics and footer chunk
//! index) are documented on [`flextract_frame::fxm`]; this module
//! adapts them to [`DatasetError`] and keeps the CSV format, which is
//! row-shaped and needs row/column error context the frame layer has
//! no concept of.

use crate::{DatasetError, MeasuredSeries, SeriesCodec};
use flextract_frame::fxm;
use flextract_series::SeriesError;
use flextract_time::{Resolution, Timestamp};

pub use flextract_frame::fxm::{sniff, FxmVersion, DEFAULT_CHUNK_LEN};

/// Encode a measured series as one series file in `codec`, binary
/// formats chunked at [`DEFAULT_CHUNK_LEN`] intervals. Other chunk
/// lengths are a frame-layer concern: call [`flextract_frame::fxm`]
/// directly.
pub fn encode(series: &MeasuredSeries, codec: SeriesCodec) -> Vec<u8> {
    match codec {
        SeriesCodec::Csv => to_csv(series).into_bytes(),
        SeriesCodec::Binary => fxm::encode(series),
        SeriesCodec::BinaryV1 => fxm::encode_v1(series),
        SeriesCodec::BinaryV3 => fxm::encode_v3(series),
    }
}

/// Decode a full measured series from a binary frame buffer (any
/// version, sniffed by magic). `file` names the source in errors.
pub fn decode(buf: &[u8], file: &str) -> Result<MeasuredSeries, DatasetError> {
    fxm::decode(buf, file).map_err(Into::into)
}

/// Render a measured series as `interval_start,kwh` CSV; a gap is an
/// empty `kwh` field. Values use Rust's shortest round-trip float
/// rendering, so parsing the output reproduces the series exactly.
pub fn to_csv(series: &MeasuredSeries) -> String {
    let mut out = String::with_capacity(series.len() * 28 + 20);
    out.push_str("interval_start,kwh\n");
    for (i, &v) in series.values().iter().enumerate() {
        let t = series.timestamp_of(i);
        if v.is_nan() {
            out.push_str(&format!("{t},\n"));
        } else {
            out.push_str(&format!("{t},{v}\n"));
        }
    }
    out
}

/// Parse `interval_start,kwh` CSV into a measured series.
///
/// Every row's timestamp must land exactly on the grid implied by the
/// first two rows (same spacing, no missing rows — a missing *value* is
/// an empty `kwh` field, not an absent line). Errors name `file`, the
/// 1-based row, and the offending column.
pub fn from_csv(text: &str, file: &str) -> Result<MeasuredSeries, DatasetError> {
    let mut rows: Vec<(usize, Timestamp, f64)> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let row = lineno + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with("interval_start") {
            continue;
        }
        let Some((ts_part, kwh_part)) = line.rsplit_once(',') else {
            return Err(DatasetError::Csv {
                file: file.to_string(),
                row,
                column: "interval_start",
                what: "expected `timestamp,kwh`".to_string(),
            });
        };
        let t: Timestamp = ts_part.trim().parse().map_err(|e| DatasetError::Csv {
            file: file.to_string(),
            row,
            column: "interval_start",
            what: format!("bad timestamp `{}`: {e}", ts_part.trim()),
        })?;
        let kwh_part = kwh_part.trim();
        let v: f64 = if kwh_part.is_empty() {
            f64::NAN
        } else {
            let parsed: f64 = kwh_part.parse().map_err(|_| DatasetError::Csv {
                file: file.to_string(),
                row,
                column: "kwh",
                what: format!("not a number: `{kwh_part}`"),
            })?;
            if parsed.is_infinite() || parsed.is_nan() {
                return Err(DatasetError::Csv {
                    file: file.to_string(),
                    row,
                    column: "kwh",
                    what: format!("non-finite value `{kwh_part}` (use an empty field for a gap)"),
                });
            }
            parsed
        };
        rows.push((row, t, v));
    }
    let (Some(&(_, start, _)), Some(&(second_row, second_t, _))) = (rows.first(), rows.get(1))
    else {
        return Err(DatasetError::Invalid {
            file: file.to_string(),
            what: "CSV needs at least two data rows".to_string(),
        });
    };
    let step = (second_t - start).as_minutes();
    let resolution = Resolution::from_minutes(step).map_err(|_| DatasetError::Csv {
        file: file.to_string(),
        row: second_row,
        column: "interval_start",
        what: format!("rows are {step} min apart, which does not divide a day"),
    })?;
    for (i, &(row, t, _)) in rows.iter().enumerate() {
        let expected = start + resolution.interval() * i as i64;
        if t != expected {
            return Err(DatasetError::Csv {
                file: file.to_string(),
                row,
                column: "interval_start",
                what: format!("timestamp {t} is off-grid (expected {expected})"),
            });
        }
    }
    MeasuredSeries::new(
        start,
        resolution,
        rows.into_iter().map(|(_, _, v)| v).collect(),
    )
    .map_err(|e| match e {
        SeriesError::UnalignedStart => DatasetError::Csv {
            file: file.to_string(),
            row: 2,
            column: "interval_start",
            what: "series start is not aligned to the resolution grid".to_string(),
        },
        other => DatasetError::Series(other),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BINARY: [SeriesCodec; 3] = [
        SeriesCodec::Binary,
        SeriesCodec::BinaryV1,
        SeriesCodec::BinaryV3,
    ];

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    fn sample() -> MeasuredSeries {
        MeasuredSeries::new(
            ts("2013-03-18"),
            Resolution::MIN_15,
            vec![0.25, f64::NAN, 0.75, 1.0, f64::NAN],
        )
        .unwrap()
    }

    /// Read a series file the way the store does: binary by magic,
    /// anything else as CSV.
    fn read(bytes: &[u8], file: &str) -> Result<MeasuredSeries, DatasetError> {
        if sniff(bytes).is_some() {
            decode(bytes, file)
        } else {
            from_csv(std::str::from_utf8(bytes).unwrap(), file)
        }
    }

    fn assert_bit_identical(a: &MeasuredSeries, b: &MeasuredSeries) {
        assert_eq!(a.start(), b.start());
        assert_eq!(a.resolution(), b.resolution());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.values().iter().zip(b.values()) {
            assert!(x.is_nan() == y.is_nan());
            if !x.is_nan() {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// Encode `sample()` in every binary codec, let `corrupt` edit the
    /// bytes, and return each decode error's message.
    fn corrupted(corrupt: impl Fn(&mut [u8])) -> Vec<String> {
        BINARY
            .iter()
            .map(|&c| {
                let mut raw = encode(&sample(), c);
                corrupt(&mut raw);
                let err = decode(&raw, "bad.fxm").unwrap_err();
                assert!(matches!(err, DatasetError::Codec { .. }), "{c:?}: {err}");
                let msg = err.to_string();
                assert!(msg.starts_with("bad.fxm: "), "{c:?}: {msg}");
                msg
            })
            .collect()
    }

    #[test]
    fn round_trip() {
        let m = sample();
        for c in [SeriesCodec::Csv].into_iter().chain(BINARY) {
            let bytes = encode(&m, c);
            let back = read(&bytes, "t").unwrap();
            assert_bit_identical(&back, &m);
            assert_eq!(encode(&back, c), bytes, "{c:?} re-encode is byte-identical");
        }
    }

    #[test]
    fn empty_series_round_trip() {
        let empty = MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_1, vec![]).unwrap();
        for c in BINARY {
            assert_bit_identical(&decode(&encode(&empty, c), "e.fxm").unwrap(), &empty);
        }
        // CSV infers the grid from row spacing, so an empty file cannot
        // be read back (the dataset writer refuses it up front).
        let csv = encode(&empty, SeriesCodec::Csv);
        assert!(matches!(
            read(&csv, "e.csv"),
            Err(DatasetError::Invalid { .. })
        ));
    }

    #[test]
    fn rejects_bad_magic() {
        for msg in corrupted(|raw| raw[0] = b'X') {
            assert!(msg.contains("bad magic"), "{msg}");
        }
    }

    #[test]
    fn rejects_truncation() {
        for c in BINARY {
            let raw = encode(&sample(), c);
            for cut in 0..raw.len() {
                let err = decode(&raw[..cut], "cut.fxm").unwrap_err();
                assert!(matches!(err, DatasetError::Codec { .. }), "{c:?} at {cut}");
            }
        }
    }

    #[test]
    fn rejects_invalid_resolution() {
        // 7 min does not divide a day.
        for msg in corrupted(|raw| raw[12..16].copy_from_slice(&7u32.to_le_bytes())) {
            assert!(msg.contains("invalid resolution"), "{msg}");
        }
    }

    #[test]
    fn rejects_non_finite_payload() {
        // A gap is `NaN`; ±∞ is never a meter reading. The first raw
        // value sits after FXM1's count word or FXM2's 32-byte stats.
        for bad in [f64::INFINITY, f64::NEG_INFINITY] {
            for c in [SeriesCodec::Binary, SeriesCodec::BinaryV1] {
                let mut raw = encode(&sample(), c);
                let at = fxm::HEADER_LEN
                    + match c {
                        SeriesCodec::BinaryV1 => 4,
                        _ => fxm::V2_CHUNK_HEADER_LEN,
                    };
                raw[at..at + 8].copy_from_slice(&bad.to_le_bytes());
                let err = decode(&raw, "inf.fxm").unwrap_err();
                assert!(err.to_string().contains("infinite"), "{c:?}: {err}");
            }
        }
        let csv = "interval_start,kwh\n2013-03-18 00:00,inf\n2013-03-18 00:15,1.0\n";
        let err = from_csv(csv, "inf.csv").unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn rejects_unaligned_start() {
        // 00:07 is not on the 15-min grid.
        for msg in corrupted(|raw| raw[4..12].copy_from_slice(&7i64.to_le_bytes())) {
            assert!(msg.contains("unaligned start"), "{msg}");
        }
        let csv = "interval_start,kwh\n2013-03-18 00:07,1.0\n2013-03-18 00:22,1.0\n";
        let err = from_csv(csv, "shifted.csv").unwrap_err();
        assert!(err.to_string().contains("not aligned"), "{err}");
    }

    #[test]
    fn length_overflow_is_rejected() {
        corrupted(|raw| raw[16..24].copy_from_slice(&u64::MAX.to_le_bytes()));
    }

    #[test]
    fn all_binary_versions_round_trip_through_the_dataset_layer() {
        let m = sample();
        for (c, version) in BINARY
            .into_iter()
            .zip([FxmVersion::V2, FxmVersion::V1, FxmVersion::V3])
        {
            let bytes = encode(&m, c);
            assert_eq!(sniff(&bytes), Some(version));
            assert_eq!(decode(&bytes, "test.fxm").unwrap().gap_count(), 2);
        }
    }

    #[test]
    fn frame_errors_convert_to_dataset_errors() {
        let m = sample();
        // Zero chunk length surfaces as an Invalid error, not a clamp.
        let err = DatasetError::from(
            flextract_frame::Frame::from_measured(m.clone(), 0, "t.csv").unwrap_err(),
        );
        assert!(matches!(err, DatasetError::Invalid { .. }));
        assert!(err.to_string().contains("at least 1"), "{err}");
        // Trailing garbage keeps the byte offset in the message.
        let raw = encode(&m, SeriesCodec::BinaryV1);
        let clean_len = raw.len();
        let mut long = raw.to_vec();
        long.push(0);
        let err = decode(&long, "t.fxm").unwrap_err();
        assert!(matches!(err, DatasetError::Codec { .. }));
        let msg = err.to_string();
        assert!(msg.contains("trailing"), "{msg}");
        assert!(msg.contains(&format!("offset {clean_len}")), "{msg}");
        // Malformed headers stay codec errors.
        assert!(matches!(
            decode(&raw[..10], "t.fxm"),
            Err(DatasetError::Codec { .. })
        ));
    }

    #[test]
    fn csv_round_trip_is_exact() {
        let m = MeasuredSeries::new(
            ts("2013-03-18"),
            Resolution::MIN_15,
            vec![0.1 + 0.2, f64::NAN, 1.0 / 3.0, 9.079835455161108],
        )
        .unwrap();
        let csv = to_csv(&m);
        let back = from_csv(&csv, "t.csv").unwrap();
        // Shortest-float rendering round-trips every bit.
        assert_bit_identical(&back, &m);
        // And the re-render is byte-identical.
        assert_eq!(to_csv(&back), csv);
    }

    #[test]
    fn csv_errors_name_file_row_and_column() {
        let bad_value = "interval_start,kwh\n2013-03-18 00:00,1.0\n2013-03-18 00:15,abc\n";
        let err = from_csv(bad_value, "bad.csv").unwrap_err();
        assert_eq!(
            err,
            DatasetError::Csv {
                file: "bad.csv".into(),
                row: 3,
                column: "kwh",
                what: "not a number: `abc`".into(),
            }
        );

        let bad_ts = "interval_start,kwh\nnot-a-time,1.0\n2013-03-18 00:15,1.0\n";
        let err = from_csv(bad_ts, "bad.csv").unwrap_err();
        assert!(matches!(
            err,
            DatasetError::Csv {
                row: 2,
                column: "interval_start",
                ..
            }
        ));

        // Off-grid timestamp (a skipped row) is named precisely.
        let skipped =
            "interval_start,kwh\n2013-03-18 00:00,1.0\n2013-03-18 00:15,1.0\n2013-03-18 01:00,1.0\n";
        let err = from_csv(skipped, "bad.csv").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("row 4"), "{msg}");
        assert!(msg.contains("off-grid"), "{msg}");

        // Explicit NaN text is rejected — gaps are empty fields.
        let nan_text = "interval_start,kwh\n2013-03-18 00:00,NaN\n2013-03-18 00:15,1.0\n";
        let err = from_csv(nan_text, "bad.csv").unwrap_err();
        assert!(err.to_string().contains("empty field"), "{err}");

        // Too few rows.
        let err = from_csv("interval_start,kwh\n2013-03-18 00:00,1.0\n", "bad.csv").unwrap_err();
        assert!(matches!(err, DatasetError::Invalid { .. }));
    }

    #[test]
    fn gap_only_fields_parse_as_gaps() {
        let csv = "interval_start,kwh\n2013-03-18 00:00,\n2013-03-18 00:15,0.5\n";
        let m = from_csv(csv, "t.csv").unwrap();
        assert_eq!(m.gap_count(), 1);
        assert!(m.values()[0].is_nan());
        assert_eq!(m.values()[1], 0.5);
    }
}
