//! A bit-level pin on the cleaning stage at the benchmark's block shape.
//!
//! Six households, each a week of 1-min readings on a 0.001 kWh
//! register grid, are cleaned at [`CleaningConfig`]'s defaults with the
//! anomaly screen on: linear fill, a one-day (1 440-interval) rolling
//! window, z = 4 and a 0.05 kWh noise floor. The hash covers every
//! cleaned value's bits and every [`CleaningReport`] field.
//!
//! The readings come from a generator in this file, not from the
//! simulator, so a simulator re-baseline cannot move the pin. A speed
//! change to gap fill, the rolling median or the screen must leave the
//! hash where it is; a change that moves it changes what cleaning does.

use flextract_dataset::{ingest, CleaningConfig, CleaningReport, MeasuredSeries};
use flextract_time::{Resolution, Timestamp};

/// FNV-1a over 64-bit words, fixed across platforms and toolchains.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn report(&mut self, r: &CleaningReport) {
        self.word(r.gaps_filled as u64);
        self.word(r.anomalies_screened as u64);
        self.word(r.anomalous_intervals as u64);
        self.word(r.screened_kwh.to_bits());
    }
}

/// The hash of the six cleaned households as cleaning stands.
const PINNED: u64 = 0x9399_c5c2_6577_6da0;

/// Household `h`'s week: a day/night base load with sub-kWh noise,
/// single-interval dropouts and spikes, multi-interval spike runs, and
/// scattered gaps plus one gap run per day, all on the 0.001 grid.
fn household_week(h: u64) -> MeasuredSeries {
    let mut state = 0x2545_F491_4F6C_DD1D_u64 ^ h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut uniform = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1_u64 << 53) as f64
    };
    let day = 1440;
    let (night, evening) = (0.003 + 0.001 * h as f64, 0.015 + 0.004 * h as f64);
    let mut values: Vec<f64> = (0..7 * day)
        .map(|i| {
            let minute = i % day;
            let base = if (420..1380).contains(&minute) {
                evening
            } else {
                night
            };
            let kwh = match uniform() {
                u if u < 0.002 => 0.0,
                u if u > 0.998 => 0.3 + 2.0 * uniform(),
                _ => base * (1.0 + 0.5 * uniform()),
            };
            (kwh / 0.001_f64).round() * 0.001
        })
        .collect();
    for d in 1..7 {
        // A spike run of 2–9 minutes, then a gap run of 5–44 minutes.
        let at = d * day + (uniform() * 1300.0) as usize;
        let run = 2 + (uniform() * 8.0) as usize;
        let level = ((1.0 + 3.0 * uniform()) / 0.001_f64).round() * 0.001;
        values[at..at + run].fill(level);
        let gap = d * day + (uniform() * 1380.0) as usize;
        let len = 5 + (uniform() * 40.0) as usize;
        values[gap..gap + len].fill(f64::NAN);
    }
    for v in &mut values {
        if uniform() < 0.003 {
            *v = f64::NAN;
        }
    }
    MeasuredSeries::new(Timestamp::from_minutes(0), Resolution::MIN_1, values).unwrap()
}

fn cleaned() -> Vec<(Vec<f64>, CleaningReport)> {
    let cfg = CleaningConfig {
        screen_anomalies: true,
        ..CleaningConfig::default()
    };
    (0..6)
        .map(|h| {
            let (series, report) = ingest::clean(household_week(h), &cfg).unwrap();
            (series.into_values(), report)
        })
        .collect()
}

#[test]
fn cleaned_households_are_pinned_bit_for_bit() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (values, report) in cleaned() {
        h.word(values.len() as u64);
        for v in &values {
            h.word(v.to_bits());
        }
        h.report(&report);
    }
    assert_eq!(
        h.0, PINNED,
        "cleaned output moved: got {:#018x}; a speed change must not move it",
        h.0
    );
}

#[test]
fn pinned_households_reach_the_screen() {
    for (h, (values, report)) in cleaned().iter().enumerate() {
        // A whole week of 1-min intervals, longer than the one-day
        // window, so the screen judges six days of each household.
        assert_eq!(values.len(), 7 * 1440, "household {h}");
        assert!(report.gaps_filled > 100, "household {h}: {report:?}");
        assert!(report.anomalies_screened >= 6, "household {h}: {report:?}");
        assert!(report.screened_kwh > 1.0, "household {h}: {report:?}");
    }
}
