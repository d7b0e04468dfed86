//! Property tests for the series engine.

use flextract_series::anomaly::{self, Anomaly, AnomalyDirection};
use flextract_series::{
    decompose, missing, peaks, resample, rolling, stats, PeakThreshold, TimeSeries,
};
use flextract_time::{Duration, Resolution, TimeRange, Timestamp};
use proptest::prelude::*;

/// Non-negative kWh values like real consumption intervals.
fn arb_values(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0_f64..5.0, 1..max_len)
}

fn arb_start() -> impl Strategy<Value = Timestamp> {
    // Aligned to the daily grid so every resolution accepts it.
    (-2000_i64..8000).prop_map(|d| Timestamp::from_minutes(d * 1440))
}

proptest! {
    #[test]
    fn slice_energy_never_exceeds_total(
        start in arb_start(),
        values in arb_values(300),
        lo in 0_i64..300,
        len in 0_i64..300,
    ) {
        let s = TimeSeries::new(start, Resolution::MIN_15, values).unwrap();
        let r = TimeRange::starting_at(
            start + Duration::minutes(lo * 15),
            Duration::minutes(len * 15),
        ).unwrap();
        let sub = s.slice(r);
        prop_assert!(sub.total_energy() <= s.total_energy() + 1e-9);
        prop_assert!(sub.len() <= s.len());
        // A slice of the full range is the series itself.
        let full = s.slice(s.range());
        prop_assert_eq!(full, s);
    }

    #[test]
    fn add_sub_inverse(start in arb_start(), values in arb_values(200)) {
        let a = TimeSeries::new(start, Resolution::MIN_15, values.clone()).unwrap();
        let b = a.scale(0.3);
        let back = a.add(&b).unwrap().sub(&b).unwrap();
        for (x, y) in back.values().iter().zip(a.values()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn resample_round_trip_preserves_energy(
        start in arb_start(),
        chunks in 1_usize..30,
    ) {
        let values: Vec<f64> = (0..chunks * 4).map(|i| (i % 5) as f64 * 0.2).collect();
        let fine = TimeSeries::new(start, Resolution::MIN_15, values).unwrap();
        let coarse = resample::downsample(&fine, Resolution::HOUR_1).unwrap();
        prop_assert!((coarse.total_energy() - fine.total_energy()).abs() < 1e-9);
        let up = resample::upsample(&coarse, Resolution::MIN_15).unwrap();
        prop_assert_eq!(up.len(), fine.len());
        prop_assert!((up.total_energy() - fine.total_energy()).abs() < 1e-9);
    }

    #[test]
    fn peaks_partition_energy_above_threshold(start in arb_start(), values in arb_values(200)) {
        let s = TimeSeries::new(start, Resolution::MIN_15, values).unwrap();
        if let Ok((thr, found)) = peaks::detect_peaks(&s, PeakThreshold::Mean) {
            // Peak energies are sums of the member intervals.
            let sum_peaks: f64 = found.iter().map(|p| p.energy_kwh).sum();
            let direct: f64 = s.values().iter().filter(|&&v| v > thr).sum();
            prop_assert!((sum_peaks - direct).abs() < 1e-9);
            // Peaks are disjoint and ordered.
            for pair in found.windows(2) {
                prop_assert!(pair[0].end_index() < pair[1].start_index + 1);
                prop_assert!(pair[0].end_index() <= pair[1].start_index);
            }
            // Every peak interval is strictly above the threshold.
            for p in &found {
                for i in p.start_index..p.end_index() {
                    prop_assert!(s.values()[i] > thr);
                }
            }
        }
    }

    #[test]
    fn selection_probabilities_sum_to_one(values in arb_values(200)) {
        let s = TimeSeries::new(Timestamp::EPOCH, Resolution::MIN_15, values).unwrap();
        let (_, found) = peaks::detect_peaks(&s, PeakThreshold::Mean).unwrap();
        let probs = peaks::selection_probabilities(&found);
        if !probs.is_empty() {
            prop_assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(probs.iter().all(|&p| (0.0..=1.0 + 1e-12).contains(&p)));
        }
    }

    #[test]
    fn decomposition_reconstructs(values in prop::collection::vec(0.0_f64..3.0, 48..200)) {
        let d = decompose::decompose_values(&values, 24).unwrap();
        let back = d.reconstruct();
        for (a, b) in values.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-9);
        }
        let profile_sum: f64 = d.seasonal_profile().iter().sum();
        prop_assert!(profile_sum.abs() < 1e-9);
    }

    #[test]
    fn fill_strategies_remove_all_gaps(
        mut values in prop::collection::vec(
            prop_oneof![3 => (0.0_f64..5.0).prop_map(Some), 1 => Just(None)],
            4..100,
        ),
    ) {
        // Ensure at least one finite anchor.
        values[0] = Some(1.0);
        for strategy in [
            missing::FillStrategy::Linear,
            missing::FillStrategy::Previous,
            missing::FillStrategy::SeasonalDaily,
            missing::FillStrategy::Zero,
        ] {
            let mut raw: Vec<f64> =
                values.iter().map(|v| v.unwrap_or(f64::NAN)).collect();
            let gaps = missing::gap_count(&raw);
            let filled = missing::fill_gaps(&mut raw, strategy, 24).unwrap();
            prop_assert_eq!(filled, gaps);
            prop_assert!(!missing::has_gaps(&raw));
            prop_assert!(raw.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn znormalize_is_affine_invariant_in_shape(values in arb_values(64)) {
        prop_assume!(stats::std_dev(&values).unwrap() > 1e-6);
        let z1 = stats::znormalize(&values);
        let shifted: Vec<f64> = values.iter().map(|v| v * 3.0 + 7.0).collect();
        let z2 = stats::znormalize(&shifted);
        for (a, b) in z1.iter().zip(&z2) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn autocorrelation_is_bounded(values in arb_values(128), lag in 0_usize..32) {
        if let Some(r) = stats::autocorrelation(&values, lag) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }
    }
}

/// A sorted insert/remove buffer — O(n·w), the bit-exact oracle for
/// `rolling_median`.
fn sorted_buffer_median(xs: &[f64], window: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(xs.len());
    let mut sorted: Vec<f64> = Vec::with_capacity(window);
    for i in 0..xs.len() {
        let pos = sorted
            .binary_search_by(|v| v.total_cmp(&xs[i]))
            .unwrap_or_else(|p| p);
        sorted.insert(pos, xs[i]);
        if i >= window {
            let old = xs[i - window];
            let pos = sorted
                .binary_search_by(|v| v.total_cmp(&old))
                .unwrap_or_else(|p| p);
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

/// Median of each trailing window by sorting it from scratch.
fn brute_force_median(xs: &[f64], window: usize) -> Vec<f64> {
    (0..xs.len())
        .map(|i| {
            let mut w = xs[(i + 1).saturating_sub(window)..=i].to_vec();
            w.sort_by(f64::total_cmp);
            let n = w.len();
            if n % 2 == 1 {
                w[n / 2]
            } else {
                0.5 * (w[n / 2 - 1] + w[n / 2])
            }
        })
        .collect()
}

/// Samples that stress a median's ordering: heavy ties on a 0.001 grid,
/// signed zeros, subnormals of both signs and plain reals.
fn arb_median_sample() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => (0_i64..50).prop_map(|k| k as f64 * 0.001),
        1 => Just(0.0),
        1 => Just(-0.0),
        1 => (1_u64..1 << 52).prop_map(f64::from_bits),
        1 => (1_u64..1 << 52).prop_map(|m| -f64::from_bits(m)),
        2 => -5.0_f64..5.0,
    ]
}

/// A pool long enough for four whole 64-sample windows plus a
/// remainder: the stress mix above, or a 0.001 grid with at most eight
/// distinct values, the ties a quantized meter register produces.
fn arb_median_pool() -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        1 => prop::collection::vec(arb_median_sample(), 5 * 64),
        1 => (1_u64..=8, 0_u64..5000, prop::collection::vec(any::<u64>(), 5 * 64)).prop_map(
            |(distinct, base, picks)| {
                picks
                    .iter()
                    .map(|p| (base + p % distinct) as f64 * 0.001)
                    .collect()
            }
        ),
    ]
}

/// A sample vector and a window. The vector holds 0–4 whole windows
/// plus a remainder, so the median crosses every block boundary it can
/// meet; the window is 1, 2, up to 64 (odd and even), or at least the
/// vector's length so it never fills.
fn arb_median_case() -> impl Strategy<Value = (Vec<f64>, usize)> {
    (
        arb_median_pool(),
        prop_oneof![1 => Just(1_usize), 1 => Just(2_usize), 4 => 3_usize..=64],
        0_usize..=4,
        any::<usize>(),
        0_usize..3,
        any::<bool>(),
    )
        .prop_map(|(mut xs, window, blocks, rem, extra, beyond)| {
            xs.truncate(blocks * window + rem % window);
            let window = if beyond {
                xs.len().max(1) + extra
            } else {
                window
            };
            (xs, window)
        })
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// `rolling_anomalies` rebuilt on top of the oracle median: baseline and
/// band from the previous window, runs split where the direction changes.
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

proptest! {
    #[test]
    fn rolling_median_is_bit_exact((xs, window) in arb_median_case()) {
        let med = rolling::rolling_median(&xs, window);
        prop_assert_eq!(
            bits(&med),
            bits(&sorted_buffer_median(&xs, window)),
            "window {} over {:?}", window, xs
        );
        prop_assert_eq!(
            bits(&med),
            bits(&brute_force_median(&xs, window)),
            "window {} over {:?}", window, xs
        );
    }

    #[test]
    fn rolling_anomalies_match_oracle_median_runs(
        start in arb_start(),
        xs in prop::collection::vec(
            prop_oneof![
                3 => (0_i64..400).prop_map(|k| k as f64 * 0.001),
                1 => 0.0_f64..3.0,
            ],
            2..300,
        ),
        window in 1_usize..=64,
        z in 0.5_f64..6.0,
        floor in prop_oneof![Just(0.0), 0.0_f64..0.2],
    ) {
        prop_assume!(xs.len() > window);
        let s = TimeSeries::new(start, Resolution::MIN_15, xs).unwrap();
        let got = anomaly::rolling_anomalies(&s, window, z, floor);
        let want = oracle_rolling_anomalies(&s, window, z, floor);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.start, w.start);
            prop_assert_eq!(g.intervals, w.intervals);
            prop_assert_eq!(g.direction, w.direction);
            prop_assert_eq!(g.deviation_kwh.to_bits(), w.deviation_kwh.to_bits());
            prop_assert_eq!(g.max_z.to_bits(), w.max_z.to_bits());
        }
    }
}

/// A deterministic week of 1-min readings on a 0.001 kWh grid: a
/// day/night base load, sub-kWh noise, and rare spikes and dropouts.
fn quantized_week_1min() -> TimeSeries {
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut uniform = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1_u64 << 53) as f64
    };
    let values = (0..7 * 1440)
        .map(|i| {
            let base = if (420..1380).contains(&(i % 1440)) {
                0.02
            } else {
                0.004
            };
            let kwh = match uniform() {
                u if u < 0.002 => 0.0,
                u if u > 0.999 => 0.4,
                _ => base + 0.006 * uniform(),
            };
            (kwh / 0.001_f64).round() * 0.001
        })
        .collect();
    TimeSeries::new(Timestamp::from_minutes(0), Resolution::MIN_1, values).unwrap()
}

#[test]
fn rolling_anomalies_match_oracle_on_a_quantized_week() {
    let s = quantized_week_1min();
    // The cleaning stage's defaults, then a tight band that flags runs
    // of both directions.
    for (z, floor) in [(4.0, 0.05), (1.0, 0.0)] {
        let got = anomaly::rolling_anomalies(&s, 1440, z, floor);
        let want = oracle_rolling_anomalies(&s, 1440, z, floor);
        assert!(!want.is_empty(), "z {z}: the week must flag some runs");
        assert_eq!(got.len(), want.len(), "z {z}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.start, w.start, "z {z}");
            assert_eq!(g.intervals, w.intervals, "z {z} at {}", w.start);
            assert_eq!(g.direction, w.direction, "z {z} at {}", w.start);
            assert_eq!(g.deviation_kwh.to_bits(), w.deviation_kwh.to_bits());
            assert_eq!(g.max_z.to_bits(), w.max_z.to_bits());
        }
        if z < 2.0 {
            for direction in [AnomalyDirection::High, AnomalyDirection::Low] {
                assert!(
                    want.iter().any(|a| a.direction == direction),
                    "{direction:?}"
                );
            }
        }
    }
}
