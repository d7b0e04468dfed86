//! Microbenchmarks of the series-engine primitives every extraction
//! approach leans on: statistics, peak detection, resampling, rolling
//! windows, forecasting and anomaly screening.

use flextract_bench::family_market_series;
use flextract_bench::sample::bench;
use flextract_series::{peaks, resample, stats, PeakThreshold, TimeSeries};
use flextract_time::Resolution;
use std::hint::black_box;

fn bench_stats() {
    for days in [7_i64, 28] {
        let values = family_market_series(days, 1).values().to_vec();
        let elements = Some(values.len() as u64);
        bench(
            &format!("series/stats/autocorrelation_day_lag/{days}"),
            elements,
            || stats::autocorrelation(black_box(&values), 96),
        );
        bench(
            &format!("series/stats/quantile_p75/{days}"),
            elements,
            || stats::quantile(black_box(&values), 0.75),
        );
    }
}

fn bench_peaks() {
    for days in [1_i64, 7, 28] {
        let series = family_market_series(days, 3);
        let elements = Some(series.len() as u64);
        bench(
            &format!("series/peaks/detect_mean/{days}"),
            elements,
            || peaks::detect_peaks(black_box(&series), PeakThreshold::Mean).unwrap(),
        );
        bench(
            &format!("series/peaks/detect_median/{days}"),
            elements,
            || peaks::detect_peaks(black_box(&series), PeakThreshold::Median).unwrap(),
        );
    }
}

fn bench_resample() {
    let week_1min = family_week_1min();
    let elements = Some(week_1min.len() as u64);
    bench(
        "series/resample/downsample_1min_to_15min_week",
        elements,
        || resample::downsample(black_box(&week_1min), Resolution::MIN_15).unwrap(),
    );
    let week_15 = resample::downsample(&week_1min, Resolution::MIN_15).unwrap();
    bench(
        "series/resample/upsample_15min_to_1min_week",
        elements,
        || resample::upsample(black_box(&week_15), Resolution::MIN_1).unwrap(),
    );
}

fn bench_rolling() {
    let values = family_market_series(28, 6).values().to_vec();
    bench(
        "series/rolling/median_w96_28d",
        Some(values.len() as u64),
        || flextract_series::rolling::rolling_median(black_box(&values), 96),
    );
    // The cleaning stage's default anomaly window: one day at 1-min
    // resolution, where a per-step O(w) median would dominate.
    let week_1min = family_week_1min();
    let elements = Some(week_1min.len() as u64);
    bench("series/rolling/median_w1440_7d_1min", elements, || {
        flextract_series::rolling::rolling_median(black_box(week_1min.values()), 1440)
    });
    // The same week on a 0.001 kWh register grid, as metered exports
    // store it: few distinct values per window, so ties dominate.
    let quantized: Vec<f64> = week_1min
        .values()
        .iter()
        .map(|v| (v / 0.001).round() * 0.001)
        .collect();
    bench("series/rolling/median_w1440_7d_1min_q001", elements, || {
        flextract_series::rolling::rolling_median(black_box(&quantized), 1440)
    });
}

fn bench_forecast_and_anomaly() {
    let series = family_market_series(28, 7);
    let elements = Some(series.len() as u64);
    bench(
        "series/forecast_anomaly/seasonal_naive_day_ahead",
        elements,
        || {
            flextract_series::forecast::forecast(
                black_box(&series),
                96,
                flextract_series::forecast::ForecastMethod::SeasonalNaive,
            )
            .unwrap()
        },
    );
    bench(
        "series/forecast_anomaly/rolling_anomalies_28d",
        elements,
        || flextract_series::anomaly::rolling_anomalies(black_box(&series), 96, 3.0, 0.02),
    );
    // The cleaning stage's screen at its defaults: a one-day window at
    // 1-min resolution, z = 4, 0.05 kWh noise floor.
    let week_1min = family_week_1min();
    let elements = Some(week_1min.len() as u64);
    bench(
        "series/forecast_anomaly/rolling_anomalies_w1440_7d_1min",
        elements,
        || flextract_series::anomaly::rolling_anomalies(black_box(&week_1min), 1440, 4.0, 0.05),
    );
    // The same screen over the week on a 0.001 kWh register grid, the
    // traffic metered exports carry.
    let quantized = TimeSeries::new(
        week_1min.start(),
        week_1min.resolution(),
        week_1min
            .values()
            .iter()
            .map(|v| (v / 0.001).round() * 0.001)
            .collect(),
    )
    .unwrap();
    bench(
        "series/forecast_anomaly/rolling_anomalies_w1440_7d_1min_q001",
        elements,
        || flextract_series::anomaly::rolling_anomalies(black_box(&quantized), 1440, 4.0, 0.05),
    );
}

/// One simulated family household week at 1-min resolution.
fn family_week_1min() -> TimeSeries {
    let cfg = flextract_sim::HouseholdConfig::new(
        4,
        flextract_sim::HouseholdArchetype::FamilyWithChildren,
    );
    flextract_sim::simulate_household(&cfg, flextract_bench::horizon(7)).series
}

fn main() {
    bench_stats();
    bench_peaks();
    bench_resample();
    bench_rolling();
    bench_forecast_and_anomaly();
}
