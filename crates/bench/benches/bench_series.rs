//! Microbenchmarks of the series-engine primitives every extraction
//! approach leans on: statistics, decomposition, peak detection,
//! resampling, rolling windows, forecasting and anomaly screening.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use flextract_bench::family_market_series;
use flextract_series::{decompose, peaks, resample, stats, PeakThreshold, TimeSeries};
use flextract_time::Resolution;
use std::hint::black_box;

fn bench_stats(c: &mut Criterion) {
    let mut group = c.benchmark_group("series/stats");
    for days in [7_i64, 28] {
        let series = family_market_series(days, 1);
        let values = series.values().to_vec();
        group.throughput(Throughput::Elements(values.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("autocorrelation_day_lag", days),
            &values,
            |b, v| b.iter(|| stats::autocorrelation(black_box(v), 96)),
        );
        group.bench_with_input(BenchmarkId::new("quantile_p75", days), &values, |b, v| {
            b.iter(|| stats::quantile(black_box(v), 0.75))
        });
        group.bench_with_input(BenchmarkId::new("znormalize", days), &values, |b, v| {
            b.iter(|| stats::znormalize(black_box(v)))
        });
    }
    group.finish();
}

fn bench_decompose(c: &mut Criterion) {
    let mut group = c.benchmark_group("series/decompose");
    for days in [7_i64, 28] {
        let series = family_market_series(days, 2);
        group.throughput(Throughput::Elements(series.len() as u64));
        group.bench_with_input(BenchmarkId::new("daily_period", days), &series, |b, s| {
            b.iter(|| decompose::decompose(black_box(s), 96).unwrap())
        });
    }
    group.finish();
}

fn bench_peaks(c: &mut Criterion) {
    let mut group = c.benchmark_group("series/peaks");
    for days in [1_i64, 7, 28] {
        let series = family_market_series(days, 3);
        group.throughput(Throughput::Elements(series.len() as u64));
        group.bench_with_input(BenchmarkId::new("detect_mean", days), &series, |b, s| {
            b.iter(|| peaks::detect_peaks(black_box(s), PeakThreshold::Mean).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("detect_median", days), &series, |b, s| {
            b.iter(|| peaks::detect_peaks(black_box(s), PeakThreshold::Median).unwrap())
        });
    }
    group.finish();
}

fn bench_resample(c: &mut Criterion) {
    let mut group = c.benchmark_group("series/resample");
    let week_1min = family_week_1min();
    group.throughput(Throughput::Elements(week_1min.len() as u64));
    group.bench_function("downsample_1min_to_15min_week", |b| {
        b.iter(|| resample::downsample(black_box(&week_1min), Resolution::MIN_15).unwrap())
    });
    let week_15 = resample::downsample(&week_1min, Resolution::MIN_15).unwrap();
    group.bench_function("upsample_15min_to_1min_week", |b| {
        b.iter(|| resample::upsample(black_box(&week_15), Resolution::MIN_1).unwrap())
    });
    group.finish();
}

fn bench_rolling(c: &mut Criterion) {
    let mut group = c.benchmark_group("series/rolling");
    let series = family_market_series(28, 6);
    let values = series.values().to_vec();
    group.throughput(Throughput::Elements(values.len() as u64));
    group.bench_function("mean_w96_28d", |b| {
        b.iter(|| flextract_series::rolling::rolling_mean(black_box(&values), 96))
    });
    group.bench_function("median_w96_28d", |b| {
        b.iter(|| flextract_series::rolling::rolling_median(black_box(&values), 96))
    });
    group.bench_function("max_w96_28d", |b| {
        b.iter(|| flextract_series::rolling::rolling_max(black_box(&values), 96))
    });
    // The cleaning stage's default anomaly window: one day at 1-min
    // resolution, where a per-step O(w) median would dominate.
    let week_1min = family_week_1min();
    group.throughput(Throughput::Elements(week_1min.len() as u64));
    group.bench_function("median_w1440_7d_1min", |b| {
        b.iter(|| flextract_series::rolling::rolling_median(black_box(week_1min.values()), 1440))
    });
    // The same week on a 0.001 kWh register grid, as metered exports
    // store it: few distinct values per window, so ties dominate.
    let quantized: Vec<f64> = week_1min
        .values()
        .iter()
        .map(|v| (v / 0.001).round() * 0.001)
        .collect();
    group.bench_function("median_w1440_7d_1min_q001", |b| {
        b.iter(|| flextract_series::rolling::rolling_median(black_box(&quantized), 1440))
    });
    group.finish();
}

fn bench_forecast_and_anomaly(c: &mut Criterion) {
    let mut group = c.benchmark_group("series/forecast_anomaly");
    let series = family_market_series(28, 7);
    group.throughput(Throughput::Elements(series.len() as u64));
    group.bench_function("seasonal_naive_day_ahead", |b| {
        b.iter(|| {
            flextract_series::forecast::forecast(
                black_box(&series),
                96,
                flextract_series::forecast::ForecastMethod::SeasonalNaive,
            )
            .unwrap()
        })
    });
    group.bench_function("seasonal_anomalies_28d", |b| {
        b.iter(|| {
            flextract_series::anomaly::seasonal_anomalies(black_box(&series), 2.0, 0.02).unwrap()
        })
    });
    group.bench_function("rolling_anomalies_28d", |b| {
        b.iter(|| flextract_series::anomaly::rolling_anomalies(black_box(&series), 96, 3.0, 0.02))
    });
    // The cleaning stage's screen at its defaults: a one-day window at
    // 1-min resolution, z = 4, 0.05 kWh noise floor.
    let week_1min = family_week_1min();
    group.throughput(Throughput::Elements(week_1min.len() as u64));
    group.bench_function("rolling_anomalies_w1440_7d_1min", |b| {
        b.iter(|| {
            flextract_series::anomaly::rolling_anomalies(black_box(&week_1min), 1440, 4.0, 0.05)
        })
    });
    group.finish();
}

/// One simulated family household week at 1-min resolution.
fn family_week_1min() -> TimeSeries {
    let cfg = flextract_sim::HouseholdConfig::new(
        4,
        flextract_sim::HouseholdArchetype::FamilyWithChildren,
    );
    flextract_sim::simulate_household(&cfg, flextract_bench::horizon(7)).series
}

criterion_group!(
    benches,
    bench_stats,
    bench_decompose,
    bench_peaks,
    bench_resample,
    bench_rolling,
    bench_forecast_and_anomaly
);
criterion_main!(benches);
