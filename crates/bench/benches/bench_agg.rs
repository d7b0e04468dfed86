//! Aggregation and scheduling scalability versus flex-offer count —
//! the dimension that matters when MIRABEL scales to "thousands of
//! consumers" (§6).

use flextract_agg::{aggregate_offers, schedule_offers, AggregationConfig, ScheduleConfig};
use flextract_bench::epoch;
use flextract_bench::sample::bench;
use flextract_flexoffer::{EnergyRange, FlexOffer};
use flextract_series::TimeSeries;
use flextract_time::{Duration, Resolution};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// A synthetic population of offers spread over one day with varied
/// windows and profiles, mimicking a fleet extraction.
fn offer_population(n: usize, seed: u64) -> Vec<FlexOffer> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let est = epoch() + Duration::minutes(rng.gen_range(0..80) * 15);
            let flex = Duration::minutes(rng.gen_range(2..28) * 15);
            let slices = rng.gen_range(2..8);
            let e = rng.gen_range(0.1..0.8);
            FlexOffer::builder(i as u64 + 1)
                .start_window(est, est + flex)
                .slices(
                    Resolution::MIN_15,
                    vec![EnergyRange::new(e * 0.8, e * 1.2).unwrap(); slices],
                )
                .build()
                .expect("generated windows are aligned")
        })
        .collect()
}

fn bench_aggregation() {
    for n in [100_usize, 1000, 5000] {
        let offers = offer_population(n, 1);
        bench(
            &format!("agg/aggregate/grid_default/{n}"),
            Some(n as u64),
            || aggregate_offers(black_box(&offers), &AggregationConfig::default()).unwrap(),
        );
    }
}

fn bench_scheduling() {
    let demand = TimeSeries::constant(epoch(), Resolution::MIN_15, 10.0, 2 * 96);
    let mut prod = vec![0.0; 2 * 96];
    for (i, v) in prod.iter_mut().enumerate() {
        *v = 12.0
            * (((i % 96) as f64 / 96.0) * std::f64::consts::TAU)
                .sin()
                .max(0.0);
    }
    let production = TimeSeries::new(epoch(), Resolution::MIN_15, prod).unwrap();
    for n in [50_usize, 200] {
        let offers = offer_population(n, 2);
        let aggregates = aggregate_offers(&offers, &AggregationConfig::default()).unwrap();
        let agg_offers: Vec<FlexOffer> = aggregates.iter().map(|a| a.offer.clone()).collect();
        bench(
            &format!("agg/schedule/greedy_plus_climb/{n}"),
            Some(n as u64),
            || {
                schedule_offers(
                    black_box(&agg_offers),
                    &demand,
                    &production,
                    &ScheduleConfig { iterations: 200 },
                    &mut StdRng::seed_from_u64(3),
                )
                .unwrap()
            },
        );
    }
}

fn main() {
    bench_aggregation();
    bench_scheduling();
}
