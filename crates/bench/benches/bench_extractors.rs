//! Throughput of the six extraction approaches versus input length —
//! the scalability dimension of every table/figure reproduction.

use flextract_appliance::Catalog;
use flextract_bench::sample::bench;
use flextract_bench::{family_market_series, horizon};
use flextract_core::{
    BasicExtractor, ExtractionConfig, ExtractionInput, FlexibilityExtractor,
    FrequencyBasedExtractor, MultiTariffExtractor, PeakExtractor, RandomExtractor,
    ScheduleBasedExtractor,
};
use flextract_sim::{simulate_household, HouseholdArchetype, HouseholdConfig};
use flextract_time::Resolution;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_household_level() {
    let cfg = ExtractionConfig::default();
    for days in [7_i64, 28] {
        let series = family_market_series(days, 11);
        let extractors: Vec<(&str, Box<dyn FlexibilityExtractor>)> = vec![
            ("random", Box::new(RandomExtractor::new(cfg.clone()))),
            ("basic", Box::new(BasicExtractor::new(cfg.clone()))),
            ("peak", Box::new(PeakExtractor::new(cfg.clone()))),
        ];
        for (name, ex) in extractors {
            bench(
                &format!("extract/household_level/{name}/{days}"),
                Some(series.len() as u64),
                || {
                    ex.extract(
                        &ExtractionInput::household(black_box(&series)),
                        &mut StdRng::seed_from_u64(1),
                    )
                    .unwrap()
                },
            );
        }
    }
}

fn bench_multi_tariff() {
    let mt = MultiTariffExtractor::new(ExtractionConfig::default());
    for days in [7_i64, 28] {
        let observed = family_market_series(days, 12);
        let reference = family_market_series(days, 13);
        bench(
            &format!("extract/multi_tariff/compare/{days}"),
            Some(observed.len() as u64),
            || {
                mt.extract(
                    &ExtractionInput::household(black_box(&observed))
                        .with_reference(black_box(&reference)),
                    &mut StdRng::seed_from_u64(1),
                )
                .unwrap()
            },
        );
    }
}

fn bench_appliance_level() {
    let cfg = ExtractionConfig::default();
    let catalog = Catalog::extended();
    for days in [7_i64, 14] {
        let sim = simulate_household(
            &HouseholdConfig::new(14, HouseholdArchetype::FamilyWithChildren),
            horizon(days),
        );
        let market = sim.series_at(Resolution::MIN_15);
        let elements = Some(sim.series.len() as u64);
        let extractors: Vec<(&str, Box<dyn FlexibilityExtractor>)> = vec![
            (
                "frequency",
                Box::new(FrequencyBasedExtractor::new(cfg.clone())),
            ),
            (
                "schedule",
                Box::new(ScheduleBasedExtractor::new(cfg.clone())),
            ),
        ];
        for (name, ex) in extractors {
            bench(
                &format!("extract/appliance_level/{name}/{days}"),
                elements,
                || {
                    ex.extract(
                        &ExtractionInput::household(black_box(&market))
                            .with_fine_series(black_box(&sim.series))
                            .with_catalog(&catalog),
                        &mut StdRng::seed_from_u64(1),
                    )
                    .unwrap()
                },
            );
        }
    }
}

fn main() {
    bench_household_level();
    bench_multi_tariff();
    bench_appliance_level();
}
