//! Disaggregation throughput: signature matching versus resolution and
//! catalog size, plus the two mining steps.

use flextract_appliance::{ApplianceSpec, Catalog};
use flextract_bench::horizon;
use flextract_bench::sample::bench;
use flextract_disagg::{detect_activations, FrequencyTable, MatchConfig, MinedSchedule};
use flextract_series::resample;
use flextract_sim::{simulate_household, HouseholdArchetype, HouseholdConfig};
use flextract_time::Resolution;
use std::hint::black_box;

fn bench_matching() {
    let sim = simulate_household(
        &HouseholdConfig::new(21, HouseholdArchetype::FamilyWithChildren),
        horizon(7),
    );
    let catalog = Catalog::extended();
    for res in [Resolution::MIN_1, Resolution::MIN_5, Resolution::MIN_15] {
        let series = resample::to_resolution(&sim.series, res).unwrap();
        let specs: Vec<&ApplianceSpec> = catalog.shiftable();
        bench(
            &format!("disagg/matching/week_full_catalog/{res}"),
            Some(series.len() as u64),
            || detect_activations(black_box(&series), &specs, &MatchConfig::default()),
        );
    }
    // Catalog-size sweep at 1-min resolution.
    for n_specs in [2_usize, 4, 8] {
        let specs: Vec<&ApplianceSpec> = catalog.shiftable().into_iter().take(n_specs).collect();
        bench(
            &format!("disagg/matching/week_catalog_size/{n_specs}"),
            Some(sim.series.len() as u64),
            || detect_activations(black_box(&sim.series), &specs, &MatchConfig::default()),
        );
    }
}

fn bench_mining() {
    let sim = simulate_household(
        &HouseholdConfig::new(22, HouseholdArchetype::FamilyWithChildren),
        horizon(28),
    );
    let catalog = Catalog::extended();
    let specs: Vec<&ApplianceSpec> = catalog.shiftable();
    let (detections, _) = detect_activations(&sim.series, &specs, &MatchConfig::default());
    let elements = Some(detections.len() as u64);
    bench("disagg/mining/frequency_table_28d", elements, || {
        FrequencyTable::mine(black_box(&detections), 28.0, &catalog)
    });
    bench("disagg/mining/schedule_mining_28d", elements, || {
        MinedSchedule::mine_all(black_box(&detections), 20.0, 8.0, 60)
    });
}

fn main() {
    bench_matching();
    bench_mining();
}
