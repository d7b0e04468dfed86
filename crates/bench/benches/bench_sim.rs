//! Simulator throughput: single households, wind production, and fleet
//! parallelism (one worker thread vs four).

use flextract_bench::horizon;
use flextract_bench::sample::bench;
use flextract_sim::{
    simulate_fleet, simulate_household, simulate_wind_production, FleetConfig, HouseholdArchetype,
    HouseholdConfig, WindFarmConfig,
};
use flextract_time::Resolution;
use std::hint::black_box;

fn bench_household() {
    for days in [7_i64, 28] {
        for arch in [
            HouseholdArchetype::SingleResident,
            HouseholdArchetype::SuburbanWithEv,
        ] {
            let cfg = HouseholdConfig::new(31, arch);
            bench(
                &format!("sim/household/{arch}/{days}"),
                Some((days * 1440) as u64),
                || simulate_household(black_box(&cfg), horizon(days)),
            );
        }
    }
}

fn bench_wind() {
    let farm = WindFarmConfig::default();
    for days in [7_i64, 28] {
        bench(
            &format!("sim/wind/production_15min/{days}"),
            Some((days * 96) as u64),
            || simulate_wind_production(black_box(&farm), horizon(days), Resolution::MIN_15),
        );
    }
}

fn bench_fleet() {
    for threads in [1_usize, 4] {
        let cfg = FleetConfig {
            households: 20,
            base_seed: 7,
            threads,
            ..FleetConfig::default()
        };
        bench(
            &format!("sim/fleet/households_20_week/{threads}"),
            Some(20),
            || simulate_fleet(black_box(&cfg), horizon(7)),
        );
    }
}

fn main() {
    bench_household();
    bench_wind();
    bench_fleet();
}
