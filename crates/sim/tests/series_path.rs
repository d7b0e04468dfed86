//! `simulate_household_series` against `simulate_household_with_catalog`.
//!
//! The series path runs the same simulator body without the activation
//! log, so its two series must equal the logging call's `series` and
//! `flexible_series` bit for bit: on whole fleets of the benchmark's
//! shape (300 households of the default archetype mix over one week,
//! fleet seeds 1, 7 and 29) and on tariff-responding households, whose
//! delayed cycles take the extra draws and run past the end of a
//! single-day span.

use flextract_appliance::Catalog;
use flextract_series::TimeSeries;
use flextract_sim::{
    simulate_household_series, simulate_household_with_catalog, FleetConfig, HouseholdConfig,
    SimulatedHousehold, TariffResponse,
};
use flextract_time::{Duration, TimeRange};

fn bits(s: &TimeSeries) -> (i64, i64, Vec<u64>) {
    (
        s.start().as_minutes(),
        s.resolution().minutes(),
        s.values().iter().map(|v| v.to_bits()).collect(),
    )
}

/// Assert the two calls agree; returns the logging call's result.
fn assert_same(
    cfg: &HouseholdConfig,
    range: TimeRange,
    catalog: &Catalog,
    what: &str,
) -> SimulatedHousehold {
    let logged = simulate_household_with_catalog(cfg, range, catalog);
    let (series, flexible) = simulate_household_series(cfg, range, catalog);
    assert_eq!(bits(&series), bits(&logged.series), "{what}: series");
    assert_eq!(
        bits(&flexible),
        bits(&logged.flexible_series),
        "{what}: flexible series"
    );
    logged
}

fn week() -> TimeRange {
    TimeRange::starting_at("2013-03-18".parse().unwrap(), Duration::weeks(1)).unwrap()
}

#[test]
fn fleet_weeks_match_the_logging_call_bit_for_bit() {
    let catalog = Catalog::extended();
    for fleet_seed in [1, 7, 29] {
        let configs = FleetConfig {
            households: 300,
            base_seed: fleet_seed,
            tariff_response: None,
            threads: 1,
            ..FleetConfig::default()
        }
        .household_configs();
        for (h, cfg) in configs.iter().enumerate() {
            assert_same(
                cfg,
                week(),
                &catalog,
                &format!("fleet {fleet_seed}, household {h}"),
            );
        }
    }
}

#[test]
fn tariff_responding_households_match_the_logging_call_bit_for_bit() {
    let catalog = Catalog::extended();
    // Tuesday: a late evening whose delayed cycles run past midnight.
    let tuesday = TimeRange::starting_at("2013-03-19".parse().unwrap(), Duration::days(1)).unwrap();
    let configs = FleetConfig {
        households: 12,
        base_seed: 7,
        tariff_response: Some(TariffResponse::overnight(0.9)),
        threads: 1,
        ..FleetConfig::default()
    }
    .household_configs();
    let (mut shifted, mut cut) = (0, 0);
    for (h, cfg) in configs.iter().enumerate() {
        let logged = assert_same(cfg, week(), &catalog, &format!("household {h}, week"));
        shifted += logged
            .activations
            .iter()
            .filter(|a| a.was_shifted())
            .count();
        let logged = assert_same(cfg, tuesday, &catalog, &format!("household {h}, Tuesday"));
        cut += logged
            .activations
            .iter()
            .filter(|a| a.start + a.duration > tuesday.end())
            .count();
    }
    assert!(
        shifted > 0 && cut > 0,
        "{shifted} shifted, {cut} cut cycles"
    );
}
