//! Multi-household fleet simulation.
//!
//! MIRABEL aggregates flex-offers "from thousands consumers" (§6); the
//! evaluation experiments therefore need fleets, not single households.
//! Fleet simulation is embarrassingly parallel per household, so the
//! households are fanned out through [`ordered_parallel_map`] and
//! collected in id order.

use crate::household::{HouseholdArchetype, HouseholdConfig};
use crate::randomness::weighted_index;
use crate::simulate::{simulate_household_with_catalog, SimulatedHousehold};
use crate::tariff::TariffResponse;
use flextract_appliance::Catalog;
use flextract_series::{resample, shard::ordered_parallel_map, TimeSeries};
use flextract_time::{Resolution, TimeRange};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::convert::Infallible;

/// Why a [`FleetConfig`] cannot be materialised into households.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetConfigError {
    /// `households` is zero.
    NoHouseholds,
    /// `archetype_mix` is empty, so no archetype can be sampled.
    EmptyArchetypeMix,
    /// Every `archetype_mix` weight is zero, negative, or non-finite,
    /// so weighted sampling has no mass to draw from.
    ZeroWeightArchetypeMix,
}

impl std::fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetConfigError::NoHouseholds => {
                write!(f, "a fleet needs at least one household")
            }
            FleetConfigError::EmptyArchetypeMix => {
                write!(
                    f,
                    "archetype_mix is empty: a fleet needs at least one archetype"
                )
            }
            FleetConfigError::ZeroWeightArchetypeMix => {
                write!(
                    f,
                    "archetype_mix has no positive finite weight to sample from"
                )
            }
        }
    }
}

impl std::error::Error for FleetConfigError {}

/// Configuration for a simulated fleet of households.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of households.
    pub households: usize,
    /// Base seed; household `i` derives seed `base_seed + i`.
    pub base_seed: u64,
    /// Archetype mix as `(archetype, weight)`; sampled proportionally.
    pub archetype_mix: Vec<(HouseholdArchetype, f64)>,
    /// Optional shared tariff response (applies to every household).
    pub tariff_response: Option<TariffResponse>,
    /// Worker threads (1 = serial; capped at the household count and
    /// the host's CPU cores).
    pub threads: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            households: 30,
            base_seed: 1000,
            archetype_mix: vec![
                (HouseholdArchetype::SingleResident, 0.25),
                (HouseholdArchetype::Couple, 0.35),
                (HouseholdArchetype::FamilyWithChildren, 0.25),
                (HouseholdArchetype::SuburbanWithEv, 0.15),
            ],
            tariff_response: None,
            threads: 4,
        }
    }
}

impl FleetConfig {
    /// Check that the fleet can actually be sampled.
    pub fn validate(&self) -> Result<(), FleetConfigError> {
        if self.households == 0 {
            return Err(FleetConfigError::NoHouseholds);
        }
        if self.archetype_mix.is_empty() {
            return Err(FleetConfigError::EmptyArchetypeMix);
        }
        if !self
            .archetype_mix
            .iter()
            .any(|(_, w)| w.is_finite() && *w > 0.0)
        {
            return Err(FleetConfigError::ZeroWeightArchetypeMix);
        }
        Ok(())
    }

    /// Materialise the per-household configurations (deterministic for
    /// a fixed `base_seed`), or explain why the mix cannot be sampled.
    pub fn try_household_configs(&self) -> Result<Vec<HouseholdConfig>, FleetConfigError> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(self.base_seed);
        let weights = self.archetype_mix.iter().map(|(_, w)| *w);
        Ok((0..self.households)
            .map(|i| {
                // `validate` guarantees positive mass, so the draw
                // always succeeds; the fallback is unreachable.
                let idx = weighted_index(&mut rng, weights.clone()).unwrap_or(0);
                let arch = self.archetype_mix[idx].0;
                let mut cfg =
                    HouseholdConfig::new(i as u64, arch).with_seed(self.base_seed + i as u64);
                cfg.tariff_response = self.tariff_response.clone();
                cfg
            })
            .collect())
    }

    /// Materialise the per-household configurations, panicking on an
    /// unsampleable config (see [`FleetConfig::try_household_configs`]).
    pub fn household_configs(&self) -> Vec<HouseholdConfig> {
        self.try_household_configs()
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The result of simulating a fleet.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Every household's simulation, in id order.
    pub households: Vec<SimulatedHousehold>,
    /// The fleet-total consumption at 15-min market granularity.
    pub total: TimeSeries,
}

impl FleetResult {
    /// Fleet-total *flexible* ground-truth series at 15-min granularity.
    pub fn total_flexible(&self) -> TimeSeries {
        let mut acc: Option<TimeSeries> = None;
        for h in &self.households {
            let f = h.flexible_series_at(Resolution::MIN_15);
            acc = Some(match acc {
                None => f,
                Some(a) => a.add(&f).expect("fleet members share the grid"),
            });
        }
        acc.expect("fleets are non-empty")
    }

    /// Ground-truth flexible share of the whole fleet.
    pub fn true_flexible_share(&self) -> f64 {
        let total = self.total.total_energy();
        if total <= 0.0 {
            0.0
        } else {
            self.total_flexible().total_energy() / total
        }
    }
}

/// Simulate a fleet over `range`, parallelised across
/// `config.threads` workers. Panics on an unsampleable config;
/// use [`try_simulate_fleet`] to get a typed error instead.
pub fn simulate_fleet(config: &FleetConfig, range: TimeRange) -> FleetResult {
    try_simulate_fleet(config, range).unwrap_or_else(|e| panic!("{e}"))
}

/// Simulate a fleet over `range`, parallelised across
/// `config.threads` workers. Returns a typed error when the
/// config has no households or an empty/zero-weight archetype mix.
pub fn try_simulate_fleet(
    config: &FleetConfig,
    range: TimeRange,
) -> Result<FleetResult, FleetConfigError> {
    let catalog = Catalog::extended();
    let configs = config.try_household_configs()?;
    let mut households = Vec::with_capacity(configs.len());
    let Ok(()) = ordered_parallel_map(
        configs.len(),
        config.threads,
        |i| {
            Ok::<_, Infallible>(simulate_household_with_catalog(
                &configs[i],
                range,
                &catalog,
            ))
        },
        |_, sim| {
            households.push(sim);
            Ok(())
        },
    );

    let mut total: Option<TimeSeries> = None;
    for h in &households {
        let market = resample::to_resolution(&h.series, Resolution::MIN_15)
            .expect("day-aligned simulation grids resample to 15 min");
        total = Some(match total {
            None => market,
            Some(t) => t.add(&market).expect("fleet members share the grid"),
        });
    }
    Ok(FleetResult {
        total: total.expect("households > 0 checked above"),
        households,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextract_time::Duration;

    fn days(n: i64) -> TimeRange {
        TimeRange::starting_at("2013-03-18".parse().unwrap(), Duration::days(n)).unwrap()
    }

    fn small_fleet(threads: usize) -> FleetConfig {
        FleetConfig {
            households: 6,
            threads,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn fleet_is_deterministic_and_thread_count_invariant() {
        let serial = simulate_fleet(&small_fleet(1), days(2));
        let parallel = simulate_fleet(&small_fleet(3), days(2));
        assert_eq!(serial.households.len(), 6);
        assert_eq!(serial.total, parallel.total);
        for (a, b) in serial.households.iter().zip(&parallel.households) {
            assert_eq!(a.config.id, b.config.id);
            assert_eq!(a.series, b.series);
        }
    }

    #[test]
    fn total_is_sum_of_members() {
        let fleet = simulate_fleet(&small_fleet(2), days(2));
        let sum: f64 = fleet
            .households
            .iter()
            .map(|h| h.series.total_energy())
            .sum();
        assert!((fleet.total.total_energy() - sum).abs() < 1e-6);
        assert_eq!(fleet.total.resolution(), Resolution::MIN_15);
        assert_eq!(fleet.total.len(), 2 * 96);
    }

    #[test]
    fn archetype_mix_is_respected() {
        let cfg = FleetConfig {
            households: 40,
            archetype_mix: vec![(HouseholdArchetype::SingleResident, 1.0)],
            ..FleetConfig::default()
        };
        for h in cfg.household_configs() {
            assert_eq!(h.archetype, HouseholdArchetype::SingleResident);
        }
    }

    #[test]
    fn flexible_share_is_sane() {
        let fleet = simulate_fleet(&small_fleet(2), days(3));
        let share = fleet.true_flexible_share();
        assert!(share > 0.0 && share < 0.9, "share {share}");
        let flex = fleet.total_flexible();
        assert!(flex.total_energy() <= fleet.total.total_energy());
    }

    #[test]
    fn distinct_households_have_distinct_series() {
        let fleet = simulate_fleet(&small_fleet(2), days(2));
        let first = &fleet.households[0].series;
        assert!(fleet.households.iter().skip(1).any(|h| &h.series != first));
    }

    #[test]
    fn shared_tariff_response_propagates() {
        let cfg = FleetConfig {
            households: 4,
            tariff_response: Some(TariffResponse::overnight(1.0)),
            ..FleetConfig::default()
        };
        let fleet = simulate_fleet(&cfg, days(3));
        let any_shifted = fleet
            .households
            .iter()
            .flat_map(|h| &h.activations)
            .any(|a| a.was_shifted());
        assert!(any_shifted);
    }

    #[test]
    #[should_panic(expected = "at least one household")]
    fn empty_fleet_panics() {
        let cfg = FleetConfig {
            households: 0,
            ..FleetConfig::default()
        };
        simulate_fleet(&cfg, days(1));
    }

    #[test]
    fn unsampleable_mixes_yield_typed_errors() {
        let empty = FleetConfig {
            archetype_mix: vec![],
            ..FleetConfig::default()
        };
        assert_eq!(
            empty.try_household_configs().unwrap_err(),
            FleetConfigError::EmptyArchetypeMix
        );
        assert_eq!(
            try_simulate_fleet(&empty, days(1)).unwrap_err(),
            FleetConfigError::EmptyArchetypeMix
        );

        let zero = FleetConfig {
            archetype_mix: vec![
                (HouseholdArchetype::Couple, 0.0),
                (HouseholdArchetype::SingleResident, -1.0),
                (HouseholdArchetype::FamilyWithChildren, f64::NAN),
            ],
            ..FleetConfig::default()
        };
        assert_eq!(
            zero.validate().unwrap_err(),
            FleetConfigError::ZeroWeightArchetypeMix
        );

        let none = FleetConfig {
            households: 0,
            ..FleetConfig::default()
        };
        assert_eq!(none.validate().unwrap_err(), FleetConfigError::NoHouseholds);

        // The error messages are user-facing; keep them descriptive.
        assert!(FleetConfigError::EmptyArchetypeMix
            .to_string()
            .contains("archetype_mix"));
        assert!(FleetConfigError::ZeroWeightArchetypeMix
            .to_string()
            .contains("weight"));
    }

    #[test]
    #[should_panic(expected = "archetype_mix is empty")]
    fn empty_mix_panics_in_the_infallible_api() {
        let cfg = FleetConfig {
            archetype_mix: vec![],
            ..FleetConfig::default()
        };
        cfg.household_configs();
    }

    #[test]
    fn try_simulate_matches_simulate_for_valid_configs() {
        let cfg = small_fleet(2);
        let a = try_simulate_fleet(&cfg, days(1)).unwrap();
        let b = simulate_fleet(&cfg, days(1));
        assert_eq!(a.total, b.total);
    }
}
