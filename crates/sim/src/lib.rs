//! # flextract-sim
//!
//! Synthetic household-consumption and RES-production simulator — the
//! workspace's stand-in for the real metering data the paper's authors
//! used (MIRABEL/MIRACLE trial series, which are not redistributable)
//! and for the multi-tariff series they *wished* they had ("we do not
//! have the required time series for this approach", §3.3).
//!
//! The simulator is appliance-level and bottom-up: a household owns a
//! set of catalog appliances ([`flextract_appliance::Catalog`]); each
//! simulated day draws activations per appliance from its usage model
//! (frequency, preferred start windows, weekend multiplier), realises
//! the cycle's 1-minute load profile at a random intensity, and sums
//! everything with a smooth stochastic base load. Because the generator
//! knows which cycles it placed, every [`SimulatedHousehold`] carries a
//! **ground-truth [`Activation`] log** — so extraction quality can be
//! *measured*, where the paper could only argue ("there exist no real
//! flex-offers in the world, thus the statistics … cannot be
//! evaluated", §3.1). Callers that read only the series skip the log
//! with [`simulate_household_series`].
//!
//! Tariff response (§3.3's behavioural assumption) is first-class: under
//! a time-of-use [`TariffScheme`], shiftable activations are delayed
//! into low-tariff windows with a configurable sensitivity, and the
//! shift is recorded in the ground truth (`shifted_from`).
//!
//! ```
//! use flextract_sim::{HouseholdArchetype, HouseholdConfig, simulate_household};
//! use flextract_time::{TimeRange, Timestamp, Duration};
//!
//! let cfg = HouseholdConfig::new(1, HouseholdArchetype::FamilyWithChildren).with_seed(42);
//! let week = TimeRange::starting_at("2013-03-18".parse().unwrap(), Duration::weeks(1)).unwrap();
//! let sim = simulate_household(&cfg, week);
//! assert_eq!(sim.series.resolution(), flextract_time::Resolution::MIN_1);
//! assert!(sim.series.total_energy() > 0.0);
//! assert!(!sim.activations.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activation;
mod fleet;
mod household;
mod industrial;
pub mod randomness;
mod res;
mod simulate;
mod tariff;

pub use activation::Activation;
pub use fleet::{simulate_fleet, try_simulate_fleet, FleetConfig, FleetConfigError, FleetResult};
pub use household::{HouseholdArchetype, HouseholdConfig};
pub use industrial::{
    simulate_industrial, BatchProcess, IndustrialConfig, ShiftPattern, SimulatedIndustrial,
};
pub use res::{simulate_wind_production, WindFarmConfig};
pub use simulate::{
    simulate_household, simulate_household_series, simulate_household_with_catalog,
    simulate_tariff_pair, SimulatedHousehold,
};
pub use tariff::{TariffResponse, TariffScheme};
