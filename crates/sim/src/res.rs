//! Renewable (wind) production simulation.
//!
//! MIRABEL schedules flexible demand against *surplus RES production*
//! ("the washing machine can be turned on when the wind blows", §1).
//! The downstream scheduling experiments need a production series; this
//! module generates one with the canonical pipeline: an
//! Ornstein–Uhlenbeck wind-speed process pushed through a turbine power
//! curve.

use crate::randomness::{clamp_to_zero, ou_step};
use flextract_series::TimeSeries;
use flextract_time::{Resolution, TimeRange};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration of a simulated wind farm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindFarmConfig {
    /// Rated (maximum) electrical output in kW.
    pub capacity_kw: f64,
    /// Long-run mean wind speed (m/s) the OU process reverts to.
    pub mean_wind_ms: f64,
    /// Cut-in wind speed: below this the turbines produce nothing.
    pub cut_in_ms: f64,
    /// Rated wind speed: at and above this (until cut-out) the farm
    /// produces `capacity_kw`.
    pub rated_ms: f64,
    /// Cut-out wind speed: above this turbines shut down for safety.
    pub cut_out_ms: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WindFarmConfig {
    fn default() -> Self {
        WindFarmConfig {
            capacity_kw: 2000.0,
            mean_wind_ms: 7.5,
            cut_in_ms: 3.0,
            rated_ms: 12.0,
            cut_out_ms: 25.0,
            seed: 0xA1B2,
        }
    }
}

impl WindFarmConfig {
    /// Electrical power (kW) at wind speed `v` (m/s): zero below
    /// cut-in and above cut-out, cubic ramp between cut-in and rated,
    /// flat at capacity between rated and cut-out.
    pub fn power_at(&self, v: f64) -> f64 {
        if v < self.cut_in_ms || v >= self.cut_out_ms {
            0.0
        } else if v >= self.rated_ms {
            self.capacity_kw
        } else {
            let x = (v.powi(3) - self.cut_in_ms.powi(3))
                / (self.rated_ms.powi(3) - self.cut_in_ms.powi(3));
            self.capacity_kw * x
        }
    }
}

/// Simulate farm production over `range` at `resolution` (kWh per
/// interval). Deterministic for a fixed seed.
pub fn simulate_wind_production(
    config: &WindFarmConfig,
    range: TimeRange,
    resolution: Resolution,
) -> TimeSeries {
    let aligned = range.align_outward(resolution);
    let n = aligned.interval_count(resolution);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let hours = resolution.hours_f64();
    // OU parameters tuned so wind decorrelates over ~6 h regardless of
    // the sampling resolution.
    let theta = (hours / 6.0).min(1.0);
    let sigma = 1.2 * theta.sqrt();
    let values = wind_power(&mut rng, config, n, theta, sigma, hours);
    TimeSeries::new(aligned.start(), resolution, values)
        .expect("aligned range starts on the resolution grid")
}

/// `n` intervals of farm output (kWh over `hours` each) from an OU wind
/// speed (rate `theta`, step noise `sigma`) that starts at the mean and
/// is clamped at zero.
///
/// A kernel on a local copy of the generator, like the household
/// simulator's base-load pass (see the `randomness` module doc).
#[inline(never)]
fn wind_power(
    rng: &mut StdRng,
    config: &WindFarmConfig,
    n: usize,
    theta: f64,
    sigma: f64,
    hours: f64,
) -> Vec<f64> {
    let mut local = rng.clone();
    let mut v = config.mean_wind_ms;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        v = clamp_to_zero(ou_step(&mut local, v, config.mean_wind_ms, theta, sigma));
        values.push(config.power_at(v) * hours);
    }
    *rng = local;
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::randomness::oracle;
    use flextract_time::Duration;

    fn week() -> TimeRange {
        TimeRange::starting_at("2013-03-18".parse().unwrap(), Duration::weeks(1)).unwrap()
    }

    #[test]
    fn power_curve_regions() {
        let cfg = WindFarmConfig::default();
        assert_eq!(cfg.power_at(0.0), 0.0);
        assert_eq!(cfg.power_at(2.9), 0.0); // below cut-in
        assert_eq!(cfg.power_at(12.0), 2000.0); // rated
        assert_eq!(cfg.power_at(20.0), 2000.0); // between rated and cut-out
        assert_eq!(cfg.power_at(25.0), 0.0); // cut-out
        assert_eq!(cfg.power_at(30.0), 0.0);
        // Cubic ramp is monotone between cut-in and rated.
        let p5 = cfg.power_at(5.0);
        let p8 = cfg.power_at(8.0);
        let p11 = cfg.power_at(11.0);
        assert!(0.0 < p5 && p5 < p8 && p8 < p11 && p11 < 2000.0);
    }

    #[test]
    fn production_series_shape() {
        let cfg = WindFarmConfig::default();
        let s = simulate_wind_production(&cfg, week(), Resolution::MIN_15);
        assert_eq!(s.len(), 7 * 96);
        assert!(s.values().iter().all(|&v| v >= 0.0));
        // Max per-interval energy is capacity × 0.25 h.
        assert!(s.values().iter().all(|&v| v <= 2000.0 * 0.25 + 1e-9));
        assert!(s.total_energy() > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = WindFarmConfig::default();
        let a = simulate_wind_production(&cfg, week(), Resolution::MIN_15);
        let b = simulate_wind_production(&cfg, week(), Resolution::MIN_15);
        assert_eq!(a, b);
        let other = WindFarmConfig {
            seed: 9,
            ..WindFarmConfig::default()
        };
        assert_ne!(
            simulate_wind_production(&other, week(), Resolution::MIN_15),
            a
        );
    }

    #[test]
    fn capacity_factor_is_plausible() {
        // Wind farms run at roughly 20-60 % capacity factor; our OU at
        // mean 7.5 m/s should land inside that band.
        let cfg = WindFarmConfig::default();
        let s = simulate_wind_production(&cfg, week(), Resolution::MIN_15);
        let cf = s.total_energy() / (2000.0 * 24.0 * 7.0);
        assert!((0.1..0.8).contains(&cf), "capacity factor {cf}");
    }

    #[test]
    fn resolution_independence_of_totals() {
        // Same seed at different resolutions gives different paths but
        // similar weekly totals (the OU tuning compensates step size).
        let cfg = WindFarmConfig::default();
        let fine = simulate_wind_production(&cfg, week(), Resolution::MIN_15);
        let coarse = simulate_wind_production(&cfg, week(), Resolution::HOUR_1);
        let ratio = fine.total_energy() / coarse.total_energy();
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn wind_kernel_matches_the_inline_loop_bit_for_bit() {
        // A 1 m/s mean with ~0.9 m/s of spread clamps about one
        // interval in eight at zero.
        let cfg = WindFarmConfig {
            mean_wind_ms: 1.0,
            cut_in_ms: 0.5,
            rated_ms: 2.0,
            ..WindFarmConfig::default()
        };
        let (theta, sigma, hours) = (0.25, 0.6, 0.25);
        let mut branches = oracle::Branches::default();
        let mut a = StdRng::seed_from_u64(9);
        let mut b = a.clone();
        let got = wind_power(&mut a, &cfg, 200_000, theta, sigma, hours);
        // The loop as it stood inline in `simulate_wind_production`,
        // over the loop-form sampler.
        let mut v = cfg.mean_wind_ms;
        let mut clamped = 0;
        let want: Vec<f64> = (0..200_000)
            .map(|_| {
                let next =
                    oracle::ou_step(&mut b, v, cfg.mean_wind_ms, theta, sigma, &mut branches);
                clamped += usize::from(next <= 0.0 || next.is_nan());
                v = next.max(0.0);
                cfg.power_at(v) * hours
            })
            .collect();
        let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(a, b, "the generator is not written back");
        assert!(clamped > 1000, "{clamped} clamped intervals");
        assert!(branches.wedge > 0 && branches.tail > 0, "{branches:?}");
    }
}
