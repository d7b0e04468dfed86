//! Industrial-consumer simulation — the paper's §6 research direction:
//! "Further research directions include flexibility extraction from
//! industrial consumers."
//!
//! Industrial load differs from households in structure, not kind: a
//! large shift-driven base load (production lines, HVAC, lighting)
//! plus a handful of **batch processes** (cold storage pre-cooling,
//! electrolysis runs, compressor banks) that are genuinely deferrable
//! within operating windows. The same extraction approaches apply
//! unchanged to the resulting series; this module provides the
//! simulated substrate and its ground truth.

use crate::activation::Activation;
use crate::randomness::{clamp_to_zero, clamped_normal, normal, ou_step};
use flextract_series::TimeSeries;
use flextract_time::{CivilTime, Duration, Resolution, TimeRange, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Working-time structure of the plant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShiftPattern {
    /// 06:00–18:00 on workdays, skeleton load otherwise.
    SingleShift,
    /// 06:00–22:00 on workdays.
    TwoShift,
    /// Around the clock, every day (process industry).
    Continuous,
}

impl ShiftPattern {
    /// Base-load multiplier at instant `t` (1.0 = full operation).
    pub fn load_factor(self, t: Timestamp) -> f64 {
        let weekend = t.day_of_week().is_weekend();
        let m = t.minute_of_day();
        let working = match self {
            ShiftPattern::SingleShift => !weekend && (360..1080).contains(&m),
            ShiftPattern::TwoShift => !weekend && (360..1320).contains(&m),
            ShiftPattern::Continuous => true,
        };
        if working {
            1.0
        } else {
            0.25 // skeleton crew / standby systems
        }
    }
}

/// One deferrable batch process of the plant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchProcess {
    /// Process name (appears in the ground-truth log).
    pub name: String,
    /// Power band while running (kW).
    pub power_kw: (f64, f64),
    /// Run length.
    pub duration: Duration,
    /// Operating window in which a run may start.
    pub window: (CivilTime, CivilTime),
    /// Mean runs per day.
    pub runs_per_day: f64,
    /// How far a run can be deferred past its natural start.
    pub max_delay: Duration,
}

/// Configuration of one simulated industrial site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndustrialConfig {
    /// Site identifier.
    pub id: u64,
    /// Shift structure.
    pub pattern: ShiftPattern,
    /// Full-operation base load (kW).
    pub base_load_kw: f64,
    /// The deferrable processes.
    pub processes: Vec<BatchProcess>,
    /// RNG seed.
    pub seed: u64,
}

impl IndustrialConfig {
    /// A representative mid-size plant: 120 kW two-shift base load
    /// with a cold-storage pre-cool and a compressed-air top-up as
    /// deferrable batches.
    pub fn medium_plant(id: u64) -> Self {
        IndustrialConfig {
            id,
            pattern: ShiftPattern::TwoShift,
            base_load_kw: 120.0,
            processes: vec![
                BatchProcess {
                    name: "Cold-storage pre-cool".into(),
                    power_kw: (40.0, 60.0),
                    duration: Duration::hours(2),
                    window: (
                        CivilTime::new(4, 0).expect("static"),
                        CivilTime::new(10, 0).expect("static"),
                    ),
                    runs_per_day: 1.0,
                    max_delay: Duration::hours(6),
                },
                BatchProcess {
                    name: "Compressed-air top-up".into(),
                    power_kw: (25.0, 35.0),
                    duration: Duration::hours(1),
                    window: (
                        CivilTime::new(11, 0).expect("static"),
                        CivilTime::new(20, 0).expect("static"),
                    ),
                    runs_per_day: 2.0,
                    max_delay: Duration::hours(3),
                },
            ],
            seed: id.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(11),
        }
    }
}

/// The result of simulating one industrial site.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedIndustrial {
    /// The configuration used.
    pub config: IndustrialConfig,
    /// Total site consumption at 15-min resolution (kWh/interval) —
    /// industrial metering is typically interval metering, not 1-min.
    pub series: TimeSeries,
    /// Ground-truth batch runs.
    pub activations: Vec<Activation>,
    /// Ground-truth deferrable consumption only.
    pub flexible_series: TimeSeries,
}

impl SimulatedIndustrial {
    /// Ground-truth flexible share of total energy.
    pub fn true_flexible_share(&self) -> f64 {
        let total = self.series.total_energy();
        if total <= 0.0 {
            0.0
        } else {
            self.flexible_series.total_energy() / total
        }
    }
}

/// The site's base-load pass: an OU wander (step noise `sigma`) around
/// `base_kw` that starts at `base_kw`, clamped at zero and scaled by the
/// shift pattern, plus metering noise `N(0, noise_kw)`, clamped at zero
/// again and added to `series` as kWh per interval.
///
/// A kernel on a local copy of the generator, like the household
/// simulator's base-load pass (see the `randomness` module doc).
#[inline(never)]
fn add_shift_load(
    rng: &mut StdRng,
    series: &mut TimeSeries,
    pattern: ShiftPattern,
    base_kw: f64,
    sigma: f64,
    noise_kw: f64,
) {
    let mut local = rng.clone();
    let hours = series.resolution().hours_f64();
    let mut level = base_kw;
    for i in 0..series.len() {
        let t = series.timestamp_of(i);
        level = clamp_to_zero(ou_step(&mut local, level, base_kw, 0.05, sigma));
        let kw = level * pattern.load_factor(t) + normal(&mut local, 0.0, noise_kw);
        series.values_mut()[i] += clamp_to_zero(kw) * hours;
    }
    *rng = local;
}

/// Simulate an industrial site over `range` (widened to whole days).
pub fn simulate_industrial(config: &IndustrialConfig, range: TimeRange) -> SimulatedIndustrial {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let days = range.align_outward(Resolution::DAY);
    let res = Resolution::MIN_15;
    let hours = res.hours_f64();
    let mut series = TimeSeries::zeros_over(days, res).expect("aligned day range");
    let mut flexible = TimeSeries::zeros_over(days, res).expect("aligned day range");
    let mut log = Vec::new();

    // Shift-driven base load with slow OU wander and metering noise.
    let base = config.base_load_kw;
    add_shift_load(
        &mut rng,
        &mut series,
        config.pattern,
        base,
        base * 0.02,
        base * 0.01,
    );

    // Batch processes.
    for day in days.split_days() {
        for proc in &config.processes {
            let runs = {
                // Industrial batches are scheduled, not Poisson: run
                // count is the integer part plus a Bernoulli remainder.
                let whole = proc.runs_per_day.floor() as usize;
                let frac = proc.runs_per_day.fract();
                whole + usize::from(rng.gen::<f64>() < frac)
            };
            for _ in 0..runs {
                let w_from = proc.window.0.minute_of_day() as i64;
                let mut w_to = proc.window.1.minute_of_day() as i64;
                if w_to <= w_from {
                    w_to += 24 * 60;
                }
                // Starts snap to the 15-min grid like real plant
                // schedules do.
                let minute = rng.gen_range(w_from..=w_to) / 15 * 15;
                let start = day.start() + Duration::minutes(minute);
                let intensity = clamped_normal(&mut rng, 0.5, 0.2, 0.0, 1.0);
                let kw = proc.power_kw.0 + (proc.power_kw.1 - proc.power_kw.0) * intensity;
                let intervals = (proc.duration.as_minutes() / res.minutes()).max(1);
                let run_series = TimeSeries::new(start, res, vec![kw * hours; intervals as usize])
                    .expect("grid-snapped starts are aligned");
                let placed = run_series.slice(days);
                if placed.is_empty() {
                    continue;
                }
                series
                    .add_overlapping(&placed)
                    .expect("site grids share the 15-min resolution");
                flexible
                    .add_overlapping(&placed)
                    .expect("site grids share the 15-min resolution");
                log.push(Activation {
                    appliance: proc.name.clone(),
                    start,
                    duration: proc.duration,
                    intensity,
                    energy_kwh: placed.total_energy(),
                    shiftable: true,
                    shifted_from: None,
                });
            }
        }
    }
    log.sort_by_key(|a| a.start);
    SimulatedIndustrial {
        config: config.clone(),
        series,
        activations: log,
        flexible_series: flexible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::randomness::oracle;

    fn week() -> TimeRange {
        TimeRange::starting_at("2013-03-18".parse().unwrap(), Duration::weeks(1)).unwrap()
    }

    #[test]
    fn deterministic_and_shaped() {
        let cfg = IndustrialConfig::medium_plant(1);
        let a = simulate_industrial(&cfg, week());
        let b = simulate_industrial(&cfg, week());
        assert_eq!(a.series, b.series);
        assert_eq!(a.series.resolution(), Resolution::MIN_15);
        assert_eq!(a.series.len(), 7 * 96);
        assert!(a.series.values().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn shift_pattern_shapes_the_load() {
        let cfg = IndustrialConfig::medium_plant(2);
        let sim = simulate_industrial(&cfg, week());
        // Tuesday 10:00 (working) vs Tuesday 02:00 (skeleton).
        let working = sim
            .series
            .value_at("2013-03-19 10:00".parse().unwrap())
            .unwrap();
        let night = sim
            .series
            .value_at("2013-03-19 02:00".parse().unwrap())
            .unwrap();
        assert!(
            working > night * 2.0,
            "working {working} should dwarf skeleton {night}"
        );
        // Weekend runs at skeleton load for a two-shift plant.
        let saturday = sim
            .series
            .value_at("2013-03-23 12:00".parse().unwrap())
            .unwrap();
        assert!(saturday < working * 0.6, "saturday {saturday} vs {working}");
    }

    #[test]
    fn continuous_plants_do_not_dip() {
        let cfg = IndustrialConfig {
            pattern: ShiftPattern::Continuous,
            processes: vec![],
            ..IndustrialConfig::medium_plant(3)
        };
        let sim = simulate_industrial(&cfg, week());
        let night = sim
            .series
            .value_at("2013-03-19 02:00".parse().unwrap())
            .unwrap();
        let noon = sim
            .series
            .value_at("2013-03-19 12:00".parse().unwrap())
            .unwrap();
        assert!((night / noon) > 0.7, "night {night} vs noon {noon}");
    }

    #[test]
    fn batch_runs_are_logged_inside_their_windows() {
        let cfg = IndustrialConfig::medium_plant(4);
        let sim = simulate_industrial(&cfg, week());
        assert!(!sim.activations.is_empty());
        for a in &sim.activations {
            assert!(a.shiftable);
            let proc = cfg
                .processes
                .iter()
                .find(|p| p.name == a.appliance)
                .expect("logged process exists");
            let m = a.start.minute_of_day() as i64;
            let from = proc.window.0.minute_of_day() as i64;
            let to = proc.window.1.minute_of_day() as i64;
            assert!(
                m >= from && m <= to,
                "{} started {} outside its window",
                a.appliance,
                a.start
            );
            assert!(a.start.is_aligned(Resolution::MIN_15));
        }
    }

    #[test]
    fn flexible_share_is_plausible_for_industry() {
        let cfg = IndustrialConfig::medium_plant(5);
        let sim = simulate_industrial(&cfg, week());
        let share = sim.true_flexible_share();
        // Batches against a 120 kW base: a few percent, like the
        // MIRACLE 0.1-6.5 % range.
        assert!(share > 0.005 && share < 0.2, "share {share}");
        assert!(
            (sim.flexible_series.total_energy()
                - sim.activations.iter().map(|a| a.energy_kwh).sum::<f64>())
            .abs()
                < 1e-6
        );
    }

    #[test]
    fn household_extractors_run_unchanged_on_industrial_series() {
        // The §6 point: the flex-offer machinery is consumer-agnostic.
        use flextract_series::peaks::{detect_peaks, PeakThreshold};
        let cfg = IndustrialConfig::medium_plant(6);
        let sim = simulate_industrial(&cfg, week());
        let (_, peaks) = detect_peaks(&sim.series, PeakThreshold::Mean).unwrap();
        assert!(!peaks.is_empty(), "industrial days have detectable peaks");
    }

    /// The base-load loop as it stood inline in `simulate_industrial`,
    /// over the loop-form sampler: the reference for
    /// [`add_shift_load`]. Returns how many values the two clamps cut
    /// to zero.
    fn shift_load_inline(
        rng: &mut StdRng,
        series: &mut TimeSeries,
        pattern: ShiftPattern,
        base_kw: f64,
        sigma: f64,
        noise_kw: f64,
        branches: &mut oracle::Branches,
    ) -> usize {
        let hours = series.resolution().hours_f64();
        let mut level = base_kw;
        let mut clamped = 0;
        for i in 0..series.len() {
            let t = series.timestamp_of(i);
            let next = oracle::ou_step(rng, level, base_kw, 0.05, sigma, branches);
            level = next.max(0.0);
            let kw = level * pattern.load_factor(t) + oracle::normal(rng, 0.0, noise_kw, branches);
            clamped +=
                usize::from(next <= 0.0 || next.is_nan()) + usize::from(kw <= 0.0 || kw.is_nan());
            series.values_mut()[i] += kw.max(0.0) * hours;
        }
        clamped
    }

    #[test]
    fn shift_load_kernel_matches_the_inline_loop_bit_for_bit() {
        // Step noise and metering noise at a third of the base load
        // make both clamps fire; ~5 years of 15-min intervals reach the
        // sampler's tail.
        let years =
            TimeRange::starting_at("2013-01-07".parse().unwrap(), Duration::weeks(260)).unwrap();
        let mut branches = oracle::Branches::default();
        let mut clamped = 0;
        for (seed, pattern) in [(1, ShiftPattern::TwoShift), (2, ShiftPattern::Continuous)] {
            let mut got = TimeSeries::zeros_over(years, Resolution::MIN_15).unwrap();
            let mut want = got.clone();
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = a.clone();
            add_shift_load(&mut a, &mut got, pattern, 120.0, 40.0, 40.0);
            clamped +=
                shift_load_inline(&mut b, &mut want, pattern, 120.0, 40.0, 40.0, &mut branches);
            let bits = |s: &TimeSeries| s.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "seed {seed}");
            assert_eq!(a, b, "seed {seed}: the generator is not written back");
        }
        assert!(clamped > 1000, "{clamped} clamped values");
        assert!(branches.wedge > 0 && branches.tail > 0, "{branches:?}");
    }
}
