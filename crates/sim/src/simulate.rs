//! The household simulation engine.

use crate::activation::{Activation, ActivationStats};
use crate::household::HouseholdConfig;
use crate::randomness::{
    bernoulli, clamp_to_zero, clamped_normal, normal, poisson, standard_normal, weighted_index,
};
use crate::tariff::TariffResponse;
use flextract_appliance::{ApplianceSpec, Catalog, UsageFrequency};
use flextract_series::{resample, TimeSeries};
use flextract_time::{Duration, Resolution, TimeRange, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of simulating one household over a time range.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedHousehold {
    /// The configuration that produced this simulation.
    pub config: HouseholdConfig,
    /// Total household consumption at 1-minute resolution (kWh/min).
    pub series: TimeSeries,
    /// Ground truth: every appliance cycle that was placed.
    pub activations: Vec<Activation>,
    /// Ground-truth *flexible* consumption only (the summed series of
    /// all shiftable-appliance cycles), 1-minute resolution.
    pub flexible_series: TimeSeries,
}

impl SimulatedHousehold {
    /// The consumption series resampled to `res` (e.g. the 15-min
    /// market granularity the extraction approaches consume).
    pub fn series_at(&self, res: Resolution) -> TimeSeries {
        resample::to_resolution(&self.series, res)
            .expect("simulation grids are day-aligned, so any Resolution works")
    }

    /// The flexible ground-truth series resampled to `res`.
    pub fn flexible_series_at(&self, res: Resolution) -> TimeSeries {
        resample::to_resolution(&self.flexible_series, res)
            .expect("simulation grids are day-aligned, so any Resolution works")
    }

    /// Summary statistics of the ground-truth log.
    pub fn stats(&self) -> ActivationStats {
        ActivationStats::from_log(&self.activations)
    }

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

/// Simulate one household over `range` (widened outward to whole days).
///
/// Deterministic for a fixed [`HouseholdConfig::seed`]: the same config
/// and range always produce the identical series and activation log.
pub fn simulate_household(config: &HouseholdConfig, range: TimeRange) -> SimulatedHousehold {
    let catalog = Catalog::extended();
    simulate_household_with_catalog(config, range, &catalog)
}

/// [`simulate_household`] against a caller-provided catalog (fleets
/// share one catalog; tests inject reduced ones).
///
/// Each appliance cycle is added into the series phase by phase
/// ([`LoadProfile::energy_runs`]), so placing a cycle allocates
/// nothing. A call allocates its two minute series, the list of owned
/// appliances, the activation log with one appliance name per
/// activation, and the copy of `config` it returns. Callers that read
/// only the series use [`simulate_household_series`], which allocates
/// just the two series and the appliance list.
///
/// [`LoadProfile::energy_runs`]: flextract_appliance::LoadProfile::energy_runs
pub fn simulate_household_with_catalog(
    config: &HouseholdConfig,
    range: TimeRange,
    catalog: &Catalog,
) -> SimulatedHousehold {
    let mut log = Vec::new();
    let (series, flexible_series) = simulate::<true>(config, range, catalog, &mut log);
    log.sort_by_key(|a| a.start);
    SimulatedHousehold {
        config: config.clone(),
        series,
        activations: log,
        flexible_series,
    }
}

/// The `(series, flexible_series)` pair of
/// [`simulate_household_with_catalog`], bit for bit, without its
/// ground-truth log.
///
/// The draws and float operations are the same, in the same order; what
/// is skipped is only the log's own work: no [`Activation`] is built, no
/// cycle's placed energy is summed, no appliance name is cloned, and no
/// log is sorted or `config` copied. A call allocates its two minute
/// series and the list of owned appliances.
pub fn simulate_household_series(
    config: &HouseholdConfig,
    range: TimeRange,
    catalog: &Catalog,
) -> (TimeSeries, TimeSeries) {
    simulate::<false>(config, range, catalog, &mut Vec::new())
}

/// The one simulator body: the consumption and flexible minute series
/// over `range` widened to whole days. With `LOG`, every placed cycle of
/// a cycle appliance is pushed onto `log` (unsorted) with its placed
/// energy; without it, `log` is left untouched and no energy is summed.
fn simulate<const LOG: bool>(
    config: &HouseholdConfig,
    range: TimeRange,
    catalog: &Catalog,
    log: &mut Vec<Activation>,
) -> (TimeSeries, TimeSeries) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let days = range.align_outward(Resolution::DAY);
    let mut series = TimeSeries::zeros_over(days, Resolution::MIN_1).expect("aligned day range");
    let mut flexible = TimeSeries::zeros_over(days, Resolution::MIN_1).expect("aligned day range");

    // --- Base load: a slow mean-reverting wander around the archetype
    // level, drawn once per 5 simulated minutes.
    let base_kw = config.archetype.base_load_kw();
    add_base_load(&mut rng, series.values_mut(), base_kw, 0.02, base_kw * 0.05);

    // --- Appliance cycles, each added into the series phase by phase,
    // so placing a cycle allocates nothing.
    let specs = config.resolve_appliances(catalog);
    for spec in specs {
        match spec.usage.frequency {
            UsageFrequency::Continuous => {
                simulate_continuous(&mut rng, spec, days, &mut series);
            }
            _ => simulate_cycles::<LOG>(
                &mut rng,
                config,
                spec,
                days,
                &mut series,
                &mut flexible,
                log,
            ),
        }
    }

    // --- Measurement noise, applied last so it does not enter the
    // ground-truth flexible series. Negative readings are clipped to
    // zero in the same pass, exactly as `clip_negative` would.
    let noise_kwh = config.noise_level * base_kw / 60.0;
    if noise_kwh > 0.0 {
        add_noise(&mut rng, series.values_mut(), noise_kwh);
    } else {
        series.clip_negative();
    }
    (series, flexible)
}

/// Minutes the base load holds one level. The chain is advanced by its
/// exact law over this many one-minute steps, so a week takes 2 016
/// draws instead of 10 080.
const BASE_LOAD_STEP: usize = 5;

/// The base-load pass: an OU wander around `base_kw` that starts at
/// `base_kw`, clamped at zero and added to `values` as kWh per minute.
///
/// The wander is the one-minute chain `L ← μ + φ(L − μ) + σ·z` with
/// φ = 1 − `theta` and σ = `sigma`, advanced [`BASE_LOAD_STEP`] minutes
/// per draw by its exact law over that many steps (see [`step_law`]):
/// `L ← μ + φ⁵(L − μ) + σ₅·z`. Every minute of a step adds `L / 60`.
/// The level therefore keeps the one-minute chain's stationary mean μ,
/// its standard deviation σ/√(1 − φ²) and its autocorrelation φᵏ at
/// every lag `k` that is a multiple of 5 minutes; it is flat within a
/// step, and the zero clamp applies once per step.
///
/// A kernel of its own, on a local copy of the generator, so that the
/// level and the generator stay in registers for the whole loop (see
/// the `randomness` module doc); the tests hold it to a plain indexed
/// loop bit for bit.
#[inline(never)]
fn add_base_load(rng: &mut StdRng, values: &mut [f64], base_kw: f64, theta: f64, sigma: f64) {
    let (decay, sigma_step) = step_law(theta, sigma);
    let mut local = rng.clone();
    let mut level = base_kw;
    for step in values.chunks_mut(BASE_LOAD_STEP) {
        level = clamp_to_zero(
            base_kw + decay * (level - base_kw) + sigma_step * standard_normal(&mut local),
        );
        let kwh = level / 60.0;
        for v in step {
            *v += kwh;
        }
    }
    *rng = local;
}

/// The exact law of [`BASE_LOAD_STEP`] = 5 steps of the one-minute
/// chain with φ = 1 − `theta` and step noise `sigma`: the decay φ⁵ of
/// the deviation from the mean, and the standard deviation
/// σ₅ = σ·√((1 − φ¹⁰)/(1 − φ²)) of the noise five steps add up
/// (σ²·Σⱼ φ²ʲ over j < 5). Products and one correctly rounded square
/// root only, no `powi` or `exp`, so the bits are the same on every
/// platform.
fn step_law(theta: f64, sigma: f64) -> (f64, f64) {
    const _: () = assert!(BASE_LOAD_STEP == 5, "step_law spells out φ⁵ and φ¹⁰");
    let phi = 1.0 - theta;
    let phi2 = phi * phi;
    let phi5 = phi2 * phi2 * phi;
    let phi10 = phi5 * phi5;
    (phi5, sigma * ((1.0 - phi10) / (1.0 - phi2)).sqrt())
}

/// The measurement-noise pass: add `N(0, noise_kwh)` to every value and
/// clip negative readings to zero, as `clip_negative` would. A kernel
/// on a local copy of the generator, like [`add_base_load`].
#[inline(never)]
fn add_noise(rng: &mut StdRng, values: &mut [f64], noise_kwh: f64) {
    let mut local = rng.clone();
    for v in values {
        let noisy = *v + normal(&mut local, 0.0, noise_kwh);
        *v = if noisy < 0.0 { 0.0 } else { noisy };
    }
    *rng = local;
}

/// Add one cycle, given as runs of equal per-minute kWh (one
/// `(minutes, value)` per phase, from [`LoadProfile::energy_runs`])
/// anchored at `start`, into `target`, skipping minutes outside the
/// series span. Nothing is expanded into a buffer: each run adds its
/// value over its in-range stretch of `target`.
///
/// Returns the placed energy (each run's value times its in-range
/// minutes, summed in run order; 0 unless `FOLD`) and how many minutes
/// landed in range. A product per run, not a sum per minute, keeps the
/// fold off the minute loop, which then has no dependency chain.
///
/// Panics unless `target` is a 1-minute series: the minute offset is
/// used directly as a value index, which is only sound on the MIN_1
/// grid (a hard assert, not a debug one — on a coarser grid the
/// arithmetic would silently misplace energy in release builds).
///
/// [`LoadProfile::energy_runs`]: flextract_appliance::LoadProfile::energy_runs
fn add_cycle_values<const FOLD: bool>(
    target: &mut TimeSeries,
    start: Timestamp,
    runs: impl IntoIterator<Item = (usize, f64)>,
) -> (f64, usize) {
    assert_eq!(
        target.resolution(),
        Resolution::MIN_1,
        "add_cycle_values indexes by minute and needs a MIN_1 target"
    );
    let len = target.len() as i64;
    // `at` is the target index of the current run's first minute.
    let mut at = (start - target.start()).as_minutes();
    let values = target.values_mut();
    let (mut energy, mut placed) = (0.0, 0);
    for (minutes, v) in runs {
        let (lo, hi) = (at.clamp(0, len), (at + minutes as i64).clamp(0, len));
        at += minutes as i64;
        // lo ≤ hi, both in [0, len]; an empty stretch adds nothing.
        for t in &mut values[lo as usize..hi as usize] {
            *t += v;
        }
        if FOLD {
            energy += v * (hi - lo) as f64;
        }
        placed += (hi - lo) as usize;
    }
    (energy, placed)
}

/// Chain duty cycles of a continuous appliance (e.g. refrigerator
/// compressor) across the whole span, with randomised idle gaps.
fn simulate_continuous(
    rng: &mut StdRng,
    spec: &ApplianceSpec,
    days: TimeRange,
    series: &mut TimeSeries,
) {
    let cycle = spec.profile.duration();
    let mut cursor = days.start();
    while cursor < days.end() {
        let intensity = clamped_normal(rng, 0.5, 0.2, 0.0, 1.0);
        add_cycle_values::<false>(
            series,
            cursor.floor_to(Resolution::MIN_1),
            spec.profile.energy_runs(intensity),
        );
        // Idle gap between 0.5× and 1.5× of the cycle length.
        let gap =
            Duration::minutes((cycle.as_minutes() as f64 * rng.gen_range(0.5..1.5)).round() as i64);
        cursor = cursor + cycle + gap;
    }
}

/// Place the day's stochastic activations of a cycle appliance, logging
/// each placed one when `LOG`.
#[allow(clippy::too_many_arguments)]
fn simulate_cycles<const LOG: bool>(
    rng: &mut StdRng,
    config: &HouseholdConfig,
    spec: &ApplianceSpec,
    days: TimeRange,
    series: &mut TimeSeries,
    flexible: &mut TimeSeries,
    log: &mut Vec<Activation>,
) {
    // `days` is whole days, so each step lands on a midnight.
    let mut day = days.start();
    while day < days.end() {
        let weekend = day.day_of_week().is_weekend();
        let rate =
            spec.usage.expected_rate(weekend).unwrap_or(0.0) * config.archetype.activity_factor();
        let count = poisson(rng, rate);
        for _ in 0..count {
            let natural_start = sample_start(rng, spec, day);
            let (start, shifted_from) =
                apply_tariff_response(rng, spec, natural_start, config.tariff_response.as_ref());
            let intensity = clamped_normal(rng, 0.5, 0.25, 0.0, 1.0);
            // Only the in-range part enters the household series; record
            // that amount so ground truth and series stay in balance.
            let anchored = start.floor_to(Resolution::MIN_1);
            let cycle = spec.profile.energy_runs(intensity);
            let (energy_kwh, placed_minutes) = add_cycle_values::<LOG>(series, anchored, cycle);
            if placed_minutes == 0 {
                continue;
            }
            let shiftable = spec.shiftability.is_shiftable();
            if shiftable {
                add_cycle_values::<false>(flexible, anchored, spec.profile.energy_runs(intensity));
            }
            if LOG {
                log.push(Activation {
                    appliance: spec.name.clone(),
                    start,
                    duration: spec.profile.duration(),
                    intensity,
                    energy_kwh,
                    shiftable,
                    shifted_from,
                });
            }
        }
        day += Duration::DAY;
    }
}

/// Draw a natural start instant from the appliance's preferred windows.
fn sample_start(rng: &mut StdRng, spec: &ApplianceSpec, day_start: Timestamp) -> Timestamp {
    let windows = &spec.usage.preferred_windows;
    let idx = weighted_index(rng, windows.iter().map(|(_, _, w)| *w)).unwrap_or(0);
    let (from, to, _) = windows.get(idx).copied().unwrap_or((
        flextract_time::CivilTime::MIDNIGHT,
        flextract_time::CivilTime::MIDNIGHT,
        1.0,
    ));
    let f = from.minute_of_day() as i64;
    let mut u = to.minute_of_day() as i64;
    if u <= f {
        u += 24 * 60; // wrapping window
    }
    let minute = rng.gen_range(f..=u);
    day_start + Duration::minutes(minute)
}

/// Possibly delay a shiftable activation into the next low-tariff
/// window (the §3.3 behavioural assumption).
fn apply_tariff_response(
    rng: &mut StdRng,
    spec: &ApplianceSpec,
    natural_start: Timestamp,
    response: Option<&TariffResponse>,
) -> (Timestamp, Option<Timestamp>) {
    let Some(resp) = response else {
        return (natural_start, None);
    };
    if !spec.shiftability.is_shiftable()
        || !resp.scheme.is_multi_tariff()
        || resp.scheme.is_low_tariff(natural_start)
        || !bernoulli(rng, resp.sensitivity)
    {
        return (natural_start, None);
    }
    match resp
        .scheme
        .next_low_tariff_start(natural_start, spec.shiftability.max_delay())
    {
        Some(delayed) if delayed > natural_start => (delayed, Some(natural_start)),
        _ => (natural_start, None),
    }
}

/// Simulate the §3.3 input pair: the *same* consumer observed first
/// under a flat tariff over `one_tariff_range`, then under the
/// multi-tariff scheme of `response` over `multi_tariff_range`.
///
/// Both simulations share the household seed, so appliance ownership and
/// habits match; only the billing-induced shifting differs.
pub fn simulate_tariff_pair(
    config: &HouseholdConfig,
    one_tariff_range: TimeRange,
    multi_tariff_range: TimeRange,
    response: TariffResponse,
) -> (SimulatedHousehold, SimulatedHousehold) {
    let mut flat_cfg = config.clone();
    flat_cfg.tariff_response = None;
    let mut multi_cfg = config.clone();
    multi_cfg.tariff_response = Some(response);
    (
        simulate_household(&flat_cfg, one_tariff_range),
        simulate_household(&multi_cfg, multi_tariff_range),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::household::HouseholdArchetype;
    use crate::randomness::oracle;
    use crate::tariff::TariffScheme;

    fn week() -> TimeRange {
        TimeRange::starting_at("2013-03-18".parse().unwrap(), Duration::weeks(1)).unwrap()
    }

    fn family() -> HouseholdConfig {
        HouseholdConfig::new(1, HouseholdArchetype::FamilyWithChildren).with_seed(42)
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = simulate_household(&family(), week());
        let b = simulate_household(&family(), week());
        assert_eq!(a.series, b.series);
        assert_eq!(a.activations, b.activations);
    }

    #[test]
    fn different_seeds_differ() {
        let a = simulate_household(&family(), week());
        let b = simulate_household(&family().with_seed(43), week());
        assert_ne!(a.series, b.series);
    }

    #[test]
    fn output_shape_and_positivity() {
        let sim = simulate_household(&family(), week());
        assert_eq!(sim.series.resolution(), Resolution::MIN_1);
        assert_eq!(sim.series.len(), 7 * 1440);
        assert!(sim.series.values().iter().all(|&v| v >= 0.0));
        assert!(sim.series.total_energy() > 10.0, "a family uses energy");
        // A family runs appliances during a week.
        assert!(sim.stats().count > 5, "{} activations", sim.stats().count);
    }

    #[test]
    fn flexible_series_is_a_lower_envelope() {
        let sim = simulate_household(&family(), week());
        assert!(sim.flexible_series.total_energy() > 0.0);
        // Flexible energy is part of (noise-free) total energy; noise is
        // zero-mean so allow a small tolerance.
        assert!(
            sim.flexible_series.total_energy() <= sim.series.total_energy() * 1.05,
            "flexible {} vs total {}",
            sim.flexible_series.total_energy(),
            sim.series.total_energy()
        );
        let share = sim.true_flexible_share();
        assert!(share > 0.0 && share < 1.0, "share {share}");
    }

    #[test]
    fn ground_truth_energy_matches_log() {
        let sim = simulate_household(&family(), week());
        let flexible_from_log: f64 = sim
            .activations
            .iter()
            .filter(|a| a.shiftable)
            .map(|a| a.energy_kwh)
            .sum();
        assert!(
            (flexible_from_log - sim.flexible_series.total_energy()).abs() < 1e-6,
            "log {} vs series {}",
            flexible_from_log,
            sim.flexible_series.total_energy()
        );
    }

    #[test]
    fn resampling_to_market_granularity() {
        let sim = simulate_household(&family(), week());
        let market = sim.series_at(Resolution::MIN_15);
        assert_eq!(market.len(), 7 * 96);
        assert!((market.total_energy() - sim.series.total_energy()).abs() < 1e-6);
        let flex15 = sim.flexible_series_at(Resolution::MIN_15);
        assert_eq!(flex15.len(), 7 * 96);
    }

    #[test]
    fn archetypes_order_by_consumption() {
        let single = simulate_household(
            &HouseholdConfig::new(10, HouseholdArchetype::SingleResident),
            week(),
        );
        let suburban = simulate_household(
            &HouseholdConfig::new(11, HouseholdArchetype::SuburbanWithEv),
            week(),
        );
        assert!(
            suburban.series.total_energy() > single.series.total_energy() * 1.5,
            "suburban {} vs single {}",
            suburban.series.total_energy(),
            single.series.total_energy()
        );
    }

    #[test]
    fn tariff_response_shifts_into_low_windows() {
        let response = TariffResponse::overnight(1.0);
        let cfg = family().with_tariff_response(response.clone());
        let sim = simulate_household(&cfg, week());
        let shifted: Vec<&Activation> =
            sim.activations.iter().filter(|a| a.was_shifted()).collect();
        assert!(!shifted.is_empty(), "full sensitivity must shift something");
        for a in &shifted {
            assert!(
                response.scheme.is_low_tariff(a.start),
                "{} landed at {} which is not low tariff",
                a.appliance,
                a.start
            );
            assert!(a.shift_amount() > Duration::ZERO);
            assert!(a.shiftable);
        }
    }

    #[test]
    fn zero_sensitivity_never_shifts() {
        let cfg = family().with_tariff_response(TariffResponse::overnight(0.0));
        let sim = simulate_household(&cfg, week());
        assert!(sim.activations.iter().all(|a| !a.was_shifted()));
    }

    #[test]
    fn tariff_pair_shares_habits_but_not_shifts() {
        let (flat, multi) = simulate_tariff_pair(
            &family(),
            week(),
            TimeRange::starting_at("2013-04-01".parse().unwrap(), Duration::weeks(1)).unwrap(),
            TariffResponse::overnight(0.9),
        );
        assert!(flat.activations.iter().all(|a| !a.was_shifted()));
        assert!(multi.activations.iter().any(|a| a.was_shifted()));
        assert_eq!(flat.config.archetype, multi.config.archetype);
        // Night share of consumption rises under the multi tariff.
        let night_share = |sim: &SimulatedHousehold| {
            let night: f64 = sim
                .series
                .iter()
                .filter(|(t, _)| {
                    let m = t.minute_of_day();
                    !(6 * 60..22 * 60).contains(&m)
                })
                .map(|(_, v)| v)
                .sum();
            night / sim.series.total_energy()
        };
        assert!(
            night_share(&multi) > night_share(&flat),
            "multi {} vs flat {}",
            night_share(&multi),
            night_share(&flat)
        );
    }

    #[test]
    fn range_is_widened_to_whole_days() {
        let ragged = TimeRange::new(
            "2013-03-18 13:37".parse().unwrap(),
            "2013-03-19 02:11".parse().unwrap(),
        )
        .unwrap();
        let sim = simulate_household(&family(), ragged);
        assert_eq!(sim.series.start(), "2013-03-18".parse().unwrap());
        assert_eq!(sim.series.len(), 2 * 1440);
    }

    #[test]
    fn flat_tariff_response_is_inert() {
        let cfg = family().with_tariff_response(TariffResponse {
            scheme: TariffScheme::Flat { price: 0.25 },
            sensitivity: 1.0,
        });
        let sim = simulate_household(&cfg, week());
        assert!(sim.activations.iter().all(|a| !a.was_shifted()));
    }

    /// The expanded cycle (`values`, one per minute) added as an index
    /// loop over its clamped range: the reference for the run walk.
    /// Returns the in-range cycle minutes `j0..j1`.
    fn add_cycle_values_indexed(
        target: &mut TimeSeries,
        start: Timestamp,
        values: &[f64],
    ) -> std::ops::Range<usize> {
        let off = (start - target.start()).as_minutes();
        let n = values.len() as i64;
        let j0 = (-off).clamp(0, n) as usize;
        let j1 = (target.len() as i64 - off).clamp(0, n) as usize;
        let target_values = target.values_mut();
        for (j, v) in values[j0..j1].iter().enumerate() {
            target_values[(off + (j0 + j) as i64) as usize] += v;
        }
        j0..j1
    }

    /// Each run's value times how many of its minutes fall in `placed`
    /// (cycle minutes), summed in run order.
    fn placed_energy(runs: &[(usize, f64)], placed: &std::ops::Range<usize>) -> f64 {
        let (mut energy, mut at) = (0.0, 0);
        for &(minutes, v) in runs {
            let (lo, hi) = (at.max(placed.start), (at + minutes).min(placed.end));
            energy += v * hi.saturating_sub(lo) as f64;
            at += minutes;
        }
        energy
    }

    #[test]
    fn add_cycle_values_matches_the_indexed_loop_at_every_overlap() {
        let day: Timestamp = "2013-03-18".parse().unwrap();
        let len = 100;
        let base: Vec<f64> = (0..len).map(|i| 0.01 + i as f64 * 0.003).collect();
        // Values whose sum depends on the order they are added in, as
        // one-minute runs and as phases of 3, 1, 4 and 2 minutes.
        let value = |j: usize| 0.1 / (j as f64 + 3.0) + 1e-9;
        let minute_runs: Vec<(usize, f64)> = (0..10).map(|j| (1, value(j))).collect();
        let phase_runs: Vec<(usize, f64)> = [3, 1, 4, 2]
            .iter()
            .enumerate()
            .map(|(j, &m)| (m, value(j)))
            .collect();
        for runs in [&minute_runs, &phase_runs] {
            let cycle: Vec<f64> = runs
                .iter()
                .flat_map(|&(m, v)| std::iter::repeat_n(v, m))
                .collect();
            let n = cycle.len() as i64;
            // off < −n, off = −n, −n < off < 0, inside, off + n > len,
            // off = len − 1, off = len, off > len.
            for off in [
                -25,
                -n,
                -4,
                -2,
                0,
                37,
                len as i64 - n,
                95,
                98,
                len as i64 - 1,
                len as i64,
                130,
            ] {
                let start = day + Duration::minutes(off);
                let mut got = TimeSeries::new(day, Resolution::MIN_1, base.clone()).unwrap();
                let mut want = got.clone();
                let mut unfolded = got.clone();
                let (e_got, n_got) =
                    add_cycle_values::<true>(&mut got, start, runs.iter().copied());
                let placed = add_cycle_values_indexed(&mut want, start, &cycle);
                let n_want = placed.len();
                assert_eq!(n_got, n_want, "off {off}");
                let e_want = placed_energy(runs, &placed);
                assert_eq!(e_got.to_bits(), e_want.to_bits(), "off {off}");
                let bits =
                    |s: &TimeSeries| s.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "off {off}");
                // Without the fold the same values land; no energy is summed.
                let (e_none, n_none) =
                    add_cycle_values::<false>(&mut unfolded, start, runs.iter().copied());
                assert_eq!((e_none, n_none), (0.0, n_want), "off {off}");
                assert_eq!(bits(&unfolded), bits(&want), "off {off}");
            }
        }
        // The edges place what they should.
        let mut s = TimeSeries::zeros_over(
            TimeRange::starting_at(day, Duration::minutes(len as i64)).unwrap(),
            Resolution::MIN_1,
        )
        .unwrap();
        let mut place = |off: i64| {
            add_cycle_values::<true>(
                &mut s,
                day + Duration::minutes(off),
                phase_runs.iter().copied(),
            )
        };
        assert_eq!(place(-4).1, 6);
        assert_eq!(place(95).1, 5);
        assert_eq!(place(100), (0.0, 0));
        assert_eq!(place(-10), (0.0, 0));
    }

    #[test]
    #[should_panic(expected = "needs a MIN_1 target")]
    fn add_cycle_values_refuses_a_coarser_grid() {
        let day: Timestamp = "2013-03-18".parse().unwrap();
        let mut s = TimeSeries::constant(day, Resolution::MIN_15, 0.0, 8);
        add_cycle_values::<true>(&mut s, day, [(1, 1.0)]);
    }

    #[test]
    fn continuous_appliances_produce_no_log_entries() {
        let sim = simulate_household(&family(), week());
        assert!(sim
            .activations
            .iter()
            .all(|a| a.appliance != "Refrigerator A+"));
        // …but the fridge still consumes: strip appliances from the log
        // and the series still has energy beyond logged cycles + base.
        let logged: f64 = sim.activations.iter().map(|a| a.energy_kwh).sum();
        assert!(sim.series.total_energy() > logged);
    }

    /// The base-load pass as a plain indexed loop over the loop-form
    /// sampler, a new level every `BASE_LOAD_STEP`-th minute: the
    /// reference for [`add_base_load`]. Returns how many steps the clamp
    /// cut to zero.
    fn base_load_inline(
        rng: &mut StdRng,
        values: &mut [f64],
        base_kw: f64,
        sigma: f64,
        branches: &mut oracle::Branches,
    ) -> usize {
        let (decay, sigma_step) = step_law(0.02, sigma);
        let mut level = base_kw;
        let mut clamped = 0;
        for (minute, v) in values.iter_mut().enumerate() {
            if minute % BASE_LOAD_STEP == 0 {
                let z = oracle::standard_normal(rng, branches);
                let next = base_kw + decay * (level - base_kw) + sigma_step * z;
                clamped += usize::from(next <= 0.0 || next.is_nan());
                level = next.max(0.0);
            }
            *v += level / 60.0;
        }
        clamped
    }

    /// The measurement-noise loop as it stood inline: the reference for
    /// [`add_noise`]. Returns how many readings it clipped.
    fn noise_inline(
        rng: &mut StdRng,
        values: &mut [f64],
        noise_kwh: f64,
        branches: &mut oracle::Branches,
    ) -> usize {
        let mut clipped = 0;
        for v in values.iter_mut() {
            let noisy = *v + oracle::normal(rng, 0.0, noise_kwh, branches);
            clipped += usize::from(noisy < 0.0);
            *v = if noisy < 0.0 { 0.0 } else { noisy };
        }
        clipped
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Values a kernel adds to, unequal so a misplaced draw shows.
    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i % 97) as f64 * 1e-5).collect()
    }

    #[test]
    fn base_load_kernel_matches_the_inline_loop_bit_for_bit() {
        // The production step noise (5 % of the level) rarely reaches
        // zero, so the step noise here is 20 %: the level's spread is
        // then its mean, and the clamp cuts a sixth of the steps. 500 003
        // minutes per seed (a last step of 3 minutes) take 100 001 draws
        // and reach the sampler's tail (~2.6e-4 of draws) about 26 times.
        let mut branches = oracle::Branches::default();
        let mut clamped = 0;
        for (seed, base_kw) in [(3, 0.3), (11, 0.12)] {
            let mut got = ramp(500_003);
            let mut want = got.clone();
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = a.clone();
            add_base_load(&mut a, &mut got, base_kw, 0.02, base_kw * 0.2);
            clamped += base_load_inline(&mut b, &mut want, base_kw, base_kw * 0.2, &mut branches);
            assert_eq!(bits(&got), bits(&want), "seed {seed}");
            assert_eq!(a, b, "seed {seed}: the generator is not written back");
        }
        assert!(clamped > 1000, "{clamped} clamped steps");
        assert!(branches.wedge > 0 && branches.tail > 0, "{branches:?}");
    }

    #[test]
    fn step_law_is_five_one_minute_steps() {
        // Five one-minute steps from a deviation d: mean φ⁵·d, noise
        // variance σ²·(1 + φ² + φ⁴ + φ⁶ + φ⁸).
        for (theta, sigma) in [(0.02, 0.0065), (0.05, 1.0), (0.3, 0.2)] {
            let phi: f64 = 1.0 - theta;
            let (mut decay, mut var) = (1.0, 0.0);
            for _ in 0..BASE_LOAD_STEP {
                decay *= phi;
                var = phi * phi * var + sigma * sigma;
            }
            let (got_decay, got_sigma) = step_law(theta, sigma);
            assert!((got_decay / decay - 1.0).abs() < 1e-14, "{theta}");
            assert!((got_sigma * got_sigma / var - 1.0).abs() < 1e-13, "{theta}");
        }
    }

    #[test]
    fn noise_kernel_matches_the_inline_loop_bit_for_bit() {
        // Readings under 1e-3 kWh against 2e-3 kWh of noise: about
        // half are clipped.
        let mut branches = oracle::Branches::default();
        let mut clipped = 0;
        for seed in [5, 17] {
            let mut got = ramp(200_000);
            let mut want = got.clone();
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = a.clone();
            add_noise(&mut a, &mut got, 2e-3);
            clipped += noise_inline(&mut b, &mut want, 2e-3, &mut branches);
            assert_eq!(bits(&got), bits(&want), "seed {seed}");
            assert_eq!(a, b, "seed {seed}: the generator is not written back");
        }
        assert!(clipped > 1000, "{clipped} clipped readings");
        assert!(branches.wedge > 0 && branches.tail > 0, "{branches:?}");
    }
}
