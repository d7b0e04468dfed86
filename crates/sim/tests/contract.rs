//! The simulator's statistical contract.
//!
//! Goldens and `simulator_pin` only show that output did not move. This
//! suite states what the output must be for a simulated fleet to serve
//! as flexibility ground truth, per archetype, and checks it over a
//! fresh fleet on every run of CI (`PROPTEST_SEED` picks the fleet seed;
//! unset, the seed is fixed):
//!
//! 1. **Activations.** Each cycle appliance's activations over the
//!    fleet are a Poisson count at the catalog's rate times the
//!    archetype's activity factor (weekend multiplier included).
//! 2. **Daily energy mean** against the catalog's expectation: base
//!    load, continuous duty cycles, appliance cycles (cut at the span's
//!    end where they run past it) and zero-mean noise.
//! 3. **Daily energy spread**, through its two drivers: household-days
//!    without an activation of an appliance (e^−rate of them, if the
//!    daily counts are Poisson), and the spread of cycle intensity,
//!    which scales each cycle's energy within its catalog range.
//! 4. **Measurement noise**: the same household simulated without noise
//!    gives the draws back; their mean and standard deviation against
//!    `noise_level`.
//! 5. **Flexible share**: shiftable energy over total energy.
//! 6. **The base load on its own** (no appliances, no noise): an OU
//!    chain with φ = 1 − θ around the archetype's base load μ, with
//!    stationary mean μ, standard deviation σ/√(1−φ²), and
//!    autocorrelation φ^k at lags k of 5, 15 and 60 minutes.
//!
//! Every bound is derived from the configuration with a finite-sample
//! inequality, none is fitted to output, so its level bounds the flake
//! rate: all checks of one run together fail a correct simulator less
//! than once in 10⁶ runs. Counts and energies use Bernstein's
//! inequality (compound Poisson sums included), the continuous duty
//! cycles Hoeffding's, Gaussian sums the Gaussian tail, and the base
//! load's second moments the Laurent–Massart bound for Gaussian
//! quadratic forms.
//!
//! Two effects are left out of the bounds, both one-sided and orders of
//! magnitude below the half-widths: clamping the base load at zero
//! (4 stationary standard deviations below μ), which can only raise it,
//! and clipping a noisy reading at zero.

mod bounds;

use bounds::{bernstein, phi};
use flextract_appliance::{ApplianceSpec, Catalog, UsageFrequency};
use flextract_sim::{
    simulate_household, simulate_household_series, HouseholdArchetype, HouseholdConfig,
};
use flextract_time::{Duration, TimeRange, Timestamp};
use proptest::prelude::ProptestConfig;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The base load's mean-reversion rate per minute, θ (φ = 1 − θ).
const THETA: f64 = 0.02;
/// The base load's per-minute step noise σ, as a share of μ.
const SIGMA_SHARE: f64 = 0.05;
/// The longest time the base load holds one level, in minutes. The
/// second-moment bounds take the covariance's row sums for this hold,
/// which exceed those of a level redrawn every minute, so they hold for
/// both.
const MAX_HOLD: i32 = 5;
/// The cycle-intensity law: `clamped_normal(0.5, 0.25, 0, 1)`.
const INTENSITY_SD: f64 = 0.25;

/// Households per archetype in the appliance fleet, each simulated over
/// [`SPAN_WEEKS`].
const HOUSEHOLDS: u64 = 32;
const SPAN_WEEKS: i64 = 2;
/// Of those, how many are simulated a second time without noise.
const NOISE_TWINS: u64 = 4;
/// Households per archetype in the base-load-only fleet, each over
/// [`BASE_WEEKS`]; the first day is burn-in.
const BASE_HOUSEHOLDS: u64 = 32;
const BASE_WEEKS: i64 = 4;
const BURN_IN: usize = 1440;

/// Tolerated probability that one run fails a correct simulator.
const FLAKE_RATE: f64 = 1e-6;
/// Checks each archetype's appliance fleet may make, and the base-load
/// fleet over all four archetypes; every check runs at level
/// `FLAKE_RATE / (4 · FLEET_CHECKS + BASE_CHECKS)`.
const FLEET_CHECKS: usize = 35;
const BASE_CHECKS: usize = 20;

fn alpha() -> f64 {
    FLAKE_RATE / (4 * FLEET_CHECKS + BASE_CHECKS) as f64
}

/// The fleet seed: `PROPTEST_SEED` when set, so CI's rotating step draws
/// a fresh fleet on every run.
fn fleet_seed() -> Option<u64> {
    ProptestConfig::default().with_env_overrides().seed
}

/// The household configs of one archetype's fleet, seeded from the run
/// seed.
fn fleet(archetype: HouseholdArchetype, n: u64, salt: u64) -> Vec<HouseholdConfig> {
    let tag = archetype as u64 * 1_000 + salt;
    let mut rng = StdRng::seed_from_u64(
        fleet_seed().unwrap_or(2013) ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    (0..n)
        .map(|i| HouseholdConfig::new(tag + i, archetype).with_seed(rng.next_u64()))
        .collect()
}

/// `weeks` whole weeks from Monday 2013-03-18.
fn span(weeks: i64) -> TimeRange {
    let monday: Timestamp = "2013-03-18".parse().unwrap();
    TimeRange::starting_at(monday, Duration::weeks(weeks)).unwrap()
}

/// The checks of one fleet, at one level each, and what they measured.
struct Contract {
    what: String,
    alpha: f64,
    budget: usize,
    rows: Vec<String>,
    failures: Vec<String>,
}

impl Contract {
    fn new(what: impl Into<String>, budget: usize) -> Self {
        Contract {
            what: what.into(),
            alpha: alpha(),
            budget,
            rows: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Check `observed` against `expected ± half_width`.
    fn check(&mut self, name: &str, observed: f64, expected: f64, half_width: f64) {
        self.within(
            name,
            observed,
            expected,
            expected - half_width,
            expected + half_width,
        );
    }

    /// Check `observed` against the interval `[lo, hi]` around
    /// `expected`.
    fn within(&mut self, name: &str, observed: f64, expected: f64, lo: f64, hi: f64) {
        let row =
            format!("{name}: {observed:.6} (expected {expected:.6}, bounds [{lo:.6}, {hi:.6}])");
        if !(lo..=hi).contains(&observed) {
            self.failures.push(row.clone());
        }
        self.rows.push(row);
    }

    fn finish(self) {
        assert!(
            self.rows.len() <= self.budget,
            "{}: {} checks, budget {}",
            self.what,
            self.rows.len(),
            self.budget
        );
        println!("{}:\n  {}", self.what, self.rows.join("\n  "));
        let replay = match fleet_seed() {
            Some(seed) => format!("replay with PROPTEST_SEED={seed}"),
            None => "replay with PROPTEST_SEED unset".into(),
        };
        assert!(
            self.failures.is_empty(),
            "{} breaks the simulator contract ({replay}):\n  {}",
            self.what,
            self.failures.join("\n  ")
        );
    }
}

/// E[(I − ½)²] for a cycle intensity `I = clamp(N(½, sd), 0, 1)`:
/// `sd²·E[clamp(Z, −c, c)²]` with `c = ½/sd`.
fn intensity_variance(sd: f64) -> f64 {
    let c = 0.5 / sd;
    let density = (-0.5 * c * c).exp() / (2.0 * std::f64::consts::PI).sqrt();
    let inside = 2.0 * phi(c) - 1.0 - 2.0 * c * density;
    sd * sd * (inside + c * c * 2.0 * (1.0 - phi(c)))
}

/// A cycle appliance's expected energy placed inside `[0, span_minutes)`
/// for a cycle drawn on day `day`, at the mean intensity ½ (the
/// intensity law is symmetric about ½ and energy is linear in it): the
/// start window is picked by weight and the minute uniformly within it.
fn expected_placed_kwh(spec: &ApplianceSpec, day: i64, span_minutes: i64) -> f64 {
    let windows = &spec.usage.preferred_windows;
    let total_weight: f64 = windows.iter().map(|w| w.2).sum();
    let mut expected = 0.0;
    for &(from, to, weight) in windows {
        let (f, u) = (from.minute_of_day() as i64, to.minute_of_day() as i64);
        assert!(u > f, "{}: a window that wraps past midnight", spec.name);
        let mut window_kwh = 0.0;
        for m in f..=u {
            let mut at = day * 1440 + m;
            for phase in spec.profile.phases() {
                let end = at + phase.duration_min as i64;
                let placed = (end.min(span_minutes) - at.min(span_minutes)) as f64;
                window_kwh += placed * (phase.min_kw + phase.max_kw) / 2.0 / 60.0;
                at = end;
            }
        }
        expected += weight / total_weight * window_kwh / (u - f + 1) as f64;
    }
    expected
}

/// Per-household rate and placed energy of one cycle appliance on each
/// day of the span.
struct CycleLaw<'c> {
    spec: &'c ApplianceSpec,
    /// `(rate, expected placed kWh)` per day.
    days: Vec<(f64, f64)>,
    /// Second moment of a whole cycle's energy, an upper bound on a
    /// placed one's.
    second_moment: f64,
    /// A whole cycle's largest energy.
    max_kwh: f64,
}

fn cycle_laws<'c>(
    specs: &[&'c ApplianceSpec],
    activity: f64,
    range: TimeRange,
) -> Vec<CycleLaw<'c>> {
    let days = range.duration().as_minutes() / 1440;
    let var_i = intensity_variance(INTENSITY_SD);
    specs
        .iter()
        .filter(|s| s.usage.frequency != UsageFrequency::Continuous)
        .map(|&spec| {
            let (lo, hi) = spec.profile.energy_range_kwh();
            let mid = (lo + hi) / 2.0;
            CycleLaw {
                spec,
                days: (0..days)
                    .map(|d| {
                        let weekend = (range.start() + Duration::days(d))
                            .day_of_week()
                            .is_weekend();
                        let rate = spec.usage.expected_rate(weekend).unwrap() * activity;
                        (rate, expected_placed_kwh(spec, d, days * 1440))
                    })
                    .collect(),
                second_moment: mid * mid + (hi - lo) * (hi - lo) * var_i,
                max_kwh: hi,
            }
        })
        .collect()
}

/// A continuous appliance's duty cycles over `minutes`: one-phase cycles
/// of length `c` chained from minute 0 with idle gaps of `round(c·U)`
/// minutes, `U` uniform on [0.5, 1.5), at intensity
/// `clamped_normal(0.5, 0.2)`. Returns the expected energy (a renewal
/// sum: the chance that a cycle starts at minute t, times what it
/// places) and the smallest and largest energy any gap sequence places.
fn continuous_law(spec: &ApplianceSpec, minutes: usize) -> (f64, f64, f64) {
    assert_eq!(spec.profile.phases().len(), 1, "{}", spec.name);
    let c = spec.profile.duration().as_minutes() as usize;
    let (lo_kwh, hi_kwh) = spec.profile.energy_range_kwh();
    let mean_kw = (lo_kwh + hi_kwh) / 2.0 / (c as f64 / 60.0);
    // P(gap = j): the share of [0.5c, 1.5c) that rounds to j.
    let gaps: Vec<(usize, f64)> = (c / 2..=(3 * c).div_ceil(2))
        .map(|j| {
            let (a, b) = (j as f64 - 0.5, j as f64 + 0.5);
            let len = b.min(1.5 * c as f64) - a.max(0.5 * c as f64);
            (j, len.max(0.0) / c as f64)
        })
        .filter(|&(_, p)| p > 0.0)
        .collect();
    let mut starts = vec![0.0; minutes];
    starts[0] = 1.0;
    let mut expected = 0.0;
    for t in 0..minutes {
        let p = starts[t];
        expected += p * (c.min(minutes - t) as f64) * mean_kw / 60.0;
        for &(g, pg) in &gaps {
            if let Some(next) = starts.get_mut(t + c + g) {
                *next += p * pg;
            }
        }
    }
    let (min_step, max_step) = (c + gaps[0].0, c + gaps[gaps.len() - 1].0);
    // At most ⌈minutes / shortest step⌉ cycles, each at most `hi_kwh`;
    // at least ⌊minutes / longest step⌋ whole ones, each at least `lo_kwh`.
    let most = minutes.div_ceil(min_step) as f64 * hi_kwh;
    let least = (minutes / max_step) as f64 * lo_kwh;
    (expected, least, most)
}

/// A fleet's energy outside the appliance cycles (base load, continuous
/// duty cycles, noise): its expectation and its half-width at level
/// `alpha` (a union bound over the three).
fn background_kwh(
    archetype: HouseholdArchetype,
    specs: &[&ApplianceSpec],
    noise_level: f64,
    households: f64,
    minutes: usize,
    alpha: f64,
) -> (f64, f64) {
    let mu = archetype.base_load_kw();
    let part = alpha / 3.0;
    let gauss = |v: f64| (2.0 * v * (2.0 / part).ln()).sqrt();
    // Base load: μ/60 per minute; the OU sum's variance is at most the
    // minutes times the covariance's row sum.
    let base = households * minutes as f64 * mu / 60.0;
    let base_hw = gauss(households * minutes as f64 * row_sum(mu) / 3600.0);
    // Continuous duty cycles, one bounded term per household.
    let (mut cont, mut cont_range) = (0.0, 0.0);
    for spec in specs
        .iter()
        .filter(|s| s.usage.frequency == UsageFrequency::Continuous)
    {
        let (e, least, most) = continuous_law(spec, minutes);
        cont += households * e;
        cont_range += most - least;
    }
    let cont_hw = cont_range * (households * (2.0 / part).ln() / 2.0).sqrt();
    // Noise: zero-mean normals of `noise_level·μ/60` kWh.
    let s = noise_level * mu / 60.0;
    let noise_hw = gauss(households * minutes as f64 * s * s);
    (base + cont, base_hw + cont_hw + noise_hw)
}

/// A fleet's energy from the cycles of `laws`, a compound Poisson sum:
/// its expectation and its half-width at level `alpha`.
fn cycles_kwh<'a, 'c: 'a>(
    laws: impl Iterator<Item = &'a CycleLaw<'c>> + Clone,
    households: f64,
    alpha: f64,
) -> (f64, f64) {
    let expected: f64 = laws
        .clone()
        .flat_map(|l| l.days.iter().map(|(r, e)| households * r * e))
        .sum();
    let v: f64 = laws
        .clone()
        .map(|l| households * l.days.iter().map(|d| d.0).sum::<f64>() * l.second_moment)
        .sum();
    let b = laws.map(|l| l.max_kwh).fold(0.0, f64::max);
    (expected, bernstein(v, b, alpha))
}

/// The row-sum bound of the base load's covariance (kW²): the
/// stationary variance γ₀ = σ²/(1−φ²) times the largest row sum of the
/// correlation matrix of a level held `h ≤ MAX_HOLD` minutes between
/// draws, `h·(1+φʰ)/(1−φʰ)`, which grows with `h`.
fn row_sum(mu: f64) -> f64 {
    let phi = 1.0 - THETA;
    let sigma = SIGMA_SHARE * mu;
    let h = phi.powi(MAX_HOLD);
    sigma * sigma / (1.0 - phi * phi) * f64::from(MAX_HOLD) * (1.0 + h) / (1.0 - h)
}

fn check_fleet(archetype: HouseholdArchetype) {
    let catalog = Catalog::extended();
    let range = span(SPAN_WEEKS);
    let minutes = range.duration().as_minutes() as usize;
    let days = minutes / 1440;
    let configs = fleet(archetype, HOUSEHOLDS, 0);
    let specs = configs[0].resolve_appliances(&catalog);
    let laws = cycle_laws(&specs, archetype.activity_factor(), range);
    let n = HOUSEHOLDS as f64;
    let mut contract = Contract::new(format!("{archetype} fleet"), FLEET_CHECKS);
    let alpha = contract.alpha;

    let sims: Vec<_> = configs
        .iter()
        .map(|c| simulate_household(c, range))
        .collect();

    // 1 and 3: activation counts, zero-activation days, intensities.
    let (mut intensity_sum, mut spread_sum, mut cycles) = (0.0, 0.0, 0usize);
    for law in &laws {
        let mut per_day = vec![0u32; sims.len() * days];
        for (h, sim) in sims.iter().enumerate() {
            for a in sim
                .activations
                .iter()
                .filter(|a| a.appliance == law.spec.name)
            {
                let day = (a.start - range.start()).as_minutes() / 1440;
                per_day[h * days + day as usize] += 1;
                intensity_sum += a.intensity;
                spread_sum += (a.intensity - 0.5) * (a.intensity - 0.5);
                cycles += 1;
            }
        }
        let count: u32 = per_day.iter().sum();
        let rate = n * law.days.iter().map(|d| d.0).sum::<f64>();
        let name = &law.spec.name;
        contract.check(
            &format!("{name}: activations"),
            f64::from(count),
            rate,
            bernstein(rate, 1.0, alpha),
        );
        let zero_days = per_day
            .chunks(days)
            .flat_map(|h| h.iter().zip(&law.days))
            .filter(|(&k, _)| k == 0)
            .count();
        let p0: Vec<f64> = law.days.iter().map(|d| (-d.0).exp()).collect();
        let expected = n * p0.iter().sum::<f64>();
        let v = n * p0.iter().map(|p| p * (1.0 - p)).sum::<f64>();
        contract.check(
            &format!("{name}: days without one"),
            zero_days as f64,
            expected,
            bernstein(v, 1.0, alpha),
        );
    }
    let var_i = intensity_variance(INTENSITY_SD);
    let k = cycles as f64;
    contract.check(
        "cycle intensity: mean",
        intensity_sum / k,
        0.5,
        bernstein(k * var_i, 0.5, alpha) / k,
    );
    // (I − ½)² lies in [0, ¼], so its variance is at most ¼·var_i.
    contract.check(
        "cycle intensity: spread E[(I − ½)²]",
        spread_sum / k,
        var_i,
        bernstein(k * var_i / 4.0, 0.25, alpha) / k,
    );

    // 2: daily energy mean, background and cycles each at half the
    // level.
    let noise_level = configs[0].noise_level;
    let total: f64 = sims.iter().map(|s| s.series.total_energy()).sum();
    let household_days = n * days as f64;
    let background = |alpha| background_kwh(archetype, &specs, noise_level, n, minutes, alpha);
    let (rest, rest_hw) = background(alpha / 2.0);
    let (cyc, cyc_hw) = cycles_kwh(laws.iter(), n, alpha / 2.0);
    contract.check(
        "daily energy (kWh)",
        total / household_days,
        (rest + cyc) / household_days,
        (rest_hw + cyc_hw) / household_days,
    );

    // 5: flexible share F/(F + R), which rises with the shiftable
    // cycles' energy F and falls with the rest R. The two are
    // independent draws, bounded at half the level each (R's background
    // and cycles at a quarter).
    let shiftable = |l: &&CycleLaw| l.spec.shiftability.is_shiftable();
    let (f, f_hw) = cycles_kwh(laws.iter().filter(shiftable), n, alpha / 2.0);
    let (rest, rest_hw) = background(alpha / 4.0);
    let (fixed, fixed_hw) = cycles_kwh(laws.iter().filter(|l| !shiftable(l)), n, alpha / 4.0);
    let (r, r_hw) = (rest + fixed, rest_hw + fixed_hw);
    let share = |f: f64, r: f64| f / (f + r);
    let flexible: f64 = sims.iter().map(|s| s.flexible_series.total_energy()).sum();
    contract.within(
        "flexible share",
        flexible / total,
        share(f, r),
        share((f - f_hw).max(0.0), r + r_hw),
        share(f + f_hw, (r - r_hw).max(0.0)),
    );

    // 4: measurement noise. Noise is drawn last, so the same household
    // without noise is the reading before noise, minute for minute. Only
    // readings at least 6 noise σ above zero are used: the noise clips
    // none of them unless a draw falls below −6σ.
    let s = noise_level * archetype.base_load_kw() / 60.0;
    let (mut sum, mut sum_sq, mut draws) = (0.0, 0.0, 0usize);
    for (cfg, sim) in configs.iter().zip(&sims).take(NOISE_TWINS as usize) {
        let (clean, _) = simulate_household_series(&cfg.clone().with_noise(0.0), range, &catalog);
        for (&y, &x) in sim.series.values().iter().zip(clean.values()) {
            if x >= 6.0 * s {
                let z = (y - x) / s;
                sum += z;
                sum_sq += z * z;
                draws += 1;
            }
        }
    }
    let (d, l) = (draws as f64, (2.0 / alpha).ln());
    contract.check("noise: mean / σ", sum / d, 0.0, (2.0 * l / d).sqrt());
    // Σz² is χ²_d; Laurent–Massart with x = ln(2/α) on each side.
    contract.within(
        "noise: std / σ",
        (sum_sq / d).sqrt(),
        1.0,
        ((d - 2.0 * (d * l).sqrt()) / d).sqrt(),
        ((d + 2.0 * (d * l).sqrt() + 2.0 * l) / d).sqrt(),
    );
    contract.finish();
}

#[test]
fn single_resident_fleet_meets_the_contract() {
    check_fleet(HouseholdArchetype::SingleResident);
}

#[test]
fn couple_fleet_meets_the_contract() {
    check_fleet(HouseholdArchetype::Couple);
}

#[test]
fn family_fleet_meets_the_contract() {
    check_fleet(HouseholdArchetype::FamilyWithChildren);
}

#[test]
fn suburban_fleet_meets_the_contract() {
    check_fleet(HouseholdArchetype::SuburbanWithEv);
}

/// Half-width at level `alpha` of a centred Gaussian quadratic form
/// `xᵀAx` whose eigenvalues (of `Σ^½ A Σ^½`) have Euclidean norm at
/// most `frobenius` and magnitude at most `op` (Laurent & Massart,
/// Ann. Stat. 2000, Lemma 1, on each side).
fn quadratic_form_half_width(frobenius: f64, op: f64, alpha: f64) -> f64 {
    let x = (2.0 / alpha).ln();
    2.0 * frobenius * x.sqrt() + 2.0 * op * x
}

#[test]
fn base_load_follows_its_ou_law() {
    let empty = Catalog::from_specs(vec![]);
    let range = span(BASE_WEEKS);
    let phi = 1.0 - THETA;
    let mut contract = Contract::new("base load", BASE_CHECKS);
    let alpha = contract.alpha;
    for archetype in HouseholdArchetype::ALL {
        let mu = archetype.base_load_kw();
        let sigma = SIGMA_SHARE * mu;
        let gamma0 = sigma * sigma / (1.0 - phi * phi);
        // Deviations from μ after the burn-in, one run per household.
        let runs: Vec<Vec<f64>> = fleet(archetype, BASE_HOUSEHOLDS, 500)
            .iter()
            .map(|cfg| {
                let (series, _) =
                    simulate_household_series(&cfg.clone().with_noise(0.0), range, &empty);
                series.values()[BURN_IN..]
                    .iter()
                    .map(|v| v * 60.0 - mu)
                    .collect()
            })
            .collect();
        let k = runs.iter().map(Vec::len).sum::<usize>() as f64;
        let rs = row_sum(mu);
        // ‖Σ^½AΣ^½‖_F ≤ √(‖Σ‖·tr Σ)·‖A‖ with ‖A‖ ≤ 1 for every form below.
        let frobenius = (rs * k * gamma0).sqrt();
        let x = (2.0 / alpha).ln();

        let sum: f64 = runs.iter().flatten().sum();
        contract.check(
            &format!("{archetype}: mean (kW)"),
            mu + sum / k,
            mu,
            (2.0 * k * rs * x).sqrt() / k,
        );
        let sum_sq: f64 = runs.iter().flatten().map(|d| d * d).sum();
        let hw = quadratic_form_half_width(frobenius, rs, alpha);
        contract.within(
            &format!("{archetype}: std (kW)"),
            (sum_sq / k).sqrt(),
            gamma0.sqrt(),
            ((k * gamma0 - hw).max(0.0) / k).sqrt(),
            ((k * gamma0 + hw) / k).sqrt(),
        );
        for lag in [5usize, 15, 60] {
            let pairs: f64 = runs
                .iter()
                .map(|r| r.iter().zip(&r[lag..]).map(|(a, b)| a * b).sum::<f64>())
                .sum();
            let kk = runs.iter().map(|r| r.len() - lag).sum::<usize>() as f64;
            contract.check(
                &format!("{archetype}: autocorrelation at {lag} min"),
                pairs / (kk * gamma0),
                phi.powi(lag as i32),
                quadratic_form_half_width(frobenius, rs, alpha) / (kk * gamma0),
            );
        }
    }
    contract.finish();
}
