//! RES-matching flex-offer scheduling (paper refs \[2\]\[5\]).
//!
//! Given flex-offers (micro or macro), the inflexible base demand, and
//! a renewable production series, the scheduler chooses each offer's
//! start time and slice energies so flexible demand lands where surplus
//! production is:
//!
//! 1. **Greedy construction** — offers in descending energy order; for
//!    each, every candidate start is evaluated against the current net
//!    load and the best (lowest squared imbalance) wins; slice energies
//!    are water-filled toward the local surplus within their bounds.
//! 2. **Stochastic hill climbing** — random (offer, new start) moves,
//!    keeping improvements, for a configured number of iterations.
//!
//! The squared-imbalance objective is the standard balance-cost proxy:
//! `Σ_t (demand_t + flex_t − production_t)²`.

use crate::AggError;
use flextract_flexoffer::{FlexOffer, FlexOfferError, ScheduledFlexOffer};
use flextract_series::{SeriesError, TimeSeries};
use flextract_time::Timestamp;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Scheduler tuning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleConfig {
    /// Hill-climbing iterations after the greedy pass.
    pub iterations: usize,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig { iterations: 500 }
    }
}

/// Balance quality of a (partial) schedule.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct BalanceReport {
    /// `Σ (net_t)²` over the horizon (lower is better).
    pub squared_imbalance: f64,
    /// Total production consumed by demand (kWh).
    pub absorbed_production_kwh: f64,
    /// Fraction of production absorbed by demand.
    pub res_utilisation: f64,
    /// Largest net-demand interval (kWh) — the "peak" the grid must
    /// cover from conventional sources.
    pub peak_net_demand_kwh: f64,
}

/// The scheduler's output.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleResult {
    /// Every offer with its chosen start and energies.
    pub scheduled: Vec<ScheduledFlexOffer>,
    /// Balance before any flexibility was scheduled (baseline starts).
    pub before: BalanceReport,
    /// Balance after scheduling.
    pub after: BalanceReport,
}

impl ScheduleResult {
    /// Relative improvement of the squared-imbalance objective.
    pub fn improvement(&self) -> f64 {
        if self.before.squared_imbalance <= 0.0 {
            0.0
        } else {
            1.0 - self.after.squared_imbalance / self.before.squared_imbalance
        }
    }
}

/// Measure the balance of `net = demand − production + flex`.
fn balance_report(net: &TimeSeries, production: &TimeSeries) -> BalanceReport {
    let mut sq = 0.0;
    let mut peak: f64 = 0.0;
    let mut absorbed = 0.0;
    for (t, n) in net.iter() {
        sq += n * n;
        peak = peak.max(n);
        if let Some(p) = production.value_at(t) {
            // Production used = production − spilled (net < 0 means spill).
            absorbed += p - (-n).max(0.0).min(p);
        }
    }
    let total_prod = production.total_energy();
    BalanceReport {
        squared_imbalance: sq,
        absorbed_production_kwh: absorbed,
        res_utilisation: if total_prod > 0.0 {
            absorbed / total_prod
        } else {
            0.0
        },
        peak_net_demand_kwh: peak,
    }
}

/// The index in `net` of an offer's first slice when it starts at
/// `start`; slice `k` lands on index `first + k`, which may lie outside
/// `net`. The offer must be on `net`'s resolution and `start` on its
/// grid; otherwise this is the error `TimeSeries::add_overlapping`
/// gives for the offer's series.
fn first_slot(net: &TimeSeries, offer: &FlexOffer, start: Timestamp) -> Result<i64, AggError> {
    let res = offer.profile().resolution();
    if res != net.resolution() {
        return Err(SeriesError::ResolutionMismatch {
            left: net.resolution(),
            right: res,
        }
        .into());
    }
    let minutes = (start - net.start()).as_minutes();
    if minutes % res.minutes() != 0 {
        return Err(SeriesError::AlignmentMismatch.into());
    }
    Ok(minutes / res.minutes())
}

/// The value at index `i` of `net`, if `i` lies inside it — what
/// `value_at` returns for the instant of that index.
fn slot(net: &[f64], i: i64) -> Option<f64> {
    usize::try_from(i).ok().and_then(|i| net.get(i).copied())
}

/// Add `sign × e` for each slice energy `e` of `offer` started at
/// `start` into `net`, dropping slices outside it, as
/// `add_overlapping` of the schedule's series scaled by `sign` does.
fn apply(
    net: &mut TimeSeries,
    offer: &FlexOffer,
    start: Timestamp,
    energies: impl IntoIterator<Item = f64>,
    sign: f64,
) -> Result<(), AggError> {
    let first = first_slot(net, offer, start)?;
    let values = net.values_mut();
    for (k, e) in energies.into_iter().enumerate() {
        if let Some(n) = usize::try_from(first + k as i64)
            .ok()
            .and_then(|i| values.get_mut(i))
        {
            *n += e * sign;
        }
    }
    Ok(())
}

/// Pick slice energies that chase the local deficit (−net): each slice
/// takes its maximum when production exceeds demand there, its minimum
/// otherwise, linearly in between. `out` is cleared first.
fn waterfill_energies(offer: &FlexOffer, net: &[f64], first: i64, out: &mut Vec<f64>) {
    out.clear();
    out.extend(offer.profile().slices().iter().enumerate().map(|(k, s)| {
        match slot(net, first + k as i64) {
            // Surplus available: absorb as much as fits.
            Some(n) if n < 0.0 => s.clamp(-n),
            _ => s.min,
        }
    }));
}

/// Squared-imbalance delta of placing `energies` at slot `first` into
/// the current net.
fn placement_cost(net: &[f64], first: i64, energies: &[f64]) -> f64 {
    let mut delta = 0.0;
    for (k, &e) in energies.iter().enumerate() {
        if let Some(n) = slot(net, first + k as i64) {
            delta += (n + e) * (n + e) - n * n;
        } else {
            // Outside the horizon: count the energy as pure imbalance
            // so the scheduler prefers in-horizon placements.
            delta += e * e;
        }
    }
    delta
}

/// Schedule `offers` against `production`, with `base_demand` as the
/// inflexible background load (the extraction's *modified* series).
///
/// Every offer must be on `base_demand`'s resolution and grid; an offer
/// that is not gives [`AggError::Series`].
///
/// Allocations per call do not grow with the candidate starts or the
/// climbing moves: two horizon-length working series, the greedy
/// order, two slice buffers, and per offer its chosen energies and the
/// [`ScheduledFlexOffer`] built for it at the end. Each candidate start
/// is scored straight from the working series and vetted with
/// [`ScheduledFlexOffer::check`].
pub fn schedule_offers(
    offers: &[FlexOffer],
    base_demand: &TimeSeries,
    production: &TimeSeries,
    config: &ScheduleConfig,
    rng: &mut StdRng,
) -> Result<ScheduleResult, AggError> {
    if offers.is_empty() {
        return Err(AggError::NoOffers);
    }
    if production.range().intersect(base_demand.range()).is_none() {
        return Err(AggError::DisjointProduction);
    }

    // net = demand − production, extended over the full horizon.
    let mut net = base_demand.clone();
    net.sub_overlapping(production)?;

    // Baseline: every offer at its earliest start with minimum energy.
    let mut baseline_net = net.clone();
    for offer in offers {
        let minimums = offer.profile().slices().iter().map(|s| s.min);
        apply(
            &mut baseline_net,
            offer,
            offer.earliest_start(),
            minimums,
            1.0,
        )?;
    }
    let before = balance_report(&baseline_net, production);

    // Greedy pass, big offers first. `placed[i]` is offer i's start and
    // slice energies.
    let mut order: Vec<usize> = (0..offers.len()).collect();
    order.sort_by(|&a, &b| {
        let ea = offers[a].total_energy().max;
        let eb = offers[b].total_energy().max;
        eb.partial_cmp(&ea).expect("energies are finite")
    });
    let mut placed: Vec<(Timestamp, Vec<f64>)> = offers
        .iter()
        .map(|o| (o.earliest_start(), Vec::new()))
        .collect();
    let (mut cand, mut best) = (Vec::new(), Vec::new());
    for &i in &order {
        let offer = &offers[i];
        let mut best_at: Option<(f64, Timestamp)> = None;
        for c in 0..offer.candidate_start_count() {
            let start = offer.candidate_start(c);
            let first = first_slot(&net, offer, start)?;
            waterfill_energies(offer, net.values(), first, &mut cand);
            ScheduledFlexOffer::check(offer, start, &cand)?;
            let cost = placement_cost(net.values(), first, &cand);
            if best_at.is_none_or(|(b, _)| cost < b) {
                best_at = Some((cost, start));
                std::mem::swap(&mut cand, &mut best);
            }
        }
        let (_, start) = best_at.ok_or(FlexOfferError::InvertedStartWindow)?;
        apply(&mut net, offer, start, best.iter().copied(), 1.0)?;
        placed[i] = (start, best.clone());
    }

    // Hill climbing: move one offer to a random admissible start.
    for _ in 0..config.iterations {
        let i = rng.gen_range(0..offers.len());
        let offer = &offers[i];
        let count = offer.candidate_start_count();
        if count <= 1 {
            continue;
        }
        let new_start = offer.candidate_start(rng.gen_range(0..count));
        let (old_start, old) = &mut placed[i];
        if new_start == *old_start {
            continue;
        }
        // Remove, re-waterfill at the new start, compare.
        apply(&mut net, offer, *old_start, old.iter().copied(), -1.0)?;
        let old_first = first_slot(&net, offer, *old_start)?;
        let old_cost = placement_cost(net.values(), old_first, old);
        let new_first = first_slot(&net, offer, new_start)?;
        waterfill_energies(offer, net.values(), new_first, &mut cand);
        ScheduledFlexOffer::check(offer, new_start, &cand)?;
        let new_cost = placement_cost(net.values(), new_first, &cand);
        if new_cost < old_cost {
            *old_start = new_start;
            std::mem::swap(old, &mut cand);
        }
        apply(&mut net, offer, *old_start, old.iter().copied(), 1.0)?;
    }

    let after = balance_report(&net, production);
    let scheduled = offers
        .iter()
        .zip(placed)
        .map(|(offer, (start, energies))| ScheduledFlexOffer::new(offer.clone(), start, energies))
        .collect::<Result<_, _>>()?;
    Ok(ScheduleResult {
        scheduled,
        before,
        after,
    })
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use flextract_flexoffer::EnergyRange;
    use flextract_time::{Resolution, Timestamp};
    use rand::SeedableRng;

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    /// A day horizon with flat demand and a production hump 12:00-18:00.
    fn world() -> (TimeSeries, TimeSeries) {
        let demand = TimeSeries::constant(ts("2013-03-18"), Resolution::MIN_15, 0.5, 96);
        let mut prod = vec![0.0; 96];
        for v in prod.iter_mut().skip(48).take(24) {
            *v = 2.0;
        }
        let production = TimeSeries::new(ts("2013-03-18"), Resolution::MIN_15, prod).unwrap();
        (demand, production)
    }

    fn movable_offer(id: u64) -> FlexOffer {
        // 1-hour offer startable anywhere 00:00-22:00.
        FlexOffer::builder(id)
            .start_window(ts("2013-03-18 00:00"), ts("2013-03-18 22:00"))
            .slices(
                Resolution::MIN_15,
                vec![EnergyRange::new(0.5, 1.5).unwrap(); 4],
            )
            .build()
            .unwrap()
    }

    #[test]
    fn scheduler_moves_offers_into_the_surplus() {
        let (demand, production) = world();
        let offers: Vec<FlexOffer> = (1..=5).map(movable_offer).collect();
        let result = schedule_offers(
            &offers,
            &demand,
            &production,
            &ScheduleConfig::default(),
            &mut StdRng::seed_from_u64(1),
        )
        .unwrap();
        // Imbalance improves versus the baseline.
        assert!(
            result.after.squared_imbalance < result.before.squared_imbalance,
            "after {} vs before {}",
            result.after.squared_imbalance,
            result.before.squared_imbalance
        );
        assert!(result.improvement() > 0.2, "{}", result.improvement());
        // Every scheduled start is inside the production hump's reach.
        for s in &result.scheduled {
            let h = s.start().time().hour;
            assert!((11..=18).contains(&h), "offer parked at {h}h");
        }
        // RES utilisation went up.
        assert!(result.after.res_utilisation >= result.before.res_utilisation);
    }

    #[test]
    fn energies_waterfill_toward_surplus() {
        let (demand, production) = world();
        let offers = vec![movable_offer(1)];
        let result = schedule_offers(
            &offers,
            &demand,
            &production,
            &ScheduleConfig { iterations: 0 },
            &mut StdRng::seed_from_u64(2),
        )
        .unwrap();
        // Inside the hump the surplus is 1.5 kWh/interval; the slice max
        // (1.5) absorbs as much as fits.
        let s = &result.scheduled[0];
        assert!(s.energies().iter().all(|&e| e > 0.5), "{:?}", s.energies());
    }

    #[test]
    fn schedules_respect_offer_validation() {
        let (demand, production) = world();
        let offers: Vec<FlexOffer> = (1..=3).map(movable_offer).collect();
        let result = schedule_offers(
            &offers,
            &demand,
            &production,
            &ScheduleConfig::default(),
            &mut StdRng::seed_from_u64(3),
        )
        .unwrap();
        for s in &result.scheduled {
            assert!(s.start() >= s.offer().earliest_start());
            assert!(s.start() <= s.offer().latest_start());
            for (e, b) in s.energies().iter().zip(s.offer().profile().slices()) {
                assert!(b.contains(*e));
            }
        }
    }

    #[test]
    fn hill_climbing_never_worsens() {
        let (demand, production) = world();
        let offers: Vec<FlexOffer> = (1..=4).map(movable_offer).collect();
        let greedy_only = schedule_offers(
            &offers,
            &demand,
            &production,
            &ScheduleConfig { iterations: 0 },
            &mut StdRng::seed_from_u64(4),
        )
        .unwrap();
        let with_climb = schedule_offers(
            &offers,
            &demand,
            &production,
            &ScheduleConfig { iterations: 2000 },
            &mut StdRng::seed_from_u64(4),
        )
        .unwrap();
        assert!(with_climb.after.squared_imbalance <= greedy_only.after.squared_imbalance + 1e-9);
    }

    #[test]
    fn empty_offers_error() {
        let (demand, production) = world();
        assert_eq!(
            schedule_offers(
                &[],
                &demand,
                &production,
                &ScheduleConfig::default(),
                &mut StdRng::seed_from_u64(1)
            ),
            Err(AggError::NoOffers)
        );
    }

    #[test]
    fn disjoint_production_errors() {
        let (demand, _) = world();
        let far_production = TimeSeries::constant(ts("2014-01-01"), Resolution::MIN_15, 1.0, 96);
        assert_eq!(
            schedule_offers(
                &[movable_offer(1)],
                &demand,
                &far_production,
                &ScheduleConfig::default(),
                &mut StdRng::seed_from_u64(1)
            ),
            Err(AggError::DisjointProduction)
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let (demand, production) = world();
        let offers: Vec<FlexOffer> = (1..=3).map(movable_offer).collect();
        let a = schedule_offers(
            &offers,
            &demand,
            &production,
            &ScheduleConfig::default(),
            &mut StdRng::seed_from_u64(7),
        )
        .unwrap();
        let b = schedule_offers(
            &offers,
            &demand,
            &production,
            &ScheduleConfig::default(),
            &mut StdRng::seed_from_u64(7),
        )
        .unwrap();
        assert_eq!(a.scheduled, b.scheduled);
    }

    #[test]
    fn fixed_offers_cannot_move_but_still_schedule() {
        let (demand, production) = world();
        let fixed = FlexOffer::builder(1)
            .start_window(ts("2013-03-18 03:00"), ts("2013-03-18 03:00"))
            .slices(
                Resolution::MIN_15,
                vec![EnergyRange::new(0.5, 0.6).unwrap(); 4],
            )
            .build()
            .unwrap();
        let result = schedule_offers(
            &[fixed],
            &demand,
            &production,
            &ScheduleConfig::default(),
            &mut StdRng::seed_from_u64(8),
        )
        .unwrap();
        assert_eq!(result.scheduled[0].start(), ts("2013-03-18 03:00"));
    }

    #[test]
    fn offers_off_the_demand_resolution_are_a_series_error() {
        // An hourly horizon against 15-min offers.
        let demand = TimeSeries::constant(ts("2013-03-18"), Resolution::HOUR_1, 0.5, 24);
        let production = TimeSeries::constant(ts("2013-03-18"), Resolution::HOUR_1, 1.0, 24);
        assert_eq!(
            schedule_offers(
                &[movable_offer(1)],
                &demand,
                &production,
                &ScheduleConfig::default(),
                &mut StdRng::seed_from_u64(1)
            ),
            Err(AggError::Series(SeriesError::ResolutionMismatch {
                left: Resolution::HOUR_1,
                right: Resolution::MIN_15,
            }))
        );
    }

    #[test]
    fn an_offer_off_the_demand_grid_is_a_series_error() {
        // The builder refuses an unaligned start, a deserialised offer
        // does not: move the window 7 minutes off the 15-min grid.
        let json = serde_json::to_string(&movable_offer(1)).unwrap();
        let earliest = serde_json::to_string(&ts("2013-03-18 00:00")).unwrap();
        let unaligned = serde_json::to_string(&ts("2013-03-18 00:07")).unwrap();
        assert!(json.contains(&earliest), "{json}");
        let offer: FlexOffer = serde_json::from_str(&json.replace(&earliest, &unaligned)).unwrap();
        assert_eq!(offer.earliest_start(), ts("2013-03-18 00:07"));
        let (demand, production) = world();
        assert_eq!(
            schedule_offers(
                &[offer],
                &demand,
                &production,
                &ScheduleConfig::default(),
                &mut StdRng::seed_from_u64(1)
            ),
            Err(AggError::Series(SeriesError::AlignmentMismatch))
        );
    }

    /// `fleet_extract`-shaped inputs: a week of `households` simulated
    /// households at 15 min, peak-extracted, their modified series
    /// summed, against wind sized to 30 % of the mean load. Returns the
    /// micro offers, their aggregates, the demand and the production.
    fn fleet(
        seed: u64,
        households: usize,
    ) -> (Vec<FlexOffer>, Vec<FlexOffer>, TimeSeries, TimeSeries) {
        use flextract_core::{
            ExtractionConfig, ExtractionInput, FlexibilityExtractor, PeakExtractor,
        };
        use flextract_sim::{
            simulate_household, simulate_wind_production, FleetConfig, HouseholdArchetype,
            WindFarmConfig,
        };
        use flextract_time::{Duration, TimeRange};

        let week = TimeRange::starting_at(ts("2013-03-18"), Duration::weeks(1)).unwrap();
        let configs = FleetConfig {
            households,
            base_seed: seed,
            archetype_mix: vec![
                (HouseholdArchetype::SingleResident, 0.25),
                (HouseholdArchetype::Couple, 0.35),
                (HouseholdArchetype::FamilyWithChildren, 0.25),
                (HouseholdArchetype::SuburbanWithEv, 0.15),
            ],
            tariff_response: None,
            threads: 1,
        }
        .household_configs();
        let extractor = PeakExtractor::new(ExtractionConfig::default());
        let mut offers = Vec::new();
        let mut demand: Option<TimeSeries> = None;
        let mut total_kwh = 0.0;
        for (i, cfg) in configs.iter().enumerate() {
            let market = simulate_household(cfg, week).series_at(Resolution::MIN_15);
            total_kwh += market.total_energy();
            let out = extractor
                .extract(
                    &ExtractionInput::household(&market),
                    &mut StdRng::seed_from_u64(seed ^ (i as u64) << 8),
                )
                .unwrap();
            match &mut demand {
                None => demand = Some(out.modified_series),
                Some(d) => d.add_assign(&out.modified_series).unwrap(),
            }
            offers.extend(out.flex_offers);
        }
        let aggregates = crate::aggregate_offers(&offers, &crate::AggregationConfig::default())
            .unwrap()
            .into_iter()
            .map(|a| a.offer)
            .collect();
        let farm = WindFarmConfig {
            capacity_kw: 0.3 * total_kwh / week.duration().as_hours_f64(),
            seed: seed ^ 0xCAFE,
            ..WindFarmConfig::default()
        };
        let production = simulate_wind_production(&farm, week, Resolution::MIN_15);
        (offers, aggregates, demand.unwrap(), production)
    }

    /// Run the scheduler and its oracle from the same generator state;
    /// both results and both generators must agree to the bit.
    fn assert_matches_oracle(
        offers: &[FlexOffer],
        demand: &TimeSeries,
        production: &TimeSeries,
        config: &ScheduleConfig,
        seed: u64,
        what: &str,
    ) {
        let (mut rng, mut oracle_rng) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
        let got = schedule_offers(offers, demand, production, config, &mut rng).unwrap();
        let want =
            oracle::schedule_offers(offers, demand, production, config, &mut oracle_rng).unwrap();
        assert_eq!(got, want, "{what}");
        // Debug prints each f64 in full, so -0.0 and 0.0 differ here.
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
        assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>(), "{what}");
    }

    #[test]
    fn schedule_matches_the_oracle_on_fleet_inputs() {
        for seed in [1, 7, 29] {
            let (micro, aggregates, demand, production) = fleet(seed, 24);
            assert!(aggregates.len() > 1 && micro.len() > aggregates.len());
            for (offers, kind) in [(&aggregates, "aggregates"), (&micro, "micro offers")] {
                for iterations in [0, 500, 3000] {
                    assert_matches_oracle(
                        offers,
                        &demand,
                        &production,
                        &ScheduleConfig { iterations },
                        seed ^ 0xBEEF,
                        &format!("seed {seed}, {kind}, {iterations} iterations"),
                    );
                }
            }
        }
    }

    #[test]
    fn schedule_matches_the_oracle_on_a_toy_day() {
        let (demand, production) = world();
        for n in 1..=6 {
            let offers: Vec<FlexOffer> = (1..=n).map(movable_offer).collect();
            for seed in 0..4 {
                assert_matches_oracle(
                    &offers,
                    &demand,
                    &production,
                    &ScheduleConfig::default(),
                    seed,
                    &format!("{n} offers, seed {seed}"),
                );
            }
        }
        // Offers that overhang the horizon at both ends.
        let overhang = FlexOffer::builder(9)
            .start_window(ts("2013-03-17 23:00"), ts("2013-03-18 23:30"))
            .slices(
                Resolution::MIN_15,
                vec![EnergyRange::new(0.2, 1.1).unwrap(); 6],
            )
            .build()
            .unwrap();
        assert_matches_oracle(
            &[overhang, movable_offer(1)],
            &demand,
            &production,
            &ScheduleConfig::default(),
            3,
            "overhanging offer",
        );
    }
}
