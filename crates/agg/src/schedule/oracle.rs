//! The scheduler as it was before it reused its buffers: every
//! candidate start built a `ScheduledFlexOffer`, every apply built two
//! temporary series, and every climbing move listed the candidate
//! starts. Kept for the differential tests, which hold
//! [`super::schedule_offers`] to it result for result.

use super::{balance_report, ScheduleConfig, ScheduleResult};
use crate::AggError;
use flextract_flexoffer::{FlexOffer, ScheduledFlexOffer};
use flextract_series::TimeSeries;
use rand::rngs::StdRng;
use rand::Rng;

/// Add a schedule's energy into `net`.
fn apply(net: &mut TimeSeries, sched: &ScheduledFlexOffer, sign: f64) {
    let series = sched.to_series().scale(sign);
    net.add_overlapping(&series)
        .expect("schedules share the market resolution grid");
}

/// Pick slice energies that chase the local deficit (−net).
fn waterfill_energies(
    offer: &FlexOffer,
    start: flextract_time::Timestamp,
    net: &TimeSeries,
) -> Vec<f64> {
    let res = offer.profile().resolution();
    offer
        .profile()
        .slices()
        .iter()
        .enumerate()
        .map(|(k, s)| {
            let t = start + res.interval() * k as i64;
            match net.value_at(t) {
                Some(n) if n < 0.0 => s.clamp(-n),
                _ => s.min,
            }
        })
        .collect()
}

/// Squared-imbalance delta of placing `sched` into the current net.
fn placement_cost(net: &TimeSeries, sched: &ScheduledFlexOffer) -> f64 {
    let series = sched.to_series();
    let mut delta = 0.0;
    for (t, e) in series.iter() {
        if let Some(n) = net.value_at(t) {
            delta += (n + e) * (n + e) - n * n;
        } else {
            delta += e * e;
        }
    }
    delta
}

/// The old `schedule_offers`.
pub(crate) fn schedule_offers(
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

    let mut net = base_demand.clone();
    net.sub_overlapping(production)?;

    let mut baseline_net = net.clone();
    for offer in offers {
        apply(
            &mut baseline_net,
            &ScheduledFlexOffer::baseline(offer.clone()),
            1.0,
        );
    }
    let before = balance_report(&baseline_net, production);

    let mut order: Vec<usize> = (0..offers.len()).collect();
    order.sort_by(|&a, &b| {
        let ea = offers[a].total_energy().max;
        let eb = offers[b].total_energy().max;
        eb.partial_cmp(&ea).expect("energies are finite")
    });
    let mut scheduled: Vec<Option<ScheduledFlexOffer>> = vec![None; offers.len()];
    for &i in &order {
        let offer = &offers[i];
        let mut best: Option<(f64, ScheduledFlexOffer)> = None;
        for start in offer.candidate_starts() {
            let energies = waterfill_energies(offer, start, &net);
            let cand = ScheduledFlexOffer::new(offer.clone(), start, energies)?;
            let cost = placement_cost(&net, &cand);
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, cand));
            }
        }
        let (_, chosen) = best.expect("candidate_starts is never empty");
        apply(&mut net, &chosen, 1.0);
        scheduled[i] = Some(chosen);
    }
    let mut scheduled: Vec<ScheduledFlexOffer> = scheduled
        .into_iter()
        .map(|s| s.expect("all offers scheduled"))
        .collect();

    for _ in 0..config.iterations {
        let i = rng.gen_range(0..scheduled.len());
        let starts = scheduled[i].offer().candidate_starts();
        if starts.len() <= 1 {
            continue;
        }
        let new_start = starts[rng.gen_range(0..starts.len())];
        if new_start == scheduled[i].start() {
            continue;
        }
        apply(&mut net, &scheduled[i], -1.0);
        let old = scheduled[i].clone();
        let old_cost = placement_cost(&net, &old);
        let energies = waterfill_energies(scheduled[i].offer(), new_start, &net);
        let cand = ScheduledFlexOffer::new(scheduled[i].offer().clone(), new_start, energies)?;
        let new_cost = placement_cost(&net, &cand);
        let keep = if new_cost < old_cost { cand } else { old };
        apply(&mut net, &keep, 1.0);
        scheduled[i] = keep;
    }

    let after = balance_report(&net, production);
    Ok(ScheduleResult {
        scheduled,
        before,
        after,
    })
}
