//! Real-time flex-offer generation — the paper's §6 extension,
//! implemented: "the appliance level extraction approaches can be
//! easily extended to the real-time flex-offer generators, which detect
//! flexibilities and formulate flex-offers based on the usual appliance
//! usage or the given (mined) schedule of the household."
//!
//! [`RealTimeGenerator`] is trained offline (step 1: detection +
//! schedule mining over history) and then consumes live 1-minute
//! readings one at a time. It is strictly **causal**: an offer is
//! emitted the moment a cycle *start* is recognised — from the rising
//! power edge matching an appliance's initial phase, gated by the mined
//! schedule — without seeing the rest of the cycle. The profile
//! therefore carries the catalog's full `[min, max]` envelope rather
//! than a fitted intensity.

use crate::{ExtractionConfig, ExtractionError};
use flextract_appliance::{ApplianceSpec, Catalog};
use flextract_disagg::{detect_activations, MatchConfig, MinedSchedule};
use flextract_flexoffer::{EnergyRange, FlexOffer};
use flextract_series::segment::split_whole_days;
use flextract_series::{stats, TimeSeries};
use flextract_time::{Duration, Resolution, Timestamp};

/// Online flex-offer generator (one household).
#[derive(Debug, Clone)]
pub struct RealTimeGenerator {
    cfg: ExtractionConfig,
    catalog: Catalog,
    schedules: Vec<MinedSchedule>,
    /// Minimum mined rate for the current hour before an edge is
    /// trusted (0 disables schedule gating — pure frequency mode).
    min_slot_rate: f64,
    /// Rolling window of recent power readings (kW), newest last.
    window_kw: Vec<f64>,
    window_len: usize,
    /// Last reading instant (readings must arrive minute-by-minute).
    cursor: Option<Timestamp>,
    /// Per-appliance cooldown: no re-trigger until this instant.
    cooldowns: Vec<(String, Timestamp)>,
    next_id: u64,
}

impl RealTimeGenerator {
    /// Assemble a generator from already-mined schedules.
    pub fn new(
        catalog: Catalog,
        schedules: Vec<MinedSchedule>,
        cfg: ExtractionConfig,
    ) -> Result<Self, ExtractionError> {
        cfg.validate()?;
        Ok(RealTimeGenerator {
            cfg,
            catalog,
            schedules,
            min_slot_rate: 0.2,
            window_kw: Vec::with_capacity(240),
            window_len: 240,
            cursor: None,
            cooldowns: Vec::new(),
            next_id: 1,
        })
    }

    /// Train from 1-minute history: run detection and schedule mining
    /// (the offline "step 1"), then build the online generator.
    pub fn train(
        catalog: Catalog,
        history: &TimeSeries,
        cfg: ExtractionConfig,
    ) -> Result<Self, ExtractionError> {
        if history.is_empty() {
            return Err(ExtractionError::EmptySeries);
        }
        let shiftable = catalog.shiftable();
        let (detections, _) = detect_activations(history, &shiftable, &MatchConfig::default());
        let days = split_whole_days(history);
        let workdays = days
            .iter()
            .filter(|d| !d.start().day_of_week().is_weekend())
            .count() as f64;
        let weekend_days = days.len() as f64 - workdays;
        let schedules = MinedSchedule::mine_all(&detections, workdays, weekend_days, 60);
        Self::new(catalog, schedules, cfg)
    }

    /// The mined schedules backing the generator.
    pub fn schedules(&self) -> &[MinedSchedule] {
        &self.schedules
    }

    /// Feed one 1-minute reading; returns any flex-offers emitted at
    /// this instant (usually none, occasionally one).
    ///
    /// Readings must be contiguous minutes; a gap resets the rolling
    /// window (conservative: no emission across gaps).
    pub fn push(&mut self, t: Timestamp, kwh_per_min: f64) -> Vec<FlexOffer> {
        let kw = kwh_per_min * 60.0;
        match self.cursor {
            Some(prev) if t - prev == Duration::minutes(1) => {}
            Some(_) | None => self.window_kw.clear(),
        }
        self.cursor = Some(t);
        self.window_kw.push(kw);
        if self.window_kw.len() > self.window_len {
            self.window_kw.remove(0);
        }
        if self.window_kw.len() < 2 {
            return Vec::new();
        }

        // Rising edge over the local pre-edge baseline.
        let n = self.window_kw.len();
        let baseline_window = &self.window_kw[..n - 1];
        let baseline = stats::median(&baseline_window[baseline_window.len().saturating_sub(30)..])
            .unwrap_or(0.0);
        let delta = kw - self.window_kw[n - 2];
        let above_base = kw - baseline;

        // One edge, one hypothesis: among the appliances whose initial
        // phase is power-compatible (and not cooling down, and allowed
        // by their mined schedule), the closest initial-power match
        // wins — a single offer per recognised cycle start.
        let shiftable: Vec<ApplianceSpec> = self.catalog.shiftable().into_iter().cloned().collect();
        let mut best: Option<(f64, &ApplianceSpec)> = None;
        for spec in &shiftable {
            let initial_min = spec.profile.power_curve_kw(0.0)[0];
            let initial_max = spec.profile.power_curve_kw(1.0)[0];
            // The step must plausibly be this appliance switching on.
            if delta < 0.6 * initial_min || above_base > 1.6 * initial_max {
                continue;
            }
            if above_base < 0.7 * initial_min || above_base > 1.4 * initial_max {
                continue;
            }
            if self.on_cooldown(&spec.name, t) {
                continue;
            }
            if !self.schedule_allows(&spec.name, t) {
                continue;
            }
            let mid = 0.5 * (initial_min + initial_max);
            let distance = (above_base - mid).abs() / mid.max(1e-9);
            if best.as_ref().is_none_or(|(d, _)| distance < *d) {
                best = Some((distance, spec));
            }
        }
        let mut emitted = Vec::new();
        if let Some((_, spec)) = best {
            if let Some(offer) = self.formulate(spec, t) {
                self.cooldowns.retain(|(name, _)| name != &spec.name);
                self.cooldowns
                    .push((spec.name.clone(), t + spec.profile.duration()));
                emitted.push(offer);
            }
        }
        emitted
    }

    fn on_cooldown(&self, name: &str, t: Timestamp) -> bool {
        self.cooldowns
            .iter()
            .any(|(n, until)| n == name && t < *until)
    }

    fn schedule_allows(&self, name: &str, t: Timestamp) -> bool {
        if self.min_slot_rate <= 0.0 {
            return true;
        }
        let Some(schedule) = self.schedules.iter().find(|s| s.appliance == name) else {
            // Never observed in the training history: with gating on,
            // a real-time emission would be unfounded.
            return false;
        };
        let kind_idx = usize::from(t.day_of_week().is_weekend());
        let bin = (t.minute_of_day() / schedule.bin_minutes) as usize;
        schedule.histograms[kind_idx]
            .get(bin)
            .is_some_and(|&rate| rate >= self.min_slot_rate)
    }

    /// Formulate the offer for a just-started cycle: catalog envelope
    /// profile, window `[now, now + max_delay]`, immediate lifecycle.
    fn formulate(&mut self, spec: &ApplianceSpec, t: Timestamp) -> Option<FlexOffer> {
        let res = self.cfg.slice_resolution;
        let earliest = t.floor_to(res);
        let slice_min = res.minutes() as usize;
        let min_curve = spec.profile.power_curve_kw(0.0);
        let max_curve = spec.profile.power_curve_kw(1.0);
        let slices: Vec<EnergyRange> = min_curve
            .chunks(slice_min)
            .zip(max_curve.chunks(slice_min))
            .map(|(lo, hi)| {
                let e_lo: f64 = lo.iter().map(|kw| kw / 60.0).sum();
                let e_hi: f64 = hi.iter().map(|kw| kw / 60.0).sum();
                EnergyRange::new(e_lo, e_hi).expect("envelope bounds are ordered")
            })
            .collect();
        let flexibility = Duration::minutes(
            (spec.shiftability.max_delay().as_minutes() / res.minutes()) * res.minutes(),
        );
        // Real-time lifecycle: created *now*, decisions due before the
        // cycle would naturally be underway.
        let offer = FlexOffer::builder(self.next_id)
            .start_window(earliest, earliest + flexibility)
            .slices(res, slices)
            .created_at(earliest)
            .acceptance_by(earliest)
            .assignment_by(earliest)
            .build()
            .ok()?;
        self.next_id += 1;
        Some(offer)
    }
}

/// Resolution the generator expects readings at (1 minute).
pub const READING_RESOLUTION: Resolution = Resolution::MIN_1;

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;
    use flextract_time::TimeRange;

    /// History: 14 days, washer at 19:00 daily over a 0.1 kW base.
    fn history() -> TimeSeries {
        let cat = Catalog::extended();
        let start: Timestamp = "2013-03-04".parse().unwrap();
        let range = TimeRange::starting_at(start, Duration::weeks(2)).unwrap();
        let mut fine = TimeSeries::zeros_over(range, Resolution::MIN_1).unwrap();
        for v in fine.values_mut() {
            *v = 0.1 / 60.0;
        }
        let washer = cat
            .find_by_name("Washing Machine from Manufacturer Y")
            .unwrap();
        for d in 0..14 {
            let at = start + Duration::days(d) + Duration::hours(19);
            fine.add_overlapping(&washer.profile.to_energy_series(at, 0.5))
                .unwrap();
        }
        fine
    }

    fn generator() -> RealTimeGenerator {
        RealTimeGenerator::train(Catalog::extended(), &history(), ExtractionConfig::default())
            .unwrap()
    }

    /// A generator with the schedule gate off: it emits on any
    /// matching edge.
    fn ungated_generator() -> RealTimeGenerator {
        let mut gen = generator();
        gen.min_slot_rate = 0.0;
        gen
    }

    /// Feed a live day containing one washer start at `cycle_at` and
    /// collect emissions.
    fn feed_day(gen: &mut RealTimeGenerator, cycle_at: Timestamp) -> Vec<FlexOffer> {
        let cat = Catalog::extended();
        let washer = cat
            .find_by_name("Washing Machine from Manufacturer Y")
            .unwrap();
        let day_start = cycle_at.start_of_day();
        let range = TimeRange::starting_at(day_start, Duration::days(1)).unwrap();
        let mut live = TimeSeries::zeros_over(range, Resolution::MIN_1).unwrap();
        for v in live.values_mut() {
            *v = 0.1 / 60.0;
        }
        live.add_overlapping(&washer.profile.to_energy_series(cycle_at, 0.5))
            .unwrap();
        let mut out = Vec::new();
        for (t, v) in live.iter() {
            out.extend(gen.push(t, v));
        }
        out
    }

    #[test]
    fn training_mines_the_evening_slot() {
        let gen = generator();
        let washer = gen
            .schedules()
            .iter()
            .find(|s| s.appliance.contains("Washing Machine"))
            .expect("washer schedule mined");
        // Hot bin at hour 19 on workdays.
        assert!(
            washer.histograms[0][19] > 0.5,
            "{:?}",
            &washer.histograms[0][18..21]
        );
    }

    #[test]
    fn emits_one_offer_at_the_scheduled_cycle_start() {
        let mut gen = generator();
        let at: Timestamp = "2013-03-18 19:07".parse().unwrap(); // Monday evening
        let offers = feed_day(&mut gen, at);
        let washers: Vec<&FlexOffer> = offers
            .iter()
            .filter(|o| o.profile().duration() == Duration::hours(2))
            .collect();
        assert_eq!(washers.len(), 1, "offers: {offers:?}");
        let offer = washers[0];
        // Emitted causally at the start of the cycle (floored to 15 min).
        assert_eq!(offer.earliest_start(), at.floor_to(Resolution::MIN_15));
        // Window from the catalog (washer: 8 h).
        assert_eq!(offer.time_flexibility(), Duration::hours(8));
        // Envelope brackets the catalog range.
        let total = offer.total_energy();
        assert!((total.min - 1.2).abs() < 1e-9 && (total.max - 3.0).abs() < 1e-9);
        assert!(offer.validate().is_ok());
    }

    #[test]
    fn schedule_gate_suppresses_out_of_slot_cycles() {
        let mut gen = generator();
        // 03:00 is outside every mined washer slot.
        let at: Timestamp = "2013-03-18 03:00".parse().unwrap();
        let offers = feed_day(&mut gen, at);
        assert!(
            offers
                .iter()
                .all(|o| o.profile().duration() != Duration::hours(2)),
            "gated cycle should not emit: {offers:?}"
        );
        // Disabling the gate lets it through.
        let mut open = ungated_generator();
        let offers = feed_day(&mut open, at);
        assert!(offers
            .iter()
            .any(|o| o.profile().duration() == Duration::hours(2)));
    }

    #[test]
    fn cooldown_prevents_duplicate_emissions() {
        let mut gen = ungated_generator();
        let cat = Catalog::extended();
        let washer = cat
            .find_by_name("Washing Machine from Manufacturer Y")
            .unwrap();
        let day_start: Timestamp = "2013-03-18".parse().unwrap();
        let range = TimeRange::starting_at(day_start, Duration::days(1)).unwrap();
        let mut live = TimeSeries::zeros_over(range, Resolution::MIN_1).unwrap();
        for v in live.values_mut() {
            *v = 0.1 / 60.0;
        }
        // Two cycles back-to-back *within* one cycle duration: the
        // second starts 30 min after the first → suppressed.
        let first: Timestamp = "2013-03-18 10:00".parse().unwrap();
        let second: Timestamp = "2013-03-18 10:30".parse().unwrap();
        live.add_overlapping(&washer.profile.to_energy_series(first, 0.5))
            .unwrap();
        live.add_overlapping(&washer.profile.to_energy_series(second, 0.5))
            .unwrap();
        let mut offers = Vec::new();
        for (t, v) in live.iter() {
            offers.extend(gen.push(t, v));
        }
        let washer_offers = offers
            .iter()
            .filter(|o| o.profile().duration() == Duration::hours(2))
            .count();
        assert_eq!(washer_offers, 1, "{offers:?}");
    }

    #[test]
    fn gap_in_readings_resets_the_window() {
        let mut gen = ungated_generator();
        let t0: Timestamp = "2013-03-18 10:00".parse().unwrap();
        gen.push(t0, 0.1 / 60.0);
        // A 10-minute gap, then a huge step: no emission because the
        // window restarted (single sample, no edge).
        let offers = gen.push(t0 + Duration::minutes(10), 2.6 / 60.0);
        assert!(offers.is_empty());
    }

    #[test]
    fn training_on_empty_history_errors() {
        let empty = TimeSeries::new(
            "2013-03-18".parse::<Timestamp>().unwrap(),
            Resolution::MIN_1,
            vec![],
        )
        .unwrap();
        assert!(matches!(
            RealTimeGenerator::train(Catalog::extended(), &empty, ExtractionConfig::default()),
            Err(ExtractionError::EmptySeries)
        ));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = ExtractionConfig::default();
        cfg.flexible_share = 7.0;
        assert!(matches!(
            RealTimeGenerator::new(Catalog::extended(), vec![], cfg),
            Err(ExtractionError::InvalidConfig { .. })
        ));
    }
}
