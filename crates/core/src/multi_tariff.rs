//! The multi-tariff extraction approach (paper §3.3).
//!
//! "The multi-tariff approach firstly analyzes one tariff time series to
//! estimate the usual consumption of a consumer. It can calculate the
//! typical behavior during the work days, weekends … Then, the
//! extraction approach takes multi-tariff time series and detects the
//! flexible consumption in it by comparing with the typical consumption
//! in one tariff."
//!
//! The paper could not evaluate this approach for lack of data; with the
//! simulator's tariff-response mode it runs here. Detection is purely
//! data-driven — no tariff windows are given to the extractor:
//!
//! * intervals where the multi-tariff day *exceeds* the typical
//!   one-tariff day (beyond a noise band) are **arrivals** — flexible
//!   load that was delayed to cheap hours;
//! * earlier intervals where consumption *fell below* typical are the
//!   matching **departures**, and give the offer its earliest start
//!   (the load evidently used to run there).

use crate::extractor::FlexibilityExtractor;
use crate::{Diagnostics, ExtractionConfig, ExtractionError, ExtractionInput, ExtractionOutput};
use flextract_flexoffer::{EnergyRange, FlexOffer};
use flextract_series::segment::{day_profile_std, split_whole_days, typical_day_profile, DayKind};
use flextract_series::TimeSeries;
use flextract_time::Duration;
use rand::rngs::StdRng;
use rand::Rng;

/// Noise band width in standard deviations of the reference profile.
const SIGMA_BAND: f64 = 1.0;
/// Absolute noise floor in kWh per interval.
const NOISE_FLOOR_KWH: f64 = 0.02;

/// Reference-vs-observed comparison extraction.
#[derive(Debug, Clone)]
pub struct MultiTariffExtractor {
    cfg: ExtractionConfig,
}

impl MultiTariffExtractor {
    /// Build with the given configuration and the noise band of 1 σ
    /// with a 0.02 kWh floor.
    pub fn new(cfg: ExtractionConfig) -> Self {
        MultiTariffExtractor { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ExtractionConfig {
        &self.cfg
    }

    fn day_kind(day_start: flextract_time::Timestamp) -> DayKind {
        if day_start.day_of_week().is_weekend() {
            DayKind::Weekend
        } else {
            DayKind::Workday
        }
    }
}

impl FlexibilityExtractor for MultiTariffExtractor {
    fn name(&self) -> &'static str {
        "multi-tariff"
    }

    fn extract(
        &self,
        input: &ExtractionInput<'_>,
        rng: &mut StdRng,
    ) -> Result<ExtractionOutput, ExtractionError> {
        self.cfg.validate()?;
        let series = input.series;
        if series.is_empty() {
            return Err(ExtractionError::EmptySeries);
        }
        let reference = input
            .reference_series
            .ok_or(ExtractionError::MissingReference)?;
        if reference.is_empty() {
            return Err(ExtractionError::MissingReference);
        }

        // Typical behaviour per day kind, with an "all days" fallback
        // when the reference lacks one kind entirely.
        let typical_all = typical_day_profile(reference, DayKind::All)?;
        let std_all = day_profile_std(reference, DayKind::All)?;
        let per_kind = |kind: DayKind| -> (Vec<f64>, Vec<f64>) {
            match (
                typical_day_profile(reference, kind),
                day_profile_std(reference, kind),
            ) {
                (Ok(t), Ok(s)) => (t, s),
                _ => (typical_all.clone(), std_all.clone()),
            }
        };
        let (typ_work, std_work) = per_kind(DayKind::Workday);
        let (typ_week, std_week) = per_kind(DayKind::Weekend);

        let mut modified = series.clone();
        let mut extracted = TimeSeries::zeros_like(series);
        let mut offers: Vec<FlexOffer> = Vec::new();
        let mut diagnostics = Diagnostics::default();
        diagnostics.notes.push(format!(
            "reference: {} whole days analysed",
            split_whole_days(reference).len()
        ));
        let mut next_id = 1u64;
        let slice_min = self.cfg.slice_resolution.minutes();

        for day in split_whole_days(series) {
            let (typical, sigma) = match Self::day_kind(day.start()) {
                DayKind::Weekend => (&typ_week, &std_week),
                _ => (&typ_work, &std_work),
            };
            let n = day.len();
            if typical.len() != n {
                return Err(ExtractionError::Series(
                    flextract_series::SeriesError::LengthMismatch {
                        left: typical.len(),
                        right: n,
                    },
                ));
            }
            // Signed anomaly vs the noise band.
            let mut arrivals: Vec<(usize, usize)> = Vec::new(); // [start, end)
            let mut departures: Vec<(usize, usize)> = Vec::new();
            let band = |i: usize| (SIGMA_BAND * sigma[i]).max(NOISE_FLOOR_KWH);
            let mut i = 0;
            while i < n {
                let diff = day.values()[i] - typical[i];
                if diff > band(i) {
                    let s = i;
                    while i < n && day.values()[i] - typical[i] > band(i) {
                        i += 1;
                    }
                    arrivals.push((s, i));
                } else if diff < -band(i) {
                    let s = i;
                    while i < n && day.values()[i] - typical[i] < -band(i) {
                        i += 1;
                    }
                    departures.push((s, i));
                } else {
                    i += 1;
                }
            }

            for (a_start, a_end) in arrivals {
                // The flexible energy is the excess over typical,
                // bounded by actual consumption.
                let energies: Vec<f64> = day.values()[a_start..a_end]
                    .iter()
                    .zip(&typical[a_start..a_end])
                    .map(|(&c, &t)| (c - t).min(c).max(0.0))
                    .collect();
                if energies.iter().sum::<f64>() <= 0.0 {
                    continue;
                }
                // Earliest start: the largest earlier departure of the
                // same day (where the load evidently used to run);
                // fall back to a sampled backward flexibility.
                let arrival_t = day.timestamp_of(a_start);
                let earliest = departures
                    .iter()
                    .filter(|(d_start, _)| *d_start < a_start)
                    .max_by(|(s1, e1), (s2, e2)| {
                        let w1: f64 = day.values()[*s1..*e1]
                            .iter()
                            .zip(&typical[*s1..*e1])
                            .map(|(c, t)| t - c)
                            .sum();
                        let w2: f64 = day.values()[*s2..*e2]
                            .iter()
                            .zip(&typical[*s2..*e2])
                            .map(|(c, t)| t - c)
                            .sum();
                        w1.partial_cmp(&w2).expect("sums of finite values")
                    })
                    .map(|(d_start, _)| day.timestamp_of(*d_start))
                    .unwrap_or_else(|| {
                        let back = rng.gen_range(
                            self.cfg.time_flexibility.0.as_minutes()
                                ..=self
                                    .cfg
                                    .time_flexibility
                                    .1
                                    .as_minutes()
                                    .max(self.cfg.time_flexibility.0.as_minutes() + 1),
                        );
                        arrival_t - Duration::minutes((back / slice_min) * slice_min)
                    });

                // Subtract from the modified series.
                for (k, e) in energies.iter().enumerate() {
                    let global = modified
                        .index_of(day.timestamp_of(a_start + k))
                        .expect("day intervals lie inside the series");
                    modified.values_mut()[global] -= e;
                    extracted.values_mut()[global] += e;
                }

                let slices: Vec<EnergyRange> = energies
                    .iter()
                    .map(|&e| {
                        let min_f = rng.gen_range(
                            self.cfg.min_energy_fraction.0..=self.cfg.min_energy_fraction.1,
                        );
                        let max_f = rng.gen_range(
                            self.cfg.max_energy_fraction.0..=self.cfg.max_energy_fraction.1,
                        );
                        EnergyRange::new(e * min_f, e * max_f)
                    })
                    .collect::<Result<_, _>>()?;
                let creation = earliest - self.cfg.creation_lead;
                let acceptance = (creation + self.cfg.acceptance_offset).min(earliest);
                let assignment = (earliest - self.cfg.assignment_lead).max(acceptance);
                let offer = FlexOffer::builder(next_id)
                    .start_window(earliest, arrival_t)
                    .slices(self.cfg.slice_resolution, slices)
                    .created_at(creation)
                    .acceptance_by(acceptance)
                    .assignment_by(assignment)
                    .build()?;
                next_id += 1;
                offers.push(offer);
            }
        }
        diagnostics.notes.push(format!(
            "{} flex-offers from tariff-shift anomalies",
            offers.len()
        ));
        Ok(ExtractionOutput {
            approach: self.name(),
            flex_offers: offers,
            modified_series: modified,
            extracted_series: extracted,
            diagnostics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextract_series::TimeSeries;
    use flextract_time::{Resolution, Timestamp};
    use rand::SeedableRng;

    /// Reference: 14 identical flat days. Observed: same, but on each
    /// day 1.2 kWh moved from 18:00-19:00 into 23:00-24:00.
    fn reference() -> TimeSeries {
        TimeSeries::constant(
            "2013-03-04".parse::<Timestamp>().unwrap(),
            Resolution::MIN_15,
            0.4,
            96 * 14,
        )
    }

    fn shifted_observed(days: usize) -> TimeSeries {
        let mut values = Vec::with_capacity(96 * days);
        for _ in 0..days {
            let mut day = vec![0.4; 96];
            for v in day.iter_mut().skip(72).take(4) {
                *v = 0.1; // departure 18:00-19:00
            }
            for v in day.iter_mut().skip(92).take(4) {
                *v = 0.7; // arrival 23:00-24:00
            }
            values.extend(day);
        }
        TimeSeries::new(
            "2013-03-18".parse::<Timestamp>().unwrap(),
            Resolution::MIN_15,
            values,
        )
        .unwrap()
    }

    fn run(observed: &TimeSeries, reference: &TimeSeries, seed: u64) -> ExtractionOutput {
        MultiTariffExtractor::new(ExtractionConfig::default())
            .extract(
                &ExtractionInput::household(observed).with_reference(reference),
                &mut StdRng::seed_from_u64(seed),
            )
            .unwrap()
    }

    #[test]
    fn detects_the_shifted_block() {
        let obs = shifted_observed(3);
        let refr = reference();
        let out = run(&obs, &refr, 1);
        assert_eq!(out.flex_offers.len(), 3, "one arrival per day");
        out.check_invariants(&obs).unwrap();
        for offer in &out.flex_offers {
            // Arrival (latest start) at 23:00, departure (earliest) at 18:00.
            assert_eq!(offer.latest_start().time().hour, 23);
            assert_eq!(offer.earliest_start().time().hour, 18);
            assert_eq!(offer.time_flexibility(), Duration::hours(5));
            // ~1.2 kWh of shifted energy bracketed by the band.
            let total = offer.total_energy();
            assert!(total.min < 1.2 && 1.2 < total.max + 0.4, "{total:?}");
        }
        // Extracted energy ≈ 3 days × 1.2 kWh.
        assert!(
            (out.extracted_energy() - 3.6).abs() < 0.2,
            "{}",
            out.extracted_energy()
        );
    }

    #[test]
    fn requires_a_reference() {
        let obs = shifted_observed(1);
        let ex = MultiTariffExtractor::new(ExtractionConfig::default());
        let err = ex
            .extract(
                &ExtractionInput::household(&obs),
                &mut StdRng::seed_from_u64(1),
            )
            .unwrap_err();
        assert_eq!(err, ExtractionError::MissingReference);
    }

    #[test]
    fn unshifted_behaviour_extracts_nothing() {
        let refr = reference();
        let obs = TimeSeries::new(
            "2013-03-18".parse::<Timestamp>().unwrap(),
            Resolution::MIN_15,
            vec![0.4; 96 * 2],
        )
        .unwrap();
        let out = run(&obs, &refr, 2);
        assert!(out.flex_offers.is_empty());
        assert_eq!(out.extracted_energy(), 0.0);
    }

    #[test]
    fn noisy_reference_widens_the_band() {
        // Reference with per-interval noise → large σ → the small shift
        // disappears inside the band.
        let mut values = Vec::new();
        let mut flip = false;
        for _ in 0..14 {
            for i in 0..96 {
                values.push(if (i % 2 == 0) ^ flip { 0.0 } else { 0.8 });
            }
            flip = !flip;
        }
        let noisy_ref = TimeSeries::new(
            "2013-03-04".parse::<Timestamp>().unwrap(),
            Resolution::MIN_15,
            values,
        )
        .unwrap();
        let obs = shifted_observed(2);
        let out = run(&obs, &noisy_ref, 3);
        // σ per interval is 0.4, comfortably above the 0.3 kWh arrival
        // excess → the shift disappears inside the noise band.
        assert!(out.flex_offers.is_empty(), "{:?}", out.flex_offers.len());
    }

    #[test]
    fn arrival_without_departure_uses_sampled_backward_window() {
        // Observed adds energy without removing any.
        let refr = reference();
        let mut day = vec![0.4; 96];
        for v in day.iter_mut().skip(92).take(4) {
            *v = 0.9;
        }
        let obs = TimeSeries::new(
            "2013-03-18".parse::<Timestamp>().unwrap(),
            Resolution::MIN_15,
            day,
        )
        .unwrap();
        let out = run(&obs, &refr, 4);
        assert_eq!(out.flex_offers.len(), 1);
        let offer = &out.flex_offers[0];
        assert_eq!(offer.latest_start().time().hour, 23);
        assert!(offer.time_flexibility() >= ExtractionConfig::default().time_flexibility.0);
    }

    #[test]
    fn weekend_days_use_weekend_typical() {
        // Reference: weekends flat 0.8, workdays flat 0.4, two weeks.
        let start: Timestamp = "2013-03-04".parse().unwrap(); // Monday
        let mut values = Vec::new();
        for d in 0..14 {
            let t = start + Duration::days(d);
            let level = if t.day_of_week().is_weekend() {
                0.8
            } else {
                0.4
            };
            values.extend(vec![level; 96]);
        }
        let refr = TimeSeries::new(start, Resolution::MIN_15, values).unwrap();
        // Observed Saturday flat 0.8 → no anomaly (despite 0.4 workday
        // typical being very different).
        let sat: Timestamp = "2013-03-23".parse().unwrap();
        assert!(sat.day_of_week().is_weekend());
        let obs = TimeSeries::new(sat, Resolution::MIN_15, vec![0.8; 96]).unwrap();
        let out = run(&obs, &refr, 5);
        assert!(out.flex_offers.is_empty(), "weekend typical must apply");
    }

    #[test]
    fn deterministic_per_seed() {
        let obs = shifted_observed(2);
        let refr = reference();
        let a = run(&obs, &refr, 9);
        let b = run(&obs, &refr, 9);
        assert_eq!(a.flex_offers, b.flex_offers);
    }

    #[test]
    fn empty_inputs_error() {
        let empty = TimeSeries::new(
            "2013-03-18".parse::<Timestamp>().unwrap(),
            Resolution::MIN_15,
            vec![],
        )
        .unwrap();
        let refr = reference();
        let ex = MultiTariffExtractor::new(ExtractionConfig::default());
        assert_eq!(
            ex.extract(
                &ExtractionInput::household(&empty).with_reference(&refr),
                &mut StdRng::seed_from_u64(1)
            ),
            Err(ExtractionError::EmptySeries)
        );
        let obs = shifted_observed(1);
        assert_eq!(
            ex.extract(
                &ExtractionInput::household(&obs).with_reference(&empty),
                &mut StdRng::seed_from_u64(1)
            ),
            Err(ExtractionError::MissingReference)
        );
    }
}
