//! The frequency-based appliance-level approach (paper §4.1).
//!
//! Step 1 "derives the shortlist of the possibly used appliances and
//! their frequency usage table" (delegated to `flextract-disagg`);
//! step 2 "outputs a set of extracted flex-offers, each of them
//! corresponding to one usage of a specific appliance at a specific
//! time period", subtracting the flexible energy from the series.
//!
//! The flex-offer bands come from the *catalog envelope*, not from
//! configured percentages: a detected washer cycle at intensity 0.6
//! yields a profile bracketed by the washer's own min/max energy — the
//! reason the paper calls appliance-level offers "very realistic".

use crate::extractor::{extract_cycle, FlexibilityExtractor};
use crate::{Diagnostics, ExtractionConfig, ExtractionError, ExtractionInput, ExtractionOutput};
use flextract_disagg::{detect_activations, FrequencyTable, MatchConfig};
use flextract_flexoffer::{EnergyRange, FlexOffer};
use flextract_series::TimeSeries;
use flextract_time::Duration;
use rand::rngs::StdRng;

/// Detection-driven per-activation extraction.
#[derive(Debug, Clone)]
pub struct FrequencyBasedExtractor {
    cfg: ExtractionConfig,
}

impl FrequencyBasedExtractor {
    /// Build with the given configuration; detection uses the default
    /// matching parameters.
    pub fn new(cfg: ExtractionConfig) -> Self {
        FrequencyBasedExtractor { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ExtractionConfig {
        &self.cfg
    }
}

impl FlexibilityExtractor for FrequencyBasedExtractor {
    fn name(&self) -> &'static str {
        "frequency"
    }

    fn extract(
        &self,
        input: &ExtractionInput<'_>,
        rng: &mut StdRng,
    ) -> Result<ExtractionOutput, ExtractionError> {
        let _ = rng; // detection is deterministic; rng reserved for parity with the trait
        self.cfg.validate()?;
        let series = input.series;
        if series.is_empty() {
            return Err(ExtractionError::EmptySeries);
        }
        let catalog = input.catalog.ok_or(ExtractionError::MissingCatalog)?;
        let fine = input.fine_series.unwrap_or(series);

        // ---- Step 1: appliance detection + frequency table.
        let shiftable = catalog.shiftable();
        let (detections, _fine_residual) =
            detect_activations(fine, &shiftable, &MatchConfig::default());
        let observed_days = (fine.range().duration().as_minutes() as f64 / 1440.0).max(1.0 / 96.0);
        let table = FrequencyTable::mine(&detections, observed_days, catalog);

        let mut diagnostics = Diagnostics::default();
        for row in table.shortlist() {
            diagnostics.shortlist.push(format!(
                "{}: {:.2}/day, flexibility {}",
                row.appliance, row.mean_daily_rate, row.time_flexibility
            ));
        }

        // ---- Step 2: one flex-offer per detected flexible activation.
        let mut modified = series.clone();
        let mut extracted = TimeSeries::zeros_like(series);
        let mut offers: Vec<FlexOffer> = Vec::new();
        let mut next_id = 1u64;
        let slice_min = self.cfg.slice_resolution.minutes();

        for det in &detections {
            let Some(spec) = catalog.find_by_name(&det.appliance) else {
                continue;
            };
            let flexibility = spec.shiftability.max_delay();
            if flexibility <= Duration::ZERO {
                continue;
            }
            // Realise the detected cycle on the fine grid and move its
            // energy from the household series into the extraction.
            let cycle = spec.profile.to_energy_series(det.start, det.intensity);
            let Some((lo, energies)) = extract_cycle(&mut modified, &mut extracted, &cycle) else {
                diagnostics.notes.push(format!(
                    "{} @ {}: no residual energy to extract",
                    det.appliance, det.start
                ));
                continue;
            };
            // The catalog envelope brackets the profile globally: scale
            // each slice by the spec's min/max-to-realised energy ratio.
            let realised = spec.profile.cycle_energy_kwh(det.intensity);
            if realised <= 0.0 {
                continue;
            }
            let (env_lo, env_hi) = spec.profile.energy_range_kwh();
            let lo_ratio = (env_lo / realised).min(1.0);
            let hi_ratio = (env_hi / realised).max(1.0);
            let slices: Vec<EnergyRange> = energies
                .iter()
                .map(|&e| EnergyRange::new(e * lo_ratio, e * hi_ratio))
                .collect::<Result<_, _>>()?;

            let earliest = modified.timestamp_of(lo);
            let latest =
                earliest + Duration::minutes((flexibility.as_minutes() / slice_min) * slice_min);
            let creation = earliest - self.cfg.creation_lead;
            let acceptance = (creation + self.cfg.acceptance_offset).min(earliest);
            let assignment = (earliest - self.cfg.assignment_lead).max(acceptance);
            let offer = FlexOffer::builder(next_id)
                .start_window(earliest, latest)
                .slices(self.cfg.slice_resolution, slices)
                .created_at(creation)
                .acceptance_by(acceptance)
                .assignment_by(assignment)
                .build()?;
            next_id += 1;
            offers.push(offer);
        }
        diagnostics.notes.push(format!(
            "{} detections over {:.1} days, {} flex-offers emitted",
            detections.len(),
            observed_days,
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
    use flextract_appliance::Catalog;
    use flextract_series::{resample, TimeSeries};
    use flextract_time::{Resolution, TimeRange, Timestamp};
    use rand::SeedableRng;

    /// A day with a clean staged washer cycle plus flat base load, at
    /// 1-min granularity, and its 15-min aggregate.
    fn staged() -> (TimeSeries, TimeSeries, Timestamp) {
        let cat = Catalog::extended();
        let start: Timestamp = "2013-03-18".parse().unwrap();
        let range = TimeRange::starting_at(start, flextract_time::Duration::days(1)).unwrap();
        let mut fine = TimeSeries::zeros_over(range, Resolution::MIN_1).unwrap();
        for v in fine.values_mut() {
            *v = 0.1 / 60.0;
        }
        let washer = cat
            .find_by_name("Washing Machine from Manufacturer Y")
            .unwrap();
        let at: Timestamp = "2013-03-18 19:00".parse().unwrap();
        fine.add_overlapping(&washer.profile.to_energy_series(at, 0.5))
            .unwrap();
        let market = resample::downsample(&fine, Resolution::MIN_15).unwrap();
        (fine, market, at)
    }

    #[test]
    fn emits_one_offer_per_detected_cycle() {
        let (fine, market, at) = staged();
        let cat = Catalog::extended();
        let ex = FrequencyBasedExtractor::new(ExtractionConfig::default());
        let out = ex
            .extract(
                &ExtractionInput::household(&market)
                    .with_fine_series(&fine)
                    .with_catalog(&cat),
                &mut StdRng::seed_from_u64(1),
            )
            .unwrap();
        let washers: Vec<&FlexOffer> = out
            .flex_offers
            .iter()
            .filter(|o| o.profile().len() >= 7)
            .collect();
        assert!(!washers.is_empty(), "offers: {:?}", out.flex_offers.len());
        // Offer anchored at the cycle (floored to the 15-min grid).
        let offer = washers[0];
        assert_eq!(offer.earliest_start(), at.floor_to(Resolution::MIN_15));
        // Time flexibility comes from the catalog (washer: 8 h).
        assert_eq!(offer.time_flexibility(), flextract_time::Duration::hours(8));
        out.check_invariants(&market).unwrap();
    }

    #[test]
    fn profile_band_comes_from_the_catalog_envelope() {
        let (fine, market, _) = staged();
        let cat = Catalog::extended();
        let ex = FrequencyBasedExtractor::new(ExtractionConfig::default());
        let out = ex
            .extract(
                &ExtractionInput::household(&market)
                    .with_fine_series(&fine)
                    .with_catalog(&cat),
                &mut StdRng::seed_from_u64(1),
            )
            .unwrap();
        let offer = &out.flex_offers[0];
        let total = offer.total_energy();
        // Washer envelope is 1.2-3.0 kWh; the detected cycle sits inside.
        assert!(total.min >= 0.5 && total.min <= 2.2, "{total:?}");
        assert!(total.max >= total.min && total.max <= 3.5, "{total:?}");
        // Extracted energy is inside the offer band.
        let e = out.extracted_energy();
        assert!(
            total.min <= e + 1e-9 && e <= total.max + 1e-9,
            "{e} vs {total:?}"
        );
    }

    #[test]
    fn shortlist_appears_in_diagnostics() {
        let (fine, market, _) = staged();
        let cat = Catalog::extended();
        let ex = FrequencyBasedExtractor::new(ExtractionConfig::default());
        let out = ex
            .extract(
                &ExtractionInput::household(&market)
                    .with_fine_series(&fine)
                    .with_catalog(&cat),
                &mut StdRng::seed_from_u64(1),
            )
            .unwrap();
        assert!(!out.diagnostics.shortlist.is_empty());
        assert!(out
            .diagnostics
            .shortlist
            .iter()
            .any(|s| s.contains("Washing Machine")));
    }

    #[test]
    fn requires_catalog() {
        let (_, market, _) = staged();
        let ex = FrequencyBasedExtractor::new(ExtractionConfig::default());
        assert_eq!(
            ex.extract(
                &ExtractionInput::household(&market),
                &mut StdRng::seed_from_u64(1)
            ),
            Err(ExtractionError::MissingCatalog)
        );
    }

    #[test]
    fn works_without_fine_series_but_finds_less() {
        let (fine, market, _) = staged();
        let cat = Catalog::extended();
        let ex = FrequencyBasedExtractor::new(ExtractionConfig::default());
        let with_fine = ex
            .extract(
                &ExtractionInput::household(&market)
                    .with_fine_series(&fine)
                    .with_catalog(&cat),
                &mut StdRng::seed_from_u64(1),
            )
            .unwrap();
        let coarse_only = ex
            .extract(
                &ExtractionInput::household(&market).with_catalog(&cat),
                &mut StdRng::seed_from_u64(1),
            )
            .unwrap();
        // The paper's point exactly: 15-min granularity is not
        // sufficient — it can never beat the fine input.
        assert!(coarse_only.flex_offers.len() <= with_fine.flex_offers.len());
        coarse_only.check_invariants(&market).unwrap();
    }

    #[test]
    fn quiet_series_emits_nothing() {
        let start: Timestamp = "2013-03-18".parse().unwrap();
        let market = TimeSeries::constant(start, Resolution::MIN_15, 0.025, 96);
        let cat = Catalog::extended();
        let ex = FrequencyBasedExtractor::new(ExtractionConfig::default());
        let out = ex
            .extract(
                &ExtractionInput::household(&market).with_catalog(&cat),
                &mut StdRng::seed_from_u64(1),
            )
            .unwrap();
        assert!(out.flex_offers.is_empty());
        assert_eq!(out.extracted_energy(), 0.0);
    }

    #[test]
    fn empty_series_errors() {
        let start: Timestamp = "2013-03-18".parse().unwrap();
        let empty = TimeSeries::new(start, Resolution::MIN_15, vec![]).unwrap();
        let cat = Catalog::extended();
        let ex = FrequencyBasedExtractor::new(ExtractionConfig::default());
        assert_eq!(
            ex.extract(
                &ExtractionInput::household(&empty).with_catalog(&cat),
                &mut StdRng::seed_from_u64(1)
            ),
            Err(ExtractionError::EmptySeries)
        );
    }
}
