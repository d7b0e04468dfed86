//! The disaggregation pipeline entry point: one call from a cleaned
//! measured series to an appliance-level decomposition.
//!
//! The event/matching/frequency/schedule modules are the pipeline's
//! *stages*; this module is the front door the ingestion path calls
//! after cleaning: detect appliance cycles against the catalog, split
//! the series into an explained (appliance-attributed) part and a
//! residual, and report how much of the signal — and in particular how
//! much *shiftable* (flexible) energy — the decomposition recovered.
//! When a measured dataset carries no simulator ground truth, the
//! recovered shiftable series is the best available reference for
//! scoring extraction (a NILM estimate, clearly labelled as such).

use crate::matching::{detect_activations, DetectedActivation, MatchConfig};
use flextract_appliance::Catalog;
use flextract_series::{SeriesError, TimeSeries};

/// Configuration of the disaggregation pipeline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DisaggConfig {
    /// Template-matching knobs (see [`MatchConfig`]).
    pub matching: MatchConfig,
    /// Restrict detection to shiftable catalog appliances (the ones
    /// that can carry flexibility). When `false`, every catalog
    /// appliance is matched.
    pub shiftable_only: bool,
}

impl DisaggConfig {
    /// The ingestion default: shiftable appliances only — exactly the
    /// loads whose cycles can become flex-offers.
    pub fn shiftable() -> Self {
        DisaggConfig {
            matching: MatchConfig::default(),
            shiftable_only: true,
        }
    }
}

/// The appliance-level decomposition of one consumer series.
#[derive(Debug, Clone, PartialEq)]
pub struct DisaggResult {
    /// Every recovered appliance cycle, chronological.
    pub detections: Vec<DetectedActivation>,
    /// The appliance-attributed part of the series (input − residual,
    /// clamped at zero). For a shiftable-only run this is the
    /// NILM-estimated *flexible* series.
    pub explained: TimeSeries,
    /// What template matching could not attribute to any appliance
    /// (base load plus estimation error).
    pub residual: TimeSeries,
    /// Energy of `explained` (kWh).
    pub explained_kwh: f64,
    /// `explained_kwh / input energy` (0 for an all-zero input).
    pub explained_share: f64,
}

/// Run the disaggregation pipeline on a cleaned series.
///
/// `series` should be at the finest resolution available — template
/// matching degrades with granularity (the paper's "only 15 min"
/// caveat is precisely this effect; the
/// `disaggregation_quality_collapses_at_15min` integration test
/// measures it).
pub fn disaggregate(
    series: &TimeSeries,
    catalog: &Catalog,
    config: &DisaggConfig,
) -> Result<DisaggResult, SeriesError> {
    let specs: Vec<&flextract_appliance::ApplianceSpec> = if config.shiftable_only {
        catalog.shiftable()
    } else {
        catalog.specs().iter().collect()
    };
    let (detections, residual) = detect_activations(series, &specs, &config.matching);
    let mut explained = series.sub(&residual)?;
    // Greedy subtraction can leave slightly negative attribution where
    // templates overlapped; attributed energy is non-negative.
    explained.clip_negative();
    let explained_kwh = explained.total_energy();
    let total = series.total_energy();
    Ok(DisaggResult {
        detections,
        explained,
        residual,
        explained_kwh,
        explained_share: if total > 0.0 {
            explained_kwh / total
        } else {
            0.0
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextract_time::{Resolution, Timestamp};

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    /// A flat base load with one full-intensity shiftable cycle.
    fn series_with_cycle(catalog: &Catalog) -> TimeSeries {
        let spec = catalog
            .shiftable()
            .into_iter()
            .next()
            .expect("catalog has a shiftable appliance");
        let mut series =
            TimeSeries::new(ts("2013-03-18"), Resolution::MIN_1, vec![0.003; 1440]).unwrap();
        let cycle = spec.profile.to_energy_series(ts("2013-03-18 10:00"), 1.0);
        series.add_overlapping(&cycle).expect("same 1-min grid");
        series
    }

    #[test]
    fn pipeline_recovers_a_planted_cycle() {
        let catalog = Catalog::extended();
        let series = series_with_cycle(&catalog);
        let result = disaggregate(&series, &catalog, &DisaggConfig::shiftable()).unwrap();
        assert!(
            !result.detections.is_empty(),
            "expected at least one detection"
        );
        assert!(result.explained_kwh > 0.0);
        assert!(result.explained_share > 0.0 && result.explained_share <= 1.0);
        // Decomposition is conservative: explained + residual ≈ input
        // up to the negative clamp.
        let recombined = result.explained.total_energy() + result.residual.total_energy();
        assert!(
            recombined >= series.total_energy() - 1e-9,
            "clamp only adds energy"
        );
    }

    #[test]
    fn quiet_series_yields_nothing() {
        let catalog = Catalog::extended();
        let flat = TimeSeries::new(ts("2013-03-18"), Resolution::MIN_1, vec![0.002; 1440]).unwrap();
        let result = disaggregate(&flat, &catalog, &DisaggConfig::shiftable()).unwrap();
        assert!(result.detections.is_empty(), "{:?}", result.detections);
        assert_eq!(result.explained_kwh, 0.0);
        assert_eq!(result.explained_share, 0.0);
    }

    #[test]
    fn shiftable_only_is_a_subset_of_full_catalog() {
        let catalog = Catalog::extended();
        let series = series_with_cycle(&catalog);
        let shiftable = disaggregate(&series, &catalog, &DisaggConfig::shiftable()).unwrap();
        let full = disaggregate(
            &series,
            &catalog,
            &DisaggConfig {
                shiftable_only: false,
                ..DisaggConfig::default()
            },
        )
        .unwrap();
        assert!(full.detections.len() >= shiftable.detections.len());
    }
}
