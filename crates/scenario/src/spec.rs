//! The declarative [`Scenario`] specification and corpus loading.
//!
//! A scenario names one full simulate→extract→aggregate→evaluate run:
//! the workload (who consumes), the horizon and market resolution, the
//! extraction approach and its flexible share, the downstream
//! aggregation policy, and the seed that makes the whole run
//! reproducible. Scenarios are stored as one JSON file each under
//! `scenarios/` and double as golden-file regression fixtures.

use crate::ScenarioError;
use flextract_series::FillStrategy;
use flextract_sim::{FleetConfig, HouseholdArchetype, ShiftPattern};
use flextract_time::{Resolution, TimeRange, Timestamp};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// The cleaning stage of a dataset-backed workload (see
/// [`flextract_dataset::ingest`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetCleaning {
    /// Gap-fill strategy (also re-fills screened anomalies).
    pub fill: FillStrategy,
    /// Whether to screen anomalies (rolling z-score) after gap fill.
    pub screen_anomalies: bool,
}

impl Default for DatasetCleaning {
    fn default() -> Self {
        DatasetCleaning {
            fill: FillStrategy::Linear,
            screen_anomalies: false,
        }
    }
}

/// Which consumers the scenario runs — simulated, or ingested from a
/// metered dataset on disk.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// A residential fleet.
    Households {
        /// Number of households.
        households: usize,
        /// Archetype mix as `(archetype, weight)`; sampled
        /// proportionally (see [`FleetConfig::archetype_mix`]).
        archetype_mix: Vec<(HouseholdArchetype, f64)>,
        /// Probability that a shiftable activation is delayed into the
        /// overnight low-tariff window (0 = no tariff response).
        tariff_sensitivity: f64,
    },
    /// A set of industrial sites (§6's "further research direction").
    Industrial {
        /// Number of plants.
        sites: usize,
        /// Working-time structure shared by every plant.
        pattern: ShiftPattern,
    },
    /// A district: households plus industrial sites on one feeder.
    Mixed {
        /// Number of households (default archetype mix, no tariff).
        households: usize,
        /// Number of two-shift plants.
        sites: usize,
    },
    /// Metered consumers ingested from a dataset directory (see the
    /// README's "measured-data pipeline" section). The pipeline becomes
    /// ingest → gap-fill → anomaly-screen → (optionally) disaggregate →
    /// extract, and — when the dataset carries simulator ground truth —
    /// the report gains a fidelity section.
    Dataset {
        /// Dataset directory; a relative path resolves against the
        /// process working directory.
        path: String,
        /// Expected consumer count. Pinned in the spec so
        /// [`Workload::consumers`] needs no I/O and a swapped-out
        /// dataset cannot silently change the scenario's shape; the
        /// runner errors if the manifest disagrees.
        consumers: usize,
        /// The cleaning stage configuration.
        cleaning: DatasetCleaning,
        /// Run the disaggregation pipeline on the cleaned series. This
        /// attaches the cleaned fine series and the appliance catalog
        /// to extraction (enabling the appliance-level extractors on
        /// measured data) and, when the dataset has no ground-truth
        /// flexible series, makes the NILM estimate the scoring
        /// reference.
        disaggregate: bool,
    },
}

impl Workload {
    /// Total number of consumers (declared count for datasets).
    pub fn consumers(&self) -> usize {
        match self {
            Workload::Households { households, .. } => *households,
            Workload::Industrial { sites, .. } => *sites,
            Workload::Mixed { households, sites } => households + sites,
            Workload::Dataset { consumers, .. } => *consumers,
        }
    }
}

/// Which of the paper's Figure-3 approaches extracts the flexibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExtractorChoice {
    /// The MIRABEL testing baseline (offers land uniformly).
    Random,
    /// §3.1 basic approach (fixed share, one offer per period).
    Basic,
    /// §3.2 peak-based approach (the paper's main proposal).
    Peak,
    /// §3.3 multi-tariff approach (needs a tariff-responding fleet).
    MultiTariff,
    /// §4.1 frequency-based appliance-level approach.
    Frequency,
    /// §4.2 schedule-based appliance-level approach.
    Schedule,
}

impl ExtractorChoice {
    /// Machine-friendly name, matching the extractor's `name()`.
    pub fn label(self) -> &'static str {
        match self {
            ExtractorChoice::Random => "random",
            ExtractorChoice::Basic => "basic",
            ExtractorChoice::Peak => "peak",
            ExtractorChoice::MultiTariff => "multi-tariff",
            ExtractorChoice::Frequency => "frequency",
            ExtractorChoice::Schedule => "schedule",
        }
    }
}

/// What happens to the extracted flex-offers downstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggregationPolicy {
    /// Stop after extraction.
    None,
    /// Aggregate micro offers into macro offers (§6).
    Aggregate,
    /// Aggregate, then schedule against simulated wind production;
    /// requires `res_capacity_share > 0`.
    Schedule,
}

/// One named, reproducible pipeline configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Unique corpus name (also the spec and golden file stem).
    pub name: String,
    /// One-line human description shown by `flextract scenario list`.
    pub description: String,
    /// Who consumes.
    pub workload: Workload,
    /// First simulated day, `YYYY-MM-DD`.
    pub start: String,
    /// Number of simulated days.
    pub days: i64,
    /// Market/extraction resolution in minutes (must divide a day and
    /// be at most one hour).
    pub resolution_min: i64,
    /// The extraction approach.
    pub extractor: ExtractorChoice,
    /// Fraction of consumption assumed flexible (the MIRACLE trial
    /// range is 0.001–0.065).
    pub flexible_share: f64,
    /// Downstream policy.
    pub aggregation: AggregationPolicy,
    /// Wind-farm capacity as a share of the workload's mean load
    /// (0 = no RES production simulated).
    pub res_capacity_share: f64,
    /// Base RNG seed for the whole pipeline.
    pub seed: u64,
}

impl Scenario {
    /// The simulated horizon.
    pub fn horizon(&self) -> Result<TimeRange, ScenarioError> {
        let start: Timestamp = self.start.parse().map_err(|e| ScenarioError::Invalid {
            scenario: self.name.clone(),
            what: format!("start `{}`: {e}", self.start),
        })?;
        let end = start.checked_add_days(self.days).ok_or_else(|| {
            self.invalid(format!(
                "days {}: the horizon ends past the last representable minute",
                self.days
            ))
        })?;
        TimeRange::new(start, end).map_err(|e| self.invalid(format!("days {}: {e}", self.days)))
    }

    /// The market resolution.
    pub fn resolution(&self) -> Result<Resolution, ScenarioError> {
        Resolution::from_minutes(self.resolution_min).map_err(|e| ScenarioError::Invalid {
            scenario: self.name.clone(),
            what: format!("resolution_min {}: {e}", self.resolution_min),
        })
    }

    fn invalid(&self, what: impl Into<String>) -> ScenarioError {
        ScenarioError::Invalid {
            scenario: self.name.clone(),
            what: what.into(),
        }
    }

    /// Check every field's domain and the extractor/workload
    /// compatibility rules before running anything.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-')
        {
            return Err(self.invalid(
                "name must be non-empty lowercase [a-z0-9_-] (it doubles as a file stem)",
            ));
        }
        if self.days < 1 {
            return Err(self.invalid("days must be at least 1"));
        }
        self.horizon()?;
        let res = self.resolution()?;
        if res.minutes() > Resolution::HOUR_1.minutes() {
            return Err(self.invalid("resolution_min must be at most 60 (one market hour)"));
        }
        if !(0.0..=1.0).contains(&self.flexible_share) {
            return Err(self.invalid("flexible_share must be in [0, 1]"));
        }
        if !self.res_capacity_share.is_finite() || self.res_capacity_share < 0.0 {
            return Err(self.invalid("res_capacity_share must be finite and non-negative"));
        }
        match &self.workload {
            Workload::Households {
                households,
                archetype_mix,
                tariff_sensitivity,
            } => {
                let fleet = FleetConfig {
                    households: *households,
                    archetype_mix: archetype_mix.clone(),
                    ..FleetConfig::default()
                };
                fleet.validate()?;
                if !(0.0..=1.0).contains(tariff_sensitivity) {
                    return Err(self.invalid("tariff_sensitivity must be in [0, 1]"));
                }
            }
            Workload::Industrial { sites, .. } => {
                if *sites == 0 {
                    return Err(self.invalid("an industrial workload needs at least one site"));
                }
            }
            Workload::Mixed { households, sites } => {
                if *households == 0 || *sites == 0 {
                    return Err(
                        self.invalid("a mixed workload needs households and sites both >= 1")
                    );
                }
            }
            Workload::Dataset {
                path, consumers, ..
            } => {
                if path.is_empty() {
                    return Err(self.invalid("a dataset workload needs a non-empty path"));
                }
                if *consumers == 0 {
                    return Err(self.invalid("a dataset workload needs consumers >= 1"));
                }
            }
        }
        match self.extractor {
            ExtractorChoice::Frequency | ExtractorChoice::Schedule
                if matches!(
                    self.workload,
                    Workload::Dataset {
                        disaggregate: false,
                        ..
                    }
                ) =>
            {
                return Err(self.invalid(
                    "appliance-level extractors on a dataset workload need \
                     disaggregate = true (they require the fine series and the catalog)",
                ));
            }
            ExtractorChoice::Frequency | ExtractorChoice::Schedule
                if !matches!(
                    self.workload,
                    Workload::Households { .. } | Workload::Dataset { .. }
                ) =>
            {
                return Err(self.invalid(
                    "appliance-level extractors need a Households or Dataset workload \
                     (they require the fine series and the catalog)",
                ));
            }
            ExtractorChoice::MultiTariff if matches!(self.workload, Workload::Dataset { .. }) => {
                return Err(self.invalid(
                    "the multi-tariff extractor needs a simulated Households workload \
                     (the metered format carries no same-consumer one-tariff reference)",
                ));
            }
            ExtractorChoice::MultiTariff => {
                let ok = matches!(
                    &self.workload,
                    Workload::Households {
                        tariff_sensitivity, ..
                    } if *tariff_sensitivity > 0.0
                );
                if !ok {
                    return Err(self.invalid(
                        "the multi-tariff extractor needs a Households workload with \
                         tariff_sensitivity > 0 (it compares against a one-tariff reference)",
                    ));
                }
            }
            _ => {}
        }
        if self.aggregation == AggregationPolicy::Schedule && self.res_capacity_share <= 0.0 {
            return Err(self.invalid(
                "aggregation Schedule needs res_capacity_share > 0 (something to schedule against)",
            ));
        }
        Ok(())
    }
}

/// Load and validate one scenario spec file.
pub fn load_file(path: &Path) -> Result<Scenario, ScenarioError> {
    let display = path.display().to_string();
    let text = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
        path: display.clone(),
        what: e.to_string(),
    })?;
    let scenario: Scenario = serde_json::from_str(&text).map_err(|e| ScenarioError::Parse {
        path: display.clone(),
        what: e.to_string(),
    })?;
    scenario.validate()?;
    if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
        if stem != scenario.name {
            return Err(ScenarioError::Parse {
                path: display,
                what: format!(
                    "file stem `{stem}` does not match scenario name `{}`",
                    scenario.name
                ),
            });
        }
    }
    Ok(scenario)
}

/// Load every `*.json` scenario in `dir`, sorted by name, rejecting
/// duplicates. This is how the committed corpus is read by the CLI and
/// the golden-file suite.
pub fn load_dir(dir: &Path) -> Result<Vec<Scenario>, ScenarioError> {
    let entries = std::fs::read_dir(dir).map_err(|e| ScenarioError::Io {
        path: dir.display().to_string(),
        what: e.to_string(),
    })?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let mut scenarios = Vec::with_capacity(paths.len());
    for path in paths {
        let scenario = load_file(&path)?;
        if scenarios.iter().any(|s: &Scenario| s.name == scenario.name) {
            return Err(ScenarioError::DuplicateName(scenario.name));
        }
        scenarios.push(scenario);
    }
    Ok(scenarios)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn tiny(name: &str) -> Scenario {
        Scenario {
            name: name.into(),
            description: "test scenario".into(),
            workload: Workload::Households {
                households: 2,
                archetype_mix: vec![(HouseholdArchetype::Couple, 1.0)],
                tariff_sensitivity: 0.0,
            },
            start: "2013-03-18".into(),
            days: 1,
            resolution_min: 15,
            extractor: ExtractorChoice::Basic,
            flexible_share: 0.05,
            aggregation: AggregationPolicy::None,
            res_capacity_share: 0.0,
            seed: 7,
        }
    }

    #[test]
    fn valid_scenario_round_trips_through_json() {
        let s = tiny("round_trip");
        s.validate().unwrap();
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn domain_violations_are_rejected_with_context() {
        let mut s = tiny("bad");
        s.days = 0;
        assert!(s.validate().unwrap_err().to_string().contains("days"));

        let mut s = tiny("bad");
        s.resolution_min = 7;
        assert!(s.validate().is_err());

        let mut s = tiny("bad");
        s.resolution_min = 24 * 60;
        assert!(s.validate().unwrap_err().to_string().contains("at most 60"));

        let mut s = tiny("bad");
        s.flexible_share = 1.5;
        assert!(s.validate().is_err());

        let mut s = tiny("Bad Name");
        s.name = "Bad Name".into();
        assert!(s.validate().unwrap_err().to_string().contains("name"));

        let mut s = tiny("bad");
        s.start = "not-a-date".into();
        assert!(s.validate().is_err());
    }

    #[test]
    fn a_horizon_past_the_minute_axis_is_invalid_not_a_panic() {
        for days in [i64::MAX, 7_000_000_000_000_000] {
            let mut s = tiny("huge");
            s.days = days;
            let err = s.validate().unwrap_err();
            assert!(matches!(err, ScenarioError::Invalid { .. }), "{err:?}");
            assert!(err.to_string().contains(&format!("days {days}")), "{err}");
        }
    }

    #[test]
    fn extractor_workload_compatibility_is_enforced() {
        let mut s = tiny("industrial_frequency");
        s.workload = Workload::Industrial {
            sites: 1,
            pattern: ShiftPattern::TwoShift,
        };
        s.extractor = ExtractorChoice::Frequency;
        assert!(s
            .validate()
            .unwrap_err()
            .to_string()
            .contains("appliance-level"));

        let mut s = tiny("mt_without_tariff");
        s.extractor = ExtractorChoice::MultiTariff;
        assert!(s
            .validate()
            .unwrap_err()
            .to_string()
            .contains("tariff_sensitivity"));

        let mut s = tiny("schedule_without_res");
        s.aggregation = AggregationPolicy::Schedule;
        assert!(s
            .validate()
            .unwrap_err()
            .to_string()
            .contains("res_capacity_share"));
    }

    #[test]
    fn empty_archetype_mix_surfaces_the_fleet_error() {
        let mut s = tiny("empty_mix");
        s.workload = Workload::Households {
            households: 2,
            archetype_mix: vec![],
            tariff_sensitivity: 0.0,
        };
        let err = s.validate().unwrap_err();
        assert!(err.to_string().contains("archetype"), "{err}");
    }

    pub(crate) fn tiny_dataset(name: &str, path: &str, consumers: usize) -> Scenario {
        Scenario {
            workload: Workload::Dataset {
                path: path.into(),
                consumers,
                cleaning: DatasetCleaning::default(),
                disaggregate: false,
            },
            ..tiny(name)
        }
    }

    #[test]
    fn dataset_workload_round_trips_and_validates() {
        let s = tiny_dataset("ds", "datasets/unit", 3);
        s.validate().unwrap();
        let json = serde_json::to_string_pretty(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);

        let bad = tiny_dataset("ds", "", 3);
        assert!(bad.validate().unwrap_err().to_string().contains("path"));
        let bad = tiny_dataset("ds", "datasets/unit", 0);
        assert!(bad
            .validate()
            .unwrap_err()
            .to_string()
            .contains("consumers"));
    }

    #[test]
    fn dataset_extractor_compatibility_is_enforced() {
        // Appliance-level extractors need disaggregate = true.
        let mut s = tiny_dataset("ds", "datasets/unit", 2);
        s.extractor = ExtractorChoice::Frequency;
        assert!(s
            .validate()
            .unwrap_err()
            .to_string()
            .contains("disaggregate"));
        if let Workload::Dataset { disaggregate, .. } = &mut s.workload {
            *disaggregate = true;
        }
        s.validate().unwrap();

        // Multi-tariff has no reference series in the metered format.
        let mut s = tiny_dataset("ds", "datasets/unit", 2);
        s.extractor = ExtractorChoice::MultiTariff;
        assert!(s
            .validate()
            .unwrap_err()
            .to_string()
            .contains("one-tariff reference"));
    }

    #[test]
    fn load_dir_reads_sorted_and_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("flextract_spec_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["b_two", "a_one"] {
            let s = tiny(name);
            std::fs::write(
                dir.join(format!("{name}.json")),
                serde_json::to_string_pretty(&s).unwrap(),
            )
            .unwrap();
        }
        let loaded = load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].name, "a_one");
        assert_eq!(loaded[1].name, "b_two");

        // A stem that does not match the scenario name is an error.
        std::fs::write(
            dir.join("mismatch.json"),
            serde_json::to_string_pretty(&tiny("other_name")).unwrap(),
        )
        .unwrap();
        assert!(load_dir(&dir).is_err());
        std::fs::remove_file(dir.join("mismatch.json")).unwrap();

        // Malformed JSON is a parse error naming the file.
        std::fs::write(dir.join("broken.json"), "{ not json").unwrap();
        let err = load_dir(&dir).unwrap_err();
        assert!(err.to_string().contains("broken.json"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_dir_is_an_io_error() {
        assert!(matches!(
            load_dir(Path::new("/definitely/not/a/dir")),
            Err(ScenarioError::Io { .. })
        ));
    }
}
