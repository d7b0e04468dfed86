//! # flextract-scenario
//!
//! A declarative **scenario corpus** and a **parallel pipeline runner**
//! for the whole flextract stack.
//!
//! The paper's evaluation (§5–6) is a handful of fixed experiments;
//! real flexibility varies along time, resolution, tariff and resource
//! dimensions. A [`Scenario`] names one point in that space — workload,
//! horizon, market resolution, extraction approach, flexible share,
//! aggregation policy, RES sizing, seed — as a JSON file, and the
//! [`ScenarioRunner`] executes simulate→extract→aggregate→evaluate for
//! it, emitting a deterministic [`ScenarioReport`]. Because runs are
//! seeded, every committed scenario doubles as a golden-file regression
//! test pinning the whole pipeline (see `tests/scenario_golden.rs` at
//! the workspace root).
//!
//! ```
//! use flextract_scenario::{
//!     AggregationPolicy, ExtractorChoice, Scenario, ScenarioRunner, Workload,
//! };
//! use flextract_sim::HouseholdArchetype;
//!
//! let scenario = Scenario {
//!     name: "doc_example".into(),
//!     description: "two households, one day, peak-based".into(),
//!     workload: Workload::Households {
//!         households: 2,
//!         archetype_mix: vec![(HouseholdArchetype::Couple, 1.0)],
//!         tariff_sensitivity: 0.0,
//!     },
//!     start: "2013-03-18".into(),
//!     days: 1,
//!     resolution_min: 15,
//!     extractor: ExtractorChoice::Peak,
//!     flexible_share: 0.05,
//!     aggregation: AggregationPolicy::None,
//!     res_capacity_share: 0.0,
//!     seed: 2013,
//! };
//! let outcome = ScenarioRunner::default().run(&scenario).unwrap();
//! assert_eq!(outcome.report.consumers, 2);
//! assert!(outcome.report.extracted_kwh <= outcome.report.total_energy_kwh);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod report;
mod runner;
mod source;
mod spec;

pub use export::{export_dataset, ExportOptions, ExportSummary};
pub use report::{
    AggregationReport, IngestionReport, ScenarioOutcome, ScenarioReport, ScheduleReport,
};
pub use runner::ScenarioRunner;
pub use spec::{
    load_dir, load_file, AggregationPolicy, DatasetCleaning, ExtractorChoice, Scenario, Workload,
};

/// Per-consumer-index RNG stream separation, shared by the runner's
/// extraction legs and the exporter's degradation draws (the exporter
/// additionally salts it) so the two streams stay aligned per index.
pub(crate) const CONSUMER_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Errors surfaced by scenario loading, validation, and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A spec file or directory could not be read.
    Io {
        /// The offending path.
        path: String,
        /// The underlying OS error.
        what: String,
    },
    /// A spec file did not parse as a scenario.
    Parse {
        /// The offending path.
        path: String,
        /// The underlying parse error.
        what: String,
    },
    /// A spec field is out of its valid domain or the combination is
    /// not runnable.
    Invalid {
        /// The scenario's name.
        scenario: String,
        /// Which field/combination, and why.
        what: String,
    },
    /// Two corpus files declare the same scenario name.
    DuplicateName(String),
    /// The fleet configuration is unsampleable.
    Fleet(flextract_sim::FleetConfigError),
    /// The extraction stage failed.
    Extraction(flextract_core::ExtractionError),
    /// The aggregation or scheduling stage failed.
    Agg(flextract_agg::AggError),
    /// A series operation failed.
    Series(flextract_series::SeriesError),
    /// The dataset layer failed (open, decode, clean, or export).
    Dataset(flextract_dataset::DatasetError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Io { path, what } => write!(f, "cannot read {path}: {what}"),
            ScenarioError::Parse { path, what } => write!(f, "invalid scenario {path}: {what}"),
            ScenarioError::Invalid { scenario, what } => {
                write!(f, "scenario `{scenario}`: {what}")
            }
            ScenarioError::DuplicateName(name) => {
                write!(f, "duplicate scenario name `{name}` in corpus")
            }
            ScenarioError::Fleet(e) => write!(f, "fleet config: {e}"),
            ScenarioError::Extraction(e) => write!(f, "extraction failed: {e}"),
            ScenarioError::Agg(e) => write!(f, "aggregation/scheduling failed: {e}"),
            ScenarioError::Series(e) => write!(f, "series error: {e}"),
            ScenarioError::Dataset(e) => write!(f, "dataset error: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<flextract_sim::FleetConfigError> for ScenarioError {
    fn from(e: flextract_sim::FleetConfigError) -> Self {
        ScenarioError::Fleet(e)
    }
}

impl From<flextract_core::ExtractionError> for ScenarioError {
    fn from(e: flextract_core::ExtractionError) -> Self {
        ScenarioError::Extraction(e)
    }
}

impl From<flextract_agg::AggError> for ScenarioError {
    fn from(e: flextract_agg::AggError) -> Self {
        ScenarioError::Agg(e)
    }
}

impl From<flextract_series::SeriesError> for ScenarioError {
    fn from(e: flextract_series::SeriesError) -> Self {
        ScenarioError::Series(e)
    }
}

impl From<flextract_dataset::DatasetError> for ScenarioError {
    fn from(e: flextract_dataset::DatasetError) -> Self {
        ScenarioError::Dataset(e)
    }
}

#[cfg(test)]
mod lib_tests {
    use super::*;

    #[test]
    fn error_display_names_the_culprit() {
        let e = ScenarioError::Io {
            path: "scenarios/x.json".into(),
            what: "No such file".into(),
        };
        assert!(e.to_string().contains("scenarios/x.json"));
        let e = ScenarioError::Invalid {
            scenario: "stress".into(),
            what: "days must be at least 1".into(),
        };
        assert!(e.to_string().contains("stress"));
        assert!(e.to_string().contains("days"));
        let e = ScenarioError::DuplicateName("twin".into());
        assert!(e.to_string().contains("twin"));
        let e: ScenarioError = flextract_sim::FleetConfigError::EmptyArchetypeMix.into();
        assert!(e.to_string().contains("archetype"));
        let e: ScenarioError = flextract_series::SeriesError::Empty.into();
        assert!(e.to_string().contains("series"));
        let e: ScenarioError = flextract_agg::AggError::NoOffers.into();
        assert!(e.to_string().contains("aggregation"));
        let e: ScenarioError = flextract_core::ExtractionError::EmptySeries.into();
        assert!(e.to_string().contains("extraction"));
    }
}
