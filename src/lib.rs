//! # flextract
//!
//! Automated extraction of **flexibilities** (MIRABEL flex-offers) from
//! electricity consumption time series — a complete, executable
//! reproduction of:
//!
//! > D. Kaulakienė, L. Šikšnys, Y. Pitarch. *Towards the Automated
//! > Extraction of Flexibilities from Electricity Time Series.*
//! > Proceedings of the Joint EDBT/ICDT 2013 Workshops (EnDM),
//! > pp. 267–272. DOI 10.1145/2457317.2457361.
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`time`] | `flextract-time` | timestamps, durations, calendar, ranges |
//! | [`series`] | `flextract-series` | the energy time-series engine |
//! | [`flexoffer`] | `flextract-flexoffer` | the flex-offer object model |
//! | [`appliance`] | `flextract-appliance` | the Table-1 appliance catalog |
//! | [`sim`] | `flextract-sim` | household/RES simulation with ground truth |
//! | [`disagg`] | `flextract-disagg` | NILM-style appliance detection |
//! | [`core`] | `flextract-core` | **the five extraction approaches** |
//! | [`agg`] | `flextract-agg` | flex-offer aggregation & RES scheduling |
//! | [`eval`] | `flextract-eval` | ground-truth scoring, fidelity, the Figure-5 day |
//! | [`frame`] | `flextract-frame` | columnar chunk-stat frames (FXM2) + lazy scans |
//! | [`dataset`] | `flextract-dataset` | metered-series store, degradation, cleaning |
//! | [`scenario`] | `flextract-scenario` | declarative scenario corpus + parallel runner |
//! | [`analyze`] | `flextract-analyze` | workspace lint engine (static invariant gate) |
//!
//! ## Quickstart
//!
//! ```
//! use flextract::core::{ExtractionConfig, ExtractionInput, FlexibilityExtractor, PeakExtractor};
//! use flextract::sim::{simulate_household, HouseholdArchetype, HouseholdConfig};
//! use flextract::time::{Duration, Resolution, TimeRange};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // 1. A week of 15-min household consumption (simulated stand-in for
//! //    the paper's metering data).
//! let cfg = HouseholdConfig::new(1, HouseholdArchetype::FamilyWithChildren);
//! let week = TimeRange::starting_at("2013-03-18".parse().unwrap(), Duration::weeks(1)).unwrap();
//! let sim = simulate_household(&cfg, week);
//! let market = sim.series_at(Resolution::MIN_15);
//!
//! // 2. Peak-based extraction (§3.2): one flex-offer per day.
//! let extractor = PeakExtractor::new(ExtractionConfig::default());
//! let out = extractor
//!     .extract(&ExtractionInput::household(&market), &mut StdRng::seed_from_u64(42))
//!     .unwrap();
//! assert!(out.flex_offers.len() <= 7);
//! out.check_invariants(&market).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Flex-offer aggregation and RES-matching scheduling (refs \[4\]\[5\]).
pub mod agg {
    pub use flextract_agg::*;
}

/// The workspace lint engine (`flextract analyze`): static enforcement
/// of the determinism and panic-safety invariants.
pub mod analyze {
    pub use flextract_analyze::*;
}

/// The appliance catalog (paper Table 1, made executable).
pub mod appliance {
    pub use flextract_appliance::*;
}

/// The paper's contribution: the flexibility-extraction approaches.
pub mod core {
    pub use flextract_core::*;
}

/// Metered-series datasets: columnar store, degradation, cleaning.
pub mod dataset {
    pub use flextract_dataset::*;
}

/// Appliance-level load disaggregation (§4 step 1).
pub mod disagg {
    pub use flextract_disagg::*;
}

/// Ground-truth scoring, measured-vs-truth fidelity and the Figure-5 day.
pub mod eval {
    pub use flextract_eval::*;
}

/// The MIRABEL flex-offer object model (Figure 1).
pub mod flexoffer {
    pub use flextract_flexoffer::*;
}

/// Columnar chunk-stat frames: the FXM2 codec and lazy pushdown scans.
pub mod frame {
    pub use flextract_frame::*;
}

/// Declarative scenario corpus + parallel pipeline runner.
pub mod scenario {
    pub use flextract_scenario::*;
}

/// The fixed-interval energy time-series engine.
pub mod series {
    pub use flextract_series::*;
}

/// Synthetic household consumption and wind production.
pub mod sim {
    pub use flextract_sim::*;
}

/// Civil-time substrate.
pub mod time {
    pub use flextract_time::*;
}
