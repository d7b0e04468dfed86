//! # flextract-eval
//!
//! Scoring for the extraction approaches — the part the paper could
//! only sketch ("there exist no real flex-offers in the world, thus,
//! the statistics … of the output of flexibility extraction cannot be
//! evaluated", §3.1). The simulator's ground truth makes it possible
//! here:
//!
//! * [`accuracy`] — *extrinsic* scoring against the simulator's
//!   ground-truth flexible load: interval-level precision/recall of the
//!   extracted energy.
//! * [`fidelity`] — the same extraction run on measured and on true
//!   series, compared: how much of the result survives metering
//!   degradation.
//!
//! [`fig5`] hosts the canonical Figure-5 day — a 96-interval series
//! engineered so the peak-based walk-through reproduces the paper's
//! numbers digit-for-digit (39.02 kWh total, peaks of 0.47/1.5/0.48/
//! 0.48/1.85/2.22/5.47/0.48 kWh, 1.951 kWh filter, 29 %/71 %
//! probabilities).
//!
//! The paper's evaluation itself (the share range, the approach
//! comparison, aggregation and RES scheduling) runs through the
//! scenario corpus (`flextract-scenario`), whose reports carry these
//! scores.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod fidelity;
pub mod fig5;

pub use accuracy::GroundTruthScore;
pub use fidelity::FidelityReport;
pub use fig5::{fig5_day, Fig5Expected, FIG5_EXPECTED};
