//! # flextract-eval
//!
//! Evaluation suite for the extraction approaches — the part the paper
//! could only sketch ("there exist no real flex-offers in the world,
//! thus, the statistics … of the output of flexibility extraction
//! cannot be evaluated", §3.1). Two measurement angles make it
//! possible here:
//!
//! * [`realism`] — *intrinsic* statistics of an extraction output: the
//!   paper's own candidates (correlation, sparseness, autocorrelation)
//!   plus temporal-dispersion entropy (quantifying §1's criticism that
//!   random offers are "uniformly dispatched within the day") and
//!   peak-hour coverage.
//! * [`accuracy`] — *extrinsic* scoring against the simulator's
//!   ground-truth flexible load: interval-level precision/recall of the
//!   extracted energy.
//!
//! [`fig5`] hosts the canonical Figure-5 day — a 96-interval series
//! engineered so the peak-based walk-through reproduces the paper's
//! numbers digit-for-digit (39.02 kWh total, peaks of 0.47/1.5/0.48/
//! 0.48/1.85/2.22/5.47/0.48 kWh, 1.951 kWh filter, 29 %/71 %
//! probabilities).
//!
//! [`experiments`] wires everything into the E5–E10 experiment runners
//! listed in README's "Figure and experiment binaries", each returning
//! a rendered table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod experiments;
pub mod fidelity;
pub mod fig5;
pub mod realism;

pub use accuracy::GroundTruthScore;
pub use fidelity::FidelityReport;
pub use fig5::{fig5_day, Fig5Expected, FIG5_EXPECTED};
pub use realism::RealismReport;
