//! # flextract-disagg
//!
//! Appliance-level load disaggregation — "step 1" of the paper's two
//! appliance-level extraction approaches (§4): given a total household
//! consumption series and the appliance catalog, recover *which
//! appliance ran when*.
//!
//! The paper defers this machinery to future work because its data was
//! too coarse ("the granularity of the available time series is not
//! sufficient (only 15 min)") and points at the NILM literature
//! (refs \[8\]\[9\]\[10\]). This crate implements the classic pipeline on the
//! simulator's 1-minute series:
//!
//! 1. [`events`] — rising/falling power-edge detection, yielding
//!    candidate cycle starts;
//! 2. [`matching`] — per-appliance template matching with least-squares
//!    intensity estimation and greedy subtract-and-repeat extraction;
//! 3. [`frequency`] — usage-frequency mining over the detected
//!    activations (§4.1 step 1's "shortlist of the possibly used
//!    appliances and their frequency usage table");
//! 4. [`schedule`] — usage-schedule mining per day-kind and hour
//!    (§4.2 step 1's "shortlist … and their usage schedule").
//!
//! Because it runs at any resolution, the same pipeline also
//! *quantifies* the paper's 15-minute caveat: the
//! `disaggregation_quality_collapses_at_15min` integration test feeds
//! it 1- and 15-minute versions of the same ground-truth simulations
//! and asserts the accuracy collapse.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod frequency;
pub mod matching;
pub mod pipeline;
pub mod schedule;

pub use events::{detect_edges, Edge, EdgeDirection};
pub use frequency::{ApplianceUsageRow, FrequencyTable};
pub use matching::{detect_activations, DetectedActivation, MatchConfig, MatchMetric};
pub use pipeline::{disaggregate, DisaggConfig, DisaggResult};
pub use schedule::{MinedSchedule, ScheduleSlot};
