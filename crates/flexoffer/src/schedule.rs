//! Scheduled (instantiated) flex-offers.
//!
//! Scheduling "fixes" a flex-offer: the scheduler picks a concrete start
//! inside the start window and a concrete energy inside each slice's
//! bounds (paper refs \[2\]\[5\]). The result can be converted back into a
//! [`TimeSeries`] so the balance between scheduled demand and RES
//! production can be measured.

use crate::{FlexOffer, FlexOfferError};
use flextract_series::TimeSeries;
use flextract_time::{TimeRange, Timestamp};
use serde::{Deserialize, Serialize};

/// A flex-offer with its start time and slice energies decided.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledFlexOffer {
    offer: FlexOffer,
    start: Timestamp,
    energies: Vec<f64>,
}

impl ScheduledFlexOffer {
    /// Schedule `offer` at `start` with the given per-slice energies.
    ///
    /// Validates that `start` lies in the admissible window on the
    /// profile grid and every energy is inside its slice bounds.
    pub fn new(
        offer: FlexOffer,
        start: Timestamp,
        energies: Vec<f64>,
    ) -> Result<Self, FlexOfferError> {
        Self::check(&offer, start, &energies)?;
        Ok(ScheduledFlexOffer {
            offer,
            start,
            energies,
        })
    }

    /// The checks of [`ScheduledFlexOffer::new`], in the same order,
    /// without building the schedule: a scheduler can vet every
    /// candidate start and build a schedule only for the one it picks.
    pub fn check(
        offer: &FlexOffer,
        start: Timestamp,
        energies: &[f64],
    ) -> Result<(), FlexOfferError> {
        if start < offer.earliest_start() || start > offer.latest_start() {
            return Err(FlexOfferError::StartOutsideWindow);
        }
        if !start.is_aligned(offer.profile().resolution()) {
            return Err(FlexOfferError::UnalignedStart);
        }
        if energies.len() != offer.profile().len() {
            return Err(FlexOfferError::EnergyLengthMismatch {
                expected: offer.profile().len(),
                got: energies.len(),
            });
        }
        for (i, (e, slice)) in energies.iter().zip(offer.profile().slices()).enumerate() {
            if !slice.contains(*e) {
                return Err(FlexOfferError::EnergyOutOfBounds { slice: i });
            }
        }
        Ok(())
    }

    /// The *default schedule*: start at the earliest admissible instant
    /// with every slice at its minimum energy. This is MIRABEL's
    /// fall-back when no RES surplus re-schedules the offer.
    pub fn baseline(offer: FlexOffer) -> Self {
        let start = offer.earliest_start();
        let energies = offer.profile().slices().iter().map(|s| s.min).collect();
        ScheduledFlexOffer {
            offer,
            start,
            energies,
        }
    }

    /// The underlying offer.
    pub fn offer(&self) -> &FlexOffer {
        &self.offer
    }

    /// The chosen start instant.
    pub fn start(&self) -> Timestamp {
        self.start
    }

    /// The chosen per-slice energies (kWh).
    pub fn energies(&self) -> &[f64] {
        &self.energies
    }

    /// Total scheduled energy (kWh).
    pub fn total_energy(&self) -> f64 {
        self.energies.iter().sum()
    }

    /// The concrete execution span `[start, start + duration)`.
    pub fn execution_range(&self) -> TimeRange {
        TimeRange::starting_at(self.start, self.offer.profile().duration())
            .expect("profile duration is non-negative")
    }

    /// Remaining slack: how much later the offer could still start.
    pub fn remaining_flexibility(&self) -> flextract_time::Duration {
        self.offer.latest_start() - self.start
    }

    /// Materialise as an energy series on the profile's resolution.
    pub fn to_series(&self) -> TimeSeries {
        TimeSeries::new(
            self.start,
            self.offer.profile().resolution(),
            self.energies.clone(),
        )
        .expect("schedule start is validated as aligned")
    }
}

impl std::fmt::Display for ScheduledFlexOffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} @ {} ({:.2} kWh)",
            self.offer.id(),
            self.start,
            self.total_energy()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EnergyRange;
    use flextract_time::{Duration, Resolution};

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    fn offer() -> FlexOffer {
        FlexOffer::builder(7)
            .start_window(ts("2013-03-18 22:00"), ts("2013-03-19 05:00"))
            .slices(
                Resolution::MIN_15,
                vec![EnergyRange::new(5.0, 7.0).unwrap(); 8],
            )
            .build()
            .unwrap()
    }

    #[test]
    fn valid_schedule_round_trips_to_series() {
        let s = ScheduledFlexOffer::new(offer(), ts("2013-03-19 01:00"), vec![6.0; 8]).unwrap();
        assert!((s.total_energy() - 48.0).abs() < 1e-9);
        let series = s.to_series();
        assert_eq!(series.start(), ts("2013-03-19 01:00"));
        assert_eq!(series.len(), 8);
        assert!((series.total_energy() - 48.0).abs() < 1e-9);
        assert_eq!(
            s.execution_range(),
            TimeRange::new(ts("2013-03-19 01:00"), ts("2013-03-19 03:00")).unwrap()
        );
        assert_eq!(s.remaining_flexibility(), Duration::hours(4));
    }

    #[test]
    fn baseline_uses_earliest_and_minimums() {
        let b = ScheduledFlexOffer::baseline(offer());
        assert_eq!(b.start(), ts("2013-03-18 22:00"));
        assert!((b.total_energy() - 40.0).abs() < 1e-9);
        assert_eq!(b.remaining_flexibility(), Duration::hours(7));
    }

    #[test]
    fn start_window_is_enforced() {
        let early = ScheduledFlexOffer::new(offer(), ts("2013-03-18 21:45"), vec![6.0; 8]);
        assert_eq!(early.unwrap_err(), FlexOfferError::StartOutsideWindow);
        let late = ScheduledFlexOffer::new(offer(), ts("2013-03-19 05:15"), vec![6.0; 8]);
        assert_eq!(late.unwrap_err(), FlexOfferError::StartOutsideWindow);
        // Boundary instants are admissible.
        assert!(ScheduledFlexOffer::new(offer(), ts("2013-03-18 22:00"), vec![6.0; 8]).is_ok());
        assert!(ScheduledFlexOffer::new(offer(), ts("2013-03-19 05:00"), vec![6.0; 8]).is_ok());
    }

    #[test]
    fn alignment_is_enforced() {
        let res = ScheduledFlexOffer::new(offer(), ts("2013-03-18 22:07"), vec![6.0; 8]);
        assert_eq!(res.unwrap_err(), FlexOfferError::UnalignedStart);
    }

    #[test]
    fn energy_bounds_are_enforced() {
        let res = ScheduledFlexOffer::new(offer(), ts("2013-03-18 22:00"), vec![4.0; 8]);
        assert_eq!(
            res.unwrap_err(),
            FlexOfferError::EnergyOutOfBounds { slice: 0 }
        );
        let mut mixed = vec![6.0; 8];
        mixed[5] = 7.5;
        let res = ScheduledFlexOffer::new(offer(), ts("2013-03-18 22:00"), mixed);
        assert_eq!(
            res.unwrap_err(),
            FlexOfferError::EnergyOutOfBounds { slice: 5 }
        );
    }

    #[test]
    fn length_mismatch_is_reported() {
        let res = ScheduledFlexOffer::new(offer(), ts("2013-03-18 22:00"), vec![6.0; 7]);
        assert_eq!(
            res.unwrap_err(),
            FlexOfferError::EnergyLengthMismatch {
                expected: 8,
                got: 7
            }
        );
    }

    #[test]
    fn display_summarises() {
        let s = ScheduledFlexOffer::baseline(offer());
        let shown = s.to_string();
        assert!(shown.contains("fo#7"), "{shown}");
        assert!(shown.contains("40.00 kWh"), "{shown}");
    }

    #[test]
    fn serde_round_trip() {
        let s = ScheduledFlexOffer::baseline(offer());
        let json = serde_json::to_string(&s).unwrap();
        let back: ScheduledFlexOffer = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
