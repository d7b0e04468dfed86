//! The flex-offer data model: energy ranges, profiles, and the offer
//! itself with its lifecycle attributes and validation invariants.

use crate::FlexOfferError;
use flextract_time::{Duration, Resolution, TimeRange, Timestamp};
use serde::{Deserialize, Serialize};

/// Identifier of a flex-offer (unique within one extraction run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct FlexOfferId(pub u64);

impl std::fmt::Display for FlexOfferId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fo#{}", self.0)
    }
}

/// An inclusive `[min, max]` energy bound for one profile slice, in kWh.
///
/// Figure 1 renders `min` as the solid area ("minimum required energy")
/// and `max − min` as the dotted area ("energy flexibility").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyRange {
    /// Minimum required energy (kWh), non-negative.
    pub min: f64,
    /// Maximum usable energy (kWh), at least `min`.
    pub max: f64,
}

impl EnergyRange {
    /// A validated range; requires `0 ≤ min ≤ max` and finite bounds.
    pub fn new(min: f64, max: f64) -> Result<Self, FlexOfferError> {
        if !(min.is_finite() && max.is_finite()) || min < 0.0 || max < min {
            return Err(FlexOfferError::InvalidEnergyRange { min, max });
        }
        Ok(EnergyRange { min, max })
    }

    /// A degenerate range with `min == max == amount` (no energy
    /// flexibility).
    pub fn exact(amount: f64) -> Result<Self, FlexOfferError> {
        Self::new(amount, amount)
    }

    /// Width of the range — the slice's energy flexibility (kWh).
    pub fn flexibility(&self) -> f64 {
        self.max - self.min
    }

    /// Midpoint of the range.
    pub fn midpoint(&self) -> f64 {
        0.5 * (self.min + self.max)
    }

    /// `true` if `e` lies within the bounds (inclusive, with a small
    /// numeric tolerance).
    pub fn contains(&self, e: f64) -> bool {
        e >= self.min - 1e-9 && e <= self.max + 1e-9
    }

    /// Clamp `e` into the bounds.
    pub fn clamp(&self, e: f64) -> f64 {
        e.clamp(self.min, self.max)
    }

    /// Slice-wise sum of two ranges (used by aggregation).
    pub fn sum(&self, other: &EnergyRange) -> EnergyRange {
        EnergyRange {
            min: self.min + other.min,
            max: self.max + other.max,
        }
    }
}

/// A flex-offer's energy profile: consecutive slices of one resolution,
/// each carrying an [`EnergyRange`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Profile {
    resolution: Resolution,
    slices: Vec<EnergyRange>,
}

impl Profile {
    /// A validated profile; requires at least one slice.
    pub fn new(resolution: Resolution, slices: Vec<EnergyRange>) -> Result<Self, FlexOfferError> {
        if slices.is_empty() {
            return Err(FlexOfferError::EmptyProfile);
        }
        Ok(Profile { resolution, slices })
    }

    /// Slice width.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// The slices in order.
    pub fn slices(&self) -> &[EnergyRange] {
        &self.slices
    }

    /// Number of slices.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// `false` — profiles are never empty once constructed; provided for
    /// idiomatic completeness.
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// Total wall-clock duration of the profile.
    pub fn duration(&self) -> Duration {
        self.resolution.interval() * self.slices.len() as i64
    }

    /// Sum of the slice bounds: the offer-level `[min, max]` energy.
    pub fn total_energy(&self) -> EnergyRange {
        EnergyRange {
            min: self.slices.iter().map(|s| s.min).sum(),
            max: self.slices.iter().map(|s| s.max).sum(),
        }
    }

    /// Total energy flexibility: `Σ (max − min)` over slices (kWh).
    pub fn energy_flexibility(&self) -> f64 {
        self.slices.iter().map(EnergyRange::flexibility).sum()
    }
}

/// A MIRABEL flex-offer (paper Figure 1).
///
/// Invariants enforced by [`FlexOfferBuilder::build`]:
///
/// * the profile is non-empty with valid slice ranges;
/// * `earliest_start ≤ latest_start`, both aligned to the profile
///   resolution;
/// * lifecycle ordering `creation ≤ acceptance ≤ assignment ≤
///   earliest_start`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlexOffer {
    id: FlexOfferId,
    profile: Profile,
    earliest_start: Timestamp,
    latest_start: Timestamp,
    creation_time: Timestamp,
    acceptance_deadline: Timestamp,
    assignment_deadline: Timestamp,
}

impl FlexOffer {
    /// Start building a flex-offer with the given id.
    pub fn builder(id: u64) -> FlexOfferBuilder {
        FlexOfferBuilder::new(FlexOfferId(id))
    }

    /// The offer id.
    pub fn id(&self) -> FlexOfferId {
        self.id
    }

    /// The energy profile.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Earliest admissible start instant.
    pub fn earliest_start(&self) -> Timestamp {
        self.earliest_start
    }

    /// Latest admissible start instant.
    pub fn latest_start(&self) -> Timestamp {
        self.latest_start
    }

    /// Latest end: `latest_start + profile duration` (Figure 1's
    /// "latest end time").
    pub fn latest_end(&self) -> Timestamp {
        self.latest_start + self.profile.duration()
    }

    /// When the offer was created.
    pub fn creation_time(&self) -> Timestamp {
        self.creation_time
    }

    /// Deadline by which the market must accept the offer.
    pub fn acceptance_deadline(&self) -> Timestamp {
        self.acceptance_deadline
    }

    /// Deadline by which a start time must be assigned.
    pub fn assignment_deadline(&self) -> Timestamp {
        self.assignment_deadline
    }

    /// Start-time flexibility: `latest_start − earliest_start`
    /// (Figure 1's "start time flexibility").
    pub fn time_flexibility(&self) -> Duration {
        self.latest_start - self.earliest_start
    }

    /// Total `[min, max]` energy of the profile.
    pub fn total_energy(&self) -> EnergyRange {
        self.profile.total_energy()
    }

    /// Total energy flexibility (kWh).
    pub fn energy_flexibility(&self) -> f64 {
        self.profile.energy_flexibility()
    }

    /// The whole window in which the offer may execute:
    /// `[earliest_start, latest_end)`.
    pub fn execution_window(&self) -> TimeRange {
        TimeRange::new(self.earliest_start, self.latest_end())
            .expect("latest_end is never before earliest_start")
    }

    /// All admissible start instants on the profile's resolution grid.
    pub fn candidate_starts(&self) -> Vec<Timestamp> {
        (0..self.candidate_start_count())
            .map(|i| self.candidate_start(i))
            .collect()
    }

    /// How many instants [`FlexOffer::candidate_starts`] lists, without
    /// listing them.
    pub fn candidate_start_count(&self) -> usize {
        let step = self.profile.resolution().minutes();
        let n = (self.latest_start - self.earliest_start).as_minutes() / step + 1;
        n.max(0) as usize
    }

    /// The `i`-th instant of [`FlexOffer::candidate_starts`]: `i`
    /// profile intervals after the earliest start.
    pub fn candidate_start(&self, i: usize) -> Timestamp {
        self.earliest_start + Duration::minutes(i as i64 * self.profile.resolution().minutes())
    }

    /// Re-check every invariant (useful after deserialisation).
    pub fn validate(&self) -> Result<(), FlexOfferError> {
        for s in self.profile.slices() {
            EnergyRange::new(s.min, s.max)?;
        }
        if self.profile.is_empty() {
            return Err(FlexOfferError::EmptyProfile);
        }
        if self.latest_start < self.earliest_start {
            return Err(FlexOfferError::InvertedStartWindow);
        }
        if !self.earliest_start.is_aligned(self.profile.resolution())
            || !self.latest_start.is_aligned(self.profile.resolution())
        {
            return Err(FlexOfferError::UnalignedStart);
        }
        if self.creation_time > self.acceptance_deadline {
            return Err(FlexOfferError::LifecycleOutOfOrder {
                what: "creation after acceptance deadline",
            });
        }
        if self.acceptance_deadline > self.assignment_deadline {
            return Err(FlexOfferError::LifecycleOutOfOrder {
                what: "acceptance deadline after assignment deadline",
            });
        }
        if self.assignment_deadline > self.earliest_start {
            return Err(FlexOfferError::LifecycleOutOfOrder {
                what: "assignment deadline after earliest start",
            });
        }
        Ok(())
    }
}

impl std::fmt::Display for FlexOffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total = self.total_energy();
        write!(
            f,
            "{} [{} .. {}] +{} flex, {} × {}, {:.2}-{:.2} kWh",
            self.id,
            self.earliest_start,
            self.latest_start,
            self.time_flexibility(),
            self.profile.len(),
            self.profile.resolution(),
            total.min,
            total.max,
        )
    }
}

/// Builder for [`FlexOffer`] enforcing all invariants at `build`.
///
/// Lifecycle instants default to sensible MIRABEL offsets when omitted:
/// creation 24 h before earliest start, acceptance 2 h after creation,
/// assignment 1 h before earliest start.
#[derive(Debug, Clone)]
pub struct FlexOfferBuilder {
    id: FlexOfferId,
    profile: Option<Profile>,
    earliest_start: Option<Timestamp>,
    latest_start: Option<Timestamp>,
    creation_time: Option<Timestamp>,
    acceptance_deadline: Option<Timestamp>,
    assignment_deadline: Option<Timestamp>,
}

impl FlexOfferBuilder {
    fn new(id: FlexOfferId) -> Self {
        FlexOfferBuilder {
            id,
            profile: None,
            earliest_start: None,
            latest_start: None,
            creation_time: None,
            acceptance_deadline: None,
            assignment_deadline: None,
        }
    }

    /// Set the admissible start window `[earliest, latest]` (inclusive).
    pub fn start_window(mut self, earliest: Timestamp, latest: Timestamp) -> Self {
        self.earliest_start = Some(earliest);
        self.latest_start = Some(latest);
        self
    }

    /// Provide the profile as raw slices.
    pub fn slices(mut self, resolution: Resolution, slices: Vec<EnergyRange>) -> Self {
        self.profile = Profile::new(resolution, slices).ok();
        self
    }

    /// Provide a ready profile.
    pub fn profile(mut self, profile: Profile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// Set the creation time.
    pub fn created_at(mut self, t: Timestamp) -> Self {
        self.creation_time = Some(t);
        self
    }

    /// Set the acceptance deadline.
    pub fn acceptance_by(mut self, t: Timestamp) -> Self {
        self.acceptance_deadline = Some(t);
        self
    }

    /// Set the assignment deadline.
    pub fn assignment_by(mut self, t: Timestamp) -> Self {
        self.assignment_deadline = Some(t);
        self
    }

    /// Validate and produce the offer.
    pub fn build(self) -> Result<FlexOffer, FlexOfferError> {
        let profile = self.profile.ok_or(FlexOfferError::EmptyProfile)?;
        let earliest_start = self
            .earliest_start
            .ok_or(FlexOfferError::InvertedStartWindow)?;
        let latest_start = self
            .latest_start
            .ok_or(FlexOfferError::InvertedStartWindow)?;
        let creation_time = self
            .creation_time
            .unwrap_or(earliest_start - Duration::hours(24));
        let acceptance_deadline = self
            .acceptance_deadline
            .unwrap_or_else(|| (creation_time + Duration::hours(2)).min(earliest_start));
        let assignment_deadline = self
            .assignment_deadline
            .unwrap_or_else(|| (earliest_start - Duration::hours(1)).max(acceptance_deadline));
        let offer = FlexOffer {
            id: self.id,
            profile,
            earliest_start,
            latest_start,
            creation_time,
            acceptance_deadline,
            assignment_deadline,
        };
        offer.validate()?;
        Ok(offer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    fn slice(min: f64, max: f64) -> EnergyRange {
        EnergyRange::new(min, max).unwrap()
    }

    /// The paper's Figure-1 EV offer.
    fn fig1() -> FlexOffer {
        let per = 50.0 / 8.0;
        FlexOffer::builder(1)
            .start_window(ts("2013-03-18 22:00"), ts("2013-03-19 05:00"))
            .slices(Resolution::MIN_15, vec![slice(per * 0.9, per); 8])
            .build()
            .unwrap()
    }

    #[test]
    fn energy_range_invariants() {
        assert!(EnergyRange::new(1.0, 2.0).is_ok());
        assert!(EnergyRange::new(-0.1, 2.0).is_err());
        assert!(EnergyRange::new(2.0, 1.0).is_err());
        assert!(EnergyRange::new(f64::NAN, 1.0).is_err());
        assert!(EnergyRange::new(0.0, f64::INFINITY).is_err());
        let r = slice(1.0, 3.0);
        assert!((r.flexibility() - 2.0).abs() < 1e-12);
        assert!((r.midpoint() - 2.0).abs() < 1e-12);
        assert!(r.contains(1.0) && r.contains(3.0) && !r.contains(3.5));
        assert_eq!(r.clamp(5.0), 3.0);
        assert_eq!(r.clamp(0.0), 1.0);
        let s = r.sum(&slice(0.5, 0.5));
        assert_eq!((s.min, s.max), (1.5, 3.5));
        let e = EnergyRange::exact(2.0).unwrap();
        assert_eq!(e.flexibility(), 0.0);
    }

    #[test]
    fn profile_accessors() {
        let p = Profile::new(Resolution::MIN_15, vec![slice(1.0, 2.0); 8]).unwrap();
        assert_eq!(p.len(), 8);
        assert!(!p.is_empty());
        assert_eq!(p.duration(), Duration::hours(2));
        let total = p.total_energy();
        assert!((total.min - 8.0).abs() < 1e-12);
        assert!((total.max - 16.0).abs() < 1e-12);
        assert!((p.energy_flexibility() - 8.0).abs() < 1e-12);
        assert!(Profile::new(Resolution::MIN_15, vec![]).is_err());
    }

    #[test]
    fn figure_1_attributes() {
        let offer = fig1();
        // "the charging … should start between 10PM and 5AM"
        assert_eq!(offer.time_flexibility(), Duration::hours(7));
        // "the charging takes 2 hours in total"
        assert_eq!(offer.profile().duration(), Duration::hours(2));
        // "7am, latest end time"
        assert_eq!(offer.latest_end(), ts("2013-03-19 07:00"));
        // "it requires 50kWh to be fully charged"
        assert!((offer.total_energy().max - 50.0).abs() < 1e-9);
        assert!(offer.energy_flexibility() > 0.0);
        assert_eq!(
            offer.execution_window(),
            TimeRange::new(ts("2013-03-18 22:00"), ts("2013-03-19 07:00")).unwrap()
        );
        assert!(offer.validate().is_ok());
    }

    #[test]
    fn candidate_starts_enumerate_the_window() {
        let offer = fig1();
        let starts = offer.candidate_starts();
        // 7 h window at 15-min steps, inclusive: 29 candidates.
        assert_eq!(starts.len(), 29);
        assert_eq!(starts[0], offer.earliest_start());
        assert_eq!(*starts.last().unwrap(), offer.latest_start());
        // The count and the indexed start agree with the listing.
        assert_eq!(offer.candidate_start_count(), starts.len());
        for (i, &s) in starts.iter().enumerate() {
            assert_eq!(offer.candidate_start(i), s);
        }
        // Degenerate window: single start.
        let fixed = FlexOffer::builder(2)
            .start_window(ts("2013-03-18 22:00"), ts("2013-03-18 22:00"))
            .slices(Resolution::MIN_15, vec![slice(1.0, 1.0)])
            .build()
            .unwrap();
        assert_eq!(fixed.candidate_starts().len(), 1);
        assert_eq!(fixed.time_flexibility(), Duration::ZERO);
    }

    #[test]
    fn builder_defaults_respect_lifecycle() {
        let offer = fig1();
        assert!(offer.creation_time() <= offer.acceptance_deadline());
        assert!(offer.acceptance_deadline() <= offer.assignment_deadline());
        assert!(offer.assignment_deadline() <= offer.earliest_start());
    }

    #[test]
    fn builder_rejects_inverted_window() {
        let res = FlexOffer::builder(1)
            .start_window(ts("2013-03-19 05:00"), ts("2013-03-18 22:00"))
            .slices(Resolution::MIN_15, vec![slice(1.0, 2.0)])
            .build();
        assert_eq!(res.unwrap_err(), FlexOfferError::InvertedStartWindow);
    }

    #[test]
    fn builder_rejects_missing_profile() {
        let res = FlexOffer::builder(1)
            .start_window(ts("2013-03-18 22:00"), ts("2013-03-19 05:00"))
            .build();
        assert_eq!(res.unwrap_err(), FlexOfferError::EmptyProfile);
    }

    #[test]
    fn builder_rejects_unaligned_window() {
        let res = FlexOffer::builder(1)
            .start_window(ts("2013-03-18 22:07"), ts("2013-03-19 05:00"))
            .slices(Resolution::MIN_15, vec![slice(1.0, 2.0)])
            .build();
        assert_eq!(res.unwrap_err(), FlexOfferError::UnalignedStart);
    }

    #[test]
    fn builder_rejects_bad_lifecycle() {
        let res = FlexOffer::builder(1)
            .start_window(ts("2013-03-18 22:00"), ts("2013-03-19 05:00"))
            .slices(Resolution::MIN_15, vec![slice(1.0, 2.0)])
            .created_at(ts("2013-03-18 23:00")) // after earliest start
            .build();
        assert!(matches!(
            res,
            Err(FlexOfferError::LifecycleOutOfOrder { .. })
        ));
        let res = FlexOffer::builder(1)
            .start_window(ts("2013-03-18 22:00"), ts("2013-03-19 05:00"))
            .slices(Resolution::MIN_15, vec![slice(1.0, 2.0)])
            .created_at(ts("2013-03-18 08:00"))
            .acceptance_by(ts("2013-03-18 06:00")) // before creation
            .build();
        assert!(matches!(
            res,
            Err(FlexOfferError::LifecycleOutOfOrder { .. })
        ));
    }

    #[test]
    fn serde_round_trip_preserves_validity() {
        let offer = fig1();
        let json = serde_json::to_string(&offer).unwrap();
        let back: FlexOffer = serde_json::from_str(&json).unwrap();
        assert_eq!(back, offer);
        assert!(back.validate().is_ok());
    }

    #[test]
    fn display_summarises() {
        let shown = fig1().to_string();
        assert!(shown.contains("fo#1"), "{shown}");
        assert!(shown.contains("7h00m"), "{shown}");
        assert!(shown.contains("8 × 15min"), "{shown}");
    }
}
