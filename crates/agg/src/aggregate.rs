//! Flex-offer aggregation and disaggregation (paper ref \[4\]).
//!
//! Offers are grouped on a similarity grid over (earliest start,
//! profile duration, time flexibility) and each group is summed into a
//! macro offer with the **start-alignment** rule:
//!
//! * the aggregate's earliest start is the group's earliest member
//!   start; each member profile is placed at its own fixed offset from
//!   it;
//! * the aggregate's time flexibility is the *minimum* member
//!   flexibility — shifting the aggregate by δ shifts every member by
//!   δ, which stays inside every member's window. The rule loses some
//!   flexibility (the price of aggregation the SSDBM paper studies)
//!   but is always sound.
//!
//! Disaggregation maps a scheduled aggregate back to per-member
//! schedules exactly: each member starts at `aggregate start + its
//! offset`, and each aggregate slice's energy is split by the members'
//! per-slice `[min, max]` bands at a common interpolation parameter, so
//! member bounds hold and the slice sum is exact.

use crate::AggError;
use flextract_flexoffer::{EnergyRange, FlexOffer, FlexOfferId, ScheduledFlexOffer};
use flextract_time::Duration;
#[cfg(test)]
use flextract_time::Timestamp;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Bucket widths of the similarity grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregationConfig {
    /// Earliest-start bucket width.
    pub est_bucket: Duration,
    /// Time-flexibility bucket width.
    pub flexibility_bucket: Duration,
    /// Profile-duration bucket width.
    pub duration_bucket: Duration,
}

impl Default for AggregationConfig {
    fn default() -> Self {
        AggregationConfig {
            est_bucket: Duration::hours(2),
            flexibility_bucket: Duration::hours(2),
            duration_bucket: Duration::hours(1),
        }
    }
}

/// A macro flex-offer with the bookkeeping to disaggregate it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregatedFlexOffer {
    /// The aggregate itself (a perfectly ordinary flex-offer, which is
    /// the point: the market layer treats micro and macro offers
    /// uniformly).
    pub offer: FlexOffer,
    /// The aggregated members: `(member, offset of its profile from
    /// the aggregate's earliest start)`.
    pub members: Vec<(FlexOffer, Duration)>,
}

impl AggregatedFlexOffer {
    /// Number of aggregated members.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// Time flexibility lost by aggregation, summed over members
    /// (each member gave up `member_flex − aggregate_flex`).
    pub fn flexibility_loss(&self) -> Duration {
        let agg_flex = self.offer.time_flexibility();
        self.members
            .iter()
            .map(|(m, _)| m.time_flexibility() - agg_flex)
            .sum()
    }

    /// Split a schedule of the aggregate into exact member schedules.
    pub fn disaggregate(
        &self,
        scheduled: &ScheduledFlexOffer,
    ) -> Result<Vec<ScheduledFlexOffer>, AggError> {
        let agg_start = scheduled.start();
        let res_minutes = self.offer.profile().resolution().minutes();
        let mut out = Vec::with_capacity(self.members.len());
        for (member, offset) in &self.members {
            let m_start = agg_start + *offset;
            let m_len = member.profile().len();
            let base_slice = (offset.as_minutes() / res_minutes) as usize;
            let mut energies = Vec::with_capacity(m_len);
            for k in 0..m_len {
                let agg_slice = base_slice + k;
                let agg_energy = scheduled.energies()[agg_slice];
                let agg_range = self.offer.profile().slices()[agg_slice];
                // Common interpolation parameter of this slice.
                let width = agg_range.max - agg_range.min;
                let lambda = if width > 1e-12 {
                    ((agg_energy - agg_range.min) / width).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                let m_range = member.profile().slices()[k];
                energies.push(m_range.min + lambda * (m_range.max - m_range.min));
            }
            out.push(ScheduledFlexOffer::new(member.clone(), m_start, energies)?);
        }
        Ok(out)
    }
}

/// Group and sum `offers` on the similarity grid.
///
/// Offers in a group must share the slice resolution (callers in this
/// workspace always use the 15-min market resolution); offers whose
/// resolution differs from the first offer's are passed through as
/// singleton aggregates.
pub fn aggregate_offers(
    offers: &[FlexOffer],
    config: &AggregationConfig,
) -> Result<Vec<AggregatedFlexOffer>, AggError> {
    if offers.is_empty() {
        return Err(AggError::NoOffers);
    }
    let resolution = offers[0].profile().resolution();
    let mut groups: BTreeMap<(i64, i64, i64), Vec<&FlexOffer>> = BTreeMap::new();
    let mut singletons: Vec<&FlexOffer> = Vec::new();
    for offer in offers {
        if offer.profile().resolution() != resolution {
            singletons.push(offer);
            continue;
        }
        let key = (
            offer.earliest_start().as_minutes() / config.est_bucket.as_minutes().max(1),
            offer.time_flexibility().as_minutes() / config.flexibility_bucket.as_minutes().max(1),
            offer.profile().duration().as_minutes() / config.duration_bucket.as_minutes().max(1),
        );
        groups.entry(key).or_default().push(offer);
    }

    let mut aggregates = Vec::with_capacity(groups.len() + singletons.len());
    let mut next_id = 1u64;
    for (_, group) in groups {
        aggregates.push(aggregate_group(&group, resolution, FlexOfferId(next_id))?);
        next_id += 1;
    }
    for offer in singletons {
        aggregates.push(aggregate_group(
            &[offer],
            offer.profile().resolution(),
            FlexOfferId(next_id),
        )?);
        next_id += 1;
    }
    Ok(aggregates)
}

fn aggregate_group(
    group: &[&FlexOffer],
    resolution: flextract_time::Resolution,
    id: FlexOfferId,
) -> Result<AggregatedFlexOffer, AggError> {
    debug_assert!(!group.is_empty());
    let agg_est = group
        .iter()
        .map(|o| o.earliest_start())
        .min()
        .expect("group is non-empty");
    let res_minutes = resolution.minutes();
    // Aggregate profile length covers every member's span.
    let total_slices = group
        .iter()
        .map(|o| {
            let offset = (o.earliest_start() - agg_est).as_minutes() / res_minutes;
            offset as usize + o.profile().len()
        })
        .max()
        .expect("group is non-empty");
    let mut slices = vec![EnergyRange::new(0.0, 0.0).expect("zero range is valid"); total_slices];
    let mut members = Vec::with_capacity(group.len());
    for o in group {
        let offset = o.earliest_start() - agg_est;
        let base = (offset.as_minutes() / res_minutes) as usize;
        for (k, s) in o.profile().slices().iter().enumerate() {
            slices[base + k] = slices[base + k].sum(s);
        }
        members.push(((*o).clone(), offset));
    }
    // Minimum member flexibility, floored to the slice grid.
    let agg_flex = group
        .iter()
        .map(|o| o.time_flexibility())
        .min()
        .expect("group is non-empty");
    let agg_flex = Duration::minutes((agg_flex.as_minutes() / res_minutes) * res_minutes);
    // Lifecycle: conservative intersection of member deadlines.
    let creation = group
        .iter()
        .map(|o| o.creation_time())
        .min()
        .expect("group is non-empty");
    let acceptance = group
        .iter()
        .map(|o| o.acceptance_deadline())
        .min()
        .expect("group is non-empty")
        .max(creation);
    let assignment = group
        .iter()
        .map(|o| o.assignment_deadline())
        .min()
        .expect("group is non-empty")
        .max(acceptance)
        .min(agg_est);
    let offer = FlexOffer::builder(id.0)
        .start_window(agg_est, agg_est + agg_flex)
        .slices(resolution, slices)
        .created_at(creation)
        .acceptance_by(acceptance)
        .assignment_by(assignment)
        .build()?;
    Ok(AggregatedFlexOffer { offer, members })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextract_time::Resolution;

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    fn offer(id: u64, est: &str, flex_h: i64, slices: usize, e: f64) -> FlexOffer {
        FlexOffer::builder(id)
            .start_window(ts(est), ts(est) + Duration::hours(flex_h))
            .slices(
                Resolution::MIN_15,
                vec![EnergyRange::new(e * 0.8, e * 1.2).unwrap(); slices],
            )
            .build()
            .unwrap()
    }

    #[test]
    fn similar_offers_aggregate_into_one() {
        let offers = vec![
            offer(1, "2013-03-18 18:00", 4, 4, 0.5),
            offer(2, "2013-03-18 18:15", 4, 4, 0.3),
            offer(3, "2013-03-18 18:30", 4, 4, 0.4),
        ];
        let aggs = aggregate_offers(&offers, &AggregationConfig::default()).unwrap();
        assert_eq!(aggs.len(), 1);
        let agg = &aggs[0];
        assert_eq!(agg.member_count(), 3);
        assert_eq!(agg.offer.earliest_start(), ts("2013-03-18 18:00"));
        // Profile spans 18:00 .. 19:30 (offset 2 slices + 4 slices).
        assert_eq!(agg.offer.profile().len(), 6);
        // Slice sums: energy conservation at the total level.
        let agg_total = agg.offer.total_energy();
        let member_total_min: f64 = offers.iter().map(|o| o.total_energy().min).sum();
        let member_total_max: f64 = offers.iter().map(|o| o.total_energy().max).sum();
        assert!((agg_total.min - member_total_min).abs() < 1e-9);
        assert!((agg_total.max - member_total_max).abs() < 1e-9);
    }

    #[test]
    fn aggregate_flexibility_is_the_minimum() {
        let offers = vec![
            offer(1, "2013-03-18 18:00", 6, 4, 0.5),
            offer(2, "2013-03-18 18:00", 7, 4, 0.5),
        ];
        let aggs = aggregate_offers(&offers, &AggregationConfig::default()).unwrap();
        // 6 and 7 h land in the same 2-h flexibility bucket (both / 2h = 3).
        assert_eq!(aggs.len(), 1);
        assert_eq!(aggs[0].offer.time_flexibility(), Duration::hours(6));
        assert_eq!(aggs[0].flexibility_loss(), Duration::hours(1));
    }

    #[test]
    fn dissimilar_offers_stay_apart() {
        let offers = vec![
            offer(1, "2013-03-18 06:00", 4, 4, 0.5),
            offer(2, "2013-03-18 20:00", 4, 4, 0.5), // far-away EST
            offer(3, "2013-03-18 06:00", 4, 40, 0.5), // much longer profile
        ];
        let aggs = aggregate_offers(&offers, &AggregationConfig::default()).unwrap();
        assert_eq!(aggs.len(), 3);
        assert!(aggs.iter().all(|a| a.member_count() == 1));
    }

    #[test]
    fn disaggregation_is_exact_and_feasible() {
        let offers = vec![
            offer(1, "2013-03-18 18:00", 4, 4, 0.5),
            offer(2, "2013-03-18 18:30", 4, 4, 0.3),
        ];
        let aggs = aggregate_offers(&offers, &AggregationConfig::default()).unwrap();
        let agg = &aggs[0];
        // Schedule the aggregate 1 h into its window at mid energies.
        let start = agg.offer.earliest_start() + Duration::hours(1);
        let energies: Vec<f64> = agg
            .offer
            .profile()
            .slices()
            .iter()
            .map(|s| s.midpoint())
            .collect();
        let scheduled = ScheduledFlexOffer::new(agg.offer.clone(), start, energies).unwrap();
        let members = agg.disaggregate(&scheduled).unwrap();
        assert_eq!(members.len(), 2);
        // Offsets preserved.
        assert_eq!(members[0].start(), ts("2013-03-18 19:00"));
        assert_eq!(members[1].start(), ts("2013-03-18 19:30"));
        // Slice-level conservation: member energies sum to the
        // aggregate's where members overlap; total equals total.
        let member_sum: f64 = members.iter().map(|m| m.total_energy()).sum();
        assert!((member_sum - scheduled.total_energy()).abs() < 1e-9);
    }

    #[test]
    fn disaggregation_respects_member_windows() {
        let offers = vec![
            offer(1, "2013-03-18 18:00", 4, 4, 0.5),
            offer(2, "2013-03-18 18:15", 4, 4, 0.5),
        ];
        let aggs = aggregate_offers(&offers, &AggregationConfig::default()).unwrap();
        let agg = &aggs[0];
        // Any admissible aggregate start must disaggregate cleanly.
        for s in agg.offer.candidate_starts() {
            let energies: Vec<f64> = agg.offer.profile().slices().iter().map(|x| x.min).collect();
            let scheduled = ScheduledFlexOffer::new(agg.offer.clone(), s, energies).unwrap();
            let members = agg.disaggregate(&scheduled).unwrap();
            for m in members {
                assert!(m.start() >= m.offer().earliest_start());
                assert!(m.start() <= m.offer().latest_start());
            }
        }
    }

    #[test]
    fn empty_input_errors() {
        assert_eq!(
            aggregate_offers(&[], &AggregationConfig::default()),
            Err(AggError::NoOffers)
        );
    }

    #[test]
    fn mixed_resolutions_become_singletons() {
        let quarter = offer(1, "2013-03-18 18:00", 4, 4, 0.5);
        let hourly = FlexOffer::builder(2)
            .start_window(ts("2013-03-18 18:00"), ts("2013-03-18 22:00"))
            .slices(
                Resolution::HOUR_1,
                vec![EnergyRange::new(0.4, 0.6).unwrap(); 2],
            )
            .build()
            .unwrap();
        let aggs = aggregate_offers(&[quarter, hourly], &AggregationConfig::default()).unwrap();
        assert_eq!(aggs.len(), 2);
    }

    #[test]
    fn bucket_width_sweep_changes_group_count() {
        // 8 offers spread over 8 hours of ESTs.
        let offers: Vec<FlexOffer> = (0..8)
            .map(|i| {
                let est = ts("2013-03-18 12:00") + Duration::hours(i);
                FlexOffer::builder(i as u64 + 1)
                    .start_window(est, est + Duration::hours(4))
                    .slices(
                        Resolution::MIN_15,
                        vec![EnergyRange::new(0.4, 0.6).unwrap(); 4],
                    )
                    .build()
                    .unwrap()
            })
            .collect();
        let narrow = AggregationConfig {
            est_bucket: Duration::hours(1),
            ..AggregationConfig::default()
        };
        let wide = AggregationConfig {
            est_bucket: Duration::hours(8),
            ..AggregationConfig::default()
        };
        let n_narrow = aggregate_offers(&offers, &narrow).unwrap().len();
        let n_wide = aggregate_offers(&offers, &wide).unwrap().len();
        assert!(n_wide < n_narrow, "{n_wide} vs {n_narrow}");
    }
}
