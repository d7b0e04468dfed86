//! Day segmentation and typical-day profiles.
//!
//! Two extraction approaches are built directly on these primitives:
//!
//! * the **basic** approach "starts with the division of input time
//!   series into periods" (§3.1) — [`split_into_periods`];
//! * the **multi-tariff** approach "firstly analyzes one tariff time
//!   series to estimate the usual consumption of a consumer … typical
//!   behavior during the work days, weekends, holidays" (§3.3) —
//!   [`typical_day_profile`] with a [`DayKind`] filter.

use crate::{SeriesError, TimeSeries};
use flextract_time::{Duration, Resolution, TimeRange, Timestamp};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Which civil days participate in a typical-day profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DayKind {
    /// Every day.
    All,
    /// Monday–Friday.
    Workday,
    /// Saturday and Sunday.
    Weekend,
}

impl DayKind {
    /// Does a day starting at `day_start` belong to this kind?
    pub fn matches(self, day_start: Timestamp) -> bool {
        match self {
            DayKind::All => true,
            DayKind::Workday => !day_start.day_of_week().is_weekend(),
            DayKind::Weekend => day_start.day_of_week().is_weekend(),
        }
    }
}

/// Split a series into whole civil days (midnight-aligned sub-series).
///
/// Partial leading/trailing days are dropped — extraction approaches in
/// the paper reason per complete day ("detecting peaks in the 24-hour
/// period", §3.2).
pub fn split_whole_days(series: &TimeSeries) -> Vec<TimeSeries> {
    whole_day_ranges(series)
        .map(|days| {
            let day = TimeRange::starting_at(series.timestamp_of(days.start), Duration::DAY)
                .expect("day > 0");
            series.slice(day)
        })
        .collect()
}

/// The index ranges of the whole civil days [`split_whole_days`]
/// copies out, in order, without copying: each range is one day of
/// `intervals_per_day` values starting at a midnight.
pub fn whole_day_ranges(series: &TimeSeries) -> impl ExactSizeIterator<Item = Range<usize>> {
    let per_day = series.resolution().intervals_per_day();
    // Every resolution divides a day, so the first midnight is on the
    // series' grid.
    let lead = (series.start().ceil_to(Resolution::DAY) - series.start()).as_minutes()
        / series.resolution().minutes();
    let lead = lead as usize;
    let days = series.len().saturating_sub(lead) / per_day;
    (0..days).map(move |d| lead + d * per_day..lead + (d + 1) * per_day)
}

/// Split a series into consecutive periods of `period` length — the
/// basic approach's "periods spanning few hours". The final ragged
/// period (if any) is included.
pub fn split_into_periods(series: &TimeSeries, period: Duration) -> Vec<TimeSeries> {
    series
        .range()
        .split_chunks(period)
        .into_iter()
        .map(|chunk| series.slice(chunk))
        .filter(|s| !s.is_empty())
        .collect()
}

/// The mean interval-of-day profile over whole days of the given kind.
///
/// Returns a vector of `intervals_per_day` mean energies (index 0 =
/// midnight interval). This is the multi-tariff approach's estimate of
/// "the usual consumption of a consumer".
///
/// Errors with [`SeriesError::Empty`] when no day matches.
pub fn typical_day_profile(series: &TimeSeries, kind: DayKind) -> Result<Vec<f64>, SeriesError> {
    let days: Vec<TimeSeries> = split_whole_days(series)
        .into_iter()
        .filter(|d| kind.matches(d.start()))
        .collect();
    if days.is_empty() {
        return Err(SeriesError::Empty);
    }
    let n = series.resolution().intervals_per_day();
    let mut acc = vec![0.0; n];
    for day in &days {
        for (i, &v) in day.values().iter().enumerate() {
            acc[i] += v;
        }
    }
    let count = days.len() as f64;
    for v in &mut acc {
        *v /= count;
    }
    Ok(acc)
}

/// Per-interval-of-day standard deviation over whole days of a kind —
/// used to turn a typical profile into a tolerance band.
pub fn day_profile_std(series: &TimeSeries, kind: DayKind) -> Result<Vec<f64>, SeriesError> {
    let days: Vec<TimeSeries> = split_whole_days(series)
        .into_iter()
        .filter(|d| kind.matches(d.start()))
        .collect();
    if days.is_empty() {
        return Err(SeriesError::Empty);
    }
    let n = series.resolution().intervals_per_day();
    let mean = typical_day_profile(series, kind)?;
    let mut acc = vec![0.0; n];
    for day in &days {
        for (i, &v) in day.values().iter().enumerate() {
            let d = v - mean[i];
            acc[i] += d * d;
        }
    }
    let count = days.len() as f64;
    Ok(acc.into_iter().map(|s| (s / count).sqrt()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    /// Fourteen whole days starting Monday 2013-03-18, hourly resolution,
    /// where each interval holds `day_index + 1` on workdays and
    /// `10 * (day_index + 1)` on weekends.
    fn two_weeks() -> TimeSeries {
        let start = ts("2013-03-18");
        let mut values = Vec::with_capacity(14 * 24);
        for d in 0..14 {
            let t = start + Duration::days(d);
            let base = if t.day_of_week().is_weekend() {
                10.0 * (d + 1) as f64
            } else {
                (d + 1) as f64
            };
            values.extend(std::iter::repeat_n(base, 24));
        }
        TimeSeries::new(start, Resolution::HOUR_1, values).unwrap()
    }

    #[test]
    fn whole_days_drop_partial_edges() {
        // Start at 18:00, so the first partial day is dropped.
        let s = TimeSeries::new(
            ts("2013-03-18 18:00"),
            Resolution::HOUR_1,
            vec![1.0; 6 + 24 + 24 + 3], // partial + 2 whole + partial
        )
        .unwrap();
        let days = split_whole_days(&s);
        assert_eq!(days.len(), 2);
        assert_eq!(days[0].start(), ts("2013-03-19"));
        assert_eq!(days[1].start(), ts("2013-03-20"));
        assert_eq!(days[0].len(), 24);
        let ranges: Vec<_> = whole_day_ranges(&s).collect();
        assert_eq!(ranges, vec![6..30, 30..54]);
        // One value short of the second whole day.
        let short = s.slice(TimeRange::new(s.start(), ts("2013-03-20 23:00")).unwrap());
        assert_eq!(whole_day_ranges(&short).collect::<Vec<_>>(), vec![6..30]);
    }

    #[test]
    fn whole_days_of_empty_series() {
        let s = TimeSeries::new(ts("2013-03-18"), Resolution::HOUR_1, vec![]).unwrap();
        assert!(split_whole_days(&s).is_empty());
    }

    #[test]
    fn periods_tile_the_series() {
        let s = TimeSeries::new(ts("2013-03-18"), Resolution::MIN_15, vec![1.0; 96]).unwrap();
        let periods = split_into_periods(&s, Duration::hours(6));
        assert_eq!(periods.len(), 4);
        for p in &periods {
            assert_eq!(p.len(), 24);
        }
        assert_eq!(periods[1].start(), ts("2013-03-18 06:00"));
        // Ragged tail is kept.
        let ragged = TimeSeries::new(ts("2013-03-18"), Resolution::MIN_15, vec![1.0; 30]).unwrap();
        let ps = split_into_periods(&ragged, Duration::hours(6));
        assert_eq!(ps.len(), 2);
        assert_eq!(ps[1].len(), 6);
    }

    #[test]
    fn typical_profiles_filter_day_kinds() {
        let s = two_weeks();
        // Workdays are days 1..=5 and 8..=12 (values d+1): mean of
        // {1,2,3,4,5,8,9,10,11,12}= 6.5.
        let wk = typical_day_profile(&s, DayKind::Workday).unwrap();
        assert_eq!(wk.len(), 24);
        assert!((wk[0] - 6.5).abs() < 1e-9);
        // Weekends are days 6,7,13,14 → values 10*{6,7,13,14}, mean 100.
        let we = typical_day_profile(&s, DayKind::Weekend).unwrap();
        assert!((we[12] - 100.0).abs() < 1e-9);
        // All-days mean sits between.
        let all = typical_day_profile(&s, DayKind::All).unwrap();
        assert!(all[0] > wk[0] && all[0] < we[0]);
    }

    #[test]
    fn profile_std_is_zero_for_identical_days() {
        let s = TimeSeries::new(ts("2013-03-18"), Resolution::HOUR_1, vec![2.0; 3 * 24]).unwrap();
        let std = day_profile_std(&s, DayKind::All).unwrap();
        assert!(std.iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn empty_day_kind_errors() {
        // Two workdays only — no weekend data.
        let s = TimeSeries::new(
            ts("2013-03-18"), // Monday
            Resolution::HOUR_1,
            vec![1.0; 48],
        )
        .unwrap();
        assert!(typical_day_profile(&s, DayKind::Weekend).is_err());
        assert!(day_profile_std(&s, DayKind::Weekend).is_err());
        assert!(typical_day_profile(&s, DayKind::Workday).is_ok());
    }

    #[test]
    fn day_kind_matching() {
        assert!(DayKind::Workday.matches(ts("2013-03-18"))); // Monday
        assert!(!DayKind::Weekend.matches(ts("2013-03-18")));
        assert!(DayKind::Weekend.matches(ts("2013-03-23"))); // Saturday
        assert!(DayKind::All.matches(ts("2013-03-23")));
    }
}
