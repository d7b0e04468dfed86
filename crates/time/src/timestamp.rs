//! Minute-resolution instants on the flextract timeline.

use crate::civil::{CivilDate, CivilDateTime, CivilTime, DayOfWeek};
use crate::{Duration, Resolution, TimeError};
use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Sub, SubAssign};
use std::str::FromStr;

/// Days between 1970-01-01 and the flextract epoch 2000-01-01.
const EPOCH_OFFSET_DAYS: i64 = 10_957;

/// An instant on the (single, implicit-local) flextract timeline, stored
/// as whole minutes since 2000-01-01 00:00.
///
/// `Timestamp` is a plain `i64` newtype: `Copy`, ordered, hashable, and
/// serialised transparently as its minute count. Subtracting two
/// timestamps yields a [`Duration`]; adding a `Duration` shifts the
/// instant.
///
/// ```
/// use flextract_time::{Timestamp, Duration};
/// let t = Timestamp::from_ymd_hm(2013, 3, 18, 22, 0).unwrap();
/// assert_eq!((t + Duration::hours(9)).to_string(), "2013-03-19 07:00");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Timestamp(i64);

impl Timestamp {
    /// The flextract epoch, 2000-01-01 00:00 (a Saturday).
    pub const EPOCH: Timestamp = Timestamp(0);

    /// Instant from raw minutes since the flextract epoch.
    pub const fn from_minutes(m: i64) -> Self {
        Timestamp(m)
    }

    /// Raw minutes since the flextract epoch.
    pub const fn as_minutes(self) -> i64 {
        self.0
    }

    /// Instant at `hour:minute` on the given civil date.
    pub fn from_ymd_hm(
        year: i32,
        month: u8,
        day: u8,
        hour: u8,
        minute: u8,
    ) -> Result<Self, TimeError> {
        let date = CivilDate::new(year, month, day)?;
        let time = CivilTime::new(hour, minute)?;
        Ok(Self::from_civil(CivilDateTime::new(date, time)))
    }

    /// Midnight at the start of the given civil date.
    pub fn from_date(date: CivilDate) -> Self {
        let days = date.days_since_unix_epoch() - EPOCH_OFFSET_DAYS;
        Timestamp(days * 24 * 60)
    }

    /// Instant from a full civil date-time.
    pub fn from_civil(dt: CivilDateTime) -> Self {
        Self::from_date(dt.date) + Duration::minutes(dt.time.minute_of_day() as i64)
    }

    /// Civil date-time view of this instant.
    pub fn civil(self) -> CivilDateTime {
        let days = self.0.div_euclid(24 * 60);
        let mod_minutes = self.0.rem_euclid(24 * 60) as u32;
        CivilDateTime::new(
            CivilDate::from_days_since_unix_epoch(days + EPOCH_OFFSET_DAYS),
            CivilTime::from_minute_of_day(mod_minutes)
                .expect("rem_euclid(1440) is always a valid minute-of-day"),
        )
    }

    /// The calendar date containing this instant.
    pub fn date(self) -> CivilDate {
        self.civil().date
    }

    /// The wall-clock time of day of this instant.
    pub fn time(self) -> CivilTime {
        self.civil().time
    }

    /// Weekday of this instant.
    pub fn day_of_week(self) -> DayOfWeek {
        let days = self.0.div_euclid(24 * 60) + EPOCH_OFFSET_DAYS;
        DayOfWeek::from_days_since_unix_epoch(days)
    }

    /// Minutes since midnight of this instant's day, 0–1439.
    pub fn minute_of_day(self) -> u32 {
        self.0.rem_euclid(24 * 60) as u32
    }

    /// Midnight at the start of this instant's day.
    pub fn start_of_day(self) -> Self {
        Timestamp(self.0.div_euclid(24 * 60) * 24 * 60)
    }

    /// Round *down* to the start of the interval of width `res`
    /// containing this instant (intervals are anchored at midnight).
    pub fn floor_to(self, res: Resolution) -> Self {
        let w = res.minutes();
        Timestamp(self.0.div_euclid(w) * w)
    }

    /// Round *up* to the next interval boundary of width `res` (identity
    /// if already on a boundary).
    pub fn ceil_to(self, res: Resolution) -> Self {
        let w = res.minutes();
        Timestamp(self.0.div_euclid(w) * w + if self.0.rem_euclid(w) == 0 { 0 } else { w })
    }

    /// `true` if this instant lies exactly on a boundary of `res`.
    pub fn is_aligned(self, res: Resolution) -> bool {
        self.0.rem_euclid(res.minutes()) == 0
    }

    /// This instant `days` whole days later, or `None` past either end
    /// of the i64 minute axis (where `+ Duration::days(days)` would
    /// wrap, or panic in debug builds).
    pub fn checked_add_days(self, days: i64) -> Option<Timestamp> {
        days.checked_mul(Duration::DAY.as_minutes())
            .and_then(|minutes| self.0.checked_add(minutes))
            .map(Timestamp)
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.as_minutes())
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_minutes();
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 - rhs.as_minutes())
    }
}

impl SubAssign<Duration> for Timestamp {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.as_minutes();
    }
}

impl Sub for Timestamp {
    type Output = Duration;
    fn sub(self, rhs: Timestamp) -> Duration {
        Duration::minutes(self.0 - rhs.0)
    }
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.civil())
    }
}

impl FromStr for Timestamp {
    type Err = TimeError;

    /// Parses `YYYY-MM-DD HH:MM` or bare `YYYY-MM-DD` (midnight).
    fn from_str(s: &str) -> Result<Self, TimeError> {
        let s = s.trim();
        let (date_part, time_part) = match s.split_once(' ') {
            Some((d, t)) => (d, Some(t)),
            None => (s, None),
        };
        let mut it = date_part.split('-');
        let year: i32 = it
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or(TimeError::Parse { what: "year" })?;
        let month: u8 = it
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or(TimeError::Parse { what: "month" })?;
        let day: u8 = it
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or(TimeError::Parse { what: "day" })?;
        if it.next().is_some() {
            return Err(TimeError::Parse {
                what: "trailing date fields",
            });
        }
        let (hour, minute) = match time_part {
            None => (0, 0),
            Some(t) => {
                let (h, m) = t.split_once(':').ok_or(TimeError::Parse {
                    what: "missing ':'",
                })?;
                (
                    h.parse().map_err(|_| TimeError::Parse { what: "hour" })?,
                    m.parse().map_err(|_| TimeError::Parse { what: "minute" })?,
                )
            }
        };
        Timestamp::from_ymd_hm(year, month, day, hour, minute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_midnight_2000() {
        let c = Timestamp::EPOCH.civil();
        assert_eq!(c.to_string(), "2000-01-01 00:00");
        assert_eq!(Timestamp::EPOCH.day_of_week(), DayOfWeek::Saturday);
    }

    #[test]
    fn civil_round_trip() {
        let t = Timestamp::from_ymd_hm(2013, 3, 18, 14, 45).unwrap();
        assert_eq!(Timestamp::from_civil(t.civil()), t);
        assert_eq!(t.to_string(), "2013-03-18 14:45");
    }

    #[test]
    fn negative_timestamps_work() {
        // 1999-12-31 23:45 is one quarter-hour before the epoch.
        let t = Timestamp::from_ymd_hm(1999, 12, 31, 23, 45).unwrap();
        assert_eq!(t.as_minutes(), -15);
        assert_eq!(t.minute_of_day(), 23 * 60 + 45);
        assert_eq!(t.civil().to_string(), "1999-12-31 23:45");
    }

    #[test]
    fn duration_arithmetic_crosses_midnight() {
        let t = Timestamp::from_ymd_hm(2013, 3, 18, 22, 0).unwrap();
        let u = t + Duration::hours(9);
        assert_eq!(u.to_string(), "2013-03-19 07:00");
        assert_eq!(u - t, Duration::hours(9));
        let mut v = t;
        v += Duration::hours(1);
        v -= Duration::minutes(30);
        assert_eq!(v.to_string(), "2013-03-18 22:30");
        assert_eq!(
            (t - Duration::days(1)).date(),
            CivilDate::new(2013, 3, 17).unwrap()
        );
    }

    #[test]
    fn day_helpers() {
        let t = Timestamp::from_ymd_hm(2013, 3, 18, 14, 45).unwrap();
        assert_eq!(t.start_of_day().to_string(), "2013-03-18 00:00");
        assert_eq!(t.minute_of_day(), 14 * 60 + 45);
        assert_eq!(t.day_of_week(), DayOfWeek::Monday);
        assert_eq!(t.date(), CivilDate::new(2013, 3, 18).unwrap());
        assert_eq!(t.time(), CivilTime::new(14, 45).unwrap());
    }

    #[test]
    fn floor_and_ceil_to_resolution() {
        let t = Timestamp::from_ymd_hm(2013, 3, 18, 14, 7).unwrap();
        assert_eq!(
            t.floor_to(Resolution::MIN_15).to_string(),
            "2013-03-18 14:00"
        );
        assert_eq!(
            t.ceil_to(Resolution::MIN_15).to_string(),
            "2013-03-18 14:15"
        );
        let aligned = Timestamp::from_ymd_hm(2013, 3, 18, 14, 15).unwrap();
        assert_eq!(aligned.floor_to(Resolution::MIN_15), aligned);
        assert_eq!(aligned.ceil_to(Resolution::MIN_15), aligned);
        assert!(aligned.is_aligned(Resolution::MIN_15));
        assert!(!t.is_aligned(Resolution::MIN_15));
        // Negative side of the epoch floors toward -infinity.
        let neg = Timestamp::from_minutes(-7);
        assert_eq!(
            neg.floor_to(Resolution::MIN_15),
            Timestamp::from_minutes(-15)
        );
        assert_eq!(neg.ceil_to(Resolution::MIN_15), Timestamp::from_minutes(0));
    }

    #[test]
    fn parsing_accepts_date_and_datetime() {
        let t: Timestamp = "2013-03-18 22:00".parse().unwrap();
        assert_eq!(t, Timestamp::from_ymd_hm(2013, 3, 18, 22, 0).unwrap());
        let d: Timestamp = "2013-03-18".parse().unwrap();
        assert_eq!(d, Timestamp::from_ymd_hm(2013, 3, 18, 0, 0).unwrap());
        assert_eq!(d.minute_of_day(), 0);
    }

    #[test]
    fn parsing_rejects_garbage() {
        assert!("".parse::<Timestamp>().is_err());
        assert!("2013".parse::<Timestamp>().is_err());
        assert!("2013-13-01".parse::<Timestamp>().is_err());
        assert!("2013-03-18 25:00".parse::<Timestamp>().is_err());
        assert!("2013-03-18 22".parse::<Timestamp>().is_err());
        assert!("2013-03-18-07 22:00".parse::<Timestamp>().is_err());
        assert!("2013-03-18 2a:00".parse::<Timestamp>().is_err());
    }

    #[test]
    fn serde_is_transparent_minutes() {
        let t = Timestamp::from_minutes(1234);
        assert_eq!(serde_json::to_string(&t).unwrap(), "1234");
        let back: Timestamp = serde_json::from_str("1234").unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn ordering_follows_the_timeline() {
        let a = Timestamp::from_ymd_hm(2013, 3, 18, 0, 0).unwrap();
        let b = Timestamp::from_ymd_hm(2013, 3, 18, 0, 1).unwrap();
        assert!(a < b);
        assert_eq!(b - a, Duration::minutes(1));
    }

    #[test]
    fn checked_add_days_stops_at_the_minute_axis() {
        let t = Timestamp::from_ymd_hm(2013, 3, 18, 0, 0).unwrap();
        assert_eq!(t.checked_add_days(7), Some(t + Duration::weeks(1)));
        assert_eq!(t.checked_add_days(-1), Some(t - Duration::DAY));
        for days in [7_000_000_000_000_000, i64::MAX, i64::MIN] {
            assert_eq!(t.checked_add_days(days), None, "{days}");
        }
    }
}
