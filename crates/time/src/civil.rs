//! Proleptic-Gregorian calendar types and conversions.
//!
//! The date ↔ day-number conversions are Howard Hinnant's well-known
//! branch-light algorithms (`days_from_civil` / `civil_from_days`),
//! exact for every representable date. Day numbers count days since
//! 1970-01-01 (the Unix civil epoch) so the weekday computation can use
//! the known anchor "1970-01-01 was a Thursday".

use crate::TimeError;
use serde::{Deserialize, Serialize};

/// Day of the week, ISO-8601 ordering (`Monday` = 1 … `Sunday` = 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DayOfWeek {
    /// ISO weekday 1.
    Monday,
    /// ISO weekday 2.
    Tuesday,
    /// ISO weekday 3.
    Wednesday,
    /// ISO weekday 4.
    Thursday,
    /// ISO weekday 5.
    Friday,
    /// ISO weekday 6.
    Saturday,
    /// ISO weekday 7.
    Sunday,
}

impl DayOfWeek {
    /// All seven weekdays in ISO order, Monday first.
    pub const ALL: [DayOfWeek; 7] = [
        DayOfWeek::Monday,
        DayOfWeek::Tuesday,
        DayOfWeek::Wednesday,
        DayOfWeek::Thursday,
        DayOfWeek::Friday,
        DayOfWeek::Saturday,
        DayOfWeek::Sunday,
    ];

    /// Index into [`DayOfWeek::ALL`] (Monday = 0 … Sunday = 6).
    pub fn index(self) -> usize {
        self as usize
    }

    /// `true` for Saturday and Sunday.
    ///
    /// The schedule-based extraction approach (paper §4.2) keys appliance
    /// usage on exactly this distinction ("the dishwasher is more used
    /// during the weekends").
    pub fn is_weekend(self) -> bool {
        matches!(self, DayOfWeek::Saturday | DayOfWeek::Sunday)
    }

    /// Weekday for a Monday-first index reduced modulo 7, so every
    /// `usize` maps to a day and no lookup can go out of bounds.
    fn from_index_mod7(idx: usize) -> Self {
        match idx % 7 {
            0 => DayOfWeek::Monday,
            1 => DayOfWeek::Tuesday,
            2 => DayOfWeek::Wednesday,
            3 => DayOfWeek::Thursday,
            4 => DayOfWeek::Friday,
            5 => DayOfWeek::Saturday,
            _ => DayOfWeek::Sunday,
        }
    }

    /// Weekday from days since 1970-01-01, which was a Thursday.
    pub(crate) fn from_days_since_unix_epoch(days: i64) -> Self {
        // 1970-01-01 is Thursday → index 3 in Monday-first ordering.
        Self::from_index_mod7((days + 3).rem_euclid(7) as usize)
    }

    /// The weekday following `self`, wrapping Sunday → Monday.
    pub fn next(self) -> Self {
        Self::from_index_mod7(self.index() + 1)
    }
}

impl std::fmt::Display for DayOfWeek {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            DayOfWeek::Monday => "Monday",
            DayOfWeek::Tuesday => "Tuesday",
            DayOfWeek::Wednesday => "Wednesday",
            DayOfWeek::Thursday => "Thursday",
            DayOfWeek::Friday => "Friday",
            DayOfWeek::Saturday => "Saturday",
            DayOfWeek::Sunday => "Sunday",
        };
        f.write_str(name)
    }
}

/// A calendar date in the proleptic Gregorian calendar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CivilDate {
    /// Gregorian year (e.g. 2013).
    pub year: i32,
    /// Month, 1–12.
    pub month: u8,
    /// Day of month, 1–31 (validated against the month and leap years).
    pub day: u8,
}

impl CivilDate {
    /// Construct a validated date.
    pub fn new(year: i32, month: u8, day: u8) -> Result<Self, TimeError> {
        if !(1..=12).contains(&month) {
            return Err(TimeError::InvalidCivil {
                what: "month outside 1..=12",
            });
        }
        if day < 1 || day > days_in_month(year, month) {
            return Err(TimeError::InvalidCivil {
                what: "day outside month length",
            });
        }
        Ok(CivilDate { year, month, day })
    }

    /// Days since 1970-01-01 (negative before it).
    pub fn days_since_unix_epoch(self) -> i64 {
        days_from_civil(self.year, self.month, self.day)
    }

    /// Date from days since 1970-01-01.
    pub fn from_days_since_unix_epoch(days: i64) -> Self {
        let (year, month, day) = civil_from_days(days);
        CivilDate { year, month, day }
    }

    /// Weekday of this date.
    pub fn day_of_week(self) -> DayOfWeek {
        DayOfWeek::from_days_since_unix_epoch(self.days_since_unix_epoch())
    }
}

impl std::fmt::Display for CivilDate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A wall-clock time of day with minute resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CivilTime {
    /// Hour, 0–23.
    pub hour: u8,
    /// Minute, 0–59.
    pub minute: u8,
}

impl CivilTime {
    /// Midnight (00:00).
    pub const MIDNIGHT: CivilTime = CivilTime { hour: 0, minute: 0 };

    /// Construct a validated time of day.
    pub fn new(hour: u8, minute: u8) -> Result<Self, TimeError> {
        if hour > 23 {
            return Err(TimeError::InvalidCivil {
                what: "hour outside 0..=23",
            });
        }
        if minute > 59 {
            return Err(TimeError::InvalidCivil {
                what: "minute outside 0..=59",
            });
        }
        Ok(CivilTime { hour, minute })
    }

    /// Minutes since midnight, 0–1439.
    pub fn minute_of_day(self) -> u32 {
        self.hour as u32 * 60 + self.minute as u32
    }

    /// Time of day from minutes since midnight (must be < 1440).
    pub fn from_minute_of_day(m: u32) -> Result<Self, TimeError> {
        if m >= 24 * 60 {
            return Err(TimeError::InvalidCivil {
                what: "minute-of-day outside 0..1440",
            });
        }
        Ok(CivilTime {
            hour: (m / 60) as u8,
            minute: (m % 60) as u8,
        })
    }
}

impl std::fmt::Display for CivilTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:02}:{:02}", self.hour, self.minute)
    }
}

/// A calendar date paired with a wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CivilDateTime {
    /// The date component.
    pub date: CivilDate,
    /// The time-of-day component.
    pub time: CivilTime,
}

impl CivilDateTime {
    /// Construct from validated parts.
    pub fn new(date: CivilDate, time: CivilTime) -> Self {
        CivilDateTime { date, time }
    }
}

impl std::fmt::Display for CivilDateTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.date, self.time)
    }
}

/// `true` if `year` is a Gregorian leap year.
pub fn is_leap_year(year: i32) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

/// Number of days in `month` of `year`.
pub fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap_year(year) {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Days since 1970-01-01 for a civil date (Hinnant's `days_from_civil`).
fn days_from_civil(y: i32, m: u8, d: u8) -> i64 {
    let y = y as i64 - i64::from(m <= 2);
    let era = y.div_euclid(400);
    let yoe = (y - era * 400) as u64; // [0, 399]
    let m = m as u64;
    let d = d as u64;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe as i64 - 719_468
}

/// Civil date for days since 1970-01-01 (Hinnant's `civil_from_days`).
fn civil_from_days(z: i64) -> (i32, u8, u8) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = (z - era * 146_097) as u64; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u8; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u8; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unix_epoch_is_day_zero_and_thursday() {
        let d = CivilDate::new(1970, 1, 1).unwrap();
        assert_eq!(d.days_since_unix_epoch(), 0);
        assert_eq!(d.day_of_week(), DayOfWeek::Thursday);
    }

    #[test]
    fn flextract_epoch_is_a_saturday() {
        let d = CivilDate::new(2000, 1, 1).unwrap();
        assert_eq!(d.days_since_unix_epoch(), 10_957);
        assert_eq!(d.day_of_week(), DayOfWeek::Saturday);
    }

    #[test]
    fn edbt_2013_opening_day_is_a_monday() {
        // The workshop ran March 18-22, 2013 in Genoa.
        let d = CivilDate::new(2013, 3, 18).unwrap();
        assert_eq!(d.day_of_week(), DayOfWeek::Monday);
    }

    #[test]
    fn leap_year_rules() {
        assert!(is_leap_year(2000)); // divisible by 400
        assert!(!is_leap_year(1900)); // divisible by 100 only
        assert!(is_leap_year(2012));
        assert!(!is_leap_year(2013));
    }

    #[test]
    fn month_lengths_respect_leap_years() {
        assert_eq!(days_in_month(2012, 2), 29);
        assert_eq!(days_in_month(2013, 2), 28);
        assert_eq!(days_in_month(2013, 1), 31);
        assert_eq!(days_in_month(2013, 4), 30);
        assert_eq!(days_in_month(2013, 13), 0);
    }

    #[test]
    fn date_validation_rejects_bad_fields() {
        assert!(CivilDate::new(2013, 0, 1).is_err());
        assert!(CivilDate::new(2013, 13, 1).is_err());
        assert!(CivilDate::new(2013, 2, 29).is_err());
        assert!(CivilDate::new(2012, 2, 29).is_ok());
        assert!(CivilDate::new(2013, 4, 31).is_err());
        assert!(CivilDate::new(2013, 4, 0).is_err());
    }

    #[test]
    fn time_validation_rejects_bad_fields() {
        assert!(CivilTime::new(24, 0).is_err());
        assert!(CivilTime::new(0, 60).is_err());
        assert!(CivilTime::new(23, 59).is_ok());
    }

    #[test]
    fn minute_of_day_round_trip() {
        for m in 0..(24 * 60) {
            let t = CivilTime::from_minute_of_day(m).unwrap();
            assert_eq!(t.minute_of_day(), m);
        }
        assert!(CivilTime::from_minute_of_day(1440).is_err());
    }

    #[test]
    fn civil_round_trip_across_boundaries() {
        // Year, century and leap boundaries.
        for &(y, m, d) in &[
            (1999, 12, 31),
            (2000, 1, 1),
            (2000, 2, 29),
            (2000, 3, 1),
            (2012, 2, 29),
            (2013, 3, 18),
            (2100, 2, 28),
            (1970, 1, 1),
            (1969, 12, 31),
        ] {
            let date = CivilDate::new(y, m, d).unwrap();
            let days = date.days_since_unix_epoch();
            assert_eq!(
                CivilDate::from_days_since_unix_epoch(days),
                date,
                "{y}-{m}-{d}"
            );
        }
    }

    #[test]
    fn weekday_helpers() {
        assert!(DayOfWeek::Saturday.is_weekend());
        assert!(DayOfWeek::Sunday.is_weekend());
        assert!(!DayOfWeek::Wednesday.is_weekend());
        assert_eq!(DayOfWeek::Sunday.next(), DayOfWeek::Monday);
        assert_eq!(DayOfWeek::Thursday.next(), DayOfWeek::Friday);
    }

    #[test]
    fn display_formats() {
        let dt = CivilDateTime::new(
            CivilDate::new(2013, 3, 18).unwrap(),
            CivilTime::new(9, 5).unwrap(),
        );
        assert_eq!(dt.to_string(), "2013-03-18 09:05");
        assert_eq!(DayOfWeek::Friday.to_string(), "Friday");
    }

    #[test]
    fn consecutive_days_advance_weekday() {
        let first = CivilDate::new(2013, 1, 1).unwrap().days_since_unix_epoch();
        let mut dow = CivilDate::from_days_since_unix_epoch(first).day_of_week();
        for days in first + 1..first + 501 {
            let next = CivilDate::from_days_since_unix_epoch(days);
            assert_eq!(next.day_of_week(), dow.next());
            dow = dow.next();
        }
    }
}
