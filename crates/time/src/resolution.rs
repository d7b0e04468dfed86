//! Interval widths for fixed-resolution series.

use crate::{Duration, TimeError};
use serde::{Deserialize, Serialize};

/// The width of one interval in a fixed-resolution energy series.
///
/// A `Resolution` is a positive number of minutes that evenly divides one
/// day, so every day contains a whole number of intervals and interval
/// boundaries are stable across days. MIRABEL's market operates on
/// 15-minute intervals ([`Resolution::MIN_15`]); the appliance-level
/// extraction approaches need finer granularity (the paper notes the
/// appliance profile "granularity must be even smaller than 15 min").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Resolution {
    minutes: u32,
}

impl Resolution {
    /// One-minute intervals — the simulator's native granularity.
    pub const MIN_1: Resolution = Resolution { minutes: 1 };
    /// Five-minute intervals.
    pub const MIN_5: Resolution = Resolution { minutes: 5 };
    /// Fifteen-minute intervals — the MIRABEL market granularity.
    pub const MIN_15: Resolution = Resolution { minutes: 15 };
    /// Thirty-minute intervals.
    pub const MIN_30: Resolution = Resolution { minutes: 30 };
    /// Hourly intervals.
    pub const HOUR_1: Resolution = Resolution { minutes: 60 };
    /// Daily intervals.
    pub const DAY: Resolution = Resolution { minutes: 24 * 60 };

    /// A resolution of `minutes` per interval. Must be positive and
    /// divide 1440 evenly.
    pub fn from_minutes(minutes: i64) -> Result<Self, TimeError> {
        if minutes <= 0 || (24 * 60) % minutes != 0 {
            return Err(TimeError::InvalidResolution { minutes });
        }
        Ok(Resolution {
            minutes: minutes as u32,
        })
    }

    /// Interval width in minutes.
    pub const fn minutes(self) -> i64 {
        self.minutes as i64
    }

    /// Interval width as a [`Duration`].
    pub const fn interval(self) -> Duration {
        Duration::minutes(self.minutes as i64)
    }

    /// Number of intervals in one day.
    pub const fn intervals_per_day(self) -> usize {
        (24 * 60 / self.minutes) as usize
    }

    /// Interval width in fractional hours (e.g. 0.25 for 15 min) —
    /// the factor converting average kW power to kWh-per-interval.
    pub fn hours_f64(self) -> f64 {
        self.minutes as f64 / 60.0
    }

    /// `true` if `self` can be reached from `finer` by merging whole
    /// intervals (i.e. `finer` divides `self`).
    pub fn is_multiple_of(self, finer: Resolution) -> bool {
        self.minutes.is_multiple_of(finer.minutes)
    }

    /// How many `finer` intervals make up one `self` interval.
    ///
    /// Returns `None` unless [`Resolution::is_multiple_of`] holds.
    pub fn ratio_to(self, finer: Resolution) -> Option<usize> {
        if self.is_multiple_of(finer) {
            Some((self.minutes / finer.minutes) as usize)
        } else {
            None
        }
    }
}

impl Default for Resolution {
    /// 15 minutes — the MIRABEL market granularity.
    fn default() -> Self {
        Resolution::MIN_15
    }
}

impl std::fmt::Display for Resolution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.minutes.is_multiple_of(60) {
            write!(f, "{}h", self.minutes / 60)
        } else {
            write!(f, "{}min", self.minutes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_resolutions_divide_the_day() {
        for r in [
            Resolution::MIN_1,
            Resolution::MIN_5,
            Resolution::MIN_15,
            Resolution::MIN_30,
            Resolution::HOUR_1,
            Resolution::DAY,
        ] {
            assert_eq!(r.intervals_per_day() as i64 * r.minutes(), 24 * 60);
        }
        assert_eq!(Resolution::MIN_15.intervals_per_day(), 96);
        assert_eq!(Resolution::MIN_1.intervals_per_day(), 1440);
    }

    #[test]
    fn from_minutes_validates() {
        assert!(Resolution::from_minutes(0).is_err());
        assert!(Resolution::from_minutes(-15).is_err());
        assert!(Resolution::from_minutes(7).is_err()); // 1440 % 7 != 0
        assert_eq!(Resolution::from_minutes(15).unwrap(), Resolution::MIN_15);
        assert!(Resolution::from_minutes(1440).is_ok());
        assert!(Resolution::from_minutes(2880).is_err()); // > 1 day
    }

    #[test]
    fn ratio_and_multiples() {
        assert!(Resolution::MIN_15.is_multiple_of(Resolution::MIN_5));
        assert!(!Resolution::MIN_15.is_multiple_of(Resolution::MIN_30));
        assert_eq!(Resolution::MIN_15.ratio_to(Resolution::MIN_1), Some(15));
        assert_eq!(Resolution::HOUR_1.ratio_to(Resolution::MIN_15), Some(4));
        assert_eq!(Resolution::MIN_15.ratio_to(Resolution::MIN_30), None);
    }

    #[test]
    fn kwh_conversion_factor() {
        assert!((Resolution::MIN_15.hours_f64() - 0.25).abs() < 1e-12);
        assert!((Resolution::HOUR_1.hours_f64() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_uses_natural_units() {
        assert_eq!(Resolution::MIN_15.to_string(), "15min");
        assert_eq!(Resolution::HOUR_1.to_string(), "1h");
        assert_eq!(Resolution::DAY.to_string(), "24h");
    }

    #[test]
    fn default_is_market_granularity() {
        assert_eq!(Resolution::default(), Resolution::MIN_15);
    }

    #[test]
    fn interval_duration_matches() {
        assert_eq!(Resolution::MIN_15.interval(), Duration::minutes(15));
    }
}
