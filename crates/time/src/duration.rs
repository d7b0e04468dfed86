//! Signed time spans with whole-minute resolution.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A signed span of time in whole minutes.
///
/// Minute resolution matches the finest granularity the workspace needs:
/// the paper's appliance profiles are specified at "granularity … even
/// smaller than 15 min" (§4, Table 1) and our simulator bottoms out at
/// one minute.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Duration(i64);

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(0);
    /// One day, 1440 minutes.
    pub const DAY: Duration = Duration(24 * 60);
    /// One hour.
    pub const HOUR: Duration = Duration(60);

    /// A span of `m` minutes (may be negative).
    pub const fn minutes(m: i64) -> Self {
        Duration(m)
    }

    /// A span of `h` hours.
    pub const fn hours(h: i64) -> Self {
        Duration(h * 60)
    }

    /// A span of `d` days.
    pub const fn days(d: i64) -> Self {
        Duration(d * 24 * 60)
    }

    /// A span of `w` weeks.
    pub const fn weeks(w: i64) -> Self {
        Duration(w * 7 * 24 * 60)
    }

    /// Total whole minutes in this span.
    pub const fn as_minutes(self) -> i64 {
        self.0
    }

    /// Total span expressed in fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / 60.0
    }

    /// `true` if the span is negative.
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Absolute value of the span.
    pub const fn abs(self) -> Self {
        Duration(self.0.abs())
    }

    /// Clamp the span into `[lo, hi]`.
    pub fn clamp(self, lo: Duration, hi: Duration) -> Self {
        Duration(self.0.clamp(lo.0, hi.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Neg for Duration {
    type Output = Duration;
    fn neg(self) -> Duration {
        Duration(-self.0)
    }
}

impl Mul<i64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: i64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<i64> for Duration {
    type Output = Duration;
    fn div(self, rhs: i64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Div<Duration> for Duration {
    /// How many times `rhs` fits in `self` (truncating integer ratio).
    type Output = i64;
    fn div(self, rhs: Duration) -> i64 {
        self.0 / rhs.0
    }
}

impl std::iter::Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        Duration(iter.map(|d| d.0).sum())
    }
}

impl std::fmt::Display for Duration {
    /// Renders as `[-]DdHHhMMm`, omitting zero leading components,
    /// e.g. `2h00m`, `1d02h30m`, `45m`, `-15m`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total = self.0;
        let sign = if total < 0 { "-" } else { "" };
        let total = total.abs();
        let days = total / (24 * 60);
        let hours = (total / 60) % 24;
        let minutes = total % 60;
        if days > 0 {
            write!(f, "{sign}{days}d{hours:02}h{minutes:02}m")
        } else if hours > 0 {
            write!(f, "{sign}{hours}h{minutes:02}m")
        } else {
            write!(f, "{sign}{minutes}m")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Duration::hours(2), Duration::minutes(120));
        assert_eq!(Duration::days(1), Duration::hours(24));
        assert_eq!(Duration::weeks(1), Duration::days(7));
        assert_eq!(Duration::DAY, Duration::days(1));
        assert_eq!(Duration::HOUR, Duration::hours(1));
    }

    #[test]
    fn arithmetic() {
        let a = Duration::minutes(90);
        let b = Duration::minutes(30);
        assert_eq!(a + b, Duration::hours(2));
        assert_eq!(a - b, Duration::hours(1));
        assert_eq!(-a, Duration::minutes(-90));
        assert_eq!(a * 2, Duration::hours(3));
        assert_eq!(a / 3, Duration::minutes(30));
        assert_eq!(a / b, 3);
        let mut c = a;
        c += b;
        assert_eq!(c, Duration::hours(2));
        c -= Duration::hours(2);
        assert_eq!(c, Duration::ZERO);
    }

    #[test]
    fn predicates_and_abs() {
        assert!(Duration::minutes(-5).is_negative());
        assert!(!Duration::minutes(5).is_negative());
        assert_eq!(Duration::minutes(-5).abs(), Duration::minutes(5));
        assert_eq!(
            Duration::minutes(99).clamp(Duration::ZERO, Duration::HOUR),
            Duration::HOUR
        );
    }

    #[test]
    fn unit_conversions() {
        assert!((Duration::minutes(90).as_hours_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sum_over_iterator() {
        let total: Duration = (1..=4).map(Duration::minutes).sum();
        assert_eq!(total, Duration::minutes(10));
    }

    #[test]
    fn display_layouts() {
        assert_eq!(Duration::minutes(45).to_string(), "45m");
        assert_eq!(Duration::hours(2).to_string(), "2h00m");
        assert_eq!(Duration::minutes(150).to_string(), "2h30m");
        assert_eq!(
            (Duration::days(1) + Duration::minutes(150)).to_string(),
            "1d02h30m"
        );
        assert_eq!(Duration::minutes(-15).to_string(), "-15m");
    }

    #[test]
    fn serde_is_transparent() {
        let d = Duration::minutes(135);
        let json = serde_json::to_string(&d).unwrap();
        assert_eq!(json, "135");
        let back: Duration = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
