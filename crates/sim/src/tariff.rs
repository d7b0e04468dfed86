//! Tariff schemes and consumer tariff response.
//!
//! The multi-tariff extraction approach (§3.3) "explores the fact that
//! consumers change their electricity consumption behavior when the
//! multi-tariff (also called variable rate) billing system is
//! introduced … they delay the flexible usage (e.g., washing machine)
//! to the low tariff time (e.g., after 10 PM)". [`TariffScheme`] models
//! the billing system; [`TariffResponse`] models the behaviour.

use flextract_time::{CivilTime, Duration, Timestamp};
use serde::{Deserialize, Serialize};

/// An electricity billing scheme.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TariffScheme {
    /// One price at all hours (the paper's "one tariff period").
    Flat {
        /// Price in currency units per kWh.
        price: f64,
    },
    /// Time-of-use pricing: a base (high) price with discounted windows.
    TimeOfUse {
        /// Price outside the low windows.
        high_price: f64,
        /// Price inside the low windows.
        low_price: f64,
        /// Daily low-price windows `(from, to)` in wall-clock time; a
        /// window with `from > to` wraps past midnight.
        low_windows: Vec<(CivilTime, CivilTime)>,
    },
}

impl TariffScheme {
    /// The classic overnight scheme the paper alludes to: low tariff
    /// after 10 PM (until 6 AM).
    pub fn overnight() -> Self {
        TariffScheme::TimeOfUse {
            high_price: 0.30,
            low_price: 0.15,
            low_windows: vec![(
                CivilTime::new(22, 0).expect("static"),
                CivilTime::new(6, 0).expect("static"),
            )],
        }
    }

    /// `true` if this is a multi-tariff (time-of-use) scheme.
    pub fn is_multi_tariff(&self) -> bool {
        matches!(self, TariffScheme::TimeOfUse { .. })
    }

    /// Is `t` inside a low-tariff window?
    pub fn is_low_tariff(&self, t: Timestamp) -> bool {
        match self {
            TariffScheme::Flat { .. } => false,
            TariffScheme::TimeOfUse { low_windows, .. } => {
                let m = t.minute_of_day();
                low_windows.iter().any(|(from, to)| {
                    let f = from.minute_of_day();
                    let u = to.minute_of_day();
                    if f <= u {
                        m >= f && m < u
                    } else {
                        // Wrapping window, e.g. 22:00–06:00.
                        m >= f || m < u
                    }
                })
            }
        }
    }

    /// The next instant at or after `t` with low tariff, searched on a
    /// minute grid up to `horizon` ahead. `None` for flat schemes or
    /// when no window opens within the horizon.
    pub fn next_low_tariff_start(&self, t: Timestamp, horizon: Duration) -> Option<Timestamp> {
        if !self.is_multi_tariff() {
            return None;
        }
        let mut cur = t;
        let end = t + horizon;
        while cur <= end {
            if self.is_low_tariff(cur) {
                return Some(cur);
            }
            cur += Duration::minutes(1);
        }
        None
    }
}

/// A household's behavioural response to a multi-tariff scheme.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TariffResponse {
    /// The billing scheme the household is on.
    pub scheme: TariffScheme,
    /// Probability that a *shiftable* activation is delayed into the
    /// next low-tariff window (0 = ignores prices, 1 = always delays).
    pub sensitivity: f64,
}

impl TariffResponse {
    /// A response to the overnight scheme with the given sensitivity.
    pub fn overnight(sensitivity: f64) -> Self {
        TariffResponse {
            scheme: TariffScheme::overnight(),
            sensitivity: sensitivity.clamp(0.0, 1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    #[test]
    fn flat_scheme_has_no_low_windows() {
        let flat = TariffScheme::Flat { price: 0.25 };
        assert!(!flat.is_multi_tariff());
        assert!(!flat.is_low_tariff(ts("2013-03-18 23:00")));
        assert_eq!(
            flat.next_low_tariff_start(ts("2013-03-18 12:00"), Duration::days(1)),
            None
        );
    }

    #[test]
    fn overnight_window_wraps_midnight() {
        let s = TariffScheme::overnight();
        assert!(s.is_multi_tariff());
        assert!(s.is_low_tariff(ts("2013-03-18 23:00")));
        assert!(s.is_low_tariff(ts("2013-03-19 03:00")));
        assert!(s.is_low_tariff(ts("2013-03-18 22:00"))); // inclusive start
        assert!(!s.is_low_tariff(ts("2013-03-19 06:00"))); // exclusive end
        assert!(!s.is_low_tariff(ts("2013-03-18 12:00")));
    }

    #[test]
    fn next_low_tariff_search() {
        let s = TariffScheme::overnight();
        // From noon, next low-tariff start is 22:00 the same day.
        assert_eq!(
            s.next_low_tariff_start(ts("2013-03-18 12:00"), Duration::days(1)),
            Some(ts("2013-03-18 22:00"))
        );
        // Already inside a window → identity.
        assert_eq!(
            s.next_low_tariff_start(ts("2013-03-18 23:17"), Duration::days(1)),
            Some(ts("2013-03-18 23:17"))
        );
        // Horizon too short → None.
        assert_eq!(
            s.next_low_tariff_start(ts("2013-03-18 12:00"), Duration::hours(2)),
            None
        );
    }

    #[test]
    fn non_wrapping_window() {
        let s = TariffScheme::TimeOfUse {
            high_price: 0.3,
            low_price: 0.1,
            low_windows: vec![(
                CivilTime::new(13, 0).unwrap(),
                CivilTime::new(15, 0).unwrap(),
            )],
        };
        assert!(s.is_low_tariff(ts("2013-03-18 14:00")));
        assert!(!s.is_low_tariff(ts("2013-03-18 15:00")));
        assert!(!s.is_low_tariff(ts("2013-03-18 23:00")));
    }

    #[test]
    fn response_clamps_sensitivity() {
        assert_eq!(TariffResponse::overnight(1.7).sensitivity, 1.0);
        assert_eq!(TariffResponse::overnight(-0.2).sensitivity, 0.0);
        assert_eq!(TariffResponse::overnight(0.6).sensitivity, 0.6);
    }

    #[test]
    fn serde_round_trip() {
        let r = TariffResponse::overnight(0.8);
        let json = serde_json::to_string(&r).unwrap();
        let back: TariffResponse = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
