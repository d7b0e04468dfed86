//! Usage-frequency mining — §4.1's "step 1".
//!
//! From a set of detected activations over an observation window, derive
//! "a shortlist of the possibly used appliances, their usage frequency,
//! and the time flexibility (difference between latest start time and
//! earliest start time)". Frequencies come from counting; time
//! flexibility comes from the catalog's shiftability metadata.

use crate::matching::DetectedActivation;
use flextract_appliance::{Catalog, UsageFrequency};
use flextract_time::Duration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One row of the mined shortlist.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApplianceUsageRow {
    /// Catalog name.
    pub appliance: String,
    /// Total detected activations in the window.
    pub count: usize,
    /// Mean detected activations per day.
    pub mean_daily_rate: f64,
    /// The rate classified into the paper's frequency buckets.
    pub classified: UsageFrequency,
    /// Time flexibility from the catalog (zero when unknown or
    /// non-shiftable).
    pub time_flexibility: Duration,
    /// Mean fitted intensity across detections.
    pub mean_intensity: f64,
}

/// The §4.1 step-1 output: per-appliance usage statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrequencyTable {
    /// Days in the observation window.
    pub observed_days: f64,
    /// Rows in descending count order.
    pub rows: Vec<ApplianceUsageRow>,
}

impl FrequencyTable {
    /// Mine the table from detections over `observed_days` days,
    /// resolving time flexibility against `catalog`.
    pub fn mine(detections: &[DetectedActivation], observed_days: f64, catalog: &Catalog) -> Self {
        assert!(observed_days > 0.0, "observation window must be positive");
        let mut grouped: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
        for d in detections {
            let entry = grouped.entry(&d.appliance).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += d.intensity;
        }
        let mut rows: Vec<ApplianceUsageRow> = grouped
            .into_iter()
            .map(|(name, (count, intensity_sum))| {
                let rate = count as f64 / observed_days;
                ApplianceUsageRow {
                    appliance: name.to_string(),
                    count,
                    mean_daily_rate: rate,
                    classified: classify_rate(rate),
                    time_flexibility: catalog
                        .find_by_name(name)
                        .map(|s| s.shiftability.max_delay())
                        .unwrap_or(Duration::ZERO),
                    mean_intensity: intensity_sum / count as f64,
                }
            })
            .collect();
        rows.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then_with(|| a.appliance.cmp(&b.appliance))
        });
        FrequencyTable {
            observed_days,
            rows,
        }
    }

    /// The shortlist: appliances with positive time flexibility — the
    /// candidates for flex-offer generation.
    pub fn shortlist(&self) -> Vec<&ApplianceUsageRow> {
        self.rows
            .iter()
            .filter(|r| r.time_flexibility > Duration::ZERO && r.count > 0)
            .collect()
    }

    /// Look up a row by appliance name.
    pub fn row(&self, appliance: &str) -> Option<&ApplianceUsageRow> {
        self.rows.iter().find(|r| r.appliance == appliance)
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<45} {:>6} {:>10} {:>14} {:>10}\n",
            "Appliance", "count", "rate/day", "frequency", "time-flex"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<45} {:>6} {:>10.2} {:>14} {:>10}\n",
                r.appliance,
                r.count,
                r.mean_daily_rate,
                match r.classified {
                    UsageFrequency::PerDay(_) => "daily",
                    UsageFrequency::PerWeek(_) => "weekly",
                    UsageFrequency::PerMonth(_) => "monthly",
                    UsageFrequency::Continuous => "continuous",
                },
                r.time_flexibility.to_string(),
            ));
        }
        out
    }
}

/// Classify a mean daily rate into the paper's buckets ("some of the
/// appliances may be used daily while some may be used weekly or
/// monthly").
fn classify_rate(rate: f64) -> UsageFrequency {
    if rate >= 0.5 {
        UsageFrequency::PerDay(rate)
    } else if rate * 7.0 >= 0.5 {
        UsageFrequency::PerWeek(rate * 7.0)
    } else {
        UsageFrequency::PerMonth(rate * 30.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextract_time::Timestamp;

    fn det(name: &str, start: &str, intensity: f64) -> DetectedActivation {
        DetectedActivation {
            appliance: name.into(),
            start: start.parse::<Timestamp>().unwrap(),
            intensity,
            energy_kwh: 1.0,
            score: 0.1,
        }
    }

    fn sample_detections() -> Vec<DetectedActivation> {
        vec![
            det(
                "Washing Machine from Manufacturer Y",
                "2013-03-18 08:00",
                0.4,
            ),
            det(
                "Washing Machine from Manufacturer Y",
                "2013-03-20 19:00",
                0.6,
            ),
            det(
                "Washing Machine from Manufacturer Y",
                "2013-03-22 09:00",
                0.5,
            ),
            det(
                "Vacuum Cleaning Robot from Manufacturer X",
                "2013-03-18 10:00",
                0.5,
            ),
            det(
                "Vacuum Cleaning Robot from Manufacturer X",
                "2013-03-19 10:00",
                0.5,
            ),
            det(
                "Vacuum Cleaning Robot from Manufacturer X",
                "2013-03-20 10:00",
                0.5,
            ),
            det(
                "Vacuum Cleaning Robot from Manufacturer X",
                "2013-03-21 10:00",
                0.5,
            ),
            det(
                "Vacuum Cleaning Robot from Manufacturer X",
                "2013-03-22 10:00",
                0.5,
            ),
            det(
                "Vacuum Cleaning Robot from Manufacturer X",
                "2013-03-23 10:00",
                0.5,
            ),
            det(
                "Vacuum Cleaning Robot from Manufacturer X",
                "2013-03-24 10:00",
                0.5,
            ),
            det("Electric Oven", "2013-03-19 18:00", 0.7),
        ]
    }

    #[test]
    fn counts_and_rates() {
        let cat = Catalog::extended();
        let table = FrequencyTable::mine(&sample_detections(), 7.0, &cat);
        let roomba = table
            .row("Vacuum Cleaning Robot from Manufacturer X")
            .unwrap();
        assert_eq!(roomba.count, 7);
        assert!((roomba.mean_daily_rate - 1.0).abs() < 1e-9);
        assert!(matches!(roomba.classified, UsageFrequency::PerDay(_)));
        // "time flexibility as 22 hours" — the paper's Roomba example.
        assert_eq!(roomba.time_flexibility, Duration::hours(22));

        let washer = table.row("Washing Machine from Manufacturer Y").unwrap();
        assert_eq!(washer.count, 3);
        assert!(matches!(washer.classified, UsageFrequency::PerWeek(_)));
        assert!((washer.mean_intensity - 0.5).abs() < 1e-9);
    }

    #[test]
    fn rows_sorted_by_count() {
        let cat = Catalog::extended();
        let table = FrequencyTable::mine(&sample_detections(), 7.0, &cat);
        assert_eq!(
            table.rows[0].appliance,
            "Vacuum Cleaning Robot from Manufacturer X"
        );
        for pair in table.rows.windows(2) {
            assert!(pair[0].count >= pair[1].count);
        }
    }

    #[test]
    fn shortlist_keeps_only_flexible_appliances() {
        let cat = Catalog::extended();
        let table = FrequencyTable::mine(&sample_detections(), 7.0, &cat);
        let names: Vec<&str> = table
            .shortlist()
            .iter()
            .map(|r| r.appliance.as_str())
            .collect();
        assert!(names.contains(&"Vacuum Cleaning Robot from Manufacturer X"));
        assert!(names.contains(&"Washing Machine from Manufacturer Y"));
        // The oven is detected but non-shiftable → excluded.
        assert!(!names.contains(&"Electric Oven"));
    }

    #[test]
    fn unknown_appliances_get_zero_flexibility() {
        let cat = Catalog::extended();
        let dets = vec![det("Mystery Gadget", "2013-03-18 12:00", 0.5)];
        let table = FrequencyTable::mine(&dets, 7.0, &cat);
        assert_eq!(table.rows[0].time_flexibility, Duration::ZERO);
        assert!(table.shortlist().is_empty());
    }

    #[test]
    fn monthly_classification() {
        let cat = Catalog::extended();
        let dets = vec![det(
            "Washing Machine from Manufacturer Y",
            "2013-03-18 08:00",
            0.5,
        )];
        let table = FrequencyTable::mine(&dets, 30.0, &cat);
        let row = table.row("Washing Machine from Manufacturer Y").unwrap();
        assert!(matches!(row.classified, UsageFrequency::PerMonth(_)));
    }

    #[test]
    fn render_contains_all_rows() {
        let cat = Catalog::extended();
        let table = FrequencyTable::mine(&sample_detections(), 7.0, &cat);
        let text = table.render();
        for r in &table.rows {
            assert!(text.contains(&r.appliance));
        }
        assert!(text.contains("daily"));
        assert!(text.contains("weekly"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_days_panics() {
        let cat = Catalog::extended();
        FrequencyTable::mine(&[], 0.0, &cat);
    }

    #[test]
    fn empty_detections_empty_table() {
        let cat = Catalog::extended();
        let table = FrequencyTable::mine(&[], 7.0, &cat);
        assert!(table.rows.is_empty());
        assert!(table.shortlist().is_empty());
    }
}
