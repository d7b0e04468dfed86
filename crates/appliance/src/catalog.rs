//! The appliance catalog, seeded with the paper's Table 1.

use crate::{
    ApplianceCategory, ApplianceSpec, LoadProfile, ProfilePhase, Shiftability, UsageFrequency,
    UsageModel,
};
use flextract_time::{CivilTime, Duration};
use serde::{Deserialize, Serialize};

/// A queryable collection of appliance specifications.
///
/// The paper assumes "the specification of the electricity usage of all
/// appliances ever manufactured in the world" (§4.1). [`Catalog::table1`]
/// reproduces the six published rows; [`Catalog::extended`] adds the
/// always-on and non-shiftable appliances a realistic household mix
/// needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Catalog {
    specs: Vec<ApplianceSpec>,
}

fn t(hour: u8, minute: u8) -> CivilTime {
    CivilTime::new(hour, minute).expect("catalog windows are static and valid")
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog { specs: Vec::new() }
    }

    /// Build from specs.
    pub fn from_specs(specs: Vec<ApplianceSpec>) -> Self {
        Catalog { specs }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// All rows in order.
    pub fn specs(&self) -> &[ApplianceSpec] {
        &self.specs
    }

    /// Iterate the rows.
    pub fn iter(&self) -> impl Iterator<Item = &ApplianceSpec> {
        self.specs.iter()
    }

    /// Add a row.
    pub fn push(&mut self, spec: ApplianceSpec) {
        self.specs.push(spec);
    }

    /// Find by exact display name.
    pub fn find_by_name(&self, name: &str) -> Option<&ApplianceSpec> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// The rows whose usage can be shifted — the flexibility candidates.
    pub fn shiftable(&self) -> Vec<&ApplianceSpec> {
        self.specs
            .iter()
            .filter(|s| s.shiftability.is_shiftable())
            .collect()
    }

    /// The rows that cannot be shifted (base and comfort load).
    pub fn non_shiftable(&self) -> Vec<&ApplianceSpec> {
        self.specs
            .iter()
            .filter(|s| !s.shiftability.is_shiftable())
            .collect()
    }

    /// Exactly the paper's Table 1: six appliances with their published
    /// energy-consumption ranges, given executable sub-15-min profiles.
    pub fn table1() -> Self {
        let specs = vec![
            // "Vacuum Cleaning Robot from Manufacturer X  0.5 - 1"
            ApplianceSpec {
                name: "Vacuum Cleaning Robot from Manufacturer X".into(),
                category: ApplianceCategory::VacuumRobot,
                energy_range_kwh: (0.5, 1.0),
                // Battery charge: 3 h trickle.
                profile: LoadProfile::new(vec![ProfilePhase::banded(180, 0.5 / 3.0, 1.0 / 3.0)]),
                usage: UsageModel {
                    // The paper's worked example: "cleans the house every
                    // day at 10AM … time flexibility as 22 hours".
                    frequency: UsageFrequency::PerDay(1.0),
                    preferred_windows: vec![(t(9, 30), t(10, 30), 1.0)],
                    weekend_multiplier: 1.0,
                },
                shiftability: Shiftability::Shiftable {
                    max_delay: Duration::hours(22),
                },
            },
            // "Washing Machine from Manufacturer Y  1.2 - 3"
            ApplianceSpec {
                name: "Washing Machine from Manufacturer Y".into(),
                category: ApplianceCategory::WashingMachine,
                energy_range_kwh: (1.2, 3.0),
                profile: LoadProfile::new(vec![
                    ProfilePhase::banded(30, 1.6, 3.6),   // heating
                    ProfilePhase::banded(75, 0.24, 0.72), // wash/rinse
                    ProfilePhase::banded(15, 0.4, 1.2),   // spin
                ]),
                usage: UsageModel {
                    frequency: UsageFrequency::PerWeek(3.0),
                    preferred_windows: vec![(t(7, 0), t(9, 0), 1.0), (t(18, 0), t(21, 0), 1.5)],
                    weekend_multiplier: 1.5,
                },
                shiftability: Shiftability::Shiftable {
                    max_delay: Duration::hours(8),
                },
            },
            // "Dishwasher from Manufacturer Z  1.2 - 2"
            ApplianceSpec {
                name: "Dishwasher from Manufacturer Z".into(),
                category: ApplianceCategory::Dishwasher,
                energy_range_kwh: (1.2, 2.0),
                profile: LoadProfile::new(vec![
                    ProfilePhase::banded(20, 1.8, 3.0), // heating
                    ProfilePhase::banded(60, 0.3, 0.6), // wash
                    ProfilePhase::banded(20, 0.9, 1.2), // dry
                ]),
                usage: UsageModel {
                    frequency: UsageFrequency::PerDay(0.8),
                    preferred_windows: vec![(t(13, 0), t(14, 30), 1.0), (t(19, 30), t(22, 0), 2.0)],
                    // §4.2: "the dishwasher is more used during the
                    // weekends since the family eats at home more often".
                    weekend_multiplier: 1.4,
                },
                shiftability: Shiftability::Shiftable {
                    max_delay: Duration::hours(10),
                },
            },
            // "Small Electric Vehicle  30 - 50"
            ApplianceSpec {
                name: "Small Electric Vehicle".into(),
                category: ApplianceCategory::ElectricVehicle,
                energy_range_kwh: (30.0, 50.0),
                profile: LoadProfile::new(vec![ProfilePhase::banded(150, 12.0, 20.0)]),
                usage: UsageModel {
                    frequency: UsageFrequency::PerDay(0.8),
                    preferred_windows: vec![(t(21, 0), t(23, 45), 1.0)],
                    weekend_multiplier: 0.7,
                },
                // Figure 1: start anywhere between 10 PM and 5 AM.
                shiftability: Shiftability::Shiftable {
                    max_delay: Duration::hours(7),
                },
            },
            // "Medium El. Vehicle  50 - 60"
            ApplianceSpec {
                name: "Medium El. Vehicle".into(),
                category: ApplianceCategory::ElectricVehicle,
                energy_range_kwh: (50.0, 60.0),
                profile: LoadProfile::new(vec![ProfilePhase::banded(150, 20.0, 24.0)]),
                usage: UsageModel {
                    frequency: UsageFrequency::PerDay(0.7),
                    preferred_windows: vec![(t(21, 0), t(23, 45), 1.0)],
                    weekend_multiplier: 0.7,
                },
                shiftability: Shiftability::Shiftable {
                    max_delay: Duration::hours(7),
                },
            },
            // "Large El. Vehicle  60 - 70"
            ApplianceSpec {
                name: "Large El. Vehicle".into(),
                category: ApplianceCategory::ElectricVehicle,
                energy_range_kwh: (60.0, 70.0),
                profile: LoadProfile::new(vec![ProfilePhase::banded(180, 20.0, 70.0 / 3.0)]),
                usage: UsageModel {
                    frequency: UsageFrequency::PerDay(0.6),
                    preferred_windows: vec![(t(21, 0), t(23, 45), 1.0)],
                    weekend_multiplier: 0.7,
                },
                shiftability: Shiftability::Shiftable {
                    max_delay: Duration::hours(7),
                },
            },
        ];
        Catalog { specs }
    }

    /// Table 1 plus the non-flexible appliances that dominate real
    /// household base load — needed so simulated series look like the
    /// paper's Figure 5 day rather than isolated spikes.
    pub fn extended() -> Self {
        let mut cat = Self::table1();
        cat.push(ApplianceSpec {
            name: "Refrigerator A+".into(),
            category: ApplianceCategory::Refrigerator,
            energy_range_kwh: (0.03, 0.07),
            // One compressor duty cycle; the simulator chains them
            // back-to-back all day.
            profile: LoadProfile::new(vec![ProfilePhase::banded(30, 0.06, 0.14)]),
            usage: UsageModel::uniform(UsageFrequency::Continuous),
            shiftability: Shiftability::NonShiftable,
        });
        cat.push(ApplianceSpec {
            name: "Electric Oven".into(),
            category: ApplianceCategory::Oven,
            energy_range_kwh: (1.5, 2.5),
            profile: LoadProfile::new(vec![ProfilePhase::banded(60, 1.5, 2.5)]),
            usage: UsageModel {
                frequency: UsageFrequency::PerDay(0.7),
                preferred_windows: vec![(t(17, 30), t(19, 30), 1.0)],
                weekend_multiplier: 1.3,
            },
            shiftability: Shiftability::NonShiftable,
        });
        cat.push(ApplianceSpec {
            name: "Kettle".into(),
            category: ApplianceCategory::Electronics,
            energy_range_kwh: (1.0 / 6.0, 0.2),
            profile: LoadProfile::new(vec![ProfilePhase::banded(5, 2.0, 2.4)]),
            usage: UsageModel {
                frequency: UsageFrequency::PerDay(3.0),
                preferred_windows: vec![
                    (t(6, 30), t(8, 30), 2.0),
                    (t(12, 0), t(13, 0), 1.0),
                    (t(19, 0), t(21, 0), 1.0),
                ],
                weekend_multiplier: 1.1,
            },
            shiftability: Shiftability::NonShiftable,
        });
        cat.push(ApplianceSpec {
            name: "Television & Electronics".into(),
            category: ApplianceCategory::Electronics,
            energy_range_kwh: (0.3, 0.6),
            profile: LoadProfile::new(vec![ProfilePhase::banded(180, 0.1, 0.2)]),
            usage: UsageModel {
                frequency: UsageFrequency::PerDay(1.5),
                preferred_windows: vec![(t(18, 0), t(22, 30), 1.0)],
                weekend_multiplier: 1.4,
            },
            shiftability: Shiftability::NonShiftable,
        });
        cat.push(ApplianceSpec {
            name: "Lighting Circuit".into(),
            category: ApplianceCategory::Lighting,
            energy_range_kwh: (0.5, 1.5),
            profile: LoadProfile::new(vec![ProfilePhase::banded(300, 0.1, 0.3)]),
            usage: UsageModel {
                frequency: UsageFrequency::PerDay(1.0),
                preferred_windows: vec![(t(17, 0), t(19, 0), 1.0)],
                weekend_multiplier: 1.1,
            },
            shiftability: Shiftability::NonShiftable,
        });
        cat.push(ApplianceSpec {
            name: "Tumble Dryer".into(),
            category: ApplianceCategory::TumbleDryer,
            energy_range_kwh: (3.0, 4.5),
            profile: LoadProfile::new(vec![ProfilePhase::banded(90, 2.0, 3.0)]),
            usage: UsageModel {
                frequency: UsageFrequency::PerWeek(2.0),
                preferred_windows: vec![(t(9, 0), t(12, 0), 1.0), (t(19, 0), t(21, 0), 1.0)],
                weekend_multiplier: 1.5,
            },
            shiftability: Shiftability::Shiftable {
                max_delay: Duration::hours(6),
            },
        });
        cat.push(ApplianceSpec {
            name: "Water Heater".into(),
            category: ApplianceCategory::WaterHeater,
            energy_range_kwh: (3.0, 4.0),
            profile: LoadProfile::new(vec![ProfilePhase::banded(120, 1.5, 2.0)]),
            usage: UsageModel {
                frequency: UsageFrequency::PerDay(1.0),
                preferred_windows: vec![(t(4, 0), t(6, 0), 1.0)],
                weekend_multiplier: 1.0,
            },
            shiftability: Shiftability::Shiftable {
                max_delay: Duration::hours(4),
            },
        });
        cat.push(ApplianceSpec {
            name: "Heat Pump".into(),
            category: ApplianceCategory::HeatPump,
            energy_range_kwh: (4.0, 8.0),
            profile: LoadProfile::new(vec![ProfilePhase::banded(240, 1.0, 2.0)]),
            usage: UsageModel {
                frequency: UsageFrequency::PerDay(1.0),
                preferred_windows: vec![(t(5, 0), t(7, 0), 1.0), (t(16, 0), t(18, 0), 0.8)],
                weekend_multiplier: 1.0,
            },
            shiftability: Shiftability::Shiftable {
                max_delay: Duration::hours(2),
            },
        });
        cat
    }

    /// Render the catalog in the layout of the paper's Table 1.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<45} {:<22} {}\n",
            "Appliance name", "Energy Range (kWh)", "Energy profile"
        ));
        out.push_str(&"-".repeat(100));
        out.push('\n');
        for s in &self.specs {
            let phases: Vec<String> = s
                .profile
                .phases()
                .iter()
                .map(|p| format!("{}min@{:.2}-{:.2}kW", p.duration_min, p.min_kw, p.max_kw))
                .collect();
            out.push_str(&format!(
                "{:<45} {:<22} {}\n",
                s.name,
                format!("{} - {}", s.energy_range_kwh.0, s.energy_range_kwh.1),
                phases.join(" | ")
            ));
        }
        out
    }
}

impl<'a> IntoIterator for &'a Catalog {
    type Item = &'a ApplianceSpec;
    type IntoIter = std::slice::Iter<'a, ApplianceSpec>;
    fn into_iter(self) -> Self::IntoIter {
        self.specs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_exactly_the_published_rows() {
        let cat = Catalog::table1();
        assert_eq!(cat.len(), 6);
        let expect = [
            ("Vacuum Cleaning Robot from Manufacturer X", 0.5, 1.0),
            ("Washing Machine from Manufacturer Y", 1.2, 3.0),
            ("Dishwasher from Manufacturer Z", 1.2, 2.0),
            ("Small Electric Vehicle", 30.0, 50.0),
            ("Medium El. Vehicle", 50.0, 60.0),
            ("Large El. Vehicle", 60.0, 70.0),
        ];
        for (name, lo, hi) in expect {
            let s = cat
                .find_by_name(name)
                .unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(s.energy_range_kwh, (lo, hi), "{name}");
        }
    }

    #[test]
    fn table1_profiles_integrate_to_declared_ranges() {
        for s in Catalog::table1().iter() {
            assert!(
                s.profile_consistent(1e-9),
                "{}: profile integrates to {:?}, declared {:?}",
                s.name,
                s.profile.energy_range_kwh(),
                s.energy_range_kwh
            );
        }
    }

    #[test]
    fn table1_profiles_are_sub_15min_granularity() {
        // "granularity must be even smaller than 15min": every profile
        // has at least one phase, and expansion is per-minute.
        for s in Catalog::table1().iter() {
            assert!(!s.profile.phases().is_empty());
            let curve = s.profile.nominal_curve_kw();
            assert_eq!(curve.len() as i64, s.profile.duration().as_minutes());
        }
    }

    #[test]
    fn table1_is_fully_shiftable_and_roomba_has_22h() {
        let cat = Catalog::table1();
        assert_eq!(cat.shiftable().len(), 6);
        let roomba = cat
            .find_by_name("Vacuum Cleaning Robot from Manufacturer X")
            .unwrap();
        assert_eq!(roomba.shiftability.max_delay(), Duration::hours(22));
        assert_eq!(roomba.usage.frequency.mean_daily_rate(), Some(1.0));
    }

    #[test]
    fn extended_adds_non_shiftable_base_load() {
        let cat = Catalog::extended();
        assert!(cat.len() > 6);
        assert!(!cat.non_shiftable().is_empty());
        let fridge = cat.find_by_name("Refrigerator A+").unwrap();
        assert_eq!(fridge.usage.frequency, UsageFrequency::Continuous);
        assert!(!fridge.shiftability.is_shiftable());
        // Every extended profile is still self-consistent.
        for s in cat.iter() {
            assert!(s.profile_consistent(1e-9), "{}", s.name);
        }
    }

    #[test]
    fn rendered_table_contains_every_row() {
        let cat = Catalog::table1();
        let table = cat.render_table();
        for s in cat.iter() {
            assert!(table.contains(&s.name), "table missing {}", s.name);
        }
        assert!(table.contains("30 - 50"));
        assert!(table.contains("Energy profile"));
    }

    #[test]
    fn push_and_find() {
        let mut cat = Catalog::new();
        assert!(cat.is_empty());
        let spec = Catalog::table1().specs()[0].clone();
        cat.push(spec);
        assert_eq!(cat.len(), 1);
        assert!(cat
            .find_by_name("Vacuum Cleaning Robot from Manufacturer X")
            .is_some());
        assert!(cat.find_by_name("Nonexistent").is_none());
    }

    #[test]
    fn iteration_conveniences() {
        let cat = Catalog::table1();
        let names: Vec<_> = (&cat).into_iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), 6);
        assert_eq!(cat.iter().count(), 6);
    }

    #[test]
    fn serde_round_trip() {
        let cat = Catalog::extended();
        let json = serde_json::to_string(&cat).unwrap();
        let back: Catalog = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cat);
    }
}
