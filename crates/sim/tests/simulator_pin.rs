//! A bit-level pin on the household simulator's output.
//!
//! A speed change to the simulator — an inlined sampler, a fused pass,
//! a cheaper division — must keep every draw and every float operation,
//! so it must leave this hash where it is. A change that moves it is a
//! re-baseline (README § "Re-baselining after a simulator change") and
//! updates `PINNED` together with the goldens it regenerates.
//!
//! The hash covers the bit patterns of `series`, `flexible_series` and
//! every `Activation` field of 28 households: all four archetypes, each
//! over seven setups — a week with and without tariff response, a
//! noise-free week (the path where only clipping runs), a ragged range
//! widened to whole days, and three single days where cycles run past
//! the end of the span: late-evening windows and tariff delays cut
//! cycles short, and a catalog whose preferred windows wrap past
//! midnight starts some cycles after the span has ended.

use flextract_appliance::Catalog;
use flextract_sim::{
    simulate_household, simulate_household_with_catalog, Activation, HouseholdArchetype,
    HouseholdConfig, SimulatedHousehold, TariffResponse,
};
use flextract_time::{CivilTime, Duration, TimeRange, Timestamp};

/// FNV-1a over 64-bit words, fixed across platforms and toolchains.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn series(&mut self, s: &flextract_series::TimeSeries) {
        self.word(s.start().as_minutes() as u64);
        self.word(s.resolution().minutes() as u64);
        self.word(s.len() as u64);
        for v in s.values() {
            self.word(v.to_bits());
        }
    }

    fn activation(&mut self, a: &Activation) {
        self.word(a.appliance.len() as u64);
        for byte in a.appliance.bytes() {
            self.word(u64::from(byte));
        }
        self.word(a.start.as_minutes() as u64);
        self.word(a.duration.as_minutes() as u64);
        self.word(a.intensity.to_bits());
        self.word(a.energy_kwh.to_bits());
        self.word(u64::from(a.shiftable));
        match a.shifted_from {
            Some(t) => {
                self.word(1);
                self.word(t.as_minutes() as u64);
            }
            None => self.word(0),
        }
    }

    fn household(&mut self, sim: &SimulatedHousehold) {
        self.series(&sim.series);
        self.series(&sim.flexible_series);
        self.word(sim.activations.len() as u64);
        for a in &sim.activations {
            self.activation(a);
        }
    }
}

/// The hash of [`households`] as the simulator stands.
const PINNED: u64 = 0x42ee_a3fb_5c60_9f04;

fn ts(s: &str) -> Timestamp {
    s.parse().unwrap()
}

/// The extended catalog with every preferred window replaced by one
/// that wraps past midnight (22:30 → 01:30).
fn wrapped_catalog() -> Catalog {
    let window = (
        CivilTime::new(22, 30).unwrap(),
        CivilTime::new(1, 30).unwrap(),
        1.0,
    );
    let mut specs = Catalog::extended().specs().to_vec();
    for spec in &mut specs {
        spec.usage.preferred_windows = vec![window];
    }
    Catalog::from_specs(specs)
}

/// The 28 pinned households, in hashing order.
fn households() -> Vec<SimulatedHousehold> {
    let week = TimeRange::starting_at(ts("2013-03-18"), Duration::weeks(1)).unwrap();
    let ragged = TimeRange::new(ts("2013-03-20 13:37"), ts("2013-03-22 02:11")).unwrap();
    let saturday = TimeRange::starting_at(ts("2013-03-23"), Duration::days(1)).unwrap();
    let tuesday = TimeRange::starting_at(ts("2013-03-19"), Duration::days(1)).unwrap();
    let wrapped = wrapped_catalog();
    let mut out = Vec::new();
    for (a, archetype) in HouseholdArchetype::ALL.into_iter().enumerate() {
        let id = 100 + 10 * a as u64;
        let cfg = |k: u64| HouseholdConfig::new(id + k, archetype);
        out.push(simulate_household(&cfg(0), week));
        out.push(simulate_household(
            &cfg(1).with_tariff_response(TariffResponse::overnight(0.7)),
            week,
        ));
        out.push(simulate_household(&cfg(2).with_noise(0.0), week));
        out.push(simulate_household(&cfg(3).with_noise(0.25), ragged));
        out.push(simulate_household(
            &cfg(4).with_tariff_response(TariffResponse::overnight(1.0)),
            saturday,
        ));
        out.push(simulate_household(&cfg(5).with_noise(0.0), tuesday));
        out.push(simulate_household_with_catalog(&cfg(6), tuesday, &wrapped));
    }
    out
}

#[test]
fn simulator_output_is_pinned_bit_for_bit() {
    let sims = households();
    assert_eq!(sims.len(), 28);
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for sim in &sims {
        h.household(sim);
    }
    assert_eq!(
        h.0, PINNED,
        "simulator output moved: got {:#018x}; a speed change must not move it",
        h.0
    );
}

#[test]
fn pinned_households_reach_the_edge_cases() {
    let sims = households();
    // Noise-free households exercise the clip-only path.
    assert!(sims.iter().any(|s| s.config.noise_level == 0.0));
    // Tariff response delayed at least one cycle.
    assert!(sims
        .iter()
        .any(|s| s.activations.iter().any(Activation::was_shifted)));
    // On the single days, some cycle runs past the end of the span and
    // is only partly placed.
    let single_days = sims.iter().filter(|s| s.series.len() == 1440);
    let truncated = single_days
        .flat_map(|s| s.activations.iter().map(move |a| (s, a)))
        .filter(|(s, a)| a.start + a.duration > s.series.end())
        .count();
    assert!(truncated > 0, "no single-day cycle crosses the span end");
}
