//! Phase-wise appliance load profiles.
//!
//! An appliance cycle (one washing-machine run, one EV charge) is
//! modelled as consecutive **phases**, each with a duration and a
//! `[min, max]` power band — the paper's "energy profiles with min and
//! max ranges for every time stamp". The envelope is stored phase-wise
//! for compactness and expanded to 1-minute power samples on demand.

use flextract_series::TimeSeries;
use flextract_time::{Duration, Resolution, Timestamp};
use serde::{Deserialize, Serialize};

/// One phase of an appliance cycle: `duration_min` minutes drawing
/// between `min_kw` and `max_kw`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfilePhase {
    /// Phase length in whole minutes (> 0).
    pub duration_min: u32,
    /// Lower bound of the power band (kW, ≥ 0).
    pub min_kw: f64,
    /// Upper bound of the power band (kW, ≥ `min_kw`).
    pub max_kw: f64,
}

impl ProfilePhase {
    /// A constant-power phase (no band width).
    pub fn flat(duration_min: u32, kw: f64) -> Self {
        ProfilePhase {
            duration_min,
            min_kw: kw,
            max_kw: kw,
        }
    }

    /// A banded phase.
    pub fn banded(duration_min: u32, min_kw: f64, max_kw: f64) -> Self {
        debug_assert!(min_kw >= 0.0 && max_kw >= min_kw);
        ProfilePhase {
            duration_min,
            min_kw,
            max_kw,
        }
    }
}

/// A whole-cycle load profile: consecutive phases at 1-min granularity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadProfile {
    phases: Vec<ProfilePhase>,
}

impl LoadProfile {
    /// Build from phases; empty or zero-duration phases are rejected by
    /// debug assertion (catalog profiles are static data).
    pub fn new(phases: Vec<ProfilePhase>) -> Self {
        debug_assert!(
            !phases.is_empty(),
            "a load profile needs at least one phase"
        );
        debug_assert!(phases.iter().all(|p| p.duration_min > 0));
        LoadProfile { phases }
    }

    /// The phases in order.
    pub fn phases(&self) -> &[ProfilePhase] {
        &self.phases
    }

    /// Total cycle duration.
    pub fn duration(&self) -> Duration {
        Duration::minutes(self.phases.iter().map(|p| p.duration_min as i64).sum())
    }

    /// Per-cycle energy bounds `(min_kwh, max_kwh)` — integrating the
    /// power envelope.
    pub fn energy_range_kwh(&self) -> (f64, f64) {
        let mut lo = 0.0;
        let mut hi = 0.0;
        for p in &self.phases {
            let h = p.duration_min as f64 / 60.0;
            lo += p.min_kw * h;
            hi += p.max_kw * h;
        }
        (lo, hi)
    }

    /// Expand to per-minute power samples at `intensity` ∈ [0, 1], which
    /// interpolates each phase between its min (0) and max (1) power.
    pub fn power_curve_kw(&self, intensity: f64) -> Vec<f64> {
        let mut out = Vec::new();
        self.fill_power_curve_kw(intensity, &mut out);
        out
    }

    /// [`LoadProfile::power_curve_kw`] into a reusable buffer (cleared
    /// first).
    pub fn fill_power_curve_kw(&self, intensity: f64, out: &mut Vec<f64>) {
        self.fill_per_phase(intensity, out, |kw| kw);
    }

    /// The phases at `intensity` ∈ [0, 1] as runs of equal values, one
    /// `(minutes, per_minute(kW))` per phase, where the phase's power
    /// interpolates between its min (0) and max (1). This is the single
    /// owner of the phase math — every per-minute realisation derives
    /// from it, so the simulator's cycle energies and the
    /// disaggregator's matching templates can never diverge. Every
    /// minute of a phase draws the same power, so mapping it once per
    /// phase gives the same bits as mapping each minute.
    fn per_phase(
        &self,
        intensity: f64,
        per_minute: fn(f64) -> f64,
    ) -> impl Iterator<Item = (usize, f64)> + '_ {
        let x = intensity.clamp(0.0, 1.0);
        self.phases.iter().map(move |p| {
            let kw = p.min_kw + (p.max_kw - p.min_kw) * x;
            (p.duration_min as usize, per_minute(kw))
        })
    }

    /// Expand [`LoadProfile::per_phase`] into `out` (cleared first), one
    /// value per minute.
    fn fill_per_phase(&self, intensity: f64, out: &mut Vec<f64>, per_minute: fn(f64) -> f64) {
        out.clear();
        out.reserve(self.phases.iter().map(|p| p.duration_min as usize).sum());
        for (minutes, value) in self.per_phase(intensity, per_minute) {
            out.extend(std::iter::repeat_n(value, minutes));
        }
    }

    /// One cycle's per-minute energies (kWh per minute) at `intensity`
    /// as runs, one `(minutes, kWh per minute)` per phase: the values
    /// [`LoadProfile::fill_energy_values`] writes, without a buffer.
    pub fn energy_runs(&self, intensity: f64) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.per_phase(intensity, kwh_per_minute)
    }

    /// The nominal (midpoint-intensity) per-minute power curve — used as
    /// the matching template by the disaggregator.
    pub fn nominal_curve_kw(&self) -> Vec<f64> {
        self.power_curve_kw(0.5)
    }

    /// Fill `out` with one cycle's per-minute energies (kWh per minute)
    /// at `intensity` — the allocation-free core of
    /// [`LoadProfile::to_energy_series`]. `out` is cleared first, so a
    /// caller can reuse one scratch buffer across many cycles.
    pub fn fill_energy_values(&self, intensity: f64, out: &mut Vec<f64>) {
        self.fill_per_phase(intensity, out, kwh_per_minute);
    }

    /// Realise one cycle starting at `start` as a 1-minute energy
    /// series (kWh per minute) at the given intensity.
    pub fn to_energy_series(&self, start: Timestamp, intensity: f64) -> TimeSeries {
        let start = start.floor_to(Resolution::MIN_1);
        let mut values = Vec::new();
        self.fill_energy_values(intensity, &mut values);
        TimeSeries::new(start, Resolution::MIN_1, values)
            .expect("minute floor is always aligned to MIN_1")
    }

    /// Energy (kWh) of one cycle at the given intensity.
    pub fn cycle_energy_kwh(&self, intensity: f64) -> f64 {
        let (lo, hi) = self.energy_range_kwh();
        lo + (hi - lo) * intensity.clamp(0.0, 1.0)
    }
}

/// One minute of `kw` as energy (kWh).
fn kwh_per_minute(kw: f64) -> f64 {
    kw / 60.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn washer_like() -> LoadProfile {
        LoadProfile::new(vec![
            ProfilePhase::banded(20, 1.8, 2.2), // heating
            ProfilePhase::banded(60, 0.3, 0.5), // wash
            ProfilePhase::banded(10, 0.6, 1.0), // spin
        ])
    }

    #[test]
    fn duration_sums_phases() {
        assert_eq!(washer_like().duration(), Duration::minutes(90));
    }

    #[test]
    fn energy_range_integrates_envelope() {
        let (lo, hi) = washer_like().energy_range_kwh();
        // lo = 1.8*(20/60) + 0.3*1 + 0.6*(10/60) = 0.6 + 0.3 + 0.1 = 1.0
        assert!((lo - 1.0).abs() < 1e-9, "{lo}");
        // hi = 2.2/3 + 0.5 + 1.0/6 ≈ 0.7333 + 0.5 + 0.1667 = 1.4
        assert!((hi - 1.4).abs() < 1e-9, "{hi}");
    }

    #[test]
    fn intensity_interpolates_power() {
        let p = washer_like();
        let at_min = p.power_curve_kw(0.0);
        let at_max = p.power_curve_kw(1.0);
        let mid = p.power_curve_kw(0.5);
        assert_eq!(at_min.len(), 90);
        assert!((at_min[0] - 1.8).abs() < 1e-12);
        assert!((at_max[0] - 2.2).abs() < 1e-12);
        assert!((mid[0] - 2.0).abs() < 1e-12);
        // Out-of-range intensity clamps.
        assert_eq!(p.power_curve_kw(7.0), at_max);
        assert_eq!(p.power_curve_kw(-1.0), at_min);
    }

    #[test]
    fn nominal_curve_is_midpoint() {
        let p = washer_like();
        assert_eq!(p.nominal_curve_kw(), p.power_curve_kw(0.5));
    }

    #[test]
    fn energy_series_realisation() {
        let p = washer_like();
        let start: Timestamp = "2013-03-18 10:00".parse().unwrap();
        let s = p.to_energy_series(start, 0.0);
        assert_eq!(s.resolution(), Resolution::MIN_1);
        assert_eq!(s.len(), 90);
        assert!((s.total_energy() - 1.0).abs() < 1e-9);
        // Intensity 1.0 integrates to the max bound.
        let s_hi = p.to_energy_series(start, 1.0);
        assert!((s_hi.total_energy() - 1.4).abs() < 1e-9);
        // Unaligned start is floored to the minute.
        let s2 = p.to_energy_series(start, 0.5);
        assert_eq!(s2.start(), start);
    }

    #[test]
    fn cycle_energy_matches_series_energy() {
        let p = washer_like();
        let start: Timestamp = "2013-03-18 10:00".parse().unwrap();
        for &x in &[0.0, 0.25, 0.5, 0.75, 1.0] {
            let direct = p.cycle_energy_kwh(x);
            let via_series = p.to_energy_series(start, x).total_energy();
            assert!((direct - via_series).abs() < 1e-9, "intensity {x}");
        }
    }

    #[test]
    fn fill_energy_values_matches_the_envelope_integral() {
        // Anchored against the *independently computed* per-cycle
        // energy integral, not against to_energy_series (which derives
        // from the same fill) — so a drift in the shared phase
        // expansion cannot cancel out of the comparison.
        let p = washer_like();
        let mut scratch = vec![99.0; 3]; // stale content must be cleared
        for &x in &[0.0, 0.3, 0.5, 1.0] {
            p.fill_energy_values(x, &mut scratch);
            assert_eq!(scratch.len(), 90);
            let total: f64 = scratch.iter().sum();
            assert!(
                (total - p.cycle_energy_kwh(x)).abs() < 1e-9,
                "intensity {x}: {total} vs {}",
                p.cycle_energy_kwh(x)
            );
            // Per-minute values are the power curve scaled to kWh.
            let kw = p.power_curve_kw(x);
            assert!(scratch.iter().zip(&kw).all(|(e, k)| *e == k / 60.0));
        }
    }

    #[test]
    fn energy_values_are_the_power_curve_over_sixty_bit_for_bit() {
        let (mut kwh, mut kw) = (Vec::new(), Vec::new());
        for spec in crate::Catalog::extended().iter() {
            for &x in &[0.0, 0.25, 0.5, 1.0, -1.0, 2.0] {
                spec.profile.fill_energy_values(x, &mut kwh);
                spec.profile.fill_power_curve_kw(x, &mut kw);
                assert_eq!(kwh.len(), kw.len(), "{} at {x}", spec.name);
                for (i, (e, k)) in kwh.iter().zip(&kw).enumerate() {
                    assert_eq!(
                        e.to_bits(),
                        (k / 60.0).to_bits(),
                        "{} at {x}, minute {i}",
                        spec.name
                    );
                }
            }
        }
    }

    #[test]
    fn energy_runs_expand_to_the_energy_values_bit_for_bit() {
        let mut kwh = Vec::new();
        for spec in crate::Catalog::extended().iter() {
            for &x in &[0.0, 0.3, 1.0, 2.0] {
                spec.profile.fill_energy_values(x, &mut kwh);
                let expanded: Vec<u64> = spec
                    .profile
                    .energy_runs(x)
                    .flat_map(|(minutes, v)| std::iter::repeat_n(v.to_bits(), minutes))
                    .collect();
                let want: Vec<u64> = kwh.iter().map(|v| v.to_bits()).collect();
                assert_eq!(expanded, want, "{} at {x}", spec.name);
            }
        }
    }

    #[test]
    fn flat_phase_helper() {
        let ph = ProfilePhase::flat(30, 1.5);
        assert_eq!(ph.min_kw, ph.max_kw);
        let p = LoadProfile::new(vec![ph]);
        let (lo, hi) = p.energy_range_kwh();
        assert!((lo - 0.75).abs() < 1e-12);
        assert_eq!(lo, hi);
    }

    #[test]
    fn serde_round_trip() {
        let p = washer_like();
        let json = serde_json::to_string(&p).unwrap();
        let back: LoadProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }
}
