//! Seeded degradation operators: simulated fleet → realistic meter feed.
//!
//! Exporting a simulated fleet to the metered format runs each
//! consumer's pristine series through a [`Degradation`], which models
//! the four ways real metering data differs from a simulator's output:
//!
//! 1. **Granularity** — meters report coarse intervals (the paper's
//!    "only 15 min" caveat): exact energy-conserving downsampling.
//! 2. **Measurement noise** — multiplicative Gaussian error per
//!    interval.
//! 3. **Anomalies** — spurious spikes/dropouts (a stuck register, a
//!    neighbour's feed crossing over): short runs scaled by a factor.
//! 4. **Gaps** — meter or transmission outages: runs of missing
//!    intervals with a geometric length distribution.
//! 5. **Register quantization** — meters report whole register steps
//!    (a 1000 imp/kWh meter resolves 1 Wh), so read-outs snap to a
//!    grid instead of carrying the simulator's full float precision.
//!
//! Every operator draws from one caller-provided RNG in a fixed order
//! (noise, then anomalies, then gaps; quantization is deterministic
//! and draws nothing), so a degradation is a pure function of
//! `(series, seed)` — exported datasets are reproducible byte for
//! byte, which is what lets the committed corpus datasets be CI-gated
//! like golden files.

use crate::{DatasetError, MeasuredSeries};
use flextract_series::{resample, TimeSeries};
use flextract_sim::randomness::{clamp_to_zero, standard_normal};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the export-time degradation operators.
///
/// The default is the identity: no resampling, no noise, no anomalies,
/// no gaps — `apply` then reproduces the input values exactly, which is
/// what the round-trip property test pins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Degradation {
    /// Downsample to this resolution before anything else (`None` keeps
    /// the source resolution). Must be a whole multiple of the source
    /// resolution and at most one day.
    pub resolution_min: Option<i64>,
    /// Standard deviation of multiplicative measurement noise, as a
    /// fraction of each interval's value (0 = no noise). A noisy value
    /// is clamped at zero — meters do not report negative consumption.
    pub noise_std: f64,
    /// Per-interval probability that an anomaly run starts (0 = none).
    pub anomaly_rate: f64,
    /// Multiplier applied during an anomaly run (e.g. 4.0 for spikes,
    /// 0.0 for dropouts).
    pub anomaly_factor: f64,
    /// Anomaly run length in intervals (fixed, ≥ 1).
    pub anomaly_len: usize,
    /// Per-interval probability that a gap run starts (0 = none).
    pub gap_rate: f64,
    /// Mean gap run length in intervals (geometric distribution, ≥ 1).
    pub mean_gap_len: f64,
    /// Meter register resolution in kWh (0 = full float precision).
    /// Observed read-outs are rounded to the nearest multiple — a
    /// standard 1000 imp/kWh household meter is `0.001`. Quantized
    /// feeds are also what makes the `FXM3` XOR codec earn its keep:
    /// repeated register values compress to one bit per interval.
    /// Absent in manifests written before this field existed, so it
    /// defaults to 0 on deserialization.
    #[serde(default)]
    pub quantize_kwh: f64,
}

impl Default for Degradation {
    fn default() -> Self {
        Degradation {
            resolution_min: None,
            noise_std: 0.0,
            anomaly_rate: 0.0,
            anomaly_factor: 4.0,
            anomaly_len: 2,
            gap_rate: 0.0,
            mean_gap_len: 4.0,
            quantize_kwh: 0.0,
        }
    }
}

impl Degradation {
    /// Check every field's domain.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(res) = self.resolution_min {
            if !(1..=24 * 60).contains(&res) {
                return Err(format!("resolution_min must be in [1, 1440], got {res}"));
            }
        }
        if !self.noise_std.is_finite() || self.noise_std < 0.0 {
            return Err("noise_std must be finite and non-negative".into());
        }
        for (name, rate) in [
            ("anomaly_rate", self.anomaly_rate),
            ("gap_rate", self.gap_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("{name} must be in [0, 1], got {rate}"));
            }
        }
        if !self.anomaly_factor.is_finite() || self.anomaly_factor < 0.0 {
            return Err("anomaly_factor must be finite and non-negative".into());
        }
        if self.anomaly_len == 0 {
            return Err("anomaly_len must be at least 1".into());
        }
        if !self.mean_gap_len.is_finite() || self.mean_gap_len < 1.0 {
            return Err("mean_gap_len must be at least 1".into());
        }
        if !self.quantize_kwh.is_finite() || self.quantize_kwh < 0.0 {
            return Err("quantize_kwh must be finite and non-negative".into());
        }
        Ok(())
    }

    /// Run `series` through the degradation pipeline with `rng`.
    ///
    /// Operator order is fixed (downsample → noise → anomalies → gaps)
    /// and each operator makes exactly one pass over the intervals, so
    /// the output is a deterministic function of the input and the RNG
    /// state. Gaps are injected last: an interval a meter never
    /// reported cannot also carry noise.
    pub fn apply(
        &self,
        series: &TimeSeries,
        rng: &mut StdRng,
    ) -> Result<MeasuredSeries, DatasetError> {
        self.validate().map_err(|what| DatasetError::Invalid {
            file: "<degradation>".to_string(),
            what,
        })?;
        let (start, resolution, mut values) = match self.resolution_min {
            None => (
                series.start(),
                series.resolution(),
                series.values().to_vec(),
            ),
            Some(min) => {
                // Downsample only: a finer target would *fabricate*
                // measurements (uniform smearing), which is not a
                // degradation a real meter can produce.
                let source_min = series.resolution().minutes();
                if min < source_min || min % source_min != 0 {
                    return Err(DatasetError::Invalid {
                        file: "<degradation>".to_string(),
                        what: format!(
                            "resolution_min {min} must be a whole multiple of the source \
                             resolution ({source_min} min); upsampling would fabricate data"
                        ),
                    });
                }
                let target = flextract_time::Resolution::from_minutes(min).map_err(|e| {
                    DatasetError::Invalid {
                        file: "<degradation>".to_string(),
                        what: format!("resolution_min {min}: {e}"),
                    }
                })?;
                let coarse = resample::to_resolution(series, target)?;
                (coarse.start(), coarse.resolution(), coarse.into_values())
            }
        };
        if self.noise_std > 0.0 {
            add_noise(rng, &mut values, self.noise_std);
        }
        if self.anomaly_rate > 0.0 {
            let mut i = 0;
            while i < values.len() {
                if rng.gen_bool(self.anomaly_rate) {
                    let end = (i + self.anomaly_len).min(values.len());
                    for v in values.iter_mut().take(end).skip(i) {
                        *v *= self.anomaly_factor;
                    }
                    i = end;
                } else {
                    i += 1;
                }
            }
        }
        if self.gap_rate > 0.0 {
            let mut i = 0;
            while i < values.len() {
                if rng.gen_bool(self.gap_rate) {
                    let len = geometric_len(rng, self.mean_gap_len, values.len() - i);
                    for v in values.iter_mut().take(i + len).skip(i) {
                        *v = f64::NAN;
                    }
                    i += len;
                } else {
                    i += 1;
                }
            }
        }
        if self.quantize_kwh > 0.0 {
            // The register read-out is the meter's last step, after
            // every error source; gaps stay NaN (an interval that was
            // never reported has no register delta to round). This
            // draws no randomness, so it cannot shift the RNG stream
            // of the seeded operators above.
            for v in values.iter_mut().filter(|v| !v.is_nan()) {
                *v = (*v / self.quantize_kwh).round() * self.quantize_kwh;
            }
        }
        MeasuredSeries::new(start, resolution, values).map_err(Into::into)
    }
}

/// The noise operator: scale every value by `1 + noise_std · z` with
/// `z` standard normal, clamped at zero.
///
/// A kernel on a local copy of the generator, so the generator stays in
/// registers for the whole pass (see the `flextract_sim::randomness`
/// module doc).
#[inline(never)]
fn add_noise(rng: &mut StdRng, values: &mut [f64], noise_std: f64) {
    let mut local = rng.clone();
    for v in values {
        *v = clamp_to_zero(*v * (1.0 + noise_std * standard_normal(&mut local)));
    }
    *rng = local;
}

/// A geometric run length with the given mean, capped at `max`.
fn geometric_len(rng: &mut StdRng, mean: f64, max: usize) -> usize {
    let stop = 1.0 / mean.max(1.0);
    let mut len = 1;
    while len < max && !rng.gen_bool(stop) {
        len += 1;
    }
    len.min(max.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextract_time::{Resolution, Timestamp};
    use rand::{RngCore, SeedableRng};

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    fn day() -> TimeSeries {
        TimeSeries::new(
            ts("2013-03-18"),
            Resolution::MIN_1,
            (0..1440).map(|i| 0.01 + (i % 60) as f64 * 1e-4).collect(),
        )
        .unwrap()
    }

    #[test]
    fn identity_degradation_is_exact() {
        let d = Degradation::default();
        let s = day();
        let m = d.apply(&s, &mut StdRng::seed_from_u64(1)).unwrap();
        assert_eq!(m.gap_count(), 0);
        assert_eq!(m.values(), s.values());
        assert_eq!(m.resolution(), s.resolution());
    }

    #[test]
    fn downsample_conserves_energy() {
        let d = Degradation {
            resolution_min: Some(15),
            ..Degradation::default()
        };
        let s = day();
        let m = d.apply(&s, &mut StdRng::seed_from_u64(1)).unwrap();
        assert_eq!(m.resolution(), Resolution::MIN_15);
        assert_eq!(m.len(), 96);
        assert!((m.observed_energy() - s.total_energy()).abs() < 1e-9);
    }

    #[test]
    fn degradation_is_deterministic_per_seed() {
        let d = Degradation {
            resolution_min: Some(15),
            noise_std: 0.05,
            anomaly_rate: 0.01,
            gap_rate: 0.02,
            ..Degradation::default()
        };
        let s = day();
        let a = d.apply(&s, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = d.apply(&s, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(
            crate::codec::encode(&a, crate::SeriesCodec::Binary),
            crate::codec::encode(&b, crate::SeriesCodec::Binary)
        );
        let c = d.apply(&s, &mut StdRng::seed_from_u64(10)).unwrap();
        assert_ne!(
            crate::codec::encode(&a, crate::SeriesCodec::Binary),
            crate::codec::encode(&c, crate::SeriesCodec::Binary)
        );
    }

    #[test]
    fn gaps_are_injected_and_noise_stays_non_negative() {
        let d = Degradation {
            gap_rate: 0.1,
            noise_std: 2.0, // huge noise to provoke negative draws
            ..Degradation::default()
        };
        let m = d.apply(&day(), &mut StdRng::seed_from_u64(3)).unwrap();
        assert!(m.gap_count() > 0, "expected gaps at 10 % rate");
        assert!(m.values().iter().all(|v| v.is_nan() || *v >= 0.0));
    }

    #[test]
    fn quantization_snaps_to_the_register_grid_and_skips_gaps() {
        let d = Degradation {
            gap_rate: 0.05,
            noise_std: 0.1,
            quantize_kwh: 0.001,
            ..Degradation::default()
        };
        let m = d.apply(&day(), &mut StdRng::seed_from_u64(7)).unwrap();
        assert!(m.gap_count() > 0, "expected gaps at 5 % rate");
        for &v in m.values().iter().filter(|v| !v.is_nan()) {
            let steps = v / 0.001;
            assert!(
                (steps - steps.round()).abs() < 1e-9,
                "{v} is off the 1 Wh register grid"
            );
        }
        // Quantization draws no randomness: the gap pattern matches the
        // same degradation without it, seed for seed.
        let plain = Degradation {
            quantize_kwh: 0.0,
            ..d.clone()
        };
        let p = plain.apply(&day(), &mut StdRng::seed_from_u64(7)).unwrap();
        let gaps =
            |s: &MeasuredSeries| s.values().iter().map(|v| v.is_nan()).collect::<Vec<bool>>();
        assert_eq!(gaps(&m), gaps(&p));
    }

    #[test]
    fn anomalies_scale_runs() {
        let d = Degradation {
            anomaly_rate: 0.05,
            anomaly_factor: 10.0,
            anomaly_len: 3,
            ..Degradation::default()
        };
        let s = day();
        let m = d.apply(&s, &mut StdRng::seed_from_u64(4)).unwrap();
        let spiked = m
            .values()
            .iter()
            .zip(s.values())
            .filter(|(a, b)| **a > **b * 5.0)
            .count();
        assert!(spiked > 0, "expected spiked intervals");
    }

    #[test]
    fn domains_are_validated() {
        for bad in [
            Degradation {
                noise_std: -0.1,
                ..Degradation::default()
            },
            Degradation {
                gap_rate: 1.5,
                ..Degradation::default()
            },
            Degradation {
                anomaly_len: 0,
                ..Degradation::default()
            },
            Degradation {
                mean_gap_len: 0.5,
                ..Degradation::default()
            },
            Degradation {
                resolution_min: Some(0),
                ..Degradation::default()
            },
            Degradation {
                quantize_kwh: f64::NAN,
                ..Degradation::default()
            },
            Degradation {
                quantize_kwh: -0.001,
                ..Degradation::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be invalid");
            assert!(bad.apply(&day(), &mut StdRng::seed_from_u64(0)).is_err());
        }
    }

    #[test]
    fn upsampling_is_rejected() {
        let fifteen = TimeSeries::new(
            ts("2013-03-18"),
            Resolution::MIN_15,
            (0..96).map(|i| 0.1 + i as f64 * 1e-3).collect(),
        )
        .unwrap();
        for bad in [5, 10, 40] {
            let d = Degradation {
                resolution_min: Some(bad),
                ..Degradation::default()
            };
            let err = d
                .apply(&fifteen, &mut StdRng::seed_from_u64(0))
                .unwrap_err();
            assert!(err.to_string().contains("whole multiple"), "{err}");
        }
        // Equal and coarser multiples are fine.
        for good in [15, 30, 60] {
            let d = Degradation {
                resolution_min: Some(good),
                ..Degradation::default()
            };
            assert!(d.apply(&fifteen, &mut StdRng::seed_from_u64(0)).is_ok());
        }
    }

    #[test]
    fn serde_round_trip() {
        let d = Degradation {
            resolution_min: Some(15),
            noise_std: 0.02,
            gap_rate: 0.01,
            ..Degradation::default()
        };
        let json = serde_json::to_string(&d).unwrap();
        let back: Degradation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }

    /// `standard_normal`, counting the draws that left its one-word fast
    /// path: `slow[1]` those that came from the tail (beyond the
    /// ziggurat's edge r, which no other branch returns), `slow[0]`
    /// the rest, which tested a wedge.
    fn counted_normal(rng: &mut StdRng, slow: &mut [u64; 2]) -> f64 {
        const TAIL_EDGE: f64 = 3.654_152_885_361_009;
        let mut one_word = rng.clone();
        one_word.next_u64();
        let z = standard_normal(rng);
        if *rng != one_word {
            slow[usize::from(z.abs() > TAIL_EDGE)] += 1;
        }
        z
    }

    #[test]
    fn noise_kernel_matches_the_inline_loop_bit_for_bit() {
        // A noise of 0.45 takes the factor `1 + 0.45 z` below zero on
        // ~1.3 % of draws, so the clamp's zero side runs. The readings
        // are positive: a zero reading times a negative factor is -0.0,
        // which `f64::max` may keep in an unoptimised build
        // (`clamp_to_zero`'s own test covers that input).
        let values: Vec<f64> = (0..300_000).map(|i| (1 + i % 7) as f64 * 0.01).collect();
        let mut slow = [0; 2];
        let mut clamped = 0;
        for seed in [4, 21] {
            let mut got = values.clone();
            let mut want = values.clone();
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = a.clone();
            add_noise(&mut a, &mut got, 0.45);
            // The loop as it stood inline in `Degradation::apply`.
            for v in want.iter_mut() {
                let scaled = *v * (1.0 + 0.45 * counted_normal(&mut b, &mut slow));
                clamped += usize::from(scaled <= 0.0 || scaled.is_nan());
                *v = scaled.max(0.0);
            }
            let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "seed {seed}");
            assert_eq!(a, b, "seed {seed}: the generator is not written back");
        }
        assert!(clamped > 1000, "{clamped} clamped readings");
        assert!(
            slow[0] > 0 && slow[1] > 0,
            "wedge {} tail {}",
            slow[0],
            slow[1]
        );
    }
}
