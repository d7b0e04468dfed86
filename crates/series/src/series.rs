//! The core fixed-interval energy series type.

use crate::SeriesError;
#[cfg(test)]
use flextract_time::Duration;
use flextract_time::{Resolution, TimeRange, Timestamp};
use serde::{Deserialize, Serialize};

/// A dense, fixed-resolution energy time series.
///
/// Each element is the energy consumed (or produced) during one interval,
/// in **kWh per interval** — the unit used on the y-axis of the paper's
/// Figure 5. The series is anchored at an interval-aligned `start`; the
/// value at index `i` covers `[start + i·res, start + (i+1)·res)`.
///
/// The type is deliberately value-semantic (`Clone`, `PartialEq`) and
/// keeps its invariants privately:
///
/// * `start` is aligned to the resolution grid;
/// * all values are finite — enforced by [`TimeSeries::new`], which
///   rejects NaN/±∞ with [`SeriesError::NonFinite`]; gaps are
///   represented by the [`missing`] module's sentinel handling *before*
///   a raw vector becomes a `TimeSeries`.
///
/// [`missing`]: crate::missing
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    start: Timestamp,
    resolution: Resolution,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Construct a series from interval energies.
    ///
    /// Returns [`SeriesError::UnalignedStart`] if `start` is not on the
    /// resolution grid, and [`SeriesError::NonFinite`] if any value is
    /// NaN or ±∞ — gaps must be filled (see [`crate::missing`]) before a
    /// raw vector becomes a `TimeSeries`.
    pub fn new(
        start: Timestamp,
        resolution: Resolution,
        values: Vec<f64>,
    ) -> Result<Self, SeriesError> {
        if !start.is_aligned(resolution) {
            return Err(SeriesError::UnalignedStart);
        }
        if let Some(index) = values.iter().position(|v| !v.is_finite()) {
            return Err(SeriesError::NonFinite { index });
        }
        Ok(TimeSeries {
            start,
            resolution,
            values,
        })
    }

    /// A series of `len` intervals all holding `value`.
    ///
    /// Panics if `start` is unaligned — the constant constructor is used
    /// with literal, known-aligned starts in examples and tests.
    pub fn constant(start: Timestamp, resolution: Resolution, value: f64, len: usize) -> Self {
        Self::new(start, resolution, vec![value; len])
            .expect("constant() requires an aligned start")
    }

    /// An all-zero series on the same grid (start, resolution, length)
    /// as `other` — the allocation-light way to start an accumulator or
    /// an extraction output.
    pub fn zeros_like(other: &TimeSeries) -> Self {
        TimeSeries {
            start: other.start,
            resolution: other.resolution,
            values: vec![0.0; other.values.len()],
        }
    }

    /// An all-zero series covering `range` at `resolution`.
    ///
    /// The outward-aligned start is on the grid and zeros are finite,
    /// so, like [`TimeSeries::zeros_like`], this skips
    /// [`TimeSeries::new`]'s per-value scan; it does not fail.
    pub fn zeros_over(range: TimeRange, resolution: Resolution) -> Result<Self, SeriesError> {
        let aligned = range.align_outward(resolution);
        Ok(TimeSeries {
            start: aligned.start(),
            resolution,
            values: vec![0.0; aligned.interval_count(resolution)],
        })
    }

    /// First instant covered by the series.
    pub fn start(&self) -> Timestamp {
        self.start
    }

    /// One-past-the-last instant covered.
    pub fn end(&self) -> Timestamp {
        self.start + self.resolution.interval() * self.values.len() as i64
    }

    /// The interval width.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// The covered span as a half-open range.
    pub fn range(&self) -> TimeRange {
        // `end() >= start` by construction (non-negative interval count
        // times a positive resolution), so the fallback is unreachable;
        // it exists so this accessor can never abort the process.
        TimeRange::new(self.start, self.end()).unwrap_or_else(|_| TimeRange::empty_at(self.start))
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the series has no intervals.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Read-only view of all interval energies.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable view of all interval energies.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Consume the series, yielding its raw values.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Energy of interval `i`, if in range.
    pub fn get(&self, i: usize) -> Option<f64> {
        self.values.get(i).copied()
    }

    /// The index of the interval containing `t`, if covered.
    pub fn index_of(&self, t: Timestamp) -> Option<usize> {
        if t < self.start || t >= self.end() {
            return None;
        }
        Some(((t - self.start).as_minutes() / self.resolution.minutes()) as usize)
    }

    /// The start instant of interval `i` (may point one past the end,
    /// which is useful for half-open iteration).
    pub fn timestamp_of(&self, i: usize) -> Timestamp {
        self.start + self.resolution.interval() * i as i64
    }

    /// Energy of the interval containing `t`, if covered.
    pub fn value_at(&self, t: Timestamp) -> Option<f64> {
        self.index_of(t).map(|i| self.values[i])
    }

    /// Average power during interval `i` in kW (energy ÷ interval hours).
    pub fn power_kw(&self, i: usize) -> Option<f64> {
        self.get(i).map(|e| e / self.resolution.hours_f64())
    }

    /// Iterate `(interval_start, energy_kwh)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Timestamp, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(move |(i, &v)| (self.timestamp_of(i), v))
    }

    /// Total energy over the whole series (kWh).
    pub fn total_energy(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Total energy within `range` (whole intervals whose start lies in
    /// `range`).
    pub fn energy_in(&self, range: TimeRange) -> f64 {
        self.iter()
            .filter(|(t, _)| range.contains(*t))
            .map(|(_, v)| v)
            .sum()
    }

    /// The sub-series covering the overlap of `range` with this series.
    ///
    /// The overlap is widened outward to interval boundaries. Returns an
    /// empty series at the clamped start if there is no overlap.
    pub fn slice(&self, range: TimeRange) -> TimeSeries {
        let aligned = range.align_outward(self.resolution);
        match self.range().intersect(aligned) {
            None => TimeSeries {
                start: aligned.start().max(self.start).min(self.end()),
                resolution: self.resolution,
                values: Vec::new(),
            },
            Some(ix) => {
                // The intersection start lies inside the series by
                // construction; if either lookup ever misses, degrade
                // to an empty slice instead of aborting the process.
                let lo = self.index_of(ix.start()).unwrap_or(self.values.len());
                let n = ix.interval_count(self.resolution);
                let values = self
                    .values
                    .get(lo..(lo + n).min(self.values.len()))
                    .unwrap_or_default()
                    .to_vec();
                TimeSeries {
                    start: ix.start(),
                    resolution: self.resolution,
                    values,
                }
            }
        }
    }

    /// Append `other`, which must share the resolution and start exactly
    /// where this series ends.
    pub fn concat(&mut self, other: &TimeSeries) -> Result<(), SeriesError> {
        if other.resolution != self.resolution {
            return Err(SeriesError::ResolutionMismatch {
                left: self.resolution,
                right: other.resolution,
            });
        }
        if self.is_empty() {
            self.start = other.start;
            self.values.extend_from_slice(&other.values);
            return Ok(());
        }
        if other.start != self.end() {
            return Err(SeriesError::AlignmentMismatch);
        }
        self.values.extend_from_slice(&other.values);
        Ok(())
    }

    fn check_same_grid(&self, other: &TimeSeries) -> Result<(), SeriesError> {
        if self.resolution != other.resolution {
            return Err(SeriesError::ResolutionMismatch {
                left: self.resolution,
                right: other.resolution,
            });
        }
        if self.start != other.start {
            return Err(SeriesError::AlignmentMismatch);
        }
        if self.values.len() != other.values.len() {
            return Err(SeriesError::LengthMismatch {
                left: self.values.len(),
                right: other.values.len(),
            });
        }
        Ok(())
    }

    /// Pointwise sum with a grid-identical series, in place. Exactly
    /// the float operations of [`TimeSeries::add`] without allocating a
    /// fresh value vector — the accumulation primitive of hot loops.
    pub fn add_assign(&mut self, other: &TimeSeries) -> Result<(), SeriesError> {
        self.check_same_grid(other)?;
        for (a, b) in self.values.iter_mut().zip(&other.values) {
            *a += b;
        }
        Ok(())
    }

    /// Pointwise sum with a grid-identical series.
    pub fn add(&self, other: &TimeSeries) -> Result<TimeSeries, SeriesError> {
        self.check_same_grid(other)?;
        let values = self
            .values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| a + b)
            .collect();
        Ok(TimeSeries {
            start: self.start,
            resolution: self.resolution,
            values,
        })
    }

    /// Pointwise difference with a grid-identical series.
    pub fn sub(&self, other: &TimeSeries) -> Result<TimeSeries, SeriesError> {
        self.check_same_grid(other)?;
        let values = self
            .values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| a - b)
            .collect();
        Ok(TimeSeries {
            start: self.start,
            resolution: self.resolution,
            values,
        })
    }

    /// Subtract `other` wherever it overlaps this series, in place.
    ///
    /// `other` may cover any sub-span on the same resolution grid; parts
    /// outside this series are ignored. This is the primitive behind
    /// "modified time series where the flexible energy amount is
    /// subtracted" (paper §4).
    pub fn sub_overlapping(&mut self, other: &TimeSeries) -> Result<(), SeriesError> {
        if other.resolution != self.resolution {
            return Err(SeriesError::ResolutionMismatch {
                left: self.resolution,
                right: other.resolution,
            });
        }
        if (other.start - self.start).as_minutes() % self.resolution.minutes() != 0 {
            return Err(SeriesError::AlignmentMismatch);
        }
        for (t, v) in other.iter() {
            if let Some(i) = self.index_of(t) {
                self.values[i] -= v;
            }
        }
        Ok(())
    }

    /// Add `other` wherever it overlaps this series, in place (the
    /// inverse of [`TimeSeries::sub_overlapping`]).
    pub fn add_overlapping(&mut self, other: &TimeSeries) -> Result<(), SeriesError> {
        if other.resolution != self.resolution {
            return Err(SeriesError::ResolutionMismatch {
                left: self.resolution,
                right: other.resolution,
            });
        }
        if (other.start - self.start).as_minutes() % self.resolution.minutes() != 0 {
            return Err(SeriesError::AlignmentMismatch);
        }
        for (t, v) in other.iter() {
            if let Some(i) = self.index_of(t) {
                self.values[i] += v;
            }
        }
        Ok(())
    }

    /// Multiply every value by `factor`, returning a new series.
    pub fn scale(&self, factor: f64) -> TimeSeries {
        TimeSeries {
            start: self.start,
            resolution: self.resolution,
            values: self.values.iter().map(|v| v * factor).collect(),
        }
    }

    /// Apply `f` to every value, returning a new series.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> TimeSeries {
        TimeSeries {
            start: self.start,
            resolution: self.resolution,
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Clamp negative values to zero in place, returning how much energy
    /// was clipped (as a non-negative number).
    ///
    /// Extraction subtracts estimated flexible energy from measured
    /// consumption; estimation error can push residuals slightly below
    /// zero, which is physically meaningless for consumption series.
    pub fn clip_negative(&mut self) -> f64 {
        let mut clipped = 0.0;
        for v in &mut self.values {
            if *v < 0.0 {
                clipped -= *v;
                *v = 0.0;
            }
        }
        clipped
    }

    /// The index and value of the maximum interval (ties → first).
    pub fn argmax(&self) -> Option<(usize, f64)> {
        self.values
            .iter()
            .enumerate()
            .fold(None, |best, (i, &v)| match best {
                Some((_, bv)) if bv >= v => best,
                _ => Some((i, v)),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    fn day_series(vals: Vec<f64>) -> TimeSeries {
        TimeSeries::new(ts("2013-03-18"), Resolution::MIN_15, vals).unwrap()
    }

    #[test]
    fn construction_checks_alignment() {
        let bad_start = ts("2013-03-18 00:07");
        assert_eq!(
            TimeSeries::new(bad_start, Resolution::MIN_15, vec![1.0]),
            Err(SeriesError::UnalignedStart)
        );
        assert!(TimeSeries::new(ts("2013-03-18 00:15"), Resolution::MIN_15, vec![1.0]).is_ok());
    }

    #[test]
    fn construction_rejects_non_finite_values() {
        // The documented invariant "all values are finite" is enforced,
        // not assumed: NaN/∞ smuggled in by a hostile input surfaces as
        // a typed error naming the offending index.
        for (bad, index) in [
            (vec![1.0, f64::NAN, 2.0], 1),
            (vec![f64::INFINITY], 0),
            (vec![0.0, 1.0, f64::NEG_INFINITY], 2),
        ] {
            assert_eq!(
                TimeSeries::new(ts("2013-03-18"), Resolution::MIN_15, bad),
                Err(SeriesError::NonFinite { index })
            );
        }
        // Ordinary finite values (including negatives and zero) pass.
        assert!(
            TimeSeries::new(ts("2013-03-18"), Resolution::MIN_15, vec![-1.0, 0.0, 1e300]).is_ok()
        );
    }

    #[test]
    fn zeros_like_copies_the_grid() {
        let s = day_series(vec![0.7; 96]);
        let z = TimeSeries::zeros_like(&s);
        assert_eq!(z.start(), s.start());
        assert_eq!(z.resolution(), s.resolution());
        assert_eq!(z.len(), s.len());
        assert_eq!(z.total_energy(), 0.0);
    }

    #[test]
    fn add_assign_matches_add() {
        let a = day_series((0..96).map(|i| i as f64 * 0.013).collect());
        let b = day_series((0..96).map(|i| (96 - i) as f64 * 0.007).collect());
        let sum = a.add(&b).unwrap();
        let mut acc = a.clone();
        acc.add_assign(&b).unwrap();
        assert_eq!(acc, sum);
        // Same grid checks as `add`.
        let short = day_series(vec![1.0; 95]);
        assert!(matches!(
            acc.add_assign(&short),
            Err(SeriesError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn span_accessors() {
        let s = day_series(vec![0.5; 96]);
        assert_eq!(s.len(), 96);
        assert!(!s.is_empty());
        assert_eq!(s.start(), ts("2013-03-18"));
        assert_eq!(s.end(), ts("2013-03-19"));
        assert_eq!(s.range().duration(), Duration::DAY);
        assert!((s.total_energy() - 48.0).abs() < 1e-9);
    }

    #[test]
    fn indexing_by_time() {
        let s = day_series((0..96).map(|i| i as f64).collect());
        assert_eq!(s.index_of(ts("2013-03-18 00:00")), Some(0));
        assert_eq!(s.index_of(ts("2013-03-18 00:14")), Some(0));
        assert_eq!(s.index_of(ts("2013-03-18 00:15")), Some(1));
        assert_eq!(s.index_of(ts("2013-03-18 23:45")), Some(95));
        assert_eq!(s.index_of(ts("2013-03-19 00:00")), None);
        assert_eq!(s.index_of(ts("2013-03-17 23:59")), None);
        assert_eq!(s.value_at(ts("2013-03-18 12:00")), Some(48.0));
        assert_eq!(s.timestamp_of(48), ts("2013-03-18 12:00"));
    }

    #[test]
    fn power_conversion() {
        let s = day_series(vec![0.5; 96]);
        // 0.5 kWh in 15 min = 2 kW.
        assert!((s.power_kw(0).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(s.power_kw(96), None);
    }

    #[test]
    fn energy_in_range() {
        let s = day_series(vec![1.0; 96]);
        let morning = TimeRange::new(ts("2013-03-18 06:00"), ts("2013-03-18 09:00")).unwrap();
        assert!((s.energy_in(morning) - 12.0).abs() < 1e-9);
        // Range extending beyond the series only counts covered intervals.
        let over = TimeRange::new(ts("2013-03-18 23:00"), ts("2013-03-19 02:00")).unwrap();
        assert!((s.energy_in(over) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn slice_is_aligned_copy() {
        let s = day_series((0..96).map(|i| i as f64).collect());
        let range = TimeRange::new(ts("2013-03-18 06:07"), ts("2013-03-18 07:08")).unwrap();
        let sub = s.slice(range);
        assert_eq!(sub.start(), ts("2013-03-18 06:00"));
        assert_eq!(sub.len(), 5); // 06:00..07:15
        assert_eq!(sub.values()[0], 24.0);
        // Disjoint slice is empty.
        let gone = s.slice(TimeRange::new(ts("2013-03-20"), ts("2013-03-21")).unwrap());
        assert!(gone.is_empty());
    }

    #[test]
    fn slice_clips_to_series_bounds() {
        let s = day_series(vec![1.0; 96]);
        let wide = TimeRange::new(ts("2013-03-17"), ts("2013-03-20")).unwrap();
        let sub = s.slice(wide);
        assert_eq!(sub.start(), s.start());
        assert_eq!(sub.len(), 96);
    }

    #[test]
    fn concat_requires_contiguity() {
        let mut a = day_series(vec![1.0; 96]);
        let b = TimeSeries::new(ts("2013-03-19"), Resolution::MIN_15, vec![2.0; 96]).unwrap();
        a.concat(&b).unwrap();
        assert_eq!(a.len(), 192);
        assert_eq!(a.end(), ts("2013-03-20"));
        // Gap → error.
        let c = TimeSeries::new(ts("2013-03-21"), Resolution::MIN_15, vec![1.0]).unwrap();
        assert_eq!(a.concat(&c), Err(SeriesError::AlignmentMismatch));
        // Resolution mismatch → error.
        let d = TimeSeries::new(ts("2013-03-20"), Resolution::HOUR_1, vec![1.0]).unwrap();
        assert!(matches!(
            a.concat(&d),
            Err(SeriesError::ResolutionMismatch { .. })
        ));
        // Concat onto empty adopts the other's grid.
        let mut e = TimeSeries::new(ts("2013-01-01"), Resolution::MIN_15, vec![]).unwrap();
        e.concat(&b).unwrap();
        assert_eq!(e.start(), ts("2013-03-19"));
    }

    #[test]
    fn pointwise_algebra() {
        let a = day_series(vec![1.0; 96]);
        let b = day_series(vec![0.25; 96]);
        let sum = a.add(&b).unwrap();
        assert!((sum.total_energy() - 120.0).abs() < 1e-9);
        let diff = a.sub(&b).unwrap();
        assert!((diff.total_energy() - 72.0).abs() < 1e-9);
        let shifted = TimeSeries::new(ts("2013-03-19"), Resolution::MIN_15, vec![1.0; 96]).unwrap();
        assert_eq!(a.add(&shifted), Err(SeriesError::AlignmentMismatch));
        let short = day_series(vec![1.0; 95]);
        assert!(matches!(
            a.add(&short),
            Err(SeriesError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn overlapping_subtraction() {
        let mut base = day_series(vec![1.0; 96]);
        // A 1-hour extraction at 10:00 of 0.4 kWh per interval.
        let flex =
            TimeSeries::new(ts("2013-03-18 10:00"), Resolution::MIN_15, vec![0.4; 4]).unwrap();
        base.sub_overlapping(&flex).unwrap();
        assert!((base.value_at(ts("2013-03-18 10:00")).unwrap() - 0.6).abs() < 1e-9);
        assert!((base.value_at(ts("2013-03-18 09:45")).unwrap() - 1.0).abs() < 1e-9);
        assert!((base.total_energy() - (96.0 - 1.6)).abs() < 1e-9);
        base.add_overlapping(&flex).unwrap();
        assert!((base.total_energy() - 96.0).abs() < 1e-9);
        // Misphased grid → error.
        let misphased =
            TimeSeries::new(ts("2013-03-18 10:05"), Resolution::MIN_5, vec![0.1]).unwrap();
        assert!(base.sub_overlapping(&misphased).is_err());
    }

    #[test]
    fn sub_overlapping_ignores_outside_parts() {
        let mut base = day_series(vec![1.0; 96]);
        let tail = TimeSeries::new(
            ts("2013-03-18 23:30"),
            Resolution::MIN_15,
            vec![0.5; 4], // last two intervals fall on the next day
        )
        .unwrap();
        base.sub_overlapping(&tail).unwrap();
        assert!((base.total_energy() - 95.0).abs() < 1e-9);
    }

    #[test]
    fn scale_map_clip() {
        let s = day_series(vec![2.0; 96]);
        assert!((s.scale(0.05).total_energy() - 9.6).abs() < 1e-9);
        let mapped = s.map(|v| v - 3.0);
        let mut m = mapped.clone();
        let clipped = m.clip_negative();
        assert!((clipped - 96.0).abs() < 1e-9);
        assert!(m.values().iter().all(|&v| v == 0.0));
        assert_eq!(mapped.values()[0], -1.0); // original map untouched
    }

    #[test]
    fn argmax_finds_first_peak() {
        let mut vals = vec![0.1; 96];
        vals[40] = 2.0;
        vals[50] = 2.0;
        let s = day_series(vals);
        assert_eq!(s.argmax(), Some((40, 2.0)));
        let empty = TimeSeries::new(ts("2013-03-18"), Resolution::MIN_15, vec![]).unwrap();
        assert_eq!(empty.argmax(), None);
    }

    #[test]
    fn serde_round_trip() {
        let s = day_series(vec![0.25; 4]);
        let json = serde_json::to_string(&s).unwrap();
        let back: TimeSeries = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn zeros_over_covers_range() {
        let range = TimeRange::new(ts("2013-03-18 10:07"), ts("2013-03-18 11:52")).unwrap();
        let z = TimeSeries::zeros_over(range, Resolution::MIN_15).unwrap();
        assert_eq!(z.start(), ts("2013-03-18 10:00"));
        assert_eq!(z.len(), 8);
        assert_eq!(z.total_energy(), 0.0);
    }
}
