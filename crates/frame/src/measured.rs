//! The raw metered series type: gaps are first-class.

use flextract_series::{missing, FillStrategy, SeriesError, TimeSeries};
use flextract_time::{Resolution, Timestamp};

/// A raw metered consumer series, as it comes off the wire.
///
/// Unlike [`TimeSeries`], whose invariant is all-finite values, a
/// `MeasuredSeries` represents missing intervals as `NaN` — meter
/// outages and transmission loss are part of the data, not an error.
/// The remaining invariants match `TimeSeries`: the start is aligned to
/// the resolution grid and no value is ±∞ (a meter can fail to report,
/// but it cannot report infinity).
///
/// A `MeasuredSeries` becomes extraction-ready by going through the
/// dataset cleaning stage, which fills gaps and screens anomalies,
/// yielding a strict `TimeSeries`.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredSeries {
    start: Timestamp,
    resolution: Resolution,
    values: Vec<f64>,
}

impl MeasuredSeries {
    /// Construct from raw metered values; `NaN` marks a gap.
    ///
    /// Rejects an unaligned start and ±∞ values (gap is the only
    /// non-finite state a meter feed can be in).
    pub fn new(
        start: Timestamp,
        resolution: Resolution,
        values: Vec<f64>,
    ) -> Result<Self, SeriesError> {
        if !start.is_aligned(resolution) {
            return Err(SeriesError::UnalignedStart);
        }
        if let Some(index) = values.iter().position(|v| v.is_infinite()) {
            return Err(SeriesError::NonFinite { index });
        }
        Ok(MeasuredSeries {
            start,
            resolution,
            values,
        })
    }

    /// A gap-free measured series carrying the values of `series`.
    pub fn from_series(series: &TimeSeries) -> Self {
        MeasuredSeries {
            start: series.start(),
            resolution: series.resolution(),
            values: series.values().to_vec(),
        }
    }

    /// A gap-free measured series taking over the values of `series`,
    /// without a copy.
    pub fn from_owned_series(series: TimeSeries) -> Self {
        MeasuredSeries {
            start: series.start(),
            resolution: series.resolution(),
            values: series.into_values(),
        }
    }

    /// First instant covered.
    pub fn start(&self) -> Timestamp {
        self.start
    }

    /// The interval width.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Number of intervals (gaps included).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the series has no intervals.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw values; `NaN` marks a gap.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consume the series, yielding its raw values.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// The start instant of interval `i`.
    pub fn timestamp_of(&self, i: usize) -> Timestamp {
        self.start + self.resolution.interval() * i as i64
    }

    /// Number of missing intervals.
    pub fn gap_count(&self) -> usize {
        missing::gap_count(&self.values)
    }

    /// Total energy over the observed (non-gap) intervals (kWh).
    pub fn observed_energy(&self) -> f64 {
        self.values.iter().filter(|v| !v.is_nan()).sum()
    }

    /// Convert to a strict [`TimeSeries`], requiring the series to be
    /// gap-free already (use [`MeasuredSeries::fill`] otherwise).
    pub fn into_series(self) -> Result<TimeSeries, SeriesError> {
        TimeSeries::new(self.start, self.resolution, self.values)
    }

    /// Fill gaps with `strategy` and convert to a strict
    /// [`TimeSeries`]; returns the filled series and how many gaps
    /// were filled. See [`missing::fill_gaps`] for per-strategy
    /// edge behavior and the energy bound.
    pub fn fill(self, strategy: FillStrategy) -> Result<(TimeSeries, usize), SeriesError> {
        let MeasuredSeries {
            start,
            resolution,
            mut values,
        } = self;
        let filled = missing::fill_gaps(&mut values, strategy, resolution.intervals_per_day())?;
        Ok((TimeSeries::new(start, resolution, values)?, filled))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    #[test]
    fn construction_allows_nan_rejects_infinity() {
        let m = MeasuredSeries::new(
            ts("2013-03-18"),
            Resolution::MIN_15,
            vec![1.0, f64::NAN, 2.0],
        )
        .unwrap();
        assert_eq!(m.gap_count(), 1);
        assert!((m.observed_energy() - 3.0).abs() < 1e-12);

        assert_eq!(
            MeasuredSeries::new(
                ts("2013-03-18"),
                Resolution::MIN_15,
                vec![1.0, f64::INFINITY],
            ),
            Err(SeriesError::NonFinite { index: 1 })
        );
        assert_eq!(
            MeasuredSeries::new(ts("2013-03-18 00:07"), Resolution::MIN_15, vec![1.0]),
            Err(SeriesError::UnalignedStart)
        );
    }

    #[test]
    fn round_trip_with_time_series() {
        let s = TimeSeries::new(ts("2013-03-18"), Resolution::MIN_15, vec![0.5, 0.7]).unwrap();
        let m = MeasuredSeries::from_series(&s);
        assert_eq!(m.gap_count(), 0);
        assert_eq!(m.clone().into_series().unwrap(), s);
        // With a gap, strict conversion fails but filling succeeds.
        let gappy = MeasuredSeries::new(
            ts("2013-03-18"),
            Resolution::MIN_15,
            vec![0.5, f64::NAN, 0.7],
        )
        .unwrap();
        assert!(gappy.clone().into_series().is_err());
        let (filled, n) = gappy.fill(FillStrategy::Linear).unwrap();
        assert_eq!(n, 1);
        assert!((filled.values()[1] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn timestamp_of_walks_the_grid() {
        let m =
            MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_15, vec![f64::NAN; 5]).unwrap();
        assert_eq!(m.timestamp_of(4), ts("2013-03-18 01:00"));
        assert_eq!(m.len(), 5);
        assert!(!m.is_empty());
        assert_eq!(m.observed_energy(), 0.0);
    }
}
