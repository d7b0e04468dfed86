//! Per-chunk statistics: the pushdown index of the FXM2 format.

/// Statistics over one chunk of measured values.
///
/// `min`, `max` and `sum` range over the **observed** (non-gap) values
/// only; `gaps` counts the `NaN` intervals. For an all-gap chunk, `min`
/// and `max` are `NaN` and `sum` is `0.0`.
///
/// Determinism contract: `sum` is the left-to-right fold over the
/// chunk's observed values, and `min`/`max` keep the **first** value
/// attaining the extreme — so recomputing the statistics from a decoded
/// chunk reproduces the stored ones bit for bit, and a scan that
/// aggregates from statistics alone matches one that decodes every
/// chunk exactly (chunk sums are combined in the same chunk order on
/// both paths).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkStats {
    /// Number of `NaN` (gap) intervals in the chunk.
    pub gaps: u32,
    /// Smallest observed value (`NaN` when the chunk is all gaps).
    pub min: f64,
    /// Largest observed value (`NaN` when the chunk is all gaps).
    pub max: f64,
    /// Sum of the observed values, folded left to right.
    pub sum: f64,
}

impl ChunkStats {
    /// Compute the statistics of one chunk of values (`NaN` = gap).
    pub fn from_values(values: &[f64]) -> ChunkStats {
        let mut stats = ChunkStats {
            gaps: 0,
            min: f64::NAN,
            max: f64::NAN,
            sum: 0.0,
        };
        for &v in values {
            if v.is_nan() {
                stats.gaps += 1;
            } else {
                stats.observe(v);
            }
        }
        stats
    }

    /// Fold the next observed (non-gap) value into `min`, `max` and
    /// `sum` — the one step [`from_values`](Self::from_values) and the
    /// `FXM3` writer's single pass share.
    #[inline]
    pub(crate) fn observe(&mut self, v: f64) {
        self.sum += v;
        // First-wins on ties keeps the fold deterministic across bit
        // patterns that compare equal (0.0 vs -0.0).
        if self.min.is_nan() || v < self.min {
            self.min = v;
        }
        if self.max.is_nan() || v > self.max {
            self.max = v;
        }
    }

    /// Number of observed (non-gap) intervals given the chunk length.
    pub fn observed(&self, chunk_len: usize) -> usize {
        chunk_len - self.gaps as usize
    }

    /// `true` if every interval in the chunk is a gap.
    pub fn all_gaps(&self, chunk_len: usize) -> bool {
        self.gaps as usize == chunk_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_cover_observed_values_only() {
        let s = ChunkStats::from_values(&[1.0, f64::NAN, 3.0, 0.5]);
        assert_eq!(s.gaps, 1);
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 3.0);
        assert!((s.sum - 4.5).abs() < 1e-12);
        assert_eq!(s.observed(4), 3);
        assert!(!s.all_gaps(4));
    }

    #[test]
    fn all_gap_chunk_has_nan_extremes_and_zero_sum() {
        let s = ChunkStats::from_values(&[f64::NAN, f64::NAN]);
        assert_eq!(s.gaps, 2);
        assert!(s.min.is_nan());
        assert!(s.max.is_nan());
        assert_eq!(s.sum, 0.0);
        assert!(s.all_gaps(2));
    }

    #[test]
    fn ties_keep_the_first_bit_pattern() {
        // -0.0 and 0.0 compare equal; the first one seen wins.
        let s = ChunkStats::from_values(&[-0.0, 0.0]);
        assert_eq!(s.min.to_bits(), (-0.0f64).to_bits());
        assert_eq!(s.max.to_bits(), (-0.0f64).to_bits());
        let s = ChunkStats::from_values(&[0.0, -0.0]);
        assert_eq!(s.min.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn empty_chunk_is_all_gaps_trivially() {
        let s = ChunkStats::from_values(&[]);
        assert_eq!(s.gaps, 0);
        assert!(s.min.is_nan());
        assert_eq!(s.sum, 0.0);
        assert!(s.all_gaps(0));
    }
}
