//! Half-open time intervals `[start, end)`.

use crate::{Duration, Resolution, TimeError, Timestamp};
use serde::{Deserialize, Serialize};

/// A half-open interval of time, `start` inclusive, `end` exclusive.
///
/// Used throughout the workspace for flex-offer start windows, tariff
/// periods, extraction periods and series spans. Empty ranges
/// (`start == end`) are valid and behave as the empty set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TimeRange {
    start: Timestamp,
    end: Timestamp,
}

impl TimeRange {
    /// A range from `start` (inclusive) to `end` (exclusive).
    pub fn new(start: Timestamp, end: Timestamp) -> Result<Self, TimeError> {
        if end < start {
            return Err(TimeError::InvertedRange);
        }
        Ok(TimeRange { start, end })
    }

    /// A range of the given non-negative length starting at `start`.
    pub fn starting_at(start: Timestamp, len: Duration) -> Result<Self, TimeError> {
        if len.is_negative() {
            return Err(TimeError::InvertedRange);
        }
        Ok(TimeRange {
            start,
            end: start + len,
        })
    }

    /// The empty range anchored at `start` — infallible, since an
    /// empty range can never be inverted. The canonical way to collapse
    /// a selection to nothing (e.g. stacking disjoint slices).
    pub fn empty_at(start: Timestamp) -> Self {
        TimeRange { start, end: start }
    }

    /// Inclusive start.
    pub fn start(self) -> Timestamp {
        self.start
    }

    /// Exclusive end.
    pub fn end(self) -> Timestamp {
        self.end
    }

    /// Length of the range.
    pub fn duration(self) -> Duration {
        self.end - self.start
    }

    /// `true` if the range contains no instants.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    /// `true` if `t` lies inside `[start, end)`.
    pub fn contains(self, t: Timestamp) -> bool {
        self.start <= t && t < self.end
    }

    /// `true` if `other` lies entirely inside this range.
    pub fn contains_range(self, other: TimeRange) -> bool {
        other.is_empty() || (self.start <= other.start && other.end <= self.end)
    }

    /// The overlap of two ranges, or `None` if they are disjoint
    /// (touching ranges overlap in the empty set → `None`).
    pub fn intersect(self, other: TimeRange) -> Option<TimeRange> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start < end {
            Some(TimeRange { start, end })
        } else {
            None
        }
    }

    /// `true` if the two ranges share at least one instant.
    pub fn overlaps(self, other: TimeRange) -> bool {
        self.intersect(other).is_some()
    }

    /// The smallest range covering both inputs.
    pub fn hull(self, other: TimeRange) -> TimeRange {
        TimeRange {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Shift the whole range by `d`.
    pub fn shift(self, d: Duration) -> TimeRange {
        TimeRange {
            start: self.start + d,
            end: self.end + d,
        }
    }

    /// Widen to the enclosing interval boundaries of `res`
    /// (floor the start, ceil the end).
    pub fn align_outward(self, res: Resolution) -> TimeRange {
        TimeRange {
            start: self.start.floor_to(res),
            end: self.end.ceil_to(res),
        }
    }

    /// Number of whole `res` intervals in the range (the range must be
    /// aligned; use [`TimeRange::align_outward`] first if unsure).
    pub fn interval_count(self, res: Resolution) -> usize {
        (self.duration().as_minutes() / res.minutes()).max(0) as usize
    }

    /// Split into consecutive civil days; the first and last pieces may
    /// be partial days.
    pub fn split_days(self) -> Vec<TimeRange> {
        let mut out = Vec::new();
        let mut cur = self.start;
        while cur < self.end {
            let day_end = cur.start_of_day() + Duration::DAY;
            let end = day_end.min(self.end);
            out.push(TimeRange { start: cur, end });
            cur = end;
        }
        out
    }

    /// Split into consecutive chunks of length `len` (the last chunk may
    /// be shorter). `len` must be positive.
    pub fn split_chunks(self, len: Duration) -> Vec<TimeRange> {
        assert!(len.as_minutes() > 0, "chunk length must be positive");
        let mut out = Vec::with_capacity(
            (self.duration().as_minutes() / len.as_minutes() + 1).max(1) as usize,
        );
        let mut cur = self.start;
        while cur < self.end {
            let end = (cur + len).min(self.end);
            out.push(TimeRange { start: cur, end });
            cur = end;
        }
        out
    }
}

impl std::fmt::Display for TimeRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{} .. {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    fn r(a: &str, b: &str) -> TimeRange {
        TimeRange::new(ts(a), ts(b)).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let range = r("2013-03-18 10:00", "2013-03-18 12:00");
        assert_eq!(range.duration(), Duration::hours(2));
        assert!(!range.is_empty());
        assert!(TimeRange::new(ts("2013-03-18 12:00"), ts("2013-03-18 10:00")).is_err());
        let empty = TimeRange::new(ts("2013-03-18 10:00"), ts("2013-03-18 10:00")).unwrap();
        assert!(empty.is_empty());
        let by_len = TimeRange::starting_at(ts("2013-03-18 10:00"), Duration::hours(2)).unwrap();
        assert_eq!(by_len, range);
        assert!(TimeRange::starting_at(ts("2013-03-18 10:00"), Duration::minutes(-1)).is_err());
    }

    #[test]
    fn containment_is_half_open() {
        let range = r("2013-03-18 10:00", "2013-03-18 12:00");
        assert!(range.contains(ts("2013-03-18 10:00")));
        assert!(range.contains(ts("2013-03-18 11:59")));
        assert!(!range.contains(ts("2013-03-18 12:00")));
        assert!(!range.contains(ts("2013-03-18 09:59")));
    }

    #[test]
    fn contains_range_accepts_empty_anywhere() {
        let range = r("2013-03-18 10:00", "2013-03-18 12:00");
        let empty = r("2013-03-20 00:00", "2013-03-20 00:00");
        assert!(range.contains_range(empty));
        assert!(range.contains_range(r("2013-03-18 10:30", "2013-03-18 11:00")));
        assert!(!range.contains_range(r("2013-03-18 11:30", "2013-03-18 12:30")));
    }

    #[test]
    fn intersection_and_overlap() {
        let a = r("2013-03-18 10:00", "2013-03-18 12:00");
        let b = r("2013-03-18 11:00", "2013-03-18 13:00");
        let c = r("2013-03-18 12:00", "2013-03-18 13:00"); // touches a
        assert_eq!(
            a.intersect(b),
            Some(r("2013-03-18 11:00", "2013-03-18 12:00"))
        );
        assert!(a.overlaps(b));
        assert_eq!(a.intersect(c), None);
        assert!(!a.overlaps(c));
    }

    #[test]
    fn hull_and_shift() {
        let a = r("2013-03-18 10:00", "2013-03-18 11:00");
        let b = r("2013-03-18 13:00", "2013-03-18 14:00");
        assert_eq!(a.hull(b), r("2013-03-18 10:00", "2013-03-18 14:00"));
        assert_eq!(
            a.shift(Duration::hours(24)),
            r("2013-03-19 10:00", "2013-03-19 11:00")
        );
    }

    #[test]
    fn alignment_widens_outward() {
        let raw = r("2013-03-18 10:07", "2013-03-18 11:52");
        let aligned = raw.align_outward(Resolution::MIN_15);
        assert_eq!(aligned, r("2013-03-18 10:00", "2013-03-18 12:00"));
        assert_eq!(aligned.interval_count(Resolution::MIN_15), 8);
    }

    #[test]
    fn split_days_handles_partial_edges() {
        let range = r("2013-03-18 18:00", "2013-03-20 06:00");
        let days = range.split_days();
        assert_eq!(days.len(), 3);
        assert_eq!(days[0], r("2013-03-18 18:00", "2013-03-19 00:00"));
        assert_eq!(days[1], r("2013-03-19 00:00", "2013-03-20 00:00"));
        assert_eq!(days[2], r("2013-03-20 00:00", "2013-03-20 06:00"));
    }

    #[test]
    fn split_chunks_covers_range_exactly() {
        let range = r("2013-03-18 00:00", "2013-03-18 20:00");
        let chunks = range.split_chunks(Duration::hours(6));
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[3].duration(), Duration::hours(2)); // ragged tail
        let total: Duration = chunks.iter().map(|c| c.duration()).sum();
        assert_eq!(total, range.duration());
        for pair in chunks.windows(2) {
            assert_eq!(pair[0].end(), pair[1].start());
        }
    }

    #[test]
    fn display_format() {
        let range = r("2013-03-18 10:00", "2013-03-18 12:00");
        assert_eq!(range.to_string(), "[2013-03-18 10:00 .. 2013-03-18 12:00)");
    }
}
