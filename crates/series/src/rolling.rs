//! Rolling-window statistics.
//!
//! Online baselines are everywhere in this workspace: the real-time
//! generator tracks a rolling median of recent power, the multi-tariff
//! detector needs local level estimates, and plotting smoothed series
//! is the first thing any analyst does with metering data. These
//! helpers compute trailing-window statistics in one pass.
//!
//! All functions use a *trailing* window: `out[i]` summarises
//! `xs[i.saturating_sub(window-1) ..= i]`, so the result is causal
//! (usable online) and output length equals input length.

use std::collections::VecDeque;

/// Trailing-window mean.
pub fn rolling_mean(xs: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    let mut out = Vec::with_capacity(xs.len());
    let mut sum = 0.0;
    for i in 0..xs.len() {
        sum += xs[i];
        if i >= window {
            sum -= xs[i - window];
        }
        let n = (i + 1).min(window) as f64;
        out.push(sum / n);
    }
    out
}

/// Trailing-window population standard deviation.
pub fn rolling_std(xs: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    let mut out = Vec::with_capacity(xs.len());
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for i in 0..xs.len() {
        sum += xs[i];
        sum_sq += xs[i] * xs[i];
        if i >= window {
            sum -= xs[i - window];
            sum_sq -= xs[i - window] * xs[i - window];
        }
        let n = (i + 1).min(window) as f64;
        let mean = sum / n;
        // Guard tiny negatives from float cancellation.
        out.push((sum_sq / n - mean * mean).max(0.0).sqrt());
    }
    out
}

/// Trailing-window minimum (monotonic-deque algorithm, O(n) total).
pub fn rolling_min(xs: &[f64], window: usize) -> Vec<f64> {
    rolling_extreme(xs, window, |a, b| a <= b)
}

/// Trailing-window maximum (monotonic-deque algorithm, O(n) total).
pub fn rolling_max(xs: &[f64], window: usize) -> Vec<f64> {
    rolling_extreme(xs, window, |a, b| a >= b)
}

fn rolling_extreme(xs: &[f64], window: usize, keep: impl Fn(f64, f64) -> bool) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    let mut out = Vec::with_capacity(xs.len());
    let mut deque: VecDeque<usize> = VecDeque::new();
    for i in 0..xs.len() {
        while let Some(&back) = deque.back() {
            if keep(xs[i], xs[back]) {
                deque.pop_back();
            } else {
                break;
            }
        }
        deque.push_back(i);
        if let Some(&front) = deque.front() {
            if i >= window && front <= i - window {
                deque.pop_front();
            }
        }
        // `i` was just pushed, so the deque is never empty here; fall
        // back to `i` rather than panicking on the impossible case.
        let front = deque.front().copied().unwrap_or(i);
        out.push(xs[front]);
    }
    out
}

/// Trailing-window median, exact under [`f64::total_cmp`]: the middle
/// sample of the window, or `0.5 * (lower + upper)` of the two middle
/// samples when the window holds an even count. O(n·log w) in total.
///
/// The window lives in two indexed binary heaps over its ring slots
/// (sample `i` occupies slot `i % window`): a max-heap holding the lower
/// half and a min-heap holding the upper half, the lower half one larger
/// when the count is odd. Once the window is full, each step overwrites
/// the outgoing sample's slot in place with the incoming one, sifts it
/// within its heap, and — if it crossed the halves' boundary — swaps the
/// two heap tops once.
pub fn rolling_median(xs: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    let mut halves = MedianHeaps::with_slots(window.min(xs.len()));
    let mut out = Vec::with_capacity(xs.len());
    for (i, &x) in xs.iter().enumerate() {
        if i < window {
            halves.push(i, order_key(x));
        } else {
            halves.replace(i % window, order_key(x));
        }
        out.push(halves.median());
    }
    out
}

/// Integer key ordered exactly like [`f64::total_cmp`].
fn order_key(x: f64) -> i64 {
    flip_negatives(x.to_bits() as i64)
}

/// The sample whose [`order_key`] is `key`, bit for bit.
fn key_value(key: i64) -> f64 {
    f64::from_bits(flip_negatives(key) as u64)
}

/// Flip every bit but the sign of negative bit patterns — the trick
/// `total_cmp` itself uses. It keeps the sign, so it is its own inverse.
fn flip_negatives(bits: i64) -> i64 {
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Tag bit on a slot's heap position marking the upper-half heap.
const UPPER: usize = 1 << (usize::BITS - 1);

/// The two halves of a median window, as min-heaps of `(key, slot)`.
///
/// `lower` stores bitwise-negated keys (`!k` reverses the order of
/// `i64`), so its root is the largest sample of the lower half; `upper`
/// stores keys as they are. Invariants between steps:
/// - every key in `lower` is ≤ every key in `upper`;
/// - `lower.len()` is `upper.len()` or `upper.len() + 1`;
/// - `at[slot]` is the index of `slot`'s entry in its heap, tagged with
///   [`UPPER`] when that heap is `upper`.
struct MedianHeaps {
    lower: Vec<(i64, usize)>,
    upper: Vec<(i64, usize)>,
    at: Vec<usize>,
}

impl MedianHeaps {
    fn with_slots(slots: usize) -> Self {
        MedianHeaps {
            lower: Vec::with_capacity(slots / 2 + 1),
            upper: Vec::with_capacity(slots / 2),
            at: vec![0; slots],
        }
    }

    /// Warm-up: add `slot` with `key`, growing the window by one.
    fn push(&mut self, slot: usize, key: i64) {
        if self.lower.first().is_some_and(|&(top, _)| key > !top) {
            push_entry(&mut self.upper, &mut self.at, UPPER, (key, slot));
        } else {
            push_entry(&mut self.lower, &mut self.at, 0, (!key, slot));
        }
        if self.lower.len() > self.upper.len() + 1 {
            let (top, slot) = pop_root(&mut self.lower, &mut self.at, 0);
            push_entry(&mut self.upper, &mut self.at, UPPER, (!top, slot));
        } else if self.upper.len() > self.lower.len() {
            let (top, slot) = pop_root(&mut self.upper, &mut self.at, UPPER);
            push_entry(&mut self.lower, &mut self.at, 0, (!top, slot));
        }
    }

    /// Full window: overwrite `slot`'s outgoing sample with `key`.
    fn replace(&mut self, slot: usize, key: i64) {
        let loc = self.at[slot];
        if loc & UPPER == 0 {
            self.lower[loc].0 = !key;
            resift(&mut self.lower, &mut self.at, 0, loc);
        } else {
            self.upper[loc & !UPPER].0 = key;
            resift(&mut self.upper, &mut self.at, UPPER, loc & !UPPER);
        }
        // Only the new key can be out of place, so at most one of the
        // two roots is on the wrong side and one swap settles both.
        if let (Some(&(lo, lo_slot)), Some(&(hi, hi_slot))) =
            (self.lower.first(), self.upper.first())
        {
            if !lo > hi {
                self.lower[0] = (!hi, hi_slot);
                self.upper[0] = (!lo, lo_slot);
                self.at[hi_slot] = 0;
                self.at[lo_slot] = UPPER;
                sift_down(&mut self.lower, &mut self.at, 0, 0);
                sift_down(&mut self.upper, &mut self.at, UPPER, 0);
            }
        }
    }

    fn median(&self) -> f64 {
        let lower = key_value(!self.lower[0].0);
        if self.lower.len() > self.upper.len() {
            lower
        } else {
            0.5 * (lower + key_value(self.upper[0].0))
        }
    }
}

/// Move the entry at `i` up or down to its place after a key change.
fn resift(heap: &mut [(i64, usize)], at: &mut [usize], tag: usize, i: usize) {
    if sift_up(heap, at, tag, i) == i {
        sift_down(heap, at, tag, i);
    }
}

/// Move the entry at `i` towards the root; returns where it landed.
fn sift_up(heap: &mut [(i64, usize)], at: &mut [usize], tag: usize, mut i: usize) -> usize {
    let entry = heap[i];
    while i > 0 {
        let parent = (i - 1) / 2;
        if heap[parent].0 <= entry.0 {
            break;
        }
        heap[i] = heap[parent];
        at[heap[i].1] = i | tag;
        i = parent;
    }
    heap[i] = entry;
    at[entry.1] = i | tag;
    i
}

/// Move the entry at `i` away from the root to its place.
fn sift_down(heap: &mut [(i64, usize)], at: &mut [usize], tag: usize, mut i: usize) {
    let entry = heap[i];
    loop {
        let mut child = 2 * i + 1;
        if child >= heap.len() {
            break;
        }
        if child + 1 < heap.len() && heap[child + 1].0 < heap[child].0 {
            child += 1;
        }
        if entry.0 <= heap[child].0 {
            break;
        }
        heap[i] = heap[child];
        at[heap[i].1] = i | tag;
        i = child;
    }
    heap[i] = entry;
    at[entry.1] = i | tag;
}

fn push_entry(heap: &mut Vec<(i64, usize)>, at: &mut [usize], tag: usize, entry: (i64, usize)) {
    let last = heap.len();
    heap.push(entry);
    sift_up(heap, at, tag, last);
}

/// Remove and return the root of a non-empty heap.
fn pop_root(heap: &mut Vec<(i64, usize)>, at: &mut [usize], tag: usize) -> (i64, usize) {
    let root = heap.swap_remove(0);
    if !heap.is_empty() {
        sift_down(heap, at, tag, 0);
    }
    root
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn mean_warms_up_then_slides() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let m = rolling_mean(&xs, 3);
        assert!((m[0] - 1.0).abs() < EPS);
        assert!((m[1] - 1.5).abs() < EPS);
        assert!((m[2] - 2.0).abs() < EPS);
        assert!((m[3] - 3.0).abs() < EPS);
        assert!((m[4] - 4.0).abs() < EPS);
    }

    #[test]
    fn std_matches_direct_computation() {
        let xs = [1.0, 5.0, 2.0, 8.0, 3.0, 9.0];
        let s = rolling_std(&xs, 3);
        for i in 2..xs.len() {
            let w = &xs[i - 2..=i];
            let direct = crate::stats::std_dev(w).unwrap();
            assert!(
                (s[i] - direct).abs() < 1e-9,
                "index {i}: {} vs {direct}",
                s[i]
            );
        }
        // Flat window → zero std, not NaN.
        let flat = rolling_std(&[2.0; 5], 3);
        assert!(flat.iter().all(|v| v.abs() < EPS));
    }

    #[test]
    fn min_max_track_extremes() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mn = rolling_min(&xs, 3);
        let mx = rolling_max(&xs, 3);
        for i in 0..xs.len() {
            let lo = i.saturating_sub(2);
            let w = &xs[lo..=i];
            let dmn = w.iter().cloned().fold(f64::INFINITY, f64::min);
            let dmx = w.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(mn[i], dmn, "min at {i}");
            assert_eq!(mx[i], dmx, "max at {i}");
        }
    }

    #[test]
    fn median_matches_direct_computation() {
        let xs = [7.0, 1.0, 5.0, 3.0, 8.0, 2.0, 9.0, 4.0];
        let med = rolling_median(&xs, 4);
        for i in 0..xs.len() {
            let lo = i.saturating_sub(3);
            let direct = crate::stats::median(&xs[lo..=i]).unwrap();
            assert_eq!(
                med[i].to_bits(),
                direct.to_bits(),
                "index {i}: {} vs {direct}",
                med[i]
            );
        }
    }

    #[test]
    fn window_one_is_identity() {
        let xs = [4.0, 2.0, 7.0];
        assert_eq!(rolling_mean(&xs, 1), xs.to_vec());
        assert_eq!(rolling_median(&xs, 1), xs.to_vec());
        assert_eq!(rolling_min(&xs, 1), xs.to_vec());
        assert_eq!(rolling_max(&xs, 1), xs.to_vec());
    }

    #[test]
    fn window_larger_than_input_uses_all_history() {
        let xs = [1.0, 2.0, 3.0];
        let m = rolling_mean(&xs, 100);
        assert!((m[2] - 2.0).abs() < EPS);
        let md = rolling_median(&xs, 100);
        assert!((md[2] - 2.0).abs() < EPS);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_panics() {
        rolling_mean(&[1.0], 0);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        assert!(rolling_mean(&[], 3).is_empty());
        assert!(rolling_std(&[], 3).is_empty());
        assert!(rolling_min(&[], 3).is_empty());
        assert!(rolling_median(&[], 3).is_empty());
    }
}
