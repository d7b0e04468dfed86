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
/// samples when the window holds an even count. Each sample is sorted
/// once, in a block of `window` samples, and each step then costs
/// amortized O(1): O(n·log w) in total, with the log only in the sorts.
///
/// Every trailing window is a suffix of one block plus a prefix of the
/// next, so each pair of adjacent sorted blocks is merged into one rank
/// space of at most `2 * window` ranks and the window is the set of its
/// live ranks, a bitset. A step clears the rank of the sample leaving
/// and sets the rank of the sample entering; a cursor on the lower
/// median's rank, holding the count of live ranks below it, then moves
/// to its new place by trailing/leading-zero scans of the bitset words.
/// During warm-up the first block is paired with an empty one and the
/// window grows from zero. The block scheme is Suomela's ("Median
/// filtering is equivalent to sorting", arXiv 1406.1717).
pub fn rolling_median(xs: &[f64], window: usize) -> Vec<f64> {
    assert!(window > 0, "window must be positive");
    let block_len = window.min(xs.len());
    let mut out = Vec::with_capacity(xs.len());
    // `(key, offset in block)` of the previous and the current block,
    // sorted by key.
    let mut older: Vec<(i64, usize)> = Vec::with_capacity(block_len);
    let mut newer: Vec<(i64, usize)> = Vec::with_capacity(block_len);
    // The pair's rank space: `value[r]` is the sample of rank `r`, and
    // `rank[j]` the rank of the pair's `j`-th sample, the older block's
    // samples first.
    let mut value: Vec<f64> = Vec::with_capacity(2 * block_len);
    let mut rank: Vec<usize> = Vec::with_capacity(2 * block_len);
    let mut live: Vec<u64> = Vec::with_capacity((2 * block_len).div_ceil(64));
    for block in xs.chunks(window) {
        newer.clear();
        newer.extend(block.iter().enumerate().map(|(j, &x)| (order_key(x), j)));
        newer.sort_unstable_by_key(|&(key, _)| key);
        merge_ranks(&older, &newer, &mut value, &mut rank);

        // Before this block's first step the window is the whole older
        // block (empty during warm-up), and the cursor sits on the
        // older block's own lower median.
        let held = older.len();
        live.clear();
        live.resize(value.len().div_ceil(64), 0);
        for &r in rank.iter().take(held) {
            toggle_live(&mut live, r);
        }
        let mut count = held;
        let mut below = held.saturating_sub(1) / 2;
        let mut cursor = older
            .get(below)
            .and_then(|&(_, j)| rank.get(j).copied())
            .unwrap_or(0);

        for t in 0..block.len() {
            if t < held {
                if let Some(&gone) = rank.get(t) {
                    toggle_live(&mut live, gone);
                    below -= usize::from(gone < cursor);
                }
            } else {
                count += 1;
            }
            if let Some(&came) = rank.get(held + t) {
                toggle_live(&mut live, came);
                below += usize::from(came < cursor);
            }
            (cursor, below) = settle(&live, cursor, below, (count - 1) / 2);
            out.push(median_at(&live, &value, cursor, count));
        }
        std::mem::swap(&mut older, &mut newer);
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

/// Merge two key-sorted blocks into one rank space: `value[r]` gets the
/// sample of rank `r` and `rank[j]` the rank of the pair's `j`-th
/// sample, `older`'s offsets first and `newer`'s after them. Equal keys
/// are equal bits, so which of two tied samples ranks first is free.
fn merge_ranks(
    older: &[(i64, usize)],
    newer: &[(i64, usize)],
    value: &mut Vec<f64>,
    rank: &mut Vec<usize>,
) {
    let (held, len) = (older.len(), older.len() + newer.len());
    value.clear();
    value.resize(len, 0.0);
    rank.clear();
    rank.resize(len, 0);
    // Both heads are read every step so that the pick can compile to a
    // select: a branch on the data-dependent merge order mispredicts.
    let (mut a, mut b) = (0, 0);
    for (r, v) in value.iter_mut().enumerate() {
        let (ka, ja) = older.get(a).copied().unwrap_or_default();
        let (kb, jb) = newer.get(b).copied().unwrap_or_default();
        let from_older = a < held && (b >= newer.len() || ka <= kb);
        let (key, j) = if from_older {
            (ka, ja)
        } else {
            (kb, held + jb)
        };
        a += usize::from(from_older);
        b += usize::from(!from_older);
        *v = key_value(key);
        if let Some(slot) = rank.get_mut(j) {
            *slot = r;
        }
    }
}

/// Move rank `r` into or out of the window.
fn toggle_live(live: &mut [u64], r: usize) {
    if let Some(word) = live.get_mut(r / 64) {
        *word ^= 1 << (r % 64);
    }
}

fn is_live(live: &[u64], r: usize) -> bool {
    live.get(r / 64)
        .is_some_and(|word| word >> (r % 64) & 1 == 1)
}

/// The smallest live rank at or above `from`.
fn next_live(live: &[u64], from: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut bits = live.get(w)? & (!0 << (from % 64));
    while bits == 0 {
        w += 1;
        bits = *live.get(w)?;
    }
    Some(w * 64 + bits.trailing_zeros() as usize)
}

/// The largest live rank below `before`.
fn prev_live(live: &[u64], before: usize) -> Option<usize> {
    let last = before.checked_sub(1)?;
    let mut w = last / 64;
    let mut bits = live.get(w)? & (!0 >> (63 - last % 64));
    while bits == 0 {
        w = w.checked_sub(1)?;
        bits = *live.get(w)?;
    }
    Some(w * 64 + 63 - bits.leading_zeros() as usize)
}

/// Move the cursor to the live rank with exactly `target` live ranks
/// below it. `below` counts the live ranks below `cursor`, which may
/// itself have just left the window. The window always holds more than
/// `target` live ranks, so every scan finds one.
fn settle(live: &[u64], mut cursor: usize, mut below: usize, target: usize) -> (usize, usize) {
    loop {
        let step = if below > target {
            prev_live(live, cursor).map(|r| (r, below - 1))
        } else if !is_live(live, cursor) {
            next_live(live, cursor).map(|r| (r, below))
        } else if below < target {
            next_live(live, cursor + 1).map(|r| (r, below + 1))
        } else {
            return (cursor, below);
        };
        match step {
            Some(moved) => (cursor, below) = moved,
            None => return (cursor, below),
        }
    }
}

/// The median of `count` live ranks whose lower median is at `cursor`.
/// The `NaN` fallbacks are never taken: the cursor is live, and an even
/// count leaves a live rank above it.
fn median_at(live: &[u64], value: &[f64], cursor: usize, count: usize) -> f64 {
    let lower = value.get(cursor).copied().unwrap_or(f64::NAN);
    if count % 2 == 1 {
        return lower;
    }
    let upper = next_live(live, cursor + 1)
        .and_then(|r| value.get(r).copied())
        .unwrap_or(f64::NAN);
    0.5 * (lower + upper)
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
