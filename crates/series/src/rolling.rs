//! Rolling-window statistics for the anomaly screen.
//!
//! The cleaning stage judges each metered interval against the median
//! and the population std of the `window` intervals before it
//! ([`crate::anomaly::rolling_anomalies`]). This module holds the
//! median's block kernel and the trailing std the screen reproduces.
//! Both use a *trailing* window: `out[i]` summarises
//! `xs[i.saturating_sub(window-1) ..= i]`, and output length equals
//! input length.

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

/// Trailing-window median, exact under [`f64::total_cmp`]: the middle
/// sample of the window, or `0.5 * (lower + upper)` of the two middle
/// samples of an even count. [`full_window_medians`]'s kernel, walking
/// the warm-up windows too.
pub fn rolling_median(xs: &[f64], window: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(xs.len());
    block_medians(xs, window, true, |median| out.push(median));
    out
}

/// Visit the median of every *full* trailing window of `xs`, in order:
/// the windows ending at `window - 1`, `window`, …, `xs.len() - 1`.
/// The warm-up windows before them are never built.
///
/// Each sample is sorted once, in a block of `window` samples: O(n·log
/// w) in total, the log only in the sorts. Every window is a suffix of
/// one block plus a prefix of the next (Suomela, arXiv 1406.1717), so
/// each adjacent pair's *distinct* keys are merged into one list and
/// the window is a live count per key. A step moves one count down and
/// one up, and the cursor on the lower median — a key and the live
/// samples below it — moves at most one nonzero key. Metered readings
/// sit on a register grid: a block holds a few dozen distinct keys, so
/// the merge is short and the cursor mostly stays put.
pub fn full_window_medians(xs: &[f64], window: usize, visit: impl FnMut(f64)) {
    block_medians(xs, window, false, visit);
}

fn block_medians(xs: &[f64], window: usize, warm_up: bool, mut visit: impl FnMut(f64)) {
    assert!(window > 0, "window must be positive");
    let mut blocks = xs.chunks(window);
    let (mut older, mut newer, mut live) = (Block::default(), Block::default(), Live::default());
    let mut sorted = Vec::new();
    // Without warm-up the first block only yields its full window's
    // median, straight from its sorted samples; with it, the first
    // block's steps grow the window from an empty older block.
    if !warm_up {
        let Some(first) = blocks.next() else {
            return;
        };
        older.regroup(first, &mut sorted);
        if first.len() == window {
            let middle = |r: usize| sorted.get(r).map_or(f64::NAN, |&(key, _)| key_value(key));
            let (lower, upper) = (middle((window - 1) / 2), middle(window / 2));
            visit(if window % 2 == 1 {
                lower
            } else {
                0.5 * (lower + upper)
            });
        }
    }
    for block in blocks {
        newer.regroup(block, &mut sorted);
        live.pair(&older, &newer);
        let held = older.group.len();
        for (t, &came) in newer.group.iter().enumerate() {
            let count = held.max(t + 1);
            live.step(older.group.get(t).copied(), came, count);
            visit(live.median(count));
        }
        std::mem::swap(&mut older, &mut newer);
    }
}

/// One block of samples, grouped by distinct key: the distinct `keys`
/// ascending, one past the last rank of each key's samples, and each
/// sample's key, in arrival order.
#[derive(Default)]
struct Block {
    keys: Vec<i64>,
    ends: Vec<usize>,
    group: Vec<usize>,
}

impl Block {
    /// Group `samples`, leaving their `(key, offset)` pairs in `sorted`,
    /// sorted by key.
    fn regroup(&mut self, samples: &[f64], sorted: &mut Vec<(i64, usize)>) {
        let n = samples.len();
        sorted.clear();
        sorted.extend(samples.iter().enumerate().map(|(j, &x)| (order_key(x), j)));
        sorted.sort_unstable_by_key(|&(key, _)| key);
        // Each sample writes its key's slots, so a new key costs no
        // branch; the last write leaves the key's last rank. Every slot
        // kept is written, so stale contents need no clearing.
        self.keys.resize(n, 0);
        self.ends.resize(n, 0);
        self.group.resize(n, 0);
        let mut g = 0;
        let mut last = sorted.first().map_or(0, |&(key, _)| key);
        for (r, &(key, j)) in sorted.iter().enumerate() {
            g += usize::from(key != last);
            last = key;
            put(&mut self.keys, g, key);
            put(&mut self.ends, g, r + 1);
            put(&mut self.group, j, g);
        }
        self.keys.truncate((g + 1).min(n));
        self.ends.truncate((g + 1).min(n));
    }
}

/// The live window over a pair of adjacent blocks, on the pair's
/// merged distinct keys.
#[derive(Default)]
struct Live {
    /// The sample of each merged key, ascending.
    value: Vec<f64>,
    /// The merged key of each of the older and the newer block's keys.
    from_older: Vec<usize>,
    from_newer: Vec<usize>,
    /// Live samples per merged key, and a bitset of the nonzero ones.
    count: Vec<usize>,
    nonzero: Vec<u64>,
    /// The merged key holding the lower median and the live samples below it.
    cursor: usize,
    below: usize,
}

impl Live {
    /// Merge the two blocks' keys and make the window the whole older
    /// block, the cursor on its lower median.
    fn pair(&mut self, older: &Block, newer: &Block) {
        let (na, nb) = (older.keys.len(), newer.keys.len());
        self.from_older.resize(na, 0);
        self.from_newer.resize(nb, 0);
        self.value.resize(na + nb, 0.0);
        self.count.resize(na + nb, 0);
        // Both heads are read and all slots written every step, so the
        // data-dependent merge order compiles to selects, not
        // mispredicted branches; a head's slot keeps the write made as
        // its key is taken.
        let (mut a, mut b, mut merged, mut held) = (0, 0, 0, 0);
        while a < na || b < nb {
            let ka = older.keys.get(a).copied().unwrap_or_default();
            let kb = newer.keys.get(b).copied().unwrap_or_default();
            let take_a = a < na && (b >= nb || ka <= kb);
            let take_b = b < nb && (a >= na || kb <= ka);
            let end = older.ends.get(a).copied().unwrap_or(held);
            put(&mut self.from_older, a, merged);
            put(&mut self.from_newer, b, merged);
            let key = if take_a { ka } else { kb };
            put(&mut self.value, merged, key_value(key));
            put(&mut self.count, merged, if take_a { end - held } else { 0 });
            held = if take_a { end } else { held };
            a += usize::from(take_a);
            b += usize::from(take_b);
            merged += 1;
        }
        self.value.truncate(merged);
        self.count.truncate(merged);
        let word = |live: &[usize]| live.iter().rev().fold(0, |w, &c| w << 1 | u64::from(c > 0));
        self.nonzero.clear();
        self.nonzero.extend(self.count.chunks(64).map(word));
        let target = older.group.len().saturating_sub(1) / 2;
        let median = older.ends.partition_point(|&end| end <= target);
        self.cursor = self.from_older.get(median).copied().unwrap_or(0);
        let below = median.checked_sub(1).and_then(|g| older.ends.get(g));
        self.below = below.copied().unwrap_or(0);
    }

    /// The older block's key `gone` (if any) leaves the window, the
    /// newer block's key `came` joins it, and the cursor moves to the
    /// window's new lower median; the window then holds `count`
    /// samples. One sample in and at most one out moves the lower
    /// median to, at most, the nearest nonzero key on one side.
    #[inline]
    fn step(&mut self, gone: Option<usize>, came: usize, count: usize) {
        if let Some(g) = gone.and_then(|g| self.from_older.get(g).copied()) {
            self.shift(g, false);
        }
        if let Some(&g) = self.from_newer.get(came) {
            self.shift(g, true);
        }
        let target = (count - 1) / 2;
        if self.below > target {
            if let Some(g) = prev_nonzero(&self.nonzero, self.cursor) {
                self.cursor = g;
                self.below -= self.count_at(g);
            }
        } else if self.below + self.count_at(self.cursor) <= target {
            if let Some(g) = next_nonzero(&self.nonzero, self.cursor + 1) {
                self.below += self.count_at(self.cursor);
                self.cursor = g;
            }
        }
    }

    /// One sample of merged key `g` joins (`came`) or leaves the window.
    fn shift(&mut self, g: usize, came: bool) {
        if let Some(count) = self.count.get_mut(g) {
            *count = if came { *count + 1 } else { *count - 1 };
            if *count == usize::from(came) {
                toggle(&mut self.nonzero, g);
            }
        }
        let moved = usize::from(g < self.cursor);
        self.below = if came {
            self.below + moved
        } else {
            self.below - moved
        };
    }

    fn count_at(&self, g: usize) -> usize {
        self.count.get(g).copied().unwrap_or(0)
    }

    /// The median of a window of `count` samples. The upper median
    /// shares the lower's key unless that key's samples end at the
    /// lower median. The `NaN` fallbacks are never taken: the cursor's
    /// key is live, and so is a key above it when an even count's upper
    /// median lies past the cursor's key.
    #[inline]
    fn median(&self, count: usize) -> f64 {
        let lower = self.value.get(self.cursor).copied().unwrap_or(f64::NAN);
        if count % 2 == 1 {
            return lower;
        }
        let upper = if self.below + self.count_at(self.cursor) > count / 2 {
            lower
        } else {
            next_nonzero(&self.nonzero, self.cursor + 1)
                .and_then(|g| self.value.get(g).copied())
                .unwrap_or(f64::NAN)
        };
        0.5 * (lower + upper)
    }
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

/// `slots[i] = v`, or nothing past the end.
fn put<T>(slots: &mut [T], i: usize, v: T) {
    if let Some(slot) = slots.get_mut(i) {
        *slot = v;
    }
}

fn toggle(bits: &mut [u64], i: usize) {
    if let Some(word) = bits.get_mut(i / 64) {
        *word ^= 1 << (i % 64);
    }
}

/// The smallest set bit at or above `from`.
fn next_nonzero(bits: &[u64], from: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut word = bits.get(w)? & (!0 << (from % 64));
    while word == 0 {
        w += 1;
        word = *bits.get(w)?;
    }
    Some(w * 64 + word.trailing_zeros() as usize)
}

/// The largest set bit below `before`.
fn prev_nonzero(bits: &[u64], before: usize) -> Option<usize> {
    let last = before.checked_sub(1)?;
    let mut w = last / 64;
    let mut word = bits.get(w)? & (!0 >> (63 - last % 64));
    while word == 0 {
        w = w.checked_sub(1)?;
        word = *bits.get(w)?;
    }
    Some(w * 64 + 63 - word.leading_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

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
        assert_eq!(rolling_median(&xs, 1), xs.to_vec());
        assert_eq!(rolling_std(&xs, 1), vec![0.0; 3]);
    }

    #[test]
    fn window_larger_than_input_uses_all_history() {
        let xs = [1.0, 2.0, 3.0];
        let md = rolling_median(&xs, 100);
        assert!((md[2] - 2.0).abs() < EPS);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_panics() {
        rolling_median(&[1.0], 0);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        assert!(rolling_std(&[], 3).is_empty());
        assert!(rolling_median(&[], 3).is_empty());
    }
}
