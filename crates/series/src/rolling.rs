//! Rolling-window statistics for the anomaly screen.
//!
//! The cleaning stage judges each metered interval against the median
//! and the population std of the `window` intervals before it
//! ([`crate::anomaly::rolling_anomalies`]). This module holds the
//! median's kernel and the trailing std the screen reproduces. Both use
//! a *trailing* window: `out[i]` summarises
//! `xs[i.saturating_sub(window-1) ..= i]`, and output length equals
//! input length.
//!
//! The median ranks each series once: one O(n) pass hashes every
//! sample's [`f64::total_cmp`] key into a table sized from the series
//! length, one sort orders only the *distinct* keys, and the window is a
//! live count per rank. A step moves one count down and one up, and the
//! cursor on the lower median moves at most one nonzero rank. A 1-min
//! metered week holds ~130 distinct readings on its register grid, so
//! the sort is short and the cursor mostly stays put. The table, ranks
//! and counts are per-thread scratch, reused across calls the way
//! [`crate::recycle`] reuses horizon buffers.

use std::cell::Cell;

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
/// samples of an even count. The warm-up windows, which hold fewer than
/// `window` samples, are stepped like the full ones. Panics if `window`
/// is 0 or `xs` holds 2³⁰ samples or more.
pub fn rolling_median(xs: &[f64], window: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(xs.len());
    medians(xs, window, 0, |median| out.push(median));
    out
}

/// Visit the median of every *full* trailing window of `xs`, in order:
/// the windows ending at `window - 1`, `window`, …, `xs.len() - 1`.
/// The first `window - 1` samples are counted into the window at once,
/// so no warm-up window is built. Panics as [`rolling_median`] does.
pub fn full_window_medians(xs: &[f64], window: usize, visit: impl FnMut(f64)) {
    medians(xs, window, window.saturating_sub(1), visit);
}

/// Visit the medians of the trailing windows ending at `counted`,
/// `counted + 1`, …, `xs.len() - 1`; the `counted` samples before the
/// first are counted straight into the window.
fn medians(xs: &[f64], window: usize, counted: usize, mut visit: impl FnMut(f64)) {
    assert!(window > 0, "window must be positive");
    assert!(xs.len() < 1 << 30, "series too long to rank");
    if counted >= xs.len() {
        return;
    }
    let mut ranks = SCRATCH.take();
    ranks.number(xs);
    ranks.sort();
    let Ranks { rank, live, .. } = &mut ranks;
    live.count_in(rank.get(..counted).unwrap_or_default());
    // The window ending at `i` takes in sample `i`; once it is full, it
    // also drops sample `i - window`.
    let (growing, full) = rank.split_at(window.min(rank.len()));
    for (i, &came) in growing.iter().enumerate().skip(counted) {
        live.step(None, came, i + 1);
        visit(live.median(i + 1));
    }
    for (&came, &gone) in full.iter().zip(rank.iter()) {
        live.step(Some(gone), came, window);
        visit(live.median(window));
    }
    SCRATCH.set(ranks);
}

/// Marks a free table slot.
const FREE: u16 = 0;

/// A taken slot holds its key's first-seen id as a tag in `1..=TAGS`,
/// `id % TAGS + 1`: the ids that share a tag are `TAGS` apart, and
/// their keys tell them apart. Below `TAGS` distinct keys a tag names
/// one id.
const TAGS: u32 = u16::MAX as u32;

thread_local! {
    /// This thread's ranking scratch, taken out for the length of one
    /// call: a visitor that panics only loses it, and one that ranks
    /// another series gets scratch of its own.
    static SCRATCH: Cell<Ranks> = Cell::new(Ranks::default());
}

/// One series' samples ranked by distinct key, and the live window over
/// the ranks.
#[derive(Default)]
struct Ranks {
    /// Open-addressed table of first-seen id tags, all [`FREE`]
    /// between builds.
    table: Vec<u16>,
    /// Each distinct key with its first-seen id and the slot it took,
    /// in first-seen order, then sorted by key.
    distinct: Vec<(i64, u32, u32)>,
    /// The rank of each first-seen id.
    rank_of: Vec<u32>,
    /// Each sample's first-seen id, then its rank.
    rank: Vec<u32>,
    live: Live,
}

impl Ranks {
    /// Give each sample the id of its key's first appearance, probing
    /// linearly from the key's home slot.
    fn number(&mut self, xs: &[f64]) {
        let slots = table_slots(xs.len());
        if self.table.len() != slots {
            self.table.clear();
            self.table.resize(slots, FREE);
        }
        let shift = 64 - slots.trailing_zeros();
        let last = slots as u32 - 1;
        self.distinct.clear();
        self.rank.clear();
        self.rank.reserve_exact(xs.len());
        for &x in xs {
            let key = order_key(x);
            let mut slot = home(key, shift);
            let id = 'probe: loop {
                let tag = self.table.get(slot as usize).copied().unwrap_or(FREE);
                if tag == FREE {
                    let id = self.distinct.len() as u32;
                    put(&mut self.table, slot as usize, (id % TAGS + 1) as u16);
                    self.distinct.push((key, id, slot));
                    break id;
                }
                let mut id = u32::from(tag) - 1;
                while let Some(&(seen, ..)) = self.distinct.get(id as usize) {
                    if seen == key {
                        break 'probe id;
                    }
                    id += TAGS;
                }
                slot = (slot + 1) & last;
            };
            self.rank.push(id);
        }
    }

    /// Free the table, sort the distinct keys and turn each sample's id
    /// into its rank.
    fn sort(&mut self) {
        // Free the taken slots one by one while they are under one in 16
        // of the table; past that, one fill writes less.
        if self.distinct.len() < self.table.len() / 16 {
            for &(.., slot) in &self.distinct {
                put(&mut self.table, slot as usize, FREE);
            }
        } else {
            self.table.fill(FREE);
        }
        // The keys are distinct, so the unstable sort has one outcome.
        self.distinct.sort_unstable_by_key(|&(key, ..)| key);
        let value = self.distinct.iter().map(|&(key, ..)| key_value(key));
        self.live.value.clear();
        self.live.value.extend(value);
        self.rank_of.resize(self.distinct.len(), 0);
        for (r, &(_, id, _)) in self.distinct.iter().enumerate() {
            put(&mut self.rank_of, id as usize, r as u32);
        }
        for id in &mut self.rank {
            *id = self.rank_of.get(*id as usize).copied().unwrap_or(0);
        }
    }
}

/// Table slots for `n` samples: a power of two, under half full even
/// when every sample is distinct. Probes stay short, and one always
/// meets a free slot.
fn table_slots(n: usize) -> usize {
    (2 * n + 1).next_power_of_two().max(64)
}

/// A key's home slot in a table of `64 - shift` bits: the top bits of
/// the key times 2⁶⁴/φ (Fibonacci hashing), which every key bit moves.
fn home(key: i64, shift: u32) -> u32 {
    ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as u32
}

/// The live window: a count per rank.
#[derive(Default)]
struct Live {
    /// The sample of each rank, ascending.
    value: Vec<f64>,
    /// Live samples per rank, and a bitset of the nonzero ones.
    count: Vec<u32>,
    nonzero: Vec<u64>,
    /// The rank holding the lower median and the live samples below it.
    cursor: usize,
    below: usize,
}

impl Live {
    /// Make the window the samples of ranks `first`, the cursor on
    /// their lower median (on rank 0 when `first` is empty).
    fn count_in(&mut self, first: &[u32]) {
        self.count.clear();
        self.count.resize(self.value.len(), 0);
        self.nonzero.clear();
        self.nonzero.resize(self.value.len().div_ceil(64), 0);
        for &r in first {
            if let Some(count) = self.count.get_mut(r as usize) {
                *count += 1;
            }
            if let Some(word) = self.nonzero.get_mut(r as usize / 64) {
                *word |= 1 << (r % 64);
            }
        }
        // Walk the live ranks up to the one holding the lower median.
        let target = first.len().saturating_sub(1) / 2;
        (self.cursor, self.below) = (0, 0);
        let mut live = next_nonzero(&self.nonzero, 0);
        while let Some(g) = live.filter(|&g| self.below + self.count_at(g) <= target) {
            self.below += self.count_at(g);
            live = next_nonzero(&self.nonzero, g + 1);
        }
        self.cursor = live.unwrap_or(0);
    }

    /// Rank `gone` (if any) leaves the window, rank `came` joins it, and
    /// the cursor moves to the window's new lower median; the window
    /// then holds `count` samples. One sample in and at most one out
    /// moves the lower median to, at most, the nearest nonzero rank on
    /// one side.
    #[inline]
    fn step(&mut self, gone: Option<u32>, came: u32, count: usize) {
        if let Some(g) = gone {
            self.shift(g as usize, false);
        }
        self.shift(came as usize, true);
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

    /// One sample of rank `g` joins (`came`) or leaves the window.
    fn shift(&mut self, g: usize, came: bool) {
        if let Some(count) = self.count.get_mut(g) {
            *count = if came { *count + 1 } else { *count - 1 };
            if *count == u32::from(came) {
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
        self.count.get(g).map_or(0, |&c| c as usize)
    }

    /// The median of a window of `count` samples. The upper median
    /// shares the lower's rank unless that rank's samples end at the
    /// lower median. The `NaN` fallbacks are never taken: the cursor's
    /// rank is live, and so is a rank above it when an even count's
    /// upper median lies past the cursor's rank.
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

    /// A sorted insert/remove buffer: the bit-exact oracle.
    fn sorted_buffer_median(xs: &[f64], window: usize) -> Vec<f64> {
        let mut sorted: Vec<f64> = Vec::new();
        let mut out = Vec::with_capacity(xs.len());
        for (i, &x) in xs.iter().enumerate() {
            let at = sorted.partition_point(|v| v.total_cmp(&x).is_lt());
            sorted.insert(at, x);
            if let Some(old) = i.checked_sub(window).map(|j| xs[j]) {
                let at = sorted.partition_point(|v| v.total_cmp(&old).is_lt());
                sorted.remove(at);
            }
            let n = sorted.len();
            out.push(if n % 2 == 1 {
                sorted[n / 2]
            } else {
                0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
            });
        }
        out
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// Both entry points against the oracle, bit for bit.
    fn assert_medians_exact(xs: &[f64], window: usize) {
        let want = sorted_buffer_median(xs, window);
        assert_eq!(
            bits(&rolling_median(xs, window)),
            bits(&want),
            "window {window}"
        );
        let mut full = Vec::new();
        full_window_medians(xs, window, |m| full.push(m));
        let tail = want.get(window - 1..).unwrap_or_default();
        assert_eq!(bits(&full), bits(tail), "window {window}");
    }

    /// Readings on a 0.001 grid whose keys start probing at `slot` of
    /// the table for `n` samples.
    fn readings_homed_at(slot: u32, n: usize, count: usize) -> Vec<f64> {
        let shift = 64 - table_slots(n).trailing_zeros();
        (0..)
            .map(|k| k as f64 * 0.001)
            .filter(|&x| home(order_key(x), shift) == slot)
            .take(count)
            .collect()
    }

    #[test]
    fn keys_sharing_a_home_slot_wrap_past_the_table_end() {
        let n = 40;
        let last = table_slots(n) as u32 - 1;
        // Five keys homed at the last slot spill over the end into slots
        // 0.., where a sixth key is homed.
        let mut pool = readings_homed_at(last, n, 5);
        pool.extend(readings_homed_at(0, n, 1));
        let xs: Vec<f64> = (0..n).map(|i| pool[(i * 5 + i / 6) % pool.len()]).collect();
        let mut ranks = Ranks::default();
        ranks.number(&xs);
        assert_eq!(ranks.distinct.len(), pool.len());
        let wrapped = ranks.distinct.iter().filter(|&&(.., slot)| slot < last);
        assert!(
            wrapped.count() >= 5,
            "the probes wrap: {:?}",
            ranks.distinct
        );
        ranks.sort();
        assert!(ranks.table.iter().all(|&tag| tag == FREE));
        for (&r, &x) in ranks.rank.iter().zip(&xs) {
            assert_eq!(ranks.live.value[r as usize].to_bits(), x.to_bits());
        }
        assert!(ranks.live.value.windows(2).all(|v| v[0] < v[1]));
        for window in 1..=9 {
            assert_medians_exact(&xs, window);
        }
    }

    /// `len` readings on a 0.001 grid: `levels` levels above `base`.
    fn grid(len: usize, seed: u64, levels: u64, base: u64) -> Vec<f64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (base + (state >> 33) % levels) as f64 * 0.001
            })
            .collect()
    }

    #[test]
    fn scratch_is_reused_across_series_of_different_lengths() {
        let long = grid(5_000, 7, 300, 0);
        let short: Vec<f64> = grid(700, 11, 40, 900).iter().map(|x| -x).collect();
        for (xs, window) in [(&long, 1440), (&short, 60), (&long, 97)] {
            assert_medians_exact(xs, window);
            let scratch = SCRATCH.take();
            assert_eq!(scratch.table.len(), table_slots(xs.len()));
            assert!(scratch.table.iter().all(|&tag| tag == FREE));
            SCRATCH.set(scratch);
        }
    }

    #[test]
    fn more_distinct_keys_than_tags_keep_their_ids() {
        // Each tag names several ids; the repeats must find the right one.
        let distinct = TAGS as usize + 4_000;
        let mut xs: Vec<f64> = (0..distinct).map(|i| i as f64 * 0.25).collect();
        xs.extend((0..3_000).map(|j| ((j * 7_919) % distinct) as f64 * 0.25));
        let mut ranks = Ranks::default();
        ranks.number(&xs);
        ranks.sort();
        assert_eq!(ranks.distinct.len(), distinct);
        for (&r, &x) in ranks.rank.iter().zip(&xs) {
            assert_eq!(ranks.live.value[r as usize].to_bits(), x.to_bits());
        }
        assert_medians_exact(&xs, 7);
    }
}
