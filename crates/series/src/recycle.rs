//! Per-thread reuse of horizon-length value buffers.
//!
//! A dataset consumer materializes a few horizon-length `Vec<f64>`s
//! (measured series, ground-truth total and flexible series), resamples
//! them to the market resolution and drops them. Freed one consumer at
//! a time, those ~80 KB blocks sit at the top of the heap, the allocator
//! trims them back to the OS, and the next consumer faults the same
//! pages in again. Handing the buffers back with [`recycle`] and drawing
//! them with [`take`] keeps them mapped across consumers instead.
//!
//! The free list is thread-local, so concurrent consumer workers never
//! contend, and a worker's buffers are freed when its thread exits. It
//! holds at most [`RETAINED`] buffers, the largest it was handed, so a
//! thread moving to a longer horizon stops missing after one consumer.
//! A buffer is cleared when it is handed back, so a taken buffer is
//! always empty and no earlier content can reach a result.

use std::cell::RefCell;

/// Most buffers one thread keeps: the three series one dataset consumer
/// holds at once (measured, truth total, truth flexible) plus a chunk
/// decode scratch.
pub const RETAINED: usize = 4;

thread_local! {
    static FREE: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

/// An empty buffer with capacity for at least `len` values: the
/// smallest recycled buffer that fits, or a fresh allocation when none
/// does.
pub fn take(len: usize) -> Vec<f64> {
    let recycled = FREE.with_borrow_mut(|free| {
        let best = free
            .iter()
            .enumerate()
            .filter(|(_, buf)| buf.capacity() >= len)
            .min_by_key(|(_, buf)| buf.capacity())
            .map(|(i, _)| i);
        best.map(|i| free.swap_remove(i))
    });
    #[cfg(any(test, feature = "recycle-stats"))]
    stats::count(recycled.is_some());
    recycled.unwrap_or_else(|| Vec::with_capacity(len))
}

/// Hand `buf` back for a later [`take`] on this thread. When the free
/// list is full, the smallest buffer (`buf` included) is freed instead.
pub fn recycle(mut buf: Vec<f64>) {
    if buf.capacity() == 0 {
        return;
    }
    buf.clear();
    FREE.with_borrow_mut(|free| {
        if free.len() < RETAINED {
            free.push(buf);
        } else if let Some(smallest) = free.iter_mut().min_by_key(|b| b.capacity()) {
            if smallest.capacity() < buf.capacity() {
                *smallest = buf;
            }
        }
    });
}

/// Take and hit counts of this thread's free list (tests only: the
/// `recycle-stats` feature exposes them to other crates' tests).
#[cfg(any(test, feature = "recycle-stats"))]
pub mod stats {
    use std::cell::Cell;

    /// What this thread's free list has served.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct Stats {
        /// Calls to [`super::take`].
        pub takes: u64,
        /// Takes served by a recycled buffer.
        pub hits: u64,
        /// Buffers the free list holds now.
        pub retained: usize,
    }

    thread_local! {
        static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }

    pub(super) fn count(hit: bool) {
        COUNTS.with(|c| {
            let (takes, hits) = c.get();
            c.set((takes + 1, hits + u64::from(hit)));
        });
    }

    /// This thread's counts since its start or the last [`reset`].
    pub fn get() -> Stats {
        let (takes, hits) = COUNTS.with(Cell::get);
        Stats {
            takes,
            hits,
            retained: super::FREE.with_borrow(Vec::len),
        }
    }

    /// Zero this thread's take and hit counts.
    pub fn reset() {
        COUNTS.with(|c| c.set((0, 0)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain() {
        FREE.with_borrow_mut(Vec::clear);
        stats::reset();
    }

    #[test]
    fn taken_buffers_are_empty_and_reused() {
        drain();
        let mut buf = take(100);
        assert!(buf.is_empty() && buf.capacity() >= 100);
        buf.extend([f64::NAN; 100]);
        let ptr = buf.as_ptr();
        recycle(buf);
        let again = take(80);
        assert!(again.is_empty(), "a taken buffer carries no content");
        assert_eq!(again.as_ptr(), ptr);
        assert_eq!(
            stats::get(),
            stats::Stats {
                takes: 2,
                hits: 1,
                retained: 0
            }
        );
    }

    #[test]
    fn take_picks_the_smallest_buffer_that_fits() {
        drain();
        for cap in [10_000, 96, 20_000] {
            recycle(Vec::with_capacity(cap));
        }
        let scratch = take(96);
        assert!((96..10_000).contains(&scratch.capacity()));
        let series = take(10_000);
        assert!((10_000..20_000).contains(&series.capacity()));
        let big = take(15_000);
        assert!(big.capacity() >= 20_000);
        let miss = take(30_000);
        assert!(miss.capacity() >= 30_000);
        assert_eq!(stats::get().hits, 3);
        assert_eq!(stats::get().takes, 4);
    }

    #[test]
    fn the_free_list_is_capped_and_keeps_the_largest() {
        drain();
        for cap in 1..=3 * RETAINED {
            recycle(Vec::with_capacity(cap * 100));
            assert!(stats::get().retained <= RETAINED);
        }
        let mut caps: Vec<usize> =
            FREE.with_borrow(|free| free.iter().map(Vec::capacity).collect());
        caps.sort_unstable();
        let expect: Vec<usize> = (2 * RETAINED + 1..=3 * RETAINED).map(|c| c * 100).collect();
        assert!(caps.iter().zip(&expect).all(|(got, want)| got >= want));
        // Empty vectors hold no memory and are not kept.
        drain();
        recycle(Vec::new());
        assert_eq!(stats::get().retained, 0);
    }
}
