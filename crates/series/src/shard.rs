//! Deterministic fan-out over a worker pool: the one place in library
//! code that starts threads.
//!
//! [`ordered_parallel_map`] runs every parallel step of the workspace —
//! the scenarios of a corpus, the consumers of one scenario, the
//! households of a simulated fleet, the shards of a store. `n` items
//! are claimed by worker threads through one atomic counter
//! (work-stealing — a slow item never stalls the other workers), but
//! the caller's `consume` closure observes the results in **strict
//! index order**, one at a time, on the calling thread. Because
//! reduction happens in index order with exactly the float operations
//! of a serial loop, anything accumulated through this function is
//! byte-identical at every thread count — determinism comes from
//! seeding per item and merging per index, never from scheduling.
//!
//! A bounded reorder window applies backpressure: a worker that raced
//! ahead of the merge frontier parks until the frontier catches up, so a
//! 10k-consumer stress scenario holds `O(threads + window)` in-flight
//! results rather than the whole fleet. The window can never deadlock:
//! the claimant of the lowest outstanding index always satisfies
//! `index < frontier + window` (the window is at least 1), so the item
//! the merger is waiting for is always allowed to complete.
//!
//! The worker count is additionally clamped, silently, to the host's
//! [`std::thread::available_parallelism`]: oversubscribing a smaller
//! machine is strictly slower (the recorded `BENCH_pipeline.json`
//! baseline showed `consumer_threads: 8` regressing 20–25 % against
//! serial on a 1-core host), and because merge order is pinned by index
//! the clamp cannot change a single output byte — only the wall clock.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Shared reorder state: completed items awaiting their turn, and the
/// merge frontier (`next index the consumer will take`).
struct Reorder<T, E> {
    /// A ring of `window` slots; index `i` waits in slot `i % window`.
    /// Workers only finish indices in `[frontier, frontier + window)`,
    /// so no two waiting items share a slot.
    ready: Vec<Option<Result<T, E>>>,
    frontier: usize,
    /// Set when the run stops early — an item errored, or a thread
    /// panicked; everyone drops pending work instead of parking
    /// forever.
    cancelled: bool,
}

/// Lock the reorder state, shrugging off mutex poisoning: the state's
/// invariants are trivial (a ring and two scalars mutated atomically
/// under the lock), and cancellation must keep working *during* a
/// panic unwind or the panic turns into a deadlock.
fn lock<'a, T, E>(state: &'a Mutex<Reorder<T, E>>) -> MutexGuard<'a, Reorder<T, E>> {
    state
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Drop guard that cancels the whole run and wakes every parked thread
/// unless explicitly disarmed. Armed around any code that can panic
/// (`produce` on workers, `consume` on the merger): without it, a
/// panicking worker would leave the merger waiting forever for an index
/// that will never arrive, and a panicking merger would leave workers
/// parked on a window that will never advance — either way
/// `std::thread::scope` could not finish joining to re-raise the panic.
struct CancelOnDrop<'a, T, E> {
    state: &'a Mutex<Reorder<T, E>>,
    room: &'a Condvar,
    arrived: &'a Condvar,
    armed: bool,
}

impl<T, E> CancelOnDrop<'_, T, E> {
    fn disarm(mut self) {
        self.armed = false;
    }
}

impl<T, E> Drop for CancelOnDrop<'_, T, E> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut guard = lock(self.state);
        guard.cancelled = true;
        drop(guard);
        self.room.notify_all();
        self.arrived.notify_all();
    }
}

/// The worker count [`ordered_parallel_map`] uses for `requested`
/// threads over `n` items: `min(requested, available_parallelism)`,
/// further bounded by the item count and never zero. An unavailable
/// core count (exotic platforms) leaves the request unclamped rather
/// than guessing.
fn effective_workers(requested: usize, n: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(usize::MAX, |c| c.get());
    requested.min(cores).clamp(1, n.max(1))
}

/// Run `produce` over `0..n` on scoped workers, feeding the results to
/// `consume` in strict index order on the calling thread.
///
/// At most `threads` workers run, and never more than the host has CPU
/// cores or than there are items: the workers are CPU-bound and merge
/// order is already pinned by index, so extra threads cannot help and
/// measurably hurt on small hosts.
///
/// The first `Err` — from `produce` (in index order) or from `consume`
/// — cancels the remaining work and is returned. A caller that wants
/// every item's own result, failures included, returns `Ok(result)`
/// from `produce`. With one worker (serial request, single item, or a
/// 1-core host) no threads are spawned at all and the loop runs
/// inline, so the serial path is trivially identical.
///
/// # Panics
///
/// A panic in `produce` or `consume` cancels the run (drop guards wake
/// every parked thread) and is re-raised once the worker scope joins —
/// the same observable behaviour as the serial loop, never a deadlock.
pub fn ordered_parallel_map<T, E, P, C>(
    n: usize,
    threads: usize,
    produce: P,
    mut consume: C,
) -> Result<(), E>
where
    T: Send,
    E: Send,
    P: Fn(usize) -> Result<T, E> + Sync,
    C: FnMut(usize, T) -> Result<(), E>,
{
    let threads = effective_workers(threads, n);
    if threads == 1 {
        for i in 0..n {
            consume(i, produce(i)?)?;
        }
        return Ok(());
    }

    // Workers may run at most `window` indices past the merge frontier
    // before parking; sized so the pool stays busy through ordinary
    // per-item cost skew without buffering a whole fleet.
    let window = threads * 4;
    let next_claim = AtomicUsize::new(0);
    let state: Mutex<Reorder<T, E>> = Mutex::new(Reorder {
        ready: std::iter::repeat_with(|| None).take(window).collect(),
        frontier: 0,
        cancelled: false,
    });
    // Workers park on `room` (window full), the merger on `arrived`.
    let room = Condvar::new();
    let arrived = Condvar::new();

    let mut first_error: Option<E> = None;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next_claim.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                {
                    let mut guard = lock(&state);
                    while !guard.cancelled && i >= guard.frontier + window {
                        guard = room
                            .wait(guard)
                            .unwrap_or_else(|poisoned| poisoned.into_inner());
                    }
                    if guard.cancelled {
                        break;
                    }
                }
                // If `produce` panics, the guard cancels the run so the
                // merger stops waiting for index `i`; the scope join
                // then re-raises the panic instead of deadlocking.
                let sentinel = CancelOnDrop {
                    state: &state,
                    room: &room,
                    arrived: &arrived,
                    armed: true,
                };
                let item = produce(i);
                sentinel.disarm();
                let mut guard = lock(&state);
                // A cancelled run has emptied the ring; the item drops.
                if let Some(slot) = guard.ready.get_mut(i % window) {
                    *slot = Some(item);
                }
                if i == guard.frontier {
                    arrived.notify_all();
                }
            });
        }

        // The calling thread is the merger: take index `frontier` as
        // soon as it lands and fold it before looking at the next one.
        // The guard covers a panicking `consume` (and any other early
        // unwind through this closure): workers parked on the window
        // must be woken and told to quit, or the scope join hangs.
        let merger_sentinel = CancelOnDrop {
            state: &state,
            room: &room,
            arrived: &arrived,
            armed: true,
        };
        for i in 0..n {
            let item = {
                let mut guard = lock(&state);
                loop {
                    if let Some(item) = guard.ready.get_mut(i % window).and_then(Option::take) {
                        guard.frontier = i + 1;
                        room.notify_all();
                        break Some(item);
                    }
                    // A worker died before delivering `i`: stop
                    // merging; the scope join re-raises its panic.
                    if guard.cancelled {
                        break None;
                    }
                    guard = arrived
                        .wait(guard)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            };
            let Some(item) = item else {
                break;
            };
            let stop = match item {
                Err(e) => Some(e),
                Ok(value) => consume(i, value).err(),
            };
            if let Some(e) = stop {
                first_error = Some(e);
                let mut guard = lock(&state);
                guard.cancelled = true;
                guard.ready.clear();
                drop(guard);
                room.notify_all();
                break;
            }
        }
        // Disarming after a clean break is fine: the error path above
        // has already cancelled and notified by hand (emptying the
        // ring too), and normal completion leaves no one parked —
        // every index gets claimed and merged.
        merger_sentinel.disarm();
    });
    match first_error {
        None => Ok(()),
        Some(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_order_is_index_order_at_any_thread_count() {
        for threads in [1, 2, 3, 7, 16] {
            let mut seen = Vec::new();
            ordered_parallel_map(
                25,
                threads,
                |i| {
                    // Skew the work so completion order scrambles.
                    std::thread::sleep(std::time::Duration::from_micros(
                        ((i * 31) % 7) as u64 * 50,
                    ));
                    Ok::<usize, ()>(i * i)
                },
                |i, v| {
                    seen.push((i, v));
                    Ok(())
                },
            )
            .unwrap();
            let expect: Vec<(usize, usize)> = (0..25).map(|i| (i, i * i)).collect();
            assert_eq!(seen, expect, "threads = {threads}");
        }
    }

    #[test]
    fn empty_input_is_a_noop() {
        let mut calls = 0;
        ordered_parallel_map(
            0,
            8,
            |_| Ok::<(), ()>(()),
            |_, _| {
                calls += 1;
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(calls, 0);
    }

    #[test]
    fn first_error_in_index_order_wins_and_cancels() {
        // Items 5 and 11 both fail; the merger must surface 5 — the
        // same error a serial loop would return — regardless of which
        // worker finished first.
        for threads in [2, 7] {
            let err = ordered_parallel_map(
                64,
                threads,
                |i| {
                    if i == 5 || i == 11 {
                        Err(i)
                    } else {
                        Ok(i)
                    }
                },
                |_, _| Ok(()),
            )
            .unwrap_err();
            assert_eq!(err, 5, "threads = {threads}");
        }
    }

    #[test]
    fn consume_error_stops_the_run() {
        let mut merged = Vec::new();
        let err = ordered_parallel_map(40, 4, Ok::<usize, &str>, |i, v| {
            if i == 3 {
                return Err("stop at 3");
            }
            merged.push(v);
            Ok(())
        })
        .unwrap_err();
        assert_eq!(err, "stop at 3");
        assert_eq!(merged, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates_instead_of_deadlocking() {
        // Without the cancel guard this would hang forever: the merger
        // waits for index 7, which is never delivered.
        let _ = ordered_parallel_map(
            64,
            4,
            |i| {
                if i == 7 {
                    panic!("boom in produce");
                }
                Ok::<usize, ()>(i)
            },
            |_, _| Ok(()),
        );
    }

    #[test]
    #[should_panic]
    fn merger_panic_propagates_instead_of_deadlocking() {
        // Without the merger guard, workers parked on the reorder
        // window would never be woken and the scope join would hang
        // during the unwind.
        let _ = ordered_parallel_map(256, 4, Ok::<usize, ()>, |i, _| {
            if i == 3 {
                panic!("boom in consume");
            }
            Ok(())
        });
    }

    #[test]
    fn effective_workers_clamps_to_host_cores_items_and_one() {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        // The hardware ceiling: a request far beyond the host's core
        // count never produces more workers than cores.
        assert_eq!(effective_workers(cores + 64, 1000), cores.min(1000));
        // The item-count ceiling and the floor of one survive unchanged.
        assert_eq!(effective_workers(8, 1), 1);
        assert_eq!(effective_workers(0, 10), 1);
        assert_eq!(effective_workers(1, 0), 1);
        assert!(effective_workers(usize::MAX, usize::MAX) <= cores);
    }

    #[test]
    fn hardware_clamp_applies_while_reports_stay_byte_identical() {
        // The oversubscription bugfix: requesting far more threads than
        // the host has cores must (a) actually shrink the pool and (b)
        // leave the merged result bit-for-bit what the serial loop
        // produces — the clamp is a pure wall-clock optimisation.
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let n = 64;
        let worker_ids = Mutex::new(std::collections::HashSet::new());
        let mut folded = 0.0f64;
        ordered_parallel_map(
            n,
            cores + 13,
            |i| {
                lock_ids(&worker_ids).insert(std::thread::current().id());
                Ok::<f64, ()>((i as f64) * 0.1 + 1.0 / (i as f64 + 1.0))
            },
            |_, v| {
                folded += v;
                Ok(())
            },
        )
        .unwrap();
        let mut serial = 0.0f64;
        for i in 0..n {
            serial += (i as f64) * 0.1 + 1.0 / (i as f64 + 1.0);
        }
        assert_eq!(folded.to_bits(), serial.to_bits());
        let distinct = lock_ids(&worker_ids).len();
        assert!(
            distinct <= effective_workers(cores + 13, n),
            "spawned {distinct} distinct workers, clamp allows {}",
            effective_workers(cores + 13, n)
        );
        assert!(distinct <= cores, "pool exceeded the host core count");
    }

    fn lock_ids(
        ids: &Mutex<std::collections::HashSet<std::thread::ThreadId>>,
    ) -> MutexGuard<'_, std::collections::HashSet<std::thread::ThreadId>> {
        ids.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn window_backpressure_bounds_in_flight_results() {
        // With 2 threads the window is 8: no completed-but-unmerged
        // index may ever exceed frontier + window. Track the high-water
        // mark of (produced index − merge frontier) via the consume
        // callback's view of arrival order.
        let n = 200;
        let produced = AtomicUsize::new(0);
        let mut max_ahead = 0usize;
        let mut merged = 0usize;
        ordered_parallel_map(
            n,
            2,
            |i| {
                produced.fetch_add(1, Ordering::Relaxed);
                Ok::<usize, ()>(i)
            },
            |_, _| {
                merged += 1;
                let ahead = produced.load(Ordering::Relaxed).saturating_sub(merged);
                max_ahead = max_ahead.max(ahead);
                Ok(())
            },
        )
        .unwrap();
        // window (8) + threads in flight (2) is the hard ceiling.
        assert!(max_ahead <= 8 + 2, "max_ahead = {max_ahead}");
    }
}
