//! The pieces every workload shares: repeated set-up, the closed-loop
//! timer, and the end-to-end metrics computed from op latencies.

use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use crate::Metrics;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Attach context to any displayable error.
pub trait Ctx<T> {
    /// Map the error to `"{what}: {error}"`.
    fn ctx(self, what: &str) -> Result<T, String>;
}

impl<T, E: std::fmt::Display> Ctx<T> for Result<T, E> {
    fn ctx(self, what: &str) -> Result<T, String> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

/// Flush dirty pages to disk (`sync`), so writeback from file-heavy
/// work does not land inside the next timed phase. Best effort: a host
/// without `sync` just skips it.
pub fn settle() {
    let _ = std::process::Command::new("sync")
        .stdin(std::process::Stdio::null())
        .status();
}

/// Run `setup` [`SETUPS`] times (the argument is the attempt index),
/// dropping each state before the next attempt and keeping the last.
/// Each attempt starts after a [`settle`], and the timed phase starts
/// after one more. Returns the last state with the median set-up time
/// in seconds, each attempt [`scaled`] by the reference kernel run just
/// before and just after it.
pub fn set_up<S>(mut setup: impl FnMut(usize) -> Result<S, String>) -> Result<(S, f64), String> {
    let (mut raw, mut times) = (Vec::with_capacity(SETUPS), Vec::with_capacity(SETUPS));
    let mut last = None;
    for attempt in 0..SETUPS {
        drop(last.take());
        settle();
        let before = reference_s();
        let started = Instant::now();
        let state = setup(attempt)?;
        let secs = started.elapsed().as_secs_f64();
        raw.push(secs);
        times.push(scaled(secs, before, reference_s()));
        last = Some(state);
    }
    let state = last.ok_or("no set-up ran")?;
    settle();
    eprintln!(
        "flexbench: set-up s {:.6} median, {:.6} scaled, over {SETUPS}",
        median(&raw),
        median(&times)
    );
    Ok((state, median(&times)))
}

/// A closed loop: `more()` is true until `budget` has passed since the
/// loop was created.
pub struct Deadline(Instant);

impl Deadline {
    /// Start a loop of length `budget`.
    pub fn after(budget: Duration) -> Deadline {
        Deadline(Instant::now() + budget)
    }

    /// Whether the loop should run another op.
    pub fn more(&self) -> bool {
        Instant::now() < self.0
    }
}

/// Time `f`, returning its output and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Values the reference kernel generates and sorts.
const REFERENCE_LEN: usize = 1 << 15;

/// The reference kernel's time, in seconds, at the host speed the
/// end-to-end times are scaled to: about its median on an idle 2-vCPU
/// VM.
pub const REFERENCE_S: f64 = 0.002;

/// `secs` of wall time scaled to the reference host speed: times
/// [`REFERENCE_S`] over the mean of the reference kernel's times
/// `before` and `after` it. The shared host's speed for fixed work moves
/// by up to 2× within minutes; the kernel, timed next to the work, moves
/// with it, so the scaled time keeps what the program did.
pub fn scaled(secs: f64, before: f64, after: f64) -> f64 {
    secs * REFERENCE_S * 2.0 / (before + after)
}

/// Wall time, in seconds, of the reference kernel: a fixed piece of
/// work written in this crate, so no change to the library moves its
/// time. Seeded values go through `exp`, `ln` and `sqrt` into a 256 KiB
/// vector, which is then sorted.
pub fn reference_s() -> f64 {
    let started = Instant::now();
    let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1D_u64);
    let mut values: Vec<f64> = (0..REFERENCE_LEN)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x >> 11) as f64 / (1_u64 << 53) as f64;
            (u * 8.0).exp().ln_1p().sqrt()
        })
        .collect();
    values.sort_unstable_by(f64::total_cmp);
    std::hint::black_box(values[REFERENCE_LEN / 2]);
    started.elapsed().as_secs_f64()
}

/// The latencies of one closed loop, each op bracketed by runs of the
/// reference kernel.
pub struct LoopTimes {
    /// Latency of each op, in seconds.
    pub op_s: Vec<f64>,
    /// The reference kernel's time before each op and after the last.
    pub reference_s: Vec<f64>,
}

impl LoopTimes {
    /// Each op's latency in milliseconds, [`scaled`] by the reference
    /// kernel's times just before and just after the op.
    pub fn scaled_ms(&self) -> Vec<f64> {
        self.op_s
            .iter()
            .zip(self.reference_s.windows(2))
            .map(|(op, around)| scaled(op * 1e3, around[0], around[1]))
            .collect()
    }
}

/// Run `op` (which returns its own latency in seconds) back to back
/// until `budget` has passed and at least [`MIN_OPS`] ops ran, with the
/// reference kernel between ops.
pub fn closed_loop(budget: Duration, mut op: impl FnMut() -> f64) -> LoopTimes {
    let deadline = Deadline::after(budget);
    let mut times = LoopTimes {
        op_s: Vec::new(),
        reference_s: vec![reference_s()],
    };
    while deadline.more() || times.op_s.len() < MIN_OPS {
        times.op_s.push(op());
        times.reference_s.push(reference_s());
    }
    times
}

/// Ops an untraced run needs for the median of its scaled latencies;
/// its loop runs past `--seconds` until it has them.
pub const MIN_OPS: usize = 20;

/// The end-to-end metrics of an untraced run whose op processes
/// `consumer_days` consumer-days. `consumer_days_per_s` uses the median
/// of the ops' scaled latencies ([`LoopTimes::scaled_ms`]); the raw
/// latencies, the reference kernel's times and the scaled latencies are
/// printed on standard error.
pub fn end_to_end(setup_s: f64, times: &LoopTimes, consumer_days: f64) -> Result<Metrics, String> {
    let op_ms: Vec<f64> = times.op_s.iter().map(|s| s * 1e3).collect();
    let reference_ms: Vec<f64> = times.reference_s.iter().map(|s| s * 1e3).collect();
    let scaled_ms = times.scaled_ms();
    let median_ms = percentile(&scaled_ms, 0.5)
        .ok_or_else(|| format!("only {} ops ran: a median needs {MIN_OPS}", op_ms.len()))?;
    for (name, ms) in [
        ("op ms", &op_ms),
        ("reference ms", &reference_ms),
        ("scaled op ms", &scaled_ms),
    ] {
        let q = |q| percentile(ms, q).unwrap_or(f64::NAN);
        eprintln!(
            "flexbench: {name} p10 {:.6} p25 {:.6} p50 {:.6} p90 {:.6} mean {:.6} over {}",
            q(0.1),
            q(0.25),
            q(0.5),
            q(0.9),
            mean(ms),
            ms.len()
        );
    }
    let mut m = Metrics::new();
    m.insert("setup_s", setup_s);
    m.insert("consumer_days_per_s", consumer_days / (median_ms / 1e3));
    Ok(m)
}

/// Insert percentile `q` of `samples` (scaled by `scale`) as `name`
/// when enough samples lie beyond it; note the omission otherwise.
pub fn insert_percentile(m: &mut Metrics, name: &'static str, samples: &[f64], q: f64, scale: f64) {
    match percentile(samples, q) {
        Some(v) => {
            m.insert(name, v * scale);
        }
        None => eprintln!(
            "flexbench: {name} omitted: {} samples are too few for that percentile",
            samples.len()
        ),
    }
}

/// The trace bookkeeping every workload reports.
pub fn insert_trace_totals(
    m: &mut Metrics,
    t: &Tracer,
    untraced_ms: f64,
    overhead_pct: f64,
    untraced_samples: usize,
) {
    m.insert("trace.overhead_pct", overhead_pct);
    m.insert("trace.stage_gap_pct", overhead_pct.abs());
    m.insert("trace.untraced_op_ms", untraced_ms);
    m.insert("trace.traced_op_ms", t.op_ms());
    m.insert("trace.untraced_samples", untraced_samples as f64);
    m.insert("trace.traced_samples", t.ops() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_takes_out_the_host_speed() {
        assert_eq!(scaled(0.1, REFERENCE_S, REFERENCE_S), 0.1);
        // Twice as slow around the op: half the wall time.
        assert!((scaled(0.2, 2.0 * REFERENCE_S, 2.0 * REFERENCE_S) - 0.1).abs() < 1e-12);
        // Each op takes the kernel runs on either side of it.
        let times = LoopTimes {
            op_s: vec![0.1, 0.3],
            reference_s: vec![REFERENCE_S, REFERENCE_S, 3.0 * REFERENCE_S],
        };
        let ms = times.scaled_ms();
        assert!((ms[0] - 100.0).abs() < 1e-9 && (ms[1] - 150.0).abs() < 1e-9, "{ms:?}");
    }

    #[test]
    fn the_reference_kernel_does_fixed_work() {
        let secs = reference_s();
        assert!(secs > 0.0 && secs < 1.0, "{secs}");
    }
}
