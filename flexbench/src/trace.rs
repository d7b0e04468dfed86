//! Spans around the calls into each layer, recorded from the
//! benchmark's own code.
//!
//! A replayed op runs inside [`Tracer::op`]; every call into a layer
//! inside it is wrapped in [`Tracer::span`]. Spans do not nest, so the
//! op's wall time is the sum of its spans plus the time outside any
//! span (`unaccounted`). [`Tracer::probe`] times a call made *outside*
//! the replayed op — a finer split of something a span already covers —
//! and never enters the stage sum.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Busy time per layer and exact counts, summed over the traced ops.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: BTreeMap<&'static str, Duration>,
    probes: BTreeMap<&'static str, (Duration, u64)>,
    counts: BTreeMap<&'static str, u64>,
    ops: u64,
    wall: Duration,
}

impl Tracer {
    /// Run one replayed op and add its wall time.
    pub fn op<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let started = Instant::now();
        let out = f(self);
        self.wall += started.elapsed();
        self.ops += 1;
        out
    }

    /// Time one call into `layer`.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        *self.spans.entry(layer).or_default() += started.elapsed();
        out
    }

    /// Time a call outside the replayed op (not part of the stage sum).
    pub fn probe<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        let slot = self.probes.entry(name).or_default();
        slot.0 += started.elapsed();
        slot.1 += 1;
        out
    }

    /// Add `n` to the exact counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// Replayed ops so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Mean busy time of `layer` per replayed op, in milliseconds.
    pub fn span_ms(&self, layer: &str) -> f64 {
        per_op_ms(self.spans.get(layer).copied().unwrap_or_default(), self.ops)
    }

    /// Mean time of one `name` probe call, in milliseconds.
    pub fn probe_ms(&self, name: &str) -> f64 {
        match self.probes.get(name) {
            Some((total, calls)) if *calls > 0 => total.as_secs_f64() * 1e3 / *calls as f64,
            _ => 0.0,
        }
    }

    /// Total time of every `name` probe per replayed op, in milliseconds.
    pub fn probe_per_op_ms(&self, name: &str) -> f64 {
        per_op_ms(
            self.probes.get(name).map(|p| p.0).unwrap_or_default(),
            self.ops,
        )
    }

    /// Mean of counter `name` per replayed op.
    pub fn count_per_op(&self, name: &str) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.counts.get(name).copied().unwrap_or(0) as f64 / self.ops as f64
        }
    }

    /// Mean wall time of one replayed op, in milliseconds.
    pub fn op_ms(&self) -> f64 {
        per_op_ms(self.wall, self.ops)
    }

    /// Mean time per replayed op spent outside every span.
    pub fn unaccounted_ms(&self) -> f64 {
        let spanned: Duration = self.spans.values().sum();
        per_op_ms(self.wall.saturating_sub(spanned), self.ops)
    }

    /// The stage sum against the mean untraced op time, in percent of
    /// the untraced time: the tracing overhead, whose absolute value is
    /// the stage-sum gap. The spans plus the unaccounted time are the
    /// traced op's wall time by construction.
    pub fn against(&self, untraced_ms: f64) -> f64 {
        100.0 * (self.op_ms() - untraced_ms) / untraced_ms
    }
}

fn per_op_ms(total: Duration, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        total.as_secs_f64() * 1e3 / ops as f64
    }
}

/// Largest gap between the stage sum and the untraced op time that the
/// traced run accepts, in percent of the untraced time.
pub const STAGE_GAP_TOLERANCE_PCT: f64 = 15.0;

/// The stage-sum check as an op verdict, from [`Tracer::against`].
pub fn stage_sum_verdict(overhead_pct: f64) -> Result<(), String> {
    let gap_pct = overhead_pct.abs();
    if gap_pct <= STAGE_GAP_TOLERANCE_PCT {
        Ok(())
    } else {
        Err(format!(
            "stage sum is {gap_pct:.1} % away from the untraced op time (tolerance \
             {STAGE_GAP_TOLERANCE_PCT} %)"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_unaccounted_add_up_to_the_op() {
        let mut t = Tracer::default();
        for _ in 0..3 {
            t.op(|t| {
                t.span("a", || std::thread::sleep(Duration::from_millis(2)));
                std::thread::sleep(Duration::from_millis(1));
                t.span("b", || std::thread::sleep(Duration::from_millis(2)));
                t.count("items", 5);
            });
        }
        let sum = t.span_ms("a") + t.span_ms("b") + t.unaccounted_ms();
        assert!((sum - t.op_ms()).abs() < 1e-9);
        assert!(t.unaccounted_ms() >= 1.0);
        assert_eq!(t.count_per_op("items"), 5.0);
        assert!(t.against(t.op_ms()).abs() < 1e-6);
    }

    #[test]
    fn probes_stay_out_of_the_stage_sum() {
        let mut t = Tracer::default();
        t.op(|t| t.span("a", || std::thread::sleep(Duration::from_millis(1))));
        t.probe("p", || std::thread::sleep(Duration::from_millis(3)));
        assert!(t.probe_ms("p") >= 3.0);
        assert!(t.op_ms() < 3.0);
    }

    #[test]
    fn a_large_stage_gap_fails_the_check() {
        assert!(stage_sum_verdict(STAGE_GAP_TOLERANCE_PCT).is_ok());
        assert!(stage_sum_verdict(-STAGE_GAP_TOLERANCE_PCT).is_ok());
        assert!(stage_sum_verdict(STAGE_GAP_TOLERANCE_PCT + 0.1).is_err());
        assert!(stage_sum_verdict(-STAGE_GAP_TOLERANCE_PCT - 0.1).is_err());
    }
}
