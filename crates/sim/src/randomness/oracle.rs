//! The ziggurat sampler in its single-loop form, kept as a differential
//! oracle for [`super::standard_normal`].
//!
//! The production sampler splits the one-word fast path from the wedge
//! and tail branches so the fast path inlines into the simulator's
//! per-minute loops. The split must not change a draw: for any
//! generator state, both forms consume the same words in the same order
//! and return the same bits. This file is the reference for that claim.
//! `randomness::tests` compares the two over millions of draws per
//! seed, and `tests/proptests.rs` includes this file by path to compare
//! them on rotating seeds.
//!
//! It also counts how often the wedge and tail branches ran, so a test
//! can show it reached them.

use super::tables::{F, X};
use rand::Rng;

/// How many draws of the oracle left the fast path, by branch.
#[derive(Debug, Default, Clone, Copy)]
pub struct Branches {
    /// Draws that tested the wedge under the curve (one `exp`).
    pub wedge: u64,
    /// Draws that went to the base layer's tail.
    pub tail: u64,
}

/// A standard-normal draw, exactly as one loop over layer picks.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R, branches: &mut Branches) -> f64 {
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xff) as usize;
        let u = 2.0 * f64::from_bits((bits >> 12) | 1f64.to_bits()) - 3.0;
        let x = u * X[i];
        if x.abs() < X[i + 1] {
            return x;
        }
        if i == 0 {
            branches.tail += 1;
            return normal_tail(rng, u < 0.0);
        }
        branches.wedge += 1;
        let y = F[i] + (F[i + 1] - F[i]) * rng.gen::<f64>();
        if y < (-0.5 * x * x).exp() {
            return x;
        }
    }
}

/// Marsaglia's tail method beyond ±`X[1]`.
fn normal_tail<R: Rng + ?Sized>(rng: &mut R, negative: bool) -> f64 {
    loop {
        let x = open_unit(rng).ln() / X[1];
        let y = open_unit(rng).ln();
        if -2.0 * y >= x * x {
            return if negative { x - X[1] } else { X[1] - x };
        }
    }
}

/// A uniform draw on the open interval (0, 1).
fn open_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
}

/// `normal(mean, std_dev)` over the oracle.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64, b: &mut Branches) -> f64 {
    mean + std_dev * standard_normal(rng, b)
}

/// `clamped_normal(mean, std_dev, lo, hi)` over the oracle.
pub fn clamped_normal<R: Rng + ?Sized>(
    rng: &mut R,
    mean: f64,
    std_dev: f64,
    lo: f64,
    hi: f64,
    b: &mut Branches,
) -> f64 {
    normal(rng, mean, std_dev, b).clamp(lo, hi)
}

/// `ou_step(current, mean, theta, sigma)` over the oracle.
pub fn ou_step<R: Rng + ?Sized>(
    rng: &mut R,
    current: f64,
    mean: f64,
    theta: f64,
    sigma: f64,
    b: &mut Branches,
) -> f64 {
    current + theta * (mean - current) + sigma * standard_normal(rng, b)
}
