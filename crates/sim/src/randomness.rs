//! Distribution helpers built on `rand`'s uniform primitives.
//!
//! The allowed dependency set includes `rand` but not `rand_distr`, so
//! the handful of non-uniform draws the simulator needs are implemented
//! here: Gaussian (a 256-layer ziggurat), Poisson counts (Knuth's
//! product method, adequate for the small rates appliance usage
//! produces), and weighted index selection (the paper's
//! size-proportional peak choice uses the same primitive).
//!
//! # Keeping per-minute loops in registers
//!
//! The simulator's hot loops draw one normal per simulated minute, and
//! their speed depends on the generator's four state words and the
//! loop's running level staying in registers. [`standard_normal`]
//! inlines only its one-word fast path. Its rare wedge and tail branches
//! live in a cold function that takes the generator **by value** and
//! returns it: if that call took `&mut rng`, the generator's address
//! would escape from every loop that draws, and the compiler would keep
//! the state in memory, storing and reloading it every minute. By
//! value, only the cold path copies the state out and back. A loop
//! kernel then copies the caller's generator into a local, runs and
//! writes it back (`simulate.rs`, `industrial.rs`, `res.rs` and the
//! dataset crate's noise pass). Kernels that clamp at zero go through
//! [`clamp_to_zero`], a predicted branch that keeps the clamp off the
//! loop's dependency chain.

use rand::Rng;

#[cfg(test)]
pub(crate) mod oracle;
mod tables;

/// `r`, the right edge of the ziggurat's base layer: draws beyond it
/// come from the tail.
const TAIL_EDGE: f64 = tables::X[1];

/// A standard-normal draw by the ziggurat method (Marsaglia & Tsang,
/// "The Ziggurat Method for Generating Random Variables", J. Stat.
/// Softw. 5(8), 2000), exact up to floating point.
///
/// The density is covered by 256 layers of equal area: 255 rectangles
/// and a base made of a rectangle plus the tail beyond `r ≈ 3.654`.
/// One 64-bit word picks a layer from its low 8 bits and a value in
/// `[-1, 1)` from its top 52. Taking the two from disjoint bits is
/// Doornik's fix ("An Improved Ziggurat Method to Generate Normal
/// Random Samples", 2005) for the correlation of the original. About
/// 98.8 % of draws land inside their layer's inner rectangle and cost
/// that one word, one multiply and one compare. The rest test the
/// wedge under the curve with one `exp`, or, in the base layer, draw
/// from the tail by Marsaglia's exponential method.
///
/// Only that fast path is inlined into callers; the wedge and tail
/// branches live in a cold function that continues the same loop, so
/// the split changes no draw (`randomness/oracle.rs` keeps the
/// single-loop form, and the tests compare the two bit for bit). The
/// cold function takes a copy of the generator and hands it back, so a
/// caller's generator never has its address taken and can stay in
/// registers across the caller's loop (see the module doc). That is why
/// `R` must be `Clone`.
#[inline]
pub fn standard_normal<R: Rng + Clone>(rng: &mut R) -> f64 {
    let (i, u, x) = layer_pick(rng.next_u64());
    if x.abs() < tables::X[i + 1] {
        return x;
    }
    let (x, rest) = standard_normal_slow(rng.clone(), i, u, x);
    *rng = rest;
    x
}

/// Split one word into a layer `i`, a uniform `u` in `[-1, 1)` and the
/// candidate `x = u · X[i]`.
#[inline(always)]
fn layer_pick(bits: u64) -> (usize, f64, f64) {
    let i = (bits & 0xff) as usize;
    // 52 mantissa bits under exponent 0 give [1, 2); map to [-1, 1).
    let u = 2.0 * f64::from_bits((bits >> 12) | 1f64.to_bits()) - 3.0;
    (i, u, u * tables::X[i])
}

/// The rest of [`standard_normal`]'s loop after a draw `(i, u, x)` fell
/// outside its layer's inner rectangle: the tail for the base layer, a
/// wedge test otherwise, and on rejection a fresh layer pick. Returns
/// the draw and the generator after it.
#[cold]
#[inline(never)]
fn standard_normal_slow<R: Rng>(mut rng: R, mut i: usize, mut u: f64, mut x: f64) -> (f64, R) {
    use tables::{F, X};
    loop {
        if i == 0 {
            return (normal_tail(&mut rng, u < 0.0), rng);
        }
        let y = F[i] + (F[i + 1] - F[i]) * rng.gen::<f64>();
        if y < (-0.5 * x * x).exp() {
            return (x, rng);
        }
        (i, u, x) = layer_pick(rng.next_u64());
        if x.abs() < X[i + 1] {
            return (x, rng);
        }
    }
}

/// A draw from the normal tail beyond ±`r` (Marsaglia, "Generating a
/// variable from the tail of the normal distribution", Technometrics
/// 6(1), 1964).
fn normal_tail<R: Rng + ?Sized>(rng: &mut R, negative: bool) -> f64 {
    loop {
        // Both logs are of uniforms on (0, 1), so finite and negative.
        let x = open_unit(rng).ln() / TAIL_EDGE;
        let y = open_unit(rng).ln();
        if -2.0 * y >= x * x {
            return if negative {
                x - TAIL_EDGE
            } else {
                TAIL_EDGE - x
            };
        }
    }
}

/// A uniform draw on the open interval (0, 1).
fn open_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
}

/// A normal draw with the given mean and standard deviation.
#[inline]
pub fn normal<R: Rng + Clone>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * standard_normal(rng)
}

/// A normal draw clamped into `[lo, hi]`.
pub fn clamped_normal<R: Rng + Clone>(
    rng: &mut R,
    mean: f64,
    std_dev: f64,
    lo: f64,
    hi: f64,
) -> f64 {
    normal(rng, mean, std_dev).clamp(lo, hi)
}

/// `x` clamped at zero from below: `x` when `x > 0`, else `+0.0` (for
/// NaN and `-0.0` too).
///
/// That is the value `x.max(0.0)` has in an optimised build, where it
/// compiles to one `maxsd`; an unoptimised build may keep `-0.0`. The
/// difference is speed: `maxsd` sits on a loop's dependency chain
/// (an OU level feeds the next step), while this is a branch that
/// predicts well, so the chain goes on without waiting for the
/// compare. The zero side is a `#[cold]` function; that hint is what
/// keeps the optimiser from turning the branch back into `maxsd`.
#[inline(always)]
pub fn clamp_to_zero(x: f64) -> f64 {
    if x > 0.0 {
        x
    } else {
        zero()
    }
}

/// The rare side of [`clamp_to_zero`].
#[cold]
#[inline(never)]
fn zero() -> f64 {
    0.0
}

/// A Poisson count with rate `lambda` (Knuth's product method).
///
/// Appliance daily rates are ≲ 3, where this O(λ) method is both exact
/// and fast. Rates ≤ 0 yield 0.
pub fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u32 {
    if lambda <= 0.0 {
        return 0;
    }
    let limit = (-lambda).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= limit {
            return k;
        }
        k += 1;
        // Defensive cap: λ in this workspace is ≤ ~10, so 1000 events
        // would indicate a broken caller rather than a legitimate draw.
        if k >= 1000 {
            return k;
        }
    }
}

/// Pick an index with probability proportional to the `i`-th weight.
///
/// Returns `None` when the weights are empty or sum to a non-positive
/// value. This is exactly the selection rule of the paper's peak-based
/// approach ("the single peak is randomly chosen depending on these
/// probabilities", §3.2). The weights are walked twice (sum, then
/// pick), so a caller can pass them straight from where they are
/// stored, without collecting them.
pub fn weighted_index<R, W>(rng: &mut R, weights: W) -> Option<usize>
where
    R: Rng + ?Sized,
    W: IntoIterator<Item = f64>,
    W::IntoIter: Clone,
{
    let weights = weights.into_iter();
    let positive = |w: &f64| w.is_finite() && *w > 0.0;
    let total: f64 = weights.clone().filter(positive).sum();
    if total <= 0.0 {
        return None;
    }
    let mut target = rng.gen::<f64>() * total;
    for (i, w) in weights.clone().enumerate() {
        if positive(&w) {
            target -= w;
            if target <= 0.0 {
                return Some(i);
            }
        }
    }
    // Float rounding can leave a sliver; return the last positive index.
    weights
        .enumerate()
        .filter(|(_, w)| positive(w))
        .last()
        .map(|(i, _)| i)
}

/// A Bernoulli trial with probability `p` (clamped into `[0, 1]`).
pub fn bernoulli<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    rng.gen::<f64>() < p.clamp(0.0, 1.0)
}

/// One step of a mean-reverting Ornstein–Uhlenbeck process — the
/// simulator's engine for smooth stochastic curves (base load, wind
/// speed).
///
/// `theta` is the mean-reversion rate per step, `sigma` the noise scale.
#[inline]
pub fn ou_step<R: Rng + Clone>(
    rng: &mut R,
    current: f64,
    mean: f64,
    theta: f64,
    sigma: f64,
) -> f64 {
    current + theta * (mean - current) + sigma * standard_normal(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xF1E57)
    }

    #[test]
    fn normal_matches_moments() {
        let mut r = rng();
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| normal(&mut r, 3.0, 2.0)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn clamped_normal_respects_bounds() {
        let mut r = rng();
        for _ in 0..1000 {
            let x = clamped_normal(&mut r, 0.5, 10.0, 0.0, 1.0);
            assert!((0.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn clamp_to_zero_is_the_optimised_max() {
        for x in [
            1.5,
            1e-300,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            0.0,
            -1e-300,
            -2.0,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ] {
            assert_eq!(clamp_to_zero(x).to_bits(), x.max(0.0).to_bits(), "{x}");
        }
        // `maxsd` with zero as its second operand returns +0.0 here; an
        // unoptimised `f64::max` may return -0.0.
        assert_eq!(clamp_to_zero(-0.0).to_bits(), 0);
    }

    #[test]
    fn poisson_matches_mean() {
        let mut r = rng();
        let n = 20_000;
        let lambda = 1.7;
        let total: u64 = (0..n).map(|_| poisson(&mut r, lambda) as u64).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - lambda).abs() < 0.05, "mean {mean}");
        assert_eq!(poisson(&mut r, 0.0), 0);
        assert_eq!(poisson(&mut r, -1.0), 0);
    }

    #[test]
    fn weighted_index_matches_proportions() {
        let mut r = rng();
        let weights = [2.22, 5.47]; // the Figure-5 survivors
        let mut counts = [0u32; 2];
        let n = 50_000;
        for _ in 0..n {
            counts[weighted_index(&mut r, weights).unwrap()] += 1;
        }
        let p0 = counts[0] as f64 / n as f64;
        // Expected 2.22 / 7.69 ≈ 0.2887 — the paper's "29 %".
        assert!((p0 - 0.2887).abs() < 0.01, "p0 {p0}");
    }

    #[test]
    fn weighted_index_edge_cases() {
        let mut r = rng();
        assert_eq!(weighted_index(&mut r, [0.0; 0]), None);
        assert_eq!(weighted_index(&mut r, [0.0, 0.0]), None);
        assert_eq!(weighted_index(&mut r, [-1.0]), None);
        assert_eq!(weighted_index(&mut r, [0.0, 3.0, 0.0]), Some(1));
        // NaN weights are skipped, not propagated.
        assert_eq!(weighted_index(&mut r, [f64::NAN, 1.0]), Some(1));
    }

    #[test]
    fn bernoulli_respects_probability() {
        let mut r = rng();
        let n = 20_000;
        let hits = (0..n).filter(|_| bernoulli(&mut r, 0.29)).count();
        let p = hits as f64 / n as f64;
        assert!((p - 0.29).abs() < 0.02, "p {p}");
        assert!(!bernoulli(&mut r, 0.0));
        assert!(bernoulli(&mut r, 1.0));
        assert!(bernoulli(&mut r, 2.0)); // clamped
    }

    #[test]
    fn ou_process_reverts_to_mean() {
        let mut r = rng();
        let mut x = 100.0;
        for _ in 0..2000 {
            x = ou_step(&mut r, x, 10.0, 0.05, 0.2);
        }
        assert!((x - 10.0).abs() < 5.0, "x {x}");
    }

    /// Marsaglia & Tsang's constants for 256 layers.
    const R: f64 = 3.654_152_885_361_009;
    const V: f64 = 0.004_928_673_233_99;

    fn f(x: f64) -> f64 {
        (-0.5 * x * x).exp()
    }

    #[test]
    fn ziggurat_tables_rebuild_from_r_and_v() {
        let mut x = [0.0; 257];
        x[0] = V / f(R);
        x[1] = R;
        for i in 1..255 {
            x[i + 1] = (-2.0 * (f(x[i]) + V / x[i]).ln()).sqrt();
        }
        let ulps = |a: f64, b: f64| a.to_bits().abs_diff(b.to_bits());
        for (i, (&want, &got)) in x.iter().zip(&tables::X).enumerate() {
            assert!(ulps(got, want) <= 4, "X[{i}] {got} vs {want}");
            let (got, want) = (tables::F[i], f(want));
            assert!(ulps(got, want) <= 4, "F[{i}] {got} vs {want}");
        }
        assert_eq!(TAIL_EDGE, R);
    }

    #[test]
    fn every_ziggurat_layer_has_area_v() {
        use tables::{F, X};
        // Layers 1..=254 are rectangles X[i] wide between heights F[i]
        // and F[i + 1].
        for i in 1..255 {
            let area = X[i] * (F[i + 1] - F[i]);
            assert!((area / V - 1.0).abs() < 1e-12, "layer {i}: {area}");
        }
        // The top layer closes at X[256] = 0 only as well as the 12
        // digits of v allow.
        let top = X[255] * (1.0 - F[255]);
        assert!((top / V - 1.0).abs() < 1e-8, "top layer: {top}");
        // The base layer: rectangle r·f(r) plus the tail beyond r
        // (Simpson's rule over [r, r + 12]), and X[0]·F[1] by
        // construction.
        let (steps, h) = (20_000, 12.0 / 20_000.0);
        let tail: f64 = (0..=steps)
            .map(|k| {
                let w = if k == 0 || k == steps {
                    1.0
                } else {
                    (2 + 2 * (k % 2)) as f64
                };
                w * f(R + k as f64 * h)
            })
            .sum::<f64>()
            * h
            / 3.0;
        let base = R * F[1] + tail;
        assert!((base / V - 1.0).abs() < 1e-10, "base layer: {base}");
        assert!((X[0] * F[1] / V - 1.0).abs() < 1e-15);
    }

    #[test]
    fn tail_draws_lie_beyond_r_on_the_requested_side() {
        let mut r = rng();
        for _ in 0..1000 {
            assert!(normal_tail(&mut r, false) > R);
            assert!(normal_tail(&mut r, true) < -R);
        }
    }

    #[test]
    fn standard_normal_matches_the_loop_form_oracle_bit_for_bit() {
        let mut branches = oracle::Branches::default();
        for seed in [1, 7, 0xF1E57] {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = a.clone();
            for k in 0..2_000_000 {
                let (x, y) = (
                    standard_normal(&mut a),
                    oracle::standard_normal(&mut b, &mut branches),
                );
                assert_eq!(x.to_bits(), y.to_bits(), "seed {seed}, draw {k}");
            }
            // Same words consumed: the generators agree afterwards.
            assert_eq!(a.next_u64(), b.next_u64(), "seed {seed}");
        }
        assert!(branches.wedge > 0 && branches.tail > 0, "{branches:?}");
    }

    #[test]
    fn normal_wrappers_match_the_oracle_bit_for_bit() {
        let mut branches = oracle::Branches::default();
        for seed in [2, 42] {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = a.clone();
            let (mut level_a, mut level_b) = (0.4, 0.4);
            for k in 0..600_000u32 {
                let (x, y) = match k % 3 {
                    0 => (
                        normal(&mut a, 3.0, 0.7),
                        oracle::normal(&mut b, 3.0, 0.7, &mut branches),
                    ),
                    1 => (
                        clamped_normal(&mut a, 0.5, 0.25, 0.0, 1.0),
                        oracle::clamped_normal(&mut b, 0.5, 0.25, 0.0, 1.0, &mut branches),
                    ),
                    _ => {
                        level_a = ou_step(&mut a, level_a, 0.4, 0.02, 0.02);
                        level_b = oracle::ou_step(&mut b, level_b, 0.4, 0.02, 0.02, &mut branches);
                        (level_a, level_b)
                    }
                };
                assert_eq!(x.to_bits(), y.to_bits(), "seed {seed}, draw {k}");
            }
            assert_eq!(a.next_u64(), b.next_u64(), "seed {seed}");
        }
        assert!(branches.wedge > 0 && branches.tail > 0, "{branches:?}");
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(
                standard_normal(&mut a).to_bits(),
                standard_normal(&mut b).to_bits()
            );
        }
    }
}
