//! Finite-sample tail bounds shared by the simulator's statistical
//! suites (`proptests.rs`, `contract.rs`). Each suite uses a subset.
#![allow(dead_code)]

/// `erfc(x)`, Chebyshev fit with fractional error < 1.2e-7 everywhere
/// (Press et al., *Numerical Recipes*, §6.2) — far below the 1e-3 scale
/// of the distances the suites compare.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = -z * z - 1.265_512_23
        + t * (1.000_023_68
            + t * (0.374_091_96
                + t * (0.096_784_18
                    + t * (-0.186_288_06
                        + t * (0.278_868_07
                            + t * (-1.135_203_98
                                + t * (1.488_515_87 + t * (-0.822_152_23 + t * 0.170_872_77))))))));
    let tail = t * poly.exp();
    if x >= 0.0 {
        tail
    } else {
        2.0 - tail
    }
}

/// The standard normal CDF Φ.
pub fn phi(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// P(|Z| > t) for a standard normal Z.
pub fn two_sided_tail(t: f64) -> f64 {
    erfc(t / std::f64::consts::SQRT_2)
}

/// Half-width `d` with P(|S − E S| ≥ d) ≤ α, from Bernstein's
/// inequality `P(|S − E S| ≥ d) ≤ 2·exp(−d² / (2(v + b·d/3)))`, for a
/// sum `S` of independent terms with total variance `v`, each within
/// `b` of its mean.
///
/// The same form bounds a compound Poisson sum with jumps in `[0, b]`
/// when `v` is its variance, the rate times the jumps' second moment
/// (Bennett's inequality, which Bernstein's relaxes); a Poisson count is
/// the case `b = 1`.
pub fn bernstein(v: f64, b: f64, alpha: f64) -> f64 {
    let l = (2.0 / alpha).ln();
    // Positive root of d² − (2lb/3)·d − 2lv = 0.
    let c = b * l / 3.0;
    c + (c * c + 2.0 * l * v).sqrt()
}

/// [`bernstein`] for a Binomial(n, p) count.
pub fn bernstein_half_width(n: f64, p: f64, alpha: f64) -> f64 {
    bernstein(n * p * (1.0 - p), 1.0, alpha)
}
