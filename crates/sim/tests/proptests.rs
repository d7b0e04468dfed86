//! Distribution checks for the simulator's normal sampler.
//!
//! Every stochastic curve the simulator draws (OU base load, wind,
//! measurement noise) goes through `randomness::standard_normal`, so a
//! sampler that is subtly off — a wrong tail, a biased sign, a layer
//! table with a typo — skews every simulated fleet without failing any
//! golden. These checks compare draws against Φ directly:
//!
//! 1. **One fixed seed, 10⁶ draws** — mean, second moment,
//!    Kolmogorov–Smirnov distance to Φ, tail frequencies beyond 3σ,
//!    4σ and the ziggurat's base-layer edge r ≈ 3.654 (so the tail
//!    branch is exercised), and sign symmetry. Each statistic is tested
//!    at α = 1 %; for KS that is the critical value D < 0.001628.
//! 2. **Rotating seeds, 10⁵ draws per case** — the same screen at a
//!    per-statistic α of 1e-6 / (1 024 cases × 5 statistics), so a
//!    correct sampler fails one of CI's 1 024 rotating cases less than
//!    once in 10⁶ runs.
//!
//! 3. **Rotating seeds against the loop-form oracle** — the production
//!    sampler splits its fast path from the wedge and tail branches;
//!    `src/randomness/oracle.rs` keeps the single-loop form, and every
//!    case checks that both return the same bits through
//!    `standard_normal`, `normal`, `clamped_normal` and `ou_step` and
//!    leave the generator in the same state.
//!
//! Every bound is a finite-sample inequality, not an asymptotic
//! approximation, so the stated α is an upper bound on the flake rate:
//! the sample mean of normals is exactly normal (Gaussian tail bound);
//! the sum of squares is χ²ₙ (Laurent & Massart, Ann. Stat. 2000);
//! KS uses the Dvoretzky–Kiefer–Wolfowitz inequality with Massart's
//! constant; counts use Bernstein's inequality.

use bounds::{bernstein_half_width, phi, two_sided_tail};
use flextract_sim::randomness::{clamped_normal, normal, ou_step, standard_normal};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

mod bounds;
#[path = "../src/randomness/oracle.rs"]
mod oracle;
#[path = "../src/randomness/tables.rs"]
mod tables;

/// The ziggurat's base-layer edge: draws beyond it come from the tail
/// branch.
const ZIGGURAT_R: f64 = 3.654_152_885_361_009;
/// The area of each ziggurat layer under `exp(-x²/2)`.
const ZIGGURAT_V: f64 = 0.004_928_673_233_99;

/// Rotating cases CI runs (`PROPTEST_CASES=1024`).
const ROTATING_CASES: f64 = 1024.0;
/// Statistics tested in each rotating case.
const ROTATING_STATISTICS: f64 = 5.0;
/// Tolerated probability that any of CI's rotating cases flakes.
const ROTATING_FLAKE_RATE: f64 = 1e-6;

/// What one screen measured.
struct Screen {
    n: usize,
    mean: f64,
    second_moment: f64,
    ks_d: f64,
    ks_critical: f64,
    positive_share: f64,
    /// `(threshold, observed frequency, expected frequency)` of |x| > t.
    tails: Vec<(f64, f64, f64)>,
}

impl std::fmt::Display for Screen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n {}: mean {:.6}, E[x²] {:.6}, KS D {:.6} (critical {:.6}), positive {:.6}",
            self.n, self.mean, self.second_moment, self.ks_d, self.ks_critical, self.positive_share
        )?;
        for (t, observed, expected) in &self.tails {
            write!(f, ", |x|>{t:.3} {observed:.3e} (expected {expected:.3e})")?;
        }
        Ok(())
    }
}

/// Draw `n` values from `seed` and test them against N(0, 1), every
/// statistic at level `alpha`. `tails` names the |x| thresholds whose
/// frequencies are checked. One pass, no sort: an unoptimised test
/// build runs CI's 1 024 rotating cases in seconds.
fn screen(seed: u64, n: usize, alpha: f64, tails: &[f64]) -> Result<Screen, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut sum, mut sum_sq, mut positives) = (0.0, 0.0, 0usize);
    let mut beyond = vec![0usize; tails.len()];
    // KS is read at n equiprobable points of Φ by binning draws on Φ(x).
    let mut bins = vec![0u32; n];
    for _ in 0..n {
        let x = standard_normal(&mut rng);
        sum += x;
        sum_sq += x * x;
        positives += usize::from(x > 0.0);
        for (count, &t) in beyond.iter_mut().zip(tails) {
            *count += usize::from(x.abs() > t);
        }
        bins[((phi(x) * n as f64) as usize).min(n - 1)] += 1;
    }

    let nf = n as f64;
    let l = (2.0 / alpha).ln();
    let mut failures = Vec::new();

    // Mean of n standard normals is N(0, 1/n): P(|Z| > t) ≤ 2·exp(−t²/2).
    let mean = sum / nf;
    let mean_bound = (2.0 * l / nf).sqrt();
    if mean.abs() > mean_bound {
        failures.push(format!("mean {mean:.6} outside ±{mean_bound:.6}"));
    }

    // Σx² is χ²ₙ; Laurent–Massart with x = ln(2/α) on each side.
    let (lo, hi) = (
        nf - 2.0 * (nf * l).sqrt(),
        nf + 2.0 * (nf * l).sqrt() + 2.0 * l,
    );
    if !(lo..=hi).contains(&sum_sq) {
        failures.push(format!(
            "second moment {:.6} outside [{:.6}, {:.6}]",
            sum_sq / nf,
            lo / nf,
            hi / nf
        ));
    }

    // Sign symmetry: positives are Binomial(n, 1/2).
    let sign_bound = bernstein_half_width(nf, 0.5, alpha);
    if (positives as f64 - nf / 2.0).abs() > sign_bound {
        failures.push(format!(
            "{positives} positives of {n}: more than {sign_bound:.1} from n/2"
        ));
    }

    let mut tail_rows = Vec::new();
    for (&t, &count) in tails.iter().zip(&beyond) {
        let p = two_sided_tail(t);
        let bound = bernstein_half_width(nf, p, alpha);
        if (count as f64 - nf * p).abs() > bound {
            failures.push(format!(
                "{count} draws beyond ±{t}: expected {:.1} ± {bound:.1}",
                nf * p
            ));
        }
        tail_rows.push((t, count as f64 / nf, p));
    }

    // KS distance to Φ; DKW–Massart: P(D > ε) ≤ 2·exp(−2nε²). Reading D
    // only at the bin edges gives a lower bound on the exact D (so α
    // still bounds the flake rate), short of it by one bin's width plus
    // one bin's share of the draws: ~1e-5, against critical values of
    // 1.6e-3 and more.
    let mut below = 0.0;
    let mut ks_d: f64 = 0.0;
    for (k, &count) in bins.iter().enumerate() {
        ks_d = ks_d.max((below - k as f64).abs() / nf);
        below += f64::from(count);
    }
    let ks_critical = (l / (2.0 * nf)).sqrt();
    if ks_d >= ks_critical {
        failures.push(format!("KS D {ks_d:.6} ≥ critical {ks_critical:.6}"));
    }

    let report = Screen {
        n,
        mean,
        second_moment: sum_sq / nf,
        ks_d,
        ks_critical,
        positive_share: positives as f64 / nf,
        tails: tail_rows,
    };
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(format!("{}\n{report}", failures.join("\n")))
    }
}

#[test]
fn reference_values_of_phi() {
    // Tabulated Φ, to the Chebyshev fit's accuracy.
    for (x, want) in [
        (0.0, 0.5),
        (1.0, 0.841_344_746_068_543),
        (1.96, 0.975_002_104_851_780),
        (-3.0, 0.001_349_898_031_630),
        (4.0, 0.999_968_328_758_167),
    ] {
        assert!(
            (phi(x) - want).abs() < 1e-7,
            "Φ({x}) = {} vs {want}",
            phi(x)
        );
    }
    // The base layer (area v) is the rectangle r·f(r) plus the tail
    // beyond r, so r and v alone fix how often the tail branch runs:
    // ~2.58e-4 of all draws.
    let r = ZIGGURAT_R;
    let tail = 2.0 * (ZIGGURAT_V - r * (-0.5 * r * r).exp()) / (2.0 * std::f64::consts::PI).sqrt();
    assert!(
        (two_sided_tail(r) - tail).abs() < 1e-9,
        "{} vs {tail}",
        two_sided_tail(r)
    );
}

#[test]
fn fixed_seed_million_draws_match_the_standard_normal() {
    // α = 1 % per statistic; the KS critical value is
    // sqrt(ln(200) / 2e6) = 0.001628.
    let report = screen(7, 1_000_000, 0.01, &[3.0, ZIGGURAT_R, 4.0])
        .unwrap_or_else(|e| panic!("seed 7 fails the normal screen:\n{e}"));
    assert!((report.ks_critical - 0.001_628).abs() < 1e-6);
    println!("{report}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn rotating_seed_draws_match_the_standard_normal(seed in any::<u64>()) {
        let alpha = ROTATING_FLAKE_RATE / (ROTATING_CASES * ROTATING_STATISTICS);
        let result = screen(seed, 100_000, alpha, &[3.0]);
        prop_assert!(result.is_ok(), "seed {seed}: {}", result.err().unwrap_or_default());
    }

    #[test]
    fn rotating_seed_draws_match_the_loop_form_oracle(seed in any::<u64>()) {
        let mut branches = oracle::Branches::default();
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = a.clone();
        let (mut level_a, mut level_b) = (1.0, 1.0);
        for k in 0..20_000u32 {
            let (x, y) = match k % 4 {
                0 => (standard_normal(&mut a), oracle::standard_normal(&mut b, &mut branches)),
                1 => (normal(&mut a, -2.0, 0.3), oracle::normal(&mut b, -2.0, 0.3, &mut branches)),
                2 => (
                    clamped_normal(&mut a, 0.5, 0.2, 0.0, 1.0),
                    oracle::clamped_normal(&mut b, 0.5, 0.2, 0.0, 1.0, &mut branches),
                ),
                _ => {
                    level_a = ou_step(&mut a, level_a, 1.0, 0.02, 0.05);
                    level_b = oracle::ou_step(&mut b, level_b, 1.0, 0.02, 0.05, &mut branches);
                    (level_a, level_b)
                }
            };
            prop_assert!(x.to_bits() == y.to_bits(), "seed {seed}, draw {k}: {x} vs {y}");
        }
        prop_assert!(a.next_u64() == b.next_u64(), "seed {seed}: generator state differs");
        // ~1.2 % of draws test the wedge, so 20 000 always reach it.
        prop_assert!(branches.wedge > 0, "seed {seed}: {branches:?}");
    }
}
