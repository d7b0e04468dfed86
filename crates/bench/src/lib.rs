//! # flextract-bench
//!
//! Benchmark harness and the per-figure/table binaries.
//!
//! [`sample`] is the one timing loop: every row of the micro benches
//! and of `bench_pipeline` (which writes `BENCH_pipeline.json`) is a
//! [`sample::Sample`] — min, median, interquartile spread and a tail
//! percentile over batches sized to a fixed time budget.
//!
//! Binaries (each regenerates one artefact of the paper; the
//! evaluation's studies run as scenarios, see README's "Figure
//! binaries"):
//!
//! | binary | artefact |
//! |--------|----------|
//! | `fig1_flexoffer` | Figure 1 — the EV flex-offer anatomy |
//! | `fig4_basic` | Figure 4 — basic extraction over one day |
//! | `fig5_peak` | Figure 5 — the peak-based walk-through (exact numbers) |
//! | `table1_appliances` | Table 1 — the appliance catalog |
//!
//! Micro benches (`cargo bench -p flextract-bench`), one row per
//! `group/function/parameter` label: `bench_series`,
//! `bench_extractors`, `bench_disagg`, `bench_agg`, `bench_sim`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sample;

use flextract_series::TimeSeries;
use flextract_sim::{simulate_household, HouseholdArchetype, HouseholdConfig};
use flextract_time::{Duration, Resolution, TimeRange, Timestamp};

/// The canonical start date: Monday of the EDBT/ICDT 2013 workshop
/// week.
pub fn epoch() -> Timestamp {
    Timestamp::from_ymd_hm(2013, 3, 18, 0, 0).expect("static date")
}

/// A horizon of `days` starting at [`epoch`].
pub fn horizon(days: i64) -> TimeRange {
    TimeRange::starting_at(epoch(), Duration::days(days)).expect("days >= 0")
}

/// A deterministic simulated family household at 15-min granularity —
/// the standard benchmark input.
pub fn family_market_series(days: i64, seed: u64) -> TimeSeries {
    let cfg = HouseholdConfig::new(seed, HouseholdArchetype::FamilyWithChildren).with_seed(seed);
    simulate_household(&cfg, horizon(days)).series_at(Resolution::MIN_15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_produce_market_granularity() {
        let s = family_market_series(2, 1);
        assert_eq!(s.len(), 2 * 96);
        assert_eq!(s.resolution(), Resolution::MIN_15);
        assert!(s.total_energy() > 0.0);
        assert_eq!(horizon(2).duration(), Duration::days(2));
    }
}
