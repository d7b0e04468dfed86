//! Metamorphic relations for the basic (paper §3.1), peak-based (§3.2)
//! and random baseline (§1) extractors, over seeded simulated households
//! at the 15-min market resolution. Both sides of a relation draw from
//! the same per-household seed.
//!
//! Each relation transforms the input in a way whose effect on the
//! output is known exactly, and checks the output bit for bit:
//!
//! - **Time shift.** The same values starting `k` whole days later give
//!   the same offers with every timestamp `k` days later, bit-identical
//!   series values, and (for the peak extractor) peak reports equal up
//!   to that shift.
//! - **Scaling.** Doubling every value doubles every slice bound, every
//!   extracted value and every modified value. Multiplying by 2 is
//!   exact in binary floating point, so the selection (which compares
//!   and divides) is unchanged and every product, quotient of doubled
//!   terms and difference doubles exactly.
//!
//! The basic and random extractors' diagnostics are not compared: the
//! basic extractor's capping note tests `shortfall > 1e-9`, an absolute
//! bound that doubling can cross.

use flextract_core::{
    BasicExtractor, ExtractionConfig, ExtractionInput, ExtractionOutput, FlexibilityExtractor,
    PeakDayReport, PeakExtractor, RandomExtractor,
};
use flextract_flexoffer::FlexOffer;
use flextract_series::{PeakThreshold, TimeSeries};
use flextract_sim::{simulate_household, HouseholdArchetype, HouseholdConfig};
use flextract_time::{Duration, Resolution, TimeRange, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One simulated week per seed, archetypes in turn, at 15 min.
fn households() -> Vec<TimeSeries> {
    let week = TimeRange::starting_at(
        Timestamp::from_ymd_hm(2013, 3, 18, 0, 0).unwrap(),
        Duration::weeks(1),
    )
    .unwrap();
    let archetypes = [
        HouseholdArchetype::SingleResident,
        HouseholdArchetype::Couple,
        HouseholdArchetype::FamilyWithChildren,
        HouseholdArchetype::SuburbanWithEv,
    ];
    (0..8_u64)
        .map(|seed| {
            let cfg = HouseholdConfig::new(seed, archetypes[seed as usize % archetypes.len()])
                .with_seed(1_000 + seed);
            simulate_household(&cfg, week).series_at(Resolution::MIN_15)
        })
        .collect()
}

fn extractors() -> Vec<PeakExtractor> {
    vec![
        PeakExtractor::new(ExtractionConfig::default()),
        PeakExtractor::new(ExtractionConfig::with_share(0.02)),
        PeakExtractor::with_threshold(ExtractionConfig::default(), PeakThreshold::Median),
    ]
}

/// The three configurations the basic and random extractors run at.
fn period_configs() -> Vec<ExtractionConfig> {
    vec![
        ExtractionConfig::default(),
        ExtractionConfig::with_share(0.02),
        ExtractionConfig {
            period: Duration::hours(4),
            ..ExtractionConfig::with_share(0.065)
        },
    ]
}

fn run(ex: &impl FlexibilityExtractor, series: &TimeSeries, seed: u64) -> ExtractionOutput {
    ex.extract(
        &ExtractionInput::household(series),
        &mut StdRng::seed_from_u64(seed),
    )
    .unwrap()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn with_values(series: &TimeSeries, start: Timestamp, values: Vec<f64>) -> TimeSeries {
    TimeSeries::new(start, series.resolution(), values).unwrap()
}

/// `b` is `a` with every instant `shift` later.
fn assert_offer_shifted(a: &FlexOffer, b: &FlexOffer, shift: Duration, what: &str) {
    assert_eq!(a.id(), b.id(), "{what}");
    assert_eq!(a.profile(), b.profile(), "{what}");
    assert_eq!(a.earliest_start() + shift, b.earliest_start(), "{what}");
    assert_eq!(a.latest_start() + shift, b.latest_start(), "{what}");
    assert_eq!(a.creation_time() + shift, b.creation_time(), "{what}");
    assert_eq!(
        a.acceptance_deadline() + shift,
        b.acceptance_deadline(),
        "{what}"
    );
    assert_eq!(
        a.assignment_deadline() + shift,
        b.assignment_deadline(),
        "{what}"
    );
}

/// `b`'s offers and series are `a`'s with every instant `shift` later
/// and every value bit-identical.
fn assert_outputs_shifted(a: &ExtractionOutput, b: &ExtractionOutput, shift: Duration, what: &str) {
    assert!(!a.flex_offers.is_empty(), "{what}: no offer to compare");
    assert_eq!(a.flex_offers.len(), b.flex_offers.len(), "{what}");
    for (oa, ob) in a.flex_offers.iter().zip(&b.flex_offers) {
        assert_offer_shifted(oa, ob, shift, what);
    }
    for (sa, sb) in [
        (&a.modified_series, &b.modified_series),
        (&a.extracted_series, &b.extracted_series),
    ] {
        assert_eq!(sa.start() + shift, sb.start(), "{what}");
        assert_eq!(bits(sa.values()), bits(sb.values()), "{what}");
    }
}

fn twice(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|v| v * 2.0).collect()
}

/// `b`'s offers and series are `a`'s with every slice bound and every
/// value doubled bit for bit, and the same slice counts and start
/// windows.
fn assert_outputs_doubled(a: &ExtractionOutput, b: &ExtractionOutput, what: &str) {
    assert!(!a.flex_offers.is_empty(), "{what}: no offer to compare");
    assert_eq!(a.flex_offers.len(), b.flex_offers.len(), "{what}");
    for (oa, ob) in a.flex_offers.iter().zip(&b.flex_offers) {
        assert_eq!(oa.id(), ob.id(), "{what}");
        assert_eq!(oa.earliest_start(), ob.earliest_start(), "{what}");
        assert_eq!(oa.latest_start(), ob.latest_start(), "{what}");
        let (pa, pb) = (oa.profile(), ob.profile());
        assert_eq!(pa.resolution(), pb.resolution(), "{what}");
        assert_eq!(pa.len(), pb.len(), "{what}");
        for (sa, sb) in pa.slices().iter().zip(pb.slices()) {
            assert_eq!((sa.min * 2.0).to_bits(), sb.min.to_bits(), "{what}");
            assert_eq!((sa.max * 2.0).to_bits(), sb.max.to_bits(), "{what}");
        }
    }
    for (sa, sb) in [
        (&a.modified_series, &b.modified_series),
        (&a.extracted_series, &b.extracted_series),
    ] {
        assert_eq!(sa.start(), sb.start(), "{what}");
        assert_eq!(bits(&twice(sa.values())), bits(sb.values()), "{what}");
    }
}

/// `report` with its day and every peak start moved by `shift`.
fn shifted_report(report: &PeakDayReport, shift: Duration) -> PeakDayReport {
    let mut out = report.clone();
    out.day += shift;
    for p in &mut out.peaks {
        p.start += shift;
    }
    out
}

#[test]
fn shifting_the_input_by_whole_days_shifts_the_offers() {
    for (h, series) in households().iter().enumerate() {
        for ex in extractors() {
            for k in [1_i64, 5, 28] {
                let shift = Duration::days(k);
                let what = format!("household {h}, {k} day(s), {:?}", ex.config());
                let moved = with_values(series, series.start() + shift, series.values().to_vec());
                let a = run(&ex, series, 40 + h as u64);
                let b = run(&ex, &moved, 40 + h as u64);

                assert_outputs_shifted(&a, &b, shift, &what);
                let expected: Vec<PeakDayReport> = a
                    .diagnostics
                    .peak_reports
                    .iter()
                    .map(|r| shifted_report(r, shift))
                    .collect();
                assert_eq!(expected, b.diagnostics.peak_reports, "{what}");
                assert_eq!(
                    a.diagnostics.notes.len(),
                    b.diagnostics.notes.len(),
                    "{what}"
                );
            }
        }
    }
}

#[test]
fn doubling_the_input_doubles_every_energy_bit_for_bit() {
    for (h, series) in households().iter().enumerate() {
        for ex in extractors() {
            let what = format!("household {h}, {:?}", ex.config());
            let doubled = with_values(series, series.start(), twice(series.values()));
            let a = run(&ex, series, 70 + h as u64);
            let b = run(&ex, &doubled, 70 + h as u64);

            assert_outputs_doubled(&a, &b, &what);
            assert_eq!(
                a.diagnostics.peak_reports.len(),
                b.diagnostics.peak_reports.len(),
                "{what}"
            );
            for (ra, rb) in a
                .diagnostics
                .peak_reports
                .iter()
                .zip(&b.diagnostics.peak_reports)
            {
                let mut expected = ra.clone();
                expected.day_total_kwh *= 2.0;
                expected.threshold_kwh *= 2.0;
                expected.min_peak_energy_kwh *= 2.0;
                for p in &mut expected.peaks {
                    p.size_kwh *= 2.0;
                }
                assert_eq!(&expected, rb, "{what}");
            }
        }
    }
}

/// The time-shift relation for an extractor built from each of
/// [`period_configs`].
fn check_shift<E: FlexibilityExtractor>(make: fn(ExtractionConfig) -> E) {
    for (h, series) in households().iter().enumerate() {
        for cfg in period_configs() {
            let what = format!("household {h}, {cfg:?}");
            let ex = make(cfg);
            for k in [1_i64, 5, 28] {
                let shift = Duration::days(k);
                let moved = with_values(series, series.start() + shift, series.values().to_vec());
                let a = run(&ex, series, 40 + h as u64);
                let b = run(&ex, &moved, 40 + h as u64);
                let what = format!("{}, {what}, {k} day(s)", ex.name());
                assert_outputs_shifted(&a, &b, shift, &what);
            }
        }
    }
}

/// The ×2 scaling relation for an extractor built from each of
/// [`period_configs`].
fn check_doubling<E: FlexibilityExtractor>(make: fn(ExtractionConfig) -> E) {
    for (h, series) in households().iter().enumerate() {
        for cfg in period_configs() {
            let what = format!("household {h}, {cfg:?}");
            let ex = make(cfg);
            let doubled = with_values(series, series.start(), twice(series.values()));
            let a = run(&ex, series, 70 + h as u64);
            let b = run(&ex, &doubled, 70 + h as u64);
            assert_outputs_doubled(&a, &b, &format!("{}, {what}", ex.name()));
        }
    }
}

#[test]
fn basic_shifting_the_input_by_whole_days_shifts_the_offers() {
    check_shift(BasicExtractor::new);
}

#[test]
fn basic_doubling_the_input_doubles_every_energy_bit_for_bit() {
    check_doubling(BasicExtractor::new);
}

#[test]
fn random_shifting_the_input_by_whole_days_shifts_the_offers() {
    check_shift(RandomExtractor::new);
}

#[test]
fn random_doubling_the_input_doubles_every_energy_bit_for_bit() {
    check_doubling(RandomExtractor::new);
}
