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
//!
//! The frequency- and schedule-based (§4.1, §4.2) and multi-tariff
//! (§3.3) extractors are held to the time shift only, by whole weeks,
//! so every weekday and every tariff window lines up on both sides.
//! Scaling does not hold for them by design:
//!
//! - the frequency and schedule extractors match the series against
//!   the catalog's absolute power profiles, so a doubled series
//!   matches other cycles, or none;
//! - the schedule extractor also drops a slot whose support is under
//!   30 % of the appliance's nominal cycle energy, an absolute kWh
//!   bound;
//! - the multi-tariff extractor's noise band has an absolute floor of
//!   0.02 kWh per interval, which doubling can cross.

use flextract_appliance::Catalog;
use flextract_core::{
    BasicExtractor, ExtractionConfig, ExtractionInput, ExtractionOutput, FlexibilityExtractor,
    FrequencyBasedExtractor, MultiTariffExtractor, PeakDayReport, PeakExtractor, RandomExtractor,
    ScheduleBasedExtractor,
};
use flextract_flexoffer::FlexOffer;
use flextract_series::TimeSeries;
use flextract_sim::{
    simulate_household, simulate_tariff_pair, HouseholdArchetype, HouseholdConfig, TariffResponse,
};
use flextract_time::{Duration, Resolution, TimeRange, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn week() -> TimeRange {
    TimeRange::starting_at(
        Timestamp::from_ymd_hm(2013, 3, 18, 0, 0).unwrap(),
        Duration::weeks(1),
    )
    .unwrap()
}

/// The eight households: one per seed, archetypes in turn.
fn configs() -> impl Iterator<Item = HouseholdConfig> {
    (0..8_u64).map(|seed| {
        HouseholdConfig::new(seed, HouseholdArchetype::ALL[seed as usize % 4])
            .with_seed(1_000 + seed)
    })
}

/// One simulated week per household at 15 min.
fn households() -> Vec<TimeSeries> {
    configs()
        .map(|cfg| simulate_household(&cfg, week()).series_at(Resolution::MIN_15))
        .collect()
}

fn extractors() -> Vec<PeakExtractor> {
    vec![
        PeakExtractor::new(ExtractionConfig::default()),
        PeakExtractor::new(ExtractionConfig::with_share(0.02)),
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

/// Whole-week shifts: weekdays (and so the day kinds and tariff
/// windows) line up on both sides.
const WEEK_SHIFTS: [i64; 3] = [1, 4, 53];

fn shifted(series: &TimeSeries, shift: Duration) -> TimeSeries {
    with_values(series, series.start() + shift, series.values().to_vec())
}

/// The time-shift relation for an appliance-level extractor (which
/// reads the 1-min series and the catalog next to the 15-min one) built
/// from each of [`period_configs`].
fn check_appliance_shift<E: FlexibilityExtractor>(make: fn(ExtractionConfig) -> E) {
    let catalog = Catalog::extended();
    for (h, cfg) in configs().enumerate() {
        let sim = simulate_household(&cfg, week());
        let market = sim.series_at(Resolution::MIN_15);
        for ex in period_configs().into_iter().map(make) {
            for k in WEEK_SHIFTS {
                let shift = Duration::weeks(k);
                let (fine_b, market_b) = (shifted(&sim.series, shift), shifted(&market, shift));
                let run_on = |fine: &TimeSeries, market: &TimeSeries| {
                    let input = ExtractionInput::household(market)
                        .with_fine_series(fine)
                        .with_catalog(&catalog);
                    ex.extract(&input, &mut StdRng::seed_from_u64(40 + h as u64))
                        .unwrap()
                };
                let a = run_on(&sim.series, &market);
                let b = run_on(&fine_b, &market_b);
                let what = format!("{}, household {h}, {k} week(s)", ex.name());
                assert_outputs_shifted(&a, &b, shift, &what);
                assert_eq!(a.diagnostics.shortlist, b.diagnostics.shortlist, "{what}");
            }
        }
    }
}

#[test]
fn frequency_shifting_the_input_by_whole_weeks_shifts_the_offers() {
    check_appliance_shift(FrequencyBasedExtractor::new);
}

#[test]
fn schedule_shifting_the_input_by_whole_weeks_shifts_the_offers() {
    check_appliance_shift(ScheduleBasedExtractor::new);
}

#[test]
fn multi_tariff_shifting_both_inputs_by_whole_weeks_shifts_the_offers() {
    let observed = week();
    let reference =
        TimeRange::starting_at(observed.start() - Duration::weeks(2), Duration::weeks(2)).unwrap();
    for (h, cfg) in configs().enumerate() {
        let (flat, multi) =
            simulate_tariff_pair(&cfg, reference, observed, TariffResponse::overnight(0.85));
        let (reference_a, observed_a) = (
            flat.series_at(Resolution::MIN_15),
            multi.series_at(Resolution::MIN_15),
        );
        for ex in period_configs().into_iter().map(MultiTariffExtractor::new) {
            for k in WEEK_SHIFTS {
                let shift = Duration::weeks(k);
                let (reference_b, observed_b) =
                    (shifted(&reference_a, shift), shifted(&observed_a, shift));
                let run_on = |reference: &TimeSeries, observed: &TimeSeries| {
                    let input = ExtractionInput::household(observed).with_reference(reference);
                    ex.extract(&input, &mut StdRng::seed_from_u64(40 + h as u64))
                        .unwrap()
                };
                let a = run_on(&reference_a, &observed_a);
                let b = run_on(&reference_b, &observed_b);
                let what = format!("multi-tariff, household {h}, {k} week(s)");
                assert_outputs_shifted(&a, &b, shift, &what);
                assert_eq!(a.diagnostics.notes, b.diagnostics.notes, "{what}");
            }
        }
    }
}
