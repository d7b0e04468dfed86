//! End-to-end disaggregation against simulated ground truth.
//!
//! The paper could not evaluate its appliance-level approaches; the
//! simulator's activation log lets us score the full pipeline here.

use flextract_appliance::{ApplianceSpec, Catalog};
use flextract_disagg::{detect_activations, FrequencyTable, MatchConfig, MinedSchedule};
use flextract_series::segment::DayKind;
use flextract_sim::{simulate_household, HouseholdArchetype, HouseholdConfig};
use flextract_time::{Duration, TimeRange, Timestamp};

fn fortnight() -> TimeRange {
    let start: Timestamp = "2013-03-18".parse().unwrap();
    TimeRange::starting_at(start, Duration::weeks(2)).unwrap()
}

/// Count how many ground-truth activations of shiftable appliances have
/// a matching detection (same appliance within ±15 min).
fn matched_truth(
    truths: &[flextract_sim::Activation],
    detections: &[flextract_disagg::DetectedActivation],
) -> usize {
    truths
        .iter()
        .filter(|t| {
            detections
                .iter()
                .any(|d| d.appliance == t.appliance && (d.start - t.start).as_minutes().abs() <= 15)
        })
        .count()
}

/// Households scored per pooled claim: a contiguous block of seeds
/// starting at the claim's original seed, so no seed is picked.
const SEED_BLOCK: u64 = 16;

#[test]
fn detects_majority_of_big_flexible_loads() {
    // Per-household recall swings with the draw (0.33–0.75 over this
    // block), so the claim is pooled over SEED_BLOCK households.
    let catalog = Catalog::extended();
    let specs: Vec<&ApplianceSpec> = catalog.shiftable();
    // Focus on the big, well-separated loads: washer, dryer, dishwasher.
    let big_names = [
        "Washing Machine from Manufacturer Y",
        "Dishwasher from Manufacturer Z",
        "Tumble Dryer",
    ];
    let (mut hits, mut truths, mut table) = (0, 0, String::new());
    for seed in 2013..2013 + SEED_BLOCK {
        let cfg = HouseholdConfig::new(5, HouseholdArchetype::FamilyWithChildren).with_seed(seed);
        let sim = simulate_household(&cfg, fortnight());
        let (detections, residual) =
            detect_activations(&sim.series, &specs, &MatchConfig::default());
        let big: Vec<_> = sim
            .activations
            .iter()
            .filter(|a| big_names.contains(&a.appliance.as_str()))
            .cloned()
            .collect();
        assert!(
            !big.is_empty(),
            "seed {seed}: the family must have run big appliances"
        );
        let matched = matched_truth(&big, &detections);
        table += &format!("seed {seed}: {matched}/{} truths matched\n", big.len());
        hits += matched;
        truths += big.len();

        // Residual energy must be less than the original (we explained
        // some load) but non-negative.
        assert!(
            residual.total_energy() < sim.series.total_energy(),
            "seed {seed}"
        );
        assert!(residual.values().iter().all(|&v| v >= 0.0), "seed {seed}");
    }
    let recall = hits as f64 / truths as f64;
    println!("{table}pooled recall {recall:.3} ({hits}/{truths})");
    assert!(
        recall >= 0.5,
        "pooled recall {recall:.3} ({hits}/{truths}):\n{table}"
    );
}

#[test]
fn frequency_mining_recovers_rough_rates() {
    let cfg = HouseholdConfig::new(6, HouseholdArchetype::FamilyWithChildren).with_seed(99);
    let sim = simulate_household(&cfg, fortnight());
    let catalog = Catalog::extended();
    let specs: Vec<&ApplianceSpec> = catalog.shiftable();
    let (detections, _) = detect_activations(&sim.series, &specs, &MatchConfig::default());
    let table = FrequencyTable::mine(&detections, 14.0, &catalog);

    // The robot runs ~1.3×/day but draws only ~0.25 kW — comparable to
    // the stochastic base load — so recall is genuinely poor at any
    // resolution (the classic low-power NILM failure mode). We only
    // require that it is detected at all and not wildly over-counted.
    if let Some(row) = table.row("Vacuum Cleaning Robot from Manufacturer X") {
        assert!(
            row.mean_daily_rate > 0.05 && row.mean_daily_rate < 3.0,
            "robot rate {}",
            row.mean_daily_rate
        );
        assert_eq!(row.time_flexibility, Duration::hours(22));
    }
    // The washer (a 2-3 kW load) must be mined at a rate within a
    // factor of ~2.5 of its catalog truth (3/week × 1.3 activity).
    if let Some(row) = table.row("Washing Machine from Manufacturer Y") {
        let truth = 3.0 / 7.0 * 1.3;
        assert!(
            row.mean_daily_rate > truth / 2.5 && row.mean_daily_rate < truth * 2.5,
            "washer rate {} vs truth {truth}",
            row.mean_daily_rate
        );
    }
    // Shortlist is non-empty and only flexible appliances.
    let shortlist = table.shortlist();
    assert!(!shortlist.is_empty());
    for row in shortlist {
        assert!(row.time_flexibility > Duration::ZERO);
    }
}

#[test]
fn schedule_mining_finds_preferred_windows() {
    let cfg = HouseholdConfig::new(7, HouseholdArchetype::Couple).with_seed(7);
    // A long window so histograms have support.
    let range = TimeRange::starting_at(
        "2013-03-18".parse::<Timestamp>().unwrap(),
        Duration::weeks(4),
    )
    .unwrap();
    let sim = simulate_household(&cfg, range);
    let catalog = Catalog::extended();
    let specs: Vec<&ApplianceSpec> = catalog.shiftable();
    let (detections, _) = detect_activations(&sim.series, &specs, &MatchConfig::default());
    let schedules = MinedSchedule::mine_all(&detections, 20.0, 8.0, 60);
    assert!(!schedules.is_empty());

    // The dishwasher's catalog windows are 13:00-14:30 and 19:30-22:00;
    // its mined distribution should put most mass between 12:00 and 23:00.
    if let Some(dw) = schedules
        .iter()
        .find(|s| s.appliance.contains("Dishwasher"))
    {
        let total: f64 = dw.histograms[0].iter().chain(&dw.histograms[1]).sum();
        if total > 0.0 {
            let in_window: f64 = dw.histograms[0][12..23]
                .iter()
                .chain(&dw.histograms[1][12..23])
                .sum();
            assert!(
                in_window / total > 0.7,
                "dishwasher mass inside 12-23h: {}",
                in_window / total
            );
        }
        // Rates derived from slots are consistent with daily_rate.
        let _ = dw.daily_rate(DayKind::All);
    }
}

#[test]
fn disaggregation_quality_collapses_at_15min() {
    // The paper's closing claim: appliance-level extraction needs finer
    // than 15-min data. Score the same households at both resolutions,
    // pooled over SEED_BLOCK of them: a single household can go either
    // way by chance.
    let catalog = Catalog::extended();
    let specs: Vec<&ApplianceSpec> = catalog.shiftable();
    let (mut hits1, mut hits15, mut table) = (0, 0, String::new());
    for seed in 314..314 + SEED_BLOCK {
        let cfg = HouseholdConfig::new(8, HouseholdArchetype::FamilyWithChildren).with_seed(seed);
        let sim = simulate_household(&cfg, fortnight());
        let (d1, _) = detect_activations(&sim.series, &specs, &MatchConfig::default());
        let coarse = sim.series_at(flextract_time::Resolution::MIN_15);
        let (d15, _) = detect_activations(&coarse, &specs, &MatchConfig::default());

        let truths: Vec<_> = sim
            .activations
            .iter()
            .filter(|a| a.shiftable)
            .cloned()
            .collect();
        let (m1, m15) = (matched_truth(&truths, &d1), matched_truth(&truths, &d15));
        table += &format!(
            "seed {seed}: {m1} at 1 min, {m15} at 15 min of {}\n",
            truths.len()
        );
        hits1 += m1;
        hits15 += m15;
    }
    println!("{table}pooled: {hits1} at 1 min, {hits15} at 15 min");
    assert!(
        hits1 >= hits15,
        "1-min should match at least as many truths ({hits1} vs {hits15}):\n{table}"
    );
}
