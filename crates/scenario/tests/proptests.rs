//! Property tests for the scenario pipeline.
//!
//! Invariants over randomly drawn (small) valid scenarios:
//!
//! 1. **Energy conservation** — the extraction can never call more
//!    energy flexible than the workload actually consumed, and the
//!    offers' own profiles stay consistent with what was extracted.
//! 2. **Reproducibility** — the same spec (same seed) always yields a
//!    byte-identical serialized report, which is the property the
//!    golden-file suite rests on.
//! 3. **Merge determinism** — the sharded consumer fan-out delivers
//!    per-consumer rows in strict index order no matter how the
//!    scheduler interleaves worker completion, and a sharded scenario
//!    run serializes identically to a serial one.

use flextract_scenario::{AggregationPolicy, ExtractorChoice, Scenario, ScenarioRunner, Workload};
use flextract_sim::HouseholdArchetype;
use proptest::prelude::*;

fn arb_extractor() -> impl Strategy<Value = ExtractorChoice> {
    prop_oneof![
        Just(ExtractorChoice::Random),
        Just(ExtractorChoice::Basic),
        Just(ExtractorChoice::Peak),
    ]
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    prop_oneof![
        (1_usize..4, 0_u8..4).prop_map(|(households, arch)| {
            let archetype = match arch {
                0 => HouseholdArchetype::SingleResident,
                1 => HouseholdArchetype::Couple,
                2 => HouseholdArchetype::FamilyWithChildren,
                _ => HouseholdArchetype::SuburbanWithEv,
            };
            Workload::Households {
                households,
                archetype_mix: vec![(archetype, 1.0)],
                tariff_sensitivity: 0.0,
            }
        }),
        (1_usize..3).prop_map(|sites| Workload::Industrial {
            sites,
            pattern: flextract_sim::ShiftPattern::TwoShift,
        }),
    ]
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            arb_workload(),
            1_i64..3,                                // days
            prop_oneof![Just(15_i64), Just(60_i64)], // resolution
        ),
        (
            arb_extractor(),
            0.005_f64..0.1, // flexible share
            prop_oneof![
                Just(AggregationPolicy::None),
                Just(AggregationPolicy::Aggregate)
            ],
            proptest::arbitrary::any::<u64>(), // seed
        ),
    )
        .prop_map(
            |((workload, days, resolution_min), (extractor, share, aggregation, seed))| Scenario {
                name: "prop_case".into(),
                description: "property-generated scenario".into(),
                workload,
                start: "2013-03-18".into(),
                days,
                resolution_min,
                extractor,
                flexible_share: share,
                aggregation,
                res_capacity_share: 0.0,
                seed,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn extracted_energy_stays_within_the_simulated_total(s in arb_scenario()) {
        let outcome = ScenarioRunner::default().run(&s).unwrap();
        let r = &outcome.report;
        prop_assert!(r.total_energy_kwh > 0.0, "workloads consume energy");
        prop_assert!(
            r.extracted_kwh <= r.total_energy_kwh + 1e-6,
            "extracted {} kWh out of only {} kWh simulated",
            r.extracted_kwh,
            r.total_energy_kwh
        );
        prop_assert!(r.achieved_share <= 1.0 + 1e-9);
        // The offers' summed minimum-energy profiles bracket the
        // extracted series from below (min fraction < 1), so they must
        // also stay within the simulated total.
        let offer_min_sum: f64 = outcome
            .offers
            .iter()
            .map(|o| o.total_energy().min)
            .sum();
        prop_assert!(
            offer_min_sum <= r.total_energy_kwh + 1e-6,
            "offers promise at least {} kWh but only {} kWh was simulated",
            offer_min_sum,
            r.total_energy_kwh
        );
        prop_assert_eq!(outcome.offers.len(), r.offers);
        // Peak accounting: extraction only removes energy.
        prop_assert!(r.peak_after_kwh <= r.peak_before_kwh + 1e-9);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&r.precision));
        prop_assert!((0.0..=1.0 + 1e-9).contains(&r.recall));
    }

    #[test]
    fn identical_seeds_yield_byte_identical_reports(s in arb_scenario()) {
        let runner = ScenarioRunner::default();
        let a = runner.run(&s).unwrap();
        let b = runner.run(&s).unwrap();
        let ja = serde_json::to_string(&a.report).unwrap();
        let jb = serde_json::to_string(&b.report).unwrap();
        prop_assert_eq!(ja.into_bytes(), jb.into_bytes());
    }

    #[test]
    fn sharded_runs_serialize_identically_to_serial(s in arb_scenario(), threads in 2_usize..8) {
        let serial = ScenarioRunner::default().run(&s).unwrap();
        let sharded = ScenarioRunner::default()
            .with_consumer_threads(threads)
            .run(&s)
            .unwrap();
        let js = serde_json::to_string(&serial.report).unwrap();
        let jp = serde_json::to_string(&sharded.report).unwrap();
        prop_assert_eq!(js.into_bytes(), jp.into_bytes());
        prop_assert_eq!(serial.offers, sharded.offers);
    }

    #[test]
    fn shard_merge_never_reorders_rows(
        n in 1_usize..120,
        threads in 1_usize..9,
        delays in proptest::collection::vec(0_u64..4, 120),
    ) {
        // The merge primitive itself: workers complete in a
        // scheduler-scrambled order (forced by per-item busy delays),
        // yet the consumer must observe row 0, 1, 2, … exactly once
        // each, in order, with the row contents untouched.
        let mut rows: Vec<(usize, u64)> = Vec::new();
        flextract_series::shard::ordered_parallel_map(
            n,
            threads,
            |i| {
                std::thread::sleep(std::time::Duration::from_micros(delays[i] * 40));
                Ok::<u64, ()>((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            },
            |i, v| {
                rows.push((i, v));
                Ok(())
            },
        )
        .unwrap();
        let expect: Vec<(usize, u64)> = (0..n)
            .map(|i| (i, (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        prop_assert_eq!(rows, expect);
    }
}
