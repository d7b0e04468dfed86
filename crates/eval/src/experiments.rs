//! Experiment runners E5–E10 (README's "Figure and experiment binaries"
//! lists the binary that runs each).
//!
//! Each runner takes an [`ExperimentParams`] so integration tests can
//! run it small and the `flextract-bench` binaries can run it at paper
//! scale, and returns a result struct with a `render()` text table.

use crate::accuracy::GroundTruthScore;
use crate::realism::RealismReport;
use flextract_agg::{aggregate_offers, schedule_offers, AggregationConfig, ScheduleConfig};
use flextract_appliance::Catalog;
use flextract_core::{
    BasicExtractor, ExtractionConfig, ExtractionInput, ExtractionOutput, FlexibilityExtractor,
    FrequencyBasedExtractor, MultiTariffExtractor, PeakExtractor, RandomExtractor,
    ScheduleBasedExtractor,
};
use flextract_disagg::{detect_activations, MatchConfig};
use flextract_flexoffer::FlexOffer;
use flextract_series::{resample, TimeSeries};
use flextract_sim::{
    simulate_fleet, simulate_tariff_pair, simulate_wind_production, FleetConfig,
    HouseholdArchetype, HouseholdConfig, SimulatedHousehold, TariffResponse, WindFarmConfig,
};
use flextract_time::{Duration, Resolution, TimeRange, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Common sizing knobs for every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentParams {
    /// Number of simulated households.
    pub households: usize,
    /// Number of simulated days.
    pub days: i64,
    /// Base RNG seed (simulation and extraction derive from it).
    pub seed: u64,
}

impl Default for ExperimentParams {
    fn default() -> Self {
        ExperimentParams {
            households: 10,
            days: 14,
            seed: 2013,
        }
    }
}

impl ExperimentParams {
    /// The simulated horizon, starting Monday 2013-03-18 (the EDBT'13
    /// week).
    ///
    /// # Errors
    /// A negative `days`, or one whose horizon ends past the last
    /// representable minute, is refused with a message naming it.
    pub fn horizon(&self) -> Result<TimeRange, String> {
        let start: Timestamp = Timestamp::from_ymd_hm(2013, 3, 18, 0, 0).expect("static date");
        let end = start.checked_add_days(self.days).ok_or_else(|| {
            format!(
                "days {}: the horizon ends past the last representable minute",
                self.days
            )
        })?;
        TimeRange::new(start, end).map_err(|e| format!("days {}: {e}", self.days))
    }

    fn fleet(&self) -> FleetConfig {
        FleetConfig {
            households: self.households,
            base_seed: self.seed,
            threads: 4,
            ..FleetConfig::default()
        }
    }
}

// ---------------------------------------------------------------- E5

/// One row of the share sweep: the configured share against what each
/// household-level approach actually extracted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShareSweepRow {
    /// Configured flexible share.
    pub share: f64,
    /// Achieved share per approach: (random, basic, peak).
    pub achieved: (f64, f64, f64),
    /// Offers per household-day per approach.
    pub offers_per_day: (f64, f64, f64),
}

/// E5: sweep the flexible-share parameter over the MIRACLE 0.1–6.5 %
/// range (§1 ref \[7\]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShareSweep {
    /// Parameters used.
    pub params: ExperimentParams,
    /// One row per configured share.
    pub rows: Vec<ShareSweepRow>,
}

/// Run E5; fails only where [`ExperimentParams::horizon`] does.
pub fn share_sweep(shares: &[f64], params: ExperimentParams) -> Result<ShareSweep, String> {
    let horizon = params.horizon()?;
    let fleet = simulate_fleet(&params.fleet(), horizon);
    let mut rows = Vec::with_capacity(shares.len());
    for &share in shares {
        let cfg = ExtractionConfig::with_share(share);
        let extractors: [&dyn FlexibilityExtractor; 3] = [
            &RandomExtractor::new(cfg.clone()),
            &BasicExtractor::new(cfg.clone()),
            &PeakExtractor::new(cfg.clone()),
        ];
        let mut achieved = [0.0; 3];
        let mut offers = [0.0; 3];
        let mut total_energy = 0.0;
        for h in &fleet.households {
            let market = h.series_at(Resolution::MIN_15);
            total_energy += market.total_energy();
            for (k, ex) in extractors.iter().enumerate() {
                let out = ex
                    .extract(
                        &ExtractionInput::household(&market),
                        &mut StdRng::seed_from_u64(params.seed ^ (k as u64) << 32 ^ h.config.id),
                    )
                    .expect("household extraction cannot fail on simulated data");
                achieved[k] += out.extracted_energy();
                offers[k] += out.flex_offers.len() as f64;
            }
        }
        let hd = (params.households as f64 * params.days as f64).max(1.0);
        rows.push(ShareSweepRow {
            share,
            achieved: (
                achieved[0] / total_energy,
                achieved[1] / total_energy,
                achieved[2] / total_energy,
            ),
            offers_per_day: (offers[0] / hd, offers[1] / hd, offers[2] / hd),
        });
    }
    Ok(ShareSweep { params, rows })
}

impl ShareSweep {
    /// Aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "E5: flexible-share sweep (achieved share % / offers per household-day)\n",
        );
        out.push_str(&format!(
            "{:>8} | {:>16} | {:>16} | {:>16}\n",
            "share%", "random", "basic", "peak"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:>8.2} | {:>8.2} {:>7.2} | {:>8.2} {:>7.2} | {:>8.2} {:>7.2}\n",
                r.share * 100.0,
                r.achieved.0 * 100.0,
                r.offers_per_day.0,
                r.achieved.1 * 100.0,
                r.offers_per_day.1,
                r.achieved.2 * 100.0,
                r.offers_per_day.2,
            ));
        }
        out
    }
}

// ---------------------------------------------------------------- E6

/// One approach's evaluation in the comparison experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApproachEvaluation {
    /// Aggregated realism metrics (averaged over households).
    pub realism: RealismReport,
    /// Ground-truth energy precision/recall (pooled over households).
    pub ground_truth: GroundTruthScore,
}

/// E6: all six approaches side by side on the same fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApproachComparison {
    /// Parameters used.
    pub params: ExperimentParams,
    /// One evaluation per approach, in taxonomy order.
    pub evaluations: Vec<ApproachEvaluation>,
}

/// Run one extractor over every household and pool the results.
///
/// The closure returns the extraction output, the series it consumed
/// (for realism metrics), and the matching ground-truth flexible series
/// — multi-tariff runs its own tariff-shifted simulation, so its truth
/// differs from the fleet household's.
fn run_approach(
    name: &'static str,
    households: &[SimulatedHousehold],
    params: &ExperimentParams,
    mut run: impl FnMut(
        &SimulatedHousehold,
        &mut StdRng,
    ) -> Option<(ExtractionOutput, TimeSeries, TimeSeries)>,
) -> ApproachEvaluation {
    let mut pooled_extracted: Option<TimeSeries> = None;
    let mut pooled_truth: Option<TimeSeries> = None;
    let mut reports: Vec<RealismReport> = Vec::new();
    for h in households {
        let mut rng = StdRng::seed_from_u64(params.seed ^ h.config.id.wrapping_mul(7919));
        let Some((out, consumed, truth)) = run(h, &mut rng) else {
            continue;
        };
        reports.push(RealismReport::measure(&out, &consumed));
        pooled_extracted = Some(match pooled_extracted {
            None => out.extracted_series.clone(),
            Some(acc) => acc.add(&out.extracted_series).expect("same fleet grid"),
        });
        pooled_truth = Some(match pooled_truth {
            None => truth,
            Some(acc) => acc.add(&truth).expect("same fleet grid"),
        });
    }
    let ground_truth = match (&pooled_extracted, &pooled_truth) {
        (Some(e), Some(t)) => GroundTruthScore::score(e, t),
        _ => GroundTruthScore {
            precision: 0.0,
            recall: 0.0,
            extracted_kwh: 0.0,
            truth_kwh: 0.0,
            overlap_kwh: 0.0,
        },
    };
    // Average the per-household realism reports field-wise.
    let n = reports.len().max(1) as f64;
    let avg_opt = |f: fn(&RealismReport) -> Option<f64>| {
        let vals: Vec<f64> = reports.iter().filter_map(f).collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    };
    let realism = RealismReport {
        approach: name.to_string(),
        offer_count: reports.iter().map(|r| r.offer_count).sum(),
        achieved_share: reports.iter().map(|r| r.achieved_share).sum::<f64>() / n,
        dispersion_entropy: avg_opt(|r| r.dispersion_entropy),
        peak_coverage: avg_opt(|r| r.peak_coverage),
        extracted_sparseness: reports.iter().map(|r| r.extracted_sparseness).sum::<f64>() / n,
        load_correlation: avg_opt(|r| r.load_correlation),
        residual_autocorr_delta: avg_opt(|r| r.residual_autocorr_delta),
        mean_time_flexibility_h: reports
            .iter()
            .map(|r| r.mean_time_flexibility_h)
            .sum::<f64>()
            / n,
        mean_offer_energy_kwh: reports.iter().map(|r| r.mean_offer_energy_kwh).sum::<f64>() / n,
    };
    ApproachEvaluation {
        realism,
        ground_truth,
    }
}

/// Run E6; fails only where [`ExperimentParams::horizon`] does.
pub fn approach_comparison(params: ExperimentParams) -> Result<ApproachComparison, String> {
    let horizon = params.horizon()?;
    let fleet = simulate_fleet(&params.fleet(), horizon);
    let catalog = Catalog::extended();
    let cfg = ExtractionConfig::default();
    let mut evaluations = Vec::with_capacity(6);

    // Household-level approaches on the 15-min market series.
    let random = RandomExtractor::new(cfg.clone());
    evaluations.push(run_approach(
        "random",
        &fleet.households,
        &params,
        |h, rng| {
            let market = h.series_at(Resolution::MIN_15);
            let out = random
                .extract(&ExtractionInput::household(&market), rng)
                .ok()?;
            let truth = h.flexible_series_at(Resolution::MIN_15);
            Some((out, market, truth))
        },
    ));
    let basic = BasicExtractor::new(cfg.clone());
    evaluations.push(run_approach(
        "basic",
        &fleet.households,
        &params,
        |h, rng| {
            let market = h.series_at(Resolution::MIN_15);
            let out = basic
                .extract(&ExtractionInput::household(&market), rng)
                .ok()?;
            let truth = h.flexible_series_at(Resolution::MIN_15);
            Some((out, market, truth))
        },
    ));
    let peak = PeakExtractor::new(cfg.clone());
    evaluations.push(run_approach(
        "peak",
        &fleet.households,
        &params,
        |h, rng| {
            let market = h.series_at(Resolution::MIN_15);
            let out = peak
                .extract(&ExtractionInput::household(&market), rng)
                .ok()?;
            let truth = h.flexible_series_at(Resolution::MIN_15);
            Some((out, market, truth))
        },
    ));

    // Multi-tariff: the same consumer simulated under a flat tariff one
    // month earlier as the reference, tariff response in the observed
    // month. Truth comes from the tariff-shifted run itself.
    let mt = MultiTariffExtractor::new(cfg.clone());
    let ref_horizon = TimeRange::starting_at(
        horizon.start() - Duration::days(params.days),
        Duration::days(params.days),
    )
    .expect("positive horizon");
    evaluations.push(run_approach(
        "multi-tariff",
        &fleet.households,
        &params,
        |h, rng| {
            let (flat, multi) = simulate_tariff_pair(
                &h.config,
                ref_horizon,
                horizon,
                TariffResponse::overnight(0.85),
            );
            let reference = flat.series_at(Resolution::MIN_15);
            let observed = multi.series_at(Resolution::MIN_15);
            let out = mt
                .extract(
                    &ExtractionInput::household(&observed).with_reference(&reference),
                    rng,
                )
                .ok()?;
            let truth = multi.flexible_series_at(Resolution::MIN_15);
            Some((out, observed, truth))
        },
    ));

    // Appliance-level approaches with the 1-min series and the catalog.
    let freq = FrequencyBasedExtractor::new(cfg.clone());
    evaluations.push(run_approach(
        "frequency",
        &fleet.households,
        &params,
        |h, rng| {
            let market = h.series_at(Resolution::MIN_15);
            let out = freq
                .extract(
                    &ExtractionInput::household(&market)
                        .with_fine_series(&h.series)
                        .with_catalog(&catalog),
                    rng,
                )
                .ok()?;
            let truth = h.flexible_series_at(Resolution::MIN_15);
            Some((out, market, truth))
        },
    ));
    let sched = ScheduleBasedExtractor::new(cfg);
    evaluations.push(run_approach(
        "schedule",
        &fleet.households,
        &params,
        |h, rng| {
            let market = h.series_at(Resolution::MIN_15);
            let out = sched
                .extract(
                    &ExtractionInput::household(&market)
                        .with_fine_series(&h.series)
                        .with_catalog(&catalog),
                    rng,
                )
                .ok()?;
            let truth = h.flexible_series_at(Resolution::MIN_15);
            Some((out, market, truth))
        },
    ));

    Ok(ApproachComparison {
        params,
        evaluations,
    })
}

impl ApproachComparison {
    /// Aligned text table: realism metrics + ground-truth P/R/F1.
    pub fn render(&self) -> String {
        let mut out = String::from("E6: approach comparison\n");
        out.push_str(&RealismReport::header());
        for e in &self.evaluations {
            out.push_str(&e.realism.render_row());
        }
        out.push_str("\nground truth (pooled energy overlap):\n");
        for e in &self.evaluations {
            out.push_str(&format!("{:<12} {}\n", e.realism.approach, e.ground_truth));
        }
        out
    }
}

// ---------------------------------------------------------------- E7

/// One resolution's disaggregation quality.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GranularityRow {
    /// Series resolution used for detection.
    pub resolution_min: i64,
    /// Detected activations (all appliances).
    pub detections: usize,
    /// Ground-truth shiftable activations.
    pub truths: usize,
    /// Truth activations matched by a same-appliance detection within
    /// ±15 minutes.
    pub matched: usize,
    /// Activation-level recall.
    pub recall: f64,
    /// Activation-level precision (detections that match some truth).
    pub precision: f64,
}

/// E7: the paper's closing claim quantified — appliance-level
/// extraction degrades as granularity coarsens to 15 min.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GranularityStudy {
    /// Parameters used.
    pub params: ExperimentParams,
    /// One row per resolution (1, 5, 15 min).
    pub rows: Vec<GranularityRow>,
}

/// Run E7; fails only where [`ExperimentParams::horizon`] does.
pub fn granularity(params: ExperimentParams) -> Result<GranularityStudy, String> {
    let horizon = params.horizon()?;
    let fleet = simulate_fleet(&params.fleet(), horizon);
    let catalog = Catalog::extended();
    let specs = catalog.shiftable();
    let resolutions = [Resolution::MIN_1, Resolution::MIN_5, Resolution::MIN_15];
    let mut rows = Vec::with_capacity(resolutions.len());
    for res in resolutions {
        let mut detections = 0usize;
        let mut truths = 0usize;
        let mut matched = 0usize;
        let mut matched_detections = 0usize;
        for h in &fleet.households {
            let series =
                resample::to_resolution(&h.series, res).expect("day-aligned simulation grids");
            let (dets, _) = detect_activations(&series, &specs, &MatchConfig::default());
            let truth: Vec<_> = h.activations.iter().filter(|a| a.shiftable).collect();
            detections += dets.len();
            truths += truth.len();
            matched += truth
                .iter()
                .filter(|t| {
                    dets.iter().any(|d| {
                        d.appliance == t.appliance && (d.start - t.start).as_minutes().abs() <= 15
                    })
                })
                .count();
            matched_detections += dets
                .iter()
                .filter(|d| {
                    truth.iter().any(|t| {
                        d.appliance == t.appliance && (d.start - t.start).as_minutes().abs() <= 15
                    })
                })
                .count();
        }
        rows.push(GranularityRow {
            resolution_min: res.minutes(),
            detections,
            truths,
            matched,
            recall: if truths > 0 {
                matched as f64 / truths as f64
            } else {
                0.0
            },
            precision: if detections > 0 {
                matched_detections as f64 / detections as f64
            } else {
                0.0
            },
        });
    }
    Ok(GranularityStudy { params, rows })
}

impl GranularityStudy {
    /// Aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::from("E7: disaggregation accuracy vs granularity\n");
        out.push_str(&format!(
            "{:>10} {:>10} {:>8} {:>8} {:>8} {:>10}\n",
            "resolution", "detections", "truths", "matched", "recall", "precision"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:>9}m {:>10} {:>8} {:>8} {:>8.2} {:>10.2}\n",
                r.resolution_min, r.detections, r.truths, r.matched, r.recall, r.precision
            ));
        }
        out
    }
}

// ---------------------------------------------------------------- E8

/// One approach's aggregation + scheduling outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregationRow {
    /// Which extraction fed the pipeline.
    pub approach: String,
    /// Micro offers extracted.
    pub offers: usize,
    /// Macro offers after aggregation.
    pub aggregates: usize,
    /// Mean members per aggregate.
    pub compression: f64,
    /// Total time flexibility lost to aggregation (hours).
    pub flexibility_loss_h: f64,
    /// Squared-imbalance improvement from scheduling (fraction).
    pub imbalance_improvement: f64,
    /// RES utilisation after scheduling.
    pub res_utilisation: f64,
}

/// E8: the §6 claim — aggregates of even coarse peak-based offers
/// schedule realistically against wind production.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AggregationStudy {
    /// Parameters used.
    pub params: ExperimentParams,
    /// Random-baseline and peak-based rows.
    pub rows: Vec<AggregationRow>,
}

/// Run E8; fails only where [`ExperimentParams::horizon`] does.
pub fn aggregation_study(params: ExperimentParams) -> Result<AggregationStudy, String> {
    let horizon = params.horizon()?;
    let fleet = simulate_fleet(&params.fleet(), horizon);
    // Wind farm sized at roughly a third of the fleet's mean load.
    let mean_kw = fleet.total.total_energy() / (params.days as f64 * 24.0);
    let farm = WindFarmConfig {
        capacity_kw: mean_kw,
        seed: params.seed ^ 0xCAFE,
        ..WindFarmConfig::default()
    };
    let production = simulate_wind_production(&farm, horizon, Resolution::MIN_15);
    let cfg = ExtractionConfig::default();
    let approaches: Vec<(&'static str, Box<dyn FlexibilityExtractor>)> = vec![
        ("random", Box::new(RandomExtractor::new(cfg.clone()))),
        ("peak", Box::new(PeakExtractor::new(cfg))),
    ];
    let mut rows = Vec::with_capacity(approaches.len());
    for (name, ex) in approaches {
        let mut offers: Vec<FlexOffer> = Vec::new();
        let mut residual: Option<TimeSeries> = None;
        for h in &fleet.households {
            let market = h.series_at(Resolution::MIN_15);
            let out = ex
                .extract(
                    &ExtractionInput::household(&market),
                    &mut StdRng::seed_from_u64(params.seed ^ h.config.id),
                )
                .expect("household extraction cannot fail on simulated data");
            // Re-key ids so they stay unique across the fleet.
            offers.extend(out.flex_offers);
            residual = Some(match residual {
                None => out.modified_series,
                Some(acc) => acc.add(&out.modified_series).expect("same fleet grid"),
            });
        }
        let residual = residual.expect("fleets are non-empty");
        let aggregates = aggregate_offers(&offers, &AggregationConfig::default())
            .expect("offers are non-empty for positive shares");
        let agg_offers: Vec<FlexOffer> = aggregates.iter().map(|a| a.offer.clone()).collect();
        let schedule = schedule_offers(
            &agg_offers,
            &residual,
            &production,
            &ScheduleConfig::default(),
            &mut StdRng::seed_from_u64(params.seed ^ 0xBEEF),
        )
        .expect("scheduling aggregates cannot fail");
        rows.push(AggregationRow {
            approach: name.to_string(),
            offers: offers.len(),
            aggregates: aggregates.len(),
            compression: offers.len() as f64 / aggregates.len().max(1) as f64,
            flexibility_loss_h: aggregates
                .iter()
                .map(|a| a.flexibility_loss().as_hours_f64())
                .sum(),
            imbalance_improvement: schedule.improvement(),
            res_utilisation: schedule.after.res_utilisation,
        });
    }
    Ok(AggregationStudy { params, rows })
}

impl AggregationStudy {
    /// Aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::from("E8: aggregation + RES scheduling\n");
        out.push_str(&format!(
            "{:<10} {:>8} {:>10} {:>12} {:>12} {:>12} {:>8}\n",
            "approach",
            "offers",
            "aggregates",
            "compression",
            "flex-loss(h)",
            "improvement",
            "RES-use"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<10} {:>8} {:>10} {:>12.1} {:>12.1} {:>11.1}% {:>8.2}\n",
                r.approach,
                r.offers,
                r.aggregates,
                r.compression,
                r.flexibility_loss_h,
                r.imbalance_improvement * 100.0,
                r.res_utilisation,
            ));
        }
        out
    }
}

// ---------------------------------------------------------------- E9

/// One tariff-sensitivity level's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TariffRow {
    /// Consumer tariff sensitivity simulated.
    pub sensitivity: f64,
    /// True tariff-shifted energy (kWh, fleet total).
    pub shifted_truth_kwh: f64,
    /// Energy the extractor recovered (kWh).
    pub extracted_kwh: f64,
    /// Energy precision against the shifted-load truth.
    pub precision: f64,
    /// Energy recall against the shifted-load truth.
    pub recall: f64,
    /// Offers extracted.
    pub offers: usize,
}

/// E9: the multi-tariff approach the paper could not evaluate, swept
/// over consumer sensitivity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TariffStudy {
    /// Parameters used.
    pub params: ExperimentParams,
    /// One row per sensitivity level.
    pub rows: Vec<TariffRow>,
}

/// Run E9; fails only where [`ExperimentParams::horizon`] does.
pub fn tariff_study(
    sensitivities: &[f64],
    params: ExperimentParams,
) -> Result<TariffStudy, String> {
    let horizon = params.horizon()?;
    let catalog = Catalog::extended();
    let cfg = ExtractionConfig::default();
    let mt = MultiTariffExtractor::new(cfg);
    let ref_horizon = TimeRange::starting_at(
        horizon.start() - Duration::days(params.days),
        Duration::days(params.days),
    )
    .expect("positive horizon");
    let mut rows = Vec::with_capacity(sensitivities.len());
    for &sensitivity in sensitivities {
        let mut truth_total: Option<TimeSeries> = None;
        let mut extracted_total: Option<TimeSeries> = None;
        let mut offers = 0usize;
        for i in 0..params.households {
            let cfg_h = HouseholdConfig::new(i as u64, HouseholdArchetype::FamilyWithChildren)
                .with_seed(params.seed + i as u64);
            let (flat, multi) = simulate_tariff_pair(
                &cfg_h,
                ref_horizon,
                horizon,
                TariffResponse::overnight(sensitivity),
            );
            // Truth: the energy of the *shifted* activations only,
            // realised from the catalog profiles at their recorded
            // intensity and landing position.
            let mut truth = multi.series.scale(0.0);
            for a in multi.activations.iter().filter(|a| a.was_shifted()) {
                if let Some(spec) = catalog.find_by_name(&a.appliance) {
                    let cycle = spec.profile.to_energy_series(a.start, a.intensity);
                    truth
                        .add_overlapping(&cycle)
                        .expect("simulation grids share 1-min resolution");
                }
            }
            let truth15 =
                resample::to_resolution(&truth, Resolution::MIN_15).expect("day-aligned grids");
            let reference = flat.series_at(Resolution::MIN_15);
            let observed = multi.series_at(Resolution::MIN_15);
            let out = mt
                .extract(
                    &ExtractionInput::household(&observed).with_reference(&reference),
                    &mut StdRng::seed_from_u64(params.seed ^ (i as u64)),
                )
                .expect("multi-tariff extraction with reference cannot fail");
            offers += out.flex_offers.len();
            truth_total = Some(match truth_total {
                None => truth15,
                Some(acc) => acc.add(&truth15).expect("same grid"),
            });
            extracted_total = Some(match extracted_total {
                None => out.extracted_series,
                Some(acc) => acc.add(&out.extracted_series).expect("same grid"),
            });
        }
        let truth = truth_total.expect("households > 0");
        let extracted = extracted_total.expect("households > 0");
        let score = GroundTruthScore::score(&extracted, &truth);
        rows.push(TariffRow {
            sensitivity,
            shifted_truth_kwh: truth.total_energy(),
            extracted_kwh: extracted.total_energy(),
            precision: score.precision,
            recall: score.recall,
            offers,
        });
    }
    Ok(TariffStudy { params, rows })
}

impl TariffStudy {
    /// Aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::from("E9: multi-tariff extraction vs consumer sensitivity\n");
        out.push_str(&format!(
            "{:>11} {:>12} {:>12} {:>10} {:>8} {:>8}\n",
            "sensitivity", "truth(kWh)", "extr.(kWh)", "precision", "recall", "offers"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:>11.2} {:>12.1} {:>12.1} {:>10.2} {:>8.2} {:>8}\n",
                r.sensitivity,
                r.shifted_truth_kwh,
                r.extracted_kwh,
                r.precision,
                r.recall,
                r.offers
            ));
        }
        out
    }
}

// ---------------------------------------------------------------- E10

/// One peak-threshold variant's outcome (E10, the threshold ablation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdAblationRow {
    /// Threshold variant name.
    pub threshold: String,
    /// Offers extracted across the fleet.
    pub offers: usize,
    /// Days on which no peak survived filtering.
    pub empty_days: usize,
    /// Achieved share of total energy.
    pub achieved_share: f64,
    /// Peak-hour coverage of the extracted energy.
    pub peak_coverage: f64,
    /// Ground-truth F1 against the true flexible load.
    pub f1: f64,
}

/// E10: how sensitive is the peak-based approach to its peak
/// *definition* (mean vs median vs quantile line)?
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdAblation {
    /// Parameters used.
    pub params: ExperimentParams,
    /// One row per threshold variant.
    pub rows: Vec<ThresholdAblationRow>,
}

/// Run E10; fails only where [`ExperimentParams::horizon`] does.
pub fn threshold_ablation(params: ExperimentParams) -> Result<ThresholdAblation, String> {
    use flextract_series::PeakThreshold;
    let horizon = params.horizon()?;
    let fleet = simulate_fleet(&params.fleet(), horizon);
    let cfg = ExtractionConfig::default();
    let variants: Vec<(String, PeakThreshold)> = vec![
        ("mean (paper)".into(), PeakThreshold::Mean),
        ("median".into(), PeakThreshold::Median),
        ("q60".into(), PeakThreshold::Quantile(0.6)),
        ("q80".into(), PeakThreshold::Quantile(0.8)),
    ];
    let mut rows = Vec::with_capacity(variants.len());
    for (name, threshold) in variants {
        let ex = PeakExtractor::with_threshold(cfg.clone(), threshold);
        let eval = run_approach("peak", &fleet.households, &params, |h, rng| {
            let market = h.series_at(Resolution::MIN_15);
            let out = ex.extract(&ExtractionInput::household(&market), rng).ok()?;
            let truth = h.flexible_series_at(Resolution::MIN_15);
            Some((out, market, truth))
        });
        // Count empty days via a second deterministic pass.
        let mut empty_days = 0usize;
        for h in &fleet.households {
            let market = h.series_at(Resolution::MIN_15);
            let mut rng = StdRng::seed_from_u64(params.seed ^ h.config.id.wrapping_mul(7919));
            if let Ok(out) = ex.extract(&ExtractionInput::household(&market), &mut rng) {
                empty_days += out
                    .diagnostics
                    .peak_reports
                    .iter()
                    .filter(|r| r.selected.is_none())
                    .count();
            }
        }
        rows.push(ThresholdAblationRow {
            threshold: name,
            offers: eval.realism.offer_count,
            empty_days,
            achieved_share: eval.realism.achieved_share,
            peak_coverage: eval.realism.peak_coverage.unwrap_or(0.0),
            f1: eval.ground_truth.f1(),
        });
    }
    Ok(ThresholdAblation { params, rows })
}

impl ThresholdAblation {
    /// Aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::from("E10: peak-threshold ablation (peak-based approach)\n");
        out.push_str(&format!(
            "{:<14} {:>7} {:>11} {:>8} {:>9} {:>7}\n",
            "threshold", "offers", "empty-days", "share%", "peak-cov", "F1"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<14} {:>7} {:>11} {:>8.2} {:>9.3} {:>7.3}\n",
                r.threshold,
                r.offers,
                r.empty_days,
                r.achieved_share * 100.0,
                r.peak_coverage,
                r.f1
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ExperimentParams {
        ExperimentParams {
            households: 3,
            days: 4,
            seed: 77,
        }
    }

    #[test]
    fn horizon_refuses_days_past_the_minute_axis() {
        for days in [7_000_000_000_000_000, i64::MAX] {
            let params = ExperimentParams { days, ..small() };
            let err = params.horizon().unwrap_err();
            assert!(err.contains("past the last representable minute"), "{err}");
            assert!(share_sweep(&[0.01], params).is_err());
        }
        let err = ExperimentParams {
            days: -1,
            ..small()
        }
        .horizon()
        .unwrap_err();
        assert!(err.starts_with("days -1:"), "{err}");
        let week = ExperimentParams { days: 7, ..small() }.horizon().unwrap();
        assert_eq!(week.duration(), Duration::weeks(1));
    }

    #[test]
    fn share_sweep_is_monotone_in_share() {
        let sweep = share_sweep(&[0.01, 0.05], small()).unwrap();
        assert_eq!(sweep.rows.len(), 2);
        // Basic achieves its configured share closely and monotonically.
        assert!(sweep.rows[1].achieved.1 > sweep.rows[0].achieved.1);
        assert!((sweep.rows[0].achieved.1 - 0.01).abs() < 0.003);
        assert!((sweep.rows[1].achieved.1 - 0.05).abs() < 0.01);
        let text = sweep.render();
        assert!(text.contains("E5"));
        assert!(text.contains("peak"));
    }

    #[test]
    fn approach_comparison_produces_all_six() {
        let cmp = approach_comparison(small()).unwrap();
        assert_eq!(cmp.evaluations.len(), 6);
        let names: Vec<&str> = cmp
            .evaluations
            .iter()
            .map(|e| e.realism.approach.as_str())
            .collect();
        assert_eq!(
            names,
            vec![
                "random",
                "basic",
                "peak",
                "multi-tariff",
                "frequency",
                "schedule"
            ]
        );
        // The appliance-level approaches must beat the random baseline
        // on ground-truth precision (the paper's central claim).
        let by_name = |n: &str| {
            cmp.evaluations
                .iter()
                .find(|e| e.realism.approach == n)
                .unwrap()
        };
        let random_p = by_name("random").ground_truth.precision;
        let freq_p = by_name("frequency").ground_truth.precision;
        assert!(
            freq_p > random_p,
            "frequency precision {freq_p} should beat random {random_p}"
        );
        let text = cmp.render();
        assert!(text.contains("ground truth"));
    }

    #[test]
    fn granularity_degrades_toward_15min() {
        // Recall needs a couple of weeks of routine to stabilise; at
        // very small scales the ordering is noisy.
        let study = granularity(ExperimentParams {
            households: 6,
            days: 14,
            seed: 2013,
        })
        .unwrap();
        assert_eq!(study.rows.len(), 3);
        assert_eq!(study.rows[0].resolution_min, 1);
        assert_eq!(study.rows[2].resolution_min, 15);
        assert!(
            study.rows[0].recall > study.rows[2].recall,
            "1-min recall {} vs 15-min {}",
            study.rows[0].recall,
            study.rows[2].recall
        );
        assert!(study.render().contains("E7"));
    }

    #[test]
    fn aggregation_study_compresses_and_improves() {
        let study = aggregation_study(small()).unwrap();
        assert_eq!(study.rows.len(), 2);
        for row in &study.rows {
            assert!(row.aggregates <= row.offers);
            assert!(row.compression >= 1.0);
            assert!(
                row.imbalance_improvement >= -0.05,
                "{}",
                row.imbalance_improvement
            );
        }
        assert!(study.render().contains("E8"));
    }

    #[test]
    fn threshold_ablation_produces_all_variants() {
        let ab = threshold_ablation(small()).unwrap();
        assert_eq!(ab.rows.len(), 4);
        assert_eq!(ab.rows[0].threshold, "mean (paper)");
        for r in &ab.rows {
            assert!(r.achieved_share >= 0.0 && r.achieved_share <= 0.06);
            assert!((0.0..=1.0).contains(&r.peak_coverage));
            assert!((0.0..=1.0).contains(&r.f1));
        }
        // A higher quantile line defines fewer/taller peaks; the q80
        // variant must concentrate extraction at least as much as the
        // median variant.
        let med = ab.rows.iter().find(|r| r.threshold == "median").unwrap();
        let q80 = ab.rows.iter().find(|r| r.threshold == "q80").unwrap();
        assert!(
            q80.peak_coverage >= med.peak_coverage - 0.05,
            "q80 {} vs median {}",
            q80.peak_coverage,
            med.peak_coverage
        );
        assert!(ab.render().contains("E10"));
    }

    #[test]
    fn tariff_study_recall_grows_with_sensitivity() {
        let study = tariff_study(&[0.0, 0.9], small()).unwrap();
        assert_eq!(study.rows.len(), 2);
        // Zero sensitivity → no shifted truth.
        assert!(study.rows[0].shifted_truth_kwh < 1e-9);
        // High sensitivity → real shifted energy, some of it recovered.
        assert!(study.rows[1].shifted_truth_kwh > 0.0);
        assert!(
            study.rows[1].recall > 0.0,
            "recall {}",
            study.rows[1].recall
        );
        assert!(study.render().contains("E9"));
    }
}
