//! The extraction workloads: `fleet_extract` (simulated fleet, no file
//! opened) and `metered_extract` (an exported FXM3 dataset, cleaned and
//! extracted twice for the fidelity leg). `metered_extract`'s traced run
//! also measures the store layers (`crate::store`).
//!
//! One op is one `ScenarioRunner::run`. The traced run replays the op
//! serially through the public calls the runner composes — simulate or
//! load, clean, resample, extract, merge, score, aggregate, schedule —
//! with a span around each, and checks that the replay reaches the
//! report's offer count and extracted energy.

use crate::check::{same, same_text, Checks};
use crate::harness::{
    closed_loop, end_to_end, insert_trace_totals, set_up, timed, Ctx, Deadline,
};
use crate::stats::mean;
use crate::trace::{stage_sum_verdict, Tracer};
use crate::{store, Metrics, Outcome, RunConfig};
use flextract_agg::{aggregate_offers, schedule_offers, AggregationConfig, ScheduleConfig};
use flextract_appliance::Catalog;
use flextract_core::{
    ExtractionConfig, ExtractionInput, ExtractionOutput, FlexibilityExtractor, PeakExtractor,
};
use flextract_dataset::{ingest, CleaningConfig, Degradation, ResidentStore, Scan, SeriesCodec};
use flextract_eval::GroundTruthScore;
use flextract_flexoffer::FlexOffer;
use flextract_scenario::{
    export_dataset, AggregationPolicy, DatasetCleaning, ExportOptions, ExtractorChoice, Scenario,
    ScenarioReport, ScenarioRunner, Workload,
};
use flextract_series::{resample, FillStrategy, TimeSeries};
use flextract_sim::{
    simulate_household_with_catalog, simulate_wind_production, FleetConfig, HouseholdArchetype,
    SimulatedHousehold, WindFarmConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

/// Households in the simulated fleet.
const FLEET_HOUSEHOLDS: usize = 300;
/// Households in the exported metered dataset.
const METERED_HOUSEHOLDS: usize = 48;
/// Share of `metered_extract`'s traced run spent on its own replays;
/// the store layers (`crate::store`) get the rest.
const METERED_TRACE_SHARE: f64 = 1.0 / 3.0;
/// Days per scenario.
const DAYS: i64 = 7;
/// The runner's per-consumer RNG stream stride (`flextract_scenario`
/// seeds consumer `i` with `seed ^ i * STRIDE`); the replay must match
/// it to reach the same offers.
const CONSUMER_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

fn mix() -> Vec<(HouseholdArchetype, f64)> {
    vec![
        (HouseholdArchetype::SingleResident, 0.25),
        (HouseholdArchetype::Couple, 0.35),
        (HouseholdArchetype::FamilyWithChildren, 0.25),
        (HouseholdArchetype::SuburbanWithEv, 0.15),
    ]
}

fn households(name: &str, households: usize, seed: u64) -> Scenario {
    Scenario {
        name: name.into(),
        description: "flexbench household fleet".into(),
        workload: Workload::Households {
            households,
            archetype_mix: mix(),
            tariff_sensitivity: 0.0,
        },
        start: "2013-03-18".into(),
        days: DAYS,
        resolution_min: 15,
        extractor: ExtractorChoice::Peak,
        flexible_share: 0.05,
        aggregation: AggregationPolicy::Schedule,
        res_capacity_share: 0.3,
        seed,
    }
}

fn report_json(report: &ScenarioReport) -> Result<String, String> {
    serde_json::to_string(report).ctx("serialize report")
}

fn consumer_days(scenario: &Scenario) -> f64 {
    (scenario.workload.consumers() as i64 * scenario.days) as f64
}

/// The runner's streaming fold, replayed: series summed in consumer
/// order, offers appended.
#[derive(Default)]
struct Merge {
    total: Option<TimeSeries>,
    truth: Option<TimeSeries>,
    extracted: Option<TimeSeries>,
    modified: Option<TimeSeries>,
    offers: Vec<FlexOffer>,
}

impl Merge {
    fn add_series(acc: &mut Option<TimeSeries>, s: &TimeSeries) -> Result<(), String> {
        match acc {
            None => *acc = Some(s.clone()),
            Some(a) => a.add_assign(s).ctx("merge series")?,
        }
        Ok(())
    }

    fn add(
        &mut self,
        market: &TimeSeries,
        truth: &TimeSeries,
        out: ExtractionOutput,
    ) -> Result<(), String> {
        Self::add_series(&mut self.total, market)?;
        Self::add_series(&mut self.truth, truth)?;
        Self::add_series(&mut self.extracted, &out.extracted_series)?;
        Self::add_series(&mut self.modified, &out.modified_series)?;
        self.offers.extend(out.flex_offers);
        Ok(())
    }

    fn take(
        self,
    ) -> Result<
        (
            TimeSeries,
            TimeSeries,
            TimeSeries,
            TimeSeries,
            Vec<FlexOffer>,
        ),
        String,
    > {
        match (self.total, self.truth, self.extracted, self.modified) {
            (Some(total), Some(truth), Some(extracted), Some(modified)) => {
                Ok((total, truth, extracted, modified, self.offers))
            }
            _ => Err("the replay merged no consumer".into()),
        }
    }
}

fn extractor(scenario: &Scenario) -> Result<PeakExtractor, String> {
    let cfg = ExtractionConfig {
        flexible_share: scenario.flexible_share,
        slice_resolution: scenario.resolution().ctx("resolution")?,
        ..ExtractionConfig::default()
    };
    Ok(PeakExtractor::new(cfg))
}

fn consumer_rng(scenario: &Scenario, idx: usize) -> StdRng {
    StdRng::seed_from_u64(scenario.seed ^ (idx as u64).wrapping_mul(CONSUMER_SEED_STRIDE))
}

/// The replay's verdict against the runner's report.
fn replay_verdict(
    report: &ScenarioReport,
    offers: usize,
    extracted_kwh: f64,
) -> Result<(), String> {
    same("replayed offers", offers, report.offers)?;
    same(
        "replayed extracted kWh (bits)",
        extracted_kwh.to_bits(),
        report.extracted_kwh.to_bits(),
    )
}

/// One serial replay of a simulated-fleet run.
fn replay_fleet(
    t: &mut Tracer,
    scenario: &Scenario,
    report: &ScenarioReport,
) -> Result<(), String> {
    let horizon = scenario.horizon().ctx("horizon")?;
    let res = scenario.resolution().ctx("resolution")?;
    let extractor = extractor(scenario)?;
    let catalog = Catalog::extended();
    let configs = FleetConfig {
        households: scenario.workload.consumers(),
        base_seed: scenario.seed,
        archetype_mix: mix(),
        tariff_response: None,
        threads: 1,
    }
    .try_household_configs()
    .ctx("fleet configs")?;
    let mut merge = Merge::default();
    for (idx, cfg) in configs.iter().enumerate() {
        let SimulatedHousehold {
            series,
            flexible_series,
            ..
        } = t.span("sim", || {
            simulate_household_with_catalog(cfg, horizon, &catalog)
        });
        let (market, truth) = t.span("series", || {
            Ok::<_, String>((
                resample::to_resolution_owned(series, res).ctx("resample")?,
                resample::to_resolution_owned(flexible_series, res).ctx("resample")?,
            ))
        })?;
        let mut rng = consumer_rng(scenario, idx);
        let out = t
            .span("core", || {
                extractor.extract(&ExtractionInput::household(&market), &mut rng)
            })
            .ctx("extract")?;
        t.span("scenario.merge", || merge.add(&market, &truth, out))?;
    }
    let (total, truth, extracted, modified, offers) = merge.take()?;
    let _score = t.span("eval", || GroundTruthScore::score(&extracted, &truth));
    t.count("core.offers", offers.len() as u64);
    let aggregates = t
        .span("agg.aggregate", || {
            aggregate_offers(&offers, &AggregationConfig::default())
        })
        .ctx("aggregate")?;
    t.count("agg.aggregates", aggregates.len() as u64);
    let mean_kw = total.total_energy() / horizon.duration().as_hours_f64().max(1e-9);
    let farm = WindFarmConfig {
        capacity_kw: scenario.res_capacity_share * mean_kw,
        seed: scenario.seed ^ 0xCAFE,
        ..WindFarmConfig::default()
    };
    let production = t.span("sim.wind", || simulate_wind_production(&farm, horizon, res));
    let agg_offers: Vec<FlexOffer> = aggregates.iter().map(|a| a.offer.clone()).collect();
    let schedule = t
        .span("agg.schedule", || {
            schedule_offers(
                &agg_offers,
                &modified,
                &production,
                &ScheduleConfig::default(),
                &mut StdRng::seed_from_u64(scenario.seed ^ 0xBEEF),
            )
        })
        .ctx("schedule")?;
    replay_verdict(report, offers.len(), extracted.total_energy())?;
    same(
        "replayed aggregates",
        Some(aggregates.len()),
        report.aggregation.as_ref().map(|a| a.aggregates),
    )?;
    same(
        "replayed imbalance improvement (bits)",
        Some(schedule.improvement().to_bits()),
        report
            .schedule
            .as_ref()
            .map(|s| s.imbalance_improvement.to_bits()),
    )
}

/// `fleet_extract`: a simulated household fleet through the whole
/// pipeline. The timed op runs at `consumer_threads = 1`; the traced run
/// also times `consumer_threads = nproc` against it.
pub fn fleet(cfg: &RunConfig) -> Result<Outcome, String> {
    let scenario = households("flexbench_fleet", FLEET_HOUSEHOLDS, cfg.seed);
    let parallel = ScenarioRunner::with_threads(1).with_consumer_threads(cfg.threads);
    let serial = ScenarioRunner::with_threads(1).with_consumer_threads(1);
    // Set-up runs the scenario once at nproc threads: the reference
    // every run's report must match byte for byte.
    let ((reference, report), setup_s) = set_up(|_| {
        let outcome = parallel.run(&scenario).ctx("reference run")?;
        Ok((report_json(&outcome.report)?, outcome.report))
    })?;
    let mut checks = Checks::default();
    let run_once = |runner: &ScenarioRunner, checks: &mut Checks| -> f64 {
        let (outcome, secs) = timed(|| runner.run(&scenario));
        checks.op(outcome
            .ctx("run")
            .and_then(|o| same_text("report", &report_json(&o.report)?, &reference)));
        secs
    };
    let mut metrics = Metrics::new();
    let mut samples = Vec::new();
    if !cfg.trace {
        let times = closed_loop(cfg.budget, || run_once(&serial, &mut checks));
        metrics = end_to_end(setup_s, &times, consumer_days(&scenario))?;
        samples.push(("op", times.op_s.len()));
    } else {
        // Interleaved: a parallel run, a serial run and a traced serial
        // replay per round, so all three see the same host conditions.
        let (mut parallel_s, mut serial_s) = (Vec::new(), Vec::new());
        let mut t = Tracer::default();
        let deadline = Deadline::after(cfg.budget);
        while deadline.more() {
            parallel_s.push(run_once(&parallel, &mut checks));
            serial_s.push(run_once(&serial, &mut checks));
            let verdict = t.op(|t| replay_fleet(t, &scenario, &report));
            checks.op(verdict);
        }
        let serial_ms = mean(&serial_s) * 1e3;
        let parallel_ms = mean(&parallel_s) * 1e3;
        let overhead = t.against(serial_ms);
        checks.op(stage_sum_verdict(overhead));
        metrics.insert("sim.busy_ms", t.span_ms("sim"));
        metrics.insert("sim.wind_busy_ms", t.span_ms("sim.wind"));
        metrics.insert("series.resample_busy_ms", t.span_ms("series"));
        metrics.insert("core.extract_busy_ms", t.span_ms("core"));
        metrics.insert("core.offers", t.count_per_op("core.offers"));
        metrics.insert("agg.aggregate_busy_ms", t.span_ms("agg.aggregate"));
        metrics.insert("agg.schedule_busy_ms", t.span_ms("agg.schedule"));
        metrics.insert("agg.aggregates", t.count_per_op("agg.aggregates"));
        metrics.insert("eval.score_busy_ms", t.span_ms("eval"));
        metrics.insert("scenario.merge_busy_ms", t.span_ms("scenario.merge"));
        metrics.insert("scenario.unaccounted_ms", t.unaccounted_ms());
        metrics.insert("scenario.serial_run_ms", serial_ms);
        metrics.insert("scenario.parallel_run_ms", parallel_ms);
        metrics.insert("scenario.parallel_speedup", serial_ms / parallel_ms);
        metrics.insert(
            "scenario.consumer_days_per_s",
            consumer_days(&scenario) / (parallel_ms / 1e3),
        );
        insert_trace_totals(&mut metrics, &t, serial_ms, overhead, serial_s.len());
        samples.extend([
            ("parallel_runs", parallel_s.len()),
            ("serial_runs", serial_s.len()),
            ("traced_replays", t.ops() as usize),
        ]);
    }
    Ok(Outcome {
        checks,
        metrics,
        samples,
        // The traced run records the parallel side of its speed-up pair.
        consumer_threads: if cfg.trace { cfg.threads } else { 1 },
    })
}

fn metered_scenario(dir: &Path, seed: u64) -> Scenario {
    Scenario {
        name: "flexbench_metered".into(),
        workload: Workload::Dataset {
            path: dir.display().to_string(),
            consumers: METERED_HOUSEHOLDS,
            cleaning: DatasetCleaning {
                fill: FillStrategy::Linear,
                screen_anomalies: true,
            },
            disaggregate: false,
        },
        aggregation: AggregationPolicy::None,
        res_capacity_share: 0.0,
        ..households("flexbench_metered", METERED_HOUSEHOLDS, seed)
    }
}

/// Export the metered dataset: 1-min readings with noise, anomalies,
/// gaps and 0.001 kWh register quantization, FXM3, one manifest.
fn export_metered(dir: &Path, seed: u64) -> Result<(), String> {
    let mut source = households("flexbench_metered_source", METERED_HOUSEHOLDS, seed);
    source.aggregation = AggregationPolicy::None;
    source.res_capacity_share = 0.0;
    let options = ExportOptions {
        degradation: Degradation {
            noise_std: 0.02,
            anomaly_rate: 0.0005,
            anomaly_factor: 4.0,
            anomaly_len: 3,
            gap_rate: 0.002,
            mean_gap_len: 5.0,
            quantize_kwh: 0.001,
            ..Degradation::default()
        },
        codec: SeriesCodec::BinaryV3,
        seed: Some(seed),
        include_truth: true,
        shard_capacity: None,
    };
    export_dataset(&source, dir, &options).ctx("export metered dataset")?;
    Ok(())
}

/// One serial replay of a metered-dataset run.
fn replay_metered(
    t: &mut Tracer,
    scenario: &Scenario,
    dir: &Path,
    report: &ScenarioReport,
) -> Result<(), String> {
    let horizon = scenario.horizon().ctx("horizon")?;
    let res = scenario.resolution().ctx("resolution")?;
    let extractor = extractor(scenario)?;
    let dataset = t
        .span("dataset.open", || {
            ResidentStore::shared(dir).and_then(|s| s.dataset())
        })
        .ctx("open dataset")?;
    let fidelity = dataset.all_have_truth();
    let cleaning = CleaningConfig {
        fill: FillStrategy::Linear,
        screen_anomalies: true,
        ..CleaningConfig::default()
    };
    let mut merge = Merge::default();
    let mut fidelity_legs = 0;
    for idx in 0..dataset.len() {
        let record = t
            .span("dataset.load", || {
                dataset.consumer_in(idx, horizon, fidelity)
            })
            .ctx("load consumer")?;
        let (cleaned, cleaned_report) = t
            .span("ingest.clean", || ingest::clean(record.measured, &cleaning))
            .ctx("clean")?;
        t.count("ingest.gaps_filled", cleaned_report.gaps_filled as u64);
        t.count(
            "ingest.anomalies_screened",
            cleaned_report.anomalies_screened as u64,
        );
        let (market, truth, fidelity_market) = t.span("series", || {
            let market = resample::to_resolution_owned(cleaned, res).ctx("resample")?;
            let truth = match &record.truth_flex {
                Some(flex) => resample::to_resolution(flex, res).ctx("resample")?,
                None => TimeSeries::zeros_like(&market),
            };
            let fidelity_market = record
                .truth_total
                .as_ref()
                .map(|s| resample::to_resolution(s, res))
                .transpose()
                .ctx("resample")?;
            Ok::<_, String>((market, truth, fidelity_market))
        })?;
        let mut rng = consumer_rng(scenario, idx);
        let out = t
            .span("core", || {
                extractor.extract(&ExtractionInput::household(&market), &mut rng)
            })
            .ctx("extract")?;
        if let Some(fm) = &fidelity_market {
            let mut rng = consumer_rng(scenario, idx);
            let fid = t
                .span("core.fidelity", || {
                    extractor.extract(&ExtractionInput::household(fm), &mut rng)
                })
                .ctx("fidelity extract")?;
            std::hint::black_box(fid);
            fidelity_legs += 1;
        }
        t.span("scenario.merge", || merge.add(&market, &truth, out))?;
    }
    let (_, truth, extracted, _, offers) = merge.take()?;
    let _score = t.span("eval", || GroundTruthScore::score(&extracted, &truth));
    t.count("core.offers", offers.len() as u64);
    replay_verdict(report, offers.len(), extracted.total_energy())?;
    same("replayed fidelity legs", fidelity_legs, dataset.len())
}

/// The frame layer under one replayed load: open and materialize the
/// horizon of every series file the run reads, outside the op.
fn probe_frames(t: &mut Tracer, scenario: &Scenario, dir: &Path) -> Result<(), String> {
    let horizon = scenario.horizon().ctx("horizon")?;
    let dataset = ResidentStore::shared(dir)
        .and_then(|s| s.dataset())
        .ctx("open dataset")?;
    for idx in 0..dataset.len() {
        let entry = dataset.consumer_entry(idx).ctx("consumer entry")?;
        for file in [
            Some(&entry.measured),
            entry.truth_total.as_ref(),
            entry.truth_flex.as_ref(),
        ]
        .into_iter()
        .flatten()
        {
            let path = dir.join(file);
            let (bytes, series) = t.probe("frame.decode", || {
                let frame = flextract_frame::fxm::open_file(&path).ctx("open frame")?;
                let (series, _) = Scan::new()
                    .time_slice(horizon)
                    .materialize(&frame)
                    .ctx("materialize")?;
                Ok::<_, String>((frame.disk_bytes(), series.len()))
            })?;
            t.count("frame.bytes_read", bytes as u64);
            std::hint::black_box(series);
        }
    }
    Ok(())
}

/// `metered_extract`: a metered FXM3 dataset through ingest, clean,
/// extract and the fidelity leg at `consumer_threads = 1`.
pub fn metered(cfg: &RunConfig) -> Result<Outcome, String> {
    let parallel = ScenarioRunner::with_threads(1).with_consumer_threads(cfg.threads);
    let serial = ScenarioRunner::with_threads(1).with_consumer_threads(1);
    // Set-up exports the dataset and runs it once at nproc threads: the
    // reference every timed (serial) run must match byte for byte.
    let ((dir, scenario, reference, report), setup_s) = set_up(|attempt| {
        let dir = cfg.work.join(format!("metered-{attempt}"));
        export_metered(&dir, cfg.seed)?;
        let scenario = metered_scenario(&dir, cfg.seed);
        let outcome = parallel.run(&scenario).ctx("reference run")?;
        if outcome.report.fidelity.is_none() {
            return Err("the metered reference run has no fidelity section".into());
        }
        Ok((dir, scenario, report_json(&outcome.report)?, outcome.report))
    })?;
    let mut checks = Checks::default();
    let run_once = |checks: &mut Checks| -> f64 {
        let (outcome, secs) = timed(|| serial.run(&scenario));
        checks.op(outcome.ctx("run").and_then(|o| {
            same("fidelity section", o.report.fidelity.is_some(), true)?;
            same_text("report", &report_json(&o.report)?, &reference)
        }));
        secs
    };
    let mut metrics = Metrics::new();
    let mut samples = Vec::new();
    if !cfg.trace {
        let times = closed_loop(cfg.budget, || run_once(&mut checks));
        metrics = end_to_end(setup_s, &times, consumer_days(&scenario))?;
        samples.push(("op", times.op_s.len()));
    } else {
        // Interleaved: one serial run, then its traced replay. The store
        // layers get the rest of the budget.
        let metered_budget = cfg.budget.mul_f64(METERED_TRACE_SHARE);
        let mut serial_s = Vec::new();
        let mut t = Tracer::default();
        let deadline = Deadline::after(metered_budget);
        while deadline.more() {
            serial_s.push(run_once(&mut checks));
            let verdict = t.op(|t| replay_metered(t, &scenario, &dir, &report));
            checks.op(verdict.and_then(|()| probe_frames(&mut t, &scenario, &dir)));
        }
        let serial_ms = mean(&serial_s) * 1e3;
        let overhead = t.against(serial_ms);
        checks.op(stage_sum_verdict(overhead));
        metrics.insert("dataset.open_busy_ms", t.span_ms("dataset.open"));
        metrics.insert("dataset.load_busy_ms", t.span_ms("dataset.load"));
        metrics.insert("frame.decode_busy_ms", t.probe_per_op_ms("frame.decode"));
        metrics.insert("frame.bytes_read", t.count_per_op("frame.bytes_read"));
        metrics.insert("ingest.clean_busy_ms", t.span_ms("ingest.clean"));
        metrics.insert("ingest.gaps_filled", t.count_per_op("ingest.gaps_filled"));
        metrics.insert(
            "ingest.anomalies_screened",
            t.count_per_op("ingest.anomalies_screened"),
        );
        metrics.insert("series.resample_busy_ms", t.span_ms("series"));
        metrics.insert("core.extract_busy_ms", t.span_ms("core"));
        metrics.insert("core.fidelity_extract_busy_ms", t.span_ms("core.fidelity"));
        metrics.insert("core.offers", t.count_per_op("core.offers"));
        metrics.insert("eval.score_busy_ms", t.span_ms("eval"));
        metrics.insert("scenario.merge_busy_ms", t.span_ms("scenario.merge"));
        metrics.insert("scenario.unaccounted_ms", t.unaccounted_ms());
        metrics.insert("scenario.serial_run_ms", serial_ms);
        metrics.insert(
            "scenario.consumer_days_per_s",
            consumer_days(&scenario) / (serial_ms / 1e3),
        );
        insert_trace_totals(&mut metrics, &t, serial_ms, overhead, serial_s.len());
        samples.extend([
            ("serial_runs", serial_s.len()),
            ("traced_replays", t.ops() as usize),
        ]);
        let store_budget = cfg.budget.saturating_sub(metered_budget);
        let (store_metrics, store_samples) = store::trace_layers(cfg, store_budget, &mut checks)?;
        for (name, value) in store_metrics {
            if metrics.insert(name, value).is_some() {
                return Err(format!("metric {name} measured twice"));
            }
        }
        samples.extend(store_samples);
    }
    Ok(Outcome {
        checks,
        metrics,
        samples,
        consumer_threads: 1,
    })
}
