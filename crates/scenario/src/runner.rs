//! Executes scenarios: (simulate | ingest) → extract → aggregate →
//! evaluate.
//!
//! Parallelism happens on two levels, both deterministic:
//!
//! * **Across scenarios** — [`ScenarioRunner::run_all`] fans the corpus
//!   out over `threads` scoped workers with a work-stealing index
//!   queue (scenario costs are highly skewed).
//! * **Within one scenario** — the consumers of a single workload are
//!   fanned across `consumer_threads` shard workers (see
//!   [`crate::shard`]), while the per-consumer results are folded into
//!   the report in **strict consumer index order** on the merging
//!   thread. Extraction RNGs are seeded per consumer index — never per
//!   worker — so a report is byte-identical at every thread count,
//!   which is what keeps the `tests/golden/` snapshots stable.
//!
//! Consumers come from a [`crate::source::ConsumerSource`]: simulated
//! on demand, or ingested from an on-disk dataset (cleaned, optionally
//! disaggregated). Both satisfy the same random-access contract, so the
//! sharding and the ordered merge apply unchanged. Dataset-backed runs
//! with ground truth additionally run the **fidelity leg**: the same
//! extractor on the undegraded series, merged with the same index
//! ordering, so the measured-vs-truth deltas are as deterministic as
//! everything else in the report.
//!
//! Memory stays flat in the fleet size: consumers are built on demand
//! and dropped after merging, with the shard window bounding how many
//! finished consumers can await their merge turn.

use crate::report::{
    AggregationReport, IngestionReport, ScenarioOutcome, ScenarioReport, ScheduleReport,
};
use crate::shard::ordered_parallel_map;
use crate::source::{ConsumerInput, ConsumerSource};
use crate::spec::{AggregationPolicy, ExtractorChoice, Scenario};
use crate::{ScenarioError, CONSUMER_SEED_STRIDE};
use flextract_agg::{aggregate_offers, schedule_offers, AggregationConfig, ScheduleConfig};
use flextract_appliance::Catalog;
use flextract_core::{
    BasicExtractor, ExtractionConfig, ExtractionInput, ExtractionOutput, FlexibilityExtractor,
    FrequencyBasedExtractor, MultiTariffExtractor, PeakExtractor, RandomExtractor,
    ScheduleBasedExtractor,
};
use flextract_eval::{FidelityReport, GroundTruthScore};
use flextract_flexoffer::FlexOffer;
use flextract_series::TimeSeries;
use flextract_sim::{simulate_wind_production, WindFarmConfig};
use flextract_time::{Resolution, TimeRange};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Runs scenarios, fanning out across worker threads.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioRunner {
    /// Worker threads for [`ScenarioRunner::run_all`] (1 = serial;
    /// capped at the scenario count). Has no effect on the reports.
    pub threads: usize,
    /// Worker threads *inside* one scenario: the consumers of a single
    /// workload are sharded across this many workers (1 = serial;
    /// capped at the consumer count). Has no effect on the reports —
    /// per-consumer results merge in fixed index order.
    pub consumer_threads: usize,
}

impl Default for ScenarioRunner {
    fn default() -> Self {
        ScenarioRunner {
            threads: 4,
            consumer_threads: 1,
        }
    }
}

/// Streaming accumulator over the per-consumer extraction outputs.
/// Feed it in consumer index order and the folded series are bit-equal
/// to a serial loop's, whatever produced the inputs.
struct Accumulator {
    total: Option<TimeSeries>,
    truth: Option<TimeSeries>,
    extracted: Option<TimeSeries>,
    modified: Option<TimeSeries>,
    offers: Vec<FlexOffer>,
    ingestion: Option<IngestionReport>,
    /// Fidelity-leg tallies: energy/offers extracted from the measured
    /// and ground-truth series, and how many consumers carried ground
    /// truth. Both energy sides sum per consumer in the same order, so
    /// an identity export yields a delta of exactly 0.0 (the merged
    /// `extracted` series associates its additions differently and can
    /// drift in the last ulp).
    fidelity_measured_kwh: f64,
    fidelity_truth_kwh: f64,
    fidelity_truth_offers: usize,
    fidelity_consumers: usize,
}

impl Accumulator {
    fn new(source_resolution_min: Option<i64>) -> Self {
        Accumulator {
            total: None,
            truth: None,
            extracted: None,
            modified: None,
            offers: Vec::new(),
            ingestion: source_resolution_min.map(IngestionReport::new),
            fidelity_measured_kwh: 0.0,
            fidelity_truth_kwh: 0.0,
            fidelity_truth_offers: 0,
            fidelity_consumers: 0,
        }
    }

    fn add_series(acc: &mut Option<TimeSeries>, s: &TimeSeries) -> Result<(), ScenarioError> {
        match acc {
            None => *acc = Some(s.clone()),
            Some(a) => a.add_assign(s)?,
        }
        Ok(())
    }

    fn add(
        &mut self,
        consumer: &ConsumerInput,
        out: ExtractionOutput,
        fidelity_out: Option<ExtractionOutput>,
    ) -> Result<(), ScenarioError> {
        Self::add_series(&mut self.total, &consumer.market)?;
        Self::add_series(&mut self.truth, &consumer.truth)?;
        Self::add_series(&mut self.extracted, &out.extracted_series)?;
        Self::add_series(&mut self.modified, &out.modified_series)?;
        let measured_kwh = out.extracted_energy();
        self.offers.extend(out.flex_offers);
        if let (Some(ingestion), Some(cleaning)) = (&mut self.ingestion, &consumer.cleaning) {
            ingestion.absorb_cleaning(cleaning);
            ingestion.disagg_detections += consumer.disagg_detections;
            ingestion.disagg_explained_kwh += consumer.disagg_explained_kwh;
        }
        if let Some(fid) = fidelity_out {
            self.fidelity_measured_kwh += measured_kwh;
            self.fidelity_truth_kwh += fid.extracted_energy();
            self.fidelity_truth_offers += fid.flex_offers.len();
            self.fidelity_consumers += 1;
        }
        Ok(())
    }
}

impl ScenarioRunner {
    /// A runner with the given scenario-level worker-thread count.
    ///
    /// Zero is clamped to 1 as a library-level backstop; the CLI
    /// rejects `--threads 0` before it gets here so users see a real
    /// message instead of a silent clamp.
    pub fn with_threads(threads: usize) -> Self {
        ScenarioRunner {
            threads: threads.max(1),
            ..ScenarioRunner::default()
        }
    }

    /// This runner with `consumer_threads` workers inside each scenario
    /// (zero is clamped to 1, same contract as
    /// [`ScenarioRunner::with_threads`]).
    pub fn with_consumer_threads(mut self, consumer_threads: usize) -> Self {
        self.consumer_threads = consumer_threads.max(1);
        self
    }

    /// Execute one scenario end to end.
    pub fn run(&self, scenario: &Scenario) -> Result<ScenarioOutcome, ScenarioError> {
        let started = Instant::now();
        scenario.validate()?;
        let horizon = scenario.horizon()?;
        let res = scenario.resolution()?;
        let cfg = ExtractionConfig {
            flexible_share: scenario.flexible_share,
            slice_resolution: res,
            ..ExtractionConfig::default()
        };
        cfg.validate()?;
        let extractor: Box<dyn FlexibilityExtractor> = match scenario.extractor {
            ExtractorChoice::Random => Box::new(RandomExtractor::new(cfg)),
            ExtractorChoice::Basic => Box::new(BasicExtractor::new(cfg)),
            ExtractorChoice::Peak => Box::new(PeakExtractor::new(cfg)),
            ExtractorChoice::MultiTariff => Box::new(MultiTariffExtractor::new(cfg)),
            ExtractorChoice::Frequency => Box::new(FrequencyBasedExtractor::new(cfg)),
            ExtractorChoice::Schedule => Box::new(ScheduleBasedExtractor::new(cfg)),
        };

        let catalog = Catalog::extended();
        let source = ConsumerSource::new(scenario, horizon, res, &catalog)?;
        let extractor: &dyn FlexibilityExtractor = extractor.as_ref();
        let mut acc = Accumulator::new(source.source_resolution_min());
        let consumers = source.len();
        ordered_parallel_map(
            consumers,
            self.consumer_threads,
            |idx| {
                let consumer = source.consumer(idx)?;
                let mut input = ExtractionInput::household(&consumer.market);
                if let Some(fine) = &consumer.fine {
                    input = input.with_fine_series(fine).with_catalog(&catalog);
                }
                if let Some(reference) = &consumer.reference {
                    input = input.with_reference(reference);
                }
                // Seeded per consumer *index*, never per worker: the
                // offer stream is independent of scheduling.
                let mut rng = StdRng::seed_from_u64(
                    scenario.seed ^ (idx as u64).wrapping_mul(CONSUMER_SEED_STRIDE),
                );
                let out = extractor.extract(&input, &mut rng)?;
                // The fidelity leg: the same extractor on the
                // undegraded ground-truth series, re-seeded with the
                // *same* per-index seed — a paired comparison that
                // controls the stochastic-extractor variable, so an
                // identity export measures exactly zero delta and a
                // degraded one measures pure degradation effect.
                let fidelity_out = match &consumer.fidelity_market {
                    None => None,
                    Some(truth_total) => {
                        let mut input = ExtractionInput::household(truth_total);
                        if let Some(fine) = &consumer.fidelity_fine {
                            input = input.with_fine_series(fine).with_catalog(&catalog);
                        }
                        let mut rng = StdRng::seed_from_u64(
                            scenario.seed ^ (idx as u64).wrapping_mul(CONSUMER_SEED_STRIDE),
                        );
                        Some(extractor.extract(&input, &mut rng)?)
                    }
                };
                Ok((consumer, out, fidelity_out))
            },
            |_, (consumer, out, fidelity_out)| acc.add(&consumer, out, fidelity_out),
        )?;

        // `validate` guarantees at least one consumer.
        let total = acc.total.expect("workloads are non-empty");
        let truth = acc.truth.expect("workloads are non-empty");
        let extracted = acc.extracted.expect("workloads are non-empty");
        let modified = acc.modified.expect("workloads are non-empty");

        let score = GroundTruthScore::score(&extracted, &truth);
        let peak_before = total.argmax().map_or(0.0, |(_, v)| v);
        let peak_after = modified.argmax().map_or(0.0, |(_, v)| v);
        let (aggregation, schedule) =
            self.downstream(scenario, horizon, res, &acc.offers, &total, &modified)?;

        // The fidelity section compares like with like, so it appears
        // only when *every* consumer carried a ground-truth series.
        // Both energy sides are the per-consumer paired tallies, not
        // `extracted.total_energy()` — same summation order on both
        // legs is what makes an identity export's delta exactly 0.0.
        let fidelity = (acc.fidelity_consumers == consumers).then(|| {
            FidelityReport::compare(
                acc.fidelity_measured_kwh,
                acc.offers.len(),
                acc.fidelity_truth_kwh,
                acc.fidelity_truth_offers,
            )
        });

        let total_energy = total.total_energy();
        let report = ScenarioReport {
            name: scenario.name.clone(),
            consumers: scenario.workload.consumers(),
            intervals: total.len(),
            resolution_min: res.minutes(),
            total_energy_kwh: total_energy,
            true_flexible_kwh: truth.total_energy(),
            offers: acc.offers.len(),
            extracted_kwh: extracted.total_energy(),
            achieved_share: if total_energy > 0.0 {
                extracted.total_energy() / total_energy
            } else {
                0.0
            },
            precision: score.precision,
            recall: score.recall,
            f1: score.f1(),
            peak_before_kwh: peak_before,
            peak_after_kwh: peak_after,
            peak_reduction: if peak_before > 0.0 {
                1.0 - peak_after / peak_before
            } else {
                0.0
            },
            aggregation,
            schedule,
            ingestion: acc.ingestion,
            fidelity,
        };
        Ok(ScenarioOutcome {
            report,
            offers: acc.offers,
            wall_time_ms: started.elapsed().as_millis() as u64,
        })
    }

    /// Aggregation + scheduling per the scenario's policy. Extraction
    /// runs that found nothing (an empty offer set) skip both stages.
    fn downstream(
        &self,
        scenario: &Scenario,
        horizon: TimeRange,
        res: Resolution,
        offers: &[FlexOffer],
        total: &TimeSeries,
        modified: &TimeSeries,
    ) -> Result<(Option<AggregationReport>, Option<ScheduleReport>), ScenarioError> {
        if scenario.aggregation == AggregationPolicy::None || offers.is_empty() {
            return Ok((None, None));
        }
        let aggregates = aggregate_offers(offers, &AggregationConfig::default())?;
        let agg_report = AggregationReport {
            aggregates: aggregates.len(),
            compression: offers.len() as f64 / aggregates.len().max(1) as f64,
            flexibility_loss_h: aggregates
                .iter()
                .map(|a| a.flexibility_loss().as_hours_f64())
                .sum(),
        };
        if scenario.aggregation != AggregationPolicy::Schedule {
            return Ok((Some(agg_report), None));
        }
        let mean_kw = total.total_energy() / horizon.duration().as_hours_f64().max(1e-9);
        let farm = WindFarmConfig {
            capacity_kw: scenario.res_capacity_share * mean_kw,
            seed: scenario.seed ^ 0xCAFE,
            ..WindFarmConfig::default()
        };
        let production = simulate_wind_production(&farm, horizon, res);
        let agg_offers: Vec<FlexOffer> = aggregates.iter().map(|a| a.offer.clone()).collect();
        let result = schedule_offers(
            &agg_offers,
            modified,
            &production,
            &ScheduleConfig::default(),
            &mut StdRng::seed_from_u64(scenario.seed ^ 0xBEEF),
        )?;
        let sched_report = ScheduleReport {
            imbalance_improvement: result.improvement(),
            res_utilisation: result.after.res_utilisation,
        };
        Ok((Some(agg_report), Some(sched_report)))
    }

    /// Execute every scenario, fanned out across `self.threads` scoped
    /// threads; results come back in input order.
    pub fn run_all(&self, scenarios: &[Scenario]) -> Vec<Result<ScenarioOutcome, ScenarioError>> {
        if scenarios.is_empty() {
            return Vec::new();
        }
        let results: Mutex<Vec<(usize, Result<ScenarioOutcome, ScenarioError>)>> =
            Mutex::new(Vec::with_capacity(scenarios.len()));
        let threads = self.threads.clamp(1, scenarios.len());
        // Work-stealing queue rather than static chunks: scenario cost
        // is highly skewed (a 10k-household stress run next to single
        // consumer-days), so workers pull the next index as they free
        // up. Results are keyed by index, so scheduling order never
        // affects the returned order (or the reports — each run merges
        // its consumers in index order).
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let results = &results;
                let next = &next;
                let runner = *self;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(scenario) = scenarios.get(i) else {
                        break;
                    };
                    let outcome = runner.run(scenario);
                    results
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push((i, outcome));
                });
            }
        });
        let mut indexed = results.into_inner().unwrap_or_else(PoisonError::into_inner);
        indexed.sort_by_key(|(i, _)| *i);
        indexed.into_iter().map(|(_, r)| r).collect()
    }
}
