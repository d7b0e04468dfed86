//! Deterministic export of a simulated fleet to the metered format.
//!
//! [`export_dataset`] simulates every consumer of a (simulated)
//! scenario at native resolution, runs the series through the
//! configured [`Degradation`] with a per-consumer-index seeded RNG, and
//! writes the result as an on-disk dataset — measured series plus the
//! undegraded ground truth (total and flexible), which is what later
//! lets dataset-backed runs report measured-vs-truth fidelity.
//!
//! The export is a pure function of `(scenario, options)`: the
//! simulator is seeded by the scenario, the degradation by
//! `options.seed` (defaulting to the scenario seed) XOR the consumer
//! index. Committed corpus datasets are therefore regenerable byte for
//! byte and CI-gated exactly like golden files.

use crate::source::SimulatedSource;
use crate::spec::{ExtractorChoice, Scenario, Workload};
use crate::{ScenarioError, CONSUMER_SEED_STRIDE};
use flextract_appliance::Catalog;
use flextract_dataset::{DatasetWriter, Degradation, SeriesCodec, ShardedWriter};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

/// Seed-stream separation between the exporter's degradation draws and
/// the runner's extraction draws.
const EXPORT_SEED_SALT: u64 = 0xDA7A_0000_EC5B_0000;

/// Export-time options.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportOptions {
    /// The degradation applied to every consumer (default: identity).
    pub degradation: Degradation,
    /// Series file encoding (default: FXM3 binary — the same per-chunk
    /// statistics and footer chunk index as FXM2, with payloads
    /// XOR-compressed losslessly, so readers keep ranged and pushdown
    /// scans on a smaller file; `Binary` for uncompressed FXM2, `Csv`
    /// for a readable export). `BinaryV1` still writes legacy FXM1 so
    /// tests and benches can keep its read path covered; the CLI no
    /// longer offers it.
    pub codec: SeriesCodec,
    /// Degradation RNG base seed (default: the scenario's seed).
    pub seed: Option<u64>,
    /// Write the undegraded ground-truth series alongside the measured
    /// ones (default: true; turn off to produce a dataset shaped like
    /// real metered data, which has no ground truth).
    pub include_truth: bool,
    /// Export to the sharded layout with this many consumers per shard
    /// (default: `None` — the legacy single-manifest layout). Large
    /// fleets should shard: readers then open `O(shards)` metadata and
    /// prune whole shards from the per-shard statistics roll-ups.
    pub shard_capacity: Option<usize>,
}

impl Default for ExportOptions {
    fn default() -> Self {
        ExportOptions {
            degradation: Degradation::default(),
            codec: SeriesCodec::BinaryV3,
            seed: None,
            include_truth: true,
            shard_capacity: None,
        }
    }
}

/// The layout-dispatched export sink: one legacy manifest, or the
/// sharded store. Both stream consumer by consumer and stay
/// memory-light.
#[derive(Debug)]
// Both variants boxed: the writers carry manifest and per-shard
// roll-up state, and the enum lives on the export stack frame.
enum ExportWriter {
    Flat(Box<DatasetWriter>),
    Sharded(Box<ShardedWriter>),
}

impl ExportWriter {
    fn set_provenance(&mut self, scenario: &str, degradation: Degradation, seed: u64) {
        match self {
            ExportWriter::Flat(w) => w.set_provenance(scenario, degradation, seed),
            ExportWriter::Sharded(w) => w.set_provenance(scenario, degradation, seed),
        }
    }

    fn write_consumer(
        &mut self,
        id: &str,
        kind: flextract_dataset::ConsumerKind,
        measured: &flextract_dataset::MeasuredSeries,
        truth_total: Option<&flextract_series::TimeSeries>,
        truth_flex: Option<&flextract_series::TimeSeries>,
    ) -> Result<(), flextract_dataset::DatasetError> {
        match self {
            ExportWriter::Flat(w) => w.write_consumer(id, kind, measured, truth_total, truth_flex),
            ExportWriter::Sharded(w) => {
                w.write_consumer(id, kind, measured, truth_total, truth_flex)
            }
        }
    }

    fn finish(self) -> Result<(), flextract_dataset::DatasetError> {
        match self {
            ExportWriter::Flat(w) => w.finish().map(|_| ()),
            ExportWriter::Sharded(w) => w.finish().map(|_| ()),
        }
    }
}

/// What an export produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportSummary {
    /// The dataset directory.
    pub dir: PathBuf,
    /// Consumers written.
    pub consumers: usize,
    /// Intervals per measured series (post-degradation grid).
    pub intervals: usize,
    /// Measured resolution in minutes (post-degradation grid).
    pub resolution_min: i64,
    /// Total injected gaps across the fleet.
    pub gap_count: usize,
}

/// Export `scenario`'s simulated fleet to `dir` as a metered dataset.
///
/// Only simulated workloads are exportable; multi-tariff scenarios are
/// rejected because their reference series is a second simulation of
/// the same consumer, which the metered format cannot carry. All
/// consumers must land on one grid after degradation: a `Mixed`
/// workload (1-min households next to 15-min industrial sites) needs a
/// `degradation.resolution_min` coarse enough to unify them.
pub fn export_dataset(
    scenario: &Scenario,
    dir: &Path,
    options: &ExportOptions,
) -> Result<ExportSummary, ScenarioError> {
    scenario.validate()?;
    let invalid = |what: String| ScenarioError::Invalid {
        scenario: scenario.name.clone(),
        what,
    };
    if matches!(scenario.workload, Workload::Dataset { .. }) {
        return Err(invalid(
            "cannot export a dataset-backed scenario (it has no simulator to export)".into(),
        ));
    }
    if scenario.extractor == ExtractorChoice::MultiTariff {
        return Err(invalid(
            "cannot export a multi-tariff scenario (its one-tariff reference is a second \
             simulation of the same consumer, which the metered format cannot carry)"
                .into(),
        ));
    }
    options
        .degradation
        .validate()
        .map_err(|what| invalid(format!("degradation: {what}")))?;

    let horizon = scenario.horizon()?;
    let res = scenario.resolution()?;
    let catalog = Catalog::extended();
    let source = SimulatedSource::new(scenario, horizon, res, &catalog);
    let seed = options.seed.unwrap_or(scenario.seed);

    let mut writer: Option<ExportWriter> = None;
    let mut gap_count = 0;
    let mut intervals = 0;
    let mut resolution_min = 0;
    for idx in 0..source.len() {
        let raw = source.raw(idx);
        let mut rng = StdRng::seed_from_u64(
            seed ^ (idx as u64).wrapping_mul(CONSUMER_SEED_STRIDE) ^ EXPORT_SEED_SALT,
        );
        let measured = options.degradation.apply(&raw.total, &mut rng)?;
        let w = match &mut writer {
            Some(w) => w,
            None => {
                intervals = measured.len();
                resolution_min = measured.resolution().minutes();
                let mut w = match options.shard_capacity {
                    None => ExportWriter::Flat(Box::new(DatasetWriter::create(
                        dir,
                        &scenario.name,
                        &scenario.description,
                        measured.start(),
                        measured.resolution(),
                        measured.len(),
                        options.codec,
                    )?)),
                    Some(capacity) => ExportWriter::Sharded(Box::new(ShardedWriter::create(
                        dir,
                        &scenario.name,
                        &scenario.description,
                        measured.start(),
                        measured.resolution(),
                        measured.len(),
                        options.codec,
                        capacity,
                    )?)),
                };
                w.set_provenance(&scenario.name, options.degradation.clone(), seed);
                writer.insert(w)
            }
        };
        gap_count += measured.gap_count();
        let (truth_total, truth_flex) = if options.include_truth {
            (Some(&raw.total), Some(&raw.flexible))
        } else {
            (None, None)
        };
        w.write_consumer(
            &idx.to_string(),
            raw.kind,
            &measured,
            truth_total,
            truth_flex,
        )
        .map_err(|e| match e {
            // A grid mismatch here means the workload's consumers
            // have different native resolutions — say so, instead
            // of surfacing a bare file error.
            flextract_dataset::DatasetError::Invalid { what, .. } => invalid(format!(
                "consumer {idx} does not share the fleet grid ({what}); \
                     a Mixed workload needs degradation.resolution_min >= 15 \
                     to unify 1-min households with 15-min industrial sites"
            )),
            other => other.into(),
        })?;
    }
    let writer = writer.expect("validation guarantees at least one consumer");
    writer.finish()?;
    Ok(ExportSummary {
        dir: dir.to_path_buf(),
        consumers: source.len(),
        intervals,
        resolution_min,
        gap_count,
    })
}
