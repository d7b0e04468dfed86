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
//!
//! # Fan-out
//!
//! Consumer 0 is written first: its measured grid is the one every
//! other consumer must share, and the writer is created on it. The rest
//! fan out through [`ordered_parallel_map`] on the host's cores. Each
//! worker simulates, degrades, encodes and writes its own consumer's
//! files through the writer's shareable files half
//! ([`ConsumerFiles`]). The merge, in index order, only lists each
//! written consumer: its manifest entry and, for a sharded store, its
//! roll-up. File names and shard placement depend only on the consumer
//! index, so the output is byte-identical at any worker count.
//!
//! Memory is bounded per worker, not per fleet: each worker holds one
//! consumer's native series (total and flexible), its measured series
//! and one encoded file at a time, and the reorder window holds only
//! manifest entries, never encoded bytes. A consumer off the fleet grid
//! fails before any of its files is written, with the first such
//! consumer in index order named, as a serial loop would name it.

use crate::source::{RawConsumer, SimulatedSource};
use crate::spec::{ExtractorChoice, Scenario, Workload};
use crate::{ScenarioError, CONSUMER_SEED_STRIDE};
use flextract_appliance::Catalog;
use flextract_dataset::{
    ConsumerFiles, DatasetError, DatasetWriter, Degradation, MeasuredSeries, SeriesCodec,
    ShardedWriter, WrittenConsumer,
};
use flextract_series::shard::ordered_parallel_map;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::num::NonZeroUsize;
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
/// sharded store. Workers write each consumer's files through its
/// [`ConsumerFiles`]; the sink itself only lists the written consumers,
/// in index order.
#[derive(Debug)]
// Both variants boxed: the writers carry manifest and per-shard
// roll-up state, and the enum lives on the export stack frame.
enum ExportWriter {
    Flat(Box<DatasetWriter>),
    Sharded(Box<ShardedWriter>),
}

impl ExportWriter {
    /// A writer on `first`'s grid, with the export's provenance.
    fn create(
        scenario: &Scenario,
        dir: &Path,
        options: &ExportOptions,
        seed: u64,
        first: &MeasuredSeries,
    ) -> Result<ExportWriter, DatasetError> {
        let (name, description) = (&scenario.name, &scenario.description);
        let (start, resolution, len) = (first.start(), first.resolution(), first.len());
        let mut w = match options.shard_capacity {
            None => ExportWriter::Flat(Box::new(DatasetWriter::create(
                dir,
                name,
                description,
                start,
                resolution,
                len,
                options.codec,
            )?)),
            Some(capacity) => ExportWriter::Sharded(Box::new(ShardedWriter::create(
                dir,
                name,
                description,
                start,
                resolution,
                len,
                options.codec,
                capacity,
            )?)),
        };
        let degradation = options.degradation.clone();
        match &mut w {
            ExportWriter::Flat(w) => w.set_provenance(name, degradation, seed),
            ExportWriter::Sharded(w) => w.set_provenance(name, degradation, seed),
        }
        Ok(w)
    }

    fn files(&self) -> ConsumerFiles {
        match self {
            ExportWriter::Flat(w) => w.files(),
            ExportWriter::Sharded(w) => w.files(),
        }
    }

    fn push_consumer(&mut self, written: WrittenConsumer) -> Result<(), DatasetError> {
        match self {
            ExportWriter::Flat(w) => w.push_consumer(written),
            ExportWriter::Sharded(w) => w.push_consumer(written),
        }
    }

    fn finish(self) -> Result<(), DatasetError> {
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

    let degrade = |idx: usize| -> Result<(RawConsumer, MeasuredSeries), ScenarioError> {
        let raw = source.raw(idx);
        let mut rng = StdRng::seed_from_u64(
            seed ^ (idx as u64).wrapping_mul(CONSUMER_SEED_STRIDE) ^ EXPORT_SEED_SALT,
        );
        let measured = options.degradation.apply(&raw.total, &mut rng)?;
        Ok((raw, measured))
    };
    // Consumer 0 fixes the grid every other consumer must share, so it
    // is written before the fan-out.
    let (raw, measured) = degrade(0)?;
    let mut writer = ExportWriter::create(scenario, dir, options, seed, &measured)?;
    let files = writer.files();
    // The truth files are encoded from the simulator's own buffers,
    // uncopied.
    let write = |idx: usize, raw: RawConsumer, measured: &MeasuredSeries| {
        let (truth_total, truth_flex) = if options.include_truth {
            let truth = MeasuredSeries::from_owned_series;
            (Some(truth(raw.total)), Some(truth(raw.flexible)))
        } else {
            (None, None)
        };
        let id = idx.to_string();
        let written = files.write(
            idx,
            &id,
            raw.kind,
            measured,
            truth_total.as_ref(),
            truth_flex.as_ref(),
        );
        written.map_err(|e| match e {
            // A grid mismatch here means the workload's consumers have
            // different native resolutions — say so, instead of
            // surfacing a bare file error.
            DatasetError::Invalid { what, .. } => invalid(format!(
                "consumer {idx} does not share the fleet grid ({what}); \
                 a Mixed workload needs degradation.resolution_min >= 15 \
                 to unify 1-min households with 15-min industrial sites"
            )),
            other => other.into(),
        })
    };
    writer.push_consumer(write(0, raw, &measured)?)?;
    let (intervals, resolution_min) = (measured.len(), measured.resolution().minutes());
    let mut gap_count = measured.gap_count();
    drop(measured);

    // Each worker simulates, degrades, encodes and writes its own
    // consumer; the merge only lists the written consumers in index
    // order, so the output is byte-identical at any worker count.
    let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    ordered_parallel_map(
        source.len() - 1,
        threads,
        |k| {
            let (raw, measured) = degrade(k + 1)?;
            write(k + 1, raw, &measured)
        },
        |_, written| {
            gap_count += written.gap_count();
            Ok(writer.push_consumer(written)?)
        },
    )?;
    writer.finish()?;
    Ok(ExportSummary {
        dir: dir.to_path_buf(),
        consumers: source.len(),
        intervals,
        resolution_min,
        gap_count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AggregationPolicy;
    use flextract_dataset::{Aggregates, Dataset, Scan};
    use flextract_sim::HouseholdArchetype;
    use std::collections::BTreeMap;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("flextract_export_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn scenario(workload: Workload) -> Scenario {
        Scenario {
            name: "export_equivalence".into(),
            description: "export fan-out equivalence".into(),
            workload,
            start: "2013-03-18".into(),
            days: 1,
            resolution_min: 15,
            extractor: ExtractorChoice::Peak,
            flexible_share: 0.05,
            aggregation: AggregationPolicy::None,
            res_capacity_share: 0.0,
            seed: 31,
        }
    }

    fn households(n: usize) -> Scenario {
        scenario(Workload::Households {
            households: n,
            archetype_mix: vec![
                (HouseholdArchetype::Couple, 0.5),
                (HouseholdArchetype::FamilyWithChildren, 0.5),
            ],
            tariff_sensitivity: 0.0,
        })
    }

    /// Noise, anomalies, gaps and a register grid: every consumer's
    /// files and gap count differ.
    fn metered() -> Degradation {
        Degradation {
            noise_std: 0.02,
            anomaly_rate: 0.002,
            anomaly_factor: 4.0,
            anomaly_len: 3,
            gap_rate: 0.01,
            mean_gap_len: 5.0,
            quantize_kwh: 0.001,
            ..Degradation::default()
        }
    }

    /// Every file under `dir`, keyed by its path relative to `dir`.
    fn fingerprint(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    walk(root, &path, out);
                } else {
                    let rel = path.strip_prefix(root).unwrap().display().to_string();
                    out.insert(rel, std::fs::read(&path).unwrap());
                }
            }
        }
        let mut out = BTreeMap::new();
        walk(dir, dir, &mut out);
        out
    }

    /// The serial reference: simulate, degrade and write each consumer
    /// in index order through the writers' own `write_consumer`.
    fn serial_export(scenario: &Scenario, dir: &Path, options: &ExportOptions) {
        let horizon = scenario.horizon().unwrap();
        let res = scenario.resolution().unwrap();
        let catalog = Catalog::extended();
        let source = SimulatedSource::new(scenario, horizon, res, &catalog);
        let seed = options.seed.unwrap_or(scenario.seed);
        let consumers: Vec<_> = (0..source.len())
            .map(|idx| {
                let raw = source.raw(idx);
                let mut rng = StdRng::seed_from_u64(
                    seed ^ (idx as u64).wrapping_mul(CONSUMER_SEED_STRIDE) ^ EXPORT_SEED_SALT,
                );
                let measured = options.degradation.apply(&raw.total, &mut rng).unwrap();
                (raw, measured)
            })
            .collect();
        let first = &consumers[0].1;
        let (start, resolution, len) = (first.start(), first.resolution(), first.len());
        let truth = |raw: &RawConsumer| {
            if options.include_truth {
                (Some(raw.total.clone()), Some(raw.flexible.clone()))
            } else {
                (None, None)
            }
        };
        let (name, description) = (&scenario.name, &scenario.description);
        match options.shard_capacity {
            None => {
                let mut w = DatasetWriter::create(
                    dir,
                    name,
                    description,
                    start,
                    resolution,
                    len,
                    options.codec,
                )
                .unwrap();
                w.set_provenance(name, options.degradation.clone(), seed);
                for (idx, (raw, measured)) in consumers.iter().enumerate() {
                    let (total, flex) = truth(raw);
                    w.write_consumer(
                        &idx.to_string(),
                        raw.kind,
                        measured,
                        total.as_ref(),
                        flex.as_ref(),
                    )
                    .unwrap();
                }
                w.finish().unwrap();
            }
            Some(capacity) => {
                let mut w = ShardedWriter::create(
                    dir,
                    name,
                    description,
                    start,
                    resolution,
                    len,
                    options.codec,
                    capacity,
                )
                .unwrap();
                w.set_provenance(name, options.degradation.clone(), seed);
                for (idx, (raw, measured)) in consumers.iter().enumerate() {
                    let (total, flex) = truth(raw);
                    w.write_consumer(
                        &idx.to_string(),
                        raw.kind,
                        measured,
                        total.as_ref(),
                        flex.as_ref(),
                    )
                    .unwrap();
                }
                w.finish().unwrap();
            }
        }
    }

    #[test]
    fn export_matches_a_serial_write_consumer_loop_byte_for_byte() {
        let scenario = households(7);
        for shard_capacity in [None, Some(3)] {
            for codec in [SeriesCodec::BinaryV3, SeriesCodec::Csv] {
                for include_truth in [true, false] {
                    let options = ExportOptions {
                        degradation: metered(),
                        codec,
                        seed: Some(5),
                        include_truth,
                        shard_capacity,
                    };
                    let case = format!("{shard_capacity:?} {codec:?} truth={include_truth}");
                    let (reference, exported) = (scratch("serial"), scratch("export"));
                    serial_export(&scenario, &reference, &options);
                    let summary = export_dataset(&scenario, &exported, &options).unwrap();
                    let (want, got) = (fingerprint(&reference), fingerprint(&exported));
                    assert_eq!(
                        want.keys().collect::<Vec<_>>(),
                        got.keys().collect::<Vec<_>>(),
                        "{case}: file sets differ"
                    );
                    for (file, bytes) in &want {
                        assert!(got[file] == *bytes, "{case}: `{file}` differs");
                    }
                    let index = if shard_capacity.is_some() {
                        flextract_dataset::ROOT_FILE
                    } else {
                        flextract_dataset::MANIFEST_FILE
                    };
                    assert!(want.contains_key(index), "{case}: no `{index}`");
                    let ds = Dataset::open(&exported).unwrap();
                    assert_eq!(summary.consumers, 7, "{case}");
                    let gaps: usize = (0..ds.len())
                        .map(|i| ds.consumer_entry(i).unwrap().gap_count)
                        .sum();
                    assert_eq!(summary.gap_count, gaps, "{case}");
                    assert!(gaps > 0, "{case}: the degradation injects gaps");
                    std::fs::remove_dir_all(&reference).unwrap();
                    std::fs::remove_dir_all(&exported).unwrap();
                }
            }
        }
    }

    /// A `Mixed` fleet without `resolution_min`: two 1-min households,
    /// then 15-min sites, so consumer 2 is the first off the grid.
    fn mixed() -> Scenario {
        scenario(Workload::Mixed {
            households: 2,
            sites: 3,
        })
    }

    fn assert_grid_error(err: ScenarioError) {
        let text = err.to_string();
        assert!(
            text.contains("consumer 2 does not share the fleet grid"),
            "wrong error: {text}"
        );
    }

    /// Files of consumer `id` anywhere under `dir`.
    fn files_of(dir: &Path, id: usize) -> Vec<String> {
        let stems = [
            format!("consumer_{id}."),
            format!("truth_{id}."),
            format!("flex_{id}."),
        ];
        fingerprint(dir)
            .into_keys()
            .filter(|rel| {
                let name = rel.rsplit('/').next().unwrap_or(rel);
                stems.iter().any(|s| name.starts_with(s.as_str()))
            })
            .collect()
    }

    #[test]
    fn off_grid_consumer_fails_before_any_of_its_files_is_written() {
        let dir = scratch("mixed_flat");
        let err = export_dataset(&mixed(), &dir, &ExportOptions::default()).unwrap_err();
        assert_grid_error(err);
        assert!(
            dir.is_dir(),
            "consumer 0 fixed the grid and created the dataset"
        );
        assert_eq!(files_of(&dir, 2), Vec::<String>::new());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Everything a reader can ask the store, with gaps compared by bit
    /// pattern.
    fn answers(
        dir: &Path,
    ) -> (
        Aggregates,
        Vec<(flextract_dataset::ConsumerEntry, Vec<u64>)>,
    ) {
        let ds = Dataset::open(dir).unwrap();
        let (fleet, _) = ds.fleet_aggregates(&Scan::new()).unwrap();
        let consumers = (0..ds.len())
            .map(|i| {
                let record = ds.consumer(i).unwrap();
                let bits = record.measured.values().iter().map(|v| v.to_bits());
                (record.entry, bits.collect())
            })
            .collect();
        (fleet, consumers)
    }

    #[test]
    fn failed_sharded_re_export_leaves_the_committed_store_intact() {
        let dir = scratch("mixed_sharded");
        let options = ExportOptions {
            degradation: metered(),
            shard_capacity: Some(3),
            ..ExportOptions::default()
        };
        export_dataset(&households(5), &dir, &options).unwrap();
        let root = std::fs::read(dir.join(flextract_dataset::ROOT_FILE)).unwrap();
        let before = answers(&dir);
        let committed_shards: Vec<String> = std::fs::read_dir(dir.join("shards"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().to_string())
            .collect();

        let err = export_dataset(&mixed(), &dir, &options).unwrap_err();
        assert_grid_error(err);
        assert_eq!(
            std::fs::read(dir.join(flextract_dataset::ROOT_FILE)).unwrap(),
            root,
            "the committed root is untouched"
        );
        assert!(answers(&dir) == before, "the committed store answers alike");
        let stray: Vec<String> = files_of(&dir, 2)
            .into_iter()
            .filter(|rel| {
                !committed_shards
                    .iter()
                    .any(|s| rel.starts_with(&format!("shards/{s}/")))
            })
            .collect();
        assert_eq!(stray, Vec::<String>::new(), "consumer 2 wrote nothing new");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
