//! `flextract` — command-line front end.
//!
//! ```text
//! flextract simulate  --households 5 --days 7 --seed 1 --out data/
//! flextract extract   --approach peak --input data/household_0.csv --share 0.05
//! flextract fig5
//! ```
//!
//! `extract --input` reads any series file a dataset store reads: the
//! `FXM1`/`FXM2`/`FXM3` binary formats (sniffed by magic) or
//! `interval_start,kwh` CSV. `simulate` writes each household as both
//! CSV and `FXM3`; `dataset export --codec fxm3|fxm2|csv` picks the
//! store format.

use flextract::core::{
    BasicExtractor, ExtractionConfig, ExtractionInput, FlexibilityExtractor, PeakExtractor,
    RandomExtractor,
};
use flextract::dataset::{
    codec, Aggregates, CleaningConfig, Dataset, Degradation, MeasuredSeries, Predicate,
    ResidentStore, Scan, ScanReport, SeriesCodec,
};
use flextract::eval::fig5_day;
use flextract::flexoffer::FlexOffer;
use flextract::scenario::{load_dir, load_file, ExportOptions, Scenario, ScenarioRunner};
use flextract::series::{missing::FillStrategy, shard::ordered_parallel_map, TimeSeries};
use flextract::sim::{simulate_fleet, FleetConfig};
use flextract::time::{Duration, Resolution, TimeRange, Timestamp};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
flextract — flex-offer extraction from electricity time series

USAGE:
  flextract simulate   [--households N] [--days D] [--seed S] --out DIR
  flextract extract    --input FILE [--approach peak|basic|random]
                       [--share F] [--seed S] [--out FILE.json]
  flextract fig5
  flextract scenario list [--dir DIR]
  flextract scenario run (--all | --name NAME) [--dir DIR] [--threads N]
                       [--consumer-threads N] [--json]
  flextract dataset export  --scenario FILE --out DIR
                       [--codec fxm3|fxm2|csv]
                       [--shard-capacity N] [--resolution-min N] [--noise F]
                       [--gap-rate F] [--mean-gap-len F] [--anomaly-rate F]
                       [--anomaly-factor F] [--anomaly-len N]
                       [--quantize-kwh F] [--seed S] [--no-truth]
  flextract dataset inspect --dataset DIR [--consumer N]
  flextract dataset compact --dataset DIR
  flextract dataset ingest  --dataset DIR [--fill linear|previous|seasonal|zero]
                       [--screen-anomalies] [--consumer N]
  flextract query      --dataset DIR [--consumer N] [--from TS] [--to TS]
                       [--agg stats|sum|mean|peak|gaps]
                       [--where gaps|min-below:F|max-above:F]
                       [--resolution-min N] [--threads N] [--repeat N] [--json]
  flextract query      --offers FILE.json [--from TS] [--to TS] [--json]
  flextract analyze    [--root DIR] [--config FILE] [--json] [--sarif FILE]
                       [--no-cache]
  flextract help

The scenario corpus lives in scenarios/ (one JSON spec per scenario);
datasets are directories with a manifest.json plus one series file per
consumer, or — with `--shard-capacity` — a sharded store (root.json over
shards/NNNN/ sub-datasets carrying statistics roll-ups). `query` runs
time-sliced aggregate queries over a dataset directory (FXM2/FXM3 files
answer from chunk statistics, skipping non-matching chunks; sharded
stores additionally prune whole shards from their roll-ups) or over an
exported flex-offer set. Dataset queries run through a process-resident
store handle (parsed indexes, decoded frames and chunk payloads stay
cached between passes); `--repeat N` re-runs the query N times so the
printed pass reports the warm path's cache hits and bytes saved.
`dataset compact` rewrites an append-fragmented sharded store into
canonical capacity-aligned shards. See the README for the spec and
dataset formats and the golden-file workflow.
";

/// Minimal flag parser: `--key value` pairs after the positionals.
#[derive(Debug, Default)]
struct Flags {
    entries: Vec<(String, String)>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        Self::parse_with_switches(args, &[])
    }

    /// Like [`Flags::parse`], but flags named in `switches` take no
    /// value (`--all`) and are recorded as `true`.
    fn parse_with_switches(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut entries = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("unexpected argument '{key}'"));
            };
            if switches.contains(&name) {
                entries.push((name.to_string(), "true".to_string()));
                continue;
            }
            let Some(value) = it.next() else {
                return Err(format!("flag --{name} needs a value"));
            };
            entries.push((name.to_string(), value.clone()));
        }
        Ok(Flags { entries })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value '{raw}' for --{name}")),
        }
    }
}

/// A command failure with an explicit process exit code.
///
/// The exit-code contract (pinned by `cli_smoke`): 1 means the command
/// ran and judged — bad flags, failed extraction, unsuppressed analyze
/// findings; 2 means the tool itself could not do its job (unreadable
/// file, malformed `analyze.toml`), with a message naming the path.
struct Failure {
    code: u8,
    msg: String,
    usage: bool,
}

impl From<String> for Failure {
    fn from(msg: String) -> Failure {
        Failure {
            code: 1,
            msg,
            usage: true,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("error: {}", failure.msg);
            if failure.usage {
                eprintln!("{USAGE}");
            }
            ExitCode::from(failure.code)
        }
    }
}

fn run(args: &[String]) -> Result<(), Failure> {
    let Some(command) = args.first() else {
        return Err(Failure::from(String::from("no command given")));
    };
    if command == "analyze" {
        let flags = Flags::parse_with_switches(&args[1..], &["json", "no-cache"])?;
        return cmd_analyze(&flags);
    }
    run_simple(command, args).map_err(Failure::from)
}

fn run_simple(command: &str, args: &[String]) -> Result<(), String> {
    match command {
        "simulate" => cmd_simulate(&Flags::parse(&args[1..])?),
        "extract" => cmd_extract(&Flags::parse(&args[1..])?),
        "fig5" => cmd_fig5(),
        "scenario" => {
            let Some(action) = args.get(1) else {
                return Err("scenario needs an action (list|run)".into());
            };
            cmd_scenario(
                action,
                &Flags::parse_with_switches(&args[2..], &["all", "json"])?,
            )
        }
        "dataset" => {
            let Some(action) = args.get(1) else {
                return Err("dataset needs an action (export|inspect|compact|ingest)".into());
            };
            cmd_dataset(
                action,
                &Flags::parse_with_switches(&args[2..], &["screen-anomalies", "no-truth"])?,
            )
        }
        "query" => cmd_query(&Flags::parse_with_switches(&args[1..], &["json"])?),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

/// The first simulated day of `simulate`: Monday 2013-03-18, the
/// EDBT'13 week.
fn fleet_start() -> Timestamp {
    Timestamp::from_ymd_hm(2013, 3, 18, 0, 0).expect("static date")
}

/// Parse and validate `simulate`'s fleet flags: households, days and
/// seed.
fn fleet_flags(flags: &Flags) -> Result<(usize, i64, u64), String> {
    let households: usize = flags.get_parsed("households", 5)?;
    if households == 0 {
        return Err("--households must be at least 1".into());
    }
    let days: i64 = flags.get_parsed("days", 7)?;
    if days < 1 {
        return Err("--days must be at least 1".into());
    }
    fleet_start().checked_add_days(days).ok_or_else(|| {
        format!("--days {days}: the horizon ends past the last representable minute")
    })?;
    let seed: u64 = flags.get_parsed("seed", 2013)?;
    Ok((households, days, seed))
}

fn cmd_simulate(flags: &Flags) -> Result<(), String> {
    let (households, days, seed) = fleet_flags(flags)?;
    let out = flags.get("out").ok_or("simulate needs --out DIR")?;
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {out}: {e}"))?;

    let horizon =
        TimeRange::starting_at(fleet_start(), Duration::days(days)).expect("days checked");
    let fleet = simulate_fleet(
        &FleetConfig {
            households,
            base_seed: seed,
            threads: 4,
            ..FleetConfig::default()
        },
        horizon,
    );
    let write = |name: &str, series: &MeasuredSeries, format: SeriesCodec| {
        let path = Path::new(out).join(format!("{name}.{}", format.extension()));
        std::fs::write(&path, codec::encode(series, format))
            .map_err(|e| format!("write {}: {e}", path.display()))
    };
    for h in &fleet.households {
        let market = MeasuredSeries::from_series(&h.series_at(Resolution::MIN_15));
        let name = format!("household_{}", h.config.id);
        write(&name, &market, SeriesCodec::Csv)?;
        write(&name, &market, SeriesCodec::BinaryV3)?;
    }
    let total = MeasuredSeries::from_series(&fleet.total);
    write("fleet_total", &total, SeriesCodec::Csv)?;
    println!(
        "simulated {households} households × {days} days → {out}/ ({:.0} kWh total, {:.1} % truly flexible)",
        fleet.total.total_energy(),
        fleet.true_flexible_share() * 100.0
    );
    Ok(())
}

fn cmd_extract(flags: &Flags) -> Result<(), String> {
    let input = flags.get("input").ok_or("extract needs --input FILE")?;
    let approach = flags.get("approach").unwrap_or("peak");
    let share: f64 = flags.get_parsed("share", 0.05)?;
    let seed: u64 = flags.get_parsed("seed", 2013)?;

    let series = read_series(Path::new(input))?;
    let cfg = ExtractionConfig::with_share(share);
    let extractor: Box<dyn FlexibilityExtractor> = match approach {
        "peak" => Box::new(PeakExtractor::new(cfg)),
        "basic" => Box::new(BasicExtractor::new(cfg)),
        "random" => Box::new(RandomExtractor::new(cfg)),
        other => return Err(format!("unknown approach '{other}' (peak|basic|random)")),
    };
    let out = extractor
        .extract(
            &ExtractionInput::household(&series),
            &mut StdRng::seed_from_u64(seed),
        )
        .map_err(|e| format!("extraction failed: {e}"))?;
    println!(
        "{}: {} flex-offers, {:.2} kWh extracted ({:.2} % of {:.2} kWh)",
        out.approach,
        out.flex_offers.len(),
        out.extracted_energy(),
        out.achieved_share() * 100.0,
        series.total_energy()
    );
    for offer in &out.flex_offers {
        println!("  {offer}");
    }
    if let Some(path) = flags.get("out") {
        let json = serde_json::to_string_pretty(&out.flex_offers)
            .map_err(|e| format!("serialise offers: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))?;
        println!("offers written to {path}");
    }
    Ok(())
}

fn cmd_fig5() -> Result<(), String> {
    let day = fig5_day();
    let out = PeakExtractor::new(ExtractionConfig::default())
        .extract(
            &ExtractionInput::household(&day),
            &mut StdRng::seed_from_u64(5),
        )
        .map_err(|e| format!("{e}"))?;
    let report = &out.diagnostics.peak_reports[0];
    println!(
        "Figure-5 day: total {:.2} kWh, threshold {:.4}, filter {:.3} kWh",
        report.day_total_kwh, report.threshold_kwh, report.min_peak_energy_kwh
    );
    for p in &report.peaks {
        println!(
            "  peak {}: size {:.2} kWh — {}",
            p.number,
            p.size_kwh,
            if p.survived_filter {
                format!("survives (p = {:.0} %)", p.probability * 100.0)
            } else {
                "discarded".into()
            }
        );
    }
    Ok(())
}

/// Parse a `--threads`-shaped flag, rejecting 0 with a clear message.
fn thread_flag(flags: &Flags, name: &str, default: usize) -> Result<usize, String> {
    let value: usize = flags.get_parsed(name, default)?;
    if value == 0 {
        return Err(format!("--{name} must be at least 1"));
    }
    Ok(value)
}

/// Clamp an over-sized thread count to what the workload can actually
/// use. An explicitly passed flag is clamped loudly on stderr; a
/// default is adjusted silently (defaults are a convenience, not a
/// user statement about the corpus).
fn clamp_with_warning(
    value: usize,
    available: usize,
    explicit: bool,
    flag: &str,
    unit: &str,
) -> usize {
    let available = available.max(1);
    if value > available {
        if explicit {
            eprintln!(
                "warning: {flag} {value} exceeds the {available} {unit}; clamping to {available}"
            );
        }
        return available;
    }
    value
}

fn cmd_scenario(action: &str, flags: &Flags) -> Result<(), String> {
    let dir = flags.get("dir").unwrap_or("scenarios");
    match action {
        "list" => {
            let corpus = load_dir(Path::new(dir)).map_err(|e| e.to_string())?;
            if corpus.is_empty() {
                println!("no scenarios in {dir}/");
                return Ok(());
            }
            println!(
                "{:<28} {:>9} {:>5} {:>7} {:<12} description",
                "name", "consumers", "days", "res", "extractor"
            );
            for s in &corpus {
                println!(
                    "{:<28} {:>9} {:>5} {:>6}m {:<12} {}",
                    s.name,
                    s.workload.consumers(),
                    s.days,
                    s.resolution_min,
                    s.extractor.label(),
                    s.description
                );
            }
            Ok(())
        }
        "run" => {
            let selected: Vec<Scenario> = if flags.get("all").is_some() {
                load_dir(Path::new(dir)).map_err(|e| e.to_string())?
            } else if let Some(name) = flags.get("name") {
                // Load only the requested spec (file stem == scenario
                // name by corpus convention), so one broken unrelated
                // file cannot block a valid scenario from running.
                let path = Path::new(dir).join(format!("{name}.json"));
                if !path.is_file() {
                    return Err(format!("no scenario named '{name}' in {dir}/"));
                }
                vec![load_file(&path).map_err(|e| e.to_string())?]
            } else {
                return Err("scenario run needs --all or --name NAME".into());
            };
            if selected.is_empty() {
                return Err(format!("no scenarios in {dir}/ — nothing to run"));
            }
            // Both thread counts are validated here, at the CLI layer,
            // so a bad value gets a message instead of a silent clamp
            // deep inside the runner: zero is an error, and anything
            // beyond what the corpus/fleet can use is clamped loudly.
            let threads = thread_flag(flags, "threads", 4)?;
            let consumer_threads = thread_flag(flags, "consumer-threads", 1)?;
            let threads = clamp_with_warning(
                threads,
                selected.len(),
                flags.get("threads").is_some(),
                "--threads",
                "scenario(s)",
            );
            let largest_fleet = selected
                .iter()
                .map(|s| s.workload.consumers())
                .max()
                .unwrap_or(1);
            let consumer_threads = clamp_with_warning(
                consumer_threads,
                largest_fleet,
                flags.get("consumer-threads").is_some(),
                "--consumer-threads",
                "consumers in the largest workload",
            );
            let json_mode = flags.get("json").is_some();
            let runner =
                ScenarioRunner::with_threads(threads).with_consumer_threads(consumer_threads);
            let results = runner.run_all(&selected);
            let mut failures = Vec::new();
            let mut reports = Vec::new();
            for (scenario, result) in selected.iter().zip(results) {
                match result {
                    Ok(outcome) => {
                        let line =
                            format!("{} [{} ms]", outcome.report.summary(), outcome.wall_time_ms);
                        // With --json, stdout carries only the JSON
                        // array so it pipes cleanly into jq and co.
                        if json_mode {
                            eprintln!("{line}");
                        } else {
                            println!("{line}");
                        }
                        reports.push(outcome.report);
                    }
                    Err(e) => failures.push(format!("{}: {e}", scenario.name)),
                }
            }
            if json_mode {
                let json = serde_json::to_string_pretty(&reports)
                    .map_err(|e| format!("serialise reports: {e}"))?;
                println!("{json}");
            }
            if failures.is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "{} scenario(s) failed:\n  {}",
                    failures.len(),
                    failures.join("\n  ")
                ))
            }
        }
        other => Err(format!("unknown scenario action '{other}' (list|run)")),
    }
}

fn cmd_dataset(action: &str, flags: &Flags) -> Result<(), String> {
    match action {
        "export" => cmd_dataset_export(flags),
        "inspect" => cmd_dataset_inspect(flags),
        "compact" => cmd_dataset_compact(flags),
        "ingest" => cmd_dataset_ingest(flags),
        other => Err(format!(
            "unknown dataset action '{other}' (export|inspect|compact|ingest)"
        )),
    }
}

fn cmd_dataset_export(flags: &Flags) -> Result<(), String> {
    let spec = flags
        .get("scenario")
        .ok_or("dataset export needs --scenario FILE")?;
    let out = flags.get("out").ok_or("dataset export needs --out DIR")?;
    let scenario = load_file(Path::new(spec)).map_err(|e| e.to_string())?;
    // FXM3 is the default: the same per-chunk statistics + footer
    // index as FXM2, with payloads XOR-compressed losslessly, so the
    // exported dataset supports ranged reads and pushdown queries on a
    // smaller file. `fxm2` keeps uncompressed payloads, `csv` is the
    // readable one.
    let codec = match flags.get("codec").unwrap_or("fxm3") {
        "csv" => SeriesCodec::Csv,
        "fxm3" => SeriesCodec::BinaryV3,
        "binary" | "fxm" | "fxm2" => SeriesCodec::Binary,
        other => return Err(format!("unknown codec '{other}' (fxm3|fxm2|csv)")),
    };
    let mut degradation = Degradation::default();
    if let Some(raw) = flags.get("resolution-min") {
        degradation.resolution_min = Some(
            raw.parse()
                .map_err(|_| format!("invalid value '{raw}' for --resolution-min"))?,
        );
    }
    degradation.noise_std = flags.get_parsed("noise", degradation.noise_std)?;
    degradation.gap_rate = flags.get_parsed("gap-rate", degradation.gap_rate)?;
    degradation.mean_gap_len = flags.get_parsed("mean-gap-len", degradation.mean_gap_len)?;
    degradation.anomaly_rate = flags.get_parsed("anomaly-rate", degradation.anomaly_rate)?;
    degradation.anomaly_factor = flags.get_parsed("anomaly-factor", degradation.anomaly_factor)?;
    degradation.anomaly_len = flags.get_parsed("anomaly-len", degradation.anomaly_len)?;
    degradation.quantize_kwh = flags.get_parsed("quantize-kwh", degradation.quantize_kwh)?;
    let seed = flags
        .get("seed")
        .map(|raw| {
            raw.parse::<u64>()
                .map_err(|_| format!("invalid value '{raw}' for --seed"))
        })
        .transpose()?;
    let shard_capacity = flags
        .get("shard-capacity")
        .map(|raw| {
            let n: usize = raw
                .parse()
                .map_err(|_| format!("invalid value '{raw}' for --shard-capacity"))?;
            if n == 0 {
                return Err("--shard-capacity must be at least 1".to_string());
            }
            Ok(n)
        })
        .transpose()?;
    let options = ExportOptions {
        degradation,
        codec,
        seed,
        include_truth: flags.get("no-truth").is_none(),
        shard_capacity,
    };
    let summary = flextract::scenario::export_dataset(&scenario, Path::new(out), &options)
        .map_err(|e| e.to_string())?;
    let layout = match shard_capacity {
        None => String::new(),
        Some(c) => format!(", sharded at {c} consumers/shard"),
    };
    println!(
        "exported `{}`: {} consumers × {} intervals @ {} min → {} ({} gaps injected{layout})",
        scenario.name,
        summary.consumers,
        summary.intervals,
        summary.resolution_min,
        summary.dir.display(),
        summary.gap_count
    );
    Ok(())
}

fn cmd_dataset_compact(flags: &Flags) -> Result<(), String> {
    let dir = flags
        .get("dataset")
        .ok_or("dataset compact needs --dataset DIR")?;
    let summary = flextract::dataset::compact(Path::new(dir)).map_err(|e| e.to_string())?;
    println!(
        "compacted {dir}: {} consumer(s), {} shard(s) → {} shard(s) at {} consumers/shard",
        summary.consumers, summary.shards_before, summary.shards_after, summary.root.shard_capacity
    );
    Ok(())
}

fn cmd_dataset_inspect(flags: &Flags) -> Result<(), String> {
    let dir = flags
        .get("dataset")
        .ok_or("dataset inspect needs --dataset DIR")?;
    let ds = Dataset::open(Path::new(dir)).map_err(|e| e.to_string())?;
    println!(
        "{}: {} consumers × {} intervals @ {} min from {} ({} codec) — {}",
        ds.name(),
        ds.len(),
        ds.intervals(),
        ds.resolution_min(),
        ds.start_str(),
        ds.codec().label(),
        ds.description()
    );
    if let Some(src) = ds.source_scenario() {
        println!(
            "  exported from scenario `{src}` (degradation seed {})",
            ds.seed().map_or("?".to_string(), |s| s.to_string())
        );
    }
    let truth_suffix = |c: &flextract::dataset::ConsumerEntry| {
        if c.truth_total.is_some() {
            ", carries ground truth"
        } else {
            ""
        }
    };
    // `--consumer N`: one consumer's summary line, any layout. An
    // out-of-range index surfaces the store's typed error, which names
    // the valid range and the dataset directory.
    if let Some(raw) = flags.get("consumer") {
        let idx: usize = raw
            .parse()
            .map_err(|_| format!("invalid value '{raw}' for --consumer"))?;
        let entry = ds.consumer_entry(idx).map_err(|e| e.to_string())?;
        let (agg, report) = ds
            .consumer_aggregates(idx, &Scan::new())
            .map_err(|e| e.to_string())?;
        println!(
            "  [{idx}] {} ({:?}): {} gap(s){} — {:.2} kWh observed, min {} max {} per interval \
             ({}/{} chunks from statistics alone)",
            entry.id,
            entry.kind,
            agg.gaps,
            truth_suffix(&entry),
            agg.sum_kwh,
            agg.min.map_or("-".to_string(), |v| format!("{v:.3}")),
            agg.max.map_or("-".to_string(), |v| format!("{v:.3}")),
            report.chunks_stats_only,
            report.chunks_total,
        );
        return Ok(());
    }
    // A sharded store summarises from the root roll-ups alone: no
    // shard manifest and no series file is opened, so inspecting a
    // million-consumer store stays O(shards).
    if let Some(root) = ds.root() {
        println!(
            "  sharded store: {} shard(s) at {} consumers/shard capacity",
            root.shards.len(),
            root.shard_capacity
        );
        println!(
            "  {:>5} {:>9} {:>9} {:>8} {:>12} {:>8} {:>8}",
            "shard", "consumers", "w/ truth", "gaps", "sum kWh", "min", "max"
        );
        for s in &root.shards {
            println!(
                "  {:>5} {:>9} {:>9} {:>8} {:>12.2} {:>8} {:>8}",
                s.dir_name(),
                s.consumers,
                s.with_truth,
                s.gap_count,
                s.sum_kwh,
                s.min_kwh.map_or("-".to_string(), |v| format!("{v:.3}")),
                s.max_kwh.map_or("-".to_string(), |v| format!("{v:.3}")),
            );
        }
        println!("  (roll-ups only — no shard was opened; use --consumer N for one series)");
        return Ok(());
    }
    let entries = (0..ds.len())
        .map(|i| ds.consumer_entry(i))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    if matches!(ds.codec(), SeriesCodec::Binary | SeriesCodec::BinaryV3) {
        // FXM2/FXM3: per-consumer stats are *streamed*, one consumer
        // at a time, straight from the chunk statistics headers — no
        // payload ever decodes and nothing is materialized. Each line
        // also carries the consumer's on-disk footprint and the codec
        // the file actually sniffs as (legacy files keep loading by
        // magic whatever the manifest declares).
        let mut stat_only_chunks = 0usize;
        let mut total_chunks = 0usize;
        for (i, c) in entries.iter().enumerate() {
            let (agg, report) = ds
                .consumer_aggregates(i, &Scan::new())
                .map_err(|e| e.to_string())?;
            stat_only_chunks += report.chunks_stats_only;
            total_chunks += report.chunks_total;
            println!(
                "  [{i}] {} ({:?}): {} gap(s){} — {:.2} kWh observed, min {} max {} per \
                 interval [{} B on disk, {}]",
                c.id,
                c.kind,
                agg.gaps,
                truth_suffix(c),
                agg.sum_kwh,
                agg.min.map_or("-".to_string(), |v| format!("{v:.3}")),
                agg.max.map_or("-".to_string(), |v| format!("{v:.3}")),
                report.bytes_read,
                sniffed_codec_label(&ds, &c.measured),
            );
        }
        println!(
            "  {stat_only_chunks}/{total_chunks} chunks summarised from statistics alone \
             (no payload decode)"
        );
    } else {
        // Stat-less codecs would need a full decode per consumer just
        // to print a summary line; answer from the manifest instead
        // and leave per-interval statistics to `flextract query`.
        for (i, c) in entries.iter().enumerate() {
            println!(
                "  [{i}] {} ({:?}): {} gap(s){}",
                c.id,
                c.kind,
                c.gap_count,
                truth_suffix(c)
            );
        }
        println!(
            "  (per-interval statistics need the fxm3 or fxm2 codec; this {} dataset is \
             summarised from the manifest — use `flextract query` to scan it)",
            ds.codec().label()
        );
    }
    Ok(())
}

/// The codec a series file actually carries, sniffed from its first
/// bytes (reads 4 bytes — never the payload). Falls back to "csv" for
/// non-binary files and "?" when the file cannot be read.
fn sniffed_codec_label(ds: &Dataset, file: &str) -> &'static str {
    let path = ds.dir().join(file);
    let mut magic = [0u8; 4];
    let ok = std::fs::File::open(&path)
        .and_then(|mut f| std::io::Read::read_exact(&mut f, &mut magic))
        .is_ok();
    if !ok {
        return "?";
    }
    match codec::sniff(&magic) {
        Some(codec::FxmVersion::V1) => "fxm1",
        Some(codec::FxmVersion::V2) => "fxm2",
        Some(codec::FxmVersion::V3) => "fxm3",
        None => "csv",
    }
}

fn cmd_dataset_ingest(flags: &Flags) -> Result<(), String> {
    let dir = flags
        .get("dataset")
        .ok_or("dataset ingest needs --dataset DIR")?;
    let fill = match flags.get("fill").unwrap_or("linear") {
        "linear" => FillStrategy::Linear,
        "previous" => FillStrategy::Previous,
        "seasonal" => FillStrategy::SeasonalDaily,
        "zero" => FillStrategy::Zero,
        other => {
            return Err(format!(
                "unknown fill strategy '{other}' (linear|previous|seasonal|zero)"
            ))
        }
    };
    let cfg = CleaningConfig {
        fill,
        screen_anomalies: flags.get("screen-anomalies").is_some(),
        ..CleaningConfig::default()
    };
    let ds = Dataset::open(Path::new(dir)).map_err(|e| e.to_string())?;
    let indices: Vec<usize> = match flags.get("consumer") {
        Some(raw) => {
            let idx: usize = raw
                .parse()
                .map_err(|_| format!("invalid value '{raw}' for --consumer"))?;
            if idx >= ds.len() {
                return Err(format!(
                    "--consumer {idx} out of range (dataset has {} consumers)",
                    ds.len()
                ));
            }
            vec![idx]
        }
        None => (0..ds.len()).collect(),
    };
    for idx in indices {
        let record = ds.consumer(idx).map_err(|e| e.to_string())?;
        let id = record.entry.id.clone();
        let (series, report) =
            flextract::dataset::ingest::clean(record.measured, &cfg).map_err(|e| e.to_string())?;
        println!(
            "  [{idx}] {id}: {} gap(s) filled, {} anomaly run(s) screened \
             ({} interval(s), {:.3} kWh adjusted) → {:.2} kWh clean",
            report.gaps_filled,
            report.anomalies_screened,
            report.anomalous_intervals,
            report.screened_kwh,
            series.total_energy()
        );
    }
    Ok(())
}

/// One consumer's row in a `flextract query` result.
#[derive(Serialize)]
struct QueryRow {
    consumer: String,
    intervals: usize,
    observed: usize,
    gaps: usize,
    sum_kwh: f64,
    mean_kwh: Option<f64>,
    min_kwh: Option<f64>,
    max_kwh: Option<f64>,
    peak_at: Option<String>,
    peak_kwh: Option<f64>,
    chunks_total: usize,
    chunks_decoded: usize,
    chunks_skipped: usize,
    chunks_stats_only: usize,
    bytes_read: usize,
    bytes_decoded: usize,
    bytes_read_index: usize,
    cache_hits: usize,
    bytes_saved: usize,
}

/// Parse `--from`/`--to` into a time slice over `[default_from,
/// default_to)`; errors name the offending flag.
fn parse_slice(
    flags: &Flags,
    default_from: Timestamp,
    default_to: Timestamp,
) -> Result<TimeRange, String> {
    let parse = |name: &str, default: Timestamp| -> Result<Timestamp, String> {
        match flags.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|e| format!("invalid value '{raw}' for --{name}: {e}")),
        }
    };
    let from = parse("from", default_from)?;
    let to = parse("to", default_to)?;
    TimeRange::new(from, to)
        .map_err(|_| format!("--to {to} lies before --from {from} (empty query range)"))
}

/// `flextract analyze`: run the workspace lint engine and report
/// structured findings. Exit status is the gate — unsuppressed
/// findings exit 1; a failure of the analysis itself (unreadable file,
/// malformed config) exits 2 with a message naming the path.
fn cmd_analyze(flags: &Flags) -> Result<(), Failure> {
    let internal = |msg: String| Failure {
        code: 2,
        msg,
        usage: false,
    };
    let root = Path::new(flags.get("root").unwrap_or("."));
    let allowlist = match flags.get("config") {
        Some(path) => flextract::analyze::Allowlist::load(Path::new(path)).map_err(internal)?,
        None => flextract::analyze::load_allowlist(root).map_err(internal)?,
    };
    let opts = flextract::analyze::AnalyzeOptions {
        cache_path: if flags.get("no-cache").is_some() {
            None
        } else {
            Some(flextract::analyze::default_cache_path(root))
        },
    };
    let analysis =
        flextract::analyze::analyze_tree_with(root, &allowlist, &opts).map_err(internal)?;
    if let Some(path) = flags.get("sarif") {
        std::fs::write(path, analysis.render_sarif())
            .map_err(|e| internal(format!("cannot write {path}: {e}")))?;
    }
    if flags.get("json").is_some() {
        print!("{}", analysis.render_json());
    } else {
        print!("{}", analysis.render_text());
    }
    if analysis.is_clean() {
        Ok(())
    } else {
        Err(Failure {
            code: 1,
            usage: false,
            msg: format!(
                "analyze: {} unsuppressed finding(s) — fix them or add a justified \
                 suppression to analyze.toml",
                analysis.findings.len()
            ),
        })
    }
}

fn cmd_query(flags: &Flags) -> Result<(), String> {
    match (flags.get("dataset"), flags.get("offers")) {
        (Some(_), Some(_)) => Err("query takes --dataset DIR or --offers FILE, not both".into()),
        (Some(dir), None) => query_dataset(dir, flags),
        (None, Some(file)) => query_offers(file, flags),
        (None, None) => Err("query needs --dataset DIR or --offers FILE".into()),
    }
}

/// Parse the `--where` predicate, naming the flag in errors.
fn parse_predicate(raw: &str) -> Result<Predicate, String> {
    let invalid = |what: String| {
        format!("invalid value '{raw}' for --where: {what} (gaps|min-below:F|max-above:F)")
    };
    if raw == "gaps" {
        return Ok(Predicate::HasGaps);
    }
    let threshold = |rest: &str| -> Result<f64, String> {
        let v: f64 = rest
            .parse()
            .map_err(|_| invalid(format!("threshold `{rest}` is not a number")))?;
        if !v.is_finite() {
            return Err(invalid("threshold must be finite".into()));
        }
        Ok(v)
    };
    if let Some(rest) = raw.strip_prefix("min-below:") {
        return Ok(Predicate::MinBelow(threshold(rest)?));
    }
    if let Some(rest) = raw.strip_prefix("max-above:") {
        return Ok(Predicate::MaxAbove(threshold(rest)?));
    }
    Err(invalid("unknown predicate".into()))
}

fn query_dataset(dir: &str, flags: &Flags) -> Result<(), String> {
    let want_agg = flags.get("agg").unwrap_or("stats");
    if !["stats", "sum", "mean", "peak", "gaps"].contains(&want_agg) {
        return Err(format!(
            "invalid value '{want_agg}' for --agg (stats|sum|mean|peak|gaps)"
        ));
    }
    let predicate = flags.get("where").map(parse_predicate).transpose()?;
    let resample = flags
        .get("resolution-min")
        .map(|raw| -> Result<Resolution, String> {
            let minutes: i64 = raw
                .parse()
                .map_err(|_| format!("invalid value '{raw}' for --resolution-min"))?;
            Resolution::from_minutes(minutes)
                .map_err(|e| format!("invalid value '{raw}' for --resolution-min: {e}"))
        })
        .transpose()?;
    if resample.is_some() && predicate.is_some() {
        return Err(
            "--where cannot combine with --resolution-min (a filtered selection \
                    is not a contiguous series to resample)"
                .into(),
        );
    }

    let repeat: usize = flags.get_parsed("repeat", 1)?;
    if repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }

    // All dataset queries run through the process-resident handle:
    // indexes are parsed once per process, and repeat passes (or later
    // queries in the same process) reuse cached frames and decoded
    // chunk payloads. Answers are bit-identical to a fresh open by
    // construction.
    let store = ResidentStore::shared(Path::new(dir)).map_err(|e| e.to_string())?;
    let ds = store.dataset().map_err(|e| e.to_string())?;
    let ds_start = ds.start_timestamp().map_err(|e| e.to_string())?;
    let ds_end = ds_start + Duration::minutes(ds.intervals() as i64 * ds.resolution_min());
    let slice = parse_slice(flags, ds_start, ds_end)?;
    let mut scan = Scan::new().time_slice(slice);
    if let Some(p) = predicate {
        scan = scan.with_predicate(p);
    }

    // An out-of-range index is *not* rejected here: the store's typed
    // error names the valid range and the dataset directory, which is
    // strictly more useful than anything the CLI could synthesise.
    let consumer_flag: Option<usize> = flags
        .get("consumer")
        .map(|raw| {
            raw.parse()
                .map_err(|_| format!("invalid value '{raw}' for --consumer"))
        })
        .transpose()?;

    if ds.is_sharded() && consumer_flag.is_none() {
        return query_sharded_fleet(
            &store,
            &scan,
            slice,
            want_agg,
            resample.is_some(),
            repeat,
            flags,
        );
    }

    let indices: Vec<usize> = match consumer_flag {
        Some(idx) => vec![idx],
        None => (0..ds.len()).collect(),
    };

    let mut rows = Vec::with_capacity(indices.len());
    let mut scratch = Vec::new();
    for pass in 0..repeat {
        rows.clear();
        for &idx in &indices {
            let id = ds.consumer_entry(idx).map_err(|e| e.to_string())?.id;
            let idx_bytes = ds.consumer_index_bytes(idx).map_err(|e| e.to_string())?;
            let (agg, report, resampled) = match resample {
                None => {
                    let (agg, mut report) = store
                        .consumer_aggregates_with(idx, &scan, &mut scratch)
                        .map_err(|e| e.to_string())?;
                    // The resident handle was opened by this process,
                    // so the first pass genuinely paid the index
                    // parse: charge it as read there; later passes
                    // keep reporting it saved.
                    if pass == 0 && report.bytes_read_index == 0 {
                        report.bytes_saved = report.bytes_saved.saturating_sub(idx_bytes);
                        report.bytes_read_index = idx_bytes;
                    }
                    (agg, report, None)
                }
                Some(target) => {
                    // Materialization reads through the cached frame
                    // but keeps its own counters (a resampled series
                    // has no chunk-level reuse to account).
                    let frame = store.consumer_frame(idx).map_err(|e| e.to_string())?;
                    let (series, mut report) = scan
                        .materialize_resampled(&frame, target)
                        .map_err(|e| e.to_string())?;
                    if pass == 0 {
                        report.bytes_read_index = idx_bytes;
                    } else {
                        report.bytes_saved += idx_bytes;
                    }
                    (
                        Aggregates::from_values(series.values()),
                        report,
                        Some(series),
                    )
                }
            };
            let peak = if want_agg == "peak" {
                match &resampled {
                    // The audit row keeps the aggregate scan's counters;
                    // the peak pass is a second scan with its own (small)
                    // decode cost, not folded in.
                    None => {
                        let frame = store.consumer_frame(idx).map_err(|e| e.to_string())?;
                        scan.peak(&frame).map_err(|e| e.to_string())?.0
                    }
                    Some(series) => series
                        .values()
                        .iter()
                        .enumerate()
                        .filter(|(_, v)| !v.is_nan())
                        .fold(None::<(usize, f64)>, |best, (i, &v)| match best {
                            Some((_, bv)) if v <= bv => best,
                            _ => Some((i, v)),
                        })
                        .map(|(i, v)| (series.timestamp_of(i), v)),
                }
            } else {
                None
            };
            rows.push(QueryRow {
                consumer: id,
                intervals: agg.intervals,
                observed: agg.observed,
                gaps: agg.gaps,
                sum_kwh: agg.sum_kwh,
                mean_kwh: agg.mean(),
                min_kwh: agg.min,
                max_kwh: agg.max,
                peak_at: peak.map(|(t, _)| t.to_string()),
                peak_kwh: peak.map(|(_, v)| v),
                chunks_total: report.chunks_total,
                chunks_decoded: report.chunks_decoded,
                chunks_skipped: report.chunks_skipped_slice + report.chunks_skipped_stats,
                chunks_stats_only: report.chunks_stats_only,
                bytes_read: report.bytes_read,
                bytes_decoded: report.bytes_decoded,
                bytes_read_index: report.bytes_read_index,
                cache_hits: report.cache_hits,
                bytes_saved: report.bytes_saved,
            });
        }
    }

    if flags.get("json").is_some() {
        let json = serde_json::to_string_pretty(&rows)
            .map_err(|e| format!("serialise query rows: {e}"))?;
        println!("{json}");
        return Ok(());
    }
    // The chosen aggregate selects the printed columns (JSON rows
    // always carry every field — scripts pick what they need).
    println!("query over {slice} ({want_agg}):");
    let fmt_opt = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.3}"));
    // The audit column pairs chunk counts with the payload bytes the
    // decodes actually touched — 0 B whenever statistics answered.
    let audit = |r: &QueryRow| {
        format!(
            "{}/{}/{} ({} B)",
            r.chunks_decoded, r.chunks_skipped, r.chunks_stats_only, r.bytes_decoded
        )
    };
    match want_agg {
        "sum" => {
            println!(
                "{:<10} {:>9} {:>12} {:>22}",
                "consumer", "intervals", "sum kWh", "chunks dec/skip/stat (B)"
            );
            for r in &rows {
                println!(
                    "{:<10} {:>9} {:>12.3} {:>22}",
                    r.consumer,
                    r.intervals,
                    r.sum_kwh,
                    audit(r)
                );
            }
        }
        "mean" => {
            println!(
                "{:<10} {:>9} {:>9} {:>22}",
                "consumer", "observed", "mean", "chunks dec/skip/stat (B)"
            );
            for r in &rows {
                println!(
                    "{:<10} {:>9} {:>9} {:>22}",
                    r.consumer,
                    r.observed,
                    fmt_opt(r.mean_kwh),
                    audit(r)
                );
            }
        }
        "gaps" => {
            println!(
                "{:<10} {:>9} {:>6} {:>7} {:>22}",
                "consumer", "intervals", "gaps", "gap %", "chunks dec/skip/stat (B)"
            );
            for r in &rows {
                let pct = if r.intervals > 0 {
                    100.0 * r.gaps as f64 / r.intervals as f64
                } else {
                    0.0
                };
                println!(
                    "{:<10} {:>9} {:>6} {:>6.1}% {:>22}",
                    r.consumer,
                    r.intervals,
                    r.gaps,
                    pct,
                    audit(r)
                );
            }
        }
        // "stats" and "peak" print the full row (peak adds its line).
        _ => {
            println!(
                "{:<10} {:>9} {:>9} {:>6} {:>12} {:>9} {:>8} {:>8} {:>22}",
                "consumer",
                "intervals",
                "observed",
                "gaps",
                "sum kWh",
                "mean",
                "min",
                "max",
                "chunks dec/skip/stat (B)"
            );
            for r in &rows {
                println!(
                    "{:<10} {:>9} {:>9} {:>6} {:>12.3} {:>9} {:>8} {:>8} {:>22}",
                    r.consumer,
                    r.intervals,
                    r.observed,
                    r.gaps,
                    r.sum_kwh,
                    fmt_opt(r.mean_kwh),
                    fmt_opt(r.min_kwh),
                    fmt_opt(r.max_kwh),
                    audit(r),
                );
                if let (Some(at), Some(kwh)) = (&r.peak_at, r.peak_kwh) {
                    println!("{:<10}   peak {kwh:.3} kWh at {at}", "");
                }
            }
        }
    }
    let decoded: usize = rows.iter().map(|r| r.chunks_decoded).sum();
    let total: usize = rows.iter().map(|r| r.chunks_total).sum();
    let bytes_read: usize = rows.iter().map(|r| r.bytes_read).sum();
    let bytes_decoded: usize = rows.iter().map(|r| r.bytes_decoded).sum();
    let bytes_read_index: usize = rows.iter().map(|r| r.bytes_read_index).sum();
    let cache_hits: usize = rows.iter().map(|r| r.cache_hits).sum();
    let bytes_saved: usize = rows.iter().map(|r| r.bytes_saved).sum();
    println!(
        "{} consumer(s); decoded {decoded}/{total} chunks ({:.0} % skipped); \
         read {bytes_read} B + {bytes_read_index} B of index, \
         decoded {bytes_decoded} B of payload; \
         {cache_hits} cache hit(s), {bytes_saved} B saved",
        rows.len(),
        if total > 0 {
            100.0 * (1.0 - decoded as f64 / total as f64)
        } else {
            0.0
        }
    );
    Ok(())
}

/// Fleet-level result row for a query over a sharded store.
#[derive(Serialize)]
struct FleetQueryRow {
    consumers: usize,
    intervals: usize,
    observed: usize,
    gaps: usize,
    sum_kwh: f64,
    mean_kwh: Option<f64>,
    min_kwh: Option<f64>,
    max_kwh: Option<f64>,
    shards_total: usize,
    shards_pruned: usize,
    shards_stats_only: usize,
    shards_opened: usize,
    chunks_total: usize,
    chunks_decoded: usize,
    bytes_read: usize,
    bytes_decoded: usize,
    bytes_read_index: usize,
    cache_hits: usize,
    bytes_saved: usize,
}

/// Fleet mode: a query over a sharded store without `--consumer`
/// answers from shard roll-ups where it can, opens only the shards the
/// statistics cannot exclude, and merges in shard-index order so the
/// output is byte-identical at any `--threads` value. Repeat passes
/// run against the same resident snapshot, so parsed shard manifests
/// (and opened shard handles) are reused; the printed pass moves the
/// index bytes it did not re-read into `bytes_saved`.
fn query_sharded_fleet(
    store: &ResidentStore,
    scan: &Scan,
    slice: TimeRange,
    want_agg: &str,
    resample: bool,
    repeat: usize,
    flags: &Flags,
) -> Result<(), String> {
    if want_agg == "peak" {
        return Err(
            "--agg peak needs --consumer N on a sharded store (the fleet \
             roll-up keeps no per-interval values to locate a peak in)"
                .into(),
        );
    }
    if resample {
        return Err(
            "--resolution-min needs --consumer N on a sharded store (only a \
             single series materializes for resampling)"
                .into(),
        );
    }
    let threads = thread_flag(flags, "threads", 4)?;
    // One revalidated snapshot for every pass: each pass answers from
    // a single generation, and warm passes reuse the parsed indexes.
    let ds = store.dataset().map_err(|e| e.to_string())?;
    let n = ds.shard_count();
    let mut agg = Aggregates::default();
    let mut report = ScanReport::default();
    for pass in 0..repeat {
        agg = Aggregates::default();
        report = ScanReport::default();
        // Each worker scans whole shards with its own decode scratch;
        // the consume callback runs on this thread in strict shard
        // order, so the merge association — and therefore every float
        // — is the same one `fleet_aggregates` produces serially.
        ordered_parallel_map(
            n,
            threads,
            |k| {
                let mut scratch = Vec::new();
                ds.shard_aggregates(k, scan, &mut scratch)
                    .map_err(|e| e.to_string())
            },
            |_, (a, r)| {
                agg.merge(&a);
                report.absorb(&r);
                Ok(())
            },
        )?;
        // Shard scans charge the manifests they consulted; the root
        // index is charged once per query on top. Warm passes did not
        // re-read any of it — the bytes move to the saved column.
        let index_total = report.bytes_read_index + ds.index_bytes();
        if pass == 0 {
            report.bytes_read_index = index_total;
        } else {
            report.bytes_read_index = 0;
            report.bytes_saved += index_total;
            report.cache_hits += 1;
        }
    }
    let row = FleetQueryRow {
        consumers: ds.len(),
        intervals: agg.intervals,
        observed: agg.observed,
        gaps: agg.gaps,
        sum_kwh: agg.sum_kwh,
        mean_kwh: agg.mean(),
        min_kwh: agg.min,
        max_kwh: agg.max,
        shards_total: report.shards_total,
        shards_pruned: report.shards_pruned,
        shards_stats_only: report.shards_stats_only,
        shards_opened: report.shards_opened(),
        chunks_total: report.chunks_total,
        chunks_decoded: report.chunks_decoded,
        bytes_read: report.bytes_read,
        bytes_decoded: report.bytes_decoded,
        bytes_read_index: report.bytes_read_index,
        cache_hits: report.cache_hits,
        bytes_saved: report.bytes_saved,
    };
    if flags.get("json").is_some() {
        let json = serde_json::to_string_pretty(&row)
            .map_err(|e| format!("serialise fleet query row: {e}"))?;
        println!("{json}");
        return Ok(());
    }
    let fmt_opt = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.3}"));
    println!("fleet query over {slice} ({want_agg}):");
    println!(
        "{:<10} {:>9} {:>9} {:>6} {:>14} {:>9} {:>8} {:>8}",
        "consumers", "intervals", "observed", "gaps", "sum kWh", "mean", "min", "max"
    );
    println!(
        "{:<10} {:>9} {:>9} {:>6} {:>14.3} {:>9} {:>8} {:>8}",
        row.consumers,
        row.intervals,
        row.observed,
        row.gaps,
        row.sum_kwh,
        fmt_opt(row.mean_kwh),
        fmt_opt(row.min_kwh),
        fmt_opt(row.max_kwh),
    );
    let pruned_pct = if row.shards_total > 0 {
        100.0 * (row.shards_total - row.shards_opened) as f64 / row.shards_total as f64
    } else {
        0.0
    };
    println!(
        "opened {}/{} shard(s) ({pruned_pct:.0} % answered without opening: \
         {} pruned, {} stats-only); decoded {}/{} chunks; \
         read {} B + {} B of index, decoded {} B of payload; \
         {} cache hit(s), {} B saved",
        row.shards_opened,
        row.shards_total,
        row.shards_pruned,
        row.shards_stats_only,
        row.chunks_decoded,
        row.chunks_total,
        row.bytes_read,
        row.bytes_read_index,
        row.bytes_decoded,
        row.cache_hits,
        row.bytes_saved,
    );
    Ok(())
}

/// Summary of an offer-set query.
#[derive(Serialize)]
struct OfferQuerySummary {
    offers: usize,
    selected: usize,
    energy_min_kwh: f64,
    energy_max_kwh: f64,
    energy_flexibility_kwh: f64,
    time_flexibility_h: f64,
    earliest_start: Option<String>,
    latest_end: Option<String>,
}

fn query_offers(file: &str, flags: &Flags) -> Result<(), String> {
    if flags.get("agg").is_some() || flags.get("where").is_some() {
        return Err(
            "--agg/--where apply to --dataset queries only (an offer set has \
                    no interval series to aggregate)"
                .into(),
        );
    }
    let text = std::fs::read_to_string(file).map_err(|e| format!("read {file}: {e}"))?;
    let offers: Vec<FlexOffer> = serde_json::from_str(&text)
        .map_err(|e| format!("{file}: not a flex-offer JSON array: {e}"))?;
    let far_past = Timestamp::from_minutes(i64::MIN / 4);
    let far_future = Timestamp::from_minutes(i64::MAX / 4);
    let slice = parse_slice(flags, far_past, far_future)?;
    let selected: Vec<&FlexOffer> = offers
        .iter()
        .filter(|o| o.execution_window().overlaps(slice))
        .collect();
    let mut summary = OfferQuerySummary {
        offers: offers.len(),
        selected: selected.len(),
        energy_min_kwh: 0.0,
        energy_max_kwh: 0.0,
        energy_flexibility_kwh: 0.0,
        time_flexibility_h: 0.0,
        earliest_start: None,
        latest_end: None,
    };
    let mut earliest: Option<Timestamp> = None;
    let mut latest: Option<Timestamp> = None;
    for o in &selected {
        let energy = o.total_energy();
        summary.energy_min_kwh += energy.min;
        summary.energy_max_kwh += energy.max;
        summary.energy_flexibility_kwh += o.energy_flexibility();
        summary.time_flexibility_h += o.time_flexibility().as_hours_f64();
        earliest = Some(earliest.map_or(o.earliest_start(), |t| t.min(o.earliest_start())));
        latest = Some(latest.map_or(o.latest_end(), |t| t.max(o.latest_end())));
    }
    summary.earliest_start = earliest.map(|t| t.to_string());
    summary.latest_end = latest.map(|t| t.to_string());
    if flags.get("json").is_some() {
        let json = serde_json::to_string_pretty(&summary)
            .map_err(|e| format!("serialise offer summary: {e}"))?;
        println!("{json}");
        return Ok(());
    }
    println!(
        "{}/{} offer(s) overlap the query window",
        summary.selected, summary.offers
    );
    println!(
        "  energy {:.3}..{:.3} kWh ({:.3} kWh flexible), {:.1} h total time flexibility",
        summary.energy_min_kwh,
        summary.energy_max_kwh,
        summary.energy_flexibility_kwh,
        summary.time_flexibility_h
    );
    if let (Some(a), Some(b)) = (&summary.earliest_start, &summary.latest_end) {
        println!("  execution span [{a} .. {b})");
    }
    Ok(())
}

/// Read a gap-free series from any file a dataset store reads: binary
/// `FXM1`/`FXM2`/`FXM3` by magic, anything else as CSV.
fn read_series(path: &Path) -> Result<TimeSeries, String> {
    let file = path.display().to_string();
    let bytes = std::fs::read(path).map_err(|e| format!("read {file}: {e}"))?;
    let measured = if codec::sniff(&bytes).is_some() {
        codec::decode(&bytes, &file)
    } else {
        let text = String::from_utf8(bytes)
            .map_err(|_| format!("{file}: not valid UTF-8 (and not FXM binary)"))?;
        codec::from_csv(&text, &file)
    }
    .map_err(|e| e.to_string())?;
    let gaps = measured.gap_count();
    if gaps > 0 {
        return Err(format!(
            "{file}: series has {gaps} gap(s); extraction needs a gap-free series"
        ));
    }
    measured
        .into_series()
        .map_err(|e| format!("{file}: invalid series: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_pairs_and_reject_garbage() {
        let ok = Flags::parse(&["--days".into(), "7".into(), "--seed".into(), "1".into()]).unwrap();
        assert_eq!(ok.get("days"), Some("7"));
        assert_eq!(ok.get_parsed("seed", 0u64).unwrap(), 1);
        assert_eq!(ok.get_parsed("missing", 42i64).unwrap(), 42);
        assert!(ok.get_parsed::<u64>("days", 0).is_ok());
        assert!(Flags::parse(&["days".into()]).is_err());
        assert!(Flags::parse(&["--days".into()]).is_err());
        let bad = Flags::parse(&["--days".into(), "x".into()]).unwrap();
        assert!(bad.get_parsed::<i64>("days", 0).is_err());
    }

    /// Write `contents` to a scratch file named after `tag` and read
    /// it back through [`read_series`].
    fn read_text(tag: &str, contents: &str) -> Result<TimeSeries, String> {
        let path = std::env::temp_dir().join(format!("flextract_{tag}_{}", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        let read = read_series(&path);
        std::fs::remove_file(&path).ok();
        read
    }

    #[test]
    fn csv_round_trip_through_parser() {
        let series = TimeSeries::new(
            "2013-03-18".parse().unwrap(),
            Resolution::MIN_15,
            vec![0.1 + 0.2, 0.5, 1.0 / 3.0],
        )
        .unwrap();
        let csv = codec::to_csv(&MeasuredSeries::from_series(&series));
        assert_eq!(read_text("round_trip.csv", &csv).unwrap(), series);
    }

    #[test]
    fn csv_parser_rejects_malformed_input() {
        for (tag, text) in [
            ("empty.csv", ""),
            ("one_row.csv", "interval_start,kwh\n2013-03-18 00:00,1.0"),
            ("nonsense.csv", "nonsense"),
            (
                "step_7min.csv",
                "2013-03-18 00:00,1.0\n2013-03-18 00:07,1.0\n",
            ),
            (
                "missing_row.csv",
                "2013-03-18 00:00,1.0\n2013-03-18 00:15,1.0\n2013-03-18 01:00,1.0\n",
            ),
        ] {
            let err = read_text(tag, text).unwrap_err();
            assert!(err.contains(tag), "{tag}: {err}");
        }
    }

    #[test]
    fn unknown_commands_error() {
        assert!(run(&["frobnicate".into()]).is_err());
        assert!(run(&[]).is_err());
        assert!(run(&["help".into()]).is_ok());
    }

    #[test]
    fn days_past_the_minute_axis_error_instead_of_panicking() {
        for days in ["7000000000000000", &i64::MAX.to_string()] {
            let out = std::env::temp_dir().join(format!("flextract_days_{}", std::process::id()));
            let args = ["simulate", "--out", out.to_str().unwrap(), "--days", days];
            let simulate = run(&args.map(String::from));
            std::fs::remove_dir_all(&out).ok();
            let msg = simulate.expect_err("an error, not a run").msg;
            assert!(msg.contains("--days"), "{msg}");
        }
    }

    #[test]
    fn fig5_command_runs() {
        assert!(cmd_fig5().is_ok());
    }
}
