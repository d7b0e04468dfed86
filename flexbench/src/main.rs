//! flexbench — one closed-loop benchmark for flextract.
//!
//! ```text
//! cargo run --release --manifest-path flexbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `README.md` next to this crate) from a single
//! client, checks every answer, and prints one JSON object as the last
//! line of standard output: `correct`, `attempted`, `failed` and the
//! metrics. `--trace 0` prints the end-to-end metrics, measured with no
//! tracing; `--trace 1` is a separate run that replays each op from this
//! crate's code with a span around every call into a library layer and
//! prints the per-layer metrics.

mod check;
mod extract;
mod harness;
mod stats;
mod store;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// Metric values by name; units come from the registries below.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Sample counts behind the reported timings, by name, for provenance.
pub type Samples = Vec<(&'static str, usize)>;

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("consumer_days_per_s", "1/s"),
];

/// The per-layer metrics a `--trace 1` run reports. A workload reports
/// 0 for a layer its ops never call.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The traced run itself.
    ("trace.overhead_pct", "%"),
    ("trace.stage_gap_pct", "%"),
    ("trace.untraced_op_ms", "ms"),
    ("trace.traced_op_ms", "ms"),
    ("trace.untraced_samples", "count"),
    ("trace.traced_samples", "count"),
    ("trace.warm_stage_gap_pct", "%"),
    ("trace.cold_stage_gap_pct", "%"),
    ("host.cpus", "count"),
    ("host.consumer_threads", "count"),
    // sim
    ("sim.busy_ms", "ms"),
    ("sim.wind_busy_ms", "ms"),
    // series
    ("series.resample_busy_ms", "ms"),
    // core
    ("core.extract_busy_ms", "ms"),
    ("core.fidelity_extract_busy_ms", "ms"),
    ("core.offers", "count"),
    // agg
    ("agg.aggregate_busy_ms", "ms"),
    ("agg.schedule_busy_ms", "ms"),
    ("agg.aggregates", "count"),
    // eval
    ("eval.score_busy_ms", "ms"),
    // scenario
    ("scenario.merge_busy_ms", "ms"),
    ("scenario.unaccounted_ms", "ms"),
    ("scenario.serial_run_ms", "ms"),
    ("scenario.parallel_run_ms", "ms"),
    ("scenario.parallel_speedup", "x"),
    ("scenario.consumer_days_per_s", "1/s"),
    // ingest
    ("ingest.clean_busy_ms", "ms"),
    ("ingest.gaps_filled", "count"),
    ("ingest.anomalies_screened", "count"),
    // dataset
    ("dataset.open_busy_ms", "ms"),
    ("dataset.load_busy_ms", "ms"),
    ("dataset.index_read_us", "us"),
    ("dataset.index_parse_us", "us"),
    ("dataset.index_bytes", "B"),
    ("dataset.route_us", "us"),
    ("dataset.shard_index_bytes", "B"),
    ("dataset.parse_route_share_pct", "%"),
    ("dataset.fleet_fold_us", "us"),
    ("dataset.shards_pruned_ratio", "ratio"),
    ("dataset.shards_stats_only_ratio", "ratio"),
    // frame
    ("frame.open_us", "us"),
    ("frame.bytes_read", "B"),
    ("frame.decode_busy_ms", "ms"),
    ("frame.encode_us", "us"),
    // scan
    ("scan.fold_us", "us"),
    ("scan.chunks_decoded", "count"),
    ("scan.chunks_total", "count"),
    ("scan.bytes_decoded", "B"),
    // resident
    ("resident.query_busy_us", "us"),
    ("resident.revalidate_us", "us"),
    ("resident.frame_hit_ratio", "ratio"),
    ("resident.cache_hits_per_query", "count"),
    ("resident.frame_bytes", "B"),
    ("resident.chunk_bytes", "B"),
    ("resident.frame_budget_bytes", "B"),
    ("resident.hot_set_bytes", "B"),
    ("resident.reopen_ms", "ms"),
    ("resident.generation_bumps", "count"),
    // sharded
    ("sharded.append_open_ms", "ms"),
    ("sharded.write_consumer_us", "us"),
    ("sharded.finish_ms", "ms"),
    ("sharded.root_bytes", "B"),
    ("sharded.compact_ms", "ms"),
    ("sharded.compact_bytes_rewritten", "B"),
    ("sharded.shards", "count"),
    // The store as a whole, and latency by query kind.
    ("store.unaccounted_us", "us"),
    ("store.series_bytes", "B"),
    ("store.disk_bytes_per_value", "B"),
    ("serve.point_cold_ms_p50", "ms"),
    ("serve.point_cold_ms_p90", "ms"),
    ("serve.point_warm_us_p50", "us"),
    ("serve.point_warm_us_p90", "us"),
    ("serve.fleet_warm_us_p50", "us"),
    ("serve.fleet_warm_us_p90", "us"),
    ("write.append_ms_p50", "ms"),
    ("write.read_after_write_ms_p50", "ms"),
    ("write.unaccounted_ms", "ms"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["fleet_extract", "metered_extract"];

/// Everything one run needs to know.
pub struct RunConfig {
    /// The workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured phase lasts.
    pub budget: Duration,
    /// `true` for the traced run.
    pub trace: bool,
    /// A scratch directory inside the working directory, private to
    /// this run and removed when it ends.
    pub work: PathBuf,
    /// Worker threads for the parallel legs (the host's CPU count).
    pub threads: usize,
}

/// What a workload hands back.
pub struct Outcome {
    /// Ops attempted and ops that failed (errors or failed checks).
    pub checks: check::Checks,
    /// The metrics this run measured (end-to-end or per-layer).
    pub metrics: Metrics,
    /// The sample counts behind the reported timings.
    pub samples: Samples,
    /// `consumer_threads` of the workload's op.
    pub consumer_threads: usize,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The source revision, when the working directory is a git checkout.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Render `metrics` against `registry` as a JSON object. A registry
/// name the run did not measure is 0 for per-layer metrics (the layer
/// was not called) and an error for end-to-end ones.
fn render(
    metrics: &Metrics,
    registry: &[(&str, &str)],
    missing_is_zero: bool,
) -> Result<String, String> {
    if let Some(name) = metrics
        .keys()
        .find(|k| !registry.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {name} is not in the registry"));
    }
    let mut parts = Vec::with_capacity(registry.len());
    for (name, unit) in registry {
        let value = match metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => return Err(format!("metric {name} is not finite ({v})")),
            None if missing_is_zero => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        parts.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

fn run(args: &Args) -> Result<String, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = PathBuf::from(".flexbench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let cfg = RunConfig {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        trace: args.trace,
        work: work.clone(),
        threads,
    };
    let outcome = match args.workload.as_str() {
        "fleet_extract" => extract::fleet(&cfg),
        "metered_extract" => extract::metered(&cfg),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    if let Ok(mut entries) = std::fs::read_dir(".flexbench_work") {
        if entries.next().is_none() {
            let _ = std::fs::remove_dir(".flexbench_work");
        }
    }
    // Finish the deletes' writeback here rather than in the next run.
    harness::settle();
    let mut outcome = outcome?;
    if args.trace {
        outcome.metrics.insert("host.cpus", threads as f64);
        outcome
            .metrics
            .insert("host.consumer_threads", outcome.consumer_threads as f64);
    } else {
        outcome.metrics.insert("peak_rss_mib", peak_rss_mib()?);
    }
    let metrics = if args.trace {
        render(&outcome.metrics, PER_LAYER, true)?
    } else {
        render(&outcome.metrics, END_TO_END, false)?
    };
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(name, n)| format!("\"{name}\": {n}"))
        .collect();
    println!(
        "provenance {{\"git_rev\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"host_cpus\": {threads}, \"consumer_threads\": {}, \"samples\": {{{}}}}}",
        git_rev(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.consumer_threads,
        samples.join(", ")
    );
    if let Some(first) = &outcome.checks.first_failure {
        eprintln!("flexbench: check failed: {first}");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.checks.failed == 0 && outcome.checks.attempted > 0,
        outcome.checks.attempted,
        outcome.checks.failed
    ))
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("flexbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must name exactly the
    /// workloads and metrics this binary reports, with the same units.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        for name in WORKLOADS {
            assert!(
                text.contains(&format!("\"name\": \"{name}\"")),
                "workload {name}"
            );
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&needle), "metric {name} [{unit}]");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn render_zero_fills_per_layer_and_rejects_unknown_names() {
        let mut m = Metrics::new();
        m.insert("sim.busy_ms", 1.5);
        let out = render(&m, PER_LAYER, true).expect("renders");
        assert!(out.contains("\"sim.busy_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        assert!(out.contains("\"core.offers\": {\"value\": 0.0, \"unit\": \"count\"}"));
        assert!(render(&m, END_TO_END, false).is_err());
        m.insert("not.a.metric", 1.0);
        assert!(render(&m, PER_LAYER, true).is_err());
    }
}
