//! End-to-end smoke test for the `flextract` command-line binary.
//!
//! Drives the compiled executable exactly as a user would: simulate a
//! tiny fleet into a scratch directory, then run peak extraction on one
//! of the emitted series files (both the CSV and the binary `FXM3`
//! path), and check the failure modes exit non-zero.

use std::path::PathBuf;
use std::process::{Command, Output};

fn flextract(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flextract"))
        .args(args)
        .output()
        .expect("failed to spawn the flextract binary")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("flextract_cli_smoke_{tag}_{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("stale scratch dir is removable");
    }
    std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
    dir
}

#[test]
fn simulate_then_extract_peak_round_trip() {
    let dir = scratch_dir("roundtrip");
    let out_dir = dir.join("data");
    let out_flag = out_dir.to_str().unwrap();

    // 1. Simulate a tiny fleet.
    let sim = flextract(&[
        "simulate",
        "--households",
        "2",
        "--days",
        "2",
        "--seed",
        "7",
        "--out",
        out_flag,
    ]);
    assert!(
        sim.status.success(),
        "simulate failed: {}",
        String::from_utf8_lossy(&sim.stderr)
    );
    let stdout = String::from_utf8_lossy(&sim.stdout);
    assert!(
        stdout.contains("simulated 2 households"),
        "stdout: {stdout}"
    );
    for name in [
        "household_0.csv",
        "household_0.fxm",
        "household_1.csv",
        "household_1.fxm",
        "fleet_total.csv",
    ] {
        assert!(out_dir.join(name).is_file(), "missing output file {name}");
    }
    assert!(
        !out_dir.join("household_0.fxt").exists(),
        "simulate writes store formats only"
    );

    // 2. Extract flex-offers from the CSV with the peak approach and
    //    write them as JSON.
    let offers_path = dir.join("offers.json");
    let extract = flextract(&[
        "extract",
        "--approach",
        "peak",
        "--input",
        out_dir.join("household_0.csv").to_str().unwrap(),
        "--share",
        "0.05",
        "--seed",
        "7",
        "--out",
        offers_path.to_str().unwrap(),
    ]);
    assert!(
        extract.status.success(),
        "extract failed: {}",
        String::from_utf8_lossy(&extract.stderr)
    );
    let stdout = String::from_utf8_lossy(&extract.stdout);
    assert!(stdout.contains("flex-offers"), "stdout: {stdout}");
    let json = std::fs::read_to_string(&offers_path).expect("offers JSON was written");
    assert!(
        json.trim_start().starts_with('['),
        "offers JSON is an array"
    );

    // 3. The FXM3 file decodes to the same extraction: both formats are
    //    lossless, so the offers JSON is byte-identical.
    let fxm_offers_path = dir.join("offers_fxm.json");
    let extract_fxm = flextract(&[
        "extract",
        "--approach",
        "peak",
        "--input",
        out_dir.join("household_0.fxm").to_str().unwrap(),
        "--share",
        "0.05",
        "--seed",
        "7",
        "--out",
        fxm_offers_path.to_str().unwrap(),
    ]);
    assert!(
        extract_fxm.status.success(),
        "fxm extract failed: {}",
        String::from_utf8_lossy(&extract_fxm.stderr)
    );
    assert_eq!(
        std::fs::read(&fxm_offers_path).expect("FXM3 offers JSON was written"),
        json.as_bytes(),
        "CSV and FXM3 inputs must yield byte-identical offers"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn extract_rejects_gappy_series_naming_file_and_gap_count() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    for (file, gaps) in [
        ("datasets/ds_sharded_fleet/shards/0000/consumer_0.fxm", 7),
        ("datasets/ds_gap_heavy/consumer_0.csv", 40),
    ] {
        let input = root.join(file);
        let out = flextract(&["extract", "--input", input.to_str().unwrap()]);
        assert!(!out.status.success(), "{file}: extract must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(file), "{file}: {stderr}");
        assert!(
            stderr.contains(&format!("{gaps} gap(s)")),
            "{file}: {stderr}"
        );
    }
}

#[test]
fn fig5_and_experiment_commands_run() {
    let fig5 = flextract(&["fig5"]);
    assert!(fig5.status.success());
    assert!(String::from_utf8_lossy(&fig5.stdout).contains("Figure-5 day"));

    let exp = flextract(&[
        "experiment",
        "e6",
        "--households",
        "2",
        "--days",
        "2",
        "--seed",
        "3",
    ]);
    assert!(
        exp.status.success(),
        "experiment e6 failed: {}",
        String::from_utf8_lossy(&exp.stderr)
    );
    assert!(!exp.stdout.is_empty(), "experiment e6 printed nothing");
}

#[test]
fn bad_invocations_exit_nonzero_with_usage() {
    for args in [
        &[] as &[&str],
        &["frobnicate"],
        &["extract"],
        &["extract", "--input", "/definitely/not/a/file.csv"],
        &["simulate"], // missing --out
        &["simulate", "--households", "0", "--out", "/tmp/unused"],
        &["simulate", "--days", "0", "--out", "/tmp/unused"],
        &["experiment", "e99"],
        &["experiment", "e6", "--households", "0"],
    ] {
        let out = flextract(args);
        assert!(!out.status.success(), "expected failure for args {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error:"),
            "stderr for {args:?} should explain: {stderr}"
        );
    }
}

#[test]
fn scenario_list_and_run_round_trip() {
    // `list` reads the committed corpus (cargo test runs from the
    // package root, where `scenarios/` lives).
    let list = flextract(&["scenario", "list"]);
    assert!(
        list.status.success(),
        "scenario list failed: {}",
        String::from_utf8_lossy(&list.stderr)
    );
    let stdout = String::from_utf8_lossy(&list.stdout);
    assert!(stdout.contains("fig5_peak_day"), "stdout: {stdout}");
    assert!(stdout.contains("stress_10k_households"), "stdout: {stdout}");

    // `run --name` executes one scenario end to end.
    let run = flextract(&["scenario", "run", "--name", "fig5_peak_day", "--json"]);
    assert!(
        run.status.success(),
        "scenario run failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    // With --json, stdout is pure JSON (pipeable into jq); the human
    // summary goes to stderr.
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        stdout.trim_start().starts_with('['),
        "--json stdout must be a JSON array: {stdout}"
    );
    assert!(
        stdout.contains("\"offers\""),
        "--json emits the report: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("fig5_peak_day:"), "stderr: {stderr}");

    // Empty corpus directories are an error, not a silent no-op.
    let empty = scratch_dir("scenario_empty");
    let out = flextract(&["scenario", "run", "--all", "--dir", empty.to_str().unwrap()]);
    assert!(
        !out.status.success(),
        "empty corpus must not look like success"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("nothing to run"));
    std::fs::remove_dir_all(&empty).ok();
}

#[test]
fn scenario_thread_flags_are_validated_at_the_cli_layer() {
    // Zero is rejected with a clear message for BOTH thread flags —
    // consistently at the CLI, not silently clamped inside the runner.
    for flag in ["--threads", "--consumer-threads"] {
        let out = flextract(&["scenario", "run", "--name", "fig5_peak_day", flag, "0"]);
        assert!(!out.status.success(), "{flag} 0 must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{flag} must be at least 1")),
            "stderr for {flag} 0: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "no backtrace: {stderr}");
    }

    // Values beyond what the corpus/fleet can use still run, but the
    // clamp is announced on stderr. fig5_peak_day has one consumer and
    // is one scenario, so both flags overflow at 9.
    let out = flextract(&[
        "scenario",
        "run",
        "--name",
        "fig5_peak_day",
        "--threads",
        "9",
        "--consumer-threads",
        "9",
    ]);
    assert!(
        out.status.success(),
        "oversized thread counts must clamp, not fail: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--threads 9 exceeds") && stderr.contains("clamping to 1"),
        "stderr: {stderr}"
    );
    assert!(
        stderr.contains("--consumer-threads 9 exceeds"),
        "stderr: {stderr}"
    );

    // Default thread counts must stay silent even for a one-scenario,
    // one-consumer run (the clamp warning is for explicit flags only).
    let out = flextract(&["scenario", "run", "--name", "fig5_peak_day"]);
    assert!(out.status.success());
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("warning"),
        "defaults must not warn"
    );

    // A real multi-consumer parallel run succeeds and reports the same
    // summary as the serial one (thread-count invariance end to end).
    let serial = flextract(&["scenario", "run", "--name", "mixed_district"]);
    let parallel = flextract(&[
        "scenario",
        "run",
        "--name",
        "mixed_district",
        "--consumer-threads",
        "4",
    ]);
    assert!(serial.status.success() && parallel.status.success());
    assert_eq!(
        String::from_utf8_lossy(&serial.stdout).split(" [").next(),
        String::from_utf8_lossy(&parallel.stdout).split(" [").next(),
        "summaries must match modulo wall time"
    );
}

#[test]
fn default_thread_counts_never_warn_even_beyond_the_host_cores() {
    // The defaults (4 workers) may exceed the host's cores; that clamp
    // is silent. A sharded fleet query fans its shards out, and a
    // three-scenario corpus fans its scenarios out, both at defaults.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let fleet = root.join("datasets").join("ds_sharded_fleet");
    let query = flextract(&[
        "query",
        "--dataset",
        fleet.to_str().unwrap(),
        "--agg",
        "sum",
    ]);
    let corpus = scratch_dir("default_threads");
    for name in ["fig4_basic_day", "fig5_peak_day", "granularity_1min"] {
        let file = format!("{name}.json");
        std::fs::copy(root.join("scenarios").join(&file), corpus.join(&file))
            .expect("scenario is copyable");
    }
    let run = flextract(&[
        "scenario",
        "run",
        "--all",
        "--dir",
        corpus.to_str().unwrap(),
    ]);
    std::fs::remove_dir_all(&corpus).ok();
    for (what, out) in [("query", query), ("scenario run --all", run)] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{what}: {stderr}");
        assert!(!stderr.contains("warning"), "{what} warned: {stderr}");
    }
}

#[test]
fn scenario_invalid_specs_fail_with_a_message_not_a_backtrace() {
    let dir = scratch_dir("scenario_bad");

    // A syntactically broken spec file.
    std::fs::write(dir.join("broken.json"), "{ this is not json").unwrap();
    let out = flextract(&["scenario", "run", "--all", "--dir", dir.to_str().unwrap()]);
    assert!(!out.status.success(), "broken spec must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "stderr: {stderr}");
    assert!(stderr.contains("broken.json"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "no backtrace: {stderr}");

    // A broken *unrelated* file must not block running a valid one by
    // name: `--name` loads only its own spec file.
    std::fs::copy(
        "scenarios/fig5_peak_day.json",
        dir.join("fig5_peak_day.json"),
    )
    .unwrap();
    let out = flextract(&[
        "scenario",
        "run",
        "--name",
        "fig5_peak_day",
        "--dir",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "valid --name run blocked by unrelated broken spec: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(dir.join("fig5_peak_day.json")).unwrap();

    // A well-formed spec with an out-of-domain field.
    std::fs::remove_file(dir.join("broken.json")).unwrap();
    std::fs::write(
        dir.join("bad_days.json"),
        r#"{
  "name": "bad_days",
  "description": "days out of domain",
  "workload": {
    "Households": {
      "households": 1,
      "archetype_mix": [["Couple", 1.0]],
      "tariff_sensitivity": 0.0
    }
  },
  "start": "2013-03-18",
  "days": 0,
  "resolution_min": 15,
  "extractor": "Basic",
  "flexible_share": 0.05,
  "aggregation": "None",
  "res_capacity_share": 0.0,
  "seed": 1
}"#,
    )
    .unwrap();
    let out = flextract(&["scenario", "run", "--all", "--dir", dir.to_str().unwrap()]);
    assert!(!out.status.success(), "invalid spec must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "stderr: {stderr}");
    assert!(stderr.contains("days"), "names the field: {stderr}");
    assert!(!stderr.contains("panicked"), "no backtrace: {stderr}");

    // Selection errors: unknown name, missing selector.
    let out = flextract(&["scenario", "run", "--name", "no_such_scenario"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no_such_scenario"));
    let out = flextract(&["scenario", "run"]);
    assert!(!out.status.success());
    let out = flextract(&["scenario", "frobnicate"]);
    assert!(!out.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dataset_export_inspect_ingest_round_trip() {
    let dir = scratch_dir("dataset");
    let ds_dir = dir.join("metered");
    let ds_flag = ds_dir.to_str().unwrap();

    // 1. Export the committed source fleet with a degradation that
    //    guarantees gaps, in binary form.
    let export = flextract(&[
        "dataset",
        "export",
        "--scenario",
        "datasets/sources/src_gap_heavy.json",
        "--out",
        ds_flag,
        "--codec",
        "binary",
        "--resolution-min",
        "15",
        "--gap-rate",
        "0.1",
        "--seed",
        "11",
    ]);
    assert!(
        export.status.success(),
        "dataset export failed: {}",
        String::from_utf8_lossy(&export.stderr)
    );
    let stdout = String::from_utf8_lossy(&export.stdout);
    assert!(stdout.contains("exported `src_gap_heavy`"), "{stdout}");
    assert!(ds_dir.join("manifest.json").is_file());
    assert!(ds_dir.join("consumer_0.fxm").is_file());

    // 2. Inspect summarises the manifest.
    let inspect = flextract(&["dataset", "inspect", "--dataset", ds_flag]);
    assert!(
        inspect.status.success(),
        "dataset inspect failed: {}",
        String::from_utf8_lossy(&inspect.stderr)
    );
    let stdout = String::from_utf8_lossy(&inspect.stdout);
    assert!(stdout.contains("2 consumers"), "{stdout}");
    assert!(stdout.contains("carries ground truth"), "{stdout}");

    // 3. Ingest cleans every consumer and reports the repairs.
    let ingest = flextract(&[
        "dataset",
        "ingest",
        "--dataset",
        ds_flag,
        "--fill",
        "previous",
        "--screen-anomalies",
    ]);
    assert!(
        ingest.status.success(),
        "dataset ingest failed: {}",
        String::from_utf8_lossy(&ingest.stderr)
    );
    let stdout = String::from_utf8_lossy(&ingest.stdout);
    assert!(stdout.contains("gap(s) filled"), "{stdout}");

    // 4. A single consumer can be ingested by index.
    let one = flextract(&["dataset", "ingest", "--dataset", ds_flag, "--consumer", "1"]);
    assert!(one.status.success());
    assert_eq!(String::from_utf8_lossy(&one.stdout).lines().count(), 1);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dataset_malformed_csv_and_unaligned_timestamps_exit_nonzero() {
    let dir = scratch_dir("dataset_bad");
    let ds_dir = dir.join("metered");
    let ds_flag = ds_dir.to_str().unwrap();
    // Export as CSV explicitly (the default codec is FXM2 binary) so
    // the test can corrupt a text row below.
    let export = flextract(&[
        "dataset",
        "export",
        "--scenario",
        "datasets/sources/src_household_1min.json",
        "--out",
        ds_flag,
        "--resolution-min",
        "15",
        "--codec",
        "csv",
    ]);
    assert!(export.status.success());

    let consumer = ds_dir.join("consumer_0.csv");
    let pristine = std::fs::read_to_string(&consumer).unwrap();

    // A non-numeric kwh value must exit non-zero naming file, row and
    // column.
    let mut lines: Vec<String> = pristine.lines().map(String::from).collect();
    lines[17] = lines[17].split(',').next().unwrap().to_string() + ",abc";
    std::fs::write(&consumer, lines.join("\n") + "\n").unwrap();
    let bad = flextract(&["dataset", "ingest", "--dataset", ds_flag]);
    assert!(!bad.status.success(), "malformed CSV must fail");
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(stderr.contains("consumer_0.csv"), "{stderr}");
    assert!(stderr.contains("row 18"), "{stderr}");
    assert!(stderr.contains("`kwh`"), "{stderr}");

    // An off-grid (unaligned) timestamp must exit non-zero too.
    let mut lines: Vec<String> = pristine.lines().map(String::from).collect();
    let kwh = lines[17].split(',').nth(1).unwrap().to_string();
    lines[17] = format!("2013-03-18 04:07,{kwh}");
    std::fs::write(&consumer, lines.join("\n") + "\n").unwrap();
    let bad = flextract(&["dataset", "ingest", "--dataset", ds_flag]);
    assert!(!bad.status.success(), "unaligned timestamp must fail");
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(stderr.contains("off-grid"), "{stderr}");
    assert!(stderr.contains("row 18"), "{stderr}");

    // Scenario-level: a dataset-backed scenario pointing at the broken
    // dataset fails with the same context, not a panic.
    let spec = format!(
        r#"{{
  "name": "broken_ds",
  "description": "points at a corrupted dataset",
  "workload": {{
    "Dataset": {{
      "path": "{}",
      "consumers": 3,
      "cleaning": {{ "fill": "Linear", "screen_anomalies": false }},
      "disaggregate": false
    }}
  }},
  "start": "2013-03-18",
  "days": 1,
  "resolution_min": 15,
  "extractor": "Peak",
  "flexible_share": 0.05,
  "aggregation": "None",
  "res_capacity_share": 0.0,
  "seed": 1
}}"#,
        ds_flag.replace('\\', "/")
    );
    std::fs::write(dir.join("broken_ds.json"), spec).unwrap();
    let run = flextract(&[
        "scenario",
        "run",
        "--dir",
        dir.to_str().unwrap(),
        "--name",
        "broken_ds",
    ]);
    assert!(!run.status.success(), "broken dataset must fail the run");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("consumer_0.csv"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dataset_bad_invocations_exit_nonzero() {
    for args in [
        &["dataset"] as &[&str],
        &["dataset", "frobnicate"],
        &["dataset", "export"],
        &[
            "dataset",
            "export",
            "--scenario",
            "/no/such/spec.json",
            "--out",
            "/tmp/unused",
        ],
        &[
            "dataset",
            "export",
            "--scenario",
            "datasets/sources/src_gap_heavy.json",
            "--out",
            "/tmp/unused_codec",
            "--codec",
            "bogus",
        ],
        &["dataset", "inspect"],
        &[
            "dataset",
            "inspect",
            "--dataset",
            "/definitely/not/a/dataset",
        ],
        &[
            "dataset",
            "ingest",
            "--dataset",
            "/definitely/not/a/dataset",
        ],
        &[
            "dataset",
            "ingest",
            "--dataset",
            "datasets/ds_gap_heavy",
            "--fill",
            "bogus",
        ],
        &[
            "dataset",
            "ingest",
            "--dataset",
            "datasets/ds_gap_heavy",
            "--consumer",
            "99",
        ],
    ] {
        let out = flextract(args);
        assert!(!out.status.success(), "expected failure for args {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error:"),
            "stderr for {args:?} should explain: {stderr}"
        );
    }
}

#[test]
fn query_dataset_and_offers_round_trip() {
    let dir = scratch_dir("query");
    let ds_dir = dir.join("metered");
    let ds_flag = ds_dir.to_str().unwrap();

    // An FXM2 dataset (the default codec) with guaranteed gaps.
    let export = flextract(&[
        "dataset",
        "export",
        "--scenario",
        "datasets/sources/src_gap_heavy.json",
        "--out",
        ds_flag,
        "--resolution-min",
        "15",
        "--gap-rate",
        "0.1",
        "--seed",
        "11",
    ]);
    assert!(
        export.status.success(),
        "dataset export failed: {}",
        String::from_utf8_lossy(&export.stderr)
    );

    // A whole-dataset stats query answers from chunk statistics.
    let q = flextract(&["query", "--dataset", ds_flag]);
    assert!(
        q.status.success(),
        "query failed: {}",
        String::from_utf8_lossy(&q.stderr)
    );
    let stdout = String::from_utf8_lossy(&q.stdout);
    assert!(stdout.contains("consumer"), "{stdout}");
    assert!(
        stdout.contains("100 % skipped"),
        "FXM2 full-scan stats must skip every decode: {stdout}"
    );

    // A time-sliced gap query with JSON output.
    let q = flextract(&[
        "query",
        "--dataset",
        ds_flag,
        "--from",
        "2013-03-18 06:00",
        "--to",
        "2013-03-18 18:00",
        "--where",
        "gaps",
        "--json",
    ]);
    assert!(
        q.status.success(),
        "sliced query failed: {}",
        String::from_utf8_lossy(&q.stderr)
    );
    let stdout = String::from_utf8_lossy(&q.stdout);
    assert!(
        stdout.trim_start().starts_with('['),
        "--json emits an array: {stdout}"
    );
    assert!(stdout.contains("\"chunks_decoded\""), "{stdout}");

    // Peak queries locate the argmax with a timestamp.
    let q = flextract(&["query", "--dataset", ds_flag, "--agg", "peak"]);
    assert!(q.status.success());
    assert!(
        String::from_utf8_lossy(&q.stdout).contains("peak"),
        "peak row expected"
    );

    // Each aggregate selects its own column set in table mode.
    let q = flextract(&["query", "--dataset", ds_flag, "--agg", "gaps"]);
    assert!(q.status.success());
    let stdout = String::from_utf8_lossy(&q.stdout);
    assert!(stdout.contains("gap %"), "{stdout}");
    assert!(
        !stdout.contains("mean"),
        "gaps view hides the stats columns: {stdout}"
    );
    let q = flextract(&["query", "--dataset", ds_flag, "--agg", "sum"]);
    assert!(q.status.success());
    let stdout = String::from_utf8_lossy(&q.stdout);
    assert!(
        stdout.contains("sum kWh") && !stdout.contains("gap %"),
        "{stdout}"
    );

    // Offer-set queries: extract offers to JSON, then query them.
    let sim_dir = dir.join("sim");
    let sim = flextract(&[
        "simulate",
        "--households",
        "1",
        "--days",
        "2",
        "--seed",
        "7",
        "--out",
        sim_dir.to_str().unwrap(),
    ]);
    assert!(sim.status.success());
    let offers_path = dir.join("offers.json");
    let extract = flextract(&[
        "extract",
        "--input",
        sim_dir.join("household_0.csv").to_str().unwrap(),
        "--out",
        offers_path.to_str().unwrap(),
    ]);
    assert!(extract.status.success());
    let q = flextract(&[
        "query",
        "--offers",
        offers_path.to_str().unwrap(),
        "--from",
        "2013-03-18",
        "--to",
        "2013-03-19",
    ]);
    assert!(
        q.status.success(),
        "offers query failed: {}",
        String::from_utf8_lossy(&q.stderr)
    );
    let stdout = String::from_utf8_lossy(&q.stdout);
    assert!(stdout.contains("overlap the query window"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_queries_exit_nonzero_naming_the_bad_field() {
    // Each case must fail AND name the offending flag, so the user
    // can fix the query instead of guessing.
    for (args, field) in [
        (&["query"] as &[&str], "--dataset"),
        (
            &[
                "query",
                "--dataset",
                "datasets/ds_household_1min",
                "--agg",
                "bogus",
            ],
            "--agg",
        ),
        (
            &[
                "query",
                "--dataset",
                "datasets/ds_household_1min",
                "--where",
                "frobnicate",
            ],
            "--where",
        ),
        (
            &[
                "query",
                "--dataset",
                "datasets/ds_household_1min",
                "--where",
                "min-below:xyz",
            ],
            "--where",
        ),
        (
            &[
                "query",
                "--dataset",
                "datasets/ds_household_1min",
                "--from",
                "not-a-time",
            ],
            "--from",
        ),
        (
            &[
                "query",
                "--dataset",
                "datasets/ds_household_1min",
                "--from",
                "2013-03-19",
                "--to",
                "2013-03-18",
            ],
            "--to",
        ),
        (
            // Out-of-range indices surface the store's typed error,
            // which names the valid range and the dataset directory.
            &[
                "query",
                "--dataset",
                "datasets/ds_household_1min",
                "--consumer",
                "99",
            ],
            "valid range 0..",
        ),
        (
            &[
                "query",
                "--dataset",
                "datasets/ds_household_1min",
                "--resolution-min",
                "7",
            ],
            "--resolution-min",
        ),
        (
            &[
                "query",
                "--dataset",
                "datasets/ds_household_1min",
                "--where",
                "gaps",
                "--resolution-min",
                "15",
            ],
            "--where",
        ),
        (
            &["query", "--offers", "/no/such/offers.json"],
            "/no/such/offers.json",
        ),
        (
            &[
                "query",
                "--offers",
                "x.json",
                "--dataset",
                "datasets/ds_household_1min",
            ],
            "not both",
        ),
    ] {
        let out = flextract(args);
        assert!(!out.status.success(), "expected failure for args {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error:") && stderr.contains(field),
            "stderr for {args:?} should name {field}: {stderr}"
        );
    }
}

#[test]
fn dataset_backed_scenario_runs_from_the_cli() {
    let run = flextract(&["scenario", "run", "--name", "ds_degraded_15min", "--json"]);
    assert!(
        run.status.success(),
        "dataset-backed scenario failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(stdout.contains("\"ingestion\""), "{stdout}");
    assert!(stdout.contains("\"fidelity\""), "{stdout}");
    // The gap count is seed noise of the committed dataset: read it from
    // the scenario's golden rather than pinning it twice.
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/ds_degraded_15min.json");
    let golden = std::fs::read_to_string(golden).expect("golden snapshot is readable");
    let gaps = golden
        .lines()
        .find(|l| l.contains("\"gaps_filled\""))
        .expect("golden reports gaps_filled")
        .trim()
        .trim_end_matches(',');
    assert_ne!(
        gaps, "\"gaps_filled\": 0",
        "the degraded dataset must carry gaps"
    );
    assert!(stdout.contains(gaps), "{gaps} missing from {stdout}");
}

#[test]
fn sharded_dataset_lifecycle_round_trip() {
    let dir = scratch_dir("sharded");
    let ds_dir = dir.join("fleet");
    let ds_flag = ds_dir.to_str().unwrap();

    // A 5-consumer source spec so capacity 2 yields 3 shards.
    let spec_path = dir.join("src_five.json");
    std::fs::write(
        &spec_path,
        r#"{
  "name": "src_five",
  "description": "five households for the sharded lifecycle test",
  "workload": {
    "Households": {
      "households": 5,
      "archetype_mix": [["Couple", 1.0]],
      "tariff_sensitivity": 0.0
    }
  },
  "start": "2013-03-18",
  "days": 1,
  "resolution_min": 15,
  "extractor": "Basic",
  "flexible_share": 0.05,
  "aggregation": "None",
  "res_capacity_share": 0.0,
  "seed": 5
}"#,
    )
    .unwrap();

    // 1. A sharded export writes root.json + shards/NNNN/ directories.
    let export = flextract(&[
        "dataset",
        "export",
        "--scenario",
        spec_path.to_str().unwrap(),
        "--out",
        ds_flag,
        "--resolution-min",
        "15",
        "--gap-rate",
        "0.05",
        "--seed",
        "11",
        "--shard-capacity",
        "2",
    ]);
    assert!(
        export.status.success(),
        "sharded export failed: {}",
        String::from_utf8_lossy(&export.stderr)
    );
    let stdout = String::from_utf8_lossy(&export.stdout);
    assert!(stdout.contains("sharded at 2 consumers/shard"), "{stdout}");
    assert!(ds_dir.join("root.json").is_file());
    assert!(ds_dir.join("shards/0000/manifest.json").is_file());
    assert!(!ds_dir.join("manifest.json").is_file());

    // A zero capacity is rejected at the CLI layer.
    let bad = flextract(&[
        "dataset",
        "export",
        "--scenario",
        spec_path.to_str().unwrap(),
        "--out",
        ds_flag,
        "--shard-capacity",
        "0",
    ]);
    assert!(!bad.status.success());
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("--shard-capacity must be at least 1"),
        "{}",
        String::from_utf8_lossy(&bad.stderr)
    );

    // 2. Inspect answers from the root roll-ups without opening shards.
    let inspect = flextract(&["dataset", "inspect", "--dataset", ds_flag]);
    assert!(
        inspect.status.success(),
        "{}",
        String::from_utf8_lossy(&inspect.stderr)
    );
    let stdout = String::from_utf8_lossy(&inspect.stdout);
    assert!(stdout.contains("5 consumers"), "{stdout}");
    assert!(stdout.contains("3 shard(s)"), "{stdout}");
    assert!(stdout.contains("no shard was opened"), "{stdout}");

    // `--consumer N` routes through the owning shard on any layout.
    let one = flextract(&[
        "dataset",
        "inspect",
        "--dataset",
        ds_flag,
        "--consumer",
        "3",
    ]);
    assert!(
        one.status.success(),
        "{}",
        String::from_utf8_lossy(&one.stderr)
    );
    assert!(String::from_utf8_lossy(&one.stdout).contains("[3]"));

    // 3. Out-of-range indices exit non-zero naming the valid range AND
    //    the dataset directory — on inspect and on query alike.
    for args in [
        &[
            "dataset",
            "inspect",
            "--dataset",
            ds_flag,
            "--consumer",
            "99",
        ] as &[&str],
        &["query", "--dataset", ds_flag, "--consumer", "99"],
    ] {
        let out = flextract(args);
        assert!(!out.status.success(), "expected failure for {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("valid range 0..5"), "{args:?}: {stderr}");
        assert!(stderr.contains(ds_flag), "{args:?}: {stderr}");
    }

    // 4. A fleet query without predicates answers from shard stats
    //    alone, and the report is byte-identical at any thread count.
    let fleet = flextract(&["query", "--dataset", ds_flag]);
    assert!(
        fleet.status.success(),
        "{}",
        String::from_utf8_lossy(&fleet.stderr)
    );
    let stdout = String::from_utf8_lossy(&fleet.stdout).to_string();
    assert!(stdout.contains("fleet query"), "{stdout}");
    assert!(stdout.contains("opened 0/3 shard(s)"), "{stdout}");
    assert!(stdout.contains("3 stats-only"), "{stdout}");
    for threads in ["1", "2", "8"] {
        let again = flextract(&["query", "--dataset", ds_flag, "--threads", threads]);
        assert!(again.status.success());
        assert_eq!(
            stdout,
            String::from_utf8_lossy(&again.stdout),
            "fleet query must be byte-identical at --threads {threads}"
        );
    }

    // An unsatisfiable predicate prunes every shard from the roll-ups.
    let pruned = flextract(&["query", "--dataset", ds_flag, "--where", "max-above:999999"]);
    assert!(pruned.status.success());
    let stdout = String::from_utf8_lossy(&pruned.stdout);
    assert!(stdout.contains("3 pruned"), "{stdout}");

    // Fleet mode keeps no per-interval values: peak needs --consumer.
    let peak = flextract(&["query", "--dataset", ds_flag, "--agg", "peak"]);
    assert!(!peak.status.success());
    assert!(
        String::from_utf8_lossy(&peak.stderr).contains("--consumer"),
        "{}",
        String::from_utf8_lossy(&peak.stderr)
    );

    // A single-consumer query routes to the owning shard.
    let single = flextract(&["query", "--dataset", ds_flag, "--consumer", "4", "--json"]);
    assert!(
        single.status.success(),
        "{}",
        String::from_utf8_lossy(&single.stderr)
    );

    // 5. Compaction of a freshly-exported store is a no-op in shape and
    //    leaves every query answer byte-identical.
    let before = flextract(&["query", "--dataset", ds_flag, "--json"]);
    let compacted = flextract(&["dataset", "compact", "--dataset", ds_flag]);
    assert!(
        compacted.status.success(),
        "{}",
        String::from_utf8_lossy(&compacted.stderr)
    );
    let stdout = String::from_utf8_lossy(&compacted.stdout);
    assert!(stdout.contains("compacted"), "{stdout}");
    assert!(stdout.contains("3 shard(s) → 3 shard(s)"), "{stdout}");
    let after = flextract(&["query", "--dataset", ds_flag, "--json"]);
    assert_eq!(
        String::from_utf8_lossy(&before.stdout),
        String::from_utf8_lossy(&after.stdout),
        "compaction must not change any query answer"
    );

    // Compacting a legacy single-manifest dataset is a typed error.
    let legacy = flextract(&["dataset", "compact", "--dataset", "datasets/ds_gap_heavy"]);
    assert!(!legacy.status.success());
    assert!(
        String::from_utf8_lossy(&legacy.stderr).contains("nothing to compact"),
        "{}",
        String::from_utf8_lossy(&legacy.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fxm3_export_inspect_and_corruption_round_trip() {
    let dir = scratch_dir("fxm3");
    let ds_dir = dir.join("metered");
    let ds_flag = ds_dir.to_str().unwrap();

    // 1. An explicit `--codec fxm3` export (also the default) with a
    //    quantized register feed — the workload the XOR codec is for.
    let export = flextract(&[
        "dataset",
        "export",
        "--scenario",
        "datasets/sources/src_gap_heavy.json",
        "--out",
        ds_flag,
        "--codec",
        "fxm3",
        "--resolution-min",
        "15",
        "--gap-rate",
        "0.1",
        "--quantize-kwh",
        "0.001",
        "--seed",
        "11",
    ]);
    assert!(
        export.status.success(),
        "fxm3 export failed: {}",
        String::from_utf8_lossy(&export.stderr)
    );
    assert!(ds_dir.join("consumer_0.fxm").is_file());

    // 2. Inspect reports per-consumer stats from the chunk headers
    //    alone — no payload decode — plus the on-disk footprint and the
    //    sniffed codec of each series file.
    let inspect = flextract(&["dataset", "inspect", "--dataset", ds_flag]);
    assert!(
        inspect.status.success(),
        "inspect failed: {}",
        String::from_utf8_lossy(&inspect.stderr)
    );
    let stdout = String::from_utf8_lossy(&inspect.stdout);
    assert!(stdout.contains("B on disk, fxm3]"), "{stdout}");

    // 3. A full-scan stats query answers without decoding a single
    //    payload byte: every chunk is answered from its stat header.
    let q = flextract(&["query", "--dataset", ds_flag]);
    assert!(
        q.status.success(),
        "query failed: {}",
        String::from_utf8_lossy(&q.stderr)
    );
    let stdout = String::from_utf8_lossy(&q.stdout);
    assert!(stdout.contains("100 % skipped"), "{stdout}");
    assert!(
        stdout.contains("decoded 0 B of payload"),
        "stats-only scans must not touch compressed payloads: {stdout}"
    );

    // 4. Corrupt one bit of the first chunk's gap bitmap (absolute
    //    offset 60: 28-byte file header + 32-byte chunk stat header).
    //    The bitmap popcount no longer matches the recorded gap count,
    //    so any payload decode must exit non-zero naming the file and
    //    the chunk's byte offset — never a panic, never silent data.
    let victim = ds_dir.join("consumer_0.fxm");
    let mut bytes = std::fs::read(&victim).unwrap();
    bytes[60] ^= 0x01;
    std::fs::write(&victim, &bytes).unwrap();
    let bad = flextract(&["dataset", "ingest", "--dataset", ds_flag]);
    assert!(!bad.status.success(), "corrupt chunk must fail the decode");
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(stderr.contains("consumer_0.fxm"), "{stderr}");
    assert!(stderr.contains("chunk at byte offset"), "{stderr}");
    assert!(!stderr.contains("panicked"), "no backtrace: {stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_prints_usage() {
    let out = flextract(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn analyze_passes_on_the_committed_tree() {
    let out = flextract(&["analyze"]);
    assert!(
        out.status.success(),
        "the committed tree must be lint-clean: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 finding(s)"), "{stdout}");

    let json = flextract(&["analyze", "--json"]);
    assert!(json.status.success());
    let stdout = String::from_utf8_lossy(&json.stdout);
    assert!(stdout.contains("\"total\": 0"), "{stdout}");
    assert!(stdout.contains("\"files_scanned\""), "{stdout}");

    // --sarif writes a well-formed 2.1.0 log alongside the exit status.
    let dir = scratch_dir("analyze_sarif");
    std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
    let sarif_path = dir.join("findings.sarif");
    let sarif = flextract(&["analyze", "--sarif", sarif_path.to_str().unwrap()]);
    assert!(sarif.status.success());
    let log = std::fs::read_to_string(&sarif_path).expect("SARIF file must be written");
    assert!(log.contains("\"version\": \"2.1.0\""), "{log}");
    assert!(log.contains("flextract-analyze"), "{log}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_fails_with_exit_1_and_witness_on_a_seeded_violation() {
    let dir = scratch_dir("analyze");
    let src = dir.join("crates/demo/src");
    std::fs::create_dir_all(&src).expect("fixture tree is creatable");
    // A panic sink on a public entry-type method: the reachability pass
    // must flag it with a witness path even though no lexical lint
    // covers `.unwrap()` any more.
    std::fs::write(
        src.join("lib.rs"),
        "#![forbid(unsafe_code)]\n\
         pub struct Frame;\n\
         impl Frame {\n\
         \x20   pub fn head(&self, xs: &[f64]) -> f64 {\n\
         \x20       xs.first().copied().unwrap()\n\
         \x20   }\n\
         }\n",
    )
    .expect("fixture file is writable");

    let out = flextract(&["analyze", "--root", dir.to_str().unwrap(), "--no-cache"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "findings exit with status 1: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/demo/src/lib.rs:5:28"),
        "finding must name file:line:col: {stdout}"
    );
    assert!(stdout.contains("[panic-reachability]"), "{stdout}");
    assert!(
        stdout.contains("via: flextract_demo::Frame::head"),
        "finding must carry the witness path: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error:") && stderr.contains("1 unsuppressed finding"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn analyze_internal_errors_exit_2_naming_the_path() {
    let dir = scratch_dir("analyze_internal");
    std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
    // A malformed allowlist is an internal error, not a finding: the
    // gate must exit 2 (so CI can tell "tree is dirty" from "the
    // analyzer itself broke") and the message must name the file.
    let config = dir.join("broken.toml");
    std::fs::write(&config, "lint = \"x\"\n").expect("config is writable");
    let out = flextract(&["analyze", "--config", config.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "internal errors exit with status 2: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("broken.toml"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `dataset inspect` and `query --agg stats --json` over committed
/// single-manifest (FXM3 and CSV) and sharded datasets print exactly
/// the stdout pinned under `tests/golden/cli/`. Both commands read the
/// store through every layer — index parse, routing, shard roll-ups,
/// chunk statistics, index-byte accounting — so a refactor of the
/// store must leave these bytes unchanged. `UPDATE_GOLDEN=1` rewrites
/// the pins after an intentional output change.
#[test]
fn committed_dataset_inspect_and_query_stdout_is_pinned() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let golden_dir = root.join("tests").join("golden").join("cli");
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    for name in ["ds_household_1min", "ds_gap_heavy", "ds_sharded_fleet"] {
        let dataset = root.join("datasets").join(name);
        let dataset = dataset.to_str().unwrap();
        for (tag, args) in [
            ("inspect", vec!["dataset", "inspect", "--dataset", dataset]),
            (
                "query_stats",
                vec!["query", "--dataset", dataset, "--agg", "stats", "--json"],
            ),
        ] {
            let out = flextract(&args);
            assert!(
                out.status.success(),
                "{name} {tag}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let pin = golden_dir.join(format!("{name}.{tag}.txt"));
            if update {
                std::fs::create_dir_all(&golden_dir).expect("golden dir is creatable");
                std::fs::write(&pin, &out.stdout).expect("pin is writable");
                continue;
            }
            let expected =
                std::fs::read_to_string(&pin).unwrap_or_else(|e| panic!("{}: {e}", pin.display()));
            assert_eq!(
                String::from_utf8_lossy(&out.stdout),
                expected,
                "{name} {tag}: stdout drifted from {}",
                pin.display()
            );
        }
    }
}
