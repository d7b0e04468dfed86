//! Golden-file regression suite over the committed scenario corpus.
//!
//! Every scenario under `scenarios/` is executed and its deterministic
//! [`ScenarioReport`] JSON is compared byte-for-byte against the
//! snapshot committed under `tests/golden/<name>.json`. Run with
//! `UPDATE_GOLDEN=1` to regenerate the snapshots after an intentional
//! pipeline change; a mismatch prints a readable line diff. Stale or
//! missing snapshots fail the suite too, so the corpus and the golden
//! directory can never drift apart silently.
//!
//! `CONSUMER_THREADS=<n>` selects the intra-scenario worker count
//! (default 2, so the sharded merge path is exercised on every run);
//! reports are byte-identical at any value — CI regenerates the
//! snapshots at 1 and 8 and diffs to prove it.

use flextract::scenario::{load_dir, load_file, ScenarioReport, ScenarioRunner};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Minimal readable line diff: every differing line as `-expected` /
/// `+actual`, capped so a wildly drifted report stays scannable.
fn render_diff(expected: &str, actual: &str) -> String {
    let e: Vec<&str> = expected.lines().collect();
    let a: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    let mut shown = 0;
    for i in 0..e.len().max(a.len()) {
        let (le, la) = (e.get(i).copied(), a.get(i).copied());
        if le == la {
            continue;
        }
        if shown == 12 {
            out.push_str("      … (more differences elided)\n");
            break;
        }
        shown += 1;
        if let Some(l) = le {
            out.push_str(&format!("      - {:>3} | {l}\n", i + 1));
        }
        if let Some(l) = la {
            out.push_str(&format!("      + {:>3} | {l}\n", i + 1));
        }
    }
    out
}

#[test]
fn corpus_reports_match_golden_snapshots() {
    let scenarios = load_dir(&repo_root().join("scenarios")).expect("committed corpus loads");
    assert!(
        scenarios.len() >= 16,
        "corpus shrank to {} scenarios",
        scenarios.len()
    );
    let golden_dir = repo_root().join("tests").join("golden");
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    // A set-but-garbled value must fail, not silently fall back: the
    // CI thread-count stability gate depends on the 1- and 8-thread
    // legs actually running at those counts.
    let consumer_threads = match std::env::var("CONSUMER_THREADS") {
        Err(_) => 2,
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("CONSUMER_THREADS must be a positive integer, got `{v}`")),
    };
    let results = ScenarioRunner::with_threads(8)
        .with_consumer_threads(consumer_threads)
        .run_all(&scenarios);

    let mut failures: Vec<String> = Vec::new();
    let mut expected_files: BTreeSet<String> = BTreeSet::new();
    for (scenario, result) in scenarios.iter().zip(results) {
        let outcome = match result {
            Ok(o) => o,
            Err(e) => {
                failures.push(format!("{}: run failed: {e}", scenario.name));
                continue;
            }
        };
        let json = serde_json::to_string_pretty(&outcome.report).expect("reports serialise") + "\n";
        let file = format!("{}.json", scenario.name);
        let path = golden_dir.join(&file);
        expected_files.insert(file);
        if update {
            std::fs::create_dir_all(&golden_dir).expect("golden dir is creatable");
            std::fs::write(&path, &json).expect("snapshot is writable");
            continue;
        }
        match std::fs::read_to_string(&path) {
            Err(_) => failures.push(format!(
                "{}: no snapshot at {} — run with UPDATE_GOLDEN=1 to create it",
                scenario.name,
                path.display()
            )),
            Ok(snapshot) if snapshot == json => {}
            Ok(snapshot) => failures.push(format!(
                "{}: report drifted from its snapshot \
                 (UPDATE_GOLDEN=1 regenerates after intentional changes):\n{}",
                scenario.name,
                render_diff(&snapshot, &json)
            )),
        }
    }

    // A snapshot with no matching scenario is drift in the other
    // direction: a scenario was renamed or deleted without its golden.
    // Update mode prunes such files so the regeneration always leaves a
    // committable green tree; check mode reports them as failures. An
    // absent golden dir is already reported per scenario above as a
    // missing snapshot, so it is not an error here.
    if let Ok(entries) = std::fs::read_dir(&golden_dir) {
        for entry in entries {
            let entry = entry.expect("golden dir entry");
            let name = entry.file_name().to_string_lossy().to_string();
            if !name.ends_with(".json") || expected_files.contains(&name) {
                continue;
            }
            if update {
                // Don't prune while runs are failing: a failed scenario
                // never registers its file, and deleting its (possibly
                // still valid) snapshot would compound the breakage.
                if failures.is_empty() {
                    std::fs::remove_file(entry.path()).expect("stale snapshot is removable");
                }
            } else {
                failures.push(format!(
                    "stale snapshot tests/golden/{name}: no scenario produces it"
                ));
            }
        }
    }

    assert!(
        failures.is_empty(),
        "golden-file regressions:\n  {}",
        failures.join("\n  ")
    );
}

#[test]
fn reports_are_byte_identical_across_repeat_runs() {
    let scenarios = load_dir(&repo_root().join("scenarios")).expect("committed corpus loads");
    let scenario = scenarios
        .iter()
        .find(|s| s.name == "fig5_peak_day")
        .expect("fig5_peak_day is part of the committed corpus");
    let runner = ScenarioRunner::default();
    let a = runner.run(scenario).expect("run a");
    let b = runner.run(scenario).expect("run b");
    assert_eq!(
        serde_json::to_string_pretty(&a.report).unwrap(),
        serde_json::to_string_pretty(&b.report).unwrap(),
        "identical spec + seed must reproduce the identical report"
    );
}

/// The committed report of scenario `name`. The golden gate above ties
/// each snapshot to a run of the corpus, so a claim read off it holds
/// for the code as committed.
fn committed_report(name: &str) -> ScenarioReport {
    let path = repo_root()
        .join("tests")
        .join("golden")
        .join(format!("{name}.json"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The paper's evaluation claims (§5–6), read off the committed
/// reports of the scenarios that run them.
#[test]
fn committed_reports_carry_the_papers_evaluation_claims() {
    // The share range (MIRACLE's 0.1–6.5 %, §1 ref [7]): the peak
    // extractor delivers each end of it to within 10 %, low below high.
    let mut achieved = Vec::new();
    for name in ["share_low_0p1pct", "share_high_6p5pct"] {
        let spec = load_file(&repo_root().join("scenarios").join(format!("{name}.json")))
            .expect("committed scenario loads");
        let share = committed_report(name).achieved_share;
        assert!(
            (share - spec.flexible_share).abs() <= 0.1 * spec.flexible_share,
            "{name}: achieved share {share} vs configured {}",
            spec.flexible_share
        );
        achieved.push(share);
    }
    assert!(achieved[0] < achieved[1], "share range: {achieved:?}");

    // Multi-tariff extraction (§3.3): the same households, responding
    // more strongly to the tariff, give up more of their true flexible
    // load.
    let sensitive = committed_report("multi_tariff_sensitive").recall;
    let weak = committed_report("multi_tariff_weak").recall;
    assert!(
        sensitive > weak,
        "multi-tariff recall: sensitive {sensitive} vs weak {weak}"
    );

    // Aggregation (§6): macro offers never outnumber their members.
    for name in ["agg_compression_fleet", "res_scheduling_high_wind"] {
        let report = committed_report(name);
        let agg = report
            .aggregation
            .unwrap_or_else(|| panic!("{name}: no aggregation stage"));
        assert!(
            agg.aggregates <= report.offers,
            "{name}: {} aggregates of {} offers",
            agg.aggregates,
            report.offers
        );
        assert!(agg.compression >= 1.0, "{name}: {}", agg.compression);
    }
    // Scheduling against RES (§6): scheduling does not worsen the
    // imbalance beyond a 5 % tolerance.
    let schedule = committed_report("res_scheduling_high_wind")
        .schedule
        .expect("res_scheduling_high_wind schedules");
    assert!(
        schedule.imbalance_improvement >= -0.05,
        "imbalance improvement {}",
        schedule.imbalance_improvement
    );
}
