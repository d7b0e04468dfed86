//! Regeneration gate for the committed corpus datasets.
//!
//! Every dataset under `datasets/` (except `sources/`, which holds the
//! export-source scenario specs) must be exactly reproducible from its
//! own provenance record: the manifest names the source scenario, the
//! degradation, the seed and the codec, so `export_dataset` can re-run
//! the export and every file must come back byte-identical. Run with
//! `UPDATE_GOLDEN=1` to regenerate the committed datasets in place
//! after an intentional simulator or exporter change. Dataset bytes feed
//! two other pins, so regenerate them afterwards, in this order: the
//! scenario goldens (`UPDATE_GOLDEN=1 cargo test --test
//! scenario_golden`, the `ds_*` reports) and then the CLI pins under
//! `tests/golden/cli/` (`UPDATE_GOLDEN=1 cargo test --test cli_smoke`,
//! the `dataset inspect` / `query --agg stats` stdout). README §
//! "Re-baselining after a simulator change" has the whole procedure.

use flextract::dataset::{Dataset, MANIFEST_FILE, ROOT_FILE};
use flextract::scenario::{export_dataset, load_file, ExportOptions};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Held by every test that touches `datasets/`: under `UPDATE_GOLDEN=1`
/// the regeneration rewrites the committed directories in place, so a
/// concurrent reader could otherwise find one half-written.
static DATASETS: Mutex<()> = Mutex::new(());

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// All regular files under `dir` (recursively, so sharded layouts are
/// compared shard by shard), keyed by path relative to `dir`.
fn dir_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, files: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).expect("dataset dir is readable") {
            let entry = entry.expect("dataset dir entry");
            let path = entry.path();
            if path.is_dir() {
                walk(root, &path, files);
            } else if path.is_file() {
                let rel = path
                    .strip_prefix(root)
                    .expect("walked path sits under the dataset dir")
                    .to_string_lossy()
                    .replace('\\', "/");
                files.insert(rel, std::fs::read(&path).expect("dataset file is readable"));
            }
        }
    }
    let mut files = BTreeMap::new();
    walk(dir, dir, &mut files);
    files
}

#[test]
fn committed_datasets_regenerate_byte_identically() {
    let _guard = DATASETS.lock().unwrap_or_else(|e| e.into_inner());
    let root = repo_root();
    let datasets_dir = root.join("datasets");
    let update = std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1");

    let mut dataset_dirs: Vec<PathBuf> = std::fs::read_dir(&datasets_dir)
        .expect("datasets/ exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir() && p.file_name().is_some_and(|n| n != "sources"))
        .collect();
    dataset_dirs.sort();
    assert!(
        dataset_dirs.len() >= 3,
        "committed dataset corpus shrank to {} datasets",
        dataset_dirs.len()
    );

    let mut failures = Vec::new();
    for dir in dataset_dirs {
        let name = dir.file_name().unwrap().to_string_lossy().to_string();
        let ds = Dataset::open(&dir).expect("committed dataset opens");
        let source = ds
            .source_scenario()
            .unwrap_or_else(|| panic!("{name}: committed datasets must record their source"))
            .to_string();
        let spec_path = datasets_dir.join("sources").join(format!("{source}.json"));
        let scenario = load_file(&spec_path)
            .unwrap_or_else(|e| panic!("{name}: source spec {} : {e}", spec_path.display()));
        let options = ExportOptions {
            degradation: ds
                .degradation()
                .cloned()
                .expect("exported manifests record the degradation"),
            codec: ds.codec(),
            seed: ds.seed(),
            include_truth: ds
                .consumer_entry(0)
                .expect("committed datasets are non-empty")
                .truth_total
                .is_some(),
            shard_capacity: ds.root().map(|r| r.shard_capacity),
        };
        if update {
            // Remove before re-exporting: a sharded re-export over a
            // live store deliberately allocates fresh shard ids (crash
            // safety), which would differ from a fresh export's names.
            std::fs::remove_dir_all(&dir).expect("committed dataset dir is removable");
            export_dataset(&scenario, &dir, &options).expect("regeneration succeeds");
            continue;
        }
        let fresh_dir = std::env::temp_dir().join(format!(
            "flextract_dataset_golden_{name}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&fresh_dir);
        export_dataset(&scenario, &fresh_dir, &options).expect("regeneration succeeds");
        let committed = dir_files(&dir);
        let fresh = dir_files(&fresh_dir);
        let committed_names: Vec<&String> = committed.keys().collect();
        let fresh_names: Vec<&String> = fresh.keys().collect();
        if committed_names != fresh_names {
            failures.push(format!(
                "{name}: file sets differ (committed {committed_names:?} vs fresh {fresh_names:?})"
            ));
        } else {
            for (file, bytes) in &committed {
                if fresh[file] != *bytes {
                    failures.push(format!(
                        "{name}/{file}: drifted from its provenance \
                         (UPDATE_GOLDEN=1 regenerates after intentional changes)"
                    ));
                }
            }
        }
        std::fs::remove_dir_all(&fresh_dir).ok();
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn committed_manifests_are_internally_consistent() {
    let _guard = DATASETS.lock().unwrap_or_else(|e| e.into_inner());
    let root = repo_root();
    for entry in std::fs::read_dir(root.join("datasets")).expect("datasets/ exists") {
        let path = entry.expect("entry").path();
        if !path.is_dir() || path.file_name().is_some_and(|n| n == "sources") {
            continue;
        }
        let ds = Dataset::open(&path).expect("committed dataset opens");
        assert!(path.join(MANIFEST_FILE).is_file() || path.join(ROOT_FILE).is_file());
        // Every consumer loads cleanly and sits on the declared grid.
        for idx in 0..ds.len() {
            let record = ds
                .consumer(idx)
                .unwrap_or_else(|e| panic!("{}: consumer {idx}: {e}", path.display()));
            assert_eq!(
                record.measured.len(),
                ds.intervals(),
                "{}: consumer {idx} off-grid",
                path.display()
            );
        }
    }
}
