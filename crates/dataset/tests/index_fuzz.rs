//! Corrupt-index fuzz over the committed datasets.
//!
//! Every truncation and every single-byte flip (XOR 0xFF) of a dataset
//! index — a legacy `manifest.json`, a sharded `root.json`, a shard's
//! own `manifest.json` — must open and load every consumer to `Ok` or a
//! typed [`DatasetError`], never a panic. A [`DatasetError::Manifest`]
//! must name the file that was corrupted, so an operator knows which
//! index to restore.

use flextract_dataset::{Dataset, DatasetError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// Open the dataset at `dir` and load every consumer.
fn open_and_load(dir: &Path) -> Result<(), DatasetError> {
    let ds = Dataset::open(dir)?;
    for idx in 0..ds.len() {
        ds.consumer(idx)?;
    }
    Ok(())
}

/// Run every truncation and single-byte flip of `index` (relative to
/// the committed dataset `name`) through [`open_and_load`] on a temp
/// copy.
fn fuzz_index(name: &str, index: &str) {
    let src = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../datasets")
        .join(name);
    let tag = index.replace('/', "_");
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "flextract_index_fuzz_{name}_{tag}_{}",
        std::process::id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    copy_dir(&src, &dir);
    let target = dir.join(index);
    let original = std::fs::read(&target).unwrap();
    open_and_load(&dir).expect("the committed dataset loads");

    let truncations =
        (0..original.len()).map(|n| (format!("truncated to {n} bytes"), original[..n].to_vec()));
    let flips = (0..original.len()).map(|i| {
        let mut bytes = original.clone();
        bytes[i] ^= 0xFF;
        (format!("byte {i} flipped"), bytes)
    });
    let mut manifest_errors = 0;
    for (mutation, bytes) in truncations.chain(flips) {
        std::fs::write(&target, &bytes).unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| open_and_load(&dir)))
            .unwrap_or_else(|_| panic!("{name}/{index} {mutation}: panicked"));
        if let Err(DatasetError::Manifest { path, what }) = outcome {
            assert!(
                Path::new(&path).ends_with(index),
                "{name}/{index} {mutation}: manifest error names {path}: {what}"
            );
            manifest_errors += 1;
        }
    }
    // Nearly every mutation breaks the JSON; the sweep must have
    // exercised the index error path, not only the happy one.
    assert!(manifest_errors > original.len(), "{name}/{index}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn legacy_manifest_mutations_never_panic() {
    fuzz_index("ds_household_1min", "manifest.json");
}

#[test]
fn sharded_root_mutations_never_panic() {
    fuzz_index("ds_sharded_fleet", "root.json");
}

#[test]
fn shard_manifest_mutations_never_panic() {
    fuzz_index("ds_sharded_fleet", "shards/0000/manifest.json");
}
