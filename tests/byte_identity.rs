//! Archive-byte pins. A sharded lossless compress of a small census-like
//! table (many categorical columns of 2–51 values) and a small
//! criteo-like table (categorical columns of 3–256 model classes) must
//! produce exactly the archive recorded here, for any thread count.
//!
//! Kernel rewrites on the training and decode paths (for example how the
//! shared categorical output layer is evaluated) claim to leave archives
//! byte-identical; these pins are what holds them to that claim. The
//! hashes were recorded on x86-64 Linux; a platform whose `exp`/`ln`
//! round differently may need its own pins. They were re-pinned once, on
//! purpose, when sharded containers started storing the column plans
//! once in the manifest instead of in every shard (codes, failures and
//! decoder bytes unchanged).

use ds_core::{compress, DsConfig};
use ds_table::gen::Dataset;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn pinned(dataset: Dataset, rows: usize, cfg: &DsConfig, expected: u64) {
    let t = dataset.generate(rows, 5);
    let one = ds_exec::with_thread_limit(1, || compress(&t, cfg))
        .unwrap_or_else(|e| panic!("{}: compress: {e}", dataset.name()));
    let two = ds_exec::with_thread_limit(2, || compress(&t, cfg))
        .unwrap_or_else(|e| panic!("{}: compress: {e}", dataset.name()));
    assert_eq!(
        one.as_bytes(),
        two.as_bytes(),
        "{}: archive bytes depend on thread count",
        dataset.name()
    );
    assert_eq!(
        fnv1a(one.as_bytes()),
        expected,
        "{}: archive bytes changed ({} bytes)",
        dataset.name(),
        one.as_bytes().len()
    );
}

#[test]
fn census_like_sharded_lossless_archive_is_pinned() {
    let cfg = DsConfig {
        error_threshold: 0.0,
        max_epochs: 6,
        shard_rows: 150,
        ..DsConfig::default()
    };
    pinned(Dataset::Census, 600, &cfg, 6_279_218_834_197_666_669);
}

#[test]
fn criteo_like_sharded_lossless_archive_is_pinned() {
    let cfg = DsConfig {
        error_threshold: 0.0,
        max_epochs: 6,
        sample_frac: 0.25,
        shard_rows: 250,
        ..DsConfig::default()
    };
    pinned(Dataset::Criteo, 1_500, &cfg, 3_881_207_994_402_645_650);
}
