//! The three benchmark workloads and the seeded inputs they are built from.
//!
//! Why each workload exists, and which layer it stresses, is recorded in
//! the benchmark's README; the comments here only state the parameters.

use ds_core::DsConfig;
use ds_table::gen::Dataset;

/// Cache budget of the served-read phase, relative to the decoded bytes
/// of the whole archive (as the cache counts them, `Table::mem_size`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CacheSize {
    /// Twice the decoded table: after warm-up every read is a hit.
    Fits,
    /// A quarter of the decoded table: skewed reads hit and miss.
    Quarter,
}

impl CacheSize {
    /// The cache budget in bytes for a table of `decoded_bytes`.
    pub fn bytes(self, decoded_bytes: usize) -> usize {
        match self {
            CacheSize::Fits => decoded_bytes.saturating_mul(2),
            CacheSize::Quarter => decoded_bytes / 4,
        }
    }

    /// How the README and the run summary name this budget.
    pub fn label(self) -> &'static str {
        match self {
            CacheSize::Fits => "2x decoded (fits)",
            CacheSize::Quarter => "1/4 decoded",
        }
    }
}

/// How served read ranges are placed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ranges {
    /// Start row uniform over the table.
    Uniform,
    /// Shard drawn from a Zipf law with this exponent over a seeded
    /// permutation of the shards, range placed uniformly inside it (a
    /// read touches one shard, so each read is a hit or a one-shard miss).
    Zipf(f64),
}

/// One benchmark workload: a generated table and the settings it is
/// compressed, decoded and served under.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: Dataset,
    pub rows: usize,
    /// `--error`: relative numeric error bound (0 = lossless).
    pub error: f64,
    /// `--sample-frac`: share of rows the model trains on.
    pub sample_frac: f64,
    pub shard_rows: usize,
    pub cache: CacheSize,
    pub ranges: Ranges,
    /// Rows per served read.
    pub read_rows: usize,
    /// Fixed table seed, for a workload whose training time must not
    /// depend on `--seed` (see the census epoch cliff in the README).
    /// `None`: the table is generated from `--seed`.
    pub table_seed: Option<u64>,
    /// Shares of `--seconds` given to the compress and decompress phases;
    /// the served-read phase gets the rest.
    pub compress_share: f64,
    pub decompress_share: f64,
}

/// Names of the workloads. `BENCHMARK.json` lists all but
/// `monitor-bulk-lossy` (see the README's steadiness section).
pub const NAMES: [&str; 3] = [
    "census-lossless",
    "monitor-bulk-lossy",
    "criteo-smallshard-serve",
];

impl Workload {
    /// The workload called `name`, at full size.
    pub fn by_name(name: &str) -> Option<Workload> {
        let w = match name {
            "census-lossless" => Workload {
                name: "census-lossless",
                dataset: Dataset::Census,
                rows: 4_000,
                error: 0.0,
                sample_frac: 1.0,
                shard_rows: 1_000,
                cache: CacheSize::Fits,
                ranges: Ranges::Uniform,
                read_rows: 200,
                table_seed: Some(1),
                compress_share: 0.6,
                decompress_share: 0.2,
            },
            "monitor-bulk-lossy" => Workload {
                name: "monitor-bulk-lossy",
                dataset: Dataset::Monitor,
                rows: 200_000,
                error: 0.01,
                sample_frac: 0.005,
                shard_rows: 10_000,
                cache: CacheSize::Fits,
                ranges: Ranges::Uniform,
                read_rows: 5_000,
                table_seed: None,
                compress_share: 0.45,
                decompress_share: 0.35,
            },
            "criteo-smallshard-serve" => Workload {
                name: "criteo-smallshard-serve",
                dataset: Dataset::Criteo,
                rows: 20_000,
                error: 0.0,
                sample_frac: 0.01,
                shard_rows: 500,
                cache: CacheSize::Quarter,
                ranges: Ranges::Zipf(1.2),
                read_rows: 100,
                table_seed: None,
                compress_share: 0.4,
                decompress_share: 0.1,
            },
            _ => return None,
        };
        Some(w)
    }

    /// The same workload with row counts divided by `div` (at least one
    /// shard of one row), for quick checks of the whole benchmark path.
    pub fn scaled_down(mut self, div: usize) -> Workload {
        let div = div.max(1);
        self.rows = (self.rows / div).max(1);
        self.shard_rows = (self.shard_rows / div).max(1);
        self.read_rows = (self.read_rows / div).max(1);
        self
    }

    /// Seed of the generated table for benchmark seed `seed`.
    pub fn table_seed(&self, seed: u64) -> u64 {
        self.table_seed.unwrap_or(seed)
    }

    /// The compressor configuration: `dsqz compress --stream` defaults,
    /// training seed 0 included, plus this workload's error bound, sample
    /// share and shard size.
    pub fn config(&self) -> DsConfig {
        DsConfig {
            error_threshold: self.error,
            sample_frac: self.sample_frac,
            shard_rows: self.shard_rows,
            ..DsConfig::default()
        }
    }
}
