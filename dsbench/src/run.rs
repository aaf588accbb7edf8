//! One benchmark run: set-up, then compress → decode → served reads on
//! the real library path, every output checked.
//!
//! The path is the one `dsqz compress --stream`, `dsqz decompress` and
//! `dsqz serve` take: `compress_stream_to` over a [`CsvFileSource`] into
//! an archive file, `ds_serve::Archive::open` plus a full
//! `Archive::stream_csv` decode into a CSV file, and a closed loop of
//! `Archive::read_rows_with_stats` calls from one client. The schema is
//! handed in from the generator: CLI schema inference would read census's
//! numeric-looking categories as numbers.

use crate::measure::{self, median, percentile, secs_since, Rng};
use crate::trace::{self, Tracer};
use crate::verify::{check_bytes, check_table, numeric_bounds};
use crate::workload::{Ranges, Workload};
use ds_core::{compress_stream_to, DsConfig, SizeBreakdown, TrainedCompressor};
use ds_serve::{Archive, ReadStats};
use ds_table::csv::{read_csv, write_csv, write_csv_rows};
use ds_table::stream::{CsvFileSource, RowSource};
use ds_table::{Column, Schema, Table};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Rows per `CsvFileSource` chunk: the `dsqz compress --stream` default.
const CHUNK_ROWS: usize = 4096;
/// Seconds of repeated set-up per round, at least one; `setup_s` is the
/// median of the rounds' mean set-up times.
const SETUP_ROUND_S: f64 = 0.4;
/// Rounds of set-up, compress, decompress and reads in an untraced run.
const ROUNDS: usize = 8;
/// Timed reads per untraced run at least, and exactly per traced run:
/// 1000 puts 10 samples beyond p99.
const MIN_READS: usize = 1000;
/// Skewed reads issued after the one-read-per-shard warm-up pass.
const WARMUP_READS: usize = 100;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run measured and how many of its operations failed.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable summary, printed before the result line.
    pub report: String,
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory for the run's scratch files (removed afterwards) and
    /// its spans file (kept).
    pub out_dir: PathBuf,
}

/// Counts operations; a failed call or a failed check is one failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 8 {
                    self.errors.push(format!("{what}: {e}"));
                }
                None
            }
        }
    }
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// The generated table as the program sees it, and where it lies.
struct Inputs {
    /// The CSV parsed back under the generator's schema: the values the
    /// compressor receives, so the reference every check compares with.
    table: Table,
    schema: Schema,
    csv_path: PathBuf,
    csv: Vec<u8>,
    bounds: Vec<f64>,
}

/// Generates the table and writes its CSV to `path`: the set-up a later
/// change must not grow unnoticed. Returns the schema and the seconds.
fn write_table(w: &Workload, seed: u64, path: &Path) -> Result<(Schema, f64), String> {
    let t0 = Instant::now();
    let table = w.dataset.generate(w.rows, w.table_seed(seed));
    create_new(path)?
        .write_all(write_csv(&table).as_bytes())
        .map_err(err)?;
    Ok((table.schema().clone(), secs_since(t0)))
}

/// Writes the table's CSV once and loads the reference.
fn setup(w: &Workload, seed: u64, dir: &Path) -> Result<Inputs, String> {
    let csv_path = dir.join("table.csv");
    let (schema, _) = write_table(w, seed, &csv_path)?;
    let csv = std::fs::read(&csv_path).map_err(err)?;
    let text = std::str::from_utf8(&csv).map_err(err)?;
    let table = read_csv(text, schema.clone()).map_err(err)?;
    let bounds = numeric_bounds(&table, w.error);
    Ok(Inputs {
        table,
        schema,
        csv_path,
        csv,
        bounds,
    })
}

/// Size and layout of one compressed archive.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Compressed {
    bytes: u64,
    shards: usize,
    breakdown: SizeBreakdown,
}

fn compress_to<W: Write>(
    source: &dyn RowSource,
    cfg: &DsConfig,
    sink: W,
) -> Result<Compressed, String> {
    let mut out = compress_stream_to(source, cfg, sink).map_err(err)?;
    out.sink.flush().map_err(err)?;
    Ok(Compressed {
        bytes: out.total_bytes,
        shards: out.n_shards,
        breakdown: out.breakdown,
    })
}

/// Creates `path` as a new file. An existing file is unlinked first, not
/// truncated: ext4 flushes a truncated-and-rewritten file when it is
/// closed, which would time the disk instead of the library.
fn create_new(path: &Path) -> Result<File, String> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(err(e)),
        _ => {}
    }
    File::create(path).map_err(err)
}

fn create(path: &Path) -> Result<BufWriter<File>, String> {
    Ok(BufWriter::new(create_new(path)?))
}

fn open_archive(path: &Path, cache_bytes: Option<usize>) -> Result<Archive<File>, String> {
    let file = File::open(path).map_err(err)?;
    match cache_bytes {
        Some(b) => Archive::with_cache(file, b),
        None => Archive::open(file),
    }
    .map_err(err)
}

/// `dsqz decompress`: open, then stream every row as CSV into `sink`.
fn decompress_to<W: Write>(archive_path: &Path, sink: &mut W) -> Result<u64, String> {
    let archive = open_archive(archive_path, None)?;
    archive
        .stream_csv(0..archive.total_rows(), sink, true)
        .map_err(err)
}

/// Checks one decoded CSV: byte for byte on lossless workloads, cell by
/// cell within the error bound otherwise. A lossy output that passed is
/// kept in `verified`, and later outputs must equal it byte for byte.
fn check_decoded(
    w: &Workload,
    inputs: &Inputs,
    out_path: &Path,
    verified: &mut Option<Vec<u8>>,
) -> Result<(), String> {
    let got = std::fs::read(out_path).map_err(err)?;
    if w.error == 0.0 {
        return check_bytes(&inputs.csv, &got);
    }
    if let Some(first) = verified {
        return check_bytes(first, &got);
    }
    let text = std::str::from_utf8(&got).map_err(err)?;
    let decoded = read_csv(text, inputs.schema.clone()).map_err(err)?;
    // Decoded numbers went through the writer's six fractional digits.
    check_table(&inputs.table, &decoded, &inputs.bounds, 1e-6)?;
    *verified = Some(got);
    Ok(())
}

/// Decoded bytes of the whole archive as the shard cache counts them.
fn decoded_bytes(table: &Table, shard_rows: usize) -> usize {
    (0..table.nrows())
        .step_by(shard_rows.max(1))
        .map(|lo| table.slice_rows(lo..lo + shard_rows).mem_size())
        .sum()
}

/// Seeded read ranges of one workload.
pub struct RangeGen {
    rng: Rng,
    rows: usize,
    len: usize,
    shard_rows: usize,
    /// Zipf CDF over shard ranks and the seeded rank → shard permutation.
    zipf: Option<(Vec<f64>, Vec<usize>)>,
}

impl RangeGen {
    pub fn new(w: &Workload, seed: u64, rows: usize) -> RangeGen {
        let mut rng = Rng::new(seed ^ 0x0005_EADE);
        let shard_rows = w.shard_rows.max(1);
        let zipf = match w.ranges {
            Ranges::Uniform => None,
            Ranges::Zipf(s) => {
                let n = rows.div_ceil(shard_rows).max(1);
                let mut cdf: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
                let mut acc = 0.0;
                for p in cdf.iter_mut() {
                    acc += *p;
                    *p = acc;
                }
                cdf.iter_mut().for_each(|p| *p /= acc);
                let mut perm: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    perm.swap(i, rng.below(i + 1));
                }
                Some((cdf, perm))
            }
        };
        RangeGen {
            rng,
            rows,
            len: w.read_rows.clamp(1, rows.max(1)),
            shard_rows,
            zipf,
        }
    }

    pub fn next_range(&mut self) -> Range<usize> {
        let start = match &self.zipf {
            None => self.rng.below(self.rows - self.len + 1),
            Some((cdf, perm)) => {
                let u = self.rng.unit();
                let rank = cdf.partition_point(|&p| p < u).min(perm.len() - 1);
                let shard_lo = perm[rank] * self.shard_rows;
                let in_shard = self.shard_rows.min(self.rows - shard_lo);
                shard_lo + self.rng.below(in_shard.saturating_sub(self.len) + 1)
            }
        };
        start..(start + self.len).min(self.rows)
    }
}

/// Latencies and cache outcomes of a sequence of served reads.
#[derive(Default)]
struct Reads {
    lat_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    stats: Vec<ReadStats>,
}

impl Reads {
    fn hits(&self) -> usize {
        self.stats.iter().map(|s| s.cache_hits).sum()
    }
    fn misses(&self) -> usize {
        self.stats.iter().map(|s| s.cache_misses).sum()
    }
    fn decoded(&self) -> usize {
        self.stats.iter().map(|s| s.shards_decoded).sum()
    }
}

/// Issues one served read of `range`, timed (and traced as request
/// `req` when a tracer is given), and checks it against the reference.
fn one_read(
    archive: &Archive<File>,
    range: Range<usize>,
    inputs: &Inputs,
    tracer: Option<&Tracer>,
    req: u64,
    tally: &mut Tally,
    reads: &mut Reads,
) {
    let call = || archive.read_rows_with_stats(range.clone());
    let (res, ms) = match tracer {
        Some(t) => t.span("serve.read", req, call),
        None => {
            let t0 = Instant::now();
            let res = call();
            (res, secs_since(t0) * 1e3)
        }
    };
    let checked = res.map_err(err).and_then(|(got, stats)| {
        let expected = inputs.table.slice_rows(range.clone());
        check_table(&expected, &got, &inputs.bounds, 0.0).map(|()| stats)
    });
    if let Some(stats) = tally.record("served read", checked) {
        reads.lat_ms.push(ms);
        if stats.cache_misses == 0 {
            reads.hit_ms.push(ms);
        } else {
            reads.miss_ms.push(ms);
        }
        reads.stats.push(stats);
    }
}

/// Warm-up: one read per shard in order, then `WARMUP_READS` skewed
/// reads, so the timed loop starts from the workload's steady cache.
fn warm_up(
    archive: &Archive<File>,
    gen: &mut RangeGen,
    inputs: &Inputs,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> Reads {
    let mut reads = Reads::default();
    let shard_ranges: Vec<Range<usize>> =
        archive.entries().iter().map(|e| e.rows.clone()).collect();
    let ranges = shard_ranges
        .into_iter()
        .chain((0..WARMUP_READS).map(|_| gen.next_range()));
    for (k, range) in ranges.enumerate() {
        one_read(
            archive,
            range,
            inputs,
            tracer,
            k as u64 + 1,
            tally,
            &mut reads,
        );
    }
    reads
}

/// The timed closed loop: one client, each read waits for its reply,
/// until `budget_s` has passed and at least `min_reads` reads are done.
#[allow(clippy::too_many_arguments)]
fn read_loop(
    archive: &Archive<File>,
    gen: &mut RangeGen,
    inputs: &Inputs,
    tracer: Option<&Tracer>,
    req_base: u64,
    budget_s: f64,
    min_reads: usize,
    tally: &mut Tally,
    reads: &mut Reads,
) {
    let t0 = Instant::now();
    let mut k = 0u64;
    while k < min_reads as u64 || secs_since(t0) < budget_s {
        let range = gen.next_range();
        one_read(archive, range, inputs, tracer, req_base + k, tally, reads);
        k += 1;
    }
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

/// Throughput of `samples` calls that each moved `mb` MB: total work over
/// total time. Unlike a median of the times, it moves smoothly when the
/// host's fast and slow stretches mix in different proportions.
fn rate(mb: f64, samples: &[f64]) -> f64 {
    mb * samples.len() as f64 / samples.iter().sum::<f64>()
}

/// Runs one workload once.
pub fn run(p: &Params) -> Result<Outcome, String> {
    let work = p
        .out_dir
        .join(format!("work-{}-{}", p.workload.name, std::process::id()));
    std::fs::create_dir_all(&work).map_err(err)?;
    let out = if p.trace {
        run_traced(p, &work)
    } else {
        run_timed(p, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    out
}

fn describe(p: &Params, inputs: &Inputs, cache_bytes: usize, decoded: usize) -> String {
    let w = &p.workload;
    let (cats, nums) = inputs.table.type_counts();
    format!(
        "workload {} (seed {}, table seed {}, {} thread(s)): {} rows, {cats} categorical + {nums} numeric columns, \
         CSV {:.3} MB, --error {}, --sample-frac {}, {} rows/shard, cache {} = {:.3} MB of {:.3} MB decoded, \
         {} reads of {} rows ({:?})\n",
        w.name,
        p.seed,
        w.table_seed(p.seed),
        ds_exec_threads(),
        inputs.table.nrows(),
        mb(inputs.csv.len()),
        w.error,
        w.sample_frac,
        w.shard_rows,
        w.cache.label(),
        mb(cache_bytes),
        mb(decoded),
        if p.trace { "traced" } else { "timed" },
        w.read_rows,
        w.ranges,
    )
}

fn ds_exec_threads() -> String {
    std::env::var("DS_THREADS").unwrap_or_else(|_| "default".into())
}

/// Runs `f`, returning its result and the wall seconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, secs_since(t0))
}

/// Median of per-call memory samples; an error if procfs gave none.
fn median_mem(samples: &[Option<f64>]) -> Result<f64, String> {
    let v: Option<Vec<f64>> = samples.iter().copied().collect();
    match v {
        Some(v) if !v.is_empty() => Ok(median(&v)),
        _ => Err("procfs cannot reset or report the peak resident set".into()),
    }
}

/// The untraced run: end-to-end metrics.
///
/// An untimed first pass compresses once (the archive every later
/// compress must equal), decodes once and opens and warms the served
/// handle. Then the run is cut into rounds of set-up, compress, decompress
/// and served reads, so every metric's samples are spread over the whole
/// run rather than one stretch of it: the host's speed drifts, and a
/// metric sampled in one stretch would carry that drift into its
/// run-to-run spread. Every compress and decompress call, and the open +
/// warm-up, is measured for the memory it adds.
fn run_timed(p: &Params, work: &Path) -> Result<Outcome, String> {
    let w = &p.workload;
    let inputs = setup(w, p.seed, work)?;
    let cfg = w.config();
    let csv_mb = mb(inputs.csv.len());
    let archive_path = work.join("table.dsqz");
    let again_path = work.join("again.dsqz");
    let again_csv = work.join("again.csv");
    let out_path = work.join("decoded.csv");
    let decoded = decoded_bytes(&inputs.table, w.shard_rows);
    let cache_bytes = w.cache.bytes(decoded);
    let mut gen = RangeGen::new(w, p.seed, inputs.table.nrows());
    let round_s = p.seconds / ROUNDS as f64;
    let read_share = (1.0 - w.compress_share - w.decompress_share).max(0.0);
    let source = || CsvFileSource::new(&inputs.csv_path, inputs.schema.clone(), CHUNK_ROWS);
    let mut tally = Tally::default();
    let mut verified = None;
    measure::release_free_memory();
    let harness_mb = measure::rss_mb().unwrap_or(0.0);

    // First pass, untimed.
    let (res, mem) = measure::peak_growth_mb(|| {
        create(&archive_path).and_then(|sink| compress_to(&source(), &cfg, sink))
    });
    let mut compress_mem = vec![mem];
    let Some(compressed) = tally.record("compress", res) else {
        return Err(format!("no archive was produced: {:?}", tally.errors));
    };
    let first_archive = std::fs::read(&archive_path).map_err(err)?;
    let (res, mem) = measure::peak_growth_mb(|| {
        create(&out_path).and_then(|mut sink| decompress_to(&archive_path, &mut sink))
    });
    let mut decompress_mem = vec![mem];
    tally.record(
        "decompress",
        res.and_then(|_| check_decoded(w, &inputs, &out_path, &mut verified)),
    );
    let (served, serve_mem) = measure::peak_growth_mb(|| {
        let archive = open_archive(&archive_path, Some(cache_bytes));
        tally.record("open", archive).map(|archive| {
            let warm = warm_up(&archive, &mut gen, &inputs, None, &mut tally);
            (archive, warm)
        })
    });

    let mut setup_s = Vec::new();
    let mut compress_s = Vec::new();
    let mut decompress_s = Vec::new();
    let mut reads = Reads::default();
    for _ in 0..ROUNDS {
        // Set-up again; every CSV must equal the first. The round's mean
        // is one sample.
        let t0 = Instant::now();
        let mut times = Vec::new();
        loop {
            let res = write_table(w, p.seed, &again_csv).and_then(|(_, s)| {
                let again = std::fs::read(&again_csv).map_err(err)?;
                check_bytes(&inputs.csv, &again).map(|()| s)
            });
            if let Some(s) = tally.record("set-up", res) {
                times.push(s);
            }
            if secs_since(t0) >= SETUP_ROUND_S {
                break;
            }
        }
        if !times.is_empty() {
            setup_s.push(times.iter().sum::<f64>() / times.len() as f64);
        }

        // Compress; every archive must equal the first.
        let t0 = Instant::now();
        loop {
            let ((res, s), mem) = measure::peak_growth_mb(|| {
                timed(|| create(&again_path).and_then(|sink| compress_to(&source(), &cfg, sink)))
            });
            compress_mem.push(mem);
            let checked = res.and_then(|_| {
                let bytes = std::fs::read(&again_path).map_err(err)?;
                check_bytes(&first_archive, &bytes)
            });
            if tally.record("compress", checked).is_some() {
                compress_s.push(s);
            }
            if secs_since(t0) >= w.compress_share * round_s {
                break;
            }
        }

        // Decompress: open + full stream_csv into a file, checked.
        let t0 = Instant::now();
        loop {
            let ((res, s), mem) = measure::peak_growth_mb(|| {
                timed(|| {
                    create(&out_path).and_then(|mut sink| decompress_to(&archive_path, &mut sink))
                })
            });
            decompress_mem.push(mem);
            let checked = res.and_then(|_| check_decoded(w, &inputs, &out_path, &mut verified));
            if tally.record("decompress", checked).is_some() {
                decompress_s.push(s);
            }
            if secs_since(t0) >= w.decompress_share * round_s {
                break;
            }
        }

        // Served reads against one handle whose cache lives across rounds.
        if let Some((archive, _)) = &served {
            let min_reads = MIN_READS.div_ceil(ROUNDS);
            let budget = read_share * round_s;
            read_loop(
                archive, &mut gen, &inputs, None, 0, budget, min_reads, &mut tally, &mut reads,
            );
        }
    }
    let warm_reads = served.map_or(0, |(_, warm)| warm.lat_ms.len());
    let phase_mem = [
        median_mem(&compress_mem)?,
        median_mem(&decompress_mem)?,
        median_mem(&[serve_mem])?,
    ];
    let peak_mem = phase_mem.iter().copied().fold(0.0, f64::max);
    let read_total_s: f64 = reads.lat_ms.iter().sum::<f64>() / 1e3;

    let ok_frac = (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64;
    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        m("setup_s", median(&setup_s), "s"),
        m("compress_mbps", rate(csv_mb, &compress_s), "MB/s"),
        m(
            "ratio",
            compressed.bytes as f64 / inputs.csv.len() as f64,
            "ratio",
        ),
        m("decompress_mbps", rate(csv_mb, &decompress_s), "MB/s"),
        m("read_p50_ms", percentile(&reads.lat_ms, 0.50), "ms"),
        m("read_p99_ms", percentile(&reads.lat_ms, 0.99), "ms"),
        m("read_rps", reads.lat_ms.len() as f64 / read_total_s, "1/s"),
        m("peak_rss_mb", peak_mem, "MB"),
        m("ok_frac", ok_frac, "ratio"),
    ];
    let mut report = describe(p, &inputs, cache_bytes, decoded);
    report.push_str(&format!(
        "  samples: {} set-up rounds, {} compresses, {} decompresses, {} warm-up + {} timed reads \
         (hit rate {:.3}); {} of {} operations failed, error_frac {}\n",
        setup_s.len(),
        compress_s.len(),
        decompress_s.len(),
        warm_reads,
        reads.lat_ms.len(),
        reads.hits() as f64 / (reads.hits() + reads.misses()).max(1) as f64,
        tally.failed,
        tally.attempted,
        tally.failed as f64 / tally.attempted.max(1) as f64,
    ));
    report.push_str(&format!(
        "  memory: harness {harness_mb:.1} MB resident after set-up; added at peak (median per call) \
         by compress {:.1} MB, decompress {:.1} MB, open + warm-up {:.1} MB\n",
        phase_mem[0], phase_mem[1], phase_mem[2],
    ));
    finish(report, &tally, metrics)
}

fn finish(mut report: String, tally: &Tally, metrics: Vec<Metric>) -> Result<Outcome, String> {
    for e in &tally.errors {
        report.push_str(&format!("  FAILED {e}\n"));
    }
    for m in &metrics {
        report.push_str(&format!("  {:<26} {:>14.4} {}\n", m.name, m.value, m.unit));
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        report,
    })
}

/// `CsvFileSource` whose chunk pulls are recorded as spans.
struct TracedSource<'a> {
    inner: CsvFileSource,
    tracer: &'a Tracer,
}

impl RowSource for TracedSource<'_> {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn chunk_rows(&self) -> usize {
        self.inner.chunk_rows()
    }

    fn chunks(&self) -> ds_table::Result<Box<dyn Iterator<Item = ds_table::Result<Table>> + '_>> {
        let (chunks, _) = self
            .tracer
            .span("table.csv_open", 0, || self.inner.chunks());
        let mut chunks = chunks?;
        Ok(Box::new(std::iter::from_fn(move || {
            self.tracer.span("table.csv_chunk", 0, || chunks.next()).0
        })))
    }
}

/// Sink whose writes and flushes are recorded as spans named `name`.
struct TracedWriter<'a, W> {
    inner: W,
    tracer: &'a Tracer,
    name: &'static str,
}

impl<W: Write> Write for TracedWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let inner = &mut self.inner;
        self.tracer.span(self.name, 0, || inner.write(buf)).0
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let inner = &mut self.inner;
        self.tracer.span(self.name, 0, || inner.flush()).0
    }
}

/// The table as Parquet-like columns (the §7 lossless baseline).
fn parq_columns(table: &Table) -> Vec<(String, ds_codec::parq::ParqColumn)> {
    use ds_codec::parq::ParqColumn;
    let names = table.schema().fields().iter().map(|f| f.name.clone());
    names
        .zip(table.columns())
        .map(|(name, c)| match c {
            Column::Cat(v) => (name, ParqColumn::Str(v.clone())),
            Column::Num(v) => (name, ParqColumn::F64(v.clone())),
        })
        .collect()
}

/// The traced run: per-layer metrics. Spans wrap the benchmark's calls
/// into each layer; an untraced compress runs beside every traced one so
/// shares and the tracing overhead have a same-run base.
fn run_traced(p: &Params, work: &Path) -> Result<Outcome, String> {
    let w = &p.workload;
    let inputs = setup(w, p.seed, work)?;
    let cfg = w.config();
    let csv_len = inputs.csv.len() as f64;
    let nrows = inputs.table.nrows();
    let archive_path = work.join("table.dsqz");
    let out_path = work.join("decoded.csv");
    let exact = vec![0.0; inputs.table.ncols()];
    let mut verified = None;
    let tracer = Tracer::new();
    let mut tally = Tally::default();
    let source = || CsvFileSource::new(&inputs.csv_path, inputs.schema.clone(), CHUNK_ROWS);

    // Compress untraced and traced, alternating which goes first, until
    // the phase budget is spent; every archive must equal the first.
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let (mut compress_cpu, mut compress_wall) = (0.0, 0.0);
    let mut compressed: Option<(Compressed, Vec<u8>)> = None;
    let t0 = Instant::now();
    let mut pair = 0;
    while pair == 0 || secs_since(t0) < w.compress_share * p.seconds {
        for traced_turn in [pair % 2 == 1, pair % 2 == 0] {
            let res = if traced_turn {
                let traced = TracedSource {
                    inner: source(),
                    tracer: &tracer,
                };
                let (res, ms) = tracer.span("core.compress", 0, || {
                    let sink = TracedWriter {
                        inner: create(&archive_path)?,
                        tracer: &tracer,
                        name: "io.archive_write",
                    };
                    compress_to(&traced, &cfg, sink)
                });
                if res.is_ok() {
                    traced_s.push(ms / 1e3);
                }
                res
            } else {
                let (res, wall, cpu) = measure::timed_cpu(|| {
                    create(&archive_path).and_then(|sink| compress_to(&source(), &cfg, sink))
                });
                if res.is_ok() {
                    plain_s.push(wall);
                    compress_wall += wall;
                    compress_cpu += cpu;
                }
                res
            };
            let checked = res.and_then(|c| {
                let bytes = std::fs::read(&archive_path).map_err(err)?;
                match &compressed {
                    Some((_, first)) => check_bytes(first, &bytes),
                    None => {
                        compressed = Some((c, bytes));
                        Ok(())
                    }
                }
            });
            tally.record("compress", checked);
        }
        pair += 1;
    }
    let Some((compressed, _)) = compressed else {
        return Err(format!("no archive was produced: {:?}", tally.errors));
    };
    let compress_ms = median(&plain_s) * 1e3;

    // ds-table: one CsvFileSource pass.
    let (parsed, parse_ms) = tracer.span("table.csv_parse", 0, || {
        let src = source();
        let chunks = src.chunks().map_err(err)?;
        chunks
            .map(|c| c.map_err(err))
            .collect::<Result<Vec<Table>, String>>()
    });
    tally.record(
        "csv parse",
        parsed.and_then(|parts| {
            let t = Table::concat(&parts).map_err(err)?;
            check_table(&inputs.table, &t, &exact, 0.0)
        }),
    );

    // ds-core / ds-nn: training under the same configuration.
    let (trained, train_ms) = tracer.span("core.train", 0, || {
        TrainedCompressor::train(&inputs.table, &cfg)
    });
    let trained = tally.record("train", trained.map_err(err));
    let epochs = trained.as_ref().map_or(0, |t| t.report.epochs_run);

    // ds-core materialize / ds-codec: each shard slice through
    // compress_batch, checked by decoding it back.
    let mut encode_ms = 0.0;
    if let Some(tc) = &trained {
        for (i, lo) in (0..nrows).step_by(w.shard_rows.max(1)).enumerate() {
            let slice = inputs.table.slice_rows(lo..lo + w.shard_rows);
            let (res, ms) = tracer.span("core.encode", i as u64, || tc.compress_batch(&slice));
            encode_ms += ms;
            let checked = res.map_err(err).and_then(|a| {
                let back = ds_core::decompress(&a).map_err(err)?;
                check_table(&slice, &back, &inputs.bounds, 0.0)
            });
            tally.record("encode", checked);
        }
    }
    let cols = parq_columns(&inputs.table);
    let (parq, _) = tracer.span("codec.parq", 0, || ds_codec::parq::write_table(&cols));
    let parq_bytes = tally.record(
        "parquet baseline",
        parq.map_err(err).and_then(|(bytes, _)| {
            match ds_codec::parq::read_table(&bytes).map_err(err)? == cols {
                true => Ok(bytes.len()),
                false => Err("parquet baseline does not round-trip".to_owned()),
            }
        }),
    );

    // ds-serve: open, full decode (untraced for CPU use, then traced),
    // and every shard read cold through a zero-cache handle.
    let mut open_ms = Vec::new();
    for _ in 0..5 {
        let (res, ms) = tracer.span("serve.open", 0, || open_archive(&archive_path, None));
        if tally.record("open", res).is_some() {
            open_ms.push(ms);
        }
    }
    let (res, decompress_wall, decompress_cpu) = measure::timed_cpu(|| {
        create(&out_path).and_then(|mut sink| decompress_to(&archive_path, &mut sink))
    });
    tally.record(
        "decompress",
        res.and_then(|_| check_decoded(w, &inputs, &out_path, &mut verified)),
    );
    let (res, _) = tracer.span("serve.decompress", 0, || {
        let mut sink = TracedWriter {
            inner: create(&out_path)?,
            tracer: &tracer,
            name: "io.csv_write",
        };
        decompress_to(&archive_path, &mut sink)
    });
    tally.record(
        "traced decompress",
        res.and_then(|_| check_decoded(w, &inputs, &out_path, &mut verified)),
    );
    let mut cold_ms = Vec::new();
    let mut csv_write_ms = 0.0;
    if let Some(cold) = tally.record("open cold", open_archive(&archive_path, Some(0))) {
        for (i, e) in cold.entries().iter().enumerate() {
            let (res, ms) = tracer.span("serve.cold_shard", i as u64, || {
                cold.read_rows(e.rows.clone())
            });
            let expected = inputs.table.slice_rows(e.rows.clone());
            let checked = res
                .map_err(err)
                .and_then(|t| check_table(&expected, &t, &inputs.bounds, 0.0).map(|()| t));
            if let Some(t) = tally.record("cold shard read", checked) {
                cold_ms.push(ms);
                let mut text = String::new();
                let (_, ms) = tracer.span("table.csv_write", i as u64, || {
                    write_csv_rows(&t, 0..t.nrows(), &mut text)
                });
                csv_write_ms += ms;
            }
        }
    }

    // Served reads, every one a span with its request id. The count is
    // fixed, so the cache counters depend only on the seed.
    let decoded = decoded_bytes(&inputs.table, w.shard_rows);
    let cache_bytes = w.cache.bytes(decoded);
    let mut gen = RangeGen::new(w, p.seed, nrows);
    let (mut warm, mut reads, mut evictions) = (Reads::default(), Reads::default(), 0);
    if let Some(archive) = tally.record("open", open_archive(&archive_path, Some(cache_bytes))) {
        warm = warm_up(&archive, &mut gen, &inputs, Some(&tracer), &mut tally);
        let evictions0 = archive.cache_stats().evictions;
        read_loop(
            &archive,
            &mut gen,
            &inputs,
            Some(&tracer),
            warm.lat_ms.len() as u64 + 1,
            0.0,
            MIN_READS,
            &mut tally,
            &mut reads,
        );
        evictions = archive.cache_stats().evictions - evictions0;
    }
    let hit_ms: Vec<f64> = warm.hit_ms.iter().chain(&reads.hit_ms).copied().collect();
    let miss_ms: Vec<f64> = warm.miss_ms.iter().chain(&reads.miss_ms).copied().collect();

    // The spans file: written once, then read back and checked.
    let spans = tracer.spans();
    let spans_path = p
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", w.name, p.seed));
    tally.record(
        "spans file",
        std::fs::write(&spans_path, trace::to_jsonl(&spans))
            .and_then(|()| std::fs::read_to_string(&spans_path))
            .map_err(err)
            .and_then(|text| trace::check_jsonl(&text)),
    );

    let overhead = median(&traced_s) / median(&plain_s);
    let b = compressed.breakdown;
    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        m("table.csv_parse_ms", parse_ms, "ms"),
        m("table.csv_write_ms", csv_write_ms, "ms"),
        m("core.train_ms", train_ms, "ms"),
        m("nn.epochs", epochs as f64, "count"),
        m("nn.epoch_ms", train_ms / epochs.max(1) as f64, "ms"),
        m("core.train_share", train_ms / compress_ms, "ratio"),
        m("core.encode_ms", encode_ms, "ms"),
        m("core.encode_share", encode_ms / compress_ms, "ratio"),
        m(
            "codec.parq_ratio",
            parq_bytes.unwrap_or(0) as f64 / csv_len,
            "ratio",
        ),
        m("size.decoder_bytes", b.decoder as f64, "bytes"),
        m("size.codes_bytes", b.codes as f64, "bytes"),
        m("size.failures_bytes", b.failures as f64, "bytes"),
        m("size.metadata_bytes", b.metadata as f64, "bytes"),
        m("size.shards", compressed.shards as f64, "count"),
        m("serve.open_ms", median(&open_ms), "ms"),
        m("serve.cold_shard_ms", median(&cold_ms), "ms"),
        m(
            "serve.hit_rate",
            reads.hits() as f64 / (reads.hits() + reads.misses()).max(1) as f64,
            "ratio",
        ),
        m("serve.shards_decoded", reads.decoded() as f64, "count"),
        m("serve.evictions", evictions as f64, "count"),
        m("serve.hit_read_p50_ms", median(&hit_ms), "ms"),
        m("serve.miss_read_p50_ms", median(&miss_ms), "ms"),
        m(
            "exec.compress_cpu_util",
            compress_cpu / compress_wall.max(1e-9),
            "ratio",
        ),
        m(
            "exec.decompress_cpu_util",
            decompress_cpu / decompress_wall.max(1e-9),
            "ratio",
        ),
        m("bench.trace_overhead", overhead, "ratio"),
    ];

    let mut report = describe(p, &inputs, cache_bytes, decoded);
    report.push_str(&format!(
        "  compress {:.1} ms untraced ({} runs), {:.1} ms traced: trace overhead {:.4}x; \
         {} timed reads; spans file {} ({} spans)\n",
        compress_ms,
        plain_s.len(),
        median(&traced_s) * 1e3,
        overhead,
        reads.lat_ms.len(),
        spans_path.display(),
        spans.len(),
    ));
    report.push_str("  per-layer spans           count      total ms       self ms\n");
    for (name, (count, total, own)) in trace::by_name(&spans) {
        report.push_str(&format!(
            "  {name:<24} {count:>6} {total:>13.3} {own:>13.3}\n"
        ));
    }
    report.push_str(&format!("  trace overhead (compress) {overhead:.4}x\n"));
    finish(report, &tally, metrics)
}
