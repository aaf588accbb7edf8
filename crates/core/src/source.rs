//! Magic-byte source negotiation: open *anything that holds rows* as a
//! rewindable [`RowSource`].
//!
//! [`open_source`] sniffs the input instead of trusting file extensions:
//!
//! * a v2 sharded container (trailing `DSRG` footer) — decoded shard by
//!   shard per pass, so recompression never holds the whole table;
//! * a v1 monolithic archive (leading `DSQZ` magic) — decompressed once
//!   into an in-memory table source;
//! * a CSV file (printable head, no NUL bytes) — schema inferred with
//!   `read_csv_infer`'s exact rules in one streaming pass;
//! * anything else — a typed [`DsError::Corrupt`], never a guess.
//!
//! Sniff order matters: a v2 container *starts* with its first shard
//! blob, which is itself a v1 archive, so the trailing v2 footer must be
//! probed before the leading v1 magic.
//!
//! [`open_source_reader`] extends the same negotiation to pipes
//! (`dsqz recompress - out.dsqz`): the stream is spooled to a temp file
//! first, because the two-pass stats/encode pipeline must rewind and a
//! pipe cannot. The spool is deleted when the source is dropped.

use crate::pipeline::ShardDecoder;
use crate::{decompress, DsArchive, DsError};
use ds_table::csv::CsvChunks;
use ds_table::stream::{CsvFileSource, RowSource};
use ds_table::{Field, Schema, Table, TableError};
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};

/// How many leading bytes the CSV-vs-binary probe examines.
const SNIFF_HEAD: usize = 8192;

/// What the magic-byte probe decided an input is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// Plain-text CSV (schema inferred).
    Csv,
    /// Monolithic v1 archive (leading `DSQZ` magic).
    ArchiveV1,
    /// Sharded v2 container (trailing `DSRG` footer).
    ArchiveV2,
}

impl SourceKind {
    /// Human-readable name, as printed by `dsqz recompress`.
    pub fn describe(&self) -> &'static str {
        match self {
            SourceKind::Csv => "csv",
            SourceKind::ArchiveV1 => "dsqz archive (v1 monolithic)",
            SourceKind::ArchiveV2 => "dsqz archive (v2 sharded)",
        }
    }
}

/// A negotiated input: some [`SourceKind`] opened as a rewindable
/// [`RowSource`], plus the temp-file spool keeping a piped input alive.
///
/// `OpenedSource` itself implements [`RowSource`], so it plugs straight
/// into [`crate::compress_stream_to`].
pub struct OpenedSource {
    kind: SourceKind,
    inner: SourceImpl,
    /// Deletes the spool file on drop; `None` for direct file inputs.
    _spool: Option<TempSpool>,
}

enum SourceImpl {
    Csv(CsvFileSource),
    Table(OwnedTableSource),
    Sharded(Box<ArchiveShardSource>),
}

impl OpenedSource {
    /// What the probe decided the input was.
    pub fn kind(&self) -> SourceKind {
        self.kind
    }

    fn as_source(&self) -> &dyn RowSource {
        match &self.inner {
            SourceImpl::Csv(s) => s,
            SourceImpl::Table(s) => s,
            SourceImpl::Sharded(s) => s.as_ref(),
        }
    }
}

impl RowSource for OpenedSource {
    fn schema(&self) -> &Schema {
        self.as_source().schema()
    }

    fn chunk_rows(&self) -> usize {
        self.as_source().chunk_rows()
    }

    fn chunks(&self) -> ds_table::Result<Box<dyn Iterator<Item = ds_table::Result<Table>> + '_>> {
        self.as_source().chunks()
    }
}

/// Sniffs `path` and opens it as a [`RowSource`] yielding about
/// `chunk_rows` rows per chunk (archives chunk at their own shard
/// boundaries). See the module docs for the negotiation rules.
pub fn open_source(path: impl AsRef<Path>, chunk_rows: usize) -> crate::Result<OpenedSource> {
    open_path(path.as_ref(), chunk_rows, None)
}

/// [`open_source`] for non-seekable inputs (pipes, `stdin`): spools the
/// whole stream to a temp file so both compressor passes can re-read it,
/// then negotiates exactly as [`open_source`] would. The temp file lives
/// as long as the returned source and is deleted on drop.
pub fn open_source_reader<R: Read>(
    mut reader: R,
    chunk_rows: usize,
) -> crate::Result<OpenedSource> {
    let spool = TempSpool::create()?;
    {
        let file = std::fs::File::create(&spool.path).map_err(io_err)?;
        let mut w = std::io::BufWriter::new(file);
        std::io::copy(&mut reader, &mut w).map_err(io_err)?;
        w.flush().map_err(io_err)?;
    }
    open_path(&spool.path.clone(), chunk_rows, Some(spool))
}

fn open_path(
    path: &Path,
    chunk_rows: usize,
    spool: Option<TempSpool>,
) -> crate::Result<OpenedSource> {
    let chunk_rows = chunk_rows.max(1);
    let kind = sniff_file(path)?;
    let inner = match kind {
        SourceKind::Csv => {
            let schema = infer_csv_schema(path, chunk_rows)?;
            SourceImpl::Csv(CsvFileSource::new(path, schema, chunk_rows))
        }
        SourceKind::ArchiveV1 => {
            // A v1 archive is one undivided blob: decoding it is all-or-
            // nothing, so the source is the decoded table itself.
            let bytes = std::fs::read(path).map_err(io_err)?;
            let table = decompress(&DsArchive::from_bytes(bytes))?;
            SourceImpl::Table(OwnedTableSource { table, chunk_rows })
        }
        SourceKind::ArchiveV2 => {
            let bytes = std::fs::read(path).map_err(io_err)?;
            SourceImpl::Sharded(Box::new(ArchiveShardSource::open(bytes)?))
        }
    };
    Ok(OpenedSource {
        kind,
        inner,
        _spool: spool,
    })
}

fn io_err(e: std::io::Error) -> DsError {
    DsError::Table(TableError::Io(e.to_string()))
}

/// Decides what `path` holds from its first and last bytes alone.
///
/// The v2 footer is probed **before** the v1 head magic: every v2
/// container begins with a v1 shard blob, so a head-first probe would
/// misread sharded containers as monolithic forever.
fn sniff_file(path: &Path) -> crate::Result<SourceKind> {
    let mut file = std::fs::File::open(path).map_err(io_err)?;
    let len = file.metadata().map_err(io_err)?.len();
    if len == 0 {
        return Err(DsError::Corrupt("empty input"));
    }

    if len >= ds_shard::FOOTER_LEN as u64 {
        use std::io::{Seek, SeekFrom};
        let mut footer = [0u8; ds_shard::FOOTER_LEN];
        file.seek(SeekFrom::End(-(ds_shard::FOOTER_LEN as i64)))
            .map_err(io_err)?;
        file.read_exact(&mut footer).map_err(io_err)?;
        if let Ok(manifest_len) = ds_shard::footer_manifest_len(&footer) {
            let plausible = manifest_len
                .checked_add(ds_shard::FOOTER_LEN)
                .is_some_and(|end| end as u64 <= len);
            if plausible {
                return Ok(SourceKind::ArchiveV2);
            }
        }
        file.seek(SeekFrom::Start(0)).map_err(io_err)?;
    }

    let mut head = vec![0u8; SNIFF_HEAD.min(len as usize)];
    file.read_exact(&mut head).map_err(io_err)?;
    if head.starts_with(crate::archive::MAGIC) {
        return Ok(SourceKind::ArchiveV1);
    }
    // CSV is text: any NUL in the head marks the input as binary garbage.
    if !head.contains(&0) {
        return Ok(SourceKind::Csv);
    }
    Err(DsError::Corrupt(
        "unrecognized input: no dsqz magic and not text",
    ))
}

/// One streaming pass over a CSV file resolving each column's type with
/// `read_csv_infer`'s exact rule: numeric iff the file has rows and every
/// cell parses as a finite f64 after trimming.
fn infer_csv_schema(path: &Path, chunk_rows: usize) -> crate::Result<Schema> {
    let file = std::fs::File::open(path).map_err(io_err)?;
    let mut chunks = CsvChunks::new(BufReader::new(file), chunk_rows).map_err(DsError::Table)?;
    let header: Vec<String> = chunks.header().to_vec();
    if header.iter().any(String::is_empty) {
        return Err(DsError::Table(TableError::Csv {
            line: 1,
            what: "empty column name in header",
        }));
    }
    let mut numeric_failures = vec![0u64; header.len()];
    let mut rows = 0usize;
    while let Some(records) = chunks.next_chunk().map_err(DsError::Table)? {
        for record in &records {
            for (value, failures) in record.iter().zip(numeric_failures.iter_mut()) {
                let numeric = value
                    .trim()
                    .parse::<f64>()
                    .ok()
                    .filter(|x| x.is_finite())
                    .is_some();
                if !numeric {
                    *failures += 1;
                }
            }
        }
        rows += records.len();
    }
    let fields: Vec<Field> = header
        .into_iter()
        .zip(&numeric_failures)
        .map(|(name, &failures)| {
            if rows > 0 && failures == 0 {
                Field::numeric(name)
            } else {
                Field::categorical(name)
            }
        })
        .collect();
    Schema::new(fields).map_err(DsError::Table)
}

/// [`RowSource`] over an owned in-memory table (the decoded v1 archive):
/// chunks are contiguous row slices, identical to
/// [`ds_table::stream::TableSource`] but self-contained.
struct OwnedTableSource {
    table: Table,
    chunk_rows: usize,
}

impl RowSource for OwnedTableSource {
    fn schema(&self) -> &Schema {
        self.table.schema()
    }

    fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    fn chunks(&self) -> ds_table::Result<Box<dyn Iterator<Item = ds_table::Result<Table>> + '_>> {
        let n = self.table.nrows();
        let step = self.chunk_rows;
        let n_chunks = n.div_ceil(step);
        Ok(Box::new((0..n_chunks).map(move |i| {
            let lo = i * step;
            Ok(self.table.slice_rows(lo..lo.saturating_add(step)))
        })))
    }
}

/// [`RowSource`] over a v2 sharded container: each pass walks the shard
/// index and decodes one row group at a time, so recompressing an archive
/// holds O(shard) rows — the same bound as streaming CSV ingest. The
/// shared decoder and column plans are parsed once at open and reused by
/// every pass.
struct ArchiveShardSource {
    bytes: Vec<u8>,
    decoder: ShardDecoder,
    schema: Schema,
    chunk_rows: usize,
}

impl ArchiveShardSource {
    fn open(bytes: Vec<u8>) -> crate::Result<ArchiveShardSource> {
        let (decoder, schema, chunk_rows) = {
            let reader = ds_shard::ShardReader::open(&bytes)?;
            let decoder = ShardDecoder::new(reader.manifest())?;
            // Shard 0 always exists (even empty containers carry one
            // zero-row shard) and fixes the schema shared by all shards.
            let first = decoder.decode_shard(reader.shard_bytes(0)?)?;
            let chunk_rows = reader
                .entries()
                .first()
                .map(|e| e.rows.len())
                .unwrap_or(0)
                .max(1);
            (decoder, first.schema().clone(), chunk_rows)
        };
        Ok(ArchiveShardSource {
            bytes,
            decoder,
            schema,
            chunk_rows,
        })
    }
}

impl RowSource for ArchiveShardSource {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    fn chunks(&self) -> ds_table::Result<Box<dyn Iterator<Item = ds_table::Result<Table>> + '_>> {
        // The container re-validated per pass: cheap (footer + manifest),
        // and keeps the borrow local to the iterator.
        let reader = match ds_shard::ShardReader::open(&self.bytes) {
            Ok(r) => r,
            Err(e) => return Err(TableError::Io(e.to_string())),
        };
        let decoder = &self.decoder;
        let n = reader.n_shards();
        let iter = (0..n).filter_map(move |i| {
            let table = reader
                .shard_bytes(i)
                .map_err(DsError::from)
                .and_then(|blob| decoder.decode_shard(blob));
            match table {
                // Zero-row shards (the empty-container marker) are framing,
                // not data: a source with no rows must yield no chunks.
                Ok(t) if t.nrows() == 0 => None,
                Ok(t) => Some(Ok(t)),
                // RowSource speaks TableError; archive decode failures
                // cross the boundary as a stringly Io error (the typed
                // chain/codec validation already ran at open_source time).
                Err(e) => Some(Err(TableError::Io(e.to_string()))),
            }
        });
        Ok(Box::new(iter))
    }
}

/// A temp file deleted on drop. Names are unique per call within the
/// process (atomic counter); collisions across processes are broken by
/// the pid component — no clock needed, which also keeps this module
/// inside the workspace's no-wallclock rule.
struct TempSpool {
    path: PathBuf,
}

impl TempSpool {
    fn create() -> crate::Result<TempSpool> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("dsqz-spool-{}-{seq}.tmp", std::process::id()));
        // create_new: refuse to reuse a leftover path rather than truncate
        // a file some other process is still reading.
        std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(io_err)?;
        Ok(TempSpool { path })
    }
}

impl Drop for TempSpool {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_table::csv::write_csv;
    use ds_table::{gen, ColumnType};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ds_core_source_{tag}"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn quick_cfg() -> crate::DsConfig {
        crate::DsConfig {
            error_threshold: 0.0,
            max_epochs: 2,
            seed: 5,
            ..crate::DsConfig::default()
        }
    }

    #[test]
    fn sniffs_csv_and_infers_schema() {
        let dir = tmp_dir("csv");
        let t = gen::census_like(60, 3);
        let csv = write_csv(&t);
        let path = dir.join("t.csv");
        std::fs::write(&path, &csv).unwrap();
        let src = open_source(&path, 16).expect("opens");
        assert_eq!(src.kind(), SourceKind::Csv);
        // Inference must match read_csv_infer exactly (categorical columns
        // whose values all *look* numeric legitimately come back Numeric).
        let reparsed = ds_table::csv::read_csv_infer(&csv).unwrap();
        assert_eq!(src.schema(), reparsed.schema());
        let parts: Vec<Table> = src
            .chunks()
            .unwrap()
            .collect::<ds_table::Result<_>>()
            .unwrap();
        assert_eq!(Table::concat(&parts).unwrap(), reparsed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sniffs_v1_and_v2_archives() {
        let dir = tmp_dir("arch");
        let t = gen::census_like(80, 11);

        let v1 = crate::compress(&t, &quick_cfg()).unwrap();
        let p1 = dir.join("a.v1");
        std::fs::write(&p1, v1.as_bytes()).unwrap();
        let src = open_source(&p1, 32).expect("opens v1");
        assert_eq!(src.kind(), SourceKind::ArchiveV1);
        let parts: Vec<Table> = src
            .chunks()
            .unwrap()
            .collect::<ds_table::Result<_>>()
            .unwrap();
        assert_eq!(Table::concat(&parts).unwrap(), t);

        let v2 = crate::compress(
            &t,
            &crate::DsConfig {
                shard_rows: 24,
                ..quick_cfg()
            },
        )
        .unwrap();
        let p2 = dir.join("a.v2");
        std::fs::write(&p2, v2.as_bytes()).unwrap();
        let src = open_source(&p2, 32).expect("opens v2");
        assert_eq!(src.kind(), SourceKind::ArchiveV2);
        assert_eq!(src.chunk_rows(), 24); // shards are the natural chunks
        let parts: Vec<Table> = src
            .chunks()
            .unwrap()
            .collect::<ds_table::Result<_>>()
            .unwrap();
        assert_eq!(Table::concat(&parts).unwrap(), t);
        // Rewind: a second pass yields the same rows.
        let again: Vec<Table> = src
            .chunks()
            .unwrap()
            .collect::<ds_table::Result<_>>()
            .unwrap();
        assert_eq!(Table::concat(&again).unwrap(), t);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_and_empty_inputs_are_typed_errors() {
        let dir = tmp_dir("bad");
        let garbage = dir.join("g.bin");
        std::fs::write(&garbage, [0u8, 1, 2, 0, 255, 0, 7]).unwrap();
        assert!(matches!(open_source(&garbage, 8), Err(DsError::Corrupt(_))));

        let empty = dir.join("e.bin");
        std::fs::write(&empty, []).unwrap();
        assert!(matches!(open_source(&empty, 8), Err(DsError::Corrupt(_))));

        assert!(matches!(
            open_source(dir.join("missing.csv"), 8),
            Err(DsError::Table(TableError::Io(_)))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reader_spool_matches_file_path() {
        let dir = tmp_dir("spool");
        let t = gen::census_like(50, 13);
        let csv = write_csv(&t);
        let path = dir.join("t.csv");
        std::fs::write(&path, &csv).unwrap();

        let from_file = open_source(&path, 16).unwrap();
        let from_pipe = open_source_reader(csv.as_bytes(), 16).unwrap();
        assert_eq!(from_pipe.kind(), SourceKind::Csv);
        assert_eq!(from_file.schema(), from_pipe.schema());

        let spool_path = from_pipe._spool.as_ref().map(|s| s.path.clone()).unwrap();
        assert!(spool_path.exists());

        let a: Vec<Table> = from_file
            .chunks()
            .unwrap()
            .collect::<ds_table::Result<_>>()
            .unwrap();
        let b: Vec<Table> = from_pipe
            .chunks()
            .unwrap()
            .collect::<ds_table::Result<_>>()
            .unwrap();
        assert_eq!(a, b);

        drop(from_pipe);
        assert!(!spool_path.exists(), "spool must be deleted on drop");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mixed_type_columns_resolve_categorical() {
        let dir = tmp_dir("mixed");
        let path = dir.join("m.csv");
        std::fs::write(&path, "a,b\n1,x\n2,3\n").unwrap();
        let src = open_source(&path, 4).unwrap();
        let tys: Vec<ColumnType> = src.schema().fields().iter().map(|f| f.ty).collect();
        assert_eq!(tys, [ColumnType::Numeric, ColumnType::Categorical]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
