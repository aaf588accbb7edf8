//! # ds-shard — sharded row-group archive container (v2)
//!
//! DeepSqueeze (§6) materializes one monolithic archive per table, so
//! decompression is all-or-nothing and peak memory scales with the table.
//! This crate adds a *container* layer that splits a table into
//! fixed-row-count row groups ("shards"), each compressed independently,
//! and lays them out so a reader can decode only the shards intersecting
//! a requested row range — in parallel — with per-shard CRC validation.
//!
//! The crate is deliberately semantics-free: shard blobs are opaque byte
//! strings (in practice each is a DeepSqueeze archive envelope whose
//! decoder weights and column plans are hoisted into the manifest), so
//! the container logic stays decoupled from the compression pipeline in
//! `ds-core`.
//!
//! ## Byte layout (container v2)
//!
//! ```text
//! ┌──────────────┬──────────────┬─────┬────────────────┬────────────────┐
//! │ shard blob 0 │ shard blob 1 │ ... │ manifest       │ footer (9 B)   │
//! └──────────────┴──────────────┴─────┴────────────────┴────────────────┘
//!
//! manifest := varint total_rows
//!           | len-prefixed shared blob          (opaque; may be empty)
//!           | len-prefixed parq table with columns
//!               "rows" U32  per-shard row count
//!               "len"  I64  per-shard byte length
//!               "crc"  U32  per-shard CRC-32 (IEEE) of the blob bytes
//!           | section*                          (optional, appended)
//!
//! section  := tag u8 | len-prefixed body
//!   tag 1  := per-shard per-column codec chains (see [`ShardChains`]):
//!             varint n_cols | varint n_dict
//!             | n_dict x (varint chain_len | chain_len x varint codec_id)
//!             | (n_shards * n_cols) x varint dict_index
//!   tag 2  := column names and plans, stored once per container
//!             (opaque here; `ds-core` writes the gzlike of
//!             varint n_cols | n_cols x (len-prefixed name | plan))
//!
//! footer   := manifest_len u32 LE | version u8 | magic b"DSRG"
//! ```
//!
//! Sections are a *backward-compatible* manifest extension (still
//! container v2): an archive that records none is byte-identical to the
//! pre-section format, readers skip section tags they do not know, and a
//! manifest with no sections decodes via the implicit legacy codec
//! chain. Codec ids inside a chain section are validated against
//! [`ds_codec::registry`] at parse time — an id from the future surfaces
//! as the typed [`CodecError::UnknownCodec`], never a panic.
//!
//! The column-plan section (tag 2) holds what every shard would otherwise
//! repeat: the names and fitted plans of the columns, which the streaming
//! pipeline fits once for the whole table. Shards of a container that
//! carries it omit their plans and say so with their own blob version
//! byte, so a build that predates the section fails closed on the shard
//! ("unsupported version") instead of misreading it. A container without
//! the section keeps self-contained shards, as before.
//!
//! Shard byte offsets are not stored — they are the prefix sums of the
//! `len` column, which the reader reconstructs and cross-checks against
//! the actual container size. Detection is **footer-based**: a v2
//! container *starts* with its first shard blob (itself a v1 `DSQZ`
//! archive), so only the trailing magic distinguishes the formats.
//!
//! ## Streaming writes
//!
//! [`write_sharded`] encodes shards on the `ds-exec` pool and flushes each
//! blob to the sink in index order *the moment it and all its
//! predecessors are ready*, while later shards are still encoding — the
//! ordered-flush behaviour comes from `ds_exec::parallel_map_consume`, so
//! the produced bytes are identical for any thread count.

use std::io::Write;
use std::ops::Range;

use ds_codec::{crc32, parq, registry, ByteReader, ByteWriter, CodecError};

/// Trailing magic identifying a v2 sharded container.
pub const FOOTER_MAGIC: &[u8; 4] = b"DSRG";

/// Container format version this crate reads and writes.
pub const FORMAT_VERSION: u8 = 1;

/// Fixed footer size: `manifest_len: u32` + `version: u8` + magic.
pub const FOOTER_LEN: usize = 9;

/// Manifest section tag carrying per-shard per-column codec chains.
pub const SECTION_CODEC_CHAINS: u8 = 1;

/// Manifest section tag carrying the column names and plans shared by
/// every shard (an opaque body to this crate).
pub const SECTION_COLUMN_PLANS: u8 = 2;

/// Hard ceiling on one recorded codec chain's length. Real chains are
/// 1–4 stages; beyond this the manifest is corrupt, not ambitious.
pub const MAX_CHAIN_LEN: usize = 16;

/// Hard ceiling on distinct chains in one manifest's dictionary.
const MAX_CHAIN_DICT: usize = 1 << 16;

/// Hard ceiling on columns named by a chain section.
const MAX_CHAIN_COLS: usize = 1 << 20;

/// Errors surfaced by the container layer itself (framing, manifest,
/// integrity). Decode errors from shard *contents* are the caller's type;
/// see [`OpError`].
#[derive(Debug)]
pub enum ShardError {
    /// The sink failed during a streaming write.
    Io(std::io::Error),
    /// The manifest's parq section or varint framing was malformed.
    Codec(CodecError),
    /// A structural invariant of the container was violated (with detail).
    Corrupt(&'static str),
    /// A caller-supplied parameter was out of the supported range.
    Invalid(&'static str),
    /// A shard's bytes did not match the manifest checksum.
    CrcMismatch {
        /// Index of the failing shard.
        shard: usize,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard container i/o error: {e}"),
            ShardError::Codec(e) => write!(f, "shard manifest codec error: {e}"),
            ShardError::Corrupt(what) => write!(f, "corrupt shard container: {what}"),
            ShardError::Invalid(what) => write!(f, "invalid shard parameter: {what}"),
            ShardError::CrcMismatch { shard } => {
                write!(f, "shard {shard} failed CRC-32 validation")
            }
        }
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

impl From<CodecError> for ShardError {
    fn from(e: CodecError) -> Self {
        ShardError::Codec(e)
    }
}

/// Error from a parallel per-shard operation: either the container layer
/// failed ([`ShardError`]) or the caller's encode/decode callback failed
/// for a specific shard with the caller's own error type.
#[derive(Debug)]
pub enum OpError<E> {
    /// Container framing / integrity failure.
    Container(ShardError),
    /// The caller's callback failed on one shard. Reported for the
    /// lowest-indexed failing shard, deterministically.
    Shard {
        /// Index of the failing shard.
        shard: usize,
        /// The callback's error.
        error: E,
    },
}

impl<E> From<ShardError> for OpError<E> {
    fn from(e: ShardError) -> Self {
        OpError::Container(e)
    }
}

impl<E: std::fmt::Display> std::fmt::Display for OpError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::Container(e) => e.fmt(f),
            OpError::Shard { shard, error } => write!(f, "shard {shard}: {error}"),
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for OpError<E> {}

/// One manifest entry, with the byte offset reconstructed from prefix
/// sums at open time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// Global row range this shard covers.
    pub rows: Range<usize>,
    /// Byte offset of the blob from the start of the container.
    pub offset: usize,
    /// Blob length in bytes.
    pub len: usize,
    /// CRC-32 (IEEE) of the blob bytes.
    pub crc: u32,
}

/// True when `bytes` carries the v2 sharded-container footer. Cheap
/// (magic + version + length plausibility); a positive answer still
/// requires [`ShardReader::open`] to validate the manifest.
pub fn is_sharded(bytes: &[u8]) -> bool {
    if bytes.len() < FOOTER_LEN {
        return false;
    }
    // ds-lint: allow(panic-free-decode) -- bytes.len() >= FOOTER_LEN checked above; footer is exactly FOOTER_LEN bytes
    let footer = &bytes[bytes.len() - FOOTER_LEN..];
    match footer_manifest_len(footer) {
        Ok(manifest_len) => manifest_len
            .checked_add(FOOTER_LEN)
            .is_some_and(|end| end <= bytes.len()),
        Err(_) => false,
    }
}

/// Validates the fixed 9-byte footer (magic + version) and returns the
/// manifest length it declares. This is the first step of opening a
/// container through *positioned* reads: read the trailing
/// [`FOOTER_LEN`] bytes, learn how large the manifest region is, then
/// read and [`parse_manifest`] exactly that region — no need to hold the
/// shard blobs in memory at all.
pub fn footer_manifest_len(footer: &[u8]) -> Result<usize, ShardError> {
    if footer.len() != FOOTER_LEN {
        return Err(ShardError::Corrupt("footer must be exactly 9 bytes"));
    }
    // ds-lint: allow(panic-free-decode) -- footer length is checked to be exactly FOOTER_LEN (9) above, so 5..9 and [4] are in bounds
    if &footer[5..9] != FOOTER_MAGIC {
        return Err(ShardError::Corrupt("bad footer magic"));
    }
    // ds-lint: allow(panic-free-decode) -- footer length checked above; index 4 is in bounds
    if footer[4] != FORMAT_VERSION {
        return Err(ShardError::Corrupt("unsupported container version"));
    }
    // ds-lint: allow(panic-free-decode) -- footer length checked above; indexes 0..4 are in bounds
    Ok(u32::from_le_bytes([footer[0], footer[1], footer[2], footer[3]]) as usize)
}

/// Per-shard, per-column codec chains recorded in a manifest's chain
/// section (tag [`SECTION_CODEC_CHAINS`]).
///
/// Chains repeat heavily across shards, so the wire format stores a
/// dictionary of distinct chains plus one dictionary index per
/// `(shard, column)` cell. Absence of the section means the archive
/// predates chain recording and decodes via the implicit legacy chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardChains {
    n_cols: usize,
    dict: Vec<Vec<u16>>,
    /// `n_shards * n_cols` dictionary indexes, shard-major.
    index: Vec<u32>,
}

impl ShardChains {
    /// Number of columns each shard records a chain for.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// The distinct chains referenced by the index, in first-use order.
    pub fn dict(&self) -> &[Vec<u16>] {
        &self.dict
    }

    /// The codec-id chain of `col` in `shard`, outermost stage first.
    /// `None` when either index is out of range.
    pub fn chain(&self, shard: usize, col: usize) -> Option<&[u16]> {
        if col >= self.n_cols {
            return None;
        }
        let cell = shard.checked_mul(self.n_cols)?.checked_add(col)?;
        let ix = *self.index.get(cell)?;
        self.dict.get(ix as usize).map(|c| c.as_slice())
    }
}

/// Parses one chain-section body. Every count, chain length, codec id
/// and dictionary index is untrusted: bounds-checked, overflow-checked,
/// and the ids validated against the registry — an unknown id surfaces
/// as [`CodecError::UnknownCodec`] through [`ShardError::Codec`].
fn parse_chain_section(body: &[u8], n_shards: usize) -> Result<ShardChains, ShardError> {
    let mut r = ByteReader::new(body);
    let n_cols = r.read_varint_usize()?;
    if n_cols == 0 || n_cols > MAX_CHAIN_COLS {
        return Err(ShardError::Corrupt(
            "chain section column count implausible",
        ));
    }
    let n_dict = r.read_varint_usize()?;
    if n_dict > MAX_CHAIN_DICT {
        return Err(ShardError::Corrupt("chain dictionary implausibly large"));
    }
    let mut dict = Vec::with_capacity(n_dict.min(1024));
    for _ in 0..n_dict {
        let len = r.read_varint_usize()?;
        if len > MAX_CHAIN_LEN {
            return Err(ShardError::Corrupt("codec chain too long"));
        }
        let mut chain = Vec::with_capacity(len);
        for _ in 0..len {
            let id = u16::try_from(r.read_varint()?)
                .map_err(|_| ShardError::Corrupt("codec id exceeds u16"))?;
            chain.push(id);
        }
        registry::validate_chain(&chain)?;
        dict.push(chain);
    }
    let n_cells = n_shards
        .checked_mul(n_cols)
        .ok_or(ShardError::Corrupt("chain index size overflows"))?;
    let mut index = Vec::with_capacity(n_cells.min(1 << 20));
    for _ in 0..n_cells {
        let ix = r.read_varint_u32()?;
        if ix as usize >= dict.len() {
            return Err(ShardError::Corrupt("chain index out of dictionary range"));
        }
        index.push(ix);
    }
    if !r.is_empty() {
        return Err(ShardError::Corrupt("trailing bytes in chain section"));
    }
    Ok(ShardChains {
        n_cols,
        dict,
        index,
    })
}

/// A parsed manifest: the structural metadata of a v2 container,
/// decoupled from the shard blobs so it can be built from a positioned
/// read of just the manifest region (see [`footer_manifest_len`]).
#[derive(Debug)]
pub struct ParsedManifest<'a> {
    /// Total logical rows across all shards.
    pub total_rows: usize,
    /// The opaque shared blob (decoder weights; empty if none was set).
    pub shared: &'a [u8],
    /// Per-shard entries with offsets reconstructed from prefix sums.
    pub entries: Vec<ShardEntry>,
    /// Recorded per-shard per-column codec chains; `None` for archives
    /// written before chain recording (implicit legacy chain).
    pub chains: Option<ShardChains>,
    /// The column-plan section body (tag [`SECTION_COLUMN_PLANS`]);
    /// `None` for containers whose shards carry their own plans.
    pub column_plans: Option<&'a [u8]>,
}

/// Parses and validates the manifest region of a container whose shard
/// region (everything before the manifest) is `shard_region` bytes.
/// Validates every structural invariant: lengths non-negative and summing
/// to the shard region, row counts summing to the declared total. Typed
/// errors on any corruption — never panics.
pub fn parse_manifest(
    manifest: &[u8],
    shard_region: u64,
) -> Result<ParsedManifest<'_>, ShardError> {
    let shard_region = usize::try_from(shard_region)
        .map_err(|_| ShardError::Corrupt("shard region exceeds address space"))?;
    let mut r = ByteReader::new(manifest);
    let total_rows = usize::try_from(r.read_varint()?)
        .map_err(|_| ShardError::Corrupt("total row count overflows usize"))?;
    if total_rows > ds_codec::MAX_DECODE_ELEMS {
        return Err(ShardError::Corrupt("total row count exceeds decode limit"));
    }
    let shared = r.read_len_prefixed()?;
    let parq_bytes = r.read_len_prefixed()?;
    let mut columns = parq::read_table(parq_bytes)?.into_iter();
    let (rows, lens, crcs) = match (
        columns.next(),
        columns.next(),
        columns.next(),
        columns.next(),
    ) {
        (
            Some((rn, parq::ParqColumn::U32(rows))),
            Some((ln, parq::ParqColumn::I64(lens))),
            Some((cn, parq::ParqColumn::U32(crcs))),
            None,
        ) if rn == "rows" && ln == "len" && cn == "crc" => (rows, lens, crcs),
        _ => return Err(ShardError::Corrupt("manifest table has wrong schema")),
    };
    if rows.len() != lens.len() || rows.len() != crcs.len() {
        return Err(ShardError::Corrupt("manifest column lengths disagree"));
    }
    let mut entries = Vec::with_capacity(rows.len());
    let mut offset = 0usize;
    let mut row_start = 0usize;
    for ((&nr, &len_raw), &crc) in rows.iter().zip(lens.iter()).zip(crcs.iter()) {
        let len =
            usize::try_from(len_raw).map_err(|_| ShardError::Corrupt("negative shard length"))?;
        let row_count = usize::try_from(nr)
            .map_err(|_| ShardError::Corrupt("shard row count overflows usize"))?;
        let row_end = row_start
            .checked_add(row_count)
            .ok_or(ShardError::Corrupt("shard row ranges overflow"))?;
        let end = offset
            .checked_add(len)
            .ok_or(ShardError::Corrupt("shard offsets overflow"))?;
        if end > shard_region {
            return Err(ShardError::Corrupt("shard lengths exceed shard region"));
        }
        entries.push(ShardEntry {
            rows: row_start..row_end,
            offset,
            len,
            crc,
        });
        offset = end;
        row_start = row_end;
    }
    if offset != shard_region {
        return Err(ShardError::Corrupt("shard lengths do not cover container"));
    }
    if row_start != total_rows {
        return Err(ShardError::Corrupt("shard rows do not sum to total"));
    }
    // Optional appended sections: tag byte + len-prefixed body. Unknown
    // tags are skipped so future manifest extensions stay readable by
    // this build (the reverse of the codec-id rule: sections are
    // advisory metadata, codec ids gate decodability).
    let mut chains = None;
    let mut column_plans = None;
    while !r.is_empty() {
        let tag = r.read_u8()?;
        let body = r.read_len_prefixed()?;
        match tag {
            SECTION_CODEC_CHAINS => {
                if chains.is_some() {
                    return Err(ShardError::Corrupt("duplicate chain section"));
                }
                chains = Some(parse_chain_section(body, entries.len())?);
            }
            SECTION_COLUMN_PLANS => {
                if column_plans.is_some() {
                    return Err(ShardError::Corrupt("duplicate column-plan section"));
                }
                column_plans = Some(body);
            }
            _ => {}
        }
    }
    Ok(ParsedManifest {
        total_rows,
        shared,
        entries,
        chains,
        column_plans,
    })
}

/// The contiguous range of shard indexes whose row ranges intersect
/// `rows` (clamped to `total_rows`; empty request → empty range). The
/// free-function form serves callers that hold a [`ParsedManifest`]'s
/// entries without a [`ShardReader`] (positioned-read archive handles).
pub fn shards_intersecting(
    entries: &[ShardEntry],
    total_rows: usize,
    rows: Range<usize>,
) -> Range<usize> {
    let start = rows.start.min(total_rows);
    let end = rows.end.min(total_rows);
    if start >= end {
        return 0..0;
    }
    let first = entries.partition_point(|e| e.rows.end <= start);
    let last = entries.partition_point(|e| e.rows.start < end);
    first..last
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Appends shard blobs to a sink and emits the manifest + footer on
/// [`finish`](ShardWriter::finish). Blobs must be pushed in index order;
/// for overlap of encoding with I/O, drive it through [`write_sharded`].
pub struct ShardWriter<W: Write> {
    sink: W,
    written: u64,
    shared: Vec<u8>,
    rows: Vec<u32>,
    lens: Vec<i64>,
    crcs: Vec<u32>,
    total_rows: u64,
    chains: Vec<Vec<Vec<u16>>>,
    column_plans: Option<Vec<u8>>,
}

impl<W: Write> ShardWriter<W> {
    /// Starts a container over `sink`.
    pub fn new(sink: W) -> Self {
        ShardWriter {
            sink,
            written: 0,
            shared: Vec::new(),
            rows: Vec::new(),
            lens: Vec::new(),
            crcs: Vec::new(),
            total_rows: 0,
            chains: Vec::new(),
            column_plans: None,
        }
    }

    /// Sets the opaque shared blob stored once in the manifest (e.g.
    /// decoder weights hoisted out of the per-shard archives).
    pub fn set_shared(&mut self, blob: Vec<u8>) {
        self.shared = blob;
    }

    /// Sets the column-plan section body (tag [`SECTION_COLUMN_PLANS`]),
    /// stored once in the manifest for every shard to share.
    pub fn set_column_plans(&mut self, body: Vec<u8>) {
        self.column_plans = Some(body);
    }

    /// Number of shards pushed so far.
    pub fn n_shards(&self) -> usize {
        self.rows.len()
    }

    /// Appends one shard blob covering `row_count` rows.
    pub fn push_shard(&mut self, row_count: usize, blob: &[u8]) -> Result<(), ShardError> {
        let index = self.rows.len() as u64;
        let mut sp = ds_obs::span_at("shard_flush", index);
        sp.add("bytes", blob.len() as u64);
        let row_count =
            u32::try_from(row_count).map_err(|_| ShardError::Invalid("shard row count > u32"))?;
        let len =
            i64::try_from(blob.len()).map_err(|_| ShardError::Invalid("shard blob > i64 bytes"))?;
        // CRC before the write so the blob is still hot in cache and the
        // two costs can be attributed separately.
        let t0 = ds_obs::now_us();
        let crc = crc32::crc32(blob);
        let t1 = ds_obs::now_us();
        ds_obs::hist_rt("shard.crc_us", t1.saturating_sub(t0));
        self.sink.write_all(blob)?;
        ds_obs::hist_rt("shard.flush_us", ds_obs::now_us().saturating_sub(t1));
        ds_obs::counter_at("shard.bytes", index, blob.len() as u64);
        self.written += blob.len() as u64;
        self.rows.push(row_count);
        self.lens.push(len);
        self.crcs.push(crc);
        self.total_rows += u64::from(row_count);
        Ok(())
    }

    /// [`push_shard`](Self::push_shard) that also records the shard's
    /// per-column codec chains for the manifest's chain section.
    ///
    /// Chain recording is all-or-none: either every shard in the
    /// container records chains (with the same column count) or none
    /// does — [`finish`](Self::finish) rejects a mix. Ids are *not*
    /// validated here; the writer must be able to produce test vectors
    /// with ids from the future, and readers validate on parse.
    pub fn push_shard_with_chains(
        &mut self,
        row_count: usize,
        blob: &[u8],
        chains: Vec<Vec<u16>>,
    ) -> Result<(), ShardError> {
        if chains.is_empty() {
            return Err(ShardError::Invalid("chain list must name every column"));
        }
        if chains.iter().any(|c| c.len() > MAX_CHAIN_LEN) {
            return Err(ShardError::Invalid("codec chain too long"));
        }
        self.push_shard(row_count, blob)?;
        self.chains.push(chains);
        Ok(())
    }

    /// Serializes the chain section body (dictionary + indexes).
    fn build_chain_section(chains: &[Vec<Vec<u16>>]) -> Result<Vec<u8>, ShardError> {
        let n_cols = chains.first().map(|c| c.len()).unwrap_or(0);
        if chains.iter().any(|c| c.len() != n_cols) {
            return Err(ShardError::Invalid("chain column counts disagree"));
        }
        let mut dict: Vec<&[u16]> = Vec::new();
        let mut index: Vec<usize> = Vec::with_capacity(chains.len() * n_cols);
        for shard in chains {
            for chain in shard {
                let ix = match dict.iter().position(|d| *d == chain.as_slice()) {
                    Some(ix) => ix,
                    None => {
                        dict.push(chain);
                        dict.len() - 1
                    }
                };
                index.push(ix);
            }
        }
        if dict.len() > MAX_CHAIN_DICT {
            return Err(ShardError::Invalid("too many distinct codec chains"));
        }
        let mut w = ByteWriter::new();
        w.write_varint(n_cols as u64);
        w.write_varint(dict.len() as u64);
        for chain in &dict {
            w.write_varint(chain.len() as u64);
            for &id in *chain {
                w.write_varint(u64::from(id));
            }
        }
        for ix in index {
            w.write_varint(ix as u64); // ds-lint: allow(no-raw-cast-len) -- widening usize -> u64, lossless on every supported target
        }
        Ok(w.into_vec())
    }

    /// Writes the manifest and footer, returning the sink and the total
    /// container size in bytes.
    pub fn finish(mut self) -> Result<(W, u64), ShardError> {
        if !self.chains.is_empty() && self.chains.len() != self.rows.len() {
            return Err(ShardError::Invalid(
                "codec chains recorded for only some shards",
            ));
        }
        let (parq_bytes, _stats) = parq::write_table(&[
            ("rows".to_string(), parq::ParqColumn::U32(self.rows)),
            ("len".to_string(), parq::ParqColumn::I64(self.lens)),
            ("crc".to_string(), parq::ParqColumn::U32(self.crcs)),
        ])?;
        let mut w = ByteWriter::new();
        w.write_varint(self.total_rows);
        w.write_len_prefixed(&self.shared);
        w.write_len_prefixed(&parq_bytes);
        if !self.chains.is_empty() {
            let body = Self::build_chain_section(&self.chains)?;
            w.write_u8(SECTION_CODEC_CHAINS);
            w.write_len_prefixed(&body);
        }
        if let Some(body) = &self.column_plans {
            w.write_u8(SECTION_COLUMN_PLANS);
            w.write_len_prefixed(body);
        }
        let manifest = w.into_vec();
        let manifest_len = u32::try_from(manifest.len())
            .map_err(|_| ShardError::Invalid("manifest > u32 bytes"))?;
        self.sink.write_all(&manifest)?;
        self.sink.write_all(&manifest_len.to_le_bytes())?;
        self.sink.write_all(&[FORMAT_VERSION])?;
        self.sink.write_all(FOOTER_MAGIC)?;
        self.sink.flush()?;
        let total = self.written + manifest.len() as u64 + FOOTER_LEN as u64;
        Ok((self.sink, total))
    }
}

/// Encodes `row_counts.len()` shards on the `ds-exec` pool and streams
/// them into a [`ShardWriter`] over `sink`, overlapping encode compute
/// with sink I/O: shard `i` is flushed the moment shards `0..=i` have
/// finished encoding, while later shards are still running. The produced
/// bytes are identical for any `DS_THREADS` setting.
///
/// On failure the first error in shard-index order is returned (later
/// shards still finish encoding, but nothing further is written).
pub fn write_sharded<W, B, E, F>(
    sink: W,
    shared: Vec<u8>,
    row_counts: &[usize],
    encode: F,
) -> Result<(W, u64), OpError<E>>
where
    W: Write,
    B: AsRef<[u8]> + Send,
    E: Send,
    F: Fn(usize) -> Result<B, E> + Sync,
{
    let mut writer = ShardWriter::new(sink);
    writer.set_shared(shared);
    let mut first_err: Option<OpError<E>> = None;
    ds_exec::parallel_map_consume(row_counts.len(), encode, |i, blob| {
        if first_err.is_some() {
            return;
        }
        match blob {
            Ok(b) => {
                if let Err(e) = writer.push_shard(row_counts[i], b.as_ref()) {
                    first_err = Some(OpError::Container(e));
                }
            }
            Err(error) => first_err = Some(OpError::Shard { shard: i, error }),
        }
    });
    if let Some(e) = first_err {
        return Err(e);
    }
    writer.finish().map_err(OpError::Container)
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// The result of a partial read: decoded values for every intersecting
/// shard plus the trim the caller must apply after concatenation.
#[derive(Debug)]
pub struct RangeRead<T> {
    /// One decoded value per intersecting shard, in shard order.
    pub parts: Vec<T>,
    /// Rows to drop from the front of the concatenated parts.
    pub skip: usize,
    /// Rows to keep after `skip`.
    pub take: usize,
    /// How many shards were actually decoded (== `parts.len()`).
    pub shards_decoded: usize,
}

/// Zero-copy reader over a v2 container held in memory (or a mapping).
/// Opening parses and validates the manifest only; shard blobs are
/// touched — and CRC-checked — lazily, per read.
pub struct ShardReader<'a> {
    bytes: &'a [u8],
    manifest: ParsedManifest<'a>,
}

impl<'a> ShardReader<'a> {
    /// Parses the footer and manifest, validating all structural
    /// invariants (lengths non-negative and summing to the shard region,
    /// row counts summing to the declared total). Returns a typed error
    /// on any truncated or corrupted input — never panics.
    pub fn open(bytes: &'a [u8]) -> Result<ShardReader<'a>, ShardError> {
        if bytes.len() < FOOTER_LEN {
            return Err(ShardError::Corrupt("container shorter than footer"));
        }
        // ds-lint: allow(panic-free-decode) -- bytes.len() >= FOOTER_LEN checked above; footer is exactly FOOTER_LEN bytes
        let footer = &bytes[bytes.len() - FOOTER_LEN..];
        let manifest_len = footer_manifest_len(footer)?;
        let body_len = bytes.len() - FOOTER_LEN;
        if manifest_len > body_len {
            return Err(ShardError::Corrupt("manifest length exceeds container"));
        }
        let shard_region = body_len - manifest_len;
        let region_u64 = u64::try_from(shard_region)
            .map_err(|_| ShardError::Corrupt("shard region exceeds u64"))?;
        // ds-lint: allow(panic-free-decode) -- shard_region <= body_len <= bytes.len(): body_len = len - FOOTER_LEN and manifest_len <= body_len checked above
        let manifest = parse_manifest(&bytes[shard_region..body_len], region_u64)?;
        Ok(ShardReader { bytes, manifest })
    }

    /// The parsed manifest (entries, shared blob and sections).
    pub fn manifest(&self) -> &ParsedManifest<'a> {
        &self.manifest
    }

    /// Total logical rows across all shards.
    pub fn total_rows(&self) -> usize {
        self.manifest.total_rows
    }

    /// Number of shards in the container.
    pub fn n_shards(&self) -> usize {
        self.manifest.entries.len()
    }

    /// The opaque shared blob (empty if none was set).
    pub fn shared(&self) -> &'a [u8] {
        self.manifest.shared
    }

    /// Recorded per-shard per-column codec chains; `None` for archives
    /// written before chain recording (implicit legacy chain).
    pub fn chains(&self) -> Option<&ShardChains> {
        self.manifest.chains.as_ref()
    }

    /// The column-plan section body; `None` when shards carry their own.
    pub fn column_plans(&self) -> Option<&'a [u8]> {
        self.manifest.column_plans
    }

    /// The parsed manifest entries, in shard order.
    pub fn entries(&self) -> &[ShardEntry] {
        &self.manifest.entries
    }

    /// The contiguous range of shard indexes whose row ranges intersect
    /// `rows` (clamped to the table; empty request → empty range).
    pub fn shards_intersecting(&self, rows: Range<usize>) -> Range<usize> {
        shards_intersecting(self.entries(), self.total_rows(), rows)
    }

    /// Returns shard `i`'s blob bytes after CRC validation.
    pub fn shard_bytes(&self, i: usize) -> Result<&'a [u8], ShardError> {
        let entry = self
            .entries()
            .get(i)
            .ok_or(ShardError::Corrupt("shard index out of range"))?;
        let end = entry
            .offset
            .checked_add(entry.len)
            .ok_or(ShardError::Corrupt("shard extent overflows"))?;
        let blob = self
            .bytes
            .get(entry.offset..end)
            .ok_or(ShardError::Corrupt("shard extent out of bounds"))?;
        if crc32::crc32(blob) != entry.crc {
            return Err(ShardError::CrcMismatch { shard: i });
        }
        Ok(blob)
    }

    /// Decodes every shard in parallel (CRC validation included) and
    /// returns the results in shard order. On failure the error for the
    /// lowest-indexed failing shard is returned, deterministically.
    pub fn read_all<T, E, F>(&self, decode: F) -> Result<Vec<T>, OpError<E>>
    where
        T: Send,
        E: Send,
        F: Fn(usize, &'a [u8]) -> Result<T, E> + Sync,
    {
        self.decode_shards(0..self.n_shards(), &decode)
    }

    /// Decodes only the shards intersecting `rows`, in parallel, and
    /// reports the skip/take trim to apply to the concatenated result.
    pub fn read_rows<T, E, F>(
        &self,
        rows: Range<usize>,
        decode: F,
    ) -> Result<RangeRead<T>, OpError<E>>
    where
        T: Send,
        E: Send,
        F: Fn(usize, &'a [u8]) -> Result<T, E> + Sync,
    {
        let start = rows.start.min(self.total_rows());
        let end = rows.end.min(self.total_rows()).max(start);
        let shards = self.shards_intersecting(start..end);
        let skip = if shards.is_empty() {
            0
        } else {
            // ds-lint: allow(panic-free-decode) -- shards is non-empty, and partition_point returns indexes <= entries.len(), so shards.start < entries.len()
            start - self.entries()[shards.start].rows.start
        };
        let parts = self.decode_shards(shards.clone(), &decode)?;
        Ok(RangeRead {
            shards_decoded: parts.len(),
            parts,
            skip,
            take: end - start,
        })
    }

    fn decode_shards<T, E, F>(&self, shards: Range<usize>, decode: &F) -> Result<Vec<T>, OpError<E>>
    where
        T: Send,
        E: Send,
        F: Fn(usize, &'a [u8]) -> Result<T, E> + Sync,
    {
        let base = shards.start;
        let results = ds_exec::parallel_map(shards.len(), |k| {
            let i = base + k;
            let blob = self.shard_bytes(i).map_err(OpError::Container)?;
            decode(i, blob).map_err(|error| OpError::Shard { shard: i, error })
        });
        results.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(shards: &[(usize, &[u8])], shared: &[u8]) -> Vec<u8> {
        let mut w = ShardWriter::new(Vec::new());
        w.set_shared(shared.to_vec());
        for (rows, blob) in shards {
            w.push_shard(*rows, blob).unwrap();
        }
        let (sink, total) = w.finish().unwrap();
        assert_eq!(sink.len() as u64, total);
        sink
    }

    #[test]
    fn roundtrip_multi_shard() {
        let bytes = build(
            &[(10, b"alpha"), (10, b"bravo-bravo"), (3, b"c")],
            b"shared-decoder",
        );
        assert!(is_sharded(&bytes));
        let r = ShardReader::open(&bytes).unwrap();
        assert_eq!(r.total_rows(), 23);
        assert_eq!(r.n_shards(), 3);
        assert_eq!(r.shared(), b"shared-decoder");
        assert_eq!(r.shard_bytes(0).unwrap(), b"alpha");
        assert_eq!(r.shard_bytes(1).unwrap(), b"bravo-bravo");
        assert_eq!(r.shard_bytes(2).unwrap(), b"c");
        assert_eq!(r.entries()[1].rows, 10..20);
        assert_eq!(r.entries()[2].rows, 20..23);
    }

    #[test]
    fn empty_container_roundtrips() {
        let bytes = build(&[], b"");
        let r = ShardReader::open(&bytes).unwrap();
        assert_eq!(r.total_rows(), 0);
        assert_eq!(r.n_shards(), 0);
        assert_eq!(r.shards_intersecting(0..100), 0..0);
    }

    #[test]
    fn zero_row_shard_is_allowed() {
        let bytes = build(&[(0, b"empty-table-archive")], b"");
        let r = ShardReader::open(&bytes).unwrap();
        assert_eq!(r.total_rows(), 0);
        assert_eq!(r.n_shards(), 1);
    }

    #[test]
    fn is_sharded_rejects_foreign_bytes() {
        assert!(!is_sharded(b""));
        assert!(!is_sharded(b"DSRG"));
        assert!(!is_sharded(b"DSQZ-some-v1-archive-body"));
        // Right magic, wrong version.
        let mut bytes = build(&[(1, b"x")], b"");
        let n = bytes.len();
        bytes[n - 5] = FORMAT_VERSION + 1;
        assert!(!is_sharded(&bytes));
        assert!(matches!(
            ShardReader::open(&bytes),
            Err(ShardError::Corrupt(_))
        ));
    }

    #[test]
    fn shards_intersecting_cases() {
        let bytes = build(&[(10, b"a"), (10, b"b"), (10, b"c")], b"");
        let r = ShardReader::open(&bytes).unwrap();
        assert_eq!(r.shards_intersecting(0..30), 0..3);
        assert_eq!(r.shards_intersecting(0..10), 0..1);
        assert_eq!(r.shards_intersecting(9..11), 0..2);
        assert_eq!(r.shards_intersecting(10..20), 1..2);
        assert_eq!(r.shards_intersecting(25..26), 2..3);
        assert_eq!(r.shards_intersecting(25..1000), 2..3);
        assert_eq!(r.shards_intersecting(30..40), 0..0);
        assert_eq!(r.shards_intersecting(5..5), 0..0);
        #[allow(clippy::reversed_empty_ranges)]
        let rev = r.shards_intersecting(20..10);
        assert_eq!(rev, 0..0);
    }

    #[test]
    fn crc_flip_is_detected() {
        let mut bytes = build(&[(5, b"hello"), (5, b"world")], b"");
        // Flip one bit inside the second blob ("world" starts at offset 5).
        bytes[7] ^= 0x04;
        let r = ShardReader::open(&bytes).unwrap();
        assert!(r.shard_bytes(0).is_ok());
        assert!(matches!(
            r.shard_bytes(1),
            Err(ShardError::CrcMismatch { shard: 1 })
        ));
        // Parallel read surfaces it as a container error too.
        let err = r
            .read_all(|_, b| Ok::<_, std::convert::Infallible>(b.len()))
            .unwrap_err();
        assert!(matches!(
            err,
            OpError::Container(ShardError::CrcMismatch { shard: 1 })
        ));
    }

    #[test]
    fn every_truncation_errors_without_panic() {
        let bytes = build(&[(4, b"abcd"), (4, b"efgh")], b"sh");
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            match ShardReader::open(prefix) {
                Err(_) => {}
                Ok(r) => {
                    // A prefix that still parses (possible only if the cut
                    // landed on another self-consistent framing) must not
                    // panic on access either.
                    for i in 0..r.n_shards() {
                        let _ = r.shard_bytes(i);
                    }
                }
            }
        }
    }

    #[test]
    fn read_rows_trims_and_counts_decoded_shards() {
        let bytes = build(&[(10, b"s0"), (10, b"s1"), (10, b"s2"), (10, b"s3")], b"");
        let r = ShardReader::open(&bytes).unwrap();
        let got = r
            .read_rows(15..32, |i, _| Ok::<_, std::convert::Infallible>(i))
            .unwrap();
        assert_eq!(got.parts, vec![1, 2, 3]);
        assert_eq!(got.shards_decoded, 3);
        assert_eq!(got.skip, 5);
        assert_eq!(got.take, 17);
        // Out-of-range request decodes nothing.
        let got = r
            .read_rows(40..50, |i, _| Ok::<_, std::convert::Infallible>(i))
            .unwrap();
        assert_eq!(got.shards_decoded, 0);
        assert_eq!(got.take, 0);
    }

    #[test]
    fn decode_error_reports_lowest_failing_shard() {
        let bytes = build(&[(1, b"a"), (1, b"b"), (1, b"c")], b"");
        let r = ShardReader::open(&bytes).unwrap();
        let err = r
            .read_all(|i, _| if i >= 1 { Err(i) } else { Ok(i) })
            .unwrap_err();
        assert!(matches!(err, OpError::Shard { shard: 1, error: 1 }));
    }

    #[test]
    fn write_sharded_matches_serial_bytes_for_any_thread_count() {
        let blobs: Vec<Vec<u8>> = (0..12u8)
            .map(|i| {
                (0..=i)
                    .map(|k| k.wrapping_mul(37).wrapping_add(i))
                    .collect()
            })
            .collect();
        let row_counts: Vec<usize> = (0..12).map(|i| i + 1).collect();
        let reference = {
            let mut w = ShardWriter::new(Vec::new());
            w.set_shared(b"sh".to_vec());
            for (rc, b) in row_counts.iter().zip(&blobs) {
                w.push_shard(*rc, b).unwrap();
            }
            w.finish().unwrap().0
        };
        for limit in [1, 2, 8] {
            let out = ds_exec::with_thread_limit(limit, || {
                write_sharded(Vec::new(), b"sh".to_vec(), &row_counts, |i| {
                    Ok::<_, std::convert::Infallible>(blobs[i].clone())
                })
                .unwrap()
                .0
            });
            assert_eq!(out, reference, "bytes diverged at limit {limit}");
        }
    }

    #[test]
    fn chain_section_roundtrips_and_dedups() {
        let c_rle = vec![registry::RLE.raw(), registry::GZLIKE.raw()];
        let c_dict = vec![registry::DICT.raw(), registry::BITPACK.raw()];
        let mut w = ShardWriter::new(Vec::new());
        w.push_shard_with_chains(3, b"s0", vec![c_rle.clone(), c_dict.clone()])
            .unwrap();
        w.push_shard_with_chains(3, b"s1", vec![c_rle.clone(), c_rle.clone()])
            .unwrap();
        let (bytes, _) = w.finish().unwrap();
        let r = ShardReader::open(&bytes).unwrap();
        let chains = r.chains().expect("chains recorded");
        assert_eq!(chains.n_cols(), 2);
        // Three cells share c_rle: the dictionary holds 2 entries only.
        assert_eq!(chains.dict().len(), 2);
        assert_eq!(chains.chain(0, 0), Some(c_rle.as_slice()));
        assert_eq!(chains.chain(0, 1), Some(c_dict.as_slice()));
        assert_eq!(chains.chain(1, 1), Some(c_rle.as_slice()));
        assert_eq!(chains.chain(2, 0), None);
        assert_eq!(chains.chain(0, 2), None);
    }

    #[test]
    fn archives_without_chains_parse_as_legacy() {
        let bytes = build(&[(5, b"blob")], b"");
        let r = ShardReader::open(&bytes).unwrap();
        assert!(r.chains().is_none());
    }

    #[test]
    fn column_plan_section_roundtrips_and_rejects_duplicates() {
        let bytes = build(&[(5, b"blob")], b"dec");
        assert_eq!(ShardReader::open(&bytes).unwrap().column_plans(), None);

        let mut w = ShardWriter::new(Vec::new());
        w.set_shared(b"dec".to_vec());
        w.set_column_plans(b"names and plans".to_vec());
        w.push_shard(5, b"blob").unwrap();
        let (bytes, _) = w.finish().unwrap();
        let r = ShardReader::open(&bytes).unwrap();
        assert_eq!(r.column_plans(), Some(&b"names and plans"[..]));
        assert_eq!(r.shared(), b"dec");
        assert_eq!(r.shard_bytes(0).unwrap(), b"blob");

        // A second copy of the section is corruption, not an override.
        let mut bytes = bytes;
        let footer = bytes.split_off(bytes.len() - FOOTER_LEN);
        let old_len = u32::from_le_bytes([footer[0], footer[1], footer[2], footer[3]]);
        let mut section = ByteWriter::new();
        section.write_u8(SECTION_COLUMN_PLANS);
        section.write_len_prefixed(b"other plans");
        let extra = section.into_vec();
        bytes.extend_from_slice(&extra);
        bytes.extend_from_slice(&(old_len + extra.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&footer[4..]);
        assert!(matches!(
            ShardReader::open(&bytes),
            Err(ShardError::Corrupt(_))
        ));
    }

    #[test]
    fn chain_recording_is_all_or_none() {
        let mut w = ShardWriter::new(Vec::new());
        w.push_shard_with_chains(1, b"a", vec![vec![registry::RLE.raw()]])
            .unwrap();
        w.push_shard(1, b"b").unwrap();
        assert!(matches!(w.finish(), Err(ShardError::Invalid(_))));
    }

    #[test]
    fn forged_codec_id_is_typed_unknown_on_open() {
        // The writer deliberately does not validate ids, so an archive
        // naming a codec from the future can be built — and the reader
        // must reject it with the typed error, not a panic.
        let mut w = ShardWriter::new(Vec::new());
        w.push_shard_with_chains(2, b"blob", vec![vec![0xBEEF]])
            .unwrap();
        let (bytes, _) = w.finish().unwrap();
        assert!(matches!(
            ShardReader::open(&bytes),
            Err(ShardError::Codec(CodecError::UnknownCodec(0xBEEF)))
        ));
    }

    #[test]
    fn unknown_manifest_sections_are_skipped() {
        // Append a section with an unassigned tag to a plain manifest;
        // the reader must ignore it and still decode the container.
        let mut w = ShardWriter::new(Vec::new());
        w.push_shard(2, b"blob").unwrap();
        let (mut bytes, _) = w.finish().unwrap();
        let footer = bytes.split_off(bytes.len() - FOOTER_LEN);
        let old_len = u32::from_le_bytes([footer[0], footer[1], footer[2], footer[3]]);
        let mut section = ByteWriter::new();
        section.write_u8(200);
        section.write_len_prefixed(b"future metadata");
        let extra = section.into_vec();
        bytes.extend_from_slice(&extra);
        bytes.extend_from_slice(&(old_len + extra.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&footer[4..]);
        let r = ShardReader::open(&bytes).unwrap();
        assert_eq!(r.shard_bytes(0).unwrap(), b"blob");
        assert!(r.chains().is_none());
    }

    #[test]
    fn corrupt_chain_sections_error_not_panic() {
        let chain = vec![registry::DICT.raw(), registry::RLE.raw()];
        let mut w = ShardWriter::new(Vec::new());
        w.push_shard_with_chains(2, b"blob", vec![chain]).unwrap();
        let (bytes, _) = w.finish().unwrap();
        assert!(ShardReader::open(&bytes).is_ok());
        // Flip every byte of the manifest region one at a time.
        for i in (bytes.len().saturating_sub(64))..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let _ = ShardReader::open(&bad); // error or success, never panic
        }
    }

    #[test]
    fn write_sharded_reports_lowest_encode_error() {
        let row_counts = [1usize; 6];
        let err = write_sharded(Vec::new(), Vec::new(), &row_counts, |i| {
            if i % 2 == 1 {
                Err(i)
            } else {
                Ok(vec![0u8; 4])
            }
        })
        .unwrap_err();
        assert!(matches!(err, OpError::Shard { shard: 1, error: 1 }));
    }
}
