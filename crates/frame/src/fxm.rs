//! The chunked binary frame formats: legacy `FXM1`, stat-carrying
//! `FXM2` and compressed `FXM3`, plus the [`Frame`] reader that serves
//! all of them (and materialized in-memory series) behind one
//! chunk-oriented interface.
//!
//! ## `FXM1` layout (all little-endian)
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 4    | magic `b"FXM1"` |
//! | 4      | 8    | start (i64 minutes since flextract epoch) |
//! | 12     | 4    | resolution (u32 minutes) |
//! | 16     | 8    | total length (u64 interval count) |
//! | 24     | 4    | chunk length (u32 intervals per chunk) |
//! | 28     | …    | chunk frames `[u32 count][count × f64]` |
//!
//! ## `FXM2` layout (all little-endian)
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 4    | magic `b"FXM2"` |
//! | 4      | 8    | start (i64 minutes since flextract epoch) |
//! | 12     | 4    | resolution (u32 minutes) |
//! | 16     | 8    | total length (u64 interval count) |
//! | 24     | 4    | chunk length (u32 intervals per chunk) |
//! | 28     | …    | chunk frames (see below) |
//! | F      | 8·C  | footer: absolute byte offset of each chunk frame |
//! | F+8·C  | 8    | `F` (absolute byte offset of the footer) |
//! | F+8·C+8| 4    | end magic `b"2MXF"` |
//!
//! Each `FXM2` chunk frame is
//! `[u32 count][u32 gap_count][f64 min][f64 max][f64 sum][count × f64]`:
//! a 32-byte statistics header followed by the raw IEEE-754 payload.
//! `count` equals the chunk length except for the final chunk. The
//! statistics cover the chunk's **observed** (non-gap) values; for an
//! all-gap chunk `min`/`max` carry the canonical gap payload.
//!
//! A reader seeks to the 12-byte tail, follows the footer to the chunk
//! offsets, and reads the 32-byte statistics headers without touching
//! any payload — which is what lets a [`Scan`](crate::scan::Scan) skip
//! whole chunks. Byte accounting is exact end to end: every slack or
//! trailing byte is a decode error, never silently ignored.
//!
//! ## `FXM3` layout (all little-endian)
//!
//! Same 28-byte fixed header (magic `b"FXM3"`), footer chunk index and
//! 12-byte tail (end magic `b"3MXF"`) as `FXM2`; only the chunk frames
//! differ:
//!
//! | field | size | contents |
//! |-------|------|----------|
//! | stats | 32   | `[u32 count][u32 gap_count][f64 min][f64 max][f64 sum]` (identical to `FXM2`) |
//! | gap bitmap | ⌈count/8⌉ | bit `i` (LSB-first per byte) set ⇔ interval `i` is a gap; padding bits zero |
//! | stream | …   | XOR-compressed observed values, MSB-first bit stream, zero-padded to a byte |
//!
//! The stream carries only the observed (non-gap) values: the first as
//! raw 64 bits, then per value a Gorilla-style XOR against the previous
//! observed value — control bit `0` for an identical bit pattern, `10`
//! plus the meaningful bits re-using the previous leading-zeros/length
//! window, or `11` plus a 6-bit leading-zero count, a 6-bit
//! (meaningful length − 1) and the meaningful bits for a new window.
//! Gaps never enter the stream (the bitmap carries them), so the
//! canonical gap payload never costs stream bits. Chunk frames are
//! therefore variable-length and located purely through the footer
//! index; a decoder accounts for every bit — slack bytes, non-zero
//! padding bits and window overruns are typed errors. Because the
//! statistics header is byte-identical to `FXM2`, a stats-only scan
//! decodes exactly as many payload bytes on `FXM3` as on `FXM2`: zero.
//!
//! ## Encoding `FXM3`
//!
//! The writer makes one pass per chunk. It folds the statistics header
//! (the same [`ChunkStats`] fold `from_values` runs), sets the gap
//! bitmap and emits the stream through a 64-bit MSB-first accumulator
//! that appends each full word to the frame buffer as 8 big-endian
//! bytes. The header and bitmap bytes are reserved up front and patched
//! when the pass ends; no chunk has a buffer of its own. A differential
//! test holds the writer to the previous byte-at-a-time writer (a
//! statistics pass, a bitmap pass, then a bit writer moving at most 8
//! bits per step): on the decoder's corpus and a seeded sweep of chunk
//! lengths, gap patterns, NaN payloads and XOR windows, both write the
//! same bytes.
//!
//! ## Decoding `FXM3`
//!
//! The decoder works by bit position over the stream. It loads one
//! big-endian 16-byte window per value, which holds at least 121 bits:
//! enough for a 14-bit control + window header and a 64-bit payload.
//! Only loads within 16 bytes of the stream's end read from a
//! zero-padded copy of its tail. A run of `0` (repeat) controls is one
//! leading-zero count and one fill. Observed values decode contiguously;
//! gaps are then spread in back to front, only in chunks that have any.
//! Every corruption check names the chunk's byte offset, and a
//! differential test holds the decoder to the previous bit-reader
//! decoder on every truncation and byte flip of a corpus of streams.
//!
//! All formats carry gaps explicitly (every `NaN` is normalised to one
//! canonical bit pattern on encode, so encoding is a pure function of
//! the series) and round-trip bit-exactly.

use crate::stats::ChunkStats;
use crate::{FrameError, MeasuredSeries};
use flextract_series::SeriesError;
use flextract_time::{Resolution, Timestamp};

/// Format magic of the legacy stat-less format.
pub const MAGIC_V1: [u8; 4] = *b"FXM1";

/// Format magic of the stat-carrying format.
pub const MAGIC_V2: [u8; 4] = *b"FXM2";

/// End marker closing an `FXM2` buffer (the magic, mirrored).
pub const END_MAGIC_V2: [u8; 4] = *b"2MXF";

/// Format magic of the compressed stat-carrying format.
pub const MAGIC_V3: [u8; 4] = *b"FXM3";

/// End marker closing an `FXM3` buffer (the magic, mirrored).
pub const END_MAGIC_V3: [u8; 4] = *b"3MXF";

/// Size in bytes of the fixed header (both versions).
pub const HEADER_LEN: usize = 28;

/// Size in bytes of an `FXM2` chunk-frame statistics header.
pub const V2_CHUNK_HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8;

/// Size in bytes of the `FXM2` tail (footer offset + end magic).
pub const V2_TAIL_LEN: usize = 8 + 4;

/// Default intervals per chunk: one 15-min day. Chosen so a chunk is a
/// few KiB — small enough to stream and skip, large enough that framing
/// overhead (4–32 bytes per chunk) is noise.
pub const DEFAULT_CHUNK_LEN: usize = 96;

/// The canonical gap payload: every `NaN` is normalised to this bit
/// pattern on encode, so encoding is a pure function of the series
/// (two equal series always encode to identical bytes).
const GAP_BITS: u64 = 0x7FF8_0000_0000_0000;

/// Which binary format a buffer carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FxmVersion {
    /// Legacy `FXM1`: chunk frames without statistics or footer.
    V1,
    /// `FXM2`: per-chunk statistics plus a footer chunk index.
    V2,
    /// `FXM3`: per-chunk statistics plus XOR-compressed payloads.
    V3,
}

/// Identify the binary format of `bytes` by magic, if any.
pub fn sniff(bytes: &[u8]) -> Option<FxmVersion> {
    if bytes.starts_with(&MAGIC_V1) {
        Some(FxmVersion::V1)
    } else if bytes.starts_with(&MAGIC_V2) {
        Some(FxmVersion::V2)
    } else if bytes.starts_with(&MAGIC_V3) {
        Some(FxmVersion::V3)
    } else {
        None
    }
}

fn codec_err(file: &str, what: impl Into<String>) -> FrameError {
    FrameError::Codec {
        file: file.to_string(),
        what: what.into(),
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// The bit pattern a value is stored as: its own, or [`GAP_BITS`] for
/// any `NaN`.
fn value_bits(v: f64) -> u64 {
    if v.is_nan() {
        GAP_BITS
    } else {
        v.to_bits()
    }
}

fn put_value(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, value_bits(v));
}

/// Encode a measured series as `FXM2` using
/// [`DEFAULT_CHUNK_LEN`]-interval chunks.
pub fn encode(series: &MeasuredSeries) -> Vec<u8> {
    encode_impl(series, DEFAULT_CHUNK_LEN, FxmVersion::V2)
}

/// Encode a measured series as `FXM2` with an explicit chunk length.
///
/// Errors with [`FrameError::ZeroChunkLen`] for `chunk_len == 0` — a
/// zero-interval chunk grid is undefined and is never silently
/// clamped.
pub fn encode_chunked(series: &MeasuredSeries, chunk_len: usize) -> Result<Vec<u8>, FrameError> {
    encode_checked(series, chunk_len, FxmVersion::V2)
}

/// Encode a measured series as legacy `FXM1` using
/// [`DEFAULT_CHUNK_LEN`]-interval chunks.
pub fn encode_v1(series: &MeasuredSeries) -> Vec<u8> {
    encode_impl(series, DEFAULT_CHUNK_LEN, FxmVersion::V1)
}

/// Encode a measured series as legacy `FXM1` with an explicit chunk
/// length (same [`FrameError::ZeroChunkLen`] contract as
/// [`encode_chunked`]).
pub fn encode_chunked_v1(series: &MeasuredSeries, chunk_len: usize) -> Result<Vec<u8>, FrameError> {
    encode_checked(series, chunk_len, FxmVersion::V1)
}

/// Encode a measured series as `FXM3` using
/// [`DEFAULT_CHUNK_LEN`]-interval chunks.
pub fn encode_v3(series: &MeasuredSeries) -> Vec<u8> {
    encode_impl(series, DEFAULT_CHUNK_LEN, FxmVersion::V3)
}

/// Encode a measured series as `FXM3` with an explicit chunk length
/// (same [`FrameError::ZeroChunkLen`] contract as [`encode_chunked`]).
pub fn encode_chunked_v3(series: &MeasuredSeries, chunk_len: usize) -> Result<Vec<u8>, FrameError> {
    encode_checked(series, chunk_len, FxmVersion::V3)
}

fn encode_checked(
    series: &MeasuredSeries,
    chunk_len: usize,
    version: FxmVersion,
) -> Result<Vec<u8>, FrameError> {
    if chunk_len == 0 {
        return Err(FrameError::ZeroChunkLen);
    }
    Ok(encode_impl(series, chunk_len, version))
}

/// The one writer behind every `encode*`, over a validated (non-zero)
/// chunk length. Every chunk frame opens with its interval count;
/// `FXM2`/`FXM3` follow it with the chunk's statistics and close the
/// buffer with the footer chunk index and end marker, which `FXM1`
/// lacks. `FXM3` compresses the payload; the others write raw words.
fn encode_impl(series: &MeasuredSeries, chunk_len: usize, version: FxmVersion) -> Vec<u8> {
    let n = series.len();
    let chunks = n.div_ceil(chunk_len);
    let (magic, end) = match version {
        FxmVersion::V1 => (MAGIC_V1, None),
        FxmVersion::V2 => (MAGIC_V2, Some(END_MAGIC_V2)),
        FxmVersion::V3 => (MAGIC_V3, Some(END_MAGIC_V3)),
    };
    let footer = chunks * 8 + V2_TAIL_LEN;
    let capacity = match version {
        // The `FXM2` size: exact for `FXM2`, a little over for `FXM1`.
        FxmVersion::V1 | FxmVersion::V2 => {
            HEADER_LEN + chunks * V2_CHUNK_HEADER_LEN + 8 * n + footer
        }
        // Only the fixed parts (headers, gap bitmaps, footer): the
        // compressed streams vary ~10× in size, so the buffer grows
        // with them instead of starting at the `FXM2` size.
        FxmVersion::V3 => {
            let bitmaps = (n / chunk_len) * chunk_len.div_ceil(8) + (n % chunk_len).div_ceil(8);
            HEADER_LEN + chunks * V2_CHUNK_HEADER_LEN + bitmaps + footer
        }
    };
    let mut buf = Vec::with_capacity(capacity);
    buf.extend_from_slice(&magic);
    put_u64(&mut buf, series.start().as_minutes() as u64);
    put_u32(&mut buf, series.resolution().minutes() as u32);
    put_u64(&mut buf, n as u64);
    put_u32(&mut buf, chunk_len as u32);
    let mut offsets = Vec::with_capacity(chunks);
    for chunk in series.values().chunks(chunk_len) {
        offsets.push(buf.len() as u64);
        put_u32(&mut buf, chunk.len() as u32);
        match version {
            FxmVersion::V1 => chunk.iter().for_each(|&v| put_value(&mut buf, v)),
            FxmVersion::V2 => {
                buf.extend_from_slice(&stats_bytes(&ChunkStats::from_values(chunk)));
                chunk.iter().for_each(|&v| put_value(&mut buf, v));
            }
            FxmVersion::V3 => put_v3_chunk(&mut buf, chunk),
        }
    }
    if let Some(end) = end {
        let footer = buf.len() as u64;
        for o in offsets {
            put_u64(&mut buf, o);
        }
        put_u64(&mut buf, footer);
        buf.extend_from_slice(&end);
    }
    buf
}

/// A chunk frame's statistics header past its count, `[u32 gap_count]
/// [f64 min][f64 max][f64 sum]`, as `FXM2` and `FXM3` both lay it out.
fn stats_bytes(stats: &ChunkStats) -> [u8; V2_CHUNK_HEADER_LEN - 4] {
    let values = [stats.min, stats.max, stats.sum].into_iter();
    let bytes = stats.gaps.to_le_bytes().into_iter();
    let bytes = bytes.chain(values.flat_map(|v| value_bits(v).to_le_bytes()));
    let mut out = [0; V2_CHUNK_HEADER_LEN - 4];
    out.iter_mut().zip(bytes).for_each(|(o, b)| *o = b);
    out
}

/// Append one chunk's `FXM3` statistics header, gap bitmap and
/// compressed stream to `buf` (which already holds the chunk's count) in
/// one pass over `chunk`. The header and bitmap bytes are reserved up
/// front and patched once the pass has folded them; the stream goes
/// straight into `buf` through a [`WordWriter`].
fn put_v3_chunk(buf: &mut Vec<u8>, chunk: &[f64]) {
    let stats_at = buf.len();
    let bitmap_at = stats_at + V2_CHUNK_HEADER_LEN - 4;
    buf.resize(bitmap_at + chunk.len().div_ceil(8), 0);
    let mut stats = ChunkStats::from_values(&[]);
    let mut w = WordWriter { acc: 0, used: 0 };
    let mut prev: Option<u64> = None;
    // The window (leading zeros, meaningful length) of the last `11`
    // control block; `10` re-uses it when the new XOR fits inside. A
    // meaningful length of 0 means no window yet.
    let (mut w_lead, mut w_len) = (0u32, 0u32);
    for (group, slot) in chunk.chunks(8).zip(bitmap_at..) {
        // Gap bitmap, LSB-first within each byte; padding bits stay zero.
        let mut gaps = 0u8;
        for (bit, &v) in group.iter().enumerate() {
            if v.is_nan() {
                gaps |= 1 << bit;
                stats.gaps += 1;
                continue;
            }
            stats.observe(v);
            let bits = v.to_bits();
            let Some(p) = prev.replace(bits) else {
                w.push(buf, bits, 64);
                continue;
            };
            let xor = p ^ bits;
            if xor == 0 {
                w.push(buf, 0, 1);
                continue;
            }
            let lead = xor.leading_zeros();
            let trail = xor.trailing_zeros();
            if w_len != 0 && lead >= w_lead && trail >= 64 - w_lead - w_len {
                // `10` + the XOR's bits inside the window.
                w.push_pair(buf, 0b10, 2, xor >> (64 - w_lead - w_len), w_len);
            } else {
                // `11` + 6-bit lead + 6-bit (length − 1) + the bits.
                let len = 64 - lead - trail;
                let head = 0b11 << 12 | u64::from(lead) << 6 | u64::from(len - 1);
                w.push_pair(buf, head, 14, xor >> trail, len);
                (w_lead, w_len) = (lead, len);
            }
        }
        if let Some(byte) = buf.get_mut(slot) {
            *byte = gaps;
        }
    }
    w.finish(buf);
    for (byte, b) in buf.iter_mut().skip(stats_at).zip(stats_bytes(&stats)) {
        *byte = b;
    }
}

/// MSB-first 64-bit bit accumulator for the `FXM3` compressed stream:
/// the top `used` bits of `acc` are pending, and each full word goes
/// out to the frame buffer as 8 big-endian bytes. The final word is
/// cut to whole bytes on [`finish`](WordWriter::finish), zero-padding
/// its last one, and the decoder re-checks that padding, so the
/// stream's bit count is recoverable exactly.
struct WordWriter {
    acc: u64,
    used: u32,
}

impl WordWriter {
    /// Append the `n` low bits of `value` (`1 <= n <= 64`; no bit above
    /// them set), MSB-first.
    #[inline]
    fn push(&mut self, buf: &mut Vec<u8>, value: u64, n: u32) {
        let free = 64 - self.used;
        if n < free {
            self.acc |= value << (free - n);
            self.used += n;
        } else {
            let spill = n - free;
            self.acc |= value >> spill;
            buf.extend_from_slice(&self.acc.to_be_bytes());
            // `spill` is 0..=63; nothing is left over when it is 0.
            self.acc = value.checked_shl(64 - spill).unwrap_or(0);
            self.used = spill;
        }
    }

    /// Append a `head_n`-bit control head and an `n`-bit payload, in
    /// one push when both fit one word.
    #[inline]
    fn push_pair(&mut self, buf: &mut Vec<u8>, head: u64, head_n: u32, value: u64, n: u32) {
        if head_n + n <= 64 {
            self.push(buf, head << n | value, head_n + n);
        } else {
            self.push(buf, head, head_n);
            self.push(buf, value, n);
        }
    }

    /// Flush the pending bits as whole bytes, zero-padding the last.
    fn finish(self, buf: &mut Vec<u8>) {
        let bytes = self.used.div_ceil(8) as usize;
        buf.extend(self.acc.to_be_bytes().into_iter().take(bytes));
    }
}

/// Parsed fixed header (identical in both versions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// First instant covered by the series.
    pub start: Timestamp,
    /// Interval width.
    pub resolution: Resolution,
    /// Total interval count across all chunks.
    pub len: usize,
    /// Intervals per chunk (the final chunk may be shorter).
    pub chunk_len: usize,
}

impl FrameHeader {
    /// Number of chunks implied by `len` and `chunk_len`.
    pub fn chunk_count(&self) -> usize {
        self.len.div_ceil(self.chunk_len)
    }
}

/// One chunk's placement and (for `FXM2`) statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkMeta {
    /// Global index of the chunk's first interval.
    pub first: usize,
    /// Number of intervals in the chunk.
    pub len: usize,
    /// Statistics, when the format carries them (`FXM2`/`FXM3`).
    pub stats: Option<ChunkStats>,
    /// Absolute byte offset of the chunk frame (0 for materialized
    /// frames, which have no backing buffer).
    offset: usize,
    /// On-disk payload bytes past the statistics header (raw IEEE-754
    /// words for `FXM2`; gap bitmap + compressed stream for `FXM3`; 0
    /// for virtually chunked frames). Feeds the scan byte audit.
    payload_bytes: usize,
}

impl ChunkMeta {
    /// On-disk payload bytes a decode of this chunk touches (0 for
    /// virtually chunked frames, whose decode cost was paid at open).
    pub fn payload_bytes(&self) -> usize {
        self.payload_bytes
    }
}

/// How a [`Frame`] serves its chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Lazy `FXM2`: chunks decode on demand, statistics are indexed.
    FxmV2,
    /// Lazy `FXM3`: like `FxmV2`, with XOR-compressed payloads that
    /// decompress on demand.
    FxmV3,
    /// Legacy `FXM1`: fully decoded at open (no statistics to push
    /// down), chunks served from memory.
    FxmV1,
    /// An in-memory series (e.g. parsed from CSV) chunked virtually.
    Materialized,
}

/// A chunk-addressable view over one measured series.
///
/// `FXM2` and `FXM3` buffers open lazily — the constructor reads only
/// the header, the footer index and the 32-byte per-chunk statistics
/// headers; payloads decode (for `FXM3`, decompress) on demand through
/// [`Frame::chunk_values`]. `FXM1`
/// and in-memory series degrade gracefully: they are materialized up
/// front and chunked virtually, so every scan still runs (it just
/// cannot skip decode work it has already paid for).
#[derive(Debug, Clone)]
pub struct Frame {
    file: String,
    header: FrameHeader,
    kind: FrameKind,
    /// The raw buffer (`FxmV2`/`FxmV3` only; empty otherwise).
    buf: Vec<u8>,
    /// Materialized values (`FxmV1`/`Materialized` only; empty for
    /// lazy frames).
    values: Vec<f64>,
    chunks: Vec<ChunkMeta>,
    /// On-disk size of the backing buffer at open (0 for frames built
    /// from an in-memory series). Kept separately because the eager
    /// `FXM1` path drops its buffer after decoding.
    disk_bytes: usize,
}

/// Take `N` bytes at `at`, or a [`FrameError::ShortRead`] naming the
/// offset if the buffer ends first. Every fixed-width read in the
/// decoder goes through here — on a truncated or crafted buffer the
/// failing offset surfaces as a typed error, never a panic.
fn read_array<const N: usize>(buf: &[u8], at: usize, file: &str) -> Result<[u8; N], FrameError> {
    at.checked_add(N)
        .and_then(|end| buf.get(at..end))
        .and_then(|bytes| <[u8; N]>::try_from(bytes).ok())
        .ok_or_else(|| FrameError::ShortRead {
            file: file.to_string(),
            offset: at,
            needed: N,
            len: buf.len(),
        })
}

fn read_u32(buf: &[u8], at: usize, file: &str) -> Result<u32, FrameError> {
    Ok(u32::from_le_bytes(read_array(buf, at, file)?))
}

fn read_u64(buf: &[u8], at: usize, file: &str) -> Result<u64, FrameError> {
    Ok(u64::from_le_bytes(read_array(buf, at, file)?))
}

fn read_f64(buf: &[u8], at: usize, file: &str) -> Result<f64, FrameError> {
    Ok(f64::from_bits(read_u64(buf, at, file)?))
}

/// Decode the fixed header shared by both versions, returning the
/// version alongside.
pub fn decode_header(buf: &[u8], file: &str) -> Result<(FrameHeader, FxmVersion), FrameError> {
    if buf.len() < HEADER_LEN {
        return Err(codec_err(file, "buffer shorter than header"));
    }
    let version =
        sniff(buf).ok_or_else(|| codec_err(file, "bad magic (expected FXM1, FXM2 or FXM3)"))?;
    let start = Timestamp::from_minutes(read_u64(buf, 4, file)? as i64);
    let resolution = Resolution::from_minutes(read_u32(buf, 12, file)? as i64)
        .map_err(|_| codec_err(file, "invalid resolution"))?;
    if !start.is_aligned(resolution) {
        return Err(codec_err(file, "unaligned start"));
    }
    let len = read_u64(buf, 16, file)?;
    if len > (usize::MAX / 8) as u64 {
        return Err(codec_err(file, "length overflow"));
    }
    let chunk_len = read_u32(buf, 24, file)? as usize;
    if chunk_len == 0 {
        return Err(codec_err(file, "zero chunk length"));
    }
    Ok((
        FrameHeader {
            start,
            resolution,
            len: len as usize,
            chunk_len,
        },
        version,
    ))
}

impl Frame {
    /// Open a binary frame buffer (either version). `file` names the
    /// source in errors.
    pub fn from_fxm_bytes(bytes: Vec<u8>, file: &str) -> Result<Frame, FrameError> {
        let (header, version) = decode_header(&bytes, file)?;
        match version {
            FxmVersion::V2 => Self::open_v2(bytes, header, file),
            FxmVersion::V3 => Self::open_v3(bytes, header, file),
            FxmVersion::V1 => Self::open_v1(&bytes, header, file),
        }
    }

    /// Wrap an already-materialized series as a virtually chunked
    /// frame (the CSV path). Statistics are not computed — the decode
    /// cost has already been paid, so there is nothing left to skip.
    pub fn from_measured(
        series: MeasuredSeries,
        chunk_len: usize,
        file: &str,
    ) -> Result<Frame, FrameError> {
        if chunk_len == 0 {
            return Err(FrameError::ZeroChunkLen);
        }
        let header = FrameHeader {
            start: series.start(),
            resolution: series.resolution(),
            len: series.len(),
            chunk_len,
        };
        Ok(Frame {
            file: file.to_string(),
            chunks: virtual_chunks(&header),
            header,
            kind: FrameKind::Materialized,
            buf: Vec::new(),
            values: series.into_values(),
            disk_bytes: 0,
        })
    }

    fn open_v2(bytes: Vec<u8>, header: FrameHeader, file: &str) -> Result<Frame, FrameError> {
        let chunks = parse_v2_chunks(&bytes, &header, file)?;
        Ok(Frame {
            file: file.to_string(),
            header,
            kind: FrameKind::FxmV2,
            disk_bytes: bytes.len(),
            buf: bytes,
            values: Vec::new(),
            chunks,
        })
    }

    fn open_v3(bytes: Vec<u8>, header: FrameHeader, file: &str) -> Result<Frame, FrameError> {
        let chunks = parse_v3_chunks(&bytes, &header, file)?;
        Ok(Frame {
            file: file.to_string(),
            header,
            kind: FrameKind::FxmV3,
            disk_bytes: bytes.len(),
            buf: bytes,
            values: Vec::new(),
            chunks,
        })
    }
    fn open_v1(buf: &[u8], header: FrameHeader, file: &str) -> Result<Frame, FrameError> {
        // Sequential decode: v1 has no footer, so the only way to find
        // chunk boundaries is to walk them — a full decode.
        // The header's chunk_len is attacker-controlled; cap the
        // upfront allocation by what the buffer could actually hold so
        // a corrupt file yields a codec error, not a huge allocation.
        let mut values = Vec::with_capacity(header.len.min(buf.len() / 8));
        let mut at = HEADER_LEN;
        while values.len() < header.len {
            let expected = header.chunk_len.min(header.len - values.len());
            if at + 4 > buf.len() {
                return Err(codec_err(file, "truncated chunk frame"));
            }
            let count = read_u32(buf, at, file)? as usize;
            if count != expected {
                return Err(codec_err(file, "chunk count disagrees with header"));
            }
            at += 4;
            if at + count * 8 > buf.len() {
                return Err(codec_err(file, "truncated chunk payload"));
            }
            for _ in 0..count {
                let v = read_f64(buf, at, file)?;
                if v.is_infinite() {
                    return Err(codec_err(file, "infinite value in chunk payload"));
                }
                values.push(v);
                at += 8;
            }
        }
        if at < buf.len() {
            return Err(FrameError::TrailingBytes {
                file: file.to_string(),
                offset: at,
                trailing: buf.len() - at,
            });
        }
        Ok(Frame {
            file: file.to_string(),
            chunks: virtual_chunks(&header),
            header,
            kind: FrameKind::FxmV1,
            buf: Vec::new(),
            values,
            disk_bytes: buf.len(),
        })
    }

    /// The fixed header.
    pub fn header(&self) -> &FrameHeader {
        &self.header
    }

    /// How this frame serves its chunks.
    pub fn kind(&self) -> FrameKind {
        self.kind
    }

    /// The source file (or buffer label), for error context.
    pub fn file(&self) -> &str {
        &self.file
    }

    /// The chunk directory, in interval order.
    pub fn chunks(&self) -> &[ChunkMeta] {
        &self.chunks
    }

    /// On-disk bytes read to open this frame (0 for frames built from
    /// an in-memory series). Feeds [`ScanReport::bytes_read`]
    /// accounting.
    ///
    /// [`ScanReport::bytes_read`]: crate::scan::ScanReport::bytes_read
    pub fn disk_bytes(&self) -> usize {
        self.disk_bytes
    }

    /// The values of chunk `i`, decoding on demand for lazy frames.
    /// `scratch` is the decode buffer (reused across calls); the
    /// returned slice borrows either `scratch` or the frame itself.
    ///
    /// A chunk index past the directory is a [`FrameError::Scan`], not
    /// a panic.
    pub fn chunk_values<'a>(
        &'a self,
        i: usize,
        scratch: &'a mut Vec<f64>,
    ) -> Result<&'a [f64], FrameError> {
        let meta = self.chunks.get(i).ok_or_else(|| FrameError::Scan {
            what: format!(
                "chunk index {i} out of range ({} chunks)",
                self.chunks.len()
            ),
        })?;
        match self.kind {
            FrameKind::FxmV1 | FrameKind::Materialized => self
                .values
                .get(meta.first..meta.first + meta.len)
                .ok_or_else(|| {
                    codec_err(
                        &self.file,
                        format!("chunk {i} extends past the materialized values"),
                    )
                }),
            FrameKind::FxmV2 => {
                read_v2_payload(&self.buf, meta, &self.file, scratch)?;
                Ok(scratch.as_slice())
            }
            FrameKind::FxmV3 => {
                read_v3_payload(&self.buf, meta, &self.file, scratch)?;
                Ok(scratch.as_slice())
            }
        }
    }

    /// Fully decode the frame into a measured series.
    pub fn decode(&self) -> Result<MeasuredSeries, FrameError> {
        let mut values = Vec::with_capacity(self.header.len);
        let mut scratch = Vec::new();
        for i in 0..self.chunks.len() {
            values.extend_from_slice(self.chunk_values(i, &mut scratch)?);
        }
        MeasuredSeries::new(self.header.start, self.header.resolution, values).map_err(
            |e| match e {
                SeriesError::UnalignedStart => codec_err(&self.file, "unaligned start"),
                other => FrameError::Series(other),
            },
        )
    }

    /// Consume the frame into a fully decoded measured series —
    /// already-materialized frames move their values instead of
    /// copying.
    pub fn into_measured(self) -> Result<MeasuredSeries, FrameError> {
        match self.kind {
            FrameKind::FxmV2 | FrameKind::FxmV3 => self.decode(),
            FrameKind::FxmV1 | FrameKind::Materialized => {
                MeasuredSeries::new(self.header.start, self.header.resolution, self.values).map_err(
                    |e| match e {
                        SeriesError::UnalignedStart => codec_err(&self.file, "unaligned start"),
                        other => FrameError::Series(other),
                    },
                )
            }
        }
    }
}

/// Parse an `FXM2` buffer's footer index and per-chunk statistics
/// headers into the chunk directory, enforcing exact byte accounting
/// (no payload is decoded). All size arithmetic is bounded by the
/// buffer length *before* it happens, so a crafted header yields a
/// codec error, never an overflow or a huge allocation.
fn parse_v2_chunks(
    buf: &[u8],
    header: &FrameHeader,
    file: &str,
) -> Result<Vec<ChunkMeta>, FrameError> {
    let chunks = header.chunk_count();
    // Bound the declared chunk count by what the buffer could hold
    // before any multiplication: each chunk needs 8 footer bytes.
    let avail = buf.len().saturating_sub(HEADER_LEN + V2_TAIL_LEN);
    if chunks > avail / 8 {
        return Err(codec_err(file, "buffer shorter than footer"));
    }
    let footer_len = chunks * 8 + V2_TAIL_LEN;
    let end_magic: [u8; 4] = read_array(buf, buf.len().saturating_sub(4), file)?;
    if end_magic != END_MAGIC_V2 {
        return Err(codec_err(
            file,
            "missing FXM2 end marker (truncated buffer or trailing bytes)",
        ));
    }
    let tail_at = buf
        .len()
        .checked_sub(V2_TAIL_LEN)
        .ok_or_else(|| codec_err(file, "buffer shorter than the FXM2 tail"))?;
    let footer_off = read_u64(buf, tail_at, file)?;
    let expected_footer = (buf.len() - footer_len) as u64;
    if footer_off != expected_footer {
        return Err(codec_err(
            file,
            format!(
                "footer offset {footer_off} does not line up with the chunk index \
                 (expected {expected_footer}; truncated buffer or trailing bytes)"
            ),
        ));
    }
    let mut metas: Vec<ChunkMeta> = Vec::with_capacity(chunks);
    let mut expected_off = HEADER_LEN as u64;
    for c in 0..chunks {
        let off = read_u64(buf, footer_off as usize + c * 8, file)?;
        if off != expected_off {
            return Err(codec_err(
                file,
                format!("chunk {c} offset {off} disagrees with the frame layout"),
            ));
        }
        let first = c * header.chunk_len;
        let len = header.chunk_len.min(header.len - first);
        // `off` equals `expected_off`, which grows contiguously and is
        // re-checked against `footer_off` below, so `at` is in range.
        let at = off as usize;
        if at + V2_CHUNK_HEADER_LEN + len * 8 > footer_off as usize {
            return Err(codec_err(file, "truncated chunk frame"));
        }
        let count = read_u32(buf, at, file)? as usize;
        if count != len {
            return Err(codec_err(file, "chunk count disagrees with header"));
        }
        let gaps = read_u32(buf, at + 4, file)?;
        if gaps as usize > len {
            return Err(codec_err(file, "chunk gap count exceeds chunk length"));
        }
        let min = read_f64(buf, at + 8, file)?;
        let max = read_f64(buf, at + 16, file)?;
        let sum = read_f64(buf, at + 24, file)?;
        if min.is_infinite() || max.is_infinite() || !sum.is_finite() {
            return Err(codec_err(file, "non-finite chunk statistics"));
        }
        if (gaps as usize == len) != (min.is_nan() || max.is_nan()) {
            return Err(codec_err(
                file,
                "chunk statistics disagree with the gap count",
            ));
        }
        metas.push(ChunkMeta {
            first,
            len,
            stats: Some(ChunkStats {
                gaps,
                min,
                max,
                sum,
            }),
            offset: at,
            payload_bytes: len * 8,
        });
        expected_off = (at + V2_CHUNK_HEADER_LEN + len * 8) as u64;
    }
    if expected_off != footer_off {
        return Err(codec_err(
            file,
            "slack bytes between the final chunk and the footer",
        ));
    }
    Ok(metas)
}

/// Decode one `FXM2` chunk payload into `out` (cleared first).
fn read_v2_payload(
    buf: &[u8],
    meta: &ChunkMeta,
    file: &str,
    out: &mut Vec<f64>,
) -> Result<(), FrameError> {
    out.clear();
    out.reserve(meta.len);
    let mut at = meta.offset + V2_CHUNK_HEADER_LEN;
    for _ in 0..meta.len {
        let v = read_f64(buf, at, file)?;
        if v.is_infinite() {
            return Err(codec_err(file, "infinite value in chunk payload"));
        }
        out.push(v);
        at += 8;
    }
    Ok(())
}

/// Parse an `FXM3` buffer's footer index and per-chunk statistics
/// headers into the chunk directory. Chunk frames are variable-length
/// (the payload compresses), so each chunk's byte extent is derived
/// from the next footer offset; offsets must be contiguous from the
/// fixed header to the footer, which makes every extent bounded before
/// any read. No payload (bitmap or stream) is touched here.
fn parse_v3_chunks(
    buf: &[u8],
    header: &FrameHeader,
    file: &str,
) -> Result<Vec<ChunkMeta>, FrameError> {
    let chunks = header.chunk_count();
    // Bound the declared chunk count by what the buffer could hold
    // before any multiplication: each chunk needs 8 footer bytes.
    let avail = buf.len().saturating_sub(HEADER_LEN + V2_TAIL_LEN);
    if chunks > avail / 8 {
        return Err(codec_err(file, "buffer shorter than footer"));
    }
    let footer_len = chunks * 8 + V2_TAIL_LEN;
    let end_magic: [u8; 4] = read_array(buf, buf.len().saturating_sub(4), file)?;
    if end_magic != END_MAGIC_V3 {
        return Err(codec_err(
            file,
            "missing FXM3 end marker (truncated buffer or trailing bytes)",
        ));
    }
    let tail_at = buf
        .len()
        .checked_sub(V2_TAIL_LEN)
        .ok_or_else(|| codec_err(file, "buffer shorter than the FXM3 tail"))?;
    let footer_off = read_u64(buf, tail_at, file)?;
    let expected_footer = (buf.len() - footer_len) as u64;
    if footer_off != expected_footer {
        return Err(codec_err(
            file,
            format!(
                "footer offset {footer_off} does not line up with the chunk index \
                 (expected {expected_footer}; truncated buffer or trailing bytes)"
            ),
        ));
    }
    let mut metas: Vec<ChunkMeta> = Vec::with_capacity(chunks);
    let mut expected_off = HEADER_LEN as u64;
    for c in 0..chunks {
        let off = read_u64(buf, footer_off as usize + c * 8, file)?;
        if off != expected_off {
            return Err(codec_err(
                file,
                format!("chunk {c} offset {off} disagrees with the frame layout"),
            ));
        }
        // The chunk's byte extent ends where the next chunk (or the
        // footer) begins; `off == expected_off` keeps the walk
        // contiguous, so `end` is bounded by `footer_off`.
        let end = if c + 1 < chunks {
            read_u64(buf, footer_off as usize + (c + 1) * 8, file)?
        } else {
            footer_off
        };
        let Some(extent) = end.checked_sub(off).map(|e| e as usize) else {
            return Err(codec_err(
                file,
                format!("chunk {c} offsets are not monotonic"),
            ));
        };
        if end > footer_off {
            return Err(codec_err(
                file,
                format!("chunk {c} extends past the footer"),
            ));
        }
        let first = c * header.chunk_len;
        let len = header.chunk_len.min(header.len - first);
        let bitmap_len = len.div_ceil(8);
        if extent < V2_CHUNK_HEADER_LEN + bitmap_len {
            return Err(codec_err(file, "truncated chunk frame"));
        }
        let at = off as usize;
        let count = read_u32(buf, at, file)? as usize;
        if count != len {
            return Err(codec_err(file, "chunk count disagrees with header"));
        }
        let gaps = read_u32(buf, at + 4, file)?;
        if gaps as usize > len {
            return Err(codec_err(file, "chunk gap count exceeds chunk length"));
        }
        let min = read_f64(buf, at + 8, file)?;
        let max = read_f64(buf, at + 16, file)?;
        let sum = read_f64(buf, at + 24, file)?;
        if min.is_infinite() || max.is_infinite() || !sum.is_finite() {
            return Err(codec_err(file, "non-finite chunk statistics"));
        }
        if (gaps as usize == len) != (min.is_nan() || max.is_nan()) {
            return Err(codec_err(
                file,
                "chunk statistics disagree with the gap count",
            ));
        }
        metas.push(ChunkMeta {
            first,
            len,
            stats: Some(ChunkStats {
                gaps,
                min,
                max,
                sum,
            }),
            offset: at,
            payload_bytes: extent - V2_CHUNK_HEADER_LEN,
        });
        expected_off = end;
    }
    if expected_off != footer_off {
        return Err(codec_err(
            file,
            "slack bytes between the final chunk and the footer",
        ));
    }
    Ok(metas)
}

/// Decode one `FXM3` chunk payload (gap bitmap + compressed stream)
/// into `out` (cleared first). Accounting is exact: the stream must
/// end on the final value with only zero padding bits left, the bitmap
/// must agree with the recorded gap count, and decoded values must be
/// finite non-NaN — anything else is a typed error naming the chunk's
/// byte offset.
///
/// The observed values decode contiguously (see [`decode_xor_stream`]);
/// gaps are spread in afterwards, back to front, and only when the
/// chunk has any.
fn read_v3_payload(
    buf: &[u8],
    meta: &ChunkMeta,
    file: &str,
    out: &mut Vec<f64>,
) -> Result<(), FrameError> {
    let chunk_err = |what: &str| {
        codec_err(
            file,
            format!("chunk at byte offset {}: {what}", meta.offset),
        )
    };
    out.clear();
    let bitmap_len = meta.len.div_ceil(8);
    let bitmap_at = meta.offset + V2_CHUNK_HEADER_LEN;
    let stream_at = bitmap_at + bitmap_len;
    let stream_end = bitmap_at + meta.payload_bytes;
    // The extent was validated against the footer at open; a miss here
    // means the directory itself is inconsistent.
    let (Some(bitmap), Some(stream)) = (
        buf.get(bitmap_at..stream_at),
        buf.get(stream_at..stream_end),
    ) else {
        return Err(chunk_err("payload extends past the buffer"));
    };
    let gaps: usize = bitmap.iter().map(|b| b.count_ones() as usize).sum();
    let recorded = meta.stats.map_or(0, |s| s.gaps as usize);
    if gaps != recorded {
        return Err(chunk_err(
            "gap bitmap disagrees with the recorded gap count",
        ));
    }
    // Padding bits past `len` in the final bitmap byte must be zero —
    // they are not intervals, so any set bit is corruption (and would
    // otherwise double-count in the popcount above).
    if !meta.len.is_multiple_of(8) {
        let last = bitmap.last().copied().unwrap_or(0);
        if last & !((1u16 << (meta.len % 8)) - 1) as u8 != 0 {
            return Err(chunk_err("gap bitmap sets bits past the chunk length"));
        }
    }
    let observed = meta.len - gaps;
    out.reserve(meta.len.max(observed + RUN_SLACK));
    out.resize(observed + RUN_SLACK, 0.0);
    let decoded = decode_xor_stream(stream, out, observed);
    out.truncate(observed);
    decoded.map_err(chunk_err)?;
    if gaps > 0 {
        // Back to front, observed value `src` moves to its slot `i >=
        // src`; once every gap is placed the prefix is already final.
        out.resize(meta.len, f64::from_bits(GAP_BITS));
        let mut src = observed;
        for i in (0..meta.len).rev() {
            if src == i + 1 {
                break;
            }
            let v = if bitmap.get(i / 8).is_some_and(|b| b >> (i % 8) & 1 == 1) {
                f64::from_bits(GAP_BITS)
            } else {
                src -= 1;
                out.get(src).copied().unwrap_or(f64::from_bits(GAP_BITS))
            };
            if let Some(slot) = out.get_mut(i) {
                *slot = v;
            }
        }
    }
    Ok(())
}

/// Slots past the observed values that [`decode_xor_stream`] may write
/// to: the first copies of a repeat run are stored unconditionally.
const RUN_SLACK: usize = 4;

/// Decode an `FXM3` XOR stream of `observed` values into the front of
/// `dst` (`observed + RUN_SLACK` slots), checking that the stream ends
/// on the final value with only zero padding bits left (see the module
/// docs, "Decoding `FXM3`"). The error is the reason; the caller names
/// the chunk.
fn decode_xor_stream(stream: &[u8], dst: &mut [f64], observed: usize) -> Result<(), &'static str> {
    const ENDS_INSIDE_VALUE: &str = "compressed stream ends inside a value";
    let bits = stream.len() * 8;
    let tail_at = stream.len().saturating_sub(16);
    let mut tail = [0u8; 32];
    for (t, b) in tail
        .iter_mut()
        .zip(stream.get(tail_at..).unwrap_or_default())
    {
        *t = *b;
    }
    // The 128 stream bits from bit `pos < bits` on, MSB-aligned, as
    // (high, low) words; the low `pos % 8` bits and any bits past the
    // stream's end are zero.
    let window = |pos: usize| {
        let at = pos / 8;
        let bytes = match stream.get(at..).and_then(<[u8]>::first_chunk::<16>) {
            Some(b) => *b,
            None => tail
                .get(at.saturating_sub(tail_at)..)
                .and_then(<[u8]>::first_chunk::<16>)
                .copied()
                .unwrap_or([0; 16]),
        };
        let w = u128::from_be_bytes(bytes) << (pos % 8);
        ((w >> 64) as u64, w as u64)
    };
    // An all-ones exponent is ±∞ (zero mantissa) or a NaN outside
    // the gap bitmap — corruption either way, told apart cold.
    const EXP_ALL: u64 = 0x7ff0_0000_0000_0000;
    let non_finite = |bits: u64| {
        if bits & !(EXP_ALL | (1 << 63)) == 0 {
            "infinite value in chunk payload"
        } else {
            "NaN payload outside the gap bitmap"
        }
    };
    // The first observed value is 64 raw bits.
    let mut pos = 0;
    let mut prev = 0u64;
    let mut n = 0;
    if observed > 0 {
        if bits < 64 {
            return Err(ENDS_INSIDE_VALUE);
        }
        prev = window(0).0;
        if prev & EXP_ALL == EXP_ALL {
            return Err(non_finite(prev));
        }
        if let Some(d) = dst.first_mut() {
            *d = f64::from_bits(prev);
        }
        (pos, n) = (64, 1);
    }
    // Current reuse window; `w_ml == 0` means none defined yet (a
    // real window always has `meaningful >= 1`).
    let mut w_lead = 0u32;
    let mut w_ml = 0u32;
    // Above 32 bits per value, values are mostly window reuses in a
    // row, which a tight loop takes on a predictable branch. Below it,
    // values alternate with repeat runs, and counting every run from
    // the window (zero or not) beats a mispredicted branch.
    let dense = bits >= observed * 32;
    while n < observed {
        if pos >= bits {
            return Err(ENDS_INSIDE_VALUE);
        }
        let (mut hi, mut lo) = window(pos);
        // The run of repeats: one fill per leading zero bit, bounded by
        // the values still to decode and the stream's end. A run that
        // leaves fewer than 78 valid bits (control, header, payload) in
        // the window, or that hits a bound, goes round again.
        let zeros = if hi != 0 {
            hi.leading_zeros()
        } else {
            64 + lo.leading_zeros()
        } as usize;
        let room = (observed - n).min(bits - pos);
        let v = f64::from_bits(prev);
        if zeros > 43 || zeros > room {
            let run = zeros.min(120).min(room);
            if let Some(d) = dst.get_mut(n..n + run) {
                d.fill(v);
            }
            (pos, n) = (pos + run, n + run);
            continue;
        }
        if let Some(d) = dst.get_mut(n..n + RUN_SLACK) {
            d.fill(v);
        }
        if zeros > RUN_SLACK {
            if let Some(d) = dst.get_mut(n + RUN_SLACK..n + zeros) {
                d.fill(v);
            }
        }
        (pos, n) = (pos + zeros, n + zeros);
        if n == observed {
            break;
        }
        hi = hi << zeros | (lo >> 1) >> (63 - zeros);
        lo <<= zeros;
        // A `1` control: `10` re-uses the window, `11` defines a new
        // one — two 6-bit fields, lead then meaningful−1.
        if bits - pos < 2 {
            return Err(ENDS_INSIDE_VALUE);
        }
        let mut head = if hi >> 62 & 1 == 0 {
            if w_ml == 0 {
                return Err("compressed stream re-uses a window before defining one");
            }
            2
        } else {
            if bits - pos < 14 {
                return Err("compressed stream ends inside a window");
            }
            w_lead = (hi >> 56) as u32 & 0x3f;
            w_ml = ((hi >> 50) as u32 & 0x3f) + 1;
            if w_lead + w_ml > 64 {
                return Err("compressed window overruns 64 bits");
            }
            14
        };
        loop {
            pos += head + w_ml as usize;
            if pos > bits {
                return Err(ENDS_INSIDE_VALUE);
            }
            let payload = (hi << head | lo >> (64 - head)) >> (64 - w_ml);
            prev ^= payload << (64 - w_lead - w_ml);
            if prev & EXP_ALL == EXP_ALL {
                return Err(non_finite(prev));
            }
            if let Some(d) = dst.get_mut(n) {
                *d = f64::from_bits(prev);
            }
            n += 1;
            // A dense stream stays here while the controls are `10`.
            if !dense || n == observed || bits - pos < 2 {
                break;
            }
            (hi, lo) = window(pos);
            if hi >> 62 != 0b10 {
                break;
            }
            head = 2;
        }
    }
    // Exact accounting: the stream must hold exactly the bits decoded,
    // rounded up to whole bytes, with zero padding — slack bytes or
    // set padding bits mean the frame lies about its contents.
    let pad = bits - pos;
    if pad >= 8
        || stream
            .last()
            .is_some_and(|b| b & ((1u16 << pad) - 1) as u8 != 0)
    {
        return Err("slack bytes after the compressed stream");
    }
    Ok(())
}

fn virtual_chunks(header: &FrameHeader) -> Vec<ChunkMeta> {
    (0..header.chunk_count())
        .map(|c| {
            let first = c * header.chunk_len;
            ChunkMeta {
                first,
                len: header.chunk_len.min(header.len - first),
                stats: None,
                offset: 0,
                payload_bytes: 0,
            }
        })
        .collect()
}

/// Decode a full measured series from a binary frame buffer (either
/// version). `file` names the source in errors. Works on the borrowed
/// buffer directly — no copy of the input is made.
pub fn decode(buf: &[u8], file: &str) -> Result<MeasuredSeries, FrameError> {
    let (header, version) = decode_header(buf, file)?;
    let chunks = match version {
        FxmVersion::V1 => return Frame::open_v1(buf, header, file)?.into_measured(),
        FxmVersion::V2 => parse_v2_chunks(buf, &header, file)?,
        FxmVersion::V3 => parse_v3_chunks(buf, &header, file)?,
    };
    let mut values = Vec::with_capacity(header.len);
    let mut scratch = Vec::new();
    for meta in &chunks {
        match version {
            FxmVersion::V2 => read_v2_payload(buf, meta, file, &mut scratch)?,
            _ => read_v3_payload(buf, meta, file, &mut scratch)?,
        }
        values.extend_from_slice(&scratch);
    }
    MeasuredSeries::new(header.start, header.resolution, values).map_err(|e| match e {
        SeriesError::UnalignedStart => codec_err(file, "unaligned start"),
        other => FrameError::Series(other),
    })
}

/// Cold-open a frame file with one buffered sequential read.
///
/// The whole file — header, chunk frames, statistics block and footer
/// — lands in a single pre-sized read, so a cold open costs one IO
/// round-trip instead of a seek per chunk header (the footer index
/// then resolves chunk placement from memory). This is the read-ahead
/// path every store-level open funnels through; `BENCH_pipeline.json`'s
/// `cold_open/readahead_single_read` stage times it.
pub fn open_file(path: &std::path::Path) -> Result<Frame, FrameError> {
    use std::io::Read as _;
    let display = path.display().to_string();
    let mut f =
        std::fs::File::open(path).map_err(|e| codec_err(&display, format!("open failed: {e}")))?;
    let size = f.metadata().map(|m| m.len() as usize).unwrap_or(0);
    let mut raw = Vec::with_capacity(size);
    f.read_to_end(&mut raw)
        .map_err(|e| codec_err(&display, format!("read failed: {e}")))?;
    Frame::from_fxm_bytes(raw, &display)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: &str) -> Timestamp {
        s.parse().unwrap()
    }

    fn sample() -> MeasuredSeries {
        MeasuredSeries::new(
            ts("2013-03-18"),
            Resolution::MIN_15,
            vec![0.25, f64::NAN, 0.75, 1.0, f64::NAN],
        )
        .unwrap()
    }

    fn assert_series_eq(a: &MeasuredSeries, b: &MeasuredSeries) {
        assert_eq!(a.start(), b.start());
        assert_eq!(a.resolution(), b.resolution());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.values().iter().zip(b.values()) {
            assert!(x.is_nan() == y.is_nan());
            if !x.is_nan() {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn v2_round_trip_preserves_gaps() {
        let m = sample();
        let bytes = encode(&m);
        assert_eq!(sniff(&bytes), Some(FxmVersion::V2));
        let back = decode(&bytes, "t.fxm").unwrap();
        assert_eq!(back.gap_count(), 2);
        assert_series_eq(&back, &m);
    }

    #[test]
    fn v1_round_trip_preserves_gaps() {
        let m = sample();
        let bytes = encode_v1(&m);
        assert_eq!(sniff(&bytes), Some(FxmVersion::V1));
        let back = decode(&bytes, "t.fxm").unwrap();
        assert_series_eq(&back, &m);
    }

    #[test]
    fn v3_round_trip_preserves_gaps() {
        let m = sample();
        let bytes = encode_v3(&m);
        assert_eq!(sniff(&bytes), Some(FxmVersion::V3));
        let back = decode(&bytes, "t.fxm").unwrap();
        assert_eq!(back.gap_count(), 2);
        assert_series_eq(&back, &m);
        // The lazy open decodes chunk by chunk to the same answer.
        let frame = Frame::from_fxm_bytes(encode_v3(&m), "t.fxm").unwrap();
        assert_eq!(frame.kind(), FrameKind::FxmV3);
        assert_eq!(frame.disk_bytes(), bytes.len());
        assert_series_eq(&frame.decode().unwrap(), &m);
    }

    #[test]
    fn v3_buffer_reserves_only_the_fixed_parts() {
        // A flex-shaped week: 1-min zeros around one appliance run a
        // day, so the stream is ~1 bit per value.
        let values = (0..10_080)
            .map(|i| if i % 1_440 / 60 == 19 { 0.035 } else { 0.0 })
            .collect();
        let flex = MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_1, values).unwrap();
        let bytes = encode_v3(&flex);
        assert!(
            bytes.capacity() <= 2 * bytes.len(),
            "{} bytes reserved for {}",
            bytes.capacity(),
            bytes.len()
        );
        // An all-gap series has no stream: its fixed parts, uneven
        // last chunk included, are the whole file.
        let gaps = MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_1, vec![f64::NAN; 1_001])
            .unwrap();
        for chunk_len in [1, 7, 8, 100, 1_440] {
            let bytes = encode_chunked_v3(&gaps, chunk_len).unwrap();
            assert_eq!(bytes.capacity(), bytes.len(), "chunk_len {chunk_len}");
        }
        let bytes = encode(&flex);
        assert_eq!(bytes.capacity(), bytes.len(), "the FXM2 size is exact");
    }

    #[test]
    fn v3_round_trip_is_bit_exact_on_adversarial_values() {
        // Signed zeros, subnormals, huge magnitudes, long constant
        // runs and NaN-gap patterns — the XOR stream and gap bitmap
        // must reproduce every observed bit pattern exactly.
        let mut values = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1), // smallest subnormal
            -f64::from_bits(1),
            f64::MAX,
            -f64::MAX,
            1.0,
            1.0 + f64::EPSILON,
            f64::NAN,
            f64::NAN,
            1e-300,
            -1e300,
        ];
        values.extend(std::iter::repeat_n(0.25, 200)); // constant run
        values.extend((0..100).map(|i| {
            if i % 3 == 0 {
                f64::NAN
            } else {
                i as f64 * 1e-5
            }
        }));
        let m = MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_1, values).unwrap();
        for chunk_len in [1, 7, 96, 1000] {
            let v3 = encode_chunked_v3(&m, chunk_len).unwrap();
            let back = decode(&v3, "t.fxm").unwrap();
            assert_series_eq(&back, &m);
            // And the FXM3 decode is bit-exact to the FXM2 decode of
            // the same series — the codecs are interchangeable.
            let v2 = decode(&encode_chunked(&m, chunk_len).unwrap(), "t.fxm").unwrap();
            assert_series_eq(&back, &v2);
        }
    }

    #[test]
    fn v3_compresses_smooth_series_and_keeps_stats() {
        // A realistic quantized meter feed (1 Wh register steps that
        // plateau for minutes at a time — the regime the dataset
        // layer's `quantize_kwh` degradation produces): FXM3 must be
        // markedly smaller than FXM2's fixed 8 bytes per interval,
        // with identical chunk statistics behind the same 32-byte
        // header.
        let values: Vec<f64> = (0..2880)
            .map(|i| {
                if i % 97 == 0 {
                    f64::NAN
                } else {
                    let level = [3, 4, 4, 3, 7, 12, 6, 4][(i / 24) % 8] + (i * 31) % 13 / 11;
                    level as f64 * 0.001
                }
            })
            .collect();
        let m = MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_1, values).unwrap();
        let v2 = encode(&m);
        let v3 = encode_v3(&m);
        assert!(
            v3.len() * 2 < v2.len(),
            "expected ≥2× compression, got {} vs {}",
            v3.len(),
            v2.len()
        );
        let f2 = Frame::from_fxm_bytes(v2, "t.fxm").unwrap();
        let f3 = Frame::from_fxm_bytes(v3, "t.fxm").unwrap();
        assert_eq!(f2.chunks().len(), f3.chunks().len());
        for (a, b) in f2.chunks().iter().zip(f3.chunks()) {
            assert_eq!(a.stats, b.stats);
            assert!(b.payload_bytes() < a.payload_bytes());
        }
        assert_series_eq(&f2.decode().unwrap(), &f3.decode().unwrap());
    }

    #[test]
    fn encoding_is_deterministic_across_nan_payloads() {
        // A NaN produced by arithmetic may carry a different bit
        // pattern than f64::NAN; encoding canonicalises them.
        let arithmetic = f64::from_bits(0x7FF8_0000_0000_0001);
        assert!(arithmetic.is_nan());
        let a =
            MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_15, vec![1.0, f64::NAN]).unwrap();
        let b = MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_15, vec![1.0, arithmetic])
            .unwrap();
        assert_eq!(encode(&a), encode(&b));
        assert_eq!(encode_v1(&a), encode_v1(&b));
        assert_eq!(encode_v3(&a), encode_v3(&b));
    }

    #[test]
    fn zero_chunk_length_is_a_typed_error_not_a_clamp() {
        let m = sample();
        assert_eq!(encode_chunked(&m, 0), Err(FrameError::ZeroChunkLen));
        assert_eq!(encode_chunked_v1(&m, 0), Err(FrameError::ZeroChunkLen));
        assert_eq!(encode_chunked_v3(&m, 0), Err(FrameError::ZeroChunkLen));
        // 1 is the smallest valid chunk length and round-trips.
        let back = decode(&encode_chunked(&m, 1).unwrap(), "t.fxm").unwrap();
        assert_series_eq(&back, &m);
        let back = decode(&encode_chunked_v3(&m, 1).unwrap(), "t.fxm").unwrap();
        assert_series_eq(&back, &m);
    }

    #[test]
    fn v2_chunk_directory_carries_stats() {
        let values: Vec<f64> = (0..250)
            .map(|i| {
                if i % 10 == 3 {
                    f64::NAN
                } else {
                    i as f64 * 0.01
                }
            })
            .collect();
        let m = MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_1, values).unwrap();
        let frame = Frame::from_fxm_bytes(encode_chunked(&m, 96).unwrap(), "t.fxm").unwrap();
        assert_eq!(frame.kind(), FrameKind::FxmV2);
        assert_eq!(frame.chunks().len(), 3);
        let lens: Vec<usize> = frame.chunks().iter().map(|c| c.len).collect();
        assert_eq!(lens, vec![96, 96, 58]);
        for meta in frame.chunks() {
            let stats = meta.stats.expect("v2 chunks carry stats");
            let recomputed =
                ChunkStats::from_values(&m.values()[meta.first..meta.first + meta.len]);
            assert_eq!(stats.gaps, recomputed.gaps);
            assert_eq!(stats.min.to_bits(), recomputed.min.to_bits());
            assert_eq!(stats.max.to_bits(), recomputed.max.to_bits());
            assert_eq!(stats.sum.to_bits(), recomputed.sum.to_bits());
        }
        assert_series_eq(&frame.decode().unwrap(), &m);
    }

    #[test]
    fn v1_trailing_garbage_is_a_typed_error_naming_the_offset() {
        let raw = encode_v1(&sample());
        let clean_len = raw.len();
        let mut long = raw.to_vec();
        long.extend_from_slice(&[0xAB, 0xCD, 0xEF]);
        let err = decode(&long, "t.fxm").unwrap_err();
        assert_eq!(
            err,
            FrameError::TrailingBytes {
                file: "t.fxm".into(),
                offset: clean_len,
                trailing: 3,
            }
        );
        let msg = err.to_string();
        assert!(msg.contains(&clean_len.to_string()), "{msg}");
        assert!(msg.contains("trailing"), "{msg}");
    }

    #[test]
    fn v2_trailing_garbage_and_slack_bytes_are_rejected() {
        let raw = encode(&sample());
        // Trailing garbage after the end marker.
        let mut long = raw.to_vec();
        long.push(0);
        let err = decode(&long, "t.fxm").unwrap_err();
        assert!(err.to_string().contains("end marker"), "{err}");
        // Truncation anywhere in the tail.
        assert!(decode(&raw[..raw.len() - 1], "t.fxm").is_err());
        assert!(decode(&raw[..HEADER_LEN + 3], "t.fxm").is_err());
    }

    #[test]
    fn rejects_malformed_buffers() {
        let raw = encode(&sample());
        assert!(matches!(
            decode(&raw[..10], "t.fxm"),
            Err(FrameError::Codec { .. })
        ));
        let mut bad_magic = raw.to_vec();
        bad_magic[0] = b'X';
        let err = decode(&bad_magic, "t.fxm").unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        // Infinity in a v2 payload.
        let mut inf = raw.to_vec();
        let val_at = HEADER_LEN + V2_CHUNK_HEADER_LEN;
        inf[val_at..val_at + 8].copy_from_slice(&f64::INFINITY.to_bits().to_le_bytes());
        let frame = Frame::from_fxm_bytes(inf, "t.fxm").unwrap();
        let err = frame.decode().unwrap_err();
        assert!(err.to_string().contains("infinite"), "{err}");
        // Truncated v1 payload.
        let v1 = encode_v1(&sample());
        assert!(matches!(
            decode(&v1[..v1.len() - 4], "t.fxm"),
            Err(FrameError::Codec { .. })
        ));
        // Infinity in a v1 payload.
        let mut inf = v1.to_vec();
        let val_at = HEADER_LEN + 4;
        inf[val_at..val_at + 8].copy_from_slice(&f64::INFINITY.to_bits().to_le_bytes());
        let err = decode(&inf, "t.fxm").unwrap_err();
        assert!(err.to_string().contains("infinite"), "{err}");
    }

    #[test]
    fn v2_rejects_corrupt_stats_and_offsets() {
        let raw = encode(&sample());
        // Corrupt the gap count of chunk 0 (offset HEADER_LEN + 4).
        let mut bad = raw.clone();
        bad[HEADER_LEN + 4..HEADER_LEN + 8].copy_from_slice(&99u32.to_le_bytes());
        let err = Frame::from_fxm_bytes(bad, "t.fxm").unwrap_err();
        assert!(err.to_string().contains("gap count"), "{err}");
        // Corrupt the footer offset of chunk 0.
        let mut bad = raw.clone();
        let footer_at = raw.len() - V2_TAIL_LEN - 8;
        bad[footer_at..footer_at + 8].copy_from_slice(&7u64.to_le_bytes());
        let err = Frame::from_fxm_bytes(bad, "t.fxm").unwrap_err();
        assert!(err.to_string().contains("offset"), "{err}");
        // Non-finite statistics.
        let mut bad = raw;
        bad[HEADER_LEN + 8..HEADER_LEN + 16]
            .copy_from_slice(&f64::INFINITY.to_bits().to_le_bytes());
        let err = Frame::from_fxm_bytes(bad, "t.fxm").unwrap_err();
        assert!(err.to_string().contains("statistics"), "{err}");
    }

    #[test]
    fn huge_declared_lengths_fail_without_allocating() {
        // A v1 header claiming u32::MAX-interval chunks with no payload
        // must produce a codec error, not a multi-GiB allocation.
        let header = |magic: [u8; 4], len: u64, chunk_len: u32| {
            let mut buf = magic.to_vec();
            put_u64(&mut buf, 0);
            put_u32(&mut buf, 15);
            put_u64(&mut buf, len);
            put_u32(&mut buf, chunk_len);
            buf
        };
        let err = decode(&header(MAGIC_V1, u64::from(u32::MAX), u32::MAX), "t.fxm").unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // Same for a v2 header: the footer check trips first.
        let err = decode(&header(MAGIC_V2, u64::from(u32::MAX), 1), "t.fxm").unwrap_err();
        assert!(err.to_string().contains("footer"), "{err}");
        // The largest length the header check admits must not overflow
        // the footer-size arithmetic (chunks·8 + tail would wrap).
        let mut buf = header(MAGIC_V2, (usize::MAX / 8) as u64, 1);
        buf.extend_from_slice(&[0u8; 16]); // some plausible-looking tail bytes
        let err = decode(&buf, "t.fxm").unwrap_err();
        assert!(err.to_string().contains("footer"), "{err}");
    }

    #[test]
    fn every_strict_truncation_is_a_typed_error_never_a_panic() {
        // Exhaustive: cutting a valid buffer anywhere must surface as
        // an Err — the byte accounting leaves no prefix that decodes.
        for raw in [
            encode(&sample()),
            encode_v1(&sample()),
            encode_v3(&sample()),
        ] {
            for cut in 0..raw.len() {
                assert!(
                    decode(&raw[..cut], "t.fxm").is_err(),
                    "truncation to {cut} of {} bytes decoded",
                    raw.len()
                );
            }
        }
    }

    #[test]
    fn single_byte_corruption_never_panics() {
        // Flip every byte of a valid buffer in turn; each variant must
        // either decode or fail with a typed error — never abort.
        for raw in [
            encode(&sample()),
            encode_v1(&sample()),
            encode_v3(&sample()),
        ] {
            let raw = raw.to_vec();
            for i in 0..raw.len() {
                let mut bad = raw.clone();
                bad[i] ^= 0xFF;
                let _ = decode(&bad, "t.fxm");
            }
        }
    }

    #[test]
    fn chunk_index_out_of_range_is_a_typed_error() {
        let frame = Frame::from_fxm_bytes(encode(&sample()), "t.fxm").unwrap();
        let mut scratch = Vec::new();
        let err = frame.chunk_values(99, &mut scratch).unwrap_err();
        assert!(matches!(err, FrameError::Scan { .. }), "{err:?}");
        assert!(err.to_string().contains("99"), "{err}");
    }

    #[test]
    fn materialized_frames_chunk_virtually() {
        let m = sample();
        let frame = Frame::from_measured(m.clone(), 2, "mem").unwrap();
        assert_eq!(frame.kind(), FrameKind::Materialized);
        assert_eq!(frame.chunks().len(), 3);
        assert!(frame.chunks().iter().all(|c| c.stats.is_none()));
        let mut scratch = Vec::new();
        assert_eq!(
            frame.chunk_values(1, &mut scratch).unwrap(),
            &m.values()[2..4]
        );
        assert_series_eq(&frame.decode().unwrap(), &m);
        assert!(matches!(
            Frame::from_measured(m, 0, "mem"),
            Err(FrameError::ZeroChunkLen)
        ));
    }

    #[test]
    fn empty_series_round_trip_all_versions() {
        let m = MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_15, vec![]).unwrap();
        for bytes in [encode(&m), encode_v1(&m), encode_v3(&m)] {
            let frame = Frame::from_fxm_bytes(bytes, "t.fxm").unwrap();
            assert_eq!(frame.chunks().len(), 0);
            assert_eq!(frame.decode().unwrap().len(), 0);
        }
    }

    #[test]
    fn v3_rejects_corrupt_bitmaps_streams_and_offsets() {
        let values: Vec<f64> = (0..200)
            .map(|i| {
                if i % 7 == 0 {
                    f64::NAN
                } else {
                    0.1 + i as f64 * 0.003
                }
            })
            .collect();
        let m = MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_1, values).unwrap();
        let raw = encode_chunked_v3(&m, 96).unwrap();
        let bitmap_at = HEADER_LEN + V2_CHUNK_HEADER_LEN;

        // Flip a bitmap bit: popcount no longer matches the recorded
        // gap count — a typed error naming the chunk offset.
        let mut bad = raw.clone();
        bad[bitmap_at] ^= 0b10; // interval 1 is observed in chunk 0
        let err = decode(&bad, "t.fxm").unwrap_err();
        assert!(err.to_string().contains("gap bitmap"), "{err}");
        assert!(err.to_string().contains(&HEADER_LEN.to_string()), "{err}");

        // Corrupt the chunk-0 footer offset: the contiguity walk trips.
        let mut bad = raw.clone();
        let chunks = Frame::from_fxm_bytes(raw.clone(), "t.fxm")
            .unwrap()
            .chunks()
            .len();
        let footer_at = raw.len() - V2_TAIL_LEN - chunks * 8;
        bad[footer_at..footer_at + 8].copy_from_slice(&7u64.to_le_bytes());
        let err = Frame::from_fxm_bytes(bad, "t.fxm").unwrap_err();
        assert!(err.to_string().contains("offset"), "{err}");

        // Corrupt the recorded gap count (keeping it <= len): the
        // open-time stats either disagree with min/max or the decode
        // disagrees with the bitmap — an error either way.
        let mut bad = raw.clone();
        bad[HEADER_LEN + 4..HEADER_LEN + 8].copy_from_slice(&2u32.to_le_bytes());
        assert!(decode(&bad, "t.fxm").is_err());

        // A stats-only open touches no payload even on FXM3: corrupt
        // every bitmap+stream byte of chunk 0 and the open still
        // succeeds (directory and stats parse fine); only the decode
        // of that chunk fails.
        let mut bad = raw.clone();
        let frame = Frame::from_fxm_bytes(raw.clone(), "t.fxm").unwrap();
        let chunk1_off = HEADER_LEN + V2_CHUNK_HEADER_LEN + frame.chunks()[0].payload_bytes();
        for b in &mut bad[bitmap_at..chunk1_off] {
            *b = 0xFF;
        }
        let frame = Frame::from_fxm_bytes(bad, "t.fxm").unwrap();
        let mut scratch = Vec::new();
        assert!(frame.chunk_values(0, &mut scratch).is_err());
    }

    /// Deterministic xorshift64* draws for the generated corpus buffers.
    struct Draws(u64);

    impl Draws {
        fn word(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn unit(&mut self) -> f64 {
            (self.word() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// The `FXM3` corpus the decoder's corruption tests run over: every
    /// committed `ds_household_1min` file (consumer, truth and flex
    /// kinds) plus generated buffers that reach what `sample()` cannot —
    /// window reuse, 58–64-bit windows, long repeat runs, many chunks,
    /// bitmap padding, an all-gap chunk, a repeat run ending exactly on
    /// a chunk boundary and streams shorter than 16 bytes.
    fn v3_corpus() -> Vec<(String, Vec<u8>)> {
        let dir = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../datasets/ds_household_1min"
        );
        let mut corpus = Vec::new();
        for kind in ["consumer", "truth", "flex"] {
            for c in 0..3 {
                let name = format!("{kind}_{c}.fxm");
                let raw = std::fs::read(format!("{dir}/{name}")).unwrap();
                corpus.push((name, raw));
            }
        }
        let mut rng = Draws(0x9e37_79b9_7f4a_7c15);
        let mut push = |name: &str, values: Vec<f64>, chunk_len: usize| {
            let m = MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_1, values).unwrap();
            let raw = encode_chunked_v3(&m, chunk_len).unwrap();
            corpus.push((name.to_string(), raw));
        };
        // Unquantized noise: nearly every XOR needs a 58–64-bit window.
        let noise = (0..400).map(|_| 0.3 + rng.unit()).collect();
        push("noise", noise, 45);
        // 0.001-quantized 1-min readings with ~1 % gaps.
        let metered = (0..1440)
            .map(|i| {
                if rng.unit() < 0.01 {
                    f64::NAN
                } else {
                    let kwh = 0.2 + 0.15 * (i as f64 / 90.0).sin() + 0.05 * rng.unit();
                    (kwh * 1000.0).round() / 1000.0
                }
            })
            .collect();
        push("metered", metered, 96);
        // ~99 % repeats: long runs of one level with rare steps.
        let mut level = 0.5;
        let repeats = (0..2000)
            .map(|_| {
                if rng.unit() < 0.01 {
                    level = (rng.unit() * 10.0).round() / 10.0;
                }
                level
            })
            .collect();
        push("repeats", repeats, 96);
        // Chunk 0: one step, then a repeat run ending exactly on the
        // chunk boundary, in a 14-byte stream. Chunk 1: all gaps.
        // Chunk 2: a short stream with gaps inside a repeat run.
        let mut edges = vec![0.25];
        edges.extend(std::iter::repeat_n(0.5, 31));
        edges.extend(std::iter::repeat_n(f64::NAN, 32));
        edges.extend([0.125, 0.125, f64::NAN, 0.125, f64::NAN, 0.375, 0.375]);
        push("edges", edges, 32);
        // Repeat runs of 38–64 and 116–124 values at varying bit
        // offsets, alternating between a narrow XOR window and a
        // 64-bit-wide new one (a sign flip): runs that leave a window
        // too few bits for the next value, and runs longer than one
        // window holds.
        let mut runs = Vec::new();
        let mut v = 0.5f64;
        for _ in 0..8 {
            for len in (38..=64).chain(116..=124) {
                let narrow = ((rng.unit() * 1024.0) as u64 | 1) << 20;
                v = f64::from_bits(v.to_bits() ^ narrow);
                runs.extend(std::iter::repeat_n(v, len));
                v = -v.signum() * (0.3 + rng.unit());
                runs.extend(std::iter::repeat_n(v, len));
            }
        }
        push("runs", runs, 1024);
        corpus
    }

    /// The chunk directory of a corpus buffer, checked to decode whole.
    fn corpus_chunks(name: &str, raw: &[u8]) -> Vec<ChunkMeta> {
        let (header, version) = decode_header(raw, name).unwrap();
        assert_eq!(version, FxmVersion::V3, "{name}");
        decode(raw, name).unwrap();
        parse_v3_chunks(raw, &header, name).unwrap()
    }

    #[test]
    fn v3_corpus_reaches_the_stream_edge_cases() {
        let (mut all_gap, mut short_stream, mut chunks) = (0, 0, 0);
        for (name, raw) in v3_corpus() {
            for meta in corpus_chunks(&name, &raw) {
                chunks += 1;
                let stream_len = meta.payload_bytes - meta.len.div_ceil(8);
                if meta.stats.is_some_and(|s| s.gaps as usize == meta.len) {
                    all_gap += 1;
                } else if stream_len < 16 {
                    short_stream += 1;
                }
            }
        }
        assert!(all_gap >= 1 && short_stream >= 1 && chunks > 100);
    }

    #[test]
    fn v3_corpus_every_strict_truncation_errs() {
        for (name, raw) in v3_corpus() {
            for cut in 0..raw.len() {
                assert!(decode(&raw[..cut], &name).is_err(), "{name} cut to {cut}");
            }
            // Cutting a chunk's payload short (bitmap or stream) must
            // fail that chunk's decode, wherever the cut lands.
            let mut out = Vec::new();
            for meta in corpus_chunks(&name, &raw) {
                for cut in 0..meta.payload_bytes {
                    let short = ChunkMeta {
                        payload_bytes: cut,
                        ..meta
                    };
                    assert!(
                        read_v3_payload(&raw, &short, &name, &mut out).is_err(),
                        "{name} chunk at {} cut to {cut} payload bytes",
                        meta.offset
                    );
                }
            }
        }
    }
    /// Decode `meta` with both the decoder and the bit-reader oracle and
    /// demand the same outcome: the same error, or bit-identical values.
    fn assert_agrees_with_oracle(raw: &[u8], meta: &ChunkMeta, what: &str) {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let new = read_v3_payload(raw, meta, "t.fxm", &mut got);
        let old = v3_oracle::read_v3_payload(raw, meta, "t.fxm", &mut want);
        match (new, old) {
            (Ok(()), Ok(())) => {
                let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{what}");
            }
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{what}"),
            (a, b) => panic!("{what}: decoder {a:?} vs oracle {b:?}"),
        }
    }

    #[test]
    fn v3_decoder_agrees_with_the_bit_reader_oracle_under_corruption() {
        for (name, raw) in v3_corpus() {
            for meta in corpus_chunks(&name, &raw) {
                let at = meta.offset;
                assert_agrees_with_oracle(&raw, &meta, &format!("{name} chunk at {at}"));
                // Every truncation of the payload (bitmap or stream).
                for cut in 0..meta.payload_bytes {
                    let short = ChunkMeta {
                        payload_bytes: cut,
                        ..meta
                    };
                    let what = format!("{name} chunk at {at} cut to {cut}");
                    assert_agrees_with_oracle(&raw, &short, &what);
                }
                // Every single-byte flip of the payload, both whole
                // (`^ 0xFF`) and one bit of it.
                let payload =
                    at + V2_CHUNK_HEADER_LEN..at + V2_CHUNK_HEADER_LEN + meta.payload_bytes;
                for i in payload {
                    for mask in [0xFF, 1 << (i % 8)] {
                        let mut bad = raw.clone();
                        bad[i] ^= mask;
                        let what = format!("{name} chunk at {at} byte {i} ^ {mask:#04x}");
                        assert_agrees_with_oracle(&bad, &meta, &what);
                    }
                }
                // A recorded gap count that disagrees with the bitmap.
                let Some(stats) = meta.stats else { continue };
                for gaps in [stats.gaps.wrapping_sub(1), stats.gaps + 1] {
                    let lied = ChunkMeta {
                        stats: Some(ChunkStats { gaps, ..stats }),
                        ..meta
                    };
                    assert_agrees_with_oracle(
                        &raw,
                        &lied,
                        &format!("{name} chunk at {at} gaps {gaps}"),
                    );
                }
            }
        }
    }

    /// Write `m` with the `FXM3` writer and its byte-at-a-time oracle
    /// and demand identical buffers, whose statistics headers hold
    /// exactly what [`ChunkStats::from_values`] gives for each chunk.
    fn assert_writer_agrees_with_oracle(m: &MeasuredSeries, chunk_len: usize, what: &str) {
        let what = format!("{what} at chunk length {chunk_len}");
        let got = encode_chunked_v3(m, chunk_len).unwrap();
        assert!(got == v3_oracle::encode_v3(m, chunk_len), "{what}");
        let (header, _) = decode_header(&got, &what).unwrap();
        let metas = parse_v3_chunks(&got, &header, &what).unwrap();
        assert_eq!(metas.len(), m.len().div_ceil(chunk_len), "{what}");
        let bits = |s: ChunkStats| {
            [
                s.gaps.into(),
                s.min.to_bits(),
                s.max.to_bits(),
                s.sum.to_bits(),
            ]
        };
        for (meta, chunk) in metas.iter().zip(m.values().chunks(chunk_len)) {
            let want = ChunkStats::from_values(chunk);
            assert_eq!(bits(meta.stats.unwrap()), bits(want), "{what}");
        }
    }

    /// A seeded sweep over what the `FXM3` writer branches on: gap runs
    /// in every NaN payload, long runs with and without gaps, signed
    /// zeros and subnormals, constant runs, and XORs placed against the
    /// reuse window — exactly on both of its bounds, inside it, one bit
    /// past either bound — plus XORs with 63 and 0 leading zeros and
    /// ones 64 bits wide.
    fn writer_sweep() -> MeasuredSeries {
        let mut rng = Draws(0x0123_4567_89ab_cdef);
        let nans = [
            GAP_BITS,
            0x7FF8_0000_0000_0001,
            0xFFF8_0000_0000_0000,
            0x7FF0_0000_0000_0001,
            u64::MAX,
        ];
        // A gap run and a value run, each over two 1 440-interval
        // chunks long, so every chunk length below has all-gap and
        // gap-free chunks.
        let mut values: Vec<f64> = nans
            .iter()
            .cycle()
            .take(2 * 1440 + 13)
            .map(|&b| f64::from_bits(b))
            .collect();
        values.extend((0..2 * 1440 + 5).map(|_| 0.2 + rng.unit()));
        values.extend([
            0.0,
            -0.0,
            0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            f64::MIN_POSITIVE,
            -0.0,
            f64::MAX,
            -f64::MAX,
        ]);
        for len in 1..=20 {
            values.extend(std::iter::repeat_n(len as f64 * 0.001, len));
            if len % 3 == 0 {
                values.push(f64::from_bits(nans[len % nans.len()]));
            }
        }
        let mut v = 0.5f64.to_bits();
        let mut step = |values: &mut Vec<f64>, xor: u64| {
            v ^= xor;
            // Keep ±∞ (rejected by `MeasuredSeries`) out of the series.
            if f64::from_bits(v).is_infinite() {
                v ^= 1 << 52;
            }
            values.push(f64::from_bits(v));
        };
        for _ in 0..400 {
            let lead = (rng.unit() * 64.0) as u32;
            let len = 1 + (rng.unit() * f64::from(64 - lead)) as u32;
            let (top, bottom) = (1u64 << (63 - lead), 1u64 << (64 - lead - len));
            let inner = rng.word() & (top - 1) & !(bottom - 1);
            step(&mut values, top | bottom | inner); // a new window
            step(&mut values, top | bottom); // reuse: both bounds exact
            step(&mut values, top); // reuse: the upper bound exact
            step(&mut values, bottom); // reuse: the lower bound exact
            step(&mut values, 0); // a repeat
            if lead > 0 {
                step(&mut values, top << 1 | bottom); // one bit above
            }
            step(&mut values, top | bottom);
            if bottom > 1 {
                step(&mut values, top | bottom >> 1); // one bit below
            }
            step(&mut values, 1); // 63 leading zeros
            step(&mut values, 1 << 63); // no leading zeros
            step(&mut values, 1 << 63 | 1); // 64 meaningful bits
            if rng.unit() < 0.2 {
                values.push(f64::from_bits(nans[values.len() % nans.len()]));
            }
        }
        MeasuredSeries::new(ts("2013-03-18"), Resolution::MIN_1, values).unwrap()
    }

    #[test]
    fn v3_writer_agrees_with_the_byte_at_a_time_oracle() {
        for (name, raw) in v3_corpus() {
            let m = decode(&raw, &name).unwrap();
            let (header, _) = decode_header(&raw, &name).unwrap();
            assert_writer_agrees_with_oracle(&m, header.chunk_len, &name);
            // Re-encoding a decoded corpus buffer rewrites it exactly,
            // committed files included.
            assert!(
                encode_chunked_v3(&m, header.chunk_len).unwrap() == raw,
                "{name}"
            );
        }
        let sweep = writer_sweep();
        for chunk_len in [1, 7, 8, 9, 24, 96, 1440] {
            assert_writer_agrees_with_oracle(&sweep, chunk_len, "sweep");
        }
    }
}

/// The `FXM3` codec's previous implementations, kept as differential
/// oracles for the current ones:
/// - the byte-at-a-time writer (a statistics pass, a bitmap pass, then
///   a [`BitWriter`] that moves at most 8 bits per step into a chunk's
///   own `Vec`) that the one-pass word-wide [`put_v3_chunk`] replaced:
///   both must write byte-identical chunk frames;
/// - the bit-reader chunk decoder the position-based
///   [`read_v3_payload`] replaced: on any payload both must agree on
///   success vs failure, and successful decodes must be bit-identical.
#[cfg(test)]
mod v3_oracle {
    use super::*;

    /// Encode `series` as `FXM3` the byte-at-a-time way.
    pub(super) fn encode_v3(series: &MeasuredSeries, chunk_len: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_V3);
        put_u64(&mut buf, series.start().as_minutes() as u64);
        put_u32(&mut buf, series.resolution().minutes() as u32);
        put_u64(&mut buf, series.len() as u64);
        put_u32(&mut buf, chunk_len as u32);
        let mut offsets = Vec::new();
        for chunk in series.values().chunks(chunk_len) {
            offsets.push(buf.len() as u64);
            put_u32(&mut buf, chunk.len() as u32);
            let stats = ChunkStats::from_values(chunk);
            put_u32(&mut buf, stats.gaps);
            put_value(&mut buf, stats.min);
            put_value(&mut buf, stats.max);
            put_value(&mut buf, stats.sum);
            put_v3_payload(&mut buf, chunk);
        }
        let footer = buf.len() as u64;
        for o in offsets {
            put_u64(&mut buf, o);
        }
        put_u64(&mut buf, footer);
        buf.extend_from_slice(&END_MAGIC_V3);
        buf
    }

    /// MSB-first bit accumulator for the `FXM3` compressed stream. The
    /// final byte is zero-padded on flush.
    struct BitWriter {
        out: Vec<u8>,
        cur: u8,
        used: u32,
    }

    impl BitWriter {
        fn new() -> BitWriter {
            BitWriter {
                out: Vec::new(),
                cur: 0,
                used: 0,
            }
        }

        /// Append the low `n` bits of `value`, MSB-first (`n <= 64`).
        fn push_bits(&mut self, value: u64, n: u32) {
            let mut left = n;
            while left > 0 {
                let take = left.min(8 - self.used);
                // `take` is 1..=8 and `left - take` is 0..=63; the byte
                // shift goes through u16 because `take` can be exactly 8
                // (the accumulator is empty then, so the high bits are 0).
                let chunk = ((value >> (left - take)) & ((1u64 << take) - 1)) as u8;
                self.cur = ((u16::from(self.cur) << take) as u8) | chunk;
                self.used += take;
                left -= take;
                if self.used == 8 {
                    self.out.push(self.cur);
                    self.cur = 0;
                    self.used = 0;
                }
            }
        }

        fn push_bit(&mut self, bit: u64) {
            self.push_bits(bit, 1);
        }

        /// Flush, zero-padding the final partial byte.
        fn finish(mut self) -> Vec<u8> {
            if self.used > 0 {
                self.out.push(self.cur << (8 - self.used));
            }
            self.out
        }
    }

    /// Append one chunk's `FXM3` gap bitmap + compressed stream to `buf`.
    pub(super) fn put_v3_payload(buf: &mut Vec<u8>, chunk: &[f64]) {
        // Gap bitmap, LSB-first within each byte; padding bits stay zero.
        for group in chunk.chunks(8) {
            let mut byte = 0u8;
            for (bit, v) in group.iter().enumerate() {
                if v.is_nan() {
                    byte |= 1 << bit;
                }
            }
            buf.push(byte);
        }
        let mut w = BitWriter::new();
        let mut prev: Option<u64> = None;
        // The window (leading zeros, meaningful length) of the last `11`
        // control block; `10` re-uses it when the new XOR fits inside.
        let mut window: Option<(u32, u32)> = None;
        for &v in chunk.iter().filter(|v| !v.is_nan()) {
            let bits = v.to_bits();
            match prev {
                None => w.push_bits(bits, 64),
                Some(p) => {
                    let xor = p ^ bits;
                    if xor == 0 {
                        w.push_bit(0);
                    } else {
                        w.push_bit(1);
                        let lead = xor.leading_zeros();
                        let trail = xor.trailing_zeros();
                        let reused = match window {
                            Some((wl, wm)) if lead >= wl && trail >= 64 - wl - wm => {
                                w.push_bit(0);
                                w.push_bits(xor >> (64 - wl - wm), wm);
                                true
                            }
                            _ => false,
                        };
                        if !reused {
                            let meaningful = 64 - lead - trail;
                            w.push_bit(1);
                            w.push_bits(u64::from(lead), 6);
                            w.push_bits(u64::from(meaningful - 1), 6);
                            w.push_bits(xor >> trail, meaningful);
                            window = Some((lead, meaningful));
                        }
                    }
                }
            }
            prev = Some(bits);
        }
        buf.extend_from_slice(&w.finish());
    }

    /// MSB-first bit cursor over a compressed stream, buffered through a
    /// 64-bit accumulator. Every refill is bounds-checked; `None` means
    /// the stream ended early, which callers surface as a typed codec
    /// error.
    struct BitReader<'a> {
        buf: &'a [u8],
        /// Next byte to refill the accumulator from.
        next: usize,
        /// MSB-aligned accumulator: the top `have` bits are valid.
        acc: u64,
        /// Valid bit count in `acc`.
        have: u32,
        /// Total bits consumed (drives the padding check).
        used: usize,
    }

    impl<'a> BitReader<'a> {
        fn new(buf: &'a [u8]) -> BitReader<'a> {
            BitReader {
                buf,
                next: 0,
                acc: 0,
                have: 0,
                used: 0,
            }
        }

        /// Read `n` bits (`1 <= n <= 64`), MSB-first, as the low bits of a
        /// u64.
        fn read_bits(&mut self, n: u32) -> Option<u64> {
            if n > 57 {
                // Two halves keep `read_small`'s refill shifts in range.
                let hi = self.read_small(n - 32)?;
                let lo = self.read_small(32)?;
                return Some((hi << 32) | lo);
            }
            self.read_small(n)
        }

        /// Read `n <= 57` bits out of the accumulator, refilling in bulk
        /// where 8 source bytes remain and a byte at a time near the end
        /// of the stream. A bulk refill tops `have` up to at least 56, so
        /// the byte loop only runs near the stream's tail, where
        /// `have < n <= 57` keeps its `56 - have` shift in range.
        #[inline]
        fn read_small(&mut self, n: u32) -> Option<u64> {
            if self.have < n {
                self.refill_bulk();
                while self.have < n {
                    let byte = *self.buf.get(self.next)?;
                    self.next += 1;
                    self.acc |= u64::from(byte) << (56 - self.have);
                    self.have += 8;
                }
            }
            let out = self.acc >> (64 - n);
            self.acc <<= n;
            self.have -= n;
            self.used += n as usize;
            Some(out)
        }

        /// Buffer as many stream bits as fit (at least 57 unless the
        /// stream itself ends sooner), so callers can branch on `peek` /
        /// `consume` without per-read refill checks. Afterwards either
        /// `have >= 57` or every remaining stream byte is in `acc`.
        #[inline]
        fn ensure(&mut self) {
            if self.have < 57 {
                self.refill_bulk();
                while self.have <= 56 {
                    let Some(&byte) = self.buf.get(self.next) else {
                        break;
                    };
                    self.next += 1;
                    self.acc |= u64::from(byte) << (56 - self.have);
                    self.have += 8;
                }
            }
        }

        /// The top `n` buffered bits (callers check `have >= n` first).
        #[inline]
        fn peek(&self, n: u32) -> u64 {
            self.acc >> (64 - n)
        }

        /// Drop `n` buffered bits (callers check `have >= n` first;
        /// `n < 64`).
        #[inline]
        fn consume(&mut self, n: u32) {
            self.acc <<= n;
            self.have -= n;
            self.used += n as usize;
        }

        /// Top up the accumulator from one 8-byte load, committing only
        /// the whole bytes that fit. Bits of `acc` below the committed
        /// `have` region receive a *prefix of not-yet-committed stream
        /// bytes*; the next refill ORs those same bytes again
        /// (idempotent), and `peek`/`consume` only ever look at the top
        /// `have` bits, so no masking is needed. A no-op when fewer than
        /// 8 bytes remain (the caller's byte loop finishes up, restoring
        /// the zero-low-bits invariant it relies on). Called with
        /// `have <= 56`.
        #[inline]
        fn refill_bulk(&mut self) {
            let Some(&chunk) = self.buf.get(self.next..).and_then(|s| s.first_chunk::<8>()) else {
                return;
            };
            self.acc |= u64::from_be_bytes(chunk) >> self.have;
            let bytes = (63 - self.have) / 8;
            self.next += bytes as usize;
            self.have += bytes * 8;
        }

        /// Bits left over in the final partial byte, which must be zero
        /// padding: `false` means a non-zero pad bit (corruption).
        fn padding_is_zero(&self) -> bool {
            let pad = self.buf.len() * 8 - self.used;
            if pad == 0 {
                return true;
            }
            match self.buf.last() {
                Some(last) => pad < 8 && last & ((1u8 << pad) - 1) == 0,
                None => false,
            }
        }
    }

    /// Decode one `FXM3` chunk payload (gap bitmap + compressed stream)
    /// into `out` (cleared first). Accounting is exact: the stream must
    /// end on the final value with only zero padding bits left, the bitmap
    /// must agree with the recorded gap count, and decoded values must be
    /// finite non-NaN — anything else is a typed error naming the chunk's
    /// byte offset.
    pub(super) fn read_v3_payload(
        buf: &[u8],
        meta: &ChunkMeta,
        file: &str,
        out: &mut Vec<f64>,
    ) -> Result<(), FrameError> {
        let chunk_err = |what: &str| {
            codec_err(
                file,
                format!("chunk at byte offset {}: {what}", meta.offset),
            )
        };
        out.clear();
        out.reserve(meta.len);
        let bitmap_len = meta.len.div_ceil(8);
        let bitmap_at = meta.offset + V2_CHUNK_HEADER_LEN;
        let stream_at = bitmap_at + bitmap_len;
        let stream_end = bitmap_at + meta.payload_bytes;
        // The extent was validated against the footer at open; a miss here
        // means the directory itself is inconsistent.
        let (Some(bitmap), Some(stream)) = (
            buf.get(bitmap_at..stream_at),
            buf.get(stream_at..stream_end),
        ) else {
            return Err(chunk_err("payload extends past the buffer"));
        };
        let gaps: usize = bitmap.iter().map(|b| b.count_ones() as usize).sum();
        let recorded = meta.stats.map_or(0, |s| s.gaps as usize);
        if gaps != recorded {
            return Err(chunk_err(
                "gap bitmap disagrees with the recorded gap count",
            ));
        }
        // Padding bits past `len` in the final bitmap byte must be zero —
        // they are not intervals, so any set bit is corruption (and would
        // otherwise double-count in the popcount above).
        if !meta.len.is_multiple_of(8) {
            let last = bitmap.last().copied().unwrap_or(0);
            if last & !((1u16 << (meta.len % 8)) - 1) as u8 != 0 {
                return Err(chunk_err("gap bitmap sets bits past the chunk length"));
            }
        }
        let mut r = BitReader::new(stream);
        // Current reuse window; `w_ml == 0` means none defined yet (a
        // real window always has `meaningful >= 1`).
        let mut w_lead = 0u32;
        let mut w_ml = 0u32;
        // An all-ones exponent is ±∞ (zero mantissa) or a NaN outside
        // the gap bitmap — corruption either way, told apart cold.
        const EXP_ALL: u64 = 0x7ff0_0000_0000_0000;
        let non_finite = |bits: u64| {
            chunk_err(if bits & !(EXP_ALL | (1 << 63)) == 0 {
                "infinite value in chunk payload"
            } else {
                "NaN payload outside the gap bitmap"
            })
        };
        // Prologue: leading gaps, then the first observed value (64 raw
        // bits) — so the main loop carries `prev` as a plain u64.
        let gap_at = |i: usize| bitmap.get(i / 8).is_some_and(|b| b >> (i % 8) & 1 == 1);
        let mut i = 0;
        while i < meta.len && gap_at(i) {
            out.push(f64::from_bits(GAP_BITS));
            i += 1;
        }
        let mut p = 0u64;
        if i < meta.len {
            p = r
                .read_bits(64)
                .ok_or_else(|| chunk_err("compressed stream ends inside a value"))?;
            if p & EXP_ALL == EXP_ALL {
                return Err(non_finite(p));
            }
            out.push(f64::from_bits(p));
            i += 1;
        }
        while i < meta.len {
            // One cached bitmap byte per 8 values keeps the per-value gap
            // test a register shift.
            let bm = bitmap.get(i / 8).copied().unwrap_or(0);
            let hi = (i / 8 * 8 + 8).min(meta.len);
            let mut bit = (i % 8) as u32;
            while i < hi {
                if bm >> bit & 1 == 1 {
                    out.push(f64::from_bits(GAP_BITS));
                    i += 1;
                    bit += 1;
                    continue;
                }
                // Branch on buffered bits directly: one `ensure` per
                // value replaces a refill-checked read per field, and the
                // payload comes straight out of the accumulator when it
                // is already buffered.
                r.ensure();
                if r.have == 0 {
                    return Err(chunk_err("compressed stream ends inside a value"));
                }
                if r.peek(1) == 0 {
                    r.consume(1);
                } else {
                    if r.have < 2 {
                        return Err(chunk_err("compressed stream ends inside a value"));
                    }
                    let (lead, meaningful);
                    if r.peek(2) & 1 == 0 {
                        if w_ml == 0 {
                            return Err(chunk_err(
                                "compressed stream re-uses a window before defining one",
                            ));
                        }
                        lead = w_lead;
                        meaningful = w_ml;
                        r.consume(2);
                    } else {
                        // Both 6-bit window fields ride the control bits
                        // in one 14-bit consume: lead in the high half,
                        // meaningful−1 in the low half (the stream is
                        // MSB-first).
                        let lead_ml = if r.have >= 14 {
                            let f = r.peek(14) & 0xfff;
                            r.consume(14);
                            f
                        } else {
                            r.consume(2);
                            r.read_bits(12).ok_or_else(|| {
                                chunk_err("compressed stream ends inside a window")
                            })?
                        };
                        lead = (lead_ml >> 6) as u32;
                        meaningful = (lead_ml & 0x3f) as u32 + 1;
                        if lead + meaningful > 64 {
                            return Err(chunk_err("compressed window overruns 64 bits"));
                        }
                        w_lead = lead;
                        w_ml = meaningful;
                        r.ensure();
                    }
                    // Fast path: the whole payload is buffered (and
                    // `consume`'s shift stays in range). `ensure` above
                    // keeps this the common case; the fallback only runs
                    // near the stream's tail or for 58–64 meaningful
                    // bits.
                    let payload = if meaningful < 64 && r.have >= meaningful {
                        let v = r.peek(meaningful);
                        r.consume(meaningful);
                        v
                    } else {
                        r.read_bits(meaningful)
                            .ok_or_else(|| chunk_err("compressed stream ends inside a value"))?
                    };
                    p ^= payload << (64 - lead - meaningful);
                }
                if p & EXP_ALL == EXP_ALL {
                    return Err(non_finite(p));
                }
                out.push(f64::from_bits(p));
                i += 1;
                bit += 1;
            }
        }
        // Exact accounting: the stream must hold exactly the bits decoded,
        // rounded up to whole bytes, with zero padding — slack bytes or
        // set padding bits mean the frame lies about its contents.
        if stream.len() != r.used.div_ceil(8) || !r.padding_is_zero() {
            return Err(chunk_err("slack bytes after the compressed stream"));
        }
        Ok(())
    }
}
