//! The on-disk frame format: fixed header, CRC-checked frames, block
//! compression, and the seekable index footer.
//!
//! ```text
//! file   := header frame* [index trailer]
//! header := magic "AFPS" | format_version u16 LE | flags u16 LE
//!           | record_version u32 LE | reserved u32 LE        (16 bytes)
//! frame  := tag u8 | body_len u32 LE | body | crc32 u32 LE
//! ```
//!
//! The CRC covers the tag byte plus the body, so a frame whose tag byte is
//! torn fails the checksum just like a torn body. Three tags are defined:
//!
//! * `TAG_RECORD` (1): one record — `key.hi u64 LE | key.lo u64 LE |
//!   payload`. Written by the append path, one frame per record, so a
//!   crash loses at most the frame being written.
//! * `TAG_BLOCK` (2): a compressed batch — `codec u8 | count uvarint |
//!   raw_len uvarint | codec-encoded data`. The uncompressed data is a
//!   concatenation of `key.hi u64 LE | key.lo u64 LE | payload_len
//!   uvarint | payload` entries. Codec 0 is raw (stored), codec 1 is the
//!   built-in LZ codec; further ids are reserved for external codecs such
//!   as zstd.
//! * `TAG_INDEX` (15): the footer index — `record_count uvarint |
//!   frame_count uvarint`, then per data frame `offset_delta uvarint |
//!   records uvarint`. Only present in sealed files.
//!
//! A sealed file ends with the index frame followed by an 8-byte trailer:
//! `index_frame_len u32 LE | "SFPA"`. Readers locate the index by reading
//! the trailer from EOF and seeking back, so opening a sealed store never
//! scans the data frames. Unsealed (append-mode) files simply end after
//! the last record frame; readers scan those front to back and stop at the
//! first torn or corrupt frame.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use afp_runtime::Key128;

use crate::bytes::{put_uvarint, ByteReader};
use crate::crc::Crc32;
use crate::lz;
use crate::stream::FrameStream;

/// File magic, first four bytes of every store file.
pub const MAGIC: [u8; 4] = *b"AFPS";
/// Reversed magic closing the 8-byte trailer of a sealed file.
pub const TRAILER_MAGIC: [u8; 4] = *b"SFPA";
/// Current container format version (frame layout, not record payloads).
pub const FORMAT_VERSION: u16 = 1;
/// Header flag bit: file is sealed (ends with index frame + trailer).
pub const FLAG_SEALED: u16 = 1;
/// Fixed header length in bytes.
pub const HEADER_LEN: u64 = 16;
/// Per-frame overhead: tag byte, body length word, CRC word.
pub const FRAME_OVERHEAD: usize = 9;
/// Trailer length of a sealed file.
pub const TRAILER_LEN: u64 = 8;

/// Frame tag: a single record.
pub const TAG_RECORD: u8 = 1;
/// Frame tag: a compressed record block.
pub const TAG_BLOCK: u8 = 2;
/// Frame tag: the index footer of a sealed file.
pub const TAG_INDEX: u8 = 0x0F;

/// Block codec id: stored uncompressed.
pub const CODEC_RAW: u8 = 0;
/// Block codec id: built-in LZ codec ([`crate::lz`]).
pub const CODEC_LZ: u8 = 1;

/// Records per block frame when batch-writing.
pub const BLOCK_RECORDS: usize = 256;

/// Parsed store header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Container format version ([`FORMAT_VERSION`]).
    pub format_version: u16,
    /// Flag bits; see [`FLAG_SEALED`].
    pub flags: u16,
    /// Version of the record payload encoding, owned by the record type.
    pub record_version: u32,
}

impl Header {
    /// Whether the sealed flag is set.
    pub fn sealed(&self) -> bool {
        self.flags & FLAG_SEALED != 0
    }

    /// Serialize to the fixed 16-byte layout.
    pub fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[0..4].copy_from_slice(&MAGIC);
        out[4..6].copy_from_slice(&self.format_version.to_le_bytes());
        out[6..8].copy_from_slice(&self.flags.to_le_bytes());
        out[8..12].copy_from_slice(&self.record_version.to_le_bytes());
        out
    }

    /// Parse a 16-byte header; `None` if the magic or length is wrong.
    pub fn parse(bytes: &[u8]) -> Option<Header> {
        let mut r = ByteReader::new(bytes);
        if r.bytes(4)? != MAGIC {
            return None;
        }
        let format_version = r.u16_le()?;
        let flags = r.u16_le()?;
        let record_version = r.u32_le()?;
        let _reserved = r.u32_le()?;
        Some(Header {
            format_version,
            flags,
            record_version,
        })
    }
}

/// One decoded record: key plus its payload bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RawRecord {
    /// Content-address of the record.
    pub key: Key128,
    /// Record payload (the [`crate::BinRecord`] encoding).
    pub payload: Vec<u8>,
}

/// Append one framed record (`TAG_RECORD`) to `out`.
pub fn put_record_frame(out: &mut Vec<u8>, key: Key128, payload: &[u8]) {
    let mut body = Vec::with_capacity(16 + payload.len());
    body.extend_from_slice(&key.hi.to_le_bytes());
    body.extend_from_slice(&key.lo.to_le_bytes());
    body.extend_from_slice(payload);
    put_frame(out, TAG_RECORD, &body);
}

/// Append a block frame (`TAG_BLOCK`) from a pre-concatenated entry buffer
/// (`count` entries of `key.hi u64 LE | key.lo u64 LE | payload_len
/// uvarint | payload`). This is the zero-copy path [`StoreWriter::append`]
/// builds incrementally, so payloads are never cloned into a per-record
/// `Vec` first.
pub fn put_block_frame_raw(out: &mut Vec<u8>, count: usize, raw: &[u8]) {
    let packed = lz::compress(raw);
    let (codec, data) = if packed.len() < raw.len() {
        (CODEC_LZ, packed.as_slice())
    } else {
        (CODEC_RAW, raw)
    };
    let mut body = Vec::with_capacity(data.len() + 16);
    body.push(codec);
    put_uvarint(&mut body, count as u64);
    put_uvarint(&mut body, raw.len() as u64);
    body.extend_from_slice(data);
    put_frame(out, TAG_BLOCK, &body);
}

fn put_frame(out: &mut Vec<u8>, tag: u8, body: &[u8]) {
    out.push(tag);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    let mut crc = Crc32::new();
    crc.update(&[tag]);
    crc.update(body);
    out.extend_from_slice(&crc.finish().to_le_bytes());
}

/// Decode the records of one frame body into `sink`. Returns `None` when
/// the body is malformed (callers treat the frame as corrupt).
pub fn decode_frame_records(tag: u8, body: &[u8], sink: &mut Vec<RawRecord>) -> Option<usize> {
    match tag {
        TAG_RECORD => {
            let mut r = ByteReader::new(body);
            let key = Key128 {
                hi: r.u64_le()?,
                lo: r.u64_le()?,
            };
            sink.push(RawRecord {
                key,
                payload: r.bytes(r.remaining())?.to_vec(),
            });
            Some(1)
        }
        TAG_BLOCK => {
            let mut r = ByteReader::new(body);
            let codec = r.u8()?;
            let count = r.uvarint()? as usize;
            let raw_len = r.uvarint()? as usize;
            let data = r.bytes(r.remaining())?;
            let raw = match codec {
                CODEC_RAW => {
                    if data.len() != raw_len {
                        return None;
                    }
                    data.to_vec()
                }
                CODEC_LZ => lz::decompress(data, raw_len)?,
                _ => return None, // reserved codec: treat as unreadable
            };
            let mut r = ByteReader::new(&raw);
            for _ in 0..count {
                let key = Key128 {
                    hi: r.u64_le()?,
                    lo: r.u64_le()?,
                };
                let len = r.uvarint()? as usize;
                sink.push(RawRecord {
                    key,
                    payload: r.bytes(len)?.to_vec(),
                });
            }
            if !r.is_empty() {
                return None;
            }
            Some(count)
        }
        _ => Some(0), // unknown tag: skip but keep scanning (forward compat)
    }
}

/// Refuse to allocate for frames claiming bodies beyond this size; real
/// frames are a few hundred KB at most, so anything larger is corruption.
const MAX_FRAME_BODY: usize = 1 << 30;

/// Read and CRC-check the next frame of `r` as `(tag, body)`. `Ok(None)`
/// is a clean end of input; a torn or corrupt frame is an error.
pub(crate) fn read_frame(r: &mut impl Read) -> io::Result<Option<(u8, Vec<u8>)>> {
    let mut head = [0u8; 5];
    if r.read(&mut head[..1])? == 0 {
        return Ok(None);
    }
    r.read_exact(&mut head[1..])?;
    let body_len = u32::from_le_bytes([head[1], head[2], head[3], head[4]]) as usize;
    if body_len > MAX_FRAME_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    let mut body = vec![0u8; body_len];
    r.read_exact(&mut body)?;
    let mut want = [0u8; 4];
    r.read_exact(&mut want)?;
    let mut crc = Crc32::new();
    crc.update(&head[..1]);
    crc.update(&body);
    if crc.finish() != u32::from_le_bytes(want) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame CRC mismatch",
        ));
    }
    Ok(Some((head[0], body)))
}

/// One entry of the sealed-file index: where a data frame starts and how
/// many records it holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexEntry {
    /// Absolute byte offset of the frame.
    pub offset: u64,
    /// Records decoded from the frame.
    pub records: u64,
}

/// Encode the index frame plus trailer for a sealed file.
pub fn put_index_and_trailer(out: &mut Vec<u8>, entries: &[IndexEntry]) {
    let mut body = Vec::new();
    let total: u64 = entries.iter().map(|e| e.records).sum();
    put_uvarint(&mut body, total);
    put_uvarint(&mut body, entries.len() as u64);
    let mut prev = HEADER_LEN;
    for e in entries {
        put_uvarint(&mut body, e.offset - prev);
        put_uvarint(&mut body, e.records);
        prev = e.offset;
    }
    let before = out.len();
    put_frame(out, TAG_INDEX, &body);
    let frame_len = (out.len() - before) as u32;
    out.extend_from_slice(&frame_len.to_le_bytes());
    out.extend_from_slice(&TRAILER_MAGIC);
}

/// Summary of a sealed-file index footer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexSummary {
    /// Total records across all data frames.
    pub records: u64,
    /// Per-frame offsets and record counts.
    pub entries: Vec<IndexEntry>,
}

/// Decode an index frame body.
pub fn parse_index_body(body: &[u8]) -> Option<IndexSummary> {
    let mut r = ByteReader::new(body);
    let records = r.uvarint()?;
    let frames = r.uvarint()? as usize;
    let mut entries = Vec::with_capacity(frames);
    let mut prev = HEADER_LEN;
    for _ in 0..frames {
        let offset = prev + r.uvarint()?;
        let count = r.uvarint()?;
        entries.push(IndexEntry {
            offset,
            records: count,
        });
        prev = offset;
    }
    if !r.is_empty() {
        return None;
    }
    Some(IndexSummary { records, entries })
}

/// Read the index of a sealed file by seeking from EOF, without scanning
/// the data frames. Returns `None` when the file is unsealed or the
/// footer is damaged (callers fall back to a full scan).
pub fn read_index(file: &mut File) -> io::Result<Option<IndexSummary>> {
    let len = file.seek(SeekFrom::End(0))?;
    if len < HEADER_LEN + TRAILER_LEN {
        return Ok(None);
    }
    file.seek(SeekFrom::End(-(TRAILER_LEN as i64)))?;
    let mut trailer = [0u8; 8];
    file.read_exact(&mut trailer)?;
    if trailer[4..8] != TRAILER_MAGIC {
        return Ok(None);
    }
    let frame_len = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]) as u64;
    if frame_len + TRAILER_LEN + HEADER_LEN > len || frame_len < FRAME_OVERHEAD as u64 {
        return Ok(None);
    }
    file.seek(SeekFrom::End(-((TRAILER_LEN + frame_len) as i64)))?;
    let mut frame = vec![0u8; frame_len as usize];
    file.read_exact(&mut frame)?;
    if frame[0] != TAG_INDEX {
        return Ok(None);
    }
    let mut rest = frame.as_slice();
    Ok(match read_frame(&mut rest) {
        Ok(Some((TAG_INDEX, body))) if rest.is_empty() => parse_index_body(&body),
        _ => None,
    })
}

/// Streaming store writer: batches records into compressed block frames
/// and (optionally) seals the file with an index footer.
///
/// Dropping the writer without calling [`StoreWriter::finish`] or
/// [`StoreWriter::finish_sealed`] leaves whatever frames were already
/// flushed — readers recover those and drop the unwritten tail, the same
/// crash story as the append path. Writers opened with
/// [`StoreWriter::create_atomic`] instead leave the destination untouched
/// until a `finish*` call renames the finished temp sibling over it; a
/// failed `finish*` removes the temp sibling.
pub struct StoreWriter {
    file: File,
    /// Pre-concatenated block entries awaiting the next flush (the
    /// `put_block_frame_raw` layout), built incrementally so append never
    /// clones the caller's payload.
    raw: Vec<u8>,
    /// Entries currently queued in `raw`.
    pending: usize,
    entries: Vec<IndexEntry>,
    offset: u64,
    records: u64,
    /// `(tmp, dest)` when writing atomically: rename on finish.
    persist_to: Option<(PathBuf, PathBuf)>,
}

impl StoreWriter {
    /// Create (truncate) `path` and write an unsealed header for records
    /// of version `record_version`.
    pub fn create(path: &Path, record_version: u32) -> io::Result<StoreWriter> {
        let mut file = File::create(path)?;
        let header = Header {
            format_version: FORMAT_VERSION,
            flags: 0,
            record_version,
        };
        file.write_all(&header.to_bytes())?;
        Ok(StoreWriter {
            file,
            raw: Vec::new(),
            pending: 0,
            entries: Vec::new(),
            offset: HEADER_LEN,
            records: 0,
            persist_to: None,
        })
    }

    /// Like [`StoreWriter::create`], but crash-safe for rewrites: frames
    /// go to a `.tmp` sibling and `path` is only replaced — atomically,
    /// via rename — when [`StoreWriter::finish`] or
    /// [`StoreWriter::finish_sealed`] succeeds. A crash mid-write leaves
    /// any existing file at `path` exactly as it was, and a failed finish
    /// removes the `.tmp` sibling.
    pub fn create_atomic(path: &Path, record_version: u32) -> io::Result<StoreWriter> {
        let name = path.file_name().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "store path has no file name")
        })?;
        let mut tmp_name = name.to_os_string();
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        let mut writer = StoreWriter::create(&tmp, record_version)?;
        writer.persist_to = Some((tmp, path.to_path_buf()));
        Ok(writer)
    }

    /// Queue one record; flushes a block frame every [`BLOCK_RECORDS`].
    pub fn append(&mut self, key: Key128, payload: &[u8]) -> io::Result<()> {
        self.raw.extend_from_slice(&key.hi.to_le_bytes());
        self.raw.extend_from_slice(&key.lo.to_le_bytes());
        put_uvarint(&mut self.raw, payload.len() as u64);
        self.raw.extend_from_slice(payload);
        self.pending += 1;
        self.records += 1;
        if self.pending >= BLOCK_RECORDS {
            self.flush_block()?;
        }
        Ok(())
    }

    /// Records queued or written so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    fn flush_block(&mut self) -> io::Result<()> {
        if self.pending == 0 {
            return Ok(());
        }
        let mut buf = Vec::new();
        put_block_frame_raw(&mut buf, self.pending, &self.raw);
        self.entries.push(IndexEntry {
            offset: self.offset,
            records: self.pending as u64,
        });
        self.file.write_all(&buf)?;
        self.offset += buf.len() as u64;
        self.pending = 0;
        self.raw.clear();
        Ok(())
    }

    /// Finish through `tail`, then (atomic mode) rename the temp sibling
    /// over the destination. If either step fails, the temp sibling is
    /// removed rather than left behind.
    fn complete(mut self, tail: impl FnOnce(&mut Self) -> io::Result<()>) -> io::Result<()> {
        let result = tail(&mut self).and_then(|()| match &self.persist_to {
            // Durability before visibility: the rename must only ever
            // expose fully-flushed bytes.
            Some((tmp, dest)) => self
                .file
                .sync_all()
                .and_then(|()| std::fs::rename(tmp, dest)),
            None => Ok(()),
        });
        if let (Err(_), Some((tmp, _))) = (&result, &self.persist_to) {
            let _ = std::fs::remove_file(tmp);
        }
        result
    }

    /// Flush remaining records and finish as an *unsealed* file (valid for
    /// later appends).
    pub fn finish(self) -> io::Result<()> {
        self.complete(|w| {
            w.flush_block()?;
            w.file.flush()
        })
    }

    /// Flush remaining records, write the index footer and trailer, and
    /// set the sealed header flag.
    pub fn finish_sealed(self) -> io::Result<()> {
        self.complete(|w| {
            w.flush_block()?;
            let mut buf = Vec::new();
            put_index_and_trailer(&mut buf, &w.entries);
            w.file.write_all(&buf)?;
            // Patch the sealed bit into the already-written header; done
            // last so a crash mid-seal leaves a readable unsealed file.
            w.file.seek(SeekFrom::Start(6))?;
            w.file.write_all(&FLAG_SEALED.to_le_bytes())?;
            w.file.flush()
        })
    }
}

/// Lightweight facts about a store file, for `afp cache stats`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreInfo {
    /// Container format version.
    pub format_version: u16,
    /// Record payload version.
    pub record_version: u32,
    /// Whether the file is sealed with an index footer.
    pub sealed: bool,
    /// Record count (from the index when sealed, else by scanning).
    pub records: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// Whether a torn tail frame was detected (scan path only).
    pub truncated: bool,
}

/// Inspect a store file without decoding record payloads.
///
/// Sealed files are answered from the header and the index footer alone
/// (three small reads, O(1) in file size); only unsealed files — or
/// sealed files whose footer turns out damaged — fall back to reading
/// every frame through [`FrameStream`].
pub fn inspect(path: &Path) -> io::Result<StoreInfo> {
    let mut file = File::open(path)?;
    let mut header_bytes = [0u8; HEADER_LEN as usize];
    let header = match file.read_exact(&mut header_bytes) {
        Ok(()) => Header::parse(&header_bytes),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => None,
        Err(e) => return Err(e),
    };
    let Some(header) = header else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a store file (bad header)",
        ));
    };
    if header.sealed() {
        if let Some(index) = read_index(&mut file)? {
            return Ok(StoreInfo {
                format_version: header.format_version,
                record_version: header.record_version,
                sealed: true,
                records: index.records,
                bytes: file.seek(SeekFrom::End(0))?,
                truncated: false,
            });
        }
    }
    let mut stream = FrameStream::open(path)?;
    Ok(StoreInfo {
        format_version: header.format_version,
        record_version: header.record_version,
        sealed: header.sealed(),
        records: stream.by_ref().count() as u64,
        bytes: file.seek(SeekFrom::End(0))?,
        truncated: stream.truncated(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> Key128 {
        Key128 {
            hi: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            lo: !i,
        }
    }

    /// Every record of the store image `bytes`, read back through
    /// [`FrameStream`], and the finished stream.
    fn stream_bytes(bytes: &[u8]) -> (Vec<RawRecord>, FrameStream<&[u8]>) {
        let mut stream = FrameStream::new(bytes).unwrap();
        let records = stream.by_ref().collect();
        (records, stream)
    }

    fn header_bytes() -> Vec<u8> {
        Header {
            format_version: FORMAT_VERSION,
            flags: 0,
            record_version: 7,
        }
        .to_bytes()
        .to_vec()
    }

    #[test]
    fn header_round_trips() {
        let h = Header {
            format_version: 3,
            flags: FLAG_SEALED,
            record_version: 42,
        };
        let parsed = Header::parse(&h.to_bytes()).unwrap();
        assert_eq!(parsed, h);
        assert!(parsed.sealed());
        assert_eq!(Header::parse(b"NOPE000000000000"), None);
    }

    #[test]
    fn record_frames_scan_back() {
        let mut bytes = header_bytes();
        for i in 0..5u64 {
            put_record_frame(&mut bytes, key(i), format!("payload-{i}").as_bytes());
        }
        let (records, stream) = stream_bytes(&bytes);
        assert_eq!(records.len(), 5);
        assert_eq!(stream.record_frames(), 5);
        assert!(!stream.truncated());
        assert_eq!(records[3].key, key(3));
        assert_eq!(records[3].payload, b"payload-3");
    }

    #[test]
    fn block_frame_round_trips_and_compresses() {
        let records: Vec<(Key128, Vec<u8>)> = (0..200u64)
            .map(|i| (key(i), format!("gate and xor not {i} {i} {i}").into_bytes()))
            .collect();
        let mut raw = Vec::new();
        for (key, payload) in &records {
            raw.extend_from_slice(&key.hi.to_le_bytes());
            raw.extend_from_slice(&key.lo.to_le_bytes());
            put_uvarint(&mut raw, payload.len() as u64);
            raw.extend_from_slice(payload);
        }
        let mut bytes = header_bytes();
        put_block_frame_raw(&mut bytes, records.len(), &raw);
        let raw_total: usize = records.iter().map(|(_, p)| p.len() + 16).sum();
        assert!(
            bytes.len() < raw_total,
            "block should compress: {} vs {raw_total}",
            bytes.len()
        );
        let (back, stream) = stream_bytes(&bytes);
        assert_eq!(back.len(), 200);
        assert_eq!(stream.record_frames(), 0);
        for (i, rec) in back.iter().enumerate() {
            assert_eq!(rec.key, records[i].0);
            assert_eq!(rec.payload, records[i].1);
        }
    }

    #[test]
    fn torn_tail_is_dropped_but_prefix_survives() {
        let mut bytes = header_bytes();
        put_record_frame(&mut bytes, key(1), b"first");
        let tear = bytes.len() + 7; // mid-way through the next frame
        put_record_frame(&mut bytes, key(2), b"second-to-be-torn");
        bytes.truncate(tear);
        let (records, stream) = stream_bytes(&bytes);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].payload, b"first");
        assert!(stream.truncated());
    }

    #[test]
    fn corrupt_crc_stops_the_scan() {
        let mut bytes = header_bytes();
        put_record_frame(&mut bytes, key(1), b"ok");
        let keep = bytes.len();
        put_record_frame(&mut bytes, key(2), b"will corrupt");
        let idx = keep + 10;
        bytes[idx] ^= 0xFF;
        let (records, stream) = stream_bytes(&bytes);
        assert_eq!(records.len(), 1);
        assert!(stream.truncated());
    }

    #[test]
    fn unknown_tags_are_skipped() {
        let mut bytes = header_bytes();
        put_record_frame(&mut bytes, key(1), b"a");
        put_frame(&mut bytes, 0x7E, b"future frame kind");
        put_record_frame(&mut bytes, key(2), b"b");
        let (records, stream) = stream_bytes(&bytes);
        assert_eq!(records.len(), 2);
        assert!(!stream.truncated());
        assert_eq!(stream.record_frames(), 2);
    }

    #[test]
    fn index_round_trips() {
        let entries = vec![
            IndexEntry {
                offset: HEADER_LEN,
                records: 256,
            },
            IndexEntry {
                offset: HEADER_LEN + 900,
                records: 44,
            },
        ];
        let mut out = Vec::new();
        put_index_and_trailer(&mut out, &entries);
        let mut rest = out.as_slice();
        let (tag, body) = read_frame(&mut rest).unwrap().unwrap();
        assert_eq!(tag, TAG_INDEX);
        assert_eq!(rest.len(), TRAILER_LEN as usize, "the trailer follows");
        let summary = parse_index_body(&body).unwrap();
        assert_eq!(summary.records, 300);
        assert_eq!(summary.entries, entries);
    }

    #[test]
    fn writer_seals_and_index_reads_back() {
        let dir = std::env::temp_dir().join(format!("afp-store-frame-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sealed.afps");
        let mut w = StoreWriter::create(&path, 9).unwrap();
        for i in 0..600u64 {
            w.append(key(i), format!("payload {i}").as_bytes()).unwrap();
        }
        w.finish_sealed().unwrap();

        let mut file = File::open(&path).unwrap();
        let index = read_index(&mut file).unwrap().expect("sealed index");
        assert_eq!(index.records, 600);
        assert_eq!(index.entries.len(), 3); // 256 + 256 + 88

        let mut stream = FrameStream::open(&path).unwrap();
        assert!(stream.header().sealed());
        assert_eq!(stream.header().record_version, 9);
        assert_eq!(stream.by_ref().count(), 600);
        assert!(!stream.truncated());

        let info = inspect(&path).unwrap();
        assert!(info.sealed);
        assert_eq!(info.records, 600);
        assert_eq!(info.record_version, 9);

        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn unsealed_file_has_no_index() {
        let dir = std::env::temp_dir().join(format!("afp-store-frame2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unsealed.afps");
        let mut w = StoreWriter::create(&path, 1).unwrap();
        w.append(key(1), b"x").unwrap();
        w.finish().unwrap();
        let mut file = File::open(&path).unwrap();
        assert_eq!(read_index(&mut file).unwrap(), None);
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn atomic_writer_preserves_destination_until_finish() {
        let dir = std::env::temp_dir().join(format!("afp-store-frame3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.afps");

        // Seal a first generation at the destination.
        let mut w = StoreWriter::create_atomic(&path, 3).unwrap();
        w.append(key(1), b"gen1").unwrap();
        w.finish_sealed().unwrap();
        let gen1 = std::fs::read(&path).unwrap();

        // A writer dropped mid-rewrite (simulated crash) must leave the
        // previous generation byte-identical, with only the temp sibling
        // as debris.
        let mut crashed = StoreWriter::create_atomic(&path, 3).unwrap();
        for i in 0..600u64 {
            crashed.append(key(i), b"doomed").unwrap();
        }
        drop(crashed);
        assert_eq!(std::fs::read(&path).unwrap(), gen1);
        let tmp = dir.join("corpus.afps.tmp");
        assert!(tmp.exists(), "temp sibling holds the abandoned write");

        // A completed rewrite replaces the destination and removes the
        // temp sibling.
        let mut w = StoreWriter::create_atomic(&path, 3).unwrap();
        w.append(key(2), b"gen2").unwrap();
        w.finish_sealed().unwrap();
        assert!(!tmp.exists());
        let info = inspect(&path).unwrap();
        assert!(info.sealed);
        assert_eq!(info.records, 1);
        let records: Vec<RawRecord> = FrameStream::open(&path).unwrap().collect();
        assert_eq!(records[0].payload, b"gen2");

        // A finish that fails at the rename (a directory holds the
        // destination) removes the temp sibling instead of leaving it.
        let blocked = dir.join("blocked.afps");
        std::fs::create_dir_all(blocked.join("occupied")).unwrap();
        let mut w = StoreWriter::create_atomic(&blocked, 3).unwrap();
        w.append(key(3), b"never lands").unwrap();
        assert!(w.finish_sealed().is_err());
        assert!(!dir.join("blocked.afps.tmp").exists());
        assert!(blocked.join("occupied").is_dir());

        let _ = std::fs::remove_dir_all(&dir);
    }
}
