//! Lazy, frame-at-a-time store reader.
//!
//! [`FrameStream`] reads one frame per `next()` refill from any
//! [`Read`] — a store file ([`FrameStream::open`]) or bytes already in
//! memory ([`FrameStream::new`]) — instead of slurping the whole input,
//! so library-scale corpora are never fully resident:
//! peak memory is one frame (a block of [`crate::frame::BLOCK_RECORDS`]
//! records) regardless of file size. A torn or corrupt tail frame ends
//! the stream (recoverable via [`FrameStream::truncated`]) instead of
//! erroring.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::Path;

use crate::frame::{
    decode_frame_records, read_frame, Header, RawRecord, FORMAT_VERSION, TAG_INDEX, TAG_RECORD,
};

/// An iterator over the records of a store image, decoding lazily. The
/// default reader is a buffered store file.
#[derive(Debug)]
pub struct FrameStream<R = BufReader<File>> {
    reader: R,
    header: Header,
    buffered: VecDeque<RawRecord>,
    done: bool,
    truncated: bool,
    record_frames: u64,
}

impl FrameStream {
    /// Open `path` and validate its header; see [`FrameStream::new`].
    pub fn open(path: &Path) -> io::Result<FrameStream> {
        FrameStream::new(BufReader::new(File::open(path)?))
    }
}

impl<R: Read> FrameStream<R> {
    /// Read and validate the header at the start of `reader`. Fails with
    /// [`io::ErrorKind::InvalidData`] when the input is not a store image
    /// or uses an unknown container format version.
    pub fn new(mut reader: R) -> io::Result<FrameStream<R>> {
        let mut hdr = [0u8; 16];
        reader
            .read_exact(&mut hdr)
            .map_err(|_| bad_data("store file shorter than its header"))?;
        let header = Header::parse(&hdr).ok_or_else(|| bad_data("not a store file (bad magic)"))?;
        if header.format_version != FORMAT_VERSION {
            return Err(bad_data("unsupported store format version"));
        }
        Ok(FrameStream {
            reader,
            header,
            buffered: VecDeque::new(),
            done: false,
            truncated: false,
            record_frames: 0,
        })
    }

    /// The parsed file header.
    pub fn header(&self) -> Header {
        self.header
    }

    /// Whether the stream ended at a torn or corrupt frame (the valid
    /// prefix was still yielded).
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Single-record (`TAG_RECORD`) frames read so far — loose appends
    /// that a compaction would fold into blocks.
    pub fn record_frames(&self) -> u64 {
        self.record_frames
    }

    /// Read and decode the next frame into the buffer; the stream ends at
    /// a clean end of file, at the index footer of a sealed file, or
    /// (truncated) at the first torn or corrupt frame.
    fn refill(&mut self) {
        let torn = match read_frame(&mut self.reader) {
            Ok(None) | Ok(Some((TAG_INDEX, _))) => false,
            Ok(Some((tag, body))) => {
                let mut sink = Vec::new();
                if decode_frame_records(tag, &body, &mut sink).is_some() {
                    self.record_frames += u64::from(tag == TAG_RECORD);
                    self.buffered.extend(sink);
                    return;
                }
                true
            }
            Err(_) => true,
        };
        self.done = true;
        self.truncated = torn;
    }
}

impl<R: Read> Iterator for FrameStream<R> {
    type Item = RawRecord;

    fn next(&mut self) -> Option<RawRecord> {
        loop {
            if let Some(rec) = self.buffered.pop_front() {
                return Some(rec);
            }
            if self.done {
                return None;
            }
            // A refill may legitimately buffer nothing (an unknown-tag
            // frame is skipped); loop until records appear or the stream
            // ends.
            self.refill();
        }
    }
}

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{put_record_frame, StoreWriter, FLAG_SEALED};
    use afp_runtime::Key128;
    use std::io::Write;

    fn key(i: u64) -> Key128 {
        Key128 { hi: i, lo: !i }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "afp-store-stream-{tag}-{}.afps",
            std::process::id()
        ))
    }

    #[test]
    fn streams_sealed_file_lazily() {
        let path = temp_path("sealed");
        let mut w = StoreWriter::create(&path, 5).unwrap();
        for i in 0..700u64 {
            w.append(key(i), format!("rec {i}").as_bytes()).unwrap();
        }
        w.finish_sealed().unwrap();

        let mut stream = FrameStream::open(&path).unwrap();
        assert_eq!(stream.header().record_version, 5);
        assert!(stream.header().flags & FLAG_SEALED != 0);
        let first = stream.next().unwrap();
        assert_eq!(first.key, key(0));
        assert!(
            stream.buffered.len() < 700,
            "must not have decoded the whole file after one item"
        );
        let rest: Vec<RawRecord> = stream.by_ref().collect();
        assert_eq!(rest.len(), 699);
        assert!(!stream.truncated());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_ends_stream_with_flag() {
        let path = temp_path("torn");
        let mut bytes = crate::frame::Header {
            format_version: FORMAT_VERSION,
            flags: 0,
            record_version: 1,
        }
        .to_bytes()
        .to_vec();
        put_record_frame(&mut bytes, key(1), b"whole");
        put_record_frame(&mut bytes, key(2), b"torn-away");
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(&bytes[..bytes.len() - 6]).unwrap();
        drop(f);

        let mut stream = FrameStream::open(&path).unwrap();
        let got: Vec<RawRecord> = stream.by_ref().collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, b"whole");
        assert!(stream.truncated());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_non_store_files() {
        let path = temp_path("notastore");
        std::fs::write(&path, b"key,v1,area\nabc,1.0\n").unwrap();
        let err = FrameStream::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }
}
