//! `afp-store` — a framed, content-addressed binary record store.
//!
//! The crate is the one disk format for library-scale data: a store file is a fixed 16-byte header followed by CRC-checked,
//! length-prefixed frames keyed by [`afp_runtime::Key128`], optionally
//! ending in an index footer that lets readers seek without scanning
//! (zstd-style framing; the block codec id byte reserves space for
//! external codecs, with a built-in safe-Rust LZ codec shipped today).
//! See `DESIGN.md` ("Circuit store") for the byte-level layout.
//!
//! Three layers build on the format:
//!
//! * [`frame`] — header/frame/index encode + decode, [`StoreWriter`]
//!   (batching, compressing, sealing), and [`inspect`] for cheap file
//!   stats.
//! * [`stream`] — [`FrameStream`], the one reader: a lazy iterator
//!   decoding one frame at a time so corpora never need to be fully
//!   resident, stopping at the first torn or corrupt frame.
//! * [`tier`] — [`StoreTier`], the persistent tier of the
//!   characterization cache (load-on-open, append-and-flush, torn-tail
//!   repair, block compaction).
//!
//! [`netcode`] defines the varint-packed netlist payload encoding
//! (`gate kind / fanin back-delta`) shared by the circuit store in
//! `afp-circuits` and any record type embedding netlists.
//!
//! # Example
//!
//! ```
//! use afp_runtime::Key128;
//! use afp_store::{FrameStream, StoreWriter};
//!
//! let dir = std::env::temp_dir().join(format!("afp-store-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("demo.afps");
//!
//! let mut writer = StoreWriter::create(&path, 1).unwrap();
//! writer.append(Key128 { hi: 1, lo: 2 }, b"payload").unwrap();
//! writer.finish_sealed().unwrap();
//!
//! let records: Vec<_> = FrameStream::open(&path).unwrap().collect();
//! assert_eq!(records.len(), 1);
//! assert_eq!(records[0].payload, b"payload");
//! # std::fs::remove_file(&path).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytes;
pub mod crc;
pub mod frame;
pub mod lz;
pub mod netcode;
pub mod stream;
pub mod tier;

pub use bytes::ByteReader;
pub use frame::{inspect, RawRecord, StoreInfo, StoreWriter};
pub use netcode::{decode_netlist, encode_netlist};
pub use stream::FrameStream;
pub use tier::{BinRecord, StoreTier};
