//! Persisting circuit libraries in the binary frame store.
//!
//! A generated library is a pure function of its [`crate::LibrarySpec`],
//! but generating a large one (enumeration + mutation + behavioural
//! dedup) takes real time. This module saves a library to one sealed
//! [`afp_store`] file and streams it back lazily, so downstream tools
//! (benchmarks, the CLI `library` command, cross-process experiments)
//! can reopen a corpus in milliseconds without re-enumeration.
//!
//! Each record payload is `kind` byte + operand-width varint + the
//! varint-packed netlist ([`afp_store::encode_netlist`]), keyed by a
//! content hash of the circuit structure — writing is therefore
//! idempotent per structure, and structural duplicates collapse to one
//! record ([`WriteSummary::deduplicated`] counts them).
//!
//! Corpora are precious: writes are atomic (temp sibling + rename, so a
//! crash mid-write never destroys an existing file), and reads fail
//! loudly — a torn tail yields a final `Err` after the intact prefix and
//! a foreign record version is an error at open, so a damaged or
//! incompatible corpus can never masquerade as a complete smaller
//! library.
//!
//! # Example
//!
//! ```
//! use afp_circuits::{adders, store};
//!
//! let dir = std::env::temp_dir().join(format!("afp-store-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("lib.afps");
//! let circuits = vec![adders::ripple_carry(4), adders::loa(4, 2)];
//! store::write_library(&path, &circuits).unwrap();
//! let back: Vec<_> = store::stream_library(&path)
//!     .unwrap()
//!     .collect::<std::io::Result<_>>()
//!     .unwrap();
//! assert_eq!(back.len(), 2);
//! assert_eq!(back[0].eval(3, 4), 7);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

use std::collections::HashSet;
use std::fmt::Display;
use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::Path;

use afp_runtime::{Key128, Runtime, StableHasher};
use afp_store::bytes::{put_uvarint, ByteReader};
use afp_store::{decode_netlist, encode_netlist, FrameStream, StoreWriter};

use crate::arith::{ArithCircuit, ArithKind};
use crate::library::{build_library_with, LibrarySpec};

/// Record version of the circuit payload encoding.
const CIRCUIT_VERSION: u32 = 1;

/// What [`write_library`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteSummary {
    /// Records written to the store.
    pub written: usize,
    /// Circuits skipped because a structurally identical circuit (same
    /// kind, width and netlist structure) was already written.
    pub deduplicated: usize,
    /// Bytes of the finished store file.
    pub bytes: u64,
}

/// The content key of one circuit: kind, width and netlist structure
/// (names excluded — a renamed circuit is the same record).
fn circuit_key(circuit: &ArithCircuit) -> Key128 {
    let mut h = StableHasher::new();
    h.write_str("circuit");
    h.write_str(circuit.kind().mnemonic());
    h.write_usize(circuit.width());
    h.write_u64(circuit.netlist().structural_hash());
    h.finish()
}

fn encode_circuit(circuit: &ArithCircuit, out: &mut Vec<u8>) {
    out.push(circuit.kind().code());
    put_uvarint(out, circuit.width() as u64);
    encode_netlist(circuit.netlist(), out);
}

fn decode_circuit(payload: &[u8]) -> Result<ArithCircuit, String> {
    let mut r = ByteReader::new(payload);
    let kind = r.u8().and_then(ArithKind::from_code);
    let width = r.uvarint().and_then(|w| usize::try_from(w).ok());
    let netlist = decode_netlist(&mut r);
    let (Some(kind), Some(width), Some(netlist), true) = (kind, width, netlist, r.is_empty())
    else {
        return Err("store frame does not decode as a circuit".to_string());
    };
    // A corrupted or hand-edited record is an error, never a circuit the
    // rest of the toolchain would panic on.
    ArithCircuit::try_new(kind, width, netlist)
        .map_err(|e| format!("store record is not a valid circuit: {e}"))
}

fn append_circuits(
    writer: &mut StoreWriter,
    circuits: &[ArithCircuit],
    seen: &mut HashSet<Key128>,
    summary: &mut WriteSummary,
    payload: &mut Vec<u8>,
) -> io::Result<()> {
    for circuit in circuits {
        let key = circuit_key(circuit);
        if !seen.insert(key) {
            summary.deduplicated += 1;
            continue;
        }
        payload.clear();
        encode_circuit(circuit, payload);
        writer.append(key, payload)?;
        summary.written += 1;
    }
    Ok(())
}

/// Write `circuits` to a sealed store file at `path`, deduplicating
/// structurally identical circuits by content key. The parent directory
/// must exist. The write is atomic: frames go to a `.tmp` sibling that
/// replaces `path` only when sealing succeeds, so a crash mid-write never
/// destroys an existing corpus.
pub fn write_library(path: &Path, circuits: &[ArithCircuit]) -> io::Result<WriteSummary> {
    let mut writer = StoreWriter::create_atomic(path, CIRCUIT_VERSION)?;
    let mut seen = HashSet::new();
    let mut summary = WriteSummary::default();
    let mut payload = Vec::new();
    append_circuits(&mut writer, circuits, &mut seen, &mut summary, &mut payload)?;
    writer.finish_sealed()?;
    summary.bytes = std::fs::metadata(path)?.len();
    Ok(summary)
}

/// Generate each spec in turn and write the union to one sealed store
/// file at `path`, deduplicating structurally identical circuits across
/// the whole union. Only one generated sub-library is resident at a time,
/// so corpora larger than RAM-comfortable can still be persisted; the
/// write is atomic like [`write_library`].
pub fn write_library_specs(
    path: &Path,
    specs: &[LibrarySpec],
    rt: &Runtime,
) -> io::Result<WriteSummary> {
    let mut writer = StoreWriter::create_atomic(path, CIRCUIT_VERSION)?;
    let mut seen = HashSet::new();
    let mut summary = WriteSummary::default();
    let mut payload = Vec::new();
    for spec in specs {
        let sub = build_library_with(spec, rt);
        append_circuits(&mut writer, &sub, &mut seen, &mut summary, &mut payload)?;
    }
    writer.finish_sealed()?;
    summary.bytes = std::fs::metadata(path)?.len();
    Ok(summary)
}

/// Lazy iterator over the circuits of a store image written by
/// [`write_library`], read from a file ([`stream_library`]) or from
/// memory ([`stream_library_bytes`]). Frames are read and decompressed
/// on demand — opening the stream does not load the library.
///
/// A torn or corrupt tail is never silent: after yielding the intact
/// prefix, the stream yields one final `Err` so a damaged corpus cannot
/// masquerade as a complete smaller library. Callers that *want* the
/// recovered prefix can consume circuits until the error and check
/// [`LibraryStream::truncated`].
#[derive(Debug)]
pub struct LibraryStream<R = BufReader<File>> {
    inner: FrameStream<R>,
    torn_reported: bool,
}

impl<R: Read> LibraryStream<R> {
    /// Whether the underlying file ended in a torn (truncated or
    /// corrupted) frame; circuits yielded before that point are intact.
    pub fn truncated(&self) -> bool {
        self.inner.truncated()
    }
}

impl<R: Read> Iterator for LibraryStream<R> {
    type Item = io::Result<ArithCircuit>;

    fn next(&mut self) -> Option<io::Result<ArithCircuit>> {
        match self.inner.next() {
            Some(record) => Some(
                decode_circuit(&record.payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
            ),
            None if self.inner.truncated() && !self.torn_reported => {
                self.torn_reported = true;
                Some(Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "circuit store ends in a torn or corrupt frame \
                     (corpus is truncated; circuits already yielded are intact)",
                )))
            }
            None => None,
        }
    }
}

/// Open a lazy circuit stream over the store file at `path`.
///
/// Fails with [`io::ErrorKind::InvalidData`] if the file is not a store
/// file, or if it is a store file whose record version differs from the
/// circuit encoding this build understands — a foreign-version corpus is
/// an error naming both versions, never a silent empty stream.
pub fn stream_library(path: &Path) -> io::Result<LibraryStream> {
    library_stream(FrameStream::open(path)?, &path.display())
}

/// [`stream_library`] over a store image already in memory (an `.afps`
/// request body, say): the same circuits, the same torn-tail `Err` and
/// the same foreign-version error as the file would give.
pub fn stream_library_bytes(bytes: &[u8]) -> io::Result<LibraryStream<&[u8]>> {
    library_stream(FrameStream::new(bytes)?, &"in-memory store image")
}

/// Check the record version of a freshly opened store image, naming
/// `origin` in the error.
fn library_stream<R: Read>(
    inner: FrameStream<R>,
    origin: &dyn Display,
) -> io::Result<LibraryStream<R>> {
    let found = inner.header().record_version;
    if found != CIRCUIT_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "circuit store has record version {found}, this build reads \
                 version {CIRCUIT_VERSION} ({origin})"
            ),
        ));
    }
    Ok(LibraryStream {
        inner,
        torn_reported: false,
    })
}

/// Read a whole library eagerly; see [`stream_library`]. Fails — like the
/// stream — on torn tails and foreign record versions.
pub fn read_library(path: &Path) -> io::Result<Vec<ArithCircuit>> {
    stream_library(path)?.collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{adders, build_library, multipliers, LibrarySpec};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("afp-circstore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("lib.afps")
    }

    #[test]
    fn round_trips_a_generated_library() {
        let path = temp_path("roundtrip");
        let lib = build_library(&LibrarySpec::new(ArithKind::Adder, 8, 40));
        let summary = write_library(&path, &lib).unwrap();
        assert_eq!(summary.written, lib.len());
        assert_eq!(summary.deduplicated, 0, "library is already deduped");
        let back = read_library(&path).unwrap();
        assert_eq!(back.len(), lib.len());
        // Streaming preserves structure exactly (netlists compare equal up
        // to the name, which the content key deliberately ignores).
        let mut originals: Vec<_> = lib
            .iter()
            .map(|c| {
                let mut n = c.netlist().clone();
                n.set_name("");
                n
            })
            .collect();
        let mut decoded: Vec<_> = back
            .iter()
            .map(|c| {
                let mut n = c.netlist().clone();
                n.set_name("");
                n
            })
            .collect();
        let by_hash = |n: &afp_netlist::Netlist| n.structural_hash();
        originals.sort_by_key(by_hash);
        decoded.sort_by_key(by_hash);
        assert_eq!(originals, decoded);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn streaming_preserves_behaviour() {
        let path = temp_path("behaviour");
        let circuits = vec![
            adders::ripple_carry(6),
            adders::loa(6, 2),
            multipliers::wallace_multiplier(4),
        ];
        write_library(&path, &circuits).unwrap();
        for (orig, got) in circuits.iter().zip(read_library(&path).unwrap().iter()) {
            assert_eq!(orig.kind(), got.kind());
            assert_eq!(orig.width(), got.width());
            for (a, b) in [(3, 5), (0, 0), (13, 11)] {
                assert_eq!(orig.eval(a, b), got.eval(a, b));
            }
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn structural_duplicates_collapse() {
        let path = temp_path("dedup");
        let a = adders::ripple_carry(4);
        let mut renamed = a.clone();
        renamed.set_name("same-structure-other-name");
        let summary = write_library(&path, &[a, renamed]).unwrap();
        assert_eq!(summary.written, 1);
        assert_eq!(summary.deduplicated, 1);
        assert_eq!(read_library(&path).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn rejects_non_store_files_and_foreign_versions() {
        let path = temp_path("reject");
        std::fs::write(&path, b"name,v1,cols\n").unwrap();
        assert!(stream_library(&path).is_err());
        // A valid store with a different record version must fail loudly
        // at open — indistinguishable-from-empty was a silent-loss bug.
        let mut w = StoreWriter::create(&path, CIRCUIT_VERSION + 1).unwrap();
        w.append(Key128 { hi: 1, lo: 2 }, &[0xFF; 4]).unwrap();
        w.finish_sealed().unwrap();
        let err = stream_library(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("record version 2") && msg.contains("version 1"),
            "error must name both versions: {msg}"
        );
        assert!(read_library(&path).is_err());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_corpus_yields_prefix_then_error() {
        let path = temp_path("torn");
        let circuits = vec![
            adders::ripple_carry(4),
            adders::loa(4, 1),
            adders::loa(4, 2),
        ];
        write_library(&path, &circuits).unwrap();
        let full = std::fs::read(&path).unwrap();

        // Chop through the trailer into the index frame: every data frame
        // is intact, so all circuits stream back, but the tear itself must
        // still surface as a final error instead of silently vanishing.
        std::fs::write(&path, &full[..full.len() - 12]).unwrap();
        let mut stream = stream_library(&path).unwrap();
        let mut ok = 0usize;
        let mut errs = 0usize;
        for item in stream.by_ref() {
            match item {
                Ok(_) => ok += 1,
                Err(e) => {
                    errs += 1;
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                }
            }
        }
        assert_eq!((ok, errs), (circuits.len(), 1));
        assert!(stream.truncated());
        // The eager reader propagates the same error.
        assert!(read_library(&path).is_err());

        // Chop into the data frame itself: fewer (here zero — one block
        // frame holds all three) circuits, same loud error.
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(read_library(&path).is_err());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn in_memory_and_file_streams_agree_on_the_same_bytes() {
        // Each item as its circuit or its error (kind and message, minus
        // the origin the foreign-version error names).
        fn items<R: Read>(opened: io::Result<LibraryStream<R>>) -> Vec<Result<String, String>> {
            let describe = |e: io::Error| {
                let msg = e.to_string();
                let msg = msg.split(" (").next().unwrap_or_default().to_string();
                format!("{:?}: {msg}", e.kind())
            };
            match opened {
                Ok(stream) => stream
                    .map(|item| item.map(|c| format!("{c:?}")).map_err(describe))
                    .collect(),
                Err(e) => vec![Err(describe(e))],
            }
        }
        let path = temp_path("memory");
        let circuits = vec![adders::ripple_carry(4), adders::loa(4, 2)];
        write_library(&path, &circuits).unwrap();
        let full = std::fs::read(&path).unwrap();
        let mut foreign = StoreWriter::create(&path, CIRCUIT_VERSION + 1).unwrap();
        foreign.append(Key128 { hi: 1, lo: 2 }, &[0xFF; 4]).unwrap();
        foreign.finish_sealed().unwrap();
        let foreign = std::fs::read(&path).unwrap();
        let images: [(&str, &[u8]); 5] = [
            ("whole", &full),
            ("torn trailer", &full[..full.len() - 12]),
            ("torn data", &full[..full.len() / 2]),
            ("foreign version", &foreign),
            ("not a store", b"name,v1,cols\n"),
        ];
        for (case, bytes) in images {
            std::fs::write(&path, bytes).unwrap();
            let from_file = items(stream_library(&path));
            let from_memory = items(stream_library_bytes(bytes));
            assert_eq!(from_file, from_memory, "{case}");
            let errors = from_file.iter().filter(|item| item.is_err()).count();
            assert_eq!(
                errors,
                usize::from(case != "whole"),
                "{case}: {from_file:?}"
            );
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn write_specs_streams_one_sub_library_at_a_time() {
        let path = temp_path("specs");
        let specs = [
            LibrarySpec::new(ArithKind::Adder, 4, 10),
            LibrarySpec::new(ArithKind::Adder, 4, 10), // exact duplicate spec
            LibrarySpec::new(ArithKind::Multiplier, 4, 6),
        ];
        let rt = Runtime::new(1);
        let summary = write_library_specs(&path, &specs, &rt).unwrap();
        // The duplicate spec regenerates the same structures, so the
        // union dedups it away entirely.
        let adders = build_library(&LibrarySpec::new(ArithKind::Adder, 4, 10));
        let muls = build_library(&LibrarySpec::new(ArithKind::Multiplier, 4, 6));
        assert_eq!(summary.written, adders.len() + muls.len());
        assert_eq!(summary.deduplicated, adders.len());
        let back = read_library(&path).unwrap();
        assert_eq!(back.len(), summary.written);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
