//! Library sources: where a flow's circuits come from.
//!
//! [`LibrarySource`] abstracts over the two ways a characterization run
//! obtains its library — generated in process from a [`LibrarySpec`], or
//! streamed shard-at-a-time from a sealed `.afps` corpus written by
//! [`crate::store::write_library`] — behind one [`LibrarySource::shards`]
//! API.
//! Streaming a stored corpus keeps at most one shard of circuits
//! resident, which is what makes paper-full-scale libraries (the 44,940
//! 8x8 multipliers plus the five smaller libraries) a bounded-memory
//! default instead of a RAM lottery.
//!
//! Shard boundaries never change *what* is iterated: concatenating the
//! shards of any source, for any shard size, yields the same circuits in
//! the same order.

use std::io;
use std::path::{Path, PathBuf};

use afp_runtime::Runtime;

use crate::arith::{ArithCircuit, ArithKind};
use crate::library::{build_library_with, LibrarySpec};
use crate::store::{stream_library, write_library_specs, LibraryStream, WriteSummary};

/// Where a characterization run gets its circuits.
#[derive(Clone, Debug, PartialEq)]
pub enum LibrarySource {
    /// Generate the library in process from a spec (the classic path).
    Generated(LibrarySpec),
    /// Stream a persisted corpus from a sealed `.afps` store file.
    Stored(PathBuf),
}

impl LibrarySource {
    /// Iterate the source's circuits in shards of at most `shard`
    /// circuits (a `shard` of `0` means one unbounded shard).
    ///
    /// For [`LibrarySource::Stored`] this opens the corpus lazily — a
    /// missing file, non-store file, or foreign record version fails
    /// here, and a torn tail surfaces as an `Err` shard mid-iteration.
    /// For [`LibrarySource::Generated`] the library is built first (that
    /// path is inherently resident) and then chunked, so both variants
    /// look identical to the consumer.
    pub fn shards(&self, shard: usize, rt: &Runtime) -> io::Result<LibraryShards> {
        let shard = if shard == 0 { usize::MAX } else { shard };
        let inner = match self {
            LibrarySource::Generated(spec) => {
                ShardsInner::Generated(build_library_with(spec, rt).into_iter())
            }
            LibrarySource::Stored(path) => ShardsInner::Stored(stream_library(path)?),
        };
        Ok(LibraryShards { shard, inner })
    }
}

/// Iterator over the shards of a [`LibrarySource`]; see
/// [`LibrarySource::shards`].
#[derive(Debug)]
pub struct LibraryShards {
    shard: usize,
    inner: ShardsInner,
}

#[derive(Debug)]
enum ShardsInner {
    Generated(std::vec::IntoIter<ArithCircuit>),
    Stored(LibraryStream),
    /// An error was yielded; the iteration is over.
    Done,
}

impl Iterator for LibraryShards {
    type Item = io::Result<Vec<ArithCircuit>>;

    fn next(&mut self) -> Option<io::Result<Vec<ArithCircuit>>> {
        let mut batch = Vec::new();
        match &mut self.inner {
            ShardsInner::Generated(circuits) => {
                batch.extend(circuits.by_ref().take(self.shard));
            }
            ShardsInner::Stored(stream) => {
                while batch.len() < self.shard {
                    match stream.next() {
                        Some(Ok(circuit)) => batch.push(circuit),
                        Some(Err(e)) => {
                            // Decode failure or torn tail: report it and
                            // end the iteration (the intact prefix in
                            // `batch` is dropped — a failed stream must
                            // not half-succeed).
                            self.inner = ShardsInner::Done;
                            return Some(Err(e));
                        }
                        None => break,
                    }
                }
            }
            ShardsInner::Done => return None,
        }
        if batch.is_empty() {
            None
        } else {
            Some(Ok(batch))
        }
    }
}

/// The six libraries of the paper's full-scale corpus (DESIGN.md
/// "Library sizing"; the 8x8 multiplier library is the full 44,940 the
/// paper subsamples to 4,494), each `target_size` down-scaled by `scale`
/// in `(0, 1]`. Out-of-range or non-finite scales are treated as `1.0`;
/// every library keeps at least a handful of circuits so heavily
/// down-scaled smoke runs still exercise all six kind/width corners.
pub fn paper_full_specs(scale: f64) -> Vec<LibrarySpec> {
    let scale = if scale.is_finite() && scale > 0.0 && scale <= 1.0 {
        scale
    } else {
        1.0
    };
    let scaled = |n: usize| (((n as f64) * scale).round() as usize).max(4);
    [
        (ArithKind::Adder, 8, 500),
        (ArithKind::Adder, 12, 1000),
        (ArithKind::Adder, 16, 1200),
        (ArithKind::Multiplier, 8, 44_940),
        (ArithKind::Multiplier, 12, 1200),
        (ArithKind::Multiplier, 16, 1500),
    ]
    .iter()
    .map(|&(kind, width, n)| LibrarySpec::new(kind, width, scaled(n)))
    .collect()
}

/// Generate and persist the corpus described by `specs` at `path`,
/// unless a store file that opens cleanly (right magic, container and
/// record version) is already there. Returns the write summary when a
/// corpus was written, `None` when the existing file was reused.
pub fn ensure_library(
    path: &Path,
    specs: &[LibrarySpec],
    rt: &Runtime,
) -> io::Result<Option<WriteSummary>> {
    if path.exists() {
        // Opening validates the header; a torn tail is caught later, by
        // the streaming consumer, where it fails loudly.
        stream_library(path)?;
        return Ok(None);
    }
    write_library_specs(path, specs, rt).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::write_library;
    use crate::{build_library, read_library};

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("afp-source-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("lib.afps")
    }

    fn names(circuits: &[ArithCircuit]) -> Vec<String> {
        circuits.iter().map(|c| c.name().to_string()).collect()
    }

    #[test]
    fn generated_shards_concatenate_to_the_full_library() {
        let spec = LibrarySpec::new(ArithKind::Adder, 6, 25);
        let full = build_library(&spec);
        let rt = Runtime::new(1);
        for shard in [1, 7, 25, 1000, 0] {
            let shards: Vec<Vec<ArithCircuit>> = LibrarySource::Generated(spec.clone())
                .shards(shard, &rt)
                .unwrap()
                .collect::<io::Result<_>>()
                .unwrap();
            let cap = if shard == 0 { usize::MAX } else { shard };
            assert!(shards.iter().all(|s| s.len() <= cap), "shard={shard}");
            let got: Vec<ArithCircuit> = shards.into_iter().flatten().collect();
            assert_eq!(names(&got), names(&full), "shard={shard}");
        }
    }

    #[test]
    fn stored_shards_match_the_eager_reader() {
        let path = temp_path("stored");
        let lib = build_library(&LibrarySpec::new(ArithKind::Multiplier, 4, 12));
        write_library(&path, &lib).unwrap();
        let eager = read_library(&path).unwrap();
        let rt = Runtime::new(1);
        for shard in [1, 5, 64] {
            let got: Vec<ArithCircuit> = LibrarySource::Stored(path.clone())
                .shards(shard, &rt)
                .unwrap()
                .collect::<io::Result<Vec<_>>>()
                .unwrap()
                .concat();
            assert_eq!(names(&got), names(&eager), "shard={shard}");
        }
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn stored_source_propagates_open_and_tail_errors() {
        let path = temp_path("errors");
        let rt = Runtime::new(1);
        // Missing file: error at open.
        assert!(LibrarySource::Stored(path.clone()).shards(8, &rt).is_err());
        // Torn tail: error mid-iteration.
        let lib = build_library(&LibrarySpec::new(ArithKind::Adder, 4, 10));
        write_library(&path, &lib).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = LibrarySource::Stored(path.clone())
            .shards(4, &rt)
            .unwrap()
            .collect::<io::Result<Vec<_>>>()
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn paper_specs_scale_down_but_cover_all_corners() {
        let full = paper_full_specs(1.0);
        assert_eq!(full.len(), 6);
        assert_eq!(full[3].target_size, 44_940);
        let tiny = paper_full_specs(0.001);
        assert_eq!(tiny.len(), 6);
        assert!(tiny.iter().all(|s| s.target_size >= 4));
        assert_eq!(tiny[3].target_size, 45);
        // Nonsense scales fall back to full size.
        assert_eq!(paper_full_specs(f64::NAN), full);
        assert_eq!(paper_full_specs(-3.0), full);
    }

    #[test]
    fn ensure_library_writes_once_and_reuses() {
        let path = temp_path("ensure");
        let rt = Runtime::new(1);
        let specs = [LibrarySpec::new(ArithKind::Adder, 4, 8)];
        let first = ensure_library(&path, &specs, &rt).unwrap();
        assert!(first.is_some());
        let again = ensure_library(&path, &specs, &rt).unwrap();
        assert!(again.is_none(), "existing corpus must be reused");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
