//! `StoreTier` — the persistent disk tier of a content-addressed cache.
//!
//! Open loads every recoverable entry, `append` persists-and-flushes each
//! new entry so a crash never loses completed work, and damage degrades
//! gracefully (a torn tail frame is dropped, a stale version restarts the
//! file). Append-mode record frames are compacted into compressed block
//! frames once enough accumulate.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use afp_runtime::Key128;

use crate::bytes::ByteReader;
use crate::frame::{put_record_frame, Header, StoreWriter, FORMAT_VERSION};
use crate::stream::FrameStream;

/// A value that can round-trip through the binary store tier.
///
/// `decode` after `encode` must reproduce the value exactly (bit-exact
/// for float fields — the flow's golden tests compare cold and warm
/// reports byte-for-byte).
pub trait BinRecord: Sized {
    /// Bumped whenever the payload layout changes; files carrying another
    /// version are discarded rather than misparsed.
    const VERSION: u32;
    /// Append the payload encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one payload; `None` on malformed input. Must consume the
    /// payload exactly.
    fn decode(r: &mut ByteReader<'_>) -> Option<Self>;
}

/// Compact once this many single-record append frames accumulate: the
/// file is rewritten with block compression, trading one rewrite for a
/// ~3-4x smaller file and faster future opens.
pub const COMPACT_AT: u64 = 64;

/// The append-only binary disk tier: [`StoreTier::open`],
/// [`StoreTier::take_loaded`], [`StoreTier::append`].
#[derive(Debug)]
pub struct StoreTier<V> {
    path: PathBuf,
    file: Mutex<File>,
    loaded: Vec<(Key128, V)>,
    write_errors: AtomicU64,
    last_error: Mutex<Option<String>>,
    warned: AtomicBool,
}

impl<V: BinRecord> StoreTier<V> {
    /// Open (or create) the store file at `dir/name`, loading every
    /// recoverable entry. A corrupt, stale-versioned, or torn file is
    /// repaired or restarted — only unwritable locations error.
    pub fn open(dir: &Path, name: &str) -> io::Result<StoreTier<V>> {
        fs::create_dir_all(dir)?;
        let path = dir.join(name);
        let mut loaded: Vec<(Key128, V)> = Vec::new();

        // A missing file, a foreign one or a stale version starts fresh.
        let stream = FrameStream::open(&path).ok();
        match stream.filter(|s| s.header().record_version == V::VERSION) {
            None => {
                let mut file = File::create(&path)?;
                file.write_all(
                    &Header {
                        format_version: FORMAT_VERSION,
                        flags: 0,
                        record_version: V::VERSION,
                    }
                    .to_bytes(),
                )?;
                file.flush()?;
            }
            Some(mut stream) => {
                // A key re-appended before the compaction threshold leaves
                // several live frames; keep first-seen positions but let
                // later frames overwrite earlier values, so the load is
                // last-write-wins no matter how appends interleaved.
                let mut first_seen: HashMap<Key128, usize> = HashMap::new();
                let mut duplicates = false;
                for raw in stream.by_ref() {
                    let mut r = ByteReader::new(&raw.payload);
                    if let Some(v) = V::decode(&mut r) {
                        if r.is_empty() {
                            match first_seen.entry(raw.key) {
                                Entry::Occupied(e) => {
                                    loaded[*e.get()].1 = v;
                                    duplicates = true;
                                }
                                Entry::Vacant(e) => {
                                    e.insert(loaded.len());
                                    loaded.push((raw.key, v));
                                }
                            }
                        }
                    }
                }
                // Rewrite when the tail is torn (drop it), the file is
                // sealed (appends must go after the data frames, not the
                // index), duplicate frames shadow stale values, or enough
                // loose record frames accumulated to be worth compacting
                // into compressed blocks.
                if stream.truncated()
                    || stream.header().sealed()
                    || duplicates
                    || stream.record_frames() >= COMPACT_AT
                {
                    drop(stream);
                    Self::rewrite(&path, &loaded)?;
                }
            }
        }

        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(StoreTier {
            path,
            file: Mutex::new(file),
            loaded,
            write_errors: AtomicU64::new(0),
            last_error: Mutex::new(None),
            warned: AtomicBool::new(false),
        })
    }

    /// Rewrite the file from `entries` as compressed block frames, via a
    /// temp file and atomic rename so a crash leaves the old file intact.
    fn rewrite(path: &Path, entries: &[(Key128, V)]) -> io::Result<()> {
        let unique: HashSet<Key128> = entries.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            unique.len(),
            entries.len(),
            "rewrite input must be deduplicated to one live value per key"
        );
        let mut writer = StoreWriter::create_atomic(path, V::VERSION)?;
        let mut payload = Vec::new();
        for (key, value) in entries {
            payload.clear();
            value.encode(&mut payload);
            writer.append(*key, &payload)?;
        }
        writer.finish()
    }

    /// Entries recovered at open time; drain them into the memory tier.
    pub fn take_loaded(&mut self) -> Vec<(Key128, V)> {
        std::mem::take(&mut self.loaded)
    }

    /// Append one entry as a single record frame and flush.
    ///
    /// A failed write must not fail a run whose value is already in
    /// memory, but it is *counted* (see [`StoreTier::write_errors`]) and
    /// warned about once, so silent cache loss shows up in the run report
    /// instead of nowhere.
    pub fn append(&self, key: Key128, value: &V) {
        let mut payload = Vec::new();
        value.encode(&mut payload);
        let mut frame = Vec::with_capacity(payload.len() + 32);
        put_record_frame(&mut frame, key, &payload);
        let result = {
            let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
            file.write_all(&frame).and_then(|()| file.flush())
        };
        if let Err(err) = result {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
            *self
                .last_error
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(err.to_string());
            if !self.warned.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "warning: failed to persist cache entry to {}: {err} \
                     (run continues; see cache.write_errors in the report)",
                    self.path.display()
                );
            }
        }
    }

    /// Number of entries whose disk append failed since open.
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }

    /// The most recent append failure message, if any — the warn-once
    /// stderr path only shows the *first* error, so reports surface the
    /// last one here.
    pub fn last_write_error(&self) -> Option<String> {
        self.last_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Rec {
        area: f64,
        luts: u64,
    }

    impl BinRecord for Rec {
        const VERSION: u32 = 3;
        fn encode(&self, out: &mut Vec<u8>) {
            crate::bytes::put_f64(out, self.area);
            crate::bytes::put_uvarint(out, self.luts);
        }
        fn decode(r: &mut ByteReader<'_>) -> Option<Rec> {
            Some(Rec {
                area: r.f64_le()?,
                luts: r.uvarint()?,
            })
        }
    }

    fn key(n: u64) -> Key128 {
        Key128 {
            hi: n.wrapping_mul(0x243F_6A88_85A3_08D3),
            lo: n ^ 0xDEAD_BEEF,
        }
    }

    fn rec(n: u64) -> Rec {
        Rec {
            area: n as f64 * 1.25 + 0.1,
            luts: n * 3,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("afp-store-tier-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn tier_round_trip() {
        let dir = temp_dir("roundtrip");
        {
            let tier: StoreTier<Rec> = StoreTier::open(&dir, "c.afps").unwrap();
            tier.append(key(1), &rec(1));
            tier.append(key(2), &rec(2));
            assert_eq!(tier.write_errors(), 0);
        }
        let mut tier: StoreTier<Rec> = StoreTier::open(&dir, "c.afps").unwrap();
        let loaded = tier.take_loaded();
        assert_eq!(loaded, vec![(key(1), rec(1)), (key(2), rec(2))]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_version_restarts_fresh() {
        let dir = temp_dir("stale");
        fs::create_dir_all(&dir).unwrap();
        let mut w = StoreWriter::create(&dir.join("c.afps"), 999).unwrap();
        let mut payload = Vec::new();
        rec(1).encode(&mut payload);
        w.append(key(1), &payload).unwrap();
        w.finish().unwrap();

        let mut tier: StoreTier<Rec> = StoreTier::open(&dir, "c.afps").unwrap();
        assert!(
            tier.take_loaded().is_empty(),
            "stale version must be dropped"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_repaired_on_open() {
        let dir = temp_dir("torn");
        {
            let tier: StoreTier<Rec> = StoreTier::open(&dir, "c.afps").unwrap();
            tier.append(key(1), &rec(1));
            tier.append(key(2), &rec(2));
        }
        let path = dir.join("c.afps");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap(); // tear the tail

        let mut tier: StoreTier<Rec> = StoreTier::open(&dir, "c.afps").unwrap();
        assert_eq!(tier.take_loaded(), vec![(key(1), rec(1))]);
        // The repair dropped the torn frame; appends keep working and a
        // third open sees a clean two-entry file.
        tier.append(key(3), &rec(3));
        let mut tier: StoreTier<Rec> = StoreTier::open(&dir, "c.afps").unwrap();
        assert_eq!(tier.take_loaded(), vec![(key(1), rec(1)), (key(3), rec(3))]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_preserves_entries_and_shrinks_file() {
        let dir = temp_dir("compact");
        let n = COMPACT_AT + 10;
        {
            let tier: StoreTier<Rec> = StoreTier::open(&dir, "c.afps").unwrap();
            for i in 0..n {
                tier.append(key(i), &rec(i));
            }
        }
        let before = fs::metadata(dir.join("c.afps")).unwrap().len();
        let mut tier: StoreTier<Rec> = StoreTier::open(&dir, "c.afps").unwrap();
        let loaded = tier.take_loaded();
        assert_eq!(loaded.len(), n as usize);
        for (i, (k, v)) in loaded.iter().enumerate() {
            assert_eq!((k, v), (&key(i as u64), &rec(i as u64)));
        }
        let after = fs::metadata(dir.join("c.afps")).unwrap().len();
        assert!(
            after < before,
            "compaction should shrink the file: {before} -> {after}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_errors_are_counted_and_run_continues() {
        // /dev/full fails every write with ENOSPC — the canonical way to
        // exercise the error path deterministically. Skip quietly on
        // platforms without it.
        let Ok(file) = OpenOptions::new().write(true).open("/dev/full") else {
            return;
        };
        let tier = StoreTier::<Rec> {
            path: PathBuf::from("/dev/full"),
            file: Mutex::new(file),
            loaded: Vec::new(),
            write_errors: AtomicU64::new(0),
            last_error: Mutex::new(None),
            warned: AtomicBool::new(false),
        };
        assert_eq!(tier.last_write_error(), None);
        tier.append(key(1), &rec(1));
        tier.append(key(2), &rec(2));
        assert_eq!(tier.write_errors(), 2);
        let last = tier.last_write_error().expect("error message captured");
        assert!(!last.is_empty());
    }

    #[test]
    fn duplicate_appends_load_last_write_wins_and_compact() {
        let dir = temp_dir("dup");
        {
            let tier: StoreTier<Rec> = StoreTier::open(&dir, "c.afps").unwrap();
            tier.append(key(1), &rec(1));
            tier.append(key(2), &rec(2));
            tier.append(key(1), &rec(7)); // re-characterized: newer value
        }
        let mut tier: StoreTier<Rec> = StoreTier::open(&dir, "c.afps").unwrap();
        let loaded = tier.take_loaded();
        assert_eq!(
            loaded,
            vec![(key(1), rec(7)), (key(2), rec(2))],
            "exactly the newer value survives, at the first-seen position"
        );
        // The duplicate forced a compaction: a reopen sees one live frame
        // per key and loads the same values.
        let mut tier: StoreTier<Rec> = StoreTier::open(&dir, "c.afps").unwrap();
        assert_eq!(tier.take_loaded(), vec![(key(1), rec(7)), (key(2), rec(2))]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_resolution_is_order_independent() {
        // Whatever the interleaving of appends, the per-key winner is the
        // latest append of that key.
        let dir = temp_dir("dup-order");
        {
            let tier: StoreTier<Rec> = StoreTier::open(&dir, "c.afps").unwrap();
            tier.append(key(2), &rec(20));
            tier.append(key(1), &rec(10));
            tier.append(key(2), &rec(21));
            tier.append(key(3), &rec(30));
            tier.append(key(2), &rec(22));
            tier.append(key(1), &rec(11));
        }
        let mut tier: StoreTier<Rec> = StoreTier::open(&dir, "c.afps").unwrap();
        assert_eq!(
            tier.take_loaded(),
            vec![(key(2), rec(22)), (key(1), rec(11)), (key(3), rec(30))]
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
