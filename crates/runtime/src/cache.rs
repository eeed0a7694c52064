//! Content-addressed memoization: a sharded, thread-safe in-memory map.
//!
//! Values are stored under a [`Key128`] produced by fingerprinting the
//! *inputs* of a computation (netlist structure + configuration), so a
//! hit is valid regardless of when or where the entry was produced. The
//! persistent disk tier lives in `afp-store` (`StoreTier`).

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

use crate::counters::Counters;
use crate::hash::Key128;

/// Number of independently locked shards in a [`MemoCache`]. Sixteen is
/// plenty: workers only contend on insert, and key→shard spreading makes
/// simultaneous same-shard inserts rare at pool sizes we run.
const SHARDS: usize = 16;

/// A sharded, thread-safe, in-memory memoization map from [`Key128`] to
/// cloneable values.
#[derive(Debug)]
pub struct MemoCache<V> {
    shards: Vec<Mutex<HashMap<Key128, V>>>,
}

impl<V: Clone> Default for MemoCache<V> {
    fn default() -> MemoCache<V> {
        MemoCache::new()
    }
}

impl<V: Clone> MemoCache<V> {
    /// An empty cache.
    pub fn new() -> MemoCache<V> {
        MemoCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// Look up `key`, recording a hit/miss in `counters`.
    ///
    /// Locking is poison-proof: a worker that panicked while holding a
    /// shard lock leaves the map in a consistent state (every mutation is
    /// a single `HashMap` call), so readers recover the guard instead of
    /// cascading the panic.
    pub fn get(&self, key: Key128, counters: &Counters) -> Option<V> {
        let found = self.shards[key.shard(SHARDS)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .cloned();
        match found {
            Some(_) => Counters::add(&counters.cache_hits, 1),
            None => Counters::add(&counters.cache_misses, 1),
        }
        found
    }

    /// Insert `value` under `key` (last write wins; entries are
    /// content-addressed, so concurrent writers insert identical values).
    pub fn insert(&self, key: Key128, value: V) {
        self.shards[key.shard(SHARDS)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, value);
    }

    /// Look up `key` silently (no counter traffic) — used when warming
    /// from disk.
    pub fn peek(&self, key: Key128) -> Option<V> {
        self.shards[key.shard(SHARDS)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .cloned()
    }

    /// Number of entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::StableHasher;

    fn key(n: u64) -> Key128 {
        let mut h = StableHasher::new();
        h.write_u64(n);
        h.finish()
    }

    #[test]
    fn memo_hit_miss_counting() {
        let cache = MemoCache::new();
        let counters = Counters::default();
        assert_eq!(cache.get(key(1), &counters), None::<u32>);
        cache.insert(key(1), 42u32);
        assert_eq!(cache.get(key(1), &counters), Some(42));
        let snap = counters.snapshot();
        assert_eq!((snap.cache_hits, snap.cache_misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }
}
