//! The daemon's one rendered-body cache.
//!
//! Every `200` body of `/characterize` and `/estimate` is a pure function
//! of the parsed request: the endpoint, the characterization content key
//! ([`approxfpgas::RequestConfig::key`], which covers the circuit's
//! structure, kind, width and every configuration field, target
//! included) and the circuit's name, which the body carries but the
//! content key leaves out. [`BodyKey`] hashes exactly those three, so two
//! spellings of one circuit (`mul8:udm:ff`, `mul8:udm:0ff`) share an
//! entry, while the raw query string never reaches the key.
//!
//! The cache is bounded by bytes, not entries: each entry costs its body
//! plus a fixed bookkeeping charge, and a CLOCK sweep evicts the first
//! entry that was not hit since the hand last passed it. A hot set that
//! keeps being hit survives any stream of one-hit bodies.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use afp_runtime::{Counters, Key128, StableHasher};

/// Byte budget of the daemon's body cache: roughly 8,000 `/characterize`
/// bodies, far more than a hot set, and small next to the daemon.
pub const BODY_CACHE_BYTES: usize = 4 << 20;

/// Bytes charged per entry on top of its body: the slot, the index
/// entry and the `Arc` header.
const ENTRY_OVERHEAD: usize = 96;

/// Which endpoint rendered a body. `/characterize` bodies are shared by
/// every path that characterizes (GET, Bristol POST, batch items and the
/// estimate fallback); `/estimate` bodies come from a model zoo.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Endpoint {
    /// A characterization report.
    Characterize,
    /// A model-zoo estimate.
    Estimate,
}

/// The canonical key of one rendered body.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct BodyKey(Key128);

impl BodyKey {
    /// The key of `endpoint`'s body for a request whose characterization
    /// content key is `content` and whose circuit is called `name`.
    pub(crate) fn new(endpoint: Endpoint, content: Key128, name: &str) -> BodyKey {
        let mut h = StableHasher::new();
        h.write_str(match endpoint {
            Endpoint::Characterize => "characterize",
            Endpoint::Estimate => "estimate",
        });
        h.write_u64(content.hi);
        h.write_u64(content.lo);
        h.write_str(name);
        BodyKey(h.finish())
    }
}

struct Slot {
    key: BodyKey,
    body: Arc<String>,
    /// Hit since the hand last passed: survives one more sweep.
    referenced: bool,
}

fn cost(body: &str) -> usize {
    body.len() + ENTRY_OVERHEAD
}

#[derive(Default)]
struct Clock {
    index: HashMap<BodyKey, usize>,
    /// The ring the hand sweeps; `None` marks a slot freed by eviction.
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    hand: usize,
    bytes: usize,
}

impl Clock {
    /// Advance the hand to the first unreferenced entry, clearing the
    /// reference bits it passes, and drop that entry. Terminates within
    /// two sweeps because the caller only evicts from a non-empty ring.
    fn evict_one(&mut self) {
        loop {
            if self.hand >= self.slots.len() {
                self.hand = 0;
            }
            let at = self.hand;
            self.hand += 1;
            match &mut self.slots[at] {
                Some(slot) if slot.referenced => slot.referenced = false,
                Some(_) => {
                    let slot = self.slots[at].take().expect("matched an occupied slot");
                    self.index.remove(&slot.key);
                    self.bytes -= cost(&slot.body);
                    self.free.push(at);
                    return;
                }
                None => {}
            }
        }
    }
}

/// A byte-bounded CLOCK cache of rendered response bodies.
pub(crate) struct BodyCache {
    budget: usize,
    clock: Mutex<Clock>,
}

impl BodyCache {
    /// An empty cache holding at most `budget` bytes.
    pub(crate) fn new(budget: usize) -> BodyCache {
        BodyCache {
            budget,
            clock: Mutex::new(Clock::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Clock> {
        // Every mutation leaves the ring consistent before it can panic,
        // so a poisoned lock is safe to recover.
        self.clock.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The body under `key`, marking it referenced and counting
    /// `body_cache_hits`.
    pub(crate) fn get(&self, key: BodyKey, counters: &Counters) -> Option<Arc<String>> {
        let mut clock = self.lock();
        let at = *clock.index.get(&key)?;
        let slot = clock.slots[at]
            .as_mut()
            .expect("indexed slots are occupied");
        slot.referenced = true;
        Counters::add(&counters.body_cache_hits, 1);
        Some(Arc::clone(&slot.body))
    }

    /// Admit `body` under `key`, evicting until it fits. A key already
    /// present keeps its entry (bodies are pure functions of their key),
    /// and a body larger than the whole budget is not admitted.
    pub(crate) fn insert(&self, key: BodyKey, body: Arc<String>, counters: &Counters) {
        let cost = cost(&body);
        if cost > self.budget {
            return;
        }
        let mut clock = self.lock();
        if clock.index.contains_key(&key) {
            return;
        }
        while clock.bytes + cost > self.budget {
            clock.evict_one();
            Counters::add(&counters.body_cache_evictions, 1);
        }
        let slot = Some(Slot {
            key,
            body,
            referenced: false,
        });
        let at = match clock.free.pop() {
            Some(at) => {
                clock.slots[at] = slot;
                at
            }
            None => {
                clock.slots.push(slot);
                clock.slots.len() - 1
            }
        };
        clock.index.insert(key, at);
        clock.bytes += cost;
        Counters::set(&counters.body_cache_bytes, clock.bytes as u64);
    }

    /// Entries held.
    pub(crate) fn len(&self) -> usize {
        self.lock().index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> BodyKey {
        BodyKey::new(Endpoint::Estimate, Key128 { hi: i, lo: !i }, "c")
    }

    fn body(len: usize) -> Arc<String> {
        Arc::new("x".repeat(len))
    }

    #[test]
    fn keys_separate_endpoints_names_and_content() {
        let content = Key128 { hi: 1, lo: 2 };
        let base = BodyKey::new(Endpoint::Characterize, content, "add8u_rca");
        assert_eq!(
            base,
            BodyKey::new(Endpoint::Characterize, content, "add8u_rca")
        );
        assert_ne!(base, BodyKey::new(Endpoint::Estimate, content, "add8u_rca"));
        assert_ne!(
            base,
            BodyKey::new(Endpoint::Characterize, content, "add8u_cla")
        );
        assert_ne!(
            base,
            BodyKey::new(Endpoint::Characterize, Key128 { hi: 1, lo: 3 }, "add8u_rca")
        );
    }

    #[test]
    fn a_re_hit_entry_survives_a_sweep_of_one_hit_entries() {
        let counters = Counters::default();
        // Room for exactly ten entries.
        let cache = BodyCache::new(10 * (100 + ENTRY_OVERHEAD));
        let hot = key(u64::MAX);
        cache.insert(hot, body(100), &counters);
        for i in 0..1_000u64 {
            assert!(
                cache.get(hot, &counters).is_some(),
                "evicted before insert {i}"
            );
            cache.insert(key(i), body(100), &counters);
        }
        assert!(cache.get(hot, &counters).is_some());
        assert_eq!(cache.len(), 10);
        // Without hits it goes within two sweeps: one clears its bit.
        for i in 1_000..1_020u64 {
            cache.insert(key(i), body(100), &counters);
        }
        assert!(cache.get(hot, &counters).is_none());
    }

    #[test]
    fn duplicates_and_oversized_bodies_change_nothing() {
        let counters = Counters::default();
        let cache = BodyCache::new(1024);
        cache.insert(key(1), body(100), &counters);
        let bytes = cache.lock().bytes;
        cache.insert(key(1), body(100), &counters);
        assert_eq!((cache.len(), cache.lock().bytes), (1, bytes));
        cache.insert(key(2), body(1024), &counters);
        assert_eq!((cache.len(), cache.lock().bytes), (1, bytes));
        assert_eq!(counters.snapshot().body_cache_evictions, 0);
        assert_eq!(counters.snapshot().body_cache_hits, 0);
        assert_eq!(
            cache.get(key(1), &counters).as_deref().map(String::len),
            Some(100)
        );
        assert_eq!(counters.snapshot().body_cache_hits, 1);
    }
}
