//! The one in-memory cache: a byte-bounded CLOCK ring keyed by [`Key128`].
//!
//! Values are stored under a [`Key128`] fingerprint of a computation's
//! *inputs* (netlist structure + configuration, or a rendered body's
//! request), so a hit is valid regardless of when or where the entry was
//! produced, and an evicted entry is recomputed bit for bit.
//!
//! The cache is bounded by bytes, not entries: each entry costs what the
//! charge function given at construction says, and a CLOCK sweep evicts
//! the first entry that was not hit since the hand last passed it. A hot
//! set that keeps being hit survives any stream of one-hit entries.
//!
//! The cache touches no counters. [`ClockCache::get`] returns the hit and
//! [`ClockCache::insert`] returns its evictions, so each caller counts
//! them under its own names. The persistent disk tier lives in
//! `afp-store` (`StoreTier`).

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::hash::Key128;

struct Slot<V> {
    key: Key128,
    value: V,
    /// Hit since the hand last passed: survives one more sweep.
    referenced: bool,
}

struct Ring<V> {
    index: HashMap<Key128, usize>,
    /// The ring the hand sweeps; `None` marks a slot freed by eviction.
    slots: Vec<Option<Slot<V>>>,
    free: Vec<usize>,
    hand: usize,
    bytes: usize,
}

impl<V> Ring<V> {
    /// Advance the hand to the first unreferenced entry, clearing the
    /// reference bits it passes, and drop that entry. Terminates within
    /// two sweeps because the caller only evicts from a non-empty ring.
    fn evict_one(&mut self, charge: fn(&V) -> usize) {
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
                    self.bytes -= charge(&slot.value);
                    self.free.push(at);
                    return;
                }
                None => {}
            }
        }
    }
}

/// What one [`ClockCache::insert`] did to the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Admission {
    /// Entries evicted to make room for the new one.
    pub evicted: u64,
    /// Bytes the cache holds after the insert.
    pub bytes: usize,
}

/// A thread-safe, byte-bounded CLOCK cache from [`Key128`] to cloneable
/// values.
pub struct ClockCache<V> {
    budget: usize,
    charge: fn(&V) -> usize,
    ring: Mutex<Ring<V>>,
}

impl<V: Clone> fmt::Debug for ClockCache<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ring = self.lock();
        f.debug_struct("ClockCache")
            .field("budget", &self.budget)
            .field("bytes", &ring.bytes)
            .field("entries", &ring.index.len())
            .finish_non_exhaustive()
    }
}

impl<V: Clone> ClockCache<V> {
    /// An empty cache holding at most `budget` bytes, charging each entry
    /// `charge(&value)` bytes.
    pub fn new(budget: usize, charge: fn(&V) -> usize) -> ClockCache<V> {
        ClockCache {
            budget,
            charge,
            ring: Mutex::new(Ring {
                index: HashMap::new(),
                slots: Vec::new(),
                free: Vec::new(),
                hand: 0,
                bytes: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Ring<V>> {
        // Every mutation leaves the ring consistent before it can panic,
        // so a poisoned lock is safe to recover.
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.lock().index.len()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value under `key`, marking it referenced so it survives the
    /// hand's next pass.
    pub fn get(&self, key: Key128) -> Option<V> {
        let mut ring = self.lock();
        let at = *ring.index.get(&key)?;
        let slot = ring.slots[at].as_mut().expect("indexed slots are occupied");
        slot.referenced = true;
        Some(slot.value.clone())
    }

    /// The value under `key`, leaving its reference bit alone: a look
    /// that does not count as a use.
    pub fn peek(&self, key: Key128) -> Option<V> {
        let ring = self.lock();
        let at = *ring.index.get(&key)?;
        let slot = ring.slots[at].as_ref().expect("indexed slots are occupied");
        Some(slot.value.clone())
    }

    /// Admit `value` under `key`, evicting until it fits. A key already
    /// present keeps its entry (values are pure functions of their key),
    /// and a value charged more than the whole budget is not admitted.
    pub fn insert(&self, key: Key128, value: V) -> Admission {
        let cost = (self.charge)(&value);
        let mut ring = self.lock();
        let mut admission = Admission {
            evicted: 0,
            bytes: ring.bytes,
        };
        if cost > self.budget || ring.index.contains_key(&key) {
            return admission;
        }
        while ring.bytes + cost > self.budget {
            ring.evict_one(self.charge);
            admission.evicted += 1;
        }
        let slot = Some(Slot {
            key,
            value,
            referenced: false,
        });
        let at = match ring.free.pop() {
            Some(at) => {
                ring.slots[at] = slot;
                at
            }
            None => {
                ring.slots.push(slot);
                ring.slots.len() - 1
            }
        };
        ring.index.insert(key, at);
        ring.bytes += cost;
        admission.bytes = ring.bytes;
        admission
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(i: u64) -> Key128 {
        Key128 { hi: i, lo: !i }
    }

    /// Values are their own charge.
    fn cache(budget: usize) -> ClockCache<usize> {
        ClockCache::new(budget, |&v| v)
    }

    #[test]
    fn a_re_hit_entry_survives_a_sweep_of_one_hit_entries() {
        // Room for exactly ten entries.
        let cache = cache(10 * 100);
        let hot = key(u64::MAX);
        cache.insert(hot, 100);
        for i in 0..1_000u64 {
            assert!(cache.get(hot).is_some(), "evicted before insert {i}");
            cache.insert(key(i), 100);
        }
        assert!(cache.get(hot).is_some());
        assert_eq!(cache.len(), 10);
        // Without hits it goes within two sweeps: one clears its bit.
        for i in 1_000..1_020u64 {
            cache.insert(key(i), 100);
        }
        assert!(cache.get(hot).is_none());
    }

    #[test]
    fn duplicates_and_oversized_values_change_nothing() {
        let cache = cache(1024);
        let first = cache.insert(key(1), 100);
        assert_eq!(
            first,
            Admission {
                evicted: 0,
                bytes: 100
            }
        );
        assert_eq!(cache.insert(key(1), 200), first);
        assert_eq!(cache.insert(key(2), 1025), first);
        assert_eq!((cache.len(), cache.lock().bytes), (1, 100));
        assert_eq!(cache.get(key(1)), Some(100));
        assert_eq!(cache.get(key(2)), None);
    }

    /// The CLOCK rules, written plainly: linear scans over the ring
    /// instead of an index, the same slot reuse, no shortcuts.
    #[derive(Default)]
    struct Model {
        /// `(key, charge, referenced)` per ring slot.
        slots: Vec<Option<(u64, usize, bool)>>,
        free: Vec<usize>,
        hand: usize,
        bytes: usize,
    }

    impl Model {
        fn find(&self, k: u64) -> Option<usize> {
            self.slots
                .iter()
                .position(|s| matches!(s, Some((sk, ..)) if *sk == k))
        }

        fn get(&mut self, k: u64) -> Option<usize> {
            let at = self.find(k)?;
            let slot = self.slots[at].as_mut().unwrap();
            slot.2 = true;
            Some(slot.1)
        }

        fn peek(&self, k: u64) -> Option<usize> {
            self.find(k).map(|at| self.slots[at].unwrap().1)
        }

        fn insert(&mut self, k: u64, charge: usize, budget: usize) -> Admission {
            let mut evicted = 0;
            if charge <= budget && self.find(k).is_none() {
                while self.bytes + charge > budget {
                    if self.hand >= self.slots.len() {
                        self.hand = 0;
                    }
                    let at = self.hand;
                    self.hand += 1;
                    match self.slots[at] {
                        Some((_, _, true)) => self.slots[at].as_mut().unwrap().2 = false,
                        Some((_, c, false)) => {
                            self.slots[at] = None;
                            self.bytes -= c;
                            self.free.push(at);
                            evicted += 1;
                        }
                        None => {}
                    }
                }
                match self.free.pop() {
                    Some(at) => self.slots[at] = Some((k, charge, false)),
                    None => self.slots.push(Some((k, charge, false))),
                }
                self.bytes += charge;
            }
            Admission {
                evicted,
                bytes: self.bytes,
            }
        }

        fn referenced(&self) -> Vec<u64> {
            self.slots
                .iter()
                .flatten()
                .filter(|s| s.2)
                .map(|s| s.0)
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn the_ring_follows_the_clock_model(
            budget in 1usize..400,
            ops in proptest::collection::vec((0u8..3, 0u64..24, 1usize..120), 1..300),
        ) {
            let real = cache(budget);
            let mut model = Model::default();
            for &(op, k, charge) in &ops {
                match op {
                    0 => {
                        let (was, before) = (model.peek(k), model.bytes);
                        let hit_before = model.referenced();
                        let unhit_before =
                            model.slots.iter().flatten().count() - hit_before.len();
                        let admission = real.insert(key(k), charge);
                        prop_assert_eq!(admission, model.insert(k, charge, budget));
                        if was.is_some() || charge > budget {
                            // A duplicate or an oversized value changes nothing.
                            prop_assert_eq!(admission, Admission { evicted: 0, bytes: before });
                            prop_assert_eq!(real.peek(key(k)), was);
                        } else {
                            prop_assert_eq!(real.peek(key(k)), Some(charge));
                        }
                        // An entry hit since the hand last passed survives
                        // the sweep: the hand must evict every entry that
                        // was not hit before it can come back for one.
                        if admission.evicted <= unhit_before as u64 {
                            for h in hit_before {
                                prop_assert!(real.peek(key(h)).is_some(), "{h} was hit");
                            }
                        }
                    }
                    1 => prop_assert_eq!(real.get(key(k)), model.get(k)),
                    _ => {
                        let hit_before = model.referenced();
                        prop_assert_eq!(real.peek(key(k)), model.peek(k));
                        // `peek` never sets a reference bit.
                        prop_assert_eq!(model.referenced(), hit_before);
                        let ring = real.lock();
                        let mut bits: Vec<u64> = ring
                            .slots
                            .iter()
                            .flatten()
                            .filter(|s| s.referenced)
                            .map(|s| !s.key.lo)
                            .collect();
                        bits.sort_unstable();
                        let mut want = model.referenced();
                        want.sort_unstable();
                        prop_assert_eq!(bits, want);
                    }
                }
                prop_assert!(real.lock().bytes <= budget);
                prop_assert_eq!((real.len(), real.lock().bytes), (
                    model.slots.iter().flatten().count(),
                    model.bytes,
                ));
            }
        }
    }
}
