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
//! The cache is afp-runtime's byte-bounded CLOCK ring
//! ([`afp_runtime::ClockCache`]): each entry costs its body plus a fixed
//! bookkeeping charge, and a hot set that keeps being hit survives any
//! stream of one-hit bodies.

use std::sync::Arc;

use afp_runtime::{ClockCache, Counters, Key128, StableHasher};

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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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

fn cost(body: &Arc<String>) -> usize {
    body.len() + ENTRY_OVERHEAD
}

/// The rendered-body cache: the shared [`ClockCache`] ring, counted
/// under the `body_cache_*` rows.
pub(crate) struct BodyCache(ClockCache<Arc<String>>);

impl BodyCache {
    /// An empty cache holding at most `budget` bytes.
    pub(crate) fn new(budget: usize) -> BodyCache {
        BodyCache(ClockCache::new(budget, cost))
    }

    /// The body under `key`, marking it referenced and counting
    /// `body_cache_hits`.
    pub(crate) fn get(&self, key: BodyKey, counters: &Counters) -> Option<Arc<String>> {
        let body = self.0.get(key.0)?;
        Counters::add(&counters.body_cache_hits, 1);
        Some(body)
    }

    /// Admit `body` under `key`, counting the bodies evicted for it and
    /// the bytes held after it.
    pub(crate) fn insert(&self, key: BodyKey, body: Arc<String>, counters: &Counters) {
        let admission = self.0.insert(key.0, body);
        Counters::add(&counters.body_cache_evictions, admission.evicted);
        Counters::set(&counters.body_cache_bytes, admission.bytes as u64);
    }

    /// Entries held.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn hits_evictions_and_bytes_are_counted() {
        let counters = Counters::default();
        let key = |i: u64| BodyKey::new(Endpoint::Estimate, Key128 { hi: i, lo: !i }, "c");
        let body = Arc::new("x".repeat(100));
        // Room for exactly two bodies.
        let cache = BodyCache::new(2 * cost(&body));
        for i in 0..3 {
            cache.insert(key(i), Arc::clone(&body), &counters);
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.get(key(0), &counters).is_none());
        assert_eq!(cache.get(key(2), &counters).as_deref(), Some(&*body));
        let snap = counters.snapshot();
        assert_eq!((snap.body_cache_hits, snap.body_cache_evictions), (1, 1));
        assert_eq!(snap.body_cache_bytes, 2 * cost(&body) as u64);
    }
}
