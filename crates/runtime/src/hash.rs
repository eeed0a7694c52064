//! Stable 128-bit content hashing for cache keys.
//!
//! The hash must be stable across processes and platforms (it keys
//! records in the on-disk store), so it is a fixed FNV-1a pair rather than
//! `std::hash`, whose output is unspecified across releases.

/// A 128-bit content-addressed cache key.
// Safe total order (`Eq + Ord`, no float keys): the clippy.toml
// `partial_cmp` ban fires inside the derive expansion, not here.
#[allow(clippy::disallowed_methods)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Key128 {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// An incremental, platform-stable hasher producing a [`Key128`].
///
/// Two independent FNV-1a streams (the second offset-perturbed) give 128
/// bits of key material; collisions are negligible at library scale
/// (~2⁻⁶⁴ per pair on the netlist half alone).
#[derive(Clone, Debug)]
pub struct StableHasher {
    a: u64,
    b: u64,
}

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A fresh hasher.
    pub fn new() -> StableHasher {
        StableHasher {
            a: FNV_OFFSET,
            b: FNV_OFFSET ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Absorb one byte.
    #[inline]
    pub fn write_u8(&mut self, v: u8) {
        self.a = (self.a ^ v as u64).wrapping_mul(FNV_PRIME);
        self.b = (self.b ^ v as u64).wrapping_mul(FNV_PRIME ^ 0x10_0001);
    }

    /// Absorb a byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &v in bytes {
            self.write_u8(v);
        }
    }

    /// Absorb a `u64` (little-endian).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorb a `usize`.
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorb an `f64` by exact bit pattern.
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorb a `bool`.
    #[inline]
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(v as u8);
    }

    /// Absorb a string (length-prefixed, so `"ab","c"` ≠ `"a","bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The accumulated key.
    pub fn finish(&self) -> Key128 {
        // A final avalanche so short inputs still spread over both words.
        let mut hi = self.a;
        let mut lo = self.b;
        for v in [&mut hi, &mut lo] {
            *v ^= *v >> 33;
            *v = v.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            *v ^= *v >> 33;
        }
        Key128 { hi, lo }
    }
}

/// Types that can feed their content into a [`StableHasher`].
///
/// Implemented by the domain crates for their config structs so the
/// characterization cache key covers every field that affects results.
pub trait Fingerprint {
    /// Absorb the full semantic content of `self`.
    fn fingerprint(&self, hasher: &mut StableHasher);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key_of(f: impl FnOnce(&mut StableHasher)) -> Key128 {
        let mut h = StableHasher::new();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_and_sensitive() {
        let a = key_of(|h| h.write_u64(1));
        let b = key_of(|h| h.write_u64(1));
        let c = key_of(|h| h.write_u64(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(key_of(|h| h.write_str("ab")), key_of(|h| h.write_str("a")));
    }

    #[test]
    fn field_order_matters() {
        let a = key_of(|h| {
            h.write_u64(1);
            h.write_u64(2);
        });
        let b = key_of(|h| {
            h.write_u64(2);
            h.write_u64(1);
        });
        assert_ne!(a, b);
    }
}
