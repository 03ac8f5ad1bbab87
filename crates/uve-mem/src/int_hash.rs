//! The one hasher for maps and sets keyed by small integers: page numbers,
//! PCs, prefetch zones, cache lines.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative integer hasher. Page lookups sit on the hottest path of
/// the emulator (every load/store and every stream element goes through
/// one), where SipHash costs more than the access itself; integer keys are
/// small and dense, so a single odd-constant multiply (Fibonacci hashing)
/// spreads them perfectly well. Deterministic, so map behaviour never
/// varies between runs; no caller observes iteration order
/// ([`crate::Memory::content_hash`] sorts pages first).
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        // 2^64 / phi, the classic Fibonacci-hashing constant.
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// A map keyed by `u64` under [`IntHasher`].
pub type IntMap<V> = HashMap<u64, V, BuildHasherDefault<IntHasher>>;

/// A set of `u64` under [`IntHasher`].
pub type IntSet = HashSet<u64, BuildHasherDefault<IntHasher>>;
