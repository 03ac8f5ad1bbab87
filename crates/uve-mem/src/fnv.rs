//! FNV-1a (64-bit), the hash behind every deterministic digest in the
//! workspace. It is defined by its constants alone, so a digest is stable
//! across builds and machines.
//!
//! Two multipliers are in use. State digests (memory contents,
//! architectural registers, the `emu` suite digest) use FNV's own prime.
//! Content keys (program fingerprints, sweep job keys, result-row digests)
//! were first minted with [`KEY_PRIME`], and durable caches and pinned
//! golden keys depend on that, so they keep it until the next model-epoch
//! bump re-keys everything anyway.

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime, 2^40 + 0x1b3.
pub const FNV_PRIME: u64 = 0x100_0000_01b3;
/// The multiplier of the content-key hashes, 2^44 + 0x1b3: one hex digit
/// longer than [`FNV_PRIME`].
pub const KEY_PRIME: u64 = 0x1000_0000_01b3;

#[inline]
fn fold(prime: u64, mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(prime);
    }
    h
}

/// FNV-1a over `bytes`, continuing from `h` (start from [`FNV_OFFSET`]).
#[inline]
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    fold(FNV_PRIME, h, bytes)
}

/// [`fnv1a`] with [`KEY_PRIME`] as the multiplier: the content-key hash.
#[inline]
pub fn fnv1a_key(h: u64, bytes: &[u8]) -> u64 {
    fold(KEY_PRIME, h, bytes)
}
