//! Build-stable program fingerprints.
//!
//! The distributed sweep service content-addresses results by everything a
//! job depends on, including the exact kernel program. Hashing the
//! program's `Debug` rendering with `std::hash::DefaultHasher` only
//! identifies it within one build: the hasher's keys and the derive-
//! generated formatting are both allowed to change between compiler
//! releases, so such a fingerprint cannot survive a cache written to disk
//! and read back by a rebuilt coordinator.
//!
//! This module fixes the identity instead of the hasher: a program is
//! fingerprinted as FNV-1a over a **canonical byte encoding** — the
//! architectural instruction words produced by [`uve_isa::encode`], in
//! program order, under a versioned header. Two builds (or two machines)
//! agree on the fingerprint because they agree on the ISA encoding, which
//! is pinned by the paper and by `uve-isa`'s own golden tests. Kernel
//! parameters (sizes, strides, immediates) are baked into the instruction
//! words, so re-parametrising a kernel changes its fingerprint.
//!
//! Golden fingerprint values are checked in (`tests/fingerprint_golden.rs`
//! at the workspace root) to pin the encoding: any change here or in the
//! ISA encoder that shifts fingerprints — and therefore invalidates
//! on-disk caches — fails loudly instead of silently aliasing.

use uve_isa::{encode, Program};
use uve_mem::{fnv1a_key, FNV_OFFSET};

/// Version tag of the canonical encoding; bump on any layout change so
/// old persisted caches miss cleanly instead of aliasing.
const CANON_MAGIC: &[u8; 8] = b"UVEPROG1";

/// The canonical, build-independent byte encoding of a program: a
/// versioned header, the instruction count, then each instruction's
/// architectural encoding ([`uve_isa::encode`]) as a little-endian word.
///
/// Total: an instruction the encoder rejects (none of the in-tree kernels
/// produce one, but arbitrary [`Program`]s can) falls back to a tagged,
/// length-prefixed `Debug` rendering rather than panicking; such programs
/// get *a* deterministic fingerprint, just not one guaranteed stable
/// across compiler releases.
pub fn canonical_program_bytes(program: &Program) -> Vec<u8> {
    let insts = program.insts();
    let mut out = Vec::with_capacity(CANON_MAGIC.len() + 4 + insts.len() * 5);
    out.extend_from_slice(CANON_MAGIC);
    out.extend_from_slice(&(insts.len() as u32).to_le_bytes());
    for (pc, inst) in insts.iter().enumerate() {
        match encode(inst, pc as u32) {
            Ok(word) => {
                out.push(0);
                out.extend_from_slice(&word.to_le_bytes());
            }
            Err(_) => {
                let text = format!("{inst:?}");
                out.push(1);
                out.extend_from_slice(&(text.len() as u32).to_le_bytes());
                out.extend_from_slice(text.as_bytes());
            }
        }
    }
    out
}

/// FNV-1a over [`canonical_program_bytes`]: the build- and
/// machine-stable program identity the sweep service's `job_key` folds
/// in. Pinned by golden values; see the module docs.
pub fn program_fingerprint(program: &Program) -> u64 {
    fnv1a_key(FNV_OFFSET, &canonical_program_bytes(program))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uve_isa::assemble;

    fn saxpy() -> Program {
        assemble(
            "saxpy",
            r#"
                li x10, 64
                li x11, 0x10000
                li x12, 0x20000
                li x13, 1
                ss.ld.w u0, x11, x10, x13
                ss.ld.w u1, x12, x10, x13
                ss.st.w u2, x12, x10, x13
                so.v.dup.w.fp u3, f10
            loop:
                so.a.mul.w.fp u4, u3, u0, p0
                so.a.add.w.fp u2, u4, u1, p0
                so.b.nend u0, loop
                halt
            "#,
        )
        .unwrap()
    }

    #[test]
    fn fingerprint_is_deterministic_and_content_sensitive() {
        let a = saxpy();
        assert_eq!(program_fingerprint(&a), program_fingerprint(&a));
        // Same instructions re-assembled: identical fingerprint.
        let b = saxpy();
        assert_eq!(program_fingerprint(&a), program_fingerprint(&b));
        // A one-instruction change moves it.
        let c = assemble("saxpy", "li x10, 65\nhalt").unwrap();
        assert_ne!(program_fingerprint(&a), program_fingerprint(&c));
    }

    #[test]
    fn canonical_bytes_start_with_versioned_header() {
        let bytes = canonical_program_bytes(&saxpy());
        assert_eq!(&bytes[..8], CANON_MAGIC);
        let n = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        assert_eq!(n as usize, saxpy().insts().len());
    }
}
