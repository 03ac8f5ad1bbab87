//! Data-parallel trace sharding.
//!
//! The sharded-kernel evaluation mode runs the *same* kernel trace on every
//! core, with each core's written working set relocated to a private slice
//! of the address space — except for the first few written lines, which stay
//! at their original addresses on every core. The result is a workload with
//! a controlled mix of coherence behaviours:
//!
//! - **private writes** (the relocated majority): each core takes lines to
//!   `Modified` in its own L1 with no bus interference;
//! - **shared writes** (the retained prefix): every core writes the same
//!   lines, so ownership migrates over the snoop bus — cross-core
//!   invalidations, `M`/`O` → `S` downgrades, and dirty cache-to-cache
//!   forwarding all fire on the previously-dead MOESI hooks;
//! - **shared reads** (untouched read-only inputs): all cores load the same
//!   input arrays and hold them `Shared`.
//!
//! The relocation is a [`Relocation`] per core, applied to each line as
//! the core requests it ([`crate::run_sharded`]), so every core replays
//! the one shared trace; [`shard_trace`] applies the same relocation to a
//! copy and remains as the reference.

use uve_core::{Relocation, Trace};
use uve_isa::Dir;
use uve_mem::IntSet;

/// Distance between per-core private address-space slices, in cache lines
/// (`1 << 20` lines = 64 MiB). Far larger than any kernel footprint, so
/// relocated lines never collide with another core's slice or with the
/// shared inputs.
pub const SHARD_STRIDE_LINES: u64 = 1 << 20;

/// Cache lines written by the trace — explicit stores and store-stream
/// chunks — in deterministic first-touch order, deduplicated.
pub fn written_lines(trace: &Trace) -> Vec<u64> {
    let mut seen = IntSet::default();
    let mut out = Vec::new();
    for op in &trace.ops {
        if op.is_store() {
            for &line in trace.mem_lines(op) {
                if seen.insert(line) {
                    out.push(line);
                }
            }
        }
    }
    for s in &trace.streams {
        if s.dir == Dir::Store {
            for chunk in &s.chunks {
                for &line in &chunk.lines {
                    if seen.insert(line) {
                        out.push(line);
                    }
                }
            }
        }
    }
    out
}

/// The relocation of each of `cores` cores sharing `trace`: every written
/// line except the first `shared_written` (and every read-only line) is
/// private, and core `c` moves its private lines by
/// `c * SHARD_STRIDE_LINES`. Core 0 is the identity.
pub(crate) fn shard_relocations(
    trace: &Trace,
    cores: usize,
    shared_written: usize,
) -> Vec<Relocation> {
    let private = Relocation::new(written_lines(trace).into_iter().skip(shared_written), 0);
    (0..cores)
        .map(|c| private.with_delta(c as u64 * SHARD_STRIDE_LINES))
        .collect()
}

/// A copy of `trace` relocated for `core`: every written line except the
/// first `shared_written` is private, and core `c` moves each private line
/// by `c * SHARD_STRIDE_LINES` everywhere it appears (explicit accesses
/// and stream chunk line lists — including indirection-origin reads), so
/// the copy stays self-consistent. Core 0
/// runs the unmodified trace. The reference for [`crate::run_sharded`],
/// which applies the same relocation without copying.
pub fn shard_trace(trace: &Trace, core: usize, shared_written: usize) -> Trace {
    let mut out = trace.clone();
    if core > 0 {
        shard_relocations(trace, core + 1, shared_written)[core].apply(&mut out);
    }
    out
}

/// Relocates *every* line of `trace` into address-space slot `slot` —
/// reads and writes alike — modelling the disjoint physical address spaces
/// of unrelated programs in a multi-programmed mix. Slot 0 is the identity.
///
/// Without this, two different kernels time-sliced over the same hierarchy
/// would write the same physical lines (every kernel generator places its
/// arrays at the same low addresses) and false-share them through the
/// coherence protocol.
pub fn relocate_trace(trace: &Trace, slot: usize) -> Trace {
    let mut out = trace.clone();
    if slot == 0 {
        return out;
    }
    let delta = slot as u64 * SHARD_STRIDE_LINES;
    for line in out.lines_mut() {
        *line += delta;
    }
    for s in &mut out.streams {
        for chunk in &mut s.chunks {
            for line in &mut chunk.lines {
                *line += delta;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use uve_core::{ChunkMeta, StreamTrace, TraceOp};
    use uve_isa::{ElemWidth, ExecClass, MemLevel};

    fn toy_trace() -> Trace {
        let mut t = Trace::new();
        let mut store = TraceOp::new(0, ExecClass::Store);
        store.set_store();
        t.push_op(store, &[], &[], &[10, 11]);
        t.push_op(TraceOp::new(1, ExecClass::Load), &[], &[], &[10, 99]);
        let mut produce = TraceOp::new(2, ExecClass::VecInt);
        t.push_stream_write(&mut produce, (0, 0));
        t.push_op(produce, &[], &[], &[]);
        t.streams.push(StreamTrace {
            u: 2,
            dir: Dir::Store,
            level: MemLevel::L2,
            width: ElemWidth::Word,
            chunks: vec![ChunkMeta {
                lines: vec![11, 20],
                dim_switches: 0,
                valid: 16,
            }],
            cfg_insts: 1,
        });
        t
    }

    /// Every op's access lines, in op order: the whole line arena.
    fn line_arena(t: &Trace) -> Vec<u64> {
        t.ops
            .iter()
            .flat_map(|op| t.mem_lines(op))
            .copied()
            .collect()
    }

    /// Relocation moves lines only: the ops and their stream chunk
    /// references stay as they were.
    fn assert_only_lines_moved(moved: &Trace, orig: &Trace) {
        assert_eq!(moved.ops, orig.ops);
        for (a, b) in moved.ops.iter().zip(&orig.ops) {
            assert_eq!(moved.stream_reads(a), orig.stream_reads(b));
            assert_eq!(moved.stream_writes(a), orig.stream_writes(b));
        }
        assert_eq!(moved.stream_writes(&moved.ops[2]), [(0, 0)]);
    }

    #[test]
    fn written_lines_are_deduped_in_order() {
        assert_eq!(written_lines(&toy_trace()), vec![10, 11, 20]);
    }

    #[test]
    fn core_zero_is_untouched() {
        let t = toy_trace();
        let s = shard_trace(&t, 0, 1);
        assert_eq!(s.mem_lines(&s.ops[0]), t.mem_lines(&t.ops[0]));
        assert_eq!(s.streams[0].chunks[0].lines, t.streams[0].chunks[0].lines);
    }

    #[test]
    fn private_writes_relocate_and_shared_prefix_stays() {
        let t = toy_trace();
        // First written line (10) stays shared; 11 and 20 go private.
        let s = shard_trace(&t, 2, 1);
        let d = 2 * SHARD_STRIDE_LINES;
        assert_eq!(s.mem_lines(&s.ops[0]), [10, 11 + d]);
        // The read of written line 10 stays shared; read-only 99 untouched.
        assert_eq!(s.mem_lines(&s.ops[1]), [10, 99]);
        assert_eq!(line_arena(&s), [10, 11 + d, 10, 99]);
        assert_eq!(s.streams[0].chunks[0].lines, vec![11 + d, 20 + d]);
        assert_only_lines_moved(&s, &t);
    }

    #[test]
    fn relocation_moves_every_line() {
        let t = toy_trace();
        let r = relocate_trace(&t, 2);
        let d = 2 * SHARD_STRIDE_LINES;
        assert_eq!(r.mem_lines(&r.ops[0]), [10 + d, 11 + d]);
        assert_eq!(r.mem_lines(&r.ops[1]), [10 + d, 99 + d]);
        assert_eq!(line_arena(&r), [10 + d, 11 + d, 10 + d, 99 + d]);
        assert_only_lines_moved(&r, &t);
        assert_eq!(r.streams[0].chunks[0].lines, vec![11 + d, 20 + d]);
        let id = relocate_trace(&t, 0);
        assert_eq!(id.mem_lines(&id.ops[0]), t.mem_lines(&t.ops[0]));
    }

    #[test]
    fn all_written_lines_shared_means_identity() {
        let t = toy_trace();
        let s = shard_trace(&t, 3, usize::MAX);
        assert_eq!(s.mem_lines(&s.ops[0]), t.mem_lines(&t.ops[0]));
        assert_eq!(s.streams[0].chunks[0].lines, t.streams[0].chunks[0].lines);
    }
}
