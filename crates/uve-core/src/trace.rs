//! Dynamic instruction traces: the bridge between the functional emulator
//! and the out-of-order timing model.
//!
//! The emulator executes a program with full ISA semantics and records, per
//! dynamic instruction, everything the timing model needs: register
//! dependencies, touched cache lines, branch outcomes, and — for stream
//! operations — which *chunk* of which stream instance was consumed or
//! produced. Per-stream side tables ([`StreamTrace`]) describe the exact
//! line-request sequence of every chunk, so the timing Streaming Engine can
//! replay the paper's address-generator behaviour (one line request per
//! cycle, one extra cycle per descriptor-dimension switch, same-line
//! coalescing) without re-walking descriptors.

use std::fmt;
use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::Arc;
use uve_isa::{Dir, ElemWidth, ExecClass, MemLevel, RegRef};
use uve_mem::LINE_BYTES;

/// Identifier of a dynamic stream instance (one per completed stream
/// configuration; a register reconfigured `n` times yields `n` instances).
pub type StreamInstance = u32;

/// Metadata of one vector-register-sized stream chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Cache-line addresses backing the chunk, in first-touch order and
    /// deduplicated for consecutive repeats (the engine's request
    /// coalescing). Includes lines read by indirection origins.
    pub lines: Vec<u64>,
    /// Descriptor-dimension switches performed while generating the chunk.
    pub dim_switches: u32,
    /// Valid elements in the chunk.
    pub valid: u32,
}

/// Per-instance stream description recorded by the emulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamTrace {
    /// Architectural register the stream was bound to (`u0`–`u31`).
    pub u: u8,
    /// Input (load) or output (store).
    pub dir: Dir,
    /// Memory level the stream was directed at.
    pub level: MemLevel,
    /// Element width.
    pub width: ElemWidth,
    /// The chunk sequence, in consumption/production order.
    pub chunks: Vec<ChunkMeta>,
    /// Number of configuration instructions used (SCROB occupancy).
    pub cfg_insts: u32,
}

impl StreamTrace {
    /// Total elements transferred by this stream.
    pub fn elements(&self) -> u64 {
        self.chunks.iter().map(|c| u64::from(c.valid)).sum()
    }

    /// Total line requests issued by this stream.
    pub fn line_requests(&self) -> u64 {
        self.chunks.iter().map(|c| c.lines.len() as u64).sum()
    }
}

/// Branch outcome of a dynamic control-transfer instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchOutcome {
    /// Whether the branch was taken.
    pub taken: bool,
    /// The next PC actually followed.
    pub next_pc: u32,
}

/// A zero-sized stand-in for a `Vec<T>` that is always empty: it derefs to
/// one shared empty `static` vector per element type, so it costs an op no
/// bytes and reads as zero length and zero capacity.
pub struct EmptyVec<T: 'static>(PhantomData<fn() -> T>);

/// An element type with a shared empty vector for [`EmptyVec`] to deref to.
pub trait EmptyVecElem: Sized + 'static {
    /// The shared empty vector.
    fn empty() -> &'static Vec<Self>;
}

impl EmptyVecElem for RegRef {
    fn empty() -> &'static Vec<Self> {
        static EMPTY: Vec<RegRef> = Vec::new();
        &EMPTY
    }
}

impl EmptyVecElem for u64 {
    fn empty() -> &'static Vec<Self> {
        static EMPTY: Vec<u64> = Vec::new();
        &EMPTY
    }
}

impl<T: EmptyVecElem> Deref for EmptyVec<T> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        T::empty()
    }
}

impl<T> Default for EmptyVec<T> {
    fn default() -> Self {
        Self(PhantomData)
    }
}

impl<T> Clone for EmptyVec<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for EmptyVec<T> {}

impl<T> PartialEq for EmptyVec<T> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl<T> fmt::Debug for EmptyVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[]")
    }
}

/// One dynamic instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOp {
    /// Static instruction index.
    pub pc: u32,
    /// Execution resource class.
    pub exec: ExecClass,
    /// Zero-sized and always empty: an op's registers and lines live in
    /// the trace's arenas, read through [`Trace::srcs`], [`Trace::dests`]
    /// and [`Trace::mem_lines`]. These three fields exist only because the
    /// benchmark's `perfbench/src/traced.rs` reads their capacity; the
    /// compact-record change deletes them once the benchmark counts trace
    /// memory with [`Trace::resident_bytes`].
    pub srcs: EmptyVec<RegRef>,
    /// Zero-sized and always empty; see `srcs`.
    pub dests: EmptyVec<RegRef>,
    /// Zero-sized and always empty; see `srcs`.
    pub mem_lines: EmptyVec<u64>,
    /// First byte address of the access (prefetcher training key uses
    /// `pc`).
    pub mem_addr: u64,
    /// `true` if the explicit access is a store.
    pub is_store: bool,
    /// Branch outcome, for control-transfer instructions.
    pub branch: Option<BranchOutcome>,
    /// Stream chunks consumed: `(instance, chunk index)`.
    pub stream_reads: Vec<(StreamInstance, u32)>,
    /// Stream chunks produced.
    pub stream_writes: Vec<(StreamInstance, u32)>,
    /// Stream instance whose configuration this instruction *completes*.
    pub stream_open: Option<StreamInstance>,
    /// Stream instance terminated by this instruction (explicit stop or
    /// completion-signalling consumption).
    pub stream_close: Option<StreamInstance>,
    /// Precise stream faults this instruction trapped on before finally
    /// executing (each one cost a handler round trip; the timing model
    /// charges `fault_trap_penalty` per fault).
    pub stream_faults: u32,
    /// Index of the op's first register in [`Trace::regs`]: `n_srcs`
    /// sources, then `n_dests` destinations.
    regs_at: u32,
    /// Index of the op's first line in [`Trace::lines`].
    lines_at: u32,
    n_lines: u16,
    n_srcs: u8,
    n_dests: u8,
}

impl TraceOp {
    /// Creates a bare trace op for instruction `pc` of class `exec`.
    pub fn new(pc: u32, exec: ExecClass) -> Self {
        Self {
            pc,
            exec,
            srcs: EmptyVec::default(),
            dests: EmptyVec::default(),
            mem_lines: EmptyVec::default(),
            mem_addr: 0,
            is_store: false,
            branch: None,
            stream_reads: Vec::new(),
            stream_writes: Vec::new(),
            stream_open: None,
            stream_close: None,
            stream_faults: 0,
            regs_at: 0,
            lines_at: 0,
            n_lines: 0,
            n_srcs: 0,
            n_dests: 0,
        }
    }
}

/// A complete dynamic trace.
///
/// Each op's register operands and explicit-access lines live in two
/// per-trace arenas rather than in per-op vectors, so recording an op
/// allocates nothing of its own; an op holds only its ranges into them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Dynamic instructions in program order.
    pub ops: Vec<TraceOp>,
    /// Stream instance side tables.
    pub streams: Vec<StreamTrace>,
    /// Register arena: each op's source registers, then its destination
    /// registers (stream registers excluded — the timing model reaches
    /// stream operands through the FIFO readiness interface).
    pub(crate) regs: Vec<RegRef>,
    /// Line arena: the cache lines each op's explicit (non-stream) access
    /// touches, in access order, with consecutive repeats merged.
    pub(crate) lines: Vec<u64>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `op` with its source and destination registers and the
    /// lines its explicit access touches.
    pub fn push_op(&mut self, op: TraceOp, srcs: &[RegRef], dests: &[RegRef], lines: &[u64]) {
        let (regs_at, lines_at) = (self.regs.len(), self.lines.len());
        self.regs.extend_from_slice(srcs);
        self.regs.extend_from_slice(dests);
        self.lines.extend_from_slice(lines);
        self.seal(op, regs_at, srcs.len(), lines_at);
    }

    /// Appends `op`, whose registers were pushed on the register arena
    /// from `regs_at` (`n_srcs` sources, then destinations) and whose
    /// lines were pushed on the line arena from `lines_at`.
    pub(crate) fn seal(&mut self, mut op: TraceOp, regs_at: usize, n_srcs: usize, lines_at: usize) {
        let index = |at: usize| u32::try_from(at).expect("trace arena index exceeds u32");
        op.regs_at = index(regs_at);
        op.n_srcs = u8::try_from(n_srcs).expect("more than 255 source registers");
        op.n_dests = u8::try_from(self.regs.len() - regs_at - n_srcs)
            .expect("more than 255 destination registers");
        op.lines_at = index(lines_at);
        op.n_lines =
            u16::try_from(self.lines.len() - lines_at).expect("more than 65535 access lines");
        self.ops.push(op);
    }

    /// Source registers of `op`, an op of this trace.
    #[inline]
    pub fn srcs(&self, op: &TraceOp) -> &[RegRef] {
        let at = op.regs_at as usize;
        &self.regs[at..at + usize::from(op.n_srcs)]
    }

    /// Destination registers of `op`, an op of this trace.
    #[inline]
    pub fn dests(&self, op: &TraceOp) -> &[RegRef] {
        let at = op.regs_at as usize + usize::from(op.n_srcs);
        &self.regs[at..at + usize::from(op.n_dests)]
    }

    /// Cache lines `op`'s explicit (non-stream) memory access touches.
    #[inline]
    pub fn mem_lines(&self, op: &TraceOp) -> &[u64] {
        let at = op.lines_at as usize;
        &self.lines[at..at + usize::from(op.n_lines)]
    }

    /// Every op's access lines, in op order, for rewriting in place.
    pub fn lines_mut(&mut self) -> &mut [u64] {
        &mut self.lines
    }

    /// Heap bytes the trace owns, counted as capacity × element size:
    /// the op table, both arenas, each op's stream-chunk vectors, the
    /// stream table and each chunk's line list. Allocator overhead
    /// (block headers, size-class rounding) is not counted.
    pub fn resident_bytes(&self) -> u64 {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let ops: usize = self
            .ops
            .iter()
            .map(|op| bytes(&op.stream_reads) + bytes(&op.stream_writes))
            .sum();
        let streams: usize = self
            .streams
            .iter()
            .map(|s| bytes(&s.chunks) + s.chunks.iter().map(|c| bytes(&c.lines)).sum::<usize>())
            .sum();
        (bytes(&self.ops)
            + bytes(&self.regs)
            + bytes(&self.lines)
            + ops
            + bytes(&self.streams)
            + streams) as u64
    }

    /// Number of dynamic (committed) instructions.
    pub fn committed(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Committed instructions per execution class.
    pub fn class_histogram(&self) -> Vec<(ExecClass, u64)> {
        let mut map: Vec<(ExecClass, u64)> = Vec::new();
        for op in &self.ops {
            match map.iter_mut().find(|(c, _)| *c == op.exec) {
                Some((_, n)) => *n += 1,
                None => map.push((op.exec, 1)),
            }
        }
        map
    }

    /// Total dynamic branches and how many were taken.
    pub fn branch_profile(&self) -> (u64, u64) {
        let mut total = 0;
        let mut taken = 0;
        for op in &self.ops {
            if let Some(b) = op.branch {
                total += 1;
                taken += u64::from(b.taken);
            }
        }
        (total, taken)
    }
}

/// A per-core move of a trace's private cache lines, applied to each line
/// as the timing model requests it.
///
/// The multicore sharded mode runs one trace on every core with that
/// core's private lines shifted by a per-core `delta`. Relocating at the
/// request sites (load issue, store commit, stream line requests and
/// stream store commits) gives the same addresses as relocating a copy of
/// the trace up front, without the copy. Private lines are held as sorted,
/// disjoint half-open ranges shared by every core's relocation.
#[derive(Debug, Clone)]
pub struct Relocation {
    private: Arc<[(u64, u64)]>,
    delta: u64,
}

impl Relocation {
    /// The relocation that moves nothing.
    pub fn identity() -> Self {
        Self {
            private: Arc::from(Vec::new()),
            delta: 0,
        }
    }

    /// Moves every line in `private` by `delta` lines; every other line
    /// stays where it is.
    pub fn new(private: impl IntoIterator<Item = u64>, delta: u64) -> Self {
        let mut lines: Vec<u64> = private.into_iter().collect();
        lines.sort_unstable();
        lines.dedup();
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for line in lines {
            match ranges.last_mut() {
                Some((_, end)) if *end == line => *end += 1,
                _ => ranges.push((line, line + 1)),
            }
        }
        Self {
            private: ranges.into(),
            delta,
        }
    }

    /// The same private lines moved by `delta` instead.
    pub fn with_delta(&self, delta: u64) -> Self {
        Self {
            private: Arc::clone(&self.private),
            delta,
        }
    }

    /// Where `line` lives under this relocation.
    #[inline]
    pub fn line(&self, line: u64) -> u64 {
        if self.delta == 0 {
            return line;
        }
        let i = self.private.partition_point(|&(_, end)| end <= line);
        match self.private.get(i) {
            Some(&(start, _)) if start <= line => line + self.delta,
            _ => line,
        }
    }

    /// Relocates every line of `trace` in place: explicit accesses, their
    /// byte addresses, and stream chunk line lists (including
    /// indirection-origin reads), so the result stays self-consistent.
    pub fn apply(&self, trace: &mut Trace) {
        for line in &mut trace.lines {
            *line = self.line(*line);
        }
        for op in &mut trace.ops {
            let (line, offset) = (op.mem_addr / LINE_BYTES, op.mem_addr % LINE_BYTES);
            op.mem_addr = self.line(line) * LINE_BYTES + offset;
        }
        for s in &mut trace.streams {
            for chunk in &mut s.chunks {
                for line in &mut chunk.lines {
                    *line = self.line(*line);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relocation_moves_exactly_the_private_lines() {
        let r = Relocation::new([5, 3, 4, 9, 9], 0).with_delta(100);
        let moved: Vec<u64> = (2..=10).map(|l| r.line(l)).collect();
        assert_eq!(moved, vec![2, 103, 104, 105, 6, 7, 8, 109, 10]);
        assert_eq!(r.with_delta(0).line(4), 4);
        assert_eq!(Relocation::identity().line(4), 4);
    }

    fn x(num: u8) -> RegRef {
        RegRef {
            class: uve_isa::RegClass::Int,
            num,
        }
    }

    #[test]
    fn ops_read_their_own_arena_ranges() {
        let mut t = Trace::new();
        t.push_op(TraceOp::new(0, ExecClass::Load), &[x(1)], &[x(2)], &[4, 5]);
        t.ops.push(TraceOp::new(1, ExecClass::Simple));
        t.push_op(TraceOp::new(2, ExecClass::IntAlu), &[x(2), x(3)], &[], &[]);
        let [load, bare, alu] = [&t.ops[0], &t.ops[1], &t.ops[2]];
        assert_eq!((t.srcs(load), t.dests(load)), (&[x(1)][..], &[x(2)][..]));
        assert_eq!(t.mem_lines(load), [4, 5]);
        assert!(t.srcs(bare).is_empty() && t.dests(bare).is_empty());
        assert!(t.mem_lines(bare).is_empty());
        assert_eq!((t.srcs(alu), t.dests(alu)), (&[x(2), x(3)][..], &[][..]));
        assert!(t.mem_lines(alu).is_empty());
    }

    #[test]
    fn resident_bytes_counts_every_capacity() {
        let mut t = Trace {
            ops: Vec::with_capacity(4),
            streams: Vec::with_capacity(2),
            regs: Vec::with_capacity(8),
            lines: Vec::with_capacity(3),
        };
        let mut op = TraceOp::new(0, ExecClass::Load);
        op.stream_reads = Vec::with_capacity(5);
        op.stream_writes = Vec::with_capacity(1);
        t.push_op(op, &[x(1)], &[x(2)], &[7]);
        let mut chunks = Vec::with_capacity(3);
        chunks.push(ChunkMeta {
            lines: Vec::with_capacity(6),
            dim_switches: 0,
            valid: 0,
        });
        t.streams.push(StreamTrace {
            u: 0,
            dir: Dir::Load,
            level: MemLevel::L2,
            width: ElemWidth::Word,
            chunks,
            cfg_insts: 1,
        });
        let expected = 4 * std::mem::size_of::<TraceOp>()
            + 8 * std::mem::size_of::<RegRef>()
            + 3 * 8
            + 6 * std::mem::size_of::<(StreamInstance, u32)>()
            + 2 * std::mem::size_of::<StreamTrace>()
            + 3 * std::mem::size_of::<ChunkMeta>()
            + 6 * 8;
        assert_eq!(t.resident_bytes(), expected as u64);
    }

    #[test]
    fn histogram_counts() {
        let mut t = Trace::new();
        t.ops.push(TraceOp::new(0, ExecClass::IntAlu));
        t.ops.push(TraceOp::new(1, ExecClass::IntAlu));
        t.ops.push(TraceOp::new(2, ExecClass::Branch));
        let h = t.class_histogram();
        assert!(h.contains(&(ExecClass::IntAlu, 2)));
        assert!(h.contains(&(ExecClass::Branch, 1)));
        assert_eq!(t.committed(), 3);
    }

    #[test]
    fn stream_trace_totals() {
        let s = StreamTrace {
            u: 0,
            dir: Dir::Load,
            level: MemLevel::L2,
            width: ElemWidth::Word,
            chunks: vec![
                ChunkMeta {
                    lines: vec![1, 2],
                    dim_switches: 0,
                    valid: 16,
                },
                ChunkMeta {
                    lines: vec![3],
                    dim_switches: 1,
                    valid: 4,
                },
            ],
            cfg_insts: 1,
        };
        assert_eq!(s.elements(), 20);
        assert_eq!(s.line_requests(), 3);
    }

    #[test]
    fn branch_profile() {
        let mut t = Trace::new();
        let mut b = TraceOp::new(0, ExecClass::Branch);
        b.branch = Some(BranchOutcome {
            taken: true,
            next_pc: 5,
        });
        t.ops.push(b.clone());
        b.branch = Some(BranchOutcome {
            taken: false,
            next_pc: 1,
        });
        t.ops.push(b);
        assert_eq!(t.branch_profile(), (2, 1));
    }
}
