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
use uve_isa::{Dir, ElemWidth, ExecClass, MemLevel, RegClass, RegRef};

/// Identifier of a dynamic stream instance (one per completed stream
/// configuration; a register reconfigured `n` times yields `n` instances).
pub type StreamInstance = u32;

/// A stream chunk reference: `(instance, chunk index)`.
pub type ChunkRef = (StreamInstance, u32);

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

impl EmptyVecElem for ChunkRef {
    fn empty() -> &'static Vec<Self> {
        static EMPTY: Vec<ChunkRef> = Vec::new();
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

/// `TraceOp::flags` bit: the explicit access is a store.
const STORE: u8 = 1;
/// `TraceOp::flags` bit: the op is a control transfer.
const BRANCH: u8 = 2;
/// `TraceOp::flags` bit: the control transfer was taken.
const TAKEN: u8 = 4;
/// `TraceOp::stream_open`/`stream_close` value meaning "no instance".
const NO_STREAM: u32 = u32::MAX;

/// One dynamic instruction: a fixed-size record with no heap of its own.
/// Its registers, access lines and stream chunk references live in the
/// trace's arenas, read through [`Trace::srcs`], [`Trace::dests`],
/// [`Trace::mem_lines`], [`Trace::stream_reads`] and
/// [`Trace::stream_writes`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceOp {
    /// Static instruction index.
    pub pc: u32,
    /// Execution resource class.
    pub exec: ExecClass,
    /// `STORE`, `BRANCH` and `TAKEN` bits.
    flags: u8,
    /// Zero-sized and always empty: read the trace's arenas instead. This
    /// field and the four below exist only because the benchmark's
    /// `perfbench/src/traced.rs` reads their capacity; they go once it
    /// counts trace memory with [`Trace::resident_bytes`].
    pub srcs: EmptyVec<RegRef>,
    /// Zero-sized and always empty; see `srcs`.
    pub dests: EmptyVec<RegRef>,
    /// Zero-sized and always empty; see `srcs`.
    pub mem_lines: EmptyVec<u64>,
    /// Zero-sized and always empty; see `srcs`.
    pub stream_reads: EmptyVec<ChunkRef>,
    /// Zero-sized and always empty; see `srcs`.
    pub stream_writes: EmptyVec<ChunkRef>,
    /// Stream instance whose configuration this op completes, or
    /// `NO_STREAM`.
    stream_open: u32,
    /// Stream instance this op terminates, or `NO_STREAM`.
    stream_close: u32,
    /// Precise stream faults this instruction trapped on before finally
    /// executing (each one cost a handler round trip; the timing model
    /// charges `fault_trap_penalty` per fault).
    pub stream_faults: u32,
    /// Index of the op's first register in [`Trace::regs`]: `n_srcs`
    /// sources, then `n_dests` destinations.
    regs_at: u32,
    /// Index of the op's first line in [`Trace::lines`].
    lines_at: u32,
    /// Index of the op's first chunk reference in [`Trace::chunks`]:
    /// `n_reads` consumed, then `n_writes` produced.
    chunks_at: u32,
    n_lines: u16,
    n_srcs: u8,
    n_dests: u8,
    n_reads: u8,
    n_writes: u8,
}

impl TraceOp {
    /// Creates a bare trace op for instruction `pc` of class `exec`.
    pub fn new(pc: u32, exec: ExecClass) -> Self {
        Self {
            pc,
            exec,
            flags: 0,
            srcs: EmptyVec::default(),
            dests: EmptyVec::default(),
            mem_lines: EmptyVec::default(),
            stream_reads: EmptyVec::default(),
            stream_writes: EmptyVec::default(),
            stream_open: NO_STREAM,
            stream_close: NO_STREAM,
            stream_faults: 0,
            regs_at: 0,
            lines_at: 0,
            chunks_at: 0,
            n_lines: 0,
            n_srcs: 0,
            n_dests: 0,
            n_reads: 0,
            n_writes: 0,
        }
    }

    /// `true` if the explicit access is a store.
    #[inline]
    pub fn is_store(&self) -> bool {
        self.flags & STORE != 0
    }

    /// Marks the explicit access as a store.
    pub fn set_store(&mut self) {
        self.flags |= STORE;
    }

    /// For a control-transfer instruction, whether it was taken.
    #[inline]
    pub fn branch_taken(&self) -> Option<bool> {
        (self.flags & BRANCH != 0).then_some(self.flags & TAKEN != 0)
    }

    /// Marks the op as a control transfer that was (or was not) taken.
    pub fn set_branch(&mut self, taken: bool) {
        self.flags |= BRANCH;
        if taken {
            self.flags |= TAKEN;
        } else {
            self.flags &= !TAKEN;
        }
    }

    /// Stream instance whose configuration this instruction *completes*.
    #[inline]
    pub fn stream_open(&self) -> Option<StreamInstance> {
        (self.stream_open != NO_STREAM).then_some(self.stream_open)
    }

    /// Sets the instance whose configuration this instruction completes.
    pub fn set_stream_open(&mut self, inst: Option<StreamInstance>) {
        self.stream_open = stream_slot(inst);
    }

    /// Stream instance terminated by this instruction (explicit stop or
    /// completion-signalling consumption).
    #[inline]
    pub fn stream_close(&self) -> Option<StreamInstance> {
        (self.stream_close != NO_STREAM).then_some(self.stream_close)
    }

    /// Sets the instance this instruction terminates.
    pub fn set_stream_close(&mut self, inst: Option<StreamInstance>) {
        self.stream_close = stream_slot(inst);
    }

    /// `true` if the op consumes or produces a stream chunk.
    #[inline]
    pub(crate) fn touches_streams(&self) -> bool {
        (self.n_reads | self.n_writes) != 0
    }
}

/// An arena position as an op stores it.
fn index(at: usize) -> u32 {
    u32::try_from(at).expect("trace arena index exceeds u32")
}

/// The stored form of an optional stream instance.
fn stream_slot(inst: Option<StreamInstance>) -> u32 {
    match inst {
        Some(i) => {
            assert_ne!(i, NO_STREAM, "stream instance id out of range");
            i
        }
        None => NO_STREAM,
    }
}

/// A complete dynamic trace.
///
/// Each op's register operands, explicit-access lines and stream chunk
/// references live in three per-trace arenas rather than in per-op
/// vectors, so recording an op allocates nothing of its own; an op holds
/// only its ranges into them.
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
    /// Chunk arena: the stream chunks each op consumes, then those it
    /// produces.
    pub(crate) chunks: Vec<ChunkRef>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `op` with its source and destination registers and the
    /// lines its explicit access touches. Its stream chunks are those
    /// recorded on it with [`push_stream_read`](Self::push_stream_read)
    /// and [`push_stream_write`](Self::push_stream_write).
    pub fn push_op(&mut self, op: TraceOp, srcs: &[RegRef], dests: &[RegRef], lines: &[u64]) {
        let (regs_at, lines_at) = (self.regs.len(), self.lines.len());
        self.regs.extend_from_slice(srcs);
        self.regs.extend_from_slice(dests);
        self.lines.extend_from_slice(lines);
        self.seal(op, regs_at, srcs.len(), lines_at);
    }

    /// Records that `op`, the next op to be appended, consumes `chunk`.
    /// An op's chunks go on the arena in one run, its reads first, and no
    /// other op's in between.
    pub fn push_stream_read(&mut self, op: &mut TraceOp, chunk: ChunkRef) {
        assert_eq!(op.n_writes, 0, "an op's stream reads precede its writes");
        self.push_chunk(op, chunk);
        op.n_reads += 1;
    }

    /// Records that `op`, the next op to be appended, produces `chunk`.
    pub fn push_stream_write(&mut self, op: &mut TraceOp, chunk: ChunkRef) {
        self.push_chunk(op, chunk);
        op.n_writes += 1;
    }

    fn push_chunk(&mut self, op: &mut TraceOp, chunk: ChunkRef) {
        if !op.touches_streams() {
            op.chunks_at = index(self.chunks.len());
        }
        debug_assert_eq!(
            op.chunks_at as usize + usize::from(op.n_reads + op.n_writes),
            self.chunks.len(),
            "another op's chunks were pushed in between"
        );
        assert!(op.n_reads + op.n_writes < u8::MAX, "too many stream chunks");
        self.chunks.push(chunk);
    }

    /// Appends `op`, the emulator's record of an instruction with sources
    /// `srcs` and destinations `dests`, whose lines were pushed on the line
    /// arena from `lines_at`. A vector register bound to a stream the op
    /// reads or writes is left out: the timing model reaches stream
    /// operands through the FIFO readiness interface instead.
    pub(crate) fn record(
        &mut self,
        op: TraceOp,
        srcs: &[RegRef],
        dests: &[RegRef],
        lines_at: usize,
    ) {
        let regs_at = self.regs.len();
        if !op.touches_streams() {
            self.regs.extend_from_slice(srcs);
            self.regs.extend_from_slice(dests);
            self.seal(op, regs_at, srcs.len(), lines_at);
            return;
        }
        let Self {
            regs,
            streams,
            chunks,
            ..
        } = self;
        let at = op.chunks_at as usize;
        let (reads, writes) = chunks[at..at + usize::from(op.n_reads + op.n_writes)]
            .split_at(usize::from(op.n_reads));
        let bound = |r: &RegRef, refs: &[ChunkRef]| {
            r.class == RegClass::Vec && refs.iter().any(|&(i, _)| streams[i as usize].u == r.num)
        };
        regs.extend(srcs.iter().filter(|r| !bound(r, reads)));
        let n_srcs = regs.len() - regs_at;
        regs.extend(dests.iter().filter(|r| !bound(r, writes)));
        self.seal(op, regs_at, n_srcs, lines_at);
    }

    /// Appends `op`, whose registers were pushed on the register arena
    /// from `regs_at` (`n_srcs` sources, then destinations) and whose
    /// lines were pushed on the line arena from `lines_at`.
    fn seal(&mut self, mut op: TraceOp, regs_at: usize, n_srcs: usize, lines_at: usize) {
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

    /// Stream chunks `op` consumes, in operand order.
    #[inline]
    pub fn stream_reads(&self, op: &TraceOp) -> &[ChunkRef] {
        let at = op.chunks_at as usize;
        &self.chunks[at..at + usize::from(op.n_reads)]
    }

    /// Stream chunks `op` produces.
    #[inline]
    pub fn stream_writes(&self, op: &TraceOp) -> &[ChunkRef] {
        let at = op.chunks_at as usize + usize::from(op.n_reads);
        &self.chunks[at..at + usize::from(op.n_writes)]
    }

    /// Gives back the growth slack of the op table, the three arenas, the
    /// stream table and each stream's chunk table. The emulator calls this
    /// at halt, so a finished trace holds no more than its contents (each
    /// chunk's own line list aside).
    pub fn shrink_to_fit(&mut self) {
        self.ops.shrink_to_fit();
        self.regs.shrink_to_fit();
        self.lines.shrink_to_fit();
        self.chunks.shrink_to_fit();
        self.streams.shrink_to_fit();
        for stream in &mut self.streams {
            stream.chunks.shrink_to_fit();
        }
    }

    /// Every op's access lines, in op order, for rewriting in place.
    pub fn lines_mut(&mut self) -> &mut [u64] {
        &mut self.lines
    }

    /// Heap bytes the trace owns, counted as capacity × element size:
    /// the op table, the three arenas, the stream table and each chunk's
    /// line list. Allocator overhead (block headers, size-class rounding)
    /// is not counted.
    pub fn resident_bytes(&self) -> u64 {
        self.heap_bytes(true)
    }

    /// The same sum as [`resident_bytes`](Self::resident_bytes) by length
    /// instead of capacity: the bytes the trace's contents fill, without
    /// the slack its vectors grew.
    pub fn used_bytes(&self) -> u64 {
        self.heap_bytes(false)
    }

    /// Sums capacity (or length) × element size over every vector the
    /// trace owns.
    fn heap_bytes(&self, by_capacity: bool) -> u64 {
        fn shape<T>(v: &Vec<T>) -> [usize; 3] {
            [v.len(), v.capacity(), std::mem::size_of::<T>()]
        }
        let bytes = |[len, cap, size]: [usize; 3]| if by_capacity { cap } else { len } * size;
        let streams: usize = self
            .streams
            .iter()
            .map(|s| {
                bytes(shape(&s.chunks))
                    + s.chunks
                        .iter()
                        .map(|c| bytes(shape(&c.lines)))
                        .sum::<usize>()
            })
            .sum();
        let tables = [
            shape(&self.ops),
            shape(&self.regs),
            shape(&self.lines),
            shape(&self.chunks),
            shape(&self.streams),
        ];
        (tables.into_iter().map(bytes).sum::<usize>() + streams) as u64
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
            if let Some(t) = op.branch_taken() {
                total += 1;
                taken += u64::from(t);
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

    /// Relocates every line of `trace` in place: explicit accesses and
    /// stream chunk line lists (including indirection-origin reads), so
    /// the result stays self-consistent. Ops and chunk references do not
    /// change.
    pub fn apply(&self, trace: &mut Trace) {
        for line in &mut trace.lines {
            *line = self.line(*line);
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
    fn ops_are_compact_records_without_drop_glue() {
        assert!(std::mem::size_of::<TraceOp>() <= 40);
        assert!(!std::mem::needs_drop::<TraceOp>());
    }

    #[test]
    fn op_flags_and_stream_ids_read_back() {
        let mut op = TraceOp::new(3, ExecClass::Store);
        assert!(!op.is_store() && op.branch_taken().is_none());
        assert_eq!((op.stream_open(), op.stream_close()), (None, None));
        op.set_store();
        op.set_stream_open(Some(0));
        op.set_stream_close(Some(7));
        assert!(op.is_store() && op.branch_taken().is_none());
        assert_eq!((op.stream_open(), op.stream_close()), (Some(0), Some(7)));
        op.set_stream_close(None);
        assert_eq!(op.stream_close(), None);
    }

    /// Two stream ops around a plain one: a two-read op, a one-write op
    /// with an access line, and an op that reads and writes.
    fn stream_trace() -> Trace {
        let mut t = Trace::new();
        let mut add = TraceOp::new(0, ExecClass::FpAdd);
        t.push_stream_read(&mut add, (0, 0));
        t.push_stream_read(&mut add, (1, 0));
        t.push_op(add, &[], &[], &[]);
        t.push_op(TraceOp::new(1, ExecClass::Load), &[x(1)], &[x(2)], &[4]);
        let mut st = TraceOp::new(2, ExecClass::VecInt);
        t.push_stream_write(&mut st, (2, 5));
        t.push_op(st, &[], &[], &[9]);
        let mut mv = TraceOp::new(3, ExecClass::VecInt);
        t.push_stream_read(&mut mv, (0, 1));
        t.push_stream_write(&mut mv, (2, 6));
        t.push_op(mv, &[], &[], &[]);
        t
    }

    fn chunk_refs(t: &Trace) -> Vec<(Vec<ChunkRef>, Vec<ChunkRef>)> {
        t.ops
            .iter()
            .map(|op| (t.stream_reads(op).to_vec(), t.stream_writes(op).to_vec()))
            .collect()
    }

    #[test]
    fn ops_read_their_own_chunk_ranges() {
        let t = stream_trace();
        assert_eq!(
            chunk_refs(&t),
            [
                (vec![(0, 0), (1, 0)], vec![]),
                (vec![], vec![]),
                (vec![], vec![(2, 5)]),
                (vec![(0, 1)], vec![(2, 6)]),
            ]
        );
        assert!(t.ops[0].touches_streams() && !t.ops[1].touches_streams());
        assert_eq!(t.mem_lines(&t.ops[2]), [9]);
    }

    #[test]
    #[should_panic(expected = "stream reads precede its writes")]
    fn a_read_after_a_write_is_refused() {
        let mut t = Trace::new();
        let mut op = TraceOp::new(0, ExecClass::VecInt);
        t.push_stream_write(&mut op, (0, 0));
        t.push_stream_read(&mut op, (1, 0));
    }

    #[test]
    fn relocation_moves_lines_and_keeps_ops_and_chunk_refs() {
        let mut t = stream_trace();
        t.streams.push(StreamTrace {
            u: 0,
            dir: Dir::Load,
            level: MemLevel::L2,
            width: ElemWidth::Word,
            chunks: vec![ChunkMeta {
                lines: vec![4, 8],
                dim_switches: 0,
                valid: 16,
            }],
            cfg_insts: 1,
        });
        let before = t.clone();
        Relocation::new([4, 9], 0).with_delta(100).apply(&mut t);
        assert_eq!(t.ops, before.ops);
        assert_eq!(chunk_refs(&t), chunk_refs(&before));
        assert_eq!(t.regs, before.regs);
        assert_eq!(t.lines, [104, 109]);
        assert_eq!(t.streams[0].chunks[0].lines, [104, 8]);
    }

    #[test]
    fn resident_and_used_bytes_count_every_vector() {
        let mut t = Trace {
            ops: Vec::with_capacity(4),
            streams: Vec::with_capacity(2),
            regs: Vec::with_capacity(8),
            lines: Vec::with_capacity(3),
            chunks: Vec::with_capacity(5),
        };
        let mut op = TraceOp::new(0, ExecClass::Load);
        t.push_stream_read(&mut op, (0, 0));
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
            + 5 * std::mem::size_of::<ChunkRef>()
            + 2 * std::mem::size_of::<StreamTrace>()
            + 3 * std::mem::size_of::<ChunkMeta>()
            + 6 * 8;
        assert_eq!(t.resident_bytes(), expected as u64);
        let used = std::mem::size_of::<TraceOp>()
            + 2 * std::mem::size_of::<RegRef>()
            + 8
            + std::mem::size_of::<ChunkRef>()
            + std::mem::size_of::<StreamTrace>()
            + std::mem::size_of::<ChunkMeta>();
        assert_eq!(t.used_bytes(), used as u64);
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
        b.set_branch(true);
        t.ops.push(b);
        assert_eq!(b.branch_taken(), Some(true));
        b.set_branch(false);
        t.ops.push(b);
        assert_eq!(b.branch_taken(), Some(false));
        t.ops.push(TraceOp::new(1, ExecClass::IntAlu));
        assert_eq!(t.ops[2].branch_taken(), None);
        assert_eq!(t.branch_profile(), (2, 1));
    }
}
