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

/// One dynamic instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOp {
    /// Static instruction index.
    pub pc: u32,
    /// Execution resource class.
    pub exec: ExecClass,
    /// Source registers (stream registers included — the timing model
    /// treats stream operands through the FIFO readiness interface instead
    /// of the register file when listed in `stream_reads`).
    pub srcs: Vec<RegRef>,
    /// Destination registers.
    pub dests: Vec<RegRef>,
    /// Cache lines touched by an explicit (non-stream) memory access.
    pub mem_lines: Vec<u64>,
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
}

impl TraceOp {
    /// Creates a bare trace op for instruction `pc` of class `exec`.
    pub fn new(pc: u32, exec: ExecClass) -> Self {
        Self {
            pc,
            exec,
            srcs: Vec::new(),
            dests: Vec::new(),
            mem_lines: Vec::new(),
            mem_addr: 0,
            is_store: false,
            branch: None,
            stream_reads: Vec::new(),
            stream_writes: Vec::new(),
            stream_open: None,
            stream_close: None,
            stream_faults: 0,
        }
    }
}

/// A complete dynamic trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Dynamic instructions in program order.
    pub ops: Vec<TraceOp>,
    /// Stream instance side tables.
    pub streams: Vec<StreamTrace>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
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
        for op in &mut trace.ops {
            for line in &mut op.mem_lines {
                *line = self.line(*line);
            }
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
