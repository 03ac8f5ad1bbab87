//! The functional emulator: executes a [`Program`] with full ISA semantics,
//! producing results in memory and a dynamic [`Trace`] for the timing model.

use crate::stream_unit::{StreamError, StreamUnit};
use crate::trace::{Trace, TraceOp};
use crate::value::{PredVal, Scalar, VecVal};
use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;
use uve_isa::{
    AluOp, BrCond, Dir, DupSrc, ElemWidth, ExecClass, FpOp, FpUnOp, HorizOp, Inst, PredCond,
    PredOp, Program, RegList, StreamCond, StreamCtl, VCmpOp, VOp, VReg, VType, VUnOp, XReg,
};
use uve_mem::{fnv1a, Memory, FNV_OFFSET, LINE_BYTES};

/// Emulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmuConfig {
    /// Vector length in bytes (512-bit = 64 by default; NEON-like baselines
    /// run with 16).
    pub vlen_bytes: usize,
    /// Dynamic instruction budget; exceeding it aborts the run.
    pub max_steps: u64,
    /// Record a trace (disable for pure functional runs to save memory).
    pub record_trace: bool,
    /// Default memory level for streams (Fig. 11 knob; `so.cfg.mem`
    /// overrides per register).
    pub stream_level: uve_isa::MemLevel,
    /// Chunking mode for indirectly modified streams: packed to full vector
    /// width (default) or closed at every dimension-0 boundary.
    pub packing: uve_stream::IndirectPacking,
}

impl Default for EmuConfig {
    fn default() -> Self {
        Self {
            vlen_bytes: 64,
            max_steps: 200_000_000,
            record_trace: true,
            stream_level: uve_isa::MemLevel::L2,
            packing: uve_stream::IndirectPacking::default(),
        }
    }
}

/// The emulator's execution strategy. Decode-dispatch interpretation is the
/// only one: emulation is a small share of every traced run, so a faster
/// executor does not pay for a second semantics to keep bit-identical.
///
/// The type survives only as the `exec` field of the sweep service's
/// `PointSpec` and the matching parameter of `Runner::trace_full`, which
/// external callers still name. `PointSpec` encodes it as tag byte 0, so job
/// keys and durable cache rows are unchanged by the mode's removal; the
/// field goes with the next model-epoch bump.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Decode-dispatch interpretation, one instruction at a time.
    #[default]
    Interpret,
}

/// Errors aborting emulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmuError {
    /// A stream operation failed.
    Stream {
        /// Program counter of the offending instruction.
        pc: u32,
        /// The underlying stream error.
        err: StreamError,
    },
    /// The PC left the program without reaching `halt`.
    PcOutOfRange(u32),
    /// The dynamic instruction budget was exhausted (likely an infinite
    /// loop).
    OutOfFuel(u64),
    /// An instruction combined operands in a way the ISA leaves undefined
    /// (e.g. a bitwise vector op with an FP type tag).
    Unsupported {
        /// Program counter of the offending instruction.
        pc: u32,
        /// What was attempted.
        what: String,
    },
    /// A lane extraction addressed beyond the active vector length.
    LaneOutOfRange {
        /// Program counter of the offending instruction.
        pc: u32,
        /// Requested lane.
        lane: u8,
        /// Active lanes at the instruction's width.
        lanes: usize,
    },
    /// An internal invariant failed — a model bug, reported as an error
    /// instead of a panic so sweeps and fuzzers can isolate the input.
    Internal {
        /// Program counter of the offending instruction.
        pc: u32,
        /// The violated invariant.
        what: &'static str,
    },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::Stream { pc, err } => write!(f, "stream error at pc {pc}: {err}"),
            EmuError::PcOutOfRange(pc) => write!(f, "pc {pc} out of range (missing halt?)"),
            EmuError::OutOfFuel(n) => write!(f, "exceeded instruction budget of {n}"),
            EmuError::Unsupported { pc, what } => write!(f, "unsupported at pc {pc}: {what}"),
            EmuError::LaneOutOfRange { pc, lane, lanes } => {
                write!(
                    f,
                    "pc {pc}: lane {lane} out of range ({lanes} active lanes)"
                )
            }
            EmuError::Internal { pc, what } => {
                write!(f, "internal model invariant violated at pc {pc}: {what}")
            }
        }
    }
}

impl std::error::Error for EmuError {}

/// Deterministic first-touch page-fault plan for precise stream-fault
/// testing (paper Sec. II-C/V).
///
/// Whether a page faults is a pure hash of `(seed, page)`, independent of
/// traversal order, and each page faults at most once: the first probe
/// marks it resident (the "handler" maps it), so the instruction-level
/// retry is guaranteed to make progress. Recovered runs are therefore
/// reproducible from the seed alone and end bit-identical to fault-free
/// runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamFaultPlan {
    seed: u64,
    rate: u64,
    handled: HashSet<u64>,
}

impl StreamFaultPlan {
    /// A plan faulting roughly one in `rate` first-touched pages
    /// (`rate == 0` disables injection).
    pub fn new(seed: u64, rate: u64) -> Self {
        Self {
            seed,
            rate,
            handled: HashSet::new(),
        }
    }

    /// Pages touched (and therefore mapped) so far.
    pub fn touched_pages(&self) -> usize {
        self.handled.len()
    }

    /// Decides the fate of `page`; only the very first touch can fault.
    fn faults_on(&mut self, page: u64) -> bool {
        if self.rate == 0 || !self.handled.insert(page) {
            return false;
        }
        splitmix(self.seed ^ page.wrapping_mul(0x9e37_79b9_7f4a_7c15)).is_multiple_of(self.rate)
    }
}

/// SplitMix64 finalizer — the same order-independent decision hash the
/// timing-layer injector uses.
fn splitmix(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Result of a completed emulation.
#[derive(Debug)]
pub struct RunResult {
    /// Committed dynamic instruction count.
    pub committed: u64,
    /// The dynamic trace (empty if tracing was disabled).
    pub trace: Trace,
}

/// Resumable execution position of a program on an [`Emulator`] — the
/// functional half of a context switch. A scheduler runs a program in
/// budgeted slices via [`Emulator::resume`]; between slices the cursor
/// holds the PC, the fuel spent so far and the trace accumulated so far,
/// while the architectural state (registers, memory, stream unit) lives in
/// the emulator itself.
#[derive(Debug, Default)]
pub struct RunCursor {
    pc: u32,
    steps: u64,
    halted: bool,
    trace: Trace,
    /// Each static instruction's source and destination registers, by
    /// pc, listed on the first traced slice so that recording an op copies
    /// them instead of deriving them again.
    operands: Vec<(RegList, RegList)>,
}

impl RunCursor {
    /// A cursor at the program entry point with no fuel spent.
    pub fn new() -> Self {
        Self::default()
    }

    /// Dynamic instructions committed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// True once the program reached `halt`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The trace accumulated so far (complete once [`halted`](Self::halted)).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the cursor into a [`RunResult`] (normally after halt).
    pub fn into_result(self) -> RunResult {
        RunResult {
            committed: self.steps,
            trace: self.trace,
        }
    }
}

/// The functional machine: scalar/vector/predicate registers, memory, and
/// the stream unit.
#[derive(Debug)]
pub struct Emulator {
    cfg: EmuConfig,
    /// The simulated memory (public: kernels place their arrays here).
    pub mem: Memory,
    x: [i64; 32],
    f: [f64; 32],
    v: Vec<VecVal>,
    p: Vec<PredVal>,
    streams: StreamUnit,
    /// Active vector length in bytes (`ss.setvl` can narrow it below the
    /// hardware maximum `cfg.vlen_bytes`).
    vl_bytes: usize,
    /// Optional page-fault injection plan (precise stream faults).
    fault_plan: Option<StreamFaultPlan>,
    /// Precise stream-fault traps taken and recovered so far.
    faults_taken: u64,
}

impl Emulator {
    /// Creates an emulator with the given configuration over `mem`.
    pub fn new(cfg: EmuConfig, mem: Memory) -> Self {
        let v = (0..32)
            .map(|_| VecVal::empty(cfg.vlen_bytes, ElemWidth::Word))
            .collect();
        let mut p: Vec<PredVal> = (0..16).map(|_| PredVal::all_false()).collect();
        p[0] = PredVal::all_true(); // hardwired p0
        Self {
            cfg,
            mem,
            x: [0; 32],
            f: [0.0; 32],
            v,
            p,
            streams: StreamUnit::with_config(cfg.stream_level, cfg.packing),
            vl_bytes: cfg.vlen_bytes,
            fault_plan: None,
            faults_taken: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> EmuConfig {
        self.cfg
    }

    /// Installs (or clears) a page-fault injection plan. Faulting stream
    /// elements then trap precisely at the consuming instruction, run the
    /// plan's implicit handler, and re-execute.
    pub fn set_fault_plan(&mut self, plan: Option<StreamFaultPlan>) {
        self.fault_plan = plan;
    }

    /// Precise stream-fault traps taken (and recovered) so far.
    pub fn faults_taken(&self) -> u64 {
        self.faults_taken
    }

    /// FNV-1a digest of the architectural register state (integer, FP,
    /// vector and predicate registers plus the active vector length);
    /// combined with [`Memory::content_hash`] it summarises a run's final
    /// state for bit-identity comparisons.
    pub fn arch_digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let put = |h: &mut u64, v: u64| *h = fnv1a(*h, &v.to_le_bytes());
        for &x in &self.x {
            put(&mut h, x as u64);
        }
        for &f in &self.f {
            put(&mut h, f.to_bits());
        }
        for v in &self.v {
            put(&mut h, v.width().bytes() as u64);
            for i in 0..v.lanes() {
                put(&mut h, v.int(i) as u64);
                put(&mut h, u64::from(v.lane_valid(i)));
            }
        }
        for p in &self.p {
            for i in 0..crate::value::MAX_LANES {
                put(&mut h, u64::from(p.get(i)));
            }
        }
        put(&mut h, self.vl_bytes as u64);
        h
    }

    /// Reads a scalar integer register.
    pub fn x(&self, r: XReg) -> i64 {
        self.x[r.index()]
    }

    /// Writes a scalar integer register (`x0` stays zero).
    pub fn set_x(&mut self, r: XReg, v: i64) {
        if r != XReg::ZERO {
            self.x[r.index()] = v;
        }
    }

    /// Reads a scalar FP register.
    pub fn f(&self, r: uve_isa::FReg) -> f64 {
        self.f[r.index()]
    }

    /// Writes a scalar FP register.
    pub fn set_f(&mut self, r: uve_isa::FReg, v: f64) {
        self.f[r.index()] = v;
    }

    /// Reads a vector register (plain value; does not consume streams).
    pub fn v(&self, r: VReg) -> &VecVal {
        &self.v[r.index()]
    }

    /// The stream unit (for inspection in tests).
    pub fn streams(&self) -> &StreamUnit {
        &self.streams
    }

    /// Active vector lanes at `width` (respects `ss.setvl`).
    fn lanes(&self, width: ElemWidth) -> usize {
        self.vl_bytes / width.bytes()
    }

    /// The active vector length in bytes.
    pub fn active_vlen_bytes(&self) -> usize {
        self.vl_bytes
    }

    fn is_input_stream(&self, r: VReg) -> bool {
        self.streams.get(r).is_some_and(|s| s.dir == Dir::Load)
    }

    fn is_output_stream(&self, r: VReg) -> bool {
        self.streams.get(r).is_some_and(|s| s.dir == Dir::Store)
    }

    /// Reads a vector operand, consuming one chunk if it is an input
    /// stream. Consumed registers are marked in `consumed`, a bit per
    /// register, so a register used twice in one instruction is only
    /// iterated once: the second read takes the chunk from the register,
    /// which holds it until the instruction writes its destination.
    fn read_v(
        &mut self,
        r: VReg,
        trace: &mut Trace,
        op: &mut TraceOp,
        consumed: &mut u32,
        pc: u32,
    ) -> Result<VecVal, EmuError> {
        let bit = 1u32 << r.index();
        if *consumed & bit != 0 {
            return Ok(self.v[r.index()].clone());
        }
        if self.is_input_stream(r) {
            let mut probe;
            let fault: Option<&mut dyn FnMut(u64) -> bool> = if self.fault_plan.is_some() {
                let plan = &mut self.fault_plan;
                probe = move |page: u64| plan.as_mut().is_some_and(|p| p.faults_on(page));
                Some(&mut probe)
            } else {
                None
            };
            let c = self
                .streams
                .consume_with(r, &self.mem, self.vl_bytes, trace, fault)
                .map_err(|err| EmuError::Stream { pc, err })?;
            let inst = self
                .streams
                .get(r)
                .ok_or(EmuError::Internal {
                    pc,
                    what: "stream vanished during consume",
                })?
                .instance;
            trace.push_stream_read(op, (inst, c.chunk));
            if self.streams.get(r).is_some_and(|s| s.at_end()) {
                // Pattern complete: the stream terminates and the register
                // reverts to a plain vector register (Sec. IV-A, Stream
                // Termination).
                op.set_stream_close(Some(inst));
                let _ = self.streams.stop(r);
            }
            self.v[r.index()].clone_from(&c.value);
            *consumed |= bit;
            Ok(c.value)
        } else {
            if self.is_output_stream(r) {
                return Err(EmuError::Stream {
                    pc,
                    err: StreamError::WrongDirection(r.num()),
                });
            }
            Ok(self.v[r.index()].clone())
        }
    }

    /// Writes a vector destination, producing into an output stream if one
    /// is bound.
    fn write_v(
        &mut self,
        r: VReg,
        val: VecVal,
        trace: &mut Trace,
        op: &mut TraceOp,
        pc: u32,
    ) -> Result<(), EmuError> {
        if self.is_output_stream(r) {
            let mut probe;
            let fault: Option<&mut dyn FnMut(u64) -> bool> = if self.fault_plan.is_some() {
                let plan = &mut self.fault_plan;
                probe = move |page: u64| plan.as_mut().is_some_and(|p| p.faults_on(page));
                Some(&mut probe)
            } else {
                None
            };
            let chunk = self
                .streams
                .produce_with(r, &mut self.mem, &val, trace, fault)
                .map_err(|err| EmuError::Stream { pc, err })?;
            let inst = self
                .streams
                .get(r)
                .ok_or(EmuError::Internal {
                    pc,
                    what: "stream vanished during produce",
                })?
                .instance;
            trace.push_stream_write(op, (inst, chunk));
            if self.streams.get(r).is_some_and(|s| s.at_end()) {
                op.set_stream_close(Some(inst));
                let _ = self.streams.stop(r);
            }
        } else if self.is_input_stream(r) {
            return Err(EmuError::Stream {
                pc,
                err: StreamError::WrongDirection(r.num()),
            });
        }
        self.v[r.index()] = val;
        Ok(())
    }

    fn dup_value(&self, src: DupSrc, width: ElemWidth, ty: VType) -> VecVal {
        let mut v = VecVal::empty(self.cfg.vlen_bytes, width);
        let lanes = self.lanes(width);
        for i in 0..lanes {
            match (ty, src) {
                (VType::Int, DupSrc::X(r)) => v.set_int(i, self.x[r.index()]),
                (VType::Int, DupSrc::F(r)) => v.set_int(i, self.f[r.index()] as i64),
                (VType::Fp, DupSrc::F(r)) => v.set_float(i, self.f[r.index()]),
                (VType::Fp, DupSrc::X(r)) => v.set_float(i, self.x[r.index()] as f64),
            }
            v.set_lane_valid(i, true);
        }
        v
    }

    /// Runs `program` from index 0 to `halt`.
    ///
    /// # Errors
    ///
    /// Returns the first execution error (stream misuse, runaway loop, PC
    /// escape).
    pub fn run(&mut self, program: &Program) -> Result<RunResult, EmuError> {
        let mut cursor = RunCursor::new();
        self.resume(program, &mut cursor, None)?;
        Ok(cursor.into_result())
    }

    /// Runs `program` from `cursor` for at most `budget` dynamic
    /// instructions (to halt when `None`), advancing the cursor in place —
    /// the preemption primitive a multiprogramming scheduler time-slices
    /// with. Returns `true` once the program halted. The slice boundary
    /// falls between instructions, so it can land mid-stream (including
    /// inside an indirect-modifier region at a non-VLEN-multiple element);
    /// [`save_stream_context`](Self::save_stream_context) /
    /// [`restore_stream_context`](Self::restore_stream_context) carry the
    /// stream state across the switch.
    ///
    /// # Errors
    ///
    /// Returns the first execution error; the global `max_steps` fuel bound
    /// applies to the cursor's cumulative step count.
    pub fn resume(
        &mut self,
        program: &Program,
        cursor: &mut RunCursor,
        budget: Option<u64>,
    ) -> Result<bool, EmuError> {
        if cursor.halted {
            return Ok(true);
        }
        let slice_end = budget.map(|b| cursor.steps.saturating_add(b));
        if self.cfg.record_trace && cursor.operands.is_empty() {
            cursor.operands = program
                .insts()
                .iter()
                .map(|inst| (inst.srcs(), inst.dests()))
                .collect();
        }
        loop {
            if cursor.steps >= self.cfg.max_steps {
                return Err(EmuError::OutOfFuel(self.cfg.max_steps));
            }
            if slice_end.is_some_and(|end| cursor.steps >= end) {
                return Ok(false);
            }
            if cursor.steps & 0xF_FFFF == 0 {
                crate::deadline::check("emulator");
            }
            let Some(inst) = program.fetch(cursor.pc) else {
                return Err(EmuError::PcOutOfRange(cursor.pc));
            };
            if inst == Inst::Halt {
                cursor.steps += 1;
                if self.cfg.record_trace {
                    cursor
                        .trace
                        .ops
                        .push(TraceOp::new(cursor.pc, ExecClass::Simple));
                    cursor.trace.shrink_to_fit();
                }
                cursor.halted = true;
                return Ok(true);
            }
            let operands = &cursor.operands;
            let next = if self.fault_plan.is_some() {
                self.step_with_recovery(inst, cursor.pc, &mut cursor.trace, operands)?
            } else {
                self.step(inst, cursor.pc, &mut cursor.trace, operands)?
            };
            cursor.steps += 1;
            cursor.pc = next;
        }
    }

    /// Saves the committed iteration state of every active stream — the
    /// architectural context a context switch must preserve (Sec. IV-A).
    pub fn save_stream_context(&self) -> Vec<(u8, uve_stream::SavedWalker)> {
        self.streams.save_context()
    }

    /// Restores stream contexts saved by
    /// [`save_stream_context`](Self::save_stream_context). Pre-fetched
    /// buffer data is discarded and re-loaded from memory, as the paper
    /// specifies for the restore path.
    pub fn restore_stream_context(&mut self, saved: &[(u8, uve_stream::SavedWalker)]) {
        self.streams.restore_context(saved, &self.mem);
    }

    /// Executes one instruction with precise stream-fault recovery: the
    /// architectural state (registers, stream unit, trace tail) is
    /// snapshotted, and a [`StreamError::PageFault`] rolls everything back
    /// to the snapshot — as a trap before the instruction would — runs the
    /// plan's implicit handler (the faulting page becomes resident), and
    /// re-executes. Partial stream stores need no undo: replay rewrites the
    /// same values to the same addresses. The recovered instruction's trace
    /// op records how many traps it took so the timing model can charge
    /// them.
    fn step_with_recovery(
        &mut self,
        inst: Inst,
        pc: u32,
        trace: &mut Trace,
        operands: &[(RegList, RegList)],
    ) -> Result<u32, EmuError> {
        let snap_x = self.x;
        let snap_f = self.f;
        let snap_v = self.v.clone();
        let snap_p = self.p.clone();
        let snap_vl = self.vl_bytes;
        let snap_streams = self.streams.clone();
        let ops_len = trace.ops.len();
        let (regs_len, lines_len, chunks_len) =
            (trace.regs.len(), trace.lines.len(), trace.chunks.len());
        let streams_len = trace.streams.len();
        let chunk_lens: Vec<usize> = trace.streams.iter().map(|s| s.chunks.len()).collect();
        let mut faults: u32 = 0;
        loop {
            match self.step(inst, pc, trace, operands) {
                Ok(next) => {
                    if faults > 0 {
                        if let Some(op) = trace.ops.last_mut() {
                            op.stream_faults = faults;
                        }
                    }
                    return Ok(next);
                }
                Err(EmuError::Stream {
                    err: StreamError::PageFault { .. },
                    ..
                }) => {
                    // Each page faults at most once (the probe marks it
                    // resident), so the retry loop is bounded by the pages
                    // one instruction touches.
                    faults += 1;
                    if faults > 4096 {
                        return Err(EmuError::Internal {
                            pc,
                            what: "stream-fault retry did not converge",
                        });
                    }
                    self.x = snap_x;
                    self.f = snap_f;
                    self.v.clone_from(&snap_v);
                    self.p.clone_from(&snap_p);
                    self.vl_bytes = snap_vl;
                    self.streams.clone_from(&snap_streams);
                    trace.ops.truncate(ops_len);
                    trace.regs.truncate(regs_len);
                    trace.lines.truncate(lines_len);
                    trace.chunks.truncate(chunks_len);
                    trace.streams.truncate(streams_len);
                    for (s, &len) in trace.streams.iter_mut().zip(&chunk_lens) {
                        s.chunks.truncate(len);
                    }
                    self.faults_taken += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Executes one instruction at `pc`, returning the next PC.
    #[allow(clippy::too_many_lines)]
    fn step(
        &mut self,
        inst: Inst,
        pc: u32,
        trace: &mut Trace,
        operands: &[(RegList, RegList)],
    ) -> Result<u32, EmuError> {
        let mut op = TraceOp::new(pc, inst.exec_class());
        let (lines_at, chunks_at) = (trace.lines.len(), trace.chunks.len());
        let mut next = pc + 1;
        let mut consumed = 0u32;
        let vlen = self.cfg.vlen_bytes;

        match inst {
            Inst::Alu {
                op: o,
                rd,
                rs1,
                rs2,
            } => {
                let a = self.x[rs1.index()];
                let b = self.x[rs2.index()];
                self.set_x(rd, scalar_alu(o, a, b));
            }
            Inst::AluImm {
                op: o,
                rd,
                rs1,
                imm,
            } => {
                let a = self.x[rs1.index()];
                self.set_x(rd, scalar_alu(o, a, imm as i64));
            }
            Inst::Lui { rd, imm } => self.set_x(rd, (imm as i64) << 12),
            Inst::Ld {
                rd,
                base,
                off,
                width,
            } => {
                let addr = (self.x[base.index()] + off as i64) as u64;
                self.set_x(rd, self.mem.read_elem(addr, width));
                record_mem(&mut op, &mut trace.lines, lines_at, addr, width, false);
            }
            Inst::St {
                src,
                base,
                off,
                width,
            } => {
                let addr = (self.x[base.index()] + off as i64) as u64;
                self.mem.write_elem(addr, width, self.x[src.index()]);
                record_mem(&mut op, &mut trace.lines, lines_at, addr, width, true);
            }
            Inst::Fld {
                fd,
                base,
                off,
                width,
            } => {
                let addr = (self.x[base.index()] + off as i64) as u64;
                let v = match width {
                    ElemWidth::Double => self.mem.read_f64(addr),
                    _ => self.mem.read_f32(addr) as f64,
                };
                self.set_f(fd, v);
                record_mem(&mut op, &mut trace.lines, lines_at, addr, width, false);
            }
            Inst::Fst {
                src,
                base,
                off,
                width,
            } => {
                let addr = (self.x[base.index()] + off as i64) as u64;
                match width {
                    ElemWidth::Double => self.mem.write_f64(addr, self.f[src.index()]),
                    _ => self.mem.write_f32(addr, self.f[src.index()] as f32),
                }
                record_mem(&mut op, &mut trace.lines, lines_at, addr, width, true);
            }
            Inst::FAlu {
                op: o,
                width,
                fd,
                fs1,
                fs2,
            } => {
                let a = self.f[fs1.index()];
                let b = self.f[fs2.index()];
                self.set_f(fd, fp_alu(o, a, b, width));
            }
            Inst::FMac {
                width,
                fd,
                fs1,
                fs2,
                fs3,
            } => {
                let r = self.f[fs1.index()] * self.f[fs2.index()] + self.f[fs3.index()];
                self.set_f(fd, round_fp(r, width));
            }
            Inst::FUn {
                op: o,
                width,
                fd,
                fs,
            } => {
                let a = self.f[fs.index()];
                let r = match o {
                    FpUnOp::Sqrt => a.sqrt(),
                    FpUnOp::Abs => a.abs(),
                    FpUnOp::Neg => -a,
                    FpUnOp::Mv => a,
                };
                self.set_f(fd, round_fp(r, width));
            }
            Inst::FMvXF { rd, fs } => self.set_x(rd, self.f[fs.index()].to_bits() as i64),
            Inst::FMvFX { fd, rs } => self.set_f(fd, f64::from_bits(self.x[rs.index()] as u64)),
            Inst::FCvtFX { width, fd, rs } => {
                self.set_f(fd, round_fp(self.x[rs.index()] as f64, width));
            }
            Inst::FCvtXF { width: _, rd, fs } => self.set_x(rd, self.f[fs.index()] as i64),
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let a = self.x[rs1.index()];
                let b = self.x[rs2.index()];
                let taken = match cond {
                    BrCond::Eq => a == b,
                    BrCond::Ne => a != b,
                    BrCond::Lt => a < b,
                    BrCond::Ge => a >= b,
                    BrCond::Ltu => (a as u64) < (b as u64),
                    BrCond::Geu => (a as u64) >= (b as u64),
                };
                if taken {
                    next = target;
                }
                op.set_branch(taken);
            }
            Inst::Jal { rd, target } => {
                self.set_x(rd, (pc + 1) as i64);
                next = target;
                op.set_branch(true);
            }
            Inst::Halt | Inst::Nop => {}
            Inst::SsStart {
                u,
                dir,
                width,
                base,
                size,
                stride,
                done,
            } => {
                let inst_id = self
                    .streams
                    .start(
                        u,
                        dir,
                        width,
                        self.x[base.index()] as u64,
                        self.x[size.index()] as u64,
                        self.x[stride.index()],
                        done,
                        trace,
                    )
                    .map_err(|err| EmuError::Stream { pc, err })?;
                op.set_stream_open(inst_id);
            }
            Inst::SsApp {
                u,
                offset,
                size,
                stride,
                end,
            } => {
                let inst_id = self
                    .streams
                    .append_dim(
                        u,
                        self.x[offset.index()],
                        self.x[size.index()] as u64,
                        self.x[stride.index()],
                        end,
                        trace,
                    )
                    .map_err(|err| EmuError::Stream { pc, err })?;
                op.set_stream_open(inst_id);
            }
            Inst::SsAppMod {
                u,
                target,
                behaviour,
                disp,
                count,
                end,
            } => {
                let inst_id = self
                    .streams
                    .append_static_mod(
                        u,
                        target,
                        behaviour,
                        self.x[disp.index()],
                        self.x[count.index()] as u64,
                        end,
                        trace,
                    )
                    .map_err(|err| EmuError::Stream { pc, err })?;
                op.set_stream_open(inst_id);
            }
            Inst::SsAppInd {
                u,
                target,
                behaviour,
                origin,
                end,
            } => {
                let inst_id = self
                    .streams
                    .append_indirect_mod(u, target, behaviour, origin, end, &self.mem, trace)
                    .map_err(|err| EmuError::Stream { pc, err })?;
                op.set_stream_open(inst_id);
            }
            Inst::SsCtl { op: ctl, u } => {
                let r = match ctl {
                    StreamCtl::Suspend => self.streams.suspend(u).map(|()| None),
                    StreamCtl::Resume => self.streams.resume(u).map(|()| None),
                    StreamCtl::Stop => self.streams.stop(u).map(Some),
                };
                op.set_stream_close(r.map_err(|err| EmuError::Stream { pc, err })?);
            }
            Inst::SsCfgMem { u, level } => self.streams.set_level(u, level),
            Inst::SsBranch { cond, u, target } => {
                let (flags, at_end) = self.streams.branch_flags(u).ok_or(EmuError::Stream {
                    pc,
                    err: StreamError::NotConfigured(u.num()),
                })?;
                let taken = match cond {
                    StreamCond::NotEnd => !at_end,
                    StreamCond::End => at_end,
                    StreamCond::DimNotEnd(k) => !flags.ends_dim(k as usize),
                    StreamCond::DimEnd(k) => flags.ends_dim(k as usize),
                };
                if taken {
                    next = target;
                }
                op.set_branch(taken);
            }
            Inst::SsGetVl { rd, width } => {
                self.set_x(rd, self.lanes(width) as i64);
            }
            Inst::SsSetVl { rd, rs, width } => {
                let max = self.cfg.vlen_bytes / width.bytes();
                let req = self.x[rs.index()].max(0) as usize;
                let granted = req.min(max).max(1);
                self.vl_bytes = granted * width.bytes();
                self.set_x(rd, granted as i64);
            }
            Inst::VDup { vd, src, width, ty } => {
                let val = self.dup_value(src, width, ty);
                self.write_v(vd, val, trace, &mut op, pc)?;
            }
            Inst::VMv { vd, vs } => {
                let val = self.read_v(vs, trace, &mut op, &mut consumed, pc)?;
                self.write_v(vd, val, trace, &mut op, pc)?;
            }
            Inst::VUn {
                op: o,
                ty,
                width,
                vd,
                vs,
                pred,
            } => {
                let a = self.read_v(vs, trace, &mut op, &mut consumed, pc)?;
                let out = vun(
                    o,
                    ty,
                    width,
                    &a,
                    &self.p[pred.index()],
                    self.lanes(width),
                    vlen,
                );
                self.write_v(vd, out, trace, &mut op, pc)?;
            }
            Inst::VArith {
                op: o,
                ty,
                width,
                vd,
                vs1,
                vs2,
                pred,
            } => {
                let a = self.read_v(vs1, trace, &mut op, &mut consumed, pc)?;
                let b = self.read_v(vs2, trace, &mut op, &mut consumed, pc)?;
                let out = self.lanewise(o, ty, width, &a, &b, pred, pc)?;
                self.write_v(vd, out, trace, &mut op, pc)?;
            }
            Inst::VArithVS {
                op: o,
                ty,
                width,
                vd,
                vs1,
                scalar,
                pred,
            } => {
                let a = self.read_v(vs1, trace, &mut op, &mut consumed, pc)?;
                let b = self.dup_value(scalar, width, ty);
                let out = self.lanewise(o, ty, width, &a, &b, pred, pc)?;
                self.write_v(vd, out, trace, &mut op, pc)?;
            }
            Inst::VMacVS {
                ty,
                width,
                vd,
                vs1,
                scalar,
                pred,
            } => {
                let acc = self.read_v(vd, trace, &mut op, &mut consumed, pc)?;
                let a = self.read_v(vs1, trace, &mut op, &mut consumed, pc)?;
                let b = self.dup_value(scalar, width, ty);
                let out = mac_lanes(&self.p[pred.index()], &acc, &a, &b, ty, width, vlen);
                self.write_v(vd, out, trace, &mut op, pc)?;
            }
            Inst::VMac {
                ty,
                width,
                vd,
                vs1,
                vs2,
                pred,
            } => {
                let acc = self.read_v(vd, trace, &mut op, &mut consumed, pc)?;
                let a = self.read_v(vs1, trace, &mut op, &mut consumed, pc)?;
                let b = self.read_v(vs2, trace, &mut op, &mut consumed, pc)?;
                let out = mac_lanes(&self.p[pred.index()], &acc, &a, &b, ty, width, vlen);
                self.write_v(vd, out, trace, &mut op, pc)?;
            }
            Inst::VRed {
                op: o,
                ty,
                width,
                vd,
                vs,
                pred,
            } => {
                let a = self.read_v(vs, trace, &mut op, &mut consumed, pc)?;
                let out = vred(
                    o,
                    ty,
                    width,
                    &a,
                    &self.p[pred.index()],
                    self.lanes(width),
                    vlen,
                    pc,
                )?;
                self.write_v(vd, out, trace, &mut op, pc)?;
            }
            Inst::VCmp {
                op: o,
                ty,
                width,
                pd,
                vs1,
                vs2,
            } => {
                let a = self.read_v(vs1, trace, &mut op, &mut consumed, pc)?;
                let b = self.read_v(vs2, trace, &mut op, &mut consumed, pc)?;
                let pv = vcmp(o, ty, width, &a, &b, self.lanes(width));
                self.p[pd.index()] = pv;
            }
            Inst::PredAlu {
                op: o,
                pd,
                ps1,
                ps2,
            } => {
                let a = self.p[ps1.index()].clone();
                let b = self.p[ps2.index()].clone();
                self.p[pd.index()] = match o {
                    PredOp::Mov => a,
                    PredOp::Not => a.not(crate::value::MAX_LANES),
                    PredOp::And => a.and(&b),
                    PredOp::Or => a.or(&b),
                };
                // p0 stays hardwired.
                self.p[0] = PredVal::all_true();
            }
            Inst::PredFromValid { pd, vs } => {
                let a = self.read_v(vs, trace, &mut op, &mut consumed, pc)?;
                self.p[pd.index()] = pred_from_valid(&a);
            }
            Inst::BrPred { cond, p, target } => {
                let pv = &self.p[p.index()];
                let taken = match cond {
                    PredCond::First => pv.first(),
                    PredCond::Any => pv.any(crate::value::MAX_LANES),
                    PredCond::None => !pv.any(crate::value::MAX_LANES),
                };
                if taken {
                    next = target;
                }
                op.set_branch(taken);
            }
            Inst::VExtractF {
                fd,
                vs,
                lane,
                width,
            } => {
                let lanes = self.lanes(width);
                if usize::from(lane) >= lanes {
                    return Err(EmuError::LaneOutOfRange { pc, lane, lanes });
                }
                let a = self.read_v(vs, trace, &mut op, &mut consumed, pc)?;
                let a = align_width(a, width);
                self.set_f(fd, a.float(lane as usize));
            }
            Inst::VExtractX {
                rd,
                vs,
                lane,
                width,
            } => {
                let lanes = self.lanes(width);
                if usize::from(lane) >= lanes {
                    return Err(EmuError::LaneOutOfRange { pc, lane, lanes });
                }
                let a = self.read_v(vs, trace, &mut op, &mut consumed, pc)?;
                let a = align_width(a, width);
                self.set_x(rd, a.int(lane as usize));
            }
            Inst::VLoad {
                vd,
                base,
                index,
                width,
                pred,
            } => {
                let b = self.x[base.index()] as u64;
                let idx = self.x[index.index()];
                let pm = self.p[pred.index()].clone();
                let mut out = VecVal::empty(vlen, width);
                let wb = width.bytes() as u64;
                for l in 0..self.lanes(width) {
                    if pm.get(l) {
                        let addr = b.wrapping_add(((idx + l as i64) as u64).wrapping_mul(wb));
                        out.set_int(l, self.mem.read_elem(addr, width));
                        out.set_lane_valid(l, true);
                        push_line(&mut trace.lines, lines_at, addr, wb);
                    }
                }
                self.write_v(vd, out, trace, &mut op, pc)?;
            }
            Inst::VStore {
                vs,
                base,
                index,
                width,
                pred,
            } => {
                let val = self.read_v(vs, trace, &mut op, &mut consumed, pc)?;
                let val = align_width(val, width);
                let b = self.x[base.index()] as u64;
                let idx = self.x[index.index()];
                let pm = self.p[pred.index()].clone();
                let wb = width.bytes() as u64;
                op.set_store();
                for l in 0..self.lanes(width) {
                    if pm.get(l) && val.lane_valid(l) {
                        let addr = b.wrapping_add(((idx + l as i64) as u64).wrapping_mul(wb));
                        self.mem.write_elem(addr, width, val.int(l));
                        push_line(&mut trace.lines, lines_at, addr, wb);
                    }
                }
            }
            Inst::VGather {
                vd,
                base,
                idx,
                width,
                pred,
            } => {
                let b = self.x[base.index()] as u64;
                let iv = self.read_v(idx, trace, &mut op, &mut consumed, pc)?;
                let iv = align_width(iv, width);
                let pm = self.p[pred.index()].clone();
                let mut out = VecVal::empty(vlen, width);
                let wb = width.bytes() as u64;
                for l in 0..self.lanes(width) {
                    if pm.get(l) && iv.lane_valid(l) {
                        let addr = b.wrapping_add((iv.int(l) as u64).wrapping_mul(wb));
                        out.set_int(l, self.mem.read_elem(addr, width));
                        out.set_lane_valid(l, true);
                        push_line(&mut trace.lines, lines_at, addr, wb);
                    }
                }
                self.write_v(vd, out, trace, &mut op, pc)?;
            }
            Inst::VScatter {
                vs,
                base,
                idx,
                width,
                pred,
            } => {
                let val = self.read_v(vs, trace, &mut op, &mut consumed, pc)?;
                let val = align_width(val, width);
                let b = self.x[base.index()] as u64;
                let iv = self.read_v(idx, trace, &mut op, &mut consumed, pc)?;
                let iv = align_width(iv, width);
                let pm = self.p[pred.index()].clone();
                let wb = width.bytes() as u64;
                op.set_store();
                for l in 0..self.lanes(width) {
                    if pm.get(l) && val.lane_valid(l) && iv.lane_valid(l) {
                        let addr = b.wrapping_add((iv.int(l) as u64).wrapping_mul(wb));
                        self.mem.write_elem(addr, width, val.int(l));
                        push_line(&mut trace.lines, lines_at, addr, wb);
                    }
                }
            }
            Inst::WhileLt {
                pd,
                rs1,
                rs2,
                width,
            } => {
                let a = self.x[rs1.index()];
                let b = self.x[rs2.index()];
                self.p[pd.index()] = whilelt(a, b, self.lanes(width));
                self.p[0] = PredVal::all_true();
            }
            Inst::IncVl { rd, width } => {
                let n = self.lanes(width) as i64;
                self.set_x(rd, self.x[rd.index()] + n);
            }
            Inst::CntVl { rd, width } => {
                let n = self.lanes(width) as i64;
                self.set_x(rd, n);
            }
            Inst::VLoadPost {
                vd,
                base,
                width,
                pred,
            } => {
                let b = self.x[base.index()] as u64;
                let pm = self.p[pred.index()].clone();
                let mut out = VecVal::empty(vlen, width);
                let wb = width.bytes() as u64;
                for l in 0..self.lanes(width) {
                    if pm.get(l) {
                        let addr = b + l as u64 * wb;
                        out.set_int(l, self.mem.read_elem(addr, width));
                        out.set_lane_valid(l, true);
                        push_line(&mut trace.lines, lines_at, addr, wb);
                    }
                }
                self.write_v(vd, out, trace, &mut op, pc)?;
                self.set_x(base, (b + vlen as u64) as i64);
            }
            Inst::VStorePost {
                vs,
                base,
                width,
                pred,
            } => {
                let val = self.read_v(vs, trace, &mut op, &mut consumed, pc)?;
                let val = align_width(val, width);
                let b = self.x[base.index()] as u64;
                let pm = self.p[pred.index()].clone();
                let wb = width.bytes() as u64;
                op.set_store();
                for l in 0..self.lanes(width) {
                    if pm.get(l) && val.lane_valid(l) {
                        let addr = b + l as u64 * wb;
                        self.mem.write_elem(addr, width, val.int(l));
                        push_line(&mut trace.lines, lines_at, addr, wb);
                    }
                }
                self.set_x(base, (b + vlen as u64) as i64);
            }
        }

        if self.cfg.record_trace {
            let (srcs, dests) = &operands[pc as usize];
            trace.record(op, srcs, dests, lines_at);
        } else {
            trace.lines.truncate(lines_at);
            trace.chunks.truncate(chunks_at);
        }
        Ok(next)
    }

    /// Predicated lanewise binary op over the active lanes (`VArith`,
    /// `VArithVS`).
    #[allow(clippy::too_many_arguments)]
    fn lanewise(
        &self,
        o: VOp,
        ty: VType,
        width: ElemWidth,
        a: &VecVal,
        b: &VecVal,
        pred: uve_isa::PReg,
        pc: u32,
    ) -> Result<VecVal, EmuError> {
        let a = aligned(a, width);
        let b = aligned(b, width);
        let pm = &self.p[pred.index()];
        let mut out = VecVal::empty(self.cfg.vlen_bytes, width);
        for i in 0..self.lanes(width) {
            if a.lane_valid(i) && b.lane_valid(i) && pm.get(i) {
                match ty {
                    VType::Fp => {
                        let r = fp_vop(o, a.float(i), b.float(i)).ok_or_else(|| {
                            EmuError::Unsupported {
                                pc,
                                what: format!("bitwise vector op {o:?} with an FP type tag"),
                            }
                        })?;
                        out.set_float(i, round_fp(r, width));
                    }
                    VType::Int => out.set_int(i, int_vop(o, a.int(i), b.int(i))),
                }
                out.set_lane_valid(i, true);
            }
        }
        Ok(out)
    }
}

/// Owning `width`-alignment (interpreter arms that already hold a value).
fn align_width(v: VecVal, width: ElemWidth) -> VecVal {
    if v.width() == width {
        v
    } else {
        v.reinterpret(width)
    }
}

/// Borrowing `width`-alignment: reinterprets only when widths differ,
/// avoiding a clone on the (overwhelmingly common) matching-width path.
fn aligned(v: &VecVal, width: ElemWidth) -> Cow<'_, VecVal> {
    if v.width() == width {
        Cow::Borrowed(v)
    } else {
        Cow::Owned(v.reinterpret(width))
    }
}

/// Predicated lanewise unary op.
fn vun(
    o: VUnOp,
    ty: VType,
    width: ElemWidth,
    a: &VecVal,
    pm: &PredVal,
    lanes: usize,
    vlen: usize,
) -> VecVal {
    let a = aligned(a, width);
    let mut out = VecVal::empty(vlen, width);
    for i in 0..lanes {
        if a.lane_valid(i) && pm.get(i) {
            let s = match (ty, o) {
                (VType::Fp, VUnOp::Abs) => Scalar::Fp(a.float(i).abs()),
                (VType::Fp, VUnOp::Neg) => Scalar::Fp(-a.float(i)),
                (VType::Fp, VUnOp::Sqrt) => Scalar::Fp(a.float(i).sqrt()),
                (VType::Fp, VUnOp::Mv) => Scalar::Fp(a.float(i)),
                (VType::Int, VUnOp::Abs) => Scalar::Int(a.int(i).wrapping_abs()),
                (VType::Int, VUnOp::Neg) => Scalar::Int(a.int(i).wrapping_neg()),
                (VType::Int, VUnOp::Sqrt) => Scalar::Int((a.int(i).max(0) as f64).sqrt() as i64),
                (VType::Int, VUnOp::Mv) => Scalar::Int(a.int(i)),
            };
            out.set_scalar(i, s);
            out.set_lane_valid(i, true);
        }
    }
    out
}

/// Predicated horizontal reduction.
#[allow(clippy::too_many_arguments)]
fn vred(
    o: HorizOp,
    ty: VType,
    width: ElemWidth,
    a: &VecVal,
    pm: &PredVal,
    lanes: usize,
    vlen: usize,
    pc: u32,
) -> Result<VecVal, EmuError> {
    let a = aligned(a, width);
    let mut out = VecVal::empty(vlen, width);
    let mut acc: Option<Scalar> = None;
    for i in 0..lanes {
        if !(a.lane_valid(i) && pm.get(i)) {
            continue;
        }
        let x = a.scalar(i, ty);
        acc = Some(match (acc, ty) {
            (None, _) => x,
            (Some(Scalar::Fp(v)), VType::Fp) => Scalar::Fp(match o {
                HorizOp::Add => v + x.as_fp(),
                HorizOp::Max => v.max(x.as_fp()),
                HorizOp::Min => v.min(x.as_fp()),
            }),
            (Some(Scalar::Int(v)), VType::Int) => Scalar::Int(match o {
                HorizOp::Add => v.wrapping_add(x.as_int()),
                HorizOp::Max => v.max(x.as_int()),
                HorizOp::Min => v.min(x.as_int()),
            }),
            _ => {
                return Err(EmuError::Internal {
                    pc,
                    what: "reduction accumulator type confusion",
                })
            }
        });
    }
    if let Some(s) = acc {
        out.set_scalar(0, s);
        out.set_lane_valid(0, true);
    }
    Ok(out)
}

/// Vector compare into a predicate.
fn vcmp(o: VCmpOp, ty: VType, width: ElemWidth, a: &VecVal, b: &VecVal, lanes: usize) -> PredVal {
    let a = aligned(a, width);
    let b = aligned(b, width);
    let mut pv = PredVal::all_false();
    for i in 0..lanes {
        if a.lane_valid(i) && b.lane_valid(i) {
            let r = match ty {
                VType::Fp => cmp_f(o, a.float(i), b.float(i)),
                VType::Int => cmp_i(o, a.int(i), b.int(i)),
            };
            pv.set(i, r);
        }
    }
    pv
}

/// `so.p.valid`: predicate from the operand's valid-lane mask.
fn pred_from_valid(a: &VecVal) -> PredVal {
    let mut pv = PredVal::all_false();
    for i in 0..a.lanes() {
        pv.set(i, a.lane_valid(i));
    }
    pv
}

/// `whilelt`: lanes active while `a + lane < b`.
fn whilelt(a: i64, b: i64, lanes: usize) -> PredVal {
    let mut pv = PredVal::all_false();
    for l in 0..lanes {
        pv.set(l, a + (l as i64) < b);
    }
    pv
}

fn acc_lane_f(acc: &VecVal, i: usize) -> f64 {
    if acc.lane_valid(i) {
        acc.float(i)
    } else {
        0.0
    }
}

fn acc_lane_i(acc: &VecVal, i: usize) -> i64 {
    if acc.lane_valid(i) {
        acc.int(i)
    } else {
        0
    }
}

/// Predicated multiply-accumulate over the *hardware* lane count.
/// Accumulator lanes beyond the operand tail pass through unchanged
/// (predicated-off behaviour of fmla).
fn mac_lanes(
    pm: &PredVal,
    acc: &VecVal,
    a: &VecVal,
    b: &VecVal,
    ty: VType,
    width: ElemWidth,
    vlen: usize,
) -> VecVal {
    let acc = aligned(acc, width);
    let a = aligned(a, width);
    let b = aligned(b, width);
    let mut out = VecVal::empty(vlen, width);
    for i in 0..vlen / width.bytes() {
        if a.lane_valid(i) && b.lane_valid(i) && pm.get(i) {
            match ty {
                VType::Fp => out.set_float(
                    i,
                    round_fp(acc_lane_f(&acc, i) + a.float(i) * b.float(i), width),
                ),
                VType::Int => out.set_int(
                    i,
                    acc_lane_i(&acc, i).wrapping_add(a.int(i).wrapping_mul(b.int(i))),
                ),
            }
            out.set_lane_valid(i, true);
        } else if acc.lane_valid(i) {
            out.set_int(i, acc.int(i));
            out.set_lane_valid(i, true);
        }
    }
    out
}

fn record_mem(
    op: &mut TraceOp,
    lines: &mut Vec<u64>,
    lines_at: usize,
    addr: u64,
    width: ElemWidth,
    is_store: bool,
) {
    if is_store {
        op.set_store();
    }
    push_line(lines, lines_at, addr, width.bytes() as u64);
}

/// Appends the lines of the `bytes` at `addr` to the line arena, whose
/// entries from `lines_at` on belong to the op being recorded; a line
/// equal to the op's previous one is merged.
fn push_line(lines: &mut Vec<u64>, lines_at: usize, addr: u64, bytes: u64) {
    let first = addr / LINE_BYTES;
    let last = (addr + bytes - 1) / LINE_BYTES;
    for l in first..=last {
        if lines[lines_at..].last() != Some(&l) {
            lines.push(l);
        }
    }
}

fn scalar_alu(op: AluOp, a: i64, b: i64) -> i64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Mulh => ((a as i128 * b as i128) >> 64) as i64,
        AluOp::Div => {
            if b == 0 {
                -1
            } else {
                a.wrapping_div(b)
            }
        }
        AluOp::Rem => {
            if b == 0 {
                a
            } else {
                a.wrapping_rem(b)
            }
        }
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Sll => a.wrapping_shl((b & 63) as u32),
        AluOp::Srl => ((a as u64).wrapping_shr((b & 63) as u32)) as i64,
        AluOp::Sra => a.wrapping_shr((b & 63) as u32),
        AluOp::Slt => i64::from(a < b),
        AluOp::Sltu => i64::from((a as u64) < (b as u64)),
        AluOp::Min => a.min(b),
        AluOp::Max => a.max(b),
    }
}

fn round_fp(v: f64, width: ElemWidth) -> f64 {
    match width {
        ElemWidth::Double => v,
        _ => v as f32 as f64,
    }
}

fn fp_alu(op: FpOp, a: f64, b: f64, width: ElemWidth) -> f64 {
    let r = match op {
        FpOp::Add => a + b,
        FpOp::Sub => a - b,
        FpOp::Mul => a * b,
        FpOp::Div => a / b,
        FpOp::Min => a.min(b),
        FpOp::Max => a.max(b),
    };
    round_fp(r, width)
}

fn fp_vop(o: VOp, a: f64, b: f64) -> Option<f64> {
    Some(match o {
        VOp::Add => a + b,
        VOp::Sub => a - b,
        VOp::Mul => a * b,
        VOp::Div => a / b,
        VOp::Min => a.min(b),
        VOp::Max => a.max(b),
        // Bitwise ops have no FP interpretation — reported as a typed
        // error by the caller, not a panic.
        VOp::And | VOp::Or | VOp::Xor | VOp::Shl | VOp::Shr => return None,
    })
}

fn int_vop(o: VOp, a: i64, b: i64) -> i64 {
    match o {
        VOp::Add => a.wrapping_add(b),
        VOp::Sub => a.wrapping_sub(b),
        VOp::Mul => a.wrapping_mul(b),
        VOp::Div => {
            if b == 0 {
                -1
            } else {
                a.wrapping_div(b)
            }
        }
        VOp::Min => a.min(b),
        VOp::Max => a.max(b),
        VOp::And => a & b,
        VOp::Or => a | b,
        VOp::Xor => a ^ b,
        VOp::Shl => a.wrapping_shl((b & 63) as u32),
        VOp::Shr => a.wrapping_shr((b & 63) as u32),
    }
}

fn cmp_f(o: VCmpOp, a: f64, b: f64) -> bool {
    match o {
        VCmpOp::Eq => a == b,
        VCmpOp::Ne => a != b,
        VCmpOp::Lt => a < b,
        VCmpOp::Le => a <= b,
        VCmpOp::Gt => a > b,
        VCmpOp::Ge => a >= b,
    }
}

fn cmp_i(o: VCmpOp, a: i64, b: i64) -> bool {
    match o {
        VCmpOp::Eq => a == b,
        VCmpOp::Ne => a != b,
        VCmpOp::Lt => a < b,
        VCmpOp::Le => a <= b,
        VCmpOp::Gt => a > b,
        VCmpOp::Ge => a >= b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uve_isa::{assemble, RegClass};

    fn run_text(text: &str, setup: impl FnOnce(&mut Emulator)) -> (Emulator, RunResult) {
        let prog = assemble("t", text).expect("assembles");
        let mut emu = Emulator::new(EmuConfig::default(), Memory::new());
        setup(&mut emu);
        let r = emu.run(&prog).expect("runs");
        (emu, r)
    }

    #[test]
    fn scalar_loop() {
        let (emu, r) = run_text(
            "
    li x10, 0
    li x11, 10
loop:
    addi x10, x10, 1
    bne x10, x11, loop
    halt
",
            |_| {},
        );
        assert_eq!(emu.x(XReg::A0), 10);
        assert_eq!(r.committed, 2 + 10 * 2 + 1);
    }

    #[test]
    fn uve_saxpy_fig4() {
        // The paper's Fig. 4 saxpy: y = a*x + y over 20 f32 elements
        // (one full vector + padded tail).
        let n = 20usize;
        let text = "
    li x10, 20          ; n
    li x11, 0x10000     ; &x
    li x12, 0x20000     ; &y
    li x13, 1           ; stride
    ss.ld.w u0, x11, x10, x13
    ss.ld.w u1, x12, x10, x13
    ss.st.w u2, x12, x10, x13
    so.v.dup.w.fp u3, f10
loop:
    so.a.mul.w.fp u4, u3, u0, p0
    so.a.add.w.fp u2, u4, u1, p0
    so.b.nend u0, loop
    halt
";
        let setup = |emu: &mut Emulator| {
            emu.set_f(uve_isa::FReg::FA0, 2.0);
            let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let y: Vec<f32> = (0..n).map(|i| (i * 10) as f32).collect();
            emu.mem.write_f32_slice(0x10000, &x);
            emu.mem.write_f32_slice(0x20000, &y);
        };
        let (emu, r) = run_text(text, setup);
        let y = emu.mem.read_f32_slice(0x20000, n);
        for (i, v) in y.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f32 + (i * 10) as f32, "y[{i}]");
        }
        // Trace recorded 3 streams with chunks.
        assert_eq!(r.trace.streams.len(), 3);
        assert_eq!(r.trace.streams[0].elements(), 20);
        assert_eq!(r.trace.streams[2].elements(), 20);

        // An untraced run drops only the op records: same final state, same
        // commit count, and the stream chunk metadata is still recorded.
        let cfg = EmuConfig {
            record_trace: false,
            ..EmuConfig::default()
        };
        let mut untraced = Emulator::new(cfg, Memory::new());
        setup(&mut untraced);
        let u = untraced.run(&assemble("t", text).unwrap()).unwrap();
        assert_eq!(u.committed, r.committed);
        assert!(u.trace.ops.is_empty());
        assert_eq!(u.trace.streams, r.trace.streams);
        assert_eq!(untraced.arch_digest(), emu.arch_digest());
        assert_eq!(untraced.mem.content_hash(), emu.mem.content_hash());
    }

    #[test]
    fn sve_saxpy_baseline() {
        // SVE-like predicated loop equivalent of Fig. 1.B.
        let n = 20usize;
        let (emu, _r) = run_text(
            "
    li x10, 0            ; i
    li x11, 20           ; n
    li x12, 0x10000      ; &x (element base)
    li x13, 0x20000      ; &y
    so.v.dup.w.fp u0, f10
    whilelt.w p1, x10, x11
loop:
    vl1.w u1, x12, x10, p1
    vl1.w u2, x13, x10, p1
    so.a.mul.w.fp u3, u0, u1, p1
    so.a.add.w.fp u4, u3, u2, p1
    vs1.w u4, x13, x10, p1
    incvl.w x10
    whilelt.w p1, x10, x11
    so.b.pfirst p1, loop
    halt
",
            |emu| {
                emu.set_f(uve_isa::FReg::FA0, 2.0);
                let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
                let y: Vec<f32> = (0..n).map(|i| (i * 10) as f32).collect();
                emu.mem.write_f32_slice(0x10000, &x);
                emu.mem.write_f32_slice(0x20000, &y);
            },
        );
        let y = emu.mem.read_f32_slice(0x20000, n);
        for (i, v) in y.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f32 + (i * 10) as f32, "y[{i}]");
        }
    }

    #[test]
    fn row_max_fig2() {
        // The paper's Fig. 2: maximum across rows of a 3×5 matrix.
        let (emu, _r) = run_text(
            "
    li x10, 5            ; Nc
    li x11, 3            ; Nr
    li x12, 0x10000      ; &A
    li x13, 0x20000      ; &C
    li x14, 1
    ss.ld.w.sta u0, x12, x10, x14
    ss.end u0, x0, x11, x10
    ss.st.w u1, x13, x11, x14
next_line:
    so.v.mv u5, u0
    so.b.dim0.end u0, hmax
loop:
    so.a.max.w.fp u5, u5, u0, p0
    so.b.dim0.nend u0, loop
hmax:
    so.a.hmax.w.fp u1, u5, p0
    so.b.nend u0, next_line
    halt
",
            |emu| {
                #[rustfmt::skip]
                let a: Vec<f32> = vec![
                    1.0, 9.0, 2.0, 3.0, 4.0,
                    5.0, 0.0, 5.5, 1.0, 2.0,
                    7.0, 6.0, 3.0, 8.0, 2.5,
                ];
                emu.mem.write_f32_slice(0x10000, &a);
            },
        );
        let c = emu.mem.read_f32_slice(0x20000, 3);
        assert_eq!(c, vec![9.0, 5.5, 8.0]);
    }

    #[test]
    fn stream_direction_misuse_errors() {
        let prog = assemble(
            "t",
            "
    li x10, 4
    li x11, 0x1000
    li x12, 1
    ss.st.w u0, x11, x10, x12
    so.a.add.w.fp u1, u0, u0, p0
    halt
",
        )
        .unwrap();
        let mut emu = Emulator::new(EmuConfig::default(), Memory::new());
        let err = emu.run(&prog).unwrap_err();
        assert!(matches!(
            err,
            EmuError::Stream {
                err: StreamError::WrongDirection(0),
                ..
            }
        ));
    }

    #[test]
    fn out_of_fuel_detects_infinite_loop() {
        let prog = assemble("t", "loop: jal x0, loop\nhalt").unwrap();
        let mut emu = Emulator::new(
            EmuConfig {
                max_steps: 1000,
                ..EmuConfig::default()
            },
            Memory::new(),
        );
        assert!(matches!(emu.run(&prog), Err(EmuError::OutOfFuel(1000))));
    }

    #[test]
    fn missing_halt_detected() {
        let prog = assemble("t", "addi x1, x0, 1").unwrap();
        let mut emu = Emulator::new(EmuConfig::default(), Memory::new());
        assert!(matches!(emu.run(&prog), Err(EmuError::PcOutOfRange(1))));
    }

    #[test]
    fn trace_excludes_stream_regs_from_deps() {
        let (_, r) = run_text(
            "
    li x10, 16
    li x11, 0x1000
    li x13, 1
    ss.ld.w u0, x11, x10, x13
    so.a.add.w.fp u4, u0, u0, p0
    halt
",
            |_| {},
        );
        let add = r
            .trace
            .ops
            .iter()
            .find(|o| !r.trace.stream_reads(o).is_empty())
            .expect("stream-consuming op present");
        // u0 must not appear as a register dependency.
        assert!(r.trace.srcs(add).iter().all(|s| s.class != RegClass::Vec));
        assert_eq!(r.trace.stream_reads(add).len(), 1); // consumed once, used twice
    }

    #[test]
    fn scalar_mem_roundtrip() {
        let (emu, r) = run_text(
            "
    li x10, 1234
    li x11, 0x3000
    st.w x10, 4(x11)
    ld.w x12, 4(x11)
    halt
",
            |_| {},
        );
        assert_eq!(emu.x(XReg::A2), 1234);
        let st = r.trace.ops.iter().find(|o| o.is_store()).unwrap();
        assert_eq!(r.trace.mem_lines(st), [0x3004 / 64]);
    }

    #[test]
    fn consecutive_accesses_to_one_line_each_record_it() {
        // Line merging is per op: the second load's line equals the last
        // line recorded (the first load's), yet it must still record it.
        let (_, r) = run_text(
            "
    li x11, 0x3000
    ld.w x12, 0(x11)
    ld.w x13, 4(x11)
    halt
",
            |_| {},
        );
        let loads: Vec<&[u64]> = r
            .trace
            .ops
            .iter()
            .filter(|o| o.exec == ExecClass::Load)
            .map(|o| r.trace.mem_lines(o))
            .collect();
        assert_eq!(loads, [[0x3000 / 64], [0x3000 / 64]]);
    }

    #[test]
    fn fp_scalar_ops() {
        let (emu, _) = run_text(
            "
    fadd.w f2, f0, f1
    fmul.w f3, f0, f1
    fmadd.w f4, f0, f1, f2
    fsqrt.w f5, f3
    halt
",
            |emu| {
                emu.set_f(uve_isa::FReg::new(0), 3.0);
                emu.set_f(uve_isa::FReg::new(1), 4.0);
            },
        );
        assert_eq!(emu.f(uve_isa::FReg::new(2)), 7.0);
        assert_eq!(emu.f(uve_isa::FReg::new(3)), 12.0);
        assert_eq!(emu.f(uve_isa::FReg::new(4)), 19.0);
        assert!((emu.f(uve_isa::FReg::new(5)) - 12f64.sqrt()).abs() < 1e-6);
    }

    /// Runs `text` clean and under a plan that faults every first-touched
    /// page, and checks that recovery is bit-identical: memory, registers,
    /// and the whole trace (both arenas included) up to the fault stamps.
    fn assert_fault_recovery_is_bit_identical(text: &str, setup: impl Fn(&mut Emulator)) {
        let prog = assemble("t", text).unwrap();
        let mut clean = Emulator::new(EmuConfig::default(), Memory::new());
        setup(&mut clean);
        let clean_run = clean.run(&prog).unwrap();

        let mut faulty = Emulator::new(EmuConfig::default(), Memory::new());
        setup(&mut faulty);
        faulty.set_fault_plan(Some(StreamFaultPlan::new(7, 1)));
        let faulty_run = faulty.run(&prog).unwrap();

        assert!(faulty.faults_taken() > 0, "plan must fire");
        assert_eq!(
            clean.mem.content_hash(),
            faulty.mem.content_hash(),
            "recovered memory must be bit-identical"
        );
        assert_eq!(
            clean.arch_digest(),
            faulty.arch_digest(),
            "recovered registers must be bit-identical"
        );
        assert_eq!(clean_run.committed, faulty_run.committed);
        let stamped: u64 = faulty_run
            .trace
            .ops
            .iter()
            .map(|o| u64::from(o.stream_faults))
            .sum();
        assert_eq!(stamped, faulty.faults_taken(), "every trap is stamped");
        // The recovered trace matches except for the fault stamps.
        let mut scrubbed = faulty_run.trace;
        for o in &mut scrubbed.ops {
            o.stream_faults = 0;
        }
        assert!(clean_run.trace == scrubbed, "recovered trace differs");
    }

    #[test]
    fn fault_recovery_is_bit_identical_on_saxpy() {
        let n = 4096usize;
        // 4096 f32 over two arrays = 8 pages, so every stream takes
        // several precise traps.
        let saxpy = "
    li x10, 4096
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
";
        let setup = |emu: &mut Emulator| {
            emu.set_f(uve_isa::FReg::FA0, 2.0);
            let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
            let y: Vec<f32> = (0..n).map(|i| (i * 3) as f32).collect();
            emu.mem.write_f32_slice(0x10000, &x);
            emu.mem.write_f32_slice(0x20000, &y);
        };
        assert_fault_recovery_is_bit_identical(saxpy, setup);
        // The copy's explicit vector loads write straight into an output
        // stream, so a trap on the stream store comes after the op has
        // recorded its load lines: the retry must drop them.
        let copy = "
    li x10, 4096
    li x11, 0x10000
    li x12, 0x20000
    li x13, 1
    li x14, 256
    ss.st.w u2, x12, x10, x13
loop:
    ss.load.w u2, x11, p0
    addi x14, x14, -1
    bne x14, x0, loop
    halt
";
        assert_fault_recovery_is_bit_identical(copy, setup);
    }

    #[test]
    fn fault_plan_is_deterministic_across_runs() {
        let text = "
    li x10, 512
    li x11, 0x10000
    li x13, 1
    ss.ld.w u0, x11, x10, x13
loop:
    so.a.add.w.fp u5, u0, u0, p0
    so.b.nend u0, loop
    halt
";
        let prog = assemble("t", text).unwrap();
        let mut counts = Vec::new();
        for _ in 0..2 {
            let mut emu = Emulator::new(EmuConfig::default(), Memory::new());
            let x: Vec<f32> = (0..512).map(|i| i as f32).collect();
            emu.mem.write_f32_slice(0x10000, &x);
            emu.set_fault_plan(Some(StreamFaultPlan::new(42, 1)));
            emu.run(&prog).unwrap();
            counts.push((emu.faults_taken(), emu.arch_digest()));
        }
        assert_eq!(counts[0], counts[1]);
        assert!(counts[0].0 > 0);
    }

    #[test]
    fn bitwise_fp_vop_is_a_typed_error() {
        let prog = assemble(
            "t",
            "
    so.v.dup.w.fp u1, f0
    so.a.and.w.fp u2, u1, u1, p0
    halt
",
        )
        .unwrap();
        let mut emu = Emulator::new(EmuConfig::default(), Memory::new());
        match emu.run(&prog) {
            Err(EmuError::Unsupported { .. }) => {}
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn gather_scatter() {
        let (emu, _) = run_text(
            "
    li x10, 0x1000      ; base
    li x11, 4
    li x12, 0
    whilelt.w p1, x12, x11
    vl1.w u1, x13, x12, p1   ; load indices from 0x2000 (x13 set below)
    vgather.w u2, x10, u1, p1
    vscatter.w u2, x14, u1, p1
    halt
",
            |emu| {
                emu.set_x(XReg::A3, 0x2000);
                emu.set_x(XReg::A4, 0x3000);
                emu.mem.write_i32_slice(0x2000, &[3, 1, 0, 2]);
                emu.mem.write_i32_slice(0x1000, &[100, 101, 102, 103]);
            },
        );
        // gather: u2 = A[idx] = [103, 101, 100, 102]; scatter writes them
        // back permuted to 0x3000[idx] → identity at distinct slots.
        assert_eq!(emu.mem.read_i32_slice(0x3000, 4), vec![100, 101, 102, 103]);
    }
}
