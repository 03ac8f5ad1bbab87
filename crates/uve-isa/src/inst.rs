//! The instruction set: UVE streaming instructions plus the scalar and
//! SVE-like baseline instructions used by the evaluation.
//!
//! Instruction mnemonics follow the paper (`ss.*` for stream configuration
//! and control, `so.*` for stream/vector operations); the scalar subset is
//! RISC-V-flavoured. Branch targets are absolute instruction indices,
//! resolved from labels by [`ProgramBuilder`](crate::ProgramBuilder).

use crate::reg::{FReg, PReg, RegRef, VReg, XReg};
use std::fmt;
use uve_stream::{Behaviour, ElemWidth, IndirectBehaviour, Param};

/// Scalar integer ALU operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are the op mnemonics themselves
pub enum AluOp {
    Add,
    Sub,
    Mul,
    Mulh,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Sra,
    Slt,
    Sltu,
    Min,
    Max,
}

/// Scalar floating-point binary operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are the op mnemonics themselves
pub enum FpOp {
    Add,
    Sub,
    Mul,
    Div,
    Min,
    Max,
}

/// Scalar floating-point unary operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are the op mnemonics themselves
pub enum FpUnOp {
    Sqrt,
    Abs,
    Neg,
    Mv,
}

/// Scalar branch condition (RISC-V style, comparing two `x` registers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are the op mnemonics themselves
pub enum BrCond {
    Eq,
    Ne,
    Lt,
    Ge,
    Ltu,
    Geu,
}

/// Vector arithmetic/logic operation; interpreted as integer or
/// floating-point according to the instruction's [`VType`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are the op mnemonics themselves
pub enum VOp {
    Add,
    Sub,
    Mul,
    Div,
    Min,
    Max,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

/// Vector unary operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are the op mnemonics themselves
pub enum VUnOp {
    Abs,
    Neg,
    Sqrt,
    Mv,
}

/// Vector comparison operation (writes a predicate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are the op mnemonics themselves
pub enum VCmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Horizontal (cross-lane) reduction operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are the op mnemonics themselves
pub enum HorizOp {
    Add,
    Max,
    Min,
}

/// Predicate-register logic operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are the op mnemonics themselves
pub enum PredOp {
    Mov,
    Not,
    And,
    Or,
}

/// Element interpretation of a vector instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VType {
    /// Signed integer lanes.
    Int,
    /// IEEE-754 lanes (`Word` = f32, `Double` = f64).
    Fp,
}

/// Stream-state branch conditions (paper Sec. III-B, *Loop control*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamCond {
    /// Branch while the stream has elements left (`so.b.nend`).
    NotEnd,
    /// Branch when the stream is exhausted (`so.b.end`).
    End,
    /// Branch when the last consumption did *not* finish dimension `k`.
    DimNotEnd(u8),
    /// Branch when the last consumption finished dimension `k`.
    DimEnd(u8),
}

/// Predicate branch conditions (SVE-style `b.first`/`b.any`/…).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredCond {
    /// The first lane of the predicate is true.
    First,
    /// Any lane is true.
    Any,
    /// No lane is true.
    None,
}

/// Stream control operation (`ss.suspend`/`ss.resume`/`ss.stop`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamCtl {
    /// Freeze the stream, releasing the register for other use.
    Suspend,
    /// Resume a suspended stream from its committed iteration state.
    Resume,
    /// Terminate the stream and release its engine structures.
    Stop,
}

/// Stream direction: input (load) or output (store).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Input stream: memory → register (`ss.ld`).
    Load,
    /// Output stream: register → memory (`ss.st`).
    Store,
}

/// Memory-hierarchy level a stream is directed at (`so.cfg.memx`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemLevel {
    /// Stream from/to the L1 data cache.
    L1,
    /// Stream from/to the unified L2 (the paper's default).
    #[default]
    L2,
    /// Bypass the caches and stream from/to DRAM.
    Mem,
}

/// Source operand of a vector broadcast/duplication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DupSrc {
    /// Broadcast a scalar integer register.
    X(XReg),
    /// Broadcast a scalar floating-point register.
    F(FReg),
}

/// Execution resource class, used by the timing model to pick a functional
/// unit and latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecClass {
    /// Simple integer ALU operation (1 cycle).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide (unpipelined).
    IntDiv,
    /// Scalar/vector FP add-type operation.
    FpAdd,
    /// Scalar/vector FP multiply.
    FpMul,
    /// Fused multiply-accumulate.
    FpMac,
    /// FP divide / square root (unpipelined).
    FpDiv,
    /// Vector integer operation.
    VecInt,
    /// Memory load (through the load/store unit).
    Load,
    /// Memory store.
    Store,
    /// Control transfer.
    Branch,
    /// Stream configuration (handled by the Streaming Engine's SCROB).
    StreamCfg,
    /// Stream control (suspend/resume/stop).
    StreamCtl,
    /// Anything retiring in one cycle with no FU pressure (moves, nop).
    Simple,
}

/// One machine instruction.
///
/// All three code flavours used in the evaluation (UVE, SVE-like, scalar)
/// share this type; the emulator and timing model dispatch on the variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // field meanings documented per-variant
pub enum Inst {
    // ---- scalar ----
    /// `rd = rs1 <op> rs2`.
    Alu {
        op: AluOp,
        rd: XReg,
        rs1: XReg,
        rs2: XReg,
    },
    /// `rd = rs1 <op> imm` (12-bit signed immediate for encoding).
    AluImm {
        op: AluOp,
        rd: XReg,
        rs1: XReg,
        imm: i32,
    },
    /// `rd = imm << 12` (20-bit immediate).
    Lui { rd: XReg, imm: i32 },
    /// Scalar load: `rd = mem[rs1 + off]`, sign-extended.
    Ld {
        rd: XReg,
        base: XReg,
        off: i32,
        width: ElemWidth,
    },
    /// Scalar store: `mem[rs1 + off] = rs2`.
    St {
        src: XReg,
        base: XReg,
        off: i32,
        width: ElemWidth,
    },
    /// Scalar FP load.
    Fld {
        fd: FReg,
        base: XReg,
        off: i32,
        width: ElemWidth,
    },
    /// Scalar FP store.
    Fst {
        src: FReg,
        base: XReg,
        off: i32,
        width: ElemWidth,
    },
    /// `fd = fs1 <op> fs2`.
    FAlu {
        op: FpOp,
        width: ElemWidth,
        fd: FReg,
        fs1: FReg,
        fs2: FReg,
    },
    /// Fused multiply-add: `fd = fs1 * fs2 + fs3`.
    FMac {
        width: ElemWidth,
        fd: FReg,
        fs1: FReg,
        fs2: FReg,
        fs3: FReg,
    },
    /// FP unary: `fd = op(fs)`.
    FUn {
        op: FpUnOp,
        width: ElemWidth,
        fd: FReg,
        fs: FReg,
    },
    /// Move FP bits to integer register.
    FMvXF { rd: XReg, fs: FReg },
    /// Move integer bits to FP register.
    FMvFX { fd: FReg, rs: XReg },
    /// Convert integer to float: `fd = (fp)rs`.
    FCvtFX {
        width: ElemWidth,
        fd: FReg,
        rs: XReg,
    },
    /// Convert float to integer (truncating): `rd = (int)fs`.
    FCvtXF {
        width: ElemWidth,
        rd: XReg,
        fs: FReg,
    },
    /// Conditional branch comparing `rs1` and `rs2`.
    Branch {
        cond: BrCond,
        rs1: XReg,
        rs2: XReg,
        target: u32,
    },
    /// Unconditional jump, writing the return address to `rd`.
    Jal { rd: XReg, target: u32 },
    /// Stop the machine.
    Halt,
    /// No operation.
    Nop,

    // ---- UVE stream configuration (ss.*) ----
    /// Configure dimension 0 of stream `u`: base/size/stride from scalar
    /// registers. `done` marks a complete 1-D configuration (`ss.ld.w`);
    /// otherwise further `SsApp*` instructions follow (`ss.ld.w.sta`).
    SsStart {
        u: VReg,
        dir: Dir,
        width: ElemWidth,
        base: XReg,
        size: XReg,
        stride: XReg,
        done: bool,
    },
    /// Append an outer dimension `{offset, size, stride}` (`ss.app` /
    /// `ss.end`).
    SsApp {
        u: VReg,
        offset: XReg,
        size: XReg,
        stride: XReg,
        end: bool,
    },
    /// Append a static modifier bound to the last dimension
    /// (`ss.app.mod` / `ss.end.mod`).
    SsAppMod {
        u: VReg,
        target: Param,
        behaviour: Behaviour,
        disp: XReg,
        count: XReg,
        end: bool,
    },
    /// Append an indirect modifier whose origin is the stream configured on
    /// `origin` (`ss.app.ind` / `ss.end.ind`).
    SsAppInd {
        u: VReg,
        target: Param,
        behaviour: IndirectBehaviour,
        origin: VReg,
        end: bool,
    },
    /// Stream control: suspend/resume/stop.
    SsCtl { op: StreamCtl, u: VReg },
    /// Direct the stream at a cache level (`so.cfg.memx`). Must precede the
    /// completing configuration instruction's effect; applies to `u`.
    SsCfgMem { u: VReg, level: MemLevel },
    /// Branch on stream state (`so.b.*`).
    SsBranch {
        cond: StreamCond,
        u: VReg,
        target: u32,
    },
    /// Read the current vector length in elements of `width` into `rd`
    /// (`ss.getvl`).
    SsGetVl { rd: XReg, width: ElemWidth },
    /// Configure the active vector length (`ss.setvl`): request `rs`
    /// elements of `width`; the granted count (clamped to the hardware
    /// maximum) is written to `rd`. Enables narrower vector-length
    /// emulation (Sec. III-B, *Advanced control*).
    SsSetVl {
        rd: XReg,
        rs: XReg,
        width: ElemWidth,
    },

    // ---- vector / stream data processing (so.*) ----
    /// Broadcast a scalar to all lanes (`so.v.dup`).
    VDup {
        vd: VReg,
        src: DupSrc,
        width: ElemWidth,
        ty: VType,
    },
    /// Vector move / stream read (`so.v.mv`): `vd = vs` (consumes one chunk
    /// if `vs` is a stream, produces if `vd` is a stream).
    VMv { vd: VReg, vs: VReg },
    /// Vector unary operation under predicate.
    VUn {
        op: VUnOp,
        ty: VType,
        width: ElemWidth,
        vd: VReg,
        vs: VReg,
        pred: PReg,
    },
    /// Vector binary operation under predicate (`so.a.{add,mul,…}.{fp,sg}`).
    VArith {
        op: VOp,
        ty: VType,
        width: ElemWidth,
        vd: VReg,
        vs1: VReg,
        vs2: VReg,
        pred: PReg,
    },
    /// Vector ⊗ broadcast-scalar operation.
    VArithVS {
        op: VOp,
        ty: VType,
        width: ElemWidth,
        vd: VReg,
        vs1: VReg,
        scalar: DupSrc,
        pred: PReg,
    },
    /// Multiply-accumulate: `vd += vs1 * vs2` (`so.a.mac`).
    VMac {
        ty: VType,
        width: ElemWidth,
        vd: VReg,
        vs1: VReg,
        vs2: VReg,
        pred: PReg,
    },
    /// Vector ⊗ scalar multiply-accumulate: `vd += vs1 * scalar`
    /// (`so.a.mac.vs`).
    VMacVS {
        ty: VType,
        width: ElemWidth,
        vd: VReg,
        vs1: VReg,
        scalar: DupSrc,
        pred: PReg,
    },
    /// Horizontal reduction of `vs` into lane 0 of `vd` (`so.a.h{add,max,min}`).
    /// When `vd` is an output stream this produces exactly one element.
    VRed {
        op: HorizOp,
        ty: VType,
        width: ElemWidth,
        vd: VReg,
        vs: VReg,
        pred: PReg,
    },
    /// Vector compare, writing a predicate (`so.p.cmp.*`).
    VCmp {
        op: VCmpOp,
        ty: VType,
        width: ElemWidth,
        pd: PReg,
        vs1: VReg,
        vs2: VReg,
    },
    /// Predicate logic (`so.p.{mov,not,and,or}`).
    PredAlu {
        op: PredOp,
        pd: PReg,
        ps1: PReg,
        ps2: PReg,
    },
    /// Set a predicate from the valid lanes of a vector register
    /// (`so.p.fromvalid`) — the paper's "configure the predicate based on
    /// the valid elements of a vector register".
    PredFromValid { pd: PReg, vs: VReg },
    /// Branch on predicate state.
    BrPred {
        cond: PredCond,
        p: PReg,
        target: u32,
    },
    /// Extract lane `lane` of `vs` into an FP register.
    VExtractF {
        fd: FReg,
        vs: VReg,
        lane: u8,
        width: ElemWidth,
    },
    /// Extract lane `lane` of `vs` into an integer register.
    VExtractX {
        rd: XReg,
        vs: VReg,
        lane: u8,
        width: ElemWidth,
    },

    // ---- SVE-like baseline memory & loop control ----
    /// Predicated vector load: `vd[l] = mem[base + (index + l) * width]` for
    /// active lanes `l` (`ld1w [x_base, x_index, lsl #w]`).
    VLoad {
        vd: VReg,
        base: XReg,
        index: XReg,
        width: ElemWidth,
        pred: PReg,
    },
    /// Predicated vector store.
    VStore {
        vs: VReg,
        base: XReg,
        index: XReg,
        width: ElemWidth,
        pred: PReg,
    },
    /// Gather load: `vd[l] = mem[base + idx[l] * width]` with lane indices
    /// from vector `idx`.
    VGather {
        vd: VReg,
        base: XReg,
        idx: VReg,
        width: ElemWidth,
        pred: PReg,
    },
    /// Scatter store.
    VScatter {
        vs: VReg,
        base: XReg,
        idx: VReg,
        width: ElemWidth,
        pred: PReg,
    },
    /// `pd[l] = (rs1 + l) < rs2` (SVE `whilelt`).
    WhileLt {
        pd: PReg,
        rs1: XReg,
        rs2: XReg,
        width: ElemWidth,
    },
    /// `rd += VL / width` elements (SVE `incw`).
    IncVl { rd: XReg, width: ElemWidth },
    /// `rd = VL / width` elements (SVE `cntw`).
    CntVl { rd: XReg, width: ElemWidth },
    /// Legacy UVE vector load with post-increment of the base register
    /// (`ss.load`): `vd = mem[base]`, then `base += VL` bytes.
    VLoadPost {
        vd: VReg,
        base: XReg,
        width: ElemWidth,
        pred: PReg,
    },
    /// Legacy UVE vector store with post-increment.
    VStorePost {
        vs: VReg,
        base: XReg,
        width: ElemWidth,
        pred: PReg,
    },
}

/// Fixed-size operand list (at most 5 sources / 2 destinations), held
/// inline so listing an instruction's operands allocates nothing.
#[derive(Clone, Copy)]
pub struct RegList {
    regs: [RegRef; RegList::CAPACITY],
    len: u8,
}

impl RegList {
    /// Most operands one list holds.
    const CAPACITY: usize = 5;

    /// An empty list.
    const fn new() -> Self {
        Self {
            regs: [RegRef::x(XReg::ZERO); Self::CAPACITY],
            len: 0,
        }
    }

    /// A list holding `regs`, in order.
    fn of(regs: &[RegRef]) -> Self {
        let mut list = Self::new();
        list.extend(regs.iter().copied());
        list
    }

    /// Appends `r`; panics if the list already holds `CAPACITY` operands.
    fn push(&mut self, r: RegRef) {
        self.regs[usize::from(self.len)] = r;
        self.len += 1;
    }
}

impl std::ops::Deref for RegList {
    type Target = [RegRef];

    fn deref(&self) -> &[RegRef] {
        &self.regs[..usize::from(self.len)]
    }
}

impl IntoIterator for RegList {
    type Item = RegRef;
    type IntoIter = std::iter::Take<std::array::IntoIter<RegRef, { RegList::CAPACITY }>>;

    fn into_iter(self) -> Self::IntoIter {
        self.regs.into_iter().take(usize::from(self.len))
    }
}

impl Extend<RegRef> for RegList {
    fn extend<I: IntoIterator<Item = RegRef>>(&mut self, iter: I) {
        for r in iter {
            self.push(r);
        }
    }
}

impl PartialEq for RegList {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for RegList {}

impl fmt::Debug for RegList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Inst {
    /// Architectural destination registers written by this instruction.
    pub fn dests(&self) -> RegList {
        use Inst::*;
        match *self {
            Alu { rd, .. } | AluImm { rd, .. } | Lui { rd, .. } | Ld { rd, .. } => nonzero_x(rd),
            Fld { fd, .. }
            | FAlu { fd, .. }
            | FMac { fd, .. }
            | FUn { fd, .. }
            | FMvFX { fd, .. }
            | FCvtFX { fd, .. } => RegList::of(&[RegRef::f(fd)]),
            FMvXF { rd, .. } | FCvtXF { rd, .. } => nonzero_x(rd),
            Jal { rd, .. } => nonzero_x(rd),
            SsGetVl { rd, .. } | SsSetVl { rd, .. } | IncVl { rd, .. } | CntVl { rd, .. } => {
                nonzero_x(rd)
            }
            VDup { vd, .. }
            | VMv { vd, .. }
            | VUn { vd, .. }
            | VArith { vd, .. }
            | VArithVS { vd, .. }
            | VRed { vd, .. }
            | VLoad { vd, .. }
            | VGather { vd, .. } => RegList::of(&[RegRef::v(vd)]),
            VMac { vd, .. } | VMacVS { vd, .. } => RegList::of(&[RegRef::v(vd)]),
            VCmp { pd, .. }
            | PredAlu { pd, .. }
            | PredFromValid { pd, .. }
            | WhileLt { pd, .. } => RegList::of(&[RegRef::p(pd)]),
            VExtractF { fd, .. } => RegList::of(&[RegRef::f(fd)]),
            VExtractX { rd, .. } => nonzero_x(rd),
            VLoadPost { vd, base, .. } => RegList::of(&[RegRef::v(vd), RegRef::x(base)]),
            VStorePost { base, .. } => RegList::of(&[RegRef::x(base)]),
            St { .. }
            | Fst { .. }
            | Branch { .. }
            | Halt
            | Nop
            | SsStart { .. }
            | SsApp { .. }
            | SsAppMod { .. }
            | SsAppInd { .. }
            | SsCtl { .. }
            | SsCfgMem { .. }
            | SsBranch { .. }
            | BrPred { .. }
            | VStore { .. }
            | VScatter { .. } => RegList::new(),
        }
    }

    /// Architectural source registers read by this instruction.
    ///
    /// For vector instructions this includes stream-associated registers;
    /// whether a `u` register is a stream is machine state, not visible
    /// here.
    pub fn srcs(&self) -> RegList {
        use Inst::*;
        match *self {
            Alu { rs1, rs2, .. } => RegList::of(&[RegRef::x(rs1), RegRef::x(rs2)]),
            AluImm { rs1, .. } => RegList::of(&[RegRef::x(rs1)]),
            Lui { .. } => RegList::new(),
            Ld { base, .. } => RegList::of(&[RegRef::x(base)]),
            St { src, base, .. } => RegList::of(&[RegRef::x(src), RegRef::x(base)]),
            Fld { base, .. } => RegList::of(&[RegRef::x(base)]),
            Fst { src, base, .. } => RegList::of(&[RegRef::f(src), RegRef::x(base)]),
            FAlu { fs1, fs2, .. } => RegList::of(&[RegRef::f(fs1), RegRef::f(fs2)]),
            FMac { fs1, fs2, fs3, .. } => {
                RegList::of(&[RegRef::f(fs1), RegRef::f(fs2), RegRef::f(fs3)])
            }
            FUn { fs, .. } => RegList::of(&[RegRef::f(fs)]),
            FMvXF { fs, .. } => RegList::of(&[RegRef::f(fs)]),
            FMvFX { rs, .. } => RegList::of(&[RegRef::x(rs)]),
            FCvtFX { rs, .. } => RegList::of(&[RegRef::x(rs)]),
            FCvtXF { fs, .. } => RegList::of(&[RegRef::f(fs)]),
            Branch { rs1, rs2, .. } => RegList::of(&[RegRef::x(rs1), RegRef::x(rs2)]),
            Jal { .. } | Halt | Nop => RegList::new(),
            SsStart {
                base, size, stride, ..
            } => RegList::of(&[RegRef::x(base), RegRef::x(size), RegRef::x(stride)]),
            SsApp {
                offset,
                size,
                stride,
                ..
            } => RegList::of(&[RegRef::x(offset), RegRef::x(size), RegRef::x(stride)]),
            SsAppMod { disp, count, .. } => RegList::of(&[RegRef::x(disp), RegRef::x(count)]),
            SsAppInd { origin, .. } => RegList::of(&[RegRef::v(origin)]),
            SsCtl { .. } | SsCfgMem { .. } | SsGetVl { .. } => RegList::new(),
            SsSetVl { rs, .. } => RegList::of(&[RegRef::x(rs)]),
            PredFromValid { vs, .. } => RegList::of(&[RegRef::v(vs)]),
            SsBranch { u, .. } => RegList::of(&[RegRef::v(u)]),
            VDup { src, .. } => dup_src(src),
            VMv { vs, .. } => RegList::of(&[RegRef::v(vs)]),
            VUn { vs, pred, .. } => with_pred(RegList::of(&[RegRef::v(vs)]), pred),
            VArith { vs1, vs2, pred, .. } => {
                with_pred(RegList::of(&[RegRef::v(vs1), RegRef::v(vs2)]), pred)
            }
            VArithVS {
                vs1, scalar, pred, ..
            } => {
                let mut v = RegList::of(&[RegRef::v(vs1)]);
                v.extend(dup_src(scalar));
                with_pred(v, pred)
            }
            VMac {
                vd, vs1, vs2, pred, ..
            } => with_pred(
                RegList::of(&[RegRef::v(vd), RegRef::v(vs1), RegRef::v(vs2)]),
                pred,
            ),
            VMacVS {
                vd,
                vs1,
                scalar,
                pred,
                ..
            } => {
                let mut v = RegList::of(&[RegRef::v(vd), RegRef::v(vs1)]);
                v.extend(dup_src(scalar));
                with_pred(v, pred)
            }
            VRed { vs, pred, .. } => with_pred(RegList::of(&[RegRef::v(vs)]), pred),
            VCmp { vs1, vs2, .. } => RegList::of(&[RegRef::v(vs1), RegRef::v(vs2)]),
            PredAlu { op, ps1, ps2, .. } => match op {
                PredOp::Mov | PredOp::Not => RegList::of(&[RegRef::p(ps1)]),
                _ => RegList::of(&[RegRef::p(ps1), RegRef::p(ps2)]),
            },
            BrPred { p, .. } => RegList::of(&[RegRef::p(p)]),
            VExtractF { vs, .. } | VExtractX { vs, .. } => RegList::of(&[RegRef::v(vs)]),
            VLoad {
                base, index, pred, ..
            } => with_pred(RegList::of(&[RegRef::x(base), RegRef::x(index)]), pred),
            VStore {
                vs,
                base,
                index,
                pred,
                ..
            } => with_pred(
                RegList::of(&[RegRef::v(vs), RegRef::x(base), RegRef::x(index)]),
                pred,
            ),
            VGather {
                base, idx, pred, ..
            } => with_pred(RegList::of(&[RegRef::x(base), RegRef::v(idx)]), pred),
            VScatter {
                vs,
                base,
                idx,
                pred,
                ..
            } => with_pred(
                RegList::of(&[RegRef::v(vs), RegRef::x(base), RegRef::v(idx)]),
                pred,
            ),
            WhileLt { rs1, rs2, .. } => RegList::of(&[RegRef::x(rs1), RegRef::x(rs2)]),
            IncVl { rd, .. } => RegList::of(&[RegRef::x(rd)]),
            CntVl { .. } => RegList::new(),
            VLoadPost { base, pred, .. } => with_pred(RegList::of(&[RegRef::x(base)]), pred),
            VStorePost { vs, base, pred, .. } => {
                with_pred(RegList::of(&[RegRef::v(vs), RegRef::x(base)]), pred)
            }
        }
    }

    /// The execution resource class of this instruction.
    pub fn exec_class(&self) -> ExecClass {
        use Inst::*;
        match *self {
            Alu { op, .. } | AluImm { op, .. } => match op {
                AluOp::Mul | AluOp::Mulh => ExecClass::IntMul,
                AluOp::Div | AluOp::Rem => ExecClass::IntDiv,
                _ => ExecClass::IntAlu,
            },
            Lui { .. } => ExecClass::IntAlu,
            Ld { .. } | Fld { .. } => ExecClass::Load,
            St { .. } | Fst { .. } => ExecClass::Store,
            FAlu { op, .. } => match op {
                FpOp::Add | FpOp::Sub | FpOp::Min | FpOp::Max => ExecClass::FpAdd,
                FpOp::Mul => ExecClass::FpMul,
                FpOp::Div => ExecClass::FpDiv,
            },
            FMac { .. } => ExecClass::FpMac,
            FUn { op, .. } => match op {
                FpUnOp::Sqrt => ExecClass::FpDiv,
                _ => ExecClass::FpAdd,
            },
            FMvXF { .. } | FMvFX { .. } | FCvtFX { .. } | FCvtXF { .. } => ExecClass::FpAdd,
            Branch { .. } | Jal { .. } | SsBranch { .. } | BrPred { .. } => ExecClass::Branch,
            Halt | Nop => ExecClass::Simple,
            SsStart { .. } | SsApp { .. } | SsAppMod { .. } | SsAppInd { .. } | SsCfgMem { .. } => {
                ExecClass::StreamCfg
            }
            SsCtl { .. } => ExecClass::StreamCtl,
            SsGetVl { .. } | SsSetVl { .. } => ExecClass::IntAlu,
            PredFromValid { .. } => ExecClass::VecInt,
            VDup { .. } | VMv { .. } => ExecClass::Simple,
            VUn { op, ty, .. } => match (ty, op) {
                (VType::Fp, VUnOp::Sqrt) => ExecClass::FpDiv,
                (VType::Fp, _) => ExecClass::FpAdd,
                (VType::Int, _) => ExecClass::VecInt,
            },
            VArith { op, ty, .. } | VArithVS { op, ty, .. } => match ty {
                VType::Fp => match op {
                    VOp::Mul => ExecClass::FpMul,
                    VOp::Div => ExecClass::FpDiv,
                    _ => ExecClass::FpAdd,
                },
                VType::Int => match op {
                    VOp::Div => ExecClass::IntDiv,
                    _ => ExecClass::VecInt,
                },
            },
            VMac { ty, .. } | VMacVS { ty, .. } => match ty {
                VType::Fp => ExecClass::FpMac,
                VType::Int => ExecClass::VecInt,
            },
            VRed { ty, .. } => match ty {
                VType::Fp => ExecClass::FpAdd,
                VType::Int => ExecClass::VecInt,
            },
            VCmp { .. } | PredAlu { .. } | WhileLt { .. } => ExecClass::VecInt,
            IncVl { .. } | CntVl { .. } => ExecClass::IntAlu,
            VExtractF { .. } | VExtractX { .. } => ExecClass::Simple,
            VLoad { .. } | VGather { .. } | VLoadPost { .. } => ExecClass::Load,
            VStore { .. } | VScatter { .. } | VStorePost { .. } => ExecClass::Store,
        }
    }

    /// `true` for control-transfer instructions.
    pub fn is_branch(&self) -> bool {
        matches!(
            self,
            Inst::Branch { .. } | Inst::Jal { .. } | Inst::SsBranch { .. } | Inst::BrPred { .. }
        )
    }

    /// `true` unless this is a scalar instruction, whose semantics never
    /// depend on the vector length. Conservative: every stream, vector and
    /// predicate instruction counts, whether or not the length changes
    /// what it does, so a program none of whose instructions may read the
    /// length emulates identically at every length.
    pub fn may_read_vlen(&self) -> bool {
        use Inst::*;
        !matches!(
            self,
            Alu { .. }
                | AluImm { .. }
                | Lui { .. }
                | Ld { .. }
                | St { .. }
                | Fld { .. }
                | Fst { .. }
                | FAlu { .. }
                | FMac { .. }
                | FUn { .. }
                | FMvXF { .. }
                | FMvFX { .. }
                | FCvtFX { .. }
                | FCvtXF { .. }
                | Branch { .. }
                | Jal { .. }
                | Halt
                | Nop
        )
    }

    /// `true` for explicit memory instructions (not streams).
    pub fn is_mem(&self) -> bool {
        matches!(self.exec_class(), ExecClass::Load | ExecClass::Store)
    }

    /// The branch target, if this is a control-transfer instruction.
    pub fn branch_target(&self) -> Option<u32> {
        match *self {
            Inst::Branch { target, .. }
            | Inst::Jal { target, .. }
            | Inst::SsBranch { target, .. }
            | Inst::BrPred { target, .. } => Some(target),
            _ => None,
        }
    }

    /// Rewrites the branch target (used by the program builder's fix-ups).
    pub(crate) fn set_branch_target(&mut self, t: u32) {
        match self {
            Inst::Branch { target, .. }
            | Inst::Jal { target, .. }
            | Inst::SsBranch { target, .. }
            | Inst::BrPred { target, .. } => *target = t,
            _ => panic!("not a branch"),
        }
    }
}

fn nonzero_x(rd: XReg) -> RegList {
    if rd == XReg::ZERO {
        RegList::new()
    } else {
        RegList::of(&[RegRef::x(rd)])
    }
}

fn dup_src(s: DupSrc) -> RegList {
    match s {
        DupSrc::X(r) => {
            if r == XReg::ZERO {
                RegList::new()
            } else {
                RegList::of(&[RegRef::x(r)])
            }
        }
        DupSrc::F(r) => RegList::of(&[RegRef::f(r)]),
    }
}

fn with_pred(mut v: RegList, pred: PReg) -> RegList {
    if pred != PReg::P0 {
        v.push(RegRef::p(pred));
    }
    v
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::asm::disassemble(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_reg_is_never_a_dest() {
        let i = Inst::AluImm {
            op: AluOp::Add,
            rd: XReg::ZERO,
            rs1: XReg::A0,
            imm: 4,
        };
        assert!(i.dests().is_empty());
    }

    #[test]
    fn vmac_reads_its_destination() {
        let i = Inst::VMac {
            ty: VType::Fp,
            width: ElemWidth::Word,
            vd: VReg::new(2),
            vs1: VReg::new(3),
            vs2: VReg::new(4),
            pred: PReg::P0,
        };
        let srcs = i.srcs();
        assert!(srcs.contains(&RegRef::v(VReg::new(2))));
        assert_eq!(*i.dests(), [RegRef::v(VReg::new(2))]);
    }

    #[test]
    fn hardwired_p0_not_a_source() {
        let i = Inst::VArith {
            op: VOp::Add,
            ty: VType::Fp,
            width: ElemWidth::Word,
            vd: VReg::new(0),
            vs1: VReg::new(1),
            vs2: VReg::new(2),
            pred: PReg::P0,
        };
        assert_eq!(i.srcs().len(), 2);
        let ip = Inst::VArith {
            op: VOp::Add,
            ty: VType::Fp,
            width: ElemWidth::Word,
            vd: VReg::new(0),
            vs1: VReg::new(1),
            vs2: VReg::new(2),
            pred: PReg::new(3),
        };
        assert_eq!(ip.srcs().len(), 3);
    }

    #[test]
    fn only_scalar_instructions_are_vector_length_free() {
        let add = Inst::Alu {
            op: AluOp::Add,
            rd: XReg::A0,
            rs1: XReg::A1,
            rs2: XReg::A2,
        };
        for free in [add, Inst::Halt, Inst::Nop] {
            assert!(!free.may_read_vlen(), "{free:?}");
        }
        let reads = [
            Inst::CntVl {
                rd: XReg::A0,
                width: ElemWidth::Word,
            },
            Inst::SsGetVl {
                rd: XReg::A0,
                width: ElemWidth::Word,
            },
            Inst::VMv {
                vd: VReg::new(0),
                vs: VReg::new(1),
            },
            Inst::SsCtl {
                op: StreamCtl::Stop,
                u: VReg::new(0),
            },
        ];
        for inst in reads {
            assert!(inst.may_read_vlen(), "{inst:?}");
        }
    }

    #[test]
    fn exec_classes() {
        assert_eq!(
            Inst::Alu {
                op: AluOp::Mul,
                rd: XReg::A0,
                rs1: XReg::A1,
                rs2: XReg::A2
            }
            .exec_class(),
            ExecClass::IntMul
        );
        assert_eq!(
            Inst::SsStart {
                u: VReg::new(0),
                dir: Dir::Load,
                width: ElemWidth::Word,
                base: XReg::A0,
                size: XReg::A1,
                stride: XReg::A2,
                done: true
            }
            .exec_class(),
            ExecClass::StreamCfg
        );
        assert!(Inst::Halt.exec_class() == ExecClass::Simple);
    }

    #[test]
    fn branch_target_roundtrip() {
        let mut i = Inst::SsBranch {
            cond: StreamCond::NotEnd,
            u: VReg::new(0),
            target: 0,
        };
        assert!(i.is_branch());
        i.set_branch_target(42);
        assert_eq!(i.branch_target(), Some(42));
    }

    #[test]
    fn post_increment_load_writes_base() {
        let i = Inst::VLoadPost {
            vd: VReg::new(1),
            base: XReg::A0,
            width: ElemWidth::Word,
            pred: PReg::P0,
        };
        assert!(i.dests().contains(&RegRef::x(XReg::A0)));
        assert!(i.srcs().contains(&RegRef::x(XReg::A0)));
    }
}
