//! Instruction set architecture for the Unlimited Vector Extension (UVE).
//!
//! Implements Section III of *"Unlimited Vector Extension with Data Streaming
//! Support"* (ISCA 2021): the UVE streaming instructions (`ss.*`
//! configuration/control, `so.*` stream/vector data processing and
//! stream-conditional branches), the scalar RISC-V-flavoured base subset, and
//! the SVE-like baseline instructions (`whilelt`, predicated vector
//! load/store, gather/scatter) used by the paper's evaluation.
//!
//! The crate provides:
//!
//! - [`Inst`]: the instruction type shared by the functional emulator and the
//!   timing model, with operand ([`Inst::srcs`]/[`Inst::dests`]) and resource
//!   ([`Inst::exec_class`]) metadata;
//! - [`Program`] / [`ProgramBuilder`]: label-resolved instruction sequences;
//! - [`assemble`] / [`disassemble_program`]: the textual assembler;
//! - [`encode`] / [`decode`]: dense 32-bit binary encodings.
//!
//! # Example
//!
//! The paper's Fig. 1.D saxpy kernel:
//!
//! ```rust
//! use uve_isa::assemble;
//!
//! # fn main() -> Result<(), uve_isa::AsmError> {
//! let program = assemble("saxpy", r#"
//!     ss.ld.w u0, x11, x10, x13   ; x stream
//!     ss.ld.w u1, x12, x10, x13   ; y stream (input)
//!     ss.st.w u2, x12, x10, x13   ; y stream (output)
//!     so.v.dup.w.fp u3, f10       ; broadcast a
//! loop:
//!     so.a.mul.w.fp u4, u3, u0, p0
//!     so.a.add.w.fp u2, u4, u1, p0
//!     so.b.nend u0, loop
//!     halt
//! "#)?;
//! assert_eq!(program.len(), 8);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod asm;
mod encode;
mod inst;
mod program;
mod reg;

pub use asm::{
    assemble, assemble_units, disassemble, disassemble_program, AsmError, AsmErrorKind, Span,
};
pub use encode::{decode, encode, encode_program, DecodeError, EncodeError};
pub use inst::{
    AluOp, BrCond, Dir, DupSrc, ExecClass, FpOp, FpUnOp, HorizOp, Inst, MemLevel, PredCond, PredOp,
    RegList, StreamCond, StreamCtl, VCmpOp, VOp, VType, VUnOp,
};
pub use program::{Program, ProgramBuilder, ProgramError};
pub use reg::{
    FReg, PReg, RegClass, RegRef, VReg, XReg, NUM_FREGS, NUM_PREGS, NUM_VREGS, NUM_XREGS,
};

// Re-export the stream-configuration vocabulary used in instruction fields.
pub use uve_stream::{Behaviour, ElemWidth, IndirectBehaviour, Param};
