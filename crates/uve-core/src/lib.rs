//! The UVE core library: the paper's primary contribution.
//!
//! This crate implements the architectural and microarchitectural heart of
//! *"Unlimited Vector Extension with Data Streaming Support"* (ISCA 2021):
//!
//! - [`StreamUnit`]: the functional (value-level) stream infrastructure —
//!   stream configuration from `ss.*` instructions, destructive
//!   consumption/production with automatic out-of-bounds lane disabling,
//!   suspend/resume/stop, and context save/restore;
//! - [`Emulator`]: a full-ISA functional emulator executing
//!   [`uve_isa::Program`]s against [`uve_mem::Memory`], producing a dynamic
//!   [`Trace`];
//! - [`engine`]: the cycle-level Streaming Engine (Stream Table, SCROB,
//!   stream scheduler, load/store FIFOs, address-generator pacing) consumed
//!   by the out-of-order timing model in `uve-cpu`, plus the
//!   hardware-storage report of Sec. VI-C.
//!
//! # Example: running the paper's saxpy
//!
//! ```rust
//! use uve_core::{Emulator, EmuConfig};
//! use uve_isa::assemble;
//! use uve_mem::Memory;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble("saxpy", r#"
//!     li x10, 64
//!     li x11, 0x10000
//!     li x12, 0x20000
//!     li x13, 1
//!     ss.ld.w u0, x11, x10, x13
//!     ss.ld.w u1, x12, x10, x13
//!     ss.st.w u2, x12, x10, x13
//!     so.v.dup.w.fp u3, f10
//! loop:
//!     so.a.mul.w.fp u4, u3, u0, p0
//!     so.a.add.w.fp u2, u4, u1, p0
//!     so.b.nend u0, loop
//!     halt
//! "#)?;
//!
//! let mut emu = Emulator::new(EmuConfig::default(), Memory::new());
//! emu.set_f(uve_isa::FReg::FA0, 3.0);
//! emu.mem.write_f32_slice(0x10000, &vec![1.0; 64]);
//! emu.mem.write_f32_slice(0x20000, &vec![2.0; 64]);
//! let result = emu.run(&program)?;
//! assert_eq!(emu.mem.read_f32(0x20000), 5.0); // 3·1 + 2
//! assert!(result.trace.committed() > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod deadline;
mod emulator;
pub mod engine;
pub mod fingerprint;
mod stream_unit;
mod trace;
mod value;

pub use emulator::{
    EmuConfig, EmuError, Emulator, ExecMode, RunCursor, RunResult, StreamFaultPlan,
};
pub use fingerprint::{canonical_program_bytes, program_fingerprint};
pub use stream_unit::{ActiveStream, Consumed, StreamError, StreamUnit};
pub use trace::{
    ChunkMeta, ChunkRef, EmptyVec, EmptyVecElem, Relocation, StreamInstance, StreamTrace, Trace,
    TraceOp,
};
pub use value::{PredVal, Scalar, VecVal, MAX_LANES};

pub use uve_stream::IndirectPacking;
// The content-key hash, for the sweep service, which builds on this crate
// rather than on `uve-mem`.
pub use uve_mem::{fnv1a_key, FNV_OFFSET};
