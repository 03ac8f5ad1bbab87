//! Cycle-level out-of-order CPU timing model for the UVE evaluation.
//!
//! Reproduces the simulation substrate of *"Unlimited Vector Extension with
//! Data Streaming Support"* (ISCA 2021): a Cortex-A76-like out-of-order
//! pipeline (Table I) extended with the Streaming Engine, replaying dynamic
//! traces produced by [`uve_core::Emulator`].
//!
//! # Example
//!
//! ```rust
//! use uve_core::{EmuConfig, Emulator};
//! use uve_cpu::{CpuConfig, OoOCore};
//! use uve_isa::assemble;
//! use uve_mem::Memory;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = assemble("count", "
//!     li x1, 100
//! loop:
//!     addi x1, x1, -1
//!     bne x1, x0, loop
//!     halt
//! ")?;
//! let mut emu = Emulator::new(EmuConfig::default(), Memory::new());
//! let trace = emu.run(&program)?.trace;
//! let stats = OoOCore::new(CpuConfig::default()).run(&trace);
//! assert!(stats.cycles > 0);
//! println!("IPC = {:.2}", stats.ipc());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod config;
mod core;
mod events;
mod predictor;
mod stats;

pub use config::CpuConfig;
pub use core::{lockstep, CorePipeline, OoOCore};
pub use events::{ChunkSpan, EventLog, FifoPoint, OpSpan};
pub use predictor::Bimodal;
pub use stats::{CycleAccount, RenameBlockReason, RenameBlockReasons, TimingStats};
