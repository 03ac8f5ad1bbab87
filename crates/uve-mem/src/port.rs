//! [`MemPort`]: one agent's access interface to a memory hierarchy.
//!
//! The out-of-order core and the Streaming Engine issue every request
//! through this trait, so the same pipeline code runs against either the
//! single-core [`MemSystem`](crate::MemSystem) or one core's port into the
//! shared multicore hierarchy ([`SmpPort`](crate::SmpPort)). Both
//! implementations forward to the same [`SmpMem`](crate::SmpMem) methods
//! (the single-core one to core 0 of a one-core instance), so the memory
//! timing is one piece of code.

use crate::fault::FaultStats;
use crate::hierarchy::{MemStats, Path, ReadOutcome};
use crate::tlb::Translation;

/// One agent's view of a memory hierarchy: translation, fault-injection
/// queries, and timed reads/writes along the paper's request paths.
///
/// Both implementations in this crate forward each method to
/// [`SmpMem`](crate::SmpMem) for the agent's core; see the documentation of
/// its methods for the timing semantics.
pub trait MemPort {
    /// Translates a virtual address (streams and the LSQ both use this).
    fn translate(&mut self, vaddr: u64) -> Translation;

    /// Does the request for `line` transiently fail at retry `attempt`?
    fn fault_transient(&mut self, line: u64, attempt: u32) -> bool;

    /// Is a response for `line` poisoned at retry `attempt`?
    fn fault_poisoned(&mut self, line: u64, attempt: u32, from_dram: bool, path: Path) -> bool;

    /// Backoff in cycles before retry `attempt`.
    fn fault_backoff(&self, attempt: u32) -> u64;

    /// Injected-fault counters for this agent.
    fn fault_stats(&self) -> FaultStats;

    /// A demand read with stall attribution (MSHR wait, DRAM service,
    /// snoop forwarding).
    fn read_explained(&mut self, addr: u64, pc: u64, now: u64, path: Path) -> ReadOutcome;

    /// A demand read; returns the data-ready cycle.
    fn read(&mut self, addr: u64, pc: u64, now: u64, path: Path) -> u64 {
        self.read_explained(addr, pc, now, path).ready
    }

    /// A demand write (write-allocate); returns the acceptance cycle.
    fn write(&mut self, addr: u64, pc: u64, now: u64, path: Path) -> u64;

    /// A full-line write (no allocate-read needed); returns the acceptance
    /// cycle.
    fn write_full_line(&mut self, addr: u64, pc: u64, now: u64, path: Path) -> u64;

    /// This agent's aggregated statistics (for the multicore hierarchy:
    /// the per-core slice, with shared-device traffic attributed to the
    /// cores that caused it).
    fn stats(&self) -> MemStats;

    /// DRAM bus utilization over `cycles`.
    fn bus_utilization(&self, cycles: u64) -> f64;
}
