//! Functional preemptive scheduling: round-robin time slicing of more
//! runnable programs than cores, with full stream-context save/restore at
//! every preemption.
//!
//! This is the architectural half of the multiprogramming story (the
//! timing half is [`crate::sim::run_multiprogrammed`]): each job runs on
//! its own [`Emulator`] and is advanced `quantum` dynamic instructions at
//! a time through [`Emulator::resume`]. At every preemption the scheduler
//! performs the paper's context-switch protocol — save every active
//! stream's walker state ([`Emulator::save_stream_context`]), discard the
//! prefetched FIFO contents, and restore from the saved walkers on the
//! next slice — so a slice boundary landing mid-chunk, inside an
//! indirect-modifier region, or at a non-VLEN-multiple element must still
//! produce a final architectural state bit-identical to an uninterrupted
//! run.

use uve_core::{EmuError, Emulator, RunCursor};
use uve_isa::Program;

/// One runnable program with its private emulator.
pub struct Job {
    /// Display name.
    pub name: String,
    /// The program to run.
    pub program: Program,
    /// The emulator (pre-loaded with the job's working set).
    pub emu: Emulator,
}

/// Final state of one job after the schedule completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutcome {
    /// Display name.
    pub name: String,
    /// Dynamic instructions executed.
    pub steps: u64,
    /// Scheduling slices received.
    pub slices: u64,
    /// Preemptions taken (slices that ended before halt).
    pub preemptions: u64,
    /// FNV digest of the final architectural register state.
    pub arch_digest: u64,
    /// Content hash of the final memory image.
    pub mem_hash: u64,
}

/// Errors from a round-robin schedule.
#[derive(Debug)]
pub enum SchedError {
    /// A job's emulation failed.
    Emu {
        /// The failing job's name.
        name: String,
        /// The underlying emulator error.
        err: EmuError,
    },
    /// The scheduler exceeded its slice budget without every job halting —
    /// a livelock (this is what the conformance no-deadlock probe checks).
    Livelock {
        /// Slices executed before giving up.
        slices: u64,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::Emu { name, err } => write!(f, "job {name}: {err}"),
            SchedError::Livelock { slices } => {
                write!(f, "scheduler livelock: {slices} slices without completion")
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// Runs `jobs` to completion under round-robin preemptive scheduling with
/// a `quantum`-instruction time slice, returning per-job outcomes in input
/// order.
///
/// # Errors
///
/// Propagates the first emulation failure, or reports a livelock if the
/// slice budget (derived from each emulator's own fuel limit) is exhausted.
pub fn run_round_robin(jobs: Vec<Job>, quantum: u64) -> Result<Vec<JobOutcome>, SchedError> {
    let quantum = quantum.max(1);
    let mut slice_budget: u64 = 0;
    for job in &jobs {
        // Each job can take at most fuel/quantum slices before its own
        // OutOfFuel error fires; anything beyond that is a scheduler bug.
        slice_budget = slice_budget.saturating_add(job.emu.config().max_steps / quantum + 2);
    }
    let mut names = Vec::new();
    let mut states: Vec<(Program, Emulator, RunCursor, u64, u64)> = Vec::new();
    for job in jobs {
        names.push(job.name);
        states.push((job.program, job.emu, RunCursor::new(), 0, 0));
    }
    let mut queue: std::collections::VecDeque<usize> = (0..states.len()).collect();
    let mut slices: u64 = 0;
    while let Some(idx) = queue.pop_front() {
        if slices >= slice_budget {
            return Err(SchedError::Livelock { slices });
        }
        slices += 1;
        let (program, emu, cursor, job_slices, preemptions) = &mut states[idx];
        *job_slices += 1;
        let halted = emu
            .resume(program, cursor, Some(quantum))
            .map_err(|err| SchedError::Emu {
                name: names[idx].clone(),
                err,
            })?;
        if halted {
            continue;
        }
        // Context switch: save the active stream walkers, then restore
        // from the saved state — the restore path discards any prefetched
        // FIFO data and re-derives it from memory, exactly what a switch
        // to another program's context forces.
        *preemptions += 1;
        let saved = emu.save_stream_context();
        emu.restore_stream_context(&saved);
        queue.push_back(idx);
    }
    Ok(names
        .into_iter()
        .zip(states)
        .map(|(name, (_, emu, cursor, slices, preemptions))| JobOutcome {
            name,
            steps: cursor.steps(),
            slices,
            preemptions,
            arch_digest: emu.arch_digest(),
            mem_hash: emu.mem.content_hash(),
        })
        .collect())
}
