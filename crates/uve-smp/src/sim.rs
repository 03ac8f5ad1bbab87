//! Lockstep multicore timing simulation and preemptive multiprogramming.
//!
//! Both modes step [`CorePipeline`]s cycle by cycle against one shared
//! [`SmpMem`] hierarchy: lockstep runs through [`uve_cpu::lockstep`], the
//! one timing driver, and the multiprogrammed scheduler with a loop of its
//! own, since it moves programs between cores. Coherence between the
//! per-core L1s is maintained live by the MOESI snoop bus inside `SmpMem`,
//! and can additionally be audited with a full single-writer cross-product
//! scan every `check_every` global cycles.

use crate::shard::shard_relocations;
use std::collections::VecDeque;
use uve_core::{Relocation, Trace};
use uve_cpu::{lockstep, CorePipeline, CpuConfig, TimingStats};
use uve_mem::{
    CoherenceViolation, FaultStats, MemPort, MemStats, Path, ReadOutcome, SmpMem, SmpPort,
    SnoopStats, Translation,
};

/// A core's port with its clock shifted forward by a constant offset.
///
/// Shared-resource arbitration (snoop bus, L2 ports, DRAM banks) keeps
/// absolute `free` timestamps, which is correct while all cores share one
/// clock (lockstep mode). Under preemptive multiprogramming a requeued
/// program resumes with its *program-local* clock, which lags global time
/// by however long it sat in the run queue — presented raw, `free.max(now)`
/// would charge it a phantom stall spanning the whole wait. The scheduler
/// therefore shifts each request into global time (`local + offset`) and
/// shifts the returned ready cycle back, preserving latencies exactly.
struct ShiftedPort<'m> {
    inner: SmpPort<'m>,
    offset: u64,
}

impl MemPort for ShiftedPort<'_> {
    fn translate(&mut self, vaddr: u64) -> Translation {
        self.inner.translate(vaddr)
    }

    fn fault_transient(&mut self, line: u64, attempt: u32) -> bool {
        self.inner.fault_transient(line, attempt)
    }

    fn fault_poisoned(&mut self, line: u64, attempt: u32, from_dram: bool, path: Path) -> bool {
        self.inner.fault_poisoned(line, attempt, from_dram, path)
    }

    fn fault_backoff(&self, attempt: u32) -> u64 {
        self.inner.fault_backoff(attempt)
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }

    fn read_explained(&mut self, addr: u64, pc: u64, now: u64, path: Path) -> ReadOutcome {
        let mut r = self.inner.read_explained(addr, pc, now + self.offset, path);
        r.ready = r.ready.saturating_sub(self.offset);
        r
    }

    fn write(&mut self, addr: u64, pc: u64, now: u64, path: Path) -> u64 {
        self.inner
            .write(addr, pc, now + self.offset, path)
            .saturating_sub(self.offset)
    }

    fn write_full_line(&mut self, addr: u64, pc: u64, now: u64, path: Path) -> u64 {
        self.inner
            .write_full_line(addr, pc, now + self.offset, path)
            .saturating_sub(self.offset)
    }

    fn stats(&self) -> MemStats {
        self.inner.stats()
    }

    fn bus_utilization(&self, cycles: u64) -> f64 {
        self.inner.bus_utilization(cycles)
    }
}

/// Result of one multicore timing run.
#[derive(Debug, PartialEq)]
pub struct SmpRun {
    /// Per-core timing statistics (cycle accounting obeys the single-core
    /// conservation laws on every core).
    pub per_core: Vec<TimingStats>,
    /// Per-core snoop counters.
    pub snoop: Vec<SnoopStats>,
    /// Total snoop-bus transactions.
    pub bus_transactions: u64,
    /// Makespan: the slowest core's cycle count.
    pub makespan: u64,
}

/// Runs one trace per core in lockstep over a shared hierarchy.
///
/// Core `c` executes `traces[c]` on [`uve_cpu::lockstep`], the one timing
/// driver, over a fresh `traces.len()`-core [`SmpMem`]; all cores advance
/// one cycle per global step (finished cores idle). A single trace is the
/// cold single-core replay, `OoOCore::run`.
///
/// # Errors
///
/// Returns the first single-writer violation found by the periodic full
/// scan (`check_every` global cycles; `0` scans only at the end).
pub fn run_lockstep(
    cpu: &CpuConfig,
    traces: &[Trace],
    check_every: u64,
) -> Result<SmpRun, CoherenceViolation> {
    let cores: Vec<(&Trace, Relocation)> =
        traces.iter().map(|t| (t, Relocation::identity())).collect();
    run_cores(cpu, &cores, check_every)
}

/// Runs `trace` on each of `cores` cores in lockstep, data-parallel: every
/// written line except the first `shared_written` is private to each core.
/// The cores share the one trace and relocate each line as they request
/// it, so this is cycle-identical to [`run_lockstep`] over
/// [`crate::shard_trace`] copies, without the copies.
///
/// # Errors
///
/// As [`run_lockstep`].
pub fn run_sharded(
    cpu: &CpuConfig,
    trace: &Trace,
    cores: usize,
    shared_written: usize,
    check_every: u64,
) -> Result<SmpRun, CoherenceViolation> {
    let cores: Vec<(&Trace, Relocation)> = shard_relocations(trace, cores, shared_written)
        .into_iter()
        .map(|r| (trace, r))
        .collect();
    run_cores(cpu, &cores, check_every)
}

/// Core `c` replays `cores[c].0` under relocation `cores[c].1`.
fn run_cores(
    cpu: &CpuConfig,
    cores: &[(&Trace, Relocation)],
    check_every: u64,
) -> Result<SmpRun, CoherenceViolation> {
    let mut mem = SmpMem::new(cpu.mem.clone(), cores.len());
    let per_core = lockstep(cpu, cores, &mut mem, check_every, None)?;
    Ok(SmpRun {
        makespan: per_core.iter().map(|s| s.cycles).max().unwrap_or(0),
        per_core,
        snoop: (0..mem.cores()).map(|c| mem.snoop_stats(c)).collect(),
        bus_transactions: mem.bus_transactions(),
    })
}

/// Multiprogrammed-mode configuration.
#[derive(Debug, Clone)]
pub struct MpConfig {
    /// Physical cores to time-slice over.
    pub cores: usize,
    /// Cycles a program may run before the scheduler freezes its front end
    /// and begins draining it for preemption.
    pub quantum: u64,
    /// Cycles the core spends restoring a preempted program's stream
    /// contexts (saved walkers re-derived, pipeline refilled) before the
    /// slice's first fetch; the program occupies the core for the duration
    /// and the cycles are charged to its `frontend` account.
    pub restore_penalty: u64,
    /// Global-cycle period of the full coherence scan (`0`: end only).
    pub check_every: u64,
}

impl Default for MpConfig {
    fn default() -> Self {
        Self {
            cores: 2,
            quantum: 5_000,
            restore_penalty: 200,
            check_every: 0,
        }
    }
}

/// Per-program outcome of a multiprogrammed run.
#[derive(Debug)]
pub struct MpOutcome {
    /// The program's own timing statistics (program-local cycles; cycle
    /// accounting conservation holds, restore penalties included under
    /// `frontend`).
    pub stats: TimingStats,
    /// Times the program was preempted (drained and requeued).
    pub preemptions: u64,
    /// Scheduling slices the program received.
    pub slices: u64,
}

/// Result of a multiprogrammed timing run.
#[derive(Debug)]
pub struct MpRun {
    /// Per-program outcomes, in input order.
    pub programs: Vec<MpOutcome>,
    /// Global scheduler ticks until the last program finished.
    pub scheduler_ticks: u64,
    /// Per-core snoop counters.
    pub snoop: Vec<SnoopStats>,
    /// Total snoop-bus transactions.
    pub bus_transactions: u64,
}

/// Why a program currently holds (or left) a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slice {
    Running,
    Draining,
}

struct MpProg<'t> {
    trace: &'t Trace,
    pipe: Option<CorePipeline>,
    slice_start: u64,
    /// Global time minus program-local time, fixed for the current slice.
    /// Local clocks only ever lag global time (they advance one cycle per
    /// scheduled tick), so the offset is non-negative.
    offset: u64,
    /// Restore ticks still to burn before this slice's first fetch.
    restore_left: u64,
    mode: Slice,
    pending_restore: bool,
    preemptions: u64,
    slices: u64,
    last_core: usize,
    done: bool,
}

/// Time-slices more runnable programs than cores, round robin, preempting
/// at `quantum`-cycle boundaries by draining the pipeline (freeze fetch,
/// let the in-flight window retire) and requeueing — deterministic for a
/// given input order.
///
/// Each program keeps one pipeline for its whole life, so its
/// program-local cycle count and cycle accounting accumulate across slices
/// exactly like a solo run plus explicitly-charged restore penalties.
///
/// # Errors
///
/// Returns the first single-writer violation found by the periodic full
/// coherence scan.
///
/// # Panics
///
/// Panics if a draining program fails to drain within the no-retire
/// watchdog (a model bug).
pub fn run_multiprogrammed(
    cpu: &CpuConfig,
    traces: &[&Trace],
    cfg: &MpConfig,
) -> Result<MpRun, CoherenceViolation> {
    let ncores = cfg.cores.max(1);
    let quantum = cfg.quantum.max(1);
    let mut mem = SmpMem::new(cpu.mem.clone(), ncores);
    let mut progs: Vec<MpProg> = traces
        .iter()
        .map(|t| MpProg {
            trace: t,
            pipe: None,
            slice_start: 0,
            offset: 0,
            restore_left: 0,
            mode: Slice::Running,
            pending_restore: false,
            preemptions: 0,
            slices: 0,
            last_core: 0,
            done: t.ops.is_empty(),
        })
        .collect();
    let mut queue: VecDeque<usize> = (0..progs.len()).filter(|&i| !progs[i].done).collect();
    let mut slots: Vec<Option<usize>> = vec![None; ncores];
    let mut ticks: u64 = 0;

    while !queue.is_empty() || slots.iter().any(Option::is_some) {
        // Fill free cores round robin.
        for (core, slot) in slots.iter_mut().enumerate() {
            if slot.is_none() {
                if let Some(idx) = queue.pop_front() {
                    let p = &mut progs[idx];
                    let pipe = p.pipe.get_or_insert_with(|| {
                        CorePipeline::new(cpu.clone(), p.trace, core, false)
                    });
                    if p.pending_restore {
                        p.restore_left = cfg.restore_penalty;
                        p.pending_restore = false;
                    }
                    p.offset = ticks - pipe.now();
                    // Restore ticks advance the local clock one-for-one, so
                    // the quantum starts where the restore ends.
                    p.slice_start = pipe.now() + p.restore_left;
                    p.mode = Slice::Running;
                    p.slices += 1;
                    p.last_core = core;
                    *slot = Some(idx);
                }
            }
        }
        // Step every occupied core one cycle, in core order.
        for (core, slot) in slots.iter_mut().enumerate() {
            let Some(idx) = *slot else { continue };
            let p = &mut progs[idx];
            let pipe = p.pipe.as_mut().expect("scheduled program has a pipeline");
            if p.restore_left > 0 {
                // The core is busy re-deriving stream contexts: local and
                // global clocks advance together, no instructions move.
                pipe.charge_restore_penalty(1);
                p.restore_left -= 1;
                continue;
            }
            let mut port = ShiftedPort {
                inner: mem.port(core),
                offset: p.offset,
            };
            pipe.step(p.trace, &mut port, None);
            if pipe.finished() {
                p.done = true;
                *slot = None;
                continue;
            }
            match p.mode {
                Slice::Running => {
                    if pipe.now().saturating_sub(p.slice_start) >= quantum {
                        // Quantum expired: stop fetching, drain in place.
                        pipe.set_fetch_frozen(true);
                        p.mode = Slice::Draining;
                    }
                }
                Slice::Draining => {
                    if pipe.drained() {
                        pipe.set_fetch_frozen(false);
                        p.preemptions += 1;
                        p.pending_restore = true;
                        *slot = None;
                        queue.push_back(idx);
                    }
                }
            }
        }
        if cfg.check_every > 0 && ticks.is_multiple_of(cfg.check_every) {
            mem.check_coherence()?;
        }
        ticks += 1;
    }
    mem.check_coherence()?;

    let snoop = (0..ncores).map(|c| mem.snoop_stats(c)).collect();
    let bus_transactions = mem.bus_transactions();
    let programs = progs
        .into_iter()
        .map(|p| {
            let stats = match p.pipe {
                Some(pipe) => {
                    let port = mem.port(p.last_core);
                    pipe.finish(&port)
                }
                None => TimingStats::default(),
            };
            MpOutcome {
                stats,
                preemptions: p.preemptions,
                slices: p.slices,
            }
        })
        .collect();
    Ok(MpRun {
        programs,
        scheduler_ticks: ticks,
        snoop,
        bus_transactions,
    })
}
