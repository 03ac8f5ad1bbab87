//! The cycle-driven out-of-order core timing model.
//!
//! The model replays a committed-path [`Trace`] through a Cortex-A76-like
//! pipeline (Table I): 4-wide fetch and commit, 8-wide issue across three
//! scheduler clusters (integer, FP/vector, memory), a 128-entry ROB,
//! 32/48-entry load/store queues, per-class physical register files, a
//! bimodal branch predictor with front-end refill penalties, the shared
//! memory hierarchy, and — for UVE code — the Streaming Engine.
//!
//! Being trace-driven, wrong-path instructions are not executed; their
//! dominant cost (front-end bubbles between a mispredicted branch's fetch
//! and its resolution plus the redirect penalty) is modelled, which is the
//! substitution documented in `DESIGN.md`.

use crate::config::CpuConfig;
use crate::events::{ChunkSpan, EventLog, FifoPoint, OpSpan};
use crate::predictor::Bimodal;
use crate::stats::{CycleAccount, RenameBlockReason, TimingStats};
use uve_core::engine::{ChunkStatus, EngineSim};
use uve_core::{ChunkRef, Relocation, Trace};
use uve_isa::{Dir, ExecClass, RegClass, RegRef};
use uve_mem::{CoherenceViolation, MemPort, Path, SmpMem, LINE_BYTES};

/// Scheduler cluster indices.
const CL_INT: usize = 0;
const CL_FPVEC: usize = 1;
const CL_MEM: usize = 2;

fn cluster_of(class: ExecClass) -> usize {
    match class {
        ExecClass::Load | ExecClass::Store => CL_MEM,
        ExecClass::FpAdd
        | ExecClass::FpMul
        | ExecClass::FpMac
        | ExecClass::FpDiv
        | ExecClass::VecInt => CL_FPVEC,
        _ => CL_INT,
    }
}

fn class_idx(c: RegClass) -> usize {
    match c {
        RegClass::Int => 0,
        RegClass::Fp => 1,
        RegClass::Vec => 2,
        RegClass::Pred => 3,
    }
}

const NOT_DONE: u64 = u64::MAX;

/// Registers per class in the rename table (the largest architectural
/// register file).
const REGS_PER_CLASS: usize = 32;

/// "No in-flight writer" in the rename table.
const NO_WRITER: usize = usize::MAX;

/// The rename-table slot of an architectural register.
fn reg_slot(r: RegRef) -> usize {
    class_idx(r.class) * REGS_PER_CLASS + usize::from(r.num)
}

/// Renders the no-retire watchdog diagnostic: instead of spinning silently
/// to `max_cycles`, a deadlocked model dumps where commit is stuck and the
/// full cycle-accounting table so the stall is attributable post mortem.
#[allow(clippy::too_many_arguments)]
fn watchdog_report(
    watchdog_cycles: u64,
    now: u64,
    commit_ptr: usize,
    n: usize,
    rob_used: usize,
    account: &CycleAccount,
    trace: &Trace,
    head_done: u64,
    engine: &EngineSim,
) -> String {
    use std::fmt::Write as _;
    let head_op = &trace.ops[commit_ptr];
    let head_reads = trace.stream_reads(head_op);
    let mut out =
        format!("no-retire watchdog: {watchdog_cycles} cycles without a commit at cycle {now}\n");
    let _ = writeln!(
        out,
        "  commit_ptr {commit_ptr}/{n}, rob_used {rob_used}, head pc={} exec={:?} done={}",
        head_op.pc,
        head_op.exec,
        if head_done == NOT_DONE {
            "never-issued".to_string()
        } else {
            head_done.to_string()
        },
    );
    if !head_reads.is_empty() {
        let _ = writeln!(out, "  head stream_reads: {head_reads:?}");
    }
    let _ = writeln!(
        out,
        "  engine: {} open stream(s), occupancies {:?}",
        engine.open_streams(),
        engine.occupancies(),
    );
    let _ = writeln!(out, "  cycle accounting so far:");
    for (name, value) in CycleAccount::CATEGORIES.iter().zip(account.values()) {
        if value > 0 {
            let _ = writeln!(out, "    {name:<12} {value}");
        }
    }
    out
}

/// Issue-queue kind flag: a store (uses a store port, not a load port).
const K_STORE: u8 = 1;
/// Issue-queue kind flag: reads stream chunks, so the Streaming Engine is
/// polled before the op may issue.
const K_STREAM: u8 = 2;

/// End of a waiter or timer list.
const NIL: u32 = u32::MAX;

/// Per-op scheduling state of one in-flight op, in the ROB ring.
#[derive(Debug, Clone, Copy)]
struct Wake {
    /// Latest completion cycle among register producers that have issued.
    at: u64,
    /// For an op that reads stream chunks: once the engine has fetched
    /// every chunk, the cycle the last one arrives in its FIFO (a chunk's
    /// arrival cycle never changes while a reader waits); `0` until then.
    stream_at: u64,
    /// Register producers that had not issued when this op was renamed
    /// and still have not.
    pending: u32,
    /// Head of this op's list of waiting consumers (an index into
    /// `CorePipeline::edges`), or [`NIL`].
    waiters: u32,
    /// The next op in this op's timer-wheel bucket, or [`NIL`].
    next_timed: u32,
    /// Scheduler cluster.
    cluster: u8,
    /// [`K_STORE`] and [`K_STREAM`].
    kind: u8,
}

impl Wake {
    const IDLE: Self = Self {
        at: 0,
        stream_at: 0,
        pending: 0,
        waiters: NIL,
        next_timed: NIL,
        cluster: 0,
        kind: 0,
    };
}

/// Timer-wheel buckets: an op whose producers have all issued waits in
/// bucket `at % WHEEL` until cycle `at`, when its registers are ready.
const WHEEL: usize = 64;

/// A set of in-flight ops, one bit per ROB-ring slot.
///
/// Ops are named by their trace index. Every member lies in the in-flight
/// window `commit_ptr..rename_ptr`, which is shorter than the ring, so a
/// slot names at most one member and a range query over part of the
/// window reads members in age order.
#[derive(Debug, Clone)]
struct RingSet {
    words: Vec<u64>,
}

impl RingSet {
    /// A set over a ring of `ring` slots (a power of two, at least 64).
    fn new(ring: usize) -> Self {
        Self {
            words: vec![0; ring / 64],
        }
    }

    #[inline]
    fn word(&self, idx: usize) -> usize {
        (idx >> 6) & (self.words.len() - 1)
    }

    #[inline]
    fn insert(&mut self, idx: usize) {
        let w = self.word(idx);
        self.words[w] |= 1 << (idx & 63);
    }

    #[inline]
    fn remove(&mut self, idx: usize) {
        let w = self.word(idx);
        self.words[w] &= !(1 << (idx & 63));
    }

    #[inline]
    fn contains(&self, idx: usize) -> bool {
        self.words[self.word(idx)] >> (idx & 63) & 1 != 0
    }

    /// The oldest member in `lo..hi`.
    #[inline]
    fn first_in(&self, lo: usize, hi: usize) -> Option<usize> {
        let mut i = lo;
        while i < hi {
            let bits = self.words[self.word(i)] >> (i & 63);
            if bits != 0 {
                let found = i + bits.trailing_zeros() as usize;
                return (found < hi).then_some(found);
            }
            i = (i | 63) + 1;
        }
        None
    }

    /// The youngest member in `lo..hi`.
    #[inline]
    fn last_in(&self, lo: usize, hi: usize) -> Option<usize> {
        let mut end = hi;
        while end > lo {
            let top = end - 1;
            let bits = self.words[self.word(top)] << (63 - (top & 63));
            if bits != 0 {
                let found = top - bits.leading_zeros() as usize;
                return (found >= lo).then_some(found);
            }
            end = top & !63;
        }
        None
    }
}

/// One scheduler cluster.
#[derive(Debug, Clone)]
struct Cluster {
    /// Every op waiting in the cluster.
    queued: RingSet,
    /// The queued ops whose register operands are ready.
    ready: RingSet,
    /// Members of `queued`.
    len: usize,
    /// Members of `ready`.
    ready_len: usize,
}

impl Cluster {
    fn new(ring: usize) -> Self {
        Self {
            queued: RingSet::new(ring),
            ready: RingSet::new(ring),
            len: 0,
            ready_len: 0,
        }
    }

    #[inline]
    fn push(&mut self, idx: usize) {
        self.queued.insert(idx);
        self.len += 1;
    }

    #[inline]
    fn make_ready(&mut self, idx: usize) {
        self.ready.insert(idx);
        self.ready_len += 1;
    }

    /// Takes issued op `idx`, which is ready, out of the cluster.
    #[inline]
    fn remove(&mut self, idx: usize) {
        self.queued.remove(idx);
        self.ready.remove(idx);
        self.len -= 1;
        self.ready_len -= 1;
    }
}

/// True if every stream chunk in `reads` is in its FIFO at `now`. Once
/// the engine has fetched them all, their latest arrival is kept in `w`
/// and the engine is not asked again.
#[inline]
fn streams_ready(w: &mut Wake, reads: &[ChunkRef], engine: &EngineSim, now: u64) -> bool {
    if w.stream_at == 0 {
        for &(inst, chunk) in reads {
            match engine.chunk_status(inst, chunk) {
                ChunkStatus::Ready(r) => w.stream_at = w.stream_at.max(r),
                ChunkStatus::NotFetched => {
                    w.stream_at = 0;
                    return false;
                }
            }
        }
    }
    w.stream_at <= now
}

/// Issue slots left in the current cycle.
#[derive(Debug, Clone, Copy)]
struct Slots {
    width: usize,
    int: usize,
    fpvec: usize,
    loads: usize,
    stores: usize,
}

impl Slots {
    #[inline]
    fn new(cfg: &CpuConfig) -> Self {
        Self {
            width: cfg.issue_width,
            int: cfg.int_units,
            fpvec: cfg.fpvec_units,
            loads: cfg.load_ports,
            stores: cfg.store_ports,
        }
    }

    /// True while cluster `cl` may issue another op at all.
    #[inline]
    fn open(&self, cl: usize) -> bool {
        self.width > 0
            && match cl {
                CL_INT => self.int > 0,
                CL_FPVEC => self.fpvec > 0,
                _ => true,
            }
    }

    /// True if an op of `kind` in cluster `cl` has a port slot left
    /// (only memory ops need one).
    #[inline]
    fn port_free(&self, cl: usize, kind: u8) -> bool {
        if cl != CL_MEM {
            true
        } else if kind & K_STORE != 0 {
            self.stores > 0
        } else {
            self.loads > 0
        }
    }

    #[inline]
    fn take(&mut self, cl: usize, kind: u8) {
        self.width -= 1;
        match cl {
            CL_INT => self.int -= 1,
            CL_FPVEC => self.fpvec -= 1,
            _ if kind & K_STORE != 0 => self.stores -= 1,
            _ => self.loads -= 1,
        }
    }
}

/// The examination order of one cluster's select in one cycle.
///
/// Entries are examined oldest first; after each issue the youngest
/// entry not yet examined is examined next. An entry that cannot issue
/// is passed over and not examined again this cycle. What is left to
/// examine is the cluster's members in `lo..hi`. The oldest end only
/// ever stops at a member of `ready`, so waiting entries cost nothing
/// there.
#[derive(Debug)]
struct Select {
    lo: usize,
    hi: usize,
    from_top: bool,
}

impl Select {
    /// A select over the in-flight window `lo..hi`.
    #[inline]
    fn new(lo: usize, hi: usize) -> Self {
        Self {
            lo,
            hi,
            from_top: false,
        }
    }

    /// The next op to issue, or `None` once every entry has been
    /// examined. `can_issue` decides an op whose registers are ready
    /// (port and stream-chunk checks).
    #[inline]
    fn next(
        &mut self,
        cluster: &Cluster,
        mut can_issue: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        if cluster.ready_len == 0 {
            return None;
        }
        if self.from_top {
            let idx = cluster.queued.last_in(self.lo, self.hi)?;
            self.hi = idx;
            if cluster.ready.contains(idx) && can_issue(idx) {
                return Some(idx);
            }
            self.from_top = false;
        }
        let mut from = self.lo;
        while let Some(idx) = cluster.ready.first_in(from, self.hi) {
            if can_issue(idx) {
                self.lo = idx + 1;
                self.from_top = true;
                return Some(idx);
            }
            from = idx + 1;
        }
        self.lo = self.hi;
        None
    }
}

/// The out-of-order core model: a single-core replay, which [`lockstep`]
/// runs as its one-core case over a one-core [`SmpMem`].
#[derive(Debug, Clone)]
pub struct OoOCore {
    cfg: CpuConfig,
}

impl OoOCore {
    /// Creates a core with the given configuration.
    pub fn new(cfg: CpuConfig) -> Self {
        Self { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Simulates the trace to completion over a fresh (cold) memory
    /// hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds `max_cycles` or the no-retire
    /// watchdog fires (model bugs, not user errors).
    pub fn run(&self, trace: &Trace) -> TimingStats {
        self.replay(trace, &mut SmpMem::new(self.cfg.mem.clone(), 1), None)
    }

    /// Simulates the trace twice over one fresh hierarchy, resetting its
    /// statistics in between, and reports the second (warm) pass — the
    /// steady-state methodology used for the paper's figures.
    pub fn run_warm(&self, trace: &Trace) -> TimingStats {
        let mut mem = SmpMem::new(self.cfg.mem.clone(), 1);
        self.replay(trace, &mut mem, None);
        mem.reset_stats();
        self.replay(trace, &mut mem, None)
    }

    /// Simulates the trace once over a fresh (cold) hierarchy while
    /// capturing per-instruction pipeline spans, stream chunk load-to-use
    /// spans and FIFO occupancy timelines — the single-run visualization
    /// hook behind `uve-bench --bin trace`.
    pub fn run_traced(&self, trace: &Trace) -> (TimingStats, EventLog) {
        let mut mem = SmpMem::new(self.cfg.mem.clone(), 1);
        let mut log = EventLog::default();
        let stats = self.replay(trace, &mut mem, Some(&mut log));
        log.cycles = stats.cycles;
        (stats, log)
    }

    fn replay(&self, trace: &Trace, mem: &mut SmpMem, log: Option<&mut EventLog>) -> TimingStats {
        lockstep(&self.cfg, &[(trace, Relocation::identity())], mem, 0, log)
            .expect("one core cannot break the single-writer invariant")
            .swap_remove(0)
    }
}

/// The one timing driver: replays `cores[c].0` on core `c` of `mem`, under
/// relocation `cores[c].1`, until every trace has committed, and returns
/// each core's statistics (all zero for an empty trace).
///
/// Every live core advances one cycle per global step, in core order,
/// against its own port into `mem`; a finished core idles. A single-core
/// replay ([`OoOCore`]) is the one-core case; `uve-smp`'s multicore runs
/// pass one entry per core. `mem` is not reset, so a second call over the
/// same hierarchy replays warm. `events`, when given, records core 0.
///
/// # Errors
///
/// Returns the first single-writer violation found by the full coherence
/// scan, which runs every `check_every` global cycles (`0`: only at the
/// end).
///
/// # Panics
///
/// Panics if `mem` has fewer cores than `cores`, or as
/// [`CorePipeline::step`] does.
pub fn lockstep(
    cfg: &CpuConfig,
    cores: &[(&Trace, Relocation)],
    mem: &mut SmpMem,
    check_every: u64,
    mut events: Option<&mut EventLog>,
) -> Result<Vec<TimingStats>, CoherenceViolation> {
    let mut pipes: Vec<Option<CorePipeline>> = cores
        .iter()
        .enumerate()
        .map(|(c, (t, reloc))| {
            (!t.ops.is_empty()).then(|| {
                CorePipeline::new(cfg.clone(), t, c, c == 0 && events.is_some())
                    .with_relocation(reloc.clone())
            })
        })
        .collect();
    let mut global: u64 = 0;
    loop {
        let mut live = false;
        for (core, slot) in pipes.iter_mut().enumerate() {
            if let Some(pipe) = slot.as_mut().filter(|p| !p.finished()) {
                let log = events.as_deref_mut().filter(|_| core == 0);
                pipe.step(cores[core].0, &mut mem.port(core), log);
                live = true;
            }
        }
        if check_every > 0 && global.is_multiple_of(check_every) {
            mem.check_coherence()?;
        }
        if !live {
            break;
        }
        global += 1;
    }
    mem.check_coherence()?;
    Ok(pipes
        .into_iter()
        .enumerate()
        .map(|(core, p)| p.map_or_else(TimingStats::default, |p| p.finish(&mem.port(core))))
        .collect())
}

/// One core's pipeline state, steppable cycle by cycle.
///
/// [`lockstep`] is the one loop that steps pipelines to completion, one
/// per core, each against its own port into one [`SmpMem`]; a single-core
/// replay is its one-core case. `uve-smp`'s multiprogrammed scheduler
/// steps pipelines itself, since it moves them between cores.
#[derive(Debug)]
pub struct CorePipeline {
    cfg: CpuConfig,
    core_id: usize,
    n: usize,
    engine: EngineSim,
    predictor: Bimodal,
    done: Vec<u64>,
    // Front end.
    fetch_ptr: usize,
    /// The oldest op not yet renamed: ops `rename_ptr..fetch_ptr` sit in
    /// the decode queue, in order.
    rename_ptr: usize,
    /// Fetch stalls until `done[idx] + penalty` after a mispredict.
    fetch_stalled_on: Option<usize>,
    /// Preemption support: a frozen front end fetches nothing, letting the
    /// in-flight window drain for a context switch.
    fetch_frozen: bool,
    // Rename / backend occupancy.
    commit_ptr: usize,
    rob_used: usize,
    lq_used: usize,
    sq_used: usize,
    free_regs: [usize; 4],
    /// The integer, FP/vector and memory scheduler clusters.
    clusters: [Cluster; 3],
    /// Entries across all clusters.
    iq_used: usize,
    /// Heads of the timer-wheel buckets ([`WHEEL`]), chained through
    /// [`Wake::next_timed`].
    wheel: [u32; WHEEL],
    /// The first cycle whose bucket has not been drained.
    wheel_at: u64,
    /// Per-op wakeup state, in the ROB ring.
    wake: Vec<Wake>,
    /// Waiter-list nodes `(consumer, next)`; freed nodes chain from
    /// `free_edge`.
    edges: Vec<(u32, u32)>,
    free_edge: u32,
    /// Youngest renamed writer of each architectural register
    /// ([`reg_slot`]), or [`NO_WRITER`].
    last_writer: [usize; 4 * REGS_PER_CLASS],
    /// Moves this core's private lines (sharded multicore runs).
    reloc: Relocation,
    stats: TimingStats,
    now: u64,
    /// Mask of the ROB ring: per-op state of in-flight ops lives at
    /// `idx & mask`, a power-of-two ring at least `rob_entries` long, so
    /// a slot is never reused before its op retires.
    mask: usize,
    /// Per-load issue outcome for stall attribution, in the ROB ring.
    /// `(issue cycle, MSHR wait, from DRAM, from a remote L1 over the bus)`.
    load_info: Vec<(u64, u64, bool, bool)>,
    // Event capture (only when a log was requested).
    track: bool,
    rename_at: Vec<u64>,
    issue_at: Vec<u64>,
    fifo_last: [u32; 32],
    /// No-retire watchdog: cycle of the most recent commit (or start).
    last_commit_cycle: u64,
}

impl CorePipeline {
    /// Creates a pipeline for `trace` on core `core_id`. `track` enables
    /// per-op span capture (pass the matching `events` log to every
    /// [`step`](Self::step)).
    pub fn new(cfg: CpuConfig, trace: &Trace, core_id: usize, track: bool) -> Self {
        let n = trace.ops.len();
        assert!(
            u32::try_from(n).is_ok_and(|n| n < NIL),
            "trace of {n} ops exceeds the issue queue's index range"
        );
        let engine = EngineSim::new(cfg.engine);
        let predictor = Bimodal::new(cfg.predictor_entries);
        let ring = cfg.rob_entries.next_power_of_two().max(64);
        let free_regs = cfg.free_regs();
        Self {
            cfg,
            core_id,
            n,
            engine,
            predictor,
            done: vec![NOT_DONE; n],
            fetch_ptr: 0,
            rename_ptr: 0,
            fetch_stalled_on: None,
            fetch_frozen: false,
            commit_ptr: 0,
            rob_used: 0,
            lq_used: 0,
            sq_used: 0,
            free_regs,
            clusters: std::array::from_fn(|_| Cluster::new(ring)),
            iq_used: 0,
            wheel: [NIL; WHEEL],
            wheel_at: 0,
            wake: vec![Wake::IDLE; ring],
            edges: Vec::new(),
            free_edge: NIL,
            last_writer: [NO_WRITER; 4 * REGS_PER_CLASS],
            reloc: Relocation::identity(),
            stats: TimingStats::default(),
            now: 0,
            mask: ring - 1,
            load_info: vec![(0, 0, false, false); ring],
            track,
            rename_at: if track { vec![0; n] } else { Vec::new() },
            issue_at: if track { vec![0; n] } else { Vec::new() },
            fifo_last: [0u32; 32],
            last_commit_cycle: 0,
        }
    }

    /// Moves every line this pipeline and its Streaming Engine request by
    /// `reloc` (the sharded multicore mode runs one trace on every core,
    /// each with its own relocation).
    pub fn with_relocation(mut self, reloc: Relocation) -> Self {
        self.reloc = reloc;
        self
    }

    /// The core id this pipeline runs on.
    pub fn core_id(&self) -> usize {
        self.core_id
    }

    /// The current cycle (cycles stepped so far).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// True once every trace op has committed.
    pub fn finished(&self) -> bool {
        self.commit_ptr >= self.n
    }

    /// Instructions committed so far.
    pub fn committed(&self) -> u64 {
        self.stats.committed
    }

    /// The statistics accumulated so far (`cycles` is only stamped by
    /// [`finish`](Self::finish)).
    pub fn stats(&self) -> &TimingStats {
        &self.stats
    }

    /// Freezes or thaws the front end. A preempting scheduler freezes
    /// fetch, steps until [`drained`](Self::drained), and swaps pipelines.
    pub fn set_fetch_frozen(&mut self, frozen: bool) {
        self.fetch_frozen = frozen;
    }

    /// True when no instruction is in flight (ROB and decode queue empty) —
    /// the point where a context switch can take the core.
    pub fn drained(&self) -> bool {
        self.rob_used == 0 && self.rename_ptr == self.fetch_ptr
    }

    /// Charges `penalty` idle cycles for a context-switch restore (stream
    /// contexts reloaded, caches re-warmed by later misses). Attributed to
    /// the `frontend` category — the pipeline refills from scratch — so
    /// cycle-accounting conservation holds across preemptions.
    pub fn charge_restore_penalty(&mut self, penalty: u64) {
        self.now += penalty;
        self.stats.account.frontend += penalty;
    }

    /// Finishes the run: stamps the cycle count and pulls final statistics
    /// from the memory port.
    pub fn finish<M: MemPort>(mut self, mem: &M) -> TimingStats {
        self.stats.cycles = self.now;
        self.stats.finalize(mem, &self.engine);
        self.stats
    }

    /// Commits up to `commit_width` completed ops in order; returns how
    /// many.
    fn commit<M: MemPort>(
        &mut self,
        trace: &Trace,
        mem: &mut M,
        mut events: Option<&mut EventLog>,
        now: u64,
    ) -> usize {
        let mut committed = 0;
        while committed < self.cfg.commit_width && self.commit_ptr < self.n {
            let idx = self.commit_ptr;
            // Not issued yet reads as `NOT_DONE`, which is never `<= now`.
            if self.done[idx] > now {
                break;
            }
            let op = &trace.ops[idx];
            if op.is_store() {
                for &line in trace.mem_lines(op) {
                    mem.write(
                        self.reloc.line(line) * LINE_BYTES,
                        u64::from(op.pc),
                        now,
                        Path::Normal,
                    );
                }
            }
            for &(inst, chunk) in trace.stream_reads(op) {
                if let Some(log) = events.as_deref_mut() {
                    if let ChunkStatus::Ready(ready) = self.engine.chunk_status(inst, chunk) {
                        log.chunks.push(ChunkSpan {
                            u: trace.streams[inst as usize].u,
                            chunk,
                            dir: Dir::Load,
                            ready,
                            commit: now,
                        });
                    }
                }
                self.engine.commit_read(inst, chunk);
            }
            for &(inst, chunk) in trace.stream_writes(op) {
                if let Some(log) = events.as_deref_mut() {
                    if let ChunkStatus::Ready(ready) = self.engine.chunk_status(inst, chunk) {
                        log.chunks.push(ChunkSpan {
                            u: trace.streams[inst as usize].u,
                            chunk,
                            dir: Dir::Store,
                            ready,
                            commit: now,
                        });
                    }
                }
                self.engine
                    .commit_write(inst, chunk, now, &trace.streams, &self.reloc, mem);
            }
            if let Some(inst) = op.stream_close() {
                self.engine.close(inst);
            }
            for d in trace.dests(op) {
                self.free_regs[class_idx(d.class)] += 1;
            }
            match op.exec {
                ExecClass::Load => self.lq_used -= 1,
                ExecClass::Store => self.sq_used -= 1,
                _ => {}
            }
            self.rob_used -= 1;
            if let Some(log) = events.as_deref_mut() {
                log.ops.push(OpSpan {
                    idx: idx as u32,
                    pc: op.pc,
                    exec: op.exec,
                    rename: self.rename_at[idx],
                    issue: self.issue_at[idx],
                    done: self.done[idx],
                    commit: now,
                });
            }
            self.commit_ptr += 1;
            committed += 1;
            self.stats.committed += 1;
        }
        if committed > 0 {
            self.last_commit_cycle = now;
        }

        committed
    }

    /// Issues ready ops, cluster by cluster, within the issue width and
    /// the units and ports of each cluster.
    fn issue_ready<M: MemPort>(&mut self, trace: &Trace, mem: &mut M, now: u64) {
        self.drain_wheel(now);
        let mut slots = Slots::new(&self.cfg);
        for cl in [CL_INT, CL_FPVEC, CL_MEM] {
            if self.clusters[cl].ready_len == 0 {
                continue;
            }
            let mut select = Select::new(self.commit_ptr, self.rename_ptr);
            while slots.open(cl) {
                let (wake, mask, engine) = (&mut self.wake, self.mask, &self.engine);
                let Some(idx) = select.next(&self.clusters[cl], |idx| {
                    let w = &mut wake[idx & mask];
                    slots.port_free(cl, w.kind)
                        && (w.kind & K_STREAM == 0
                            || streams_ready(w, trace.stream_reads(&trace.ops[idx]), engine, now))
                }) else {
                    break;
                };
                slots.take(cl, self.wake[idx & self.mask].kind);
                self.clusters[cl].remove(idx);
                self.issue(idx, trace, mem, now);
            }
        }
    }

    /// Renames up to `fetch_width` ops in order into the ROB and the
    /// scheduler clusters. Returns why rename made no progress, if it made
    /// none (with the stream register to blame for store-FIFO
    /// back-pressure).
    #[inline]
    fn rename(&mut self, trace: &Trace, now: u64) -> Option<(RenameBlockReason, u8)> {
        let mut renamed = 0;
        // The reason rename made zero progress this cycle, if any (and,
        // for store-FIFO back-pressure, the stream register to blame).
        let mut cycle_block: Option<RenameBlockReason> = None;
        let mut cycle_block_u: u8 = 0;
        while renamed < self.cfg.fetch_width && self.rename_ptr < self.fetch_ptr {
            let idx = self.rename_ptr;
            let op = &trace.ops[idx];
            let cl = cluster_of(op.exec);
            // Resource checks.
            let mut block = None;
            if self.rob_used >= self.cfg.rob_entries {
                block = Some(RenameBlockReason::Rob);
            } else if self.iq_used >= self.cfg.iq_entries
                || self.clusters[cl].len >= self.cfg.cluster_entries
            {
                block = Some(RenameBlockReason::Iq);
            } else if (op.exec == ExecClass::Load && self.lq_used >= self.cfg.lq_entries)
                || (op.exec == ExecClass::Store && self.sq_used >= self.cfg.sq_entries)
            {
                block = Some(RenameBlockReason::Lsq);
            } else if trace
                .dests(op)
                .iter()
                .any(|d| self.free_regs[class_idx(d.class)] == 0)
            {
                block = Some(RenameBlockReason::Prf);
            } else if trace.stream_writes(op).iter().any(|&(inst, chunk)| {
                self.engine.chunk_status(inst, chunk) == ChunkStatus::NotFetched
            }) {
                // Store FIFO slot not yet reserved by the engine.
                block = Some(RenameBlockReason::StoreFifo);
            }
            if let Some(reason) = block {
                if renamed == 0 {
                    self.stats.rename_blocked_cycles += 1;
                    self.stats.rename_block_reasons.bump(reason);
                    cycle_block = Some(reason);
                    if reason == RenameBlockReason::StoreFifo {
                        cycle_block_u = trace
                            .stream_writes(op)
                            .iter()
                            .find(|&&(inst, chunk)| {
                                self.engine.chunk_status(inst, chunk) == ChunkStatus::NotFetched
                            })
                            .map_or(0, |&(inst, _)| trace.streams[inst as usize].u);
                    }
                }
                break;
            }
            self.rename_ptr += 1;
            self.rob_used += 1;
            match op.exec {
                ExecClass::Load => self.lq_used += 1,
                ExecClass::Store => self.sq_used += 1,
                _ => {}
            }
            // Stream configuration completes here (speculative config).
            if let Some(inst) = op.stream_open() {
                self.engine.open(inst, &trace.streams[inst as usize], now);
            }
            let mut kind = 0;
            if op.exec == ExecClass::Store {
                kind |= K_STORE;
            }
            if !trace.stream_reads(op).is_empty() {
                kind |= K_STREAM;
            }
            // Dependencies on in-flight producers only: one not yet issued
            // wakes this op when it issues; one issued but not complete
            // bounds when this op's registers are ready.
            let mut pending = 0;
            let mut at = 0;
            for &s in trace.srcs(op) {
                let d = self.last_writer[reg_slot(s)];
                if d == NO_WRITER {
                    continue;
                }
                match self.done[d] {
                    NOT_DONE => {
                        pending += 1;
                        self.wait_on(d, idx);
                    }
                    done => at = at.max(done),
                }
            }
            for &d in trace.dests(op) {
                self.free_regs[class_idx(d.class)] -= 1;
                self.last_writer[reg_slot(d)] = idx;
            }
            if self.track {
                self.rename_at[idx] = now;
            }
            self.wake[idx & self.mask] = Wake {
                at,
                pending,
                cluster: cl as u8,
                kind,
                ..Wake::IDLE
            };
            self.clusters[cl].push(idx);
            self.iq_used += 1;
            if pending == 0 {
                self.schedule(idx, at, now);
            }
            renamed += 1;
        }
        cycle_block.map(|reason| (reason, cycle_block_u))
    }

    /// Fetches up to `fetch_width` ops in order into the decode queue,
    /// stopping at a taken branch or a mispredict.
    #[inline]
    fn fetch(&mut self, trace: &Trace, now: u64) {
        if let Some(b) = self.fetch_stalled_on {
            if self.done[b] != NOT_DONE && now >= self.done[b] + self.cfg.mispredict_penalty {
                self.fetch_stalled_on = None;
            }
        }
        if self.fetch_stalled_on.is_none() && !self.fetch_frozen {
            let mut fetched = 0;
            while fetched < self.cfg.fetch_width
                && self.fetch_ptr - self.rename_ptr < self.cfg.decode_queue
                && self.fetch_ptr < self.n
            {
                let idx = self.fetch_ptr;
                let op = &trace.ops[idx];
                self.fetch_ptr += 1;
                fetched += 1;
                if let Some(taken) = op.branch_taken() {
                    self.stats.branches += 1;
                    let correct = self.predictor.predict_and_train(op.pc, taken);
                    if !correct {
                        self.stats.branch_mispredicts += 1;
                        self.fetch_stalled_on = Some(idx);
                        break;
                    }
                    if taken {
                        // Taken-branch fetch bubble.
                        break;
                    }
                }
            }
        }
    }

    /// Attributes cycle `now` to exactly one [`CycleAccount`] category;
    /// see there for the cascade.
    #[inline]
    fn attribute(
        &mut self,
        trace: &Trace,
        now: u64,
        committed: usize,
        cycle_block: Option<(RenameBlockReason, u8)>,
    ) {
        // `committed == 0` implies `commit_ptr` did not move, so when the
        // ROB is non-empty `trace.ops[commit_ptr]` is its oldest (head)
        // entry.
        let acct = &mut self.stats.account;
        if committed > 0 {
            acct.retiring += 1;
        } else {
            let head = self.commit_ptr;
            let head_op = &trace.ops[head];
            let head_issued = self.rob_used > 0 && self.done[head] != NOT_DONE;
            let head_waiting_mem = head_issued
                && self.done[head] > now
                && head_op.exec == ExecClass::Load
                && !trace.mem_lines(head_op).is_empty();
            let head_stream_stall = if self.rob_used > 0 && self.done[head] == NOT_DONE {
                trace
                    .stream_reads(head_op)
                    .iter()
                    .find(|&&(inst, chunk)| {
                        !matches!(self.engine.chunk_status(inst, chunk),
                                  ChunkStatus::Ready(r) if r <= now)
                    })
                    .map(|&(inst, _)| (inst, trace.streams[inst as usize].u))
            } else {
                None
            };
            if head_waiting_mem {
                let (issue, mshr_wait, from_dram, from_snoop) = self.load_info[head & self.mask];
                if now < issue + mshr_wait {
                    acct.mshr_wait += 1;
                } else if from_snoop {
                    // Served cache-to-cache by a remote core over the snoop
                    // bus: a coherence stall, not a plain cache hit.
                    acct.snoop_wait += 1;
                } else if from_dram {
                    acct.dram_wait += 1;
                } else {
                    acct.cache_wait += 1;
                }
            } else if let Some((inst, u)) = head_stream_stall {
                if self.engine.in_fault_replay(inst, now) {
                    // The chunk is late because its stream is retrying
                    // an injected fault, not because the engine fell
                    // behind the consumer.
                    acct.fault_replay += 1;
                } else {
                    acct.fifo_empty += 1;
                    acct.fifo_empty_by_u[usize::from(u) & 31] += 1;
                }
            } else if let Some((reason, cycle_block_u)) = cycle_block {
                match reason {
                    RenameBlockReason::Rob => acct.rob_full += 1,
                    RenameBlockReason::Iq => acct.iq_full += 1,
                    RenameBlockReason::Lsq => acct.lsq_full += 1,
                    RenameBlockReason::Prf => acct.prf_starved += 1,
                    RenameBlockReason::StoreFifo => {
                        acct.fifo_full += 1;
                        acct.fifo_full_by_u[usize::from(cycle_block_u) & 31] += 1;
                    }
                }
            } else if self.rob_used > 0 {
                if head_issued {
                    if head_op.stream_faults > 0 {
                        // The head's latency includes the precise
                        // stream-fault trap round trips it took in the
                        // functional run; attribute the wait to fault
                        // handling rather than plain execution.
                        acct.fault_replay += 1;
                    } else {
                        acct.execute += 1;
                    }
                } else {
                    acct.depend += 1;
                }
            } else if self.fetch_stalled_on.is_some() {
                acct.branch_redirect += 1;
            } else {
                acct.frontend += 1;
            }
        }
    }

    /// Issues op `idx` at cycle `now`: computes its completion cycle and
    /// wakes the consumers waiting on it.
    fn issue<M: MemPort>(&mut self, idx: usize, trace: &Trace, mem: &mut M, now: u64) {
        let op = &trace.ops[idx];
        let mut completion = match op.exec {
            ExecClass::Load => {
                let lines = trace.mem_lines(op);
                if lines.is_empty() {
                    now + 1
                } else {
                    let mut ready = now;
                    let mut mshr_wait = 0;
                    let mut from_dram = false;
                    let mut from_snoop = false;
                    for &line in lines {
                        let r = mem.read_explained(
                            self.reloc.line(line) * LINE_BYTES,
                            u64::from(op.pc),
                            now,
                            Path::Normal,
                        );
                        ready = ready.max(r.ready);
                        mshr_wait += r.mshr_wait;
                        from_dram |= r.from_dram;
                        from_snoop |= r.from_snoop;
                    }
                    self.load_info[idx & self.mask] = (now, mshr_wait, from_dram, from_snoop);
                    ready
                }
            }
            ExecClass::Store => now + 1,
            class => now + self.cfg.latency(class),
        };
        // A precise stream-fault trap (recorded by the functional
        // emulator) costs a flush + handler + restore round trip per
        // fault.
        if op.stream_faults > 0 {
            completion += self.cfg.fault_trap_penalty * u64::from(op.stream_faults);
        }
        self.done[idx] = completion;
        if self.track {
            self.issue_at[idx] = now;
        }
        self.iq_used -= 1;
        let mut edge = std::mem::replace(&mut self.wake[idx & self.mask].waiters, NIL);
        while edge != NIL {
            let (consumer, next) = self.edges[edge as usize];
            self.edges[edge as usize].1 = self.free_edge;
            self.free_edge = edge;
            edge = next;
            let consumer = consumer as usize;
            let w = &mut self.wake[consumer & self.mask];
            w.at = w.at.max(completion);
            w.pending -= 1;
            if w.pending == 0 {
                let at = w.at;
                self.schedule(consumer, at, now);
            }
        }
    }

    /// Queues op `idx`, whose producers have all issued, to become ready
    /// at cycle `at`.
    #[inline]
    fn schedule(&mut self, idx: usize, at: u64, now: u64) {
        let slot = idx & self.mask;
        if at <= now {
            self.clusters[usize::from(self.wake[slot].cluster)].make_ready(idx);
        } else {
            let bucket = &mut self.wheel[at as usize % WHEEL];
            self.wake[slot].next_timed = *bucket;
            *bucket = idx as u32;
        }
    }

    /// Makes ready every timed op whose cycle has come: drains the
    /// buckets of every cycle since the last drain (one, unless the clock
    /// jumped), passing over ops due a wheel turn later.
    #[inline]
    fn drain_wheel(&mut self, now: u64) {
        let mut turns = 0;
        while self.wheel_at <= now && turns < WHEEL {
            let mut next = std::mem::replace(&mut self.wheel[self.wheel_at as usize % WHEEL], NIL);
            while next != NIL {
                let idx = next as usize;
                let w = self.wake[idx & self.mask];
                self.schedule(idx, w.at, now);
                next = w.next_timed;
            }
            self.wheel_at += 1;
            turns += 1;
        }
        self.wheel_at = now + 1;
    }

    /// Adds `consumer` to the waiter list of in-flight producer `idx`.
    #[inline]
    fn wait_on(&mut self, idx: usize, consumer: usize) {
        let head = &mut self.wake[idx & self.mask].waiters;
        let node = (consumer as u32, *head);
        *head = if self.free_edge == NIL {
            self.edges.push(node);
            (self.edges.len() - 1) as u32
        } else {
            let at = self.free_edge;
            self.free_edge = self.edges[at as usize].1;
            self.edges[at as usize] = node;
            at
        };
    }

    /// Advances the pipeline by one cycle against `mem`.
    ///
    /// # Panics
    ///
    /// Panics if the run exceeds `max_cycles` or the no-retire watchdog
    /// fires (model bugs, not user errors).
    pub fn step<M: MemPort>(
        &mut self,
        trace: &Trace,
        mem: &mut M,
        mut events: Option<&mut EventLog>,
    ) {
        let now = self.now;
        assert!(
            now < self.cfg.max_cycles,
            "timing model exceeded {} cycles (commit_ptr={}/{})",
            self.cfg.max_cycles,
            self.commit_ptr,
            self.n
        );
        if now & 0xFFFF == 0 {
            uve_core::deadline::check("timing model");
        }
        if now.saturating_sub(self.last_commit_cycle) > self.cfg.watchdog_cycles {
            panic!(
                "{}",
                watchdog_report(
                    self.cfg.watchdog_cycles,
                    now,
                    self.commit_ptr,
                    self.n,
                    self.rob_used,
                    &self.stats.account,
                    trace,
                    self.done[self.commit_ptr],
                    &self.engine,
                )
            );
        }

        let committed = self.commit(trace, mem, events.as_deref_mut(), now);
        self.issue_ready(trace, mem, now);
        let cycle_block = self.rename(trace, now);
        self.fetch(trace, now);
        // ---- streaming engine (a tick with no open stream does nothing) ----
        if self.engine.open_streams() > 0 {
            self.engine.tick(now, &trace.streams, &self.reloc, mem);
        }

        // ---- FIFO occupancy timeline (change-compressed) ----
        if let Some(log) = events {
            let mut cur = [0u32; 32];
            for (inst, occ) in self.engine.occupancies() {
                cur[usize::from(trace.streams[inst as usize].u) & 31] = occ as u32;
            }
            for (u, (&c, last)) in cur.iter().zip(self.fifo_last.iter_mut()).enumerate() {
                if c != *last {
                    log.fifo.push(FifoPoint {
                        cycle: now,
                        u: u as u8,
                        occupancy: c,
                    });
                    *last = c;
                }
            }
        }

        self.attribute(trace, now, committed, cycle_block);
        self.now += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uve_core::{EmuConfig, Emulator, TraceOp};
    use uve_isa::assemble;
    use uve_mem::Memory;

    fn trace_of(text: &str, setup: impl FnOnce(&mut Emulator)) -> Trace {
        let prog = assemble("t", text).expect("test program must assemble");
        let mut emu = Emulator::new(EmuConfig::default(), Memory::new());
        setup(&mut emu);
        emu.run(&prog).expect("test program must run to halt").trace
    }

    /// How an entry of a randomized cluster state stands this cycle.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Readiness {
        /// A register producer has not completed.
        Waiting,
        /// Registers ready, but a stream chunk is not in its FIFO.
        StreamBlocked,
        /// Free to issue if a slot and port are left.
        Ready,
    }

    /// The select of the scan-and-`swap_remove` issue queue this model
    /// had before wakeup-driven select, over one cluster's entries
    /// `(op index, is store, readiness)` in age order: returns the issued
    /// op indices in issue order.
    fn swap_remove_select(
        entries: &[(usize, bool, Readiness)],
        cl: usize,
        cfg: &CpuConfig,
    ) -> Vec<usize> {
        let mut iq = entries.to_vec();
        let mut out = Vec::new();
        let (mut units, mut loads, mut stores) = (0, 0, 0);
        let mut i = 0;
        while i < iq.len() {
            if out.len() >= cfg.issue_width {
                break;
            }
            let ports_ok = match cl {
                CL_INT => units < cfg.int_units,
                CL_FPVEC => units < cfg.fpvec_units,
                _ => true,
            };
            if !ports_ok {
                break;
            }
            let (idx, is_store, readiness) = iq[i];
            if cl == CL_MEM
                && ((is_store && stores >= cfg.store_ports)
                    || (!is_store && loads >= cfg.load_ports))
            {
                i += 1;
                continue;
            }
            if readiness != Readiness::Ready {
                i += 1;
                continue;
            }
            out.push(idx);
            match cl {
                CL_MEM if is_store => stores += 1,
                CL_MEM => loads += 1,
                _ => units += 1,
            }
            iq.swap_remove(i);
        }
        out
    }

    /// The same cycle through [`Select`] over a [`Cluster`] holding the
    /// entries, with ops `lo..hi` in flight.
    fn wakeup_select(
        entries: &[(usize, bool, Readiness)],
        cl: usize,
        cfg: &CpuConfig,
        ring: usize,
        (lo, hi): (usize, usize),
    ) -> Vec<usize> {
        let mut cluster = Cluster::new(ring);
        for &(idx, _, readiness) in entries {
            cluster.push(idx);
            if readiness != Readiness::Waiting {
                cluster.make_ready(idx);
            }
        }
        let lookup = |idx: usize| {
            let &(_, is_store, readiness) = entries.iter().find(|e| e.0 == idx).unwrap();
            (if is_store { K_STORE } else { 0 }, readiness)
        };
        let mut slots = Slots::new(cfg);
        let mut select = Select::new(lo, hi);
        let mut out = Vec::new();
        while slots.open(cl) {
            let Some(idx) = select.next(&cluster, |idx| {
                let (kind, readiness) = lookup(idx);
                slots.port_free(cl, kind) && readiness == Readiness::Ready
            }) else {
                break;
            };
            slots.take(cl, lookup(idx).0);
            cluster.remove(idx);
            out.push(idx);
        }
        out
    }

    #[test]
    fn wakeup_select_issues_what_swap_remove_select_issued() {
        // SplitMix64, so the cases need no dependency.
        let mut state = 0x5eed_u64;
        let mut rand = |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        for case in 0..20_000 {
            let rob = 8 + rand(250) as usize;
            let ring = rob.next_power_of_two().max(64);
            // The in-flight window starts anywhere, so it may wrap the ring.
            let lo = rand(10_000) as usize;
            let hi = lo + 1 + rand(rob as u64) as usize;
            let cl = rand(3) as usize;
            let p_ready = rand(5);
            let mut entries = Vec::new();
            for idx in lo..hi {
                if rand(3) == 0 {
                    continue;
                }
                let readiness = match rand(5) {
                    r if r < p_ready => Readiness::Ready,
                    4 => Readiness::StreamBlocked,
                    _ => Readiness::Waiting,
                };
                entries.push((idx, cl == CL_MEM && rand(2) == 0, readiness));
            }
            let cfg = CpuConfig {
                issue_width: 1 + rand(8) as usize,
                int_units: 1 + rand(3) as usize,
                fpvec_units: 1 + rand(3) as usize,
                load_ports: rand(3) as usize,
                store_ports: rand(3) as usize,
                ..CpuConfig::default()
            };
            assert_eq!(
                wakeup_select(&entries, cl, &cfg, ring, (lo, hi)),
                swap_remove_select(&entries, cl, &cfg),
                "case {case}: cluster {cl}, window {lo}..{hi}, ring {ring}, {entries:?}"
            );
        }
    }

    #[test]
    fn ring_set_range_queries_follow_age_across_the_wrap() {
        let mut set = RingSet::new(128);
        // The window 100..220 wraps the 128-slot ring.
        for idx in [100, 127, 128, 191, 192, 219] {
            set.insert(idx);
        }
        assert_eq!(set.first_in(100, 220), Some(100));
        assert_eq!(set.first_in(101, 220), Some(127));
        assert_eq!(set.first_in(129, 220), Some(191));
        assert_eq!(set.first_in(193, 219), None);
        assert_eq!(set.last_in(100, 220), Some(219));
        assert_eq!(set.last_in(100, 219), Some(192));
        assert_eq!(set.last_in(129, 191), None);
        assert_eq!(set.last_in(100, 128), Some(127));
        set.remove(127);
        assert!(!set.contains(127) && set.contains(128));
        assert_eq!(set.last_in(100, 128), Some(100));
    }

    #[test]
    fn empty_trace() {
        let s = OoOCore::new(CpuConfig::default()).run(&Trace::new());
        assert_eq!(s.cycles, 0);
    }

    #[test]
    fn straight_line_ipc_bounded_by_width() {
        // 400 independent ALU ops: IPC should approach the 2-ALU limit.
        let mut text = String::new();
        for i in 0..400 {
            text.push_str(&format!("addi x{}, x0, 1\n", 1 + (i % 8)));
        }
        text.push_str("halt\n");
        let t = trace_of(&text, |_| {});
        let s = OoOCore::new(CpuConfig::default()).run(&t);
        let ipc = s.committed as f64 / s.cycles as f64;
        assert!(ipc > 1.2 && ipc <= 2.2, "ipc={ipc}");
    }

    #[test]
    fn dependent_chain_serializes() {
        let mut text = String::new();
        for _ in 0..200 {
            text.push_str("addi x1, x1, 1\n");
        }
        text.push_str("halt\n");
        let t = trace_of(&text, |_| {});
        let s = OoOCore::new(CpuConfig::default()).run(&t);
        let ipc = s.committed as f64 / s.cycles as f64;
        assert!(ipc < 1.2, "dependent chain must not exceed 1 IPC: {ipc}");
    }

    #[test]
    fn loads_cost_memory_latency() {
        // A pointer-chase-like chain of dependent loads misses in all
        // caches initially.
        let mut text = String::from("li x1, 0x100000\n");
        for _ in 0..32 {
            text.push_str("ld.d x1, 0(x1)\n");
        }
        text.push_str("halt\n");
        let t = trace_of(&text, |emu| {
            // Each load lands on a different line; chain through memory.
            let mut addr = 0x100000u64;
            for i in 1..40u64 {
                let next = 0x100000 + i * 4096;
                emu.mem.write_u64(addr, next);
                addr = next;
            }
        });
        let cfg = CpuConfig::default();
        let s = OoOCore::new(cfg).run(&t);
        // 32 dependent DRAM-latency loads dominate.
        assert!(s.cycles > 32 * 90, "cycles={}", s.cycles);
    }

    #[test]
    fn mispredicts_cost_cycles() {
        // A data-dependent alternating branch pattern.
        let text = "
    li x1, 0
    li x2, 200
loop:
    addi x1, x1, 1
    andi x3, x1, 1
    beq x3, x0, skip
    addi x4, x4, 1
skip:
    bne x1, x2, loop
    halt
";
        // `andi` is not a mnemonic; use and with register: build differently
        let text = text.replace("andi x3, x1, 1", "addi x5, x0, 1\n    and x3, x1, x5");
        let t = trace_of(&text, |_| {});
        let s = OoOCore::new(CpuConfig::default()).run(&t);
        assert!(s.branch_mispredicts > 50, "{}", s.branch_mispredicts);
        // Each mispredict costs at least the redirect penalty in fetch
        // bubbles; the run must be visibly slower than 2 IPC.
        assert!(s.cycles > s.committed / 2);
    }

    #[test]
    fn cycle_account_partitions_every_run() {
        // Cold, warm, and a mispredict-heavy trace must all account for
        // exactly `cycles` cycles.
        let mut text = String::from("li x1, 0x100000\n");
        for _ in 0..16 {
            text.push_str("ld.d x1, 0(x1)\n");
        }
        text.push_str("halt\n");
        let chase = trace_of(&text, |emu| {
            let mut addr = 0x100000u64;
            for i in 1..20u64 {
                let next = 0x100000 + i * 4096;
                emu.mem.write_u64(addr, next);
                addr = next;
            }
        });
        let core = OoOCore::new(CpuConfig::default());
        for s in [core.run(&chase), core.run_warm(&chase)] {
            s.account
                .check(s.cycles)
                .expect("cycle accounting must conserve");
            // Dependent uncached loads: memory waits must dominate.
            assert!(
                s.account.dram_wait + s.account.cache_wait + s.account.mshr_wait > s.cycles / 4,
                "{:?}",
                s.account
            );
        }
    }

    #[test]
    fn traced_run_captures_spans_and_matches_cold_run() {
        let mut text = String::new();
        for i in 0..40 {
            text.push_str(&format!("addi x{}, x0, 1\n", 1 + (i % 8)));
        }
        text.push_str("halt\n");
        let t = trace_of(&text, |_| {});
        let core = OoOCore::new(CpuConfig::default());
        let (stats, log) = core.run_traced(&t);
        assert_eq!(stats, core.run(&t), "event capture must not perturb timing");
        assert_eq!(log.cycles, stats.cycles);
        assert_eq!(log.ops.len() as u64, stats.committed);
        for w in log.ops.windows(2) {
            assert!(w[0].commit <= w[1].commit, "commit order");
        }
        for op in &log.ops {
            assert!(op.rename <= op.issue && op.issue <= op.done && op.done <= op.commit);
        }
    }

    #[test]
    fn consumer_of_many_producers_waits_for_the_last() {
        // A chain of slow producers f1 <- f2 <- ... <- f(n); the consumer
        // reads all of them and must wake only when the last completes.
        let n = 6;
        let f = |num| RegRef {
            class: RegClass::Fp,
            num,
        };
        let mut t = Trace::new();
        for k in 1..=n {
            let srcs = if k > 1 { vec![f(k - 1)] } else { vec![] };
            t.push_op(
                TraceOp::new(u32::from(k), ExecClass::FpDiv),
                &srcs,
                &[f(k)],
                &[],
            );
        }
        let srcs: Vec<RegRef> = (1..=n).map(f).collect();
        t.push_op(
            TraceOp::new(u32::from(n) + 1, ExecClass::FpAdd),
            &srcs,
            &[f(n + 1)],
            &[],
        );
        let (stats, log) = OoOCore::new(CpuConfig::default()).run_traced(&t);
        assert_eq!(stats.committed, u64::from(n) + 1);
        let last_producer = log.ops[usize::from(n) - 1];
        let consumer = log.ops[usize::from(n)];
        assert!(
            consumer.issue >= last_producer.done,
            "consumer issued at {} before its last producer finished at {}",
            consumer.issue,
            last_producer.done
        );
    }

    #[test]
    fn watchdog_dumps_accounting_on_deadlock() {
        use uve_core::{ChunkMeta, StreamTrace};
        use uve_isa::{ElemWidth, MemLevel};
        // One op consuming a chunk of a stream that is never opened: the
        // chunk stays NotFetched forever, so commit deadlocks and the
        // watchdog must fire with a diagnostic instead of spinning to
        // `max_cycles`.
        let mut t = Trace::new();
        let mut op = TraceOp::new(0, ExecClass::VecInt);
        t.push_stream_read(&mut op, (0, 0));
        t.push_op(op, &[], &[], &[]);
        t.streams.push(StreamTrace {
            u: 3,
            dir: Dir::Load,
            level: MemLevel::L2,
            width: ElemWidth::Word,
            chunks: vec![ChunkMeta {
                lines: vec![0x1000],
                dim_switches: 0,
                valid: 16,
            }],
            cfg_insts: 1,
        });
        let cfg = CpuConfig {
            watchdog_cycles: 500,
            ..CpuConfig::default()
        };
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| OoOCore::new(cfg).run(&t)))
                .expect_err("deadlocked model must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("watchdog panics with a String report");
        assert!(msg.contains("no-retire watchdog"), "{msg}");
        assert!(msg.contains("commit_ptr 0/1"), "{msg}");
        assert!(
            msg.contains("fifo-empty"),
            "report lists stall table: {msg}"
        );
        assert!(
            msg.contains("head stream_reads: [(0, 0)]"),
            "report names the head's unfetched chunk: {msg}"
        );
    }

    #[test]
    fn injected_faults_slow_the_run_but_conserve_cycles() {
        use uve_mem::FaultConfig;
        let n = 16384usize;
        let setup = |emu: &mut Emulator| {
            let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
            emu.mem.write_f32_slice(0x100000, &x);
            emu.mem.write_f32_slice(0x200000, &x);
            emu.set_f(uve_isa::FReg::FA0, 2.0);
        };
        let t = trace_of(
            "
    li x10, 16384
    li x11, 0x100000
    li x12, 0x200000
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
",
            setup,
        );
        let clean = OoOCore::new(CpuConfig::default()).run(&t);
        let mut cfg = CpuConfig::default();
        cfg.mem.fault = Some(FaultConfig::hostile(7));
        let faulty = OoOCore::new(cfg).run(&t);
        faulty
            .account
            .check(faulty.cycles)
            .expect("cycle accounting must conserve");
        assert_eq!(faulty.committed, clean.committed);
        let replays = faulty.engine.transient_retries + faulty.engine.poisoned_replays;
        assert!(replays > 0, "hostile rates must trigger retries");
        assert!(
            faulty.cycles > clean.cycles,
            "retry backoff must cost cycles: {} vs {}",
            faulty.cycles,
            clean.cycles
        );
        // And a second run with the same seed is bit-identical.
        let mut cfg2 = CpuConfig::default();
        cfg2.mem.fault = Some(FaultConfig::hostile(7));
        assert_eq!(OoOCore::new(cfg2).run(&t), faulty);
    }

    #[test]
    fn stream_fault_traps_charge_penalty_as_fault_replay() {
        let mut text = String::new();
        for i in 0..40 {
            text.push_str(&format!("addi x{}, x0, 1\n", 1 + (i % 8)));
        }
        text.push_str("halt\n");
        let t = trace_of(&text, |_| {});
        let clean = OoOCore::new(CpuConfig::default()).run(&t);
        let mut faulted = t.clone();
        faulted.ops[20].stream_faults = 2;
        let s = OoOCore::new(CpuConfig::default()).run(&faulted);
        s.account
            .check(s.cycles)
            .expect("cycle accounting must conserve");
        // Out-of-order overlap can hide a few cycles of the serial sum, so
        // bound from below with a small slack.
        let penalty = 2 * CpuConfig::default().fault_trap_penalty;
        assert!(
            s.cycles + 32 >= clean.cycles + penalty,
            "two traps must cost about {penalty}: {} vs {}",
            s.cycles,
            clean.cycles
        );
        assert!(
            s.account.fault_replay + 64 >= penalty,
            "trap service time lands in fault-replay: {:?}",
            s.account
        );
    }

    #[test]
    fn uve_stream_faster_than_sve_on_saxpy() {
        // DRAM-resident size: small warm sets are L1-resident, where
        // L1-hit baseline loads rival L2-level streaming (the Fig. 11
        // effect); the streaming win the paper reports is on working sets
        // beyond the L1.
        let n = 65536usize;
        let setup = |emu: &mut Emulator| {
            let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
            emu.mem.write_f32_slice(0x100000, &x);
            emu.mem.write_f32_slice(0x200000, &x);
            emu.set_f(uve_isa::FReg::FA0, 2.0);
        };
        let uve = trace_of(
            "
    li x10, 65536
    li x11, 0x100000
    li x12, 0x200000
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
",
            setup,
        );
        let sve = trace_of(
            "
    li x10, 0
    li x11, 65536
    li x12, 0x100000
    li x13, 0x200000
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
            setup,
        );
        let core = OoOCore::new(CpuConfig::default());
        let su = core.run(&uve);
        let ss = core.run(&sve);
        assert!(su.committed < ss.committed);
        assert!(
            su.cycles * 3 < ss.cycles * 2,
            "UVE ({}) should be well ahead of SVE ({})",
            su.cycles,
            ss.cycles
        );
        // Register pressure vanishes with streaming: UVE never blocks on
        // physical registers while SVE does (the Fig. 9 effect).
        assert!(su.rename_block_reasons.prf < ss.rename_block_reasons.prf);
        assert_eq!(su.rename_block_reasons.prf, 0);
        // And the streams drive the bus harder (Fig. 8.D shape).
        assert!(su.bus_utilization > ss.bus_utilization);
    }
}
