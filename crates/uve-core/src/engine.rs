//! Cycle-level Streaming Engine model (paper Sec. IV-B and Fig. 7).
//!
//! The engine manages all input/output streams of the core:
//!
//! - a **Stream Configuration** module with the SCROB (Stream Configuration
//!   Reorder Buffer) processing configuration instructions in order, one per
//!   cycle;
//! - a **Stream Table** holding up to 32 concurrent stream configurations
//!   (8 dimensions + 7 modifiers each) with speculative and committed
//!   iteration state;
//! - a **Stream Scheduler** selecting, each cycle, up to
//!   `processing_modules` streams to iterate, prioritizing streams with the
//!   lowest FIFO occupancy;
//! - **Stream Processing Modules** (address generators) producing up to one
//!   cache-line request per cycle each, with one extra cycle per
//!   descriptor-dimension switch and same-line request coalescing;
//! - per-stream **Load/Store FIFOs** (default depth 8) buffering vector
//!   chunks between the memory hierarchy and the register file.
//!
//! The timing engine replays the chunk/line metadata recorded by the
//! functional emulator (see [`crate::trace`]), so its requests are exactly
//! the addresses the architecture would generate. Buffered data is
//! architecturally "already consumed" — FIFO entries are freed at commit
//! and miss-speculated reads re-use buffered data without new memory
//! requests (architectural opportunity A3).

use crate::trace::{ChunkMeta, Relocation, StreamInstance, StreamTrace};
use uve_isa::{Dir, MemLevel};
use uve_mem::{MemPort, Path, Translation, LINE_BYTES};

/// Streaming Engine configuration (Table I and Sec. VI-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Number of Stream Load/Store Processing Modules (Table I: 2).
    pub processing_modules: usize,
    /// Load/Store FIFO depth per stream, in vector entries (default 8).
    pub fifo_depth: usize,
    /// Maximum concurrent streams in the Stream Table (32).
    pub max_streams: usize,
    /// Maximum descriptor dimensions per stream (8).
    pub max_dims: usize,
    /// Maximum modifiers per stream (7).
    pub max_mods: usize,
    /// Memory Request Queue entries (16).
    pub request_queue: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            processing_modules: 2,
            fifo_depth: 8,
            max_streams: 32,
            max_dims: 8,
            max_mods: 7,
            request_queue: 16,
        }
    }
}

/// Storage inventory of the Streaming Engine (Sec. VI-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageReport {
    /// Stream Table + SCROB storage in bytes.
    pub stream_table_bytes: usize,
    /// Load/Store FIFO storage in bytes.
    pub fifo_bytes: usize,
    /// Memory Request Queue storage in bytes.
    pub request_queue_bytes: usize,
}

impl StorageReport {
    /// Total storage in bytes.
    pub fn total_bytes(&self) -> usize {
        self.stream_table_bytes + self.fifo_bytes + self.request_queue_bytes
    }
}

impl EngineConfig {
    /// Computes the storage inventory: per-stream table entries hold the
    /// descriptor parameters (32 B/dimension), modifier state
    /// (20 B/modifier) and dual (speculative + committed) iterator/flag
    /// state (52 B); FIFO entries are 66 B (64 B of vector data + validity/
    /// exception metadata); request-queue entries are 10 B — reproducing the
    /// paper's ≈14 KB + ≈17 KB + 160 B inventory at the default
    /// configuration.
    pub fn storage_report(&self) -> StorageReport {
        StorageReport {
            stream_table_bytes: self.max_streams * (self.max_dims * 32 + self.max_mods * 20 + 52),
            fifo_bytes: self.max_streams * self.fifo_depth * 66,
            request_queue_bytes: self.request_queue * 10,
        }
    }
}

/// Availability of a stream chunk at the FIFO interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkStatus {
    /// The engine has not yet fetched/reserved this chunk.
    NotFetched,
    /// The chunk's data (loads) or FIFO slot (stores) is available at the
    /// given cycle.
    Ready(u64),
}

/// Per-stream-register FIFO occupancy histogram, sampled once per open
/// stream per engine cycle.
///
/// `hist[u][occ]` counts the cycles stream register `u` held exactly `occ`
/// chunks in its FIFO; rows and columns grow lazily, so the shape is
/// independent of the configured depth. Conservation law (checked by
/// `tests/cycle_accounting.rs`): the grand total of all cells equals
/// [`FifoProfile::samples`], which is the number of (open stream, cycle)
/// pairs the engine observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FifoProfile {
    /// `hist[u][occ]` = cycles stream register `u` sat at occupancy `occ`.
    pub hist: Vec<Vec<u64>>,
    /// Total samples recorded (one per open stream per cycle).
    pub samples: u64,
}

impl FifoProfile {
    /// Records one occupancy sample for stream register `u`.
    pub fn record(&mut self, u: u8, occ: usize) {
        let u = usize::from(u);
        if self.hist.len() <= u {
            self.hist.resize(u + 1, Vec::new());
        }
        let row = &mut self.hist[u];
        if row.len() <= occ {
            row.resize(occ + 1, 0);
        }
        row[occ] += 1;
        self.samples += 1;
    }

    /// Cycles stream register `u` was open (its row sum).
    pub fn open_cycles(&self, u: usize) -> u64 {
        self.hist.get(u).map_or(0, |row| row.iter().sum())
    }

    /// Mean FIFO occupancy of stream register `u` while open (0.0 if never
    /// open).
    pub fn mean_occupancy(&self, u: usize) -> f64 {
        let open = self.open_cycles(u);
        if open == 0 {
            return 0.0;
        }
        let weighted: u64 = self.hist[u]
            .iter()
            .enumerate()
            .map(|(occ, &n)| occ as u64 * n)
            .sum();
        weighted as f64 / open as f64
    }

    /// Highest occupancy ever sampled for stream register `u`.
    pub fn max_occupancy(&self, u: usize) -> usize {
        self.hist
            .get(u)
            .and_then(|row| row.iter().rposition(|&n| n > 0))
            .unwrap_or(0)
    }

    /// Stream registers that were open at least one cycle.
    pub fn used_registers(&self) -> Vec<usize> {
        (0..self.hist.len())
            .filter(|&u| self.open_cycles(u) > 0)
            .collect()
    }

    /// Grand total of all histogram cells — always equals `samples`.
    pub fn total(&self) -> u64 {
        (0..self.hist.len()).map(|u| self.open_cycles(u)).sum()
    }
}

/// Engine activity counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Cache-line requests issued by address generators.
    pub line_requests: u64,
    /// Chunks fetched into load FIFOs.
    pub load_chunks: u64,
    /// Chunks reserved in store FIFOs.
    pub store_chunks: u64,
    /// Cycles spent on descriptor-dimension switches.
    pub dim_switch_cycles: u64,
    /// Cycles at least one processing module was active.
    pub active_cycles: u64,
    /// Peak concurrent streams.
    pub peak_streams: usize,
    /// Faulting elements flagged by the arbiter's TLB lookup (handled at
    /// the commit stage, paper Sec. IV-A *Exception Handling*).
    pub page_faults: u64,
    /// Extra cycles spent on TLB walks.
    pub tlb_walk_cycles: u64,
    /// Line requests that transiently failed pre-issue and were retried
    /// after a backoff (fault injection).
    pub transient_retries: u64,
    /// Responses that arrived poisoned and were refetched (fault
    /// injection).
    pub poisoned_replays: u64,
    /// Per-stream-register FIFO occupancy histogram.
    pub fifo: FifoProfile,
}

#[derive(Debug)]
struct EngStream {
    dir: Dir,
    path: Path,
    /// Engine may start processing at this cycle (after SCROB).
    start_cycle: u64,
    /// Next chunk index to fetch (loads) / reserve (stores).
    next_chunk: usize,
    /// Line progress within the current chunk.
    line_idx: usize,
    /// Remaining dimension-switch penalty cycles for the current chunk.
    penalty: u32,
    /// Whether the current chunk's switch penalty was already charged.
    penalty_charged: bool,
    /// Max line-ready cycle accumulated for the current chunk.
    inflight_ready: u64,
    /// Ready cycle of each fetched chunk, indexed by chunk number.
    ready: Vec<u64>,
    /// Last line requested and its completion, for cross-iteration request
    /// coalescing (paper: succeeding iterations hitting the same cache line
    /// issue a single memory request).
    last_line: Option<(u64, u64)>,
    /// Chunks freed by commit (FIFO occupancy = fetched − committed).
    committed: usize,
    /// Retry attempt for the current line (0 outside fault replay).
    attempts: u32,
    /// The stream is ineligible until this cycle (fault backoff).
    retry_at: u64,
}

impl EngStream {
    fn occupancy(&self) -> usize {
        self.ready.len().saturating_sub(self.committed)
    }
}

/// The cycle-level Streaming Engine.
#[derive(Debug)]
pub struct EngineSim {
    cfg: EngineConfig,
    /// The Stream Table: one slot per stream instance (instances index the
    /// trace's stream side tables), `Some` while the instance is open.
    slots: Vec<Option<EngStream>>,
    /// Open instances, ascending.
    open: Vec<StreamInstance>,
    /// Scheduler scratch, reused every cycle: `(occupancy, instance)` of
    /// the eligible streams.
    eligible: Vec<(usize, StreamInstance)>,
    scrob_free: u64,
    stats: EngineStats,
}

impl EngineSim {
    /// Creates an engine with the given configuration.
    pub fn new(cfg: EngineConfig) -> Self {
        Self {
            cfg,
            slots: Vec::new(),
            open: Vec::new(),
            eligible: Vec::new(),
            scrob_free: 0,
            stats: EngineStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> EngineConfig {
        self.cfg
    }

    /// Activity statistics.
    pub fn stats(&self) -> EngineStats {
        self.stats.clone()
    }

    /// Registers a stream instance when its completing configuration
    /// instruction reaches rename (speculative configuration, Sec. IV-A).
    /// The SCROB validates configurations in order, one per cycle.
    pub fn open(&mut self, instance: StreamInstance, info: &StreamTrace, now: u64) {
        let start = self.scrob_free.max(now) + u64::from(info.cfg_insts);
        self.scrob_free = start;
        let path = level_path(info.level);
        let i = instance as usize;
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || None);
        }
        if self.slots[i].is_none() {
            let at = self.open.partition_point(|&o| o < instance);
            self.open.insert(at, instance);
        }
        self.slots[i] = Some(EngStream {
            dir: info.dir,
            path,
            start_cycle: start,
            next_chunk: 0,
            line_idx: 0,
            penalty: 0,
            penalty_charged: false,
            inflight_ready: 0,
            ready: Vec::new(),
            last_line: None,
            committed: 0,
            attempts: 0,
            retry_at: 0,
        });
        self.stats.peak_streams = self.stats.peak_streams.max(self.open.len());
    }

    /// Deallocates a stream's engine structures (termination at commit).
    /// Closing an instance that is not open does nothing.
    pub fn close(&mut self, instance: StreamInstance) {
        let Some(slot) = self.slots.get_mut(instance as usize) else {
            return;
        };
        if slot.take().is_some() {
            let at = self.open.partition_point(|&o| o < instance);
            self.open.remove(at);
        }
    }

    fn stream(&self, instance: StreamInstance) -> Option<&EngStream> {
        self.slots.get(instance as usize).and_then(Option::as_ref)
    }

    fn stream_mut(&mut self, instance: StreamInstance) -> Option<&mut EngStream> {
        self.slots
            .get_mut(instance as usize)
            .and_then(Option::as_mut)
    }

    /// Advances the engine by one cycle: the scheduler picks up to
    /// `processing_modules` streams (lowest FIFO occupancy first) and each
    /// processes one address-generator step against the memory hierarchy.
    ///
    /// Generic over [`MemPort`] so the same engine runs against the
    /// single-core hierarchy or one core's port into the shared multicore
    /// hierarchy. Every line is moved by `reloc` before it is translated
    /// or requested.
    pub fn tick<M: MemPort>(
        &mut self,
        now: u64,
        streams: &[StreamTrace],
        reloc: &Relocation,
        mem: &mut M,
    ) {
        // Observability: sample every open stream's FIFO occupancy, and
        // collect the scheduler's candidates.
        let mut eligible = std::mem::take(&mut self.eligible);
        eligible.clear();
        for &inst in &self.open {
            let Some(s) = self.slots[inst as usize].as_ref() else {
                continue;
            };
            let info = &streams[inst as usize];
            self.stats.fifo.record(info.u, s.occupancy());
            if s.start_cycle <= now
                && s.retry_at <= now
                && s.next_chunk < info.chunks.len()
                && s.occupancy() < self.cfg.fifo_depth
            {
                eligible.push((s.occupancy(), inst));
            }
        }
        // Scheduler: select eligible streams by ascending occupancy.
        eligible.sort_unstable();
        eligible.truncate(self.cfg.processing_modules);
        if !eligible.is_empty() {
            self.stats.active_cycles += 1;
        }
        for &(_, inst) in &eligible {
            // `eligible` was drawn from the open slots above; a missing
            // entry would be a scheduler bug, degraded to a skipped slot
            // rather than a panic.
            let Some(s) = self.slots[inst as usize].as_mut() else {
                continue;
            };
            let chunks: &[ChunkMeta] = &streams[inst as usize].chunks;
            let chunk = &chunks[s.next_chunk];
            if s.line_idx == 0 && !s.penalty_charged && chunk.dim_switches > 0 {
                s.penalty = chunk.dim_switches;
                s.penalty_charged = true;
            }
            if s.penalty > 0 {
                s.penalty -= 1;
                self.stats.dim_switch_cycles += 1;
                continue;
            }
            if chunk.lines.is_empty() {
                // Degenerate chunk (e.g. zero-length run): ready at once.
                finish_chunk(s, now, &mut self.stats);
                continue;
            }
            let line = reloc.line(chunk.lines[s.line_idx]);
            match s.dir {
                Dir::Load => {
                    // Cross-iteration coalescing: a repeat of the stream's
                    // previous line reuses its data without a new request.
                    let ready = match s.last_line {
                        Some((l, r)) if l == line => r,
                        _ => {
                            // The arbiter translates before issuing
                            // (Fig. 7): faulting elements are flagged for
                            // commit-stage handling instead of being
                            // requested — streams prefetch safely across
                            // page boundaries (opportunity A2).
                            match mem.translate(line * LINE_BYTES) {
                                Translation::Fault { .. } => {
                                    self.stats.page_faults += 1;
                                    now
                                }
                                Translation::Ok {
                                    paddr,
                                    extra_cycles,
                                } => {
                                    // An injected transient fault kills
                                    // the request before issue; the stream
                                    // backs off and retries (bounded).
                                    if mem.fault_transient(line, s.attempts) {
                                        s.attempts += 1;
                                        s.retry_at = now + mem.fault_backoff(s.attempts);
                                        self.stats.transient_retries += 1;
                                        continue;
                                    }
                                    self.stats.tlb_walk_cycles += extra_cycles;
                                    let out = mem.read_explained(
                                        paddr,
                                        u64::from(inst),
                                        now + extra_cycles,
                                        s.path,
                                    );
                                    self.stats.line_requests += 1;
                                    // A poisoned response is discarded on
                                    // arrival and refetched after a
                                    // backoff.
                                    if mem.fault_poisoned(line, s.attempts, out.from_dram, s.path) {
                                        s.attempts += 1;
                                        s.retry_at =
                                            out.ready.max(now) + mem.fault_backoff(s.attempts);
                                        self.stats.poisoned_replays += 1;
                                        continue;
                                    }
                                    s.attempts = 0;
                                    out.ready
                                }
                            }
                        }
                    };
                    s.last_line = Some((line, ready));
                    s.inflight_ready = s.inflight_ready.max(ready);
                }
                Dir::Store => {
                    // Store address generation only; the write is issued at
                    // commit (commit_write). Transient faults hit the
                    // address-generation slot the same way.
                    if mem.fault_transient(line, s.attempts) {
                        s.attempts += 1;
                        s.retry_at = now + mem.fault_backoff(s.attempts);
                        self.stats.transient_retries += 1;
                        continue;
                    }
                    s.attempts = 0;
                    s.inflight_ready = s.inflight_ready.max(now);
                    self.stats.line_requests += 1;
                }
            }
            s.line_idx += 1;
            if s.line_idx == chunk.lines.len() {
                finish_chunk(s, now, &mut self.stats);
            }
        }
        self.eligible = eligible;
    }

    /// Availability of a chunk at the register-file interface.
    pub fn chunk_status(&self, instance: StreamInstance, chunk: u32) -> ChunkStatus {
        match self.stream(instance) {
            Some(s) => match s.ready.get(chunk as usize) {
                Some(&r) => ChunkStatus::Ready(r),
                None => ChunkStatus::NotFetched,
            },
            None => ChunkStatus::NotFetched,
        }
    }

    /// Commits a consumed load chunk, freeing its FIFO entry.
    pub fn commit_read(&mut self, instance: StreamInstance, chunk: u32) {
        if let Some(s) = self.stream_mut(instance) {
            s.committed = s.committed.max(chunk as usize + 1);
        }
    }

    /// Commits a produced store chunk: the buffered data is written to the
    /// memory hierarchy (each line moved by `reloc`) and the FIFO entry
    /// freed.
    pub fn commit_write<M: MemPort>(
        &mut self,
        instance: StreamInstance,
        chunk: u32,
        now: u64,
        streams: &[StreamTrace],
        reloc: &Relocation,
        mem: &mut M,
    ) {
        if let Some(s) = self.stream_mut(instance) {
            s.committed = s.committed.max(chunk as usize + 1);
            let path = s.path;
            if let Some(meta) = streams[instance as usize].chunks.get(chunk as usize) {
                for &line in &meta.lines {
                    // The descriptor describes the exact store pattern, so
                    // full lines are written without an allocate-read.
                    mem.write_full_line(
                        reloc.line(line) * LINE_BYTES,
                        u64::from(instance),
                        now,
                        path,
                    );
                }
            }
        }
    }

    /// Number of currently open streams.
    pub fn open_streams(&self) -> usize {
        self.open.len()
    }

    /// True while `instance` is retrying an injected fault (backing off or
    /// mid-retry) — the core attributes head-of-ROB stalls on such a
    /// stream to the `fault-replay` cycle category.
    pub fn in_fault_replay(&self, instance: StreamInstance, now: u64) -> bool {
        self.stream(instance)
            .is_some_and(|s| s.attempts > 0 || s.retry_at > now)
    }

    /// Current `(instance, FIFO occupancy)` of every open stream, sorted by
    /// instance — the event-log poll for occupancy timelines.
    pub fn occupancies(&self) -> Vec<(StreamInstance, usize)> {
        self.open
            .iter()
            .filter_map(|&inst| Some((inst, self.stream(inst)?.occupancy())))
            .collect()
    }
}

fn finish_chunk(s: &mut EngStream, now: u64, stats: &mut EngineStats) {
    let ready = s.inflight_ready.max(now);
    s.ready.push(ready);
    s.next_chunk += 1;
    s.line_idx = 0;
    s.penalty_charged = false;
    s.inflight_ready = 0;
    match s.dir {
        Dir::Load => stats.load_chunks += 1,
        Dir::Store => stats.store_chunks += 1,
    }
}

fn level_path(level: MemLevel) -> Path {
    match level {
        MemLevel::L1 => Path::StreamL1,
        MemLevel::L2 => Path::StreamL2,
        MemLevel::Mem => Path::StreamMem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uve_isa::ElemWidth;
    use uve_mem::{MemConfig, SmpMem};

    fn mk_stream(dir: Dir, chunks: Vec<ChunkMeta>) -> StreamTrace {
        StreamTrace {
            u: 0,
            dir,
            level: MemLevel::L2,
            width: ElemWidth::Word,
            chunks,
            cfg_insts: 1,
        }
    }

    fn lines(v: &[u64]) -> ChunkMeta {
        ChunkMeta {
            lines: v.to_vec(),
            dim_switches: 0,
            valid: 16,
        }
    }

    fn mem() -> SmpMem {
        SmpMem::new(
            MemConfig {
                l1_prefetcher: false,
                l2_prefetcher: false,
                ..MemConfig::default()
            },
            1,
        )
    }

    #[test]
    fn storage_report_matches_paper() {
        let r = EngineConfig::default().storage_report();
        assert_eq!(r.stream_table_bytes, 14336); // ≈14 KB
        assert_eq!(r.fifo_bytes, 16896); // ≈17 KB
        assert_eq!(r.request_queue_bytes, 160);
        // Reduced configuration of Sec. VI-C: 8 streams, 4 dims → ≈6 KB.
        let reduced = EngineConfig {
            max_streams: 8,
            max_dims: 4,
            ..EngineConfig::default()
        };
        let r2 = reduced.storage_report();
        assert!(r2.total_bytes() < 8 * 1024, "{}", r2.total_bytes());
        // ≈10% of a 64 KB L1.
        let frac = r2.total_bytes() as f64 / (64.0 * 1024.0);
        assert!(frac > 0.08 && frac < 0.13, "{frac}");
    }

    #[test]
    fn load_stream_prefetches_ahead() {
        let streams = vec![mk_stream(
            Dir::Load,
            vec![lines(&[1]), lines(&[2]), lines(&[3])],
        )];
        let mut e = EngineSim::new(EngineConfig::default());
        let mut smp = mem();
        let mut m = smp.port(0);
        e.open(0, &streams[0], 0);
        // After a few cycles, all three chunks should be fetched without any
        // CPU consumption.
        for now in 0..10 {
            e.tick(now, &streams, &Relocation::identity(), &mut m);
        }
        assert!(matches!(e.chunk_status(0, 0), ChunkStatus::Ready(_)));
        assert!(matches!(e.chunk_status(0, 2), ChunkStatus::Ready(_)));
        assert_eq!(e.stats().line_requests, 3);
    }

    #[test]
    fn fifo_depth_limits_runahead() {
        let chunks: Vec<ChunkMeta> = (0..20).map(|i| lines(&[i])).collect();
        let streams = vec![mk_stream(Dir::Load, chunks)];
        let cfg = EngineConfig {
            fifo_depth: 4,
            ..EngineConfig::default()
        };
        let mut e = EngineSim::new(cfg);
        let mut smp = mem();
        let mut m = smp.port(0);
        e.open(0, &streams[0], 0);
        for now in 0..100 {
            e.tick(now, &streams, &Relocation::identity(), &mut m);
        }
        // Only fifo_depth chunks fetched without commits.
        assert!(matches!(e.chunk_status(0, 3), ChunkStatus::Ready(_)));
        assert_eq!(e.chunk_status(0, 4), ChunkStatus::NotFetched);
        // Committing frees an entry; the engine continues.
        e.commit_read(0, 0);
        for now in 100..110 {
            e.tick(now, &streams, &Relocation::identity(), &mut m);
        }
        assert!(matches!(e.chunk_status(0, 4), ChunkStatus::Ready(_)));
    }

    #[test]
    fn scheduler_prioritizes_low_occupancy() {
        // Two streams, one module: fetches should alternate.
        let streams = vec![
            mk_stream(Dir::Load, (0..4).map(|i| lines(&[i])).collect()),
            mk_stream(Dir::Load, (100..104).map(|i| lines(&[i])).collect()),
        ];
        let cfg = EngineConfig {
            processing_modules: 1,
            ..EngineConfig::default()
        };
        let mut e = EngineSim::new(cfg);
        let mut smp = mem();
        let mut m = smp.port(0);
        e.open(0, &streams[0], 0);
        e.open(1, &streams[1], 0);
        for now in 0..12 {
            e.tick(now, &streams, &Relocation::identity(), &mut m);
        }
        // Both streams progressed (round-robin via occupancy priority).
        assert!(matches!(e.chunk_status(0, 1), ChunkStatus::Ready(_)));
        assert!(matches!(e.chunk_status(1, 1), ChunkStatus::Ready(_)));
    }

    #[test]
    fn dim_switch_penalty_costs_cycles() {
        let chunk = ChunkMeta {
            lines: vec![1],
            dim_switches: 3,
            valid: 4,
        };
        let streams = vec![mk_stream(Dir::Load, vec![chunk])];
        let mut e = EngineSim::new(EngineConfig::default());
        let mut smp = mem();
        let mut m = smp.port(0);
        e.open(0, &streams[0], 0);
        for now in 0..2 {
            e.tick(now, &streams, &Relocation::identity(), &mut m);
        }
        // cfg(1 cycle SCROB) + 3 penalty cycles not yet elapsed.
        assert_eq!(e.chunk_status(0, 0), ChunkStatus::NotFetched);
        for now in 2..8 {
            e.tick(now, &streams, &Relocation::identity(), &mut m);
        }
        assert!(matches!(e.chunk_status(0, 0), ChunkStatus::Ready(_)));
        assert_eq!(e.stats().dim_switch_cycles, 3);
    }

    #[test]
    fn store_streams_write_at_commit() {
        let streams = vec![mk_stream(Dir::Store, vec![lines(&[5])])];
        let mut e = EngineSim::new(EngineConfig::default());
        let mut smp = mem();
        let mut m = smp.port(0);
        e.open(0, &streams[0], 0);
        for now in 0..5 {
            e.tick(now, &streams, &Relocation::identity(), &mut m);
        }
        // Address generated, no memory write yet.
        assert!(matches!(e.chunk_status(0, 0), ChunkStatus::Ready(_)));
        assert_eq!(m.stats().writes, 0);
        e.commit_write(0, 0, 10, &streams, &Relocation::identity(), &mut m);
        assert_eq!(m.stats().writes, 1);
    }

    #[test]
    fn scrob_serializes_configurations() {
        let s0 = mk_stream(Dir::Load, vec![lines(&[1])]);
        let mut s1 = mk_stream(Dir::Load, vec![lines(&[2])]);
        s1.cfg_insts = 4;
        let streams = vec![s0, s1];
        let mut e = EngineSim::new(EngineConfig::default());
        e.open(0, &streams[0], 0);
        e.open(1, &streams[1], 0);
        // Stream 1's config completes only after stream 0's (1 cycle) plus
        // its own 4 instructions.
        let mut smp = mem();
        let mut m = smp.port(0);
        e.tick(1, &streams, &Relocation::identity(), &mut m); // stream 0 eligible at cycle 1
        assert_eq!(e.stats().line_requests, 1);
        e.tick(2, &streams, &Relocation::identity(), &mut m); // stream 1 not yet (starts at 5)
        assert_eq!(e.stats().line_requests, 1);
        for now in 3..8 {
            e.tick(now, &streams, &Relocation::identity(), &mut m);
        }
        assert_eq!(e.stats().line_requests, 2);
    }

    #[test]
    fn faulting_pages_are_flagged_not_requested() {
        let streams = vec![mk_stream(Dir::Load, vec![lines(&[0x100]), lines(&[0x200])])];
        let mut e = EngineSim::new(EngineConfig::default());
        let mut smp = mem();
        smp.tlb_mut(0).mark_faulting(0x100 * 64);
        let mut m = smp.port(0);
        e.open(0, &streams[0], 0);
        for now in 0..10 {
            e.tick(now, &streams, &Relocation::identity(), &mut m);
        }
        assert_eq!(e.stats().page_faults, 1);
        // The faulting chunk is still delivered (flagged) and the stream
        // continues across the page boundary.
        assert!(matches!(e.chunk_status(0, 0), ChunkStatus::Ready(_)));
        assert!(matches!(e.chunk_status(0, 1), ChunkStatus::Ready(_)));
        assert_eq!(e.stats().line_requests, 1);
    }

    #[test]
    fn streams_cross_page_boundaries() {
        // 4 KiB pages = 64 lines; a stream spanning three pages keeps
        // prefetching (TLB misses charged, no faults).
        let chunks: Vec<ChunkMeta> = (0..192).step_by(32).map(|l| lines(&[l])).collect();
        let streams = vec![mk_stream(Dir::Load, chunks)];
        let mut e = EngineSim::new(EngineConfig::default());
        let mut smp = mem();
        let mut m = smp.port(0);
        e.open(0, &streams[0], 0);
        for now in 0..40 {
            e.tick(now, &streams, &Relocation::identity(), &mut m);
        }
        assert_eq!(e.stats().page_faults, 0);
        assert!(e.stats().tlb_walk_cycles > 0);
        assert!(matches!(e.chunk_status(0, 5), ChunkStatus::Ready(_)));
    }

    #[test]
    fn fifo_profile_conserves_samples() {
        let chunks: Vec<ChunkMeta> = (0..8).map(|i| lines(&[i])).collect();
        let streams = vec![mk_stream(Dir::Load, chunks)];
        let mut e = EngineSim::new(EngineConfig::default());
        let mut smp = mem();
        let mut m = smp.port(0);
        e.open(0, &streams[0], 0);
        for now in 0..50 {
            e.tick(now, &streams, &Relocation::identity(), &mut m);
        }
        let fifo = e.stats().fifo;
        // One open stream sampled once per cycle.
        assert_eq!(fifo.samples, 50);
        assert_eq!(fifo.total(), 50);
        assert_eq!(fifo.open_cycles(0), 50);
        assert_eq!(fifo.used_registers(), vec![0]);
        // Runahead fills the FIFO: with no commits, occupancy reaches the
        // full configured depth and never exceeds it.
        assert_eq!(fifo.max_occupancy(0), EngineConfig::default().fifo_depth);
        assert!(fifo.mean_occupancy(0) > 0.0);
    }

    #[test]
    fn occupancies_reports_open_streams_sorted() {
        let streams: Vec<StreamTrace> = (0..4)
            .map(|s| mk_stream(Dir::Load, (0..4).map(|i| lines(&[s * 100 + i])).collect()))
            .collect();
        let mut e = EngineSim::new(EngineConfig::default());
        let mut smp = mem();
        let mut m = smp.port(0);
        e.open(1, &streams[1], 0);
        e.open(0, &streams[0], 0);
        for now in 0..20 {
            e.tick(now, &streams, &Relocation::identity(), &mut m);
        }
        let occ = e.occupancies();
        assert_eq!(occ.len(), 2);
        assert_eq!((occ[0].0, occ[1].0), (0, 1));
        assert!(occ
            .iter()
            .all(|&(_, o)| o <= EngineConfig::default().fifo_depth));
        // Order holds through closes and out-of-order reopens.
        e.open(3, &streams[3], 20);
        e.close(0);
        e.open(2, &streams[2], 20);
        e.open(0, &streams[0], 20);
        let insts: Vec<StreamInstance> = e.occupancies().iter().map(|&(i, _)| i).collect();
        assert_eq!(insts, vec![0, 1, 2, 3]);
    }

    #[test]
    fn injected_faults_delay_but_never_starve_a_stream() {
        use uve_mem::FaultConfig;
        let chunks: Vec<ChunkMeta> = (0..32).map(|i| lines(&[i * 64])).collect();
        let streams = vec![mk_stream(Dir::Load, chunks)];
        let mut e = EngineSim::new(EngineConfig::default());
        let mut smp = SmpMem::new(
            MemConfig {
                l1_prefetcher: false,
                l2_prefetcher: false,
                fault: Some(FaultConfig {
                    transient_rate: 4,
                    poison_dram_rate: 4,
                    poison_l2_rate: 4,
                    tlb_fault_rate: 0,
                    ..FaultConfig::hostile(3)
                }),
                ..MemConfig::default()
            },
            1,
        );
        let mut m = smp.port(0);
        e.open(0, &streams[0], 0);
        let mut saw_replay = false;
        let mut now = 0;
        while !matches!(e.chunk_status(0, 31), ChunkStatus::Ready(_)) {
            e.tick(now, &streams, &Relocation::identity(), &mut m);
            saw_replay |= e.in_fault_replay(0, now);
            e.commit_read(0, 0); // keep the FIFO drained
            if let ChunkStatus::Ready(_) = e.chunk_status(0, 0) {
                for c in 0..32 {
                    if matches!(e.chunk_status(0, c), ChunkStatus::Ready(_)) {
                        e.commit_read(0, c);
                    }
                }
            }
            now += 1;
            assert!(now < 1_000_000, "injected faults must not livelock");
        }
        let st = e.stats();
        assert!(
            st.transient_retries + st.poisoned_replays > 0,
            "rates of 1-in-4 over 32 lines must fire"
        );
        assert!(saw_replay, "fault replay must be observable");
    }

    #[test]
    fn fault_free_engine_is_unchanged_by_fault_plumbing() {
        let chunks: Vec<ChunkMeta> = (0..8).map(|i| lines(&[i])).collect();
        let streams = vec![mk_stream(Dir::Load, chunks)];
        let mut e = EngineSim::new(EngineConfig::default());
        let mut smp = mem();
        let mut m = smp.port(0);
        e.open(0, &streams[0], 0);
        for now in 0..50 {
            e.tick(now, &streams, &Relocation::identity(), &mut m);
            assert!(!e.in_fault_replay(0, now));
        }
        let st = e.stats();
        assert_eq!(st.transient_retries, 0);
        assert_eq!(st.poisoned_replays, 0);
    }

    #[test]
    fn reopening_an_open_instance_keeps_peak_streams() {
        let streams = [mk_stream(Dir::Load, vec![lines(&[1])])];
        let mut e = EngineSim::new(EngineConfig::default());
        e.open(0, &streams[0], 0);
        e.open(0, &streams[0], 5);
        assert_eq!(e.open_streams(), 1);
        assert_eq!(e.stats().peak_streams, 1);
        assert_eq!(e.occupancies(), vec![(0, 0)]);
    }

    #[test]
    fn closing_an_unknown_or_closed_instance_is_a_noop() {
        let streams = [
            mk_stream(Dir::Load, vec![lines(&[1])]),
            mk_stream(Dir::Load, vec![lines(&[2])]),
        ];
        let mut e = EngineSim::new(EngineConfig::default());
        e.close(7);
        e.open(1, &streams[1], 0);
        e.close(0);
        e.close(9);
        assert_eq!(e.open_streams(), 1);
        e.close(1);
        e.close(1);
        assert_eq!(e.open_streams(), 0);
        assert!(e.occupancies().is_empty());
        e.open(0, &streams[0], 0);
        assert_eq!(e.occupancies(), vec![(0, 0)]);
    }

    #[test]
    fn close_releases_structures() {
        let streams = [mk_stream(Dir::Load, vec![lines(&[1])])];
        let mut e = EngineSim::new(EngineConfig::default());
        e.open(0, &streams[0], 0);
        assert_eq!(e.open_streams(), 1);
        e.close(0);
        assert_eq!(e.open_streams(), 0);
        assert_eq!(e.chunk_status(0, 0), ChunkStatus::NotFetched);
    }
}
