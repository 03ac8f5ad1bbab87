//! The memory hierarchy's timing model: N private L1-D slices over one
//! shared L2/DRAM, kept coherent by a snoop bus that drives the MOESI
//! `snoop_share`/`snoop_invalidate` hooks of [`Cache`]. This is the only
//! implementation of the L1/L2/DRAM read and write paths, the prefetchers,
//! the MSHRs, translation and fault injection; the single-core
//! [`MemSystem`](crate::MemSystem) is a one-core instance seen through
//! core 0.
//!
//! Protocol (paper Sec. IV-A *Memory Coherence*, classic MOESI over a
//! broadcast bus):
//!
//! - an L1 read miss broadcasts on the bus; if a remote L1 holds the line
//!   dirty (`Modified`/`Owned`) it forwards the data cache-to-cache and
//!   keeps ownership (`→ Owned`), otherwise clean remote copies drop
//!   exclusivity (`Exclusive → Shared`) and the shared L2 serves the line;
//!   the requester fills `Shared` when any remote copy exists, `Exclusive`
//!   when it is the sole holder;
//! - a write to a line not held `Modified`/`Exclusive` broadcasts an
//!   invalidation; a remote dirty copy is flushed into the shared L2 on its
//!   way out;
//! - `StreamL2` requests (non-cacheable at L1) still snoop the L1s so a
//!   stream never reads stale data past a dirty private copy;
//!   `StreamMem` requests bypass coherence entirely, exactly as the
//!   single-core model treats them as non-cacheable at all levels.
//!
//! The bus is a single arbitration point (one coherence transaction per
//! cycle, in request order); cache-to-cache forwarding costs the L2 load-to-
//! use latency. With one core there is no remote L1, so every snoop branch
//! drops out and the bus is never used: what remains is the plain
//! L1 → L2 → DRAM hierarchy (pinned by `tests/hierarchy_pin.rs`).
//!
//! The single-writer invariant — at most one `Modified`/`Exclusive` holder
//! per line, and a `Modified`/`Exclusive` holder implies no other valid
//! copy — is checked after every coherence-relevant state change (state
//! only changes at those events, so this is equivalent to checking every
//! cycle); [`SmpMem::check_coherence`] additionally performs the full
//! cross-product scan on demand.

use crate::cache::{Access, Cache, MoesiState, LINE_BYTES};
use crate::dram::{Dram, DramStats};
use crate::fault::{FaultInjector, FaultLevel, FaultStats};
use crate::hierarchy::{MemConfig, MemStats, MshrBank, Path, ReadOutcome};
use crate::memory::PAGE_SIZE;
use crate::prefetch::{AmpmPrefetcher, StridePrefetcher};
use crate::profile::{ReadProfile, ReqClass, ServedBy};
use crate::tlb::{Tlb, Translation};

/// Prefetches the L2 AMPM prefetcher issues per access at most. Table I
/// lists a 32-entry AMPM queue; the model does not queue prefetches, it
/// issues at most this many per access, each to DRAM at once.
pub(crate) const AMPM_DEGREE: usize = 2;

/// Per-core snoop-bus traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnoopStats {
    /// Coherence transactions this core started on the bus (miss
    /// broadcasts and invalidation broadcasts).
    pub bus_transactions: u64,
    /// Snoop probes that found the line valid in this core's L1.
    pub snoops_received: u64,
    /// Lines invalidated in this core's L1 by a remote write.
    pub invalidations: u64,
    /// Clean/dirty exclusivity lost in this core's L1 to a remote read
    /// (`Modified → Owned`, `Exclusive → Shared`).
    pub downgrades: u64,
    /// Reads this core had served cache-to-cache from a remote dirty L1.
    pub owner_forwards: u64,
    /// Dirty lines this core's L1 flushed to the shared L2 because a
    /// remote write invalidated them.
    pub dirty_writebacks: u64,
}

impl SnoopStats {
    /// All cross-core coherence events observed at this core (received
    /// probes plus forwarded reads) — nonzero means the snoop hooks ran.
    pub fn cross_core_events(&self) -> u64 {
        self.snoops_received + self.owner_forwards
    }
}

/// The shared snoop bus: a single arbitration point granting one coherence
/// transaction per cycle, in request order (deterministic).
#[derive(Debug, Clone, Default)]
pub struct SnoopBus {
    /// Next cycle the bus is free.
    free: u64,
    /// Total transactions granted.
    transactions: u64,
}

impl SnoopBus {
    /// Grants the bus at or after `now`; returns the grant cycle.
    fn arbitrate(&mut self, now: u64) -> u64 {
        let start = self.free.max(now);
        self.free = start + 1;
        self.transactions += 1;
        start
    }

    /// Total transactions granted since the last reset.
    pub fn transactions(&self) -> u64 {
        self.transactions
    }
}

/// A detected violation of the single-writer MOESI invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoherenceViolation {
    /// The offending line address.
    pub line: u64,
    /// Every L1 holding the line, as `(core, state)`.
    pub holders: Vec<(usize, MoesiState)>,
}

impl std::fmt::Display for CoherenceViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {:#x} held by", self.line)?;
        for (core, state) in &self.holders {
            write!(f, " core{core}:{state:?}")?;
        }
        write!(f, " — violates single-writer MOESI invariant")
    }
}

/// One core's private slice of the hierarchy.
#[derive(Debug, Clone)]
struct CoreMem {
    l1: Cache,
    stride: StridePrefetcher,
    l1_mshrs: MshrBank,
    tlb: Tlb,
    injector: Option<FaultInjector>,
    reads: u64,
    writes: u64,
    profile: ReadProfile,
    snoop: SnoopStats,
    /// Shared-DRAM traffic attributed to this core (which core's request
    /// chain caused the access), so per-core stats obey the same
    /// conservation laws as a single-core run.
    dram_reads: u64,
    dram_read_bytes: u64,
    dram_writes: u64,
    dram_write_bytes: u64,
}

impl CoreMem {
    fn new(cfg: &MemConfig, core: usize) -> Self {
        let injector = cfg.fault.clone().map(|mut f| {
            // Decorrelate injection across cores; core 0 keeps the
            // configured seed.
            f.seed = f.seed.wrapping_add(core as u64 * 0x9E37_79B9_7F4A_7C15);
            FaultInjector::new(f)
        });
        Self {
            l1: Cache::new("L1-D", cfg.l1_size, cfg.l1_ways),
            stride: StridePrefetcher::new(cfg.stride_depth, 64),
            l1_mshrs: MshrBank::new(cfg.l1_mshrs),
            tlb: Tlb::new(cfg.tlb_entries, cfg.tlb_walk_latency),
            injector,
            reads: 0,
            writes: 0,
            profile: ReadProfile::default(),
            snoop: SnoopStats::default(),
            dram_reads: 0,
            dram_read_bytes: 0,
            dram_writes: 0,
            dram_write_bytes: 0,
        }
    }
}

/// What one shared-level fetch (post-snoop) resolved to.
struct Fetched {
    ready: u64,
    mshr_wait: u64,
    from_dram: bool,
    from_snoop: bool,
    /// Coherence state the requester's L1 must fill with.
    fill_state: MoesiState,
}

impl Fetched {
    /// The level that served the fetch, for the latency profile.
    fn served_by(&self) -> ServedBy {
        if self.from_snoop {
            ServedBy::Remote
        } else if self.from_dram {
            ServedBy::Dram
        } else {
            ServedBy::L2
        }
    }
}

/// N-core memory hierarchy: private L1-D/TLB/stride-prefetcher slices,
/// shared L2 + AMPM + DRAM, one snoop bus. Each timing core accesses it
/// through its own [`SmpPort`] (a [`MemPort`](crate::MemPort)).
#[derive(Debug, Clone)]
pub struct SmpMem {
    cfg: MemConfig,
    cores: Vec<CoreMem>,
    l2: Cache,
    ampm: AmpmPrefetcher,
    dram: Dram,
    l2_port_free: u64,
    l2_mshrs: MshrBank,
    bus: SnoopBus,
}

impl SmpMem {
    /// Creates an `ncores`-way hierarchy; every core gets the same private
    /// L1/TLB/prefetcher geometry from `cfg`, and the L2/DRAM are shared.
    pub fn new(cfg: MemConfig, ncores: usize) -> Self {
        let ncores = ncores.max(1);
        Self {
            cores: (0..ncores).map(|c| CoreMem::new(&cfg, c)).collect(),
            l2: Cache::new("L2", cfg.l2_size, cfg.l2_ways),
            ampm: AmpmPrefetcher::new(64, AMPM_DEGREE),
            dram: Dram::new(cfg.dram),
            l2_port_free: 0,
            l2_mshrs: MshrBank::new(cfg.l2_mshrs),
            bus: SnoopBus::default(),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// One core's mutable port into the hierarchy.
    pub fn port(&mut self, core: usize) -> SmpPort<'_> {
        assert!(core < self.cores.len(), "core {core} out of range");
        SmpPort { smp: self, core }
    }

    /// One core's TLB (fault-injection hooks).
    pub fn tlb_mut(&mut self, core: usize) -> &mut Tlb {
        &mut self.cores[core].tlb
    }

    /// Per-core snoop counters.
    pub fn snoop_stats(&self, core: usize) -> SnoopStats {
        self.cores[core].snoop
    }

    /// Total snoop-bus transactions.
    pub fn bus_transactions(&self) -> u64 {
        self.bus.transactions()
    }

    /// Shared-DRAM statistics (all cores combined).
    pub fn dram_stats(&self) -> DramStats {
        self.dram.stats()
    }

    /// One core's statistics slice. Shared-device traffic (DRAM) is
    /// attributed to the core whose request chain caused it, so every
    /// per-core `MemStats` obeys the single-core conservation laws
    /// (`profile.served_count(Dram) == dram.reads`, demand+stream sample
    /// counts == `reads`); the `l2` field reports the shared L2.
    pub fn core_stats(&self, core: usize) -> MemStats {
        let c = &self.cores[core];
        MemStats {
            l1: c.l1.stats(),
            l2: self.l2.stats(),
            dram: DramStats {
                read_bytes: c.dram_read_bytes,
                write_bytes: c.dram_write_bytes,
                reads: c.dram_reads,
                writes: c.dram_writes,
            },
            reads: c.reads,
            writes: c.writes,
            tlb_hits: c.tlb.hits(),
            tlb_misses: c.tlb.misses(),
            profile: c.profile,
            snoop: c.snoop,
        }
    }

    /// DRAM bus utilization over `cycles` (shared device).
    pub fn bus_utilization(&self, cycles: u64) -> f64 {
        self.dram.utilization(cycles)
    }

    /// Full cross-product scan of the single-writer invariant: a line held
    /// `Modified`/`Exclusive` by one L1 must be invalid in every other L1,
    /// and at most one L1 may own (`Owned`) a line.
    pub fn check_coherence(&self) -> Result<(), CoherenceViolation> {
        for (i, c) in self.cores.iter().enumerate() {
            for (line, state) in c.l1.valid_lines() {
                let exclusive = matches!(state, MoesiState::Modified | MoesiState::Exclusive);
                let owned = state == MoesiState::Owned;
                if !exclusive && !owned {
                    continue;
                }
                for (j, other) in self.cores.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let s = other.l1.state_of(line);
                    let clash = if exclusive {
                        s.is_valid()
                    } else {
                        // A second dirty copy of an Owned line.
                        s.is_dirty() || s == MoesiState::Exclusive
                    };
                    if clash {
                        return Err(CoherenceViolation {
                            line,
                            holders: self
                                .cores
                                .iter()
                                .enumerate()
                                .filter(|(_, c)| c.l1.state_of(line).is_valid())
                                .map(|(k, c)| (k, c.l1.state_of(line)))
                                .collect(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Per-event invariant check for one line (every state change goes
    /// through a coherence event, so this is equivalent to a per-cycle
    /// check of the whole cache). Cheap: one tag probe per core.
    fn verify_line(&self, line: u64) {
        let mut exclusive = 0usize;
        let mut dirty = 0usize;
        let mut valid = 0usize;
        for c in &self.cores {
            match c.l1.state_of(line) {
                MoesiState::Modified => {
                    exclusive += 1;
                    dirty += 1;
                    valid += 1;
                }
                MoesiState::Exclusive => {
                    exclusive += 1;
                    valid += 1;
                }
                MoesiState::Owned => {
                    dirty += 1;
                    valid += 1;
                }
                MoesiState::Shared => valid += 1,
                MoesiState::Invalid => {}
            }
        }
        if exclusive > 1 || dirty > 1 || (exclusive == 1 && valid > 1) {
            let v = CoherenceViolation {
                line,
                holders: self
                    .cores
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.l1.state_of(line).is_valid())
                    .map(|(k, c)| (k, c.l1.state_of(line)))
                    .collect(),
            };
            panic!("coherence: {v}");
        }
    }

    /// Resets traffic statistics and time cursors while keeping cache,
    /// prefetcher and TLB *state* — the warm-measurement hook: replaying a
    /// trace after a priming run models steady-state behaviour.
    pub fn reset_stats(&mut self) {
        self.dram.reset();
        self.l2.reset_stats();
        self.l2_port_free = 0;
        self.l2_mshrs = MshrBank::new(self.cfg.l2_mshrs);
        self.bus = SnoopBus::default();
        for c in &mut self.cores {
            c.l1.reset_stats();
            c.tlb.reset_stats();
            c.l1_mshrs = MshrBank::new(self.cfg.l1_mshrs);
            c.reads = 0;
            c.writes = 0;
            c.profile = ReadProfile::default();
            c.snoop = SnoopStats::default();
            c.dram_reads = 0;
            c.dram_read_bytes = 0;
            c.dram_writes = 0;
            c.dram_write_bytes = 0;
            if let Some(inj) = &mut c.injector {
                // Counters reset; the handled-page set survives — a page
                // mapped in the priming pass stays mapped in the warm pass.
                inj.reset_stats();
            }
        }
    }

    // ---- attribution-aware shared devices -------------------------------

    fn dram_read(&mut self, core: usize, line: u64, at: u64) -> u64 {
        let c = &mut self.cores[core];
        c.dram_reads += 1;
        c.dram_read_bytes += LINE_BYTES;
        self.dram.read(line, at)
    }

    fn dram_write(&mut self, core: usize, line: u64, at: u64) -> u64 {
        let c = &mut self.cores[core];
        c.dram_writes += 1;
        c.dram_write_bytes += LINE_BYTES;
        self.dram.write(line, at)
    }

    /// Writes a dirty L1 victim of `core` back into the shared L2; a dirty
    /// L2 line that makes room for it goes on to DRAM. Both post at `now`.
    fn write_back_l1_victim(&mut self, core: usize, victim: Option<u64>, now: u64) {
        if let Some(v2) = victim.and_then(|v| self.l2.fill(v, true, now)) {
            self.dram_write(core, v2, now);
        }
    }

    fn l2_port(&mut self, now: u64) -> u64 {
        // `l2_ports` accesses per cycle: the free cursor advances by a
        // 1/l2_ports fraction, quantized via a sub-cycle counter.
        let start = (self.l2_port_free / self.cfg.l2_ports as u64).max(now);
        self.l2_port_free = (start * self.cfg.l2_ports as u64).max(self.l2_port_free) + 1;
        start
    }

    /// Reads through the shared L2 (demand or on behalf of L1 fills), with
    /// DRAM traffic attributed to `core`; returns when the data is ready,
    /// filling L2 unless `allocate` is false. The AMPM prefetcher trains on
    /// demand traffic only (`train`): Streaming Engine requests carry exact
    /// pattern knowledge, and prefetching on top of them creates in-flight
    /// interception chains that only slow the stream down.
    fn l2_read(
        &mut self,
        core: usize,
        line: u64,
        now: u64,
        allocate: bool,
        train: bool,
    ) -> Fetched {
        let start = self.l2_port(now);
        let out = match self.l2.access(line, false, start) {
            Access::Hit { ready } => Fetched {
                ready: ready.max(start) + self.cfg.l2_latency,
                mshr_wait: 0,
                from_dram: false,
                from_snoop: false,
                fill_state: MoesiState::Exclusive,
            },
            Access::Miss => {
                let (slot, miss_start) = self.l2_mshrs.acquire(start);
                let ready = self.dram_read(core, line, miss_start + self.cfg.l2_latency);
                self.l2_mshrs.release_at(slot, ready);
                if allocate {
                    if let Some(victim) = self.l2.fill(line, false, ready) {
                        // Writebacks are posted from a write buffer at the
                        // access time; scheduling them at the future fill
                        // time would block younger reads behind phantom
                        // channel occupancy.
                        self.dram_write(core, victim, start);
                    }
                }
                Fetched {
                    ready,
                    mshr_wait: miss_start - start,
                    from_dram: true,
                    from_snoop: false,
                    fill_state: MoesiState::Exclusive,
                }
            }
        };
        if self.cfg.l2_prefetcher && train {
            for pf in self.ampm.observe(line) {
                if !self.l2.probe(pf) {
                    let pf_ready = self.dram_read(core, pf, start + self.cfg.l2_latency);
                    self.cores[core].profile.record(
                        ReqClass::Prefetch,
                        ServedBy::Dram,
                        pf_ready - start,
                    );
                    if let Some(victim) = self.l2.fill_prefetch(pf, pf_ready) {
                        self.dram_write(core, victim, pf_ready);
                    }
                }
            }
        }
        out
    }

    /// Broadcasts a read miss from `core` and resolves it: owner forwarding
    /// from a remote dirty L1, or a shared-L2 read, downgrading every
    /// remote copy. `at` is the cycle the miss leaves the L1.
    fn fetch_shared(&mut self, core: usize, line: u64, at: u64, train: bool) -> Fetched {
        if self.cores.len() == 1 {
            return self.l2_read(core, line, at, true, train);
        }
        let grant = self.bus.arbitrate(at);
        self.cores[core].snoop.bus_transactions += 1;
        let mut owner = None;
        let mut any_remote = false;
        for i in 0..self.cores.len() {
            if i == core {
                continue;
            }
            let state = self.cores[i].l1.state_of(line);
            if !state.is_valid() {
                continue;
            }
            any_remote = true;
            let c = &mut self.cores[i];
            c.snoop.snoops_received += 1;
            if matches!(state, MoesiState::Modified | MoesiState::Exclusive) {
                c.snoop.downgrades += 1;
            }
            c.l1.snoop_share(line);
            if state.is_dirty() && owner.is_none() {
                owner = Some(i);
            }
        }
        let out = if owner.is_some() {
            // Cache-to-cache forward: the owner keeps the dirty line
            // (`Owned`), no L2 or DRAM involvement, one bus hop at the L2's
            // load-to-use cost.
            self.cores[core].snoop.owner_forwards += 1;
            Fetched {
                ready: grant + self.cfg.l2_latency,
                mshr_wait: 0,
                from_dram: false,
                from_snoop: true,
                fill_state: MoesiState::Shared,
            }
        } else {
            let mut out = self.l2_read(core, line, grant, true, train);
            if any_remote {
                out.fill_state = MoesiState::Shared;
            }
            out
        };
        self.verify_line(line);
        out
    }

    /// Broadcasts an invalidation from `core`: every remote copy dies, and
    /// remote dirty data is flushed into the shared L2 at `at`.
    fn invalidate_remotes(&mut self, core: usize, line: u64, at: u64) {
        self.cores[core].snoop.bus_transactions += 1;
        for i in 0..self.cores.len() {
            if i == core {
                continue;
            }
            if !self.cores[i].l1.state_of(line).is_valid() {
                continue;
            }
            let c = &mut self.cores[i];
            c.snoop.snoops_received += 1;
            c.snoop.invalidations += 1;
            if c.l1.snoop_invalidate(line) {
                c.snoop.dirty_writebacks += 1;
                if let Some(victim) = self.l2.fill(line, true, at) {
                    self.dram_write(core, victim, at);
                }
            }
        }
    }

    /// `true` if any remote L1 holds `line` valid.
    fn any_remote_copy(&self, core: usize, line: u64) -> bool {
        self.cores
            .iter()
            .enumerate()
            .any(|(i, c)| i != core && c.l1.state_of(line).is_valid())
    }

    /// A remote core holding `line` dirty, if any.
    fn remote_owner(&self, core: usize, line: u64) -> Option<usize> {
        self.cores
            .iter()
            .enumerate()
            .find(|(i, c)| *i != core && c.l1.state_of(line).is_dirty())
            .map(|(i, _)| i)
    }

    // ---- the per-core MemPort operations --------------------------------

    /// Translates a virtual address through `core`'s TLB (streams and the
    /// LSQ both use this). With fault injection enabled, a page's first
    /// touch may raise an injected translation fault (once per page — the
    /// handler maps it).
    pub fn translate(&mut self, core: usize, vaddr: u64) -> Translation {
        let c = &mut self.cores[core];
        if let Some(inj) = &mut c.injector {
            let page = vaddr / PAGE_SIZE;
            if inj.page_fault_on_first_touch(page) {
                return Translation::Fault { page };
            }
        }
        c.tlb.translate(vaddr)
    }

    /// Does `core`'s request for `line` transiently fail at retry
    /// `attempt`? Always `false` without an injector.
    pub fn fault_transient(&mut self, core: usize, line: u64, attempt: u32) -> bool {
        match &mut self.cores[core].injector {
            Some(inj) => inj.transient(line, attempt),
            None => false,
        }
    }

    /// Is a response to `core` for `line` poisoned at retry `attempt`? The
    /// serving level is derived from the request path and whether DRAM
    /// served it.
    pub fn fault_poisoned(
        &mut self,
        core: usize,
        line: u64,
        attempt: u32,
        from_dram: bool,
        path: Path,
    ) -> bool {
        let Some(inj) = &mut self.cores[core].injector else {
            return false;
        };
        let level = if from_dram {
            FaultLevel::Dram
        } else {
            match path {
                Path::Normal | Path::StreamL1 => FaultLevel::L1,
                Path::StreamL2 | Path::StreamMem => FaultLevel::L2,
            }
        };
        inj.poisoned(line, attempt, level)
    }

    /// Backoff in cycles before `core`'s retry `attempt` (0 without an
    /// injector).
    pub fn fault_backoff(&self, core: usize, attempt: u32) -> u64 {
        self.cores[core]
            .injector
            .as_ref()
            .map_or(0, |inj| inj.backoff(attempt))
    }

    /// Injected-fault counters for `core` (zeroes if injection is
    /// disabled).
    pub fn fault_stats(&self, core: usize) -> FaultStats {
        self.cores[core]
            .injector
            .as_ref()
            .map_or_else(FaultStats::default, |inj| inj.stats())
    }

    /// A demand read of the line containing byte address `addr`, issued by
    /// instruction `pc` of `core` at cycle `now` along `path`, under the
    /// snoop protocol above. Besides the data-ready cycle it reports MSHR
    /// waiting time and whether DRAM or a remote L1 served the request, for
    /// stall attribution.
    pub fn read_explained(
        &mut self,
        core: usize,
        addr: u64,
        pc: u64,
        now: u64,
        path: Path,
    ) -> ReadOutcome {
        self.cores[core].reads += 1;
        let line = addr / LINE_BYTES;
        let class = if path == Path::Normal {
            ReqClass::Demand
        } else {
            ReqClass::Stream
        };
        match path {
            Path::Normal | Path::StreamL1 => {
                let out = match self.cores[core].l1.access(line, false, now) {
                    Access::Hit { ready } => {
                        let out = ReadOutcome {
                            ready: ready.max(now) + self.cfg.l1_latency,
                            mshr_wait: 0,
                            from_dram: false,
                            from_snoop: false,
                        };
                        self.cores[core]
                            .profile
                            .record(class, ServedBy::L1, out.ready - now);
                        out
                    }
                    Access::Miss => {
                        let (slot, start) = self.cores[core].l1_mshrs.acquire(now);
                        let inner =
                            self.fetch_shared(core, line, start + self.cfg.l1_latency, true);
                        self.cores[core].l1_mshrs.release_at(slot, inner.ready);
                        let victim = self.cores[core].l1.fill_state(
                            line,
                            inner.fill_state,
                            inner.ready,
                            false,
                        );
                        self.write_back_l1_victim(core, victim, now);
                        self.verify_line(line);
                        self.cores[core].profile.record(
                            class,
                            inner.served_by(),
                            inner.ready - now,
                        );
                        ReadOutcome {
                            ready: inner.ready,
                            mshr_wait: (start - now) + inner.mshr_wait,
                            from_dram: inner.from_dram,
                            from_snoop: inner.from_snoop,
                        }
                    }
                };
                if self.cfg.l1_prefetcher && path == Path::Normal {
                    let reqs = self.cores[core].stride.observe(pc, addr);
                    for pf in reqs {
                        if !self.cores[core].l1.probe(pf) {
                            let (slot, start) = self.cores[core].l1_mshrs.acquire(now);
                            let inner =
                                self.fetch_shared(core, pf, start + self.cfg.l1_latency, true);
                            self.cores[core].l1_mshrs.release_at(slot, inner.ready);
                            self.cores[core].profile.record(
                                ReqClass::Prefetch,
                                inner.served_by(),
                                inner.ready - now,
                            );
                            let victim = self.cores[core].l1.fill_state(
                                pf,
                                inner.fill_state,
                                inner.ready,
                                true,
                            );
                            self.write_back_l1_victim(core, victim, now);
                            self.verify_line(pf);
                        }
                    }
                }
                out
            }
            Path::StreamL2 => {
                // Non-cacheable at L1, but a remote L1 may hold the line
                // dirty: snoop for an owner first.
                if self.cores.len() > 1 {
                    if let Some(owner) = self.remote_owner(core, line) {
                        let grant = self.bus.arbitrate(now);
                        self.cores[core].snoop.bus_transactions += 1;
                        let oc = &mut self.cores[owner];
                        oc.snoop.snoops_received += 1;
                        if oc.l1.state_of(line) == MoesiState::Modified {
                            oc.snoop.downgrades += 1;
                        }
                        oc.l1.snoop_share(line);
                        self.cores[core].snoop.owner_forwards += 1;
                        self.verify_line(line);
                        let ready = grant + self.cfg.l2_latency;
                        self.cores[core]
                            .profile
                            .record(class, ServedBy::Remote, ready - now);
                        return ReadOutcome {
                            ready,
                            mshr_wait: 0,
                            from_dram: false,
                            from_snoop: true,
                        };
                    }
                }
                // Non-cacheable at L1: straight to the L2, treated there as
                // a normal (cacheable) load; does not train the prefetcher.
                let out = self.l2_read(core, line, now, true, false);
                self.cores[core]
                    .profile
                    .record(class, out.served_by(), out.ready - now);
                ReadOutcome {
                    ready: out.ready,
                    mshr_wait: out.mshr_wait,
                    from_dram: out.from_dram,
                    from_snoop: false,
                }
            }
            Path::StreamMem => {
                // Non-cacheable at all levels: direct DRAM read, no fills,
                // no pollution, no coherence.
                let ready = self.dram_read(core, line, now);
                self.cores[core]
                    .profile
                    .record(class, ServedBy::Dram, ready - now);
                ReadOutcome {
                    ready,
                    mshr_wait: 0,
                    from_dram: true,
                    from_snoop: false,
                }
            }
        }
    }

    /// A demand write from `core` of the line containing `addr`
    /// (write-allocate at L1 for `Normal`/`StreamL1`; L2 for `StreamL2`;
    /// DRAM for `StreamMem`), invalidating remote copies first. Returns the
    /// cycle the write is accepted.
    pub fn write(&mut self, core: usize, addr: u64, _pc: u64, now: u64, path: Path) -> u64 {
        self.cores[core].writes += 1;
        let line = addr / LINE_BYTES;
        match path {
            Path::Normal | Path::StreamL1 => {
                // Writing a line we do not hold exclusively requires the
                // bus: invalidate every remote copy first.
                let upgrade = self.cores.len() > 1
                    && matches!(
                        self.cores[core].l1.state_of(line),
                        MoesiState::Shared | MoesiState::Owned
                    );
                let bus_at = if upgrade {
                    let grant = self.bus.arbitrate(now);
                    self.invalidate_remotes(core, line, grant);
                    grant
                } else {
                    now
                };
                let accept = match self.cores[core].l1.access(line, true, now) {
                    Access::Hit { ready } => ready.max(bus_at) + 1,
                    Access::Miss => {
                        // Write-allocate: fetch the line, then dirty it.
                        let (slot, start) = self.cores[core].l1_mshrs.acquire(now);
                        let at = if self.cores.len() > 1 {
                            let grant = self.bus.arbitrate(start);
                            self.invalidate_remotes(core, line, grant);
                            grant
                        } else {
                            start
                        };
                        let inner = self.l2_read(core, line, at + self.cfg.l1_latency, true, true);
                        self.cores[core].l1_mshrs.release_at(slot, inner.ready);
                        self.cores[core].profile.record(
                            ReqClass::WriteAlloc,
                            inner.served_by(),
                            inner.ready - now,
                        );
                        let victim = self.cores[core].l1.fill(line, true, inner.ready);
                        self.write_back_l1_victim(core, victim, now);
                        inner.ready
                    }
                };
                self.verify_line(line);
                accept
            }
            Path::StreamL2 => {
                if self.cores.len() > 1 && self.any_remote_copy(core, line) {
                    let grant = self.bus.arbitrate(now);
                    self.invalidate_remotes(core, line, grant);
                    self.verify_line(line);
                }
                let start = self.l2_port(now);
                match self.l2.access(line, true, start) {
                    Access::Hit { ready } => ready.max(start) + 1,
                    Access::Miss => {
                        let (slot, miss_start) = self.l2_mshrs.acquire(start);
                        let ready = self.dram_read(core, line, miss_start + self.cfg.l2_latency);
                        self.cores[core].profile.record(
                            ReqClass::WriteAlloc,
                            ServedBy::Dram,
                            ready - now,
                        );
                        self.l2_mshrs.release_at(slot, ready);
                        if let Some(victim) = self.l2.fill(line, true, ready) {
                            self.dram_write(core, victim, start);
                        }
                        ready
                    }
                }
            }
            Path::StreamMem => self.dram_write(core, line, now),
        }
    }

    /// A full-line write from `core`: the producer overwrites the entire
    /// line, so no allocate-read is needed on a miss (the Streaming Engine
    /// knows the exact store pattern from the descriptor, one of UVE's
    /// advantages over conventional write-allocate stores). Remote copies
    /// are invalidated first. Returns the acceptance cycle.
    pub fn write_full_line(
        &mut self,
        core: usize,
        addr: u64,
        _pc: u64,
        now: u64,
        path: Path,
    ) -> u64 {
        self.cores[core].writes += 1;
        let line = addr / LINE_BYTES;
        match path {
            Path::Normal | Path::StreamL1 => {
                if self.cores.len() > 1
                    && !matches!(
                        self.cores[core].l1.state_of(line),
                        MoesiState::Modified | MoesiState::Exclusive
                    )
                    && self.any_remote_copy(core, line)
                {
                    let grant = self.bus.arbitrate(now);
                    self.invalidate_remotes(core, line, grant);
                }
                let accept = match self.cores[core].l1.access(line, true, now) {
                    Access::Hit { ready } => ready.max(now) + 1,
                    Access::Miss => {
                        let victim = self.cores[core].l1.fill(line, true, now);
                        self.write_back_l1_victim(core, victim, now);
                        now + 1
                    }
                };
                self.verify_line(line);
                accept
            }
            Path::StreamL2 => {
                if self.cores.len() > 1 && self.any_remote_copy(core, line) {
                    let grant = self.bus.arbitrate(now);
                    self.invalidate_remotes(core, line, grant);
                    self.verify_line(line);
                }
                let start = self.l2_port(now);
                match self.l2.access(line, true, start) {
                    Access::Hit { ready } => ready.max(start) + 1,
                    Access::Miss => {
                        if let Some(victim) = self.l2.fill(line, true, start) {
                            self.dram_write(core, victim, start);
                        }
                        start + 1
                    }
                }
            }
            Path::StreamMem => self.dram_write(core, line, now),
        }
    }
}

/// One core's [`MemPort`](crate::MemPort) into an [`SmpMem`].
#[derive(Debug)]
pub struct SmpPort<'a> {
    smp: &'a mut SmpMem,
    core: usize,
}

impl crate::MemPort for SmpPort<'_> {
    fn translate(&mut self, vaddr: u64) -> Translation {
        self.smp.translate(self.core, vaddr)
    }

    fn fault_transient(&mut self, line: u64, attempt: u32) -> bool {
        self.smp.fault_transient(self.core, line, attempt)
    }

    fn fault_poisoned(&mut self, line: u64, attempt: u32, from_dram: bool, path: Path) -> bool {
        self.smp
            .fault_poisoned(self.core, line, attempt, from_dram, path)
    }

    fn fault_backoff(&self, attempt: u32) -> u64 {
        self.smp.fault_backoff(self.core, attempt)
    }

    fn fault_stats(&self) -> FaultStats {
        self.smp.fault_stats(self.core)
    }

    fn read_explained(&mut self, addr: u64, pc: u64, now: u64, path: Path) -> ReadOutcome {
        self.smp.read_explained(self.core, addr, pc, now, path)
    }

    fn write(&mut self, addr: u64, pc: u64, now: u64, path: Path) -> u64 {
        self.smp.write(self.core, addr, pc, now, path)
    }

    fn write_full_line(&mut self, addr: u64, pc: u64, now: u64, path: Path) -> u64 {
        self.smp.write_full_line(self.core, addr, pc, now, path)
    }

    fn stats(&self) -> MemStats {
        self.smp.core_stats(self.core)
    }

    fn bus_utilization(&self, cycles: u64) -> f64 {
        self.smp.bus_utilization(cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServedBy;

    fn cfg() -> MemConfig {
        MemConfig::default()
    }

    #[test]
    fn read_sharing_downgrades_exclusive_copies() {
        let mut smp = SmpMem::new(cfg(), 2);
        smp.read_explained(0, 0x8000, 1, 0, Path::Normal);
        assert_eq!(smp.cores[0].l1.state_of(0x200), MoesiState::Exclusive);
        let out = smp.read_explained(1, 0x8000, 1, 1000, Path::Normal);
        assert!(!out.from_snoop, "clean copy is served by the L2");
        assert_eq!(smp.cores[0].l1.state_of(0x200), MoesiState::Shared);
        assert_eq!(smp.cores[1].l1.state_of(0x200), MoesiState::Shared);
        assert_eq!(smp.snoop_stats(0).downgrades, 1);
        assert_eq!(smp.snoop_stats(0).snoops_received, 1);
        assert!(smp.snoop_stats(1).bus_transactions > 0);
        smp.check_coherence()
            .expect("single-writer invariant must hold");
    }

    #[test]
    fn owner_forwarding_serves_dirty_lines_cache_to_cache() {
        let mut smp = SmpMem::new(cfg(), 2);
        // Core 0 dirties the line (write-allocate).
        smp.write(0, 0x9000, 1, 0, Path::Normal);
        assert_eq!(smp.cores[0].l1.state_of(0x240), MoesiState::Modified);
        let dram_reads_before = smp.dram_stats().reads;
        let out = smp.read_explained(1, 0x9000, 2, 5000, Path::Normal);
        assert!(out.from_snoop, "dirty line must be forwarded");
        assert!(!out.from_dram);
        assert_eq!(smp.cores[0].l1.state_of(0x240), MoesiState::Owned);
        assert_eq!(smp.cores[1].l1.state_of(0x240), MoesiState::Shared);
        assert_eq!(smp.snoop_stats(1).owner_forwards, 1);
        // Owner forwarding bypasses DRAM entirely.
        assert_eq!(smp.dram_stats().reads, dram_reads_before);
        assert_eq!(smp.core_stats(1).profile.served_count(ServedBy::Remote), 1);
        smp.check_coherence()
            .expect("single-writer invariant must hold");
    }

    #[test]
    fn remote_write_invalidates_and_flushes_dirty_copies() {
        let mut smp = SmpMem::new(cfg(), 2);
        smp.write(0, 0xA000, 1, 0, Path::Normal); // core 0 holds Modified
        smp.write(1, 0xA000, 2, 5000, Path::Normal); // core 1 takes it over
        assert_eq!(smp.cores[0].l1.state_of(0x280), MoesiState::Invalid);
        assert_eq!(smp.cores[1].l1.state_of(0x280), MoesiState::Modified);
        assert_eq!(smp.snoop_stats(0).invalidations, 1);
        assert_eq!(smp.snoop_stats(0).dirty_writebacks, 1);
        smp.check_coherence()
            .expect("single-writer invariant must hold");
    }

    #[test]
    fn stream_l2_read_snoops_dirty_owner() {
        let mut smp = SmpMem::new(cfg(), 2);
        smp.write(0, 0xB000, 1, 0, Path::Normal);
        let out = smp.read_explained(1, 0xB000, 2, 4000, Path::StreamL2);
        assert!(out.from_snoop);
        assert_eq!(smp.cores[0].l1.state_of(0x2C0), MoesiState::Owned);
        smp.check_coherence()
            .expect("single-writer invariant must hold");
    }

    #[test]
    fn stream_l2_write_invalidates_remote_copies() {
        let mut smp = SmpMem::new(cfg(), 2);
        smp.read_explained(0, 0xC000, 1, 0, Path::Normal);
        smp.write(1, 0xC000, 2, 3000, Path::StreamL2);
        assert_eq!(smp.cores[0].l1.state_of(0x300), MoesiState::Invalid);
        assert_eq!(smp.snoop_stats(0).invalidations, 1);
        smp.check_coherence()
            .expect("single-writer invariant must hold");
    }

    #[test]
    fn per_core_dram_attribution_sums_to_shared_device() {
        let mut smp = SmpMem::new(cfg(), 4);
        let mut now = 0;
        for i in 0..256u64 {
            let core = (i % 4) as usize;
            let addr = 0x40_0000 + i * 64;
            let out = smp.read_explained(core, addr, 3, now, Path::Normal);
            smp.write(core, 0x80_0000 + i * 64, 4, now, Path::StreamL2);
            now = out.ready;
        }
        let shared = smp.dram_stats();
        let summed: u64 = (0..4).map(|c| smp.core_stats(c).dram.reads).sum();
        assert_eq!(summed, shared.reads);
        let summed_w: u64 = (0..4).map(|c| smp.core_stats(c).dram.writes).sum();
        assert_eq!(summed_w, shared.writes);
        // Per-core conservation laws (the same ones StatsReport::check
        // enforces on single-core rows).
        for c in 0..4 {
            let s = smp.core_stats(c);
            assert_eq!(s.profile.served_count(ServedBy::Dram), s.dram.reads);
            assert_eq!(
                s.profile.class_count(ReqClass::Demand) + s.profile.class_count(ReqClass::Stream),
                s.reads
            );
        }
        smp.check_coherence()
            .expect("single-writer invariant must hold");
    }

    #[test]
    fn fabricated_double_writer_is_detected() {
        let mut smp = SmpMem::new(cfg(), 2);
        // Bypass the protocol to fabricate an illegal state.
        smp.cores[0].l1.fill(0x111, true, 0);
        smp.cores[1].l1.fill(0x111, true, 0);
        let err = smp.check_coherence().unwrap_err();
        assert_eq!(err.line, 0x111);
        assert_eq!(err.holders.len(), 2);
        let msg = err.to_string();
        assert!(msg.contains("single-writer"), "{msg}");
    }

    #[test]
    fn prefetched_lines_respect_sharing() {
        // A line prefetched into one L1 while another L1 holds it must fill
        // Shared, not Exclusive (the prefetcher is a bus agent too).
        let mut smp = SmpMem::new(cfg(), 2);
        let mut now = 0;
        // Train core 0's stride prefetcher on a sequential walk.
        for i in 0..32u64 {
            now = smp
                .read_explained(0, 0x60_0000 + i * 64, 42, now, Path::Normal)
                .ready;
        }
        // Core 1 touches lines ahead of core 0's stream.
        for i in 32..64u64 {
            smp.read_explained(1, 0x60_0000 + i * 64, 43, now, Path::Normal);
        }
        // Keep walking: core 0's prefetches now cover remotely-held lines.
        for i in 32..64u64 {
            now = smp
                .read_explained(0, 0x60_0000 + i * 64, 42, now, Path::Normal)
                .ready;
        }
        smp.check_coherence()
            .expect("single-writer invariant must hold");
    }
}
