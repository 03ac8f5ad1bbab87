//! The memory hierarchy's configuration, request paths and result types,
//! and [`MemSystem`], the single-core view of the one hierarchy model
//! ([`SmpMem`]): L1-D + stride prefetcher, unified L2 + AMPM prefetcher,
//! DRAM, with the stream request paths of the paper (L1 / L2 /
//! direct-memory streaming, Sec. IV-A *Cache Access*).

use crate::cache::CacheStats;
use crate::dram::{DramConfig, DramStats};
use crate::fault::{FaultConfig, FaultStats};
use crate::port::MemPort;
use crate::profile::ReadProfile;
use crate::smp::{SmpMem, SnoopStats};
use crate::tlb::{Tlb, Translation};

/// Configuration of the memory hierarchy (Table I defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct MemConfig {
    /// L1-D capacity in bytes (Table I: 64 KB).
    pub l1_size: usize,
    /// L1-D associativity (4-way).
    pub l1_ways: usize,
    /// L1 load-to-use latency in cycles.
    pub l1_latency: u64,
    /// L2 capacity in bytes (256 KB).
    pub l2_size: usize,
    /// L2 associativity (8-way).
    pub l2_ways: usize,
    /// L2 load-to-use latency in cycles.
    pub l2_latency: u64,
    /// Enable the L1 stride prefetcher (depth 16).
    pub l1_prefetcher: bool,
    /// Stride prefetcher lookahead depth.
    pub stride_depth: usize,
    /// Enable the L2 AMPM prefetcher (it issues at most two prefetches per
    /// access; see `AMPM_DEGREE` in `smp.rs`).
    pub l2_prefetcher: bool,
    /// DRAM configuration.
    pub dram: DramConfig,
    /// TLB entries.
    pub tlb_entries: usize,
    /// Page-walk latency in cycles.
    pub tlb_walk_latency: u64,
    /// L1-D MSHR entries (outstanding misses; limits demand memory-level
    /// parallelism on the conventional load path).
    pub l1_mshrs: usize,
    /// L2 MSHR entries (shared by demand misses, prefetches and stream
    /// requests).
    pub l2_mshrs: usize,
    /// L2 requests accepted per cycle (the Streaming Engine brings its own
    /// load + store ports per Table I, so the default is 2).
    pub l2_ports: usize,
    /// Deterministic fault injection; `None` (the default) disables it and
    /// costs nothing on the hot path.
    pub fault: Option<FaultConfig>,
}

impl Default for MemConfig {
    fn default() -> Self {
        Self {
            l1_size: 64 * 1024,
            l1_ways: 4,
            l1_latency: 4,
            l2_size: 256 * 1024,
            l2_ways: 8,
            l2_latency: 13,
            l1_prefetcher: true,
            stride_depth: 16,
            l2_prefetcher: true,
            dram: DramConfig::default(),
            tlb_entries: 48,
            tlb_walk_latency: 20,
            l1_mshrs: 8,
            l2_mshrs: 32,
            l2_ports: 2,
            fault: None,
        }
    }
}

/// Which path a request takes through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Path {
    /// Conventional load/store: L1 → L2 → DRAM, allocating at every level.
    #[default]
    Normal,
    /// Stream directed at the L1 (allocates in L1).
    StreamL1,
    /// Stream directed at the L2 (non-cacheable at L1, allocates in L2) —
    /// the paper's default for streams.
    StreamL2,
    /// Stream directed at memory: non-cacheable at all levels.
    StreamMem,
}

/// A bank of miss-status holding registers: a new miss occupies the
/// earliest-free slot, serializing behind it when all slots are busy. This
/// is what bounds memory-level parallelism on each level's miss path.
#[derive(Debug, Clone)]
pub(crate) struct MshrBank {
    busy_until: Vec<u64>,
}

impl MshrBank {
    pub(crate) fn new(slots: usize) -> Self {
        Self {
            busy_until: vec![0; slots.max(1)],
        }
    }

    /// Reserves a slot at `now`; returns `(slot, start_cycle)`. The bank
    /// always holds at least one slot (see `new`), so the empty case falls
    /// back to slot 0 instead of panicking.
    pub(crate) fn acquire(&mut self, now: u64) -> (usize, u64) {
        let (slot, &t) = self
            .busy_until
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .unwrap_or((0, &0));
        (slot, now.max(t))
    }

    pub(crate) fn release_at(&mut self, slot: usize, when: u64) {
        self.busy_until[slot] = when;
    }
}

/// Aggregated statistics of a hierarchy instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// L1-D statistics.
    pub l1: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// DRAM traffic.
    pub dram: DramStats,
    /// Demand reads served.
    pub reads: u64,
    /// Demand writes served.
    pub writes: u64,
    /// TLB hits/misses.
    pub tlb_hits: u64,
    /// TLB misses.
    pub tlb_misses: u64,
    /// Per-(requester, serving level) read latency distributions.
    pub profile: ReadProfile,
    /// Snoop-bus coherence traffic. Always zero for a single-core
    /// [`MemSystem`]; the multicore hierarchy ([`SmpMem`](crate::SmpMem))
    /// reports per-core counters here.
    pub snoop: SnoopStats,
}

/// What happened to one demand read: when the data is usable, how long the
/// request waited for a free MSHR slot, and whether DRAM served it. The
/// core uses this to attribute a stalled load to MSHR pressure vs. DRAM
/// queueing vs. plain cache latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Cycle the data is usable (what [`MemPort::read`] returns).
    pub ready: u64,
    /// Cycles spent waiting for a free L1/L2 MSHR slot.
    pub mshr_wait: u64,
    /// `true` if the line came from DRAM.
    pub from_dram: bool,
    /// `true` if the line was forwarded cache-to-cache from a remote L1
    /// that held it dirty (MOESI owner forwarding). Never set by the
    /// single-core [`MemSystem`].
    pub from_snoop: bool,
}

/// The single-core memory hierarchy: a one-core [`SmpMem`] seen through
/// core 0.
///
/// With one core every snoop branch of [`SmpMem`] drops out (there is no
/// remote L1 to probe, invalidate or forward from), so this is the plain
/// L1 → L2 → DRAM hierarchy of Table I. All timing lives in [`SmpMem`];
/// requests go through the [`MemPort`] implementation below.
///
/// Timing is *analytic*: an access mutates cache/prefetcher/DRAM state and
/// returns the cycle its data is available; there is no global event queue.
/// Port contention is modelled where it matters for the paper's results —
/// DRAM channel occupancy and the L2 access ports.
#[derive(Debug, Clone)]
pub struct MemSystem(SmpMem);

impl MemSystem {
    /// Creates a hierarchy from the configuration.
    pub fn new(cfg: MemConfig) -> Self {
        Self(SmpMem::new(cfg, 1))
    }

    /// The configuration.
    pub fn config(&self) -> &MemConfig {
        self.0.config()
    }

    /// Access to the TLB (for fault injection and stream translation).
    pub fn tlb_mut(&mut self) -> &mut Tlb {
        self.0.tlb_mut(0)
    }

    /// Resets traffic statistics and time cursors while keeping cache,
    /// prefetcher and TLB *state* — the warm-measurement hook (see
    /// [`SmpMem::reset_stats`]).
    pub fn reset_stats(&mut self) {
        self.0.reset_stats();
    }
}

impl MemPort for MemSystem {
    fn translate(&mut self, vaddr: u64) -> Translation {
        self.0.translate(0, vaddr)
    }

    fn fault_transient(&mut self, line: u64, attempt: u32) -> bool {
        self.0.fault_transient(0, line, attempt)
    }

    fn fault_poisoned(&mut self, line: u64, attempt: u32, from_dram: bool, path: Path) -> bool {
        self.0.fault_poisoned(0, line, attempt, from_dram, path)
    }

    fn fault_backoff(&self, attempt: u32) -> u64 {
        self.0.fault_backoff(0, attempt)
    }

    fn fault_stats(&self) -> FaultStats {
        self.0.fault_stats(0)
    }

    fn read_explained(&mut self, addr: u64, pc: u64, now: u64, path: Path) -> ReadOutcome {
        self.0.read_explained(0, addr, pc, now, path)
    }

    fn write(&mut self, addr: u64, pc: u64, now: u64, path: Path) -> u64 {
        self.0.write(0, addr, pc, now, path)
    }

    fn write_full_line(&mut self, addr: u64, pc: u64, now: u64, path: Path) -> u64 {
        self.0.write_full_line(0, addr, pc, now, path)
    }

    fn stats(&self) -> MemStats {
        self.0.core_stats(0)
    }

    fn bus_utilization(&self, cycles: u64) -> f64 {
        self.0.bus_utilization(cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{ReqClass, ServedBy};

    fn no_pf_cfg() -> MemConfig {
        MemConfig {
            l1_prefetcher: false,
            l2_prefetcher: false,
            ..MemConfig::default()
        }
    }

    #[test]
    fn first_read_misses_everywhere() {
        let mut m = MemSystem::new(no_pf_cfg());
        let t = m.read(0x1000, 1, 0, Path::Normal);
        assert!(t >= m.config().dram.latency);
        // Second read: L1 hit.
        let t2 = m.read(0x1000, 1, t, Path::Normal);
        assert_eq!(t2, t + m.config().l1_latency);
    }

    #[test]
    fn l2_hit_after_l1_eviction_path() {
        let mut m = MemSystem::new(no_pf_cfg());
        m.read(0x1000, 1, 0, Path::StreamL2); // fills only L2
        let t = m.read(0x1000, 1, 1000, Path::Normal); // L1 miss, L2 hit
        assert!(t < 1000 + m.config().dram.latency);
        assert!(t >= 1000 + m.config().l2_latency);
    }

    #[test]
    fn stream_mem_does_not_pollute() {
        let mut m = MemSystem::new(no_pf_cfg());
        m.read(0x1000, 1, 0, Path::StreamMem);
        let s = m.stats();
        assert_eq!(s.l1.accesses(), 0);
        assert_eq!(s.l2.accesses(), 0);
        assert_eq!(s.dram.reads, 1);
    }

    #[test]
    fn stream_l2_skips_l1() {
        let mut m = MemSystem::new(no_pf_cfg());
        m.read(0x1000, 1, 0, Path::StreamL2);
        assert_eq!(m.stats().l1.accesses(), 0);
        assert_eq!(m.stats().l2.accesses(), 1);
    }

    #[test]
    fn stride_prefetcher_hides_latency() {
        let mut m = MemSystem::new(MemConfig {
            l2_prefetcher: false,
            ..MemConfig::default()
        });
        // Walk sequential lines from one PC; after training, later reads
        // should be L1 hits (possibly waiting on in-flight fills).
        let mut now = 0;
        for i in 0..64u64 {
            now = m.read(0x10_0000 + i * 64, 42, now, Path::Normal);
        }
        let s = m.stats();
        assert!(s.l1.prefetch_fills > 0);
        assert!(s.l1.hits > 0, "prefetches should convert misses to hits");
    }

    #[test]
    fn writes_count_traffic() {
        let mut m = MemSystem::new(no_pf_cfg());
        m.write(0x2000, 1, 0, Path::Normal);
        let s = m.stats();
        assert_eq!(s.writes, 1);
        // Write-allocate triggered a DRAM read of the line.
        assert_eq!(s.dram.reads, 1);
    }

    #[test]
    fn dirty_l2_eviction_writes_dram() {
        // Tiny L2 via custom config to force evictions.
        let cfg = MemConfig {
            l1_size: 1024,
            l1_ways: 2,
            l2_size: 2048,
            l2_ways: 2,
            l1_prefetcher: false,
            l2_prefetcher: false,
            ..MemConfig::default()
        };
        let mut m = MemSystem::new(cfg);
        let mut now = 0;
        // Dirty many L2 lines via StreamL2 writes, then stream more to evict.
        for i in 0..128u64 {
            now = m.write(i * 64, 1, now, Path::StreamL2);
        }
        assert!(m.stats().dram.writes > 0);
    }

    /// Every DRAM read must be attributed to exactly one `(class, Dram)`
    /// histogram, and every demand/stream read records exactly one sample.
    fn assert_profile_conserved(m: &MemSystem) {
        let s = m.stats();
        assert_eq!(s.profile.served_count(ServedBy::Dram), s.dram.reads);
        assert_eq!(
            s.profile.class_count(ReqClass::Demand) + s.profile.class_count(ReqClass::Stream),
            s.reads
        );
        for class in ReqClass::ALL {
            for served in ServedBy::ALL {
                let h = s.profile.get(class, served);
                assert_eq!(h.bucket_total(), h.count);
            }
        }
    }

    #[test]
    fn profile_accounts_every_dram_read() {
        let mut m = MemSystem::new(MemConfig::default()); // prefetchers on
        let mut now = 0;
        for i in 0..64u64 {
            now = m.read(0x10_0000 + i * 64, 42, now, Path::Normal);
            now = m.write(0x20_0000 + i * 64, 43, now, Path::Normal);
            m.read(0x30_0000 + i * 64, 44, now, Path::StreamL2);
            m.read(0x40_0000 + i * 64, 45, now, Path::StreamMem);
            m.write(0x50_0000 + i * 64, 46, now, Path::StreamL2);
        }
        assert_profile_conserved(&m);
        let s = m.stats();
        assert!(s.profile.get(ReqClass::Prefetch, ServedBy::Dram).count > 0);
        assert!(s.profile.class_count(ReqClass::WriteAlloc) > 0);
        assert!(s.profile.get(ReqClass::Stream, ServedBy::Dram).count >= 64);
    }

    #[test]
    fn reset_stats_zeroes_tlb_and_profile() {
        let mut m = MemSystem::new(no_pf_cfg());
        m.translate(0x1000);
        m.translate(0x1000);
        m.read(0x1000, 1, 0, Path::Normal);
        let s = m.stats();
        assert_eq!((s.tlb_hits, s.tlb_misses), (1, 1));
        assert!(s.profile.total_count() > 0);
        m.reset_stats();
        let s = m.stats();
        assert_eq!((s.tlb_hits, s.tlb_misses), (0, 0));
        assert_eq!(s.profile.total_count(), 0);
        // Warm state survives: the translation is still cached.
        m.translate(0x1000);
        assert_eq!((m.stats().tlb_hits, m.stats().tlb_misses), (1, 0));
    }

    #[test]
    fn injected_faults_are_deterministic_and_once_per_page() {
        let cfg = MemConfig {
            fault: Some(crate::FaultConfig {
                tlb_fault_rate: 2,
                ..crate::FaultConfig::hostile(11)
            }),
            ..no_pf_cfg()
        };
        let mut a = MemSystem::new(cfg.clone());
        let mut b = MemSystem::new(cfg);
        let pages: Vec<u64> = (0..64).collect();
        let fa: Vec<bool> = pages
            .iter()
            .map(|p| matches!(a.translate(p * 4096), Translation::Fault { .. }))
            .collect();
        let fb: Vec<bool> = pages
            .iter()
            .rev()
            .map(|p| matches!(b.translate(p * 4096), Translation::Fault { .. }))
            .collect();
        assert_eq!(fa, fb.into_iter().rev().collect::<Vec<_>>());
        assert!(fa.iter().any(|&x| x), "rate 2 over 64 pages must fire");
        // Second touch of every page succeeds — the fault was handled.
        for p in &pages {
            assert!(matches!(a.translate(p * 4096), Translation::Ok { .. }));
        }
        assert_eq!(
            a.fault_stats().injected_page_faults,
            fa.iter().filter(|&&x| x).count() as u64
        );
    }

    #[test]
    fn no_injector_means_no_faults() {
        let mut m = MemSystem::new(no_pf_cfg());
        assert!(!m.fault_transient(1, 0));
        assert!(!m.fault_poisoned(1, 0, true, Path::StreamL2));
        assert_eq!(m.fault_backoff(3), 0);
        assert_eq!(m.fault_stats(), crate::FaultStats::default());
    }

    #[test]
    fn translation_goes_through_tlb() {
        let mut m = MemSystem::new(no_pf_cfg());
        m.tlb_mut().mark_faulting(0x7000);
        assert!(matches!(
            m.translate(0x7004),
            Translation::Fault { page: 7 }
        ));
        assert!(matches!(m.translate(0x1000), Translation::Ok { .. }));
    }
}
