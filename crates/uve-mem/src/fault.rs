//! Deterministic, seeded fault injection for the memory hierarchy.
//!
//! The injector models three fault classes the paper's stream architecture
//! must survive (Sec. IV-A *Exception Handling*, Sec. V):
//!
//! - **translation faults**: a page's first stream touch raises a TLB
//!   fault (the arbiter flags the element; the core traps precisely at the
//!   first consuming instruction);
//! - **transient request faults**: a line request fails before issue
//!   (arbitration conflict, ECC scrub window) and must be retried after a
//!   backoff;
//! - **poisoned responses**: the data arrives but is marked bad by the
//!   serving level (L1/L2/DRAM each with their own odds) and must be
//!   refetched.
//!
//! Every decision is a pure hash of `(seed, fault class, line/page,
//! attempt)` — no RNG state — so outcomes are independent of request
//! order, clone-safe, and bit-reproducible from the seed alone. Retries
//! are *bounded*: once `attempt` reaches [`FaultConfig::max_retries`] the
//! injector forces success, so a fault can delay a stream but never
//! livelock it.

use std::collections::HashSet;

/// Fault-injection odds and retry policy. All rates are "1 in N" odds per
/// decision; a rate of 0 disables that fault class.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed of the decision hash; two runs with equal seeds inject
    /// identical fault schedules.
    pub seed: u64,
    /// 1-in-N odds a line request transiently fails before issue.
    pub transient_rate: u32,
    /// 1-in-N odds an L1-served response is poisoned.
    pub poison_l1_rate: u32,
    /// 1-in-N odds an L2-served response is poisoned.
    pub poison_l2_rate: u32,
    /// 1-in-N odds a DRAM-served response is poisoned.
    pub poison_dram_rate: u32,
    /// 1-in-N odds a page's *first* translation raises a fault (each page
    /// faults at most once; the handler maps it).
    pub tlb_fault_rate: u32,
    /// Attempts after which the injector forces success (bounded retry).
    pub max_retries: u32,
    /// Base backoff in cycles; attempt `k` waits `(k+1) * retry_backoff`.
    pub retry_backoff: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            transient_rate: 0,
            poison_l1_rate: 0,
            poison_l2_rate: 0,
            poison_dram_rate: 0,
            tlb_fault_rate: 0,
            max_retries: 4,
            retry_backoff: 16,
        }
    }
}

impl FaultConfig {
    /// A moderately hostile configuration for tests and fuzzing: every
    /// class enabled at odds that fire many times per kernel without
    /// dominating the run.
    pub fn hostile(seed: u64) -> Self {
        Self {
            seed,
            transient_rate: 64,
            poison_l1_rate: 256,
            poison_l2_rate: 128,
            poison_dram_rate: 64,
            tlb_fault_rate: 8,
            max_retries: 4,
            retry_backoff: 16,
        }
    }
}

/// Which level served a (potentially poisoned) response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultLevel {
    /// Served by the L1-D.
    L1,
    /// Served by the L2.
    L2,
    /// Served by DRAM.
    Dram,
}

/// Counters of injected faults (zeroed by `reset_stats`; the handled-page
/// set survives, mirroring an OS page table across measurement windows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient request faults injected.
    pub transient_faults: u64,
    /// Poisoned responses injected.
    pub poisoned_responses: u64,
    /// First-touch page faults injected.
    pub injected_page_faults: u64,
}

/// The seeded injector. Each core of an [`SmpMem`](crate::SmpMem) carries
/// one when [`MemConfig::fault`](crate::MemConfig) is set.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: FaultConfig,
    /// Pages whose injected fault has been handled (mapped); a page faults
    /// at most once regardless of traversal order.
    handled: HashSet<u64>,
    stats: FaultStats,
}

/// SplitMix64 finalizer — the decision hash.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl FaultInjector {
    /// An injector following `cfg`.
    pub fn new(cfg: FaultConfig) -> Self {
        Self {
            cfg,
            handled: HashSet::new(),
            stats: FaultStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Injected-fault counters.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Zeroes the counters but keeps the handled-page set (warm-run
    /// semantics: a handled page stays mapped across measurement passes).
    pub fn reset_stats(&mut self) {
        self.stats = FaultStats::default();
    }

    /// Pure decision: does fault class `domain` fire for `key` at retry
    /// `attempt`? Forces success once `attempt` reaches `max_retries`.
    fn roll(&self, domain: u64, key: u64, attempt: u32, rate: u32) -> bool {
        if rate == 0 || attempt >= self.cfg.max_retries {
            return false;
        }
        let h = mix(self
            .cfg
            .seed
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(domain)
            .wrapping_add(key.wrapping_mul(0xd1342543de82ef95))
            .wrapping_add(u64::from(attempt) << 56));
        h.is_multiple_of(u64::from(rate))
    }

    /// Does the request for `line` transiently fail at retry `attempt`?
    pub fn transient(&mut self, line: u64, attempt: u32) -> bool {
        let hit = self.roll(1, line, attempt, self.cfg.transient_rate);
        if hit {
            self.stats.transient_faults += 1;
        }
        hit
    }

    /// Is the response for `line`, served by `level`, poisoned at retry
    /// `attempt`?
    pub fn poisoned(&mut self, line: u64, attempt: u32, level: FaultLevel) -> bool {
        let rate = match level {
            FaultLevel::L1 => self.cfg.poison_l1_rate,
            FaultLevel::L2 => self.cfg.poison_l2_rate,
            FaultLevel::Dram => self.cfg.poison_dram_rate,
        };
        let hit = self.roll(2, line, attempt, rate);
        if hit {
            self.stats.poisoned_responses += 1;
        }
        hit
    }

    /// Does the first touch of `page` raise an injected translation fault?
    /// Marks the page handled, so it faults exactly once.
    pub fn page_fault_on_first_touch(&mut self, page: u64) -> bool {
        if self.cfg.tlb_fault_rate == 0 || self.handled.contains(&page) {
            return false;
        }
        self.handled.insert(page);
        let hit = self.roll(3, page, 0, self.cfg.tlb_fault_rate);
        if hit {
            self.stats.injected_page_faults += 1;
        }
        hit
    }

    /// Backoff in cycles before retry `attempt` (linear in the attempt).
    pub fn backoff(&self, attempt: u32) -> u64 {
        self.cfg
            .retry_backoff
            .saturating_mul(u64::from(attempt) + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_order_independent() {
        let cfg = FaultConfig::hostile(42);
        let mut a = FaultInjector::new(cfg.clone());
        let mut b = FaultInjector::new(cfg);
        let fwd: Vec<bool> = (0..4096).map(|l| a.transient(l, 0)).collect();
        let bwd: Vec<bool> = (0..4096).rev().map(|l| b.transient(l, 0)).collect();
        assert_eq!(fwd, bwd.into_iter().rev().collect::<Vec<_>>());
        assert!(fwd.iter().any(|&x| x), "rate 64 must fire over 4096 lines");
        assert!(!fwd.iter().all(|&x| x));
    }

    #[test]
    fn retries_are_bounded() {
        let cfg = FaultConfig {
            transient_rate: 1, // every roll fires…
            max_retries: 3,    // …until the bound forces success
            ..FaultConfig::hostile(7)
        };
        let mut f = FaultInjector::new(cfg);
        assert!(f.transient(10, 0));
        assert!(f.transient(10, 1));
        assert!(f.transient(10, 2));
        assert!(!f.transient(10, 3), "attempt == max_retries must succeed");
        assert_eq!(f.stats().transient_faults, 3);
    }

    #[test]
    fn pages_fault_at_most_once() {
        let cfg = FaultConfig {
            tlb_fault_rate: 1,
            ..FaultConfig::hostile(9)
        };
        let mut f = FaultInjector::new(cfg);
        assert!(f.page_fault_on_first_touch(5));
        assert!(!f.page_fault_on_first_touch(5), "handled pages stay mapped");
        assert_eq!(f.stats().injected_page_faults, 1);
        // reset_stats keeps the handled set (warm-run semantics).
        f.reset_stats();
        assert!(!f.page_fault_on_first_touch(5));
        assert_eq!(f.stats().injected_page_faults, 0);
    }

    #[test]
    fn backoff_grows_with_attempts() {
        let f = FaultInjector::new(FaultConfig::hostile(1));
        assert!(f.backoff(0) > 0);
        assert!(f.backoff(3) > f.backoff(0));
    }

    #[test]
    fn zero_rates_never_fire() {
        let mut f = FaultInjector::new(FaultConfig::default());
        assert!((0..1000).all(|l| !f.transient(l, 0)));
        assert!((0..1000).all(|p| !f.page_fault_on_first_touch(p)));
        assert!((0..1000).all(|l| !f.poisoned(l, 0, FaultLevel::Dram)));
    }
}
