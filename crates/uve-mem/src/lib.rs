//! Memory subsystem for the UVE reproduction: functional memory plus the
//! timing models of Table I of *"Unlimited Vector Extension with Data
//! Streaming Support"* (ISCA 2021).
//!
//! Components:
//!
//! - [`Memory`]: sparse paged byte-addressable functional memory (also a
//!   [`uve_stream::StreamMemory`], so stream walkers can resolve indirect
//!   patterns against it);
//! - [`Cache`]: set-associative LRU cache with MOESI line states and
//!   prefetch-timeliness tracking;
//! - [`StridePrefetcher`] / [`AmpmPrefetcher`]: the baseline L1/L2
//!   prefetchers of Table I;
//! - [`Dram`]: dual-channel DDR3-1600 latency/bandwidth model, the source of
//!   the Fig. 8.D bus-utilization metric;
//! - [`Tlb`]: translation with page-fault injection (streams prefetch across
//!   page boundaries and flag faults for commit-time handling);
//! - [`FaultInjector`]: deterministic seeded fault injection (first-touch
//!   translation faults, transient request faults, poisoned responses with
//!   per-level odds and bounded retry), enabled via [`MemConfig::fault`];
//! - [`SmpMem`]: the composed hierarchy and its only timing code — N
//!   private L1-D + TLB + prefetcher slices over one shared L2/DRAM, with
//!   the paper's stream request paths ([`Path::StreamL1`],
//!   [`Path::StreamL2`], [`Path::StreamMem`]) and a [`SnoopBus`] that drives
//!   the MOESI `snoop_share`/`snoop_invalidate` hooks (cross-core
//!   invalidations, M/O owner forwarding, bus arbitration, per-core
//!   [`SnoopStats`]);
//! - [`MemSystem`]: the single-core hierarchy, a one-core [`SmpMem`] seen
//!   through core 0;
//! - [`MemPort`]: the access interface shared by [`MemSystem`] and one
//!   core's port into an [`SmpMem`] — the timing core and Streaming Engine
//!   are generic over it.
//!
//! The timing style is analytic: accesses mutate cache/DRAM state and return
//! a data-ready cycle, modelling the contention that matters for the paper's
//! experiments (DRAM channel occupancy, L2 port serialization) without a
//! global event queue. This substitution is documented in `DESIGN.md`.

#![warn(missing_docs)]

mod cache;
mod dram;
mod fault;
mod fnv;
mod hierarchy;
mod memory;
mod port;
mod prefetch;
mod profile;
mod smp;
mod tlb;

pub use cache::{Access, Cache, CacheStats, MoesiState, LINE_BYTES};
pub use dram::{Dram, DramConfig, DramStats};
pub use fault::{FaultConfig, FaultInjector, FaultLevel, FaultStats};
pub use fnv::{fnv1a, fnv1a_key, FNV_OFFSET, FNV_PRIME, KEY_PRIME};
pub use hierarchy::{MemConfig, MemStats, MemSystem, Path, ReadOutcome};
pub use memory::{Memory, PAGE_SIZE};
pub use port::MemPort;
pub use prefetch::{AmpmPrefetcher, PrefetchRequest, StridePrefetcher};
pub use profile::{LatencyHist, ReadProfile, ReqClass, ServedBy, LATENCY_BUCKETS};
pub use smp::{CoherenceViolation, SmpMem, SmpPort, SnoopBus, SnoopStats};
pub use tlb::{Tlb, Translation};
