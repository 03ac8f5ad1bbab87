//! Hierarchy-path tests: every request path of Sec. IV-A (normal, stream-L1,
//! stream-L2, stream-memory, full-line stores) and the contention mechanisms
//! (MSHRs, DRAM channels, warm re-measurement).

use uve_mem::{DramConfig, MemConfig, MemPort, MemSystem, Path, Translation};

fn quiet() -> MemConfig {
    MemConfig {
        l1_prefetcher: false,
        l2_prefetcher: false,
        ..MemConfig::default()
    }
}

#[test]
fn normal_path_fills_both_levels() {
    let mut m = MemSystem::new(quiet());
    m.read(0x4000, 1, 0, Path::Normal);
    // L1 hit on re-access.
    let t = m.read(0x4000, 1, 1000, Path::Normal);
    assert_eq!(t, 1000 + m.config().l1_latency);
    assert_eq!(m.stats().dram.reads, 1);
}

#[test]
fn stream_l1_path_allocates_in_l1() {
    let mut m = MemSystem::new(quiet());
    m.read(0x4000, 1, 0, Path::StreamL1);
    let t = m.read(0x4000, 1, 1000, Path::Normal);
    assert_eq!(t, 1000 + m.config().l1_latency);
}

#[test]
fn stream_l2_l1_miss_l2_hit_after() {
    let mut m = MemSystem::new(quiet());
    m.read(0x4000, 1, 0, Path::StreamL2);
    let s = m.stats();
    assert_eq!(s.l1.accesses(), 0);
    // A later normal access misses L1, hits L2.
    let t = m.read(0x4000, 1, 1000, Path::Normal);
    assert!(t < 1000 + m.config().dram.latency);
    assert!(t >= 1000 + m.config().l2_latency);
}

#[test]
fn full_line_store_avoids_allocate_read() {
    let mut m = MemSystem::new(quiet());
    m.write_full_line(0x8000, 1, 0, Path::StreamL2);
    assert_eq!(m.stats().dram.reads, 0, "no allocate-read for full lines");
    // A conventional write-allocate store does read.
    let mut m2 = MemSystem::new(quiet());
    m2.write(0x8000, 1, 0, Path::StreamL2);
    assert_eq!(m2.stats().dram.reads, 1);
}

#[test]
fn full_line_store_to_dram_is_posted() {
    let mut m = MemSystem::new(quiet());
    let t = m.write_full_line(0x8000, 1, 0, Path::StreamMem);
    assert_eq!(m.stats().dram.writes, 1);
    assert!(t < m.config().dram.latency, "posted, not a round trip");
}

#[test]
fn l1_mshrs_serialize_excess_misses() {
    let cfg = MemConfig {
        l1_mshrs: 2,
        ..quiet()
    };
    let mut m = MemSystem::new(cfg);
    // Four misses on distinct lines/channels issued the same cycle: the
    // 3rd and 4th wait for MSHR slots.
    let t1 = m.read(0x10000, 1, 0, Path::Normal);
    let t2 = m.read(0x10040, 1, 0, Path::Normal);
    let t3 = m.read(0x10080, 1, 0, Path::Normal);
    let t4 = m.read(0x100c0, 1, 0, Path::Normal);
    assert!(t3 >= t1.min(t2), "third miss waits for a slot");
    assert!(t4 > t1.min(t2));
}

#[test]
fn dram_channels_interleave_by_line() {
    let mut m = MemSystem::new(MemConfig {
        dram: DramConfig {
            channels: 2,
            ..DramConfig::default()
        },
        ..quiet()
    });
    // Even/odd lines map to different channels: same-cycle requests to
    // adjacent lines do not queue behind each other.
    let a = m.read(0, 1, 0, Path::StreamMem);
    let b = m.read(64, 1, 0, Path::StreamMem);
    assert_eq!(a, b);
    // Two requests on the same channel queue.
    let c = m.read(128, 1, 0, Path::StreamMem);
    assert!(c > a);
}

#[test]
fn reset_stats_keeps_cache_contents() {
    let mut m = MemSystem::new(quiet());
    m.read(0x4000, 1, 0, Path::Normal);
    m.reset_stats();
    assert_eq!(m.stats().dram.reads, 0);
    // Still a hit: contents survived.
    let t = m.read(0x4000, 1, 10, Path::Normal);
    assert_eq!(t, 10 + m.config().l1_latency);
    assert_eq!(m.stats().l1.hits, 1);
}

#[test]
fn bus_utilization_counts_reads_and_writes() {
    let mut m = MemSystem::new(quiet());
    for i in 0..8u64 {
        m.read(0x40000 + i * 64, 1, 0, Path::StreamMem);
        m.write_full_line(0x80000 + i * 64, 1, 0, Path::StreamMem);
    }
    let s = m.stats();
    assert_eq!(s.dram.read_bytes, 8 * 64);
    assert_eq!(s.dram.write_bytes, 8 * 64);
    assert!(m.bus_utilization(1000) > 0.0);
}

#[test]
fn translation_faults_are_page_granular() {
    let mut m = MemSystem::new(quiet());
    m.tlb_mut().mark_faulting(0x30_0000);
    assert!(matches!(m.translate(0x30_0ff8), Translation::Fault { .. }));
    assert!(matches!(m.translate(0x30_1000), Translation::Ok { .. }));
    m.tlb_mut().clear_fault(0x30_0000);
    assert!(matches!(m.translate(0x30_0ff8), Translation::Ok { .. }));
}

#[test]
fn prefetchers_only_train_on_demand_traffic() {
    // Stream-path reads must not trigger AMPM prefetch fills.
    let mut m = MemSystem::new(MemConfig {
        l1_prefetcher: false,
        l2_prefetcher: true,
        ..MemConfig::default()
    });
    let mut now = 0;
    for i in 0..32u64 {
        now = m.read(0x40000 + i * 64, 1, now, Path::StreamL2);
    }
    assert_eq!(m.stats().l2.prefetch_fills, 0);
    // The same sequence as demand traffic does train it.
    let mut m2 = MemSystem::new(MemConfig {
        l1_prefetcher: false,
        l2_prefetcher: true,
        ..MemConfig::default()
    });
    let mut now = 0;
    for i in 0..32u64 {
        now = m2.read(0x40000 + i * 64, 1, now, Path::Normal);
    }
    assert!(m2.stats().l2.prefetch_fills > 0);
}
