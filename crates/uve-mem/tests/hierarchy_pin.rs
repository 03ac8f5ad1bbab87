//! Pins the single-core hierarchy's behaviour bit for bit.
//!
//! A seeded random sequence drives one `MemSystem` through every request
//! kind (`read_explained`, `write`, `write_full_line`, `translate`) on all
//! four paths, with both prefetchers on, MSHR pressure (two L1 MSHRs),
//! small caches that evict often, and a hostile fault injector that is
//! queried along the way. Stats are reset once part-way through, as a warm
//! replay does. Every outcome, the final `MemStats` and the final
//! `FaultStats` fold into an FNV-1a digest of explicit little-endian bytes.
//!
//! A drift here means single-core memory timing changed: either the change
//! is a model change (bump `MODEL_EPOCH` and re-pin, saying why), or it is
//! the regression this test exists to catch.

use uve_mem::{
    fnv1a, FaultConfig, FaultStats, LatencyHist, MemConfig, MemPort, MemStats, MemSystem, Path,
    ReqClass, ServedBy, Translation, FNV_OFFSET,
};

/// SplitMix64: a self-contained generator, so the sequence never depends
/// on another crate's RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const PATHS: [Path; 4] = [
    Path::Normal,
    Path::StreamL1,
    Path::StreamL2,
    Path::StreamMem,
];

fn fold(h: u64, v: u64) -> u64 {
    fnv1a(h, &v.to_le_bytes())
}

fn fold_cache(h: u64, c: &uve_mem::CacheStats) -> u64 {
    [
        c.hits,
        c.misses,
        c.prefetch_fills,
        c.prefetch_useful,
        c.writebacks,
    ]
    .into_iter()
    .fold(h, fold)
}

fn fold_hist(h: u64, l: &LatencyHist) -> u64 {
    [l.count, l.total_cycles, l.max_cycles]
        .into_iter()
        .chain(l.buckets)
        .fold(h, fold)
}

fn fold_mem_stats(mut h: u64, s: &MemStats) -> u64 {
    h = fold_cache(h, &s.l1);
    h = fold_cache(h, &s.l2);
    h = [
        s.dram.read_bytes,
        s.dram.write_bytes,
        s.dram.reads,
        s.dram.writes,
        s.reads,
        s.writes,
        s.tlb_hits,
        s.tlb_misses,
    ]
    .into_iter()
    .fold(h, fold);
    for class in ReqClass::ALL {
        for served in ServedBy::ALL {
            h = fold_hist(h, s.profile.get(class, served));
        }
    }
    let n = &s.snoop;
    [
        n.bus_transactions,
        n.snoops_received,
        n.invalidations,
        n.downgrades,
        n.owner_forwards,
        n.dirty_writebacks,
    ]
    .into_iter()
    .fold(h, fold)
}

fn fold_fault_stats(h: u64, f: &FaultStats) -> u64 {
    [
        f.transient_faults,
        f.poisoned_responses,
        f.injected_page_faults,
    ]
    .into_iter()
    .fold(h, fold)
}

fn config() -> MemConfig {
    MemConfig {
        l1_size: 8 * 1024,
        l1_ways: 2,
        l2_size: 32 * 1024,
        l2_ways: 4,
        l1_prefetcher: true,
        l2_prefetcher: true,
        l1_mshrs: 2,
        fault: Some(FaultConfig {
            tlb_fault_rate: 4,
            ..FaultConfig::hostile(0x5EED)
        }),
        ..MemConfig::default()
    }
}

/// Runs the pinned sequence and returns its digest, final statistics and
/// the number of reads that waited for an MSHR.
fn run() -> (u64, MemStats, FaultStats, u64) {
    const STEPS: u64 = 6000;
    let mut m = MemSystem::new(config());
    let mut rng = Rng(0x00C0_FFEE);
    let mut h = FNV_OFFSET;
    let mut now = 0u64;
    let mut mshr_waits = 0u64;
    // Four sequential walkers (pcs 0-3) train the stride prefetcher; the
    // rest of the traffic (pcs 4-7) is scattered over 1 MiB.
    let mut walkers = [0x10_0000u64, 0x20_0000, 0x30_0000, 0x40_0000];
    for step in 0..STEPS {
        if step == STEPS / 2 {
            m.reset_stats();
            now = 0;
        }
        let path = PATHS[rng.below(4) as usize];
        let walker = rng.below(4);
        let (pc, addr) = if rng.below(2) == 0 {
            let w = &mut walkers[walker as usize];
            *w += 64;
            (walker, *w)
        } else {
            (4 + walker, 0x80_0000 + rng.below(1 << 20))
        };
        let line = addr / 64;
        let op = rng.below(10);
        h = fold(h, op);
        match op {
            0..=3 => {
                let r = m.read_explained(addr, pc, now, path);
                mshr_waits += u64::from(r.mshr_wait > 0);
                h = [
                    r.ready,
                    r.mshr_wait,
                    u64::from(r.from_dram),
                    u64::from(r.from_snoop),
                ]
                .into_iter()
                .fold(h, fold);
                let attempt = rng.below(6) as u32;
                h = fold(
                    h,
                    u64::from(m.fault_poisoned(line, attempt, r.from_dram, path)),
                );
                if rng.below(3) == 0 {
                    now = now.max(r.ready);
                }
            }
            4 | 5 => {
                let t = m.write(addr, pc, now, path);
                h = fold(h, t);
            }
            6 => {
                let t = m.write_full_line(addr, pc, now, path);
                h = fold(h, t);
            }
            7 => {
                h = match m.translate(addr) {
                    Translation::Ok {
                        paddr,
                        extra_cycles,
                    } => fold(fold(fold(h, 0), paddr), extra_cycles),
                    Translation::Fault { page } => fold(fold(h, 1), page),
                };
            }
            8 => {
                let attempt = rng.below(6) as u32;
                h = fold(h, u64::from(m.fault_transient(line, attempt)));
                h = fold(h, m.fault_backoff(attempt));
            }
            _ => {
                let attempt = rng.below(6) as u32;
                let from_dram = rng.below(2) == 0;
                h = fold(
                    h,
                    u64::from(m.fault_poisoned(line, attempt, from_dram, path)),
                );
            }
        }
        now += rng.below(8);
    }
    let stats = m.stats();
    let faults = m.fault_stats();
    h = fold_mem_stats(h, &stats);
    h = fold_fault_stats(h, &faults);
    h = fold(h, m.bus_utilization(now.max(1)).to_bits());
    (h, stats, faults, mshr_waits)
}

#[test]
fn single_core_hierarchy_is_pinned() {
    let (digest, stats, faults, mshr_waits) = run();
    // The sequence must actually reach what it claims to cover.
    assert!(mshr_waits > 0, "no read waited for an MSHR");
    assert!(stats.l1.prefetch_fills > 0, "stride prefetcher never fired");
    assert!(stats.l2.prefetch_fills > 0, "AMPM prefetcher never fired");
    assert!(stats.l1.writebacks > 0 && stats.l2.writebacks > 0);
    assert!(stats.profile.class_count(ReqClass::WriteAlloc) > 0);
    assert!(stats.profile.served_count(ServedBy::Dram) > 0);
    assert!(faults.transient_faults > 0);
    assert!(faults.poisoned_responses > 0);
    assert!(faults.injected_page_faults > 0);
    assert_eq!(
        format!("{digest:016x}"),
        "3c6dee3c45455b78",
        "single-core hierarchy drifted"
    );
}
