//! Hardware prefetchers: a PC-indexed stride prefetcher (L1-D) and an
//! Access-Map Pattern-Matching (AMPM) prefetcher (L2), matching the baseline
//! configuration of Table I.

use crate::int_hash::IntMap;

/// A prefetch suggestion: a line address to bring into the cache.
pub type PrefetchRequest = u64;

/// Per-PC stride detector driving the L1-D prefetcher.
///
/// Classic RPT-style design: each load PC tracks its last address and
/// stride; after two confirmations, lines up to `depth` strides ahead are
/// prefetched.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    depth: usize,
    table: IntMap<StrideEntry>,
    capacity: usize,
    issued: u64,
}

#[derive(Debug, Clone, Copy)]
struct StrideEntry {
    last_addr: u64,
    stride: i64,
    confidence: u8,
    next_degree: usize,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher of the given lookahead `depth` (Table I:
    /// 16) and table `capacity` entries.
    pub fn new(depth: usize, capacity: usize) -> Self {
        Self {
            depth,
            table: IntMap::default(),
            capacity,
            issued: 0,
        }
    }

    /// Number of prefetch requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Observes a demand access from load/store `pc` to byte address `addr`
    /// and returns the line addresses to prefetch.
    pub fn observe(&mut self, pc: u64, addr: u64) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        match self.table.get_mut(&pc) {
            Some(e) => {
                let stride = addr as i64 - e.last_addr as i64;
                if stride == e.stride && stride != 0 {
                    if e.confidence < 1 {
                        e.confidence += 1;
                    }
                    if e.confidence >= 1 {
                        // Sliding lookahead: ramp the prefetch distance up
                        // to `depth` strides, issuing at most two new lines
                        // per access (real prefetchers do not flood their
                        // whole window on every trigger).
                        let degree = e.next_degree.min(self.depth);
                        let base = addr as i64;
                        let mut last_line = u64::MAX;
                        for k in [degree.saturating_sub(1).max(1), degree] {
                            let target = base + stride * k as i64;
                            if target < 0 {
                                continue;
                            }
                            let line = target as u64 / crate::cache::LINE_BYTES;
                            if line != last_line {
                                out.push(line);
                                last_line = line;
                            }
                        }
                        e.next_degree = (e.next_degree + 2).min(self.depth);
                    }
                } else {
                    e.stride = stride;
                    e.confidence = 0;
                    e.next_degree = 2;
                }
                e.last_addr = addr;
            }
            None => {
                if self.table.len() >= self.capacity {
                    // Cheap pseudo-random replacement: drop an arbitrary
                    // entry (the first in iteration order, which the
                    // deterministic hasher makes the same in every run).
                    if let Some(&k) = self.table.keys().next() {
                        self.table.remove(&k);
                    }
                }
                self.table.insert(
                    pc,
                    StrideEntry {
                        last_addr: addr,
                        stride: 0,
                        confidence: 0,
                        next_degree: 2,
                    },
                );
            }
        }
        self.issued += out.len() as u64;
        out
    }
}

/// Access-Map Pattern-Matching prefetcher (Ishii et al., ICS'09), the L2
/// prefetcher of Table I.
///
/// Memory is divided into zones (here 4 KiB); each zone keeps a bitmap of
/// recently accessed lines. On each access, candidate offsets `±d` are
/// prefetched when the two preceding accesses at the same spacing
/// (`addr - d`, `addr - 2d`) are present in the map — the AMPM pattern
/// match.
#[derive(Debug, Clone)]
pub struct AmpmPrefetcher {
    zone_lines: usize,
    zones: IntMap<u64>,
    /// Lines already requested by the prefetcher (the real AMPM's
    /// per-line *prefetch* state): excluded as candidates so the prefetch
    /// distance ramps forward instead of re-targeting the same offsets.
    pf_zones: IntMap<u64>,
    zone_queue: Vec<u64>,
    max_zones: usize,
    degree: usize,
    issued: u64,
}

impl AmpmPrefetcher {
    /// Creates an AMPM prefetcher tracking up to `max_zones` 4 KiB zones and
    /// issuing at most `degree` prefetches per access.
    pub fn new(max_zones: usize, degree: usize) -> Self {
        Self {
            zone_lines: (4096 / crate::cache::LINE_BYTES) as usize,
            zones: IntMap::default(),
            pf_zones: IntMap::default(),
            zone_queue: Vec::new(),
            max_zones,
            degree,
            issued: 0,
        }
    }

    /// Number of prefetch requests issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    fn bit(&self, line: u64) -> (u64, u32) {
        let zone = line / self.zone_lines as u64;
        let bit = (line % self.zone_lines as u64) as u32;
        (zone, bit)
    }

    fn mark_prefetched(&mut self, line: u64) {
        let (zone, bit) = self.bit(line);
        *self.pf_zones.entry(zone).or_insert(0) |= 1 << bit;
    }

    /// Observes a demand access to `line` (line address) and returns lines
    /// to prefetch.
    pub fn observe(&mut self, line: u64) -> Vec<PrefetchRequest> {
        self.record(line);
        let out = self.pattern_match(line);
        for &line in &out {
            self.mark_prefetched(line);
        }
        self.issued += out.len() as u64;
        out
    }

    /// Sets `line`'s bit in the access map, evicting the oldest zone when
    /// a new one would exceed `max_zones`.
    fn record(&mut self, line: u64) {
        let (zone, bit) = self.bit(line);
        if self.zones.len() >= self.max_zones && !self.zones.contains_key(&zone) {
            let victim = self.zone_queue.remove(0);
            self.zones.remove(&victim);
            self.pf_zones.remove(&victim);
        }
        let entry = self.zones.entry(zone).or_insert_with(|| {
            self.zone_queue.push(zone);
            0
        });
        *entry |= 1 << bit;
    }

    /// The AMPM pattern match: for each candidate spacing `d`, require
    /// `line-d` and `line-2d` accessed, then prefetch `line+d` (and the
    /// mirror image backwards). Every line it tests lies within one zone of
    /// `line`, so it reads the previous, current and next zone of both maps
    /// once and tests bits from there.
    fn pattern_match(&self, line: u64) -> Vec<PrefetchRequest> {
        let (zone, bit) = self.bit(line);
        let zone_lines = self.zone_lines as i64;
        // Zone -1 does not exist: its lines, all negative, are never set.
        let window = |map: &IntMap<u64>| {
            let word = |z: Option<u64>| z.and_then(|z| map.get(&z)).copied().unwrap_or(0);
            [
                word(zone.checked_sub(1)),
                word(Some(zone)),
                word(Some(zone + 1)),
            ]
        };
        let (seen, pf) = (window(&self.zones), window(&self.pf_zones));
        // Whether the line `delta` lines from `line` (|delta| <= one zone)
        // is set in `words`.
        let test = |words: &[u64; 3], delta: i64| {
            let i = zone_lines + i64::from(bit) + delta;
            words[(i / zone_lines) as usize] >> (i % zone_lines) & 1 != 0
        };
        let mut out = Vec::new();
        let l = line as i64;
        for d in 1..=zone_lines / 2 {
            if out.len() >= self.degree {
                break;
            }
            if test(&seen, -d) && test(&seen, -2 * d) && !test(&seen, d) && !test(&pf, d) {
                out.push((l + d) as u64);
            }
            if out.len() >= self.degree {
                break;
            }
            if test(&seen, d)
                && test(&seen, 2 * d)
                && !test(&seen, -d)
                && !test(&pf, -d)
                && l - d >= 0
            {
                out.push((l - d) as u64);
            }
        }
        out
    }

    /// The pattern match probing both maps line by line: the reference
    /// [`AmpmPrefetcher::pattern_match`] is tested against.
    #[cfg(test)]
    fn pattern_match_by_probe(&self, line: u64) -> Vec<PrefetchRequest> {
        let probe = |map: &IntMap<u64>, line: i64| {
            if line < 0 {
                return false;
            }
            let (zone, bit) = self.bit(line as u64);
            map.get(&zone).is_some_and(|m| m & (1 << bit) != 0)
        };
        let is_set = |line| probe(&self.zones, line);
        let is_prefetched = |line| probe(&self.pf_zones, line);
        let mut out = Vec::new();
        let l = line as i64;
        for d in 1..=self.zone_lines as i64 / 2 {
            if out.len() >= self.degree {
                break;
            }
            if is_set(l - d) && is_set(l - 2 * d) && !is_set(l + d) && !is_prefetched(l + d) {
                out.push((l + d) as u64);
            }
            if out.len() >= self.degree {
                break;
            }
            if is_set(l + d)
                && is_set(l + 2 * d)
                && !is_set(l - d)
                && !is_prefetched(l - d)
                && l - d >= 0
            {
                out.push((l - d) as u64);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_detects_after_confirmation() {
        let mut p = StridePrefetcher::new(16, 64);
        assert!(p.observe(100, 0x1000).is_empty());
        assert!(p.observe(100, 0x1040).is_empty()); // stride learned
        let reqs = p.observe(100, 0x1080); // confirmed → prefetch ahead
        assert!(!reqs.is_empty());
        assert_eq!(reqs[0], (0x1080 + 0x40) / 64);
    }

    #[test]
    fn stride_resets_on_change() {
        let mut p = StridePrefetcher::new(16, 64);
        p.observe(1, 0);
        p.observe(1, 64);
        assert!(!p.observe(1, 128).is_empty());
        assert!(p.observe(1, 1024).is_empty()); // stride broke
        assert!(p.observe(1, 1024 + 64).is_empty()); // re-learning (stride changed)
    }

    #[test]
    fn stride_ramps_lookahead_to_depth() {
        let mut p = StridePrefetcher::new(8, 64);
        p.observe(1, 0);
        for i in 1..20 {
            p.observe(1, i * 64);
        }
        let reqs = p.observe(1, 20 * 64);
        // At most two requests per access, with the farthest at `depth`
        // strides of lookahead.
        assert!(reqs.len() <= 2, "{reqs:?}");
        assert_eq!(
            *reqs.last().expect("prefetcher must have issued requests"),
            (20 + 8) * 64 / 64
        );
    }

    #[test]
    fn stride_table_capacity_bounded() {
        let mut p = StridePrefetcher::new(4, 4);
        for pc in 0..100 {
            p.observe(pc, pc * 4096);
        }
        assert!(p.table.len() <= 4);
    }

    #[test]
    fn ampm_matches_linear_pattern() {
        let mut p = AmpmPrefetcher::new(8, 4);
        assert!(p.observe(10).is_empty());
        assert!(!p.observe(11).is_empty() || !p.observe(12).is_empty());
        let reqs = p.observe(13);
        assert!(reqs.contains(&14), "{reqs:?}");
    }

    #[test]
    fn ampm_matches_strided_pattern() {
        let mut p = AmpmPrefetcher::new(8, 4);
        p.observe(0);
        p.observe(3);
        let reqs = p.observe(6);
        assert!(reqs.contains(&9), "{reqs:?}");
    }

    #[test]
    fn ampm_zone_capacity_bounded() {
        let mut p = AmpmPrefetcher::new(2, 4);
        p.observe(0);
        p.observe(64); // zone 1
        p.observe(128); // zone 2 → evicts zone 0
        assert!(p.zones.len() <= 2);
    }

    #[test]
    fn ampm_respects_degree() {
        let mut p = AmpmPrefetcher::new(8, 1);
        for l in 0..6 {
            p.observe(l);
        }
        assert!(p.observe(6).len() <= 1);
    }

    /// xorshift64: a fixed, dependency-free random stream.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn ampm_window_match_equals_probe_by_probe_match() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..200 {
            // Few zones near line 0 (so patterns repeat, cross zone edges
            // and reach below line 0), few tracked zones (so they evict).
            let max_zones = 1 + (next(&mut rng) % 4) as usize;
            let degree = 1 + (next(&mut rng) % 8) as usize;
            let mut p = AmpmPrefetcher::new(max_zones, degree);
            let mut line = next(&mut rng) % 320;
            for _ in 0..300 {
                let r = next(&mut rng);
                line = match r % 4 {
                    0 => r / 4 % 320,
                    1 => line.saturating_sub(1 + r / 4 % 8),
                    _ => line + 1 + r / 4 % 8,
                } % 320;
                let mut reference = p.clone();
                reference.record(line);
                let want = reference.pattern_match_by_probe(line);
                assert_eq!(p.observe(line), want, "line {line}");
            }
        }
    }

    #[test]
    fn stride_eviction_is_the_same_in_every_prefetcher() {
        // 80 PCs cycling through a 64-entry table: each miss evicts, and
        // which PCs survive to confirm their stride decides what issues.
        let run = || {
            let mut p = StridePrefetcher::new(16, 64);
            let mut rng = 12345u64;
            let mut issued = Vec::new();
            for round in 0..20u64 {
                for pc in 0..80u64 {
                    let jitter = next(&mut rng) % 3;
                    issued.push(p.observe(pc, (pc << 20) + (round + jitter) * 64));
                }
            }
            issued
        };
        let first = run();
        assert!(first.iter().any(|r| !r.is_empty()), "some PC confirmed");
        assert_eq!(first, run());
    }
}
