//! Conformance fuzzing of the distributed sweep service's pure core: the
//! wire protocol and the merge assembly.
//!
//! The sweep service's determinism contract ("merged output bit-identical
//! to a serial run, whatever the interleaving") rests on two pure layers
//! this engine hammers without any sockets or emulation:
//!
//! 1. **Codec fixpoint** — a random [`Msg`] (random specs, points, rows,
//!    stats, hostile strings) must survive encode→decode→re-encode with
//!    the decoded value equal to the original and the re-encoded bytes
//!    byte-identical.
//! 2. **Decode totality** — every strict prefix of a valid frame must
//!    decode to an error (never panic, never succeed), and frames with a
//!    randomly flipped byte or outright random bytes must decode to
//!    *something* (`Ok` or `Err`) without panicking or tripping the
//!    oversized-allocation guards.
//! 3. **Merge determinism** — a random small grid is planned through
//!    [`Assembly`], synthetic rows are offered once in submission order
//!    and once in a seed-shuffled order, and the merged outputs (and
//!    their [`rows_digest`]) must be identical, with every
//!    duplicate-key slot filled by the single shared job.
//! 4. **Cache-file totality** — random row sets must round-trip through
//!    the durable cache's WAL/snapshot image codec
//!    ([`uve_sweep::wal`]) bit-identically, and hostile images —
//!    truncations, bit flips, random garbage — must load partially or
//!    report a typed error, never panic and never invent rows that were
//!    not written.

use crate::rng::FuzzRng;
use crate::Engine;
use uve_core::{ExecMode, IndirectPacking};
use uve_isa::MemLevel;
use uve_kernels::Flavor;
use uve_sweep::messages::Reader;
use uve_sweep::wal::{decode_image, encode_image, SNAP_MAGIC, WAL_MAGIC};
use uve_sweep::{catalog, rows_digest, Assembly, Msg, PointRow, PointSpec, SweepSpec, SweepStats};

/// One fuzz case: a message seed (the message is re-derived in `check` so
/// the case stays tiny and shrinkable), a corruption-probe budget, an
/// optional merge-determinism grid, and an optional cache-image sub-case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepCase {
    /// Seed deriving the random message under test.
    pub msg_seed: u64,
    /// Corrupt-frame probes (bit flips + random garbage frames).
    pub probes: u32,
    /// Merge-determinism sub-case (`None` skips it).
    pub merge: Option<MergeCase>,
    /// Cache-image round-trip/corruption sub-case (`None` skips it).
    pub cache: Option<CacheCase>,
}

/// A random cache image: row count, hostile probes, derivation seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCase {
    /// Rows in the image (0..=4).
    pub rows: u8,
    /// Truncation/bit-flip/garbage probes per magic.
    pub probes: u8,
    /// Seed deriving rows, cut points, and flip positions.
    pub seed: u64,
}

/// A small random grid plus the shuffle seed for the out-of-order merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergeCase {
    /// Catalog kernels to include (1..=3, first may be duplicated to
    /// exercise key-collapsed slots).
    pub kernels: u8,
    /// Duplicate the first kernel, creating two slots per job key.
    pub dup_kernel: bool,
    /// Flavors to include (1..=2).
    pub flavors: u8,
    /// Fault seeds to include (1..=2).
    pub fault_seeds: u8,
    /// Seed of the completion-order shuffle.
    pub shuffle_seed: u64,
}

// --- random message construction ---------------------------------------

fn rand_string(rng: &mut FuzzRng) -> String {
    let len = rng.range_usize(0, 12);
    (0..len)
        .map(|_| {
            // Mostly ASCII, sometimes multi-byte, to stress UTF-8 framing.
            if rng.chance(1, 8) {
                *rng.pick(&['λ', 'Ω', '→', '愛', '\u{1F980}'])
            } else {
                (b' ' + (rng.below(95) as u8)) as char
            }
        })
        .collect()
}

fn rand_flavor(rng: &mut FuzzRng) -> Flavor {
    *rng.pick(&[Flavor::Uve, Flavor::Sve, Flavor::Neon, Flavor::Scalar])
}

fn rand_level(rng: &mut FuzzRng) -> MemLevel {
    *rng.pick(&[MemLevel::L1, MemLevel::L2, MemLevel::Mem])
}

fn rand_packing(rng: &mut FuzzRng) -> IndirectPacking {
    *rng.pick(&[IndirectPacking::Packed, IndirectPacking::Unpacked])
}

fn rand_point(rng: &mut FuzzRng) -> PointSpec {
    PointSpec {
        small: rng.bool(),
        kernel: rand_string(rng),
        flavor: rand_flavor(rng),
        level: rand_level(rng),
        packing: rand_packing(rng),
        exec: ExecMode::Interpret,
        fault_seed: rng.u64(),
        cores: rng.u64() as u32,
        vec_prf: rng.u64() as u32,
        fifo_depth: rng.u64() as u32,
    }
}

fn rand_row(rng: &mut FuzzRng) -> PointRow {
    PointRow {
        point: rand_point(rng),
        cycles: rng.u64(),
        committed: rng.u64(),
        rename_blocked: rng.u64(),
        // Arbitrary bit patterns, including NaN payloads, must survive the
        // wire — utilization travels as raw IEEE-754 bits.
        bus_util_bits: rng.u64(),
        digest: rng.u64(),
    }
}

fn rand_spec(rng: &mut FuzzRng) -> SweepSpec {
    let mut spec = SweepSpec {
        small: rng.bool(),
        ..SweepSpec::default()
    };
    for _ in 0..rng.range_usize(0, 3) {
        spec.kernels.push(rand_string(rng));
    }
    for _ in 0..rng.range_usize(0, 3) {
        spec.flavors.push(rand_flavor(rng));
    }
    for _ in 0..rng.range_usize(0, 2) {
        spec.levels.push(rand_level(rng));
    }
    for _ in 0..rng.range_usize(0, 2) {
        spec.packings.push(rand_packing(rng));
    }
    for _ in 0..rng.range_usize(0, 3) {
        spec.fault_seeds.push(rng.u64());
    }
    for _ in 0..rng.range_usize(0, 3) {
        spec.cores.push(rng.u64() as u32);
    }
    for _ in 0..rng.range_usize(0, 2) {
        spec.vec_prfs.push(rng.u64() as u32);
    }
    for _ in 0..rng.range_usize(0, 2) {
        spec.fifo_depths.push(rng.u64() as u32);
    }
    spec
}

fn rand_stats(rng: &mut FuzzRng) -> SweepStats {
    SweepStats {
        total: rng.u64() as u32,
        cached: rng.u64() as u32,
        joined: rng.u64() as u32,
        executed: rng.u64() as u32,
        retries: rng.u64() as u32,
        worker_deaths: rng.u64() as u32,
        emulations: rng.u64(),
    }
}

/// A random protocol message covering every variant.
pub fn random_msg(rng: &mut FuzzRng) -> Msg {
    match rng.below(14) {
        0 => Msg::ClientHello {
            version: rng.u64() as u32,
        },
        1 => Msg::WorkerHello {
            version: rng.u64() as u32,
            name: rand_string(rng),
        },
        2 => Msg::SweepRequest {
            spec: rand_spec(rng),
        },
        3 => Msg::Progress {
            done: rng.u64() as u32,
            total: rng.u64() as u32,
            cached: rng.u64() as u32,
        },
        4 => {
            let rows = (0..rng.range_usize(0, 4)).map(|_| rand_row(rng)).collect();
            Msg::SweepDone {
                rows,
                stats: rand_stats(rng),
            }
        }
        5 => Msg::Error {
            message: rand_string(rng),
        },
        6 => Msg::RunJob {
            job: rng.u64(),
            point: rand_point(rng),
        },
        7 => Msg::JobOk {
            job: rng.u64(),
            row: rand_row(rng),
            emulations: rng.u64() as u32,
        },
        8 => Msg::JobErr {
            job: rng.u64(),
            message: rand_string(rng),
        },
        9 => Msg::Ping,
        10 => Msg::Pong,
        11 => Msg::Shutdown,
        12 => Msg::Unavailable {
            message: rand_string(rng),
        },
        _ => Msg::Heartbeat { job: rng.u64() },
    }
}

// --- checks ------------------------------------------------------------

fn check_fixpoint(msg: &Msg) -> Result<Vec<u8>, String> {
    let bytes = msg.encode();
    let decoded = Msg::decode(&bytes).map_err(|e| format!("decode of valid frame: {e}"))?;
    if decoded != *msg {
        return Err(format!(
            "decode round trip changed the message:\n  sent {msg:?}\n  got  {decoded:?}"
        ));
    }
    let re = decoded.encode();
    if re != bytes {
        return Err(format!(
            "re-encode is not a fixpoint: {} bytes vs {} bytes",
            bytes.len(),
            re.len()
        ));
    }
    Ok(bytes)
}

fn check_hostile_decodes(bytes: &[u8], probes: u32, rng: &mut FuzzRng) -> Result<(), String> {
    // Every strict prefix must fail (all fields are mandatory, so a
    // truncated frame can never parse), and must fail gracefully.
    for len in 0..bytes.len() {
        if Msg::decode(&bytes[..len]).is_ok() {
            return Err(format!(
                "strict prefix of length {len}/{} decoded successfully",
                bytes.len()
            ));
        }
    }
    for _ in 0..probes {
        // Bit flip somewhere in the frame: must return, never panic.
        if !bytes.is_empty() {
            let mut bad = bytes.to_vec();
            let at = rng.below(bad.len() as u64) as usize;
            bad[at] ^= 1 << rng.below(8);
            let _ = Msg::decode(&bad);
        }
        // Random garbage frame of modest length: same bar.
        let garbage: Vec<u8> = (0..rng.range_usize(0, 64))
            .map(|_| rng.u64() as u8)
            .collect();
        let _ = Msg::decode(&garbage);
    }
    // Field-level reader totality on the same hostile bytes.
    let mut r = Reader::new(bytes);
    while r.u8().is_ok() {}
    Ok(())
}

fn merge_spec(mc: &MergeCase) -> SweepSpec {
    let cat = catalog(true);
    let mut kernels: Vec<String> = cat
        .iter()
        .take(mc.kernels.clamp(1, 3) as usize)
        .map(|b| b.name().to_string())
        .collect();
    if mc.dup_kernel {
        kernels.push(kernels[0].clone());
    }
    SweepSpec {
        small: true,
        kernels,
        flavors: [Flavor::Uve, Flavor::Scalar][..mc.flavors.clamp(1, 2) as usize].to_vec(),
        fault_seeds: (0..u64::from(mc.fault_seeds.clamp(1, 2))).collect(),
        ..SweepSpec::default()
    }
}

fn check_merge(mc: &MergeCase) -> Result<(), String> {
    let spec = merge_spec(mc);
    let mut in_order = Assembly::new(&spec).map_err(|e| format!("plan: {e}"))?;
    let mut shuffled = Assembly::new(&spec).map_err(|e| format!("plan: {e}"))?;

    // Synthetic rows, one per *distinct* job key (exactly what the
    // coordinator's cache guarantees: one row per key, however many slots
    // want it).
    let mut rng = FuzzRng::new(mc.shuffle_seed);
    let mut jobs: Vec<(u64, PointRow)> = Vec::new();
    for (i, &key) in in_order.keys().iter().enumerate() {
        if jobs.iter().any(|(k, _)| *k == key) {
            continue;
        }
        let mut row = rand_row(&mut rng);
        row.point = in_order.points()[i].clone();
        jobs.push((key, row));
    }

    for (key, row) in &jobs {
        in_order.offer(*key, row);
    }
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for &i in &order {
        let (key, row) = &jobs[i];
        let filled = shuffled.offer(*key, row);
        if filled == 0 {
            return Err(format!("offer of job {key:016x} filled no slots"));
        }
    }

    if !in_order.is_complete() || !shuffled.is_complete() {
        return Err(format!(
            "assembly incomplete: {}/{} in order, {}/{} shuffled",
            in_order.filled(),
            in_order.total(),
            shuffled.filled(),
            shuffled.total()
        ));
    }
    let a = in_order.finish().map_err(|i| format!("slot {i} empty"))?;
    let b = shuffled.finish().map_err(|i| format!("slot {i} empty"))?;
    if a != b {
        let at = a.iter().zip(&b).position(|(x, y)| x != y);
        return Err(format!(
            "merge depends on completion order (first divergence at slot {at:?})"
        ));
    }
    if rows_digest(&a) != rows_digest(&b) {
        return Err("rows_digest differs between completion orders".to_string());
    }
    Ok(())
}

fn check_cache(cc: &CacheCase) -> Result<(), String> {
    let mut rng = FuzzRng::new(cc.seed);
    let rows: Vec<(u64, PointRow)> = (0..cc.rows.min(4))
        .map(|_| (rng.u64(), rand_row(&mut rng)))
        .collect();
    for magic in [WAL_MAGIC, SNAP_MAGIC] {
        let image = encode_image(&rows, magic);
        let (back, report) = decode_image(&image, magic);
        if back != rows {
            return Err(format!(
                "cache image round trip changed rows ({} in, {} out)",
                rows.len(),
                back.len()
            ));
        }
        if !report.is_clean() {
            return Err(format!("clean image loaded dirty: {report:?}"));
        }
        if encode_image(&back, magic) != image {
            return Err("cache image re-encode is not a fixpoint".to_string());
        }
        for _ in 0..cc.probes {
            // Truncation: the load must be a clean prefix of what was
            // written, and valid_len must not overrun the cut.
            let cut = rng.below(image.len() as u64 + 1) as usize;
            let (part, rep) = decode_image(&image[..cut], magic);
            if part.len() > rows.len() || part != rows[..part.len()] {
                return Err(format!("truncation at {cut} is not a prefix load"));
            }
            if rep.valid_len > cut {
                return Err(format!(
                    "valid_len {} overruns the {cut}-byte image",
                    rep.valid_len
                ));
            }
            // Bit flip: must load without panicking, and every surviving
            // row must be one that was actually written (the checksum is
            // what makes this hold).
            let mut bad = image.clone();
            let at = rng.below(bad.len() as u64) as usize;
            bad[at] ^= 1 << rng.below(8);
            let (got, _) = decode_image(&bad, magic);
            for pair in &got {
                if !rows.contains(pair) {
                    return Err(format!(
                        "bit flip at byte {at} invented row for key {:016x}",
                        pair.0
                    ));
                }
            }
            // Random garbage: totality only.
            let garbage: Vec<u8> = (0..rng.range_usize(0, 96))
                .map(|_| rng.u64() as u8)
                .collect();
            let _ = decode_image(&garbage, magic);
        }
    }
    Ok(())
}

/// The sweep-protocol conformance engine.
pub struct SweepEngine;

impl Engine for SweepEngine {
    type Case = SweepCase;

    fn name() -> &'static str {
        "sweep"
    }

    fn generate(rng: &mut FuzzRng) -> SweepCase {
        SweepCase {
            msg_seed: rng.u64(),
            probes: rng.range_u64(1, 16) as u32,
            merge: rng.chance(1, 2).then(|| MergeCase {
                kernels: rng.range_u64(1, 3) as u8,
                dup_kernel: rng.chance(1, 4),
                flavors: rng.range_u64(1, 2) as u8,
                fault_seeds: rng.range_u64(1, 2) as u8,
                shuffle_seed: rng.u64(),
            }),
            cache: rng.chance(1, 2).then(|| CacheCase {
                rows: rng.range_u64(0, 4) as u8,
                probes: rng.range_u64(1, 8) as u8,
                seed: rng.u64(),
            }),
        }
    }

    fn check(case: &SweepCase) -> Result<(), String> {
        let mut rng = FuzzRng::new(case.msg_seed);
        let msg = random_msg(&mut rng);
        let bytes = check_fixpoint(&msg)?;
        check_hostile_decodes(&bytes, case.probes, &mut rng)?;
        if let Some(mc) = &case.merge {
            check_merge(mc)?;
        }
        if let Some(cc) = &case.cache {
            check_cache(cc)?;
        }
        Ok(())
    }

    fn shrink(case: &SweepCase) -> Vec<SweepCase> {
        let mut out = Vec::new();
        if case.merge.is_some() {
            out.push(SweepCase {
                merge: None,
                ..*case
            });
        }
        if let Some(mc) = case.merge {
            for smaller in [
                MergeCase { kernels: 1, ..mc },
                MergeCase {
                    dup_kernel: false,
                    ..mc
                },
                MergeCase { flavors: 1, ..mc },
                MergeCase {
                    fault_seeds: 1,
                    ..mc
                },
            ] {
                if smaller != mc {
                    out.push(SweepCase {
                        merge: Some(smaller),
                        ..*case
                    });
                }
            }
        }
        if case.cache.is_some() {
            out.push(SweepCase {
                cache: None,
                ..*case
            });
        }
        if let Some(cc) = case.cache {
            for smaller in [
                CacheCase {
                    rows: cc.rows.saturating_sub(1),
                    ..cc
                },
                CacheCase {
                    probes: (cc.probes / 2).max(1),
                    ..cc
                },
            ] {
                if smaller != cc {
                    out.push(SweepCase {
                        cache: Some(smaller),
                        ..*case
                    });
                }
            }
        }
        if case.probes > 1 {
            out.push(SweepCase {
                probes: case.probes / 2,
                ..*case
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_cases_pass() {
        for case in 0..50 {
            crate::replay_one("sweep", 1, case).unwrap();
        }
    }

    #[test]
    fn shrink_drops_merge_then_axes() {
        let case = SweepCase {
            msg_seed: 3,
            probes: 8,
            merge: Some(MergeCase {
                kernels: 3,
                dup_kernel: true,
                flavors: 2,
                fault_seeds: 2,
                shuffle_seed: 5,
            }),
            cache: Some(CacheCase {
                rows: 3,
                probes: 4,
                seed: 11,
            }),
        };
        let cands = SweepEngine::shrink(&case);
        assert!(cands[0].merge.is_none());
        assert!(cands.iter().any(|c| c.probes == 4));
        assert!(cands
            .iter()
            .any(|c| c.merge.is_some_and(|m| m.kernels == 1)));
        assert!(cands.iter().any(|c| c.cache.is_none()));
        assert!(cands.iter().any(|c| c.cache.is_some_and(|cc| cc.rows == 2)));
    }

    #[test]
    fn cache_check_passes_for_a_seed_spread() {
        for seed in 0..16 {
            check_cache(&CacheCase {
                rows: (seed % 5) as u8,
                probes: 6,
                seed,
            })
            .unwrap();
        }
    }

    #[test]
    fn merge_check_catches_order_dependence_by_construction() {
        // A healthy assembly passes for a spread of shuffle seeds.
        for seed in 0..8 {
            check_merge(&MergeCase {
                kernels: 2,
                dup_kernel: true,
                flavors: 2,
                fault_seeds: 2,
                shuffle_seed: seed,
            })
            .unwrap();
        }
    }
}
