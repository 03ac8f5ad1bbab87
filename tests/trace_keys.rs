//! A functional trace is keyed by what emulation reads. The vector length
//! is in the key only for a program with an instruction that may read it
//! (`Program::may_read_vlen`). These tests are the oracle for that
//! predicate: every program it calls length-free must emulate to the same
//! trace and memory at two lengths, and the flavours that run one scalar
//! program must share one key.

use std::collections::HashSet;

use uve::bench::Point;
use uve::core::{EmuConfig, Emulator};
use uve::kernels::{evaluation_suite, Benchmark, Flavor};
use uve::mem::Memory;
use uve::Trace;

/// The small catalog and the Fig. 8 suite.
fn benches() -> Vec<Box<dyn Benchmark>> {
    let mut benches = uve_sweep::spec::catalog(true);
    benches.extend(evaluation_suite());
    benches
}

/// Emulates `bench`'s `flavor` program with tracing at `vlen_bytes` and
/// checks the result: the trace, committed count and final memory.
fn emulate(bench: &dyn Benchmark, flavor: Flavor, vlen_bytes: usize) -> (Trace, u64, u64) {
    let cfg = EmuConfig {
        vlen_bytes,
        ..EmuConfig::default()
    };
    let mut emu = Emulator::new(cfg, Memory::new());
    bench.setup(&mut emu);
    let result = emu
        .run(&bench.program(flavor))
        .unwrap_or_else(|e| panic!("{}/{flavor} at {vlen_bytes} B: {e}", bench.name()));
    bench
        .check(&emu)
        .unwrap_or_else(|e| panic!("{}/{flavor} at {vlen_bytes} B: {e}", bench.name()));
    (result.trace, result.committed, emu.mem.content_hash())
}

#[test]
fn length_free_programs_emulate_identically_at_16_and_64_bytes() {
    let mut checked = HashSet::new();
    for bench in benches() {
        for flavor in Flavor::all() {
            let program = bench.program(flavor);
            assert_eq!(
                program.may_read_vlen(),
                flavor == Flavor::Uve || (flavor != Flavor::Scalar && bench.sve_vectorized()),
                "{}/{flavor}: only the scalar programs are length-free",
                bench.name()
            );
            let id = (bench.name(), uve::core::program_fingerprint(&program));
            if program.may_read_vlen() || !checked.insert(id) {
                continue;
            }
            let (narrow, committed16, mem16) = emulate(bench.as_ref(), flavor, 16);
            let (wide, committed64, mem64) = emulate(bench.as_ref(), flavor, 64);
            let what = format!("{}/{flavor}", bench.name());
            assert_eq!(narrow.ops, wide.ops, "{what}: ops");
            assert_eq!(narrow.streams, wide.streams, "{what}: stream tables");
            // Whole-trace equality covers the register, line and chunk
            // arenas the fields above leave out.
            assert!(narrow == wide, "{what}: arenas");
            assert_eq!(committed16, committed64, "{what}: committed");
            assert_eq!(mem16, mem64, "{what}: final memory");
        }
    }
    assert!(
        checked.len() >= 25,
        "{} length-free programs",
        checked.len()
    );
}

#[test]
fn scalar_fallback_flavors_share_a_key_and_vector_flavors_do_not() {
    let mut fallbacks = 0;
    for bench in benches() {
        let key = |flavor| Point::new(bench.as_ref(), flavor).key();
        let what = bench.name();
        if bench.sve_vectorized() {
            assert_ne!(key(Flavor::Sve), key(Flavor::Neon), "{what}");
            assert_ne!(key(Flavor::Sve), key(Flavor::Scalar), "{what}");
        } else {
            fallbacks += 1;
            assert_eq!(key(Flavor::Sve), key(Flavor::Scalar), "{what}");
            assert_eq!(key(Flavor::Neon), key(Flavor::Scalar), "{what}");
            assert_eq!(key(Flavor::Scalar).vlen, None, "{what}");
        }
        assert_ne!(key(Flavor::Uve), key(Flavor::Scalar), "{what}");
    }
    // Covariance, MAMR, MAMR-Diag, MAMR-Ind, Seidel-2D and Floyd-Warshall,
    // in each of the two sets.
    assert_eq!(fallbacks, 12);
}
