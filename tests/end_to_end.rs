//! Cross-crate integration: every evaluation kernel, in every flavour, runs
//! through assembler → emulator → correctness oracle → timing model.

use uve::core::TraceOp;
use uve::cpu::{CpuConfig, OoOCore};
use uve::kernels::{run_checked, Benchmark, Flavor};

/// Small instances of the whole suite (fast enough for CI).
fn small_suite() -> Vec<Box<dyn Benchmark>> {
    use uve::kernels::*;
    vec![
        Box::new(memcpy::Memcpy::new(100)),
        Box::new(stream::Stream::new(80)),
        Box::new(saxpy::Saxpy::new(100)),
        Box::new(gemm::Gemm::new(5, 16, 6)),
        Box::new(threemm::ThreeMm::new(16)),
        Box::new(mvt::Mvt::new(20)),
        Box::new(gemver::Gemver::new(20)),
        Box::new(trisolv::Trisolv::new(20)),
        Box::new(jacobi::Jacobi1d::new(50, 2)),
        Box::new(jacobi::Jacobi2d::new(10, 2)),
        Box::new(irsmk::Irsmk::new(600)),
        Box::new(haccmk::Haccmk::new(20)),
        Box::new(knn::Knn::new(20, 8)),
        Box::new(covariance::Covariance::new(16, 12)),
        Box::new(mamr::Mamr::full(20)),
        Box::new(mamr::Mamr::diag(20)),
        Box::new(mamr::Mamr::indirect(12)),
        Box::new(seidel::Seidel2d::new(8, 2)),
        Box::new(floyd::FloydWarshall::new(10)),
    ]
}

#[test]
fn every_kernel_correct_in_every_flavor() {
    for bench in small_suite() {
        for flavor in Flavor::all() {
            run_checked(bench.as_ref(), flavor).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

#[test]
fn uve_always_commits_fewer_instructions_than_scalar() {
    for bench in small_suite() {
        let uve = run_checked(bench.as_ref(), Flavor::Uve).unwrap();
        let scalar = run_checked(bench.as_ref(), Flavor::Scalar).unwrap();
        assert!(
            uve.result.committed < scalar.result.committed,
            "{}: UVE {} !< scalar {}",
            bench.name(),
            uve.result.committed,
            scalar.result.committed
        );
    }
}

#[test]
fn timing_model_runs_every_kernel_trace() {
    let core = OoOCore::new(CpuConfig::default());
    for bench in small_suite() {
        let uve = run_checked(bench.as_ref(), Flavor::Uve).unwrap();
        let stats = core.run(&uve.result.trace);
        assert!(stats.cycles > 0, "{}", bench.name());
        assert_eq!(stats.committed, uve.result.trace.committed());
    }
}

#[test]
fn recorded_ops_own_no_register_or_line_heap() {
    // Registers, access lines and stream chunk references live in
    // per-trace arenas, so no op the emulator records owns a heap block:
    // an op is a fixed-size record with no drop glue.
    let op_bytes = std::mem::size_of::<TraceOp>();
    assert!(op_bytes <= 40, "TraceOp is {op_bytes} bytes");
    assert!(!std::mem::needs_drop::<TraceOp>());
    for bench in uve_sweep::spec::catalog(true) {
        for flavor in Flavor::all() {
            let run = run_checked(bench.as_ref(), flavor).unwrap_or_else(|e| panic!("{e}"));
            let t = &run.result.trace;
            let at = format!("{} {flavor:?}", bench.name());
            assert!(t.ops.iter().any(|op| !t.srcs(op).is_empty()), "{at}");
            assert!(t.ops.iter().any(|op| !t.dests(op).is_empty()), "{at}");
        }
    }
}

#[test]
fn traces_expose_stream_structure() {
    for bench in small_suite() {
        let uve = run_checked(bench.as_ref(), Flavor::Uve).unwrap();
        let t = &uve.result.trace;
        assert!(!t.streams.is_empty(), "{} has no streams", bench.name());
        // Every UVE kernel consumes or produces stream chunks, and every
        // chunk an op names must exist in its stream's side table.
        let mut refs = 0;
        for op in &t.ops {
            for &(inst, chunk) in t.stream_reads(op).iter().chain(t.stream_writes(op)) {
                refs += 1;
                assert!(
                    (chunk as usize) < t.streams[inst as usize].chunks.len(),
                    "{}: dangling chunk reference",
                    bench.name()
                );
            }
        }
        assert!(refs > 0, "{}: no op names a stream chunk", bench.name());
        // Scalar flavours never touch streams.
        let scalar = run_checked(bench.as_ref(), Flavor::Scalar).unwrap();
        assert!(scalar.result.trace.streams.is_empty());
    }
}

#[test]
fn neon_flavor_runs_narrow_vectors() {
    let bench = uve::kernels::saxpy::Saxpy::new(64);
    let neon = run_checked(&bench, Flavor::Neon).unwrap();
    let sve = run_checked(&bench, Flavor::Sve).unwrap();
    // Fixed 128-bit vectors execute ~4x the vector iterations.
    assert!(neon.result.committed > 2 * sve.result.committed);
}
