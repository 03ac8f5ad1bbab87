//! Invariants of the timing model: resource monotonicity and the paper's
//! qualitative claims at small scale.

use uve::core::engine::EngineConfig;
use uve::cpu::{CpuConfig, OoOCore};
use uve::kernels::{run_checked, Flavor};

fn trace_of(bench: &dyn uve::kernels::Benchmark, flavor: Flavor) -> uve::core::Trace {
    run_checked(bench, flavor).unwrap().result.trace
}

#[test]
fn deeper_fifos_never_slow_streams_down() {
    let bench = uve::kernels::saxpy::Saxpy::new(2048);
    let trace = trace_of(&bench, Flavor::Uve);
    let mut prev = u64::MAX;
    for depth in [2usize, 4, 8, 16] {
        let cpu = CpuConfig {
            engine: EngineConfig {
                fifo_depth: depth,
                ..EngineConfig::default()
            },
            ..CpuConfig::default()
        };
        let cycles = OoOCore::new(cpu).run(&trace).cycles;
        assert!(cycles <= prev, "depth {depth}: {cycles} vs {prev}");
        prev = cycles;
    }
}

#[test]
fn more_vector_registers_never_slow_sve_down() {
    let bench = uve::kernels::gemm::Gemm::new(8, 32, 8);
    let trace = trace_of(&bench, Flavor::Sve);
    let mut prev = u64::MAX;
    for pvr in [40usize, 48, 64, 96] {
        let cpu = CpuConfig {
            vec_prf: pvr,
            ..CpuConfig::default()
        };
        let cycles = OoOCore::new(cpu).run(&trace).cycles;
        assert!(cycles <= prev, "pvr {pvr}: {cycles} vs {prev}");
        prev = cycles;
    }
}

#[test]
fn uve_timing_insensitive_to_vector_registers() {
    let bench = uve::kernels::saxpy::Saxpy::new(2048);
    let trace = trace_of(&bench, Flavor::Uve);
    let at = |pvr: usize| {
        let cpu = CpuConfig {
            vec_prf: pvr,
            ..CpuConfig::default()
        };
        OoOCore::new(cpu).run(&trace).cycles
    };
    let low = at(48);
    let high = at(96);
    let drift = (low as f64 - high as f64).abs() / low as f64;
    assert!(
        drift < 0.02,
        "UVE should be PVR-insensitive: {low} vs {high}"
    );
}

#[test]
fn warm_runs_never_slower_than_cold() {
    let core = OoOCore::new(CpuConfig::default());
    for flavor in [Flavor::Uve, Flavor::Sve] {
        let bench = uve::kernels::knn::Knn::new(64, 16);
        let trace = trace_of(&bench, flavor);
        let cold = core.run(&trace).cycles;
        let warm = core.run_warm(&trace).cycles;
        assert!(warm <= cold, "{flavor}: warm {warm} > cold {cold}");
    }
}

#[test]
fn committed_counts_are_deterministic() {
    let bench = uve::kernels::mvt::Mvt::new(16);
    let a = run_checked(&bench, Flavor::Uve).unwrap().result.committed;
    let b = run_checked(&bench, Flavor::Uve).unwrap().result.committed;
    assert_eq!(a, b);
    let core = OoOCore::new(CpuConfig::default());
    let t = trace_of(&bench, Flavor::Uve);
    assert_eq!(core.run(&t).cycles, core.run(&t).cycles);
}

#[test]
fn engine_storage_scales_with_configuration() {
    let base = EngineConfig::default().storage_report().total_bytes();
    let wider = EngineConfig {
        fifo_depth: 16,
        ..EngineConfig::default()
    }
    .storage_report()
    .total_bytes();
    assert!(wider > base);
    let narrower = EngineConfig {
        max_streams: 8,
        ..EngineConfig::default()
    }
    .storage_report()
    .total_bytes();
    assert!(narrower < base);
}
