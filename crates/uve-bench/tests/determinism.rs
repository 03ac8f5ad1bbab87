//! The runner's determinism contract: a parallel sharded run must produce
//! the *same* `Vec<Measured>` — same order, same committed counts, same
//! cycle counts, bit-identical derived numbers — as the `--serial`
//! baseline, and a cached-trace replay must equal a fresh-emulation
//! replay.

use uve_bench::{measure, Job, Point, Runner};
use uve_core::engine::EngineConfig;
use uve_cpu::CpuConfig;
use uve_isa::MemLevel;
use uve_kernels::{gemm::Gemm, jacobi::Jacobi1d, saxpy::Saxpy, Benchmark, Flavor};

/// A small 3-kernel subset (kept cheap: this runs under `cargo test`).
fn subset() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(Saxpy::new(2048)),
        Box::new(Gemm::new(8, 16, 8)),
        Box::new(Jacobi1d::new(1024, 2)),
    ]
}

/// A sweep over the subset: two flavours × two timing configurations, so
/// the trace cache is exercised (each kernel point replayed twice).
fn jobs(benches: &[Box<dyn Benchmark>]) -> Vec<Job<'_>> {
    let mut jobs = Vec::new();
    for bench in benches {
        for flavor in [Flavor::Uve, Flavor::Sve] {
            for fifo_depth in [4usize, 8] {
                let cpu = CpuConfig {
                    engine: EngineConfig {
                        fifo_depth,
                        ..EngineConfig::default()
                    },
                    ..CpuConfig::default()
                };
                jobs.push(Job::new(bench.as_ref(), flavor, cpu));
            }
        }
    }
    jobs
}

#[test]
fn parallel_and_serial_runs_are_bit_identical() {
    let benches = subset();
    let serial = Runner::serial();
    let parallel = Runner::parallel(4);

    let a = serial.run(&jobs(&benches));
    let b = parallel.run(&jobs(&benches));

    assert_eq!(a.len(), b.len());
    for (i, (s, p)) in a.iter().zip(&b).enumerate() {
        assert_eq!(s.name, p.name, "job {i}: ordering must match submission");
        assert_eq!(s.flavor, p.flavor, "job {i}");
        assert_eq!(s.committed, p.committed, "job {i}: committed");
        assert_eq!(s.stats.cycles, p.stats.cycles, "job {i}: cycles");
        assert_eq!(
            s.stats.rename_blocked_cycles, p.stats.rename_blocked_cycles,
            "job {i}: rename stalls"
        );
        assert_eq!(
            s.stats.branch_mispredicts, p.stats.branch_mispredicts,
            "job {i}: mispredicts"
        );
        assert_eq!(
            s.stats.mem.dram.reads, p.stats.mem.dram.reads,
            "job {i}: DRAM reads"
        );
        assert_eq!(
            s.stats.bus_utilization.to_bits(),
            p.stats.bus_utilization.to_bits(),
            "job {i}: bus utilization must be bit-identical"
        );
    }

    // Trace reuse: 3 kernels × 2 flavours = 6 functional points, 12 jobs.
    // Both runners must emulate each point exactly once.
    assert_eq!(serial.emulations(), 6);
    assert_eq!(parallel.emulations(), 6);
}

#[test]
fn cached_replay_equals_fresh_emulation_replay() {
    let bench = Saxpy::new(2048);
    let cpu = CpuConfig::default();
    let runner = Runner::parallel(2);

    // First run emulates and caches; second run replays the cached trace.
    let job = || vec![Job::new(&bench, Flavor::Uve, cpu.clone())];
    let first = runner.run(&job());
    assert_eq!(runner.emulations(), 1);
    let second = runner.run(&job());
    assert_eq!(
        runner.emulations(),
        1,
        "second run must hit the trace cache"
    );

    // And both must equal the uncached one-shot measurement path.
    let fresh = measure(&bench, Flavor::Uve, &cpu);

    for m in [&first[0], &second[0]] {
        assert_eq!(m.committed, fresh.committed);
        assert_eq!(m.stats.cycles, fresh.stats.cycles);
        assert_eq!(
            m.stats.bus_utilization.to_bits(),
            fresh.stats.bus_utilization.to_bits()
        );
    }
}

#[test]
fn stream_level_is_part_of_the_trace_identity() {
    // Fig. 11 sweeps the stream level, which changes the functional trace:
    // each level must be its own cache entry, not a stale reuse.
    let bench = Saxpy::new(2048);
    let cpu = CpuConfig::default();
    let runner = Runner::serial();
    let levels = [MemLevel::L1, MemLevel::L2, MemLevel::Mem];
    let jobs: Vec<Job> = levels
        .iter()
        .map(|&stream_level| Job {
            point: Point {
                stream_level,
                ..Point::new(&bench, Flavor::Uve)
            },
            cpu: cpu.clone(),
        })
        .collect();
    let out = runner.run(&jobs);
    assert_eq!(runner.emulations(), levels.len() as u64);
    // Levels change timing; DRAM-direct streaming must differ from L2.
    assert_ne!(out[1].stats.cycles, out[2].stats.cycles);
}
