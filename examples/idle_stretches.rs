//! Idle stretches of the timing model on the points where the core waits
//! most: the Fig. 10 FIFO-depth-2 points and the Fig. 11 DRAM-streaming
//! points.
//!
//! A stretch is a maximal run of consecutive cycles in which no op
//! commits, read off the per-op commit cycles of `OoOCore::run_traced`
//! (one cold pass; the figures report warm passes). A no-commit cycle may
//! still issue, rename or fetch, so the cycles in long stretches are an
//! upper bound on what an idle-cycle fast-forward could skip. The last
//! column is the share of cycles in which the Streaming Engine scheduled
//! a stream: those cycles do work even when nothing commits.
//!
//! ```text
//! cargo run --release --example idle_stretches
//! ```

use uve::bench::Point;
use uve::core::engine::EngineConfig;
use uve::cpu::{CpuConfig, OoOCore};
use uve::isa::MemLevel;
use uve::kernels::gemm::Gemm;
use uve::kernels::jacobi::Jacobi2d;
use uve::kernels::mamr::Mamr;
use uve::kernels::stream::Stream;
use uve::kernels::threemm::ThreeMm;
use uve::kernels::{Benchmark, Flavor};

/// A stretch this long or longer counts as skippable.
const LONG: u64 = 32;

fn main() {
    let fifo2 = CpuConfig {
        engine: EngineConfig {
            fifo_depth: 2,
            ..EngineConfig::default()
        },
        ..CpuConfig::default()
    };
    // The figures' sensitivity kernels; Fig. 10 adds 3MM.
    let sensitivity = |with_3mm: bool| {
        let mut benches: Vec<Box<dyn Benchmark>> = vec![
            Box::new(Gemm::new(32, 32, 32)),
            Box::new(Jacobi2d::new(64, 2)),
            Box::new(Stream::new(49152)),
            Box::new(Mamr::full(128)),
        ];
        if with_3mm {
            benches.insert(1, Box::new(ThreeMm::new(32)));
        }
        benches
    };
    println!(
        "{:<24} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8}",
        "point", "cycles", "nocommit", "stretches", "mean len", "in >=32", "engine"
    );
    for (fig, level, cpu, benches) in [
        ("fig10 d=2", MemLevel::L2, &fifo2, sensitivity(true)),
        (
            "fig11 DRAM",
            MemLevel::Mem,
            &CpuConfig::default(),
            sensitivity(false),
        ),
    ] {
        for bench in &benches {
            let point = Point {
                stream_level: level,
                ..Point::new(bench.as_ref(), Flavor::Uve)
            };
            let trace = point.emulate().trace;
            let (stats, log) = OoOCore::new(cpu.clone()).run_traced(&trace);
            let mut commits: Vec<u64> = log.ops.iter().map(|op| op.commit).collect();
            commits.dedup();
            // Gaps between committing cycles, plus the lead-in before the
            // first commit and the tail after the last one.
            let mut bounds = vec![0];
            bounds.extend(commits.iter().map(|&c| c + 1));
            let gaps: Vec<u64> = bounds
                .iter()
                .zip(commits.iter().chain([&stats.cycles]))
                .map(|(&from, &to)| to - from)
                .filter(|&g| g > 0)
                .collect();
            let idle: u64 = gaps.iter().sum();
            let long: u64 = gaps.iter().filter(|&&g| g >= LONG).sum();
            println!(
                "{:<24} {:>9} {:>8.1}% {:>9} {:>9.1} {:>7.1}% {:>7.1}%",
                format!("{fig} {}", bench.name()),
                stats.cycles,
                100.0 * idle as f64 / stats.cycles as f64,
                gaps.len(),
                idle as f64 / gaps.len().max(1) as f64,
                100.0 * long as f64 / stats.cycles as f64,
                100.0 * stats.engine.active_cycles as f64 / stats.cycles as f64,
            );
        }
    }
}
