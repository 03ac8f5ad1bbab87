//! Differential fuzzing of the cycle-accounting observability layer.
//!
//! Each case picks a small kernel instance, a flavor, and a Streaming
//! Engine FIFO depth, then runs the full measurement path twice — once on
//! a strictly serial [`Runner`] and once on a two-worker pool — and
//! checks:
//!
//! 1. every conservation law of the run ([`StatsReport::check`]): the
//!    stall categories partition the cycles, the FIFO occupancy histogram
//!    accounts for every open stream-cycle, and the memory latency
//!    profile accounts for every demand read and DRAM transaction;
//! 2. the two [`TimingStats`] are **bit-identical** — the parallel runner
//!    must not perturb a single counter;
//! 3. the rendered `--explain` report strings are byte-identical.
//!
//! Kernel sizes are capped well below the figure-generation sizes so a
//! few thousand cases stay cheap: the point is coverage of the
//! *accounting*, which exercises every stall category already at tiny
//! problem sizes (startup = frontend, drain = fifo-empty, stores =
//! fifo-full, …).

use crate::kernel_diff::KernelCase;
use crate::rng::FuzzRng;
use crate::Engine;
use uve_bench::{Job, Runner, StatsReport};
use uve_core::engine::EngineConfig;
use uve_cpu::CpuConfig;
use uve_kernels::Flavor;

/// One stats-conformance case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsCase {
    /// The kernel instance to measure.
    pub kernel: KernelCase,
    /// Code flavour to run it in.
    pub flavor: Flavor,
    /// Streaming Engine FIFO depth (a timing-only knob the accounting
    /// must stay conserved under).
    pub fifo_depth: usize,
}

/// A small kernel instance from the twelve families the timing engines
/// draw from.
pub(crate) fn gen_kernel(rng: &mut FuzzRng) -> KernelCase {
    match rng.below(12) {
        0 => KernelCase::Memcpy(rng.range_usize(1, 96)),
        1 => KernelCase::Stream(rng.range_usize(1, 96)),
        2 => KernelCase::Saxpy(rng.range_usize(1, 96)),
        3 => KernelCase::Gemm(rng.range_usize(1, 4), 16, rng.range_usize(1, 4)),
        4 => KernelCase::Mvt(rng.range_usize(1, 24)),
        5 => KernelCase::Trisolv(rng.range_usize(2, 24)),
        6 => KernelCase::Jacobi1d(rng.range_usize(3, 96), 1),
        7 => KernelCase::Haccmk(rng.range_usize(1, 24)),
        8 => KernelCase::Knn(rng.range_usize(1, 48), rng.range_usize(1, 4)),
        9 => KernelCase::MamrFull(rng.range_usize(1, 24)),
        10 => KernelCase::MamrIndirect(rng.range_usize(1, 24)),
        _ => KernelCase::Seidel2d(rng.range_usize(3, 12), 1),
    }
}

/// The stats-conformance engine.
pub struct StatsEngine;

impl Engine for StatsEngine {
    type Case = StatsCase;

    fn name() -> &'static str {
        "stats"
    }

    fn generate(rng: &mut FuzzRng) -> StatsCase {
        StatsCase {
            kernel: gen_kernel(rng),
            flavor: *rng.pick(&[Flavor::Uve, Flavor::Sve, Flavor::Neon, Flavor::Scalar]),
            fifo_depth: *rng.pick(&[2usize, 4, 8, 12]),
        }
    }

    fn check(case: &StatsCase) -> Result<(), String> {
        let bench = case.kernel.bench();
        let cpu = CpuConfig {
            engine: EngineConfig {
                fifo_depth: case.fifo_depth,
                ..EngineConfig::default()
            },
            ..CpuConfig::default()
        };
        let measure = |runner: &Runner| {
            runner
                .run(&[Job::new(bench.as_ref(), case.flavor, cpu.clone())])
                .remove(0)
        };
        let serial = measure(&Runner::serial().verbose(false));
        let parallel = measure(&Runner::parallel(2).verbose(false));

        let report = StatsReport::of(std::slice::from_ref(&serial));
        report
            .check()
            .map_err(|e| format!("conservation law violated: {e}"))?;

        if serial.committed != parallel.committed {
            return Err(format!(
                "{}/{}: committed differs: serial {} vs parallel {}",
                serial.name, case.flavor, serial.committed, parallel.committed
            ));
        }
        if serial.stats != parallel.stats {
            return Err(format!(
                "{}/{}: TimingStats not bit-identical across runner modes:\n\
                 serial:   {:?}\nparallel: {:?}",
                serial.name, case.flavor, serial.stats, parallel.stats
            ));
        }
        let rendered = report.render();
        let rendered_par = StatsReport::of(&[parallel]).render();
        if rendered != rendered_par {
            return Err(format!(
                "{}/{}: --explain report differs across runner modes:\n{rendered}\nvs\n{rendered_par}",
                serial.name, case.flavor
            ));
        }
        Ok(())
    }

    fn shrink(case: &StatsCase) -> Vec<StatsCase> {
        let mut out: Vec<StatsCase> = case
            .kernel
            .smaller()
            .into_iter()
            .map(|kernel| StatsCase { kernel, ..*case })
            .collect();
        if case.fifo_depth > 2 {
            out.push(StatsCase {
                fifo_depth: 2,
                ..*case
            });
        }
        if case.flavor != Flavor::Scalar {
            out.push(StatsCase {
                flavor: Flavor::Scalar,
                ..*case
            });
        }
        out
    }
}
