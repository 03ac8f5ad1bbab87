//! Evaluation harness regenerating the tables and figures of the UVE paper.
//!
//! Each figure has a binary under `src/bin` (see `DESIGN.md` for the
//! experiment index):
//!
//! - `fig8` — code reduction, speed-up, rename blocks/cycle, bus
//!   utilization, and the GEMM unrolling study (panels A–E);
//! - `fig9` — sensitivity to the number of physical vector registers;
//! - `fig10` — sensitivity to the Streaming Engine FIFO depth;
//! - `fig11` — sensitivity to the streaming cache level;
//! - `modules` — sensitivity to the number of Stream Processing Modules
//!   (Sec. VI-B);
//! - `overheads` — the Streaming Engine storage inventory (Sec. VI-C).
//!
//! All binaries run the same flow: functional emulation of a kernel
//! ([`uve_kernels`]) producing a dynamic trace, then the cycle-level
//! out-of-order model ([`uve_cpu`]) with the Table I configuration.

#![warn(missing_docs)]

pub mod chrome;
pub mod cli;
pub mod figures;
pub mod pool;
pub mod report;
pub mod runner;

pub use chrome::{chrome_trace_json, tiny_saxpy_trace, trace_kernel};
pub use cli::Cli;
pub use pool::{isolated, panic_message, run_indexed, run_isolated};
pub use report::{ReportRow, StatsReport};
pub use runner::{
    default_jobs, replay, CachedTrace, Job, JobFailure, Point, RunMode, Runner, TraceKey,
    SWEEP_FAULT_RATE,
};

use uve_cpu::{CpuConfig, TimingStats};
use uve_kernels::{Benchmark, Flavor};

/// One measured kernel execution.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Kernel name.
    pub name: String,
    /// Code flavour.
    pub flavor: Flavor,
    /// Committed dynamic instructions.
    pub committed: u64,
    /// Timing statistics from the out-of-order model.
    pub stats: TimingStats,
}

impl Measured {
    /// Cycles taken.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }
}

/// Emulates and times `bench` in `flavor` under `cpu` at [`Point::new`]'s
/// defaults — the one-shot (uncached) path, built from the same
/// [`Point::emulate`]/[`replay`] primitives the parallel [`Runner`]
/// shards, so both paths report identical numbers.
///
/// # Panics
///
/// Panics if the kernel mis-executes or fails its correctness check —
/// measurement of an incorrect run would be meaningless.
pub fn measure(bench: &dyn Benchmark, flavor: Flavor, cpu: &CpuConfig) -> Measured {
    replay(
        bench.name(),
        flavor,
        &Point::new(bench, flavor).emulate(),
        cpu,
    )
}

/// Geometric mean of a ratio series (the paper reports average factors).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Prints a row with a fixed-width first column.
pub fn row(name: &str, cells: &[String]) {
    print!("{name:<16}");
    for c in cells {
        print!(" {c:>12}");
    }
    println!();
}

/// Prints a header row.
pub fn header(title: &str, cols: &[&str]) {
    println!("\n=== {title} ===");
    row(
        "kernel",
        &cols.iter().map(|c| (*c).to_string()).collect::<Vec<_>>(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use uve_kernels::saxpy::Saxpy;

    #[test]
    fn measure_runs_and_checks() {
        let cpu = CpuConfig::default();
        let m = measure(&Saxpy::new(256), Flavor::Uve, &cpu);
        assert!(m.cycles() > 0);
        assert!(m.committed > 0);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!(geomean(&[]).is_nan());
    }
}
