//! The 19 evaluation kernels of the UVE paper (Fig. 8) — plus two
//! follow-on workload families ([`dsp`] and [`sparse`]) authored as
//! checked-in UVE assembly text — each in four flavours:
//!
//! - [`Flavor::Uve`]: hand-coded UVE streaming assembly (512-bit vectors),
//! - [`Flavor::Sve`]: SVE-like predicated vector-length-agnostic assembly
//!   (512-bit vectors) — or scalar code for the four kernels the paper's
//!   ARM compiler failed to vectorize,
//! - [`Flavor::Neon`]: NEON-like fixed-width vectorization (128-bit vectors
//!   plus scalar loop tails) — or scalar code under the same rule,
//! - [`Flavor::Scalar`]: plain scalar RISC code.
//!
//! Every kernel ships a deterministic workload generator ([`Benchmark::setup`])
//! and a correctness oracle ([`Benchmark::check`]) comparing simulated memory
//! against a Rust reference implementation.
//!
//! # Example
//!
//! ```rust
//! use uve_kernels::{saxpy::Saxpy, run_checked, Flavor};
//!
//! let bench = Saxpy::new(100);
//! let run = run_checked(&bench, Flavor::Uve).expect("correct");
//! assert!(run.result.committed > 0);
//! ```

#![warn(missing_docs)]

pub mod common;
pub mod covariance;
pub mod dsp;
pub mod floyd;
pub mod gemm;
pub mod gemver;
pub mod haccmk;
pub mod irsmk;
pub mod jacobi;
pub mod knn;
pub mod mamr;
pub mod memcpy;
pub mod mvt;
pub mod saxpy;
pub mod seidel;
pub mod sparse;
pub mod stream;
pub mod threemm;
pub mod trisolv;

use uve_core::{EmuConfig, Emulator, RunResult};
use uve_isa::Program;
use uve_mem::Memory;

/// Code flavour of a kernel implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flavor {
    /// UVE streaming code (512-bit vectors).
    Uve,
    /// SVE-like predicated vector code (512-bit vectors); falls back to
    /// scalar for kernels the paper's compiler could not vectorize.
    Sve,
    /// NEON-like fixed 128-bit vector code with scalar tails; same scalar
    /// fallback rule.
    Neon,
    /// Plain scalar code.
    Scalar,
}

impl Flavor {
    /// Vector length in bytes this flavour runs with.
    pub fn vlen_bytes(self) -> usize {
        match self {
            Flavor::Neon => 16,
            _ => 64,
        }
    }

    /// All four flavours.
    pub fn all() -> [Flavor; 4] {
        [Flavor::Uve, Flavor::Sve, Flavor::Neon, Flavor::Scalar]
    }
}

impl std::fmt::Display for Flavor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Flavor::Uve => "UVE",
            Flavor::Sve => "SVE",
            Flavor::Neon => "NEON",
            Flavor::Scalar => "scalar",
        })
    }
}

impl std::str::FromStr for Flavor {
    type Err = String;

    /// Parses a flavour name case-insensitively: `uve`, `sve`, `neon` or
    /// `scalar`.
    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_lowercase().as_str() {
            "uve" => Ok(Flavor::Uve),
            "sve" => Ok(Flavor::Sve),
            "neon" => Ok(Flavor::Neon),
            "scalar" => Ok(Flavor::Scalar),
            other => Err(format!(
                "unknown flavor {other:?}: expected uve, sve, neon, or scalar"
            )),
        }
    }
}

/// One evaluation kernel: programs in all flavours, workload setup, and a
/// correctness oracle.
///
/// `Send + Sync` is a supertrait so kernels can be sharded across the
/// worker threads of the parallel evaluation runner; implementations are
/// plain parameter structs, so this costs nothing.
pub trait Benchmark: Send + Sync {
    /// Short kernel name (paper Fig. 8 naming).
    fn name(&self) -> &'static str;

    /// Application domain label from the paper's table.
    fn domain(&self) -> &'static str {
        "misc"
    }

    /// `false` for the kernels the paper's ARM compiler failed to vectorize
    /// (Seidel-2D, MAMR variants, Covariance, Floyd-Warshall): their
    /// SVE/NEON flavours are scalar code.
    fn sve_vectorized(&self) -> bool {
        true
    }

    /// Number of concurrent streams the UVE flavour configures (the paper's
    /// `#Streams` column; for multi-phase kernels, the per-phase maximum).
    fn streams(&self) -> usize {
        0
    }

    /// Memory-access pattern label (the paper's rightmost column).
    fn pattern(&self) -> &'static str {
        "1D"
    }

    /// The program implementing this kernel in the given flavour.
    fn program(&self, flavor: Flavor) -> Program;

    /// Writes the input arrays and scalar parameters into the emulator.
    fn setup(&self, emu: &mut Emulator);

    /// Verifies the results in simulated memory against the reference
    /// implementation.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch.
    fn check(&self, emu: &Emulator) -> Result<(), String>;
}

/// A completed kernel execution.
#[derive(Debug)]
pub struct KernelRun {
    /// The emulator after the run (memory holds results).
    pub emulator: Emulator,
    /// Committed-instruction count and dynamic trace.
    pub result: RunResult,
}

/// Runs `bench` in `flavor`, returning the emulator and trace.
///
/// # Errors
///
/// Propagates emulation failures (stream misuse, runaway loops).
pub fn run(bench: &dyn Benchmark, flavor: Flavor) -> Result<KernelRun, uve_core::EmuError> {
    let cfg = EmuConfig {
        vlen_bytes: flavor.vlen_bytes(),
        ..EmuConfig::default()
    };
    let mut emulator = Emulator::new(cfg, Memory::new());
    bench.setup(&mut emulator);
    let program = bench.program(flavor);
    let result = emulator.run(&program)?;
    Ok(KernelRun { emulator, result })
}

/// Runs `bench` in `flavor` and verifies the result.
///
/// # Errors
///
/// Returns emulation errors or correctness mismatches as strings.
pub fn run_checked(bench: &dyn Benchmark, flavor: Flavor) -> Result<KernelRun, String> {
    let run = run(bench, flavor).map_err(|e| format!("{}/{flavor}: {e}", bench.name()))?;
    bench
        .check(&run.emulator)
        .map_err(|e| format!("{}/{flavor}: {e}", bench.name()))?;
    Ok(run)
}

/// The paper's benchmark list (Fig. 8, rows A–S) at the default evaluation
/// sizes.
pub fn evaluation_suite() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(memcpy::Memcpy::new(65536)),
        Box::new(stream::Stream::new(49152)),
        Box::new(saxpy::Saxpy::new(65536)),
        Box::new(gemm::Gemm::new(32, 32, 32)),
        Box::new(threemm::ThreeMm::new(32)),
        Box::new(mvt::Mvt::new(128)),
        Box::new(gemver::Gemver::new(128)),
        Box::new(trisolv::Trisolv::new(128)),
        Box::new(jacobi::Jacobi1d::new(16384, 4)),
        Box::new(jacobi::Jacobi2d::new(64, 2)),
        Box::new(irsmk::Irsmk::new(4096)),
        Box::new(haccmk::Haccmk::new(128)),
        Box::new(knn::Knn::new(1024, 16)),
        Box::new(covariance::Covariance::new(32, 48)),
        Box::new(mamr::Mamr::full(128)),
        Box::new(mamr::Mamr::diag(128)),
        Box::new(mamr::Mamr::indirect(128)),
        Box::new(seidel::Seidel2d::new(48, 2)),
        Box::new(floyd::FloydWarshall::new(40)),
    ]
}

/// The [`evaluation_suite`] kernels, in the same order, at smoke-test
/// sizes: the `smp` binary's `--small` suite and the start of the sweep
/// service's small catalog.
pub fn small_evaluation_suite() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(memcpy::Memcpy::new(4096)),
        Box::new(stream::Stream::new(3072)),
        Box::new(saxpy::Saxpy::new(4096)),
        Box::new(gemm::Gemm::new(16, 16, 16)),
        Box::new(threemm::ThreeMm::new(16)),
        Box::new(mvt::Mvt::new(48)),
        Box::new(gemver::Gemver::new(48)),
        Box::new(trisolv::Trisolv::new(48)),
        Box::new(jacobi::Jacobi1d::new(1024, 2)),
        Box::new(jacobi::Jacobi2d::new(24, 2)),
        Box::new(irsmk::Irsmk::new(1024)),
        Box::new(haccmk::Haccmk::new(32)),
        Box::new(knn::Knn::new(128, 8)),
        Box::new(covariance::Covariance::new(16, 16)),
        Box::new(mamr::Mamr::full(48)),
        Box::new(mamr::Mamr::diag(48)),
        Box::new(mamr::Mamr::indirect(48)),
        Box::new(seidel::Seidel2d::new(20, 2)),
        Box::new(floyd::FloydWarshall::new(16)),
    ]
}

/// The DSP/baseband workload family (FIR, ChanEst, FFT-Stage) at its
/// default evaluation sizes.
pub fn dsp_suite() -> Vec<Box<dyn Benchmark>> {
    dsp::suite()
}

/// The sparse/indirect workload family (SpMV, GatherReduce, Histogram) at
/// its default evaluation sizes.
pub fn sparse_suite() -> Vec<Box<dyn Benchmark>> {
    sparse::suite()
}

/// Every kernel the crate ships: the paper's 19-row evaluation suite plus
/// the [`dsp`] and [`sparse`] families.
///
/// The Fig. 8 reproduction artefacts (and their drift gates) stay pinned to
/// [`evaluation_suite`]; new families only extend this roster.
pub fn extended_suite() -> Vec<Box<dyn Benchmark>> {
    let mut suite = evaluation_suite();
    suite.extend(dsp_suite());
    suite.extend(sparse_suite());
    suite
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(suite: &[Box<dyn Benchmark>]) -> Vec<&str> {
        suite.iter().map(|b| b.name()).collect()
    }

    #[test]
    fn family_registries_are_complete() {
        let (eval_suite, dsp_s, sparse_s, all_suite) = (
            evaluation_suite(),
            dsp_suite(),
            sparse_suite(),
            extended_suite(),
        );
        let eval = names(&eval_suite);
        assert_eq!(eval.len(), 19, "Fig. 8 suite stays pinned at 19 rows");
        assert!(eval.contains(&"SAXPY"));
        assert!(eval.contains(&"Floyd-Warshall"));
        let small_suite = small_evaluation_suite();
        assert_eq!(
            names(&small_suite),
            eval,
            "the small suite is the evaluation suite, row for row"
        );

        let dsp = names(&dsp_s);
        for k in ["FIR", "ChanEst", "FFT-Stage"] {
            assert!(dsp.contains(&k), "dsp family missing {k}");
        }

        let sparse = names(&sparse_s);
        for k in ["SpMV", "GatherReduce", "Histogram"] {
            assert!(sparse.contains(&k), "sparse family missing {k}");
        }

        let mut all = names(&all_suite);
        assert_eq!(all.len(), eval.len() + dsp.len() + sparse.len());
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            eval.len() + dsp.len() + sparse.len(),
            "kernel names must be unique across families"
        );
    }

    #[test]
    fn every_kernel_declares_its_table_row() {
        for b in extended_suite() {
            assert!(b.streams() >= 2, "{}", b.name());
            assert!(!b.pattern().is_empty(), "{}", b.name());
            assert_ne!(b.domain(), "misc", "{}", b.name());
        }
    }

    #[test]
    fn flavors() {
        assert_eq!(Flavor::Neon.vlen_bytes(), 16);
        assert_eq!(Flavor::Uve.vlen_bytes(), 64);
        assert_eq!(Flavor::Uve.to_string(), "UVE");
        assert_eq!(Flavor::all().len(), 4);
    }
}
