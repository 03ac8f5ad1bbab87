//! Indirect-packing ablation: every suite kernel's UVE run under packed
//! (default) and unpacked chunk semantics, against its scalar baseline.
//!
//! Packing groups gathered elements of indirectly modified streams into
//! full-width chunks instead of closing every chunk at the (typically
//! size-1) innermost dimension; affine kernels are bit-identical in both
//! modes, which this binary asserts. The interesting rows are the
//! indirect kernels — MAMR-Ind most of all, whose dependent
//! 3-instructions-per-element scalar chain is the documented source of
//! the pre-packing paper deviation (EXPERIMENTS.md).
//!
//! Usage: `packing [--jobs N | --serial] [--quiet] [--explain]`.

use uve_bench::{geomean, header, row, Cli, Job, Point, Runner};
use uve_core::IndirectPacking;
use uve_cpu::CpuConfig;
use uve_kernels::{evaluation_suite, Flavor};

fn main() {
    let cli = Cli::parse();
    let runner = Runner::from_cli(&cli);
    let suite = evaluation_suite();
    let cpu = CpuConfig::default();

    // Per kernel: UVE packed, UVE unpacked, scalar baseline.
    let jobs: Vec<Job> = suite
        .iter()
        .flat_map(|bench| {
            [
                Job::new(bench.as_ref(), Flavor::Uve, cpu.clone()),
                Job {
                    point: Point {
                        packing: IndirectPacking::Unpacked,
                        ..Point::new(bench.as_ref(), Flavor::Uve)
                    },
                    cpu: cpu.clone(),
                },
                Job::new(bench.as_ref(), Flavor::Scalar, cpu.clone()),
            ]
        })
        .collect();
    let results = runner.run(&jobs);
    runner.maybe_explain(&results);

    header(
        "Indirect-packing ablation — UVE vs scalar",
        &[
            "packed cyc",
            "unpacked cyc",
            "packed x",
            "unpacked x",
            "inst ratio",
        ],
    );
    let mut packed_x = Vec::new();
    let mut unpacked_x = Vec::new();
    for (i, bench) in suite.iter().enumerate() {
        let (p, u, s) = (&results[3 * i], &results[3 * i + 1], &results[3 * i + 2]);
        let px = s.cycles() as f64 / p.cycles() as f64;
        let ux = s.cycles() as f64 / u.cycles() as f64;
        packed_x.push(px);
        unpacked_x.push(ux);
        let affine = p.cycles() == u.cycles() && p.committed == u.committed;
        // MAMR-Ind is the suite's only indirectly modified stream; every
        // other kernel must be bit-identical across packing modes.
        if bench.name() != "MAMR-Ind" {
            assert!(
                affine,
                "{}: affine kernel differs across packing modes \
                 (packed {} cyc / {} inst, unpacked {} cyc / {} inst)",
                bench.name(),
                p.cycles(),
                p.committed,
                u.cycles(),
                u.committed,
            );
        }
        row(
            bench.name(),
            &[
                format!("{}", p.cycles()),
                if affine {
                    "=".to_string()
                } else {
                    format!("{}", u.cycles())
                },
                format!("{px:.2}x"),
                format!("{ux:.2}x"),
                // Committed-instruction reduction from packing: < 1.0
                // means wider chunks retired fewer loop iterations.
                format!("{:.3}", p.committed as f64 / u.committed as f64),
            ],
        );
    }
    println!(
        "geomean speed-up vs scalar: packed {:.2}x, unpacked {:.2}x",
        geomean(&packed_x),
        geomean(&unpacked_x)
    );
    std::process::exit(runner.finish());
}
