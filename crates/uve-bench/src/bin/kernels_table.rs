//! The paper's Fig. 8 left table: per-kernel domain, stream count and
//! memory access pattern, plus the measured UVE instruction mix (the Fig. 1
//! argument: baseline loops are dominated by memory/indexing overhead that
//! streaming removes).
//!
//! Usage: `kernels_table [--jobs N | --serial] [--quiet]`. The table needs
//! functional traces only (no timing replay): each point's mix is taken
//! from its trace on the worker pool, which drops the trace after, and the
//! rows are then formatted serially in suite order.

use uve_bench::{row, Cli, Point, Runner};
use uve_isa::ExecClass;
use uve_kernels::{evaluation_suite, Flavor};

fn mix(trace: &uve_core::Trace) -> (f64, f64, f64) {
    let mut mem = 0u64;
    let mut compute = 0u64;
    let mut control = 0u64;
    let mut other = 0u64;
    for (class, n) in trace.class_histogram() {
        match class {
            ExecClass::Load | ExecClass::Store => mem += n,
            ExecClass::FpAdd
            | ExecClass::FpMul
            | ExecClass::FpMac
            | ExecClass::FpDiv
            | ExecClass::VecInt
            | ExecClass::IntMul
            | ExecClass::IntDiv => compute += n,
            ExecClass::Branch => control += n,
            _ => other += n,
        }
    }
    let total = (mem + compute + control + other) as f64;
    (
        mem as f64 / total,
        compute as f64 / total,
        control as f64 / total,
    )
}

fn main() {
    println!("=== Fig. 8 (left) — benchmark table + measured instruction mix ===");
    row(
        "kernel",
        &[
            "domain".into(),
            "streams".into(),
            "pattern".into(),
            "UVE mem%".into(),
            "UVE comp%".into(),
            "scalar mem%".into(),
        ],
    );
    let runner = Runner::from_cli(&Cli::parse());
    let suite = evaluation_suite();
    let points: Vec<Point> = suite
        .iter()
        .flat_map(|b| [Flavor::Uve, Flavor::Scalar].map(|f| Point::new(b.as_ref(), f)))
        .collect();
    let mixes = runner.with_traces(&points, |_, cached| mix(&cached.trace));
    let code = runner.finish();
    if code != 0 {
        // A point that failed to emulate has no mix to print; stop at the
        // repro report instead.
        std::process::exit(code);
    }
    let mixes: Vec<_> = mixes.into_iter().map(Result::unwrap).collect();
    for (bench, pair) in suite.iter().zip(mixes.chunks_exact(2)) {
        let ((umem, ucomp, _), (smem, _, _)) = (pair[0], pair[1]);
        row(
            bench.name(),
            &[
                bench.domain().to_string(),
                bench.streams().to_string(),
                bench.pattern().to_string(),
                format!("{:.0}%", 100.0 * umem),
                format!("{:.0}%", 100.0 * ucomp),
                format!("{:.0}%", 100.0 * smem),
            ],
        );
    }
    println!(
        "\n(UVE loops carry almost no explicit memory instructions — the\n\
         streams moved them out of the pipeline, the paper's feature F2/F4.)"
    );
}
