//! Chrome trace-event export of one kernel run.
//!
//! ```text
//! cargo run --release --bin trace -- <kernel> [flavor] [--out FILE]
//! cargo run --release --bin trace -- --tiny-saxpy [--out FILE]
//! ```
//!
//! `<kernel>` matches an evaluation-suite kernel name case-insensitively
//! (e.g. `saxpy`, `mamr-ind`); `[flavor]` is `uve` (default), `sve`,
//! `neon`, or `scalar`. The JSON goes to `--out FILE` or stdout, and loads
//! in `chrome://tracing` or <https://ui.perfetto.dev>. `--tiny-saxpy` is
//! the golden-snapshot subject of `tests/golden_trace.rs`.

use uve_bench::{tiny_saxpy_trace, trace_kernel, usage_error, Cli, Usage};
use uve_kernels::{evaluation_suite, Flavor};

fn main() {
    let cli = Cli::parse(&Usage {
        switches: &["--tiny-saxpy"],
        values: &["--out"],
        positional: 2,
    });
    let out_path = cli.value("--out").map(str::to_string);
    let free = cli.positional();

    let json = if cli.has("--tiny-saxpy") {
        tiny_saxpy_trace()
    } else {
        let Some(kernel) = free.first() else {
            eprintln!(
                "usage: trace <kernel> [uve|sve|neon|scalar] [--out FILE] | trace --tiny-saxpy"
            );
            eprintln!("kernels:");
            for b in evaluation_suite() {
                eprintln!("  {}", b.name());
            }
            std::process::exit(2);
        };
        let flavor = free
            .get(1)
            .map_or(Ok(Flavor::Uve), |f| f.parse())
            .unwrap_or_else(|e: String| usage_error(&e));
        let suite = evaluation_suite();
        let Some(bench) = suite.iter().find(|b| b.name().eq_ignore_ascii_case(kernel)) else {
            eprintln!("unknown kernel {kernel:?}; kernels:");
            for b in &suite {
                eprintln!("  {}", b.name());
            }
            std::process::exit(2);
        };
        eprintln!("[trace] {} / {flavor}: tracing one cold run…", bench.name());
        trace_kernel(bench.as_ref(), flavor)
    };

    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!("error: writing trace to {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("[trace] wrote {} bytes to {path}", json.len());
        }
        None => print!("{json}"),
    }
}
