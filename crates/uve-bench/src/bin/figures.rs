//! The paper's evaluation: Figs. 8–11, Sec. VI-B/VI-C, the
//! indirect-packing ablation, the model ablations and the DSP/sparse
//! families, run as one batch (`uve_bench::figures`).
//!
//! Usage: `figures [NAME...] [--panel a|b|c|d|e] [--json DIR]
//! [--jobs N | --serial] [--quiet] [--explain] [--timeout SECS]`.
//! `NAME` is one of `fig8`, `fig9`, `fig10`, `fig11`, `modules`,
//! `overheads`, `packing`, `ablations`, `dsp` (none: all). `--panel`
//! restricts Fig. 8 to one panel. `--json DIR` writes the drift-gated
//! `DIR/BENCH_fig8.json` (headline geomeans under packed and unpacked
//! indirect chunking, asserting the packed MAMR-Ind speedup stays ≥ 1.0×)
//! and `DIR/BENCH_dsp.json` for the selected figures.

use uve_bench::{figures, Cli, Runner};

fn main() {
    let cli = Cli::parse(&figures::USAGE);
    let runner = Runner::from_cli(&cli);
    figures::run(&figures::plan(&cli), &runner);
    std::process::exit(runner.finish());
}
