//! Fig. 8 — the main evaluation (panels A–E).
//!
//! Usage: `fig8 [--panel a|b|c|d|e] [--json PATH] [--jobs N | --serial]
//! [--quiet]` (default: all panels, one worker per core). `--json PATH`
//! additionally writes the headline geomeans (packed and unpacked
//! indirect chunking) and the MAMR-Ind observables to `PATH`, asserting
//! the packed MAMR-Ind speedup stays ≥ 1.0×.

use uve_bench::{Cli, Runner};

fn main() {
    let cli = Cli::parse();
    let panel = cli.value("--panel").map(str::to_string);
    let json = cli.value("--json").map(str::to_string);
    let runner = Runner::from_cli(&cli);
    uve_bench::figures::fig8(panel.as_deref(), json.as_deref(), &runner);
    std::process::exit(runner.finish());
}
