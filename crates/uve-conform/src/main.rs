//! `uve-conform` — offline differential fuzzer for the UVE reproduction.
//!
//! ```text
//! uve-conform [--engine pattern|isa|asm|kernel|stats|fault|smp|sweep|timing|all] [--seed N]
//!             [--cases N] [--jobs N | --serial] [--quiet]
//! ```
//!
//! Output is deterministic for a given `(engine, seed, cases)` triple:
//! cases are numbered, each case derives its RNG from `(seed, engine,
//! index)` alone, and failures are reported in case order — so `--jobs 1`
//! and `--jobs 8` print bit-identical reports. Exit status is the number
//! of failing engines (0 on full success), making the binary usable as a
//! CI gate.

use std::process::ExitCode;
use uve_bench::{default_jobs, RunMode};
use uve_conform::{
    asm_fuzz::AsmEngine, fault_fuzz::FaultEngine, isa_fuzz::IsaEngine, kernel_diff::KernelEngine,
    pattern_fuzz::PatternEngine, smp_fuzz::SmpEngine, stats_diff::StatsEngine,
    sweep_fuzz::SweepEngine, timing_bounds::TimingEngine,
};

const USAGE: &str =
    "usage: uve-conform [--engine pattern|isa|asm|kernel|stats|fault|smp|sweep|timing|all] \
                     [--seed N] [--cases N] [--jobs N | --serial] [--quiet]";

struct Opts {
    engine: String,
    seed: u64,
    cases: u64,
    mode: RunMode,
    quiet: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        engine: "all".to_string(),
        seed: 7,
        cases: 1000,
        mode: RunMode::Parallel(default_jobs()),
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--engine" => opts.engine = value("--engine")?,
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--cases" => {
                opts.cases = value("--cases")?
                    .parse()
                    .map_err(|e| format!("bad --cases: {e}"))?;
            }
            "--jobs" => {
                let n: usize = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("bad --jobs: {e}"))?;
                opts.mode = if n <= 1 {
                    RunMode::Serial
                } else {
                    RunMode::Parallel(n)
                };
            }
            "--serial" => opts.mode = RunMode::Serial,
            "--quiet" => opts.quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    match opts.engine.as_str() {
        "pattern" | "isa" | "asm" | "kernel" | "stats" | "fault" | "smp" | "sweep" | "timing"
        | "all" => Ok(opts),
        other => Err(format!("unknown engine {other:?}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let run_pattern = matches!(opts.engine.as_str(), "pattern" | "all");
    let run_isa = matches!(opts.engine.as_str(), "isa" | "all");
    let run_asm = matches!(opts.engine.as_str(), "asm" | "all");
    let run_kernel = matches!(opts.engine.as_str(), "kernel" | "all");
    let run_stats = matches!(opts.engine.as_str(), "stats" | "all");
    let run_fault = matches!(opts.engine.as_str(), "fault" | "all");
    let run_smp = matches!(opts.engine.as_str(), "smp" | "all");
    let run_sweep = matches!(opts.engine.as_str(), "sweep" | "all");
    let run_timing = matches!(opts.engine.as_str(), "timing" | "all");

    let mut failed_engines = 0u8;
    let mut report = |r: uve_conform::EngineReport| {
        if !r.failures.is_empty() {
            failed_engines += 1;
        }
        if !opts.quiet || !r.failures.is_empty() {
            println!("{}", r.render());
        }
    };

    if run_pattern {
        report(uve_conform::run_engine::<PatternEngine>(
            opts.seed, opts.cases, opts.mode,
        ));
    }
    if run_isa {
        report(uve_conform::run_engine::<IsaEngine>(
            opts.seed, opts.cases, opts.mode,
        ));
    }
    if run_asm {
        // Pure text/codec work, no emulation: full case budget.
        report(uve_conform::run_engine::<AsmEngine>(
            opts.seed, opts.cases, opts.mode,
        ));
    }
    if run_kernel {
        report(uve_conform::run_engine::<KernelEngine>(
            opts.seed, opts.cases, opts.mode,
        ));
    }
    if run_stats {
        // Each stats case runs the timing model four times (two passes ×
        // two runner modes), so under `all` it gets a tenth of the case
        // budget; an explicit `--engine stats` runs the full count.
        let cases = if opts.engine == "all" {
            (opts.cases / 10).max(1)
        } else {
            opts.cases
        };
        report(uve_conform::run_engine::<StatsEngine>(
            opts.seed, cases, opts.mode,
        ));
    }
    if run_fault {
        // Each fault case emulates the kernel at least twice and replays
        // the faulted trace once, so it gets the same reduced budget as
        // the stats engine under `all`.
        let cases = if opts.engine == "all" {
            (opts.cases / 10).max(1)
        } else {
            opts.cases
        };
        report(uve_conform::run_engine::<FaultEngine>(
            opts.seed, cases, opts.mode,
        ));
    }
    if run_smp {
        // Each smp case runs the timing model 2·cores + 2 times plus the
        // functional scheduler, so it gets a twentieth of the case budget
        // under `all`; an explicit `--engine smp` runs the full count.
        let cases = if opts.engine == "all" {
            (opts.cases / 20).max(1)
        } else {
            opts.cases
        };
        report(uve_conform::run_engine::<SmpEngine>(
            opts.seed, cases, opts.mode,
        ));
    }
    if run_sweep {
        // Sweep cases are pure codec and merge work (no emulation), so
        // they run at the full case budget even under `all`.
        report(uve_conform::run_engine::<SweepEngine>(
            opts.seed, opts.cases, opts.mode,
        ));
    }

    if run_timing {
        // Each timing case replays the kernel twice (warm) or on two
        // cores, so it gets the stats engine's tenth of the budget under
        // `all`.
        let cases = if opts.engine == "all" {
            (opts.cases / 10).max(1)
        } else {
            opts.cases
        };
        report(uve_conform::run_engine::<TimingEngine>(
            opts.seed, cases, opts.mode,
        ));
    }

    ExitCode::from(failed_engines)
}
