//! Multicore scaling figure: MOESI-coherent cores sharing the L2/DRAM.
//!
//! Two modes over the evaluation suite:
//!
//! - **sharded** (data-parallel): every core runs the same kernel with its
//!   written working set relocated to a private address-space slice except
//!   for a shared prefix of lines, so the snoop bus carries real
//!   cross-core invalidations, downgrades and owner forwards;
//! - **mp** (multi-programmed): more kernels than cores, round-robin
//!   preemptive time slicing with pipeline drain and stream-context
//!   restore penalties.
//!
//! ```text
//! smp [--mode sharded|mp|both] [--cores 1,2,4] [--kernels a,b,c]
//!     [--flavor uve|sve|neon|scalar] [--shared N] [--quantum N]
//!     [--check-every N] [--small] [--jobs N | --serial] [--quiet]
//!     [--explain] [--timeout SECS]
//! ```
//!
//! Scheduling is deterministic: `--jobs 1` and `--jobs 8` print
//! bit-identical tables (the worker pool only reorders wall-clock time,
//! results are written back by point index).

use std::sync::Arc;

use uve_bench::{header, row, usage_error, CachedTrace, Cli, Measured, Point, Runner, Usage};
use uve_cpu::CpuConfig;
use uve_kernels::{Benchmark, Flavor};
use uve_smp::{relocate_trace, run_multiprogrammed, run_sharded, MpConfig, SmpRun};

/// The 19-kernel evaluation suite, optionally at smoke-test sizes.
fn suite(small: bool) -> Vec<Box<dyn Benchmark>> {
    if small {
        uve_kernels::small_evaluation_suite()
    } else {
        uve_kernels::evaluation_suite()
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let cli = Cli::parse(&Usage {
        switches: &["--small", "--serial", "--quiet", "--explain"],
        values: &[
            "--mode",
            "--cores",
            "--kernels",
            "--flavor",
            "--shared",
            "--quantum",
            "--check-every",
            "--jobs",
            "--timeout",
        ],
        positional: 0,
    });
    let runner = Runner::from_cli(&cli);
    let mode = cli.value("--mode").unwrap_or("both").to_string();
    if !matches!(mode.as_str(), "sharded" | "mp" | "both") {
        usage_error(&format!(
            "unknown --mode {mode:?}: expected sharded, mp, or both"
        ));
    }
    let mut cores: Vec<usize> = cli.parsed_list("--cores");
    if cores.is_empty() {
        cores = vec![1, 2, 4];
    }
    // The sharded mode defaults to scalar code: explicit loads/stores run
    // through the private L1s, which is where MOESI sharing lives. Stream
    // (UVE) traffic exercises the snoop bus through the L2 owner-probe
    // path instead.
    let flavor: Flavor = cli
        .value("--flavor")
        .unwrap_or("scalar")
        .parse()
        .unwrap_or_else(|e: String| usage_error(&e));
    let shared = cli.parsed::<usize>("--shared").unwrap_or(16);
    let quantum = cli.parsed::<u64>("--quantum").unwrap_or(5_000);
    let check_every = cli.parsed::<u64>("--check-every").unwrap_or(0);
    let filter = cli.list("--kernels");

    let suite = suite(cli.has("--small"));
    let selected: Vec<&dyn Benchmark> = suite
        .iter()
        .map(AsRef::as_ref)
        .filter(|b| filter.is_empty() || filter.iter().any(|f| b.name().eq_ignore_ascii_case(f)))
        .collect();
    if selected.is_empty() {
        eprintln!("no kernels selected; suite:");
        for b in &suite {
            eprintln!("  {}", b.name());
        }
        std::process::exit(2);
    }

    let cpu = CpuConfig::default();
    let points: Vec<Point> = selected.iter().map(|b| Point::new(*b, flavor)).collect();
    // The multiprogrammed mode runs every trace at once, so both modes
    // keep the traces they are handed here.
    let traces = runner.with_traces(&points, |_, cached| Arc::clone(cached));
    let code = runner.finish();
    if code != 0 {
        std::process::exit(code);
    }
    let traces: Vec<Arc<CachedTrace>> = traces.into_iter().map(Result::unwrap).collect();

    if mode == "sharded" || mode == "both" {
        let cols: Vec<String> = cores
            .iter()
            .flat_map(|c| [format!("cycles@{c}"), format!("snoops@{c}")])
            .chain(["scaling".to_string()])
            .collect();
        header(
            &format!("Multicore scaling — sharded {flavor} kernels (shared prefix {shared} lines)"),
            &cols.iter().map(String::as_str).collect::<Vec<_>>(),
        );
        // One sweep point per kernel; all core counts inside the point so
        // a row is self-contained.
        let runs: Vec<Vec<SmpRun>> = uve_bench::run_indexed(runner.mode(), selected.len(), |i| {
            cores
                .iter()
                .map(|&n| {
                    run_sharded(&cpu, &traces[i].trace, n, shared, check_every)
                        .expect("single-writer MOESI invariant violated")
                })
                .collect()
        });
        let mut explained: Vec<Measured> = Vec::new();
        for (bench, per_cores) in selected.iter().zip(&runs) {
            let mut cells = Vec::new();
            for (n, r) in cores.iter().zip(per_cores) {
                let snoops: u64 = r.snoop.iter().map(|s| s.cross_core_events()).sum();
                cells.push(r.makespan.to_string());
                cells.push(snoops.to_string());
                for (core, s) in r.per_core.iter().enumerate() {
                    s.account
                        .check(s.cycles)
                        .expect("per-core cycle accounting must conserve");
                    explained.push(Measured {
                        name: format!("{}@{n}c/core{core}", bench.name()),
                        flavor,
                        committed: s.committed,
                        stats: s.clone(),
                    });
                }
            }
            let first = per_cores.first().map_or(0, |r| r.makespan);
            let last = per_cores.last().map_or(0, |r| r.makespan);
            // Weak scaling: every core runs the whole kernel on its own
            // slice, so 1.00x means the extra cores added no interference.
            cells.push(if last == 0 {
                "-".to_string()
            } else {
                format!("{:.2}x", first as f64 / last as f64)
            });
            row(bench.name(), &cells);
        }
        runner.maybe_explain(&explained);
        println!(
            "\n(Weak scaling: every core runs the whole kernel on a private\n\
             slice plus the shared write prefix, so 1.00x is perfect.\n\
             snoops@N sums cross-core invalidations, downgrades and owner\n\
             forwards — the shared prefix keeps the snoop bus live.)"
        );
    }

    if mode == "mp" || mode == "both" {
        println!(
            "\n=== Multiprogramming — {} mixed kernels, quantum {quantum} ===",
            selected.len()
        );
        row(
            "cores",
            &["ticks", "preempt(min)", "preempt(total)", "snoop-bus"].map(str::to_string),
        );
        let mp_runs = uve_bench::run_indexed(runner.mode(), cores.len(), |i| {
            // Each program gets its own address-space slot, as unrelated
            // processes would; only migration and capacity effects remain.
            let relocated: Vec<_> = traces
                .iter()
                .enumerate()
                .map(|(slot, t)| relocate_trace(&t.trace, slot))
                .collect();
            let refs: Vec<&uve_core::Trace> = relocated.iter().collect();
            let cfg = MpConfig {
                cores: cores[i],
                quantum,
                restore_penalty: 200,
                check_every,
            };
            run_multiprogrammed(&cpu, &refs, &cfg).expect("single-writer MOESI invariant violated")
        });
        for (n, r) in cores.iter().zip(&mp_runs) {
            for p in &r.programs {
                p.stats
                    .account
                    .check(p.stats.cycles)
                    .expect("per-program cycle accounting must conserve");
            }
            let min = r.programs.iter().map(|p| p.preemptions).min().unwrap_or(0);
            let total: u64 = r.programs.iter().map(|p| p.preemptions).sum();
            row(
                &n.to_string(),
                &[
                    r.scheduler_ticks.to_string(),
                    min.to_string(),
                    total.to_string(),
                    r.bus_transactions.to_string(),
                ],
            );
        }
        println!(
            "\n(Each program keeps one pipeline across slices: quantum expiry\n\
             freezes fetch, the window drains, and the next slice is charged\n\
             a stream-context restore penalty it spends occupying the\n\
             core. More cores shorten the makespan until the mix fits.)"
        );
    }
}
