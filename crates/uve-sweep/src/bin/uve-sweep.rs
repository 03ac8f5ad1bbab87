//! The distributed sweep service CLI.
//!
//! Subcommands:
//!
//! - `serve [--bind ADDR] [--workers N] [--max-attempts N] [--job-timeout S]
//!   [--cache-dir DIR | --no-persist] [--verbose]` — run a coordinator
//!   (prints `LISTEN <addr>` once bound; `--workers` spawns in-process
//!   worker threads so one command is a whole fleet). The result cache is
//!   durable by default (WAL + snapshots under `uve-sweep-cache/`, or
//!   `--cache-dir DIR`); `--no-persist` keeps it purely in memory;
//! - `worker --connect ADDR [--name S] [--die-after N] [--panic-on KERNEL]
//!   [--job-timeout S] [--verbose]` — run one worker against a
//!   coordinator;
//! - `run --connect ADDR <grid flags> [--expect-cached]` — submit a sweep
//!   and print the merged rows (stdout carries only the table, so it can
//!   be diffed against `serial`). Submission rides the reconnecting
//!   client: dropped connections and coordinator restarts back off and
//!   resubmit idempotently;
//! - `serial <grid flags>` — the in-process serial baseline, printing the
//!   byte-identical table any coordinator run must match;
//! - `fig8 --connect ADDR [--small]` — render the Fig. 8 speed-up panel
//!   from a distributed sweep;
//! - `ping --connect ADDR` / `shutdown --connect ADDR`.
//!
//! Grid flags (for `run`/`serial`): `--small`, `--kernels a,b,..`,
//! `--flavors uve,sve,neon,scalar`, `--levels l1,l2,mem`,
//! `--packings packed,unpacked`, `--fault-seeds 0,7,..`, `--cores 1,2,..`, `--vec-prfs 0,96,..`,
//! `--fifo-depths 0,16,..`. Unset axes take their defaults.

use std::process::ExitCode;
use std::time::Duration;

use uve_bench::geomean;
use uve_core::IndirectPacking;
use uve_isa::MemLevel;
use uve_kernels::Flavor;
use uve_sweep::{
    ping, render_rows, request_sweep, request_sweep_resilient, run_serial, run_worker, shutdown,
    Coordinator, CoordinatorOptions, ReconnectPolicy, SweepSpec, WorkerOptions,
};

fn fail(msg: &str) -> ExitCode {
    eprintln!("uve-sweep: {msg}");
    ExitCode::FAILURE
}

/// Pulls `--flag value` out of `args`, removing both tokens.
fn take_opt(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("uve-sweep: {flag} needs a value");
        std::process::exit(2);
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

/// Pulls a boolean `--flag` out of `args`.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn parse_list<T>(s: &str, what: &str, f: impl Fn(&str) -> Option<T>) -> Result<Vec<T>, String> {
    s.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| f(p.trim()).ok_or_else(|| format!("bad {what}: {p:?}")))
        .collect()
}

fn parse_level(s: &str) -> Option<MemLevel> {
    match s.to_ascii_lowercase().as_str() {
        "l1" => Some(MemLevel::L1),
        "l2" => Some(MemLevel::L2),
        "mem" | "dram" => Some(MemLevel::Mem),
        _ => None,
    }
}

fn parse_packing(s: &str) -> Option<IndirectPacking> {
    match s.to_ascii_lowercase().as_str() {
        "packed" => Some(IndirectPacking::Packed),
        "unpacked" => Some(IndirectPacking::Unpacked),
        _ => None,
    }
}

/// Builds a [`SweepSpec`] from the shared grid flags.
fn grid_spec(args: &mut Vec<String>) -> Result<SweepSpec, String> {
    let mut spec = SweepSpec {
        small: take_flag(args, "--small"),
        ..SweepSpec::default()
    };
    if let Some(v) = take_opt(args, "--kernels") {
        spec.kernels = v.split(',').map(|s| s.trim().to_string()).collect();
    }
    if let Some(v) = take_opt(args, "--flavors") {
        spec.flavors = parse_list(&v, "flavor", |s| s.parse().ok())?;
    }
    if let Some(v) = take_opt(args, "--levels") {
        spec.levels = parse_list(&v, "level", parse_level)?;
    }
    if let Some(v) = take_opt(args, "--packings") {
        spec.packings = parse_list(&v, "packing", parse_packing)?;
    }
    if let Some(v) = take_opt(args, "--fault-seeds") {
        spec.fault_seeds = parse_list(&v, "fault seed", |s| s.parse().ok())?;
    }
    if let Some(v) = take_opt(args, "--cores") {
        spec.cores = parse_list(&v, "core count", |s| s.parse().ok())?;
    }
    if let Some(v) = take_opt(args, "--vec-prfs") {
        spec.vec_prfs = parse_list(&v, "vec-prf", |s| s.parse().ok())?;
    }
    if let Some(v) = take_opt(args, "--fifo-depths") {
        spec.fifo_depths = parse_list(&v, "fifo depth", |s| s.parse().ok())?;
    }
    Ok(spec)
}

fn need_connect(args: &mut Vec<String>) -> Result<String, String> {
    take_opt(args, "--connect").ok_or_else(|| "--connect ADDR is required".to_string())
}

fn secs(v: Option<String>, what: &str) -> Result<Option<Duration>, String> {
    v.map(|s| {
        s.parse::<u64>()
            .map(Duration::from_secs)
            .map_err(|_| format!("bad {what}: {s:?}"))
    })
    .transpose()
}

fn cmd_serve(mut args: Vec<String>) -> Result<(), String> {
    let bind = take_opt(&mut args, "--bind").unwrap_or_else(|| "127.0.0.1:0".to_string());
    let workers: usize = take_opt(&mut args, "--workers")
        .map(|s| s.parse().map_err(|_| format!("bad --workers: {s:?}")))
        .transpose()?
        .unwrap_or(0);
    let verbose = take_flag(&mut args, "--verbose");
    let mut opts = CoordinatorOptions {
        quiet: !verbose,
        ..CoordinatorOptions::default()
    };
    if let Some(n) = take_opt(&mut args, "--max-attempts") {
        opts.max_attempts = n
            .parse()
            .map_err(|_| format!("bad --max-attempts: {n:?}"))?;
    }
    if let Some(t) = secs(take_opt(&mut args, "--job-timeout"), "--job-timeout")? {
        opts.job_timeout = t;
    }
    let cache_dir = take_opt(&mut args, "--cache-dir");
    let no_persist = take_flag(&mut args, "--no-persist");
    if cache_dir.is_some() && no_persist {
        return Err("--cache-dir and --no-persist are mutually exclusive".to_string());
    }
    // Durable by default: crash-safety should not require remembering a
    // flag. `--no-persist` restores the purely in-memory cache.
    opts.cache_dir = if no_persist {
        None
    } else {
        Some(
            cache_dir
                .unwrap_or_else(|| "uve-sweep-cache".to_string())
                .into(),
        )
    };
    reject_leftovers(&args)?;
    let coordinator = Coordinator::bind(&bind, opts).map_err(|e| format!("bind {bind}: {e}"))?;
    if let Some(report) = coordinator.recovery() {
        eprintln!(
            "uve-sweep: recovered {} cached rows ({} from snapshot, {} from WAL){}{}",
            report.rows(),
            report.snapshot_rows,
            report.wal_rows,
            if report.corrupt_records > 0 {
                format!("; skipped {} corrupt records", report.corrupt_records)
            } else {
                String::new()
            },
            if report.truncated_tail {
                "; dropped a torn WAL tail"
            } else {
                ""
            },
        );
    }
    let addr = coordinator.local_addr();
    // The smoke scripts and tests parse this line for the ephemeral port.
    println!("LISTEN {addr}");
    let mut fleet = Vec::new();
    for i in 0..workers {
        let worker_opts = WorkerOptions {
            name: format!("inproc-{i}"),
            quiet: !verbose,
            ..WorkerOptions::default()
        };
        let worker_addr = addr.to_string();
        fleet.push(std::thread::spawn(move || {
            if let Err(e) = run_worker(&worker_addr, &worker_opts) {
                eprintln!("uve-sweep: in-process worker {i}: {e}");
            }
        }));
    }
    while !coordinator.is_shutdown() {
        std::thread::sleep(Duration::from_millis(100));
    }
    coordinator.shutdown();
    for h in fleet {
        let _ = h.join();
    }
    Ok(())
}

fn cmd_worker(mut args: Vec<String>) -> Result<(), String> {
    let addr = need_connect(&mut args)?;
    let mut opts = WorkerOptions {
        quiet: !take_flag(&mut args, "--verbose"),
        ..WorkerOptions::default()
    };
    if let Some(n) = take_opt(&mut args, "--name") {
        opts.name = n;
    }
    if let Some(n) = take_opt(&mut args, "--die-after") {
        opts.die_after = Some(n.parse().map_err(|_| format!("bad --die-after: {n:?}"))?);
    }
    if let Some(k) = take_opt(&mut args, "--panic-on") {
        opts.panic_on = Some(k);
    }
    if let Some(t) = secs(take_opt(&mut args, "--job-timeout"), "--job-timeout")? {
        opts.job_timeout = t;
    }
    reject_leftovers(&args)?;
    run_worker(&addr, &opts)
}

fn cmd_run(mut args: Vec<String>) -> Result<(), String> {
    let addr = need_connect(&mut args)?;
    let expect_cached = take_flag(&mut args, "--expect-cached");
    let quiet = take_flag(&mut args, "--quiet");
    let spec = grid_spec(&mut args)?;
    reject_leftovers(&args)?;
    let outcome = request_sweep_resilient(
        || addr.clone(),
        &spec,
        &ReconnectPolicy::default(),
        |done, total, cached| {
            if !quiet {
                eprintln!("progress: {done}/{total} ({cached} cached)");
            }
        },
    )
    .map_err(|e| e.to_string())?;
    // Stdout carries only the table, byte-identical to `serial`.
    print!("{}", render_rows(&outcome.rows));
    eprintln!(
        "stats: total={} cached={} joined={} executed={} retries={} worker_deaths={} emulations={}",
        outcome.stats.total,
        outcome.stats.cached,
        outcome.stats.joined,
        outcome.stats.executed,
        outcome.stats.retries,
        outcome.stats.worker_deaths,
        outcome.stats.emulations,
    );
    if expect_cached && outcome.stats.cached != outcome.stats.total {
        return Err(format!(
            "expected a fully cached sweep, but only {}/{} points hit the cache",
            outcome.stats.cached, outcome.stats.total
        ));
    }
    Ok(())
}

fn cmd_serial(mut args: Vec<String>) -> Result<(), String> {
    let spec = grid_spec(&mut args)?;
    reject_leftovers(&args)?;
    let (rows, emulations) = run_serial(&spec)?;
    print!("{}", render_rows(&rows));
    eprintln!("stats: total={} emulations={emulations}", rows.len());
    Ok(())
}

/// Fig. 8 panel B (speed-up over scalar) rendered from a distributed
/// sweep: one request covering the whole catalog in both flavours; the
/// coordinator shards it, and the client reduces the merged rows.
fn cmd_fig8(mut args: Vec<String>) -> Result<(), String> {
    let addr = need_connect(&mut args)?;
    let spec = SweepSpec {
        small: take_flag(&mut args, "--small"),
        flavors: vec![Flavor::Uve, Flavor::Scalar],
        ..SweepSpec::default()
    };
    reject_leftovers(&args)?;
    let outcome = request_sweep(&addr, &spec, |_, _, _| {})?;
    println!("=== Fig. 8.B speed-up over scalar (distributed sweep) ===");
    let mut ratios = Vec::new();
    // Canonical order: for each kernel, Uve then Scalar.
    for pair in outcome.rows.chunks(2) {
        let [uve, scalar] = pair else { continue };
        let speedup = scalar.cycles as f64 / uve.cycles as f64;
        ratios.push(speedup);
        println!("{:<16} {speedup:>8.2}x", uve.point.kernel);
    }
    println!("{:<16} {:>8.2}x", "geomean", geomean(&ratios));
    Ok(())
}

fn reject_leftovers(args: &[String]) -> Result<(), String> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(format!("unrecognized arguments: {args:?}"))
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: uve-sweep <serve|worker|run|serial|fig8|ping|shutdown> [options]\n\
         see crate docs (src/bin/uve-sweep.rs) for the full flag list"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage();
    }
    let cmd = args.remove(0);
    let result = match cmd.as_str() {
        "serve" => cmd_serve(args),
        "worker" => cmd_worker(args),
        "run" => cmd_run(args),
        "serial" => cmd_serial(args),
        "fig8" => cmd_fig8(args),
        "ping" => {
            let mut args = args;
            need_connect(&mut args).and_then(|addr| ping(&addr).map(|()| println!("PONG {addr}")))
        }
        "shutdown" => {
            let mut args = args;
            need_connect(&mut args).and_then(|addr| shutdown(&addr))
        }
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}
