//! End-to-end and per-layer benchmark of the UVE simulator and the
//! `uve-sweep` service.
//!
//! ```text
//! uve-perfbench --workload sweep-service|sweep-cached \
//!               --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Every layer is
//! measured from outside, by timing calls into each crate's public
//! functions; no crate is changed. `NOTES.md` describes the workloads and
//! what each metric should move.

mod measure;
mod service;
mod traced;

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use measure::{median, quantile, result_json, secs, Metrics};
use service::Mix;
use traced::{ReplayTotals, Tracer};
use uve_core::{EmuConfig, Emulator};
use uve_kernels::Flavor;

/// Each run times this many set-ups, its rounds' and extra ones, and
/// reports their median as `setup_s`. Every set-up is followed by a
/// shutdown that syncs the cache to disk, so many more would load the disk
/// that the next set-ups write to.
const SETUP_REPS: usize = 101;
/// Times a traced run builds the small catalog for `kernels.build_ms`.
const BUILD_REPS: usize = 21;

/// The end-to-end metrics every workload prints with `--trace 0`.
const END_TO_END: [&str; 10] = [
    "setup_s",
    "stream_s",
    "cpu_s",
    "peak_rss_mb",
    "sim_minst_per_s",
    "sim_cycles",
    "ok_frac",
    "req_p50_ms",
    "req_p99_ms",
    "paper_err_pct",
];

/// The workloads.
const WORKLOADS: [Mix; 2] = [Mix::Cold, Mix::Warm];

/// Command-line arguments.
struct Args {
    mix: Mix,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let names = WORKLOADS.map(Mix::name);
    let mix = WORKLOADS
        .into_iter()
        .find(|m| m.name() == workload)
        .ok_or(format!("unknown workload {workload:?}; one of {names:?}"))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("bad {flag}: {e}"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?}: 0 or 1")),
    };
    Ok(Args {
        mix,
        seed: number("--seed")?,
        seconds: number("--seconds")? as f64,
        trace,
    })
}

/// Where the benchmark writes spans and the service's cache directories:
/// under the cargo target directory of the checkout.
fn out_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    PathBuf::from(target).join("perfbench")
}

/// Per-layer measurements of one traced run (zero where a workload does
/// not exercise a layer).
#[derive(Debug, Default)]
pub struct Layers {
    /// Median seconds in `Benchmark::program` + `setup` per set-up.
    pub build_s: f64,
    /// Emulations, their seconds, and what they produced.
    pub emu_calls: u64,
    /// See `emu_calls`.
    pub emu_s: f64,
    /// See `emu_calls`.
    pub emu_insts: u64,
    /// See `emu_calls`.
    pub trace_ops: u64,
    /// See `emu_calls`.
    pub trace_bytes: u64,
    /// Trace-cache lookups (one per job).
    pub jobs: u64,
    /// Trace bytes the runner holds at the end of the pass.
    pub resident_trace_bytes: u64,
    /// `uve-smp` lockstep runs and their seconds.
    pub smp_points: u64,
    /// See `smp_points`.
    pub smp_s: f64,
    /// `job_key` seconds and the rows they keyed.
    pub key_s: f64,
    /// See `key_s`.
    pub key_rows: u64,
    /// The service round's own counters.
    pub round: service::Round,
    /// Wall seconds of the untraced and traced runs of the same work.
    pub untraced_wall_s: f64,
    /// See `untraced_wall_s`.
    pub traced_wall_s: f64,
    /// Wall seconds of the work the tracer decomposed.
    pub decomposed_s: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, from a traced run's measurements.
fn per_layer_metrics(l: &Layers, t: &ReplayTotals) -> Metrics {
    const MIB: f64 = 1024.0 * 1024.0;
    let port = t.port.total();
    let mut m = Metrics::default();
    m.put("kernels.build_ms", l.build_s * 1e3, "ms");
    m.put("emu.calls", l.emu_calls as f64, "count");
    m.put("emu.busy_s", l.emu_s, "s");
    m.put(
        "emu.minst_per_s",
        ratio(l.emu_insts as f64 / 1e6, l.emu_s),
        "Minst/s",
    );
    m.put("emu.trace_mb", l.trace_bytes as f64 / MIB, "MiB");
    m.put(
        "emu.trace_bytes_per_op",
        ratio(l.trace_bytes as f64, l.trace_ops as f64),
        "B/op",
    );
    m.put("runner.jobs", l.jobs as f64, "count");
    m.put(
        "runner.trace_hit_ratio",
        ratio((l.jobs - l.emu_calls.min(l.jobs)) as f64, l.jobs as f64),
        "ratio",
    );
    m.put(
        "runner.resident_trace_mb",
        l.resident_trace_bytes as f64 / MIB,
        "MiB",
    );
    m.put("pipeline.busy_s", t.pipeline_ns() as f64 / 1e9, "s");
    m.put("pipeline.steps", t.steps as f64, "count");
    m.put(
        "pipeline.ns_per_step.uve",
        ratio(t.pipeline_ns_uve as f64, t.steps_uve as f64),
        "ns/step",
    );
    m.put(
        "pipeline.ns_per_step.base",
        ratio(t.pipeline_ns_base as f64, t.steps_base as f64),
        "ns/step",
    );
    m.put(
        "pipeline.nocommit_step_frac",
        ratio(t.nocommit_steps as f64, t.steps as f64),
        "ratio",
    );
    m.put("engine.mem_calls", t.port.stream.calls as f64, "count");
    m.put("engine.mem_busy_s", t.port.stream.ns as f64 / 1e9, "s");
    m.put("mem.calls.core", t.port.core.calls as f64, "count");
    m.put("mem.busy_s", port.ns as f64 / 1e9, "s");
    m.put(
        "mem.ns_per_call",
        ratio(port.ns as f64, port.calls as f64),
        "ns/call",
    );
    m.put("mem.new_ms", t.mem_new_ns as f64 / 1e6, "ms");
    let miss = |(hits, misses): (u64, u64)| ratio(misses as f64, (hits + misses) as f64);
    m.put("mem.l1_miss_ratio", miss(t.l1), "ratio");
    m.put("mem.l2_miss_ratio", miss(t.l2), "ratio");
    m.put("mem.dram_lines", t.dram_lines as f64, "count");
    m.put("smp.points", l.smp_points as f64, "count");
    m.put("smp.busy_s", l.smp_s, "s");
    let r = &l.round;
    m.put("sweep.rows", r.rows as f64, "count");
    m.put(
        "sweep.hit_ratio",
        ratio(r.cached_rows as f64, r.rows as f64),
        "ratio",
    );
    m.put("sweep.rows_executed", r.executed_rows as f64, "count");
    m.put("sweep.emulations", r.emulations as f64, "count");
    m.put("sweep.retries", r.retries as f64, "count");
    m.put(
        "sweep.key_us_per_row",
        ratio(l.key_s * 1e6, l.key_rows as f64),
        "us/row",
    );
    m.put("sweep.wal_bytes", r.wal_bytes as f64, "B");
    m.put(
        "sweep.overhead_ms_per_row",
        ratio(r.hit_req_s * 1e3, r.hit_req_rows as f64),
        "ms/row",
    );
    m.put(
        "trace.overhead_ratio",
        ratio(l.traced_wall_s, l.untraced_wall_s),
        "ratio",
    );
    m.put("trace.untraced_wall_s", l.untraced_wall_s, "s");
    let d = l.decomposed_s;
    m.put("share.emu_pct", 100.0 * ratio(l.emu_s, d), "%");
    m.put(
        "share.replay_pct",
        100.0 * ratio(t.replay_ns as f64 / 1e9, d),
        "%",
    );
    m.put("share.smp_pct", 100.0 * ratio(l.smp_s, d), "%");
    m.put(
        "share.mem_of_replay_pct",
        100.0 * ratio(port.ns as f64, t.replay_ns as f64),
        "%",
    );
    m.put(
        "share.pipeline_of_replay_pct",
        100.0 * ratio(t.pipeline_ns() as f64, t.replay_ns as f64),
        "%",
    );
    m
}

/// The printed result of one run.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// Writes the span log of a traced run under [`out_dir`].
fn write_spans(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.mix.name(), args.seed));
    std::fs::write(&path, tracer.spans.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Computes the reference rows, fills the cache of `sweep-cached`, runs
/// the measured rounds, then removes the service's cache directory.
fn run_service(args: &Args) -> Result<Outcome, String> {
    let mix = args.mix;
    let reference = service::Reference::compute()?;
    eprintln!(
        "{}: output digest {:016x}",
        mix.name(),
        reference.output_digest
    );
    let dir = out_dir().join(format!("svc-{}", std::process::id()));
    if mix == Mix::Warm {
        service::fill_cache(&dir)?;
    }
    let result = measure_service(args, &reference, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Runs rounds of the workload against the service in `dir` for
/// `args.seconds`, or one untraced and one traced round with `--trace 1`,
/// and turns them into metrics.
fn measure_service(
    args: &Args,
    reference: &service::Reference,
    dir: &Path,
) -> Result<Outcome, String> {
    let mix = args.mix;
    let mut setup_s = Vec::new();
    let mut rounds = Vec::new();
    let specs = service::stream(mix, args.seed);
    let t_measure = Instant::now();
    loop {
        let n = rounds.len() as u64;
        let round = service::run_round(mix, &specs, n, dir, reference, None)?;
        eprintln!(
            "{}: round {}: {:.3} s wall, {:.3} s cpu, {:.1} MiB peak",
            mix.name(),
            n + 1,
            round.wall_s,
            round.cpu_s,
            round.peak_rss_mb
        );
        setup_s.push(round.setup_s);
        rounds.push(round);
        let round_s = median(
            &rounds
                .iter()
                .map(|r| r.wall_s + r.setup_s)
                .collect::<Vec<_>>(),
        );
        if args.trace || (secs(t_measure) + round_s > args.seconds) {
            break;
        }
    }
    let attempted: u64 = rounds.iter().map(|r| r.lat_ms.len() as u64).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();

    if args.trace {
        // The same round again with spans, for the tracing overhead; then
        // the harness-side decomposition of the work the service did.
        let mut tracer = Tracer::default();
        let spans = Some(&mut tracer.spans);
        let round = service::run_round(mix, &specs, 0, dir, reference, spans)?;
        let mut build = Vec::new();
        while build.len() < BUILD_REPS {
            build.push(build_small_catalog());
        }
        let mut layers = Layers {
            build_s: median(&build),
            untraced_wall_s: rounds[0].wall_s,
            traced_wall_s: round.wall_s,
            decomposed_s: round.wall_s,
            ..Layers::default()
        };
        service::time_keys(&round.returned, &mut layers)?;
        let (mut failed, mut attempted) =
            (failed + round.failed, attempted + round.lat_ms.len() as u64);
        if mix == Mix::Cold {
            let (decomposed, mismatches) = service::decompose(reference, &mut tracer, &mut layers)?;
            layers.decomposed_s = decomposed;
            failed += mismatches;
            attempted += reference.points.len() as u64;
        }
        layers.round = round;
        write_spans(args, &tracer)?;
        let metrics = per_layer_metrics(&layers, &tracer.totals);
        return Ok(Outcome {
            attempted,
            failed,
            metrics,
        });
    }

    // More set-up samples than rounds, so the median is robust.
    let t_setup = Instant::now();
    while setup_s.len() < SETUP_REPS {
        setup_s.push(service::set_up_only(mix, dir)?);
    }
    let setup_sampling_s = secs(t_setup);
    // Every round sends the run's one stream, so each request is timed once
    // per round. Host interference only ever adds time, and on a shared
    // host it comes and goes within a run, so each request counts at its
    // fastest round (see NOTES.md).
    let fastest = |per_request: fn(&service::Round) -> &[f64]| -> Vec<f64> {
        (0..rounds[0].lat_ms.len())
            .map(|j| {
                rounds
                    .iter()
                    .map(|r| per_request(r)[j])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    };
    let lat_ms = fastest(|r| &r.lat_ms);
    let stream_s = lat_ms.iter().sum::<f64>() / 1e3;
    let cpu_s = fastest(|r| &r.cpu_ms).iter().sum::<f64>() / 1e3;
    // Simulated instructions per host second of the stream: those a cold
    // service executes (the whole grid, once); those whose results a warm
    // one serves, which executes nothing.
    let committed = match mix {
        Mix::Cold => reference.committed,
        Mix::Warm => rounds[0].served_committed,
    };
    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_s), "s");
    m.put("stream_s", stream_s, "s");
    m.put("cpu_s", cpu_s, "s");
    let peak: Vec<f64> = rounds.iter().map(|r| r.peak_rss_mb).collect();
    m.put("peak_rss_mb", median(&peak), "MiB");
    m.put(
        "sim_minst_per_s",
        committed as f64 / 1e6 / stream_s,
        "Minst/s",
    );
    m.put("sim_cycles", reference.sim_cycles as f64, "cycles");
    m.put("ok_frac", 1.0 - failed as f64 / attempted as f64, "ratio");
    // The stream has 2000 requests, so twenty lie beyond its p99.
    m.put("req_p50_ms", quantile(&lat_ms, 0.5), "ms");
    m.put("req_p99_ms", quantile(&lat_ms, 0.99), "ms");
    m.put("paper_err_pct", reference.paper_err_pct, "%");
    let rows: u64 = rounds.iter().map(|r| r.rows).sum();
    let cached: u64 = rounds.iter().map(|r| r.cached_rows).sum();
    eprintln!(
        "{}: {} rounds, {} set-ups ({setup_sampling_s:.1} s), {attempted} requests, {rows} rows, \
         {:.1}% served from cache",
        mix.name(),
        rounds.len(),
        setup_s.len(),
        100.0 * cached as f64 / rows as f64
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}

/// Seconds to build every small-catalog kernel's programs and input
/// images, as the jobs' set-ups do (`Benchmark::program` + `setup`).
fn build_small_catalog() -> f64 {
    let t = Instant::now();
    for bench in uve_sweep::catalog(true) {
        for flavor in Flavor::all() {
            black_box(bench.program(flavor));
            let cfg = EmuConfig {
                vlen_bytes: flavor.vlen_bytes(),
                ..EmuConfig::default()
            };
            let mut emu = Emulator::new(cfg, uve_mem::Memory::new());
            bench.setup(&mut emu);
            black_box(&emu);
        }
    }
    secs(t)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("uve-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run_service(&args);
    let outcome = outcome.and_then(|o| {
        let names: Vec<&str> = o.metrics.0.iter().map(|(n, _, _)| n.as_str()).collect();
        let legal = o
            .metrics
            .0
            .iter()
            .all(|(n, _, u)| measure::valid_name(n) && measure::valid_unit(u));
        if !legal || (!args.trace && names != END_TO_END) {
            return Err(format!("malformed metric set {names:?}"));
        }
        Ok(o)
    });
    match outcome {
        Ok(o) => {
            let correct = o.failed == 0;
            println!(
                "{}",
                result_json(correct, o.attempted, o.failed, &o.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("uve-perfbench: {}: {e}", args.mix.name());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_and_unit_is_legal() {
        let metrics = per_layer_metrics(&Layers::default(), &ReplayTotals::default());
        assert!(metrics.0.len() >= 30);
        for (name, _, unit) in &metrics.0 {
            assert!(measure::valid_name(name), "{name}");
            assert!(measure::valid_unit(unit), "{name}: {unit}");
        }
        let mut names: Vec<&str> = metrics.0.iter().map(|(n, _, _)| n.as_str()).collect();
        names.extend(END_TO_END);
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(names.len(), unique.len(), "metric names are used once");
        assert!(END_TO_END.iter().all(|n| measure::valid_name(n)));
    }
}
