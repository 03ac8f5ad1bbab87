//! The figure/table generators, callable from the `fig*` binaries and from
//! the `figures` bench target (`cargo bench --bench figures` regenerates
//! every figure).
//!
//! Every generator builds its full job list up front and hands it to the
//! sharded [`Runner`], which spreads the `(kernel, flavor, config)` points
//! across cores and reuses one functional trace per [`Point`] — the
//! sensitivity sweeps replay a cached trace under each timing
//! configuration instead of re-emulating.
//! Output is formatted from the returned vector (submission order), so
//! serial and parallel runs print bit-identical figures.

use crate::runner::{Job, Point, Runner};
use crate::{geomean, header, row, Measured};
use uve_core::engine::EngineConfig;
use uve_core::IndirectPacking;
use uve_cpu::CpuConfig;
use uve_isa::MemLevel;
use uve_kernels::{
    evaluation_suite, gemm::Gemm, gemm::GemmUnrolled, jacobi::Jacobi2d, mamr::Mamr, stream::Stream,
    threemm::ThreeMm, Benchmark, Flavor,
};
use uve_stream::StateSizeReport;

struct KernelRuns {
    name: String,
    sve_vectorized: bool,
    uve: Measured,
    sve: Measured,
    neon: Measured,
}

/// The Fig. 8 flavours, in the fixed per-kernel job order.
const SUITE_FLAVORS: [Flavor; 3] = [Flavor::Uve, Flavor::Sve, Flavor::Neon];

fn suite_runs(runner: &Runner) -> Vec<KernelRuns> {
    let suite = evaluation_suite();
    let cpu = CpuConfig::default();
    let jobs: Vec<Job> = suite
        .iter()
        .flat_map(|bench| SUITE_FLAVORS.map(|flavor| Job::new(bench.as_ref(), flavor, cpu.clone())))
        .collect();
    let results = runner.run(&jobs);
    runner.maybe_explain(&results);
    let mut results = results.into_iter();
    suite
        .iter()
        .map(|bench| KernelRuns {
            name: bench.name().to_string(),
            sve_vectorized: bench.sve_vectorized(),
            uve: results.next().expect("uve run"),
            sve: results.next().expect("sve run"),
            neon: results.next().expect("neon run"),
        })
        .collect()
}

fn sensitivity_subset() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(Gemm::new(32, 32, 32)),
        Box::new(Jacobi2d::new(64, 2)),
        Box::new(Stream::new(49152)),
        Box::new(Mamr::full(128)),
    ]
}

/// Asserts the trace-reuse invariant of a sweep: running `jobs` timing
/// points over `points` distinct functional points must have cost at most
/// `points` fresh emulations (exactly `points` on a cold runner).
fn assert_trace_reuse(runner: &Runner, before: u64, points: usize, what: &str) {
    let fresh = runner.emulations() - before;
    assert!(
        fresh <= points as u64,
        "{what}: {fresh} emulations for {points} functional points — \
         the sweep re-emulated instead of replaying cached traces"
    );
}

/// Fig. 8, panels A–E. `panel` restricts output (`a`..`e`); `None` = all.
/// `json` also writes the headline numbers to that path (`fig8_json`),
/// from the same suite runs as panels A–D.
pub fn fig8(panel: Option<&str>, json: Option<&str>, runner: &Runner) {
    if let Some(p) = panel {
        assert!(
            matches!(p, "a" | "b" | "c" | "d" | "e"),
            "unknown panel {p:?}: expected one of a, b, c, d, e"
        );
    }
    let want = |p: &str| panel.is_none_or(|x| x == p);
    let runs = if want("a") || want("b") || want("c") || want("d") {
        suite_runs(runner)
    } else {
        Vec::new()
    };

    if want("a") {
        header(
            "Fig. 8.A — committed-instruction reduction (1 - UVE/baseline)",
            &["vs SVE", "vs NEON"],
        );
        let mut vs_sve = Vec::new();
        let mut vs_neon = Vec::new();
        for r in &runs {
            let a1 = if r.sve_vectorized {
                let v = 1.0 - r.uve.committed as f64 / r.sve.committed as f64;
                vs_sve.push(1.0 - v);
                format!("{:.1}%", 100.0 * v)
            } else {
                "n/v".to_string()
            };
            let a2 = 1.0 - r.uve.committed as f64 / r.neon.committed as f64;
            vs_neon.push(1.0 - a2);
            row(&r.name, &[a1, format!("{:.1}%", 100.0 * a2)]);
        }
        println!(
            "average reduction: vs SVE {:.1}% (paper: 60.9%), vs NEON {:.1}% (paper: 93.2%)",
            100.0 * (1.0 - geomean(&vs_sve)),
            100.0 * (1.0 - geomean(&vs_neon)),
        );
    }

    if want("b") {
        header("Fig. 8.B — speed-up of UVE", &["vs SVE", "vs NEON"]);
        let mut su = Vec::new();
        for r in &runs {
            let b1 = if r.sve_vectorized {
                let v = r.sve.cycles() as f64 / r.uve.cycles() as f64;
                su.push(v);
                format!("{v:.2}x")
            } else {
                "n/v".to_string()
            };
            let b2 = r.neon.cycles() as f64 / r.uve.cycles() as f64;
            row(&r.name, &[b1, format!("{b2:.2}x")]);
        }
        println!(
            "average speed-up vs SVE (vectorized kernels): {:.2}x (paper: 2.4x)",
            geomean(&su)
        );
    }

    if want("c") {
        header(
            "Fig. 8.C — rename blocks per cycle",
            &["UVE", "SVE", "NEON"],
        );
        let mut uve_b = Vec::new();
        let mut sve_b = Vec::new();
        for r in &runs {
            if r.sve_vectorized {
                uve_b.push(r.uve.stats.rename_blocks_per_cycle());
                sve_b.push(r.sve.stats.rename_blocks_per_cycle());
            }
            row(
                &r.name,
                &[
                    format!("{:.3}", r.uve.stats.rename_blocks_per_cycle()),
                    format!("{:.3}", r.sve.stats.rename_blocks_per_cycle()),
                    format!("{:.3}", r.neon.stats.rename_blocks_per_cycle()),
                ],
            );
        }
        let ua: f64 = uve_b.iter().sum::<f64>() / uve_b.len() as f64;
        let sa: f64 = sve_b.iter().sum::<f64>() / sve_b.len() as f64;
        println!(
            "average (vectorized kernels): UVE {ua:.3}, SVE {sa:.3} → {:.1}% fewer (paper: 33.4%)",
            100.0 * (1.0 - ua / sa)
        );
    }

    if want("d") {
        header(
            "Fig. 8.D — DRAM bus utilization (read+write)/peak",
            &["UVE", "SVE", "NEON"],
        );
        for r in &runs {
            row(
                &r.name,
                &[
                    format!("{:.3}", r.uve.stats.bus_utilization),
                    format!("{:.3}", r.sve.stats.bus_utilization),
                    format!("{:.3}", r.neon.stats.bus_utilization),
                ],
            );
        }
    }

    if want("e") {
        header(
            "Fig. 8.E — GEMM speed-up from UVE loop unrolling (vs no unrolling)",
            &["factor", "speed-up"],
        );
        let cpu = CpuConfig::default();
        let factors = [1usize, 2, 4, 8];
        let unrolled: Vec<GemmUnrolled> = factors
            .iter()
            .map(|&f| GemmUnrolled::new(32, 128, 32, f))
            .collect();
        let jobs: Vec<Job> = unrolled
            .iter()
            .map(|b| Job::new(b, Flavor::Uve, cpu.clone()))
            .collect();
        let results = runner.run(&jobs);
        runner.maybe_explain(&results);
        let base = results[0].cycles();
        for (factor, m) in factors[1..].iter().zip(&results[1..]) {
            row(
                "GEMM",
                &[
                    format!("{factor}"),
                    format!("{:.2}x", base as f64 / m.cycles() as f64),
                ],
            );
        }
    }

    if let Some(path) = json {
        // Only `--panel e` runs no suite above.
        let runs = if runs.is_empty() {
            suite_runs(runner)
        } else {
            runs
        };
        fig8_json(path, runner, &runs);
    }
}

/// Writes the Fig. 8 headline numbers of the suite `runs` to `path` as
/// JSON: the panel-B speed-up geomeans under packed (default) and unpacked
/// indirect chunking, plus the MAMR-Ind observables of the packing fix.
///
/// # Panics
///
/// Panics if MAMR-Ind's packed UVE run is *slower* than its scalar
/// baseline (speedup < 1.0×) — the paper reports a clear UVE win there,
/// and losing it means the packed chunking regressed.
fn fig8_json(path: &str, runner: &Runner, runs: &[KernelRuns]) {
    let cpu = CpuConfig::default();
    // The same UVE points with packing off; SVE/NEON baselines have no
    // indirect streams and are reused as-is.
    let suite = evaluation_suite();
    let unpacked_jobs: Vec<Job> = suite
        .iter()
        .map(|bench| Job {
            point: Point {
                packing: IndirectPacking::Unpacked,
                ..Point::new(bench.as_ref(), Flavor::Uve)
            },
            cpu: cpu.clone(),
        })
        .collect();
    let unpacked = runner.run(&unpacked_jobs);

    let speedups = |uve: &dyn Fn(usize) -> u64| -> (f64, f64) {
        let mut vs_sve = Vec::new();
        let mut vs_neon = Vec::new();
        for (i, r) in runs.iter().enumerate() {
            if r.sve_vectorized {
                vs_sve.push(r.sve.cycles() as f64 / uve(i) as f64);
            }
            vs_neon.push(r.neon.cycles() as f64 / uve(i) as f64);
        }
        (geomean(&vs_sve), geomean(&vs_neon))
    };
    let (packed_sve, packed_neon) = speedups(&|i| runs[i].uve.cycles());
    let (unpacked_sve, unpacked_neon) = speedups(&|i| unpacked[i].cycles());

    let mi = runs
        .iter()
        .position(|r| r.name == "MAMR-Ind")
        .expect("MAMR-Ind in the evaluation suite");
    // MAMR kernels are not compiler-vectorized: the NEON-flavor run is
    // the scalar baseline of the EXPERIMENTS.md attribution.
    let scalar = runs[mi].neon.cycles();
    let mamr_packed = runs[mi].uve.cycles();
    let mamr_unpacked = unpacked[mi].cycles();
    let packed_speedup = scalar as f64 / mamr_packed as f64;
    let unpacked_speedup = scalar as f64 / mamr_unpacked as f64;
    assert!(
        packed_speedup >= 1.0,
        "MAMR-Ind packed UVE speedup {packed_speedup:.3}x < 1.0x vs scalar \
         ({mamr_packed} vs {scalar} cycles) — the indirect-packing fix regressed"
    );

    let json = format!(
        "{{\n  \"figure\": \"fig8\",\n  \"packed\": {{\n    \
         \"geomean_speedup_vs_sve\": {packed_sve:.4},\n    \
         \"geomean_speedup_vs_neon\": {packed_neon:.4}\n  }},\n  \
         \"unpacked\": {{\n    \
         \"geomean_speedup_vs_sve\": {unpacked_sve:.4},\n    \
         \"geomean_speedup_vs_neon\": {unpacked_neon:.4}\n  }},\n  \
         \"mamr_ind\": {{\n    \
         \"uve_packed_cycles\": {mamr_packed},\n    \
         \"uve_unpacked_cycles\": {mamr_unpacked},\n    \
         \"scalar_cycles\": {scalar},\n    \
         \"speedup_packed\": {packed_speedup:.4},\n    \
         \"speedup_unpacked\": {unpacked_speedup:.4}\n  }}\n}}\n"
    );
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!(
        "fig8 json -> {path} (MAMR-Ind packed {packed_speedup:.2}x, \
         unpacked {unpacked_speedup:.2}x vs scalar)"
    );
}

/// Fig. 9 — physical-vector-register sensitivity (UVE flat, SVE gains).
///
/// Each `(kernel, flavor)` point is emulated once; the three PVR
/// configurations replay the cached trace.
pub fn fig9(runner: &Runner) {
    let pvrs = [48usize, 64, 96];
    let benches = sensitivity_subset();
    let flavors = [Flavor::Uve, Flavor::Sve];
    let before = runner.emulations();
    let jobs: Vec<Job> = flavors
        .iter()
        .flat_map(|&flavor| {
            benches.iter().flat_map(move |bench| {
                pvrs.map(|pvr| {
                    let cpu = CpuConfig {
                        vec_prf: pvr,
                        ..CpuConfig::default()
                    };
                    Job::new(bench.as_ref(), flavor, cpu)
                })
            })
        })
        .collect();
    let results = runner.run(&jobs);
    runner.maybe_explain(&results);
    assert_trace_reuse(runner, before, flavors.len() * benches.len(), "fig9");

    let mut chunks = results.chunks_exact(pvrs.len());
    for flavor in flavors {
        header(
            &format!("Fig. 9 — {flavor}: speed-up vs 48 physical vector registers"),
            &["PVR=48", "PVR=64", "PVR=96"],
        );
        for bench in &benches {
            let sweep = chunks.next().expect("one sweep per kernel");
            let base = sweep[0].cycles();
            let cells: Vec<String> = sweep
                .iter()
                .map(|m| format!("{:.2}x", base as f64 / m.cycles() as f64))
                .collect();
            row(bench.name(), &cells);
        }
    }
}

/// Fig. 10 — FIFO-depth sensitivity (≥4 required; MAMR most sensitive).
///
/// FIFO depth is a timing-only knob: one emulation per kernel, four
/// replays.
pub fn fig10(runner: &Runner) {
    let depths = [2usize, 4, 8, 12];
    header(
        "Fig. 10 — UVE speed-up vs FIFO depth 8",
        &["d=2", "d=4", "d=8", "d=12"],
    );
    let mut benches = sensitivity_subset();
    benches.insert(1, Box::new(ThreeMm::new(32)));
    let before = runner.emulations();
    let jobs: Vec<Job> = benches
        .iter()
        .flat_map(|bench| {
            depths.map(|d| {
                let cpu = CpuConfig {
                    engine: EngineConfig {
                        fifo_depth: d,
                        ..EngineConfig::default()
                    },
                    ..CpuConfig::default()
                };
                Job::new(bench.as_ref(), Flavor::Uve, cpu)
            })
        })
        .collect();
    let results = runner.run(&jobs);
    runner.maybe_explain(&results);
    assert_trace_reuse(runner, before, benches.len(), "fig10");
    for (bench, sweep) in benches.iter().zip(results.chunks_exact(depths.len())) {
        let base = sweep[2].cycles() as f64;
        row(
            bench.name(),
            &sweep
                .iter()
                .map(|m| format!("{:.2}x", base / m.cycles() as f64))
                .collect::<Vec<_>>(),
        );
    }
}

/// Fig. 11 — streaming cache-level sensitivity (L2 best overall).
///
/// The stream level changes the functional trace, so each
/// `(kernel, level)` point is one emulation — but still only one, shared
/// with any later sweep over the same point.
pub fn fig11(runner: &Runner) {
    let levels = [MemLevel::L1, MemLevel::L2, MemLevel::Mem];
    header(
        "Fig. 11 — UVE speed-up vs streaming level (normalized to L2)",
        &["L1", "L2", "DRAM"],
    );
    let benches = sensitivity_subset();
    let cpu = CpuConfig::default();
    let before = runner.emulations();
    let jobs: Vec<Job> = benches
        .iter()
        .flat_map(|bench| {
            levels.map(|stream_level| Job {
                point: Point {
                    stream_level,
                    ..Point::new(bench.as_ref(), Flavor::Uve)
                },
                cpu: cpu.clone(),
            })
        })
        .collect();
    let results = runner.run(&jobs);
    runner.maybe_explain(&results);
    assert_trace_reuse(runner, before, benches.len() * levels.len(), "fig11");
    for (bench, sweep) in benches.iter().zip(results.chunks_exact(levels.len())) {
        let base = sweep[1].cycles() as f64;
        row(
            bench.name(),
            &sweep
                .iter()
                .map(|m| format!("{:.2}x", base / m.cycles() as f64))
                .collect::<Vec<_>>(),
        );
    }
}

/// Sec. VI-B — Stream Processing Module count sensitivity (<0.1% changes).
pub fn modules(runner: &Runner) {
    let counts = [2usize, 4, 8];
    header(
        "Sec. VI-B — UVE speed-up vs 2 Stream Processing Modules",
        &["m=2", "m=4", "m=8"],
    );
    let benches = sensitivity_subset();
    let before = runner.emulations();
    let jobs: Vec<Job> = benches
        .iter()
        .flat_map(|bench| {
            counts.map(|m| {
                let cpu = CpuConfig {
                    engine: EngineConfig {
                        processing_modules: m,
                        ..EngineConfig::default()
                    },
                    ..CpuConfig::default()
                };
                Job::new(bench.as_ref(), Flavor::Uve, cpu)
            })
        })
        .collect();
    let results = runner.run(&jobs);
    runner.maybe_explain(&results);
    assert_trace_reuse(runner, before, benches.len(), "modules");
    for (bench, sweep) in benches.iter().zip(results.chunks_exact(counts.len())) {
        let base = sweep[0].cycles() as f64;
        row(
            bench.name(),
            &sweep
                .iter()
                .map(|m| format!("{:.4}x", base / m.cycles() as f64))
                .collect::<Vec<_>>(),
        );
    }
}

/// Sec. VI-C — hardware storage inventory.
pub fn overheads() {
    fn report(name: &str, cfg: &EngineConfig) {
        let r = cfg.storage_report();
        println!("\n{name}:");
        println!(
            "  streams={} dims={} mods={} fifo_depth={}",
            cfg.max_streams, cfg.max_dims, cfg.max_mods, cfg.fifo_depth
        );
        println!(
            "  Stream Table + SCROB : {:>6} B ({:.1} KB)",
            r.stream_table_bytes,
            r.stream_table_bytes as f64 / 1024.0
        );
        println!(
            "  Load/Store FIFOs     : {:>6} B ({:.1} KB)",
            r.fifo_bytes,
            r.fifo_bytes as f64 / 1024.0
        );
        println!("  Memory Request Queue : {:>6} B", r.request_queue_bytes);
        println!(
            "  total                : {:>6} B ({:.1} KB, {:.1}% of a 64 KB L1)",
            r.total_bytes(),
            r.total_bytes() as f64 / 1024.0,
            100.0 * r.total_bytes() as f64 / (64.0 * 1024.0)
        );
    }
    println!("=== Sec. VI-C — Streaming Engine storage ===");
    report("default configuration (Table I)", &EngineConfig::default());
    report(
        "reduced configuration (8 streams, 4 dims)",
        &EngineConfig {
            max_streams: 8,
            max_dims: 4,
            ..EngineConfig::default()
        },
    );
    let ctx = StateSizeReport::architectural();
    println!(
        "\nper-stream context-switch state: {} B (1-D) … {} B (8-D + 7 modifiers); paper: 32-400 B",
        ctx.min_bytes, ctx.max_bytes
    );
}

/// The follow-on workload families (PR 10): DSP (FIR, ChanEst, FFT-Stage)
/// and sparse (SpMV, GatherReduce, Histogram), timed in the UVE and scalar
/// flavors at the evaluation sizes.
///
/// Prints per-kernel cycles, the vs-scalar speedup, and the two
/// stream-relevant stall attributions of the UVE run — `fifo-empty` (the
/// core outran the streaming engine) and `prf` (rename starved for
/// physical registers) — then asserts no kernel regresses below its scalar
/// twin and each family's geomean stays above 1.0x. With `json`,
/// additionally writes the drift-gated artifact: every
/// number in it is deterministic, so any perf change shows up as a
/// reviewable diff to the checked-in `BENCH_dsp.json`.
pub fn dsp_families(json: Option<&str>, runner: &Runner) {
    let cpu = CpuConfig::default();
    let families: [(&str, Vec<Box<dyn Benchmark>>); 2] = [
        ("dsp", uve_kernels::dsp_suite()),
        ("sparse", uve_kernels::sparse_suite()),
    ];
    let jobs: Vec<Job> = families
        .iter()
        .flat_map(|(_, suite)| {
            suite.iter().flat_map(|bench| {
                [Flavor::Uve, Flavor::Scalar]
                    .map(|flavor| Job::new(bench.as_ref(), flavor, cpu.clone()))
            })
        })
        .collect();
    let results = runner.run(&jobs);
    runner.maybe_explain(&results);

    header(
        "Follow-on families — UVE vs scalar (cycles, stall attribution)",
        &["family", "UVE", "scalar", "speedup", "fifo-empty", "prf"],
    );
    let mut rows = Vec::new();
    let mut it = results.into_iter();
    for (family, suite) in &families {
        let mut speedups = Vec::new();
        for bench in suite {
            let uve = it.next().expect("uve run");
            let scalar = it.next().expect("scalar run");
            let speedup = scalar.cycles() as f64 / uve.cycles() as f64;
            let fifo = 100.0 * uve.stats.account.fifo_empty as f64 / uve.cycles() as f64;
            let prf = 100.0 * uve.stats.account.prf_starved as f64 / uve.cycles() as f64;
            row(
                bench.name(),
                &[
                    (*family).to_string(),
                    uve.cycles().to_string(),
                    scalar.cycles().to_string(),
                    format!("{speedup:.2}x"),
                    format!("{fifo:.1}%"),
                    format!("{prf:.1}%"),
                ],
            );
            // Histogram is scatter-serialized and sits at parity with its
            // scalar twin; the floor catches real regressions, not the
            // memory-bound tie.
            assert!(
                speedup >= 0.95,
                "{}: UVE {} cycles vs scalar {} — a follow-on kernel regressed below \
                 its scalar twin",
                bench.name(),
                uve.cycles(),
                scalar.cycles()
            );
            speedups.push(speedup);
            rows.push((
                (*family).to_string(),
                bench.name().to_string(),
                uve.cycles(),
                scalar.cycles(),
                speedup,
            ));
        }
        let family_geomean = geomean(&speedups);
        println!("{family} geomean speedup vs scalar: {family_geomean:.2}x");
        assert!(
            family_geomean >= 1.0,
            "{family} family geomean {family_geomean:.3}x < 1.0x vs scalar"
        );
    }

    if let Some(path) = json {
        use std::fmt::Write;
        let mut out = String::from("{\n  \"figure\": \"dsp\",\n  \"kernels\": [\n");
        for (i, (family, name, uve, scalar, speedup)) in rows.iter().enumerate() {
            let sep = if i + 1 == rows.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{ \"family\": \"{family}\", \"kernel\": \"{name}\", \
                 \"uve_cycles\": {uve}, \"scalar_cycles\": {scalar}, \
                 \"speedup_vs_scalar\": {speedup:.4} }}{sep}"
            );
        }
        out.push_str("  ]\n}\n");
        std::fs::write(path, &out).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("dsp json -> {path}");
    }
}
