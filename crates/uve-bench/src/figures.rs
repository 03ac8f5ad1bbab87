//! The paper's evaluation as one plan, run by the `figures` binary.
//!
//! Every figure that reads timed measurements is a [`Figure`]: a job list
//! plus a renderer over its slice of the results. [`run`] concatenates
//! the selected figures' jobs into one [`Runner::run`] batch, so a trace
//! that several figures share (the Fig. 8 suite, the packing ablation and
//! the sensitivity subsets overlap) is emulated once and each timing
//! configuration replayed once per trace, then hands each figure its
//! slice. Results come back in submission order, so serial and parallel
//! runs print bit-identical figures.

use std::path::{Path, PathBuf};

use crate::cli::{usage_error, Cli, Usage};
use crate::runner::{Job, Point, Runner};
use crate::{geomean, header, row, Measured};
use uve_core::engine::EngineConfig;
use uve_core::IndirectPacking;
use uve_cpu::CpuConfig;
use uve_isa::MemLevel;
use uve_kernels::{
    evaluation_suite, gemm::Gemm, gemm::GemmUnrolled, jacobi::Jacobi2d, mamr::Mamr, saxpy::Saxpy,
    stream::Stream, threemm::ThreeMm, Benchmark, Flavor,
};
use uve_stream::StateSizeReport;

/// The figures of the plan, in output order.
pub const FIGURES: [&str; 9] = [
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "modules",
    "overheads",
    "packing",
    "ablations",
    "dsp",
];

/// The Fig. 8 panels `--panel` selects from.
const PANELS: [&str; 5] = ["a", "b", "c", "d", "e"];

/// What the `figures` binary accepts: the runner's flags, `--panel`
/// (Fig. 8 only), `--json DIR`, and figure names.
pub const USAGE: Usage<'static> = Usage {
    switches: &["--serial", "--quiet", "--explain"],
    values: &["--jobs", "--timeout", "--panel", "--json"],
    positional: usize::MAX,
};

/// One figure of the plan.
pub trait Figure {
    /// The figure's jobs, in the order [`Figure::render`] reads them
    /// (none by default).
    fn jobs(&self) -> Vec<Job<'_>> {
        Vec::new()
    }

    /// Prints the figure from `results`, one per job of
    /// [`Figure::jobs`]. Figures that report cycle attribution call
    /// [`Runner::maybe_explain`] on their results.
    fn render(&self, results: &[Measured], runner: &Runner);
}

/// The figures `cli` names (every figure when it names none), in
/// [`FIGURES`] order. `--panel` restricts Fig. 8 to one panel; `--json
/// DIR` makes Fig. 8 and the DSP families write `DIR/BENCH_fig8.json`
/// and `DIR/BENCH_dsp.json`. An unknown name or panel is a usage error.
pub fn plan(cli: &Cli) -> Vec<Box<dyn Figure>> {
    let names = cli.positional();
    if let Some(name) = names.iter().find(|n| !FIGURES.contains(&n.as_str())) {
        usage_error(&format!(
            "unknown figure {name:?}: expected any of {}",
            FIGURES.join(", ")
        ));
    }
    let panel = cli.value("--panel");
    if let Some(p) = panel.filter(|p| !PANELS.contains(p)) {
        usage_error(&format!(
            "unknown panel {p:?}: expected one of {}",
            PANELS.join(", ")
        ));
    }
    let json = cli.value("--json").map(Path::new);
    FIGURES
        .into_iter()
        .filter(|f| names.is_empty() || names.iter().any(|n| n == f))
        .map(|f| -> Box<dyn Figure> {
            match f {
                "fig8" => Box::new(Fig8::new(panel, json)),
                "fig9" => Box::new(Fig9 {
                    benches: sensitivity_subset(),
                }),
                "fig10" => Box::new(Sweep::fig10()),
                "fig11" => Box::new(Sweep::fig11()),
                "modules" => Box::new(Sweep::modules()),
                "overheads" => Box::new(Overheads),
                "packing" => Box::new(Packing {
                    suite: evaluation_suite(),
                }),
                "ablations" => Box::new(Ablations::new()),
                "dsp" => Box::new(Dsp::new(json)),
                _ => unreachable!("{f} is in FIGURES"),
            }
        })
        .collect()
}

/// Runs every job of `figures` in one batch and renders each figure from
/// its slice of the results, in order.
pub fn run(figures: &[Box<dyn Figure>], runner: &Runner) {
    let mut jobs = Vec::new();
    let mut ends = Vec::new();
    for figure in figures {
        jobs.extend(figure.jobs());
        ends.push(jobs.len());
    }
    let results = runner.run(&jobs);
    let mut start = 0;
    for (figure, end) in figures.iter().zip(ends) {
        figure.render(&results[start..end], runner);
        start = end;
    }
}

/// A job for the UVE point of `bench` with unpacked indirect chunking.
fn unpacked_uve_job(bench: &dyn Benchmark, cpu: CpuConfig) -> Job<'_> {
    Job {
        point: Point {
            packing: IndirectPacking::Unpacked,
            ..Point::new(bench, Flavor::Uve)
        },
        cpu,
    }
}

/// The default CPU configuration with `change` applied.
fn cpu_with(change: impl FnOnce(&mut CpuConfig)) -> CpuConfig {
    let mut cpu = CpuConfig::default();
    change(&mut cpu);
    cpu
}

/// The Fig. 8 flavours, in the fixed per-kernel job order.
const SUITE_FLAVORS: [Flavor; 3] = [Flavor::Uve, Flavor::Sve, Flavor::Neon];

/// One suite kernel's Fig. 8 measurements.
struct KernelRuns<'r> {
    name: &'static str,
    sve_vectorized: bool,
    uve: &'r Measured,
    sve: &'r Measured,
    neon: &'r Measured,
}

/// Fig. 8, panels A–E, and its drift-gated headline JSON.
struct Fig8 {
    suite: Vec<Box<dyn Benchmark>>,
    unrolled: Vec<GemmUnrolled>,
    panel: Option<String>,
    json: Option<PathBuf>,
}

/// The Fig. 8 panels that read the suite runs.
const SUITE_PANELS: [&str; 4] = ["a", "b", "c", "d"];

/// The Fig. 8.E unroll factors; the first is the baseline.
const UNROLL_FACTORS: [usize; 4] = [1, 2, 4, 8];

impl Fig8 {
    fn new(panel: Option<&str>, json_dir: Option<&Path>) -> Self {
        Self {
            suite: evaluation_suite(),
            unrolled: UNROLL_FACTORS
                .map(|f| GemmUnrolled::new(32, 128, 32, f))
                .into(),
            panel: panel.map(str::to_string),
            json: json_dir.map(|d| d.join("BENCH_fig8.json")),
        }
    }

    fn want(&self, panel: &str) -> bool {
        self.panel.as_deref().is_none_or(|p| p == panel)
    }

    /// Panels A–D read the suite runs.
    fn wants_suite_panel(&self) -> bool {
        SUITE_PANELS.iter().any(|p| self.want(p))
    }

    /// Whether the suite runs: for panels A–D or the JSON.
    fn runs_suite(&self) -> bool {
        self.wants_suite_panel() || self.json.is_some()
    }
}

impl Figure for Fig8 {
    /// The suite in every Fig. 8 flavour, then the Fig. 8.E GEMM
    /// variants, then (for the JSON) the suite's UVE points unpacked.
    fn jobs(&self) -> Vec<Job<'_>> {
        let cpu = CpuConfig::default();
        let mut jobs = Vec::new();
        if self.runs_suite() {
            jobs.extend(self.suite.iter().flat_map(|bench| {
                SUITE_FLAVORS.map(|flavor| Job::new(bench.as_ref(), flavor, cpu.clone()))
            }));
        }
        if self.want("e") {
            jobs.extend(
                self.unrolled
                    .iter()
                    .map(|b| Job::new(b, Flavor::Uve, cpu.clone())),
            );
        }
        if self.json.is_some() {
            jobs.extend(
                self.suite
                    .iter()
                    .map(|b| unpacked_uve_job(b.as_ref(), cpu.clone())),
            );
        }
        jobs
    }

    fn render(&self, results: &[Measured], runner: &Runner) {
        let (suite, rest) = results.split_at(if self.runs_suite() {
            SUITE_FLAVORS.len() * self.suite.len()
        } else {
            0
        });
        let (unrolled, unpacked) = rest.split_at(if self.want("e") {
            self.unrolled.len()
        } else {
            0
        });
        let runs: Vec<KernelRuns> = self
            .suite
            .iter()
            .zip(suite.chunks_exact(SUITE_FLAVORS.len()))
            .map(|(bench, m)| KernelRuns {
                name: bench.name(),
                sve_vectorized: bench.sve_vectorized(),
                uve: &m[0],
                sve: &m[1],
                neon: &m[2],
            })
            .collect();
        // The suite runs are explained before the first output that
        // reads them: panel A–D, or else the JSON.
        if self.wants_suite_panel() {
            runner.maybe_explain(suite);
        }
        let panels = [panel_a as fn(&[KernelRuns]), panel_b, panel_c, panel_d];
        for (_, panel) in SUITE_PANELS
            .iter()
            .zip(panels)
            .filter(|(p, _)| self.want(p))
        {
            panel(&runs);
        }
        if self.want("e") {
            header(
                "Fig. 8.E — GEMM speed-up from UVE loop unrolling (vs no unrolling)",
                &["factor", "speed-up"],
            );
            runner.maybe_explain(unrolled);
            let base = unrolled[0].cycles();
            for (factor, m) in UNROLL_FACTORS[1..].iter().zip(&unrolled[1..]) {
                row(
                    "GEMM",
                    &[
                        format!("{factor}"),
                        format!("{:.2}x", base as f64 / m.cycles() as f64),
                    ],
                );
            }
        }
        if let Some(path) = &self.json {
            if !self.wants_suite_panel() {
                runner.maybe_explain(suite);
            }
            fig8_json(path, &runs, unpacked);
        }
    }
}

fn panel_a(runs: &[KernelRuns]) {
    header(
        "Fig. 8.A — committed-instruction reduction (1 - UVE/baseline)",
        &["vs SVE", "vs NEON"],
    );
    let mut vs_sve = Vec::new();
    let mut vs_neon = Vec::new();
    for r in runs {
        let a1 = if r.sve_vectorized {
            let v = 1.0 - r.uve.committed as f64 / r.sve.committed as f64;
            vs_sve.push(1.0 - v);
            format!("{:.1}%", 100.0 * v)
        } else {
            "n/v".to_string()
        };
        let a2 = 1.0 - r.uve.committed as f64 / r.neon.committed as f64;
        vs_neon.push(1.0 - a2);
        row(r.name, &[a1, format!("{:.1}%", 100.0 * a2)]);
    }
    println!(
        "average reduction: vs SVE {:.1}% (paper: 60.9%), vs NEON {:.1}% (paper: 93.2%)",
        100.0 * (1.0 - geomean(&vs_sve)),
        100.0 * (1.0 - geomean(&vs_neon)),
    );
}

fn panel_b(runs: &[KernelRuns]) {
    header("Fig. 8.B — speed-up of UVE", &["vs SVE", "vs NEON"]);
    let mut su = Vec::new();
    for r in runs {
        let b1 = if r.sve_vectorized {
            let v = r.sve.cycles() as f64 / r.uve.cycles() as f64;
            su.push(v);
            format!("{v:.2}x")
        } else {
            "n/v".to_string()
        };
        let b2 = r.neon.cycles() as f64 / r.uve.cycles() as f64;
        row(r.name, &[b1, format!("{b2:.2}x")]);
    }
    println!(
        "average speed-up vs SVE (vectorized kernels): {:.2}x (paper: 2.4x)",
        geomean(&su)
    );
}

fn panel_c(runs: &[KernelRuns]) {
    header(
        "Fig. 8.C — rename blocks per cycle",
        &["UVE", "SVE", "NEON"],
    );
    let mut uve_b = Vec::new();
    let mut sve_b = Vec::new();
    for r in runs {
        if r.sve_vectorized {
            uve_b.push(r.uve.stats.rename_blocks_per_cycle());
            sve_b.push(r.sve.stats.rename_blocks_per_cycle());
        }
        row(
            r.name,
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

fn panel_d(runs: &[KernelRuns]) {
    header(
        "Fig. 8.D — DRAM bus utilization (read+write)/peak",
        &["UVE", "SVE", "NEON"],
    );
    for r in runs {
        row(
            r.name,
            &[
                format!("{:.3}", r.uve.stats.bus_utilization),
                format!("{:.3}", r.sve.stats.bus_utilization),
                format!("{:.3}", r.neon.stats.bus_utilization),
            ],
        );
    }
}

/// Writes the Fig. 8 headline numbers of the suite `runs` to `path` as
/// JSON: the panel-B speed-up geomeans under packed (default) and unpacked
/// indirect chunking (`unpacked`, the suite's UVE points in suite order),
/// plus the MAMR-Ind observables of the packing fix.
///
/// # Panics
///
/// Panics if MAMR-Ind's packed UVE run is *slower* than its scalar
/// baseline (speedup < 1.0×) — the paper reports a clear UVE win there,
/// and losing it means the packed chunking regressed.
fn fig8_json(path: &Path, runs: &[KernelRuns], unpacked: &[Measured]) {
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
    write_json(path, &json);
    println!(
        "fig8 json -> {} (MAMR-Ind packed {packed_speedup:.2}x, \
         unpacked {unpacked_speedup:.2}x vs scalar)",
        path.display()
    );
}

fn write_json(path: &Path, json: &str) {
    std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}

fn sensitivity_subset() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(Gemm::new(32, 32, 32)),
        Box::new(Jacobi2d::new(64, 2)),
        Box::new(Stream::new(49152)),
        Box::new(Mamr::full(128)),
    ]
}

/// Prints one row per bench of `results`, which holds each bench's
/// variants back to back: every variant's speed-up over the bench's
/// `base`-th variant, to `decimals` places.
fn speedup_rows(
    benches: &[Box<dyn Benchmark>],
    results: &[Measured],
    base: usize,
    decimals: usize,
) {
    let per_bench = results.len() / benches.len();
    for (bench, sweep) in benches.iter().zip(results.chunks_exact(per_bench)) {
        let base = sweep[base].cycles() as f64;
        let cells: Vec<String> = sweep
            .iter()
            .map(|m| format!("{:.decimals$}x", base / m.cycles() as f64))
            .collect();
        row(bench.name(), &cells);
    }
}

/// The Fig. 9 physical-vector-register counts; the first is the baseline.
const PVRS: [usize; 3] = [48, 64, 96];

/// Fig. 9 — physical-vector-register sensitivity (UVE flat, SVE gains).
/// The register count is a timing-only knob: each `(kernel, flavor)`
/// trace replays under every count.
struct Fig9 {
    benches: Vec<Box<dyn Benchmark>>,
}

/// The Fig. 9 flavours, one table each.
const FIG9_FLAVORS: [Flavor; 2] = [Flavor::Uve, Flavor::Sve];

impl Figure for Fig9 {
    fn jobs(&self) -> Vec<Job<'_>> {
        FIG9_FLAVORS
            .iter()
            .flat_map(|&flavor| {
                self.benches.iter().flat_map(move |bench| {
                    PVRS.map(|pvr| Job::new(bench.as_ref(), flavor, cpu_with(|c| c.vec_prf = pvr)))
                })
            })
            .collect()
    }

    fn render(&self, results: &[Measured], runner: &Runner) {
        runner.maybe_explain(results);
        for (flavor, results) in FIG9_FLAVORS
            .iter()
            .zip(results.chunks_exact(results.len() / FIG9_FLAVORS.len()))
        {
            header(
                &format!("Fig. 9 — {flavor}: speed-up vs 48 physical vector registers"),
                &["PVR=48", "PVR=64", "PVR=96"],
            );
            speedup_rows(&self.benches, results, 0, 2);
        }
    }
}

/// A UVE sensitivity sweep: every bench under every `(stream level, CPU)`
/// variant, printed as each variant's speed-up over the `base`-th.
struct Sweep {
    title: &'static str,
    cols: &'static [&'static str],
    benches: Vec<Box<dyn Benchmark>>,
    variants: Vec<(MemLevel, CpuConfig)>,
    base: usize,
    decimals: usize,
}

impl Sweep {
    /// Fig. 10 — FIFO-depth sensitivity (≥4 required; MAMR most
    /// sensitive). FIFO depth is a timing-only knob: one emulation per
    /// kernel, four replays.
    fn fig10() -> Self {
        let mut benches = sensitivity_subset();
        benches.insert(1, Box::new(ThreeMm::new(32)));
        Self {
            title: "Fig. 10 — UVE speed-up vs FIFO depth 8",
            cols: &["d=2", "d=4", "d=8", "d=12"],
            benches,
            variants: [2, 4, 8, 12]
                .map(|d| (MemLevel::L2, cpu_with(|c| c.engine.fifo_depth = d)))
                .into(),
            base: 2,
            decimals: 2,
        }
    }

    /// Fig. 11 — streaming cache-level sensitivity (L2 best overall).
    /// The stream level changes the functional trace, so each
    /// `(kernel, level)` point is one emulation.
    fn fig11() -> Self {
        Self {
            title: "Fig. 11 — UVE speed-up vs streaming level (normalized to L2)",
            cols: &["L1", "L2", "DRAM"],
            benches: sensitivity_subset(),
            variants: [MemLevel::L1, MemLevel::L2, MemLevel::Mem]
                .map(|level| (level, CpuConfig::default()))
                .into(),
            base: 1,
            decimals: 2,
        }
    }

    /// Sec. VI-B — Stream Processing Module count sensitivity (<0.1%
    /// changes).
    fn modules() -> Self {
        Self {
            title: "Sec. VI-B — UVE speed-up vs 2 Stream Processing Modules",
            cols: &["m=2", "m=4", "m=8"],
            benches: sensitivity_subset(),
            variants: [2, 4, 8]
                .map(|m| (MemLevel::L2, cpu_with(|c| c.engine.processing_modules = m)))
                .into(),
            base: 0,
            decimals: 4,
        }
    }
}

impl Figure for Sweep {
    fn jobs(&self) -> Vec<Job<'_>> {
        self.benches
            .iter()
            .flat_map(|bench| {
                self.variants.iter().map(|(stream_level, cpu)| Job {
                    point: Point {
                        stream_level: *stream_level,
                        ..Point::new(bench.as_ref(), Flavor::Uve)
                    },
                    cpu: cpu.clone(),
                })
            })
            .collect()
    }

    fn render(&self, results: &[Measured], runner: &Runner) {
        header(self.title, self.cols);
        runner.maybe_explain(results);
        speedup_rows(&self.benches, results, self.base, self.decimals);
    }
}

/// Sec. VI-C — hardware storage inventory (no measurements).
struct Overheads;

impl Figure for Overheads {
    fn render(&self, _: &[Measured], _: &Runner) {
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
}

/// Indirect-packing ablation: every suite kernel's UVE run under packed
/// (default) and unpacked chunk semantics, against its scalar baseline.
///
/// Packing groups gathered elements of indirectly modified streams into
/// full-width chunks instead of closing every chunk at the (typically
/// size-1) innermost dimension; affine kernels are bit-identical in both
/// modes, which the renderer asserts. The interesting rows are the
/// indirect kernels — MAMR-Ind most of all, whose dependent
/// 3-instructions-per-element scalar chain is the documented source of
/// the pre-packing paper deviation (EXPERIMENTS.md).
struct Packing {
    suite: Vec<Box<dyn Benchmark>>,
}

impl Figure for Packing {
    /// Per kernel: UVE packed, UVE unpacked, scalar baseline.
    fn jobs(&self) -> Vec<Job<'_>> {
        let cpu = CpuConfig::default();
        self.suite
            .iter()
            .flat_map(|bench| {
                let bench = bench.as_ref();
                [
                    Job::new(bench, Flavor::Uve, cpu.clone()),
                    unpacked_uve_job(bench, cpu.clone()),
                    Job::new(bench, Flavor::Scalar, cpu.clone()),
                ]
            })
            .collect()
    }

    fn render(&self, results: &[Measured], runner: &Runner) {
        runner.maybe_explain(results);
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
        for (bench, m) in self.suite.iter().zip(results.chunks_exact(3)) {
            let (p, u, s) = (&m[0], &m[1], &m[2]);
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
    }
}

/// Ablations of the design choices DESIGN.md calls out: what each
/// mechanism contributes to the headline result, measured as the
/// UVE-vs-SVE speed-up of one memory-bound (SAXPY) and one L2-bound
/// (GEMM) kernel under each model variation.
struct Ablations {
    benches: [Box<dyn Benchmark>; 2],
    configs: Vec<(&'static str, CpuConfig)>,
}

impl Ablations {
    fn new() -> Self {
        Self {
            benches: [Box::new(Saxpy::new(65536)), Box::new(Gemm::new(32, 32, 32))],
            configs: vec![
                ("default", CpuConfig::default()),
                (
                    "no baseline prefetchers",
                    cpu_with(|c| {
                        c.mem.l1_prefetcher = false;
                        c.mem.l2_prefetcher = false;
                    }),
                ),
                ("L1 MSHRs 8 -> 32", cpu_with(|c| c.mem.l1_mshrs = 32)),
                ("L2 MSHRs 32 -> 8", cpu_with(|c| c.mem.l2_mshrs = 8)),
                (
                    "DRAM latency 70 -> 140",
                    cpu_with(|c| c.mem.dram.latency = 140),
                ),
                (
                    "mispredict penalty 11 -> 0",
                    cpu_with(|c| c.mispredict_penalty = 0),
                ),
                ("single DRAM channel", cpu_with(|c| c.mem.dram.channels = 1)),
            ],
        }
    }
}

impl Figure for Ablations {
    /// Per config, per kernel: one UVE and one SVE replay.
    fn jobs(&self) -> Vec<Job<'_>> {
        self.configs
            .iter()
            .flat_map(|(_, cpu)| {
                self.benches.iter().flat_map(|b| {
                    [Flavor::Uve, Flavor::Sve].map(|f| Job::new(b.as_ref(), f, cpu.clone()))
                })
            })
            .collect()
    }

    fn render(&self, results: &[Measured], _: &Runner) {
        header(
            "Ablations — UVE-vs-SVE speed-up under model variations",
            &["SAXPY", "GEMM"],
        );
        let per_config = 2 * self.benches.len();
        for ((label, _), sweep) in self.configs.iter().zip(results.chunks_exact(per_config)) {
            let cells: Vec<String> = sweep
                .chunks_exact(2)
                .map(|uve_sve| {
                    format!(
                        "{:.2}x",
                        uve_sve[1].cycles() as f64 / uve_sve[0].cycles() as f64
                    )
                })
                .collect();
            row(label, &cells);
        }
        println!(
            "\n(Speed-ups are UVE vs SVE under each variation; the 'default' row\n\
             matches Fig. 8.B. Memory-system knobs move the DRAM-bound kernel\n\
             only; the L2-bound kernel responds to front-end knobs instead.)"
        );
    }
}

/// The follow-on workload families: DSP (FIR, ChanEst, FFT-Stage) and
/// sparse (SpMV, GatherReduce, Histogram), timed in the UVE and scalar
/// flavors at the evaluation sizes.
///
/// Prints per-kernel cycles, the vs-scalar speedup, and the two
/// stream-relevant stall attributions of the UVE run — `fifo-empty` (the
/// core outran the streaming engine) and `prf` (rename starved for
/// physical registers) — then asserts no kernel regresses below its scalar
/// twin and each family's geomean stays above 1.0x. With `json`, also
/// writes the drift-gated artifact: every number in it is deterministic,
/// so any perf change shows up as a reviewable diff to the checked-in
/// `BENCH_dsp.json`.
struct Dsp {
    families: [(&'static str, Vec<Box<dyn Benchmark>>); 2],
    json: Option<PathBuf>,
}

impl Dsp {
    fn new(json_dir: Option<&Path>) -> Self {
        Self {
            families: [
                ("dsp", uve_kernels::dsp_suite()),
                ("sparse", uve_kernels::sparse_suite()),
            ],
            json: json_dir.map(|d| d.join("BENCH_dsp.json")),
        }
    }
}

impl Figure for Dsp {
    fn jobs(&self) -> Vec<Job<'_>> {
        let cpu = CpuConfig::default();
        self.families
            .iter()
            .flat_map(|(_, suite)| {
                suite.iter().flat_map(|bench| {
                    [Flavor::Uve, Flavor::Scalar]
                        .map(|flavor| Job::new(bench.as_ref(), flavor, cpu.clone()))
                })
            })
            .collect()
    }

    fn render(&self, results: &[Measured], runner: &Runner) {
        runner.maybe_explain(results);
        header(
            "Follow-on families — UVE vs scalar (cycles, stall attribution)",
            &["family", "UVE", "scalar", "speedup", "fifo-empty", "prf"],
        );
        let mut rows = Vec::new();
        let mut pairs = results.chunks_exact(2);
        for (family, suite) in &self.families {
            let mut speedups = Vec::new();
            for (bench, pair) in suite.iter().zip(pairs.by_ref()) {
                let (uve, scalar) = (&pair[0], &pair[1]);
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
                // Histogram is scatter-serialized and sits at parity with
                // its scalar twin; the floor catches real regressions, not
                // the memory-bound tie.
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
                    *family,
                    bench.name(),
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

        if let Some(path) = &self.json {
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
            write_json(path, &out);
            println!("dsp json -> {}", path.display());
        }
    }
}
