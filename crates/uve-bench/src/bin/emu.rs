//! Functional emulation over the whole evaluation suite: a state digest
//! and reference throughput.
//!
//! Runs the 19-kernel evaluation suite across all four code flavors,
//! untraced (`record_trace: false`), and checks every point against its
//! kernel's oracle. The suite is then re-run under a parallel worker pool,
//! and the pass is asserted bit-identical to the serial one (committed
//! instructions, `arch_digest` and memory `content_hash` per point).
//! Emulated Minst/s per flavor is printed as machine-local reference only.
//!
//! `--json FILE` writes the `BENCH_emu.json` artifact: point count, total
//! committed instructions and a digest over every point's final state.
//! Every value in it is deterministic, so the checked-in file is
//! drift-gated as is.
//!
//! Usage: `emu [--jobs N | --serial] [--quiet] [--json FILE]`.

use std::time::Instant;
use uve_bench::{default_jobs, header, row, run_indexed, Cli, RunMode};
use uve_core::{EmuConfig, Emulator};
use uve_kernels::{evaluation_suite, Benchmark, Flavor};
use uve_mem::{fnv1a, Memory, FNV_OFFSET};

/// Final state of one functional run, compared across pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outcome {
    committed: u64,
    arch_digest: u64,
    mem_hash: u64,
}

/// Runs one (kernel, flavor) point untraced, returning the outcome and the
/// emulation wall-clock in seconds.
fn run_point(bench: &dyn Benchmark, flavor: Flavor) -> (Outcome, f64) {
    let cfg = EmuConfig {
        vlen_bytes: flavor.vlen_bytes(),
        record_trace: false,
        ..EmuConfig::default()
    };
    let mut emu = Emulator::new(cfg, Memory::new());
    bench.setup(&mut emu);
    let program = bench.program(flavor);
    let t0 = Instant::now();
    let result = emu
        .run(&program)
        .unwrap_or_else(|e| panic!("{}/{flavor}: {e}", bench.name()));
    let dt = t0.elapsed().as_secs_f64();
    bench
        .check(&emu)
        .unwrap_or_else(|e| panic!("{}/{flavor}: {e}", bench.name()));
    (
        Outcome {
            committed: result.committed,
            arch_digest: emu.arch_digest(),
            mem_hash: emu.mem.content_hash(),
        },
        dt,
    )
}

/// FNV-1a over every point's name, flavor and outcome — the deterministic
/// fingerprint of the whole suite's functional behaviour.
fn suite_digest(points: &[(String, Flavor)], outcomes: &[Outcome]) -> u64 {
    let mut h = FNV_OFFSET;
    for ((name, flavor), o) in points.iter().zip(outcomes) {
        h = fnv1a(h, name.as_bytes());
        h = fnv1a(h, format!("{flavor}").as_bytes());
        h = fnv1a(h, &o.committed.to_le_bytes());
        h = fnv1a(h, &o.arch_digest.to_le_bytes());
        h = fnv1a(h, &o.mem_hash.to_le_bytes());
    }
    h
}

fn main() {
    let cli = Cli::parse();
    let quiet = cli.has("--quiet");
    let jobs = if cli.has("--serial") {
        1
    } else {
        cli.parsed("--jobs").unwrap_or_else(default_jobs)
    };

    let suite = evaluation_suite();
    let points: Vec<(usize, Flavor)> = suite
        .iter()
        .enumerate()
        .flat_map(|(i, _)| Flavor::all().into_iter().map(move |f| (i, f)))
        .collect();
    let labels: Vec<(String, Flavor)> = points
        .iter()
        .map(|&(i, f)| (suite[i].name().to_string(), f))
        .collect();

    // Serial timed pass.
    let (serial, secs): (Vec<Outcome>, Vec<f64>) = points
        .iter()
        .map(|&(i, flavor)| run_point(suite[i].as_ref(), flavor))
        .unzip();

    // Parallel pass: submission-ordered results must be bit-identical to
    // the serial pass regardless of worker count.
    let mode = if jobs > 1 {
        RunMode::Parallel(jobs)
    } else {
        RunMode::Serial
    };
    let parallel: Vec<Outcome> = run_indexed(mode, points.len(), |k| {
        let (i, flavor) = points[k];
        run_point(suite[i].as_ref(), flavor).0
    });
    assert_eq!(
        serial, parallel,
        "outcomes differ between serial and --jobs {jobs}"
    );

    let total_committed: u64 = serial.iter().map(|o| o.committed).sum();
    if !quiet {
        header(
            "Emulated-instruction throughput (untraced)",
            &["flavor", "Minst", "s", "Minst/s"],
        );
        for (k, (name, flavor)) in labels.iter().enumerate() {
            let minst = serial[k].committed as f64 / 1e6;
            row(
                name,
                &[
                    format!("{flavor}"),
                    format!("{minst:.2}"),
                    format!("{:.4}", secs[k]),
                    format!("{:.1}", minst / secs[k]),
                ],
            );
        }
    }
    for fl in Flavor::all() {
        let idx = (0..points.len()).filter(|&k| points[k].1 == fl);
        let (c, t) = idx.fold((0u64, 0.0f64), |(c, t), k| {
            (c + serial[k].committed, t + secs[k])
        });
        println!("{:>8}: {:.1} Minst/s", format!("{fl}"), c as f64 / t / 1e6);
    }
    println!(
        "suite: {} points, {:.1} Minst, {:.1} Minst/s (serial == --jobs {jobs}: yes)",
        points.len(),
        total_committed as f64 / 1e6,
        total_committed as f64 / secs.iter().sum::<f64>() / 1e6,
    );

    if let Some(path) = cli.value("--json") {
        let json = format!(
            "{{\n  \"suite\": {{\n    \"kernels\": {},\n    \"points\": {},\n    \
             \"total_committed\": {},\n    \"state_digest\": \"0x{:016x}\"\n  }}\n}}\n",
            suite.len(),
            points.len(),
            total_committed,
            suite_digest(&labels, &serial),
        );
        std::fs::write(path, json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    }
}
