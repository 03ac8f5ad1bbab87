//! Trace footprint: how many bytes a recorded op costs, and how long
//! recording takes.
//!
//! Emulates every point with tracing on, one at a time, and prints per
//! flavour the ops recorded, the traces' resident bytes
//! ([`Trace::resident_bytes`], by capacity) in MiB and per op, the bytes
//! per op by length ([`Trace::used_bytes`]; the gap to the capacity
//! column is the slack the trace's vectors grew by doubling) and the
//! emulation seconds, then the size of one `TraceOp` and the process's
//! peak RSS.
//! Each trace is dropped after it is measured, so the peak RSS is that of
//! one resident trace plus the emulator, not of the summed bytes.
//!
//! ```text
//! cargo run --release --example trace_footprint           # small catalog, 4 flavours
//! cargo run --release --example trace_footprint -- --fig8 # Fig. 8 suite: UVE, SVE, NEON
//! ```

use std::time::Instant;

use uve::core::{EmuConfig, Emulator, TraceOp};
use uve::kernels::{evaluation_suite, Benchmark, Flavor};
use uve::mem::Memory;
use uve::Trace;

/// Per-flavour totals.
#[derive(Default)]
struct Footprint {
    points: usize,
    ops: u64,
    bytes: u64,
    used: u64,
    emu_s: f64,
}

impl Footprint {
    fn add(&mut self, trace: &Trace, emu_s: f64) {
        self.points += 1;
        self.ops += trace.ops.len() as u64;
        self.bytes += trace.resident_bytes();
        self.used += trace.used_bytes();
        self.emu_s += emu_s;
    }

    fn print(&self, label: &str) {
        println!(
            "{label:<8} {:>6} {:>10} {:>10.1} {:>8.1} {:>8.1} {:>8.3}",
            self.points,
            self.ops,
            self.bytes as f64 / (1 << 20) as f64,
            self.bytes as f64 / self.ops.max(1) as f64,
            self.used as f64 / self.ops.max(1) as f64,
            self.emu_s,
        );
    }
}

/// Peak resident set size of this process in MiB (`getrusage`), on
/// 64-bit Linux: there `struct rusage` is 18 `long`s, two `timeval`s
/// then `ru_maxrss` in KiB and thirteen more counters.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn peak_rss_mib() -> Option<f64> {
    extern "C" {
        fn getrusage(who: i32, usage: *mut i64) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    const RU_MAXRSS: usize = 4;
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is a writable buffer the size of `struct rusage`.
    let ok = unsafe { getrusage(RUSAGE_SELF, usage.as_mut_ptr()) } == 0;
    ok.then(|| usage[RU_MAXRSS] as f64 / 1024.0)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn peak_rss_mib() -> Option<f64> {
    None
}

fn main() -> Result<(), String> {
    let fig8 = std::env::args().skip(1).any(|a| a == "--fig8");
    let (suite, flavors): (Vec<Box<dyn Benchmark>>, &[Flavor]) = if fig8 {
        (
            evaluation_suite(),
            &[Flavor::Uve, Flavor::Sve, Flavor::Neon],
        )
    } else {
        (uve_sweep::spec::catalog(true), &Flavor::all())
    };
    let mut by_flavor: Vec<Footprint> = flavors.iter().map(|_| Footprint::default()).collect();
    for bench in &suite {
        for (flavor, total) in flavors.iter().zip(&mut by_flavor) {
            let cfg = EmuConfig {
                vlen_bytes: flavor.vlen_bytes(),
                ..EmuConfig::default()
            };
            let mut emu = Emulator::new(cfg, Memory::new());
            bench.setup(&mut emu);
            let program = bench.program(*flavor);
            let start = Instant::now();
            let result = emu
                .run(&program)
                .map_err(|e| format!("{}/{flavor}: {e}", bench.name()))?;
            total.add(&result.trace, start.elapsed().as_secs_f64());
        }
    }

    println!(
        "{:<8} {:>6} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "flavour", "points", "ops", "MiB", "B/op", "used/op", "emu_s"
    );
    let mut all = Footprint::default();
    for (flavor, total) in flavors.iter().zip(&by_flavor) {
        total.print(&flavor.to_string());
        all.points += total.points;
        all.ops += total.ops;
        all.bytes += total.bytes;
        all.used += total.used;
        all.emu_s += total.emu_s;
    }
    all.print("all");
    println!(
        "size_of::<TraceOp>() = {} B",
        std::mem::size_of::<TraceOp>()
    );
    match peak_rss_mib() {
        Some(mib) => println!("peak RSS = {mib:.1} MiB"),
        None => println!("peak RSS = n/a"),
    }
    Ok(())
}
