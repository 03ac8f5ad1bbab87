//! Chrome trace-event JSON export of a traced run.
//!
//! [`chrome_trace_json`] renders an [`EventLog`] (from
//! [`OoOCore::run_traced`](uve_cpu::OoOCore::run_traced)) in the Chrome
//! trace-event format, loadable in `chrome://tracing` / Perfetto. One
//! trace holds three processes:
//!
//! - **pid 0 — core pipeline**: one "X" span per committed instruction
//!   (rename → commit), packed onto reorder-buffer lanes by a greedy
//!   free-lane assignment; `args` carry the issue/done cycles;
//! - **pid 1 — stream chunks**: one "X" span per stream chunk from
//!   FIFO-ready to commit (the load-to-use window), one lane group per
//!   stream register;
//! - **pid 2 — FIFO occupancy**: one "C" counter track per stream
//!   register, from the change-compressed occupancy timeline.
//!
//! Timestamps are cycles (the `ts` unit is nominally microseconds, so the
//! viewer's time axis reads directly in cycles). The JSON is hand-rolled —
//! integer fields only, emitted in log order — so regenerating a trace is
//! byte-identical (the golden-snapshot test `tests/golden_trace.rs`).

use std::fmt::Write;

use crate::runner::Point;
use uve_cpu::{CpuConfig, EventLog, OoOCore};
use uve_kernels::{saxpy::Saxpy, Benchmark, Flavor};

/// Escapes a string for a JSON value.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Greedy free-lane packing: assigns each `[start, end)` span (in input
/// order) the lowest lane whose previous span has ended, growing the lane
/// set as needed. Lanes never overlap when the input is sorted by `start`
/// (pipeline ops) or has non-decreasing `end` (commit-ordered chunks).
fn assign_lanes(spans: impl Iterator<Item = (u64, u64)>) -> Vec<usize> {
    let mut lane_free: Vec<u64> = Vec::new();
    spans
        .map(|(start, end)| {
            let lane = match lane_free.iter().position(|&free| free <= start) {
                Some(l) => l,
                None => {
                    lane_free.push(0);
                    lane_free.len() - 1
                }
            };
            lane_free[lane] = end;
            lane
        })
        .collect()
}

/// Renders `log` as a Chrome trace-event JSON document.
pub fn chrome_trace_json(name: &str, flavor: Flavor, log: &EventLog) -> String {
    let mut ev: Vec<String> = Vec::new();
    let meta = |pid: u32, what: &str| {
        format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{}\"}}}}",
            esc(what)
        )
    };
    ev.push(meta(0, &format!("{name} / {flavor} — core pipeline")));
    ev.push(meta(1, "stream chunks (FIFO-ready → commit)"));
    ev.push(meta(2, "stream FIFO occupancy"));

    // Core pipeline: the packer processes spans in start order, so a lane
    // is only reused once its previous span has ended.
    let mut order: Vec<usize> = (0..log.ops.len()).collect();
    order.sort_by_key(|&i| (log.ops[i].rename, i));
    let lanes = assign_lanes(order.iter().map(|&i| {
        let op = &log.ops[i];
        (op.rename, op.commit.max(op.rename + 1))
    }));
    for (&i, &lane) in order.iter().zip(&lanes) {
        let op = &log.ops[i];
        let dur = op.commit.max(op.rename + 1) - op.rename;
        ev.push(format!(
            "{{\"name\":\"{:?} pc={:#x}\",\"ph\":\"X\",\"ts\":{},\"dur\":{dur},\
             \"pid\":0,\"tid\":{},\"args\":{{\"idx\":{},\"issue\":{},\"done\":{}}}}}",
            op.exec,
            op.pc,
            op.rename,
            10 + lane,
            op.idx,
            op.issue,
            op.done,
        ));
    }

    // Stream chunks: per stream register, chunks commit in order, so the
    // per-register greedy packing needs at most `fifo_depth` lanes.
    let mut per_u: [Vec<usize>; 32] = std::array::from_fn(|_| Vec::new());
    for (i, c) in log.chunks.iter().enumerate() {
        per_u[usize::from(c.u) & 31].push(i);
    }
    for (u, idxs) in per_u.iter().enumerate() {
        if idxs.is_empty() {
            continue;
        }
        let lanes = assign_lanes(idxs.iter().map(|&i| {
            let c = &log.chunks[i];
            (c.ready, c.commit.max(c.ready + 1))
        }));
        for (&i, &lane) in idxs.iter().zip(&lanes) {
            let c = &log.chunks[i];
            let dur = c.commit.max(c.ready + 1) - c.ready;
            ev.push(format!(
                "{{\"name\":\"u{u} {:?} chunk {}\",\"ph\":\"X\",\"ts\":{},\"dur\":{dur},\
                 \"pid\":1,\"tid\":{}}}",
                c.dir,
                c.chunk,
                c.ready,
                u * 16 + lane.min(15),
            ));
        }
    }

    // FIFO occupancy counters, one track per stream register.
    for p in &log.fifo {
        ev.push(format!(
            "{{\"name\":\"fifo-u{}\",\"ph\":\"C\",\"ts\":{},\"pid\":2,\"tid\":0,\
             \"args\":{{\"chunks\":{}}}}}",
            p.u, p.cycle, p.occupancy
        ));
    }

    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&ev.join(",\n"));
    let _ = write!(
        out,
        "\n],\"otherData\":{{\"cycles\":{},\"ops\":{},\"chunks\":{}}}}}\n",
        log.cycles,
        log.ops.len(),
        log.chunks.len()
    );
    out
}

/// Traces one cold run of `bench`/`flavor` and renders it as Chrome
/// trace-event JSON.
///
/// # Panics
///
/// Panics if the kernel mis-executes (via [`Point::emulate`]).
pub fn trace_kernel(bench: &dyn Benchmark, flavor: Flavor) -> String {
    let cached = Point::new(bench, flavor).emulate();
    let (_, log) = OoOCore::new(CpuConfig::default()).run_traced(&cached.trace);
    chrome_trace_json(bench.name(), flavor, &log)
}

/// The golden-snapshot subject: a 64-element SAXPY under UVE, small enough
/// to keep the committed JSON reviewable.
pub fn tiny_saxpy_trace() -> String {
    trace_kernel(&Saxpy::new(64), Flavor::Uve)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_never_overlap() {
        // Spans in commit order with out-of-order starts.
        let spans = [(0u64, 10u64), (2, 12), (5, 14), (10, 20), (12, 22)];
        let lanes = assign_lanes(spans.iter().copied());
        for (i, &(s1, e1)) in spans.iter().enumerate() {
            for (j, &(s2, e2)) in spans.iter().enumerate().skip(i + 1) {
                if lanes[i] == lanes[j] {
                    assert!(e1 <= s2 || e2 <= s1, "lane {} overlaps", lanes[i]);
                }
            }
        }
        assert_eq!(lanes[0], 0);
        assert_eq!(lanes[3], 0, "lane 0 reused once its span ended");
    }

    #[test]
    fn json_escapes_control_chars() {
        assert_eq!(esc("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(esc("x\ny"), "x\\u000ay");
    }

    #[test]
    fn tiny_trace_is_valid_shape() {
        let json = tiny_saxpy_trace();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.trim_end().ends_with('}'));
        assert!(json.contains("\"ph\":\"X\""), "has spans");
        assert!(json.contains("\"ph\":\"C\""), "has counters");
        assert!(json.contains("fifo-u0"), "SAXPY streams through u0");
        // Balanced braces/brackets — a cheap structural JSON check that
        // needs no parser dependency.
        let (mut braces, mut brackets, mut in_str, mut esc_next) = (0i64, 0i64, false, false);
        for c in json.chars() {
            if esc_next {
                esc_next = false;
                continue;
            }
            match c {
                '\\' if in_str => esc_next = true,
                '"' => in_str = !in_str,
                '{' if !in_str => braces += 1,
                '}' if !in_str => braces -= 1,
                '[' if !in_str => brackets += 1,
                ']' if !in_str => brackets -= 1,
                _ => {}
            }
            assert!(braces >= 0 && brackets >= 0);
        }
        assert_eq!(braces, 0);
        assert_eq!(brackets, 0);
        assert!(!in_str);
    }

    #[test]
    fn trace_regeneration_is_deterministic() {
        assert_eq!(tiny_saxpy_trace(), tiny_saxpy_trace());
    }
}
