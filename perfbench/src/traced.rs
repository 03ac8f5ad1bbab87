//! The traced replay: the same two passes over one `MemSystem` that
//! `OoOCore::run_warm` makes, driven step by step from outside so each
//! layer's host time can be measured, plus the span log.
//!
//! The memory hierarchy sits behind [`TimedPort`], which times and counts
//! every `MemPort` call by request path. Per-call time is summed into
//! counters on the pass span: there are millions of calls.

use std::fmt::Write as _;
use std::time::Instant;

use uve_core::Trace;
use uve_cpu::{CorePipeline, CpuConfig, TimingStats};
use uve_mem::{FaultStats, MemPort, MemStats, MemSystem, Path, ReadOutcome, Translation};

/// Calls and nanoseconds spent in one class of `MemPort` calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct CallTime {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds inside them.
    pub ns: u64,
}

impl CallTime {
    fn add(&mut self, since: Instant) {
        self.calls += 1;
        self.ns += since.elapsed().as_nanos() as u64;
    }

    fn absorb(&mut self, other: CallTime) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// `MemPort` time split by who asked.
#[derive(Debug, Default, Clone, Copy)]
pub struct PortTime {
    /// Core loads and stores (`Path::Normal`).
    pub core: CallTime,
    /// Streaming Engine requests (`Path::Stream*`).
    pub stream: CallTime,
    /// Translation and fault-injection queries.
    pub other: CallTime,
}

impl PortTime {
    fn by_path(&mut self, path: Path) -> &mut CallTime {
        match path {
            Path::Normal => &mut self.core,
            Path::StreamL1 | Path::StreamL2 | Path::StreamMem => &mut self.stream,
        }
    }

    /// Every call of every class.
    pub fn total(&self) -> CallTime {
        let mut t = self.core;
        t.absorb(self.stream);
        t.absorb(self.other);
        t
    }

    fn absorb(&mut self, other: &PortTime) {
        self.core.absorb(other.core);
        self.stream.absorb(other.stream);
        self.other.absorb(other.other);
    }
}

/// A `MemSystem` behind a port that times every call.
struct TimedPort<'a> {
    mem: &'a mut MemSystem,
    time: PortTime,
}

impl MemPort for TimedPort<'_> {
    fn translate(&mut self, vaddr: u64) -> Translation {
        let t = Instant::now();
        let r = self.mem.translate(vaddr);
        self.time.other.add(t);
        r
    }

    fn fault_transient(&mut self, line: u64, attempt: u32) -> bool {
        let t = Instant::now();
        let r = self.mem.fault_transient(line, attempt);
        self.time.other.add(t);
        r
    }

    fn fault_poisoned(&mut self, line: u64, attempt: u32, from_dram: bool, path: Path) -> bool {
        let t = Instant::now();
        let r = self.mem.fault_poisoned(line, attempt, from_dram, path);
        self.time.other.add(t);
        r
    }

    fn fault_backoff(&self, attempt: u32) -> u64 {
        self.mem.fault_backoff(attempt)
    }

    fn fault_stats(&self) -> FaultStats {
        self.mem.fault_stats()
    }

    fn read_explained(&mut self, addr: u64, pc: u64, now: u64, path: Path) -> ReadOutcome {
        let t = Instant::now();
        let r = self.mem.read_explained(addr, pc, now, path);
        self.time.by_path(path).add(t);
        r
    }

    fn write(&mut self, addr: u64, pc: u64, now: u64, path: Path) -> u64 {
        let t = Instant::now();
        let r = self.mem.write(addr, pc, now, path);
        self.time.by_path(path).add(t);
        r
    }

    fn write_full_line(&mut self, addr: u64, pc: u64, now: u64, path: Path) -> u64 {
        let t = Instant::now();
        let r = self.mem.write_full_line(addr, pc, now, path);
        self.time.by_path(path).add(t);
        r
    }

    fn stats(&self) -> MemStats {
        self.mem.stats()
    }

    fn bus_utilization(&self, cycles: u64) -> f64 {
        self.mem.bus_utilization(cycles)
    }
}

/// Per-layer totals accumulated over the replays of one traced run.
#[derive(Debug, Default, Clone)]
pub struct ReplayTotals {
    /// Replays (points).
    pub replays: u64,
    /// Host ns in whole replays (both passes plus `MemSystem::new`).
    pub replay_ns: u64,
    /// Host ns in `MemSystem::new`.
    pub mem_new_ns: u64,
    /// `MemPort` time by requester.
    pub port: PortTime,
    /// Pipeline steps (simulated cycles stepped, both passes).
    pub steps: u64,
    /// Steps after which `committed()` had not advanced.
    pub nocommit_steps: u64,
    /// Pipeline self time (pass time minus `MemPort` time) of UVE points.
    pub pipeline_ns_uve: u64,
    /// Steps of UVE points.
    pub steps_uve: u64,
    /// Pipeline self time of the other flavours' points.
    pub pipeline_ns_base: u64,
    /// Steps of the other flavours' points.
    pub steps_base: u64,
    /// Warm-pass L1 hits and misses, L2 hits and misses, DRAM lines.
    pub l1: (u64, u64),
    /// See `l1`.
    pub l2: (u64, u64),
    /// See `l1`.
    pub dram_lines: u64,
}

impl ReplayTotals {
    /// Pipeline self time over all points.
    pub fn pipeline_ns(&self) -> u64 {
        self.pipeline_ns_uve + self.pipeline_ns_base
    }
}

/// The per-layer totals and span log of one traced run.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Per-layer totals.
    pub totals: ReplayTotals,
    /// Every span recorded so far.
    pub spans: SpanLog,
}

impl Tracer {
    /// Replays `trace` under `cpu` exactly as `OoOCore::run_warm` does — a
    /// cold pass, `reset_stats`, a warm pass over the same `MemSystem` —
    /// and returns the warm pass's statistics.
    pub fn replay_warm(
        &mut self,
        trace: &Trace,
        cpu: &CpuConfig,
        uve: bool,
        parent: u64,
        job: u64,
    ) -> TimingStats {
        let id = self.spans.begin("replay", parent, job);
        let start = Instant::now();
        let mut mem = MemSystem::new(cpu.mem.clone());
        self.totals.mem_new_ns += start.elapsed().as_nanos() as u64;
        self.pass(trace, cpu, &mut mem, uve, id, job);
        mem.reset_stats();
        let stats = self.pass(trace, cpu, &mut mem, uve, id, job);
        let t = &mut self.totals;
        t.replay_ns += start.elapsed().as_nanos() as u64;
        t.replays += 1;
        t.l1.0 += stats.mem.l1.hits;
        t.l1.1 += stats.mem.l1.misses;
        t.l2.0 += stats.mem.l2.hits;
        t.l2.1 += stats.mem.l2.misses;
        t.dram_lines += stats.mem.dram.reads + stats.mem.dram.writes;
        self.spans.end(id, &[]);
        stats
    }

    /// One pass of `trace` over `mem`, stepped from outside.
    fn pass(
        &mut self,
        trace: &Trace,
        cpu: &CpuConfig,
        mem: &mut MemSystem,
        uve: bool,
        parent: u64,
        job: u64,
    ) -> TimingStats {
        let id = self.spans.begin("pass", parent, job);
        let start = Instant::now();
        let mut port = TimedPort {
            mem,
            time: PortTime::default(),
        };
        let mut pipe = CorePipeline::new(cpu.clone(), trace, 0, false);
        let (mut steps, mut idle) = (0u64, 0u64);
        let mut committed = pipe.committed();
        while !pipe.finished() {
            pipe.step(trace, &mut port, None);
            steps += 1;
            let now = pipe.committed();
            idle += u64::from(now == committed);
            committed = now;
        }
        let stats = pipe.finish(&port);
        let wall = start.elapsed().as_nanos() as u64;
        let time = port.time;
        let self_ns = wall.saturating_sub(time.total().ns);
        let t = &mut self.totals;
        if uve {
            t.pipeline_ns_uve += self_ns;
            t.steps_uve += steps;
        } else {
            t.pipeline_ns_base += self_ns;
            t.steps_base += steps;
        }
        t.steps += steps;
        t.nocommit_steps += idle;
        t.port.absorb(&time);
        self.spans.end(
            id,
            &[
                ("steps", steps),
                ("nocommit_steps", idle),
                ("pipeline_ns", self_ns),
                ("mem_core_calls", time.core.calls),
                ("mem_core_ns", time.core.ns),
                ("mem_stream_calls", time.stream.calls),
                ("mem_stream_ns", time.stream.ns),
                ("mem_other_calls", time.other.calls),
                ("mem_other_ns", time.other.ns),
            ],
        );
        stats
    }
}

/// One recorded span: a layer boundary crossed by one job or request.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    id: u64,
    parent: u64,
    job: u64,
    start_ns: u64,
    end_ns: u64,
    counters: Vec<(&'static str, u64)>,
}

/// Spans kept in memory for the whole run and written out at the end.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Opens a span under `parent` (0 = root) for job or request `job`;
    /// returns its id.
    pub fn begin(&mut self, name: &'static str, parent: u64, job: u64) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            job,
            start_ns: now,
            end_ns: now,
            counters: Vec::new(),
        });
        id
    }

    /// Closes span `id`, attaching `counters`.
    pub fn end(&mut self, id: u64, counters: &[(&'static str, u64)]) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.spans[(id - 1) as usize];
        span.end_ns = now;
        span.counters.extend_from_slice(counters);
    }

    /// Records a span whose interval was measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        job: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (start_ns, end_ns) = (at(start), at(end));
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            name,
            id,
            parent,
            job,
            start_ns,
            end_ns,
            counters: Vec::new(),
        });
        id
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"job\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}",
                s.name, s.id, s.parent, s.job, s.start_ns, s.end_ns
            );
            for (k, v) in &s.counters {
                let _ = write!(out, ", \"{k}\": {v}");
            }
            out.push_str("}\n");
        }
        out
    }
}

/// Host bytes a trace holds: the op and stream tables plus every
/// per-op and per-chunk side vector, by capacity.
pub fn trace_bytes(trace: &Trace) -> u64 {
    fn vec_bytes<T>(v: &Vec<T>) -> usize {
        v.capacity() * std::mem::size_of::<T>()
    }
    let ops: usize = trace
        .ops
        .iter()
        .map(|op| {
            vec_bytes(&op.srcs)
                + vec_bytes(&op.dests)
                + vec_bytes(&op.mem_lines)
                + vec_bytes(&op.stream_reads)
                + vec_bytes(&op.stream_writes)
        })
        .sum();
    let streams: usize = trace
        .streams
        .iter()
        .map(|s| vec_bytes(&s.chunks) + s.chunks.iter().map(|c| vec_bytes(&c.lines)).sum::<usize>())
        .sum();
    (std::mem::size_of::<Trace>()
        + vec_bytes(&trace.ops)
        + ops
        + vec_bytes(&trace.streams)
        + streams) as u64
}
