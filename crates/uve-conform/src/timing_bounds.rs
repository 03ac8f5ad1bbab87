//! Lower-bound conformance of the out-of-order timing model.
//!
//! Each case picks a small kernel instance, a flavor, a core count and a
//! random core shape (widths, window and queue sizes, units and ports,
//! FIFO depth, trap penalty), optionally marks a few trace ops as having
//! trapped on precise stream faults, and replays the trace: single-core
//! warm ([`OoOCore::run_warm`]) or sharded over two cores
//! ([`uve_smp::run_sharded`]). On every core it checks two bounds that
//! hold for any correct in-order-commit dataflow machine, whatever its
//! scheduler:
//!
//! 1. **commit bandwidth** — `cycles ≥ ⌈committed / commit_width⌉`;
//! 2. **critical path** — `cycles ≥` the longest chain through
//!    last-writer register dependencies, where each op on the chain costs
//!    `CpuConfig::latency(class) + fault_trap_penalty × stream_faults`
//!    (every op completes no earlier than that after it issues, and a
//!    consumer issues no earlier than its producers complete).
//!
//! The oracle never looks at the model's internals, so it is independent
//! of how the issue stage finds ready work.

use crate::kernel_diff::KernelCase;
use crate::rng::FuzzRng;
use crate::stats_diff::gen_kernel;
use crate::Engine;
use std::collections::HashMap;
use uve_core::engine::EngineConfig;
use uve_core::Trace;
use uve_cpu::{CpuConfig, OoOCore, TimingStats};
use uve_isa::RegRef;
use uve_kernels::Flavor;

/// The randomized core-shape knobs of a case (everything else stays at
/// the Table I defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreShape {
    /// Fetch/rename width.
    pub fetch_width: usize,
    /// Commit width.
    pub commit_width: usize,
    /// Issue width across all clusters.
    pub issue_width: usize,
    /// Reorder buffer entries.
    pub rob_entries: usize,
    /// Aggregate issue-queue entries.
    pub iq_entries: usize,
    /// Entries per scheduler cluster.
    pub cluster_entries: usize,
    /// Integer ALUs.
    pub int_units: usize,
    /// FP/vector units.
    pub fpvec_units: usize,
    /// Load ports.
    pub load_ports: usize,
    /// Store ports.
    pub store_ports: usize,
    /// Load and store queue entries.
    pub lsq_entries: usize,
    /// Streaming Engine FIFO depth.
    pub fifo_depth: usize,
    /// Cost of one precise stream-fault trap.
    pub fault_trap_penalty: u64,
}

impl CoreShape {
    /// The Table I shape.
    pub fn table_i() -> Self {
        let d = CpuConfig::default();
        Self {
            fetch_width: d.fetch_width,
            commit_width: d.commit_width,
            issue_width: d.issue_width,
            rob_entries: d.rob_entries,
            iq_entries: d.iq_entries,
            cluster_entries: d.cluster_entries,
            int_units: d.int_units,
            fpvec_units: d.fpvec_units,
            load_ports: d.load_ports,
            store_ports: d.store_ports,
            lsq_entries: d.lq_entries,
            fifo_depth: d.engine.fifo_depth,
            fault_trap_penalty: d.fault_trap_penalty,
        }
    }

    fn random(rng: &mut FuzzRng) -> Self {
        Self {
            fetch_width: rng.range_usize(1, 6),
            commit_width: rng.range_usize(1, 6),
            issue_width: rng.range_usize(1, 10),
            rob_entries: rng.range_usize(8, 192),
            iq_entries: rng.range_usize(4, 96),
            cluster_entries: rng.range_usize(2, 32),
            int_units: rng.range_usize(1, 3),
            fpvec_units: rng.range_usize(1, 3),
            load_ports: rng.range_usize(1, 3),
            store_ports: rng.range_usize(1, 2),
            lsq_entries: rng.range_usize(2, 48),
            fifo_depth: *rng.pick(&[2usize, 4, 8, 12]),
            fault_trap_penalty: rng.range_u64(0, 400),
        }
    }

    /// The full configuration.
    pub fn cpu(&self) -> CpuConfig {
        let d = CpuConfig::default();
        CpuConfig {
            fetch_width: self.fetch_width,
            commit_width: self.commit_width,
            issue_width: self.issue_width,
            rob_entries: self.rob_entries,
            iq_entries: self.iq_entries,
            cluster_entries: self.cluster_entries,
            int_units: self.int_units,
            fpvec_units: self.fpvec_units,
            load_ports: self.load_ports,
            store_ports: self.store_ports,
            lq_entries: self.lsq_entries,
            sq_entries: self.lsq_entries,
            engine: EngineConfig {
                fifo_depth: self.fifo_depth,
                ..d.engine
            },
            fault_trap_penalty: self.fault_trap_penalty,
            ..d
        }
    }
}

/// One timing-bounds case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingCase {
    /// The kernel instance to replay.
    pub kernel: KernelCase,
    /// Code flavour.
    pub flavor: Flavor,
    /// Cores: 1 replays warm on one core, 2 shards the trace.
    pub cores: usize,
    /// The core shape.
    pub shape: CoreShape,
    /// Trace ops marked as trapping (every `fault_stride`-th op, from op
    /// `fault_stride - 1`, traps `fault_count` times); `0` marks none.
    pub fault_stride: usize,
    /// Traps per marked op.
    pub fault_count: u32,
}

/// The longest last-writer register-dependency chain of `trace` under
/// `cpu`: each op costs its class latency plus its trap penalties.
pub fn critical_path(trace: &Trace, cpu: &CpuConfig) -> u64 {
    let mut ready: HashMap<RegRef, u64> = HashMap::new();
    let mut longest = 0;
    for op in &trace.ops {
        let start = op
            .srcs
            .iter()
            .filter_map(|s| ready.get(s))
            .copied()
            .max()
            .unwrap_or(0);
        let end =
            start + cpu.latency(op.exec) + cpu.fault_trap_penalty * u64::from(op.stream_faults);
        for &d in &op.dests {
            ready.insert(d, end);
        }
        longest = longest.max(end);
    }
    longest
}

/// Checks both bounds on one core's statistics.
fn check_core(core: usize, s: &TimingStats, cpu: &CpuConfig, path: u64) -> Result<(), String> {
    let commit_floor = s.committed.div_ceil(cpu.commit_width as u64);
    if s.cycles < commit_floor {
        return Err(format!(
            "core {core}: {} cycles < ⌈{} committed / commit width {}⌉ = {commit_floor}",
            s.cycles, s.committed, cpu.commit_width
        ));
    }
    if s.cycles < path {
        return Err(format!(
            "core {core}: {} cycles < register critical path {path}",
            s.cycles
        ));
    }
    Ok(())
}

/// The timing lower-bound engine.
pub struct TimingEngine;

impl Engine for TimingEngine {
    type Case = TimingCase;

    fn name() -> &'static str {
        "timing"
    }

    fn generate(rng: &mut FuzzRng) -> TimingCase {
        let faulted = rng.chance(1, 4);
        TimingCase {
            kernel: gen_kernel(rng),
            flavor: *rng.pick(&[Flavor::Uve, Flavor::Sve, Flavor::Neon, Flavor::Scalar]),
            cores: rng.range_usize(1, 2),
            shape: CoreShape::random(rng),
            fault_stride: if faulted { rng.range_usize(2, 64) } else { 0 },
            fault_count: rng.range_u64(1, 3) as u32,
        }
    }

    fn check(case: &TimingCase) -> Result<(), String> {
        let bench = case.kernel.bench();
        let mut trace = uve_kernels::run(bench.as_ref(), case.flavor)
            .map_err(|e| format!("kernel emulation failed: {e:?}"))?
            .result
            .trace;
        if case.fault_stride > 0 {
            for op in trace
                .ops
                .iter_mut()
                .skip(case.fault_stride - 1)
                .step_by(case.fault_stride)
            {
                op.stream_faults = case.fault_count;
            }
        }
        let cpu = case.shape.cpu();
        let path = critical_path(&trace, &cpu);
        let ctx = format!("{:?}/{}/{}c", case.kernel, case.flavor, case.cores);
        let per_core = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if case.cores == 1 {
                Ok(vec![OoOCore::new(cpu.clone()).run_warm(&trace)])
            } else {
                uve_smp::run_sharded(&cpu, &trace, case.cores, 0, 0)
                    .map(|r| r.per_core)
                    .map_err(|v| format!("{ctx}: single-writer violation: {v}"))
            }
        }))
        .map_err(|p| {
            format!(
                "{ctx}: timing model panicked: {}",
                uve_bench::panic_message(p)
            )
        })??;
        for (core, s) in per_core.iter().enumerate() {
            if s.committed != trace.committed() {
                return Err(format!(
                    "{ctx}: core {core} committed {} of {}",
                    s.committed,
                    trace.committed()
                ));
            }
            check_core(core, s, &cpu, path).map_err(|e| format!("{ctx}: {e}"))?;
        }
        Ok(())
    }

    fn shrink(case: &TimingCase) -> Vec<TimingCase> {
        let mut out: Vec<TimingCase> = case
            .kernel
            .smaller()
            .into_iter()
            .map(|kernel| TimingCase { kernel, ..*case })
            .collect();
        if case.cores > 1 {
            out.push(TimingCase { cores: 1, ..*case });
        }
        if case.fault_stride > 0 {
            out.push(TimingCase {
                fault_stride: 0,
                ..*case
            });
        }
        if case.shape != CoreShape::table_i() {
            out.push(TimingCase {
                shape: CoreShape::table_i(),
                ..*case
            });
        }
        if case.flavor != Flavor::Scalar {
            out.push(TimingCase {
                flavor: Flavor::Scalar,
                ..*case
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uve_core::TraceOp;
    use uve_isa::{ExecClass, RegClass};

    #[test]
    fn critical_path_follows_last_writers_and_traps() {
        let x = |num| RegRef {
            class: RegClass::Int,
            num,
        };
        let cpu = CpuConfig::default();
        let mut t = Trace::new();
        // x1 = div (12); x2 = x1 * _ (3); x1 = alu (1, independent);
        // x3 = x2 + x1, trapping twice.
        let mut op = TraceOp::new(0, ExecClass::IntDiv);
        op.dests.push(x(1));
        t.ops.push(op);
        let mut op = TraceOp::new(1, ExecClass::IntMul);
        op.srcs.push(x(1));
        op.dests.push(x(2));
        t.ops.push(op);
        let mut op = TraceOp::new(2, ExecClass::IntAlu);
        op.dests.push(x(1));
        t.ops.push(op);
        let mut op = TraceOp::new(3, ExecClass::IntAlu);
        op.srcs.extend([x(2), x(1)]);
        op.dests.push(x(3));
        op.stream_faults = 2;
        t.ops.push(op);
        assert_eq!(
            critical_path(&t, &cpu),
            12 + 3 + 1 + 2 * cpu.fault_trap_penalty
        );
    }

    #[test]
    fn seeded_cases_meet_both_bounds() {
        let report = crate::run_engine::<TimingEngine>(7, 24, uve_bench::RunMode::Serial);
        assert!(report.failures.is_empty(), "{}", report.render());
    }
}
