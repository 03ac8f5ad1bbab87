//! Conformance fuzzing of the multicore subsystem (`uve-smp`).
//!
//! Each case picks a small kernel instance, a flavor, a core count, and
//! scheduling parameters, then drives all three multicore entry points and
//! checks their invariants:
//!
//! 1. **sharded lockstep** ([`uve_smp::run_lockstep`] over
//!    [`uve_smp::shard_trace`]d copies): the single-writer MOESI invariant
//!    holds under the periodic full scan, every core's cycle accounting
//!    conserves, every core commits exactly the trace's instruction count,
//!    and a second identical run is bit-identical (cycles and snoop
//!    counters); [`uve_smp::run_sharded`], which relocates lines as the
//!    cores request them instead of copying the trace, must return the
//!    same [`uve_smp::SmpRun`] in every field;
//! 2. **preemptive multiprogramming** ([`uve_smp::run_multiprogrammed`]
//!    over [`uve_smp::relocate_trace`]d copies, one more program than
//!    cores): same coherence/conservation/commit checks per program, plus
//!    a liveness bound — every scheduler tick advances at least one
//!    program's local clock, so the global tick count can never exceed the
//!    summed program cycles — and run-twice determinism;
//! 3. **architectural invisibility** ([`uve_smp::run_round_robin`]): the
//!    functional round-robin scheduler, preempting at a small instruction
//!    quantum with a full stream-context save/restore at every switch,
//!    must finish with the register digest and memory hash of an
//!    uninterrupted solo run.
//!
//! Kernel sizes are capped far below the figure sizes: coherence and
//! scheduling bugs show up at tiny footprints (the shared write prefix is
//! only a few lines), and each case runs the timing model `2·cores + 2`
//! times.

use crate::kernel_diff::KernelCase;
use crate::rng::FuzzRng;
use crate::Engine;
use uve_core::{EmuConfig, Emulator, Trace};
use uve_cpu::CpuConfig;
use uve_kernels::Flavor;
use uve_mem::Memory;
use uve_smp::{
    relocate_trace, run_lockstep, run_multiprogrammed, run_sharded, shard_trace, Job, MpConfig,
};

/// One multicore-conformance case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmpCase {
    /// The kernel instance to run on every core.
    pub kernel: KernelCase,
    /// Code flavour (scalar exercises the L1 MOESI paths, UVE the L2
    /// owner-probe paths).
    pub flavor: Flavor,
    /// Physical cores.
    pub cores: usize,
    /// Written lines left shared between the sharded copies.
    pub shared: usize,
    /// Timing-scheduler quantum in cycles.
    pub quantum: u64,
    /// Functional-scheduler quantum in committed instructions.
    pub steps: u64,
}

fn gen_kernel(rng: &mut FuzzRng) -> KernelCase {
    match rng.below(8) {
        0 => KernelCase::Memcpy(rng.range_usize(1, 96)),
        1 => KernelCase::Stream(rng.range_usize(1, 96)),
        2 => KernelCase::Saxpy(rng.range_usize(1, 96)),
        3 => KernelCase::Mvt(rng.range_usize(1, 16)),
        4 => KernelCase::Trisolv(rng.range_usize(2, 16)),
        5 => KernelCase::Jacobi1d(rng.range_usize(3, 64), 1),
        6 => KernelCase::MamrIndirect(rng.range_usize(1, 16)),
        _ => KernelCase::Knn(rng.range_usize(1, 32), rng.range_usize(1, 4)),
    }
}

/// The multicore-conformance engine.
pub struct SmpEngine;

impl Engine for SmpEngine {
    type Case = SmpCase;

    fn name() -> &'static str {
        "smp"
    }

    fn generate(rng: &mut FuzzRng) -> SmpCase {
        SmpCase {
            kernel: gen_kernel(rng),
            flavor: *rng.pick(&[Flavor::Uve, Flavor::Sve, Flavor::Neon, Flavor::Scalar]),
            cores: *rng.pick(&[2usize, 4]),
            shared: rng.range_usize(0, 24),
            quantum: rng.range_u64(100, 800),
            steps: rng.range_u64(5, 60),
        }
    }

    fn check(case: &SmpCase) -> Result<(), String> {
        let bench = case.kernel.bench();
        let run = uve_kernels::run(bench.as_ref(), case.flavor)
            .map_err(|e| format!("kernel emulation failed: {e:?}"))?;
        let trace = &run.result.trace;
        let solo_digest = run.emulator.arch_digest();
        let solo_hash = run.emulator.mem.content_hash();
        let cpu = CpuConfig::default();
        let ctx = |what: &str| format!("{:?}/{}/{}c {what}", case.kernel, case.flavor, case.cores);

        // 1. Sharded lockstep: coherence, conservation, commit count,
        // run-twice determinism.
        let traces: Vec<Trace> = (0..case.cores)
            .map(|c| shard_trace(trace, c, case.shared))
            .collect();
        let lockstep = || {
            run_lockstep(&cpu, &traces, 32)
                .map_err(|v| format!("{}: {v}", ctx("single-writer violation")))
        };
        let first = lockstep()?;
        for (core, s) in first.per_core.iter().enumerate() {
            s.account
                .check(s.cycles)
                .map_err(|e| format!("{} core {core}: {e}", ctx("lockstep accounting")))?;
            if s.committed != trace.committed() {
                return Err(format!(
                    "{} core {core}: committed {} of {}",
                    ctx("lockstep commit"),
                    s.committed,
                    trace.committed()
                ));
            }
        }
        let sharded = run_sharded(&cpu, trace, case.cores, case.shared, 32)
            .map_err(|v| format!("{}: {v}", ctx("sharded single-writer violation")))?;
        if sharded != first {
            return Err(format!(
                "{}: {sharded:?} vs copies {first:?}",
                ctx("run_sharded differs from lockstep over shard_trace copies")
            ));
        }
        let again = lockstep()?;
        let cycles =
            |r: &uve_smp::SmpRun| -> Vec<u64> { r.per_core.iter().map(|s| s.cycles).collect() };
        if cycles(&first) != cycles(&again) || first.snoop != again.snoop {
            return Err(format!(
                "{}: {:?}/{:?} then {:?}/{:?}",
                ctx("lockstep not deterministic"),
                cycles(&first),
                first.snoop,
                cycles(&again),
                again.snoop
            ));
        }

        // 2. Multiprogramming: one more program than cores forces time
        // slicing on at least one core.
        let programs: Vec<Trace> = (0..=case.cores)
            .map(|slot| relocate_trace(trace, slot))
            .collect();
        let refs: Vec<&Trace> = programs.iter().collect();
        let cfg = MpConfig {
            cores: case.cores,
            quantum: case.quantum,
            restore_penalty: 50,
            check_every: 64,
        };
        let mp = || {
            run_multiprogrammed(&cpu, &refs, &cfg)
                .map_err(|v| format!("{}: {v}", ctx("mp single-writer violation")))
        };
        let m1 = mp()?;
        let total: u64 = m1.programs.iter().map(|p| p.stats.cycles).sum();
        if m1.scheduler_ticks > total {
            return Err(format!(
                "{}: {} ticks for {} summed program cycles — some tick advanced nobody",
                ctx("mp liveness"),
                m1.scheduler_ticks,
                total
            ));
        }
        for (i, p) in m1.programs.iter().enumerate() {
            p.stats
                .account
                .check(p.stats.cycles)
                .map_err(|e| format!("{} program {i}: {e}", ctx("mp accounting")))?;
            if p.stats.committed != trace.committed() {
                return Err(format!(
                    "{} program {i}: committed {} of {}",
                    ctx("mp commit"),
                    p.stats.committed,
                    trace.committed()
                ));
            }
        }
        let m2 = mp()?;
        let prog_cycles = |r: &uve_smp::MpRun| -> Vec<u64> {
            r.programs.iter().map(|p| p.stats.cycles).collect()
        };
        if m1.scheduler_ticks != m2.scheduler_ticks || prog_cycles(&m1) != prog_cycles(&m2) {
            return Err(format!(
                "{}: {} ticks {:?} then {} ticks {:?}",
                ctx("mp not deterministic"),
                m1.scheduler_ticks,
                prog_cycles(&m1),
                m2.scheduler_ticks,
                prog_cycles(&m2)
            ));
        }

        // 3. The functional scheduler must be architecturally invisible.
        let cfg = EmuConfig {
            vlen_bytes: case.flavor.vlen_bytes(),
            ..EmuConfig::default()
        };
        let mut emu = Emulator::new(cfg, Memory::new());
        bench.setup(&mut emu);
        let jobs = vec![Job {
            name: format!("{:?}", case.kernel),
            program: bench.program(case.flavor),
            emu,
        }];
        let outcomes = uve_smp::run_round_robin(jobs, case.cores, case.steps)
            .map_err(|e| format!("{}: {e}", ctx("round robin")))?;
        let out = &outcomes[0];
        if out.arch_digest != solo_digest {
            return Err(format!(
                "{}: register state differs from the solo run",
                ctx("context switching")
            ));
        }
        if out.mem_hash != solo_hash {
            return Err(format!(
                "{}: memory image differs from the solo run",
                ctx("context switching")
            ));
        }
        Ok(())
    }

    fn shrink(case: &SmpCase) -> Vec<SmpCase> {
        let mut out: Vec<SmpCase> = case
            .kernel
            .smaller()
            .into_iter()
            .map(|kernel| SmpCase { kernel, ..*case })
            .collect();
        if case.cores > 2 {
            out.push(SmpCase { cores: 2, ..*case });
        }
        if case.shared > 0 {
            out.push(SmpCase { shared: 0, ..*case });
        }
        if case.flavor != Flavor::Scalar {
            out.push(SmpCase {
                flavor: Flavor::Scalar,
                ..*case
            });
        }
        if case.quantum > 100 {
            out.push(SmpCase {
                quantum: 100,
                ..*case
            });
        }
        if case.steps > 5 {
            out.push(SmpCase { steps: 5, ..*case });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_few_cases_pass() {
        for case in 0..6 {
            let mut rng = FuzzRng::for_case(11, SmpEngine::name(), case);
            let c = SmpEngine::generate(&mut rng);
            SmpEngine::check(&c).unwrap_or_else(|e| panic!("case {case} ({c:?}): {e}"));
        }
    }

    #[test]
    fn shrink_simplifies_along_every_axis() {
        let case = SmpCase {
            kernel: KernelCase::Saxpy(64),
            flavor: Flavor::Uve,
            cores: 4,
            shared: 8,
            quantum: 500,
            steps: 40,
        };
        let cands = SmpEngine::shrink(&case);
        assert!(cands.iter().any(|c| c.cores == 2));
        assert!(cands.iter().any(|c| c.shared == 0));
        assert!(cands.iter().any(|c| c.flavor == Flavor::Scalar));
        assert!(cands.iter().any(|c| c.quantum == 100));
        assert!(cands.iter().any(|c| c.steps == 5));
    }
}
