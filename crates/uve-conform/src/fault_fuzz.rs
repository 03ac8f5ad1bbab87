//! Differential fuzzing of the fault subsystem.
//!
//! Each case picks a kernel instance (the same generator as the kernel
//! differ, covering all 19 evaluation kernels at randomized sizes) plus a
//! fault schedule — a [`StreamFaultPlan`] for the architectural layer and
//! optionally a hostile [`FaultConfig`] for the timing-model memory
//! hierarchy — and checks three properties end to end:
//!
//! 1. **no panic**: the whole run executes under [`uve_bench::isolated`];
//!    any panic (in the emulator, the recovery path, or the timing model)
//!    is a failure, not a crash of the fuzzer;
//! 2. **bit-identical recovery**: a run with injected stream faults must
//!    finish with exactly the memory image ([`content_hash`]) and
//!    architectural state ([`arch_digest`]) of the fault-free run, with
//!    the same committed-instruction count and a passing kernel oracle;
//! 3. **cycle conservation under injection**: replaying the faulted trace
//!    under the out-of-order model (with memory-level injection when the
//!    case asks for it) must still satisfy the accounting conservation
//!    law — the `fault-replay` category absorbs the retry cycles, it
//!    doesn't leak them.
//!
//! [`content_hash`]: uve_mem::Memory::content_hash
//! [`arch_digest`]: uve_core::Emulator::arch_digest

use crate::kernel_diff::{gen_case, KernelCase};
use crate::rng::FuzzRng;
use crate::Engine;
use uve_core::{EmuConfig, Emulator, StreamFaultPlan, Trace};
use uve_cpu::{CpuConfig, OoOCore};
use uve_kernels::{Benchmark, Flavor};
use uve_mem::{FaultConfig, Memory};

/// One fault-conformance case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultCase {
    /// The kernel instance to torture.
    pub kernel: KernelCase,
    /// Seed of both the stream-fault plan and the memory injector.
    pub fault_seed: u64,
    /// 1-in-N odds each first-touched page faults in the stream plan
    /// (1 = every page).
    pub page_rate: u64,
    /// Whether the timing replay also runs under hostile memory-hierarchy
    /// injection (transients, poisoned responses, TLB faults).
    pub inject_timing: bool,
}

/// Everything the bit-identity diff compares between two runs.
struct RunSummary {
    mem_hash: u64,
    arch_digest: u64,
    committed: u64,
    faults_taken: u64,
    trace: Trace,
}

/// Runs the kernel's UVE program, optionally under a stream-fault plan,
/// checks the kernel oracle, and summarizes the final state.
fn run_uve(bench: &dyn Benchmark, plan: Option<StreamFaultPlan>) -> Result<RunSummary, String> {
    let mut emu = Emulator::new(EmuConfig::default(), Memory::new());
    bench.setup(&mut emu);
    let label = if plan.is_some() { "faulted" } else { "clean" };
    emu.set_fault_plan(plan);
    let program = bench.program(Flavor::Uve);
    let result = emu
        .run(&program)
        .map_err(|e| format!("{}/{label}: {e}", bench.name()))?;
    bench
        .check(&emu)
        .map_err(|e| format!("{}/{label}: oracle failed: {e}", bench.name()))?;
    Ok(RunSummary {
        mem_hash: emu.mem.content_hash(),
        arch_digest: emu.arch_digest(),
        committed: result.committed,
        faults_taken: emu.faults_taken(),
        trace: result.trace,
    })
}

fn check_case(case: &FaultCase) -> Result<(), String> {
    let bench = case.kernel.bench();

    // Property 2: recovery is bit-identical to the fault-free run.
    let clean = run_uve(bench.as_ref(), None)?;
    let plan = StreamFaultPlan::new(case.fault_seed, case.page_rate);
    let faulted = run_uve(bench.as_ref(), Some(plan))?;
    if faulted.mem_hash != clean.mem_hash {
        return Err(format!(
            "{}: memory diverged after {} recovered fault(s): {:#x} vs clean {:#x}",
            bench.name(),
            faulted.faults_taken,
            faulted.mem_hash,
            clean.mem_hash
        ));
    }
    if faulted.arch_digest != clean.arch_digest {
        return Err(format!(
            "{}: architectural state diverged after {} recovered fault(s)",
            bench.name(),
            faulted.faults_taken
        ));
    }
    if faulted.committed != clean.committed {
        return Err(format!(
            "{}: committed differs under faults: {} vs clean {}",
            bench.name(),
            faulted.committed,
            clean.committed
        ));
    }

    // Property 3: the timing model stays conserved replaying the faulted
    // trace (which carries the stream-fault trap stamps), with memory-level
    // injection layered on top when the case asks for it.
    let mut cpu = CpuConfig::default();
    if case.inject_timing {
        cpu.mem.fault = Some(FaultConfig::hostile(case.fault_seed));
    }
    let stats = OoOCore::new(cpu).run(&faulted.trace);
    stats
        .account
        .check(stats.cycles)
        .map_err(|e| format!("{}: conservation under injection: {e}", bench.name()))?;
    if stats.committed == 0 {
        return Err(format!("{}: timing replay committed nothing", bench.name()));
    }
    Ok(())
}

/// The fault-subsystem engine.
pub struct FaultEngine;

impl Engine for FaultEngine {
    type Case = FaultCase;

    fn name() -> &'static str {
        "fault"
    }

    fn generate(rng: &mut FuzzRng) -> FaultCase {
        FaultCase {
            kernel: gen_case(rng),
            fault_seed: rng.u64(),
            page_rate: *rng.pick(&[1u64, 2, 4, 16]),
            inject_timing: rng.bool(),
        }
    }

    // Property 1: never panic. Any unwind out of the model is converted
    // into an ordinary failure the shrinker can work on.
    fn check(case: &FaultCase) -> Result<(), String> {
        uve_bench::isolated(None, || check_case(case))
            .unwrap_or_else(|message| Err(format!("panicked: {message}")))
    }

    fn shrink(case: &FaultCase) -> Vec<FaultCase> {
        let mut out: Vec<FaultCase> = case
            .kernel
            .smaller()
            .into_iter()
            .map(|kernel| FaultCase { kernel, ..*case })
            .collect();
        if case.inject_timing {
            out.push(FaultCase {
                inject_timing: false,
                ..*case
            });
        }
        if case.page_rate > 1 {
            // More faults usually reproduce the bug on a smaller kernel.
            out.push(FaultCase {
                page_rate: 1,
                ..*case
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = FaultEngine::generate(&mut FuzzRng::for_case(7, "fault", 63));
        let b = FaultEngine::generate(&mut FuzzRng::for_case(7, "fault", 63));
        assert_eq!(a, b);
    }

    #[test]
    fn every_page_faults_still_recovers_on_an_indirect_kernel() {
        // Case (7, 233) generates MamrIndirect(28) with page_rate 1: every
        // first-touched page faults, inside indirect-modifier regions.
        let case = FaultEngine::generate(&mut FuzzRng::for_case(7, "fault", 233));
        assert!(matches!(case.kernel, KernelCase::MamrIndirect(_)));
        assert_eq!(case.page_rate, 1);
        FaultEngine::check(&case).unwrap();
    }

    #[test]
    fn a_panicking_case_is_a_failure_not_a_crash() {
        // Irsmk(0) panics in the kernel constructor (n < 548) — the
        // engine must convert the unwind into an ordinary failure.
        let case = FaultCase {
            kernel: KernelCase::Irsmk(0),
            fault_seed: 1,
            page_rate: 1,
            inject_timing: false,
        };
        let err = FaultEngine::check(&case).unwrap_err();
        assert!(err.starts_with("panicked:"), "{err}");
    }

    #[test]
    fn shrink_prefers_smaller_kernels_and_simpler_schedules() {
        let case = FaultCase {
            kernel: KernelCase::Saxpy(64),
            fault_seed: 3,
            page_rate: 16,
            inject_timing: true,
        };
        let cands = FaultEngine::shrink(&case);
        assert!(cands.iter().any(|c| c.kernel == KernelCase::Saxpy(32)));
        assert!(cands.iter().any(|c| !c.inject_timing));
        assert!(cands.iter().any(|c| c.page_rate == 1));
    }
}
