//! Multicore timing model for the UVE evaluation.
//!
//! Builds an N-core system out of the single-core pieces:
//!
//! - each core is a [`uve_cpu::CorePipeline`] (private L1-D/TLB/stride
//!   prefetcher plus its own Streaming Engine) stepped cycle by cycle;
//! - all cores share the L2/AMPM/DRAM through [`uve_mem::SmpMem`], whose
//!   snoop bus keeps the private L1s MOESI-coherent live — cross-core
//!   invalidations on writes, `M`/`O` → `S` downgrades with dirty
//!   cache-to-cache owner forwarding on reads, and per-core snoop
//!   statistics;
//! - two execution modes: [`sim::run_sharded`] (one trace on every core,
//!   data-parallel, each core relocating its private written lines as it
//!   requests them; [`sim::run_lockstep`] runs one trace per core) and
//!   [`sim::run_multiprogrammed`] (more programs than cores, preemptive
//!   round-robin time slicing with pipeline drain);
//! - the architectural half of preemption lives in
//!   [`sched::run_round_robin`]: instruction-granularity time slicing via
//!   [`uve_core::Emulator::resume`] with full stream-context save/restore
//!   at every switch, which must be invisible in the final state.

#![warn(missing_docs)]

pub mod sched;
pub mod shard;
pub mod sim;

pub use sched::{run_round_robin, Job, JobOutcome, SchedError};
pub use shard::{relocate_trace, shard_trace, written_lines, SHARD_STRIDE_LINES};
pub use sim::{run_lockstep, run_multiprogrammed, run_sharded, MpConfig, MpOutcome, MpRun, SmpRun};

#[cfg(test)]
mod tests {
    use super::*;
    use uve_core::{EmuConfig, Emulator, Trace};
    use uve_cpu::{CpuConfig, OoOCore};
    use uve_kernels::{memcpy::Memcpy, saxpy::Saxpy, Benchmark, Flavor};
    use uve_mem::Memory;

    fn kernel_trace(bench: &dyn Benchmark, flavor: Flavor) -> Trace {
        uve_kernels::run(bench, flavor)
            .expect("kernel must run")
            .result
            .trace
    }

    #[test]
    fn one_core_lockstep_matches_single_core() {
        let trace = kernel_trace(&Saxpy::new(512), Flavor::Uve);
        let cpu = CpuConfig::default();
        let solo = OoOCore::new(cpu.clone()).run(&trace);
        let smp = run_lockstep(&cpu, std::slice::from_ref(&trace), 0)
            .expect("single core cannot violate coherence");
        assert_eq!(smp.per_core.len(), 1);
        assert_eq!(smp.per_core[0].cycles, solo.cycles);
        assert_eq!(smp.per_core[0].committed, solo.committed);
        assert_eq!(smp.per_core[0].account, solo.account);
        assert_eq!(smp.per_core[0].account.snoop_wait, 0);
    }

    #[test]
    fn sharded_two_core_run_generates_coherence_traffic() {
        let trace = kernel_trace(&Saxpy::new(512), Flavor::Scalar);
        let cpu = CpuConfig::default();
        let traces: Vec<Trace> = (0..2).map(|c| shard_trace(&trace, c, 8)).collect();
        let smp = run_lockstep(&cpu, &traces, 64).expect("single-writer invariant must hold");
        let cross: u64 = smp.snoop.iter().map(|s| s.cross_core_events()).sum();
        assert!(cross > 0, "shared written lines must cause snoop traffic");
        assert!(smp.bus_transactions > 0);
        for s in &smp.per_core {
            s.account
                .check(s.cycles)
                .expect("per-core cycle accounting must conserve");
            assert!(s.committed == trace.committed());
        }
    }

    #[test]
    fn sharding_slows_no_core_below_useful_progress() {
        // A fully-private shard (no shared written lines) must behave like
        // independent cores: same committed work, zero-ish interference
        // beyond shared-L2/DRAM contention.
        let trace = kernel_trace(&Memcpy::new(2048), Flavor::Scalar);
        let cpu = CpuConfig::default();
        let solo = OoOCore::new(cpu.clone()).run(&trace);
        let traces: Vec<Trace> = (0..2).map(|c| shard_trace(&trace, c, 0)).collect();
        let smp = run_lockstep(&cpu, &traces, 0).expect("coherent");
        for s in &smp.per_core {
            assert_eq!(s.committed, solo.committed);
            s.account.check(s.cycles).expect("conserves");
        }
    }

    #[test]
    fn multiprogrammed_preempts_and_conserves() {
        // UVE flavours commit one op per 16 elements, so those kernels must
        // be large enough not to fit inside the instruction window (a
        // program whose whole trace is already in flight at the first
        // freeze finishes during the drain and is never preempted again).
        let t0 = kernel_trace(&Saxpy::new(8192), Flavor::Uve);
        let t1 = kernel_trace(&Memcpy::new(1024), Flavor::Scalar);
        let t2 = kernel_trace(&Saxpy::new(1024), Flavor::Scalar);
        let t3 = kernel_trace(&Memcpy::new(8192), Flavor::Uve);
        let cpu = CpuConfig::default();
        let solo: Vec<u64> = [&t0, &t1, &t2, &t3]
            .iter()
            .map(|t| OoOCore::new(cpu.clone()).run(t).committed)
            .collect();
        // UVE flavours finish 1024 elements in few cycles, so the quantum
        // must be small for every program to be preempted at least twice.
        let cfg = MpConfig {
            cores: 2,
            quantum: 150,
            restore_penalty: 200,
            check_every: 256,
        };
        let run = run_multiprogrammed(&cpu, &[&t0, &t1, &t2, &t3], &cfg)
            .expect("single-writer invariant must hold");
        assert_eq!(run.programs.len(), 4);
        for (p, &solo_committed) in run.programs.iter().zip(&solo) {
            assert!(
                p.preemptions >= 2,
                "quantum {} must preempt each program at least twice (got {})",
                cfg.quantum,
                p.preemptions
            );
            assert_eq!(p.stats.committed, solo_committed);
            p.stats
                .account
                .check(p.stats.cycles)
                .expect("per-program cycle accounting must conserve across preemptions");
        }
    }

    #[test]
    fn round_robin_schedule_is_architecturally_invisible() {
        let benches: [(&dyn Benchmark, Flavor); 3] = [
            (&Saxpy::new(300), Flavor::Uve),
            (&Memcpy::new(300), Flavor::Uve),
            (&Saxpy::new(300), Flavor::Scalar),
        ];
        let mut jobs = Vec::new();
        let mut solo = Vec::new();
        for (bench, flavor) in benches {
            let run = uve_kernels::run(bench, flavor).expect("solo run");
            solo.push((run.emulator.arch_digest(), run.emulator.mem.content_hash()));
            let cfg = EmuConfig {
                vlen_bytes: flavor.vlen_bytes(),
                ..EmuConfig::default()
            };
            let mut emu = Emulator::new(cfg, Memory::new());
            bench.setup(&mut emu);
            jobs.push(Job {
                name: format!("{}-{flavor}", bench.name()),
                program: bench.program(flavor),
                emu,
            });
        }
        // UVE flavours commit few dynamic instructions (one op per 16
        // elements), so the quantum must be small to force preemptions.
        let outcomes = run_round_robin(jobs, 2, 20).expect("schedule must complete");
        for (out, (digest, hash)) in outcomes.iter().zip(&solo) {
            assert!(
                out.preemptions >= 2,
                "{}: wanted >=2 preemptions, got {}",
                out.name,
                out.preemptions
            );
            assert_eq!(
                out.arch_digest, *digest,
                "{}: register state differs",
                out.name
            );
            assert_eq!(out.mem_hash, *hash, "{}: memory image differs", out.name);
        }
    }
}
