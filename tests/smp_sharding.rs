//! Copy-free sharding against its reference.
//!
//! [`run_sharded`] runs one trace on every core and relocates each core's
//! private lines as the core requests them. [`shard_trace`] relocates a
//! copy of the trace by the same rule, and [`run_lockstep`] over those
//! copies is the reference. The two must
//! agree on the whole [`uve::smp::SmpRun`]: per-core timing statistics,
//! snoop counters, makespan, bus transactions and coherence scans.

use uve::cpu::CpuConfig;
use uve::kernels::Flavor;
use uve::smp::{run_lockstep, run_sharded, shard_trace};

#[test]
fn run_sharded_matches_lockstep_over_shard_trace_copies() {
    let cpu = CpuConfig::default();
    let flavors = [Flavor::Uve, Flavor::Sve, Flavor::Neon, Flavor::Scalar];
    let catalog = uve_sweep::catalog(true);
    assert_eq!(catalog.len(), 25);
    for bench in &catalog {
        for flavor in flavors {
            let trace = uve::kernels::run(bench.as_ref(), flavor)
                .expect("catalog kernel runs")
                .result
                .trace;
            for cores in [2, 4] {
                for shared in [0, 16] {
                    let copies: Vec<_> =
                        (0..cores).map(|c| shard_trace(&trace, c, shared)).collect();
                    let want = run_lockstep(&cpu, &copies, 0).expect("coherent");
                    let got = run_sharded(&cpu, &trace, cores, shared, 0).expect("coherent");
                    assert_eq!(
                        got,
                        want,
                        "{}/{flavor} cores={cores} shared={shared}",
                        bench.name()
                    );
                }
            }
        }
    }
}
