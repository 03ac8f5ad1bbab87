//! Pins the timing model's outputs under non-default core configurations.
//!
//! The BENCH digests, the golden trace and the sweep canary all replay the
//! Table I core, so a change to the issue stage that only misbehaves off
//! the default shape (a ROB that is not a power of two, small clusters
//! with single memory ports, a narrow issue stage over shallow FIFOs)
//! would pass them. Each config here replays the small catalog in the UVE
//! and scalar flavors single-core (`run_warm`), sharded over two cores
//! (`run_sharded`), and as one preemptive multiprogrammed mix (which
//! covers the freeze/drain path), and folds every run's headline counters
//! and full cycle accounting into an FNV-1a digest of explicit
//! little-endian bytes.
//!
//! A drift here means simulated output changed: either the change is a
//! model change (bump `MODEL_EPOCH` and re-pin, saying why), or it is the
//! regression this test exists to catch.

use uve::core::engine::EngineConfig;
use uve::cpu::{CpuConfig, OoOCore, TimingStats};
use uve::kernels::Flavor;
use uve::mem::{fnv1a, FNV_OFFSET};
use uve::smp::{relocate_trace, run_multiprogrammed, run_sharded, MpConfig};
use uve::Trace;
use uve_sweep::spec::SHARED_PREFIX_LINES;

/// Folds one run's pinned counters into `h`.
fn fold_stats(h: u64, s: &TimingStats) -> u64 {
    let a = &s.account;
    [
        s.cycles,
        s.committed,
        s.rename_blocked_cycles,
        s.branch_mispredicts,
    ]
    .into_iter()
    .chain(a.values())
    .chain(a.fifo_empty_by_u)
    .chain(a.fifo_full_by_u)
    .fold(h, |h, v| fnv1a(h, &v.to_le_bytes()))
}

/// The three pinned configurations, named for failure messages.
fn configs() -> [(&'static str, CpuConfig); 3] {
    let base = CpuConfig::default();
    [
        (
            "rob96",
            CpuConfig {
                rob_entries: 96,
                ..base.clone()
            },
        ),
        (
            "iq40-cluster12-1port",
            CpuConfig {
                iq_entries: 40,
                cluster_entries: 12,
                load_ports: 1,
                store_ports: 1,
                ..base.clone()
            },
        ),
        (
            "issue3-int1-fifo2",
            CpuConfig {
                issue_width: 3,
                int_units: 1,
                engine: EngineConfig {
                    fifo_depth: 2,
                    ..base.engine
                },
                ..base
            },
        ),
    ]
}

/// The small catalog's traces in the UVE and scalar flavors, as
/// `(name, trace)`.
fn traces() -> Vec<(String, Trace)> {
    let mut out = Vec::new();
    for bench in uve_sweep::catalog(true) {
        for flavor in [Flavor::Uve, Flavor::Scalar] {
            let trace = uve::kernels::run(bench.as_ref(), flavor)
                .expect("catalog kernel runs")
                .result
                .trace;
            out.push((format!("{}/{flavor}", bench.name()), trace));
        }
    }
    out
}

fn digest(cpu: &CpuConfig, traces: &[(String, Trace)]) -> u64 {
    let core = OoOCore::new(cpu.clone());
    let mut h = FNV_OFFSET;
    for (_, trace) in traces {
        h = fold_stats(h, &core.run_warm(trace));
        let run = run_sharded(cpu, trace, 2, SHARED_PREFIX_LINES, 0).expect("coherent");
        for s in &run.per_core {
            h = fold_stats(h, s);
        }
    }
    // Four programs over two cores with a short quantum: every program is
    // preempted, drained and restored at least once.
    let mix = ["Memcpy/UVE", "SAXPY/scalar", "GEMM/UVE", "KNN/scalar"];
    let relocated: Vec<Trace> = mix
        .iter()
        .enumerate()
        .map(|(slot, name)| {
            let (_, t) = traces
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{name} is in the small catalog"));
            relocate_trace(t, slot)
        })
        .collect();
    let refs: Vec<&Trace> = relocated.iter().collect();
    let mp = MpConfig {
        cores: 2,
        quantum: 1_000,
        restore_penalty: 200,
        check_every: 0,
    };
    let run = run_multiprogrammed(cpu, &refs, &mp).expect("coherent");
    for p in &run.programs {
        assert!(p.preemptions > 0, "the mix must exercise preemption");
        h = fold_stats(h, &p.stats);
    }
    h
}

#[test]
fn non_default_timing_configs_are_pinned() {
    let traces = traces();
    assert_eq!(traces.len(), 50);
    let got: Vec<(&str, String)> = configs()
        .iter()
        .map(|(name, cpu)| (*name, format!("{:#018x}", digest(cpu, &traces))))
        .collect();
    let want = [
        ("rob96", "0xd87a774bff9b3fc0"),
        ("iq40-cluster12-1port", "0xcb28a08470c33878"),
        ("issue3-int1-fifo2", "0x75c6d8d131367322"),
    ]
    .map(|(name, d)| (name, d.to_string()));
    assert_eq!(
        got, want,
        "non-default timing digests drifted: simulated output changed"
    );
}
