//! Stream control and context switching through the full emulator: the
//! paper's `ss.suspend`/`ss.resume`/`ss.stop` semantics and the
//! save/restore path of Sec. IV-A.

use uve::core::{EmuConfig, Emulator, StreamUnit};
use uve::isa::{assemble, VReg};
use uve::mem::Memory;
use uve::stream::SavedWalker;
use uve_isa::Dir;

#[test]
fn suspend_resume_through_programs() {
    // Sum a stream in two halves with an explicit suspend/resume between.
    let prog = assemble(
        "suspend",
        "
    li x10, 32
    li x11, 0x1000
    li x13, 1
    ss.ld.w u0, x11, x10, x13
    so.v.dup.w.fp u5, f31
    ; first half: 16 elements = one full chunk
    so.a.hadd.w.fp u6, u0, p0
    so.a.add.w.fp u5, u5, u6, p0
    ss.suspend u0
    ; unrelated work while the stream is frozen
    addi x20, x0, 7
    ss.resume u0
loop:
    so.a.hadd.w.fp u6, u0, p0
    so.a.add.w.fp u5, u5, u6, p0
    so.b.nend u0, loop
    so.v.extr.f.w f1, u5[0]
    li x21, 0x2000
    fst.w f1, 0(x21)
    halt
",
    )
    .unwrap();
    let mut emu = Emulator::new(EmuConfig::default(), Memory::new());
    let data: Vec<f32> = (0..32).map(|i| i as f32).collect();
    emu.mem.write_f32_slice(0x1000, &data);
    emu.run(&prog).unwrap();
    assert_eq!(emu.mem.read_f32(0x2000), data.iter().sum::<f32>());
}

#[test]
fn stop_frees_the_register_for_vector_use() {
    let prog = assemble(
        "stop",
        "
    li x10, 48
    li x11, 0x1000
    li x13, 1
    ss.ld.w u0, x11, x10, x13
    so.v.mv u5, u0          ; consume one chunk (stream still active)
    ss.stop u0              ; terminate early
    so.v.dup.w.fp u0, f10   ; u0 is a plain register again
    so.a.add.w.fp u6, u5, u0, p0
    so.v.extr.f.w f1, u6[0]
    li x21, 0x2000
    fst.w f1, 0(x21)
    halt
",
    )
    .unwrap();
    let mut emu = Emulator::new(EmuConfig::default(), Memory::new());
    emu.set_f(uve::isa::FReg::FA0, 10.0);
    emu.mem.write_f32_slice(0x1000, &[5.0; 48]);
    emu.run(&prog).unwrap();
    assert_eq!(emu.mem.read_f32(0x2000), 15.0);
}

#[test]
fn context_state_sizes_respect_paper_bounds() {
    // Build streams of increasing complexity and check the saved state
    // stays in the paper's 32 B – 400 B envelope.
    use uve::core::Trace;
    use uve::stream::ElemWidth;
    let mem = Memory::new();
    let mut unit = StreamUnit::new();
    let mut trace = Trace::new();
    unit.start(
        VReg::new(0),
        Dir::Load,
        ElemWidth::Word,
        0,
        64,
        1,
        true,
        &mut trace,
    )
    .unwrap();
    let ctx = unit.save_context();
    assert_eq!(ctx.len(), 1);
    let size = ctx[0].1.size_bytes();
    assert!((32..=400).contains(&size), "{size}");
    unit.restore_context(&ctx, &mem);
}

#[test]
fn save_restore_under_indirect_modifiers() {
    // A context switch can land between any two elements of an indirect
    // gather; the restored walker must resume the origin stream at the
    // right cursor, not replay it. Cuts at every position of a 13-element
    // gather (prime length, so no alignment masks the bug).
    use uve::stream::{ElemWidth, IndirectBehaviour, Param, Pattern, SliceMemory, Walker};
    let indices: Vec<i64> = vec![3, 0, 7, 7, 1, 12, 4, 9, 2, 11, 5, 10, 6];
    let mem = SliceMemory::new(indices.clone());
    let origin = Pattern::linear(0, ElemWidth::Word, indices.len() as u64).unwrap();
    let p = Pattern::builder(0x4000, ElemWidth::Word)
        .dim(0, 1, 0)
        .indirect_outer(
            Param::Offset,
            IndirectBehaviour::SetAdd,
            origin,
            indices.len() as u64,
        )
        .build()
        .unwrap();
    let full: Vec<u64> = Walker::new(&p).iter(&mem).map(|e| e.addr).collect();
    assert_eq!(full.len(), indices.len());
    for cut in 0..=full.len() {
        let mut w = Walker::new(&p);
        for _ in 0..cut {
            w.next_elem(&mem);
        }
        let saved = SavedWalker::capture(&w);
        let mut w2 = Walker::new(&p);
        saved.restore(&mut w2, &mem);
        let suffix: Vec<u64> = w2.iter(&mem).map(|e| e.addr).collect();
        assert_eq!(suffix, full[cut..].to_vec(), "cut {cut}");
    }
}

#[test]
fn save_restore_at_non_vlen_multiple_cuts() {
    // Stream lengths and suspension points that are not multiples of the
    // vector length: a 16-lane machine suspending mid-chunk. The restored
    // walker must also re-chunk the tail correctly.
    use uve::stream::{ElemWidth, NoMemory, Pattern, VectorWalker, Walker};
    const VL: usize = 16; // 512-bit vectors of 32-bit words
    let p = Pattern::builder(0, ElemWidth::Word)
        .dim(0, 10, 1) // rows of 10: every chunk boundary is off-VLEN
        .dim(0, 5, 10)
        .build()
        .unwrap();
    let full: Vec<u64> = Walker::new(&p).iter(&NoMemory).map(|e| e.addr).collect();
    assert_eq!(full.len(), 50);
    for cut in [1usize, 9, 10, 19, 25, 33, 49] {
        assert_ne!(cut % VL, 0);
        let mut w = Walker::new(&p);
        for _ in 0..cut {
            w.next_elem(&NoMemory);
        }
        let saved = SavedWalker::capture(&w);
        let mut w2 = Walker::new(&p);
        saved.restore(&mut w2, &NoMemory);
        let suffix: Vec<u64> = w2.iter(&NoMemory).map(|e| e.addr).collect();
        assert_eq!(suffix, full[cut..].to_vec(), "cut {cut}");
        // The resumed stream re-chunks: valid counts stay in 1..=VL and
        // concatenate to exactly the remaining elements.
        let mut vw = VectorWalker::new(&p, VL);
        saved.restore(vw.walker_mut(), &NoMemory);
        let mut rechunked = Vec::new();
        while let Some(c) = vw.next_chunk(&NoMemory) {
            assert!(c.valid >= 1 && c.valid <= VL, "cut {cut}");
            rechunked.extend_from_slice(&c.addrs);
        }
        assert_eq!(rechunked, full[cut..].to_vec(), "cut {cut}");
    }
}

#[test]
fn scheduler_preemption_in_indirect_modifier_region_is_invisible() {
    // PR 5 (multicore): the preemptive round-robin scheduler slices
    // programs at instruction granularity, so with a small quantum the
    // context switch lands mid-chunk inside the indirect-modifier region
    // of the MAMR gather kernel. Every switch runs the full protocol —
    // save the stream walkers, discard prefetched FIFO data, restore from
    // the saved state — and the final registers and memory must be
    // bit-identical to uninterrupted solo runs.
    use uve::kernels::{mamr::Mamr, memcpy::Memcpy, Benchmark, Flavor};
    use uve::smp::{run_round_robin, Job};

    let benches: [&dyn Benchmark; 2] = [&Mamr::indirect(24), &Memcpy::new(300)];
    let flavor = Flavor::Uve;
    let mut jobs = Vec::new();
    let mut solo = Vec::new();
    for bench in benches {
        let run = uve::kernels::run(bench, flavor).unwrap();
        solo.push((run.emulator.arch_digest(), run.emulator.mem.content_hash()));
        let cfg = EmuConfig {
            vlen_bytes: flavor.vlen_bytes(),
            ..EmuConfig::default()
        };
        let mut emu = Emulator::new(cfg, Memory::new());
        bench.setup(&mut emu);
        jobs.push(Job {
            name: bench.name().to_string(),
            program: bench.program(flavor),
            emu,
        });
    }
    // Quantum 3: cuts land inside the gather's indirect chunk production,
    // not only at chunk boundaries.
    let outcomes = run_round_robin(jobs, 3).unwrap();
    for (out, (digest, hash)) in outcomes.iter().zip(&solo) {
        assert!(
            out.preemptions >= 2,
            "{}: {} preemptions",
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

#[test]
fn resume_budget_cuts_at_non_vlen_multiples_are_invisible() {
    // PR 5 (multicore): drive `Emulator::resume` directly with prime
    // instruction budgets over a kernel whose streams re-chunk off any
    // VLEN multiple (Jacobi-1d at 53 points: 51 interior elements chunk as
    // 16+16+16+3), doing a full stream-context save/restore round trip at
    // every pause. The interrupted runs must converge to the solo state,
    // also when every first-touched stream page faults, so that precise
    // fault rollback interleaves with the slice cuts.
    use uve::core::{RunCursor, StreamFaultPlan};
    use uve::kernels::{jacobi::Jacobi1d, Benchmark, Flavor};

    let bench = Jacobi1d::new(53, 2);
    let flavor = Flavor::Uve;
    let solo = uve::kernels::run(&bench, flavor).unwrap();
    let want = (
        solo.emulator.arch_digest(),
        solo.emulator.mem.content_hash(),
    );

    for (budget, faulted) in [1u64, 5, 7, 13]
        .into_iter()
        .flat_map(|b| [(b, false), (b, true)])
    {
        let cfg = EmuConfig {
            vlen_bytes: flavor.vlen_bytes(),
            ..EmuConfig::default()
        };
        let mut emu = Emulator::new(cfg, Memory::new());
        bench.setup(&mut emu);
        emu.set_fault_plan(faulted.then(|| StreamFaultPlan::new(9, 1)));
        let program = bench.program(flavor);
        let mut cursor = RunCursor::new();
        let mut pauses = 0u64;
        loop {
            let halted = emu.resume(&program, &mut cursor, Some(budget)).unwrap();
            if halted {
                break;
            }
            pauses += 1;
            let saved = emu.save_stream_context();
            emu.restore_stream_context(&saved);
        }
        assert!(pauses >= 2, "budget {budget}: only {pauses} pauses");
        assert_eq!(faulted, emu.faults_taken() > 0, "budget {budget}");
        assert_eq!(
            emu.arch_digest(),
            want.0,
            "budget {budget}, faulted {faulted}: register state differs"
        );
        assert_eq!(
            emu.mem.content_hash(),
            want.1,
            "budget {budget}, faulted {faulted}: memory image differs"
        );
    }
}

#[test]
fn saved_walker_is_cloneable_and_comparable() {
    use uve::stream::{ElemWidth, NoMemory, Pattern, Walker};
    let p = Pattern::linear(0, ElemWidth::Word, 64).unwrap();
    let mut w = Walker::new(&p);
    w.next_elem(&NoMemory);
    let s1 = SavedWalker::capture(&w);
    let s2 = s1.clone();
    assert_eq!(s1, s2);
    w.next_elem(&NoMemory);
    let s3 = SavedWalker::capture(&w);
    assert_ne!(s1, s3);
}

#[test]
fn stream_fault_inside_indirect_gather_recovers_bit_identically() {
    // PR 4 (fault model): a stream element can fault at any position of an
    // indirect gather. The fault must be precise — walker rolled back, no
    // chunk emitted — and the post-handler resume must reproduce the
    // fault-free chunk sequence bit for bit. Faults are forced at every
    // element position of a 13-element gather (prime length: cuts land at
    // non-VLEN-multiple positions inside the indirect-modifier region).
    use uve::core::{StreamError, Trace};
    use uve::isa::VReg;
    use uve::stream::{ElemWidth, IndirectBehaviour, Param};

    let indices: [u32; 13] = [3, 0, 7, 7, 1, 12, 4, 9, 2, 11, 5, 10, 6];
    let mut mem = Memory::new();
    for (i, &idx) in indices.iter().enumerate() {
        mem.write_u32(0x4000 + 4 * i as u64, idx);
    }
    for i in 0..16u64 {
        mem.write_f32(0x8000 + 4 * i, (100 + i) as f32);
    }

    let build = |mem: &Memory, trace: &mut Trace| {
        let mut unit = StreamUnit::new();
        unit.start(
            VReg::new(1),
            Dir::Load,
            ElemWidth::Word,
            0x4000,
            indices.len() as u64,
            1,
            true,
            trace,
        )
        .unwrap();
        unit.start(
            VReg::new(0),
            Dir::Load,
            ElemWidth::Word,
            0x8000,
            1,
            0,
            false,
            trace,
        )
        .unwrap();
        unit.append_indirect_mod(
            VReg::new(0),
            Param::Offset,
            IndirectBehaviour::SetAdd,
            VReg::new(1),
            true,
            mem,
            trace,
        )
        .unwrap();
        unit
    };

    // Fault-free reference chunk sequence.
    let mut trace = Trace::new();
    let mut unit = build(&mem, &mut trace);
    let mut want = Vec::new();
    loop {
        want.push(unit.consume(VReg::new(0), &mem, 64, &mut trace).unwrap());
        if unit.get(VReg::new(0)).unwrap().at_end() {
            break;
        }
    }

    for cut in 0..indices.len() {
        let mut trace = Trace::new();
        let mut unit = build(&mem, &mut trace);
        let mut got = Vec::new();
        // The probe faults exactly once, on the `cut`-th element probe.
        let mut probes = 0usize;
        let mut faulted = false;
        loop {
            let mut probe = |_page: u64| {
                let fire = !faulted && probes == cut;
                probes += 1;
                fire
            };
            match unit.consume_with(VReg::new(0), &mem, 64, &mut trace, Some(&mut probe)) {
                Ok(c) => got.push(c),
                Err(StreamError::PageFault { u: 0, .. }) => {
                    assert!(!faulted, "cut {cut}: a single fault may fire once");
                    faulted = true;
                    // Precise: nothing was emitted for the faulting chunk.
                    let emitted: usize = trace.streams[1]
                        .chunks
                        .iter()
                        .map(|c| c.valid as usize)
                        .sum();
                    assert_eq!(
                        emitted,
                        got.iter().map(|c| c.value.valid_count()).sum::<usize>()
                    );
                }
                Err(e) => panic!("cut {cut}: {e}"),
            }
            if unit.get(VReg::new(0)).unwrap().at_end() {
                break;
            }
        }
        assert!(faulted, "cut {cut} must trap");
        assert_eq!(got.len(), want.len(), "cut {cut}: chunk count diverged");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.value, w.value, "cut {cut}: recovered run diverged");
        }
    }
}

#[test]
fn save_restore_at_mid_packed_chunk_cuts() {
    // Packed indirect chunking: chunks of an indirectly modified stream
    // span dimension-0 boundaries, so a context switch can land inside a
    // packed chunk that no strict (unpacked) walk would ever have open.
    // Cut a 3-row x 40-element gather inside, at, and across packed-chunk
    // and row boundaries; the restored walker must re-chunk the tail
    // packed and bit-identical to the uncut walk.
    use uve::stream::{
        ElemWidth, IndirectBehaviour, IndirectPacking, Param, Pattern, SliceMemory, VectorWalker,
        Walker,
    };
    const VL: usize = 16;
    let total = 120u64; // 3 rows of 40 gathered elements
    let indices: Vec<i64> = (0..total).map(|i| ((i * 7) % total) as i64).collect();
    let mem = SliceMemory::new(indices);
    let origin = Pattern::linear(0, ElemWidth::Word, total).unwrap();
    let p = Pattern::builder(0x1_0000, ElemWidth::Word)
        .dim(0, 1, 0)
        .dim(0, 40, 0)
        .indirect_mod(Param::Offset, IndirectBehaviour::SetAdd, origin)
        .dim(0, 3, 0)
        .build()
        .unwrap();
    let full: Vec<u64> = Walker::new(&p).iter(&mem).map(|e| e.addr).collect();
    assert_eq!(full.len(), total as usize);
    // Rows of 40 pack as 16+16+8: cuts 5/17/23/53/113 land mid-packed-
    // chunk, 16 on a packed-chunk boundary mid-row, 40 on a row boundary.
    for cut in [5usize, 16, 17, 23, 39, 40, 53, 113] {
        let mut w = Walker::new(&p);
        for _ in 0..cut {
            w.next_elem(&mem);
        }
        let saved = SavedWalker::capture(&w);
        let mut vw = VectorWalker::with_packing(&p, VL, IndirectPacking::Packed);
        assert!(vw.packs());
        saved.restore(vw.walker_mut(), &mem);
        let mut rechunked = Vec::new();
        let mut widths = Vec::new();
        while let Some(c) = vw.next_chunk(&mem) {
            widths.push(c.valid);
            rechunked.extend_from_slice(&c.addrs);
        }
        assert_eq!(rechunked, full[cut..].to_vec(), "cut {cut}");
        // The resumed walk still packs: the first chunk fills to VL unless
        // the current row runs out first.
        let to_row_end = 40 - cut % 40;
        assert_eq!(widths[0], to_row_end.min(VL), "cut {cut}");
    }
}

#[test]
fn stream_fault_recovery_is_packing_invariant() {
    // The precise-fault protocol must not depend on the chunking mode:
    // fault at every element position of an indirect gather under both
    // packing modes and compare the recovered element sequences. Packed
    // mode lands every fault mid-packed-chunk (the 13 elements form one
    // packed chunk); unpacked mode replays the same walk one element per
    // chunk. Both must recover the identical value sequence.
    use uve::core::{IndirectPacking, StreamError, Trace};
    use uve::stream::{ElemWidth, IndirectBehaviour, Param};

    let indices: [u32; 13] = [3, 0, 7, 7, 1, 12, 4, 9, 2, 11, 5, 10, 6];
    let mut mem = Memory::new();
    for (i, &idx) in indices.iter().enumerate() {
        mem.write_u32(0x4000 + 4 * i as u64, idx);
    }
    for i in 0..16u64 {
        mem.write_f32(0x8000 + 4 * i, (100 + i) as f32);
    }

    let build = |packing: IndirectPacking, mem: &Memory, trace: &mut Trace| {
        let mut unit = StreamUnit::with_config(Default::default(), packing);
        unit.start(
            VReg::new(1),
            Dir::Load,
            ElemWidth::Word,
            0x4000,
            indices.len() as u64,
            1,
            true,
            trace,
        )
        .unwrap();
        unit.start(
            VReg::new(0),
            Dir::Load,
            ElemWidth::Word,
            0x8000,
            1,
            0,
            false,
            trace,
        )
        .unwrap();
        unit.append_indirect_mod(
            VReg::new(0),
            Param::Offset,
            IndirectBehaviour::SetAdd,
            VReg::new(1),
            true,
            mem,
            trace,
        )
        .unwrap();
        unit
    };

    // Runs the gather to completion, optionally forcing one precise fault
    // on the `fault_at`-th element probe; returns the flattened values and
    // the chunk count.
    let run = |packing: IndirectPacking, fault_at: Option<usize>| -> (Vec<f64>, usize) {
        let mut trace = Trace::new();
        let mut unit = build(packing, &mem, &mut trace);
        let mut vals = Vec::new();
        let mut chunks = 0usize;
        let mut probes = 0usize;
        let mut faulted = false;
        loop {
            let mut probe = |_page: u64| {
                let fire = !faulted && Some(probes) == fault_at;
                probes += 1;
                fire
            };
            match unit.consume_with(VReg::new(0), &mem, 64, &mut trace, Some(&mut probe)) {
                Ok(c) => {
                    chunks += 1;
                    for l in 0..c.value.valid_count() {
                        vals.push(c.value.float(l));
                    }
                }
                Err(StreamError::PageFault { u: 0, .. }) => {
                    assert!(!faulted, "{packing:?}: a single fault may fire once");
                    faulted = true;
                }
                Err(e) => panic!("{packing:?} fault_at {fault_at:?}: {e}"),
            }
            if unit.get(VReg::new(0)).unwrap().at_end() {
                break;
            }
        }
        assert_eq!(faulted, fault_at.is_some(), "{packing:?} {fault_at:?}");
        (vals, chunks)
    };

    let (want, packed_chunks) = run(IndirectPacking::Packed, None);
    let (unpacked, unpacked_chunks) = run(IndirectPacking::Unpacked, None);
    assert_eq!(want, unpacked, "modes must gather identical values");
    assert_eq!(packed_chunks, 1, "13 elements pack into one chunk");
    assert_eq!(unpacked_chunks, 13, "strict mode closes at every dim-0 end");
    for packing in [IndirectPacking::Packed, IndirectPacking::Unpacked] {
        for cut in 0..indices.len() {
            let (vals, _) = run(packing, Some(cut));
            assert_eq!(vals, want, "{packing:?} cut {cut}");
        }
    }
}

#[test]
fn saved_walker_restores_across_fault_at_non_vlen_multiple_cuts() {
    // PR 4 (fault model): after a precise stream fault, the OS may context
    // switch before re-executing. Capture the stream context at the fault
    // boundary, restore it into a fresh unit, and finish there: the
    // concatenation of pre-fault and post-restore chunks must equal the
    // fault-free run. Rows of 10 words make every chunk boundary (and
    // therefore every fault) land off any VLEN multiple.
    use uve::core::{StreamError, Trace};
    use uve::isa::VReg;
    use uve::stream::ElemWidth;

    let mut mem = Memory::new();
    let data: Vec<f32> = (0..50).map(|i| i as f32).collect();
    mem.write_f32_slice(0x1000, &data);

    let build = |trace: &mut Trace| {
        let mut unit = StreamUnit::new();
        unit.start(
            VReg::new(0),
            Dir::Load,
            ElemWidth::Word,
            0x1000,
            10,
            1,
            false,
            trace,
        )
        .unwrap();
        unit.append_dim(VReg::new(0), 0, 5, 10, true, trace)
            .unwrap();
        unit
    };

    let collect = |unit: &mut StreamUnit, trace: &mut Trace| {
        let mut vals = Vec::new();
        loop {
            let c = unit.consume(VReg::new(0), &mem, 64, trace).unwrap();
            assert!(c.value.valid_count() <= 10, "rows re-chunk at 10");
            vals.push(c.value);
            if unit.get(VReg::new(0)).unwrap().at_end() {
                break;
            }
        }
        vals
    };
    let mut trace = Trace::new();
    let want = collect(&mut build(&mut trace), &mut trace);

    for chunks_before_fault in [0usize, 1, 3] {
        let mut trace = Trace::new();
        let mut unit = build(&mut trace);
        let mut got = Vec::new();
        for _ in 0..chunks_before_fault {
            got.push(
                unit.consume(VReg::new(0), &mem, 64, &mut trace)
                    .unwrap()
                    .value,
            );
        }
        // Fault mid-chunk: the probe fires on the 7th element of the row.
        let mut probes = 0usize;
        let mut probe = |_page: u64| {
            probes += 1;
            probes == 7
        };
        let err = unit
            .consume_with(VReg::new(0), &mem, 64, &mut trace, Some(&mut probe))
            .unwrap_err();
        assert!(matches!(err, StreamError::PageFault { u: 0, .. }), "{err}");

        // Context switch at the fault boundary: capture, restore into a
        // fresh unit (same configuration), resume there.
        let ctx = unit.save_context();
        let mut trace2 = Trace::new();
        let mut resumed = build(&mut trace2);
        resumed.restore_context(&ctx, &mem);
        got.extend(collect(&mut resumed, &mut trace2));
        assert_eq!(got, want, "after {chunks_before_fault} clean chunk(s)");
    }
}

#[test]
fn preemption_in_sparse_gather_kernels_is_invisible() {
    // PR 10: SpMV walks two dual-indirect-modifier gather streams in
    // lockstep (per-row indirect *size* modifiers), and Histogram pairs a
    // gather with an indirect scatter store off a shared origin. A small
    // scheduler quantum lands context switches mid-chunk inside those
    // regions; save/restore must stay architecturally invisible.
    use uve::kernels::{sparse, Benchmark, Flavor};
    use uve::smp::{run_round_robin, Job};

    let spmv = sparse::Spmv::new(13, 33, 20); // rows span chunk boundaries
    let hist = sparse::Histogram::new(93, 16);
    let benches: [&dyn Benchmark; 2] = [&spmv, &hist];
    let flavor = Flavor::Uve;
    let mut jobs = Vec::new();
    let mut solo = Vec::new();
    for bench in benches {
        let run = uve::kernels::run(bench, flavor).unwrap();
        solo.push((run.emulator.arch_digest(), run.emulator.mem.content_hash()));
        let cfg = EmuConfig {
            vlen_bytes: flavor.vlen_bytes(),
            ..EmuConfig::default()
        };
        let mut emu = Emulator::new(cfg, Memory::new());
        bench.setup(&mut emu);
        jobs.push(Job {
            name: bench.name().to_string(),
            program: bench.program(flavor),
            emu,
        });
    }
    let outcomes = run_round_robin(jobs, 3).unwrap();
    for (out, (digest, hash)) in outcomes.iter().zip(&solo) {
        assert!(
            out.preemptions >= 2,
            "{}: {} preemptions",
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

#[test]
fn budgeted_resume_cuts_inside_spmv_rows_are_invisible() {
    // Prime instruction budgets over SpMV with maxlen > VL: rows re-chunk
    // off any VLEN multiple and the resume cursor lands inside the
    // dual-gather rows. Every pause does a full stream-context round trip.
    use uve::core::RunCursor;
    use uve::kernels::{sparse::Spmv, Benchmark, Flavor};

    let bench = Spmv::new(13, 33, 20);
    let flavor = Flavor::Uve;
    let solo = uve::kernels::run(&bench, flavor).unwrap();
    let want = (
        solo.emulator.arch_digest(),
        solo.emulator.mem.content_hash(),
    );

    for budget in [1u64, 7, 13] {
        let cfg = EmuConfig {
            vlen_bytes: flavor.vlen_bytes(),
            ..EmuConfig::default()
        };
        let mut emu = Emulator::new(cfg, Memory::new());
        bench.setup(&mut emu);
        let program = bench.program(flavor);
        let mut cursor = RunCursor::new();
        let mut pauses = 0u64;
        loop {
            let halted = emu.resume(&program, &mut cursor, Some(budget)).unwrap();
            if halted {
                break;
            }
            pauses += 1;
            let saved = emu.save_stream_context();
            emu.restore_stream_context(&saved);
        }
        assert!(pauses >= 2, "budget {budget}: only {pauses} pauses");
        assert_eq!(
            emu.arch_digest(),
            want.0,
            "budget {budget}: register state differs"
        );
        assert_eq!(
            emu.mem.content_hash(),
            want.1,
            "budget {budget}: memory image differs"
        );
    }
}
