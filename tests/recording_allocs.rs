//! Recording a trace allocates nothing per op: an op's registers, lines
//! and stream chunk references go into per-trace arenas and its operand
//! lists are inline, so the heap calls made inside `Emulator::run` are the
//! growth steps of a few vectors and the pages a store touches first.
//!
//! The test binary installs its own global allocator, which counts the
//! calls each thread makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use uve::core::{EmuConfig, Emulator};
use uve::kernels::Flavor;
use uve::mem::Memory;

struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` so a call made while the thread's locals are torn down
    // still goes through.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations and reallocations the calling thread has made so far.
fn calls() -> u64 {
    CALLS.with(Cell::get)
}

/// Most heap calls one traced scalar run may make. The op table and the
/// register and line arenas grow by doubling, so a run of `n` ops needs
/// about `3 * log2(n)` calls, plus one for the run's table of each
/// instruction's operands (a scalar run references no stream chunk).
const MAX_CALLS: u64 = 64;

#[test]
fn traced_scalar_run_allocates_only_to_grow() {
    for bench in uve_sweep::spec::catalog(true) {
        let flavor = Flavor::Scalar;
        let cfg = EmuConfig {
            vlen_bytes: flavor.vlen_bytes(),
            ..EmuConfig::default()
        };
        let mut emu = Emulator::new(cfg, Memory::new());
        bench.setup(&mut emu);
        let program = bench.program(flavor);
        let before = calls();
        let result = emu.run(&program).unwrap_or_else(|e| panic!("{e}"));
        let made = calls() - before;
        let ops = result.trace.ops.len();
        assert!(ops > 1000, "{}: only {ops} ops", bench.name());
        assert!(
            made < MAX_CALLS,
            "{}: {made} heap calls recording {ops} ops",
            bench.name()
        );
        bench.check(&emu).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Most heap calls per recorded op over the small catalog's UVE runs. A
/// vector value owns two heap blocks (its bytes and its lane flags), so
/// every vector result still allocates; what the bound holds down is the
/// copies made on top of that. Keeping a consumed stream chunk in the
/// register and again in a per-instruction list made 5.63 calls per op
/// (207 581 for 36 858 ops); one copy, written into the register's own
/// buffers, makes 4.01 (147 764).
const MAX_UVE_CALLS_PER_OP: f64 = 4.5;

#[test]
fn traced_uve_runs_copy_each_consumed_chunk_once() {
    let (mut made, mut ops) = (0, 0);
    for bench in uve_sweep::spec::catalog(true) {
        let flavor = Flavor::Uve;
        let cfg = EmuConfig {
            vlen_bytes: flavor.vlen_bytes(),
            ..EmuConfig::default()
        };
        let mut emu = Emulator::new(cfg, Memory::new());
        bench.setup(&mut emu);
        let program = bench.program(flavor);
        let before = calls();
        let result = emu.run(&program).unwrap_or_else(|e| panic!("{e}"));
        made += calls() - before;
        ops += result.trace.ops.len() as u64;
        bench.check(&emu).unwrap_or_else(|e| panic!("{e}"));
    }
    let per_op = made as f64 / ops as f64;
    println!("UVE: {made} heap calls for {ops} ops ({per_op:.2} per op)");
    assert!(
        per_op <= MAX_UVE_CALLS_PER_OP,
        "{made} heap calls for {ops} recorded UVE ops"
    );
}
