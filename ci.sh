#!/usr/bin/env bash
# Repo CI gate. Runs entirely offline: the workspace has no registry
# dependencies (the randomized suites run on the in-tree uve-conform
# generator), so every step must pass with the network unplugged.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (workspace, warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== trace arenas: no code outside trace.rs names the vestigial op fields =="
# An op's registers, access lines and stream chunk references live in
# per-trace arenas, read through `Trace::srcs`, `Trace::dests`,
# `Trace::mem_lines`, `Trace::stream_reads` and `Trace::stream_writes`.
# The `TraceOp` fields of the same names are zero-sized stand-ins that
# deref to a shared empty `Vec`; they remain only because the benchmark
# reads their capacity, so any other field access reads nothing. The
# perfbench self-test build below is what proves the stand-ins still
# compile where it reads them.
if grep -rnP --include='*.rs' '\.(srcs|dests|mem_lines|stream_reads|stream_writes)\b(?!\s*\()' crates tests examples src \
    | grep -v '^crates/uve-core/src/trace.rs:'; then
    echo "the vestigial TraceOp fields are named outside crates/uve-core/src/trace.rs"
    exit 1
fi

echo "== one timing driver: nothing outside uve-mem names MemSystem =="
# The one timing driver, `uve_cpu::lockstep`, steps pipelines over an
# `SmpMem`, and a single-core replay is its one-core case. `MemSystem`,
# the one-core view of `SmpMem`, remains only because the benchmark steps
# a pipeline over it, so no other code may come to depend on it again.
if grep -rnw --include='*.rs' MemSystem crates tests examples src \
    | grep -v '^crates/uve-mem/'; then
    echo "MemSystem is named outside crates/uve-mem/"
    exit 1
fi

echo "== tier-1: build + tests (offline) =="
cargo build --release --workspace --offline
cargo test -q --workspace --offline

echo "== benchmark: perfbench builds and self-tests (offline) =="
# perfbench is a cargo package of its own, outside the workspace, so the
# workspace build above never compiles it. Building it here makes a crate
# API change that breaks the benchmark fail CI. The self-test runs its unit
# tests and checks that both workloads' simulated outputs are correct and
# do not depend on the seed.
python3 perfbench/run.py --self-test

echo "== conformance: fuzz smoke (fixed seed, offline) =="
# Bounded differential-fuzz run; deterministic for a given seed, so a
# failure here is reproducible with the printed (engine, seed, case).
# The checked-in regression corpus replays as part of `cargo test` above.
./target/release/uve-conform --engine all --seed 7 --cases 2000 --quiet

echo "== timing model: lower-bound conform (fixed seed, offline) =="
# 2000 dedicated timing-engine cases under random core shapes, single
# core and sharded: every core's cycles must reach the commit-bandwidth
# floor and the register critical path (the `all` run above only gives
# the timing engine a tenth of the budget).
./target/release/uve-conform --engine timing --seed 7 --cases 2000 --quiet

echo "== fault subsystem: conform smoke + watchdog + poisoned-job isolation =="
# 2000 dedicated fault-engine cases: never panic, recover bit-identically,
# keep the cycle accounting conserved under injection (the `all` run above
# only gives the fault engine a tenth of the budget).
./target/release/uve-conform --engine fault --seed 7 --cases 2000 --quiet
# Each gate below names one test by its full path and fails unless exactly
# one test ran and passed: a bare `cargo test NAME` passes when nothing
# matches, so a renamed test would silently drop out of the gate.
run_one_test() {
    local pkg=$1 name=$2 out passed
    out=$(cargo test -q -p "$pkg" --offline --lib "$name" -- --exact 2>&1) || {
        echo "$out"
        return 1
    }
    passed=$(echo "$out" | awk '/^test result:/ { for (i = 2; i <= NF; i++) if ($i == "passed;") n += $(i - 1) } END { print n + 0 }')
    if [ "$passed" != 1 ]; then
        echo "$out"
        echo "expected exactly one passing test named $pkg::$name, got $passed"
        return 1
    fi
}
# The no-retire watchdog must turn a deadlocked timing run into a
# catchable diagnostic dump rather than a hang.
run_one_test uve-cpu core::tests::watchdog_dumps_accounting_on_deadlock
# One poisoned job must not take down a sweep. `pool::run_isolated` is the
# one isolation path: the runner's jobs (emulation included) go through it,
# and the sweep worker calls the one-item `pool::isolated` it is built on
# (deadline + catch_unwind). A failed job's repro line names its whole
# functional point.
run_one_test uve-bench pool::tests::panicking_item_is_isolated
run_one_test uve-bench runner::tests::poisoned_job_is_isolated_and_reported
run_one_test uve-bench runner::tests::repro_names_the_failed_points_packing_and_fault_seed
# A recovered stream fault must leave the whole trace, its register and
# line arenas included, bit-identical to the fault-free run's.
run_one_test uve-core emulator::tests::fault_recovery_is_bit_identical_on_saxpy
cargo test -q --offline --test fault_recovery

echo "== multicore: coherence smoke + scheduling determinism =="
# 2-core sharded run over three kernels: nonzero cross-core snoop traffic,
# single-writer MOESI invariant verified on every event plus a periodic
# full scan, per-core/per-program cycle conservation — all asserted inside
# the binary. Serial and 8-worker sweeps must print bit-identical tables.
./target/release/smp --small --kernels memcpy,saxpy,stream --cores 1,2 \
    --check-every 64 --quiet --serial > target/smp_serial.txt
./target/release/smp --small --kernels memcpy,saxpy,stream --cores 1,2 \
    --check-every 64 --quiet --jobs 8 > target/smp_jobs8.txt
diff -u target/smp_serial.txt target/smp_jobs8.txt
# 200 dedicated smp-engine cases: coherence, conservation, liveness,
# determinism, and architecturally invisible context switching (the `all`
# run above only gives the smp engine a twentieth of the budget).
./target/release/uve-conform --engine smp --seed 7 --cases 200 --quiet

echo "== indirect packing: both-mode conform smoke =="
# The pattern and kernel engines diff packed AND unpacked chunking against
# the same oracle on every case (the `all` run above splits its budget);
# give each a dedicated slice so both packing modes get real coverage.
./target/release/uve-conform --engine pattern --seed 7 --cases 4000 --quiet
./target/release/uve-conform --engine kernel --seed 7 --cases 200 --quiet

echo "== assembler + DSP/sparse families: asm smoke, family conformance =="
# 2000 dedicated asm-engine cases: assemble->disassemble->assemble text
# fixpoints on decorated programs, `.include` split equivalence, and
# hostile byte-level mutants that must produce spanned typed errors or
# reassemblable programs, never panics.
./target/release/uve-conform --engine asm --seed 7 --cases 2000 --quiet
# A wider kernel-engine slice than the packing section's 200 cases, so the
# DSP and sparse family arms (6 of the 25 kernel variants the generator
# draws from) get real coverage — including the `.uve`-text UVE flavors.
./target/release/uve-conform --engine kernel --seed 7 --cases 600 --quiet

echo "== evaluation plan: every figure in one batch, drift-gated =="
# Every figure (Figs. 8-11, Sec. VI-B/VI-C, the packing and model
# ablations, the DSP/sparse families) runs as one serial batch. In-binary
# asserts: every kernel without an indirect modifier is bit-identical
# across packing modes, the packed MAMR-Ind speedup vs scalar stays
# >= 1.0x, no DSP/sparse kernel falls below 0.95x of its scalar twin
# (Histogram is scatter-serialized parity by design), each family's
# geomean stays >= 1.0x, and --explain panics unless the cycle-accounting
# conservation laws hold for every measurement. stdout, explain reports
# included, must match the checked-in table byte for byte, and the JSON
# artifacts must not drift. A deliberate output change regenerates all
# three with the same command:
#   ./target/release/figures --serial --quiet --explain --json . \
#       > crates/uve-bench/tests/golden/figures.txt
# The run's peak RSS (`wait4`'s `ru_maxrss`, the binary alone) must stay
# at or under 200 MiB: the batch runs its jobs grouped by trace, so it
# holds one trace at a time.
python3 -c '
import os, sys
pid = os.spawnv(os.P_NOWAIT, sys.argv[1], sys.argv[1:])
_, status, usage = os.wait4(pid, 0)
mib = usage.ru_maxrss / 1024
print(f"figures --serial peak RSS: {mib:.0f} MiB (limit 200)", file=sys.stderr)
code = os.waitstatus_to_exitcode(status)
sys.exit(code if code else int(mib > 200))
' ./target/release/figures --serial --explain --json . \
    > target/figures.txt 2> target/figures_stderr.txt || {
    tail -n 20 target/figures_stderr.txt
    exit 1
}
grep -E '^\[runner\] |peak RSS' target/figures_stderr.txt
diff -u crates/uve-bench/tests/golden/figures.txt target/figures.txt
git diff --exit-code -- BENCH_fig8.json BENCH_dsp.json
# One batch emulates each distinct trace once: 107 traces behind 245 jobs
# (the nine figures run separately emulated 176 times).
if ! grep -q '^\[runner\] .*, 107 emulation(s)$' target/figures_stderr.txt; then
    echo "the evaluation plan must emulate 107 times, once per distinct trace"
    exit 1
fi
# Worker scheduling must not change a byte.
./target/release/figures --jobs 2 --quiet --explain --json . > target/figures_jobs2.txt
diff -u target/figures.txt target/figures_jobs2.txt

echo "== functional emulation: suite digest drift gate =="
# The 19-kernel suite × 4 flavors, emulated untraced. In-binary asserts:
# every point passes its kernel oracle and serial == --jobs. The JSON
# artifact (point count, committed instructions, state digest) is fully
# deterministic and drift-gated like BENCH_fig8.json.
./target/release/emu --quiet --json BENCH_emu.json > /dev/null
git diff --exit-code -- BENCH_emu.json

echo "== sweep drift gate: 300-row small grid (offline) =="
# The small catalog (25 kernels) x 4 flavors x {1,2,4} cores, serially:
# every row's cycles, committed count and stats digest, single-core and
# lockstep multicore, must match the checked-in table byte for byte. The
# rows print the execution mode and a digest of the stats' Debug text, so
# a deliberate change to either (or to the model, with a MODEL_EPOCH bump)
# regenerates the table with the same command:
#   ./target/release/uve-sweep serial --small --flavors uve,scalar,sve,neon \
#       --cores 1,2,4 > crates/uve-sweep/tests/golden/small_sweep.txt
./target/release/uve-sweep serial --small --flavors uve,scalar,sve,neon \
    --cores 1,2,4 > target/small_sweep.txt 2> target/small_sweep_stats.txt
diff -u crates/uve-sweep/tests/golden/small_sweep.txt target/small_sweep.txt
# A trace is keyed by what emulation reads, so the six scalar-fallback
# kernels' scalar, SVE and NEON points (one program that never reads the
# vector length) share one trace: 25 kernels x 4 flavours, less 6 x 2
# shared, is 88 emulations.
if ! grep -q '^stats: .* emulations=88$' target/small_sweep_stats.txt; then
    cat target/small_sweep_stats.txt
    echo "the 300-row small sweep must emulate 88 times"
    exit 1
fi

echo "== distributed sweeps: coordinator + 2 workers vs serial, warm cache =="
# A real coordinator process and two real worker processes over loopback
# TCP, sweeping a small grid twice. Pass 1 must be byte-identical to the
# in-process serial baseline; pass 2 must be served entirely from the
# content-addressed result cache (--expect-cached exits nonzero if any
# point was re-executed). Zero re-emulation is further asserted by
# counters in tests/sweep_service.rs.
./target/release/uve-sweep serve --bind 127.0.0.1:0 --no-persist > target/sweep_listen.txt &
SWEEP_PIDS=($!)
trap 'kill "${SWEEP_PIDS[@]}" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    grep -q '^LISTEN ' target/sweep_listen.txt 2>/dev/null && break
    sleep 0.1
done
SWEEP_ADDR=$(awk '/^LISTEN /{print $2; exit}' target/sweep_listen.txt)
./target/release/uve-sweep worker --connect "$SWEEP_ADDR" --name ci-w0 &
SWEEP_PIDS+=($!)
./target/release/uve-sweep worker --connect "$SWEEP_ADDR" --name ci-w1 &
SWEEP_PIDS+=($!)
SWEEP_GRID=(--small --kernels memcpy,saxpy,gemm --flavors uve,scalar --cores 1,2)
./target/release/uve-sweep serial "${SWEEP_GRID[@]}" > target/sweep_serial.txt
./target/release/uve-sweep run --connect "$SWEEP_ADDR" --quiet \
    "${SWEEP_GRID[@]}" > target/sweep_dist.txt
diff -u target/sweep_serial.txt target/sweep_dist.txt
./target/release/uve-sweep run --connect "$SWEEP_ADDR" --quiet --expect-cached \
    "${SWEEP_GRID[@]}" > target/sweep_warm.txt
diff -u target/sweep_serial.txt target/sweep_warm.txt
./target/release/uve-sweep shutdown --connect "$SWEEP_ADDR"
wait "${SWEEP_PIDS[@]}"
trap - EXIT
# 500 dedicated sweep-engine cases: wire-codec fixpoint round trips,
# hostile decodes (truncation, bit flips, garbage) never panic,
# shuffled-completion-order merges stay bit-identical, and durable-cache
# WAL/snapshot images survive truncation/bit-flip/garbage without panics
# (the `all` run above only gives the sweep engine a sliver of the budget).
./target/release/uve-conform --engine sweep --seed 7 --cases 500 --quiet

echo "== crash safety: kill -9 + torn WAL recovery, snapshot replay, stable fingerprints =="
# The durable cache is only durable if job keys are stable across builds;
# the golden-fingerprint pins are what hold that contract (also covered by
# tier-1, repeated here so this gate is self-contained).
cargo test -q --offline --test fingerprint_golden
rm -rf target/sweep-cache
CRASH_GRID=(--small --kernels memcpy,saxpy --flavors uve,scalar)
./target/release/uve-sweep serial "${CRASH_GRID[@]}" > target/sweep_crash_serial.txt
start_crash_serve() {
    : > target/sweep_crash_listen.txt
    ./target/release/uve-sweep serve --bind 127.0.0.1:0 --workers 2 \
        --cache-dir target/sweep-cache > target/sweep_crash_listen.txt 2> target/sweep_crash_err.txt &
    CRASH_PID=$!
    for _ in $(seq 1 100); do
        grep -q '^LISTEN ' target/sweep_crash_listen.txt 2>/dev/null && break
        sleep 0.1
    done
    CRASH_ADDR=$(awk '/^LISTEN /{print $2; exit}' target/sweep_crash_listen.txt)
}
trap 'kill -9 "$CRASH_PID" 2>/dev/null || true' EXIT
# Pass 1 populates the WAL; SIGKILL denies the coordinator any chance to
# checkpoint or flush, then the WAL tail is torn like an interrupted append.
start_crash_serve
./target/release/uve-sweep run --connect "$CRASH_ADDR" --quiet "${CRASH_GRID[@]}" > /dev/null
kill -9 "$CRASH_PID"; wait "$CRASH_PID" 2>/dev/null || true
truncate -s -5 target/sweep-cache/wal.bin
# Pass 2 restarts from the torn cache: the torn row re-executes (so no
# --expect-cached yet), and the merged table must still match serial
# byte-for-byte. The replay immediately after must then be fully cached.
start_crash_serve
./target/release/uve-sweep run --connect "$CRASH_ADDR" --quiet \
    "${CRASH_GRID[@]}" > target/sweep_crash_recovered.txt
diff -u target/sweep_crash_serial.txt target/sweep_crash_recovered.txt
./target/release/uve-sweep run --connect "$CRASH_ADDR" --quiet --expect-cached \
    "${CRASH_GRID[@]}" > target/sweep_crash_warm.txt
diff -u target/sweep_crash_serial.txt target/sweep_crash_warm.txt
# Graceful shutdown checkpoints the WAL into a snapshot; a third
# incarnation must be fully cached from disk alone.
./target/release/uve-sweep shutdown --connect "$CRASH_ADDR"
wait "$CRASH_PID" 2>/dev/null || true
start_crash_serve
./target/release/uve-sweep run --connect "$CRASH_ADDR" --quiet --expect-cached \
    "${CRASH_GRID[@]}" > target/sweep_crash_snap.txt
diff -u target/sweep_crash_serial.txt target/sweep_crash_snap.txt
./target/release/uve-sweep shutdown --connect "$CRASH_ADDR"
wait "$CRASH_PID" 2>/dev/null || true
trap - EXIT

echo "== observability: golden trace (offline) =="
# The Chrome trace exporter must reproduce the checked-in golden snapshot
# byte-for-byte (regenerate with the same command if the model changes).
./target/release/trace --tiny-saxpy --out target/tiny_saxpy_trace.json
diff -u crates/uve-bench/tests/golden/saxpy_tiny_trace.json \
    target/tiny_saxpy_trace.json

echo "CI OK"
