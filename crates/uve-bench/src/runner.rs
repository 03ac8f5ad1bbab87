//! The parallel sharded evaluation runner with functional-trace reuse.
//!
//! The evaluation decouples *functional* emulation (which produces a
//! dynamic [`Trace`]) from *timing* replay (the out-of-order model), the
//! same access/execute split the architecture itself makes. Only the
//! timing side depends on the CPU configuration, so the sensitivity sweeps
//! (Figs. 9–11, Sec. VI-B) need exactly one emulation per functional
//! [`Point`], replayed under N timing configurations — not N
//! re-emulations.
//!
//! Two pieces deliver that:
//!
//! - a [`TraceKey`]-indexed cache of emulated traces, with per-key
//!   once-initialization so concurrent workers never emulate the same
//!   point twice (an emulation counter makes this assertable), that keeps
//!   a trace only while a job of a submitted batch needs it or while it is
//!   the most recently looked-up key ([`Runner::with_traces`]);
//! - the std-only scoped worker pool of [`crate::pool`], whose
//!   [`run_isolated`] runs every job under panic isolation and a
//!   cooperative deadline, one worker per core by default
//!   ([`std::thread::available_parallelism`]).
//!
//! Determinism: traces are plain data (`Trace: Send + Sync`), emulation is
//! deterministic, and [`OoOCore::run_warm`] builds all mutable state
//! (memory hierarchy, predictor, Streaming Engine) per call from `&Trace`
//! — there are no hidden mutable globals. Results are written back by
//! submission index, so a parallel run returns the *same* `Vec<Measured>`,
//! in the same order with bit-identical numbers, as `--serial`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::pool::run_isolated;
use crate::Measured;
use uve_core::{EmuConfig, ExecMode, IndirectPacking, StreamFaultPlan, Trace};
use uve_cpu::{CpuConfig, OoOCore};
use uve_isa::MemLevel;
use uve_kernels::{Benchmark, Flavor};
use uve_mem::Memory;

/// Page-fault injection rate used when a point carries a nonzero
/// `fault_seed`: roughly one in this many first-touched stream pages
/// faults (see [`StreamFaultPlan`]).
pub const SWEEP_FAULT_RATE: u64 = 3;

/// One functional evaluation point: everything emulation depends on, and
/// nothing the timing replay adds. Every timing configuration of a point
/// replays the one trace [`Point::emulate`] produces.
#[derive(Clone, Copy)]
pub struct Point<'a> {
    /// The kernel.
    pub bench: &'a dyn Benchmark,
    /// Code flavour (fixes the vector length).
    pub flavor: Flavor,
    /// Memory level streams default to.
    pub stream_level: MemLevel,
    /// Indirect-stream chunking mode.
    pub packing: IndirectPacking,
    /// Stream page-fault plan seed (0 disables injection; a nonzero seed
    /// faults ~1/[`SWEEP_FAULT_RATE`] first-touched pages and recovers
    /// precisely, so the final state stays bit-identical).
    pub fault_seed: u64,
}

impl<'a> Point<'a> {
    /// The point at the paper's default L2 stream level, packed indirect
    /// chunking, and no fault injection.
    pub fn new(bench: &'a dyn Benchmark, flavor: Flavor) -> Self {
        Self {
            bench,
            flavor,
            stream_level: MemLevel::L2,
            packing: IndirectPacking::default(),
            fault_seed: 0,
        }
    }

    /// The trace-cache key of this point. This is the trace half of the
    /// content address the distributed sweep cache (`uve-sweep`) keys
    /// results by.
    ///
    /// The program fingerprint is [`uve_core::program_fingerprint`] —
    /// FNV-1a over the canonical instruction-word encoding — so it is
    /// stable across builds and machines, which is what lets the sweep
    /// service persist its result cache to disk and reload it after a
    /// restart (or a rebuild). Golden values are pinned in
    /// `tests/fingerprint_golden.rs`.
    pub fn key(&self) -> TraceKey {
        TraceKey {
            kernel: self.bench.name(),
            flavor: self.flavor,
            vlen: self.flavor.vlen_bytes(),
            stream_level: self.stream_level,
            packing: self.packing,
            fault_seed: self.fault_seed,
            program: uve_core::program_fingerprint(&self.bench.program(self.flavor)),
        }
    }

    /// Emulates this point and verifies the result against the kernel's
    /// oracle — the one emulate-and-check entry of the harness.
    ///
    /// # Panics
    ///
    /// Panics if the kernel mis-executes or fails its correctness check —
    /// measurement of an incorrect run would be meaningless.
    pub fn emulate(&self) -> CachedTrace {
        let (bench, flavor) = (self.bench, self.flavor);
        let emu_cfg = EmuConfig {
            vlen_bytes: flavor.vlen_bytes(),
            stream_level: self.stream_level,
            packing: self.packing,
            ..EmuConfig::default()
        };
        let mut emu = uve_core::Emulator::new(emu_cfg, Memory::new());
        if self.fault_seed != 0 {
            emu.set_fault_plan(Some(StreamFaultPlan::new(
                self.fault_seed,
                SWEEP_FAULT_RATE,
            )));
        }
        bench.setup(&mut emu);
        let program = bench.program(flavor);
        let result = emu
            .run(&program)
            .unwrap_or_else(|e| panic!("{}/{flavor}: {e}", bench.name()));
        bench
            .check(&emu)
            .unwrap_or_else(|e| panic!("{}/{flavor}: {e}", bench.name()));
        CachedTrace {
            trace: result.trace,
            committed: result.committed,
        }
    }
}

/// One unit of evaluation work: emulate (or fetch the cached trace of)
/// `point`, then replay it under `cpu`.
pub struct Job<'a> {
    /// The functional point.
    pub point: Point<'a>,
    /// Timing-model configuration for the replay.
    pub cpu: CpuConfig,
}

impl<'a> Job<'a> {
    /// A job at [`Point::new`]'s defaults.
    pub fn new(bench: &'a dyn Benchmark, flavor: Flavor, cpu: CpuConfig) -> Self {
        Self {
            point: Point::new(bench, flavor),
            cpu,
        }
    }
}

/// Cache key of a functional trace: a [`Point`] with the kernel reduced to
/// its name and program fingerprint ([`Point::key`]).
///
/// The program fingerprint covers kernel parameters (sizes, unroll
/// factors) that `name()` alone does not distinguish — e.g. the Fig. 8.E
/// `GEMM-unrolled` instances share a name but differ per unroll factor.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Kernel name.
    pub kernel: &'static str,
    /// Code flavour.
    pub flavor: Flavor,
    /// Vector length in bytes (implied by the flavour, kept explicit).
    pub vlen: usize,
    /// Default stream memory level.
    pub stream_level: MemLevel,
    /// Indirect-stream chunking mode.
    pub packing: IndirectPacking,
    /// Stream fault-plan seed the trace was emulated under (0 = clean).
    pub fault_seed: u64,
    /// Fingerprint of the flavour's program (captures kernel parameters).
    pub program: u64,
}

/// An emulated, correctness-checked functional trace.
#[derive(Debug)]
pub struct CachedTrace {
    /// The dynamic trace.
    pub trace: Trace,
    /// Committed dynamic instructions.
    pub committed: u64,
}

/// Replays a cached trace under `cpu` (warm-run methodology) and packages
/// the result.
pub fn replay(name: &str, flavor: Flavor, cached: &CachedTrace, cpu: &CpuConfig) -> Measured {
    let stats = OoOCore::new(cpu.clone()).run_warm(&cached.trace);
    Measured {
        name: name.to_string(),
        flavor,
        committed: cached.committed,
        stats,
    }
}

/// A cached trace and the number of submitted jobs that still need it.
#[derive(Default)]
struct Slot {
    trace: Arc<OnceLock<Arc<CachedTrace>>>,
    pending: usize,
}

/// The cache's one retention rule: a slot lives while a submitted job
/// needs it or while its key is `last`, the most recently looked up.
#[derive(Default)]
struct Slots {
    map: HashMap<TraceKey, Slot>,
    last: Option<TraceKey>,
}

impl Slots {
    /// Drops `key`'s slot, and with it the cache's `Arc`, once the rule no
    /// longer holds it.
    fn evict_if_idle(&mut self, key: &TraceKey) {
        if self.last.as_ref() != Some(key) && self.map.get(key).is_some_and(|s| s.pending == 0) {
            self.map.remove(key);
        }
    }
}

#[derive(Default)]
struct TraceCache {
    slots: Mutex<Slots>,
    emulations: AtomicU64,
    /// Host time spent emulating, summed over workers.
    emulation_nanos: AtomicU64,
}

impl TraceCache {
    /// Every update leaves `Slots` valid, so a guard poisoned by another
    /// thread's panic is still sound to use (and `Claim::drop` must not
    /// panic).
    fn slots(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Counts one pending job per entry of `keys`.
    fn submit(&self, keys: &[TraceKey]) {
        let mut slots = self.slots();
        for key in keys {
            slots.map.entry(key.clone()).or_default().pending += 1;
        }
    }

    fn release(&self, key: &TraceKey) {
        let mut slots = self.slots();
        if let Some(slot) = slots.map.get_mut(key) {
            slot.pending -= 1;
        }
        slots.evict_if_idle(key);
    }

    /// Returns the trace of `point` (key `key`), emulating it at most once
    /// while resident (late arrivals block on the key's `OnceLock`). The
    /// pin moves first, so an idle previous trace is gone before this one
    /// emulates.
    fn get(&self, key: &TraceKey, point: &Point<'_>) -> Arc<CachedTrace> {
        let cell = {
            let mut slots = self.slots();
            if let Some(previous) = slots.last.replace(key.clone()).filter(|p| p != key) {
                slots.evict_if_idle(&previous);
            }
            Arc::clone(&slots.map.entry(key.clone()).or_default().trace)
        };
        Arc::clone(cell.get_or_init(|| {
            self.emulations.fetch_add(1, Ordering::Relaxed);
            let t0 = Instant::now();
            let trace = point.emulate();
            let nanos = t0.elapsed().as_nanos() as u64;
            self.emulation_nanos.fetch_add(nanos, Ordering::Relaxed);
            Arc::new(trace)
        }))
    }
}

/// A submitted job's claim on its key, released on drop: when the job
/// returns, panics or times out.
struct Claim<'c>(&'c TraceCache, &'c TraceKey);

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.0.release(self.1);
    }
}

/// One job that panicked or hit its wall-clock timeout during a sweep.
///
/// Captures everything needed to reproduce the failure in isolation.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// Submission index of the failed job.
    pub index: usize,
    /// The failed job's functional point.
    pub key: TraceKey,
    /// The panic message (or timeout marker) that killed the job.
    pub reason: String,
}

impl JobFailure {
    /// A one-line reproduction recipe for this failure.
    #[must_use]
    pub fn repro(&self) -> String {
        let k = &self.key;
        format!(
            "repro: kernel={} flavor={} vlen={} level={:?} packing={:?} fault_seed={} :: {}",
            k.kernel, k.flavor, k.vlen, k.stream_level, k.packing, k.fault_seed, self.reason
        )
    }

    /// Whether the job died by wall-clock timeout (vs a model panic).
    #[must_use]
    pub fn is_timeout(&self) -> bool {
        self.reason.contains(uve_core::deadline::TIMEOUT_MARKER)
    }
}

/// How many workers the runner uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Strictly sequential on the calling thread (`--serial`).
    Serial,
    /// A scoped pool of N worker threads (`--jobs N`).
    Parallel(usize),
}

/// Per-job wall-clock budget before the cooperative deadline fires
/// (see [`uve_core::deadline`]).
pub const DEFAULT_JOB_TIMEOUT: Duration = Duration::from_secs(600);

/// The sharded evaluation runner.
pub struct Runner {
    mode: RunMode,
    verbose: bool,
    explain: bool,
    timeout: Option<Duration>,
    failures: Mutex<Vec<JobFailure>>,
    cache: TraceCache,
}

impl Runner {
    /// A strictly serial runner (the determinism baseline).
    pub fn serial() -> Self {
        Self {
            mode: RunMode::Serial,
            verbose: false,
            explain: false,
            timeout: Some(DEFAULT_JOB_TIMEOUT),
            failures: Mutex::new(Vec::new()),
            cache: TraceCache::default(),
        }
    }

    /// A parallel runner with `jobs` workers (clamped to ≥ 1).
    pub fn parallel(jobs: usize) -> Self {
        Self {
            mode: RunMode::Parallel(jobs.max(1)),
            ..Self::serial()
        }
    }

    /// Builds a runner from parsed process arguments: `--serial` forces
    /// the sequential baseline, `--jobs N` sets the worker count, `--quiet`
    /// silences per-job wall-clock reporting, `--explain` appends the
    /// cycle-attribution report to every figure, `--timeout SECS` sets the
    /// per-job wall-clock budget (0 disables it; default 600 s). Default:
    /// one worker per core, reporting on, no explain. Other arguments are
    /// left to the binary.
    pub fn from_cli(cli: &crate::Cli) -> Self {
        let mut runner = if cli.has("--serial") {
            Self::serial()
        } else {
            Self::parallel(cli.parsed("--jobs").unwrap_or_else(default_jobs))
        };
        runner.verbose = !cli.has("--quiet");
        runner.explain = cli.has("--explain");
        if let Some(secs) = cli.parsed::<u64>("--timeout") {
            runner.timeout = (secs > 0).then(|| Duration::from_secs(secs));
        }
        runner
    }

    /// Enables or disables per-job wall-clock reporting on stderr.
    pub fn verbose(mut self, verbose: bool) -> Self {
        self.verbose = verbose;
        self
    }

    /// Enables or disables the `--explain` cycle-attribution report.
    pub fn explain(mut self, explain: bool) -> Self {
        self.explain = explain;
        self
    }

    /// Sets the per-job wall-clock budget (`None` disables timeouts).
    pub fn timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout = timeout;
        self
    }

    /// When `--explain` is on, validates the conservation laws of every
    /// measurement and prints the "where the cycles go" report; a no-op
    /// otherwise. Figure generators call this right after
    /// [`Runner::run`].
    ///
    /// # Panics
    ///
    /// Panics if any conservation law is violated — an unexplained cycle
    /// means the attribution (or the model) is wrong, and the report would
    /// be misleading.
    pub fn maybe_explain(&self, results: &[Measured]) {
        if !self.explain {
            return;
        }
        let report = crate::StatsReport::of(results);
        report.check().expect("cycle-accounting conservation");
        print!("{}", report.render());
    }

    /// The runner's mode.
    pub fn mode(&self) -> RunMode {
        self.mode
    }

    /// Number of functional emulations performed so far — the trace-reuse
    /// observable: a sweep of N timing configurations over K kernel points
    /// must raise this by at most K.
    pub fn emulations(&self) -> u64 {
        self.cache.emulations.load(Ordering::Relaxed)
    }

    /// The trace of `point`, emulating it unless it is resident: a batch
    /// of one that moves the last-used pin, so the trace stays cached
    /// until another key is looked up.
    pub fn trace(&self, point: &Point<'_>) -> Arc<CachedTrace> {
        self.cache.get(&point.key(), point)
    }

    /// [`Runner::trace`] with the point's fields spelled out. `_exec` is
    /// ignored: interpretation is the only execution strategy, and the
    /// parameter stays only because callers pass a sweep point's
    /// [`ExecMode`] field.
    pub fn trace_full(
        &self,
        bench: &dyn Benchmark,
        flavor: Flavor,
        stream_level: MemLevel,
        packing: IndirectPacking,
        _exec: ExecMode,
        fault_seed: u64,
    ) -> Arc<CachedTrace> {
        self.trace(&Point {
            bench,
            flavor,
            stream_level,
            packing,
            fault_seed,
        })
    }

    /// Maps `f(i, trace)` over the traces of `points` on the worker pool
    /// and returns the results **in submission order**.
    ///
    /// The batch counts each key's items up front, so every trace is
    /// emulated at most once and dropped after its last item (unless it
    /// is the last-used key). Each item, its emulation included, runs
    /// under the same panic isolation and deadline: an item that fails is
    /// `Err(reason)` in its slot and is recorded in [`Runner::failures`],
    /// and the rest of the batch keeps running.
    pub fn with_traces<T, F>(&self, points: &[Point<'_>], f: F) -> Vec<Result<T, String>>
    where
        T: Send,
        F: Fn(usize, &Arc<CachedTrace>) -> T + Sync,
    {
        let keys: Vec<TraceKey> = points.iter().map(Point::key).collect();
        self.cache.submit(&keys);
        let outcomes = run_isolated(self.mode, points.len(), self.timeout, |i| {
            let _claim = Claim(&self.cache, &keys[i]);
            f(i, &self.cache.get(&keys[i], &points[i]))
        });
        for (index, outcome) in outcomes.iter().enumerate() {
            if let Err(reason) = outcome {
                let failure = JobFailure {
                    index,
                    key: keys[index].clone(),
                    reason: reason.clone(),
                };
                eprintln!("[job {index:>3}] FAILED: {}", failure.repro());
                self.failures
                    .lock()
                    .expect("failure log poisoned")
                    .push(failure);
            }
        }
        outcomes
    }

    /// Runs every job and returns the measurements **in submission order**,
    /// independent of worker scheduling. Serial and parallel modes produce
    /// bit-identical results.
    ///
    /// A panicking or timed-out job yields a placeholder measurement
    /// (`"<kernel> [FAILED]"` with zeroed stats, which trivially satisfies
    /// the conservation laws) and is recorded in [`Runner::failures`] —
    /// the rest of the sweep keeps running and the figure still renders.
    /// With reporting on, each job's line times its replay; the summary's
    /// aggregate adds the batch's emulation time.
    pub fn run(&self, jobs: &[Job<'_>]) -> Vec<Measured> {
        let t0 = Instant::now();
        let before = self.emulations();
        let emulating = self.cache.emulation_nanos.load(Ordering::Relaxed);
        let job_nanos = AtomicU64::new(0);
        let points: Vec<Point> = jobs.iter().map(|job| job.point).collect();
        let outcomes = self.with_traces(&points, |i, cached| {
            let Job { point, cpu } = &jobs[i];
            let jt = Instant::now();
            let m = replay(point.bench.name(), point.flavor, cached, cpu);
            let elapsed = jt.elapsed();
            job_nanos.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
            if self.verbose {
                eprintln!(
                    "[job {i:>3}] {:<16} {:<6} {:>9.1} ms",
                    point.bench.name(),
                    point.flavor.to_string(),
                    elapsed.as_secs_f64() * 1e3,
                );
            }
            m
        });

        let wall = t0.elapsed().as_secs_f64();
        let emulating = self.cache.emulation_nanos.load(Ordering::Relaxed) - emulating;
        let agg = (job_nanos.load(Ordering::Relaxed) + emulating) as f64 * 1e-9;
        if self.verbose && !jobs.is_empty() {
            let workers = match self.mode {
                RunMode::Serial => 1,
                RunMode::Parallel(n) => n,
            };
            eprintln!(
                "[runner] {} job(s) on {workers} worker(s): {wall:.2} s wall, \
                 {agg:.2} s aggregate ({:.2}x), {} emulation(s)",
                jobs.len(),
                if wall > 0.0 { agg / wall } else { 1.0 },
                self.emulations() - before,
            );
        }
        outcomes
            .into_iter()
            .zip(jobs)
            .map(|(outcome, job)| {
                outcome.unwrap_or_else(|_| Measured {
                    name: format!("{} [FAILED]", job.point.bench.name()),
                    flavor: job.point.flavor,
                    committed: 0,
                    stats: uve_cpu::TimingStats::default(),
                })
            })
            .collect()
    }

    /// The failures collected so far, in job-index order within each batch.
    pub fn failures(&self) -> Vec<JobFailure> {
        self.failures.lock().expect("failure log poisoned").clone()
    }

    /// Final harness verdict: prints one repro line per failed job to
    /// stderr and returns the process exit code (0 if every job
    /// succeeded, 1 otherwise). Figure binaries end with
    /// `std::process::exit(runner.finish())`.
    pub fn finish(&self) -> i32 {
        let failures = self.failures();
        if failures.is_empty() {
            return 0;
        }
        eprintln!("[runner] {} job(s) failed:", failures.len());
        for f in &failures {
            eprintln!("  {}", f.repro());
        }
        1
    }
}

/// One worker per available core (1 if the count is unknown).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use uve_kernels::saxpy::Saxpy;

    #[test]
    fn trace_is_send_sync_plain_data() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Trace>();
        assert_send_sync::<CachedTrace>();
        assert_send_sync::<Job<'_>>();
    }

    #[test]
    fn cache_emulates_once_per_key() {
        let runner = Runner::parallel(4);
        let bench = Saxpy::new(256);
        let jobs: Vec<Job> = (0..6)
            .map(|i| {
                let cpu = CpuConfig {
                    vec_prf: 48 + 16 * (i % 3),
                    ..CpuConfig::default()
                };
                Job::new(&bench, Flavor::Uve, cpu)
            })
            .collect();
        let out = runner.run(&jobs);
        assert_eq!(out.len(), 6);
        assert_eq!(runner.emulations(), 1, "one kernel point → one emulation");
        // Identical CPU configs must give identical cycle counts.
        assert_eq!(out[0].stats.cycles, out[3].stats.cycles);
    }

    /// The resident cache slots as `(kernel, flavor, pending jobs)`.
    fn resident(runner: &Runner) -> Vec<(&'static str, Flavor, usize)> {
        let slots = runner.cache.slots();
        let mut out: Vec<_> = slots
            .map
            .iter()
            .map(|(k, s)| (k.kernel, k.flavor, s.pending))
            .collect();
        out.sort_by_key(|&(kernel, flavor, _)| (kernel, flavor.to_string()));
        out
    }

    #[test]
    fn batch_keeps_only_the_last_used_trace() {
        let (saxpy, memcpy) = (Saxpy::new(256), uve_kernels::memcpy::Memcpy::new(256));
        let points = [
            Point::new(&saxpy, Flavor::Uve),
            Point::new(&saxpy, Flavor::Uve),
            Point::new(&memcpy, Flavor::Scalar),
            Point::new(&saxpy, Flavor::Scalar),
        ];
        for runner in [Runner::serial(), Runner::parallel(3)] {
            let weak: Vec<_> = runner
                .with_traces(&points, |_, cached| Arc::downgrade(cached))
                .into_iter()
                .map(Result::unwrap)
                .collect();
            assert_eq!(runner.emulations(), 3, "one emulation per key");
            let slots = resident(&runner);
            assert_eq!(slots.len(), 1, "only the last-used key stays: {slots:?}");
            let (kernel, flavor, pending) = slots[0];
            assert_eq!(pending, 0, "no job still pinned");
            let alive: Vec<usize> = (0..points.len())
                .filter(|&i| weak[i].upgrade().is_some())
                .collect();
            assert!(!alive.is_empty(), "the last-used trace is alive");
            for &i in &alive {
                assert_eq!((points[i].bench.name(), points[i].flavor), (kernel, flavor));
            }
            if runner.mode() == RunMode::Serial {
                assert_eq!(alive, [3]);
            }

            // A direct lookup is a batch of one: it moves the pin, dropping
            // the batch's last trace, and stays resident itself.
            let direct = Point::new(&memcpy, Flavor::Uve);
            let kept = Arc::downgrade(&runner.trace(&direct));
            assert!(weak.iter().all(|w| w.upgrade().is_none()));
            assert_eq!(resident(&runner), [("Memcpy", Flavor::Uve, 0)]);
            assert!(kept.upgrade().is_some());
            runner.trace(&direct);
            assert_eq!(runner.emulations(), 4, "the pinned trace is reused");
        }
    }

    #[test]
    fn failed_and_timed_out_jobs_release_their_pins() {
        let good = Saxpy::new(4096);
        let bad = PoisonedBench(Saxpy::new(256));
        let cpu = CpuConfig::default();
        let poisoned = [
            Job::new(&bad, Flavor::Uve, cpu.clone()),
            Job::new(&good, Flavor::Uve, cpu.clone()),
            Job::new(&bad, Flavor::Uve, cpu.clone()),
            Job::new(&good, Flavor::Scalar, cpu.clone()),
        ];
        let runner = Runner::parallel(2).verbose(false);
        runner.run(&poisoned);
        assert_eq!(runner.failures().len(), 2);
        let slots = resident(&runner);
        assert_eq!(slots.len(), 1, "{slots:?}");
        assert_eq!(slots[0].2, 0, "a poisoned job must not stay pinned");

        let timed_out = Runner::serial()
            .verbose(false)
            .timeout(Some(Duration::from_nanos(1)));
        timed_out.run(&poisoned[1..]);
        let failures = timed_out.failures();
        assert_eq!(failures.len(), 3);
        assert!(failures[0].is_timeout(), "{}", failures[0].reason);
        assert_eq!(
            resident(&timed_out),
            [("SAXPY", Flavor::Scalar, 0)],
            "timed-out jobs must not stay pinned"
        );
    }

    #[test]
    fn distinct_program_parameters_get_distinct_keys() {
        use uve_kernels::gemm::GemmUnrolled;
        let a = GemmUnrolled::new(8, 32, 8, 1);
        let b = GemmUnrolled::new(8, 32, 8, 2);
        let ka = Point::new(&a, Flavor::Uve).key();
        let kb = Point::new(&b, Flavor::Uve).key();
        assert_eq!(ka.kernel, kb.kernel, "same display name");
        assert_ne!(ka, kb, "different programs must not share a trace");
    }

    /// A benchmark whose correctness check always fails, so
    /// [`Point::emulate`] panics — the vehicle for poisoned-job tests.
    struct PoisonedBench(Saxpy);

    impl Benchmark for PoisonedBench {
        fn name(&self) -> &'static str {
            "poisoned"
        }
        fn setup(&self, emu: &mut uve_core::Emulator) {
            self.0.setup(emu);
        }
        fn program(&self, flavor: Flavor) -> uve_isa::Program {
            self.0.program(flavor)
        }
        fn check(&self, _emu: &uve_core::Emulator) -> Result<(), String> {
            Err("deliberately poisoned job".to_string())
        }
    }

    #[test]
    fn poisoned_job_is_isolated_and_reported() {
        let good = Saxpy::new(256);
        let bad = PoisonedBench(Saxpy::new(256));
        let cpu = CpuConfig::default();
        let sweep = vec![
            Job::new(&good, Flavor::Uve, cpu.clone()),
            Job::new(&bad, Flavor::Uve, cpu.clone()),
            Job::new(&good, Flavor::Scalar, cpu.clone()),
        ];

        let clean = Runner::serial().verbose(false);
        let reference = clean.run(&[
            Job::new(&good, Flavor::Uve, cpu.clone()),
            Job::new(&good, Flavor::Scalar, cpu.clone()),
        ]);
        assert_eq!(clean.finish(), 0, "clean sweep exits zero");

        let runner = Runner::parallel(8).verbose(false);
        let out = runner.run(&sweep);
        assert_eq!(out.len(), 3, "every slot is filled");
        // The healthy jobs are bit-identical to the clean serial sweep.
        assert_eq!(out[0].stats, reference[0].stats);
        assert_eq!(out[2].stats, reference[1].stats);
        // The poisoned slot is a marked placeholder…
        assert_eq!(out[1].name, "poisoned [FAILED]");
        assert_eq!(out[1].committed, 0);
        // …with a repro line and a nonzero exit.
        let failures = runner.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].index, 1);
        let repro = failures[0].repro();
        assert!(repro.contains("kernel=poisoned"), "{repro}");
        assert!(repro.contains("deliberately poisoned job"), "{repro}");
        assert!(!failures[0].is_timeout());
        assert_eq!(runner.finish(), 1);
    }

    #[test]
    fn repro_names_the_failed_points_packing_and_fault_seed() {
        let bad = PoisonedBench(Saxpy::new(256));
        let point = Point::new(&bad, Flavor::Uve);
        let jobs = [
            Point {
                packing: IndirectPacking::Unpacked,
                ..point
            },
            Point {
                fault_seed: 7,
                ..point
            },
        ]
        .map(|point| Job {
            point,
            cpu: CpuConfig::default(),
        });
        let runner = Runner::parallel(2).verbose(false);
        runner.run(&jobs);
        let failures = runner.failures();
        assert_eq!(failures.len(), 2);
        let (unpacked, seeded) = (failures[0].repro(), failures[1].repro());
        assert!(unpacked.contains("packing=Unpacked"), "{unpacked}");
        assert!(unpacked.contains("fault_seed=0"), "{unpacked}");
        assert!(seeded.contains("packing=Packed"), "{seeded}");
        assert!(seeded.contains("fault_seed=7"), "{seeded}");
    }

    #[test]
    fn timed_out_job_is_classified_as_timeout() {
        let bench = Saxpy::new(4096);
        let runner = Runner::serial()
            .verbose(false)
            .timeout(Some(Duration::from_nanos(1)));
        let out = runner.run(&[Job::new(&bench, Flavor::Uve, CpuConfig::default())]);
        assert!(out[0].name.ends_with("[FAILED]"));
        let failures = runner.failures();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].is_timeout(), "{}", failures[0].reason);
        assert_eq!(runner.finish(), 1);
    }

    #[test]
    fn from_parallel_pool_matches_serial() {
        let bench = Saxpy::new(512);
        let cpu = CpuConfig::default();
        fn jobs<'a>(b: &'a Saxpy, cpu: &CpuConfig) -> Vec<Job<'a>> {
            vec![Job::new(b, Flavor::Uve, cpu.clone())]
        }
        let s = Runner::serial().run(&jobs(&bench, &cpu));
        let p = Runner::parallel(2).run(&jobs(&bench, &cpu));
        assert_eq!(s[0].committed, p[0].committed);
        assert_eq!(s[0].stats.cycles, p[0].stats.cycles);
    }
}
