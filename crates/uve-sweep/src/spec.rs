//! Sweep grids, job keys, and the one true job executor.
//!
//! A [`SweepSpec`] names a kernel × flavor × stream-level × packing ×
//! fault-seed × cores × timing-knob grid. [`SweepSpec::points`]
//! enumerates it in **canonical order** (the order the axes are nested in
//! the struct), and every transport in the service preserves that order:
//! the coordinator merges completed jobs back into canonical slots, so
//! the merged output of a sweep is bit-identical to [`run_serial`] — a
//! serial in-process loop over [`run_point`] — regardless of worker
//! count, request interleaving, cache hits, or worker crashes.
//!
//! [`job_key`] is the content address of one grid point: an FNV-1a digest
//! over the encoded [`PointSpec`] plus the program fingerprint of the
//! resolved kernel (the same fingerprint [`Point::key`] carries, so two
//! kernels sharing a display name but differing in parameters can never
//! alias). Everything a job's result depends on — functional knobs
//! ([`Point`]), the timing configuration, and [`IndirectPacking`] — is
//! in the key, so a cache hit is always safe to replay.

use std::time::Duration;

use crate::messages::{
    get_exec, get_flavor, get_level, get_packing, put_exec, put_flavor, put_level, put_packing,
    Reader, WireError, Writer,
};
use uve_bench::{replay, Point, Runner};
use uve_core::{fnv1a_key, ExecMode, IndirectPacking, FNV_OFFSET};
use uve_cpu::CpuConfig;
use uve_isa::MemLevel;
use uve_kernels::{Benchmark, Flavor};
use uve_smp::run_sharded;

/// Hard cap on the number of grid points in one sweep request.
pub const MAX_GRID_POINTS: usize = 65_536;

/// Maximum cores a multicore grid point may request (matches the `smp`
/// figure's largest configuration).
pub const MAX_CORES: u32 = 8;

/// Shared write prefix (in cache lines) used when a point shards its
/// trace over multiple cores — the `smp` binary's default, kept fixed so
/// multicore points are reproducible from the spec alone.
pub const SHARED_PREFIX_LINES: usize = 16;

/// One sweep request: the cross product of every axis. Empty axes take
/// their defaults in [`SweepSpec::normalized`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SweepSpec {
    /// Use the smoke-test kernel catalog (small problem sizes) instead of
    /// the paper's evaluation sizes.
    pub small: bool,
    /// Kernel names (case-insensitive; empty = the whole catalog).
    pub kernels: Vec<String>,
    /// Code flavours (empty = `[Uve]`).
    pub flavors: Vec<Flavor>,
    /// Default stream memory levels (empty = `[L2]`).
    pub levels: Vec<MemLevel>,
    /// Indirect-chunking modes (empty = `[Packed]`).
    pub packings: Vec<IndirectPacking>,
    /// Stream page-fault plan seeds; 0 = clean (empty = `[0]`).
    pub fault_seeds: Vec<u64>,
    /// Core counts; 1 = single-core OoO replay, >1 = MOESI-coherent
    /// lockstep sharding (empty = `[1]`).
    pub cores: Vec<u32>,
    /// Physical-vector-register counts; 0 = the Table I default
    /// (empty = `[0]`).
    pub vec_prfs: Vec<u32>,
    /// Streaming Engine FIFO depths; 0 = the Table I default
    /// (empty = `[0]`).
    pub fifo_depths: Vec<u32>,
}

/// One grid point, fully self-describing (carries the `small` catalog
/// flag so a worker resolves the same kernel instance the coordinator
/// keyed).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PointSpec {
    /// Catalog flag (smoke-test or paper sizes).
    pub small: bool,
    /// Kernel name, canonical case (as the catalog spells it).
    pub kernel: String,
    /// Code flavour.
    pub flavor: Flavor,
    /// Default stream memory level.
    pub level: MemLevel,
    /// Indirect-chunking mode.
    pub packing: IndirectPacking,
    /// Functional execution strategy: always [`ExecMode::Interpret`], the
    /// only one. Kept, and encoded as tag 0, so job keys and durable cache
    /// rows stay valid; it goes with the next [`MODEL_EPOCH`] bump.
    pub exec: ExecMode,
    /// Stream page-fault plan seed (0 = clean).
    pub fault_seed: u64,
    /// Core count. `1` replays warm, as the figures do: a priming pass,
    /// then the measured pass over the same hierarchy
    /// (`OoOCore::run_warm`). `2` or more is one cold sharded pass
    /// (`run_sharded`), so a row's cycles at 1 and at 2 cores are not
    /// comparable.
    pub cores: u32,
    /// Physical vector registers (0 = default).
    pub vec_prf: u32,
    /// Streaming Engine FIFO depth (0 = default).
    pub fifo_depth: u32,
}

/// One measured grid point — the unit of the determinism contract.
///
/// `digest` is an FNV-1a hash over the `Debug` rendering of the complete
/// timing statistics (every counter, the full cycle-accounting breakdown,
/// and for multicore points the per-core statistics and snoop counters),
/// so "two rows are equal" means the underlying runs were bit-identical,
/// not merely cycle-count-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRow {
    /// The grid point this row measures.
    pub point: PointSpec,
    /// Cycles: the warm pass for a single core, the makespan of the
    /// slowest core of one cold pass for multicore points (see
    /// [`PointSpec::cores`]).
    pub cycles: u64,
    /// Committed instructions (summed over cores).
    pub committed: u64,
    /// Rename-blocked cycles (summed over cores) — Fig. 8.C numerator.
    pub rename_blocked: u64,
    /// DRAM bus utilization as IEEE-754 bits (Fig. 8.D), bit-exact over
    /// the wire.
    pub bus_util_bits: u64,
    /// FNV-1a digest of the full timing statistics.
    pub digest: u64,
}

impl PointRow {
    /// Conservative lower bound on the wire size of a row, used to reject
    /// hostile collection counts before allocating.
    pub const MIN_WIRE_BYTES: usize = 64;

    /// The bus utilization as a float.
    pub fn bus_utilization(&self) -> f64 {
        f64::from_bits(self.bus_util_bits)
    }
}

/// Operational counters for one completed sweep. **Not** part of the
/// determinism contract: identical sweeps produce identical rows but
/// different stats depending on what the cache already held.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepStats {
    /// Grid points in the sweep.
    pub total: u32,
    /// Points satisfied straight from the result cache at request time.
    pub cached: u32,
    /// Points already in flight for another sweep that this one joined.
    pub joined: u32,
    /// Points this sweep itself enqueued for execution.
    pub executed: u32,
    /// Job retries observed service-wide up to completion.
    pub retries: u32,
    /// Worker deaths observed service-wide up to completion.
    pub worker_deaths: u32,
    /// Fresh functional emulations performed service-wide up to
    /// completion (the "second identical sweep re-emulates nothing"
    /// observable).
    pub emulations: u64,
}

// --- wire codecs -------------------------------------------------------

fn put_str_vec(w: &mut Writer, v: &[String]) {
    w.u32(v.len() as u32);
    for s in v {
        w.str(s);
    }
}

fn get_str_vec(r: &mut Reader) -> Result<Vec<String>, WireError> {
    let n = r.count(4)?;
    (0..n).map(|_| r.str()).collect()
}

fn put_u64_vec(w: &mut Writer, v: &[u64]) {
    w.u32(v.len() as u32);
    for &x in v {
        w.u64(x);
    }
}

fn get_u64_vec(r: &mut Reader) -> Result<Vec<u64>, WireError> {
    let n = r.count(8)?;
    (0..n).map(|_| r.u64()).collect()
}

fn put_u32_vec(w: &mut Writer, v: &[u32]) {
    w.u32(v.len() as u32);
    for &x in v {
        w.u32(x);
    }
}

fn get_u32_vec(r: &mut Reader) -> Result<Vec<u32>, WireError> {
    let n = r.count(4)?;
    (0..n).map(|_| r.u32()).collect()
}

impl SweepSpec {
    /// Encodes the spec (wire format, no tag).
    pub fn encode(&self, w: &mut Writer) {
        w.bool(self.small);
        put_str_vec(w, &self.kernels);
        w.u32(self.flavors.len() as u32);
        for &f in &self.flavors {
            put_flavor(w, f);
        }
        w.u32(self.levels.len() as u32);
        for &l in &self.levels {
            put_level(w, l);
        }
        w.u32(self.packings.len() as u32);
        for &p in &self.packings {
            put_packing(w, p);
        }
        put_u64_vec(w, &self.fault_seeds);
        put_u32_vec(w, &self.cores);
        put_u32_vec(w, &self.vec_prfs);
        put_u32_vec(w, &self.fifo_depths);
    }

    /// Decodes a spec.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input; semantic validation
    /// (unknown kernels, oversized grids) is separate, in
    /// [`SweepSpec::validate`].
    pub fn decode(r: &mut Reader) -> Result<Self, WireError> {
        let small = r.bool()?;
        let kernels = get_str_vec(r)?;
        let n = r.count(1)?;
        let flavors = (0..n).map(|_| get_flavor(r)).collect::<Result<_, _>>()?;
        let n = r.count(1)?;
        let levels = (0..n).map(|_| get_level(r)).collect::<Result<_, _>>()?;
        let n = r.count(1)?;
        let packings = (0..n).map(|_| get_packing(r)).collect::<Result<_, _>>()?;
        Ok(Self {
            small,
            kernels,
            flavors,
            levels,
            packings,
            fault_seeds: get_u64_vec(r)?,
            cores: get_u32_vec(r)?,
            vec_prfs: get_u32_vec(r)?,
            fifo_depths: get_u32_vec(r)?,
        })
    }

    /// A tiny two-kernel smoke grid (used by tests and doc examples).
    pub fn small_default() -> Self {
        Self {
            small: true,
            kernels: vec!["SAXPY".to_string(), "memcpy".to_string()],
            flavors: vec![Flavor::Uve, Flavor::Scalar],
            ..Self::default()
        }
    }

    /// The spec with every empty axis replaced by its default and kernel
    /// names replaced by their canonical catalog spelling.
    ///
    /// # Errors
    ///
    /// Returns a description of the first unknown kernel name.
    pub fn normalized(&self) -> Result<Self, String> {
        let catalog = catalog(self.small);
        let canonical = |name: &str| -> Result<String, String> {
            catalog
                .iter()
                .find(|b| b.name().eq_ignore_ascii_case(name))
                .map(|b| b.name().to_string())
                .ok_or_else(|| {
                    format!(
                        "unknown kernel {name:?}; catalog: {}",
                        catalog
                            .iter()
                            .map(|b| b.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })
        };
        let kernels = if self.kernels.is_empty() {
            catalog.iter().map(|b| b.name().to_string()).collect()
        } else {
            self.kernels
                .iter()
                .map(|k| canonical(k))
                .collect::<Result<Vec<_>, _>>()?
        };
        fn or<T: Clone>(v: &[T], d: T) -> Vec<T> {
            if v.is_empty() {
                vec![d]
            } else {
                v.to_vec()
            }
        }
        Ok(Self {
            small: self.small,
            kernels,
            flavors: or(&self.flavors, Flavor::Uve),
            levels: or(&self.levels, MemLevel::L2),
            packings: or(&self.packings, IndirectPacking::Packed),
            fault_seeds: or(&self.fault_seeds, 0),
            cores: or(&self.cores, 1),
            vec_prfs: or(&self.vec_prfs, 0),
            fifo_depths: or(&self.fifo_depths, 0),
        })
    }

    /// Validates a normalized spec: known kernels, sane core counts, and
    /// a bounded grid.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem.
    pub fn validate(&self) -> Result<(), String> {
        let normalized = self.normalized()?;
        if let Some(&c) = normalized.cores.iter().find(|&&c| c == 0 || c > MAX_CORES) {
            return Err(format!("cores must be in 1..={MAX_CORES}, got {c}"));
        }
        let total = normalized.grid_size();
        if total == 0 {
            return Err("empty grid".to_string());
        }
        if total > MAX_GRID_POINTS {
            return Err(format!(
                "grid has {total} points, exceeding the {MAX_GRID_POINTS} cap"
            ));
        }
        Ok(())
    }

    /// Number of grid points (after normalization; 0 only if an axis is
    /// somehow empty).
    pub fn grid_size(&self) -> usize {
        self.kernels
            .len()
            .saturating_mul(self.flavors.len())
            .saturating_mul(self.levels.len())
            .saturating_mul(self.packings.len())
            .saturating_mul(self.fault_seeds.len())
            .saturating_mul(self.cores.len())
            .saturating_mul(self.vec_prfs.len())
            .saturating_mul(self.fifo_depths.len())
    }

    /// Enumerates the grid in canonical order: kernels outermost, then
    /// flavors, levels, packings, fault seeds, cores, vec-PRF,
    /// FIFO depth innermost. Every merge in the service reproduces this
    /// order, whatever order jobs complete in.
    ///
    /// # Errors
    ///
    /// Propagates [`SweepSpec::validate`] failures.
    pub fn points(&self) -> Result<Vec<PointSpec>, String> {
        self.validate()?;
        let s = self.normalized()?;
        let mut out = Vec::with_capacity(s.grid_size());
        for kernel in &s.kernels {
            for &flavor in &s.flavors {
                for &level in &s.levels {
                    for &packing in &s.packings {
                        for &fault_seed in &s.fault_seeds {
                            for &cores in &s.cores {
                                for &vec_prf in &s.vec_prfs {
                                    for &fifo_depth in &s.fifo_depths {
                                        out.push(PointSpec {
                                            small: s.small,
                                            kernel: kernel.clone(),
                                            flavor,
                                            level,
                                            packing,
                                            exec: ExecMode::Interpret,
                                            fault_seed,
                                            cores,
                                            vec_prf,
                                            fifo_depth,
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }
}

impl PointSpec {
    /// Encodes the point (wire format, no tag).
    pub fn encode(&self, w: &mut Writer) {
        w.bool(self.small);
        w.str(&self.kernel);
        put_flavor(w, self.flavor);
        put_level(w, self.level);
        put_packing(w, self.packing);
        put_exec(w, self.exec);
        w.u64(self.fault_seed);
        w.u32(self.cores);
        w.u32(self.vec_prf);
        w.u32(self.fifo_depth);
    }

    /// Decodes a point.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input.
    pub fn decode(r: &mut Reader) -> Result<Self, WireError> {
        Ok(Self {
            small: r.bool()?,
            kernel: r.str()?,
            flavor: get_flavor(r)?,
            level: get_level(r)?,
            packing: get_packing(r)?,
            exec: get_exec(r)?,
            fault_seed: r.u64()?,
            cores: r.u32()?,
            vec_prf: r.u32()?,
            fifo_depth: r.u32()?,
        })
    }

    /// The functional point this grid point replays, on `bench` (the
    /// kernel [`resolve`]d from its name).
    pub(crate) fn functional<'a>(&self, bench: &'a dyn Benchmark) -> Point<'a> {
        Point {
            bench,
            flavor: self.flavor,
            stream_level: self.level,
            packing: self.packing,
            fault_seed: self.fault_seed,
        }
    }

    /// The timing configuration this point replays under: Table I with
    /// the point's knobs applied.
    pub fn cpu_config(&self) -> CpuConfig {
        let mut cpu = CpuConfig::default();
        if self.vec_prf != 0 {
            cpu.vec_prf = self.vec_prf as usize;
        }
        if self.fifo_depth != 0 {
            cpu.engine.fifo_depth = self.fifo_depth as usize;
        }
        cpu
    }

    /// One-line rendering used by the `uve-sweep` binary's tables.
    pub fn label(&self) -> String {
        format!(
            "{} {} {:?} {:?} {:?} seed={} cores={} prf={} fifo={}",
            self.kernel,
            self.flavor,
            self.level,
            self.packing,
            self.exec,
            self.fault_seed,
            self.cores,
            self.vec_prf,
            self.fifo_depth,
        )
    }
}

impl PointRow {
    /// Encodes the row (wire format, no tag).
    pub fn encode(&self, w: &mut Writer) {
        self.point.encode(w);
        w.u64(self.cycles);
        w.u64(self.committed);
        w.u64(self.rename_blocked);
        w.u64(self.bus_util_bits);
        w.u64(self.digest);
    }

    /// Decodes a row.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input.
    pub fn decode(r: &mut Reader) -> Result<Self, WireError> {
        Ok(Self {
            point: PointSpec::decode(r)?,
            cycles: r.u64()?,
            committed: r.u64()?,
            rename_blocked: r.u64()?,
            bus_util_bits: r.u64()?,
            digest: r.u64()?,
        })
    }
}

impl SweepStats {
    /// Encodes the stats (wire format, no tag).
    pub fn encode(&self, w: &mut Writer) {
        w.u32(self.total);
        w.u32(self.cached);
        w.u32(self.joined);
        w.u32(self.executed);
        w.u32(self.retries);
        w.u32(self.worker_deaths);
        w.u64(self.emulations);
    }

    /// Decodes the stats.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on malformed input.
    pub fn decode(r: &mut Reader) -> Result<Self, WireError> {
        Ok(Self {
            total: r.u32()?,
            cached: r.u32()?,
            joined: r.u32()?,
            executed: r.u32()?,
            retries: r.u32()?,
            worker_deaths: r.u32()?,
            emulations: r.u64()?,
        })
    }
}

// --- kernel catalog ----------------------------------------------------

/// The kernel catalog a sweep resolves names against: the paper's
/// 19-kernel evaluation suite plus the DSP and sparse follow-on
/// families, or the same kernels at smoke-test sizes when `small` (the
/// paper's suite then comes from
/// [`small_evaluation_suite`](uve_kernels::small_evaluation_suite), the
/// `smp` binary's `--small` suite).
pub fn catalog(small: bool) -> Vec<Box<dyn Benchmark>> {
    use uve_kernels::*;
    if !small {
        return extended_suite();
    }
    let families: [Box<dyn Benchmark>; 6] = [
        Box::new(dsp::Fir::new(96, 16)),
        Box::new(dsp::ChanEst::new(128)),
        Box::new(dsp::FftStage::new(128, 2)),
        Box::new(sparse::Spmv::new(24, 48, 20)),
        Box::new(sparse::GatherReduce::new(192, 96)),
        Box::new(sparse::Histogram::new(128, 32)),
    ];
    let mut cat = small_evaluation_suite();
    cat.extend(families);
    cat
}

/// Resolves a kernel name (case-insensitive) against [`catalog`].
///
/// # Errors
///
/// Returns a description listing the catalog on an unknown name.
pub fn resolve(name: &str, small: bool) -> Result<Box<dyn Benchmark>, String> {
    let mut cat = catalog(small);
    match cat.iter().position(|b| b.name().eq_ignore_ascii_case(name)) {
        Some(i) => Ok(cat.swap_remove(i)),
        None => Err(format!(
            "unknown kernel {name:?}; catalog: {}",
            catalog(small)
                .iter()
                .map(|b| b.name())
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

// --- content addressing ------------------------------------------------

/// Version of the simulated model, folded into every [`job_key`].
///
/// A durable cache row is only valid for the model that produced it. Bump
/// this whenever a change alters any simulated output (timing statistics,
/// traces, emulator semantics), so rows from the old model miss instead of
/// being served under still-valid keys. `tests/fingerprint_golden.rs` pins
/// a canary grid's [`rows_digest`] next to this value: a model change
/// without a bump fails there.
pub const MODEL_EPOCH: u64 = 1;

/// The content-key hash ([`fnv1a_key`]) of a byte slice, from the
/// standard offset basis.
pub fn fnv1a_bytes(bytes: &[u8]) -> u64 {
    fnv1a_key(FNV_OFFSET, bytes)
}

/// The content address of one grid point: everything its result depends
/// on. Composes the encoded [`PointSpec`] (functional knobs, timing
/// knobs, fault seed, core count) with the resolved kernel's
/// program fingerprint from [`Point::key`] and the [`MODEL_EPOCH`], so
/// rows of an older model never hit, and renaming-but-reparametrising
/// a kernel can never alias a stale cache entry. Every ingredient is
/// build-stable (the fingerprint is canonical FNV-1a, see
/// `uve_core::program_fingerprint`), so a key minted by one binary hits a
/// durable cache written by another — pinned by
/// `tests/fingerprint_golden.rs`.
///
/// # Errors
///
/// Propagates kernel-resolution failures.
pub fn job_key(point: &PointSpec) -> Result<u64, String> {
    let bench = resolve(&point.kernel, point.small)?;
    let tk = point.functional(bench.as_ref()).key();
    let mut w = Writer::new();
    point.encode(&mut w);
    let mut h = fnv1a_bytes(&w.into_bytes());
    h = fnv1a_key(h, &tk.program.to_le_bytes());
    h = fnv1a_key(h, &(tk.vlen as u64).to_le_bytes());
    h = fnv1a_key(h, &MODEL_EPOCH.to_le_bytes());
    Ok(h)
}

// --- execution ---------------------------------------------------------

/// Evaluates one grid point on `runner`, whose trace cache keeps the last
/// functional trace looked up, so consecutive points over one trace
/// emulate it once. This is the **only** executor in the service: workers
/// and [`run_serial`] — the determinism baseline — both call it, so the
/// two can only ever differ if scheduling leaked into the model (which
/// the integration tests exist to rule out).
///
/// # Errors
///
/// Returns kernel-resolution and coherence failures; emulation and
/// timing-model panics propagate (workers run this under
/// `uve_bench::isolated`).
pub fn run_point(runner: &Runner, point: &PointSpec) -> Result<PointRow, String> {
    let bench = resolve(&point.kernel, point.small)?;
    let cpu = point.cpu_config();
    let cached = runner.trace(&point.functional(bench.as_ref()));
    if point.cores <= 1 {
        let m = replay(bench.name(), point.flavor, &cached, &cpu);
        return Ok(PointRow {
            point: point.clone(),
            cycles: m.stats.cycles,
            committed: m.committed,
            rename_blocked: m.stats.rename_blocked_cycles,
            bus_util_bits: m.stats.bus_utilization.to_bits(),
            digest: fnv1a_bytes(format!("{:?}", m.stats).as_bytes()),
        });
    }
    let run = run_sharded(
        &cpu,
        &cached.trace,
        point.cores as usize,
        SHARED_PREFIX_LINES,
        0,
    )
    .map_err(|v| {
        format!(
            "{}/{}: coherence violation: {v:?}",
            point.kernel, point.flavor
        )
    })?;
    let mut h = FNV_OFFSET;
    for s in &run.per_core {
        h = fnv1a_key(h, format!("{s:?}").as_bytes());
    }
    for s in &run.snoop {
        h = fnv1a_key(h, format!("{s:?}").as_bytes());
    }
    h = fnv1a_key(h, &run.makespan.to_le_bytes());
    h = fnv1a_key(h, &run.bus_transactions.to_le_bytes());
    let committed: u64 = run.per_core.iter().map(|s| s.committed).sum();
    let rename_blocked: u64 = run.per_core.iter().map(|s| s.rename_blocked_cycles).sum();
    let bus = run
        .per_core
        .first()
        .map_or(0.0, |s| s.bus_utilization)
        .to_bits();
    Ok(PointRow {
        point: point.clone(),
        cycles: run.makespan,
        committed,
        rename_blocked,
        bus_util_bits: bus,
        digest: h,
    })
}

/// The determinism baseline: runs the whole grid serially, in canonical
/// order, on one [`Runner`]. Any sweep's merged output must be
/// bit-identical to this, whatever the worker count, request
/// interleaving, cache temperature, or crash history.
///
/// Returns the rows plus the number of fresh functional emulations the
/// serial runner performed: one per functional point, because canonical
/// order keeps each point's jobs together and the runner keeps the last
/// trace it looked up.
///
/// # Errors
///
/// Propagates validation and execution failures.
pub fn run_serial(spec: &SweepSpec) -> Result<(Vec<PointRow>, u64), String> {
    let runner = Runner::serial().verbose(false);
    let rows = spec
        .points()?
        .iter()
        .map(|p| run_point(&runner, p))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((rows, runner.emulations()))
}

/// Renders rows as the deterministic table the `uve-sweep` binary prints
/// (and CI diffs against the serial baseline).
pub fn render_rows(rows: &[PointRow]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for r in rows {
        let _ = writeln!(
            out,
            "{:<64} cycles={:<10} committed={:<10} digest={:016x}",
            r.point.label(),
            r.cycles,
            r.committed,
            r.digest
        );
    }
    let _ = writeln!(out, "rows={} digest={:016x}", rows.len(), rows_digest(rows));
    out
}

/// A single digest over a whole result set (order-sensitive — canonical
/// order is part of the contract).
pub fn rows_digest(rows: &[PointRow]) -> u64 {
    let mut w = Writer::new();
    for r in rows {
        r.encode(&mut w);
    }
    fnv1a_bytes(&w.into_bytes())
}

/// Default per-job wall-clock budget a worker arms around [`run_point`].
pub const DEFAULT_WORKER_JOB_TIMEOUT: Duration = Duration::from_secs(600);

// --- merge assembly ----------------------------------------------------

/// The coordinator-side merge of one sweep: canonical slots filled as
/// jobs complete, in whatever order they complete.
#[derive(Debug)]
pub struct Assembly {
    points: Vec<PointSpec>,
    keys: Vec<u64>,
    slots: Vec<Option<PointRow>>,
    filled: usize,
}

impl Assembly {
    /// Plans the sweep: enumerates the grid and computes every job key.
    ///
    /// # Errors
    ///
    /// Propagates validation failures.
    pub fn new(spec: &SweepSpec) -> Result<Self, String> {
        let points = spec.points()?;
        let keys = points.iter().map(job_key).collect::<Result<Vec<_>, _>>()?;
        let slots = vec![None; points.len()];
        Ok(Self {
            points,
            keys,
            slots,
            filled: 0,
        })
    }

    /// The grid, canonical order.
    pub fn points(&self) -> &[PointSpec] {
        &self.points
    }

    /// Job keys, parallel to [`Assembly::points`]. Duplicates are
    /// possible when grid axes collapse to the same job (the service
    /// runs such a job once and fills every slot).
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Offers a completed row for `key`; fills every still-empty slot
    /// with that key and returns how many it filled.
    pub fn offer(&mut self, key: u64, row: &PointRow) -> usize {
        let mut n = 0;
        for (i, k) in self.keys.iter().enumerate() {
            if *k == key && self.slots[i].is_none() {
                // The row's point came from whichever slot enqueued the
                // job first; restamp it with this slot's (identical by
                // key construction) point for canonical output.
                self.slots[i] = Some(PointRow {
                    point: self.points[i].clone(),
                    ..row.clone()
                });
                self.filled += 1;
                n += 1;
            }
        }
        n
    }

    /// Slots filled so far.
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// Grid size.
    pub fn total(&self) -> usize {
        self.slots.len()
    }

    /// Whether every slot is filled.
    pub fn is_complete(&self) -> bool {
        self.filled == self.slots.len()
    }

    /// The merged rows, canonical order.
    ///
    /// # Errors
    ///
    /// Returns the index of the first unfilled slot if incomplete.
    pub fn finish(self) -> Result<Vec<PointRow>, usize> {
        let mut out = Vec::with_capacity(self.slots.len());
        for (i, slot) in self.slots.into_iter().enumerate() {
            match slot {
                Some(row) => out.push(row),
                None => return Err(i),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_fills_defaults_and_canonicalizes_names() {
        let spec = SweepSpec {
            small: true,
            kernels: vec!["saxpy".to_string()],
            ..SweepSpec::default()
        };
        let n = spec.normalized().unwrap();
        assert_eq!(n.kernels, vec!["SAXPY"]);
        assert_eq!(n.flavors, vec![Flavor::Uve]);
        assert_eq!(n.cores, vec![1]);
        assert_eq!(spec.points().unwrap().len(), 1);
    }

    #[test]
    fn unknown_kernel_is_rejected() {
        let spec = SweepSpec {
            kernels: vec!["nope".to_string()],
            ..SweepSpec::default()
        };
        assert!(spec.validate().unwrap_err().contains("unknown kernel"));
    }

    #[test]
    fn oversized_grid_is_rejected() {
        let spec = SweepSpec {
            small: true,
            fault_seeds: (0..2000).collect(),
            vec_prfs: (0..2000).collect(),
            ..SweepSpec::default()
        };
        assert!(spec.validate().unwrap_err().contains("cap"));
    }

    #[test]
    fn canonical_order_is_stable() {
        let spec = SweepSpec {
            small: true,
            kernels: vec!["SAXPY".to_string(), "memcpy".to_string()],
            flavors: vec![Flavor::Uve, Flavor::Scalar],
            ..SweepSpec::default()
        };
        let pts = spec.points().unwrap();
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].kernel, "SAXPY");
        assert_eq!(pts[0].flavor, Flavor::Uve);
        assert_eq!(pts[1].flavor, Flavor::Scalar);
        assert_eq!(pts[2].kernel, "Memcpy", "canonical catalog spelling");
    }

    #[test]
    fn job_keys_separate_every_axis() {
        let base = PointSpec {
            small: true,
            kernel: "SAXPY".to_string(),
            flavor: Flavor::Uve,
            level: MemLevel::L2,
            packing: IndirectPacking::Packed,
            exec: ExecMode::Interpret,
            fault_seed: 0,
            cores: 1,
            vec_prf: 0,
            fifo_depth: 0,
        };
        let k0 = job_key(&base).unwrap();
        let variants = [
            PointSpec {
                fault_seed: 7,
                ..base.clone()
            },
            PointSpec {
                cores: 2,
                ..base.clone()
            },
            PointSpec {
                vec_prf: 96,
                ..base.clone()
            },
            PointSpec {
                small: false,
                ..base.clone()
            },
            PointSpec {
                packing: IndirectPacking::Unpacked,
                ..base.clone()
            },
        ];
        for v in &variants {
            assert_ne!(job_key(v).unwrap(), k0, "{v:?}");
        }
        assert_eq!(job_key(&base).unwrap(), k0, "keys are deterministic");
    }

    #[test]
    fn assembly_merges_any_completion_order() {
        let spec = SweepSpec::small_default();
        let mut a = Assembly::new(&spec).unwrap();
        let mut b = Assembly::new(&spec).unwrap();
        let runner = Runner::serial().verbose(false);
        let rows: Vec<(u64, PointRow)> = a
            .points()
            .iter()
            .zip(a.keys())
            .map(|(p, &k)| (k, run_point(&runner, p).unwrap()))
            .collect();
        for (k, r) in &rows {
            a.offer(*k, r);
        }
        for (k, r) in rows.iter().rev() {
            b.offer(*k, r);
        }
        let fa = a.finish().unwrap();
        let fb = b.finish().unwrap();
        assert_eq!(fa, fb, "merge is completion-order independent");
        assert_eq!(rows_digest(&fa), rows_digest(&fb));
    }

    #[test]
    fn run_point_multicore_is_deterministic() {
        let runner = Runner::serial().verbose(false);
        let point = PointSpec {
            small: true,
            kernel: "memcpy".to_string(),
            flavor: Flavor::Scalar,
            level: MemLevel::L2,
            packing: IndirectPacking::Packed,
            exec: ExecMode::Interpret,
            fault_seed: 0,
            cores: 2,
            vec_prf: 0,
            fifo_depth: 0,
        };
        let a = run_point(&runner, &point).unwrap();
        let b = run_point(&runner, &point).unwrap();
        assert_eq!(a, b);
        assert!(a.cycles > 0);
    }

    #[test]
    fn runner_keeps_one_trace_resident() {
        let memcpy = PointSpec {
            small: true,
            kernel: "memcpy".to_string(),
            flavor: Flavor::Uve,
            level: MemLevel::L2,
            packing: IndirectPacking::Packed,
            exec: ExecMode::Interpret,
            fault_seed: 0,
            cores: 1,
            vec_prf: 0,
            fifo_depth: 0,
        };
        let runner = Runner::serial().verbose(false);
        run_point(&runner, &memcpy).unwrap();
        assert_eq!(runner.emulations(), 1);
        let resident = {
            let bench = resolve("memcpy", true).unwrap();
            let trace = runner.trace(&memcpy.functional(bench.as_ref()));
            std::sync::Arc::downgrade(&trace)
        };
        assert_eq!(runner.emulations(), 1, "the lookup above was a hit");

        // Other timing points of the same functional point reuse it.
        for (cores, fifo_depth) in [(2, 0), (1, 4)] {
            let point = PointSpec {
                cores,
                fifo_depth,
                ..memcpy.clone()
            };
            run_point(&runner, &point).unwrap();
        }
        assert_eq!(runner.emulations(), 1, "timing points never emulate");
        assert!(resident.upgrade().is_some());

        // A new functional point drops the old trace and emulates once.
        let saxpy = PointSpec {
            kernel: "saxpy".to_string(),
            ..memcpy.clone()
        };
        run_point(&runner, &saxpy).unwrap();
        assert!(resident.upgrade().is_none(), "old trace dropped");
        assert_eq!(runner.emulations(), 2);
    }
}
