//! `uve-conform`: an offline differential-fuzzing and conformance
//! subsystem for the UVE reproduction.
//!
//! The paper's claims rest on streams producing *exactly* the access
//! sequences and results of the code they replace, so this crate
//! cross-checks the three trusted layers against independent oracles:
//!
//! - [`pattern_fuzz`] — random valid [`uve_stream::Pattern`]s checked
//!   against a naive recursive address/end-flag oracle, including
//!   `SavedWalker` save/restore at random mid-vector cuts;
//! - [`isa_fuzz`] — random instructions round-tripped through
//!   encode→decode→re-encode and disassemble→assemble, plus
//!   decode-of-random-`u32` robustness;
//! - [`asm_fuzz`] — the assembler front end: random constructible
//!   programs (labels included) round-tripped through
//!   `disassemble_program → assemble` to an exact fixpoint, `.include`
//!   unit splits checked identical, and hostile mutated text checked to
//!   return typed spanned errors without ever panicking;
//! - [`kernel_diff`] — randomly sized instances of the paper's kernels run
//!   across all four [`uve_kernels::Flavor`]s and cross-checked against
//!   the Rust reference and across vector lengths;
//! - [`stats_diff`] — the cycle-accounting observability layer: random
//!   small timing runs checked for conservation (stall categories
//!   partition the cycles) and for bit-identical statistics between the
//!   serial and parallel evaluation runners;
//! - [`fault_fuzz`] — the fault subsystem: random kernels run under
//!   injected stream faults and hostile memory-hierarchy schedules,
//!   checked to never panic, to recover bit-identically (memory and
//!   architectural state) and to keep the cycle accounting conserved;
//! - [`smp_fuzz`] — the multicore subsystem: random kernels sharded over
//!   MOESI-coherent cores and time-sliced by the preemptive scheduler,
//!   checked for the single-writer invariant, per-core/per-program cycle
//!   conservation, scheduler liveness, run-twice determinism, and
//!   architecturally invisible context switching;
//! - [`timing_bounds`] — the out-of-order timing model under random core
//!   shapes, single-core and sharded: every core's cycle count must reach
//!   the commit-bandwidth floor and the register critical path, two lower
//!   bounds that hold for any correct scheduler;
//! - [`sweep_fuzz`] — the distributed sweep service's pure core: random
//!   protocol messages round-tripped through the hand-rolled wire codec
//!   (encode→decode→re-encode fixpoint), truncated and corrupted frames
//!   checked to decode gracefully, and randomized grids merged through
//!   the coordinator's assembly in shuffled completion orders, checked
//!   bit-identical to the in-order merge.
//!
//! Everything is registry-free and deterministic: cases derive from
//! `(seed, engine, case index)` via the workspace's SplitMix64
//! ([`rng::FuzzRng`]), failures shrink greedily to a minimal
//! reproduction, and the checked-in corpus (`corpus/regressions.txt`)
//! replays formerly failing cases as a tier-1 test.

pub mod asm_fuzz;
pub mod fault_fuzz;
pub mod isa_fuzz;
pub mod kernel_diff;
pub mod pattern_fuzz;
pub mod rng;
pub mod smp_fuzz;
pub mod stats_diff;
pub mod sweep_fuzz;
pub mod timing_bounds;

pub use rng::FuzzRng;
use uve_bench::{pool, RunMode};

/// A differential-fuzzing engine: deterministic case generation, a check
/// against an independent oracle, and structural shrinking.
pub trait Engine {
    /// One generated test case.
    type Case: Clone + std::fmt::Debug + Send;

    /// Engine name as used by the CLI and the corpus (`pattern`, `isa`,
    /// `asm`, `kernel`, `stats`, `fault`, `smp`, `sweep`, `timing`).
    fn name() -> &'static str;

    /// Generates the case owned by `rng` (must consume randomness only
    /// from `rng` so a `(seed, case)` pair replays bit-identically).
    fn generate(rng: &mut FuzzRng) -> Self::Case;

    /// Checks `case` against the engine's oracle.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first mismatch.
    fn check(case: &Self::Case) -> Result<(), String>;

    /// Candidate one-step simplifications of `case`, most aggressive
    /// first. The greedy shrinker keeps any candidate that still fails.
    fn shrink(case: &Self::Case) -> Vec<Self::Case>;
}

/// A failing case, minimized and ready to report.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Engine that found it.
    pub engine: &'static str,
    /// Master seed of the run.
    pub seed: u64,
    /// Case index within the run.
    pub case: u64,
    /// Oracle mismatch of the original case.
    pub error: String,
    /// Debug rendering of the greedily shrunk case.
    pub minimized: String,
    /// Mismatch reported by the shrunk case.
    pub minimized_error: String,
}

impl Failure {
    /// The line to append to `corpus/regressions.txt`.
    pub fn corpus_line(&self) -> String {
        let summary: String = self.minimized_error.chars().take(80).collect();
        format!(
            "{} {} {} # {}",
            self.engine,
            self.seed,
            self.case,
            summary.replace('\n', " ")
        )
    }

    /// A ready-to-paste regression test.
    pub fn regression_test(&self) -> String {
        format!(
            "#[test]\nfn {}_seed{}_case{}() {{\n    \
             uve_conform::replay_one(\"{}\", {}, {}).unwrap();\n}}",
            self.engine, self.seed, self.case, self.engine, self.seed, self.case
        )
    }
}

/// Outcome of one engine run.
#[derive(Debug)]
pub struct EngineReport {
    /// Engine name.
    pub engine: &'static str,
    /// Master seed.
    pub seed: u64,
    /// Cases executed.
    pub cases: u64,
    /// Failures in case order, minimized.
    pub failures: Vec<Failure>,
}

impl EngineReport {
    /// Renders the deterministic human report (no timing, no thread IDs —
    /// byte-identical across `--jobs` settings).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "[{}] {} cases, seed {}: {} failure(s)",
            self.engine,
            self.cases,
            self.seed,
            self.failures.len()
        );
        for f in &self.failures {
            let _ = writeln!(out, "[{}] FAILURE case {}: {}", f.engine, f.case, f.error);
            let _ = writeln!(out, "  minimized: {}", f.minimized);
            let _ = writeln!(out, "  minimized error: {}", f.minimized_error);
            let _ = writeln!(out, "  corpus line: {}", f.corpus_line());
            let _ = writeln!(out, "  regression test:\n{}", indent(&f.regression_test()));
        }
        out
    }
}

fn indent(s: &str) -> String {
    s.lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Runs one case of `E` and returns its failure, if any, minimized.
fn run_case<E: Engine>(seed: u64, case: u64) -> Option<Failure> {
    let mut rng = FuzzRng::for_case(seed, E::name(), case);
    let generated = E::generate(&mut rng);
    let error = E::check(&generated).err()?;
    let minimized = shrink::<E>(generated);
    let minimized_error = E::check(&minimized)
        .err()
        .unwrap_or_else(|| "shrunk case no longer fails".to_string());
    Some(Failure {
        engine: E::name(),
        seed,
        case,
        error,
        minimized: format!("{minimized:?}"),
        minimized_error,
    })
}

/// Greedy shrink: repeatedly takes the first candidate simplification that
/// still fails, until none does (bounded to keep pathological cases from
/// looping).
fn shrink<E: Engine>(mut case: E::Case) -> E::Case {
    for _ in 0..1000 {
        let mut improved = false;
        for cand in E::shrink(&case) {
            if E::check(&cand).is_err() {
                case = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            break;
        }
    }
    case
}

/// Runs `cases` cases of engine `E` on the shared worker pool and collects
/// the (deterministic, case-ordered) report.
pub fn run_engine<E: Engine>(seed: u64, cases: u64, mode: RunMode) -> EngineReport {
    let failures: Vec<Failure> =
        pool::run_indexed(mode, cases as usize, |i| run_case::<E>(seed, i as u64))
            .into_iter()
            .flatten()
            .collect();
    EngineReport {
        engine: E::name(),
        seed,
        cases,
        failures,
    }
}

/// Replays one `(engine, seed, case)` triple — the corpus/regression entry
/// point.
///
/// # Errors
///
/// Returns the oracle mismatch if the case still fails, or an error for an
/// unknown engine name.
pub fn replay_one(engine: &str, seed: u64, case: u64) -> Result<(), String> {
    fn one<E: Engine>(seed: u64, case: u64) -> Result<(), String> {
        let mut rng = FuzzRng::for_case(seed, E::name(), case);
        E::check(&E::generate(&mut rng))
            .map_err(|e| format!("{} seed={seed} case={case}: {e}", E::name()))
    }
    match engine {
        "pattern" => one::<pattern_fuzz::PatternEngine>(seed, case),
        "isa" => one::<isa_fuzz::IsaEngine>(seed, case),
        "asm" => one::<asm_fuzz::AsmEngine>(seed, case),
        "kernel" => one::<kernel_diff::KernelEngine>(seed, case),
        "stats" => one::<stats_diff::StatsEngine>(seed, case),
        "fault" => one::<fault_fuzz::FaultEngine>(seed, case),
        "smp" => one::<smp_fuzz::SmpEngine>(seed, case),
        "sweep" => one::<sweep_fuzz::SweepEngine>(seed, case),
        "timing" => one::<timing_bounds::TimingEngine>(seed, case),
        other => Err(format!("unknown engine {other:?}")),
    }
}

/// Parses the corpus text format: one `engine seed case [# comment]` entry
/// per line; blank lines and `#` comment lines are skipped.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_corpus(text: &str) -> Result<Vec<(String, u64, u64)>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let entry = (|| {
            let engine = it.next()?.to_string();
            let seed = it.next()?.parse().ok()?;
            let case = it.next()?.parse().ok()?;
            Some((engine, seed, case))
        })()
        .ok_or_else(|| format!("corpus line {}: malformed entry {raw:?}", lineno + 1))?;
        out.push(entry);
    }
    Ok(out)
}

/// The checked-in regression corpus.
pub const CORPUS: &str = include_str!("../corpus/regressions.txt");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_parses() {
        let entries = parse_corpus(CORPUS).unwrap();
        for (engine, _, _) in &entries {
            assert!(matches!(
                engine.as_str(),
                "pattern"
                    | "isa"
                    | "asm"
                    | "kernel"
                    | "stats"
                    | "fault"
                    | "smp"
                    | "sweep"
                    | "timing"
            ));
        }
    }

    #[test]
    fn corpus_rejects_garbage() {
        assert!(parse_corpus("pattern seven 3").is_err());
        assert!(parse_corpus("# comment only\n\n").unwrap().is_empty());
    }
}
