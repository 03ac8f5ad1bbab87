//! The sweep worker: a job loop over one coordinator connection.
//!
//! A worker connects, announces itself, and then serves [`Msg::RunJob`]
//! requests one at a time, replying [`Msg::JobOk`] or [`Msg::JobErr`].
//! Each job runs under the PR-4 isolation discipline: `catch_unwind`
//! around the executor plus a cooperative wall-clock deadline
//! ([`uve_core::deadline`]), so a poisoned grid point or a wedged model
//! becomes a reported failure, never a hung or dead worker. The worker
//! runs jobs on a `PointRunner`, which keeps one functional trace
//! resident: consecutive jobs over the same functional point (canonical
//! order puts them back to back) replay it, and the first job of another
//! point drops it before emulating its own. A long-running worker's
//! memory is therefore bounded by one trace, at the price of emulating a
//! point again if a later sweep asks for new timing points of it. The
//! worker reports the *fresh* emulation count of every job so the
//! coordinator can account service-wide emulation work (the "second
//! identical sweep re-emulates nothing" observable).
//!
//! Hostility knobs ([`WorkerOptions::die_after`],
//! [`WorkerOptions::panic_on`]) exist for the crash-recovery tests: they
//! make a worker drop its connection mid-job or panic deterministically on
//! a chosen kernel, which the coordinator must survive without the merged
//! sweep output changing by a single bit.

use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

use crate::messages::{read_msg, write_msg, Msg, PROTOCOL_VERSION};
use crate::spec::{PointRow, PointRunner, PointSpec, DEFAULT_WORKER_JOB_TIMEOUT};
use uve_bench::panic_message;
use uve_core::{deadline, ExecMode};

/// Configuration for one worker process (or in-process worker thread).
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Name reported in the hello (shows up in coordinator logs).
    pub name: String,
    /// Replace every job's functional execution strategy at run time.
    /// Safe by the PR-7 contract — translated execution is bit-identical
    /// to interpretation — and *only* applied to emulation: the reply
    /// row still carries the job's own point, so merged outputs are
    /// unchanged. Lets a fleet run translated for speed while clients
    /// sweep the default interpreter axis.
    pub exec_override: Option<ExecMode>,
    /// Hostility: drop the connection (without replying) upon receiving
    /// the N-th job, 1-based. Simulates a worker killed mid-job.
    pub die_after: Option<u64>,
    /// Hostility: panic inside the isolated job body whenever the job's
    /// kernel name matches (case-insensitive). Simulates a poisoned job.
    pub panic_on: Option<String>,
    /// Cooperative per-job wall-clock budget.
    pub job_timeout: Duration,
    /// How often to send [`Msg::Heartbeat`] while a job runs, so the
    /// coordinator can tell this worker apart from a dead one without
    /// waiting out the job budget. Must be comfortably under the
    /// coordinator's `heartbeat_deadline`.
    pub heartbeat: Duration,
    /// Suppress per-job logging to stderr.
    pub quiet: bool,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        Self {
            name: "worker".to_string(),
            exec_override: None,
            die_after: None,
            panic_on: None,
            job_timeout: DEFAULT_WORKER_JOB_TIMEOUT,
            heartbeat: Duration::from_secs(2),
            quiet: true,
        }
    }
}

/// Runs one job under `catch_unwind` + a cooperative deadline, exactly the
/// isolation the PR-4 pool applies, and restamps the reply row with the
/// job's own point (undoing any [`WorkerOptions::exec_override`] applied
/// to the emulation).
fn run_isolated_point(
    runner: &mut PointRunner,
    point: &PointSpec,
    opts: &WorkerOptions,
) -> Result<PointRow, String> {
    let mut exec_point = point.clone();
    if let Some(exec) = opts.exec_override {
        exec_point.exec = exec;
    }
    let caught = catch_unwind(AssertUnwindSafe(|| {
        deadline::arm(Some(opts.job_timeout));
        if let Some(poison) = &opts.panic_on {
            assert!(
                !point.kernel.eq_ignore_ascii_case(poison),
                "poisoned job: {}",
                point.kernel
            );
        }
        let row = runner.run(&exec_point);
        deadline::disarm();
        row
    }));
    deadline::disarm();
    let row = match caught {
        Ok(inner) => inner?,
        Err(payload) => return Err(panic_message(payload)),
    };
    Ok(PointRow {
        point: point.clone(),
        ..row
    })
}

/// Runs one job on a scoped thread while the connection thread streams
/// [`Msg::Heartbeat`] frames every [`WorkerOptions::heartbeat`], so a
/// long job and a dead worker look different to the coordinator. The
/// outer `Err` is a connection failure (heartbeat unwritable — the
/// worker's exit message); the inner `Result` is the job's own outcome.
fn run_with_heartbeats(
    stream: &mut TcpStream,
    runner: &mut PointRunner,
    job: u64,
    point: &PointSpec,
    opts: &WorkerOptions,
) -> Result<Result<PointRow, String>, String> {
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        s.spawn(move || {
            // A send failure means the connection thread bailed; the
            // result is moot either way.
            let _ = tx.send(run_isolated_point(runner, point, opts));
        });
        loop {
            match rx.recv_timeout(opts.heartbeat) {
                Ok(outcome) => return Ok(outcome),
                Err(RecvTimeoutError::Timeout) => {
                    write_msg(stream, &Msg::Heartbeat { job })
                        .map_err(|e| format!("heartbeat: {e}"))?;
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Ok(Err("job thread exited without a result".to_string()));
                }
            }
        }
    })
}

/// Connects to the coordinator at `addr` and serves jobs until the
/// coordinator sends [`Msg::Shutdown`] or the connection closes.
///
/// # Errors
///
/// Returns connection and protocol failures as strings (the binary's exit
/// message).
pub fn run_worker(addr: &str, opts: &WorkerOptions) -> Result<(), String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("connect to coordinator {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    write_msg(
        &mut stream,
        &Msg::WorkerHello {
            version: PROTOCOL_VERSION,
            name: opts.name.clone(),
        },
    )
    .map_err(|e| format!("hello: {e}"))?;
    let mut runner = PointRunner::default();
    let mut jobs_seen = 0u64;
    loop {
        let msg = match read_msg(&mut stream) {
            Ok(Some(m)) => m,
            Ok(None) => return Ok(()), // coordinator hung up
            Err(e) => return Err(format!("read: {e}")),
        };
        match msg {
            Msg::RunJob { job, point } => {
                jobs_seen += 1;
                if opts.die_after.is_some_and(|n| jobs_seen >= n) {
                    if !opts.quiet {
                        eprintln!("[{}] dying on job {job:016x}", opts.name);
                    }
                    // Drop the connection with the job unanswered — from
                    // the coordinator's side this is a worker death.
                    return Ok(());
                }
                let before = runner.emulations();
                let reply = match run_with_heartbeats(&mut stream, &mut runner, job, &point, opts)?
                {
                    Ok(row) => Msg::JobOk {
                        job,
                        row,
                        emulations: (runner.emulations() - before) as u32,
                    },
                    Err(message) => {
                        if !opts.quiet {
                            eprintln!("[{}] job {job:016x} failed: {message}", opts.name);
                        }
                        Msg::JobErr { job, message }
                    }
                };
                write_msg(&mut stream, &reply).map_err(|e| format!("reply: {e}"))?;
            }
            Msg::Ping => {
                write_msg(&mut stream, &Msg::Pong).map_err(|e| format!("pong: {e}"))?;
            }
            Msg::Shutdown => return Ok(()),
            other => return Err(format!("unexpected message from coordinator: {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;
    use uve_core::IndirectPacking;
    use uve_isa::MemLevel;
    use uve_kernels::Flavor;

    fn point(kernel: &str) -> PointSpec {
        PointSpec {
            small: true,
            kernel: kernel.to_string(),
            flavor: Flavor::Uve,
            level: MemLevel::L2,
            packing: IndirectPacking::Packed,
            exec: ExecMode::Interpret,
            fault_seed: 0,
            cores: 1,
            vec_prf: 0,
            fifo_depth: 0,
        }
    }

    #[test]
    fn poisoned_job_is_caught_not_fatal() {
        let mut runner = PointRunner::default();
        let opts = WorkerOptions {
            panic_on: Some("saxpy".to_string()),
            ..WorkerOptions::default()
        };
        let err = run_isolated_point(&mut runner, &point("SAXPY"), &opts).unwrap_err();
        assert!(err.contains("poisoned job"), "{err}");
        // Other kernels are unaffected, and the worker runner survives.
        let ok = run_isolated_point(&mut runner, &point("memcpy"), &opts).unwrap();
        assert!(ok.cycles > 0);
    }

    #[test]
    fn exec_override_changes_nothing_visible() {
        let mut runner = PointRunner::default();
        let p = SweepSpec::small_default().points().unwrap().remove(0);
        let plain = run_isolated_point(&mut runner, &p, &WorkerOptions::default()).unwrap();
        let translated = run_isolated_point(
            &mut runner,
            &p,
            &WorkerOptions {
                exec_override: Some(ExecMode::Translated),
                ..WorkerOptions::default()
            },
        )
        .unwrap();
        assert_eq!(plain, translated, "override is invisible in results");
    }
}
