//! Distributed sweep service for the UVE evaluation.
//!
//! A persistent **coordinator** accepts sweep requests — kernel × flavor ×
//! vector-length × cores × fault-seed grids over the same `Runner`/`Job`
//! machinery the `figures` binary uses — shards the grid across **worker**
//! processes over a length-prefixed TCP protocol ([`messages`]), streams
//! progress back to clients, and memoizes finished rows in a
//! content-addressed [`ResultCache`] keyed by the full job identity
//! ([`spec::job_key`]): functional knobs, timing configuration and
//! [`IndirectPacking`](uve_core::IndirectPacking).
//!
//! The headline invariant, enforced end-to-end by the `sweep_service`
//! integration tests and the `sweep` conformance engine: **a sweep's merged
//! output is bit-identical to a serial in-process run**
//! ([`spec::run_serial`]) regardless of worker count, request interleaving,
//! cache hits, or workers dying mid-sweep. Workers run jobs under the
//! evaluation runner's isolation helper ([`uve_bench::isolated`]: panic
//! isolation plus a cooperative deadline), the coordinator requeues jobs
//! lost to worker death or timeout with bounded retries, and a repeated
//! identical sweep performs **zero** new functional emulations —
//! observable through the `emulations` counter carried in
//! [`SweepStats`](spec::SweepStats).
//!
//! Each worker keeps one functional trace resident: its
//! [`Runner`](uve_bench::Runner)'s trace cache holds the trace last looked
//! up, with the timing results computed from it. Canonical order puts a
//! functional point's timing variants back to back, so they share one
//! emulation, and the next functional point drops the trace before
//! emulating its own. Flavours that run one program at lengths it never
//! reads (the scalar-fallback SVE and NEON points) are one functional
//! point, so a row of one replays nothing another has already run. Worker memory stays at one trace
//! however long the service runs; a later sweep that asks for new timing
//! points of an already-finished functional point emulates it again.
//!
//! The service is additionally **crash-safe** (PR 9): the cache can run
//! durably over a checksummed write-ahead log with checkpoint snapshots
//! ([`wal`], [`cache`]) so a `kill -9`'d coordinator restarted from the
//! same `--cache-dir` replays finished rows instead of re-executing them;
//! job keys are build-stable FNV-1a fingerprints
//! ([`uve_core::program_fingerprint`]) so that durability means something
//! across binaries; workers stream [`Msg::Heartbeat`] during long jobs so
//! the coordinator distinguishes slow from dead; and clients can ride out
//! coordinator restarts with [`request_sweep_resilient`] (capped,
//! jittered exponential backoff plus idempotent resubmission).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
pub mod coordinator;
pub mod messages;
pub mod spec;
mod sync;
pub mod wal;
pub mod worker;

pub use cache::{PersistError, RecoveryReport, ResultCache};
pub use client::{
    ping, request_sweep, request_sweep_resilient, shutdown, ReconnectPolicy, SweepFailure,
    SweepOutcome,
};
pub use coordinator::{Coordinator, CoordinatorOptions};
pub use messages::{read_msg, write_msg, Msg, WireError, PROTOCOL_VERSION};
pub use spec::{
    catalog, job_key, render_rows, resolve, rows_digest, run_point, run_serial, Assembly, PointRow,
    PointSpec, SweepSpec, SweepStats, MODEL_EPOCH,
};
pub use worker::{run_worker, WorkerOptions};
