//! End-to-end tests of the distributed sweep service (`uve-sweep`).
//!
//! Everything here runs in-process — a real [`Coordinator`] on a loopback
//! ephemeral port, real worker threads speaking the real wire protocol —
//! and everything is held to the service's headline invariant: the merged
//! output of any sweep is **bit-identical** to a serial in-process run of
//! the same grid, regardless of worker count, request interleaving,
//! content-cache hits, or workers dying mid-sweep.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use uve_kernels::Flavor;
use uve_sweep::spec::fnv1a_bytes;
use uve_sweep::wal::{encode_record, header, SNAP_MAGIC, WAL_MAGIC};
use uve_sweep::{
    job_key, render_rows, request_sweep, request_sweep_resilient, run_serial, Coordinator,
    CoordinatorOptions, PointRow, ReconnectPolicy, SweepOutcome, SweepSpec, WorkerOptions,
};

/// Spawns `n` healthy in-process workers against `addr`.
fn spawn_workers(addr: &str, n: usize) -> Vec<thread::JoinHandle<()>> {
    (0..n)
        .map(|i| {
            let addr = addr.to_string();
            let opts = WorkerOptions {
                name: format!("w{i}"),
                ..WorkerOptions::default()
            };
            thread::spawn(move || {
                uve_sweep::run_worker(&addr, &opts).expect("worker exits cleanly");
            })
        })
        .collect()
}

fn small_grid(kernels: &[&str]) -> SweepSpec {
    SweepSpec {
        small: true,
        kernels: kernels.iter().map(|k| (*k).to_string()).collect(),
        flavors: vec![Flavor::Uve, Flavor::Scalar],
        ..SweepSpec::default()
    }
}

fn sweep(addr: &str, spec: &SweepSpec) -> SweepOutcome {
    request_sweep(addr, spec, |_, _, _| {}).expect("sweep completes")
}

/// Polls `cond` until it holds, failing the test after 60 s.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while !cond() {
        assert!(std::time::Instant::now() < deadline, "timed out: {what}");
        thread::sleep(Duration::from_millis(5));
    }
}

/// Per-sweep accounting must partition the grid: every point is either
/// cache-filled, joined onto an in-flight job, or newly executed.
fn assert_partition(o: &SweepOutcome) {
    assert_eq!(
        o.stats.cached + o.stats.joined + o.stats.executed,
        o.stats.total,
        "cached/joined/executed must partition the grid: {:?}",
        o.stats
    );
}

#[test]
fn overlapping_concurrent_sweeps_match_serial_and_repeat_is_free() {
    let coordinator = Coordinator::bind("127.0.0.1:0", CoordinatorOptions::default()).unwrap();
    let addr = coordinator.local_addr().to_string();
    let workers = spawn_workers(&addr, 3);

    // Two overlapping grids (both contain SAXPY and Memcpy in both
    // flavors) raced from two client threads.
    let spec_a = small_grid(&["saxpy", "memcpy", "gemm"]);
    let spec_b = small_grid(&["memcpy", "saxpy", "mvt"]);
    let (out_a, out_b) = thread::scope(|s| {
        let a = s.spawn(|| sweep(&addr, &spec_a));
        let b = s.spawn(|| sweep(&addr, &spec_b));
        (a.join().unwrap(), b.join().unwrap())
    });

    let (serial_a, _) = run_serial(&spec_a).unwrap();
    let (serial_b, _) = run_serial(&spec_b).unwrap();
    assert_eq!(out_a.rows, serial_a, "sweep A bit-identical to serial");
    assert_eq!(out_b.rows, serial_b, "sweep B bit-identical to serial");
    assert_partition(&out_a);
    assert_partition(&out_b);

    // The overlap must not have been emulated twice: the union of both
    // grids is 4 distinct kernels x 2 flavors = 8 jobs, and the
    // service-wide fresh-emulation counter says exactly that — the 4
    // shared points were cached or joined, never re-run.
    let after_first = coordinator.emulations();
    assert_eq!(after_first, 8, "shared points emulated exactly once");

    // A repeated identical sweep is served entirely from the result
    // cache: all points cached, nothing executed, zero new emulations.
    let out_a2 = sweep(&addr, &spec_a);
    assert_eq!(out_a2.rows, serial_a, "warm replay bit-identical");
    assert_eq!(out_a2.stats.cached, out_a2.stats.total, "fully cached");
    assert_eq!(out_a2.stats.executed, 0);
    assert_eq!(
        out_a2.stats.emulations, after_first,
        "second identical sweep re-emulates nothing"
    );
    assert_eq!(coordinator.emulations(), after_first);

    coordinator.shutdown();
    for w in workers {
        w.join().unwrap();
    }
}

#[test]
fn worker_death_and_poisoned_job_recover_bit_identically() {
    let coordinator = Coordinator::bind(
        "127.0.0.1:0",
        CoordinatorOptions {
            max_attempts: 5,
            ..CoordinatorOptions::default()
        },
    )
    .unwrap();
    let addr = coordinator.local_addr().to_string();

    // Worker "dier" drops its connection on its second job without
    // replying (a kill mid-sweep); worker "poisoned" panics on every
    // SAXPY job. They are the only fleet when the sweep starts, which
    // guarantees the dier actually receives jobs; "healthy" joins after
    // the kill is observed and picks up all the pieces.
    let hostile_worker = |opts: WorkerOptions| {
        let addr = addr.to_string();
        // Hostile workers may exit with an error (their connection dies
        // by design); that must never affect the sweep.
        thread::spawn(move || {
            let _ = uve_sweep::run_worker(&addr, &opts);
        })
    };
    let mut workers = vec![
        hostile_worker(WorkerOptions {
            name: "dier".to_string(),
            die_after: Some(2),
            ..WorkerOptions::default()
        }),
        hostile_worker(WorkerOptions {
            name: "poisoned".to_string(),
            panic_on: Some("saxpy".to_string()),
            ..WorkerOptions::default()
        }),
    ];
    wait_until("hostile fleet connects", || {
        coordinator.workers_connected() >= 2
    });

    let spec = small_grid(&["saxpy", "memcpy", "gemm", "mvt"]);
    let out = thread::scope(|s| {
        let sweeper = s.spawn(|| sweep(&addr, &spec));
        // 8 jobs over a 2-worker fleet: the dier's serving loop must hand
        // it a second job, which it drops the connection on.
        wait_until("worker death detected", || coordinator.worker_deaths() >= 1);
        workers.push(hostile_worker(WorkerOptions {
            name: "healthy".to_string(),
            ..WorkerOptions::default()
        }));
        sweeper.join().unwrap()
    });
    let (serial, _) = run_serial(&spec).unwrap();
    assert_eq!(
        out.rows, serial,
        "sweep over dying and panicking workers is bit-identical to serial"
    );
    assert_partition(&out);

    // The dier really died: the coordinator saw it and requeued; the
    // poisoned worker's panics were reported as job errors and retried.
    assert!(
        out.stats.worker_deaths >= 1,
        "worker death must be detected: {:?}",
        out.stats
    );
    assert!(
        out.stats.retries >= 1,
        "lost/poisoned jobs must be requeued: {:?}",
        out.stats
    );
    assert_eq!(coordinator.worker_deaths(), out.stats.worker_deaths);

    coordinator.shutdown();
    for w in workers {
        w.join().unwrap();
    }
}

#[test]
fn multicore_and_faulted_points_sweep_bit_identically() {
    let coordinator = Coordinator::bind("127.0.0.1:0", CoordinatorOptions::default()).unwrap();
    let addr = coordinator.local_addr().to_string();
    let workers = spawn_workers(&addr, 3);

    // Exercise the cores and fault-seed axes through the service.
    let spec = SweepSpec {
        small: true,
        kernels: vec!["memcpy".to_string(), "saxpy".to_string()],
        cores: vec![1, 2],
        fault_seeds: vec![0, 7],
        ..SweepSpec::default()
    };
    let out = sweep(&addr, &spec);
    let (serial, _) = run_serial(&spec).unwrap();
    assert_eq!(out.rows, serial, "cores x fault-seed grid matches serial");
    assert_eq!(out.rows.len(), 8);
    // Every (kernel, cores, fault_seed) cell is present exactly once in
    // canonical order — faulted and multicore points are first-class grid
    // axes, not separate code paths.
    for clean in out.rows.iter().filter(|r| r.point.fault_seed == 0) {
        assert_eq!(
            out.rows
                .iter()
                .filter(|r| {
                    r.point.fault_seed == 7
                        && r.point.kernel == clean.point.kernel
                        && r.point.cores == clean.point.cores
                })
                .count(),
            1,
            "matching faulted row for {} x{}",
            clean.point.kernel,
            clean.point.cores
        );
    }

    coordinator.shutdown();
    for w in workers {
        w.join().unwrap();
    }
}

#[test]
fn worker_reuses_and_replaces_its_one_resident_trace() {
    let coordinator = Coordinator::bind("127.0.0.1:0", CoordinatorOptions::default()).unwrap();
    let addr = coordinator.local_addr().to_string();
    let workers = spawn_workers(&addr, 1);

    // 6 functional points x 2 core counts = 12 jobs, dispatched to the
    // one worker in canonical order: each point's cores=1 and cores=2 jobs
    // are back to back, so the second replays the resident trace and the
    // next point replaces it.
    let spec = SweepSpec {
        cores: vec![1, 2],
        ..small_grid(&["memcpy", "saxpy", "gemm"])
    };
    let out = sweep(&addr, &spec);
    let (serial, serial_emulations) = run_serial(&spec).unwrap();
    assert_eq!(out.rows, serial, "rows bit-identical to serial");
    assert_eq!(out.rows.len(), 12);
    assert_eq!(out.stats.executed, 12);
    assert_eq!(
        coordinator.emulations(),
        6,
        "one emulation per functional point"
    );
    assert_eq!(serial_emulations, 6);

    coordinator.shutdown();
    for w in workers {
        w.join().unwrap();
    }
}

#[test]
fn sweep_of_unknown_kernel_is_a_clean_error() {
    let coordinator = Coordinator::bind("127.0.0.1:0", CoordinatorOptions::default()).unwrap();
    let addr = coordinator.local_addr().to_string();
    let err = request_sweep(
        &addr,
        &SweepSpec {
            kernels: vec!["definitely-not-a-kernel".to_string()],
            ..SweepSpec::default()
        },
        |_, _, _| {},
    )
    .unwrap_err();
    assert!(err.contains("unknown kernel"), "{err}");
    coordinator.shutdown();
}

#[test]
fn client_reconnects_across_a_coordinator_restart() {
    // A durable cache directory shared by both coordinator incarnations.
    let dir = std::env::temp_dir().join(format!("uve-sweep-reconnect-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = || CoordinatorOptions {
        cache_dir: Some(dir.clone()),
        ..CoordinatorOptions::default()
    };

    let coordinator_a = Coordinator::bind("127.0.0.1:0", opts()).unwrap();
    let addr = Arc::new(Mutex::new(coordinator_a.local_addr().to_string()));
    let workers_a = spawn_workers(&addr.lock().unwrap(), 2);

    let spec = small_grid(&["saxpy", "memcpy", "gemm", "mvt"]);
    let frames = Arc::new(AtomicU32::new(0));
    let outcome = thread::scope(|s| {
        let sweeper = {
            let addr = Arc::clone(&addr);
            let frames = Arc::clone(&frames);
            let spec = spec.clone();
            s.spawn(move || {
                request_sweep_resilient(
                    || addr.lock().unwrap().clone(),
                    &spec,
                    &ReconnectPolicy {
                        base_delay: Duration::from_millis(20),
                        max_delay: Duration::from_millis(200),
                        max_attempts: 20,
                        ..ReconnectPolicy::default()
                    },
                    |done, _, _| {
                        frames.fetch_max(done, Ordering::SeqCst);
                    },
                )
                .expect("resilient sweep completes across the restart")
            })
        };

        // Drop the coordinator mid-sweep, after it has finished (and
        // durably cached) at least two jobs but before the grid is done.
        wait_until("two jobs complete", || frames.load(Ordering::SeqCst) >= 2);
        coordinator_a.shutdown();
        for w in workers_a {
            let _ = w.join();
        }

        // Restart from the same cache directory on a fresh port. The
        // client is backing off; once the address points at the new
        // incarnation, its resubmission finds the finished rows on disk.
        let coordinator_b = Coordinator::bind("127.0.0.1:0", opts()).unwrap();
        assert!(
            coordinator_b.recovery().is_some_and(|r| r.rows() >= 2),
            "restarted coordinator recovered the finished rows: {:?}",
            coordinator_b.recovery()
        );
        let addr_b = coordinator_b.local_addr().to_string();
        let workers_b = spawn_workers(&addr_b, 2);
        *addr.lock().unwrap() = addr_b;

        let outcome = sweeper.join().unwrap();
        coordinator_b.shutdown();
        for w in workers_b {
            let _ = w.join();
        }
        outcome
    });

    // The resumed sweep is byte-identical to an uninterrupted run, and
    // the rows finished before the kill were served from the durable
    // cache, not re-executed.
    let (serial, _) = run_serial(&spec).unwrap();
    assert_eq!(
        render_rows(&outcome.rows),
        render_rows(&serial),
        "resumed sweep renders byte-identically to serial"
    );
    assert_partition(&outcome);
    assert!(
        outcome.stats.cached >= 2,
        "pre-restart rows must come from the durable cache: {:?}",
        outcome.stats
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cache record as an older build wrote it for a point run in its
/// translated mode: exec tag 1, framed with a valid checksum, so only the
/// payload decode can reject it.
fn exec_tag1_record(key: u64, row: &PointRow) -> Vec<u8> {
    let framed = encode_record(key, row);
    let mut payload = framed[4..framed.len() - 8].to_vec();
    // Job key, small flag, kernel string, then flavor, level and packing.
    let exec = 8 + 1 + 4 + row.point.kernel.len() + 3;
    assert_eq!(payload[exec], 0, "exec tag of the current build");
    payload[exec] = 1;
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&payload);
    out.extend_from_slice(&fnv1a_bytes(&payload).to_le_bytes());
    out
}

#[test]
fn rows_tagged_translated_by_older_builds_are_dropped_and_re_executed() {
    let dir = std::env::temp_dir().join(format!("uve-sweep-exec-tag-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let spec = small_grid(&["saxpy", "memcpy"]);
    let (serial, _) = run_serial(&spec).unwrap();
    let keyed: Vec<(u64, &PointRow)> = serial
        .iter()
        .map(|r| (job_key(&r.point).unwrap(), r))
        .collect();
    // The WAL and the snapshot each hold one current row and one tag-1
    // row, the latter under a key this sweep asks for: even a colliding
    // key must not serve it.
    let image = |magic: &[u8; 8], good: (u64, &PointRow), old: (u64, &PointRow)| {
        let mut bytes = header(magic).to_vec();
        bytes.extend(encode_record(good.0, good.1));
        bytes.extend(exec_tag1_record(old.0, old.1));
        bytes
    };
    std::fs::write(dir.join("wal.bin"), image(WAL_MAGIC, keyed[0], keyed[1])).unwrap();
    std::fs::write(
        dir.join("snapshot.bin"),
        image(SNAP_MAGIC, keyed[2], keyed[3]),
    )
    .unwrap();

    let opts = CoordinatorOptions {
        cache_dir: Some(dir.clone()),
        ..CoordinatorOptions::default()
    };
    let coordinator = Coordinator::bind("127.0.0.1:0", opts).unwrap();
    let rec = coordinator.recovery().unwrap().clone();
    assert_eq!(
        (rec.snapshot_rows, rec.wal_rows, rec.corrupt_records),
        (1, 1, 2),
        "{rec:?}"
    );
    let addr = coordinator.local_addr().to_string();
    let workers = spawn_workers(&addr, 1);
    let out = sweep(&addr, &spec);
    assert_eq!(out.rows, serial);
    assert_eq!(
        (out.stats.cached, out.stats.executed),
        (2, 2),
        "the two tag-1 rows re-execute: {:?}",
        out.stats
    );

    coordinator.shutdown();
    for w in workers {
        w.join().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn progress_is_streamed_and_monotonic() {
    let coordinator = Coordinator::bind("127.0.0.1:0", CoordinatorOptions::default()).unwrap();
    let addr = coordinator.local_addr().to_string();
    let workers = spawn_workers(&addr, 2);

    let spec = small_grid(&["saxpy", "memcpy"]);
    let mut frames = Vec::new();
    let out = request_sweep(&addr, &spec, |done, total, _| frames.push((done, total)))
        .expect("sweep completes");
    assert!(!frames.is_empty(), "at least one progress frame");
    assert!(
        frames.windows(2).all(|w| w[0].0 <= w[1].0),
        "progress is monotonic: {frames:?}"
    );
    assert_eq!(frames.last().unwrap().1 as usize, out.rows.len());

    coordinator.shutdown();
    for w in workers {
        w.join().unwrap();
    }
    // Give detached coordinator connection threads a beat to drain before
    // the next test binds a fresh port (not required for correctness).
    thread::sleep(Duration::from_millis(10));
}

#[test]
fn dsp_and_sparse_kernels_sweep_bit_identically() {
    // PR 10: the follow-on families are first-class catalog entries — a
    // grid mixing a DSP kernel with sparse gather kernels must merge
    // bit-identically to serial, resolve case-insensitively, and come
    // back under the catalog's canonical spelling.
    let coordinator = Coordinator::bind("127.0.0.1:0", CoordinatorOptions::default()).unwrap();
    let addr = coordinator.local_addr().to_string();
    let workers = spawn_workers(&addr, 2);

    let spec = small_grid(&["fir", "fft-stage", "spmv", "histogram"]);
    let out = sweep(&addr, &spec);
    let (serial, _) = run_serial(&spec).unwrap();
    assert_eq!(out.rows, serial, "dsp/sparse grid matches serial");
    assert_partition(&out);
    for name in ["FIR", "FFT-Stage", "SpMV", "Histogram"] {
        assert!(
            out.rows.iter().any(|r| r.point.kernel == name),
            "canonical name {name} missing from rows"
        );
    }

    coordinator.shutdown();
    for w in workers {
        w.join().unwrap();
    }
}
