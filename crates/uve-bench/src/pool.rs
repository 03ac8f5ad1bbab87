//! A deterministic scoped worker pool, factored out of the evaluation
//! [`Runner`](crate::Runner) so other harnesses (the `uve-conform`
//! differential fuzzer) can share it.
//!
//! The contract is the one the runner's figure pipeline relies on: work is
//! identified by its submission index, workers pull indices from a shared
//! queue, and results are written back *by index* — so a parallel run
//! returns the same `Vec<T>`, in the same order with bit-identical
//! contents, as a serial one. Scheduling affects only wall-clock time.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Duration;

use crate::runner::RunMode;
use uve_core::deadline;

/// Runs `f(i)` for every `i in 0..n` under `mode` and returns the results
/// in index order, independent of worker scheduling.
///
/// `RunMode::Serial` evaluates inline on the calling thread;
/// `RunMode::Parallel(w)` uses a scoped pool of `min(w, n)` threads.
pub fn run_indexed<T, F>(mode: RunMode, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    match mode {
        RunMode::Serial => (0..n).map(f).collect(),
        RunMode::Parallel(workers) => {
            let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
            let queue: Mutex<VecDeque<usize>> = Mutex::new((0..n).collect());
            let pop = || queue.lock().expect("job queue poisoned").pop_front();
            let worker = || {
                while let Some(i) = pop() {
                    *results[i].lock().expect("result slot poisoned") = Some(f(i));
                }
            };
            std::thread::scope(|s| {
                for _ in 0..workers.min(n) {
                    s.spawn(worker);
                }
            });
            results
                .into_iter()
                .map(|slot| {
                    slot.into_inner()
                        .expect("result slot poisoned")
                        .expect("worker completed every item")
                })
                .collect()
        }
    }
}

/// Like [`run_indexed`], but each item runs [`isolated`] under `timeout`:
/// a panicking or timed-out item yields `Err(message)` in its slot while
/// every other item still completes. This is the one crash-isolation path
/// of the sweep harness — one poisoned job must not take down the whole
/// figure.
pub fn run_isolated<T, F>(
    mode: RunMode,
    n: usize,
    timeout: Option<Duration>,
    f: F,
) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed(mode, n, |i| isolated(timeout, || f(i)))
}

/// Runs `f` on this thread under a cooperative deadline of `timeout`
/// ([`uve_core::deadline`]) and `catch_unwind`; a panic, including an
/// expired deadline, comes back as `Err(message)`. The deadline is
/// disarmed on return either way.
pub fn isolated<T>(timeout: Option<Duration>, f: impl FnOnce() -> T) -> Result<T, String> {
    deadline::arm(timeout);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    deadline::disarm();
    outcome.map_err(panic_message)
}

/// Renders a caught panic payload as a human-readable message.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_results_match_serial_in_order() {
        let f = |i: usize| (i * i) as u64;
        let serial = run_indexed(RunMode::Serial, 100, f);
        let parallel = run_indexed(RunMode::Parallel(8), 100, f);
        assert_eq!(serial, parallel);
        assert_eq!(serial[7], 49);
    }

    #[test]
    fn panicking_item_is_isolated() {
        for mode in [RunMode::Serial, RunMode::Parallel(4)] {
            let out = run_isolated(mode, 8, None, |i| {
                assert!(i != 3, "boom on {i}");
                i * 10
            });
            for (i, slot) in out.iter().enumerate() {
                if i == 3 {
                    let msg = slot.as_ref().unwrap_err();
                    assert!(msg.contains("boom on 3"), "{msg}");
                } else {
                    assert_eq!(*slot, Ok(i * 10));
                }
            }
        }
    }

    #[test]
    fn zero_items_is_fine() {
        let out: Vec<u64> = run_indexed(RunMode::Parallel(4), 0, |_| unreachable!());
        assert!(out.is_empty());
    }
}
