//! Deterministic-order parallel map over `std::thread` — the workspace's
//! rayon stand-in (the build environment has no crates.io access; see
//! `shims/README.md`).
//!
//! [`par_map`] fans a work list out over a small thread pool and returns
//! results **in input order**, so callers that fill reports or grids from
//! the result vector are bit-identical to a serial run. Each job must be
//! independent (the closure gets the item by value and shares only `Sync`
//! state), which every simulator invocation in this workspace satisfies:
//! a `SimReport` depends only on its `(model, workload, hw)` inputs.
//!
//! Thread count:
//! * `SGCN_THREADS=1` → serial execution,
//! * `SGCN_THREADS=n` → exactly `n` workers,
//! * otherwise `std::thread::available_parallelism()`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod memo;

pub use memo::BoundedMemo;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker-thread count the environment requests (≥ 1).
pub fn threads() -> usize {
    match std::env::var("SGCN_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Applies `f` to every item, in parallel, returning results in input
/// order. Falls back to a plain serial map when one worker (or one item)
/// suffices, so the serial and parallel paths produce identical vectors.
///
/// # Panics
///
/// Panics if any job panics (the panic is propagated).
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_with(items, f, threads())
}

/// [`par_map`] with an explicit worker count (also the testing seam —
/// tests must not mutate the process environment to force parallelism).
pub fn par_map_with<T, R, F>(items: Vec<T>, f: F, workers: usize) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Work-stealing by index: each worker pulls the next unclaimed job.
    // Jobs are wrapped in Option so a worker can take ownership without
    // unsafe shared-slice writes; results carry their index and are
    // reassembled in order afterwards.
    let jobs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let n = jobs.len();
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(n);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return local;
                    }
                    let item = jobs[i]
                        .lock()
                        .expect("job mutex poisoned")
                        .take()
                        .expect("job claimed twice");
                    local.push((i, f(item)));
                }
            }));
        }
        for h in handles {
            match h.join() {
                Ok(local) => indexed.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    indexed.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(indexed.len(), n);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = par_map((0..1000).collect::<Vec<i64>>(), |x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<i64>>());
    }

    #[test]
    fn matches_serial_with_shared_state() {
        let base: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = base.iter().map(|&x| x.wrapping_mul(x) ^ 0xABCD).collect();
        let parallel = par_map(base.clone(), |x| x.wrapping_mul(x) ^ 0xABCD);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(par_map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(par_map(vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn propagates_panics() {
        // Force the parallel path even on single-core machines (explicit
        // worker count — mutating the environment would race sibling
        // tests).
        let _ = par_map_with(
            (0..64).collect::<Vec<u32>>(),
            |x| {
                if x == 33 {
                    panic!("boom");
                }
                x
            },
            2,
        );
    }

    #[test]
    fn explicit_workers_preserve_order() {
        let out = par_map_with((0..500).collect::<Vec<u64>>(), |x| x * 3, 4);
        assert_eq!(out, (0..500).map(|x| x * 3).collect::<Vec<u64>>());
    }
}
