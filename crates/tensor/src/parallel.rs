//! Minimal scoped-thread parallel helpers.
//!
//! The workspace runs on small CPU boxes; a full work-stealing pool is not
//! warranted. [`parallel_chunks_mut`] splits a mutable slice into per-thread
//! chunks processed with `std::thread::scope`, which is enough to keep
//! matmul, convolution and Monte-Carlo evaluation busy on all cores.
//!
//! # No nested fan-out
//!
//! Every thread these helpers spawn is marked as a parallel worker, and
//! on a marked thread [`num_threads()`] reads 1. A kernel called from
//! inside a worker (a GEMM inside a Monte-Carlo instance, say) therefore
//! runs inline instead of spawning threads of its own: the outer level
//! already keeps every core busy, and a second level would only
//! oversubscribe them. Kernel results never depend on the thread count,
//! so the mark changes speed, not numbers.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Set on every thread spawned by this module's helpers.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Returns the number of worker threads to use: 1 on a thread spawned by
/// this module's helpers (see the module docs), the configured count
/// everywhere else.
///
/// The configured count defaults to
/// `std::thread::available_parallelism()`, overridable with the
/// `CN_THREADS` environment variable (useful to force determinism-friendly
/// single-threaded runs in tests).
pub fn num_threads() -> usize {
    if IN_WORKER.get() {
        return 1;
    }
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    let cached = CACHED.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = std::env::var("CN_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    CACHED.store(n, Ordering::Relaxed);
    n
}

/// Runs `f` on a fresh worker thread of `scope`, marked so nested
/// kernels stay inline.
fn spawn_worker<'scope, T: Send + 'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    f: impl FnOnce() -> T + Send + 'scope,
) -> std::thread::ScopedJoinHandle<'scope, T> {
    scope.spawn(move || {
        IN_WORKER.set(true);
        f()
    })
}

/// Processes disjoint chunks of `data` in parallel.
///
/// `data` is split into contiguous chunks of at most `chunk_len` elements;
/// `f(chunk_index, chunk)` is invoked for each. At most
/// [`num_threads()`] worker threads are spawned, each pulling the next
/// unclaimed chunk from a shared iterator, so callers with many small
/// chunks never fan out beyond the worker cap. When only one thread is
/// available (or there is a single chunk) everything runs inline.
///
/// # Panics
///
/// Panics if `chunk_len` is zero.
pub fn parallel_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    let workers = num_threads().min(n_chunks);
    if workers <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let chunks = std::sync::Mutex::new(data.chunks_mut(chunk_len).enumerate());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let chunks = &chunks;
            let f = &f;
            spawn_worker(scope, move || loop {
                // Claim the next chunk under the lock, release it before
                // running `f` so workers overlap on the actual work.
                let next = chunks
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .next();
                match next {
                    Some((i, chunk)) => f(i, chunk),
                    None => break,
                }
            });
        }
    });
}

/// Runs `f(start, end)` over `[0, n)` split into roughly equal ranges, one
/// per worker thread. Use when the work does not borrow a single mutable
/// slice (e.g. producing independent results gathered via channels).
pub fn parallel_ranges(n: usize, f: impl Fn(usize, usize) + Sync) {
    let workers = num_threads().min(n.max(1));
    if workers <= 1 || n == 0 {
        f(0, n);
        return;
    }
    let per = n.div_ceil(workers);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let start = w * per;
            let end = ((w + 1) * per).min(n);
            if start >= end {
                break;
            }
            let f = &f;
            spawn_worker(scope, move || f(start, end));
        }
    });
}

/// Runs `f` once on each of `workers` marked worker threads and returns
/// the results in spawn order. Use when workers pull their own work
/// (e.g. from a shared atomic counter) and hand back per-worker results.
/// With `workers <= 1`, `f` runs once inline on the calling thread,
/// unmarked, so its kernels may still use every core.
///
/// A panic in any worker is re-raised on the calling thread after all
/// workers have finished.
pub fn parallel_workers<T: Send>(workers: usize, f: impl Fn() -> T + Sync) -> Vec<T> {
    if workers <= 1 {
        return vec![f()];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| spawn_worker(scope, &f)).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn num_threads_positive() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn chunks_cover_all_elements() {
        let mut v = vec![0u32; 103];
        parallel_chunks_mut(&mut v, 10, |_, chunk| {
            for x in chunk {
                *x += 1;
            }
        });
        assert!(v.iter().all(|&x| x == 1));
    }

    #[test]
    fn chunk_indices_are_distinct() {
        let mut v = vec![0usize; 40];
        parallel_chunks_mut(&mut v, 7, |i, chunk| {
            for x in chunk {
                *x = i;
            }
        });
        // chunk 0 covers [0,7), chunk 5 covers [35,40)
        assert_eq!(v[0], 0);
        assert_eq!(v[6], 0);
        assert_eq!(v[7], 1);
        assert_eq!(v[39], 5);
    }

    #[test]
    fn ranges_cover_exactly_once() {
        let counter = AtomicU32::new(0);
        parallel_ranges(1000, |s, e| {
            counter.fetch_add((e - s) as u32, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 1000);
    }

    #[test]
    fn ranges_zero_items() {
        let counter = AtomicU32::new(0);
        parallel_ranges(0, |s, e| {
            counter.fetch_add((e - s) as u32, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 0);
    }

    #[test]
    #[should_panic(expected = "chunk_len must be positive")]
    fn zero_chunk_len_panics() {
        let mut v = [0u8; 4];
        parallel_chunks_mut(&mut v, 0, |_, _| {});
    }

    #[test]
    fn spawned_workers_read_one_thread() {
        assert_eq!(parallel_workers(3, num_threads), vec![1, 1, 1]);
        // A single worker runs inline and unmarked.
        assert_eq!(parallel_workers(1, num_threads), vec![num_threads()]);
    }

    #[test]
    fn kernels_nested_in_workers_run_inline() {
        let outer = std::thread::current().id();
        let nested = parallel_workers(2, || {
            let me = std::thread::current().id();
            let mut v = vec![0u32; 64];
            let seen = std::sync::Mutex::new(Vec::new());
            parallel_chunks_mut(&mut v, 1, |_, _| {
                seen.lock().unwrap().push(std::thread::current().id())
            });
            parallel_ranges(64, |_, _| {
                seen.lock().unwrap().push(std::thread::current().id())
            });
            let seen = seen.into_inner().unwrap();
            (me, seen.iter().all(|&id| id == me))
        });
        for (id, inline) in nested {
            assert_ne!(id, outer, "parallel_workers(2) must spawn");
            assert!(inline, "a kernel inside a worker fanned out");
        }
    }

    #[test]
    fn chunk_and_range_workers_are_marked() {
        if num_threads() < 2 {
            return; // everything runs inline, nothing to mark
        }
        let mut v = vec![0usize; 2];
        parallel_chunks_mut(&mut v, 1, |_, c| c[0] = num_threads());
        assert_eq!(v, vec![1, 1]);
        let counts = std::sync::Mutex::new(Vec::new());
        parallel_ranges(2, |_, _| counts.lock().unwrap().push(num_threads()));
        assert_eq!(counts.into_inner().unwrap(), vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "worker 1 failed")]
    fn worker_panics_reach_the_caller() {
        let next = AtomicU32::new(0);
        parallel_workers(2, || {
            if next.fetch_add(1, std::sync::atomic::Ordering::Relaxed) == 1 {
                panic!("worker 1 failed");
            }
        });
    }

    /// Regression: chunk processing used to spawn one OS thread *per
    /// chunk*; with many small chunks that meant hundreds of threads. The
    /// worker pool must stay capped at [`num_threads()`].
    #[test]
    fn many_small_chunks_stay_within_worker_cap() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let mut v = vec![0u32; 512];
        let seen = Mutex::new(HashSet::new());
        parallel_chunks_mut(&mut v, 2, |_, chunk| {
            seen.lock().unwrap().insert(std::thread::current().id());
            for x in chunk {
                *x += 1;
            }
        });
        assert!(v.iter().all(|&x| x == 1));
        let distinct = seen.lock().unwrap().len();
        assert!(
            distinct <= num_threads(),
            "256 chunks ran on {distinct} threads, cap is {}",
            num_threads()
        );
    }
}
