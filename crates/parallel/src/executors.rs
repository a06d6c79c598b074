//! Scoped-thread executors, deterministic by construction.
//!
//! All splitting is into contiguous chunks in index order and all
//! per-chunk results are combined in chunk order, so every function here
//! returns bit-identical output for any thread count.
//!
//! # Panic propagation
//!
//! A worker closure that panics (a user metric, typically) does not
//! abort the process or surface as a secondary "worker panicked"
//! panic: every sibling worker is joined first, then the *original*
//! payload is re-raised on the calling thread via
//! [`std::panic::resume_unwind`]. Callers that isolate faults (e.g. a
//! serving tier wrapping queries in `catch_unwind`) therefore see the
//! real payload, once, with no worker thread still running.

use std::any::Any;
use std::ops::Range;
use std::thread;

/// Joins every handle in order, collecting results; if any worker
/// panicked, the first payload (in chunk order) is kept and re-raised
/// only after ALL handles are joined.
fn join_all<R>(handles: Vec<thread::ScopedJoinHandle<'_, R>>, out: &mut Vec<R>) {
    let mut payload: Option<Box<dyn Any + Send>> = None;
    for h in handles {
        match h.join() {
            Ok(r) => out.push(r),
            Err(p) => {
                let _ = payload.get_or_insert(p);
            }
        }
    }
    if let Some(p) = payload {
        std::panic::resume_unwind(p);
    }
}

/// Splits `0..n` into at most `parts` contiguous ranges of nearly equal
/// length (the first `n % parts` ranges get one extra element). Empty
/// ranges are never produced.
pub fn split_even(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        if len == 0 {
            break;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// How many workers are worth spawning for `n` items when each thread
/// should own at least `min_per_thread` of them. Callers that manage
/// their own per-worker state (e.g. pruning-counter reduction) combine
/// this with [`split_even`] + [`par_map_ranges`] to get the same
/// sequential-degradation behavior as [`par_map_range`].
pub fn worker_count(threads: usize, n: usize, min_per_thread: usize) -> usize {
    threads.max(1).min(n / min_per_thread.max(1)).max(1)
}

/// Splits `0..n` into at most `parts` contiguous ranges of roughly
/// equal **total weight** (`weight(i)` per index). Used where per-index
/// cost is skewed — e.g. upper-triangle adjacency rows (row `i` costs
/// `n - i - 1`).
pub fn split_weighted(
    n: usize,
    parts: usize,
    weight: impl Fn(usize) -> usize,
) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    if parts <= 1 {
        let mut all = Vec::new();
        if n > 0 {
            all.push(0..n);
        }
        return all;
    }
    let total: usize = (0..n).map(&weight).sum();
    let target = total / parts + 1;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    let mut acc = 0usize;
    for i in 0..n {
        acc += weight(i);
        if acc >= target && out.len() + 1 < parts {
            out.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < n {
        out.push(start..n);
    }
    out
}

/// Runs one task per given range on its own scoped thread, returning
/// results in range order. Ranges typically come from [`split_even`] or
/// [`split_weighted`].
pub fn par_map_ranges<R, F>(ranges: Vec<Range<usize>>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    if ranges.len() <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    let mut out: Vec<R> = Vec::with_capacity(ranges.len());
    thread::scope(|s| {
        let handles: Vec<_> = ranges.into_iter().map(|r| s.spawn(|| f(r))).collect();
        join_all(handles, &mut out);
    });
    out
}

/// Order-preserving parallel map over `0..n`: the result at position
/// `i` is `f(i)`, exactly as the sequential `(0..n).map(f).collect()`.
pub fn par_map_range<R, F>(n: usize, threads: usize, min_per_thread: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let t = worker_count(threads, n, min_per_thread);
    if t <= 1 {
        return (0..n).map(f).collect();
    }
    let ranges = split_even(n, t);
    let mut chunks: Vec<Vec<R>> = Vec::with_capacity(ranges.len());
    thread::scope(|s| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|r| s.spawn(|| r.map(&f).collect::<Vec<R>>()))
            .collect();
        join_all(handles, &mut chunks);
    });
    let mut out = Vec::with_capacity(n);
    for c in chunks {
        out.extend(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_even_covers_exactly() {
        for n in [0usize, 1, 7, 100, 101] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = split_even(n, parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, n);
                assert!(ranges.len() <= parts.max(1));
            }
        }
    }

    #[test]
    fn map_range_matches_sequential_for_any_thread_count() {
        let n = 10_000;
        let seq: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(31)).collect();
        for threads in [1usize, 2, 3, 8] {
            let par = par_map_range(n, threads, 1, |i| (i as u64).wrapping_mul(31));
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn weighted_split_covers_and_balances() {
        // triangle weights: row i costs n - 1 - i
        let n = 1000;
        let ranges = split_weighted(n, 4, |i| n - 1 - i);
        let mut next = 0;
        for r in &ranges {
            assert_eq!(r.start, next);
            next = r.end;
        }
        assert_eq!(next, n);
        let weights: Vec<usize> = ranges
            .iter()
            .map(|r| r.clone().map(|i| n - 1 - i).sum())
            .collect();
        let total: usize = weights.iter().sum();
        for w in &weights {
            assert!(*w >= total / 16, "a chunk got starved: {weights:?}");
        }
        assert!(split_weighted(0, 4, |_| 1).is_empty());

        let out = par_map_ranges(ranges, |r| r.len());
        assert_eq!(out.iter().sum::<usize>(), n);
    }

    #[test]
    fn worker_panic_resurfaces_with_its_payload_after_all_join() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicUsize, Ordering};
        let finished = AtomicUsize::new(0);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            par_map_range(8, 8, 1, |i| {
                if i == 3 {
                    panic!("metric exploded on {i}");
                }
                finished.fetch_add(1, Ordering::SeqCst);
                i
            })
        }))
        .unwrap_err();
        // The original payload, not a secondary join().expect message.
        let msg = payload.downcast_ref::<String>().expect("String payload");
        assert!(msg.contains("metric exploded on 3"), "got: {msg}");
        // Every sibling worker ran to completion before the re-raise.
        assert_eq!(finished.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn small_inputs_stay_sequential() {
        // must not panic / spawn for tiny inputs
        let out = par_map_range(3, 64, 4096, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }
}
