//! Deterministic scoped worker pool for embarrassingly parallel
//! measurement campaigns.
//!
//! The paper's protocol fans naturally: 50 (plaintext, key) pairs × 10
//! sweep repetitions for the delay fingerprint, ×1000 averaged EM traces
//! per acquisition, and whole die populations for the inter-die studies.
//! This crate provides the one primitive the measurement engine needs —
//! an order-preserving `parallel_map` built on [`std::thread::scope`] —
//! with a hard guarantee: **the output is a pure function of the input**,
//! bit-identical for every worker count (including 1). Parallelism only
//! changes *when* each item runs, never *what* it computes or where its
//! result lands, so campaign results cannot drift with core count.
//!
//! Scheduling is a shared [`AtomicUsize`] index dispenser: workers pull
//! the next unclaimed item, compute `f(index, item)`, and stash the
//! result at `index` in their local batch. After the scope joins, batches
//! are merged by index into a single `Vec` in input order. A worker panic
//! propagates out of [`parallel_map`] after the scope unwinds, like the
//! panic of a plain serial loop.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a requested worker count to an actual one.
///
/// `0` means "auto": the `HTD_WORKERS` environment variable if set to a
/// positive integer, otherwise [`std::thread::available_parallelism`].
/// Any explicit positive request is honoured as-is (it may exceed the
/// core count; determinism makes oversubscription harmless).
pub fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var("HTD_WORKERS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item of `items`, returning results in input
/// order, using up to `workers` threads (`0` = auto, see
/// [`resolve_workers`]).
///
/// `f` receives `(index, &item)` so callers can derive per-item seeds
/// from the stable index. Output is bit-identical for every worker
/// count.
pub fn parallel_map<'s, T, U, F>(workers: usize, items: &'s [T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &'s T) -> U + Sync,
{
    parallel_map_indexed(workers, items.len(), |i| f(i, &items[i]))
}

/// How one fan's items were distributed over pool slots.
///
/// The *shape* (`workers`, `per_worker.len()`, the sum of `per_worker`)
/// is deterministic, but which slot claimed which item is pure
/// scheduling — treat the per-slot counts as observational data for
/// occupancy dashboards, never as campaign results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// The resolved worker count this fan ran with.
    pub workers: usize,
    /// Items completed by each worker slot (sums to the fan's `n`).
    pub per_worker: Vec<u64>,
}

/// Applies `f` to every index in `0..n`, returning results in index
/// order, using up to `workers` threads (`0` = auto).
///
/// The index-only form of [`parallel_map`], for callers that fan over a
/// cartesian product (e.g. pair × repetition) without materialising it.
pub fn parallel_map_indexed<U, F>(workers: usize, n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    parallel_map_indexed_stats(workers, n, f).0
}

/// [`parallel_map_indexed`] that also reports how the fan was scheduled.
///
/// The result `Vec` is bit-identical to the plain form; the extra
/// [`PoolStats`] is observational (see its docs).
pub fn parallel_map_indexed_stats<U, F>(workers: usize, n: usize, f: F) -> (Vec<U>, PoolStats)
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let workers = resolve_workers(workers).min(n.max(1));
    if workers <= 1 || n <= 1 {
        let out: Vec<U> = (0..n).map(f).collect();
        let stats = PoolStats {
            workers: 1,
            per_worker: vec![n as u64],
        };
        return (out, stats);
    }

    let next = AtomicUsize::new(0);
    let mut batches: Vec<Vec<(usize, U)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(batch) => batch,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    let per_worker: Vec<u64> = batches.iter().map(|b| b.len() as u64).collect();

    // Merge the batches back into input order. Every index appears
    // exactly once across all batches.
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    for batch in &mut batches {
        for (i, value) in batch.drain(..) {
            debug_assert!(out[i].is_none(), "index {i} produced twice");
            out[i] = Some(value);
        }
    }
    let out = out
        .into_iter()
        .map(|slot| slot.expect("every index produced exactly once"))
        .collect();
    (
        out,
        PoolStats {
            workers,
            per_worker,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = parallel_map(7, &items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3 + 1
        });
        let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn identical_across_worker_counts() {
        let items: Vec<u64> = (0..257).collect();
        let reference = parallel_map(1, &items, |i, &x| x.wrapping_mul(i as u64 + 1));
        for workers in [2, 3, 4, 8, 16] {
            let got = parallel_map(workers, &items, |i, &x| x.wrapping_mul(i as u64 + 1));
            assert_eq!(got, reference, "workers = {workers}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(4, &[42u32], |_, &x| x + 1), vec![43]);
    }

    #[test]
    fn indexed_form_covers_all_indices() {
        let out = parallel_map_indexed(5, 100, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i * i);
        }
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = parallel_map_indexed(64, 3, |i| i + 10);
        assert_eq!(out, vec![10, 11, 12]);
    }

    #[test]
    fn explicit_worker_request_is_honoured() {
        assert_eq!(resolve_workers(3), 3);
        assert!(resolve_workers(0) >= 1);
    }

    /// A fallible fan collected from the ordered results names the
    /// lowest-index error, whichever worker hit an error first.
    #[test]
    fn try_map_reports_the_lowest_index_error_at_any_worker_count() {
        for workers in [1, 2, 8] {
            let err =
                parallel_map_indexed(workers, 100, |i| if i % 37 == 5 { Err(i) } else { Ok(i) })
                    .into_iter()
                    .collect::<Result<Vec<usize>, usize>>()
                    .unwrap_err();
            assert_eq!(err, 5, "workers = {workers}");
        }
        let ok: Result<Vec<usize>, usize> = parallel_map_indexed(4, 10, Ok).into_iter().collect();
        assert_eq!(ok.unwrap(), (0..10).collect::<Vec<_>>());
    }

    /// Every item of a failing fan still runs, so its stats are complete.
    #[test]
    fn try_map_stats_cover_failed_fans_too() {
        let (results, stats) =
            parallel_map_indexed_stats(4, 50, |i| if i == 9 { Err(i) } else { Ok(i) });
        let result: Result<Vec<usize>, usize> = results.into_iter().collect();
        assert_eq!(result.unwrap_err(), 9);
        let total: u64 = stats.per_worker.iter().sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn pool_stats_account_for_every_item() {
        for (workers, n) in [(1, 10), (4, 100), (8, 3), (3, 0)] {
            let (out, stats) = parallel_map_indexed_stats(workers, n, |i| i);
            assert_eq!(out, (0..n).collect::<Vec<_>>());
            assert!(stats.workers >= 1);
            assert_eq!(stats.per_worker.len(), stats.workers);
            let total: u64 = stats.per_worker.iter().sum();
            assert_eq!(total, n as u64, "workers = {workers}, n = {n}");
        }
    }

    #[test]
    fn panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            parallel_map_indexed(4, 16, |i| {
                if i == 7 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(result.is_err());
    }
}
