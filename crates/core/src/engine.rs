//! The measurement engine: a deterministic worker pool that fans
//! campaign work — (plaintext, key) pairs, sweep repetitions, per-die
//! trace acquisitions, false-negative-rate trials — across threads.
//!
//! # Determinism guarantee
//!
//! Every fanned computation derives its randomness from a seed that is a
//! pure function of the item's **index** (pair number, repetition
//! number, die number), never of scheduling order. Combined with
//! [`htd_par::parallel_map`]'s order-preserving merge, this makes every
//! campaign result **bit-identical for every worker count, including
//! 1** — the serial and parallel paths are the same computation, only
//! interleaved differently in time.
//!
//! # Choosing a worker count
//!
//! [`Engine::default`] auto-sizes (the `HTD_WORKERS` environment
//! variable if set, else the machine's available parallelism).
//! [`Engine::serial`] pins one worker — used internally when a fanned
//! outer loop calls a fanned inner one, so pools never nest.
//!
//! # Observability
//!
//! An engine carries an [`Obs`] handle (disabled by default). Every fan
//! records `engine.fans` / `engine.tasks` counters — pure functions of
//! the campaign shape, bit-identical at any worker count — plus
//! observational per-slot occupancy. Attach a recording handle with
//! [`Engine::with_obs`]; inner serial engines inherit it via
//! [`Engine::serial_like`] so campaign instrumentation survives the
//! outer/inner pool split. Under tracing, every task adopts the span
//! open where the fan was called ([`Obs::adopt_span`]), so spans a
//! worker opens nest under it instead of becoming roots.

use htd_obs::Obs;
use htd_par::{parallel_map_indexed_stats, resolve_workers};

use crate::error::Error;

/// The outcome of one attempt inside [`Engine::map_retry`].
#[derive(Debug)]
pub enum Attempt<U> {
    /// The attempt succeeded.
    Ok(U),
    /// The attempt hit a retryable fault; the engine re-invokes the
    /// closure with the next attempt number (until the budget runs out).
    Faulted,
    /// The attempt hit a non-retryable failure; the whole map aborts.
    Fatal(Error),
}

/// Per-item outcome of [`Engine::map_retry`].
#[derive(Debug)]
pub struct Retried<U> {
    /// The successful value, or `None` when every attempt faulted.
    pub value: Option<U>,
    /// Attempts spent on this item (at least 1).
    pub attempts: usize,
}

/// A worker-pool handle passed into the `*_with` measurement entry
/// points. Cheap to clone; holds no threads (threads are scoped per
/// call).
#[derive(Debug, Clone, Default)]
pub struct Engine {
    workers: usize,
    obs: Obs,
}

impl Engine {
    /// An engine that runs everything on the calling thread.
    pub fn serial() -> Self {
        Engine {
            workers: 1,
            obs: Obs::noop(),
        }
    }

    /// An engine that auto-sizes its pool (see [`htd_par::resolve_workers`]).
    pub fn auto() -> Self {
        Engine {
            workers: 0,
            obs: Obs::noop(),
        }
    }

    /// An engine with an explicit worker count (`0` = auto).
    pub fn with_workers(workers: usize) -> Self {
        Engine {
            workers,
            obs: Obs::noop(),
        }
    }

    /// This engine with the given observability handle attached.
    /// Recording never changes what the engine computes — only what it
    /// reports.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The engine's observability handle (disabled unless one was
    /// attached).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// A one-worker engine sharing this engine's observability handle —
    /// the inner engine for nested fans, so instrumentation survives the
    /// outer/inner pool split without nesting pools.
    pub fn serial_like(&self) -> Engine {
        Engine {
            workers: 1,
            obs: self.obs.clone(),
        }
    }

    /// The resolved worker count this engine will use.
    pub fn workers(&self) -> usize {
        resolve_workers(self.workers)
    }

    /// Order-preserving map over `items`; `f` gets `(index, &item)`. The
    /// item reference carries the slice's lifetime, so results may borrow
    /// from the input.
    pub fn map<'s, T, U, F>(&self, items: &'s [T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &'s T) -> U + Sync,
    {
        self.map_indexed(items.len(), |i| f(i, &items[i]))
    }

    /// Order-preserving map over `0..n`; `f` gets the index.
    pub fn map_indexed<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let parent = self.obs.current_span();
        let (out, stats) = parallel_map_indexed_stats(self.workers, n, |i| {
            let _parent = self.obs.adopt_span(parent);
            f(i)
        });
        self.obs
            .record_fan(n as u64, stats.workers as u64, &stats.per_worker);
        out
    }

    /// Order-preserving map over `0..n` with bounded per-item retry:
    /// `f(index, attempt)` runs with `attempt` counting up from 0 until
    /// it returns [`Attempt::Ok`] or `max_retries` extra attempts are
    /// spent. An item that exhausts its budget yields
    /// `Retried { value: None, .. }` — quarantine is the *caller's*
    /// policy decision, not the engine's.
    ///
    /// Determinism: the retry loop runs entirely inside the item's own
    /// task, so attempt numbers — like item indices — never depend on
    /// scheduling. A fatal error aborts with the lowest-index failure at
    /// any worker count.
    ///
    /// # Errors
    ///
    /// The lowest-index [`Attempt::Fatal`] error, if any.
    pub fn map_retry<U, F>(
        &self,
        n: usize,
        max_retries: usize,
        f: F,
    ) -> Result<Vec<Retried<U>>, Error>
    where
        U: Send,
        F: Fn(usize, usize) -> Attempt<U> + Sync,
    {
        let parent = self.obs.current_span();
        let (results, stats) = parallel_map_indexed_stats(self.workers, n, |i| {
            let _parent = self.obs.adopt_span(parent);
            retry(max_retries, |attempt| f(i, attempt))
        });
        self.obs
            .record_fan(n as u64, stats.workers as u64, &stats.per_worker);
        // Every item ran; collecting in index order keeps the
        // lowest-index error.
        results.into_iter().collect()
    }
}

/// One item's bounded retry loop: `f(attempt)` runs with `attempt`
/// counting up from 0 until it returns [`Attempt::Ok`] or `max_retries`
/// extra attempts are spent. The per-item half of [`Engine::map_retry`],
/// for callers that retry inside a task of their own (the die-major
/// campaign retries each channel on the die its task programmed).
///
/// # Errors
///
/// The first [`Attempt::Fatal`] error.
pub fn retry<U>(
    max_retries: usize,
    mut f: impl FnMut(usize) -> Attempt<U>,
) -> Result<Retried<U>, Error> {
    for attempt in 0..=max_retries {
        match f(attempt) {
            Attempt::Ok(value) => {
                return Ok(Retried {
                    value: Some(value),
                    attempts: attempt + 1,
                })
            }
            Attempt::Faulted => {}
            Attempt::Fatal(e) => return Err(e),
        }
    }
    Ok(Retried {
        value: None,
        attempts: max_retries + 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u32> = (0..100).collect();
        let want = Engine::serial().map(&items, |i, &x| x as u64 * i as u64);
        for workers in [2, 3, 8] {
            let got = Engine::with_workers(workers).map(&items, |i, &x| x as u64 * i as u64);
            assert_eq!(got, want, "workers = {workers}");
        }
    }

    #[test]
    fn indexed_map_is_ordered() {
        let got = Engine::with_workers(4).map_indexed(37, |i| i * 2);
        assert_eq!(got, (0..37).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_retry_spends_its_budget_and_reports_exhaustion() {
        // Item i succeeds on attempt i (0-based): items beyond the
        // budget come back empty with a full attempt count.
        for workers in [1usize, 2, 8] {
            let out = Engine::with_workers(workers)
                .map_retry(6, 3, |i, attempt| {
                    if attempt == i {
                        Attempt::Ok(i * 10)
                    } else {
                        Attempt::Faulted
                    }
                })
                .unwrap();
            for (i, r) in out.iter().enumerate() {
                if i <= 3 {
                    assert_eq!(r.value, Some(i * 10), "workers = {workers}");
                    assert_eq!(r.attempts, i + 1);
                } else {
                    assert_eq!(r.value, None, "workers = {workers}");
                    assert_eq!(r.attempts, 4);
                }
            }
        }
    }

    #[test]
    fn map_retry_fatal_aborts_with_the_lowest_index() {
        // Items 4, 17, 30 and 43 fail, each naming its own index.
        for workers in [1usize, 2, 8] {
            let obs = Obs::recording();
            let err = Engine::with_workers(workers)
                .with_obs(obs.clone())
                .map_retry::<(), _>(50, 2, |i, _| {
                    if i % 13 == 4 {
                        Attempt::Fatal(Error::AcquisitionExhausted {
                            channel: "fatal marker".to_string(),
                            die: i,
                            attempts: 1,
                        })
                    } else {
                        Attempt::Faulted
                    }
                })
                .unwrap_err();
            assert!(
                matches!(err, Error::AcquisitionExhausted { die: 4, .. }),
                "workers = {workers}: {err}"
            );
            // The failing fan still runs and counts every item.
            let counters = obs.snapshot().unwrap().counters;
            assert!(
                counters.contains(&("engine.tasks".to_string(), 50)),
                "workers = {workers}: {counters:?}"
            );
        }
    }

    #[test]
    fn worker_resolution() {
        assert_eq!(Engine::serial().workers(), 1);
        assert_eq!(Engine::with_workers(6).workers(), 6);
        assert!(Engine::auto().workers() >= 1);
    }

    #[test]
    fn fan_counters_are_worker_invariant() {
        let count_at = |workers: usize| {
            let obs = Obs::recording();
            let engine = Engine::with_workers(workers).with_obs(obs.clone());
            let _ = engine.map_indexed(24, |i| i);
            let _ = engine.map(&[1u8, 2, 3], |_, &x| x);
            let _ = engine.map_retry::<usize, _>(5, 1, |i, _| Attempt::Ok(i));
            obs.snapshot().unwrap().counters
        };
        let want = count_at(1);
        assert!(want.contains(&("engine.fans".to_string(), 3)));
        assert!(want.contains(&("engine.tasks".to_string(), 32)));
        for workers in [2, 8] {
            assert_eq!(count_at(workers), want, "workers = {workers}");
        }
    }

    #[test]
    fn serial_like_shares_the_obs_handle() {
        let obs = Obs::recording();
        let engine = Engine::with_workers(4).with_obs(obs.clone());
        let inner = engine.serial_like();
        assert_eq!(inner.workers(), 1);
        assert!(inner.obs().enabled());
        let _ = inner.map_indexed(2, |i| i);
        let counters = obs.snapshot().unwrap().counters;
        assert!(counters.contains(&("engine.fans".to_string(), 1)));
    }
}
