//! Shared scoped worker pool for the offline/online pipeline.
//!
//! Two offline paths fan work across threads — the all-pairs correlation
//! table (one Dijkstra per road) and full-model RTF training (288
//! independent per-slot CCD fits) — and the serving layer runs its
//! workers here. Each used to bring its own ad-hoc threading; this crate
//! is the single sanctioned home for OS threads (`cargo xtask lint` flags
//! raw `std::thread::spawn`/`thread::scope` anywhere else in library
//! code).
//!
//! Two entry points:
//!
//! * [`ComputePool::map`] — order-preserving parallel map for one-shot
//!   fan-outs (table rows, training slots). Spawns its workers once per
//!   call, so the spawn cost amortizes over the whole batch.
//! * [`ComputePool::scoped`] — persistent workers: they are spawned once
//!   and every [`PoolScope::submit`] in the scope queues a job to them.
//!
//! Everything is scoped-thread based (`std::thread::scope` under the
//! hood), so jobs may borrow non-`'static` data — graphs, parameter
//! tables, row slices — without `Arc` plumbing. No dependencies, no
//! unsafe code.
//!
//! ## Determinism
//!
//! The pool never changes *what* is computed, only *where*: `map`
//! preserves item order in its output, so results are bit-identical at
//! every thread count (enforced by serial-equivalence property tests in
//! the consumer crates). Worker panics are captured and re-raised on the caller's
//! thread after the batch drains, matching plain-loop semantics.
//!
//! ## Sizing
//!
//! [`ComputePool::new`] takes an explicit thread count; `0` (or
//! [`ComputePool::from_env`]) defers to the `RTSE_THREADS` environment
//! variable, falling back to [`std::thread::available_parallelism`].
//!
//! ## Observability
//!
//! The `*_observed` entry points ([`ComputePool::map_observed`],
//! [`ComputePool::scoped_observed`]) thread an [`rtse_obs::ObsHandle`]
//! through the scope: every dispatched job counts under `pool.jobs`
//! (`map` counts one per item at every thread count, including the
//! serial short-circuit) and queued-but-not-started jobs move the
//! `pool.queue_depth` gauge. The plain entry points delegate with a
//! no-op handle and pay nothing.

use rtse_obs::{ObsHandle, Stage};
use rtse_sync::mpsc::{channel, Receiver, Sender};
use rtse_sync::{Mutex, MutexGuard, PoisonError};
use std::panic::AssertUnwindSafe;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "RTSE_THREADS";

/// Resolves the default worker count: `RTSE_THREADS` when set to a
/// positive integer, otherwise the host's available parallelism (1 when
/// even that is unknown).
pub fn env_threads() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// Locks a mutex, ignoring poisoning: pool state stays usable even when a
/// job panicked (the panic itself is re-raised separately).
fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fixed-width worker pool. Cheap to construct — threads are spawned
/// per [`map`](Self::map)/[`scoped`](Self::scoped) call and joined before
/// the call returns, so a `ComputePool` is just a thread-count policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComputePool {
    threads: usize,
}

/// A unit of work dispatched to a pool worker.
type Job<'p> = Box<dyn FnOnce() + Send + 'p>;

impl Default for ComputePool {
    fn default() -> Self {
        Self::from_env()
    }
}

impl ComputePool {
    /// A pool of exactly `threads` workers; `0` means "size from the
    /// environment" (see [`env_threads`]).
    pub fn new(threads: usize) -> Self {
        Self { threads: if threads == 0 { env_threads() } else { threads } }
    }

    /// A pool sized from `RTSE_THREADS` / available parallelism.
    pub fn from_env() -> Self {
        Self::new(0)
    }

    /// The worker count (always ≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, in parallel, preserving order: output
    /// index `i` is `f(i, items[i])`. Falls back to a plain serial loop
    /// for a single-thread pool or a batch of ≤ 1 items. Panics in `f`
    /// are re-raised here after the batch drains.
    pub fn map<T, O, F>(&self, items: Vec<T>, f: F) -> Vec<O>
    where
        T: Send,
        O: Send,
        F: Fn(usize, T) -> O + Sync,
    {
        self.map_observed(&ObsHandle::noop(), items, f)
    }

    /// [`map`](Self::map) with job accounting: every item counts one
    /// `pool.jobs` event on `obs` — including on the serial short-circuit
    /// path, so the count is invariant across thread counts.
    pub fn map_observed<T, O, F>(&self, obs: &ObsHandle, items: Vec<T>, f: F) -> Vec<O>
    where
        T: Send,
        O: Send,
        F: Fn(usize, T) -> O + Sync,
    {
        let n = items.len();
        if self.threads <= 1 || n <= 1 {
            obs.add(Stage::PoolJobs, n as u64);
            return items.into_iter().enumerate().map(|(i, item)| f(i, item)).collect();
        }
        let f = &f;
        let (tx, rx) = channel::<(usize, std::thread::Result<O>)>();
        self.scoped_observed(obs, |scope| {
            for (i, item) in items.into_iter().enumerate() {
                let tx = tx.clone();
                scope.submit(Box::new(move || {
                    let out = std::panic::catch_unwind(AssertUnwindSafe(|| f(i, item)));
                    let _ = tx.send((i, out));
                }));
            }
        });
        drop(tx);
        let mut tagged: Vec<(usize, std::thread::Result<O>)> = rx.into_iter().collect();
        tagged.sort_unstable_by_key(|&(i, _)| i);
        let mut out = Vec::with_capacity(n);
        for (_, result) in tagged {
            match result {
                Ok(o) => out.push(o),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    }

    /// Spawns the pool's workers once and runs `f` with a [`PoolScope`]
    /// that dispatches jobs to them. All submitted jobs complete before
    /// `scoped` returns. With a single-thread pool no workers are spawned
    /// and jobs run inline on submission.
    pub fn scoped<'p, R>(&'p self, f: impl FnOnce(&PoolScope<'p>) -> R) -> R {
        self.scoped_observed(&ObsHandle::noop(), f)
    }

    /// [`scoped`](Self::scoped) with job accounting: submissions count
    /// `pool.jobs` events and move the `pool.queue_depth` gauge on `obs`
    /// while queued (see [`PoolScope::submit`]).
    pub fn scoped_observed<'p, R>(
        &'p self,
        obs: &ObsHandle,
        f: impl FnOnce(&PoolScope<'p>) -> R,
    ) -> R {
        if self.threads <= 1 {
            return f(&PoolScope { tx: None, threads: 1, obs: obs.clone() });
        }
        let (tx, rx) = channel::<Job<'p>>();
        let rx = Mutex::new(rx);
        let rx = &rx;
        std::thread::scope(move |s| {
            for _ in 0..self.threads {
                s.spawn(move || worker_loop(rx));
            }
            let scope = PoolScope { tx: Some(tx), threads: self.threads, obs: obs.clone() };
            f(&scope)
            // `scope` (and with it the job sender) drops here; workers
            // drain the queue, exit, and the thread scope joins them.
        })
    }
}

/// Pulls jobs off the shared queue until the scope closes it.
fn worker_loop(rx: &Mutex<Receiver<Job<'_>>>) {
    loop {
        let job = lock_ignore_poison(rx).recv();
        match job {
            Ok(job) => job(),
            Err(_) => break,
        }
    }
}

/// Handle for submitting work to the persistent workers of one
/// [`ComputePool::scoped`] region.
pub struct PoolScope<'p> {
    /// `None` for a single-thread pool: jobs run inline.
    tx: Option<Sender<Job<'p>>>,
    threads: usize,
    /// Job accounting sink (no-op unless the scope was opened through
    /// [`ComputePool::scoped_observed`]).
    obs: ObsHandle,
}

impl<'p> PoolScope<'p> {
    /// The number of workers serving this scope.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Queues one job. Runs it inline when the pool is single-threaded or
    /// (defensively) when every worker has died.
    ///
    /// With an enabled scope handle, each submission counts one
    /// `pool.jobs` event, and queued jobs raise the `pool.queue_depth`
    /// gauge until a worker picks them up.
    pub fn submit(&self, job: Job<'p>) {
        self.obs.incr(Stage::PoolJobs);
        match &self.tx {
            Some(tx) => {
                let job: Job<'p> = if self.obs.is_enabled() {
                    let obs = self.obs.clone();
                    obs.gauge_add(Stage::PoolQueueDepth, 1);
                    Box::new(move || {
                        obs.gauge_add(Stage::PoolQueueDepth, -1);
                        job();
                    })
                } else {
                    job
                };
                if let Err(send_back) = tx.send(job) {
                    (send_back.0)();
                }
            }
            None => job(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn new_zero_defers_to_env_or_host() {
        let pool = ComputePool::new(0);
        assert!(pool.threads() >= 1);
        assert_eq!(ComputePool::new(3).threads(), 3);
    }

    #[test]
    fn map_preserves_order_at_every_thread_count() {
        let items: Vec<usize> = (0..100).collect();
        let expect: Vec<usize> = items.iter().map(|&x| x * x).collect();
        for threads in 1..=8 {
            let got = ComputePool::new(threads).map(items.clone(), |i, x| {
                assert_eq!(i, x);
                x * x
            });
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn map_handles_empty_and_single() {
        let pool = ComputePool::new(4);
        assert_eq!(pool.map(Vec::<u32>::new(), |_, x| x), Vec::<u32>::new());
        assert_eq!(pool.map(vec![7], |i, x| x + i), vec![7]);
    }

    #[test]
    fn map_can_write_disjoint_mut_slices() {
        let mut table = [0.0f64; 6 * 4];
        let rows: Vec<&mut [f64]> = table.chunks_mut(4).collect();
        ComputePool::new(3).map(rows, |i, row| {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = (i * 10 + j) as f64;
            }
        });
        assert_eq!(table[0], 0.0);
        assert_eq!(table[4], 10.0);
        assert_eq!(table[5 * 4 + 3], 53.0);
    }

    #[test]
    fn scoped_workers_persist_across_batches() {
        // Ten batches through one scope run on the same four workers: no
        // batch spawns threads of its own.
        let pool = ComputePool::new(4);
        let counter = AtomicUsize::new(0);
        let workers = std::sync::Mutex::new(std::collections::HashSet::new());
        pool.scoped(|scope| {
            for _batch in 0..10 {
                for _job in 0..64 {
                    scope.submit(Box::new(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                        workers.lock().unwrap().insert(std::thread::current().id());
                    }));
                }
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 640);
        let workers = workers.into_inner().unwrap();
        assert!(!workers.contains(&std::thread::current().id()), "jobs ran on the caller");
        assert!(workers.len() <= 4, "{} threads served one scope", workers.len());
    }

    #[test]
    fn map_propagates_worker_panics() {
        let result = std::panic::catch_unwind(|| {
            ComputePool::new(4).map((0..16).collect::<Vec<usize>>(), |_, x| {
                assert!(x != 7, "boom on 7");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn env_threads_is_positive() {
        assert!(env_threads() >= 1);
    }

    #[test]
    fn observed_map_counts_one_job_per_item_at_every_thread_count() {
        let items: Vec<usize> = (0..37).collect();
        for threads in [1, 2, 4, 8] {
            let obs = ObsHandle::fresh();
            let got = ComputePool::new(threads).map_observed(&obs, items.clone(), |_, x| x * 2);
            assert_eq!(got.len(), 37);
            if obs.is_enabled() {
                let reg = obs.registry().expect("fresh handle has a registry");
                assert_eq!(reg.count(Stage::PoolJobs), 37, "threads = {threads}");
                assert_eq!(reg.gauge(Stage::PoolQueueDepth), 0, "queue drained");
            }
        }
    }

    #[test]
    fn observed_scope_counts_submissions_and_returns_gauge_to_zero() {
        let obs = ObsHandle::fresh();
        let pool = ComputePool::new(4);
        let counter = AtomicUsize::new(0);
        pool.scoped_observed(&obs, |scope| {
            for _ in 0..25 {
                scope.submit(Box::new(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }));
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 25);
        if obs.is_enabled() {
            let reg = obs.registry().expect("fresh handle has a registry");
            assert_eq!(reg.count(Stage::PoolJobs), 25);
            assert_eq!(reg.gauge(Stage::PoolQueueDepth), 0);
            let depth_max = reg.snapshot().stage(Stage::PoolQueueDepth).gauge_max;
            assert!(depth_max >= 0);
        }
    }

    #[test]
    fn plain_entry_points_stay_unobserved() {
        // `map`/`scoped` must not panic or misbehave through the no-op
        // delegation (overhead is just the disabled-handle branch).
        let got = ComputePool::new(4).map((0..10).collect::<Vec<usize>>(), |_, x| x + 1);
        assert_eq!(got[9], 10);
    }
}
