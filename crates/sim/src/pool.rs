//! A persistent worker pool for the [`crate::backend::Backend::Pooled`]
//! execution backend.
//!
//! The MPC model runs *many* rounds and *many* queries over the same
//! cluster; spawning and tearing down threads on every parallel loop would
//! pay the spawn cost on each of them. A [`WorkerPool`] is created once,
//! its threads live for the lifetime of the pool, and every `run_chunks`
//! call — across rounds, queries, and batches — reuses them. `std::thread`
//! + `std::sync::mpsc` only, no dependencies.
//!
//! Semantics:
//!
//! * jobs of one submission are identified by index and their results are
//!   returned **in index order**, so merges stay bit-identical
//!   to `Sequential`;
//! * a panicking job is caught on the worker (the worker thread survives and
//!   keeps serving other jobs) and its payload is re-raised **verbatim** on
//!   the submitting thread — a panic poisons only its own submission;
//! * dropping the pool closes the queue and joins every worker.
//!
//! [`global`] keeps one process-wide pool per worker count, so the `Copy`
//! [`crate::backend::Backend`] enum can name a persistent pool by size
//! alone; those shared pools live until process exit. Pool workers flag
//! themselves via [`in_worker`], letting the backend degrade nested
//! submissions to inline execution instead of deadlocking on a full queue.

use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A unit of work shipped to a worker thread. Lifetimes are erased at the
/// submission site; the submitter blocks until every job of its submission
/// has reported back, which keeps the erased borrows alive long enough.
type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    static IN_POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True when the current thread is a pool worker. Backends use this to run
/// nested parallel loops inline (submitting from a worker to its own pool
/// could otherwise deadlock once all workers wait on sub-jobs).
pub fn in_worker() -> bool {
    IN_POOL_WORKER.with(|f| f.get())
}

/// A fixed-size persistent thread pool with index-ordered scatter/gather.
pub struct WorkerPool {
    /// Job queue; `None` only during drop (closing it stops the workers).
    queue: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    /// Threads ever spawned by this pool. The pool never respawns, so this
    /// equals the worker count for the pool's whole lifetime — tests assert
    /// on it to prove reuse.
    spawned: AtomicUsize,
    /// Incremented by each worker as its main loop exits.
    exited: Arc<AtomicUsize>,
}

impl WorkerPool {
    /// Spawn a pool of `workers` threads (at least one).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let exited = Arc::new(AtomicUsize::new(0));
        let spawned = AtomicUsize::new(0);
        let handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let exited = Arc::clone(&exited);
                spawned.fetch_add(1, Ordering::SeqCst);
                std::thread::Builder::new()
                    .name(format!("mpc-pool-{i}"))
                    .spawn(move || worker_main(rx, exited))
                    .expect("spawning a pool worker")
            })
            .collect();
        WorkerPool {
            queue: Some(tx),
            workers: handles,
            spawned,
            exited,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Total threads ever spawned by this pool (constant after
    /// construction: the pool reuses its workers, it never respawns).
    pub fn spawn_count(&self) -> usize {
        self.spawned.load(Ordering::SeqCst)
    }

    /// Shared counter of workers whose main loop has exited; after drop it
    /// equals [`WorkerPool::spawn_count`].
    pub fn exit_counter(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.exited)
    }

    /// Run `work(0..jobs)` on the pool and return each job's outcome in
    /// **index order** (`Err` carries the verbatim panic payload of that
    /// job). Blocks until every job has finished; the pool itself stays
    /// usable afterwards whatever the outcomes.
    pub fn run_jobs<T, F>(&self, jobs: usize, work: F) -> Vec<std::thread::Result<T>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let rx = self.submit(jobs, &work);
        let mut out: Vec<Option<std::thread::Result<T>>> = (0..jobs).map(|_| None).collect();
        for _ in 0..jobs {
            let (i, r) = rx.recv().expect("pool worker reports every job");
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("each job reports exactly once"))
            .collect()
    }

    /// Enqueue `jobs` erased closures and return the result channel. Every
    /// job sends exactly one `(index, outcome)` message, even when it
    /// panics.
    fn submit<'env, T, F>(
        &self,
        jobs: usize,
        work: &'env F,
    ) -> Receiver<(usize, std::thread::Result<T>)>
    where
        T: Send + 'env,
        F: Fn(usize) -> T + Sync,
    {
        let queue = self.queue.as_ref().expect("pool is alive until drop");
        let (tx, rx) = channel::<(usize, std::thread::Result<T>)>();
        for i in 0..jobs {
            let tx = tx.clone();
            let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| work(i)));
                let _ = tx.send((i, outcome));
            });
            // SAFETY: the job sends its message as its final action and the
            // caller blocks on the returned receiver until all `jobs`
            // messages arrived (`run_jobs`, its only caller), so the
            // borrows captured by the closure (`work`, the caller-lifetime
            // `T` sender) outlive every use. Erasing the lifetime is the
            // standard scoped-pool transmute; the Box layouts are identical.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
            queue.send(job).expect("pool workers are alive until drop");
        }
        rx
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the queue makes every worker's recv fail, ending its loop.
        drop(self.queue.take());
        for handle in self.workers.drain(..) {
            // Workers catch job panics themselves; join errors would mean a
            // bug in the pool, not in user code.
            handle.join().expect("pool worker exits cleanly");
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .field("spawned", &self.spawn_count())
            .finish()
    }
}

fn worker_main(rx: Arc<Mutex<Receiver<Job>>>, exited: Arc<AtomicUsize>) {
    IN_POOL_WORKER.with(|f| f.set(true));
    loop {
        // Hold the lock only while dequeuing, never while running a job.
        let job = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(poisoned) => poisoned.into_inner().recv(),
        };
        match job {
            Ok(job) => job(),
            Err(_) => break, // queue closed: pool is being dropped
        }
    }
    exited.fetch_add(1, Ordering::SeqCst);
}

/// The process-wide pool of `workers` threads, created on first use and
/// shared by every [`crate::backend::Backend::Pooled`] value of that size
/// (this is what makes the `Copy` backend enum persistent: the pool outlives
/// every round, query, and batch submitted to it).
pub fn global(workers: usize) -> Arc<WorkerPool> {
    static REGISTRY: OnceLock<Mutex<HashMap<usize, Arc<WorkerPool>>>> = OnceLock::new();
    let registry = REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = registry.lock().unwrap_or_else(|p| p.into_inner());
    Arc::clone(
        map.entry(workers.max(1))
            .or_insert_with(|| Arc::new(WorkerPool::new(workers))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_gather_is_index_ordered() {
        let pool = WorkerPool::new(4);
        let results = pool.run_jobs(64, |i| i * i);
        let values: Vec<usize> = results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(values, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn pool_is_reused_and_never_respawns() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.spawn_count(), 3);
        for round in 0..5 {
            let sum: usize = pool
                .run_jobs(16, |i| i + round)
                .into_iter()
                .map(|r| r.unwrap())
                .sum();
            assert_eq!(sum, (0..16).map(|i| i + round).sum::<usize>());
            assert_eq!(pool.spawn_count(), 3, "round {round} spawned threads");
        }
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = WorkerPool::new(3);
        let exited = pool.exit_counter();
        let _ = pool.run_jobs(8, |i| i);
        assert_eq!(exited.load(Ordering::SeqCst), 0, "workers exited early");
        drop(pool);
        assert_eq!(
            exited.load(Ordering::SeqCst),
            3,
            "drop must join all workers"
        );
    }

    #[test]
    fn panic_poisons_only_its_job_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let results = pool.run_jobs(8, |i| {
            assert!(i != 5, "pool job exploded at {i}");
            i
        });
        for (i, r) in results.iter().enumerate() {
            if i == 5 {
                let payload = r.as_ref().expect_err("job 5 panicked");
                let msg = payload
                    .downcast_ref::<String>()
                    .expect("panic payload is the formatted message");
                assert_eq!(msg, "pool job exploded at 5");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i);
            }
        }
        // The same workers keep serving jobs after the panic.
        assert_eq!(pool.spawn_count(), 2);
        let ok: Vec<usize> = pool
            .run_jobs(4, |i| i)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(ok, vec![0, 1, 2, 3]);
    }

    #[test]
    fn global_registry_hands_out_one_pool_per_size() {
        let a = global(2);
        let b = global(2);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.workers(), 2);
        let c = global(3);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn workers_flag_in_worker() {
        let pool = WorkerPool::new(2);
        assert!(!in_worker());
        let flags = pool.run_jobs(4, |_| in_worker());
        assert!(flags.into_iter().all(|r| r.unwrap()));
        assert!(!in_worker());
    }
}
