//! Execution backends for the simulator.
//!
//! The MPC model is massively *parallel*, so the simulator should be too: a
//! [`Backend`] selects how the two hot loops — the shuffle in
//! [`crate::cluster::Cluster::run_round_on`] and the per-server local joins
//! in [`crate::cluster::Cluster::all_answers`] — are executed: on the
//! calling thread, or on the persistent worker pool of [`crate::pool`].
//!
//! Both backends are **bit-identical**: work is split into contiguous index
//! chunks, each worker produces its partial result independently, and
//! partials are merged in worker-index order. Fragment tuple order, answer
//! sets, and [`crate::load::LoadReport`]s therefore never depend on the
//! thread count (the differential suite in `tests/differential.rs` enforces
//! this).
//!
//! Selection precedence: explicit [`Backend`] argument > the
//! `MPCSKEW_THREADS` environment variable (an integer: `1` = sequential,
//! `0`/unset = a pool over all available cores, `n` = the `n`-worker pool)
//! > available parallelism.

use crate::pool;

/// How simulator loops over independent work items are executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Everything on the calling thread.
    Sequential,
    /// Up to `n` workers from the persistent process-wide pool of that size
    /// ([`crate::pool::global`]): threads are spawned once and reused across
    /// every loop, round, query, and batch (`Pooled(1)` behaves exactly
    /// like [`Backend::Sequential`]). Results are bit-identical to
    /// [`Backend::Sequential`].
    Pooled(usize),
}

impl Backend {
    /// `Pooled(available_parallelism)`.
    pub fn available() -> Backend {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Backend::Pooled(cores)
    }

    /// Backend selected by the `MPCSKEW_THREADS` environment variable
    /// ([`Backend::parse`] grammar); unset → [`Backend::available`].
    ///
    /// The variable is re-read on every call (no process-wide cache), so a
    /// test or embedder that changes `MPCSKEW_THREADS` mid-process gets the
    /// new backend on the next round — `from_env_tracks_environment_changes`
    /// pins this.
    ///
    /// # Panics
    /// Panics when the variable is set but not an integer — a typo must
    /// not silently downgrade a pinned-backend CI run to the default.
    pub fn from_env() -> Backend {
        match std::env::var("MPCSKEW_THREADS") {
            Err(_) => Backend::available(),
            Ok(v) => Backend::parse(&v)
                .unwrap_or_else(|e| panic!("MPCSKEW_THREADS expects an integer: {e}")),
        }
    }

    /// Parse a thread-count spec, the one grammar the CLI `--threads` flag
    /// and `MPCSKEW_THREADS` share: `1` → [`Backend::Sequential`], `0` →
    /// [`Backend::available`], `n` → `Pooled(n)`.
    pub fn parse(spec: &str) -> Result<Backend, String> {
        let n: usize = spec.trim().parse().map_err(|_| format!("got `{spec}`"))?;
        Ok(match n {
            0 => Backend::available(),
            1 => Backend::Sequential,
            n => Backend::Pooled(n),
        })
    }

    /// Worker-thread budget of this backend (>= 1).
    pub fn threads(&self) -> usize {
        match *self {
            Backend::Sequential => 1,
            Backend::Pooled(n) => n.max(1),
        }
    }

    /// Number of workers a loop over `len` items with at least `min_chunk`
    /// items per worker would actually use.
    pub fn workers_for(&self, len: usize, min_chunk: usize) -> usize {
        if len == 0 {
            return 0;
        }
        self.threads().min(len.div_ceil(min_chunk.max(1))).max(1)
    }

    /// The contiguous chunk ranges a loop over `len` items splits into.
    fn chunk_ranges(&self, len: usize, workers: usize) -> Vec<(usize, usize)> {
        let chunk = len.div_ceil(workers);
        (0..workers)
            .map(|t| (t * chunk, ((t + 1) * chunk).min(len)))
            .filter(|&(lo, hi)| lo < hi)
            .collect()
    }

    /// Split `0..len` into contiguous chunks of at least `min_chunk` items,
    /// evaluate `work(lo, hi)` for each (in parallel on the pooled backend),
    /// and return the per-chunk results **in chunk order** — the
    /// deterministic-merge primitive every parallel loop in the simulator
    /// is built on. Worker panics are re-raised on the caller
    /// with their original payload (the first panicking chunk in chunk
    /// order).
    ///
    /// Called from inside a pool worker (a nested parallel loop), the work
    /// runs inline on that worker: submitting sub-jobs to the same pool the
    /// caller occupies could deadlock, and batch submissions parallelize
    /// across items, not inside them.
    pub fn run_chunks<T, F>(&self, len: usize, min_chunk: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, usize) -> T + Sync,
    {
        let workers = self.workers_for(len, min_chunk);
        if workers == 0 {
            return Vec::new();
        }
        if workers == 1 || pool::in_worker() {
            return vec![work(0, len)];
        }
        let ranges = self.chunk_ranges(len, workers);
        self.run_items(ranges.len(), |i| {
            let (lo, hi) = ranges[i];
            work(lo, hi)
        })
    }

    /// Run `count` independent work items and return their results **in
    /// item order**. Unlike [`Backend::run_chunks`], items are not
    /// statically grouped into contiguous per-worker chunks: each item is
    /// its own pool job pulled from the shared queue, so a slow item (a
    /// heavy oracle bucket, a big batch round) occupies one worker while
    /// the others keep draining the rest — dynamic load balancing for
    /// heterogeneous items. Worker panics are re-raised verbatim (first
    /// panicking item in item order).
    pub fn run_items<T, F>(&self, count: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if count == 0 {
            return Vec::new();
        }
        let threads = self.threads();
        if threads == 1 || pool::in_worker() {
            return (0..count).map(work).collect();
        }
        pool::global(threads)
            .run_jobs(count, &work)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    }
}

impl Default for Backend {
    fn default() -> Backend {
        Backend::from_env()
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Sequential => write!(f, "sequential"),
            Backend::Pooled(n) => write!(f, "pooled({n})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing() {
        assert_eq!(Backend::parse("1"), Ok(Backend::Sequential));
        assert_eq!(Backend::parse(" 6 "), Ok(Backend::Pooled(6)));
        // 0 means "all available cores".
        assert_eq!(Backend::parse("0"), Ok(Backend::available()));
        assert!(Backend::available().threads() >= 1);
        for garbage in ["many", "", "-2", "pool:4", "4 threads"] {
            assert!(Backend::parse(garbage).is_err(), "{garbage:?}");
        }
    }

    #[test]
    fn from_env_tracks_environment_changes() {
        // Regression test for the stale-OnceLock bug: from_env used to cache
        // the first read for the process lifetime, so a test that set
        // MPCSKEW_THREADS after any earlier read silently kept the old
        // backend. The variable must now be re-read on every call. (Only
        // valid specs are written here: other tests of this binary may read
        // the variable concurrently, and every valid backend is
        // bit-identical, so the worst cross-talk is a different but correct
        // executor for one round.)
        let saved = std::env::var("MPCSKEW_THREADS").ok();
        std::env::set_var("MPCSKEW_THREADS", "3");
        assert_eq!(Backend::from_env(), Backend::Pooled(3));
        std::env::set_var("MPCSKEW_THREADS", "0");
        assert_eq!(Backend::from_env(), Backend::available());
        std::env::set_var("MPCSKEW_THREADS", "1");
        assert_eq!(Backend::from_env(), Backend::Sequential);
        std::env::remove_var("MPCSKEW_THREADS");
        assert_eq!(Backend::from_env(), Backend::available());
        if let Some(v) = saved {
            std::env::set_var("MPCSKEW_THREADS", v);
        }
    }

    #[test]
    fn worker_budgeting_respects_min_chunk() {
        let b = Backend::Pooled(8);
        assert_eq!(b.workers_for(0, 16), 0);
        assert_eq!(b.workers_for(10, 16), 1);
        assert_eq!(b.workers_for(32, 16), 2);
        assert_eq!(b.workers_for(1 << 20, 16), 8);
        assert_eq!(Backend::Sequential.workers_for(1 << 20, 1), 1);
        assert_eq!(Backend::Pooled(0).threads(), 1);
    }

    #[test]
    fn run_chunks_covers_range_in_order() {
        for backend in [
            Backend::Sequential,
            Backend::Pooled(1),
            Backend::Pooled(3),
            Backend::Pooled(16),
            Backend::Pooled(64),
        ] {
            let parts = backend.run_chunks(1000, 1, |lo, hi| (lo..hi).collect::<Vec<_>>());
            let flat: Vec<usize> = parts.into_iter().flatten().collect();
            assert_eq!(flat, (0..1000).collect::<Vec<_>>(), "{backend}");
        }
    }

    #[test]
    fn run_chunks_result_is_thread_count_invariant() {
        let sum = |lo: usize, hi: usize| (lo..hi).map(|i| i as u64 * i as u64).sum::<u64>();
        let seq: u64 = Backend::Sequential
            .run_chunks(4096, 1, sum)
            .into_iter()
            .sum();
        for n in [2usize, 3, 8, 17] {
            let pooled: u64 = Backend::Pooled(n)
                .run_chunks(4096, 1, sum)
                .into_iter()
                .sum();
            assert_eq!(pooled, seq, "Pooled({n})");
        }
    }

    #[test]
    fn empty_range_runs_no_work() {
        let backend = Backend::Pooled(4);
        let parts = backend.run_chunks(0, 1, |_, _| panic!("no work expected"));
        assert!(parts.is_empty());
    }

    #[test]
    #[should_panic(expected = "pool worker exploded at 7")]
    fn pooled_worker_panics_propagate_with_payload() {
        Backend::Pooled(4).run_chunks(16, 1, |lo, hi| {
            for i in lo..hi {
                assert!(i != 7, "pool worker exploded at {i}");
            }
        });
    }

    #[test]
    fn pooled_backend_survives_a_panicking_loop() {
        // A panic poisons only its own submission: the shared pool keeps
        // serving later loops, on the same threads it spawned originally.
        let backend = Backend::Pooled(4);
        let pool = pool::global(4);
        let spawned_before = pool.spawn_count();
        let result = std::panic::catch_unwind(|| {
            backend.run_chunks(16, 1, |lo, _| {
                assert!(lo == 0, "poisoned chunk at {lo}");
            })
        });
        assert!(result.is_err());
        let parts = backend.run_chunks(100, 1, |lo, hi| hi - lo);
        assert_eq!(parts.iter().sum::<usize>(), 100);
        assert_eq!(
            pool.spawn_count(),
            spawned_before,
            "panic must not respawn workers"
        );
    }

    #[test]
    fn run_items_is_item_ordered_on_every_backend() {
        for backend in [Backend::Sequential, Backend::Pooled(1), Backend::Pooled(4)] {
            let items = backend.run_items(100, |i| i * 3);
            assert_eq!(
                items,
                (0..100).map(|i| i * 3).collect::<Vec<_>>(),
                "{backend}"
            );
            assert!(backend.run_items(0, |_| 0).is_empty(), "{backend}");
        }
    }

    #[test]
    #[should_panic(expected = "item exploded at 11")]
    fn run_items_panics_propagate_from_the_pool() {
        Backend::Pooled(4).run_items(32, |i| {
            assert!(i != 11, "item exploded at {i}");
        });
    }

    #[test]
    fn nested_pooled_loops_run_inline() {
        // A parallel loop launched from inside a pool worker degrades to
        // inline execution instead of deadlocking on the shared queue.
        let backend = Backend::Pooled(2);
        let parts = backend.run_chunks(4, 1, |lo, hi| {
            let inner: usize = backend.run_chunks(64, 1, |a, b| b - a).into_iter().sum();
            (hi - lo) * inner
        });
        assert_eq!(parts.iter().sum::<usize>(), 4 * 64);
    }

    #[test]
    fn display_names() {
        assert_eq!(Backend::Sequential.to_string(), "sequential");
        assert_eq!(Backend::Pooled(8).to_string(), "pooled(8)");
    }
}
