//! Execution backends for the simulator.
//!
//! The MPC model is massively *parallel*, so the simulator should be too: a
//! [`Backend`] selects how the two hot loops — the shuffle in
//! [`crate::cluster::Cluster::run_round_on`] and the per-server local joins
//! in [`crate::cluster::Cluster::all_answers`] — are executed: on the
//! calling thread, or on `n` scoped threads (`std::thread::scope`), the
//! calling thread working as one of them.
//!
//! Both backends are **bit-identical**: work is split into contiguous index
//! chunks, each worker produces its partial result independently, and
//! partials are merged in worker-index order. Fragment tuple order, answer
//! sets, and [`crate::load::LoadReport`]s therefore never depend on the
//! thread count (the differential suite in `tests/differential.rs` enforces
//! this).
//!
//! Selection precedence: explicit [`Backend`] argument, then the
//! `MPCSKEW_THREADS` environment variable (an integer: `1` = sequential,
//! `0`/unset = a thread for each available core, `n` = `n` threads), then
//! available parallelism. The variable is read only where no backend was
//! given.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Set while the thread works on the items of a parallel loop, so a
    /// loop started inside an item runs inline instead of spawning again.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// How simulator loops over independent work items are executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Everything on the calling thread.
    Sequential,
    /// Up to `n` workers per parallel loop: the calling thread and `n - 1`
    /// scoped threads spawned for that loop (`Threads(1)` behaves exactly
    /// like [`Backend::Sequential`]). Results are bit-identical to
    /// [`Backend::Sequential`].
    Threads(usize),
}

impl Backend {
    /// `Threads(available_parallelism)`.
    pub fn available() -> Backend {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Backend::Threads(cores)
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
    /// [`Backend::available`], `n` → `Threads(n)`.
    pub fn parse(spec: &str) -> Result<Backend, String> {
        let n: usize = spec.trim().parse().map_err(|_| format!("got `{spec}`"))?;
        Ok(match n {
            0 => Backend::available(),
            1 => Backend::Sequential,
            n => Backend::Threads(n),
        })
    }

    /// Worker-thread budget of this backend (>= 1).
    pub(crate) fn threads(&self) -> usize {
        match *self {
            Backend::Sequential => 1,
            Backend::Threads(n) => n.max(1),
        }
    }

    /// Number of workers a loop over `len` items with at least `min_chunk`
    /// items per worker would actually use.
    pub(crate) fn workers_for(&self, len: usize, min_chunk: usize) -> usize {
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
    /// evaluate `work(lo, hi)` for each (in parallel on
    /// [`Backend::Threads`]), and return the per-chunk results **in chunk
    /// order** — the deterministic-merge primitive every parallel loop in
    /// the simulator is built on. Worker panics are re-raised on the caller
    /// with their original payload (the first panicking chunk in chunk
    /// order). A loop started inside a worker runs inline.
    pub(crate) fn run_chunks<T, F>(&self, len: usize, min_chunk: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, usize) -> T + Sync,
    {
        let workers = self.workers_for(len, min_chunk);
        if workers == 0 {
            return Vec::new();
        }
        if workers == 1 {
            return vec![work(0, len)];
        }
        let ranges = self.chunk_ranges(len, workers);
        self.run_items(ranges.len(), |i| {
            let (lo, hi) = ranges[i];
            work(lo, hi)
        })
    }

    /// Run `count` independent work items (the chunks of
    /// [`Backend::run_chunks`]) and return their results **in item
    /// order**: the calling thread and up to `min(n, count) - 1` scoped
    /// threads claim items one at a time from a shared counter. Every item
    /// runs even when another panics; the first panicking item's payload
    /// (in item order) is then re-raised verbatim. A loop started inside
    /// an item — on the caller or on a spawned worker — runs inline.
    fn run_items<T, F>(&self, count: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.workers_for(count, 1);
        if workers <= 1 || IN_WORKER.get() {
            return (0..count).map(work).collect();
        }
        let next = AtomicUsize::new(0);
        let drain = || {
            IN_WORKER.set(true);
            let mut done = Vec::new();
            loop {
                // Relaxed: the counter only hands out indices; results
                // reach the caller through the joins below.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                done.push((i, catch_unwind(AssertUnwindSafe(|| work(i)))));
            }
            IN_WORKER.set(false);
            done
        };
        let parts = std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..workers)
                .map(|k| {
                    std::thread::Builder::new()
                        .name(format!("mpc-worker-{k}"))
                        .spawn_scoped(scope, drain)
                        .expect("spawning a worker thread")
                })
                .collect();
            let mut parts = vec![drain()];
            parts.extend(
                spawned
                    .into_iter()
                    .map(|h| h.join().expect("a worker catches its items' panics")),
            );
            parts
        });
        let mut slots: Vec<Option<std::thread::Result<T>>> = (0..count).map(|_| None).collect();
        for (i, outcome) in parts.into_iter().flatten() {
            slots[i] = Some(outcome);
        }
        slots
            .into_iter()
            .map(|slot| match slot.expect("every item was claimed") {
                Ok(value) => value,
                Err(payload) => resume_unwind(payload),
            })
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
            Backend::Threads(n) => write!(f, "threads({n})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    #[test]
    fn spec_parsing() {
        assert_eq!(Backend::parse("1"), Ok(Backend::Sequential));
        assert_eq!(Backend::parse(" 6 "), Ok(Backend::Threads(6)));
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
        assert_eq!(Backend::from_env(), Backend::Threads(3));
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
        let b = Backend::Threads(8);
        assert_eq!(b.workers_for(0, 16), 0);
        assert_eq!(b.workers_for(10, 16), 1);
        assert_eq!(b.workers_for(32, 16), 2);
        assert_eq!(b.workers_for(1 << 20, 16), 8);
        assert_eq!(Backend::Sequential.workers_for(1 << 20, 1), 1);
        assert_eq!(Backend::Threads(0).threads(), 1);
    }

    #[test]
    fn run_chunks_covers_range_in_order() {
        for backend in [
            Backend::Sequential,
            Backend::Threads(1),
            Backend::Threads(3),
            Backend::Threads(16),
            Backend::Threads(64),
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
            let threaded: u64 = Backend::Threads(n)
                .run_chunks(4096, 1, sum)
                .into_iter()
                .sum();
            assert_eq!(threaded, seq, "Threads({n})");
        }
    }

    #[test]
    fn empty_range_runs_no_work() {
        let backend = Backend::Threads(4);
        let parts = backend.run_chunks(0, 1, |_, _| panic!("no work expected"));
        assert!(parts.is_empty());
    }

    #[test]
    #[should_panic(expected = "worker exploded at 7")]
    fn pooled_worker_panics_propagate_with_payload() {
        Backend::Threads(4).run_chunks(16, 1, |lo, hi| {
            for i in lo..hi {
                assert!(i != 7, "worker exploded at {i}");
            }
        });
    }

    #[test]
    fn pooled_backend_survives_a_panicking_loop() {
        // After a loop whose items panicked on the caller too, the next
        // top-level loop must still run in parallel — not inline, as it
        // would if the caller's in-worker flag had stayed set.
        let backend = Backend::Threads(2);
        let result = catch_unwind(|| backend.run_items(8, |i| assert!(i > 99, "item {i}")));
        assert!(result.is_err());
        // Checked first: an inline loop would wait on the barrier forever.
        assert!(!IN_WORKER.get(), "the caller still counts as a worker");
        assert_eq!(threads_of_concurrent_items(backend, 2).len(), 2);
    }

    #[test]
    fn run_items_is_item_ordered_on_every_backend() {
        for backend in [
            Backend::Sequential,
            Backend::Threads(1),
            Backend::Threads(4),
        ] {
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
        // Items 11 and 23 both panic: the first one's payload comes back
        // verbatim (`should_panic` matches only a `String`/`&str` payload).
        Backend::Threads(4).run_items(32, |i| {
            assert!(i != 11 && i != 23, "item exploded at {i}");
        });
    }

    /// The distinct threads that ran `count` items which all wait for each
    /// other, so each one is held by a different worker.
    fn threads_of_concurrent_items(backend: Backend, count: usize) -> BTreeSet<String> {
        let barrier = Barrier::new(count);
        backend
            .run_items(count, |_| {
                barrier.wait();
                let me = std::thread::current();
                me.name()
                    .map_or_else(|| format!("{:?}", me.id()), str::to_owned)
            })
            .into_iter()
            .collect()
    }

    #[test]
    fn the_caller_works_and_fewer_items_spawn_fewer_threads() {
        // Three items on Threads(8): the caller plus workers 1 and 2 — no
        // fourth thread exists to take an item.
        let caller = std::thread::current().name().map(str::to_owned);
        let got = threads_of_concurrent_items(Backend::Threads(8), 3);
        let want: BTreeSet<String> = [caller.expect("test threads are named")]
            .into_iter()
            .chain(["mpc-worker-1".to_string(), "mpc-worker-2".to_string()])
            .collect();
        assert_eq!(got, want);
    }

    /// Whether a loop item ran with no sibling beside it: it waits up to
    /// 50 ms for another item of the same loop to start.
    fn ran_alone(running: &AtomicUsize) -> bool {
        running.fetch_add(1, Ordering::SeqCst);
        let start = Instant::now();
        while running.load(Ordering::SeqCst) < 2 && start.elapsed() < Duration::from_millis(50) {
            std::thread::yield_now();
        }
        let alone = running.load(Ordering::SeqCst) == 1;
        running.fetch_sub(1, Ordering::SeqCst);
        alone
    }

    #[test]
    fn nested_pooled_loops_run_inline() {
        // Both outer items run at once, one on the caller and one on the
        // spawned worker. Each inner loop stays on its thread, one item
        // after the other: no inner item ever has a sibling beside it.
        let backend = Backend::Threads(2);
        let barrier = Barrier::new(2);
        let outer = backend.run_items(2, |_| {
            barrier.wait();
            let me = std::thread::current().id();
            let (items, chunks) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let inner = backend.run_items(2, |_| (std::thread::current().id(), ran_alone(&items)));
            let chunked = backend.run_chunks(2, 1, |_, _| {
                (std::thread::current().id(), ran_alone(&chunks))
            });
            let inline = inner
                .into_iter()
                .chain(chunked)
                .all(|(t, alone)| t == me && alone);
            (me, inline)
        });
        assert_ne!(outer[0].0, outer[1].0);
        assert!(outer.iter().all(|&(_, inline)| inline));
    }

    #[test]
    fn display_names() {
        assert_eq!(Backend::Sequential.to_string(), "sequential");
        assert_eq!(Backend::Threads(8).to_string(), "threads(8)");
    }
}
