//! # swag-exec — work-stealing executor
//!
//! A small, dependency-free thread pool built for the retrieval
//! pipeline's three hot loops: per-query shard fan-out, publish-time STR
//! rebuilds, and batched query execution. The API is deliberately tiny:
//!
//! - [`Executor::par_map`] / [`Executor::par_map_owned`] — order-
//!   preserving parallel map over a slice / owned items.
//! - [`Executor::join`] — run two closures, potentially in parallel.
//! - [`Executor::scope`] — structured spawns borrowing the environment.
//!
//! ## Determinism
//!
//! Every primitive preserves *result order*: `par_map` returns outputs
//! at their input index, `join` returns `(a, b)`, and the serial
//! executor ([`ExecConfig::serial`], or `SWAG_EXEC_THREADS=1`) degrades
//! each primitive to plain in-order execution. Callers that merge
//! parallel partial results deterministically (as the server's shard
//! fan-out does) therefore produce byte-identical output in serial and
//! parallel mode — a property the test suite checks by proptest.
//!
//! ## Blocking and nesting
//!
//! A caller blocked on a parallel call *helps*: it executes pool work
//! while it waits, so nested parallelism from inside a worker cannot
//! deadlock even on a single-thread pool.

#![deny(clippy::undocumented_unsafe_blocks)]

mod job;
mod latch;
mod par;
mod pool;

use std::sync::{Arc, OnceLock};

pub use par::Scope;
use pool::{Pool, PoolHandle};
use swag_obs::Registry;

/// How many worker threads an [`Executor`] should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    threads: usize,
}

impl ExecConfig {
    /// Deterministic single-threaded execution (no pool at all).
    pub fn serial() -> ExecConfig {
        ExecConfig { threads: 1 }
    }

    /// A pool with `threads` workers (clamped to at least 1).
    pub fn with_threads(threads: usize) -> ExecConfig {
        ExecConfig {
            threads: threads.max(1),
        }
    }

    /// Reads `SWAG_EXEC_THREADS` (any positive integer; `1` means
    /// serial), falling back to the machine's available parallelism.
    pub fn from_env() -> ExecConfig {
        let threads = std::env::var("SWAG_EXEC_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        ExecConfig::with_threads(threads)
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig::from_env()
    }
}

/// Point-in-time executor counters (see [`Executor::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Worker threads (1 for the serial executor).
    pub threads: usize,
    /// Jobs submitted over the executor's lifetime.
    pub tasks: u64,
    /// Jobs taken from another worker's deque.
    pub steals: u64,
}

/// Handle to a work-stealing pool (or the serial fallback). Cheap to
/// clone; clones share the same workers.
#[derive(Clone, Default)]
pub struct Executor {
    inner: Option<Arc<PoolHandle>>,
}

impl Executor {
    /// Builds an executor; `threads <= 1` yields the serial executor.
    pub fn new(config: ExecConfig) -> Executor {
        if config.threads <= 1 {
            return Executor::serial();
        }
        Executor {
            inner: Some(Arc::new(PoolHandle::spawn(config.threads))),
        }
    }

    /// The deterministic no-pool executor.
    pub fn serial() -> Executor {
        Executor { inner: None }
    }

    /// The process-wide executor, built from [`ExecConfig::from_env`] on
    /// first use.
    pub fn global() -> &'static Executor {
        static GLOBAL: OnceLock<Executor> = OnceLock::new();
        GLOBAL.get_or_init(|| Executor::new(ExecConfig::from_env()))
    }

    /// Worker count (1 when serial).
    pub fn threads(&self) -> usize {
        self.inner.as_ref().map_or(1, |h| h.pool().threads())
    }

    /// Whether this executor runs everything inline on the caller.
    pub fn is_serial(&self) -> bool {
        self.inner.is_none()
    }

    /// Resolves the pool's metric handles (`swag_exec_tasks_total`,
    /// `swag_exec_steals_total`, `swag_exec_queue_depth`) against
    /// `registry`. First call wins; later calls are no-ops.
    pub fn attach_observability(&self, registry: &Registry) {
        if let Some(handle) = &self.inner {
            handle.pool().attach_observability(registry);
        }
    }

    /// Lifetime counters for this executor's pool.
    pub fn stats(&self) -> ExecStats {
        match &self.inner {
            None => ExecStats {
                threads: 1,
                tasks: 0,
                steals: 0,
            },
            Some(handle) => ExecStats {
                threads: handle.pool().threads(),
                tasks: handle.pool().tasks_submitted(),
                steals: handle.pool().steals(),
            },
        }
    }

    pub(crate) fn pool(&self) -> Option<&Pool> {
        self.inner.as_deref().map(|h| h.pool().as_ref())
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.threads())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn serial_par_map_is_in_order() {
        let exec = Executor::serial();
        let out = exec.par_map(&[1, 2, 3], |x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn parallel_par_map_preserves_order() {
        let exec = Executor::new(ExecConfig::with_threads(4));
        let items: Vec<u64> = (0..1000).collect();
        let out = exec.par_map(&items, |x| x * x);
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn par_map_owned_moves_items() {
        let exec = Executor::new(ExecConfig::with_threads(3));
        let items: Vec<String> = (0..64).map(|i| i.to_string()).collect();
        let out = exec.par_map_owned(items, |s| s.len());
        let expected: Vec<usize> = (0..64).map(|i| i.to_string().len()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn join_returns_both() {
        let exec = Executor::new(ExecConfig::with_threads(2));
        let (a, b) = exec.join(|| 1 + 1, || "two");
        assert_eq!((a, b), (2, "two"));
    }

    #[test]
    fn join_serial_runs_in_order() {
        let exec = Executor::serial();
        let order = std::sync::Mutex::new(Vec::new());
        let (_, _) = exec.join(
            || order.lock().unwrap().push('a'),
            || order.lock().unwrap().push('b'),
        );
        assert_eq!(*order.lock().unwrap(), vec!['a', 'b']);
    }

    #[test]
    fn scope_runs_all_spawns() {
        let exec = Executor::new(ExecConfig::with_threads(4));
        let counter = AtomicUsize::new(0);
        exec.scope(|s| {
            for _ in 0..100 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn nested_par_map_completes() {
        let exec = Executor::new(ExecConfig::with_threads(2));
        let outer: Vec<usize> = (0..8).collect();
        let out = exec.par_map(&outer, |&i| {
            let inner: Vec<usize> = (0..16).collect();
            exec.par_map(&inner, |&j| i * 100 + j).iter().sum::<usize>()
        });
        let expected: Vec<usize> = (0..8).map(|i| (0..16).map(|j| i * 100 + j).sum()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn par_map_propagates_panic() {
        let exec = Executor::new(ExecConfig::with_threads(2));
        let items: Vec<usize> = (0..32).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.par_map(&items, |&i| {
                if i == 17 {
                    panic!("boom at {i}");
                }
                i
            })
        }));
        assert!(result.is_err());
        // Pool stays usable after a panic.
        let out = exec.par_map(&items, |&i| i + 1);
        assert_eq!(out.len(), 32);
    }

    #[test]
    fn join_propagates_a_panic_after_b_finishes() {
        let exec = Executor::new(ExecConfig::with_threads(2));
        let b_ran = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            exec.join(
                || panic!("a failed"),
                || b_ran.fetch_add(1, Ordering::SeqCst),
            )
        }));
        assert!(result.is_err());
        assert_eq!(b_ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn env_config_parses() {
        assert_eq!(ExecConfig::with_threads(0).threads(), 1);
        assert_eq!(ExecConfig::serial().threads(), 1);
        assert!(ExecConfig::from_env().threads() >= 1);
    }

    #[test]
    fn stats_count_tasks() {
        let exec = Executor::new(ExecConfig::with_threads(2));
        let items: Vec<usize> = (0..100).collect();
        let _ = exec.par_map(&items, |&i| i);
        let stats = exec.stats();
        assert_eq!(stats.threads, 2);
        assert!(stats.tasks > 0);
    }
}
