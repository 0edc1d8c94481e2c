//! # swag-exec — order-preserving parallel map on scoped threads
//!
//! The pipeline's two fan-out sites (the bulk pack of a bootstrap-sized
//! batch's touched shards, and the members of a query batch) are one
//! shape: map over independent items, keep input order. That is the whole API:
//! [`Executor::par_map`] and [`Executor::par_map_owned`].
//!
//! A parallel call opens one [`std::thread::scope`], splits the input
//! into at most [`Executor::threads`] contiguous chunks, runs the first
//! chunk on the caller and the rest on scoped threads, and concatenates
//! the outputs in input order. No thread outlives the call, so an idle
//! executor costs nothing, and a nested call opens its own scope.
//!
//! The serial executor ([`ExecConfig::serial`], or `SWAG_EXEC_THREADS=1`)
//! runs the plain in-order loop, so callers that consume the outputs in
//! order answer byte-identically in both modes — a property the test
//! suite checks by proptest. A panicking
//! chunk is re-raised on the caller with its payload once every chunk
//! has finished; the executor holds no state a panic could poison.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// How many threads an [`Executor`] may split a call across.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    threads: usize,
}

impl ExecConfig {
    /// Deterministic single-threaded execution.
    pub fn serial() -> ExecConfig {
        ExecConfig { threads: 1 }
    }

    /// Up to `threads` threads per call (clamped to at least 1).
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

    /// The configured thread count.
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
    /// Threads per call (1 for the serial executor).
    pub threads: usize,
    /// Scoped threads spawned over the executor's lifetime.
    pub tasks: u64,
    /// Always 0: scoped chunks are never stolen. The field stays only
    /// because the end-to-end benchmark reports it.
    pub steals: u64,
}

/// A thread budget plus a spawn counter. Cheap to clone; clones share
/// the counter. The serial executor has none, so building one on a hot
/// path allocates nothing.
#[derive(Clone, Debug)]
pub struct Executor {
    threads: usize,
    tasks: Option<Arc<AtomicU64>>,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::serial()
    }
}

impl Executor {
    /// Builds an executor; `threads <= 1` yields the serial executor.
    pub fn new(config: ExecConfig) -> Executor {
        Executor {
            threads: config.threads,
            tasks: (config.threads > 1).then(Arc::default),
        }
    }

    /// The deterministic in-order executor.
    pub fn serial() -> Executor {
        Executor::new(ExecConfig::serial())
    }

    /// The process-wide executor, built from [`ExecConfig::from_env`] on
    /// first use.
    pub fn global() -> &'static Executor {
        static GLOBAL: OnceLock<Executor> = OnceLock::new();
        GLOBAL.get_or_init(|| Executor::new(ExecConfig::from_env()))
    }

    /// Threads per call (1 when serial).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this executor runs everything inline on the caller.
    pub fn is_serial(&self) -> bool {
        self.threads <= 1
    }

    /// Lifetime counters for this executor and its clones.
    pub fn stats(&self) -> ExecStats {
        ExecStats {
            threads: self.threads,
            tasks: self.tasks.as_ref().map_or(0, |t| t.load(Ordering::Relaxed)),
            steals: 0,
        }
    }

    /// Maps `f` over `items`, preserving input order. Serial executors
    /// (and inputs of at most one item) map in order on the caller, so
    /// results are identical in both modes.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.is_serial() || items.len() <= 1 {
            return items.iter().map(f).collect();
        }
        let chunk = items.len().div_ceil(self.threads);
        self.map_chunks(items.chunks(chunk), |c| c.iter().map(&f).collect())
    }

    /// [`Executor::par_map`] over owned items.
    pub fn par_map_owned<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        if self.is_serial() || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        let chunk = items.len().div_ceil(self.threads);
        let mut rest = items.into_iter();
        let chunks = std::iter::from_fn(|| {
            let c: Vec<T> = rest.by_ref().take(chunk).collect();
            (!c.is_empty()).then_some(c)
        });
        self.map_chunks(chunks, |c| c.into_iter().map(&f).collect())
    }

    /// Runs `g` over every chunk — the first on the caller, the rest on
    /// scoped threads — and concatenates the outputs in chunk order,
    /// re-raising the first panicking chunk's payload.
    fn map_chunks<C, R>(
        &self,
        chunks: impl Iterator<Item = C>,
        g: impl Fn(C) -> Vec<R> + Sync,
    ) -> Vec<R>
    where
        C: Send,
        R: Send,
    {
        let g = &g;
        std::thread::scope(|s| {
            let mut chunks = chunks;
            let first = chunks.next();
            let spawned: Vec<_> = chunks.map(|c| s.spawn(move || g(c))).collect();
            if let Some(tasks) = &self.tasks {
                tasks.fetch_add(spawned.len() as u64, Ordering::Relaxed);
            }
            let mut out = first.map(g).unwrap_or_default();
            for handle in spawned {
                match handle.join() {
                    Ok(part) => out.extend(part),
                    Err(payload) => resume_unwind(payload),
                }
            }
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A panicking chunk re-raises its own payload on the caller — whether
    /// it is the caller's chunk or a spawned one — and the executor stays
    /// usable.
    #[test]
    fn par_map_propagates_panic() {
        let exec = Executor::new(ExecConfig::with_threads(2));
        let items: Vec<usize> = (0..32).collect();
        for bad in [0, 17, 31] {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                exec.par_map(&items, |&i| {
                    if i == bad {
                        panic!("boom at {i}");
                    }
                    i
                })
            }));
            let payload = result.expect_err("the panic propagates");
            assert_eq!(
                payload.downcast_ref::<String>().unwrap(),
                &format!("boom at {bad}")
            );
            let out = exec.par_map(&items, |&i| i + 1);
            assert_eq!(out, items.iter().map(|i| i + 1).collect::<Vec<_>>());
        }
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
        let _ = exec.clone().par_map(&items, |&i| i);
        let stats = exec.stats();
        assert_eq!(stats.threads, 2);
        // Two chunks: the caller runs one, one scoped thread the other.
        assert_eq!((stats.tasks, stats.steals), (1, 0));
    }
}
