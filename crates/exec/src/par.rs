//! Parallel primitives: indexed map over slices, binary `join`, and a
//! spawn scope. All of them fall back to plain in-order serial execution
//! when the executor has no pool, so `ExecConfig::serial()` reproduces
//! byte-identical results.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::job::{JobRef, PanicStore};
use crate::latch::CountLatch;
use crate::pool::Pool;
use crate::Executor;

/// A write-once output cell; workers write disjoint indices, the
/// coordinator reads only after the latch proves all writes finished.
struct Slot<R>(UnsafeCell<Option<R>>);

// SAFETY: access is partitioned by index (each worker chunk writes its
// own slots exactly once) and ordered by the CountLatch release/acquire
// pair before the coordinator reads.
unsafe impl<R: Send> Sync for Slot<R> {}

/// A take-once input cell for owned items, mirroring [`Slot`].
struct TakeCell<T>(UnsafeCell<Option<T>>);

// SAFETY: same partitioning argument as `Slot` — each index is taken by
// exactly one worker chunk.
unsafe impl<T: Send> Sync for TakeCell<T> {}

/// Shared descriptor for one `par_map` invocation; lives on the
/// coordinator's stack for the duration of the call.
struct ParJob<'a, R, F> {
    f: &'a F,
    get_len: usize,
    chunk: usize,
    next: AtomicUsize,
    slots: &'a [Slot<R>],
    latch: CountLatch,
    panic: PanicStore,
}

/// Runs one chunk claim: grabs the next chunk index and maps its items.
unsafe fn execute_par_job<R, F: Fn(usize) -> R + Sync>(data: *const ()) {
    // SAFETY: `data` is the `ParJob` submitted by `par_collect_indexed`,
    // which blocks on the job's latch until every chunk ref has run, so
    // the descriptor is alive and of this exact type.
    let job = unsafe { &*data.cast::<ParJob<'_, R, F>>() };
    let c = job.next.fetch_add(1, Ordering::Relaxed);
    let start = c * job.chunk;
    let end = (start + job.chunk).min(job.get_len);
    let result = catch_unwind(AssertUnwindSafe(|| {
        for i in start..end {
            let value = (job.f)(i);
            // SAFETY: index `i` belongs exclusively to chunk `c`.
            unsafe { *job.slots[i].0.get() = Some(value) };
        }
    }));
    if let Err(payload) = result {
        job.panic.store(payload);
    }
    job.latch.set_one();
}

/// Maps `f` over `0..len` on the pool, returning results in index order.
fn par_collect_indexed<R, F>(pool: &Pool, len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = pool.threads();
    // ~4 chunks per worker balances steal granularity against per-chunk
    // submit overhead.
    let chunk = len.div_ceil(threads * 4).max(1);
    let n_chunks = len.div_ceil(chunk);
    let slots: Vec<Slot<R>> = (0..len).map(|_| Slot(UnsafeCell::new(None))).collect();
    let job = ParJob {
        f: &f,
        get_len: len,
        chunk,
        next: AtomicUsize::new(0),
        slots: &slots,
        latch: CountLatch::new(n_chunks),
        panic: PanicStore::default(),
    };
    for _ in 0..n_chunks {
        // SAFETY: `job` outlives the wait below, and exactly `n_chunks`
        // refs are submitted for `n_chunks` chunk claims.
        pool.submit(unsafe { JobRef::new(&job as *const _, execute_par_job::<R, F>) });
    }
    pool.wait(&job.latch);
    job.panic.resume_if_any();
    slots
        .into_iter()
        .map(|s| s.0.into_inner().expect("par_map slot filled"))
        .collect()
}

/// Descriptor for `join`'s second arm.
struct JoinJob<B, RB> {
    b: UnsafeCell<Option<B>>,
    result: UnsafeCell<Option<RB>>,
    latch: CountLatch,
    panic: PanicStore,
}

// SAFETY: the closure is taken exactly once (by the worker that executes
// the submitted ref, or by the coordinator after reclaiming it via
// `pop_if`); the result is read only after the latch is set.
unsafe impl<B: Send, RB: Send> Sync for JoinJob<B, RB> {}

unsafe fn execute_join_job<B: FnOnce() -> RB, RB>(data: *const ()) {
    // SAFETY: `data` is the `JoinJob` on `join`'s stack frame, which
    // waits on the job's latch before returning, so it is alive here.
    let job = unsafe { &*data.cast::<JoinJob<B, RB>>() };
    // SAFETY: single taker, see JoinJob's Sync justification.
    let b = unsafe { (*job.b.get()).take().expect("join arm taken once") };
    match catch_unwind(AssertUnwindSafe(b)) {
        // SAFETY: only this single execution writes `result`; the
        // coordinator reads it after the latch below is set.
        Ok(rb) => unsafe { *job.result.get() = Some(rb) },
        Err(payload) => job.panic.store(payload),
    }
    job.latch.set_one();
}

/// Heap-allocated job for scope spawns; frees itself on execution.
struct HeapJob<F> {
    f: F,
    core: *const ScopeCore,
}

unsafe fn execute_heap_job<F: FnOnce() + Send>(data: *const ()) {
    // SAFETY: exactly one ref was created from this Box in `Scope::spawn`.
    let job = unsafe { Box::from_raw(data.cast::<HeapJob<F>>().cast_mut()) };
    // SAFETY: the ScopeCore outlives all spawns (scope() blocks on the
    // latch before returning).
    let core = unsafe { &*job.core };
    if let Err(payload) = catch_unwind(AssertUnwindSafe(job.f)) {
        core.panic.store(payload);
    }
    core.latch.set_one();
}

/// Non-generic heart of a scope: completion latch plus panic store.
pub(crate) struct ScopeCore {
    latch: CountLatch,
    panic: PanicStore,
}

/// Spawn handle passed to the closure given to [`Executor::scope`].
///
/// `'scope` is the lifetime of the scope itself; spawned closures must
/// outlive it (`'env`: borrows from outside the scope are fine, borrows
/// of scope-local data are not — same shape as `std::thread::scope`).
pub struct Scope<'scope, 'env: 'scope> {
    pool: Option<&'scope Pool>,
    core: &'scope ScopeCore,
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Runs `f` on the pool (or inline in serial mode). Completion is
    /// awaited — and any panic re-raised — when the enclosing
    /// [`Executor::scope`] call returns.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        match self.pool {
            None => {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                    self.core.panic.store(payload);
                }
            }
            Some(pool) => {
                self.core.latch.increment();
                let job = Box::new(HeapJob {
                    f,
                    core: self.core as *const ScopeCore,
                });
                let data = Box::into_raw(job);
                // SAFETY: `data` is a fresh heap allocation consumed
                // exactly once by `execute_heap_job`.
                pool.submit(unsafe { JobRef::new(data, execute_heap_job::<F>) });
            }
        }
    }
}

impl Executor {
    /// Maps `f` over `items` on the pool, preserving input order. Serial
    /// executors (and trivial inputs) map in-place in order, so results
    /// are identical in both modes.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        match self.pool() {
            Some(pool) if items.len() > 1 => {
                par_collect_indexed(pool, items.len(), |i| f(&items[i]))
            }
            _ => items.iter().map(f).collect(),
        }
    }

    /// [`Executor::par_map`] over owned items.
    pub fn par_map_owned<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        match self.pool() {
            Some(pool) if items.len() > 1 => {
                let cells: Vec<TakeCell<T>> = items
                    .into_iter()
                    .map(|t| TakeCell(UnsafeCell::new(Some(t))))
                    .collect();
                par_collect_indexed(pool, cells.len(), |i| {
                    // SAFETY: index `i` is visited by exactly one chunk.
                    let item = unsafe { (*cells[i].0.get()).take() };
                    f(item.expect("par_map_owned item taken once"))
                })
            }
            _ => items.into_iter().map(f).collect(),
        }
    }

    /// Runs `a` and `b`, potentially in parallel, returning both results.
    /// Serial executors run `a` then `b` in order.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        let Some(pool) = self.pool() else {
            return (a(), b());
        };
        let job = JoinJob {
            b: UnsafeCell::new(Some(b)),
            result: UnsafeCell::new(None),
            latch: CountLatch::new(1),
            panic: PanicStore::default(),
        };
        let data = &job as *const JoinJob<B, RB>;
        // SAFETY: `job` outlives the wait below; the ref is executed at
        // most once (by a thief, or reclaimed via pop_if and run inline).
        pool.submit(unsafe { JobRef::new(data, execute_join_job::<B, RB>) });
        let ra = catch_unwind(AssertUnwindSafe(a));
        if let Some(reclaimed) = pool.pop_if(data.cast()) {
            // SAFETY: reclaiming removed the queued ref, so this is the
            // single execution.
            unsafe { reclaimed.execute() };
        }
        // Wait for `b` before re-raising `a`'s panic: `job` lives on this
        // stack frame and a thief may still be running it.
        pool.wait(&job.latch);
        let ra = match ra {
            Ok(ra) => ra,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        job.panic.resume_if_any();
        // SAFETY: latch set → the arm finished and its write is visible.
        let rb = unsafe { (*job.result.get()).take() };
        (ra, rb.expect("join arm produced a result"))
    }

    /// Structured-concurrency scope: `f` may `spawn` tasks borrowing
    /// `'env` data; all spawns complete (and panics re-raise) before
    /// `scope` returns. Serial executors run spawns inline in call order.
    pub fn scope<'env, R>(
        &self,
        f: impl for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    ) -> R {
        let core = ScopeCore {
            latch: CountLatch::new(0),
            panic: PanicStore::default(),
        };
        let scope = Scope {
            pool: self.pool(),
            core: &core,
            _env: std::marker::PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Even if `f` panicked, spawned tasks may still borrow `'env`
        // data reachable through `core` — drain them before unwinding.
        if let Some(pool) = self.pool() {
            pool.wait(&core.latch);
        }
        let result = match result {
            Ok(r) => r,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        core.panic.resume_if_any();
        result
    }
}
