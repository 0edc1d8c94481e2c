//! Type-erased executable units and panic capture.
//!
//! A [`JobRef`] is the executor's internal currency: a raw pointer to a
//! job descriptor plus a monomorphized `execute` function. Stack jobs
//! ([`crate::par`], `join`) point into the submitting caller's frame and
//! are sound because the caller blocks on a latch until every reference
//! has been executed; heap jobs (scope spawns) own their closure and free
//! themselves on execution.

use std::any::Any;

use parking_lot::Mutex;

/// A pointer to a job plus the function that runs it. The executor moves
/// these freely between worker queues.
pub(crate) struct JobRef {
    data: *const (),
    execute_fn: unsafe fn(*const ()),
    /// Submission timestamp for queue-wait accounting; 0 when the pool
    /// has no observability attached (the disabled path never reads the
    /// clock).
    enqueued_micros: u64,
}

// SAFETY: a JobRef is only ever created for job types whose execute
// function is safe to run from another thread (the job data is Sync or
// uniquely claimed), and the creator guarantees the pointee outlives
// execution.
unsafe impl Send for JobRef {}

impl JobRef {
    /// Wraps a job descriptor.
    ///
    /// # Safety
    /// `data` must stay valid until [`JobRef::execute`] has returned, and
    /// `execute_fn` must be executed at most once per submitted ref.
    pub(crate) unsafe fn new<T>(data: *const T, execute_fn: unsafe fn(*const ())) -> JobRef {
        JobRef {
            data: data.cast(),
            execute_fn,
            enqueued_micros: 0,
        }
    }

    /// The raw descriptor pointer (identity for `join`'s un-steal check).
    pub(crate) fn data(&self) -> *const () {
        self.data
    }

    /// Stamps the submission time (instrumented pools only).
    pub(crate) fn stamp_enqueued(&mut self, micros: u64) {
        self.enqueued_micros = micros;
    }

    /// The submission timestamp, or 0 when never stamped.
    pub(crate) fn enqueued_micros(&self) -> u64 {
        self.enqueued_micros
    }

    /// Runs the job.
    ///
    /// # Safety
    /// Must be called exactly once, while the descriptor is still alive.
    pub(crate) unsafe fn execute(self) {
        // SAFETY: the caller upholds this function's contract, which is
        // exactly the contract `JobRef::new` put on `execute_fn`.
        unsafe { (self.execute_fn)(self.data) }
    }
}

/// First-panic-wins capture: parallel arms run under `catch_unwind`, the
/// coordinating caller re-raises after every arm has finished (so stack
/// borrows stay sound even when a sibling panics).
#[derive(Default)]
pub(crate) struct PanicStore(Mutex<Option<Box<dyn Any + Send>>>);

impl PanicStore {
    /// Records a payload unless one is already stored.
    pub(crate) fn store(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.0.lock();
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    /// Re-raises the stored panic, if any, on the calling thread.
    pub(crate) fn resume_if_any(&self) {
        let payload = self.0.lock().take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}
