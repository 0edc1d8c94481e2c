//! Counting completion latch.
//!
//! Coordinating callers spin-help on the pool while the latch is open and
//! park briefly when no work is available; the final decrement notifies
//! under the lock so a parked waiter cannot miss it.
//!
//! A latch usually lives in the coordinator's stack frame, which dies as
//! soon as the coordinator sees it set. So a job's *last touch* of the
//! latch must happen-before [`CountLatch::is_set`] can return `true`:
//! [`CountLatch::set_one`] decrements and notifies inside the lock, and
//! `is_set` passes through the lock once after it reads zero — it cannot
//! get in before the final setter is out.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, PoisonError};
use std::time::Duration;

use parking_lot::Mutex;

/// Counts outstanding jobs; "set" when the count reaches zero.
pub(crate) struct CountLatch {
    count: AtomicUsize,
    lock: Mutex<()>,
    cvar: Condvar,
}

impl CountLatch {
    /// A latch with `count` outstanding jobs.
    pub(crate) fn new(count: usize) -> Self {
        CountLatch {
            count: AtomicUsize::new(count),
            lock: Mutex::new(()),
            cvar: Condvar::new(),
        }
    }

    /// Adds one outstanding job. Must happen-before the matching
    /// [`Self::set_one`] (callers increment before submitting).
    pub(crate) fn increment(&self) {
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one job done. The whole step runs under the lock, so the
    /// unlock is this job's last touch of the latch (see the module
    /// docs). The `Release` pairs with the waiter's `Acquire` load so the
    /// job's writes are visible once the latch reads zero.
    pub(crate) fn set_one(&self) {
        let _guard = self.lock.lock();
        if self.count.fetch_sub(1, Ordering::Release) == 1 {
            self.cvar.notify_all();
        }
    }

    /// Whether every job has finished *and left the latch*: once this
    /// returns `true` the caller may free it.
    pub(crate) fn is_set(&self) -> bool {
        if self.count.load(Ordering::Acquire) != 0 {
            return false;
        }
        // Zero was stored under the lock; acquiring it here waits out
        // the setter that stored it.
        drop(self.lock.lock());
        true
    }

    /// Parks the caller until notified or `timeout` elapses. The timeout
    /// bounds the missed-wakeup window for *pool* work arriving while we
    /// sleep on the latch (latch completion itself is never missed: the
    /// zero check below happens under the same lock as `set_one`'s
    /// decrement and notification).
    pub(crate) fn park(&self, timeout: Duration) {
        let guard = self.lock.lock();
        if self.count.load(Ordering::Acquire) == 0 {
            return;
        }
        let _ = self
            .cvar
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner);
    }
}
