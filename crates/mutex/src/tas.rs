//! Test-and-set and test-and-test-and-set locks (RMR-model baselines).

use crate::mem::{Backend, Native, Ordering, SharedBool, Site};
use crate::spin::SpinWait;
use crate::RawMutex;
use std::fmt;

/// A plain test-and-set spin lock.
///
/// Every acquisition attempt performs an atomic `swap`, which in the CC cost
/// model is a write and therefore always a remote memory reference: under
/// contention a waiter generates an **unbounded** number of RMRs. This lock
/// exists as the negative baseline for the RMR experiments (E7) — it is what
/// the constant-RMR designs are *not*.
///
/// Generic over the memory backend `B` ([`Native`] by default).
///
/// # Example
///
/// ```
/// use rmr_mutex::{RawMutex, TasLock};
///
/// let lock = TasLock::new();
/// let t = lock.lock();
/// lock.unlock(t);
/// ```
pub struct TasLock<B: Backend = Native> {
    held: B::Bool,
}

impl TasLock {
    /// Creates an unlocked lock.
    pub fn new() -> Self {
        Self::new_in(Native)
    }
}

impl Default for TasLock {
    fn default() -> Self {
        Self::new()
    }
}

impl<B: Backend> TasLock<B> {
    /// Creates an unlocked lock over the given memory backend.
    pub fn new_in(_backend: B) -> Self {
        Self { held: B::Bool::new(false) }
    }

    /// Attempts to acquire without waiting; `true` on success.
    pub fn try_lock(&self) -> bool {
        // Acquire: a successful swap must see every write released by the
        // previous holder's unlock store before the critical section runs.
        !self.held.swap(true, Ordering::Acquire)
    }
}

impl<B: Backend> RawMutex for TasLock<B> {
    type Token = ();

    fn lock(&self) {
        let mut spin = SpinWait::new();
        // Acquire on the winning swap pairs with the Release unlock store;
        // losing iterations need no ordering, but the swap is one op.
        while self.held.swap(true, Ordering::Acquire) {
            spin.spin();
        }
    }

    fn unlock(&self, (): ()) {
        // Release: publishes the critical section's writes to the next
        // holder, whose Acquire swap synchronizes with this store.
        self.held.store(false, Ordering::Release);
    }
}

impl<B: Backend> fmt::Debug for TasLock<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Diagnostic snapshot only; no synchronization rides on it.
        f.debug_struct("TasLock").field("held", &self.held.load(Ordering::Relaxed)).finish()
    }
}

/// A test-and-test-and-set spin lock.
///
/// Waiters spin on a cached *read* of the flag and only attempt the `swap`
/// after observing it free. Under the CC model this costs O(1) RMRs per
/// *release* per waiter (every release invalidates all waiters' cached
/// copies), i.e. O(n) RMRs per lock handoff in aggregate — better than
/// [`TasLock`], still far from the O(1) queue locks.
///
/// Generic over the memory backend `B` ([`Native`] by default).
///
/// # Example
///
/// ```
/// use rmr_mutex::{RawMutex, TtasLock};
///
/// let lock = TtasLock::new();
/// let t = lock.lock();
/// lock.unlock(t);
/// ```
pub struct TtasLock<B: Backend = Native> {
    held: B::Bool,
}

impl TtasLock {
    /// Creates an unlocked lock.
    pub fn new() -> Self {
        Self::new_in(Native)
    }
}

impl Default for TtasLock {
    fn default() -> Self {
        Self::new()
    }
}

impl<B: Backend> TtasLock<B> {
    /// Creates an unlocked lock over the given memory backend.
    pub fn new_in(_backend: B) -> Self {
        Self { held: B::Bool::new(false) }
    }

    /// Attempts to acquire without waiting; `true` on success.
    ///
    /// Test-first, like the blocking path: the swap is only attempted when
    /// the flag reads free, so a failed try on a held lock costs one read.
    ///
    /// # Example
    ///
    /// ```
    /// use rmr_mutex::{RawMutex, TtasLock};
    ///
    /// let lock = TtasLock::new();
    /// assert!(lock.try_lock());
    /// assert!(!lock.try_lock());
    /// lock.unlock(());
    /// ```
    pub fn try_lock(&self) -> bool {
        // The pre-check is a heuristic (Relaxed): correctness rides
        // entirely on the Acquire swap that follows (site TT-SWAP).
        if self.held.load(Ordering::Relaxed) {
            return false;
        }
        B::site(Site::TtSwap);
        !self.held.swap(true, Ordering::Acquire)
    }
}

impl<B: Backend> RawMutex for TtasLock<B> {
    type Token = ();

    fn lock(&self) {
        let mut spin = SpinWait::new();
        loop {
            // Local phase: spin on the cached value. Relaxed — a stale
            // "free" only costs a futile swap attempt; a stale "held" only
            // delays; the Acquire swap below carries the synchronization.
            while self.held.load(Ordering::Relaxed) {
                spin.spin();
            }
            // Global phase: one RMW attempt (site TT-SWAP). Acquire
            // pairs with the Release unlock store of the previous holder.
            B::site(Site::TtSwap);
            if !self.held.swap(true, Ordering::Acquire) {
                return;
            }
        }
    }

    fn unlock(&self, (): ()) {
        // Release: publishes the critical section's writes to the next
        // holder's Acquire swap.
        self.held.store(false, Ordering::Release);
    }
}

impl<B: Backend> fmt::Debug for TtasLock<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Diagnostic snapshot only; no synchronization rides on it.
        f.debug_struct("TtasLock").field("held", &self.held.load(Ordering::Relaxed)).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::exclusion_stress;

    #[test]
    fn tas_try_lock_reports_state() {
        let lock = TasLock::new();
        assert!(lock.try_lock());
        assert!(!lock.try_lock());
        lock.unlock(());
        assert!(lock.try_lock());
    }

    #[test]
    fn tas_exclusion_under_contention() {
        exclusion_stress(TasLock::new(), 8, 200);
    }

    #[test]
    fn ttas_exclusion_under_contention() {
        exclusion_stress(TtasLock::new(), 8, 200);
    }

    #[test]
    fn ttas_single_thread_cycles() {
        let lock = TtasLock::new();
        for _ in 0..1000 {
            lock.lock();
            lock.unlock(());
        }
    }
}
