//! The unified typed, RAII-guarded front end over the raw locks.
//!
//! One guard machinery serves every lock in the workspace — the paper's
//! three multi-writer policies, the two single-writer algorithms (through
//! [`crate::swmr_rwlock`], which is a thin wrapper over this module), and
//! the baselines in `rmr-baselines`.
//!
//! Two ways to use a [`RwLock`]:
//!
//! * **Leased pids (ergonomic default).** Call [`RwLock::read`] /
//!   [`RwLock::write`] directly, like `std::sync::RwLock`. The first
//!   acquisition on a thread leases a [`Pid`] from the lock's
//!   [`PidRegistry`]; the lease is cached in thread-local storage, reused
//!   by every later acquisition on that thread, and returned automatically
//!   when the thread exits.
//! * **Pinned pids (explicit control).** Call [`RwLock::register`] once
//!   per participant to obtain a [`LockHandle`] that owns its pid until
//!   dropped. Guard-taking methods borrow the handle mutably, which
//!   enforces the paper's "one attempt at a time per process" discipline
//!   at compile time. Use this when pid identity matters (e.g. pinning
//!   pids to cores) or when registration failure must be handled as a
//!   `Result` rather than a panic.
//!
//! Where the raw lock supports the non-blocking tier
//! ([`RawTryReadLock`] / [`RawTryRwLock`]), the front end additionally
//! exposes [`RwLock::try_read`] / [`RwLock::try_write`].

use crate::mwmr::{MwmrReaderPriority, MwmrStarvationFree, MwmrWriterPriority};
use crate::observed::Observed;
use crate::raw::{RawMultiWriter, RawRwLock, RawTryReadLock, RawTryRwLock};
use crate::registry::{Pid, PidRegistry, RegistryFull};
use rmr_obs::{NoopRecorder, Recorder};
use std::cell::{Cell, RefCell, UnsafeCell};
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Weak};

// ---------------------------------------------------------------------
// Thread-local pid leasing
// ---------------------------------------------------------------------

/// One cached lease: this thread holds `pid` of the registry behind `reg`.
///
/// `busy` is set while a leased guard is open, so a nested acquisition on
/// the same thread takes a distinct (transient) pid instead of reusing one
/// that is mid-attempt — reusing it would violate the raw contract's "one
/// attempt at a time per process".
struct LeaseEntry {
    reg: Weak<PidRegistry>,
    pid: Pid,
    busy: Cell<bool>,
}

/// Per-thread lease table. Dropped at thread exit, returning every still
/// live pid to its registry.
#[derive(Default)]
struct LeaseTable {
    entries: RefCell<Vec<LeaseEntry>>,
}

impl Drop for LeaseTable {
    fn drop(&mut self) {
        for entry in self.entries.borrow().iter() {
            // A still-busy lease means its guard was leaked (mem::forget):
            // the raw lock session for that pid is still open, so the pid
            // must stay reserved forever rather than be re-issued into the
            // middle of an unfinished attempt.
            if entry.busy.get() {
                continue;
            }
            // A dead Weak means the lock (and its registry) is already
            // gone; nothing to return. The Weak keeps the allocation
            // alive, so the pointer can never be reused by another
            // registry while this entry exists.
            if let Some(reg) = entry.reg.upgrade() {
                reg.release(entry.pid);
            }
        }
    }
}

thread_local! {
    static LEASES: LeaseTable = LeaseTable::default();
}

/// How a guard came by its pid; decides what its release must undo.
///
/// Returned by [`lease_pid`] and consumed by [`release_pid`]. Mostly an
/// internal detail of the guard machinery, but public so other tiers that
/// borrow a pid per passage (the `rmr-swap` snapshot guards) can share the
/// same thread-local lease cache instead of duplicating it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PidSource {
    /// Owned by a [`LockHandle`]; the handle releases it.
    Handle,
    /// The thread's cached lease; clear the busy flag on drop.
    Lease,
    /// Allocated just for this (nested) guard; return it on drop.
    Transient,
}

/// Leases a pid from `registry` for the calling thread: the thread's
/// cached lease if it is free, a transient pid if the lease is mid-attempt
/// (a nested guard), a fresh cached lease otherwise.
///
/// This is the leasing engine behind [`RwLock::read`] / [`RwLock::write`],
/// exposed so sibling tiers (e.g. `rmr-swap`'s `Snapshot::load`) can
/// participate in the same per-thread cache. Every successful call must be
/// paired with exactly one [`release_pid`] with the returned source.
pub fn lease_pid(registry: &Arc<PidRegistry>) -> Result<(Pid, PidSource), RegistryFull> {
    let key = Arc::as_ptr(registry);
    let leased = LEASES.try_with(|table| {
        let mut entries = table.entries.borrow_mut();
        // Fast path: cached-lease hit, no table maintenance.
        if let Some(e) = entries.iter().find(|e| std::ptr::eq(e.reg.as_ptr(), key)) {
            if e.busy.get() {
                // Nested acquisition: the cached pid is mid-attempt.
                let pid = registry.allocate()?;
                return Ok((pid, PidSource::Transient));
            }
            e.busy.set(true);
            return Ok((e.pid, PidSource::Lease));
        }
        // Miss (first acquisition against this registry on this thread):
        // sweep leases whose lock is gone before growing the table. Dead
        // entries are harmless until now — their Weak pins the
        // allocation, so the key can never collide.
        entries.retain(|e| e.reg.strong_count() > 0);
        let pid = registry.allocate()?;
        entries.push(LeaseEntry { reg: Arc::downgrade(registry), pid, busy: Cell::new(true) });
        Ok((pid, PidSource::Lease))
    });
    // During thread teardown the lease table may already be destroyed
    // (acquiring from another thread_local's destructor, which
    // std::sync::RwLock supports). Fall back to a transient pid —
    // matching the try_with tolerance on the release side.
    leased.unwrap_or_else(|_destroyed| registry.allocate().map(|pid| (pid, PidSource::Transient)))
}

/// Releases whatever hold `source` has on `pid`: the inverse of
/// [`lease_pid`] (guard drops and failed try-acquires share this).
pub fn release_pid(registry: &Arc<PidRegistry>, pid: Pid, source: PidSource) {
    match source {
        PidSource::Handle => {}
        PidSource::Transient => registry.release(pid),
        PidSource::Lease => {
            let key = Arc::as_ptr(registry);
            let cleared = LEASES.try_with(|table| {
                if let Ok(entries) = table.entries.try_borrow() {
                    if let Some(e) = entries.iter().find(|e| std::ptr::eq(e.reg.as_ptr(), key)) {
                        e.busy.set(false);
                    }
                }
            });
            // During thread teardown the table may already be destroyed.
            // Its Drop deliberately *skipped* this pid (the guard was
            // still open, busy = true), so the guard must return it to
            // the registry itself or the slot would leak; no double
            // release is possible for the same reason.
            if cleared.is_err() {
                registry.release(pid);
            }
        }
    }
}

// ---------------------------------------------------------------------
// RwLock
// ---------------------------------------------------------------------

/// A reader-writer lock protecting a value of type `T`, generic over the
/// raw lock policy `L`.
///
/// Use the policy-named constructors:
/// [`RwLock::starvation_free`] (Theorem 3), [`RwLock::reader_priority`]
/// (Theorem 4), [`RwLock::writer_priority`] (Theorem 5) — or
/// [`RwLock::with_raw`] for any other [`RawRwLock`] (e.g. the baselines in
/// `rmr-baselines`).
///
/// # Example
///
/// No registration ceremony — threads acquire directly and pids are leased
/// behind the scenes:
///
/// ```
/// use rmr_core::RwLock;
/// use std::sync::Arc;
///
/// let lock = Arc::new(RwLock::starvation_free(0u64, 4));
/// let mut threads = Vec::new();
/// for _ in 0..4 {
///     let lock = Arc::clone(&lock);
///     threads.push(std::thread::spawn(move || {
///         for _ in 0..100 {
///             *lock.write() += 1;
///             let _sum = *lock.read();
///         }
///     }));
/// }
/// for t in threads {
///     t.join().unwrap();
/// }
/// assert_eq!(*lock.read(), 400);
/// ```
///
/// # Observability
///
/// The third type parameter is an `rmr-obs` [`Recorder`], defaulted to
/// [`NoopRecorder`]. The lock holds its raw lock as
/// [`Observed<L, R>`](Observed), and every passage — leased or handle,
/// blocking or try, and the single-writer endpoints — goes through that
/// one wrapper, so the guard tier has exactly one recorder seam. With the
/// default recorder `Observed` is plain forwarding, and the default lock
/// is op-for-op the uninstrumented one (the `Counting` backend proves it).
/// [`RwLock::with_recorder`] swaps in a live recorder — typically an
/// `Arc<StatsRecorder>` — and every passage is then counted and
/// classified contended/uncontended, and the passages the recorder
/// samples ([`Recorder::sample`]) are latency-histogrammed.
pub struct RwLock<T: ?Sized, L, R = NoopRecorder> {
    pub(crate) raw: Observed<L, R>,
    pub(crate) registry: Arc<PidRegistry>,
    // Must stay the last field: `T: ?Sized` requires the unsized field in
    // tail position.
    pub(crate) data: UnsafeCell<T>,
}

// SAFETY: the raw lock guarantees that a `&mut T` (through WriteGuard) never
// coexists with any other access, and `&T` (ReadGuard) only coexists with
// other `&T`. Sending the lock additionally moves the value. (`Recorder`
// already implies `Send + Sync`.)
unsafe impl<T: ?Sized + Send, L: RawRwLock, R: Recorder> Send for RwLock<T, L, R> {}
unsafe impl<T: ?Sized + Send + Sync, L: RawRwLock, R: Recorder> Sync for RwLock<T, L, R> {}

/// [`RwLock`] over the no-priority, starvation-free policy (Theorem 3).
pub type StarvationFreeRwLock<T> = RwLock<T, MwmrStarvationFree>;
/// [`RwLock`] over the reader-priority policy (Theorem 4).
pub type ReaderPriorityRwLock<T> = RwLock<T, MwmrReaderPriority>;
/// [`RwLock`] over the writer-priority policy (Theorem 5).
pub type WriterPriorityRwLock<T> = RwLock<T, MwmrWriterPriority>;

impl<T> RwLock<T, MwmrStarvationFree> {
    /// Creates a starvation-free (no-priority) lock for up to
    /// `max_processes` concurrent threads.
    pub fn starvation_free(value: T, max_processes: usize) -> Self {
        Self::with_raw(value, MwmrStarvationFree::new(max_processes))
    }
}

impl<T> RwLock<T, MwmrReaderPriority> {
    /// Creates a reader-priority lock for up to `max_processes` concurrent
    /// threads. Writers may starve under continuous read traffic.
    pub fn reader_priority(value: T, max_processes: usize) -> Self {
        Self::with_raw(value, MwmrReaderPriority::new(max_processes))
    }
}

impl<T> RwLock<T, MwmrWriterPriority> {
    /// Creates a writer-priority lock for up to `max_processes` concurrent
    /// threads. Readers may starve under continuous write traffic.
    pub fn writer_priority(value: T, max_processes: usize) -> Self {
        Self::with_raw(value, MwmrWriterPriority::new(max_processes))
    }
}

impl<T, L: RawRwLock> RwLock<T, L> {
    /// Wraps `value` behind an arbitrary raw lock, sizing the pid registry
    /// to `raw.max_processes()`.
    ///
    /// # Panics
    ///
    /// Panics if the raw lock reports an unbounded process count
    /// (`usize::MAX`) — use [`RwLock::with_raw_and_capacity`] for those.
    pub fn with_raw(value: T, raw: L) -> Self {
        let cap = raw.max_processes();
        assert!(cap != usize::MAX, "raw lock has no process bound; use with_raw_and_capacity");
        Self::with_raw_and_capacity(value, raw, cap)
    }

    /// Wraps `value` behind `raw` with an explicit pid capacity — for raw
    /// locks with no per-process state (e.g. the single-writer algorithms,
    /// whose `max_processes()` is unbounded).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0, exceeds `u32::MAX`, or exceeds
    /// `raw.max_processes()`.
    ///
    /// # Example
    ///
    /// ```
    /// use rmr_core::swmr::SwmrReaderPriority;
    /// use rmr_core::RwLock;
    ///
    /// let lock = RwLock::with_raw_and_capacity(7u32, SwmrReaderPriority::new(), 2);
    /// assert_eq!(*lock.read(), 7);
    /// ```
    pub fn with_raw_and_capacity(value: T, raw: L, capacity: usize) -> Self {
        assert!(
            capacity <= raw.max_processes(),
            "capacity {capacity} exceeds the raw lock's bound {}",
            raw.max_processes()
        );
        Self {
            raw: Observed::new(raw, NoopRecorder),
            registry: Arc::new(PidRegistry::new(capacity)),
            data: UnsafeCell::new(value),
        }
    }
}

impl<T, L: RawRwLock, R: Recorder> RwLock<T, L, R> {
    /// Replaces the lock's recorder, re-typing the lock: every subsequent
    /// passage (leased or handle, blocking or try) reports to `recorder`.
    ///
    /// Builder-style, because the recorder is a *type* parameter — that is
    /// what lets the disabled hooks const-fold to nothing instead of
    /// costing a runtime branch. The recorder goes into the lock's
    /// [`Observed`] wrapper, replacing the one there; a lock whose raw lock
    /// is itself an `Observed` (built with [`RwLock::with_raw`]) therefore
    /// reports every passage to both recorders, and one shared recorder
    /// would count each passage twice.
    ///
    /// # Panicking recorders
    ///
    /// A guard's drop releases the raw lock, then runs the release hook,
    /// then returns its pid. If the hook panics, the raw session is
    /// already closed and other threads can still acquire, but the pid is
    /// never returned: a leased pid stays busy and is pinned at thread
    /// exit, like a leaked guard's, so each such panic costs one pid of
    /// capacity for the life of the lock.
    ///
    /// # Example
    ///
    /// ```
    /// use rmr_core::RwLock;
    /// use rmr_obs::{Event, StatsRecorder};
    /// use std::sync::Arc;
    ///
    /// let rec = Arc::new(StatsRecorder::new(4));
    /// let lock = RwLock::starvation_free(0u32, 4).with_recorder(Arc::clone(&rec));
    /// *lock.write() += 1;
    /// assert_eq!(rec.counter(Event::WriteAcquire), 1);
    /// assert_eq!(rec.counter(Event::WriteRelease), 1);
    /// ```
    pub fn with_recorder<R2: Recorder>(self, recorder: R2) -> RwLock<T, L, R2> {
        let (raw, _) = self.raw.into_parts();
        RwLock { raw: Observed::new(raw, recorder), registry: self.registry, data: self.data }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized, L: RawRwLock, R: Recorder> RwLock<T, L, R> {
    /// Registers the calling context as a participating process with a
    /// pinned pid.
    ///
    /// The handle owns a [`Pid`] until dropped. Registration is not on the
    /// lock fast path; keep the handle around rather than re-registering
    /// per operation. Prefer the plain [`RwLock::read`] / [`RwLock::write`]
    /// (which lease a pid per thread) unless you need explicit pid control
    /// or `Result`-based capacity handling.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryFull`] if `capacity` pids are live.
    ///
    /// # Example
    ///
    /// ```
    /// use rmr_core::RwLock;
    ///
    /// let lock = RwLock::writer_priority(vec![1u8], 2);
    /// let mut handle = lock.register()?;
    /// handle.write().push(2);
    /// assert_eq!(*handle.read(), vec![1, 2]);
    /// # Ok::<(), rmr_core::RegistryFull>(())
    /// ```
    pub fn register(&self) -> Result<LockHandle<'_, T, L, R>, RegistryFull> {
        let pid = self.registry.allocate()?;
        Ok(LockHandle { lock: self, pid })
    }

    /// Acquires the lock for reading with this thread's leased pid,
    /// blocking (spinning) until granted.
    ///
    /// The first acquisition on a thread leases a pid from the registry;
    /// the lease is cached and returned when the thread exits. Nested
    /// acquisitions on the same thread (a second guard while one is open)
    /// lease an extra pid for the inner guard, so nesting never violates
    /// the raw locks' "one attempt at a time per pid" contract.
    ///
    /// # Deadlock
    ///
    /// Nesting carries `std::sync::RwLock`'s deadlock semantics,
    /// policy-sharpened: a nested *read* deadlocks if a writer is already
    /// waiting — under the starvation-free policy (FIFO doorway) and
    /// especially the writer-priority policy (WP1 makes the waiting writer
    /// overtake the inner reader, which in turn can never drain while the
    /// outer guard is held), so a reentrant read on a writer-priority lock
    /// self-deadlocks whenever a reload is pending. Only the
    /// reader-priority policy is immune (RP1 lets the inner reader
    /// overtake the waiting writer). "Waiting" is not only a blocked
    /// thread: since the doorway redesign, a parked `write().await`
    /// future on the same raw lock holds a tokened queue position
    /// ([`RawParkedWaiters`](crate::raw::RawParkedWaiters), `QUEUED`
    /// doorways) that closes the reader admission path exactly like a
    /// blocked writer — a nested read can therefore deadlock against a
    /// suspended *future*, though dropping that future revokes its
    /// position and unwedges the reader. A nested *write* while holding
    /// any guard on the same thread always deadlocks. Avoid holding a
    /// guard across calls that may re-acquire — or, for read-mostly data
    /// where reentrant reads are structural, use `rmr-swap`'s `Snapshot`,
    /// whose wait-free `load` never blocks and is safely reentrant.
    ///
    /// # Panics
    ///
    /// Panics if the registry is exhausted (more concurrent threads than
    /// the lock's capacity). Use [`RwLock::register`] or
    /// [`RwLock::try_read`] for non-panicking capacity handling.
    ///
    /// # Example
    ///
    /// ```
    /// use rmr_core::RwLock;
    ///
    /// let lock = RwLock::starvation_free(String::from("hi"), 2);
    /// assert_eq!(lock.read().len(), 2);
    /// ```
    pub fn read(&self) -> ReadGuard<'_, T, L, R> {
        let (pid, source) = self.lease().unwrap_or_else(|e| panic!("{}", lease_panic(e)));
        let token = self.raw.read_lock(pid);
        self.read_guard(pid, source, token)
    }

    /// Runs `f` with shared access (convenience over [`RwLock::read`]).
    pub fn read_with<U>(&self, f: impl FnOnce(&T) -> U) -> U {
        f(&self.read())
    }

    /// Mutable access without locking — safe because `&mut self` proves
    /// exclusive ownership.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// The underlying raw lock.
    pub fn raw(&self) -> &L {
        self.raw.inner()
    }

    /// The lock's recorder (the default is the inert [`NoopRecorder`]).
    pub fn recorder(&self) -> &R {
        self.raw.recorder()
    }

    /// Number of threads that may participate simultaneously.
    pub fn max_processes(&self) -> usize {
        self.registry.capacity()
    }

    /// Number of pids currently leased or registered (approximate under
    /// concurrency). Checker entry point: after every participating thread
    /// has exited, this must be zero — thread-local leases are reclaimed
    /// at thread exit — which the real-code checker (`rmr-check`) and the
    /// registry tests assert.
    pub fn registered(&self) -> usize {
        self.registry.allocated()
    }

    /// Leases a pid for the calling thread — see [`lease_pid`].
    fn lease(&self) -> Result<(Pid, PidSource), RegistryFull> {
        lease_pid(&self.registry)
    }

    /// Returns a pid obtained from [`RwLock::lease`] without a guard having
    /// consumed it (the raw try-acquire failed).
    fn unlease(&self, pid: Pid, source: PidSource) {
        release_pid(&self.registry, pid, source);
    }

    pub(crate) fn read_guard(
        &self,
        pid: Pid,
        source: PidSource,
        token: L::ReadToken,
    ) -> ReadGuard<'_, T, L, R> {
        ReadGuard { lock: self, pid, source, token: Some(token), _not_send: PhantomData }
    }

    pub(crate) fn write_guard(
        &self,
        pid: Pid,
        source: PidSource,
        token: L::WriteToken,
    ) -> WriteGuard<'_, T, L, R> {
        WriteGuard { lock: self, pid, source, token: Some(token), _not_send: PhantomData }
    }
}

impl<T: ?Sized, L: RawMultiWriter, R: Recorder> RwLock<T, L, R> {
    /// Acquires the lock for writing with this thread's leased pid,
    /// blocking (spinning) until granted. See [`RwLock::read`] for the
    /// leasing rules.
    ///
    /// Only available where the raw lock is a [`RawMultiWriter`]: handing
    /// out `&mut T` from arbitrary threads relies on writer-writer
    /// exclusion, which the single-writer algorithms (Figures 1–2) do not
    /// provide — use their [`SwmrWriter`](crate::swmr_rwlock::SwmrWriter)
    /// endpoint instead.
    ///
    /// # Deadlock
    ///
    /// A nested `write` while this thread holds *any* guard on the same
    /// lock always deadlocks, under every policy: the writer's entry waits
    /// for the critical section to drain, and the outer guard never will.
    /// The same holds against parked asynchronous state: blocking here
    /// while a `write().await` future on the same raw lock sits suspended
    /// with its doorway token
    /// ([`RawParkedWaiters`](crate::raw::RawParkedWaiters)) deadlocks if
    /// nothing ever polls or drops that future — the token is a real
    /// queue position, not a lazy retry, and only its revocation
    /// (dropping the future) or its grant clears it. See [`RwLock::read`]
    /// for the full nesting matrix.
    ///
    /// # Panics
    ///
    /// Panics if the registry is exhausted.
    ///
    /// # Example
    ///
    /// ```
    /// use rmr_core::RwLock;
    ///
    /// let lock = RwLock::reader_priority(0u32, 2);
    /// *lock.write() += 5;
    /// assert_eq!(*lock.read(), 5);
    /// ```
    pub fn write(&self) -> WriteGuard<'_, T, L, R> {
        let (pid, source) = self.lease().unwrap_or_else(|e| panic!("{}", lease_panic(e)));
        let token = self.raw.write_lock(pid);
        self.write_guard(pid, source, token)
    }

    /// Runs `f` with exclusive access (convenience over [`RwLock::write`]).
    pub fn write_with<U>(&self, f: impl FnOnce(&mut T) -> U) -> U {
        f(&mut self.write())
    }
}

fn lease_panic(e: RegistryFull) -> String {
    format!(
        "cannot lease a pid: {e}; raise the lock's capacity, or use register()/try_read()/\
         try_write() to handle exhaustion without panicking"
    )
}

impl<T: ?Sized, L: RawTryReadLock, R: Recorder> RwLock<T, L, R> {
    /// Attempts to acquire the lock for reading without blocking, with this
    /// thread's leased pid.
    ///
    /// Returns `None` if the raw lock denied the bounded attempt (a writer
    /// holds or is entering the critical section) **or** the pid registry
    /// is exhausted.
    ///
    /// # Example
    ///
    /// ```
    /// use rmr_core::RwLock;
    ///
    /// let lock = RwLock::starvation_free(3u32, 2);
    /// let g = lock.try_read().expect("no writer active");
    /// assert_eq!(*g, 3);
    /// ```
    #[must_use = "a silently dropped guard releases the lock at once; check the Option"]
    pub fn try_read(&self) -> Option<ReadGuard<'_, T, L, R>> {
        let (pid, source) = self.lease().ok()?;
        match self.raw.try_read_lock(pid) {
            Some(token) => Some(self.read_guard(pid, source, token)),
            None => {
                self.unlease(pid, source);
                None
            }
        }
    }
}

impl<T: ?Sized, L: RawTryRwLock + RawMultiWriter, R: Recorder> RwLock<T, L, R> {
    /// Attempts to acquire the lock for writing without blocking, with this
    /// thread's leased pid.
    ///
    /// Returns `None` if the raw lock denied the bounded attempt or the pid
    /// registry is exhausted. Only available where the raw lock implements
    /// [`RawTryRwLock`] — the paper's core locks do not (their writer
    /// doorway cannot be revoked), the baselines do.
    ///
    /// # Example
    ///
    /// ```
    /// use rmr_baselines::StdRwLock;
    /// use rmr_core::RwLock;
    ///
    /// let lock = RwLock::with_raw(0u32, StdRwLock::new(2));
    /// *lock.try_write().expect("uncontended") += 1;
    /// assert_eq!(*lock.read(), 1);
    /// ```
    #[must_use = "a silently dropped guard releases the lock at once; check the Option"]
    pub fn try_write(&self) -> Option<WriteGuard<'_, T, L, R>> {
        let (pid, source) = self.lease().ok()?;
        match self.raw.try_write_lock(pid) {
            Some(token) => Some(self.write_guard(pid, source, token)),
            None => {
                self.unlease(pid, source);
                None
            }
        }
    }
}

impl<T: fmt::Debug + ?Sized, L: RawRwLock, R: Recorder> fmt::Debug for RwLock<T, L, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Deliberately does not read `data` (would need the lock).
        f.debug_struct("RwLock")
            .field("max_processes", &self.max_processes())
            .field("registered", &self.registry.allocated())
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------
// LockHandle — the pinned-pid path
// ---------------------------------------------------------------------

/// A registered participant of an [`RwLock`]; owns a [`Pid`].
///
/// Guard-taking methods borrow the handle mutably: one attempt at a time
/// per process, enforced at compile time.
pub struct LockHandle<'l, T: ?Sized, L: RawRwLock, R: Recorder = NoopRecorder> {
    lock: &'l RwLock<T, L, R>,
    pid: Pid,
}

impl<'l, T: ?Sized, L: RawRwLock, R: Recorder> LockHandle<'l, T, L, R> {
    /// The pid this handle registered.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Acquires the lock for reading.
    pub fn read(&mut self) -> ReadGuard<'_, T, L, R> {
        let token = self.lock.raw.read_lock(self.pid);
        self.lock.read_guard(self.pid, PidSource::Handle, token)
    }

    /// Runs `f` with shared access (convenience over [`Self::read`]).
    pub fn read_with<U>(&mut self, f: impl FnOnce(&T) -> U) -> U {
        f(&self.read())
    }
}

impl<'l, T: ?Sized, L: RawMultiWriter, R: Recorder> LockHandle<'l, T, L, R> {
    /// Acquires the lock for writing.
    ///
    /// Requires [`RawMultiWriter`]: any number of handles may exist, so
    /// `&mut T` safety needs writer-writer exclusion from the raw lock
    /// (the single-writer algorithms go through
    /// [`SwmrWriter`](crate::swmr_rwlock::SwmrWriter) instead).
    pub fn write(&mut self) -> WriteGuard<'_, T, L, R> {
        let token = self.lock.raw.write_lock(self.pid);
        self.lock.write_guard(self.pid, PidSource::Handle, token)
    }

    /// Runs `f` with exclusive access (convenience over [`Self::write`]).
    pub fn write_with<U>(&mut self, f: impl FnOnce(&mut T) -> U) -> U {
        f(&mut self.write())
    }
}

impl<'l, T: ?Sized, L: RawTryReadLock, R: Recorder> LockHandle<'l, T, L, R> {
    /// Attempts to acquire the lock for reading without blocking.
    ///
    /// # Example
    ///
    /// ```
    /// use rmr_core::RwLock;
    ///
    /// let lock = RwLock::starvation_free(1u8, 2);
    /// let mut h = lock.register()?;
    /// assert_eq!(*h.try_read().expect("no writer"), 1);
    /// # Ok::<(), rmr_core::RegistryFull>(())
    /// ```
    #[must_use = "a silently dropped guard releases the lock at once; check the Option"]
    pub fn try_read(&mut self) -> Option<ReadGuard<'_, T, L, R>> {
        let token = self.lock.raw.try_read_lock(self.pid)?;
        Some(self.lock.read_guard(self.pid, PidSource::Handle, token))
    }
}

impl<'l, T: ?Sized, L: RawTryRwLock + RawMultiWriter, R: Recorder> LockHandle<'l, T, L, R> {
    /// Attempts to acquire the lock for writing without blocking.
    #[must_use = "a silently dropped guard releases the lock at once; check the Option"]
    pub fn try_write(&mut self) -> Option<WriteGuard<'_, T, L, R>> {
        let token = self.lock.raw.try_write_lock(self.pid)?;
        Some(self.lock.write_guard(self.pid, PidSource::Handle, token))
    }
}

impl<T: ?Sized, L: RawRwLock, R: Recorder> Drop for LockHandle<'_, T, L, R> {
    fn drop(&mut self) {
        self.lock.registry.release(self.pid);
    }
}

impl<T: ?Sized, L: RawRwLock, R: Recorder> fmt::Debug for LockHandle<'_, T, L, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockHandle").field("pid", &self.pid).finish()
    }
}

// ---------------------------------------------------------------------
// Guards
// ---------------------------------------------------------------------

/// RAII shared access to the protected value; released on drop
/// (bounded exit: the unlock path performs O(1) steps).
///
/// Not `Send`: the guard's pid belongs to the acquiring thread (leases are
/// thread-cached, and several raw unlock paths — e.g. Figure 2's `Promote`
/// — stamp the pid into shared CAS variables, so unlocking from a thread
/// that may concurrently reuse the pid would break the raw contract).
#[must_use = "dropping the guard immediately releases the read lock"]
pub struct ReadGuard<'l, T: ?Sized, L: RawRwLock, R: Recorder = NoopRecorder> {
    lock: &'l RwLock<T, L, R>,
    pid: Pid,
    source: PidSource,
    token: Option<L::ReadToken>,
    /// Suppresses the auto `Send`/`Sync` impls; `Sync` is re-added below.
    _not_send: PhantomData<*const ()>,
}

// SAFETY: a shared reference to the guard only exposes `&T` (plus pid
// metadata); the token is touched solely through `&mut`/drop.
unsafe impl<T: ?Sized + Sync, L: RawRwLock, R: Recorder> Sync for ReadGuard<'_, T, L, R> {}

impl<T: ?Sized, L: RawRwLock, R: Recorder> Deref for ReadGuard<'_, T, L, R> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the raw lock admits no writer while this read session is
        // open, so shared access is sound.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized, L: RawRwLock, R: Recorder> Drop for ReadGuard<'_, T, L, R> {
    fn drop(&mut self) {
        let token = self.token.take().expect("read token taken twice");
        self.lock.raw.read_unlock(self.pid, token);
        release_pid(&self.lock.registry, self.pid, self.source);
    }
}

impl<T: fmt::Debug + ?Sized, L: RawRwLock, R: Recorder> fmt::Debug for ReadGuard<'_, T, L, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ReadGuard").field(&&**self).finish()
    }
}

/// RAII exclusive access to the protected value; released on drop
/// (bounded exit: the unlock path performs O(1) steps).
///
/// Not `Send` for the same reason as [`ReadGuard`].
#[must_use = "dropping the guard immediately releases the write lock"]
pub struct WriteGuard<'l, T: ?Sized, L: RawRwLock, R: Recorder = NoopRecorder> {
    lock: &'l RwLock<T, L, R>,
    pid: Pid,
    source: PidSource,
    token: Option<L::WriteToken>,
    /// Suppresses the auto `Send`/`Sync` impls; `Sync` is re-added below.
    _not_send: PhantomData<*const ()>,
}

// SAFETY: a shared reference to the guard only exposes `&T`; exclusive
// access to `T` requires `&mut WriteGuard`, which shared references cannot
// produce.
unsafe impl<T: ?Sized + Sync, L: RawRwLock, R: Recorder> Sync for WriteGuard<'_, T, L, R> {}

impl<T: ?Sized, L: RawRwLock, R: Recorder> Deref for WriteGuard<'_, T, L, R> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: this write session excludes all other access.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized, L: RawRwLock, R: Recorder> DerefMut for WriteGuard<'_, T, L, R> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: this write session excludes all other access.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized, L: RawRwLock, R: Recorder> Drop for WriteGuard<'_, T, L, R> {
    fn drop(&mut self) {
        let token = self.token.take().expect("write token taken twice");
        self.lock.raw.write_unlock(self.pid, token);
        release_pid(&self.lock.registry, self.pid, self.source);
    }
}

impl<T: fmt::Debug + ?Sized, L: RawRwLock, R: Recorder> fmt::Debug for WriteGuard<'_, T, L, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("WriteGuard").field(&&**self).finish()
    }
}

// Crate-internal alias so the SWMR front end can build guards around
// pinned pids without duplicating the machinery.
pub(crate) use PidSource as GuardPidSource;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn read_and_write_guards_deref() {
        let lock = RwLock::starvation_free(vec![1, 2, 3], 2);
        let mut h = lock.register().unwrap();
        assert_eq!(h.read().len(), 3);
        h.write().push(4);
        assert_eq!(*h.read(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn all_three_policies_construct_and_lock() {
        let sf = RwLock::starvation_free(1u32, 2);
        let rp = RwLock::reader_priority(2u32, 2);
        let wp = RwLock::writer_priority(3u32, 2);
        let mut h = sf.register().unwrap();
        assert_eq!(*h.read(), 1);
        let mut h = rp.register().unwrap();
        assert_eq!(*h.read(), 2);
        let mut h = wp.register().unwrap();
        assert_eq!(*h.read(), 3);
    }

    #[test]
    fn registration_respects_capacity() {
        let lock = RwLock::starvation_free((), 2);
        let a = lock.register().unwrap();
        let b = lock.register().unwrap();
        assert!(lock.register().is_err());
        drop(a);
        let c = lock.register().unwrap();
        drop(b);
        drop(c);
    }

    #[test]
    fn pids_are_released_on_handle_drop() {
        let lock = RwLock::writer_priority(0u8, 1);
        for _ in 0..10 {
            let mut h = lock.register().unwrap();
            *h.write() += 1;
        }
        let mut h = lock.register().unwrap();
        assert_eq!(*h.read(), 10);
    }

    #[test]
    fn into_inner_and_get_mut() {
        let mut lock = RwLock::reader_priority(String::from("a"), 2);
        lock.get_mut().push('b');
        assert_eq!(lock.into_inner(), "ab");
    }

    #[test]
    fn closure_helpers() {
        let lock = RwLock::starvation_free(10i64, 2);
        let mut h = lock.register().unwrap();
        h.write_with(|v| *v += 5);
        assert_eq!(h.read_with(|v| *v), 15);

        lock.write_with(|v| *v += 1);
        assert_eq!(lock.read_with(|v| *v), 16);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let lock = Arc::new(RwLock::starvation_free(0u64, 8));
        let mut threads = Vec::new();
        for _ in 0..8 {
            let lock = Arc::clone(&lock);
            threads.push(std::thread::spawn(move || {
                let mut h = lock.register().unwrap();
                for _ in 0..100 {
                    *h.write() += 1;
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let mut h = lock.register().unwrap();
        assert_eq!(*h.read(), 800);
    }

    #[test]
    fn guards_are_debug() {
        let lock = RwLock::starvation_free(7u8, 2);
        let mut h = lock.register().unwrap();
        assert_eq!(format!("{:?}", h.read()), "ReadGuard(7)");
        assert_eq!(format!("{:?}", h.write()), "WriteGuard(7)");
        assert!(format!("{lock:?}").contains("RwLock"));
    }

    // --- thread-local pid leasing ---

    #[test]
    fn leased_reads_and_writes_need_no_registration() {
        let lock = RwLock::starvation_free(0u32, 2);
        *lock.write() += 1;
        assert_eq!(*lock.read(), 1);
        // The lease is cached: repeated ops reuse one pid.
        for _ in 0..100 {
            *lock.write() += 1;
        }
        assert_eq!(*lock.read(), 101);
        assert_eq!(lock.registry.allocated(), 1);
    }

    #[test]
    fn concurrent_leased_increments_are_not_lost() {
        let lock = Arc::new(RwLock::starvation_free(0u64, 8));
        let mut threads = Vec::new();
        for _ in 0..8 {
            let lock = Arc::clone(&lock);
            threads.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    *lock.write() += 1;
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*lock.read(), 800);
    }

    #[test]
    fn thread_exit_returns_leased_pid() {
        let lock = Arc::new(RwLock::starvation_free(0u32, 1));
        for _ in 0..5 {
            let l2 = Arc::clone(&lock);
            std::thread::spawn(move || {
                *l2.write() += 1;
            })
            .join()
            .unwrap();
            // Capacity 1: each iteration only works if the previous
            // thread's lease was reclaimed at exit.
        }
        assert_eq!(lock.registry.allocated(), 0);
        assert_eq!(*lock.read(), 5);
    }

    #[test]
    fn nested_reads_take_a_transient_pid() {
        let lock = RwLock::starvation_free(9u8, 3);
        let outer = lock.read();
        let inner = lock.read(); // second pid, not a contract violation
        assert_eq!(*outer, *inner);
        assert_eq!(lock.registry.allocated(), 2);
        drop(inner);
        assert_eq!(lock.registry.allocated(), 1, "transient pid returned");
        drop(outer);
        assert_eq!(lock.registry.allocated(), 1, "cached lease survives");
    }

    #[test]
    #[should_panic(expected = "cannot lease a pid")]
    fn lease_exhaustion_panics_with_guidance() {
        let lock = RwLock::starvation_free((), 1);
        let _handle = lock.register().unwrap(); // eat the only pid
        let _ = lock.read();
    }

    #[test]
    fn leases_are_per_lock_instance() {
        let a = RwLock::starvation_free(1u8, 2);
        let b = RwLock::starvation_free(2u8, 2);
        let ga = a.read();
        let gb = b.read();
        assert_eq!(*ga, 1);
        assert_eq!(*gb, 2);
        drop((ga, gb));
        assert_eq!(a.registry.allocated(), 1);
        assert_eq!(b.registry.allocated(), 1);
    }

    #[test]
    fn try_read_on_core_lock_succeeds_uncontended() {
        let lock = RwLock::starvation_free(5u64, 2);
        let g = lock.try_read().expect("no writer");
        assert_eq!(*g, 5);
    }

    #[test]
    fn try_read_fails_under_held_write_lock() {
        let lock = Arc::new(RwLock::starvation_free(0u64, 4));
        let l2 = Arc::clone(&lock);
        let w = lock.write();
        // Another thread's bounded read attempt must return None, not spin.
        let denied = std::thread::spawn(move || l2.try_read().is_none()).join().unwrap();
        assert!(denied, "try_read blocked or succeeded under a write lock");
        drop(w);
        assert!(lock.try_read().is_some());
    }

    #[test]
    fn leaked_guard_pins_its_pid() {
        // A mem::forget'd guard leaves its raw read session open forever;
        // the thread-exit reclaim must NOT return that pid, or another
        // thread would be issued a pid with an unfinished attempt.
        let lock = Arc::new(RwLock::starvation_free(0u8, 1));
        let l2 = Arc::clone(&lock);
        std::thread::spawn(move || std::mem::forget(l2.read())).join().unwrap();
        assert_eq!(lock.registry.allocated(), 1, "leaked pid must stay reserved");
        assert!(lock.register().is_err());
    }

    #[test]
    fn recorder_observes_typed_passages() {
        use rmr_obs::{Event, Metric, StatsRecorder, SAMPLE_EVERY};
        let rec = Arc::new(StatsRecorder::new(4));
        let lock = RwLock::starvation_free(0u32, 4).with_recorder(Arc::clone(&rec));
        *lock.write() += 1;
        assert_eq!(*lock.read(), 1);
        drop(lock.try_read().expect("no writer active"));
        // Handle path reports through the same hooks, on its own pid.
        let mut h = lock.register().unwrap();
        for _ in 0..2 * SAMPLE_EVERY {
            assert_eq!(*h.read(), 1);
        }
        // Counters are exact on every passage.
        assert_eq!(rec.counter(Event::WriteAcquire), 1);
        assert_eq!(rec.counter(Event::WriteRelease), 1);
        assert_eq!(rec.counter(Event::ReadAcquire), 1 + 2 * SAMPLE_EVERY);
        assert_eq!(rec.counter(Event::ReadRelease), 2 + 2 * SAMPLE_EVERY);
        assert_eq!(rec.counter(Event::TryReadOk), 1);
        // Timing is sampled: each pid times ceil(passages / SAMPLE_EVERY)
        // of its blocking passages, starting with its first. The leased
        // pid's two (write, read) time the write; the handle's pid times
        // two of its reads.
        assert_eq!(rec.samples(Metric::WriteAcquireNs), 1);
        assert_eq!(rec.samples(Metric::ReadAcquireNs), 2);
    }

    #[test]
    fn panicking_release_hook_pins_the_leased_pid() {
        use rmr_obs::{Event, Metric};
        /// Counts nothing, and panics on every read release.
        struct PanicOnReadRelease;
        impl Recorder for PanicOnReadRelease {
            const ENABLED: bool = true;
            fn now(&self) -> u64 {
                0
            }
            fn add(&self, _pid: usize, event: Event, _n: u64) {
                assert!(event != Event::ReadRelease, "recorder panicked on ReadRelease");
            }
            fn record(&self, _pid: usize, _metric: Metric, _value: u64) {}
        }

        let lock = Arc::new(RwLock::starvation_free(0u32, 2).with_recorder(PanicOnReadRelease));
        let l2 = Arc::clone(&lock);
        std::thread::spawn(move || {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drop(l2.read());
            }));
            assert!(unwound.is_err(), "the release hook must have panicked");
        })
        .join()
        .unwrap();
        // The raw read session was closed before the hook ran, but the
        // unwind skipped the pid release: the lease stays busy and is
        // pinned at thread exit, like a leaked guard's.
        assert_eq!(lock.registered(), 1, "the leased pid stays pinned");
        let l3 = Arc::clone(&lock);
        std::thread::spawn(move || *l3.write() += 1).join().unwrap();
        assert_eq!(lock.registered(), 1);
        assert!(lock.raw().is_quiescent());
    }

    #[test]
    fn guards_are_not_send() {
        // Compile-time property, checked with the ambiguity trick: if the
        // guards ever became `Send`, both blanket impls would apply and
        // these calls would stop compiling.
        trait AmbiguousIfSend<A> {
            fn probe() {}
        }
        struct NotSendProbe;
        impl<T: ?Sized> AmbiguousIfSend<NotSendProbe> for T {}
        struct SendProbe;
        impl<T: ?Sized + Send> AmbiguousIfSend<SendProbe> for T {}
        <ReadGuard<'_, u8, MwmrStarvationFree> as AmbiguousIfSend<_>>::probe();
        <WriteGuard<'_, u8, MwmrStarvationFree> as AmbiguousIfSend<_>>::probe();
    }
}
