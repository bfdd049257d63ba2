//! The parking layer: the [`Parker`] abstraction and the per-pid
//! [`WakerTable`].
//!
//! Parking splits into two halves:
//!
//! * **How a suspended acquisition is resumed** — the [`WakerTable`], a
//!   fixed-capacity array of cache-padded slots (one per pid) in which a
//!   pending future leaves its [`Waker`] before going to sleep, and from
//!   which the release paths of [`AsyncRwLock`](crate::lock::AsyncRwLock)
//!   deliver wake-ups.
//! * **How an executor waits between polls** — the [`Parker`] trait.
//!   [`ThreadParker`] blocks the OS thread (`std::thread::park`), which is
//!   what the shipped [`block_on`](crate::exec::block_on) uses; `rmr-check`
//!   supplies a `SchedParker` whose wait is a spin on a `Sched`-backed flag,
//!   so the deterministic scheduler explores and replays executor wake-ups
//!   exactly like any other shared-memory race.
//!
//! # The slot state machine
//!
//! Each slot is one backend word (`EMPTY`, `PARKED_READER`,
//! `PARKED_WRITER`, `TAKING`) guarding an adjacent waker cell. The word is
//! the *only* cross-thread synchronization — there is no mutex, so a slot
//! transition can never block a scheduled turn:
//!
//! * The slot's **owner** (the one future currently leasing that pid) moves
//!   `EMPTY → PARKED_kind`, writing the waker cell first — while `EMPTY`
//!   the owner has exclusive cell access, because every other transition
//!   starts from `PARKED`.
//! * A **releaser** claims a parked waker with a `PARKED → TAKING` CAS
//!   (exactly one claimant can win), reads the cell, stores `EMPTY`, and
//!   only then invokes the waker. `TAKING` is the in-flight-delivery
//!   window; it lasts two operations.
//! * The owner cancels (future dropped) or retires (lock acquired) with a
//!   `PARKED → EMPTY` CAS; losing that CAS to a releaser means a wake is in
//!   flight, and the owner waits out the two-operation `TAKING` window
//!   before the pid can be reused — otherwise a wake meant for the old
//!   future could be consumed by a new future's registration and lost.
//!
//! # The intrusive waiter list
//!
//! Wake scans do **not** sweep the slot array: the table threads the
//! parked slots onto an intrusive FIFO (per-slot `next`/`prev` indices,
//! living inside the same cache-padded slot the future already owns), so
//! a wake walks exactly the parked waiters — **O(waiters), not
//! O(capacity)** — and never inspects an empty slot. The list ends and
//! every link are guarded by one word-sized spinlock (`queue_lock`) whose
//! critical sections are a handful of index writes, never a wait; the
//! slot *state machine* above stays the cross-thread synchronization for
//! the waker cell itself. Registration links at the tail **before** the
//! parked-count announce (so any scan the announce un-skips also finds
//! the node); cancellation unlinks **before** the slot dance (so a pid is
//! never re-leased while still threaded). The cancel/unlink race against
//! a concurrent wake is arbitrated by the `PARKED → TAKING` claim CAS
//! exactly as before — a claimant that loses simply skips the node — and
//! is explored by the `Sched` cancellation batteries in `rmr-check`.
//! Links are deliberately indices, not pointers, so `Sched` replays
//! observe identical values run after run; all state values are likewise
//! small constants.

use rmr_mutex::mem::{Backend, Ordering as MemOrdering, SharedWord, Site};
use rmr_mutex::{spin_until, CachePadded};
use std::cell::UnsafeCell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::task::Waker;

/// How an executor waits between polls, and how anyone wakes it.
///
/// Implementations must tolerate spurious unparks (a [`Parker::park`] may
/// return without a matching unpark) and *token semantics*: an unpark that
/// arrives while the thread is not parked must make the **next** park
/// return immediately, or wake-ups delivered between a `Poll::Pending` and
/// the executor's park would be lost.
pub trait Parker: Send + Sync + 'static {
    /// Blocks the calling context until [`Parker::unpark`] is (or was
    /// already) called.
    fn park(&self);

    /// Releases a parked (or about-to-park) context. Callable from any
    /// thread.
    fn unpark(&self);
}

/// [`Parker`] over `std::thread::park`: the production executor's wait
/// primitive.
///
/// # Example
///
/// ```
/// use rmr_async::park::{Parker, ThreadParker};
/// use std::sync::Arc;
///
/// let parker = Arc::new(ThreadParker::current());
/// let p2 = Arc::clone(&parker);
/// let t = std::thread::spawn(move || p2.unpark());
/// parker.park(); // returns once the token is delivered
/// t.join().unwrap();
/// ```
pub struct ThreadParker {
    token: std::sync::atomic::AtomicBool,
    thread: std::thread::Thread,
}

impl ThreadParker {
    /// A parker whose [`Parker::park`] must be called from the *current*
    /// thread (the one this constructor runs on).
    pub fn current() -> Self {
        Self { token: std::sync::atomic::AtomicBool::new(false), thread: std::thread::current() }
    }
}

impl Parker for ThreadParker {
    fn park(&self) {
        use std::sync::atomic::Ordering;
        // `thread::park` may return spuriously; the token is the truth.
        while !self.token.swap(false, Ordering::SeqCst) {
            std::thread::park();
        }
    }

    fn unpark(&self) {
        use std::sync::atomic::Ordering;
        self.token.store(true, Ordering::SeqCst);
        self.thread.unpark();
    }
}

impl fmt::Debug for ThreadParker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadParker").field("thread", &self.thread.id()).finish()
    }
}

/// Which side of the lock a parked future is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    /// Waiting to read; woken by writer exits.
    Reader,
    /// Waiting to write; woken by writer exits and last-reader exits.
    Writer,
}

/// Slot state: no one is parked here.
const EMPTY: u64 = 0;
/// Slot state: the owner parked a reader waker.
const PARKED_READER: u64 = 1;
/// Slot state: the owner parked a writer waker.
const PARKED_WRITER: u64 = 2;
/// Slot state: a releaser claimed the waker and is about to deliver it.
const TAKING: u64 = 3;

impl WaitKind {
    fn parked_word(self) -> u64 {
        match self {
            WaitKind::Reader => PARKED_READER,
            WaitKind::Writer => PARKED_WRITER,
        }
    }
}

/// Absent link ("null" index).
const NIL: usize = usize::MAX;

struct Slot<B: Backend> {
    state: B::Word,
    /// Written only by the slot's owner while `state == EMPTY`; read only
    /// by the releaser that won the `PARKED → TAKING` CAS. The state
    /// machine is the synchronization.
    cell: UnsafeCell<Option<Waker>>,
    /// Intrusive FIFO links (slot indices, [`NIL`] when absent) and the
    /// threaded flag — read and written **only** while holding the
    /// table's `queue_lock` word. Plain cells, not atomics: the spinlock
    /// is the synchronization, and keeping them invisible to the
    /// `Counting` backend is what makes the O(waiters) wake-cost
    /// assertion exact.
    next: UnsafeCell<usize>,
    prev: UnsafeCell<usize>,
    linked: UnsafeCell<bool>,
}

/// The FIFO's end indices, guarded by `queue_lock` like the links.
struct QueueEnds {
    head: usize,
    tail: usize,
}

// SAFETY: cross-thread access to `cell` is serialized by the slot state
// machine documented on the module (owner-exclusive while EMPTY,
// claimant-exclusive while TAKING); `Waker` itself is Send + Sync.
unsafe impl<B: Backend> Sync for Slot<B> {}
unsafe impl<B: Backend> Send for Slot<B> {}

/// The cache-padded waker-slot table: one slot per pid, plus parked-side
/// counters that let the release paths skip the scan entirely when nobody
/// is waiting.
///
/// # Example
///
/// ```
/// use rmr_async::park::{WaitKind, WakerTable};
/// use rmr_mutex::mem::Native;
/// use std::task::Waker;
///
/// let table: WakerTable<Native> = WakerTable::new(4);
/// table.register(1, WaitKind::Writer, Waker::noop());
/// assert_eq!(table.parked_writers(), 1);
/// assert_eq!(table.wake_writers(), 1); // delivers (and consumes) the waker
/// assert_eq!(table.parked_writers(), 0);
/// ```
pub struct WakerTable<B: Backend> {
    slots: Box<[CachePadded<Slot<B>>]>,
    parked_readers: CachePadded<B::Word>,
    parked_writers: CachePadded<B::Word>,
    /// Wake-ups delivered so far (diagnostics; bumped on the release path
    /// only, never while registering).
    wakeups: CachePadded<B::Word>,
    /// Word-sized test-and-set spinlock guarding `queue` and every slot's
    /// links (see the module docs).
    queue_lock: CachePadded<B::Word>,
    queue: UnsafeCell<QueueEnds>,
}

// SAFETY: `queue` and the slots' link cells are only touched while
// holding the `queue_lock` word (see `with_queue`); everything else is
// atomics plus the slot state machine already argued at `Slot`.
unsafe impl<B: Backend> Sync for WakerTable<B> {}
unsafe impl<B: Backend> Send for WakerTable<B> {}

impl<B: Backend> WakerTable<B> {
    /// A table with `capacity` slots, one per pid in `0..capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "waker table capacity must be positive");
        Self {
            slots: (0..capacity)
                .map(|_| {
                    CachePadded::new(Slot {
                        state: B::Word::new(EMPTY),
                        cell: UnsafeCell::new(None),
                        next: UnsafeCell::new(NIL),
                        prev: UnsafeCell::new(NIL),
                        linked: UnsafeCell::new(false),
                    })
                })
                .collect(),
            parked_readers: CachePadded::new(B::Word::new(0)),
            parked_writers: CachePadded::new(B::Word::new(0)),
            wakeups: CachePadded::new(B::Word::new(0)),
            queue_lock: CachePadded::new(B::Word::new(0)),
            queue: UnsafeCell::new(QueueEnds { head: NIL, tail: NIL }),
        }
    }

    /// Runs `f` with the intrusive FIFO locked. The critical sections are
    /// a bounded handful of index writes (link, unlink, claim) — never a
    /// wait — so the spin here is only ever contention, not blocking.
    fn with_queue<O>(&self, f: impl FnOnce(&mut QueueEnds) -> O) -> O {
        spin_until(|| {
            // Acquire on success pairs with the Release unlock below, so
            // every link written under the previous holder is visible.
            self.queue_lock
                .compare_exchange(0, 1, MemOrdering::Acquire, MemOrdering::Relaxed)
                .is_ok()
        });
        // SAFETY: the lock word is held — exclusive access to the ends
        // and every slot's link cells.
        let out = f(unsafe { &mut *self.queue.get() });
        self.queue_lock.store(0, MemOrdering::Release);
        out
    }

    /// Threads `pid` onto the FIFO tail. No-op when already threaded (a
    /// waker refresh keeps its queue position). Caller holds `queue_lock`.
    fn link_tail(&self, q: &mut QueueEnds, pid: usize) {
        let slot = &self.slots[pid];
        // SAFETY: queue lock held (caller contract).
        unsafe {
            if *slot.linked.get() {
                return;
            }
            *slot.linked.get() = true;
            *slot.next.get() = NIL;
            *slot.prev.get() = q.tail;
            if q.tail == NIL {
                q.head = pid;
            } else {
                *self.slots[q.tail].next.get() = pid;
            }
            q.tail = pid;
        }
    }

    /// Unthreads `pid` from the FIFO. No-op when not threaded. Caller
    /// holds `queue_lock`.
    fn unlink(&self, q: &mut QueueEnds, pid: usize) {
        let slot = &self.slots[pid];
        // SAFETY: queue lock held (caller contract).
        unsafe {
            if !*slot.linked.get() {
                return;
            }
            *slot.linked.get() = false;
            let next = *slot.next.get();
            let prev = *slot.prev.get();
            if prev == NIL {
                q.head = next;
            } else {
                *self.slots[prev].next.get() = next;
            }
            if next == NIL {
                q.tail = prev;
            } else {
                *self.slots[next].prev.get() = prev;
            }
        }
    }

    /// The parked pids in FIFO (park) order — diagnostic snapshot for
    /// tests and the reference-model stress; racing parks/wakes make it
    /// approximate, exact only at rest.
    pub fn parked_fifo(&self) -> Vec<usize> {
        self.with_queue(|q| {
            let mut pids = Vec::new();
            let mut pid = q.head;
            while pid != NIL {
                pids.push(pid);
                // SAFETY: queue lock held.
                pid = unsafe { *self.slots[pid].next.get() };
            }
            pids
        })
    }

    /// Number of slots (pids) the table serves.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Readers currently parked (approximate under concurrency).
    pub fn parked_readers(&self) -> usize {
        // Site AS-COUNT (DESIGN.md §13): release paths key their wake
        // scans off this value, making it the load half of the
        // park-announce SB square (see `register`) — SeqCst, not Relaxed.
        self.parked_readers.load(MemOrdering::SeqCst) as usize
    }

    /// Writers currently parked (approximate under concurrency).
    pub fn parked_writers(&self) -> usize {
        // Site AS-COUNT: same SB square as `parked_readers`.
        self.parked_writers.load(MemOrdering::SeqCst) as usize
    }

    /// Total wake-ups delivered since construction (diagnostics).
    pub fn wakeups(&self) -> u64 {
        self.wakeups.load(MemOrdering::Relaxed)
    }

    fn parked_count(&self, kind: WaitKind) -> &B::Word {
        match kind {
            WaitKind::Reader => &self.parked_readers,
            WaitKind::Writer => &self.parked_writers,
        }
    }

    /// Parks `waker` in `pid`'s slot (owner-only: at most one future may
    /// lease a pid at a time). Re-registering while already parked
    /// refreshes the stored waker; a delivery in flight toward a
    /// *previous* registration is waited out (the two-operation `TAKING`
    /// window) so the **latest** waker is always the parked one — the
    /// Future contract lets each poll arrive with a different waker, and
    /// a stale delivery must never substitute for parking the fresh one.
    pub fn register(&self, pid: usize, kind: WaitKind, waker: &Waker) {
        let slot = &self.slots[pid];
        loop {
            // Acquire: an EMPTY observed here may have been stored by a
            // claimant that just read the cell (`wake_matching`); the
            // owner is about to rewrite the cell and must happen-after
            // that take.
            match slot.state.load(MemOrdering::Acquire) {
                EMPTY => {
                    // Owner-exclusive while EMPTY: write the cell, then
                    // publish. Release pairs with the claimant's Acquire
                    // CAS so the cloned waker is visible to the take.
                    unsafe { *slot.cell.get() = Some(waker.clone()) };
                    slot.state.store(kind.parked_word(), MemOrdering::Release);
                    // Thread onto the FIFO *before* the announce: a scan
                    // that the announce below stops from skipping takes
                    // the queue lock after this release and so finds the
                    // node. (A refresh is already threaded and keeps its
                    // position — `link_tail` no-ops.)
                    self.with_queue(|q| self.link_tail(q, pid));
                    // Site AS-ANNOUNCE: the announce half of the
                    // park-announce SB square — the caller re-tries the
                    // lock after this bump, and a releaser checks the
                    // count after its unlock (site AS-COUNT); only the
                    // total order over both pairs rules out the lost
                    // wakeup. SeqCst (an RMW besides, which drains the
                    // store buffer in the checked weak model).
                    self.parked_count(kind).fetch_add(1, MemOrdering::SeqCst);
                    return;
                }
                TAKING => {
                    // The claimant stores EMPTY within two operations and
                    // then fires the superseded waker — a harmless
                    // spurious re-poll. Relaxed: the loop-top Acquire
                    // load re-reads before any cell access.
                    spin_until(|| slot.state.load(MemOrdering::Relaxed) != TAKING);
                }
                parked => {
                    debug_assert_eq!(
                        parked,
                        kind.parked_word(),
                        "slot {pid} parked under a foreign kind"
                    );
                    // Still parked from an earlier poll: reclaim the slot
                    // to refresh the waker. Losing the CAS means a
                    // releaser got there first; loop to the TAKING arm.
                    // The decrement keys off the *observed* word so the
                    // counters stay right even if the single-owner
                    // discipline is violated upstream.
                    let observed =
                        if parked == PARKED_READER { WaitKind::Reader } else { WaitKind::Writer };
                    // Relaxed CAS: success proves no claimant touched the
                    // slot since our own Release publish, so the cell's
                    // last writer was this owner — nothing to acquire.
                    if slot
                        .state
                        .compare_exchange(parked, EMPTY, MemOrdering::Relaxed, MemOrdering::Relaxed)
                        .is_ok()
                    {
                        self.parked_count(observed).fetch_sub(1, MemOrdering::Relaxed);
                    }
                }
            }
        }
    }

    /// Clears `pid`'s slot (owner-only): the future was cancelled or went
    /// on to acquire the lock. Waits out an in-flight delivery (`TAKING`,
    /// a two-operation window) so the pid can be safely re-leased — a
    /// wake delivered across a pid reuse would otherwise be consumed by
    /// the wrong future.
    pub fn deregister(&self, pid: usize) {
        let slot = &self.slots[pid];
        // Unthread first (the cancel/unlink linchpin): once this returns,
        // no scan can reach the node, so the slot dance below — and the
        // pid re-lease after it — can never race a walk that still holds
        // our index. A wake that *already* claimed the slot (`TAKING`)
        // has unlinked it itself; `unlink` then no-ops and the dance
        // waits out the delivery as before.
        self.with_queue(|q| self.unlink(q, pid));
        loop {
            // Acquire for the same reason as `register`'s loop-top load:
            // waiting out TAKING must happen-after the claimant's take
            // before the pid (and so the cell) can be re-leased.
            match slot.state.load(MemOrdering::Acquire) {
                EMPTY => return,
                TAKING => {
                    // The claimant stores EMPTY within two operations;
                    // its wake then lands on this (already finished)
                    // future, which is harmlessly spurious. Relaxed: the
                    // loop-top Acquire load re-reads.
                    spin_until(|| slot.state.load(MemOrdering::Relaxed) != TAKING);
                }
                parked => {
                    let kind =
                        if parked == PARKED_READER { WaitKind::Reader } else { WaitKind::Writer };
                    // Relaxed CAS: as in `register`, success proves the
                    // cell's last writer was this owner.
                    if slot
                        .state
                        .compare_exchange(parked, EMPTY, MemOrdering::Relaxed, MemOrdering::Relaxed)
                        .is_ok()
                    {
                        self.parked_count(kind).fetch_sub(1, MemOrdering::Relaxed);
                        // Owner-exclusive again: drop the stored waker.
                        unsafe { *slot.cell.get() = None };
                        return;
                    }
                }
            }
        }
    }

    /// Delivers every parked *writer* waker. Returns the number of
    /// wake-ups delivered.
    pub fn wake_writers(&self) -> usize {
        // Site AS-COUNT: the load half of the park-announce SB square —
        // this skip check runs after the caller's raw release, and must
        // not be reordered before it or a just-announced parker is
        // stranded. SeqCst.
        if self.none_parked(&self.parked_writers) {
            return 0;
        }
        self.wake_matching(false, true)
    }

    /// Delivers every parked *reader* waker (the read-entry-completed
    /// path: the transient entry window that made a concurrent reader's
    /// attempt fail has closed). Returns the number of wake-ups
    /// delivered.
    pub fn wake_readers(&self) -> usize {
        // Site AS-COUNT: SeqCst skip check, as in `wake_writers`.
        if self.none_parked(&self.parked_readers) {
            return 0;
        }
        self.wake_matching(true, false)
    }

    /// Delivers every parked waker, reader and writer (the writer exit
    /// and last-reader exit paths). Returns the number of wake-ups
    /// delivered.
    pub fn wake_all(&self) -> usize {
        // Site AS-COUNT: SeqCst skip checks, as in `wake_writers`.
        if self.none_parked(&self.parked_readers) && self.none_parked(&self.parked_writers) {
            return 0;
        }
        self.wake_matching(true, true)
    }

    /// A wake scan's skip check (site AS-COUNT): nothing of this kind is
    /// parked.
    fn none_parked(&self, count: &B::Word) -> bool {
        B::site(Site::AsCount);
        count.load(MemOrdering::SeqCst) == 0
    }

    fn wake_matching(&self, include_readers: bool, include_writers: bool) -> usize {
        // Claim under the queue lock (bounded index work, no user code);
        // deliver outside it, so a `wake()` that synchronously re-polls a
        // future can re-register without self-deadlocking on the lock.
        let mut wakers: Vec<Waker> = Vec::new();
        self.with_queue(|q| {
            let mut pid = q.head;
            // The walk touches only threaded nodes — parked (or
            // mid-refresh) waiters — never an empty slot: O(waiters).
            while pid != NIL {
                let slot = &self.slots[pid];
                // SAFETY: queue lock held; read the link before any claim
                // below rewires it.
                let next = unsafe { *slot.next.get() };
                // Relaxed: a pure hint — the CAS below re-checks with the
                // ordering that matters.
                let state = slot.state.load(MemOrdering::Relaxed);
                let kind = match state {
                    PARKED_READER if include_readers => WaitKind::Reader,
                    PARKED_WRITER if include_writers => WaitKind::Writer,
                    // Wrong side, or the owner is mid-dance (EMPTY while
                    // refreshing, TAKING under another releaser): leave
                    // it threaded and move on.
                    _ => {
                        pid = next;
                        continue;
                    }
                };
                // Acquire on success pairs with the owner's Release
                // publish: the cloned waker in the cell is visible before
                // the take. Failure means the owner retired or refreshed
                // concurrently — skip, the node stays theirs to unthread.
                if slot
                    .state
                    .compare_exchange(state, TAKING, MemOrdering::Acquire, MemOrdering::Relaxed)
                    .is_ok()
                {
                    self.parked_count(kind).fetch_sub(1, MemOrdering::Relaxed);
                    // Claimant-exclusive while TAKING.
                    let waker = unsafe { (*slot.cell.get()).take() };
                    // Release: publishes the take to the next owner write
                    // (the loop-top Acquire loads in `register` /
                    // `deregister`).
                    slot.state.store(EMPTY, MemOrdering::Release);
                    self.unlink(q, pid);
                    if let Some(waker) = waker {
                        self.wakeups.fetch_add(1, MemOrdering::Relaxed);
                        wakers.push(waker);
                    }
                }
                pid = next;
            }
        });
        let woken = wakers.len();
        // Every waker here is already claimed and unthreaded: no later
        // release can reach it. So a panicking `wake()` must not strand
        // the rest — deliver them all, then re-raise the first panic.
        let mut panicked = None;
        for waker in wakers {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| waker.wake())) {
                panicked.get_or_insert(payload);
            }
        }
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
        woken
    }
}

impl<B: Backend> fmt::Debug for WakerTable<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WakerTable")
            .field("capacity", &self.capacity())
            .field("parked_readers", &self.parked_readers())
            .field("parked_writers", &self.parked_writers())
            .field("wakeups", &self.wakeups())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmr_mutex::mem::Native;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::task::Wake;

    /// A waker that counts its deliveries.
    struct CountingWake(AtomicU64);

    impl Wake for CountingWake {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counting() -> (Arc<CountingWake>, Waker) {
        let w = Arc::new(CountingWake(AtomicU64::new(0)));
        (Arc::clone(&w), Waker::from(Arc::clone(&w)))
    }

    #[test]
    fn register_wake_round_trip() {
        let table: WakerTable<Native> = WakerTable::new(2);
        let (count, waker) = counting();
        table.register(0, WaitKind::Reader, &waker);
        assert_eq!((table.parked_readers(), table.parked_writers()), (1, 0));
        assert_eq!(table.wake_writers(), 0, "no writer parked");
        assert_eq!(count.0.load(Ordering::SeqCst), 0);
        assert_eq!(table.wake_all(), 1);
        assert_eq!(count.0.load(Ordering::SeqCst), 1);
        assert_eq!(table.parked_readers(), 0);
        assert_eq!(table.wakeups(), 1);
    }

    #[test]
    fn deregister_drops_without_waking() {
        let table: WakerTable<Native> = WakerTable::new(1);
        let (count, waker) = counting();
        table.register(0, WaitKind::Writer, &waker);
        table.deregister(0);
        assert_eq!(table.parked_writers(), 0);
        assert_eq!(table.wake_all(), 0);
        assert_eq!(count.0.load(Ordering::SeqCst), 0, "cancelled waker must not fire");
    }

    #[test]
    fn reregistration_refreshes_the_waker() {
        let table: WakerTable<Native> = WakerTable::new(1);
        let (old_count, old_waker) = counting();
        let (new_count, new_waker) = counting();
        table.register(0, WaitKind::Writer, &old_waker);
        table.register(0, WaitKind::Writer, &new_waker);
        assert_eq!(table.parked_writers(), 1, "refresh must not double-count");
        assert_eq!(table.wake_writers(), 1);
        assert_eq!(old_count.0.load(Ordering::SeqCst), 0, "stale waker fired");
        assert_eq!(new_count.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn wake_writers_leaves_readers_parked() {
        let table: WakerTable<Native> = WakerTable::new(4);
        let (r, rw) = counting();
        let (w, ww) = counting();
        table.register(0, WaitKind::Reader, &rw);
        table.register(1, WaitKind::Writer, &ww);
        assert_eq!(table.wake_writers(), 1);
        assert_eq!((r.0.load(Ordering::SeqCst), w.0.load(Ordering::SeqCst)), (0, 1));
        assert_eq!((table.parked_readers(), table.parked_writers()), (1, 0));
        assert_eq!(table.wake_all(), 1);
        assert_eq!(r.0.load(Ordering::SeqCst), 1);
    }

    /// A waker whose delivery panics.
    struct PanickingWake;

    impl Wake for PanickingWake {
        fn wake(self: Arc<Self>) {
            panic!("waker exploded");
        }
    }

    #[test]
    fn panicking_waker_does_not_strand_the_other_claimed_waiters() {
        // The scan claims and unthreads both waiters before delivering, so
        // no later release can reach the second one: it must be woken even
        // though the first delivery (FIFO order) panics.
        let table: WakerTable<Native> = WakerTable::new(2);
        let (count, waker) = counting();
        table.register(0, WaitKind::Writer, &Waker::from(Arc::new(PanickingWake)));
        table.register(1, WaitKind::Reader, &waker);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| table.wake_all()));
        assert!(caught.is_err(), "the waker's panic must still reach the caller");
        assert_eq!(count.0.load(Ordering::SeqCst), 1, "second claimed waiter stranded");
        assert_eq!((table.parked_readers(), table.parked_writers()), (0, 0));
    }

    #[test]
    fn concurrent_wakes_deliver_exactly_once() {
        for _ in 0..50 {
            let table: Arc<WakerTable<Native>> = Arc::new(WakerTable::new(8));
            let (count, waker) = counting();
            for pid in 0..8 {
                table.register(pid, WaitKind::Writer, &waker);
            }
            let mut threads = Vec::new();
            for _ in 0..4 {
                let table = Arc::clone(&table);
                threads.push(std::thread::spawn(move || table.wake_all()));
            }
            let woken: usize = threads.into_iter().map(|t| t.join().unwrap()).sum();
            assert_eq!(woken, 8, "each parked waker delivered exactly once");
            assert_eq!(count.0.load(Ordering::SeqCst), 8);
            assert_eq!(table.parked_writers(), 0);
        }
    }

    #[test]
    fn thread_parker_token_survives_early_unpark() {
        let p = ThreadParker::current();
        p.unpark(); // token delivered before the park
        p.park(); // must return immediately
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: WakerTable<Native> = WakerTable::new(0);
    }

    #[test]
    fn debug_formats() {
        let table: WakerTable<Native> = WakerTable::new(2);
        let s = format!("{table:?}");
        assert!(s.contains("WakerTable") && s.contains("parked_readers"), "{s}");
    }

    #[test]
    fn fifo_preserves_park_order_and_unthreads_on_wake() {
        let table: WakerTable<Native> = WakerTable::new(8);
        let (_, waker) = counting();
        for pid in [5, 0, 3] {
            table.register(pid, WaitKind::Writer, &waker);
        }
        assert_eq!(table.parked_fifo(), vec![5, 0, 3], "tail-linked in park order");
        // A waker refresh keeps the queue position.
        table.register(0, WaitKind::Writer, &waker);
        assert_eq!(table.parked_fifo(), vec![5, 0, 3], "refresh must not re-queue");
        assert_eq!(table.wake_writers(), 3);
        assert_eq!(table.parked_fifo(), Vec::<usize>::new(), "wake unthreads what it claims");
    }

    #[test]
    fn deregister_unthreads_a_middle_node() {
        let table: WakerTable<Native> = WakerTable::new(8);
        let (count, waker) = counting();
        for pid in [2, 6, 1] {
            table.register(pid, WaitKind::Reader, &waker);
        }
        table.deregister(6);
        assert_eq!(table.parked_fifo(), vec![2, 1]);
        assert_eq!(table.wake_readers(), 2);
        assert_eq!(count.0.load(Ordering::SeqCst), 2, "unthreaded node must not fire");
        assert_eq!(table.parked_fifo(), Vec::<usize>::new());
    }

    /// The acceptance assertion for the intrusive list: a wake performs
    /// the same number of backend operations no matter how large the
    /// table is — it walks the waiter list, inspecting **no** empty
    /// slots. (The links themselves are plain cells, invisible to
    /// `Counting`, so the tally is exactly the skip checks + queue lock +
    /// per-waiter claim dance.)
    #[test]
    fn wake_cost_is_o_waiters_not_o_capacity() {
        use rmr_mutex::mem::{self, Counting};

        fn wake_ops(capacity: usize) -> u64 {
            let table: WakerTable<Counting> = WakerTable::new(capacity);
            let (_, waker) = counting();
            table.register(0, WaitKind::Writer, &waker);
            table.register(1, WaitKind::Reader, &waker);
            mem::reset_thread_tally();
            assert_eq!(table.wake_all(), 2);
            mem::thread_tally().ops
        }

        let small = wake_ops(8);
        let large = wake_ops(512);
        assert_eq!(small, large, "wake cost must not scale with table capacity");
    }
}
