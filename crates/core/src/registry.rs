//! Process-identifier allocation.
//!
//! The paper's algorithms name processes by PIDs drawn from a finite set
//! (`X ∈ PID ∪ {true}` in Fig. 2, `W-token ∈ PID ∪ {false} ∪ {0,1}` in
//! Fig. 4). The typed lock front end hands each participating thread a
//! [`Pid`] from a fixed-capacity [`PidRegistry`]; the registry capacity is
//! the `n` of the theorems ("O(n) shared variables", Anderson-lock slots).

use rmr_mutex::mem::{Backend, Native, Ordering, SharedBool, SharedWord};
use rmr_mutex::CachePadded;
use std::fmt;

/// Sentinel stored in an epoch slot that has nothing published. Epoch
/// counters start at 1 precisely so 0 can mean "empty".
const EPOCH_EMPTY: u64 = 0;

/// A process identifier: a small dense integer in `0..capacity`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub(crate) u32);

impl Pid {
    /// The integer value of the pid.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a pid from a raw index. Intended for the simulator and tests;
    /// the typed API always allocates pids through [`PidRegistry`].
    pub fn from_index(index: usize) -> Self {
        Pid(u32::try_from(index).expect("pid out of range"))
    }
}

impl fmt::Debug for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Error returned when a lock already has `capacity` registered processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryFull {
    capacity: usize,
}

impl RegistryFull {
    /// The capacity that was exhausted.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl fmt::Display for RegistryFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "all {} process slots are registered", self.capacity)
    }
}

impl std::error::Error for RegistryFull {}

/// Fixed-capacity pid allocator, generic over the memory backend
/// (`Native` by default).
///
/// Allocation is O(capacity) (a scan with one CAS per probed slot) — pids
/// are allocated at registration time, never on the lock fast path.
///
/// # The epoch table
///
/// Alongside the `in_use` bitmap, the registry carries one cache-padded
/// *epoch slot* per pid. The `rmr-swap` snapshot tier uses it as the
/// reader epoch table: a reader publishes the global epoch it is reading
/// under ([`PidRegistry::publish_epoch`]) before loading the payload
/// pointer, and clears the slot ([`PidRegistry::clear_epoch`]) when its
/// guard drops. A writer's grace-period scan ranges over
/// [`PidRegistry::min_published_epoch`]. The table lives here rather than
/// in `rmr-swap` because the hard part — lease/churn/leak semantics of
/// *who owns a slot* — is exactly what the registry already solves: a
/// leaked guard keeps its pid reserved, and a reserved pid keeps its
/// published epoch pinned.
///
/// Each slot is padded to its own cache line so a reader's publish/clear
/// stores never contend with a neighbor's — the stores stay local (zero
/// cache-coherence RMRs in steady state), which is the whole point of the
/// snapshot tier.
///
/// # Example
///
/// ```
/// use rmr_core::registry::PidRegistry;
///
/// let reg = PidRegistry::new(2);
/// let a = reg.allocate().unwrap();
/// let b = reg.allocate().unwrap();
/// assert!(reg.allocate().is_err());
/// reg.release(a);
/// assert!(reg.allocate().is_ok());
/// # let _ = b;
/// ```
pub struct PidRegistry<B: Backend = Native> {
    in_use: Box<[B::Bool]>,
    epochs: Box<[CachePadded<B::Word>]>,
}

impl PidRegistry {
    /// Creates a registry with `capacity` pids (`0..capacity`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or exceeds `u32::MAX`.
    pub fn new(capacity: usize) -> Self {
        Self::new_in(capacity, Native)
    }
}

impl<B: Backend> PidRegistry<B> {
    /// Creates a registry with `capacity` pids over the given memory
    /// backend (same contract as [`PidRegistry::new`]).
    pub fn new_in(capacity: usize, _backend: B) -> Self {
        assert!(capacity > 0, "registry capacity must be positive");
        assert!(u32::try_from(capacity).is_ok(), "registry capacity too large");
        Self {
            in_use: (0..capacity).map(|_| B::Bool::new(false)).collect(),
            epochs: (0..capacity).map(|_| CachePadded::new(B::Word::new(EPOCH_EMPTY))).collect(),
        }
    }

    /// Number of pids this registry manages.
    pub fn capacity(&self) -> usize {
        self.in_use.len()
    }

    /// Number of pids currently allocated (approximate under concurrency).
    pub fn allocated(&self) -> usize {
        // Diagnostic snapshot only; no synchronization rides on it.
        self.in_use.iter().filter(|b| b.load(Ordering::Relaxed)).count()
    }

    /// Claims a free pid.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryFull`] if every pid is in use.
    pub fn allocate(&self) -> Result<Pid, RegistryFull> {
        for (i, slot) in self.in_use.iter().enumerate() {
            // Acquire on success: taking the slot synchronizes with the
            // previous holder's Release in `release`, so the new holder
            // inherits a quiesced pid (epoch slot seen cleared). Relaxed
            // on failure: a taken slot is just skipped.
            if slot.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).is_ok() {
                return Ok(Pid(i as u32));
            }
        }
        Err(RegistryFull { capacity: self.capacity() })
    }

    /// Returns a pid to the free pool.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the pid was not allocated, which indicates
    /// a double release — or if the pid still has a published epoch, which
    /// indicates a snapshot guard was dropped out of order (the epoch must
    /// be cleared before its pid can be re-issued, or the next holder would
    /// inherit a stale pin).
    pub fn release(&self, pid: Pid) {
        debug_assert_eq!(
            self.epochs[pid.index()].load(Ordering::Relaxed),
            EPOCH_EMPTY,
            "released pid {pid} with a published epoch still pinned"
        );
        // Release: publishes everything this holder did under the pid
        // (in particular its epoch-slot clear) to the next allocator's
        // Acquire CAS. A swap rather than a store only to return the old
        // value for the double-release debug check.
        let was = self.in_use[pid.index()].swap(false, Ordering::Release);
        debug_assert!(was, "released pid {pid} that was not allocated");
    }

    // -----------------------------------------------------------------
    // The reader epoch table (see the type-level docs)
    // -----------------------------------------------------------------

    /// Publishes `epoch` in `pid`'s epoch slot: from this store until
    /// [`PidRegistry::clear_epoch`], every payload retired at an epoch
    /// greater than `epoch` is pinned against reclamation.
    ///
    /// The store targets the pid's own cache-padded slot, so in steady
    /// state (the publisher is the slot's sole cached holder) it costs
    /// zero cache-coherence RMRs.
    ///
    /// # Panics
    ///
    /// Panics if `epoch` is 0 (the empty sentinel).
    pub fn publish_epoch(&self, pid: Pid, epoch: u64) {
        assert!(epoch != EPOCH_EMPTY, "epoch 0 is the empty sentinel");
        // SeqCst — this store is one half of a store-buffer pattern and
        // may NOT be demoted: the reader publishes, then re-loads the
        // global epoch/payload; the writer swaps the payload, then scans
        // this table. Only the SC total order makes "writer missed the
        // publication ⇒ reader sees the new payload" exhaustive; with a
        // Release store the publication could sit in a write buffer while
        // the reader pins a payload the writer already freed. Guarded by
        // the `Mutation::DemotePublishEpoch` model row (DESIGN.md §13).
        self.epochs[pid.index()].store(epoch, Ordering::SeqCst);
    }

    /// Clears `pid`'s epoch slot, releasing whatever its published epoch
    /// pinned. Idempotent.
    pub fn clear_epoch(&self, pid: Pid) {
        // Release: the reader's payload accesses must complete before the
        // unpin becomes visible, or the writer could reclaim under them.
        self.epochs[pid.index()].store(EPOCH_EMPTY, Ordering::Release);
    }

    /// The epoch published in slot `index`, or `None` if the slot is
    /// empty.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity()`.
    pub fn published_epoch(&self, index: usize) -> Option<u64> {
        // SeqCst: the grace-period scan is the load half of the
        // store-buffer pattern described at `publish_epoch` — it must be
        // ordered after the writer's epoch bump in the single total
        // order, or the scan could miss a publication the bump did not
        // forestall.
        match self.epochs[index].load(Ordering::SeqCst) {
            EPOCH_EMPTY => None,
            e => Some(e),
        }
    }

    /// The minimum epoch published across all slots, or `None` if no slot
    /// has anything published. One bounded O(capacity) scan — this is the
    /// grace-period read a retiring writer performs: every retired payload
    /// whose retirement epoch is ≤ the returned minimum is reclaimable.
    pub fn min_published_epoch(&self) -> Option<u64> {
        (0..self.capacity()).filter_map(|i| self.published_epoch(i)).min()
    }

    /// Number of slots with a published epoch (approximate under
    /// concurrency, exact at rest — the quiescence check).
    pub fn published_epochs(&self) -> usize {
        (0..self.capacity()).filter(|&i| self.published_epoch(i).is_some()).count()
    }
}

impl<B: Backend> fmt::Debug for PidRegistry<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PidRegistry")
            .field("capacity", &self.capacity())
            .field("allocated", &self.allocated())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn allocates_dense_pids() {
        let reg = PidRegistry::new(3);
        let a = reg.allocate().unwrap();
        let b = reg.allocate().unwrap();
        let c = reg.allocate().unwrap();
        let mut ids = vec![a.index(), b.index(), c.index()];
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn exhaustion_reports_capacity() {
        let reg = PidRegistry::new(1);
        let _a = reg.allocate().unwrap();
        let err = reg.allocate().unwrap_err();
        assert_eq!(err.capacity(), 1);
        assert_eq!(err.to_string(), "all 1 process slots are registered");
    }

    #[test]
    fn release_recycles() {
        let reg = PidRegistry::new(2);
        let a = reg.allocate().unwrap();
        reg.release(a);
        let again = reg.allocate().unwrap();
        assert_eq!(again, a);
    }

    #[test]
    fn concurrent_allocation_is_unique() {
        let reg = Arc::new(PidRegistry::new(16));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || reg.allocate().unwrap()));
        }
        let mut pids: Vec<_> = handles.into_iter().map(|h| h.join().unwrap().index()).collect();
        pids.sort_unstable();
        pids.dedup();
        assert_eq!(pids.len(), 16, "duplicate pid handed out");
    }

    #[test]
    fn display_formats() {
        assert_eq!(Pid::from_index(7).to_string(), "p7");
        assert_eq!(format!("{:?}", Pid::from_index(7)), "p7");
    }

    #[test]
    fn concurrent_register_drop_cycles_reuse_without_duplication() {
        // Thread-local leasing churns allocate/release far harder than the
        // old register()-once pattern: every short-lived thread allocates
        // and returns a pid. 8 threads cycle through a 4-slot registry;
        // at no instant may two live holders share a pid.
        use std::sync::atomic::{AtomicU32, Ordering};
        let reg = Arc::new(PidRegistry::new(4));
        let holders: Arc<[AtomicU32; 4]> = Arc::new(Default::default());
        let mut threads = Vec::new();
        for _ in 0..8 {
            let reg = Arc::clone(&reg);
            let holders = Arc::clone(&holders);
            threads.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    if let Ok(pid) = reg.allocate() {
                        let prev = holders[pid.index()].fetch_add(1, Ordering::SeqCst);
                        assert_eq!(prev, 0, "pid {pid} double-issued");
                        holders[pid.index()].fetch_sub(1, Ordering::SeqCst);
                        reg.release(pid);
                    }
                    // RegistryFull under contention is legal: 8 threads, 4
                    // slots. The next loop iteration retries.
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(reg.allocated(), 0, "every cycle returned its pid");
    }

    #[test]
    fn exhaustion_is_exact_under_concurrency() {
        // 16 threads race for 8 slots; exactly 8 must win, the rest must
        // see RegistryFull (no spurious success past capacity).
        let reg = Arc::new(PidRegistry::new(8));
        let mut threads = Vec::new();
        for _ in 0..16 {
            let reg = Arc::clone(&reg);
            threads.push(std::thread::spawn(move || reg.allocate().ok()));
        }
        let wins: Vec<_> = threads.into_iter().filter_map(|t| t.join().unwrap()).collect();
        assert_eq!(wins.len(), 8);
        assert_eq!(reg.allocated(), 8);
        assert!(reg.allocate().is_err());
        let mut ids: Vec<_> = wins.iter().map(|p| p.index()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8, "duplicate pid among winners");
    }

    #[test]
    fn epoch_publish_clear_round_trip() {
        let reg = PidRegistry::new(3);
        let pid = reg.allocate().unwrap();
        assert_eq!(reg.published_epoch(pid.index()), None);
        reg.publish_epoch(pid, 7);
        assert_eq!(reg.published_epoch(pid.index()), Some(7));
        reg.publish_epoch(pid, 9); // republish overwrites
        assert_eq!(reg.published_epoch(pid.index()), Some(9));
        reg.clear_epoch(pid);
        assert_eq!(reg.published_epoch(pid.index()), None);
        reg.clear_epoch(pid); // idempotent
        reg.release(pid);
    }

    #[test]
    fn min_published_epoch_scans_all_slots() {
        let reg = PidRegistry::new(4);
        assert_eq!(reg.min_published_epoch(), None);
        assert_eq!(reg.published_epochs(), 0);
        let a = reg.allocate().unwrap();
        let b = reg.allocate().unwrap();
        let c = reg.allocate().unwrap();
        reg.publish_epoch(a, 12);
        reg.publish_epoch(b, 3);
        reg.publish_epoch(c, 44);
        assert_eq!(reg.min_published_epoch(), Some(3));
        assert_eq!(reg.published_epochs(), 3);
        reg.clear_epoch(b);
        assert_eq!(reg.min_published_epoch(), Some(12));
        assert_eq!(reg.published_epochs(), 2);
        for pid in [a, c] {
            reg.clear_epoch(pid);
        }
        assert_eq!(reg.min_published_epoch(), None);
        for pid in [a, b, c] {
            reg.release(pid);
        }
    }

    #[test]
    #[should_panic(expected = "empty sentinel")]
    fn epoch_zero_is_rejected() {
        let reg = PidRegistry::new(1);
        let pid = reg.allocate().unwrap();
        reg.publish_epoch(pid, 0);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "debug_assert-only oracle")]
    #[should_panic(expected = "published epoch still pinned")]
    fn release_with_published_epoch_is_caught() {
        let reg = PidRegistry::new(1);
        let pid = reg.allocate().unwrap();
        reg.publish_epoch(pid, 1);
        reg.release(pid);
    }
}
