//! The checker's teeth: seeded bugs in the code that ships.
//!
//! A checker that has never caught a bug is indistinguishable from one
//! that cannot. Each [`Mutation`] names one bug of the kind a refactor
//! could plausibly introduce, and the battery (`tests/mutants.rs`)
//! asserts that every one is caught within a bounded schedule budget
//! while the unmutated control passes the same budgets.
//!
//! Almost every row is a **fault plan over the shipped lock**:
//! [`Mutation::plan`] names one DESIGN.md §13 site and one [`Fault`] —
//! skip a store, demote a `SeqCst` store to `Release`, or force the value
//! a load or RMW reads — and the `Sched` backend applies it to the
//! operation right after that site's `Backend::site` call in the real
//! lock. The control is the same lock under [`FaultPlan::none`]. There is
//! no copy of the lock to drift from the original, so the battery tests
//! exactly the code users run; and each trial asserts its site was hit
//! at least once ([`assert_site_hit`]), so a plan aimed at code the trial
//! never reaches cannot pass vacuously.
//!
//! The `Demote*` rows weaken one store the per-site policy (DESIGN.md
//! §13) proves must be `SeqCst`. Under
//! [`rmr_mutex::sched::MemoryModel::SeqCst`] the demotion is invisible —
//! the control batteries pass either way — but under
//! [`rmr_mutex::sched::MemoryModel::StoreBuffer`] the demoted store parks
//! in the faulted task's store buffer past the store→load (Dekker) edge
//! it was guarding, and the battery catches the violation. They are the
//! evidence that the weak mode actually distinguishes the orderings the
//! relaxation sweep left strong.
//!
//! Two rows are not single-operation faults and keep a small wrapper
//! here, each documented with its reason: [`MutantTokenlessTicket`] (a
//! lie about `QUEUED`, not a wrong operation) and the [`MutantSwap`]
//! model (a fault in the real swap tier would be a real use-after-free).

use rmr_core::raw::{RawParkedWaiters, RawRwLock, RawTryReadLock, RawTryRwLock};
use rmr_core::registry::Pid;
use rmr_mutex::mem::{Backend, Ordering, SharedBool, SharedWord, Site};
use rmr_mutex::sched::{Fault, FaultPlan};
use rmr_mutex::{spin_until, Sched};
use std::fmt;

/// Which seeded bug a battery row carries. `None` is the control: the
/// shipped lock under the empty plan, which must pass every battery the
/// mutants fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The shipped lock, unfaulted.
    None,
    /// `SkipStore@F1-L8`: the Figure 1 writer skips `Gate[prevD] ← false`
    /// (both line-8 stores: the waiting room's and an abandoned
    /// passage's completion). The previous side's gate stays open, so
    /// from the writer's second attempt on, readers bind to an open gate
    /// while the writer owns the CS.
    SkipGateClose,
    /// `SkipStore@F1-L3`: the Figure 1 writer skips `D ← currD`. Readers
    /// keep registering on the stale side the writer is draining.
    SkipSideFlip,
    /// `SkipStore@F1-L28`: the last Figure 1 reader out skips
    /// `Permit[d] ← true` and never wakes a writer waiting on `C[d]` —
    /// deadlock.
    SkipReaderPermit,
    /// `ForceResult(false)@TT-SWAP`: the TTAS acquire swap reads "free"
    /// whatever the flag held, so a second holder walks in.
    SwapReadsFree,
    /// `SkipStore@AN-CLOSE`: the Anderson unlock skips closing its own
    /// slot; both slots end up open and two later tickets enter together.
    SkipSlotClose,
    /// `ForceResult(EMPTY)@BR-SCAN`: every Bravo revocation-scan load
    /// reads an empty slot, so the writer enters while a published fast
    /// reader is still inside its read session.
    SkipRevocationScan,
    /// `ForceResult(0)@AS-COUNT`: the waker table's wake-scan skip checks
    /// read "nobody parked", so futures parked behind a release are never
    /// re-polled — the parking tier's lost-wakeup bug, surfacing as a
    /// deterministic deadlock report.
    DropWakeup,
    /// Epoch-swap writer's grace-period scan skips slot 0 (the
    /// [`MutantSwap`] model): a payload is freed while the reader in that
    /// slot still pins it — caught by the freed-flag oracle.
    PrematureRetire,
    /// `Demote@BL-FLAGS` (reader half): the flags-baseline reader's flag
    /// raise parks in its store buffer. The reader sees no writer and
    /// enters while a writer that raised `writer_present` scans flags
    /// that all read false — both sides of the Dekker square miss each
    /// other. Invisible under SC; caught under `StoreBuffer`.
    DemoteFlagRaise,
    /// `Demote@BR-CLEAR`: the revoking Bravo writer's bias clear parks in
    /// its store buffer while the revocation scan runs; a fast reader
    /// that published after the scan passed its slot re-checks the bias,
    /// still sees the stale `true`, and reads inside the writer's CS.
    /// Invisible under SC; caught under `StoreBuffer`.
    DemoteBiasClear,
    /// The [`MutantSwap`] model's reader demotes its epoch publish (site
    /// SW-PUB) to `Release`: the writer's grace scan misses the buffered
    /// pin and frees the payload. Invisible under SC; caught under
    /// `StoreBuffer`.
    DemotePublishEpoch,
    /// `Demote@F1-ZPUB`: a cancelled Figure 1 doorway's zombie publish
    /// parks in the canceller's store buffer past its F1-ZSCAN re-check,
    /// so the last reader out (site F1-ZHELP) and the canceller each
    /// leave the abandoned passage to the other — its gates are never
    /// rewritten. Invisible under SC; caught under `StoreBuffer`.
    DemoteZombiePublish,
    /// The [`MutantTokenlessTicket`] wrapper claims `QUEUED = true` but
    /// `start_write` never draws the ticket: readers stream past the
    /// "tokened" writer without bound — the bug `async_fair_trial`'s
    /// bounded-bypass oracle exists to catch.
    DropWaiterToken,
}

impl Mutation {
    /// The row's fault plan over the shipped lock. The control and the
    /// wrapper rows ([`PrematureRetire`](Self::PrematureRetire),
    /// [`DemotePublishEpoch`](Self::DemotePublishEpoch),
    /// [`DropWaiterToken`](Self::DropWaiterToken)) fault no shipped
    /// operation: their plan is empty.
    pub fn plan(self) -> FaultPlan {
        let (site, fault) = match self {
            Mutation::SkipSideFlip => (Site::F1L3, Fault::SkipStore),
            Mutation::SkipGateClose => (Site::F1L8, Fault::SkipStore),
            Mutation::SkipReaderPermit => (Site::F1L28, Fault::SkipStore),
            Mutation::SwapReadsFree => (Site::TtSwap, Fault::ForceResult(0)),
            Mutation::SkipSlotClose => (Site::AnClose, Fault::SkipStore),
            // Bravo's empty-slot sentinel is 0.
            Mutation::SkipRevocationScan => (Site::BrScan, Fault::ForceResult(0)),
            Mutation::DropWakeup => (Site::AsCount, Fault::ForceResult(0)),
            Mutation::DemoteFlagRaise => (Site::BlFlags, Fault::Demote),
            Mutation::DemoteBiasClear => (Site::BrClear, Fault::Demote),
            Mutation::DemoteZombiePublish => (Site::F1ZPub, Fault::Demote),
            Mutation::None
            | Mutation::PrematureRetire
            | Mutation::DemotePublishEpoch
            | Mutation::DropWaiterToken => return FaultPlan::none(),
        };
        FaultPlan::at(site, fault)
    }
}

/// The battery's vacuity check: panics unless `plan`'s site was faulted
/// at least once across every trial built with it. A row whose site the
/// trial never reaches (a misplaced tag, or a plan pointed at the wrong
/// lock) would otherwise "pass" its invisible-under-SC half, or be
/// "caught" by something else entirely. The empty plan passes trivially.
///
/// # Panics
///
/// Panics if the plan names a site and it was never hit.
pub fn assert_site_hit(label: &str, plan: &FaultPlan) {
    if let Some((site, fault)) = plan.row() {
        assert!(plan.hits() > 0, "{label}: {fault:?}@{site} was never hit");
    }
}

// ---------------------------------------------------------------------
// Doorway wrapper with the dropped waiter token
// ---------------------------------------------------------------------

/// A capability-preserving wrapper over the production
/// [`rmr_baselines::TicketRwLock`] whose [`RawParkedWaiters`] impl is a
/// line-for-line copy of the inner forwarding — except that
/// [`Mutation::DropWaiterToken`] skips the `start_write` forward, so the
/// "doorway" holds no ticket and `poll_write` is a bare
/// `try_write_lock`. The wrapper still advertises `QUEUED = true`: it
/// *claims* the parked writer is counted like a queued process while
/// readers in fact stream past it unboundedly, which is precisely the
/// contract breach `rmr_check::async_exec::async_fair_trial`'s
/// bounded-bypass oracle polices. [`Mutation::None`] is the faithful
/// forwarder and must pass the identical battery.
///
/// Why a wrapper and not a fault plan: the bug is a lie about `QUEUED`
/// (a fairness promise), not a wrong load or store. Every operation the
/// tokenless doorway performs is one the real ticket lock performs too;
/// what is missing is a call, and no single-operation fault can drop
/// the queue position while keeping the `QUEUED = true` claim.
pub struct MutantTokenlessTicket<B: Backend = Sched> {
    mutation: Mutation,
    inner: rmr_baselines::TicketRwLock<B>,
}

/// The mutant's doorway: the real ticket when faithful, nothing when the
/// token was dropped.
#[derive(Debug)]
pub enum MutantDoorway<B: Backend> {
    /// Faithful forward of the inner lock's drawn ticket.
    Queued(<rmr_baselines::TicketRwLock<B> as RawParkedWaiters>::WriteDoorway),
    /// MUTATION POINT: the "queue position" that was never drawn.
    Tokenless,
}

impl<B: Backend> MutantTokenlessTicket<B> {
    /// Creates the wrapper over a fresh inner ticket lock for `capacity`
    /// processes.
    ///
    /// # Panics
    ///
    /// Panics if `mutation` is not `None`/`DropWaiterToken`.
    pub fn new_in(mutation: Mutation, capacity: usize, _backend: B) -> Self {
        assert!(
            matches!(mutation, Mutation::None | Mutation::DropWaiterToken),
            "{mutation:?} is not a doorway mutation"
        );
        Self { mutation, inner: rmr_baselines::TicketRwLock::new_in(capacity, B::default()) }
    }
}

impl<B: Backend> RawRwLock for MutantTokenlessTicket<B> {
    type ReadToken = ();
    type WriteToken = ();

    fn read_lock(&self, pid: Pid) {
        self.inner.read_lock(pid)
    }

    fn read_unlock(&self, pid: Pid, (): ()) {
        self.inner.read_unlock(pid, ())
    }

    fn write_lock(&self, pid: Pid) {
        self.inner.write_lock(pid)
    }

    fn write_unlock(&self, pid: Pid, (): ()) {
        self.inner.write_unlock(pid, ())
    }

    fn max_processes(&self) -> usize {
        self.inner.max_processes()
    }
}

impl<B: Backend> RawTryReadLock for MutantTokenlessTicket<B> {
    fn try_read_lock(&self, pid: Pid) -> Option<()> {
        self.inner.try_read_lock(pid)
    }
}

// SAFETY: both variants grant through the inner ticket lock's own
// admission checks (`poll_write` / `try_write_lock`), so exclusion is the
// inner lock's. The mutant's lie is about *fairness* (QUEUED without a
// queue position), never about exclusion — the fairness oracle, not the
// exclusion oracle, must be what catches it.
unsafe impl<B: Backend> RawParkedWaiters for MutantTokenlessTicket<B> {
    const QUEUED: bool = true;

    type WriteDoorway = MutantDoorway<B>;

    fn start_write(&self, pid: Pid) -> MutantDoorway<B> {
        if self.mutation == Mutation::DropWaiterToken {
            MutantDoorway::Tokenless // MUTATION POINT: no ticket drawn
        } else {
            MutantDoorway::Queued(self.inner.start_write(pid))
        }
    }

    fn poll_write(&self, pid: Pid, doorway: MutantDoorway<B>) -> Result<(), MutantDoorway<B>> {
        match doorway {
            MutantDoorway::Queued(d) => {
                self.inner.poll_write(pid, d).map_err(MutantDoorway::Queued)
            }
            MutantDoorway::Tokenless => {
                self.inner.try_write_lock(pid).ok_or(MutantDoorway::Tokenless)
            }
        }
    }

    fn cancel_write(&self, pid: Pid, doorway: MutantDoorway<B>) {
        if let MutantDoorway::Queued(d) = doorway {
            self.inner.cancel_write(pid, d);
        }
    }
}

impl<B: Backend> fmt::Debug for MutantTokenlessTicket<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MutantTokenlessTicket").field("mutation", &self.mutation).finish()
    }
}

// ---------------------------------------------------------------------
// Epoch-swap snapshot copy with the skipped grace-scan slot
// ---------------------------------------------------------------------

/// A model of `rmr-swap`'s epoch-swap protocol over a bounded arena,
/// carrying [`Mutation::PrematureRetire`] (the writer's grace-period scan
/// skips slot 0), [`Mutation::DemotePublishEpoch`] (the reader's epoch
/// publish weakens from SeqCst to Release), or [`Mutation::None`] for
/// the control copy.
///
/// Payloads are arena *indices* with a freed flag instead of heap
/// pointers, so the seeded reclamation bug surfaces as a caught oracle
/// panic ("freed payload observed …") rather than actual use-after-free
/// UB the checker could not observe deterministically. Single-writer by
/// construction: the real tier serializes writers through a raw lock, so
/// one writer task models the serialized install stream and the mutation
/// point — the grace scan — is exercised without dragging a lock copy in.
/// Always instantiated over [`Sched`] by the battery.
///
/// Why a model and not a fault plan over `rmr_swap::Snapshot`: there,
/// skipping a pin in the grace scan frees a real heap payload a reader
/// still dereferences — a real use-after-free, undefined behavior the
/// checker cannot observe deterministically (it may read fine, crash, or
/// corrupt the run). The model's freed flags turn the same bug into an
/// oracle panic.
pub struct MutantSwap<B: Backend = Sched> {
    mutation: Mutation,
    /// The global epoch `G` (starts at 1; 0 is the empty-slot sentinel).
    epoch: B::Word,
    /// Arena index of the current payload.
    payload: B::Word,
    /// The reader epoch table (the registry's epoch slots, sans padding).
    slots: Box<[B::Word]>,
    /// Freed flag per arena cell — the reclamation oracle.
    freed: Box<[B::Bool]>,
    /// Bump allocator over the arena (cell 0 is the initial payload).
    next_cell: B::Word,
}

impl<B: Backend> MutantSwap<B> {
    /// Creates the model with `slots` reader slots and an arena of
    /// `arena_cells` payload cells (must cover one install per writer
    /// passage plus the initial payload).
    ///
    /// # Panics
    ///
    /// Panics if `mutation` is not `None`/`PrematureRetire`/
    /// `DemotePublishEpoch`.
    pub fn new_in(mutation: Mutation, slots: usize, arena_cells: usize, _backend: B) -> Self {
        assert!(
            matches!(
                mutation,
                Mutation::None | Mutation::PrematureRetire | Mutation::DemotePublishEpoch
            ),
            "{mutation:?} is not a Swap mutation"
        );
        assert!(slots > 0 && arena_cells > 0);
        Self {
            mutation,
            epoch: B::Word::new(1),
            payload: B::Word::new(0),
            slots: (0..slots).map(|_| B::Word::new(0)).collect(),
            freed: (0..arena_cells).map(|_| B::Bool::new(false)).collect(),
            next_cell: B::Word::new(0),
        }
    }

    /// One reader pin passage (the `Snapshot::load` body) plus the
    /// oracle: the pinned payload must not be freed while this slot's
    /// epoch pins it.
    ///
    /// # Panics
    ///
    /// Panics — the caught-bug signal — if the pinned payload's freed
    /// flag is set.
    pub fn reader_passage(&self, pid: Pid) {
        let slot = &self.slots[pid.index()];
        let e = self.epoch.load(Ordering::Relaxed);
        // Site SW-PUB: publish, then load — the linchpin order. The
        // original is SeqCst so the publish cannot pass the payload load.
        let order = if self.mutation == Mutation::DemotePublishEpoch {
            Ordering::Release // MUTATION POINT: the publish parks in the buffer
        } else {
            Ordering::SeqCst
        };
        slot.store(e, order);
        let mut p = self.payload.load(Ordering::SeqCst); // site SW-LOAD
        let e2 = self.epoch.load(Ordering::SeqCst);
        if e2 != e {
            slot.store(e2, order); // republish under the same policy
            p = self.payload.load(Ordering::SeqCst);
        }
        // CS: dereference the snapshot. In the real tier this is the
        // guard's `Deref`; here the freed flag stands in for the heap.
        // SeqCst so the oracle itself stays out of the ordering argument.
        assert!(
            !self.freed[p as usize].load(Ordering::SeqCst),
            "freed payload observed while an epoch pins it (cell {p})"
        );
        slot.store(0, Ordering::Release); // guard drop clears the pin
    }

    /// One writer install passage (the `Snapshot::store` body under its
    /// serialized write session): swap the payload, bump the epoch,
    /// grace-scan the reader table, free the retiree.
    ///
    /// # Panics
    ///
    /// Panics if the arena is exhausted or a cell is freed twice.
    pub fn writer_passage(&self) {
        let idx = self.next_cell.fetch_add(1, Ordering::Relaxed) + 1;
        assert!((idx as usize) < self.freed.len(), "arena exhausted; size it to the trial");
        let old = self.payload.swap(idx, Ordering::SeqCst); // site SW-SWAP
        let r = self.epoch.fetch_add(1, Ordering::SeqCst) + 1; // site SW-BUMP
        let start = usize::from(self.mutation == Mutation::PrematureRetire);
        for slot in start..self.slots.len() {
            // MUTATION POINT: the mutant starts at slot 1, never waiting
            // out a pin published in slot 0.
            spin_until(|| {
                let e = self.slots[slot].load(Ordering::SeqCst); // site SW-SCAN
                e == 0 || e >= r
            });
        }
        let was = self.freed[old as usize].swap(true, Ordering::SeqCst);
        assert!(!was, "payload cell {old} freed twice");
    }

    /// Mirror of the real tier's quiescence entry point: no published
    /// epoch, and the current payload is live.
    pub fn is_quiescent(&self) -> bool {
        self.slots.iter().all(|s| s.load(Ordering::Relaxed) == 0)
            && !self.freed[self.payload.load(Ordering::Relaxed) as usize].load(Ordering::Relaxed)
    }
}

impl<B: Backend> fmt::Debug for MutantSwap<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MutantSwap").field("mutation", &self.mutation).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::async_exec::async_rw_trial;
    use crate::harness::{mutex_trial, run_trial, rw_trial, Scenario, Trial};
    use rmr_async::lock::AsyncRwLock;
    use rmr_baselines::{DistributedFlagRwLock, TicketRwLock};
    use rmr_bravo::{Bravo, BravoConfig};
    use rmr_core::swmr::SwmrWriterPriority;
    use rmr_mutex::sched::RoundRobin;
    use rmr_mutex::TtasLock;
    use std::sync::Arc;

    /// One round-robin schedule of `trial` under `row`'s plan, then the
    /// battery's vacuity check. The constructor asserts of the old lock
    /// copies ("not a Figure 1 mutation") moved here: a row pointed at a
    /// lock that never reaches its site is rejected by the hit check.
    fn run_row(label: &str, trial: Trial, row: Mutation) {
        let plan = row.plan();
        let _ = run_trial(trial.faulted(&plan), &mut RoundRobin::default(), 30_000);
        assert_site_hit(label, &plan);
    }

    fn rw<L: RawRwLock + 'static>(lock: L) -> Trial {
        rw_trial(Arc::new(lock), Scenario::new(1, 1, 2), || true)
    }

    #[test]
    fn controls_behave_like_the_originals_single_threaded() {
        // The two surviving wrappers, driven directly (off the scheduler
        // the Sched backend runs natively).
        let ticket = MutantTokenlessTicket::new_in(Mutation::None, 2, Sched);
        let (r, w) = (Pid::from_index(0), Pid::from_index(1));
        ticket.read_lock(r);
        ticket.read_unlock(r, ());
        let doorway = ticket.start_write(w);
        assert!(matches!(doorway, MutantDoorway::Queued(_)));
        ticket.poll_write(w, doorway).expect("uncontended doorway grants");
        ticket.write_unlock(w, ());
        assert!(ticket.try_read_lock(r).is_some());
        ticket.read_unlock(r, ());

        let swap = MutantSwap::new_in(Mutation::None, 2, 4, Sched);
        swap.reader_passage(Pid::from_index(0));
        swap.writer_passage();
        swap.reader_passage(Pid::from_index(1));
        swap.writer_passage();
        assert!(swap.is_quiescent());
    }

    #[test]
    #[should_panic(expected = "was never hit")]
    fn async_rejects_foreign_mutations() {
        let lock = Arc::new(AsyncRwLock::with_raw_and_capacity_in(
            (),
            TicketRwLock::new_in(2, Sched),
            2,
            Sched,
        ));
        run_row(
            "async",
            async_rw_trial(lock, Scenario::new(1, 1, 2), || true),
            Mutation::SkipGateClose,
        );
    }

    #[test]
    #[should_panic(expected = "was never hit")]
    fn fig1_rejects_foreign_mutations() {
        run_row("fig1", rw(SwmrWriterPriority::new_in(Sched)), Mutation::SwapReadsFree);
    }

    #[test]
    #[should_panic(expected = "was never hit")]
    fn ttas_rejects_foreign_mutations() {
        run_row(
            "ttas",
            mutex_trial(Arc::new(TtasLock::new_in(Sched)), 2, 2),
            Mutation::SkipGateClose,
        );
    }

    #[test]
    #[should_panic(expected = "was never hit")]
    fn bravo_rejects_foreign_mutations() {
        let config = BravoConfig { table_slots: 2, rebias_after: 2, initial_bias: true };
        let lock = Bravo::new_in(TicketRwLock::new_in(2, Sched), config, Sched);
        run_row("bravo", rw(lock), Mutation::SkipGateClose);
    }

    #[test]
    #[should_panic(expected = "not a Swap mutation")]
    fn swap_rejects_foreign_mutations() {
        let _ = MutantSwap::new_in(Mutation::SkipGateClose, 2, 4, Sched);
    }

    #[test]
    #[should_panic(expected = "was never hit")]
    fn flags_rejects_foreign_mutations() {
        // Not `SwapReadsFree`: the flags lock's writer mutex is the
        // shipped TTAS lock, so that row would (rightly) hit.
        run_row("flags", rw(DistributedFlagRwLock::new_in(2, Sched)), Mutation::SkipGateClose);
    }
}
