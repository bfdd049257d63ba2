//! The mutation battery: every seeded bug must be caught, every control
//! must pass, and every reported failure must replay deterministically.
//!
//! This is the checker proving it has teeth (the acceptance bar of the
//! `rmr-check` subsystem). Each row seeds one bug into the *shipped* lock
//! through a fault plan — one skipped store, one demoted ordering, one
//! forced read — which must fall to a bounded schedule budget, while the
//! *identical* budget passes the same lock unfaulted, so a red battery
//! always means a real bug, never a flaky harness. Every faulted trial
//! also asserts its site was hit, so no row passes vacuously.

use rmr_async::lock::AsyncRwLock;
use rmr_baselines::{DistributedFlagRwLock, TicketRwLock};
use rmr_bravo::{Bravo, BravoConfig};
use rmr_check::async_exec::{async_rw_trial, async_write_cancel_trial};
use rmr_check::exhaustive_in;
use rmr_check::harness::{
    mutex_trial, randomized_batteries_in, run_trial_in, rw_trial, Scenario, TaskBody, Trial,
};
use rmr_check::mutants::{assert_site_hit, MutantSwap, MutantTokenlessTicket, Mutation};
use rmr_core::registry::Pid;
use rmr_core::swmr::SwmrWriterPriority;
use rmr_mutex::sched::{FaultPlan, MemoryModel, Replay, RunError};
use rmr_mutex::{AndersonLock, Sched, TtasLock};
use std::sync::Arc;

const BUDGET: u64 = 30_000;
/// Randomized schedules per stage before escalating to the next.
const MUTANT_SCHEDULES: u64 = 40;
/// DFS schedule cap for the final exhaustive stage.
const MUTANT_DFS_CAP: u64 = 5_000;
/// Schedules each control copy must survive.
const CONTROL_SCHEDULES: u64 = 15;

/// Figure 1 under blocking readers and one writer. Quiescence is only
/// required of the control: a fault that merely corrupted the idle state
/// would still be caught here, but none of the seeded ones need it.
fn fig1_trial(plan: &FaultPlan, scenario: Scenario) -> Trial {
    let lock = Arc::new(SwmrWriterPriority::new_in(Sched));
    let q = Arc::clone(&lock);
    let control = plan.row().is_none();
    rw_trial(lock, scenario, move || !control || q.is_quiescent()).faulted(plan)
}

fn ttas_trial(plan: &FaultPlan, tasks: usize, attempts: u32) -> Trial {
    mutex_trial(Arc::new(TtasLock::new_in(Sched)), tasks, attempts).faulted(plan)
}

fn anderson_trial(plan: &FaultPlan) -> Trial {
    mutex_trial(Arc::new(AndersonLock::new_in(2, Sched)), 2, 3).faulted(plan)
}

/// Async readers and writers (deterministic executors, one per task)
/// over the shipped `AsyncRwLock` on the ticket baseline. The wake-scan
/// skip checks are the fault site: under [`Mutation::DropWakeup`] no
/// release ever wakes, so a future that parked spins its parker forever —
/// a deadlock (or budget) report, like the Figure 1 lost-permit row.
fn async_trial(plan: &FaultPlan, scenario: Scenario) -> Trial {
    let capacity = scenario.tasks();
    let lock = Arc::new(AsyncRwLock::with_raw_and_capacity_in(
        (),
        TicketRwLock::new_in(capacity, Sched),
        capacity,
        Sched,
    ));
    let q = Arc::clone(&lock);
    let control = plan.row().is_none();
    async_rw_trial(lock, scenario, move || !control || q.is_quiescent()).faulted(plan)
}

/// Readers pin epoch-stamped snapshots; one writer task models the
/// lock-serialized install stream (swap, epoch bump, grace scan, free).
/// The scan is the mutation point: [`Mutation::PrematureRetire`] skips
/// slot 0, so the reader publishing there can observe a freed payload —
/// the freed-flag oracle panics inside the read session.
fn swap_mutant_trial(
    mutation: Mutation,
    readers: usize,
    reader_attempts: u64,
    writer_passages: u64,
) -> Trial {
    let arena = writer_passages as usize + 2;
    let model = Arc::new(MutantSwap::new_in(mutation, readers, arena, Sched));
    let mut tasks: Vec<TaskBody> = Vec::new();
    for r in 0..readers {
        let model = Arc::clone(&model);
        tasks.push(Box::new(move || {
            let pid = Pid::from_index(r);
            for _ in 0..reader_attempts {
                model.reader_passage(pid);
            }
        }));
    }
    {
        let model = Arc::clone(&model);
        tasks.push(Box::new(move || {
            for _ in 0..writer_passages {
                model.writer_passage();
            }
        }));
    }
    let q = Arc::clone(&model);
    Trial {
        tasks,
        post: Box::new(move || {
            if mutation == Mutation::None && !q.is_quiescent() {
                return Err("swap mutant control is not quiescent after a clean run".into());
            }
            Ok(())
        }),
    }
}

fn flags_trial(plan: &FaultPlan, scenario: Scenario) -> Trial {
    let lock = Arc::new(DistributedFlagRwLock::new_in(scenario.tasks(), Sched));
    let q = Arc::clone(&lock);
    let control = plan.row().is_none();
    rw_trial(lock, scenario, move || !control || q.readers_visible() == 0).faulted(plan)
}

fn bravo_trial(plan: &FaultPlan, scenario: Scenario) -> Trial {
    // 2 table slots, re-bias after 2 slow reads: revocation, collision and
    // re-bias all reachable within small scenarios.
    let config = BravoConfig { table_slots: 2, rebias_after: 2, initial_bias: true };
    let lock = Arc::new(Bravo::new_in(TicketRwLock::new_in(usize::MAX, Sched), config, Sched));
    let q = Arc::clone(&lock);
    let control = plan.row().is_none();
    rw_trial(lock, scenario, move || !control || q.is_quiescent()).faulted(plan)
}

/// Figure 1 behind `AsyncRwLock`, writers dropping their `write()` future
/// after one poll — the trial that drives the deferred-zombie cancel
/// (sites F1-ZPUB / F1-ZSCAN / F1-ZHELP). Its post-run quiescence check
/// holds for the control and the faulted lock alike.
fn fig1_write_cancel_trial(plan: &FaultPlan, capacity: usize, scenario: Scenario) -> Trial {
    let lock = Arc::new(AsyncRwLock::with_raw_and_capacity_in(
        (),
        SwmrWriterPriority::new_in(Sched),
        capacity,
        Sched,
    ));
    async_write_cancel_trial(lock, scenario).faulted(plan)
}

const SC: MemoryModel = MemoryModel::SeqCst;
const SB: MemoryModel = MemoryModel::StoreBuffer;

/// Escalating hunt under `model`: PCT, then uniform random walks, then
/// bounded DFS on the (smaller) `mk_small` config (under the store buffer
/// the DFS tree includes flush decisions). Asserts the row is caught with
/// an expected failure class, replays the recorded schedule to verify
/// determinism, and asserts the row's site was hit.
fn assert_caught(
    label: &str,
    model: MemoryModel,
    plan: &FaultPlan,
    mk: impl Fn() -> Trial,
    mk_small: impl Fn() -> Trial,
    expected_any: &[&str],
) {
    let randomized =
        randomized_batteries_in(label, &mk, 0x0b5e_55ed, MUTANT_SCHEDULES, 3, BUDGET, model)
            .into_iter()
            .find_map(|report| report.failure);
    let (failure, replay_big) = if let Some(f) = randomized {
        (f, true)
    } else if let Some(f) =
        exhaustive_in(label, &mk_small, 2, BUDGET, MUTANT_DFS_CAP, model).failure
    {
        (f, false)
    } else {
        panic!("{label}: mutant survived {model:?} PCT, random and bounded-DFS exploration");
    };
    assert!(
        expected_any.iter().any(|s| failure.reason.contains(s)),
        "{label}: unexpected failure class: {failure}"
    );

    // Determinism: replaying the recorded decisions (flush decisions
    // included) reproduces the exact failure — same decisions, same
    // kind, same message for panics.
    let fresh = if replay_big { mk() } else { mk_small() };
    let mut strategy = Replay::new(failure.schedule.clone());
    let replayed = run_trial_in(fresh, &mut strategy, BUDGET, model);
    let err = replayed.result.expect_err("replay of a failing schedule came back clean");
    assert_eq!(replayed.schedule, failure.schedule, "{label}: replay took different decisions");
    match err {
        RunError::Panic { message, .. } => {
            assert!(
                expected_any.iter().any(|s| message.contains(s)),
                "{label}: replayed into a different failure: {message}"
            );
        }
        RunError::Deadlock { .. } => {
            assert!(
                failure.reason.starts_with("deadlock"),
                "{label}: replay deadlocked but original was: {}",
                failure.reason
            );
        }
        RunError::Budget { .. } => {
            assert!(
                failure.reason.contains("budget"),
                "{label}: replay exhausted budget but original was: {}",
                failure.reason
            );
        }
    }
    assert_site_hit(label, plan);
}

/// The control (or, for the `Demote*` rows under SC, the invisible
/// mutant) must pass both battery styles at the mutants' budgets under
/// `model`: a catch only counts if the unmutated twin survives the
/// identical exploration.
fn assert_passes(label: &str, model: MemoryModel, plan: &FaultPlan, mk: impl Fn() -> Trial) {
    let reports =
        randomized_batteries_in(label, mk, 0x0c0a_7401, CONTROL_SCHEDULES, 3, BUDGET, model);
    for report in reports {
        assert!(report.passed(), "{report}");
    }
    assert_site_hit(label, plan);
}

/// The fairness trial over the doorway wrapper: the production
/// `AsyncRwLock` drives the wrapper's (possibly tokenless) doorway, and
/// the bounded-bypass oracle must distinguish the faithful forward from
/// the dropped token.
fn async_fair_mutant_trial(mutation: Mutation, scenario: Scenario) -> Trial {
    let capacity = scenario.tasks().max(4);
    let lock = Arc::new(AsyncRwLock::with_raw_and_capacity_in(
        (),
        MutantTokenlessTicket::new_in(mutation, capacity, Sched),
        capacity,
        Sched,
    ));
    let q = Arc::clone(&lock);
    rmr_check::async_exec::async_fair_trial(lock, scenario, move || {
        mutation != Mutation::None || q.is_quiescent()
    })
}

#[test]
fn fig1_control_passes_the_mutant_budgets() {
    let none = FaultPlan::none();
    assert_passes("fig1-control", SC, &none, || fig1_trial(&none, Scenario::new(2, 1, 2)));
}

#[test]
fn fig1_skip_gate_close_is_caught() {
    // The stale open gate needs the writer's second attempt, hence 2+
    // writer passages (also in the small DFS config).
    let plan = Mutation::SkipGateClose.plan();
    assert_caught(
        "fig1-skip-gate-close",
        SC,
        &plan,
        || fig1_trial(&plan, Scenario::new(2, 1, 3)),
        || fig1_trial(&plan, Scenario::new(1, 1, 2)),
        &["P1 violated", "torn read", "deadlock", "not quiescent"],
    );
}

#[test]
fn fig1_skip_side_flip_is_caught() {
    let plan = Mutation::SkipSideFlip.plan();
    assert_caught(
        "fig1-skip-side-flip",
        SC,
        &plan,
        || fig1_trial(&plan, Scenario::new(2, 1, 3)),
        || fig1_trial(&plan, Scenario::new(1, 1, 2)),
        &["P1 violated", "torn read", "deadlock", "not quiescent"],
    );
}

#[test]
fn fig1_skip_reader_permit_is_caught() {
    // The lost wakeup parks the writer forever: a deadlock (or, if the
    // budget trips first mid-confirmation, a budget report).
    let plan = Mutation::SkipReaderPermit.plan();
    assert_caught(
        "fig1-skip-reader-permit",
        SC,
        &plan,
        || fig1_trial(&plan, Scenario::new(2, 1, 2)),
        || fig1_trial(&plan, Scenario::new(1, 1, 2)),
        &["deadlock", "budget"],
    );
}

#[test]
fn ttas_control_passes_the_mutant_budgets() {
    let none = FaultPlan::none();
    assert_passes("ttas-control", SC, &none, || ttas_trial(&none, 3, 2));
}

#[test]
fn ttas_swap_reads_free_is_caught() {
    let plan = Mutation::SwapReadsFree.plan();
    assert_caught(
        "ttas-swap-reads-free",
        SC,
        &plan,
        || ttas_trial(&plan, 3, 2),
        || ttas_trial(&plan, 2, 2),
        &["mutual exclusion violated", "torn pair"],
    );
}

#[test]
fn anderson_control_passes_the_mutant_budgets() {
    let none = FaultPlan::none();
    assert_passes("anderson-control", SC, &none, || anderson_trial(&none));
}

#[test]
fn anderson_skip_slot_close_is_caught() {
    let plan = Mutation::SkipSlotClose.plan();
    assert_caught(
        "anderson-skip-slot-close",
        SC,
        &plan,
        || anderson_trial(&plan),
        || anderson_trial(&plan),
        &["mutual exclusion violated", "torn pair"],
    );
}

#[test]
fn bravo_control_passes_the_mutant_budgets() {
    let none = FaultPlan::none();
    assert_passes("bravo-control", SC, &none, || bravo_trial(&none, Scenario::new(2, 1, 2)));
}

#[test]
fn bravo_skip_revocation_scan_is_caught() {
    // The writer enters over a still-published fast reader: an exclusion
    // violation or a torn read, depending on who the oracle trips first.
    let plan = Mutation::SkipRevocationScan.plan();
    assert_caught(
        "bravo-skip-revocation-scan",
        SC,
        &plan,
        || bravo_trial(&plan, Scenario::new(2, 1, 2)),
        || bravo_trial(&plan, Scenario::new(1, 1, 1)),
        &["P1 violated", "torn read"],
    );
}

#[test]
fn swap_control_passes_the_mutant_budgets() {
    let none = FaultPlan::none();
    assert_passes("swap-control", SC, &none, || swap_mutant_trial(Mutation::None, 2, 2, 2));
}

#[test]
fn swap_premature_retire_is_caught() {
    // The reader in slot 0 pins a payload; the mutant writer's grace scan
    // starts at slot 1, frees it anyway, and the reader's freed-flag
    // oracle trips inside the read session. One reader keeps the mutant
    // scan a no-op, so the whole race is the single-window interleaving
    // "publish/load → full writer passage → dereference".
    assert_caught(
        "swap-premature-retire",
        SC,
        &Mutation::PrematureRetire.plan(),
        || swap_mutant_trial(Mutation::PrematureRetire, 2, 2, 2),
        || swap_mutant_trial(Mutation::PrematureRetire, 1, 1, 2),
        &["freed payload observed"],
    );
}

#[test]
fn async_control_passes_the_mutant_budgets() {
    let none = FaultPlan::none();
    assert_passes("async-control", SC, &none, || async_trial(&none, Scenario::new(2, 1, 2)));
}

#[test]
fn async_drop_wakeup_is_caught() {
    // A future must park behind a holder before that holder's (skipped)
    // release wake — 2 passages per task give every strategy that window.
    let plan = Mutation::DropWakeup.plan();
    assert_caught(
        "async-drop-wakeup",
        SC,
        &plan,
        || async_trial(&plan, Scenario::new(2, 1, 2)),
        || async_trial(&plan, Scenario::new(1, 1, 2)),
        &["deadlock", "budget"],
    );
}

#[test]
fn async_fair_control_passes_the_mutant_budgets() {
    assert_passes("async-fair-control", SC, &FaultPlan::none(), || {
        async_fair_mutant_trial(Mutation::None, Scenario::new(2, 1, 2))
    });
}

#[test]
fn async_drop_waiter_token_is_caught() {
    // With the token dropped, the readers' remaining passages all clear
    // the "parked" writer's bare try-polling: any schedule that parks the
    // writer early sees more than `readers` bypasses at the grant. 3
    // reader attempts guarantee the overshoot is reachable (up to 6
    // bypasses against a bound of 2).
    assert_caught(
        "async-drop-waiter-token",
        SC,
        &Mutation::DropWaiterToken.plan(),
        || async_fair_mutant_trial(Mutation::DropWaiterToken, Scenario::new(2, 1, 3)),
        || async_fair_mutant_trial(Mutation::DropWaiterToken, Scenario::new(1, 1, 3)),
        &["bounded bypass violated"],
    );
}

// ---------------------------------------------------------------------
// The ordering rows (`Demote*`): each demotes exactly one SeqCst store
// to Release at a site DESIGN.md §13 proves must stay SeqCst. Under
// sequential consistency the demotion changes nothing — the SC
// batteries must pass it. Under the store buffer the demoted store can
// sit buffered across the protocol's Dekker window, and the batteries
// must catch it. Together the pair shows the weak mode (not luck, not
// the oracles alone) is what polices the relaxation sweep.
// ---------------------------------------------------------------------

#[test]
fn flags_control_passes_the_weak_budgets() {
    let none = FaultPlan::none();
    let mk = || flags_trial(&none, Scenario::new(2, 1, 2));
    assert_passes("flags-control", SC, &none, mk);
    assert_passes("flags-control", SB, &none, mk);
}

#[test]
fn bravo_and_swap_controls_pass_the_weak_budgets() {
    let none = FaultPlan::none();
    assert_passes("bravo-control", SB, &none, || bravo_trial(&none, Scenario::new(2, 1, 2)));
    assert_passes("swap-control", SB, &none, || swap_mutant_trial(Mutation::None, 2, 2, 2));
}

#[test]
fn fig1_write_cancel_control_passes_the_weak_budgets() {
    let none = FaultPlan::none();
    let mk = || fig1_write_cancel_trial(&none, 8, Scenario::new(2, 1, 2));
    assert_passes("fig1-write-cancel-control", SC, &none, mk);
    assert_passes("fig1-write-cancel-control", SB, &none, mk);
}

#[test]
fn sc_cannot_see_the_ordering_mutants() {
    // The demotions are no-ops under sequential consistency: every store
    // is applied immediately whatever its ordering, so the SC batteries
    // (the mutants' own budgets) must come back green — with the faulted
    // site demonstrably hit. This is the "invisible half" of the Demote*
    // proof: a mutant the SC batteries caught would be a protocol bug,
    // not an ordering bug.
    let plan = Mutation::DemoteFlagRaise.plan();
    assert_passes("flags-demote-sc", SC, &plan, || flags_trial(&plan, Scenario::new(2, 1, 2)));
    let plan = Mutation::DemoteBiasClear.plan();
    assert_passes("bravo-demote-sc", SC, &plan, || bravo_trial(&plan, Scenario::new(2, 1, 2)));
    let plan = Mutation::DemoteZombiePublish.plan();
    assert_passes("fig1-demote-zombie-sc", SC, &plan, || {
        fig1_write_cancel_trial(&plan, 8, Scenario::new(2, 1, 2))
    });
    assert_passes("swap-demote-sc", SC, &FaultPlan::none(), || {
        swap_mutant_trial(Mutation::DemotePublishEpoch, 2, 2, 2)
    });
}

#[test]
fn flags_demote_flag_raise_is_caught_under_the_weak_model() {
    // Site BL-FLAGS: the reader's flag raise is one half of a Dekker
    // square. Buffered, the raise is invisible to the writer's scan while
    // the reader's SeqCst `writer_present` check (a buffer drain + native
    // load) still sees no writer: both sides enter.
    let plan = Mutation::DemoteFlagRaise.plan();
    assert_caught(
        "flags-demote-flag-raise",
        SB,
        &plan,
        || flags_trial(&plan, Scenario::new(2, 1, 2)),
        || flags_trial(&plan, Scenario::new(1, 1, 1)),
        &["P1 violated", "torn read"],
    );
}

#[test]
fn bravo_demote_bias_clear_is_caught_under_the_weak_model() {
    // Site BR-CLEAR: the revoking writer's bias clear sits buffered, so a
    // fast reader's SeqCst re-check still sees the bias up after the
    // writer's (already passed) revocation scan: reader and writer
    // overlap in the critical section.
    let plan = Mutation::DemoteBiasClear.plan();
    assert_caught(
        "bravo-demote-bias-clear",
        SB,
        &plan,
        || bravo_trial(&plan, Scenario::new(2, 1, 2)),
        || bravo_trial(&plan, Scenario::new(1, 1, 1)),
        &["P1 violated", "torn read"],
    );
}

#[test]
fn fig1_demote_zombie_publish_is_caught_under_the_weak_model() {
    // Site F1-ZPUB: the canceller's zombie publish sits buffered past its
    // F1-ZSCAN re-check (which still counts the last reader), while that
    // reader's F1-ZHELP load misses the publish: nobody completes the
    // abandoned passage, its readers wait on a gate nobody reopens.
    let plan = Mutation::DemoteZombiePublish.plan();
    assert_caught(
        "fig1-demote-zombie-publish",
        SB,
        &plan,
        || fig1_write_cancel_trial(&plan, 8, Scenario::new(2, 1, 2)),
        || fig1_write_cancel_trial(&plan, 4, Scenario::new(1, 1, 1)),
        &["deadlock", "budget", "not quiescent"],
    );
}

#[test]
fn swap_demote_publish_epoch_is_caught_under_the_weak_model() {
    // Site SW-PUB: the reader's epoch publication sits buffered, so the
    // writer's grace scan reads slot 0 and frees the payload the reader
    // is still dereferencing — the freed-flag oracle trips inside the
    // read session.
    assert_caught(
        "swap-demote-publish-epoch",
        SB,
        &FaultPlan::none(),
        || swap_mutant_trial(Mutation::DemotePublishEpoch, 2, 2, 2),
        || swap_mutant_trial(Mutation::DemotePublishEpoch, 1, 1, 2),
        &["freed payload observed"],
    );
}
