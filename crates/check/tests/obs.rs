//! The observability hooks under deterministic schedule exploration.
//!
//! These batteries make the recorder part of the oracle: under every
//! explored interleaving the counters must stay an exact ledger of the
//! protocol (acquires balance releases, passage totals match the
//! scenario), and the drained trace must tell a causally closed story
//! (every park followed by a same-pid grant or cancel, nothing dropped
//! by the bounded ring). A hook that double-counts, misattributes a
//! pid, or fires on the wrong side of a release shows up here as a
//! seeded, replayable failure.

use rmr_async::lock::AsyncRwLock;
use rmr_check::harness::{randomized_batteries, run_trial, Scenario, Trial};
use rmr_check::obs::{guard_balance_trial, obs_recorder, park_wake_trial};
use rmr_check::strategies::RandomWalk;
use rmr_core::mwmr::MwmrStarvationFree;
use rmr_mutex::Sched;
use rmr_obs::{hist, Metric, SAMPLE_EVERY};
use std::sync::Arc;

const BUDGET: u64 = 30_000;
const PCT_SCHEDULES: u64 = 10;
const PCT_DEPTH: usize = 3;

fn assert_randomized(label: &str, mk: impl Fn() -> Trial) {
    for report in randomized_batteries(label, mk, 0x0b5_0001, PCT_SCHEDULES, PCT_DEPTH, BUDGET) {
        assert!(report.passed(), "{report}");
    }
}

#[test]
fn guard_balance_over_fig3_randomized() {
    // Sync passages through Observed<MwmrStarvationFree<Sched>>: the
    // recorder's acquire/release ledger must balance exactly under every
    // schedule, including ones that interleave the hook with the unlock.
    assert_randomized("obs/guard-balance", || {
        guard_balance_trial(
            MwmrStarvationFree::new_in(4, Sched),
            Scenario::new(2, 1, 2),
            obs_recorder(4, 256),
        )
    });
}

#[test]
fn park_wake_over_async_ticket_randomized() {
    // Instrumented async tier: every AsyncPark in the deterministic
    // trace is followed by a same-pid grant (the wake chain delivered)
    // — and the ring dropped nothing, so that claim covers the run.
    assert_randomized("obs/park-wake", || {
        let lock = Arc::new(
            AsyncRwLock::with_raw_and_capacity_in(
                (),
                rmr_baselines::TicketRwLock::new_in(8, Sched),
                8,
                Sched,
            )
            .with_recorder(obs_recorder(8, 1024)),
        );
        park_wake_trial(lock, Scenario::new(2, 1, 2))
    });
}

#[test]
fn sampled_histograms_replay_under_the_same_seed() {
    // Sampled timing keeps replay intact: the sampler is a pure function
    // of each pid's passage count and TickClock of the schedule, so one
    // seed run twice yields the same schedule, the same histograms and
    // the same trace. SAMPLE_EVERY + 1 passages per task make each pid
    // time some passages and skip others.
    let attempts = SAMPLE_EVERY as u32 + 1;
    let run = || {
        let rec = obs_recorder(4, 4096);
        let trial = guard_balance_trial(
            MwmrStarvationFree::new_in(4, Sched),
            Scenario::new(1, 1, attempts),
            Arc::clone(&rec),
        );
        let outcome = run_trial(trial, &mut RandomWalk::new(0x0b5_0002), 1_000_000);
        assert!(outcome.result.is_ok(), "{:?}", outcome.result);
        let hists = [Metric::ReadAcquireNs, Metric::WriteAcquireNs].map(|m| {
            let h = rec.histogram(m);
            (0..hist::BUCKETS).map(|i| h.bucket(i)).collect::<Vec<_>>()
        });
        let timed = rec.samples(Metric::ReadAcquireNs) + rec.samples(Metric::WriteAcquireNs);
        assert!(
            (2..2 * u64::from(attempts)).contains(&timed),
            "{timed} of {} passages timed: some, never all",
            2 * attempts
        );
        (outcome.schedule, hists, rec.drain_trace())
    };
    let first = run();
    assert!(!first.2.is_empty());
    assert!(first == run(), "same seed, different schedule, histograms or trace");
}
