//! The benchmark's own checks: seeded streams are reproducible, every
//! request loop's oracles fire when the lock under it excludes nothing,
//! and each config oracle fires on a config store with that fault.

use crate::catalog::{Config, ConfigStore};
use crate::harness::{self, Outcome, Phase, Plan, Service};
use crate::{bank, catalog, gen, midmean, p50, p99, quantile};
use rmr_bravo::Bravo;
use rmr_core::mwmr::MwmrStarvationFree;
use rmr_core::raw::{RawMultiWriter, RawRwLock, RawTryReadLock, RawTryRwLock};
use rmr_core::{Pid, RwLock};
use rmr_mutex::Native;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A "lock" that grants every acquisition at once: no exclusion at all.
#[derive(Debug, Default)]
struct GrantAll;

impl RawRwLock for GrantAll {
    type ReadToken = ();
    type WriteToken = ();

    fn read_lock(&self, _pid: Pid) {}
    fn read_unlock(&self, _pid: Pid, (): ()) {}
    fn write_lock(&self, _pid: Pid) {}
    fn write_unlock(&self, _pid: Pid, (): ()) {}
    fn max_processes(&self) -> usize {
        bank::CAPACITY
    }
}

// SAFETY: deliberately false — this lock exists to prove the oracles
// catch a missing exclusion. The racing accesses are plain `u64`s.
unsafe impl RawMultiWriter for GrantAll {}

impl RawTryReadLock for GrantAll {
    fn try_read_lock(&self, _pid: Pid) -> Option<()> {
        Some(())
    }
}

impl RawTryRwLock for GrantAll {
    fn try_write_lock(&self, _pid: Pid) -> Option<()> {
        Some(())
    }
}

rmr_core::advisory_parked_waiters!(impl[] RawParkedWaiters for GrantAll);

/// Runs each worker's whole stream once through `build`'s stack.
fn serve_all<S: Service>(build: impl Fn() -> S, streams: &[Vec<S::Req>]) -> Outcome {
    let plan = Plan {
        workers: streams.len(),
        setups: 1,
        warm: 0,
        phases: vec![Phase::Counted { requests: streams[0].len() }],
        read_stride: 1,
        trace_read_stride: 1,
        trace_write_stride: 1,
        span_capacity: 0,
        read_samples: 0,
        write_samples: 0,
        stall: Duration::from_secs(10),
    };
    let out = harness::run(build, &Arc::new(streams.to_vec()), &plan);
    assert!(out.stalls.is_empty(), "a request loop stalled: {:?}", out.stalls);
    out
}

const WRITE_HEAVY_BANK: bank::Mix = bank::Mix { balance: 2, transfer: 6, audit: 2 };
const WRITE_HEAVY_CATALOG: catalog::Mix = catalog::Mix { reads: 1, moves: 1, pushes: 0 };

fn bank_streams(mix: bank::Mix) -> Vec<Vec<bank::BankReq>> {
    (0..2).map(|w| bank::stream(3, w, 400_000, mix)).collect()
}

#[test]
fn same_seed_same_digest_other_seed_other_digest() {
    let bank = |seed| {
        gen::digest(&[
            bank::stream(seed, 0, 10_000, bank::MIX),
            bank::stream(seed, 1, 10_000, bank::MIX),
        ])
    };
    assert_eq!(bank(1), bank(1));
    assert_ne!(bank(1), bank(2));
    let cat = |seed| gen::digest(&[catalog::stream(seed, 0, 10_000, catalog::MIX)]);
    assert_eq!(cat(5), cat(5));
    assert_ne!(cat(5), cat(6));
    // Workers draw different streams from one seed.
    assert_ne!(bank::stream(1, 0, 100, bank::MIX), bank::stream(1, 1, 100, bank::MIX));
}

#[test]
fn stream_mixes_are_exact_per_block() {
    let s = bank::stream(9, 0, 20_000, bank::MIX);
    let count = |f: fn(&bank::BankReq) -> bool| s.iter().filter(|r| f(r)).count();
    assert_eq!(count(|r| matches!(r, bank::BankReq::Balance { .. })), 14_000);
    assert_eq!(count(|r| matches!(r, bank::BankReq::Transfer { .. })), 5_000);
    assert_eq!(count(|r| matches!(r, bank::BankReq::Audit)), 1_000);
    let c = catalog::stream(9, 0, 1_000_000, catalog::MIX);
    let moves = c.iter().filter(|r| matches!(r, catalog::CatalogReq::Move { .. })).count();
    let pushes = c.iter().filter(|r| matches!(r, catalog::CatalogReq::Push)).count();
    assert_eq!((moves, pushes), (500, 500));
}

#[test]
fn bank_sync_oracles_hold_over_the_paper_lock() {
    let streams = bank_streams(WRITE_HEAVY_BANK);
    let out = serve_all(
        || bank::BankSync::new(|| rmr_core::mwmr::MwmrStarvationFree::new(bank::CAPACITY)),
        &streams,
    );
    assert_eq!(out.failed, 0);
    assert!(out.final_ok);
}

/// Whether some oracle reports a failure within a few runs: a missing
/// exclusion shows only when the two workers' requests overlap.
fn fires(run: impl Fn() -> Outcome) -> bool {
    (0..20).any(|_| run().failed > 0)
}

#[test]
fn bank_sync_oracles_fire_without_exclusion() {
    let streams = bank_streams(WRITE_HEAVY_BANK);
    assert!(
        fires(|| serve_all(|| bank::BankSync::new(|| GrantAll), &streams)),
        "no oracle fired over GrantAll"
    );
}

#[test]
fn bank_async_oracles_fire_without_exclusion() {
    let streams = bank_streams(WRITE_HEAVY_BANK);
    let run = || serve_all(|| bank::BankAsync::<_, Native>::new(|| GrantAll), &streams);
    assert!(fires(run), "no oracle fired over GrantAll");
}

#[test]
fn catalog_oracles_hold_over_the_paper_lock() {
    let streams: Vec<_> = (0..2)
        .map(|w| catalog::stream(4, w, 200_000, catalog::Mix { reads: 498, moves: 1, pushes: 1 }))
        .collect();
    let out = serve_all(catalog::new_native, &streams);
    assert_eq!(out.failed, 0);
    assert!(out.final_ok);
}

#[test]
fn catalog_oracles_fire_without_exclusion() {
    let streams: Vec<_> =
        (0..2).map(|w| catalog::stream(4, w, 400_000, WRITE_HEAVY_CATALOG)).collect();
    let build = || {
        catalog::Catalog::new(
            RwLock::with_raw(vec![catalog::OPENING_PRICE; catalog::ITEMS], Bravo::new(GrantAll)),
            rmr_swap::Snapshot::new(catalog::config(1), catalog::CAPACITY),
            None,
        )
    };
    assert!(fires(|| serve_all(build, &streams)), "no oracle fired over GrantAll");
}

#[test]
fn counting_pass_reports_constant_rmrs() {
    let streams = bank_streams(bank::MIX);
    let short: Vec<_> = streams.iter().map(|s| s[..20_000].to_vec()).collect();
    let out = serve_all(
        || {
            bank::BankSync::new(|| {
                rmr_core::mwmr::MwmrStarvationFree::new_in(bank::CAPACITY, rmr_mutex::Counting)
            })
        },
        &short,
    );
    assert_eq!(out.rmr_reqs, 40_000);
    let per_op = out.rmr_per_op();
    assert!(per_op > 0.0 && per_op < 64.0, "{per_op}");
}

#[test]
fn midmean_drops_the_outer_quarters() {
    assert_eq!(midmean(&[]), 0.0);
    assert_eq!(midmean(&[7.0]), 7.0);
    // Of ten values the lowest two and highest two are dropped.
    let v = [100.0, 1.0, 5.0, 4.0, 3.0, 6.0, 0.0, 2.0, 7.0, 8.0];
    assert_eq!(midmean(&v), (2.0 + 3.0 + 4.0 + 5.0 + 6.0 + 7.0) / 6.0);
}

#[test]
fn quantiles_interpolate_within_nanosecond_bins() {
    let v: Vec<u64> = (1..=1000).collect();
    assert_eq!(p50(&v), 500.5);
    assert_eq!(p99(&v), 990.5);
    // A pile of ties: the median moves with the mass around the mode.
    assert_eq!(quantile(&[10u64, 10, 10, 10], 0.5), 10.0);
    assert_eq!(quantile(&[9u64, 10, 10, 10], 0.5), 9.5 + 1.0 / 3.0);
    assert_eq!(p50::<u64>(&[]), 0.0);
}

/// A fault a [`FaultyConfig`] injects into every [`FAULT_EVERY`]-th load
/// or push.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fault {
    None,
    /// The load returns the version before the current one.
    Backwards,
    /// The load returns the current config with one derived word flipped.
    Torn,
    /// The push is lost.
    DropPush,
}

const FAULT_EVERY: u64 = 64;

/// A config store that is correct — one mutex-guarded version — except
/// for its injected fault.
struct FaultyConfig {
    fault: Fault,
    version: Mutex<u64>,
    calls: AtomicU64,
}

impl FaultyConfig {
    fn new(fault: Fault) -> Self {
        Self { fault, version: Mutex::new(1), calls: AtomicU64::new(0) }
    }

    fn faulty(&self, fault: Fault) -> bool {
        self.fault == fault && self.calls.fetch_add(1, Relaxed) % FAULT_EVERY == FAULT_EVERY - 1
    }
}

impl ConfigStore for FaultyConfig {
    type Guard<'a> = Box<Config>;

    fn pid(&self) -> Option<Pid> {
        None
    }

    fn load_cfg(&self, _pid: Option<Pid>) -> Box<Config> {
        let version = *self.version.lock().unwrap();
        if self.faulty(Fault::Backwards) {
            return Box::new(catalog::config(version - 1));
        }
        let mut cfg = catalog::config(version);
        if self.faulty(Fault::Torn) {
            cfg[1 + (version as usize % (catalog::CONFIG_WORDS - 1))] ^= 1;
        }
        Box::new(cfg)
    }

    fn push_cfg(&self, _pid: Option<Pid>, f: impl FnOnce(&Config) -> Config) {
        let mut version = self.version.lock().unwrap();
        let next = f(&catalog::config(*version));
        if !self.faulty(Fault::DropPush) {
            *version = next[0];
        }
    }

    fn peak_retired(&self) -> u64 {
        0
    }
}

/// Serves a push-heavy catalog stream over a sound price lock and a
/// config store with `fault`.
fn serve_with_config_fault(fault: Fault) -> Outcome {
    let mix = catalog::Mix { reads: 4, moves: 0, pushes: 1 };
    let streams: Vec<_> = (0..2).map(|w| catalog::stream(8, w, 100_000, mix)).collect();
    let build = || {
        catalog::Catalog::new(
            RwLock::with_raw(
                vec![catalog::OPENING_PRICE; catalog::ITEMS],
                Bravo::new(MwmrStarvationFree::new(catalog::CAPACITY)),
            ),
            FaultyConfig::new(fault),
            None,
        )
    };
    serve_all(build, &streams)
}

/// Requests that failed an oracle, not counting the final check.
fn request_failures(out: &Outcome) -> u64 {
    out.failed - u64::from(!out.final_ok)
}

#[test]
fn faultless_config_store_passes_every_oracle() {
    let out = serve_with_config_fault(Fault::None);
    assert_eq!(out.failed, 0);
    assert!(out.final_ok);
}

#[test]
fn config_version_oracle_fires_when_a_load_goes_backwards() {
    let out = serve_with_config_fault(Fault::Backwards);
    assert!(request_failures(&out) > 0, "{out:?}");
}

#[test]
fn config_consistency_oracle_fires_on_a_torn_config() {
    let out = serve_with_config_fault(Fault::Torn);
    assert!(request_failures(&out) > 0, "{out:?}");
}

#[test]
fn final_version_oracle_fires_when_a_push_is_lost() {
    let out = serve_with_config_fault(Fault::DropPush);
    assert_eq!(request_failures(&out), 0);
    assert!(!out.final_ok);
}

/// Serves every request at once, except that the `hang_at`-th request
/// served never returns.
struct HangsOnce {
    served: AtomicU64,
    hang_at: u64,
}

impl Service for HangsOnce {
    type Req = bank::BankReq;
    type Worker = ();
    const MAX_SPANS: usize = 1;

    fn worker(&self, _id: usize) {}

    fn is_write(_req: &bank::BankReq) -> bool {
        false
    }

    fn serve<P: crate::probe::Probe>(&self, _w: &mut (), _req: &bank::BankReq, _p: &mut P) -> bool {
        if self.served.fetch_add(1, Relaxed) + 1 == self.hang_at {
            loop {
                std::thread::park();
            }
        }
        true
    }

    fn check_final(&self) -> bool {
        true
    }

    fn parked(&self) -> Option<(usize, usize)> {
        Some((1, 0))
    }
}

#[test]
fn a_stalled_setup_ends_with_its_unfinished_request_failed() {
    let streams = Arc::new(bank_streams(bank::MIX));
    let plan = Plan {
        workers: 2,
        setups: 2,
        warm: 0,
        phases: vec![Phase::Counted { requests: 1_000 }],
        read_stride: 1,
        trace_read_stride: 1,
        trace_write_stride: 1,
        span_capacity: 0,
        read_samples: 0,
        write_samples: 0,
        stall: Duration::from_millis(300),
    };
    let out =
        harness::run(|| HangsOnce { served: AtomicU64::new(0), hang_at: 500 }, &streams, &plan);
    // Each setup's one stuck request is its only failure; the other
    // worker leaves once the setup is abandoned, and the run goes on.
    assert_eq!(out.stalls.len(), 2, "{:?}", out.stalls);
    assert!(out.stalls.iter().all(|s| s.unfinished == 1 && s.parked == Some((1, 0))));
    assert_eq!(out.failed, 2);
    assert_eq!(out.attempted, 2 * 499 + 2);
}
