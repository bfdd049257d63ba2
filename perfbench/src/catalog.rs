//! The catalog workloads: each read loads a 16-word routing config from
//! a `Snapshot` and then reads one of 1024 prices (zipf(0.99)) from an
//! `RwLock<Vec<u64>, Bravo<_>>`. 0.1% of requests write: half move price
//! between two items (revoking Bravo's bias), half push a new config
//! (an eager snapshot install with its grace scan).
//!
//! Oracles: the price sum is conserved and no price goes negative; every
//! loaded config is internally consistent and its version never goes
//! backwards for a worker; the final version counts every push.

use crate::gen::{kinds, worker_seed, Encode, Rng, Zipf};
use crate::harness::Service;
use crate::probe::{Layer, Probe};
use rmr_bravo::Bravo;
use rmr_core::mwmr::MwmrStarvationFree;
use rmr_core::raw::{RawMultiWriter, RawRwLock};
use rmr_core::{Pid, RwLock};
use rmr_mutex::{AndersonLock, Backend, Counting};
use rmr_obs::{Event, Metric, NoopRecorder, Recorder, StatsRecorder};
use rmr_swap::{RetireEager, Snapshot};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

pub const ITEMS: usize = 1024;
pub const OPENING_PRICE: u64 = 1_000;
pub const PRICE_TOTAL: u64 = OPENING_PRICE * ITEMS as u64;
pub const CONFIG_WORDS: usize = 16;
/// Pid capacity of each tier: two workers plus the main thread's checks.
pub const CAPACITY: usize = 4;

pub type Config = [u64; CONFIG_WORDS];

/// Config version `v`: word 0 is the version, every other word is
/// derived from it, so a torn or stale-mixed config is detectable.
pub fn config(version: u64) -> Config {
    std::array::from_fn(|k| if k == 0 { version } else { derive(version, k) })
}

fn derive(version: u64, k: usize) -> u64 {
    version.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k as u64
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CatalogReq {
    Read { item: u16 },
    Move { from: u16, to: u16, amount: u32 },
    Push,
}

impl Encode for CatalogReq {
    fn encode(&self) -> u64 {
        match *self {
            CatalogReq::Read { item } => 1 | u64::from(item) << 8,
            CatalogReq::Move { from, to, amount } => {
                2 | u64::from(from) << 8 | u64::from(to) << 24 | u64::from(amount) << 40
            }
            CatalogReq::Push => 3,
        }
    }
}

/// Request mix per block of `reads + moves + pushes` requests.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub reads: usize,
    pub moves: usize,
    pub pushes: usize,
}

/// 0.1% writes: one price move and one config push per 2000 requests.
pub const MIX: Mix = Mix { reads: 1998, moves: 1, pushes: 1 };

pub fn stream(seed: u64, worker: usize, len: usize, mix: Mix) -> Vec<CatalogReq> {
    let zipf = Zipf::new(ITEMS, 0.99);
    let mut rng = Rng::new(worker_seed(seed, worker));
    let kinds = kinds(&mut rng, &[mix.reads, mix.moves, mix.pushes], len);
    kinds
        .into_iter()
        .map(|kind| match kind {
            0 => CatalogReq::Read { item: zipf.sample(&mut rng) as u16 },
            1 => {
                let (from, to) = zipf.pair(&mut rng);
                let amount = 1 + rng.below(OPENING_PRICE / 4) as u32;
                CatalogReq::Move { from: from as u16, to: to as u16, amount }
            }
            _ => CatalogReq::Push,
        })
        .collect()
}

/// The config tier, over whichever memory backend the pass uses.
pub trait ConfigStore: Send + Sync + 'static {
    type Guard<'a>: Deref<Target = Config>
    where
        Self: 'a;

    /// A pinned pid for backends without thread-leased pids.
    fn pid(&self) -> Option<Pid>;
    fn load_cfg(&self, pid: Option<Pid>) -> Self::Guard<'_>;
    fn push_cfg(&self, pid: Option<Pid>, f: impl FnOnce(&Config) -> Config);
    fn peak_retired(&self) -> u64;
}

/// The timed stack: `Snapshot::load()` / `update()` with leased pids.
pub type NativeSnap<R> = Snapshot<Config, MwmrStarvationFree, RetireEager, rmr_mutex::Native, R>;

impl<R: Recorder + 'static> ConfigStore for NativeSnap<R> {
    type Guard<'a>
        = rmr_swap::SnapGuard<'a, Config, MwmrStarvationFree, RetireEager, rmr_mutex::Native, R>
    where
        Self: 'a;

    fn pid(&self) -> Option<Pid> {
        None
    }

    fn load_cfg(&self, _pid: Option<Pid>) -> Self::Guard<'_> {
        self.load()
    }

    fn push_cfg(&self, _pid: Option<Pid>, f: impl FnOnce(&Config) -> Config) {
        self.update(f)
    }

    fn peak_retired(&self) -> u64 {
        Snapshot::peak_retired(self)
    }
}

type CountingLock = MwmrStarvationFree<AndersonLock<Counting>, Counting>;
/// The `Counting` pass: same protocol, pids pinned per worker.
pub type CountingSnap = Snapshot<Config, CountingLock, RetireEager, Counting>;

impl ConfigStore for CountingSnap {
    type Guard<'a> = rmr_swap::SnapGuard<'a, Config, CountingLock, RetireEager, Counting>;

    fn pid(&self) -> Option<Pid> {
        Some(self.registry().allocate().expect("snapshot pid"))
    }

    fn load_cfg(&self, pid: Option<Pid>) -> Self::Guard<'_> {
        self.load_with(pid.expect("pinned pid"))
    }

    fn push_cfg(&self, pid: Option<Pid>, f: impl FnOnce(&Config) -> Config) {
        self.update_with(pid.expect("pinned pid"), f)
    }

    fn peak_retired(&self) -> u64 {
        Snapshot::peak_retired(self)
    }
}

/// Bravo's revocation count, where the price lock is a Bravo wrapper.
pub trait Revocations {
    fn revocations(&self) -> u64;
}

impl<L: RawRwLock, B: Backend, R: Recorder> Revocations for Bravo<L, B, R> {
    fn revocations(&self) -> u64 {
        Bravo::revocations(self)
    }
}

pub struct Catalog<L, S, R = NoopRecorder> {
    pub prices: RwLock<Vec<u64>, L, R>,
    pub config: S,
    /// The live recorder of `catalog-observed`.
    pub recorder: Option<Arc<StatsRecorder>>,
    pushes: AtomicU64,
}

pub struct Client {
    pid: Option<Pid>,
    version: u64,
}

/// `catalog-read-mostly`: no recorder anywhere.
pub fn new_native() -> Catalog<Bravo<MwmrStarvationFree>, NativeSnap<NoopRecorder>> {
    Catalog::new(
        RwLock::with_raw(vec![OPENING_PRICE; ITEMS], Bravo::new(MwmrStarvationFree::new(CAPACITY))),
        Snapshot::new(config(1), CAPACITY),
        None,
    )
}

type Observed = Arc<StatsRecorder>;

/// `catalog-observed`: one live recorder on the guard tier, on Bravo and
/// on the snapshot.
pub fn new_observed(
) -> Catalog<Bravo<MwmrStarvationFree, rmr_mutex::Native, Observed>, NativeSnap<Observed>, Observed>
{
    let rec = Arc::new(StatsRecorder::new(CAPACITY));
    let bravo = Bravo::new(MwmrStarvationFree::new(CAPACITY)).with_recorder(Arc::clone(&rec));
    Catalog::new(
        RwLock::with_raw(vec![OPENING_PRICE; ITEMS], bravo).with_recorder(Arc::clone(&rec)),
        Snapshot::new(config(1), CAPACITY).with_recorder(Arc::clone(&rec)),
        Some(rec),
    )
}

/// The `Counting` pass of both catalog workloads: every tier's shared
/// variables on the `Counting` backend.
pub fn new_counting() -> Catalog<Bravo<CountingLock, Counting>, CountingSnap> {
    let inner = MwmrStarvationFree::new_in(CAPACITY, Counting);
    Catalog::new(
        RwLock::with_raw(
            vec![OPENING_PRICE; ITEMS],
            Bravo::new_in(inner, Default::default(), Counting),
        ),
        Snapshot::with_raw_in(
            config(1),
            MwmrStarvationFree::new_in(CAPACITY, Counting),
            RetireEager,
            CAPACITY,
            Counting,
        ),
        None,
    )
}

impl<L, S, R> Catalog<L, S, R> {
    pub fn new(
        prices: RwLock<Vec<u64>, L, R>,
        config: S,
        recorder: Option<Arc<StatsRecorder>>,
    ) -> Self {
        Self { prices, config, recorder, pushes: AtomicU64::new(0) }
    }
}

impl<L, S, R> Service for Catalog<L, S, R>
where
    L: RawMultiWriter + Revocations + 'static,
    S: ConfigStore,
    R: Recorder + 'static,
{
    type Req = CatalogReq;
    type Worker = Client;
    const MAX_SPANS: usize = 5;

    fn worker(&self, _id: usize) -> Client {
        Client { pid: self.config.pid(), version: 0 }
    }

    fn is_write(req: &CatalogReq) -> bool {
        !matches!(req, CatalogReq::Read { .. })
    }

    fn serve<P: Probe>(&self, w: &mut Client, req: &CatalogReq, p: &mut P) -> bool {
        match *req {
            CatalogReq::Read { item } => {
                let m = p.enter(Layer::SwapLoad);
                let cfg = self.config.load_cfg(w.pid);
                p.exit(m);
                let k = 1 + item as usize % (CONFIG_WORDS - 1);
                let version = cfg[0];
                let cfg_ok = cfg[k] == derive(version, k) && version >= w.version;
                w.version = version;
                let m = p.enter(Layer::SwapRelease);
                drop(cfg);
                p.exit(m);
                let m = p.enter(Layer::BravoRead);
                let g = self.prices.read();
                p.exit(m);
                let price = std::hint::black_box(g[item as usize]);
                let m = p.enter(Layer::BravoRelease);
                drop(g);
                p.exit(m);
                cfg_ok && price <= PRICE_TOTAL
            }
            CatalogReq::Move { from, to, amount } => {
                let (from, to) = (from as usize, to as usize);
                let m = p.enter(Layer::BravoWrite);
                let mut g = self.prices.write();
                p.exit(m);
                let moved = g[from].min(u64::from(amount));
                g[from] = g[from].wrapping_sub(moved);
                g[to] = g[to].wrapping_add(moved);
                let ok = g[from] <= PRICE_TOTAL && g[to] <= PRICE_TOTAL;
                let m = p.enter(Layer::BravoRelease);
                drop(g);
                p.exit(m);
                ok
            }
            CatalogReq::Push => {
                let m = p.enter(Layer::SwapUpdate);
                self.config.push_cfg(w.pid, |c| config(c[0] + 1));
                p.exit(m);
                self.pushes.fetch_add(1, Relaxed);
                true
            }
        }
    }

    fn check_final(&self) -> bool {
        let prices = self.prices.read();
        let prices_ok =
            prices.iter().all(|&p| p <= PRICE_TOTAL) && prices.iter().sum::<u64>() == PRICE_TOTAL;
        drop(prices);
        let pid = self.config.pid();
        let version = self.config.load_cfg(pid)[0];
        prices_ok && version == 1 + self.pushes.load(Relaxed)
    }

    fn diagnostics(&self, requests: u64) -> Vec<(&'static str, f64)> {
        let per_op = |n: u64| n as f64 / requests.max(1) as f64;
        let mut d = vec![
            ("bravo.revocations", self.prices.raw().revocations() as f64),
            ("swap.peak_retired", self.config.peak_retired() as f64),
        ];
        if let Some(rec) = &self.recorder {
            let fast = rec.counter(Event::BravoFastRead);
            let slow = rec.counter(Event::BravoSlowRead);
            d.push(("obs.events_per_op", per_op(Event::ALL.iter().map(|&e| rec.counter(e)).sum())));
            d.push((
                "obs.samples_per_op",
                per_op(Metric::ALL.iter().map(|&m| rec.samples(m)).sum()),
            ));
            d.push(("bravo.fast_read_share", fast as f64 / (fast + slow).max(1) as f64));
        }
        d
    }
}
