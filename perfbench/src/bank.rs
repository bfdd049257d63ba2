//! The account workloads: 64 accounts in 8 shards of 8, zipf(0.99)
//! keys, 70% balance reads, 25% transfers, 5% audits. Account `a` lives
//! in shard `a % 8`, slot `a / 8`.
//!
//! Oracles: an audit read-locks all 8 shards in order and its sum must
//! equal the opening total; no balance may exceed the opening total
//! (a "negative" balance, wrapped); the final sum equals the opening
//! total.

use crate::gen::{kinds, worker_seed, Encode, Rng, Zipf};
use crate::harness::Service;
use crate::probe::{await_counted, Layer, Probe};
use rmr_async::{block_on, AsyncRwLock};
use rmr_core::raw::{RawMultiWriter, RawParkedWaiters, RawTryReadLock};
use rmr_core::RwLock;
use rmr_mutex::{Backend, CachePadded};

pub const SHARDS: usize = 8;
pub const PER_SHARD: usize = 8;
pub const ACCOUNTS: usize = SHARDS * PER_SHARD;
pub const OPENING_BALANCE: u64 = 1_000;
pub const TOTAL: u64 = OPENING_BALANCE * ACCOUNTS as u64;
/// Pid capacity per shard: two workers plus the main thread's checks.
pub const CAPACITY: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BankReq {
    Balance { acct: u8 },
    Transfer { from: u8, to: u8, amount: u32 },
    Audit,
}

impl Encode for BankReq {
    fn encode(&self) -> u64 {
        match *self {
            BankReq::Balance { acct } => 1 | u64::from(acct) << 8,
            BankReq::Transfer { from, to, amount } => {
                2 | u64::from(from) << 8 | u64::from(to) << 16 | u64::from(amount) << 24
            }
            BankReq::Audit => 3,
        }
    }
}

/// Request mix per block of `balance + transfer + audit` requests.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub balance: usize,
    pub transfer: usize,
    pub audit: usize,
}

/// 70% balance reads, 25% transfers, 5% audits.
pub const MIX: Mix = Mix { balance: 14, transfer: 5, audit: 1 };

pub fn stream(seed: u64, worker: usize, len: usize, mix: Mix) -> Vec<BankReq> {
    let zipf = Zipf::new(ACCOUNTS, 0.99);
    let mut rng = Rng::new(worker_seed(seed, worker));
    let kinds = kinds(&mut rng, &[mix.balance, mix.transfer, mix.audit], len);
    kinds
        .into_iter()
        .map(|kind| match kind {
            0 => BankReq::Balance { acct: zipf.sample(&mut rng) as u8 },
            1 => {
                let (from, to) = zipf.pair(&mut rng);
                let amount = 1 + rng.below(OPENING_BALANCE / 4) as u32;
                BankReq::Transfer { from: from as u8, to: to as u8, amount }
            }
            _ => BankReq::Audit,
        })
        .collect()
}

fn locate(acct: u8) -> (usize, usize) {
    (acct as usize % SHARDS, acct as usize / SHARDS)
}

/// Moves up to `amount` from `src` to `dst`; false if a balance had gone
/// negative (wrapped past the total).
fn transfer(src: &mut u64, dst: &mut u64, amount: u32) -> bool {
    let moved = (*src).min(u64::from(amount));
    *src = src.wrapping_sub(moved);
    *dst = dst.wrapping_add(moved);
    *src <= TOTAL && *dst <= TOTAL
}

/// A transfer between two accounts of one shard (`i != j`).
fn transfer_local(shard: &mut [u64; PER_SHARD], i: usize, j: usize, amount: u32) -> bool {
    let [src, dst] = shard.get_disjoint_mut([i, j]).expect("a transfer names two accounts");
    transfer(src, dst, amount)
}

/// `bank-sync`: shards behind the typed `RwLock` over any multi-writer
/// raw lock (the paper's Fig. 3 ∘ Fig. 1 over Anderson `M` in the
/// benchmark). Shards are cache-padded so that where the allocator
/// happens to place them cannot add false sharing between them.
pub struct BankSync<L> {
    pub shards: Vec<CachePadded<RwLock<[u64; PER_SHARD], L>>>,
}

impl<L: RawMultiWriter> BankSync<L> {
    pub fn new(raw: impl Fn() -> L) -> Self {
        Self {
            shards: (0..SHARDS)
                .map(|_| CachePadded::new(RwLock::with_raw([OPENING_BALANCE; PER_SHARD], raw())))
                .collect(),
        }
    }
}

impl<L: RawMultiWriter + 'static> Service for BankSync<L> {
    type Req = BankReq;
    type Worker = ();
    const MAX_SPANS: usize = 2 + 2 * SHARDS;

    fn worker(&self, _id: usize) {}

    fn is_write(req: &BankReq) -> bool {
        matches!(req, BankReq::Transfer { .. })
    }

    fn serve<P: Probe>(&self, _w: &mut (), req: &BankReq, p: &mut P) -> bool {
        match *req {
            BankReq::Balance { acct } => {
                let (s, i) = locate(acct);
                let m = p.enter(Layer::CoreRead);
                let g = self.shards[s].read();
                p.exit(m);
                let ok = std::hint::black_box(g[i]) <= TOTAL;
                let m = p.enter(Layer::CoreRelease);
                drop(g);
                p.exit(m);
                ok
            }
            BankReq::Transfer { from, to, amount } => {
                let ((sa, i), (sb, j)) = (locate(from), locate(to));
                if sa == sb {
                    let m = p.enter(Layer::CoreWrite);
                    let mut g = self.shards[sa].write();
                    p.exit(m);
                    let ok = transfer_local(&mut g, i, j, amount);
                    let m = p.enter(Layer::CoreRelease);
                    drop(g);
                    p.exit(m);
                    return ok;
                }
                // Two shards, locked in index order.
                let (lo, hi) = (sa.min(sb), sa.max(sb));
                let m = p.enter(Layer::CoreWrite);
                let mut g_lo = self.shards[lo].write();
                p.exit(m);
                let m = p.enter(Layer::CoreWrite);
                let mut g_hi = self.shards[hi].write();
                p.exit(m);
                let ok = if sa < sb {
                    transfer(&mut g_lo[i], &mut g_hi[j], amount)
                } else {
                    transfer(&mut g_hi[i], &mut g_lo[j], amount)
                };
                let m = p.enter(Layer::CoreRelease);
                drop(g_hi);
                p.exit(m);
                let m = p.enter(Layer::CoreRelease);
                drop(g_lo);
                p.exit(m);
                ok
            }
            BankReq::Audit => {
                let audit = p.enter(Layer::CoreAudit);
                let mut guards = Vec::with_capacity(SHARDS);
                let mut sum = 0u64;
                for shard in &self.shards {
                    let m = p.enter(Layer::CoreRead);
                    let g = shard.read();
                    p.exit(m);
                    sum = sum.wrapping_add(g.iter().sum::<u64>());
                    guards.push(g);
                }
                for g in guards {
                    let m = p.enter(Layer::CoreRelease);
                    drop(g);
                    p.exit(m);
                }
                p.exit(audit);
                sum == TOTAL
            }
        }
    }

    fn check_final(&self) -> bool {
        let balances: Vec<u64> = self.shards.iter().flat_map(|s| *s.read()).collect();
        balances.iter().all(|&b| b <= TOTAL) && balances.iter().sum::<u64>() == TOTAL
    }
}

/// `bank-async`: the same requests through cache-padded `AsyncRwLock`
/// shards, one `block_on` per request.
pub struct BankAsync<L, B: Backend> {
    pub shards: Vec<CachePadded<AsyncRwLock<[u64; PER_SHARD], L, B>>>,
}

impl<L: RawTryReadLock + RawParkedWaiters, B: Backend> BankAsync<L, B> {
    pub fn new(raw: impl Fn() -> L) -> Self {
        Self {
            shards: (0..SHARDS)
                .map(|_| {
                    CachePadded::new(AsyncRwLock::with_raw_and_capacity_in(
                        [OPENING_BALANCE; PER_SHARD],
                        raw(),
                        CAPACITY,
                        B::default(),
                    ))
                })
                .collect(),
        }
    }

    async fn serve_async<P: Probe>(&self, req: BankReq, p: &mut P) -> bool {
        match req {
            BankReq::Balance { acct } => {
                let (s, i) = locate(acct);
                let m = p.enter(Layer::AsyncRead);
                let g = await_counted(p, self.shards[s].read()).await;
                p.exit(m);
                let ok = std::hint::black_box(g[i]) <= TOTAL;
                let m = p.enter(Layer::AsyncRelease);
                drop(g);
                p.exit(m);
                ok
            }
            BankReq::Transfer { from, to, amount } => {
                let ((sa, i), (sb, j)) = (locate(from), locate(to));
                if sa == sb {
                    let m = p.enter(Layer::AsyncWrite);
                    let mut g = await_counted(p, self.shards[sa].write()).await;
                    p.exit(m);
                    let ok = transfer_local(&mut g, i, j, amount);
                    let m = p.enter(Layer::AsyncRelease);
                    drop(g);
                    p.exit(m);
                    return ok;
                }
                let (lo, hi) = (sa.min(sb), sa.max(sb));
                let m = p.enter(Layer::AsyncWrite);
                let mut g_lo = await_counted(p, self.shards[lo].write()).await;
                p.exit(m);
                let m = p.enter(Layer::AsyncWrite);
                let mut g_hi = await_counted(p, self.shards[hi].write()).await;
                p.exit(m);
                let ok = if sa < sb {
                    transfer(&mut g_lo[i], &mut g_hi[j], amount)
                } else {
                    transfer(&mut g_hi[i], &mut g_lo[j], amount)
                };
                let m = p.enter(Layer::AsyncRelease);
                drop(g_hi);
                p.exit(m);
                let m = p.enter(Layer::AsyncRelease);
                drop(g_lo);
                p.exit(m);
                ok
            }
            BankReq::Audit => {
                let audit = p.enter(Layer::AsyncAudit);
                let mut guards = Vec::with_capacity(SHARDS);
                let mut sum = 0u64;
                for shard in &self.shards {
                    let m = p.enter(Layer::AsyncRead);
                    let g = await_counted(p, shard.read()).await;
                    p.exit(m);
                    sum = sum.wrapping_add(g.iter().sum::<u64>());
                    guards.push(g);
                }
                for g in guards {
                    let m = p.enter(Layer::AsyncRelease);
                    drop(g);
                    p.exit(m);
                }
                p.exit(audit);
                sum == TOTAL
            }
        }
    }
}

impl<L: RawTryReadLock + RawParkedWaiters + 'static, B: Backend> Service for BankAsync<L, B> {
    type Req = BankReq;
    type Worker = ();
    const MAX_SPANS: usize = 2 + 2 * SHARDS;

    fn worker(&self, _id: usize) {}

    fn is_write(req: &BankReq) -> bool {
        matches!(req, BankReq::Transfer { .. })
    }

    fn serve<P: Probe>(&self, _w: &mut (), req: &BankReq, p: &mut P) -> bool {
        block_on(self.serve_async(*req, p))
    }

    fn check_final(&self) -> bool {
        let balances: Vec<u64> =
            block_on(async { self.shards_snapshot().await }).into_iter().flatten().collect();
        balances.iter().all(|&b| b <= TOTAL) && balances.iter().sum::<u64>() == TOTAL
    }

    fn diagnostics(&self, requests: u64) -> Vec<(&'static str, f64)> {
        let wakeups: u64 = self.shards.iter().map(|s| s.wakeups()).sum();
        vec![("async.wakeups_per_op", wakeups as f64 / requests.max(1) as f64)]
    }

    fn parked(&self) -> Option<(usize, usize)> {
        Some((
            self.shards.iter().map(|s| s.parked_readers()).sum(),
            self.shards.iter().map(|s| s.parked_writers()).sum(),
        ))
    }
}

impl<L: RawTryReadLock + RawParkedWaiters, B: Backend> BankAsync<L, B> {
    async fn shards_snapshot(&self) -> Vec<[u64; PER_SHARD]> {
        let mut out = Vec::with_capacity(SHARDS);
        for s in &self.shards {
            out.push(*s.read().await);
        }
        out
    }
}
