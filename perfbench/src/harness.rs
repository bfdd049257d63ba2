//! The closed-loop harness shared by every workload.
//!
//! Each setup builds the service stack, spawns the workers and lets them
//! warm up; the workers then wait at a start gate, so nothing is spawned
//! or joined inside a timed phase. The main thread only opens and closes
//! gates and watches progress.
//!
//! A setup in which no worker completes a request for [`Plan::stall`]
//! is abandoned: every request still in flight counts as failed, the
//! stuck workers are left parked (they cannot be joined; they end with
//! the process) and the run goes on with the next setup. Nothing is
//! retried. Everything a worker measures lives in per-setup shared slots
//! (atomic counters, atomic sample buffers, mutex-published phase
//! results), so an abandoned setup still reports what completed before
//! the stall.

use crate::gen::Encode;
use crate::probe::{Layer, Off, Probe, RmrProbe, Span, Tracer};
use rmr_mutex::mem::{set_thread_slot, thread_tally};
use rmr_mutex::CachePadded;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering::*};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A request-serving stack the harness can run.
pub trait Service: Send + Sync + 'static {
    type Req: Copy + Send + Sync + Encode + 'static;
    /// Per-worker client state (e.g. the last config version seen).
    type Worker;
    /// Upper bound on the spans one request records.
    const MAX_SPANS: usize;

    fn worker(&self, id: usize) -> Self::Worker;

    fn is_write(req: &Self::Req) -> bool;

    /// Serves one request, bracketing each layer call with the probe.
    /// Returns `false` when an oracle fails.
    fn serve<P: Probe>(&self, w: &mut Self::Worker, req: &Self::Req, p: &mut P) -> bool;

    /// End-of-run oracles over the quiescent stack.
    fn check_final(&self) -> bool;

    /// Layer diagnostics read after the run, given the requests served.
    fn diagnostics(&self, _requests: u64) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// `(parked readers, parked writers)` for stall reports.
    fn parked(&self) -> Option<(usize, usize)> {
        None
    }
}

#[derive(Clone, Debug)]
pub enum Phase {
    /// Closed loop for `secs`; traced phases record spans on a sample.
    Timed { secs: f64, traced: bool },
    /// Exactly `requests` requests per worker under an [`RmrProbe`].
    Counted { requests: usize },
}

#[derive(Clone, Debug)]
pub struct Plan {
    pub workers: usize,
    /// Setups per run; each builds a fresh stack and fresh workers and
    /// runs every phase.
    pub setups: usize,
    /// Warm-up requests per worker, part of each setup.
    pub warm: usize,
    pub phases: Vec<Phase>,
    /// Timed phases time every write and every `read_stride`-th read.
    pub read_stride: u64,
    /// Traced phases trace every `trace_read_stride`-th read and every
    /// `trace_write_stride`-th write.
    pub trace_read_stride: u64,
    pub trace_write_stride: u64,
    pub span_capacity: usize,
    pub read_samples: usize,
    pub write_samples: usize,
    pub stall: Duration,
}

#[derive(Clone, Debug)]
pub struct Stall {
    pub during: String,
    pub unfinished: u64,
    pub parked: Option<(usize, usize)>,
}

#[derive(Debug, Default)]
pub struct Outcome {
    /// Per setup that finished its warm-up.
    pub setup_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Per phase: requests completed per second over the whole phase,
    /// one entry per setup that reached it.
    pub rates: Vec<Vec<f64>>,
    /// Service times in [`ticks`] from timed phases, one sorted vector
    /// per setup holding both workers' samples.
    pub read_ticks: Vec<Vec<u32>>,
    pub write_ticks: Vec<Vec<u32>>,
    /// Nanoseconds per tick, calibrated against `Instant` over the run.
    pub ns_per_tick: f64,
    /// Spans per worker and setup from traced phases.
    pub spans: Vec<Vec<Span>>,
    pub awaits: u64,
    pub polls: u64,
    pub pending: u64,
    pub rmr: RmrProbe,
    pub rmr_req_cc: u64,
    pub rmr_reqs: u64,
    pub final_ok: bool,
    /// Means over the setups that did not stall.
    pub diagnostics: Vec<(&'static str, f64)>,
    pub stalls: Vec<Stall>,
}

impl Outcome {
    pub fn diagnostic(&self, name: &str) -> f64 {
        self.diagnostics.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v)
    }

    /// Mean CC RMRs per request of the counted phases.
    pub fn rmr_per_op(&self) -> f64 {
        if self.rmr_reqs == 0 {
            0.0
        } else {
            self.rmr_req_cc as f64 / self.rmr_reqs as f64
        }
    }
}

/// The clock of service-time samples: the time-stamp counter on x86-64,
/// where a pair of reads costs about half as much as a pair of
/// `Instant::now()` (37 against 78 ns on a 2-vCPU KVM guest), so timing
/// every write stays cheap; nanoseconds elsewhere.
#[inline(always)]
pub fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `rdtsc` only reads the time-stamp counter.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Append-only sample buffer that the main thread can read while the
/// writing worker is stuck.
struct SampleBuf {
    data: Box<[AtomicU32]>,
    len: AtomicUsize,
}

impl SampleBuf {
    fn new(capacity: usize) -> Self {
        Self { data: (0..capacity).map(|_| AtomicU32::new(0)).collect(), len: AtomicUsize::new(0) }
    }

    /// Only the owning worker pushes. The `Release` store of `len` pairs
    /// with the `Acquire` load in [`SampleBuf::read`], publishing the
    /// sample before it is counted.
    #[inline]
    fn push(&self, t: u64) {
        let len = self.len.load(Relaxed);
        if len < self.data.len() {
            self.data[len].store(t.min(u64::from(u32::MAX)) as u32, Relaxed);
            self.len.store(len + 1, Release);
        }
    }

    fn read(&self) -> impl Iterator<Item = u32> + '_ {
        let len = self.len.load(Acquire);
        self.data[..len].iter().map(|s| s.load(Relaxed))
    }
}

#[derive(Default)]
struct Published {
    spans: Vec<Span>,
    awaits: u64,
    polls: u64,
    pending: u64,
    rmr: RmrProbe,
    rmr_req_cc: u64,
    rmr_reqs: u64,
}

impl Published {
    fn absorb(&mut self, mut other: Published) {
        self.spans.append(&mut other.spans);
        self.awaits += other.awaits;
        self.polls += other.polls;
        self.pending += other.pending;
        self.rmr.merge(&other.rmr);
        self.rmr_req_cc += other.rmr_req_cc;
        self.rmr_reqs += other.rmr_reqs;
    }
}

struct Slot {
    done: AtomicU64,
    failed: AtomicU64,
    /// Last phase finished (0 = warm-up finished, `u32::MAX` = not yet).
    acked: AtomicU32,
    /// When the worker finished its warm-up, in ns since the run began.
    ready_ns: AtomicU64,
    reads: SampleBuf,
    writes: SampleBuf,
    out: Mutex<Published>,
}

/// Requests a worker serves between two reads of the stop flag.
const STOP_BATCH: usize = 8;
/// Gate and stop value that sends the workers home.
const QUIT: u32 = u32::MAX;
const NOT_READY: u32 = u32::MAX;
/// How long an abandoned setup waits for its workers that are not stuck
/// to notice and leave.
const LEAVE_GRACE: Duration = Duration::from_millis(200);

/// The state one setup's workers share with the main thread.
struct Shared {
    slots: Vec<CachePadded<Slot>>,
    go: CachePadded<AtomicU32>,
    stop: CachePadded<AtomicU32>,
    /// Arrivals at the counted phase's per-request round barrier.
    arrivals: CachePadded<AtomicU64>,
}

impl Shared {
    fn new(plan: &Plan) -> Self {
        Self {
            slots: (0..plan.workers)
                .map(|_| {
                    CachePadded::new(Slot {
                        done: AtomicU64::new(0),
                        failed: AtomicU64::new(0),
                        acked: AtomicU32::new(NOT_READY),
                        ready_ns: AtomicU64::new(0),
                        reads: SampleBuf::new(plan.read_samples),
                        writes: SampleBuf::new(plan.write_samples),
                        out: Mutex::new(Published::default()),
                    })
                })
                .collect(),
            go: CachePadded::new(AtomicU32::new(0)),
            stop: CachePadded::new(AtomicU32::new(0)),
            arrivals: CachePadded::new(AtomicU64::new(0)),
        }
    }

    fn done(&self) -> u64 {
        self.slots.iter().map(|s| s.done.load(Relaxed)).sum()
    }

    fn progress(&self) -> u64 {
        self.slots.iter().map(|s| s.done.load(Relaxed) + u64::from(s.acked.load(Relaxed))).sum()
    }

    /// Workers that have not acknowledged phase `tag` (0 = warm-up).
    fn behind(&self, tag: u32) -> u64 {
        self.slots
            .iter()
            .filter(|s| matches!(s.acked.load(Acquire), a if a == NOT_READY || a < tag))
            .count() as u64
    }

    fn quitting(&self) -> bool {
        self.go.load(Relaxed) == QUIT
    }
}

/// Polls until `done()` holds once `until` (if any) has passed, or until
/// no worker completes anything for `stall`. Returns the first and last
/// `(time, progress)` polled, or `None` on a stall.
fn watch(
    sh: &Shared,
    stall: Duration,
    until: Option<Instant>,
    tick: Duration,
    done: impl Fn() -> bool,
) -> Option<[(Instant, u64); 2]> {
    let first = (Instant::now(), sh.progress());
    let (mut last, mut last_change) = (first.1, first.0);
    loop {
        let now = Instant::now();
        if until.is_none_or(|u| now >= u) && done() {
            return Some([first, (now, sh.progress())]);
        }
        let nap = until.filter(|&u| u > now).map_or(tick, |u| (u - now).min(tick));
        std::thread::sleep(nap);
        let p = sh.progress();
        if p != last {
            last = p;
            last_change = Instant::now();
        } else if last_change.elapsed() > stall {
            return None;
        }
    }
}

/// Runs `plan` over stacks made by `build`, one request stream per
/// worker.
pub fn run<S: Service>(
    build: impl Fn() -> S,
    streams: &Arc<Vec<Vec<S::Req>>>,
    plan: &Plan,
) -> Outcome {
    assert_eq!(streams.len(), plan.workers);
    let epoch = Instant::now();
    let tick0 = ticks();
    let shared_plan = Arc::new(plan.clone());
    let mut out = Outcome {
        final_ok: true,
        rates: vec![Vec::new(); plan.phases.len()],
        ..Outcome::default()
    };
    let mut diagnostics: Vec<(&'static str, f64)> = Vec::new();
    let mut clean_setups = 0;
    for setup in 0..plan.setups {
        let sh = Arc::new(Shared::new(plan));
        let t0 = Instant::now();
        let svc = Arc::new(build());
        let handles: Vec<JoinHandle<()>> = (0..plan.workers)
            .map(|id| {
                let (svc, sh, streams, plan) = (
                    Arc::clone(&svc),
                    Arc::clone(&sh),
                    Arc::clone(streams),
                    Arc::clone(&shared_plan),
                );
                // Each setup starts at its own offset, so the setups of a
                // run serve different parts of the streams.
                let start = setup * streams[id].len() / plan.setups;
                std::thread::spawn(move || {
                    worker(&*svc, id, &streams[id], start, &sh, &plan, epoch)
                })
            })
            .collect();
        match drive(&sh, plan, setup, t0 - epoch, &mut out) {
            Ok(()) => {
                for h in handles {
                    h.join().expect("a worker panicked");
                }
                collect(&sh, &mut out);
                if !svc.check_final() {
                    out.final_ok = false;
                    out.failed += 1;
                }
                for (name, value) in svc.diagnostics(sh.done()) {
                    match diagnostics.iter_mut().find(|(n, _)| *n == name) {
                        Some((_, sum)) => *sum += value,
                        None => diagnostics.push((name, value)),
                    }
                }
                clean_setups += 1;
            }
            Err(during) => {
                // The stuck workers keep `svc` alive; the rest leave once
                // told to quit.
                let parked = svc.parked();
                sh.stop.store(QUIT, SeqCst);
                sh.go.store(QUIT, SeqCst);
                let grace = Instant::now() + LEAVE_GRACE;
                while handles.iter().any(|h| !h.is_finished()) && Instant::now() < grace {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let unfinished = handles.iter().filter(|h| !h.is_finished()).count() as u64;
                collect(&sh, &mut out);
                out.attempted += unfinished;
                out.failed += unfinished;
                out.stalls.push(Stall { during, unfinished, parked });
            }
        }
    }
    out.ns_per_tick = epoch.elapsed().as_nanos() as f64 / ticks().wrapping_sub(tick0).max(1) as f64;
    out.diagnostics =
        diagnostics.into_iter().map(|(n, v)| (n, v / clean_setups.max(1) as f64)).collect();
    out
}

/// Runs one setup's warm-up and phases from the main thread; `Err`
/// names where it stalled.
fn drive(
    sh: &Shared,
    plan: &Plan,
    setup: usize,
    t0: Duration,
    out: &mut Outcome,
) -> Result<(), String> {
    let stalled = |what: &str| format!("setup {} {what}", setup + 1);
    let fine = Duration::from_millis(1);
    watch(sh, plan.stall, None, fine, || sh.behind(0) == 0).ok_or_else(|| stalled("warm-up"))?;
    let ready = sh.slots.iter().map(|s| s.ready_ns.load(Relaxed)).max().unwrap_or(0);
    out.setup_s.push(Duration::from_nanos(ready).saturating_sub(t0).as_secs_f64());
    for (i, phase) in plan.phases.iter().enumerate() {
        let tag = i as u32 + 1;
        sh.go.store(tag, SeqCst);
        let until = match phase {
            Phase::Timed { secs, .. } => Some(Instant::now() + Duration::from_secs_f64(*secs)),
            Phase::Counted { .. } => None,
        };
        // A timed phase ends at `until`; a counted one when every worker
        // has served its share.
        let ended = || until.is_some() || sh.behind(tag) == 0;
        let watched = watch(sh, plan.stall, until, Duration::from_millis(20), ended);
        let [(t_a, p_a), (t_b, p_b)] = watched.ok_or_else(|| stalled(&format!("phase {tag}")))?;
        out.rates[i].push((p_b - p_a) as f64 / (t_b - t_a).as_secs_f64());
        sh.stop.store(tag, SeqCst);
        watch(sh, plan.stall, None, fine, || sh.behind(tag) == 0)
            .ok_or_else(|| stalled(&format!("phase {tag}")))?;
    }
    sh.go.store(QUIT, SeqCst);
    Ok(())
}

/// Moves one setup's counts, samples and published results into `out`.
fn collect(sh: &Shared, out: &mut Outcome) {
    out.attempted += sh.done();
    out.failed += sh.slots.iter().map(|s| s.failed.load(Relaxed)).sum::<u64>();
    let merged = |buf: fn(&Slot) -> &SampleBuf| {
        let mut v: Vec<u32> = sh.slots.iter().flat_map(|s| buf(s).read()).collect();
        v.sort_unstable();
        v
    };
    out.read_ticks.push(merged(|s| &s.reads));
    out.write_ticks.push(merged(|s| &s.writes));
    for slot in &sh.slots {
        // A stuck worker never publishes; skip rather than wait.
        let Ok(mut p) = slot.out.try_lock() else { continue };
        let p = std::mem::take(&mut *p);
        out.spans.push(p.spans);
        out.awaits += p.awaits;
        out.polls += p.polls;
        out.pending += p.pending;
        out.rmr.merge(&p.rmr);
        out.rmr_req_cc += p.rmr_req_cc;
        out.rmr_reqs += p.rmr_reqs;
    }
}

/// True on every `stride`-th call, counting down in `left`.
#[inline(always)]
fn every(left: &mut u64, stride: u64) -> bool {
    if *left <= 1 {
        *left = stride;
        true
    } else {
        *left -= 1;
        false
    }
}

/// Pins the calling worker to the `id`-th CPU it may run on, so that the
/// workers always run on distinct CPUs. Unpinned on a 2-vCPU guest, a
/// setup now and then ran ~1.8x faster than the rest of its run, as when
/// both workers share one vCPU and no cache line moves between them.
/// Does nothing if there are fewer CPUs than workers.
#[cfg(target_os = "linux")]
fn pin(id: usize, workers: usize) {
    // The C library's wrappers; `pid` 0 is the calling thread.
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    const WORDS: usize = 16;
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is as large as the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return;
    }
    let cpus: Vec<usize> =
        (0..64 * WORDS).filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1).collect();
    if cpus.len() < workers {
        return;
    }
    let mut one = [0u64; WORDS];
    one[cpus[id] / 64] = 1 << (cpus[id] % 64);
    // SAFETY: `one` is as large as the size passed. Failure leaves the
    // thread unpinned, which is harmless.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn pin(_id: usize, _workers: usize) {}

/// Spins until `cond`, yielding the CPU after a short while; false when
/// the setup is abandoned first.
fn spin_until(sh: &Shared, cond: impl Fn() -> bool) -> bool {
    let mut spins = 0u32;
    while !cond() {
        if sh.quitting() {
            return false;
        }
        spins += 1;
        if spins < 64 {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
    true
}

/// Waits for gate `tag` to open; false when told to quit instead.
fn wait_gate(sh: &Shared, tag: u32) -> bool {
    spin_until(sh, || sh.go.load(Acquire) >= tag) && !sh.quitting()
}

fn worker<S: Service>(
    svc: &S,
    id: usize,
    stream: &[S::Req],
    start: usize,
    sh: &Shared,
    plan: &Plan,
    epoch: Instant,
) {
    // Distinct `Counting` slots per worker; slot 0 stays with the main
    // thread. Harmless over the native backend.
    set_thread_slot(id + 1);
    pin(id, plan.workers);
    let slot = &*sh.slots[id];
    let mut w = svc.worker(id);
    let mut cur = start;
    let mut done = 0u64;
    let mut next = || {
        let req = &stream[cur];
        cur += 1;
        if cur == stream.len() {
            cur = 0;
        }
        req
    };
    macro_rules! finish {
        ($ok:expr) => {{
            done += 1;
            slot.done.store(done, Relaxed);
            if !$ok {
                slot.failed.fetch_add(1, Relaxed);
            }
        }};
    }
    for _ in 0..plan.warm {
        let ok = svc.serve(&mut w, next(), &mut Off);
        finish!(ok);
    }
    slot.ready_ns.store(epoch.elapsed().as_nanos() as u64, Relaxed);
    slot.acked.store(0, Release);
    for (i, phase) in plan.phases.iter().enumerate() {
        let tag = i as u32 + 1;
        if !wait_gate(sh, tag) {
            return;
        }
        let mut published = Published::default();
        match *phase {
            Phase::Timed { traced, .. } => {
                // Both kinds of timed phase take the same service-time
                // samples; a traced phase also records spans on its own
                // sample, so the two differ by the tracing alone.
                let mut tracer = traced.then(|| Tracer::new(epoch, plan.span_capacity));
                // Countdowns to the next timed read and traced read/write.
                let (mut reads, mut traced_reads, mut traced_writes) = (0u64, 0u64, 0u64);
                // The stop flag is read once per batch of requests.
                while sh.stop.load(Relaxed) < tag {
                    for _ in 0..STOP_BATCH {
                        let req = next();
                        let write = S::is_write(req);
                        let t0 = (write || every(&mut reads, plan.read_stride)).then(ticks);
                        // Testing `traced` before the tracer lets the
                        // untraced loop compile to a copy without it, which
                        // costs the harness ~2 ns less per request.
                        let tracer = tracer.as_mut().filter(|t| {
                            traced
                                && t.has_room(S::MAX_SPANS)
                                && if write {
                                    every(&mut traced_writes, plan.trace_write_stride)
                                } else {
                                    every(&mut traced_reads, plan.trace_read_stride)
                                }
                        });
                        let ok = match tracer {
                            Some(tracer) => {
                                tracer.req = done as u32;
                                let m = tracer.enter(Layer::Request);
                                let ok = svc.serve(&mut w, req, tracer);
                                tracer.exit(m);
                                ok
                            }
                            None => svc.serve(&mut w, req, &mut Off),
                        };
                        if let Some(t0) = t0 {
                            let t = ticks().wrapping_sub(t0);
                            if write { &slot.writes } else { &slot.reads }.push(t);
                        }
                        finish!(ok);
                    }
                }
                if let Some(mut tracer) = tracer {
                    published.spans.append(&mut tracer.spans);
                    published.awaits += tracer.awaits;
                    published.polls += tracer.polls;
                    published.pending += tracer.pending;
                }
            }
            Phase::Counted { requests } => {
                // The workers run in lockstep rounds of one request each,
                // so how their requests interleave — which is what sets
                // the CC RMR counts — does not drift with host speed.
                let mut probe = RmrProbe::default();
                for round in 1..=requests as u64 {
                    let req = next();
                    let cc0 = thread_tally().cc;
                    let ok = svc.serve(&mut w, req, &mut probe);
                    published.rmr_req_cc += thread_tally().cc - cc0;
                    published.rmr_reqs += 1;
                    finish!(ok);
                    sh.arrivals.fetch_add(1, SeqCst);
                    let all = round * plan.workers as u64;
                    if !spin_until(sh, || sh.arrivals.load(SeqCst) >= all) {
                        break;
                    }
                }
                published.rmr.merge(&probe);
            }
        }
        slot.out.lock().expect("a worker panicked while publishing").absorb(published);
        slot.acked.store(tag, Release);
    }
}
