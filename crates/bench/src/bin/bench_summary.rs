//! Perf-trajectory snapshot: runs the mixed-throughput and uncontended
//! benches at fixed seeds and populations and emits one machine-readable
//! JSON blob, so successive PRs can diff `BENCH_*.json` runs and spot
//! drift. The schema is documented in `BENCH_SCHEMA.md` at the workspace
//! root; bump `schema` there and here together.
//!
//! Always emits JSON (that is its purpose); `--quick` shrinks the
//! iteration counts for CI smoke runs. Absolute numbers are
//! machine-dependent — diff runs from the same host only.
//!
//! ```text
//! cargo run --release -p rmr-bench --bin bench_summary [-- --quick] > BENCH_host.json
//! ```

use rmr_async::AsyncRwLock;
use rmr_baselines::{
    CentralizedRwLock, DistributedFlagRwLock, StdRwLock, TicketRwLock, TournamentRwLock,
};
use rmr_bench::cli::{json_string, BenchArgs};
use rmr_bench::timing::passages;
use rmr_bench::workloads::{
    run_async_mixed, run_async_writer_latency, run_mixed, run_snapshot_read_mostly, Workload,
};
use rmr_bravo::Bravo;
use rmr_core::mwmr::{MwmrReaderPriority, MwmrStarvationFree, MwmrWriterPriority};
use rmr_core::raw::RawRwLock;
use rmr_core::swmr::SwmrWriterPriority;
use rmr_core::Observed;
use rmr_mutex::mem::SeqCstNative;
use rmr_obs::{Metric, StatsRecorder};
use rmr_swap::{RetireEager, Snapshot};
use std::sync::Arc;

/// Stable schema identifier; see BENCH_SCHEMA.md. v2: `ops_per_sec` is
/// the **best rep** (max over the timed repetitions), not the pooled
/// rate — one descheduled rep on a noisy host no longer halves a row,
/// which is what makes the `bench_diff` trajectory gate stable enough to
/// block CI on. v3: `@obs` twin rows (the same tiers instrumented with a
/// live `StatsRecorder`, so the trajectory tracks what observability
/// costs — the `@seqcst` pattern applied to the rmr-obs tier) and the
/// `latency` array (log-bucket p50/p99 acquire latencies from the
/// instrumented contended runs; `bench_diff` gates the p99 column).
const SCHEMA: &str = "rmr-bench-summary/v3";
const SEED: u64 = 0xBEEF;
const THREADS: usize = 4;

struct ThroughputEntry {
    lock: &'static str,
    // f64 so the snapshot tier's 99.9 mix fits; integral percentages
    // Display as before ("50", not "50.0"), so committed rows keep their
    // keys.
    read_pct: f64,
    ops: u64,
    ops_per_sec: f64,
}

struct UncontendedEntry {
    lock: &'static str,
    op: &'static str,
    ns_per_op: f64,
}

struct LatencyEntry {
    lock: &'static str,
    op: &'static str,
    p50_ns: u64,
    p99_ns: u64,
}

/// The best-rep rule applied to tails: one quantile per *rep* (each rep
/// gets a fresh recorder), keeping the minimum across reps. A pooled
/// histogram lets a single descheduled rep own the p99 forever, and the
/// log buckets are octaves — one such rep flips a gated row by +100%.
/// The per-rep minimum is the same envelope `ops_per_sec` already uses:
/// the best the lock demonstrably achieves, which is the stable quantity
/// a trajectory can diff.
struct LatencyMin {
    p50: u64,
    p99: u64,
}

impl LatencyMin {
    fn new() -> Self {
        Self { p50: u64::MAX, p99: u64::MAX }
    }

    fn absorb(&mut self, rec: &StatsRecorder, metric: Metric) {
        if rec.samples(metric) == 0 {
            return; // e.g. the 100%-read snapshot mix never grace-scans
        }
        self.p50 = self.p50.min(rec.quantile(metric, 0.50));
        self.p99 = self.p99.min(rec.quantile(metric, 0.99));
    }

    fn push(self, out: &mut Vec<LatencyEntry>, lock: &'static str, op: &'static str) {
        assert!(self.p99 != u64::MAX, "{lock}/{op}: no rep recorded a latency sample");
        out.push(LatencyEntry { lock, op, p50_ns: self.p50, p99_ns: self.p99 });
    }
}

/// The schema-v2 aggregation rule, in one place: one warm-up run (which
/// also validates — the workload drivers panic on lost updates), then
/// `reps` timed runs keeping the **fastest** rate. A rep that lost its
/// timeslice measures the scheduler, not the lock, and would poison the
/// trajectory diff.
fn best_of_reps(reps: u32, run: impl Fn() -> rmr_bench::workloads::WorkloadResult) -> (u64, f64) {
    run(); // warm-up
    let mut ops = 0u64;
    let mut best = 0f64;
    for _ in 0..reps {
        let res = run();
        ops = res.ops;
        best = best.max(res.ops_per_sec());
    }
    (ops, best)
}

fn throughput<L: RawRwLock + 'static>(
    out: &mut Vec<ThroughputEntry>,
    name: &'static str,
    make: impl Fn() -> L,
    ops_per_thread: usize,
    reps: u32,
) {
    for read_pct in [50.0f64, 90.0, 99.0] {
        let workload = Workload { threads: THREADS, read_ratio: read_pct / 100.0, ops_per_thread };
        let (ops, best) = best_of_reps(reps, || run_mixed(Arc::new(make()), workload, SEED));
        out.push(ThroughputEntry { lock: name, read_pct, ops, ops_per_sec: best });
    }
}

/// One timed rep per op (`reps = 1`): the trajectory blob's estimator.
fn uncontended<L: RawRwLock>(
    out: &mut Vec<UncontendedEntry>,
    name: &'static str,
    lock: &L,
    iters: u32,
) {
    let (read, write) = passages(lock, iters, 1);
    out.push(UncontendedEntry { lock: name, op: "read", ns_per_op: read });
    out.push(UncontendedEntry { lock: name, op: "write", ns_per_op: write });
}

fn main() {
    let args = BenchArgs::parse(
        "bench_summary",
        "Perf-trajectory snapshot: throughput + uncontended latency as one JSON blob",
    );
    // Quick mode runs more, longer reps than it used to (300 ops × 3):
    // the committed trajectory is a --quick blob, and on a small CI host
    // a 4-thread rep measuring ~100µs of work is scheduler jitter, not
    // lock behavior — the best-of envelope only stabilizes once reps
    // outnumber the bad-timeslice draws. Both sides of the bench_diff
    // gate regenerate under the same profile, so this is not a schema
    // change.
    let (ops_per_thread, reps, iters) =
        if args.quick { (600, 8, 5_000) } else { (2_000, 3, 50_000) };

    let mut tp: Vec<ThroughputEntry> = Vec::new();
    throughput(
        &mut tp,
        "fig3-starvation-free",
        || MwmrStarvationFree::new(THREADS),
        ops_per_thread,
        reps,
    );
    throughput(
        &mut tp,
        "fig3-reader-priority",
        || MwmrReaderPriority::new(THREADS),
        ops_per_thread,
        reps,
    );
    throughput(
        &mut tp,
        "fig4-writer-priority",
        || MwmrWriterPriority::new(THREADS),
        ops_per_thread,
        reps,
    );
    throughput(
        &mut tp,
        "centralized-1971",
        || CentralizedRwLock::new(THREADS),
        ops_per_thread,
        reps,
    );
    throughput(&mut tp, "ticket-rw", || TicketRwLock::new(THREADS), ops_per_thread, reps);
    throughput(
        &mut tp,
        "distributed-flag",
        || DistributedFlagRwLock::new(THREADS),
        ops_per_thread,
        reps,
    );
    throughput(&mut tp, "tournament-tree", || TournamentRwLock::new(THREADS), ops_per_thread, reps);
    throughput(&mut tp, "std-rwlock", || StdRwLock::new(THREADS), ops_per_thread, reps);
    throughput(
        &mut tp,
        "bravo-ticket-rw",
        || Bravo::new(TicketRwLock::new(THREADS)),
        ops_per_thread,
        reps,
    );
    throughput(
        &mut tp,
        "bravo-fig3-sf",
        || Bravo::new(MwmrStarvationFree::new(THREADS)),
        ops_per_thread,
        reps,
    );
    // The async tier (rmr-async): the same mixed workload with every
    // operation a read()/write() await pair — parking and wake-ups on the
    // measured path, so a wake-path regression shows in the trajectory.
    for read_pct in [50.0f64, 90.0, 99.0] {
        let workload = Workload { threads: THREADS, read_ratio: read_pct / 100.0, ops_per_thread };
        let make = || Arc::new(AsyncRwLock::with_raw(0u64, TicketRwLock::new(THREADS)));
        let (ops, best) = best_of_reps(reps, || run_async_mixed(make(), workload, SEED));
        tp.push(ThroughputEntry { lock: "async-ticket-rw", read_pct, ops, ops_per_sec: best });
    }
    // The snapshot tier (rmr-swap): read-mostly only — `Snapshot` is not
    // a lock, so it gets its designated-writer driver; the mixes sit
    // where the tier is meant to live (99%+ reads; 100% = nobody ever
    // swaps).
    for read_pct in [99.0f64, 99.9, 100.0] {
        let workload = Workload { threads: THREADS, read_ratio: read_pct / 100.0, ops_per_thread };
        let make =
            || Arc::new(Snapshot::with_raw(0u64, MwmrStarvationFree::new(THREADS), RetireEager));
        let (ops, best) = best_of_reps(reps, || run_snapshot_read_mostly(make(), workload, SEED));
        tp.push(ThroughputEntry { lock: "swap-snapshot", read_pct, ops, ops_per_sec: best });
    }

    // The `@obs` twins (E19): the same tiers instrumented with a live
    // `StatsRecorder`, following the `@seqcst` twin-row pattern — the
    // gap between a row and its twin is what observability costs, and a
    // hook that quietly lands on a fast path shows up as the `@obs` gap
    // widening across PRs. Each timed rep gets a fresh recorder; the
    // per-rep histograms feed the best-rep latency envelope below.
    let mut lat: Vec<LatencyEntry> = Vec::new();
    let (mut bravo_read, mut bravo_write) = (LatencyMin::new(), LatencyMin::new());
    for read_pct in [50.0f64, 90.0, 99.0] {
        let workload = Workload { threads: THREADS, read_ratio: read_pct / 100.0, ops_per_thread };
        let run = |rec: &Arc<StatsRecorder>| {
            let lock = Observed::new(Bravo::new(TicketRwLock::new(THREADS)), Arc::clone(rec));
            run_mixed(Arc::new(lock), workload, SEED)
        };
        run(&Arc::new(StatsRecorder::new(THREADS))); // warm-up
        let (mut ops, mut best) = (0u64, 0f64);
        for _ in 0..reps {
            let rec = Arc::new(StatsRecorder::new(THREADS));
            let res = run(&rec);
            ops = res.ops;
            best = best.max(res.ops_per_sec());
            bravo_read.absorb(&rec, Metric::ReadAcquireNs);
            bravo_write.absorb(&rec, Metric::WriteAcquireNs);
        }
        tp.push(ThroughputEntry { lock: "bravo-ticket-rw@obs", read_pct, ops, ops_per_sec: best });
    }
    bravo_read.push(&mut lat, "bravo-ticket-rw@obs", "read");
    bravo_write.push(&mut lat, "bravo-ticket-rw@obs", "write");
    let (mut async_read, mut async_write) = (LatencyMin::new(), LatencyMin::new());
    for read_pct in [50.0f64, 90.0, 99.0] {
        let workload = Workload { threads: THREADS, read_ratio: read_pct / 100.0, ops_per_thread };
        let run = |rec: &Arc<StatsRecorder>| {
            let lock = AsyncRwLock::with_raw(0u64, TicketRwLock::new(THREADS))
                .with_recorder(Arc::clone(rec));
            run_async_mixed(Arc::new(lock), workload, SEED)
        };
        run(&Arc::new(StatsRecorder::new(THREADS))); // warm-up
        let (mut ops, mut best) = (0u64, 0f64);
        for _ in 0..reps {
            let rec = Arc::new(StatsRecorder::new(THREADS));
            let res = run(&rec);
            ops = res.ops;
            best = best.max(res.ops_per_sec());
            async_read.absorb(&rec, Metric::ReadAcquireNs);
            async_write.absorb(&rec, Metric::WriteAcquireNs);
        }
        tp.push(ThroughputEntry { lock: "async-ticket-rw@obs", read_pct, ops, ops_per_sec: best });
    }
    async_read.push(&mut lat, "async-ticket-rw@obs", "read");
    async_write.push(&mut lat, "async-ticket-rw@obs", "write");
    // The `async-fair` rows (E20): the writer's grant latency under
    // sustained read pressure, tokened (`write().await` holds a real
    // doorway in the raw queue) vs untokened (the bare try-poll shape
    // this redesign replaced). The tokened p99 is the gated row; the
    // untokened twin stays in the blob so the gap — what the waiter
    // token is worth at the tail — is diffable across PRs.
    for (op, tokened) in [("write-tokened", true), ("write-untokened", false)] {
        let readers = THREADS - 1;
        let (writes, between) = (8, ops_per_thread / 8);
        let run = || {
            let lock = Arc::new(AsyncRwLock::with_raw(0u64, TicketRwLock::new(THREADS)));
            run_async_writer_latency(lock, readers, ops_per_thread, writes, between, tokened)
        };
        run(); // warm-up
        let mut env = LatencyMin::new();
        for _ in 0..reps {
            let mut samples = run();
            samples.sort_unstable();
            let idx = |q: f64| ((samples.len() - 1) as f64 * q).round() as usize;
            env.p50 = env.p50.min(samples[idx(0.50)]);
            env.p99 = env.p99.min(samples[idx(0.99)]);
        }
        env.push(&mut lat, "async-fair-ticket", op);
    }
    // The snapshot tier has no acquire path; its tail-latency story is
    // the writer's grace scan, reported under the `grace-scan` op.
    let mut swap_scan = LatencyMin::new();
    for read_pct in [99.0f64, 99.9, 100.0] {
        let workload = Workload { threads: THREADS, read_ratio: read_pct / 100.0, ops_per_thread };
        let run = |rec: &Arc<StatsRecorder>| {
            let snap = Snapshot::with_raw(0u64, MwmrStarvationFree::new(THREADS), RetireEager)
                .with_recorder(Arc::clone(rec));
            run_snapshot_read_mostly(Arc::new(snap), workload, SEED)
        };
        run(&Arc::new(StatsRecorder::new(THREADS))); // warm-up
        let (mut ops, mut best) = (0u64, 0f64);
        for _ in 0..reps {
            let rec = Arc::new(StatsRecorder::new(THREADS));
            let res = run(&rec);
            ops = res.ops;
            best = best.max(res.ops_per_sec());
            swap_scan.absorb(&rec, Metric::GraceScanNs);
        }
        tp.push(ThroughputEntry { lock: "swap-snapshot@obs", read_pct, ops, ops_per_sec: best });
    }
    swap_scan.push(&mut lat, "swap-snapshot@obs", "grace-scan");

    let mut un: Vec<UncontendedEntry> = Vec::new();
    uncontended(&mut un, "fig3-starvation-free", &MwmrStarvationFree::new(4), iters);
    uncontended(&mut un, "fig3-reader-priority", &MwmrReaderPriority::new(4), iters);
    uncontended(&mut un, "fig4-writer-priority", &MwmrWriterPriority::new(4), iters);
    uncontended(&mut un, "centralized-1971", &CentralizedRwLock::new(4), iters);
    uncontended(&mut un, "ticket-rw", &TicketRwLock::new(4), iters);
    uncontended(&mut un, "distributed-flag", &DistributedFlagRwLock::new(4), iters);
    uncontended(&mut un, "tournament-tree-n4", &TournamentRwLock::new(4), iters);
    uncontended(&mut un, "tournament-tree-n64", &TournamentRwLock::new(64), iters);
    uncontended(&mut un, "std-rwlock", &StdRwLock::new(4), iters);
    uncontended(&mut un, "bravo-ticket-rw", &Bravo::new(TicketRwLock::new(4)), iters);
    uncontended(&mut un, "bravo-fig3-sf", &Bravo::new(MwmrStarvationFree::new(4)), iters);
    // The SeqCst-everywhere policy twins (E18): the same locks through
    // `SeqCstNative`, so the trajectory tracks what the per-site ordering
    // relaxation is worth — and a future sweep that quietly re-promotes
    // sites shows up as the `@seqcst` gap closing.
    uncontended(
        &mut un,
        "fig3-starvation-free@seqcst",
        &MwmrStarvationFree::new_in(4, SeqCstNative),
        iters,
    );
    uncontended(
        &mut un,
        "fig4-writer-priority@seqcst",
        &MwmrWriterPriority::new_in(4, SeqCstNative),
        iters,
    );
    uncontended(
        &mut un,
        "distributed-flag@seqcst",
        &DistributedFlagRwLock::new_in(4, SeqCstNative),
        iters,
    );
    // The `@obs` twins for the single-thread constants, where a stray
    // nanosecond is most visible. fig1 is single-writer, so the paper's
    // flagship lock lives here rather than in the multi-writer mixed
    // workload; its bare row lands alongside the twin so the pair is
    // diffable in one place. The twins run a *live* `StatsRecorder` —
    // the NoopRecorder build is bit-identical to the bare rows by
    // construction (obs_table proves it op-for-op over `Counting`), so a
    // noop twin would just re-measure the base row.
    uncontended(&mut un, "fig1-swmr-wp", &SwmrWriterPriority::new(), iters);
    uncontended(
        &mut un,
        "fig1-swmr-wp@obs",
        &Observed::new(SwmrWriterPriority::new(), Arc::new(StatsRecorder::new(4))),
        iters,
    );
    uncontended(
        &mut un,
        "bravo-ticket-rw@obs",
        &Observed::new(Bravo::new(TicketRwLock::new(4)), Arc::new(StatsRecorder::new(4))),
        iters,
    );

    // One blob, hand-rolled (the workspace carries no serialization dep).
    println!("{{");
    println!("  \"schema\": {},", json_string(SCHEMA));
    println!("  \"quick\": {},", args.quick);
    println!("  \"seed\": {SEED},");
    println!("  \"threads\": {THREADS},");
    println!("  \"throughput\": [");
    for (i, e) in tp.iter().enumerate() {
        println!(
            "    {{\"lock\": {}, \"read_pct\": {}, \"ops\": {}, \"ops_per_sec\": {:.1}}}{}",
            json_string(e.lock),
            e.read_pct,
            e.ops,
            e.ops_per_sec,
            if i + 1 == tp.len() { "" } else { "," }
        );
    }
    println!("  ],");
    println!("  \"uncontended\": [");
    for (i, e) in un.iter().enumerate() {
        println!(
            "    {{\"lock\": {}, \"op\": {}, \"ns_per_op\": {:.1}}}{}",
            json_string(e.lock),
            json_string(e.op),
            e.ns_per_op,
            if i + 1 == un.len() { "" } else { "," }
        );
    }
    println!("  ],");
    println!("  \"latency\": [");
    for (i, e) in lat.iter().enumerate() {
        println!(
            "    {{\"lock\": {}, \"op\": {}, \"p50_ns\": {}, \"p99_ns\": {}}}{}",
            json_string(e.lock),
            json_string(e.op),
            e.p50_ns,
            e.p99_ns,
            if i + 1 == lat.len() { "" } else { "," }
        );
    }
    println!("  ]");
    println!("}}");
}
