//! E19 — what observability costs, measured and *proven*:
//!
//! 1. **Overhead**: uncontended read/write passage latency of
//!    representative tiers in three builds — bare, wrapped in
//!    [`Observed`] with the inert [`NoopRecorder`] (must be free: the
//!    hooks const-fold), and wrapped with a live [`StatsRecorder`]
//!    (must stay cheap: per-pid padded slots, `Relaxed` stores).
//! 2. **Zero-cost-when-off, by construction**: the same passages over
//!    the `Counting` backend — the Noop-instrumented lock must execute
//!    an op-for-op identical shared-memory footprint to the bare lock,
//!    and a `StatsRecorder`-instrumented Bravo fast read must still
//!    perform zero inner-lock operations and zero CC RMRs. The binary
//!    exits nonzero if either claim fails.
//! 3. **Latency distributions**: a contended mixed workload over an
//!    instrumented lock, reported as log-bucket p50/p99 acquire
//!    latencies with contended-passage counts — the rows
//!    `bench_summary` twins under `@obs`.
//!
//! ```text
//! cargo run --release -p rmr-bench --bin obs_table [-- --quick --json --trace-out FILE]
//! ```
//!
//! `--trace-out FILE` additionally runs the latency workload with a
//! bounded event ring attached and writes the drained trace as Chrome
//! `trace_event` JSON (load in `chrome://tracing` or Perfetto).

use rmr_baselines::TicketRwLock;
use rmr_bench::cli::Table;
use rmr_bench::timing::passages;
use rmr_bench::workloads::{run_mixed, Workload};
use rmr_bravo::{Bravo, BravoConfig};
use rmr_core::mwmr::MwmrStarvationFree;
use rmr_core::raw::RawRwLock;
use rmr_core::registry::Pid;
use rmr_core::swmr::SwmrWriterPriority;
use rmr_core::Observed;
use rmr_mutex::mem::{self, Counting};
use rmr_obs::{Event, Metric, NoopRecorder, StatsRecorder};
use std::sync::Arc;

struct Args {
    json: bool,
    quick: bool,
    trace_out: Option<String>,
}

/// Hand-rolled because of `--trace-out FILE`; everything else matches
/// [`rmr_bench::cli::BenchArgs`].
fn parse_args() -> Args {
    const ABOUT: &str = "E19: observability overhead, zero-cost-when-off proof, and acquire-latency distributions\n\n\
        Usage: cargo run --release -p rmr-bench --bin obs_table [-- OPTIONS]\n\n\
        Options:\n  \
        --json             emit machine-readable JSON instead of markdown\n  \
        --quick            reduced sweep (CI smoke mode)\n  \
        --trace-out FILE   write a Chrome trace_event JSON of the latency workload\n  \
        --help             print this message";
    let mut args = Args { json: false, quick: false, trace_out: None };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--json" => args.json = true,
            "--quick" => args.quick = true,
            "--trace-out" => match argv.next() {
                Some(path) => args.trace_out = Some(path),
                None => {
                    eprintln!("--trace-out needs a file path\n\n{ABOUT}");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!("{ABOUT}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument `{other}`\n\n{ABOUT}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// The `Counting` tally of `n` read + `n` write passages on `lock`.
fn counted_footprint<L: RawRwLock>(lock: &L, n: u32) -> mem::Tally {
    let pid = Pid::from_index(0);
    mem::set_thread_slot(1);
    // Warm-up: compulsory first-touch misses are not part of the claim.
    let t = lock.read_lock(pid);
    lock.read_unlock(pid, t);
    let t = lock.write_lock(pid);
    lock.write_unlock(pid, t);
    mem::reset_thread_tally();
    for _ in 0..n {
        let t = lock.read_lock(pid);
        lock.read_unlock(pid, t);
        let t = lock.write_lock(pid);
        lock.write_unlock(pid, t);
    }
    mem::thread_tally()
}

fn main() {
    let args = parse_args();
    let (iters, reps) = if args.quick { (5_000u32, 3u32) } else { (200_000, 5) };
    let cap = 8;

    // -- section 1: overhead ------------------------------------------
    let mut overhead = Table::new(&[
        ("lock", "lock"),
        ("op", "op"),
        ("bare ns/op", "bare_ns_per_op"),
        ("+noop ns/op", "noop_ns_per_op"),
        ("+stats ns/op", "stats_ns_per_op"),
        ("noop/bare", "noop_ratio"),
        ("stats/bare", "stats_ratio"),
    ]);
    let mut push = |lock: &'static str, op, bare: f64, noop: f64, stats: f64| {
        overhead.row(vec![
            lock.into(),
            op,
            format!("{bare:.1}"),
            format!("{noop:.1}"),
            format!("{stats:.1}"),
            format!("{:.2}", noop / bare),
            format!("{:.2}", stats / bare),
        ]);
    };
    {
        let bare = passages(&SwmrWriterPriority::new(), iters, reps);
        let noop = passages(&Observed::new(SwmrWriterPriority::new(), NoopRecorder), iters, reps);
        let stats = passages(
            &Observed::new(SwmrWriterPriority::new(), Arc::new(StatsRecorder::new(cap))),
            iters,
            reps,
        );
        push("fig1-swmr-wp", "read".into(), bare.0, noop.0, stats.0);
        push("fig1-swmr-wp", "write".into(), bare.1, noop.1, stats.1);
    }
    {
        let bare = passages(&MwmrStarvationFree::new(cap), iters, reps);
        let noop =
            passages(&Observed::new(MwmrStarvationFree::new(cap), NoopRecorder), iters, reps);
        let stats = passages(
            &Observed::new(MwmrStarvationFree::new(cap), Arc::new(StatsRecorder::new(cap))),
            iters,
            reps,
        );
        push("fig3-mwmr-sf", "read".into(), bare.0, noop.0, stats.0);
        push("fig3-mwmr-sf", "write".into(), bare.1, noop.1, stats.1);
    }
    {
        let cfg = BravoConfig { table_slots: 64, rebias_after: 16, initial_bias: true };
        let mk = || Bravo::new_in(TicketRwLock::new(cap), cfg, rmr_mutex::mem::Native);
        let bare = passages(&mk(), iters, reps);
        let noop = passages(&Observed::new(mk(), NoopRecorder), iters, reps);
        let stats = passages(&Observed::new(mk(), Arc::new(StatsRecorder::new(cap))), iters, reps);
        push("bravo-ticket-rw", "read".into(), bare.0, noop.0, stats.0);
        push("bravo-ticket-rw", "write".into(), bare.1, noop.1, stats.1);
    }

    // -- section 2: the zero-cost proofs ------------------------------
    let n = if args.quick { 100 } else { 1_000 };
    let bare_tally = counted_footprint(&MwmrStarvationFree::new_in(cap, Counting), n);
    let noop_tally = counted_footprint(
        &Observed::new(MwmrStarvationFree::new_in(cap, Counting), NoopRecorder),
        n,
    );
    assert_eq!(
        bare_tally, noop_tally,
        "NoopRecorder instrumentation changed the shared-memory footprint"
    );

    // A live StatsRecorder on Bravo's fast path: still zero inner-lock
    // ops, still zero CC RMRs — the recorder writes only to the calling
    // pid's own padded std-atomic slot.
    let rec = Arc::new(StatsRecorder::new(cap));
    let bravo = Bravo::new(TicketRwLock::new_in(cap, Counting)).with_recorder(Arc::clone(&rec));
    let pid = Pid::from_index(0);
    mem::set_thread_slot(1);
    let t = bravo.read_lock(pid); // warm-up: publishes the bias
    bravo.read_unlock(pid, t);
    mem::reset_thread_tally();
    for _ in 0..n {
        let t = bravo.read_lock(pid);
        bravo.read_unlock(pid, t);
    }
    let fast_tally = mem::thread_tally();
    assert_eq!(
        fast_tally.ops, 0,
        "instrumented Bravo fast reads touched the inner lock: {fast_tally:?}"
    );
    assert_eq!(fast_tally.cc, 0, "instrumented Bravo fast reads cost CC RMRs: {fast_tally:?}");
    assert_eq!(rec.counter(Event::BravoFastRead), u64::from(n) + 1, "hooks missed fast reads");

    // -- section 3: latency distributions under contention ------------
    let workload = Workload {
        threads: 4,
        read_ratio: 0.9,
        ops_per_thread: if args.quick { 2_000 } else { 50_000 },
    };
    let rec = Arc::new(StatsRecorder::new(cap));
    let lock = Arc::new(Observed::new(MwmrStarvationFree::new(cap), Arc::clone(&rec)));
    run_mixed(Arc::clone(&lock), workload, 0xe19);

    let mut latency = Table::new(&[
        ("lock", "lock"),
        ("op", "op"),
        ("p50 ns", "p50_ns"),
        ("p99 ns", "p99_ns"),
        ("passages", "passages"),
        ("contended", "contended"),
    ]);
    for (op, metric, acq, cont) in [
        ("read", Metric::ReadAcquireNs, Event::ReadAcquire, Event::ReadContended),
        ("write", Metric::WriteAcquireNs, Event::WriteAcquire, Event::WriteContended),
    ] {
        latency.row(vec![
            "fig3-mwmr-sf".into(),
            op.into(),
            rec.quantile(metric, 0.50).to_string(),
            rec.quantile(metric, 0.99).to_string(),
            rec.counter(acq).to_string(),
            rec.counter(cont).to_string(),
        ]);
    }

    // -- optional: replayable event trace -----------------------------
    if let Some(path) = &args.trace_out {
        let rec = Arc::new(StatsRecorder::new(cap).with_ring(65_536));
        let lock = Arc::new(Observed::new(MwmrStarvationFree::new(cap), Arc::clone(&rec)));
        let traced = Workload { ops_per_thread: 2_000, ..workload };
        run_mixed(lock, traced, 0xe19);
        std::fs::write(path, rec.chrome_trace()).unwrap_or_else(|e| {
            eprintln!("cannot write trace to {path}: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "wrote {} trace events to {path} ({} dropped by the bounded ring)",
            rec.drain_trace().len(),
            rec.ring().map(|r| r.dropped()).unwrap_or(0)
        );
    }

    if args.json {
        // Two sections, one JSON document (Table::json renders each array).
        print!(
            "{{\n\"overhead\": {}, \"latency\": {}}}\n",
            overhead.json().trim_end(),
            latency.json()
        );
    } else {
        println!("# E19 — observability: overhead, zero-cost proof, latency distributions\n");
        println!("## Uncontended overhead (bare vs +noop vs +stats)\n");
        print!("{}", overhead.emit(false));
        println!();
        println!(
            "Zero-cost proofs held: noop-instrumented footprint identical over `Counting` \
             ({} ops), instrumented Bravo fast read still 0 inner ops / 0 CC RMRs.\n",
            bare_tally.ops
        );
        println!("## Contended acquire latency (log-bucket quantiles)\n");
        print!("{}", latency.emit(false));
    }
}
