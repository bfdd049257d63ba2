//! E16 — the async-tier throughput sweep: what waker-parking costs and
//! buys relative to spinning on the same locks.
//!
//! Three measurements:
//!
//! * **Mixed throughput** (50/90/99% reads, one executor per thread):
//!   bare ticket-rw (spinning) vs. `AsyncRwLock` over ticket-rw vs.
//!   `AsyncRwLock` over Bravo-wrapped ticket-rw, with the wake-ups each
//!   configuration delivered — the visible price of parking.
//! * **Read-mostly sweep** for a core lock (Fig. 3, which has no writer
//!   doorway — no `RawParkedWaiters`, so no `write().await`): every
//!   thread awaits reads, thread 0 writes through the deprecated
//!   `write_blocking` — the designated-writer service shape these locks
//!   still require. (Doorway-bearing locks measure the awaited writer in
//!   E20's `async-fair` rows instead.)
//! * **The acceptance proof**: over a `Counting` inner lock, a biased
//!   Bravo fast-path read passage through the async tier must perform
//!   **zero** operations on the inner lock — parking adds nothing to
//!   inner-lock traffic. The binary exits nonzero otherwise, and also if
//!   any lock fails to reach quiescence after its sweep.
//!
//! ```text
//! cargo run --release -p rmr-bench --bin async_table -- [--quick] [--json]
//! ```

use rmr_async::exec::block_on;
use rmr_async::AsyncRwLock;
use rmr_baselines::TicketRwLock;
use rmr_bench::cli::{BenchArgs, Table};
use rmr_bench::timing::summed_throughput;
use rmr_bench::workloads::{run_async_mixed, run_async_read_mostly, run_mixed, Workload};
use rmr_bravo::Bravo;
use rmr_core::mwmr::MwmrStarvationFree;
use rmr_mutex::mem::{self, Counting};
use std::sync::Arc;

const SEED: u64 = 0xE16;
const THREADS: usize = 4;

fn main() {
    let args = BenchArgs::parse(
        "async_table",
        "E16: async-tier throughput (waker parking vs. spinning) + zero-inner-op proof",
    );
    let (ops_per_thread, reps) = if args.quick { (300, 2) } else { (2_000, 3) };
    let mut failures: Vec<String> = Vec::new();

    let mut table = Table::new(&[
        ("lock", "lock"),
        ("mode", "mode"),
        ("read %", "read_pct"),
        ("ops", "ops"),
        ("ops/s", "ops_per_sec"),
        ("wakeups", "wakeups"),
    ]);

    for read_pct in [50u32, 90, 99] {
        let workload =
            Workload { threads: THREADS, read_ratio: f64::from(read_pct) / 100.0, ops_per_thread };

        // Spinning baseline on the same raw lock.
        let res = summed_throughput(reps, |_| {
            run_mixed(Arc::new(TicketRwLock::new(THREADS)), workload, SEED)
        });
        table.row(vec![
            "ticket-rw".into(),
            "spin".into(),
            read_pct.to_string(),
            res.ops.to_string(),
            format!("{:.1}", res.ops_per_sec()),
            "-".into(),
        ]);

        // Async over the bare ticket lock.
        {
            let mut wakeups = 0u64;
            let res = summed_throughput(reps, |timed| {
                let lock = Arc::new(AsyncRwLock::with_raw(0u64, TicketRwLock::new(THREADS)));
                let res = run_async_mixed(Arc::clone(&lock), workload, SEED);
                if timed {
                    wakeups += lock.wakeups();
                    if !lock.is_quiescent() {
                        failures
                            .push(format!("async-ticket-rw @ {read_pct}% reads: not quiescent"));
                    }
                }
                res
            });
            table.row(vec![
                "async-ticket-rw".into(),
                "park".into(),
                read_pct.to_string(),
                res.ops.to_string(),
                format!("{:.1}", res.ops_per_sec()),
                wakeups.to_string(),
            ]);
        }

        // Async over the Bravo-wrapped ticket lock.
        {
            let mut wakeups = 0u64;
            let res = summed_throughput(reps, |timed| {
                let lock = Arc::new(AsyncRwLock::with_raw_and_capacity(
                    0u64,
                    Bravo::new(TicketRwLock::new(THREADS)),
                    THREADS,
                ));
                let res = run_async_mixed(Arc::clone(&lock), workload, SEED);
                if timed {
                    wakeups += lock.wakeups();
                    if !lock.is_quiescent() || !lock.raw().is_quiescent() {
                        failures
                            .push(format!("async-bravo-ticket @ {read_pct}% reads: not quiescent"));
                    }
                }
                res
            });
            table.row(vec![
                "async-bravo-ticket-rw".into(),
                "park".into(),
                read_pct.to_string(),
                res.ops.to_string(),
                format!("{:.1}", res.ops_per_sec()),
                wakeups.to_string(),
            ]);
        }
    }

    // Read-mostly sweep over Fig. 3 (no try-write tier: designated
    // blocking writer, awaiting readers).
    for read_pct in [95u32, 99, 100] {
        let workload =
            Workload { threads: THREADS, read_ratio: f64::from(read_pct) / 100.0, ops_per_thread };
        let mut wakeups = 0u64;
        let res = summed_throughput(reps, |timed| {
            let lock = Arc::new(AsyncRwLock::with_raw(0u64, MwmrStarvationFree::new(THREADS)));
            let res = run_async_read_mostly(Arc::clone(&lock), workload, SEED);
            if timed {
                wakeups += lock.wakeups();
                if !lock.is_quiescent() || !lock.raw().is_quiescent() {
                    failures.push(format!("async-fig3-sf @ {read_pct}% reads: not quiescent"));
                }
            }
            res
        });
        table.row(vec![
            "async-fig3-sf".into(),
            "park+blocking-writer".into(),
            read_pct.to_string(),
            res.ops.to_string(),
            format!("{:.1}", res.ops_per_sec()),
            wakeups.to_string(),
        ]);
    }

    print!("{}", table.emit(args.json));

    // The acceptance proof: async + Bravo fast path = zero inner-lock
    // operations per biased read passage (inner lock over Counting, all
    // wrapper/async state Native, so the tally isolates inner traffic).
    let lock: AsyncRwLock<u64, Bravo<TicketRwLock<Counting>>> =
        AsyncRwLock::with_raw_and_capacity(0, Bravo::new(TicketRwLock::new_in(4, Counting)), 4);
    mem::set_thread_slot(1);
    block_on(async {
        let _ = *lock.read().await; // warm-up
    });
    let passages = if args.quick { 100 } else { 10_000 };
    let mut max_inner_ops = 0u64;
    for _ in 0..passages {
        mem::reset_thread_tally();
        block_on(async {
            let _ = *lock.read().await;
        });
        max_inner_ops = max_inner_ops.max(mem::thread_tally().ops);
    }
    eprintln!("async biased read passages: {passages}, max inner ops/passage: {max_inner_ops}");
    if max_inner_ops != 0 {
        failures.push(format!(
            "async Bravo fast path touched the inner lock ({max_inner_ops} ops in a passage)"
        ));
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("async_table FAILED: {f}");
        }
        std::process::exit(1);
    }
}
