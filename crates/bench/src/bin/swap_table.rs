//! E17 — the snapshot-tier read-mostly sweep: `rmr_swap::Snapshot` under
//! both retirement policies vs. the strongest lock-based read paths, plus
//! the Counting-backend proof that a steady-state snapshot read performs
//! **zero** cache-coherent RMRs.
//!
//! Two sections:
//!
//! * **Throughput** (`run_snapshot_read_mostly` /
//!   `rmr_bench::workloads::run_read_mostly`): 99/99.9/100% read mixes
//!   over `Snapshot` (eager and batched retirement), the Bravo-wrapped
//!   ticket lock (the best lock-based read fast path in the workspace)
//!   and `std::sync::RwLock`. Only thread 0 ever writes; `read_pct` is
//!   that thread's read share, the remaining threads read unconditionally.
//! * **Steady-state RMR proof** (the subsystem's acceptance criterion):
//!   the whole snapshot — epoch counter, payload pointer, registry epoch
//!   table and the serializing lock — is instantiated over the `Counting`
//!   backend, and reader threads hammer pin/deref/unpin passages with no
//!   writer active. Per thread, per passage, the cache-coherent RMR tally
//!   must be **zero**: the epoch and payload lines stay valid in cache
//!   once loaded (nobody writes them), and the reader's own epoch slot is
//!   cache-padded and written only by its owner. A nonzero count fails
//!   the binary — this is what distinguishes the tier from Bravo, whose
//!   readers still store to a shared visibility table.
//!
//! ```text
//! cargo run --release -p rmr-bench --bin swap_table -- [--quick] [--json]
//! ```
//!
//! With `--json` the two sections are emitted as one object:
//! `{"throughput": [...], "steady_state": [...]}`.

use rmr_baselines::{StdRwLock, TicketRwLock};
use rmr_bench::cli::{BenchArgs, Table};
use rmr_bench::timing::summed_throughput;
use rmr_bench::workloads::{run_read_mostly, run_snapshot_read_mostly, Workload};
use rmr_bravo::Bravo;
use rmr_core::mwmr::MwmrStarvationFree;
use rmr_core::raw::RawRwLock;
use rmr_core::registry::Pid;
use rmr_mutex::mem::{self, Counting};
use rmr_swap::{RetireBatched, RetireEager, RetirePolicy, Snapshot};
use std::sync::{Arc, Barrier};

const SEED: u64 = 0x5AB1;
const THREADS: usize = 4;

fn snapshot_row<P: RetirePolicy + Copy>(
    table: &mut Table,
    name: &str,
    policy: P,
    read_pct: f64,
    ops_per_thread: usize,
    reps: u32,
) {
    let workload = Workload { threads: THREADS, read_ratio: read_pct / 100.0, ops_per_thread };
    let make = || Arc::new(Snapshot::with_raw(0u64, MwmrStarvationFree::new(THREADS), policy));
    let res = summed_throughput(reps, |_| run_snapshot_read_mostly(make(), workload, SEED));
    table.row(vec![
        name.to_string(),
        format!("{read_pct}"),
        res.ops.to_string(),
        format!("{:.1}", res.ops_per_sec()),
    ]);
}

fn lock_row<L: RawRwLock + 'static>(
    table: &mut Table,
    name: &str,
    make: impl Fn() -> L,
    read_pct: f64,
    ops_per_thread: usize,
    reps: u32,
) {
    let workload = Workload { threads: THREADS, read_ratio: read_pct / 100.0, ops_per_thread };
    let res = summed_throughput(reps, |_| run_read_mostly(Arc::new(make()), workload, SEED));
    table.row(vec![
        name.to_string(),
        format!("{read_pct}"),
        res.ops.to_string(),
        format!("{:.1}", res.ops_per_sec()),
    ]);
}

/// Runs `readers` threads of steady-state pin/deref/unpin passages over a
/// fully `Counting`-instrumented snapshot (no writer active) and returns
/// the worst per-passage cache-coherent RMR count observed after one
/// warm-up passage per thread.
fn steady_state_cc_rmrs<P: RetirePolicy>(policy: P, readers: usize, passages: usize) -> u64 {
    let snap = Arc::new(Snapshot::with_raw_in(
        0u64,
        MwmrStarvationFree::new_in(readers, Counting),
        policy,
        readers,
        Counting,
    ));
    let barrier = Arc::new(Barrier::new(readers));
    let mut handles = Vec::new();
    for i in 0..readers {
        let snap = Arc::clone(&snap);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            mem::set_thread_slot(i);
            let pid = Pid::from_index(i);
            // Warm-up: the first passage faults the epoch, payload and
            // own-slot lines into this thread's cache; steady state is
            // everything after.
            drop(snap.load_with(pid));
            barrier.wait();
            let mut worst = 0u64;
            for _ in 0..passages {
                mem::reset_thread_tally();
                let guard = snap.load_with(pid);
                std::hint::black_box(*guard);
                drop(guard);
                worst = worst.max(mem::thread_tally().cc);
            }
            worst
        }));
    }
    handles.into_iter().map(|h| h.join().expect("steady-state thread panicked")).max().unwrap_or(0)
}

fn main() {
    let args = BenchArgs::parse(
        "swap_table",
        "E17: snapshot-tier read-mostly throughput + Counting proof of zero-RMR steady-state reads",
    );
    let (ops_per_thread, reps, passages) =
        if args.quick { (400, 2, 300) } else { (4_000, 3, 5_000) };

    let mut throughput = Table::new(&[
        ("tier", "tier"),
        ("read %", "read_pct"),
        ("ops", "ops"),
        ("ops/s", "ops_per_sec"),
    ]);
    for read_pct in [99.0f64, 99.9, 100.0] {
        snapshot_row(&mut throughput, "swap-eager", RetireEager, read_pct, ops_per_thread, reps);
        snapshot_row(
            &mut throughput,
            "swap-batched",
            RetireBatched { high_water: 8 },
            read_pct,
            ops_per_thread,
            reps,
        );
        lock_row(
            &mut throughput,
            "bravo-ticket-rw",
            || Bravo::new(TicketRwLock::new(THREADS)),
            read_pct,
            ops_per_thread,
            reps,
        );
        lock_row(
            &mut throughput,
            "std-rwlock",
            || StdRwLock::new(THREADS),
            read_pct,
            ops_per_thread,
            reps,
        );
    }

    let mut steady = Table::new(&[
        ("policy", "policy"),
        ("readers", "readers"),
        ("passages/thread", "passages"),
        ("max CC RMRs/passage", "max_cc_rmrs"),
        ("result", "result"),
    ]);
    let mut violations = 0u64;
    {
        let worst = steady_state_cc_rmrs(RetireEager, THREADS, passages);
        violations += worst;
        steady.row(vec![
            "eager".into(),
            THREADS.to_string(),
            passages.to_string(),
            worst.to_string(),
            if worst == 0 { "ok (zero-RMR read)".into() } else { "FAIL".into() },
        ]);
    }
    {
        let worst = steady_state_cc_rmrs(RetireBatched { high_water: 8 }, THREADS, passages);
        violations += worst;
        steady.row(vec![
            "batched".into(),
            THREADS.to_string(),
            passages.to_string(),
            worst.to_string(),
            if worst == 0 { "ok (zero-RMR read)".into() } else { "FAIL".into() },
        ]);
    }

    if args.json {
        print!(
            "{{\n\"throughput\": {},\n\"steady_state\": {}\n}}\n",
            throughput.json().trim_end(),
            steady.json().trim_end()
        );
    } else {
        println!("Snapshot-tier read-mostly throughput (thread 0 is the only writer; {THREADS} threads):\n");
        print!("{}", throughput.markdown());
        println!("\nSteady-state read cost — cache-coherent RMRs per pin/deref/unpin passage (Counting):\n");
        print!("{}", steady.markdown());
    }

    if violations != 0 {
        eprintln!("steady-state snapshot read performed remote memory references ({violations} CC RMRs) — see table");
        std::process::exit(1);
    }
}
