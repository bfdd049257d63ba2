//! E15 — the Bravo read-mostly sweep: BRAVO-wrapped vs. bare locks, plus
//! the Counting-backend proof that the biased fast path never touches the
//! inner lock.
//!
//! Two sections:
//!
//! * **Throughput** (`rmr_bench::workloads::run_read_mostly`): 95/99/100%
//!   read mixes over fig1 (single-writer, writer priority), the ticket-RW
//!   baseline and `std::sync::RwLock`, each bare and wrapped in
//!   [`Bravo`]. Only thread 0 ever writes (that is what makes the same
//!   driver legal for the SWMR lock); `read_pct` is that thread's read
//!   share, the remaining threads read unconditionally.
//! * **Biased steady state** (the subsystem's acceptance criterion): the
//!   inner lock is instantiated over the `Counting` backend while the
//!   wrapper stays on `Native`, so the per-thread tally counts *only*
//!   inner-lock operations. Reader threads then hammer read passages in
//!   the biased steady state; the maximum tally over every passage of
//!   every thread must be **zero shared operations** (hence zero shared
//!   stores) on the inner lock. A nonzero count fails the binary.
//!
//! ```text
//! cargo run --release -p rmr-bench --bin bravo_table -- [--quick] [--json]
//! ```
//!
//! With `--json` the two sections are emitted as one object:
//! `{"throughput": [...], "steady_state": [...]}`.

use rmr_baselines::{StdRwLock, TicketRwLock};
use rmr_bench::cli::{BenchArgs, Table};
use rmr_bench::timing::summed_throughput;
use rmr_bench::workloads::{run_read_mostly, Workload};
use rmr_bravo::{Bravo, BravoConfig};
use rmr_core::raw::RawRwLock;
use rmr_core::registry::Pid;
use rmr_core::swmr::SwmrWriterPriority;
use rmr_mutex::mem::{self, Counting, Native};
use std::sync::{Arc, Barrier};

const SEED: u64 = 0xB2A0;
const THREADS: usize = 4;

fn throughput_row<L: RawRwLock + 'static>(
    table: &mut Table,
    name: &str,
    wrapped: bool,
    make: impl Fn() -> L,
    read_pct: u32,
    ops_per_thread: usize,
    reps: u32,
) {
    let workload =
        Workload { threads: THREADS, read_ratio: f64::from(read_pct) / 100.0, ops_per_thread };
    let res = summed_throughput(reps, |_| run_read_mostly(Arc::new(make()), workload, SEED));
    table.row(vec![
        name.to_string(),
        if wrapped { "bravo" } else { "bare" }.to_string(),
        read_pct.to_string(),
        res.ops.to_string(),
        format!("{:.1}", res.ops_per_sec()),
    ]);
}

/// Picks a table size for which `readers` distinct pids occupy distinct
/// slots, so every measured passage is guaranteed the fast path.
fn injective_table_slots<L: RawRwLock>(
    make: impl Fn(BravoConfig) -> Bravo<L, Native>,
    readers: usize,
) -> usize {
    let mut slots = 64;
    loop {
        let probe = make(BravoConfig { table_slots: slots, ..BravoConfig::default() });
        let mut seen = std::collections::HashSet::new();
        if (0..readers).all(|i| seen.insert(probe.slot_index(Pid::from_index(i)))) {
            return slots;
        }
        slots *= 2;
        assert!(slots <= 1 << 16, "no injective table for {readers} pids");
    }
}

/// Runs `readers` threads over a Bravo wrapper whose inner lock counts
/// its shared operations; returns the worst per-passage inner-op count
/// observed in the biased steady state (after one warm-up passage each).
fn biased_steady_state_inner_ops<L: RawRwLock + Send + Sync + 'static>(
    make: impl Fn(BravoConfig) -> Bravo<L, Native>,
    readers: usize,
    passages: usize,
) -> u64 {
    let slots = injective_table_slots(&make, readers);
    let lock = Arc::new(make(BravoConfig { table_slots: slots, ..BravoConfig::default() }));
    let barrier = Arc::new(Barrier::new(readers));
    let mut handles = Vec::new();
    for i in 0..readers {
        let lock = Arc::clone(&lock);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            mem::set_thread_slot(i);
            let pid = Pid::from_index(i);
            // Warm-up: the first passage publishes the slot's cache line;
            // it is already fast, but keep the measurement strictly
            // steady-state.
            let t = lock.read_lock(pid);
            assert!(t.is_fast(), "pid {i} fell off the fast path despite an injective table");
            lock.read_unlock(pid, t);
            barrier.wait();
            let mut worst = 0u64;
            for _ in 0..passages {
                mem::reset_thread_tally();
                let t = lock.read_lock(pid);
                lock.read_unlock(pid, t);
                worst = worst.max(mem::thread_tally().ops);
            }
            worst
        }));
    }
    handles.into_iter().map(|h| h.join().expect("steady-state thread panicked")).max().unwrap_or(0)
}

fn main() {
    let args = BenchArgs::parse(
        "bravo_table",
        "E15: Bravo read-mostly throughput + Counting proof of the zero-inner-op fast path",
    );
    let (ops_per_thread, reps, passages) =
        if args.quick { (400, 2, 300) } else { (4_000, 3, 5_000) };

    let mut throughput = Table::new(&[
        ("lock", "lock"),
        ("path", "path"),
        ("read %", "read_pct"),
        ("ops", "ops"),
        ("ops/s", "ops_per_sec"),
    ]);
    for read_pct in [95u32, 99, 100] {
        throughput_row(
            &mut throughput,
            "fig1-swmr-wp",
            false,
            SwmrWriterPriority::new,
            read_pct,
            ops_per_thread,
            reps,
        );
        throughput_row(
            &mut throughput,
            "fig1-swmr-wp",
            true,
            || Bravo::new(SwmrWriterPriority::new()),
            read_pct,
            ops_per_thread,
            reps,
        );
        throughput_row(
            &mut throughput,
            "ticket-rw",
            false,
            || TicketRwLock::new(THREADS),
            read_pct,
            ops_per_thread,
            reps,
        );
        throughput_row(
            &mut throughput,
            "ticket-rw",
            true,
            || Bravo::new(TicketRwLock::new(THREADS)),
            read_pct,
            ops_per_thread,
            reps,
        );
        throughput_row(
            &mut throughput,
            "std-rwlock",
            false,
            || StdRwLock::new(THREADS),
            read_pct,
            ops_per_thread,
            reps,
        );
        throughput_row(
            &mut throughput,
            "std-rwlock",
            true,
            || Bravo::new(StdRwLock::new(THREADS)),
            read_pct,
            ops_per_thread,
            reps,
        );
    }

    let mut steady = Table::new(&[
        ("inner lock", "inner"),
        ("readers", "readers"),
        ("passages/thread", "passages"),
        ("max inner ops/passage", "max_inner_ops"),
        ("result", "result"),
    ]);
    let mut violations = 0u64;
    {
        let worst = biased_steady_state_inner_ops(
            |cfg| Bravo::new_in(SwmrWriterPriority::new_in(Counting), cfg, Native),
            THREADS,
            passages,
        );
        violations += worst;
        steady.row(vec![
            "fig1-swmr-wp".into(),
            THREADS.to_string(),
            passages.to_string(),
            worst.to_string(),
            if worst == 0 { "ok (zero shared stores)".into() } else { "FAIL".into() },
        ]);
    }
    {
        let worst = biased_steady_state_inner_ops(
            |cfg| Bravo::new_in(TicketRwLock::new_in(THREADS, Counting), cfg, Native),
            THREADS,
            passages,
        );
        violations += worst;
        steady.row(vec![
            "ticket-rw".into(),
            THREADS.to_string(),
            passages.to_string(),
            worst.to_string(),
            if worst == 0 { "ok (zero shared stores)".into() } else { "FAIL".into() },
        ]);
    }

    if args.json {
        print!(
            "{{\n\"throughput\": {},\n\"steady_state\": {}\n}}\n",
            throughput.json().trim_end(),
            steady.json().trim_end()
        );
    } else {
        println!("Read-mostly throughput (thread 0 is the only writer; {THREADS} threads):\n");
        print!("{}", throughput.markdown());
        println!("\nBiased steady state — inner-lock operations per read passage (Counting):\n");
        print!("{}", steady.markdown());
    }

    if violations != 0 {
        eprintln!("biased fast path touched the inner lock ({violations} ops) — see table");
        std::process::exit(1);
    }
}
