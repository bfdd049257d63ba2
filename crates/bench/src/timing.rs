//! The estimators shared by the experiment binaries: the uncontended-
//! passage estimator of the latency tables (E18 `uncontended_table`, E19
//! `obs_table`) and the `bench_summary` trajectory blob, and the summed
//! throughput estimator of the tier sweeps (E15 `bravo_table`, E16
//! `async_table`, E17 `swap_table`).

use crate::workloads::WorkloadResult;
use rmr_core::raw::RawRwLock;
use rmr_core::registry::Pid;
use std::time::{Duration, Instant};

/// Total ops and total elapsed time over `reps` timed runs, after one
/// untimed warm-up run. `run(timed)` performs one run; `timed` is false
/// only for the warm-up, so a caller's per-run bookkeeping can skip it.
/// The throughput is the result's [`WorkloadResult::ops_per_sec`]: summed
/// ops over summed time.
pub fn summed_throughput(reps: u32, mut run: impl FnMut(bool) -> WorkloadResult) -> WorkloadResult {
    run(false);
    let mut total = WorkloadResult { ops: 0, elapsed: Duration::ZERO };
    for _ in 0..reps {
        let res = run(true);
        total.ops += res.ops;
        total.elapsed += res.elapsed;
    }
    total
}

/// Best-of-`reps` (minimum) nanoseconds per `passage`, after `iters / 10`
/// warm-up passages. An uncontended passage is deterministic work, so
/// the minimum is the cleanest estimate of its instruction cost — every
/// slower rep measured the host, not the lock. With `reps == 1` this is
/// the single timed rep.
pub fn time_passage(iters: u32, reps: u32, mut passage: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 {
        passage(); // warm-up
    }
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            passage();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / f64::from(iters));
    }
    best
}

/// `(read ns/op, write ns/op)` of one uncontended lock instance, each a
/// [`time_passage`] of a full acquire/release pair by pid 0.
pub fn passages<L: RawRwLock>(lock: &L, iters: u32, reps: u32) -> (f64, f64) {
    let pid = Pid::from_index(0);
    let read = time_passage(iters, reps, || {
        let t = lock.read_lock(pid);
        lock.read_unlock(pid, t);
    });
    let write = time_passage(iters, reps, || {
        let t = lock.write_lock(pid);
        lock.write_unlock(pid, t);
    });
    (read, write)
}
