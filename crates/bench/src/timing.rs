//! The uncontended-passage estimator shared by the latency tables (E18
//! `uncontended_table`, E19 `obs_table`) and the `bench_summary`
//! trajectory blob.

use rmr_core::raw::RawRwLock;
use rmr_core::registry::Pid;
use std::time::Instant;

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
