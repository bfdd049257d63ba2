//! The typed front end records through exactly one seam: a lock built
//! with `RwLock::with_recorder` and a lock whose raw lock is an
//! explicit `Observed<L, R>` must report the same passage script
//! identically, event for event and sample for sample.

use rmrw::baselines::StdRwLock;
use rmrw::core::raw::{RawMultiWriter, RawTryRwLock};
use rmrw::core::{Observed, RwLock};
use rmrw::obs::{Event, Metric, Recorder, StatsRecorder};
use std::sync::Arc;

const CAPACITY: usize = 4;

/// Every typed passage kind once: leased and handle blocking read/write,
/// then `try_read`/`try_write` succeeding and failing on both the leased
/// and the `LockHandle` path. The failing attempts run on this thread
/// against a guard it holds itself; the leased ones take a transient pid.
fn script<L: RawTryRwLock + RawMultiWriter, R: Recorder>(lock: &RwLock<u64, L, R>) {
    *lock.write() += 1;
    assert_eq!(*lock.read(), 1);
    let mut h = lock.register().expect("capacity");
    *h.write() += 1;
    assert_eq!(*h.read(), 2);

    drop(lock.try_read().expect("uncontended"));
    drop(lock.try_write().expect("uncontended"));
    drop(h.try_read().expect("uncontended"));
    drop(h.try_write().expect("uncontended"));

    let w = lock.write();
    assert!(lock.try_read().is_none(), "leased try_read under a held write");
    assert!(h.try_read().is_none(), "handle try_read under a held write");
    drop(w);
    let r = lock.read();
    assert!(lock.try_write().is_none(), "leased try_write under a held read");
    assert!(h.try_write().is_none(), "handle try_write under a held read");
    drop(r);
}

#[test]
fn typed_recorder_matches_observed_raw() {
    let a = Arc::new(StatsRecorder::new(CAPACITY));
    let b = Arc::new(StatsRecorder::new(CAPACITY));
    let typed = RwLock::with_raw(0u64, StdRwLock::new(CAPACITY)).with_recorder(Arc::clone(&a));
    let composed = RwLock::with_raw(0u64, Observed::new(StdRwLock::new(CAPACITY), Arc::clone(&b)));
    script(&typed);
    script(&composed);

    for ev in Event::ALL {
        assert_eq!(a.counter(ev), b.counter(ev), "{} total", ev.name());
        for pid in 0..CAPACITY {
            assert_eq!(a.counter_for(pid, ev), b.counter_for(pid, ev), "{} pid {pid}", ev.name());
        }
    }
    for m in Metric::ALL {
        assert_eq!(a.samples(m), b.samples(m), "{} samples", m.name());
    }

    // The script really exercises every guard-tier event, so the equality
    // above cannot hold vacuously.
    for (ev, n) in [
        (Event::WriteAcquire, 3),
        (Event::WriteRelease, 5),
        (Event::ReadAcquire, 3),
        (Event::ReadRelease, 5),
        (Event::TryReadOk, 2),
        (Event::TryReadFail, 2),
        (Event::TryWriteOk, 2),
        (Event::TryWriteFail, 2),
    ] {
        assert_eq!(a.counter(ev), n, "{}", ev.name());
    }
    assert!(a.samples(Metric::ReadAcquireNs) + a.samples(Metric::WriteAcquireNs) > 0);
}
