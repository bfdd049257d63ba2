//! Native-backend behavior of `AsyncRwLock`: parking, wake-on-release,
//! cancel-safety, the Bravo zero-inner-op composition, and the blocking
//! writer endpoint. (Schedule-exhaustive coverage of the same protocol
//! lives in `rmr-check`'s async battery.)

use rmr_async::exec::block_on;
use rmr_async::AsyncRwLock;
use rmr_baselines::TicketRwLock;
use rmr_bravo::Bravo;
use rmr_core::mwmr::MwmrStarvationFree;
use rmr_mutex::mem::{self, Counting};
use std::future::Future;
use std::pin::pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Duration;

fn ticket_lock(value: u64) -> AsyncRwLock<u64, TicketRwLock> {
    AsyncRwLock::with_raw(value, TicketRwLock::new(8))
}

/// Polls `future` exactly once with a throwaway waker.
fn poll_once<F: Future>(future: Pin<&mut F>) -> Poll<F::Output> {
    let waker = rmr_async::exec::parker_waker(Arc::new(rmr_async::ThreadParker::current()));
    future.poll(&mut Context::from_waker(&waker))
}
use std::pin::Pin;

#[test]
fn uncontended_read_write_round_trip() {
    let lock = ticket_lock(0);
    block_on(async {
        *lock.write().await += 5;
        assert_eq!(*lock.read().await, 5);
    });
    assert!(lock.is_quiescent());
    assert_eq!(lock.wakeups(), 0, "uncontended passages must not scan or wake");
}

#[test]
fn concurrent_mixed_traffic_loses_no_updates() {
    let lock = Arc::new(ticket_lock(0));
    let mut threads = Vec::new();
    for _ in 0..4 {
        let lock = Arc::clone(&lock);
        threads.push(std::thread::spawn(move || {
            block_on(async {
                for i in 0..200u64 {
                    if i % 4 == 0 {
                        *lock.write().await += 1;
                    } else {
                        let _ = *lock.read().await;
                    }
                }
            })
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    block_on(async { assert_eq!(*lock.read().await, 200) });
    assert!(lock.is_quiescent());
}

#[test]
fn writer_exit_wakes_parked_reader() {
    let lock = Arc::new(ticket_lock(7));
    let wg = block_on(lock.write());
    let reader_done = Arc::new(AtomicBool::new(false));

    let l2 = Arc::clone(&lock);
    let done2 = Arc::clone(&reader_done);
    let reader = std::thread::spawn(move || {
        block_on(async {
            let g = l2.read().await;
            assert_eq!(*g, 7);
            done2.store(true, Ordering::SeqCst);
        })
    });

    // The reader must park, not spin: wait for the registration to land.
    let mut waited = 0;
    while lock.parked_readers() == 0 && waited < 2_000 {
        std::thread::sleep(Duration::from_millis(1));
        waited += 1;
    }
    assert_eq!(lock.parked_readers(), 1, "reader did not park behind the writer");
    assert!(!reader_done.load(Ordering::SeqCst));

    drop(wg); // wakes the parked reader
    reader.join().unwrap();
    assert!(reader_done.load(Ordering::SeqCst));
    assert!(lock.wakeups() >= 1, "the release path must have delivered the wake-up");
    assert!(lock.is_quiescent());
}

#[test]
fn last_reader_exit_wakes_parked_writer() {
    let lock = Arc::new(ticket_lock(0));
    let r1 = block_on(lock.read());
    let r2 = block_on(lock.read());

    let l2 = Arc::clone(&lock);
    let writer = std::thread::spawn(move || {
        block_on(async {
            *l2.write().await += 1;
        })
    });
    let mut waited = 0;
    while lock.parked_writers() == 0 && waited < 2_000 {
        std::thread::sleep(Duration::from_millis(1));
        waited += 1;
    }
    assert_eq!(lock.parked_writers(), 1, "writer did not park behind the readers");

    drop(r1); // not the last reader: no wake needed
    drop(r2); // last reader out: wakes the writer
    writer.join().unwrap();
    assert!(lock.is_quiescent());
    block_on(async { assert_eq!(*lock.read().await, 1) });
}

#[test]
fn dropped_pending_future_unwinds_completely() {
    let lock = ticket_lock(0);
    let wg = block_on(lock.write());
    {
        let mut fut = pin!(lock.read());
        assert!(poll_once(fut.as_mut()).is_pending());
        assert_eq!(lock.parked_readers(), 1);
        assert_eq!(lock.registered(), 2, "writer guard + pending reader");
        // `fut` dropped here, mid-acquisition.
    }
    assert_eq!(lock.parked_readers(), 0, "cancelled future left its waker slot pinned");
    assert_eq!(lock.registered(), 1, "cancelled future left its pid pinned");
    drop(wg);
    assert!(lock.is_quiescent());
}

#[test]
fn dropped_unpolled_future_is_free() {
    let lock = ticket_lock(0);
    drop(lock.read());
    drop(lock.write());
    assert!(lock.is_quiescent());
}

#[test]
fn try_tier_is_bounded() {
    let lock = ticket_lock(3);
    let g = lock.try_read().expect("uncontended try_read");
    assert_eq!(*g, 3);
    drop(g);
    let w = lock.try_write().expect("uncontended try_write");
    drop(w);
    let r = block_on(lock.read());
    assert!(lock.try_write().is_none(), "try_write must fail under a read session, not wait");
    drop(r);
    assert!(lock.is_quiescent());
}

#[test]
#[allow(deprecated)]
fn write_blocking_serves_locks_without_a_try_tier() {
    // Fig. 3 has no doorway (`RawParkedWaiters`), so `write().await` does
    // not compile on it — the deprecated `write_blocking` remains the
    // writer endpoint there, and its release must wake parked async
    // readers.
    let lock = Arc::new(AsyncRwLock::with_raw(0u64, MwmrStarvationFree::new(8)));
    let wg = lock.write_blocking();
    let l2 = Arc::clone(&lock);
    let reader = std::thread::spawn(move || block_on(async { *l2.read().await }));
    let mut waited = 0;
    while lock.parked_readers() == 0 && waited < 2_000 {
        std::thread::sleep(Duration::from_millis(1));
        waited += 1;
    }
    assert_eq!(lock.parked_readers(), 1);
    drop(wg);
    assert_eq!(reader.join().unwrap(), 0);
    assert!(lock.is_quiescent());
}

#[test]
fn bravo_fast_path_readers_stay_zero_inner_op() {
    // Inner lock over `Counting`, everything else `Native`: the thread
    // tally then counts only inner-lock operations, and a biased async
    // read passage must score zero — parking adds nothing to the inner
    // lock's traffic.
    let lock: AsyncRwLock<u64, Bravo<TicketRwLock<Counting>>> =
        AsyncRwLock::with_raw_and_capacity(0, Bravo::new(TicketRwLock::new_in(8, Counting)), 8);
    mem::set_thread_slot(1);
    block_on(async {
        let _ = *lock.read().await; // warm-up
    });
    mem::reset_thread_tally();
    block_on(async {
        for _ in 0..50 {
            let _ = *lock.read().await;
        }
    });
    let tally = mem::thread_tally();
    assert_eq!(tally.ops, 0, "biased async read passages touched the inner lock: {tally:?}");
    assert!(lock.is_quiescent());
}

#[test]
fn bravo_wrapped_async_write_revokes_and_recovers() {
    let lock =
        Arc::new(AsyncRwLock::with_raw_and_capacity(0u64, Bravo::new(TicketRwLock::new(8)), 8));
    let mut threads = Vec::new();
    for _ in 0..4 {
        let lock = Arc::clone(&lock);
        threads.push(std::thread::spawn(move || {
            block_on(async {
                for i in 0..100u64 {
                    if i % 10 == 0 {
                        *lock.write().await += 1;
                    } else {
                        let _ = *lock.read().await;
                    }
                }
            })
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    block_on(async { assert_eq!(*lock.read().await, 40) });
    assert!(lock.is_quiescent());
    assert!(lock.raw().is_quiescent(), "visible-readers table must drain");
}

#[test]
#[should_panic(expected = "polled after completion")]
fn polling_a_completed_future_panics() {
    let lock = ticket_lock(0);
    let mut fut = pin!(lock.read());
    let Poll::Ready(guard) = poll_once(fut.as_mut()) else {
        panic!("uncontended read must be ready");
    };
    drop(guard);
    let _ = poll_once(fut.as_mut());
}

#[test]
#[should_panic(expected = "cannot lease a pid")]
fn capacity_exhaustion_panics_with_guidance() {
    let lock = AsyncRwLock::with_raw_and_capacity(0u8, TicketRwLock::new(8), 1);
    let _g = block_on(lock.read());
    let _ = block_on(lock.read()); // second concurrent acquisition: no pid left
}

#[test]
fn guards_are_send() {
    // The async guards own their pid outright, so they may cross threads
    // (unlike the sync guards, whose pids are thread-leased). Compile-time
    // probe: these calls only resolve if the types are Send.
    fn assert_send<T: Send>(_: &T) {}
    let lock = ticket_lock(0);
    let g = block_on(lock.read());
    assert_send(&g);
    drop(g);
    let g = block_on(lock.write());
    assert_send(&g);
}

#[test]
fn recorder_sees_parks_wakes_grants_and_cancels() {
    use rmr_obs::{Event, Metric, StatsRecorder};
    let rec = Arc::new(StatsRecorder::new(8));
    let lock =
        Arc::new(AsyncRwLock::with_raw(0u64, TicketRwLock::new(8)).with_recorder(Arc::clone(&rec)));

    // Uncontended passages: acquire/release counts and latency samples,
    // no parks, no wakes.
    block_on(async {
        *lock.write().await += 1;
        assert_eq!(*lock.read().await, 1);
    });
    assert_eq!(rec.counter(Event::WriteAcquire), 1);
    assert_eq!(rec.counter(Event::WriteRelease), 1);
    assert_eq!(rec.counter(Event::ReadAcquire), 1);
    assert_eq!(rec.counter(Event::ReadRelease), 1);
    assert_eq!(rec.samples(Metric::WriteAcquireNs), 1);
    assert_eq!(rec.counter(Event::AsyncPark), 0);
    assert_eq!(rec.counter(Event::AsyncWake), 0);

    // A reader parked behind a held writer: park, then wake + grant with
    // a wake-to-grant latency sample.
    let wg = block_on(lock.write());
    let l2 = Arc::clone(&lock);
    let reader = std::thread::spawn(move || block_on(async { *l2.read().await }));
    let mut waited = 0;
    while lock.parked_readers() == 0 && waited < 2_000 {
        std::thread::sleep(Duration::from_millis(1));
        waited += 1;
    }
    assert_eq!(lock.parked_readers(), 1);
    assert!(rec.counter(Event::AsyncPark) >= 1, "the parked reader must be counted");
    drop(wg);
    assert_eq!(reader.join().unwrap(), 1);
    assert!(rec.counter(Event::AsyncWake) >= 1, "the write release woke the reader");
    assert_eq!(rec.samples(Metric::WakeToGrantNs), 1, "one parked grant, one latency sample");

    // A cancelled pending future is an AsyncCancel, not an acquire.
    let wg = block_on(lock.write());
    {
        let mut fut = pin!(lock.read());
        assert!(poll_once(fut.as_mut()).is_pending());
    }
    drop(wg);
    assert_eq!(rec.counter(Event::AsyncCancel), 1);
    assert!(lock.is_quiescent());
}

#[test]
fn parked_passage_records_wake_to_grant_even_when_untimed() {
    use rmr_obs::{Event, Metric, Recorder, StatsRecorder};
    let rec = Arc::new(StatsRecorder::new(8));
    let lock = AsyncRwLock::with_raw(0u64, TicketRwLock::new(8)).with_recorder(Arc::clone(&rec));
    // Spend every pid's first (timed) passage, so the passages below are
    // all untimed by the sampler.
    for pid in 0..8 {
        assert!(rec.sample(pid));
    }
    let wg = block_on(lock.write());
    let mut fut = pin!(lock.read());
    assert!(poll_once(fut.as_mut()).is_pending(), "the reader parks behind the writer");
    drop(wg);
    let Poll::Ready(guard) = poll_once(fut.as_mut()) else { panic!("the release woke the reader") };
    drop(guard);
    assert_eq!(rec.counter(Event::WriteAcquire), 1);
    assert_eq!(rec.counter(Event::ReadAcquire), 1);
    assert_eq!(rec.samples(Metric::WriteAcquireNs), 0, "untimed passage");
    assert_eq!(rec.samples(Metric::ReadAcquireNs), 0, "untimed passage");
    assert_eq!(rec.samples(Metric::WakeToGrantNs), 1, "a park always records its grant");
    assert!(lock.is_quiescent());
}

#[test]
fn debug_formats() {
    let lock = ticket_lock(9);
    assert!(format!("{lock:?}").contains("AsyncRwLock"));
    let fut = lock.read();
    assert!(format!("{fut:?}").contains("AsyncRead"));
    drop(fut);
    block_on(async {
        let g = lock.read().await;
        assert_eq!(format!("{g:?}"), "AsyncReadGuard(9)");
        drop(g);
        let g = lock.write().await;
        assert_eq!(format!("{g:?}"), "AsyncWriteGuard(9)");
    });
}
