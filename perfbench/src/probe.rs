//! Call-boundary probes. Every request handler brackets each call into a
//! layer's public API with `enter`/`exit` on a [`Probe`]:
//!
//! * [`Off`] compiles to nothing — the untimed request path;
//! * [`Tracer`] records a span per call (name, start, end, parent, request
//!   id), from which per-layer durations and self times are derived;
//! * [`RmrProbe`] charges the `Counting` backend's CC tally delta of each
//!   call to its layer.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Instant;

macro_rules! layers {
    ($($variant:ident => $name:literal,)*) => {
        /// A timed call boundary.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Layer {
            $($variant,)*
        }

        impl Layer {
            pub const ALL: &'static [Layer] = &[$(Layer::$variant,)*];

            pub fn name(self) -> &'static str {
                match self {
                    $(Layer::$variant => $name,)*
                }
            }
        }
    };
}

layers! {
    Request => "request",
    CoreRead => "core.read",
    CoreWrite => "core.write",
    CoreRelease => "core.release",
    CoreAudit => "core.audit",
    BravoRead => "bravo.read",
    BravoWrite => "bravo.write",
    BravoRelease => "bravo.release",
    SwapLoad => "swap.load",
    SwapRelease => "swap.release",
    SwapUpdate => "swap.update",
    AsyncRead => "async.read",
    AsyncWrite => "async.write",
    AsyncRelease => "async.release",
    AsyncAudit => "async.audit",
}

pub const LAYERS: usize = Layer::ALL.len();

pub trait Probe {
    /// Whether the probe observes anything; `false` lets handlers skip
    /// probe-only work such as poll counting.
    const ON: bool;

    /// Opens a span for a call into `layer`; pass the mark to `exit`.
    fn enter(&mut self, layer: Layer) -> u32;

    fn exit(&mut self, mark: u32);

    /// One awaited acquisition future finished after `polls` polls.
    fn awaited(&mut self, _polls: u32) {}
}

/// The untraced request path.
pub struct Off;

impl Probe for Off {
    const ON: bool = false;

    #[inline(always)]
    fn enter(&mut self, _layer: Layer) -> u32 {
        0
    }

    #[inline(always)]
    fn exit(&mut self, _mark: u32) {}
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub req: u32,
    pub parent: u32,
    pub start: u64,
    pub end: u64,
    /// Total duration of the direct children.
    pub child: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }

    pub fn self_time(&self) -> u64 {
        self.dur().saturating_sub(self.child)
    }
}

/// Span recorder of one worker. Spans live in a preallocated vector;
/// once it is full the harness stops tracing new requests, so recording
/// never reallocates inside a timed phase.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<u32>,
    pub req: u32,
    pub awaits: u64,
    pub polls: u64,
    pub pending: u64,
}

impl Tracer {
    pub fn new(epoch: Instant, capacity: usize) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(32),
            req: 0,
            awaits: 0,
            polls: 0,
            pending: 0,
        }
    }

    /// Whether a request of up to `spans` spans still fits.
    pub fn has_room(&self, spans: usize) -> bool {
        self.spans.len() + spans <= self.spans.capacity()
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Probe for Tracer {
    const ON: bool = true;

    fn enter(&mut self, layer: Layer) -> u32 {
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span { layer, req: self.req, parent, start, end: start, child: 0 });
        self.open.push(idx);
        idx
    }

    fn exit(&mut self, mark: u32) {
        let end = self.now();
        let span = &mut self.spans[mark as usize];
        span.end = end;
        let (dur, parent) = (span.dur(), span.parent);
        self.open.pop();
        if parent != NO_PARENT {
            self.spans[parent as usize].child += dur;
        }
    }

    fn awaited(&mut self, polls: u32) {
        self.awaits += 1;
        self.polls += u64::from(polls);
        // The future is ready at its last poll, so more than one poll
        // means the first returned `Pending`.
        self.pending += u64::from(polls > 1);
    }
}

/// Per-layer CC RMR tallies of the `Counting` pass.
#[derive(Clone, Debug)]
pub struct RmrProbe {
    open: Vec<(Layer, u64)>,
    pub cc: [u64; LAYERS],
    pub calls: [u64; LAYERS],
}

impl Default for RmrProbe {
    fn default() -> Self {
        Self { open: Vec::with_capacity(32), cc: [0; LAYERS], calls: [0; LAYERS] }
    }
}

impl RmrProbe {
    pub fn merge(&mut self, other: &RmrProbe) {
        for i in 0..LAYERS {
            self.cc[i] += other.cc[i];
            self.calls[i] += other.calls[i];
        }
    }

    /// Mean CC RMRs per call into `layer` (0 when never called).
    pub fn per_call(&self, layer: Layer) -> f64 {
        let i = layer as usize;
        if self.calls[i] == 0 {
            0.0
        } else {
            self.cc[i] as f64 / self.calls[i] as f64
        }
    }
}

impl Probe for RmrProbe {
    const ON: bool = true;

    fn enter(&mut self, layer: Layer) -> u32 {
        self.open.push((layer, rmr_mutex::mem::thread_tally().cc));
        self.open.len() as u32 - 1
    }

    fn exit(&mut self, _mark: u32) {
        let (layer, cc0) = self.open.pop().expect("unbalanced probe exit");
        self.cc[layer as usize] += rmr_mutex::mem::thread_tally().cc - cc0;
        self.calls[layer as usize] += 1;
    }
}

/// Counts the polls of an acquisition future.
struct Polled<'a, F> {
    fut: F,
    polls: &'a mut u32,
}

impl<'a, F> Polled<'a, F> {
    fn new(fut: F, polls: &'a mut u32) -> Self {
        Self { fut, polls }
    }
}

impl<F: Future + Unpin> Future for Polled<'_, F> {
    type Output = F::Output;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        *self.polls += 1;
        Pin::new(&mut self.fut).poll(cx)
    }
}

/// Awaits `fut`, reporting its poll count to the probe when it observes.
pub async fn await_counted<P: Probe, F: Future + Unpin>(p: &mut P, fut: F) -> F::Output {
    if P::ON {
        let mut polls = 0;
        let out = Polled::new(fut, &mut polls).await;
        p.awaited(polls);
        out
    } else {
        fut.await
    }
}

/// Renders spans as Chrome `trace_event` JSON ("X" complete events, one
/// thread row per worker), writing at most `limit` spans per worker.
pub fn chrome_trace(workers: &[Vec<Span>], limit: usize) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (tid, spans) in workers.iter().enumerate() {
        for s in spans.iter().take(limit) {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                format!("\"{}\"", spans[s.parent as usize].layer.name())
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"req\":{},\"parent\":{},\"self_ns\":{}}}}}",
                s.layer.name(),
                s.start / 1000,
                s.start % 1000,
                s.dur() / 1000,
                s.dur() % 1000,
                tid,
                s.req,
                parent,
                s.self_time()
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now(), 16);
        let outer = t.enter(Layer::Request);
        let inner = t.enter(Layer::CoreRead);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let (o, i) = (t.spans[0], t.spans[1]);
        assert_eq!(i.parent, 0);
        assert_eq!(o.child, i.dur());
        assert_eq!(o.self_time(), o.dur() - i.dur());
        assert!(i.dur() >= 2_000_000);
        let json = chrome_trace(&[t.spans.clone()], 10);
        assert!(json.contains("\"name\":\"core.read\",\"ph\":\"X\""));
        assert!(json.contains("\"parent\":\"request\""));
    }

    #[test]
    fn polled_counts_a_pending_first_poll() {
        struct Twice(bool);
        impl Future for Twice {
            type Output = ();
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.0 {
                    Poll::Ready(())
                } else {
                    self.0 = true;
                    cx.waker().wake_by_ref();
                    Poll::Pending
                }
            }
        }
        let mut t = Tracer::new(Instant::now(), 4);
        rmr_async::block_on(async {
            await_counted(&mut t, Twice(false)).await;
            await_counted(&mut t, Twice(true)).await;
        });
        assert_eq!((t.awaits, t.polls, t.pending), (2, 3, 1));
    }
}
