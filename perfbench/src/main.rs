//! `rmr-perfbench`: the repository benchmark.
//!
//! ```text
//! rmr-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of one workload;
//! with `--trace 1` the per-layer metrics from a traced run of the same
//! workload and seed. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `README.md` next to this crate for the workloads and metrics.

mod bank;
mod catalog;
mod gen;
mod harness;
mod probe;
#[cfg(test)]
mod tests;

use harness::{Outcome, Phase, Plan, Service};
use probe::{Layer, Span};
use rmr_core::mwmr::MwmrStarvationFree;
use rmr_core::swmr::SwmrWriterPriority;
use rmr_mutex::{Counting, Native};
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Duration;

const WORKERS: usize = 2;
/// Requests per worker stream; timed phases cycle through it.
const STREAM_LEN: usize = 1 << 20;
/// Setups per run; each runs its share of the timed phases, and every
/// end-to-end metric but `rmr_cc_per_op` is the [`midmean`] over them.
const SETUPS: usize = 10;
/// A setup in which no request completes for this long has stalled.
const STALL: Duration = Duration::from_secs(3);
/// Length of the empty-request harness probe.
const HARNESS_PROBE_S: f64 = 0.5;
/// The harness's fixed cost per request may be at most this share of
/// the fastest workload's mean request time.
const HARNESS_LIMIT: f64 = 0.05;
/// Spans written to `--trace-out` per worker and setup.
const TRACE_EXPORT_SPANS: usize = 2_000;

const WORKLOADS: [&str; 4] = ["bank-sync", "catalog-read-mostly", "catalog-observed", "bank-async"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, 1, 10.0_f64, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed, seconds, trace, trace_out })
}

/// Sampling and sizing of one workload.
struct Spec {
    warm: usize,
    read_stride: u64,
    trace_read_stride: u64,
    trace_write_stride: u64,
    counted: usize,
}

const BANK: Spec = Spec {
    warm: 50_000,
    read_stride: 16,
    trace_read_stride: 64,
    trace_write_stride: 64,
    counted: 400_000,
};
const CATALOG: Spec = Spec {
    warm: 100_000,
    read_stride: 128,
    trace_read_stride: 1024,
    trace_write_stride: 1,
    counted: 3_000_000,
};

fn plan(spec: &Spec, setups: usize, phases: Vec<Phase>) -> Plan {
    // Sample buffers are preallocated and zeroed; counted phases take no
    // samples.
    let samples = if phases.iter().any(|p| matches!(p, Phase::Timed { .. })) { 1 << 20 } else { 0 };
    Plan {
        workers: WORKERS,
        setups,
        warm: spec.warm,
        phases,
        read_stride: spec.read_stride,
        trace_read_stride: spec.trace_read_stride,
        trace_write_stride: spec.trace_write_stride,
        span_capacity: 1 << 20,
        read_samples: samples,
        write_samples: 4 * samples,
        stall: STALL,
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("rmr-perfbench: {e}");
        std::process::exit(2);
    });
    let bank_streams = || {
        Arc::new((0..WORKERS).map(|w| bank::stream(args.seed, w, STREAM_LEN, bank::MIX)).collect())
    };
    let catalog_streams = || {
        Arc::new(
            (0..WORKERS).map(|w| catalog::stream(args.seed, w, STREAM_LEN, catalog::MIX)).collect(),
        )
    };
    match args.workload.as_str() {
        "bank-sync" => execute(
            &args,
            &BANK,
            &bank_streams(),
            || bank::BankSync::new(|| MwmrStarvationFree::new(bank::CAPACITY)),
            || bank::BankSync::new(|| MwmrStarvationFree::new_in(bank::CAPACITY, Counting)),
        ),
        "bank-async" => execute(
            &args,
            &BANK,
            &bank_streams(),
            || bank::BankAsync::<_, Native>::new(SwmrWriterPriority::new),
            || bank::BankAsync::<_, Counting>::new(|| SwmrWriterPriority::new_in(Counting)),
        ),
        "catalog-read-mostly" => {
            execute(&args, &CATALOG, &catalog_streams(), catalog::new_native, catalog::new_counting)
        }
        "catalog-observed" => execute(
            &args,
            &CATALOG,
            &catalog_streams(),
            catalog::new_observed,
            catalog::new_counting,
        ),
        _ => unreachable!("validated in parse_args"),
    }
}

/// Runs one workload: the timed stack, then the `Counting` pass over the
/// same streams, then (traced runs only) the empty-request probe.
fn execute<S, C>(
    args: &Args,
    spec: &Spec,
    streams: &Arc<Vec<Vec<S::Req>>>,
    build: impl Fn() -> S,
    counting: impl Fn() -> C,
) -> !
where
    S: Service,
    C: Service<Req = S::Req>,
{
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {} stream digest {:016x}; {WORKERS} workers on {cores} cores",
        args.workload,
        args.seed,
        gen::digest(streams.as_slice())
    );
    // Every setup runs its share of the timed phases on a fresh stack
    // with fresh workers, so a run samples several memory and thread
    // placements instead of one.
    let share = args.seconds / SETUPS as f64;
    let phases = if args.trace {
        vec![
            Phase::Timed { secs: share / 2.0, traced: false },
            Phase::Timed { secs: share / 2.0, traced: true },
        ]
    } else {
        vec![Phase::Timed { secs: share, traced: false }]
    };
    let main = harness::run(build, streams, &plan(spec, SETUPS, phases));
    let counted_plan = plan(spec, SETUPS, vec![Phase::Counted { requests: spec.counted / SETUPS }]);
    let rmr = harness::run(counting, streams, &counted_plan);
    let overhead = args.trace.then(|| {
        let probe_plan = plan(spec, 1, vec![Phase::Timed { secs: HARNESS_PROBE_S, traced: false }]);
        let empty = harness::run(|| Empty::<S>(PhantomData), streams, &probe_plan);
        WORKERS as f64 * 1e9 / midmean(&empty.rates[0])
    });
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, probe::chrome_trace(&main.spans, TRACE_EXPORT_SPANS)) {
            eprintln!("rmr-perfbench: cannot write {path}: {e}");
        }
    }
    emit(args, &main, &rmr, overhead)
}

/// The harness loop with nothing behind it: the same streams, sampling
/// and bookkeeping, and an empty request.
struct Empty<S>(PhantomData<fn() -> S>);

impl<S: Service> Service for Empty<S> {
    type Req = S::Req;
    type Worker = ();
    const MAX_SPANS: usize = 1;

    fn worker(&self, _id: usize) {}

    fn is_write(req: &S::Req) -> bool {
        S::is_write(req)
    }

    fn serve<P: probe::Probe>(&self, _w: &mut (), req: &S::Req, _p: &mut P) -> bool {
        std::hint::black_box(req);
        true
    }

    fn check_final(&self) -> bool {
        true
    }
}

/// The percentile `q` of sorted integer samples, interpolated within its
/// bin of width 1 as for grouped data: a sample of `v` stands for the
/// interval `[v - 0.5, v + 0.5)`. Service times pile up on a few tick
/// values, and the plain order statistic would read the same mode on
/// every run. 0 when there are no samples.
fn quantile<T: Copy + Into<u64>>(sorted: &[T], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = q * n as f64;
    let v = sorted[(rank as usize).min(n - 1)].into();
    let below = sorted.partition_point(|&s| s.into() < v);
    let upto = sorted.partition_point(|&s| s.into() <= v);
    v as f64 - 0.5 + (rank - below as f64) / (upto - below) as f64
}

fn p50<T: Copy + Into<u64>>(sorted: &[T]) -> f64 {
    quantile(sorted, 0.50)
}

fn p99<T: Copy + Into<u64>>(sorted: &[T]) -> f64 {
    quantile(sorted, 0.99)
}

/// Each setup's percentile `pct` of its sorted tick samples, in ns;
/// setups without samples are skipped.
fn per_setup(setups: &[Vec<u32>], pct: fn(&[u32]) -> f64, ns_per_tick: f64) -> Vec<f64> {
    setups.iter().filter(|s| !s.is_empty()).map(|s| pct(s) * ns_per_tick).collect()
}

/// The interquartile mean of `values`: the mean of what is left after
/// the lowest and the highest quarter (rounded down) are dropped. Over
/// setups it is as robust as the median to one odd setup, such as one
/// that stalled, and steadier when setups fall into two modes, as memory
/// placements do. 0 when empty.
fn midmean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    if mid.is_empty() {
        0.0
    } else {
        mid.iter().sum::<f64>() / mid.len() as f64
    }
}

/// Layers whose call durations are reported as p50 and, unless in
/// [`P50_ONLY`], p99.
const TIMED_LAYERS: &[Layer] = &[
    Layer::CoreRead,
    Layer::CoreWrite,
    Layer::CoreRelease,
    Layer::CoreAudit,
    Layer::BravoRead,
    Layer::BravoWrite,
    Layer::BravoRelease,
    Layer::SwapLoad,
    Layer::SwapRelease,
    Layer::SwapUpdate,
    Layer::AsyncRead,
    Layer::AsyncWrite,
    Layer::AsyncRelease,
    Layer::AsyncAudit,
];
/// Layers reported by p50 alone.
const P50_ONLY: &[Layer] = &[
    Layer::CoreRelease,
    Layer::BravoRelease,
    Layer::SwapRelease,
    Layer::AsyncRelease,
    Layer::AsyncAudit,
];
/// Layers whose self time is reported.
const SELF_LAYERS: &[Layer] = &[Layer::Request, Layer::CoreAudit, Layer::AsyncAudit];
/// Layers whose CC RMRs per call the `Counting` pass reports.
const RMR_LAYERS: &[Layer] = &[
    Layer::CoreRead,
    Layer::CoreWrite,
    Layer::BravoRead,
    Layer::BravoWrite,
    Layer::SwapLoad,
    Layer::SwapUpdate,
    Layer::AsyncRead,
    Layer::AsyncWrite,
];

/// Durations (or self times) of every span of `layer`, sorted.
fn layer_times(spans: &[Vec<Span>], layer: Layer, self_time: bool) -> Vec<u64> {
    let mut v: Vec<u64> = spans
        .iter()
        .flatten()
        .filter(|s| s.layer == layer)
        .map(|s| if self_time { s.self_time() } else { s.dur() })
        .collect();
    v.sort_unstable();
    v
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Prints the result line and exits. `overhead` is the empty-request
/// probe of traced runs.
fn emit(args: &Args, main: &Outcome, rmr: &Outcome, overhead: Option<f64>) -> ! {
    for s in main.stalls.iter().chain(&rmr.stalls) {
        let (r, w) = s.parked.unwrap_or((0, 0));
        println!(
            "STALL during {}: no request completed for {:?}; {} unfinished request(s) counted as failed; \
             parked_readers={r} parked_writers={w}",
            s.during, STALL, s.unfinished
        );
    }
    let attempted = main.attempted + rmr.attempted;
    let failed = main.failed + rmr.failed;
    let unfinished: u64 = main.stalls.iter().chain(&rmr.stalls).map(|s| s.unfinished).sum();
    // Stalled requests are failures but not wrong answers.
    let oracle_ok = main.final_ok && rmr.final_ok && failed == unfinished;
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push((name.to_string(), if value.is_finite() { value } else { 0.0 }, unit));
    };
    if !args.trace {
        let ns = main.ns_per_tick;
        let series = [
            ("setup_s", main.setup_s.clone(), "s"),
            ("ops_per_s", main.rates[0].clone(), "1/s"),
            ("read_p50_ns", per_setup(&main.read_ticks, p50, ns), "ns"),
            ("read_p99_ns", per_setup(&main.read_ticks, p99, ns), "ns"),
            ("write_p50_ns", per_setup(&main.write_ticks, p50, ns), "ns"),
            ("write_p99_ns", per_setup(&main.write_ticks, p99, ns), "ns"),
        ];
        for (name, setups) in
            [("read_samples", &main.read_ticks), ("write_samples", &main.write_ticks)]
        {
            let counts: Vec<String> = setups.iter().map(|s| s.len().to_string()).collect();
            println!("per setup: {name} {}", counts.join(" "));
        }
        for (name, values, unit) in series {
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4e}")).collect();
            println!("per setup: {name} {}", shown.join(" "));
            put(name, midmean(&values), unit);
        }
        put("rmr_cc_per_op", rmr.rmr_per_op(), "rmr/op");
    } else {
        // Every layer's metrics are printed for every workload (but see
        // the async filter below); a layer the workload does not cross
        // reads 0.
        for &layer in TIMED_LAYERS {
            let t = layer_times(&main.spans, layer, false);
            put(&format!("{}.p50_ns", layer.name()), p50(&t), "ns");
            if !P50_ONLY.contains(&layer) {
                put(&format!("{}.p99_ns", layer.name()), p99(&t), "ns");
            }
        }
        for &layer in SELF_LAYERS {
            let t = layer_times(&main.spans, layer, true);
            put(&format!("{}.self.p50_ns", layer.name()), p50(&t), "ns");
        }
        for &layer in RMR_LAYERS {
            put(&format!("{}.rmr_cc", layer.name()), rmr.rmr.per_call(layer), "rmr/call");
        }
        put("bravo.revocations", main.diagnostic("bravo.revocations"), "count");
        put("swap.peak_retired", main.diagnostic("swap.peak_retired"), "count");
        put("async.pending_share", ratio(main.pending as f64, main.awaits as f64), "ratio");
        put("async.polls_per_await", ratio(main.polls as f64, main.awaits as f64), "polls/await");
        put("async.wakeups_per_op", main.diagnostic("async.wakeups_per_op"), "wakeups/op");
        put("obs.events_per_op", main.diagnostic("obs.events_per_op"), "events/op");
        put("obs.samples_per_op", main.diagnostic("obs.samples_per_op"), "samples/op");
        put("bravo.fast_read_share", main.diagnostic("bravo.fast_read_share"), "ratio");
        let harness_ns = overhead.unwrap_or(0.0);
        put("harness.overhead_ns", harness_ns, "ns");
        let plain = midmean(&main.rates[0]);
        let traced = midmean(&main.rates[1]);
        put("trace.overhead_ratio", ratio(plain, traced), "ratio");
        if plain > 0.0 && harness_ns > 0.0 {
            let mean_ns = WORKERS as f64 * 1e9 / plain;
            let share = harness_ns / mean_ns;
            println!(
                "harness loop {harness_ns:.2} ns per request = {:.2}% of this workload's mean request \
                 time {mean_ns:.1} ns ({} the {:.0}% limit)",
                100.0 * share,
                if share < HARNESS_LIMIT { "within" } else { "OVER" },
                100.0 * HARNESS_LIMIT
            );
        }
    }
    // The async layer is crossed only by `bank-async`, which is not in
    // BENCHMARK.json (README, "Known hang"); the other workloads print
    // exactly the metrics listed there.
    if args.workload != "bank-async" {
        metrics.retain(|(name, ..)| !name.starts_with("async."));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {oracle_ok}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    std::process::exit(0)
}
