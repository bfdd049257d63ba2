//! E18 — what the per-site ordering relaxation buys: uncontended
//! read/write passage latency of the real locks under the relaxed
//! [`Native`] backend versus [`SeqCstNative`], the policy backend that
//! forces every operation to `SeqCst` (the pre-relaxation behavior of
//! the whole codebase).
//!
//! Same lock code, same monomorphized structure — the backend type
//! parameter is the only difference, so the ratio column isolates the
//! fence/ordering cost. On x86 the delta is mostly the `mfence`/locked
//! instructions SeqCst stores compile to; on weaker ISAs the relaxed
//! rows also shed acquire/release barriers the sweep proved unnecessary.
//!
//! ```text
//! cargo run --release -p rmr-bench --bin uncontended_table [-- --quick --json]
//! ```

use rmr_baselines::{DistributedFlagRwLock, TicketRwLock};
use rmr_bench::cli::{BenchArgs, Table};
use rmr_bench::timing::passages;
use rmr_bravo::{Bravo, BravoConfig};
use rmr_core::mwmr::{MwmrReaderPriority, MwmrStarvationFree, MwmrWriterPriority};
use rmr_core::swmr::{SwmrReaderPriority, SwmrWriterPriority};
use rmr_mutex::mem::{Backend, Native, SeqCstNative};

struct RowPair {
    lock: &'static str,
    op: &'static str,
    native_ns: f64,
    seqcst_ns: f64,
}

fn main() {
    let args = BenchArgs::parse(
        "uncontended_table",
        "E18: uncontended passage latency, relaxed Native vs the SeqCst-everywhere policy",
    );
    let (iters, reps) = if args.quick { (5_000u32, 3u32) } else { (200_000, 5) };

    let mut rows: Vec<RowPair> = Vec::new();
    let mut push = |lock: &'static str, native: (f64, f64), seqcst: (f64, f64)| {
        rows.push(RowPair { lock, op: "read", native_ns: native.0, seqcst_ns: seqcst.0 });
        rows.push(RowPair { lock, op: "write", native_ns: native.1, seqcst_ns: seqcst.1 });
    };

    // Each lock is constructed twice from the same source through the two
    // backends; `NAME` keeps us honest about which is which.
    assert_eq!(Native::NAME, "native");
    assert_eq!(SeqCstNative::NAME, "seqcst");

    push(
        "fig1-swmr-wp",
        passages(&SwmrWriterPriority::new_in(Native), iters, reps),
        passages(&SwmrWriterPriority::new_in(SeqCstNative), iters, reps),
    );
    push(
        "fig2-swmr-rp",
        passages(&SwmrReaderPriority::new_in(Native), iters, reps),
        passages(&SwmrReaderPriority::new_in(SeqCstNative), iters, reps),
    );
    push(
        "fig3-mwmr-sf",
        passages(&MwmrStarvationFree::new_in(4, Native), iters, reps),
        passages(&MwmrStarvationFree::new_in(4, SeqCstNative), iters, reps),
    );
    push(
        "fig3-mwmr-rp",
        passages(&MwmrReaderPriority::new_in(4, Native), iters, reps),
        passages(&MwmrReaderPriority::new_in(4, SeqCstNative), iters, reps),
    );
    push(
        "fig4-mwmr-wp",
        passages(&MwmrWriterPriority::new_in(4, Native), iters, reps),
        passages(&MwmrWriterPriority::new_in(4, SeqCstNative), iters, reps),
    );
    push(
        "ticket-rw",
        passages(&TicketRwLock::new_in(4, Native), iters, reps),
        passages(&TicketRwLock::new_in(4, SeqCstNative), iters, reps),
    );
    push(
        "distributed-flag",
        passages(&DistributedFlagRwLock::new_in(4, Native), iters, reps),
        passages(&DistributedFlagRwLock::new_in(4, SeqCstNative), iters, reps),
    );
    let cfg = BravoConfig { table_slots: 64, rebias_after: 16, initial_bias: true };
    push(
        "bravo-ticket-rw",
        passages(&Bravo::new_in(TicketRwLock::new_in(4, Native), cfg, Native), iters, reps),
        passages(
            &Bravo::new_in(TicketRwLock::new_in(4, SeqCstNative), cfg, SeqCstNative),
            iters,
            reps,
        ),
    );

    let mut table = Table::new(&[
        ("lock", "lock"),
        ("op", "op"),
        ("native ns/op", "native_ns_per_op"),
        ("seqcst ns/op", "seqcst_ns_per_op"),
        ("seqcst/native", "ratio"),
    ]);
    for r in &rows {
        table.row(vec![
            r.lock.into(),
            r.op.into(),
            format!("{:.1}", r.native_ns),
            format!("{:.1}", r.seqcst_ns),
            format!("{:.2}", r.seqcst_ns / r.native_ns),
        ]);
    }
    if !args.json {
        println!("# E18 — uncontended passage latency: relaxed vs SeqCst-everywhere\n");
    }
    print!("{}", table.emit(args.json));
}
