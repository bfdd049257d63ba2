//! The checking harness: scenarios, oracles, batteries and replay.
//!
//! A [`Trial`] is one complete, freshly-built run: the lock under test
//! (over the [`Sched`] backend), the task bodies that drive it, the shared
//! oracle that panics the moment a safety property breaks, and a post-run
//! closure that verifies the lock unwound to quiescence. Batteries build a
//! fresh trial per schedule (state must never leak between schedules) and
//! stop at the first failure, which carries everything needed to replay
//! it: the seed, the strategy, and the recorded decision sequence.
//!
//! The safety predicates themselves ([`rw_exclusion`], `mutex_exclusion`)
//! are shared verbatim with `rmr-sim`'s exhaustive explorer
//! ([`rmr_sim::predicates`]) — the two checkers enforce the same P1.

use crate::strategies::{Pct, RandomWalk};
use rmr_core::raw::{RawRwLock, RawTryReadLock, RawTryRwLock};
use rmr_core::registry::Pid;
use rmr_mutex::mem::{Backend, Ordering as MemOrdering, SharedWord};
use rmr_mutex::sched::{run_tasks_in, FaultPlan, MemoryModel, Replay, RunOutcome, Strategy};
use rmr_mutex::{RawMutex, Sched};
use rmr_sim::predicates::{mutex_exclusion, rw_exclusion, Occupancy};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

type SchedWord = <Sched as Backend>::Word;

/// A task body, as consumed by [`rmr_mutex::sched::run_tasks`].
pub type TaskBody = Box<dyn FnOnce() + Send>;

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// Shape of one checked workload: how many reader and writer tasks, and
/// how many lock passages each performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Number of reader tasks.
    pub readers: usize,
    /// Number of writer tasks.
    pub writers: usize,
    /// Passages (acquire/release pairs) per task.
    pub attempts: u32,
    /// Readers use `try_read_lock` (abort paths count as passages).
    pub try_readers: bool,
    /// Writers use `try_write_lock` where the lock supports it.
    pub try_writers: bool,
}

impl Scenario {
    /// A blocking scenario: `readers` + `writers` tasks, `attempts`
    /// passages each.
    pub fn new(readers: usize, writers: usize, attempts: u32) -> Self {
        Self { readers, writers, attempts, try_readers: false, try_writers: false }
    }

    /// Same shape, readers using the non-blocking tier.
    pub fn with_try_readers(mut self) -> Self {
        self.try_readers = true;
        self
    }

    /// Same shape, writers using the non-blocking tier.
    pub fn with_try_writers(mut self) -> Self {
        self.try_writers = true;
        self
    }

    /// Total task count.
    pub fn tasks(&self) -> usize {
        self.readers + self.writers
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}r{}{}w{}×{}",
            self.readers,
            if self.try_readers { "(try)" } else { "" },
            self.writers,
            if self.try_writers { "(try)" } else { "" },
            self.attempts
        )
    }
}

// ---------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------

/// Shared observer for reader-writer runs.
///
/// Occupancy counters are plain atomics (updated inside the holder's
/// scheduled turn, so they add no schedule points); the `x`/`y` data cells
/// are [`Sched`] words, so the writer's two-store protocol and the
/// reader's two-load check are themselves interruptible — a lock that
/// admits a reader mid-write produces a torn read even if the occupancy
/// race itself is missed.
#[derive(Debug)]
pub struct RwOracle {
    readers_in: AtomicUsize,
    writers_in: AtomicUsize,
    x: SchedWord,
    y: SchedWord,
    seq: AtomicU64,
    reads: AtomicUsize,
    writes: AtomicUsize,
    read_aborts: AtomicUsize,
    write_aborts: AtomicUsize,
}

impl Default for RwOracle {
    fn default() -> Self {
        Self::new()
    }
}

impl RwOracle {
    /// Fresh oracle (build one per trial, before the tasks).
    pub fn new() -> Self {
        Self {
            readers_in: AtomicUsize::new(0),
            writers_in: AtomicUsize::new(0),
            x: SchedWord::new(0),
            y: SchedWord::new(0),
            seq: AtomicU64::new(0),
            reads: AtomicUsize::new(0),
            writes: AtomicUsize::new(0),
            read_aborts: AtomicUsize::new(0),
            write_aborts: AtomicUsize::new(0),
        }
    }

    /// A reader's critical section. Panics (failing the schedule) on an
    /// exclusion violation or a torn read.
    pub fn reader_cs(&self) {
        let readers = self.readers_in.fetch_add(1, Ordering::SeqCst) + 1;
        let writers = self.writers_in.load(Ordering::SeqCst);
        if let Err(msg) = rw_exclusion(Occupancy { writers, readers }) {
            panic!("{msg}");
        }
        // Oracle instrumentation, not protocol under test: SeqCst keeps the
        // data cells out of the ordering argument, so a torn pair always
        // means the *lock* let a writer in — even under the weak model.
        let a = self.x.load(MemOrdering::SeqCst);
        let b = self.y.load(MemOrdering::SeqCst);
        if a != b {
            panic!("torn read: x = {a} but y = {b} (a writer ran inside a read session)");
        }
        self.reads.fetch_add(1, Ordering::SeqCst);
        self.readers_in.fetch_sub(1, Ordering::SeqCst);
    }

    /// A writer's critical section: bumps the version and writes it to
    /// both cells, with a schedule point between the stores.
    pub fn writer_cs(&self) {
        let writers = self.writers_in.fetch_add(1, Ordering::SeqCst) + 1;
        let readers = self.readers_in.load(Ordering::SeqCst);
        if let Err(msg) = rw_exclusion(Occupancy { writers, readers }) {
            panic!("{msg}");
        }
        let k = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
        self.x.store(k, MemOrdering::SeqCst);
        self.y.store(k, MemOrdering::SeqCst);
        self.writes.fetch_add(1, Ordering::SeqCst);
        self.writers_in.fetch_sub(1, Ordering::SeqCst);
    }

    /// Records a failed non-blocking read attempt.
    pub fn read_abort(&self) {
        self.read_aborts.fetch_add(1, Ordering::SeqCst);
    }

    /// Records a failed non-blocking write attempt.
    pub fn write_abort(&self) {
        self.write_aborts.fetch_add(1, Ordering::SeqCst);
    }

    /// `(reads, writes, aborted read tries, aborted write tries)`
    /// completed so far.
    pub fn totals(&self) -> (usize, usize, usize, usize) {
        (
            self.reads.load(Ordering::SeqCst),
            self.writes.load(Ordering::SeqCst),
            self.read_aborts.load(Ordering::SeqCst),
            self.write_aborts.load(Ordering::SeqCst),
        )
    }

    /// Post-run accounting: every passage finished (entered or aborted,
    /// per the scenario's tiers) and nobody is left inside the critical
    /// section.
    pub fn settle(&self, scenario: &Scenario) -> Result<(), String> {
        let (reads, writes, read_aborts, write_aborts) = self.totals();
        let expect_r = scenario.readers * scenario.attempts as usize;
        let expect_w = scenario.writers * scenario.attempts as usize;
        if self.readers_in.load(Ordering::SeqCst) != 0
            || self.writers_in.load(Ordering::SeqCst) != 0
        {
            return Err("a task is still marked inside the CS after the run".into());
        }
        if reads + read_aborts != expect_r {
            return Err(format!(
                "{reads} reads + {read_aborts} read aborts ≠ {expect_r} reader passages"
            ));
        }
        if writes + write_aborts != expect_w {
            return Err(format!(
                "{writes} writes + {write_aborts} write aborts ≠ {expect_w} writer passages"
            ));
        }
        if !scenario.try_readers && read_aborts != 0 {
            return Err(format!("{read_aborts} read aborts in a blocking-reader scenario"));
        }
        if !scenario.try_writers && write_aborts != 0 {
            return Err(format!("{write_aborts} write aborts in a blocking-writer scenario"));
        }
        Ok(())
    }
}

/// Shared observer for mutex runs: holder count plus the same torn-pair
/// data cells.
#[derive(Debug)]
pub struct MutexOracle {
    holders: AtomicUsize,
    x: SchedWord,
    y: SchedWord,
    seq: AtomicU64,
    passages: AtomicUsize,
}

impl Default for MutexOracle {
    fn default() -> Self {
        Self::new()
    }
}

impl MutexOracle {
    /// Fresh oracle (build one per trial).
    pub fn new() -> Self {
        Self {
            holders: AtomicUsize::new(0),
            x: SchedWord::new(0),
            y: SchedWord::new(0),
            seq: AtomicU64::new(0),
            passages: AtomicUsize::new(0),
        }
    }

    /// A holder's critical section. Panics on a second holder or a torn
    /// pair.
    pub fn cs(&self) {
        let holders = self.holders.fetch_add(1, Ordering::SeqCst) + 1;
        if let Err(msg) = mutex_exclusion(holders) {
            panic!("{msg}");
        }
        let k = self.seq.fetch_add(1, Ordering::SeqCst) + 1;
        // SeqCst for the same reason as `RwOracle::reader_cs`: the cells
        // are the oracle's, not the lock's.
        self.x.store(k, MemOrdering::SeqCst);
        let seen = self.y.load(MemOrdering::SeqCst);
        if seen != k - 1 {
            panic!("torn pair: y = {seen}, expected {} (another holder interleaved)", k - 1);
        }
        self.y.store(k, MemOrdering::SeqCst);
        self.passages.fetch_add(1, Ordering::SeqCst);
        self.holders.fetch_sub(1, Ordering::SeqCst);
    }

    /// Post-run accounting.
    pub fn settle(&self, expected_passages: usize) -> Result<(), String> {
        if self.holders.load(Ordering::SeqCst) != 0 {
            return Err("a holder is still marked inside the CS after the run".into());
        }
        let done = self.passages.load(Ordering::SeqCst);
        if done != expected_passages {
            return Err(format!("{done} passages ≠ {expected_passages} expected"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Trials
// ---------------------------------------------------------------------

/// One freshly-built run: tasks plus a post-run verdict.
pub struct Trial {
    /// The task bodies to schedule.
    pub tasks: Vec<TaskBody>,
    /// Evaluated only after a clean run: quiescence / accounting checks.
    pub post: Box<dyn FnOnce() -> Result<(), String>>,
}

impl Trial {
    /// Installs `plan` at the top of every task body, so the run faults
    /// the plan's site in the shipped code (`rmr_mutex::sched::FaultPlan`).
    /// The empty plan leaves the trial unchanged.
    pub fn faulted(self, plan: &FaultPlan) -> Self {
        let tasks = self
            .tasks
            .into_iter()
            .map(|body| {
                let plan = plan.clone();
                Box::new(move || {
                    plan.install();
                    body();
                }) as TaskBody
            })
            .collect();
        Self { tasks, post: self.post }
    }
}

impl fmt::Debug for Trial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trial").field("tasks", &self.tasks.len()).finish()
    }
}

/// Builds a [`Trial`] for a blocking reader-writer scenario over any raw
/// lock. `quiescent` is the lock-specific at-rest check (`||
/// lock.is_quiescent()` for the core locks, `|| true` where no such
/// notion exists).
pub fn rw_trial<L>(
    lock: Arc<L>,
    scenario: Scenario,
    quiescent: impl Fn() -> bool + 'static,
) -> Trial
where
    L: RawRwLock + 'static,
{
    assert!(!scenario.try_readers && !scenario.try_writers, "use try_read_trial/try_rw_trial");
    let oracle = Arc::new(RwOracle::new());
    let mut tasks: Vec<TaskBody> = Vec::new();
    for r in 0..scenario.readers {
        let lock = Arc::clone(&lock);
        let oracle = Arc::clone(&oracle);
        tasks.push(Box::new(move || {
            let pid = Pid::from_index(r);
            for _ in 0..scenario.attempts {
                let t = lock.read_lock(pid);
                oracle.reader_cs();
                lock.read_unlock(pid, t);
            }
        }));
    }
    for w in 0..scenario.writers {
        let lock = Arc::clone(&lock);
        let oracle = Arc::clone(&oracle);
        tasks.push(Box::new(move || {
            let pid = Pid::from_index(scenario.readers + w);
            for _ in 0..scenario.attempts {
                let t = lock.write_lock(pid);
                oracle.writer_cs();
                lock.write_unlock(pid, t);
            }
        }));
    }
    Trial { tasks, post: settle_post(oracle, scenario, quiescent) }
}

/// Like [`rw_trial`], but readers go through the non-blocking tier
/// (`try_read_lock`), exercising the abort paths racing the writers.
pub fn try_read_trial<L>(
    lock: Arc<L>,
    scenario: Scenario,
    quiescent: impl Fn() -> bool + 'static,
) -> Trial
where
    L: RawTryReadLock + 'static,
{
    let oracle = Arc::new(RwOracle::new());
    let mut tasks: Vec<TaskBody> = Vec::new();
    for r in 0..scenario.readers {
        let lock = Arc::clone(&lock);
        let oracle = Arc::clone(&oracle);
        tasks.push(Box::new(move || {
            let pid = Pid::from_index(r);
            for _ in 0..scenario.attempts {
                match lock.try_read_lock(pid) {
                    Some(t) => {
                        oracle.reader_cs();
                        lock.read_unlock(pid, t);
                    }
                    None => oracle.read_abort(),
                }
            }
        }));
    }
    for w in 0..scenario.writers {
        let lock = Arc::clone(&lock);
        let oracle = Arc::clone(&oracle);
        tasks.push(Box::new(move || {
            let pid = Pid::from_index(scenario.readers + w);
            for _ in 0..scenario.attempts {
                let t = lock.write_lock(pid);
                oracle.writer_cs();
                lock.write_unlock(pid, t);
            }
        }));
    }
    let scenario = Scenario { try_readers: true, ..scenario };
    Trial { tasks, post: settle_post(oracle, scenario, quiescent) }
}

/// Full non-blocking tier: readers *and* writers through `try_*`,
/// for the baselines that implement [`RawTryRwLock`].
pub fn try_rw_trial<L>(
    lock: Arc<L>,
    scenario: Scenario,
    quiescent: impl Fn() -> bool + 'static,
) -> Trial
where
    L: RawTryRwLock + 'static,
{
    let oracle = Arc::new(RwOracle::new());
    let mut tasks: Vec<TaskBody> = Vec::new();
    for r in 0..scenario.readers {
        let lock = Arc::clone(&lock);
        let oracle = Arc::clone(&oracle);
        tasks.push(Box::new(move || {
            let pid = Pid::from_index(r);
            for _ in 0..scenario.attempts {
                match lock.try_read_lock(pid) {
                    Some(t) => {
                        oracle.reader_cs();
                        lock.read_unlock(pid, t);
                    }
                    None => oracle.read_abort(),
                }
            }
        }));
    }
    for w in 0..scenario.writers {
        let lock = Arc::clone(&lock);
        let oracle = Arc::clone(&oracle);
        tasks.push(Box::new(move || {
            let pid = Pid::from_index(scenario.readers + w);
            for _ in 0..scenario.attempts {
                match lock.try_write_lock(pid) {
                    Some(t) => {
                        oracle.writer_cs();
                        lock.write_unlock(pid, t);
                    }
                    None => oracle.write_abort(),
                }
            }
        }));
    }
    let scenario = Scenario { try_readers: true, try_writers: true, ..scenario };
    Trial { tasks, post: settle_post(oracle, scenario, quiescent) }
}

/// Builds a [`Trial`] for a mutex: `tasks` holders, `attempts` passages
/// each.
pub fn mutex_trial<M>(lock: Arc<M>, tasks: usize, attempts: u32) -> Trial
where
    M: RawMutex + 'static,
{
    let oracle = Arc::new(MutexOracle::new());
    let bodies: Vec<TaskBody> = (0..tasks)
        .map(|_| {
            let lock = Arc::clone(&lock);
            let oracle = Arc::clone(&oracle);
            Box::new(move || {
                for _ in 0..attempts {
                    let t = lock.lock();
                    oracle.cs();
                    lock.unlock(t);
                }
            }) as TaskBody
        })
        .collect();
    let expected = tasks * attempts as usize;
    Trial { tasks: bodies, post: Box::new(move || oracle.settle(expected)) }
}

fn settle_post(
    oracle: Arc<RwOracle>,
    scenario: Scenario,
    quiescent: impl Fn() -> bool + 'static,
) -> Box<dyn FnOnce() -> Result<(), String>> {
    Box::new(move || {
        oracle.settle(&scenario)?;
        if !quiescent() {
            return Err("lock is not quiescent after a clean run".into());
        }
        Ok(())
    })
}

// ---------------------------------------------------------------------
// Batteries and reports
// ---------------------------------------------------------------------

/// A failure found by a battery, with everything needed to replay it.
#[derive(Debug, Clone)]
pub struct CheckFailure {
    /// What broke (oracle panic, deadlock, budget, post-run check).
    pub reason: String,
    /// Strategy description, e.g. `pct(d=3)`.
    pub strategy: String,
    /// The seed that produced the failing schedule, if seeded.
    pub seed: Option<u64>,
    /// The recorded decision sequence — [`replay`] reruns it exactly.
    pub schedule: Vec<u16>,
}

impl fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CHECK FAILED [{}", self.strategy)?;
        if let Some(seed) = self.seed {
            write!(f, " seed={seed:#x}")?;
        }
        write!(f, "]: {}", self.reason)?;
        if let Some(seed) = self.seed {
            write!(f, " — replay: rerun this check with RMR_TEST_SEED={seed}")?;
        }
        write!(f, " — schedule {:?}", self.schedule)
    }
}

/// Result of one battery over one lock.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Lock label.
    pub lock: String,
    /// Exploration mode label.
    pub mode: String,
    /// Schedules executed.
    pub schedules: u64,
    /// Total scheduler steps across all schedules.
    pub steps: u64,
    /// First failure, if any (batteries stop at the first).
    pub failure: Option<CheckFailure>,
    /// True if an exhaustive mode hit its schedule cap before exhausting
    /// the space.
    pub truncated: bool,
}

impl CheckReport {
    /// True when every schedule ran clean (a truncated-but-clean
    /// exhaustive pass still counts as passed — the bound is the spec).
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}]: {} schedules, {} steps — {}{}",
            self.lock,
            self.mode,
            self.schedules,
            self.steps,
            match &self.failure {
                None => "ok".to_string(),
                Some(fail) => fail.to_string(),
            },
            if self.truncated { " (truncated)" } else { "" }
        )
    }
}

/// Sentinel task id for failures raised by the harness itself (post-run
/// checks) rather than by a scheduled task.
const HARNESS_TASK: usize = usize::MAX;

/// Renders a run error for reports, folding the harness sentinel away.
pub fn reason_of(err: &rmr_mutex::sched::RunError) -> String {
    match err {
        rmr_mutex::sched::RunError::Panic { task, message } if *task == HARNESS_TASK => {
            message.clone()
        }
        other => other.to_string(),
    }
}

/// Runs one trial under one strategy — [`MemoryModel::SeqCst`]; see
/// [`run_trial_in`] for the weak mode — and folds the post-run check into
/// the outcome.
pub fn run_trial(trial: Trial, strategy: &mut dyn Strategy, budget: u64) -> RunOutcome {
    run_trial_in(trial, strategy, budget, MemoryModel::SeqCst)
}

/// Runs one trial under one strategy and memory model and folds the
/// post-run check into the outcome.
pub fn run_trial_in(
    trial: Trial,
    strategy: &mut dyn Strategy,
    budget: u64,
    model: MemoryModel,
) -> RunOutcome {
    let Trial { tasks, post } = trial;
    let mut outcome = run_tasks_in(tasks, strategy, budget, model);
    if outcome.result.is_ok() {
        if let Err(msg) = post() {
            outcome.result = Err(rmr_mutex::sched::RunError::Panic {
                task: HARNESS_TASK,
                message: format!("post-run check failed: {msg}"),
            });
        }
    }
    outcome
}

/// The seeds a battery actually runs: `base + 0..count` — or, when
/// `RMR_TEST_SEED` is set, exactly that one seed, verbatim. The override
/// deliberately bypasses every base/label derivation the callers apply:
/// it is what makes the seed printed by a [`CheckFailure`] replay as a
/// single line.
fn battery_seeds(base: u64, count: u64) -> Vec<u64> {
    if std::env::var("RMR_TEST_SEED").is_ok() {
        vec![crate::env_seed(0)]
    } else {
        (0..count).map(|i| base.wrapping_add(i)).collect()
    }
}

/// Suffix a battery's mode label carries when it runs under the weak
/// model, so a report (and a replay line) always names the model that
/// produced it.
fn mode_label(base: String, model: MemoryModel) -> String {
    match model {
        MemoryModel::SeqCst => base,
        MemoryModel::StoreBuffer => format!("{base}/sb"),
    }
}

// One argument per knob a battery varies; bundling them into a struct
// would just rename the call sites.
#[allow(clippy::too_many_arguments)]
fn seeded_battery(
    lock: &str,
    mode: String,
    mk: impl Fn() -> Trial,
    mk_strategy: impl Fn(u64) -> Box<dyn Strategy>,
    base_seed: u64,
    count: u64,
    budget: u64,
    model: MemoryModel,
) -> CheckReport {
    let mut steps = 0;
    let mut schedules = 0;
    for seed in battery_seeds(base_seed, count) {
        let mut strategy = mk_strategy(seed);
        let outcome = run_trial_in(mk(), strategy.as_mut(), budget, model);
        steps += outcome.steps;
        schedules += 1;
        if let Err(err) = outcome.result {
            let strategy = mode.clone();
            return CheckReport {
                lock: lock.into(),
                mode,
                schedules,
                steps,
                failure: Some(CheckFailure {
                    reason: reason_of(&err),
                    strategy,
                    seed: Some(seed),
                    schedule: outcome.schedule,
                }),
                truncated: false,
            };
        }
    }
    CheckReport { lock: lock.into(), mode, schedules, steps, failure: None, truncated: false }
}

/// Runs `count` PCT schedules (depth `depth`), seeds `base_seed..` (or
/// exactly the `RMR_TEST_SEED` override), stopping at the first failure.
/// `mk` must build a *fresh* trial per schedule.
pub fn pct_battery(
    lock: &str,
    mk: impl Fn() -> Trial,
    base_seed: u64,
    count: u64,
    depth: usize,
    budget: u64,
) -> CheckReport {
    pct_battery_in(lock, mk, base_seed, count, depth, budget, MemoryModel::SeqCst)
}

/// [`pct_battery`] under an explicit [`MemoryModel`]. Under
/// [`MemoryModel::StoreBuffer`] the strategy also decides flush points,
/// so the same seed scheme explores weak-memory interleavings; the mode
/// label gains a `/sb` suffix.
pub fn pct_battery_in(
    lock: &str,
    mk: impl Fn() -> Trial,
    base_seed: u64,
    count: u64,
    depth: usize,
    budget: u64,
    model: MemoryModel,
) -> CheckReport {
    seeded_battery(
        lock,
        mode_label(format!("pct(d={depth})"), model),
        mk,
        |seed| Box::new(Pct::new(seed, depth, 256)),
        base_seed,
        count,
        budget,
        model,
    )
}

/// Runs `count` uniform random walks, seeds `base_seed..`, stopping at the
/// first failure.
pub fn random_battery(
    lock: &str,
    mk: impl Fn() -> Trial,
    base_seed: u64,
    count: u64,
    budget: u64,
) -> CheckReport {
    random_battery_in(lock, mk, base_seed, count, budget, MemoryModel::SeqCst)
}

/// [`random_battery`] under an explicit [`MemoryModel`].
pub fn random_battery_in(
    lock: &str,
    mk: impl Fn() -> Trial,
    base_seed: u64,
    count: u64,
    budget: u64,
    model: MemoryModel,
) -> CheckReport {
    seeded_battery(
        lock,
        mode_label("random".into(), model),
        mk,
        |seed| Box::new(RandomWalk::new(seed)),
        base_seed,
        count,
        budget,
        model,
    )
}

/// The standard randomized pair for one lock — a PCT battery and a
/// uniform random-walk battery — with the per-mode seed bases derived
/// from `base` and the label in exactly one place, so every caller
/// (tests, `check_table`) agrees on the scheme and the `RMR_TEST_SEED`
/// override (see `battery_seeds`) replays a printed seed under both
/// modes.
pub fn randomized_batteries(
    lock: &str,
    mk: impl Fn() -> Trial,
    base: u64,
    count: u64,
    depth: usize,
    budget: u64,
) -> Vec<CheckReport> {
    randomized_batteries_in(lock, mk, base, count, depth, budget, MemoryModel::SeqCst)
}

/// [`randomized_batteries`] under an explicit [`MemoryModel`] — the
/// entry point the weak-memory batteries and the `Demote*` ordering
/// mutants use.
pub fn randomized_batteries_in(
    lock: &str,
    mk: impl Fn() -> Trial,
    base: u64,
    count: u64,
    depth: usize,
    budget: u64,
    model: MemoryModel,
) -> Vec<CheckReport> {
    // FNV-1a over the label so distinct locks sharing a base get distinct
    // seed sequences (label *length* would collide: the five core-lock
    // labels are all 12 characters).
    let mut base = base ^ 0xcbf2_9ce4_8422_2325;
    for &b in lock.as_bytes() {
        base = (base ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    vec![
        pct_battery_in(lock, &mk, base, count, depth, budget, model),
        random_battery_in(lock, &mk, base ^ 0xa5a5, count, budget, model),
    ]
}

/// Replays a recorded decision sequence against a fresh trial — the
/// deterministic reproduction of a [`CheckFailure`]. Replay under the
/// model the failure was found under: flush points are recorded
/// decisions too, so a weak-mode schedule only replays in weak mode.
pub fn replay(trial: Trial, schedule: Vec<u16>, budget: u64) -> RunOutcome {
    run_trial(trial, &mut Replay::new(schedule), budget)
}

/// [`replay`] under an explicit [`MemoryModel`].
pub fn replay_in(trial: Trial, schedule: Vec<u16>, budget: u64, model: MemoryModel) -> RunOutcome {
    run_trial_in(trial, &mut Replay::new(schedule), budget, model)
}
