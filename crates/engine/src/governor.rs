//! Execution governance: budgets, deadlines, and cancellation.
//!
//! Flock evaluation is combinatorially explosive by nature — the paper's
//! levelwise plans exist precisely because naive evaluation blows up. An
//! [`ExecContext`] makes that blow-up survivable: it carries a row
//! budget, an estimated-memory budget, a wall-clock deadline, and a
//! shareable [`CancelToken`], and every operator loop in
//! [`crate::exec`] checks it cooperatively. Exceeding a budget surfaces
//! as [`EngineError::ResourceExhausted`]; a tripped token surfaces as
//! [`EngineError::Cancelled`]. Both propagate cleanly — operators
//! materialize nothing into the catalog, so a governed failure leaves
//! the database exactly as it was.
//!
//! Accounting model, deliberately simple and deterministic:
//!
//! * **Rows** — every tuple an operator materializes (including scan
//!   clones) charges one row against the budget. The check happens
//!   *before* the tuple is stored, so memory use stays within
//!   budget + O(1), never "budget + one join's worth".
//! * **Memory** — each charged row also charges an estimated
//!   `width × size_of::<Value>() + TUPLE_OVERHEAD` bytes against two
//!   counters: cumulative `bytes` (total materialization work, the
//!   quantity the cost model reasons about as C_out) and `live_bytes`
//!   (estimated residency). The budget checks **live** bytes. There is
//!   one model whichever route rows take: the operator tree calls
//!   [`ExecContext::release_bytes`] for an input once it has consumed
//!   it, and a sink releases the buffered tuples it flushes to a spill
//!   file, so later work can reuse the headroom. Rows an operator is
//!   still producing are live, so an over-budget *output* trips
//!   regardless. Cumulative `rows`/`bytes` never shrink.
//! * **Spilling** — one [`crate::exec`] decision per execution: when
//!   the context carries a spill directory ([`ExecContext::with_spill`])
//!   *and* a memory budget some charge could trip, operator sinks
//!   consult [`ExecContext::mem_would_trip`] and flush to disk instead
//!   of failing, recording a `spill` degradation plus bytes-spilled in
//!   [`ExecStats`].
//! * **Time / cancellation** — checked at every operator entry and then
//!   amortized inside loops (every [`CHECK_INTERVAL`] work units), so
//!   even a filter that materializes nothing notices a deadline.
//!
//! All counters are atomics and the context is `Send + Sync`, so one
//! context governs every worker thread of a parallel operator
//! ([`crate::parallel`]): each worker charges the shared counters
//! before materializing, which bounds budget overshoot to at most one
//! in-flight charge per worker.
//!
//! Contexts are cheap to clone and share their counters; use
//! [`ExecContext::subcontext`] for a *fresh* budget that still honours
//! the parent's deadline and cancellation (dynamic evaluation uses this
//! to bound voluntary FILTER probes without charging the main query).
//!
//! Under the `fault-injection` feature a context can be armed to fail
//! the Nth operator invocation ([`ExecContext::with_fault_point`]), so
//! tests can prove every operator propagates a mid-pipeline error.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qf_storage::SpillDir;

use crate::error::{EngineError, Result};

/// How many work units (rows examined or materialized) between
/// deadline/cancellation checks inside operator loops.
pub const CHECK_INTERVAL: u64 = 4096;

/// Estimated bookkeeping bytes per materialized tuple beyond its values.
pub const TUPLE_OVERHEAD: u64 = 16;

/// Estimated memory cost of one materialized tuple of `width` columns —
/// the unit charged by [`ExecContext::charge_row`] and released by
/// [`ExecContext::release_bytes`] when an operator spills.
#[inline]
pub fn row_cost(width: usize) -> u64 {
    width as u64 * std::mem::size_of::<qf_storage::Value>() as u64 + TUPLE_OVERHEAD
}

/// Memory budget taken from the `QF_MEM_BUDGET` environment variable
/// (bytes, plain integer), if set and positive. Lets CI run the whole
/// suite under a deliberately tiny budget so every spill path executes.
pub fn env_mem_budget() -> Option<u64> {
    std::env::var("QF_MEM_BUDGET")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .filter(|&n| n > 0)
}

/// The budgeted resource named by [`EngineError::ResourceExhausted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// Materialized-tuple budget.
    Rows,
    /// Estimated-memory budget (bytes).
    Memory,
    /// Wall-clock deadline (milliseconds).
    Time,
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Resource::Rows => "rows",
            Resource::Memory => "memory",
            Resource::Time => "time",
        })
    }
}

/// Shareable cooperative-cancellation flag. Cloning shares the flag;
/// any holder can cancel, and every governed operator loop observes it.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trip the token: governed execution fails with
    /// [`EngineError::Cancelled`] at its next check.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has the token been tripped?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// One recorded graceful degradation: the governor hit a limit and the
/// pipeline continued on a cheaper path instead of failing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// Pipeline stage that degraded (e.g. `"plan-search"`,
    /// `"dynamic-filter"`).
    pub stage: String,
    /// What was given up and why.
    pub detail: String,
}

/// Snapshot of governed-execution accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Tuples materialized under this context.
    pub rows: u64,
    /// Estimated bytes materialized under this context.
    pub bytes: u64,
    /// Largest number of worker threads any single operator used.
    pub workers: u64,
    /// Encoded bytes written to spill files under memory pressure.
    pub spilled_bytes: u64,
    /// Number of spill-file flushes (sorted runs or Grace partitions).
    pub spills: u64,
    /// Transient I/O errors absorbed by bounded retry (whole-file
    /// rewrites of spill runs or journal snapshots).
    pub io_retries: u64,
    /// Detected spill corruptions recovered by recomputing the
    /// affected pipeline instead of serving bad bytes.
    pub corruption_recoveries: u64,
    /// Spill files currently on disk (leak detector: 0 after a
    /// successful run whose output has been materialized).
    pub spill_files_live: u64,
    /// Graceful degradations recorded anywhere in the context tree.
    pub degradations: Vec<Degradation>,
}

#[cfg(feature = "fault-injection")]
#[derive(Debug)]
struct FaultPoint {
    /// 1-based operator invocation to fail on.
    fail_on: u64,
    hits: AtomicU64,
}

#[derive(Debug, Default)]
struct Counters {
    rows: AtomicU64,
    bytes: AtomicU64,
    live_bytes: AtomicU64,
    spilled_bytes: AtomicU64,
    spills: AtomicU64,
    io_retries: AtomicU64,
    corruption_recoveries: AtomicU64,
    work: AtomicU64,
    workers: AtomicU64,
    /// Set by the ENOSPC policy: the disk can no longer absorb spills,
    /// so the memory budget is waived (execution continues in memory,
    /// with the degradation recorded) rather than aborting a run that
    /// was promised graceful degradation.
    mem_waived: AtomicBool,
}

/// Governor state threaded through plan execution. See the module docs
/// for the accounting model. Cloning shares all counters and limits.
#[derive(Clone, Debug)]
pub struct ExecContext {
    max_rows: Option<u64>,
    max_bytes: Option<u64>,
    deadline: Option<Instant>,
    timeout_ms: u64,
    start: Instant,
    threads: usize,
    cancel: CancelToken,
    counters: Arc<Counters>,
    degradations: Arc<Mutex<Vec<Degradation>>>,
    spill: Option<Arc<SpillDir>>,
    #[cfg(feature = "fault-injection")]
    fault: Option<Arc<FaultPoint>>,
}

// Operators share one `&ExecContext` across scoped worker threads, so
// the governor must stay `Send + Sync` (all shared state is atomics or
// mutexes). Compile-time proof:
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ExecContext>();
};

impl Default for ExecContext {
    fn default() -> ExecContext {
        ExecContext::unbounded()
    }
}

impl ExecContext {
    /// A context with no limits: counters still accumulate (stats stay
    /// meaningful) but nothing can fail except an armed fault point.
    pub fn unbounded() -> ExecContext {
        ExecContext {
            max_rows: None,
            max_bytes: None,
            deadline: None,
            timeout_ms: 0,
            start: Instant::now(),
            threads: crate::parallel::default_threads(),
            cancel: CancelToken::new(),
            counters: Arc::new(Counters::default()),
            degradations: Arc::new(Mutex::new(Vec::new())),
            spill: None,
            #[cfg(feature = "fault-injection")]
            fault: None,
        }
    }

    /// Cap the number of tuples execution may materialize.
    pub fn with_max_rows(mut self, max_rows: u64) -> ExecContext {
        self.max_rows = Some(max_rows);
        self
    }

    /// Cap estimated materialized memory, in bytes.
    pub fn with_mem_budget(mut self, max_bytes: u64) -> ExecContext {
        self.max_bytes = Some(max_bytes);
        self
    }

    /// Fail execution once `timeout` has elapsed from now.
    pub fn with_timeout(mut self, timeout: Duration) -> ExecContext {
        self.timeout_ms = timeout.as_millis().min(u64::MAX as u128) as u64;
        self.deadline = Some(self.start + timeout);
        self
    }

    /// Fail execution at an absolute `deadline` stamped earlier (e.g. at
    /// service admission time). Unlike [`ExecContext::with_timeout`],
    /// time already spent before this call — queue wait, plan transfer —
    /// still counts against the budget, which is what end-to-end
    /// deadline propagation requires.
    pub fn with_deadline(mut self, deadline: Instant) -> ExecContext {
        self.timeout_ms = deadline
            .saturating_duration_since(self.start)
            .as_millis()
            .min(u64::MAX as u128) as u64;
        self.deadline = Some(deadline);
        self
    }

    /// Time remaining before the deadline (`None` when undeadlined);
    /// zero once expired.
    pub fn remaining_time(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Use an externally supplied cancellation token (e.g. one shared
    /// with a Ctrl-C handler) instead of a private one.
    pub fn with_cancel_token(mut self, token: CancelToken) -> ExecContext {
        self.cancel = token;
        self
    }

    /// Cap the number of worker threads operators may use (clamped to
    /// at least 1). The default is [`crate::parallel::default_threads`].
    pub fn with_threads(mut self, threads: usize) -> ExecContext {
        self.threads = threads.max(1);
        self
    }

    /// Configured worker-thread cap for parallel operators.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Allow operators to spill to `dir` instead of failing when a
    /// memory charge would trip the budget. Without a spill directory
    /// — or without a memory budget, when nothing can trip — a trip is
    /// `ResourceExhausted`.
    pub fn with_spill(mut self, dir: Arc<SpillDir>) -> ExecContext {
        self.spill = Some(dir);
        self
    }

    /// The spill directory, if spilling is enabled.
    pub fn spill_dir(&self) -> Option<&Arc<SpillDir>> {
        self.spill.as_ref()
    }

    /// Is spill-to-disk enabled for this context?
    pub fn spill_enabled(&self) -> bool {
        self.spill.is_some()
    }

    /// Would charging `extra` more live bytes trip the memory budget?
    /// Flush-capable sinks probe this before buffering another tuple
    /// and flush to disk instead of tripping; `u64::MAX` asks whether
    /// any charge could (a budget is set and not waived).
    pub fn mem_would_trip(&self, extra: u64) -> bool {
        if self.counters.mem_waived.load(Ordering::Relaxed) {
            return false;
        }
        match self.max_bytes {
            Some(limit) => {
                let live = self.counters.live_bytes.load(Ordering::Relaxed);
                live.saturating_add(extra) > limit
            }
            None => false,
        }
    }

    /// Waive the memory budget for the rest of this context tree — the
    /// ENOSPC degradation path: the disk cannot absorb further spills,
    /// so continuing in memory (and possibly swapping) beats aborting.
    /// Callers record the matching [`Degradation`].
    pub fn waive_mem_budget(&self) {
        self.counters.mem_waived.store(true, Ordering::Relaxed);
    }

    /// Release `n` live bytes after their tuples have been consumed by
    /// the next operator or flushed to a spill file. Cumulative `bytes`
    /// stays put — it reports total materialization work, not
    /// residency.
    pub fn release_bytes(&self, n: u64) {
        let _ = self
            .counters
            .live_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Record one spill flush of `bytes` encoded bytes.
    pub fn note_spill(&self, bytes: u64) {
        self.counters
            .spilled_bytes
            .fetch_add(bytes, Ordering::Relaxed);
        self.counters.spills.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one transient I/O error absorbed by a bounded retry.
    pub fn note_io_retry(&self) {
        self.counters.io_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one detected spill corruption recovered by recompute.
    pub fn note_corruption_recovery(&self) {
        self.counters
            .corruption_recoveries
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Record that an operator ran with `n` workers; [`ExecStats`]
    /// reports the maximum seen.
    pub fn note_workers(&self, n: usize) {
        self.counters.workers.fetch_max(n as u64, Ordering::Relaxed);
    }

    /// Arm the fault injector: the `fail_on`-th operator invocation
    /// (1-based, counted across the whole context tree) fails with
    /// [`EngineError::FaultInjected`].
    #[cfg(feature = "fault-injection")]
    pub fn with_fault_point(mut self, fail_on: u64) -> ExecContext {
        self.fault = Some(Arc::new(FaultPoint {
            fail_on,
            hits: AtomicU64::new(0),
        }));
        self
    }

    /// The context's cancellation token (clone to share).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// A child context with its own (fresh) row/memory budget but the
    /// parent's deadline, cancellation token, degradation log, and
    /// fault point. Rows charged to the child do **not** count against
    /// the parent: this is for bounded side-work (dynamic evaluation's
    /// voluntary FILTER probes) whose cost should not starve the main
    /// query.
    pub fn subcontext(&self, max_rows: Option<u64>, max_bytes: Option<u64>) -> ExecContext {
        ExecContext {
            max_rows,
            max_bytes,
            deadline: self.deadline,
            timeout_ms: self.timeout_ms,
            start: self.start,
            threads: self.threads,
            cancel: self.cancel.clone(),
            counters: Arc::new(Counters::default()),
            degradations: Arc::clone(&self.degradations),
            spill: self.spill.clone(),
            #[cfg(feature = "fault-injection")]
            fault: self.fault.clone(),
        }
    }

    /// Operator-entry check: fault point, cancellation, deadline.
    /// Called once per operator invocation before any work.
    pub fn enter(&self, operator: &'static str) -> Result<()> {
        #[cfg(feature = "fault-injection")]
        if let Some(fault) = &self.fault {
            let hit = fault.hits.fetch_add(1, Ordering::Relaxed) + 1;
            if hit == fault.fail_on {
                return Err(EngineError::FaultInjected {
                    operator,
                    invocation: hit,
                });
            }
        }
        let _ = operator;
        self.check_cancel_deadline()
    }

    /// Charge one materialized tuple of `width` columns. Call *before*
    /// storing the tuple so memory stays within budget.
    #[inline]
    pub fn charge_row(&self, width: usize) -> Result<()> {
        let rows = self.counters.rows.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(limit) = self.max_rows {
            if rows > limit {
                return Err(EngineError::ResourceExhausted {
                    resource: Resource::Rows,
                    limit,
                    observed: rows,
                });
            }
        }
        let cost = row_cost(width);
        self.counters.bytes.fetch_add(cost, Ordering::Relaxed);
        let live = self.counters.live_bytes.fetch_add(cost, Ordering::Relaxed) + cost;
        if let Some(limit) = self.max_bytes {
            if live > limit && !self.counters.mem_waived.load(Ordering::Relaxed) {
                return Err(EngineError::ResourceExhausted {
                    resource: Resource::Memory,
                    limit,
                    observed: live,
                });
            }
        }
        self.tick()
    }

    /// Bulk form of [`ExecContext::charge_row`]: charge `n` tuples of
    /// `width` columns in two atomic operations. Call *before*
    /// materializing the batch.
    pub fn charge_rows(&self, n: u64, width: usize) -> Result<()> {
        if n == 0 {
            return Ok(());
        }
        let rows = self.counters.rows.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(limit) = self.max_rows {
            if rows > limit {
                return Err(EngineError::ResourceExhausted {
                    resource: Resource::Rows,
                    limit,
                    observed: rows,
                });
            }
        }
        let cost = n * row_cost(width);
        self.counters.bytes.fetch_add(cost, Ordering::Relaxed);
        let live = self.counters.live_bytes.fetch_add(cost, Ordering::Relaxed) + cost;
        if let Some(limit) = self.max_bytes {
            if live > limit && !self.counters.mem_waived.load(Ordering::Relaxed) {
                return Err(EngineError::ResourceExhausted {
                    resource: Resource::Memory,
                    limit,
                    observed: live,
                });
            }
        }
        self.check_cancel_deadline()
    }

    /// Charge one unit of non-materializing work (a row examined and
    /// dropped). Amortizes deadline/cancellation checks so that even
    /// fully-filtering operators observe them.
    #[inline]
    pub fn tick(&self) -> Result<()> {
        let work = self.counters.work.fetch_add(1, Ordering::Relaxed) + 1;
        if work.is_multiple_of(CHECK_INTERVAL) {
            self.check_cancel_deadline()?;
        }
        Ok(())
    }

    /// Rows still chargeable before the budget trips (`None` when
    /// unbounded). Used to size [`ExecContext::subcontext`] budgets for
    /// voluntary side-work.
    pub fn remaining_rows(&self) -> Option<u64> {
        self.max_rows
            .map(|limit| limit.saturating_sub(self.counters.rows.load(Ordering::Relaxed)))
    }

    /// Estimated live bytes still chargeable before the budget trips
    /// (`None` when unbounded).
    pub fn remaining_bytes(&self) -> Option<u64> {
        self.max_bytes
            .map(|limit| limit.saturating_sub(self.counters.live_bytes.load(Ordering::Relaxed)))
    }

    /// Non-erroring deadline probe, for callers that degrade rather
    /// than fail (plan search falls back to the static heuristic).
    pub fn time_exhausted(&self) -> bool {
        self.cancel.is_cancelled()
            || self
                .deadline
                .is_some_and(|deadline| Instant::now() > deadline)
    }

    /// Record a graceful degradation (visible in [`ExecStats`]).
    pub fn record_degradation(&self, stage: &str, detail: impl Into<String>) {
        self.degradations
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Degradation {
                stage: stage.to_string(),
                detail: detail.into(),
            });
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> ExecStats {
        ExecStats {
            rows: self.counters.rows.load(Ordering::Relaxed),
            bytes: self.counters.bytes.load(Ordering::Relaxed),
            workers: self.counters.workers.load(Ordering::Relaxed),
            spilled_bytes: self.counters.spilled_bytes.load(Ordering::Relaxed),
            spills: self.counters.spills.load(Ordering::Relaxed),
            io_retries: self.counters.io_retries.load(Ordering::Relaxed),
            corruption_recoveries: self.counters.corruption_recoveries.load(Ordering::Relaxed),
            spill_files_live: self.spill.as_ref().map_or(0, |d| d.live_files()),
            degradations: self
                .degradations
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .clone(),
        }
    }

    fn check_cancel_deadline(&self) -> Result<()> {
        if self.cancel.is_cancelled() {
            return Err(EngineError::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            let now = Instant::now();
            if now > deadline {
                return Err(EngineError::ResourceExhausted {
                    resource: Resource::Time,
                    limit: self.timeout_ms,
                    observed: now
                        .duration_since(self.start)
                        .as_millis()
                        .min(u64::MAX as u128) as u64,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_fails() {
        let ctx = ExecContext::unbounded();
        for _ in 0..10_000 {
            ctx.charge_row(4).unwrap();
        }
        assert_eq!(ctx.stats().rows, 10_000);
    }

    #[test]
    fn row_budget_trips_exactly() {
        let ctx = ExecContext::unbounded().with_max_rows(10);
        for _ in 0..10 {
            ctx.charge_row(2).unwrap();
        }
        let err = ctx.charge_row(2).unwrap_err();
        assert_eq!(
            err,
            EngineError::ResourceExhausted {
                resource: Resource::Rows,
                limit: 10,
                observed: 11,
            }
        );
    }

    #[test]
    fn mem_budget_trips() {
        let ctx = ExecContext::unbounded().with_mem_budget(100);
        let err = (0..100).find_map(|_| ctx.charge_row(8).err()).unwrap();
        assert!(matches!(
            err,
            EngineError::ResourceExhausted {
                resource: Resource::Memory,
                ..
            }
        ));
    }

    #[test]
    fn cancellation_observed_at_entry() {
        let ctx = ExecContext::unbounded();
        ctx.cancel_token().cancel();
        assert_eq!(ctx.enter("Select").unwrap_err(), EngineError::Cancelled);
        assert!(ctx.time_exhausted());
    }

    #[test]
    fn expired_deadline_reports_time() {
        let ctx = ExecContext::unbounded().with_timeout(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        let err = ctx.enter("Scan").unwrap_err();
        assert!(matches!(
            err,
            EngineError::ResourceExhausted {
                resource: Resource::Time,
                limit: 0,
                ..
            }
        ));
    }

    #[test]
    fn absolute_deadline_counts_time_already_spent() {
        // A deadline stamped in the past trips immediately, even though
        // no time elapses after the context learns about it — queue wait
        // counts against the budget.
        let ctx = ExecContext::unbounded();
        std::thread::sleep(Duration::from_millis(2));
        let ctx = ctx.with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(ctx.remaining_time(), Some(Duration::ZERO));
        let err = ctx.enter("Scan").unwrap_err();
        assert!(matches!(
            err,
            EngineError::ResourceExhausted {
                resource: Resource::Time,
                ..
            }
        ));
        // A comfortable future deadline leaves headroom.
        let ctx = ExecContext::unbounded().with_deadline(Instant::now() + Duration::from_secs(60));
        assert!(ctx.remaining_time().unwrap() > Duration::from_secs(30));
        ctx.enter("Scan").unwrap();
    }

    #[test]
    fn subcontext_fresh_rows_shared_cancel() {
        let ctx = ExecContext::unbounded().with_max_rows(5);
        let child = ctx.subcontext(Some(2), None);
        child.charge_row(1).unwrap();
        child.charge_row(1).unwrap();
        assert!(child.charge_row(1).is_err());
        // Parent unaffected by the child's charges.
        assert_eq!(ctx.stats().rows, 0);
        for _ in 0..5 {
            ctx.charge_row(1).unwrap();
        }
        // Cancellation reaches the child.
        ctx.cancel_token().cancel();
        assert_eq!(child.enter("Union").unwrap_err(), EngineError::Cancelled);
    }

    #[test]
    fn threads_clamped_and_workers_tracked() {
        let ctx = ExecContext::unbounded().with_threads(0);
        assert_eq!(ctx.threads(), 1);
        let ctx = ctx.with_threads(4);
        assert_eq!(ctx.threads(), 4);
        ctx.note_workers(2);
        ctx.note_workers(4);
        ctx.note_workers(3);
        assert_eq!(ctx.stats().workers, 4);
        // Subcontexts inherit the thread cap.
        assert_eq!(ctx.subcontext(None, None).threads(), 4);
    }

    #[test]
    fn degradations_shared_across_subcontexts() {
        let ctx = ExecContext::unbounded();
        let child = ctx.subcontext(Some(1), None);
        child.record_degradation("dynamic-filter", "skipped item probe");
        assert_eq!(ctx.stats().degradations.len(), 1);
        assert_eq!(ctx.stats().degradations[0].stage, "dynamic-filter");
    }

    #[test]
    fn released_bytes_free_budget_headroom() {
        let cost = row_cost(8);
        let ctx = ExecContext::unbounded().with_mem_budget(4 * cost);
        for _ in 0..4 {
            ctx.charge_row(8).unwrap();
        }
        assert!(ctx.mem_would_trip(cost));
        assert!(ctx.charge_row(8).is_err());
        // Flushing to disk releases live bytes; the budget recovers but
        // cumulative stats keep counting.
        ctx.release_bytes(4 * cost);
        assert!(!ctx.mem_would_trip(cost));
        for _ in 0..3 {
            ctx.charge_row(8).unwrap();
        }
        assert_eq!(ctx.stats().rows, 8);
        assert!(ctx.stats().bytes >= 8 * cost);
    }

    #[test]
    fn release_saturates_at_zero() {
        let ctx = ExecContext::unbounded().with_mem_budget(1000);
        ctx.charge_row(2).unwrap();
        ctx.release_bytes(u64::MAX);
        assert_eq!(ctx.remaining_bytes(), Some(1000));
    }

    #[test]
    fn spill_plumbing_and_counters() {
        let ctx = ExecContext::unbounded();
        assert!(!ctx.spill_enabled());
        assert!(!ctx.mem_would_trip(u64::MAX / 2));
        let dir = Arc::new(qf_storage::SpillDir::create_temp().unwrap());
        let ctx = ctx.with_spill(Arc::clone(&dir));
        assert!(ctx.spill_enabled());
        assert!(ctx.spill_dir().is_some());
        ctx.note_spill(100);
        ctx.note_spill(28);
        let stats = ctx.stats();
        assert_eq!(stats.spilled_bytes, 128);
        assert_eq!(stats.spills, 2);
        // Subcontexts inherit the spill directory.
        assert!(ctx.subcontext(None, None).spill_enabled());
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn fault_point_fails_nth_entry() {
        let ctx = ExecContext::unbounded().with_fault_point(3);
        ctx.enter("Scan").unwrap();
        ctx.enter("Scan").unwrap();
        let err = ctx.enter("HashJoin").unwrap_err();
        assert_eq!(
            err,
            EngineError::FaultInjected {
                operator: "HashJoin",
                invocation: 3
            }
        );
        // Only the Nth invocation fails; later ones succeed.
        ctx.enter("Project").unwrap();
    }
}
