//! Where an operator's rows live: resident, or in sorted spill runs.
//!
//! The operator tree in [`crate::exec`] is written once; this module
//! holds the two places where "in memory" and "out of core" differ.
//!
//! * **The sink.** Every operator's output goes through a [`Sink`]. It
//!   buffers tuples and finishes as an ordinary [`Relation`] — unless it
//!   owns a spill directory and the next charge would trip the memory
//!   budget, in which case it flushes the buffer as a
//!   sorted/deduplicated run file, records a `spill` degradation plus
//!   bytes-spilled in [`crate::ExecStats`], and finishes as
//!   [`OpOut::Spilled`]. Consumers k-way-merge the runs with cross-run
//!   deduplication, reconstructing exactly the canonical sorted set a
//!   [`Relation`] would hold, so results are bitwise-identical either
//!   way.
//! * **Grace-capable state.** The two stateful operators (a join's
//!   build side, a group-by's accumulator map) hand inputs too large to
//!   hold to [`Grace`]: it partitions them by a salted hash of the key
//!   columns into disk partitions and runs the operator's own kernel on
//!   each co-partitioned slice, recursing with a fresh salt on skewed
//!   slices (depth capped — a partition of identical keys cannot be
//!   split further). Partition disjointness makes per-slice results
//!   independent, so the sink's global sort/dedup yields the same
//!   relation as one big in-memory pass. A partition is itself an
//!   [`OpOut::Spilled`] of one run: streaming a canonical input through
//!   a hash router keeps each partition sorted and deduplicated.
//!
//! Memory accounting tracks *residency* (see [`crate::governor`]): a
//! sink flush releases the buffered bytes it wrote to disk, and the
//! tree releases an input's live bytes once it is consumed
//! ([`OpOut::release`]).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use qf_storage::{
    FastHasher, Relation, Schema, SpillDir, SpillFile, SpillReader, SpillWriter, Tuple,
};

use crate::error::{EngineError, Result};
use crate::governor::{row_cost, ExecContext};

/// Fan-out of one Grace partitioning pass.
const N_PARTS: usize = 8;

/// Transient I/O errors absorbed per spill-file write before giving up
/// (whole-file granularity: a partially written run is discarded and
/// rewritten from the still-buffered tuples).
const MAX_IO_RETRIES: u32 = 3;

/// Exponential-ish backoff before transient-error retry `attempt`
/// (1-based).
fn retry_backoff(attempt: u32) {
    std::thread::sleep(std::time::Duration::from_millis(1 << attempt.min(4)));
}

/// Maximum recursive repartitioning depth. A slice that stays too big
/// at this depth (all-identical keys) is processed in memory and may
/// honestly trip the budget.
const MAX_DEPTH: u64 = 3;

/// An operator's output: either an ordinary in-memory relation or a set
/// of sorted/deduplicated spill runs whose merge is the relation.
pub(crate) enum OpOut {
    Mem(Relation),
    Spilled(SpilledRel),
}

pub(crate) struct SpilledRel {
    schema: Schema,
    runs: Runs,
}

/// Sorted, deduplicated run files private to one sink or operator
/// output.
struct Runs {
    dir: Arc<SpillDir>,
    /// File-name tag, and the operator named in the `spill` degradation.
    op: &'static str,
    files: Vec<SpillFile>,
    /// Upper bound on distinct tuples (cross-run duplicates inflate it).
    rows: u64,
}

impl Drop for Runs {
    /// Run files are single-consumption: whether the merge completed or
    /// the pipeline aborted mid-way, they are dead once the value drops.
    /// Removing them here (best effort) is what keeps the spill dir
    /// empty after a run — the leak check in `ExecStats` counts on it.
    fn drop(&mut self) {
        for run in &self.files {
            let _ = self.dir.remove(&run.path);
        }
    }
}

impl Runs {
    /// K-way merge over all runs with cross-run deduplication: each run
    /// is sorted and deduplicated, so a heap of per-run cursors yields a
    /// globally sorted stream in which duplicates are adjacent.
    fn each_merged(
        &self,
        ctx: &ExecContext,
        f: &mut dyn FnMut(&Tuple) -> Result<()>,
    ) -> Result<()> {
        let mut readers: Vec<SpillReader> = Vec::with_capacity(self.files.len());
        let mut heap: BinaryHeap<Reverse<(Tuple, usize)>> = BinaryHeap::new();
        for (i, run) in self.files.iter().enumerate() {
            let mut r = self.dir.reader(&run.path)?;
            if let Some(t) = r.next_tuple()? {
                heap.push(Reverse((t, i)));
            }
            readers.push(r);
        }
        let mut last: Option<Tuple> = None;
        while let Some(Reverse((t, i))) = heap.pop() {
            ctx.tick()?;
            if let Some(next) = readers[i].next_tuple()? {
                heap.push(Reverse((next, i)));
            }
            if last.as_ref() != Some(&t) {
                f(&t)?;
                last = Some(t);
            }
        }
        Ok(())
    }
}

impl OpOut {
    pub(crate) fn schema(&self) -> &Schema {
        match self {
            OpOut::Mem(r) => r.schema(),
            OpOut::Spilled(s) => &s.schema,
        }
    }

    pub(crate) fn arity(&self) -> usize {
        self.schema().arity()
    }

    pub(crate) fn is_spilled(&self) -> bool {
        matches!(self, OpOut::Spilled(_))
    }

    /// Upper bound on the number of tuples (exact when resident, and
    /// zero only when empty).
    pub(crate) fn rows_hint(&self) -> u64 {
        match self {
            OpOut::Mem(r) => r.len() as u64,
            OpOut::Spilled(s) => s.runs.rows,
        }
    }

    /// Stream every tuple in canonical (sorted, deduplicated) order.
    pub(crate) fn each(
        &self,
        ctx: &ExecContext,
        f: &mut dyn FnMut(&Tuple) -> Result<()>,
    ) -> Result<()> {
        match self {
            OpOut::Mem(r) => r.iter().try_for_each(|t| {
                ctx.tick()?;
                f(t)
            }),
            OpOut::Spilled(s) => s.runs.each_merged(ctx, f),
        }
    }

    /// The rows as a resident `Relation`: the relation itself, or the
    /// merged runs, charged as they land.
    pub(crate) fn load(&self, ctx: &ExecContext) -> Result<Relation> {
        match self {
            OpOut::Mem(r) => Ok(r.clone()),
            OpOut::Spilled(s) => {
                let width = s.schema.arity();
                let mut out: Vec<Tuple> = Vec::new();
                s.runs.each_merged(ctx, &mut |t| {
                    ctx.charge_row(width)?;
                    out.push(t.clone());
                    Ok(())
                })?;
                // The merged stream is strictly increasing (cross-run
                // dedup), so the no-sort constructor applies.
                Ok(Relation::from_sorted_dedup(s.schema.clone(), out))
            }
        }
    }

    /// Release the live bytes of a fully consumed input and drop it.
    /// (Spilled runs hold no live bytes; dropping removes their files.)
    pub(crate) fn release(self, ctx: &ExecContext) {
        if let OpOut::Mem(r) = &self {
            release_rel(ctx, r);
        }
    }
}

/// Release the live bytes of a resident relation that is done with.
pub(crate) fn release_rel(ctx: &ExecContext, rel: &Relation) {
    ctx.release_bytes(rel.len() as u64 * row_cost(rel.schema().arity()));
}

/// Operator-output collector. [`Sink::push`] charges a tuple and
/// buffers it; a sink that owns a spill directory first flushes the
/// buffer as a sorted/deduplicated run when that charge would trip the
/// memory budget.
pub(crate) struct Sink<'a> {
    ctx: &'a ExecContext,
    width: usize,
    buf: Vec<Tuple>,
    /// `Some` when this sink may flush.
    runs: Option<Runs>,
}

impl<'a> Sink<'a> {
    /// An operator's output sink; flush-capable when given a `dir`.
    pub(crate) fn new(
        ctx: &'a ExecContext,
        op: &'static str,
        width: usize,
        dir: Option<Arc<SpillDir>>,
    ) -> Sink<'a> {
        let runs = dir.map(|dir| Runs {
            dir,
            op,
            files: Vec::new(),
            rows: 0,
        });
        Sink {
            ctx,
            width,
            buf: Vec::new(),
            runs,
        }
    }

    /// A parallel worker's private collector: charges and buffers, never
    /// flushes; its rows go to the operator's sink via [`Sink::absorb`].
    pub(crate) fn collector(ctx: &'a ExecContext, width: usize, capacity: usize) -> Sink<'a> {
        Sink {
            ctx,
            width,
            buf: Vec::with_capacity(capacity),
            runs: None,
        }
    }

    pub(crate) fn width(&self) -> usize {
        self.width
    }

    #[inline]
    pub(crate) fn push(&mut self, t: Tuple) -> Result<()> {
        if self.runs.is_some()
            && !self.buf.is_empty()
            && self.ctx.mem_would_trip(row_cost(self.width))
        {
            self.flush()?;
        }
        // If this still trips after a flush, other live state owns the
        // budget; the error is honest.
        self.ctx.charge_row(self.width)?;
        self.buf.push(t);
        Ok(())
    }

    /// Take rows their producer has already charged (a parallel
    /// worker's chunk, a finished group map).
    pub(crate) fn absorb(&mut self, mut rows: Vec<Tuple>) {
        if self.buf.is_empty() {
            self.buf = rows;
        } else {
            self.buf.append(&mut rows);
        }
    }

    /// The buffered rows of a worker-local collector.
    pub(crate) fn into_rows(self) -> Vec<Tuple> {
        self.buf
    }

    /// Write the buffer out as one run and release its live bytes. A
    /// no-op for a sink that cannot flush.
    #[cold]
    pub(crate) fn flush(&mut self) -> Result<()> {
        let Sink {
            ctx,
            width,
            buf,
            runs,
        } = self;
        let Some(runs) = runs.as_mut().filter(|_| !buf.is_empty()) else {
            return Ok(());
        };
        // Every buffered tuple was charged, duplicates included.
        let charged = buf.len() as u64 * row_cost(*width);
        buf.sort_unstable();
        buf.dedup();
        // Whole-file retry: the tuples are still buffered, so a failed
        // write costs nothing but the discarded partial file. Transient
        // errors get bounded retries with backoff; ENOSPC degrades to
        // memory-only (below); anything else is a hard, typed error.
        let mut attempt = 0u32;
        let file = loop {
            let path = runs.dir.alloc(runs.op);
            match write_run(&runs.dir, path.clone(), *width, buf) {
                Ok(file) => break file,
                Err(e) => {
                    let _ = runs.dir.remove(&path);
                    if e.is_transient() && attempt < MAX_IO_RETRIES {
                        attempt += 1;
                        ctx.note_io_retry();
                        retry_backoff(attempt);
                    } else if e.is_disk_full() {
                        return absorb_enospc(ctx, *width, buf, runs);
                    } else {
                        return Err(e.into());
                    }
                }
            }
        };
        if runs.files.is_empty() {
            ctx.record_degradation(
                "spill",
                format!("{}: spilled to disk under memory pressure", runs.op),
            );
        }
        ctx.note_spill(file.bytes);
        ctx.release_bytes(charged);
        runs.rows += file.rows;
        runs.files.push(file);
        buf.clear();
        Ok(())
    }

    /// Finish as a relation — or, if anything was flushed, as spilled
    /// runs. `sorted` promises the pushed stream was strictly
    /// increasing, so a resident result skips the sort.
    pub(crate) fn finish(mut self, schema: Schema, sorted: bool) -> Result<OpOut> {
        if self.runs.as_ref().is_some_and(|r| !r.files.is_empty()) {
            // May hit ENOSPC and reabsorb everything.
            self.flush()?;
        }
        match self.runs {
            Some(runs) if !runs.files.is_empty() => Ok(OpOut::Spilled(SpilledRel { schema, runs })),
            _ if sorted => Ok(OpOut::Mem(Relation::from_sorted_dedup(schema, self.buf))),
            _ => {
                let charged = self.buf.len();
                let rel = Relation::from_tuples(schema, self.buf);
                // Every pushed tuple was charged, duplicates included;
                // only the distinct rows stay resident.
                let duplicates = (charged - rel.len()) as u64;
                self.ctx.release_bytes(duplicates * row_cost(self.width));
                Ok(OpOut::Mem(rel))
            }
        }
    }
}

/// ENOSPC policy: the disk is full, so spilling can no longer buy
/// headroom. Reabsorb the completed runs (freeing their disk space for
/// anyone else on the volume), waive the memory budget, record the
/// degradation, and continue purely in memory. The run still terminates
/// with a correct answer — just without its memory ceiling — instead of
/// aborting.
fn absorb_enospc(
    ctx: &ExecContext,
    width: usize,
    buf: &mut Vec<Tuple>,
    runs: &mut Runs,
) -> Result<()> {
    ctx.waive_mem_budget();
    ctx.record_degradation(
        "spill-enospc",
        format!(
            "{}: disk full while spilling; reabsorbed {} completed run(s) and continuing \
             in memory with the budget waived",
            runs.op,
            runs.files.len()
        ),
    );
    for run in std::mem::take(&mut runs.files) {
        let mut r = runs.dir.reader(&run.path)?;
        while let Some(t) = r.next_tuple()? {
            // Waived budget: only the row cap or deadline can trip.
            ctx.charge_row(width)?;
            buf.push(t);
        }
        drop(r);
        runs.dir.remove(&run.path)?;
    }
    buf.sort_unstable();
    buf.dedup();
    runs.rows = 0;
    Ok(())
}

/// Write one sorted/deduplicated run through the directory's vfs.
fn write_run(
    dir: &SpillDir,
    path: std::path::PathBuf,
    width: usize,
    tuples: &[Tuple],
) -> qf_storage::Result<SpillFile> {
    let mut w = SpillWriter::create_on(&**dir.vfs(), path, width)?;
    for t in tuples {
        w.write_tuple(t)?;
    }
    w.finish()
}

fn part_of(t: &Tuple, keys: &[usize], salt: u64) -> usize {
    let mut h = FastHasher::default();
    salt.hash(&mut h);
    for &k in keys {
        t.get(k).hash(&mut h);
    }
    // Partition by the HIGH bits: the Fx multiply only mixes upward, so
    // the low bits of `finish()` are a salt-*permuted* function of the
    // key's low bits alone — `finish() % N_PARTS` would glue every key
    // sharing `v mod N_PARTS` into one partition at every salt,
    // defeating recursive repartitioning entirely.
    ((h.finish() >> 32) % N_PARTS as u64) as usize
}

/// Route `src` into [`N_PARTS`] disk partitions by a salted hash of
/// `keys`. Every partition file is counted as spilled bytes.
fn partition(
    ctx: &ExecContext,
    dir: &Arc<SpillDir>,
    tag: &'static str,
    keys: &[usize],
    salt: u64,
    src: &OpOut,
) -> Result<Vec<OpOut>> {
    // Writer *creation* precedes any consumption of the source, so
    // transient errors here are safely retryable. A mid-stream failure
    // propagates typed (the plan-level corruption/recompute loop in
    // `execute_with` is the recovery of last resort).
    let mut writers: Vec<SpillWriter> = Vec::with_capacity(N_PARTS);
    for _ in 0..N_PARTS {
        let mut attempt = 0u32;
        let w = loop {
            match dir.writer(tag, src.arity()) {
                Ok(w) => break w,
                Err(e) if e.is_transient() && attempt < MAX_IO_RETRIES => {
                    attempt += 1;
                    ctx.note_io_retry();
                    retry_backoff(attempt);
                }
                Err(e) => return Err(e.into()),
            }
        };
        writers.push(w);
    }
    let mut failed: Option<EngineError> = src
        .each(ctx, &mut |t| {
            writers[part_of(t, keys, salt)].write_tuple(t)?;
            Ok(())
        })
        .err();
    let mut parts = Vec::with_capacity(N_PARTS);
    for w in writers {
        let path = w.path().to_path_buf();
        if failed.is_none() {
            match w.finish() {
                Ok(file) => {
                    ctx.note_spill(file.bytes);
                    parts.push(OpOut::Spilled(SpilledRel {
                        schema: src.schema().clone(),
                        runs: Runs {
                            dir: Arc::clone(dir),
                            op: tag,
                            rows: file.rows,
                            files: vec![file],
                        },
                    }));
                    continue;
                }
                Err(e) => failed = Some(e.into()),
            }
        } else {
            drop(w);
        }
        // Abandon (and remove) partial partition files so a recompute
        // starts from a clean directory.
        let _ = dir.remove(&path);
    }
    match failed {
        // Dropping `parts` here removes any already-finished files.
        Some(e) => Err(e),
        None => Ok(parts),
    }
}

/// Out-of-core evaluation of a stateful operator: partition the
/// operator's inputs by a salted hash of its key columns — keys never
/// straddle partitions — and run the operator's own kernel on each
/// co-partitioned slice whose state fits.
pub(crate) struct Grace<'a> {
    pub(crate) ctx: &'a ExecContext,
    pub(crate) dir: &'a Arc<SpillDir>,
    /// Per input: partition-file tag and key columns.
    pub(crate) inputs: &'a [(&'static str, &'a [usize])],
    /// Worst-case resident bytes of the operator's state over a slice.
    pub(crate) state_bytes: &'a dyn Fn(&[OpOut]) -> u64,
    /// The operator's kernel over one slice (one partition per input).
    pub(crate) kernel: &'a mut dyn FnMut(&[OpOut], &mut Sink<'_>) -> Result<()>,
}

impl Grace<'_> {
    /// Partition `sources` (one per input) with `salt` and process each
    /// slice. A source is done with once it is on disk: its live bytes
    /// are released (or its files removed) before any slice runs, so the
    /// slices get the headroom.
    pub(crate) fn split(
        &mut self,
        sources: Vec<OpOut>,
        salt: u64,
        sink: &mut Sink<'_>,
    ) -> Result<()> {
        let mut parts = Vec::with_capacity(sources.len());
        for (src, (tag, keys)) in sources.into_iter().zip(self.inputs) {
            parts.push(partition(self.ctx, self.dir, tag, keys, salt, &src)?.into_iter());
            src.release(self.ctx);
        }
        for _ in 0..N_PARTS {
            let slice: Vec<OpOut> = parts.iter_mut().filter_map(Iterator::next).collect();
            self.slice(slice, salt + 1, sink)?;
        }
        Ok(())
    }

    /// Run the kernel on one slice, repartitioning first (fresh salt)
    /// while its state would trip the budget.
    fn slice(&mut self, slice: Vec<OpOut>, depth: u64, sink: &mut Sink<'_>) -> Result<()> {
        // An empty partition joins to nothing and groups to nothing.
        if slice.iter().any(|p| p.rows_hint() == 0) {
            return Ok(());
        }
        let bytes = (self.state_bytes)(&slice);
        if self.ctx.mem_would_trip(bytes) {
            // Free the output sink's buffer first — the state deserves
            // the headroom, and the flush may make recursion unnecessary.
            sink.flush()?;
        }
        if depth < MAX_DEPTH && self.ctx.mem_would_trip(bytes) {
            return self.split(slice, depth, sink);
        }
        (self.kernel)(&slice, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, execute_with};
    use crate::expr::{CmpOp, Predicate};
    use crate::plan::{AggFn, PhysicalPlan};
    use qf_storage::{Database, Value};

    fn big_db(n: i64) -> Database {
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("edges", &["src", "dst"]),
            (0..n)
                .map(|i| vec![Value::int(i % 37), Value::int(i % 53)])
                .collect(),
        ));
        db.insert(Relation::from_rows(
            Schema::new("labels", &["node", "tag"]),
            (0..n / 2)
                .map(|i| vec![Value::int(i % 53), Value::str(&format!("t{}", i % 11))])
                .collect(),
        ));
        db
    }

    fn spill_ctx(budget: u64, threads: usize) -> ExecContext {
        ExecContext::unbounded()
            .with_mem_budget(budget)
            .with_threads(threads)
            .with_spill(Arc::new(qf_storage::SpillDir::create_temp().unwrap()))
    }

    /// A join+select+aggregate plan with an output much larger than the
    /// base relations.
    fn explosive_plan() -> PhysicalPlan {
        PhysicalPlan::aggregate(
            PhysicalPlan::select(
                PhysicalPlan::hash_join(
                    PhysicalPlan::scan("edges"),
                    PhysicalPlan::scan("labels"),
                    vec![(1, 0)],
                ),
                vec![Predicate::col_col(0, CmpOp::Lt, 2)],
            ),
            vec![3],
            AggFn::Count,
        )
    }

    #[test]
    fn spilled_run_matches_in_memory() {
        let db = big_db(4000);
        let expected = execute(&explosive_plan(), &db).unwrap();
        for threads in [1usize, 4] {
            // Budget above the scans (~4000+2000 rows * 48B ≈ 290 KB)
            // but far below the join output.
            let ctx = spill_ctx(400 << 10, threads);
            let got = execute_with(&explosive_plan(), &db, &ctx).unwrap();
            assert_eq!(got.tuples(), expected.tuples(), "threads={threads}");
            assert_eq!(got.schema().columns(), expected.schema().columns());
            let stats = ctx.stats();
            assert!(stats.spilled_bytes > 0, "expected spilling: {stats:?}");
            assert!(
                stats.degradations.iter().any(|d| d.stage == "spill"),
                "{stats:?}"
            );
            // Leak check: every run file was consumed and removed.
            assert_eq!(stats.spill_files_live, 0, "leaked spill files: {stats:?}");
        }
    }

    #[test]
    fn ungoverned_budget_would_have_tripped() {
        // Sanity for the acceptance criterion: the same budget without
        // a spill dir aborts with ResourceExhausted(Memory).
        let db = big_db(4000);
        let ctx = ExecContext::unbounded().with_mem_budget(400 << 10);
        let err = execute_with(&explosive_plan(), &db, &ctx).unwrap_err();
        assert!(matches!(
            err,
            EngineError::ResourceExhausted {
                resource: crate::Resource::Memory,
                ..
            }
        ));
    }

    #[test]
    fn grace_join_recurses_on_skewed_partitions() {
        // Both join inputs are cross-join outputs too big for the
        // budget (so they arrive spilled), and every first-level hash
        // partition of the 40-key join column still exceeds the budget
        // — forcing the salted recursive repartition before any
        // partition fits.
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("a", &["k", "v"]),
            (0..40)
                .map(|i| vec![Value::int(i), Value::int(i + 100)])
                .collect(),
        ));
        db.insert(Relation::from_rows(
            Schema::new("b", &["k", "w"]),
            (0..40)
                .map(|i| vec![Value::int(i), Value::int(i + 200)])
                .collect(),
        ));
        let cross = |name: &str| {
            PhysicalPlan::hash_join(PhysicalPlan::scan(name), PhysicalPlan::scan(name), vec![])
        };
        let plan = PhysicalPlan::aggregate(
            PhysicalPlan::hash_join(cross("a"), cross("b"), vec![(0, 0)]),
            vec![],
            AggFn::Count,
        );
        let expected = execute(&plan, &db).unwrap();
        let ctx = spill_ctx(12 << 10, 1);
        let got = execute_with(&plan, &db, &ctx).unwrap();
        assert_eq!(got.tuples(), expected.tuples());
        // 40 keys × 40 left × 40 right pairings.
        assert_eq!(got.tuples()[0].get(0), Value::int(40 * 40 * 40));
        assert!(ctx.stats().spilled_bytes > 0);
    }

    #[test]
    fn spilled_union_and_project_dedup_across_runs() {
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("a", &["x", "y"]),
            (0..3000)
                .map(|i| vec![Value::int(i), Value::int(i % 7)])
                .collect(),
        ));
        db.insert(Relation::from_rows(
            Schema::new("b", &["x", "y"]),
            (1500..4500)
                .map(|i| vec![Value::int(i), Value::int(i % 7)])
                .collect(),
        ));
        // Union overlaps; projection collapses to 7 values. Duplicates
        // appear across spill runs and must dedup at the merge.
        let plan = PhysicalPlan::project(
            PhysicalPlan::union(vec![PhysicalPlan::scan("a"), PhysicalPlan::scan("b")]),
            vec![1],
        );
        let expected = execute(&plan, &db).unwrap();
        let ctx = spill_ctx(150 << 10, 2);
        let got = execute_with(&plan, &db, &ctx).unwrap();
        assert_eq!(got.tuples(), expected.tuples());
        assert_eq!(got.len(), 7);
    }

    #[test]
    fn spill_mode_without_pressure_is_identical() {
        // A spill dir with a huge budget (or none) must not change
        // results or spill anything.
        let db = big_db(1000);
        let expected = execute(&explosive_plan(), &db).unwrap();
        let ctx = ExecContext::unbounded()
            .with_spill(Arc::new(qf_storage::SpillDir::create_temp().unwrap()));
        let got = execute_with(&explosive_plan(), &db, &ctx).unwrap();
        assert_eq!(got.tuples(), expected.tuples());
        assert_eq!(ctx.stats().spilled_bytes, 0);
        assert_eq!(ctx.stats().spills, 0);
    }

    fn chaos_ctx(chaos: qf_storage::ChaosFs, budget: u64) -> ExecContext {
        let dir = qf_storage::SpillDir::create_on(Arc::new(chaos), &std::env::temp_dir()).unwrap();
        ExecContext::unbounded()
            .with_mem_budget(budget)
            .with_threads(1)
            .with_spill(Arc::new(dir))
    }

    #[test]
    fn enospc_during_spill_reabsorbs_and_degrades() {
        use qf_storage::{ChaosFs, Fault, OpClass};
        let db = big_db(4000);
        let expected = execute(&explosive_plan(), &db).unwrap();
        // Create #1 is the spill dir itself; a later create is some
        // sink run. The documented policy: free completed runs, waive
        // the budget, finish in memory with the degradation recorded.
        let ctx = chaos_ctx(
            ChaosFs::quiet().with_fault(OpClass::Create, 4, Fault::DiskFull),
            400 << 10,
        );
        let got = execute_with(&explosive_plan(), &db, &ctx).unwrap();
        assert_eq!(got.tuples(), expected.tuples());
        let stats = ctx.stats();
        assert!(
            stats.degradations.iter().any(|d| d.stage == "spill-enospc"),
            "{stats:?}"
        );
        assert_eq!(stats.spill_files_live, 0, "{stats:?}");
    }

    #[test]
    fn transient_write_errors_absorbed_by_whole_run_retry() {
        use qf_storage::{ChaosFs, Fault, OpClass};
        let db = big_db(4000);
        let expected = execute(&explosive_plan(), &db).unwrap();
        let ctx = chaos_ctx(
            ChaosFs::quiet().with_fault(OpClass::Write, 3, Fault::Transient),
            400 << 10,
        );
        let got = execute_with(&explosive_plan(), &db, &ctx).unwrap();
        assert_eq!(got.tuples(), expected.tuples());
        let stats = ctx.stats();
        assert!(stats.io_retries >= 1, "{stats:?}");
        assert_eq!(stats.spill_files_live, 0, "{stats:?}");
    }

    #[test]
    fn corrupt_spill_run_recovered_by_recompute() {
        use qf_storage::{ChaosFs, Fault, OpClass};
        let db = big_db(4000);
        let expected = execute(&explosive_plan(), &db).unwrap();
        // One scheduled bit flip lands in some run's payload; the
        // writer believes it succeeded, the reader's frame checksum
        // catches it, and the plan is recomputed (fault is one-shot).
        let ctx = chaos_ctx(
            ChaosFs::quiet().with_fault(OpClass::Write, 3, Fault::BitFlip),
            400 << 10,
        );
        let got = execute_with(&explosive_plan(), &db, &ctx).unwrap();
        assert_eq!(got.tuples(), expected.tuples());
        let stats = ctx.stats();
        assert_eq!(stats.corruption_recoveries, 1, "{stats:?}");
        assert!(
            stats
                .degradations
                .iter()
                .any(|d| d.stage == "spill-corruption"),
            "{stats:?}"
        );
        assert_eq!(stats.spill_files_live, 0, "{stats:?}");
    }

    #[test]
    fn anti_join_and_cross_product_under_spill() {
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("l", &["a"]),
            (0..2000).map(|i| vec![Value::int(i)]).collect(),
        ));
        db.insert(Relation::from_rows(
            Schema::new("r", &["b"]),
            (0..40).map(|i| vec![Value::int(i * 3)]).collect(),
        ));
        let anti = PhysicalPlan::anti_join(
            PhysicalPlan::scan("l"),
            PhysicalPlan::scan("r"),
            vec![(0, 0)],
        );
        let cross = PhysicalPlan::aggregate(
            PhysicalPlan::hash_join(PhysicalPlan::scan("l"), PhysicalPlan::scan("r"), vec![]),
            vec![1],
            AggFn::Count,
        );
        for plan in [anti, cross] {
            let expected = execute(&plan, &db).unwrap();
            // Budget above the resident scans (~66 KB) but below the
            // 80k-row cross-product output.
            let ctx = spill_ctx(96 << 10, 1);
            let got = execute_with(&plan, &db, &ctx).unwrap();
            assert_eq!(got.tuples(), expected.tuples());
        }
    }
}
