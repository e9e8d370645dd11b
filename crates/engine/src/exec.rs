//! Physical plan execution.
//!
//! [`execute`] evaluates a [`PhysicalPlan`] against a [`Database`] and
//! returns a set-semantics [`Relation`]. Column names are propagated
//! through the tree so results stay self-describing (joins concatenate
//! names, aggregates append the aggregate's name), but all plan-level
//! references are positional.
//!
//! [`execute_with`] is the governed variant: every operator loop checks
//! the supplied [`ExecContext`] cooperatively, charging each tuple it
//! materializes *before* storing it, so a budgeted execution fails with
//! [`EngineError::ResourceExhausted`] / [`EngineError::Cancelled`]
//! instead of exhausting the machine. `execute` is simply
//! `execute_with` under an unbounded context.
//!
//! There is **one operator tree** (`Exec::eval`): each operator
//! evaluates its children to an operator output — a resident
//! `Relation` or sorted spill runs — runs its kernel once, and releases
//! the inputs it consumed. Row operators (select, project, anti-join
//! probe, union, join probe) are small emit-style kernels pushed
//! through `Exec::drive`; the group-by fold and the join's
//! build-index-and-probe loop ([`crate::merge`]) each exist once.
//!
//! The **route** an execution's rows take is decided once, in
//! `Exec::new`, from what the context can observe:
//!
//! * *Parallel collect* (the default): a resident input's sorted tuple
//!   slice is split into contiguous chunks processed on scoped worker
//!   threads (see [`crate::parallel`]), up to [`ExecContext::threads`]
//!   of them. Workers charge and collect per-chunk vectors; the
//!   operator's sink absorbs them in chunk order and canonicalizes, so
//!   results are identical to single-thread execution.
//! * *Single producer, flush-capable sinks*: when the context carries a
//!   spill directory **and** a memory budget some charge could trip,
//!   rows stream through sinks that flush sorted runs under pressure,
//!   and the two stateful operators Grace-partition inputs that are
//!   spilled or too large (see the `spill` module).

use std::sync::Arc;

use qf_storage::{Database, FastMap, HashIndex, Relation, Schema, SpillDir, Tuple, Value};

use crate::error::{EngineError, Result};
use crate::expr::Predicate;
use crate::governor::{row_cost, ExecContext};
use crate::parallel;
use crate::plan::{AggFn, PhysicalPlan};
use crate::spill::{release_rel, Grace, OpOut, Sink};

/// Evaluate `plan` against `db` with no resource limits.
pub fn execute(plan: &PhysicalPlan, db: &Database) -> Result<Relation> {
    execute_with(plan, db, &ExecContext::unbounded())
}

/// Evaluate `plan` against `db` under the governance of `ctx`.
///
/// When `ctx` carries a spill directory ([`ExecContext::with_spill`])
/// and a memory budget, operators that would trip the budget spill to
/// disk and continue instead of failing.
pub fn execute_with(plan: &PhysicalPlan, db: &Database, ctx: &ExecContext) -> Result<Relation> {
    let exec = Exec::new(ctx);
    // Corruption-recovery loop: a spill run whose frame checksum fails
    // verification is deleted state we can regenerate — the inputs are
    // still in the catalog — so recompute the pipeline (bounded) rather
    // than failing the query over a flipped bit. Live-byte accounting
    // from the abandoned attempt is left charged (shared counters; a
    // sibling wave step may own some), which is conservative: the retry
    // spills earlier, never later.
    let mut attempts = 0u32;
    loop {
        match exec.eval(plan, db).and_then(|out| out.load(ctx)) {
            Err(e) if e.is_corruption() && attempts < 2 => {
                attempts += 1;
                ctx.note_corruption_recovery();
                ctx.record_degradation(
                    "spill-corruption",
                    format!("{e}; recomputing pipeline (attempt {attempts})"),
                );
            }
            other => return other,
        }
    }
}

/// One governed execution: the context plus the route its rows take.
pub(crate) struct Exec<'a> {
    pub(crate) ctx: &'a ExecContext,
    /// `Some`: a single producer pushes through flush-capable sinks and
    /// Grace-capable states. `None`: parallel workers collect in memory.
    pub(crate) spill: Option<Arc<SpillDir>>,
}

impl<'a> Exec<'a> {
    /// The route decision: spilling needs somewhere to spill *and* a
    /// finite memory budget that a charge could trip. A spill directory
    /// alone never spills, so it must not cost the parallel route.
    fn new(ctx: &'a ExecContext) -> Exec<'a> {
        let spill = ctx.spill_dir().filter(|_| ctx.mem_would_trip(u64::MAX));
        Exec {
            ctx,
            spill: spill.cloned(),
        }
    }

    /// The parallel-collect route, whatever `ctx` carries: for callers
    /// that must hand back a resident `Relation` anyway.
    pub(crate) fn collecting(ctx: &'a ExecContext) -> Exec<'a> {
        Exec { ctx, spill: None }
    }

    pub(crate) fn sink(&self, op: &'static str, width: usize) -> Sink<'a> {
        Sink::new(self.ctx, op, width, self.spill.clone())
    }

    /// Run a row kernel over every tuple of `input`, output into `sink`.
    /// On the parallel-collect route workers run the kernel over
    /// contiguous chunks into private collectors and the sink absorbs
    /// the chunks in order; otherwise this thread pushes through `sink`
    /// itself, which may flush. `dense` says the kernel emits a row per
    /// input row, so collectors are sized up front.
    pub(crate) fn drive<K>(
        &self,
        input: &OpOut,
        sink: &mut Sink<'_>,
        dense: bool,
        kernel: K,
    ) -> Result<()>
    where
        K: Fn(&Tuple, &mut Sink<'_>) -> Result<()> + Sync,
    {
        let ctx = self.ctx;
        match (&self.spill, input) {
            (None, OpOut::Mem(rel)) => {
                let width = sink.width();
                let workers = parallel::workers_for(rel.len(), ctx.threads());
                ctx.note_workers(workers);
                let chunks =
                    parallel::par_chunks(rel.tuples(), workers, |chunk| -> Result<Vec<Tuple>> {
                        let capacity = if dense { chunk.len() } else { 0 };
                        let mut out = Sink::collector(ctx, width, capacity);
                        for t in chunk {
                            kernel(t, &mut out)?;
                        }
                        Ok(out.into_rows())
                    })?;
                // Contiguous chunks of a sorted set, concatenated in
                // chunk order, preserve whatever order the kernel does.
                chunks.into_iter().for_each(|chunk| sink.absorb(chunk));
                Ok(())
            }
            _ => input.each(ctx, &mut |t| kernel(t, sink)),
        }
    }

    /// A filtering row operator (keeps or drops each input row, so the
    /// output stays sorted): drive `kernel` over `input` into a fresh
    /// sink, release the consumed input, finish.
    fn filter<K>(&self, op: &'static str, input: OpOut, kernel: K) -> Result<OpOut>
    where
        K: Fn(&Tuple, &mut Sink<'_>) -> Result<()> + Sync,
    {
        let schema = input.schema().clone();
        let mut sink = self.sink(op, schema.arity());
        self.drive(&input, &mut sink, false, kernel)?;
        input.release(self.ctx);
        sink.finish(schema, true)
    }

    /// The operator tree.
    fn eval(&self, plan: &PhysicalPlan, db: &Database) -> Result<OpOut> {
        let ctx = self.ctx;
        match plan {
            PhysicalPlan::Scan { relation } => {
                ctx.enter("Scan")?;
                let rel = db.get(relation)?;
                // A scan materializes a working copy; charge it like any
                // other operator output, before cloning.
                ctx.charge_rows(rel.len() as u64, rel.schema().arity())?;
                Ok(OpOut::Mem(rel.clone()))
            }

            PhysicalPlan::Select { input, predicates } => {
                ctx.enter("Select")?;
                let child = self.eval(input, db)?;
                check_predicates(predicates, child.arity(), "Select")?;
                self.filter("select", child, |t, out| {
                    ctx.tick()?;
                    if predicates.iter().all(|p| p.eval(t)) {
                        out.push(t.clone())?;
                    }
                    Ok(())
                })
            }

            PhysicalPlan::Project { input, cols } => {
                ctx.enter("Project")?;
                let child = self.eval(input, db)?;
                check_columns(cols, child.arity(), "Project")?;
                let schema = Schema::from_columns("project", column_names(child.schema(), cols));
                let mut sink = self.sink("project", cols.len());
                self.drive(&child, &mut sink, true, |t, out| out.push(t.project(cols)))?;
                child.release(ctx);
                sink.finish(schema, false)
            }

            PhysicalPlan::HashJoin { left, right, keys } => {
                ctx.enter("HashJoin")?;
                let l = self.eval(left, db)?;
                let r = self.eval(right, db)?;
                check_join_keys(keys, l.arity(), r.arity(), "HashJoin")?;
                self.join(l, r, keys)
            }

            PhysicalPlan::AntiJoin { left, right, keys } => {
                ctx.enter("AntiJoin")?;
                let l = self.eval(left, db)?;
                let r = self.eval(right, db)?;
                check_join_keys(keys, l.arity(), r.arity(), "AntiJoin")?;
                let (lk, rk): (Vec<usize>, Vec<usize>) = keys.iter().copied().unzip();
                // The right side is the filter, so it must be the build
                // side regardless of size (it is typically the small
                // side in mining plans).
                let filter = r.load(ctx)?;
                drop(r);
                let idx = HashIndex::build(&filter, &rk);
                let out = self.filter("antijoin", l, |t, out| {
                    ctx.tick()?;
                    if !idx.contains_key(&t.project(&lk)) {
                        out.push(t.clone())?;
                    }
                    Ok(())
                })?;
                release_rel(ctx, &filter);
                Ok(out)
            }

            PhysicalPlan::Union { inputs } => {
                ctx.enter("Union")?;
                let Some((first, rest)) = inputs.split_first() else {
                    // A union of zero queries is the empty nullary relation.
                    return Ok(OpOut::Mem(Relation::empty(Schema::new("union", &[]))));
                };
                let mut child = self.eval(first, db)?;
                let arity = child.arity();
                let schema = child.schema().renamed("union");
                let mut sink = self.sink("union", arity);
                let mut rest = rest.iter();
                loop {
                    self.drive(&child, &mut sink, true, |t, out| out.push(t.clone()))?;
                    child.release(ctx);
                    let Some(plan) = rest.next() else { break };
                    child = self.eval(plan, db)?;
                    if child.arity() != arity {
                        return Err(EngineError::UnionArityMismatch {
                            first: arity,
                            other: child.arity(),
                        });
                    }
                }
                sink.finish(schema, false)
            }

            PhysicalPlan::Aggregate { input, group, agg } => {
                ctx.enter("Aggregate")?;
                let child = self.eval(input, db)?;
                let arity = child.arity();
                check_columns(group, arity, "Aggregate")?;
                if let Some(c) = agg.input_column() {
                    check_columns(&[c], arity, "Aggregate")?;
                }
                self.aggregate(child, group, *agg)
            }
        }
    }

    /// Grouped aggregation, consuming `child`. Output schema: group
    /// columns then the aggregate column (named after the function).
    fn aggregate(&self, child: OpOut, group: &[usize], agg: AggFn) -> Result<OpOut> {
        let ctx = self.ctx;
        let mut names = column_names(child.schema(), group);
        names.push(agg.name().to_lowercase());
        let schema = Schema::from_columns("aggregate", names);
        let width = group.len() + 1;
        let mut sink = self.sink("aggregate", width);
        let fold = |input: &OpOut, sink: &mut Sink<'_>| -> Result<()> {
            sink.absorb(fold_groups(ctx, input, group, agg)?);
            Ok(())
        };

        if group.is_empty() && child.rows_hint() == 0 {
            // SQL/paper semantics: a *global* aggregate (empty group
            // list) over empty input still yields one row. COUNT and SUM
            // have identity 0 (the paper's support filter compares
            // `COUNT(answer.X) >= s`, and an unsupported candidate must
            // see count 0, not a vanished row); MIN/MAX have no identity
            // in a NULL-free value domain, so an empty global MIN/MAX
            // yields the empty relation.
            if matches!(agg, AggFn::Count | AggFn::Sum(_)) {
                sink.push(Tuple::from([Value::int(0)]))?;
            }
        } else {
            // Grace aggregation when the input is already on disk or its
            // worst-case map (every row its own group) would trip. A
            // global aggregate is one accumulator: nothing to split.
            let too_big = !group.is_empty()
                && (child.is_spilled() || ctx.mem_would_trip(child.rows_hint() * row_cost(width)));
            match &self.spill {
                Some(dir) if too_big => Grace {
                    ctx,
                    dir,
                    inputs: &[("apart", group)],
                    state_bytes: &|slice| {
                        slice.iter().map(OpOut::rows_hint).sum::<u64>() * row_cost(width)
                    },
                    kernel: &mut |slice, sink| slice.iter().try_for_each(|part| fold(part, sink)),
                }
                .split(vec![child], 0, &mut sink)?,
                _ => {
                    fold(&child, &mut sink)?;
                    child.release(ctx);
                }
            }
        }
        sink.finish(schema, false)
    }
}

/// The group-by fold: accumulate `input` into per-group state and
/// finish each group as `group columns ++ aggregate`.
///
/// Over a resident input accumulation is partition-parallel: each
/// worker folds its chunk into a private accumulator map, and the
/// per-worker maps are merged ([`Acc::merge`]) on the caller's thread.
/// COUNT/SUM/MIN/MAX all admit associative merges, so the result is
/// independent of the partitioning. Spilled runs stream into one map.
fn fold_groups(
    ctx: &ExecContext,
    input: &OpOut,
    group: &[usize],
    agg: AggFn,
) -> Result<Vec<Tuple>> {
    let width = group.len() + 1;
    let fold_row = |groups: &mut FastMap<Tuple, Acc>, t: &Tuple| -> Result<()> {
        ctx.tick()?;
        let key = t.project(group);
        if !groups.contains_key(&key) {
            // A new group materializes an accumulator row. (A group
            // spanning chunks is charged once per chunk — a deliberate
            // overestimate; budgets trip early, never late.)
            ctx.charge_row(width)?;
        }
        groups
            .entry(key)
            .or_insert_with(|| Acc::new(agg))
            .update(t, agg)
    };
    let maps = match input {
        OpOut::Mem(rel) => {
            let workers = parallel::workers_for(rel.len(), ctx.threads());
            ctx.note_workers(workers);
            parallel::par_chunks(rel.tuples(), workers, |chunk| {
                let mut groups = FastMap::default();
                chunk.iter().try_for_each(|t| fold_row(&mut groups, t))?;
                Ok::<_, EngineError>(groups)
            })?
        }
        OpOut::Spilled(_) => {
            let mut groups = FastMap::default();
            input.each(ctx, &mut |t| fold_row(&mut groups, t))?;
            vec![groups]
        }
    };
    let charged: usize = maps.iter().map(FastMap::len).sum();
    let mut maps = maps.into_iter();
    let mut groups = maps.next().unwrap_or_default();
    for map in maps {
        for (key, acc) in map {
            match groups.entry(key) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    e.get_mut().merge(acc, agg)?;
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(acc);
                }
            }
        }
    }
    // Merged: a group that spanned chunks is resident once.
    ctx.release_bytes((charged - groups.len()) as u64 * row_cost(width));
    groups
        .into_iter()
        .map(|(key, acc)| {
            let mut v = key.values().to_vec();
            v.push(acc.finish()?);
            Ok(Tuple::from(v))
        })
        .collect()
}

/// The names of `cols` in `schema`.
fn column_names(schema: &Schema, cols: &[usize]) -> Vec<String> {
    cols.iter().map(|&c| schema.columns()[c].clone()).collect()
}

/// Running aggregate state for one group.
pub(crate) enum Acc {
    Count(i64),
    Sum(i64),
    MinMax(Option<Value>),
}

impl Acc {
    pub(crate) fn new(agg: AggFn) -> Acc {
        match agg {
            AggFn::Count => Acc::Count(0),
            AggFn::Sum(_) => Acc::Sum(0),
            AggFn::Min(_) | AggFn::Max(_) => Acc::MinMax(None),
        }
    }

    pub(crate) fn update(&mut self, t: &Tuple, agg: AggFn) -> Result<()> {
        match (self, agg) {
            (Acc::Count(n), AggFn::Count) => *n += 1,
            (Acc::Sum(s), AggFn::Sum(c)) => {
                let v = t
                    .get(c)
                    .as_int()
                    .ok_or_else(|| EngineError::AggregateType {
                        detail: format!("SUM over non-integer value {:?}", t.get(c)),
                    })?;
                *s = s.saturating_add(v);
            }
            (Acc::MinMax(m), AggFn::Min(c)) => {
                let v = t.get(c);
                *m = Some(m.map_or(v, |old| old.min(v)));
            }
            (Acc::MinMax(m), AggFn::Max(c)) => {
                let v = t.get(c);
                *m = Some(m.map_or(v, |old| old.max(v)));
            }
            (acc, agg) => {
                return Err(EngineError::AggregateType {
                    detail: format!("accumulator {} does not accept {}", acc.kind(), agg.name()),
                })
            }
        }
        Ok(())
    }

    /// Fold another group's state (from a different partition) into
    /// this one. All four aggregates are associative and commutative,
    /// so merge order does not affect the result.
    fn merge(&mut self, other: Acc, agg: AggFn) -> Result<()> {
        match (self, other) {
            (Acc::Count(a), Acc::Count(b)) => *a += b,
            (Acc::Sum(a), Acc::Sum(b)) => *a = a.saturating_add(b),
            (Acc::MinMax(a), Acc::MinMax(b)) => {
                *a = match (*a, b) {
                    (Some(x), Some(y)) => Some(if matches!(agg, AggFn::Min(_)) {
                        x.min(y)
                    } else {
                        x.max(y)
                    }),
                    (x, y) => x.or(y),
                };
            }
            (acc, other) => {
                return Err(EngineError::AggregateType {
                    detail: format!(
                        "cannot merge accumulator {} into {}",
                        other.kind(),
                        acc.kind()
                    ),
                })
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Result<Value> {
        match self {
            Acc::Count(n) => Ok(Value::int(n)),
            Acc::Sum(s) => Ok(Value::int(s)),
            // A MIN/MAX group exists only because a row created it, so
            // an empty accumulator here is an internal invariant
            // violation — reported as an error, never a panic.
            Acc::MinMax(v) => v.ok_or_else(|| EngineError::AggregateType {
                detail: "MIN/MAX group finished with no rows".to_string(),
            }),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Acc::Count(_) => "COUNT",
            Acc::Sum(_) => "SUM",
            Acc::MinMax(_) => "MIN/MAX",
        }
    }
}

pub(crate) fn check_columns(cols: &[usize], arity: usize, operator: &'static str) -> Result<()> {
    for &c in cols {
        if c >= arity {
            return Err(EngineError::ColumnOutOfRange {
                column: c,
                arity,
                operator,
            });
        }
    }
    Ok(())
}

pub(crate) fn check_predicates(
    preds: &[Predicate],
    arity: usize,
    operator: &'static str,
) -> Result<()> {
    for p in preds {
        if let Some(c) = p.max_column() {
            if c >= arity {
                return Err(EngineError::ColumnOutOfRange {
                    column: c,
                    arity,
                    operator,
                });
            }
        }
    }
    Ok(())
}

pub(crate) fn check_join_keys(
    keys: &[(usize, usize)],
    l_arity: usize,
    r_arity: usize,
    operator: &'static str,
) -> Result<()> {
    for &(l, r) in keys {
        if l >= l_arity {
            return Err(EngineError::ColumnOutOfRange {
                column: l,
                arity: l_arity,
                operator,
            });
        }
        if r >= r_arity {
            return Err(EngineError::ColumnOutOfRange {
                column: r,
                arity: r_arity,
                operator,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;

    fn db() -> Database {
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("baskets", &["bid", "item"]),
            vec![
                vec![Value::int(1), Value::str("beer")],
                vec![Value::int(1), Value::str("diapers")],
                vec![Value::int(2), Value::str("beer")],
                vec![Value::int(2), Value::str("diapers")],
                vec![Value::int(3), Value::str("beer")],
            ],
        ));
        db.insert(Relation::from_rows(
            Schema::new("causes", &["disease", "symptom"]),
            vec![vec![Value::str("flu"), Value::str("fever")]],
        ));
        db
    }

    #[test]
    fn scan_returns_relation() {
        let r = execute(&PhysicalPlan::scan("baskets"), &db()).unwrap();
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn scan_unknown_relation_errors() {
        let e = execute(&PhysicalPlan::scan("nope"), &db()).unwrap_err();
        assert!(matches!(e, EngineError::Storage(_)));
    }

    #[test]
    fn select_filters() {
        let p = PhysicalPlan::select(
            PhysicalPlan::scan("baskets"),
            vec![Predicate::col_const(1, CmpOp::Eq, Value::str("beer"))],
        );
        let r = execute(&p, &db()).unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn project_dedups() {
        let p = PhysicalPlan::project(PhysicalPlan::scan("baskets"), vec![1]);
        let r = execute(&p, &db()).unwrap();
        assert_eq!(r.len(), 2); // beer, diapers
        assert_eq!(r.schema().columns(), &["item".to_string()]);
    }

    #[test]
    fn self_join_counts_pairs() {
        // Fig. 1's core: baskets ⋈ baskets on bid with item < item.
        let join = PhysicalPlan::hash_join(
            PhysicalPlan::scan("baskets"),
            PhysicalPlan::scan("baskets"),
            vec![(0, 0)],
        );
        let pairs = PhysicalPlan::select(join, vec![Predicate::col_col(1, CmpOp::Lt, 3)]);
        let r = execute(&pairs, &db()).unwrap();
        // Baskets 1 and 2 contain {beer, diapers}: two (bid, beer, bid, diapers) rows.
        assert_eq!(r.len(), 2);
        assert_eq!(r.schema().arity(), 4);
    }

    #[test]
    fn aggregate_count() {
        // COUNT baskets per item.
        let p = PhysicalPlan::aggregate(PhysicalPlan::scan("baskets"), vec![1], AggFn::Count);
        let r = execute(&p, &db()).unwrap();
        let beer = r
            .iter()
            .find(|t| t.get(0) == Value::str("beer"))
            .expect("beer group");
        assert_eq!(beer.get(1), Value::int(3));
        assert_eq!(r.schema().columns()[1], "count");
    }

    #[test]
    fn aggregate_sum_min_max() {
        let p = PhysicalPlan::aggregate(PhysicalPlan::scan("baskets"), vec![1], AggFn::Sum(0));
        let r = execute(&p, &db()).unwrap();
        let beer = r.iter().find(|t| t.get(0) == Value::str("beer")).unwrap();
        assert_eq!(beer.get(1), Value::int(6)); // 1 + 2 + 3

        let p = PhysicalPlan::aggregate(PhysicalPlan::scan("baskets"), vec![1], AggFn::Min(0));
        let r = execute(&p, &db()).unwrap();
        let beer = r.iter().find(|t| t.get(0) == Value::str("beer")).unwrap();
        assert_eq!(beer.get(1), Value::int(1));

        let p = PhysicalPlan::aggregate(PhysicalPlan::scan("baskets"), vec![1], AggFn::Max(0));
        let r = execute(&p, &db()).unwrap();
        let beer = r.iter().find(|t| t.get(0) == Value::str("beer")).unwrap();
        assert_eq!(beer.get(1), Value::int(3));
    }

    #[test]
    fn sum_over_symbol_is_type_error() {
        let p = PhysicalPlan::aggregate(PhysicalPlan::scan("baskets"), vec![0], AggFn::Sum(1));
        let e = execute(&p, &db()).unwrap_err();
        assert!(matches!(e, EngineError::AggregateType { .. }));
    }

    #[test]
    fn global_aggregate_empty_group() {
        let p = PhysicalPlan::aggregate(PhysicalPlan::scan("baskets"), vec![], AggFn::Count);
        let r = execute(&p, &db()).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples()[0].get(0), Value::int(5));
    }

    /// An empty relation named `nothing` alongside the sample data.
    fn db_with_empty() -> Database {
        let mut d = db();
        d.insert(Relation::empty(Schema::new("nothing", &["x", "y"])));
        d
    }

    #[test]
    fn global_count_over_empty_input_is_zero_row() {
        let p = PhysicalPlan::aggregate(PhysicalPlan::scan("nothing"), vec![], AggFn::Count);
        let r = execute(&p, &db_with_empty()).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples()[0].get(0), Value::int(0));
        assert_eq!(r.schema().columns(), &["count".to_string()]);
    }

    #[test]
    fn global_sum_over_empty_input_is_zero_row() {
        let p = PhysicalPlan::aggregate(PhysicalPlan::scan("nothing"), vec![], AggFn::Sum(0));
        let r = execute(&p, &db_with_empty()).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples()[0].get(0), Value::int(0));
    }

    #[test]
    fn global_min_max_over_empty_input_is_empty() {
        // MIN/MAX have no identity element in a NULL-free domain.
        for agg in [AggFn::Min(0), AggFn::Max(0)] {
            let p = PhysicalPlan::aggregate(PhysicalPlan::scan("nothing"), vec![], agg);
            let r = execute(&p, &db_with_empty()).unwrap();
            assert!(r.is_empty());
            assert_eq!(r.schema().arity(), 1);
        }
    }

    #[test]
    fn grouped_aggregate_over_empty_input_is_empty() {
        // With a non-empty group list there are no groups to report.
        let p = PhysicalPlan::aggregate(PhysicalPlan::scan("nothing"), vec![0], AggFn::Count);
        let r = execute(&p, &db_with_empty()).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn accumulator_mismatch_is_error_not_panic() {
        let mut acc = Acc::new(AggFn::Count);
        let t = Tuple::from([Value::int(1)]);
        let err = acc.update(&t, AggFn::Sum(0)).unwrap_err();
        assert!(matches!(err, EngineError::AggregateType { .. }));
        let err = Acc::new(AggFn::Count)
            .merge(Acc::new(AggFn::Min(0)), AggFn::Count)
            .unwrap_err();
        assert!(matches!(err, EngineError::AggregateType { .. }));
    }

    #[test]
    fn empty_minmax_accumulator_finishes_with_error() {
        let err = Acc::new(AggFn::Min(0)).finish().unwrap_err();
        assert!(matches!(err, EngineError::AggregateType { .. }));
    }

    #[test]
    fn parallel_execution_matches_single_thread_on_large_input() {
        // Large enough that workers_for actually fans out (> PAR_THRESHOLD).
        let n = crate::parallel::PAR_THRESHOLD as i64 * 3;
        let mut d = Database::new();
        d.insert(Relation::from_rows(
            Schema::new("big", &["k", "v"]),
            (0..n)
                .map(|i| vec![Value::int(i % 397), Value::int(i)])
                .collect(),
        ));
        let plan = PhysicalPlan::aggregate(
            PhysicalPlan::select(
                PhysicalPlan::hash_join(
                    PhysicalPlan::scan("big"),
                    PhysicalPlan::scan("big"),
                    vec![(0, 0)],
                ),
                vec![Predicate::col_col(1, CmpOp::Lt, 3)],
            ),
            vec![0],
            AggFn::Count,
        );
        let ctx1 = ExecContext::unbounded().with_threads(1);
        let ctx4 = ExecContext::unbounded().with_threads(4);
        let one = execute_with(&plan, &d, &ctx1).unwrap();
        let four = execute_with(&plan, &d, &ctx4).unwrap();
        assert_eq!(one.tuples(), four.tuples());
        assert_eq!(ctx1.stats().workers, 1);
        assert!(ctx4.stats().workers > 1);
        // Arming a spill directory with no memory budget can never
        // spill, so it must not cost the parallel route either — for
        // the whole plan, and for a lone row operator.
        let armed = || {
            ExecContext::unbounded()
                .with_threads(4)
                .with_spill(Arc::new(SpillDir::create_temp().unwrap()))
        };
        let ctx = armed();
        let got = execute_with(&plan, &d, &ctx).unwrap();
        assert_eq!(got.tuples(), four.tuples());
        assert!(ctx.stats().workers > 1, "{:?}", ctx.stats());
        assert_eq!(ctx.stats().spills, 0);
        let select = PhysicalPlan::select(
            PhysicalPlan::scan("big"),
            vec![Predicate::col_const(0, CmpOp::Lt, Value::int(200))],
        );
        let ctx = armed();
        let got = execute_with(&select, &d, &ctx).unwrap();
        assert_eq!(got.tuples(), execute(&select, &d).unwrap().tuples());
        assert!(ctx.stats().workers > 1, "{:?}", ctx.stats());
        assert_eq!(ctx.stats().spills, 0);
    }

    #[test]
    fn anti_join_removes_matches() {
        // Baskets whose item is NOT a known symptom-causing… (nonsense
        // semantically, but exercises key matching across relations).
        let p = PhysicalPlan::anti_join(
            PhysicalPlan::scan("baskets"),
            PhysicalPlan::scan("causes"),
            vec![(1, 1)],
        );
        let r = execute(&p, &db()).unwrap();
        assert_eq!(r.len(), 5); // no basket item is "fever"

        let p = PhysicalPlan::anti_join(
            PhysicalPlan::scan("baskets"),
            PhysicalPlan::scan("baskets"),
            vec![(0, 0)],
        );
        let r = execute(&p, &db()).unwrap();
        assert!(r.is_empty()); // everything matches itself
    }

    #[test]
    fn union_dedups_and_checks_arity() {
        let p = PhysicalPlan::union(vec![
            PhysicalPlan::project(PhysicalPlan::scan("baskets"), vec![1]),
            PhysicalPlan::project(PhysicalPlan::scan("causes"), vec![1]),
        ]);
        let r = execute(&p, &db()).unwrap();
        assert_eq!(r.len(), 3); // beer, diapers, fever

        let bad = PhysicalPlan::union(vec![
            PhysicalPlan::scan("baskets"),
            PhysicalPlan::project(PhysicalPlan::scan("causes"), vec![1]),
        ]);
        assert!(matches!(
            execute(&bad, &db()).unwrap_err(),
            EngineError::UnionArityMismatch { first: 2, other: 1 }
        ));
    }

    #[test]
    fn empty_union_is_empty() {
        let r = execute(&PhysicalPlan::union(vec![]), &db()).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn column_bounds_checked() {
        let p = PhysicalPlan::project(PhysicalPlan::scan("baskets"), vec![7]);
        assert!(matches!(
            execute(&p, &db()).unwrap_err(),
            EngineError::ColumnOutOfRange { column: 7, .. }
        ));
    }

    #[test]
    fn join_key_bounds_checked() {
        let p = PhysicalPlan::hash_join(
            PhysicalPlan::scan("baskets"),
            PhysicalPlan::scan("causes"),
            vec![(0, 9)],
        );
        assert!(matches!(
            execute(&p, &db()).unwrap_err(),
            EngineError::ColumnOutOfRange { column: 9, .. }
        ));
    }

    #[test]
    fn cross_product_via_empty_keys() {
        let p = PhysicalPlan::hash_join(
            PhysicalPlan::scan("baskets"),
            PhysicalPlan::scan("causes"),
            vec![],
        );
        let r = execute(&p, &db()).unwrap();
        assert_eq!(r.len(), 5); // 5 baskets rows × 1 causes row
    }

    /// Deterministic data for the accounting pins: a basket relation and
    /// the fig. 5 medical relations.
    fn accounting_db() -> Database {
        let rel = |name: &str, cols: &[&str], rows: Vec<(i64, i64)>| {
            Relation::from_rows(
                Schema::new(name, cols),
                rows.into_iter()
                    .map(|(a, b)| vec![Value::int(a), Value::int(b)])
                    .collect(),
            )
        };
        let mut d = Database::new();
        d.insert(rel(
            "baskets",
            &["bid", "item"],
            (0..600).map(|i| (i % 120, (i * 7) % 23)).collect(),
        ));
        d.insert(rel(
            "exhibits",
            &["p", "s"],
            (0..300).map(|i| (i % 60, (i * 3) % 11)).collect(),
        ));
        d.insert(rel(
            "treatments",
            &["p", "m"],
            (0..200).map(|i| (i % 60, (i * 5) % 7)).collect(),
        ));
        d.insert(rel(
            "diagnoses",
            &["p", "d"],
            (0..90).map(|i| (i % 60, i % 9)).collect(),
        ));
        d.insert(rel(
            "causes",
            &["d", "s"],
            (0..40).map(|i| (i % 9, (i * 2) % 11)).collect(),
        ));
        d
    }

    /// The server's `--max-rows` admission and the `rows`/`bytes`
    /// response meta are `ExecStats` read after a run: pin them per plan
    /// shape (single thread, no spill directory) so a change to how
    /// operators charge shows up here, not on the wire.
    #[test]
    fn cumulative_rows_and_bytes_are_pinned_per_plan_shape() {
        let scan = PhysicalPlan::scan;
        // Basket pairs (fig. 1): self-join on bid, item < item, COUNT per pair.
        let pairs = PhysicalPlan::aggregate(
            PhysicalPlan::select(
                PhysicalPlan::hash_join(scan("baskets"), scan("baskets"), vec![(0, 0)]),
                vec![Predicate::col_col(1, CmpOp::Lt, 3)],
            ),
            vec![1, 3],
            AggFn::Count,
        );
        // Fig. 5: exhibits ⋈ treatments ⋈ diagnoses on patient, NOT
        // causes(D, S), COUNT patients per (medicine, symptom).
        let medical = PhysicalPlan::aggregate(
            PhysicalPlan::project(
                PhysicalPlan::anti_join(
                    PhysicalPlan::hash_join(
                        PhysicalPlan::hash_join(scan("exhibits"), scan("treatments"), vec![(0, 0)]),
                        scan("diagnoses"),
                        vec![(0, 0)],
                    ),
                    scan("causes"),
                    vec![(5, 0), (1, 1)],
                ),
                vec![3, 1, 0],
            ),
            vec![0, 1],
            AggFn::Count,
        );
        // Union of two rules' answers, projected.
        let union = PhysicalPlan::project(
            PhysicalPlan::union(vec![scan("exhibits"), scan("diagnoses")]),
            vec![1],
        );
        let d = accounting_db();
        for (name, plan, rows, bytes) in [
            ("pairs", pairs, 5492u64, 399_488u64),
            ("medical", medical, 5111, 451_920),
            ("union", union, 1130, 48_640),
        ] {
            let ctx = ExecContext::unbounded().with_threads(1);
            execute_with(&plan, &d, &ctx).unwrap();
            let stats = ctx.stats();
            assert_eq!((stats.rows, stats.bytes), (rows, bytes), "{name}");
            // Live bytes are residency, not work: whatever an operator
            // consumed, deduplicated or merged away is released, so
            // only the result is still charged when the plan returns.
            for threads in [1, 4] {
                let budget = 1 << 40;
                let ctx = ExecContext::unbounded()
                    .with_threads(threads)
                    .with_mem_budget(budget);
                let out = execute_with(&plan, &d, &ctx).unwrap();
                let resident = out.len() as u64 * row_cost(out.schema().arity());
                assert_eq!(ctx.remaining_bytes(), Some(budget - resident), "{name}");
            }
        }
    }
}
