//! Delta-join maintenance of cached scored flock results (qf-delta).
//!
//! A [`FlockDelta`] is the flock-aware half of incremental maintenance:
//! it owns a counted-multiplicity [`GroupAggView`] over the flock's
//! *unfiltered* extended answer (every `(params…, head vars…)` tuple
//! with its Gupta-Mumick derivation count) and knows how to keep it
//! exact under an `append`/`retract` batch by evaluating only the
//! **delta joins** — never the full query.
//!
//! For a single-rule flock `h(…) :- a₁ AND … AND aₘ` and a batch that
//! turns relation `R` from `R_old` into `R_new` (`added = R_new ∖
//! R_old`, `removed = R_old ∖ R_new`), the standard telescoping
//! factorization gives the exact derivation delta: for the `k`-th
//! occurrence of `R` in the body, join with occurrences before `k`
//! reading `R_new`, occurrence `k` reading `added` (insertions) or
//! `removed` (deletions), and occurrences after `k` reading `R_old`.
//! Summed over `k`, insertions minus deletions is exactly
//! `J(R_new) − J(R_old)` as a bag of derivations; insertions are
//! applied first so multiplicities never go transiently negative.
//!
//! There is **one join engine**. Every such join — the full body that
//! seeds a view and each telescoped term — is "the rule body with
//! positive occurrence *i* reading source *Sᵢ*": the sources go into a
//! scratch catalog under the reserved names `__delta_0`, `__delta_1`, …
//! ([`Relation::renamed`] shares tuples and memoized statistics), the
//! renamed body is compiled by [`compile_body`] — the same leaf →
//! hash-join → selection walk every cold evaluation uses, *without* its
//! final projection — and run by [`qf_engine::execute_with`]. The
//! engine has set semantics, so the derivation counts are taken from
//! that un-projected relation: its rows are 1-1 with the choices of one
//! base tuple per subgoal, whereas the projected (deduplicated) answer
//! has forgotten how many derivations each tuple has.
//!
//! A view is **seeded lazily**: [`FlockDelta::new`] evaluates nothing,
//! and the first [`apply`](FlockDelta::apply) that touches the view
//! seeds it from the post-batch catalog instead of joining deltas.
//!
//! The maintained view is *unfiltered* (the engine's vacuous baseline):
//! its [`scored_relation`](FlockDelta::scored_relation) therefore
//! answers any same-direction threshold by re-filtering, exactly like a
//! scored run under [`crate::vacuous_filter`]. Eligibility is
//! deliberately narrow — see [`FlockDelta::maintainable`]; everything
//! else falls back to recomputation, and any error from
//! [`apply`](FlockDelta::apply) means the view must be discarded (the
//! caller recomputes), never served.

use qf_datalog::{ConjunctiveQuery, Literal};
use qf_engine::{execute_with, AggFn, EngineError, ExecContext, GroupAggView};
use qf_storage::{Database, Relation, Schema, Symbol, Tuple};

use crate::compile::{answer_columns, compile_body, filter_agg_fn, JoinOrderStrategy};
use crate::error::{FlockError, Result};
use crate::flock::QueryFlock;

/// The budget for seeding and maintaining one delta view, so that a
/// pathological flock (huge unfiltered answer, explosive delta join)
/// degrades to "not maintained" instead of stalling ingest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaLimits {
    /// Cap on live distinct extended-answer tuples kept in the view,
    /// and on the derivations any one operator of a delta plan may emit
    /// (the plan's row budget is sized from it and the inputs).
    pub max_tuples: usize,
}

impl Default for DeltaLimits {
    fn default() -> Self {
        DeltaLimits {
            max_tuples: 1 << 18,
        }
    }
}

/// What one [`FlockDelta::apply`] did, for the caller's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaApply {
    /// Tuples rescanned by bounded MIN/MAX re-checks during the batch.
    pub recheck_tuples: u64,
}

/// Incrementally-maintained scored state for one cached flock.
#[derive(Clone, Debug)]
pub struct FlockDelta {
    /// The flock's rule with its `i`-th positive subgoal renamed to the
    /// scratch relation `__delta_i`, so each occurrence of a relation
    /// can read a different source.
    body: ConjunctiveQuery,
    /// The base relation each positive subgoal reads, in body order
    /// (maintenance triggers).
    preds: Vec<&'static str>,
    n_params: usize,
    agg: AggFn,
    /// `None` until the first touching batch seeds it.
    view: Option<GroupAggView>,
}

impl FlockDelta {
    /// Is this flock eligible for delta maintenance? Requires a single
    /// rule (no union — a union's per-rule bags would need separate
    /// views), no negated subgoals (deletions under negation can
    /// *create* derivations, which the counting scheme does not model),
    /// and at least one parameter (parameterless flocks hit the
    /// engine's empty-input aggregate special case instead of grouped
    /// aggregation). Comparisons are fine: they are selections of the
    /// delta plan.
    pub fn maintainable(flock: &QueryFlock) -> bool {
        Self::gate(flock).is_some()
    }

    /// The rule of a maintainable flock.
    fn gate(flock: &QueryFlock) -> Option<&ConjunctiveQuery> {
        flock
            .single_rule()
            .filter(|rule| rule.negated_atoms().next().is_none() && !rule.params().is_empty())
    }

    /// Maintenance state for `flock`, **unseeded**: the gate and the
    /// output layout are decided here and nothing is evaluated. The
    /// first [`apply`](FlockDelta::apply) that touches it pays the one
    /// full evaluation.
    pub fn new(flock: &QueryFlock) -> Result<FlockDelta> {
        let Some(rule) = Self::gate(flock) else {
            return Err(delta_gate("flock is not delta-maintainable"));
        };
        let n_params = rule.params().len();
        let agg = filter_agg_fn(flock.filter(), rule, n_params)?;
        let mut body = rule.clone();
        let mut preds = Vec::new();
        for literal in &mut body.body {
            if let Literal::Pos(atom) = literal {
                let scratch = Symbol::intern(&format!("__delta_{}", preds.len()));
                preds.push(std::mem::replace(&mut atom.pred, scratch).as_str());
            }
        }
        Ok(FlockDelta {
            body,
            preds,
            n_params,
            agg,
            view: None,
        })
    }

    /// [`new`](FlockDelta::new) seeded from `db` right away.
    pub fn build(flock: &QueryFlock, db: &Database, limits: &DeltaLimits) -> Result<FlockDelta> {
        let mut this = FlockDelta::new(flock)?;
        this.seed(db, limits)?;
        Ok(this)
    }

    /// Does an update to `rel` affect this view?
    pub fn touches(&self, rel: &str) -> bool {
        self.preds.contains(&rel)
    }

    /// Maintain the view across one batch that changed `rel` from
    /// `old` to `new`. `db` is the post-batch catalog (every relation
    /// other than `rel` is read from it unchanged). An unseeded view is
    /// seeded from `db` instead — the state the deltas would lead to.
    ///
    /// On `Err` the view is in an undefined intermediate state and
    /// MUST be discarded — the caller falls back to recomputation.
    pub fn apply(
        &mut self,
        rel: &str,
        old: &Relation,
        new: &Relation,
        db: &Database,
        limits: &DeltaLimits,
    ) -> Result<DeltaApply> {
        if !self.touches(rel) {
            return Ok(DeltaApply::default());
        }
        let agg = self.agg;
        let Some(view) = self.view.as_mut() else {
            self.seed(db, limits)?;
            return Ok(DeltaApply::default());
        };
        let (added, removed) = diff_sorted(old.tuples(), new.tuples());
        // Every occurrence reading the post-batch catalog: the part of
        // each telescoped term at and before its Δ occurrence.
        let current = sources(&self.body, &self.preds, db);
        // Insertions first: a derivation both telescopes mention (one
        // with an added tuple, one with a removed tuple) must gain its
        // multiplicity before losing it.
        for (delta, inserting) in [(added, true), (removed, false)] {
            if delta.is_empty() {
                continue;
            }
            let delta = Relation::from_sorted_dedup(new.schema().clone(), delta);
            for occ in (0..current.len()).filter(|&occ| self.preds[occ] == rel) {
                // Earlier occurrences read the new state, later ones
                // the old — the telescoping sum.
                let term = current
                    .iter()
                    .enumerate()
                    .map(|(j, cur)| match j.cmp(&occ) {
                        std::cmp::Ordering::Equal => delta.clone(),
                        std::cmp::Ordering::Greater if self.preds[j] == rel => old.clone(),
                        _ => cur.clone(),
                    });
                derivations(&self.body, term.collect(), limits, |row| {
                    if inserting {
                        check_weight(agg, &row)?;
                        view.insert(&row)?;
                    } else {
                        view.remove(&row)?;
                    }
                    Ok(())
                })?;
            }
        }
        Ok(DeltaApply {
            recheck_tuples: view.take_recheck_tuples(),
        })
    }

    /// The one full evaluation the view ever pays: every derivation of
    /// the rule body over `db`; afterwards only deltas are joined.
    fn seed(&mut self, db: &Database, limits: &DeltaLimits) -> Result<()> {
        let mut view = GroupAggView::new(self.n_params, self.agg, limits.max_tuples)?;
        let all = sources(&self.body, &self.preds, db);
        derivations(&self.body, all, limits, |row| {
            check_weight(self.agg, &row)?;
            Ok(view.insert(&row)?)
        })?;
        self.view = Some(view);
        Ok(())
    }

    /// The full unfiltered scored relation the view currently holds —
    /// bitwise what `execute_plan_scored_with` under a
    /// [vacuous](crate::vacuous_filter) baseline would recompute.
    pub fn scored_relation(&self, param_names: &[String]) -> Result<Relation> {
        let view = self
            .view
            .as_ref()
            .ok_or_else(|| delta_gate("view read before a batch seeded it"))?;
        let mut columns: Vec<String> = param_names.to_vec();
        columns.push("agg".to_string());
        // Rows come out keyed by distinct group prefixes in BTreeMap
        // order, so they are already sorted and deduplicated.
        Ok(Relation::from_sorted_dedup(
            Schema::from_columns("scored_result", columns),
            view.scored()?,
        ))
    }

    /// Live distinct extended-answer tuples held (memory accounting);
    /// 0 while unseeded.
    pub fn live_tuples(&self) -> usize {
        self.view.as_ref().map_or(0, GroupAggView::live_tuples)
    }

    /// Number of parameter (group-key) columns in the scored output.
    pub fn n_params(&self) -> usize {
        self.n_params
    }
}

/// The one evaluator: the rule body with its `i`-th positive subgoal
/// reading `sources[i]`, compiled onto the operator tree and run under
/// a governor; `each` receives one extended-answer row per derivation.
///
/// The plan's row budget is sized from the inputs: every source is
/// scanned and at most re-selected once (`2 ×` its rows), and each
/// operator above the leaves — one join per further subgoal, one
/// selection per comparison, `body.len() − 1` in a negation-free body —
/// may emit up to `max_tuples` derivations. An explosive join therefore
/// fails typed ([`EngineError::ResourceExhausted`]), like the view's
/// own cap. The mutation path holds no thread grant: one thread.
fn derivations(
    body: &ConjunctiveQuery,
    sources: Vec<Relation>,
    limits: &DeltaLimits,
    mut each: impl FnMut(Tuple) -> Result<()>,
) -> Result<()> {
    let mut scratch = Database::new();
    let mut scanned = 0u64;
    for (atom, source) in body.positive_atoms().zip(&sources) {
        scanned += source.len() as u64;
        scratch.insert(source.renamed(atom.pred.as_str()));
    }
    let (plan, binding) = compile_body(body, &scratch, JoinOrderStrategy::Greedy)?;
    let cols = answer_columns(body, &binding)?;
    let above_leaves = body.body.len().saturating_sub(1) as u64;
    let budget =
        (2 * scanned).saturating_add(above_leaves.saturating_mul(limits.max_tuples as u64));
    let ctx = ExecContext::unbounded()
        .with_threads(1)
        .with_max_rows(budget);
    execute_with(&plan, &scratch, &ctx)?
        .iter()
        .try_for_each(|row| each(row.project(&cols)))
}

/// What each positive subgoal reads in `db`, in body order. An absent
/// relation reads as empty at the subgoal's arity (the catalog may
/// simply not have loaded a subgoal's data yet).
fn sources(body: &ConjunctiveQuery, preds: &[&str], db: &Database) -> Vec<Relation> {
    let absent = |pred: &str, arity: usize| {
        let columns = (0..arity).map(|c| format!("c{c}")).collect();
        Relation::empty(Schema::from_columns(pred, columns))
    };
    body.positive_atoms()
        .zip(preds)
        .map(|(atom, pred)| {
            db.get(pred)
                .cloned()
                .unwrap_or_else(|_| absent(pred, atom.arity()))
        })
        .collect()
}

/// Reject a negative weight entering a maintained SUM: a cold
/// evaluation would refuse it (`check_sum_weights`), so the maintained
/// answer must refuse it too rather than silently diverge.
fn check_weight(agg: AggFn, row: &Tuple) -> Result<()> {
    if let AggFn::Sum(c) = agg {
        if let Some(v) = row.get(c).as_int() {
            if v < 0 {
                return Err(FlockError::NegativeWeight {
                    detail: format!("weight {v} entered a maintained SUM"),
                });
            }
        }
    }
    Ok(())
}

fn delta_gate(detail: &str) -> FlockError {
    FlockError::Engine(EngineError::DeltaInvariant {
        detail: detail.to_string(),
    })
}

/// Set-difference both ways over sorted, deduplicated tuple slices:
/// `(new ∖ old, old ∖ new)`.
fn diff_sorted(old: &[Tuple], new: &[Tuple]) -> (Vec<Tuple>, Vec<Tuple>) {
    let (mut added, mut removed) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < new.len() {
        match old[i].cmp(&new[j]) {
            std::cmp::Ordering::Less => {
                removed.push(old[i].clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added.push(new[j].clone());
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    removed.extend_from_slice(&old[i..]);
    added.extend_from_slice(&new[j..]);
    (added, removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::JoinOrderStrategy;
    use crate::eval::evaluate_direct;
    use crate::flock::QueryFlock;
    use crate::program::FlockProgram;
    use crate::shard::vacuous_filter;
    use qf_engine::ExecContext;
    use qf_storage::Value;

    fn parse(text: &str) -> QueryFlock {
        FlockProgram::parse(text).unwrap().flock().clone()
    }

    fn baskets(rows: &[(i64, i64)]) -> Database {
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("baskets", &["bid", "item"]),
            rows.iter()
                .map(|&(b, i)| vec![Value::int(b), Value::int(i)])
                .collect(),
        ));
        db
    }

    /// Cold-recompute the unfiltered scored relation via the standard
    /// evaluation pipeline.
    fn cold_scored(flock: &QueryFlock, db: &Database) -> Relation {
        let vac = QueryFlock::new(flock.query().clone(), vacuous_filter(flock.filter())).unwrap();
        let plan = crate::plangen::direct_plan(&vac).unwrap();
        crate::exec::execute_plan_scored_with(
            &plan,
            db,
            JoinOrderStrategy::Greedy,
            &ExecContext::unbounded(),
        )
        .unwrap()
        .scored
    }

    const FREQ: &str = "QUERY:\nanswer(B) :- baskets(B,$1)\nFILTER:\nCOUNT(answer.B) >= 2";

    #[test]
    fn build_matches_cold_scored() {
        let flock = parse(FREQ);
        let db = baskets(&[(1, 10), (1, 20), (2, 10), (3, 10), (3, 30)]);
        let delta = FlockDelta::build(&flock, &db, &DeltaLimits::default()).unwrap();
        let scored = delta.scored_relation(&flock.param_names()).unwrap();
        let cold = cold_scored(&flock, &db);
        assert_eq!(scored.tuples(), cold.tuples());
        assert_eq!(scored.schema().columns(), cold.schema().columns());
    }

    #[test]
    fn append_and_retract_track_cold_recompute() {
        let flock = parse(FREQ);
        let mut db = baskets(&[(1, 10), (1, 20), (2, 10)]);
        let mut delta = FlockDelta::build(&flock, &db, &DeltaLimits::default()).unwrap();
        let limits = DeltaLimits::default();

        // Append two tuples (one a duplicate, which must be a no-op).
        let old = db.get("baskets").unwrap().clone();
        let new = Relation::from_rows(
            Schema::new("baskets", &["bid", "item"]),
            vec![
                vec![Value::int(1), Value::int(10)],
                vec![Value::int(1), Value::int(20)],
                vec![Value::int(2), Value::int(10)],
                vec![Value::int(2), Value::int(20)],
                vec![Value::int(4), Value::int(10)],
            ],
        );
        db.insert(new.clone());
        delta.apply("baskets", &old, &new, &db, &limits).unwrap();
        let scored = delta.scored_relation(&flock.param_names()).unwrap();
        assert_eq!(scored.tuples(), cold_scored(&flock, &db).tuples());

        // Retract one of them again.
        let old = new;
        let new = Relation::from_rows(
            Schema::new("baskets", &["bid", "item"]),
            vec![
                vec![Value::int(1), Value::int(10)],
                vec![Value::int(1), Value::int(20)],
                vec![Value::int(2), Value::int(10)],
                vec![Value::int(4), Value::int(10)],
            ],
        );
        db.insert(new.clone());
        delta.apply("baskets", &old, &new, &db, &limits).unwrap();
        let scored = delta.scored_relation(&flock.param_names()).unwrap();
        assert_eq!(scored.tuples(), cold_scored(&flock, &db).tuples());
    }

    #[test]
    fn self_join_rule_survives_simultaneous_add_and_remove() {
        // Two occurrences of the touched relation plus a comparison:
        // the telescoping must not double-count, and a derivation
        // created by the insert pass and killed by the remove pass must
        // cancel exactly.
        let flock = parse(
            "QUERY:\nanswer(I) :- baskets(B,I) AND baskets(B,$1) AND I < $1\nFILTER:\nCOUNT(answer.I) >= 1",
        );
        let mut db = baskets(&[(1, 10), (1, 20), (2, 10), (2, 30)]);
        let mut delta = FlockDelta::build(&flock, &db, &DeltaLimits::default()).unwrap();
        let limits = DeltaLimits::default();

        let old = db.get("baskets").unwrap().clone();
        let new = Relation::from_rows(
            Schema::new("baskets", &["bid", "item"]),
            vec![
                vec![Value::int(1), Value::int(10)],
                // (1,20) removed, (1,40) added: pairs (10,40) appear,
                // (10,20) disappear, all in one batch.
                vec![Value::int(1), Value::int(40)],
                vec![Value::int(2), Value::int(10)],
                vec![Value::int(2), Value::int(30)],
            ],
        );
        db.insert(new.clone());
        delta.apply("baskets", &old, &new, &db, &limits).unwrap();
        let scored = delta.scored_relation(&flock.param_names()).unwrap();
        assert_eq!(scored.tuples(), cold_scored(&flock, &db).tuples());

        // And the filtered answer equals a direct evaluation.
        let served = crate::eval::flock_result_from_scored(&flock, &scored, flock.filter());
        let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
        assert_eq!(served.tuples(), direct.tuples());
    }

    #[test]
    fn union_and_negation_are_gated_out() {
        let union = parse(
            "QUERY:\nanswer(B) :- baskets(B,$1)\nanswer(B) :- other(B,$1)\nFILTER:\nCOUNT(answer.B) >= 1",
        );
        assert!(!FlockDelta::maintainable(&union));
        let negated = parse(
            "QUERY:\nanswer(B) :- baskets(B,$1) AND NOT banned(B,$1)\nFILTER:\nCOUNT(answer.B) >= 1",
        );
        assert!(!FlockDelta::maintainable(&negated));
        let db = baskets(&[(1, 10)]);
        assert!(FlockDelta::build(&union, &db, &DeltaLimits::default()).is_err());
    }

    #[test]
    fn negative_weight_under_sum_is_refused() {
        let flock = parse("QUERY:\nanswer(B,W) :- sales(B,W,$1)\nFILTER:\nSUM(answer.W) >= 0");
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("sales", &["bid", "w", "region"]),
            vec![vec![Value::int(1), Value::int(5), Value::int(7)]],
        ));
        let mut delta = FlockDelta::build(&flock, &db, &DeltaLimits::default()).unwrap();
        let old = db.get("sales").unwrap().clone();
        let new = Relation::from_rows(
            Schema::new("sales", &["bid", "w", "region"]),
            vec![
                vec![Value::int(1), Value::int(5), Value::int(7)],
                vec![Value::int(2), Value::int(-3), Value::int(7)],
            ],
        );
        db.insert(new.clone());
        let err = delta
            .apply("sales", &old, &new, &db, &DeltaLimits::default())
            .unwrap_err();
        assert!(matches!(err, FlockError::NegativeWeight { .. }), "{err}");
    }

    #[test]
    fn work_budget_is_a_typed_resource_error() {
        let flock = parse(FREQ);
        let db = baskets(&[(1, 10), (1, 20), (2, 10), (3, 10), (3, 30)]);
        let tight = DeltaLimits { max_tuples: 2 };
        let err = FlockDelta::build(&flock, &db, &tight).unwrap_err();
        assert!(
            matches!(
                err,
                FlockError::Engine(EngineError::ResourceExhausted { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn explosive_delta_join_trips_the_plan_row_budget() {
        // 40 x 40 pairs share basket 1: 1600 derivations at the join,
        // far over 2 x 40 scanned rows + 2 operators x 8 — the plan's
        // input-sized budget trips inside the engine, before the view's
        // own cap is ever consulted.
        let flock = parse(
            "QUERY:\nanswer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2\nFILTER:\nCOUNT(answer.B) >= 1",
        );
        let rows: Vec<(i64, i64)> = (0..40).map(|i| (1, i)).collect();
        let err =
            FlockDelta::build(&flock, &baskets(&rows), &DeltaLimits { max_tuples: 8 }).unwrap_err();
        assert!(
            matches!(
                err,
                FlockError::Engine(EngineError::ResourceExhausted { limit: 176, .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn new_evaluates_nothing_and_the_first_touch_seeds() {
        let flock = parse(FREQ);
        let mut delta = FlockDelta::new(&flock).unwrap();
        assert_eq!(delta.live_tuples(), 0);
        assert!(delta.scored_relation(&flock.param_names()).is_err());
        // A batch on an unrelated relation leaves it unseeded.
        let db = baskets(&[(1, 10), (1, 20), (2, 10)]);
        let rel = db.get("baskets").unwrap();
        let limits = DeltaLimits::default();
        delta.apply("other", rel, rel, &db, &limits).unwrap();
        assert_eq!(delta.live_tuples(), 0);
        // The first touching batch seeds from the post-batch catalog,
        // whatever the pre-image was.
        let empty = Relation::empty(rel.schema().clone());
        delta.apply("baskets", &empty, rel, &db, &limits).unwrap();
        assert_eq!(delta.live_tuples(), 3);
        let scored = delta.scored_relation(&flock.param_names()).unwrap();
        assert_eq!(scored.tuples(), cold_scored(&flock, &db).tuples());
    }
}
