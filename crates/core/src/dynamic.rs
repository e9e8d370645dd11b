//! Dynamic selection of filter steps (§4.4, Figs. 8–9).
//!
//! "Instead of deciding on subqueries in advance, we let the sizes of
//! intermediate relations *after we compute them* determine whether or
//! not to apply a filter step." This evaluator:
//!
//! 1. chooses a join order for the rule's positive subgoals up front
//!    (the paper: "our idea is independent of how the join order is
//!    actually chosen");
//! 2. runs the body walk one subgoal at a time: each stage is **one
//!    engine plan** built by [`BodyWalk`] — the same stepper
//!    [`crate::compile::compile_body`] folds into a static plan — that
//!    joins the subgoal onto the previous stage's result and applies
//!    every negation and comparison bound by then;
//! 3. after each stage, if the intermediate binds one or more
//!    parameters **and** every head variable, considers a `FILTER`:
//!    * **first sighting** of that parameter set — filter when the
//!      observed tuples-per-assignment ratio is *low* compared with the
//!      support threshold ("if low, then we expect a lot of
//!      value-assignments to be eliminated");
//!    * **seen before** — filter when the ratio is significantly lower
//!      than at the previous sighting ("significantly lower than it was
//!      at any previous step that computed a relation with the same set
//!      of parameters");
//! 4. always filters at the root, "simply because that filtering is
//!    necessary to find the answer to the query flock."
//!
//! Each decision is recorded in a [`DynamicDecision`] so experiments can
//! show *why* the dynamic strategy matched (or beat) the best static
//! plan without knowing the data regime in advance.
//!
//! This module decides; it has no operators of its own. Every stage,
//! count, prune and the final filter is a [`PhysicalPlan`] run by
//! [`qf_engine::execute_with`] against a scratch catalog — the database
//! plus the current intermediate under a reserved name
//! ([`Relation::renamed`] shares the tuples) — so all of it is governed,
//! parallel and spill-capable like any static plan.
//!
//! **What is resident.** The walk inspects each stage's *result*, so
//! that relation is loaded; between stages it is accounted like a
//! catalog relation (the walk releases the bytes `execute_with` charged
//! for it; the `Scan` that reads it back charges them again and the
//! consuming operator releases them). A memory budget therefore bounds
//! resident bytes, and with a spill directory everything *inside* a
//! stage goes out of core — the join before its selection, a prune's
//! pair set — exactly as far as a static plan's step outputs do, but not
//! past a stage result that does not itself fit.

use qf_datalog::{Atom, ConjunctiveQuery, Term};
use qf_engine::{
    execute_with, row_cost, AggFn, CmpOp, EngineError, ExecContext, PhysicalPlan, Predicate,
    Resource,
};
use qf_storage::{Database, FastMap, Relation, Symbol, Value};

use crate::compile::{
    answer_columns, atom_order, filter_answer, Binding, BodyWalk, CompiledRule, JoinOrderStrategy,
};
use crate::error::{FlockError, Result};
use crate::filter::FilterAgg;
use crate::flock::QueryFlock;

/// Tuning knobs for the §4.4 decision procedure.
#[derive(Clone, Copy, Debug)]
pub struct DynamicConfig {
    /// First sighting of a parameter set: filter when
    /// `tuples/assignment < first_sight_factor × threshold`.
    pub first_sight_factor: f64,
    /// Repeat sighting: filter when the ratio has fallen below
    /// `improvement_factor ×` the ratio recorded at the last sighting.
    pub improvement_factor: f64,
    /// Join-order chooser used for step 1.
    pub strategy: JoinOrderStrategy,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            first_sight_factor: 1.0,
            improvement_factor: 0.5,
            strategy: JoinOrderStrategy::Greedy,
        }
    }
}

/// Why the evaluator did or did not filter at a decision point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionReason {
    /// New parameter set, ratio below the threshold test → filtered.
    FirstSightLow,
    /// New parameter set, ratio too high to bother → not filtered.
    FirstSightHigh,
    /// Seen before and the ratio dropped enough → filtered.
    ImprovedRatio,
    /// Seen before but not enough improvement → not filtered.
    NoImprovement,
    /// No parameters bound yet → cannot filter.
    NoParams,
    /// Some head variable unbound → a support count would be unsafe
    /// (mirrors §4.4: "the query with just this subgoal is not safe").
    HeadUnbound,
    /// The root: filtering is the answer itself → always filtered.
    FinalMandatory,
    /// The filter aggregate is not `COUNT`; intermediate pruning with
    /// partial answers is not attempted (only the final filter runs).
    NonCountFilter,
    /// A voluntary filter looked worthwhile but its probe blew the
    /// resource budget → skipped. Sound: a-priori pruning is optional,
    /// so only pruning power is lost. Recorded as a degradation in the
    /// governor's [`qf_engine::ExecStats`].
    BudgetExhausted,
}

/// One decision point in a dynamic evaluation.
#[derive(Clone, Debug)]
pub struct DynamicDecision {
    /// Label of the subgoal just joined (or "final").
    pub after_subgoal: String,
    /// The parameter set bound at this point, sorted.
    pub param_set: Vec<String>,
    /// Tuples in the intermediate.
    pub tuples: usize,
    /// Distinct parameter assignments in the intermediate.
    pub assignments: usize,
    /// `tuples / assignments` (0 when empty).
    pub ratio: f64,
    /// Whether a filter step was applied.
    pub filtered: bool,
    /// Why.
    pub reason: DecisionReason,
    /// Assignments surviving the filter, when one was applied.
    pub survivors: Option<usize>,
}

/// The outcome of a dynamic evaluation.
#[derive(Clone, Debug)]
pub struct DynamicReport {
    /// The flock result (parameter assignments, columns named after the
    /// parameters).
    pub result: Relation,
    /// Every decision point, in order.
    pub decisions: Vec<DynamicDecision>,
    /// Total tuples materialized across intermediates (work proxy).
    pub total_tuples: usize,
}

/// Evaluate a **single-rule** flock with dynamic filter selection.
///
/// Union flocks are rejected: sound pruning across a union needs the
/// union-of-subqueries construction (§3.4), which is a static-plan
/// notion; use [`crate::plangen`] for those.
pub fn evaluate_dynamic(
    flock: &QueryFlock,
    db: &Database,
    config: &DynamicConfig,
) -> Result<DynamicReport> {
    evaluate_dynamic_with(flock, db, config, &ExecContext::unbounded())
}

/// [`evaluate_dynamic`] under an execution governor. The stages and the
/// mandatory final filter run with `ctx`'s budgets — exceeding them is
/// a hard error. Each *voluntary* FILTER probe runs under a
/// [`ExecContext::subcontext`] sized to the parent's remaining budget;
/// if the probe blows it, the candidate filter is skipped (recorded as
/// a [`DecisionReason::BudgetExhausted`] decision and a degradation in
/// the governor's stats) and evaluation continues unpruned — a-priori
/// pruning stays sound, only pruning power is lost.
pub fn evaluate_dynamic_with(
    flock: &QueryFlock,
    db: &Database,
    config: &DynamicConfig,
    ctx: &ExecContext,
) -> Result<DynamicReport> {
    let Some(rule) = flock.single_rule() else {
        return Err(FlockError::IllegalPlan {
            detail: "dynamic evaluation is defined for single-rule flocks".to_string(),
        });
    };
    let positive: Vec<&Atom> = rule.positive_atoms().collect();
    let order = atom_order(&positive, db, config.strategy);
    let Some((&first, rest)) = order.split_first() else {
        return Err(FlockError::IllegalPlan {
            detail: "rule has no positive subgoals".to_string(),
        });
    };

    let mut walk = BodyWalk::new(rule);
    let mut stages = Stages {
        flock,
        rule,
        config,
        ctx,
        scratch: db.clone(),
        decisions: Vec::new(),
        total_tuples: 0,
        seen_ratio: FastMap::default(),
    };
    let plan = walk.start(positive[first]);
    let mut cur = stages.stage(&plan, positive[first], walk.binding())?;
    for &ai in rest {
        let plan = walk.join(PhysicalPlan::scan(CUR), positive[ai]);
        cur = stages.stage(&plan, positive[ai], walk.binding())?;
    }
    stages.finish(&cur, &walk.finish()?)
}

/// Reserved scratch-catalog names: the current intermediate, and the
/// surviving assignments of a prune in flight.
const CUR: &str = "__dyn_cur";
const KEEP: &str = "__dyn_keep";

/// The state the decisions accumulate across stages.
struct Stages<'a> {
    flock: &'a QueryFlock,
    rule: &'a ConjunctiveQuery,
    config: &'a DynamicConfig,
    ctx: &'a ExecContext,
    /// The catalog plus the current intermediate under [`CUR`].
    scratch: Database,
    decisions: Vec<DynamicDecision>,
    total_tuples: usize,
    /// Last observed ratio per parameter set.
    seen_ratio: FastMap<Vec<Symbol>, f64>,
}

impl Stages<'_> {
    /// Run one plan against the scratch catalog. The result's bytes are
    /// released as soon as it is handed back: the walk holds it like a
    /// catalog relation, charged again by whichever `Scan` reads it.
    fn run(&self, plan: &PhysicalPlan, ctx: &ExecContext) -> qf_engine::Result<Relation> {
        let out = execute_with(plan, &self.scratch, ctx)?;
        ctx.release_bytes(out.len() as u64 * row_cost(out.schema().arity()));
        Ok(out)
    }

    fn set_current(&mut self, cur: &Relation) {
        self.scratch.insert(cur.renamed(CUR));
    }

    /// Distinct assignments of the columns `param_cols` in the current
    /// intermediate.
    fn assignments(&self, param_cols: &[usize]) -> qf_engine::Result<usize> {
        let plan = PhysicalPlan::project(PhysicalPlan::scan(CUR), param_cols.to_vec());
        Ok(self.run(&plan, self.ctx)?.len())
    }

    /// One stage: run `plan` (the walk joined onto `atom`), then the
    /// decision point. Returns the new current intermediate — the
    /// stage's result, or what a voluntary FILTER left of it.
    fn stage(&mut self, plan: &PhysicalPlan, atom: &Atom, binding: &Binding) -> Result<Relation> {
        let cur = self.run(plan, self.ctx)?;
        self.set_current(&cur);
        self.total_tuples += cur.len();

        let (bound, param_cols): (Vec<Symbol>, Vec<usize>) = self
            .rule
            .params()
            .into_iter()
            .filter_map(|p| Some((p, binding.col_of(Term::Param(p))?)))
            .unzip();
        let head_cols: Option<Vec<usize>> = self
            .rule
            .head
            .args
            .iter()
            .map(|&t| binding.col_of(t))
            .collect();
        let filter = self.flock.filter();
        // Intermediate pruning keeps assignments whose partial support
        // reaches the threshold — an upper-bound argument that is only
        // sound for monotone COUNT filters (≥/>). Anything else gets the
        // mandatory final filter only.
        let count_filter = matches!(filter.agg, FilterAgg::Count) && filter.is_monotone();
        let filterable = match head_cols {
            _ if bound.is_empty() => Err(DecisionReason::NoParams),
            None => Err(DecisionReason::HeadUnbound),
            Some(_) if !count_filter => Err(DecisionReason::NonCountFilter),
            Some(cols) => Ok(cols),
        };
        let label = atom.to_string();
        let head_cols = match filterable {
            Ok(cols) => cols,
            Err(reason) => {
                let skip = DynamicDecision::new(label, &bound, (cur.len(), 0, 0.0), reason, None);
                self.decisions.push(skip);
                return Ok(cur);
            }
        };

        let assignments = self.assignments(&param_cols)?;
        let ratio = per_assignment(cur.len(), assignments);
        let (should_filter, mut reason) = match self.seen_ratio.get(&bound) {
            None if ratio < self.config.first_sight_factor * filter.threshold as f64 => {
                (true, DecisionReason::FirstSightLow)
            }
            None => (false, DecisionReason::FirstSightHigh),
            Some(&prev) if ratio < self.config.improvement_factor * prev => {
                (true, DecisionReason::ImprovedRatio)
            }
            Some(_) => (false, DecisionReason::NoImprovement),
        };
        let observed = (cur.len(), assignments, ratio);

        if should_filter {
            // The probe is voluntary side-work: give it its own budget
            // (whatever the parent could still afford) so a blown probe
            // degrades to "skip this filter" instead of failing the
            // whole evaluation. Deadline/cancellation still propagate
            // as hard errors — time is global, rows/memory are not.
            let probe = self
                .ctx
                .subcontext(self.ctx.remaining_rows(), self.ctx.remaining_bytes());
            match self.prune(&cur, &param_cols, &head_cols, &probe) {
                Ok((pruned, survivors)) => {
                    self.set_current(&pruned);
                    self.total_tuples += pruned.len();
                    self.seen_ratio
                        .insert(bound.clone(), per_assignment(pruned.len(), survivors));
                    let filtered =
                        DynamicDecision::new(label, &bound, observed, reason, Some(survivors));
                    self.decisions.push(filtered);
                    return Ok(pruned);
                }
                Err(EngineError::ResourceExhausted {
                    resource: Resource::Rows | Resource::Memory,
                    ..
                }) => {
                    self.ctx.record_degradation(
                        "dynamic-filter",
                        format!(
                            "skipped voluntary FILTER after `{label}`: \
                             probe budget exhausted (pruning power lost, result unaffected)"
                        ),
                    );
                    reason = DecisionReason::BudgetExhausted;
                }
                Err(e) => return Err(e.into()),
            }
        }
        self.seen_ratio.insert(bound.clone(), ratio);
        self.decisions
            .push(DynamicDecision::new(label, &bound, observed, reason, None));
        Ok(cur)
    }

    /// A voluntary FILTER on the current intermediate: keep only tuples
    /// whose parameter assignment has at least `threshold` distinct
    /// head-tuple combinations. Returns the pruned relation and the
    /// number of surviving assignments. Runs under `probe`, so
    /// exhaustion degrades instead of failing.
    fn prune(
        &mut self,
        cur: &Relation,
        param_cols: &[usize],
        head_cols: &[usize],
        probe: &ExecContext,
    ) -> qf_engine::Result<(Relation, usize)> {
        // Distinct (params, head) pairs → count per params → threshold.
        let n = param_cols.len();
        let pairs = [param_cols, head_cols].concat();
        let threshold = Value::int(self.flock.filter().threshold);
        let survivors = PhysicalPlan::project(
            PhysicalPlan::select(
                PhysicalPlan::aggregate(
                    PhysicalPlan::project(PhysicalPlan::scan(CUR), pairs),
                    (0..n).collect(),
                    AggFn::Count,
                ),
                vec![Predicate::col_const(n, CmpOp::Ge, threshold)],
            ),
            (0..n).collect(),
        );
        let survivors = self.run(&survivors, probe)?;
        self.scratch.insert(survivors.renamed(KEEP));
        // Semi-join: the current tuples whose assignment survived.
        let keys = param_cols.iter().copied().zip(0..).collect();
        let pruned = PhysicalPlan::project(
            PhysicalPlan::hash_join(PhysicalPlan::scan(CUR), PhysicalPlan::scan(KEEP), keys),
            (0..cur.schema().arity()).collect(),
        );
        Ok((self.run(&pruned, probe)?, survivors.len()))
    }

    /// The mandatory root filter, honouring the flock's aggregate.
    fn finish(mut self, cur: &Relation, binding: &Binding) -> Result<DynamicReport> {
        let cols = answer_columns(self.rule, binding)?;
        let params = self.rule.params();
        let assignments = self.assignments(&cols[..params.len()])?;
        let answer = CompiledRule {
            plan: PhysicalPlan::project(PhysicalPlan::scan(CUR), cols),
            n_params: params.len(),
            n_head: self.rule.head.arity(),
        };
        let plan = filter_answer(&answer, self.rule, self.flock.filter())?;
        let result = crate::eval::as_flock_result(self.flock, &self.run(&plan, self.ctx)?);
        let params: Vec<Symbol> = params.into_iter().collect();
        self.decisions.push(DynamicDecision::new(
            "final".to_string(),
            &params,
            (cur.len(), assignments, 0.0),
            DecisionReason::FinalMandatory,
            Some(result.len()),
        ));
        Ok(DynamicReport {
            result,
            decisions: self.decisions,
            total_tuples: self.total_tuples,
        })
    }
}

/// `tuples / assignments` (0 when empty).
fn per_assignment(tuples: usize, assignments: usize) -> f64 {
    if assignments == 0 {
        0.0
    } else {
        tuples as f64 / assignments as f64
    }
}

impl DynamicDecision {
    /// A decision after `after_subgoal` on parameter set `params`;
    /// `observed` is `(tuples, assignments, ratio)`, and a filter was
    /// applied exactly when `survivors` is known.
    fn new(
        after_subgoal: String,
        params: &[Symbol],
        (tuples, assignments, ratio): (usize, usize, f64),
        reason: DecisionReason,
        survivors: Option<usize>,
    ) -> DynamicDecision {
        DynamicDecision {
            after_subgoal,
            param_set: params.iter().map(|p| p.to_string()).collect(),
            tuples,
            assignments,
            ratio,
            filtered: survivors.is_some(),
            reason,
            survivors,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_direct;
    use qf_storage::Schema;
    use DecisionReason::*;

    /// One decision as `(after_subgoal, param_set, tuples, assignments,
    /// filtered, reason, survivors)`.
    type Row<'a> = (
        &'a str,
        &'a [&'a str],
        usize,
        usize,
        bool,
        DecisionReason,
        Option<usize>,
    );

    /// The whole trace must equal the literals recorded at the commit
    /// before §4.4 moved onto the operator tree.
    fn assert_trace(report: &DynamicReport, total_tuples: usize, expected: &[Row<'_>]) {
        assert_eq!(report.total_tuples, total_tuples);
        assert_eq!(report.decisions.len(), expected.len(), "{report:?}");
        for (d, &(after, params, tuples, assignments, filtered, reason, survivors)) in
            report.decisions.iter().zip(expected)
        {
            let got = (
                d.after_subgoal.as_str(),
                d.param_set.iter().map(String::as_str).collect::<Vec<_>>(),
                d.tuples,
                d.assignments,
                d.filtered,
                d.reason,
                d.survivors,
            );
            let want = (
                after,
                params.to_vec(),
                tuples,
                assignments,
                filtered,
                reason,
                survivors,
            );
            assert_eq!(got, want);
        }
    }

    /// Skewed basket data: hot pair in every basket, singleton noise.
    fn basket_db() -> Database {
        let mut rows = Vec::new();
        for b in 0..40i64 {
            rows.push(vec![Value::int(b), Value::str("hot1")]);
            rows.push(vec![Value::int(b), Value::str("hot2")]);
            for j in 0..5i64 {
                rows.push(vec![Value::int(b), Value::str(&format!("noise_{b}_{j}"))]);
            }
        }
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("baskets", &["bid", "item"]),
            rows,
        ));
        db
    }

    fn basket_flock(threshold: i64) -> QueryFlock {
        QueryFlock::with_support(
            "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            threshold,
        )
        .unwrap()
    }

    #[test]
    fn dynamic_matches_direct() {
        let db = basket_db();
        for threshold in [2, 20, 40] {
            let flock = basket_flock(threshold);
            let report = evaluate_dynamic(&flock, &db, &DynamicConfig::default()).unwrap();
            let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
            assert_eq!(
                report.result.tuples(),
                direct.tuples(),
                "threshold {threshold}"
            );
        }
    }

    /// Between stages an intermediate is accounted like a catalog
    /// relation: when the walk returns, nothing is still charged.
    #[test]
    fn walk_releases_everything_it_was_charged() {
        let db = basket_db();
        for threads in [1, 4] {
            let budget = 1 << 40;
            let ctx = ExecContext::unbounded()
                .with_threads(threads)
                .with_mem_budget(budget);
            evaluate_dynamic_with(&basket_flock(20), &db, &DynamicConfig::default(), &ctx).unwrap();
            assert_eq!(ctx.remaining_bytes(), Some(budget), "threads {threads}");
            assert!(ctx.stats().bytes > 0);
        }
    }

    #[test]
    fn skewed_data_triggers_early_filter() {
        let db = basket_db();
        // Items average 40*7/282 ≈ 1 tuple per item value, far below
        // threshold 20 → the first decision must filter.
        let report = evaluate_dynamic(&basket_flock(20), &db, &DynamicConfig::default()).unwrap();
        let first_filterable = report
            .decisions
            .iter()
            .find(|d| {
                !matches!(
                    d.reason,
                    DecisionReason::NoParams | DecisionReason::HeadUnbound
                )
            })
            .expect("some decision");
        assert!(first_filterable.filtered, "{first_filterable:?}");
        assert_eq!(first_filterable.reason, DecisionReason::FirstSightLow);
        // And the final decision is always a filter.
        assert_eq!(
            report.decisions.last().unwrap().reason,
            DecisionReason::FinalMandatory
        );
        assert_trace(
            &report,
            840,
            &[
                (
                    "baskets(B,$1)",
                    &["1"],
                    280,
                    202,
                    true,
                    FirstSightLow,
                    Some(2),
                ),
                (
                    "baskets(B,$2)",
                    &["1", "2"],
                    440,
                    401,
                    true,
                    FirstSightLow,
                    Some(1),
                ),
                ("final", &["1", "2"], 40, 1, true, FinalMandatory, Some(1)),
            ],
        );
    }

    /// Every row budget either fails typed or answers exactly. A probe
    /// costs rows of its own, so on the realistic flock whatever budget
    /// cannot afford it cannot afford the unpruned rest either; the eager
    /// configuration (filter at every sighting, threshold 1: everything
    /// survives) makes probes that cost more than finishing without
    /// them, and there a blown probe must degrade — recorded both ways —
    /// instead of failing.
    #[test]
    fn blown_probe_degrades_and_every_budget_is_typed_or_exact() {
        let db = basket_db();
        let eager = DynamicConfig {
            first_sight_factor: 1e9,
            ..DynamicConfig::default()
        };
        let mut degraded = 0;
        for (threshold, config) in [(20, DynamicConfig::default()), (1, eager)] {
            let flock = basket_flock(threshold);
            let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
            for max_rows in (0..12_000).step_by(40) {
                let ctx = ExecContext::unbounded().with_max_rows(max_rows);
                match evaluate_dynamic_with(&flock, &db, &config, &ctx) {
                    Ok(report) => {
                        assert_eq!(report.result.tuples(), direct.tuples(), "{max_rows}");
                        let skipped = report.decisions.iter().filter(|d| {
                            assert_eq!(d.filtered, d.survivors.is_some());
                            d.reason == BudgetExhausted
                        });
                        let recorded = ctx.stats().degradations;
                        assert!(recorded.iter().all(|d| d.stage == "dynamic-filter"));
                        assert_eq!(skipped.count(), recorded.len(), "{max_rows}");
                        degraded += recorded.len();
                    }
                    Err(FlockError::Engine(EngineError::ResourceExhausted { .. })) => {}
                    Err(e) => panic!("budget {max_rows}: untyped failure {e}"),
                }
            }
        }
        assert!(degraded > 0, "no budget in the sweep blew only a probe");
    }

    #[test]
    fn dense_data_defers_filtering() {
        // Every item in ≥ 30 baskets: ratio ≈ 30 ≥ threshold 3 → the
        // evaluator should NOT filter at first sight of a parameter.
        let mut rows = Vec::new();
        for b in 0..30i64 {
            for i in 0..4i64 {
                rows.push(vec![Value::int(b), Value::str(&format!("common{i}"))]);
            }
        }
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("baskets", &["bid", "item"]),
            rows,
        ));
        let flock = basket_flock(3);
        let report = evaluate_dynamic(&flock, &db, &DynamicConfig::default()).unwrap();
        let first = report
            .decisions
            .iter()
            .find(|d| d.reason == DecisionReason::FirstSightHigh);
        assert!(first.is_some(), "decisions: {:?}", report.decisions);
        assert_trace(
            &report,
            300,
            &[
                ("baskets(B,$1)", &["1"], 120, 4, false, FirstSightHigh, None),
                (
                    "baskets(B,$2)",
                    &["1", "2"],
                    180,
                    6,
                    false,
                    FirstSightHigh,
                    None,
                ),
                ("final", &["1", "2"], 180, 6, true, FinalMandatory, Some(6)),
            ],
        );
        // Results still correct.
        let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
        assert_eq!(report.result.tuples(), direct.tuples());
    }

    #[test]
    fn medical_dynamic_with_negation() {
        let mut db = Database::new();
        let mut diagnoses = Vec::new();
        let mut exhibits = Vec::new();
        let mut treatments = Vec::new();
        for p in 1..=3i64 {
            diagnoses.push(vec![Value::int(p), Value::str("flu")]);
            exhibits.push(vec![Value::int(p), Value::str("headache")]);
            treatments.push(vec![Value::int(p), Value::str("zorix")]);
        }
        for p in 4..=5i64 {
            diagnoses.push(vec![Value::int(p), Value::str("flu")]);
            exhibits.push(vec![Value::int(p), Value::str("fever")]);
            treatments.push(vec![Value::int(p), Value::str("zorix")]);
        }
        db.insert(Relation::from_rows(
            Schema::new("diagnoses", &["p", "d"]),
            diagnoses,
        ));
        db.insert(Relation::from_rows(
            Schema::new("exhibits", &["p", "s"]),
            exhibits,
        ));
        db.insert(Relation::from_rows(
            Schema::new("treatments", &["p", "m"]),
            treatments,
        ));
        db.insert(Relation::from_rows(
            Schema::new("causes", &["d", "s"]),
            vec![vec![Value::str("flu"), Value::str("fever")]],
        ));
        let flock = QueryFlock::with_support(
            "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND \
             diagnoses(P,D) AND NOT causes(D,$s)",
            2,
        )
        .unwrap();
        let report = evaluate_dynamic(&flock, &db, &DynamicConfig::default()).unwrap();
        let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
        assert_eq!(report.result.tuples(), direct.tuples());
        assert_eq!(report.result.len(), 1);
        assert_trace(
            &report,
            11,
            &[
                ("exhibits(P,$s)", &["s"], 5, 2, false, FirstSightHigh, None),
                ("diagnoses(P,D)", &["s"], 3, 1, false, NoImprovement, None),
                (
                    "treatments(P,$m)",
                    &["m", "s"],
                    3,
                    1,
                    false,
                    FirstSightHigh,
                    None,
                ),
                ("final", &["m", "s"], 3, 1, true, FinalMandatory, Some(1)),
            ],
        );
    }

    #[test]
    fn repeat_sightings_use_improvement_rule() {
        // Two atoms bind the same parameter set {$1}: baskets(B,$1) and
        // stock($1,Q). With a high first-sight ratio on the first leaf
        // (skip) and a much lower ratio after the join, the second
        // decision must take the ImprovedRatio/NoImprovement branch.
        let mut db = Database::new();
        let mut rows = Vec::new();
        // 4 items, each in 25 baskets: first-sight ratio 25 ≥ threshold 5.
        for b in 0..25i64 {
            for i in 0..4i64 {
                rows.push(vec![Value::int(b), Value::str(&format!("item{i}"))]);
            }
        }
        db.insert(Relation::from_rows(
            Schema::new("baskets", &["bid", "item"]),
            rows,
        ));
        // stock(Item, Quality): many quality rows for item0, one for the
        // others — the join collapses the per-item ratio for most items.
        let mut stock = Vec::new();
        for q in 0..30i64 {
            stock.push(vec![Value::str("item0"), Value::int(q)]);
        }
        for i in 1..4i64 {
            stock.push(vec![Value::str(&format!("item{i}")), Value::int(0)]);
        }
        db.insert(Relation::from_rows(
            Schema::new("stock", &["item", "q"]),
            stock,
        ));

        let flock =
            QueryFlock::with_support("answer(B) :- baskets(B,$1) AND stock($1,Q)", 5).unwrap();
        let config = DynamicConfig {
            strategy: JoinOrderStrategy::AsWritten,
            ..DynamicConfig::default()
        };
        let report = evaluate_dynamic(&flock, &db, &config).unwrap();
        let repeat = report
            .decisions
            .iter()
            .find(|d| {
                matches!(
                    d.reason,
                    DecisionReason::ImprovedRatio | DecisionReason::NoImprovement
                )
            })
            .expect("second sighting of {$1} must use the improvement rule");
        assert_eq!(repeat.param_set, vec!["1".to_string()]);
        assert_trace(
            &report,
            925,
            &[
                ("baskets(B,$1)", &["1"], 100, 4, false, FirstSightHigh, None),
                ("stock($1,Q)", &["1"], 825, 4, false, NoImprovement, None),
                ("final", &["1"], 825, 4, true, FinalMandatory, Some(4)),
            ],
        );
        // And the answer is still right.
        let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
        assert_eq!(report.result.tuples(), direct.tuples());
    }

    #[test]
    fn union_flocks_rejected() {
        let flock = QueryFlock::parse(
            "QUERY:
             answer(D) :- inTitle(D,$1) AND inTitle(D,$2) AND $1 < $2
             answer(A) :- inAnchor(A,$1) AND inAnchor(A,$2) AND $1 < $2
             FILTER: COUNT(answer(*)) >= 2",
        )
        .unwrap();
        let db = Database::new();
        assert!(matches!(
            evaluate_dynamic(&flock, &db, &DynamicConfig::default()),
            Err(FlockError::IllegalPlan { .. })
        ));
    }

    #[test]
    fn weighted_flock_final_filter_only() {
        let mut db = basket_db();
        let rows: Vec<Vec<Value>> = (0..40i64)
            .map(|b| vec![Value::int(b), Value::int(1)])
            .collect();
        db.insert(Relation::from_rows(
            Schema::new("importance", &["bid", "w"]),
            rows,
        ));
        let flock = QueryFlock::parse(
            "QUERY:
             answer(B,W) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2 AND importance(B,W)
             FILTER: SUM(answer.W) >= 40",
        )
        .unwrap();
        let report = evaluate_dynamic(&flock, &db, &DynamicConfig::default()).unwrap();
        assert!(report
            .decisions
            .iter()
            .any(|d| d.reason == DecisionReason::NonCountFilter
                || d.reason == DecisionReason::HeadUnbound));
        let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
        assert_eq!(report.result.tuples(), direct.tuples());
        assert_eq!(report.result.len(), 1); // only (hot1, hot2) sums to 40.
    }
}
