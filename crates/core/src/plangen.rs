//! Plan generation: the generalized a-priori optimization (§3–§4).
//!
//! Generators, in increasing ambition:
//!
//! * [`direct_plan`] — the one-step plan (no pruning); the baseline.
//! * [`single_param_plan`] — §4.3 heuristic 1 restricted to singleton
//!   parameter sets: one reduction per parameter, as in Fig. 5's
//!   `okS`/`okM`.
//! * [`param_set_plan`] — heuristic 1 in general: one reduction per
//!   chosen parameter set, each backed by the cheapest safe subquery
//!   with exactly that set.
//! * [`chain_plan`] — the Fig. 7 shape: a chain of steps over growing
//!   prefixes of the body, each consuming the previous step's output —
//!   the construction that makes the plan space super-exponential
//!   (Ex. 4.3).
//! * [`enumerate_plans`] / [`best_plan_with`] — the §4.3 "exponential
//!   search": enumerate plans over subsets of parameter sets, cost each
//!   with the [`estimate_plan_cost`] model, keep the cheapest.

use std::collections::BTreeSet;

use qf_datalog::{is_safe, safe_subqueries_with_params, ConjunctiveQuery, UnionQuery};
use qf_engine::{cost_with, estimate_with, Estimate, MapStats};
use qf_storage::{Database, Symbol};

use crate::compile::{compile_answer, JoinOrderStrategy};
use crate::error::{FlockError, Result};
use crate::filter::FilterAgg;
use crate::flock::QueryFlock;
use crate::plan::{final_step, FilterStep, QueryPlan};

/// Name used for the final step of generated plans.
pub const FINAL_STEP_NAME: &str = "flock_result_step";

/// Cap on the number of plans [`enumerate_plans`] returns.
pub const MAX_ENUMERATED_PLANS: usize = 4096;

/// The trivial one-step plan: the original query, original filter.
pub fn direct_plan(flock: &QueryFlock) -> Result<QueryPlan> {
    let only = final_step(flock, &[], FINAL_STEP_NAME)?;
    QueryPlan::new(flock.clone(), vec![only])
}

/// All candidate reduction steps restricting exactly `set`: one safe
/// subquery chosen per union branch (§3.4), all with parameter set
/// `set`. Returns the cartesian combinations, capped at `cap`.
pub fn candidate_steps(
    flock: &QueryFlock,
    set: &BTreeSet<Symbol>,
    cap: usize,
) -> Result<Vec<FilterStep>> {
    let per_rule: Vec<Vec<ConjunctiveQuery>> = flock
        .query()
        .rules()
        .iter()
        .map(|r| {
            safe_subqueries_with_params(r, set)
                .into_iter()
                .map(|s| s.query)
                .collect::<Vec<_>>()
        })
        .collect();
    if per_rule.iter().any(Vec::is_empty) {
        return Ok(Vec::new()); // some branch has no safe subquery for this set.
    }
    let name = step_name(set);
    let mut combos: Vec<Vec<ConjunctiveQuery>> = vec![Vec::new()];
    for options in &per_rule {
        let mut next = Vec::new();
        'outer: for combo in &combos {
            for opt in options {
                let mut c = combo.clone();
                c.push(opt.clone());
                next.push(c);
                if next.len() >= cap {
                    break 'outer;
                }
            }
        }
        combos = next;
    }
    combos
        .into_iter()
        .map(|rules| Ok(FilterStep::new(&name, UnionQuery::new(rules)?)))
        .collect()
}

fn step_name(set: &BTreeSet<Symbol>) -> String {
    let mut name = String::from("ok");
    for p in set {
        name.push('_');
        name.push_str(&p.to_string());
    }
    name
}

/// The cheapest candidate step for `set` under the cost model, if any.
pub fn best_candidate_step(
    flock: &QueryFlock,
    db: &Database,
    set: &BTreeSet<Symbol>,
) -> Result<Option<FilterStep>> {
    let mut best: Option<(f64, FilterStep)> = None;
    for step in candidate_steps(flock, set, 64)? {
        let compiled = compile_answer(&step.query, db, JoinOrderStrategy::Greedy)?;
        let cost = cost_with(&compiled.plan, db)?;
        if best.as_ref().is_none_or(|(c, _)| cost < *c) {
            best = Some((cost, step));
        }
    }
    Ok(best.map(|(_, s)| s))
}

/// Heuristic 1 with singleton sets (the Fig. 5 shape): one reduction
/// per parameter, using the cheapest safe single-parameter subquery.
/// Parameters with no safe singleton subquery are skipped.
pub fn single_param_plan(flock: &QueryFlock, db: &Database) -> Result<QueryPlan> {
    let sets: Vec<BTreeSet<Symbol>> = flock
        .params()
        .into_iter()
        .map(|p| [p].into_iter().collect())
        .collect();
    param_set_plan(flock, db, &sets)
}

/// Heuristic 1 in general: one reduction per set in `sets` (sets with
/// no safe subquery are skipped), then the final step using them all.
pub fn param_set_plan(
    flock: &QueryFlock,
    db: &Database,
    sets: &[BTreeSet<Symbol>],
) -> Result<QueryPlan> {
    let mut reductions = Vec::new();
    for set in sets {
        if let Some(step) = best_candidate_step(flock, db, set)? {
            reductions.push(step);
        }
    }
    let last = final_step(flock, &reductions, FINAL_STEP_NAME)?;
    let mut steps = reductions;
    steps.push(last);
    QueryPlan::new(flock.clone(), steps)
}

/// The Fig. 7 chain: for a single-rule flock, a step per safe body
/// prefix whose parameter set equals the flock's, each adding the
/// previous step's output, ending with the full query.
pub fn chain_plan(flock: &QueryFlock) -> Result<QueryPlan> {
    let Some(rule) = flock.single_rule() else {
        return Err(FlockError::IllegalPlan {
            detail: "chain plans are defined for single-rule flocks".to_string(),
        });
    };
    let rule = rule.clone();
    let flock_params = flock.params();
    let mut steps: Vec<FilterStep> = Vec::new();
    for plen in 1..rule.body.len() {
        let kept: Vec<usize> = (0..plen).collect();
        let prefix = rule.restrict(&kept);
        if prefix.params() != flock_params || !is_safe(&prefix) {
            continue;
        }
        let with_prior = match steps.last() {
            Some(prev) => prefix.with_extra(vec![prev.head_subgoal()]),
            None => prefix,
        };
        let name = format!("ok{}", steps.len());
        steps.push(FilterStep::new(name, UnionQuery::single(with_prior)?));
    }
    // Final step adds only the last reduction (its predecessor chain is
    // already folded in transitively).
    let last_reduction: Vec<FilterStep> = steps.last().cloned().into_iter().collect();
    let final_ = final_step(flock, &last_reduction, FINAL_STEP_NAME)?;
    steps.push(final_);
    QueryPlan::new(flock.clone(), steps)
}

/// Enumerate plans per §4.3 heuristic 1: every subset of the nonempty
/// parameter sets (each backed by its cheapest candidate subquery),
/// capped at [`MAX_ENUMERATED_PLANS`]. The direct plan is always
/// included (the empty subset).
pub fn enumerate_plans(flock: &QueryFlock, db: &Database) -> Result<Vec<QueryPlan>> {
    let params: Vec<Symbol> = flock.params().into_iter().collect();
    // All nonempty subsets of the parameter set.
    let mut sets: Vec<BTreeSet<Symbol>> = Vec::new();
    let n = params.len().min(10);
    for mask in 1u32..(1 << n) {
        let set: BTreeSet<Symbol> = (0..n)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| params[i])
            .collect();
        sets.push(set);
    }
    // Best candidate per set (sets without candidates drop out).
    let mut options: Vec<FilterStep> = Vec::new();
    for set in &sets {
        if let Some(step) = best_candidate_step(flock, db, set)? {
            options.push(step);
        }
    }
    let k = options.len().min(12);
    let mut plans = Vec::new();
    for mask in 0u32..(1 << k) {
        if plans.len() >= MAX_ENUMERATED_PLANS {
            break;
        }
        let reductions: Vec<FilterStep> = (0..k)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| options[i].clone())
            .collect();
        let last = final_step(flock, &reductions, FINAL_STEP_NAME)?;
        let mut steps = reductions;
        steps.push(last);
        plans.push(QueryPlan::new(flock.clone(), steps)?);
    }
    Ok(plans)
}

/// Predicted statistics of one `FILTER` step.
#[derive(Clone, Debug)]
pub struct StepEstimate {
    /// Step (output relation) name.
    pub name: String,
    /// Estimated tuples in the step's extended answer.
    pub answer_rows: f64,
    /// Estimated distinct parameter assignments (groups).
    pub groups: f64,
    /// Estimated assignments surviving the filter.
    pub survivors: f64,
    /// Estimated cost of the step (`C_out` of its plan plus the
    /// aggregation pass).
    pub cost: f64,
}

/// Predicted cost breakdown of a whole plan.
#[derive(Clone, Debug)]
pub struct PlanCostReport {
    /// Per-step predictions, in execution order.
    pub steps: Vec<StepEstimate>,
}

impl PlanCostReport {
    /// Total predicted cost across steps.
    pub fn total(&self) -> f64 {
        self.steps.iter().map(|s| s.cost).sum()
    }

    /// Render a compact EXPLAIN-style table.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from(
            "step                 answer~      groups~   survivors~        cost~
",
        );
        for s in &self.steps {
            let _ = writeln!(
                out,
                "{:<20} {:>8.0} {:>12.0} {:>12.0} {:>12.0}",
                s.name, s.answer_rows, s.groups, s.survivors, s.cost
            );
        }
        let _ = writeln!(out, "total predicted cost: {:.0} tuples", self.total());
        out
    }
}

/// Estimate a plan's total cost (tuples materialized across all steps),
/// predicting each step's output statistics from the support threshold
/// so later steps see the benefit of earlier pruning.
pub fn estimate_plan_cost(
    plan: &QueryPlan,
    db: &Database,
    strategy: JoinOrderStrategy,
) -> Result<f64> {
    Ok(estimate_plan_report(plan, db, strategy)?.total())
}

/// Per-step cost prediction (the breakdown behind
/// [`estimate_plan_cost`]).
pub fn estimate_plan_report(
    plan: &QueryPlan,
    db: &Database,
    strategy: JoinOrderStrategy,
) -> Result<PlanCostReport> {
    let mut stats = MapStats::with_fallback(db);
    let threshold = plan.flock.filter().threshold.max(1) as f64;
    let support_like = matches!(plan.flock.filter().agg, FilterAgg::Count);
    let mut steps = Vec::with_capacity(plan.steps.len());
    for step in &plan.steps {
        let compiled = compile_answer(&step.query, db, strategy)?;
        let answer_est: Estimate = estimate_with(&compiled.plan, &stats)?;
        let step_cost = cost_with(&compiled.plan, &stats)? + answer_est.rows;

        // Predict the step's output: groups that survive the filter.
        let group_cols: Vec<usize> = (0..compiled.n_params).collect();
        let groups = answer_est.group_count(&group_cols);
        let survivors = if support_like {
            // At most `answer_rows / threshold` groups can hold
            // `threshold` or more tuples.
            (answer_est.rows / threshold).min(groups)
        } else {
            groups * 0.5
        };
        let distinct: Vec<f64> = group_cols
            .iter()
            .map(|&c| answer_est.distinct[c].min(survivors.max(1.0)))
            .collect();
        stats.insert(
            step.output.clone(),
            Estimate {
                rows: survivors,
                distinct,
            },
        );
        steps.push(StepEstimate {
            name: step.output.clone(),
            answer_rows: answer_est.rows,
            groups,
            survivors,
            cost: step_cost,
        });
    }
    Ok(PlanCostReport { steps })
}

/// Enumerate plans and return the one with the lowest estimated cost,
/// with that cost, under an execution governor, with **graceful
/// degradation**: the §4.3 plan search is exponential in the number of
/// candidate reductions, so when `ctx`'s deadline expires (or its
/// cancel token trips) mid-search, the search is abandoned and the §4
/// static heuristic plan ([`single_param_plan`], the Fig. 5 shape) is
/// returned instead of an error. The fallback is recorded as a
/// `"plan-search"` degradation in the governor's stats.
pub fn best_plan_with(
    flock: &QueryFlock,
    db: &Database,
    ctx: &qf_engine::ExecContext,
) -> Result<(QueryPlan, f64)> {
    if !ctx.time_exhausted() {
        let mut best: Option<(QueryPlan, f64)> = None;
        let mut abandoned = false;
        for plan in enumerate_plans(flock, db)? {
            if ctx.time_exhausted() {
                abandoned = true;
                break;
            }
            let cost = estimate_plan_cost(&plan, db, JoinOrderStrategy::Greedy)?;
            if best.as_ref().is_none_or(|(_, c)| cost < *c) {
                best = Some((plan, cost));
            }
        }
        if !abandoned {
            return best.ok_or_else(|| FlockError::IllegalPlan {
                detail: "no plans enumerated".to_string(),
            });
        }
    }
    ctx.record_degradation(
        "plan-search",
        "time budget exhausted during §4.3 plan enumeration; \
         falling back to the §4 static heuristic plan",
    );
    let plan = single_param_plan(flock, db)?;
    let cost = estimate_plan_cost(&plan, db, JoinOrderStrategy::Greedy)?;
    Ok((plan, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute_plan_with;
    use qf_engine::ExecContext;
    use qf_storage::{Relation, Schema, Value};

    fn basket_db(skew: bool) -> Database {
        // 40 baskets, each holding the hot pair; with `skew`, each
        // basket additionally holds 10 singleton items, so the naive
        // self-join blows up on rare items while only the hot pair has
        // support — the regime where the a-priori rewrite pays.
        let mut rows = Vec::new();
        for b in 0..40i64 {
            rows.push(vec![Value::int(b), Value::str("hot1")]);
            rows.push(vec![Value::int(b), Value::str("hot2")]);
            if skew {
                for j in 0..10i64 {
                    rows.push(vec![Value::int(b), Value::str(&format!("rare_{b}_{j}"))]);
                }
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
    fn direct_plan_has_one_step() {
        let plan = direct_plan(&basket_flock(20)).unwrap();
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn single_param_plan_builds_two_reductions() {
        let db = basket_db(true);
        let plan = single_param_plan(&basket_flock(20), &db).unwrap();
        assert_eq!(plan.len(), 3); // ok_1, ok_2, final
        let run = execute_plan_with(
            &plan,
            &db,
            JoinOrderStrategy::Greedy,
            &ExecContext::unbounded(),
        )
        .unwrap();
        assert_eq!(run.result.len(), 1); // (hot1, hot2)
                                         // The reductions eliminated the rare items.
        assert!(run.steps[0].elimination_rate() > 0.9);
    }

    #[test]
    fn all_generated_plans_agree_with_direct() {
        let db = basket_db(true);
        let flock = basket_flock(10);
        let direct = crate::eval::evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
        for plan in enumerate_plans(&flock, &db).unwrap() {
            let run = execute_plan_with(
                &plan,
                &db,
                JoinOrderStrategy::Greedy,
                &ExecContext::unbounded(),
            )
            .unwrap();
            assert_eq!(
                run.result.tuples(),
                direct.tuples(),
                "plan disagrees:\n{plan}"
            );
        }
    }

    #[test]
    fn enumerate_includes_direct_and_pruned() {
        let db = basket_db(false);
        let plans = enumerate_plans(&basket_flock(20), &db).unwrap();
        // 3 param sets ({1},{2},{1,2}) each with candidates → 8 plans.
        assert_eq!(plans.len(), 8);
        assert!(plans.iter().any(|p| p.len() == 1));
        assert!(plans.iter().any(|p| p.len() == 4));
    }

    #[test]
    fn best_plan_prefers_pruning_on_skewed_data() {
        let db = basket_db(true);
        let (best, best_cost) =
            best_plan_with(&basket_flock(20), &db, &ExecContext::unbounded()).unwrap();
        let direct_cost = estimate_plan_cost(
            &direct_plan(&basket_flock(20)).unwrap(),
            &db,
            JoinOrderStrategy::Greedy,
        )
        .unwrap();
        assert!(best.len() > 1, "skewed data should reward prefiltering");
        assert!(best_cost <= direct_cost);
    }

    #[test]
    fn chain_plan_for_path_query() {
        let flock =
            QueryFlock::with_support("answer(X) :- arc($1,X) AND arc(X,Y1) AND arc(Y1,Y2)", 2)
                .unwrap();
        let plan = chain_plan(&flock).unwrap();
        // ok0 (arc($1,X)), ok1 (+arc(X,Y1)), final — the Fig. 7 shape.
        assert_eq!(plan.len(), 3);
        assert!(plan.steps[1].query.rules()[0]
            .to_string()
            .contains("ok0($1)"));

        // Execute against a small graph and compare with direct.
        let mut db = Database::new();
        let mut rows = Vec::new();
        // Node 0 → 1..=3; 1 → 4,5; 4 → 6,7; others dead-end.
        for (s, t) in [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (4, 6), (4, 7)] {
            rows.push(vec![Value::int(s), Value::int(t)]);
        }
        db.insert(Relation::from_rows(Schema::new("arc", &["s", "t"]), rows));
        let run = execute_plan_with(
            &plan,
            &db,
            JoinOrderStrategy::AsWritten,
            &ExecContext::unbounded(),
        )
        .unwrap();
        let direct =
            crate::eval::evaluate_direct(&flock, &db, JoinOrderStrategy::AsWritten).unwrap();
        assert_eq!(run.result.tuples(), direct.tuples());
    }

    #[test]
    fn plan_report_breaks_down_cost() {
        let db = basket_db(true);
        let flock = basket_flock(20);
        let plan = single_param_plan(&flock, &db).unwrap();
        let report = estimate_plan_report(&plan, &db, JoinOrderStrategy::Greedy).unwrap();
        assert_eq!(report.steps.len(), plan.len());
        let total: f64 = report.steps.iter().map(|s| s.cost).sum();
        assert!((report.total() - total).abs() < 1e-9);
        assert_eq!(
            report.total(),
            estimate_plan_cost(&plan, &db, JoinOrderStrategy::Greedy).unwrap()
        );
        // Prefilter survivors must be far below their group counts on
        // skewed data.
        let first = &report.steps[0];
        assert!(first.survivors < first.groups / 2.0, "{first:?}");
        // Rendering mentions every step.
        let text = report.render();
        for s in &report.steps {
            assert!(text.contains(&s.name), "{text}");
        }
    }

    #[test]
    fn cost_model_sees_pruning_benefit() {
        let db = basket_db(true);
        let flock = basket_flock(20);
        let pruned = single_param_plan(&flock, &db).unwrap();
        let c_direct = estimate_plan_cost(
            &direct_plan(&flock).unwrap(),
            &db,
            JoinOrderStrategy::Greedy,
        )
        .unwrap();
        let c_pruned = estimate_plan_cost(&pruned, &db, JoinOrderStrategy::Greedy).unwrap();
        assert!(
            c_pruned < c_direct,
            "pruned {c_pruned} should beat direct {c_direct} on skewed data"
        );
    }
}
