//! Property tests for the one scored `FILTER`-step spine.
//!
//! * The thresholded run is a projection of the scored run: over the
//!   random relations of `qf-engine`'s `spill_equals_in_memory` × four
//!   plan shapes × {1, 4} threads × {in-memory, spill-enabled} ×
//!   `COUNT`/`SUM`/`MIN`/`MAX`, [`execute_plan_with`] equals
//!   [`flock_result_from_scored`] of [`execute_plan_scored_with`]
//!   bitwise, and both equal the independent [`evaluate_direct`].
//! * The evaluator seam: an in-process scatter evaluator (partition →
//!   local evaluator per fragment at the vacuous threshold → algebraic
//!   merge, no sockets) driven through the same plan loop is
//!   bitwise-equal to the local evaluator on multi-step plans, and the
//!   loop asks it for a symmetric step only once.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use qf_core::{
    best_plan, direct_plan, evaluate_direct, execute_plan_scored_on, execute_plan_scored_with,
    execute_plan_with, flock_result_from_scored, merge_scored_partials, param_set_plan,
    partial_flock, partition_database, scored_schema, single_param_plan, vacuous_filter,
    ExecContext, FilterStep, FlockError, JoinOrderStrategy, LocalEvaluator, QueryFlock, QueryPlan,
    ScoredStep, StepEvaluator,
};
use qf_storage::{Database, Relation, Schema, SpillDir, Symbol, Value};

fn rows2(n: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..16, 0i64..16), 0..n)
}

fn rel2(name: &str, cols: &[&str], rows: &[(i64, i64)]) -> Relation {
    Relation::from_rows(
        Schema::new(name, cols),
        rows.iter()
            .map(|&(a, b)| vec![Value::int(a), Value::int(b)])
            .collect(),
    )
}

/// One monotone filter per aggregate, over head variable `A` (a
/// non-negative integer column, as `SUM` requires).
fn flock_for(query: &str, agg: usize, threshold: i64) -> QueryFlock {
    let filter = match agg {
        0 => format!("COUNT(answer.A) >= {threshold}"),
        1 => format!("SUM(answer.A) >= {threshold}"),
        2 => format!("MIN(answer.A) <= {threshold}"),
        _ => format!("MAX(answer.A) > {threshold}"),
    };
    QueryFlock::parse(&format!("QUERY:\n{query}\nFILTER:\n{filter}")).expect("flock parses")
}

/// Four plan shapes: direct, one reduction per parameter (Fig. 5), a
/// reduction on one parameter then on both, and the searched plan.
fn shape_plan(shape: u8, flock: &QueryFlock, db: &Database) -> QueryPlan {
    let params: Vec<Symbol> = flock.params().into_iter().collect();
    let sets: Vec<BTreeSet<Symbol>> = vec![
        [params[0]].into_iter().collect(),
        params.iter().copied().collect(),
    ];
    match shape % 4 {
        0 => direct_plan(flock),
        1 => single_param_plan(flock, db),
        2 => param_set_plan(flock, db, &sets),
        _ => best_plan(flock, db).map(|(plan, _)| plan),
    }
    .expect("plan shape builds")
}

proptest! {
    #[test]
    fn thresholded_run_is_a_projection_of_the_scored_run(
        l in rows2(120),
        r in rows2(120),
        shape in 0u8..4,
        agg in 0usize..4,
        threshold in 0i64..12,
    ) {
        let mut db = Database::new();
        db.insert(rel2("l", &["a", "b"], &l));
        db.insert(rel2("r", &["c", "d"], &r));
        let flock = flock_for("answer(A) :- l(A,$1) AND r(A,$2)", agg, threshold);
        let plan = shape_plan(shape, &flock, &db);
        let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
        for threads in [1usize, 4] {
            for spill in [false, true] {
                let mut ctx = ExecContext::unbounded().with_threads(threads);
                if spill {
                    ctx = ctx
                        .with_mem_budget(1 << 20)
                        .with_spill(Arc::new(SpillDir::create_temp().unwrap()));
                }
                let run = execute_plan_with(&plan, &db, JoinOrderStrategy::Greedy, &ctx).unwrap();
                let scored =
                    execute_plan_scored_with(&plan, &db, JoinOrderStrategy::Greedy, &ctx).unwrap();
                let projected = flock_result_from_scored(&flock, &scored.scored, flock.filter());
                let case = format!("shape {shape} agg {agg} threads {threads} spill {spill}");
                prop_assert_eq!(&scored.baseline, flock.filter(), "{}", &case);
                prop_assert_eq!(&run.result, &projected, "{}", &case);
                prop_assert_eq!(run.result.tuples(), direct.tuples(), "{}", &case);
                prop_assert_eq!(run.result.schema().columns(), direct.schema().columns());
            }
        }
    }
}

/// Scatter-gather without sockets: every step is evaluated by the local
/// evaluator on each fragment (plus the upstream step outputs, the
/// "scratch" a real coordinator ships) at the vacuous threshold, and
/// the partials merge algebraically.
struct InProcessScatter {
    frags: Vec<Database>,
    /// Steps the plan loop asked for, in order.
    asked: Mutex<Vec<String>>,
}

impl StepEvaluator for InProcessScatter {
    type Error = FlockError;

    fn scored(
        &self,
        plan: &QueryPlan,
        step: &FilterStep,
        working: &Database,
        ctx: &ExecContext,
    ) -> Result<ScoredStep, FlockError> {
        self.asked.lock().unwrap().push(step.output.clone());
        let filter = plan.flock.filter();
        let mini = direct_plan(&partial_flock(step, filter)?)?;
        let mut parts = Vec::new();
        for frag in &self.frags {
            let mut view = frag.clone();
            for upstream in plan
                .steps
                .iter()
                .filter_map(|s| working.get(&s.output).ok())
            {
                view.insert(upstream.clone());
            }
            parts.push(
                LocalEvaluator::default()
                    .scored(&mini, &mini.steps[0], &view, ctx)?
                    .rows,
            );
        }
        let rows = merge_scored_partials(&filter.agg, scored_schema(step), &parts)?;
        Ok(ScoredStep {
            groups: rows.len(),
            rows,
            complete_for: vacuous_filter(filter),
            answer_tuples: 0,
        })
    }
}

proptest! {
    #[test]
    fn in_process_scatter_equals_local_and_reuses_symmetric_steps(
        rows in rows2(80),
        agg in 0usize..4,
        threshold in 0i64..8,
        threads in prop::sample::select(vec![1usize, 4]),
    ) {
        let mut db = Database::new();
        db.insert(rel2("baskets", &["a", "item"], &rows));
        // Shardable on A (every subgoal keyed there); the two
        // single-parameter reductions are isomorphic under $1 <-> $2.
        let flock = flock_for(
            "answer(A) :- baskets(A,$1) AND baskets(A,$2) AND $1 < $2",
            agg,
            threshold,
        );
        let plan = single_param_plan(&flock, &db).unwrap();
        prop_assert_eq!(plan.steps.len(), 3);
        let ctx = ExecContext::unbounded().with_threads(threads);
        let local = execute_plan_scored_with(&plan, &db, JoinOrderStrategy::Greedy, &ctx).unwrap();
        for shards in [2usize, 4] {
            let scatter = InProcessScatter {
                frags: partition_database(&db, shards, &BTreeSet::new()),
                asked: Mutex::new(Vec::new()),
            };
            let run = execute_plan_scored_on(&plan, &db, &scatter, &ctx).unwrap();
            prop_assert_eq!(&run.scored, &local.scored, "{} shards", shards);
            prop_assert_eq!(run.baseline, local.baseline);
            // One scatter for the representative reduction, one for the
            // final step; the symmetric reduction is renamed.
            let mut asked = scatter.asked.into_inner().unwrap();
            asked.sort();
            let mut expected = vec![plan.steps[0].output.clone(), plan.steps[2].output.clone()];
            expected.sort();
            prop_assert_eq!(asked, expected);
            prop_assert!(run.steps[1].reused);
        }
    }

    /// A single-step scatter keeps every group: the run is complete for
    /// the vacuous filter, so it answers any same-direction threshold.
    #[test]
    fn single_step_scatter_is_complete_for_the_vacuous_filter(
        rows in rows2(80),
        agg in 0usize..4,
        threshold in 0i64..8,
    ) {
        let mut db = Database::new();
        db.insert(rel2("baskets", &["a", "item"], &rows));
        let flock = flock_for("answer(A) :- baskets(A,$1)", agg, threshold);
        let plan = direct_plan(&flock).unwrap();
        let ctx = ExecContext::unbounded();
        let scatter = InProcessScatter {
            frags: partition_database(&db, 2, &BTreeSet::new()),
            asked: Mutex::new(Vec::new()),
        };
        let run = execute_plan_scored_on(&plan, &db, &scatter, &ctx).unwrap();
        prop_assert_eq!(run.baseline, vacuous_filter(flock.filter()));
        for t in [threshold, threshold + 3] {
            let other = flock_for("answer(A) :- baskets(A,$1)", agg, t);
            let direct = evaluate_direct(&other, &db, JoinOrderStrategy::Greedy).unwrap();
            let reused = flock_result_from_scored(&other, &run.scored, other.filter());
            prop_assert_eq!(reused.tuples(), direct.tuples(), "threshold {}", t);
        }
    }
}
