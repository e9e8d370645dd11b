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
//! * Delta ≡ recompute: a [`FlockDelta`] driven through random
//!   add-and-remove batches — over the body shapes a join engine has to
//!   get right (constants, repeated variables, comparisons, three
//!   occurrences of the touched relation, an absent relation) — holds
//!   the cold vacuous-filter scored run after every batch, and its
//!   filtered answer equals [`evaluate_naive`].

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use qf_core::{
    best_plan_with, direct_plan, evaluate_direct, evaluate_naive, execute_plan_scored_on,
    execute_plan_scored_with, execute_plan_with, flock_result_from_scored, merge_scored_partials,
    param_set_plan, partial_flock, partition_database, scored_schema, single_param_plan,
    vacuous_filter, DeltaLimits, ExecContext, FilterStep, FlockDelta, FlockError,
    JoinOrderStrategy, LocalEvaluator, QueryFlock, QueryPlan, ScoredStep, StepEvaluator,
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
        _ => best_plan_with(flock, db, &ExecContext::unbounded()).map(|(plan, _)| plan),
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
            let run = execute_plan_scored_on(&plan, &db, &scatter, &ctx, None).unwrap();
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
        let run = execute_plan_scored_on(&plan, &db, &scatter, &ctx, None).unwrap();
        prop_assert_eq!(run.baseline, vacuous_filter(flock.filter()));
        for t in [threshold, threshold + 3] {
            let other = flock_for("answer(A) :- baskets(A,$1)", agg, t);
            let direct = evaluate_direct(&other, &db, JoinOrderStrategy::Greedy).unwrap();
            let reused = flock_result_from_scored(&other, &run.scored, other.filter());
            prop_assert_eq!(reused.tuples(), direct.tuples(), "threshold {}", t);
        }
    }
}

/// Single-rule bodies over the touched `r` and a side relation `s`, one
/// per shape the delta join must get right.
const DELTA_BODIES: [&str; 5] = [
    // A constant in an atom.
    "answer(A) :- r(A,$1) AND s($1,3)",
    // A repeated variable inside one atom.
    "answer(A) :- r(X,X) AND r(X,A) AND s(A,$1)",
    // A comparison between parameters and one against a constant.
    "answer(A) :- r(A,$1) AND r(A,$2) AND $1 < $2 AND A > 1",
    // Three occurrences of the touched relation (the full telescope).
    "answer(A) :- r(A,$1) AND r($1,X) AND r(X,$2)",
    // Both relations twice, so a batch on either telescopes.
    "answer(A) :- r(A,$1) AND s($1,X) AND r(X,$2) AND s(A,$2)",
];

fn small_rows() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..6, 0i64..6), 0..14)
}

/// The cold vacuous-filter scored run the maintained view must equal.
fn cold_scored(flock: &QueryFlock, db: &Database, threads: usize) -> Relation {
    let vacuous = QueryFlock::new(flock.query().clone(), vacuous_filter(flock.filter())).unwrap();
    let ctx = ExecContext::unbounded().with_threads(threads);
    let plan = direct_plan(&vacuous).unwrap();
    execute_plan_scored_with(&plan, db, JoinOrderStrategy::Greedy, &ctx)
        .unwrap()
        .scored
}

/// One batch: `rel` loses `remove` and gains `add` in a single step
/// (a relation the catalog does not hold yet is created), and the view
/// is maintained across it.
fn apply_batch(
    delta: &mut FlockDelta,
    db: &mut Database,
    rel: &str,
    add: &[(i64, i64)],
    remove: &[(i64, i64)],
) {
    let old = db
        .get(rel)
        .cloned()
        .unwrap_or_else(|_| rel2(rel, &["a", "b"], &[]));
    let pair = |t: &qf_storage::Tuple| (t.get(0).as_int().unwrap(), t.get(1).as_int().unwrap());
    let mut rows: Vec<(i64, i64)> = old.iter().map(pair).collect();
    rows.retain(|t| !remove.contains(t));
    rows.extend_from_slice(add);
    let new = rel2(rel, &["a", "b"], &rows);
    db.insert(new.clone());
    delta
        .apply(rel, &old, &new, db, &DeltaLimits::default())
        .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn delta_maintenance_equals_cold_recompute(
        (r, s) in (small_rows(), small_rows()),
        (body, agg, threshold) in (0usize..DELTA_BODIES.len(), 0usize..4, 0i64..4),
        // Start without `s` in the catalog (the first batch creates it),
        // and with an unseeded view (the first touching batch seeds it).
        (s_absent, lazy) in (any::<bool>(), any::<bool>()),
        ops in prop::collection::vec((any::<bool>(), small_rows(), small_rows()), 1..5),
    ) {
        let flock = flock_for(DELTA_BODIES[body], agg, threshold);
        let mut db = Database::new();
        db.insert(rel2("r", &["a", "b"], &r));
        if !s_absent {
            db.insert(rel2("s", &["a", "b"], &s));
        }
        let mut delta = if lazy {
            FlockDelta::new(&flock).unwrap()
        } else {
            FlockDelta::build(&flock, &db, &DeltaLimits::default()).unwrap()
        };
        let mut seeded = !lazy;
        let first = (true, s.clone(), Vec::new());
        let ops = s_absent.then_some(&first).into_iter().chain(&ops);
        for (step, (on_s, add, remove)) in ops.enumerate() {
            if s_absent && step == 0 && seeded && delta.touches("s") {
                // A body relation the catalog lacks reads as empty.
                prop_assert_eq!(delta.live_tuples(), 0);
            }
            let rel = if *on_s { "s" } else { "r" };
            apply_batch(&mut delta, &mut db, rel, add, remove);
            seeded |= delta.touches(rel);
            if !seeded || !db.contains("s") {
                continue;
            }
            let scored = delta.scored_relation(&flock.param_names()).unwrap();
            for threads in [1usize, 4] {
                let cold = cold_scored(&flock, &db, threads);
                prop_assert_eq!(scored.tuples(), cold.tuples(), "step {} threads {}", step, threads);
                prop_assert_eq!(scored.schema().columns(), cold.schema().columns());
            }
            let served = flock_result_from_scored(&flock, &scored, flock.filter());
            let naive = evaluate_naive(&flock, &db).unwrap();
            prop_assert_eq!(served.tuples(), naive.tuples(), "step {}", step);
        }
    }
}

/// Derivation counts survive the engine's set semantics: two `X`
/// witness the one extended-answer tuple `($1=5, B=1)`, so the view
/// must count two derivations although every relation in the engine is
/// a set — the counts come from the un-projected body, not from the
/// deduplicated answer. Retracting one witness keeps the tuple;
/// retracting the second removes it.
#[test]
fn derivation_counts_survive_set_semantics() {
    let flock =
        QueryFlock::parse("QUERY:\nanswer(B) :- r(B,X) AND s(X,$1)\nFILTER:\nCOUNT(answer.B) >= 1")
            .unwrap();
    let mut db = Database::new();
    db.insert(rel2("r", &["a", "b"], &[(1, 10), (1, 11)]));
    db.insert(rel2("s", &["a", "b"], &[(10, 5), (11, 5)]));
    let mut delta = FlockDelta::build(&flock, &db, &DeltaLimits::default()).unwrap();
    assert_eq!(delta.live_tuples(), 1);

    apply_batch(&mut delta, &mut db, "s", &[], &[(10, 5)]);
    assert_eq!(delta.live_tuples(), 1, "one witness left");
    let scored = delta.scored_relation(&flock.param_names()).unwrap();
    assert_eq!(scored.tuples(), cold_scored(&flock, &db, 1).tuples());
    assert_eq!(scored.len(), 1);

    apply_batch(&mut delta, &mut db, "s", &[], &[(11, 5)]);
    assert_eq!(delta.live_tuples(), 0, "no witness left");
    assert!(delta
        .scored_relation(&flock.param_names())
        .unwrap()
        .is_empty());
}

/// First-touch seed ≡ build: an unseeded view handed its first batch
/// holds exactly what a view built on the post-batch catalog holds —
/// tuple for tuple and multiplicity for multiplicity (the `Debug`
/// rendering spells out every group's counted suffixes).
#[test]
fn first_touch_seed_equals_build() {
    for agg in 0..4 {
        let flock = flock_for("answer(A) :- r(A,X) AND r(A,$1) AND s(X,$2)", agg, 1);
        let mut db = Database::new();
        db.insert(rel2("r", &["a", "b"], &[(1, 2), (1, 3), (2, 2), (4, 4)]));
        db.insert(rel2("s", &["a", "b"], &[(2, 7), (3, 7), (4, 1)]));
        let mut lazy = FlockDelta::new(&flock).unwrap();
        assert_eq!(lazy.live_tuples(), 0);
        apply_batch(&mut lazy, &mut db, "r", &[(2, 3), (5, 4)], &[(4, 4)]);
        let built = FlockDelta::build(&flock, &db, &DeltaLimits::default()).unwrap();
        assert_eq!(format!("{lazy:?}"), format!("{built:?}"));
        assert_eq!(
            lazy.scored_relation(&flock.param_names()).unwrap(),
            built.scored_relation(&flock.param_names()).unwrap()
        );
        // …and the seeded view then joins deltas like the built one.
        let mut built = built;
        let mut db2 = db.clone();
        apply_batch(&mut lazy, &mut db, "s", &[(3, 9)], &[(2, 7)]);
        apply_batch(&mut built, &mut db2, "s", &[(3, 9)], &[(2, 7)]);
        assert_eq!(format!("{lazy:?}"), format!("{built:?}"));
    }
}
