//! Property tests: on random small databases, every evaluation strategy
//! computes the same flock — the central soundness claim of the paper's
//! optimization framework (legal plans are *equivalent* to the flock).

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;

use query_flocks::core::{
    best_plan_with, direct_plan, enumerate_plans, evaluate_direct, evaluate_dynamic_with,
    evaluate_naive, evaluate_scored_partial, execute_plan_with, partial_flock, partition_database,
    DeltaLimits, DynamicConfig, FlockDelta, FlockError, JoinOrderStrategy, QueryFlock,
};
use query_flocks::engine::{row_cost, ExecContext};
use query_flocks::storage::{Database, Relation, Schema, SpillDir, Value};

/// A random baskets relation over a small domain.
fn baskets_strategy() -> impl Strategy<Value = Vec<(i64, u8)>> {
    prop::collection::vec((0..12i64, 0..8u8), 0..80)
}

/// Random medical data: diagnoses (patient, disease), exhibits
/// (patient, symptom), treatments (patient, medicine), and causes
/// (disease, symptom).
type MedicalData = (
    Vec<(i64, u8)>,
    Vec<(i64, u8)>,
    Vec<(i64, u8)>,
    Vec<(u8, u8)>,
);

/// A random medical database over small domains.
fn medical_strategy() -> impl Strategy<Value = MedicalData> {
    (
        prop::collection::vec((0..10i64, 0..4u8), 0..30),
        prop::collection::vec((0..10i64, 0..5u8), 0..40),
        prop::collection::vec((0..10i64, 0..4u8), 0..30),
        prop::collection::vec((0..4u8, 0..5u8), 0..10),
    )
}

fn basket_db(rows: &[(i64, u8)]) -> Database {
    let mut db = Database::new();
    db.insert(Relation::from_rows(
        Schema::new("baskets", &["bid", "item"]),
        rows.iter()
            .map(|&(b, i)| vec![Value::int(b), Value::str(&format!("i{i}"))])
            .collect(),
    ));
    db
}

/// Dynamic evaluation ≡ `naive` on every route: unbounded at the
/// default thread count, at threads 1 and 4, and out of core — a spill
/// directory plus a memory budget just above what must be resident at
/// once (the catalog's scans and the largest stage result, which the
/// walk loads to inspect), so everything inside a stage spills instead.
/// Every subgoal of these flocks has arity 2, so stage `i` is `2(i+1)`
/// columns wide.
fn assert_dynamic_routes(
    flock: &QueryFlock,
    db: &Database,
    naive: &Relation,
) -> Result<(), TestCaseError> {
    let config = DynamicConfig::default();
    let unbounded = evaluate_dynamic_with(flock, db, &config, &ExecContext::unbounded()).unwrap();
    prop_assert_eq!(unbounded.result.tuples(), naive.tuples());
    for threads in [1, 4] {
        let ctx = ExecContext::unbounded().with_threads(threads);
        let report = evaluate_dynamic_with(flock, db, &config, &ctx).unwrap();
        prop_assert_eq!(
            report.result.tuples(),
            naive.tuples(),
            "threads {}",
            threads
        );
    }

    let stages = unbounded.decisions.split_last().map_or(&[][..], |(_, s)| s);
    let largest = stages
        .iter()
        .enumerate()
        .map(|(i, d)| d.tuples as u64 * row_cost(2 * (i + 1)))
        .max()
        .unwrap_or(0);
    let catalog: u64 = db
        .iter()
        .map(|r| r.len() as u64 * row_cost(r.schema().arity()))
        .sum();
    let ctx = ExecContext::unbounded()
        .with_spill(Arc::new(SpillDir::create_temp().unwrap()))
        .with_mem_budget(catalog + largest + 4 * row_cost(2 * stages.len()));
    let report = evaluate_dynamic_with(flock, db, &config, &ctx).unwrap();
    prop_assert_eq!(report.result.tuples(), naive.tuples(), "spill-enabled");
    prop_assert_eq!(ctx.stats().spill_files_live, 0);
    Ok(())
}

/// `baskets` plus `importance(bid, w)` giving basket `b` weight
/// `weights[b]`.
fn weighted_db(rows: &[(i64, u8)], weights: &[i64]) -> Database {
    let mut db = basket_db(rows);
    db.insert(Relation::from_rows(
        Schema::new("importance", &["bid", "w"]),
        weights
            .iter()
            .enumerate()
            .map(|(b, &w)| vec![Value::int(b as i64), Value::int(w)])
            .collect(),
    ));
    db
}

/// §5: a negative weight under a SUM filter is refused with
/// `FlockError::NegativeWeight` on every route — naive, direct,
/// best-static, dynamic, spilled (the fused step), delta-maintained
/// (the batch that brings the weight in) and a scatter partial (the
/// fragment holding it). `db` is the catalog before the batch that
/// turns it into `negative`.
fn assert_negative_weight_refused(
    flock: &QueryFlock,
    db: &Database,
    negative: &Database,
) -> Result<(), TestCaseError> {
    let refused = |route: &str, r: Result<(), FlockError>| -> Result<(), TestCaseError> {
        prop_assert!(
            matches!(r, Err(FlockError::NegativeWeight { .. })),
            "{}: {:?}",
            route,
            r
        );
        Ok(())
    };
    let unbounded = ExecContext::unbounded();
    refused("naive", evaluate_naive(flock, negative).map(drop))?;
    refused(
        "direct",
        evaluate_direct(flock, negative, JoinOrderStrategy::Greedy).map(drop),
    )?;
    let (best, _) = best_plan_with(flock, negative, &unbounded).unwrap();
    refused(
        "best-static",
        execute_plan_with(&best, negative, JoinOrderStrategy::Greedy, &unbounded).map(drop),
    )?;
    refused(
        "dynamic",
        evaluate_dynamic_with(flock, negative, &DynamicConfig::default(), &unbounded).map(drop),
    )?;
    let spilled = ExecContext::unbounded()
        .with_spill(Arc::new(SpillDir::create_temp().unwrap()))
        .with_mem_budget(1 << 20);
    for plan in [direct_plan(flock).unwrap(), best] {
        refused(
            "spilled",
            execute_plan_with(&plan, negative, JoinOrderStrategy::Greedy, &spilled).map(drop),
        )?;
    }
    prop_assert_eq!(spilled.stats().spill_files_live, 0);

    let mut delta = FlockDelta::build(flock, db, &DeltaLimits::default()).unwrap();
    let (old, new) = (
        db.get("importance").unwrap(),
        negative.get("importance").unwrap(),
    );
    refused(
        "delta",
        delta
            .apply("importance", old, new, negative, &DeltaLimits::default())
            .map(drop),
    )?;

    let step = &direct_plan(flock).unwrap().steps[0];
    let partial = partial_flock(step, flock.filter()).unwrap();
    let frags = partition_database(negative, 2, &BTreeSet::new());
    let partials: Vec<_> = frags
        .iter()
        .map(|frag| evaluate_scored_partial(&partial, frag, JoinOrderStrategy::Greedy, &unbounded))
        .collect();
    prop_assert!(partials.iter().any(Result::is_err));
    for p in partials.into_iter().filter(Result::is_err) {
        refused("scatter partial", p.map(drop))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Basket flock: naive ≡ direct ≡ every enumerated plan ≡ dynamic.
    #[test]
    fn basket_flock_equivalence(rows in baskets_strategy(), threshold in 1i64..6) {
        let db = basket_db(&rows);
        let flock = QueryFlock::with_support(
            "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            threshold,
        ).unwrap();

        let naive = evaluate_naive(&flock, &db).unwrap();
        for strategy in [
            JoinOrderStrategy::AsWritten,
            JoinOrderStrategy::Greedy,
            JoinOrderStrategy::OptimalDp,
        ] {
            let direct = evaluate_direct(&flock, &db, strategy).unwrap();
            prop_assert_eq!(direct.tuples(), naive.tuples());
        }
        for plan in enumerate_plans(&flock, &db).unwrap() {
            let run = execute_plan_with(&plan, &db, JoinOrderStrategy::Greedy, &ExecContext::unbounded()).unwrap();
            prop_assert_eq!(run.result.tuples(), naive.tuples());
        }
        assert_dynamic_routes(&flock, &db, &naive)?;
    }

    /// Medical flock (negation!): naive ≡ direct ≡ plans ≡ dynamic.
    #[test]
    fn medical_flock_equivalence(
        (diag, exh, treat, causes) in medical_strategy(),
        threshold in 1i64..5,
    ) {
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("diagnoses", &["p", "d"]),
            diag.iter().map(|&(p, d)| vec![Value::int(p), Value::str(&format!("d{d}"))]).collect(),
        ));
        db.insert(Relation::from_rows(
            Schema::new("exhibits", &["p", "s"]),
            exh.iter().map(|&(p, s)| vec![Value::int(p), Value::str(&format!("s{s}"))]).collect(),
        ));
        db.insert(Relation::from_rows(
            Schema::new("treatments", &["p", "m"]),
            treat.iter().map(|&(p, m)| vec![Value::int(p), Value::str(&format!("m{m}"))]).collect(),
        ));
        db.insert(Relation::from_rows(
            Schema::new("causes", &["d", "s"]),
            causes.iter().map(|&(d, s)| vec![Value::str(&format!("d{d}")), Value::str(&format!("s{s}"))]).collect(),
        ));
        let flock = QueryFlock::with_support(
            "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND \
             diagnoses(P,D) AND NOT causes(D,$s)",
            threshold,
        ).unwrap();

        let naive = evaluate_naive(&flock, &db).unwrap();
        let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
        prop_assert_eq!(direct.tuples(), naive.tuples());
        for plan in enumerate_plans(&flock, &db).unwrap() {
            let run = execute_plan_with(&plan, &db, JoinOrderStrategy::Greedy, &ExecContext::unbounded()).unwrap();
            prop_assert_eq!(run.result.tuples(), naive.tuples(), "plan: {}", plan);
        }
        assert_dynamic_routes(&flock, &db, &naive)?;
    }

    /// Weighted SUM flock with non-negative weights: naive ≡ direct ≡
    /// plans (monotone pruning stays sound). With one negative weight
    /// reaching the answer, every route refuses it the same way.
    #[test]
    fn weighted_flock_equivalence(
        rows in baskets_strategy(),
        weights in prop::collection::vec(0i64..5, 12),
        threshold in 1i64..12,
    ) {
        let db = weighted_db(&rows, &weights);
        let flock = QueryFlock::parse(&format!(
            "QUERY: answer(B,W) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2 \
             AND importance(B,W) FILTER: SUM(answer.W) >= {threshold}"
        )).unwrap();

        let naive = evaluate_naive(&flock, &db).unwrap();
        let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
        prop_assert_eq!(direct.tuples(), naive.tuples());
        for plan in enumerate_plans(&flock, &db).unwrap() {
            let run = execute_plan_with(&plan, &db, JoinOrderStrategy::Greedy, &ExecContext::unbounded()).unwrap();
            prop_assert_eq!(run.result.tuples(), naive.tuples(), "plan: {}", plan);
        }

        // Basket 0 holds items i0 and i1, so its (now negative) weight
        // reaches the pair (i0, i1)'s SUM on every route.
        let mut negative = weights.clone();
        negative[0] = -1 - weights[0];
        let mut rows = rows;
        rows.extend([(0, 0), (0, 1)]);
        assert_negative_weight_refused(&flock, &weighted_db(&rows, &weights), &weighted_db(&rows, &negative))?;
    }

    /// Non-monotone COUNT filters must not be prematurely pruned by the
    /// dynamic evaluator (regression: pruning with `>= t` is unsound for
    /// `COUNT < t`).
    #[test]
    fn non_monotone_count_dynamic_equals_naive(
        rows in baskets_strategy(),
        threshold in 1i64..6,
    ) {
        let db = basket_db(&rows);
        let flock = QueryFlock::parse(&format!(
            "QUERY: answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2 \
             FILTER: COUNT(answer.B) < {threshold}"
        )).unwrap();
        let naive = evaluate_naive(&flock, &db).unwrap();
        let direct = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
        prop_assert_eq!(direct.tuples(), naive.tuples());
        assert_dynamic_routes(&flock, &db, &naive)?;
    }

    /// Dynamic evaluation is insensitive to its tuning knobs (they move
    /// cost, never answers).
    #[test]
    fn dynamic_config_never_changes_answers(
        rows in baskets_strategy(),
        threshold in 1i64..6,
        first in 0.1f64..4.0,
        improve in 0.1f64..1.0,
    ) {
        let db = basket_db(&rows);
        let flock = QueryFlock::with_support(
            "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            threshold,
        ).unwrap();
        let reference = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
        let config = DynamicConfig {
            first_sight_factor: first,
            improvement_factor: improve,
            strategy: JoinOrderStrategy::Greedy,
        };
        let report = evaluate_dynamic_with(&flock, &db, &config, &ExecContext::unbounded()).unwrap();
        prop_assert_eq!(report.result.tuples(), reference.tuples());
    }
}
