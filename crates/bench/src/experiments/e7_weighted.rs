//! **E7 — Fig. 10 (§5 future work).** The weighted market-basket flock:
//! a monotone `SUM` filter over basket importance weights.
//!
//! The claim to reproduce: "the techniques described in this paper apply
//! directly to any monotone filter condition." Concretely, the a-priori
//! prefilter (`ok_1`/`ok_2` by *summed weight*) must leave the answer
//! unchanged and still pay off on skewed data — and the machinery must
//! *reject* pruning when monotonicity breaks (negative weights).

use qf_core::{
    evaluate_direct, execute_plan_with, single_param_plan, ExecContext, FlockError,
    JoinOrderStrategy, QueryFlock,
};
use qf_storage::{Relation, Schema, Value};

use crate::table::{fmt_duration, Table};
use crate::timing::{speedup, time_median};
use crate::workloads::weighted_basket_db;
use crate::Scale;

/// The Fig. 10 flock.
pub fn weighted_flock(threshold: i64) -> QueryFlock {
    QueryFlock::parse(&format!(
        "QUERY:
         answer(B,W) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2 AND importance(B,W)
         FILTER: SUM(answer.W) >= {threshold}"
    ))
    .expect("static flock text")
}

/// Run E7.
pub fn run(scale: Scale) -> Vec<Table> {
    let db = weighted_basket_db(scale);
    let thresholds: &[i64] = match scale {
        Scale::Small => &[100, 300],
        Scale::Full => &[300, 1000, 3000],
    };

    let mut table = Table::new(
        "E7 (Fig. 10): weighted baskets under a monotone SUM filter",
        &[
            "SUM threshold",
            "direct",
            "a-priori plan",
            "speedup",
            "pairs",
        ],
    );
    table.note(
        "weights are non-negative (precondition for SUM monotonicity, §5); \
         the prefilters restrict each item by summed basket weight."
            .to_string(),
    );

    for &threshold in thresholds {
        let flock = weighted_flock(threshold);
        let (direct, direct_t) = time_median(3, || {
            evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap()
        });
        let plan = single_param_plan(&flock, &db).unwrap();
        let (planned, plan_t) = time_median(3, || {
            execute_plan_with(
                &plan,
                &db,
                JoinOrderStrategy::Greedy,
                &ExecContext::unbounded(),
            )
            .unwrap()
        });
        assert_eq!(direct.tuples(), planned.result.tuples());
        table.row(vec![
            threshold.to_string(),
            fmt_duration(direct_t),
            fmt_duration(plan_t),
            format!("{:.1}x", speedup(direct_t, plan_t)),
            direct.len().to_string(),
        ]);
    }

    // Monotonicity guard: a negative weight must abort evaluation.
    let mut guarded = db.clone();
    let mut rows: Vec<Vec<Value>> = guarded
        .get("importance")
        .unwrap()
        .iter()
        .map(|t| t.values().to_vec())
        .collect();
    rows[0][1] = Value::int(-5);
    guarded.insert(Relation::from_rows(
        Schema::new("importance", &["bid", "w"]),
        rows,
    ));
    let err =
        evaluate_direct(&weighted_flock(100), &guarded, JoinOrderStrategy::Greedy).unwrap_err();
    assert!(matches!(err, FlockError::NegativeWeight { .. }));
    table.note(
        "guard check: injecting a negative weight makes evaluation fail with \
         NegativeWeight instead of silently returning unsound prunes — \
         verified on this run."
            .to_string(),
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_runs() {
        let tables = run(Scale::Small);
        assert_eq!(tables[0].rows.len(), 2);
    }
}
