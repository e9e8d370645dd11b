//! **E2 — Fig. 2.** The market-basket problem as a query flock. Three
//! computations of the same answer must coincide exactly:
//!
//! 1. the flock evaluated directly (Fig. 1/Fig. 2 semantics);
//! 2. the flock evaluated through an a-priori query plan;
//! 3. the classic file-based a-priori miner at level 2 (\[AS94\]).
//!
//! This is the paper's framing made executable: association-rule mining
//! *is* a query flock, and the flock machinery reproduces the classic
//! algorithm's output tuple for tuple.

use qf_core::{
    evaluate_direct, execute_plan_with, single_param_plan, ExecContext, JoinOrderStrategy,
    QueryFlock,
};
use qf_mine::mine_apriori;
use qf_storage::Value;

use crate::table::{fmt_duration, Table};
use crate::timing::time_median;
use crate::workloads::basket_data;
use crate::Scale;

/// Run E2.
pub fn run(scale: Scale) -> Vec<Table> {
    let data = basket_data(scale);
    let mut db = qf_storage::Database::new();
    db.insert(data.baskets.clone());
    let thresholds: &[i64] = match scale {
        Scale::Small => &[10, 20],
        Scale::Full => &[20, 40, 80],
    };
    let txns: Vec<Vec<u32>> = data
        .transactions
        .iter()
        .map(|t| t.iter().map(|&i| i as u32).collect())
        .collect();

    let mut table = Table::new(
        "E2 (Fig. 2): market-basket flock vs. classic a-priori",
        &[
            "support",
            "flock direct",
            "flock plan",
            "classic apriori",
            "pairs",
            "agree",
        ],
    );
    table.note(format!(
        "Quest-style baskets: {} transactions, {} items",
        txns.len(),
        data.baskets.distinct(1)
    ));

    for &threshold in thresholds {
        let flock = QueryFlock::with_support(
            "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            threshold,
        )
        .unwrap();
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
        let (classic, classic_t) = time_median(3, || mine_apriori(&txns, threshold as u64, 2));

        // Convert classic level-2 itemsets to the flock's tuple form.
        let mut classic_pairs: Vec<(Value, Value)> = classic
            .frequent_k(2)
            .into_iter()
            .map(|(set, _)| {
                (
                    Value::str(&qf_datagen::baskets::item_name(set[0] as usize)),
                    Value::str(&qf_datagen::baskets::item_name(set[1] as usize)),
                )
            })
            .collect();
        classic_pairs.sort();
        let flock_pairs: Vec<(Value, Value)> =
            direct.iter().map(|t| (t.get(0), t.get(1))).collect();
        let agree = direct.tuples() == planned.result.tuples() && flock_pairs == classic_pairs;
        assert!(
            agree,
            "the three computations disagree at support {threshold}"
        );

        table.row(vec![
            threshold.to_string(),
            fmt_duration(direct_t),
            fmt_duration(plan_t),
            fmt_duration(classic_t),
            direct.len().to_string(),
            "yes".to_string(),
        ]);
    }
    table.note(
        "`agree` asserts all three produce identical pair sets — the flock \
         framework generalizes a-priori without changing its answers (§1.4 \
         expects the file algorithm to be fastest)."
            .to_string(),
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_agrees() {
        let tables = run(Scale::Small);
        assert!(tables[0].rows.iter().all(|r| r[5] == "yes"));
    }
}
