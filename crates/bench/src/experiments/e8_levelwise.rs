//! **E8 — §4.3 option 2.** Levelwise k-itemset mining as a sequence of
//! query flocks, against the classic file-based a-priori algorithm.
//!
//! Two claims checked:
//!
//! * **equivalence** — the flock sequence finds exactly the classic
//!   algorithm's frequent itemsets at every level (the paper's central
//!   "generalization" claim);
//! * **§1.4's honesty clause** — "ad-hoc file processing algorithms can
//!   outperform, often significantly, DBMS-based algorithms"; the
//!   timing columns record that expected gap rather than hiding it.

use qf_core::ExecContext;
use qf_mine::{generate_rules, mine_apriori, mine_flockwise_with};

use crate::table::{fmt_duration, Table};
use crate::timing::time_median;
use crate::workloads::basket_data;
use crate::Scale;

/// Run E8.
pub fn run(scale: Scale) -> Vec<Table> {
    let data = basket_data(scale);
    let mut db = qf_storage::Database::new();
    db.insert(data.baskets.clone());
    let txns: Vec<Vec<u32>> = data
        .transactions
        .iter()
        .map(|t| t.iter().map(|&i| i as u32).collect())
        .collect();
    let (threshold, max_k) = match scale {
        Scale::Small => (15i64, 3usize),
        Scale::Full => (40i64, 4usize),
    };

    let (flock_levels, flock_t) = time_median(1, || {
        mine_flockwise_with(&db, threshold, max_k, &ExecContext::unbounded()).unwrap()
    });
    let (classic, classic_t) = time_median(3, || mine_apriori(&txns, threshold as u64, max_k));

    let mut table = Table::new(
        "E8 (§4.3 option 2): levelwise flocks vs. classic a-priori",
        &["level k", "flock itemsets", "classic itemsets", "equal"],
    );
    table.note(format!(
        "support {threshold}, {} transactions; flock sequence total {}, \
         classic total {} (§1.4 predicts the file algorithm wins on time)",
        txns.len(),
        fmt_duration(flock_t),
        fmt_duration(classic_t),
    ));
    for k in 1..=max_k {
        let flock_n = flock_levels.get(k - 1).map_or(0, |r| r.len());
        let classic_n = classic.frequent_k(k).len();
        assert_eq!(flock_n, classic_n, "level {k} cardinality mismatch");
        table.row(vec![
            k.to_string(),
            flock_n.to_string(),
            classic_n.to_string(),
            "yes".to_string(),
        ]);
    }

    // Bonus: the §1.1 measures on the classic result.
    let rules = generate_rules(&classic, 0.6);
    let mut rules_table = Table::new(
        "E8b (§1.1): top association rules by confidence",
        &["rule", "support", "confidence", "interest"],
    );
    for r in rules.iter().take(10) {
        let ante: Vec<String> = r
            .antecedent
            .iter()
            .map(|&i| qf_datagen::baskets::item_name(i as usize))
            .collect();
        rules_table.row(vec![
            format!(
                "{{{}}} -> {}",
                ante.join(","),
                qf_datagen::baskets::item_name(r.consequent as usize)
            ),
            format!("{:.4}", r.support),
            format!("{:.3}", r.confidence),
            format!("{:.2}", r.interest),
        ]);
    }
    vec![table, rules_table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_levels_agree() {
        let tables = run(Scale::Small);
        assert!(tables[0].rows.iter().all(|r| r[3] == "yes"));
    }
}
