//! Property tests for the mining algorithms: the a-priori monotonicity
//! law, agreement between the flock sequence and the classic miner, and
//! maximality invariants.

use proptest::prelude::*;

use qf_core::ExecContext;
use qf_mine::{generate_rules, maximal_itemsets, mine_apriori, mine_flockwise_with};
use qf_storage::{Database, Relation, Schema, Value};

fn txns_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::btree_set(0u32..10, 0..6), 0..60)
        .prop_map(|sets| sets.into_iter().map(|s| s.into_iter().collect()).collect())
}

fn db_of(txns: &[Vec<u32>]) -> Database {
    let mut rows = Vec::new();
    for (bid, t) in txns.iter().enumerate() {
        for &i in t {
            rows.push(vec![
                Value::int(bid as i64),
                Value::str(&format!("item{i:04}")),
            ]);
        }
    }
    let mut db = Database::new();
    db.insert(Relation::from_rows(
        Schema::new("baskets", &["bid", "item"]),
        rows,
    ));
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The a-priori law: every subset of a frequent itemset is frequent,
    /// with support at least as large.
    #[test]
    fn apriori_monotonicity(txns in txns_strategy(), threshold in 1u64..6) {
        let r = mine_apriori(&txns, threshold, 4);
        for k in 2..=r.levels.len() {
            for (set, &count) in &r.levels[k - 1] {
                for drop in 0..set.len() {
                    let mut sub = set.clone();
                    sub.remove(drop);
                    let sub_count = r.support(&sub);
                    prop_assert!(
                        sub_count.is_some_and(|c| c >= count),
                        "{sub:?} ⊂ {set:?} but support {sub_count:?} < {count}"
                    );
                }
            }
        }
    }

    /// Support counts are exact (checked against direct counting).
    #[test]
    fn supports_exact(txns in txns_strategy(), threshold in 1u64..5) {
        let r = mine_apriori(&txns, threshold, 3);
        for level in &r.levels {
            for (set, &count) in level {
                let actual = txns
                    .iter()
                    .filter(|t| set.iter().all(|i| t.contains(i)))
                    .count() as u64;
                prop_assert_eq!(actual, count, "{:?}", set);
            }
        }
    }

    /// The flock sequence finds exactly the classic miner's itemsets.
    #[test]
    fn flockwise_equals_classic(txns in txns_strategy(), threshold in 1i64..5) {
        let db = db_of(&txns);
        let levels = mine_flockwise_with(&db, threshold, 3, &ExecContext::unbounded()).unwrap();
        let classic = mine_apriori(&txns, threshold as u64, 3);
        for (k, rel) in levels.iter().enumerate() {
            let k = k + 1;
            let mut got: Vec<Vec<String>> = rel
                .iter()
                .map(|t| t.values().iter().map(|v| v.to_string()).collect())
                .collect();
            got.sort();
            let want: Vec<Vec<String>> = classic
                .frequent_k(k)
                .into_iter()
                .map(|(set, _)| set.iter().map(|i| format!("item{i:04}")).collect())
                .collect();
            prop_assert_eq!(got, want, "level {}", k);
        }
    }

    /// Maximal itemsets form an antichain covering all frequent sets.
    #[test]
    fn maximal_antichain(txns in txns_strategy(), threshold in 1u64..5) {
        let r = mine_apriori(&txns, threshold, 4);
        let maximal = maximal_itemsets(&r);
        let is_subset = |a: &[u32], b: &[u32]| a.iter().all(|x| b.contains(x));
        for (i, a) in maximal.iter().enumerate() {
            for (j, b) in maximal.iter().enumerate() {
                if i != j {
                    prop_assert!(!is_subset(a, b));
                }
            }
        }
        for level in &r.levels {
            for set in level.keys() {
                prop_assert!(maximal.iter().any(|m| is_subset(set, m)));
            }
        }
    }

    /// Rule measures are internally consistent: confidence ∈ (0,1],
    /// support ≤ antecedent's support fraction, interest ≥ 0.
    #[test]
    fn rule_measures_consistent(txns in txns_strategy(), threshold in 1u64..5) {
        let r = mine_apriori(&txns, threshold, 3);
        for rule in generate_rules(&r, 0.0) {
            prop_assert!(rule.confidence > 0.0 && rule.confidence <= 1.0);
            prop_assert!(rule.support > 0.0 && rule.support <= 1.0);
            prop_assert!(rule.interest >= 0.0);
            // support fraction = count / n.
            prop_assert!(
                (rule.support - rule.support_count as f64 / r.n_transactions as f64).abs()
                    < 1e-12
            );
        }
    }
}
