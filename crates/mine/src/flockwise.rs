//! Levelwise itemset mining as a sequence of query flocks.
//!
//! §4.3, option 2: "This approach would yield the a-priori method for
//! sets of more than two items. In that case, we compute candidate sets
//! of k items by restricting to those itemsets such that each subset of
//! k−1 items previously has met the support test." And §2's footnote:
//! finding itemsets of growing cardinality "would be expressed as a
//! sequence of query flocks … with each flock depending on the result
//! of the previous flock."
//!
//! Level `k`'s flock (parameters `$a`, `$b`, … in lexicographic chains):
//!
//! ```text
//! answer(B) :- baskets(B,$a) AND … AND baskets(B,$k)
//!          AND $a < $b AND …
//!          AND freqK-1($a,…)        -- one per (k−1)-subset, exploiting
//!          AND freqK-1($b,…)        -- parameter symmetry (footnote 3)
//! FILTER: COUNT(answer.B) >= s
//! ```
//!
//! The per-subset reuse of the *same* previous-level relation under
//! permuted parameters is the symmetry the paper's footnote 3 notes is
//! special to a-priori; it falls outside the literal §4.2 plan rule, so
//! this module builds the sequence of flocks directly rather than as a
//! single `QueryPlan`.

use qf_core::{
    evaluate_direct_with, ExecContext, FlockError, JoinOrderStrategy, QueryFlock, Result,
};
use qf_datalog::{Atom, Comparison, ConjunctiveQuery, Literal, Term, UnionQuery};
use qf_storage::{CmpOp, Database, Relation, Schema};

/// Parameter names for levelwise flocks: single letters keep the
/// lexicographic parameter order aligned with the itemset order.
const PARAM_NAMES: [&str; 9] = ["a", "b", "c", "d", "e", "f", "g", "h", "i"];

/// Frequent-itemset relation name for level `k`.
pub fn level_relation_name(k: usize) -> String {
    format!("freq{k}")
}

/// Mine frequent itemsets levelwise, as a sequence of query flocks over
/// `baskets(BID, Item)` in `db`. Returns one relation per level `k`
/// (columns `a..`, one per item of the set), stopping early when a
/// level is empty. `max_k` is capped at 9.
///
/// Runs under an execution governor: every level's flock shares `ctx`'s
/// budgets ([`ExecContext::unbounded`] for none), so the whole
/// levelwise sequence — not each level separately — is bounded. A
/// tripped budget aborts with the levels computed so far discarded;
/// `db` itself is never mutated.
pub fn mine_flockwise_with(
    db: &Database,
    threshold: i64,
    max_k: usize,
    ctx: &ExecContext,
) -> Result<Vec<Relation>> {
    if max_k > PARAM_NAMES.len() {
        return Err(FlockError::IllegalPlan {
            detail: format!(
                "levelwise mining supports up to {} levels",
                PARAM_NAMES.len()
            ),
        });
    }
    let mut working = db.clone();
    let mut levels = Vec::new();
    for k in 1..=max_k {
        let flock = level_flock(k, threshold, &levels)?;
        let result = evaluate_direct_with(&flock, &working, JoinOrderStrategy::Greedy, ctx)?;
        let named = Relation::from_sorted_dedup(
            Schema::from_columns(
                level_relation_name(k),
                (0..k).map(|i| PARAM_NAMES[i].to_string()).collect(),
            ),
            result.tuples().to_vec(),
        );
        let empty = named.is_empty();
        working.insert(named.clone());
        levels.push(named);
        if empty {
            levels.pop();
            break;
        }
    }
    Ok(levels)
}

/// Build the level-`k` flock, adding `freq(k-1)` subgoals for every
/// (k−1)-subset of the parameters when a previous level exists.
fn level_flock(k: usize, threshold: i64, levels: &[Relation]) -> Result<QueryFlock> {
    let params: Vec<Term> = (0..k).map(|i| Term::param(PARAM_NAMES[i])).collect();
    let mut body: Vec<Literal> = Vec::new();
    for p in &params {
        body.push(Literal::Pos(Atom::new("baskets", vec![Term::var("B"), *p])));
    }
    for w in params.windows(2) {
        body.push(Literal::Cmp(Comparison::new(w[0], CmpOp::Lt, w[1])));
    }
    if k >= 2 && levels.len() >= k - 1 {
        let prev = level_relation_name(k - 1);
        for drop in 0..k {
            let args: Vec<Term> = (0..k).filter(|&i| i != drop).map(|i| params[i]).collect();
            body.push(Literal::Pos(Atom::new(&prev, args)));
        }
    }
    let head = Atom::new("answer", vec![Term::var("B")]);
    let query = UnionQuery::single(ConjunctiveQuery::new(head, body))?;
    QueryFlock::new(query, qf_core::FilterCondition::support(threshold))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::mine_apriori;
    use qf_storage::Value;

    fn db_from_transactions(txns: &[Vec<u32>]) -> Database {
        let mut rows = Vec::new();
        for (bid, t) in txns.iter().enumerate() {
            for &item in t {
                rows.push(vec![
                    Value::int(bid as i64),
                    Value::str(&format!("item{item:04}")),
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

    fn txns() -> Vec<Vec<u32>> {
        vec![
            vec![1, 2, 3],
            vec![1, 2, 3],
            vec![1, 2, 3],
            vec![1, 2],
            vec![1, 4],
            vec![2, 4],
            vec![3],
        ]
    }

    /// Convert a flockwise level relation into sorted itemsets.
    fn level_sets(rel: &Relation) -> Vec<Vec<String>> {
        let mut v: Vec<Vec<String>> = rel
            .iter()
            .map(|t| t.values().iter().map(|v| v.to_string()).collect())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn flockwise_matches_classic_apriori() {
        let txns = txns();
        let db = db_from_transactions(&txns);
        let flock_levels = mine_flockwise_with(&db, 3, 3, &ExecContext::unbounded()).unwrap();
        let classic = mine_apriori(&txns, 3, 3);
        for (k, rel) in flock_levels.iter().enumerate() {
            let k = k + 1;
            let expected: Vec<Vec<String>> = classic
                .frequent_k(k)
                .into_iter()
                .map(|(set, _)| set.iter().map(|i| format!("item{i:04}")).collect())
                .collect();
            assert_eq!(level_sets(rel), expected, "level {k}");
        }
        assert_eq!(flock_levels.len(), 3); // {1,2,3} is frequent at 3.
    }

    #[test]
    fn flockwise_matches_apriori_on_generated_data() {
        let data = qf_datagen::baskets::generate(&qf_datagen::BasketConfig {
            n_baskets: 300,
            avg_basket_size: 6,
            n_items: 60,
            n_patterns: 8,
            avg_pattern_size: 3,
            pattern_prob: 0.8,
            seed: 11,
        });
        let txns: Vec<Vec<u32>> = data
            .transactions
            .iter()
            .map(|t| t.iter().map(|&i| i as u32).collect())
            .collect();
        let db = {
            let mut db = Database::new();
            db.insert(data.baskets.clone());
            db
        };
        let threshold = 20;
        let flock_levels =
            mine_flockwise_with(&db, threshold, 3, &ExecContext::unbounded()).unwrap();
        let classic = mine_apriori(&txns, threshold as u64, 3);
        for (k, rel) in flock_levels.iter().enumerate() {
            let k = k + 1;
            assert_eq!(
                rel.len(),
                classic.frequent_k(k).len(),
                "level {k} cardinality"
            );
        }
    }

    #[test]
    fn stops_at_empty_level() {
        let db = db_from_transactions(&txns());
        let levels = mine_flockwise_with(&db, 4, 5, &ExecContext::unbounded()).unwrap();
        // At threshold 4 only {1},{2},{3} and {1,2} are frequent.
        assert_eq!(levels.len(), 2);
        assert_eq!(levels[0].len(), 3);
        assert_eq!(levels[1].len(), 1);
    }

    #[test]
    fn max_k_capped() {
        let db = db_from_transactions(&txns());
        assert!(mine_flockwise_with(&db, 1, 10, &ExecContext::unbounded()).is_err());
    }

    #[test]
    fn level_flock_shape() {
        let f = level_flock(2, 20, &[]).unwrap();
        let text = f.query().to_string();
        assert_eq!(
            text,
            "answer(B) :- baskets(B,$a) AND baskets(B,$b) AND $a < $b"
        );
    }
}
