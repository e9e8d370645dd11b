//! Maximal frequent itemsets.
//!
//! The paper's footnote 2 (§2.2): "finding something more complex, like
//! the set of *maximal* sets of items that appear in at least c baskets
//! (regardless of the cardinality of the set of items), is more awkward
//! and would be expressed as a sequence of query flocks for increasing
//! cardinalities, with each flock depending on the result of the
//! previous flock." [`mine_flockwise_with`](crate::mine_flockwise_with)
//! is that sequence; this module derives the maximal sets from its
//! levels (or from a classic [`AprioriResult`]).

use crate::apriori::{AprioriResult, ItemSet};

/// Frequent itemsets with no frequent proper superset, derived from a
/// levelwise mining result. Sorted for determinism.
pub fn maximal_itemsets(result: &AprioriResult) -> Vec<ItemSet> {
    let mut maximal: Vec<ItemSet> = Vec::new();
    for k in (1..=result.levels.len()).rev() {
        let level = &result.levels[k - 1];
        // A k-set is maximal iff no (k+1)-level frequent set contains
        // it: a-priori is levelwise-complete, so any frequent strict
        // superset implies a frequent superset exactly one item larger.
        let next_level = result.levels.get(k);
        for set in level.keys() {
            let covered = next_level.is_some_and(|next| next.keys().any(|sup| is_subset(set, sup)));
            if !covered {
                maximal.push(set.clone());
            }
        }
    }
    maximal.sort();
    maximal
}

/// `a ⊆ b` for sorted itemsets.
fn is_subset(a: &[u32], b: &[u32]) -> bool {
    let mut bi = b.iter();
    'outer: for x in a {
        for y in bi.by_ref() {
            match y.cmp(x) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori::mine_apriori;

    #[test]
    fn subset_check() {
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(is_subset(&[], &[1]));
        assert!(!is_subset(&[1, 4], &[1, 2, 3]));
        assert!(!is_subset(&[1, 2, 3], &[1, 2]));
    }

    #[test]
    fn maximal_from_toy_data() {
        // {1,2,3} frequent at 3 ⇒ all its subsets are non-maximal;
        // {4} frequent alone (appears twice, with 1 and with 2 — but
        // {1,4} and {2,4} have support 1 < 3).
        let txns = vec![
            vec![1, 2, 3],
            vec![1, 2, 3],
            vec![1, 2, 3],
            vec![1, 4],
            vec![2, 4],
            vec![3, 4],
        ];
        let r = mine_apriori(&txns, 3, 4);
        let maximal = maximal_itemsets(&r);
        assert_eq!(maximal, vec![vec![1, 2, 3], vec![4]]);
    }

    #[test]
    fn all_singletons_maximal_when_no_pairs() {
        let txns = vec![vec![1], vec![1], vec![2], vec![2]];
        let r = mine_apriori(&txns, 2, 3);
        assert_eq!(maximal_itemsets(&r), vec![vec![1], vec![2]]);
    }

    #[test]
    fn maximality_invariant() {
        // Property-style: no maximal set is a subset of another maximal
        // set, and every frequent set is covered by some maximal set.
        let txns: Vec<Vec<u32>> = (0..40u32)
            .map(|i| (0..6).filter(|&j| (i + j) % 3 != 0).collect())
            .collect();
        let r = mine_apriori(&txns, 8, 5);
        let maximal = maximal_itemsets(&r);
        for (i, a) in maximal.iter().enumerate() {
            for (j, b) in maximal.iter().enumerate() {
                if i != j {
                    assert!(!is_subset(a, b), "{a:?} ⊆ {b:?}");
                }
            }
        }
        for level in &r.levels {
            for set in level.keys() {
                assert!(
                    maximal.iter().any(|m| is_subset(set, m)),
                    "{set:?} not covered"
                );
            }
        }
    }
}
