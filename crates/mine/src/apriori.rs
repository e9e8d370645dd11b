//! The classic a-priori levelwise algorithm (\[AS94\]).
//!
//! §1.2: "if a set of items S appears in c baskets, then any subset of
//! S appears in at least c baskets" — so level k's candidates are
//! exactly the k-sets all of whose (k−1)-subsets were frequent. This is
//! the file-based comparator the flock machinery is measured against.

use qf_storage::FastMap;

/// A sorted set of item ids.
pub type ItemSet = Vec<u32>;

/// Frequent itemsets by level: `levels[k-1]` maps each frequent k-set
/// to its support count.
#[derive(Clone, Debug, Default)]
pub struct AprioriResult {
    /// `levels[k-1]`: frequent k-itemsets with support counts.
    pub levels: Vec<FastMap<ItemSet, u64>>,
    /// Number of transactions mined.
    pub n_transactions: usize,
}

impl AprioriResult {
    /// Support count of an itemset, if frequent.
    pub fn support(&self, set: &[u32]) -> Option<u64> {
        self.levels
            .get(set.len().checked_sub(1)?)
            .and_then(|l| l.get(set))
            .copied()
    }

    /// All frequent itemsets of size `k`, sorted (deterministic order).
    pub fn frequent_k(&self, k: usize) -> Vec<(ItemSet, u64)> {
        let mut v: Vec<(ItemSet, u64)> = self
            .levels
            .get(k - 1)
            .map(|l| l.iter().map(|(s, &c)| (s.clone(), c)).collect())
            .unwrap_or_default();
        v.sort();
        v
    }
}

/// Mine frequent itemsets up to size `max_k` at the given absolute
/// support threshold. Transactions must contain sorted, deduplicated
/// item ids (asserted in debug builds).
pub fn mine_apriori(transactions: &[Vec<u32>], threshold: u64, max_k: usize) -> AprioriResult {
    debug_assert!(transactions
        .iter()
        .all(|t| t.windows(2).all(|w| w[0] < w[1])));
    let mut result = AprioriResult {
        levels: Vec::new(),
        n_transactions: transactions.len(),
    };
    if max_k == 0 {
        return result;
    }

    // L1: plain counting.
    let mut counts: FastMap<ItemSet, u64> = FastMap::default();
    for t in transactions {
        for &item in t {
            *counts.entry(vec![item]).or_insert(0) += 1;
        }
    }
    counts.retain(|_, c| *c >= threshold);
    result.levels.push(counts);

    for k in 2..=max_k {
        let prev = &result.levels[k - 2];
        if prev.is_empty() {
            break;
        }
        let candidates = generate_candidates(prev, k);
        if candidates.is_empty() {
            break;
        }
        // Counting pass: enumerate each transaction's k-subsets of
        // frequent-ish items and probe the candidate table.
        let mut counts: FastMap<ItemSet, u64> = FastMap::default();
        let singleton_frequent = &result.levels[0];
        let mut buf: Vec<u32> = Vec::new();
        for t in transactions {
            // Restrict to items that are themselves frequent — any
            // subset containing an infrequent item cannot be a candidate.
            buf.clear();
            buf.extend(
                t.iter()
                    .copied()
                    .filter(|&i| singleton_frequent.contains_key(&vec![i][..] as &[u32])),
            );
            if buf.len() < k {
                continue;
            }
            for subset in KSubsets::new(&buf, k) {
                if candidates.contains(&subset) {
                    *counts.entry(subset).or_insert(0) += 1;
                }
            }
        }
        counts.retain(|_, c| *c >= threshold);
        let done = counts.is_empty();
        result.levels.push(counts);
        if done {
            break;
        }
    }
    result
}

/// Candidate generation: join L_{k-1} with itself on a shared (k−2)
/// prefix, then prune candidates with any infrequent (k−1)-subset.
fn generate_candidates(prev: &FastMap<ItemSet, u64>, k: usize) -> qf_storage::FastSet<ItemSet> {
    let mut sorted: Vec<&ItemSet> = prev.keys().collect();
    sorted.sort();
    let mut candidates = qf_storage::FastSet::default();
    for (i, a) in sorted.iter().enumerate() {
        for b in &sorted[i + 1..] {
            if a[..k - 2] != b[..k - 2] {
                break; // sorted order: prefixes only diverge forward.
            }
            let mut cand: ItemSet = (*a).clone();
            cand.push(*b.last().unwrap());
            debug_assert!(cand.windows(2).all(|w| w[0] < w[1]));
            // Subset prune: every (k-1)-subset must be frequent.
            let all_frequent = (0..cand.len()).all(|drop| {
                let mut sub = cand.clone();
                sub.remove(drop);
                prev.contains_key(&sub)
            });
            if all_frequent {
                candidates.insert(cand);
            }
        }
    }
    candidates
}

/// Iterator over the k-subsets of a sorted slice, in lexicographic order.
struct KSubsets<'a> {
    items: &'a [u32],
    indices: Vec<usize>,
    done: bool,
}

impl<'a> KSubsets<'a> {
    fn new(items: &'a [u32], k: usize) -> KSubsets<'a> {
        KSubsets {
            items,
            indices: (0..k).collect(),
            done: k > items.len() || k == 0,
        }
    }
}

impl Iterator for KSubsets<'_> {
    type Item = ItemSet;

    fn next(&mut self) -> Option<ItemSet> {
        if self.done {
            return None;
        }
        let out: ItemSet = self.indices.iter().map(|&i| self.items[i]).collect();
        // Advance (standard combination increment).
        let k = self.indices.len();
        let n = self.items.len();
        let mut i = k;
        loop {
            if i == 0 {
                self.done = true;
                break;
            }
            i -= 1;
            if self.indices[i] != i + n - k {
                self.indices[i] += 1;
                for j in i + 1..k {
                    self.indices[j] = self.indices[j - 1] + 1;
                }
                break;
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txns() -> Vec<Vec<u32>> {
        // Classic toy: {1,2,3} appears 3×, {1,2} 4×, singles extra.
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

    #[test]
    fn level_one_counts() {
        let r = mine_apriori(&txns(), 2, 1);
        assert_eq!(r.support(&[1]), Some(5));
        assert_eq!(r.support(&[2]), Some(5));
        assert_eq!(r.support(&[3]), Some(4));
        assert_eq!(r.support(&[4]), Some(2));
    }

    #[test]
    fn level_two_and_three() {
        let r = mine_apriori(&txns(), 3, 3);
        assert_eq!(r.support(&[1, 2]), Some(4));
        assert_eq!(r.support(&[1, 3]), Some(3));
        assert_eq!(r.support(&[2, 3]), Some(3));
        assert_eq!(r.support(&[1, 2, 3]), Some(3));
        assert_eq!(r.support(&[1, 4]), None); // support 1 < 3
    }

    #[test]
    fn threshold_prunes() {
        let r = mine_apriori(&txns(), 4, 3);
        assert_eq!(r.support(&[1, 2]), Some(4));
        assert_eq!(r.support(&[1, 3]), None);
        assert!(r.frequent_k(3).is_empty());
    }

    #[test]
    fn subset_pruning_matches_brute_force() {
        // Brute force over all k-subsets vs a-priori, random-ish data.
        let txns: Vec<Vec<u32>> = (0..60u32)
            .map(|i| {
                let mut t: Vec<u32> = (0..8).filter(|&j| (i * 7 + j * 3) % 4 != 0).collect();
                t.dedup();
                t
            })
            .collect();
        let threshold = 12;
        let r = mine_apriori(&txns, threshold, 3);
        for k in 1..=3 {
            let mut brute: Vec<(ItemSet, u64)> = Vec::new();
            for subset in KSubsets::new(&(0..8).collect::<Vec<u32>>(), k) {
                let c = txns
                    .iter()
                    .filter(|t| subset.iter().all(|i| t.contains(i)))
                    .count() as u64;
                if c >= threshold {
                    brute.push((subset, c));
                }
            }
            brute.sort();
            assert_eq!(r.frequent_k(k), brute, "level {k}");
        }
    }

    #[test]
    fn ksubsets_enumerates_combinations() {
        let items = vec![1, 2, 3, 4];
        let subs: Vec<ItemSet> = KSubsets::new(&items, 2).collect();
        assert_eq!(
            subs,
            vec![
                vec![1, 2],
                vec![1, 3],
                vec![1, 4],
                vec![2, 3],
                vec![2, 4],
                vec![3, 4]
            ]
        );
        assert_eq!(KSubsets::new(&items, 5).count(), 0);
        assert_eq!(KSubsets::new(&items, 4).count(), 1);
    }

    #[test]
    fn empty_inputs() {
        let r = mine_apriori(&[], 1, 3);
        assert!(r.levels.iter().all(|l| l.is_empty()));
        let r = mine_apriori(&txns(), 2, 0);
        assert_eq!(r.levels.len(), 0);
    }

    #[test]
    fn stops_when_level_empties() {
        let r = mine_apriori(&txns(), 3, 10);
        // Level 4 can't exist; ensure we didn't loop forever and levels
        // list is short.
        assert!(r.levels.len() <= 4);
    }
}
