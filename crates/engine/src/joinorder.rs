//! Join-order search over a join graph.
//!
//! §4.4: "We start by choosing a join order for the four subgoals. Any
//! of a number of models and approaches to selecting this join order may
//! be used; our idea is independent of how the join order is actually
//! chosen." This module supplies two choosers over an abstract join
//! graph — nodes with attribute sets and statistics, where two nodes
//! join on every attribute they share (natural-join semantics, which is
//! exactly how Datalog subgoals sharing variables combine):
//!
//! * [`order_greedy`] — start from the smallest relation, repeatedly
//!   append the node minimizing the next intermediate size. `O(n²)`.
//! * [`order_optimal_dp`] — exact minimum-`C_out` **left-deep** order by
//!   dynamic programming over subsets. `O(2ⁿ·n)`; fine for the ≤ 12
//!   subgoals mining flocks have.
//!
//! Both return a permutation of node indexes. Estimates follow the same
//! Selinger formulas as [`crate::estimate()`].

/// One relation (or subgoal) in the join graph.
#[derive(Clone, Debug)]
pub struct JoinNode {
    /// Diagnostic label (subgoal text, relation name, …).
    pub label: String,
    /// Attribute identities; two nodes equi-join on shared attributes.
    /// In flock compilation these are variable ids.
    pub attrs: Vec<u32>,
    /// Estimated (or exact) row count.
    pub rows: f64,
    /// Estimated distinct values per attribute, parallel to `attrs`.
    pub distinct: Vec<f64>,
}

impl JoinNode {
    /// Construct a node; `attrs` and `distinct` must be parallel.
    pub fn new(
        label: impl Into<String>,
        attrs: Vec<u32>,
        rows: f64,
        distinct: Vec<f64>,
    ) -> JoinNode {
        assert_eq!(
            attrs.len(),
            distinct.len(),
            "attrs/distinct must be parallel"
        );
        JoinNode {
            label: label.into(),
            attrs,
            rows,
            distinct,
        }
    }
}

/// A set of join nodes to order.
#[derive(Clone, Debug, Default)]
pub struct JoinGraph {
    nodes: Vec<JoinNode>,
}

impl JoinGraph {
    /// Empty graph.
    pub fn new() -> JoinGraph {
        JoinGraph::default()
    }

    /// Add a node, returning its index.
    pub fn add(&mut self, node: JoinNode) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// The nodes.
    pub fn nodes(&self) -> &[JoinNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Running statistics of a partial join result.
#[derive(Clone, Debug)]
struct Composite {
    rows: f64,
    /// attr → distinct count in the composite.
    distinct: Vec<(u32, f64)>,
}

impl Composite {
    fn from_node(n: &JoinNode) -> Composite {
        Composite {
            rows: n.rows,
            distinct: n
                .attrs
                .iter()
                .copied()
                .zip(n.distinct.iter().copied())
                .collect(),
        }
    }

    fn get(&self, attr: u32) -> Option<f64> {
        self.distinct
            .iter()
            .find(|(a, _)| *a == attr)
            .map(|(_, d)| *d)
    }

    /// Join with `n`, returning the new composite and its estimated rows.
    fn join(&self, n: &JoinNode) -> Composite {
        let mut rows = self.rows * n.rows;
        let mut distinct = self.distinct.clone();
        for (i, &attr) in n.attrs.iter().enumerate() {
            match self.get(attr) {
                Some(lv) => {
                    let rv = n.distinct[i];
                    rows /= lv.max(rv).max(1.0);
                    // Containment: the shared attribute keeps the smaller
                    // distinct count.
                    for (a, d) in &mut distinct {
                        if *a == attr {
                            *d = d.min(rv);
                        }
                    }
                }
                None => distinct.push((attr, n.distinct[i])),
            }
        }
        // Distincts cannot exceed rows.
        for (_, d) in &mut distinct {
            *d = d.min(rows.max(1.0));
        }
        Composite { rows, distinct }
    }
}

/// Greedy left-deep join order: smallest relation first, then repeatedly
/// the node whose join yields the smallest estimated intermediate.
pub fn order_greedy(graph: &JoinGraph) -> Vec<usize> {
    let n = graph.len();
    if n == 0 {
        return Vec::new();
    }
    let mut remaining: Vec<usize> = (0..n).collect();
    // Seed: smallest estimated rows.
    let seed_pos = remaining
        .iter()
        .enumerate()
        .min_by(|(_, &a), (_, &b)| {
            graph.nodes[a]
                .rows
                .partial_cmp(&graph.nodes[b].rows)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .map(|(pos, _)| pos)
        .unwrap_or(0);
    let seed = remaining.swap_remove(seed_pos);
    let mut order = vec![seed];
    let mut composite = Composite::from_node(&graph.nodes[seed]);
    while !remaining.is_empty() {
        let Some((pos, next_comp)) = remaining
            .iter()
            .enumerate()
            .map(|(pos, &i)| (pos, composite.join(&graph.nodes[i])))
            .min_by(|(_, a), (_, b)| {
                a.rows
                    .partial_cmp(&b.rows)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
        else {
            break; // unreachable: remaining is non-empty
        };
        let chosen = remaining.swap_remove(pos);
        order.push(chosen);
        composite = next_comp;
    }
    order
}

/// Exact minimum-`C_out` left-deep order via subset DP.
///
/// Minimizes the sum of intermediate result sizes. Panics if the graph
/// has more than 20 nodes (the DP table would be unreasonable; flocks
/// never get there — split the query instead).
pub fn order_optimal_dp(graph: &JoinGraph) -> Vec<usize> {
    let n = graph.len();
    if n == 0 {
        return Vec::new();
    }
    assert!(n <= 20, "DP join ordering limited to 20 relations");
    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };

    // best[mask] = (cost of intermediates, composite, last node added).
    let mut best: Vec<Option<(f64, Composite, usize)>> = vec![None; (full as usize) + 1];
    for i in 0..n {
        let mask = 1u32 << i;
        best[mask as usize] = Some((0.0, Composite::from_node(&graph.nodes[i]), i));
    }
    // Iterate masks in increasing popcount order implicitly: numeric
    // order suffices because every extension has a larger mask value.
    for mask in 1..=full {
        let Some((cost_so_far, composite, _)) = best[mask as usize].clone() else {
            continue;
        };
        for i in 0..n {
            let bit = 1u32 << i;
            if mask & bit != 0 {
                continue;
            }
            let next = composite.join(&graph.nodes[i]);
            let next_cost = cost_so_far + next.rows;
            let slot = &mut best[(mask | bit) as usize];
            let better = match slot {
                None => true,
                Some((c, _, _)) => next_cost < *c,
            };
            if better {
                *slot = Some((next_cost, next, i));
            }
        }
    }

    // Reconstruct: walk back removing the recorded last node. The DP
    // stores only the last step per mask, and the predecessor mask's
    // entry is the optimal prefix for *that* mask, so the walk-back is
    // consistent (Bellman principle holds for left-deep C_out).
    let mut order = Vec::with_capacity(n);
    let mut mask = full;
    while mask != 0 {
        let Some((_, _, last)) = best[mask as usize].clone() else {
            // Every reachable mask is filled by construction; a hole
            // would be an internal bug. Degrade to as-written order
            // rather than panicking mid-optimization.
            return (0..n).collect();
        };
        order.push(last);
        mask &= !(1u32 << last);
    }
    order.reverse();
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Estimated total intermediate size (`C_out` over the join prefix)
    /// of executing `order`.
    fn order_cost(graph: &JoinGraph, order: &[usize]) -> f64 {
        if order.is_empty() {
            return 0.0;
        }
        let mut composite = Composite::from_node(&graph.nodes[order[0]]);
        let mut cost = 0.0;
        for &i in &order[1..] {
            composite = composite.join(&graph.nodes[i]);
            cost += composite.rows;
        }
        cost
    }

    /// Three relations: tiny `t(a)`, huge `h(a,b)`, medium `m(b)`.
    fn chain_graph() -> JoinGraph {
        let mut g = JoinGraph::new();
        g.add(JoinNode::new("t", vec![0], 10.0, vec![10.0]));
        g.add(JoinNode::new(
            "h",
            vec![0, 1],
            100_000.0,
            vec![1000.0, 1000.0],
        ));
        g.add(JoinNode::new("m", vec![1], 500.0, vec![500.0]));
        g
    }

    #[test]
    fn greedy_starts_small() {
        let order = order_greedy(&chain_graph());
        assert_eq!(order[0], 0, "must seed with the smallest relation");
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn dp_no_worse_than_greedy() {
        let g = chain_graph();
        let dp = order_optimal_dp(&g);
        let greedy = order_greedy(&g);
        assert!(order_cost(&g, &dp) <= order_cost(&g, &greedy) + 1e-9);
    }

    #[test]
    fn dp_is_permutation() {
        let g = chain_graph();
        let mut order = order_optimal_dp(&g);
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn dp_beats_bad_order() {
        let g = chain_graph();
        let dp = order_optimal_dp(&g);
        // Cross product first (t ⋈ m shares nothing) is the bad shape.
        let bad = vec![0, 2, 1];
        assert!(order_cost(&g, &dp) <= order_cost(&g, &bad));
    }

    #[test]
    fn cross_product_penalized() {
        let g = chain_graph();
        // t then m is a cross product: 10 * 500 = 5000 rows; greedy must
        // instead take h next despite its size? No: greedy minimizes the
        // *next intermediate*, and t ⋈ h = 10*100000/1000 = 1000 < 5000.
        let order = order_greedy(&g);
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn empty_and_singleton() {
        assert!(order_greedy(&JoinGraph::new()).is_empty());
        assert!(order_optimal_dp(&JoinGraph::new()).is_empty());
        let mut g = JoinGraph::new();
        g.add(JoinNode::new("only", vec![0], 5.0, vec![5.0]));
        assert_eq!(order_greedy(&g), vec![0]);
        assert_eq!(order_optimal_dp(&g), vec![0]);
    }

    #[test]
    fn composite_containment_shrinks_distincts() {
        let a = JoinNode::new("a", vec![0], 100.0, vec![100.0]);
        let b = JoinNode::new("b", vec![0], 10.0, vec![10.0]);
        let c = Composite::from_node(&a).join(&b);
        // 100*10/100 = 10 rows; attr 0 keeps min(100,10)=10 distinct.
        assert!((c.rows - 10.0).abs() < 1e-9);
        assert!((c.get(0).unwrap() - 10.0).abs() < 1e-9);
    }
}
