//! Physical plan trees.

use crate::expr::Predicate;

/// Grouped aggregate functions.
///
/// `COUNT` plus the monotone aggregates the paper's future-work section
/// names: "certain COUNT, MIN, MAX, SUM (in the case of non-negative
/// numbers) conditions" (§5, Fig. 10).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggFn {
    /// Number of (distinct, because inputs are sets) rows per group.
    Count,
    /// Sum of a non-negative integer column per group (a negative
    /// weight is [`crate::EngineError::NegativeWeight`]).
    Sum(usize),
    /// Minimum of a column per group.
    Min(usize),
    /// Maximum of a column per group.
    Max(usize),
}

impl AggFn {
    /// The input column the aggregate reads, if any.
    pub fn input_column(self) -> Option<usize> {
        match self {
            AggFn::Count => None,
            AggFn::Sum(c) | AggFn::Min(c) | AggFn::Max(c) => Some(c),
        }
    }

    /// SQL spelling with a placeholder argument.
    pub fn name(self) -> &'static str {
        match self {
            AggFn::Count => "COUNT",
            AggFn::Sum(_) => "SUM",
            AggFn::Min(_) => "MIN",
            AggFn::Max(_) => "MAX",
        }
    }
}

/// A physical query plan.
///
/// Operators are positional: every node's output tuple layout is a
/// function of its children's layouts, and all column references are
/// indexes into that layout. (Compilation from named Datalog variables
/// to positions happens in `qf-core`.)
#[derive(Clone, Debug, PartialEq)]
pub enum PhysicalPlan {
    /// Scan a named relation from the database.
    Scan {
        /// Relation name resolved at execution time.
        relation: String,
    },
    /// Keep tuples satisfying every predicate.
    Select {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Conjunction of predicates.
        predicates: Vec<Predicate>,
    },
    /// Keep the listed columns (in order), deduplicating the result —
    /// projection under set semantics.
    Project {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Column indexes to keep.
        cols: Vec<usize>,
    },
    /// Hash equi-join; output is the left tuple concatenated with the
    /// right tuple.
    HashJoin {
        /// Left (probe) input.
        left: Box<PhysicalPlan>,
        /// Right (build) input.
        right: Box<PhysicalPlan>,
        /// Pairs `(left column, right column)` that must be equal.
        keys: Vec<(usize, usize)>,
    },
    /// Antijoin: left tuples with **no** matching right tuple. This is
    /// how a safe `NOT p(…)` subgoal executes — safety (§3.3 condition
    /// 2) guarantees every variable of the negated subgoal is bound on
    /// the left.
    AntiJoin {
        /// Left (kept) input.
        left: Box<PhysicalPlan>,
        /// Right (filtering) input.
        right: Box<PhysicalPlan>,
        /// Pairs `(left column, right column)` that must be equal for a
        /// right tuple to exclude a left tuple.
        keys: Vec<(usize, usize)>,
    },
    /// Set union of same-arity inputs.
    Union {
        /// Inputs; all must share one arity.
        inputs: Vec<PhysicalPlan>,
    },
    /// Group by `group` columns and compute one aggregate; output is the
    /// group columns followed by the aggregate value.
    Aggregate {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Grouping columns.
        group: Vec<usize>,
        /// Aggregate function.
        agg: AggFn,
    },
}

impl PhysicalPlan {
    /// Scan node.
    pub fn scan(relation: impl Into<String>) -> PhysicalPlan {
        PhysicalPlan::Scan {
            relation: relation.into(),
        }
    }

    /// Select node (no-op if `predicates` is empty).
    pub fn select(input: PhysicalPlan, predicates: Vec<Predicate>) -> PhysicalPlan {
        if predicates.is_empty() {
            input
        } else {
            PhysicalPlan::Select {
                input: Box::new(input),
                predicates,
            }
        }
    }

    /// Project node.
    pub fn project(input: PhysicalPlan, cols: Vec<usize>) -> PhysicalPlan {
        PhysicalPlan::Project {
            input: Box::new(input),
            cols,
        }
    }

    /// Hash-join node.
    pub fn hash_join(
        left: PhysicalPlan,
        right: PhysicalPlan,
        keys: Vec<(usize, usize)>,
    ) -> PhysicalPlan {
        PhysicalPlan::HashJoin {
            left: Box::new(left),
            right: Box::new(right),
            keys,
        }
    }

    /// Antijoin node.
    pub fn anti_join(
        left: PhysicalPlan,
        right: PhysicalPlan,
        keys: Vec<(usize, usize)>,
    ) -> PhysicalPlan {
        PhysicalPlan::AntiJoin {
            left: Box::new(left),
            right: Box::new(right),
            keys,
        }
    }

    /// Union node.
    pub fn union(inputs: Vec<PhysicalPlan>) -> PhysicalPlan {
        PhysicalPlan::Union { inputs }
    }

    /// Aggregate node.
    pub fn aggregate(input: PhysicalPlan, group: Vec<usize>, agg: AggFn) -> PhysicalPlan {
        PhysicalPlan::Aggregate {
            input: Box::new(input),
            group,
            agg,
        }
    }

    /// Number of operator nodes in the tree.
    pub fn node_count(&self) -> usize {
        1 + match self {
            PhysicalPlan::Scan { .. } => 0,
            PhysicalPlan::Select { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Aggregate { input, .. } => input.node_count(),
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::AntiJoin { left, right, .. } => left.node_count() + right.node_count(),
            PhysicalPlan::Union { inputs } => inputs.iter().map(Self::node_count).sum(),
        }
    }

    /// Multi-line indented rendering (EXPLAIN-style).
    pub fn explain(&self) -> String {
        let mut s = String::new();
        self.explain_into(&mut s, 0);
        s
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        match self {
            PhysicalPlan::Scan { relation } => {
                let _ = writeln!(out, "{pad}Scan {relation}");
            }
            PhysicalPlan::Select { input, predicates } => {
                let preds: Vec<String> = predicates.iter().map(|p| p.to_string()).collect();
                let _ = writeln!(out, "{pad}Select [{}]", preds.join(" AND "));
                input.explain_into(out, depth + 1);
            }
            PhysicalPlan::Project { input, cols } => {
                let _ = writeln!(out, "{pad}Project {cols:?}");
                input.explain_into(out, depth + 1);
            }
            PhysicalPlan::HashJoin { left, right, keys } => {
                let _ = writeln!(out, "{pad}HashJoin {keys:?}");
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
            PhysicalPlan::AntiJoin { left, right, keys } => {
                let _ = writeln!(out, "{pad}AntiJoin {keys:?}");
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
            PhysicalPlan::Union { inputs } => {
                let _ = writeln!(out, "{pad}Union");
                for i in inputs {
                    i.explain_into(out, depth + 1);
                }
            }
            PhysicalPlan::Aggregate { input, group, agg } => {
                let _ = writeln!(out, "{pad}Aggregate group={group:?} {}", agg.name());
                input.explain_into(out, depth + 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_select_elided() {
        let p = PhysicalPlan::select(PhysicalPlan::scan("r"), vec![]);
        assert_eq!(p, PhysicalPlan::scan("r"));
    }

    #[test]
    fn node_count_and_scans() {
        let p = PhysicalPlan::aggregate(
            PhysicalPlan::hash_join(
                PhysicalPlan::scan("a"),
                PhysicalPlan::scan("b"),
                vec![(0, 0)],
            ),
            vec![1],
            AggFn::Count,
        );
        assert_eq!(p.node_count(), 4);
        let explain = p.explain();
        assert!(
            explain.contains("Scan a") && explain.contains("Scan b"),
            "{explain}"
        );
    }

    #[test]
    fn explain_is_indented() {
        let p = PhysicalPlan::project(PhysicalPlan::scan("r"), vec![0]);
        let e = p.explain();
        assert!(e.starts_with("Project"));
        assert!(e.contains("\n  Scan r"));
    }

    #[test]
    fn agg_fn_columns() {
        assert_eq!(AggFn::Count.input_column(), None);
        assert_eq!(AggFn::Sum(3).input_column(), Some(3));
        assert_eq!(AggFn::Max(1).name(), "MAX");
    }
}
