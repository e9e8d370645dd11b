//! Partial-aggregate merge plumbing for scatter-gather execution.
//!
//! A scored relation is `(group columns…, aggregate)` with the
//! aggregate in the last column. When the same query runs over disjoint
//! fragments of a catalog, the per-fragment scored relations are
//! **partial aggregates** of the global one, and the paper's central
//! filters are algebraic: `COUNT` and `SUM` merge by addition, `MIN`
//! and `MAX` by min/max. This module is the merge kernel — it combines
//! any number of partials into the scored relation a single-node run
//! over the union of the fragments would have produced, bitwise
//! (provided the fragments really partition the answer tuples; that
//! precondition is the *caller's* obligation, see `qf-core`'s
//! shardability check).
//!
//! The combine is the group-by fold's own: each partial value becomes
//! an accumulator (`Acc::of_partial`) and accumulators merge with
//! `Acc::merge`, exactly as the parallel group-by merges its
//! per-worker maps. Addition therefore saturates like the engine's own
//! `SUM`, and a `SUM` partial reads through the same non-negative
//! operand rule — a merged result can never disagree with a
//! single-node run.

use std::collections::hash_map::Entry;

use qf_storage::{FastMap, Relation, Schema, Tuple, Value};

use crate::error::{EngineError, Result};
use crate::exec::Acc;
use crate::plan::AggFn;

/// Merge scored partials: group on every column but the last, combine
/// the last column as `agg`'s partials combine (`COUNT`/`SUM` add,
/// `MIN`/`MAX` take the extremum; `agg`'s input column is not read).
/// The output carries `schema` and is sorted and deduplicated, so it
/// is bitwise-identical to the scored relation a single evaluation
/// over the fragments' union would materialize.
///
/// Every partial must have `schema`'s arity; the arity check is the
/// only structural validation (column *names* are the caller's
/// concern — shards answer with the schema the coordinator sent).
pub fn merge_partials(schema: Schema, parts: &[Relation], agg: AggFn) -> Result<Relation> {
    let arity = schema.arity();
    debug_assert!(arity >= 1, "scored relations have at least the aggregate");
    let key_cols: Vec<usize> = (0..arity.saturating_sub(1)).collect();
    let mut groups: FastMap<Tuple, Acc> = FastMap::default();
    for part in parts {
        if part.schema().arity() != arity {
            return Err(EngineError::UnionArityMismatch {
                first: arity,
                other: part.schema().arity(),
            });
        }
        for t in part.iter() {
            let acc = Acc::of_partial(agg, t.get(arity - 1))?;
            match groups.entry(t.project(&key_cols)) {
                Entry::Occupied(mut e) => e.get_mut().merge(acc, agg)?,
                Entry::Vacant(e) => {
                    e.insert(acc);
                }
            }
        }
    }
    let tuples = groups
        .into_iter()
        .map(|(key, acc)| {
            let mut row: Vec<Value> = key.values().to_vec();
            row.push(acc.finish()?);
            Ok(Tuple::new(row))
        })
        .collect::<Result<Vec<Tuple>>>()?;
    Ok(Relation::from_tuples(schema, tuples))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scored(rows: Vec<Vec<Value>>) -> Relation {
        Relation::from_rows(Schema::new("scored_result", &["p", "agg"]), rows)
    }

    #[test]
    fn add_merges_disjoint_and_overlapping_groups() {
        let a = scored(vec![
            vec![Value::str("x"), Value::int(2)],
            vec![Value::str("y"), Value::int(1)],
        ]);
        let b = scored(vec![vec![Value::str("x"), Value::int(3)]]);
        let m = merge_partials(a.schema().clone(), &[a.clone(), b], AggFn::Sum(1)).unwrap();
        assert_eq!(m.len(), 2);
        assert!(m.contains(&Tuple::new(vec![Value::str("x"), Value::int(5)])));
        assert!(m.contains(&Tuple::new(vec![Value::str("y"), Value::int(1)])));
    }

    #[test]
    fn min_max_use_value_order() {
        let a = scored(vec![vec![Value::str("x"), Value::int(7)]]);
        let b = scored(vec![vec![Value::str("x"), Value::int(3)]]);
        let min =
            merge_partials(a.schema().clone(), &[a.clone(), b.clone()], AggFn::Min(1)).unwrap();
        assert_eq!(min.tuples()[0].get(1), Value::int(3));
        let max = merge_partials(a.schema().clone(), &[a, b], AggFn::Max(1)).unwrap();
        assert_eq!(max.tuples()[0].get(1), Value::int(7));
    }

    #[test]
    fn add_saturates_like_the_engine() {
        let a = scored(vec![vec![Value::str("x"), Value::int(i64::MAX)]]);
        let b = scored(vec![vec![Value::str("x"), Value::int(1)]]);
        for agg in [AggFn::Count, AggFn::Sum(1)] {
            let m = merge_partials(a.schema().clone(), &[a.clone(), b.clone()], agg).unwrap();
            assert_eq!(m.tuples()[0].get(1), Value::int(i64::MAX), "{agg:?}");
        }
    }

    #[test]
    fn sum_partials_obey_the_operand_rule() {
        let a = scored(vec![vec![Value::str("x"), Value::int(2)]]);
        let b = scored(vec![vec![Value::str("y"), Value::int(-1)]]);
        let err =
            merge_partials(a.schema().clone(), &[a.clone(), b.clone()], AggFn::Sum(1)).unwrap_err();
        assert_eq!(err, EngineError::NegativeWeight { weight: -1 });
        // A MIN/MAX partial is any value.
        let m = merge_partials(a.schema().clone(), &[a, b], AggFn::Min(1)).unwrap();
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn add_rejects_symbolic_aggregates() {
        let a = scored(vec![vec![Value::str("x"), Value::str("oops")]]);
        let b = scored(vec![vec![Value::str("x"), Value::str("oops")]]);
        let err = merge_partials(a.schema().clone(), &[a, b], AggFn::Sum(1)).unwrap_err();
        assert!(matches!(err, EngineError::AggregateType { .. }));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let a = scored(vec![vec![Value::str("x"), Value::int(1)]]);
        let wide = Relation::from_rows(
            Schema::new("scored_result", &["p", "q", "agg"]),
            vec![vec![Value::str("x"), Value::str("y"), Value::int(1)]],
        );
        let err = merge_partials(a.schema().clone(), &[a, wide], AggFn::Sum(1)).unwrap_err();
        assert!(matches!(err, EngineError::UnionArityMismatch { .. }));
    }

    #[test]
    fn empty_partials_merge_to_empty() {
        let schema = Schema::new("scored_result", &["p", "agg"]);
        let e = Relation::empty(schema.clone());
        let m = merge_partials(schema, &[e.clone(), e], AggFn::Sum(1)).unwrap();
        assert!(m.is_empty());
    }
}
