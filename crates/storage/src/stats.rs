//! Relation statistics for the cost-based optimizer.
//!
//! The paper's plan selection "cannot pick a strategy without knowing
//! something about sizes of the relations and numbers of patients,
//! diseases, etc." (Ex. 3.2) and explicitly invokes the general theory of
//! cost-based optimization \[G*79\]. These are the statistics that theory
//! needs: cardinalities, per-column distinct counts, and min/max bounds.

use crate::hash::FastSet;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;

/// Statistics for one column of a relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnStats {
    /// Number of distinct values in the column.
    pub distinct: usize,
    /// Smallest value, if the relation is non-empty.
    pub min: Option<Value>,
    /// Largest value, if the relation is non-empty.
    pub max: Option<Value>,
}

/// Statistics for a whole relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationStats {
    /// Number of tuples.
    pub cardinality: usize,
    columns: Vec<ColumnStats>,
}

impl RelationStats {
    /// Compute statistics with one pass per column.
    pub fn compute(schema: &Schema, tuples: &[Tuple]) -> RelationStats {
        let mut columns = Vec::with_capacity(schema.arity());
        for col in 0..schema.arity() {
            let mut seen: FastSet<Value> = FastSet::default();
            let mut min = None;
            let mut max = None;
            for t in tuples {
                let v = t.get(col);
                seen.insert(v);
                min = Some(match min {
                    None => v,
                    Some(m) => std::cmp::min(m, v),
                });
                max = Some(match max {
                    None => v,
                    Some(m) => std::cmp::max(m, v),
                });
            }
            columns.push(ColumnStats {
                distinct: seen.len(),
                min,
                max,
            });
        }
        RelationStats {
            cardinality: tuples.len(),
            columns,
        }
    }

    /// Stats for column `i`.
    pub fn column(&self, i: usize) -> &ColumnStats {
        &self.columns[i]
    }

    /// Number of columns described.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_column_stats() {
        let schema = Schema::new("r", &["a", "b"]);
        let tuples: Vec<Tuple> = vec![
            Tuple::from([Value::int(1), Value::int(5)]),
            Tuple::from([Value::int(1), Value::int(7)]),
            Tuple::from([Value::int(3), Value::int(5)]),
        ];
        let s = RelationStats::compute(&schema, &tuples);
        assert_eq!(s.cardinality, 3);
        assert_eq!(s.column(0).distinct, 2);
        assert_eq!(s.column(0).min, Some(Value::int(1)));
        assert_eq!(s.column(0).max, Some(Value::int(3)));
        assert_eq!(s.column(1).distinct, 2);
    }

    #[test]
    fn empty_relation_stats() {
        let schema = Schema::new("r", &["a"]);
        let s = RelationStats::compute(&schema, &[]);
        assert_eq!(s.cardinality, 0);
        assert_eq!(s.column(0).distinct, 0);
        assert_eq!(s.column(0).min, None);
    }
}
