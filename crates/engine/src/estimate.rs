//! Cardinality and distinct-count estimation.
//!
//! The paper's static plan search needs "some estimate for the expected
//! sizes of relations and joins" (Ex. 4.1); this module supplies the
//! textbook estimator: exact base-relation statistics combined under the
//! classical uniformity and independence assumptions of \[G*79\]
//! (Selinger et al.).
//!
//! All estimates are `f64` — they feed a cost model, not an executor.

use qf_storage::{Database, StorageError};

use crate::error::Result;
use crate::expr::{CmpOp, Operand, Predicate};
use crate::plan::{AggFn, PhysicalPlan};

/// Default selectivity for inequality predicates (System R's classic
/// one-third guess).
pub const INEQUALITY_SELECTIVITY: f64 = 1.0 / 3.0;

/// Estimated statistics for a plan node's output.
#[derive(Clone, Debug, PartialEq)]
pub struct Estimate {
    /// Estimated number of tuples.
    pub rows: f64,
    /// Estimated distinct values per output column.
    pub distinct: Vec<f64>,
}

impl Estimate {
    /// Arity of the estimated output.
    pub fn arity(&self) -> usize {
        self.distinct.len()
    }

    /// Clamp distinct counts to the row estimate (a column cannot have
    /// more distinct values than the relation has rows).
    fn normalized(mut self) -> Estimate {
        for d in &mut self.distinct {
            *d = d
                .min(self.rows)
                .max(if self.rows > 0.0 { 1.0 } else { 0.0 });
        }
        self
    }

    /// Estimated number of distinct groups over `cols` (product of
    /// per-column distincts, capped by rows).
    pub fn group_count(&self, cols: &[usize]) -> f64 {
        if self.rows <= 0.0 {
            return 0.0;
        }
        let product: f64 = cols.iter().map(|&c| self.distinct[c].max(1.0)).product();
        product.min(self.rows)
    }
}

/// Where base-relation statistics come from.
///
/// [`Database`] supplies exact statistics of materialized relations;
/// plan-search code supplies *predicted* statistics for relations that
/// do not exist yet (`FILTER`-step outputs), via [`MapStats`].
pub trait StatsSource {
    /// Estimated statistics of the named relation, if known.
    fn relation_estimate(&self, name: &str) -> Option<Estimate>;
}

impl StatsSource for Database {
    fn relation_estimate(&self, name: &str) -> Option<Estimate> {
        let r = self.get(name).ok()?;
        let stats = r.stats();
        Some(Estimate {
            rows: stats.cardinality as f64,
            distinct: (0..stats.arity())
                .map(|c| stats.column(c).distinct as f64)
                .collect(),
        })
    }
}

/// A stats source backed by a name → estimate map, optionally falling
/// back to a database for relations not in the map.
pub struct MapStats<'a> {
    /// Predicted estimates by relation name.
    pub map: std::collections::HashMap<String, Estimate>,
    /// Fallback source for everything else.
    pub fallback: Option<&'a Database>,
}

impl<'a> MapStats<'a> {
    /// Map-backed source with a database fallback.
    pub fn with_fallback(db: &'a Database) -> MapStats<'a> {
        MapStats {
            map: std::collections::HashMap::new(),
            fallback: Some(db),
        }
    }

    /// Record a predicted estimate for `name`.
    pub fn insert(&mut self, name: impl Into<String>, est: Estimate) {
        self.map.insert(name.into(), est);
    }
}

impl StatsSource for MapStats<'_> {
    fn relation_estimate(&self, name: &str) -> Option<Estimate> {
        self.map
            .get(name)
            .cloned()
            .or_else(|| self.fallback.and_then(|db| db.relation_estimate(name)))
    }
}

/// Estimate the output of `plan` against a database (exact base stats).
pub fn estimate(plan: &PhysicalPlan, db: &Database) -> Result<Estimate> {
    estimate_with(plan, db)
}

/// Estimate the output of `plan` against any statistics source.
pub fn estimate_with(plan: &PhysicalPlan, src: &impl StatsSource) -> Result<Estimate> {
    estimate_dyn(plan, src)
}

fn estimate_dyn(plan: &PhysicalPlan, src: &(impl StatsSource + ?Sized)) -> Result<Estimate> {
    let est = match plan {
        PhysicalPlan::Scan { relation } => src.relation_estimate(relation).ok_or_else(|| {
            crate::error::EngineError::Storage(StorageError::UnknownRelation {
                name: relation.clone(),
            })
        })?,

        PhysicalPlan::Select { input, predicates } => {
            let mut e = estimate_dyn(input, src)?;
            for p in predicates {
                let sel = predicate_selectivity(p, &e);
                e.rows *= sel;
                // An equality with a constant pins that column to one value.
                if let (Operand::Col(c), CmpOp::Eq, Operand::Const(_)) = (p.lhs, p.op, p.rhs) {
                    e.distinct[c] = 1.0;
                }
                if let (Operand::Const(_), CmpOp::Eq, Operand::Col(c)) = (p.lhs, p.op, p.rhs) {
                    e.distinct[c] = 1.0;
                }
            }
            e
        }

        PhysicalPlan::Project { input, cols } => {
            let e = estimate_dyn(input, src)?;
            let distinct: Vec<f64> = cols.iter().map(|&c| e.distinct[c]).collect();
            // Set semantics: output rows = number of distinct projected
            // tuples ≤ min(input rows, product of distincts).
            let rows = e.group_count(cols);
            Estimate { rows, distinct }
        }

        PhysicalPlan::HashJoin { left, right, keys } => {
            let l = estimate_dyn(left, src)?;
            let r = estimate_dyn(right, src)?;
            let mut rows = l.rows * r.rows;
            for &(lc, rc) in keys {
                let v = l.distinct[lc].max(r.distinct[rc]).max(1.0);
                rows /= v;
            }
            let mut distinct = Vec::with_capacity(l.arity() + r.arity());
            distinct.extend_from_slice(&l.distinct);
            distinct.extend_from_slice(&r.distinct);
            Estimate { rows, distinct }
        }

        PhysicalPlan::AntiJoin { left, right, keys } => {
            let l = estimate_dyn(left, src)?;
            let r = estimate_dyn(right, src)?;
            // Fraction of left key values with at least one right match
            // ≈ min(1, V(right)/V(left)) per key column (containment
            // assumption); survivors are the rest.
            let mut match_frac = 1.0;
            for &(lc, rc) in keys {
                let lv = l.distinct[lc].max(1.0);
                let rv = r.distinct[rc];
                match_frac *= (rv / lv).min(1.0);
            }
            if keys.is_empty() {
                // NOT EXISTS with no key: survivors only if right empty.
                match_frac = if r.rows > 0.0 { 1.0 } else { 0.0 };
            }
            Estimate {
                rows: l.rows * (1.0 - match_frac),
                distinct: l.distinct.clone(),
            }
        }

        PhysicalPlan::Union { inputs } => {
            let mut rows = 0.0;
            let mut distinct: Vec<f64> = Vec::new();
            for (i, input) in inputs.iter().enumerate() {
                let e = estimate_dyn(input, src)?;
                rows += e.rows;
                if i == 0 {
                    distinct = e.distinct;
                } else {
                    for (d, nd) in distinct.iter_mut().zip(e.distinct) {
                        // Distinct values across a union can reach the sum.
                        *d += nd;
                    }
                }
            }
            Estimate { rows, distinct }
        }

        PhysicalPlan::Aggregate { input, group, agg } => {
            let e = estimate_dyn(input, src)?;
            let rows = e
                .group_count(group)
                .max(if e.rows > 0.0 { 1.0 } else { 0.0 });
            let mut distinct: Vec<f64> = group.iter().map(|&c| e.distinct[c]).collect();
            // The aggregate column: up to one value per group.
            let agg_distinct = match agg {
                AggFn::Count | AggFn::Sum(_) => rows,
                AggFn::Min(c) | AggFn::Max(c) => e.distinct[*c].min(rows),
            };
            distinct.push(agg_distinct);
            Estimate { rows, distinct }
        }
    };
    Ok(est.normalized())
}

/// Selectivity of one predicate given input statistics.
fn predicate_selectivity(p: &Predicate, e: &Estimate) -> f64 {
    match (p.lhs, p.op, p.rhs) {
        // col = const: 1 / V(col).
        (Operand::Col(c), CmpOp::Eq, Operand::Const(_))
        | (Operand::Const(_), CmpOp::Eq, Operand::Col(c)) => 1.0 / e.distinct[c].max(1.0),
        // col != const.
        (Operand::Col(c), CmpOp::Ne, Operand::Const(_))
        | (Operand::Const(_), CmpOp::Ne, Operand::Col(c)) => 1.0 - 1.0 / e.distinct[c].max(1.0),
        // col = col: 1 / max(V, V).
        (Operand::Col(a), CmpOp::Eq, Operand::Col(b)) => {
            1.0 / e.distinct[a].max(e.distinct[b]).max(1.0)
        }
        (Operand::Col(a), CmpOp::Ne, Operand::Col(b)) => {
            1.0 - 1.0 / e.distinct[a].max(e.distinct[b]).max(1.0)
        }
        // Two constants: decidable now.
        (Operand::Const(a), op, Operand::Const(b)) => {
            if op.eval(a.cmp(&b)) {
                1.0
            } else {
                0.0
            }
        }
        // Col-col strict order over the same domain: (1 - 1/V)/2 ≈ 1/2;
        // use the classic 1/3 to stay conservative, like range guesses.
        _ => INEQUALITY_SELECTIVITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qf_storage::{Relation, Schema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        // 100 tuples, 10 distinct in col 0, 100 distinct in col 1.
        db.insert(Relation::from_rows(
            Schema::new("r", &["a", "b"]),
            (0..100)
                .map(|i| vec![Value::int(i % 10), Value::int(i)])
                .collect(),
        ));
        db
    }

    #[test]
    fn scan_is_exact() {
        let e = estimate(&PhysicalPlan::scan("r"), &db()).unwrap();
        assert_eq!(e.rows, 100.0);
        assert_eq!(e.distinct, vec![10.0, 100.0]);
    }

    #[test]
    fn equality_selectivity() {
        let p = PhysicalPlan::select(
            PhysicalPlan::scan("r"),
            vec![Predicate::col_const(0, CmpOp::Eq, Value::int(3))],
        );
        let e = estimate(&p, &db()).unwrap();
        assert!((e.rows - 10.0).abs() < 1e-9);
        assert_eq!(e.distinct[0], 1.0);
    }

    #[test]
    fn self_join_estimate() {
        let p = PhysicalPlan::hash_join(
            PhysicalPlan::scan("r"),
            PhysicalPlan::scan("r"),
            vec![(0, 0)],
        );
        let e = estimate(&p, &db()).unwrap();
        // 100*100/10 = 1000 — and the true self-join on a 10-valued key
        // with 10 rows per value is exactly 10*10*10 = 1000.
        assert!((e.rows - 1000.0).abs() < 1e-9);
        assert_eq!(e.arity(), 4);
    }

    #[test]
    fn project_caps_by_distincts() {
        let p = PhysicalPlan::project(PhysicalPlan::scan("r"), vec![0]);
        let e = estimate(&p, &db()).unwrap();
        assert!((e.rows - 10.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_groups() {
        let p = PhysicalPlan::aggregate(PhysicalPlan::scan("r"), vec![0], AggFn::Count);
        let e = estimate(&p, &db()).unwrap();
        assert!((e.rows - 10.0).abs() < 1e-9);
        assert_eq!(e.arity(), 2);
    }

    #[test]
    fn antijoin_full_containment_kills_everything() {
        let p = PhysicalPlan::anti_join(
            PhysicalPlan::scan("r"),
            PhysicalPlan::scan("r"),
            vec![(0, 0)],
        );
        let e = estimate(&p, &db()).unwrap();
        assert!(e.rows.abs() < 1e-9);
    }

    #[test]
    fn union_sums() {
        let p = PhysicalPlan::union(vec![PhysicalPlan::scan("r"), PhysicalPlan::scan("r")]);
        let e = estimate(&p, &db()).unwrap();
        assert!((e.rows - 200.0).abs() < 1e-9);
    }

    #[test]
    fn group_count_matches_reality() {
        let e = estimate(&PhysicalPlan::scan("r"), &db()).unwrap();
        // 100 rows in 10 groups on column 0.
        assert!((e.group_count(&[0]) - 10.0).abs() < 1e-9);
        // Grouping by both columns: capped at rows → 1 per group.
        assert!((e.group_count(&[0, 1]) - e.rows).abs() < 1e-9);
    }

    #[test]
    fn normalization_caps_distincts() {
        // Selecting a rare constant leaves rows < distincts before
        // normalization; distinct must be clamped.
        let p = PhysicalPlan::select(
            PhysicalPlan::scan("r"),
            vec![Predicate::col_const(1, CmpOp::Eq, Value::int(5))],
        );
        let e = estimate(&p, &db()).unwrap();
        assert!(e.distinct[0] <= e.rows.max(1.0));
    }
}
