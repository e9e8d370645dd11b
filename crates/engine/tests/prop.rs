//! Property tests: every physical operator agrees with a brute-force
//! relational-algebra reference on random inputs.

use proptest::prelude::*;

use qf_engine::{
    execute_with, AggFn, CmpOp, EngineError, ExecContext, PhysicalPlan, Predicate, Resource,
};
use qf_storage::{Database, Relation, Schema, Tuple, Value};

fn rows2() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..8, 0i64..8), 0..60)
}

fn db2(l: &[(i64, i64)], r: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.insert(Relation::from_rows(
        Schema::new("l", &["a", "b"]),
        l.iter()
            .map(|&(a, b)| vec![Value::int(a), Value::int(b)])
            .collect(),
    ));
    db.insert(Relation::from_rows(
        Schema::new("r", &["c", "d"]),
        r.iter()
            .map(|&(a, b)| vec![Value::int(a), Value::int(b)])
            .collect(),
    ));
    db
}

fn dedup_sorted(mut v: Vec<Tuple>) -> Vec<Tuple> {
    v.sort_unstable();
    v.dedup();
    v
}

proptest! {
    /// Hash join ≡ nested-loop reference.
    #[test]
    fn hash_join_is_nested_loop(l in rows2(), r in rows2()) {
        let db = db2(&l, &r);
        let plan = PhysicalPlan::hash_join(
            PhysicalPlan::scan("l"),
            PhysicalPlan::scan("r"),
            vec![(1, 0)], // l.b = r.c
        );
        let got = execute_with(&plan, &db, &ExecContext::unbounded()).unwrap();

        let l_rel = db.get("l").unwrap();
        let r_rel = db.get("r").unwrap();
        let mut want = Vec::new();
        for a in l_rel.iter() {
            for b in r_rel.iter() {
                if a.get(1) == b.get(0) {
                    want.push(a.concat(b));
                }
            }
        }
        let want = dedup_sorted(want);
        prop_assert_eq!(got.tuples(), want.as_slice());
    }

    /// Antijoin ≡ NOT EXISTS reference.
    #[test]
    fn antijoin_is_not_exists(l in rows2(), r in rows2()) {
        let db = db2(&l, &r);
        let plan = PhysicalPlan::anti_join(
            PhysicalPlan::scan("l"),
            PhysicalPlan::scan("r"),
            vec![(0, 0), (1, 1)],
        );
        let got = execute_with(&plan, &db, &ExecContext::unbounded()).unwrap();
        let r_rel = db.get("r").unwrap();
        let want: Vec<Tuple> = db
            .get("l").unwrap()
            .iter()
            .filter(|t| !r_rel.iter().any(|u| u.get(0) == t.get(0) && u.get(1) == t.get(1)))
            .cloned()
            .collect();
        prop_assert_eq!(got.tuples(), want.as_slice());
    }

    /// Select ≡ filter; Project ≡ map+dedup.
    #[test]
    fn select_project_reference(l in rows2(), k in 0i64..8) {
        let db = db2(&l, &[]);
        let plan = PhysicalPlan::project(
            PhysicalPlan::select(
                PhysicalPlan::scan("l"),
                vec![Predicate::col_const(0, CmpOp::Ge, Value::int(k))],
            ),
            vec![1],
        );
        let got = execute_with(&plan, &db, &ExecContext::unbounded()).unwrap();
        let want: Vec<Tuple> = dedup_sorted(
            db.get("l").unwrap()
                .iter()
                .filter(|t| t.get(0) >= Value::int(k))
                .map(|t| t.project(&[1]))
                .collect(),
        );
        prop_assert_eq!(got.tuples(), want.as_slice());
    }

    /// Aggregate COUNT ≡ group-and-count reference.
    #[test]
    fn aggregate_count_reference(l in rows2()) {
        let db = db2(&l, &[]);
        let plan = PhysicalPlan::aggregate(PhysicalPlan::scan("l"), vec![0], AggFn::Count);
        let got = execute_with(&plan, &db, &ExecContext::unbounded()).unwrap();
        let mut counts = std::collections::BTreeMap::new();
        for t in db.get("l").unwrap().iter() {
            *counts.entry(t.get(0)).or_insert(0i64) += 1;
        }
        let want: Vec<Tuple> = counts
            .into_iter()
            .map(|(k, c)| Tuple::from([k, Value::int(c)]))
            .collect();
        prop_assert_eq!(got.tuples(), want.as_slice());
    }

    /// Aggregate SUM/MIN/MAX ≡ references.
    #[test]
    fn aggregate_sum_min_max_reference(l in rows2()) {
        let db = db2(&l, &[]);
        let l_rel = db.get("l").unwrap();
        let mut by_key: std::collections::BTreeMap<Value, Vec<i64>> = Default::default();
        for t in l_rel.iter() {
            by_key.entry(t.get(0)).or_default().push(t.get(1).as_int().unwrap());
        }
        for (agg, pick) in [
            (AggFn::Sum(1), 0usize),
            (AggFn::Min(1), 1),
            (AggFn::Max(1), 2),
        ] {
            let plan = PhysicalPlan::aggregate(PhysicalPlan::scan("l"), vec![0], agg);
            let got = execute_with(&plan, &db, &ExecContext::unbounded()).unwrap();
            let want: Vec<Tuple> = by_key
                .iter()
                .map(|(&k, vs)| {
                    let v = match pick {
                        0 => vs.iter().sum::<i64>(),
                        1 => *vs.iter().min().unwrap(),
                        _ => *vs.iter().max().unwrap(),
                    };
                    Tuple::from([k, Value::int(v)])
                })
                .collect();
            prop_assert_eq!(got.tuples(), want.as_slice());
        }
    }

    /// Union ≡ set union.
    #[test]
    fn union_reference(l in rows2(), r in rows2()) {
        let db = db2(&l, &r);
        let plan = PhysicalPlan::union(vec![PhysicalPlan::scan("l"), PhysicalPlan::scan("r")]);
        let got = execute_with(&plan, &db, &ExecContext::unbounded()).unwrap();
        let mut want: Vec<Tuple> = db.get("l").unwrap().iter().cloned().collect();
        want.extend(db.get("r").unwrap().iter().cloned());
        let want = dedup_sorted(want);
        prop_assert_eq!(got.tuples(), want.as_slice());
    }

    /// Parallel and single-thread execution produce identical relations
    /// on a plan exercising join, select, project, and aggregate.
    #[test]
    fn threads_do_not_change_results(l in rows2(), r in rows2()) {
        let db = db2(&l, &r);
        let plan = PhysicalPlan::aggregate(
            PhysicalPlan::project(
                PhysicalPlan::select(
                    PhysicalPlan::hash_join(
                        PhysicalPlan::scan("l"),
                        PhysicalPlan::scan("r"),
                        vec![(1, 0)],
                    ),
                    vec![Predicate::col_const(0, CmpOp::Ge, Value::int(1))],
                ),
                vec![0, 2],
            ),
            vec![0],
            AggFn::Count,
        );
        let one = execute_with(&plan, &db, &ExecContext::unbounded().with_threads(1)).unwrap();
        let four = execute_with(&plan, &db, &ExecContext::unbounded().with_threads(4)).unwrap();
        prop_assert_eq!(one.tuples(), four.tuples());
        prop_assert_eq!(one.schema(), four.schema());
    }

    /// Governed execution with a random row budget either completes
    /// within the budget or fails with `ResourceExhausted { Rows }` —
    /// it never materializes more tuples than the budget allows, and a
    /// successful governed run agrees with the ungoverned one.
    #[test]
    fn row_budget_never_exceeded(l in rows2(), r in rows2(), budget in 0u64..200) {
        let db = db2(&l, &r);
        let plan = PhysicalPlan::aggregate(
            PhysicalPlan::hash_join(
                PhysicalPlan::scan("l"),
                PhysicalPlan::scan("r"),
                vec![(1, 0)],
            ),
            vec![0],
            AggFn::Count,
        );
        let ctx = ExecContext::unbounded().with_max_rows(budget);
        match execute_with(&plan, &db, &ctx) {
            Ok(rel) => {
                prop_assert!(ctx.stats().rows <= budget,
                    "materialized {} rows under a budget of {budget}", ctx.stats().rows);
                prop_assert!(rel.len() as u64 <= budget);
                let free = execute_with(&plan, &db, &ExecContext::unbounded()).unwrap();
                prop_assert_eq!(rel.tuples(), free.tuples());
            }
            Err(EngineError::ResourceExhausted { resource: Resource::Rows, limit, observed }) => {
                prop_assert_eq!(limit, budget);
                prop_assert!(observed > budget);
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }

    /// Estimation never panics and respects the distinct ≤ rows invariant.
    #[test]
    fn estimates_well_formed(l in rows2(), r in rows2()) {
        let db = db2(&l, &r);
        let plan = PhysicalPlan::aggregate(
            PhysicalPlan::hash_join(
                PhysicalPlan::scan("l"),
                PhysicalPlan::scan("r"),
                vec![(1, 0)],
            ),
            vec![0],
            AggFn::Count,
        );
        let est = qf_engine::estimate(&plan, &db).unwrap();
        prop_assert!(est.rows >= 0.0);
        for d in &est.distinct {
            prop_assert!(*d <= est.rows.max(1.0) + 1e-9);
        }
        let cost = qf_engine::cost(&plan, &db).unwrap();
        prop_assert!(cost >= est.rows - 1e-9);
    }
}
