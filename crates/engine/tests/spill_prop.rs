//! Property test for out-of-core execution: on random relations and
//! random join/group-by plan shapes, a governed run with a memory
//! budget small enough to force spill-to-disk produces a relation
//! identical to the ungoverned in-memory path — at 1 and at 4 worker
//! threads.

use std::sync::Arc;

use proptest::prelude::*;

use qf_engine::{
    env_mem_budget, execute_with, row_cost, AggFn, CmpOp, ExecContext, PhysicalPlan, Predicate,
};
use qf_storage::{Database, Relation, Schema, SpillDir, Value};

fn rows2(n: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..16, 0i64..16), 0..n)
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

/// How many plan shapes [`shape_plan`] knows.
const SHAPES: u8 = 9;

/// Random reducing plan shapes over the two relations. Every shape ends
/// in an aggregate or projection so the *final* result stays small —
/// spilling bounds intermediate state, but the materialized result must
/// always fit the budget. Between them the shapes put a (possibly
/// spilled) join under every kind of consumer: each aggregate's
/// group-by state, a row operator (select, anti-join probe), a
/// projection, and the keyless cross product Grace cannot split.
fn shape_plan(shape: u8) -> PhysicalPlan {
    let join = PhysicalPlan::hash_join(
        PhysicalPlan::scan("l"),
        PhysicalPlan::scan("r"),
        vec![(1, 0)],
    );
    match shape % SHAPES {
        0 => PhysicalPlan::aggregate(join, vec![0], AggFn::Count),
        1 => PhysicalPlan::aggregate(join, vec![], AggFn::Count),
        2 => PhysicalPlan::project(
            PhysicalPlan::union(vec![PhysicalPlan::scan("l"), PhysicalPlan::scan("r")]),
            vec![1],
        ),
        3 => PhysicalPlan::aggregate(
            PhysicalPlan::select(join, vec![Predicate::col_col(0, CmpOp::Lt, 2)]),
            vec![3],
            AggFn::Max(0),
        ),
        4 => PhysicalPlan::aggregate(
            PhysicalPlan::anti_join(join, PhysicalPlan::scan("r"), vec![(0, 1)]),
            vec![0],
            AggFn::Count,
        ),
        5 => PhysicalPlan::aggregate(
            PhysicalPlan::hash_join(PhysicalPlan::scan("l"), PhysicalPlan::scan("r"), vec![]),
            vec![1],
            AggFn::Count,
        ),
        6 => PhysicalPlan::aggregate(join, vec![0], AggFn::Sum(3)),
        7 => PhysicalPlan::aggregate(join, vec![3], AggFn::Min(0)),
        _ => PhysicalPlan::project(
            PhysicalPlan::select(join, vec![Predicate::col_col(0, CmpOp::Lt, 3)]),
            vec![0],
        ),
    }
}

/// The governed budget: `QF_MEM_BUDGET` when set (the CI chaos job runs
/// the suite under a tiny value), floored so the resident base-relation
/// scans — which spilling deliberately does not evict — always fit.
fn budget() -> u64 {
    env_mem_budget().unwrap_or(48 << 10).max(24 << 10)
}

/// Run `plan` governed at 1 and 4 threads under `budget` with a spill
/// directory, asserting it equals the ungoverned in-memory result and
/// leaves no spill file behind. Returns the least bytes spilled.
fn check_governed(plan: &PhysicalPlan, db: &Database, budget: u64) -> Result<u64, TestCaseError> {
    let expected = execute_with(plan, db, &ExecContext::unbounded()).unwrap();
    let mut least_spilled = u64::MAX;
    for threads in [1usize, 4] {
        let ctx = ExecContext::unbounded()
            .with_mem_budget(budget)
            .with_threads(threads)
            .with_spill(Arc::new(SpillDir::create_temp().unwrap()));
        let got = execute_with(plan, db, &ctx)
            .map_err(|e| TestCaseError::Fail(format!("threads {threads}: {e}")))?;
        prop_assert_eq!(got.tuples(), expected.tuples(), "threads {}", threads);
        prop_assert_eq!(got.schema().columns(), expected.schema().columns());
        let stats = ctx.stats();
        prop_assert_eq!(stats.spill_files_live, 0, "leaked spill files: {:?}", stats);
        least_spilled = least_spilled.min(stats.spilled_bytes);
    }
    Ok(least_spilled)
}

proptest! {
    #[test]
    fn spill_equals_in_memory(l in rows2(120), r in rows2(120), shape in 0..SHAPES) {
        check_governed(&shape_plan(shape), &db2(&l, &r), budget())?;
    }
}

/// One fixed case per shape, large enough that the budget *really*
/// forces spilling (checked, not assumed): ~300-row inputs (≈29 KB of
/// resident scans) whose join is ≈7k rows and cross product ≈90k rows,
/// under a 64 KB budget.
#[test]
fn every_shape_spills_on_a_large_input() {
    let l: Vec<(i64, i64)> = (0..300).map(|i| (i % 30, i % 13)).collect();
    let r: Vec<(i64, i64)> = (0..299).map(|i| (i % 13, i % 23)).collect();
    let db = db2(&l, &r);
    for shape in 0..SHAPES {
        // The union shape only ever holds its two scans and their
        // union, so it takes a tighter budget to push it out.
        let budget = if shape == 2 { 40 << 10 } else { 64 << 10 };
        let spilled = check_governed(&shape_plan(shape), &db, budget)
            .unwrap_or_else(|e| panic!("shape {shape}: {e:?}"));
        assert!(spilled > 0, "shape {shape} never spilled");
    }
}

/// A resident Grace input is done with once it is partitioned to disk:
/// its bytes are released before any slice runs. 20k distinct rows
/// under a budget only 2 KB above the scan itself — a group map of one
/// row per group cannot fit beside the scan, so the aggregate must
/// partition the scan, let go of it, and fold the slices in the room
/// that frees. (Holding the scan through the slices fails outright at
/// this headroom, and at 20 KB degenerates into hundreds of tiny runs.)
#[test]
fn grace_releases_a_resident_input_once_partitioned() {
    let rows: Vec<(i64, i64)> = (0..20_000).map(|i| (i, i % 7)).collect();
    let db = db2(&rows, &[]);
    let plan = PhysicalPlan::aggregate(
        PhysicalPlan::aggregate(PhysicalPlan::scan("l"), vec![0, 1], AggFn::Count),
        vec![],
        AggFn::Count,
    );
    let expected = execute_with(&plan, &db, &ExecContext::unbounded()).unwrap();
    for headroom in [2u64 << 10, 20 << 10] {
        let ctx = ExecContext::unbounded()
            .with_mem_budget(rows.len() as u64 * row_cost(2) + headroom)
            .with_threads(1)
            .with_spill(Arc::new(SpillDir::create_temp().unwrap()));
        let got =
            execute_with(&plan, &db, &ctx).unwrap_or_else(|e| panic!("headroom {headroom}: {e}"));
        assert_eq!(got.tuples(), expected.tuples());
        let stats = ctx.stats();
        assert!(stats.spilled_bytes > 0, "{stats:?}");
        assert!(stats.spills <= 16, "headroom {headroom}: {stats:?}");
        assert_eq!(stats.spill_files_live, 0, "{stats:?}");
    }
}
