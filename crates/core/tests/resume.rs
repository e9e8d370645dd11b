//! Crash-safe resume acceptance tests: a journaled plan execution that
//! dies mid-plan — at *any* operator invocation, under the
//! `fault-injection` feature — resumes from its run directory to a
//! bitwise-identical final result without re-executing completed
//! `FILTER` steps.

use std::path::PathBuf;

use qf_core::{
    catalog_fingerprint, execute_plan, execute_plan_journaled, execute_plan_scored_with,
    plan_fingerprint, single_param_plan, ExecContext, JoinOrderStrategy, Optimizer,
    OptimizerConfig, QueryFlock, RunJournal, Strategy,
};
use qf_storage::{Database, Relation, Schema, Value};

fn basket_db() -> Database {
    let mut db = Database::new();
    let mut rows = Vec::new();
    for b in 0..30i64 {
        rows.push(vec![Value::int(b), Value::str("hot1")]);
        rows.push(vec![Value::int(b), Value::str("hot2")]);
        rows.push(vec![Value::int(b), Value::str(&format!("noise{b}"))]);
    }
    db.insert(Relation::from_rows(
        Schema::new("baskets", &["bid", "item"]),
        rows,
    ));
    db
}

fn pairs_flock() -> QueryFlock {
    QueryFlock::with_support(
        "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
        20,
    )
    .unwrap()
}

fn run_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qf-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_journal(dir: &std::path::Path, plan: &qf_core::QueryPlan, db: &Database) -> RunJournal {
    RunJournal::open(dir, plan_fingerprint(plan), catalog_fingerprint(db)).unwrap()
}

#[test]
fn fully_journaled_run_replays_without_reevaluation() {
    let db = basket_db();
    let flock = pairs_flock();
    let plan = single_param_plan(&flock, &db).unwrap();
    let reference = execute_plan(&plan, &db, JoinOrderStrategy::Greedy).unwrap();

    let dir = run_dir("replay");
    let mut journal = open_journal(&dir, &plan, &db);
    let first = execute_plan_journaled(
        &plan,
        &db,
        JoinOrderStrategy::Greedy,
        &ExecContext::unbounded(),
        &mut journal,
    )
    .unwrap();
    assert_eq!(first.result.tuples(), reference.result.tuples());
    assert!(first.steps.iter().all(|s| !s.resumed));

    // The final step journaled its *scored* rows: the snapshot round-trips
    // them exactly, aggregate column included.
    let scored = execute_plan_scored_with(
        &plan,
        &db,
        JoinOrderStrategy::Greedy,
        &ExecContext::unbounded(),
    )
    .unwrap()
    .scored;
    let last = plan.len() - 1;
    let mut journal = open_journal(&dir, &plan, &db);
    assert_eq!(journal.contiguous_prefix(plan.len()), plan.len());
    let snapshot = journal.load_step(last).unwrap();
    assert_eq!(snapshot.name(), plan.steps[last].output);
    assert_eq!(snapshot.schema().columns(), scored.schema().columns());
    assert_eq!(snapshot.tuples(), scored.tuples());

    // A second run over the same journal replays every step — the
    // already-journaled final one included — to the same result.
    let second = execute_plan_journaled(
        &plan,
        &db,
        JoinOrderStrategy::Greedy,
        &ExecContext::unbounded(),
        &mut journal,
    )
    .unwrap();
    assert_eq!(second.result.tuples(), reference.result.tuples());
    assert_eq!(
        second.result.schema().columns(),
        reference.result.schema().columns()
    );
    assert!(second.steps.iter().all(|s| s.resumed), "{:?}", second.steps);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn partial_journal_resumes_remaining_steps() {
    let db = basket_db();
    let flock = pairs_flock();
    let plan = single_param_plan(&flock, &db).unwrap();
    let reference = execute_plan(&plan, &db, JoinOrderStrategy::Greedy).unwrap();
    assert!(plan.len() >= 3, "need a multi-step plan");

    // Simulate a crash after the first step: journal exactly one step
    // from a complete run, then resume from that prefix.
    let dir = run_dir("partial");
    {
        let mut scratch = open_journal(&run_dir("partial-scratch"), &plan, &db);
        execute_plan_journaled(
            &plan,
            &db,
            JoinOrderStrategy::Greedy,
            &ExecContext::unbounded(),
            &mut scratch,
        )
        .unwrap();
        let mut journal = open_journal(&dir, &plan, &db);
        journal
            .record_step(0, &scratch.load_step(0).unwrap())
            .unwrap();
    }
    let mut journal = open_journal(&dir, &plan, &db);
    let resumed = execute_plan_journaled(
        &plan,
        &db,
        JoinOrderStrategy::Greedy,
        &ExecContext::unbounded(),
        &mut journal,
    )
    .unwrap();
    assert_eq!(resumed.result.tuples(), reference.result.tuples());
    assert!(resumed.steps[0].resumed);
    assert!(resumed.steps[1..].iter().all(|s| !s.resumed));
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(run_dir("partial-scratch")).ok();
}

#[test]
fn optimizer_journal_resumes_dynamic_and_static() {
    let db = basket_db();
    let flock = pairs_flock();
    for strategy in [Strategy::Dynamic, Strategy::BestStatic, Strategy::Direct] {
        let dir = run_dir(&format!("opt-{strategy:?}"));
        let opt = Optimizer {
            config: OptimizerConfig {
                strategy,
                journal_dir: Some(dir.clone()),
                ..OptimizerConfig::default()
            },
        };
        let first = opt.evaluate(&flock, &db).unwrap();
        assert_eq!(first.resumed_steps, 0, "{strategy:?}");
        let second = opt.evaluate(&flock, &db).unwrap();
        assert!(second.resumed_steps > 0, "{strategy:?}");
        assert_eq!(
            first.result.tuples(),
            second.result.tuples(),
            "{strategy:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn changed_inputs_invalidate_the_journal() {
    let db = basket_db();
    let flock = pairs_flock();
    let dir = run_dir("invalidate");
    let opt = Optimizer {
        config: OptimizerConfig {
            strategy: Strategy::Dynamic,
            journal_dir: Some(dir.clone()),
            ..OptimizerConfig::default()
        },
    };
    opt.evaluate(&flock, &db).unwrap();
    // Same journal, different data: must refuse, not resume stale work.
    let mut altered = Database::new();
    altered.insert(Relation::from_rows(
        Schema::new("baskets", &["bid", "item"]),
        vec![vec![Value::int(1), Value::str("only")]],
    ));
    let err = opt.evaluate(&flock, &altered).unwrap_err();
    assert!(
        err.to_string().contains("catalog fingerprint"),
        "expected catalog mismatch, got: {err}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The chaos matrix: for every operator invocation `n` of a multi-step
/// plan, arm a fault at `n`, run to failure, then resume from the
/// journal with a clean context. The resumed run must (a) produce the
/// reference result bitwise, and (b) replay exactly the journaled
/// prefix without re-executing it.
#[cfg(feature = "fault-injection")]
#[test]
fn killed_run_resumes_identically_at_every_fault_point() {
    use qf_core::{EngineError, FlockError};

    let db = basket_db();
    let flock = pairs_flock();
    let plan = single_param_plan(&flock, &db).unwrap();
    let reference = execute_plan(&plan, &db, JoinOrderStrategy::Greedy).unwrap();

    let mut swept_any_fault = false;
    for n in 1u64..10_000 {
        let dir = run_dir(&format!("chaos-{n}"));
        let mut journal = open_journal(&dir, &plan, &db);
        let crashed = ExecContext::unbounded().with_fault_point(n);
        match execute_plan_journaled(
            &plan,
            &db,
            JoinOrderStrategy::Greedy,
            &crashed,
            &mut journal,
        ) {
            Err(FlockError::Engine(EngineError::FaultInjected { .. })) => {
                swept_any_fault = true;
                drop(journal);
                // Resume with a fresh journal handle, as a new process
                // would after `kill -9`.
                let mut journal = open_journal(&dir, &plan, &db);
                let completed = journal.contiguous_prefix(plan.len());
                let resumed = execute_plan_journaled(
                    &plan,
                    &db,
                    JoinOrderStrategy::Greedy,
                    &ExecContext::unbounded(),
                    &mut journal,
                )
                .unwrap();
                assert_eq!(
                    resumed.result.tuples(),
                    reference.result.tuples(),
                    "fault point {n}"
                );
                assert_eq!(
                    resumed.result.schema().columns(),
                    reference.result.schema().columns(),
                    "fault point {n}"
                );
                // Exactly the journaled prefix is replayed, nothing is
                // re-executed, nothing later is skipped.
                for (idx, step) in resumed.steps.iter().enumerate() {
                    assert_eq!(
                        step.resumed,
                        idx < completed,
                        "fault point {n}, step {idx}: {:?}",
                        resumed.steps
                    );
                }
                std::fs::remove_dir_all(&dir).unwrap();
            }
            // Fault point beyond the plan's total invocations: the
            // whole pipeline has been swept.
            Ok(run) => {
                assert_eq!(run.result.tuples(), reference.result.tuples());
                std::fs::remove_dir_all(&dir).unwrap();
                assert!(swept_any_fault, "sweep never injected a fault");
                return;
            }
            Err(e) => panic!("fault at invocation {n} surfaced as unexpected error: {e}"),
        }
    }
    panic!("fault sweep did not terminate");
}
