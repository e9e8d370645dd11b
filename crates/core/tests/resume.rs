//! Crash-safe resume acceptance tests: a journaled plan execution that
//! dies mid-plan — at *any* operator invocation — resumes from its run
//! directory to a bitwise-identical final result without re-executing
//! completed `FILTER` steps.

use std::path::PathBuf;

use qf_core::{
    evaluate_direct, execute_plan_scored_on, execute_plan_scored_with, execute_plan_with,
    flock_result_from_scored, plan_fingerprint, single_param_plan, ExecContext, JoinOrderStrategy,
    LocalEvaluator, Optimizer, OptimizerConfig, PlanExecution, QueryFlock, QueryPlan, RunJournal,
    Strategy,
};
use qf_storage::{real_fs, Database, Relation, Schema, Value};

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
    RunJournal::open(real_fs(), dir, plan_fingerprint(plan), db.fingerprint()).unwrap()
}

/// The plan loop, journaled, with the local evaluator; its scored
/// result thresholded back to the flock result.
fn journaled(
    plan: &QueryPlan,
    db: &Database,
    ctx: &ExecContext,
    journal: &mut RunJournal,
) -> qf_core::Result<PlanExecution> {
    let run = execute_plan_scored_on(plan, db, &LocalEvaluator::default(), ctx, Some(journal))?;
    Ok(PlanExecution {
        result: flock_result_from_scored(&plan.flock, &run.scored, plan.flock.filter()),
        steps: run.steps,
    })
}

#[test]
fn fully_journaled_run_replays_without_reevaluation() {
    let db = basket_db();
    let flock = pairs_flock();
    let plan = single_param_plan(&flock, &db).unwrap();
    let reference = execute_plan_with(
        &plan,
        &db,
        JoinOrderStrategy::Greedy,
        &ExecContext::unbounded(),
    )
    .unwrap();

    let dir = run_dir("replay");
    let mut journal = open_journal(&dir, &plan, &db);
    let first = journaled(&plan, &db, &ExecContext::unbounded(), &mut journal).unwrap();
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
    let second = journaled(&plan, &db, &ExecContext::unbounded(), &mut journal).unwrap();
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
    let reference = execute_plan_with(
        &plan,
        &db,
        JoinOrderStrategy::Greedy,
        &ExecContext::unbounded(),
    )
    .unwrap();
    assert!(plan.len() >= 3, "need a multi-step plan");

    // Simulate a crash after the first step: journal exactly one step
    // from a complete run, then resume from that prefix.
    let dir = run_dir("partial");
    {
        let mut scratch = open_journal(&run_dir("partial-scratch"), &plan, &db);
        journaled(&plan, &db, &ExecContext::unbounded(), &mut scratch).unwrap();
        let mut journal = open_journal(&dir, &plan, &db);
        journal
            .record_step(0, &scratch.load_step(0).unwrap(), &ExecContext::unbounded())
            .unwrap();
    }
    let mut journal = open_journal(&dir, &plan, &db);
    let resumed = journaled(&plan, &db, &ExecContext::unbounded(), &mut journal).unwrap();
    assert_eq!(resumed.result.tuples(), reference.result.tuples());
    assert!(resumed.steps[0].resumed);
    assert!(resumed.steps[1..].iter().all(|s| !s.resumed));
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(run_dir("partial-scratch")).ok();
}

/// Every strategy journals through the one plan loop: a fresh run, a
/// resumed one, and one resumed after a byte of its final snapshot was
/// flipped (recomputed, and the recovery recorded) all equal the
/// reference, under pinned labels.
#[test]
fn optimizer_journal_resumes_dynamic_and_static() {
    let db = basket_db();
    let flock = pairs_flock();
    let reference = evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
    let optimizer = |strategy, dir: &PathBuf| Optimizer {
        config: OptimizerConfig {
            strategy,
            journal_dir: Some(dir.clone()),
            ..OptimizerConfig::default()
        },
    };
    let dynamic = "dynamic (2 voluntary filters)";
    for (strategy, fresh_label, resumed_label) in [
        (Strategy::Direct, "direct", "direct (resumed)"),
        (
            Strategy::BestStatic,
            "best-static: direct",
            "best-static: direct",
        ),
        (Strategy::Dynamic, dynamic, "dynamic (resumed)"),
        (Strategy::Auto, dynamic, "dynamic (resumed)"),
    ] {
        let dir = run_dir(&format!("opt-{strategy:?}"));
        let opt = optimizer(strategy, &dir);
        let run = || {
            let e = opt
                .evaluate_with(&flock, &db, &ExecContext::unbounded())
                .unwrap();
            assert_eq!(e.result.tuples(), reference.tuples(), "{strategy:?}");
            e
        };
        let first = run();
        assert_eq!(first.resumed_steps, 0, "{strategy:?}");
        assert_eq!(first.strategy_used, fresh_label, "{strategy:?}");
        let second = run();
        assert!(second.resumed_steps > 0, "{strategy:?}");
        assert_eq!(second.strategy_used, resumed_label, "{strategy:?}");

        // One flipped byte of the final step's snapshot costs that
        // step's resume, never the run.
        let last = dir.join(format!("step-{}.qfr", second.resumed_steps - 1));
        let mut bytes = std::fs::read(&last).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x80;
        std::fs::write(&last, bytes).unwrap();
        let damaged = run();
        assert_eq!(
            damaged.resumed_steps,
            second.resumed_steps - 1,
            "{strategy:?}"
        );
        assert_eq!(damaged.strategy_used, fresh_label, "{strategy:?}");
        assert_eq!(damaged.stats.corruption_recoveries, 1, "{strategy:?}");
        let stages: Vec<&str> = damaged
            .stats
            .degradations
            .iter()
            .map(|d| d.stage.as_str())
            .collect();
        assert_eq!(stages, ["journal-corrupt-snapshot"], "{strategy:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Direct and dynamic runs of one flock run the same plan, so either
    // resumes the other's journal.
    let dir = run_dir("opt-direct-then-dynamic");
    let direct = optimizer(Strategy::Direct, &dir)
        .evaluate_with(&flock, &db, &ExecContext::unbounded())
        .unwrap();
    let dynamic = optimizer(Strategy::Dynamic, &dir)
        .evaluate_with(&flock, &db, &ExecContext::unbounded())
        .unwrap();
    assert_eq!(direct.strategy_used, "direct");
    assert_eq!(dynamic.strategy_used, "dynamic (resumed)");
    assert_eq!(dynamic.resumed_steps, 1);
    assert_eq!(dynamic.result.tuples(), reference.tuples());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A run directory in the earlier text format — `journal.meta` plus a
/// tab-separated `journal.log` naming valid snapshots — is not resumed:
/// its log fails the first frame check, so the journal opens empty,
/// clears the old files, and the run equals a fresh one.
#[test]
fn text_format_journal_is_recomputed_not_resumed() {
    let db = basket_db();
    let plan = single_param_plan(&pairs_flock(), &db).unwrap();
    let fresh_dir = run_dir("text-fresh");
    let fresh = journaled(
        &plan,
        &db,
        &ExecContext::unbounded(),
        &mut open_journal(&fresh_dir, &plan, &db),
    )
    .unwrap();

    let dir = run_dir("text-format");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("journal.meta"),
        format!(
            "qf-journal v1\nplan {:016x}\ncatalog {:016x}\n",
            plan_fingerprint(&plan),
            db.fingerprint()
        ),
    )
    .unwrap();
    let mut text_log = String::new();
    for idx in 0..plan.len() {
        let name = format!("step-{idx}.qfr");
        std::fs::copy(fresh_dir.join(&name), dir.join(&name)).unwrap();
        let snapshot = qf_storage::spill::read_relation(&dir.join(&name)).unwrap();
        text_log.push_str(&format!(
            "step\t{idx}\t{:016x}\t{}\n",
            snapshot.content_hash(),
            snapshot.name()
        ));
    }
    std::fs::write(dir.join("journal.log"), text_log).unwrap();

    let mut journal = open_journal(&dir, &plan, &db);
    assert_eq!(journal.contiguous_prefix(plan.len()), 0);
    assert!(!dir.join("journal.meta").exists());
    let run = journaled(&plan, &db, &ExecContext::unbounded(), &mut journal).unwrap();
    assert!(run.steps.iter().all(|s| !s.resumed), "{:?}", run.steps);
    assert_eq!(run.result.tuples(), fresh.result.tuples());
    assert_eq!(
        run.result.schema().columns(),
        fresh.result.schema().columns()
    );
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&fresh_dir).unwrap();
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
    opt.evaluate_with(&flock, &db, &ExecContext::unbounded())
        .unwrap();
    // Same journal, different data: must refuse, not resume stale work.
    let mut altered = Database::new();
    altered.insert(Relation::from_rows(
        Schema::new("baskets", &["bid", "item"]),
        vec![vec![Value::int(1), Value::str("only")]],
    ));
    let err = opt
        .evaluate_with(&flock, &altered, &ExecContext::unbounded())
        .unwrap_err();
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
#[test]
fn killed_run_resumes_identically_at_every_fault_point() {
    use qf_core::{EngineError, FlockError};

    let db = basket_db();
    let flock = pairs_flock();
    let plan = single_param_plan(&flock, &db).unwrap();
    let reference = execute_plan_with(
        &plan,
        &db,
        JoinOrderStrategy::Greedy,
        &ExecContext::unbounded(),
    )
    .unwrap();

    let mut swept_any_fault = false;
    for n in 1u64..10_000 {
        let dir = run_dir(&format!("chaos-{n}"));
        let mut journal = open_journal(&dir, &plan, &db);
        let crashed = ExecContext::unbounded().with_fault_point(n);
        match journaled(&plan, &db, &crashed, &mut journal) {
            Err(FlockError::Engine(EngineError::FaultInjected { .. })) => {
                swept_any_fault = true;
                drop(journal);
                // Resume with a fresh journal handle, as a new process
                // would after `kill -9`.
                let mut journal = open_journal(&dir, &plan, &db);
                let completed = journal.contiguous_prefix(plan.len());
                let resumed =
                    journaled(&plan, &db, &ExecContext::unbounded(), &mut journal).unwrap();
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
