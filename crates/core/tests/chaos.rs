//! Chaos-matrix acceptance tests: a journaled, spilling plan execution
//! under a seed-driven fault-injecting filesystem either completes with
//! a result bitwise-identical to the fault-free run, or fails with a
//! typed error from which the same run directory resumes cleanly on the
//! real filesystem. Silent wrong answers are the one outcome the matrix
//! forbids.
//!
//! Seeds come from `QF_CHAOS_SEEDS` (comma-separated) when set, so CI
//! can pin a list and a failing seed can be replayed locally:
//! `QF_CHAOS_SEEDS=17 cargo test -p qf-core --test chaos`.

use std::path::PathBuf;
use std::sync::Arc;

use qf_core::{
    execute_plan_journaled, plan_fingerprint, single_param_plan, ExecContext, JoinOrderStrategy,
    QueryFlock, RunJournal,
};
use qf_storage::{ChaosFs, Database, Fault, OpClass, Relation, Schema, SpillDir, Value, Vfs};

/// Enough data that a small memory budget forces the self-join to
/// spill, so the matrix exercises spill *and* journal I/O.
fn basket_db() -> Database {
    let mut db = Database::new();
    let mut rows = Vec::new();
    for b in 0..200i64 {
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
        120,
    )
    .unwrap()
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qf-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const MEM_BUDGET: u64 = 32 * 1024;

/// Budgeted single-thread context spilling into a fresh dir under
/// `parent` on `vfs`. Single-threaded so the fault stream hits the same
/// operations in the same order for a given seed.
fn ctx_on(vfs: Arc<dyn Vfs>, parent: &std::path::Path) -> ExecContext {
    let sd = SpillDir::create_on(vfs, parent).expect("create spill dir");
    ExecContext::unbounded()
        .with_mem_budget(MEM_BUDGET)
        .with_threads(1)
        .with_spill(Arc::new(sd))
}

/// One full journaled run of the reference plan on `vfs`.
fn run_on(
    vfs: Arc<dyn Vfs>,
    spill_parent: &std::path::Path,
    journal_dir: &std::path::Path,
) -> (qf_core::Result<Relation>, qf_core::ExecStats) {
    let db = basket_db();
    let plan = single_param_plan(&pairs_flock(), &db).unwrap();
    let ctx = ctx_on(vfs.clone(), spill_parent);
    let result = RunJournal::open(vfs, journal_dir, plan_fingerprint(&plan), db.fingerprint())
        .and_then(|mut journal| {
            execute_plan_journaled(&plan, &db, JoinOrderStrategy::Greedy, &ctx, &mut journal)
        })
        .map(|run| run.result);
    let stats = ctx.stats();
    (result, stats)
}

fn seeds() -> Vec<u64> {
    match std::env::var("QF_CHAOS_SEEDS") {
        Ok(list) => list
            .split(',')
            .map(|s| s.trim().parse().expect("QF_CHAOS_SEEDS: bad seed"))
            .collect(),
        Err(_) => (1..=10).collect(),
    }
}

#[test]
fn chaos_matrix_no_silent_wrong_answers() {
    let base = scratch("matrix");

    // Fault-free reference, and proof the workload actually spills.
    let clean_journal = base.join("clean-run");
    let (reference, clean_stats) = run_on(
        qf_storage::real_fs(),
        &base.join("clean-spill"),
        &clean_journal,
    );
    let reference = reference.expect("fault-free run");
    assert!(
        clean_stats.spills > 0,
        "matrix workload must exercise the spill path (stats: {clean_stats:?})"
    );

    for seed in seeds() {
        let chaos = ChaosFs::seeded(seed, 40);
        let spill_parent = base.join(format!("spill-{seed}"));
        std::fs::create_dir_all(&spill_parent).unwrap();
        let journal_dir = base.join(format!("run-{seed}"));
        let (outcome, _) = run_on(Arc::new(chaos.clone()), &spill_parent, &journal_dir);
        match outcome {
            Ok(result) => {
                assert_eq!(
                    result.tuples(),
                    reference.tuples(),
                    "seed {seed}: chaos run completed with a WRONG answer \
                     (injected: {:?})",
                    chaos.injection_log()
                );
            }
            Err(e) => {
                // Typed, descriptive failure — and the run directory it
                // leaves behind must still resume cleanly on the real
                // filesystem to the exact reference answer.
                assert!(!e.to_string().is_empty(), "seed {seed}: empty error");
                let (resumed, _) = run_on(
                    qf_storage::real_fs(),
                    &base.join(format!("resume-spill-{seed}")),
                    &journal_dir,
                );
                let resumed = resumed.unwrap_or_else(|e2| {
                    panic!("seed {seed}: resume after typed failure `{e}` failed: {e2}")
                });
                assert_eq!(
                    resumed.tuples(),
                    reference.tuples(),
                    "seed {seed}: resume after `{e}` diverged"
                );
            }
        }
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn fsync_failure_during_journal_is_advisory() {
    let base = scratch("fsync");
    let db = basket_db();
    let plan = single_param_plan(&pairs_flock(), &db).unwrap();

    let reference = {
        let ctx = ExecContext::unbounded();
        qf_core::execute_plan_with(&plan, &db, JoinOrderStrategy::Greedy, &ctx)
            .unwrap()
            .result
    };

    // Quiet chaos (no random faults) with one pinned fsync failure.
    // Journal fsyncs go: header append (#1), then per step: snapshot
    // (#2), step append (#3), … — failing #3 hits the first step append.
    let chaos = Arc::new(ChaosFs::quiet().with_fault(OpClass::Fsync, 3, Fault::FsyncFail));
    let journal_dir = base.join("run");
    let mut journal = RunJournal::open(
        chaos.clone(),
        &journal_dir,
        plan_fingerprint(&plan),
        db.fingerprint(),
    )
    .unwrap();
    let ctx = ExecContext::unbounded();
    let run =
        execute_plan_journaled(&plan, &db, JoinOrderStrategy::Greedy, &ctx, &mut journal).unwrap();

    // The run completed identically; the failure was downgraded to a
    // recorded advisory degradation rather than an error.
    assert_eq!(run.result.tuples(), reference.tuples());
    assert_eq!(chaos.injected(), 1, "{:?}", chaos.injection_log());
    let stats = ctx.stats();
    assert!(
        stats
            .degradations
            .iter()
            .any(|d| d.stage == "journal-advisory"),
        "expected a journal-advisory degradation, got {:?}",
        stats.degradations
    );
    drop(journal);

    // Resume is merely disabled past the failure point: a rerun on the
    // real filesystem recomputes the unjournaled steps and agrees.
    let (resumed, _) = run_on(
        qf_storage::real_fs(),
        &base.join("resume-spill"),
        &journal_dir,
    );
    assert_eq!(resumed.unwrap().tuples(), reference.tuples());
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn corrupt_snapshot_truncates_prefix_and_recomputes() {
    let base = scratch("snapcorrupt");
    let db = basket_db();
    let plan = single_param_plan(&pairs_flock(), &db).unwrap();
    assert!(plan.len() >= 3, "need a multi-step plan");
    let journal_dir = base.join("run");

    let open = |db: &Database| {
        RunJournal::open(
            qf_storage::real_fs(),
            &journal_dir,
            plan_fingerprint(&plan),
            db.fingerprint(),
        )
        .unwrap()
    };

    let ctx = ExecContext::unbounded();
    let mut journal = open(&db);
    let reference =
        execute_plan_journaled(&plan, &db, JoinOrderStrategy::Greedy, &ctx, &mut journal)
            .unwrap()
            .result;
    drop(journal);

    // Flip one byte in the middle of the second step's snapshot.
    let victim = journal_dir.join("step-1.qfr");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&victim, &bytes).unwrap();

    let ctx = ExecContext::unbounded();
    let mut journal = open(&db);
    let run =
        execute_plan_journaled(&plan, &db, JoinOrderStrategy::Greedy, &ctx, &mut journal).unwrap();
    assert_eq!(run.result.tuples(), reference.tuples());
    // Step 0 replayed; the damaged step 1 and everything after it were
    // recomputed, and the recovery was recorded.
    assert!(run.steps[0].resumed, "{:?}", run.steps);
    assert!(!run.steps[1].resumed, "{:?}", run.steps);
    let stats = ctx.stats();
    assert!(
        stats
            .degradations
            .iter()
            .any(|d| d.stage == "journal-corrupt-snapshot"),
        "expected a journal-corrupt-snapshot degradation, got {:?}",
        stats.degradations
    );
    assert!(stats.corruption_recoveries >= 1, "{stats:?}");
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn every_byte_flip_in_a_snapshot_is_detected_on_replay() {
    let base = scratch("flip");
    let db = basket_db();
    let plan = single_param_plan(&pairs_flock(), &db).unwrap();
    let journal_dir = base.join("run");

    let ctx = ExecContext::unbounded();
    let mut journal = RunJournal::open(
        qf_storage::real_fs(),
        &journal_dir,
        plan_fingerprint(&plan),
        db.fingerprint(),
    )
    .unwrap();
    let reference =
        execute_plan_journaled(&plan, &db, JoinOrderStrategy::Greedy, &ctx, &mut journal)
            .unwrap()
            .result;
    drop(journal);

    let victim = journal_dir.join("step-0.qfr");
    let pristine = std::fs::read(&victim).unwrap();
    // Every position, a stride of offsets per run keeps this fast while
    // the storage layer's own tests cover literally every byte.
    for pos in (0..pristine.len()).step_by(7) {
        let mut bytes = pristine.clone();
        bytes[pos] ^= 0x40;
        std::fs::write(&victim, &bytes).unwrap();
        let ctx = ExecContext::unbounded();
        let mut journal = RunJournal::open(
            qf_storage::real_fs(),
            &journal_dir,
            plan_fingerprint(&plan),
            db.fingerprint(),
        )
        .unwrap();
        let run = execute_plan_journaled(&plan, &db, JoinOrderStrategy::Greedy, &ctx, &mut journal)
            .unwrap();
        // Never a wrong answer: the flip is detected, the prefix is
        // truncated, and the step recomputes to the right result.
        assert_eq!(
            run.result.tuples(),
            reference.tuples(),
            "byte {pos}: flipped snapshot produced a wrong answer"
        );
        assert!(
            !run.steps[0].resumed,
            "byte {pos}: corrupt snapshot was replayed as-is"
        );
        drop(journal);
        std::fs::write(&victim, &pristine).unwrap();
        // Restore the journal's own record of step 0 for the next
        // iteration (the recompute rewrote snapshot and log).
    }
    std::fs::remove_dir_all(&base).ok();
}
