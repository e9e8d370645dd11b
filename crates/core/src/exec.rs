//! Query-plan execution.
//!
//! Runs a [`QueryPlan`] step by step: each `FILTER` step evaluates its
//! query (against base relations plus previous steps' outputs), groups
//! by the step's parameters, applies the flock's filter condition, and
//! materializes the surviving parameter assignments as a new relation
//! in the working database — exactly the operational reading of
//! `R(P) := FILTER(P, Q, C)` (§4.1).
//!
//! There is one step and one loop. Every step is evaluated **scored** —
//! `(params…, agg)` rows, the aggregate still attached — by a
//! [`StepEvaluator`]; the loop ([`execute_plan_scored_on`]) projects
//! the aggregate away when it commits a reduction step's output and
//! keeps it on the final step, so the thresholded result
//! ([`execute_plan_with`]) is a projection of the scored one
//! ([`execute_plan_scored_with`]). The evaluator is a value: the local
//! one ([`LocalEvaluator`]) compiles the step and runs it on the
//! engine; `qf-server`'s shard coordinator substitutes one that
//! scatters the step to its workers and merges their partials.
//!
//! Execution is instrumented: every step reports its answer size, group
//! count, survivor count, and wall-clock time, which is what the
//! experiments (and the paper's intuition about "smaller relations …
//! subsequent join steps take less time") need to show.

use std::time::{Duration, Instant};

use qf_datalog::param_isomorphism;
use qf_engine::{execute_with, EngineError, ExecContext, PhysicalPlan};
use qf_storage::{Database, Relation, Schema, Symbol};

use crate::compile::{compile_answer, filter_answer_scored, CompiledRule, JoinOrderStrategy};
use crate::error::{FlockError, Result};
use crate::eval::{flock_result_from_scored, refilter_scored};
use crate::filter::FilterCondition;
use crate::journal::RunJournal;
use crate::plan::{FilterStep, QueryPlan};
use crate::shard::scored_schema;

/// Instrumentation for one executed `FILTER` step.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Step (output relation) name.
    pub name: String,
    /// Tuples in the step query's extended answer (before grouping).
    pub answer_tuples: usize,
    /// Distinct parameter assignments seen (groups).
    pub groups: usize,
    /// Assignments surviving the filter (output tuples).
    pub survivors: usize,
    /// Wall-clock time for the step.
    pub elapsed: std::time::Duration,
    /// True when the step was answered by renaming an earlier step's
    /// result instead of evaluating (parameter symmetry, §4.3 fn. 3).
    pub reused: bool,
    /// True when the step was replayed from a run journal snapshot
    /// instead of evaluating (crash recovery, see [`crate::journal`]).
    pub resumed: bool,
}

impl StepReport {
    /// Fraction of assignments the filter eliminated.
    pub fn elimination_rate(&self) -> f64 {
        if self.groups == 0 {
            0.0
        } else {
            1.0 - self.survivors as f64 / self.groups as f64
        }
    }
}

/// The outcome of executing a [`QueryPlan`].
#[derive(Clone, Debug)]
pub struct PlanExecution {
    /// The flock result: surviving parameter assignments, columns named
    /// after the parameters.
    pub result: Relation,
    /// Per-step instrumentation, in execution order.
    pub steps: Vec<StepReport>,
}

impl PlanExecution {
    /// Total tuples materialized by step answers (a proxy for work done).
    pub fn total_answer_tuples(&self) -> usize {
        self.steps.iter().map(|s| s.answer_tuples).sum()
    }
}

/// The outcome of a *scored* plan execution: the flock's surviving
/// parameter assignments with their aggregate values still attached.
#[derive(Clone, Debug)]
pub struct ScoredExecution {
    /// `(params…, aggregate)` rows for every assignment passing
    /// [`ScoredExecution::baseline`]; columns are the parameter names
    /// plus `agg`. Projecting away `agg` recovers the flock result
    /// exactly; re-filtering by any condition the baseline
    /// [subsumes](crate::FilterCondition::subsumes) answers that
    /// condition exactly (see [`crate::flock_result_from_scored`]).
    pub scored: Relation,
    /// The condition `scored` is complete for. The flock's own filter,
    /// except that a single-step plan inherits whatever looser
    /// condition its evaluator was complete for (a sharded step is
    /// merged at the vacuous threshold, so one run answers every
    /// same-direction threshold).
    pub baseline: FilterCondition,
    /// Per-step instrumentation, in execution order.
    pub steps: Vec<StepReport>,
}

/// One evaluated `FILTER` step, aggregate still attached.
#[derive(Clone, Debug)]
pub struct ScoredStep {
    /// `(params…, agg)` rows, sorted and duplicate-free.
    pub rows: Relation,
    /// The condition `rows` are complete for: every parameter
    /// assignment passing it is present. Must subsume the plan's
    /// filter; the loop applies the plan's filter itself when they
    /// differ.
    pub complete_for: FilterCondition,
    /// Tuples in the step's extended answer (0 when not materialized).
    pub answer_tuples: usize,
    /// Distinct parameter assignments seen (0 when not counted).
    pub groups: usize,
}

/// How one `FILTER` step of a plan gets evaluated. The plan loop is
/// generic over this so that sharded execution is the same loop — waves,
/// symmetry reuse, commit order — with a different way of answering
/// "what are this step's scored rows?".
pub trait StepEvaluator: Sync {
    /// The evaluator's error type; the loop's own failures convert into
    /// it.
    type Error: From<FlockError> + From<EngineError> + Send;

    /// Evaluate `step` of `plan` against `working` (the base catalog
    /// plus every earlier step's output). Runs on a worker thread
    /// during wave-parallel execution, so it only reads `working` and
    /// charges the shared governor.
    fn scored(
        &self,
        plan: &QueryPlan,
        step: &FilterStep,
        working: &Database,
        ctx: &ExecContext,
    ) -> std::result::Result<ScoredStep, Self::Error>;
}

/// The local step evaluator: compile the step's query, run it on
/// `qf-engine`, aggregate and threshold with the plan's own filter.
#[derive(Clone, Copy, Debug, Default)]
pub struct LocalEvaluator {
    /// Join order within the step's query.
    pub strategy: JoinOrderStrategy,
}

impl StepEvaluator for LocalEvaluator {
    type Error = FlockError;

    fn scored(
        &self,
        plan: &QueryPlan,
        step: &FilterStep,
        working: &Database,
        ctx: &ExecContext,
    ) -> Result<ScoredStep> {
        let filter = plan.flock.filter();
        let rule0 = &step.query.rules()[0];
        let answer = compile_answer(&step.query, working, self.strategy)?;
        // Under spill-to-disk, skip materializing the (possibly huge)
        // extended answer: fuse the filter's group-by/aggregate directly
        // onto the answer plan so the whole step runs as one spillable
        // tree and only the (small) surviving assignments materialize.
        // The per-step answer/group instrumentation is forgone
        // (reported as zero, like a symmetry-reused step).
        if ctx.spill_enabled() {
            let fused = filter_answer_scored(&answer, rule0, filter)?;
            return Ok(ScoredStep {
                rows: execute_with(&fused, working, ctx)?,
                complete_for: *filter,
                answer_tuples: 0,
                groups: 0,
            });
        }
        let answer_rel = execute_with(&answer.plan, working, ctx)?;
        // Group by parameters and apply the flock's condition, reusing
        // the compiled-plan path by wrapping the materialized answer as
        // a scan under a reserved name.
        const TMP: &str = "__step_answer";
        let mut tmp = working.clone();
        tmp.insert(answer_rel.renamed(TMP));
        let wrapped = CompiledRule {
            plan: PhysicalPlan::scan(TMP),
            n_params: answer.n_params,
            n_head: answer.n_head,
        };
        let rows = execute_with(&filter_answer_scored(&wrapped, rule0, filter)?, &tmp, ctx)?;
        Ok(ScoredStep {
            rows,
            complete_for: *filter,
            answer_tuples: answer_rel.len(),
            groups: count_groups(&answer_rel, answer.n_params),
        })
    }
}

/// Execute a validated plan against `db` under an execution governor:
/// every step's answer evaluation and filter application run with
/// `ctx`'s budgets, deadline and cancellation token. A tripped budget
/// aborts the plan with the engine error. `db` is not mutated; step
/// outputs live in a working copy (relation clones are reference-count
/// bumps, so the copy is cheap) that is dropped, so the caller's `db`
/// is untouched no matter where the failure lands.
pub fn execute_plan_with(
    plan: &QueryPlan,
    db: &Database,
    strategy: JoinOrderStrategy,
    ctx: &ExecContext,
) -> Result<PlanExecution> {
    let run = run_plan(plan, db, &LocalEvaluator { strategy }, ctx, None)?;
    Ok(PlanExecution {
        result: flock_result_from_scored(&plan.flock, &run.scored, plan.flock.filter()),
        steps: run.steps,
    })
}

/// [`execute_plan_with`] keeping the final step's aggregate column.
/// This is what the server's result cache stores — one scored run at
/// support `s` answers every request at a subsumed threshold `s' ≥ s`
/// by re-filtering.
pub fn execute_plan_scored_with(
    plan: &QueryPlan,
    db: &Database,
    strategy: JoinOrderStrategy,
    ctx: &ExecContext,
) -> Result<ScoredExecution> {
    run_plan(plan, db, &LocalEvaluator { strategy }, ctx, None)
}

/// Execute a validated plan with `evaluator` answering each step.
///
/// Independent `FILTER` steps evaluate concurrently: consecutive steps
/// whose queries reference only already-materialized relations form a
/// *wave*, and each wave's non-reusable steps run on up to
/// [`ExecContext::threads`] scoped worker threads against the immutable
/// working database. Results are committed in plan order, so reports,
/// symmetry reuse, and the final result are identical to sequential
/// execution. Reduction steps isomorphic to an earlier one under a
/// parameter bijection are answered by renaming its output (§4.3
/// footnote 3); the final step is always evaluated.
///
/// With a `journal` the run is crash-safe: each step's output is
/// durably recorded as it commits, and steps the journal already holds
/// are replayed from their snapshots (reported with
/// [`StepReport::resumed`] set) instead of re-evaluated. The final
/// step's snapshot holds its scored rows, complete for the flock's own
/// filter whichever evaluator produced them, so a resumed run returns
/// what a fresh one does. A run killed at any point — budget trip,
/// deadline, cancellation, or `kill -9` — restarts from its last
/// completed step and produces a bitwise-identical final result.
pub fn execute_plan_scored_on<E: StepEvaluator + ?Sized>(
    plan: &QueryPlan,
    db: &Database,
    evaluator: &E,
    ctx: &ExecContext,
    journal: Option<&mut RunJournal>,
) -> std::result::Result<ScoredExecution, E::Error> {
    run_plan(plan, db, evaluator, ctx, journal)
}

/// How a wave step obtains its result.
enum Slot {
    /// Rename an earlier wave's result (parameter symmetry).
    Prev(Relation),
    /// Rename the result of an in-wave representative (index into the
    /// wave, column projection), once that representative has
    /// committed.
    Rep(usize, Vec<usize>),
    /// Evaluate the step's query.
    Eval,
}

fn run_plan<E: StepEvaluator + ?Sized>(
    plan: &QueryPlan,
    db: &Database,
    evaluator: &E,
    ctx: &ExecContext,
    mut journal: Option<&mut RunJournal>,
) -> std::result::Result<ScoredExecution, E::Error> {
    let filter = plan.flock.filter();
    let last = plan.steps.len() - 1;
    let mut working = db.clone();
    let mut reports = Vec::with_capacity(plan.steps.len());
    // Committed reduction steps, for parameter-symmetry reuse.
    let mut executed: Vec<(&FilterStep, Relation)> = Vec::new();
    // The final step's scored rows and the condition they are complete
    // for. Earlier steps prune at the plan's own filter, so only a
    // single-step run can be complete for anything looser — and only
    // an unjournaled one: a journaled final snapshot always holds the
    // rows complete for the flock's own filter, whichever evaluator
    // produced them, so every resume reads one condition back.
    let mut scored: Option<Relation> = None;
    let mut baseline = *filter;

    // Replay the journal's contiguous completed prefix: each snapshot
    // is loaded (hash-checked) and committed exactly as its original
    // evaluation was, so later steps — including symmetry reuse — see
    // an identical working database. A snapshot that fails integrity
    // verification truncates the replayable prefix right there: the
    // clean earlier steps stay replayed, and everything from the
    // damaged step on is recomputed instead of resumed.
    let mut resume_prefix = journal
        .as_ref()
        .map_or(0, |j| j.contiguous_prefix(plan.steps.len()));
    for (idx, step) in plan.steps.iter().take(resume_prefix).enumerate() {
        let loaded = journal
            .as_ref()
            .expect("prefix > 0 implies journal")
            .load_step(idx)
            .and_then(|snapshot| {
                // Reduction steps snapshot their output, the final step
                // its scored rows (one more column), every one of which
                // passes the flock's own filter.
                let (want, got) = (
                    step.params.len() + usize::from(idx == last),
                    snapshot.schema().arity(),
                );
                let corrupt = |detail| FlockError::SnapshotCorrupt { step: idx, detail };
                if got != want {
                    Err(corrupt(format!(
                        "snapshot has {got} columns, the step commits {want}"
                    )))
                } else if idx == last && snapshot.iter().any(|t| !filter.accepts(t.get(got - 1))) {
                    Err(corrupt(format!(
                        "final snapshot holds rows failing `{filter}`"
                    )))
                } else {
                    Ok(snapshot)
                }
            });
        let snapshot = match loaded {
            Ok(snapshot) => snapshot,
            Err(e @ FlockError::SnapshotCorrupt { .. }) => {
                ctx.record_degradation(
                    "journal-corrupt-snapshot",
                    format!("{e}; recomputing from step {idx}"),
                );
                ctx.note_corruption_recovery();
                resume_prefix = idx;
                break;
            }
            Err(e) => return Err(e.into()),
        };
        reports.push(StepReport {
            name: step.output.clone(),
            answer_tuples: 0,
            groups: 0,
            survivors: snapshot.len(),
            elapsed: Duration::ZERO,
            reused: false,
            resumed: true,
        });
        if idx == last {
            scored = Some(Relation::from_sorted_dedup(
                scored_schema(step),
                snapshot.tuples().to_vec(),
            ));
        } else {
            working.insert(snapshot.clone());
            executed.push((step, snapshot));
        }
    }

    let mut i = resume_prefix;
    while i < plan.steps.len() {
        // A wave is the maximal run of consecutive steps whose queries
        // reference only relations already materialized (base relations
        // or outputs of completed waves) — mutually independent, so
        // they may evaluate concurrently. The first remaining step is
        // always included; if its inputs are genuinely missing,
        // compilation reports the error exactly as before.
        let mut end = i + 1;
        while end < plan.steps.len() && step_inputs_ready(&plan.steps[end], &working) {
            end += 1;
        }
        let wave = &plan.steps[i..end];

        // Classify before evaluating: symmetric steps must keep reusing
        // results (including from a representative in the same wave)
        // rather than being re-evaluated just because they became
        // concurrent.
        let mut slots: Vec<Slot> = Vec::with_capacity(wave.len());
        for (w, step) in wave.iter().enumerate() {
            let slot = if i + w == last {
                Slot::Eval
            } else if let Some(renamed) = executed.iter().find_map(|(prev, rel)| {
                symmetry_projection(prev, step).map(|proj| renamed_output(step, rel, &proj))
            }) {
                Slot::Prev(renamed)
            } else {
                (0..w)
                    .filter(|&p| matches!(slots[p], Slot::Eval))
                    .find_map(|p| {
                        symmetry_projection(&wave[p], step).map(|proj| Slot::Rep(p, proj))
                    })
                    .unwrap_or(Slot::Eval)
            };
            slots.push(slot);
        }

        // Evaluate the representatives in parallel over the immutable
        // working database.
        let eval_idx: Vec<usize> = (0..wave.len())
            .filter(|&w| matches!(slots[w], Slot::Eval))
            .collect();
        if !eval_idx.is_empty() {
            ctx.note_workers(ctx.threads().min(eval_idx.len()).max(1));
        }
        let working_ref = &working;
        let evaluated = qf_engine::par_items(&eval_idx, ctx.threads(), |&w| {
            let start = Instant::now();
            evaluator
                .scored(plan, &wave[w], working_ref, ctx)
                .map(|s| (w, s, start.elapsed()))
        })?;
        let mut by_slot: Vec<Option<(ScoredStep, Duration)>> =
            (0..wave.len()).map(|_| None).collect();
        for (w, s, elapsed) in evaluated {
            by_slot[w] = Some((s, elapsed));
        }

        // Commit in plan order so reports and the working database look
        // exactly as they would under sequential execution. A reduction
        // step commits its output — survivors of the plan's filter,
        // aggregate projected away — and the final step its scored
        // rows.
        let mut named_by_w: Vec<Option<Relation>> = vec![None; wave.len()];
        for (w, step) in wave.iter().enumerate() {
            let idx = i + w;
            let commit = Instant::now();
            let (committed, evaluated) = match &slots[w] {
                Slot::Prev(renamed) => (renamed.clone(), None),
                Slot::Rep(p, proj) => {
                    let rep = named_by_w[*p]
                        .as_ref()
                        .expect("a representative commits before the steps renaming it");
                    (renamed_output(step, rep, proj), None)
                }
                Slot::Eval => {
                    let (s, elapsed) =
                        by_slot[w].take().ok_or_else(|| FlockError::IllegalPlan {
                            detail: format!("step `{}` was skipped by the scheduler", step.output),
                        })?;
                    let committed = if idx == last {
                        if last == 0 && journal.is_none() {
                            baseline = s.complete_for;
                        }
                        refilter_scored(&s.rows, &baseline, scored_schema(step))
                    } else {
                        refilter_scored(&s.rows, filter, step_schema(step))
                    };
                    (committed, Some((s.answer_tuples, s.groups, elapsed)))
                }
            };
            let (answer_tuples, groups, elapsed) =
                evaluated.unwrap_or_else(|| (0, 0, commit.elapsed()));
            reports.push(StepReport {
                name: step.output.clone(),
                answer_tuples,
                groups,
                survivors: committed.len(),
                elapsed,
                reused: evaluated.is_none(),
                resumed: false,
            });
            if let Some(j) = journal.as_deref_mut() {
                // Journaling is advisory once the run is underway: a
                // write failure (after bounded retry inside the
                // journal) must not kill a run that is otherwise
                // healthy. Record the degradation — resume will start
                // from the last durable step — and stop journaling.
                if let Err(e) = j.record_step(idx, &committed.renamed(&step.output), ctx) {
                    ctx.record_degradation(
                        "journal-advisory",
                        format!(
                            "{e}; continuing without journaling (resume disabled \
                             past step {idx})"
                        ),
                    );
                    journal = None;
                }
            }
            if idx == last {
                scored = Some(committed);
            } else {
                working.insert(committed.clone());
                executed.push((step, committed.clone()));
                named_by_w[w] = Some(committed);
            }
        }
        i = end;
    }

    Ok(ScoredExecution {
        scored: scored.expect("validated plans are non-empty"),
        baseline,
        steps: reports,
    })
}

/// True when every relation `step`'s query references already exists in
/// `working` — the condition for joining the current wave.
fn step_inputs_ready(step: &FilterStep, working: &Database) -> bool {
    step.query
        .predicates()
        .iter()
        .all(|pred| working.contains(pred.as_str()))
}

/// The schema a reduction step's output materializes under: the step's
/// name, columns named after its parameters.
fn step_schema(step: &FilterStep) -> Schema {
    Schema::from_columns(
        step.output.clone(),
        step.params.iter().map(|p| p.to_string()).collect(),
    )
}

/// If `step`'s query is isomorphic to `prev`'s under a parameter
/// bijection, the column projection that turns `prev`'s output into
/// `step`'s: output column `i` is `prev` column `proj[i]`. Single-rule
/// step queries only (union symmetry would need one consistent
/// bijection across branches).
fn symmetry_projection(prev: &FilterStep, step: &FilterStep) -> Option<Vec<usize>> {
    if prev.query.rules().len() != 1
        || step.query.rules().len() != 1
        || prev.params.len() != step.params.len()
    {
        return None;
    }
    let mapping = param_isomorphism(&prev.query.rules()[0], &step.query.rules()[0])?;
    step.params
        .iter()
        .map(|&new_param| {
            let old_param: Symbol = mapping
                .iter()
                .find(|(_, to)| *to == new_param)
                .map(|(from, _)| *from)?;
            prev.params.iter().position(|&p| p == old_param)
        })
        .collect()
}

/// `step`'s output, produced by renaming the columns of a symmetric
/// step's output `rel` through `proj`.
fn renamed_output(step: &FilterStep, rel: &Relation, proj: &[usize]) -> Relation {
    Relation::from_tuples(
        step_schema(step),
        rel.iter().map(|t| t.project(proj)).collect(),
    )
}

/// Distinct parameter prefixes in the extended answer.
fn count_groups(answer_rel: &Relation, n_params: usize) -> usize {
    let cols: Vec<usize> = (0..n_params).collect();
    let mut seen = qf_storage::FastSet::default();
    for t in answer_rel.iter() {
        seen.insert(t.project(&cols));
    }
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{final_step, FilterStep};
    use crate::plangen::direct_plan;
    use crate::QueryFlock;
    use qf_datalog::parse_query;
    use qf_storage::Value;

    /// Medical data where exactly one (symptom, medicine) pair is an
    /// unexplained side-effect with support ≥ 2.
    fn medical_db() -> Database {
        let mut db = Database::new();
        let mut diagnoses = Vec::new();
        let mut exhibits = Vec::new();
        let mut treatments = Vec::new();
        // Patients 1..=3: take "zorix", exhibit "headache", have "flu";
        // flu does not cause headache → unexplained, support 3.
        for p in 1..=3i64 {
            diagnoses.push(vec![Value::int(p), Value::str("flu")]);
            exhibits.push(vec![Value::int(p), Value::str("headache")]);
            treatments.push(vec![Value::int(p), Value::str("zorix")]);
        }
        // Patients 4..=5: take "zorix", exhibit "fever", have "flu";
        // flu causes fever → explained.
        for p in 4..=5i64 {
            diagnoses.push(vec![Value::int(p), Value::str("flu")]);
            exhibits.push(vec![Value::int(p), Value::str("fever")]);
            treatments.push(vec![Value::int(p), Value::str("zorix")]);
        }
        // Patient 6: rare symptom, rare medicine (below support).
        diagnoses.push(vec![Value::int(6), Value::str("flu")]);
        exhibits.push(vec![Value::int(6), Value::str("twitch")]);
        treatments.push(vec![Value::int(6), Value::str("obscurol")]);
        db.insert(Relation::from_rows(
            Schema::new("diagnoses", &["p", "d"]),
            diagnoses,
        ));
        db.insert(Relation::from_rows(
            Schema::new("exhibits", &["p", "s"]),
            exhibits,
        ));
        db.insert(Relation::from_rows(
            Schema::new("treatments", &["p", "m"]),
            treatments,
        ));
        db.insert(Relation::from_rows(
            Schema::new("causes", &["d", "s"]),
            vec![vec![Value::str("flu"), Value::str("fever")]],
        ));
        db
    }

    fn medical_flock(threshold: i64) -> QueryFlock {
        QueryFlock::with_support(
            "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND \
             diagnoses(P,D) AND NOT causes(D,$s)",
            threshold,
        )
        .unwrap()
    }

    fn execute(plan: &QueryPlan, db: &Database) -> PlanExecution {
        execute_plan_with(
            plan,
            db,
            JoinOrderStrategy::Greedy,
            &ExecContext::unbounded(),
        )
        .unwrap()
    }

    fn fig5_plan(threshold: i64) -> QueryPlan {
        let flock = medical_flock(threshold);
        let ok_s = FilterStep::new("okS", parse_query("answer(P) :- exhibits(P,$s)").unwrap());
        let ok_m = FilterStep::new("okM", parse_query("answer(P) :- treatments(P,$m)").unwrap());
        let final_ = final_step(&flock, &[ok_s.clone(), ok_m.clone()], "ok").unwrap();
        QueryPlan::new(flock, vec![ok_s, ok_m, final_]).unwrap()
    }

    #[test]
    fn fig5_plan_equals_direct() {
        let db = medical_db();
        for threshold in [1, 2, 3, 4] {
            let plan = fig5_plan(threshold);
            let run = execute(&plan, &db);
            let direct = crate::eval::evaluate_direct(
                &medical_flock(threshold),
                &db,
                JoinOrderStrategy::Greedy,
            )
            .unwrap();
            assert_eq!(
                run.result.tuples(),
                direct.tuples(),
                "threshold {threshold}"
            );
        }
    }

    #[test]
    fn expected_side_effect_found() {
        let db = medical_db();
        let run = execute(&fig5_plan(2), &db);
        assert_eq!(run.result.len(), 1);
        let t = &run.result.tuples()[0];
        // Columns sorted by param name: $m, $s.
        assert_eq!(t.get(0), Value::str("zorix"));
        assert_eq!(t.get(1), Value::str("headache"));
    }

    #[test]
    fn prefilters_prune_candidates() {
        let db = medical_db();
        let run = execute(&fig5_plan(2), &db);
        assert_eq!(run.steps.len(), 3);
        let ok_s = &run.steps[0];
        // Symptoms: headache(3), fever(2), twitch(1) → twitch eliminated.
        assert_eq!(ok_s.groups, 3);
        assert_eq!(ok_s.survivors, 2);
        assert!(ok_s.elimination_rate() > 0.0);
        let ok_m = &run.steps[1];
        // Medicines: zorix(5), obscurol(1) → obscurol eliminated.
        assert_eq!(ok_m.groups, 2);
        assert_eq!(ok_m.survivors, 1);
    }

    #[test]
    fn direct_plan_execution_matches_eval() {
        let db = medical_db();
        let flock = medical_flock(2);
        let plan = direct_plan(&flock).unwrap();
        let run = execute(&plan, &db);
        let direct = crate::eval::evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
        assert_eq!(run.result.tuples(), direct.tuples());
        assert_eq!(run.steps.len(), 1);
    }

    #[test]
    fn symmetric_steps_are_reused() {
        // The basket flock's ok_1/ok_2 are isomorphic modulo $1 ↔ $2:
        // the second must be answered by renaming, not re-evaluation.
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
        let flock = QueryFlock::with_support(
            "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            20,
        )
        .unwrap();
        let plan = crate::plangen::single_param_plan(&flock, &db).unwrap();
        let run = execute(&plan, &db);
        assert!(!run.steps[0].reused);
        assert!(
            run.steps[1].reused,
            "ok_2 should reuse ok_1: {:?}",
            run.steps
        );
        assert!(!run.steps[2].reused);
        // And the result is still the right one.
        let direct = crate::eval::evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap();
        assert_eq!(run.result.tuples(), direct.tuples());
    }

    #[test]
    fn asymmetric_steps_not_reused() {
        let db = medical_db();
        let run = execute(&fig5_plan(2), &db);
        // okS (exhibits) and okM (treatments) are structurally different.
        assert!(run.steps.iter().all(|s| !s.reused), "{:?}", run.steps);
    }

    #[test]
    fn working_database_is_not_leaked() {
        let db = medical_db();
        execute(&fig5_plan(2), &db);
        assert!(!db.contains("okS"));
        assert!(!db.contains("okM"));
        assert!(!db.contains("ok"));
    }

    #[test]
    fn scored_execution_answers_subsumed_thresholds() {
        let db = medical_db();
        // Score once at the loosest threshold the cache will hold.
        let run = execute_plan_scored_with(
            &fig5_plan(2),
            &db,
            JoinOrderStrategy::Greedy,
            &ExecContext::unbounded(),
        )
        .unwrap();
        assert_eq!(run.scored.schema().columns().last().unwrap(), "agg");
        // Every subsumed (tighter) threshold is answered bitwise
        // identically to a cold run by re-filtering the scored rows.
        for t in [2, 3, 4] {
            let baseline = crate::FilterCondition::support(2);
            let request = crate::FilterCondition::support(t);
            assert!(baseline.subsumes(&request));
            let reused =
                crate::eval::flock_result_from_scored(&medical_flock(t), &run.scored, &request);
            let cold = execute(&fig5_plan(t), &db);
            assert_eq!(reused.tuples(), cold.result.tuples(), "threshold {t}");
            assert_eq!(reused.schema().columns(), cold.result.schema().columns());
        }
        // A looser threshold is NOT subsumed — the cache must refuse it.
        assert!(!crate::FilterCondition::support(2).subsumes(&crate::FilterCondition::support(1)));
    }

    #[test]
    fn result_columns_named_after_params() {
        let db = medical_db();
        let run = execute(&fig5_plan(2), &db);
        assert_eq!(
            run.result.schema().columns(),
            &["m".to_string(), "s".to_string()]
        );
    }
}
