//! The flock optimizer facade.
//!
//! The paper positions query flocks as something "used either in a
//! general-purpose mining system or in a next generation of
//! conventional query optimizers" (§1). This module is that front
//! door: hand it a flock and a database, and it picks an evaluation
//! strategy — static cost-based plan search (§4.2–4.3), dynamic filter
//! selection (§4.4), or plain direct evaluation — runs it, and reports
//! what it did.

use qf_engine::{ExecContext, ExecStats};
use qf_storage::{Database, Relation};

use crate::compile::JoinOrderStrategy;
use crate::dynamic::{evaluate_dynamic_with, DynamicConfig};
use crate::error::Result;
use crate::eval::evaluate_direct_with;
use crate::exec::execute_plan_with;
use crate::filter::FilterAgg;
use crate::flock::QueryFlock;
use crate::plangen::best_plan_with;

/// Which evaluation machinery to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Strategy {
    /// One monolithic plan, no a-priori pruning.
    Direct,
    /// Enumerate legal static plans, cost them, run the cheapest.
    BestStatic,
    /// §4.4 dynamic filter selection (single-rule flocks only).
    Dynamic,
    /// Choose automatically: dynamic for single-rule flocks with a
    /// `COUNT` support filter (where its decisions are defined),
    /// cost-based static search otherwise.
    #[default]
    Auto,
}

/// Configuration for the [`Optimizer`].
#[derive(Clone, Debug, Default)]
pub struct OptimizerConfig {
    /// Strategy selection.
    pub strategy: Strategy,
    /// Join-order strategy for compiled plans.
    pub join_order: JoinOrderStrategy,
    /// Tuning for the dynamic evaluator.
    pub dynamic: DynamicConfig,
    /// Run directory for a crash-safe [`crate::journal::RunJournal`].
    /// When set, completed `FILTER` steps are durably recorded there
    /// and a re-run resumes from the last completed step (after
    /// validating the plan and catalog fingerprints).
    pub journal_dir: Option<std::path::PathBuf>,
    /// Filesystem backend for the journal (fault injection); `None`
    /// means the real filesystem.
    pub journal_vfs: Option<std::sync::Arc<dyn qf_storage::Vfs>>,
}

/// What the optimizer did and what it produced.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// The flock result (parameter assignments).
    pub result: Relation,
    /// Human-readable description of the executed strategy.
    pub strategy_used: String,
    /// Estimated cost of the chosen static plan, when one was searched.
    pub estimated_cost: Option<f64>,
    /// Number of voluntary `FILTER` applications (static reductions or
    /// dynamic decisions).
    pub filters_applied: usize,
    /// Governor accounting: rows/bytes materialized and any graceful
    /// degradations (plan-search fallback, skipped dynamic filters).
    pub stats: ExecStats,
    /// Steps replayed from a run journal instead of re-evaluated
    /// (always 0 without [`OptimizerConfig::journal_dir`]).
    pub resumed_steps: usize,
}

/// The flock optimizer.
#[derive(Clone, Debug, Default)]
pub struct Optimizer {
    /// Configuration.
    pub config: OptimizerConfig,
}

impl Optimizer {
    /// Optimizer with default configuration ([`Strategy::Auto`]).
    pub fn new() -> Optimizer {
        Optimizer::default()
    }

    /// Optimizer with a fixed strategy.
    pub fn with_strategy(strategy: Strategy) -> Optimizer {
        Optimizer {
            config: OptimizerConfig {
                strategy,
                ..OptimizerConfig::default()
            },
        }
    }

    /// Evaluate `flock` against `db` under the configured strategy.
    pub fn evaluate(&self, flock: &QueryFlock, db: &Database) -> Result<Evaluation> {
        self.evaluate_with(flock, db, &ExecContext::unbounded())
    }

    /// [`Optimizer::evaluate`] under an execution governor: every
    /// strategy honours `ctx`'s budgets, deadline and cancellation
    /// token, and the returned [`Evaluation::stats`] carries the
    /// accounting (including graceful degradations).
    pub fn evaluate_with(
        &self,
        flock: &QueryFlock,
        db: &Database,
        ctx: &ExecContext,
    ) -> Result<Evaluation> {
        // `Auto`: dynamic where its decisions are defined (single rule,
        // monotone `COUNT`), cost-based static search for any other
        // monotone filter; non-monotone filters admit no sound pruning.
        let monotone = flock.filter().is_monotone();
        let counts = flock.query().is_single() && matches!(flock.filter().agg, FilterAgg::Count);
        let evaluation = match (self.config.strategy, monotone && counts, monotone) {
            (Strategy::Direct, ..) | (Strategy::Auto, false, false) => {
                let (result, resumed) = self.single_shot(flock, db, ctx, "direct", || {
                    evaluate_direct_with(flock, db, self.config.join_order, ctx)
                })?;
                Evaluation {
                    result,
                    strategy_used: if resumed > 0 {
                        "direct (resumed)".to_string()
                    } else {
                        "direct".to_string()
                    },
                    estimated_cost: None,
                    filters_applied: 0,
                    stats: ExecStats::default(),
                    resumed_steps: resumed,
                }
            }
            (Strategy::BestStatic, ..) | (Strategy::Auto, false, true) => {
                let (plan, cost) = best_plan_with(flock, db, ctx)?;
                let reductions = plan.len() - 1;
                let label = if reductions == 0 {
                    "best-static: direct".to_string()
                } else {
                    format!("best-static: {}", plan.reduction_names().join("+"))
                };
                let run = match &self.config.journal_dir {
                    Some(dir) => {
                        let mut journal = crate::journal::RunJournal::open_on(
                            self.journal_vfs(),
                            dir,
                            crate::journal::plan_fingerprint(&plan),
                            crate::journal::catalog_fingerprint(db),
                        )?;
                        crate::exec::execute_plan_journaled(
                            &plan,
                            db,
                            self.config.join_order,
                            ctx,
                            &mut journal,
                        )?
                    }
                    None => execute_plan_with(&plan, db, self.config.join_order, ctx)?,
                };
                let resumed = run.steps.iter().filter(|s| s.resumed).count();
                Evaluation {
                    result: run.result,
                    strategy_used: label,
                    estimated_cost: Some(cost),
                    filters_applied: reductions,
                    stats: ExecStats::default(),
                    resumed_steps: resumed,
                }
            }
            (Strategy::Dynamic, ..) | (Strategy::Auto, true, _) => {
                let mut voluntary = 0usize;
                let (result, resumed) = self.single_shot(flock, db, ctx, "dynamic", || {
                    let report = evaluate_dynamic_with(flock, db, &self.config.dynamic, ctx)?;
                    voluntary = report
                        .decisions
                        .iter()
                        .filter(|d| {
                            d.filtered && d.reason != crate::dynamic::DecisionReason::FinalMandatory
                        })
                        .count();
                    Ok(report.result)
                })?;
                Evaluation {
                    result,
                    strategy_used: if resumed > 0 {
                        "dynamic (resumed)".to_string()
                    } else {
                        format!("dynamic ({voluntary} voluntary filters)")
                    },
                    estimated_cost: None,
                    filters_applied: voluntary,
                    stats: ExecStats::default(),
                    resumed_steps: resumed,
                }
            }
        };
        Ok(Evaluation {
            stats: ctx.stats(),
            ..evaluation
        })
    }

    /// Run a single-shot strategy (direct / dynamic) under the optional
    /// journal. These strategies have no intermediate `FILTER` steps,
    /// so the journal holds the final result as one step: a completed
    /// journal replays it without recomputation, and an interrupted run
    /// simply starts over (there is nothing partial to save).
    /// The filesystem backend journals should use (configured injector
    /// or the real filesystem).
    fn journal_vfs(&self) -> std::sync::Arc<dyn qf_storage::Vfs> {
        self.config
            .journal_vfs
            .clone()
            .unwrap_or_else(qf_storage::real_fs)
    }

    fn single_shot(
        &self,
        flock: &QueryFlock,
        db: &Database,
        ctx: &ExecContext,
        tag: &str,
        eval: impl FnOnce() -> Result<Relation>,
    ) -> Result<(Relation, usize)> {
        let Some(dir) = &self.config.journal_dir else {
            return Ok((eval()?, 0));
        };
        let plan_fp = crate::journal::fingerprint_text(&format!("{tag}\n{}", flock.render()));
        let mut journal = crate::journal::RunJournal::open_on(
            self.journal_vfs(),
            dir,
            plan_fp,
            crate::journal::catalog_fingerprint(db),
        )?;
        if journal.contiguous_prefix(1) == 1 {
            match journal.load_step(0) {
                Ok(rel) => return Ok((rel, 1)),
                Err(e @ crate::error::FlockError::SnapshotCorrupt { .. }) => {
                    // Same policy as the plan executor: a damaged
                    // snapshot costs the resume, never the run.
                    ctx.record_degradation("journal-corrupt-snapshot", format!("{e}; recomputing"));
                    ctx.note_corruption_recovery();
                }
                Err(e) => return Err(e),
            }
        }
        let result = eval()?;
        match journal.record_step(0, &result) {
            Ok(()) => {
                for _ in 0..journal.take_io_retries() {
                    ctx.note_io_retry();
                }
            }
            Err(e) => {
                for _ in 0..journal.take_io_retries() {
                    ctx.note_io_retry();
                }
                ctx.record_degradation(
                    "journal-advisory",
                    format!("{e}; continuing without journaling (resume disabled)"),
                );
            }
        }
        Ok((result, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qf_storage::{Schema, Value};

    fn db() -> Database {
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

    fn flock() -> QueryFlock {
        QueryFlock::with_support(
            "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            20,
        )
        .unwrap()
    }

    #[test]
    fn all_strategies_agree() {
        let db = db();
        let flock = flock();
        let reference = Optimizer::with_strategy(Strategy::Direct)
            .evaluate(&flock, &db)
            .unwrap();
        for s in [Strategy::BestStatic, Strategy::Dynamic, Strategy::Auto] {
            let e = Optimizer::with_strategy(s).evaluate(&flock, &db).unwrap();
            assert_eq!(e.result.tuples(), reference.result.tuples(), "{s:?}");
        }
        assert_eq!(reference.result.len(), 1);
    }

    #[test]
    fn auto_picks_dynamic_for_single_rule_count() {
        let e = Optimizer::new().evaluate(&flock(), &db()).unwrap();
        assert!(
            e.strategy_used.starts_with("dynamic"),
            "{}",
            e.strategy_used
        );
    }

    #[test]
    fn auto_picks_static_for_unions() {
        let mut db = db();
        db.insert(Relation::from_rows(
            Schema::new("carts", &["bid", "item"]),
            vec![vec![Value::int(1), Value::str("hot1")]],
        ));
        let flock = QueryFlock::parse(
            "QUERY:
             answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2
             answer(B) :- carts(B,$1) AND carts(B,$2) AND $1 < $2
             FILTER: COUNT(answer(*)) >= 20",
        )
        .unwrap();
        let e = Optimizer::new().evaluate(&flock, &db).unwrap();
        assert!(
            e.strategy_used.starts_with("best-static"),
            "{}",
            e.strategy_used
        );
        assert!(e.estimated_cost.is_some());
    }

    #[test]
    fn auto_refuses_pruning_for_non_monotone() {
        let flock = QueryFlock::parse(
            "QUERY: answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2
             FILTER: COUNT(answer.B) < 5",
        )
        .unwrap();
        let e = Optimizer::new().evaluate(&flock, &db()).unwrap();
        assert_eq!(e.strategy_used, "direct");
        assert_eq!(e.filters_applied, 0);
    }

    #[test]
    fn best_static_reports_cost_and_filters() {
        let e = Optimizer::with_strategy(Strategy::BestStatic)
            .evaluate(&flock(), &db())
            .unwrap();
        assert!(e.estimated_cost.unwrap() > 0.0);
    }
}
