//! The flock optimizer facade.
//!
//! The paper positions query flocks as something "used either in a
//! general-purpose mining system or in a next generation of
//! conventional query optimizers" (§1). This module is that front
//! door: hand it a flock and a database, and it picks an evaluation
//! strategy — static cost-based plan search (§4.2–4.3), dynamic filter
//! selection (§4.4), or plain direct evaluation — runs it, and reports
//! what it did.
//!
//! Every strategy is a plan plus the evaluator of its steps, run by the
//! one plan loop ([`crate::exec::execute_plan_scored_on`]):
//!
//! * direct — the one-step [`direct_plan`] (Fig. 1), local evaluator;
//! * best-static — the cheapest plan [`best_plan_with`] finds, local
//!   evaluator;
//! * dynamic — the direct plan, its step answered by the §4.4 walk.
//!
//! So a journaled run of any strategy is the loop's journal: direct and
//! dynamic runs of one flock share a plan fingerprint and resume each
//! other's run directory.

use qf_engine::{ExecContext, ExecStats};
use qf_storage::{real_fs, Database, Relation};

use crate::compile::JoinOrderStrategy;
use crate::dynamic::{DecisionReason, DynamicConfig, DynamicEvaluator};
use crate::error::{FlockError, Result};
use crate::eval::flock_result_from_scored;
use crate::exec::{execute_plan_scored_on, LocalEvaluator, StepEvaluator};
use crate::filter::FilterAgg;
use crate::flock::QueryFlock;
use crate::journal::{plan_fingerprint, RunJournal};
use crate::plangen::{best_plan_with, direct_plan};

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

    /// Evaluate `flock` against `db` under the configured strategy and
    /// an execution governor: every strategy honours `ctx`'s budgets,
    /// deadline and cancellation token, and the returned
    /// [`Evaluation::stats`] carries the accounting (including graceful
    /// degradations).
    ///
    /// The strategy resolves once to a plan and the evaluator of its
    /// steps, and the one plan loop runs it — so every strategy
    /// journals, resumes and recovers from a damaged snapshot alike.
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
        let route = match (self.config.strategy, monotone && counts, monotone) {
            (Strategy::Direct, ..) | (Strategy::Auto, false, false) => Strategy::Direct,
            (Strategy::BestStatic, ..) | (Strategy::Auto, false, true) => Strategy::BestStatic,
            (Strategy::Dynamic, ..) | (Strategy::Auto, true, _) => Strategy::Dynamic,
        };
        let (plan, cost) = match route {
            Strategy::BestStatic => {
                let (plan, cost) = best_plan_with(flock, db, ctx)?;
                (plan, Some(cost))
            }
            _ => (direct_plan(flock)?, None),
        };
        let local = LocalEvaluator {
            strategy: self.config.join_order,
        };
        let dynamic = DynamicEvaluator::new(self.config.dynamic);
        let evaluator: &dyn StepEvaluator<Error = FlockError> = match route {
            Strategy::Dynamic => &dynamic,
            _ => &local,
        };
        let mut journal = match &self.config.journal_dir {
            Some(dir) => Some(RunJournal::open(
                self.config.journal_vfs.clone().unwrap_or_else(real_fs),
                dir,
                plan_fingerprint(&plan),
                db.fingerprint(),
            )?),
            None => None,
        };
        let run = execute_plan_scored_on(&plan, db, evaluator, ctx, journal.as_mut())?;
        let resumed = run.steps.iter().filter(|s| s.resumed).count();
        let (strategy_used, filters_applied) = match route {
            Strategy::Dynamic if resumed > 0 => ("dynamic (resumed)".to_string(), 0),
            Strategy::Dynamic => {
                let (decisions, _) = dynamic.into_trace();
                let voluntary = decisions
                    .iter()
                    .filter(|d| d.filtered && d.reason != DecisionReason::FinalMandatory)
                    .count();
                (
                    format!("dynamic ({voluntary} voluntary filters)"),
                    voluntary,
                )
            }
            Strategy::BestStatic if plan.len() > 1 => {
                let reductions = plan.reduction_names().join("+");
                (format!("best-static: {reductions}"), plan.len() - 1)
            }
            Strategy::BestStatic => ("best-static: direct".to_string(), 0),
            _ if resumed > 0 => ("direct (resumed)".to_string(), 0),
            _ => ("direct".to_string(), 0),
        };
        Ok(Evaluation {
            result: flock_result_from_scored(flock, &run.scored, flock.filter()),
            strategy_used,
            estimated_cost: cost,
            filters_applied,
            stats: ctx.stats(),
            resumed_steps: resumed,
        })
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
            .evaluate_with(&flock, &db, &ExecContext::unbounded())
            .unwrap();
        for s in [Strategy::BestStatic, Strategy::Dynamic, Strategy::Auto] {
            let e = Optimizer::with_strategy(s)
                .evaluate_with(&flock, &db, &ExecContext::unbounded())
                .unwrap();
            assert_eq!(e.result.tuples(), reference.result.tuples(), "{s:?}");
        }
        assert_eq!(reference.result.len(), 1);
    }

    #[test]
    fn auto_picks_dynamic_for_single_rule_count() {
        let e = Optimizer::new()
            .evaluate_with(&flock(), &db(), &ExecContext::unbounded())
            .unwrap();
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
        let e = Optimizer::new()
            .evaluate_with(&flock, &db, &ExecContext::unbounded())
            .unwrap();
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
        let e = Optimizer::new()
            .evaluate_with(&flock, &db(), &ExecContext::unbounded())
            .unwrap();
        assert_eq!(e.strategy_used, "direct");
        assert_eq!(e.filters_applied, 0);
    }

    /// §5: a negative weight under a SUM filter breaks monotonicity,
    /// and every strategy refuses it the same way.
    #[test]
    fn every_strategy_refuses_a_negative_sum_weight() {
        let mut db = Database::new();
        db.insert(Relation::from_rows(
            Schema::new("sales", &["b", "item", "w"]),
            vec![
                vec![Value::int(1), Value::str("a"), Value::int(4)],
                vec![Value::int(2), Value::str("a"), Value::int(-3)],
                vec![Value::int(3), Value::str("b"), Value::int(5)],
            ],
        ));
        let flock = QueryFlock::parse(
            "QUERY: answer(B,W) :- sales(B,$1,W)
             FILTER: SUM(answer.W) >= 1",
        )
        .unwrap();
        for s in [
            Strategy::Direct,
            Strategy::BestStatic,
            Strategy::Dynamic,
            Strategy::Auto,
        ] {
            let err = Optimizer::with_strategy(s)
                .evaluate_with(&flock, &db, &ExecContext::unbounded())
                .unwrap_err();
            assert!(
                matches!(err, crate::FlockError::NegativeWeight { .. }),
                "{s:?}: {err}"
            );
        }
    }

    #[test]
    fn best_static_reports_cost_and_filters() {
        let e = Optimizer::with_strategy(Strategy::BestStatic)
            .evaluate_with(&flock(), &db(), &ExecContext::unbounded())
            .unwrap();
        assert!(e.estimated_cost.unwrap() > 0.0);
    }
}
