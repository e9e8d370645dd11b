//! **E9 — §4.2–4.3 ablation.** The plan search itself.
//!
//! Three questions the paper raises but cannot measure without an
//! implementation:
//!
//! 1. **Cost-model fidelity** — for every enumerated plan, does the
//!    [`estimate_plan_cost`] ranking agree with actual execution?
//! 2. **Search strategy value** — exhaustive enumeration vs. the
//!    Fig. 5 heuristic vs. dynamic: answer quality and search price.
//! 3. **Plan spread** — how much is at stake between the best and worst
//!    legal plan (if the spread is small, none of §4 matters).

use qf_core::{
    best_plan_with, enumerate_plans, estimate_plan_cost, evaluate_dynamic_with, execute_plan_with,
    single_param_plan, DynamicConfig, ExecContext, JoinOrderStrategy,
};

use crate::experiments::e3_medical_plans::medical_flock;
use crate::table::{fmt_duration, Table};
use crate::timing::{time, time_median};
use crate::workloads::{medical_data, PAPER_THRESHOLD};
use crate::Scale;

/// Run E9.
pub fn run(scale: Scale) -> Vec<Table> {
    let data = medical_data(scale, 0.3);
    let db = &data.db;
    let flock = medical_flock(PAPER_THRESHOLD);

    // 1. Every enumerated plan: estimated vs. actual.
    let plans = enumerate_plans(&flock, db).unwrap();
    let mut fidelity = Table::new(
        "E9a (§4.2): cost model vs. reality over the enumerated plan space",
        &[
            "plan (reductions)",
            "est. cost (tuples)",
            "actual tuples",
            "actual time",
        ],
    );
    let mut measured: Vec<(String, f64, usize, std::time::Duration)> = Vec::new();
    for plan in &plans {
        let label = if plan.len() == 1 {
            "direct".to_string()
        } else {
            plan.reduction_names().join("+")
        };
        let est = estimate_plan_cost(plan, db, JoinOrderStrategy::Greedy).unwrap();
        let (run, t) = time_median(3, || {
            execute_plan_with(
                plan,
                db,
                JoinOrderStrategy::Greedy,
                &ExecContext::unbounded(),
            )
            .unwrap()
        });
        measured.push((label, est, run.total_answer_tuples(), t));
    }
    for (label, est, tuples, t) in &measured {
        fidelity.row(vec![
            label.clone(),
            format!("{est:.0}"),
            tuples.to_string(),
            fmt_duration(*t),
        ]);
    }
    let est_argmin = measured
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap()
        .0
        .clone();
    let time_argmin = measured.iter().min_by_key(|m| m.3).unwrap().0.clone();
    let worst = measured.iter().max_by_key(|m| m.3).unwrap();
    let best = measured.iter().min_by_key(|m| m.3).unwrap();
    fidelity.note(format!(
        "cost-model pick: `{est_argmin}`; actual fastest: `{time_argmin}`; \
         best/worst actual spread: {:.1}x",
        worst.3.as_secs_f64() / best.3.as_secs_f64().max(1e-9)
    ));

    // 2. Search strategies.
    let mut strategies = Table::new(
        "E9b (§4.3): search strategy vs. resulting execution",
        &["strategy", "search time", "chosen plan", "execution time"],
    );
    let ((chosen, _cost), search_t) = {
        let (r, t) = time(|| best_plan_with(&flock, db, &ExecContext::unbounded()).unwrap());
        (r, t)
    };
    let (_, exec_t) = time_median(3, || {
        execute_plan_with(
            &chosen,
            db,
            JoinOrderStrategy::Greedy,
            &ExecContext::unbounded(),
        )
        .unwrap()
    });
    strategies.row(vec![
        "exhaustive + cost model".to_string(),
        fmt_duration(search_t),
        if chosen.len() == 1 {
            "direct".into()
        } else {
            chosen.reduction_names().join("+")
        },
        fmt_duration(exec_t),
    ]);

    let (heuristic, heuristic_search_t) = time(|| single_param_plan(&flock, db).unwrap());
    let (_, heuristic_exec_t) = time_median(3, || {
        execute_plan_with(
            &heuristic,
            db,
            JoinOrderStrategy::Greedy,
            &ExecContext::unbounded(),
        )
        .unwrap()
    });
    strategies.row(vec![
        "fig. 5 heuristic (singletons)".to_string(),
        fmt_duration(heuristic_search_t),
        heuristic.reduction_names().join("+"),
        fmt_duration(heuristic_exec_t),
    ]);

    let (report, dynamic_t) = time_median(3, || {
        evaluate_dynamic_with(
            &flock,
            db,
            &DynamicConfig::default(),
            &ExecContext::unbounded(),
        )
        .unwrap()
    });
    strategies.row(vec![
        "dynamic (§4.4)".to_string(),
        "0 (online)".to_string(),
        format!(
            "{} voluntary filters",
            report
                .decisions
                .iter()
                .filter(|d| d.filtered && d.reason != qf_core::DecisionReason::FinalMandatory)
                .count()
        ),
        fmt_duration(dynamic_t),
    ]);

    vec![fidelity, strategies]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_runs() {
        let tables = run(Scale::Small);
        assert_eq!(tables.len(), 2);
        // Params {m,s} → up to 3 reduction options → 8 plans.
        assert_eq!(tables[0].rows.len(), 8);
        assert_eq!(tables[1].rows.len(), 3);
    }
}
