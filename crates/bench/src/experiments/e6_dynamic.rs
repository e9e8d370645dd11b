//! **E6 — Figs. 8 & 9, Ex. 4.4.** Dynamic selection of filter steps.
//!
//! The static plans of E3 must be chosen before seeing any data; the
//! §4.4 strategy decides *during* execution from observed
//! tuples-per-assignment ratios. We sweep data regimes (rare-value
//! density) and compare the dynamic evaluator against every static
//! plan. The shape to verify: the dynamic strategy tracks the best
//! static plan in each regime — filtering early on skewed data,
//! skipping useless filters on dense data — without being told which
//! regime it is in.

use std::collections::BTreeSet;

use qf_core::{
    direct_plan, evaluate_dynamic_with, execute_plan_with, param_set_plan, DynamicConfig,
    ExecContext, JoinOrderStrategy,
};
use qf_storage::Symbol;

use crate::experiments::e3_medical_plans::medical_flock;
use crate::table::{fmt_duration, Table};
use crate::timing::time_median;
use crate::workloads::{medical_data, PAPER_THRESHOLD};
use crate::Scale;

/// Run E6.
pub fn run(scale: Scale) -> Vec<Table> {
    let rare_fractions: &[f64] = match scale {
        Scale::Small => &[0.1, 0.6],
        Scale::Full => &[0.05, 0.3, 0.6],
    };
    let flock = medical_flock(PAPER_THRESHOLD);
    let s_set: BTreeSet<Symbol> = [Symbol::intern("s")].into_iter().collect();
    let m_set: BTreeSet<Symbol> = [Symbol::intern("m")].into_iter().collect();

    let mut table = Table::new(
        "E6 (Figs. 8–9, Ex. 4.4): dynamic filter selection vs. static plans",
        &[
            "rare fraction",
            "direct",
            "best static",
            "dynamic",
            "dyn/best",
            "filters applied",
        ],
    );
    table.note(
        "best static = min over {direct, okS, okM, okS+okM}; `filters \
         applied` counts the dynamic evaluator's voluntary FILTER decisions \
         (the final mandatory filter is excluded)."
            .to_string(),
    );

    let mut decisions_table = Table::new(
        "E6b: dynamic decision trace (highest rare fraction)",
        &[
            "after subgoal",
            "params",
            "tuples",
            "assignments",
            "ratio",
            "action",
        ],
    );

    for (ri, &rare) in rare_fractions.iter().enumerate() {
        let data = medical_data(scale, rare);
        let db = &data.db;

        let mut static_times = Vec::new();
        let mut reference: Option<qf_storage::Relation> = None;
        let plans = [
            direct_plan(&flock).unwrap(),
            param_set_plan(&flock, db, std::slice::from_ref(&s_set)).unwrap(),
            param_set_plan(&flock, db, std::slice::from_ref(&m_set)).unwrap(),
            param_set_plan(&flock, db, &[s_set.clone(), m_set.clone()]).unwrap(),
        ];
        for plan in &plans {
            let (run, t) = time_median(3, || {
                execute_plan_with(
                    plan,
                    db,
                    JoinOrderStrategy::Greedy,
                    &ExecContext::unbounded(),
                )
                .unwrap()
            });
            static_times.push(t);
            match &reference {
                None => reference = Some(run.result),
                Some(r) => assert_eq!(r.tuples(), run.result.tuples()),
            }
        }
        let direct_t = static_times[0];
        let best_static = *static_times.iter().min().unwrap();

        let (report, dynamic_t) = time_median(3, || {
            evaluate_dynamic_with(
                &flock,
                db,
                &DynamicConfig::default(),
                &ExecContext::unbounded(),
            )
            .unwrap()
        });
        assert_eq!(
            reference.as_ref().unwrap().tuples(),
            report.result.tuples(),
            "dynamic evaluation changed the answer"
        );
        let voluntary_filters = report
            .decisions
            .iter()
            .filter(|d| d.filtered && d.reason != qf_core::DecisionReason::FinalMandatory)
            .count();

        table.row(vec![
            format!("{rare:.2}"),
            fmt_duration(direct_t),
            fmt_duration(best_static),
            fmt_duration(dynamic_t),
            format!(
                "{:.2}",
                dynamic_t.as_secs_f64() / best_static.as_secs_f64().max(1e-9)
            ),
            voluntary_filters.to_string(),
        ]);

        // Record the trace for the last (most skewed) regime.
        if ri == rare_fractions.len() - 1 {
            for d in &report.decisions {
                decisions_table.row(vec![
                    d.after_subgoal.clone(),
                    d.param_set.join(","),
                    d.tuples.to_string(),
                    d.assignments.to_string(),
                    format!("{:.2}", d.ratio),
                    if d.filtered {
                        format!("FILTER ({:?}) → {}", d.reason, d.survivors.unwrap_or(0))
                    } else {
                        format!("skip ({:?})", d.reason)
                    },
                ]);
            }
        }
    }
    vec![table, decisions_table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_dynamic_is_competitive() {
        let tables = run(Scale::Small);
        assert_eq!(tables.len(), 2);
        // Dynamic should stay within 4x of the best static plan at both
        // regimes (it usually matches; the bound is deliberately loose
        // for CI noise).
        for row in &tables[0].rows {
            let ratio: f64 = row[4].parse().unwrap();
            assert!(ratio < 4.0, "dynamic far off best static: {row:?}");
        }
        assert!(!tables[1].rows.is_empty());
    }
}
