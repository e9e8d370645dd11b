//! **E3 — Figs. 3 & 5, Examples 3.2 & 4.1.** The medical side-effects
//! flock and its candidate plans.
//!
//! Two tables:
//!
//! 1. The Ex. 3.2 enumeration: all safe subqueries of the flock (the
//!    paper counts 8 of 14 nontrivial subsets) with their parameter
//!    sets.
//! 2. The Ex. 4.1 trade-off: execution time of the direct plan, the
//!    `okS`-only and `okM`-only plans, and the full Fig. 5 plan, across
//!    rare-value densities. §3.2's prediction: prefilters pay off when
//!    rare symptoms/medicines are dense and are wasted work when almost
//!    everything passes support.

use std::collections::BTreeSet;

use qf_core::{
    direct_plan, execute_plan_with, param_set_plan, ExecContext, JoinOrderStrategy, QueryFlock,
};
use qf_datalog::safe_subqueries;
use qf_storage::Symbol;

use crate::table::{fmt_duration, Table};
use crate::timing::time_median;
use crate::workloads::{medical_data, PAPER_THRESHOLD};
use crate::Scale;

/// The Fig. 3 flock.
pub fn medical_flock(threshold: i64) -> QueryFlock {
    QueryFlock::with_support(
        "answer(P) :- exhibits(P,$s) AND treatments(P,$m) AND \
         diagnoses(P,D) AND NOT causes(D,$s)",
        threshold,
    )
    .expect("static flock text")
}

/// Run E3.
pub fn run(scale: Scale) -> Vec<Table> {
    // Table 1: the Ex. 3.2 safe-subquery enumeration.
    let flock = medical_flock(PAPER_THRESHOLD);
    let rule = flock.single_rule().unwrap();
    let subs = safe_subqueries(rule);
    let mut enumeration = Table::new(
        "E3a (Ex. 3.2): safe subqueries of the side-effects flock",
        &["#", "subquery", "params"],
    );
    enumeration.note(format!(
        "{} of the 14 nontrivial subgoal subsets are safe (paper: 8).",
        subs.len()
    ));
    for (i, s) in subs.iter().enumerate() {
        let params: Vec<String> = s.params().iter().map(|p| format!("${p}")).collect();
        enumeration.row(vec![(i + 1).to_string(), s.to_string(), params.join(",")]);
    }
    assert_eq!(subs.len(), 8, "Ex. 3.2 count");

    // Table 2: plan trade-offs across rare-value density.
    let rare_fractions: &[f64] = match scale {
        Scale::Small => &[0.1, 0.5],
        Scale::Full => &[0.05, 0.3, 0.6],
    };
    let mut tradeoff = Table::new(
        "E3b (Ex. 4.1, Fig. 5): plan execution time vs. rare-value density",
        &[
            "rare fraction",
            "direct",
            "okS only",
            "okM only",
            "fig5 (okS+okM)",
            "results",
        ],
    );
    tradeoff.note(
        "§3.2: prefiltering rare symptoms/medicines helps in proportion to \
         how much of the data is rare."
            .to_string(),
    );

    let s_set: BTreeSet<Symbol> = [Symbol::intern("s")].into_iter().collect();
    let m_set: BTreeSet<Symbol> = [Symbol::intern("m")].into_iter().collect();
    for &rare in rare_fractions {
        let data = medical_data(scale, rare);
        let db = &data.db;
        let p_direct = direct_plan(&flock).unwrap();
        let p_s = param_set_plan(&flock, db, std::slice::from_ref(&s_set)).unwrap();
        let p_m = param_set_plan(&flock, db, std::slice::from_ref(&m_set)).unwrap();
        let p_both = param_set_plan(&flock, db, &[s_set.clone(), m_set.clone()]).unwrap();

        let mut times = Vec::new();
        let mut results = Vec::new();
        for plan in [&p_direct, &p_s, &p_m, &p_both] {
            let (run, t) = time_median(3, || {
                execute_plan_with(
                    plan,
                    db,
                    JoinOrderStrategy::Greedy,
                    &ExecContext::unbounded(),
                )
                .unwrap()
            });
            times.push(t);
            results.push(run.result);
        }
        for r in &results[1..] {
            assert_eq!(results[0].tuples(), r.tuples(), "plans disagree");
        }
        tradeoff.row(vec![
            format!("{rare:.2}"),
            fmt_duration(times[0]),
            fmt_duration(times[1]),
            fmt_duration(times[2]),
            fmt_duration(times[3]),
            results[0].len().to_string(),
        ]);
    }
    vec![enumeration, tradeoff]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_runs() {
        let tables = run(Scale::Small);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows.len(), 8);
        assert_eq!(tables[1].rows.len(), 2);
    }
}
