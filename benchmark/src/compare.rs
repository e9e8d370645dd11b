//! `qfbench compare A.json B.json`: is B worse than A?
//!
//! One row per (end-to-end metric, workload). A metric may worsen by its
//! bound, as a share of A's median, before the row reads `regressed`.
//! Where A's own run-to-run spread is wider than the bound the
//! comparison cannot tell, and the row reads `unresolved`, not
//! `unchanged`.

use crate::json::Json;
use crate::run::{Metric, END_TO_END, EXTRA};
use crate::stats::{median, spread};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric from its per-set values on both sides.
pub fn judge(metric: &Metric, bound: f64, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (med_a, med_b) = (median(a), median(b));
    let worse_by = if med_a == 0.0 {
        0.0
    } else if metric.higher {
        (med_a - med_b) / med_a
    } else {
        (med_b - med_a) / med_a
    };
    // Quartiles of fewer than three sets say nothing about spread; the
    // bound then also decides what counts as better.
    let noise = if a.len() > 2 && b.len() > 2 {
        spread(a).max(spread(b))
    } else {
        bound
    };
    let verdict = if spread(a) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > noise {
        Verdict::Better
    } else {
        Verdict::Unchanged
    };
    (verdict, worse_by)
}

fn set_values(workload: &Json, group: &str, name: &str) -> Vec<f64> {
    workload
        .get("sets")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|set| set.get(group)?.get(name)?.get("value")?.as_f64())
        .collect()
}

fn fail_frac(workload: &Json) -> f64 {
    let sum = |key: &str| -> f64 {
        workload
            .get("sets")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|set| set.get(key)?.as_f64())
            .sum()
    };
    let attempted = sum("attempted");
    if attempted == 0.0 {
        1.0
    } else {
        sum("failed") / attempted
    }
}

/// Print the table; `Ok(true)` when nothing regressed.
pub fn compare_files(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads = |doc: &Json| {
        doc.get("workloads")
            .map(Json::as_arr)
            .unwrap_or_default()
            .to_vec()
    };
    let mut clean = true;
    println!(
        "{:<15} {:<20} {:>12} {:>12} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound", "A spread"
    );
    for wa in workloads(&a) {
        let name = wa
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let Some(wb) = workloads(&b)
            .into_iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(&name))
        else {
            println!("{name:<15} missing from {path_b}");
            clean = false;
            continue;
        };
        for (group, metric) in END_TO_END
            .iter()
            .map(|m| ("metrics", m))
            .chain(EXTRA.iter().map(|m| ("extra", m)))
        {
            let Some(bound) = metric.bound else { continue };
            let (va, vb) = (
                set_values(&wa, group, metric.name),
                set_values(&wb, group, metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (verdict, worse_by) = judge(metric, bound, &va, &vb);
            clean &= verdict != Verdict::Regressed;
            println!(
                "{name:<15} {:<20} {:>12.4} {:>12.4} {:>8.1}% {:>6.0}% {:>7.1}%  {}",
                metric.name,
                median(&va),
                median(&vb),
                worse_by * 100.0,
                bound * 100.0,
                spread(&va) * 100.0,
                verdict.as_str()
            );
        }
        let (fa, fb) = (fail_frac(&wa), fail_frac(&wb));
        let verdict = if fb > fa {
            clean = false;
            "regressed"
        } else {
            "unchanged"
        };
        println!(
            "{name:<15} {:<20} {fa:>12.6} {fb:>12.6} {:>9} {:>7} {:>8}  {verdict}",
            "fail_frac", "", "any", ""
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: &Metric = &END_TO_END[1]; // p50_ms
    const HIGHER: &Metric = &END_TO_END[0]; // ops_per_s

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower = [115.0, 116.0, 114.0, 115.5, 114.5];
        let faster = [90.0, 91.0, 89.0, 90.5, 89.5];
        let noisy = [100.0, 130.0, 80.0, 120.0, 75.0];
        assert_eq!(judge(LOWER, 0.10, &steady, &slower).0, Verdict::Regressed);
        assert_eq!(judge(LOWER, 0.10, &steady, &faster).0, Verdict::Better);
        assert_eq!(judge(LOWER, 0.10, &steady, &steady).0, Verdict::Unchanged);
        assert_eq!(judge(LOWER, 0.10, &noisy, &slower).0, Verdict::Unresolved);
        // Direction flips for throughput.
        assert_eq!(judge(HIGHER, 0.10, &steady, &slower).0, Verdict::Better);
        assert_eq!(judge(HIGHER, 0.10, &slower, &steady).0, Verdict::Regressed);
    }

    #[test]
    fn one_or_two_sets_are_judged_by_the_bound_alone() {
        assert_eq!(judge(LOWER, 0.10, &[100.0], &[108.0]).0, Verdict::Unchanged);
        assert_eq!(judge(LOWER, 0.10, &[100.0], &[111.0]).0, Verdict::Regressed);
        assert_eq!(judge(LOWER, 0.10, &[100.0], &[95.0]).0, Verdict::Unchanged);
        assert_eq!(judge(LOWER, 0.10, &[100.0], &[85.0]).0, Verdict::Better);
        assert_eq!(
            judge(LOWER, 0.10, &[100.0, 100.1], &[97.0, 97.1]).0,
            Verdict::Unchanged
        );
    }
}
