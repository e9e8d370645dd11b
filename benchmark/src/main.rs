//! `qfbench` — the query-flocks macro-benchmark.
//!
//! ```text
//! qfbench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!             [--sets K] [--smoke] [--out-dir DIR]
//! qfbench compare A.json B.json
//! ```
//!
//! `run` generates data from the seed, starts the real servers, drives
//! them over loopback TCP, checks every answer, and prints one JSON
//! object per workload; see `README.md` for what each number means.

mod cluster;
mod compare;
mod data;
mod json;
mod oracle;
mod rng;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use json::Json;
use run::{Metric, Outcome, RunConfig, END_TO_END, EXTRA, PER_LAYER};
use workload::{Spec, SPECS};

/// Traced-run counts that do not depend on timing: sets run at one seed
/// must agree on them to the last digit.
const EXACT: [&str; 6] = [
    "exec.rows",
    "exec.rows_per_result",
    "shard.partial_bytes_per_op",
    "shard.failovers",
    "shard.rescatters",
    "pool.rejected",
];

struct RunArgs {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    sets: usize,
    smoke: bool,
    out_dir: PathBuf,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        sets: 1,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload = Some(workload::spec(name).ok_or(format!(
                    "no workload `{name}` (have: {})",
                    SPECS.map(|s| s.name).join(", ")
                ))?);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--sets" => {
                out.sets = value()?.parse().map_err(|e| format!("--sets: {e}"))?;
                if out.sets == 0 {
                    return Err("--sets must be at least 1".to_string());
                }
            }
            "--smoke" => out.smoke = true,
            "--out-dir" => out.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(out)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn metrics_json(catalog: &[Metric], values: &[(&'static str, f64)]) -> Json {
    Json::obj(values.iter().map(|(name, value)| {
        let metric = catalog
            .iter()
            .find(|m| m.name == *name)
            .expect("every reported metric is declared");
        let entry = Json::obj([
            ("value", Json::Num(*value)),
            ("unit", Json::str(metric.unit)),
        ]);
        (*name, entry)
    }))
}

fn set_json(outcome: &Outcome, catalog: &[Metric]) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(catalog, &outcome.metrics)),
        ("extra", metrics_json(&EXTRA, &outcome.extra)),
        ("counts", outcome.detail.clone()),
        (
            "problems",
            Json::Arr(outcome.problems.iter().map(Json::str).collect()),
        ),
    ])
}

/// Per metric, the sets' values folded to median and quartiles, so the
/// run-to-run spread is in the file.
fn summary_json(catalog: &[Metric], sets: &[Outcome]) -> Json {
    Json::obj(catalog.iter().filter_map(|metric| {
        let values: Vec<f64> = sets
            .iter()
            .flat_map(|o| o.metrics.iter().chain(&o.extra))
            .filter(|(name, _)| *name == metric.name)
            .map(|(_, v)| *v)
            .collect();
        if values.is_empty() {
            return None;
        }
        let (q1, q3) = stats::quartiles(&values);
        Some((
            metric.name,
            Json::obj([
                ("median", Json::Num(stats::median(&values))),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                ("spread", Json::Num(stats::spread(&values))),
                ("unit", Json::str(metric.unit)),
            ]),
        ))
    }))
}

/// The one-line result: the sets' median of each metric.
fn result_line(spec: Option<&Spec>, catalog: &[Metric], sets: &[Outcome]) -> Json {
    let medians: Vec<(&'static str, f64)> = sets[0]
        .metrics
        .iter()
        .map(|(name, _)| {
            let values: Vec<f64> = sets
                .iter()
                .flat_map(|o| &o.metrics)
                .filter(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .collect();
            (*name, stats::median(&values))
        })
        .collect();
    let mut pairs = Vec::new();
    if let Some(spec) = spec {
        pairs.push(("workload", Json::str(spec.name)));
    }
    pairs.extend([
        ("correct", Json::Bool(sets.iter().all(|o| o.correct))),
        (
            "attempted",
            Json::Num(sets.iter().map(|o| o.attempted).sum::<u64>() as f64),
        ),
        (
            "failed",
            Json::Num(sets.iter().map(|o| o.failed).sum::<u64>() as f64),
        ),
        ("metrics", metrics_json(catalog, &medians)),
    ]);
    Json::obj(pairs)
}

fn run(args: &[String]) -> Result<bool, String> {
    let args = parse_run_args(args)?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let chosen: Vec<&'static Spec> = match args.workload {
        Some(spec) => vec![spec],
        None => SPECS.iter().collect(),
    };
    for spec in &chosen {
        // More client threads than processors would time the scheduler,
        // not the servers.
        if spec.clients > nproc {
            return Err(format!(
                "{} drives {} client connections but this machine has {nproc} processor(s)",
                spec.name, spec.clients
            ));
        }
    }
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke { 1.0 } else { 20.0 }),
        sizes: if args.smoke {
            data::Sizes::SMOKE
        } else {
            data::Sizes::FULL
        },
        out_dir: args.out_dir.clone(),
        exe: std::env::current_exe().map_err(|e| format!("own path: {e}"))?,
    };
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let catalog: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };

    let mut all_correct = true;
    let mut documents = Vec::new();
    for spec in chosen {
        let mut sets = Vec::new();
        for _ in 0..args.sets {
            let outcome = if args.trace {
                run::run_traced(spec, &cfg)
            } else {
                run::run_untraced(spec, &cfg)
            }
            .map_err(|e| format!("{}: {e}", spec.name))?;
            for problem in &outcome.problems {
                eprintln!("qfbench: {}: {problem}", spec.name);
            }
            sets.push(outcome);
        }
        if args.trace {
            for name in EXACT {
                let values: Vec<f64> = sets
                    .iter()
                    .flat_map(|o| &o.metrics)
                    .filter(|(n, _)| *n == name)
                    .map(|(_, v)| *v)
                    .collect();
                if values.windows(2).any(|w| w[0] != w[1]) {
                    eprintln!(
                        "qfbench: {}: {name} differs across sets: {values:?}",
                        spec.name
                    );
                    all_correct = false;
                }
            }
        }
        all_correct &= sets.iter().all(|o| o.correct);
        // With --workload the line has exactly the four keys a harness
        // expects; a run of all four names each line's workload.
        let named = args.workload.is_none().then_some(spec);
        println!("{}", result_line(named, catalog, &sets));
        documents.push(Json::obj([
            ("name", Json::str(spec.name)),
            ("why", Json::str(spec.why)),
            ("clients", Json::Num(spec.clients as f64)),
            (
                "front",
                Json::str(format!("{:?}", spec.front).to_lowercase()),
            ),
            (
                "front_flags",
                Json::Arr(spec.front_flags.iter().copied().map(Json::str).collect()),
            ),
            (
                "worker_flags",
                Json::Arr(spec.worker_flags.iter().copied().map(Json::str).collect()),
            ),
            ("durable", Json::Bool(spec.durable)),
            (
                "sets",
                Json::Arr(sets.iter().map(|o| set_json(o, catalog)).collect()),
            ),
            ("summary", summary_json(catalog, &sets)),
            ("extra_summary", summary_json(&EXTRA, &sets)),
        ]));
    }
    let file = Json::obj([
        (
            "env",
            Json::obj([
                ("seed", Json::Num(cfg.seed as f64)),
                ("seconds", Json::Num(cfg.seconds)),
                ("traced", Json::Bool(args.trace)),
                (
                    "scale",
                    Json::str(if args.smoke { "smoke" } else { "full" }),
                ),
                ("sets", Json::Num(args.sets as f64)),
                ("nproc", Json::Num(nproc as f64)),
                (
                    "git_commit",
                    Json::str(command_line("git", &["rev-parse", "HEAD"])),
                ),
                ("rustc", Json::str(command_line("rustc", &["--version"]))),
            ]),
        ),
        ("workloads", Json::Arr(documents)),
    ]);
    let path = cfg.out_dir.join(if args.trace {
        "layers.json"
    } else {
        "run.json"
    });
    std::fs::write(&path, file.to_string()).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some(verb @ (cluster::SERVE_VERB | cluster::SHARD_VERB)) => {
            cluster::node_main(verb, &args[1..]).map(|()| true)
        }
        Some("run") => run(&args[1..]),
        Some("compare") if args.len() == 3 => compare::compare_files(&args[1], &args[2]),
        _ => Err(
            "usage: qfbench run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                  [--sets K] [--smoke] [--out-dir DIR]\n       qfbench compare A.json B.json"
                .to_string(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // The result lines are out and say what was wrong; `compare`
        // found a regression.
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("qfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what a harness reads; the catalogs in `run`
    /// and `workload` are what the binary prints. They must agree.
    #[test]
    fn benchmark_json_declares_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let declared = |group: &str| -> Vec<(String, String, bool, Option<f64>)> {
            doc.get(group)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap().to_string(),
                        m.get("unit").unwrap().as_str().unwrap().to_string(),
                        m.get("better").unwrap().as_str().unwrap() == "higher",
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let coded = |catalog: &[Metric]| -> Vec<(String, String, bool, Option<f64>)> {
            catalog
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string(), m.higher, m.bound))
                .collect()
        };
        assert_eq!(declared("end_to_end"), coded(&END_TO_END));
        assert_eq!(declared("per_layer"), coded(&PER_LAYER));
        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| {
                (
                    w.get("name").unwrap().as_str().unwrap(),
                    w.get("why").unwrap().as_str().unwrap(),
                )
            })
            .collect();
        assert_eq!(workloads, SPECS.map(|s| (s.name, s.why)));
        assert!(SPECS
            .iter()
            .all(|s| s.why.len() <= 200 && !s.why.contains('\n')));
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(20.0));
    }

    #[test]
    fn run_flags_are_checked() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let ok = parse_run_args(&args(&[
            "--workload",
            "live-ingest",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(ok.workload.unwrap().name, "live-ingest");
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, Some(3.0), true));
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--sets", "0"],
            &["--seed"],
            &["--frobnicate"],
        ] {
            assert!(parse_run_args(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
