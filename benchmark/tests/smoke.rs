//! The whole benchmark at smoke scale: every workload, servers as real
//! child processes, oracle on — untraced, then traced.

use std::process::Command;

/// Run `qfbench run --smoke …` and return the result line of each
/// workload, parsed just enough to assert on.
fn smoke(trace: &str, out_dir: &std::path::Path) -> Vec<String> {
    let output = Command::new(env!("CARGO_BIN_EXE_qfbench"))
        .args([
            "run",
            "--smoke",
            "--seed",
            "11",
            "--trace",
            trace,
            "--out-dir",
        ])
        .arg(out_dir)
        .output()
        .expect("qfbench runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "qfbench failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout.lines().map(String::from).collect()
}

fn out_dir(tag: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(tag)
}

#[test]
fn all_four_workloads_answer_correctly() {
    let dir = out_dir("untraced");
    let lines = smoke("0", &dir);
    assert_eq!(lines.len(), 4, "{lines:?}");
    for (line, name) in lines.iter().zip([
        "cold-mine",
        "warm-dashboard",
        "live-ingest",
        "shard-scatter",
    ]) {
        assert!(
            line.contains(&format!("\"workload\": \"{name}\"")),
            "{line}"
        );
        assert!(line.contains("\"correct\": true"), "{line}");
        assert!(line.contains("\"failed\": 0"), "{line}");
        for metric in ["ops_per_s", "p50_ms", "p95_ms", "peak_rss_mb", "setup_s"] {
            assert!(
                line.contains(&format!("\"{metric}\": {{\"value\": ")),
                "{metric} in {line}"
            );
        }
    }
    let run_file = std::fs::read_to_string(dir.join("run.json")).expect("run file written");
    for key in [
        "\"git_commit\"",
        "\"rustc\"",
        "\"nproc\"",
        "\"front_flags\"",
        "\"tuples\"",
        "\"input_digest\"",
    ] {
        assert!(run_file.contains(key), "{key} missing from run.json");
    }
    // No temporary directory outlives the run.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("tmp-"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");
}

#[test]
fn traced_run_reports_every_layer_and_writes_spans() {
    let dir = out_dir("traced");
    let lines = smoke("1", &dir);
    assert_eq!(lines.len(), 4, "{lines:?}");
    for line in &lines {
        assert!(line.contains("\"correct\": true"), "{line}");
        for metric in [
            "datalog.parse_us",
            "exec.rows",
            "net.overhead_us",
            "shard.scatter_ms",
            "trace.overhead_frac",
        ] {
            assert!(
                line.contains(&format!("\"{metric}\"")),
                "{metric} in {line}"
            );
        }
    }
    for name in [
        "cold-mine",
        "warm-dashboard",
        "live-ingest",
        "shard-scatter",
    ] {
        let trace =
            std::fs::read_to_string(dir.join(format!("trace-{name}.json"))).expect("trace written");
        assert!(trace.contains("\"client.request\""), "{name}");
        let handler = if name == "live-ingest" {
            "\"handler.append\""
        } else {
            "\"handler.flock\""
        };
        assert!(trace.contains(handler), "{name}");
    }
    let shard = std::fs::read_to_string(dir.join("trace-shard-scatter.json")).unwrap();
    assert!(shard.contains("\"worker.partial\""));
}
