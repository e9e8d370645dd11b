//! Starting and stopping a workload's servers.
//!
//! The untraced run hosts every node as a **separate process**: this
//! binary re-executes itself into `qf_cli::serve_main` /
//! `qf_cli::shard_main`, exactly what `qfsh serve` / `qfsh shard` run.
//! The traced run hosts the same topology in this process so it can
//! wrap each node's request handler in spans (see `trace`).

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qf_server::{Client, ClientConfig, Response};

use crate::trace::{self, Tracer};
use crate::workload::{Front, Spec};

/// How long a node may take to drain and exit once asked to.
const NODE_PATIENCE: Duration = Duration::from_secs(20);

/// Hidden subcommands the binary re-executes itself into.
pub const SERVE_VERB: &str = "__serve";
pub const SHARD_VERB: &str = "__shard";

/// Entry point of a re-executed node: run the product's own server main
/// until a client sends `shutdown`. The parent keeps our stdin open and
/// never writes to it, so end-of-file there means the parent is gone
/// (killed by a time limit, say) and nobody is left to shut us down.
pub fn node_main(verb: &str, args: &[String]) -> Result<(), String> {
    std::thread::spawn(|| {
        let mut sink = [0u8; 64];
        let mut stdin = std::io::stdin();
        while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
        std::process::exit(3);
    });
    match verb {
        SERVE_VERB => qf_cli::serve_main(args),
        _ => qf_cli::shard_main(args),
    }
    .map(|_| ())
}

pub enum Host {
    /// Every node is a child process running `exe`.
    Processes { exe: PathBuf },
    /// Every node is a server thread group in this process, its
    /// handler wrapped in spans.
    InProcess { tracer: Arc<Tracer> },
}

enum Node {
    Child {
        child: Child,
        /// Held so the node's few start-up lines never hit a closed
        /// pipe; nothing is read after the address.
        _stdout: BufReader<ChildStdout>,
    },
    Local(qf_server::Server),
}

pub struct Cluster {
    /// Where clients connect.
    pub addr: String,
    /// Fronting node first; each with the address that shuts it down.
    nodes: Vec<(String, Node)>,
}

fn spawn_node(exe: &Path, verb: &str, flags: &[String]) -> Result<(String, Node), String> {
    let mut child = Command::new(exe)
        .arg(verb)
        .args(["--addr", "127.0.0.1:0"])
        .args(flags)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    // `qf-server listening on ADDR` / `qf-shard coordinator on ADDR (…)`,
    // possibly after a data-dir recovery line.
    let mut line = String::new();
    let addr = loop {
        line.clear();
        match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("`{verb}` node exited before printing its address"));
            }
        }
        let after = ["listening on ", "coordinator on "]
            .iter()
            .find_map(|marker| line.split_once(marker).map(|(_, rest)| rest));
        if let Some(rest) = after {
            break rest.split_whitespace().next().unwrap_or("").to_string();
        }
    };
    Ok((
        addr,
        Node::Child {
            child,
            _stdout: stdout,
        },
    ))
}

impl Cluster {
    /// Start `spec`'s topology with empty catalogs. `data_dir` is where
    /// a durable front keeps its WAL (fresh per call).
    pub fn start(spec: &Spec, host: &Host, data_dir: &Path) -> Result<Cluster, String> {
        let mut cluster = Cluster {
            addr: String::new(),
            nodes: Vec::new(),
        };
        let owned = |flags: &[&str]| flags.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let mut front_flags = owned(spec.front_flags);
        if spec.durable {
            front_flags.extend(["--data-dir".to_string(), data_dir.display().to_string()]);
        }
        // Workers first: the coordinator dials them at start-up. On any
        // failure `cluster` drops and takes the started nodes with it.
        if spec.front == Front::Shard {
            for _ in 0..2 {
                let worker_flags = owned(spec.worker_flags);
                let node = match host {
                    Host::Processes { exe } => spawn_node(exe, SERVE_VERB, &worker_flags)?,
                    Host::InProcess { tracer } => {
                        local(trace::serve_local(&worker_flags, tracer, true)?)
                    }
                };
                cluster.nodes.push(node);
            }
            let addrs: Vec<&str> = cluster.nodes.iter().map(|(a, _)| a.as_str()).collect();
            front_flags.extend(["--shards".to_string(), addrs.join(",")]);
        }
        let front = match (host, spec.front) {
            (Host::Processes { exe }, Front::Serve) => spawn_node(exe, SERVE_VERB, &front_flags)?,
            (Host::Processes { exe }, Front::Shard) => spawn_node(exe, SHARD_VERB, &front_flags)?,
            (Host::InProcess { tracer }, Front::Serve) => {
                local(trace::serve_local(&front_flags, tracer, false)?)
            }
            (Host::InProcess { tracer }, Front::Shard) => {
                local(trace::shard_local(&front_flags, tracer)?)
            }
        };
        cluster.addr = front.0.clone();
        cluster.nodes.insert(0, front);
        Ok(cluster)
    }

    pub fn connect(&self) -> Result<Client, String> {
        connect(&self.addr)
    }

    /// Sum of the server processes' peak resident sets (`VmHWM`), MB.
    /// In-process nodes have no resident set of their own and read 0.
    pub fn peak_rss_mb(&self) -> f64 {
        let kb: f64 = self
            .nodes
            .iter()
            .filter_map(|(_, node)| match node {
                Node::Child { child, .. } => {
                    std::fs::read_to_string(format!("/proc/{}/status", child.id())).ok()
                }
                Node::Local(_) => None,
            })
            .filter_map(|status| {
                status
                    .lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
            .sum();
        kb / 1024.0
    }

    /// Drain and stop every node, front first, and wait until each has
    /// ended.
    pub fn stop(mut self) -> Result<(), String> {
        let mut problems = Vec::new();
        for (addr, node) in self.nodes.drain(..) {
            match node {
                Node::Child { mut child, _stdout } => {
                    // A coordinator passes `shutdown` on to its workers,
                    // so a worker may already be gone: what counts is
                    // that the process ends cleanly, not who asked.
                    let _ = connect(&addr).and_then(|mut c| request_ok(c.shutdown()));
                    let deadline = Instant::now() + NODE_PATIENCE;
                    let drained = loop {
                        match child.try_wait() {
                            Ok(Some(status)) => break status.success(),
                            Ok(None) if Instant::now() < deadline => {
                                std::thread::sleep(Duration::from_millis(2))
                            }
                            _ => {
                                let _ = child.kill();
                                let _ = child.wait();
                                break false;
                            }
                        }
                    };
                    if !drained {
                        problems.push(format!("node {addr} did not drain and exit cleanly"));
                    }
                }
                Node::Local(server) => {
                    server.shutdown();
                    server.join();
                }
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

impl Drop for Cluster {
    /// The error path: whatever is still running is killed and reaped.
    fn drop(&mut self) {
        for (_, node) in self.nodes.drain(..) {
            match node {
                Node::Child { mut child, .. } => {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                Node::Local(server) => {
                    server.shutdown();
                    server.join();
                }
            }
        }
    }
}

fn local(server: qf_server::Server) -> (String, Node) {
    (server.addr().to_string(), Node::Local(server))
}

pub fn connect(addr: &str) -> Result<Client, String> {
    Client::connect_with(addr, ClientConfig::default()).map_err(|e| format!("connect {addr}: {e}"))
}

/// Flatten a client call into `(meta, body)` or the failure as text.
pub fn request_ok(outcome: qf_server::Result<Response>) -> Result<(String, String), String> {
    match outcome {
        Ok(Response::Ok { meta, body }) => Ok((meta, body)),
        Ok(Response::Err { kind, detail }) => Err(format!("{kind}: {detail}")),
        Err(e) => Err(e.to_string()),
    }
}
