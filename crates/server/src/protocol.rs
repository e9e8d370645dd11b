//! Request/response payloads inside the length-framed transport.
//!
//! A request payload is text: one header line (`<command> key=value …`),
//! then a blank line, then an optional body (flock text, TSV data).
//! A response payload is `ok` or `err <kind>` on the first line, a
//! one-line JSON meta object on the second, a blank line, and the body
//! (result TSV, message text, or error detail).

use std::fmt;
use std::time::Duration;

use qf_core::ExecContext;

use crate::error::{Result, ServerError};

/// Resource limits for one evaluation: the asks a request carries on
/// the wire (clamped by the admission controller to the server's
/// per-request caps), and the limits `qfsh` applies to its own runs.
/// [`RequestLimits::set`] is the one `key=value` grammar for both; the
/// [`Display`](fmt::Display) form is the wire form.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestLimits {
    /// Cap on tuples materialized.
    pub max_rows: Option<u64>,
    /// Cap on estimated bytes materialized.
    pub mem_budget: Option<u64>,
    /// Wall-clock deadline, milliseconds.
    pub timeout_ms: Option<u64>,
    /// Worker threads (clamped to the fair share the server grants).
    pub threads: Option<usize>,
}

impl RequestLimits {
    /// Set the limit `key` from `value`: `max-rows` and `mem-budget`
    /// take counts ([`parse_count`]), `timeout` a duration
    /// ([`parse_millis`]), `threads` a count of at least 1. Returns
    /// `Ok(false)` when `key` names no limit.
    pub fn set(&mut self, key: &str, value: &str) -> std::result::Result<bool, String> {
        match key {
            "max-rows" => self.max_rows = Some(parse_count(value)?),
            "mem-budget" => self.mem_budget = Some(parse_count(value)?),
            "timeout" => self.timeout_ms = Some(parse_millis(value)?),
            "threads" => {
                let n = usize::try_from(parse_count(value)?)
                    .map_err(|_| format!("thread count `{value}` too large"))?;
                if n == 0 {
                    return Err("threads must be at least 1".to_string());
                }
                self.threads = Some(n);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// True when no limit is set.
    pub fn is_unbounded(&self) -> bool {
        *self == RequestLimits::default()
    }

    /// A fresh execution context enforcing these limits; its deadline
    /// starts now.
    pub fn context(&self) -> ExecContext {
        let mut ctx = ExecContext::unbounded();
        if let Some(rows) = self.max_rows {
            ctx = ctx.with_max_rows(rows);
        }
        if let Some(bytes) = self.mem_budget {
            ctx = ctx.with_mem_budget(bytes);
        }
        if let Some(ms) = self.timeout_ms {
            ctx = ctx.with_timeout(Duration::from_millis(ms));
        }
        if let Some(n) = self.threads {
            ctx = ctx.with_threads(n);
        }
        ctx
    }
}

/// The set limits as space-separated `key=value` pairs, in the order
/// `max-rows mem-budget timeout threads`; empty when none is set.
impl fmt::Display for RequestLimits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pairs = [
            ("max-rows", self.max_rows),
            ("mem-budget", self.mem_budget),
            ("timeout", self.timeout_ms),
            ("threads", self.threads.map(|n| n as u64)),
        ];
        let mut sep = "";
        for (key, value) in pairs {
            if let Some(v) = value {
                write!(f, "{sep}{key}={v}")?;
                sep = " ";
            }
        }
        Ok(())
    }
}

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Generate a demo workload into the server catalog.
    Gen {
        /// Workload kind: `baskets|words|medical|web|graph`.
        kind: String,
        /// Generator seed.
        seed: u64,
    },
    /// Load a relation from TSV text (header line names it).
    Load {
        /// Full TSV content including the header line.
        tsv: String,
    },
    /// Stream a TSV delta into an existing relation (set-semantics
    /// union; the relation is created if absent). The header carries
    /// the target relation name redundantly with the TSV header line —
    /// the server cross-checks them, so a mis-framed body can never
    /// mutate the wrong relation.
    Append {
        /// Target relation name (must match the TSV header).
        rel: String,
        /// The delta as full TSV content including the header line.
        tsv: String,
        /// Fragment scope: `(frag index, expected post-delta fragment
        /// fingerprint)`. When set, the delta mutates the worker's
        /// fragment store instead of its master catalog; the worker
        /// verifies the resulting fragment fingerprint against the
        /// declared one and answers a typed `no-frag` on mismatch so a
        /// drifted replica is re-synced rather than silently diverging.
        frag: Option<(usize, u64)>,
    },
    /// Remove a TSV delta from an existing relation (set-semantics
    /// difference; tuples not present are ignored). Mirrors
    /// [`Request::Append`]: the header names the target relation
    /// redundantly with the TSV header line and the server cross-checks
    /// them, and the same optional fragment scope routes the delta to a
    /// worker-held fragment.
    Retract {
        /// Target relation name (must match the TSV header).
        rel: String,
        /// The delta as full TSV content including the header line.
        tsv: String,
        /// Fragment scope, as in [`Request::Append`].
        frag: Option<(usize, u64)>,
    },
    /// Evaluate a flock program.
    Flock {
        /// Program text (`[views…] QUERY: … FILTER: …`).
        text: String,
        /// Optional support-threshold override: replaces the filter's
        /// threshold, letting a client sweep thresholds over one body.
        support: Option<i64>,
        /// Per-request budgets.
        limits: RequestLimits,
    },
    /// Evaluate one scatter-gather `FILTER` step against this shard's
    /// catalog fragment and answer with the **scored** relation
    /// (`params… agg` TSV) instead of the thresholded flock result.
    /// The coordinator sends the step as an ordinary mini-flock program
    /// at a vacuous threshold, plus the step's already-merged upstream
    /// outputs as scratch relations (TSV, one per section).
    Partial {
        /// Mini-flock program text (`QUERY: … FILTER: <vacuous>`).
        text: String,
        /// Scratch relations as TSV text, inserted into a snapshot of
        /// the shard catalog before evaluation.
        scratch: Vec<String>,
        /// Per-request budgets (the coordinator forwards its remaining
        /// deadline and per-shard row/memory budgets here).
        limits: RequestLimits,
        /// The synced catalog **fragment** to evaluate against:
        /// `(fragment id, expected fragment fingerprint)`. Required — a
        /// `partial` without it is refused typed `proto`. A worker
        /// holding no such fragment — or a *stale* copy whose
        /// fingerprint disagrees — answers a typed `no-frag` error so
        /// the coordinator fails over to a replica rather than merging
        /// wrong bytes.
        frag: (usize, u64),
    },
    /// Replace one catalog fragment on a replica worker: the body is
    /// the fragment's relations as byte-framed TSV sections (the same
    /// framing `partial` uses for scratch). The worker re-assembles the
    /// fragment, verifies its catalog fingerprint against `fp`, and
    /// only then installs it — a corrupted or torn ship can never be
    /// served. Idempotent: syncing the same fragment twice is a no-op.
    Sync {
        /// Fragment id (index into the coordinator's partition map).
        frag: usize,
        /// Expected content-based catalog fingerprint of the fragment.
        fp: u64,
        /// Fragment relations as TSV text, one per section.
        relations: Vec<String>,
    },
    /// Canonicalize a flock program and return its fingerprint.
    Fingerprint {
        /// Program text.
        text: String,
    },
    /// Server-wide counters.
    Stats,
    /// Graceful shutdown: drain in-flight work, reject new requests.
    Shutdown,
}

impl Request {
    /// An `append` of `tsv` to relation `rel` — a `retract` when
    /// `retract` — on the master catalog, or on the worker-held fragment
    /// `frag` names.
    pub fn delta(rel: &str, tsv: &str, retract: bool, frag: Option<(usize, u64)>) -> Request {
        let (rel, tsv) = (rel.to_string(), tsv.to_string());
        if retract {
            Request::Retract { rel, tsv, frag }
        } else {
            Request::Append { rel, tsv, frag }
        }
    }

    /// Is this request safe to retry transparently after a failure that
    /// may or may not have reached the server? Reads (`ping`, `stats`,
    /// `fingerprint`, `flock`) and the idempotent `shutdown` flag are;
    /// catalog mutations (`load`, `gen`, `append`, `retract`) are **not** —
    /// replaying one after an ambiguous failure could double-apply it,
    /// so the retrying client surfaces the error instead (unless the
    /// server certified non-execution with a typed `proto`/`overloaded`
    /// response, which is safe for any request). `sync` *is* retryable:
    /// it replaces a fragment with fingerprint-verified content, so a
    /// replay lands the same bytes.
    pub fn is_idempotent(&self) -> bool {
        !matches!(
            self,
            Request::Load { .. }
                | Request::Gen { .. }
                | Request::Append { .. }
                | Request::Retract { .. }
        )
    }

    /// Render as a framed payload.
    pub fn render(&self) -> String {
        match self {
            Request::Ping => "ping\n\n".to_string(),
            Request::Gen { kind, seed } => format!("gen kind={kind} seed={seed}\n\n"),
            Request::Load { tsv } => format!("load\n\n{tsv}"),
            Request::Append { rel, tsv, frag } | Request::Retract { rel, tsv, frag } => {
                let verb = if matches!(self, Request::Append { .. }) {
                    "append"
                } else {
                    "retract"
                };
                let mut header = format!("{verb} rel={rel}");
                if let Some(scope) = frag {
                    push_frag(&mut header, *scope);
                }
                format!("{header}\n\n{tsv}")
            }
            Request::Flock {
                text,
                support,
                limits,
            } => {
                let mut header = "flock".to_string();
                if let Some(s) = support {
                    header.push_str(&format!(" support={s}"));
                }
                push_limits(&mut header, limits);
                format!("{header}\n\n{text}")
            }
            Request::Partial {
                text,
                scratch,
                limits,
                frag,
            } => {
                // Sections (program text, then each scratch TSV) are
                // byte-concatenated and framed by explicit lengths in
                // the header: TSV bodies may themselves contain blank
                // lines, so a separator convention cannot work.
                let mut header = "partial".to_string();
                let mut parts: Vec<String> = vec![text.len().to_string()];
                parts.extend(scratch.iter().map(|s| s.len().to_string()));
                header.push_str(&format!(" parts={}", parts.join(",")));
                push_frag(&mut header, *frag);
                push_limits(&mut header, limits);
                let mut body = text.clone();
                for s in scratch {
                    body.push_str(s);
                }
                format!("{header}\n\n{body}")
            }
            Request::Sync {
                frag,
                fp,
                relations,
            } => {
                let lens: Vec<String> = relations.iter().map(|s| s.len().to_string()).collect();
                let header = format!("sync frag={frag} fp={fp} parts={}", lens.join(","));
                let body: String = relations.concat();
                format!("{header}\n\n{body}")
            }
            Request::Fingerprint { text } => format!("fingerprint\n\n{text}"),
            Request::Stats => "stats\n\n".to_string(),
            Request::Shutdown => "shutdown\n\n".to_string(),
        }
    }

    /// Parse a framed payload.
    pub fn parse(payload: &str) -> Result<Request> {
        let (header, body) = split_payload(payload);
        let mut parts = header.split_whitespace();
        let cmd = parts.next().unwrap_or("");
        let kv = |parts: std::str::SplitWhitespace<'_>| -> Result<Vec<(String, String)>> {
            parts
                .map(|p| {
                    p.split_once('=')
                        .map(|(k, v)| (k.to_string(), v.to_string()))
                        .ok_or_else(|| ServerError::Proto(format!("expected key=value, got `{p}`")))
                })
                .collect()
        };
        match cmd {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            "load" => Ok(Request::Load {
                tsv: body.to_string(),
            }),
            "append" | "retract" => {
                let mut keys = kv(parts)?;
                let frag = take_frag(&mut keys, cmd)?;
                let mut rel = None;
                for (k, v) in keys {
                    match k.as_str() {
                        "rel" => rel = Some(v),
                        other => {
                            return Err(ServerError::Proto(format!("unknown {cmd} key `{other}`")))
                        }
                    }
                }
                let rel = rel.ok_or_else(|| ServerError::Proto(format!("{cmd} needs rel=…")))?;
                Ok(Request::delta(&rel, body, cmd == "retract", frag))
            }
            "fingerprint" => Ok(Request::Fingerprint {
                text: body.to_string(),
            }),
            "gen" => {
                let mut kind = None;
                let mut seed = 1u64;
                for (k, v) in kv(parts)? {
                    match k.as_str() {
                        "kind" => kind = Some(v),
                        "seed" => seed = parse_u64(&v)?,
                        other => {
                            return Err(ServerError::Proto(format!("unknown gen key `{other}`")))
                        }
                    }
                }
                Ok(Request::Gen {
                    kind: kind.ok_or_else(|| ServerError::Proto("gen needs kind=…".into()))?,
                    seed,
                })
            }
            "flock" => {
                let mut support = None;
                let mut limits = RequestLimits::default();
                for (k, v) in kv(parts)? {
                    match k.as_str() {
                        "support" => {
                            support =
                                Some(v.parse::<i64>().map_err(|_| {
                                    ServerError::Proto(format!("bad support `{v}`"))
                                })?)
                        }
                        other if limits.set(other, &v).map_err(ServerError::Proto)? => {}
                        other => {
                            return Err(ServerError::Proto(format!("unknown flock key `{other}`")))
                        }
                    }
                }
                Ok(Request::Flock {
                    text: body.to_string(),
                    support,
                    limits,
                })
            }
            "partial" => {
                let mut keys = kv(parts)?;
                let frag = take_frag(&mut keys, cmd)?.ok_or_else(|| {
                    ServerError::Proto("partial needs frag=… and frag-fp=…".into())
                })?;
                let mut lens: Option<Vec<usize>> = None;
                let mut limits = RequestLimits::default();
                for (k, v) in keys {
                    match k.as_str() {
                        "parts" => lens = Some(parse_lens(&v)?),
                        other if limits.set(other, &v).map_err(ServerError::Proto)? => {}
                        other => {
                            return Err(ServerError::Proto(format!(
                                "unknown partial key `{other}`"
                            )))
                        }
                    }
                }
                let lens =
                    lens.ok_or_else(|| ServerError::Proto("partial needs parts=…".into()))?;
                if lens.is_empty() {
                    return Err(ServerError::Proto("partial needs at least one part".into()));
                }
                let mut sections = split_sections(&lens, body)?;
                let text = sections.remove(0);
                Ok(Request::Partial {
                    text,
                    scratch: sections,
                    limits,
                    frag,
                })
            }
            "sync" => {
                let mut frag = None;
                let mut fp = None;
                let mut lens: Option<Vec<usize>> = None;
                for (k, v) in kv(parts)? {
                    match k.as_str() {
                        "frag" => frag = Some(parse_u64(&v)? as usize),
                        "fp" => fp = Some(parse_u64(&v)?),
                        "parts" => lens = Some(parse_lens(&v)?),
                        other => {
                            return Err(ServerError::Proto(format!("unknown sync key `{other}`")))
                        }
                    }
                }
                let lens = lens.ok_or_else(|| ServerError::Proto("sync needs parts=…".into()))?;
                Ok(Request::Sync {
                    frag: frag.ok_or_else(|| ServerError::Proto("sync needs frag=…".into()))?,
                    fp: fp.ok_or_else(|| ServerError::Proto("sync needs fp=…".into()))?,
                    relations: split_sections(&lens, body)?,
                })
            }
            other => Err(ServerError::Proto(format!("unknown command `{other}`"))),
        }
    }
}

/// A response: either `ok` with meta JSON + body, or a typed error.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Success.
    Ok {
        /// One-line JSON meta object (request accounting).
        meta: String,
        /// Body text (result TSV, message, …).
        body: String,
    },
    /// Typed failure.
    Err {
        /// Stable error kind token (see [`ServerError::kind`]).
        kind: String,
        /// Human-readable detail.
        detail: String,
    },
}

impl Response {
    /// Build the error response for a [`ServerError`].
    pub fn from_error(e: &ServerError) -> Response {
        Response::Err {
            kind: e.kind().to_string(),
            detail: e.to_string(),
        }
    }

    /// Render as a framed payload.
    pub fn render(&self) -> String {
        match self {
            Response::Ok { meta, body } => format!("ok\n{meta}\n\n{body}"),
            Response::Err { kind, detail } => format!("err {kind}\n{{}}\n\n{detail}"),
        }
    }

    /// Parse a framed payload (client side).
    pub fn parse(payload: &str) -> Result<Response> {
        let (status_meta, body) = split_payload(payload);
        let (status, meta) = match status_meta.split_once('\n') {
            Some((s, m)) => (s.trim_end(), m.trim()),
            None => (status_meta.trim_end(), "{}"),
        };
        if status == "ok" {
            Ok(Response::Ok {
                meta: meta.to_string(),
                body: body.to_string(),
            })
        } else if let Some(kind) = status.strip_prefix("err ") {
            Ok(Response::Err {
                kind: kind.trim().to_string(),
                detail: body.to_string(),
            })
        } else {
            Err(ServerError::Proto(format!(
                "bad response status line `{status}`"
            )))
        }
    }

    /// True for `ok` responses.
    pub fn is_ok(&self) -> bool {
        matches!(self, Response::Ok { .. })
    }
}

/// Split a payload at the first blank line into (header part, body).
fn split_payload(payload: &str) -> (&str, &str) {
    match payload.split_once("\n\n") {
        Some((h, b)) => (h, b),
        None => (payload.trim_end_matches('\n'), ""),
    }
}

fn parse_u64(v: &str) -> Result<u64> {
    v.parse()
        .map_err(|_| ServerError::Proto(format!("bad number `{v}`")))
}

/// Append ` key=value` for each set limit to a request header.
fn push_limits(header: &mut String, limits: &RequestLimits) {
    if !limits.is_unbounded() {
        header.push_str(&format!(" {limits}"));
    }
}

/// Parse a non-negative count, accepting decimal `k`/`m`/`g` suffixes
/// (`64k` = 64 000).
pub fn parse_count(value: &str) -> std::result::Result<u64, String> {
    let (digits, mult) = match value.to_ascii_lowercase() {
        v if v.ends_with('k') => (v.len() - 1, 1_000u64),
        v if v.ends_with('m') => (v.len() - 1, 1_000_000),
        v if v.ends_with('g') => (v.len() - 1, 1_000_000_000),
        v => (v.len(), 1),
    };
    value[..digits]
        .parse::<u64>()
        .map_err(|_| format!("bad number `{value}`"))?
        .checked_mul(mult)
        .ok_or_else(|| format!("number `{value}` too large"))
}

/// Parse a duration in milliseconds, accepting `ms` or `s` suffixes.
pub fn parse_millis(value: &str) -> std::result::Result<u64, String> {
    let lower = value.to_ascii_lowercase();
    if let Some(v) = lower.strip_suffix("ms") {
        v.parse().map_err(|_| format!("bad duration `{value}`"))
    } else if let Some(v) = lower.strip_suffix('s') {
        v.parse::<u64>()
            .map_err(|_| format!("bad duration `{value}`"))?
            .checked_mul(1000)
            .ok_or_else(|| format!("duration `{value}` too large"))
    } else {
        lower.parse().map_err(|_| format!("bad duration `{value}`"))
    }
}

/// Append a fragment scope's ` frag=… frag-fp=…` to a request header.
fn push_frag(header: &mut String, (frag, fp): (usize, u64)) {
    header.push_str(&format!(" frag={frag} frag-fp={fp}"));
}

/// Take the `frag=`/`frag-fp=` pair out of a header's keys — both keys
/// or neither, so a half-specified scope fails typed instead of
/// silently addressing the wrong store.
fn take_frag(keys: &mut Vec<(String, String)>, verb: &str) -> Result<Option<(usize, u64)>> {
    let mut take = |key: &str| {
        let at = keys.iter().position(|(k, _)| k == key)?;
        Some(keys.remove(at).1)
    };
    match (take("frag"), take("frag-fp")) {
        (Some(id), Some(fp)) => Ok(Some((parse_u64(&id)? as usize, parse_u64(&fp)?))),
        (None, None) => Ok(None),
        _ => Err(ServerError::Proto(format!(
            "{verb} frag= and frag-fp= must appear together"
        ))),
    }
}

/// Parse a `parts=len,len,…` section-length list. An empty value is an
/// empty list — `sync` ships empty fragments (a hash partition can
/// leave a fragment with no relations at all) as `parts=` with no body.
fn parse_lens(v: &str) -> Result<Vec<usize>> {
    if v.is_empty() {
        return Ok(Vec::new());
    }
    v.split(',')
        .map(|p| {
            p.parse::<usize>()
                .map_err(|_| ServerError::Proto(format!("bad part length `{p}`")))
        })
        .collect()
}

/// Cut `body` into sections of the given byte lengths; the lengths must
/// cover the body exactly.
fn split_sections(lens: &[usize], body: &str) -> Result<Vec<String>> {
    let mut sections = Vec::with_capacity(lens.len());
    let mut at = 0usize;
    for len in lens {
        let end = at.checked_add(*len).filter(|&e| e <= body.len());
        let section = end.and_then(|e| body.get(at..e)).ok_or_else(|| {
            ServerError::Proto(format!("parts overrun the {}-byte body", body.len()))
        })?;
        sections.push(section.to_string());
        at += len;
    }
    if at != body.len() {
        return Err(ServerError::Proto(format!(
            "parts cover {at} of {} body bytes",
            body.len()
        )));
    }
    Ok(sections)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let reqs = [
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Gen {
                kind: "baskets".into(),
                seed: 7,
            },
            Request::Load {
                tsv: "r\ta\n1\n".into(),
            },
            Request::Append {
                rel: "r".into(),
                tsv: "r\ta\n2\n".into(),
                frag: None,
            },
            Request::Append {
                rel: "r".into(),
                tsv: "r\ta\n2\n".into(),
                frag: Some((1, 0xdead)),
            },
            Request::Retract {
                rel: "r".into(),
                tsv: "r\ta\n2\n".into(),
                frag: None,
            },
            Request::Retract {
                rel: "r".into(),
                tsv: "r\ta\n2\n".into(),
                frag: Some((0, 77)),
            },
            Request::Fingerprint {
                text: "QUERY: answer(B) :- r(B,$1) FILTER: COUNT(answer.B) >= 2".into(),
            },
            Request::Flock {
                text: "QUERY: answer(B) :- r(B,$1) FILTER: COUNT(answer.B) >= 2".into(),
                support: Some(5),
                limits: RequestLimits {
                    max_rows: Some(1000),
                    mem_budget: None,
                    timeout_ms: Some(250),
                    threads: Some(2),
                },
            },
        ];
        for req in reqs {
            let parsed = Request::parse(&req.render()).unwrap();
            assert_eq!(parsed, req);
        }
        // Every combination of set and unset limits, on both verbs that
        // carry them.
        for mask in 0..16u8 {
            let limits = RequestLimits {
                max_rows: (mask & 1 != 0).then_some(64_000),
                mem_budget: (mask & 2 != 0).then_some(1 << 20),
                timeout_ms: (mask & 4 != 0).then_some(2_000),
                threads: (mask & 8 != 0).then_some(3),
            };
            let flock = Request::Flock {
                text: "QUERY: …".into(),
                support: None,
                limits,
            };
            let partial = Request::Partial {
                text: "QUERY: …".into(),
                scratch: vec![],
                limits,
                frag: (1, 2),
            };
            for req in [flock, partial] {
                assert_eq!(Request::parse(&req.render()).unwrap(), req, "{mask}");
            }
        }
    }

    /// Headers take the shell's suffixes and its `threads` floor.
    #[test]
    fn limit_values_share_the_shell_grammar() {
        let Request::Flock { limits, .. } =
            Request::parse("flock max-rows=64k mem-budget=1m timeout=2s threads=4\n\nQ").unwrap()
        else {
            panic!("not a flock");
        };
        assert_eq!(
            limits.to_string(),
            "max-rows=64000 mem-budget=1000000 timeout=2000 threads=4"
        );
        assert!(Request::parse("flock threads=0\n\nQ").is_err());
        assert!(Request::parse("partial parts=1 frag=0 frag-fp=1 threads=0\n\nQ").is_err());
        assert!(Request::parse("flock timeout=soon\n\nQ").is_err());
    }

    /// The request headers a client sends with every limit set: these
    /// bytes are the wire format and must not drift.
    #[test]
    fn limit_headers_are_pinned() {
        let limits = RequestLimits {
            max_rows: Some(1000),
            mem_budget: Some(2048),
            timeout_ms: Some(250),
            threads: Some(2),
        };
        let flock = Request::Flock {
            text: "QUERY: q".into(),
            support: Some(5),
            limits,
        };
        assert_eq!(
            flock.render(),
            "flock support=5 max-rows=1000 mem-budget=2048 timeout=250 threads=2\n\nQUERY: q"
        );
        let partial = Request::Partial {
            text: "QUERY: q".into(),
            scratch: vec!["aux\tq\n".into()],
            limits,
            frag: (3, 9),
        };
        assert_eq!(
            partial.render(),
            "partial parts=8,6 frag=3 frag-fp=9 max-rows=1000 mem-budget=2048 timeout=250 \
             threads=2\n\nQUERY: qaux\tq\n"
        );
    }

    #[test]
    fn response_roundtrip() {
        let ok = Response::Ok {
            meta: "{\"results\":1}".into(),
            body: "flock_result\tm\ts\nzorix\tache\n".into(),
        };
        assert_eq!(Response::parse(&ok.render()).unwrap(), ok);
        let err = Response::Err {
            kind: "overloaded".into(),
            detail: "server overloaded: 4 request(s) queued (capacity 4)".into(),
        };
        assert_eq!(Response::parse(&err.render()).unwrap(), err);
    }

    #[test]
    fn partial_roundtrip_with_blank_lines_in_scratch() {
        let req = Request::Partial {
            text: "QUERY: answer(B) :- r(B,$1) FILTER: COUNT(answer.B) >= -9\n".into(),
            scratch: vec![
                // Scratch TSVs may contain blank lines — byte framing
                // must carry them through untouched.
                "ok\tp\nbeer\n\nwine\n".into(),
                "aux\tq\n".into(),
            ],
            limits: RequestLimits {
                max_rows: Some(10),
                mem_budget: None,
                timeout_ms: Some(500),
                threads: None,
            },
            frag: (0, 7),
        };
        assert_eq!(Request::parse(&req.render()).unwrap(), req);
        assert!(req.is_idempotent());
        // No scratch at all is fine too, and the fragment scope carries
        // (id, expected fingerprint) at full width.
        let bare = Request::Partial {
            text: "QUERY: …".into(),
            scratch: vec![],
            limits: RequestLimits::default(),
            frag: (3, 0xdead_beef_u64),
        };
        assert_eq!(Request::parse(&bare.render()).unwrap(), bare);
    }

    #[test]
    fn sync_roundtrip() {
        let req = Request::Sync {
            frag: 1,
            fp: 987654321,
            relations: vec![
                // TSV sections with embedded blank lines survive the
                // byte framing, like partial scratch.
                "baskets\tbid\titem\n1\tale\n\n2\tbrie\n".into(),
                "dict\tw\n".into(),
            ],
        };
        assert_eq!(Request::parse(&req.render()).unwrap(), req);
        assert!(req.is_idempotent());
        // An empty fragment ships as parts= with no body.
        let empty = Request::Sync {
            frag: 0,
            fp: 42,
            relations: vec![],
        };
        assert_eq!(Request::parse(&empty.render()).unwrap(), empty);
    }

    #[test]
    fn malformed_requests_rejected() {
        assert!(Request::parse("bogus\n\n").is_err());
        assert!(Request::parse("gen seed=1\n\n").is_err()); // missing kind
        assert!(Request::parse("append\n\nr\ta\n1\n").is_err()); // missing rel
        assert!(Request::parse("append rel=r bogus=1\n\nr\ta\n").is_err());
        assert!(Request::parse("retract\n\nr\ta\n1\n").is_err()); // missing rel
        assert!(Request::parse("retract rel=r bogus=1\n\nr\ta\n").is_err());
        assert!(Request::parse("flock support=abc\n\nQUERY: …").is_err());
        assert!(Request::parse("flock rows\n\n").is_err()); // not key=value
        assert!(Request::parse("partial frag=0 frag-fp=1\n\nbody").is_err()); // missing parts
        assert!(Request::parse("partial parts=99 frag=0 frag-fp=1\n\nshort").is_err()); // overrun
        assert!(Request::parse("partial parts=2 frag=0 frag-fp=1\n\nlonger body").is_err()); // leftover bytes
        assert!(Request::parse("partial parts=x frag=0 frag-fp=1\n\nbody").is_err()); // bad length
        assert!(Request::parse("partial parts=4\n\nbody").is_err()); // no fragment scope
        assert!(Request::parse("partial parts=4 frag=0\n\nbody").is_err()); // frag sans fp
        assert!(Request::parse("partial parts=4 frag-fp=9\n\nbody").is_err()); // fp sans frag
        assert!(Request::parse("append rel=r frag=0\n\nr\ta\n").is_err()); // frag sans fp
        assert!(Request::parse("retract rel=r frag-fp=9\n\nr\ta\n").is_err()); // fp sans frag
        assert!(Request::parse("sync fp=1 parts=\n\n").is_err()); // missing frag
        assert!(Request::parse("sync frag=0 parts=\n\n").is_err()); // missing fp
        assert!(Request::parse("sync frag=0 fp=1\n\n").is_err()); // missing parts
        assert!(Request::parse("sync frag=0 fp=1 parts=9\n\nshort").is_err()); // overrun
    }
}
