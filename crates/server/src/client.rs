//! A blocking, optionally *retrying* client for the framed protocol —
//! used by `qfsh client` and the integration tests.
//!
//! The retry policy is deliberately conservative about what it replays:
//!
//! * **Typed retryable responses** (`overloaded`, `timeout`, `proto`,
//!   `shard-lost`, `shutting-down` — see
//!   [`ServerError::retryable_kind`]) certify the request did not
//!   execute (or is safe to repeat), so they are retried for *any*
//!   request, including mutations. `overloaded` and `shutting-down`
//!   rejections carry a `retry-after-ms` hint, honored by sleeping the
//!   longer of the hint and our own backoff.
//! * **Transport failures** (reset, timeout, corrupt frame) after the
//!   request may have reached the server are ambiguous: they are
//!   retried only for idempotent requests ([`Request::is_idempotent`]).
//!   Replaying a `load`/`gen`/`append`/`retract` after an ambiguous failure
//!   could double-apply it, so the error surfaces instead.
//!
//! Backoff is bounded exponential with deterministic jitter (splitmix64
//! over the attempt counter — no `rand` dependency), and every
//! reconnect goes through a pluggable transport factory so the chaos
//! tests can interpose [`crate::transport::NetChaos`] on each attempt.

use std::net::TcpStream;
use std::time::Duration;

use crate::error::{Result, ServerError};
use crate::frame::{is_corruption, read_frame, write_frame};
use crate::protocol::{Request, RequestLimits, Response};
use crate::transport::Transport;
use qf_storage::splitmix64;

/// Client-side robustness knobs.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-read/write stall bound on an established connection.
    /// `None` = block forever (only sensible for interactive use).
    pub io_timeout: Option<Duration>,
    /// Retry attempts *after* the first try (0 = fail fast).
    pub retries: u32,
    /// Base backoff delay; attempt `k` sleeps about `base * 2^k` plus
    /// jitter, capped at [`ClientConfig::backoff_cap`].
    pub backoff_base: Duration,
    /// Ceiling on a single backoff sleep.
    pub backoff_cap: Duration,
    /// Seed for the deterministic jitter stream (tests pin it).
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            io_timeout: Some(Duration::from_secs(30)),
            retries: 0,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            jitter_seed: 0x9e3779b97f4a7c15,
        }
    }
}

/// Counters a retrying session accumulates, for the client-side report.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientStats {
    /// Requests retried (each extra attempt counts once).
    pub retries: u64,
    /// Reconnects performed (failed transport replaced).
    pub reconnects: u64,
}

/// Builds a fresh transport per (re)connect. The default dials TCP;
/// chaos tests substitute a factory that wraps each socket in a
/// [`crate::transport::ChaosNet`] drawing from one shared fault stream.
pub type TransportFactory = Box<dyn FnMut() -> Result<Box<dyn Transport>> + Send>;

/// One logical session with a `qf-server`. Requests are strictly
/// sequential (the protocol has no request IDs); open more clients for
/// concurrency. The underlying connection may be torn down and redialed
/// transparently between attempts.
pub struct Client {
    factory: TransportFactory,
    conn: Option<Box<dyn Transport>>,
    config: ClientConfig,
    stats: ClientStats,
}

fn dial(addr: &str, config: &ClientConfig) -> Result<Box<dyn Transport>> {
    // connect_timeout needs a resolved SocketAddr; fall back to the
    // plain blocking connect if resolution yields nothing.
    let io = |e: std::io::Error| ServerError::Io(e.to_string());
    let mut addrs = std::net::ToSocketAddrs::to_socket_addrs(addr).map_err(io)?;
    let first = addrs
        .next()
        .ok_or_else(|| ServerError::Io(format!("address `{addr}` resolved to nothing")))?;
    let stream = TcpStream::connect_timeout(&first, config.connect_timeout).map_err(io)?;
    let mut t: Box<dyn Transport> = Box::new(stream);
    t.set_read_timeout(config.io_timeout).map_err(io)?;
    t.set_write_timeout(config.io_timeout).map_err(io)?;
    Ok(t)
}

impl Client {
    /// Connect to a server address like `127.0.0.1:7447` with default
    /// (non-retrying) behavior.
    pub fn connect(addr: &str) -> Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit robustness knobs.
    pub fn connect_with(addr: &str, config: ClientConfig) -> Result<Client> {
        let addr = addr.to_string();
        let factory_config = config.clone();
        Client::connect_via(Box::new(move || dial(&addr, &factory_config)), config)
    }

    /// Connect through a custom transport factory (chaos tests, in-proc
    /// loopbacks). The factory is invoked once immediately and again on
    /// every reconnect.
    pub fn connect_via(mut factory: TransportFactory, config: ClientConfig) -> Result<Client> {
        let conn = factory()?;
        Ok(Client {
            factory,
            conn: Some(conn),
            config,
            stats: ClientStats::default(),
        })
    }

    /// Retry/reconnect counters accumulated by this session (the
    /// client-side half of the robustness report; server-side counters
    /// come from [`Client::stats`]).
    pub fn session_stats(&self) -> ClientStats {
        self.stats
    }

    /// Send one request and read its response, retrying per the
    /// configured policy. Typed error *responses* come back as
    /// `Ok(Response::Err{..})` once retries are exhausted (or
    /// immediately when not retryable); transport-level failures come
    /// back as `Err`.
    pub fn request(&mut self, req: &Request) -> Result<Response> {
        let mut attempt: u32 = 0;
        loop {
            let outcome = self.try_once(req);
            let retryable = match &outcome {
                Ok(Response::Err { kind, .. }) => ServerError::retryable_kind(kind),
                Ok(Response::Ok { .. }) => false,
                // Ambiguous transport failure: the server may or may
                // not have executed the request. Only idempotent
                // requests are safe to replay.
                Err(Attempt::Ambiguous(_)) => req.is_idempotent(),
                // The request never left this process: safe for all.
                Err(Attempt::Unsent(_)) => true,
            };
            let failed_transport = outcome.is_err();
            if !retryable || attempt >= self.config.retries {
                return match outcome {
                    Ok(resp) => Ok(resp),
                    Err(Attempt::Ambiguous(e)) | Err(Attempt::Unsent(e)) => Err(e),
                };
            }
            attempt += 1;
            self.stats.retries += 1;
            let server_dropped_us =
                matches!(&outcome, Ok(Response::Err { kind, .. }) if kind == "proto");
            if failed_transport || server_dropped_us {
                // The connection is suspect (transport failure), or the
                // server closed it after detecting frame corruption (it
                // always drops a desynced stream after a `proto`
                // response): redial on the next try.
                self.conn = None;
            }
            // An overloaded server says how long it wants us to stay
            // away (`retry-after-ms=…` in the typed detail). Honor it:
            // sleep the *longer* of the hint and our own backoff —
            // retrying sooner than asked just feeds the overload.
            let backoff = self.backoff(attempt);
            let hinted = match &outcome {
                Ok(Response::Err { detail, .. }) => {
                    retry_after_hint(detail).map_or(backoff, |hint| hint.max(backoff))
                }
                _ => backoff,
            };
            std::thread::sleep(hinted);
        }
    }

    /// Bounded exponential backoff with deterministic jitter: attempt
    /// `k` sleeps `base * 2^(k-1)` plus up to 50% jitter, capped.
    fn backoff(&self, attempt: u32) -> Duration {
        let base = self.config.backoff_base.as_millis() as u64;
        let exp = base.saturating_mul(1u64 << (attempt - 1).min(16));
        let jitter = splitmix64(self.config.jitter_seed ^ u64::from(attempt)) % (exp / 2 + 1);
        Duration::from_millis(exp + jitter).min(self.config.backoff_cap)
    }

    /// One attempt over the current (or freshly dialed) connection.
    fn try_once(&mut self, req: &Request) -> std::result::Result<Response, Attempt> {
        let conn = match &mut self.conn {
            Some(c) => c,
            None => {
                self.stats.reconnects += 1;
                let fresh = (self.factory)().map_err(Attempt::Unsent)?;
                self.conn.insert(fresh)
            }
        };
        if let Err(e) = write_frame(conn, req.render().as_bytes()) {
            // A failed write *may* still have delivered bytes the
            // server acted on (short write + reset after the frame
            // completed is indistinguishable from before): ambiguous.
            return Err(Attempt::Ambiguous(ServerError::Io(e.to_string())));
        }
        let payload = match read_frame(conn) {
            Ok(Some(p)) => p,
            Ok(None) => {
                return Err(Attempt::Ambiguous(ServerError::Io(
                    "server closed the connection".to_string(),
                )))
            }
            Err(e) if is_corruption(&e) => {
                // The *response* frame was mangled in flight. The server
                // executed the request; whether a replay is safe depends
                // on idempotency, exactly the ambiguous case.
                return Err(Attempt::Ambiguous(ServerError::Proto(e.to_string())));
            }
            Err(e) => return Err(Attempt::Ambiguous(ServerError::Io(e.to_string()))),
        };
        let text = String::from_utf8(payload).map_err(|_| {
            Attempt::Ambiguous(ServerError::Proto(
                "response payload is not UTF-8".to_string(),
            ))
        })?;
        Response::parse(&text).map_err(Attempt::Ambiguous)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<Response> {
        self.request(&Request::Ping)
    }

    /// Generate a demo workload in the server catalog.
    pub fn gen(&mut self, kind: &str, seed: u64) -> Result<Response> {
        self.request(&Request::Gen {
            kind: kind.to_string(),
            seed,
        })
    }

    /// Load a relation from TSV text.
    pub fn load(&mut self, tsv: &str) -> Result<Response> {
        self.request(&Request::Load {
            tsv: tsv.to_string(),
        })
    }

    /// Stream a TSV delta into relation `rel` (set-semantics union).
    /// Like `load`/`gen` this is **not** idempotent under the retry
    /// policy: only typed responses certifying non-execution are
    /// replayed, never ambiguous transport failures.
    pub fn append(&mut self, rel: &str, tsv: &str) -> Result<Response> {
        self.request(&Request::delta(rel, tsv, false, None))
    }

    /// Retract a TSV delta from relation `rel` (set-semantics
    /// difference; absent tuples are ignored). Like `append` this is
    /// **not** idempotent under the retry policy.
    pub fn retract(&mut self, rel: &str, tsv: &str) -> Result<Response> {
        self.request(&Request::delta(rel, tsv, true, None))
    }

    /// Evaluate a flock program.
    pub fn flock(
        &mut self,
        text: &str,
        support: Option<i64>,
        limits: RequestLimits,
    ) -> Result<Response> {
        self.request(&Request::Flock {
            text: text.to_string(),
            support,
            limits,
        })
    }

    /// Evaluate one scatter-gather step against a synced replica
    /// fragment `frag` = `(id, expected fingerprint)` (coordinator use).
    pub fn partial(
        &mut self,
        text: &str,
        scratch: Vec<String>,
        frag: (usize, u64),
        limits: RequestLimits,
    ) -> Result<Response> {
        self.request(&Request::Partial {
            text: text.to_string(),
            scratch,
            limits,
            frag,
        })
    }

    /// Ship one catalog fragment to a replica worker (coordinator and
    /// probe use). The worker verifies `fp` before installing.
    pub fn sync(&mut self, frag: usize, fp: u64, relations: Vec<String>) -> Result<Response> {
        self.request(&Request::Sync {
            frag,
            fp,
            relations,
        })
    }

    /// Canonicalize + fingerprint a flock program.
    pub fn fingerprint(&mut self, text: &str) -> Result<Response> {
        self.request(&Request::Fingerprint {
            text: text.to_string(),
        })
    }

    /// Server-wide counters.
    pub fn stats(&mut self) -> Result<Response> {
        self.request(&Request::Stats)
    }

    /// Ask the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<Response> {
        self.request(&Request::Shutdown)
    }
}

/// Why an attempt failed, split by what it implies for retry safety.
enum Attempt {
    /// The request may have reached (and run on) the server.
    Ambiguous(ServerError),
    /// The request never left this process (connect failure).
    Unsent(ServerError),
}

/// Extract the server's `retry-after-ms=N` backoff hint from a typed
/// error detail (shed connections carry one — see
/// [`ServerError::ConnRejected`]).
fn retry_after_hint(detail: &str) -> Option<Duration> {
    let rest = detail.split("retry-after-ms=").nth(1)?;
    let digits: &str = &rest[..rest
        .char_indices()
        .find(|(_, c)| !c.is_ascii_digit())
        .map_or(rest.len(), |(i, _)| i)];
    digits.parse::<u64>().ok().map(Duration::from_millis)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutting_down_hint_is_honored() {
        // A draining server sends the same retry-after hint a shed
        // connection does; the backoff path parses it from the detail.
        let detail = ServerError::ShuttingDown { retry_after_ms: 75 }.to_string();
        assert_eq!(retry_after_hint(&detail), Some(Duration::from_millis(75)));
        assert!(ServerError::retryable_kind("shutting-down"));
    }

    #[test]
    fn retry_after_hint_parses_typed_details() {
        let detail = ServerError::ConnRejected {
            live: 8,
            cap: 8,
            retry_after_ms: 350,
        }
        .to_string();
        assert_eq!(
            retry_after_hint(&detail),
            Some(Duration::from_millis(350)),
            "hint not found in `{detail}`"
        );
        assert_eq!(retry_after_hint("no hint here"), None);
        assert_eq!(retry_after_hint("retry-after-ms=oops"), None);
        assert_eq!(
            retry_after_hint("… retry-after-ms=20, then more text"),
            Some(Duration::from_millis(20))
        );
    }
}
