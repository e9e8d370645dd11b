//! The TCP front end: hardened accept loop, connection threads, and
//! shutdown wiring.
//!
//! One thread per connection reads framed requests in a loop. Light
//! requests (`ping`, `stats`, `load`, `gen`, `fingerprint`,
//! `shutdown`) are answered inline on the connection thread; `flock`,
//! `partial`, `append`, and `retract` requests are stamped with an absolute
//! deadline at admission and go through the admission queue to the
//! worker pool, with over-cap budgets rejected *before* queueing so an
//! impossible request never occupies a queue slot.
//!
//! Robustness decisions live here:
//!
//! * The accept loop never exits on an `accept()` error: transient
//!   failures (`ECONNABORTED`, fd exhaustion) are retried with bounded
//!   backoff — a refused handshake must not take the whole server down.
//! * Connections beyond [`crate::service::ServerConfig::max_conns`] are
//!   shed immediately with a typed `overloaded` response carrying a
//!   retry-after hint, written on the accept thread itself: a shed
//!   connection never costs a thread.
//! * Reads run under two timeouts: a generous *idle* timeout while
//!   waiting for the first byte of a frame (keep-alive grace) and a
//!   strict *I/O* timeout for the rest (slow-loris reaping). A peer
//!   that trickles bytes holds only its connection slot, never a
//!   worker — jobs are admitted on complete frames only.
//! * While a flock job is in flight, the connection thread polls its
//!   reply channel with [`mpsc::Receiver::recv_timeout`] (never a bare
//!   `recv`) and probes the socket for hangup; an abandoned request
//!   trips the job's cancellation token so the governor stops it
//!   mid-plan.
//!
//! Every request a connection reads — a complete frame, or one whose
//! checksum caught corruption — is counted once in `requests`, here and
//! nowhere else, whatever answers it: a handler, an admission refusal,
//! the worker's queue triage or a parse error.
//!
//! The accept loop polls a nonblocking listener so it can observe the
//! shutdown flag; once `shutdown` is accepted it stops listening and
//! closes the admission queue, and [`Server::join`] then waits for the
//! workers to drain every admitted job.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qf_core::CancelToken;
use qf_storage::Database;

use crate::error::ServerError;
use crate::frame::{is_corruption, read_first_byte, read_frame_rest, write_frame, MAX_FRAME};
use crate::pool::{Job, JobPayload, WorkerPool};
use crate::protocol::{Request, Response};
use crate::service::{FlockService, LocalHandler, RequestHandler, ServerConfig};
use crate::transport::Transport;

/// How often the connection thread wakes while waiting for a worker
/// reply, to probe for client hangup and reply-stage deadline expiry.
const REPLY_POLL: Duration = Duration::from_millis(25);

/// Extra wall-clock allowed past a job's deadline for the worker's own
/// governor to trip and deliver the typed timeout. Only after deadline
/// + grace does the connection thread give up on the reply itself.
const REPLY_GRACE: Duration = Duration::from_secs(5);

/// How long the accept thread may spend writing the `overloaded` frame
/// to a shed connection. A freshly accepted socket's send buffer is
/// empty and takes the ~100-byte frame at once; the bound only keeps a
/// pathological socket from stalling the listener.
const SHED_WRITE_TIMEOUT: Duration = Duration::from_millis(50);

/// A running server: bound listener, accept thread, worker pool.
pub struct Server {
    service: Arc<FlockService>,
    addr: SocketAddr,
    pool: WorkerPool,
    accept_handle: JoinHandle<()>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving the given catalog standalone: every request runs against
    /// the local service.
    pub fn serve(config: ServerConfig, db: Database, addr: &str) -> std::io::Result<Server> {
        let service = Arc::new(FlockService::new(config, db));
        Server::serve_handler(Arc::new(LocalHandler::new(service)), addr)
    }

    /// Bind `addr` and serve through an arbitrary [`RequestHandler`] —
    /// the shard coordinator plugs in here with the same accept loop,
    /// framing, admission queue, and worker pool as the standalone
    /// server.
    pub fn serve_handler(handler: Arc<dyn RequestHandler>, addr: &str) -> std::io::Result<Server> {
        let service = Arc::clone(handler.service());
        let (pool, worker_handles) = WorkerPool::spawn(Arc::clone(&handler));
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let accept_handle = {
            let pool = pool.clone();
            std::thread::Builder::new()
                .name("qf-accept".to_string())
                .spawn(move || accept_loop(&listener, &handler, &pool))
                .expect("spawn accept thread")
        };
        Ok(Server {
            service,
            addr: local,
            pool,
            accept_handle,
            worker_handles,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service state (tests, embedded use).
    pub fn service(&self) -> &Arc<FlockService> {
        &self.service
    }

    /// Request shutdown without a client connection (Ctrl-C path).
    pub fn shutdown(&self) {
        self.service.begin_shutdown();
    }

    /// Wait for shutdown to complete: the accept thread to exit and the
    /// workers to drain every admitted job. Connection threads are
    /// detached — an idle keep-alive connection does not hold the
    /// server open.
    pub fn join(self) {
        let _ = self.accept_handle.join();
        // Belt and braces: the accept loop closes the queue on exit,
        // but close() is idempotent and this covers panicked loops.
        self.pool.close();
        for h in self.worker_handles {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, handler: &Arc<dyn RequestHandler>, pool: &WorkerPool) {
    let service = handler.service();
    // Bounded backoff for transient accept() failures (fd exhaustion,
    // kernel hiccups): sleep and retry, never exit — doubling up to a
    // ceiling, reset by any successful accept.
    const BACKOFF_MIN: Duration = Duration::from_millis(10);
    const BACKOFF_MAX: Duration = Duration::from_secs(1);
    let mut backoff = BACKOFF_MIN;
    loop {
        if service.is_shutting_down() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                backoff = BACKOFF_MIN;
                let cap = service.config.max_conns.max(1);
                // Reserve a connection slot; shed the connection with a
                // typed response if the cap is reached.
                let live = service.counters.conns.fetch_add(1, Ordering::SeqCst);
                if live >= cap {
                    service.counters.conns.fetch_sub(1, Ordering::SeqCst);
                    shed_connection(stream, service, live, cap);
                    continue;
                }
                let handler2 = Arc::clone(handler);
                let pool = pool.clone();
                let spawned = std::thread::Builder::new()
                    .name("qf-conn".to_string())
                    .spawn(move || {
                        handle_connection(Box::new(stream), &handler2, &pool);
                        handler2
                            .service()
                            .counters
                            .conns
                            .fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    // Thread exhaustion is transient too: release the
                    // slot and back off instead of dying.
                    service.counters.conns.fetch_sub(1, Ordering::SeqCst);
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(BACKOFF_MAX);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(BACKOFF_MIN);
            }
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => {
                // The peer gave up while queued in the backlog; nothing
                // is wrong with *us*. Log and keep accepting.
                eprintln!("qf-serve: accept: connection aborted by peer ({e})");
            }
            Err(e) => {
                eprintln!(
                    "qf-serve: accept error ({e}); retrying in {} ms",
                    backoff.as_millis()
                );
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(BACKOFF_MAX);
            }
        }
    }
    // Stop admitting; workers drain what was already accepted.
    pool.close();
}

/// Refuse a connection over the cap: count it, send the typed
/// `overloaded` response with a retry-after hint (best effort, on the
/// accept thread under [`SHED_WRITE_TIMEOUT`]), and close.
fn shed_connection(stream: TcpStream, service: &Arc<FlockService>, live: usize, cap: usize) {
    service
        .counters
        .conn_rejected
        .fetch_add(1, Ordering::Relaxed);
    let mut t: Box<dyn Transport> = Box::new(stream);
    let _ = t.set_write_timeout(Some(SHED_WRITE_TIMEOUT));
    let resp = Response::from_error(&ServerError::ConnRejected {
        live,
        cap,
        retry_after_ms: service.config.retry_after_ms,
    });
    let _ = write_frame(&mut t, resp.render().as_bytes());
    let _ = t.shutdown();
}

fn millis_opt(ms: u64) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms))
}

fn handle_connection(
    mut conn: Box<dyn Transport>,
    handler: &Arc<dyn RequestHandler>,
    pool: &WorkerPool,
) {
    let service = handler.service();
    let config = &service.config;
    let idle = millis_opt(config.idle_timeout_ms);
    let strict = millis_opt(config.io_timeout_ms);
    loop {
        // Wait for the first byte of the next frame under the generous
        // idle timeout: a keep-alive connection may sit quietly between
        // requests, but not forever.
        if conn.set_read_timeout(idle).is_err() {
            return;
        }
        let first = match read_first_byte(&mut conn) {
            Ok(None) => return, // clean close at a frame boundary
            Ok(Some(b)) => b,
            Err(e) if is_timeout(&e) => return, // idle too long: reap
            Err(_) => return,
        };
        // The frame has started: the rest must arrive promptly. This is
        // the slow-loris bound — a peer trickling bytes is reaped after
        // one strict timeout, and since no job is admitted until the
        // frame completes, it never held a worker slot.
        if conn.set_read_timeout(strict).is_err() {
            return;
        }
        let frame = read_frame_rest(&mut conn, first);
        if frame.as_ref().is_err_and(|e| !is_corruption(e)) {
            return; // truncated / timed out / reset: reap
        }
        // A request was read, and is answered below.
        service.counters.requests.fetch_add(1, Ordering::Relaxed);
        let payload = match frame {
            Ok(p) => p,
            Err(e) => {
                // Detected wire corruption: tell the client (typed, so
                // its retry policy can resend safely — the request was
                // never parsed, let alone executed), then drop the
                // connection: after a corrupt frame the stream offset
                // can no longer be trusted.
                let resp = Response::Err {
                    kind: "proto".to_string(),
                    detail: format!("{e}"),
                };
                let _ = conn.set_write_timeout(strict);
                let _ = write_frame(&mut conn, resp.render().as_bytes());
                let _ = conn.shutdown();
                return;
            }
        };
        let response = dispatch(&payload, handler, pool, conn.as_mut());
        // A rendered response past the frame cap would make write_frame
        // fail and silently kill the connection; send a typed budget
        // error instead so the client learns *why* (and can retry with
        // a tighter filter or row cap).
        let mut rendered = response.render();
        if rendered.len() > MAX_FRAME as usize {
            rendered = Response::Err {
                kind: "budget".to_string(),
                detail: format!(
                    "response is {} bytes, over the {MAX_FRAME}-byte frame cap; \
                     tighten the filter or set max-rows",
                    rendered.len()
                ),
            }
            .render();
        }
        if conn.set_write_timeout(strict).is_err() {
            return;
        }
        if write_frame(&mut conn, rendered.as_bytes()).is_err() {
            return;
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn dispatch(
    payload: &[u8],
    handler: &Arc<dyn RequestHandler>,
    pool: &WorkerPool,
    conn: &mut dyn Transport,
) -> Response {
    let service = handler.service();
    let text = match std::str::from_utf8(payload) {
        Ok(t) => t,
        Err(_) => {
            return Response::Err {
                kind: "proto".to_string(),
                detail: "request payload is not UTF-8".to_string(),
            }
        }
    };
    let request = match Request::parse(text) {
        Ok(r) => r,
        Err(e) => return Response::from_error(&e),
    };
    // Heavy requests go through admission; everything else is answered
    // inline on the connection thread.
    let (job_payload, limits) = match request {
        Request::Flock {
            text,
            support,
            limits,
        } => (JobPayload::Flock { text, support }, limits),
        Request::Partial {
            text,
            scratch,
            limits,
            frag,
        } => (
            JobPayload::Partial {
                text,
                scratch,
                frag: Some(frag),
            },
            limits,
        ),
        Request::Append { rel, tsv, frag } => (
            JobPayload::Append { rel, tsv, frag },
            crate::protocol::RequestLimits::default(),
        ),
        Request::Retract { rel, tsv, frag } => (
            JobPayload::Retract { rel, tsv, frag },
            crate::protocol::RequestLimits::default(),
        ),
        light => return handler.handle_light(&light),
    };
    // Over-cap budgets are rejected before queueing: typed error,
    // counted, and no queue slot wasted.
    let effective = match service.admission_limits(&limits) {
        Ok(eff) => eff,
        Err(e) => {
            service.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return Response::from_error(&e);
        }
    };
    // Stamp the deadline *now*, at admission: time spent queued counts
    // against the request's budget, and a job that expires in the queue
    // is rejected typed without executing.
    let budget_ms = effective.timeout_ms.unwrap_or(0);
    let deadline = effective
        .timeout_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let cancel = CancelToken::new();
    let (tx, rx) = mpsc::channel();
    let job = Job {
        payload: job_payload,
        limits,
        deadline,
        budget_ms,
        cancel: cancel.clone(),
        reply: tx,
    };
    if let Err(e) = pool.submit(job) {
        return Response::from_error(&e);
    }
    await_reply(&rx, deadline, budget_ms, &cancel, service, conn)
}

/// Wait for the worker's reply without ever blocking forever: poll the
/// channel, probe the socket for hangup (tripping the job's
/// cancellation token so the governor stops it mid-plan), and bound the
/// wait by the request deadline plus a grace period for the worker's
/// own governor to deliver the typed timeout first.
fn await_reply(
    rx: &mpsc::Receiver<Response>,
    deadline: Option<Instant>,
    budget_ms: u64,
    cancel: &CancelToken,
    service: &Arc<FlockService>,
    conn: &mut dyn Transport,
) -> Response {
    loop {
        match rx.recv_timeout(REPLY_POLL) {
            Ok(resp) => return resp,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // The worker died (pool closed mid-job or panicked
                // past its catch): typed, not a hang — and it carries
                // the same retry-after hint every other shutting-down
                // rejection sends, so a backing-off client redials at
                // the hinted pace instead of hammering a drain.
                let e = ServerError::ShuttingDown {
                    retry_after_ms: service.config.retry_after_ms,
                };
                return Response::Err {
                    kind: e.kind().to_string(),
                    detail: format!("worker exited before replying; {e}"),
                };
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if conn.peer_gone() {
                    // The client hung up: stop the job mid-plan. The
                    // worker observes the token and accounts the
                    // cancellation; our response goes to a dead socket
                    // and the connection loop reaps it.
                    cancel.cancel();
                    return Response::from_error(&ServerError::Cancelled);
                }
                if let Some(d) = deadline {
                    if Instant::now() >= d + REPLY_GRACE {
                        // The worker's governor should have tripped the
                        // deadline long ago; it is stuck somewhere
                        // non-cooperative. Give up on the reply, typed.
                        cancel.cancel();
                        service.note_timeout();
                        return Response::from_error(&ServerError::Timeout {
                            stage: "reply",
                            budget_ms,
                        });
                    }
                }
            }
        }
    }
}
