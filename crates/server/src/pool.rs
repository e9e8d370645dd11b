//! Admission control: a bounded job queue feeding a fixed worker pool.
//!
//! Admitted requests do real work — joins, aggregation, possibly a plan
//! search — so they never run on connection threads. A connection
//! submits a [`Job`] and blocks on its private reply channel; workers
//! drain the queue. The queue is **bounded**: when it is full the
//! submit fails immediately with a typed [`ServerError::Overloaded`]
//! instead of building an invisible backlog (the client can back off;
//! an unbounded queue just converts overload into latency and memory).
//!
//! The pool is generic over a [`RequestHandler`]: the standalone server
//! hands jobs straight to the [`FlockService`], while the shard
//! coordinator substitutes its scatter-gather handler — admission,
//! queueing, triage, and fair thread allocation are identical in both
//! deployments.
//!
//! Shutdown is graceful by construction: closing the queue rejects new
//! submissions with [`ServerError::ShuttingDown`] but workers keep
//! draining the jobs already admitted, so every accepted request gets
//! its response before the pool exits.
//!
//! [`FlockService`]: crate::service::FlockService

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use qf_core::CancelToken;

use crate::error::{Result, ServerError};
use crate::protocol::{RequestLimits, Response};
use crate::service::RequestHandler;

/// The work an admitted job carries — the heavy request kinds.
pub enum JobPayload {
    /// A full flock evaluation (`flock`).
    Flock {
        /// Flock program text.
        text: String,
        /// Optional support-threshold override.
        support: Option<i64>,
    },
    /// One scatter-gather step against this shard's fragment
    /// (`partial`).
    Partial {
        /// Mini-flock program text at a vacuous threshold.
        text: String,
        /// Scratch relations (TSV) to overlay on the catalog snapshot.
        scratch: Vec<String>,
        /// Fragment scope: `(fragment id, expected fingerprint)` of a
        /// replica-hosted fragment. The wire always carries one; a job
        /// without it is refused typed `proto`.
        frag: Option<(usize, u64)>,
    },
    /// A streaming catalog delta (`append`): union the TSV tuples into
    /// an existing relation through the write-ahead log. Admitted (not
    /// light-path) because the merge re-sorts the whole relation and
    /// the WAL commit fsyncs — both too heavy for a connection thread.
    Append {
        /// Target relation name (cross-checked against the TSV header).
        rel: String,
        /// The delta as full TSV content including the header line.
        tsv: String,
        /// Fragment scope: `(fragment id, expected post-delta
        /// fingerprint)` routes the delta into the worker's fragment
        /// store; `None` mutates the master catalog.
        frag: Option<(usize, u64)>,
    },
    /// A streaming catalog retraction (`retract`): subtract the TSV
    /// tuples from an existing relation through the write-ahead log.
    /// Admitted for the same reason as `append` — the set difference
    /// rewrites the relation and the WAL commit fsyncs.
    Retract {
        /// Target relation name (cross-checked against the TSV header).
        rel: String,
        /// The delta as full TSV content including the header line.
        tsv: String,
        /// Fragment scope, as in [`JobPayload::Append`].
        frag: Option<(usize, u64)>,
    },
}

/// One admitted request, carrying its reply channel, its
/// admission-stamped deadline, and the cancellation token shared with
/// its connection thread.
pub struct Job {
    /// What to evaluate.
    pub payload: JobPayload,
    /// Per-request budgets.
    pub limits: RequestLimits,
    /// Absolute deadline stamped at admission: queue wait counts
    /// against it, and a job whose deadline expires while queued is
    /// rejected typed without executing.
    pub deadline: Option<Instant>,
    /// The effective budget behind `deadline`, for the error message.
    pub budget_ms: u64,
    /// Tripped by the connection thread when the client hangs up; the
    /// governor checks it cooperatively mid-plan.
    pub cancel: CancelToken,
    /// Where the worker sends the response. A dropped receiver (client
    /// hung up) just makes the send a no-op.
    pub reply: mpsc::Sender<Response>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    open: bool,
}

struct PoolInner {
    handler: Arc<dyn RequestHandler>,
    state: Mutex<QueueState>,
    cond: Condvar,
    cap: usize,
    workers: usize,
}

/// Handle to the admission queue; cheap to clone into connection
/// threads.
#[derive(Clone)]
pub struct WorkerPool {
    inner: Arc<PoolInner>,
}

impl WorkerPool {
    /// Spawn `config.threads` workers over a queue bounded at
    /// `config.queue_cap` (both from the handler's service). Returns
    /// the pool handle and the worker join handles (owned by the server
    /// for shutdown).
    pub fn spawn(handler: Arc<dyn RequestHandler>) -> (WorkerPool, Vec<JoinHandle<()>>) {
        let config = &handler.service().config;
        let workers = config.threads.max(1);
        let cap = config.queue_cap.max(1);
        let inner = Arc::new(PoolInner {
            cap,
            handler,
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                open: true,
            }),
            cond: Condvar::new(),
            workers,
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("qf-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread")
            })
            .collect();
        (WorkerPool { inner }, handles)
    }

    /// Admit a job or reject it immediately. Errors are typed:
    /// [`ServerError::ShuttingDown`] once the queue is closed,
    /// [`ServerError::Overloaded`] when the bounded queue is full (the
    /// latter counts toward the server's `rejected` total).
    pub fn submit(&self, job: Job) -> Result<()> {
        let service = self.inner.handler.service();
        let counters = &service.counters;
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        if !state.open {
            return Err(ServerError::ShuttingDown {
                retry_after_ms: service.config.retry_after_ms,
            });
        }
        if state.jobs.len() >= self.inner.cap {
            counters.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServerError::Overloaded {
                queue_depth: state.jobs.len(),
                capacity: self.inner.cap,
            });
        }
        state.jobs.push_back(job);
        let depth = state.jobs.len() as u64;
        counters.queue_depth.store(depth, Ordering::Relaxed);
        counters.queue_depth_max.fetch_max(depth, Ordering::Relaxed);
        drop(state);
        self.inner.cond.notify_one();
        Ok(())
    }

    /// Close the queue: new submissions fail with `ShuttingDown`, but
    /// already-admitted jobs are still drained by the workers.
    pub fn close(&self) {
        let mut state = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        state.open = false;
        drop(state);
        self.inner.cond.notify_all();
    }
}

fn worker_loop(inner: &PoolInner) {
    let service = Arc::clone(inner.handler.service());
    let counters = &service.counters;
    counters.live_workers.fetch_add(1, Ordering::Relaxed);
    loop {
        let job = {
            let mut state = inner.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    counters
                        .queue_depth
                        .store(state.jobs.len() as u64, Ordering::Relaxed);
                    break Some(job);
                }
                if !state.open {
                    break None;
                }
                state = inner.cond.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(job) = job else { break };
        // Pre-execution triage: a job whose client already hung up, or
        // whose deadline expired while it sat in the queue, is answered
        // typed without consuming a worker's evaluation time.
        if job.cancel.is_cancelled() {
            service.note_cancelled();
            let _ = job
                .reply
                .send(Response::from_error(&ServerError::Cancelled));
            continue;
        }
        if let Some(d) = job.deadline {
            if Instant::now() >= d {
                service.note_timeout();
                let _ = job.reply.send(Response::from_error(&ServerError::Timeout {
                    stage: "queue",
                    budget_ms: job.budget_ms,
                }));
                continue;
            }
        }
        // Fair allocation: the pool's threads are divided among the
        // requests executing right now, never below one.
        let active = counters.active.fetch_add(1, Ordering::SeqCst) + 1;
        let fair = (inner.workers / active.max(1)).max(1);
        let response = inner.handler.handle_admitted(&job, fair);
        counters.active.fetch_sub(1, Ordering::SeqCst);
        let _ = job.reply.send(response);
    }
    counters.live_workers.fetch_sub(1, Ordering::Relaxed);
}
