//! The chaos matrix: a retrying client talking to a real server through
//! a seed-driven fault-injecting transport.
//!
//! For every seed, every request must either complete with bytes
//! identical to a cold evaluation, or fail with a typed retryable error
//! (a transport-level `io`/`proto` failure after the retry budget) —
//! never a hang, never a garbage answer. With a reasonable retry
//! budget the client converges on every request: stalls are absorbed by
//! I/O timeouts, resets by reconnects, and bit flips by the `QFN2`
//! checksum plus a resend.
//!
//! Seeds come from `QF_NET_CHAOS_SEEDS` (comma-separated) so CI can pin
//! a matrix; the default list keeps local runs fast.

use std::time::Duration;

use qf_core::{evaluate_direct, JoinOrderStrategy, QueryFlock};
use qf_server::service::render_tsv;
use qf_server::{
    Client, ClientConfig, NetChaos, Request, RequestLimits, Response, Server, ServerConfig,
    ServerError, Transport,
};
use qf_storage::{Database, Fault, OpClass, Relation, Schema, Value};

fn demo_db(rows: usize) -> Database {
    let tuples: Vec<Vec<Value>> = (0..rows as i64)
        .map(|a| vec![Value::int(a), Value::int(a % 7)])
        .collect();
    let mut db = Database::new();
    db.insert(Relation::from_rows(Schema::new("r", &["a", "b"]), tuples));
    db
}

fn flock_text(support: i64) -> String {
    format!("QUERY:\nanswer(B) :- r(B,$1)\nFILTER:\nCOUNT(answer.B) >= {support}")
}

fn seeds() -> Vec<u64> {
    match std::env::var("QF_NET_CHAOS_SEEDS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![11, 23, 37, 41, 59],
    }
}

/// Dial the server and wrap the fresh socket in the shared chaos
/// stream: every reconnect keeps drawing from the same deterministic
/// fault sequence.
fn chaos_factory(addr: String, chaos: NetChaos) -> qf_server::TransportFactory {
    Box::new(move || {
        let stream =
            std::net::TcpStream::connect(&addr).map_err(|e| ServerError::Io(e.to_string()))?;
        let mut t: Box<dyn Transport> = Box::new(chaos.wrap(Box::new(stream)));
        t.set_read_timeout(Some(Duration::from_secs(2)))
            .map_err(|e| ServerError::Io(e.to_string()))?;
        t.set_write_timeout(Some(Duration::from_secs(2)))
            .map_err(|e| ServerError::Io(e.to_string()))?;
        Ok(t)
    })
}

fn chaos_client(addr: &str, chaos: &NetChaos, seed: u64) -> Client {
    let config = ClientConfig {
        retries: 40,
        io_timeout: Some(Duration::from_secs(2)),
        backoff_base: Duration::from_millis(2),
        backoff_cap: Duration::from_millis(40),
        jitter_seed: seed,
        ..Default::default()
    };
    Client::connect_via(chaos_factory(addr.to_string(), chaos.clone()), config)
        .expect("first dial is fault-free only if the stream says so — retried below")
}

/// Acceptance criterion: over every seed in the matrix, every request
/// through the chaos transport either returns cold-eval-identical bytes
/// or a typed retryable failure — and with this retry budget, they all
/// converge.
#[test]
fn chaos_matrix_every_request_converges_or_fails_typed() {
    let db = demo_db(64);
    // Expected bytes per support threshold, computed offline.
    let expected: Vec<(i64, String)> = (1..=5)
        .map(|s| {
            let flock = QueryFlock::parse(&flock_text(s)).unwrap();
            let cold =
                render_tsv(&evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap());
            (s, cold)
        })
        .collect();

    for seed in seeds() {
        let server = Server::serve(
            ServerConfig {
                // Server-side stalls must not reap mid-request chaos
                // stalls (max 125 ms) but must still bound a dead peer.
                io_timeout_ms: 2_000,
                idle_timeout_ms: 30_000,
                ..Default::default()
            },
            db.clone(),
            "127.0.0.1:0",
        )
        .unwrap();
        let addr = server.addr().to_string();

        let chaos = NetChaos::seeded(seed, 8);
        let mut client = chaos_client(&addr, &chaos, seed);

        let mut converged = 0usize;
        for (support, cold) in &expected {
            // Two passes per threshold: the second usually lands in the
            // result cache, exercising retries over both paths.
            for round in 0..2 {
                match client.flock(&flock_text(*support), None, RequestLimits::default()) {
                    Ok(Response::Ok { body, .. }) => {
                        assert_eq!(
                            &body, cold,
                            "seed {seed} support {support} round {round}: wrong bytes"
                        );
                        converged += 1;
                    }
                    Ok(Response::Err { kind, detail }) => {
                        // Out of retry budget on a typed failure: it
                        // must at least be a retryable class, never a
                        // wrong answer dressed as an error.
                        assert!(
                            ServerError::retryable_kind(&kind),
                            "seed {seed}: non-retryable terminal error {kind}: {detail}"
                        );
                    }
                    Err(e) => {
                        // Transport-level failure after the budget:
                        // typed io/proto, acceptable terminal state.
                        let kind = e.kind();
                        assert!(
                            kind == "io" || kind == "proto",
                            "seed {seed}: unexpected transport error {kind}: {e}"
                        );
                    }
                }
            }
        }
        assert!(
            converged >= expected.len(),
            "seed {seed}: only {converged} requests converged \
             (retries {}, reconnects {}, faults {:?})",
            client.session_stats().retries,
            client.session_stats().reconnects,
            chaos.injection_log(),
        );
        server.shutdown();
        server.join();
    }
}

/// Pinned-fault determinism: a reset on the very first request write
/// forces exactly one reconnect, and the retry succeeds — observable in
/// the client's own counters.
#[test]
fn pinned_reset_forces_one_reconnect_and_converges() {
    let server = Server::serve(ServerConfig::default(), demo_db(16), "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();

    let chaos = NetChaos::quiet().with_fault(OpClass::Write, 1, Fault::Reset);
    let mut client = chaos_client(&addr, &chaos, 7);
    let resp = client
        .flock(&flock_text(1), None, RequestLimits::default())
        .unwrap();
    assert!(resp.is_ok(), "{resp:?}");
    let stats = client.session_stats();
    assert!(stats.retries >= 1, "no retry recorded: {stats:?}");
    assert!(stats.reconnects >= 1, "no reconnect recorded: {stats:?}");
    assert_eq!(chaos.injection_log(), vec![(OpClass::Write, Fault::Reset)]);
    server.shutdown();
    server.join();
}

/// A mutation (`load`) is NOT replayed after an ambiguous transport
/// failure: the error surfaces instead of risking a double-apply.
#[test]
fn mutations_are_not_retried_after_ambiguous_failures() {
    let server = Server::serve(ServerConfig::default(), Database::new(), "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();

    // The reset fires on the 2nd write op — mid-request, after bytes
    // may have reached the server: ambiguous.
    let chaos = NetChaos::quiet().with_fault(OpClass::Write, 2, Fault::Reset);
    let mut client = chaos_client(&addr, &chaos, 7);
    let err = client.load("r\ta\n1\n").unwrap_err();
    assert_eq!(err.kind(), "io", "{err}");
    assert_eq!(
        client.session_stats().retries,
        0,
        "a mutation must not be retried on an ambiguous failure"
    );

    // The same failure on an idempotent request IS retried through.
    let chaos = NetChaos::quiet().with_fault(OpClass::Write, 2, Fault::Reset);
    let mut client = chaos_client(&addr, &chaos, 7);
    assert!(client.ping().unwrap().is_ok());
    assert!(client.session_stats().retries >= 1);
    server.shutdown();
    server.join();
}

/// A bit flip on the request wire surfaces server-side as a typed
/// `proto` response (checksum verified before parse), which certifies
/// non-execution — so even a mutation retries through it.
#[test]
fn request_bit_flip_certifies_non_execution_and_retries_through() {
    let server = Server::serve(ServerConfig::default(), Database::new(), "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();

    // Flip a bit in the 3rd write op: the payload chunk of frame #1.
    let chaos = NetChaos::quiet().with_fault(OpClass::Write, 3, Fault::BitFlip);
    let mut client = chaos_client(&addr, &chaos, 7);
    let resp = client.load("r\ta\n1\n2\n").unwrap();
    assert!(resp.is_ok(), "{resp:?}");
    assert!(client.session_stats().retries >= 1);

    // Exactly one relation with exactly two tuples: no double-apply.
    let (_meta, _) = match client.request(&Request::Stats).unwrap() {
        Response::Ok { meta, body } => {
            assert!(meta.contains("\"relations\":1"), "{meta}");
            assert!(meta.contains("\"tuples\":2"), "{meta}");
            (meta, body)
        }
        Response::Err { kind, detail } => panic!("stats failed: {kind}: {detail}"),
    };
    server.shutdown();
    server.join();
}
