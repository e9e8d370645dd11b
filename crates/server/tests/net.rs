//! TCP-level tests: framed sessions end to end, concurrent clients,
//! typed overload rejection, deadline propagation, client-disconnect
//! cancellation, slow-loris reaping, connection-cap shedding, and
//! graceful shutdown.

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use qf_core::{evaluate_direct, JoinOrderStrategy, QueryFlock};
use qf_server::service::render_tsv;
use qf_server::{Client, RequestLimits, Response, Server, ServerConfig};
use qf_storage::{Database, Relation, Schema, Value};

fn demo_db(rows: usize) -> Database {
    // r(a, b): a in 0..rows, b = a % 7 — enough shape for support
    // thresholds to bite without being expensive.
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

fn ok_parts(resp: Response) -> (String, String) {
    match resp {
        Response::Ok { meta, body } => (meta, body),
        Response::Err { kind, detail } => panic!("unexpected err {kind}: {detail}"),
    }
}

/// The acceptance-criteria session: load, evaluate, repeat (cache hit,
/// identical bytes, no plan search), sweep a tightened threshold, read
/// stats, shut down gracefully.
#[test]
fn scripted_session_hits_cache_and_shuts_down() {
    let server = Server::serve(ServerConfig::default(), Database::new(), "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    assert!(client.ping().unwrap().is_ok());
    let tsv = "r\ta\tb\n1\t1\n2\t1\n3\t1\n1\t2\n2\t2\n";
    assert!(client.load(tsv).unwrap().is_ok());

    let text = flock_text(2);
    let (m1, b1) = ok_parts(client.flock(&text, None, RequestLimits::default()).unwrap());
    assert!(m1.contains("\"cache_hit\":false"), "{m1}");

    // Identical repeat: answered from cache, byte-identical result.
    let (m2, b2) = ok_parts(client.flock(&text, None, RequestLimits::default()).unwrap());
    assert!(m2.contains("\"cache_hit\":true"), "{m2}");
    assert!(m2.contains("\"strategy\":\"cache\""), "{m2}");
    assert_eq!(b1, b2);

    // Monotone sweep: tightened support served from the same entry.
    let (m3, _) = ok_parts(
        client
            .flock(&text, Some(3), RequestLimits::default())
            .unwrap(),
    );
    assert!(m3.contains("\"cache_hit\":true"), "{m3}");

    let (stats, _) = ok_parts(client.stats().unwrap());
    assert!(stats.contains("\"cache_hits\":2"), "{stats}");
    assert!(stats.contains("\"cache_misses\":1"), "{stats}");

    // Graceful shutdown: the request is acknowledged, the server
    // drains and join() returns, and the port stops accepting.
    assert!(client.shutdown().unwrap().is_ok());
    server.join();
    assert!(Client::connect(&addr).is_err());
}

#[test]
fn concurrent_clients_get_correct_answers() {
    let db = demo_db(64);
    let server = Server::serve(
        ServerConfig {
            threads: 4,
            // The whole burst must be admissible: 8 clients fire at
            // once and may all queue before a worker wakes.
            queue_cap: 16,
            ..Default::default()
        },
        db.clone(),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.addr().to_string();

    let handles: Vec<_> = (0..8)
        .map(|i| {
            let addr = addr.clone();
            let db = db.clone();
            std::thread::spawn(move || {
                let support = 2 + (i % 4) as i64;
                let text = flock_text(support);
                let mut client = Client::connect(&addr).unwrap();
                let (_, body) =
                    ok_parts(client.flock(&text, None, RequestLimits::default()).unwrap());
                let flock = QueryFlock::parse(&text).unwrap();
                let cold =
                    render_tsv(&evaluate_direct(&flock, &db, JoinOrderStrategy::Greedy).unwrap());
                assert_eq!(body, cold, "support {support}");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let mut client = Client::connect(&addr).unwrap();
    let (stats, _) = ok_parts(client.stats().unwrap());
    assert!(stats.contains("\"requests\":"), "{stats}");
    server.shutdown();
    server.join();
}

/// With one worker and a one-slot queue, a volley of slow requests must
/// produce at least one immediate, typed `overloaded` rejection — never
/// a hang and never an untyped failure.
#[test]
fn overload_is_a_typed_immediate_rejection() {
    // The two subgoals share no variables: the direct plan is a cross
    // product (~160k tuples on 400 rows), slow enough to occupy the
    // single worker while the volley lands.
    let slow = "QUERY:\nanswer(B,C) :- r(B,$1) AND r(C,$2)\nFILTER:\nCOUNT(answer.B) >= 1";
    let server = Server::serve(
        ServerConfig {
            threads: 1,
            queue_cap: 1,
            ..Default::default()
        },
        demo_db(400),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.addr().to_string();
    let limits = RequestLimits {
        timeout_ms: Some(2_000),
        ..Default::default()
    };

    let mut overloaded = 0;
    for _round in 0..3 {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(&addr).unwrap();
                    client.flock(slow, None, limits).unwrap()
                })
            })
            .collect();
        for h in handles {
            match h.join().unwrap() {
                Response::Ok { .. } => {}
                Response::Err { kind, detail } => {
                    assert!(
                        kind == "overloaded" || kind == "budget" || kind == "timeout",
                        "unexpected error {kind}: {detail}"
                    );
                    if kind == "overloaded" {
                        overloaded += 1;
                    }
                }
            }
        }
        if overloaded > 0 {
            break;
        }
    }
    assert!(overloaded > 0, "no request was rejected as overloaded");

    let mut client = Client::connect(&addr).unwrap();
    let (stats, _) = ok_parts(client.stats().unwrap());
    assert!(!stats.contains("\"rejected\":0"), "{stats}");
    server.shutdown();
    server.join();
}

/// Poll `stats` until `pred` holds or the deadline passes; returns the
/// last stats line either way. Counter-based assertions race the worker
/// threads that increment them, so every one goes through here.
fn await_stats(addr: &str, deadline: Duration, pred: impl Fn(&str) -> bool) -> String {
    let start = Instant::now();
    let mut last = String::new();
    while start.elapsed() < deadline {
        if let Ok(mut c) = Client::connect(addr) {
            if let Ok(Response::Ok { meta, .. }) = c.stats() {
                last = meta;
                if pred(&last) {
                    return last;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    last
}

/// The server's `requests` count, read over a fresh connection. The
/// `stats` request that reads it is itself counted, so a request in
/// between two reads moves it by two.
fn requests(addr: &str) -> u64 {
    let (stats, _) = ok_parts(Client::connect(addr).unwrap().stats().unwrap());
    qf_server::report::json_u64(&stats, "requests").unwrap()
}

/// A deadline stamped at admission keeps counting while the job waits
/// in the queue: a request whose budget expires before a worker frees
/// up is rejected with a typed `timeout` in the `queue` stage, without
/// ever executing.
#[test]
fn queue_expired_deadline_is_a_typed_queue_timeout() {
    let slow = "QUERY:\nanswer(B,C) :- r(B,$1) AND r(C,$2)\nFILTER:\nCOUNT(answer.B) >= 1";
    let server = Server::serve(
        ServerConfig {
            threads: 1,
            queue_cap: 4,
            ..Default::default()
        },
        demo_db(400),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.addr().to_string();

    // Occupy the single worker with a slow cross product.
    let blocker = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).unwrap();
            client.flock(slow, None, RequestLimits::default()).unwrap()
        })
    };
    // Give the blocker time to be admitted and start executing.
    std::thread::sleep(Duration::from_millis(200));

    // This request's 50 ms budget will expire while it queues.
    let mut client = Client::connect(&addr).unwrap();
    let limits = RequestLimits {
        timeout_ms: Some(50),
        ..Default::default()
    };
    match client.flock(&flock_text(1), None, limits).unwrap() {
        Response::Err { kind, detail } => {
            assert_eq!(kind, "timeout", "{detail}");
            assert!(detail.contains("queue"), "wrong stage: {detail}");
        }
        Response::Ok { meta, .. } => panic!("expired-in-queue request executed: {meta}"),
    }
    assert!(blocker.join().unwrap().is_ok());
    // Every request so far was answered, the one the queue triaged
    // too, so each was counted: the blocker, the expired request, and
    // the `stats` reading the count.
    assert_eq!(requests(&addr), 3);

    let stats = await_stats(&addr, Duration::from_secs(5), |s| {
        !s.contains("\"timeouts\":0")
    });
    assert!(!stats.contains("\"timeouts\":0"), "{stats}");
    server.shutdown();
    server.join();
}

/// A client timeout larger than the server cap is min'd down, never
/// rejected — unlike row/byte asks, an impatient client is harmless.
#[test]
fn client_timeout_ask_is_minned_with_the_server_cap() {
    let server = Server::serve(
        ServerConfig {
            timeout_ms: Some(60_000),
            ..Default::default()
        },
        demo_db(8),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let limits = RequestLimits {
        timeout_ms: Some(600_000), // over the cap: min'd, not rejected
        ..Default::default()
    };
    let (meta, _) = ok_parts(client.flock(&flock_text(1), None, limits).unwrap());
    assert!(meta.contains("\"results\":"), "{meta}");
    server.shutdown();
    server.join();
}

/// A client that hangs up while its flock is executing has its job
/// cancelled mid-plan: the `cancelled` counter ticks and the worker
/// frees up for other requests — an abandoned job must not run to
/// completion for nobody.
#[test]
fn disconnected_clients_job_is_cancelled_and_the_worker_freed() {
    let slow = "QUERY:\nanswer(B,C) :- r(B,$1) AND r(C,$2)\nFILTER:\nCOUNT(answer.B) >= 1";
    let server = Server::serve(
        ServerConfig {
            threads: 1,
            queue_cap: 4,
            ..Default::default()
        },
        demo_db(700),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.addr().to_string();

    // Send the slow flock over a raw socket, then slam the connection.
    {
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        let req = qf_server::Request::Flock {
            text: slow.to_string(),
            support: None,
            limits: RequestLimits::default(),
        };
        let mut buf = Vec::new();
        qf_server::frame::write_frame(&mut buf, req.render().as_bytes()).unwrap();
        stream.write_all(&buf).unwrap();
        stream.flush().unwrap();
        // Make sure the frame was admitted before we vanish.
        std::thread::sleep(Duration::from_millis(300));
    } // drop = FIN; the server's hangup probe sees it within one poll

    let stats = await_stats(&addr, Duration::from_secs(10), |s| {
        !s.contains("\"cancelled\":0")
    });
    assert!(
        !stats.contains("\"cancelled\":0"),
        "job was not cancelled: {stats}"
    );

    // The worker is free again: a normal request completes promptly.
    let mut client = Client::connect(&addr).unwrap();
    let (_, body) = ok_parts(
        client
            .flock(&flock_text(1), None, RequestLimits::default())
            .unwrap(),
    );
    assert!(!body.is_empty());
    server.shutdown();
    server.join();
}

/// A peer that opens a frame and then trickles nothing is reaped after
/// the strict mid-frame I/O timeout — and since jobs are admitted only
/// on complete frames, it never consumed a worker slot.
#[test]
fn slow_loris_is_reaped_without_consuming_a_worker() {
    let server = Server::serve(
        ServerConfig {
            threads: 1,
            io_timeout_ms: 300,
            idle_timeout_ms: 60_000,
            ..Default::default()
        },
        demo_db(16),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.addr().to_string();

    // Start a frame (one magic byte) and stall.
    let mut loris = std::net::TcpStream::connect(&addr).unwrap();
    loris.write_all(b"Q").unwrap();
    loris.flush().unwrap();

    // While the loris dangles, the single worker serves normal traffic:
    // it never held anything but its connection slot.
    let mut client = Client::connect(&addr).unwrap();
    let (_, body) = ok_parts(
        client
            .flock(&flock_text(1), None, RequestLimits::default())
            .unwrap(),
    );
    assert!(!body.is_empty());

    // The loris connection is closed by the server within the strict
    // timeout (plus scheduling slack): the next read sees EOF.
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 16];
    let start = Instant::now();
    match loris.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("server sent {n} bytes to a half-open frame"),
        Err(e) => panic!("expected EOF within {:?}: {e}", start.elapsed()),
    }
    server.shutdown();
    server.join();
}

/// Connections beyond the cap are shed immediately with a typed
/// `overloaded` response carrying a retry-after hint — before they
/// consume a connection thread or queue slot.
#[test]
fn connections_over_the_cap_are_shed_with_retry_after() {
    let server = Server::serve(
        ServerConfig {
            max_conns: 1,
            ..Default::default()
        },
        demo_db(8),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.addr().to_string();

    // Occupy the single slot with an established, verified connection.
    let mut holder = Client::connect(&addr).unwrap();
    assert!(holder.ping().unwrap().is_ok());

    // The next connection is refused with the typed hint. The shed
    // response is written unsolicited, so a plain request/read sees it.
    let mut shed = Client::connect(&addr).unwrap();
    match shed.ping().unwrap() {
        Response::Err { kind, detail } => {
            assert_eq!(kind, "overloaded", "{detail}");
            assert!(detail.contains("retry-after-ms="), "{detail}");
        }
        Response::Ok { meta, .. } => panic!("over-cap connection served: {meta}"),
    }
    drop(shed);

    // A burst over the cap: every connection is answered `overloaded`
    // unsolicited, from the accept thread.
    let burst: Vec<std::net::TcpStream> = (0..16)
        .map(|_| std::net::TcpStream::connect(&addr).unwrap())
        .collect();
    for mut stream in burst {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let payload = qf_server::frame::read_frame(&mut stream).unwrap().unwrap();
        match Response::parse(std::str::from_utf8(&payload).unwrap()).unwrap() {
            Response::Err { kind, detail } => {
                assert_eq!(kind, "overloaded", "{detail}");
                assert!(detail.contains("retry-after-ms="), "{detail}");
            }
            Response::Ok { meta, .. } => panic!("over-cap connection served: {meta}"),
        }
    }

    // Release the slot; the same address serves again and the shed
    // connection was counted.
    drop(holder);
    let stats = await_stats(&addr, Duration::from_secs(5), |s| {
        !s.contains("\"conn_rejected\":0")
    });
    assert!(!stats.contains("\"conn_rejected\":0"), "{stats}");
    server.shutdown();
    server.join();
}

/// A corrupted request frame is answered with a typed `proto` error —
/// the checksum caught it before parse, so the client knows the request
/// never executed and may resend anything safely.
#[test]
fn corrupt_frame_gets_a_typed_proto_error() {
    let server = Server::serve(ServerConfig::default(), demo_db(8), "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();

    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut buf = Vec::new();
    qf_server::frame::write_frame(&mut buf, b"ping\n\n").unwrap();
    let last = buf.len() - 1;
    buf[last] ^= 0x40; // flip a checksum bit
    stream.write_all(&buf).unwrap();
    stream.flush().unwrap();

    let payload = qf_server::frame::read_frame(&mut stream).unwrap().unwrap();
    let resp = Response::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
    match resp {
        Response::Err { kind, detail } => {
            assert_eq!(kind, "proto", "{detail}");
            assert!(detail.contains("corrupt frame"), "{detail}");
        }
        Response::Ok { meta, .. } => panic!("corrupt frame served: {meta}"),
    }
    // After corruption the server drops the connection (stream offsets
    // can no longer be trusted).
    let mut b = [0u8; 1];
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert_eq!(stream.read(&mut b).unwrap(), 0, "connection must close");
    server.shutdown();
    server.join();
}

#[test]
fn over_cap_budget_is_rejected_before_queueing() {
    let server = Server::serve(
        ServerConfig {
            max_rows: Some(1_000),
            ..Default::default()
        },
        demo_db(8),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.addr().to_string();
    let before = requests(&addr);
    let mut client = Client::connect(&addr).unwrap();
    let limits = RequestLimits {
        max_rows: Some(1_000_000),
        ..Default::default()
    };
    match client.flock(&flock_text(1), None, limits).unwrap() {
        Response::Err { kind, .. } => assert_eq!(kind, "budget"),
        Response::Ok { meta, .. } => panic!("over-cap request accepted: {meta}"),
    }
    let (stats, _) = ok_parts(client.stats().unwrap());
    assert!(stats.contains("\"rejected\":1"), "{stats}");
    // Refused before queueing, and still counted: the refusal and the
    // `stats` that read it.
    let counted = qf_server::report::json_u64(&stats, "requests").unwrap();
    assert_eq!(counted - before, 2, "{stats}");

    // A request line that does not parse is answered typed, and counted
    // once too.
    let before = requests(&addr);
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut buf = Vec::new();
    qf_server::frame::write_frame(&mut buf, b"frobnicate\n\n").unwrap();
    stream.write_all(&buf).unwrap();
    let payload = qf_server::frame::read_frame(&mut stream).unwrap().unwrap();
    match Response::parse(std::str::from_utf8(&payload).unwrap()).unwrap() {
        Response::Err { kind, detail } => assert_eq!(kind, "proto", "{detail}"),
        Response::Ok { meta, .. } => panic!("malformed request served: {meta}"),
    }
    assert_eq!(requests(&addr) - before, 2);
    server.shutdown();
    server.join();
}
