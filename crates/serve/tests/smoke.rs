//! End-to-end smoke: concurrent clients over real TCP, over-offered load,
//! graceful drain, and byte-identical offline replay.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use ref_core::resource::Capacity;
use ref_market::MarketConfig;
use ref_serve::{CallOpts, Client, ClientError, ServeConfig, Server, Value};

fn market() -> MarketConfig {
    MarketConfig::new(Capacity::new(vec![32.0, 16.0]).unwrap())
}

#[test]
fn four_concurrent_clients_full_lifecycle_replays_bit_identically() {
    let config = ServeConfig::new(market()).with_epoch_interval(Some(Duration::from_millis(1)));
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let addr = server.addr();

    std::thread::scope(|scope| {
        for worker in 0u64..4 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let agent = worker + 1;
                client.join_external(agent).unwrap();
                for i in 0..10 {
                    client
                        .observe(agent, &[1.0 + worker as f64, 2.0], 0.5 + 0.1 * i as f64)
                        .unwrap();
                    let reply = client.query_agent(agent).unwrap();
                    assert_eq!(reply.get("agent").unwrap().as_u64(), Some(agent));
                }
                client.demand(agent, None).unwrap();
                client.observe(agent, &[2.0, 1.0], 1.25).unwrap();
                let market_wide = client.query().unwrap();
                assert!(market_wide.get("epoch").unwrap().as_u64().is_some());
                if worker % 2 == 0 {
                    client.leave(agent).unwrap();
                }
            });
        }
    });

    let report = server.shutdown();
    assert_eq!(report.metrics.protocol_errors, 0);
    assert!(report.metrics.accepted > 0);
    assert!(!report.journal_overflowed);
    // The server is a pure transport: replaying its journal offline
    // reconstructs the exact final state, byte for byte.
    let replayed = ref_serve::replay(market(), &report.journal).unwrap();
    assert_eq!(replayed.snapshot().encode(), report.snapshot);
}

#[test]
fn over_offered_load_is_rejected_not_collapsed() {
    // Eight hammering clients against four connection slots: a connection
    // carries one request at a time, so the slots are the bound, and the
    // clients left over are bounced with `overloaded` + retry hint.
    const SLOTS: usize = 4;
    let config = ServeConfig::new(market())
        .with_epoch_interval(None)
        .with_max_connections(SLOTS);
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let addr = server.addr();

    Client::connect(addr).unwrap().join_external(1).unwrap();

    let completed = AtomicU64::new(0);
    let retried = AtomicU64::new(0);
    // Every client dials before any sends, so more clients than slots
    // are connected at once.
    let dialed = Barrier::new(8);
    std::thread::scope(|scope| {
        for worker in 0u64..8 {
            let (completed, retried, dialed) = (&completed, &retried, &dialed);
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                dialed.wait();
                // A deep retry budget, and a backoff that never outgrows
                // the server's `retry_after_ms` hint: it sleeps the hint.
                let patient = CallOpts {
                    retries: 10_000,
                    max_delay: Duration::from_millis(1),
                    ..CallOpts::default().with_seed(worker)
                };
                let query = Value::obj(vec![("op", Value::str("query"))]);
                let observe = Value::obj(vec![
                    ("op", Value::str("observe")),
                    ("agent", Value::from_u64(1)),
                    ("allocation", Value::num_array(&[1.0, 1.0])),
                    ("performance", Value::Num(1.0)),
                ]);
                for i in 0..150 {
                    let request = if (worker + i) % 2 == 0 {
                        &query
                    } else {
                        &observe
                    };
                    // Closed loop with polite retry: every request must
                    // eventually land; rejection is backpressure, not loss.
                    let (reply, retries) = client
                        .call_with(request, &patient)
                        .unwrap_or_else(|e| panic!("request never landed: {e}"));
                    assert_eq!(reply.get("ok"), Some(&Value::Bool(true)));
                    completed.fetch_add(1, Ordering::Relaxed);
                    retried.fetch_add(retries, Ordering::Relaxed);
                }
            });
        }
    });

    assert_eq!(completed.load(Ordering::Relaxed), 8 * 150);
    let report = server.shutdown();
    assert_eq!(report.metrics.protocol_errors, 0);
    // The offered load exceeded the slots: rejections must have
    // happened, and each cost its client at least one retry.
    assert!(
        report.metrics.rejected_overload > 0,
        "over-offered load produced no rejections: {:?}",
        report.metrics
    );
    assert!(retried.load(Ordering::Relaxed) >= report.metrics.rejected_overload);
    // Memory stayed bounded: never more requests in flight than slots.
    assert!(report.metrics.queue_depth_max <= SLOTS as u64);
    // A bounced request was never served: each observe landed once.
    assert_eq!(report.journal.len(), 1 + 8 * 150 / 2);
    // And the journal still replays bit-identically after the storm.
    let replayed = ref_serve::replay(market(), &report.journal).unwrap();
    assert_eq!(replayed.snapshot().encode(), report.snapshot);
}

#[test]
fn connection_limit_bounces_deterministically() {
    let config = ServeConfig::new(market())
        .with_epoch_interval(None)
        .with_max_connections(1);
    let server = Server::start("127.0.0.1:0", config).unwrap();

    let mut first = Client::connect(server.addr()).unwrap();
    first.join_external(1).unwrap();

    // The second connection is over the limit: the acceptor sends one
    // `overloaded` line and hangs up.
    let mut second = Client::connect(server.addr()).unwrap();
    let reply = second.call_line(r#"{"op":"query"}"#).unwrap();
    assert_eq!(
        reply.get("error").and_then(Value::as_str),
        Some("overloaded")
    );
    assert!(reply.get("retry_after_ms").is_some());

    // The first connection is unaffected.
    first.query().unwrap();
    let report = server.shutdown();
    assert_eq!(report.metrics.rejected_overload, 1);
    assert_eq!(report.metrics.connections, 2);
}

#[test]
fn bounced_clients_that_send_first_still_read_the_overloaded_line() {
    // Clients that write their request before they read: the acceptor
    // must read what they sent before it hangs up, or the close resets
    // the connection and the reset may overtake the `overloaded` line.
    const CLIENTS: u64 = 4;
    const ROUNDS: u64 = 25;
    let config = ServeConfig::new(market())
        .with_epoch_interval(None)
        .with_max_connections(1);
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let addr = server.addr();
    let mut first = Client::connect(addr).unwrap();
    first.join_external(1).unwrap();

    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(10)))
                        .unwrap();
                    // The request goes out in two segments, the second
                    // after the bounce has had time to arrive.
                    stream.write_all(b"{\"op\":").unwrap();
                    std::thread::sleep(Duration::from_millis(5));
                    stream
                        .write_all(b"\"query\"}\n")
                        .unwrap_or_else(|e| panic!("round {round}: reset while sending: {e}"));
                    let mut line = String::new();
                    BufReader::new(&stream)
                        .read_line(&mut line)
                        .unwrap_or_else(|e| panic!("round {round}: no bounce line: {e}"));
                    let reply = Value::parse(line.trim_end()).unwrap();
                    assert_eq!(
                        reply.get("error").and_then(Value::as_str),
                        Some("overloaded"),
                        "round {round}: {line:?}"
                    );
                    assert!(reply.get("retry_after_ms").is_some());
                }
            });
        }
    });

    first.query().unwrap();
    let report = server.shutdown();
    assert_eq!(report.metrics.rejected_overload, CLIENTS * ROUNDS);
}

#[test]
fn drain_completes_every_admitted_request() {
    // Admit a burst, then shut down from another connection: every
    // admitted request still gets a real reply, not a dropped socket.
    let config = ServeConfig::new(market()).with_epoch_interval(None);
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let addr = server.addr();

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0u64..4)
            .map(|w| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.join_external(w + 1).unwrap();
                    let mut ok = 0u64;
                    let mut bounced = 0u64;
                    for _ in 0..200 {
                        match client.observe(w + 1, &[1.0, 1.0], 1.0) {
                            Ok(_) => ok += 1,
                            Err(ClientError::Server { code, .. }) if code == "shutting_down" => {
                                bounced += 1;
                                break;
                            }
                            Err(e) => panic!("unexpected failure: {e}"),
                        }
                    }
                    (ok, bounced)
                })
            })
            .collect();

        // Let the workers get going, then pull the plug over the wire.
        std::thread::sleep(Duration::from_millis(20));
        let mut admin = Client::connect(addr).unwrap();
        let reply = admin.shutdown().unwrap();
        let shards = reply.get("shards").and_then(Value::as_array).unwrap();
        assert!(shards[0]
            .get("snapshot")
            .and_then(Value::as_str)
            .unwrap()
            .starts_with("refmarket-snapshot"));

        for worker in workers {
            let (ok, bounced) = worker.join().unwrap();
            // Every pre-drain request completed; at most one bounce each.
            assert!(ok > 0);
            assert!(bounced <= 1);
        }
    });

    let report = server.wait();
    assert_eq!(report.metrics.protocol_errors, 0);
    let replayed = ref_serve::replay(market(), &report.journal).unwrap();
    assert_eq!(replayed.snapshot().encode(), report.snapshot);
}
