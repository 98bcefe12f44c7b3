//! The ownership rule of the request path — whoever holds the shard lock
//! may touch the core — exercised over real TCP: many connection threads
//! serving inline against one total order, pipelining, a panic on a
//! connection thread, the shard thread's share of the lock under inline
//! load, and replication without relay threads.

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use ref_core::resource::Capacity;
use ref_market::MarketConfig;
use ref_serve::repl::{message, parse_frame, Frame};
use ref_serve::shard::RING_SEED;
use ref_serve::{
    decode_frame, shard_market_config, Client, ClientError, FaultPlan, FrameDecode, HashRing,
    ReplConfig, ServeConfig, Server, ShardHealth, Value, WalConfig,
};

use common::TempDir;

fn market() -> MarketConfig {
    MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap())
}

fn config(shards: usize) -> ServeConfig {
    ServeConfig::new(market())
        .with_epoch_interval(None)
        .with_shards(shards)
}

/// The first `count` agent ids the ring places on `shard`.
fn agents_on(ring: &HashRing, shard: usize, count: usize) -> Vec<u64> {
    (0..u64::MAX)
        .filter(|a| ring.shard_of(*a) == shard)
        .take(count)
        .collect()
}

fn code_of(err: &ClientError) -> Option<&str> {
    match err {
        ClientError::Server { code, .. } => Some(code.as_str()),
        _ => None,
    }
}

#[test]
fn concurrent_inline_serving_keeps_one_replayable_order_per_shard() {
    const CONNECTIONS: u64 = 8;
    const OPS: u64 = 500;
    for shards in [1usize, 4] {
        let dir = TempDir::new("order");
        // Frequent checkpoints: each is streamed to disk under the shard
        // lock by whichever thread applies the event that makes it due —
        // mid-traffic, dozens of times per shard.
        let wal = WalConfig::new(dir.path())
            .with_checkpoint_every(64)
            .with_retain_history(true);
        let config = config(shards).with_wal(wal);
        let server = Server::start("127.0.0.1:0", config.clone()).unwrap();
        let addr = server.addr();
        // Requests that reach one shard, and requests fanned to all.
        let (single, fleet) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|scope| {
            for worker in 0..CONNECTIONS {
                let (single, fleet) = (&single, &fleet);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mine = |k: u64| worker * 1_000 + k % 5;
                    for k in 0..5 {
                        client.join_external(mine(k)).unwrap();
                    }
                    for i in 0..OPS - 5 {
                        let agent = mine(i);
                        match i % 50 {
                            0 => {
                                client.tick().unwrap();
                                fleet.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            1 => {
                                client.query().unwrap();
                                fleet.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            // Churn: an agent leaves and comes back.
                            2 => drop(client.leave(mine(0)).unwrap()),
                            3 => drop(client.join_external(mine(0)).unwrap()),
                            k if k % 3 == 0 => drop(client.query_agent(agent).unwrap()),
                            _ => {
                                let x = 1.0 + (i % 7) as f64;
                                drop(client.observe(agent, &[x, 2.0], 0.5 + x / 10.0).unwrap());
                            }
                        }
                        single.fetch_add(1, Ordering::Relaxed);
                    }
                    single.fetch_add(5, Ordering::Relaxed);
                });
            }
        });

        let report = server.shutdown();
        let accepted: u64 = report.shards.iter().map(|s| s.metrics.accepted).sum();
        let fan = if shards == 1 { 1 } else { shards as u64 };
        assert_eq!(
            accepted,
            single.load(Ordering::Relaxed) + fan * fleet.load(Ordering::Relaxed),
            "{shards} shard(s)"
        );
        assert_eq!(
            single.load(Ordering::Relaxed) + fleet.load(Ordering::Relaxed),
            CONNECTIONS * OPS
        );
        for shard in &report.shards {
            assert_eq!(shard.metrics.rejected_overload, 0);
            assert_eq!(shard.metrics.ticker_panics + shard.metrics.reader_panics, 0);
            assert_eq!(shard.metrics.checkpoints, shard.journal.len() as u64 / 64);
            // Lock order is the order the journal recorded: replaying it
            // offline lands on the very state the shard shut down with.
            assert!(!shard.journal_overflowed);
            let replayed =
                ref_serve::replay(shard_market_config(&market(), shards), &shard.journal).unwrap();
            assert_eq!(
                replayed.snapshot().encode(),
                shard.snapshot,
                "{shards} shard(s), shard {}",
                shard.shard
            );
        }
        // And it is the order the WAL recorded.
        let recovered = Server::recover("127.0.0.1:0", config).unwrap().shutdown();
        for (live, recovered) in report.shards.iter().zip(&recovered.shards) {
            assert_eq!(live.snapshot, recovered.snapshot, "{shards} shard(s)");
        }
    }
}

#[test]
fn pipelined_lines_are_answered_in_order() {
    for shards in [1usize, 4] {
        let server = Server::start("127.0.0.1:0", config(shards)).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // 200 lines in one write: each join is followed by a query of
        // the agent it admitted, so an answer out of order — or a query
        // served ahead of its join — shows.
        let mut lines = String::new();
        for agent in 0..100u64 {
            lines.push_str(&format!(
                "{{\"op\":\"join\",\"agent\":{agent},\"source\":{{\"kind\":\"external\"}}}}\n"
            ));
            lines.push_str(&format!("{{\"op\":\"query\",\"agent\":{agent}}}\n"));
        }
        stream.write_all(lines.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream);
        for agent in 0..100u64 {
            for is_query in [false, true] {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                let reply = Value::parse(line.trim_end()).unwrap();
                assert_eq!(reply.get("ok"), Some(&Value::Bool(true)), "{reply}");
                let echoed = reply.get("agent").and_then(Value::as_u64);
                assert_eq!(
                    echoed,
                    is_query.then_some(agent),
                    "{shards} shard(s): {reply}"
                );
            }
        }
        let report = server.shutdown();
        let joined: usize = report.shards.iter().map(|s| s.journal.len()).sum();
        assert_eq!(joined, 100);
    }
}

#[test]
fn a_panic_on_a_connection_thread_costs_one_request_not_the_lock() {
    for shards in [1usize, 2] {
        let dir = TempDir::new("panic");
        let config = config(shards)
            .with_wal(WalConfig::new(dir.path()))
            .with_faults(FaultPlan {
                panic_on_event: Some(1),
                ..FaultPlan::default()
            });
        let server = Server::start("127.0.0.1:0", config).unwrap();
        let ring = HashRing::new(shards, RING_SEED);
        let on0 = agents_on(&ring, 0, 3);
        let mut victim = Client::connect(server.addr()).unwrap();
        let mut other = Client::connect(server.addr()).unwrap();
        victim.join_external(on0[0]).unwrap();
        // Seq 1 is durable, then the thread serving it — this
        // connection's own — panics under the shard lock.
        let err = victim.join_external(on0[1]).unwrap_err();
        assert_eq!(code_of(&err), Some("internal"), "{err}");
        // The lock is not poisoned: the supervisor restarts the shard
        // from its WAL, replaying the durable record whose apply
        // panicked. (With two shards, shard 1 runs the same plan and
        // panics on its own second record, one of the ticks below; it is
        // restarted the same way.)
        let deadline = Instant::now() + Duration::from_secs(30);
        while (0..shards).any(|shard| server.shard_health(shard) != ShardHealth::Healthy)
            || server.metrics().shard_restarts < shards as u64
        {
            assert!(Instant::now() < deadline, "{shards} shard(s) never healed");
            // While every shard is Down the tick is refused.
            let _ = other.tick();
            std::thread::sleep(Duration::from_millis(10));
        }
        other.query_agent(on0[1]).unwrap();
        // The connection whose request panicked still works.
        victim.join_external(on0[2]).unwrap();
        let report = server.shutdown();
        assert_eq!(report.metrics.shard_restarts, shards as u64);
        for shard in &report.shards {
            assert_eq!(shard.metrics.ticker_panics, 1);
            assert_eq!(shard.metrics.reader_panics, 0);
            assert_eq!(shard.metrics.degraded, 0);
        }
    }
}

#[test]
fn fanned_ticks_are_not_starved_by_inline_traffic() {
    let budget = Duration::from_secs(2);
    let server = Server::start("127.0.0.1:0", config(2).with_shard_tick_budget(budget)).unwrap();
    let addr = server.addr();
    let ring = HashRing::new(2, RING_SEED);
    let hot = agents_on(&ring, 0, 8);
    let stop = AtomicBool::new(false);
    let observed = AtomicU64::new(0);
    // The eight observers and the ticker: the first tick waits until every
    // observer has landed one observe, so the ticks below compete with
    // traffic that is already flowing, not with thread start-up.
    let flowing = Barrier::new(hot.len() + 1);
    std::thread::scope(|scope| {
        // Eight connections saturate shard 0 with inline observes.
        for &agent in &hot {
            let (stop, observed, flowing) = (&stop, &observed, &flowing);
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.join_external(agent).unwrap();
                client.observe(agent, &[2.0, 1.0], 1.0).unwrap();
                observed.fetch_add(1, Ordering::Relaxed);
                flowing.wait();
                while !stop.load(Ordering::Relaxed) {
                    client.observe(agent, &[2.0, 1.0], 1.0).unwrap();
                    observed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // The shard thread still gets the lock for every fanned tick.
        let mut client = Client::connect(addr).unwrap();
        flowing.wait();
        for epoch in 1..=20u64 {
            let started = Instant::now();
            let tick = client.tick().unwrap();
            assert!(
                started.elapsed() < budget,
                "tick took {:?}",
                started.elapsed()
            );
            assert_eq!(tick.get("epoch").and_then(Value::as_u64), Some(epoch));
            let report = tick.get("report").expect("a merged report");
            assert_eq!(report.get("partial"), None, "{tick}");
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert!(observed.load(Ordering::Relaxed) > 0);
    assert_eq!(server.shard_health(0), ShardHealth::Healthy);
    let report = server.shutdown();
    assert_eq!(report.metrics.partial_epochs, 0);
    assert_eq!(report.shards[0].metrics.epochs, 20);
}

/// A scripted standby: a raw socket speaking the replication frames.
struct ScriptedStandby {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl ScriptedStandby {
    fn hello(primary: &Server, have: u64) -> ScriptedStandby {
        let mut stream = TcpStream::connect(primary.repl_addr().unwrap()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let fields = vec![
            ("term", Value::from_u64(0)),
            ("have_seq", Value::from_u64(have)),
        ];
        stream.write_all(&message("hello", fields)).unwrap();
        ScriptedStandby {
            stream,
            buf: Vec::new(),
        }
    }

    /// The next whole frame, or `None` once the primary closed the
    /// stream (whatever partial frame it left behind is discarded).
    fn next(&mut self) -> Option<Frame> {
        loop {
            match decode_frame(&self.buf) {
                FrameDecode::Complete { payload, consumed } => {
                    self.buf.drain(..consumed);
                    return Some(parse_frame(payload).expect("a replication message"));
                }
                FrameDecode::Incomplete => {}
                FrameDecode::Corrupt(detail) => panic!("corrupt frame: {detail}"),
            }
            let mut chunk = [0u8; 64 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) | Err(_) => return None,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
            }
        }
    }

    /// Reads `rec` frames (skipping heartbeats) and checks they carry
    /// exactly `from, from + 1, …`; stops at `until` or at end of
    /// stream and returns the next sequence owed.
    fn records(&mut self, from: u64, until: Option<u64>) -> u64 {
        let mut next = from;
        while until.is_none_or(|until| next < until) {
            let Some(frame) = self.next() else {
                break;
            };
            if let Frame::Rec { seq, .. } = frame {
                assert_eq!(seq, next, "a gap or a duplicate in the stream");
                next += 1;
            }
        }
        next
    }
}

fn primary(dir: &Path) -> Server {
    let config = config(1)
        .with_wal(WalConfig::new(dir))
        .with_repl(ReplConfig::primary("127.0.0.1:0"));
    Server::start("127.0.0.1:0", config).unwrap()
}

#[test]
fn the_standby_gauge_is_published_when_the_sink_registers() {
    let dir = TempDir::new("gauge");
    let server = primary(dir.path());
    let mut client = Client::connect(server.addr()).unwrap();
    client.join_external(1).unwrap();
    assert_eq!(server.metrics().standby_connected, 0);
    // The disk catch-up that ships record 0 starts after the sink is
    // registered: by the time the record is here the gauge must read 1 —
    // this standby has not written a single ack, and no heartbeat
    // interval has had to pass.
    let mut standby = ScriptedStandby::hello(&server, 0);
    assert_eq!(standby.next().unwrap().kind(), "meta");
    assert_eq!(standby.records(0, Some(1)), 1);
    assert_eq!(server.metrics().standby_connected, 1);
    // And it reads 0 again as soon as the primary has seen it leave.
    drop(standby);
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().standby_connected != 0 {
        assert!(Instant::now() < deadline, "the sink was never dropped");
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
}

#[test]
fn a_standby_that_stops_reading_is_dropped_and_catches_up_cleanly() {
    let dir = TempDir::new("slow");
    let server = primary(dir.path());
    let mut client = Client::connect(server.addr()).unwrap();
    client.join_external(1).unwrap();
    let mut standby = ScriptedStandby::hello(&server, 0);
    assert_eq!(standby.next().unwrap().kind(), "meta");
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.metrics().standby_connected != 1 {
        assert!(Instant::now() < deadline, "the standby never attached");
        std::thread::sleep(Duration::from_millis(1));
    }

    // The standby reads nothing from here on. Every observe is still
    // acked, and once the socket's buffers are full the write that
    // cannot complete within the send timeout drops the sink: the one
    // observe that met it waited out that timeout, none waited longer.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut slowest = Duration::ZERO;
    let mut sent = 1u64;
    while server.metrics().standby_connected != 0 {
        assert!(
            Instant::now() < deadline,
            "the mute standby was never dropped"
        );
        let started = Instant::now();
        client
            .observe(
                1,
                &[1.0 + (sent % 9) as f64 / 7.0, 2.0],
                0.123_456_789_012_345_6,
            )
            .unwrap();
        slowest = slowest.max(started.elapsed());
        sent += 1;
    }
    assert!(
        slowest < Duration::from_secs(2),
        "an observe took {slowest:?}"
    );
    for _ in 0..100 {
        client.observe(1, &[1.5, 2.0], 0.75).unwrap();
        sent += 1;
    }

    // What the standby had been sent is a gapless prefix (the last frame
    // possibly cut short by the drop, which the framing hides).
    let held = standby.records(0, None);
    assert!(held > 1 && held < sent, "held {held} of {sent}");
    // Reconnecting with what it holds, it is caught up from the log and
    // then fed live: every sequence once, in order, to the very end.
    let mut standby = ScriptedStandby::hello(&server, held);
    assert_eq!(standby.next().unwrap().kind(), "meta");
    client.observe(1, &[1.5, 2.0], 0.8).unwrap();
    sent += 1;
    assert_eq!(standby.records(held, Some(sent)), sent);
    assert_eq!(server.metrics().standby_connected, 1);
    let report = server.shutdown();
    assert_eq!(report.journal.len() as u64, sent);
    assert_eq!(report.metrics.wal_errors, 0);
}
