//! Replication end-to-end: a live primary/standby pair over real TCP.
//! Covers bit-identical mirroring, explicit promotion with fencing of
//! the deposed primary, automatic promotion on heartbeat lapse with
//! client failover, and the divergence invariant — a corrupted standby
//! is fenced, never promoted.

mod common;

use std::path::Path;
use std::time::{Duration, Instant};

use ref_core::resource::Capacity;
use ref_market::MarketConfig;
use ref_serve::repl::{parse_frame, Frame};
use ref_serve::{
    wal, CallOpts, Client, ClientError, FaultPlan, FsStorage, ReplConfig, Role, ServeConfig,
    Server, Value, WalConfig,
};

use common::TempDir;

fn market() -> MarketConfig {
    MarketConfig::new(Capacity::new(vec![16.0, 8.0]).unwrap())
}

/// Polls `check` until it returns true or `deadline` elapses.
fn wait_for(what: &str, deadline: Duration, mut check: impl FnMut() -> bool) {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if check() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out after {deadline:?} waiting for {what}");
}

fn ping_u64(client: &mut Client, field: &str) -> u64 {
    client
        .ping()
        .unwrap()
        .get(field)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("ping reply missing {field}"))
}

fn ping_role(client: &mut Client) -> String {
    client
        .ping()
        .unwrap()
        .get("role")
        .and_then(Value::as_str)
        .expect("ping reply missing role")
        .to_string()
}

/// Starts a primary with a WAL and a replication listener.
fn start_primary(dir: &Path, epoch: Option<Duration>) -> Server {
    let config = ServeConfig::new(market())
        .with_epoch_interval(epoch)
        .with_wal(WalConfig::new(dir))
        .with_repl(ReplConfig::primary("127.0.0.1:0"));
    Server::start("127.0.0.1:0", config).unwrap()
}

/// Starts a standby of `primary`, with its own WAL directory.
fn start_standby(dir: &Path, primary: &Server, repl: ReplConfig) -> Server {
    let config = ServeConfig::new(market())
        .with_epoch_interval(primary.config().epoch_interval)
        .with_wal(WalConfig::new(dir))
        .with_repl(repl);
    Server::start("127.0.0.1:0", config).unwrap()
}

fn standby_config(primary: &Server) -> ReplConfig {
    ReplConfig::standby("127.0.0.1:0", primary.repl_addr().unwrap().to_string())
}

#[test]
fn standby_mirrors_the_primary_bit_identically() {
    let (pdir, sdir) = (TempDir::new("mirror-p"), TempDir::new("mirror-s"));
    let primary = start_primary(pdir.path(), None);
    let standby = start_standby(
        sdir.path(),
        &primary,
        standby_config(&primary).with_auto_promote(false),
    );

    let mut client = Client::connect(primary.addr()).unwrap();
    for agent in 1u64..=3 {
        client.join_external(agent).unwrap();
        for i in 0..20 {
            client
                .observe(agent, &[1.0 + agent as f64, 2.0], 0.5 + 0.05 * i as f64)
                .unwrap();
        }
    }

    // Quiesce, then wait for the standby to reach the primary's tail.
    let mut pping = Client::connect(primary.addr()).unwrap();
    let mut sping = Client::connect(standby.addr()).unwrap();
    let tail = ping_u64(&mut pping, "wal_seq");
    assert!(tail >= 63, "expected 63 events, saw {tail}");
    wait_for("standby catch-up", Duration::from_secs(10), || {
        ping_u64(&mut sping, "wal_seq") == tail
    });
    assert_eq!(ping_role(&mut sping), "standby");
    assert_eq!(ping_role(&mut pping), "primary");
    assert_eq!(primary.metrics().standby_connected, 1);
    assert_eq!(primary.metrics().repl_records_sent, tail);

    // Same events through the same engine: snapshots are byte-identical.
    let standby_report = standby.shutdown();
    let primary_report = primary.shutdown();
    assert_eq!(standby_report.snapshot, primary_report.snapshot);
    assert_eq!(standby_report.metrics.protocol_errors, 0);
    assert_eq!(primary_report.metrics.protocol_errors, 0);
}

#[test]
fn late_joining_standby_catches_up_from_checkpoint_and_log() {
    let (pdir, sdir) = (TempDir::new("late-p"), TempDir::new("late-s"));
    // A checkpoint every 8 records over small segments: the primary
    // prunes what each checkpoint covers.
    let config = ServeConfig::new(market())
        .with_epoch_interval(None)
        .with_wal(
            WalConfig::new(pdir.path())
                .with_checkpoint_every(8)
                .with_segment_max_bytes(512),
        )
        .with_repl(ReplConfig::primary("127.0.0.1:0"));
    let primary = Server::start("127.0.0.1:0", config).unwrap();

    // History exists before the standby is even born, and its head is
    // pruned: only a checkpoint covers it.
    let mut client = Client::connect(primary.addr()).unwrap();
    client.join_external(1).unwrap();
    for i in 0..60 {
        client
            .observe(1, &[2.0, 1.0], 1.0 + 0.01 * i as f64)
            .unwrap();
    }
    let (first, _) = wal::read_events_with(&FsStorage, pdir.path()).unwrap();
    assert!(first > 0, "the primary kept its whole log");

    let standby = start_standby(
        sdir.path(),
        &primary,
        standby_config(&primary).with_auto_promote(false),
    );
    let mut pping = Client::connect(primary.addr()).unwrap();
    let mut sping = Client::connect(standby.addr()).unwrap();
    let tail = ping_u64(&mut pping, "wal_seq");
    wait_for("late standby catch-up", Duration::from_secs(10), || {
        ping_u64(&mut sping, "wal_seq") == tail
    });
    // Bootstrapped from a `snap`: its own log starts at the checkpoint.
    let (restored_at, _) = wal::read_events_with(&FsStorage, sdir.path()).unwrap();
    assert!(restored_at > 0, "the standby replayed the log from 0");

    // It then follows the live stream.
    client.observe(1, &[2.0, 1.0], 2.0).unwrap();
    wait_for("late standby follows", Duration::from_secs(10), || {
        ping_u64(&mut sping, "wal_seq") == tail + 1
    });

    let standby_report = standby.shutdown();
    let primary_report = primary.shutdown();
    assert_eq!(standby_report.snapshot, primary_report.snapshot);
}

#[test]
fn explicit_promote_fences_the_deposed_primary() {
    let (pdir, sdir) = (TempDir::new("promote-p"), TempDir::new("promote-s"));
    let primary = start_primary(pdir.path(), None);
    let standby = start_standby(
        sdir.path(),
        &primary,
        standby_config(&primary).with_auto_promote(false),
    );

    let mut client = Client::connect(primary.addr()).unwrap();
    client.join_external(1).unwrap();
    client.observe(1, &[1.0, 1.0], 1.0).unwrap();

    let mut pping = Client::connect(primary.addr()).unwrap();
    let mut sping = Client::connect(standby.addr()).unwrap();
    let tail = ping_u64(&mut pping, "wal_seq");
    wait_for("standby catch-up", Duration::from_secs(10), || {
        ping_u64(&mut sping, "wal_seq") == tail
    });

    // Mutations against a standby are redirected, not executed.
    let mut on_standby = Client::connect(standby.addr()).unwrap();
    match on_standby.join_external(9) {
        Err(ClientError::Server { code, leader, .. }) => {
            assert_eq!(code, "not_primary");
            assert_eq!(leader.as_deref(), Some(primary.addr().to_string().as_str()));
        }
        other => panic!("standby accepted a mutation: {other:?}"),
    }

    let reply = on_standby.promote().unwrap();
    let promoted = &reply.get("shards").and_then(Value::as_array).unwrap()[0];
    assert_eq!(
        promoted.get("role").and_then(Value::as_str),
        Some("primary")
    );
    assert_eq!(promoted.get("term").and_then(Value::as_u64), Some(1));
    assert_eq!(standby.role(), Role::Primary);

    // The deposed primary hears the higher term and fences itself: its
    // role flips and mutations are refused — no split brain.
    wait_for("old primary fenced", Duration::from_secs(10), || {
        primary.role() == Role::Fenced
    });
    match client.observe(1, &[1.0, 1.0], 1.0) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "fenced"),
        other => panic!("fenced primary accepted a mutation: {other:?}"),
    }
    assert_eq!(primary.metrics().fenced, 1);

    // The new primary takes writes.
    on_standby.join_external(9).unwrap();
    on_standby.observe(9, &[1.0, 1.0], 2.0).unwrap();

    standby.shutdown();
    primary.shutdown();
}

#[test]
fn heartbeat_lapse_auto_promotes_and_the_client_fails_over() {
    let (pdir, sdir) = (TempDir::new("auto-p"), TempDir::new("auto-s"));
    let primary = start_primary(pdir.path(), None);
    let standby = start_standby(
        sdir.path(),
        &primary,
        standby_config(&primary)
            .with_heartbeat_interval(Duration::from_millis(10))
            .with_election_timeout(Duration::from_millis(150)),
    );
    let primary_addr = primary.addr().to_string();
    let standby_addr = standby.addr().to_string();

    let mut client = Client::connect_seeds(&[primary_addr, standby_addr.clone()]).unwrap();
    client.join_external(1).unwrap();
    client.observe(1, &[1.0, 1.0], 1.0).unwrap();

    let mut sping = Client::connect(standby.addr()).unwrap();
    wait_for("standby catch-up", Duration::from_secs(10), || {
        ping_u64(&mut sping, "wal_seq") == 2
    });

    // Kill the primary: heartbeats stop, the standby's election timer
    // lapses, and it promotes itself.
    primary.shutdown();
    wait_for("auto-promotion", Duration::from_secs(10), || {
        standby.role() == Role::Primary
    });
    assert_eq!(standby.term(), 1);
    assert_eq!(standby.metrics().promotions, 1);

    // The client's next call walks its seed list and lands on the new
    // primary without the caller doing anything.
    let observe = Value::obj(vec![
        ("op", Value::str("observe")),
        ("agent", Value::from_u64(1)),
        ("allocation", Value::num_array(&[2.0, 1.0])),
        ("performance", Value::Num(1.5)),
    ]);
    let opts = CallOpts::default()
        .with_retries(50)
        .with_deadline(Duration::from_secs(10));
    let (reply, _retries) = client.call_with(&observe, &opts).unwrap();
    assert_eq!(reply.get("ok"), Some(&Value::Bool(true)));
    assert_eq!(client.current_addr(), standby_addr);

    let report = standby.shutdown();
    assert_eq!(report.metrics.protocol_errors, 0);
}

#[test]
fn divergent_standby_is_fenced_never_promoted() {
    let (pdir, sdir) = (TempDir::new("diverge-p"), TempDir::new("diverge-s"));
    // Epochs run so the fingerprint channel is live.
    let primary = start_primary(pdir.path(), Some(Duration::from_millis(2)));
    // The standby silently drops its 3rd replicated record: its state
    // forks from the primary's while its WAL looks healthy.
    let standby_cfg = ServeConfig::new(market())
        .with_epoch_interval(Some(Duration::from_millis(2)))
        .with_wal(WalConfig::new(sdir.path()))
        .with_repl(
            standby_config(&primary)
                .with_heartbeat_interval(Duration::from_millis(10))
                .with_election_timeout(Duration::from_millis(150)),
        )
        .with_faults(FaultPlan {
            corrupt_standby_at: Some(3),
            ..FaultPlan::default()
        });
    let standby = Server::start("127.0.0.1:0", standby_cfg).unwrap();

    let mut client = Client::connect(primary.addr()).unwrap();
    client.join_external(1).unwrap();
    for i in 0..20 {
        client
            .observe(1, &[1.0, 1.0], 1.0 + 0.1 * i as f64)
            .unwrap();
    }

    // The next epoch fingerprint the standby acks is wrong: the primary
    // detects the fork and fences the replica instead of trusting it.
    wait_for("divergence detected", Duration::from_secs(10), || {
        primary.metrics().divergences >= 1
    });
    wait_for("standby fenced", Duration::from_secs(10), || {
        standby.role() == Role::Fenced
    });
    assert_eq!(primary.metrics().standby_connected, 0);

    // Even with the primary gone and auto-promotion armed, a fenced
    // replica must never seize leadership.
    primary.shutdown();
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(standby.role(), Role::Fenced);
    let mut on_standby = Client::connect(standby.addr()).unwrap();
    match on_standby.promote() {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "fenced"),
        other => panic!("fenced standby promoted: {other:?}"),
    }
    standby.shutdown();
}

fn observe_req(agent: u64, performance: f64) -> Value {
    Value::obj(vec![
        ("op", Value::str("observe")),
        ("agent", Value::from_u64(agent)),
        ("allocation", Value::num_array(&[1.0, 1.0])),
        ("performance", Value::Num(performance)),
    ])
}

/// Runs a primary on `dir` long enough to leave history behind, then
/// "crashes" it and recovers it with the given election timeout.
fn recovered_primary(dir: &Path, election_timeout: Duration) -> Server {
    let first_life = start_primary(dir, None);
    let mut client = Client::connect(first_life.addr()).unwrap();
    client.join_external(1).unwrap();
    client.observe(1, &[1.0, 1.0], 1.0).unwrap();
    first_life.shutdown();
    let config = ServeConfig::new(market())
        .with_epoch_interval(None)
        .with_wal(WalConfig::new(dir))
        .with_repl(ReplConfig::primary("127.0.0.1:0").with_election_timeout(election_timeout));
    Server::recover("127.0.0.1:0", config).unwrap()
}

#[test]
fn recovered_primary_refuses_mutations_until_its_standby_reattaches() {
    let (pdir, sdir) = (TempDir::new("lease-p"), TempDir::new("lease-s"));
    // A 60 s lease: only a re-attaching standby can end it in time.
    let primary = recovered_primary(pdir.path(), Duration::from_secs(30));
    assert_eq!(primary.role(), Role::Primary);
    let mut client = Client::connect(primary.addr()).unwrap();
    // A standby whose election timer is already running may depose this
    // node any moment: a solo ack now could die with its branch.
    match client.call(&observe_req(1, 2.0)) {
        Err(ClientError::Server {
            code,
            retry_after_ms,
            ..
        }) => {
            assert_eq!(code, "unavailable");
            assert!(
                retry_after_ms.is_some_and(|ms| ms > 1_000),
                "{retry_after_ms:?}"
            );
        }
        other => panic!("a recovering primary took a mutation: {other:?}"),
    }
    // Reads and probes are served throughout.
    assert_eq!(ping_u64(&mut client, "wal_seq"), 2);
    client.query_agent(1).unwrap();

    let standby = start_standby(
        sdir.path(),
        &primary,
        standby_config(&primary).with_auto_promote(false),
    );
    wait_for(
        "the lease to end on re-attach",
        Duration::from_secs(10),
        || client.call(&observe_req(1, 2.0)).is_ok(),
    );
    let mut sping = Client::connect(standby.addr()).unwrap();
    wait_for("standby catch-up", Duration::from_secs(10), || {
        ping_u64(&mut sping, "wal_seq") == 3
    });
    let standby_report = standby.shutdown();
    let primary_report = primary.shutdown();
    assert_eq!(standby_report.snapshot, primary_report.snapshot);
}

#[test]
fn recovered_primary_admits_mutations_once_the_lease_lapses() {
    let pdir = TempDir::new("lapse-p");
    // No standby ever shows up: the lease (2 × 400 ms) has to lapse.
    let primary = recovered_primary(pdir.path(), Duration::from_millis(400));
    let mut client = Client::connect(primary.addr()).unwrap();
    let refused = client.call(&observe_req(1, 2.0)).unwrap_err();
    assert_eq!(refused.code(), Some("unavailable"), "{refused:?}");
    // `call_with` backs off on it like on `overloaded`: the hint is the
    // lease's remainder, so one sleep rides it out.
    let opts = CallOpts::default().with_retries(3);
    let (reply, retries) = client.call_with(&observe_req(1, 2.0), &opts).unwrap();
    assert_eq!(reply.get("ok"), Some(&Value::Bool(true)));
    assert!((1..=2).contains(&retries), "retries {retries}");
    primary.shutdown();
}

/// A scripted standby: a raw socket speaking the replication frames.
struct ScriptedStandby {
    stream: std::net::TcpStream,
    buf: Vec<u8>,
}

impl ScriptedStandby {
    fn hello(primary: &Server, term: u64, have: u64) -> ScriptedStandby {
        use std::io::Write;
        let mut stream = std::net::TcpStream::connect(primary.repl_addr().unwrap()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(&ref_serve::repl::message(
                "hello",
                vec![
                    ("term", Value::from_u64(term)),
                    ("have_seq", Value::from_u64(have)),
                ],
            ))
            .unwrap();
        ScriptedStandby {
            stream,
            buf: Vec::new(),
        }
    }

    fn next(&mut self) -> Frame {
        use std::io::Read;
        loop {
            if let ref_serve::FrameDecode::Complete { payload, consumed } =
                ref_serve::decode_frame(&self.buf)
            {
                self.buf.drain(..consumed);
                return parse_frame(payload).expect("a replication message");
            }
            let mut chunk = [0u8; 4096];
            let n = self.stream.read(&mut chunk).expect("primary went quiet");
            assert!(n > 0, "primary closed the replication stream");
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    fn next_of(&mut self, kind: &str) -> Frame {
        loop {
            let frame = self.next();
            if frame.kind() == kind {
                return frame;
            }
        }
    }
}

#[test]
fn a_hello_landing_mid_pass_is_judged_against_the_published_position() {
    // Regression: records are published mid-pass but the ticker exported
    // its log position only at the end of a pass, so a standby that
    // reconnected in between, already holding the record, was refused as
    // "ahead" — and fenced itself for good.
    use std::io::Write;
    let pdir = TempDir::new("midpass-p");
    let mut repl = ReplConfig::primary("127.0.0.1:0").with_sync(true);
    repl.ack_timeout = Duration::from_secs(20);
    let config = ServeConfig::new(market())
        .with_epoch_interval(None)
        .with_wal(WalConfig::new(pdir.path()))
        .with_repl(repl);
    let primary = Server::start("127.0.0.1:0", config).unwrap();

    // A first standby attaches and then never acks: the pass that
    // publishes the next record stays open, waiting for it.
    let mut mute = ScriptedStandby::hello(&primary, 0, 0);
    assert_eq!(mute.next().kind(), "meta");
    let addr = primary.addr();
    let writer = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.join_external(1)
    });
    let rec = mute.next_of("rec");
    assert!(matches!(rec, Frame::Rec { seq: 0, .. }), "{rec:?}");

    // Mid-pass: record 0 is published, the pass has not ended. A standby
    // that already holds it says hello.
    let mut caught_up = ScriptedStandby::hello(&primary, 0, 1);
    let verdict = caught_up.next();
    assert_eq!(verdict.kind(), "meta", "{verdict:?}");
    // Its ack releases the held reply.
    caught_up
        .stream
        .write_all(&ref_serve::repl::message(
            "ack",
            vec![("have", Value::from_u64(1))],
        ))
        .unwrap();
    writer.join().unwrap().expect("the join was acked");
    primary.shutdown();
}

fn op(name: &str) -> Value {
    Value::obj(vec![("op", Value::str(name))])
}

#[test]
fn fleet_ops_pass_a_standbys_refusals_through_and_clients_redial() {
    let (pdir, sdir) = (TempDir::new("pass-p"), TempDir::new("pass-s"));
    let primary = start_primary(pdir.path(), None);
    let standby = start_standby(
        sdir.path(),
        &primary,
        standby_config(&primary).with_auto_promote(false),
    );
    let mut client = Client::connect(primary.addr()).unwrap();
    client.join_external(1).unwrap();
    let mut sping = Client::connect(standby.addr()).unwrap();
    wait_for("standby catch-up", Duration::from_secs(10), || {
        ping_u64(&mut sping, "wal_seq") == 1
    });

    // A fleet tick on the standby answers the one shard's redirect, with
    // its leader hint, tagged with the shard.
    let mut on_standby = Client::connect(standby.addr()).unwrap();
    match on_standby.tick() {
        Err(ClientError::Server {
            code,
            leader,
            shard,
            ..
        }) => {
            assert_eq!(code, "not_primary");
            assert_eq!(leader, Some(primary.addr().to_string()));
            assert_eq!(shard, Some(0));
        }
        other => panic!("a standby ticked: {other:?}"),
    }
    // Reads are served, in the fleet shape.
    let query = on_standby.query().unwrap();
    assert_eq!(
        query
            .get("agents")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(1)
    );
    assert_eq!(on_standby.snapshot().unwrap(), client.snapshot().unwrap());
    // `call_with` follows the passed-through hint to the primary.
    let seeds = [standby.addr().to_string(), primary.addr().to_string()];
    let mut failover = Client::connect_seeds(&seeds).unwrap();
    let (tick, retries) = failover
        .call_with(&op("tick"), &CallOpts::default())
        .unwrap();
    assert!(retries >= 1, "{tick}");
    assert_eq!(failover.current_addr(), primary.addr().to_string());

    // Promoted, the standby fences the old primary, whose fleet ops then
    // pass `fenced` through — `promote` included.
    on_standby.promote().unwrap();
    wait_for("old primary fenced", Duration::from_secs(10), || {
        primary.role() == Role::Fenced
    });
    for name in ["tick", "promote"] {
        let err = client.call(&op(name)).unwrap_err();
        assert_eq!(err.code(), Some("fenced"), "{name}: {err:?}");
    }
    standby.shutdown();
    primary.shutdown();
}

#[test]
fn a_replicated_primary_that_panics_is_not_restarted_in_place() {
    // The record whose apply panicked was appended but never streamed: a
    // restart from the log would leave the standby one record short, so
    // the node stays Down and stops heartbeating, and its standby's
    // election replaces it.
    let (pdir, sdir) = (TempDir::new("panic-p"), TempDir::new("panic-s"));
    let heartbeat = Duration::from_millis(10);
    let config = ServeConfig::new(market())
        .with_epoch_interval(None)
        .with_wal(WalConfig::new(pdir.path()))
        .with_repl(ReplConfig::primary("127.0.0.1:0").with_heartbeat_interval(heartbeat))
        .with_faults(FaultPlan {
            panic_on_event: Some(1),
            ..FaultPlan::default()
        });
    let primary = Server::start("127.0.0.1:0", config).unwrap();
    let standby = start_standby(
        sdir.path(),
        &primary,
        standby_config(&primary)
            .with_heartbeat_interval(heartbeat)
            .with_election_timeout(Duration::from_millis(150)),
    );
    let mut client = Client::connect(primary.addr()).unwrap();
    client.join_external(1).unwrap();
    let mut sping = Client::connect(standby.addr()).unwrap();
    wait_for("standby catch-up", Duration::from_secs(10), || {
        ping_u64(&mut sping, "wal_seq") == 1
    });
    let err = client.join_external(2).unwrap_err();
    assert_eq!(err.code(), Some("internal"), "{err:?}");

    // The standby elects itself and serves the history the pair agreed
    // on: agent 1, without the record that panicked. It takes writes.
    wait_for("auto-promotion", Duration::from_secs(10), || {
        standby.role() == Role::Primary
    });
    let mut on_standby = Client::connect(standby.addr()).unwrap();
    let query = on_standby.query().unwrap();
    assert_eq!(
        query.get("agents").and_then(Value::as_array),
        Some(&[Value::from_u64(1)][..]),
        "{query}"
    );
    on_standby.join_external(2).unwrap();

    // Many supervisor sweeps later the old primary is still Down.
    assert_eq!(primary.shard_health(0), ref_serve::ShardHealth::Down);
    let err = client.join_external(3).unwrap_err();
    assert_eq!(err.code(), Some("shard_unavailable"), "{err:?}");
    standby.shutdown();
    let report = primary.shutdown();
    assert_eq!(report.metrics.shard_restarts, 0);
    assert_eq!(report.metrics.degraded, 1);
}
