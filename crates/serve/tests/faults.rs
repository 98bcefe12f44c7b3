//! Fault-injection integration tests: a live TCP server with an armed
//! [`FaultPlan`] must degrade exactly as the durability and supervision
//! contracts promise — no lost state, no wedged threads, no lying
//! responses.

mod common;

use std::time::Duration;

use ref_core::resource::Capacity;
use ref_market::MarketConfig;
use ref_serve::shard::RING_SEED;
use ref_serve::{
    wal, CallOpts, Client, ClientError, FaultPlan, FsStorage, HashRing, ServeConfig, Server, Value,
    WalConfig,
};

use common::TempDir;

fn market() -> MarketConfig {
    MarketConfig::new(Capacity::new(vec![16.0, 8.0]).unwrap())
}

fn code_of(err: &ClientError) -> Option<&str> {
    match err {
        ClientError::Server { code, .. } => Some(code.as_str()),
        _ => None,
    }
}

/// Shard 0's server counters, from a fleet `metrics` reply.
fn server_metrics(client: &mut Client) -> Value {
    let reply = client.metrics().unwrap();
    let shards = reply.get("shards").and_then(Value::as_array).unwrap();
    shards[0].get("server").unwrap().clone()
}

#[test]
fn transient_wal_append_failure_rejects_the_event_then_recovers() {
    let dir = TempDir::new("appfail");
    let config = ServeConfig::new(market())
        .with_epoch_interval(None)
        .with_wal(WalConfig::new(dir.path()))
        .with_faults(FaultPlan {
            fail_append_at: Some(1),
            ..FaultPlan::default()
        });
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    client.join_external(1).unwrap();
    // Seq 1's append fails: the event is rejected fail-closed, with the
    // engine state untouched.
    let err = client.join_external(2).unwrap_err();
    assert_eq!(code_of(&err), Some("wal"), "{err}");
    let q = client.query().unwrap();
    assert_eq!(q.get("agents").unwrap().as_array().unwrap().len(), 1);
    // The fault is transient: retrying the same event succeeds.
    client.join_external(2).unwrap();

    let m = server_metrics(&mut client);
    assert_eq!(m.get("wal_errors").unwrap().as_u64(), Some(1), "{m:?}");
    assert_eq!(m.get("wal_appends").unwrap().as_u64(), Some(2), "{m:?}");

    let report = server.shutdown();
    assert_eq!(report.journal.len(), 2);
    // The on-disk log is exactly the applied events — never ahead.
    let (first, events) = wal::read_events_with(&FsStorage, dir.path()).unwrap();
    assert_eq!(first, 0);
    assert_eq!(events, report.journal);
    let replayed = ref_serve::replay(market(), &events).unwrap();
    assert_eq!(replayed.snapshot().encode(), report.snapshot);
}

#[test]
fn a_panic_under_the_lock_restarts_the_shard_from_its_wal() {
    for shards in [1usize, 2] {
        let dir = TempDir::new("tickpanic");
        let config = ServeConfig::new(market())
            .with_epoch_interval(None)
            .with_shards(shards)
            .with_wal(WalConfig::new(dir.path()));
        let faults = FaultPlan {
            panic_on_event: Some(1),
            ..FaultPlan::default()
        };
        let server = Server::start("127.0.0.1:0", config.clone().with_faults(faults)).unwrap();
        let ring = HashRing::new(shards, RING_SEED);
        let on0: Vec<u64> = (0..u64::MAX)
            .filter(|a| ring.shard_of(*a) == 0)
            .take(2)
            .collect();
        let mut client = Client::connect(server.addr()).unwrap();

        client.join_external(on0[0]).unwrap();
        // Seq 1 is appended durably, then the thread applying it panics:
        // the carrying request is the one casualty.
        let err = client.join_external(on0[1]).unwrap_err();
        assert_eq!(code_of(&err), Some("internal"), "{err}");

        // The shard is Down (`shard_unavailable`) until the supervisor has
        // restarted it from its WAL; `call_with` rides that out, and the
        // durable-but-unapplied event is served live.
        let query = Value::obj(vec![
            ("op", Value::str("query")),
            ("agent", Value::from_u64(on0[1])),
        ]);
        let opts = CallOpts::default()
            .with_retries(100)
            .with_deadline(Duration::from_secs(10));
        let (reply, _) = client.call_with(&query, &opts).unwrap();
        assert_eq!(reply.get("agent").and_then(Value::as_u64), Some(on0[1]));
        let q = client.query().unwrap();
        assert_eq!(
            q.get("agents").unwrap().as_array().unwrap().len(),
            2,
            "{shards} shard(s): {q}"
        );
        assert_eq!(server.metrics().shard_restarts, 1);
        let m = server_metrics(&mut client);
        assert_eq!(m.get("ticker_panics").unwrap().as_u64(), Some(1));
        assert_eq!(m.get("degraded").unwrap().as_u64(), Some(0));
        client.join_external(on0[1] + 1_000_000).unwrap();

        // Every shard's WAL recovers exactly its shutdown snapshot.
        let report = server.shutdown();
        let recovered = Server::recover("127.0.0.1:0", config).unwrap().shutdown();
        for (live, recovered) in report.shards.iter().zip(&recovered.shards) {
            assert_eq!(live.snapshot, recovered.snapshot, "{shards} shard(s)");
        }
    }
}

#[test]
fn reader_panic_kills_only_its_own_connection() {
    let config = ServeConfig::new(market())
        .with_epoch_interval(None)
        .with_faults(FaultPlan {
            panic_on_line_token: Some("987654321".to_string()),
            ..FaultPlan::default()
        });
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut victim = Client::connect(server.addr()).unwrap();
    let mut bystander = Client::connect(server.addr()).unwrap();

    victim.join_external(1).unwrap();
    bystander.join_external(2).unwrap();

    // The poisoned line panics its reader thread; the connection dies
    // without a reply.
    assert!(victim.leave(987_654_321).is_err());

    // Every other connection keeps working.
    bystander.tick().unwrap();
    let q = bystander.query().unwrap();
    assert_eq!(q.get("agents").unwrap().as_array().unwrap().len(), 2);
    let m = server_metrics(&mut bystander);
    assert_eq!(m.get("reader_panics").unwrap().as_u64(), Some(1));
    // The poisoned connection stays dead.
    assert!(victim.tick().is_err());

    // The drop guard released the panicked connection's slot, so the
    // drain does not wait on a ghost connection.
    server.shutdown();
}
