//! Fault-injection integration tests: a live TCP server with an armed
//! [`FaultPlan`] must degrade exactly as the durability and supervision
//! contracts promise — no lost state, no wedged threads, no lying
//! responses.

mod common;

use ref_core::resource::Capacity;
use ref_market::MarketConfig;
use ref_serve::{wal, Client, ClientError, FaultPlan, ServeConfig, Server, WalConfig};

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

    let m = client.metrics().unwrap();
    let server_metrics = m.get("server").unwrap();
    assert_eq!(
        server_metrics.get("wal_errors").unwrap().as_u64(),
        Some(1),
        "{m:?}"
    );
    assert_eq!(
        server_metrics.get("wal_appends").unwrap().as_u64(),
        Some(2),
        "{m:?}"
    );

    let report = server.shutdown();
    assert_eq!(report.journal.len(), 2);
    // The on-disk log is exactly the applied events — never ahead.
    let (first, events) = wal::read_events(dir.path()).unwrap();
    assert_eq!(first, 0);
    assert_eq!(events, report.journal);
    let replayed = ref_serve::replay(market(), &events).unwrap();
    assert_eq!(replayed.snapshot().encode(), report.snapshot);
}

#[test]
fn ticker_panic_degrades_the_server_but_reads_and_recovery_survive() {
    let dir = TempDir::new("tickpanic");
    let config = ServeConfig::new(market())
        .with_epoch_interval(None)
        .with_wal(WalConfig::new(dir.path()))
        .with_faults(FaultPlan {
            panic_on_event: Some(1),
            ..FaultPlan::default()
        });
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    client.join_external(1).unwrap();
    // Seq 1 is appended durably, then the ticker panics before applying
    // it: the carrying request's reply channel dies.
    let err = client.join_external(2).unwrap_err();
    assert_eq!(code_of(&err), Some("internal"), "{err}");

    // The supervisor flips the server into degraded mode: mutations are
    // refused...
    let err = client.join_external(3).unwrap_err();
    assert_eq!(code_of(&err), Some("degraded"), "{err}");
    let err = client.tick().unwrap_err();
    assert_eq!(code_of(&err), Some("degraded"), "{err}");
    // ...but reads keep serving.
    let q = client.query().unwrap();
    assert_eq!(q.get("agents").unwrap().as_array().unwrap().len(), 1);
    client.snapshot().unwrap();
    let m = client.metrics().unwrap();
    let server_metrics = m.get("server").unwrap();
    assert_eq!(
        server_metrics.get("ticker_panics").unwrap().as_u64(),
        Some(1)
    );
    assert_eq!(server_metrics.get("degraded").unwrap().as_u64(), Some(1));

    // Shutdown still drains; the live engine never saw the orphaned
    // event...
    let report = server.shutdown();
    assert_eq!(report.journal.len(), 1);
    // ...but the WAL kept it, so recovery replays it: crash-then-recover
    // loses nothing that was admitted and durably logged.
    let recovered = Server::recover(
        "127.0.0.1:0",
        ServeConfig::new(market())
            .with_epoch_interval(None)
            .with_wal(WalConfig::new(dir.path())),
    )
    .unwrap();
    let mut client = Client::connect(recovered.addr()).unwrap();
    let q = client.query().unwrap();
    assert_eq!(
        q.get("agents").unwrap().as_array().unwrap().len(),
        2,
        "recovery must replay the durable-but-unapplied event"
    );
    recovered.shutdown();
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
    let m = bystander.metrics().unwrap();
    let server_metrics = m.get("server").unwrap();
    assert_eq!(
        server_metrics.get("reader_panics").unwrap().as_u64(),
        Some(1)
    );
    // The poisoned connection stays dead.
    assert!(victim.tick().is_err());

    // The drop guard released the panicked connection's slot, so the
    // drain does not wait on a ghost connection.
    server.shutdown();
}
