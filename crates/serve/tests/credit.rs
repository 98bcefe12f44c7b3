//! Credit-market serving invariants.
//!
//! The credit mechanism threads ledger state through every layer the
//! server owns: the wire protocol (per-agent `credit` in queries, ledger
//! totals in `metrics`), the journal (replay must reproduce the ledger
//! bit for bit, because the ledger is a pure function of the event
//! history), the v4 snapshot (WAL checkpoints round-trip it), and the
//! shard router (a credit market only boots when the equal capacity
//! split is exact). Each test pins one of those seams.

mod common;

use ref_core::mechanism::CreditInner;
use ref_core::resource::Capacity;
use ref_market::{MarketConfig, MarketEngine, MechanismKind};
use ref_serve::{shard_market_config, Client, JournalLimit, ServeConfig, Server, Value, WalConfig};

use common::TempDir;

fn credit_config() -> MarketConfig {
    // 16 and 8 split exactly across 4 shards (4.0 and 2.0 per shard).
    MarketConfig::new(Capacity::new(vec![16.0, 8.0]).unwrap()).with_mechanism(
        MechanismKind::Credit {
            inner: CreditInner::MaxWelfare,
        },
    )
}

#[test]
fn credit_market_exposes_balances_and_ledger_metrics_over_the_wire() {
    let serve_config = ServeConfig::new(credit_config()).with_epoch_interval(None);
    let server = Server::start("127.0.0.1:0", serve_config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.join_truth(1, 1.0, &[0.75, 0.25]).unwrap();
    client.join_truth(2, 1.0, &[0.25, 0.75]).unwrap();
    for _ in 0..10 {
        client.tick().unwrap();
    }

    // Per-agent queries carry the agent's credit balance.
    let reply = client.query_agent(1).unwrap();
    let credit = reply.get("credit").unwrap().as_f64().unwrap();
    assert!(credit.is_finite(), "{reply}");

    // The metrics reply carries the shard's ledger totals; conservation
    // holds live.
    let metrics = client.metrics().unwrap();
    let ledger = metrics.get("shards").and_then(Value::as_array).unwrap()[0]
        .get("ledger")
        .unwrap();
    assert_eq!(ledger.get("agents").unwrap().as_u64(), Some(2));
    assert!(
        ledger.get("total").unwrap().as_f64().unwrap().abs() < 1e-9,
        "{metrics}"
    );
    let text = client.metrics_text().unwrap();
    assert!(
        text.contains("refmarket_ledger_agents{shard=\"0\"} 2\n"),
        "{text}"
    );
    assert!(text.contains("refmarket_credits_accrued"), "{text}");

    // Snapshots taken over the wire are v4 documents.
    let snapshot = &client.snapshot().unwrap()[0];
    assert!(
        snapshot.starts_with("refmarket-snapshot v4\n"),
        "{snapshot}"
    );

    // The journal replays to the exact final snapshot: the ledger is a
    // pure function of the replayed event history.
    let report = server.shutdown();
    assert!(!report.journal_overflowed);
    let replayed = ref_serve::replay(credit_config(), &report.journal).unwrap();
    assert_eq!(replayed.snapshot().encode(), report.snapshot);
}

#[test]
fn sharded_credit_journals_replay_per_shard() {
    let serve_config = ServeConfig::new(credit_config())
        .with_epoch_interval(None)
        .with_shards(4)
        .with_journal_limit(JournalLimit(1 << 16));
    let server = Server::start("127.0.0.1:0", serve_config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for agent in 0..12u64 {
        let e0 = 0.2 + 0.05 * agent as f64;
        client.join_truth(agent, 1.0, &[e0, 1.0 - e0]).unwrap();
    }
    for _ in 0..4 {
        client.tick().unwrap();
    }
    // Demand changes re-baseline ledger entries; replay must cross them.
    client.demand(3, Some((1.0, &[0.8, 0.2]))).unwrap();
    client.demand(7, None).unwrap();
    client.leave(5).unwrap();
    for _ in 0..4 {
        client.tick().unwrap();
    }

    let report = server.shutdown();
    assert_eq!(report.shards.len(), 4);
    for shard in &report.shards {
        assert!(!shard.journal_overflowed);
        assert_eq!(shard.metrics.protocol_errors, 0);
        assert!(
            shard.snapshot.starts_with("refmarket-snapshot v4\n"),
            "shard {} snapshot is not v4",
            shard.shard
        );
        let mut offline = MarketEngine::new(shard_market_config(&credit_config(), 4)).unwrap();
        offline.submit_all(shard.journal.iter().cloned());
        while offline.pump().is_err() {}
        assert_eq!(
            offline.snapshot().encode(),
            shard.snapshot,
            "shard {} diverged from its offline replay",
            shard.shard
        );
    }
}

#[test]
fn sharded_credit_wal_recovery_round_trips_v3_snapshots() {
    let dir = TempDir::new("wal");
    let serve_config = || {
        ServeConfig::new(credit_config())
            .with_epoch_interval(None)
            .with_shards(4)
            .with_wal(WalConfig::new(dir.path()).with_checkpoint_every(5))
    };

    let server = Server::start("127.0.0.1:0", serve_config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for agent in 0..12u64 {
        client.join_truth(agent, 1.0, &[0.6, 0.4]).unwrap();
    }
    for _ in 0..5 {
        client.tick().unwrap();
    }
    let report = server.shutdown();

    // Cold recovery restores every shard — ledger included — bit for bit
    // from v4 checkpoints plus WAL tail replay.
    let recovered = Server::recover("127.0.0.1:0", serve_config()).unwrap();
    let recovered_report = recovered.shutdown();
    for (before, after) in report.shards.iter().zip(&recovered_report.shards) {
        assert_eq!(before.shard, after.shard);
        assert_eq!(
            before.snapshot, after.snapshot,
            "shard {} changed across recovery",
            before.shard
        );
    }
}

#[test]
fn credit_with_an_inexact_shard_split_is_rejected_loudly() {
    // (1.0 / 49.0) * 49.0 != 1.0 in IEEE doubles: the per-shard equal
    // shares would not sum back to the advertised capacity, so the
    // launch must refuse instead of serving a subtly skewed market.
    let config = MarketConfig::new(Capacity::new(vec![1.0, 8.0]).unwrap()).with_mechanism(
        MechanismKind::Credit {
            inner: CreditInner::MaxWelfare,
        },
    );
    let serve_config = ServeConfig::new(config)
        .with_epoch_interval(None)
        .with_shards(49);
    let err = Server::start("127.0.0.1:0", serve_config).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    let msg = err.to_string();
    assert!(msg.contains("exact capacity split"), "{msg}");
    assert!(msg.contains("resource 0"), "{msg}");
}

#[test]
fn query_reply_reflects_persistent_imbalance() {
    // One agent persistently over-served, one under-served: force it by
    // reporting utilities externally. With GroundTruth agents and a
    // converged market the balances hover near zero, so instead check
    // the zero-sum structure of whatever imbalance the run produced.
    let serve_config = ServeConfig::new(credit_config()).with_epoch_interval(None);
    let server = Server::start("127.0.0.1:0", serve_config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.join_truth(1, 1.0, &[0.9, 0.1]).unwrap();
    client.join_truth(2, 1.0, &[0.1, 0.9]).unwrap();
    for _ in 0..16 {
        client.tick().unwrap();
    }
    let c1 = credit_of(&mut client, 1);
    let c2 = credit_of(&mut client, 2);
    assert!((c1 + c2).abs() < 1e-9, "balances not zero-sum: {c1} {c2}");
    server.shutdown();
}

fn credit_of(client: &mut Client, agent: u64) -> f64 {
    client
        .query_agent(agent)
        .unwrap()
        .get("credit")
        .and_then(Value::as_f64)
        .unwrap()
}
