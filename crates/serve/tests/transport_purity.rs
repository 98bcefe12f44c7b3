//! The server is a pure transport: any accepted event sequence produces
//! exactly the allocations a direct offline replay of it would.
//!
//! Property-based: random op sequences are driven through a live TCP
//! server; the journal it kept is replayed through [`ref_serve::replay`]
//! (per-event `apply_now`, continuing past rejections) and must match
//! the server's final snapshot byte for byte.

mod common;

use proptest::prelude::*;

use ref_core::resource::Capacity;
use ref_market::{MarketConfig, MarketEvent};
use ref_serve::{
    wal, Client, ClientError, FsStorage, JournalLimit, ServeConfig, Server, WalConfig,
};

use common::TempDir;

#[derive(Debug, Clone)]
enum Op {
    JoinTruth { agent: u64, e0: f64 },
    JoinExternal { agent: u64 },
    Leave { agent: u64 },
    Demand { agent: u64, e0: Option<f64> },
    Observe { agent: u64, a0: f64, perf: f64 },
    Tick,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..8, 0u64..4, 0.1f64..0.9, 0.5f64..12.0, 0.1f64..5.0).prop_map(
        |(selector, agent, e0, a0, perf)| match selector {
            0 => Op::JoinTruth { agent, e0 },
            1 => Op::JoinExternal { agent },
            2 => Op::Leave { agent },
            3 => Op::Demand {
                agent,
                e0: Some(e0),
            },
            4 => Op::Demand { agent, e0: None },
            5 => Op::Observe { agent, a0, perf },
            // Weight ticks up so most sequences run a few epochs.
            _ => Op::Tick,
        },
    )
}

fn config() -> MarketConfig {
    MarketConfig::new(Capacity::new(vec![16.0, 8.0]).unwrap())
}

/// Issues one op; engine-level rejections (duplicate joins, unknown
/// agents) are expected and fine — they are journaled too.
fn issue(client: &mut Client, op: &Op) {
    let outcome = match op {
        Op::JoinTruth { agent, e0 } => client.join_truth(*agent, 1.0, &[*e0, 1.0 - *e0]),
        Op::JoinExternal { agent } => client.join_external(*agent),
        Op::Leave { agent } => client.leave(*agent),
        Op::Demand { agent, e0 } => {
            let truth = e0.map(|e0| (1.0, vec![e0, 1.0 - e0]));
            client.demand(*agent, truth.as_ref().map(|(s, e)| (*s, e.as_slice())))
        }
        Op::Observe { agent, a0, perf } => client.observe(*agent, &[*a0, 1.0], *perf),
        Op::Tick => client.tick(),
    };
    match outcome {
        Ok(_) => {}
        Err(ClientError::Server { ref code, .. }) if code == "market" => {}
        Err(e) => panic!("unexpected transport failure for {op:?}: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn accepted_events_match_offline_replay(
        ops in proptest::collection::vec(op_strategy(), 1..40)
    ) {
        let serve_config = ServeConfig::new(config())
            .with_epoch_interval(None)
            .with_journal_limit(JournalLimit(1 << 16));
        let server = Server::start("127.0.0.1:0", serve_config).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        for op in &ops {
            issue(&mut client, op);
        }
        let report = server.shutdown();
        prop_assert!(!report.journal_overflowed);
        prop_assert_eq!(report.metrics.protocol_errors, 0);

        // Per-event apply_now, as the live server did.
        let replayed = ref_serve::replay(config(), &report.journal).unwrap();
        prop_assert_eq!(replayed.snapshot().encode(), report.snapshot);
    }

    #[test]
    fn wal_enabled_server_stays_a_pure_transport(
        ops in proptest::collection::vec(op_strategy(), 1..32)
    ) {
        // Transport purity must hold with durability on: the WAL records
        // exactly the admitted events, in order, and a cold recovery
        // from disk lands on the same state as the live server.
        let dir = TempDir::new("wal");
        let serve_config = ServeConfig::new(config())
            .with_epoch_interval(None)
            .with_wal(WalConfig::new(dir.path()).with_checkpoint_every(7));
        let server = Server::start("127.0.0.1:0", serve_config).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        for op in &ops {
            issue(&mut client, op);
        }
        let report = server.shutdown();
        prop_assert_eq!(report.metrics.protocol_errors, 0);

        // The on-disk log IS the journal.
        let (first, events) = wal::read_events_with(&FsStorage, dir.path()).unwrap();
        if first == 0 {
            prop_assert_eq!(&events, &report.journal);
        }
        // Cold recovery (checkpoint + tail) matches the live snapshot.
        let recovered = Server::recover(
            "127.0.0.1:0",
            ServeConfig::new(config())
                .with_epoch_interval(None)
                .with_wal(WalConfig::new(dir.path()).with_checkpoint_every(7)),
        )
        .unwrap();
        let mut client = Client::connect(recovered.addr()).unwrap();
        let recovered_snapshot = client.snapshot().unwrap();
        prop_assert_eq!(recovered_snapshot, vec![report.snapshot]);
        recovered.shutdown();
    }

    #[test]
    fn journal_round_trips_over_the_wire(
        ops in proptest::collection::vec(op_strategy(), 1..20)
    ) {
        let serve_config = ServeConfig::new(config()).with_epoch_interval(None);
        let server = Server::start("127.0.0.1:0", serve_config).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        for op in &ops {
            issue(&mut client, op);
        }
        // Fetch the journal over the wire and decode it client-side; it
        // must match the server's own journal event for event.
        let [journal] = &client.journal().unwrap()[..] else {
            panic!("a one-shard server answers with one journal");
        };
        let wire: Vec<MarketEvent> = journal
            .iter()
            .map(|v| ref_serve::protocol::value_to_event(v).unwrap())
            .collect();
        let report = server.shutdown();
        prop_assert_eq!(wire, report.journal);
    }
}
