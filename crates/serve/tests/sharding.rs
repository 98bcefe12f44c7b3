//! Sharded serving invariants.
//!
//! Three layers, mirroring the sharding design (DESIGN.md §11):
//!
//! 1. **Ring laws** (proptests): every agent id maps to exactly one
//!    shard; growing the ring from `k` to `k + 1` shards remaps only
//!    about `1 / (k + 1)` of the keys; and the placement is a pure
//!    function of `(shards, seed)` — pinned against goldens captured
//!    from a separate process so two routers built on different hosts
//!    agree on every routing decision.
//! 2. **Transport purity, sharded** (proptest): random op sequences
//!    through a live 4-shard server; each shard's journal replayed
//!    offline through `ref_serve::replay` on that shard's starting config must
//!    land byte-for-byte on that shard's final snapshot. Coordinator
//!    reallotments are journaled events, so replay crosses them for
//!    free.
//! 3. **Per-shard durability**: a WAL-enabled sharded server recovers
//!    from its `shard-{k}` directories with every shard bit-identical.

mod common;

use proptest::prelude::*;

use ref_core::resource::Capacity;
use ref_market::MarketConfig;
use ref_serve::{
    replay, shard_market_config, Client, ClientError, HashRing, JournalLimit, ServeConfig, Server,
    WalConfig,
};

use common::TempDir;

// ---------------------------------------------------------------------------
// 1. Ring laws
// ---------------------------------------------------------------------------

/// Placements captured from `HashRing` itself in a separate process
/// (regenerate with `cargo test -p ref-serve --test sharding -- --ignored
/// print_ring_goldens --nocapture`). Each entry is `(shards, seed)` and
/// the owning shard of agents `0..16`. If the hash or vnode scheme ever
/// changes these MUST change too — that is the point: a router upgraded
/// on one host would route differently than its peers, so the goldens
/// turn an accidental scheme change into a loud test failure.
const RING_GOLDENS: &[(usize, u64, [u32; 16])] = &[
    (4, 0x5EED, GOLDEN_4_5EED),
    (3, 42, GOLDEN_3_42),
    (8, 0xDEAD_BEEF, GOLDEN_8_DEADBEEF),
];

const GOLDEN_4_5EED: [u32; 16] = [1, 3, 0, 2, 0, 3, 3, 0, 1, 3, 0, 1, 1, 1, 3, 1];
const GOLDEN_3_42: [u32; 16] = [1, 0, 0, 2, 2, 0, 1, 0, 0, 2, 1, 1, 2, 0, 1, 0];
const GOLDEN_8_DEADBEEF: [u32; 16] = [1, 4, 6, 0, 0, 5, 6, 6, 2, 2, 7, 1, 1, 4, 7, 1];

#[test]
#[ignore = "golden regeneration helper; prints, never asserts"]
fn print_ring_goldens() {
    for &(shards, seed, _) in RING_GOLDENS {
        let ring = HashRing::new(shards, seed);
        let placements: Vec<u32> = (0..16).map(|a| ring.shard_of(a) as u32).collect();
        println!("({shards}, {seed:#x}): {placements:?}");
    }
}

#[test]
fn ring_placement_matches_cross_process_goldens() {
    for &(shards, seed, ref golden) in RING_GOLDENS {
        let ring = HashRing::new(shards, seed);
        let placements: Vec<u32> = (0..16).map(|a| ring.shard_of(a) as u32).collect();
        assert_eq!(
            &placements[..],
            &golden[..],
            "ring placement drifted for shards={shards} seed={seed:#x}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Totality: every id maps to exactly one shard, stably, and a ring
    /// rebuilt from the same `(shards, seed)` agrees.
    #[test]
    fn every_agent_maps_to_exactly_one_shard(
        shards in 1usize..12,
        seed in 0u64..u64::MAX,
        agent in 0u64..u64::MAX,
    ) {
        let ring = HashRing::new(shards, seed);
        let owner = ring.shard_of(agent);
        prop_assert!(owner < shards);
        prop_assert_eq!(owner, ring.shard_of(agent));
        prop_assert_eq!(owner, HashRing::new(shards, seed).shard_of(agent));
    }

    /// Minimal disruption: growing `k -> k + 1` shards moves about
    /// `1 / (k + 1)` of the keys — the new shard's fair share — not the
    /// `k / (k + 1)` a mod-hash would.
    #[test]
    fn growing_the_ring_remaps_a_bounded_fraction(
        shards in 1usize..10,
        seed in 0u64..u64::MAX,
    ) {
        const KEYS: u64 = 2000;
        let old = HashRing::new(shards, seed);
        let new = HashRing::new(shards + 1, seed);
        let moved = (0..KEYS)
            .filter(|&agent| old.shard_of(agent) != new.shard_of(agent))
            .count();
        // Expect ~KEYS / (k + 1) moves; 1.6x slack plus an absolute
        // floor absorbs vnode-count variance at small k.
        let bound = (1.6 / (shards as f64 + 1.0) + 0.05) * KEYS as f64;
        prop_assert!(
            (moved as f64) <= bound,
            "{moved} of {KEYS} keys moved going {shards} -> {} shards (bound {bound:.0})",
            shards + 1
        );
    }
}

// ---------------------------------------------------------------------------
// 2. Transport purity, sharded
// ---------------------------------------------------------------------------

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
    // Agent ids range over 0..12 so a 4-shard ring sees several agents
    // per shard and several empty-shard epochs.
    (0u8..8, 0u64..12, 0.1f64..0.9, 0.5f64..12.0, 0.1f64..5.0).prop_map(
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
            // Weight ticks up so most sequences run a few epochs and
            // the coordinator gets rounds to reallot capacity.
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

const SHARDS: usize = 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A sharded server is four pure transports: each shard's journal,
    /// replayed offline through `ref_serve::replay` against the shard's
    /// starting config (the equal capacity split), reproduces that
    /// shard's final snapshot byte for byte — coordinator reallotments
    /// included, because they are journaled `CapacityRealloted` events.
    #[test]
    fn sharded_journals_replay_to_per_shard_snapshots(
        ops in proptest::collection::vec(op_strategy(), 1..40)
    ) {
        let serve_config = ServeConfig::new(config())
            .with_epoch_interval(None)
            .with_shards(SHARDS)
            .with_journal_limit(JournalLimit(1 << 16));
        let server = Server::start("127.0.0.1:0", serve_config).unwrap();
        let ring = HashRing::new(SHARDS, 0x5EED);
        let mut client = Client::connect(server.addr()).unwrap();
        for op in &ops {
            issue(&mut client, op);
        }
        let report = server.shutdown();
        prop_assert_eq!(report.shards.len(), SHARDS);
        prop_assert_eq!(ring.shards(), SHARDS);

        for shard in &report.shards {
            prop_assert!(!shard.journal_overflowed);
            prop_assert_eq!(shard.metrics.protocol_errors, 0);
            let offline = replay(shard_market_config(&config(), SHARDS), &shard.journal).unwrap();
            prop_assert_eq!(
                offline.snapshot().encode(),
                shard.snapshot.clone(),
                "shard {} diverged from its offline replay",
                shard.shard
            );
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Per-shard durability
// ---------------------------------------------------------------------------

#[test]
fn sharded_wal_recovery_restores_every_shard() {
    let dir = TempDir::new("wal");
    let serve_config = || {
        ServeConfig::new(config())
            .with_epoch_interval(None)
            .with_shards(SHARDS)
            .with_wal(WalConfig::new(dir.path()).with_checkpoint_every(5))
    };

    let server = Server::start("127.0.0.1:0", serve_config()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for agent in 0..12u64 {
        client
            .join_truth(agent, 1.0, &[0.6, 0.4])
            .expect("join over the wire");
    }
    for _ in 0..3 {
        client.tick().expect("tick over the wire");
    }
    let report = server.shutdown();
    assert_eq!(report.shards.len(), SHARDS);

    // Every shard got its own WAL directory.
    for shard in 0..SHARDS {
        let shard_dir = dir.path().join(format!("shard-{shard}"));
        assert!(shard_dir.is_dir(), "missing WAL dir for shard {shard}");
    }

    // Cold recovery lands every shard on its pre-crash snapshot.
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
fn a_wal_laid_out_for_another_shard_count_is_refused() {
    let serve_config = |dir: &TempDir, shards: usize| {
        ServeConfig::new(config())
            .with_epoch_interval(None)
            .with_shards(shards)
            .with_wal(WalConfig::new(dir.path()))
    };
    // A directory holding the history of a server with `shards` shards.
    let history = |shards: usize| {
        let dir = TempDir::new("layout");
        let server = Server::start("127.0.0.1:0", serve_config(&dir, shards)).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        for agent in 0..8u64 {
            client.join_external(agent).unwrap();
        }
        client.tick().unwrap();
        server.shutdown();
        dir
    };
    for (was, now) in [(1, 2), (4, 1), (4, 2)] {
        let dir = history(was);
        for boot in [Server::start, Server::recover] {
            let err = boot("127.0.0.1:0", serve_config(&dir, now)).unwrap_err();
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::InvalidInput,
                "{was} -> {now} shards: {err}"
            );
        }
    }
    // The matching count recovers what it wrote, to the byte.
    for shards in [1, 4] {
        let dir = history(shards);
        let err = Server::start("127.0.0.1:0", serve_config(&dir, shards)).unwrap_err();
        assert!(err.to_string().contains("use Server::recover"), "{err}");
        let recovered = Server::recover("127.0.0.1:0", serve_config(&dir, shards)).unwrap();
        let mut client = Client::connect(recovered.addr()).unwrap();
        let query = client.query().unwrap();
        let agents = query.get("agents").and_then(ref_serve::Value::as_array);
        assert_eq!(agents.map(<[_]>::len), Some(8), "{shards} shard(s)");
        recovered.shutdown();
    }
}

// ---------------------------------------------------------------------------
// 4. Client behavior under shard failures
// ---------------------------------------------------------------------------

/// A scripted one-connection server: answers the first
/// `unavailable_replies` request lines with `shard_unavailable`, then
/// everything after with an ok reply. Returns the bound address and a
/// handle yielding how many requests it served.
fn flapping_shard_server(
    unavailable_replies: usize,
) -> (std::net::SocketAddr, std::thread::JoinHandle<usize>) {
    use std::io::{BufRead, BufReader, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut line = String::new();
        let mut served = 0usize;
        while reader.read_line(&mut line).unwrap_or(0) > 0 {
            served += 1;
            let reply = if served <= unavailable_replies {
                r#"{"ok":false,"error":"shard_unavailable","shard":1,"detail":"the owning shard is down; retry after backoff","retry_after_ms":5}"#
            } else {
                r#"{"ok":true,"epoch":7}"#
            };
            writeln!(writer, "{reply}").unwrap();
            writer.flush().unwrap();
            line.clear();
        }
        served
    });
    (addr, handle)
}

#[test]
fn call_with_backs_off_through_shard_unavailable() {
    use ref_serve::{CallOpts, Value};
    use std::time::{Duration, Instant};

    let (addr, server) = flapping_shard_server(2);
    let mut client = Client::connect(addr).unwrap();
    let request = Value::obj(vec![
        ("op", Value::str("query")),
        ("agent", Value::from_u64(3)),
    ]);
    let opts = CallOpts::default().with_seed(7);
    let started = Instant::now();
    let (reply, retries) = client
        .call_with(&request, &opts)
        .expect("shard_unavailable must be retried, not surfaced");
    // Two rejections ridden out on the same connection (no redial: the
    // agent cannot move off its shard), each slept at least the
    // server's 5ms retry hint.
    assert_eq!(retries, 2);
    assert_eq!(reply.get("epoch").and_then(Value::as_u64), Some(7));
    assert!(
        started.elapsed() >= Duration::from_millis(10),
        "backoff ignored the retry_after_ms floor: {:?}",
        started.elapsed()
    );
    drop(client);
    assert_eq!(server.join().unwrap(), 3, "client redialed mid-backoff");
}

#[test]
fn call_with_surfaces_shard_unavailable_once_retries_exhaust() {
    use ref_serve::CallOpts;

    let (addr, server) = flapping_shard_server(usize::MAX);
    let mut client = Client::connect(addr).unwrap();
    let opts = CallOpts::default().with_retries(2).with_seed(7);
    let request = ref_serve::Value::obj(vec![("op", ref_serve::Value::str("tick"))]);
    let err = client.call_with(&request, &opts).unwrap_err();
    match err {
        ClientError::Server { code, shard, .. } => {
            assert_eq!(code, "shard_unavailable");
            assert_eq!(shard, Some(1));
        }
        other => panic!("expected the server rejection, got {other:?}"),
    }
    drop(client);
    assert_eq!(server.join().unwrap(), 3);
}
