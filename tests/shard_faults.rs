//! Partition tolerance of the sharded router, over real TCP: a 4-shard
//! WAL-backed fleet on timed epochs, under agent ops that each carry a
//! deadline, with three shard failures armed through the deterministic
//! [`FaultPlan`]:
//!
//! * shard 1's ticker panics after a durable tick (degraded mode,
//!   `shard_unavailable` fast-fails, a supervisor restart from the
//!   shard's own WAL, epoch resynchronisation);
//! * shard 2 stalls well past the router's per-shard tick budget
//!   (Suspect, then Down on timeouts, healed by probes);
//! * shard 3 drops a tick reply after doing the durable work.
//!
//! No op may wait past its deadline plus a grace, the fleet epoch must
//! keep advancing while a shard is out, every shard must heal (with at
//! least one supervisor restart), the merged SI/EF/PE audit must pass
//! without a `partial` stamp, every shard's WAL must replay to exactly its
//! shutdown snapshot, and no request may be a protocol error.

mod common;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ref_fairness::core::resource::Capacity;
use ref_fairness::market::MarketConfig;
use ref_fairness::serve::{
    shard_market_config, Client, FaultPlan, JournalLimit, ServeConfig, Server, ServiceCore,
    ShardHealth, Value, WalConfig,
};

use common::TempDir;

const SHARDS: usize = 4;
const AGENTS: u64 = 32;
/// The epochs whose ticks the panic, the stall and the dropped reply hit;
/// spaced so each failure plays out, and heals, before the next.
const PANIC_EPOCH: u64 = 10;
const SLOW_EPOCH: u64 = 40;
const DROP_EPOCH: u64 = 70;
/// Per-request deadline carried on every load op.
const OP_DEADLINE_MS: u64 = 500;
/// Slack on top of the deadline before an op counts as a hang: the queue
/// drain behind an injected stall plus scheduling noise on a loaded host.
const OP_GRACE_MS: u64 = 1500;
const JOURNAL: JournalLimit = JournalLimit(1 << 21);

fn market() -> MarketConfig {
    MarketConfig::new(Capacity::new(vec![64.0, 32.0]).unwrap())
}

/// Successful ops and the worst wait of the deadline-carrying load.
#[derive(Default)]
struct LoadStats {
    ok: AtomicU64,
    max_wait_ms: AtomicU64,
}

/// Agent-scoped queries and demand updates until `stop`, honouring the
/// router's `retry_after_ms` hint on `shard_unavailable` as a
/// well-behaved client would.
fn load(addr: &str, thread: u64, stop: &AtomicBool, stats: &LoadStats) {
    let mut client = Client::connect(addr).unwrap();
    for i in thread.. {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let agent = 1 + i % AGENTS;
        let line = if i % 5 == 3 {
            let e0 = 0.25 + 0.5 * ((i % 13) as f64) / 13.0;
            format!(
                r#"{{"op":"demand","agent":{agent},"deadline_ms":{OP_DEADLINE_MS},"report":{{"scale":1,"elasticities":[{e0},{}]}}}}"#,
                1.0 - e0
            )
        } else {
            format!(r#"{{"op":"query","agent":{agent},"deadline_ms":{OP_DEADLINE_MS}}}"#)
        };
        let started = Instant::now();
        let reply = client.call_line(&line).unwrap();
        let waited = started.elapsed().as_millis() as u64;
        stats.max_wait_ms.fetch_max(waited, Ordering::Relaxed);
        if reply.get("ok") == Some(&Value::Bool(true)) {
            stats.ok.fetch_add(1, Ordering::Relaxed);
        } else if reply.get("error").and_then(Value::as_str) == Some("shard_unavailable") {
            let hint = reply.get("retry_after_ms").and_then(Value::as_u64);
            std::thread::sleep(Duration::from_millis(hint.unwrap_or(5)));
        }
    }
}

/// Raises the flag when dropped, so the load threads stop on any exit
/// from the watcher, a failed assertion included: a failing test fails
/// instead of waiting on them forever.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

fn fleet_epoch(client: &mut Client) -> u64 {
    client
        .ping()
        .unwrap()
        .get("epoch")
        .and_then(Value::as_u64)
        .unwrap()
}

/// The tick's merged report passes SI, EF and PE and is not stamped
/// `partial`.
fn audit_passes(tick: &Value) -> bool {
    let Some(report) = tick.get("report") else {
        return false;
    };
    let fairness = report.get("fairness");
    report.get("partial").is_none()
        && ["sharing_incentives", "envy_free", "pareto_efficient"]
            .iter()
            .all(|key| fairness.and_then(|f| f.get(key)).and_then(Value::as_bool) == Some(true))
}

#[test]
fn a_four_shard_fleet_rides_out_a_panic_a_stall_and_a_lost_reply() {
    let dir = TempDir::new("shard-faults");
    let config = ServeConfig::new(market())
        .with_epoch_interval(Some(Duration::from_millis(10)))
        .with_shards(SHARDS)
        .with_wal(WalConfig::new(dir.path()))
        .with_journal_limit(JOURNAL)
        .with_shard_tick_budget(Duration::from_millis(250))
        .with_faults(FaultPlan {
            panic_shard_ticker: Some((1, PANIC_EPOCH)),
            slow_shard_tick: Some((2, SLOW_EPOCH, 400)),
            drop_tick_reply: Some((3, DROP_EPOCH)),
            ..FaultPlan::default()
        });
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let addr = server.addr().to_string();
    let mut probe = Client::connect(&*addr).unwrap();
    for agent in 1..=AGENTS {
        let e0 = 0.2 + 0.6 * ((agent % 101) as f64) / 101.0;
        probe.join_truth(agent, 1.0, &[e0, 1.0 - e0]).unwrap();
    }

    let stop = AtomicBool::new(false);
    let stats = LoadStats::default();
    let (mut seen_out, mut advanced_during_outage, mut audit_ok) = ([false; SHARDS], false, false);
    std::thread::scope(|scope| {
        let _stop = StopOnDrop(&stop);
        for thread in 0..2 {
            let (addr, stop, stats) = (&addr, &stop, &stats);
            scope.spawn(move || load(addr, thread, stop, stats));
        }

        // Watch the fleet until every fault has fired and every shard is
        // healthy again.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut outage_began_at = None;
        loop {
            let epoch = fleet_epoch(&mut probe);
            let down: Vec<usize> = (0..SHARDS)
                .filter(|&k| server.shard_health(k) != ShardHealth::Healthy)
                .collect();
            for &k in &down {
                seen_out[k] = true;
            }
            match (down.is_empty(), outage_began_at) {
                (false, None) => outage_began_at = Some(epoch),
                (false, Some(began)) => advanced_during_outage |= epoch > began,
                (true, _) => outage_began_at = None,
            }
            if down.is_empty() && epoch > DROP_EPOCH + 5 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "the fleet never healed: epoch {epoch}, shards {down:?} still out"
            );
            std::thread::sleep(Duration::from_millis(5));
        }

        // With the whole fleet back, a merged report passes the fleet-wide
        // audit with no partial stamp.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !audit_ok && Instant::now() < deadline {
            audit_ok = audit_passes(&probe.tick().unwrap());
            std::thread::sleep(Duration::from_millis(25));
        }
    });

    let report = server.shutdown();
    // Every shard's WAL, the restarted shard's included, replays offline
    // to exactly its live shutdown snapshot.
    for (k, shard) in report.shards.iter().enumerate() {
        let recovered = ServiceCore::recover(
            shard_market_config(&market(), SHARDS),
            JOURNAL,
            WalConfig::new(dir.path().join(format!("shard-{k}"))),
            FaultPlan::none(),
        )
        .unwrap();
        assert!(
            recovered.final_snapshot() == shard.snapshot,
            "shard {k}: its WAL replays to a different state"
        );
    }

    let max_wait_ms = stats.max_wait_ms.load(Ordering::Relaxed);
    let ticker_panics: u64 = report.shards.iter().map(|s| s.metrics.ticker_panics).sum();
    eprintln!(
        "{} ok ops, worst wait {max_wait_ms} ms, shards seen out {seen_out:?}, \
         {} restart(s), {} partial epoch(s)",
        stats.ok.load(Ordering::Relaxed),
        report.metrics.shard_restarts,
        report.metrics.partial_epochs
    );
    assert!(
        max_wait_ms <= OP_DEADLINE_MS + OP_GRACE_MS,
        "an op waited {max_wait_ms} ms"
    );
    assert!(stats.ok.load(Ordering::Relaxed) > 0, "no load op succeeded");
    assert!(
        advanced_during_outage,
        "the fleet epoch stalled with a shard out"
    );
    assert!(
        seen_out[2] && seen_out[3],
        "the stall or the lost reply went unnoticed: {seen_out:?}"
    );
    assert!(ticker_panics >= 1, "the ticker panic never fired");
    assert!(report.metrics.shard_restarts >= 1, "no shard was restarted");
    assert!(
        audit_ok,
        "no post-recovery merged report passed SI/EF/PE unstamped"
    );
    assert_eq!(report.metrics.protocol_errors, 0);
}
