//! Crash recovery under `SIGKILL`, with the server in a child process:
//! the test binary re-executes itself, the `#[ignore]`d [`child`] entry
//! (selected by the `REF_CRASH_CHILD` environment variable) boots a
//! WAL-backed server, and the parent kills it mid-flight. Kill points are
//! WAL positions read from `ping`'s `wal_seq`, not wall-clock times, so a
//! round lands at the same place in the log on a fast host and a slow one.
//!
//! * **Kill, shear, recover.** A server under its own load is killed
//!   three times; the middle round also shears bytes off the segment tail
//!   (a torn final write on top of the kill). After each kill the offline
//!   expectation — newest checkpoint plus replayed tail, torn record
//!   truncated — must hold every event the server reported logged and be
//!   exactly what `Server::recover` serves, the repaired log must scrub
//!   clean, and while the log is still contiguous from seq 0 a flat replay
//!   of it must agree as well.
//! * **Failover.** A synchronously replicated primary is killed under
//!   load. Its standby promotes itself, holds every acknowledged event,
//!   carries a log prefix identical to the dead primary's, shuts down on
//!   a snapshot equal to a rebuild from its own WAL, and takes writes.

mod common;

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ref_fairness::core::resource::Capacity;
use ref_fairness::market::{MarketConfig, MarketEngine, MarketEvent};
use ref_fairness::serve::wal::{self, Wal, WalConfig};
use ref_fairness::serve::{
    Client, FaultPlan, FsStorage, ReplConfig, Role, ServeConfig, Server, Value,
};

use common::TempDir;

/// `<role>:<wal dir>` for the child entry; unset in a normal test run.
const CHILD_ENV: &str = "REF_CRASH_CHILD";

fn market() -> MarketConfig {
    MarketConfig::new(Capacity::new(vec![16.0, 8.0]).unwrap())
}

/// A checkpoint every 32 events and 64 KiB segments: the first kill
/// lands inside the first segment, so the flat replay runs, and by the
/// last one segments have rolled and a checkpoint has pruned seq 0, so
/// recovery starts from the checkpoint alone.
fn chaos_wal(dir: &Path) -> WalConfig {
    WalConfig::new(dir)
        .with_checkpoint_every(32)
        .with_segment_max_bytes(64 * 1024)
}

/// Events each chaos round appends before its kill. The first two end
/// far inside the first segment (about 870 records), so the shear never
/// lands on an empty segment; the third rolls several.
const CHAOS_ROUNDS: [u64; 3] = [128, 256, 2048];

/// The WAL position at which each failover round kills its primary. The
/// default checkpoint cadence (4,096) keeps both logs contiguous from
/// seq 0, so the prefix check always runs.
const FAILOVER_KILLS: [u64; 3] = [64, 256, 1024];

fn heartbeat(repl: ReplConfig) -> ReplConfig {
    repl.with_heartbeat_interval(Duration::from_millis(10))
}

// ---------------------------------------------------------------------
// The child: a server that runs until it is killed.
// ---------------------------------------------------------------------

#[test]
#[ignore = "the server the other tests in this file re-execute and kill"]
fn child() {
    let Ok(spec) = std::env::var(CHILD_ENV) else {
        return;
    };
    let (role, dir) = spec.split_once(':').expect("<role>:<dir>");
    let dir = Path::new(dir);
    match role {
        "chaos" => {
            let config = ServeConfig::new(market())
                .with_epoch_interval(Some(Duration::from_millis(1)))
                .with_wal(chaos_wal(dir));
            let server = if wal::dir_has_state_with(&FsStorage, dir).unwrap() {
                Server::recover("127.0.0.1:0", config)
            } else {
                Server::start("127.0.0.1:0", config)
            }
            .unwrap();
            println!("ADDR {}", server.addr());
            let addr = server.addr().to_string();
            std::thread::scope(|scope| {
                for worker in 0..4 {
                    let addr = &addr;
                    scope.spawn(move || self_load(addr, worker));
                }
                serve_until_orphaned();
            });
        }
        "failover" => {
            let config = ServeConfig::new(market())
                .with_epoch_interval(Some(Duration::from_millis(2)))
                .with_wal(WalConfig::new(dir))
                .with_repl(heartbeat(ReplConfig::primary("127.0.0.1:0")).with_sync(true));
            let server = Server::start("127.0.0.1:0", config).unwrap();
            println!("ADDR {}", server.addr());
            println!("REPL {}", server.repl_addr().unwrap());
            serve_until_orphaned();
        }
        other => panic!("unknown child role {other:?}"),
    }
}

/// Blocks until the parent goes away (its end of our stdin closes), so a
/// parent that dies before its `SIGKILL` leaves no server behind.
fn serve_until_orphaned() {
    let _ = std::io::stdin().read(&mut [0u8; 1]);
    std::process::exit(1);
}

/// One self-load thread of the chaos child: join an agent (a duplicate
/// join after a recovery is rejected and fine), then observe, query and
/// redeclare until the server is gone.
fn self_load(addr: &str, worker: u64) {
    let Ok(mut client) = Client::connect(addr) else {
        return;
    };
    let agent = worker + 1;
    let _ = client.join_external(agent);
    let elasticities = [0.4 + worker as f64 * 0.05, 0.5];
    for i in 0u64.. {
        let outcome = match i % 7 {
            6 => client.demand(agent, Some((1.0, &elasticities))),
            2 | 5 => client.query_agent(agent),
            _ => client.observe(agent, &[1.5, 0.75], 1.0 + worker as f64 * 0.01),
        };
        // Rejections carry a code; a transport error means the kill.
        if outcome.is_err_and(|e| e.code().is_none()) {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// The parent side.
// ---------------------------------------------------------------------

/// A child server, killed and reaped on drop.
struct ChildServer {
    process: Child,
    addr: String,
    repl_addr: Option<String>,
}

impl ChildServer {
    fn spawn(role: &str, dir: &Path) -> ChildServer {
        let mut process = Command::new(std::env::current_exe().unwrap())
            .args(["child", "--exact", "--ignored", "--nocapture"])
            .env(CHILD_ENV, format!("{role}:{}", dir.display()))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        let stdout = BufReader::new(process.stdout.take().unwrap());
        let (mut addr, mut repl_addr) = (None, None);
        // The harness prints its own lines around ours.
        for line in stdout.lines() {
            let line = line.unwrap();
            if let Some((_, a)) = line.split_once("ADDR ") {
                addr = Some(a.trim().to_string());
            } else if let Some((_, a)) = line.split_once("REPL ") {
                repl_addr = Some(a.trim().to_string());
            }
            if addr.is_some() && (role != "failover" || repl_addr.is_some()) {
                break;
            }
        }
        // Dropping `process` unannounced closes the child's stdin, which
        // ends it.
        let addr = addr.expect("the child exited before announcing its address");
        ChildServer {
            process,
            addr,
            repl_addr,
        }
    }

    /// Waits until the child's WAL holds `seq` events, then kills it.
    /// Returns the last `wal_seq` the child reported: every one of those
    /// events was logged before it was applied.
    fn kill_at_seq(mut self, seq: u64) -> u64 {
        let mut probe = Client::connect(&*self.addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let at = wal_seq(&mut probe);
            if at >= seq {
                self.process.kill().unwrap();
                self.process.wait().unwrap();
                return at;
            }
            assert!(
                Instant::now() < deadline,
                "child stalled at seq {at} of {seq}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for ChildServer {
    fn drop(&mut self) {
        let _ = self.process.kill();
        let _ = self.process.wait();
    }
}

fn wal_seq(client: &mut Client) -> u64 {
    let ping = client.ping().unwrap();
    ping.get("wal_seq").and_then(Value::as_u64).unwrap()
}

/// Opens the WAL offline and rebuilds the state it promises: newest
/// checkpoint plus replayed tail. Returns the snapshot text, the number of
/// events the log holds, and the bytes the open truncated as a torn final
/// record.
fn offline_expectation(config: WalConfig) -> (String, u64, u64) {
    let rec = Wal::open(config, FaultPlan::none()).unwrap();
    let mut engine = match &rec.checkpoint {
        Some((_, snapshot)) => MarketEngine::restore(snapshot).unwrap(),
        None => MarketEngine::new(market()).unwrap(),
    };
    for event in &rec.tail {
        // Rejected events were journaled too; the live server ignored
        // them exactly as this replay does.
        let _ = engine.apply_now(event.clone());
    }
    (
        engine.snapshot().encode(),
        rec.wal.next_seq(),
        rec.truncated_bytes,
    )
}

/// Shears `bytes` off the live segment's tail; returns how many went.
fn shear_tail(dir: &Path, bytes: u64) -> u64 {
    // Segment names carry their first sequence zero-padded, so the
    // greatest name is the live segment.
    let path = (std::fs::read_dir(dir).unwrap())
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "wal"))
        .max()
        .unwrap();
    let len = std::fs::metadata(&path).unwrap().len();
    let cut = bytes.min(len);
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(len - cut).unwrap();
    cut
}

#[test]
fn killed_and_sheared_servers_recover_bit_identically() {
    let dir = TempDir::new("crash-chaos");
    let (mut replay_checked, mut torn_tail, mut pruned) = (false, false, false);
    for (round, appended) in CHAOS_ROUNDS.into_iter().enumerate() {
        let child = ChildServer::spawn("chaos", dir.path());
        let start = wal_seq(&mut Client::connect(&*child.addr).unwrap());
        let reported = child.kill_at_seq(start + appended);

        // An 8-byte shear is shorter than any record, so it always tears
        // the final one.
        let sheared = if round == 1 {
            shear_tail(dir.path(), 8)
        } else {
            0
        };
        let (expected, logged, torn) = offline_expectation(chaos_wal(dir.path()));
        torn_tail |= sheared > 0 && torn > 0;
        // The kill loses nothing the server reported; the shear, the one
        // record it tore.
        assert!(
            logged + u64::from(sheared > 0) >= reported,
            "round {round}: {reported} events reported, {logged} recovered"
        );

        let (first, events) = wal::read_events_with(&FsStorage, dir.path()).unwrap();
        eprintln!(
            "round {round}: log holds seqs {first}..{}, sheared {sheared} B, torn {torn} B",
            first + events.len() as u64
        );
        if first == 0 {
            let replayed = ref_fairness::serve::replay(market(), &events).unwrap();
            assert_eq!(
                replayed.snapshot().encode(),
                expected,
                "round {round}: a flat replay of the log disagrees with checkpoint + tail"
            );
            replay_checked = true;
        } else {
            pruned = true;
        }

        let config = ServeConfig::new(market())
            .with_epoch_interval(None)
            .with_wal(chaos_wal(dir.path()));
        let recovered = Server::recover("127.0.0.1:0", config).unwrap();
        let served = Client::connect(recovered.addr())
            .unwrap()
            .snapshot()
            .unwrap();
        recovered.shutdown();
        assert!(
            served == [expected],
            "round {round}: the recovered server diverges from the offline expectation"
        );
        // Recovery repaired the log: no torn bytes are left behind for
        // the next append to bury.
        let scrub = wal::scrub(dir.path()).unwrap();
        assert!(scrub.is_clean(), "round {round}: {:?}", scrub.errors);
    }
    assert!(replay_checked, "no round ran the flat-replay cross-check");
    assert!(torn_tail, "no round recovered from a torn tail");
    assert!(pruned, "no round recovered from a pruned log");
}

/// One load thread against the primary: join an agent, then observe
/// until the primary dies. A synchronous primary replies `ok` only once
/// its standby holds the event, so `acked` counts events the promoted
/// standby must have.
fn acked_load(addr: &str, worker: u64, acked: &AtomicU64) {
    let Ok(mut client) = Client::connect(addr) else {
        return;
    };
    let agent = worker + 1;
    let mut outcome = client.join_external(agent);
    loop {
        match outcome {
            Ok(_) => {
                acked.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) if e.code().is_none() => return,
            Err(_) => {}
        }
        outcome = client.observe(agent, &[1.5, 0.75], 1.0 + worker as f64 * 0.01);
    }
}

#[test]
fn a_killed_sync_primary_fails_over_without_losing_an_acked_event() {
    for (round, kill_at) in FAILOVER_KILLS.into_iter().enumerate() {
        let (pdir, sdir) = (TempDir::new("crash-primary"), TempDir::new("crash-standby"));
        let primary = ChildServer::spawn("failover", pdir.path());
        let repl = ReplConfig::standby("127.0.0.1:0", primary.repl_addr.clone().unwrap());
        let standby = Server::start(
            "127.0.0.1:0",
            // No timer of its own: once promoted, the standby appends
            // nothing until this test writes, so its `wal_seq` then is
            // the promotion point.
            ServeConfig::new(market())
                .with_epoch_interval(None)
                .with_wal(WalConfig::new(sdir.path()))
                .with_repl(heartbeat(repl).with_election_timeout(Duration::from_millis(150))),
        )
        .unwrap();

        let acked = AtomicU64::new(0);
        let addr = primary.addr.clone();
        std::thread::scope(|scope| {
            for worker in 0..3 {
                let (addr, acked) = (&addr, &acked);
                scope.spawn(move || acked_load(addr, worker, acked));
            }
            primary.kill_at_seq(kill_at);
        });

        let deadline = Instant::now() + Duration::from_secs(10);
        while standby.role() != Role::Primary {
            assert!(
                Instant::now() < deadline,
                "round {round}: no auto-promotion"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut client = Client::connect(standby.addr()).unwrap();
        let promoted = wal_seq(&mut client) as usize;
        let agent = 90 + round as u64;
        client.join_external(agent).unwrap();
        client.observe(agent, &[1.0, 1.0], 2.0).unwrap();

        let report = standby.shutdown();
        let (own_wal, _, _) = offline_expectation(WalConfig::new(sdir.path()));
        assert!(
            report.snapshot == own_wal,
            "round {round}: the promoted snapshot diverges from its own WAL"
        );

        let (s_first, s_events) = wal::read_events_with(&FsStorage, sdir.path()).unwrap();
        let (p_first, p_events) = wal::read_events_with(&FsStorage, pdir.path()).unwrap();
        assert_eq!(
            (s_first, p_first),
            (0, 0),
            "round {round}: a log was pruned"
        );
        assert!(
            s_events[..promoted] == p_events[..promoted],
            "round {round}: the promoted prefix of {promoted} events differs from the primary's"
        );
        let present = s_events[..promoted]
            .iter()
            .filter(|e| !matches!(e, MarketEvent::EpochTick))
            .count() as u64;
        let acked = acked.load(Ordering::Relaxed);
        eprintln!("round {round}: promoted at seq {promoted}, {acked} acked, {present} present");
        assert!(
            acked <= present,
            "round {round}: {acked} events acked, {present} survived the failover"
        );
    }
}
