//! An idle server sleeps: its acceptors block in `accept` instead of
//! polling it, so a primary and its standby with no client connected
//! wake only for their clocks (heartbeats, read timeouts).
//!
//! This file holds one test on purpose: it counts the context switches of
//! every `ref-serve*` thread in the process, so no other test's server
//! may share the process.
#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::fs;
use std::time::{Duration, Instant};

use ref_core::resource::Capacity;
use ref_market::MarketConfig;
use ref_serve::{ReplConfig, ServeConfig, Server, WalConfig};

/// Voluntary context switches so far of every live thread of this process
/// whose name starts with `ref-serve`, by thread id.
fn voluntary_switches() -> HashMap<String, u64> {
    let mut switches = HashMap::new();
    for task in fs::read_dir("/proc/self/task").unwrap().flatten() {
        // A thread may exit between the listing and the reads.
        let (Ok(comm), Ok(status)) = (
            fs::read_to_string(task.path().join("comm")),
            fs::read_to_string(task.path().join("status")),
        ) else {
            continue;
        };
        if !comm.starts_with("ref-serve") {
            continue;
        }
        let count = status
            .lines()
            .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|count| count.trim().parse().ok())
            .expect("a voluntary_ctxt_switches line");
        switches.insert(task.file_name().to_string_lossy().into_owned(), count);
    }
    switches
}

#[test]
fn an_idle_primary_and_standby_barely_wake() {
    let root = std::env::temp_dir().join(format!("ref-idle-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let market = MarketConfig::new(Capacity::new(vec![16.0, 8.0]).unwrap());
    let node = |dir: &str, repl: ReplConfig| {
        let config = ServeConfig::new(market.clone())
            .with_epoch_interval(None)
            .with_wal(WalConfig::new(root.join(dir)))
            .with_repl(repl);
        Server::start("127.0.0.1:0", config).unwrap()
    };
    let primary = node("primary", ReplConfig::primary("127.0.0.1:0"));
    let follow = primary.repl_addr().unwrap().to_string();
    let standby = node(
        "standby",
        ReplConfig::standby("127.0.0.1:0", follow).with_auto_promote(false),
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while primary.metrics().standby_connected == 0 {
        assert!(Instant::now() < deadline, "the standby never attached");
        std::thread::sleep(Duration::from_millis(5));
    }

    let before = voluntary_switches();
    // Two shard threads, four acceptors, the puller and its handler.
    assert!(before.len() >= 8, "threads found: {before:?}");
    let window = Duration::from_secs(2);
    std::thread::sleep(window);
    let after = voluntary_switches();
    let switches: u64 = after
        .iter()
        .filter_map(|(tid, now)| Some(now - before.get(tid)?))
        .sum();
    // The clocks that remain: a heartbeat every 25 ms written by one
    // thread and read by another, a 50 ms park and a 50 and a 100 ms read
    // timeout — some 120 wake-ups a second. Four acceptors polling every
    // 2 ms were 2,000.
    let per_second = switches as f64 / window.as_secs_f64();
    assert!(per_second < 500.0, "{per_second} voluntary switches/s");

    // Blocked acceptors still stop.
    let started = Instant::now();
    standby.shutdown();
    primary.shutdown();
    assert!(started.elapsed() < Duration::from_secs(5));
    let _ = fs::remove_dir_all(&root);
}
