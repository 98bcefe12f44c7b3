//! A fleet tick hands each shard thread one piece of work: a 4-shard
//! `tick` reads the `D_k` every shard published when it last released
//! its lock, so the only push is the allotted tick itself, and the four
//! shard threads wake four times per tick.
//!
//! Counted, not timed, as `handoffs.rs` counts: voluntary context
//! switches read from `/proc/self/task`, summed over the four threads
//! the kernel names `ref-serve-shard` (their names cut to 15 bytes
//! collide). Before each tick the test waits until all four sleep, since
//! a push that finds a thread awake costs it no switch. This file holds
//! one test on purpose, so no other test's server shares the process.
#![cfg(target_os = "linux")]

use std::fs;
use std::thread;
use std::time::{Duration, Instant};

use ref_core::resource::Capacity;
use ref_market::MarketConfig;
use ref_serve::{Client, ServeConfig, Server};

/// `ref-serve-shard-<k>` as the kernel names each of them.
const SHARD: &str = "ref-serve-shard";
const SHARDS: u64 = 4;

/// How long an idle shard thread parks between looks at its bus.
const IDLE_PARK: Duration = Duration::from_millis(50);

/// The `status` line starting `key`, past the key, of every live thread
/// of this process named `name`.
fn status_fields(name: &str, key: &str) -> Vec<String> {
    let mut found = Vec::new();
    for task in fs::read_dir("/proc/self/task").unwrap().flatten() {
        let (Ok(comm), Ok(status)) = (
            fs::read_to_string(task.path().join("comm")),
            fs::read_to_string(task.path().join("status")),
        ) else {
            continue;
        };
        if comm.trim_end() != name {
            continue;
        }
        let field = status
            .lines()
            .find_map(|line| line.strip_prefix(key))
            .unwrap_or_else(|| panic!("a {key} line"));
        found.push(field.trim().to_string());
    }
    found
}

/// Voluntary context switches so far, summed over the shard threads.
fn shard_switches() -> u64 {
    let counts = status_fields(SHARD, "voluntary_ctxt_switches:");
    assert_eq!(counts.len() as u64, SHARDS, "shard threads: {counts:?}");
    counts
        .iter()
        .map(|count| count.parse::<u64>().unwrap())
        .sum()
}

/// Waits, for at most a second, until every shard thread sleeps
/// (`State: S`), so that each one's next wake-up is a voluntary switch.
fn wait_until_all_asleep() {
    let deadline = Instant::now() + Duration::from_secs(1);
    let asleep = || {
        let states = status_fields(SHARD, "State:");
        states.len() as u64 == SHARDS && states.iter().all(|state| state.starts_with('S'))
    };
    while !asleep() && Instant::now() < deadline {
        thread::sleep(Duration::from_micros(50));
    }
}

/// The most times a thread parked for [`IDLE_PARK`] can have timed out
/// within `elapsed`.
fn parks(elapsed: Duration) -> u64 {
    (elapsed.as_millis() / IDLE_PARK.as_millis()) as u64 + 1
}

#[test]
fn a_four_shard_tick_wakes_each_shard_thread_once() {
    const TICKS: u64 = 200;

    let market = MarketConfig::new(Capacity::new(vec![16.0, 8.0]).unwrap());
    let config = ServeConfig::new(market)
        .with_epoch_interval(None)
        .with_shards(SHARDS as usize);
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for agent in 0..16 {
        client.join_truth(agent, 1.0, &[0.6, 0.4]).unwrap();
    }

    let (before, started) = (shard_switches(), Instant::now());
    for _ in 0..TICKS {
        wait_until_all_asleep();
        client.tick().unwrap();
    }
    let elapsed = started.elapsed();
    let woken = shard_switches() - before;
    println!(
        "{TICKS} ticks in {elapsed:?}: shard-thread wake-ups per {SHARDS}-shard tick {:.2} \
         ({} parks each)",
        woken as f64 / TICKS as f64,
        parks(elapsed)
    );
    assert!(
        (SHARDS * TICKS..=SHARDS * (TICKS + parks(elapsed))).contains(&woken),
        "{TICKS} ticks woke the {SHARDS} shard threads {woken} times in {elapsed:?}"
    );

    drop(client);
    server.shutdown();
}
