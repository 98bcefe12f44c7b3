//! The request path hands nothing off: an agent-scoped request runs to
//! completion on its connection's thread, so the shard thread sleeps
//! through it; a fleet `tick` is pushed to the shard thread, one
//! hand-off each way.
//!
//! Counted, not timed: voluntary context switches per thread, read from
//! `/proc/self/task` as `idle.rs` does. A tick that finds the shard thread
//! still awake from the last one costs it no switch, so before each tick
//! the test waits until the thread is asleep. This file holds one test on
//! purpose, so no other test's server shares the process.
#![cfg(target_os = "linux")]

use std::fs;
use std::thread;
use std::time::{Duration, Instant};

use ref_core::resource::Capacity;
use ref_market::MarketConfig;
use ref_serve::{Client, ServeConfig, Server};

/// How long an idle shard thread parks between looks at its bus.
const IDLE_PARK: Duration = Duration::from_millis(50);

/// The `status` line starting `key` of the one live thread of this process
/// named `name` (as the kernel keeps it: cut to 15 bytes), past the key.
fn status_field(name: &str, key: &str) -> String {
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
    assert_eq!(found.len(), 1, "threads named {name}: {found:?}");
    found.pop().unwrap()
}

/// Voluntary context switches so far of the thread named `name`.
fn voluntary_switches(name: &str) -> u64 {
    status_field(name, "voluntary_ctxt_switches:")
        .parse()
        .unwrap()
}

/// Waits, for at most a second, until the thread named `name` sleeps
/// (`State: S`), so that its next wake-up is a voluntary switch.
fn wait_until_asleep(name: &str) {
    let deadline = Instant::now() + Duration::from_secs(1);
    while !status_field(name, "State:").starts_with('S') && Instant::now() < deadline {
        thread::sleep(Duration::from_micros(50));
    }
}

/// How often the clock thread sweeps the fleet, taking the router's lock.
const SWEEP_EVERY: Duration = Duration::from_millis(25);

/// The most times a period of `every` can have elapsed within `elapsed`.
fn periods(elapsed: Duration, every: Duration) -> u64 {
    (elapsed.as_millis() / every.as_millis()) as u64 + 1
}

/// The most times a thread parked for [`IDLE_PARK`] can have timed out
/// within `elapsed`.
fn parks(elapsed: Duration) -> u64 {
    periods(elapsed, IDLE_PARK)
}

#[test]
fn agent_requests_wake_no_thread_and_a_tick_wakes_the_shard_once() {
    // `ref-serve-shard-0` as the kernel names it.
    const SHARD: &str = "ref-serve-shard";
    const CONN: &str = "ref-serve-conn";
    const REQUESTS: u64 = 2_000;
    const TICKS: u64 = 200;

    let market = MarketConfig::new(Capacity::new(vec![16.0, 8.0]).unwrap());
    let config = ServeConfig::new(market).with_epoch_interval(None);
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.join_external(1).unwrap();

    let (shard, started) = (voluntary_switches(SHARD), Instant::now());
    for i in 0..REQUESTS {
        client.observe(1, &[1.0, 2.0], 1.0 + i as f64).unwrap();
    }
    let (woken, elapsed) = (voluntary_switches(SHARD) - shard, started.elapsed());
    println!(
        "{REQUESTS} observes in {elapsed:?}: shard thread woken {woken} times ({} parks)",
        parks(elapsed)
    );
    assert!(
        woken <= parks(elapsed),
        "an agent request handed off to the shard thread: {woken} wake-ups in {elapsed:?}"
    );

    let (shard, conn) = (voluntary_switches(SHARD), voluntary_switches(CONN));
    let started = Instant::now();
    for _ in 0..TICKS {
        wait_until_asleep(SHARD);
        client.tick().unwrap();
    }
    let elapsed = started.elapsed();
    let shard = voluntary_switches(SHARD) - shard;
    let conn = voluntary_switches(CONN) - conn;
    println!(
        "{TICKS} ticks in {elapsed:?}: wake-ups per one-shard tick: shard {:.2}, \
         connection {:.2} ({} parks)",
        shard as f64 / TICKS as f64,
        conn as f64 / TICKS as f64,
        parks(elapsed)
    );
    assert!(
        (TICKS..=TICKS + parks(elapsed)).contains(&shard),
        "{TICKS} ticks woke the shard thread {shard} times in {elapsed:?}"
    );
    // Each tick blocks the connection thread twice: on the shard
    // thread's reply, and on the socket for the next request. A tick's
    // fan may also meet a clock sweep at the router's lock.
    assert!(
        conn <= 2 * TICKS + periods(elapsed, SWEEP_EVERY),
        "{TICKS} ticks woke the connection thread {conn} times in {elapsed:?}"
    );

    drop(client);
    server.shutdown();
}
