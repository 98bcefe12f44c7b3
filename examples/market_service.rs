//! A long-running REF market behind its network front-end (§4.4 served).
//!
//! The same churn story as before — four agents with hidden Cobb-Douglas
//! utilities join a two-resource market (24 GB/s bandwidth, 12 MB cache)
//! in two waves, converge, then churn — but now the market runs inside a
//! **ref-serve** server and every interaction goes over TCP as
//! newline-delimited JSON: `join`, `tick`, `query`, `snapshot`,
//! `metrics`, `leave`, `demand`. The example finishes by proving the
//! server is a pure transport: the snapshot fetched over the wire
//! restores to an engine that allocates bit-identically, and the journal
//! replays offline into the exact final state.
//!
//! Run with: `cargo run --example market_service`

use ref_fairness::core::resource::Capacity;
use ref_fairness::market::{MarketConfig, MarketEngine, MarketSnapshot};
use ref_fairness::serve::{replay, Client, ServeConfig, Server, Value};

fn market_config() -> Result<MarketConfig, Box<dyn std::error::Error>> {
    Ok(MarketConfig::new(Capacity::new(vec![24.0, 12.0])?).with_seed(7))
}

fn print_fits(client: &mut Client, truths: &[(u64, [f64; 2])]) {
    for &(id, t) in truths {
        let Ok(reply) = client.query_agent(id) else {
            continue;
        };
        let e = reply.get("elasticities").unwrap().as_array().unwrap();
        println!(
            "    agent {id}: fitted ({:.3}, {:.3})  true ({:.2}, {:.2})  refits {}",
            e[0].as_f64().unwrap(),
            e[1].as_f64().unwrap(),
            t[0],
            t[1],
            reply.get("refits").unwrap().as_u64().unwrap()
        );
    }
}

fn bundle(client: &mut Client, id: u64) -> Vec<f64> {
    let reply = client.query_agent(id).expect("live agent");
    reply
        .get("bundle")
        .and_then(Value::as_array)
        .expect("allocated agent has a bundle")
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Tick-on-demand: epochs run only when a client asks, so the run is
    // exactly reproducible. Pass `Some(interval)` for wall-clock epochs.
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig::new(market_config()?).with_epoch_interval(None),
    )?;
    println!("=== ref-serve listening on {} ===", server.addr());
    let mut client = Client::connect(server.addr())?;

    println!("\n=== Phase 1: two agents join over the wire, 20 epochs ===");
    client.join_truth(1, 1.0, &[0.6, 0.4])?;
    client.join_truth(2, 1.0, &[0.2, 0.8])?;
    for _ in 0..20 {
        client.tick()?;
    }
    print_fits(&mut client, &[(1, [0.6, 0.4]), (2, [0.2, 0.8])]);
    let (b1, b2) = (bundle(&mut client, 1), bundle(&mut client, 2));
    println!(
        "    allocation: agent 1 ({:.2} GB/s, {:.2} MB), agent 2 ({:.2} GB/s, {:.2} MB)",
        b1[0], b1[1], b2[0], b2[1]
    );
    // The paper's running example: the true REF point is (18, 4) / (6, 8).
    assert!((b1[0] - 18.0).abs() < 0.5);
    assert!((b2[1] - 8.0).abs() < 0.5);

    println!("\n=== Phase 2: two more join (4-agent market), 20 epochs ===");
    client.join_truth(3, 1.0, &[0.5, 0.5])?;
    client.join_truth(4, 1.0, &[0.75, 0.25])?;
    for _ in 0..20 {
        client.tick()?;
    }
    let truths = [
        (1, [0.6, 0.4]),
        (2, [0.2, 0.8]),
        (3, [0.5, 0.5]),
        (4, [0.75, 0.25]),
    ];
    print_fits(&mut client, &truths);
    for &(id, t) in &truths {
        let reply = client.query_agent(id)?;
        let e = reply.get("elasticities").unwrap().as_array().unwrap();
        assert!(
            (e[0].as_f64().unwrap() - t[0]).abs() < 0.05,
            "agent {id} did not converge"
        );
    }

    println!("\n=== Wire snapshot / offline restore round-trip ===");
    // Fleet ops answer per shard; this server is a one-shard fleet.
    let text = &client.snapshot()?[0];
    println!("    snapshot over the wire: {} bytes", text.len());
    let mut restored = MarketEngine::restore(&MarketSnapshot::decode(text)?)?;
    // Tick the server and the restored engine one epoch each; the served
    // market must allocate bit-identically to its offline twin.
    let served = client.tick()?;
    let offline = restored
        .apply_now(ref_fairness::market::MarketEvent::EpochTick)?
        .expect("a tick reports its epoch");
    // The tick reply carries the verdict, agents as a count; each bundle
    // is read back with `query {agent}`.
    let served_agents = served.get("report").and_then(|r| r.get("agents"));
    assert_eq!(
        served_agents.and_then(Value::as_u64),
        Some(offline.agents.len() as u64)
    );
    let offline_alloc = offline.allocation.expect("offline tick allocates");
    for (slot, &id) in offline.agents.iter().enumerate() {
        let reply = client.query_agent(id)?;
        let wire = reply
            .get("bundle")
            .and_then(Value::as_array)
            .expect("an agent of the last tick has a bundle");
        assert_eq!(wire.len(), offline_alloc.bundle(slot).as_slice().len());
        for (v, want) in wire.iter().zip(offline_alloc.bundle(slot).as_slice()) {
            assert_eq!(
                v.as_f64().unwrap().to_bits(),
                want.to_bits(),
                "served allocation diverged from the restored engine"
            );
        }
    }
    println!("    next-epoch allocations are bit-identical ✓");

    println!("\n=== Phase 3: agent 2 leaves, agent 1 changes demand, 15 epochs ===");
    client.leave(2)?;
    client.demand(1, Some((1.0, &[0.3, 0.7])))?;
    for _ in 0..15 {
        client.tick()?;
    }
    print_fits(
        &mut client,
        &[(1, [0.3, 0.7]), (3, [0.5, 0.5]), (4, [0.75, 0.25])],
    );

    println!("\n=== Service summary ===");
    let reply = client.metrics()?;
    let metrics = reply
        .get("shards")
        .and_then(Value::as_array)
        .and_then(<[Value]>::first)
        .expect("metrics reply carries shard 0");
    let epochs = metrics
        .get("market")
        .and_then(|m| m.get("epochs"))
        .and_then(Value::as_u64)
        .unwrap();
    println!(
        "    market metrics: {}",
        metrics.get("market").unwrap().encode()
    );
    println!(
        "    server accepted {} requests, rejected {} (overload)",
        metrics
            .get("server")
            .and_then(|s| s.get("accepted"))
            .and_then(Value::as_u64)
            .unwrap(),
        metrics
            .get("server")
            .and_then(|s| s.get("rejected_overload"))
            .and_then(Value::as_u64)
            .unwrap()
    );
    assert!(epochs >= 50, "ran {epochs} epochs");

    println!("\n=== Graceful drain + offline journal replay ===");
    let report = server.shutdown();
    assert_eq!(report.metrics.protocol_errors, 0);
    let replayed = replay(market_config()?, &report.journal)?;
    assert_eq!(
        replayed.snapshot().encode(),
        report.snapshot,
        "journal replay must be byte-identical"
    );
    println!(
        "    {} journaled events replay into the exact final state ✓",
        report.journal.len()
    );
    Ok(())
}
