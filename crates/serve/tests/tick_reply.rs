//! The size of a `tick` reply is the size of the epoch's verdict, not of
//! the market: through a real `Server`, at 128 and 2,000 agents on 1 and
//! 4 shards, the reply differs between the two markets only in the
//! digits of its numbers. `report.agents` is the live count, and no array
//! in the reply grows with the agent count; an agent's bundle is read
//! with `query {agent}` instead.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use ref_core::resource::Capacity;
use ref_market::MarketConfig;
use ref_serve::{Client, ServeConfig, Server, Value};

/// Ticks before the measured one: past the first reallocation, so the
/// reply carries a fairness block.
const WARM_TICKS: usize = 3;

/// The raw line of the fourth `tick` reply of a market of `agents`
/// ground-truth agents on `shards` shards.
fn tick_reply(shards: usize, agents: u64) -> String {
    let market = MarketConfig::new(Capacity::new(vec![64.0, 32.0]).unwrap());
    let config = ServeConfig::new(market)
        .with_epoch_interval(None)
        .with_shards(shards);
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for agent in 0..agents {
        let e0 = 0.1 + 0.8 * (agent % 97) as f64 / 97.0;
        client.join_truth(agent, 1.0, &[e0, 1.0 - e0]).unwrap();
    }
    // The measured replies are read off the socket as sent.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    for _ in 0..=WARM_TICKS {
        stream.write_all(b"{\"op\":\"tick\"}\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
    }
    // Bundles still answer, one agent at a time.
    let one = client.query_agent(agents - 1).unwrap();
    let bundle = one.get("bundle").and_then(Value::as_array);
    assert_eq!(bundle.map(<[Value]>::len), Some(2), "{one}");
    drop((client, stream, reader));
    server.shutdown();
    line.trim_end().to_string()
}

/// `value` with every number written as `0`: what is left of a reply
/// once digit widths are taken out.
fn without_digits(value: &Value) -> Value {
    match value {
        Value::Num(_) => Value::from_u64(0),
        Value::Arr(items) => Value::Arr(items.iter().map(without_digits).collect()),
        Value::Obj(pairs) => Value::Obj(
            pairs
                .iter()
                .map(|(key, v)| (key.clone(), without_digits(v)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Every array in `value`, by path, with its length.
fn array_lengths(value: &Value, path: &str, out: &mut Vec<(String, usize)>) {
    match value {
        Value::Arr(items) => {
            out.push((path.to_string(), items.len()));
            for (i, item) in items.iter().enumerate() {
                array_lengths(item, &format!("{path}[{i}]"), out);
            }
        }
        Value::Obj(pairs) => {
            for (key, v) in pairs {
                array_lengths(v, &format!("{path}.{key}"), out);
            }
        }
        _ => {}
    }
}

#[test]
fn a_tick_reply_does_not_grow_with_the_market() {
    for (shards, bound) in [(1, 1_024), (4, 4_096)] {
        let [small, large] = [128, 2_000].map(|agents| {
            let text = tick_reply(shards, agents);
            let reply = Value::parse(&text).unwrap();
            assert_eq!(reply.get("ok"), Some(&Value::Bool(true)), "{text}");
            let report = reply.get("report").expect("a merged report");
            assert_eq!(
                report.get("agents").and_then(Value::as_u64),
                Some(agents),
                "{shards} shard(s): {text}"
            );
            assert!(report.get("fairness").is_some(), "{text}");
            let shard_reports = reply.get("shards").and_then(Value::as_array).unwrap();
            assert_eq!(shard_reports.len(), shards);
            let per_shard: u64 = shard_reports
                .iter()
                .filter_map(|s| s.get("report")?.get("agents")?.as_u64())
                .sum();
            assert_eq!(per_shard, agents, "{text}");
            println!("{shards} shard(s), {agents} agents: {} bytes", text.len());
            assert!(
                text.len() <= bound,
                "{shards} shard(s), {agents} agents: a {}-byte tick reply, bound {bound}",
                text.len()
            );
            (text, reply)
        });
        let (mut small_arrays, mut large_arrays) = (Vec::new(), Vec::new());
        array_lengths(&small.1, "", &mut small_arrays);
        array_lengths(&large.1, "", &mut large_arrays);
        assert_eq!(small_arrays, large_arrays, "{shards} shard(s)");
        assert_eq!(
            without_digits(&small.1).encode(),
            without_digits(&large.1).encode(),
            "{shards} shard(s): the replies differ beyond their digits"
        );
    }
}
