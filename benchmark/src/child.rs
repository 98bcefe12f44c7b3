//! The server side of a run: `refbench serve` hosts `ref_serve::Server` in a
//! process of its own, so its CPU time, context switches and peak RSS are the
//! server's alone.
//!
//! Protocol with the parent, over the child's stdin/stdout: the child prints
//! `ADDR <client address>` once it accepts connections (for `serve_repl_sync`,
//! once the standby is attached too); on the line `shutdown` it stops the
//! server, verifies what the server produced and prints one JSON report line;
//! on anything else, or end of input, it exits without verifying.

use std::io::{BufRead, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use ref_serve::{wal, ReplConfig, ServeConfig, Server, ShutdownReport, Value, WalConfig};

use crate::script::{Durability, Workload};

/// The server configuration of `workload`, with durable state under `dir`.
/// Ticks are explicit ops in the script (`epoch_interval: None`), so the
/// server's work is a function of the script, not of wall time.
fn serve_config(workload: &Workload, dir: &Path) -> ServeConfig {
    let config = ServeConfig::new(workload.market())
        .with_epoch_interval(None)
        .with_shards(workload.shards);
    match workload.durability {
        Durability::None => config,
        Durability::WalFsync => config.with_wal(WalConfig::new(dir.join("wal")).with_fsync(true)),
        Durability::ReplSync => config
            .with_wal(WalConfig::new(dir.join("primary")))
            .with_repl(ReplConfig::primary("127.0.0.1:0").with_sync(true)),
    }
}

fn standby_config(workload: &Workload, dir: &Path, primary_repl: String) -> ServeConfig {
    ServeConfig::new(workload.market())
        .with_epoch_interval(None)
        .with_rng_seed(0x5EED + 1)
        .with_wal(WalConfig::new(dir.join("standby")))
        .with_repl(ReplConfig::standby("127.0.0.1:0", primary_repl).with_auto_promote(false))
}

/// Replays each shard's journal offline and compares with the snapshot the
/// shard shut down with: the server was a pure transport.
fn replay_matches(workload: &Workload, report: &ShutdownReport) -> bool {
    let config = ref_serve::shard_market_config(&workload.market(), workload.shards);
    report.shards.iter().all(|shard| {
        !shard.journal_overflowed
            && ref_serve::replay(config.clone(), &shard.journal)
                .is_ok_and(|engine| engine.snapshot().encode() == shard.snapshot)
    })
}

fn counters(report: &ShutdownReport, standby: Option<&ShutdownReport>) -> Value {
    let shards = report
        .shards
        .iter()
        .chain(standby.iter().flat_map(|s| &s.shards));
    let (mut errors, mut depth_max, mut overload) = (0, 0, 0);
    for shard in shards {
        let m = &shard.metrics;
        errors += m.protocol_errors + m.reader_panics + m.ticker_panics + m.divergences;
        errors += m.wal_errors + m.degraded + m.fenced;
        depth_max = depth_max.max(m.queue_depth_max);
        overload += m.rejected_overload;
    }
    Value::obj(vec![
        // protocol_errors + reader_panics + ticker_panics + divergences +
        // wal_errors + degraded + fenced, over every shard and the standby.
        ("server_errors", Value::from_u64(errors)),
        ("bus_depth_max", Value::from_u64(depth_max)),
        // Threads the server's parallel loops fan out to: the CPUs it has.
        ("pool_width", Value::from_u64(ref_pool::threads() as u64)),
        ("rejected_overload", Value::from_u64(overload)),
        (
            "market",
            Value::Arr(
                report
                    .shards
                    .iter()
                    .map(|s| Value::parse(&s.market_metrics_json).unwrap_or(Value::Null))
                    .collect(),
            ),
        ),
    ])
}

/// Runs the child until the parent tells it to stop: confined to `cpu` (the
/// server threads it starts inherit that) when given one, else free to use
/// every CPU the process may.
pub fn serve(workload: &Workload, dir: &Path, cpu: Option<usize>) -> std::io::Result<()> {
    if let Some(cpu) = cpu.filter(|&cpu| !crate::host::pin_to_cpu(cpu)) {
        return Err(std::io::Error::other(format!("cannot run on cpu {cpu}")));
    }
    let config = serve_config(workload, dir);
    let server = Server::start("127.0.0.1:0", config.clone())?;
    let standby = match workload.durability {
        Durability::ReplSync => {
            let primary_repl = server.repl_addr().expect("primary has a repl listener");
            let standby = Server::start(
                "127.0.0.1:0",
                standby_config(workload, dir, primary_repl.to_string()),
            )?;
            let deadline = Instant::now() + Duration::from_secs(10);
            while server.metrics().standby_connected == 0 {
                if Instant::now() > deadline {
                    return Err(std::io::Error::other("standby never attached"));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Some(standby)
        }
        _ => None,
    };
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "ADDR {}", server.addr())?;
    stdout.flush()?;

    let mut command = String::new();
    std::io::stdin().lock().read_line(&mut command)?;
    if command.trim() != "shutdown" {
        // Abandon the servers: the parent only wanted the set-up.
        std::process::exit(0);
    }

    let started = Instant::now();
    let report = server.shutdown();
    let standby_report = standby.map(Server::shutdown);
    let mut checks = vec![("replay", Value::Bool(replay_matches(workload, &report)))];
    if let Some(standby) = &standby_report {
        // Sync replication held every reply until the standby had applied
        // the record, so the two histories are the same length.
        checks.push((
            "standby_equal",
            Value::Bool(standby.snapshot == report.snapshot),
        ));
    }
    if workload.durability == Durability::WalFsync {
        let recovered = Server::recover("127.0.0.1:0", config)?.shutdown();
        checks.push((
            "recover",
            Value::Bool(recovered.snapshot == report.snapshot),
        ));
        let scrub = wal::scrub(&dir.join("wal"))?;
        checks.push(("scrub", Value::Bool(scrub.is_clean())));
    }
    let line = Value::obj(vec![
        ("checks", Value::obj(checks)),
        ("counters", counters(&report, standby_report.as_ref())),
        (
            "verify_ms",
            Value::Num(started.elapsed().as_secs_f64() * 1e3),
        ),
    ]);
    writeln!(stdout, "{}", line.encode())?;
    stdout.flush()
}
