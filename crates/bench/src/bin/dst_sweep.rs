//! Deterministic-simulation sweep: thousands of seeded fault schedules
//! against the in-process fleet, every standing invariant checked.
//!
//! Each seed drives [`ref_dst::run_seed`]: a 2-shard fleet with a
//! primary and standby per shard, real WALs on simulated disks, the
//! server's own `ReplCore` and `RouterCore` over a simulated network,
//! and a seeded mix of crashes, panics, partitions, torn writes, failed
//! fsyncs, bit flips, divergence injection, and delay storms. A violation prints
//! the seed and the full per-event trace; `--seed N` replays that exact
//! run bit-identically.
//!
//! ```text
//! cargo run --release -p ref-bench --bin dst_sweep -- [--seeds 2000]
//!     [--quick] [--seed N] [--out BENCH_dst.json]
//! ```
//!
//! `--break-invariant ack|si|hb` (test-only) makes the simulator's
//! driver override a verdict of the real cores, to prove the sweep
//! catches and reproduces violations.

use std::collections::BTreeMap;
use std::time::Instant;

use ref_dst::{run_seed, BreakKind, RunOutcome, SimOptions};
use ref_serve::json::Value;

struct Args {
    seeds: u64,
    first_seed: u64,
    only_seed: Option<u64>,
    quick: bool,
    break_invariant: Option<BreakKind>,
    out: String,
    trace: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: 2000,
        first_seed: 0,
        only_seed: None,
        quick: false,
        break_invariant: None,
        out: "BENCH_dst.json".to_string(),
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match arg.as_str() {
            "--seeds" => args.seeds = value("--seeds").parse().expect("--seeds: integer"),
            "--first-seed" => {
                args.first_seed = value("--first-seed")
                    .parse()
                    .expect("--first-seed: integer");
            }
            "--seed" => {
                args.only_seed = Some(value("--seed").parse().expect("--seed: integer"));
                args.trace = true;
            }
            "--quick" => {
                args.quick = true;
                if args.seeds > 200 {
                    args.seeds = 200;
                }
            }
            "--break-invariant" => {
                args.break_invariant = Some(match value("--break-invariant").as_str() {
                    "ack" => BreakKind::AckUnreplicated,
                    "si" => BreakKind::SiDuringPartial,
                    "hb" => BreakKind::HeartbeatWhileDown,
                    other => panic!("unknown invariant to break: {other} (want ack|si|hb)"),
                });
            }
            "--out" => args.out = value("--out"),
            "--trace" => args.trace = true,
            other => panic!("unknown argument: {other}"),
        }
    }
    args
}

fn print_violation(outcome: &RunOutcome, trace: bool) {
    eprintln!(
        "dst_sweep: seed {} VIOLATED {} invariant(s) [classes: {}]",
        outcome.seed,
        outcome.violations.len(),
        outcome.classes.join(",")
    );
    for v in &outcome.violations {
        eprintln!("dst_sweep:   {v}");
    }
    if trace {
        eprintln!("dst_sweep: --- per-event trace (seed {}) ---", outcome.seed);
        for line in &outcome.trace {
            eprintln!("  {line}");
        }
    } else {
        eprintln!("dst_sweep: trace tail:");
        for line in outcome
            .trace
            .iter()
            .rev()
            .take(30)
            .collect::<Vec<_>>()
            .iter()
            .rev()
        {
            eprintln!("  {line}");
        }
    }
    eprintln!(
        "dst_sweep: reproduce with: cargo run --release -p ref-bench --bin dst_sweep -- --seed {}",
        outcome.seed
    );
}

fn main() {
    let args = parse_args();
    let opts = SimOptions {
        quick: args.quick,
        break_invariant: args.break_invariant,
    };
    let started = Instant::now();

    let seeds: Vec<u64> = match args.only_seed {
        Some(seed) => vec![seed],
        None => (args.first_seed..args.first_seed + args.seeds).collect(),
    };

    let mut violated_seeds: Vec<u64> = Vec::new();
    let mut total_violations = 0u64;
    let mut total_events = 0u64;
    let mut total_acked = 0u64;
    let mut total_freezes = 0u64;
    let mut total_partial = 0u64;
    let mut total_restores = 0u64;
    let mut total_held = 0u64;
    // Seeds on which a primary's audit caught a standby's fingerprint
    // disagreeing with its own: the sweep must prove detection, not only
    // agreement.
    let mut divergences_detected = 0u64;
    let mut class_histogram: BTreeMap<String, u64> = BTreeMap::new();
    let mut hash_of_hashes: u64 = 0xCBF2_9CE4_8422_2325;

    for (i, seed) in seeds.iter().copied().enumerate() {
        let outcome = run_seed(seed, &opts);
        total_events += outcome.sim_events;
        total_acked += outcome.acked_events;
        total_freezes += outcome.quorum_freezes;
        total_partial += outcome.partial_rounds;
        total_restores += outcome.restores;
        total_held += outcome.held;
        if outcome
            .trace
            .iter()
            .any(|l| l.contains("divergence detected"))
        {
            divergences_detected += 1;
        }
        for class in &outcome.classes {
            *class_histogram.entry(class.clone()).or_insert(0) += 1;
        }
        for byte in outcome.trace_hash.to_le_bytes() {
            hash_of_hashes ^= u64::from(byte);
            hash_of_hashes = hash_of_hashes.wrapping_mul(0x0000_0100_0000_01B3);
        }
        if !outcome.violations.is_empty() {
            violated_seeds.push(seed);
            total_violations += outcome.violations.len() as u64;
            print_violation(&outcome, args.trace);
        } else if args.only_seed.is_some() {
            eprintln!(
                "dst_sweep: seed {seed} clean: {} events, {} acked, hash {:016x}",
                outcome.sim_events, outcome.acked_events, outcome.trace_hash
            );
            if args.trace {
                for line in &outcome.trace {
                    println!("{line}");
                }
            }
        }
        if args.only_seed.is_none() && (i + 1) % 500 == 0 {
            eprintln!(
                "dst_sweep: {}/{} seeds, {} events, {} violation(s), {:.1}s",
                i + 1,
                seeds.len(),
                total_events,
                total_violations,
                started.elapsed().as_secs_f64()
            );
        }
    }

    let elapsed = started.elapsed();
    let events_per_sec = total_events as f64 / elapsed.as_secs_f64().max(1e-9);
    let classes = Value::obj(
        class_histogram
            .iter()
            .map(|(k, v)| (k.as_str(), Value::from_u64(*v)))
            .collect(),
    );
    let doc = Value::obj(vec![
        ("bench", Value::str("dst_sweep")),
        ("seeds_run", Value::from_u64(seeds.len() as u64)),
        (
            "first_seed",
            Value::from_u64(seeds.first().copied().unwrap_or(0)),
        ),
        ("quick", Value::Bool(args.quick)),
        (
            "break_invariant",
            match args.break_invariant {
                None => Value::Null,
                Some(BreakKind::AckUnreplicated) => Value::str("ack"),
                Some(BreakKind::SiDuringPartial) => Value::str("si"),
                Some(BreakKind::HeartbeatWhileDown) => Value::str("hb"),
            },
        ),
        ("violations", Value::from_u64(total_violations)),
        (
            "violated_seeds",
            Value::Arr(violated_seeds.iter().map(|s| Value::from_u64(*s)).collect()),
        ),
        ("sim_events", Value::from_u64(total_events)),
        ("acked_events", Value::from_u64(total_acked)),
        ("quorum_freezes", Value::from_u64(total_freezes)),
        ("partial_rounds", Value::from_u64(total_partial)),
        ("restores", Value::from_u64(total_restores)),
        ("held", Value::from_u64(total_held)),
        (
            "divergences_detected",
            Value::from_u64(divergences_detected),
        ),
        ("classes", classes),
        (
            "fleet_trace_hash",
            Value::str(format!("{hash_of_hashes:016x}")),
        ),
        ("elapsed_secs", Value::Num(elapsed.as_secs_f64())),
        ("sim_events_per_sec", Value::Num(events_per_sec)),
        (
            "all_ok",
            Value::Bool(total_violations == 0 || args.break_invariant.is_some()),
        ),
    ]);
    if let Err(e) = std::fs::write(&args.out, format!("{}\n", doc.encode())) {
        eprintln!("dst_sweep: cannot write {}: {e}", args.out);
        std::process::exit(1);
    }
    let histogram: Vec<String> = class_histogram
        .iter()
        .map(|(class, n)| format!("{class}={n}"))
        .collect();
    eprintln!(
        "dst_sweep: classes {}; {total_restores} snap restore(s), {total_held} record(s) held during catch-up",
        histogram.join(" ")
    );
    eprintln!(
        "dst_sweep: {} seeds, {} sim events ({:.0}/s), {} acked, {} freezes, {} divergence(s) caught, {} violation(s) -> {}",
        seeds.len(),
        total_events,
        events_per_sec,
        total_acked,
        total_freezes,
        divergences_detected,
        total_violations,
        args.out
    );

    // With a deliberately broken invariant the sweep must CATCH it;
    // on the real code path any violation is fatal.
    if args.break_invariant.is_some() {
        if total_violations == 0 && args.only_seed.is_none() {
            eprintln!("dst_sweep: FATAL: broken invariant was never caught");
            std::process::exit(1);
        }
    } else if total_violations > 0 {
        std::process::exit(1);
    }
}
