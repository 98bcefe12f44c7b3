//! `refbench`: the end-to-end and per-layer benchmark of the REF market
//! service. See `benchmark/README.md`.
//!
//! ```text
//! refbench run     [--seed 11] [--repeat N] [--smoke] [--workload W]... [--out-dir D]
//! refbench trace   [--seed 11] [--workload W]... [--out-dir D]
//! refbench compare A.json B.json
//! refbench bench   --workload W --seed N --seconds S --trace 0|1     (one run, one JSON line)
//! refbench serve   --workload W --dir D [--cpu C]                     (the server child)
//! refbench manifest                                                   (prints BENCHMARK.json)
//! ```

mod child;
mod compare;
mod host;
mod load;
mod results;
mod rng;
mod runner;
mod script;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ref_serve::Value;

use host::Cpus;
use results::RUN_SECONDS;
use runner::{run_workload, RunOptions, RunResult};
use script::{workload, workloads, Script, Workload};
use trace::{trace_workload, ServedProbe, TraceResult};

/// The scale of a `--smoke` run: every op count divided by 20. Only runs at
/// scale 1, the op counts `BENCHMARK.json`'s `run_seconds` stands for, are
/// comparable with each other and with the committed baseline.
const SMOKE_SCALE: f64 = 1.0 / 20.0;

/// Parsed command-line flags: `--name value` pairs and bare switches.
struct Flags {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            values: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) if switches.contains(&name) => flags.switches.push(name.to_string()),
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.values.push((name.to_string(), value.clone()));
                }
                None => flags.positional.push(arg.clone()),
            }
        }
        Ok(flags)
    }

    fn all(&self, name: &str) -> Vec<&str> {
        self.values
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn optional<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let parse = |text: &&str| text.parse().map_err(|_| format!("bad --{name} {text:?}"));
        self.all(name).last().map(parse).transpose()
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.optional(name)?.unwrap_or(default))
    }

    fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.optional(name)?
            .ok_or_else(|| format!("missing --{name}"))
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The workloads named by `--workload` (all six when none is).
    fn workloads(&self) -> Result<Vec<Workload>, String> {
        let names = self.all("workload");
        if names.is_empty() {
            return Ok(workloads());
        }
        names
            .into_iter()
            .map(|name| workload(name).ok_or_else(|| format!("unknown workload {name:?}")))
            .collect()
    }
}

/// Where a run's two sides go; refuses a host with fewer than two CPUs.
fn cpus() -> Result<Cpus, String> {
    host::cpus().ok_or_else(|| format!("refbench needs 2 CPUs, found {:?}", host::allowed_cpus()))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {parent:?}: {e}"))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {path:?}: {e}"))
}

fn print_run(result: &RunResult) {
    let steal = result.details.get("host_steal_share");
    println!(
        "{}: {} ops, {} failed, {:.1} s, host steal {:.1}%{}",
        result.workload,
        result.attempted,
        result.failed,
        result.wall_s,
        steal.and_then(Value::as_f64).unwrap_or(f64::NAN) * 100.0,
        if result.correct {
            ""
        } else {
            "  ** INCORRECT **"
        }
    );
    for metric in &result.metrics {
        println!(
            "  {:<24} {:>14.4} {:<6} ({} samples)",
            metric.name, metric.value, metric.unit, metric.samples
        );
    }
}

/// A short served run of the traced ops, for the gauges and latencies the
/// traced metrics need from a real server.
fn served_probe(
    script: &Script,
    tmp_root: &Path,
    cpus: Cpus,
) -> Result<(ServedProbe, RunResult), String> {
    let run = run_workload(
        script,
        &RunOptions {
            tmp_root: tmp_root.to_path_buf(),
            spare_setups: false,
            cpus,
            probe: Some(script.trace_len()),
        },
    )?;
    let metric = |name: &str| run.metric(name).map_or(0.0, |m| m.value);
    let detail = |path: &[&str]| {
        path.iter()
            .try_fold(&run.details, |v, key| v.get(key))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let probe = ServedProbe {
        closed_mean_latency_us: detail(&["closed_mean_latency_us"]),
        mutate_p50_us: metric("mutate_p50_us"),
        query_p50_us: metric("query_p50_us"),
        ctx_switches_per_op: detail(&["ctx_switches_per_op"]),
        bus_depth_max: detail(&["counters", "bus_depth_max"]),
        rejected_overload: detail(&["counters", "rejected_overload"]),
        repl_lag_records_max: detail(&["repl_lag_records_max"]),
    };
    Ok((probe, run))
}

/// The traced run of one workload: the served probe, then the in-process
/// replay. The spans go to `<out_dir>/trace.<workload>.json`.
fn traced(script: &Script, out_dir: &Path, cpus: Cpus) -> Result<TraceResult, String> {
    let tmp_root = out_dir.join("tmp");
    let (probe, served) = served_probe(script, &tmp_root, cpus)?;
    let dir = tmp_root.join(format!("trace-{}", std::process::id()));
    // The replay stands in for the server, so its thread runs where the
    // server's run (and `ref_pool` is as wide as the server's).
    let replay = || {
        if script.workload.server_confined && !host::pin_to_cpu(cpus.server) {
            return Err(format!("cannot run on cpu {}", cpus.server));
        }
        trace_workload(script, &dir, probe)
    };
    let mut result = std::thread::scope(|scope| {
        let thread = scope.spawn(replay);
        thread.join().expect("replay thread panicked")
    })?;
    result.checks.push(("served_probe_correct", served.correct));
    result.correct &= served.correct;
    result.attempted += served.attempted;
    result.failed += served.failed;
    let name = script.workload.name;
    write_file(
        &out_dir.join(format!("trace.{name}.json")),
        &trace::spans_to_json(name, &result.spans),
    )?;
    Ok(result)
}

fn header(seed: u64, scale: f64) -> Vec<(&'static str, Value)> {
    vec![
        ("schema", Value::str("refbench/1")),
        ("host", host::metadata()),
        ("seed", Value::from_u64(seed)),
        ("scale", Value::Num(scale)),
        ("comparable", Value::Bool(scale == 1.0)),
    ]
}

fn cmd_run(flags: &Flags) -> Result<ExitCode, String> {
    let cpus = cpus()?;
    let seed: u64 = flags.get("seed", 11)?;
    let smoke = flags.switch("smoke");
    let scale = if smoke { SMOKE_SCALE } else { 1.0 };
    let repeat: usize = flags.get("repeat", 1)?;
    let out_dir: PathBuf = flags.get("out-dir", PathBuf::from("benchmark/out"))?;
    let options = RunOptions {
        tmp_root: out_dir.join("tmp"),
        spare_setups: !smoke,
        cpus,
        probe: None,
    };
    if smoke {
        println!("NOT COMPARABLE: op counts are not those of BENCHMARK.json (scale {scale})");
    }
    let mut entries = Vec::new();
    let mut all_correct = true;
    for w in flags.workloads()? {
        let script = Script::new(w, seed, scale);
        let mut runs = Vec::new();
        for _ in 0..repeat.max(1) {
            let result = run_workload(&script, &options)?;
            print_run(&result);
            all_correct &= result.correct;
            runs.push(result);
        }
        entries.push((
            script.workload.name.to_string(),
            results::workload_entry(&runs),
        ));
    }
    let mut doc = header(seed, scale);
    doc.push(("workloads", Value::Obj(entries)));
    let path = out_dir.join("results.json");
    write_file(&path, &results::pretty(&Value::obj(doc)))?;
    println!("wrote {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_trace(flags: &Flags) -> Result<ExitCode, String> {
    let cpus = cpus()?;
    let seed: u64 = flags.get("seed", 11)?;
    let out_dir: PathBuf = flags.get("out-dir", PathBuf::from("benchmark/out"))?;
    let mut entries = Vec::new();
    let mut all_correct = true;
    for w in flags.workloads()? {
        let script = Script::new(w, seed, 1.0);
        let result = traced(&script, &out_dir, cpus)?;
        println!(
            "{}: {} ops traced, {} spans{}",
            script.workload.name,
            result.attempted,
            result.spans.len(),
            if result.correct {
                ""
            } else {
                "  ** INCORRECT **"
            }
        );
        for (check, _) in result.checks.iter().filter(|(_, pass)| !pass) {
            println!("  FAILED CHECK: {check}");
        }
        for metric in &result.metrics {
            println!(
                "  {:<40} {:>16.4} {}",
                metric.name, metric.value, metric.unit
            );
        }
        all_correct &= result.correct;
        entries.push((
            script.workload.name.to_string(),
            Value::obj(vec![
                ("correct", Value::Bool(result.correct)),
                ("ops", Value::from_u64(result.attempted)),
                ("spans", Value::from_u64(result.spans.len() as u64)),
                ("metrics", result.metrics_json()),
            ]),
        ));
    }
    let mut doc = header(seed, 1.0);
    doc.push(("workloads", Value::Obj(entries)));
    let path = out_dir.join("trace_summary.json");
    write_file(&path, &results::pretty(&Value::obj(doc)))?;
    println!("wrote {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_compare(flags: &Flags) -> Result<ExitCode, String> {
    let [a, b] = flags.positional.as_slice() else {
        return Err("usage: refbench compare A.json B.json".to_string());
    };
    let load = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Value::parse(&text).map_err(|e| format!("parse {path}: {e}"))
    };
    let (doc_a, doc_b) = (load(a)?, load(b)?);
    for (path, doc) in [(a, &doc_a), (b, &doc_b)] {
        if doc.get("comparable") != Some(&Value::Bool(true)) {
            println!("warning: {path} is marked not comparable (smoke or off-scale run)");
        }
    }
    let rows = compare::compare(&doc_a, &doc_b);
    print!("{}", compare::render(&rows));
    let count = |v: compare::Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} improved, {} unchanged, {} regressed, {} unresolved",
        rows.len(),
        count(compare::Verdict::Improved),
        count(compare::Verdict::Unchanged),
        count(compare::Verdict::Regressed),
        count(compare::Verdict::Unresolved)
    );
    // Two sets of one commit are the benchmark's self-check: a gated metric
    // that reads regressed or unresolved there does not hold its bound.
    let failing = rows.iter().filter(|row| row.fails()).count();
    if failing > 0 {
        println!("{failing} gated rows regressed or unresolved");
    }
    Ok(if failing == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The driver's entry point: one run of one workload, and as the last line
/// of standard output one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
fn cmd_bench(flags: &Flags) -> Result<ExitCode, String> {
    let cpus = cpus()?;
    let name: String = flags.require("workload")?;
    let w = workload(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed: u64 = flags.require("seed")?;
    let seconds: f64 = flags.require("seconds")?;
    let traced_run = match flags.require::<u8>("trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let script = Script::new(w, seed, seconds / RUN_SECONDS);
    let out_dir = PathBuf::from("benchmark/out");
    let (correct, attempted, failed, metrics) = if traced_run {
        let result = traced(&script, &out_dir, cpus)?;
        let metrics = result.metrics_json();
        (result.correct, result.attempted, result.failed, metrics)
    } else {
        let options = RunOptions {
            tmp_root: out_dir.join("tmp"),
            spare_setups: true,
            cpus,
            probe: None,
        };
        let result = run_workload(&script, &options)?;
        let mut metrics = Vec::new();
        for spec in results::END_TO_END.iter().filter(|spec| spec.gated) {
            let m = result
                .metric(spec.name)
                .ok_or_else(|| format!("{name} produced no {}", spec.name))?;
            metrics.push((spec.name.to_string(), results::metric_json(m.value, m.unit)));
        }
        let metrics = Value::Obj(metrics);
        (result.correct, result.attempted, result.failed, metrics)
    };
    let line = Value::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::from_u64(attempted)),
        ("failed", Value::from_u64(failed)),
        ("metrics", metrics),
    ]);
    println!("{}", line.encode());
    Ok(ExitCode::SUCCESS)
}

fn cmd_serve(flags: &Flags) -> Result<ExitCode, String> {
    let name: String = flags.require("workload")?;
    let w = workload(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let dir: PathBuf = flags.require("dir")?;
    child::serve(&w, &dir, flags.optional("cpu")?).map_err(|e| format!("serve {name}: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: refbench run|trace|compare|bench|serve ... (see benchmark/README.md)");
        return ExitCode::from(2);
    };
    let outcome = Flags::parse(rest, &["smoke"]).and_then(|flags| match command.as_str() {
        "run" => cmd_run(&flags),
        "trace" => cmd_trace(&flags),
        "compare" => cmd_compare(&flags),
        "bench" => cmd_bench(&flags),
        "serve" => cmd_serve(&flags),
        "manifest" => {
            print!("{}", results::pretty(&results::manifest()));
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}")),
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("refbench: {message}");
            ExitCode::FAILURE
        }
    }
}
