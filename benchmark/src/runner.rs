//! One served run of one workload: spawn the server child, build the
//! population, drive the closed and paced phases from two threads, stop the
//! child, verify, and turn the samples into the end-to-end metrics.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use ref_serve::{Client, Value};

use crate::host::{pin_to_cpu, read_proc, steal_and_total_ticks, Cpus, ProcReading};
use crate::load::{run_closed, run_paced, PacedEnd, Sample};
use crate::script::{Op, OpKind, Script, Shape};
use crate::stats::{median, percentile, segment_of, segmented_percentile, SEGMENTS};

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value.
    pub samples: usize,
    /// Per-segment values, for metrics that are medians of segments.
    pub segments: Option<Vec<Option<f64>>>,
}

impl Metric {
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("value", Value::Num(self.value)),
            ("unit", Value::str(self.unit)),
            ("samples", Value::from_u64(self.samples as u64)),
        ];
        if let Some(segments) = &self.segments {
            fields.push((
                "segments",
                Value::Arr(
                    segments
                        .iter()
                        .map(|s| s.map_or(Value::Null, Value::Num))
                        .collect(),
                ),
            ));
        }
        Value::obj(fields)
    }
}

/// The outcome of one served run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    /// Every check passed and no op failed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    /// The end-to-end metrics, in reporting order.
    pub metrics: Vec<Metric>,
    /// Checks, counters and context that are not end-to-end metrics.
    pub details: Value,
}

impl RunResult {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::from_u64(self.attempted)),
            ("failed", Value::from_u64(self.failed)),
            ("wall_s", Value::Num(self.wall_s)),
            (
                "metrics",
                Value::Obj(
                    self.metrics
                        .iter()
                        .map(|m| (m.name.to_string(), m.to_json()))
                        .collect(),
                ),
            ),
            ("details", self.details.clone()),
        ])
    }
}

/// How a run is carried out.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Directory for the child's durable state (inside the checkout).
    pub tmp_root: PathBuf,
    /// Time five spare set-ups (a child is spawned, populated and dropped):
    /// two before the run, one after the closed phase and two at the end;
    /// `setup_s` is their median. Without, it is the time of the one set-up
    /// that serves the measured phases.
    ///
    /// They are spread over the run because the host's speed moves in
    /// stretches of seconds: five set-ups in a row land in one stretch, and
    /// their median is as noisy as one set-up. And a spare child is confined
    /// to the server CPU on every workload: a set-up is a few hundred to a
    /// few thousand closed-loop `join`s, request-path work, and against an
    /// unconfined child it takes 70 or 280 ms on `epoch_ref_churn` depending
    /// on where the kernel happened to put the child's reader thread.
    pub spare_setups: bool,
    /// Where the load threads and, on a workload that confines it, the
    /// server child run.
    pub cpus: Cpus,
    /// The traced run's served probe: only this many closed-phase ops per
    /// connection (rounds for `epoch_*`), no paced phase, and the server is
    /// asked for its `metrics` after every tick (untimed) to track the
    /// replication lag.
    pub probe: Option<usize>,
}

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A running server child.
struct Server {
    child: Child,
    /// `None` once closed: end of input is the child's signal to exit.
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: String,
    dir: PathBuf,
}

impl Server {
    /// Spawns the child, confined to `cpu` if given.
    fn spawn(script: &Script, tmp_root: &Path, cpu: Option<usize>) -> Result<Server, String> {
        let dir = tmp_root.join(format!(
            "{}-{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut command = Command::new(exe);
        command
            .arg("serve")
            .args(["--workload", script.workload.name])
            .arg("--dir")
            .arg(&dir);
        if let Some(cpu) = cpu {
            command.args(["--cpu", &cpu.to_string()]);
        }
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server child: {e}"))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("child stdout is piped"));
        let mut line = String::new();
        let announced = stdout.read_line(&mut line).map_err(|e| e.to_string());
        let mut server = Server {
            child,
            stdin,
            stdout,
            addr: String::new(),
            dir,
        };
        match (announced, line.strip_prefix("ADDR ")) {
            (Ok(_), Some(addr)) => {
                server.addr = addr.trim().to_string();
                Ok(server)
            }
            (announced, _) => Err(format!(
                "server child did not announce itself: {announced:?} {line:?}"
            )),
        }
    }

    /// Stops the child. With `verify`, asks for its report first.
    fn stop(mut self, verify: bool) -> Result<Option<Value>, String> {
        let mut report = None;
        if verify {
            let stdin = self.stdin.as_mut().expect("stdin is open until stop");
            writeln!(stdin, "shutdown")
                .and_then(|()| stdin.flush())
                .map_err(|e| format!("tell child to shut down: {e}"))?;
            let mut line = String::new();
            self.stdout
                .read_line(&mut line)
                .map_err(|e| format!("read child report: {e}"))?;
            let parsed = Value::parse(line.trim());
            report = Some(parsed.map_err(|e| format!("child report {line:?}: {e}"))?);
        }
        // A child that reported is on its way out; one that was not asked
        // to exits at the end of its input.
        self.stdin = None;
        let status = self.child.wait().map_err(|e| format!("wait child: {e}"))?;
        if !status.success() {
            return Err(format!("server child exited with {status}"));
        }
        Ok(report)
    }
}

/// However a run ends, the child is stopped and waited for and its scratch
/// directory removed.
impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A reply is good when it is `ok`; with `check_fairness` a tick's report
/// must also carry the paper's three properties (SI, EF, PE) as true.
fn reply_ok(reply: &Value, kind: OpKind, check_fairness: bool) -> bool {
    if reply.get("ok") != Some(&Value::Bool(true)) {
        return false;
    }
    if kind != OpKind::Tick || !check_fairness {
        return true;
    }
    let fairness = reply.get("report").and_then(|r| r.get("fairness"));
    ["sharing_incentives", "envy_free", "pareto_efficient"]
        .iter()
        .all(|flag| fairness.and_then(|f| f.get(flag)) == Some(&Value::Bool(true)))
}

/// The server's replication lag right now, in records (the largest over
/// its shards), from its `metrics` op.
fn repl_lag_records(client: &mut Client) -> u64 {
    let Ok(reply) = client.call_line(r#"{"op":"metrics"}"#) else {
        return 0;
    };
    // A sharded server nests each shard's reply under `shards`.
    let servers: Vec<&Value> = match reply.get("shards").and_then(Value::as_array) {
        Some(shards) => shards.iter().filter_map(|s| s.get("server")).collect(),
        None => reply.get("server").into_iter().collect(),
    };
    servers
        .iter()
        .filter_map(|server| server.get("repl_lag_records").and_then(Value::as_u64))
        .max()
        .unwrap_or(0)
}

/// Samples of one phase, per connection.
type PhaseSamples = [Vec<Sample>; 2];

/// `q`-th latency percentile of `kind` ops, in `unit` of `unit_ns`
/// nanoseconds: per segment (by op index on each connection), then the
/// median of segments.
fn latency_metric(
    name: &'static str,
    (unit, unit_ns): (&'static str, f64),
    phase: &PhaseSamples,
    kind: OpKind,
    q: f64,
) -> Option<Metric> {
    let samples: Vec<(usize, usize, u64)> = phase
        .iter()
        .flat_map(|conn| {
            conn.iter()
                .filter(|s| s.kind == kind)
                .map(|s| (s.index, conn.len(), s.latency_ns))
        })
        .collect();
    let got = segmented_percentile(&samples, q)?;
    Some(Metric {
        name,
        unit,
        value: got.value / unit_ns,
        samples: got.samples,
        segments: Some(
            got.segments
                .iter()
                .map(|s| s.map(|ns| ns / unit_ns))
                .collect(),
        ),
    })
}

/// Good ops per second of the closed phase, per segment: each connection's
/// ops in the segment over the time it spent on them, summed over
/// connections.
fn throughput_metric(phase: &PhaseSamples) -> Option<Metric> {
    if phase.iter().all(Vec::is_empty) {
        return None;
    }
    let mut segments = vec![0.0; SEGMENTS];
    let mut samples = 0;
    for conn in phase.iter().filter(|c| !c.is_empty()) {
        let (mut begin_ns, mut good) = (0, 0);
        for (i, sample) in conn.iter().enumerate() {
            good += usize::from(sample.ok);
            let segment = segment_of(sample.index, conn.len(), SEGMENTS);
            // The segment's last op closes it.
            if conn
                .get(i + 1)
                .is_none_or(|next| segment_of(next.index, conn.len(), SEGMENTS) != segment)
            {
                segments[segment] += good as f64 / ((sample.done_ns - begin_ns) as f64 / 1e9);
                samples += good;
                (begin_ns, good) = (sample.done_ns, 0);
            }
        }
    }
    Some(Metric {
        name: "ops_per_s",
        unit: "1/s",
        value: median(&segments)?,
        samples,
        segments: Some(segments.into_iter().map(Some).collect()),
    })
}

fn scalar(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
        segments: None,
    }
}

/// Confines a load thread to the load CPU.
fn confine(cpus: Cpus) {
    assert!(pin_to_cpu(cpus.load), "cannot run on cpu {}", cpus.load);
}

/// Spawns the server (confined if `confined`) and joins the population over
/// connection 0. Returns the server, both connections, the set-up time and
/// the failed joins.
fn set_up(
    script: &Script,
    options: &RunOptions,
    confined: bool,
) -> Result<(Server, [Client; 2], f64, u64), String> {
    let started = Instant::now();
    // Spawned from this, unconfined, thread: the child inherits its CPUs.
    let server_cpu = confined.then_some(options.cpus.server);
    let server = Server::spawn(script, &options.tmp_root, server_cpu)?;
    let connect = || Client::connect(server.addr.as_str()).map_err(|e| format!("connect: {e}"));
    let joined = std::thread::scope(|scope| {
        let load = scope.spawn(|| {
            confine(options.cpus);
            let mut clients = [connect()?, connect()?];
            let mut failed = 0;
            for line in script.setup_lines() {
                let good = clients[0]
                    .call_line(&line)
                    .is_ok_and(|reply| reply.get("ok") == Some(&Value::Bool(true)));
                failed += u64::from(!good);
            }
            Ok::<_, String>((clients, failed))
        });
        load.join().expect("set-up thread panicked")
    });
    let (clients, failed) = joined?;
    Ok((server, clients, started.elapsed().as_secs_f64(), failed))
}

/// Runs `script` once against a fresh server child.
pub fn run_workload(script: &Script, options: &RunOptions) -> Result<RunResult, String> {
    let run_started = Instant::now();
    let mut setup_times = Vec::new();
    let spare_setups = |n: usize, times: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..if options.spare_setups { n } else { 0 } {
            let (server, clients, setup_s, _) = set_up(script, options, true)?;
            drop(clients);
            server.stop(false)?;
            times.push(setup_s);
        }
        Ok(())
    };
    spare_setups(2, &mut setup_times)?;
    let (server, mut clients, setup_s, failed_joins) =
        set_up(script, options, script.workload.server_confined)?;
    if !options.spare_setups {
        setup_times.push(setup_s);
    }
    let pid = server.child.id();
    let before = read_proc(pid).map_err(|e| e.to_string())?;
    let host_before = steal_and_total_ticks();

    let check_fairness = script.workload.ref_epoch;
    let epoch = matches!(script.workload.shape, Shape::Epoch { .. });
    let closed_len = |conn: usize| match options.probe {
        Some(n) if epoch => (n * script.round_len()).min(script.closed_len(conn)),
        Some(n) => n.min(script.closed_len(conn)),
        None => script.closed_len(conn),
    };
    let probe = options.probe.is_some();
    let paced_phase = !probe;
    let mut repl_lag_records_max = 0;

    // One load thread per connection; `call` is the only code that touches
    // the socket, and the only place a reply is judged.
    let cpus = options.cpus;
    fn call(client: &mut Client, op: &Op, check_fairness: bool) -> bool {
        client
            .call_line(&op.line)
            .is_ok_and(|reply| reply_ok(&reply, op.kind, check_fairness))
    }

    let conn0_done = AtomicBool::new(false);
    let origin = Instant::now();
    let [client0, client1] = &mut clients;
    let closed: PhaseSamples;
    let mut paced: PhaseSamples = [Vec::new(), Vec::new()];
    (closed, paced[1]) = std::thread::scope(|scope| {
        let repl_lag_records_max = &mut repl_lag_records_max;
        let conn0 = scope.spawn(|| {
            confine(cpus);
            let samples = run_closed(
                closed_len(0),
                origin,
                |i| script.closed_op(0, i),
                |op| {
                    let good = call(client0, op, check_fairness);
                    if probe && op.kind == OpKind::Tick {
                        let lag = repl_lag_records(client0);
                        *repl_lag_records_max = lag.max(*repl_lag_records_max);
                    }
                    good
                },
            );
            conn0_done.store(true, Ordering::SeqCst);
            samples
        });
        // `epoch_*`: connection 1 paces for as long as connection 0 runs
        // its rounds. `serve_*`: it runs its own closed phase.
        let conn1 = scope.spawn(|| {
            confine(cpus);
            if epoch && paced_phase {
                let samples = run_paced(
                    script.paced_rate(1),
                    PacedEnd::Flag(&conn0_done),
                    origin,
                    |i| script.paced_op(1, i),
                    |op| call(client1, op, false),
                );
                (Vec::new(), samples)
            } else {
                let samples = run_closed(
                    closed_len(1),
                    origin,
                    |i| script.closed_op(1, i),
                    |op| call(client1, op, false),
                );
                (samples, Vec::new())
            }
        });
        let closed0 = conn0.join().expect("load thread 0 panicked");
        let (closed1, paced1) = conn1.join().expect("load thread 1 panicked");
        ([closed0, closed1], paced1)
    });
    let closed_wall_s = origin.elapsed().as_secs_f64();
    spare_setups(1, &mut setup_times)?;

    if !epoch && paced_phase {
        let origin = Instant::now();
        let [client0, client1] = &mut clients;
        paced = std::thread::scope(|scope| {
            let conn0 = scope.spawn(|| {
                confine(cpus);
                run_paced(
                    script.paced_rate(0),
                    PacedEnd::Count(script.paced_len(0).unwrap_or(0)),
                    origin,
                    |i| script.paced_op(0, i),
                    |op| call(client0, op, false),
                )
            });
            let conn1 = scope.spawn(|| {
                confine(cpus);
                run_paced(
                    script.paced_rate(1),
                    PacedEnd::Count(script.paced_len(1).unwrap_or(0)),
                    origin,
                    |i| script.paced_op(1, i),
                    |op| call(client1, op, false),
                )
            });
            [
                conn0.join().expect("load thread 0 panicked"),
                conn1.join().expect("load thread 1 panicked"),
            ]
        });
    }

    let after = read_proc(pid).map_err(|e| e.to_string())?;
    let host_steal_share = match (host_before, steal_and_total_ticks()) {
        (Some((steal0, total0)), Some((steal1, total1))) if total1 > total0 => {
            Value::Num((steal1 - steal0) as f64 / (total1 - total0) as f64)
        }
        _ => Value::Null,
    };
    spare_setups(2, &mut setup_times)?;
    drop(clients);
    let report = server.stop(true)?.ok_or("server child sent no report")?;

    // Accounting.
    let all = || closed.iter().chain(paced.iter()).flatten();
    let attempted = script.setup_lines().len() as u64 + all().count() as u64;
    let good_ops = all().filter(|s| s.ok).count();
    let mut failed = failed_joins + all().filter(|s| !s.ok).count() as u64;
    let checks = report.get("checks").cloned().unwrap_or(Value::Null);
    let checks_pass = match &checks {
        Value::Obj(pairs) => {
            !pairs.is_empty() && pairs.iter().all(|(_, v)| *v == Value::Bool(true))
        }
        _ => false,
    };
    let counters = report.get("counters").cloned().unwrap_or(Value::Null);
    let server_errors = counters.get("server_errors").and_then(Value::as_u64);
    if !checks_pass || server_errors != Some(0) {
        // A run whose outputs cannot be trusted has no good ops.
        failed = attempted;
    }

    let ProcReading {
        cpu_s,
        voluntary_ctx_switches,
        ..
    } = after;
    let mut metrics = vec![
        scalar(
            "setup_s",
            "s",
            median(&setup_times).expect("at least one set-up"),
            setup_times.len(),
        ),
        throughput_metric(&closed).ok_or("no closed-phase samples")?,
        scalar(
            "server_cpu_us_per_op",
            "us",
            (cpu_s - before.cpu_s) * 1e6 / good_ops.max(1) as f64,
            good_ops,
        ),
    ];
    const US: (&str, f64) = ("us", 1e3);
    const MS: (&str, f64) = ("ms", 1e6);
    let latency = [
        ("mutate_p50_us", US, &closed, OpKind::Mutate, 0.50),
        ("query_p50_us", US, &closed, OpKind::Query, 0.50),
        ("tick_p50_ms", MS, &closed, OpKind::Tick, 0.50),
        ("mutate_p99_us", US, &closed, OpKind::Mutate, 0.99),
        ("query_p99_us", US, &closed, OpKind::Query, 0.99),
        ("tick_p90_ms", MS, &closed, OpKind::Tick, 0.90),
        ("paced_mutate_p50_us", US, &paced, OpKind::Mutate, 0.50),
        ("paced_query_p50_us", US, &paced, OpKind::Query, 0.50),
        ("paced_mutate_p99_us", US, &paced, OpKind::Mutate, 0.99),
        ("paced_query_p99_us", US, &paced, OpKind::Query, 0.99),
    ];
    metrics.extend(
        latency
            .into_iter()
            .filter_map(|(name, unit, phase, kind, q)| latency_metric(name, unit, phase, kind, q)),
    );
    metrics.push(scalar("peak_rss_mb", "MiB", after.peak_rss_mb, 1));
    metrics.push(scalar(
        "failed_share",
        "share",
        failed as f64 / attempted.max(1) as f64,
        attempted as usize,
    ));

    let mut lateness: Vec<u64> = paced.iter().flatten().map(|s| s.late_ns).collect();
    lateness.sort_unstable();
    let lateness_p99_us = if lateness.is_empty() {
        Value::Null
    } else {
        Value::Num(percentile(&lateness, 0.99) as f64 / 1e3)
    };
    let closed_ops: usize = closed.iter().map(Vec::len).sum();
    let closed_latency_sum_ns: u64 = closed.iter().flatten().map(|s| s.latency_ns).sum();
    let details = Value::obj(vec![
        ("checks", checks),
        ("counters", counters),
        ("setup_s", Value::num_array(&setup_times)),
        ("closed_wall_s", Value::Num(closed_wall_s)),
        ("closed_ops", Value::from_u64(closed_ops as u64)),
        (
            "closed_mean_latency_us",
            Value::Num(closed_latency_sum_ns as f64 / 1e3 / closed_ops.max(1) as f64),
        ),
        (
            "paced_ops",
            Value::from_u64(paced.iter().map(Vec::len).sum::<usize>() as u64),
        ),
        ("generator_lateness_p99_us", lateness_p99_us),
        // Share of the host's CPU time over the measured phases that the
        // hypervisor took away: a run with much of it is not to be trusted.
        ("host_steal_share", host_steal_share),
        (
            "ctx_switches_per_op",
            Value::Num(
                (voluntary_ctx_switches.saturating_sub(before.voluntary_ctx_switches)) as f64
                    / good_ops.max(1) as f64,
            ),
        ),
        (
            "repl_lag_records_max",
            Value::from_u64(repl_lag_records_max),
        ),
        (
            "verify_ms",
            report.get("verify_ms").cloned().unwrap_or(Value::Null),
        ),
    ]);

    Ok(RunResult {
        workload: script.workload.name,
        correct: failed == 0,
        attempted,
        failed,
        wall_s: run_started.elapsed().as_secs_f64(),
        metrics,
        details,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(index: usize, kind: OpKind, latency_ns: u64, done_ns: u64) -> Sample {
        Sample {
            index,
            kind,
            ok: true,
            latency_ns,
            done_ns,
            late_ns: 0,
        }
    }

    #[test]
    fn throughput_sums_connections_per_segment() {
        // Connection 0: 10 ops, one per ms. Connection 1: 10 ops, one per
        // 2 ms. Every segment: 1000/s + 500/s.
        let conn0 = (0..10)
            .map(|i| sample(i, OpKind::Mutate, 1, (i as u64 + 1) * 1_000_000))
            .collect();
        let conn1 = (0..10)
            .map(|i| sample(i, OpKind::Query, 1, (i as u64 + 1) * 2_000_000))
            .collect();
        let got = throughput_metric(&[conn0, conn1]).unwrap();
        assert!((got.value - 1500.0).abs() < 1e-6, "{got:?}");
        assert_eq!(got.samples, 20);
    }

    #[test]
    fn latency_metric_filters_by_kind_and_reports_microseconds() {
        let conn0: Vec<Sample> = (0..100)
            .map(|i| {
                let kind = if i % 2 == 0 {
                    OpKind::Mutate
                } else {
                    OpKind::Query
                };
                sample(i, kind, if i % 2 == 0 { 5_000 } else { 9_000 }, 0)
            })
            .collect();
        let phase = [conn0, Vec::new()];
        let got = latency_metric("mutate_p50_us", ("us", 1e3), &phase, OpKind::Mutate, 0.5);
        let got = got.unwrap();
        assert_eq!((got.value, got.unit, got.samples), (5.0, "us", 50));
        let got = latency_metric("query_p50_ms", ("ms", 1e6), &phase, OpKind::Query, 0.5);
        assert_eq!(got.unwrap().value, 0.009);
        assert!(latency_metric("x", ("us", 1e3), &phase, OpKind::Tick, 0.5).is_none());
    }

    #[test]
    fn fairness_is_checked_only_where_asked() {
        let fair = Value::parse(
            r#"{"ok":true,"report":{"fairness":{"sharing_incentives":true,"envy_free":true,"pareto_efficient":true}}}"#,
        )
        .unwrap();
        let envious = Value::parse(
            r#"{"ok":true,"report":{"fairness":{"sharing_incentives":true,"envy_free":false,"pareto_efficient":true}}}"#,
        )
        .unwrap();
        let refused = Value::parse(r#"{"ok":false,"error":"overloaded"}"#).unwrap();
        assert!(reply_ok(&fair, OpKind::Tick, true));
        assert!(!reply_ok(&envious, OpKind::Tick, true));
        assert!(reply_ok(&envious, OpKind::Tick, false));
        assert!(reply_ok(&envious, OpKind::Query, true));
        assert!(!reply_ok(&refused, OpKind::Mutate, false));
    }
}
