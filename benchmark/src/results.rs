//! The benchmark's metric tables and its one result schema.
//!
//! A result file (`results.json`) holds, per workload, every run made and
//! per metric the values of those runs with their median:
//!
//! ```text
//! { "schema": "refbench/1", "host": {..}, "seed": 11, "scale": 1, "comparable": true,
//!   "workloads": { "serve_mem": { "wall_s": [..],
//!       "metrics": { "ops_per_s": { "value": <median>, "unit": "1/s", "values": [..] }, .. },
//!       "runs": [ <one object per run: metrics with samples and segments, checks, counters> ] } } }
//! ```

use ref_serve::Value;

use crate::runner::RunResult;
use crate::stats::median;

/// `run_seconds` of `BENCHMARK.json`: the `--seconds` the driver passes.
/// Runs are op-counted; the workload table's counts are sized so that the
/// measured phases last about this long (a 6 s paced phase, closed phases of
/// about as much), and `--seconds S` scales every count by `S / RUN_SECONDS`.
pub const RUN_SECONDS: f64 = 12.0;

/// An end-to-end metric and the bound by which it may worsen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may get worse
    /// before a change counts as a regression (for `failed_share`: an
    /// absolute difference, as its baseline is 0).
    pub bound: f64,
    pub absolute: bool,
    /// Listed in `BENCHMARK.json`, so the PR driver rejects a change that
    /// worsens it beyond the bound. The driver also refuses a benchmark
    /// whose metric varies between runs by more than the bound, or whose
    /// median moves by more than the bound between two sets of runs of one
    /// commit. On the shared 2-CPU virtual machines this runs on, only the
    /// server's CPU time per op, its memory and the set-up time hold that
    /// with room to spare; throughput and every latency are reported, and
    /// judged by `refbench compare`, but not gated (see the README's "How
    /// well it repeats").
    pub gated: bool,
}

const fn timing(name: &'static str, unit: &'static str, gated: bool) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: false,
        bound: TIMING_BOUND,
        absolute: false,
        gated,
    }
}

/// The bound of every timing metric: the widest the driver allows. The host's
/// own speed wanders by more than a tenth from one ten-second run to the
/// next (a fixed compute loop does), so a tighter bound would reject noise.
const TIMING_BOUND: f64 = 0.25;

/// The end-to-end metrics, in reporting order.
pub const END_TO_END: &[EndToEnd] = &[
    timing("setup_s", "s", true),
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: TIMING_BOUND,
        absolute: false,
        gated: false,
    },
    timing("server_cpu_us_per_op", "us", true),
    timing("mutate_p50_us", "us", false),
    timing("query_p50_us", "us", false),
    timing("tick_p50_ms", "ms", false),
    timing("mutate_p99_us", "us", false),
    timing("query_p99_us", "us", false),
    timing("tick_p90_ms", "ms", false),
    timing("paced_mutate_p50_us", "us", false),
    timing("paced_query_p50_us", "us", false),
    timing("paced_mutate_p99_us", "us", false),
    timing("paced_query_p99_us", "us", false),
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.10,
        absolute: false,
        gated: true,
    },
    // 0 on the baseline, and `BENCHMARK.json` may not list a metric that is
    // 0: there it is the result line's `failed` over `attempted`.
    EndToEnd {
        name: "failed_share",
        unit: "share",
        higher_is_better: false,
        bound: 0.001,
        absolute: true,
        gated: false,
    },
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A bare measurement, as the result line and the trace summary carry it.
pub fn metric_json(value: f64, unit: &str) -> Value {
    Value::obj(vec![
        ("value", Value::Num(value)),
        ("unit", Value::str(unit)),
    ])
}

/// Multi-line JSON: objects and arrays of containers one entry per line,
/// arrays of scalars on one line, so a committed result file diffs well.
pub fn pretty(value: &Value) -> String {
    fn scalar(v: &Value) -> bool {
        !matches!(v, Value::Arr(_) | Value::Obj(_))
    }
    fn write(value: &Value, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent + 1);
        match value {
            Value::Arr(items) if !items.is_empty() && !items.iter().all(scalar) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    write(item, indent + 1, out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Value::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (key, item)) in pairs.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&Value::str(key.as_str()).encode());
                    out.push_str(": ");
                    write(item, indent + 1, out);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
            other => out.push_str(&other.encode()),
        }
    }
    let mut out = String::new();
    write(value, 0, &mut out);
    out.push('\n');
    out
}

/// One workload's entry of a result file, from its runs.
pub fn workload_entry(runs: &[RunResult]) -> Value {
    let mut metrics = Vec::new();
    for spec in END_TO_END {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|run| run.metric(spec.name).map(|m| m.value))
            .collect();
        let Some(mid) = median(&values) else {
            continue;
        };
        metrics.push((
            spec.name.to_string(),
            Value::obj(vec![
                ("value", Value::Num(mid)),
                ("unit", Value::str(spec.unit)),
                ("values", Value::num_array(&values)),
            ]),
        ));
    }
    Value::obj(vec![
        ("correct", Value::Bool(runs.iter().all(|r| r.correct))),
        (
            "wall_s",
            Value::num_array(&runs.iter().map(|r| r.wall_s).collect::<Vec<_>>()),
        ),
        ("metrics", Value::Obj(metrics)),
        (
            "runs",
            Value::Arr(runs.iter().map(RunResult::to_json).collect()),
        ),
    ])
}

/// The contents of `BENCHMARK.json`: how the driver runs the benchmark,
/// and what it reports.
pub fn manifest() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "bench",
    ];
    let named = |name: &str, rest: Vec<(&str, Value)>| {
        let mut fields = vec![("name", Value::str(name))];
        fields.extend(rest);
        Value::obj(fields)
    };
    Value::obj(vec![
        (
            "command",
            Value::Arr(command.iter().map(|s| Value::str(*s)).collect()),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                crate::script::workloads()
                    .iter()
                    .map(|w| named(w.name, vec![("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .filter(|m| m.gated)
                    .map(|m| {
                        let better = if m.higher_is_better {
                            "higher"
                        } else {
                            "lower"
                        };
                        named(
                            m.name,
                            vec![
                                ("unit", Value::str(m.unit)),
                                ("better", Value::str(better)),
                                ("bound", Value::Num(m.bound)),
                            ],
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                crate::trace::LAYER_METRICS
                    .iter()
                    .map(|&(name, unit, higher)| {
                        let better = if higher { "higher" } else { "lower" };
                        named(
                            name,
                            vec![("unit", Value::str(unit)), ("better", Value::str(better))],
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::workloads;
    use crate::trace::LAYER_METRICS;

    #[test]
    fn pretty_output_parses_back_to_the_same_value() {
        let value = Value::obj(vec![
            ("a", Value::num_array(&[1.0, 2.5])),
            (
                "b",
                Value::obj(vec![("c", Value::Arr(vec![Value::obj(vec![])]))]),
            ),
            ("d", Value::Arr(Vec::new())),
            ("e", Value::str("x\"y")),
        ]);
        let text = pretty(&value);
        assert_eq!(Value::parse(&text).unwrap(), value);
        assert!(text.contains("\"a\": [1,2.5]"), "{text}");
    }

    /// `BENCHMARK.json` is generated (`refbench manifest`); the committed
    /// file must be what the tables in this crate generate today.
    #[test]
    fn benchmark_json_is_current() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).unwrap();
        assert_eq!(
            committed,
            pretty(&manifest()),
            "regenerate with `refbench manifest`"
        );
        for w in workloads() {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(LAYER_METRICS.iter().map(|m| m.0))
        {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }
}
