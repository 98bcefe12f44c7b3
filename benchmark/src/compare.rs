//! `refbench compare A.json B.json`: one row per workload and end-to-end
//! metric, with both medians, the ratio with its base, and a verdict.

use ref_serve::Value;

use crate::results::{end_to_end, EndToEnd};
use crate::stats::{median, spread};

/// What the comparison says about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound and the spread.
    Improved,
    /// B's median is within the bound of A's.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The runs of one side differ among themselves by more than the bound,
    /// so a difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A for one metric. `a` and `b` hold one value per run.
pub fn judge(spec: &EndToEnd, a: &[f64], b: &[f64]) -> Option<Verdict> {
    let (mid_a, mid_b) = (median(a)?, median(b)?);
    // How much worse B is, in the metric's own direction: a share of A's
    // median, or the plain difference for an absolute bound.
    let sign = if spec.higher_is_better { -1.0 } else { 1.0 };
    let worse = if spec.absolute {
        sign * (mid_b - mid_a)
    } else if mid_a == 0.0 {
        return None;
    } else {
        sign * (mid_b - mid_a) / mid_a.abs()
    };
    let noise = if spec.absolute {
        0.0
    } else {
        [a, b]
            .iter()
            .filter_map(|side| spread(side))
            .fold(0.0, f64::max)
    };
    if noise > spec.bound {
        // Too noisy to call, unless the sides do not even overlap.
        let better = |x: f64, y: f64| sign * (x - y) < 0.0;
        if b.iter().all(|&y| a.iter().all(|&x| better(y, x))) {
            return Some(Verdict::Improved);
        }
        return Some(Verdict::Unresolved);
    }
    Some(if worse > spec.bound {
        Verdict::Regressed
    } else if worse < -spec.bound.max(noise) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    })
}

fn values_of(metric: &Value) -> Vec<f64> {
    match metric.get("values").and_then(Value::as_array) {
        Some(values) => values.iter().filter_map(Value::as_f64).collect(),
        None => metric
            .get("value")
            .and_then(Value::as_f64)
            .into_iter()
            .collect(),
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
    /// The PR driver enforces this metric's bound (see [`EndToEnd::gated`]).
    pub gated: bool,
}

impl Row {
    /// A gated metric that got worse beyond its bound, or whose own runs
    /// spread wider than the bound: two sets of one commit must show none.
    pub fn fails(&self) -> bool {
        self.gated && matches!(self.verdict, Verdict::Regressed | Verdict::Unresolved)
    }
}

/// Compares two parsed result files, workload by workload in A's order.
pub fn compare(a: &Value, b: &Value) -> Vec<Row> {
    let workloads = |doc: &Value| match doc.get("workloads") {
        Some(Value::Obj(pairs)) => pairs.clone(),
        _ => Vec::new(),
    };
    let side_b = workloads(b);
    let mut rows = Vec::new();
    for (workload, entry_a) in workloads(a) {
        let Some((_, entry_b)) = side_b.iter().find(|(name, _)| *name == workload) else {
            continue;
        };
        let Some(Value::Obj(metrics_a)) = entry_a.get("metrics") else {
            continue;
        };
        for (name, metric_a) in metrics_a {
            let (Some(spec), Some(metric_b)) = (
                end_to_end(name),
                entry_b.get("metrics").and_then(|m| m.get(name)),
            ) else {
                continue;
            };
            let (values_a, values_b) = (values_of(metric_a), values_of(metric_b));
            let Some(verdict) = judge(spec, &values_a, &values_b) else {
                continue;
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: name.clone(),
                unit: spec.unit.to_string(),
                a: median(&values_a).expect("judged metrics have values"),
                b: median(&values_b).expect("judged metrics have values"),
                verdict,
                gated: spec.gated,
            });
        }
    }
    rows
}

/// The comparison as a table. Every ratio names its base.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<22} {:>14} {:>14}  {:<22} {}\n",
        "workload", "metric", "A", "B", "B/A (base A)", "verdict"
    );
    for row in rows {
        let ratio = if row.a == 0.0 {
            format!("{:+.4} abs (A = 0)", row.b - row.a)
        } else {
            format!("{:.3} of {:.4} {}", row.b / row.a, row.a, row.unit)
        };
        out.push_str(&format!(
            "{:<16} {:<22} {:>14.4} {:>14.4}  {:<22} {}{}\n",
            row.workload,
            row.metric,
            row.a,
            row.b,
            ratio,
            row.verdict.as_str(),
            if row.gated { " (gated)" } else { "" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> &'static EndToEnd {
        end_to_end(name).unwrap()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let latency = spec("mutate_p50_us"); // lower is better, bound 0.25
        assert_eq!(judge(latency, &[100.0], &[120.0]), Some(Verdict::Unchanged));
        assert_eq!(judge(latency, &[100.0], &[126.0]), Some(Verdict::Regressed));
        assert_eq!(judge(latency, &[100.0], &[70.0]), Some(Verdict::Improved));
        let rate = spec("ops_per_s"); // higher is better, bound 0.25
        assert_eq!(judge(rate, &[1000.0], &[740.0]), Some(Verdict::Regressed));
        assert_eq!(judge(rate, &[1000.0], &[1300.0]), Some(Verdict::Improved));
        assert_eq!(judge(rate, &[1000.0], &[900.0]), Some(Verdict::Unchanged));
        assert_eq!(judge(rate, &[], &[1.0]), None);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_disjoint() {
        let latency = spec("mutate_p50_us");
        let noisy = [70.0, 100.0, 130.0, 85.0, 115.0];
        // B's median is 30% worse, but A's own runs differ by more.
        assert_eq!(
            judge(latency, &noisy, &[130.0, 131.0, 129.0]),
            Some(Verdict::Unresolved)
        );
        // Every run of B beats every run of A: resolved despite the noise.
        assert_eq!(
            judge(latency, &noisy, &[50.0, 60.0, 55.0]),
            Some(Verdict::Improved)
        );
        // Steady sides resolve normally.
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge(latency, &steady, &[130.0, 131.0, 129.0]),
            Some(Verdict::Regressed)
        );
    }

    #[test]
    fn failed_share_is_judged_on_the_absolute_difference() {
        let failed = spec("failed_share");
        assert_eq!(judge(failed, &[0.0], &[0.0]), Some(Verdict::Unchanged));
        assert_eq!(judge(failed, &[0.0], &[0.0005]), Some(Verdict::Unchanged));
        assert_eq!(judge(failed, &[0.0], &[0.002]), Some(Verdict::Regressed));
    }

    #[test]
    fn compare_walks_both_files() {
        let doc = |p50: &str| {
            Value::parse(&format!(
                r#"{{"workloads":{{"serve_mem":{{"metrics":{{
                    "mutate_p50_us":{{"value":0,"unit":"us","values":{p50}}},
                    "not_a_metric":{{"value":1}}}}}},
                  "only_here":{{"metrics":{{}}}}}}}}"#
            ))
            .unwrap()
        };
        let rows = compare(&doc("[60,61,62]"), &doc("[80,81,82]"));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert_eq!((rows[0].a, rows[0].b), (61.0, 81.0));
        // Ungated metrics are judged but never fail a comparison.
        assert!(!rows[0].gated && !rows[0].fails());
        let table = render(&rows);
        assert!(table.contains("1.328 of 61.0000 us"), "{table}");
        assert!(table.contains("regressed"));
    }
}
