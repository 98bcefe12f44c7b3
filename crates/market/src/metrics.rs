//! Service counters: what the market did, at a glance — plus the stable
//! JSON/text forms consumed by the ref-serve metrics endpoint.
//!
//! The JSON encoders here are *goldened*: field names, field order and
//! number formatting are part of the wire contract and must not drift
//! between releases. Every `f64` is printed with Rust's shortest
//! round-trip formatting, so a value parsed back from the JSON is
//! bit-identical to the value that produced it.

use std::fmt;
use std::fmt::Write as _;

use crate::epoch::{EpochReport, ReallocationOutcome};

/// Formats an `f64` as a JSON number token using the shortest decimal
/// representation that round-trips to the same bits (`null` for
/// non-finite values, which JSON cannot carry).
pub(crate) fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Writes a JSON array of `f64`s using [`json_f64`] for each element.
fn json_f64_array(values: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_f64(*v));
    }
    out.push(']');
    out
}

/// Cumulative counters over the market's lifetime.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MarketMetrics {
    /// Epochs executed.
    pub epochs: u64,
    /// Events processed (all kinds).
    pub events: u64,
    /// Agents admitted.
    pub joins: u64,
    /// Agents departed.
    pub leaves: u64,
    /// Demand-change flushes applied.
    pub demand_changes: u64,
    /// External observations ingested.
    pub external_observations: u64,
    /// Epochs that recomputed the allocation.
    pub reallocations: u64,
    /// Epochs that reused the cached allocation (fingerprint unchanged).
    pub cache_hits: u64,
    /// Successful estimator refits across all agents.
    pub refits: u64,
    /// Events rejected with an error.
    pub rejected_events: u64,
    /// Refit attempts that produced a degenerate (non-finite or invalid)
    /// fit and were discarded in favor of the agent's last good estimate.
    pub degenerate_refits: u64,
    /// Agents that crossed the consecutive-degenerate threshold and were
    /// quarantined (counted per transition into quarantine, not per
    /// quarantined epoch).
    pub quarantines: u64,
    /// Capacity reallotments applied (cross-shard coordination updates
    /// delivered as [`crate::MarketEvent::CapacityRealloted`]).
    pub reallotments: u64,
    /// Optimization-backed reallocations offered a hint from the warm-start
    /// cache (the previous epoch's optimum). Closed-form mechanisms never
    /// touch this counter.
    pub warm_start_hits: u64,
    /// Optimization-backed reallocations that ran from a cold start (no
    /// usable cached optimum: first solve, membership churn, demand
    /// change, reallotment or quarantine invalidation).
    pub warm_start_misses: u64,
    /// Hits whose hint the solver tried and abandoned, so the cold path
    /// produced the allocation after all: `warm_start_hits -
    /// warm_start_fallbacks` solves were actually served warm. A solver
    /// diagnostic of this process, not market state: snapshots do not
    /// carry it and a restored engine counts from zero.
    pub warm_start_fallbacks: u64,
    /// Successful estimator refits served by the incremental `O(R^2)`
    /// triangle-append path rather than a from-scratch refactorization.
    pub incremental_refits: u64,
    /// Agent-epochs whose ledger accrual was positive (the agent fell
    /// further below its cumulative fair share).
    pub credits_accrued: u64,
    /// Agent-epochs where a positive balance absorbed over-service (the
    /// mechanism repaying accumulated credit).
    pub credits_spent: u64,
    /// Post-warm-up agent-epochs violating the temporal (windowed)
    /// sharing-incentive inequality.
    pub temporal_si_violations: u64,
}

impl MarketMetrics {
    /// Creates zeroed counters.
    pub(crate) fn new() -> MarketMetrics {
        MarketMetrics::default()
    }

    /// Fraction of epochs served from the allocation cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let decisions = self.reallocations + self.cache_hits;
        if decisions == 0 {
            0.0
        } else {
            self.cache_hits as f64 / decisions as f64
        }
    }

    /// Stable single-line JSON form. Field names and order are fixed
    /// (declaration order plus a derived `cache_hit_rate`); goldens in the
    /// test module pin the exact bytes.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"epochs\":{},\"events\":{},\"joins\":{},\"leaves\":{},\
             \"demand_changes\":{},\"external_observations\":{},\
             \"reallocations\":{},\"cache_hits\":{},\"refits\":{},\
             \"rejected_events\":{},\"degenerate_refits\":{},\
             \"quarantines\":{},\"reallotments\":{},\"warm_start_hits\":{},\
             \"warm_start_misses\":{},\"warm_start_fallbacks\":{},\
             \"incremental_refits\":{},\
             \"credits_accrued\":{},\"credits_spent\":{},\
             \"temporal_si_violations\":{},\"cache_hit_rate\":{}}}",
            self.epochs,
            self.events,
            self.joins,
            self.leaves,
            self.demand_changes,
            self.external_observations,
            self.reallocations,
            self.cache_hits,
            self.refits,
            self.rejected_events,
            self.degenerate_refits,
            self.quarantines,
            self.reallotments,
            self.warm_start_hits,
            self.warm_start_misses,
            self.warm_start_fallbacks,
            self.incremental_refits,
            self.credits_accrued,
            self.credits_spent,
            self.temporal_si_violations,
            json_f64(self.cache_hit_rate())
        )
    }

    /// Stable `name value` text form (one counter per line, fixed order),
    /// for Prometheus-style scrape endpoints.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in [
            ("refmarket_epochs", self.epochs),
            ("refmarket_events", self.events),
            ("refmarket_joins", self.joins),
            ("refmarket_leaves", self.leaves),
            ("refmarket_demand_changes", self.demand_changes),
            (
                "refmarket_external_observations",
                self.external_observations,
            ),
            ("refmarket_reallocations", self.reallocations),
            ("refmarket_cache_hits", self.cache_hits),
            ("refmarket_refits", self.refits),
            ("refmarket_rejected_events", self.rejected_events),
            ("refmarket_degenerate_refits", self.degenerate_refits),
            ("refmarket_quarantines", self.quarantines),
            ("refmarket_reallotments", self.reallotments),
            ("refmarket_warm_start_hits", self.warm_start_hits),
            ("refmarket_warm_start_misses", self.warm_start_misses),
            ("refmarket_warm_start_fallbacks", self.warm_start_fallbacks),
            ("refmarket_incremental_refits", self.incremental_refits),
            ("refmarket_credits_accrued", self.credits_accrued),
            ("refmarket_credits_spent", self.credits_spent),
            (
                "refmarket_temporal_si_violations",
                self.temporal_si_violations,
            ),
        ] {
            let _ = writeln!(out, "{name} {value}");
        }
        out
    }
}

impl ReallocationOutcome {
    /// Stable lower-snake-case wire label.
    pub fn label(&self) -> &'static str {
        match self {
            ReallocationOutcome::Reallocated => "reallocated",
            ReallocationOutcome::CacheHit => "cache_hit",
            ReallocationOutcome::EmptyMarket => "empty_market",
        }
    }
}

impl EpochReport {
    /// Stable single-line JSON form of the report.
    ///
    /// Field order is fixed; allocations serialize as one `f64` array per
    /// agent (in [`EpochReport::agents`] order), the fairness report
    /// collapses to verdicts plus violation counts, and enforcement keeps
    /// only each resource's worst deviation. All `f64`s use shortest
    /// round-trip formatting, so the JSON is bit-stable for goldens.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"epoch\":{}", self.epoch);
        let _ = write!(out, ",\"agents\":[");
        for (i, id) in self.agents.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{id}");
        }
        out.push(']');
        let _ = write!(out, ",\"realloc\":\"{}\"", self.realloc.label());
        let _ = write!(out, ",\"warm\":{}", self.warm);
        let _ = write!(out, ",\"observations\":{}", self.observations);
        let _ = write!(out, ",\"refits\":{}", self.refits);
        let _ = write!(out, ",\"temporal_violations\":{}", self.temporal_violations);
        let _ = write!(
            out,
            ",\"worst_temporal_ratio\":{}",
            json_f64(self.worst_temporal_ratio)
        );
        match &self.allocation {
            None => out.push_str(",\"allocation\":null"),
            Some(alloc) => {
                out.push_str(",\"allocation\":[");
                for (i, b) in alloc.bundles().iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&json_f64_array(b.as_slice()));
                }
                out.push(']');
            }
        }
        match &self.fairness {
            None => out.push_str(",\"fairness\":null"),
            Some(fair) => {
                let _ = write!(
                    out,
                    ",\"fairness\":{{\"sharing_incentives\":{},\"envy_free\":{},\
                     \"pareto_efficient\":{},\"si_violations\":{},\"envy_edges\":{},\
                     \"max_mrs_mismatch\":{}}}",
                    fair.sharing_incentives(),
                    fair.envy_free(),
                    fair.pareto_efficient,
                    fair.si_violations.len(),
                    fair.envy_edges.len(),
                    json_f64(fair.max_mrs_mismatch)
                );
            }
        }
        out.push_str(",\"enforcement\":[");
        for (i, e) in self.enforcement.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"resource\":{},\"max_deviation\":{}}}",
                e.resource,
                json_f64(e.max_deviation)
            );
        }
        out.push(']');
        let _ = write!(
            out,
            ",\"worst_enforcement_deviation\":{}",
            json_f64(self.worst_enforcement_deviation())
        );
        out.push('}');
        out
    }
}

impl fmt::Display for MarketMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epochs {} | events {} (join {} / leave {} / demand {} / obs {} / rejected {}) | \
             realloc {} + cached {} ({:.0}% hit) | refits {} \
             (degenerate {} / quarantines {})",
            self.epochs,
            self.events,
            self.joins,
            self.leaves,
            self.demand_changes,
            self.external_observations,
            self.rejected_events,
            self.reallocations,
            self.cache_hits,
            100.0 * self.cache_hit_rate(),
            self.refits,
            self.degenerate_refits,
            self.quarantines
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_hit_rate_handles_empty_history() {
        assert_eq!(MarketMetrics::new().cache_hit_rate(), 0.0);
    }

    #[test]
    fn display_summarizes_counters() {
        let m = MarketMetrics {
            epochs: 10,
            reallocations: 4,
            cache_hits: 6,
            ..MarketMetrics::new()
        };
        let s = m.to_string();
        assert!(s.contains("epochs 10"), "{s}");
        assert!(s.contains("60% hit"), "{s}");
    }

    #[test]
    fn metrics_json_golden_is_bit_stable() {
        let m = MarketMetrics {
            epochs: 10,
            events: 42,
            joins: 3,
            leaves: 1,
            demand_changes: 2,
            external_observations: 7,
            reallocations: 4,
            cache_hits: 6,
            refits: 9,
            rejected_events: 5,
            degenerate_refits: 2,
            quarantines: 1,
            reallotments: 8,
            warm_start_hits: 11,
            warm_start_misses: 4,
            warm_start_fallbacks: 2,
            incremental_refits: 9,
            credits_accrued: 13,
            credits_spent: 12,
            temporal_si_violations: 3,
        };
        assert_eq!(
            m.to_json(),
            "{\"epochs\":10,\"events\":42,\"joins\":3,\"leaves\":1,\
             \"demand_changes\":2,\"external_observations\":7,\
             \"reallocations\":4,\"cache_hits\":6,\"refits\":9,\
             \"rejected_events\":5,\"degenerate_refits\":2,\
             \"quarantines\":1,\"reallotments\":8,\"warm_start_hits\":11,\
             \"warm_start_misses\":4,\"warm_start_fallbacks\":2,\
             \"incremental_refits\":9,\
             \"credits_accrued\":13,\"credits_spent\":12,\
             \"temporal_si_violations\":3,\"cache_hit_rate\":0.6}"
        );
        assert_eq!(MarketMetrics::new().to_json().matches(':').count(), 21);
    }

    #[test]
    fn metrics_text_golden_is_line_per_counter() {
        let m = MarketMetrics {
            epochs: 2,
            events: 3,
            ..MarketMetrics::new()
        };
        let text = m.to_text();
        assert!(text.starts_with("refmarket_epochs 2\nrefmarket_events 3\n"));
        assert_eq!(text.lines().count(), 20);
        assert!(text.ends_with("refmarket_temporal_si_violations 0\n"));
    }

    #[test]
    fn epoch_report_json_golden_is_bit_stable() {
        use crate::epoch::{EnforcementSummary, EpochReport, ReallocationOutcome};
        use ref_core::resource::{Allocation, Bundle, Capacity};

        let empty = EpochReport {
            epoch: 0,
            agents: vec![],
            realloc: ReallocationOutcome::EmptyMarket,
            allocation: None,
            fairness: None,
            enforcement: vec![],
            warm: true,
            observations: 0,
            refits: 0,
            temporal_violations: 0,
            worst_temporal_ratio: 1.0,
        };
        assert_eq!(
            empty.to_json(),
            "{\"epoch\":0,\"agents\":[],\"realloc\":\"empty_market\",\"warm\":true,\
             \"observations\":0,\"refits\":0,\"temporal_violations\":0,\
             \"worst_temporal_ratio\":1,\"allocation\":null,\"fairness\":null,\
             \"enforcement\":[],\"worst_enforcement_deviation\":0}"
        );

        let capacity = Capacity::new(vec![24.0, 12.0]).unwrap();
        let alloc = Allocation::new(
            vec![
                Bundle::new(vec![18.0, 4.0]).unwrap(),
                Bundle::new(vec![6.0, 8.0]).unwrap(),
            ],
            &capacity,
        )
        .unwrap();
        let report = EpochReport {
            epoch: 7,
            agents: vec![1, 2],
            realloc: ReallocationOutcome::CacheHit,
            allocation: Some(alloc),
            fairness: None,
            enforcement: vec![EnforcementSummary {
                resource: 0,
                target: vec![0.75, 0.25],
                achieved: vec![0.74, 0.26],
                max_deviation: 0.01,
            }],
            warm: false,
            observations: 2,
            refits: 1,
            temporal_violations: 1,
            worst_temporal_ratio: 0.875,
        };
        assert_eq!(
            report.to_json(),
            "{\"epoch\":7,\"agents\":[1,2],\"realloc\":\"cache_hit\",\"warm\":false,\
             \"observations\":2,\"refits\":1,\"temporal_violations\":1,\
             \"worst_temporal_ratio\":0.875,\"allocation\":[[18,4],[6,8]],\
             \"fairness\":null,\
             \"enforcement\":[{\"resource\":0,\"max_deviation\":0.01}],\
             \"worst_enforcement_deviation\":0.01}"
        );
    }

    #[test]
    fn json_f64_round_trips_bits_and_rejects_non_finite() {
        for x in [0.6, 1.0 / 3.0, 1e-300, -4.25, 6.0e22] {
            let parsed: f64 = json_f64(x).parse().unwrap();
            assert_eq!(parsed.to_bits(), x.to_bits(), "{x}");
        }
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }
}
