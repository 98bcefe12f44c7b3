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

/// Declares the market's counters once: the fields of [`MarketMetrics`]
/// and the order in which its JSON and text forms and the snapshot's
/// `metrics` line list them. A counter marked `(not persisted)` is left
/// off the snapshot line, and a restored engine counts it from zero.
macro_rules! counters {
    (@persisted) => { true };
    (@persisted not persisted) => { false };
    ($($(#[$doc:meta])* $name:ident $(($($note:tt)*))?,)*) => {
        /// Cumulative counters over the market's lifetime.
        #[derive(Debug, Clone, PartialEq, Eq, Default)]
        pub struct MarketMetrics {
            $($(#[$doc])* pub $name: u64,)*
        }

        /// Whether the snapshot carries each counter, in declaration order.
        const PERSISTED: &[bool] = &[$(counters!(@persisted $($($note)*)?),)*];

        impl MarketMetrics {
            /// Every counter by name, in declaration order.
            fn named(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)*]
            }

            /// Every counter, mutably, in declaration order.
            fn slots(&mut self) -> Vec<&mut u64> {
                vec![$(&mut self.$name,)*]
            }
        }
    };
}

counters! {
    /// Epochs executed.
    epochs,
    /// Events processed (all kinds).
    events,
    /// Agents admitted.
    joins,
    /// Agents departed.
    leaves,
    /// Demand-change flushes applied.
    demand_changes,
    /// External observations ingested.
    external_observations,
    /// Epochs that recomputed the allocation.
    reallocations,
    /// Epochs that reused the cached allocation (fingerprint unchanged).
    cache_hits,
    /// Successful estimator refits across all agents.
    refits,
    /// Events rejected with an error.
    rejected_events,
    /// Refit attempts that produced a degenerate (non-finite or invalid)
    /// fit and were discarded in favor of the agent's last good estimate.
    degenerate_refits,
    /// Agents that crossed the consecutive-degenerate threshold and were
    /// quarantined (counted per transition into quarantine, not per
    /// quarantined epoch).
    quarantines,
    /// Capacity reallotments applied (cross-shard coordination updates
    /// delivered as [`crate::MarketEvent::CapacityRealloted`]).
    reallotments,
    /// Optimization-backed reallocations offered a hint from the warm-start
    /// cache (the previous epoch's optimum). Closed-form mechanisms never
    /// touch this counter.
    warm_start_hits,
    /// Optimization-backed reallocations that ran from a cold start (no
    /// usable cached optimum: first solve, membership churn, demand
    /// change, reallotment or quarantine invalidation).
    warm_start_misses,
    /// Hits whose hint the solver tried and abandoned, so the cold path
    /// produced the allocation after all: `warm_start_hits -
    /// warm_start_fallbacks` solves were actually served warm. A solver
    /// diagnostic of this process, not market state: snapshots do not
    /// carry it and a restored engine counts from zero.
    warm_start_fallbacks (not persisted),
    /// Successful estimator refits served by the incremental `O(R^2)`
    /// triangle-append path rather than a from-scratch refactorization.
    incremental_refits,
    /// Agent-epochs whose ledger accrual was positive (the agent fell
    /// further below its cumulative fair share).
    credits_accrued,
    /// Agent-epochs where a positive balance absorbed over-service (the
    /// mechanism repaying accumulated credit).
    credits_spent,
    /// Post-warm-up agent-epochs violating the temporal (windowed)
    /// sharing-incentive inequality.
    temporal_si_violations,
}

impl MarketMetrics {
    /// Creates zeroed counters.
    pub(crate) fn new() -> MarketMetrics {
        MarketMetrics::default()
    }

    /// How many counters the snapshot's `metrics` line carries.
    pub(crate) fn persisted_count() -> usize {
        PERSISTED.iter().filter(|kept| **kept).count()
    }

    /// The counters the snapshot carries, in declaration order.
    pub(crate) fn persisted(&self) -> impl Iterator<Item = u64> {
        (self.named().into_iter().zip(PERSISTED))
            .filter_map(|((_, value), kept)| kept.then_some(value))
    }

    /// Counters restored from the snapshot's values (in
    /// [`MarketMetrics::persisted`] order); the rest start from zero.
    pub(crate) fn from_persisted(values: &[u64]) -> MarketMetrics {
        let mut metrics = MarketMetrics::new();
        let slots = metrics.slots().into_iter().zip(PERSISTED);
        for ((slot, _), value) in slots.filter(|(_, kept)| **kept).zip(values) {
            *slot = *value;
        }
        metrics
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
        let mut out = String::from("{");
        for (name, value) in self.named() {
            let _ = write!(out, "\"{name}\":{value},");
        }
        let rate = json_f64(self.cache_hit_rate());
        let _ = write!(out, "\"cache_hit_rate\":{rate}}}");
        out
    }

    /// Stable `name value` text form (one counter per line, fixed order),
    /// for Prometheus-style scrape endpoints.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.named() {
            let _ = writeln!(out, "refmarket_{name} {value}");
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
    /// collapses to verdicts plus violation counts. All `f64`s use shortest
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
        use crate::epoch::{EpochReport, ReallocationOutcome};
        use ref_core::resource::{Allocation, Bundle, Capacity};

        let empty = EpochReport {
            epoch: 0,
            agents: vec![],
            realloc: ReallocationOutcome::EmptyMarket,
            allocation: None,
            fairness: None,
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
             \"worst_temporal_ratio\":1,\"allocation\":null,\"fairness\":null}"
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
             \"fairness\":null}"
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
