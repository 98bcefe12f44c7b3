//! Service counters: what the market did, at a glance. `ref-serve`
//! encodes them ([`MarketMetrics::counters`] in order) for its `metrics`
//! op and shutdown report.

/// Declares the market's counters once: the fields of [`MarketMetrics`]
/// and the order in which [`MarketMetrics::counters`] and the snapshot's
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
            pub fn counters(&self) -> Vec<(&'static str, u64)> {
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
        (self.counters().into_iter().zip(PERSISTED))
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_hit_rate_handles_empty_history() {
        assert_eq!(MarketMetrics::new().cache_hit_rate(), 0.0);
    }
}
