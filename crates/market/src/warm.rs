//! Warm-start cache for optimization-backed allocation mechanisms.
//!
//! A GP-backed mechanism ([`MaxWelfare`](ref_core::mechanism::MaxWelfare),
//! [`EqualSlowdown`](ref_core::mechanism::EqualSlowdown)) spends most of
//! its time walking the interior-point central path from a generic start.
//! Between market epochs the population barely moves — the cached
//! fingerprint already skips solves whose *inputs* are unchanged, and the
//! [`WarmStartCache`] accelerates the solves that remain: it keeps the
//! previous optimum (per agent, plus any auxiliary variables and the final
//! barrier parameter) and seeds the next solve from it, so the solver
//! re-enters the central path a few outer iterations from the new optimum
//! instead of walking it end to end.
//!
//! The cache is invalidated conservatively. A hint is only offered when
//! the live population is *exactly* the id set the optimum was recorded
//! for; membership churn, a demand change, a capacity reallotment or an
//! agent quarantine drop the affected entries, and the solver itself
//! rejects any hint with non-finite or non-positive values (falling back
//! to the cold start, never failing a solve that would have succeeded).

use std::collections::BTreeMap;

use ref_core::mechanism::GpWarmStart;

use crate::agent::AgentId;

/// The previous epoch's optimum, split per agent so membership churn can
/// invalidate exactly the affected entries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WarmStartCache {
    /// Each agent's block of the primal optimum (its bundle variables).
    bundles: BTreeMap<AgentId, Vec<f64>>,
    /// Trailing non-agent variables (e.g. the egalitarian level `t`).
    aux: Vec<f64>,
    /// The barrier parameter the previous solve finished at.
    barrier_t: f64,
}

impl WarmStartCache {
    /// Creates an empty cache.
    pub fn new() -> WarmStartCache {
        WarmStartCache::default()
    }

    /// Whether the cache currently holds no optimum.
    pub fn is_empty(&self) -> bool {
        self.bundles.is_empty()
    }

    /// Records the optimum a mechanism just produced for `ids` (in bundle
    /// order). `warm.x` holds one block of `num_resources` variables per
    /// agent followed by any auxiliary variables.
    ///
    /// A malformed hint (shorter than the population requires) clears the
    /// cache instead of storing garbage.
    pub fn store(&mut self, ids: &[AgentId], num_resources: usize, warm: &GpWarmStart) {
        if warm.x.len() < ids.len() * num_resources {
            self.clear();
            return;
        }
        self.bundles.clear();
        for (i, &id) in ids.iter().enumerate() {
            let block = &warm.x[i * num_resources..(i + 1) * num_resources];
            self.bundles.insert(id, block.to_vec());
        }
        self.aux = warm.x[ids.len() * num_resources..].to_vec();
        self.barrier_t = warm.t;
    }

    /// Assembles a hint for a solve over `ids` (in bundle order), or
    /// `None` when the cache cannot usefully seed it: the population
    /// differs from the one the optimum was recorded for, or any cached
    /// value is non-finite or non-positive.
    pub fn hint(&self, ids: &[AgentId], num_resources: usize) -> Option<GpWarmStart> {
        if self.bundles.len() != ids.len() || self.bundles.is_empty() {
            return None;
        }
        let mut x = Vec::with_capacity(ids.len() * num_resources + self.aux.len());
        for id in ids {
            let block = self.bundles.get(id)?;
            if block.len() != num_resources {
                return None;
            }
            x.extend_from_slice(block);
        }
        x.extend_from_slice(&self.aux);
        if !x.iter().all(|v| v.is_finite() && *v > 0.0) || !self.barrier_t.is_finite() {
            return None;
        }
        Some(GpWarmStart {
            x,
            t: self.barrier_t,
            ..GpWarmStart::default()
        })
    }

    /// Drops one agent's entry (departure, demand change, quarantine).
    /// Subsequent [`WarmStartCache::hint`] calls miss until the next
    /// optimum is stored.
    pub(crate) fn invalidate(&mut self, id: AgentId) {
        self.bundles.remove(&id);
    }

    /// Drops everything (capacity reallotment, restore without warm state).
    pub fn clear(&mut self) {
        self.bundles.clear();
        self.aux.clear();
        self.barrier_t = 0.0;
    }

    /// The cached per-agent blocks, aux block and barrier parameter, for
    /// serialization. Ids ascend.
    #[allow(clippy::type_complexity)]
    pub(crate) fn parts(&self) -> (Vec<(AgentId, &[f64])>, &[f64], f64) {
        (
            self.bundles
                .iter()
                .map(|(id, b)| (*id, b.as_slice()))
                .collect(),
            &self.aux,
            self.barrier_t,
        )
    }

    /// Rebuilds a cache from serialized parts.
    pub(crate) fn from_parts(
        bundles: Vec<(AgentId, Vec<f64>)>,
        aux: Vec<f64>,
        barrier_t: f64,
    ) -> WarmStartCache {
        WarmStartCache {
            bundles: bundles.into_iter().collect(),
            aux,
            barrier_t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warm(x: Vec<f64>, t: f64) -> GpWarmStart {
        GpWarmStart {
            x,
            t,
            ..GpWarmStart::default()
        }
    }

    #[test]
    fn hit_requires_exact_population_match() {
        let mut cache = WarmStartCache::new();
        assert!(cache.hint(&[1, 2], 2).is_none());
        cache.store(&[1, 2], 2, &warm(vec![18.0, 4.0, 6.0, 8.0], 1e5));
        assert!(!cache.is_empty());
        let hint = cache.hint(&[1, 2], 2).unwrap();
        assert_eq!(hint.x, vec![18.0, 4.0, 6.0, 8.0]);
        assert_eq!(hint.t, 1e5);
        // A different population — subset, superset or disjoint — misses.
        assert!(cache.hint(&[1], 2).is_none());
        assert!(cache.hint(&[1, 2, 3], 2).is_none());
        assert!(cache.hint(&[1, 3], 2).is_none());
    }

    #[test]
    fn aux_variables_ride_along() {
        let mut cache = WarmStartCache::new();
        cache.store(&[1, 2], 2, &warm(vec![18.0, 4.0, 6.0, 8.0, 0.25], 300.0));
        let hint = cache.hint(&[1, 2], 2).unwrap();
        assert_eq!(hint.x, vec![18.0, 4.0, 6.0, 8.0, 0.25]);
    }

    #[test]
    fn invalidation_forces_a_miss_until_next_store() {
        let mut cache = WarmStartCache::new();
        cache.store(&[1, 2], 2, &warm(vec![18.0, 4.0, 6.0, 8.0], 1e5));
        cache.invalidate(2);
        assert!(cache.hint(&[1, 2], 2).is_none());
        cache.store(&[1, 2], 2, &warm(vec![17.0, 5.0, 7.0, 7.0], 2e5));
        assert!(cache.hint(&[1, 2], 2).is_some());
        cache.clear();
        assert!(cache.is_empty());
        assert!(cache.hint(&[1, 2], 2).is_none());
    }

    #[test]
    fn unusable_values_are_never_offered() {
        let mut cache = WarmStartCache::new();
        cache.store(&[1], 2, &warm(vec![1.0, f64::NAN], 1e3));
        assert!(cache.hint(&[1], 2).is_none());
        cache.store(&[1], 2, &warm(vec![1.0, 0.0], 1e3));
        assert!(cache.hint(&[1], 2).is_none());
        cache.store(&[1], 2, &warm(vec![1.0, 2.0], f64::INFINITY));
        assert!(cache.hint(&[1], 2).is_none());
        // A short hint clears rather than stores.
        cache.store(&[1, 2], 2, &warm(vec![1.0, 2.0], 1e3));
        assert!(cache.is_empty());
    }

    #[test]
    fn parts_round_trip() {
        let mut cache = WarmStartCache::new();
        cache.store(&[3, 9], 2, &warm(vec![18.0, 4.0, 6.0, 8.0, 0.5], 7e4));
        let (bundles, aux, t) = cache.parts();
        let rebuilt = WarmStartCache::from_parts(
            bundles
                .into_iter()
                .map(|(id, b)| (id, b.to_vec()))
                .collect(),
            aux.to_vec(),
            t,
        );
        assert_eq!(rebuilt, cache);
    }
}
