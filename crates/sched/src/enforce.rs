//! Enforcing a REF allocation with proportional-share schedulers.
//!
//! The proportional-elasticity mechanism outputs continuous resource
//! shares; the paper notes (§4.4) those shares are enforced with known
//! schedulers such as weighted fair queueing or lottery scheduling. This
//! module converts an [`Allocation`] into scheduler weights and verifies
//! achieved service against the target.

use rand::Rng;

use ref_core::resource::{Allocation, Capacity};

use crate::lottery::LotteryScheduler;
use crate::stride::StrideScheduler;
use crate::wfq::WeightedFairQueue;

/// Extracts each agent's share of one resource as scheduler weights.
///
/// # Errors
///
/// Returns a message if `resource` is out of range or any agent's share is
/// zero (schedulers need positive weights).
///
/// # Examples
///
/// ```
/// use ref_core::mechanism::{Mechanism, ProportionalElasticity};
/// use ref_core::resource::Capacity;
/// use ref_core::utility::CobbDouglas;
/// use ref_sched::enforce::weights_for_resource;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let agents = vec![
///     CobbDouglas::new(1.0, vec![0.6, 0.4])?,
///     CobbDouglas::new(1.0, vec![0.2, 0.8])?,
/// ];
/// let capacity = Capacity::new(vec![24.0, 12.0])?;
/// let alloc = ProportionalElasticity.allocate(&agents, &capacity)?;
/// let w = weights_for_resource(&alloc, &capacity, 0)?;
/// assert!((w[0] - 0.75).abs() < 1e-12); // 18 of 24 GB/s
/// # Ok(())
/// # }
/// ```
pub fn weights_for_resource(
    allocation: &Allocation,
    capacity: &Capacity,
    resource: usize,
) -> Result<Vec<f64>, String> {
    if resource >= capacity.num_resources() {
        return Err(format!("resource {resource} out of range"));
    }
    let weights: Vec<f64> = allocation
        .bundles()
        .iter()
        .map(|b| b.get(resource) / capacity.get(resource))
        .collect();
    if weights.iter().any(|w| *w <= 0.0) {
        return Err("every agent needs a positive share to be schedulable".to_string());
    }
    Ok(weights)
}

/// Worst absolute deviation between achieved shares and targets.
fn max_deviation(achieved: &[f64], target: &[f64]) -> f64 {
    achieved
        .iter()
        .zip(target)
        .map(|(a, t)| (a - t).abs())
        .fold(0.0, f64::max)
}

/// Result of driving a scheduler against a target share vector.
#[derive(Debug, Clone, PartialEq)]
pub struct EnforcementOutcome {
    /// Scheduler label.
    pub scheduler: &'static str,
    /// Achieved long-run shares.
    pub achieved: Vec<f64>,
    /// Worst absolute deviation from the target.
    pub max_deviation: f64,
}

/// Drives all four schedulers (WFQ, lottery, stride, DRR) for `quanta`
/// decisions against the target weights and reports the achieved shares.
///
/// The WFQ run keeps every client backlogged (the regime in which its
/// fairness bound applies); lottery uses the caller's RNG; stride is
/// deterministic.
///
/// # Errors
///
/// Propagates scheduler construction errors (e.g. non-positive weights).
pub fn enforcement_comparison<R: Rng>(
    weights: &[f64],
    quanta: u64,
    rng: &mut R,
) -> Result<Vec<EnforcementOutcome>, String> {
    let mut out = Vec::with_capacity(4);

    let mut wfq: WeightedFairQueue<u64> = WeightedFairQueue::new(weights.to_vec())?;
    for q in 0..quanta {
        for c in 0..weights.len() {
            wfq.enqueue(c, q, 1.0)?;
        }
        wfq.dequeue();
    }
    let achieved = wfq.service_shares();
    out.push(EnforcementOutcome {
        scheduler: "weighted-fair-queueing",
        max_deviation: max_deviation(&achieved, weights),
        achieved,
    });

    let mut lottery = LotteryScheduler::new(weights.to_vec())?;
    for _ in 0..quanta {
        lottery.draw(rng);
    }
    let achieved = lottery.service_shares();
    out.push(EnforcementOutcome {
        scheduler: "lottery",
        max_deviation: max_deviation(&achieved, weights),
        achieved,
    });

    let mut stride = StrideScheduler::new(weights.to_vec())?;
    for _ in 0..quanta {
        stride.next_quantum();
    }
    let achieved = stride.service_shares();
    out.push(EnforcementOutcome {
        scheduler: "stride",
        max_deviation: max_deviation(&achieved, weights),
        achieved,
    });

    let mut drr: crate::drr::DeficitRoundRobin<u64> =
        crate::drr::DeficitRoundRobin::new(weights.to_vec())?;
    for q in 0..quanta {
        for c in 0..weights.len() {
            drr.enqueue(c, q, 1.0)?;
        }
        drr.dequeue();
    }
    let achieved = drr.service_shares();
    out.push(EnforcementOutcome {
        scheduler: "deficit-round-robin",
        max_deviation: max_deviation(&achieved, weights),
        achieved,
    });

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use ref_core::mechanism::{Mechanism, ProportionalElasticity};
    use ref_core::utility::CobbDouglas;

    fn ref_weights() -> Vec<f64> {
        let agents = vec![
            CobbDouglas::new(1.0, vec![0.6, 0.4]).unwrap(),
            CobbDouglas::new(1.0, vec![0.2, 0.8]).unwrap(),
        ];
        let c = Capacity::new(vec![24.0, 12.0]).unwrap();
        let alloc = ProportionalElasticity.allocate(&agents, &c).unwrap();
        weights_for_resource(&alloc, &c, 0).unwrap()
    }

    #[test]
    fn weights_match_ref_shares() {
        let w = ref_weights();
        assert!((w[0] - 0.75).abs() < 1e-12);
        assert!((w[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn weights_validation() {
        let agents = vec![CobbDouglas::new(1.0, vec![0.5, 0.5]).unwrap()];
        let c = Capacity::new(vec![10.0, 10.0]).unwrap();
        let alloc = ProportionalElasticity.allocate(&agents, &c).unwrap();
        assert!(weights_for_resource(&alloc, &c, 2).is_err());
    }

    #[test]
    fn all_schedulers_converge_to_ref_shares() {
        let w = ref_weights();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let outcomes = enforcement_comparison(&w, 40_000, &mut rng).unwrap();
        assert_eq!(outcomes.len(), 4);
        for o in &outcomes {
            assert!(
                o.max_deviation < 0.01,
                "{} deviates {}",
                o.scheduler,
                o.max_deviation
            );
        }
    }

    #[test]
    fn stride_is_tightest() {
        let w = ref_weights();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let outcomes = enforcement_comparison(&w, 10_000, &mut rng).unwrap();
        let dev = |name: &str| {
            outcomes
                .iter()
                .find(|o| o.scheduler == name)
                .unwrap()
                .max_deviation
        };
        assert!(dev("stride") <= dev("lottery"));
    }
}
