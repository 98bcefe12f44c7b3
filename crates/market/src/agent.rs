//! Per-agent market state: identity, observation source, and the online
//! utility estimate.

use ref_core::online::OnlineEstimator;
use ref_core::utility::CobbDouglas;

use crate::error::{MarketError, Result};

/// Stable identity of a market participant.
pub type AgentId = u64;

/// Consecutive degenerate refits after which an agent is quarantined:
/// its estimator stops ingesting observations (the last good fit keeps
/// driving allocation) until a demand change resets it. Three in a row
/// distinguishes a workload that has genuinely gone pathological from a
/// single unlucky measurement.
pub(crate) const QUARANTINE_THRESHOLD: usize = 3;

/// Where an agent's per-epoch performance observations come from.
///
/// The market itself never sees ground truth — it always allocates from the
/// *fitted* utilities — but it must know how to produce an observation at
/// the end of each epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum ObservationSource {
    /// A hidden true Cobb-Douglas utility: performance at a bundle is the
    /// true utility value. Used by closed-loop deployments where the
    /// "measurement" is an analytic model, and by tests that check
    /// convergence of fitted elasticities toward a known truth.
    GroundTruth(CobbDouglas),
    /// A named benchmark from [`ref_workloads::profiles`]: each epoch the
    /// engine runs the cycle-level simulator with the agent's granted
    /// cache/bandwidth shares and observes the achieved IPC. Only valid in
    /// two-resource markets laid out as `[bandwidth GB/s, cache MB]`.
    Simulated {
        /// Benchmark name resolvable by [`ref_workloads::profiles::by_name`].
        benchmark: String,
    },
    /// Observations arrive from outside through
    /// [`MarketEvent::ObservationReported`](crate::events::MarketEvent):
    /// the agent is a real workload measured by an external profiler.
    External,
}

impl ObservationSource {
    /// Validates the source against the market's resource dimension.
    pub(crate) fn validate(&self, num_resources: usize) -> Result<()> {
        match self {
            ObservationSource::GroundTruth(u) => {
                if u.elasticities().len() != num_resources {
                    return Err(MarketError::InvalidArgument(format!(
                        "ground-truth utility covers {} resources, market has {num_resources}",
                        u.elasticities().len()
                    )));
                }
                Ok(())
            }
            ObservationSource::Simulated { benchmark } => {
                if num_resources != 2 {
                    return Err(MarketError::InvalidArgument(
                        "simulated agents require a [bandwidth, cache] market".to_string(),
                    ));
                }
                if ref_workloads::profiles::by_name(benchmark).is_none() {
                    return Err(MarketError::InvalidArgument(format!(
                        "unknown benchmark {benchmark:?}"
                    )));
                }
                Ok(())
            }
            ObservationSource::External => Ok(()),
        }
    }
}

/// One live participant: estimator state plus bookkeeping.
#[derive(Debug, Clone)]
pub struct AgentState {
    /// The agent's stable id.
    pub id: AgentId,
    /// Epoch at which the agent was admitted.
    pub joined_epoch: u64,
    /// How this agent's observations are produced.
    pub source: ObservationSource,
    /// The adaptive Cobb-Douglas estimate driving allocation.
    pub estimator: OnlineEstimator,
}

impl AgentState {
    /// Admits a new agent with the naive uniform prior.
    pub(crate) fn new(
        id: AgentId,
        joined_epoch: u64,
        source: ObservationSource,
        num_resources: usize,
    ) -> Result<AgentState> {
        source.validate(num_resources)?;
        Ok(AgentState {
            id,
            joined_epoch,
            source,
            estimator: OnlineEstimator::new(num_resources)?,
        })
    }

    /// The utility this agent currently reports to the mechanism: the
    /// fitted estimate with elasticities re-scaled to sum to one (Eq. 12).
    pub fn reported_utility(&self) -> CobbDouglas {
        self.estimator.utility().rescaled()
    }

    /// Whether the agent's online refit has repeatedly produced a
    /// degenerate (non-finite or invalid) Cobb-Douglas fit and is held on
    /// its last good estimate. Quarantined agents keep their current
    /// allocation behavior but stop ingesting observations; a
    /// `DemandChanged` event resets the estimator and lifts the
    /// quarantine. Derived from the estimator's consecutive-degenerate
    /// counter, so it survives snapshot/restore without extra state.
    pub fn quarantined(&self) -> bool {
        self.estimator.consecutive_degenerate() >= QUARANTINE_THRESHOLD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_agent_starts_on_uniform_prior() {
        let truth = CobbDouglas::new(1.0, vec![0.6, 0.4]).unwrap();
        let a = AgentState::new(1, 0, ObservationSource::GroundTruth(truth), 2).unwrap();
        assert_eq!(a.reported_utility().elasticities(), &[0.5, 0.5]);
        assert_eq!(a.estimator.num_observations(), 0);
    }

    #[test]
    fn source_validation_checks_dimensions_and_names() {
        let truth = CobbDouglas::new(1.0, vec![0.6, 0.4]).unwrap();
        assert!(ObservationSource::GroundTruth(truth.clone())
            .validate(3)
            .is_err());
        assert!(ObservationSource::GroundTruth(truth).validate(2).is_ok());
        assert!(ObservationSource::Simulated {
            benchmark: "histogram".to_string()
        }
        .validate(2)
        .is_ok());
        assert!(ObservationSource::Simulated {
            benchmark: "histogram".to_string()
        }
        .validate(3)
        .is_err());
        assert!(ObservationSource::Simulated {
            benchmark: "no-such-benchmark".to_string()
        }
        .validate(2)
        .is_err());
        assert!(ObservationSource::External.validate(5).is_ok());
    }
}
