//! The per-epoch report: everything one `EpochTick` did.

use ref_core::properties::FairnessReport;
use ref_core::resource::Allocation;

use crate::agent::AgentId;

/// How the epoch obtained its allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReallocationOutcome {
    /// The fair shares were recomputed because the population fingerprint
    /// (agent set + quantized fitted elasticities) changed.
    Reallocated,
    /// The population fingerprint was unchanged; the cached allocation was
    /// reused without re-running the mechanism.
    CacheHit,
    /// No live agents: nothing to allocate.
    EmptyMarket,
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

/// What one epoch of the market did.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// The epoch number (starting from 0 at market creation).
    pub epoch: u64,
    /// Live agents this epoch, in ascending id order — the same order as
    /// the bundles of [`EpochReport::allocation`].
    pub agents: Vec<AgentId>,
    /// Whether the allocation was recomputed, cached, or absent.
    pub realloc: ReallocationOutcome,
    /// The granted allocation (`None` only for an empty market).
    pub allocation: Option<Allocation>,
    /// SI/EF/PE verdicts against the reported (fitted) utilities.
    pub fairness: Option<FairnessReport>,
    /// Whether the epoch was inside the warm-up window (recent membership
    /// or demand change), exempting it from the audit SLO.
    pub warm: bool,
    /// Observations ingested this epoch (ground-truth and simulated).
    pub observations: usize,
    /// Estimator refits triggered by those observations.
    pub refits: usize,
    /// Agents violating the temporal sharing-incentive inequality this
    /// epoch: cumulative delivered utility over the last full
    /// `temporal_window` epochs below `(1 - temporal_slack)` of cumulative
    /// equal-share utility. Agents without a full window are not judged.
    pub temporal_violations: usize,
    /// Smallest delivered/entitled window ratio among judged agents (1.0
    /// when no agent had a full window).
    pub worst_temporal_ratio: f64,
}
