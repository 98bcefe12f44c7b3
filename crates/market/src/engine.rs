//! The market engine: an epoch loop over a churning agent population.
//!
//! [`MarketEngine::pump`] drains the event queue in submission order.
//! Membership events (`AgentJoined`, `AgentLeft`, `DemandChanged`) mutate
//! the population immediately; each `EpochTick` then runs one epoch:
//!
//! 1. collect the *reported* utilities (each agent's fitted Cobb-Douglas
//!    estimate, re-scaled per Eq. 12);
//! 2. fingerprint the population (agent ids + quantized elasticities) and
//!    recompute fair shares with proportional elasticity only when the
//!    fingerprint moved — otherwise reuse the cached allocation;
//! 3. audit the granted allocation for SI/EF/PE against the reported
//!    utilities;
//! 4. enforce each resource's shares with a stride scheduler and record
//!    the achieved service;
//! 5. produce one performance observation per engine-driven agent (hidden
//!    ground truth or the cycle-level simulator) at a deterministically
//!    jittered allocation, feeding each agent's online estimator.
//!
//! Every random choice is derived from `(seed, epoch, agent id)`, never
//! from engine call history, so a market restored from a
//! [snapshot](crate::snapshot) replays the exact observation stream — and
//! therefore the exact allocations — the original would have produced.

use std::collections::BTreeMap;
use std::io;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use ref_core::mechanism::{
    CreditInner, CreditMechanism, EqualSlowdown, GpWarmStart, MaxWelfare, Mechanism,
    ProportionalElasticity, WarmOutcome,
};
use ref_core::online::OnlineEstimator;
use ref_core::properties::FairnessReport;
use ref_core::resource::{Allocation, Capacity};
use ref_core::utility::{CobbDouglas, Utility};
use ref_sched::StrideScheduler;
use ref_sim::config::{Bandwidth, CacheSize, PlatformConfig};
use ref_sim::MulticoreSystem;
use ref_workloads::profiles::by_name;

use crate::agent::{AgentId, AgentState, ObservationSource};
use crate::audit::Auditor;
use crate::digest::StateHasher;
use crate::epoch::{EnforcementSummary, EpochReport, ReallocationOutcome};
use crate::error::{MarketError, Result};
use crate::events::{EventQueue, MarketEvent};
use crate::ledger::CreditLedger;
use crate::metrics::MarketMetrics;
use crate::snapshot::{AgentSnapshot, AgentView, MarketSnapshot, StateView, SNAPSHOT_VERSION};
use crate::warm::WarmStartCache;

/// Smallest scheduler weight granted to an agent whose fitted elasticity
/// collapsed to (near) zero for a resource; keeps the stride scheduler
/// constructible without materially distorting service.
const MIN_STRIDE_WEIGHT: f64 = 1e-9;

/// Floor applied to simulated cache/bandwidth shares so the partitioned
/// system stays constructible even for vanishing fitted shares.
const MIN_SIM_SHARE: f64 = 0.005;

/// Which allocation mechanism the market runs each epoch.
///
/// [`MechanismKind::ProportionalElasticity`] is the paper's closed-form
/// REF mechanism and the default. Nash welfare subject to capacity alone
/// (`max-welfare` and its credit tilt, `credit-max-welfare`) is closed-form
/// too. The other kinds solve a geometric program per reallocation; for
/// those the engine keeps a [`WarmStartCache`] and seeds each solve from
/// the previous epoch's optimum (see [`MarketMetrics::warm_start_hits`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MechanismKind {
    /// Closed-form REF (§4.1): proportional to re-scaled elasticities.
    ProportionalElasticity,
    /// Nash-social-welfare maximization (§4.5): closed-form subject to
    /// capacity alone, a GP under the fairness constraints.
    MaxWelfare {
        /// Impose the SI/EF/PE constraints of Eq. 11.
        fairness: bool,
    },
    /// Egalitarian max-min weighted utility via GP (§4.5, §5.5).
    EqualSlowdown {
        /// Impose the SI/EF/PE constraints of Eq. 11.
        fairness: bool,
    },
    /// Credit fairness: the inner mechanism tilted each epoch by the
    /// [`CreditLedger`]'s per-agent weights, so agents cumulatively below
    /// their fair share are repaid across epochs.
    Credit {
        /// The mechanism whose objective is tilted.
        inner: CreditInner,
    },
}

impl MechanismKind {
    /// Stable wire label (used by the snapshot format and service config).
    pub fn label(&self) -> &'static str {
        match self {
            MechanismKind::ProportionalElasticity => "proportional-elasticity",
            MechanismKind::MaxWelfare { fairness: false } => "max-welfare",
            MechanismKind::MaxWelfare { fairness: true } => "max-welfare-fair",
            MechanismKind::EqualSlowdown { fairness: false } => "equal-slowdown",
            MechanismKind::EqualSlowdown { fairness: true } => "equal-slowdown-fair",
            MechanismKind::Credit {
                inner: CreditInner::MaxWelfare,
            } => "credit-max-welfare",
            MechanismKind::Credit {
                inner: CreditInner::EqualSlowdown,
            } => "credit-equal-slowdown",
        }
    }

    /// Parses a [`MechanismKind::label`].
    pub fn from_label(label: &str) -> Option<MechanismKind> {
        match label {
            "proportional-elasticity" => Some(MechanismKind::ProportionalElasticity),
            "max-welfare" => Some(MechanismKind::MaxWelfare { fairness: false }),
            "max-welfare-fair" => Some(MechanismKind::MaxWelfare { fairness: true }),
            "equal-slowdown" => Some(MechanismKind::EqualSlowdown { fairness: false }),
            "equal-slowdown-fair" => Some(MechanismKind::EqualSlowdown { fairness: true }),
            // Bare "credit" is accepted as shorthand for the default inner.
            "credit" | "credit-max-welfare" => Some(MechanismKind::Credit {
                inner: CreditInner::MaxWelfare,
            }),
            "credit-equal-slowdown" => Some(MechanismKind::Credit {
                inner: CreditInner::EqualSlowdown,
            }),
            _ => None,
        }
    }

    /// Whether this kind consults the credit ledger for per-agent weights.
    pub fn credit_weighted(&self) -> bool {
        matches!(self, MechanismKind::Credit { .. })
    }

    /// Whether this mechanism's solves benefit from a warm start (i.e. it
    /// solves a geometric program). Closed-form mechanisms — REF and Nash
    /// welfare subject to capacity alone, tilted or not — never consult the
    /// cache and never touch the warm-start counters.
    pub(crate) fn warm_startable(&self) -> bool {
        !matches!(
            self,
            MechanismKind::ProportionalElasticity
                | MechanismKind::MaxWelfare { fairness: false }
                | MechanismKind::Credit {
                    inner: CreditInner::MaxWelfare
                }
        )
    }

    /// Dispatches to the mechanism implementation. `weights` carries the
    /// ledger's per-agent credit weights and is consulted only by
    /// [`MechanismKind::Credit`].
    fn allocate_warm(
        &self,
        agents: &[CobbDouglas],
        capacity: &Capacity,
        warm: Option<&GpWarmStart>,
        weights: &[f64],
    ) -> ref_core::error::Result<(Allocation, Option<GpWarmStart>)> {
        match self {
            MechanismKind::ProportionalElasticity => {
                ProportionalElasticity.allocate_warm(agents, capacity, warm)
            }
            MechanismKind::MaxWelfare { fairness: true } => {
                MaxWelfare::with_fairness().allocate_warm(agents, capacity, warm)
            }
            MechanismKind::MaxWelfare { fairness: false } => {
                MaxWelfare::without_fairness().allocate_warm(agents, capacity, warm)
            }
            MechanismKind::EqualSlowdown { fairness: true } => {
                EqualSlowdown::with_fairness().allocate_warm(agents, capacity, warm)
            }
            MechanismKind::EqualSlowdown { fairness: false } => {
                EqualSlowdown::new().allocate_warm(agents, capacity, warm)
            }
            MechanismKind::Credit { inner } => CreditMechanism::new(*inner, weights.to_vec())?
                .allocate_warm(agents, capacity, warm),
        }
    }
}

/// Static configuration of a market.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketConfig {
    /// Total capacity of each resource. For markets with simulated agents
    /// the layout is `[bandwidth GB/s, cache MB]` (the paper's platform).
    pub capacity: Capacity,
    /// Reallocation tolerance: fitted elasticities are quantized to this
    /// grid when fingerprinting the population, so estimate drift below
    /// the tolerance reuses the cached allocation.
    pub realloc_tolerance: f64,
    /// Relative tolerance for the per-epoch SI/EF/PE audit, in `(0, 1)`.
    /// Must absorb the drift incremental reallocation permits: a cache-hit
    /// epoch may serve an allocation computed from utilities up to
    /// `realloc_tolerance` stale, so this should sit comfortably above
    /// that (the default is an order of magnitude over the default
    /// reallocation tolerance).
    pub audit_tolerance: f64,
    /// Epochs after a membership or demand change during which audit
    /// violations are excused (estimators are re-converging).
    pub warmup_epochs: u64,
    /// Relative amplitude of the allocation jitter used to excite the
    /// estimators' regression designs (0 disables excitation — estimators
    /// then starve on collinear observations and keep their priors).
    pub excitation: f64,
    /// Stride-scheduler quanta simulated per resource per epoch
    /// (0 disables enforcement reporting).
    pub enforcement_quanta: u64,
    /// Instructions each simulated agent retires per epoch.
    pub sim_instructions: u64,
    /// Root seed for all per-epoch deterministic randomness.
    pub seed: u64,
    /// The allocation mechanism to run each epoch.
    pub mechanism: MechanismKind,
    /// Window size `W` (in epochs) of the temporal sharing-incentive
    /// audit: over any `W` consecutive epochs an agent's cumulative
    /// delivered utility must reach its cumulative equal-share utility
    /// minus the slack. Agents are only judged once their ledger window
    /// is full.
    pub temporal_window: u64,
    /// Relative slack of the temporal SI inequality: a violation is
    /// `sum(delivered) < (1 - temporal_slack) * sum(entitled)`.
    pub temporal_slack: f64,
}

impl MarketConfig {
    /// Creates a configuration with default tuning.
    pub fn new(capacity: Capacity) -> MarketConfig {
        MarketConfig {
            capacity,
            realloc_tolerance: 1e-3,
            audit_tolerance: 1e-2,
            warmup_epochs: 8,
            excitation: 0.1,
            enforcement_quanta: 2_000,
            sim_instructions: 30_000,
            seed: 0x5EED,
            mechanism: MechanismKind::ProportionalElasticity,
            temporal_window: 16,
            temporal_slack: 0.05,
        }
    }

    /// Sets the audit warm-up window.
    pub fn with_warmup_epochs(mut self, epochs: u64) -> MarketConfig {
        self.warmup_epochs = epochs;
        self
    }

    /// Sets the per-epoch enforcement quanta.
    pub fn with_enforcement_quanta(mut self, quanta: u64) -> MarketConfig {
        self.enforcement_quanta = quanta;
        self
    }

    /// Sets the per-epoch simulated instruction budget.
    pub fn with_sim_instructions(mut self, instructions: u64) -> MarketConfig {
        self.sim_instructions = instructions;
        self
    }

    /// Sets the root randomness seed.
    pub fn with_seed(mut self, seed: u64) -> MarketConfig {
        self.seed = seed;
        self
    }

    /// Sets the allocation mechanism.
    pub fn with_mechanism(mut self, mechanism: MechanismKind) -> MarketConfig {
        self.mechanism = mechanism;
        self
    }

    /// Sets the temporal SI audit window (epochs).
    pub fn with_temporal_window(mut self, window: u64) -> MarketConfig {
        self.temporal_window = window;
        self
    }

    /// Sets the temporal SI audit slack.
    pub fn with_temporal_slack(mut self, slack: f64) -> MarketConfig {
        self.temporal_slack = slack;
        self
    }

    /// Whether two configs describe the same market up to the capacity
    /// *values*. The sharded serving tier reallots capacity between shards
    /// at runtime via [`MarketEvent::CapacityRealloted`], so a recovered
    /// checkpoint may legitimately carry a different capacity than the boot
    /// config — but every tuning knob and the resource arity must match,
    /// or the WAL belongs to a different market.
    pub fn compatible_with(&self, other: &MarketConfig) -> bool {
        self.capacity.num_resources() == other.capacity.num_resources()
            && self.realloc_tolerance == other.realloc_tolerance
            && self.audit_tolerance == other.audit_tolerance
            && self.warmup_epochs == other.warmup_epochs
            && self.excitation == other.excitation
            && self.enforcement_quanta == other.enforcement_quanta
            && self.sim_instructions == other.sim_instructions
            && self.seed == other.seed
            && self.mechanism == other.mechanism
            && self.temporal_window == other.temporal_window
            && self.temporal_slack == other.temporal_slack
    }

    /// Checks the tuning parameters.
    pub(crate) fn validate(&self) -> Result<()> {
        if !(self.realloc_tolerance.is_finite() && self.realloc_tolerance > 0.0) {
            return Err(MarketError::InvalidArgument(format!(
                "realloc tolerance must be positive and finite, got {}",
                self.realloc_tolerance
            )));
        }
        // At 1 or above `x · (1 − tol) ≤ 0`, so no SI or EF test could fire.
        if !(self.audit_tolerance > 0.0 && self.audit_tolerance < 1.0) {
            return Err(MarketError::InvalidArgument(format!(
                "audit tolerance must lie in (0, 1), got {}",
                self.audit_tolerance
            )));
        }
        if !(self.excitation.is_finite() && (0.0..0.5).contains(&self.excitation)) {
            return Err(MarketError::InvalidArgument(format!(
                "excitation must lie in [0, 0.5), got {}",
                self.excitation
            )));
        }
        if self.temporal_window == 0 {
            return Err(MarketError::InvalidArgument(
                "temporal window must cover at least one epoch".to_string(),
            ));
        }
        if !(self.temporal_slack.is_finite() && (0.0..1.0).contains(&self.temporal_slack)) {
            return Err(MarketError::InvalidArgument(format!(
                "temporal slack must lie in [0, 1), got {}",
                self.temporal_slack
            )));
        }
        Ok(())
    }
}

/// Identity of a population for reallocation caching: which agents are
/// live, their fitted elasticities on a `realloc_tolerance` grid, and the
/// capacity. Equal fingerprints guarantee the mechanism would produce an
/// allocation within tolerance of the cached one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub(crate) ids: Vec<AgentId>,
    pub(crate) quantized: Vec<i64>,
    pub(crate) capacity_bits: Vec<u64>,
    /// Quantized credit weights (empty for non-credit mechanisms), so
    /// balance drift beyond the tolerance invalidates the cached
    /// allocation.
    pub(crate) tilt: Vec<i64>,
}

impl Fingerprint {
    fn compute(
        ids: &[AgentId],
        reported: &[CobbDouglas],
        capacity: &Capacity,
        tolerance: f64,
        weights: &[f64],
    ) -> Fingerprint {
        let quantized = reported
            .iter()
            .flat_map(|u| {
                u.elasticities()
                    .iter()
                    .map(|a| (a / tolerance).round() as i64)
            })
            .collect();
        Fingerprint {
            ids: ids.to_vec(),
            quantized,
            capacity_bits: capacity.as_slice().iter().map(|c| c.to_bits()).collect(),
            tilt: weights
                .iter()
                .map(|w| (w / tolerance).round() as i64)
                .collect(),
        }
    }
}

/// The long-running allocation engine.
///
/// See the [crate docs](crate) for the epoch loop and a quickstart.
#[derive(Debug)]
pub struct MarketEngine {
    config: MarketConfig,
    population: BTreeMap<AgentId, AgentState>,
    queue: EventQueue,
    epoch: u64,
    stable_since: u64,
    cache: Option<(Fingerprint, Allocation)>,
    warm: WarmStartCache,
    auditor: Auditor,
    metrics: MarketMetrics,
    ledger: CreditLedger,
}

impl MarketEngine {
    /// Creates an empty market.
    ///
    /// # Errors
    ///
    /// Returns [`MarketError::InvalidArgument`] for out-of-range tuning
    /// parameters.
    pub fn new(config: MarketConfig) -> Result<MarketEngine> {
        config.validate()?;
        Ok(MarketEngine {
            config,
            population: BTreeMap::new(),
            queue: EventQueue::new(),
            epoch: 0,
            stable_since: 0,
            cache: None,
            warm: WarmStartCache::new(),
            auditor: Auditor::new(),
            metrics: MarketMetrics::new(),
            ledger: CreditLedger::new(),
        })
    }

    /// Enqueues an event; nothing happens until [`MarketEngine::pump`].
    pub fn submit(&mut self, event: MarketEvent) {
        self.queue.push(event);
    }

    /// Enqueues a batch of events in order.
    pub fn submit_all<I: IntoIterator<Item = MarketEvent>>(&mut self, events: I) {
        for e in events {
            self.queue.push(e);
        }
    }

    /// Processes every pending event in submission order and returns one
    /// report per `EpochTick` executed.
    ///
    /// Processing is fail-fast: on the first invalid event (duplicate
    /// join, unknown agent, malformed observation) the event is dropped,
    /// [`MarketMetrics::rejected_events`] is bumped, the error is returned
    /// and the remaining events stay queued for a later pump.
    ///
    /// # Errors
    ///
    /// Returns the first event's [`MarketError`]; the engine state remains
    /// consistent (the failed event has no partial effect).
    pub fn pump(&mut self) -> Result<Vec<EpochReport>> {
        let mut reports = Vec::new();
        while let Some(event) = self.queue.pop() {
            match self.apply(event) {
                Ok(Some(report)) => reports.push(report),
                Ok(None) => {}
                Err(e) => {
                    self.metrics.rejected_events += 1;
                    return Err(e);
                }
            }
        }
        Ok(reports)
    }

    /// Applies one event immediately, bypassing the queue.
    ///
    /// This is the per-event entry point for transports (ref-serve) that
    /// need to map each event's outcome back to the request that carried
    /// it. Applying a sequence of events through `apply_now` — continuing
    /// past errors — leaves the engine in exactly the state that
    /// [`MarketEngine::submit_all`] followed by [`MarketEngine::pump`]
    /// retried to completion would: both paths apply events one at a time
    /// in order and bump [`MarketMetrics::rejected_events`] on failure.
    /// Events already queued via [`MarketEngine::submit`] stay queued and
    /// are *not* reordered relative to this call; mixing the two styles on
    /// one engine is almost never what you want.
    ///
    /// # Errors
    ///
    /// Returns the event's [`MarketError`]; the failed event has no
    /// partial effect.
    pub fn apply_now(&mut self, event: MarketEvent) -> Result<Option<EpochReport>> {
        match self.apply(event) {
            Ok(report) => Ok(report),
            Err(e) => {
                self.metrics.rejected_events += 1;
                Err(e)
            }
        }
    }

    fn apply(&mut self, event: MarketEvent) -> Result<Option<EpochReport>> {
        self.metrics.events += 1;
        match event {
            MarketEvent::AgentJoined { id, source } => {
                if self.population.contains_key(&id) {
                    return Err(MarketError::DuplicateAgent(id));
                }
                let agent =
                    AgentState::new(id, self.epoch, source, self.config.capacity.num_resources())?;
                self.population.insert(id, agent);
                self.ledger.admit(id);
                self.metrics.joins += 1;
                self.stable_since = self.epoch;
                Ok(None)
            }
            MarketEvent::AgentLeft { id } => {
                if self.population.remove(&id).is_none() {
                    return Err(MarketError::UnknownAgent(id));
                }
                self.warm.invalidate(id);
                self.ledger.settle(id);
                self.metrics.leaves += 1;
                self.stable_since = self.epoch;
                Ok(None)
            }
            MarketEvent::DemandChanged { id, new_truth } => {
                let num_resources = self.config.capacity.num_resources();
                let agent = self
                    .population
                    .get_mut(&id)
                    .ok_or(MarketError::UnknownAgent(id))?;
                if let Some(truth) = new_truth {
                    if !matches!(agent.source, ObservationSource::GroundTruth(_)) {
                        return Err(MarketError::InvalidArgument(format!(
                            "agent {id} has no ground truth to replace"
                        )));
                    }
                    let source = ObservationSource::GroundTruth(truth);
                    source.validate(num_resources)?;
                    agent.source = source;
                }
                agent.estimator = OnlineEstimator::new(num_resources)?;
                self.warm.invalidate(id);
                // The estimator restart — which also lifts any quarantine —
                // begins a new demand regime: accrual from the old one
                // (or from quarantined epochs) must not buy future weight.
                self.ledger.rebaseline(id);
                self.metrics.demand_changes += 1;
                self.stable_since = self.epoch;
                Ok(None)
            }
            MarketEvent::ObservationReported {
                id,
                allocation,
                performance,
            } => {
                let agent = self
                    .population
                    .get_mut(&id)
                    .ok_or(MarketError::UnknownAgent(id))?;
                if agent.source != ObservationSource::External {
                    return Err(MarketError::InvalidArgument(format!(
                        "agent {id} is engine-driven and cannot accept external observations"
                    )));
                }
                if agent.quarantined() {
                    return Err(MarketError::QuarantinedAgent(id));
                }
                let degen_before = agent.estimator.degenerate_refits();
                let inc_before = agent.estimator.incremental_refits();
                let refit = agent.estimator.observe(allocation, performance)?;
                self.metrics.external_observations += 1;
                self.metrics.refits += u64::from(refit);
                self.metrics.incremental_refits +=
                    (agent.estimator.incremental_refits() - inc_before) as u64;
                self.metrics.degenerate_refits +=
                    (agent.estimator.degenerate_refits() - degen_before) as u64;
                // The agent was not quarantined on entry, so crossing the
                // threshold here is exactly one transition.
                if agent.quarantined() {
                    self.metrics.quarantines += 1;
                    self.warm.invalidate(id);
                    self.ledger.rebaseline(id);
                }
                Ok(None)
            }
            MarketEvent::CapacityRealloted { capacity } => {
                let current = self.config.capacity.num_resources();
                if capacity.len() != current {
                    return Err(MarketError::InvalidArgument(format!(
                        "reallotment has {} resources, market has {current}",
                        capacity.len()
                    )));
                }
                let capacity = Capacity::new(capacity)?;
                // The capacity participates in the allocation fingerprint,
                // so dropping the cache here is belt-and-braces; the warmup
                // restart mirrors membership churn — allotments settling
                // between shards should not trip the fairness audit.
                self.config.capacity = capacity;
                self.cache = None;
                // The previous optimum lived on the old capacity frontier;
                // it may be infeasible under the new one.
                self.warm.clear();
                // Entitlements scale with capacity, so mid-window evidence
                // mixes regimes; balances are normalized ratios and keep.
                self.ledger.clear_windows();
                self.metrics.reallotments += 1;
                self.stable_since = self.epoch;
                Ok(None)
            }
            MarketEvent::EpochTick => self.run_epoch().map(Some),
        }
    }

    fn run_epoch(&mut self) -> Result<EpochReport> {
        let epoch = self.epoch;
        let warm = epoch.saturating_sub(self.stable_since) < self.config.warmup_epochs;
        let ids: Vec<AgentId> = self.population.keys().copied().collect();
        self.epoch += 1;
        self.metrics.epochs += 1;
        if ids.is_empty() {
            return Ok(EpochReport {
                epoch,
                agents: ids,
                realloc: ReallocationOutcome::EmptyMarket,
                allocation: None,
                fairness: None,
                enforcement: Vec::new(),
                warm,
                observations: 0,
                refits: 0,
                temporal_violations: 0,
                worst_temporal_ratio: 1.0,
            });
        }

        let reported: Vec<CobbDouglas> = self
            .population
            .values()
            .map(AgentState::reported_utility)
            .collect();
        // Credit mechanisms tilt this epoch's objective by the balances
        // accrued through the *previous* epoch.
        let weights = if self.config.mechanism.credit_weighted() {
            self.ledger.weights(&ids)
        } else {
            Vec::new()
        };
        let fingerprint = Fingerprint::compute(
            &ids,
            &reported,
            &self.config.capacity,
            self.config.realloc_tolerance,
            &weights,
        );
        let (allocation, realloc) = match &self.cache {
            Some((cached_fp, cached_alloc)) if *cached_fp == fingerprint => {
                self.metrics.cache_hits += 1;
                (cached_alloc.clone(), ReallocationOutcome::CacheHit)
            }
            _ => {
                let kind = self.config.mechanism;
                let num_resources = self.config.capacity.num_resources();
                // Seed optimization-backed mechanisms from the previous
                // epoch's optimum. The solver abandons a hint that does
                // not help after a bounded attempt and reports it, which
                // `warm_start_fallbacks` counts.
                let hint = if kind.warm_startable() {
                    let hint = self.warm.hint(&ids, num_resources);
                    if hint.is_some() {
                        self.metrics.warm_start_hits += 1;
                    } else {
                        self.metrics.warm_start_misses += 1;
                    }
                    hint
                } else {
                    None
                };
                let (alloc, next_hint) =
                    kind.allocate_warm(&reported, &self.config.capacity, hint.as_ref(), &weights)?;
                match next_hint {
                    Some(w) => {
                        if w.stats.warm == WarmOutcome::FellBack {
                            self.metrics.warm_start_fallbacks += 1;
                        }
                        self.warm.store(&ids, num_resources, &w);
                    }
                    None => self.warm.clear(),
                }
                self.cache = Some((fingerprint, alloc.clone()));
                self.metrics.reallocations += 1;
                (alloc, ReallocationOutcome::Reallocated)
            }
        };

        let fairness = FairnessReport::check_with_tolerance(
            &reported,
            &allocation,
            &self.config.capacity,
            self.config.audit_tolerance,
        );
        self.auditor.record(&fairness, warm);

        // Credit accrual and the temporal SI audit. Delivered and entitled
        // utilities are measured under each agent's ground truth when the
        // market holds one (reported utilities can lag a demand change —
        // exactly the episodes temporal SI exists to catch) and under the
        // reported fit otherwise. The equal-share entitlement is `C/N`.
        let equal_share: Vec<f64> = self
            .config
            .capacity
            .as_slice()
            .iter()
            .map(|c| c / ids.len() as f64)
            .collect();
        let measured: Vec<(AgentId, f64, f64)> = self
            .population
            .values()
            .enumerate()
            .map(|(i, agent)| {
                let u = match &agent.source {
                    ObservationSource::GroundTruth(truth) => truth,
                    _ => &reported[i],
                };
                let delivered = u.value_slice(allocation.bundle(i).as_slice());
                let entitled = u.value_slice(&equal_share);
                (agent.id, delivered, entitled)
            })
            .collect();
        let accrual = self
            .ledger
            .accrue(&measured, self.config.temporal_window as usize);
        self.metrics.credits_accrued += accrual.accrued;
        self.metrics.credits_spent += accrual.spent;
        let (temporal_violations, worst_temporal_ratio) = self.ledger.temporal_check(
            self.config.temporal_window as usize,
            self.config.temporal_slack,
        );
        self.auditor.record_temporal(temporal_violations > 0, warm);
        if !warm {
            self.metrics.temporal_si_violations += temporal_violations as u64;
        }

        let enforcement = self.enforce(&allocation)?;
        let (observations, refits, incremental, degenerate, quarantines) =
            self.collect_observations(epoch, &allocation)?;
        self.metrics.refits += refits as u64;
        self.metrics.incremental_refits += incremental;
        self.metrics.degenerate_refits += degenerate;
        self.metrics.quarantines += quarantines;

        Ok(EpochReport {
            epoch,
            agents: ids,
            realloc,
            allocation: Some(allocation),
            fairness: Some(fairness),
            enforcement,
            warm,
            observations,
            refits,
            temporal_violations,
            worst_temporal_ratio,
        })
    }

    /// Drives a stride scheduler per resource against the granted shares;
    /// [`StrideScheduler::run`] grants the epoch's quanta in bulk, bit for
    /// bit as one `next_quantum` call per quantum would. Resources are
    /// independent schedulers, so they fan out across the worker pool;
    /// summaries are returned in resource order regardless of the thread
    /// count.
    fn enforce(&self, allocation: &Allocation) -> Result<Vec<EnforcementSummary>> {
        if self.config.enforcement_quanta == 0 {
            return Ok(Vec::new());
        }
        let capacity = &self.config.capacity;
        let quanta = self.config.enforcement_quanta;
        ref_pool::par_map(capacity.num_resources(), |resource| {
            let target: Vec<f64> = allocation
                .bundles()
                .iter()
                .map(|b| b.get(resource) / capacity.get(resource))
                .collect();
            let weights: Vec<f64> = target.iter().map(|w| w.max(MIN_STRIDE_WEIGHT)).collect();
            let mut stride = StrideScheduler::new(weights).map_err(MarketError::InvalidArgument)?;
            stride.run(quanta);
            let achieved = stride.service_shares();
            let max_deviation = achieved
                .iter()
                .zip(&target)
                .map(|(a, t)| (a - t).abs())
                .fold(0.0, f64::max);
            Ok(EnforcementSummary {
                resource,
                target,
                achieved,
                max_deviation,
            })
        })
        .into_iter()
        .collect()
    }

    /// Produces one observation per engine-driven agent at a jittered
    /// allocation and feeds the online estimators. Returns
    /// `(observations, refits, incremental refit delta, degenerate refit
    /// delta, quarantine transitions)` for this epoch.
    fn collect_observations(
        &mut self,
        epoch: u64,
        allocation: &Allocation,
    ) -> Result<(usize, usize, u64, u64, u64)> {
        let config = self.config.clone();

        // Simulated agents run jointly in one partitioned multicore system.
        let mut simulated: Vec<(usize, AgentId, String)> = Vec::new();
        for (i, agent) in self.population.values().enumerate() {
            if let ObservationSource::Simulated { benchmark } = &agent.source {
                simulated.push((i, agent.id, benchmark.clone()));
            }
        }
        let sim_results = if simulated.is_empty() {
            BTreeMap::new()
        } else {
            run_simulated(&config, epoch, &simulated, allocation)?
        };

        // Each agent's observation and refit touches only that agent's
        // estimator, so the per-agent work fans out across the worker
        // pool: `work` hands every slot's `&mut AgentState` to exactly
        // one pool task. Outcomes are folded in agent-id order, so the
        // counters — and the first error, if any — are identical at every
        // thread count.
        struct ObservationSlot<'a> {
            bundle: &'a [f64],
            was_quarantined: bool,
            degen_before: usize,
            inc_before: usize,
            agent: &'a mut AgentState,
            outcome: Result<(usize, usize)>,
        }
        let mut work: Vec<ObservationSlot<'_>> = self
            .population
            .values_mut()
            .enumerate()
            .map(|(i, agent)| ObservationSlot {
                bundle: allocation.bundle(i).as_slice(),
                was_quarantined: agent.quarantined(),
                degen_before: agent.estimator.degenerate_refits(),
                inc_before: agent.estimator.incremental_refits(),
                agent,
                outcome: Ok((0, 0)),
            })
            .collect();
        ref_pool::par_for_each_mut(&mut work, |_, slot| {
            slot.outcome = observe_agent(&config, epoch, slot.bundle, slot.agent, &sim_results);
        });
        let mut observations = 0;
        let mut refits = 0;
        let mut incremental = 0u64;
        let mut degenerate = 0u64;
        let mut quarantines = 0u64;
        for slot in work {
            let (obs, refit) = slot.outcome?;
            observations += obs;
            refits += refit;
            incremental += (slot.agent.estimator.incremental_refits() - slot.inc_before) as u64;
            degenerate += (slot.agent.estimator.degenerate_refits() - slot.degen_before) as u64;
            if !slot.was_quarantined && slot.agent.quarantined() {
                quarantines += 1;
                self.warm.invalidate(slot.agent.id);
                self.ledger.rebaseline(slot.agent.id);
            }
        }
        Ok((observations, refits, incremental, degenerate, quarantines))
    }

    /// The static configuration.
    pub fn config(&self) -> &MarketConfig {
        &self.config
    }

    /// The next epoch number to execute.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Per-resource sum of the live agents' *reported* elasticities — the
    /// demand summary a cross-shard coordinator exchanges to rebalance
    /// capacity allotments between shards. Cheap (one pass over the
    /// population) and derived purely from reported utilities, so it leaks
    /// nothing beyond what the allocation mechanism already uses.
    pub fn aggregate_demand(&self) -> Vec<f64> {
        let mut demand = vec![0.0; self.config.capacity.num_resources()];
        for agent in self.population.values() {
            let reported = agent.reported_utility();
            for (d, e) in demand.iter_mut().zip(reported.elasticities()) {
                *d += e;
            }
        }
        demand
    }

    /// Number of live agents.
    pub fn num_live_agents(&self) -> usize {
        self.population.len()
    }

    /// Live agent ids in ascending order (allocation bundle order).
    pub fn live_agents(&self) -> Vec<AgentId> {
        self.population.keys().copied().collect()
    }

    /// A live agent's state, if present.
    pub fn agent(&self, id: AgentId) -> Option<&AgentState> {
        self.population.get(&id)
    }

    /// The fairness auditor.
    pub fn auditor(&self) -> &Auditor {
        &self.auditor
    }

    /// The warm-start cache seeding optimization-backed mechanisms.
    #[cfg(test)]
    pub(crate) fn warm_cache(&self) -> &WarmStartCache {
        &self.warm
    }

    /// The credit ledger (updated every epoch regardless of mechanism, so
    /// switching a recovered market to credit fairness starts from real
    /// history).
    pub fn ledger(&self) -> &CreditLedger {
        &self.ledger
    }

    /// Lifetime service counters.
    pub fn metrics(&self) -> &MarketMetrics {
        &self.metrics
    }

    /// Captures the full market state (population, estimator states,
    /// allocation cache, counters) as a versioned snapshot.
    ///
    /// Pending events are *not* captured — pump before snapshotting to
    /// checkpoint between batches.
    pub fn snapshot(&self) -> MarketSnapshot {
        MarketSnapshot {
            version: SNAPSHOT_VERSION,
            config: self.config.clone(),
            epoch: self.epoch,
            stable_since: self.stable_since,
            auditor: self.auditor.clone(),
            metrics: self.metrics.clone(),
            cache: self.cache.clone(),
            warm: self.warm.clone(),
            ledger: self.ledger.clone(),
            agents: self
                .population
                .values()
                .map(|a| AgentSnapshot {
                    id: a.id,
                    joined_epoch: a.joined_epoch,
                    source: a.source.clone(),
                    estimator: a.estimator.state().clone(),
                })
                .collect(),
        }
    }

    /// Streams [`MarketEngine::snapshot`]'s encoded text to `out`, in
    /// chunks of about 64 KiB, straight from the engine's own state:
    /// nothing is cloned and the document is never whole in memory.
    ///
    /// # Errors
    ///
    /// The first error `out` returns; no chunk is handed on after it.
    pub fn write_snapshot(&self, out: &mut dyn FnMut(&[u8]) -> io::Result<()>) -> io::Result<()> {
        self.view().write_text(out)
    }

    /// [`MarketEngine::snapshot`]'s encoded text, written straight from
    /// the engine's own state.
    pub fn encode_snapshot(&self) -> String {
        self.view().text()
    }

    /// A 64-bit digest of the full market state — everything
    /// [`MarketEngine::snapshot`] would serialize — equal to that
    /// snapshot's [`MarketSnapshot::fingerprint`]. Bit-identical replicas
    /// agree; any divergence (one event skipped, one float perturbed)
    /// disagrees with overwhelming probability.
    ///
    /// Costs `O(live agents × resources²)` however long the market has
    /// run: each agent's estimator enters as its persisted state, the
    /// triangular factor of its design, not as the observations behind it.
    pub fn state_fingerprint(&self) -> u64 {
        self.view().walk(StateHasher::new()).finish()
    }

    fn view(&self) -> StateView<'_, impl ExactSizeIterator<Item = AgentView<'_>>> {
        StateView {
            version: SNAPSHOT_VERSION,
            config: &self.config,
            epoch: self.epoch,
            stable_since: self.stable_since,
            auditor: &self.auditor,
            metrics: &self.metrics,
            cache: self.cache.as_ref(),
            warm: &self.warm,
            ledger: &self.ledger,
            agents: self.population.values().map(|a| AgentView {
                id: a.id,
                joined_epoch: a.joined_epoch,
                source: &a.source,
                estimator: a.estimator.state(),
            }),
        }
    }

    /// Rebuilds a market from a snapshot.
    ///
    /// Estimators are loaded from their persisted state and the allocation
    /// cache is restored, both bit-exactly, so the restored market's next
    /// epoch produces the same allocation — bit for bit — as the original
    /// would have.
    ///
    /// # Errors
    ///
    /// Returns [`MarketError::Snapshot`] for an unsupported version or an
    /// estimator state no estimator reaches
    /// ([`EstimatorState::check`](ref_core::online::EstimatorState::check)),
    /// and propagates other validation failures from the snapshotted state.
    pub fn restore(snapshot: &MarketSnapshot) -> Result<MarketEngine> {
        if snapshot.version != SNAPSHOT_VERSION {
            return Err(MarketError::Snapshot(format!(
                "unsupported snapshot version {} (supported: {SNAPSHOT_VERSION})",
                snapshot.version
            )));
        }
        snapshot.config.validate()?;
        let num_resources = snapshot.config.capacity.num_resources();
        let mut population = BTreeMap::new();
        for a in &snapshot.agents {
            a.source.validate(num_resources)?;
            let estimator = OnlineEstimator::from_state(num_resources, a.estimator.clone())
                .map_err(|e| MarketError::Snapshot(format!("agent {}: {e}", a.id)))?;
            let state = AgentState {
                id: a.id,
                joined_epoch: a.joined_epoch,
                source: a.source.clone(),
                estimator,
            };
            if population.insert(a.id, state).is_some() {
                return Err(MarketError::DuplicateAgent(a.id));
            }
        }
        // Ledger ids are the live agents. An entry for an agent the
        // snapshot does not hold would never settle, and its window would
        // stay in every temporal audit. A hand-built snapshot may omit
        // entries; open a zeroed one for every live agent so weights and
        // settlement behave as after a fresh admission (admit is
        // idempotent for entries present).
        if let Some((ghost, _)) = snapshot
            .ledger
            .iter()
            .find(|(id, _)| !population.contains_key(id))
        {
            return Err(MarketError::Snapshot(format!(
                "ledger entry for agent {ghost}, which the snapshot does not hold"
            )));
        }
        let mut ledger = snapshot.ledger.clone();
        for id in population.keys() {
            ledger.admit(*id);
        }
        Ok(MarketEngine {
            config: snapshot.config.clone(),
            population,
            queue: EventQueue::new(),
            epoch: snapshot.epoch,
            stable_since: snapshot.stable_since,
            cache: snapshot.cache.clone(),
            warm: snapshot.warm.clone(),
            auditor: snapshot.auditor.clone(),
            metrics: snapshot.metrics.clone(),
            ledger,
        })
    }
}

/// One agent's per-epoch observation: derives the jittered measurement
/// point from `(seed, epoch, agent id)` alone and feeds the agent's own
/// estimator. Returns `(observations, refits)` contributed by this agent.
fn observe_agent(
    config: &MarketConfig,
    epoch: u64,
    bundle: &[f64],
    agent: &mut AgentState,
    sim_results: &BTreeMap<AgentId, (Vec<f64>, f64)>,
) -> Result<(usize, usize)> {
    // A quarantined agent is held on its last good fit: feeding the
    // estimator more points would only grow a design whose aggregate fit
    // is already degenerate. The skip is a pure function of the
    // estimator's persisted counters, so a restored market makes the
    // same choice.
    if agent.quarantined() {
        return Ok((0, 0));
    }
    let AgentState {
        id,
        source,
        estimator,
        ..
    } = agent;
    match source {
        ObservationSource::GroundTruth(truth) => {
            let mut rng = ChaCha8Rng::seed_from_u64(mix(config.seed, epoch, *id));
            // The point lives on the stack for up to four resources.
            let (mut stack, mut heap) = ([0.0; 4], Vec::new());
            let jittered = match stack.get_mut(..bundle.len()) {
                Some(point) => point,
                None => {
                    heap.resize(bundle.len(), 0.0);
                    &mut heap[..]
                }
            };
            for (x, q) in jittered.iter_mut().zip(bundle) {
                let f = 1.0 - config.excitation + 2.0 * config.excitation * rng.gen::<f64>();
                *x = (q * f).max(1e-9);
            }
            let perf = truth.value_slice(jittered);
            if perf.is_finite() && perf > 0.0 {
                let refit = estimator.observe(jittered, perf)?;
                return Ok((1, usize::from(refit)));
            }
            Ok((0, 0))
        }
        ObservationSource::Simulated { .. } => {
            if let Some((inputs, ipc)) = sim_results.get(id) {
                if *ipc > 0.0 {
                    let refit = estimator.observe(inputs, *ipc)?;
                    return Ok((1, usize::from(refit)));
                }
            }
            Ok((0, 0))
        }
        ObservationSource::External => Ok((0, 0)),
    }
}

/// Runs all simulated agents jointly through the cycle-level simulator at
/// their (jittered) granted shares; returns each agent's observation as
/// `(resource quantities, achieved IPC)`.
fn run_simulated(
    config: &MarketConfig,
    epoch: u64,
    simulated: &[(usize, AgentId, String)],
    allocation: &Allocation,
) -> Result<BTreeMap<AgentId, (Vec<f64>, f64)>> {
    let capacity = &config.capacity;
    let platform = PlatformConfig::asplos14()
        .with_bandwidth(Bandwidth::from_gb_per_sec(capacity.get(0)))
        .with_l2_size(CacheSize::from_bytes(
            (capacity.get(1) * 1024.0 * 1024.0) as u64,
        ));

    let mut bw_shares = Vec::with_capacity(simulated.len());
    let mut cache_shares = Vec::with_capacity(simulated.len());
    let mut dependent = Vec::with_capacity(simulated.len());
    let mut streams = Vec::with_capacity(simulated.len());
    let mut inputs = Vec::with_capacity(simulated.len());
    for (i, id, name) in simulated {
        let bench = by_name(name)
            .ok_or_else(|| MarketError::InvalidArgument(format!("unknown benchmark {name:?}")))?;
        // Jitter only downward so the shares stay jointly feasible.
        let mut rng = ChaCha8Rng::seed_from_u64(mix(config.seed, epoch, *id));
        let f_bw = 1.0 - 2.0 * config.excitation * rng.gen::<f64>();
        let f_cache = 1.0 - 2.0 * config.excitation * rng.gen::<f64>();
        let bw = (allocation.bundle(*i).get(0) / capacity.get(0) * f_bw).max(MIN_SIM_SHARE);
        let cache = (allocation.bundle(*i).get(1) / capacity.get(1) * f_cache).max(MIN_SIM_SHARE);
        bw_shares.push(bw);
        cache_shares.push(cache);
        dependent.push(bench.params.dependent_fraction);
        streams.push(bench.stream(mix(config.seed, epoch, *id)));
        inputs.push(vec![bw * capacity.get(0), cache * capacity.get(1)]);
    }

    let mut system = MulticoreSystem::new(&platform, &cache_shares, &bw_shares)
        .with_dependent_load_fractions(dependent);
    let reports = system.run(streams, config.sim_instructions);

    Ok(simulated
        .iter()
        .zip(inputs)
        .zip(reports)
        .map(|(((_, id, _), input), report)| (*id, (input, report.ipc())))
        .collect())
}

/// Deterministic per-(seed, epoch, agent) stream seed.
fn mix(seed: u64, epoch: u64, id: AgentId) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for v in [epoch, id] {
        h ^= v.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = h.rotate_left(23).wrapping_mul(0x94D0_49BB_1331_11EB);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth(e0: f64, e1: f64) -> ObservationSource {
        ObservationSource::GroundTruth(CobbDouglas::new(1.0, vec![e0, e1]).unwrap())
    }

    fn two_agent_market() -> MarketEngine {
        let config = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap());
        let mut market = MarketEngine::new(config).unwrap();
        market.submit(MarketEvent::AgentJoined {
            id: 1,
            source: truth(0.6, 0.4),
        });
        market.submit(MarketEvent::AgentJoined {
            id: 2,
            source: truth(0.2, 0.8),
        });
        market
    }

    #[test]
    fn config_validation_rejects_bad_tuning() {
        let cap = Capacity::new(vec![10.0]).unwrap();
        let excitation = MarketConfig {
            excitation: 0.7,
            ..MarketConfig::new(cap.clone())
        };
        assert!(MarketEngine::new(excitation).is_err());
        let realloc = MarketConfig {
            realloc_tolerance: 0.0,
            ..MarketConfig::new(cap)
        };
        assert!(MarketEngine::new(realloc).is_err());
    }

    #[test]
    fn audit_tolerances_outside_the_unit_interval_are_refused() {
        let snapshot = two_agent_market().snapshot();
        assert!(MarketEngine::restore(&snapshot).is_ok());
        for tol in [1.0, 1.5, f64::NAN] {
            let config = MarketConfig {
                audit_tolerance: tol,
                ..snapshot.config.clone()
            };
            let refused = MarketEngine::new(config.clone());
            assert!(
                matches!(refused, Err(MarketError::InvalidArgument(_))),
                "tol {tol}"
            );
            let restored = MarketEngine::restore(&MarketSnapshot {
                config,
                ..snapshot.clone()
            });
            assert!(
                matches!(restored, Err(MarketError::InvalidArgument(_))),
                "tol {tol}"
            );
        }
    }

    #[test]
    fn empty_market_ticks_without_allocating() {
        let config = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap());
        let mut market = MarketEngine::new(config).unwrap();
        market.submit(MarketEvent::EpochTick);
        let reports = market.pump().unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].realloc, ReallocationOutcome::EmptyMarket);
        assert!(reports[0].allocation.is_none());
        assert_eq!(market.metrics().epochs, 1);
    }

    #[test]
    fn converges_to_true_ref_point_with_churn_free_population() {
        let mut market = two_agent_market();
        market.submit_all(std::iter::repeat_n(MarketEvent::EpochTick, 25));
        let reports = market.pump().unwrap();
        let last = reports.last().unwrap();
        let alloc = last.allocation.as_ref().unwrap();
        // True REF point of the hidden utilities: (18, 4) / (6, 8).
        assert!((alloc.bundle(0).get(0) - 18.0).abs() < 0.5, "{alloc:?}");
        assert!((alloc.bundle(1).get(1) - 8.0).abs() < 0.5, "{alloc:?}");
        // Fitted elasticities approach ground truth.
        let fitted = market.agent(1).unwrap().reported_utility();
        assert!((fitted.elasticity(0) - 0.6).abs() < 0.02, "{fitted:?}");
        assert!(market.auditor().clean_after_warmup());
    }

    #[test]
    fn converged_market_serves_epochs_from_the_cache() {
        let mut market = two_agent_market();
        market.submit_all(std::iter::repeat_n(MarketEvent::EpochTick, 40));
        market.pump().unwrap();
        let m = market.metrics();
        assert!(m.cache_hits > 20, "{m}");
        assert!(m.reallocations < 15, "{m}");
        // Churn invalidates the fingerprint.
        market.submit(MarketEvent::AgentJoined {
            id: 3,
            source: truth(0.5, 0.5),
        });
        market.submit(MarketEvent::EpochTick);
        let reports = market.pump().unwrap();
        assert_eq!(reports[0].realloc, ReallocationOutcome::Reallocated);
        assert_eq!(reports[0].agents, vec![1, 2, 3]);
    }

    #[test]
    fn membership_errors_are_fail_fast_and_leave_queue_intact() {
        let mut market = two_agent_market();
        market.pump().unwrap();
        market.submit(MarketEvent::AgentJoined {
            id: 1,
            source: truth(0.5, 0.5),
        });
        market.submit(MarketEvent::EpochTick);
        assert!(matches!(market.pump(), Err(MarketError::DuplicateAgent(1))));
        assert_eq!(market.queue.len(), 1);
        assert_eq!(market.metrics().rejected_events, 1);
        market.submit(MarketEvent::AgentLeft { id: 99 });
        assert!(matches!(
            market.pump().unwrap_err(),
            MarketError::UnknownAgent(99)
        ));
    }

    #[test]
    fn demand_change_resets_the_estimator_and_swaps_truth() {
        let mut market = two_agent_market();
        market.submit_all(std::iter::repeat_n(MarketEvent::EpochTick, 12));
        market.pump().unwrap();
        assert!(market.agent(1).unwrap().estimator.num_observations() > 0);
        market.submit(MarketEvent::DemandChanged {
            id: 1,
            new_truth: Some(CobbDouglas::new(1.0, vec![0.3, 0.7]).unwrap()),
        });
        market.pump().unwrap();
        let agent = market.agent(1).unwrap();
        assert_eq!(agent.estimator.num_observations(), 0);
        assert_eq!(agent.reported_utility().elasticities(), &[0.5, 0.5]);
        // The market re-converges to the new truth's REF point.
        market.submit_all(std::iter::repeat_n(MarketEvent::EpochTick, 20));
        let reports = market.pump().unwrap();
        let alloc = reports.last().unwrap().allocation.as_ref().unwrap();
        // Rescaled elasticities (0.3, 0.7) and (0.2, 0.8): x_00 = 0.3/0.5*24.
        assert!((alloc.bundle(0).get(0) - 14.4).abs() < 0.5, "{alloc:?}");
        assert!(market.auditor().clean_after_warmup());
        // Swapping truth on a non-ground-truth agent is rejected.
        market.submit(MarketEvent::AgentJoined {
            id: 7,
            source: ObservationSource::External,
        });
        market.submit(MarketEvent::DemandChanged {
            id: 7,
            new_truth: Some(CobbDouglas::new(1.0, vec![0.5, 0.5]).unwrap()),
        });
        assert!(market.pump().is_err());
    }

    #[test]
    fn external_agents_learn_only_from_reported_observations() {
        let config = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap());
        let mut market = MarketEngine::new(config).unwrap();
        market.submit(MarketEvent::AgentJoined {
            id: 1,
            source: ObservationSource::External,
        });
        market.submit(MarketEvent::EpochTick);
        market.pump().unwrap();
        assert_eq!(market.agent(1).unwrap().estimator.num_observations(), 0);
        let hidden = CobbDouglas::new(1.0, vec![0.7, 0.3]).unwrap();
        for k in 0..8_u32 {
            let x = 1.0 + f64::from(k % 4);
            let y = 0.5 + f64::from(k % 3);
            market.submit(MarketEvent::ObservationReported {
                id: 1,
                allocation: vec![x, y],
                performance: hidden.value_slice(&[x, y]),
            });
        }
        market.pump().unwrap();
        let fitted = market.agent(1).unwrap().reported_utility();
        assert!((fitted.elasticity(0) - 0.7).abs() < 1e-6, "{fitted:?}");
        assert_eq!(market.metrics().external_observations, 8);
        // Non-finite measurements are rejected before touching the log.
        market.submit(MarketEvent::ObservationReported {
            id: 1,
            allocation: vec![1.0, 1.0],
            performance: f64::NAN,
        });
        assert!(market.pump().is_err());
        assert_eq!(market.agent(1).unwrap().estimator.num_observations(), 8);
        // Ground-truth agents refuse external reports.
        market.submit(MarketEvent::AgentJoined {
            id: 2,
            source: truth(0.5, 0.5),
        });
        market.submit(MarketEvent::ObservationReported {
            id: 2,
            allocation: vec![1.0, 1.0],
            performance: 1.0,
        });
        assert!(market.pump().is_err());
    }

    #[test]
    fn repeated_degenerate_fits_quarantine_an_external_agent() {
        let config = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap());
        let mut market = MarketEngine::new(config).unwrap();
        market.submit(MarketEvent::AgentJoined {
            id: 1,
            source: ObservationSource::External,
        });
        market.pump().unwrap();
        // Individually valid points whose exact log-linear fit has
        // intercept 800: the fitted scale overflows, every refit attempt
        // is degenerate, and after three in a row the agent quarantines.
        let huge = |x: f64, y: f64| (800.0 + 20.0 * x.ln() + 20.0 * y.ln()).exp();
        let pts = [
            (0.01, 0.01),
            (0.02, 0.01),
            (0.01, 0.03),
            (0.05, 0.02),
            (0.03, 0.04),
            (0.02, 0.05),
        ];
        for &(x, y) in &pts {
            market.submit(MarketEvent::ObservationReported {
                id: 1,
                allocation: vec![x, y],
                performance: huge(x, y),
            });
        }
        market.pump().unwrap();
        let agent = market.agent(1).unwrap();
        assert!(agent.quarantined());
        // The last good estimate (here: the prior) still drives allocation.
        assert_eq!(agent.reported_utility().elasticities(), &[0.5, 0.5]);
        assert_eq!(market.metrics().degenerate_refits, 3);
        assert_eq!(market.metrics().quarantines, 1);
        // Further observations for the quarantined agent are refused.
        market.submit(MarketEvent::ObservationReported {
            id: 1,
            allocation: vec![1.0, 1.0],
            performance: 1.0,
        });
        assert!(matches!(
            market.pump(),
            Err(MarketError::QuarantinedAgent(1))
        ));
        assert_eq!(market.metrics().rejected_events, 1);
        // An epoch tick neither feeds the agent nor recounts transitions.
        market.submit(MarketEvent::EpochTick);
        market.pump().unwrap();
        assert_eq!(market.metrics().quarantines, 1);
        // Quarantine is derived from the estimator's counters, so it
        // survives snapshot/restore without extra persisted state.
        let restored = MarketEngine::restore(&market.snapshot()).unwrap();
        assert!(restored.agent(1).unwrap().quarantined());
        assert_eq!(restored.metrics().quarantines, 1);
        // A demand change resets the estimator and lifts the quarantine.
        market.submit(MarketEvent::DemandChanged {
            id: 1,
            new_truth: None,
        });
        market.pump().unwrap();
        let agent = market.agent(1).unwrap();
        assert!(!agent.quarantined());
        assert_eq!(agent.estimator.num_observations(), 0);
        market.submit(MarketEvent::ObservationReported {
            id: 1,
            allocation: vec![2.0, 1.0],
            performance: 1.5,
        });
        market.pump().unwrap();
        assert_eq!(market.agent(1).unwrap().estimator.num_observations(), 1);
    }

    #[test]
    fn simulated_agents_learn_from_the_cycle_level_simulator() {
        // Unlike the offline pipeline's full capacity sweep, the online
        // fit only sees jittered points near the granted shares, so it
        // measures *local* sensitivity at the operating point. The market
        // guarantees the learning loop itself: every epoch yields one
        // observation per simulated agent, the estimators refit off the
        // achieved IPC, and the allocation stays fair for the fits.
        let config = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap())
            .with_sim_instructions(12_000)
            .with_warmup_epochs(4);
        let mut market = MarketEngine::new(config).unwrap();
        market.submit(MarketEvent::AgentJoined {
            id: 1,
            source: ObservationSource::Simulated {
                benchmark: "histogram".to_string(),
            },
        });
        market.submit(MarketEvent::AgentJoined {
            id: 2,
            source: ObservationSource::Simulated {
                benchmark: "dedup".to_string(),
            },
        });
        market.submit_all(std::iter::repeat_n(MarketEvent::EpochTick, 10));
        let reports = market.pump().unwrap();
        assert!(reports.iter().all(|r| r.observations == 2));
        for id in [1, 2] {
            let agent = market.agent(id).unwrap();
            assert!(agent.estimator.refits() > 0, "agent {id} never refit");
            let u = agent.reported_utility();
            assert!((u.elasticity_sum() - 1.0).abs() < 1e-9, "{u:?}");
        }
        assert!(market.auditor().clean_after_warmup());
    }

    #[test]
    fn gp_mechanism_market_warm_starts_between_epochs() {
        let config = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap())
            .with_mechanism(MechanismKind::MaxWelfare { fairness: true });
        let mut market = MarketEngine::new(config).unwrap();
        market.submit(MarketEvent::AgentJoined {
            id: 1,
            source: truth(0.6, 0.4),
        });
        market.submit(MarketEvent::AgentJoined {
            id: 2,
            source: truth(0.2, 0.8),
        });
        market.submit_all(std::iter::repeat_n(MarketEvent::EpochTick, 20));
        let reports = market.pump().unwrap();
        let m = market.metrics().clone();
        // The first solve is necessarily cold; every later solve over the
        // unchanged population is seeded from the previous optimum.
        assert_eq!(m.warm_start_misses, 1, "{m}");
        assert!(m.warm_start_hits > 0, "{m}");
        assert_eq!(m.warm_start_hits + m.warm_start_misses, m.reallocations);
        assert_eq!(m.warm_start_fallbacks, 0, "{m:?}");
        assert!(!market.warm_cache().is_empty());
        assert!(market.auditor().clean_after_warmup());
        // Warm-started solves still land on the REF point the fitted
        // utilities imply (the paper example's (18, 4) / (6, 8)).
        let alloc = reports.last().unwrap().allocation.as_ref().unwrap();
        assert!((alloc.bundle(0).get(0) - 18.0).abs() < 0.8, "{alloc:?}");
        assert!((alloc.bundle(1).get(1) - 8.0).abs() < 0.8, "{alloc:?}");
        // A departure only drops the leaver's block: the survivor's cached
        // optimum still covers the shrunken id set, so the next solve is
        // offered it — a hit. But a bundle sized for a shared machine is
        // nowhere near central once the survivor has it to itself: the
        // solver abandons the hint, and says so. An arrival, by contrast,
        // changes the problem shape and forces a cold start.
        market.submit(MarketEvent::AgentLeft { id: 2 });
        market.submit(MarketEvent::EpochTick);
        market.pump().unwrap();
        assert_eq!(market.metrics().warm_start_misses, 1);
        assert_eq!(market.metrics().warm_start_hits, m.warm_start_hits + 1);
        assert_eq!(market.metrics().warm_start_fallbacks, 1);
        market.submit(MarketEvent::AgentJoined {
            id: 3,
            source: truth(0.5, 0.5),
        });
        market.submit(MarketEvent::EpochTick);
        market.pump().unwrap();
        assert_eq!(market.metrics().warm_start_misses, 2);
    }

    #[test]
    fn closed_form_mechanism_never_touches_warm_counters() {
        let mut market = two_agent_market();
        market.submit_all(std::iter::repeat_n(MarketEvent::EpochTick, 10));
        market.pump().unwrap();
        let m = market.metrics();
        assert!(m.reallocations > 0);
        assert_eq!(m.warm_start_hits, 0);
        assert_eq!(m.warm_start_misses, 0);
        assert!(market.warm_cache().is_empty());
    }

    #[test]
    fn every_market_refit_is_served_incrementally() {
        let mut market = two_agent_market();
        market.submit_all(std::iter::repeat_n(MarketEvent::EpochTick, 15));
        market.pump().unwrap();
        let m = market.metrics();
        assert!(m.refits > 0);
        assert_eq!(m.incremental_refits, m.refits, "{m}");
    }

    #[test]
    fn rank_classification_follows_the_unified_solver_tolerance() {
        // The estimator's collinear-vs-informative decision is governed by
        // the documented `ref_solver::tol` thresholds. A design whose
        // log-columns vary far below the rank tolerance is classified
        // collinear — the prior survives, nothing is counted degenerate
        // and the agent is never quarantined; variation well above it
        // refits normally.
        let run = |spread: f64| {
            let config = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap());
            let mut market = MarketEngine::new(config).unwrap();
            market.submit(MarketEvent::AgentJoined {
                id: 1,
                source: ObservationSource::External,
            });
            for i in 0..8_u32 {
                let x = 2.0 * (1.0 + spread * f64::from(i));
                let y = 3.0 * (1.0 + 0.7 * spread * f64::from((i * 3) % 5));
                market.submit(MarketEvent::ObservationReported {
                    id: 1,
                    allocation: vec![x, y],
                    performance: x.powf(0.6) * y.powf(0.4),
                });
            }
            market.pump().unwrap();
            market
        };
        // Spread orders of magnitude below RANK_TOL: collinear, keep prior.
        let degenerate_spread = ref_solver::tol::RANK_TOL * 1e-3;
        let market = run(degenerate_spread);
        let agent = market.agent(1).unwrap();
        assert_eq!(agent.estimator.refits(), 0);
        assert_eq!(agent.estimator.degenerate_refits(), 0);
        assert!(!agent.quarantined());
        assert_eq!(agent.reported_utility().elasticities(), &[0.5, 0.5]);
        // The same shape of design with real variation refits fine.
        let market = run(0.1);
        let agent = market.agent(1).unwrap();
        assert!(agent.estimator.refits() > 0);
        assert!((agent.reported_utility().elasticity(0) - 0.6).abs() < 1e-6);
    }

    #[test]
    fn enforcement_tracks_granted_shares() {
        let mut market = two_agent_market();
        market.submit_all(std::iter::repeat_n(MarketEvent::EpochTick, 15));
        let reports = market.pump().unwrap();
        let last = reports.last().unwrap();
        assert_eq!(last.enforcement.len(), 2);
        assert!(
            last.worst_enforcement_deviation() < 0.01,
            "{:?}",
            last.enforcement
        );
    }

    // --- Same-batch event-ordering semantics -------------------------
    //
    // Events between two ticks apply strictly in submission order, one at
    // a time, with no coalescing. These tests pin the edge cases a
    // network transport can produce by interleaving clients.

    #[test]
    fn same_batch_join_then_leave_is_a_clean_noop() {
        let mut market = two_agent_market();
        market.submit(MarketEvent::AgentJoined {
            id: 9,
            source: truth(0.5, 0.5),
        });
        market.submit(MarketEvent::AgentLeft { id: 9 });
        market.submit(MarketEvent::EpochTick);
        let reports = market.pump().unwrap();
        // The transient never reaches an allocation, but both counters
        // record it and the warm-up window restarts.
        assert_eq!(reports[0].agents, vec![1, 2]);
        assert_eq!(market.metrics().joins, 3);
        assert_eq!(market.metrics().leaves, 1);
        assert!(reports[0].warm);
    }

    #[test]
    fn same_batch_leave_then_rejoin_resets_the_estimator() {
        let mut market = two_agent_market();
        market.submit_all(std::iter::repeat_n(MarketEvent::EpochTick, 12));
        market.pump().unwrap();
        let converged = market.agent(1).unwrap().estimator.num_observations();
        assert!(converged > 0);
        // Leave + join with the same id in one batch is a legal rejoin:
        // the new incarnation starts from the uniform prior.
        market.submit(MarketEvent::AgentLeft { id: 1 });
        market.submit(MarketEvent::AgentJoined {
            id: 1,
            source: truth(0.8, 0.2),
        });
        market.pump().unwrap();
        let agent = market.agent(1).unwrap();
        assert_eq!(agent.estimator.num_observations(), 0);
        assert_eq!(agent.reported_utility().elasticities(), &[0.5, 0.5]);
        assert_eq!(agent.joined_epoch, 12);
    }

    #[test]
    fn same_batch_join_then_rejoin_is_a_duplicate() {
        // Join + join (without an intervening leave) is rejected even
        // inside one batch: the first join wins, the second is dropped.
        let config = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap());
        let mut market = MarketEngine::new(config).unwrap();
        market.submit(MarketEvent::AgentJoined {
            id: 5,
            source: truth(0.6, 0.4),
        });
        market.submit(MarketEvent::AgentJoined {
            id: 5,
            source: truth(0.3, 0.7),
        });
        assert!(matches!(market.pump(), Err(MarketError::DuplicateAgent(5))));
        // The first incarnation survives untouched.
        assert_eq!(market.num_live_agents(), 1);
        assert_eq!(market.metrics().joins, 1);
        assert_eq!(market.metrics().rejected_events, 1);
    }

    #[test]
    fn same_batch_leave_then_observe_rejects_only_the_observation() {
        let config = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap());
        let mut market = MarketEngine::new(config).unwrap();
        market.submit(MarketEvent::AgentJoined {
            id: 1,
            source: ObservationSource::External,
        });
        market.pump().unwrap();
        // Leave followed by a late observation for the same agent: the
        // leave applies, the observation is unknown-agent, and the events
        // after it stay queued (fail-fast).
        market.submit(MarketEvent::AgentLeft { id: 1 });
        market.submit(MarketEvent::ObservationReported {
            id: 1,
            allocation: vec![1.0, 1.0],
            performance: 1.0,
        });
        market.submit(MarketEvent::EpochTick);
        assert!(matches!(market.pump(), Err(MarketError::UnknownAgent(1))));
        assert_eq!(market.num_live_agents(), 0);
        assert_eq!(market.queue.len(), 1);
        // The retried pump drains the tick; the market is now empty.
        let reports = market.pump().unwrap();
        assert_eq!(reports[0].realloc, ReallocationOutcome::EmptyMarket);
    }

    #[test]
    fn same_batch_observe_then_leave_keeps_the_observation_effect() {
        // The mirrored order is legal: the observation lands first, then
        // the agent departs. Counters must reflect both.
        let config = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap());
        let mut market = MarketEngine::new(config).unwrap();
        market.submit(MarketEvent::AgentJoined {
            id: 1,
            source: ObservationSource::External,
        });
        market.submit(MarketEvent::ObservationReported {
            id: 1,
            allocation: vec![2.0, 1.0],
            performance: 1.5,
        });
        market.submit(MarketEvent::AgentLeft { id: 1 });
        market.pump().unwrap();
        assert_eq!(market.metrics().external_observations, 1);
        assert_eq!(market.num_live_agents(), 0);
    }

    #[test]
    fn apply_now_matches_submit_all_pump_to_completion() {
        let events = || {
            vec![
                MarketEvent::AgentJoined {
                    id: 1,
                    source: truth(0.6, 0.4),
                },
                MarketEvent::AgentJoined {
                    id: 1, // duplicate: rejected on both paths
                    source: truth(0.5, 0.5),
                },
                MarketEvent::AgentJoined {
                    id: 2,
                    source: truth(0.2, 0.8),
                },
                MarketEvent::EpochTick,
                MarketEvent::AgentLeft { id: 7 }, // unknown: rejected
                MarketEvent::EpochTick,
            ]
        };
        let config = || MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap());

        let mut direct = MarketEngine::new(config()).unwrap();
        for event in events() {
            let _ = direct.apply_now(event);
        }

        let mut queued = MarketEngine::new(config()).unwrap();
        queued.submit_all(events());
        // A clean pump drains everything; keep retrying past errors.
        while queued.pump().is_err() {}

        assert_eq!(direct.metrics(), queued.metrics());
        assert_eq!(direct.epoch(), queued.epoch());
        assert_eq!(
            direct.snapshot().encode(),
            queued.snapshot().encode(),
            "apply_now and pump-to-completion diverged"
        );
    }

    #[test]
    fn mechanism_labels_round_trip_and_accept_bare_credit() {
        for kind in [
            MechanismKind::ProportionalElasticity,
            MechanismKind::MaxWelfare { fairness: false },
            MechanismKind::MaxWelfare { fairness: true },
            MechanismKind::EqualSlowdown { fairness: false },
            MechanismKind::EqualSlowdown { fairness: true },
            MechanismKind::Credit {
                inner: CreditInner::MaxWelfare,
            },
            MechanismKind::Credit {
                inner: CreditInner::EqualSlowdown,
            },
        ] {
            assert_eq!(MechanismKind::from_label(kind.label()), Some(kind));
        }
        assert_eq!(
            MechanismKind::from_label("credit"),
            Some(MechanismKind::Credit {
                inner: CreditInner::MaxWelfare
            })
        );
        // The GP kinds warm-start; the closed forms have nothing to warm.
        for (label, warm) in [
            ("proportional-elasticity", false),
            ("max-welfare", false),
            ("credit-max-welfare", false),
            ("max-welfare-fair", true),
            ("equal-slowdown", true),
            ("equal-slowdown-fair", true),
            ("credit-equal-slowdown", true),
        ] {
            let kind = MechanismKind::from_label(label).unwrap();
            assert_eq!(kind.warm_startable(), warm, "{label}");
        }
    }

    #[test]
    fn config_validation_rejects_bad_temporal_tuning() {
        let cap = Capacity::new(vec![10.0]).unwrap();
        assert!(MarketEngine::new(MarketConfig::new(cap.clone()).with_temporal_window(0)).is_err());
        assert!(
            MarketEngine::new(MarketConfig::new(cap.clone()).with_temporal_slack(1.0)).is_err()
        );
        assert!(MarketEngine::new(MarketConfig::new(cap).with_temporal_slack(-0.1)).is_err());
    }

    #[test]
    fn every_market_accrues_ledger_history() {
        // The ledger runs for every mechanism, so switching a recovered
        // market to credit fairness starts from real history.
        let mut market = two_agent_market();
        market.submit_all(std::iter::repeat_n(MarketEvent::EpochTick, 10));
        market.pump().unwrap();
        let ledger = market.ledger();
        assert_eq!(ledger.len(), 2);
        assert!(!ledger.entry(1).unwrap().window.is_empty());
        // Mean-centered accrual keeps the ledger conserved.
        assert!(ledger.total().abs() < 1e-9, "{}", ledger.total());
        // A leave settles the departing entry into the survivor.
        market.submit(MarketEvent::AgentLeft { id: 2 });
        market.pump().unwrap();
        assert_eq!(market.ledger().len(), 1);
    }

    /// Two ground-truth agents from the paper's example under `inner`,
    /// ticked 30 epochs.
    fn two_agent_credit_market(inner: CreditInner) -> (MarketEngine, Vec<EpochReport>) {
        let config = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap())
            .with_mechanism(MechanismKind::Credit { inner });
        let mut market = MarketEngine::new(config).unwrap();
        market.submit(MarketEvent::AgentJoined {
            id: 1,
            source: truth(0.6, 0.4),
        });
        market.submit(MarketEvent::AgentJoined {
            id: 2,
            source: truth(0.2, 0.8),
        });
        market.submit_all(std::iter::repeat_n(MarketEvent::EpochTick, 30));
        let reports = market.pump().unwrap();
        (market, reports)
    }

    #[test]
    fn credit_market_converges_and_stays_temporally_fair() {
        let (market, reports) = two_agent_credit_market(CreditInner::MaxWelfare);
        // Converged balances are small, so the tilt fades and the market
        // lands near the untilted REF point (18, 4) / (6, 8).
        let alloc = reports.last().unwrap().allocation.as_ref().unwrap();
        assert!((alloc.bundle(0).get(0) - 18.0).abs() < 1.5, "{alloc:?}");
        assert!((alloc.bundle(1).get(1) - 8.0).abs() < 1.5, "{alloc:?}");
        // The weighted-Nash closed form has nothing to warm-start.
        let m = market.metrics();
        assert_eq!(
            m.warm_start_hits + m.warm_start_misses + m.warm_start_fallbacks,
            0,
            "{m:?}"
        );
        // No post-warm-up temporal violations on a steady population.
        assert_eq!(m.temporal_si_violations, 0, "{m}");
        assert_eq!(market.auditor().temporal_si_after_warmup, 0);
        assert!(reports.last().unwrap().worst_temporal_ratio > 0.9);
    }

    #[test]
    fn credit_max_min_market_warm_starts_across_epochs() {
        let (market, _) = two_agent_credit_market(CreditInner::EqualSlowdown);
        // The tilted max-min GP warm-starts across epochs like any other
        // GP, and ledger-sized weight drift never costs it a hint.
        let m = market.metrics();
        assert!(m.warm_start_hits > 0, "{m}");
        assert_eq!(m.warm_start_fallbacks, 0, "{m:?}");
        assert_eq!(m.temporal_si_violations, 0, "{m}");
        assert!(!market.warm_cache().is_empty());
    }

    #[test]
    fn credit_max_welfare_market_runs_no_solve_and_never_warms() {
        // Shaped like the benchmark's credit epoch: 44 ground-truth agents
        // on 16 elasticity levels beside 4 externally measured reporters,
        // on (96, 48); the reporters observe every epoch and one agent
        // changes its demand every fourth.
        let kind = MechanismKind::Credit {
            inner: CreditInner::MaxWelfare,
        };
        let config =
            MarketConfig::new(Capacity::new(vec![96.0, 48.0]).unwrap()).with_mechanism(kind);
        let mut market = MarketEngine::new(config).unwrap();
        let level = |k: u64| {
            let a = 0.1 + 0.8 * ((k % 16) as f64 + 0.5) / 16.0;
            CobbDouglas::new(1.0, vec![a, 1.0 - a]).unwrap()
        };
        for id in 0..48 {
            let source = match id {
                0..44 => ObservationSource::GroundTruth(level(id)),
                _ => ObservationSource::External,
            };
            market
                .apply_now(MarketEvent::AgentJoined { id, source })
                .unwrap();
        }
        // A hint of the right shape: a GP mechanism would use it.
        let offered = GpWarmStart {
            x: vec![1.0; 96],
            t: 1.0,
            ..GpWarmStart::default()
        };
        let mut reallocated = 0;
        for epoch in 0..24u64 {
            for id in 44..48u64 {
                let x = 2.0 * (1.0 + 0.3 * ((epoch + id) % 5) as f64);
                let y = 1.0 + 0.4 * ((3 * epoch + id) % 7) as f64;
                let performance = level(id).value_slice(&[x, y]);
                market
                    .apply_now(MarketEvent::ObservationReported {
                        id,
                        allocation: vec![x, y],
                        performance,
                    })
                    .unwrap();
            }
            if epoch % 4 == 3 {
                market
                    .apply_now(MarketEvent::DemandChanged {
                        id: (7 * epoch) % 44,
                        new_truth: Some(level(epoch + 5)),
                    })
                    .unwrap();
            }
            // What the tick allocates from: the reported fits and the
            // ledger's weights as they stand before it.
            let ids = market.live_agents();
            let reported: Vec<CobbDouglas> = ids
                .iter()
                .map(|id| market.agent(*id).unwrap().reported_utility())
                .collect();
            let weights = market.ledger().weights(&ids);
            let capacity = market.config().capacity.clone();
            let (direct, hint) = kind
                .allocate_warm(&reported, &capacity, Some(&offered), &weights)
                .unwrap();
            assert!(
                hint.is_none(),
                "epoch {epoch}: a closed form returned a hint"
            );
            let report = market.apply_now(MarketEvent::EpochTick).unwrap().unwrap();
            if report.realloc == ReallocationOutcome::Reallocated {
                reallocated += 1;
                let served = report.allocation.as_ref().unwrap();
                for (a, b) in served.bundles().iter().zip(direct.bundles()) {
                    assert_eq!(a.as_slice(), b.as_slice(), "epoch {epoch}");
                }
            }
            assert!(market.warm_cache().is_empty(), "epoch {epoch}");
        }
        assert!(reallocated >= 6, "{reallocated} reallocations");
        let m = market.metrics();
        assert_eq!(m.reallocations, reallocated);
        assert_eq!(
            m.warm_start_hits + m.warm_start_misses + m.warm_start_fallbacks,
            0,
            "{m:?}"
        );
    }

    #[test]
    fn lifting_quarantine_rebaselines_the_ledger_entry() {
        // Regression: stale accrual from quarantined epochs must not buy
        // future weight once DemandChanged lifts the quarantine.
        let config = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap());
        let mut market = MarketEngine::new(config).unwrap();
        market.submit(MarketEvent::AgentJoined {
            id: 1,
            source: ObservationSource::External,
        });
        market.submit(MarketEvent::AgentJoined {
            id: 2,
            source: truth(0.2, 0.8),
        });
        market.pump().unwrap();
        // Drive agent 1 into quarantine with degenerate fits.
        let huge = |x: f64, y: f64| (800.0 + 20.0 * x.ln() + 20.0 * y.ln()).exp();
        for (x, y) in [
            (0.01, 0.01),
            (0.02, 0.01),
            (0.01, 0.03),
            (0.05, 0.02),
            (0.03, 0.04),
            (0.02, 0.05),
        ] {
            market.submit(MarketEvent::ObservationReported {
                id: 1,
                allocation: vec![x, y],
                performance: huge(x, y),
            });
        }
        market.pump().unwrap();
        assert!(market.agent(1).unwrap().quarantined());
        // Quarantined epochs still accrue (the agent is still served).
        market.submit_all(std::iter::repeat_n(MarketEvent::EpochTick, 6));
        market.pump().unwrap();
        assert!(!market.ledger().entry(1).unwrap().window.is_empty());
        let total_before = market.ledger().total();
        // Lifting the quarantine re-baselines the entry: zero balance,
        // empty window, ledger sum conserved.
        market.submit(MarketEvent::DemandChanged {
            id: 1,
            new_truth: None,
        });
        market.pump().unwrap();
        assert!(!market.agent(1).unwrap().quarantined());
        let entry = market.ledger().entry(1).unwrap();
        assert_eq!(entry.balance, 0.0);
        assert!(entry.window.is_empty());
        assert!((market.ledger().total() - total_before).abs() < 1e-12);
    }

    #[test]
    fn identical_seeds_reproduce_identical_markets() {
        let run = || {
            let mut market = two_agent_market();
            market.submit_all(std::iter::repeat_n(MarketEvent::EpochTick, 20));
            let reports = market.pump().unwrap();
            reports.last().unwrap().allocation.as_ref().unwrap().clone()
        };
        let (a, b) = (run(), run());
        for (x, y) in a.bundles().iter().zip(b.bundles()) {
            for r in 0..x.num_resources() {
                assert_eq!(x.get(r).to_bits(), y.get(r).to_bits());
            }
        }
    }

    #[test]
    fn state_fingerprint_work_does_not_grow_with_history() {
        // The same 128 agents with 10 and with 10,000 observations each,
        // one epoch run on both so the cache and the ledger are
        // populated. Work is counted in words fed to the hasher, the
        // only thing the fingerprint does, so the assertion is exact.
        let market_with = |observations: u32| {
            let config = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap());
            let mut market = MarketEngine::new(config).unwrap();
            for id in 0..128 {
                market
                    .apply_now(MarketEvent::AgentJoined {
                        id,
                        source: ObservationSource::External,
                    })
                    .unwrap();
                for i in 0..observations {
                    let x = 1.0 + f64::from(i % 7) * 0.9;
                    let y = 0.5 + f64::from(i % 5) * 1.1;
                    market
                        .apply_now(MarketEvent::ObservationReported {
                            id,
                            allocation: vec![x, y],
                            performance: x.powf(0.6) * y.powf(0.4) + f64::from(i) * 1e-7,
                        })
                        .unwrap();
                }
            }
            market.apply_now(MarketEvent::EpochTick).unwrap();
            market
        };
        let (short, long) = (market_with(10), market_with(10_000));
        assert_eq!(
            long.agent(127).unwrap().estimator.num_observations(),
            10_000
        );
        assert_eq!(
            short.view().walk(StateHasher::new()).words(),
            long.view().walk(StateHasher::new()).words(),
            "fingerprint work depends on how many observations the logs hold"
        );
        assert!(short.view().walk(StateHasher::new()).words() < 128 * 64);
        // Cheap, and still a digest of all of it.
        assert_ne!(short.state_fingerprint(), long.state_fingerprint());
        assert_eq!(long.state_fingerprint(), long.snapshot().fingerprint());
    }
}
