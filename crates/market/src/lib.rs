//! # ref-market
//!
//! An online, epoch-driven allocation service that turns the batch REF
//! pipeline (profile → fit → allocate → enforce) into a long-running
//! market.
//!
//! The paper's §4.4 describes the loop this crate industrializes: naive
//! agents start from the uniform prior `u = x^0.5 y^0.5`, the system
//! allocates by current estimates, agents observe performance at their
//! (slightly varied) allocations, and the estimates — and with them the
//! allocation — converge to the REF point of the true utilities. Here that
//! loop runs forever, with agents joining and leaving:
//!
//! ```text
//!          ┌────────────────────────────────────────────────────────┐
//!          │                      MarketEngine                      │
//!  events  │  ┌────────┐   ┌─────────┐   ┌──────────┐   ┌───────┐  │
//!  ───────▶│  │ admit/ │──▶│  refit  │──▶│ allocate │──▶│ audit │  │
//!  join /  │  │ evict  │   │ (online │   │ (REF w/  │   │ SI/EF │  │
//!  leave / │  └────────┘   │  estim.)│   │  cache)  │   │ /PE   │  │
//!  demand  │               └─────────┘   └──────────┘   └───────┘  │
//!  / tick  │                    ▲              │                   │
//!          │                    │              ▼                   │
//!          │               ┌─────────┐   ┌──────────┐              │
//!          │               │ observe │◀──│ enforce  │              │
//!          │               │ (sim or │   │ (stride  │              │
//!          │               │  truth) │   │  sched.) │              │
//!          │               └─────────┘   └──────────┘              │
//!          └────────────────────────────────────────────────────────┘
//! ```
//!
//! - `events` — the event API ([`MarketEvent`]):
//!   `AgentJoined`, `AgentLeft`, `DemandChanged`, `ObservationReported`,
//!   `EpochTick`, processed in submission-order batches; each event has a
//!   compact binary record
//!   ([`write_record`](MarketEvent::write_record) /
//!   [`read_record`](MarketEvent::read_record)).
//! - `agent` — per-agent state: an
//!   [`OnlineEstimator`](ref_core::online::OnlineEstimator) plus the
//!   agent's observation source (hidden ground truth, the cycle-level
//!   simulator, or externally reported measurements).
//! - `engine` — the [`MarketEngine`] epoch loop
//!   with incremental reallocation (a population fingerprint keyed on
//!   fitted elasticities skips recomputation when nothing moved beyond a
//!   tolerance).
//! - [`epoch`] — the per-epoch report: allocation, fairness verdicts,
//!   enforcement deviations, refits, observations.
//! - `audit` — SI/EF/PE property auditing with violation counters and a
//!   warm-up grace window.
//! - [`ledger`] — the [`CreditLedger`]: cross-epoch
//!   delivered-vs-entitled accounting that powers the credit mechanism's
//!   weight tilt and the temporal (W-window) sharing-incentive audit.
//! - `snapshot` — versioned, text-serialized full market state; a
//!   restarted service resumes mid-market with bit-identical allocations.
//! - `metrics` — service counters (events, reallocations vs cache hits,
//!   refits, violations).
//!
//! ## Quickstart
//!
//! ```
//! use ref_market::{MarketConfig, MarketEngine, MarketEvent, ObservationSource};
//! use ref_core::resource::Capacity;
//! use ref_core::utility::CobbDouglas;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = MarketConfig::new(Capacity::new(vec![24.0, 12.0])?);
//! let mut market = MarketEngine::new(config)?;
//! market.submit(MarketEvent::AgentJoined {
//!     id: 1,
//!     source: ObservationSource::GroundTruth(CobbDouglas::new(1.0, vec![0.6, 0.4])?),
//! });
//! market.submit(MarketEvent::AgentJoined {
//!     id: 2,
//!     source: ObservationSource::GroundTruth(CobbDouglas::new(1.0, vec![0.2, 0.8])?),
//! });
//! for _ in 0..20 {
//!     market.submit(MarketEvent::EpochTick);
//! }
//! let reports = market.pump()?;
//! let last = reports.last().expect("ticked 20 epochs");
//! // The fitted market converges to the paper's REF point (18, 4)/(6, 8).
//! let alloc = last.allocation.as_ref().expect("two live agents");
//! assert!((alloc.bundle(0).get(0) - 18.0).abs() < 0.6);
//! assert_eq!(market.auditor().si_violations_after_warmup(), 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod agent;
mod audit;
mod digest;
mod engine;
pub mod epoch;
mod error;
mod events;
pub mod ledger;
mod metrics;
mod record;
mod snapshot;
mod warm;

pub use agent::{AgentId, AgentState, ObservationSource};
pub use audit::Auditor;
pub use engine::{MarketConfig, MarketEngine, MechanismKind};
pub use epoch::{EpochReport, ReallocationOutcome};
pub use error::{MarketError, Result};
pub use events::MarketEvent;
pub use ledger::CreditLedger;
pub use metrics::MarketMetrics;
pub use snapshot::MarketSnapshot;
pub use warm::WarmStartCache;
