//! # ref-core
//!
//! The core library of the REF (Resource Elasticity Fairness) reproduction:
//! Cobb-Douglas utilities, the proportional-elasticity allocation mechanism,
//! the comparison mechanisms, and the game-theoretic property framework of
//! Zahedi & Lee, *REF: Resource Elasticity Fairness with Sharing Incentives
//! for Multiprocessors* (ASPLOS 2014).
//!
//! ## Overview
//!
//! - [`utility`] — Cobb-Douglas (Eq. 1) and Leontief (Eq. 8) preferences.
//! - [`fitting`] — log-linear least-squares fitting of utilities to
//!   performance profiles (Eq. 16).
//! - [`mechanism`] — [`ProportionalElasticity`](mechanism::ProportionalElasticity)
//!   (the paper's closed-form contribution, Eqs. 12–13) plus
//!   [`EqualShare`](mechanism::EqualShare),
//!   [`MaxWelfare`](mechanism::MaxWelfare) and
//!   [`EqualSlowdown`](mechanism::EqualSlowdown) for the evaluation's
//!   comparisons.
//! - [`properties`] — checkers for sharing incentives, envy-freeness and
//!   Pareto efficiency (Eq. 11).
//! - [`edgeworth`] — the two-agent geometry of Figs. 1–7.
//! - [`welfare`] — weighted system throughput (Eq. 17) and related metrics.
//! - [`spl`] — strategy-proofness-in-the-large best-response analysis
//!   (Eq. 15, Appendix A).
//! - [`online`] — run-time utility adaptation from the naive uniform prior
//!   (§4.4's on-line profiling).
//! - [`ceei`] — the competitive-equilibrium-from-equal-incomes market whose
//!   outcome §4.2 proves equal to REF, with a tatonnement price dynamic.
//!
//! ## Quickstart
//!
//! The paper's running example end to end:
//!
//! ```
//! use ref_core::mechanism::{Mechanism, ProportionalElasticity};
//! use ref_core::properties::FairnessReport;
//! use ref_core::resource::Capacity;
//! use ref_core::utility::CobbDouglas;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let agents = vec![
//!     CobbDouglas::new(1.0, vec![0.6, 0.4])?, // bursty, little reuse
//!     CobbDouglas::new(1.0, vec![0.2, 0.8])?, // cache friendly
//! ];
//! let capacity = Capacity::new(vec![24.0, 12.0])?; // GB/s, MB
//! let alloc = ProportionalElasticity.allocate(&agents, &capacity)?;
//! let report = FairnessReport::check(&agents, &alloc, &capacity);
//! assert!(report.is_fair_with_si());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Agent/resource loops index parallel arrays; iterator rewrites obscure the
// i/r index correspondence with the paper's equations.
#![allow(clippy::needless_range_loop)]

pub mod ceei;
pub mod edgeworth;
pub mod error;
pub mod fitting;
pub mod mechanism;
pub mod online;
pub mod properties;
pub mod resource;
pub mod spl;
pub mod utility;
pub mod welfare;

pub use error::{CoreError, Result};
pub use mechanism::Mechanism;
pub use resource::{Allocation, Bundle, Capacity};
pub use utility::{CobbDouglas, Leontief, Utility};
