//! # ref-sched
//!
//! Proportional-share enforcement substrates for the REF (Resource
//! Elasticity Fairness) reproduction. The REF mechanism computes continuous
//! fair shares; the paper (§4.4) notes they are enforced with known
//! schedulers. This crate implements the two it cites plus the classic
//! deterministic variant:
//!
//! - [`WeightedFairQueue`] — weighted fair queueing (Demers, Keshav & Shenker).
//! - [`LotteryScheduler`] — lottery scheduling (Waldspurger & Weihl).
//! - [`stride`] — stride scheduling, lottery's deterministic counterpart
//!   with bounded allocation error.
//! - [`DeficitRoundRobin`] — deficit round robin, the O(1) fair-queueing variant.
//! - [`enforce`] — glue that turns a [`ref_core::resource::Allocation`]
//!   into scheduler weights and measures achieved shares.
//!
//! # Examples
//!
//! ```
//! use ref_sched::stride::StrideScheduler;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut s = StrideScheduler::new(vec![0.75, 0.25])?;
//! for _ in 0..1000 {
//!     s.next_quantum();
//! }
//! let shares = s.service_shares();
//! assert!((shares[0] - 0.75).abs() < 0.01);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod drr;
pub mod enforce;
mod lottery;
pub mod stride;
mod wfq;

pub use drr::DeficitRoundRobin;
pub use enforce::{enforcement_comparison, weights_for_resource, EnforcementOutcome};
pub use lottery::LotteryScheduler;
pub use stride::StrideScheduler;
pub use wfq::WeightedFairQueue;
