//! # ref-workloads
//!
//! The synthetic benchmark suite of the REF (Resource Elasticity Fairness)
//! reproduction — the stand-in for the PARSEC 3.0, SPLASH-2x and Phoenix
//! MapReduce applications the paper profiles.
//!
//! - [`SyntheticWorkload`] — parameterized synthetic memory-reference streams
//!   (hot / resident / streaming populations).
//! - [`profiles`] — the 28 named benchmarks with parameters tuned to
//!   reproduce the paper's Figure-9 elasticity spectrum and C/M classes.
//! - [`suite`] — Table 2's multiprogrammed mixes WD1–WD10.
//! - [`profiler`] — the 25-configuration (5 cache sizes x 5 bandwidths)
//!   profiling sweep of §5.1.
//! - [`bubble`] — Bubble-Up-style tunable-pressure co-runner profiling
//!   (§4.4's first offline alternative).
//! - `memo` — a process-wide simulation memo that deduplicates
//!   identical grid-point simulations across figures and mixes.
//!
//! # Examples
//!
//! Profile `dedup` on the Table-1 grid:
//!
//! ```
//! use ref_workloads::profiler::{profile, ProfilerOptions};
//! use ref_workloads::profiles::by_name;
//!
//! let mut opts = ProfilerOptions::default();
//! opts.instructions = 5_000; // keep the doctest fast
//! let grid = profile(by_name("dedup").unwrap(), &opts);
//! assert_eq!(grid.points.len(), 25);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bubble;
mod generator;
mod memo;
pub mod profiler;
pub mod profiles;
pub mod suite;

pub use bubble::{bubble_profile, Bubble, BubbleCurve, BubblePoint};
pub use generator::{SyntheticWorkload, WorkloadParams};
pub use profiler::{profile, ProfileGrid, ProfilePoint, ProfilerOptions};
pub use profiles::{by_name, Benchmark, PreferenceClass, BENCHMARKS};
pub use suite::{all_mixes, eight_core_mixes, four_core_mixes, WorkloadMix};
