//! # ref-bench
//!
//! The experiment harness of the REF reproduction: shared
//! profile-and-fit pipeline plus one binary per table and figure of the
//! paper's evaluation (run them with `cargo run --release -p ref-bench
//! --bin <name>`; see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded results).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gp_drift;
pub mod pipeline;

pub use pipeline::{
    capacity_for_agents, fit_benchmark, fit_benchmarks, fit_mix, init_jobs, FittedWorkload,
};
