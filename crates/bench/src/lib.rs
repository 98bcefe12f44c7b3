//! # ref-bench
//!
//! The experiment harness of the REF reproduction: the shared
//! profile-and-fit pipeline, one function per table and figure of the
//! paper's evaluation ([`figures`]), each returning tables of one schema
//! ([`table::Table`]), and one binary, `experiments`, that prints any
//! figure's tables by name (`cargo run --release -p ref-bench --bin
//! experiments -- <name>`; see `DESIGN.md` for the experiment index) and
//! with no name regenerates the tables of `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod figures;
pub mod gp_drift;
pub mod pipeline;
pub mod table;

pub use pipeline::{
    capacity_for_agents, fit_benchmark, fit_benchmarks, fit_mix, init_jobs, FittedWorkload,
};
