//! Facade crate for the REF (Resource Elasticity Fairness) reproduction.
//!
//! Re-exports every workspace crate under one roof. The offline
//! profile → fit step lives in `ref-bench`'s `pipeline` (`fit_benchmark`);
//! its fitted utilities feed any [`ref_core`] mechanism and the
//! `FairnessReport` audit directly.
//!
//! See [`ref_core`] for the paper's contribution (mechanisms and property
//! checkers), [`ref_market`] for the long-running epoch-driven allocation
//! service, [`ref_serve`] for its batching, backpressured network
//! front-end, and the substrate crates [`ref_sim`], [`ref_workloads`],
//! [`ref_solver`], [`ref_sched`].

#![forbid(unsafe_code)]

pub use ref_core as core;
pub use ref_market as market;
pub use ref_sched as sched;
pub use ref_serve as serve;
pub use ref_sim as sim;
pub use ref_solver as solver;
pub use ref_workloads as workloads;
