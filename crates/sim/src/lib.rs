//! # ref-sim
//!
//! A cycle-level chip-multiprocessor timing simulator: the from-scratch
//! stand-in for MARSSx86 + DRAMSim2 in the REF (Resource Elasticity
//! Fairness) reproduction.
//!
//! The simulator models exactly what the REF pipeline measures — IPC as a
//! function of allocated last-level-cache capacity and memory bandwidth:
//!
//! - [`config`] — platform parameters mirroring Table 1 of the paper
//!   (3 GHz 4-wide cores, 32 KB L1, 128 KB–2 MB L2, 0.8–12.8 GB/s DRAM).
//! - [`cache`] — set-associative caches with LRU and way partitioning.
//! - [`dram`] — single-channel closed-page DRAM with banks and per-agent
//!   bandwidth shares (token buckets).
//! - `core` — an out-of-order core timing model with memory-level
//!   parallelism bounded by MSHRs.
//! - [`system`] — single-core profiling runs and multi-core partitioned
//!   runs that enforce a REF allocation.
//!
//! # Examples
//!
//! Profile a streaming workload on the Table-1 platform:
//!
//! ```
//! use ref_sim::config::PlatformConfig;
//! use ref_sim::system::SingleCoreSystem;
//! use ref_sim::trace::Op;
//!
//! let mut sys = SingleCoreSystem::new(&PlatformConfig::asplos14());
//! let trace = (0..u64::MAX).map(|i| Op::Load(i * 64));
//! let report = sys.run(trace, 10_000);
//! assert!(report.ipc() > 0.0 && report.ipc() <= 4.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod config;
mod core;
pub mod dram;
pub mod system;
pub mod trace;

pub use config::PlatformConfig;
pub use core::SimReport;
pub use system::{MulticoreSystem, SingleCoreSystem};
pub use trace::Op;
