//! ref-dst: deterministic simulation testing for the ref-serve fleet.
//!
//! A FoundationDB-style, single-threaded, virtual-time fault simulator
//! that hosts the *whole* fleet in-process: two sharded [`ServiceCore`]s
//! with real WALs behind an in-memory `SimDisk`, a primary and standby
//! per shard whose replication, election and fencing decisions are made
//! by the server's own [`ReplCore`], and whose catch-up, `snap`
//! bootstrap and apply verdicts by its own replication `Session`, over a
//! `SimNet` that delays,
//! drops, duplicates, partitions, and heals, a router whose health
//! tracking, quorum gate and allotments are the server's own
//! [`RouterCore`], and scripted clients — all driven by one seeded
//! schedule on a `SimClock` that only moves when the event loop says
//! so. The node rules ride on the same two machines: the router's clock
//! fans the ticks and sweeps for probes and restarts, a panic notice
//! decides restart or failover, and each node's heartbeats, re-dials and
//! elections are its [`ReplCore`]'s timer verdicts. The simulator drives
//! those two state machines; it carries no model of them.
//!
//! [`run_seed`] simulates one seed end to end and judges the standing
//! invariants (zero acked-event loss, bit-identical replay, divergence
//! fencing, capacity conservation in every round, no phantom fairness
//! accounting, and liveness: every shard routable and reporting after
//! the settle).
//! Any violation carries the seed and the full per-event trace, and
//! `cargo run -p ref-bench --bin dst_sweep -- --seed N` replays it
//! bit-identically.
//!
//! [`ServiceCore`]: ref_serve::ServiceCore
//! [`ReplCore`]: ref_serve::ReplCore
//! [`RouterCore`]: ref_serve::RouterCore

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod disk;
mod fleet;
mod net;
mod schedule;
mod sim;

pub use fleet::{run_seed, BreakKind, RunOutcome, SimOptions};
pub use sim::mix64;
