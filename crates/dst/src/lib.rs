//! ref-dst: deterministic simulation testing for the ref-serve fleet.
//!
//! A FoundationDB-style, single-threaded, virtual-time fault simulator
//! that hosts the *whole* fleet in-process: two shards, each a primary
//! and a standby that are the server's own [`Node`]s — a
//! [`ServiceCore`] with a real WAL behind an in-memory `SimDisk`, and
//! replication, election and fencing decided by the server's own
//! [`ReplCore`], catch-up, `snap` bootstrap and apply by its own
//! replication `Session`, composed as the server composes them — over a
//! `SimNet` that delays,
//! drops, duplicates, partitions, and heals, a router whose health
//! tracking, quorum gate and allotments are the server's own
//! [`RouterCore`], and scripted clients — all driven by one seeded
//! schedule on a `SimClock` that only moves when the event loop says
//! so. The node rules ride on the same two machines: the router's clock
//! fans the ticks and sweeps for probes and restarts, a panic notice
//! decides restart or failover, and each node's heartbeats, re-dials and
//! elections are its [`ReplCore`]'s timer verdicts, and a fleet tick is
//! the server's own `fleet_round`. The simulator drives the server's
//! composition of those machines; it carries no model or copy of it.
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
//! [`Node`]: ref_serve::Node
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
