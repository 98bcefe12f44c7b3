//! ref-serve: a batching, backpressured network front-end for the REF
//! market.
//!
//! The [`ref_market`] engine is an in-process, single-threaded state
//! machine. This crate puts it on the wire without giving up its
//! determinism contract:
//!
//! * **Transport** (`server`): a std-only TCP server speaking
//!   newline-delimited JSON ([`protocol`]). An acceptor thread spawns one
//!   thread per connection, and each agent-scoped request runs to
//!   completion on the thread that read it: parse, admit, take the shard
//!   lock, serve, encode, write.
//! * **Backpressure** (`server`'s acceptor): a connection carries one
//!   request at a time, so the connection cap (`max_connections`) is the
//!   one bound on requests in flight. A connection past it gets an
//!   immediate `overloaded` rejection with a `retry_after_ms` hint —
//!   waiting is never unbounded and rejection is never silent. Each
//!   shard's `bus` counts its requests in flight for the `queue_depth`
//!   metrics and the shutdown drain.
//! * **One total order** (`server`'s shard lock): whoever holds a
//!   shard's lock may touch its core, and nobody else. The order in which
//!   the lock is taken is the order events are journaled, logged and
//!   applied — the engine stays deterministic. The shard's own thread
//!   takes the same lock for what is pushed to it (fanned fleet ops,
//!   reallotments, `shutdown`).
//! * **Replayability** (`core`): every event applied to the engine is
//!   journaled; [`core::replay`] reconstructs the final engine state
//!   byte-for-byte from the journal, making the server a *pure
//!   transport*: accepted events in, the same allocations an offline
//!   replay of them produces out.
//! * **Observability** (`metrics`): lock-free server counters and a
//!   log2 epoch-latency histogram, served next to the market's own
//!   [`ref_market::MarketMetrics`] in stable JSON or scrape-style text.
//! * **Durability** ([`wal`]): an optional segmented, checksummed
//!   write-ahead log. Every admitted event is appended before it is
//!   applied; periodic snapshot checkpoints truncate old segments; and
//!   [`Server::recover`] resumes after a crash — tolerating a torn final
//!   record — with state bit-identical to an offline replay.
//! * **Supervision** (`server`): connection threads, and everything
//!   done under a shard lock, run under `catch_unwind`. A connection that
//!   panics outside the lock dies alone; a panic under the lock costs
//!   that one request and takes the shard Down (the lock is never
//!   poisoned) until the supervisor restarts it from its WAL. A
//!   deterministic [`fault::FaultPlan`] injects crashes, stalls and
//!   failed appends for testing; disk faults are injected below the WAL,
//!   through [`storage::Storage`].
//! * **Replication** ([`repl`]): an optional hot standby fed by WAL
//!   shipping over the same checksummed record framing. Automatic (or
//!   `promote`-driven) failover with monotone terms and fencing, and
//!   per-epoch state fingerprints that detect a divergent replica and
//!   fence it rather than ever promote it. [`Client`] fails over across
//!   a seed list by following `not_primary` redirects and `ping`.
//!   Every rule of it — who is refused, who fences, when a standby may
//!   elect itself, when a recovered primary may take writes again — is
//!   one sans-IO state machine, [`repl_core::ReplCore`], and every rule
//!   of the primary's side of one connection (catch-up, `snap`
//!   bootstrap, hold and go-live) is [`session`]'s. How one replica
//!   composes them with its service core — the standby's verdict on a
//!   frame and the epoch fingerprint included — is [`node::Node`]; [`repl`] and
//!   `server` are its threaded driver and the deterministic simulator its
//!   other one.
//! * **Sharding** ([`shard`] + `server`'s router): partitions agents
//!   across N independent market shards via a seeded consistent-hash
//!   ring, one code path for every N (one shard is a one-node fleet).
//!   Each shard keeps its own lock, thread, in-flight count, WAL
//!   directory and journal (crash safety and replay compose per shard
//!   unchanged); fleet ops fan out to every shard and reply with the
//!   merged scalars plus each shard's own reply. A fleet tick allots
//!   every shard REF's closed-form share of the capacity from its
//!   agents' rescaled-elasticity sums `D_k` — which each shard publishes
//!   whenever a step under its lock applied an event, so the tick reads
//!   them without asking the shard threads — and each agent gets the
//!   one-market share; the merged SI/EF/PE verdict holds only if the
//!   shards allocated at one price vector. Only REF is sharded.
//! * **Shard fault tolerance** (`server`'s router + clock): the
//!   router tracks per-shard health (`Healthy → Suspect → Down`) from
//!   tick timeouts, failure replies and panic notices, fails agent ops to
//!   a Down shard fast with `shard_unavailable` + `retry_after_ms`, gates
//!   cross-shard reallotment on a quorum of shards with a demand (partial
//!   epochs are stamped `partial: true` and never audited as fleet-wide
//!   fairness), and restarts a panicked shard in place from its own WAL,
//!   resynchronizing it to the fleet epoch (a replicated node is not
//!   restarted: it stops leading, and its standby's election replaces
//!   it).
//!   Every one of those rules — health, quorum, allotments, the fan,
//!   timed ticks, the supervisor's restart-or-failover and probes,
//!   catch-up, the fencing-token floor — is a verdict of the sans-IO
//!   [`router::RouterCore`];
//!   `server` and the deterministic simulator only carry them out.
//!
//! # Quickstart
//!
//! ```
//! use ref_core::resource::Capacity;
//! use ref_market::MarketConfig;
//! use ref_serve::{Client, ServeConfig, Server};
//!
//! let market = MarketConfig::new(Capacity::new(vec![16.0, 8.0]).unwrap());
//! // `epoch_interval: None` runs epochs only on explicit `tick` requests
//! // (deterministic mode); pass `Some(interval)` for timed epochs.
//! let config = ServeConfig::new(market).with_epoch_interval(None);
//! let server = Server::start("127.0.0.1:0", config).unwrap();
//!
//! let mut client = Client::connect(server.addr()).unwrap();
//! client.join_truth(1, 1.0, &[0.7, 0.3]).unwrap();
//! client.tick().unwrap();
//! let reply = client.query_agent(1).unwrap();
//! assert!(reply.get("bundle").is_some());
//!
//! let report = server.shutdown();
//! assert!(report.snapshot.starts_with("refmarket-snapshot"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus;
mod client;
mod clock;
mod core;
mod fault;
pub mod json;
mod metrics;
pub mod node;
pub mod protocol;
pub mod repl;
pub mod repl_core;
pub mod router;
mod server;
pub mod session;
pub mod shard;
pub mod storage;
pub mod wal;

pub use client::{CallOpts, Client, ClientError};
pub use clock::Clock;
pub use core::{replay, JournalLimit, ReplApply, ServiceCore};
pub use fault::FaultPlan;
pub use json::Value;
pub use metrics::ServeMetrics;
pub use node::Node;
pub use protocol::{parse_request, Envelope, Request};
pub use repl::{decode_frame, encode_frame, FrameDecode, ReplConfig, Role};
pub use repl_core::ReplCore;
pub use router::{RouterCore, TickOutcome};
pub use server::{ServeConfig, Server, ShardShutdown, ShutdownReport};
pub use shard::{default_quorum, shard_market_config, Coordinator, HashRing, ShardHealth};
pub use storage::{FsStorage, Storage, StorageFile};
pub use wal::{Recovery, ScrubReport, Wal, WalConfig};
