//! The TCP transport: acceptor, per-connection threads, and one shard
//! thread per market shard.
//!
//! Thread model (one server):
//!
//! ```text
//!            ┌──────────┐            ┌──────────────────────┐
//!  TCP  ────▶│ acceptor │──spawns──▶ │ connection (xN)      │    ┌────────────┐
//!            └──────────┘            │ read, parse, admit,  │───▶│ shard lock │
//!                                    │ lock, serve, unlock, │    │  (core +   │
//!                                    │ encode, write        │    │  degraded) │
//!                                    └──────────────────────┘    └────────────┘
//!                                       pushes (fan, allotted tick,    ▲
//!                                       catch-up tick, probe,
//!                                       shutdown) ──▶ bus ──▶ shard thread
//!                                                                   (+ heartbeats)
//!      ┌────────────┐  verdicts   clock ──▶ timed tick (fan), restart, probe
//!      │ RouterCore │ ──────────▶ fan   ──▶ ask or skip each shard, allot
//!      │ (one lock) │             panic ──▶ restart later, or stop leading
//!      └────────────┘             recovery / probe ──▶ catch-up ticks
//! ```
//!
//! Every node-level decision above is a verdict of the sans-IO
//! [`RouterCore`] (and the heartbeat/election cadence one of
//! [`crate::repl_core::ReplCore`]'s); this module only carries them out.
//!
//! The rule is *whoever holds the shard lock may touch the core*. An
//! agent-scoped request runs to completion on the connection thread that
//! read it: parse, route to the owning shard on the ring, be counted in
//! flight there (`shutting_down` once its bus is closed), take the
//! shard lock, `serve_request`, unlock, encode, write — no queue, no
//! second thread, no reply channel. The order of application is the
//! order in which the lock was taken, which is the order the journal and
//! the WAL record, so replay stays bit-identical. The shard's own thread
//! calls the same function under the same lock for what is *pushed* to
//! it: fleet ops (which must be abandonable at the tick budget), a fleet
//! tick's allotted tick, catch-up ticks, probes, `shutdown`, and
//! heartbeats. A WAL checkpoint is taken inline by whichever thread
//! applies the event that makes it due: it streams from the engine's
//! borrowed state, so it costs a connection thread no more memory than
//! the shard thread. A
//! panic under the lock is caught before it unwinds the guard: the
//! request gets `internal`, the shard turns degraded, the lock is never
//! poisoned, and the router core hears of it at once: the shard is Down
//! until it is restarted from its WAL or failed over. Graceful
//! shutdown (the `shutdown` op or [`Server::shutdown`]) closes the bus,
//! lets every admitted request finish, flushes a final snapshot, and
//! joins every thread.
//!
//! ## One fleet of N shards
//!
//! A server is a thin routing tier over [`ServeConfig::shards`]
//! independent shards — one by default — each owning its own
//! [`ServiceCore`], shard lock and thread, in-flight count, and WAL
//! directory. There is one code path for every N. Connection threads
//! hash each agent-bearing request to its owning shard through a seeded
//! consistent-hash ring ([`crate::shard::HashRing`]) and serve it there.
//! Fleet ops — `tick`, `query` without an agent, `snapshot`, `journal`,
//! `metrics`, `scrub`, `promote`, `shutdown` — fan out to every shard's
//! thread and reply `{ok, <merged scalars>, shards:[...]}` with each
//! shard's reply tagged with its index, or, when no shard answered `ok`,
//! with the first shard's error ([`crate::router::fleet_reply`]). With
//! more than one shard, each shard publishes its rescaled-elasticity sums
//! `D_k` whenever a step under its lock applied an event or changed its
//! Down state; a fleet tick reads them, the router allots every shard
//! REF's closed-form share of the capacity ([`crate::shard::Coordinator`]),
//! and each shard journals a moved allotment as a `reallot` event and
//! ticks at it in one hold of its lock, so every shard's WAL stays a
//! complete, byte-for-byte replayable history. One clock thread runs the
//! timed epochs and the supervisor's sweep, which restarts a panicked
//! shard in place from its WAL or probes one Down on timeouts.

use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ref_market::{AgentId, MarketConfig, MarketEvent, MechanismKind};

use crate::bus::Bus;
use crate::clock::{Clock, RealClock};
use crate::core::{JournalLimit, ServiceCore};
use crate::fault::FaultPlan;
use crate::json::Value;
use crate::metrics::{market_metrics, ServeMetrics, ServeMetricsSnapshot};
use crate::node::{fleet_round, Fan, Node, Served, RETRY_AFTER_MS};
use crate::protocol::{
    error_response, ok_response, parse_request, shard_unavailable_response, write_value, Envelope,
    Request, MAX_REQUEST_LINE,
};
use crate::repl::{
    fence_notify, register, repl_acceptor_loop, standby_loop, ReplConfig, ReplShared, Role,
};
use crate::repl_core::Promotion;
use crate::router::{
    asks, fleet_reply, tick_reply, AfterPanic, Duty, Readmit, RouterCore, SWEEP_EVERY,
};
use crate::shard::{default_quorum, shard_market_config, HashRing, ShardHealth, RING_SEED};
use crate::storage::FsStorage;
use crate::wal::{self, WalConfig};

/// Consecutive clean ticks a Suspect shard must deliver before the router
/// declares it Healthy again.
const RECOVERY_CLEAN_TICKS: u64 = 3;

/// Reader poll interval: how long a blocked read waits before re-checking
/// the shutdown flag.
const READ_TIMEOUT: Duration = Duration::from_millis(50);

/// How long a connection waits for a shard thread's reply to a request
/// pushed to it (a fanned fleet op, `shutdown`) before giving up with a
/// `timeout` response.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The market the server fronts.
    pub market: MarketConfig,
    /// Timer-driven epoch cadence; `None` runs epochs only on `tick`
    /// requests (deterministic mode for tests and examples).
    pub epoch_interval: Option<Duration>,
    /// Maximum simultaneously open connections; further accepts are
    /// bounced with `overloaded`. A connection carries one request at a
    /// time, so this is also the server's bound on requests in flight.
    pub max_connections: usize,
    /// Journal retention cap (see [`JournalLimit`]).
    pub journal_limit: JournalLimit,
    /// Durability: when set, every admitted event is appended to this
    /// write-ahead log before it is applied, and [`Server::recover`]
    /// can resume the market after a crash.
    pub wal: Option<WalConfig>,
    /// Replication: when set, this node is one half of a primary/standby
    /// pair (see [`ReplConfig`]). Requires a WAL — the replication
    /// stream *is* WAL shipping.
    pub repl: Option<ReplConfig>,
    /// Deterministic fault injection (testing seam; injects nothing by
    /// default).
    pub faults: FaultPlan,
    /// Number of market shards (default 1). The server routes agents
    /// across them and fans fleet ops to all of them the same way at
    /// every count (see the module docs); one shard is a one-node fleet.
    /// More than one shard excludes in-process replication — run one
    /// replicated pair per shard instead — and every mechanism but
    /// `proportional-elasticity`, the one whose fleet allotment is exact.
    pub shards: usize,
    /// Read by nothing in the server: held for refbench, which passes it
    /// to [`crate::Coordinator::new`], until ROADMAP item 6.
    pub drift_bound: f64,
    /// How long the router waits for any one shard's tick reply before
    /// declaring the tick missed. A budget far below the 30 s a pushed
    /// request waits for its reply keeps one slow shard from stalling
    /// the fleet clock.
    pub shard_tick_budget: Duration,
    /// Seed of the server's deterministic randomness (today: the seeded
    /// election-timeout jitter that staggers competing standbys).
    /// Distinct nodes should get distinct seeds.
    pub rng_seed: u64,
}

impl ServeConfig {
    /// A configuration with default serving knobs around `market`.
    pub fn new(market: MarketConfig) -> ServeConfig {
        ServeConfig {
            market,
            epoch_interval: Some(Duration::from_millis(10)),
            max_connections: 256,
            journal_limit: JournalLimit::default(),
            wal: None,
            repl: None,
            faults: FaultPlan::default(),
            shards: 1,
            drift_bound: 0.25,
            shard_tick_budget: Duration::from_secs(5),
            rng_seed: 0x5EED,
        }
    }

    /// Sets the seed of the server's deterministic randomness.
    pub fn with_rng_seed(mut self, seed: u64) -> ServeConfig {
        self.rng_seed = seed;
        self
    }

    /// Sets the epoch cadence (`None` = tick-on-request only).
    pub fn with_epoch_interval(mut self, interval: Option<Duration>) -> ServeConfig {
        self.epoch_interval = interval;
        self
    }

    /// Sets the journal retention cap.
    pub fn with_journal_limit(mut self, limit: JournalLimit) -> ServeConfig {
        self.journal_limit = limit;
        self
    }

    /// Sets the maximum simultaneous connections.
    pub fn with_max_connections(mut self, max: usize) -> ServeConfig {
        self.max_connections = max;
        self
    }

    /// Attaches a write-ahead log for durability.
    pub fn with_wal(mut self, wal: WalConfig) -> ServeConfig {
        self.wal = Some(wal);
        self
    }

    /// Makes this node one half of a replicated pair (requires a WAL).
    pub fn with_repl(mut self, repl: ReplConfig) -> ServeConfig {
        self.repl = Some(repl);
        self
    }

    /// Arms a deterministic fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> ServeConfig {
        self.faults = faults;
        self
    }

    /// Sets the number of market shards (at least 1).
    pub fn with_shards(mut self, shards: usize) -> ServeConfig {
        self.shards = shards;
        self
    }

    /// Sets the per-shard tick budget of the fleet clock.
    pub fn with_shard_tick_budget(mut self, budget: Duration) -> ServeConfig {
        self.shard_tick_budget = budget;
        self
    }
}

/// What a shard's own thread is asked to do.
pub(crate) enum Work {
    /// Serve a request, as a connection thread serves one.
    Serve(Request),
    /// A fleet tick: journal this allotment if it moved, then tick at
    /// it, in one hold of the shard lock. The reply carries the prices
    /// the shard allocated at.
    TickAt(Vec<f64>),
}

/// Work pushed to a shard's own thread, with where to send the response.
pub(crate) struct Item {
    work: Work,
    /// In-queue expiry, from the request's `deadline_ms`.
    deadline: Option<Instant>,
    reply: mpsc::Sender<Value>,
}

/// Everything a stopped server hands back.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Final market snapshot (text wire format), taken after the drain.
    pub snapshot: String,
    /// The accepted-event journal (empty if it overflowed).
    pub journal: Vec<MarketEvent>,
    /// Whether the journal overflowed its retention cap.
    pub journal_overflowed: bool,
    /// Server counters at shutdown.
    pub metrics: ServeMetricsSnapshot,
    /// Market counters at shutdown: the `metrics` reply's `market`
    /// section, encoded.
    pub market_metrics_json: String,
    /// Per-shard reports, one per shard in shard order; the top-level
    /// fields above are shard 0's.
    pub shards: Vec<ShardShutdown>,
}

/// One shard's share of a [`ShutdownReport`].
#[derive(Debug)]
pub struct ShardShutdown {
    /// The shard index.
    pub shard: usize,
    /// The shard's final market snapshot (text wire format).
    pub snapshot: String,
    /// The shard's accepted-event journal (empty if it overflowed).
    pub journal: Vec<MarketEvent>,
    /// Whether this shard's journal overflowed its retention cap.
    pub journal_overflowed: bool,
    /// The shard's server counters at shutdown.
    pub metrics: ServeMetricsSnapshot,
    /// The shard's market counters: its `metrics` reply's `market`
    /// section, encoded (`{}` when the shard could not be recovered).
    pub market_metrics_json: String,
}

/// What the shard lock guards: the shard's [`Node`], replicated through
/// the [`ReplShared`] its replication threads share. Its core is `None`
/// only while a restart that could not recover the shard's WAL waits for
/// the supervisor's next attempt; it is Down after a panic under the
/// lock or a poisoned log — the engine may have missed an event the WAL
/// already holds, so the shard refuses every request until it is
/// restarted from that log.
pub(crate) type ShardNode = Node<Arc<ReplShared>>;

pub(crate) struct Shared {
    /// This shard's index.
    shard: usize,
    /// The router core, which a panic under the lock notifies at once.
    router: Arc<Mutex<RouterCore>>,
    pub(crate) bus: Bus<Item>,
    cell: Mutex<ShardNode>,
    pub(crate) metrics: Arc<ServeMetrics>,
    /// Set, under the shard lock, once the shard thread has retired the
    /// core: nothing may touch it from then on.
    pub(crate) stop: AtomicBool,
    /// Replication state, when configured.
    pub(crate) repl: Option<Arc<ReplShared>>,
    /// The engine epoch, exported whenever the shard lock is released
    /// (for `ping`, which must not wait for the lock).
    pub(crate) epoch: AtomicU64,
    /// The WAL sequence (events applied), ditto.
    pub(crate) wal_seq: AtomicU64,
    /// The node's [`Node::demand`], republished after every step that
    /// applied an event or changed its Down state: what a fleet tick
    /// allots the shard from. `None` on a one-shard server, whose tick
    /// allots nothing.
    demand: Option<Mutex<Result<Vec<f64>, Value>>>,
    /// The [`RouterCore`]'s assessment of this shard ([`ShardHealth`]
    /// as its `u64` repr), published after every transition of the core
    /// so dispatch and fans read it without a lock.
    pub(crate) health: AtomicU64,
}

impl Shared {
    /// Runs `step` on the shard's node under the shard lock — the only
    /// way to the core. A panic in `step` stops here (`None`): it is
    /// counted, the shard is degraded, and since the guard does not
    /// unwind the lock is not poisoned. Before the lock is released the
    /// engine's epoch and WAL sequence are published, and, on a server
    /// of more than one shard, the node's `D_k` when the step applied an
    /// event or changed the node's Down state.
    pub(crate) fn locked<R>(&self, step: impl FnOnce(&mut ShardNode) -> R) -> Option<R> {
        let mut node = self
            .cell
            .lock()
            .expect("a panic under the shard lock is caught before the guard unwinds");
        // What `Node::demand` reads besides the engine: Down, and events.
        let stamp =
            |node: &ShardNode| (node.is_down(), node.core().map(ServiceCore::events_applied));
        let before = self.demand.as_ref().map(|_| stamp(&node));
        let outcome = catch_unwind(AssertUnwindSafe(|| step(&mut node)));
        if outcome.is_err() {
            ServeMetrics::bump(&self.metrics.ticker_panics);
            self.degrade(&mut node);
        }
        if let Some(core) = node.core() {
            self.epoch.store(core.engine().epoch(), Ordering::SeqCst);
            self.wal_seq.store(core.events_applied(), Ordering::SeqCst);
        }
        let moved = before.is_some_and(|before| before != stamp(&node));
        if let (true, Some(slot)) = (moved, &self.demand) {
            *slot.lock().expect("demand slot poisoned") = node.demand();
        }
        outcome.ok()
    }

    /// Takes the shard Down — a panic under its lock, or a poisoned log
    /// — and tells the router core at once; a node it says to stop
    /// leading stops. The caller holds the shard lock.
    pub(crate) fn degrade(&self, node: &mut ShardNode) {
        self.metrics.degraded.store(1, Ordering::SeqCst);
        let after = {
            let mut router = self.router.lock().expect("router lock poisoned");
            let after = router.panicked(self.shard);
            (self.health).store(router.health(self.shard) as u64, Ordering::SeqCst);
            after
        };
        node.go_down(after == AfterPanic::StopLeading);
    }

    /// The router core's published assessment of this shard.
    pub(crate) fn health(&self) -> ShardHealth {
        ShardHealth::from_u64(self.health.load(Ordering::SeqCst))
    }
}

/// Router state shared by the acceptor and every reader: the shards,
/// the placement ring, and the routing state machine (health, quorum
/// gate, allotments, supervision), locked once per phase of a fleet tick.
pub(crate) struct Router {
    pub(crate) shards: Vec<Arc<Shared>>,
    pub(crate) ring: HashRing,
    pub(crate) stop: AtomicBool,
    pub(crate) open_connections: AtomicUsize,
    pub(crate) started: Instant,
    pub(crate) core: Arc<Mutex<RouterCore>>,
    /// Held for the whole of a fleet tick: allotments sum to the capacity
    /// only if no round's ticks interleave with another's.
    rounds: Mutex<()>,
}

impl Router {
    /// Whether the transport should wind down: an explicit stop, or
    /// every shard has retired its core.
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
            || self
                .shards
                .iter()
                .all(|shard| shard.stop.load(Ordering::SeqCst))
    }

    /// Transport-level counters (connection accounting, protocol
    /// errors) live on shard 0's metrics.
    fn metrics(&self) -> &ServeMetrics {
        &self.shards[0].metrics
    }

    /// The node's replication role: `Primary` when unreplicated.
    /// Replication attaches to shard 0, the only shard a replicated node
    /// has.
    fn role(&self) -> Role {
        self.shards[0]
            .repl
            .as_ref()
            .map_or(Role::Primary, |repl| repl.role())
    }

    /// Whether the node leads: always when unreplicated, else as its
    /// replication core says.
    fn leads(&self) -> bool {
        let repl = self.shards[0].repl.as_ref();
        repl.is_none_or(|repl| repl.step(|r| r.repl.leads()))
    }

    /// Runs one transition of the routing core, then publishes every
    /// shard's health to its atomic.
    fn drive<R>(&self, step: impl FnOnce(&mut RouterCore) -> R) -> R {
        let mut core = self.core.lock().expect("router lock poisoned");
        let out = step(&mut core);
        for (shard, shared) in self.shards.iter().enumerate() {
            shared
                .health
                .store(core.health(shard) as u64, Ordering::SeqCst);
        }
        out
    }

    /// Carries out a [`Readmit`]: the catch-up ticks, queued on the
    /// shard's thread ahead of anything pushed later.
    fn rejoin(&self, readmit: Readmit) {
        for _ in 0..readmit.catch_up {
            push_internal(
                &self.shards[readmit.shard],
                Work::Serve(Request::Tick),
                None,
            );
        }
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("shards", &self.shards.len())
            .field("stopped", &self.stop.load(Ordering::Relaxed))
            .finish()
    }
}

/// A running ref-serve instance.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    repl_addr: Option<SocketAddr>,
    router: Arc<Router>,
    config: ServeConfig,
    acceptor: Option<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
    clock: Option<JoinHandle<()>>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    repl_threads: Vec<JoinHandle<()>>,
    repl_handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("stopped", &self.stop.load(Ordering::Relaxed))
            .finish()
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor and shard threads with a *fresh* market.
    ///
    /// # Errors
    ///
    /// Returns the bind error, an invalid [`MarketConfig`] as
    /// [`std::io::ErrorKind::InvalidInput`], or — when a WAL is
    /// configured and its directory already holds state — an
    /// `InvalidInput` error: one directing the caller to
    /// [`Server::recover`] for state in this shard count's layout, one
    /// naming the layout for another count's. A fresh boot can never
    /// silently shadow recoverable history.
    pub fn start(addr: &str, config: ServeConfig) -> std::io::Result<Server> {
        Server::launch(addr, config, true)
    }

    /// Binds `addr` and resumes the market persisted in the configured
    /// WAL directory: newest valid checkpoint restored, WAL tail
    /// replayed (a torn final record is truncated away), state
    /// bit-identical to an offline replay of the full history. An empty
    /// directory starts a fresh market, so recover-on-boot is always
    /// safe.
    ///
    /// # Errors
    ///
    /// Everything [`Server::start`] returns, plus recovery failures:
    /// interior WAL corruption, a checkpoint from a different market
    /// configuration ([`std::io::ErrorKind::InvalidData`] /
    /// [`std::io::ErrorKind::InvalidInput`]), or a directory laid out
    /// for a different shard count (`InvalidInput`).
    pub fn recover(addr: &str, config: ServeConfig) -> std::io::Result<Server> {
        if config.wal.is_none() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "Server::recover needs a WAL (ServeConfig::with_wal)",
            ));
        }
        Server::launch(addr, config, false)
    }

    /// Validates `config`, opens every shard's core and starts the
    /// threads. A `fresh` launch refuses state in this shard count's own
    /// WAL directories; state laid out for another count is refused
    /// either way.
    fn launch(addr: &str, config: ServeConfig, fresh: bool) -> std::io::Result<Server> {
        let invalid = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
        if config.shards == 0 {
            return Err(invalid("a server needs at least one shard"));
        }
        if config.repl.is_some() && config.wal.is_none() {
            return Err(invalid(
                "replication requires a write-ahead log (ServeConfig::with_wal)",
            ));
        }
        if config.repl.is_some() && config.shards > 1 {
            return Err(invalid(
                "in-process replication composes per shard: run one replicated \
                 pair per shard instead of replicating a sharded router",
            ));
        }
        let n = config.shards;
        // A fleet allocates what one market would only where the
        // mechanism is separable: REF's closed form splits over shards
        // exactly. The GP kinds have no exact allotment; `max-welfare`'s
        // unequal budgets make one price vector no proof of fleet-wide
        // envy-freeness; and a credit ledger's entitlements would be
        // per-shard equal splits.
        let mechanism = config.market.mechanism;
        if n > 1 && mechanism != MechanismKind::ProportionalElasticity {
            return Err(invalid(&format!(
                "mechanism {} cannot be sharded: a fleet of {n} shards runs \
                 only proportional-elasticity, whose allotment is exact",
                mechanism.label()
            )));
        }
        let (ours, foreign) = wal_dirs_with_state(&config)?;
        if let Some(dir) = foreign.first() {
            return Err(invalid(&format!(
                "wal directory {dir:?} holds state laid out for a different \
                 shard count than {n}"
            )));
        }
        if let (true, Some(dir)) = (fresh, ours.first()) {
            return Err(invalid(&format!(
                "wal directory {dir:?} already holds state; use Server::recover"
            )));
        }

        // One core per shard. Each shard's market starts from the equal
        // capacity split (the router reallots from there) and owns
        // its own WAL directory, so crash recovery and replay stay
        // strictly per shard.
        let metrics: Vec<Arc<ServeMetrics>> =
            (0..n).map(|_| Arc::new(ServeMetrics::new())).collect();
        let mut cores = Vec::with_capacity(n);
        for (shard, metrics) in metrics.iter().enumerate() {
            cores.push(open_core(&config, shard, config.faults.clone(), metrics)?);
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;

        // Bind the replication listener before any thread starts, so a
        // bad address fails the launch instead of a background thread.
        // Replication is single-shard (validated above): it attaches to
        // shard 0's core.
        let repl_setup = match &config.repl {
            Some(repl_config) => {
                let repl_listener = TcpListener::bind(&repl_config.listen)?;
                let repl_addr = repl_listener.local_addr()?;
                let repl = Arc::new(ReplShared::new(
                    repl_config.clone(),
                    cores[0].wal().expect("checked above"),
                    Arc::new(RealClock),
                    config.rng_seed,
                    Arc::clone(&metrics[0]),
                ));
                let (client, listen) = (addr.to_string(), repl_addr.to_string());
                repl.step(|r| r.repl.set_addrs(client, listen));
                Some((repl, repl_listener, repl_addr))
            }
            None => None,
        };

        let router_core = Arc::new(Mutex::new(
            RouterCore::new(
                config.market.capacity.as_slice().to_vec(),
                n,
                default_quorum(n),
                RECOVERY_CLEAN_TICKS,
            )
            .with_node(
                config.wal.is_some(),
                config.repl.is_some(),
                config.epoch_interval,
            ),
        ));
        let shards: Vec<Arc<Shared>> = cores
            .into_iter()
            .zip(metrics)
            .enumerate()
            .map(|(shard, (core, metrics))| {
                let repl = (shard == 0)
                    .then(|| repl_setup.as_ref().map(|(repl, _, _)| Arc::clone(repl)))
                    .flatten();
                Arc::new(Shared {
                    shard,
                    router: Arc::clone(&router_core),
                    bus: Bus::new(),
                    metrics,
                    stop: AtomicBool::new(false),
                    epoch: AtomicU64::new(core.engine().epoch()),
                    wal_seq: AtomicU64::new(core.events_applied()),
                    health: AtomicU64::new(ShardHealth::Healthy as u64),
                    demand: (n > 1).then(|| Mutex::new(Ok(core.engine().aggregate_demand()))),
                    cell: Mutex::new(Node::new(shard, Some(core), repl.clone())),
                    repl,
                })
            })
            .collect();
        let router = Arc::new(Router {
            ring: HashRing::new(n, RING_SEED),
            stop: AtomicBool::new(false),
            open_connections: AtomicUsize::new(0),
            started: Instant::now(),
            core: router_core,
            rounds: Mutex::new(()),
            shards,
        });
        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let repl_handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let shard_threads: Vec<JoinHandle<()>> = (router.shards.iter().enumerate())
            .map(|(shard, shared)| {
                let (shared, config) = (Arc::clone(shared), config.clone());
                spawn(format!("ref-serve-shard-{shard}"), move || {
                    shard_loop(shard, &shared, &config)
                })
            })
            .collect();
        // The only epoch clock: it fans synchronized ticks to every
        // shard, so epochs advance in lockstep fleet-wide.
        let (router_, config_) = (Arc::clone(&router), config.clone());
        let clock = spawn("ref-serve-clock", move || clock_loop(&router_, &config_));
        let (router_, readers_, config_) =
            (Arc::clone(&router), Arc::clone(&readers), config.clone());
        let acceptor = spawn("ref-serve-acceptor", move || {
            acceptor_loop(listener, &router_, &readers_, &config_)
        });

        let mut repl_addr = None;
        let mut repl_threads = Vec::new();
        if let Some((repl, repl_listener, bound)) = repl_setup {
            repl_addr = Some(bound);
            let (shared, handlers) = (Arc::clone(&router.shards[0]), Arc::clone(&repl_handlers));
            repl_threads.push(spawn("ref-serve-repl-accept", move || {
                repl_acceptor_loop(repl_listener, &shared, &handlers)
            }));
            if repl.config().standby_of.is_some() {
                let shared = Arc::clone(&router.shards[0]);
                repl_threads.push(spawn("ref-serve-standby", move || standby_loop(&shared)));
            }
        }

        Ok(Server {
            addr,
            repl_addr,
            router,
            config,
            acceptor: Some(acceptor),
            shard_threads,
            clock: Some(clock),
            readers,
            repl_threads,
            repl_handlers,
        })
    }

    /// The bound address (connect clients here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound replication listener address, when replication is
    /// configured (point standbys here).
    pub fn repl_addr(&self) -> Option<SocketAddr> {
        self.repl_addr
    }

    /// The node's current replication role (`Primary` for an
    /// unreplicated server).
    pub fn role(&self) -> Role {
        self.router.role()
    }

    /// The node's current replication term (0 when unreplicated).
    pub fn term(&self) -> u64 {
        self.router.shards[0]
            .repl
            .as_ref()
            .map_or(0, |repl| repl.step(|r| r.repl.term()))
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Point-in-time server counters: shard 0's, which also carry the
    /// transport-level counts (connections, protocol errors, reader
    /// panics, shard restarts) for the whole server. Every shard's own
    /// counters come back in [`ShutdownReport::shards`].
    pub fn metrics(&self) -> ServeMetricsSnapshot {
        self.router.metrics().snapshot()
    }

    /// The router's current health assessment of one shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is not below the configured shard count.
    pub fn shard_health(&self, shard: usize) -> ShardHealth {
        self.router.shards[shard].health()
    }

    /// Gracefully stops the server: drains every admitted request, runs
    /// no further epochs, flushes a final snapshot, joins all threads.
    pub fn shutdown(self) -> ShutdownReport {
        // Closing the bus is the drain signal, and a no-op if a wire
        // shutdown already closed the bus.
        for shared in &self.router.shards {
            shared.bus.close();
        }
        self.collect()
    }

    /// Blocks until a wire `shutdown` request drains the server, then
    /// joins the transport threads and returns the report. Unlike
    /// [`Server::shutdown`], this does not stop the server itself.
    pub fn wait(mut self) -> ShutdownReport {
        for handle in std::mem::take(&mut self.shard_threads) {
            let _ = handle.join();
        }
        self.collect()
    }

    fn collect(mut self) -> ShutdownReport {
        self.join_threads();
        let shards: Vec<ShardShutdown> = self
            .router
            .shards
            .iter()
            .enumerate()
            .map(|(shard, shared)| {
                // Every thread is joined: the retired core is ours.
                let core = shared.locked(Node::crash).flatten();
                match core {
                    Some(core) => ShardShutdown {
                        shard,
                        snapshot: core.final_snapshot(),
                        journal: core.journal(),
                        journal_overflowed: core.journal_overflowed(),
                        metrics: shared.metrics.snapshot(),
                        market_metrics_json: market_metrics(core.engine().metrics()).0.encode(),
                    },
                    // A shard whose restart could not recover its WAL:
                    // report what the transport knows rather than panic
                    // the whole shutdown.
                    None => ShardShutdown {
                        shard,
                        snapshot: String::new(),
                        journal: Vec::new(),
                        journal_overflowed: false,
                        metrics: shared.metrics.snapshot(),
                        market_metrics_json: "{}".to_string(),
                    },
                }
            })
            .collect();
        // The top-level fields mirror shard 0, which for a one-shard
        // server (the default) is the whole story.
        let first = &shards[0];
        ShutdownReport {
            snapshot: first.snapshot.clone(),
            journal: first.journal.clone(),
            journal_overflowed: first.journal_overflowed,
            metrics: first.metrics.clone(),
            market_metrics_json: first.market_metrics_json.clone(),
            shards,
        }
    }

    fn join_threads(&mut self) {
        for handle in std::mem::take(&mut self.shard_threads) {
            let _ = handle.join();
        }
        if let Some(handle) = self.clock.take() {
            let _ = handle.join();
        }
        self.router.stop.store(true, Ordering::SeqCst);
        for shared in &self.router.shards {
            shared.stop.store(true, Ordering::SeqCst);
        }
        // The acceptors block in `accept`: a connection of our own is
        // what makes them look at the stop flag.
        wake_acceptor(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.readers.lock().expect("thread registry lock poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
        if let Some(addr) = self.repl_addr {
            wake_acceptor(addr);
        }
        for handle in std::mem::take(&mut self.repl_threads) {
            let _ = handle.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(
            &mut *self
                .repl_handlers
                .lock()
                .expect("thread registry lock poisoned"),
        );
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Spawns a named server thread.
pub(crate) fn spawn(
    name: impl Into<String>,
    run: impl FnOnce() + Send + 'static,
) -> JoinHandle<()> {
    let name = name.into();
    let builder = std::thread::Builder::new().name(name.clone());
    builder
        .spawn(run)
        .unwrap_or_else(|e| panic!("spawn {name}: {e}"))
}

/// Wakes an acceptor blocked in `accept` on the listener bound to `addr`
/// by connecting to it (through loopback when it is bound to every
/// interface). Failing to connect means nobody is listening any more.
fn wake_acceptor(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.shard_threads.is_empty() || self.acceptor.is_some() {
            for shared in &self.router.shards {
                shared.bus.close();
            }
            self.join_threads();
        }
    }
}

/// The WAL configuration of one shard: the configured directory itself
/// for a single-shard server (bit-compatible with every pre-sharding
/// deployment), a `shard-<k>` subdirectory per shard otherwise.
fn shard_wal_config(config: &ServeConfig, shard: usize) -> Option<WalConfig> {
    let wal = config.wal.as_ref()?;
    if config.shards <= 1 {
        return Some(wal.clone());
    }
    let mut wal = wal.clone();
    wal.dir = wal.dir.join(format!("shard-{shard}"));
    Some(wal)
}

/// The directories of the configured WAL tree that hold state — the
/// configured directory itself and every `shard-<k>` subdirectory —
/// split into this shard count's own (those [`shard_wal_config`] gives
/// it) and those laid out for another count. Serving beside a foreign
/// one would start fresh next to recoverable history, or silently drop
/// the shards this count does not have.
fn wal_dirs_with_state(config: &ServeConfig) -> std::io::Result<(Vec<PathBuf>, Vec<PathBuf>)> {
    let Some(wal) = &config.wal else {
        return Ok((Vec::new(), Vec::new()));
    };
    let ours: Vec<PathBuf> = (0..config.shards)
        .filter_map(|shard| shard_wal_config(config, shard))
        .map(|wal| wal.dir)
        .collect();
    let mut dirs = vec![wal.dir.clone()];
    if wal.dir.is_dir() {
        for entry in std::fs::read_dir(&wal.dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|name| name.to_str());
            if name.is_some_and(|name| name.starts_with("shard-")) {
                dirs.push(path);
            }
        }
    }
    let mut held = Vec::new();
    for dir in dirs {
        if wal::dir_has_state_with(&FsStorage, &dir)? {
            held.push(dir);
        }
    }
    Ok(held.into_iter().partition(|dir| ours.contains(dir)))
}

/// Opens shard `shard`'s core — the one way launch and a restart both do
/// it: [`ServiceCore::open`] on the shard's WAL directory when the
/// server is durable, fresh otherwise.
fn open_core(
    config: &ServeConfig,
    shard: usize,
    faults: FaultPlan,
    metrics: &ServeMetrics,
) -> std::io::Result<ServiceCore> {
    let market = shard_market_config(&config.market, config.shards);
    let Some(wal_config) = shard_wal_config(config, shard) else {
        return ServiceCore::new(market, config.journal_limit)
            .map(|core| core.with_faults(faults))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()));
    };
    let limit = config.journal_limit;
    ServiceCore::open(
        Arc::new(FsStorage),
        market,
        limit,
        wal_config,
        faults,
        metrics,
    )
}

fn acceptor_loop(
    listener: TcpListener,
    router: &Arc<Router>,
    readers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    config: &ServeConfig,
) {
    loop {
        // Blocks until a peer connects — or the stopping server does, to
        // have the flag below looked at.
        let Ok((mut stream, _)) = listener.accept() else {
            return;
        };
        if router.stopped() {
            return;
        }
        ServeMetrics::bump(&router.metrics().connections);
        if router.open_connections.load(Ordering::SeqCst) >= config.max_connections {
            ServeMetrics::bump(&router.metrics().rejected_overload);
            bounce(&mut stream);
            continue;
        }
        router.open_connections.fetch_add(1, Ordering::SeqCst);
        let router = Arc::clone(router);
        let config = config.clone();
        let handle = spawn("ref-serve-conn", move || {
            // The slot guard releases the connection count even if the
            // reader panics, and the panic is contained here: a poisoned
            // connection dies alone.
            let _slot = ConnectionSlot(Arc::clone(&router));
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                reader_loop(&stream, &router, &config);
            }));
            if outcome.is_err() {
                ServeMetrics::bump(&router.metrics().reader_panics);
            }
            // The socket closes only here, after the count: a client that
            // sees its connection die finds the panic counted.
            drop(stream);
        });
        register(readers, handle);
    }
}

/// How long the acceptor waits, at most, for a bounced peer to hang up.
const BOUNCE_LINGER: Duration = Duration::from_millis(50);

/// Answers a connection over the cap with `overloaded` and hangs up the
/// way `reader_loop` does after an over-long line: say goodbye, then
/// discard what the peer sent until it hangs up too, or for
/// [`BOUNCE_LINGER`] at most. Closing over unread input would reset the
/// connection, and a client still sending would see the reset instead
/// of the reply.
fn bounce(stream: &mut TcpStream) {
    let reply = error_response(
        "overloaded",
        Some("connection limit reached"),
        Some(RETRY_AFTER_MS),
    );
    let _ = write_value(stream, &mut String::new(), &reply);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let deadline = Instant::now() + BOUNCE_LINGER;
    let mut sink = [0; 4096];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        if matches!(stream.read(&mut sink), Ok(0) | Err(_)) {
            return;
        }
    }
}

/// Releases one open-connection slot when a reader thread exits — by
/// return *or* by panic — so a poisoned connection cannot leak its slot
/// and slowly strangle the accept limit.
struct ConnectionSlot(Arc<Router>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.open_connections.fetch_sub(1, Ordering::SeqCst);
    }
}

fn reader_loop(stream: &TcpStream, router: &Arc<Router>, config: &ServeConfig) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    let mut out = String::new();
    loop {
        // `read_until` appends, so bytes delivered before a read timeout
        // stay in `line` and the next pass resumes the same line; `line`
        // is only cleared once a complete line has been processed. The
        // `take` stops one byte past the cap, which is all the proof an
        // over-long line needs.
        let room = (MAX_REQUEST_LINE + 1 - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            // EOF with nothing pending; after an unterminated final line
            // (still one request) this is the pass that follows it.
            Ok(0) => return,
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if router.stopped() {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        if line.len() > MAX_REQUEST_LINE && line.last() != Some(&b'\n') {
            ServeMetrics::bump(&router.metrics().protocol_errors);
            let response = error_response("protocol", Some("request line too long"), None);
            let _ = write_value(&mut writer, &mut out, &response);
            // Say goodbye first, then discard (a bounded amount of) what
            // the peer already sent: closing over unread input resets the
            // connection, and a reset may overtake the reply.
            let _ = writer.shutdown(std::net::Shutdown::Write);
            let mut rest = (&mut reader).take(16 * MAX_REQUEST_LINE as u64);
            let _ = std::io::copy(&mut rest, &mut std::io::sink());
            return;
        }
        // Not text: nothing to parse and nothing to say.
        let Ok(text) = std::str::from_utf8(&line) else {
            return;
        };
        if !text.trim().is_empty() {
            let response = dispatch(text, router, config);
            if write_value(&mut writer, &mut out, &response).is_err() {
                return;
            }
        }
        line.clear();
    }
}

/// Parses, admits, routes and serves one request line; always produces a
/// response. Agent-scoped requests hash to their owning shard, `tick`
/// runs a fleet tick ([`fan_tick`]), and the other fleet ops aggregate
/// shard-tagged answers.
fn dispatch(line: &str, router: &Arc<Router>, config: &ServeConfig) -> Value {
    if config.faults.is_armed() {
        if let Some(token) = &config.faults.panic_on_line_token {
            if line.contains(token.as_str()) {
                panic!("injected reader panic on line containing {token:?}");
            }
        }
    }
    let envelope = match parse_request(line) {
        Ok(envelope) => envelope,
        Err(detail) => {
            ServeMetrics::bump(&router.metrics().protocol_errors);
            return error_response("protocol", Some(&detail), None);
        }
    };
    if let Request::Ping { agent } = envelope.request {
        // Answered from exported atomics, without the shard lock:
        // liveness probes must work even when an epoch holds the lock —
        // that is exactly when you probe.
        ServeMetrics::bump(&router.metrics().accepted);
        return ping_response(router, agent);
    }
    match &envelope.request {
        Request::Join { agent, .. }
        | Request::Leave { agent }
        | Request::Demand { agent, .. }
        | Request::Observe { agent, .. }
        | Request::Query { agent: Some(agent) } => {
            let shard = router.ring.shard_of(*agent);
            let shared = &router.shards[shard];
            // Fail fast: the owning shard is Down, so tell the client
            // when to come back.
            if !asks(shared.health(), &envelope.request) {
                return shard_unavailable_response(shard as u64, RETRY_AFTER_MS);
            }
            dispatch_to_shard(shared, shard, envelope, config)
        }
        // The router owns capacity splits; an out-of-band reallot would
        // silently fight it.
        Request::Reallot { .. } => {
            ServeMetrics::bump(&router.metrics().protocol_errors);
            error_response("protocol", Some("reallot is coordinator-managed"), None)
        }
        Request::Tick => fan_tick(router, envelope.deadline_ms, config),
        Request::Query { agent: None }
        | Request::Snapshot
        | Request::Journal
        | Request::Metrics { .. }
        | Request::Scrub
        | Request::Promote
        | Request::Shutdown => {
            let wait = reply_wait(envelope.deadline_ms);
            let request = &envelope.request;
            let replies = fan(router, request, envelope.deadline_ms, wait, |_| {
                Ok(Work::Serve(request.clone()))
            });
            merge_fanned(request, replies)
        }
        Request::Ping { .. } => unreachable!("ping answered above"),
    }
}

/// Serves one agent-scoped request to completion on the calling
/// (connection) thread: in-flight count, shard lock, [`serve_request`].
fn dispatch_to_shard(
    shared: &Arc<Shared>,
    shard: usize,
    envelope: Envelope,
    config: &ServeConfig,
) -> Value {
    let deadline = envelope
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let Ok(admitted) = shared.bus.admit() else {
        ServeMetrics::bump(&shared.metrics.rejected_shutdown);
        return error_response("shutting_down", None, None);
    };
    ServeMetrics::bump(&shared.metrics.accepted);
    shared.metrics.observe_depth(admitted.depth as u64);
    shared
        .metrics
        .queue_depth
        .store(admitted.depth as u64, Ordering::Relaxed);
    serve_locked(
        shared,
        shard,
        &Work::Serve(envelope.request),
        deadline,
        config,
    )
}

/// [`serve_request`] under the shard lock. A reply lost to a panic (the
/// shard is degraded by now) or to an injected drop is answered
/// `internal`: that request is the one casualty.
fn serve_locked(
    shared: &Shared,
    shard: usize,
    work: &Work,
    deadline: Option<Instant>,
    config: &ServeConfig,
) -> Value {
    shared
        .locked(|node| serve_request(node, shard, work, deadline, shared, config))
        .flatten()
        .unwrap_or_else(|| {
            error_response(
                "internal",
                Some("request dropped by a failure under the shard lock"),
                None,
            )
        })
}

/// How long to await a shard thread's reply: the reply timeout, on top of
/// whatever the request allowed itself to wait in the queue.
fn reply_wait(deadline_ms: Option<u64>) -> Duration {
    REPLY_TIMEOUT + Duration::from_millis(deadline_ms.unwrap_or(0))
}

/// Awaits a shard thread's reply to a request pushed to it, for at most
/// `wait`.
fn await_reply(rx: &mpsc::Receiver<Value>, wait: Duration) -> Value {
    match rx.recv_timeout(wait) {
        Ok(response) => response,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            error_response("timeout", Some("no reply from the shard thread"), None)
        }
        // The shard thread dropped the reply sender without answering.
        Err(mpsc::RecvTimeoutError::Disconnected) => error_response(
            "internal",
            Some("request dropped by the shard thread"),
            None,
        ),
    }
}

/// Fans `work` to every shard's own thread (there, not on this one: a
/// shard that overruns `wait` is abandoned, not waited out) and collects the replies here, each wave against one
/// deadline, `wait` after the wave was asked. A shard the core says not
/// to ask `request` ([`asks`]) is answered with `shard_unavailable`, one
/// whose `work` is an `Err` is answered with that reply unasked, and a
/// shard that is already shut down answers with a placeholder error
/// instead of stalling the fan-out.
fn fan(
    router: &Arc<Router>,
    request: &Request,
    deadline_ms: Option<u64>,
    wait: Duration,
    work: impl Fn(usize) -> Result<Work, Value>,
) -> Vec<Value> {
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    // Fan in waves no wider than the host's parallelism: asking every
    // shard at once makes more shard threads runnable than the host has
    // cores, and the preempt-interleaved epochs evict each other's caches
    // — on a single-core host that alone costs ~20% of the audit
    // throughput. Waves keep at most that many epochs in flight, the most
    // that can genuinely run in parallel. `available_parallelism` reads
    // the affinity mask and the cgroup quota files (tens of
    // microseconds), so it is read once.
    static WIDTH: OnceLock<usize> = OnceLock::new();
    let width = *WIDTH.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from));
    let shards: Vec<(usize, &Arc<Shared>)> = router.shards.iter().enumerate().collect();
    let mut replies = Vec::with_capacity(shards.len());
    for wave in shards.chunks(width.min(shards.len())) {
        let cutoff = Instant::now() + wait;
        let asked: Vec<Result<mpsc::Receiver<Value>, Value>> = (wave.iter())
            .map(|&(shard, shared)| {
                if !asks(shared.health(), request) {
                    return Err(shard_unavailable_response(shard as u64, RETRY_AFTER_MS));
                }
                push_item(shared, work(shard)?, deadline)
                    .ok_or_else(|| error_response("shutting_down", None, None))
            })
            .collect();
        replies.extend(asked.into_iter().map(|slot| match slot {
            Ok(rx) => await_reply(&rx, cutoff.saturating_duration_since(Instant::now())),
            Err(placeholder) => placeholder,
        }));
    }
    replies
}

/// Merges fanned non-tick replies into one [`fleet_reply`]: per-shard
/// answers ride in a shard-tagged `shards` array, and the handful of
/// fields clients key on (`epoch`, `agents`, `clean`, `text`) are
/// combined.
fn merge_fanned(request: &Request, replies: Vec<Value>) -> Value {
    let mut fields: Vec<(&str, Value)> = Vec::new();
    match request {
        Request::Metrics { text: true } => {
            // The text form concatenates per-shard exports with each series
            // labeled by shard, which is what a scraper wants to ingest.
            let mut out = String::new();
            for (shard, reply) in replies.iter().enumerate() {
                if let Some(text) = reply.get("text").and_then(Value::as_str) {
                    for line in text.lines() {
                        match line.split_once(' ') {
                            Some((name, rest)) => {
                                out.push_str(&format!("{name}{{shard=\"{shard}\"}} {rest}\n"));
                            }
                            None => {
                                out.push_str(line);
                                out.push('\n');
                            }
                        }
                    }
                }
            }
            fields.push(("text", Value::str(out)));
        }
        Request::Scrub => {
            // A fleet is clean only when every shard's log scrubbed clean.
            let clean = replies
                .iter()
                .all(|r| r.get("clean") == Some(&Value::Bool(true)));
            fields.push(("clean", Value::Bool(clean)));
        }
        Request::Query { agent: None } => {
            let epoch = replies
                .iter()
                .filter_map(|r| r.get("epoch").and_then(Value::as_u64))
                .max()
                .unwrap_or(0);
            // Live-agent id lists concatenate across shards, sorted so the
            // merged view is stable regardless of shard reply order.
            let mut agents: Vec<u64> = replies
                .iter()
                .filter_map(|r| r.get("agents").and_then(Value::as_array))
                .flatten()
                .filter_map(Value::as_u64)
                .collect();
            agents.sort_unstable();
            fields.push(("epoch", Value::from_u64(epoch)));
            fields.push((
                "agents",
                Value::Arr(agents.into_iter().map(Value::from_u64).collect()),
            ));
        }
        _ => {}
    }
    fleet_reply(fields, replies)
}

/// Pushes work of the server's own (catch-up ticks, probes) to a shard's
/// thread. The queue is FIFO, so it is served before
/// anything pushed later. Fire-and-forget callers drop the returned
/// receiver and the shard thread's reply send fails harmlessly. `None`
/// if the bus is closed.
fn push_internal(
    shared: &Shared,
    work: Work,
    deadline: Option<Instant>,
) -> Option<mpsc::Receiver<Value>> {
    let (reply, rx) = mpsc::channel();
    let item = Item {
        work,
        deadline,
        reply,
    };
    shared.bus.push(item).ok().map(|()| rx)
}

/// [`push_internal`] for a client's fanned request, which is counted.
fn push_item(
    shared: &Shared,
    work: Work,
    deadline: Option<Instant>,
) -> Option<mpsc::Receiver<Value>> {
    let rx = push_internal(shared, work, deadline);
    ServeMetrics::bump(match rx {
        Some(_) => &shared.metrics.accepted,
        None => &shared.metrics.rejected_shutdown,
    });
    rx
}

/// Runs one fleet tick ([`fleet_round`]) and merges its reply. The
/// router allots from the `D_k` each shard last published, then one fan
/// under the tick budget has each shard journal a moved allotment and
/// tick at it in one hold of its lock. A shard busy past the budget —
/// still allotted, from the `D_k` it published before — is abandoned and
/// serves the queued tick when it resumes; a shard that fails to journal
/// does not tick; a shard the router does not ask, or whose node is
/// down, sits the round out. Any of them makes the round partial. The
/// core then assesses health (`Healthy → Suspect → Down`) from the
/// replies, and the merged reply carries the combined report — marked
/// `partial` with the missing shard ids when any shard missed the tick.
fn fan_tick(router: &Arc<Router>, deadline_ms: Option<u64>, config: &ServeConfig) -> Value {
    // The tick budget caps how long any one shard may hold up the fleet
    // clock; a client deadline can only tighten it further.
    let wait = reply_wait(deadline_ms).min(config.shard_tick_budget);
    let _round = router.rounds.lock().expect("round lock poisoned");
    let mut fanned = Fanned {
        router,
        deadline_ms,
        wait,
    };
    let (replies, round) = fleet_round(&mut fanned, router.shards.len());
    let metrics = router.metrics();
    (metrics.shards_down).store(round.down as u64, Ordering::SeqCst);
    if !round.missing.is_empty() {
        ServeMetrics::bump(&metrics.partial_epochs);
    }
    tick_reply(replies, &round)
}

/// A fleet round's [`Fan`] over the shards: their published `D_k`, read
/// behind the [`asks`] gate, and one [`fan`] of the ticks under the
/// round's wait.
struct Fanned<'r> {
    router: &'r Arc<Router>,
    deadline_ms: Option<u64>,
    wait: Duration,
}

impl Fan for Fanned<'_> {
    fn router<T>(&mut self, step: impl FnOnce(&mut RouterCore) -> T) -> T {
        self.router.drive(step)
    }

    fn demand(&mut self) -> Vec<Result<Vec<f64>, Value>> {
        let read = |(shard, shared): (usize, &Arc<Shared>)| match &shared.demand {
            Some(slot) if asks(shared.health(), &Request::Tick) => {
                slot.lock().expect("demand slot poisoned").clone()
            }
            _ => Err(shard_unavailable_response(shard as u64, RETRY_AFTER_MS)),
        };
        self.router.shards.iter().enumerate().map(read).collect()
    }

    fn froze(&mut self, _reported: usize) {
        ServeMetrics::bump(&self.router.metrics().quorum_freezes);
    }

    fn tick(&mut self, asks: Vec<Result<Option<Vec<f64>>, Value>>) -> Vec<Value> {
        let (deadline_ms, wait) = (self.deadline_ms, self.wait);
        fan(
            self.router,
            &Request::Tick,
            deadline_ms,
            wait,
            |shard| match &asks[shard] {
                Ok(None) => Ok(Work::Serve(Request::Tick)),
                Ok(Some(allotment)) => Ok(Work::TickAt(allotment.clone())),
                Err(report) => Err(report.clone()),
            },
        )
    }
}

/// The node's clock: carries out what [`RouterCore::clock`] says at each
/// reading — a timed tick while the node leads (a standby's epochs arrive
/// on the replication stream), and the supervisor's restarts and probes.
/// The shard threads run no timers of their own.
fn clock_loop(router: &Arc<Router>, config: &ServeConfig) {
    loop {
        if router.stopped() || router.shards.iter().any(|s| s.bus.is_closed()) {
            return;
        }
        let now = RealClock.now();
        let leads = router.leads();
        let (duties, next) = router.drive(|core| (core.clock(now, leads), core.next_clock()));
        for duty in duties {
            match duty {
                Duty::Tick => {
                    let _ = fan_tick(router, None, config);
                }
                Duty::Restart(shard) => restart_shard(router, shard, config),
                Duty::Probe(shard) => probe_shard(router, shard),
            }
        }
        // Sleeps no longer than a sweep keep shutdown latency bounded.
        let now = RealClock.now();
        std::thread::sleep(next.saturating_sub(now).min(SWEEP_EVERY));
    }
}

/// Restarts one panicked shard in place, under its lock: drop the core
/// the panic left behind (releasing the WAL's file handles), reopen it
/// from the shard's own WAL directory, and readmit it as the core says —
/// queued for the shard thread before mutations are admitted again. A
/// failed recovery leaves the shard Down and core-less: the next sweep
/// retries.
fn restart_shard(router: &Arc<Router>, shard: usize, config: &ServeConfig) {
    let shared = &router.shards[shard];
    shared.locked(|node| {
        // Shutdown wins over a restart: the drain retires what is there.
        if shared.bus.is_closed() {
            return;
        }
        node.crash();
        // The recovered core runs with a disarmed fault plan: every armed
        // fault already fired (that is why we are here), and re-arming
        // append/sync faults against the replayed sequence numbers would
        // re-break the shard on its first post-recovery event.
        let Ok(core) = open_core(config, shard, FaultPlan::none(), &shared.metrics) else {
            ServeMetrics::bump(&shared.metrics.wal_errors);
            return;
        };
        let epoch = core.engine().epoch();
        router.rejoin(router.drive(|core| core.recovered(shard, epoch)));
        node.restart(core);
        shared.metrics.degraded.store(0, Ordering::SeqCst);
        ServeMetrics::bump(&router.metrics().shard_restarts);
    });
}

/// Probes a shard Down on tick timeouts alone — it may simply have been
/// slow, not dead — with a quick query, and readmits it if the core says
/// so.
fn probe_shard(router: &Arc<Router>, shard: usize) {
    let probe = Work::Serve(Request::Query { agent: None });
    let Some(rx) = push_internal(&router.shards[shard], probe, None) else {
        return;
    };
    let reply = await_reply(&rx, Duration::from_millis(100));
    if let Some(readmit) = router.drive(|core| core.probed(shard, &reply)) {
        router.rejoin(readmit);
    }
}

/// Answers a `ping` from transport-visible state alone (no engine
/// access): role, term, progress, uptime, and shard placement.
fn ping_response(router: &Arc<Router>, agent: Option<AgentId>) -> Value {
    let (shards, load) = (&router.shards, |at: &AtomicU64| at.load(Ordering::SeqCst));
    let (role, term, leader, standbys) = match &shards[0].repl {
        Some(repl) => repl.step(|r| {
            let leader = r.repl.leader_client().map(str::to_string);
            (r.repl.role(), r.repl.term(), leader, Some(r.attached()))
        }),
        None => (Role::Primary, 0, None, None),
    };
    let mut fields = vec![
        ("role", Value::str(role.as_str())),
        ("term", Value::from_u64(term)),
    ];
    fields.extend(leader.map(|leader| ("leader", Value::str(leader))));
    fields.extend(standbys.map(|n| ("standbys", Value::from_u64(n as u64))));
    let epoch = shards.iter().map(|s| load(&s.epoch)).max().unwrap_or(0);
    let uptime = router
        .started
        .elapsed()
        .as_millis()
        .min(u128::from(u64::MAX)) as u64;
    let seqs = shards.iter().map(|s| Value::from_u64(load(&s.wal_seq)));
    let health = shards.iter().map(|s| Value::str(s.health().as_str()));
    fields.extend([
        ("epoch", Value::from_u64(epoch)),
        ("wal_seq", Value::from_u64(load(&shards[0].wal_seq))),
        ("uptime_ms", Value::from_u64(uptime)),
        ("shards", Value::from_u64(shards.len() as u64)),
        ("wal_seqs", Value::Arr(seqs.collect())),
        ("shard_health", Value::Arr(health.collect())),
    ]);
    let shard_of = agent.map(|agent| router.ring.shard_of(agent) as u64);
    fields.extend(shard_of.map(|shard| ("shard_of", Value::from_u64(shard))));
    ok_response(fields)
}

/// How long an idle shard thread parks between looks at its bus.
const IDLE_PARK: Duration = Duration::from_millis(50);

/// The shard's own thread: serves what is pushed to it under the same
/// lock and through the same [`serve_request`] as the connection
/// threads, sends the replication heartbeats its core's timer calls for,
/// and retires the core once the bus is closed and everything admitted
/// has been served.
fn shard_loop(shard: usize, shared: &Arc<Shared>, config: &ServeConfig) {
    let mut shutdown_replies = Vec::new();
    // When a leader's next heartbeat is due. Its timer is not asked again
    // before then: the replication core's lock is shared with every
    // replicated mutation.
    let mut beat_at = None;
    loop {
        // A leading primary's next heartbeat bounds the park; a promotion
        // wakes this thread, so a new leader beats at once.
        let now = RealClock.now();
        let park = match (shared.repl.as_ref(), beat_at) {
            (Some(_), Some(at)) if now < at => at - now,
            (Some(repl), _) => {
                let next = repl.heartbeat();
                beat_at = next.map(|park| now + park);
                next.unwrap_or(IDLE_PARK)
            }
            (None, _) => IDLE_PARK,
        };
        if !shared.bus.is_closed() && !park.is_zero() {
            // The park is interrupted by any push.
            shared.bus.wait(park);
        }

        for item in shared.bus.drain() {
            if matches!(item.work, Work::Serve(Request::Shutdown)) {
                // Stop admitting; everything already admitted is still
                // served, and the reply waits for the retirement.
                shared.bus.close();
                shutdown_replies.push(item.reply);
                continue;
            }
            let response = serve_locked(shared, shard, &item.work, item.deadline, config);
            let _ = item.reply.send(response);
        }

        // Bus closure (a `shutdown`, [`Server::shutdown`] or Drop) is
        // the drain signal: nothing further can be admitted, so once
        // nothing is queued or in flight, retire the core and exit.
        if shared.bus.is_closed() {
            if shared.bus.depth() > 0 {
                shared.bus.wait(IDLE_PARK);
                continue;
            }
            let farewell = shared.locked(|node| {
                shared.stop.store(true, Ordering::SeqCst);
                let core = node.core()?;
                Some(ok_response([
                    ("snapshot", Value::str(core.final_snapshot())),
                    ("server", shared.metrics.snapshot().to_json_value()),
                ]))
            });
            let reply = farewell
                .flatten()
                .unwrap_or_else(|| shard_unavailable_response(shard as u64, RETRY_AFTER_MS));
            for waiter in shutdown_replies {
                let _ = waiter.send(reply.clone());
            }
            return;
        }
    }
}

/// Serves one piece of work on the shard's node; the caller holds the
/// shard lock (see [`Shared::locked`]), which is what makes this the only
/// place requests meet the engine, whichever thread runs it. A reply the
/// node holds for the standby's ack is waited for here, under the lock:
/// the ack reader advances the replication core without it. A poisoned
/// log degrades the shard. `None` when the reply is (by injection) lost
/// after the work was done.
fn serve_request(
    node: &mut ShardNode,
    shard: usize,
    work: &Work,
    deadline: Option<Instant>,
    shared: &Shared,
    config: &ServeConfig,
) -> Option<Value> {
    // Whatever time the request spent waiting — for the lock, or in the
    // shard thread's queue — counted against its deadline.
    if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
        ServeMetrics::bump(&shared.metrics.rejected_deadline);
        return Some(error_response(
            "deadline",
            Some("expired while queued"),
            None,
        ));
    }
    let served = match work {
        Work::Serve(Request::Promote) => {
            return Some(carry_out(node.promote(&shared.metrics), shared))
        }
        Work::Serve(Request::Tick) => tick(node, shard, None, shared, config)?,
        Work::TickAt(allotment) => tick(node, shard, Some(allotment), shared, config)?,
        Work::Serve(request) => node.serve(request, &shared.metrics),
    };
    if served.crash {
        shared.degrade(node);
    }
    // Synchronous replication: the reply goes once a standby has applied
    // the record, so an acked mutation survives failover. With no standby
    // attached the primary degrades to async (a lone node must stay
    // available); on timeout the client gets a loud `repl` error — the
    // event *is* applied locally, but its replication was never
    // confirmed.
    let sync = (shared.repl.as_ref()).filter(|r| r.config().sync && r.role() == Role::Primary);
    if let (Some(hold), Some(repl)) = (served.hold, sync) {
        if !repl.wait_applied(hold.target, hold.attached) {
            return Some(error_response(
                "repl",
                Some("applied locally but the standby ack timed out; not confirmed replicated"),
                None,
            ));
        }
    }
    Some(served.reply)
}

/// Runs one epoch on the shard's node — at `allotment` in a fleet round
/// ([`Node::tick_at`]) — under the tick-keyed faults. `None` when the
/// reply is (by injection) lost after the work was done.
fn tick(
    node: &mut ShardNode,
    shard: usize,
    allotment: Option<&[f64]>,
    shared: &Shared,
    config: &ServeConfig,
) -> Option<Served> {
    let faults = &config.faults;
    // Whether a tick-keyed fault is armed for this shard at `epoch`.
    let armed = |fault: Option<(u64, u64)>, epoch: Option<u64>| {
        faults.is_armed() && epoch.is_some_and(|epoch| fault == Some((shard as u64, epoch)))
    };
    let epoch = |node: &ShardNode| node.core().map(|core| core.engine().epoch());
    if let Some((s, e, delay_ms)) = faults.slow_shard_tick {
        // Stall *before* the tick that would close epoch `e` is applied:
        // the router's budget expires while the shard's durable state is
        // still behind.
        if armed(Some((s, e)), epoch(node).map(|epoch| epoch + 1)) {
            std::thread::sleep(Duration::from_millis(delay_ms));
        }
    }
    let served = match allotment {
        None => node.serve(&Request::Tick, &shared.metrics),
        Some(allotment) => {
            let mut served = node.tick_at(allotment, &shared.metrics);
            served.pop().expect("a round asks something").1
        }
    };
    // Panic *after* the tick is durable: recovery must replay it
    // bit-identically. Cannot re-fire after a restart — the recovered
    // engine is already past the epoch.
    if armed(faults.panic_shard_ticker, epoch(node)) {
        panic!("injected shard panic after epoch {:?}", epoch(node));
    }
    // Durable work done, reply lost: the router sees a failed tick while
    // the shard's state stays consistent.
    (!armed(faults.drop_tick_reply, epoch(node))).then_some(served)
}

/// Carries out a promotion the shard's node made (the `promote` op, or an
/// election; `None`: the node is not replicated) and answers it: a new
/// leader wakes the shard thread, whose timer then calls for a
/// heartbeat, and best-effort deposes the old primary by presenting it
/// the new term.
pub(crate) fn carry_out(promotion: Option<Promotion>, shared: &Shared) -> Value {
    let standing = |term: u64| {
        ok_response([
            ("role", Value::str("primary")),
            ("term", Value::from_u64(term)),
        ])
    };
    match promotion {
        None => error_response("protocol", Some("replication is not configured"), None),
        Some(Promotion::Fenced) => error_response(
            "fenced",
            Some("this node was deposed or diverged; it cannot be promoted"),
            None,
        ),
        // Idempotent: promoting a primary reports its standing.
        Some(Promotion::Standing(term)) => standing(term),
        Some(Promotion::Promoted { term, depose }) => {
            shared.bus.wake();
            if let Some((addr, hello)) = depose {
                // Detached: never hold the shard lock through a dead
                // peer's TCP timeout.
                spawn("ref-serve-fence", move || fence_notify(addr, hello));
            }
            standing(term)
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::Write;

    use super::*;
    use crate::client::Client;
    use ref_core::resource::Capacity;

    fn tick_on_demand_config() -> ServeConfig {
        let market = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap());
        ServeConfig::new(market).with_epoch_interval(None)
    }

    #[test]
    fn server_round_trips_a_basic_session() {
        let server = Server::start("127.0.0.1:0", tick_on_demand_config()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        client.join_truth(1, 1.0, &[0.6, 0.4]).unwrap();
        client.join_truth(2, 1.0, &[0.2, 0.8]).unwrap();
        for _ in 0..20 {
            client.tick().unwrap();
        }
        let reply = client.query_agent(1).unwrap();
        let bundle = reply.get("bundle").unwrap().as_array().unwrap();
        assert!((bundle[0].as_f64().unwrap() - 18.0).abs() < 0.6, "{reply}");
        client.leave(2).unwrap();
        let metrics = client.metrics().unwrap();
        let shards = metrics.get("shards").and_then(Value::as_array).unwrap();
        let market = shards[0].get("market").unwrap().encode();
        let report = server.shutdown();
        assert_eq!(report.metrics.protocol_errors, 0);
        assert!(report.snapshot.starts_with("refmarket-snapshot"));
        // join, join, 20 ticks, query is not journaled, leave.
        assert_eq!(report.journal.len(), 23);
        // One encoder: the reply's market section is the shutdown's.
        assert_eq!(market, report.market_metrics_json);
    }

    #[test]
    fn malformed_lines_get_protocol_errors_and_do_not_kill_the_connection() {
        let server = Server::start("127.0.0.1:0", tick_on_demand_config()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let reply = client.call_line("this is not json").unwrap();
        assert_eq!(reply.get("error").and_then(Value::as_str), Some("protocol"));
        let reply = client.call_line(r#"{"op":"warp"}"#).unwrap();
        assert_eq!(reply.get("error").and_then(Value::as_str), Some("protocol"));
        // The connection still works.
        client.join_external(9).unwrap();
        let report = server.shutdown();
        assert_eq!(report.metrics.protocol_errors, 2);
        assert_eq!(report.journal.len(), 1);
    }

    #[test]
    fn joins_at_2_pow_53_are_refused_on_the_wire() {
        let server = Server::start("127.0.0.1:0", tick_on_demand_config()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let join = |agent: u64| {
            format!(r#"{{"op":"join","agent":{agent},"source":{{"kind":"external"}}}}"#)
        };
        let reply = client.call_line(&join((1 << 53) - 1)).unwrap();
        assert_eq!(reply.get("ok"), Some(&Value::Bool(true)), "{reply}");
        for agent in [1 << 53, (1 << 53) + 1] {
            let reply = client.call_line(&join(agent)).unwrap();
            assert_eq!(
                reply.get("error").and_then(Value::as_str),
                Some("protocol"),
                "{agent}: {reply}"
            );
        }
        let report = server.shutdown();
        assert_eq!(report.metrics.protocol_errors, 2);
        assert_eq!(report.journal.len(), 1);
    }

    #[test]
    fn wire_shutdown_returns_final_snapshot_and_bounces_stragglers() {
        let server = Server::start("127.0.0.1:0", tick_on_demand_config()).unwrap();
        let mut a = Client::connect(server.addr()).unwrap();
        let mut b = Client::connect(server.addr()).unwrap();
        a.join_truth(1, 1.0, &[0.5, 0.5]).unwrap();
        a.tick().unwrap();
        let reply = b.shutdown().unwrap();
        let shards = reply.get("shards").and_then(Value::as_array).unwrap();
        let snapshot = shards[0].get("snapshot").unwrap().as_str().unwrap();
        assert!(snapshot.starts_with("refmarket-snapshot"));
        // Post-shutdown requests are refused at admission.
        let late = a.call_line(r#"{"op":"tick"}"#).unwrap();
        assert_eq!(
            late.get("error").and_then(Value::as_str),
            Some("shutting_down")
        );
        let report = server.wait();
        assert_eq!(report.metrics.rejected_shutdown, 1);
        assert_eq!(report.snapshot, snapshot);
    }

    #[test]
    fn wait_blocks_until_a_wire_shutdown_not_before() {
        // Regression: `wait` must passively await a wire shutdown, not
        // inject a synthetic one and drain the server out from under
        // its clients.
        let server = Server::start("127.0.0.1:0", tick_on_demand_config()).unwrap();
        let addr = server.addr();
        let driver = std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.join_truth(1, 1.0, &[0.5, 0.5]).unwrap();
            client.tick().unwrap();
            client.shutdown().unwrap();
        });
        let report = server.wait();
        driver.join().unwrap();
        // Had wait() shut the server down itself, the driver's requests
        // would have bounced with `shutting_down` and panicked above.
        assert_eq!(report.journal.len(), 2);
    }

    #[test]
    fn expired_deadlines_are_dropped_in_queue() {
        // No epoch timer and a tick that takes long enough to let the
        // queued request expire: enforce with a tiny deadline.
        let server = Server::start("127.0.0.1:0", tick_on_demand_config()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        client.join_truth(1, 1.0, &[0.5, 0.5]).unwrap();
        // Deadline 0 ms: expired by the time the ticker sees it.
        let reply = client
            .call_line(r#"{"op":"query","deadline_ms":0}"#)
            .unwrap();
        assert_eq!(reply.get("error").and_then(Value::as_str), Some("deadline"));
        let report = server.shutdown();
        assert_eq!(report.metrics.rejected_deadline, 1);
    }

    #[test]
    fn dropping_a_running_server_does_not_hang() {
        // Regression: Drop closes the bus; the ticker must treat the
        // closure itself as the drain signal and exit, not wait for a
        // Shutdown item that can no longer be admitted.
        let server = Server::start("127.0.0.1:0", tick_on_demand_config()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        client.join_truth(1, 1.0, &[0.5, 0.5]).unwrap();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            drop(server);
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("Drop deadlocked: the ticker never exited on bus closure");
    }

    #[test]
    fn fragmented_request_lines_survive_read_timeouts() {
        // Regression: a writer that pauses mid-line (longer than the
        // reader's 50ms poll timeout) must not have the partial prefix
        // discarded and the suffix parsed as its own request.
        let server = Server::start("127.0.0.1:0", tick_on_demand_config()).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let line = r#"{"op":"tick"}"#;
        let (head, tail) = line.split_at(6);
        stream.write_all(head.as_bytes()).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(300));
        stream.write_all(tail.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        let reply = Value::parse(reply.trim_end()).unwrap();
        assert_eq!(reply.get("ok"), Some(&Value::Bool(true)), "{reply}");
        let report = server.shutdown();
        assert_eq!(report.metrics.protocol_errors, 0);
        assert_eq!(report.metrics.epochs, 1);
    }

    #[test]
    fn an_endless_request_line_is_refused_at_the_cap_and_closed() {
        // A peer that never sends a newline must not grow the server's
        // memory without bound: at the cap it gets the typed error and a
        // clean close, and nobody else notices.
        let server = Server::start("127.0.0.1:0", tick_on_demand_config()).unwrap();
        let mut hostile = TcpStream::connect(server.addr()).unwrap();
        // The writer may be cut off once the server has seen enough.
        let mut writer = hostile.try_clone().unwrap();
        let flood = std::thread::spawn(move || {
            let chunk = vec![b'a'; 64 * 1024];
            for _ in 0..(2 * MAX_REQUEST_LINE / chunk.len()) {
                if writer.write_all(&chunk).is_err() {
                    return;
                }
            }
        });
        let mut replies = String::new();
        hostile.read_to_string(&mut replies).expect("a clean close");
        flood.join().unwrap();
        let mut lines = replies.lines();
        let reply = Value::parse(lines.next().expect("one reply before the close")).unwrap();
        assert_eq!(reply.get("error").and_then(Value::as_str), Some("protocol"));
        assert_eq!(
            reply.get("detail").and_then(Value::as_str),
            Some("request line too long")
        );
        assert_eq!(lines.next(), None);

        // A line of exactly the cap is still a request (a malformed one
        // here), and the connection survives it.
        let mut client = Client::connect(server.addr()).unwrap();
        let reply = client.call_line(&"b".repeat(MAX_REQUEST_LINE)).unwrap();
        assert_eq!(reply.get("error").and_then(Value::as_str), Some("protocol"));
        assert_ne!(
            reply.get("detail").and_then(Value::as_str),
            Some("request line too long")
        );
        client.join_external(1).unwrap();
        let report = server.shutdown();
        assert_eq!(report.metrics.protocol_errors, 2);
        assert_eq!(report.metrics.reader_panics, 0);
        assert_eq!(report.journal.len(), 1);
    }

    #[test]
    fn finished_reader_handles_are_reaped_while_running() {
        // Regression: the reader registry must not grow with every
        // connection ever accepted — closed connections are reaped on
        // the next accept, not hoarded until shutdown.
        let server = Server::start("127.0.0.1:0", tick_on_demand_config()).unwrap();
        for agent in 0..4 {
            let mut client = Client::connect(server.addr()).unwrap();
            client.join_external(agent).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            // Each probe is an accept; the registry then holds the probe
            // and whichever earlier readers have not noticed their
            // peer's close yet.
            let mut probe = Client::connect(server.addr()).unwrap();
            probe.query().unwrap();
            let live = server.readers.lock().unwrap().len();
            if live == 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{live} reader handles registered with one connection open"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let report = server.shutdown();
        assert_eq!(report.journal.len(), 4);
    }

    #[test]
    fn timed_epochs_advance_without_tick_requests() {
        let market = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap());
        let config = ServeConfig::new(market).with_epoch_interval(Some(Duration::from_millis(1)));
        let server = Server::start("127.0.0.1:0", config).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        client.join_truth(1, 1.0, &[0.6, 0.4]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let reply = client.query().unwrap();
            if reply.get("epoch").unwrap().as_u64().unwrap() >= 5 {
                break;
            }
            assert!(Instant::now() < deadline, "timed epochs never ran");
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = server.shutdown();
        assert!(report.metrics.epochs >= 5);
        assert!(report.metrics.epoch_latency.count >= 5);
    }

    fn sharded_config(shards: usize) -> ServeConfig {
        let market = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap());
        ServeConfig::new(market)
            .with_epoch_interval(None)
            .with_shards(shards)
    }

    #[test]
    fn sharded_server_routes_ticks_and_aggregates() {
        let server = Server::start("127.0.0.1:0", sharded_config(4)).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        for agent in 0..16u64 {
            client.join_truth(agent, 1.0, &[0.6, 0.4]).unwrap();
        }
        let tick = client.tick().unwrap();
        assert_eq!(tick.get("epoch").and_then(Value::as_u64), Some(1));
        let shards = tick.get("shards").and_then(Value::as_array).unwrap();
        assert_eq!(shards.len(), 4);
        // The merged report carries the fleet-wide SI/EF/PE audit, which
        // needs every shard to have allocated at one price vector.
        let fairness = tick.get("report").and_then(|r| r.get("fairness")).unwrap();
        for property in [
            "sharing_incentives",
            "envy_free",
            "pareto_efficient",
            "prices_agree",
        ] {
            assert_eq!(
                fairness.get(property).and_then(Value::as_bool),
                Some(true),
                "{property}: {tick}"
            );
        }
        // Market-wide query sums agents across shards and reports the
        // fleet epoch.
        let query = client.query().unwrap();
        let agents = query.get("agents").and_then(Value::as_array).unwrap();
        assert_eq!(agents.len(), 16, "{query}");
        // Sorted merge: stable regardless of shard reply order.
        let ids: Vec<u64> = agents.iter().filter_map(Value::as_u64).collect();
        assert_eq!(ids, (0..16u64).collect::<Vec<_>>());
        assert_eq!(query.get("epoch").and_then(Value::as_u64), Some(1));
        // Per-agent queries route to the owning shard and still work.
        let one = client.query_agent(3).unwrap();
        assert!(one.get("bundle").is_some(), "{one}");
        // Ping reports placement.
        let ping = client.call_line(r#"{"op":"ping","agent":3}"#).unwrap();
        assert_eq!(ping.get("shards").and_then(Value::as_u64), Some(4));
        let shard_of = ping.get("shard_of").and_then(Value::as_u64).unwrap();
        assert_eq!(shard_of, server.router.ring.shard_of(3) as u64);
        assert_eq!(
            ping.get("wal_seqs")
                .and_then(Value::as_array)
                .map(<[Value]>::len),
            Some(4)
        );
        // Metrics text carries per-shard labels.
        let text = client.metrics_text().unwrap();
        assert!(text.contains("refserve_accepted{shard=\"0\"}"), "{text}");
        assert!(text.contains("refmarket_epochs{shard=\"3\"}"), "{text}");

        let report = server.shutdown();
        assert_eq!(report.shards.len(), 4);
        // Every shard ran the same single epoch, in lockstep.
        for shard in &report.shards {
            assert_eq!(shard.metrics.epochs, 1);
            assert!(shard.journal.contains(&MarketEvent::EpochTick));
        }
        // Each join landed exactly where the ring says it should.
        let ring = HashRing::new(4, RING_SEED);
        for agent in 0..16u64 {
            let owner = ring.shard_of(agent);
            for (k, shard) in report.shards.iter().enumerate() {
                let has = shard
                    .journal
                    .iter()
                    .any(|e| matches!(e, MarketEvent::AgentJoined { id, .. } if *id == agent));
                assert_eq!(has, k == owner, "agent {agent} shard {k}");
            }
        }
    }

    #[test]
    fn sharded_timed_epochs_run_in_lockstep() {
        for shards in [1usize, 2] {
            let market = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap());
            let config = ServeConfig::new(market)
                .with_epoch_interval(Some(Duration::from_millis(2)))
                .with_shards(shards);
            let server = Server::start("127.0.0.1:0", config).unwrap();
            let mut client = Client::connect(server.addr()).unwrap();
            for agent in 0..6u64 {
                client.join_truth(agent, 1.0, &[0.5, 0.5]).unwrap();
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            let epoch = |client: &mut Client| client.ping().unwrap().get("epoch")?.as_u64();
            while epoch(&mut client) < Some(5) {
                assert!(Instant::now() < deadline, "the clock never ticked");
                std::thread::sleep(Duration::from_millis(5));
            }
            let reply = client.query().unwrap();
            assert!(
                reply.get("epoch").unwrap().as_u64().unwrap() >= 5,
                "{reply}"
            );
            let report = server.shutdown();
            // Lockstep: the shards' epoch counts differ by at most the
            // one round that may be in flight at shutdown.
            let epochs: Vec<u64> = report.shards.iter().map(|s| s.metrics.epochs).collect();
            let (lo, hi) = (epochs.iter().min().unwrap(), epochs.iter().max().unwrap());
            assert!(hi - lo <= 1, "epochs diverged: {epochs:?}");
            assert!(*lo >= 5, "{epochs:?}");
        }
    }

    #[test]
    fn wire_reallot_is_refused_at_every_shard_count() {
        // The coordinator owns the capacity split, even of one shard.
        for shards in [1usize, 2] {
            let server = Server::start("127.0.0.1:0", sharded_config(shards)).unwrap();
            let mut client = Client::connect(server.addr()).unwrap();
            let reply = client
                .call_line(r#"{"op":"reallot","capacity":[30.0,10.0]}"#)
                .unwrap();
            assert_eq!(
                reply.get("error").and_then(Value::as_str),
                Some("protocol"),
                "{reply}"
            );
            let report = server.shutdown();
            assert_eq!(report.metrics.protocol_errors, 1);
            assert!(report.journal.is_empty());
        }
    }

    #[test]
    fn sharding_excludes_in_process_replication() {
        let dir =
            std::env::temp_dir().join(format!("ref-shard-repl-{}-{}", std::process::id(), line!()));
        let market = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap());
        let config = ServeConfig::new(market)
            .with_shards(2)
            .with_wal(WalConfig::new(&dir))
            .with_repl(ReplConfig::primary("127.0.0.1:0"));
        let err = Server::start("127.0.0.1:0", config).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every `CapacityRealloted` in `journal`, with its sequence.
    fn realloted(journal: &[MarketEvent]) -> Vec<(usize, Vec<f64>)> {
        (journal.iter().enumerate())
            .filter_map(|(seq, event)| match event {
                MarketEvent::CapacityRealloted { capacity } => Some((seq, capacity.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn coordinator_reallotments_shift_capacity_toward_demand() {
        // Two shards; all agents on one of them. The loaded shard is
        // allotted the whole capacity but the ulp the empty shard holds.
        let server = Server::start("127.0.0.1:0", sharded_config(2)).unwrap();
        let ring = HashRing::new(2, RING_SEED);
        let mut client = Client::connect(server.addr()).unwrap();
        for agent in agents_on(&ring, 0, 8) {
            client.join_truth(agent, 1.0, &[0.7, 0.3]).unwrap();
        }
        for _ in 0..12 {
            client.tick().unwrap();
        }
        let report = server.shutdown();
        let (_, loaded) = realloted(&report.shards[0].journal)
            .pop()
            .expect("realloted");
        let (_, empty) = realloted(&report.shards[1].journal)
            .pop()
            .expect("realloted");
        assert_eq!(empty, [24.0 * f64::EPSILON, 12.0 * f64::EPSILON]);
        assert_eq!(loaded, [24.0 - empty[0], 12.0 - empty[1]]);
        // One reallotment each: the closed form does not move while the
        // demand does not.
        assert_eq!(report.shards[1].metrics.epochs, 12);
        assert_eq!(realloted(&report.shards[1].journal).len(), 1);
    }

    #[test]
    fn a_reallotment_a_shard_failed_to_journal_is_offered_again() {
        // Two WAL shards, one agent each with opposite demand: the fits
        // move the closed form round after round.
        let run = |faults: FaultPlan, rounds: usize| {
            let dir = std::env::temp_dir().join(format!(
                "ref-reallot-refused-{}-{}",
                std::process::id(),
                faults.fail_append_at.is_some()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let config = sharded_config(2)
                .with_wal(WalConfig::new(&dir))
                .with_faults(faults);
            let server = Server::start("127.0.0.1:0", config).unwrap();
            let ring = HashRing::new(2, RING_SEED);
            let mut client = Client::connect(server.addr()).unwrap();
            client
                .join_truth(agent_on(&ring, 0), 1.0, &[0.8, 0.2])
                .unwrap();
            client
                .join_truth(agent_on(&ring, 1), 1.0, &[0.2, 0.8])
                .unwrap();
            // A round in which no shard ticked is answered with the first
            // shard's error.
            let partial: Vec<bool> = (0..rounds)
                .map(|_| match client.tick() {
                    Ok(tick) => tick.get("report").and_then(|r| r.get("partial")).is_some(),
                    Err(e) => e.code() == Some("wal"),
                })
                .collect();
            let report = server.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
            (report, partial)
        };
        // A fault-free run finds the sequence of the first reallotment.
        let (report, partial) = run(FaultPlan::default(), 12);
        assert!(partial.iter().all(|p| !p));
        let (first, _) = realloted(&report.shards[0].journal)[0];
        assert!(realloted(&report.shards[1].journal)
            .iter()
            .any(|(seq, _)| *seq == first));

        // Both shards fail to journal it: neither ticks at a split it
        // does not hold, that round is partial, and the next re-derives
        // and delivers the allotments.
        let faults = FaultPlan {
            fail_append_at: Some(first as u64),
            ..FaultPlan::default()
        };
        let (report, partial) = run(faults, 12);
        assert_eq!(partial.iter().filter(|p| **p).count(), 1, "{partial:?}");
        let mut last = Vec::new();
        for shard in &report.shards {
            assert_eq!(shard.metrics.epochs, 11);
            assert_eq!(shard.metrics.wal_errors, 1);
            let moves = realloted(&shard.journal);
            assert_eq!(moves[0].0, first, "offered again at the same sequence");
            last.push(moves.last().unwrap().1.clone());
        }
        for (r, total) in [24.0, 12.0].into_iter().enumerate() {
            let sum = last[0][r] + last[1][r];
            assert!(sum <= total && sum >= total * (1.0 - 1e-12), "{last:?}");
        }
    }

    /// The first `count` agent ids the ring places on `shard`.
    fn agents_on(ring: &HashRing, shard: usize, count: usize) -> Vec<u64> {
        (0..u64::MAX)
            .filter(|a| ring.shard_of(*a) == shard)
            .take(count)
            .collect()
    }

    #[test]
    fn moving_allotments_leave_warm_up_and_the_temporal_audit_running() {
        // Noisy external observations on both shards move the closed form
        // every tick. A late arrival who values resource 0 among a crowd
        // that does too is under-served under its truth until its fit
        // converges; those epochs stay in its temporal-SI window past the
        // warm-up its arrival began, so the violations are counted.
        let market =
            MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap()).with_temporal_slack(0.0);
        let config = ServeConfig::new(market.clone())
            .with_epoch_interval(None)
            .with_shards(2);
        let server = Server::start("127.0.0.1:0", config).unwrap();
        let ring = HashRing::new(2, RING_SEED);
        let mut client = Client::connect(server.addr()).unwrap();
        let noisy: Vec<u64> = (0..2).map(|shard| agent_on(&ring, shard)).collect();
        for &agent in &noisy {
            client.join_external(agent).unwrap();
        }
        let mut crowd = agents_on(&ring, 0, 22);
        let late = crowd.pop().unwrap();
        for &agent in crowd.iter().filter(|a| !noisy.contains(a)) {
            client.join_truth(agent, 1.0, &[0.99, 0.01]).unwrap();
        }
        let round = |client: &mut Client, i: u64| {
            for (k, &agent) in noisy.iter().enumerate() {
                let x = [1.0 + (i % 7) as f64, 1.0 + ((i + k as u64) % 5) as f64];
                let noise = 1.0 + 0.1 * ((i * 7 + k as u64 * 3) % 11) as f64 / 11.0;
                client
                    .observe(agent, &x, (x[0] * x[1]).sqrt() * noise)
                    .unwrap();
            }
            client.tick().unwrap()
        };
        for i in 0..12 {
            round(&mut client, i);
        }
        client.join_truth(late, 1.0, &[0.99, 0.01]).unwrap();
        for i in 12..36 {
            let tick = round(&mut client, i);
            if i < 12 + market.warmup_epochs {
                continue;
            }
            let shards = tick.get("shards").and_then(Value::as_array).unwrap();
            for shard in shards {
                let warm = shard.get("report").and_then(|r| r.get("warm"));
                assert_eq!(warm, Some(&Value::Bool(false)), "tick {i}: {tick}");
            }
        }
        let report = server.shutdown();
        for shard in &report.shards {
            let moves = realloted(&shard.journal).len();
            assert!(
                moves >= 30,
                "shard {}: {moves} reallotments in 36 ticks",
                shard.shard
            );
        }
        let metrics = Value::parse(&report.shards[0].market_metrics_json).unwrap();
        let counted = metrics
            .get("temporal_si_violations")
            .and_then(Value::as_u64);
        assert!(counted > Some(0), "{metrics}");
    }

    /// First agent id the ring places on `shard`.
    fn agent_on(ring: &HashRing, shard: usize) -> u64 {
        (0..u64::MAX)
            .find(|a| ring.shard_of(*a) == shard)
            .expect("ring covers every shard")
    }

    #[test]
    fn down_shards_fail_fast_with_shard_unavailable() {
        // Regression: agent ops to a shard with a dead ticker used to
        // queue behind it and burn the full 30s reply timeout. Now the
        // router fails them fast with a retry hint.
        let config = sharded_config(2).with_faults(FaultPlan {
            panic_shard_ticker: Some((1, 1)),
            ..FaultPlan::default()
        });
        let server = Server::start("127.0.0.1:0", config).unwrap();
        let ring = HashRing::new(2, RING_SEED);
        let mut client = Client::connect(server.addr()).unwrap();
        let on1 = agent_on(&ring, 1);
        client
            .join_truth(agent_on(&ring, 0), 1.0, &[0.5, 0.5])
            .unwrap();
        client.join_truth(on1, 1.0, &[0.5, 0.5]).unwrap();
        // Shard 1 applies epoch 1, then its ticker panics: the reply is
        // lost, the router marks the shard Down, the report is partial.
        let tick = client.tick().unwrap();
        let report = tick.get("report").expect("merged report");
        assert_eq!(report.get("partial"), Some(&Value::Bool(true)), "{tick}");
        assert_eq!(
            report
                .get("missing_shards")
                .and_then(Value::as_array)
                .and_then(|m| m.first())
                .and_then(Value::as_u64),
            Some(1),
            "{tick}"
        );
        assert!(report.get("fairness").is_none(), "{tick}");
        assert_eq!(server.shard_health(1), ShardHealth::Down);
        // The agent op to the Down shard answers immediately.
        let started = Instant::now();
        let reply = client.query_agent(on1).unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "fast-fail took {:?}",
            started.elapsed()
        );
        match reply {
            crate::client::ClientError::Server {
                code,
                retry_after_ms,
                shard,
                ..
            } => {
                assert_eq!(code, "shard_unavailable");
                assert!(retry_after_ms.is_some());
                assert_eq!(shard, Some(1));
            }
            other => panic!("expected a server error, got {other:?}"),
        }
        // Fleet ops answer fast too: the fan skips the Down shard.
        let started = Instant::now();
        let tick = client.tick().unwrap();
        assert!(started.elapsed() < Duration::from_secs(5));
        let shards = tick.get("shards").and_then(Value::as_array).unwrap();
        assert_eq!(
            shards[1].get("error").and_then(Value::as_str),
            Some("shard_unavailable"),
            "{tick}"
        );
        // Health surfaces on ping and in the gauges.
        let ping = client.ping().unwrap();
        let health = ping.get("shard_health").and_then(Value::as_array).unwrap();
        assert_eq!(health[0].as_str(), Some("healthy"), "{ping}");
        assert_eq!(health[1].as_str(), Some("down"), "{ping}");
        assert_eq!(server.metrics().shards_down, 1);
        // No WAL: the shard stays down, but shutdown still drains it.
        let report = server.shutdown();
        assert_eq!(report.shards[1].metrics.ticker_panics, 1);
    }

    #[test]
    fn at_quorum_coordination_continues_with_partial_reports() {
        // 3 shards, default quorum ⌈4/2⌉ = 2: one dead shard leaves the
        // fleet exactly at quorum, so reallotment keeps running around
        // what the dead shard holds while every merged report is stamped
        // partial.
        let config = sharded_config(3).with_faults(FaultPlan {
            panic_shard_ticker: Some((2, 1)),
            ..FaultPlan::default()
        });
        assert_eq!(default_quorum(3), 2);
        let server = Server::start("127.0.0.1:0", config).unwrap();
        let ring = HashRing::new(3, RING_SEED);
        let mut client = Client::connect(server.addr()).unwrap();
        client
            .join_truth(agent_on(&ring, 0), 1.0, &[0.7, 0.3])
            .unwrap();
        client
            .join_truth(agent_on(&ring, 1), 1.0, &[0.3, 0.7])
            .unwrap();
        client
            .join_truth(agent_on(&ring, 2), 1.0, &[0.5, 0.5])
            .unwrap();
        let mut tick = Value::Null;
        for _ in 0..6 {
            tick = client.tick().unwrap();
        }
        let report = tick.get("report").expect("merged report");
        assert_eq!(report.get("partial"), Some(&Value::Bool(true)), "{tick}");
        let metrics = server.metrics();
        assert_eq!(metrics.partial_epochs, 6, "{metrics:?}");
        assert_eq!(metrics.quorum_freezes, 0, "{metrics:?}");
        assert_eq!(metrics.shards_down, 1, "{metrics:?}");
        // The two that reported split what the Down shard does not hold:
        // its third of the capacity, the equal split it never left, stays
        // reserved while their fits pull their allotments apart.
        let report = server.shutdown();
        let held: Vec<Vec<f64>> = (report.shards[..2].iter())
            .map(|shard| realloted(&shard.journal).pop().expect("realloted").1)
            .collect();
        assert!(held[0][0] > held[1][0], "{held:?}");
        for (r, total) in [24.0, 12.0].into_iter().enumerate() {
            let sum = held[0][r] + held[1][r];
            let left = total - total / 3.0;
            assert!(sum <= left && sum >= left * (1.0 - 1e-12), "{held:?}");
        }
    }

    #[test]
    fn below_quorum_freezes_allotments() {
        // 2 shards, default quorum ⌈3/2⌉ = 2: one dead shard drops the
        // fleet below quorum and the coordinator never steps.
        let config = sharded_config(2).with_faults(FaultPlan {
            panic_shard_ticker: Some((1, 1)),
            ..FaultPlan::default()
        });
        assert_eq!(default_quorum(2), 2);
        let server = Server::start("127.0.0.1:0", config).unwrap();
        let ring = HashRing::new(2, RING_SEED);
        let mut client = Client::connect(server.addr()).unwrap();
        client
            .join_truth(agent_on(&ring, 0), 1.0, &[0.7, 0.3])
            .unwrap();
        // The first round is at quorum (shard 1 panics in its tick);
        // the two after it are not.
        for _ in 0..3 {
            client.tick().unwrap();
        }
        let metrics = server.metrics();
        assert_eq!(metrics.quorum_freezes, 2, "{metrics:?}");
        // Shard 0 kept ticking, at the allotment of the first round.
        let report = server.shutdown();
        assert_eq!(report.shards[0].metrics.epochs, 3);
        assert_eq!(realloted(&report.shards[0].journal).len(), 1);
    }

    #[test]
    fn a_stalled_shard_is_allotted_from_its_last_demand_and_freezes_nothing() {
        // 3 shards, default quorum 2. Shard 2 stalls under its lock
        // before the tick of epoch 2, far past the tick budget. Round 2
        // abandons its tick (Suspect); round 3 still allots it from the
        // D_k it published before the stall and abandons that tick too
        // (Down); round 4 does not ask it. No round freezes, and every
        // round is partial.
        let (total, budget) = ([24.0, 12.0], Duration::from_millis(150));
        let config = sharded_config(3)
            .with_shard_tick_budget(budget)
            .with_faults(FaultPlan {
                slow_shard_tick: Some((2, 2, 800)),
                ..FaultPlan::default()
            });
        let server = Server::start("127.0.0.1:0", config).unwrap();
        let ring = HashRing::new(3, RING_SEED);
        let mut client = Client::connect(server.addr()).unwrap();
        for (shard, e0) in [0.7, 0.3, 0.5].into_iter().enumerate() {
            for agent in agents_on(&ring, shard, 2) {
                client.join_truth(agent, 1.0, &[e0, 1.0 - e0]).unwrap();
            }
        }
        // Per round, the shards whose tick was clean.
        let clean: Vec<Vec<usize>> = (1..=4)
            .map(|round| {
                let tick = client.tick().unwrap();
                let partial = tick.get("report").and_then(|r| r.get("partial"));
                assert_eq!(partial.is_some(), round > 1, "round {round}: {tick}");
                let shards = tick.get("shards").and_then(Value::as_array).unwrap();
                (0..3)
                    .filter(|&k| shards[k].get("ok") == Some(&Value::Bool(true)))
                    .collect()
            })
            .collect();
        assert_eq!(clean, [vec![0, 1, 2], vec![0, 1], vec![0, 1], vec![0, 1]]);
        let metrics = server.metrics();
        assert_eq!(metrics.quorum_freezes, 0, "{metrics:?}");
        assert_eq!(metrics.partial_epochs, 3, "{metrics:?}");
        assert_eq!(server.shard_health(2), ShardHealth::Down);
        // The drain lets shard 2 finish its stall, then serve the allotted
        // tick round 3 queued behind it: epochs 2 and 3 land late, each at
        // its own round's allotment.
        let report = server.shutdown();
        // Each shard's capacity at the tick that closed epoch `e`, at [e-1].
        let ticked_at: Vec<Vec<Vec<f64>>> = (report.shards.iter())
            .map(|shard| {
                let mut capacity = total.map(|c| c / 3.0).to_vec();
                let mut at = Vec::new();
                for event in &shard.journal {
                    match event {
                        MarketEvent::CapacityRealloted { capacity: moved } => {
                            capacity.clone_from(moved);
                        }
                        MarketEvent::EpochTick => at.push(capacity.clone()),
                        _ => {}
                    }
                }
                at
            })
            .collect();
        assert!(ticked_at[2].len() >= 3, "{:?}", ticked_at[2]);
        // Whether what `shards` ticked at in round `round + 1` fits.
        let fits = |shards: &[usize], round: usize| {
            (total.iter().enumerate()).all(|(r, total)| {
                shards.iter().map(|&k| ticked_at[k][round][r]).sum::<f64>() <= *total
            })
        };
        for (round, ticked) in clean.iter().enumerate() {
            assert!(fits(ticked, round), "round {}: {ticked_at:?}", round + 1);
        }
        // The rounds that allotted shard 2 and abandoned its tick: with
        // its late tick counted, their allotments still fit the capacity.
        for round in [1, 2] {
            assert!(
                fits(&[0, 1, 2], round),
                "round {}: {ticked_at:?}",
                round + 1
            );
        }
    }

    #[test]
    fn missing_shards_accrue_no_temporal_si_violations() {
        // A partial fleet must never book temporal-SI violations against
        // agents on the missing shard: its epochs freeze (no audits run
        // there) rather than run against phantom allotments.
        let config = sharded_config(2).with_faults(FaultPlan {
            panic_shard_ticker: Some((1, 2)),
            ..FaultPlan::default()
        });
        let server = Server::start("127.0.0.1:0", config).unwrap();
        let ring = HashRing::new(2, RING_SEED);
        let mut client = Client::connect(server.addr()).unwrap();
        client
            .join_truth(agent_on(&ring, 0), 1.0, &[0.7, 0.3])
            .unwrap();
        client
            .join_truth(agent_on(&ring, 1), 1.0, &[0.3, 0.7])
            .unwrap();
        for _ in 0..10 {
            client.tick().unwrap();
        }
        let report = server.shutdown();
        // Shard 0 kept ticking past the failure; shard 1 froze at the
        // epoch its panic made durable.
        assert_eq!(report.shards[0].metrics.epochs, 10);
        assert_eq!(report.shards[1].metrics.epochs, 2);
        assert!(
            report.shards[1]
                .market_metrics_json
                .contains("\"temporal_si_violations\":0"),
            "{}",
            report.shards[1].market_metrics_json
        );
    }

    #[test]
    fn a_fleet_with_agents_on_one_shard_audits_that_shard() {
        // Three shards have no agents and nothing to audit; the fleet
        // verdict is the fourth's, and the count is its agents'.
        let server = Server::start("127.0.0.1:0", sharded_config(4)).unwrap();
        let ring = HashRing::new(4, RING_SEED);
        let mut client = Client::connect(server.addr()).unwrap();
        let agents: Vec<u64> = (0..u64::MAX)
            .filter(|a| ring.shard_of(*a) == 2)
            .take(3)
            .collect();
        for (k, &agent) in agents.iter().enumerate() {
            let e0 = 0.3 + 0.2 * k as f64;
            client.join_truth(agent, 1.0, &[e0, 1.0 - e0]).unwrap();
        }
        for _ in 0..3 {
            let tick = client.tick().unwrap();
            let report = tick.get("report").expect("a merged report");
            assert_eq!(
                report.get("agents").and_then(Value::as_u64),
                Some(3),
                "{tick}"
            );
            let fairness = report.get("fairness").expect("a fleet verdict");
            for property in ["sharing_incentives", "envy_free", "pareto_efficient"] {
                assert_eq!(
                    fairness.get(property),
                    Some(&Value::Bool(true)),
                    "{property}: {tick}"
                );
            }
        }
        server.shutdown();
    }

    #[test]
    fn supervisor_restarts_a_panicked_shard_from_its_wal() {
        let dir = std::env::temp_dir().join(format!(
            "ref-shard-restart-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let market = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap());
        let config = ServeConfig::new(market.clone())
            .with_epoch_interval(None)
            .with_shards(2)
            .with_wal(WalConfig::new(&dir))
            .with_faults(FaultPlan {
                panic_shard_ticker: Some((1, 2)),
                ..FaultPlan::default()
            });
        let server = Server::start("127.0.0.1:0", config).unwrap();
        let ring = HashRing::new(2, RING_SEED);
        let mut client = Client::connect(server.addr()).unwrap();
        let on1 = agent_on(&ring, 1);
        client
            .join_truth(agent_on(&ring, 0), 1.0, &[0.5, 0.5])
            .unwrap();
        client.join_truth(on1, 1.0, &[0.5, 0.5]).unwrap();
        client.tick().unwrap();
        client.tick().unwrap(); // shard 1 panics after epoch 2 is durable
        assert_eq!(server.shard_health(1), ShardHealth::Down);
        // The supervisor restarts the shard from shard-1's WAL; clean
        // ticks then heal it back to Healthy.
        let deadline = Instant::now() + Duration::from_secs(20);
        while server.shard_health(1) != ShardHealth::Healthy {
            assert!(Instant::now() < deadline, "shard 1 never healed");
            client.tick().unwrap();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.metrics().shard_restarts, 1);
        // The recovered shard serves mutations again.
        let reply = client.query_agent(on1).unwrap();
        assert!(reply.get("bundle").is_some(), "{reply}");
        let report = server.shutdown();
        // Both shard WALs replay offline to exactly the shutdown
        // snapshots: the restart lost nothing durable.
        for (k, shard) in report.shards.iter().enumerate() {
            let core = ServiceCore::recover(
                shard_market_config(&market, 2),
                JournalLimit::default(),
                WalConfig::new(dir.join(format!("shard-{k}"))),
                FaultPlan::none(),
            )
            .unwrap();
            assert_eq!(core.final_snapshot(), shard.snapshot, "shard {k}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
