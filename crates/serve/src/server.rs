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
//!                                       pushes (fan, reallot,          ▲
//!                                       probe, shutdown) ──▶ bus ──▶ shard thread
//!                                                                   (+ heartbeats)
//!      ┌────────────┐  verdicts   clock ──▶ timed tick (fan), restart, probe
//!      │ RouterCore │ ──────────▶ fan   ──▶ ask or skip each shard, reallot
//!      │ (one lock) │             panic ──▶ restart later, or stop leading
//!      └────────────┘             recovery / probe ──▶ re-offer + catch-up ticks
//! ```
//!
//! Every node-level decision above is a verdict of the sans-IO
//! [`RouterCore`] (and the heartbeat/election cadence one of
//! [`crate::repl_core::ReplCore`]'s); this module only carries them out.
//!
//! The rule is *whoever holds the shard lock may touch the core*. An
//! agent-scoped request runs to completion on the connection thread that
//! read it: parse, route to the owning shard on the ring, pass that
//! shard's admission guard (`overloaded`, `shutting_down`), take the
//! shard lock, `serve_request`, unlock, encode, write — no queue, no
//! second thread, no reply channel. The order of application is the
//! order in which the lock was taken, which is the order the journal and
//! the WAL record, so replay stays bit-identical. The shard's own thread
//! calls the same function under the same lock for what is *pushed* to
//! it: fleet ops (which must be abandonable at the tick budget),
//! journaled reallotments, probes, `shutdown`, and heartbeats. A WAL
//! checkpoint is taken inline by whichever thread applies the event that
//! makes it due: it streams from the engine's borrowed state, so it costs
//! a connection thread no more memory than the shard thread. A
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
//! [`ServiceCore`], shard lock and thread, admission guard, and WAL
//! directory. There is one code path for every N. Connection threads
//! hash each agent-bearing request to its owning shard through a seeded
//! consistent-hash ring ([`crate::shard::HashRing`]) and serve it there.
//! Fleet ops — `tick`, `query` without an agent, `snapshot`, `journal`,
//! `metrics`, `scrub`, `promote`, `shutdown` — fan out to every shard's
//! thread and reply `{ok, <merged scalars>, shards:[...]}` with each
//! shard's reply tagged with its index, or, when no shard answered `ok`,
//! with the first shard's error ([`crate::router::fleet_reply`]). After
//! every fleet-wide epoch a coordinator ([`crate::shard::Coordinator`])
//! rebalances capacity allotments between shards from their aggregate
//! demand, delivering each change as a journaled `reallot` event so every
//! shard's WAL stays a complete, byte-for-byte replayable history. One
//! clock thread runs the timed epochs and the supervisor's sweep, which
//! restarts a panicked shard in place from its WAL or probes one Down on
//! timeouts.

use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ref_market::{AgentId, MarketConfig, MarketEvent};

use crate::bus::{Admitted, Bus, Quotas, SendError};
use crate::clock::{Clock, RealClock};
use crate::core::{JournalLimit, ServiceCore};
use crate::fault::FaultPlan;
use crate::json::Value;
use crate::metrics::{ServeMetrics, ServeMetricsSnapshot};
use crate::protocol::{
    error_response, ok_response, parse_request, shard_unavailable_response, write_line, Envelope,
    Request, MAX_REQUEST_LINE,
};
use crate::repl::{
    fence_notify, reap_finished, repl_acceptor_loop, standby_loop, ReplConfig, ReplShared, Role,
};
use crate::repl_core::Promotion;
use crate::router::{
    asks, fleet_reply, tick_reply, AfterPanic, Duty, Readmit, RouterCore, SWEEP_EVERY,
};
use crate::shard::{default_quorum, shard_market_config, HashRing, ShardHealth, RING_SEED};
use crate::storage::FsStorage;
use crate::wal::{self, WalConfig};

/// Retry hint attached to `overloaded` and `shard_unavailable` responses,
/// in milliseconds.
const RETRY_AFTER_MS: u64 = 5;

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
    /// Per-class quotas of in-flight requests (the backpressure bound).
    pub quotas: Quotas,
    /// Maximum simultaneously open connections; further accepts are
    /// bounced with `overloaded`.
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
    /// replicated pair per shard instead.
    pub shards: usize,
    /// When this server fronts exactly one shard of an externally
    /// sharded deployment, tags `not_primary` redirects (and `ping`)
    /// with that shard index so clients scope their leader hints.
    pub shard_tag: Option<u64>,
    /// Cross-shard coordination audit: after the coordinator's warmup
    /// rounds, the temporal drift between shard allotments and the
    /// instantaneous fair targets must stay within this fraction of
    /// total capacity.
    pub drift_bound: f64,
    /// How long the router waits for any one shard's tick reply before
    /// declaring the tick missed. A budget far below the 30 s a pushed
    /// request waits for its reply keeps one slow shard from stalling
    /// the fleet clock.
    pub shard_tick_budget: Duration,
    /// The clock that heartbeat, election, and timed-epoch scheduling
    /// read. `RealClock` (the default) is a zero-cost monotonic
    /// reading; the deterministic simulator substitutes virtual time.
    /// The seam covers time *reads* — blocking waits stay real.
    pub clock: Arc<dyn Clock>,
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
            quotas: Quotas::default(),
            max_connections: 256,
            journal_limit: JournalLimit::default(),
            wal: None,
            repl: None,
            faults: FaultPlan::default(),
            shards: 1,
            shard_tag: None,
            drift_bound: 0.25,
            shard_tick_budget: Duration::from_secs(5),
            clock: Arc::new(RealClock),
            rng_seed: 0x5EED,
        }
    }

    /// Substitutes the clock behind heartbeat/election/epoch timing.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> ServeConfig {
        self.clock = clock;
        self
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

    /// Sets the per-class quotas.
    pub fn with_quotas(mut self, quotas: Quotas) -> ServeConfig {
        self.quotas = quotas;
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

    /// Tags this server as one shard of an externally sharded fleet.
    pub fn with_shard_tag(mut self, shard: u64) -> ServeConfig {
        self.shard_tag = Some(shard);
        self
    }

    /// Sets the cross-shard temporal-drift audit bound.
    pub fn with_drift_bound(mut self, bound: f64) -> ServeConfig {
        self.drift_bound = bound;
        self
    }

    /// Sets the per-shard tick budget of the fleet clock.
    pub fn with_shard_tick_budget(mut self, budget: Duration) -> ServeConfig {
        self.shard_tick_budget = budget;
        self
    }
}

/// A request pushed to a shard's own thread, with where to send the
/// response.
pub(crate) struct Item {
    request: Request,
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
    /// Market counters at shutdown, as their stable JSON line.
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
    /// The shard's market counters, as their stable JSON line.
    pub market_metrics_json: String,
}

/// What the shard lock guards.
pub(crate) struct ShardCell {
    /// `None` only while a restart that could not recover the shard's
    /// WAL waits for the supervisor's next attempt.
    pub(crate) core: Option<ServiceCore>,
    /// Set by a panic under the lock: the engine may have missed an
    /// event the WAL already holds — the durable log, not this process,
    /// is the source of truth — so the shard refuses every request until
    /// it is restarted from that log.
    pub(crate) degraded: bool,
}

pub(crate) struct Shared {
    /// This shard's index.
    shard: usize,
    /// The router core, which a panic under the lock notifies at once.
    node: Arc<Mutex<RouterCore>>,
    pub(crate) bus: Bus<Item>,
    cell: Mutex<ShardCell>,
    pub(crate) metrics: ServeMetrics,
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
    /// Aggregate demand (per-resource sum of reported elasticities),
    /// refreshed after every epoch; the cross-shard coordinator's input.
    pub(crate) demand: Mutex<Vec<f64>>,
    /// The [`RouterCore`]'s assessment of this shard ([`ShardHealth`]
    /// as its `u64` repr), published after every transition of the core
    /// so dispatch and fans read it without a lock.
    pub(crate) health: AtomicU64,
}

impl Shared {
    /// Runs `step` on the shard's cell under the shard lock — the only
    /// way to the core. A panic in `step` stops here (`None`): it is
    /// counted, the shard turns degraded, the router core is told (and a
    /// node it says to stop leading stops), and since the guard does not
    /// unwind the lock is not poisoned.
    pub(crate) fn locked<R>(&self, step: impl FnOnce(&mut ShardCell) -> R) -> Option<R> {
        let mut cell = self
            .cell
            .lock()
            .expect("a panic under the shard lock is caught before the guard unwinds");
        let outcome = catch_unwind(AssertUnwindSafe(|| step(&mut cell)));
        if outcome.is_err() {
            ServeMetrics::bump(&self.metrics.ticker_panics);
            self.metrics.degraded.store(1, Ordering::SeqCst);
            cell.degraded = true;
            let after = {
                let mut node = self.node.lock().expect("router lock poisoned");
                let after = node.panicked(self.shard);
                self.health
                    .store(node.health(self.shard) as u64, Ordering::SeqCst);
                after
            };
            if let (AfterPanic::StopLeading, Some(repl)) = (after, &self.repl) {
                repl.mark_down(&self.metrics);
            }
        }
        if let Some(core) = &cell.core {
            self.epoch.store(core.engine().epoch(), Ordering::SeqCst);
            self.wal_seq.store(core.events_applied(), Ordering::SeqCst);
        }
        outcome.ok()
    }

    /// The router core's published assessment of this shard.
    pub(crate) fn health(&self) -> ShardHealth {
        ShardHealth::from_u64(self.health.load(Ordering::SeqCst))
    }
}

/// Router state shared by the acceptor and every reader: the shards,
/// the placement ring, and the routing state machine (health, quorum
/// gate, coordinator, supervision), locked once per fleet tick.
pub(crate) struct Router {
    pub(crate) shards: Vec<Arc<Shared>>,
    pub(crate) ring: HashRing,
    pub(crate) stop: AtomicBool,
    pub(crate) open_connections: AtomicUsize,
    pub(crate) started: Instant,
    pub(crate) core: Arc<Mutex<RouterCore>>,
    /// Reply channels of reallotments pushed and not yet answered. The
    /// bus is FIFO, so each is answered before the next tick the fan
    /// pushes to its shard: the fan collects them without waiting.
    deliveries: Mutex<Vec<(usize, mpsc::Receiver<Value>)>>,
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
        self.shards[0].repl.as_ref().is_none_or(|repl| repl.leads())
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

    /// Pushes a reallotment to `shard`'s thread as a journaled control
    /// event, keeping the reply for [`Router::delivery_replies`].
    fn reallot(&self, shard: usize, capacity: Vec<f64>) {
        if let Some(rx) = push_internal(&self.shards[shard], Request::Reallot { capacity }, None) {
            self.deliveries
                .lock()
                .expect("delivery lock poisoned")
                .push((shard, rx));
        }
    }

    /// The replies to reallotments that are in, by shard. (A channel
    /// closed unanswered belongs to a shard thread that has retired.)
    fn delivery_replies(&self) -> Vec<(usize, Value)> {
        let mut replies = Vec::new();
        let mut pending = self.deliveries.lock().expect("delivery lock poisoned");
        pending.retain(|(shard, rx)| match rx.try_recv() {
            Ok(reply) => {
                replies.push((*shard, reply));
                false
            }
            Err(closed) => closed == mpsc::TryRecvError::Empty,
        });
        replies
    }

    /// Carries out a [`Readmit`]: the re-offer, then the catch-up ticks,
    /// queued on the shard's thread ahead of anything pushed later.
    fn rejoin(&self, readmit: Readmit) {
        if let Some(capacity) = readmit.capacity {
            self.reallot(readmit.shard, capacity);
        }
        for _ in 0..readmit.catch_up {
            push_internal(&self.shards[readmit.shard], Request::Tick, None);
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
                 pair per shard (ServeConfig::with_shard_tag) instead of \
                 replicating a sharded router",
            ));
        }
        let n = config.shards;
        // A credit market meters each agent's delivered utility against
        // the equal share of its own shard's capacity. When the equal
        // split is inexact in floating point ((c / n) * n != c), the
        // per-shard entitlement baselines no longer sum to the advertised
        // cluster capacity, so cross-shard credit balances stop being
        // comparable — reject loudly instead of serving a subtly skewed
        // market.
        if config.market.mechanism.credit_weighted() {
            for (r, &c) in config.market.capacity.as_slice().iter().enumerate() {
                let split = c / n as f64;
                if split * n as f64 != c {
                    return Err(invalid(&format!(
                        "mechanism {} over {n} shards needs an exact capacity \
                         split: resource {r} capacity {c} does not divide \
                         evenly (pick a capacity divisible by the shard count)",
                        config.market.mechanism.label()
                    )));
                }
            }
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
        // capacity split (the coordinator reallots from there) and owns
        // its own WAL directory, so crash recovery and replay stay
        // strictly per shard.
        let metrics: Vec<ServeMetrics> = (0..n).map(|_| ServeMetrics::new()).collect();
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
                    Arc::clone(&config.clock),
                    config.rng_seed,
                ));
                repl.set_self_addrs(addr.to_string(), repl_addr.to_string());
                cores[0].attach_repl(Arc::clone(&repl));
                Some((repl, repl_listener, repl_addr))
            }
            None => None,
        };

        let resources = config.market.capacity.num_resources();
        let node = Arc::new(Mutex::new(
            RouterCore::new(
                config.market.capacity.as_slice().to_vec(),
                n,
                config.drift_bound,
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
                Arc::new(Shared {
                    shard,
                    node: Arc::clone(&node),
                    bus: Bus::new(config.quotas),
                    metrics,
                    stop: AtomicBool::new(false),
                    repl: if shard == 0 {
                        repl_setup.as_ref().map(|(repl, _, _)| Arc::clone(repl))
                    } else {
                        None
                    },
                    epoch: AtomicU64::new(core.engine().epoch()),
                    wal_seq: AtomicU64::new(core.events_applied()),
                    demand: Mutex::new(vec![0.0; resources]),
                    health: AtomicU64::new(ShardHealth::Healthy as u64),
                    cell: Mutex::new(ShardCell {
                        core: Some(core),
                        degraded: false,
                    }),
                })
            })
            .collect();
        let router = Arc::new(Router {
            ring: HashRing::new(n, RING_SEED),
            stop: AtomicBool::new(false),
            open_connections: AtomicUsize::new(0),
            started: Instant::now(),
            core: node,
            deliveries: Mutex::new(Vec::new()),
            shards,
        });
        let readers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let repl_handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let shard_threads: Vec<JoinHandle<()>> = router
            .shards
            .iter()
            .enumerate()
            .map(|(shard, shared)| {
                let shared = Arc::clone(shared);
                let config = config.clone();
                std::thread::Builder::new()
                    .name(format!("ref-serve-shard-{shard}"))
                    .spawn(move || shard_loop(shard, &shared, &config))
                    .expect("spawn shard thread")
            })
            .collect();
        // The only epoch clock: it fans synchronized ticks to every
        // shard, so epochs advance in lockstep fleet-wide.
        let clock = {
            let router = Arc::clone(&router);
            let config = config.clone();
            std::thread::Builder::new()
                .name("ref-serve-clock".to_string())
                .spawn(move || clock_loop(&router, &config))
                .expect("spawn clock")
        };
        let acceptor = {
            let router = Arc::clone(&router);
            let readers = Arc::clone(&readers);
            let config = config.clone();
            std::thread::Builder::new()
                .name("ref-serve-acceptor".to_string())
                .spawn(move || acceptor_loop(listener, &router, &readers, &config))
                .expect("spawn acceptor")
        };

        let mut repl_addr = None;
        let mut repl_threads = Vec::new();
        if let Some((repl, repl_listener, bound)) = repl_setup {
            repl_addr = Some(bound);
            {
                let shared = Arc::clone(&router.shards[0]);
                let handlers = Arc::clone(&repl_handlers);
                repl_threads.push(
                    std::thread::Builder::new()
                        .name("ref-serve-repl-accept".to_string())
                        .spawn(move || repl_acceptor_loop(repl_listener, &shared, &handlers))
                        .expect("spawn repl acceptor"),
                );
            }
            if repl.config().standby_of.is_some() {
                let shared = Arc::clone(&router.shards[0]);
                repl_threads.push(
                    std::thread::Builder::new()
                        .name("ref-serve-standby".to_string())
                        .spawn(move || standby_loop(&shared))
                        .expect("spawn standby puller"),
                );
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
            .map_or(0, |repl| repl.term())
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

    /// The cross-shard coordinator's status.
    #[cfg(test)]
    pub(crate) fn coordination(&self) -> crate::shard::CoordinationStatus {
        self.router.drive(|core| core.status())
    }

    /// Gracefully stops the server: drains every admitted request, runs
    /// no further epochs, flushes a final snapshot, joins all threads.
    pub fn shutdown(self) -> ShutdownReport {
        // Closing the bus is the drain signal: unlike a synthetic
        // shutdown item, it cannot be bounced by a full control quota,
        // and it is a no-op if a wire shutdown already closed the bus.
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
                let core = shared.locked(|cell| cell.core.take()).flatten();
                match core {
                    Some(core) => ShardShutdown {
                        shard,
                        snapshot: core.final_snapshot(),
                        journal: core.journal(),
                        journal_overflowed: core.journal_overflowed(),
                        metrics: shared.metrics.snapshot(),
                        market_metrics_json: core.engine().metrics().to_json(),
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
        reap_finished(readers);
        ServeMetrics::bump(&router.metrics().connections);
        if router.open_connections.load(Ordering::SeqCst) >= config.max_connections {
            ServeMetrics::bump(&router.metrics().rejected_overload);
            let bounce = error_response(
                "overloaded",
                Some("connection limit reached"),
                Some(RETRY_AFTER_MS),
            );
            let _ = write_line(&mut stream, &mut Vec::new(), &bounce.encode());
            continue;
        }
        router.open_connections.fetch_add(1, Ordering::SeqCst);
        let router = Arc::clone(router);
        let config = config.clone();
        let handle = std::thread::Builder::new()
            .name("ref-serve-conn".to_string())
            .spawn(move || {
                // The slot guard releases the connection count even if
                // the reader panics, and the panic is contained here: a
                // poisoned connection dies alone.
                let _slot = ConnectionSlot(Arc::clone(&router));
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    reader_loop(&stream, &router, &config);
                }));
                if outcome.is_err() {
                    ServeMetrics::bump(&router.metrics().reader_panics);
                }
                // The socket closes only here, after the count: a client
                // that sees its connection die finds the panic counted.
                drop(stream);
            })
            .expect("spawn reader");
        readers
            .lock()
            .expect("thread registry lock poisoned")
            .push(handle);
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
    let mut out = Vec::new();
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
            let _ = write_line(&mut writer, &mut out, &response.encode());
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
            // A request is in flight, and counts against its class
            // quota, until its reply has been written.
            let mut in_flight = None;
            let response = dispatch(text, router, config, &mut in_flight);
            if write_line(&mut writer, &mut out, &response.encode()).is_err() {
                return;
            }
        }
        line.clear();
    }
}

/// Parses, admits, routes and serves one request line; always produces a
/// response. Agent-scoped requests hash to their owning shard, `tick`
/// fans to every shard and runs the coordination step, and the other
/// fleet ops aggregate shard-tagged answers.
fn dispatch<'r>(
    line: &str,
    router: &'r Arc<Router>,
    config: &ServeConfig,
    in_flight: &mut Option<Admitted<'r, Item>>,
) -> Value {
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
        // Answered from exported atomics, without admission or the
        // shard lock: liveness probes must work even when the quotas are
        // full or an epoch holds the lock — that is exactly when you
        // probe.
        ServeMetrics::bump(&router.metrics().accepted);
        return ping_response(router, config, agent);
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
            dispatch_to_shard(shared, shard, envelope, config, in_flight)
        }
        // The coordinator owns capacity splits; an out-of-band reallot
        // would silently fight it.
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
            let replies = fan(router, &envelope.request, envelope.deadline_ms, wait);
            merge_fanned(&envelope.request, replies)
        }
        Request::Ping { .. } => unreachable!("ping answered above"),
    }
}

/// Serves one agent-scoped request to completion on the calling
/// (connection) thread: admission guard, shard lock, [`serve_request`].
fn dispatch_to_shard<'r>(
    shared: &'r Arc<Shared>,
    shard: usize,
    envelope: Envelope,
    config: &ServeConfig,
    in_flight: &mut Option<Admitted<'r, Item>>,
) -> Value {
    let deadline = envelope
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let admitted = match shared.bus.admit(envelope.request.class()) {
        Ok(admitted) => in_flight.insert(admitted),
        Err(SendError::Full(_)) => {
            ServeMetrics::bump(&shared.metrics.rejected_overload);
            let depth = shared.bus.depth();
            shared
                .metrics
                .queue_depth
                .store(depth as u64, Ordering::SeqCst);
            return error_response(
                "overloaded",
                None,
                Some(retry_hint(RETRY_AFTER_MS, depth, config.quotas)),
            );
        }
        Err(SendError::Closed) => {
            ServeMetrics::bump(&shared.metrics.rejected_shutdown);
            return error_response("shutting_down", None, None);
        }
    };
    ServeMetrics::bump(&shared.metrics.accepted);
    shared.metrics.observe_depth(admitted.depth as u64);
    shared
        .metrics
        .queue_depth
        .store(admitted.depth as u64, Ordering::Relaxed);
    serve_locked(shared, shard, &envelope.request, deadline, config)
}

/// [`serve_request`] under the shard lock. A reply lost to a panic (the
/// shard is degraded by now) or to an injected drop is answered
/// `internal`: that request is the one casualty.
fn serve_locked(
    shared: &Shared,
    shard: usize,
    request: &Request,
    deadline: Option<Instant>,
    config: &ServeConfig,
) -> Value {
    shared
        .locked(|cell| serve_request(cell, shard, request, deadline, shared, config))
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

/// Scales the configured retry hint by how many requests the rejecting
/// shard has in flight relative to its total quota, capped at one
/// second: a shard that is barely over quota asks clients back soon, a
/// drowning one sheds them for longer.
fn retry_hint(base_ms: u64, depth: usize, quotas: Quotas) -> u64 {
    let base = base_ms.max(1);
    let quota = (quotas
        .control
        .saturating_add(quotas.observe)
        .saturating_add(quotas.query))
    .max(1) as u64;
    base.saturating_add(base.saturating_mul(depth as u64) / quota)
        .min(1000)
}

/// Fans one request to every shard's own thread (quota-exempt:
/// fleet-wide control must not be bounced by one shard's backpressure;
/// on the shard thread, not this one: a shard that overruns `wait` is
/// abandoned, not waited out) and collects the replies here, each wave
/// against one deadline, `wait` after the wave was asked. A shard the
/// core says not to ask ([`asks`]) is answered with `shard_unavailable`,
/// and a shard that is already shut down answers with a placeholder error
/// instead of stalling the fan-out.
fn fan(
    router: &Arc<Router>,
    request: &Request,
    deadline_ms: Option<u64>,
    wait: Duration,
) -> Vec<Value> {
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    // Fan in waves no wider than the worker pool: asking every shard
    // at once makes more shard threads runnable than the host has cores, and
    // the preempt-interleaved epochs evict each other's caches — on a
    // single-core host that alone costs ~20% of the audit throughput.
    // Waves keep at most the pool's width of epochs in flight, which is
    // also the most that can genuinely run in parallel.
    let shards: Vec<(usize, &Arc<Shared>)> = router.shards.iter().enumerate().collect();
    let mut replies = Vec::with_capacity(shards.len());
    for wave in shards.chunks(ref_pool::threads().clamp(1, shards.len())) {
        let cutoff = Instant::now() + wait;
        let asked: Vec<Result<mpsc::Receiver<Value>, Value>> = (wave.iter())
            .map(|&(shard, shared)| {
                if asks(shared.health(), request) {
                    push_item(shared, request.clone(), deadline)
                        .ok_or_else(|| error_response("shutting_down", None, None))
                } else {
                    Err(shard_unavailable_response(shard as u64, RETRY_AFTER_MS))
                }
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

/// Pushes one of the server's own requests (reallotments, catch-up
/// ticks, probes) to a shard's thread, quota exempt. The queue is FIFO,
/// so it is served before anything pushed later. Fire-and-forget callers
/// drop the returned receiver and the shard thread's reply send fails
/// harmlessly. `None` if the bus is closed.
fn push_internal(
    shared: &Shared,
    request: Request,
    deadline: Option<Instant>,
) -> Option<mpsc::Receiver<Value>> {
    let (reply, rx) = mpsc::channel();
    let item = Item {
        request,
        deadline,
        reply,
    };
    shared.bus.push(item).ok().map(|()| rx)
}

/// [`push_internal`] for a client's request, which is counted.
fn push_item(
    shared: &Shared,
    request: Request,
    deadline: Option<Instant>,
) -> Option<mpsc::Receiver<Value>> {
    let rx = push_internal(shared, request, deadline);
    ServeMetrics::bump(match rx {
        Some(_) => &shared.metrics.accepted,
        None => &shared.metrics.rejected_shutdown,
    });
    rx
}

/// Fans an epoch tick to every shard and hands the replies and the
/// fresh demand summaries to the [`RouterCore`], which assesses shard
/// health (`Healthy → Suspect → Down`), gates the cross-shard
/// coordination step on the quorum, and says which reallotments to
/// deliver. Those are pushed as journaled control events on each
/// shard's own thread, so they land before the next epoch and replay
/// bit-identically; their replies reach the core with the next round,
/// so a shard that failed to journal one is offered it again. The merged
/// reply carries the combined report —
/// marked `partial` with the missing shard ids when any shard missed
/// the tick — plus the coordinator's drift audit.
fn fan_tick(router: &Arc<Router>, deadline_ms: Option<u64>, config: &ServeConfig) -> Value {
    // The tick budget caps how long any one shard may hold up the fleet
    // clock; a client deadline can only tighten it further.
    let wait = reply_wait(deadline_ms).min(config.shard_tick_budget);
    let replies = fan(router, &Request::Tick, deadline_ms, wait);
    let demands: Vec<Vec<f64>> = router
        .shards
        .iter()
        .map(|shared| shared.demand.lock().expect("demand lock poisoned").clone())
        .collect();
    let delivered = router.delivery_replies();
    let mut round = router.drive(|core| {
        for (shard, reply) in &delivered {
            core.delivered(*shard, reply);
        }
        core.tick_round(&replies, &demands)
    });
    for (shard, capacity) in std::mem::take(&mut round.reallots) {
        router.reallot(shard, capacity);
    }
    let metrics = router.metrics();
    metrics
        .shards_down
        .store(round.down as u64, Ordering::SeqCst);
    if round.frozen {
        ServeMetrics::bump(&metrics.quorum_freezes);
    }
    if !round.missing.is_empty() {
        ServeMetrics::bump(&metrics.partial_epochs);
    }
    tick_reply(replies, &round)
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
        let now = config.clock.now();
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
        // Sleeps no longer than a sweep keep shutdown latency bounded
        // (and re-read a virtual clock promptly).
        let now = config.clock.now();
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
    shared.locked(|cell| {
        // Shutdown wins over a restart: the drain retires what is there.
        if shared.bus.is_closed() {
            return;
        }
        cell.core = None;
        // The recovered core runs with a disarmed fault plan: every armed
        // fault already fired (that is why we are here), and re-arming
        // append/sync faults against the replayed sequence numbers would
        // re-break the shard on its first post-recovery event.
        let Ok(core) = open_core(config, shard, FaultPlan::none(), &shared.metrics) else {
            ServeMetrics::bump(&shared.metrics.wal_errors);
            return;
        };
        let epoch = core.engine().epoch();
        router.rejoin(router.drive(|node| node.recovered(shard, epoch)));
        cell.core = Some(core);
        cell.degraded = false;
        shared.metrics.degraded.store(0, Ordering::SeqCst);
        ServeMetrics::bump(&router.metrics().shard_restarts);
    });
}

/// Probes a shard Down on tick timeouts alone — it may simply have been
/// slow, not dead — with a quick query, and readmits it if the core says
/// so.
fn probe_shard(router: &Arc<Router>, shard: usize) {
    let Some(rx) = push_internal(&router.shards[shard], Request::Query { agent: None }, None)
    else {
        return;
    };
    let reply = await_reply(&rx, Duration::from_millis(100));
    if let Some(readmit) = router.drive(|core| core.probed(shard, &reply)) {
        router.rejoin(readmit);
    }
}

/// Answers a `ping` from transport-visible state alone (no engine
/// access): role, term, progress, uptime, and shard placement.
fn ping_response(router: &Arc<Router>, config: &ServeConfig, agent: Option<AgentId>) -> Value {
    let first = &router.shards[0];
    let mut fields = Vec::new();
    match first.repl.as_ref() {
        Some(repl) => {
            fields.push(("role", Value::str(repl.role().as_str())));
            fields.push(("term", Value::from_u64(repl.term())));
            if let Some(leader) = repl.leader_client() {
                fields.push(("leader", Value::str(leader)));
            }
            fields.push(("standbys", Value::from_u64(repl.standby_count())));
        }
        None => {
            fields.push(("role", Value::str("primary")));
            fields.push(("term", Value::from_u64(0)));
        }
    }
    fields.push((
        "epoch",
        Value::from_u64(
            router
                .shards
                .iter()
                .map(|s| s.epoch.load(Ordering::SeqCst))
                .max()
                .unwrap_or(0),
        ),
    ));
    fields.push((
        "wal_seq",
        Value::from_u64(first.wal_seq.load(Ordering::SeqCst)),
    ));
    fields.push((
        "uptime_ms",
        Value::from_u64(
            router
                .started
                .elapsed()
                .as_millis()
                .min(u128::from(u64::MAX)) as u64,
        ),
    ));
    fields.push(("shards", Value::from_u64(router.shards.len() as u64)));
    fields.push((
        "wal_seqs",
        Value::Arr(
            router
                .shards
                .iter()
                .map(|s| Value::from_u64(s.wal_seq.load(Ordering::SeqCst)))
                .collect(),
        ),
    ));
    fields.push((
        "shard_health",
        Value::Arr(
            router
                .shards
                .iter()
                .map(|s| Value::str(s.health().as_str()))
                .collect(),
        ),
    ));
    if let Some(agent) = agent {
        fields.push((
            "shard_of",
            Value::from_u64(router.ring.shard_of(agent) as u64),
        ));
    }
    if let Some(tag) = config.shard_tag {
        fields.push(("shard_tag", Value::from_u64(tag)));
    }
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
        let now = config.clock.now();
        let park = match (shared.repl.as_ref(), beat_at) {
            (Some(_), Some(at)) if now < at => at - now,
            (Some(repl), _) => {
                let next = repl.heartbeat(&shared.metrics);
                beat_at = next.map(|park| now + park);
                next.unwrap_or(IDLE_PARK)
            }
            (None, _) => IDLE_PARK,
        };
        if !shared.bus.is_closed() && !park.is_zero() {
            // The park itself is a real (blocking) wait even under a
            // virtual clock; it is interrupted by any push, and the next
            // pass's timer re-reads the configured clock.
            shared.bus.wait(park);
        }

        for item in shared.bus.drain() {
            if matches!(item.request, Request::Shutdown) {
                // Stop admitting; everything already admitted is still
                // served, and the reply waits for the retirement.
                shared.bus.close();
                shutdown_replies.push(item.reply);
                continue;
            }
            let response = serve_locked(shared, shard, &item.request, item.deadline, config);
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
            let farewell = shared.locked(|cell| {
                shared.stop.store(true, Ordering::SeqCst);
                let core = cell.core.as_ref()?;
                Some(ok_response(vec![
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

/// Serves one request on the shard's core; the caller holds the shard
/// lock (see [`Shared::locked`]), which is what makes this the only
/// place requests meet the engine, whichever thread runs it. `None`
/// when the reply is (by injection) lost after the work was done.
fn serve_request(
    cell: &mut ShardCell,
    shard: usize,
    request: &Request,
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
    if matches!(request, Request::Promote) {
        return Some(handle_promote(shared));
    }
    // A degraded shard's engine is behind its log: it serves nothing
    // until the supervisor has restarted it.
    let (false, Some(core)) = (cell.degraded, cell.core.as_mut()) else {
        return Some(shard_unavailable_response(shard as u64, RETRY_AFTER_MS));
    };
    if request.bears_event() {
        // Role gate: only a primary mutates, and a recovered one only
        // once its lease is over. Standbys redirect the client to the
        // leader; a fenced node refuses outright.
        let refusal = shared
            .repl
            .as_ref()
            .and_then(|repl| repl.admit_mutation(&shared.metrics, config.shard_tag));
        if refusal.is_some() {
            return refusal;
        }
    }
    let is_tick = matches!(request, Request::Tick);
    if is_tick && config.faults.is_armed() {
        if let Some((s, e, delay_ms)) = config.faults.slow_shard_tick {
            // Stall *before* the tick that would close epoch `e` is
            // applied: the router's budget expires while the shard's
            // durable state is still behind.
            if shard as u64 == s && core.engine().epoch() + 1 == e {
                std::thread::sleep(Duration::from_millis(delay_ms));
            }
        }
    }
    let response = core.handle(request, &shared.metrics);
    if is_tick {
        // Refresh this shard's demand summary *before* replying, so the
        // router's coordination step — which runs after all tick replies
        // are in — reads post-epoch demand, never stale.
        *shared.demand.lock().expect("demand lock poisoned") = core.engine().aggregate_demand();
        if config.faults.is_armed() {
            if let Some((s, e)) = config.faults.panic_shard_ticker {
                // Panic *after* the tick is durable: recovery must
                // replay it bit-identically. Cannot re-fire after a
                // restart — the recovered engine is already past `e`.
                if shard as u64 == s && core.engine().epoch() == e {
                    panic!("injected shard panic after epoch {e}");
                }
            }
            if let Some((s, e)) = config.faults.drop_tick_reply {
                // Durable work done, reply lost: the router sees a
                // failed tick while the shard's state stays consistent.
                if shard as u64 == s && core.engine().epoch() == e {
                    return None;
                }
            }
        }
    }
    Some(response)
}

/// Performs a standby→primary promotion; the caller holds the shard
/// lock, so the role flip is serialized with event application. Bumps
/// the term, flips the role, wakes the shard thread (whose timer then
/// calls for a heartbeat), and best-effort
/// deposes the old primary by presenting it the new term.
pub(crate) fn handle_promote(shared: &Shared) -> Value {
    let Some(repl) = shared.repl.as_ref() else {
        return error_response("protocol", Some("replication is not configured"), None);
    };
    let standing = |term: u64| {
        ok_response(vec![
            ("role", Value::str("primary")),
            ("term", Value::from_u64(term)),
        ])
    };
    match repl.promote(&shared.metrics) {
        Promotion::Fenced => error_response(
            "fenced",
            Some("this node was deposed or diverged; it cannot be promoted"),
            None,
        ),
        // Idempotent: promoting a primary reports its standing.
        Promotion::Standing(term) => standing(term),
        Promotion::Promoted { term, depose } => {
            shared.bus.wake();
            if let Some((addr, hello)) = depose {
                // Detached: never hold the shard lock through a dead
                // peer's TCP timeout.
                let _ = std::thread::Builder::new()
                    .name("ref-serve-fence".to_string())
                    .spawn(move || fence_notify(addr, hello));
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
        let report = server.shutdown();
        assert_eq!(report.metrics.protocol_errors, 0);
        assert!(report.snapshot.starts_with("refmarket-snapshot"));
        // join, join, 20 ticks, query is not journaled, leave.
        assert_eq!(report.journal.len(), 23);
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
    fn shutdown_succeeds_even_with_a_zero_control_quota() {
        // Regression: shutdown() used a synthetic Shutdown item that a
        // full (here: zero) control quota could bounce, leaving collect()
        // joining a ticker that never drained.
        let market = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).unwrap());
        let config = ServeConfig::new(market)
            .with_epoch_interval(None)
            .with_quotas(Quotas {
                control: 0,
                observe: 1,
                query: 1,
            });
        let server = Server::start("127.0.0.1:0", config).unwrap();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let report = server.shutdown();
            let _ = tx.send(report);
        });
        let report = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("shutdown hung with an exhausted control quota");
        assert!(report.snapshot.starts_with("refmarket-snapshot"));
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
        assert!(tick.get("drift").is_some(), "{tick}");
        assert_eq!(
            tick.get("drift_bound_ok").and_then(Value::as_bool),
            Some(true),
            "{tick}"
        );
        // The merged report carries the fleet-wide SI/EF/PE audit.
        let fairness = tick.get("report").and_then(|r| r.get("fairness")).unwrap();
        for property in ["sharing_incentives", "envy_free", "pareto_efficient"] {
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
            while server.coordination().rounds < 5 {
                assert!(Instant::now() < deadline, "coordinator never ticked");
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

    #[test]
    fn retry_hints_scale_with_queue_depth() {
        let quotas = Quotas {
            control: 8,
            observe: 8,
            query: 8,
        };
        let calm = retry_hint(25, 0, quotas);
        assert_eq!(calm, 25);
        let busy = retry_hint(25, 24, quotas);
        assert!(busy > calm, "busy={busy} calm={calm}");
        // The hint saturates instead of growing without bound.
        assert_eq!(retry_hint(25, usize::MAX, quotas), 1000);
        // A zero configured hint still yields a positive, finite hint.
        assert!(retry_hint(0, 5, quotas) >= 1);
    }

    #[test]
    fn coordinator_reallotments_shift_capacity_toward_demand() {
        // Two shards; all load on the agents of one of them. After a few
        // coordinated epochs the loaded shard's capacity allotment must
        // exceed the idle shard's.
        let server = Server::start("127.0.0.1:0", sharded_config(2)).unwrap();
        let ring = HashRing::new(2, RING_SEED);
        let mut client = Client::connect(server.addr()).unwrap();
        let mut joined = 0u64;
        let mut agent = 0u64;
        while joined < 8 {
            if ring.shard_of(agent) == 0 {
                client.join_truth(agent, 1.0, &[0.7, 0.3]).unwrap();
                joined += 1;
            }
            agent += 1;
        }
        for _ in 0..12 {
            client.tick().unwrap();
        }
        let status = server.coordination();
        assert!(status.rounds >= 12, "{status:?}");
        let report = server.shutdown();
        // Shard 0 received reallotments granting it more than the equal
        // split; shard 1 was cut below it.
        let realloted: Vec<&Vec<f64>> = report.shards[0]
            .journal
            .iter()
            .filter_map(|e| match e {
                MarketEvent::CapacityRealloted { capacity } => Some(capacity),
                _ => None,
            })
            .collect();
        assert!(!realloted.is_empty(), "coordinator never realloted");
        let last = realloted.last().unwrap();
        assert!(last[0] > 12.0, "loaded shard allotment {last:?}");
    }

    #[test]
    fn a_reallotment_a_shard_failed_to_journal_is_offered_again() {
        // Two WAL shards, one agent each with opposite demand: every
        // round moves capacity until the damped coordinator converges,
        // and both shards journal the same sequence of events.
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
            for _ in 0..rounds {
                client.tick().unwrap();
            }
            let allotments = server.coordination().allotments;
            let journals: Vec<Vec<MarketEvent>> = (server.shutdown().shards.into_iter())
                .map(|shard| shard.journal)
                .collect();
            let _ = std::fs::remove_dir_all(&dir);
            (journals, allotments)
        };
        let realloted = |journal: &[MarketEvent]| -> Vec<(usize, Vec<f64>)> {
            (journal.iter().enumerate())
                .filter_map(|(seq, event)| match event {
                    MarketEvent::CapacityRealloted { capacity } => Some((seq, capacity.clone())),
                    _ => None,
                })
                .collect()
        };
        // A fault-free run finds the sequence of the last reallotment —
        // the one no later round would repeat by itself.
        let (journals, _) = run(FaultPlan::default(), 40);
        let (last, _) = realloted(&journals[0]).pop().expect("capacity moved");
        assert!(realloted(&journals[1]).iter().any(|(seq, _)| *seq == last));

        // Both shards fail to journal it; the rounds that follow must
        // offer it again.
        let faults = FaultPlan {
            fail_append_at: Some(last as u64),
            ..FaultPlan::default()
        };
        let (journals, allotments) = run(faults, 45);
        let total = [24.0, 12.0];
        for (shard, journal) in journals.iter().enumerate() {
            let capacity = realloted(journal)
                .pop()
                .map_or(vec![12.0, 6.0], |(_, capacity)| capacity);
            for r in 0..2 {
                // The coordinator withholds moves below 1e-4 of the total.
                let gap = (capacity[r] - allotments[shard][r]).abs();
                assert!(
                    gap <= 1e-4 * total[r],
                    "shard {shard} resource {r}: capacity {capacity:?}, allotment {:?}",
                    allotments[shard]
                );
            }
        }
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
        // fleet exactly at quorum, so reallotment keeps running while
        // every merged report is stamped partial.
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
        client.tick().unwrap();
        let tick = client.tick().unwrap();
        let report = tick.get("report").expect("merged report");
        assert_eq!(report.get("partial"), Some(&Value::Bool(true)), "{tick}");
        let status = server.coordination();
        assert_eq!(status.rounds, 2, "{status:?}");
        let metrics = server.metrics();
        assert!(metrics.partial_epochs >= 2, "{metrics:?}");
        assert_eq!(metrics.quorum_freezes, 0, "{metrics:?}");
        assert_eq!(metrics.shards_down, 1, "{metrics:?}");
        server.shutdown();
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
        client.tick().unwrap();
        client.tick().unwrap();
        let status = server.coordination();
        assert_eq!(status.rounds, 0, "{status:?}");
        let metrics = server.metrics();
        assert_eq!(metrics.quorum_freezes, 2, "{metrics:?}");
        server.shutdown();
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
