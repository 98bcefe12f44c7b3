//! The simulated fleet: sharded cores, a replicated pair per shard, a
//! router, scripted clients — all single-threaded on virtual time.
//!
//! Every node is the server's own [`Node`] over a real [`ServiceCore`]
//! recovered through a [`SimDisk`], so the WAL codec, checkpointing,
//! pruning, recovery, scrub, and the market engine all run production
//! code, and so does the composition: the role gate, append, publish,
//! apply and fingerprint of a request, the held reply, the standby's
//! apply and ack, the hand-over from catch-up to live — each decided by
//! the real [`ReplCore`] and replication sessions. The fleet's health
//! tracking, quorum gate, closed-form allotments and fencing-token floor
//! are the real [`RouterCore`]'s, and a fleet tick is the server's own
//! [`fleet_round`]. So are the node rules: when the router fans a timed
//! tick, which shards a fan skips, when a Down shard is probed, whether
//! a panicked shard is restarted in place or failed over, how a
//! recovered shard is caught up, and when a node heartbeats, re-dials or
//! elects itself. This file only *drives* them: it schedules faults and
//! client requests, moves frames through [`SimNet`], reads [`SimClock`],
//! owns what a connection is (open or reset), plays operator (which role
//! a restarted node is booted into), and judges the invariants. It
//! decides no reply.
//!
//! Pruning takes a log's head off the disk, so the oracle keeps each
//! node's *lineage*: its log from event 0, extended with every record
//! its WAL takes, replaced by the sender's prefix on a `snap` restore,
//! and checked against what the disk still holds after every run. An
//! append that poisoned a log has an unknown outcome: the lineage takes
//! that one event only if the node's recovered log shows it whole.
//! After every schedule the standing invariants are checked:
//!
//! 1. **Zero acked-event loss** — every event a client saw confirmed is
//!    in the authoritative primary's lineage, bit-identical.
//! 2. **Bit-identical replay** — each live node's engine equals an
//!    offline [`replay`] of its lineage from event 0, and what recovery
//!    rebuilds from its disk's checkpoint and tail.
//! 3. **Divergence fencing** — a replica that corrupted an apply is
//!    fenced and never promoted.
//! 4. **Capacity conservation** — in every round, the capacities the
//!    shards that ticked allocated at sum, in shard order, to at most the
//!    fleet's capacity, with no tolerance: a frozen round, a silent
//!    shard or a refused reallotment never lets two rounds' splits meet.
//! 5. **No phantom audits** — fleet temporal-SI accounting never folds
//!    in epochs from a partial (below-full-report) round.
//! 6. **Liveness** — after the settle, every shard has a routable
//!    primary and the last round reported every shard.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ref_core::resource::Capacity;
use ref_market::{MarketConfig, MarketEvent};
use ref_serve::node::{fleet_round, Fan, Follow, Hold, Node, Peer, Replication, Served};
use ref_serve::protocol::{error_response, event_to_value, shard_unavailable_response};
use ref_serve::repl::{parse_frame, Frame};
use ref_serve::repl_core::{Ack, AckWait, Hello, Promotion, Timer};
use ref_serve::router::{asks, AfterPanic, Duty, Readmit};
use ref_serve::shard::mix64;
use ref_serve::wal::read_events_with;
use ref_serve::{
    decode_frame, default_quorum, replay, shard_market_config, Clock, FaultPlan, FrameDecode,
    HashRing, JournalLimit, ReplConfig, ReplCore, Request, Role, RouterCore, ServeMetrics,
    ServiceCore, Value, WalConfig,
};

use crate::disk::SimDisk;
use crate::net::SimNet;
use crate::schedule::{generate, FaultOp, Op, Schedule, NODES, REPLICAS, SHARDS, TICK_EVERY};
use crate::sim::{SimClock, SimRng, Trace};

/// Every simulated node is one half of a replicated pair.
const REPLICATED: &str = "every simulated node is replicated";
/// Event-loop granularity.
const STEP: Duration = Duration::from_micros(500);
/// Primary heartbeat cadence.
const HB_EVERY: Duration = Duration::from_millis(10);
/// Base election timeout (the core jitters it up to 1.5× per boot).
const ELECTION_BASE: Duration = Duration::from_millis(50);
/// How long a primary holds a client reply for the standby's ack.
const ACK_TIMEOUT: Duration = Duration::from_millis(25);
/// How long a primary's catch-up read of its log takes: live records
/// appended meanwhile wait in the session's hold, and going live skips
/// the ones the read already covered.
const CATCH_UP: Duration = Duration::from_millis(3);
/// WAL segment size: small enough that pruning puts a standby behind
/// the log often, so the quick sweep keeps ~30 `snap` bootstraps.
const SEGMENT_BYTES: u64 = 32;
/// Delay before a node crashed by a poisoned WAL recovers.
const POISON_RESTART: Duration = Duration::from_millis(40);
/// Fault-free convergence window after the scripted horizon.
const SETTLE: Duration = Duration::from_millis(220);

/// Which invariant to deliberately break (test-only): proves the sweep
/// catches violations and reproduces them bit-identically from a seed.
/// Each is implemented *here*, by overriding a verdict the cores
/// return — no test-only flag enters the cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakKind {
    /// Release client replies without waiting for the standby's ack —
    /// failovers then lose acked events.
    AckUnreplicated,
    /// Fold per-shard fairness audits into the fleet view even on
    /// partial rounds — phantom temporal-SI accounting.
    SiDuringPartial,
    /// Keep a panicked primary leading — its heartbeats keep its standby
    /// from electing itself, so the shard never comes back.
    HeartbeatWhileDown,
}

/// Simulation options.
#[derive(Debug, Clone, Default)]
pub struct SimOptions {
    /// Shorter horizon for CI smoke sweeps.
    pub quick: bool,
    /// Deliberately broken invariant (test-only).
    pub break_invariant: Option<BreakKind>,
}

/// The result of simulating one seed.
#[derive(Debug)]
pub struct RunOutcome {
    /// The seed simulated.
    pub seed: u64,
    /// Fault classes the schedule mixed in.
    pub classes: Vec<String>,
    /// Observable simulator events (trace entries).
    pub sim_events: u64,
    /// FNV-1a hash over the whole trace — the determinism oracle.
    pub trace_hash: u64,
    /// Invariant violations (empty on a healthy run).
    pub violations: Vec<String>,
    /// The per-event trace, chronological.
    pub trace: Vec<String>,
    /// Client events confirmed replicated (or confirmed solo-durable).
    pub acked_events: u64,
    /// Coordination rounds frozen below quorum.
    pub quorum_freezes: u64,
    /// Coordination rounds missing at least one shard's report.
    pub partial_rounds: u64,
    /// `snap` bootstraps standbys applied.
    pub restores: u64,
    /// Live records a primary held for a standby still catching up.
    pub held: u64,
}

/// The frames a simulated primary sent its standby since the event loop
/// last moved them onto the [`SimNet`].
#[derive(Debug, Default)]
struct Outbox(Vec<Vec<u8>>);

impl Peer for Outbox {
    fn send(&mut self, frame: &[u8]) -> bool {
        self.0.push(frame.to_vec());
        true
    }
}

/// One simulated machine: the server's [`Node`] over its own disk, and
/// what the oracle knows about it.
#[derive(Debug)]
struct Host {
    dir: PathBuf,
    disk: SimDisk,
    metrics: ServeMetrics,
    /// The replica. Its replication machine is rebuilt on every boot,
    /// with the role and term it had carried over the restart, as if the
    /// node kept them on disk (the threaded server does not: see
    /// DESIGN.md §15). Its session with the peer is opened by an
    /// accepted handshake and gone on *observable* events only — a close
    /// from either end (see [`Sim::close`]) that got through.
    node: Node<Replication<Outbox>>,
    /// The primary's session with the standby, while it is open.
    session: Option<u64>,
    boots: u64,
    /// When the open session's catch-up reads the log, and the `have`
    /// it reads from.
    catch_up: Option<(Duration, u64)>,
    /// The oracle's copy of this node's log from event 0, which pruning
    /// takes off the disk: extended by every record the WAL takes,
    /// replaced by the sender's prefix on a `snap` restore, cut back to
    /// what recovery found on boot (or extended by an `unknown` append
    /// recovery found whole).
    lineage: Vec<MarketEvent>,
    /// Ground truth: a corrupting fault was injected into this replica.
    diverged: bool,
    promoted_ever: bool,
    /// A bit flip landed on this node's disk (scrub must notice).
    bitflip_hit: bool,
    /// The append that poisoned this node's log, as `(seq, event)`: its
    /// outcome is unknown until the node recovers and its log shows
    /// whether the record landed whole.
    unknown: Option<(u64, MarketEvent)>,
}

impl Host {
    fn half(&mut self) -> &mut Replication<Outbox> {
        self.node.link.as_mut().expect(REPLICATED)
    }

    /// Its end of the replication connection closed: its session as a
    /// primary, and its following as a standby, are over.
    fn hang_up(&mut self) {
        if let Some(id) = self.session.take() {
            self.half().retire(id, None);
        }
        self.catch_up = None;
        self.half().repl.hang_up();
    }

    fn repl(&self) -> &ReplCore {
        &self.node.link.as_ref().expect(REPLICATED).repl
    }
}

/// A client mutation whose reply the primary is holding for the ack.
#[derive(Debug)]
struct Pending {
    primary: usize,
    hold: Hold,
    deadline: Duration,
    event: MarketEvent,
}

#[derive(Debug)]
struct AckedEvent {
    shard: usize,
    seq: u64,
    event: MarketEvent,
}

struct Sim {
    seed: u64,
    opts: SimOptions,
    schedule: Schedule,
    next_op: usize,
    clock: SimClock,
    rng: SimRng,
    net: SimNet,
    trace: Trace,
    hosts: Vec<Host>,
    ring: HashRing,
    router: RouterCore,
    shard_config: MarketConfig,
    total_capacity: Vec<f64>,
    /// The node (and its boot count) each shard was last served by; a
    /// change means the shard is served from a recovered WAL.
    known_primary: [Option<(usize, u64)>; SHARDS],
    round: u64,
    /// What the shards that ticked this round allocated at, summed.
    allocated: Vec<f64>,
    /// Shards the latest round heard no report from.
    last_missing: Vec<u64>,
    pending: Vec<Pending>,
    acked: Vec<AckedEvent>,
    violations: Vec<String>,
    quorum_freezes: u64,
    partial_rounds: u64,
    fleet_temporal_si: u64,
    si_partial_accruals: u64,
    pending_restarts: Vec<(Duration, usize)>,
    /// `(sender, seq)` → the sender's lineage below `seq`, captured when
    /// its `snap` frame was built.
    snap_prefixes: BTreeMap<(usize, u64), Vec<MarketEvent>>,
    restores: u64,
}

/// Node `id`'s WAL. Shard 0's nodes prune what each checkpoint covers,
/// so a standby behind the retained log is bootstrapped from a `snap`;
/// shard 1's keep their history, so there is a covered checkpoint for
/// the bit-flip class to rot (pruned, a log has none).
fn wal_config(id: usize, dir: &std::path::Path) -> WalConfig {
    WalConfig::new(dir.to_path_buf())
        .with_checkpoint_every(4)
        .with_segment_max_bytes(SEGMENT_BYTES)
        .with_fsync(true)
        .with_retain_history(id / REPLICAS == 1)
}

/// The "address" of node `id` (leader hints are strings).
fn addr(id: usize) -> String {
    format!("n{id}")
}

/// The replication config node `id` boots with in `role` (a fenced node
/// is booted as a standby and fenced again).
fn repl_config(id: usize, role: Role) -> ReplConfig {
    let config = match role {
        Role::Primary => ReplConfig::primary(addr(id)),
        Role::Standby | Role::Fenced => ReplConfig::standby(addr(id), addr(id ^ 1)),
    };
    config
        .with_election_timeout(ELECTION_BASE)
        .with_heartbeat_interval(HB_EVERY)
}

fn is_ok(reply: &Value) -> bool {
    reply.get("ok").and_then(Value::as_bool) == Some(true)
}

/// What a shard nobody serves answers: its tick budget lapses.
fn timeout() -> Value {
    error_response("timeout", None, None)
}

/// Simulates one seed end to end and checks every standing invariant.
pub fn run_seed(seed: u64, opts: &SimOptions) -> RunOutcome {
    let mut sim = Sim::new(seed, opts.clone());
    sim.run_script();
    sim.settle();
    sim.check_invariants();
    sim.finish()
}

impl Sim {
    fn new(seed: u64, opts: SimOptions) -> Sim {
        let schedule = generate(seed, opts.quick);
        let base = MarketConfig::new(Capacity::new(vec![24.0, 12.0]).expect("capacity"));
        let total_capacity = base.capacity.as_slice().to_vec();
        let shard_config = shard_market_config(&base, SHARDS);
        let clock = SimClock::new();
        let mut rng = SimRng::new(seed);
        let net = SimNet::new(
            Duration::from_millis(1),
            Duration::from_millis(2),
            0.005,
            0.01,
        );
        let mut trace = Trace::new();
        trace.push(
            Duration::ZERO,
            format!(
                "boot seed={seed} classes={:?} agents={} horizon={}ms",
                schedule.classes,
                schedule.agents,
                schedule.horizon.as_millis()
            ),
        );
        let hosts = (0..NODES)
            .map(|id| {
                let role = if id % REPLICAS == 0 {
                    Role::Primary
                } else {
                    Role::Standby
                };
                let repl = ReplCore::new(&repl_config(id, role), 0, 0, 0, Duration::ZERO);
                let link = Replication::new(repl, Arc::new(clock.clone()));
                Host {
                    dir: PathBuf::from(format!("/sim/node-{id}")),
                    disk: SimDisk::new(),
                    metrics: ServeMetrics::new(),
                    node: Node::new(id / REPLICAS, None, Some(link)),
                    boots: 0,
                    catch_up: None,
                    session: None,
                    lineage: Vec::new(),
                    diverged: false,
                    promoted_ever: false,
                    bitflip_hit: false,
                    unknown: None,
                }
            })
            .collect();
        let _ = rng.next_u64(); // reserve a draw for future layout changes
        let mut sim = Sim {
            seed,
            opts,
            schedule,
            next_op: 0,
            clock,
            rng,
            net,
            trace,
            hosts,
            ring: HashRing::new(SHARDS, 0xD5),
            router: RouterCore::new(total_capacity.clone(), SHARDS, default_quorum(SHARDS), 2)
                .with_node(true, true, Some(TICK_EVERY)),
            shard_config,
            allocated: Vec::new(),
            total_capacity,
            known_primary: [None; SHARDS],
            round: 0,
            last_missing: Vec::new(),
            pending: Vec::new(),
            acked: Vec::new(),
            violations: Vec::new(),
            quorum_freezes: 0,
            partial_rounds: 0,
            fleet_temporal_si: 0,
            si_partial_accruals: 0,
            pending_restarts: Vec::new(),
            snap_prefixes: BTreeMap::new(),
            restores: 0,
        };
        for id in 0..NODES {
            let role = sim.hosts[id].repl().role();
            sim.boot_node(id, role);
        }
        sim
    }

    fn now(&self) -> Duration {
        self.clock.now()
    }

    /// Appends `line` to the trace at the current instant.
    fn note(&mut self, line: String) {
        let now = self.now();
        self.trace.push(now, line);
    }

    fn violation(&mut self, msg: String) {
        self.note(format!("VIOLATION: {msg}"));
        self.violations.push(msg);
    }

    /// Opens the node's core from its disk the way the server does
    /// ([`ServiceCore::open`]), then builds the replication machine for
    /// `role` at the term the node had before it went down.
    fn boot_node(&mut self, id: usize, role: Role) {
        let now = self.now();
        let scrubbed = self.hosts[id].metrics.snapshot().wal_scrub_errors;
        let opened = self.open(id, self.hosts[id].disk.clone(), &self.hosts[id].metrics);
        let host = &mut self.hosts[id];
        match opened {
            Ok(core) => {
                let scrub_errors = host.metrics.snapshot().wal_scrub_errors - scrubbed;
                host.boots += 1;
                let (term, seq) = (host.repl().term(), core.events_applied());
                let jitter_seed = mix64(self.seed ^ ((id as u64) << 32) ^ host.boots);
                let mut repl = ReplCore::new(&repl_config(id, role), jitter_seed, term, seq, now);
                repl.set_addrs(addr(id), addr(id));
                if role == Role::Fenced {
                    repl.fence(term);
                }
                host.half().repl = repl;
                host.hang_up();
                host.lineage.truncate(seq as usize);
                // An append whose outcome was unknown (it poisoned the
                // log) counts as whatever the recovered log shows: that
                // exact event at that sequence, or nothing.
                let unknown = host.unknown.take().map(|(at, event)| {
                    let landed = at + 1 == seq
                        && host.lineage.len() as u64 == at
                        && read_events_with(&host.disk, &host.dir)
                            .is_ok_and(|(_, log)| log.last() == Some(&event));
                    if landed {
                        host.lineage.push(event);
                    }
                    (at, landed)
                });
                // Recovery replays the WAL from disk, so any in-memory
                // corruption injected before the crash is gone: the
                // rebooted replica is genuinely clean again.
                host.diverged = false;
                host.node.restart(core);
                self.note(format!(
                    "n{id} boot role={role:?} term={term} seq={seq} scrub_errors={scrub_errors}"
                ));
                if let Some((at, landed)) = unknown {
                    self.note(format!("n{id} unknown append seq={at} landed={landed}"));
                }
            }
            Err(e) => {
                self.note(format!("n{id} recovery FAILED: {e}"));
                self.violation(format!(
                    "node {id} failed to recover from its own disk: {e}"
                ));
            }
        }
    }

    /// Opens node `id`'s core from `disk` the way the server does
    /// ([`ServiceCore::open`]).
    fn open(&self, id: usize, disk: SimDisk, metrics: &ServeMetrics) -> io::Result<ServiceCore> {
        let wal = wal_config(id, &self.hosts[id].dir);
        let (config, limit) = (self.shard_config.clone(), JournalLimit::default());
        let (disk, faults) = (Arc::new(disk), FaultPlan::default());
        ServiceCore::open(disk, config, limit, wal, faults, metrics)
    }

    fn send_frame(&mut self, from: usize, to: usize, frame: Vec<u8>) {
        let now = self.now();
        self.net.send(now, from, to, frame, &mut self.rng);
    }

    /// Sends what node `id` sent its standby since the last look, and
    /// closes a session its rules killed.
    fn flush(&mut self, id: usize) {
        let host = &mut self.hosts[id];
        let open = |s| host.node.link.as_ref().expect(REPLICATED).is_open(s);
        let killed = host.session.is_some_and(|s| !open(s));
        let mut frames = Vec::new();
        for out in host.half().peers() {
            frames.append(&mut out.0);
        }
        for frame in frames {
            self.send_frame(id, id ^ 1, frame);
        }
        if killed {
            self.close(id);
        }
    }

    fn alive(&self, id: usize) -> bool {
        self.hosts[id].node.core().is_some()
    }

    fn applied(&self, id: usize) -> u64 {
        self.hosts[id]
            .node
            .core()
            .map_or(0, ServiceCore::events_applied)
    }

    /// The primary the router serves `shard` from: the [`RouterCore`]
    /// picks among the shard's live nodes (what a `ping` of each would
    /// report) and holds its fencing-token floor.
    fn route(&mut self, shard: usize) -> Option<usize> {
        let hosts = &self.hosts;
        let candidates = (shard * REPLICAS..(shard + 1) * REPLICAS)
            .filter(|id| hosts[*id].node.core().is_some())
            .map(|id| (id, hosts[id].repl().role(), hosts[id].repl().term()));
        self.router.pick_primary(shard, candidates)
    }

    /// Puts one request to node `id` the way its server would: the
    /// [`Node`] serves it, a client's reply is held for the standby's
    /// ack, and a poisoned log crashes the node.
    fn primary_apply(&mut self, id: usize, req: &Request, client: bool) -> Value {
        let host = &mut self.hosts[id];
        let served = host.node.serve(req, &host.metrics);
        self.after_serve(id, req.to_event(), served, client)
    }

    /// Carries out what serving `event` did to node `id`: the frames it
    /// sent, the oracle's lineage, the client's held reply, and a crash.
    fn after_serve(
        &mut self,
        id: usize,
        event: Option<MarketEvent>,
        served: Served,
        client: bool,
    ) -> Value {
        let now = self.now();
        if served.refused {
            let code = served.reply.get("error").and_then(Value::as_str);
            self.note(format!("n{id} refuses: {}", code.unwrap_or("")));
        }
        let Served {
            reply, hold, crash, ..
        } = served;
        self.flush(id);
        if reply.get("outcome").and_then(Value::as_str) == Some("unknown") {
            self.hosts[id].unknown = event.clone().map(|event| (self.applied(id), event));
        }
        if let (Some(event), Some(hold)) = (event, hold) {
            self.hosts[id].lineage.push(event.clone());
            if client {
                let deadline = now + ACK_TIMEOUT;
                (self.pending).push(Pending {
                    primary: id,
                    hold,
                    deadline,
                    event,
                });
            }
            self.release_acks(id);
        }
        if crash {
            self.poisoned(id, "wal poisoned: crashing for recovery");
        }
        reply
    }

    /// Releases every held client reply the node says may go: acked by
    /// the standby, or published with no session live (solo durability).
    fn release_acks(&mut self, primary: usize) {
        let node = &mut self.hosts[primary].node;
        let broken = self.opts.break_invariant == Some(BreakKind::AckUnreplicated);
        let mut released = Vec::new();
        self.pending.retain(|p| {
            if p.primary != primary {
                return true;
            }
            // BROKEN (test-only): override the node's verdict and release
            // before the standby confirms — a failover inside the
            // replication window now loses the acked tail.
            let verdict = match node.released(p.hold) {
                AckWait::Pending if broken => AckWait::Acked,
                verdict => verdict,
            };
            if verdict != AckWait::Pending {
                released.push((verdict, p.hold.target - 1, p.event.clone()));
            }
            verdict == AckWait::Pending
        });
        for (verdict, seq, event) in released {
            self.note(format!("n{primary} acked seq={seq} ({verdict:?})"));
            let shard = primary / REPLICAS;
            self.acked.push(AckedEvent { shard, seq, event });
        }
    }

    /// Node `id`'s log is poisoned: it crashes, and recovers from the
    /// log a little later, as an operator would have it.
    fn poisoned(&mut self, id: usize, why: &str) {
        self.note(format!("n{id} {why}"));
        self.crash(id);
        let at = self.now() + POISON_RESTART;
        self.pending_restarts.push((at, id));
    }

    fn crash(&mut self, id: usize) {
        if !self.alive(id) {
            return;
        }
        self.hosts[id].node.crash();
        // Clients talking to a crashed primary get connection drops,
        // never acks.
        self.pending.retain(|p| p.primary != id);
        self.note(format!("n{id} crash"));
        // A dead peer is observable (connection reset) over an open link.
        self.close(id);
    }

    /// `node`'s end of its replication connection closes: it is done
    /// with it at once — its session as a primary, its following as a
    /// standby — and its peer is when the close gets through, which it
    /// does not across a cut link.
    fn close(&mut self, node: usize) {
        let now = self.now();
        for end in [node, node ^ 1] {
            if end == node || !self.net.is_cut(node, end, now) {
                self.hosts[end].hang_up();
            }
        }
    }

    /// Restarts a node the way an operator would: as a standby of its
    /// peer when that peer is serving at no lower a term, else in the
    /// role it went down with (a primary resumes — under the core's
    /// recovery lease; a standby whose primary is also down waits, since
    /// self-appointing could resurrect a log missing solo-acked events).
    /// A standby dials its primary on its core's first timer.
    fn restart(&mut self, id: usize) {
        if self.alive(id) {
            return;
        }
        let peer = self.hosts[id ^ 1].repl();
        let rejoin = self.alive(id ^ 1)
            && peer.role() == Role::Primary
            && peer.term() >= self.hosts[id].repl().term();
        let role = if rejoin {
            Role::Standby
        } else {
            self.hosts[id].repl().role()
        };
        self.boot_node(id, role);
    }

    // ------------------------------------------------------------------
    // Frame handling: every verdict is the node's.
    // ------------------------------------------------------------------

    fn on_frame(&mut self, from: usize, to: usize, frame: &[u8]) {
        let FrameDecode::Complete { payload, .. } = decode_frame(frame) else {
            return;
        };
        let Some(frame) = parse_frame(payload) else {
            return;
        };
        if !self.alive(to) {
            return;
        }
        let now = self.now();
        let was = self.hosts[to].repl().role();
        let what = frame.kind().to_string();
        match frame {
            Frame::Msg(msg) if what == "hello" => {
                match self.hosts[to].half().accept(&msg, Outbox::default()) {
                    // The session holds live records from now on; its
                    // catch-up reads the log `CATCH_UP` later.
                    (Hello::Accept { have, meta }, id) => {
                        self.send_frame(to, from, meta);
                        // A new connection replaces the one before it.
                        let host = &mut self.hosts[to];
                        if let Some(old) = std::mem::replace(&mut host.session, id) {
                            host.half().retire(old, None);
                        }
                        host.catch_up = Some((now + CATCH_UP, have));
                    }
                    (Hello::Refuse(refusal), _) => self.send_frame(to, from, refusal),
                }
            }
            // Acks ride the replication connection: none arrives once
            // the primary considers it reset.
            Frame::Msg(msg) if what == "ack" && self.hosts[to].session.is_some() => {
                let id = self.hosts[to].session.expect("checked");
                match self.hosts[to].half().ack(id, &msg) {
                    Ack::Ignored => {}
                    Ack::Progress(_) => self.release_acks(to),
                    Ack::Diverged { have, notice } => {
                        self.note(format!("n{to} divergence detected: n{from} at have={have}"));
                        // The real primary closes the socket after the
                        // notice; the close is observed as reliably as the
                        // notice, so the pair rides a reliable send.
                        self.net.send_reliable(now, to, from, notice);
                        self.close(to);
                    }
                }
            }
            _ if what == "ack" => {}
            frame => self.follow(from, to, frame, &what),
        }
        if was != Role::Fenced && self.hosts[to].repl().role() == Role::Fenced {
            self.close(to);
            self.note(format!("n{to} fenced: {what} notice from n{from}"));
        }
    }

    /// Carries out the standby's [`Node::follow`] of a frame: the ack it
    /// makes, or the hang-up — after which its timer re-dials; a poisoned
    /// WAL then crashes the node for recovery, as an operator would.
    fn follow(&mut self, from: usize, to: usize, frame: Frame, what: &str) {
        let record = match &frame {
            Frame::Rec { event, .. } => Some(event.clone()),
            Frame::Msg(_) => None,
        };
        let host = &mut self.hosts[to];
        match host.node.follow(frame, &addr(from), &host.metrics) {
            Follow::Reading => {}
            // A refusal closes a dial that opened no session.
            Follow::HangUp { resync: None, .. } if what == "refuse" => {
                host.half().repl.hang_up();
            }
            Follow::HangUp { resync: None, .. } => self.close(to),
            Follow::HangUp {
                resync: Some((seq, have)),
                crash,
            } => {
                self.note(format!("n{to} resync at seq={seq} have={have}"));
                self.close(to);
                if crash {
                    self.hosts[to].unknown = record.map(|event| (seq, event));
                    self.poisoned(to, "standby wal poisoned: crashing");
                }
            }
            Follow::Ack {
                seq,
                have,
                fresh,
                ack,
            } => {
                match (fresh, record) {
                    (false, _) => {}
                    (true, Some(event)) => host.lineage.push(event),
                    (true, None) => {
                        host.lineage = self.snap_prefixes[&(from, seq)].clone();
                        // The snapshot replaces the engine, as a reboot
                        // does: an apply corrupted before it, or armed to
                        // be, lies behind it.
                        host.diverged = false;
                        self.restores += 1;
                    }
                }
                self.note(format!("n{to} acks seq={seq} have={have}"));
                self.send_frame(to, from, ack);
            }
        }
    }

    /// `primary`'s catch-up of a standby at `have`: its session handed
    /// over from its own disk to live streaming.
    fn catch_up(&mut self, primary: usize, have: u64) {
        let standby = primary ^ 1;
        let host = &mut self.hosts[primary];
        let id = host
            .session
            .expect("a catch-up is scheduled for an open session");
        let link = host.node.link.as_mut().expect(REPLICATED);
        let read = link.catch_up(id, have, &host.disk, &host.dir);
        self.flush(primary);
        let (snap, upto) = match read {
            Ok(caught) => caught,
            Err(e) => {
                self.note(format!("n{primary} catch-up of n{standby} failed: {e}"));
                return self.close(primary);
            }
        };
        if let Some(seq) = snap {
            let lineage = &self.hosts[primary].lineage;
            let prefix = lineage.iter().take(seq as usize).cloned().collect();
            self.snap_prefixes.insert((primary, seq), prefix);
        }
        self.note(format!(
            "n{primary} caught n{standby} up: {have}..{upto} snap={snap:?}"
        ));
    }

    // ------------------------------------------------------------------
    // Clocks: every node's replication timer, ack deadlines, delayed
    // restarts, and the router's clock.
    // ------------------------------------------------------------------

    fn timers(&mut self) {
        let now = self.now();
        // Delayed restarts (poison crashes).
        let (due, later): (Vec<_>, Vec<_>) = std::mem::take(&mut self.pending_restarts)
            .into_iter()
            .partition(|(at, _)| *at <= now);
        self.pending_restarts = later;
        for (_, id) in due {
            self.restart(id);
        }
        for id in 0..NODES {
            if let Some((_, have)) = self.hosts[id].catch_up.take_if(|(at, _)| *at <= now) {
                self.catch_up(id, have);
            }
            if !self.alive(id) {
                continue;
            }
            // Heartbeats ride the replication connection, once its
            // catch-up is through: a primary with no session has no
            // socket to write them to, so a detached standby goes silent
            // and re-dials.
            match self.hosts[id].half().beat() {
                Timer::Heartbeat => self.flush(id),
                Timer::Elect => self.promote(id),
                Timer::Redial => {
                    let hello = self.hosts[id].half().repl.dial(now);
                    self.send_frame(id, id ^ 1, hello);
                }
                Timer::Idle(_) => {}
            }
        }
        // Ack deadlines: the client gets a loud replication error; the
        // event stays applied locally but is never ledgered as acked.
        let trace = &mut self.trace;
        self.pending.retain(|p| {
            if p.deadline <= now {
                let (primary, seq) = (p.primary, p.hold.target - 1);
                trace.push(
                    now,
                    format!("n{primary} ack timeout seq={seq}: not confirmed"),
                );
            }
            p.deadline > now
        });
        // The router is not replicated: it always leads.
        for duty in self.router.clock(now, true) {
            match duty {
                Duty::Tick => self.fleet_tick(),
                // Reboot the serving node from its own WAL, in its role.
                Duty::Restart(shard) => {
                    if let Some(p) = self.route(shard) {
                        self.crash(p);
                        self.restart(p);
                    }
                }
                Duty::Probe(shard) => {
                    let reply = self.ask(shard, &Request::Query { agent: None });
                    if let Some(readmit) = self.router.probed(shard, &reply) {
                        self.rejoin(readmit, "probe");
                    }
                }
            }
        }
    }

    fn promote(&mut self, id: usize) {
        if self.hosts[id].diverged {
            // The fencing invariant says this must be impossible: a
            // diverged replica is caught by the fingerprint channel
            // before its election timer can fire.
            self.violation(format!("diverged standby n{id} promoted itself"));
        }
        let host = &mut self.hosts[id];
        let Some(Promotion::Promoted { term, depose }) = host.node.elect(&host.metrics) else {
            return;
        };
        host.promoted_ever = true;
        self.note(format!("n{id} promote term={term}"));
        // Depose the old primary if it is somehow still reachable.
        if let Some((_, hello)) = depose {
            self.send_frame(id, id ^ 1, hello);
        }
    }

    // ------------------------------------------------------------------
    // The router: carry out the RouterCore's verdicts.
    // ------------------------------------------------------------------

    /// Carries out a [`Readmit`]: the catch-up ticks.
    fn rejoin(&mut self, readmit: Readmit, why: &str) {
        let shard = readmit.shard;
        self.note(format!(
            "router {why} shard={shard} catch-up={}",
            readmit.catch_up
        ));
        for _ in 0..readmit.catch_up {
            self.ask(shard, &Request::Tick);
        }
    }

    /// Tells the core which shards are now served from a recovered WAL:
    /// a new primary, or the same node rebooted.
    fn note_recoveries(&mut self) {
        for shard in 0..SHARDS {
            let Some(p) = self.route(shard) else { continue };
            let serving = (p, self.hosts[p].boots);
            if self.known_primary[shard]
                .replace(serving)
                .is_some_and(|was| was != serving)
            {
                let epoch = self.hosts[p].node.core().map(|c| c.engine().epoch());
                let readmit = self.router.recovered(shard, epoch.unwrap_or(0));
                self.rejoin(readmit, &format!("recovered via n{p}"));
            }
        }
    }

    /// A panic under the serving node's lock — the same notice
    /// `Shared::locked` feeds the core on a caught panic.
    fn panic(&mut self, id: usize) {
        let shard = id / REPLICAS;
        if self.hosts[id].node.is_down() || self.route(shard) != Some(id) {
            self.note(format!("panic n{id} skipped: not serving"));
            return;
        }
        ServeMetrics::bump(&self.hosts[id].metrics.ticker_panics);
        let after = self.router.panicked(shard);
        self.note(format!("n{id} panic shard={shard}: {after:?}"));
        let broken = self.opts.break_invariant == Some(BreakKind::HeartbeatWhileDown);
        if broken && after == AfterPanic::StopLeading {
            // BROKEN (test-only): override the verdict and keep
            // leading — the standby never elects.
            self.note(format!("n{id} BROKEN: heartbeats while Down"));
        }
        let stop_leading = after == AfterPanic::StopLeading && !broken;
        self.hosts[id].node.go_down(stop_leading);
    }

    /// Puts `request` to the node serving `shard`; with nobody to ask,
    /// the tick budget lapses.
    fn ask(&mut self, shard: usize, request: &Request) -> Value {
        match self.route(shard) {
            Some(p) => self.primary_apply(p, request, false),
            None => timeout(),
        }
    }

    /// A fleet tick for one shard: the serving node's [`Node::tick_at`],
    /// what it ticked at summed for invariant 4.
    fn tick_at(&mut self, shard: usize, capacity: Vec<f64>) -> Value {
        let Some(p) = self.route(shard) else {
            return timeout();
        };
        let host = &mut self.hosts[p];
        let (mut reply, mut ticked) = (Value::Null, false);
        for (request, served) in host.node.tick_at(&capacity, &host.metrics) {
            ticked = request == Request::Tick;
            reply = self.after_serve(p, request.to_event(), served, false);
        }
        if !ticked {
            let round = self.round;
            self.note(format!("round={round} shard={shard} reallot refused"));
        } else if is_ok(&reply) {
            for (sum, cap) in self.allocated.iter_mut().zip(capacity) {
                *sum += cap;
            }
        }
        reply
    }

    fn fleet_tick(&mut self) {
        self.round += 1;
        let round = self.round;
        self.note_recoveries();
        self.allocated = vec![0.0; self.total_capacity.len()];
        let (replies, verdict) = fleet_round(self, SHARDS);
        // 4. What the shards that ticked allocated at never sums above
        // the fleet's capacity.
        for (r, (sum, total)) in (self.allocated.clone().into_iter())
            .zip(self.total_capacity.clone())
            .enumerate()
        {
            if sum > total {
                self.violation(format!(
                    "round={round} capacity not conserved: resource {r} allocated {sum} of {total}"
                ));
            }
        }
        if !verdict.missing.is_empty() {
            self.partial_rounds += 1;
        }
        // Fleet fairness accounting: the core's verdict is that only a
        // full round may be merged — a partial fleet is phantom data.
        let si: u64 = replies
            .iter()
            .filter_map(|r| r.get("report")?.get("temporal_violations")?.as_u64())
            .sum();
        if verdict.missing.is_empty() {
            self.fleet_temporal_si += si;
        } else if self.opts.break_invariant == Some(BreakKind::SiDuringPartial) {
            // BROKEN (test-only): override the verdict.
            self.fleet_temporal_si += si;
            self.si_partial_accruals += 1;
            self.note(format!(
                "round={round} BROKEN: fairness merged while partial"
            ));
        }
        let ticked = SHARDS - verdict.missing.len();
        self.last_missing = verdict.missing;
        self.note(format!("round={round} ticked={ticked} si={si}"));
    }

    // ------------------------------------------------------------------
    // Scripted operations.
    // ------------------------------------------------------------------

    fn apply_client(&mut self, agent: u64, req: &Request) {
        let shard = self.ring.shard_of(agent);
        // Dispatch fails fast on a Down shard, like the real router.
        let primary = asks(self.router.health(shard), req)
            .then(|| self.route(shard))
            .flatten();
        let Some(p) = primary else {
            self.note(format!("client agent={agent} shard={shard} unavailable"));
            return;
        };
        let reply = self.primary_apply(p, req, true);
        self.note(format!(
            "client agent={agent} shard={shard} n{p} ok={}",
            is_ok(&reply)
        ));
    }

    fn apply_fault(&mut self, op: &FaultOp) {
        match op {
            FaultOp::Crash { node } => self.crash(*node),
            FaultOp::Restart { node } => self.restart(*node),
            FaultOp::Partition { shard, both } => {
                let p = self.known_primary[*shard].map_or(shard * REPLICAS, |(p, _)| p);
                let s = p ^ 1;
                self.net.cut(p, s, None);
                if *both {
                    self.net.cut(s, p, None);
                }
                self.note(format!("partition shard={shard} n{p}->n{s} both={both}"));
            }
            FaultOp::Heal { shard } => {
                let a = shard * REPLICAS;
                let b = a + 1;
                self.net.heal(a, b);
                self.net.heal(b, a);
                self.note(format!("heal shard={shard}"));
            }
            FaultOp::TornWrite { node } => {
                let keep = self.rng.range(1, 12) as usize;
                self.hosts[*node].disk.arm_torn_write(keep);
                self.note(format!("torn write armed n{node} keep={keep}"));
            }
            FaultOp::FailSync { node, n } => {
                self.hosts[*node].disk.fail_next_syncs(*n);
                self.note(format!("fsync failures armed n{node} n={n}"));
            }
            FaultOp::BitFlip { node } => {
                let dir = self.hosts[*node].dir.clone();
                let flipped = self.hosts[*node].disk.flip_bit_in_covered_checkpoint(&dir);
                self.hosts[*node].bitflip_hit |= flipped.is_some();
                let what = match &flipped {
                    Some(path) => format!(
                        "in {}",
                        path.file_name().unwrap_or_default().to_string_lossy()
                    ),
                    None => "skipped: no covered checkpoint".to_string(),
                };
                self.note(format!("bit flip n{node} {what}"));
            }
            FaultOp::Diverge { shard } => {
                let target = (shard * REPLICAS..shard * REPLICAS + REPLICAS)
                    .find(|id| self.hosts[*id].repl().role() == Role::Standby && self.alive(*id));
                let Some(id) = target else {
                    self.note(format!("diverge shard={shard} skipped: no standby"));
                    return;
                };
                let host = &mut self.hosts[id];
                let core = host.node.crash().expect("checked");
                let seq = core.events_applied();
                let plan = FaultPlan {
                    corrupt_standby_at: Some(seq),
                    ..FaultPlan::default()
                };
                host.node.restart(core.with_faults(plan));
                host.diverged = true;
                self.note(format!("diverge armed n{id} at seq={seq}"));
            }
            FaultOp::DelayBump { factor } => {
                self.net.base_delay *= *factor;
                self.net.jitter *= *factor;
                self.note(format!("delay bump x{factor}"));
            }
            FaultOp::Panic { node } => self.panic(*node),
        }
    }

    fn apply_op(&mut self, op: &Op) {
        match op {
            Op::Client { agent, request } => self.apply_client(*agent, request),
            Op::Fault(f) => self.apply_fault(f),
            Op::Scrub { node } => {
                let target = &mut self.hosts[*node];
                if let Some(core) = target.node.core_mut() {
                    let reply = core.handle(&Request::Scrub, &target.metrics);
                    let errors = reply
                        .get("errors")
                        .and_then(Value::as_array)
                        .map(<[Value]>::len);
                    self.note(format!("scrub n{node} errors={errors:?}"));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // The event loop.
    // ------------------------------------------------------------------

    fn step_to(&mut self, t: Duration) {
        self.clock.set(t);
        // Scheduled operations due at or before t.
        while let Some(due) = self.schedule.ops.get(self.next_op).filter(|s| s.at <= t) {
            let op = due.op.clone();
            self.next_op += 1;
            self.apply_op(&op);
        }
        // Network deliveries due at or before t.
        let packets = self.net.pop_due(t);
        for packet in packets {
            self.on_frame(packet.from, packet.to, &packet.frame);
        }
        self.timers();
    }

    fn run_script(&mut self) {
        let horizon = self.schedule.horizon;
        let mut t = Duration::ZERO;
        while t <= horizon {
            self.step_to(t);
            t += STEP;
        }
    }

    /// Heals everything, recovers every crashed node (a panicked one
    /// stays Down: failover is what must replace it), and runs a
    /// fault-free convergence window so elections, catch-ups, fencing,
    /// and reallotments all complete before the invariants are judged.
    fn settle(&mut self) {
        let start = self.now();
        self.net.heal_all();
        self.trace.push(start, "settle: heal all links".to_string());
        // The script is over: restart whatever is still down, whether
        // its restart was scripted, delayed by a poisoned WAL, or neither.
        self.next_op = self.schedule.ops.len();
        self.pending_restarts.clear();
        for id in 0..NODES {
            self.restart(id);
        }
        let end = start + SETTLE;
        let mut t = start;
        while t <= end {
            self.step_to(t);
            t += STEP;
        }
        // Two final full rounds over the quiesced fleet, each once
        // whatever is still in flight has drained.
        for round in 0..3 {
            for _ in 0..2000 {
                if self.net.in_flight() == 0 {
                    break;
                }
                t += STEP;
                self.step_to(t);
            }
            if round < 2 {
                self.fleet_tick();
            }
        }
    }

    // ------------------------------------------------------------------
    // Standing invariants.
    // ------------------------------------------------------------------

    /// Whose log the oracle judges acked events against: the primary the
    /// router serves the shard from, else the unfenced live node furthest
    /// along.
    fn authoritative(&mut self, shard: usize) -> Option<usize> {
        self.route(shard).or_else(|| {
            (shard * REPLICAS..shard * REPLICAS + REPLICAS)
                .filter(|id| self.alive(*id) && self.hosts[*id].repl().role() != Role::Fenced)
                .max_by_key(|id| (self.hosts[*id].repl().term(), self.applied(*id)))
        })
    }

    fn check_invariants(&mut self) {
        let mut found = Vec::new();
        // 0. The oracle's lineages are what the disks hold: the records a
        // WAL still holds are its lineage's tail, byte for byte.
        for (id, node) in self.hosts.iter().enumerate() {
            match read_events_with(&node.disk, &node.dir) {
                Ok((first, log)) if node.lineage.get(first as usize..) == Some(&log[..]) => {}
                Ok((first, log)) => found.push(format!(
                    "n{id} oracle lineage ({} events) disagrees with its log ({} from {first})",
                    node.lineage.len(),
                    log.len()
                )),
                Err(e) => found.push(format!("n{id} log unreadable: {e}")),
            }
        }
        // 1. Zero acked-event loss.
        for shard in 0..SHARDS {
            let auth = self.authoritative(shard);
            let acked = self.acked.iter().filter(|a| a.shard == shard);
            let Some(auth) = auth else {
                if acked.count() > 0 {
                    found.push(format!(
                        "shard {shard} acked events but has no authoritative node"
                    ));
                }
                continue;
            };
            let lineage = &self.hosts[auth].lineage;
            for a in acked {
                let held = lineage.get(a.seq as usize);
                if held != Some(&a.event) {
                    found.push(format!(
                        "acked event lost: shard {shard} seq {}: acked {}, n{auth} holds {:?}",
                        a.seq,
                        event_to_value(&a.event).encode(),
                        held.map(|e| event_to_value(e).encode())
                    ));
                }
            }
        }
        // 2. Bit-identical replay on every live, unfenced node: its
        // lineage replayed from event 0, and recovery from its disk's
        // checkpoint and tail, both land on its live state.
        for (id, node) in self.hosts.iter().enumerate() {
            let (Some(core), false) = (node.node.core(), node.repl().role() == Role::Fenced) else {
                continue;
            };
            let live = Ok(core.final_snapshot());
            let replayed = replay(self.shard_config.clone(), &node.lineage)
                .map(|engine| engine.snapshot().encode())
                .map_err(|e| e.to_string());
            // What recovery rebuilds from the disk right now: newest
            // checkpoint plus the log tail.
            let recovered = self.open(id, node.disk.fork(), &ServeMetrics::new());
            let recovered = recovered
                .map(|c| c.final_snapshot())
                .map_err(|e| e.to_string());
            for (how, state) in [("replay of its lineage", replayed), ("recovery", recovered)] {
                if state != live {
                    let why = state.map_or_else(|e| e, |_| "a different state".to_string());
                    found.push(format!("n{id} {how} diverges from its live state: {why}"));
                }
            }
        }
        // 3. Diverged replicas are fenced and never promoted.
        for (id, node) in self.hosts.iter().enumerate().filter(|(_, n)| n.diverged) {
            if node.promoted_ever {
                found.push(format!("diverged replica n{id} was promoted"));
            } else if node.node.core().is_some() && node.repl().role() != Role::Fenced {
                found.push(format!(
                    "diverged replica n{id} ended {:?}, expected Fenced",
                    node.repl().role()
                ));
            }
        }
        // 4 is judged in every round (`fleet_tick`).
        // 5. Temporal-SI accounting never accrued during partial rounds.
        if self.si_partial_accruals > 0 {
            let n = self.si_partial_accruals;
            found.push(format!("fleet fairness merged on {n} partial round(s)"));
        }
        // 6. Liveness: every shard is routable and reported last round.
        for shard in 0..SHARDS {
            if self.route(shard).is_none() {
                found.push(format!(
                    "shard {shard} has no routable primary after settle"
                ));
            }
        }
        if !self.last_missing.is_empty() {
            let missing = &self.last_missing;
            found.push(format!(
                "the last round missed shard(s) {missing:?} after settle"
            ));
        }
        // Scrub expectation: injected rot must have been found.
        for (id, node) in self.hosts.iter().enumerate().filter(|(_, n)| n.bitflip_hit) {
            if node.metrics.snapshot().wal_scrub_errors == 0 {
                found.push(format!("bit flip on n{id} never surfaced in a scrub"));
            }
        }
        for msg in found {
            self.violation(msg);
        }
        self.note(format!(
            "end acked={} rounds={} freezes={} partial={} si={} violations={}",
            self.acked.len(),
            self.round,
            self.quorum_freezes,
            self.partial_rounds,
            self.fleet_temporal_si,
            self.violations.len()
        ));
    }

    fn finish(self) -> RunOutcome {
        RunOutcome {
            seed: self.seed,
            classes: self
                .schedule
                .classes
                .iter()
                .map(|c| c.to_string())
                .collect(),
            sim_events: self.trace.events(),
            trace_hash: self.trace.hash(),
            violations: self.violations,
            trace: self.trace.into_lines(),
            acked_events: self.acked.len() as u64,
            quorum_freezes: self.quorum_freezes,
            partial_rounds: self.partial_rounds,
            restores: self.restores,
            held: (self.hosts.iter())
                .filter_map(|host| Some(host.node.link.as_ref()?.held))
                .sum(),
        }
    }
}

/// A fleet round in the simulator asks each shard's serving node in
/// turn.
impl Fan for Sim {
    fn router<T>(&mut self, step: impl FnOnce(&mut RouterCore) -> T) -> T {
        step(&mut self.router)
    }

    /// Each shard's serving node's [`Node::demand`].
    fn demand(&mut self) -> Vec<Result<Vec<f64>, Value>> {
        let read = |sim: &mut Sim, shard: usize| {
            if !asks(sim.router.health(shard), &Request::Tick) {
                return Err(shard_unavailable_response(shard as u64, 0));
            }
            let serving = sim.route(shard);
            serving.map_or_else(|| Err(timeout()), |p| sim.hosts[p].node.demand())
        };
        (0..SHARDS).map(|shard| read(self, shard)).collect()
    }

    fn froze(&mut self, reported: usize) {
        self.quorum_freezes += 1;
        let round = self.round;
        self.note(format!("round={round} quorum freeze ({reported}/{SHARDS})"));
    }

    fn tick(&mut self, asks: Vec<Result<Option<Vec<f64>>, Value>>) -> Vec<Value> {
        let ask = |sim: &mut Sim, (shard, ask)| match ask {
            Err(report) => report,
            Ok(None) => sim.ask(shard, &Request::Tick),
            Ok(Some(capacity)) => sim.tick_at(shard, capacity),
        };
        asks.into_iter().enumerate().map(|a| ask(self, a)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SimOptions {
        SimOptions {
            quick: true,
            break_invariant: None,
        }
    }

    #[test]
    fn clean_seed_holds_every_invariant_and_reproduces() {
        let a = run_seed(0, &quick());
        assert!(a.violations.is_empty(), "violations: {:?}", a.violations);
        assert!(
            a.sim_events > 50,
            "suspiciously quiet run: {}",
            a.sim_events
        );
        let b = run_seed(0, &quick());
        assert_eq!(
            a.trace_hash, b.trace_hash,
            "same seed must replay bit-identically"
        );
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn a_band_of_seeds_holds_every_invariant() {
        for seed in 0..20 {
            let outcome = run_seed(seed, &quick());
            assert!(
                outcome.violations.is_empty(),
                "seed {seed} violated: {:?}\ntrace tail: {:?}",
                outcome.violations,
                outcome.trace.iter().rev().take(25).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn fleet_makes_progress_and_acks_events() {
        let outcome = run_seed(3, &quick());
        assert!(outcome.acked_events > 0, "no client event was ever acked");
    }

    #[test]
    fn partitions_and_crashes_freeze_the_quorum_somewhere() {
        let mut froze = false;
        for seed in 0..40 {
            let outcome = run_seed(seed, &quick());
            assert!(
                outcome.violations.is_empty(),
                "seed {seed}: {:?}",
                outcome.violations
            );
            if outcome.quorum_freezes > 0 {
                assert!(outcome.partial_rounds > 0);
                froze = true;
                break;
            }
        }
        assert!(froze, "no seed in 0..40 ever froze the quorum");
    }

    #[test]
    fn divergence_is_fenced_and_never_promoted() {
        let mut seen = false;
        for seed in 0..60 {
            let outcome = run_seed(seed, &quick());
            assert!(
                outcome.violations.is_empty(),
                "seed {seed}: {:?}",
                outcome.violations
            );
            if outcome.classes.iter().any(|c| c == "diverge")
                && outcome
                    .trace
                    .iter()
                    .any(|l| l.contains("divergence detected"))
            {
                assert!(
                    outcome
                        .trace
                        .iter()
                        .any(|l| l.contains("fenced: diverged notice")),
                    "seed {seed}: divergence detected but replica never fenced"
                );
                seen = true;
                break;
            }
        }
        assert!(seen, "no seed in 0..60 exercised divergence detection");
    }

    #[test]
    fn a_panicked_primary_is_failed_over_not_restarted() {
        let mut seen = false;
        for seed in 0..60 {
            let outcome = run_seed(seed, &quick());
            assert!(
                outcome.violations.is_empty(),
                "seed {seed}: {:?}",
                outcome.violations
            );
            let panicked = outcome.trace.iter().position(|l| l.contains("StopLeading"));
            if let Some(at) = panicked {
                let after = &outcome.trace[at..];
                assert!(after.iter().any(|l| l.contains("promote term=")));
                assert!(after.iter().any(|l| l.contains("router recovered via")));
                assert!(!after.iter().any(|l| l.contains("in place")));
                seen = true;
                break;
            }
        }
        assert!(seen, "no seed in 0..60 panicked a serving primary");
    }

    #[test]
    fn broken_ack_invariant_is_caught_and_reproduced_bit_identically() {
        let opts = SimOptions {
            quick: true,
            break_invariant: Some(BreakKind::AckUnreplicated),
        };
        let mut caught = None;
        for seed in 0..300 {
            let outcome = run_seed(seed, &opts);
            if !outcome.violations.is_empty() {
                caught = Some((seed, outcome));
                break;
            }
        }
        let (seed, first) = caught.expect("300 seeds of unreplicated acks never lost an event");
        assert!(
            first.violations.iter().any(|v| v.contains("acked event")),
            "unexpected violation kind: {:?}",
            first.violations
        );
        // The printed seed must reproduce the exact same run.
        let again = run_seed(seed, &opts);
        assert_eq!(first.trace_hash, again.trace_hash);
        assert_eq!(first.violations, again.violations);
        assert_eq!(first.trace, again.trace);
    }

    #[test]
    fn broken_si_merge_is_caught_on_partial_rounds() {
        let opts = SimOptions {
            quick: true,
            break_invariant: Some(BreakKind::SiDuringPartial),
        };
        let mut caught = false;
        for seed in 0..80 {
            let outcome = run_seed(seed, &opts);
            if outcome.partial_rounds > 0 {
                assert!(
                    outcome
                        .violations
                        .iter()
                        .any(|v| v.contains("partial round")),
                    "seed {seed} had partial rounds but the phantom merge went unnoticed"
                );
                caught = true;
                break;
            }
        }
        assert!(caught, "no seed in 0..80 produced a partial round");
    }

    #[test]
    fn bit_flips_are_surfaced_by_scrub_not_swallowed() {
        let mut seen = false;
        for seed in 0..120 {
            let outcome = run_seed(seed, &quick());
            assert!(
                outcome.violations.is_empty(),
                "seed {seed}: {:?}",
                outcome.violations
            );
            if outcome
                .trace
                .iter()
                .any(|l| l.contains("bit flip n") && !l.contains("skipped"))
            {
                seen = true;
                break;
            }
        }
        assert!(seen, "no seed in 0..120 landed a bit flip");
    }
}
