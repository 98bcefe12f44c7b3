//! The simulated fleet: sharded cores, a replicated pair per shard, a
//! router, scripted clients — all single-threaded on virtual time.
//!
//! Every node hosts a real [`ServiceCore`] recovered through a
//! [`SimDisk`], so the WAL codec, checkpointing, pruning, recovery,
//! scrub, and the market engine all run production code. So do the
//! protocols: each node's replication, election and fencing decisions
//! are made by the real [`ReplCore`], each replication connection —
//! catch-up from the disk, `snap` bootstrap, hold and go-live, the
//! standby's apply verdict — by the real [`session`], and the fleet's
//! health tracking, quorum gate, closed-form allotments and
//! fencing-token floor by the real [`RouterCore`] — the rules the
//! threaded server drives. So are the node rules: when the router fans a
//! timed tick, which shards a fan skips, when a Down shard is probed,
//! whether a panicked shard is restarted in place or failed over, how a
//! recovered shard is caught up, and when a node heartbeats,
//! re-dials or elects itself. This file only *drives* them: it moves
//! their frames through [`SimNet`], reads [`SimClock`], owns what a
//! connection is (open or reset), and plays operator (which role a
//! restarted node is booted into). It decides no reply.
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
use ref_core::utility::CobbDouglas;
use ref_market::{MarketConfig, MarketEvent, ObservationSource};
use ref_serve::protocol::{error_response, event_to_value, shard_unavailable_response};
use ref_serve::repl::{parse_frame, rec_frame, Frame};
use ref_serve::repl_core::{Ack, AckWait, Hello, Promotion, Stream, Timer};
use ref_serve::router::{asks, AfterPanic, Duty, Readmit};
use ref_serve::session::{self, Applied, GoLive, Offer, Session};
use ref_serve::wal::read_events_with;
use ref_serve::{
    decode_frame, default_quorum, replay, shard_market_config, Clock, FaultPlan, FrameDecode,
    HashRing, JournalLimit, ReplConfig, ReplCore, Request, Role, RouterCore, ServeMetrics,
    ServiceCore, Value, Wal, WalConfig,
};

use crate::disk::SimDisk;
use crate::net::SimNet;
use crate::schedule::{
    generate, ClientOp, FaultOp, Op, Schedule, NODES, REPLICAS, SHARDS, TICK_EVERY,
};
use crate::sim::{mix64, SimClock, SimRng, Trace};

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

#[derive(Debug)]
struct Node {
    dir: PathBuf,
    disk: SimDisk,
    core: Option<ServiceCore>,
    metrics: ServeMetrics,
    /// The node's replication machine, rebuilt on every boot. Its role
    /// and term are carried over a restart, as if the node kept them on
    /// disk (the threaded server does not: see DESIGN.md §15).
    repl: ReplCore,
    boots: u64,
    /// The primary's side of its peer's replication connection: opened
    /// by an accepted handshake, gone on *observable* events only — a
    /// close from either end (see [`Sim::close`]) that got through.
    /// Heartbeats and acks only flow on one.
    session: Option<Session>,
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
    /// A panic left the engine behind its log: the node serves nothing
    /// until it reboots (the server's degraded shard).
    down: bool,
    /// A bit flip landed on this node's disk (scrub must notice).
    bitflip_hit: bool,
    /// The append that poisoned this node's log, as `(seq, event)`: its
    /// outcome is unknown until the node recovers and its log shows
    /// whether the record landed whole.
    unknown: Option<(u64, MarketEvent)>,
}

/// A client mutation whose reply the primary is holding for the ack.
#[derive(Debug)]
struct Pending {
    primary: usize,
    seq: u64,
    /// Whether a session was live when the record went out.
    attached: bool,
    deadline: Duration,
    event_json: String,
}

#[derive(Debug)]
struct AckedEvent {
    shard: usize,
    seq: u64,
    event_json: String,
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
    nodes: Vec<Node>,
    ring: HashRing,
    router: RouterCore,
    shard_config: MarketConfig,
    total_capacity: Vec<f64>,
    /// The node (and its boot count) each shard was last served by; a
    /// change means the shard is served from a recovered WAL.
    known_primary: [Option<(usize, u64)>; SHARDS],
    round: u64,
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
    held: u64,
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

fn err_code(reply: &Value) -> &str {
    reply.get("error").and_then(Value::as_str).unwrap_or("")
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
        let nodes = (0..NODES)
            .map(|id| {
                let role = if id % REPLICAS == 0 {
                    Role::Primary
                } else {
                    Role::Standby
                };
                Node {
                    dir: PathBuf::from(format!("/sim/node-{id}")),
                    disk: SimDisk::new(),
                    core: None,
                    metrics: ServeMetrics::new(),
                    repl: ReplCore::new(&repl_config(id, role), 0, 0, 0, Duration::ZERO),
                    boots: 0,
                    session: None,
                    catch_up: None,
                    lineage: Vec::new(),
                    diverged: false,
                    promoted_ever: false,
                    down: false,
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
            nodes,
            ring: HashRing::new(SHARDS, 0xD5),
            router: RouterCore::new(total_capacity.clone(), SHARDS, default_quorum(SHARDS), 2)
                .with_node(true, true, Some(TICK_EVERY)),
            shard_config,
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
            held: 0,
        };
        for id in 0..NODES {
            let role = sim.nodes[id].repl.role();
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
        let scrubbed = self.nodes[id].metrics.snapshot().wal_scrub_errors;
        let opened = self.open(id, self.nodes[id].disk.clone(), &self.nodes[id].metrics);
        let node = &mut self.nodes[id];
        match opened {
            Ok(core) => {
                let scrub_errors = node.metrics.snapshot().wal_scrub_errors - scrubbed;
                node.boots += 1;
                let (term, seq) = (node.repl.term(), core.events_applied());
                let jitter_seed = mix64(self.seed ^ ((id as u64) << 32) ^ node.boots);
                node.repl = ReplCore::new(&repl_config(id, role), jitter_seed, term, seq, now);
                node.repl.set_addrs(addr(id), addr(id));
                if role == Role::Fenced {
                    node.repl.fence(term);
                }
                node.down = false;
                node.session = None;
                node.catch_up = None;
                node.lineage.truncate(seq as usize);
                // An append whose outcome was unknown (it poisoned the
                // log) counts as whatever the recovered log shows: that
                // exact event at that sequence, or nothing.
                let unknown = node.unknown.take().map(|(at, event)| {
                    let landed = at + 1 == seq
                        && node.lineage.len() as u64 == at
                        && read_events_with(&node.disk, &node.dir)
                            .is_ok_and(|(_, log)| log.last() == Some(&event));
                    if landed {
                        node.lineage.push(event);
                    }
                    (at, landed)
                });
                // Recovery replays the WAL from disk, so any in-memory
                // corruption injected before the crash is gone: the
                // rebooted replica is genuinely clean again.
                node.diverged = false;
                node.core = Some(core);
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
        let wal = wal_config(id, &self.nodes[id].dir);
        let (config, limit) = (self.shard_config.clone(), JournalLimit::default());
        let (disk, faults) = (Arc::new(disk), FaultPlan::default());
        ServiceCore::open(disk, config, limit, wal, faults, metrics)
    }

    fn send_frame(&mut self, from: usize, to: usize, frame: Vec<u8>) {
        let now = self.now();
        self.net.send(now, from, to, frame, &mut self.rng);
    }

    fn alive(&self, id: usize) -> bool {
        self.nodes[id].core.is_some()
    }

    fn applied(&self, id: usize) -> u64 {
        self.nodes[id]
            .core
            .as_ref()
            .map_or(0, |c| c.events_applied())
    }

    /// The primary the router serves `shard` from: the [`RouterCore`]
    /// picks among the shard's live nodes (what a `ping` of each would
    /// report) and holds its fencing-token floor.
    fn route(&mut self, shard: usize) -> Option<usize> {
        let nodes = &self.nodes;
        let candidates = (shard * REPLICAS..(shard + 1) * REPLICAS)
            .filter(|id| nodes[*id].core.is_some())
            .map(|id| (id, nodes[id].repl.role(), nodes[id].repl.term()));
        self.router.pick_primary(shard, candidates)
    }

    /// Applies one request on a primary the way its ticker would: the
    /// core's role gate first, then the service core, then publish the
    /// record and hold client replies for the standby (sync mode).
    fn primary_apply(&mut self, id: usize, req: &Request, client: bool) -> Value {
        let now = self.now();
        if self.nodes[id].down {
            return shard_unavailable_response((id / REPLICAS) as u64, 0);
        }
        let event = req.to_event();
        if event.is_some() {
            if let Some(refusal) = self.nodes[id].repl.admit_mutation(now, None) {
                self.note(format!("n{id} refuses: {}", err_code(&refusal)));
                return refusal;
            }
        }
        let node = &mut self.nodes[id];
        let Some(core) = node.core.as_mut() else {
            // The node crashed under an earlier request of this batch.
            return error_response("internal", Some("connection reset"), None);
        };
        let reply = core.handle(req, &node.metrics);
        let seq_after = core.events_applied();
        let poisoned = core.wal().map(|w| w.poisoned()).unwrap_or(false);
        if reply.get("outcome").and_then(Value::as_str) == Some("unknown") {
            node.unknown = event.clone().map(|event| (seq_after, event));
        }
        if let Some(event) = event.filter(|_| err_code(&reply) != "wal") {
            node.repl.note_log(seq_after);
            if matches!(event, MarketEvent::EpochTick) {
                let engine = core.engine();
                node.repl
                    .push_epoch_fp(seq_after, engine.epoch(), engine.state_fingerprint());
            }
            let seq = seq_after - 1;
            let event_json = event_to_value(&event).encode();
            let mut record = Vec::new();
            event.write_record(&mut record);
            let frame = rec_frame(seq, &record);
            node.lineage.push(event);
            match node.session.as_mut().map(|s| s.offer(seq, &frame)) {
                Some(Offer::Send) => self.send_frame(id, id ^ 1, frame),
                Some(Offer::Held) => self.held += 1,
                Some(Offer::Kill) => self.close(id),
                Some(Offer::Skip) | None => {}
            }
            if client {
                self.pending.push(Pending {
                    primary: id,
                    seq,
                    attached: self.nodes[id].session.is_some(),
                    deadline: now + ACK_TIMEOUT,
                    event_json,
                });
            }
            self.release_acks(id);
        }
        if poisoned {
            self.note(format!("n{id} wal poisoned: crashing for recovery"));
            self.crash(id);
            self.pending_restarts.push((now + POISON_RESTART, id));
        }
        reply
    }

    /// Releases every held client reply the core says may go: acked by
    /// the standby, or published with no session live (solo durability).
    fn release_acks(&mut self, primary: usize) {
        let node = &self.nodes[primary];
        let broken = self.opts.break_invariant == Some(BreakKind::AckUnreplicated);
        let mut released = Vec::new();
        self.pending.retain(|p| {
            if p.primary != primary {
                return true;
            }
            // BROKEN (test-only): override the core's verdict and release
            // before the standby confirms — a failover inside the
            // replication window now loses the acked tail.
            let verdict = match node.repl.ack_state(p.seq + 1, p.attached) {
                AckWait::Pending if broken => AckWait::Acked,
                verdict => verdict,
            };
            if verdict != AckWait::Pending {
                released.push((verdict, p.seq, p.event_json.clone()));
            }
            verdict == AckWait::Pending
        });
        for (verdict, seq, event_json) in released {
            self.note(format!("n{primary} acked seq={seq} ({verdict:?})"));
            self.acked.push(AckedEvent {
                shard: primary / REPLICAS,
                seq,
                event_json,
            });
        }
    }

    fn crash(&mut self, id: usize) {
        if !self.alive(id) {
            return;
        }
        self.nodes[id].core = None;
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
                self.nodes[end].session = None;
                self.nodes[end].catch_up = None;
                self.nodes[end].repl.hang_up();
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
        let peer = &self.nodes[id ^ 1].repl;
        let rejoin = self.alive(id ^ 1)
            && peer.role() == Role::Primary
            && peer.term() >= self.nodes[id].repl.term();
        let role = if rejoin {
            Role::Standby
        } else {
            self.nodes[id].repl.role()
        };
        self.boot_node(id, role);
    }

    // ------------------------------------------------------------------
    // Frame handling: every verdict is the core's.
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
        let was = self.nodes[to].repl.role();
        let what = frame.kind().to_string();
        match frame {
            Frame::Msg(msg) if what == "hello" => match self.nodes[to].repl.on_hello(&msg) {
                // The session holds live records from now on; its
                // catch-up reads the log `CATCH_UP` later.
                Hello::Accept { have, meta } => {
                    self.send_frame(to, from, meta);
                    self.nodes[to].session = Some(Session::open(have));
                    self.nodes[to].catch_up = Some((now + CATCH_UP, have));
                }
                Hello::Refuse(refusal) => self.send_frame(to, from, refusal),
            },
            // Acks ride the replication connection: none arrives once
            // the primary considers it reset.
            Frame::Msg(msg) if what == "ack" && self.nodes[to].session.is_some() => {
                match self.nodes[to].repl.on_ack(&msg) {
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
            frame => match self.nodes[to].repl.on_frame(frame, &addr(from), now) {
                Stream::Following => {}
                // A refusal closes a dial that opened no session.
                Stream::Drop if what == "refuse" => self.nodes[to].repl.hang_up(),
                Stream::Drop => self.close(to),
                verdict => self.follow(from, to, verdict),
            },
        }
        if was != Role::Fenced && self.nodes[to].repl.role() == Role::Fenced {
            self.close(to);
            self.note(format!("n{to} fenced: {what} notice from n{from}"));
        }
    }

    /// Carries out the standby's verdict on a frame the core cleared
    /// ([`session::apply`]) and acks with the core's frame. On `Resync`
    /// it hangs up, and its timer re-dials; a poisoned WAL then crashes
    /// the node for recovery, as an operator would.
    fn follow(&mut self, from: usize, to: usize, verdict: Stream) {
        let (seq, record) = match &verdict {
            Stream::Apply { seq, event, .. } => (*seq, Some(event.clone())),
            Stream::Restore { seq, .. } => (*seq, None),
            Stream::Following | Stream::Drop => return,
        };
        let node = &mut self.nodes[to];
        let core = node.core.as_mut().expect("checked in on_frame");
        let applied = session::apply(core, verdict, &node.metrics);
        let (have, poisoned) = (core.events_applied(), core.wal().is_some_and(Wal::poisoned));
        let epoch_fp = match (applied, record) {
            (Applied::Applied { epoch_fp }, Some(event)) => {
                node.lineage.push(event);
                epoch_fp
            }
            (Applied::Applied { .. }, None) => {
                node.lineage = self.snap_prefixes[&(from, seq)].clone();
                // The snapshot replaces the engine, as a reboot does: an
                // apply corrupted before it, or armed to be, lies behind it.
                node.diverged = false;
                self.restores += 1;
                None
            }
            (Applied::Skipped, _) => None,
            (Applied::Resync | Applied::Ignored, record) => {
                self.note(format!("n{to} resync at seq={seq} have={have}"));
                self.close(to);
                if poisoned {
                    self.nodes[to].unknown = record.map(|event| (seq, event));
                    self.note(format!("n{to} standby wal poisoned: crashing"));
                    self.crash(to);
                    let at = self.now() + POISON_RESTART;
                    self.pending_restarts.push((at, to));
                }
                return;
            }
        };
        self.note(format!("n{to} acks seq={seq} have={have}"));
        let ack = self.nodes[to].repl.ack(have, epoch_fp);
        self.send_frame(to, from, ack);
    }

    /// `primary`'s catch-up of a standby at `have`: [`session::catch_up`]
    /// from its own disk, then the session's hold drained until it is
    /// live.
    fn catch_up(&mut self, primary: usize, have: u64) {
        let (now, standby, node) = (self.now(), primary ^ 1, &self.nodes[primary]);
        let (net, rng) = (&mut self.net, &mut self.rng);
        let read = session::catch_up(have, &node.disk, &node.dir, |frame| {
            net.send(now, primary, standby, frame, rng);
            Ok(())
        });
        let (snap, upto) = match read {
            Ok(caught) => caught,
            Err(e) => {
                self.note(format!("n{primary} catch-up of n{standby} failed: {e}"));
                return self.close(primary);
            }
        };
        if let Some(seq) = snap {
            let prefix = node.lineage.iter().take(seq as usize).cloned().collect();
            self.snap_prefixes.insert((primary, seq), prefix);
        }
        loop {
            let session = self.nodes[primary].session.as_mut().expect("open");
            match session.go_live(upto) {
                GoLive::Send(frames) => {
                    for frame in frames {
                        self.send_frame(primary, standby, frame);
                    }
                }
                GoLive::Live => break,
                GoLive::Kill => return self.close(primary),
            }
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
            if let Some((_, have)) = self.nodes[id].catch_up.take_if(|(at, _)| *at <= now) {
                self.catch_up(id, have);
            }
            if !self.alive(id) {
                continue;
            }
            match self.nodes[id].repl.timer(now) {
                // Heartbeats ride the replication connection, once its
                // catch-up is through: a primary with no session has no
                // socket to write them to, so a detached standby goes
                // silent and re-dials.
                Timer::Heartbeat => {
                    let hb = self.nodes[id].repl.beat(now);
                    let session = self.nodes[id].session.as_ref();
                    if let (Some(hb), Some(Offer::Send)) = (hb, session.map(Session::heartbeat)) {
                        self.send_frame(id, id ^ 1, hb);
                    }
                }
                Timer::Elect => self.promote(id),
                Timer::Redial => {
                    let hello = self.nodes[id].repl.dial(now);
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
                let (primary, seq) = (p.primary, p.seq);
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
        if self.nodes[id].diverged {
            // The fencing invariant says this must be impossible: a
            // diverged replica is caught by the fingerprint channel
            // before its election timer can fire.
            self.violation(format!("diverged standby n{id} promoted itself"));
        }
        let Promotion::Promoted { term, depose } = self.nodes[id].repl.promote() else {
            return;
        };
        self.nodes[id].promoted_ever = true;
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
            let serving = (p, self.nodes[p].boots);
            if self.known_primary[shard]
                .replace(serving)
                .is_some_and(|was| was != serving)
            {
                let epoch = self.nodes[p].core.as_ref().map(|c| c.engine().epoch());
                let readmit = self.router.recovered(shard, epoch.unwrap_or(0));
                self.rejoin(readmit, &format!("recovered via n{p}"));
            }
        }
    }

    /// A panic under the serving node's lock — the same notice
    /// `Shared::locked` feeds the core on a caught panic.
    fn panic(&mut self, id: usize) {
        let shard = id / REPLICAS;
        if self.nodes[id].down || self.route(shard) != Some(id) {
            self.note(format!("panic n{id} skipped: not serving"));
            return;
        }
        self.nodes[id].down = true;
        ServeMetrics::bump(&self.nodes[id].metrics.ticker_panics);
        let after = self.router.panicked(shard);
        self.note(format!("n{id} panic shard={shard}: {after:?}"));
        match after {
            AfterPanic::StopLeading
                if self.opts.break_invariant == Some(BreakKind::HeartbeatWhileDown) =>
            {
                // BROKEN (test-only): override the verdict and keep
                // leading — the standby never elects.
                self.note(format!("n{id} BROKEN: heartbeats while Down"));
            }
            AfterPanic::StopLeading => self.nodes[id].repl.mark_down(),
            AfterPanic::Restart => {}
        }
    }

    /// Puts `request` to the node serving `shard`; with nobody to ask,
    /// the tick budget lapses.
    fn ask(&mut self, shard: usize, request: &Request) -> Value {
        match self.route(shard) {
            Some(p) => self.primary_apply(p, request, false),
            None => error_response("timeout", None, None),
        }
    }

    /// Phase 1 for one shard: its `D_k`, read from the serving node's
    /// engine — the server's demand read, which takes no role gate.
    fn demand_read(&mut self, shard: usize) -> Value {
        if !asks(self.router.health(shard), &Request::Tick) {
            return shard_unavailable_response(shard as u64, 0);
        }
        let Some(p) = self.route(shard) else {
            return error_response("timeout", None, None);
        };
        match (&self.nodes[p].core, self.nodes[p].down) {
            (Some(core), false) => core.demand_report(),
            _ => shard_unavailable_response(shard as u64, 0),
        }
    }

    /// Phase 2 for one shard: the allotment journaled where it moved, then
    /// the tick, back to back as under the server's one lock hold. A
    /// refused reallotment stands as the shard's reply: it does not tick.
    /// Returns the reply and the capacity the serving engine ticked at.
    fn tick_at(&mut self, shard: usize, capacity: &[f64], round: u64) -> (Value, Option<Vec<f64>>) {
        let serving = self.route(shard);
        let core = serving.and_then(|p| self.nodes[p].core.as_ref());
        if let Some(reallot) = core.and_then(|core| core.reallot_to(capacity)) {
            let reply = self.ask(shard, &reallot);
            if !is_ok(&reply) {
                self.note(format!("round={round} shard={shard} reallot refused"));
                return (reply, None);
            }
        }
        let core = serving.and_then(|p| self.nodes[p].core.as_ref());
        let held = core.map(|core| core.engine().config().capacity.as_slice().to_vec());
        (self.ask(shard, &Request::Tick), held)
    }

    fn fleet_tick(&mut self) {
        self.round += 1;
        let round = self.round;
        self.note_recoveries();
        let reports: Vec<Value> = (0..SHARDS).map(|shard| self.demand_read(shard)).collect();
        let allot = self.router.allot(&reports);
        let reported = allot.capacities.iter().flatten().count();
        if allot.frozen {
            self.quorum_freezes += 1;
            self.note(format!("round={round} quorum freeze ({reported}/{SHARDS})"));
        }
        let mut replies = Vec::with_capacity(SHARDS);
        let mut allocated = vec![0.0f64; self.total_capacity.len()];
        for (shard, capacity) in allot.capacities.iter().enumerate() {
            let Some(capacity) = capacity else {
                replies.push(reports[shard].clone());
                continue;
            };
            let (reply, held) = self.tick_at(shard, capacity, round);
            if let (true, Some(held)) = (is_ok(&reply), held) {
                for (sum, cap) in allocated.iter_mut().zip(held) {
                    *sum += cap;
                }
            }
            replies.push(reply);
        }
        // 4. What the shards that ticked allocated at never sums above
        // the fleet's capacity.
        for (r, (sum, total)) in allocated
            .iter()
            .zip(self.total_capacity.clone())
            .enumerate()
        {
            if *sum > total {
                self.violation(format!(
                    "round={round} capacity not conserved: resource {r} allocated {sum} of {total}"
                ));
            }
        }
        let verdict = self.router.tick_round(&replies);
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

    fn apply_client(&mut self, op: &ClientOp) {
        let truth =
            |e0: f64| CobbDouglas::new(1.0, vec![e0, 1.0 - e0]).expect("valid elasticities");
        let (agent, req) = match *op {
            ClientOp::Join { agent, e0 } => (
                agent,
                Request::Join {
                    agent,
                    source: ObservationSource::GroundTruth(truth(e0)),
                },
            ),
            ClientOp::Leave { agent } => (agent, Request::Leave { agent }),
            ClientOp::Demand { agent, e0 } => (
                agent,
                Request::Demand {
                    agent,
                    truth: Some(truth(e0)),
                },
            ),
            ClientOp::Query { agent } => (agent, Request::Query { agent: Some(agent) }),
        };
        let shard = self.ring.shard_of(agent);
        // Dispatch fails fast on a Down shard, like the real router.
        let primary = asks(self.router.health(shard), &req)
            .then(|| self.route(shard))
            .flatten();
        let Some(p) = primary else {
            self.note(format!("client agent={agent} shard={shard} unavailable"));
            return;
        };
        let reply = self.primary_apply(p, &req, true);
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
                self.nodes[*node].disk.arm_torn_write(keep);
                self.note(format!("torn write armed n{node} keep={keep}"));
            }
            FaultOp::FailSync { node, n } => {
                self.nodes[*node].disk.fail_next_syncs(*n);
                self.note(format!("fsync failures armed n{node} n={n}"));
            }
            FaultOp::BitFlip { node } => {
                let dir = self.nodes[*node].dir.clone();
                let flipped = self.nodes[*node].disk.flip_bit_in_covered_checkpoint(&dir);
                self.nodes[*node].bitflip_hit |= flipped.is_some();
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
                    .find(|id| self.nodes[*id].repl.role() == Role::Standby && self.alive(*id));
                let Some(id) = target else {
                    self.note(format!("diverge shard={shard} skipped: no standby"));
                    return;
                };
                let node = &mut self.nodes[id];
                let core = node.core.take().expect("checked");
                let seq = core.events_applied();
                let plan = FaultPlan {
                    corrupt_standby_at: Some(seq),
                    ..FaultPlan::default()
                };
                node.core = Some(core.with_faults(plan));
                node.diverged = true;
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
            Op::Client(c) => self.apply_client(c),
            Op::Fault(f) => self.apply_fault(f),
            Op::Scrub { node } => {
                let target = &mut self.nodes[*node];
                if let Some(core) = target.core.as_mut() {
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
                .filter(|id| self.alive(*id) && self.nodes[*id].repl.role() != Role::Fenced)
                .max_by_key(|id| (self.nodes[*id].repl.term(), self.applied(*id)))
        })
    }

    fn check_invariants(&mut self) {
        let mut found = Vec::new();
        // 0. The oracle's lineages are what the disks hold: the records a
        // WAL still holds are its lineage's tail, byte for byte.
        for (id, node) in self.nodes.iter().enumerate() {
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
            let lineage = &self.nodes[auth].lineage;
            for a in acked {
                let held = lineage
                    .get(a.seq as usize)
                    .map(|e| event_to_value(e).encode());
                if held.as_ref() != Some(&a.event_json) {
                    found.push(format!(
                        "acked event lost: shard {shard} seq {}: acked {}, n{auth} holds {held:?}",
                        a.seq, a.event_json
                    ));
                }
            }
        }
        // 2. Bit-identical replay on every live, unfenced node: its
        // lineage replayed from event 0, and recovery from its disk's
        // checkpoint and tail, both land on its live state.
        for (id, node) in self.nodes.iter().enumerate() {
            let (Some(core), false) = (&node.core, node.repl.role() == Role::Fenced) else {
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
        for (id, node) in self.nodes.iter().enumerate().filter(|(_, n)| n.diverged) {
            if node.promoted_ever {
                found.push(format!("diverged replica n{id} was promoted"));
            } else if node.core.is_some() && node.repl.role() != Role::Fenced {
                found.push(format!(
                    "diverged replica n{id} ended {:?}, expected Fenced",
                    node.repl.role()
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
        for (id, node) in self.nodes.iter().enumerate().filter(|(_, n)| n.bitflip_hit) {
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
            held: self.held,
        }
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
