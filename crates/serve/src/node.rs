//! `Node`: one replica's composition of the sans-IO cores — its
//! [`ServiceCore`], its [`ReplCore`] and the [`Session`]s of the
//! standbys it streams to — plus [`fleet_round`], the fleet tick over
//! [`RouterCore`] (DESIGN.md §8, §10, §14).
//!
//! The cores decide every rule; this module decides how one replica
//! strings them together, once, for both drivers: the threaded server
//! (`server.rs`, `repl.rs`) and the deterministic simulator (`ref-dst`).
//! A request passes the Down check and the role gate, its event is
//! appended, published to the sessions, applied and — on a tick —
//! fingerprinted, and its reply is held for the standby's ack when a
//! session took the record ([`Node::serve`]); a standby's frame is
//! judged, applied, fingerprinted on a tick and acked
//! ([`Node::follow`]); a standby at `have` is caught up from the log and
//! handed over to live streaming ([`hand_over`]). The replication half —
//! the `ReplCore` and one [`Session`] per standby, each with the
//! [`Peer`] its frames go to — is one [`Replication`] in both drivers;
//! where it lives is the node's [`Link`]: behind a lock shared with the
//! threads that read acks and stream catch-ups in the server, owned
//! outright in the simulator.
//! Nothing here opens a socket, spawns, sleeps, locks or blocks.
//!
//! **The epoch-fingerprint rule**, the one place it is decided for both
//! roles: after every tick record its log took, a replicated node
//! fingerprints its engine ([`MarketEngine::state_fingerprint`]), whatever
//! the engine's verdict on the tick — a tick can be refused after it
//! advanced the epoch (a GP solve that fails with
//! `MaxIterationsExceeded`), and the state it leaves behind is as
//! replayable, and as comparable, as an applied tick's; and a standby
//! whose apply was skipped must send a *wrong* fingerprint, not none. The
//! primary keys its fingerprint by log position
//! ([`ReplCore::push_epoch_fp`]); the standby's ack for that position
//! carries its own. The service core computes none.
//!
//! [`MarketEngine::state_fingerprint`]: ref_market::MarketEngine::state_fingerprint
//!
//! **The hold.** A reply is held only when a replicated primary published
//! its record; it is released by the standby's ack of that record and by
//! nothing else — with no session attached when the record went out,
//! replication degrades to solo durability and the hold is released at
//! once ([`Node::released`]). The server waits for the release under the
//! shard lock while its ack reader advances the `ReplCore` without it;
//! the simulator parks the reply until an ack moves the verdict.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use ref_market::MarketEvent;

use crate::clock::Clock;
use crate::core::{ReplApply, ServiceCore};
use crate::json::Value;
use crate::metrics::ServeMetrics;
use crate::protocol::{shard_unavailable_response, Request};
use crate::repl::{rec_frame, Frame, Role};
use crate::repl_core::{Ack, AckWait, Hello, Promotion, ReplCore, Stream, Timer};
use crate::router::{is_ok, Round, RouterCore};
use crate::session::{self, GoLive, Offer, Session};
use crate::storage::Storage;

/// Retry hint a Down node's `shard_unavailable` carries, in milliseconds.
pub(crate) const RETRY_AFTER_MS: u64 = 5;

/// Where a replicated node's [`Replication`] lives (see the module docs).
pub trait Link {
    /// Where its standbys' frames go.
    type Peer: Peer;

    /// Runs `step` on the node's replication half.
    fn with<T>(&mut self, step: impl FnOnce(&mut Replication<Self::Peer>) -> T) -> T;

    /// The node's current role.
    fn role(&mut self) -> Role {
        self.with(|r| r.repl.role())
    }

    /// The role gate for an event-bearing request (`None` admits it).
    fn admit(&mut self) -> Option<Value> {
        self.with(|r| r.drive(|core, now| core.admit_mutation(now)))
    }
}

/// Where one standby's frames go: its socket, or the simulator's outbox.
pub trait Peer {
    /// Sends `frame`; `false` if the connection is unusable (possibly
    /// mid-frame): the session is dropped.
    fn send(&mut self, frame: &[u8]) -> bool;

    /// The session was dropped by its rules or a failed send: end the
    /// connection, so the standby sees it at once and reconnects.
    fn close(&mut self) {}
}

/// A reply a replicated primary holds until the standby acks its record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hold {
    /// The log length the ack must reach: the record's sequence + 1.
    pub target: u64,
    /// Whether a session was attached when the record went out.
    pub attached: bool,
}

/// What one request did to a node ([`Node::serve`]).
#[derive(Debug)]
pub struct Served {
    /// The reply (while `hold` is set, not yet the client's to see).
    pub reply: Value,
    /// Set when a replicated primary published the record the log took
    /// for the request: see [`Node::released`].
    pub hold: Option<Hold>,
    /// The role gate refused the request: the reply is its refusal
    /// (`not_primary`, `fenced` or `unavailable`).
    pub refused: bool,
    /// The log is poisoned: the node went Down and must be restarted
    /// from its log. A reply `"outcome":"unknown"` says this very append
    /// poisoned it.
    pub crash: bool,
}

impl Served {
    fn reply(reply: Value) -> Served {
        Served {
            reply,
            hold: None,
            refused: false,
            crash: false,
        }
    }
}

/// What a standby does after one stream frame ([`Node::follow`]).
#[derive(Debug, PartialEq)]
pub enum Follow {
    /// Nothing to send: keep reading.
    Reading,
    /// Send `ack`: the frame at `seq` was applied (`fresh`) or already
    /// held, and the log now holds `have` records.
    Ack {
        /// The frame's sequence (a record's, or a snapshot's).
        seq: u64,
        /// Records the log holds now.
        have: u64,
        /// The record was appended and applied, or the snapshot restored;
        /// `false`: the log already held the record.
        fresh: bool,
        /// The framed ack.
        ack: Vec<u8>,
    },
    /// Hang up, and re-dial from the log on the timer: a stale primary,
    /// a refusal, a divergence notice (the node fenced), or a frame no
    /// stream can apply (`resync`: its sequence and the node's log
    /// length). `crash`: the failed append poisoned the log — the node
    /// went Down and must restart from it.
    HangUp {
        /// `(seq, have)` of a frame that could not be applied in-stream.
        resync: Option<(u64, u64)>,
        /// The log is poisoned.
        crash: bool,
    },
}

/// One replica (see the module docs).
#[derive(Debug)]
pub struct Node<L> {
    shard: usize,
    /// `None` while the node is down for a restart.
    core: Option<ServiceCore>,
    /// The engine is behind its log — a panic under the node's lock, or
    /// a poisoned log: it serves nothing until it restarts from the log.
    down: bool,
    /// The node's replication half, when it is replicated.
    pub link: Option<L>,
}

impl<L: Link> Node<L> {
    /// Node of `shard` around `core`, replicated through `link` when
    /// there is one.
    pub fn new(shard: usize, core: Option<ServiceCore>, link: Option<L>) -> Node<L> {
        Node {
            shard,
            core,
            down: false,
            link,
        }
    }

    /// The node's service core, unless it is down for a restart.
    pub fn core(&self) -> Option<&ServiceCore> {
        self.core.as_ref()
    }

    /// [`Node::core`], mutably.
    pub fn core_mut(&mut self) -> Option<&mut ServiceCore> {
        self.core.as_mut()
    }

    /// Whether the node is Down (see [`Node::go_down`]).
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// The node went Down: a panic left its engine behind its log. It
    /// refuses everything until [`Node::restart`]; `stop_leading` (the
    /// router's verdict for a node it does not restart in place) also
    /// stops its heartbeats and elections, so a standby replaces it.
    pub fn go_down(&mut self, stop_leading: bool) {
        self.down = true;
        if let (true, Some(link)) = (stop_leading, self.link.as_mut()) {
            link.with(|r| r.repl.mark_down());
        }
    }

    /// Takes the core away: the node crashed, or is restarting.
    pub fn crash(&mut self) -> Option<ServiceCore> {
        self.core.take()
    }

    /// The node restarted around `core`, recovered from its log.
    pub fn restart(&mut self, core: ServiceCore) {
        self.core = Some(core);
        self.down = false;
    }

    fn unavailable(&self) -> Value {
        shard_unavailable_response(self.shard as u64, RETRY_AFTER_MS)
    }

    /// Serves one request (see the module docs). `promote`, `ping` and
    /// `shutdown` are the driver's.
    pub fn serve(&mut self, request: &Request, metrics: &ServeMetrics) -> Served {
        let (false, Some(core)) = (self.down, self.core.as_mut()) else {
            return Served::reply(self.unavailable());
        };
        let Some(event) = request.to_event() else {
            return Served::reply(core.handle(request, metrics));
        };
        if let Some(refusal) = self.link.as_mut().and_then(|l| l.admit()) {
            return Served {
                refused: true,
                ..Served::reply(refusal)
            };
        }
        let seq = match core.append(&event, metrics) {
            Ok(seq) => seq,
            Err(reply) => {
                let crash = core.poisoned();
                self.down |= crash;
                return Served {
                    crash,
                    ..Served::reply(reply)
                };
            }
        };
        // Published right after the durable append, before the local
        // apply, so replication overlaps the engine work.
        let published = (self.link.as_mut()).and_then(|l| (l.role() == Role::Primary).then_some(l));
        let hold = published.map(|link| {
            ServeMetrics::bump(&metrics.repl_records_sent);
            let frame = rec_frame(seq, core.record());
            let attached = link.with(|r| r.publish(seq, &frame));
            Hold {
                target: seq + 1,
                attached,
            }
        });
        let reply = core.apply_logged(event, metrics);
        if let (Request::Tick, Some(link)) = (request, self.link.as_mut()) {
            let (epoch, fp) = epoch_fp(core);
            link.with(|r| r.repl.push_epoch_fp(seq + 1, epoch, fp));
        }
        Served {
            hold,
            ..Served::reply(reply)
        }
    }

    /// Whether a held reply may go: [`AckWait::Pending`] until the
    /// standby acks `hold.target` (see the module docs).
    pub fn released(&mut self, hold: Hold) -> AckWait {
        match self.link.as_mut() {
            Some(link) => link.with(|r| r.repl.ack_state(hold.target, hold.attached)),
            None => AckWait::NoStandby,
        }
    }

    /// What a fleet tick allots the node from: its `D_k`, the
    /// per-resource sums of its rescaled elasticities
    /// ([`MarketEngine::aggregate_demand`]), or its `unavailable` reply
    /// while it is Down or has no core. A read: no role gate.
    ///
    /// [`MarketEngine::aggregate_demand`]: ref_market::MarketEngine::aggregate_demand
    pub fn demand(&self) -> Result<Vec<f64>, Value> {
        match (self.down, &self.core) {
            (false, Some(core)) => Ok(core.engine().aggregate_demand()),
            _ => Err(self.unavailable()),
        }
    }

    /// A fleet tick at `allotment`: journal it as a `reallot` where
    /// it moved, then tick at it — back to back, as one hold of the
    /// server's shard lock. Returns the requests served, in order: the
    /// node's answer to the round is the last one's. A refused
    /// reallotment stands as that answer, and the node does not tick. A
    /// clean tick's reply carries the `prices` it allocated at,
    /// `D_k / capacity_k`.
    pub fn tick_at(&mut self, allotment: &[f64], metrics: &ServeMetrics) -> Vec<(Request, Served)> {
        let mut served = Vec::with_capacity(2);
        if let Some(reallot) = self.core.as_ref().and_then(|c| c.reallot_to(allotment)) {
            let refused = self.serve(&reallot, metrics);
            let stands = !is_ok(&refused.reply);
            served.push((reallot, refused));
            if stands {
                return served;
            }
        }
        let prices: Option<Vec<f64>> = self.core.as_ref().map(|core| {
            let engine = core.engine();
            (engine.aggregate_demand().iter())
                .zip(engine.config().capacity.as_slice())
                .map(|(demand, capacity)| demand / capacity)
                .collect()
        });
        let mut tick = self.serve(&Request::Tick, metrics);
        if let (true, Some(prices), Value::Obj(fields)) =
            (is_ok(&tick.reply), prices, &mut tick.reply)
        {
            fields.push(("prices".to_string(), Value::num_array(&prices)));
        }
        served.push((Request::Tick, tick));
        served
    }

    /// A standby's handling of one frame from the primary at `from`: the
    /// core's verdict, then the apply through the service core — its
    /// verdict read here — the epoch fingerprint and the ack (see
    /// [`Follow`]).
    pub fn follow(&mut self, frame: Frame, from: &str, metrics: &ServeMetrics) -> Follow {
        let hang_up = Follow::HangUp {
            resync: None,
            crash: false,
        };
        let Some(link) = self.link.as_mut() else {
            return hang_up;
        };
        let verdict = link.with(|r| r.drive(|core, now| core.on_frame(frame, from, now)));
        // A Down node must not keep applying the stream: its engine
        // already missed an event its log holds.
        let live = self.core.as_mut().filter(|_| !self.down);
        let (seq, tick, took, core) = match (verdict, live) {
            (Stream::Drop, _) => return hang_up,
            (Stream::Following, _) | (_, None) => return Follow::Reading,
            (Stream::Restore { seq, snapshot }, Some(core)) => {
                let took = core.restore_from_snapshot(seq, &snapshot, metrics);
                (seq, false, took, core)
            }
            (Stream::Apply { seq, event, record }, Some(core)) => {
                let tick = event == MarketEvent::EpochTick;
                let took = core.apply_record(seq, event, record, metrics);
                (seq, tick, took, core)
            }
        };
        let have = core.events_applied();
        if took == ReplApply::Resync {
            let crash = core.poisoned();
            self.down |= crash;
            return Follow::HangUp {
                resync: Some((seq, have)),
                crash,
            };
        }
        let fresh = took == ReplApply::Applied;
        let fp = (tick && fresh).then(|| epoch_fp(core));
        let ack = link.with(|r| r.repl.ack(have, fp));
        Follow::Ack {
            seq,
            have,
            fresh,
            ack,
        }
    }

    /// Standby → primary (see [`ReplCore::promote`]); `None` when the
    /// node is not replicated.
    pub fn promote(&mut self, metrics: &ServeMetrics) -> Option<Promotion> {
        let promotion = self.link.as_mut()?.with(|r| r.repl.promote());
        if matches!(promotion, Promotion::Promoted { .. }) {
            ServeMetrics::bump(&metrics.promotions);
        }
        Some(promotion)
    }

    /// Promotes the node if its election timer says so now — read again
    /// here, so a node that went Down since the driver looked stays put.
    pub fn elect(&mut self, metrics: &ServeMetrics) -> Option<Promotion> {
        let timer = (self.link.as_mut()?).with(|r| r.drive(|core, now| core.timer(now)));
        (timer == Timer::Elect)
            .then(|| self.promote(metrics))
            .flatten()
    }
}

/// The `(epoch, fingerprint)` of the epoch-fingerprint rule (module docs).
fn epoch_fp(core: &ServiceCore) -> (u64, u64) {
    let engine = core.engine();
    (engine.epoch(), engine.state_fingerprint())
}

/// Catches a standby at `have` up from the log in `dir` and hands its
/// session over to live streaming: [`session::catch_up`] through `send`,
/// then [`Session::go_live`] steps — `step` runs one (the server's under
/// the replication lock, never across a socket write) — until the
/// session is live. Returns the `snap`'s sequence, if one was sent, and the
/// first sequence the catch-up did not cover.
///
/// # Errors
///
/// Whatever [`session::catch_up`] or `send` returns, and a hole in the
/// held records. Any error ends the session.
pub fn hand_over(
    have: u64,
    storage: &dyn Storage,
    dir: &Path,
    mut send: impl FnMut(Vec<u8>) -> io::Result<()>,
    mut step: impl FnMut(u64) -> GoLive,
) -> io::Result<(Option<u64>, u64)> {
    let (snap, upto) = session::catch_up(have, storage, dir, &mut send)?;
    loop {
        match step(upto) {
            GoLive::Send(frames) => frames.into_iter().try_for_each(&mut send)?,
            GoLive::Live => return Ok((snap, upto)),
            GoLive::Kill => return Err(io::Error::other("hole in the held records")),
        }
    }
}

/// A node's replication half: its [`ReplCore`] and the [`Session`] of
/// every standby it streams to, each with the [`Peer`] its frames go to
/// and what it acknowledged.
#[derive(Debug)]
pub struct Replication<P> {
    /// The node's replication machine.
    pub repl: ReplCore,
    /// Live records held for a standby still catching up, ever.
    pub held: u64,
    clock: Arc<dyn Clock>,
    standbys: Vec<Standby<P>>,
    next_id: u64,
}

#[derive(Debug)]
struct Standby<P> {
    id: u64,
    peer: P,
    session: Session,
    acked: u64,
}

impl<P: Peer> Replication<P> {
    /// The half around `repl`, reading `clock`, with no standby.
    pub fn new(repl: ReplCore, clock: Arc<dyn Clock>) -> Replication<P> {
        Replication {
            repl,
            held: 0,
            clock,
            standbys: Vec::new(),
            next_id: 0,
        }
    }

    /// Runs one transition of the [`ReplCore`] at the clock's reading.
    pub fn drive<T>(&mut self, step: impl FnOnce(&mut ReplCore, Duration) -> T) -> T {
        step(&mut self.repl, self.clock.now())
    }

    /// Judges a standby's `hello`; on accept, a session for `peer` opens
    /// at `have` at once — every live record from now on is held for it —
    /// and its id comes back beside the verdict.
    pub fn accept(&mut self, hello: &Value, peer: P) -> (Hello, Option<u64>) {
        let verdict = self.repl.on_hello(hello);
        let Hello::Accept { have, .. } = verdict else {
            return (verdict, None);
        };
        let id = self.next_id;
        self.next_id += 1;
        let session = Session::open(have);
        (self.standbys).push(Standby {
            id,
            peer,
            session,
            acked: 0,
        });
        (verdict, Some(id))
    }

    fn standby(&mut self, id: u64) -> Option<&mut Standby<P>> {
        self.standbys.iter_mut().find(|s| s.id == id)
    }

    /// Whether session `id` is still open.
    pub fn is_open(&self, id: u64) -> bool {
        self.standbys.iter().any(|s| s.id == id)
    }

    /// How many standbys are attached.
    pub fn attached(&self) -> usize {
        self.standbys.len()
    }

    /// Records the slowest attached standby still trails the log by.
    pub fn lag(&self) -> u64 {
        let log = self.repl.log_seq();
        let acked = self.standbys.iter().map(|s| log.saturating_sub(s.acked));
        acked.max().unwrap_or(0)
    }

    /// Every attached standby's peer.
    pub fn peers(&mut self) -> impl Iterator<Item = &mut P> {
        self.standbys.iter_mut().map(|s| &mut s.peer)
    }

    /// Drops session `id`, sending `last` first if given: nothing is sent
    /// after it, and the peer is not closed (the driver ends the
    /// connection gracefully).
    pub fn retire(&mut self, id: u64, last: Option<&[u8]>) {
        if let (Some(standby), Some(frame)) = (self.standby(id), last) {
            standby.peer.send(frame);
        }
        self.standbys.retain(|s| s.id != id);
    }

    /// Judges session `id`'s `ack` ([`ReplCore::on_ack`]), and notes its
    /// progress; [`Ack::Ignored`] once the session is gone.
    pub fn ack(&mut self, id: u64, msg: &Value) -> Ack {
        if !self.is_open(id) {
            return Ack::Ignored;
        }
        let verdict = self.repl.on_ack(msg);
        if let (Ack::Progress(have), Some(standby)) = (&verdict, self.standby(id)) {
            standby.acked = *have;
        }
        verdict
    }

    /// Offers `frame` to every session: `verdict` is each session's rule
    /// for it (a live record's [`Session::offer`], a heartbeat's
    /// [`Session::heartbeat`]). Sends where it says [`Offer::Send`], and
    /// drops a session it kills or whose send fails. Whether any standby
    /// is still attached.
    pub fn broadcast(
        &mut self,
        frame: &[u8],
        mut verdict: impl FnMut(&mut Session) -> Offer,
    ) -> bool {
        let held = &mut self.held;
        self.standbys.retain_mut(|s| {
            let kept = match verdict(&mut s.session) {
                Offer::Send => s.peer.send(frame),
                Offer::Held => {
                    *held += 1;
                    true
                }
                Offer::Skip => true,
                Offer::Kill => false,
            };
            if !kept {
                s.peer.close();
            }
            kept
        });
        !self.standbys.is_empty()
    }

    /// Publishes the framed record at `seq`, which grew the log: to every
    /// session. Whether a session took it (see [`Hold`]).
    pub fn publish(&mut self, seq: u64, frame: &[u8]) -> bool {
        self.repl.note_log(seq + 1);
        self.broadcast(frame, |session| session.offer(seq, frame))
    }

    /// Carries out the heartbeat half of the replication timer: a due
    /// heartbeat goes to every live session. The verdict is the driver's
    /// for the rest (elect, re-dial, or park).
    pub fn beat(&mut self) -> Timer {
        let timer = self.drive(|core, now| core.timer(now));
        if timer == Timer::Heartbeat {
            if let Some(hb) = self.drive(|core, now| core.beat(now)) {
                self.broadcast(&hb, |session| session.heartbeat());
            }
        }
        timer
    }

    /// One [`Session::go_live`] step of session `id` (see [`hand_over`]).
    pub fn go_live(&mut self, id: u64, upto: u64) -> GoLive {
        self.standby(id)
            .map_or(GoLive::Kill, |s| s.session.go_live(upto))
    }

    /// Session `id`'s [`hand_over`] from the log in `dir`, through its own
    /// peer (the simulator's: the server writes a catch-up outside its
    /// lock).
    ///
    /// # Errors
    ///
    /// As [`hand_over`]; [`io::ErrorKind::NotConnected`] once the session
    /// is gone.
    pub fn catch_up(
        &mut self,
        id: u64,
        have: u64,
        storage: &dyn Storage,
        dir: &Path,
    ) -> io::Result<(Option<u64>, u64)> {
        let standby = self.standby(id).ok_or(io::ErrorKind::NotConnected)?;
        let (peer, session) = (&mut standby.peer, &mut standby.session);
        let send = |frame: Vec<u8>| {
            let sent = peer.send(&frame);
            sent.then_some(()).ok_or(io::ErrorKind::BrokenPipe.into())
        };
        hand_over(have, storage, dir, send, |upto| session.go_live(upto))
    }
}

impl<P: Peer> Link for Replication<P> {
    type Peer = P;

    fn with<T>(&mut self, step: impl FnOnce(&mut Replication<P>) -> T) -> T {
        step(self)
    }
}

/// How a fleet round reaches its shards: the server reads the `D_k` its
/// shards published and fans the ticks to their threads, the simulator
/// asks each shard's serving node in turn.
pub trait Fan {
    /// Runs one transition of the router core.
    fn router<T>(&mut self, step: impl FnOnce(&mut RouterCore) -> T) -> T;

    /// Every shard's [`Node::demand`], or, for a shard the router does
    /// not ask, why it has none.
    fn demand(&mut self) -> Vec<Result<Vec<f64>, Value>>;

    /// The quorum froze this round, `reported` shards short of it
    /// having a demand (before the ticks).
    fn froze(&mut self, reported: usize);

    /// Each shard's tick — [`Node::tick_at`] an allotment, a plain tick
    /// (`Ok(None)`), or, for a shard that sits the round out, the reason
    /// it has no demand (`Err`), unasked.
    fn tick(&mut self, asks: Vec<Result<Option<Vec<f64>>, Value>>) -> Vec<Value>;
}

/// One fleet tick over `shards` shards, and the router's verdict on it.
/// With more than one shard the [`RouterCore`] reads every shard's `D_k`,
/// gates on the quorum and allots each shard with a demand REF's
/// closed-form share, and each such shard ticks at it; a shard without
/// one (not asked, or its node down) sits the round out. One shard's
/// allotment is always the whole capacity, so it is asked nothing but
/// the tick.
pub fn fleet_round(fan: &mut impl Fan, shards: usize) -> (Vec<Value>, Round) {
    let asks = if shards == 1 {
        vec![Ok(None)]
    } else {
        let demands = fan.demand();
        let allot = fan.router(|router| router.allot(&demands));
        if allot.frozen {
            fan.froze(allot.capacities.iter().flatten().count());
        }
        (allot.capacities.into_iter().zip(demands))
            .map(|(capacity, demand)| demand.map(|_| capacity))
            .collect()
    };
    let replies = fan.tick(asks);
    let round = fan.router(|router| router.tick_round(&replies));
    (replies, round)
}
