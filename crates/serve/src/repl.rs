//! Primary/standby replication: WAL shipping, promotion, fencing, and
//! divergence detection (DESIGN.md §10).
//!
//! A primary streams its durable history — an optional bootstrap
//! checkpoint followed by every WAL record — over a dedicated TCP
//! listener to any number of standbys. Frames reuse the WAL's record
//! envelope (`[len:u32][crc32:u32][payload]`, `wal::frame`), so the
//! stream inherits the log's corruption detection: a truncated or
//! bit-flipped frame is caught by the length or CRC check and never
//! half-applied. A `rec` payload is binary — a zero byte, the sequence
//! as a little-endian `u64`, then the event's record, the very bytes the
//! WAL stores — and every other message is one line of JSON; one
//! decoder, [`parse_frame`], tells them apart for every driver.
//!
//! ```text
//!   standby ──hello{term,have_seq}──▶ primary
//!   standby ◀──meta{term,client_addr}── primary      (or refuse{reason})
//!   standby ◀──snap{seq,snapshot}── primary           (only when behind
//!                                                      the retained log)
//!   standby ◀──rec[seq,record]─── primary             (catch-up + live)
//!   standby ◀──hb{term,seq}────── primary             (heartbeat)
//!   standby ──ack{have,epoch?,fp?}─▶ primary
//!   standby ◀──diverged{epoch}─── primary             (fingerprint split)
//! ```
//!
//! The standby applies every record through the same single-threaded
//! service core as the primary (its own append-before-apply WAL
//! included), so a caught-up standby is *bit-identical* — the same
//! snapshot text, byte for byte. To keep that claim honest rather than
//! assumed, each epoch's ack carries a 64-bit fingerprint of the
//! standby's full serialized state; the primary compares it against its
//! own fingerprint for that epoch and, on any mismatch, counts a
//! divergence, tells the replica, and drops it. A diverged replica
//! fences itself — it will refuse promotion — because serving *wrong*
//! allocations is strictly worse than serving none.
//!
//! Roles and terms: a node is `primary`, `standby`, or `fenced`. Terms
//! are monotone; promotion (explicit `promote` op, or automatic once the
//! primary's heartbeat lapses past [`ReplConfig::election_timeout`])
//! bumps the term, and any node that sees a higher term than its own in
//! a replication `hello` fences itself — a deposed primary refuses
//! mutations from that moment on, closing the split-brain window to the
//! election timeout.
//!
//! Every one of those rules — who is refused, who fences, when a standby
//! may elect itself, when a recovered primary may take writes again —
//! is decided by [`ReplCore`], and every rule of one connection — the
//! catch-up, the `snap` bootstrap, the hold and go-live, the standby's
//! apply verdict — by [`crate::session`], and how one replica composes
//! them by [`crate::node`]: sans-IO code the deterministic simulator
//! drives too. This module is its threaded driver: sockets, the frame
//! codec, and the blocking sync-mode wait. There are no relay threads:
//! the thread that appended a record writes its `rec` frame to every
//! standby socket itself, and the standby's puller hands each frame to
//! its node under the standby's shard lock and writes the `ack` itself.
//! Threads take the replication lock briefly per frame and publish the
//! role and lease to atomics, so the per-request role gate never takes
//! a lock.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ref_market::MarketEvent;

use crate::clock::Clock;
use crate::json::Value;
use crate::metrics::ServeMetrics;
use crate::node::{hand_over, Follow, Peer, Replication};
pub use crate::repl_core::Role;
use crate::repl_core::{Ack, AckWait, Hello, ReplCore, Timer};
use crate::server::{carry_out, spawn, Shared};
use crate::storage::Storage;
use crate::wal::{self, FrameCheck, Wal};

/// Replication knobs for one node of a primary/standby pair.
#[derive(Debug, Clone)]
pub struct ReplConfig {
    /// Bind address of the replication listener (use port 0 for an
    /// ephemeral port; [`crate::Server::repl_addr`] reports the bound
    /// address).
    pub listen: String,
    /// When set, boot as a standby following the primary whose
    /// *replication* listener is at this address; when `None`, boot as
    /// the primary.
    pub standby_of: Option<String>,
    /// Primary heartbeat cadence on the replication stream.
    pub heartbeat_interval: Duration,
    /// A standby that hears nothing (no records, no heartbeats) for this
    /// long considers the primary dead.
    pub election_timeout: Duration,
    /// Automatically promote once the election timeout lapses. Disable
    /// for operator-driven failover via the `promote` op.
    pub auto_promote: bool,
    /// Synchronous replication: the primary withholds each mutation's
    /// reply until a connected standby acknowledges *applying* it, so an
    /// acked event can never be lost by failing over. With no standby
    /// connected the primary degrades to async rather than stalling.
    pub sync: bool,
    /// How long a sync-mode reply may wait for the standby ack before
    /// the client gets a `repl` error (the event *is* applied locally).
    pub ack_timeout: Duration,
}

impl ReplConfig {
    fn new(listen: impl Into<String>, standby_of: Option<String>) -> ReplConfig {
        ReplConfig {
            listen: listen.into(),
            standby_of,
            heartbeat_interval: Duration::from_millis(25),
            election_timeout: Duration::from_millis(300),
            auto_promote: true,
            sync: false,
            ack_timeout: Duration::from_secs(1),
        }
    }

    /// A primary configuration listening for standbys on `listen`.
    pub fn primary(listen: impl Into<String>) -> ReplConfig {
        ReplConfig::new(listen, None)
    }

    /// A standby configuration following the primary's replication
    /// listener at `of`.
    pub fn standby(listen: impl Into<String>, of: impl Into<String>) -> ReplConfig {
        ReplConfig::new(listen, Some(of.into()))
    }

    /// Sets the heartbeat cadence.
    #[must_use]
    pub fn with_heartbeat_interval(mut self, interval: Duration) -> ReplConfig {
        self.heartbeat_interval = interval;
        self
    }

    /// Sets the election timeout.
    #[must_use]
    pub fn with_election_timeout(mut self, timeout: Duration) -> ReplConfig {
        self.election_timeout = timeout;
        self
    }

    /// Enables or disables automatic promotion.
    #[must_use]
    pub fn with_auto_promote(mut self, auto: bool) -> ReplConfig {
        self.auto_promote = auto;
        self
    }

    /// Enables or disables synchronous replication.
    #[must_use]
    pub fn with_sync(mut self, sync: bool) -> ReplConfig {
        self.sync = sync;
        self
    }
}

// ---------------------------------------------------------------------
// Frame codec: the WAL record envelope on a socket.
// ---------------------------------------------------------------------

/// Frames one replication payload exactly like a WAL record:
/// `[len:u32][crc32:u32][payload]`, little-endian.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    wal::frame(payload)
}

/// The outcome of [`decode_frame`] on a byte prefix of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameDecode {
    /// One whole frame: its payload and the bytes it consumed.
    Complete {
        /// The checksummed payload.
        payload: Vec<u8>,
        /// Bytes of `buf` this frame occupied (header + payload).
        consumed: usize,
    },
    /// Not enough bytes yet for a verdict; read more.
    Incomplete,
    /// The prefix can never become a valid frame (oversized length or
    /// checksum mismatch); the connection must be dropped.
    Corrupt(String),
}

/// Decodes the first frame from `buf`, if one is complete.
///
/// A frame is only ever surfaced whole and checksum-verified: arbitrary
/// truncation yields [`FrameDecode::Incomplete`], and a flipped bit in
/// the header or payload yields [`FrameDecode::Corrupt`] (up to CRC32
/// collision odds) — a partial or damaged record is never applied.
pub fn decode_frame(buf: &[u8]) -> FrameDecode {
    match wal::check_frame(buf) {
        FrameCheck::Whole(payload, consumed) => FrameDecode::Complete {
            payload: payload.to_vec(),
            consumed,
        },
        FrameCheck::Short => FrameDecode::Incomplete,
        FrameCheck::Bad(why) => FrameDecode::Corrupt(why),
    }
}

/// Builds one framed replication message: a JSON object whose `t` field
/// is the message kind, with `fields` appended, wrapped in the WAL
/// record envelope. Public so the deterministic simulator (`ref-dst`)
/// can speak the exact wire protocol in-process.
pub fn message(t: &str, fields: Vec<(&str, Value)>) -> Vec<u8> {
    let mut pairs = vec![("t", Value::str(t))];
    pairs.extend(fields);
    encode_frame(Value::obj(pairs).encode().as_bytes())
}

/// Parses a decoded frame payload back into a JSON replication message,
/// requiring the `t` kind tag. Inverse of [`message`].
pub fn parse_message(payload: &[u8]) -> Option<Value> {
    let text = std::str::from_utf8(payload).ok()?;
    let value = Value::parse(text).ok()?;
    value.get("t")?;
    Some(value)
}

/// The `t` kind tag of a parsed replication message (empty if absent).
pub fn kind(msg: &Value) -> &str {
    msg.get("t").and_then(Value::as_str).unwrap_or("")
}

/// The first byte of a `rec` payload; no JSON message starts with it.
const REC_TAG: u8 = 0;

/// Bytes of a `rec` payload before the record: the tag and the sequence.
const REC_HEAD: usize = 1 + 8;

/// The framed `rec` carrying the log record at `seq`: `record` is the
/// event's [`MarketEvent::write_record`] bytes, as the WAL stores them.
pub fn rec_frame(seq: u64, record: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(wal::RECORD_HEADER_BYTES + REC_HEAD + record.len());
    wal::frame_into(&mut out, |out| {
        out.push(REC_TAG);
        out.extend_from_slice(&seq.to_le_bytes());
        out.extend_from_slice(record);
    });
    out
}

/// One replication frame's payload, decoded by [`parse_frame`].
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A `rec`: the log record at `seq`.
    Rec {
        /// The record's log sequence.
        seq: u64,
        /// The event the record holds.
        event: MarketEvent,
        /// The record's bytes, exactly one event's
        /// [`MarketEvent::write_record`]: a standby appends them as they
        /// came.
        record: Vec<u8>,
    },
    /// Any other message: a JSON object with its `t` kind tag.
    Msg(Value),
}

impl Frame {
    /// The message kind: `rec`, or a JSON message's `t` tag.
    pub fn kind(&self) -> &str {
        match self {
            Frame::Rec { .. } => "rec",
            Frame::Msg(msg) => kind(msg),
        }
    }
}

/// The one decoder of a checksummed frame payload (both drivers call it:
/// the standby's socket loop and the simulator): a `rec` whose record is
/// exactly one event, or a JSON message with its kind tag. `None` for
/// anything else — a truncated or over-long record, an unknown tag, text
/// that is not a tagged object — which no frame a primary sends can be.
pub fn parse_frame(mut payload: Vec<u8>) -> Option<Frame> {
    if payload.first() != Some(&REC_TAG) {
        return parse_message(&payload).map(Frame::Msg);
    }
    let seq = u64::from_le_bytes(payload.get(1..REC_HEAD)?.try_into().ok()?);
    let event = wal::read_event(&payload[REC_HEAD..]).ok()?;
    payload.drain(..REC_HEAD);
    Some(Frame::Rec {
        seq,
        event,
        record: payload,
    })
}

/// Incremental frame reader over a socket with a short read timeout, so
/// callers can interleave shutdown/role checks between frames.
struct FrameConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl FrameConn {
    fn new(stream: TcpStream) -> FrameConn {
        FrameConn {
            stream,
            buf: Vec::new(),
        }
    }

    /// Reads until one whole frame is available (`Ok(Some)`), the read
    /// times out with no complete frame (`Ok(None)`), or the stream is
    /// closed or corrupt (`Err`): the connection is over.
    fn read_frame(&mut self) -> Result<Option<Vec<u8>>, ()> {
        loop {
            match decode_frame(&self.buf) {
                FrameDecode::Complete { payload, consumed } => {
                    self.buf.drain(..consumed);
                    return Ok(Some(payload));
                }
                FrameDecode::Corrupt(_) => return Err(()),
                FrameDecode::Incomplete => {}
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(None)
                }
                Err(_) => return Err(()),
            }
        }
    }

    /// Reads one frame within `deadline`, tolerating timeout ticks:
    /// `None` once the deadline passes, or the stream is closed/corrupt.
    fn read_frame_deadline(&mut self, deadline: Duration) -> Option<Vec<u8>> {
        let until = Instant::now() + deadline;
        while Instant::now() < until {
            if let Some(payload) = self.read_frame().ok()? {
                return Some(payload);
            }
        }
        None
    }
}

// ---------------------------------------------------------------------
// Shared replication state.
// ---------------------------------------------------------------------

/// One standby's socket, as the primary's [`Replication`] writes to it.
#[derive(Debug)]
pub(crate) struct Socket(TcpStream);

impl Peer for Socket {
    fn send(&mut self, frame: &[u8]) -> bool {
        self.0.write_all(frame).is_ok()
    }

    /// Shuts the socket, so the handler's ack read ends and the standby
    /// sees the drop at once and reconnects.
    fn close(&mut self) {
        let _ = self.0.shutdown(std::net::Shutdown::Both);
    }
}

/// How long a write to a caught-up standby's socket may block. Writes
/// happen under the primary's shard lock, so this bounds what a replica
/// that stopped reading can cost: past it the session is dropped,
/// exactly as one whose hold was full.
const SEND_TIMEOUT: Duration = Duration::from_millis(100);

/// Replication state shared between the threads that serve requests and
/// the replication threads: the node's [`Replication`] behind one lock,
/// its role/term/lease published to atomics (so the per-request role
/// gate takes no lock), and the gauges. A shard's [`crate::node::Node`]
/// holds it as its [`Link`]; the ack reader and the catch-up stream use
/// it without the shard lock.
#[derive(Debug)]
pub(crate) struct ReplShared {
    config: ReplConfig,
    /// The shard's log, read through the storage its WAL writes with.
    log: (Arc<dyn Storage>, PathBuf),
    half: Mutex<Replication<Socket>>,
    /// Signalled (under `half`) whenever an ack lands.
    ack_signal: Condvar,
    role: AtomicU8,
    /// Whether the core's recovery lease may still refuse mutations.
    lease: AtomicBool,
    clock: Arc<dyn Clock>,
    metrics: Arc<ServeMetrics>,
}

impl ReplShared {
    /// `wal` is the replicated shard's log, at the position the node
    /// boots with; `rng_seed` feeds the election jitter.
    pub(crate) fn new(
        config: ReplConfig,
        wal: &Wal,
        clock: Arc<dyn Clock>,
        rng_seed: u64,
        metrics: Arc<ServeMetrics>,
    ) -> ReplShared {
        // The server keeps no durable term: every boot starts at 0.
        let now = clock.now();
        let core = ReplCore::new(&config, rng_seed, 0, wal.next_seq(), now);
        ReplShared {
            role: AtomicU8::new(core.role() as u8),
            lease: AtomicBool::new(core.lease_live(now)),
            half: Mutex::new(Replication::new(core, Arc::clone(&clock))),
            ack_signal: Condvar::new(),
            config,
            log: (wal.storage(), wal.dir().to_path_buf()),
            clock,
            metrics,
        }
    }

    /// The node's replication configuration.
    pub(crate) fn config(&self) -> &ReplConfig {
        &self.config
    }

    /// The node's current role, lock-free.
    pub(crate) fn role(&self) -> Role {
        Role::from_u8(self.role.load(Ordering::SeqCst))
    }

    fn half(&self) -> MutexGuard<'_, Replication<Socket>> {
        self.half.lock().expect("repl lock poisoned")
    }

    /// Runs `step` on the replication half, then publishes what it
    /// decided: role and lease to the atomics, a fence to the
    /// (sticky, loud) gauge, and the standby and lag gauges.
    pub(crate) fn step<T>(&self, step: impl FnOnce(&mut Replication<Socket>) -> T) -> T {
        let mut half = self.half();
        let out = step(&mut half);
        let (core, now) = (&half.repl, self.clock.now());
        self.role.store(core.role() as u8, Ordering::SeqCst);
        self.lease.store(core.lease_live(now), Ordering::SeqCst);
        let metrics = &self.metrics;
        if core.role() == Role::Fenced {
            metrics.fenced.store(1, Ordering::Relaxed);
        }
        (metrics.standby_connected).store(half.attached() as u64, Ordering::Relaxed);
        (metrics.repl_lag_records).store(half.lag(), Ordering::Relaxed);
        out
    }

    /// The heartbeat half of the replication timer
    /// ([`Replication::beat`]), and how long until the next (`None` when
    /// this node does not lead).
    pub(crate) fn heartbeat(&self) -> Option<Duration> {
        match self.step(Replication::beat) {
            Timer::Heartbeat => Some(self.config.heartbeat_interval),
            Timer::Idle(Some(at)) => Some(at.saturating_sub(self.clock.now())),
            Timer::Elect | Timer::Redial | Timer::Idle(None) => None,
        }
    }

    /// Blocks until some standby has applied `target` events, or at once
    /// when no live session took the record (`attached`; `true`: release
    /// the reply), or until the configured ack timeout lapses with the
    /// standby still behind (`false`). A session that dies meanwhile
    /// releases nothing: its standby may have hung up to take over.
    pub(crate) fn wait_applied(&self, target: u64, attached: bool) -> bool {
        let deadline = Instant::now() + self.config.ack_timeout;
        let mut half = self.half();
        loop {
            if half.repl.ack_state(target, attached) != AckWait::Pending {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .ack_signal
                .wait_timeout(half, deadline - now)
                .expect("repl lock poisoned");
            half = guard;
        }
    }
}

impl crate::node::Link for Arc<ReplShared> {
    type Peer = Socket;

    fn with<T>(&mut self, step: impl FnOnce(&mut Replication<Socket>) -> T) -> T {
        self.step(step)
    }

    fn role(&mut self) -> Role {
        ReplShared::role(self)
    }

    /// Lock-free on a primary whose recovery lease is over.
    fn admit(&mut self) -> Option<Value> {
        if ReplShared::role(self) == Role::Primary && !self.lease.load(Ordering::SeqCst) {
            return None;
        }
        self.step(|r| r.drive(|core, now| core.admit_mutation(now)))
    }
}

// ---------------------------------------------------------------------
// Primary side: accept standbys, catch them up, stream, verify acks.
// ---------------------------------------------------------------------

/// Registers `handle` with a connection registry, joining and
/// discarding the threads that already exited, so a registry stays
/// bounded by *open* connections rather than growing with every
/// connection ever accepted.
pub(crate) fn register(handles: &Mutex<Vec<JoinHandle<()>>>, handle: JoinHandle<()>) {
    let mut handles = handles.lock().expect("thread registry lock poisoned");
    handles.push(handle);
    let mut i = 0;
    while i < handles.len() {
        if handles[i].is_finished() {
            // Joining a finished thread returns immediately.
            let _ = handles.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

/// Accept loop of the replication listener. Mirrors the client
/// acceptor: blocks in `accept` (the stopping server wakes it with a
/// connection of its own), one handler thread per standby, finished
/// handles reaped on each accept.
pub(crate) fn repl_acceptor_loop(
    listener: TcpListener,
    shared: &Arc<Shared>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let shared = Arc::clone(shared);
        register(
            handlers,
            spawn("ref-serve-repl", move || handle_standby(stream, &shared)),
        );
    }
}

/// Serves one standby connection end to end: handshake, disk catch-up,
/// the hand-over to live streaming (appenders write to the socket from
/// then on), and the ack-reading loop with per-epoch fingerprint
/// verification.
fn handle_standby(stream: TcpStream, shared: &Arc<Shared>) {
    let repl = shared.repl.as_ref().expect("repl handler without config");
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let (Ok(mut writer), Ok(live)) = (stream.try_clone(), stream.try_clone()) else {
        return;
    };
    let mut conn = FrameConn::new(stream);

    let Some(payload) = conn.read_frame_deadline(Duration::from_secs(5)) else {
        return;
    };
    let Some(hello) = parse_message(&payload) else {
        return;
    };
    if kind(&hello) != "hello" {
        return;
    }
    // On accept the session opens *before* the log is read, and the
    // disk history streams directly: every record appended from now on
    // is held in the session, everything before the read's end is on
    // disk, and going live skips held records the disk already covered —
    // no gap, no duplicate. The lock is held for a go-live step, never
    // for a write, so no appender waits on this socket.
    let (have, id) = match repl.step(|r| r.accept(&hello, Socket(live))) {
        (Hello::Accept { have, meta }, Some(id)) if writer.write_all(&meta).is_ok() => (have, id),
        // A higher term fenced this node before the refusal went out,
        // so no mutation sneaks through the window.
        (Hello::Refuse(frame), _) => return drop(writer.write_all(&frame)),
        (_, id) => {
            return id
                .into_iter()
                .for_each(|id| repl.step(|r| r.retire(id, None)))
        }
    };
    let (storage, dir) = &repl.log;
    let send = |frame: Vec<u8>| writer.write_all(&frame);
    let step = |upto| {
        let _ = conn.stream.set_write_timeout(Some(SEND_TIMEOUT));
        repl.step(|r| r.go_live(id, upto))
    };
    if hand_over(have, storage.as_ref(), dir, send, step).is_ok() {
        ack_loop(&mut conn, &mut writer, shared, repl, id);
    }
    repl.step(|r| r.retire(id, None));
}

/// Primary-side ack reader for standby session `id`: tracks progress for
/// the sync-mode wait and verifies the per-epoch state fingerprints — on
/// the replication half alone, never under the shard lock a sync-mode
/// mutation waits under.
fn ack_loop(
    conn: &mut FrameConn,
    writer: &mut TcpStream,
    shared: &Shared,
    repl: &ReplShared,
    id: u64,
) {
    loop {
        if shared.stop.load(Ordering::SeqCst) || repl.role() != Role::Primary {
            return;
        }
        let payload = match conn.read_frame() {
            Ok(Some(payload)) => payload,
            Ok(None) => continue,
            Err(_) => return,
        };
        let Some(msg) = parse_message(&payload) else {
            return;
        };
        if kind(&msg) != "ack" {
            continue;
        }
        let verdict = repl.step(|r| r.ack(id, &msg));
        repl.ack_signal.notify_all();
        match verdict {
            Ack::Ignored => return,
            Ack::Progress(_) => {}
            Ack::Diverged { notice, .. } => {
                // The replica's state split from ours. Halt its
                // replication loudly: count it, tell it (so it fences
                // itself), drop it. Never promote material.
                ServeMetrics::bump(&shared.metrics.divergences);
                repl.step(|r| r.retire(id, Some(&notice)));
                let _ = writer.shutdown(std::net::Shutdown::Write);
                // Read on until the replica hangs up (the notice makes
                // it): closing over its unread acks would reset the
                // connection, and a reset may overtake the notice.
                let until = Instant::now() + Duration::from_secs(1);
                while Instant::now() < until && conn.read_frame().is_ok() {}
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Standby side: follow the primary, apply under the shard lock, promote.
// ---------------------------------------------------------------------

/// Standby puller thread, for as long as the node is a standby: carries
/// out the core's [`Timer`] verdicts — dial the primary and follow it,
/// or elect itself.
pub(crate) fn standby_loop(shared: &Arc<Shared>) {
    let repl = shared.repl.as_ref().expect("standby loop without config");
    loop {
        if shared.stop.load(Ordering::SeqCst) || repl.role() != Role::Standby {
            return;
        }
        match repl.step(|r| r.drive(|core, now| core.timer(now))) {
            Timer::Redial => {
                follow_primary(shared, repl);
                repl.step(|r| r.repl.hang_up());
            }
            // Under the shard lock, so the role flip is serialized with
            // event application and a panic that took the node Down
            // meanwhile is seen: the node reads the verdict again there.
            Timer::Elect => {
                shared.locked(|node| {
                    if let Some(promotion) = node.elect(&shared.metrics) {
                        carry_out(Some(promotion), shared);
                    }
                });
            }
            Timer::Heartbeat | Timer::Idle(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// One session against the primary: dial it, handshake, then hand every
/// frame to the node under the shard lock (which a promotion takes too)
/// and write the ack it makes, until disconnect, role change, or
/// divergence.
fn follow_primary(shared: &Arc<Shared>, repl: &ReplShared) {
    let (addr, hello) = repl.step(|r| {
        let hello = r.drive(|core, now| core.dial(now));
        (r.repl.dial_target().map(str::to_string), hello)
    });
    let Some(addr) = addr else { return };
    let Ok(stream) = TcpStream::connect(&addr) else {
        return;
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut conn = FrameConn::new(stream);
    if writer.write_all(&hello).is_err() {
        return;
    }
    let mut first = true;
    loop {
        if shared.stop.load(Ordering::SeqCst) || repl.role() != Role::Standby {
            return;
        }
        let payload = if first {
            conn.read_frame_deadline(Duration::from_secs(5))
        } else {
            match conn.read_frame() {
                Ok(Some(payload)) => Some(payload),
                // Connected but mute (wedged primary): treat it as dead
                // and let the election path take over.
                Ok(None) if repl.step(|r| r.drive(|core, now| core.mute(now))) => return,
                Ok(None) => continue,
                Err(_) => None,
            }
        };
        let Some(frame) = payload.and_then(parse_frame) else {
            return;
        };
        // The handshake reply: `meta` (follow) or `refuse` (redirect, or
        // fence when this standby is ahead of the primary).
        if std::mem::take(&mut first) && !matches!(frame.kind(), "meta" | "refuse") {
            return;
        }
        let step = shared.locked(|node| {
            if shared.stop.load(Ordering::SeqCst) {
                return None;
            }
            let follow = node.follow(frame, &addr, &shared.metrics);
            if let Follow::HangUp { crash: true, .. } = follow {
                shared.degrade(node);
            }
            Some(follow)
        });
        match step.flatten() {
            Some(Follow::Ack { ack, .. }) if writer.write_all(&ack).is_err() => return,
            Some(Follow::Ack { .. } | Follow::Reading) | None => {}
            Some(Follow::HangUp { .. }) => return,
        }
    }
}

/// Best-effort depose of an old primary after a promotion: present the
/// core's higher-term `hello` on its replication listener so it fences
/// itself if it is somehow still alive.
pub(crate) fn fence_notify(addr: String, hello: Vec<u8>) {
    let Ok(mut stream) = TcpStream::connect(&addr) else {
        return;
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.write_all(&hello);
    let mut conn = FrameConn::new(stream);
    let _ = conn.read_frame_deadline(Duration::from_millis(500));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::MAX_FRAME_BYTES;

    #[test]
    fn frames_round_trip_and_concatenate() {
        let a = encode_frame(b"hello");
        let b = encode_frame(b"");
        let c = encode_frame(&[0xFF; 300]);
        let mut stream = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);
        stream.extend_from_slice(&c);
        let mut seen = Vec::new();
        let mut off = 0;
        while off < stream.len() {
            match decode_frame(&stream[off..]) {
                FrameDecode::Complete { payload, consumed } => {
                    seen.push(payload);
                    off += consumed;
                }
                other => panic!("unexpected {other:?} at {off}"),
            }
        }
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0], b"hello");
        assert!(seen[1].is_empty());
        assert_eq!(seen[2].len(), 300);
    }

    #[test]
    fn truncation_is_incomplete_never_partial() {
        let frame = encode_frame(b"some payload bytes");
        for cut in 0..frame.len() {
            assert_eq!(
                decode_frame(&frame[..cut]),
                FrameDecode::Incomplete,
                "cut {cut}"
            );
        }
    }

    #[test]
    fn oversized_length_is_corrupt() {
        let mut frame = encode_frame(b"x");
        frame[0..4].copy_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        assert!(matches!(decode_frame(&frame), FrameDecode::Corrupt(_)));
    }

    #[test]
    fn payload_bit_flip_is_corrupt() {
        let mut frame = encode_frame(b"payload under test");
        let n = frame.len();
        frame[n - 3] ^= 0x10;
        assert!(matches!(decode_frame(&frame), FrameDecode::Corrupt(_)));
    }
}
