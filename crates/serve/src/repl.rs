//! Primary/standby replication: WAL shipping, promotion, fencing, and
//! divergence detection (DESIGN.md §10).
//!
//! A primary streams its durable history — an optional bootstrap
//! checkpoint followed by every WAL record — over a dedicated TCP
//! listener to any number of standbys. Frames reuse the WAL's record
//! envelope (`[len:u32][crc32:u32][payload]`, `wal::frame`) with a
//! one-line JSON payload per message, so the stream inherits the log's
//! corruption detection: a truncated or bit-flipped frame is caught by
//! the length or CRC check and never half-applied.
//!
//! ```text
//!   standby ──hello{term,have_seq}──▶ primary
//!   standby ◀──meta{term,client_addr}── primary      (or refuse{reason})
//!   standby ◀──snap{seq,snapshot}── primary           (only when behind
//!                                                      the retained log)
//!   standby ◀──rec{seq,event}──── primary             (catch-up + live)
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
//! apply verdict — by [`crate::session`]: sans-IO rules the
//! deterministic simulator drives too. This module is their threaded
//! driver: sockets, the frame codec, and the blocking sync-mode wait.
//! There are no relay threads: the thread that appended a record writes
//! its `rec` frame to every standby socket itself, and the standby's
//! puller applies each frame under the standby's shard lock and writes
//! the `ack` itself. Threads lock the core briefly per frame and publish
//! its role and term to atomics, so the per-request role gate never
//! takes a lock.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ref_market::MarketEvent;

use crate::clock::Clock;
use crate::json::Value;
use crate::metrics::ServeMetrics;
pub use crate::repl_core::Role;
use crate::repl_core::{Ack, AckWait, Hello, Promotion, ReplCore, Stream, Timer};
use crate::server::{handle_promote, Shared};
use crate::session::{self, Applied, GoLive, Offer, Session};
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

/// Parses a decoded frame payload back into a replication message,
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
    /// closed/corrupt (`Err`).
    fn read_frame(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        loop {
            match decode_frame(&self.buf) {
                FrameDecode::Complete { payload, consumed } => {
                    self.buf.drain(..consumed);
                    return Ok(Some(payload));
                }
                FrameDecode::Corrupt(detail) => {
                    return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, detail));
                }
                FrameDecode::Incomplete => {}
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "replication peer closed the connection",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Reads one frame within `deadline`, tolerating timeout ticks.
    fn read_frame_deadline(&mut self, deadline: Duration) -> std::io::Result<Vec<u8>> {
        let until = Instant::now() + deadline;
        loop {
            if let Some(payload) = self.read_frame()? {
                return Ok(payload);
            }
            if Instant::now() >= until {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "replication peer sent no frame within the deadline",
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Shared replication state.
// ---------------------------------------------------------------------

/// One connected standby, from the primary's point of view: the socket
/// records are written to, its ack progress, and whether it is live.
#[derive(Debug)]
struct Sink {
    id: u64,
    out: Mutex<SinkOut>,
    acked: AtomicU64,
    alive: AtomicBool,
}

/// The write side of a standby connection, and its [`Session`].
#[derive(Debug)]
struct SinkOut {
    stream: TcpStream,
    session: Session,
}

/// How long a write to a caught-up standby's socket may block. Writes
/// happen under the primary's shard lock, so this bounds what a replica
/// that stopped reading can cost: past it the sink is dropped, exactly
/// as one whose hold was full.
const SEND_TIMEOUT: Duration = Duration::from_millis(100);

impl Sink {
    /// Marks the sink dead and closes its socket, so the handler's ack
    /// read ends and the standby sees the drop at once and reconnects.
    fn kill(&self, out: &SinkOut) {
        self.alive.store(false, Ordering::SeqCst);
        let _ = out.stream.shutdown(std::net::Shutdown::Both);
    }

    fn out(&self) -> MutexGuard<'_, SinkOut> {
        self.out.lock().expect("repl lock poisoned")
    }

    /// Carries out the session's verdict on `frame` (a live record or a
    /// heartbeat). `false` once the sink is dead: the session killed it,
    /// or a write failed or timed out — possibly mid-frame, so the
    /// connection is unusable either way.
    fn send(&self, frame: &[u8], verdict: impl FnOnce(&mut Session) -> Offer) -> bool {
        if !self.alive.load(Ordering::SeqCst) {
            return false;
        }
        let mut out = self.out();
        let sent = match verdict(&mut out.session) {
            Offer::Held | Offer::Skip => true,
            Offer::Send => out.stream.write_all(frame).is_ok(),
            Offer::Kill => false,
        };
        if !sent {
            self.kill(&out);
        }
        sent
    }

    /// Retires the sink with a parting frame: nothing is written to the
    /// socket after it, and the write side is closed behind it.
    fn send_last(&self, frame: &[u8]) {
        let mut out = self.out();
        self.alive.store(false, Ordering::SeqCst);
        let _ = out.stream.write_all(frame);
        let _ = out.stream.shutdown(std::net::Shutdown::Write);
    }

    /// Ends the catch-up that covered everything below `upto`: sends
    /// the session's held frames, step by step, until it is live and
    /// appenders write to the socket directly. The sink's lock is only
    /// held for a step, never for a write, so no appender waits on this
    /// socket.
    fn go_live(&self, writer: &mut TcpStream, upto: u64) -> std::io::Result<()> {
        writer.set_write_timeout(Some(SEND_TIMEOUT))?;
        loop {
            let step = self.out().session.go_live(upto);
            match step {
                GoLive::Send(frames) => frames.iter().try_for_each(|f| writer.write_all(f))?,
                GoLive::Live => return Ok(()),
                GoLive::Kill => return Err(std::io::Error::other("hole in the held records")),
            }
        }
    }
}

/// Replication state shared between the threads that serve requests and
/// the replication threads: the [`ReplCore`] behind a mutex, its
/// role/term/lease published to atomics, and the standby sockets the
/// core knows nothing about.
#[derive(Debug)]
pub(crate) struct ReplShared {
    config: ReplConfig,
    /// The shard's log, read through the storage its WAL writes with.
    log: (Arc<dyn Storage>, PathBuf),
    core: Mutex<ReplCore>,
    /// Signalled (under `core`) whenever the core moves (an ack lands).
    ack_signal: Condvar,
    role: AtomicU8,
    term: AtomicU64,
    /// Whether the core's recovery lease may still refuse mutations.
    lease: AtomicBool,
    sinks: Mutex<Vec<Arc<Sink>>>,
    next_sink_id: AtomicU64,
    clock: Arc<dyn Clock>,
}

impl ReplShared {
    /// `wal` is the replicated shard's log, at the position the node
    /// boots with; `rng_seed` feeds the election jitter.
    pub(crate) fn new(
        config: ReplConfig,
        wal: &Wal,
        clock: Arc<dyn Clock>,
        rng_seed: u64,
    ) -> ReplShared {
        // The server keeps no durable term: every boot starts at 0.
        let now = clock.now();
        let core = ReplCore::new(&config, rng_seed, 0, wal.next_seq(), now);
        ReplShared {
            role: AtomicU8::new(core.role() as u8),
            term: AtomicU64::new(core.term()),
            lease: AtomicBool::new(core.lease_live(now)),
            core: Mutex::new(core),
            ack_signal: Condvar::new(),
            config,
            log: (wal.storage(), wal.dir().to_path_buf()),
            sinks: Mutex::new(Vec::new()),
            next_sink_id: AtomicU64::new(0),
            clock,
        }
    }

    /// The node's replication configuration.
    pub(crate) fn config(&self) -> &ReplConfig {
        &self.config
    }

    /// The node's current role.
    pub(crate) fn role(&self) -> Role {
        Role::from_u8(self.role.load(Ordering::SeqCst))
    }

    /// The node's current term.
    pub(crate) fn term(&self) -> u64 {
        self.term.load(Ordering::SeqCst)
    }

    fn core(&self) -> MutexGuard<'_, ReplCore> {
        self.core.lock().expect("repl lock poisoned")
    }

    /// Runs one transition of the core at the current clock reading,
    /// then publishes what it decided: role, term and lease to the
    /// atomics, a fence to the (sticky, loud) gauge, and a wake-up to
    /// any sync-mode waiter.
    fn drive<R>(
        &self,
        metrics: &ServeMetrics,
        step: impl FnOnce(&mut ReplCore, Duration) -> R,
    ) -> R {
        let now = self.clock.now();
        let mut core = self.core();
        let out = step(&mut core, now);
        self.role.store(core.role() as u8, Ordering::SeqCst);
        self.term.store(core.term(), Ordering::SeqCst);
        self.lease.store(core.lease_live(now), Ordering::SeqCst);
        if core.role() == Role::Fenced {
            metrics.fenced.store(1, Ordering::Relaxed);
        }
        self.ack_signal.notify_all();
        out
    }

    /// The role gate for an event-bearing request (`None` admits it).
    /// Lock-free on a primary whose recovery lease is over.
    pub(crate) fn admit_mutation(
        &self,
        metrics: &ServeMetrics,
        shard_tag: Option<u64>,
    ) -> Option<Value> {
        if self.role() == Role::Primary && !self.lease.load(Ordering::SeqCst) {
            return None;
        }
        self.drive(metrics, |core, now| core.admit_mutation(now, shard_tag))
    }

    /// Standby→primary transition (or the reason there is none).
    pub(crate) fn promote(&self, metrics: &ServeMetrics) -> Promotion {
        let promotion = self.drive(metrics, |core, _| core.promote());
        if matches!(promotion, Promotion::Promoted { .. }) {
            ServeMetrics::bump(&metrics.promotions);
        }
        promotion
    }

    pub(crate) fn set_self_addrs(&self, client: String, repl: String) {
        self.core().set_addrs(client, repl);
    }

    /// The current leader's *client* address, as far as this node knows.
    pub(crate) fn leader_client(&self) -> Option<String> {
        self.core().leader_client().map(str::to_string)
    }

    fn sinks(&self) -> MutexGuard<'_, Vec<Arc<Sink>>> {
        self.sinks.lock().expect("repl lock poisoned")
    }

    /// Registers a standby connection at `have` that is about to be
    /// caught up from disk: its session holds live records from this
    /// moment on.
    fn register_sink(&self, stream: TcpStream, have: u64, metrics: &ServeMetrics) -> Arc<Sink> {
        let sink = Arc::new(Sink {
            id: self.next_sink_id.fetch_add(1, Ordering::SeqCst),
            out: Mutex::new(SinkOut {
                stream,
                session: Session::open(have),
            }),
            acked: AtomicU64::new(0),
            alive: AtomicBool::new(true),
        });
        self.sinks().push(Arc::clone(&sink));
        self.sinks_changed(metrics);
        sink
    }

    /// Publishes the connected-standby gauge after the sink set changed.
    /// The sync-mode waiter needs no wake-up: a sink that drops releases
    /// no reply (see [`Self::wait_applied`]).
    fn sinks_changed(&self, metrics: &ServeMetrics) {
        metrics
            .standby_connected
            .store(self.standby_count(), Ordering::Relaxed);
    }

    fn drop_sink(&self, sink: &Sink, metrics: &ServeMetrics) {
        sink.kill(&sink.out());
        self.sinks().retain(|s| s.id != sink.id);
        self.sinks_changed(metrics);
    }

    /// Connected (live) standby count.
    pub(crate) fn standby_count(&self) -> u64 {
        self.sinks()
            .iter()
            .filter(|s| s.alive.load(Ordering::SeqCst))
            .count() as u64
    }

    /// Publishes how many records the slowest live standby still trails
    /// `next_seq` by.
    fn publish_lag(&self, metrics: &ServeMetrics, next_seq: u64) {
        let lag = self
            .sinks()
            .iter()
            .filter(|s| s.alive.load(Ordering::SeqCst))
            .map(|s| next_seq.saturating_sub(s.acked.load(Ordering::SeqCst)))
            .max()
            .unwrap_or(0);
        metrics.repl_lag_records.store(lag, Ordering::Relaxed);
    }

    /// Offers `send` to every standby; one it fails on is dropped.
    /// Whether any standby took it.
    fn broadcast(&self, metrics: &ServeMetrics, send: impl Fn(&Sink) -> bool) -> bool {
        let mut sinks = self.sinks();
        let before = sinks.len();
        sinks.retain(|s| send(s));
        let (dropped, took) = (sinks.len() < before, !sinks.is_empty());
        drop(sinks);
        if dropped {
            self.sinks_changed(metrics);
        }
        took
    }

    /// Streams one just-appended record to every live standby, on the
    /// calling thread, after telling the core the log grew — a `hello`
    /// racing this very request is judged against the published
    /// position, not a stale export. A sink that cannot take the record
    /// (see [`Sink::send`]) is dropped: it reconnects and catches up
    /// from the log — a slow replica must never stall the primary.
    /// Whether a live session took the record (see [`Self::wait_applied`]).
    pub(crate) fn publish_record(
        &self,
        seq: u64,
        event: &MarketEvent,
        metrics: &ServeMetrics,
    ) -> bool {
        self.core().note_log(seq + 1);
        let frame = session::rec_frame(seq, event);
        let attached = self.broadcast(metrics, |sink| sink.send(&frame, |s| s.offer(seq, &frame)));
        self.publish_lag(metrics, seq + 1);
        attached
    }

    /// The heartbeat half of the core's [`Timer`] verdict: broadcasts a
    /// heartbeat when one is due, and says how long until the next
    /// (`None` when this node does not lead).
    pub(crate) fn heartbeat(&self, metrics: &ServeMetrics) -> Option<Duration> {
        let now = self.clock.now();
        let frame = {
            let mut core = self.core();
            match core.timer(now) {
                Timer::Heartbeat => core.beat(now),
                Timer::Idle(Some(at)) => return Some(at.saturating_sub(now)),
                Timer::Elect | Timer::Redial | Timer::Idle(None) => return None,
            }
        };
        if let Some(frame) = frame {
            self.broadcast(metrics, |sink| sink.send(&frame, |s| s.heartbeat()));
        }
        Some(self.config.heartbeat_interval)
    }

    /// Whether the node leads (see [`ReplCore::leads`]).
    pub(crate) fn leads(&self) -> bool {
        self.core().leads()
    }

    /// Feeds the core the node's Down fact (see [`ReplCore::mark_down`]).
    pub(crate) fn mark_down(&self, metrics: &ServeMetrics) {
        self.drive(metrics, |core, _| core.mark_down());
    }

    /// Blocks until some standby has applied `target` events, or at once
    /// when no live session took the record (`attached`, from
    /// [`Self::publish_record`]; `true`: release the reply), or until the
    /// configured ack timeout lapses with the standby still behind
    /// (`false`). A session that dies meanwhile releases nothing: its
    /// standby may have hung up to take over.
    pub(crate) fn wait_applied(&self, target: u64, attached: bool) -> bool {
        let deadline = Instant::now() + self.config.ack_timeout;
        let mut core = self.core();
        loop {
            if core.ack_state(target, attached) != AckWait::Pending {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .ack_signal
                .wait_timeout(core, deadline - now)
                .expect("repl lock poisoned");
            core = guard;
        }
    }

    /// Records the primary's state fingerprint right after applying the
    /// epoch tick (see [`ReplCore::push_epoch_fp`]).
    pub(crate) fn push_epoch_fp(&self, have: u64, epoch: u64, fp: u64) {
        self.core().push_epoch_fp(have, epoch, fp);
    }
}

// ---------------------------------------------------------------------
// Primary side: accept standbys, catch them up, stream, verify acks.
// ---------------------------------------------------------------------

/// Joins and discards the handles of threads that have already exited,
/// so a registry stays bounded by *open* connections rather than growing
/// with every connection ever accepted.
pub(crate) fn reap_finished(handles: &Mutex<Vec<JoinHandle<()>>>) {
    let mut handles = handles.lock().expect("thread registry lock poisoned");
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
        reap_finished(handlers);
        let shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("ref-serve-repl".to_string())
            .spawn(move || handle_standby(stream, &shared))
            .expect("spawn repl handler");
        handlers
            .lock()
            .expect("thread registry lock poisoned")
            .push(handle);
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

    let Ok(payload) = conn.read_frame_deadline(Duration::from_secs(5)) else {
        return;
    };
    let Some(hello) = parse_message(&payload) else {
        return;
    };
    if kind(&hello) != "hello" {
        return;
    }
    let have = match repl.drive(&shared.metrics, |core, _| core.on_hello(&hello)) {
        Hello::Accept { have, meta } => {
            if writer.write_all(&meta).is_err() {
                return;
            }
            have
        }
        // A higher term fenced this node before the refusal went out,
        // so no mutation sneaks through the window.
        Hello::Refuse(frame) => {
            let _ = writer.write_all(&frame);
            return;
        }
    };

    // Register the sink *before* reading the log, then stream the disk
    // history directly: every record appended after registration is held
    // in the session, everything before the read's end is on disk, and
    // going live skips held records the disk already covered — no gap,
    // no duplicate.
    let sink = repl.register_sink(live, have, &shared.metrics);
    let (storage, dir) = &repl.log;
    let caught_up = session::catch_up(have, storage.as_ref(), dir, |f| writer.write_all(&f))
        .and_then(|(_, upto)| sink.go_live(&mut writer, upto));
    if caught_up.is_ok() {
        ack_loop(&mut conn, shared, repl, &sink);
    }
    repl.drop_sink(&sink, &shared.metrics);
}

/// Primary-side ack reader for one standby: tracks progress for the
/// sync-mode wait and verifies the per-epoch state fingerprints.
fn ack_loop(conn: &mut FrameConn, shared: &Arc<Shared>, repl: &Arc<ReplShared>, sink: &Sink) {
    loop {
        if shared.stop.load(Ordering::SeqCst)
            || !sink.alive.load(Ordering::SeqCst)
            || repl.role() != Role::Primary
        {
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
        match repl.drive(&shared.metrics, |core, _| core.on_ack(&msg)) {
            Ack::Ignored => return,
            Ack::Progress(have) => {
                sink.acked.store(have, Ordering::SeqCst);
                repl.publish_lag(&shared.metrics, shared.wal_seq.load(Ordering::SeqCst));
            }
            Ack::Diverged { notice, .. } => {
                // The replica's state split from ours. Halt its
                // replication loudly: count it, tell it (so it fences
                // itself), drop it. Never promote material.
                ServeMetrics::bump(&shared.metrics.divergences);
                sink.send_last(&notice);
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
/// out the core's [`Timer`] verdicts — dial the primary and follow it
/// (hand every frame to the core, apply what it says to apply under the
/// shard lock, write the apply-ack), or elect itself.
pub(crate) fn standby_loop(shared: &Arc<Shared>) {
    let repl = Arc::clone(shared.repl.as_ref().expect("standby loop without config"));
    loop {
        if shared.stop.load(Ordering::SeqCst) || repl.role() != Role::Standby {
            return;
        }
        // Bound first: a guard in the scrutinee would live through the arms.
        let timer = repl.core().timer(repl.clock.now());
        match timer {
            Timer::Redial => {
                follow_primary(shared, &repl);
                repl.core().hang_up();
            }
            // Under the shard lock, so the role flip is serialized with
            // event application and a panic that took the node Down
            // meanwhile is seen: the verdict is read again there.
            Timer::Elect => {
                shared.locked(|_| {
                    if repl.core().timer(repl.clock.now()) == Timer::Elect {
                        let _ = handle_promote(shared);
                    }
                });
            }
            Timer::Heartbeat | Timer::Idle(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// One session against the primary: dial it, handshake, then pull
/// frames, apply and ack them until disconnect, role change, or
/// divergence.
fn follow_primary(shared: &Arc<Shared>, repl: &Arc<ReplShared>) {
    let (addr, hello) = {
        let mut core = repl.core();
        let hello = core.dial(repl.clock.now());
        (core.dial_target().map(str::to_string), hello)
    };
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
    let Ok(payload) = conn.read_frame_deadline(Duration::from_secs(5)) else {
        return;
    };
    let Some(first) = parse_message(&payload) else {
        return;
    };
    let on_frame =
        |msg: &Value| repl.drive(&shared.metrics, |core, now| core.on_frame(msg, &addr, now));
    // The handshake reply: `meta` (follow) or `refuse` (redirect, or
    // fence when this standby is ahead of the primary).
    if !matches!(kind(&first), "meta" | "refuse") || on_frame(&first) != Stream::Following {
        return;
    }

    loop {
        if shared.stop.load(Ordering::SeqCst) || repl.role() != Role::Standby {
            return;
        }
        let payload = match conn.read_frame() {
            Ok(Some(payload)) => payload,
            Ok(None) => {
                if repl.core().mute(repl.clock.now()) {
                    // Connected but mute (wedged primary): treat it as
                    // dead and let the election path take over.
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        let Some(msg) = parse_message(&payload) else {
            return;
        };
        let verdict = match on_frame(&msg) {
            Stream::Following => continue,
            // A stale primary, a divergence notice (we fenced), or a
            // frame that makes no sense.
            Stream::Drop => return,
            verdict => verdict,
        };
        // Under the shard lock, which a promotion takes too. A degraded
        // node must not keep applying the stream: the engine already
        // missed an event its WAL holds. A panic while applying degrades
        // the shard (`None`).
        let step = shared.locked(|cell| {
            let following = !shared.stop.load(Ordering::SeqCst) && repl.role() == Role::Standby;
            let core = cell.core.as_mut().filter(|_| following && !cell.degraded)?;
            let applied = session::apply(core, verdict, &shared.metrics);
            Some((applied, core.events_applied()))
        });
        let ack = match step.flatten() {
            Some((Applied::Applied { epoch_fp }, have)) => repl.core().ack(have, epoch_fp),
            Some((Applied::Skipped, have)) => repl.core().ack(have, None),
            Some((Applied::Ignored, _)) | None => continue,
            Some((Applied::Resync, _)) => return,
        };
        if writer.write_all(&ack).is_err() {
            return;
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
