//! Primary/standby replication: WAL shipping, promotion, fencing, and
//! divergence detection (DESIGN.md §10).
//!
//! A primary streams its durable history — an optional bootstrap
//! checkpoint followed by every WAL record — over a dedicated TCP
//! listener to any number of standbys. Frames reuse the WAL's record
//! envelope (`[len:u32][crc32:u32][payload]`, [`wal::frame`]) with a
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
//! is decided by [`ReplCore`], the sans-IO state machine the
//! deterministic simulator drives too. This module is its threaded
//! driver: sockets, the frame codec, sink queues, and the blocking
//! sync-mode wait. Threads lock the core briefly per frame and publish
//! its role and term to atomics, so the per-request role gate never
//! takes a lock.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ref_market::MarketEvent;

use crate::clock::Clock;
use crate::json::Value;
use crate::metrics::ServeMetrics;
use crate::protocol::{event_to_value, Class};
pub use crate::repl_core::Role;
use crate::repl_core::{Ack, AckWait, Hello, Promotion, ReplCore, Stream};
use crate::server::{Item, Shared};
use crate::wal::{self, crc32, MAX_FRAME_BYTES, RECORD_HEADER_BYTES};

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
    if buf.len() < RECORD_HEADER_BYTES {
        return FrameDecode::Incomplete;
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
    if len > MAX_FRAME_BYTES {
        return FrameDecode::Corrupt(format!("frame length {len} exceeds {MAX_FRAME_BYTES}"));
    }
    let crc = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    let body = &buf[RECORD_HEADER_BYTES..];
    if (body.len() as u64) < u64::from(len) {
        return FrameDecode::Incomplete;
    }
    let payload = &body[..len as usize];
    if crc32(payload) != crc {
        return FrameDecode::Corrupt("frame payload fails its checksum".to_string());
    }
    FrameDecode::Complete {
        payload: payload.to_vec(),
        consumed: RECORD_HEADER_BYTES + len as usize,
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

/// A replicated record or raw frame queued for one standby connection.
enum SinkMsg {
    /// A live WAL record; `seq` lets the sender skip records the disk
    /// catch-up already covered.
    Rec { seq: u64, frame: Vec<u8> },
    /// A pre-framed control message (heartbeat, diverged notice).
    Raw(Vec<u8>),
}

/// One connected standby, from the primary's point of view: the queue
/// feeding its sender thread, its ack progress, and whether it is live.
#[derive(Debug, Clone)]
struct Sink {
    id: u64,
    tx: mpsc::SyncSender<SinkMsg>,
    acked: Arc<AtomicU64>,
    alive: Arc<AtomicBool>,
}

/// How many queued records a standby connection may fall behind before
/// the primary drops it (it reconnects and catches up from disk).
const SINK_QUEUE: usize = 4096;

/// Replication state shared between the ticker, the transport threads,
/// and the replication threads: the [`ReplCore`] behind a mutex, its
/// role/term/lease published to atomics, and the I/O plumbing (sink
/// queues, the ack channel) the core knows nothing about.
#[derive(Debug)]
pub struct ReplShared {
    config: ReplConfig,
    wal_dir: PathBuf,
    core: Mutex<ReplCore>,
    /// Signalled (under `core`) whenever an ack lands or a sink drops.
    ack_signal: Condvar,
    role: AtomicU8,
    term: AtomicU64,
    /// Whether the core's recovery lease may still refuse mutations.
    lease: AtomicBool,
    /// Standby: set when the stream hit an unrecoverable ordering gap
    /// and the puller must reconnect to resynchronize.
    resync: AtomicBool,
    sinks: Mutex<Vec<Sink>>,
    next_sink_id: AtomicU64,
    /// Standby: channel to the ack-writer thread of the live stream.
    ack_tx: Mutex<Option<mpsc::Sender<Vec<u8>>>>,
    clock: Arc<dyn Clock>,
}

impl ReplShared {
    /// `log_seq` is the recovered log position the node boots with;
    /// `rng_seed` feeds the election jitter.
    pub(crate) fn new(
        config: ReplConfig,
        wal_dir: PathBuf,
        clock: Arc<dyn Clock>,
        rng_seed: u64,
        log_seq: u64,
    ) -> ReplShared {
        // The server keeps no durable term: every boot starts at 0.
        let now = clock.now();
        let core = ReplCore::new(&config, rng_seed, 0, log_seq, now);
        ReplShared {
            role: AtomicU8::new(core.role() as u8),
            term: AtomicU64::new(core.term()),
            lease: AtomicBool::new(core.lease_live(now)),
            core: Mutex::new(core),
            ack_signal: Condvar::new(),
            config,
            wal_dir,
            resync: AtomicBool::new(false),
            sinks: Mutex::new(Vec::new()),
            next_sink_id: AtomicU64::new(0),
            ack_tx: Mutex::new(None),
            clock,
        }
    }

    /// The node's replication configuration.
    pub fn config(&self) -> &ReplConfig {
        &self.config
    }

    /// The node's current role.
    pub fn role(&self) -> Role {
        Role::from_u8(self.role.load(Ordering::SeqCst))
    }

    /// The node's current term.
    pub fn term(&self) -> u64 {
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
    pub fn leader_client(&self) -> Option<String> {
        self.core().leader_client().map(str::to_string)
    }

    fn register_sink(&self) -> (Sink, mpsc::Receiver<SinkMsg>) {
        let (tx, rx) = mpsc::sync_channel(SINK_QUEUE);
        let sink = Sink {
            id: self.next_sink_id.fetch_add(1, Ordering::SeqCst),
            tx,
            acked: Arc::new(AtomicU64::new(0)),
            alive: Arc::new(AtomicBool::new(true)),
        };
        self.sinks
            .lock()
            .expect("repl lock poisoned")
            .push(sink.clone());
        (sink, rx)
    }

    /// Wakes the sync-mode waiter after the sink set changed. Taking the
    /// core lock first means the waiter is either before its check (and
    /// sees the change) or already parked (and gets the signal).
    fn sinks_changed(&self) {
        let _core = self.core();
        self.ack_signal.notify_all();
    }

    fn drop_sink(&self, id: u64) {
        self.sinks
            .lock()
            .expect("repl lock poisoned")
            .retain(|s| s.id != id);
        self.sinks_changed();
    }

    /// Connected (live) standby count.
    pub(crate) fn standby_count(&self) -> u64 {
        self.sinks
            .lock()
            .expect("repl lock poisoned")
            .iter()
            .filter(|s| s.alive.load(Ordering::SeqCst))
            .count() as u64
    }

    /// Records the slowest live standby still trails `next_seq` by.
    pub(crate) fn lag_records(&self, next_seq: u64) -> u64 {
        self.sinks
            .lock()
            .expect("repl lock poisoned")
            .iter()
            .filter(|s| s.alive.load(Ordering::SeqCst))
            .map(|s| next_seq.saturating_sub(s.acked.load(Ordering::SeqCst)))
            .max()
            .unwrap_or(0)
    }

    /// Streams one just-appended record to every live standby, after
    /// telling the core the log grew — a `hello` racing this very pass
    /// is judged against the published position, not a stale export. A
    /// sink whose queue is full is dropped (it reconnects and catches up
    /// from the log) — a slow replica must never stall the ticker.
    pub(crate) fn publish_record(&self, seq: u64, event: &MarketEvent) {
        self.core().note_log(seq + 1);
        let frame = message(
            "rec",
            vec![
                ("seq", Value::from_u64(seq)),
                ("event", event_to_value(event)),
            ],
        );
        let mut dropped = false;
        self.sinks.lock().expect("repl lock poisoned").retain(|s| {
            if !s.alive.load(Ordering::SeqCst) {
                dropped = true;
                return false;
            }
            match s.tx.try_send(SinkMsg::Rec {
                seq,
                frame: frame.clone(),
            }) {
                Ok(()) => true,
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                    s.alive.store(false, Ordering::SeqCst);
                    dropped = true;
                    false
                }
            }
        });
        if dropped {
            self.sinks_changed();
        }
    }

    /// Broadcasts the core's heartbeat (a no-op unless primary).
    pub(crate) fn publish_heartbeat(&self) {
        let Some(frame) = self.core().heartbeat() else {
            return;
        };
        self.sinks.lock().expect("repl lock poisoned").retain(|s| {
            s.alive.load(Ordering::SeqCst) && s.tx.try_send(SinkMsg::Raw(frame.clone())).is_ok()
        });
    }

    /// Blocks until some standby has applied `target` events or none is
    /// connected (`true`: release the reply), or the configured ack
    /// timeout lapses with the standby still behind (`false`).
    pub(crate) fn wait_applied(&self, target: u64) -> bool {
        let deadline = Instant::now() + self.config.ack_timeout;
        let mut core = self.core();
        loop {
            if core.ack_state(target, self.standby_count() > 0) != AckWait::Pending {
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

    fn set_ack_tx(&self, tx: Option<mpsc::Sender<Vec<u8>>>) {
        *self.ack_tx.lock().expect("repl lock poisoned") = tx;
    }

    /// Standby: queues an apply-acknowledgement (with the per-epoch
    /// state fingerprint when the applied record closed an epoch) for
    /// the ack-writer thread of the live stream, if one is connected.
    pub(crate) fn send_ack(&self, have: u64, epoch_fp: Option<(u64, u64)>) {
        let frame = self.core().ack(have, epoch_fp);
        if let Some(tx) = self.ack_tx.lock().expect("repl lock poisoned").as_ref() {
            let _ = tx.send(frame);
        }
    }

    pub(crate) fn request_resync(&self) {
        self.resync.store(true, Ordering::SeqCst);
    }

    fn take_resync(&self) -> bool {
        self.resync.swap(false, Ordering::SeqCst)
    }
}

// ---------------------------------------------------------------------
// Primary side: accept standbys, catch them up, stream, verify acks.
// ---------------------------------------------------------------------

/// Accept loop of the replication listener. Mirrors the client
/// acceptor: non-blocking accepts, one handler thread per standby,
/// finished handles reaped as it goes.
pub(crate) fn repl_acceptor_loop(
    listener: TcpListener,
    shared: &Arc<Shared>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        {
            let mut live = handlers.lock().expect("repl handlers lock poisoned");
            let mut i = 0;
            while i < live.len() {
                if live[i].is_finished() {
                    let _ = live.swap_remove(i).join();
                } else {
                    i += 1;
                }
            }
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name("ref-serve-repl".to_string())
                    .spawn(move || handle_standby(stream, &shared))
                    .expect("spawn repl handler");
                handlers
                    .lock()
                    .expect("repl handlers lock poisoned")
                    .push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => return,
        }
    }
}

/// Serves one standby connection end to end: handshake, disk catch-up,
/// live streaming (on a dedicated sender thread), and the ack-reading
/// loop with per-epoch fingerprint verification.
fn handle_standby(stream: TcpStream, shared: &Arc<Shared>) {
    let repl = shared.repl.as_ref().expect("repl handler without config");
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let Ok(mut writer) = stream.try_clone() else {
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

    // Register the live sink *before* reading the log, then stream the
    // disk history directly: every record appended after registration is
    // in the sink queue, everything before the read's end is on disk,
    // and the sender thread skips queue records the disk already
    // covered — no gap, no duplicate.
    let (sink, rx) = repl.register_sink();
    let sent_upto = match catch_up(&mut writer, repl, have) {
        Ok(upto) => upto,
        Err(_) => {
            sink.alive.store(false, Ordering::SeqCst);
            repl.drop_sink(sink.id);
            return;
        }
    };
    let sender = {
        let alive = Arc::clone(&sink.alive);
        std::thread::Builder::new()
            .name("ref-serve-repl-send".to_string())
            .spawn(move || sink_sender(writer, rx, sent_upto, &alive))
            .expect("spawn repl sender")
    };

    ack_loop(&mut conn, shared, repl, &sink);

    sink.alive.store(false, Ordering::SeqCst);
    repl.drop_sink(sink.id);
    drop(sink);
    let _ = sender.join();
}

/// Streams the snapshot (when the standby is behind the retained log)
/// and the on-disk records from `have` onward; returns the first
/// sequence *not* covered. Reading the live directory is safe: the
/// ticker is the sole writer and records become visible only whole.
fn catch_up(writer: &mut TcpStream, repl: &ReplShared, have: u64) -> std::io::Result<u64> {
    let (first, events) = wal::read_events(&repl.wal_dir)?;
    let mut from = have;
    if have < first {
        let (seq, snapshot) = wal::newest_checkpoint(&repl.wal_dir)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "standby is behind the retained log and no checkpoint covers the gap",
            )
        })?;
        writer.write_all(&message(
            "snap",
            vec![
                ("seq", Value::from_u64(seq)),
                ("snapshot", Value::str(snapshot)),
            ],
        ))?;
        from = seq;
    }
    for (i, event) in events.iter().enumerate() {
        let seq = first + i as u64;
        if seq < from {
            continue;
        }
        writer.write_all(&message(
            "rec",
            vec![
                ("seq", Value::from_u64(seq)),
                ("event", event_to_value(event)),
            ],
        ))?;
    }
    Ok((first + events.len() as u64).max(from))
}

/// Sender thread of one standby connection: drains the sink queue,
/// skipping records the disk catch-up already shipped.
fn sink_sender(
    mut writer: TcpStream,
    rx: mpsc::Receiver<SinkMsg>,
    mut next_send: u64,
    alive: &AtomicBool,
) {
    loop {
        let msg = match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(msg) => msg,
            Err(RecvTimeoutError::Timeout) => {
                if !alive.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        };
        let frame = match msg {
            SinkMsg::Rec { seq, frame } => {
                if seq < next_send {
                    continue;
                }
                if seq > next_send {
                    // A hole between disk catch-up and the live queue
                    // should be impossible; never paper over it.
                    alive.store(false, Ordering::SeqCst);
                    return;
                }
                next_send = seq + 1;
                frame
            }
            SinkMsg::Raw(frame) => frame,
        };
        if writer.write_all(&frame).is_err() {
            alive.store(false, Ordering::SeqCst);
            return;
        }
    }
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
                shared.metrics.repl_lag_records.store(
                    repl.lag_records(shared.wal_seq.load(Ordering::SeqCst)),
                    Ordering::Relaxed,
                );
            }
            Ack::Diverged { notice, .. } => {
                // The replica's state split from ours. Halt its
                // replication loudly: count it, tell it (so it fences
                // itself), drop it. Never promote material. The sender
                // drains the queued notice before it observes the flag
                // and exits.
                ServeMetrics::bump(&shared.metrics.divergences);
                let _ = sink.tx.try_send(SinkMsg::Raw(notice));
                sink.alive.store(false, Ordering::SeqCst);
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Standby side: follow the primary, apply through the ticker, promote.
// ---------------------------------------------------------------------

/// Standby puller thread: connect to the primary, hand every frame to
/// the core and what it says to apply to the ticker (the sole engine
/// owner) via the bus, send apply-acks, and trigger promotion once the
/// core's election gate opens.
pub(crate) fn standby_loop(shared: &Arc<Shared>) {
    let repl = Arc::clone(shared.repl.as_ref().expect("standby loop without config"));
    loop {
        if shared.stop.load(Ordering::SeqCst) || repl.role() != Role::Standby {
            return;
        }
        let target = repl.core().dial_target().map(str::to_string);
        if let Some(addr) = target {
            if let Ok(stream) = TcpStream::connect(&addr) {
                follow_primary(shared, &repl, stream, &addr);
            }
        }
        if shared.stop.load(Ordering::SeqCst) || repl.role() != Role::Standby {
            return;
        }
        maybe_auto_promote(shared, &repl);
        if repl.role() != Role::Standby {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn maybe_auto_promote(shared: &Arc<Shared>, repl: &Arc<ReplShared>) {
    if !repl.core().election_due(repl.clock.now()) {
        return;
    }
    // The ticker performs the promotion so role flips are serialized
    // with event application; we just wait for the flip.
    if shared
        .bus
        .push(Class::Control, Item::Repl(ReplCommand::AutoPromote))
        .is_err()
    {
        return;
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline
        && repl.role() == Role::Standby
        && !shared.stop.load(Ordering::SeqCst)
    {
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One connected session against the primary: handshake, then pull
/// frames into the bus until disconnect, role change, or divergence.
fn follow_primary(shared: &Arc<Shared>, repl: &Arc<ReplShared>, stream: TcpStream, addr: &str) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut conn = FrameConn::new(stream);
    let hello = repl.core().hello();
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
        |msg: &Value| repl.drive(&shared.metrics, |core, now| core.on_frame(msg, addr, now));
    // The handshake reply: `meta` (follow) or `refuse` (redirect, or
    // fence when this standby is ahead of the primary).
    if !matches!(kind(&first), "meta" | "refuse") || on_frame(&first) != Stream::Following {
        return;
    }

    // Dedicated ack writer so slow ack flushes never delay frame pulls.
    let (ack_tx, ack_rx) = mpsc::channel::<Vec<u8>>();
    repl.set_ack_tx(Some(ack_tx));
    let ack_writer = std::thread::Builder::new()
        .name("ref-serve-repl-ack".to_string())
        .spawn(move || {
            while let Ok(frame) = ack_rx.recv() {
                if writer.write_all(&frame).is_err() {
                    return;
                }
            }
        })
        .expect("spawn repl ack writer");

    loop {
        if shared.stop.load(Ordering::SeqCst) || repl.role() != Role::Standby || repl.take_resync()
        {
            break;
        }
        if shared.bus.depth() > 8192 {
            // The ticker is behind; let TCP back the primary off instead
            // of ballooning the bus.
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let payload = match conn.read_frame() {
            Ok(Some(payload)) => payload,
            Ok(None) => {
                if repl.core().mute(repl.clock.now()) {
                    // Connected but mute (wedged primary): treat it as
                    // dead and let the election path take over.
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        let Some(msg) = parse_message(&payload) else {
            break;
        };
        let command = match on_frame(&msg) {
            Stream::Following => continue,
            // A stale primary, a divergence notice (we fenced), or a
            // frame that makes no sense.
            Stream::Drop => break,
            Stream::Apply { seq, event } => ReplCommand::Apply { seq, event },
            Stream::Restore { seq, snapshot } => ReplCommand::Restore { seq, snapshot },
        };
        if shared
            .bus
            .push(Class::Control, Item::Repl(command))
            .is_err()
        {
            break;
        }
    }
    repl.set_ack_tx(None);
    let _ = ack_writer.join();
}

/// Commands a replication stream injects into the ticker (the sole
/// engine mutator), keeping the standby's apply path identical to the
/// primary's.
#[derive(Debug)]
pub(crate) enum ReplCommand {
    /// Reset engine + WAL to a bootstrap checkpoint from the primary.
    Restore {
        /// Events the snapshot already covers.
        seq: u64,
        /// The snapshot text.
        snapshot: String,
    },
    /// Apply one replicated record.
    Apply {
        /// The record's WAL sequence.
        seq: u64,
        /// The event itself.
        event: MarketEvent,
    },
    /// The election timeout lapsed; promote if still a standby.
    AutoPromote,
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
