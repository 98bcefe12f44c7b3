//! `ReplCore`: the replication, election and fencing rules as one
//! sans-IO state machine (DESIGN.md §10).
//!
//! Inputs are decoded replication messages plus clock readings (a
//! `Duration` since the driver's clock origin); outputs are verdict
//! enums that carry the frames to send. Nothing in here opens a socket,
//! spawns, sleeps or blocks. The threaded server (`repl.rs`, the request
//! path in `server.rs`) and the deterministic simulator (`ref-dst`) drive
//! this one machine, so a rule a simulated sweep certifies is the rule
//! the server runs.
//!
//! What lives here: role and term, the leader hints, the seeded election
//! jitter, the election gate (silent past the timeout *and* heard this
//! boot *and* caught up to the log position the primary last
//! advertised), the post-recovery grace lease, the `have → (epoch, fp)`
//! audit ring, the verdict for every replication message, and the one
//! [`Timer`] verdict behind the heartbeat, election and re-dial cadence —
//! which takes the node's Down fact as an input, so a Down node neither
//! heartbeats nor elects itself.

use std::collections::VecDeque;
use std::time::Duration;

use ref_market::MarketEvent;

use crate::json::Value;
use crate::protocol::{error_response, not_primary_response, value_to_event};
use crate::repl::{kind, message, ReplConfig};

/// How a node currently participates in the replicated pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts mutations, streams its WAL to standbys.
    Primary = 0,
    /// Applies the primary's stream; serves reads; refuses mutations.
    Standby = 1,
    /// Deposed (saw a higher term) or diverged: refuses mutations *and*
    /// promotion. Terminal until the process is restarted.
    Fenced = 2,
}

impl Role {
    /// Wire/JSON name of the role.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Standby => "standby",
            Role::Fenced => "fenced",
        }
    }

    pub(crate) fn from_u8(x: u8) -> Role {
        match x {
            0 => Role::Primary,
            1 => Role::Standby,
            _ => Role::Fenced,
        }
    }
}

/// Per-epoch fingerprints the primary keeps for divergence checks.
const FP_RING: usize = 8192;

/// How long a standby that hears no primary waits between dials.
const REDIAL_EVERY: Duration = Duration::from_millis(20);

/// What a node's replication clock asks of its driver (see
/// [`ReplCore::timer`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timer {
    /// A leading primary's heartbeat is due: broadcast [`ReplCore::beat`].
    Heartbeat,
    /// The standby's election gate is open: promote.
    Elect,
    /// The standby hears no primary: send [`ReplCore::dial`]'s `hello`
    /// to `ReplCore::dial_target`.
    Redial,
    /// Nothing is due; a leading primary's next heartbeat is at this
    /// reading.
    Idle(Option<Duration>),
}

/// Scales `timeout` by a deterministic per-seed factor in `[1.0, 1.5)`.
///
/// Identical seeds give identical timeouts (reproducible elections in
/// the simulator); distinct seeds stagger, shrinking the window where
/// two standbys promote simultaneously after a primary death.
pub(crate) fn jittered(timeout: Duration, seed: u64) -> Duration {
    let frac_q32 = u64::from((crate::shard::mix64(seed ^ 0x00E1_EC71_0471_37E0) >> 32) as u32);
    let base = timeout.as_nanos() as u64;
    // extra = base * frac / 2 where frac ∈ [0, 1) in Q32 fixed point.
    let extra = (((u128::from(base) * u128::from(frac_q32)) >> 32) / 2) as u64;
    Duration::from_nanos(base.saturating_add(extra))
}

fn num(msg: &Value, key: &str) -> u64 {
    msg.get(key).and_then(Value::as_u64).unwrap_or(0)
}

fn text(msg: &Value, key: &str) -> Option<String> {
    msg.get(key).and_then(Value::as_str).map(str::to_string)
}

/// Verdict on a `hello` presented to this node.
#[derive(Debug, PartialEq)]
pub enum Hello {
    /// A standby this primary takes on: send `meta`, then stream the
    /// log from `have`.
    Accept {
        /// Records the standby already holds.
        have: u64,
        /// The framed `meta{term,client_addr}` reply.
        meta: Vec<u8>,
    },
    /// The framed `refuse{reason,term,leader?}` reply; close after it.
    Refuse(Vec<u8>),
}

/// Verdict on an `ack` from a standby.
#[derive(Debug, PartialEq)]
pub enum Ack {
    /// This node is not a primary; the ack means nothing to it.
    Ignored,
    /// The standby has applied `have` records.
    Progress(u64),
    /// The standby's state fingerprint split from this primary's: send
    /// the framed `diverged` notice and drop the replica.
    Diverged {
        /// The log position the fingerprints disagree at.
        have: u64,
        /// The framed notice (the replica fences itself on it).
        notice: Vec<u8>,
    },
}

/// Whether a sync-mode reply may be released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckWait {
    /// A standby confirmed applying up to the target.
    Acked,
    /// No standby is attached; replication degrades to async.
    NoStandby,
    /// A standby is attached and still behind the target.
    Pending,
}

/// Verdict on a frame from the primary's stream (standby side).
#[derive(Debug, PartialEq)]
pub enum Stream {
    /// Keep reading.
    Following,
    /// Apply this record through the service core.
    Apply {
        /// The record's WAL sequence.
        seq: u64,
        /// The event itself.
        event: MarketEvent,
    },
    /// Reset engine and WAL to this bootstrap checkpoint.
    Restore {
        /// Events the snapshot already covers.
        seq: u64,
        /// The snapshot text.
        snapshot: String,
    },
    /// Stale primary, refusal, divergence notice or malformed frame:
    /// drop the connection (and re-dial while still a standby).
    Drop,
}

/// Outcome of a promotion request.
#[derive(Debug, PartialEq)]
pub enum Promotion {
    /// A fenced node never promotes.
    Fenced,
    /// Already the primary, at this term (promotion is idempotent).
    Standing(u64),
    /// Standby → primary at the new `term`.
    Promoted {
        /// The bumped term.
        term: u64,
        /// The old leader's replication address and the framed
        /// higher-term `hello` that makes it fence itself.
        depose: Option<(String, Vec<u8>)>,
    },
}

/// The replication state machine of one node (see the module docs).
#[derive(Debug)]
pub struct ReplCore {
    role: Role,
    term: u64,
    auto_promote: bool,
    /// The configured election timeout after the seeded jitter.
    election_timeout: Duration,
    self_client: String,
    self_repl: String,
    standby_of: Option<String>,
    leader_client: Option<String>,
    leader_repl: Option<String>,
    last_heard: Duration,
    /// Whether this standby heard its primary since boot: one that never
    /// attached cannot have lost a leader, so it must not elect itself.
    heard_any: bool,
    /// The primary's log position as last advertised (`hb.seq`, `rec`).
    /// Electing while behind it would promote a stale log.
    primary_seq: u64,
    /// Records this node's own log holds: published ones on a primary,
    /// applied ones on a standby. Hellos are judged against it.
    log_seq: u64,
    /// Highest `have` any standby acknowledged.
    acked: u64,
    /// Recovery lease: a primary that booted with history refuses
    /// mutations until a standby attaches or this reading passes — a
    /// standby whose election timer is already running may depose it any
    /// moment, and a solo ack in that window would die with the branch.
    grace_until: Option<Duration>,
    /// `(have, epoch, fingerprint)` after each tick this primary applied.
    epoch_fps: VecDeque<(u64, u64, u64)>,
    heartbeat_interval: Duration,
    /// When a leading primary's next heartbeat is due (`None`: at once).
    next_beat: Option<Duration>,
    /// When this standby last dialed its primary (`None`: not this boot).
    last_dial: Option<Duration>,
    /// Whether the session that dial opened is still up, as far as the
    /// driver saw.
    following: bool,
    /// The node is Down: its engine is behind its log until it reboots.
    down: bool,
}

impl ReplCore {
    /// The machine of a node booting at `now` with `log_seq` recovered
    /// records. The role comes from `config` (`standby_of`); `term` is
    /// whatever the driver carried over the restart (0 on the server,
    /// which keeps no durable term); `seed` feeds the election jitter.
    pub fn new(config: &ReplConfig, seed: u64, term: u64, log_seq: u64, now: Duration) -> ReplCore {
        let role = if config.standby_of.is_some() {
            Role::Standby
        } else {
            Role::Primary
        };
        ReplCore {
            role,
            term,
            auto_promote: config.auto_promote,
            election_timeout: jittered(config.election_timeout, seed),
            self_client: String::new(),
            self_repl: String::new(),
            standby_of: config.standby_of.clone(),
            leader_client: None,
            leader_repl: None,
            last_heard: now,
            heard_any: false,
            primary_seq: 0,
            log_seq,
            acked: 0,
            grace_until: (role == Role::Primary && log_seq > 0)
                .then(|| now + 2 * config.election_timeout),
            epoch_fps: VecDeque::new(),
            heartbeat_interval: config.heartbeat_interval,
            next_beat: None,
            last_dial: None,
            following: false,
            down: false,
        }
    }

    /// The node went Down (a panic under its lock left the engine behind
    /// its log): from now on it neither heartbeats nor elects itself, so
    /// the standby's election replaces it.
    pub fn mark_down(&mut self) {
        self.down = true;
    }

    /// Whether the node leads: a primary that is not Down.
    pub(crate) fn leads(&self) -> bool {
        self.role == Role::Primary && !self.down
    }

    /// The replication clock at `now`: a leading primary's heartbeat
    /// every `heartbeat_interval`; a standby's election once its gate
    /// opens, else a dial on boot, and again once its session is over (or
    /// mute) and both the primary and the last dial have been quiet
    /// longer than `REDIAL_EVERY` (20 ms). Pure: the driver's
    /// [`ReplCore::beat`], [`ReplCore::dial`], [`ReplCore::hang_up`] and
    /// [`ReplCore::promote`] are what move the clock on.
    pub fn timer(&self, now: Duration) -> Timer {
        if self.leads() {
            return match self.next_beat {
                Some(at) if now < at => Timer::Idle(Some(at)),
                _ => Timer::Heartbeat,
            };
        }
        if self.election_due(now) {
            return Timer::Elect;
        }
        let quiet = |since: Duration| now.saturating_sub(since) > REDIAL_EVERY;
        let redial = self.last_dial.is_none_or(|at| {
            quiet(at) && quiet(self.last_heard) && (!self.following || self.mute(now))
        });
        if self.role == Role::Standby && !self.down && redial {
            Timer::Redial
        } else {
            Timer::Idle(None)
        }
    }

    /// The heartbeat frame a [`Timer::Heartbeat`] verdict sends at `now`;
    /// the next one is due a `heartbeat_interval` later.
    pub fn beat(&mut self, now: Duration) -> Option<Vec<u8>> {
        self.next_beat = Some(now + self.heartbeat_interval);
        self.heartbeat()
    }

    /// The `hello` a [`Timer::Redial`] verdict sends at `now`, opening a
    /// session.
    pub fn dial(&mut self, now: Duration) -> Vec<u8> {
        self.last_dial = Some(now);
        self.following = true;
        self.hello()
    }

    /// The session with the primary is over: the connection failed or
    /// was reset, or the driver dropped it on a [`Stream::Drop`].
    pub fn hang_up(&mut self) {
        self.following = false;
    }

    /// Records the addresses this node is reachable at (leader hints).
    pub fn set_addrs(&mut self, client: String, repl: String) {
        self.self_client = client;
        self.self_repl = repl;
    }

    /// The node's current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// The node's current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// The current leader's *client* address, as far as this node knows.
    pub fn leader_client(&self) -> Option<&str> {
        self.leader_client.as_deref()
    }

    /// The replication address a standby should dial: the last leader
    /// hint, else the configured primary.
    pub(crate) fn dial_target(&self) -> Option<&str> {
        self.leader_repl.as_deref().or(self.standby_of.as_deref())
    }

    /// Whether the recovery lease is still refusing mutations at `now`.
    pub(crate) fn lease_live(&self, now: Duration) -> bool {
        self.role == Role::Primary && self.grace_until.is_some_and(|until| now < until)
    }

    /// This node's log grew to `seq_after` records (a primary published
    /// one, a standby applied one).
    pub fn note_log(&mut self, seq_after: u64) {
        self.log_seq = self.log_seq.max(seq_after);
    }

    /// Fences this node: it saw evidence of a newer primary (`term`) or
    /// of its own divergence, and refuses mutations and promotion.
    pub fn fence(&mut self, term: u64) {
        self.term = self.term.max(term);
        self.role = Role::Fenced;
    }

    /// The role gate for an event-bearing request: `None` admits it,
    /// `Some(reply)` is the refusal — `not_primary` with the leader hint
    /// on a standby, `fenced`, or the recovery lease's retriable
    /// `unavailable` whose `retry_after_ms` is the lease's remainder.
    pub fn admit_mutation(&self, now: Duration, shard_tag: Option<u64>) -> Option<Value> {
        match self.role {
            Role::Standby => Some(not_primary_response(self.leader_client(), shard_tag)),
            Role::Fenced => Some(error_response(
                "fenced",
                Some("this node was deposed or diverged; it refuses mutations"),
                None,
            )),
            Role::Primary if self.lease_live(now) => {
                let left = self.grace_until.unwrap_or(now).saturating_sub(now);
                Some(error_response(
                    "unavailable",
                    Some("recovering: no standby has re-attached yet"),
                    Some((left.as_millis() as u64).max(1)),
                ))
            }
            Role::Primary => None,
        }
    }

    // -----------------------------------------------------------------
    // Primary side.
    // -----------------------------------------------------------------

    /// Judges a `hello{term,have_seq}`: a higher term deposes this node
    /// (it fences *before* answering), a non-primary redirects, a
    /// standby holding more history than this log is refused (it fences
    /// itself), anything else is accepted and ends the recovery lease.
    pub fn on_hello(&mut self, msg: &Value) -> Hello {
        let (their_term, have) = (num(msg, "term"), num(msg, "have_seq"));
        let refuse = |reason: &str, term: u64, leader: Option<&str>| {
            let mut fields = vec![
                ("reason", Value::str(reason)),
                ("term", Value::from_u64(term)),
            ];
            if let Some(leader) = leader {
                fields.push(("leader", Value::str(leader)));
            }
            Hello::Refuse(message("refuse", fields))
        };
        if their_term > self.term {
            self.fence(their_term);
            return refuse("fenced", their_term, None);
        }
        if self.role != Role::Primary {
            return refuse("not_primary", self.term, self.dial_target());
        }
        if have > self.log_seq {
            return refuse("standby_ahead", self.term, None);
        }
        self.grace_until = None;
        Hello::Accept {
            have,
            meta: message(
                "meta",
                vec![
                    ("term", Value::from_u64(self.term)),
                    ("client_addr", Value::str(self.self_client.clone())),
                ],
            ),
        }
    }

    /// Records this primary's state fingerprint right after a tick:
    /// `have` is the log position after the tick record. Keying by log
    /// position — not by the epoch a standby later *claims* — catches a
    /// replica that skipped an idle tick: at the same `have` its epoch
    /// lags.
    pub fn push_epoch_fp(&mut self, have: u64, epoch: u64, fp: u64) {
        self.epoch_fps.push_back((have, epoch, fp));
        while self.epoch_fps.len() > FP_RING {
            self.epoch_fps.pop_front();
        }
    }

    /// Judges an `ack{have,epoch?,fp?}`: progress for the sync-mode
    /// wait, and the fingerprint audit when the ack closes an epoch.
    pub fn on_ack(&mut self, msg: &Value) -> Ack {
        if self.role != Role::Primary {
            return Ack::Ignored;
        }
        let have = num(msg, "have");
        self.acked = self.acked.max(have);
        let got = msg
            .get("fp")
            .and_then(Value::as_str)
            .and_then(|s| u64::from_str_radix(s, 16).ok());
        if let (Some(epoch), Some(got)) = (msg.get("epoch").and_then(Value::as_u64), got) {
            let audited = self.epoch_fps.iter().rev().find(|(h, _, _)| *h == have);
            if let Some(&(_, want_epoch, expected)) = audited {
                if want_epoch != epoch || expected != got {
                    let notice = message(
                        "diverged",
                        vec![
                            ("epoch", Value::from_u64(epoch)),
                            ("expected_epoch", Value::from_u64(want_epoch)),
                            ("expected", Value::str(format!("{expected:016x}"))),
                            ("got", Value::str(format!("{got:016x}"))),
                        ],
                    );
                    return Ack::Diverged { have, notice };
                }
            }
        }
        Ack::Progress(have)
    }

    /// Whether the reply to the mutation that grew the log to `target`
    /// may be released; `attached` is whether any session was live when
    /// the record went out.
    pub fn ack_state(&self, target: u64, attached: bool) -> AckWait {
        if self.acked >= target {
            AckWait::Acked
        } else if attached {
            AckWait::Pending
        } else {
            AckWait::NoStandby
        }
    }

    /// The framed `hb{term,seq}` a primary broadcasts (`None` otherwise).
    pub fn heartbeat(&self) -> Option<Vec<u8>> {
        (self.role == Role::Primary).then(|| {
            message(
                "hb",
                vec![
                    ("term", Value::from_u64(self.term)),
                    ("seq", Value::from_u64(self.log_seq)),
                ],
            )
        })
    }

    /// Promotes a standby: bump the term, take the leader hints, and
    /// hand back the `hello` that deposes the old leader.
    pub fn promote(&mut self) -> Promotion {
        match self.role {
            Role::Fenced => Promotion::Fenced,
            Role::Primary => Promotion::Standing(self.term),
            Role::Standby => {
                let old_leader = self.dial_target().map(str::to_string);
                self.term += 1;
                self.role = Role::Primary;
                self.leader_repl = Some(self.self_repl.clone());
                self.leader_client = Some(self.self_client.clone());
                self.epoch_fps.clear();
                self.next_beat = None;
                let hello = message(
                    "hello",
                    vec![
                        ("term", Value::from_u64(self.term)),
                        ("have_seq", Value::from_u64(0)),
                    ],
                );
                Promotion::Promoted {
                    term: self.term,
                    depose: old_leader.map(|addr| (addr, hello)),
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Standby side.
    // -----------------------------------------------------------------

    /// The framed `hello{term,have_seq}` a standby opens a session with.
    pub fn hello(&self) -> Vec<u8> {
        message(
            "hello",
            vec![
                ("term", Value::from_u64(self.term)),
                ("have_seq", Value::from_u64(self.log_seq)),
            ],
        )
    }

    /// The framed `ack{have,epoch?,fp?}` after applying up to `have`.
    pub fn ack(&mut self, have: u64, epoch_fp: Option<(u64, u64)>) -> Vec<u8> {
        self.note_log(have);
        let mut fields = vec![("have", Value::from_u64(have))];
        if let Some((epoch, fp)) = epoch_fp {
            fields.push(("epoch", Value::from_u64(epoch)));
            fields.push(("fp", Value::str(format!("{fp:016x}"))));
        }
        message("ack", fields)
    }

    /// Judges one frame from the node at `from` on the standby's side of
    /// a session: the handshake reply (`meta`/`refuse`) and the stream
    /// (`rec`/`snap`/`hb`/`diverged`). A frame from a lower term is a
    /// stale primary's; a non-standby ignores the stream altogether.
    pub fn on_frame(&mut self, msg: &Value, from: &str, now: Duration) -> Stream {
        let frame = kind(msg);
        if frame == "refuse" {
            match msg.get("reason").and_then(Value::as_str) {
                // Follow the redirect when one is offered; otherwise
                // fall back to the configured address next round.
                Some("not_primary") => self.leader_repl = text(msg, "leader"),
                // Our durable history is *longer* than the primary's:
                // the pasts diverged and no stream can reconcile them.
                Some("standby_ahead") if self.role == Role::Standby => {
                    self.fence(num(msg, "term"));
                }
                _ => self.leader_repl = None,
            }
            return Stream::Drop;
        }
        if self.role != Role::Standby {
            return Stream::Drop;
        }
        if matches!(frame, "meta" | "hb") {
            let term = num(msg, "term");
            if term < self.term {
                return Stream::Drop;
            }
            self.term = term;
        }
        let verdict = match frame {
            "meta" => {
                self.leader_repl = Some(from.to_string());
                self.leader_client = text(msg, "client_addr");
                Stream::Following
            }
            "hb" => {
                self.primary_seq = self.primary_seq.max(num(msg, "seq"));
                Stream::Following
            }
            "rec" => {
                let seq = msg.get("seq").and_then(Value::as_u64);
                let event = msg.get("event").and_then(|v| value_to_event(v).ok());
                let (Some(seq), Some(event)) = (seq, event) else {
                    return Stream::Drop;
                };
                self.primary_seq = self.primary_seq.max(seq + 1);
                Stream::Apply { seq, event }
            }
            "snap" => {
                let seq = msg.get("seq").and_then(Value::as_u64);
                let (Some(seq), Some(snapshot)) = (seq, text(msg, "snapshot")) else {
                    return Stream::Drop;
                };
                Stream::Restore { seq, snapshot }
            }
            "diverged" => {
                // The primary proved our state split from its own.
                // Never serve or promote a wrong market: fence.
                self.fence(self.term);
                return Stream::Drop;
            }
            _ => return Stream::Following,
        };
        self.last_heard = now;
        self.heard_any = true;
        verdict
    }

    /// Whether the primary has been silent past the election timeout.
    pub(crate) fn mute(&self, now: Duration) -> bool {
        now.saturating_sub(self.last_heard) >= self.election_timeout
    }

    /// Whether this standby should promote itself at `now`: it is not
    /// Down, the primary is mute, was heard this boot (a standby that
    /// never attached has lost nothing), and this log reaches the
    /// position it last advertised (electing behind it would promote a
    /// stale branch).
    pub fn election_due(&self, now: Duration) -> bool {
        self.auto_promote
            && self.role == Role::Standby
            && !self.down
            && self.mute(now)
            && self.heard_any
            && self.log_seq >= self.primary_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repl::{decode_frame, parse_message, FrameDecode};

    const MS: Duration = Duration::from_millis(1);

    fn config(standby: bool) -> ReplConfig {
        let config = if standby {
            ReplConfig::standby("s:1", "p:1")
        } else {
            ReplConfig::primary("p:1")
        };
        config.with_election_timeout(100 * MS)
    }

    fn core(standby: bool, term: u64, log_seq: u64) -> ReplCore {
        let mut core = ReplCore::new(&config(standby), 7, term, log_seq, Duration::ZERO);
        core.set_addrs("client:9".to_string(), "repl:9".to_string());
        core
    }

    fn msg(t: &str, fields: Vec<(&str, Value)>) -> Value {
        let FrameDecode::Complete { payload, .. } = decode_frame(&message(t, fields)) else {
            panic!("own frame must decode");
        };
        parse_message(&payload).expect("own frame must parse")
    }

    fn unframe(frame: &[u8]) -> Value {
        let FrameDecode::Complete { payload, .. } = decode_frame(frame) else {
            panic!("frame must decode");
        };
        parse_message(&payload).expect("frame must parse")
    }

    fn hello(term: u64, have: u64) -> Value {
        msg(
            "hello",
            vec![
                ("term", Value::from_u64(term)),
                ("have_seq", Value::from_u64(have)),
            ],
        )
    }

    fn u(n: u64) -> Value {
        Value::from_u64(n)
    }

    #[test]
    fn election_jitter_is_deterministic_and_bounded() {
        let base = Duration::from_millis(300);
        assert_eq!(jittered(base, 7), jittered(base, 7));
        assert_ne!(jittered(base, 1), jittered(base, 2));
        for seed in 0..256u64 {
            let t = jittered(base, seed);
            assert!(t >= base && t < base + base / 2, "seed {seed}: {t:?}");
        }
    }

    #[test]
    fn roles_round_trip_their_wire_names() {
        for role in [Role::Primary, Role::Standby, Role::Fenced] {
            assert_eq!(Role::from_u8(role as u8), role);
        }
        assert_eq!(Role::Primary.as_str(), "primary");
        assert_eq!(Role::Fenced.as_str(), "fenced");
    }

    #[test]
    fn hello_verdicts() {
        // (node is standby, node term, node log, hello term, hello have)
        //   → (refusal reason or "accept", role afterwards)
        let table = [
            (false, 3, 10, 3, 10, "accept", Role::Primary),
            (false, 3, 10, 2, 0, "accept", Role::Primary),
            (false, 3, 10, 3, 11, "standby_ahead", Role::Primary),
            (false, 3, 10, 4, 0, "fenced", Role::Fenced),
            (true, 3, 10, 3, 0, "not_primary", Role::Standby),
            (true, 3, 10, 9, 0, "fenced", Role::Fenced),
        ];
        for (standby, term, log, their_term, have, want, role) in table {
            let mut node = core(standby, term, log);
            let row = format!("{standby} {term} {log} {their_term} {have}");
            match node.on_hello(&hello(their_term, have)) {
                Hello::Accept { have: h, meta } => {
                    assert_eq!(want, "accept", "{row}");
                    assert_eq!(h, have, "{row}");
                    let meta = unframe(&meta);
                    assert_eq!(num(&meta, "term"), term, "{row}");
                    assert_eq!(text(&meta, "client_addr").as_deref(), Some("client:9"));
                }
                Hello::Refuse(frame) => {
                    let refuse = unframe(&frame);
                    assert_eq!(text(&refuse, "reason").as_deref(), Some(want), "{row}");
                    assert_eq!(num(&refuse, "term"), term.max(their_term), "{row}");
                    if want == "not_primary" {
                        assert_eq!(text(&refuse, "leader").as_deref(), Some("p:1"));
                    }
                }
            }
            assert_eq!(node.role(), role, "{row}");
            assert_eq!(node.term(), term.max(their_term), "{row}");
        }
    }

    #[test]
    fn hello_is_judged_against_the_published_position() {
        // Regression: the ticker exported its log position only at the
        // end of a pass while records were published mid-pass, so a
        // standby reconnecting mid-batch was refused as "ahead" and
        // fenced itself for good.
        let mut primary = core(false, 0, 4);
        primary.note_log(5);
        assert!(matches!(
            primary.on_hello(&hello(0, 5)),
            Hello::Accept { have: 5, .. }
        ));
        assert!(matches!(primary.on_hello(&hello(0, 6)), Hello::Refuse(_)));
        // The heartbeat advertises the same position.
        let hb = unframe(&primary.heartbeat().unwrap());
        assert_eq!(num(&hb, "seq"), 5);
    }

    #[test]
    fn recovery_lease_refuses_then_admits() {
        let refusal = |core: &ReplCore, at: Duration| core.admit_mutation(at, None);
        // A primary with no history has nothing to lose: no lease.
        assert!(refusal(&core(false, 0, 0), Duration::ZERO).is_none());
        // One that recovered history refuses for 2 × the election
        // timeout (unjittered), with the remainder as the retry hint...
        let recovered = core(false, 0, 8);
        let reply = refusal(&recovered, 50 * MS).expect("lease refuses");
        assert_eq!(text(&reply, "error").as_deref(), Some("unavailable"));
        assert_eq!(num(&reply, "retry_after_ms"), 150);
        assert!(recovered.lease_live(199 * MS));
        // ...until the lease lapses...
        assert!(refusal(&recovered, 200 * MS).is_none());
        // ...or a standby re-attaches, which ends it for good.
        let mut recovered = core(false, 0, 8);
        assert!(matches!(
            recovered.on_hello(&hello(0, 8)),
            Hello::Accept { .. }
        ));
        assert!(refusal(&recovered, MS).is_none());
        // A refused hello does not end it.
        let mut recovered = core(false, 0, 8);
        assert!(matches!(recovered.on_hello(&hello(0, 9)), Hello::Refuse(_)));
        assert!(refusal(&recovered, MS).is_some());
        // Standbys redirect and fenced nodes refuse, lease or no lease.
        let standby = core(true, 0, 8);
        let reply = refusal(&standby, MS).unwrap();
        assert_eq!(text(&reply, "error").as_deref(), Some("not_primary"));
        let mut fenced = core(false, 0, 0);
        fenced.fence(2);
        let reply = refusal(&fenced, MS).unwrap();
        assert_eq!(text(&reply, "error").as_deref(), Some("fenced"));
    }

    #[test]
    fn election_gate() {
        let hb = |term: u64, seq: u64| msg("hb", vec![("term", u(term)), ("seq", u(seq))]);
        let meta = msg(
            "meta",
            vec![("term", u(1)), ("client_addr", Value::str("c"))],
        );
        let timeout = jittered(100 * MS, 7);
        assert!(timeout >= 100 * MS && timeout < 150 * MS);

        // Never heard the primary this boot: silence proves nothing.
        let unheard = core(true, 1, 5);
        assert!(unheard.mute(timeout));
        assert!(!unheard.election_due(timeout));

        // Heard it, caught up, then silence past the timeout: elect.
        let mut standby = core(true, 1, 5);
        assert_eq!(standby.on_frame(&meta, "p:1", MS), Stream::Following);
        assert_eq!(
            standby.on_frame(&hb(1, 5), "p:1", 10 * MS),
            Stream::Following
        );
        assert!(!standby.election_due(10 * MS + timeout - MS));
        assert!(standby.election_due(10 * MS + timeout));
        assert_eq!(standby.leader_client(), Some("c"));
        assert_eq!(standby.dial_target(), Some("p:1"));

        // Behind the advertised position: promoting would lose the tail.
        assert_eq!(
            standby.on_frame(&hb(1, 7), "p:1", 20 * MS),
            Stream::Following
        );
        assert!(!standby.election_due(20 * MS + timeout));
        standby.ack(7, None);
        assert!(standby.election_due(20 * MS + timeout));

        // Operator-driven failover only: the timer never fires.
        let manual = config(true).with_auto_promote(false);
        let mut standby = ReplCore::new(&manual, 7, 1, 5, Duration::ZERO);
        standby.on_frame(&hb(1, 5), "p:1", MS);
        assert!(!standby.election_due(Duration::from_secs(9)));

        // A stale primary's heartbeat neither resets the timer nor
        // lowers the term.
        let mut standby = core(true, 4, 0);
        assert_eq!(standby.on_frame(&hb(3, 0), "p:1", MS), Stream::Drop);
        assert_eq!(standby.term(), 4);
        assert!(!standby.election_due(Duration::from_secs(9)));
    }

    #[test]
    fn the_timer_beats_dials_and_elects_and_a_down_node_does_neither() {
        let hb = |seq: u64| msg("hb", vec![("term", u(0)), ("seq", u(seq))]);
        // A leading primary beats at once, then every interval.
        let mut primary = core(false, 0, 0);
        assert!(primary.leads());
        assert_eq!(primary.timer(MS), Timer::Heartbeat);
        assert!(primary.beat(MS).is_some());
        let next = MS + primary.heartbeat_interval;
        assert_eq!(primary.timer(2 * MS), Timer::Idle(Some(next)));
        assert_eq!(primary.timer(next), Timer::Heartbeat);
        // Down, it goes quiet for good.
        primary.mark_down();
        assert!(!primary.leads());
        assert_eq!(primary.timer(Duration::from_secs(9)), Timer::Idle(None));

        // A standby dials on boot, then only once its session is over (or
        // mute) and both the primary and the last dial are quieter than
        // the re-dial cadence.
        let mut standby = core(true, 0, 0);
        assert_eq!(standby.timer(Duration::ZERO), Timer::Redial);
        standby.dial(Duration::ZERO);
        standby.on_frame(&hb(0), "p:1", 15 * MS);
        assert_eq!(standby.timer(36 * MS), Timer::Idle(None));
        standby.hang_up();
        assert_eq!(standby.timer(30 * MS), Timer::Idle(None));
        assert_eq!(standby.timer(36 * MS), Timer::Redial);
        // Past the election timeout it elects instead, unless Down.
        let late = Duration::from_secs(1);
        assert_eq!(standby.timer(late), Timer::Elect);
        standby.mark_down();
        assert_eq!(standby.timer(late), Timer::Idle(None));
        assert!(!standby.election_due(late));
        // A promoted node beats at once.
        let mut standby = core(true, 0, 0);
        standby.promote();
        assert_eq!(standby.timer(MS), Timer::Heartbeat);
    }

    #[test]
    fn promotion_bumps_the_term_and_deposes_the_old_leader() {
        let mut standby = core(true, 2, 5);
        let Promotion::Promoted { term, depose } = standby.promote() else {
            panic!("a standby promotes");
        };
        assert_eq!((term, standby.role()), (3, Role::Primary));
        let (addr, frame) = depose.expect("the configured primary is deposed");
        assert_eq!(addr, "p:1");
        assert_eq!(num(&unframe(&frame), "term"), 3);
        assert_eq!(standby.leader_client(), Some("client:9"));
        // The deposing hello fences the old primary.
        let mut old = core(false, 2, 5);
        assert!(matches!(old.on_hello(&unframe(&frame)), Hello::Refuse(_)));
        assert_eq!((old.role(), old.term()), (Role::Fenced, 3));
        // Idempotent on a primary, refused on a fenced node.
        assert_eq!(standby.promote(), Promotion::Standing(3));
        assert_eq!(old.promote(), Promotion::Fenced);
    }

    #[test]
    fn acks_drive_the_sync_wait_and_the_fingerprint_audit() {
        let ack = |have: u64, fp: Option<(u64, u64)>| {
            let mut standby = core(true, 0, 0);
            unframe(&standby.ack(have, fp))
        };
        let mut primary = core(false, 0, 0);
        assert_eq!(primary.ack_state(1, false), AckWait::NoStandby);
        assert_eq!(primary.ack_state(1, true), AckWait::Pending);
        assert_eq!(primary.on_ack(&ack(1, None)), Ack::Progress(1));
        assert_eq!(primary.ack_state(1, true), AckWait::Acked);

        primary.push_epoch_fp(3, 1, 0xAB);
        // Matching fingerprint, and positions outside the ring, pass.
        assert_eq!(primary.on_ack(&ack(3, Some((1, 0xAB)))), Ack::Progress(3));
        assert_eq!(primary.on_ack(&ack(9, Some((4, 0xFF)))), Ack::Progress(9));
        // A wrong fingerprint *or* a lagging epoch label at the same log
        // position is a split.
        for bad in [(1, 0xAC), (0, 0xAB)] {
            let Ack::Diverged { have, notice } = primary.on_ack(&ack(3, Some(bad))) else {
                panic!("{bad:?} must be caught");
            };
            assert_eq!(have, 3);
            let notice = unframe(&notice);
            assert_eq!(num(&notice, "expected_epoch"), 1);
            // The notice fences the replica it reaches.
            let mut replica = core(true, 0, 3);
            assert_eq!(replica.on_frame(&notice, "p:1", MS), Stream::Drop);
            assert_eq!(replica.role(), Role::Fenced);
        }
        // A standby has no business judging acks.
        assert_eq!(core(true, 0, 0).on_ack(&ack(1, None)), Ack::Ignored);
    }

    #[test]
    fn stream_and_refusal_verdicts() {
        let event = crate::protocol::event_to_value(&MarketEvent::EpochTick);
        let rec = msg("rec", vec![("seq", u(4)), ("event", event)]);
        let mut standby = core(true, 0, 4);
        assert_eq!(
            standby.on_frame(&rec, "p:1", MS),
            Stream::Apply {
                seq: 4,
                event: MarketEvent::EpochTick
            }
        );
        let snap = msg(
            "snap",
            vec![("seq", u(2)), ("snapshot", Value::str("text"))],
        );
        assert!(matches!(
            standby.on_frame(&snap, "p:1", MS),
            Stream::Restore { seq: 2, .. }
        ));
        let broken = msg("rec", vec![("seq", u(5))]);
        assert_eq!(standby.on_frame(&broken, "p:1", MS), Stream::Drop);
        // A primary ignores stream frames outright.
        assert_eq!(core(false, 0, 0).on_frame(&rec, "p:1", MS), Stream::Drop);

        let refuse = |reason: &str, leader: Option<&str>| {
            let mut fields = vec![("reason", Value::str(reason)), ("term", u(2))];
            fields.extend(leader.map(|l| ("leader", Value::str(l))));
            msg("refuse", fields)
        };
        let mut standby = core(true, 0, 4);
        standby.on_frame(&refuse("not_primary", Some("other:1")), "p:1", MS);
        assert_eq!(standby.dial_target(), Some("other:1"));
        standby.on_frame(&refuse("fenced", None), "other:1", MS);
        assert_eq!(standby.dial_target(), Some("p:1"));
        assert_eq!(standby.role(), Role::Standby);
        standby.on_frame(&refuse("standby_ahead", None), "p:1", MS);
        assert_eq!((standby.role(), standby.term()), (Role::Fenced, 2));
    }
}
