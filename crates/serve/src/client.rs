//! A blocking, line-oriented ref-serve client.
//!
//! One connection carries one outstanding request at a time (the protocol
//! is a closed loop), so the client is a thin synchronous wrapper: encode
//! a line, write it, read one line back. [`Client::call_with`] adds the
//! polite reaction to backpressure — seeded, jittered exponential backoff
//! floored at the server's `retry_after_ms` hint, under a total-deadline
//! budget — and [`Client::call_retrying`] is its minimal older sibling.
//!
//! [`Client::call_with`] also rides out *node* failure, not just
//! overload: on a broken connection it re-dials (its own address, or a
//! [`Client::connect_seeds`] seed list), and on a `not_primary` redirect
//! or a `fenced`/`shutting_down` rejection it walks the seeds — guided
//! by the reply's `leader` hint and each node's `ping` role — until it
//! finds the primary. Re-sending over a new connection is at-least-once
//! delivery: a mutation whose reply was lost in the failure may be
//! applied twice, which the market tolerates (duplicate joins are
//! rejected, duplicate observations only add weight).

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::json::Value;
use crate::protocol::write_line;
use crate::router::TermFloor;

/// Retry policy for [`Client::call_with`].
///
/// Backoff for attempt *n* is `min(max_delay, base_delay << n)`, scaled
/// by a deterministic jitter in `[0.5, 1.0]` drawn from `seed` (so two
/// clients given different seeds desynchronize instead of stampeding),
/// and floored at the server's `retry_after_ms` hint when one is
/// attached to the rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallOpts {
    /// Maximum retries after the first attempt (0 = call once).
    pub retries: u32,
    /// Total budget across all attempts and sleeps; `None` is unbounded.
    /// When the budget would be exceeded by the next backoff sleep, the
    /// call gives up with the last server error instead of oversleeping.
    pub deadline: Option<Duration>,
    /// First backoff step.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Jitter seed; vary per client for desynchronized retries.
    pub seed: u64,
}

impl Default for CallOpts {
    fn default() -> CallOpts {
        CallOpts {
            retries: 8,
            deadline: None,
            base_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(200),
            seed: 0x005e_ed0f_ca11,
        }
    }
}

impl CallOpts {
    /// Sets the retry count.
    #[must_use]
    pub fn with_retries(mut self, retries: u32) -> CallOpts {
        self.retries = retries;
        self
    }

    /// Sets the total-deadline budget.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> CallOpts {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the jitter seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> CallOpts {
        self.seed = seed;
        self
    }

    /// The backoff before retry `attempt` (0-based), already jittered;
    /// `hint_ms` is the server's `retry_after_ms` floor. Pure, so tests
    /// can pin the schedule.
    pub(crate) fn backoff(&self, attempt: u32, hint_ms: Option<u64>) -> Duration {
        let base = self.base_delay.as_millis() as u64;
        let exp = base.saturating_mul(1u64 << attempt.min(20)) as f64;
        let capped = exp.min(self.max_delay.as_millis() as f64);
        // splitmix64: cheap, seedable, good enough for jitter.
        let mut x = self
            .seed
            .wrapping_add(u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
        let jittered = capped * (0.5 + 0.5 * unit);
        Duration::from_millis((jittered as u64).max(hint_ms.unwrap_or(0)))
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or closed mid-call.
    Io(std::io::Error),
    /// The server's reply was not valid protocol JSON.
    Protocol(String),
    /// The server replied `{"ok":false,...}`.
    Server {
        /// The protocol error code (`overloaded`, `market`, ...).
        code: String,
        /// Optional human-readable detail.
        detail: Option<String>,
        /// Backoff hint attached to `overloaded` rejections.
        retry_after_ms: Option<u64>,
        /// Leader address attached to `not_primary` redirects.
        leader: Option<String>,
        /// Shard index attached to redirects from an externally sharded
        /// deployment (each shard is its own replicated pair; the hint
        /// scopes the leader to that shard's routing slot).
        shard: Option<u64>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { code, detail, .. } => match detail {
                Some(d) => write!(f, "server error {code}: {d}"),
                None => write!(f, "server error {code}"),
            },
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The error code when the server rejected the request, if any.
    pub fn code(&self) -> Option<&str> {
        match self {
            ClientError::Server { code, .. } => Some(code),
            _ => None,
        }
    }
}

/// A blocking connection to a ref-serve instance.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Staging for the outgoing line ([`write_line`]) and the incoming
    /// one, kept across calls so a request allocates neither.
    outgoing: Vec<u8>,
    incoming: String,
    /// The address of the current connection.
    current: String,
    /// Alternative node addresses for failover (may be empty).
    seeds: Vec<String>,
    /// Where the cluster last said each shard's primary lives, keyed by
    /// the redirect's `shard` tag (an untagged deployment uses slot 0).
    /// Keeping the hints per shard means a redirect from one shard's
    /// standby never discards what we know about the others.
    leader_hints: HashMap<u64, String>,
    /// The highest primary term seen per shard slot — the same fencing
    /// token floor the router keeps. A node claiming to be the primary
    /// below it was deposed; its acks would die with its branch, so it
    /// is never adopted, not even as a read fallback.
    floor: TermFloor,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: impl ToSocketAddrs + ToString) -> std::io::Result<Client> {
        let current = addr.to_string();
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            outgoing: Vec::new(),
            incoming: String::new(),
            current,
            seeds: Vec::new(),
            leader_hints: HashMap::new(),
            floor: TermFloor::default(),
        })
    }

    /// Connects to the first reachable node of a replicated deployment
    /// and remembers the whole list: [`Client::call_with`] fails over
    /// across it when the current node dies or stops being the primary.
    ///
    /// # Errors
    ///
    /// The last connection error if no seed is reachable.
    pub fn connect_seeds(seeds: &[String]) -> std::io::Result<Client> {
        let mut last = None;
        for addr in seeds {
            match Client::connect(addr.as_str()) {
                Ok(mut client) => {
                    client.seeds = seeds.to_vec();
                    return Ok(client);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "empty seed list")
        }))
    }

    /// The address of the node this client is currently connected to.
    pub fn current_addr(&self) -> &str {
        &self.current
    }

    /// Drops the current connection and dials the best node it can
    /// find: `shard`'s last `leader` hint first, then the current address,
    /// then every seed. A node whose `ping` reports `role:"primary"` at
    /// or above the highest term this client has seen is adopted
    /// immediately (one level of `leader` redirect is followed); a
    /// primary below that term was deposed and is skipped; otherwise the
    /// first reachable non-primary is kept, so reads still work during
    /// an election. Only `shard`'s leader hint is consumed (`None` is the
    /// unsharded slot), so a `not_primary` redirect bouncing between one
    /// shard's pair leaves the hints (and thereby the seeds) serving other
    /// shards untouched.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when no candidate is reachable.
    pub(crate) fn redial_for(&mut self, shard: Option<u64>) -> Result<(), ClientError> {
        let mut worklist: Vec<String> = Vec::new();
        let push = |list: &mut Vec<String>, addr: String| {
            if !addr.is_empty() && !list.contains(&addr) {
                list.push(addr);
            }
        };
        if let Some(hint) = self.leader_hints.remove(&shard.unwrap_or(0)) {
            push(&mut worklist, hint);
        }
        push(&mut worklist, self.current.clone());
        for seed in self.seeds.clone() {
            push(&mut worklist, seed);
        }
        let mut fallback: Option<(Client, String)> = None;
        let mut i = 0;
        while i < worklist.len() {
            let addr = worklist[i].clone();
            i += 1;
            let Ok(mut probe) = Client::connect(addr.as_str()) else {
                continue;
            };
            let Ok(reply) = probe.ping() else {
                continue;
            };
            let role = reply.get("role").and_then(Value::as_str).unwrap_or("");
            if role == "primary" {
                let term = reply.get("term").and_then(Value::as_u64).unwrap_or(0);
                if self.floor.admit(shard.unwrap_or(0), term) {
                    self.adopt(probe.reader, probe.writer, addr);
                    return Ok(());
                }
                continue;
            }
            if let Some(leader) = reply.get("leader").and_then(Value::as_str) {
                push(&mut worklist, leader.to_string());
            }
            if fallback.is_none() {
                fallback = Some((probe, addr));
            }
        }
        if let Some((probe, addr)) = fallback {
            self.adopt(probe.reader, probe.writer, addr);
            return Ok(());
        }
        Err(ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::NotConnected,
            "no reachable server among the seeds",
        )))
    }

    fn adopt(&mut self, reader: BufReader<TcpStream>, writer: TcpStream, addr: String) {
        self.reader = reader;
        self.writer = writer;
        self.current = addr;
    }

    /// Sends one raw protocol line and returns the raw reply value,
    /// whether or not it is `ok`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on connection failure, [`ClientError::Protocol`]
    /// if the reply line is not valid JSON.
    pub fn call_line(&mut self, line: &str) -> Result<Value, ClientError> {
        write_line(&mut self.writer, &mut self.outgoing, line)?;
        self.incoming.clear();
        if self.reader.read_line(&mut self.incoming)? == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        Value::parse(self.incoming.trim_end()).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    /// Sends one request value and returns the reply, turning
    /// `{"ok":false}` replies into [`ClientError::Server`].
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn call(&mut self, request: &Value) -> Result<Value, ClientError> {
        let reply = self.call_line(&request.encode())?;
        match reply_error(&reply) {
            Some(error) => Err(error),
            None => Ok(reply),
        }
    }

    /// Like [`Client::call`], but sleeps out `overloaded` rejections
    /// (using the server's `retry_after_ms` hint) up to `max_attempts`
    /// times. Returns the number of retries alongside the reply.
    ///
    /// # Errors
    ///
    /// The final error once attempts are exhausted, or any non-overload
    /// error immediately.
    pub fn call_retrying(
        &mut self,
        request: &Value,
        max_attempts: usize,
    ) -> Result<(Value, u64), ClientError> {
        let mut retries = 0;
        loop {
            match self.call(request) {
                Ok(reply) => return Ok((reply, retries)),
                Err(e @ ClientError::Server { .. }) if e.code() == Some("overloaded") => {
                    if retries as usize + 1 >= max_attempts {
                        return Err(e);
                    }
                    let backoff = match &e {
                        ClientError::Server { retry_after_ms, .. } => {
                            retry_after_ms.unwrap_or(1).max(1)
                        }
                        _ => 1,
                    };
                    std::thread::sleep(Duration::from_millis(backoff));
                    retries += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Like [`Client::call`], but rides out `overloaded`,
    /// `shard_unavailable` and `unavailable` (a recovered primary still
    /// inside its lease) rejections with the [`CallOpts`] backoff
    /// policy — seeded jittered exponential delays floored at the
    /// server's `retry_after_ms` hint, all under an optional
    /// total-deadline budget — *and* fails over: a broken
    /// connection, a `not_primary` redirect, or a `fenced` /
    /// `shutting_down` rejection triggers a `Client::redial_for` (guided
    /// by the reply's `leader` hint and the seed list) before the retry.
    /// Returns the number of retries taken alongside the reply.
    ///
    /// Re-sending after a connection loss is at-least-once delivery:
    /// the lost call may have been applied before its reply vanished.
    ///
    /// # Errors
    ///
    /// The last retryable error once retries or the deadline budget are
    /// exhausted; any other error immediately.
    pub fn call_with(
        &mut self,
        request: &Value,
        opts: &CallOpts,
    ) -> Result<(Value, u64), ClientError> {
        let started = Instant::now();
        let mut attempt: u32 = 0;
        loop {
            let error = match self.call(request) {
                Ok(reply) => return Ok((reply, u64::from(attempt))),
                Err(e) => e,
            };
            let failover = match &error {
                // The node died mid-call: re-dial before retrying.
                ClientError::Io(_) => true,
                // The node is alive but will never take this request:
                // find the primary instead of hammering it.
                ClientError::Server { code, .. } => {
                    matches!(code.as_str(), "not_primary" | "fenced" | "shutting_down")
                }
                ClientError::Protocol(_) => return Err(error),
            };
            // `shard_unavailable` is backpressure with a different
            // cause: the owning shard is down and the router is telling
            // us when its supervisor may have it back. Back off on the
            // same connection — redialing cannot move an agent off its
            // shard. `unavailable` is a recovered primary waiting out its
            // lease: the hint says when it ends.
            let overloaded = matches!(
                error.code(),
                Some("overloaded" | "shard_unavailable" | "unavailable")
            );
            if !failover && !overloaded {
                return Err(error);
            }
            if attempt >= opts.retries {
                return Err(error);
            }
            let (hint, shard) = match &error {
                ClientError::Server {
                    retry_after_ms,
                    leader,
                    shard,
                    ..
                } => {
                    if let Some(leader) = leader {
                        self.leader_hints.insert(shard.unwrap_or(0), leader.clone());
                    }
                    (*retry_after_ms, *shard)
                }
                _ => (None, None),
            };
            let backoff = opts.backoff(attempt, hint);
            if let Some(deadline) = opts.deadline {
                // Give up rather than oversleep the budget.
                if started.elapsed() + backoff > deadline {
                    return Err(error);
                }
            }
            std::thread::sleep(backoff);
            if failover {
                // Best-effort: when every candidate is down, keep the
                // old (broken) connection and let the next attempt's
                // error burn a retry rather than erroring out here —
                // the cluster may still be mid-election.
                let _ = self.redial_for(shard);
            }
            attempt += 1;
        }
    }

    /// Liveness / role probe: answered on the server's reader thread
    /// even when the request bus is saturated. The reply carries `role`,
    /// `term`, `epoch`, `wal_seq`, `uptime_ms`, and (on a replica that
    /// knows one) the `leader` address.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn ping(&mut self) -> Result<Value, ClientError> {
        self.call(&Value::obj(vec![("op", Value::str("ping"))]))
    }

    /// Asks a standby to promote itself to primary (fails on a fenced
    /// node; idempotent on a primary).
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn promote(&mut self) -> Result<Value, ClientError> {
        self.call(&Value::obj(vec![("op", Value::str("promote"))]))
    }

    /// Joins agent `agent` with a hidden Cobb-Douglas ground truth.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn join_truth(
        &mut self,
        agent: u64,
        scale: f64,
        elasticities: &[f64],
    ) -> Result<Value, ClientError> {
        self.call(&Value::obj(vec![
            ("op", Value::str("join")),
            ("agent", Value::from_u64(agent)),
            (
                "source",
                Value::obj(vec![
                    ("kind", Value::str("truth")),
                    ("scale", Value::Num(scale)),
                    ("elasticities", Value::num_array(elasticities)),
                ]),
            ),
        ]))
    }

    /// Joins agent `agent` with externally-reported observations.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn join_external(&mut self, agent: u64) -> Result<Value, ClientError> {
        self.call(&Value::obj(vec![
            ("op", Value::str("join")),
            ("agent", Value::from_u64(agent)),
            ("source", Value::obj(vec![("kind", Value::str("external"))])),
        ]))
    }

    /// Removes agent `agent` from the market.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn leave(&mut self, agent: u64) -> Result<Value, ClientError> {
        self.call(&Value::obj(vec![
            ("op", Value::str("leave")),
            ("agent", Value::from_u64(agent)),
        ]))
    }

    /// Resets agent `agent`'s estimator, optionally with a new truth.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn demand(
        &mut self,
        agent: u64,
        truth: Option<(f64, &[f64])>,
    ) -> Result<Value, ClientError> {
        self.call(&Value::obj(vec![
            ("op", Value::str("demand")),
            ("agent", Value::from_u64(agent)),
            (
                "truth",
                truth.map_or(Value::Null, |(scale, e)| {
                    Value::obj(vec![
                        ("scale", Value::Num(scale)),
                        ("elasticities", Value::num_array(e)),
                    ])
                }),
            ),
        ]))
    }

    /// Reports an external `(allocation, performance)` measurement.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn observe(
        &mut self,
        agent: u64,
        allocation: &[f64],
        performance: f64,
    ) -> Result<Value, ClientError> {
        self.call(&Value::obj(vec![
            ("op", Value::str("observe")),
            ("agent", Value::from_u64(agent)),
            ("allocation", Value::num_array(allocation)),
            ("performance", Value::Num(performance)),
        ]))
    }

    /// Runs one epoch now. The reply carries the epoch's verdict (agent
    /// count, SI/EF/PE audit, enforcement), not the bundles: those are
    /// read one agent at a time with [`Client::query_agent`].
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn tick(&mut self) -> Result<Value, ClientError> {
        self.call(&Value::obj(vec![("op", Value::str("tick"))]))
    }

    /// Market-wide state: epoch, live agent ids, last epoch's verdict.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn query(&mut self) -> Result<Value, ClientError> {
        self.call(&Value::obj(vec![("op", Value::str("query"))]))
    }

    /// One agent's state: elasticities, observation counts, bundle.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn query_agent(&mut self, agent: u64) -> Result<Value, ClientError> {
        self.call(&Value::obj(vec![
            ("op", Value::str("query")),
            ("agent", Value::from_u64(agent)),
        ]))
    }

    /// Every shard's market snapshot in its text wire format, in shard
    /// order.
    ///
    /// # Errors
    ///
    /// See [`ClientError`]; a shard that answered with an error fails the
    /// call with that error.
    pub fn snapshot(&mut self) -> Result<Vec<String>, ClientError> {
        let reply = self.call(&Value::obj(vec![("op", Value::str("snapshot"))]))?;
        per_shard(&reply, "snapshot", |v| v.as_str().map(str::to_string))
    }

    /// Market and server metrics as JSON sections.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn metrics(&mut self) -> Result<Value, ClientError> {
        self.call(&Value::obj(vec![("op", Value::str("metrics"))]))
    }

    /// Market and server metrics as scrapeable text.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        let reply = self.call(&Value::obj(vec![
            ("op", Value::str("metrics")),
            ("format", Value::str("text")),
        ]))?;
        reply
            .get("text")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("metrics reply missing text".to_string()))
    }

    /// Every shard's accepted-event journal, in shard order.
    ///
    /// # Errors
    ///
    /// See [`ClientError`]; `journal_overflow` if a shard dropped its
    /// journal.
    pub fn journal(&mut self) -> Result<Vec<Vec<Value>>, ClientError> {
        let reply = self.call(&Value::obj(vec![("op", Value::str("journal"))]))?;
        per_shard(&reply, "events", |v| v.as_array().map(<[Value]>::to_vec))
    }

    /// Asks the server to drain and stop; each shard's reply carries its
    /// final snapshot.
    ///
    /// # Errors
    ///
    /// See [`ClientError`].
    pub fn shutdown(&mut self) -> Result<Value, ClientError> {
        self.call(&Value::obj(vec![("op", Value::str("shutdown"))]))
    }
}

/// What a reply that is not `ok` says went wrong: a `{"ok":false}` reply
/// as [`ClientError::Server`]; `None` for an `ok` reply.
fn reply_error(reply: &Value) -> Option<ClientError> {
    match reply.get("ok") {
        Some(&Value::Bool(true)) => None,
        Some(&Value::Bool(false)) => Some(ClientError::Server {
            code: reply
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string(),
            detail: reply
                .get("detail")
                .and_then(Value::as_str)
                .map(str::to_string),
            retry_after_ms: reply.get("retry_after_ms").and_then(Value::as_u64),
            leader: reply
                .get("leader")
                .and_then(Value::as_str)
                .map(str::to_string),
            shard: reply.get("shard").and_then(Value::as_u64),
        }),
        _ => Some(ClientError::Protocol(format!(
            "reply missing \"ok\" field: {reply}"
        ))),
    }
}

/// `field` of every shard's reply in a fleet reply's `shards` array, read
/// by `read`, in shard order.
fn per_shard<T>(
    reply: &Value,
    field: &str,
    read: impl Fn(&Value) -> Option<T>,
) -> Result<Vec<T>, ClientError> {
    let missing = || ClientError::Protocol(format!("reply missing per-shard {field}: {reply}"));
    let shards = reply
        .get("shards")
        .and_then(Value::as_array)
        .ok_or_else(missing)?;
    shards
        .iter()
        .map(|shard| match reply_error(shard) {
            Some(error) => Err(error),
            None => shard.get(field).and_then(&read).ok_or_else(missing),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use super::*;

    /// A fake node: answers every line of every connection with
    /// `canned`. Returns its address.
    fn fake_node(canned: &'static str) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                std::thread::spawn(move || {
                    let mut writer = stream.try_clone().unwrap();
                    let mut reader = BufReader::new(stream);
                    let (mut line, mut out) = (String::new(), Vec::new());
                    while reader.read_line(&mut line).unwrap_or(0) > 0 {
                        if write_line(&mut writer, &mut out, canned).is_err() {
                            return;
                        }
                        line.clear();
                    }
                });
            }
        });
        addr
    }

    #[test]
    fn server_errors_carry_the_shard_tag_of_redirects() {
        let addr =
            fake_node(r#"{"ok":false,"error":"not_primary","leader":"127.0.0.1:9","shard":2}"#);
        let mut client = Client::connect(addr.as_str()).unwrap();
        let err = client.ping().unwrap_err();
        match err {
            ClientError::Server {
                code,
                leader,
                shard,
                ..
            } => {
                assert_eq!(code, "not_primary");
                assert_eq!(leader.as_deref(), Some("127.0.0.1:9"));
                assert_eq!(shard, Some(2));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn redial_consumes_only_the_target_shards_hint() {
        // Shard 2's hint points at a live primary; shard 0's hint is a
        // different address that must survive the shard-2 redial intact.
        let primary = fake_node(r#"{"ok":true,"role":"primary","term":1}"#);
        let start = fake_node(r#"{"ok":true,"role":"primary","term":1}"#);
        let mut client = Client::connect(start.as_str()).unwrap();
        client.leader_hints.insert(0, "127.0.0.1:1".to_string());
        client.leader_hints.insert(2, primary.clone());
        client.redial_for(Some(2)).unwrap();
        assert_eq!(client.current_addr(), primary);
        // The other shard's knowledge was not blacklisted or consumed.
        assert_eq!(
            client.leader_hints.get(&0).map(String::as_str),
            Some("127.0.0.1:1")
        );
        assert!(!client.leader_hints.contains_key(&2));
    }

    #[test]
    fn redial_never_adopts_a_primary_below_the_highest_term_seen() {
        let fresh = fake_node(r#"{"ok":true,"role":"primary","term":3}"#);
        let deposed = fake_node(r#"{"ok":true,"role":"primary","term":1}"#);
        let standby = fake_node(r#"{"ok":true,"role":"standby","term":3}"#);
        // Adopting the term-3 primary ratchets the floor...
        let mut client = Client::connect(standby.as_str()).unwrap();
        client.seeds = vec![fresh.clone()];
        client.redial_for(None).unwrap();
        assert_eq!(client.current_addr(), fresh);
        // ...so a deposed term-1 "primary" is passed over even when a
        // stale hint puts it first in line.
        client.leader_hints.insert(0, deposed.clone());
        client.redial_for(None).unwrap();
        assert_eq!(client.current_addr(), fresh);
        // With no primary at the floor, the client keeps a standby for
        // reads rather than write to the branch that lost the election.
        let mut client = Client::connect(standby.as_str()).unwrap();
        assert!(client.floor.admit(0, 3));
        client.seeds = vec![deposed.clone()];
        client.redial_for(None).unwrap();
        assert_eq!(client.current_addr(), standby);
        // With only the deposed node reachable there is nobody to adopt.
        let mut client = Client::connect(deposed.as_str()).unwrap();
        assert!(client.floor.admit(0, 3));
        assert!(matches!(client.redial_for(None), Err(ClientError::Io(_))));
        // Floors are per shard slot: slot 7 has seen nothing yet.
        client.redial_for(Some(7)).unwrap();
        assert_eq!(client.current_addr(), deposed);
    }

    #[test]
    fn failover_on_a_shardless_redirect_follows_the_leader_hint() {
        let leader = fake_node(r#"{"ok":true,"role":"primary","term":3,"epoch":0}"#);
        // A standby that always redirects to the leader, without a shard
        // tag (the classic single-market deployment).
        let canned: &'static str = Box::leak(
            format!(r#"{{"ok":false,"error":"not_primary","leader":"{leader}"}}"#).into_boxed_str(),
        );
        let standby = fake_node(canned);
        let mut client = Client::connect(standby.as_str()).unwrap();
        let opts = CallOpts::default().with_retries(2);
        let (reply, retries) = client
            .call_with(&Value::obj(vec![("op", Value::str("ping"))]), &opts)
            .unwrap();
        assert!(retries >= 1);
        assert_eq!(reply.get("term").and_then(Value::as_u64), Some(3));
        assert_eq!(client.current_addr(), leader);
    }

    #[test]
    fn backoff_is_deterministic_capped_and_floored() {
        let opts = CallOpts::default().with_seed(42);
        // Same seed, same attempt: same delay (replayable schedules).
        assert_eq!(opts.backoff(3, None), opts.backoff(3, None));
        // Jitter never exceeds the cap and never undershoots half the
        // exponential step.
        for attempt in 0..16 {
            let d = opts.backoff(attempt, None);
            assert!(d <= opts.max_delay, "attempt {attempt}: {d:?}");
        }
        assert!(opts.backoff(0, None) >= opts.base_delay / 2);
        // The server's retry_after_ms hint is a floor.
        assert!(opts.backoff(0, Some(500)) >= Duration::from_millis(500));
    }

    #[test]
    fn backoff_grows_exponentially_before_the_cap() {
        let opts = CallOpts {
            retries: 4,
            deadline: None,
            base_delay: Duration::from_millis(8),
            max_delay: Duration::from_secs(10),
            seed: 7,
        };
        // Worst-case jitter of attempt n+2 (half scale) still beats
        // best-case jitter of attempt n (full scale): 2^(n+2)/2 = 2^(n+1).
        assert!(opts.backoff(4, None) > opts.backoff(2, None));
        assert!(opts.backoff(6, None) > opts.backoff(4, None));
    }

    #[test]
    fn deadline_bounds_a_call_despite_huge_server_hints() {
        // A server that is permanently overloaded and, adversarially,
        // hints clients to come back in ten seconds. Without a deadline
        // a polite client would sleep the full hint per retry; with one,
        // a sleep that would overrun it is not taken and the call
        // returns the rejection promptly.
        let addr = fake_node(r#"{"ok":false,"error":"overloaded","retry_after_ms":10000}"#);
        let mut client = Client::connect(addr.as_str()).unwrap();
        let opts = CallOpts::default()
            .with_retries(50)
            .with_deadline(Duration::from_millis(80));
        let started = Instant::now();
        let err = client
            .call_with(&Value::obj(vec![("op", Value::str("tick"))]), &opts)
            .unwrap_err();
        assert_eq!(err.code(), Some("overloaded"));
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "deadline-bounded retries took {elapsed:?}"
        );
    }
}
