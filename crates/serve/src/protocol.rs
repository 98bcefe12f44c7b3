//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response per line, strictly in order — a
//! connection is a closed loop with a single outstanding request. The
//! grammar (DESIGN.md §8 has the full spec):
//!
//! ```text
//! request  = { "op": op, ...op fields..., "deadline_ms"?: number } "\n"
//! op       = "join" | "leave" | "demand" | "observe" | "tick"
//!          | "reallot" | "query" | "snapshot" | "metrics" | "journal"
//!          | "scrub" | "ping" | "promote" | "shutdown"
//! response = { "ok": true,  ...result fields... } "\n"
//!          | { "ok": false, "error": code, "detail"?: string,
//!              "retry_after_ms"?: number, "leader"?: string,
//!              "shard"?: number, "outcome"?: "unknown" } "\n"
//! code     = "protocol" | "overloaded" | "deadline" | "market"
//!          | "shutting_down" | "timeout" | "journal_overflow"
//!          | "journal_truncated" | "wal" | "not_primary" | "fenced"
//!          | "repl" | "internal" | "shard_unavailable" | "unavailable"
//! ```
//!
//! A `wal` error on a mutation means its log append failed and the event
//! was not applied. Without `outcome`, the event is absent from the
//! log: the writer cut back whatever bytes landed. With
//! `"outcome":"unknown"`, that cut failed too and the log is poisoned:
//! every byte of the record may be on disk, so recovery may replay the
//! event. The client cannot tell which, and must not resubmit it blindly
//! (DESIGN.md §9). A `repl` error means the event *was* applied, but no
//! standby confirmed it in time.
//!
//! Fleet ops — `tick`, `query` without an agent, `snapshot`, `journal`,
//! `metrics`, `scrub`, `promote`, `shutdown` — reply `{"ok": true,
//! ...merged fields..., "shards": [...]}` with every shard's own reply,
//! tagged with its `"shard"` index; when no shard answered `ok`, the
//! reply is the first shard's error, tagged.
//!
//! `ping` is answered directly on the reader thread from shared atomics
//! (it must work even when the epoch loop is wedged) and returns
//! `{role, term, epoch, wal_seq, uptime_ms, ...}` for health checks and
//! leader discovery; an optional `"agent"` argument asks the sharded
//! router which shard owns that agent. `not_primary` rejections carry a
//! `"leader"` hint (the current leader's client address, when known) so
//! clients can fail over without walking their whole seed list, plus an
//! optional `"shard"` tag so a redirect from one shard's standby does
//! not poison the client's hints for seeds serving other shards.
//!
//! A connection carries one request at a time: it reads a line, serves
//! it and writes the reply before reading the next. The server's one
//! admission bound is therefore its connection cap; a connection past it
//! is answered `overloaded` with a `retry_after_ms` hint.

use std::io::{self, Write};

use ref_core::utility::CobbDouglas;
use ref_market::{AgentId, MarketEvent, ObservationSource};

use crate::json::{ParseError, Reader, Token, Value};

/// Longest request line the server reads, newline excluded: over 10,000
/// times a typical request and well past any legitimate one (requests
/// carry a handful of numbers; the large messages are *replies*). A
/// connection that sends more without a newline is answered `protocol`
/// / "request line too long" and closed, so one peer cannot grow the
/// server's memory without bound.
pub(crate) const MAX_REQUEST_LINE: usize = 1 << 20;

/// Sends one protocol message: `message` and its newline in a single
/// `write_all`, staged in `buf` (the connection's reusable buffer).
///
/// `writeln!` straight onto a socket issues one `write` for the payload
/// and a second for the `"\n"` — two syscalls and, under `TCP_NODELAY`,
/// two segments per message.
///
/// # Errors
///
/// Whatever the writer reports.
pub(crate) fn write_line(
    writer: &mut impl Write,
    buf: &mut String,
    message: &str,
) -> io::Result<()> {
    buf.clear();
    buf.push_str(message);
    send(writer, buf)
}

/// Sends `message` the way [`write_line`] sends text, encoding it
/// straight into `buf`: once `buf` has grown to the connection's
/// largest message, a reply costs no allocation between the `Value`
/// and the socket.
///
/// # Errors
///
/// Whatever the writer reports.
pub(crate) fn write_value(
    writer: &mut impl Write,
    buf: &mut String,
    message: &Value,
) -> io::Result<()> {
    buf.clear();
    message.encode_into(buf);
    send(writer, buf)
}

fn send(writer: &mut impl Write, buf: &mut String) -> io::Result<()> {
    buf.push('\n');
    writer.write_all(buf.as_bytes())
}

/// A parsed, validated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Admit an agent.
    Join {
        /// The joining agent's id.
        agent: AgentId,
        /// Observation source for the agent.
        source: ObservationSource,
    },
    /// Remove an agent.
    Leave {
        /// The departing agent's id.
        agent: AgentId,
    },
    /// Reset an agent's estimator (optionally swapping ground truth).
    Demand {
        /// The agent whose demand changed.
        agent: AgentId,
        /// Replacement hidden truth for ground-truth agents.
        truth: Option<CobbDouglas>,
    },
    /// Report an external `(allocation, performance)` measurement.
    Observe {
        /// The measured agent.
        agent: AgentId,
        /// Resource quantities of the measurement.
        allocation: Vec<f64>,
        /// Measured performance.
        performance: f64,
    },
    /// Run one epoch now.
    Tick,
    /// Replace the market's per-resource capacity. The cross-shard
    /// coordinator issues these; on the wire the server refuses them.
    Reallot {
        /// New per-resource capacities.
        capacity: Vec<f64>,
    },
    /// Inspect the market (or one agent).
    Query {
        /// Restrict the answer to this agent.
        agent: Option<AgentId>,
    },
    /// Fetch the full market snapshot (text wire format).
    Snapshot,
    /// Fetch market + server metrics.
    Metrics {
        /// `true` for the Prometheus-style text form.
        text: bool,
    },
    /// Fetch the accepted-event journal.
    Journal,
    /// Verify every CRC in every retained WAL segment and checkpoint
    /// (read-only; reports findings, repairs nothing).
    Scrub,
    /// Health-check: role, term, epoch, WAL sequence, uptime. Answered
    /// on the reader thread without touching the epoch loop.
    Ping {
        /// When present, the reply reports which shard owns this agent.
        agent: Option<AgentId>,
    },
    /// Promote this server from standby to primary (bumps the term).
    Promote,
    /// Drain and stop the server; the reply carries the final snapshot.
    Shutdown,
}

impl Request {
    /// The market event this request submits, if it is event-bearing.
    pub fn to_event(&self) -> Option<MarketEvent> {
        match self {
            Request::Join { agent, source } => Some(MarketEvent::AgentJoined {
                id: *agent,
                source: source.clone(),
            }),
            Request::Leave { agent } => Some(MarketEvent::AgentLeft { id: *agent }),
            Request::Demand { agent, truth } => Some(MarketEvent::DemandChanged {
                id: *agent,
                new_truth: truth.clone(),
            }),
            Request::Observe {
                agent,
                allocation,
                performance,
            } => Some(MarketEvent::ObservationReported {
                id: *agent,
                allocation: allocation.clone(),
                performance: *performance,
            }),
            Request::Tick => Some(MarketEvent::EpochTick),
            Request::Reallot { capacity } => Some(MarketEvent::CapacityRealloted {
                capacity: capacity.clone(),
            }),
            _ => None,
        }
    }
}

/// A request plus its transport envelope (deadline).
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// The request itself.
    pub request: Request,
    /// Maximum queueing delay the client tolerates, in milliseconds;
    /// `None` means unbounded.
    pub deadline_ms: Option<u64>,
}

/// Parses one protocol line into an envelope.
///
/// One walk over the line (`Fields::read`) keeps the first occurrence
/// of each field a request names and validates and skips everything
/// else; no `Value` tree is built. The checks then run in a fixed
/// order, after the whole line has been read, so a line with several
/// faults is refused for the same one whatever its key order.
///
/// # Errors
///
/// Returns a human-readable description of the first violation; callers
/// wrap it in an `"error":"protocol"` response.
pub fn parse_request(line: &str) -> Result<Envelope, String> {
    let fields = Fields::read(line)
        .map_err(|e| format!("bad json: {e}"))?
        .ok_or_else(|| "request must be a json object".to_string())?;
    let op = fields
        .op
        .as_ref()
        .and_then(Token::as_str)
        .ok_or_else(|| "missing string field \"op\"".to_string())?;
    let deadline_ms = match &fields.deadline_ms {
        None | Some(Token::Null) => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| "\"deadline_ms\" must be a non-negative integer".to_string())?,
        ),
    };
    let agent = || -> Result<Option<AgentId>, String> {
        let id = |v: &Token| {
            v.as_u64()
                .ok_or_else(|| "\"agent\" must be a non-negative integer below 2^53".to_string())
        };
        fields.agent.as_ref().map(id).transpose()
    };
    let required_agent = || agent()?.ok_or_else(|| "missing field \"agent\"".to_string());
    let request = match op {
        "join" => {
            let source = fields
                .source
                .ok_or_else(|| "join needs a \"source\" object".to_string())?;
            Request::Join {
                agent: required_agent()?,
                source: source.into_source()?,
            }
        }
        "leave" => Request::Leave {
            agent: required_agent()?,
        },
        "demand" => {
            let truth = match fields.truth {
                None | Some(Utility { null: true, .. }) => None,
                Some(v) => Some(v.into_cobb_douglas()?),
            };
            Request::Demand {
                agent: required_agent()?,
                truth,
            }
        }
        "observe" => {
            let allocation = f64_array(
                fields
                    .allocation
                    .ok_or_else(|| "observe needs an \"allocation\" array".to_string())?,
            )?;
            let performance = fields
                .performance
                .as_ref()
                .and_then(Token::as_f64)
                .ok_or_else(|| "observe needs a numeric \"performance\"".to_string())?;
            Request::Observe {
                agent: required_agent()?,
                allocation,
                performance,
            }
        }
        "tick" => Request::Tick,
        "reallot" => Request::Reallot {
            capacity: f64_array(
                fields
                    .capacity
                    .ok_or_else(|| "reallot needs a \"capacity\" array".to_string())?,
            )?,
        },
        "query" => Request::Query { agent: agent()? },
        "snapshot" => Request::Snapshot,
        "metrics" => Request::Metrics {
            text: fields.format.as_ref().and_then(Token::as_str) == Some("text"),
        },
        "journal" => Request::Journal,
        "scrub" => Request::Scrub,
        "ping" => Request::Ping { agent: agent()? },
        "promote" => Request::Promote,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown op {other:?}")),
    };
    Ok(Envelope {
        request,
        deadline_ms,
    })
}

/// A numeric array field as read: its numbers, or `None` when the value
/// was not an array of numbers.
type Numbers = Option<Vec<f64>>;

fn f64_array(numbers: Numbers) -> Result<Vec<f64>, String> {
    numbers.ok_or_else(|| "expected an array of numbers".to_string())
}

/// Reads the value at the cursor as a [`Numbers`].
fn read_numbers(reader: &mut Reader<'_>) -> Result<Numbers, ParseError> {
    let token = reader.token()?;
    if token != Token::Arr {
        reader.skip(token)?;
        return Ok(None);
    }
    let mut numbers = Some(Vec::new());
    reader.items(|r| {
        match (r.value()?, &mut numbers) {
            (Token::Num(x), Some(xs)) => xs.push(x),
            _ => numbers = None,
        }
        Ok(())
    })?;
    Ok(numbers)
}

/// The fields of a request line that a request reads, each its first
/// occurrence in the line (as `Value::get` would find it), borrowed from
/// the line where it can be.
#[derive(Default)]
struct Fields<'a> {
    op: Option<Token<'a>>,
    deadline_ms: Option<Token<'a>>,
    agent: Option<Token<'a>>,
    source: Option<Utility<'a>>,
    truth: Option<Utility<'a>>,
    allocation: Option<Numbers>,
    performance: Option<Token<'a>>,
    capacity: Option<Numbers>,
    format: Option<Token<'a>>,
}

impl<'a> Fields<'a> {
    /// Walks `line` once: `None` when it is valid JSON but not an object.
    fn read(line: &'a str) -> Result<Option<Fields<'a>>, ParseError> {
        let mut reader = Reader::new(line);
        let token = reader.token()?;
        let mut fields = None;
        if token == Token::Obj {
            let mut f = Fields::default();
            reader.members(|r, key| f.member(r, &key))?;
            fields = Some(f);
        } else {
            reader.skip(token)?;
        }
        reader.finish()?;
        Ok(fields)
    }

    fn member(&mut self, r: &mut Reader<'a>, key: &str) -> Result<(), ParseError> {
        match key {
            "op" if self.op.is_none() => self.op = Some(r.value()?),
            "deadline_ms" if self.deadline_ms.is_none() => self.deadline_ms = Some(r.value()?),
            "agent" if self.agent.is_none() => self.agent = Some(r.value()?),
            "source" if self.source.is_none() => self.source = Some(Utility::read(r)?),
            "truth" if self.truth.is_none() => self.truth = Some(Utility::read(r)?),
            "allocation" if self.allocation.is_none() => {
                self.allocation = Some(read_numbers(r)?);
            }
            "performance" if self.performance.is_none() => self.performance = Some(r.value()?),
            "capacity" if self.capacity.is_none() => self.capacity = Some(read_numbers(r)?),
            "format" if self.format.is_none() => self.format = Some(r.value()?),
            _ => r.value().map(drop)?,
        }
        Ok(())
    }
}

/// A `source` or `truth` field as read: its own fields when it is an
/// object (first occurrences), none when it is anything else.
#[derive(Default)]
struct Utility<'a> {
    /// The field was `null`.
    null: bool,
    kind: Option<Token<'a>>,
    scale: Option<Token<'a>>,
    elasticities: Option<Numbers>,
    benchmark: Option<Token<'a>>,
}

impl<'a> Utility<'a> {
    fn read(r: &mut Reader<'a>) -> Result<Utility<'a>, ParseError> {
        let mut u = Utility::default();
        match r.token()? {
            Token::Obj => r.members(|r, key| {
                match &*key {
                    "kind" if u.kind.is_none() => u.kind = Some(r.value()?),
                    "scale" if u.scale.is_none() => u.scale = Some(r.value()?),
                    "elasticities" if u.elasticities.is_none() => {
                        u.elasticities = Some(read_numbers(r)?);
                    }
                    "benchmark" if u.benchmark.is_none() => u.benchmark = Some(r.value()?),
                    _ => r.value().map(drop)?,
                }
                Ok(())
            })?,
            Token::Null => u.null = true,
            token => r.skip(token)?,
        }
        Ok(u)
    }

    fn into_cobb_douglas(self) -> Result<CobbDouglas, String> {
        let scale = self.scale.as_ref().and_then(Token::as_f64).unwrap_or(1.0);
        let elasticities = f64_array(
            self.elasticities
                .ok_or_else(|| "utility needs an \"elasticities\" array".to_string())?,
        )?;
        CobbDouglas::new(scale, elasticities).map_err(|e| e.to_string())
    }

    fn into_source(self) -> Result<ObservationSource, String> {
        match self.kind.as_ref().and_then(Token::as_str) {
            Some("truth") => Ok(ObservationSource::GroundTruth(self.into_cobb_douglas()?)),
            Some("sim") => Ok(ObservationSource::Simulated {
                benchmark: match self.benchmark {
                    Some(Token::Str(benchmark)) => benchmark.into_owned(),
                    _ => return Err("sim source needs a \"benchmark\" string".to_string()),
                },
            }),
            Some("external") => Ok(ObservationSource::External),
            _ => Err("source \"kind\" must be truth|sim|external".to_string()),
        }
    }
}

/// Serializes a market event to its journal JSON form (the same shapes
/// the request grammar uses, so a journal line is replayable by hand).
pub fn event_to_value(event: &MarketEvent) -> Value {
    match event {
        MarketEvent::AgentJoined { id, source } => Value::obj(vec![
            ("op", Value::str("join")),
            ("agent", Value::from_u64(*id)),
            ("source", source_to_value(source)),
        ]),
        MarketEvent::AgentLeft { id } => Value::obj(vec![
            ("op", Value::str("leave")),
            ("agent", Value::from_u64(*id)),
        ]),
        MarketEvent::DemandChanged { id, new_truth } => Value::obj(vec![
            ("op", Value::str("demand")),
            ("agent", Value::from_u64(*id)),
            (
                "truth",
                new_truth
                    .as_ref()
                    .map_or(Value::Null, cobb_douglas_to_value),
            ),
        ]),
        MarketEvent::ObservationReported {
            id,
            allocation,
            performance,
        } => Value::obj(vec![
            ("op", Value::str("observe")),
            ("agent", Value::from_u64(*id)),
            ("allocation", Value::num_array(allocation)),
            ("performance", Value::Num(*performance)),
        ]),
        MarketEvent::CapacityRealloted { capacity } => Value::obj(vec![
            ("op", Value::str("reallot")),
            ("capacity", Value::num_array(capacity)),
        ]),
        MarketEvent::EpochTick => Value::obj(vec![("op", Value::str("tick"))]),
        // MarketEvent is non_exhaustive upstream; unknown variants cannot
        // be journaled faithfully, so refuse loudly rather than silently.
        #[allow(unreachable_patterns)]
        other => unreachable!("unjournalable market event {other:?}"),
    }
}

/// Parses a journal JSON value back into a market event.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn value_to_event(v: &Value) -> Result<MarketEvent, String> {
    let envelope = parse_request(&v.encode())?;
    envelope
        .request
        .to_event()
        .ok_or_else(|| "journal entry is not an event".to_string())
}

fn cobb_douglas_to_value(u: &CobbDouglas) -> Value {
    Value::obj(vec![
        ("scale", Value::Num(u.scale())),
        ("elasticities", Value::num_array(u.elasticities())),
    ])
}

fn source_to_value(source: &ObservationSource) -> Value {
    match source {
        ObservationSource::GroundTruth(u) => Value::obj(vec![
            ("kind", Value::str("truth")),
            ("scale", Value::Num(u.scale())),
            ("elasticities", Value::num_array(u.elasticities())),
        ]),
        ObservationSource::Simulated { benchmark } => Value::obj(vec![
            ("kind", Value::str("sim")),
            ("benchmark", Value::str(benchmark.clone())),
        ]),
        ObservationSource::External => Value::obj(vec![("kind", Value::str("external"))]),
    }
}

/// Builds the `{"ok":true,...}` success response: `"ok"`, then
/// `fields` in order, in one vector of its exact length.
pub fn ok_response<'a, I>(fields: I) -> Value
where
    I: IntoIterator<Item = (&'a str, Value)>,
    I::IntoIter: ExactSizeIterator,
{
    let fields = fields.into_iter();
    let mut pairs = Vec::with_capacity(1 + fields.len());
    pairs.push(("ok".to_string(), Value::Bool(true)));
    pairs.extend(fields.map(|(k, v)| (k.to_string(), v)));
    Value::Obj(pairs)
}

/// Builds the `not_primary` rejection a standby sends for mutations,
/// carrying the current leader's client address when known so clients
/// can fail over directly instead of walking their seed list.
pub(crate) fn not_primary_response(leader: Option<&str>) -> Value {
    let mut pairs = vec![
        ("ok", Value::Bool(false)),
        ("error", Value::str("not_primary")),
        (
            "detail",
            Value::str("this node is a standby; send mutations to the primary"),
        ),
    ];
    if let Some(addr) = leader {
        pairs.push(("leader", Value::str(addr)));
    }
    Value::obj(pairs)
}

/// Builds the `shard_unavailable` rejection the router answers
/// with when a request targets a shard that is Down (panicked,
/// restarting, or repeatedly missing its tick budget). Fail-fast by
/// design: the client gets the rejection — and a `retry_after_ms`
/// backoff hint — immediately, instead of waiting on a shard that
/// cannot answer. The `shard` tag names the
/// unavailable shard so fleet-wide aggregates stay attributable.
pub fn shard_unavailable_response(shard: u64, retry_after_ms: u64) -> Value {
    Value::obj(vec![
        ("ok", Value::Bool(false)),
        ("error", Value::str("shard_unavailable")),
        ("shard", Value::from_u64(shard)),
        (
            "detail",
            Value::str("the owning shard is down; retry after backoff"),
        ),
        ("retry_after_ms", Value::from_u64(retry_after_ms)),
    ])
}

/// Builds the `{"ok":false,"error":code,...}` failure response, in
/// one vector of its exact length.
pub fn error_response(code: &str, detail: Option<&str>, retry_after_ms: Option<u64>) -> Value {
    let len = 2 + usize::from(detail.is_some()) + usize::from(retry_after_ms.is_some());
    let mut pairs = Vec::with_capacity(len);
    pairs.push(("ok".to_string(), Value::Bool(false)));
    pairs.push(("error".to_string(), Value::str(code)));
    if let Some(d) = detail {
        pairs.push(("detail".to_string(), Value::str(d)));
    }
    if let Some(ms) = retry_after_ms {
        pairs.push(("retry_after_ms".to_string(), Value::from_u64(ms)));
    }
    Value::Obj(pairs)
}

/// The `wal` error of an append that poisoned the log: the event was
/// not applied, but its record may be whole on disk, so recovery may
/// replay it (`"outcome":"unknown"`, see the module docs).
pub(crate) fn outcome_unknown_response(detail: &str) -> Value {
    Value::obj(vec![
        ("ok", Value::Bool(false)),
        ("error", Value::str("wal")),
        ("detail", Value::str(detail)),
        ("outcome", Value::str("unknown")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse_with_classes() {
        let cases = [
            r#"{"op":"join","agent":1,"source":{"kind":"truth","elasticities":[0.6,0.4]}}"#,
            r#"{"op":"leave","agent":2}"#,
            r#"{"op":"demand","agent":2,"truth":null}"#,
            r#"{"op":"observe","agent":1,"allocation":[1,2],"performance":1.5}"#,
            r#"{"op":"tick"}"#,
            r#"{"op":"reallot","capacity":[8.0,4.0]}"#,
            r#"{"op":"query"}"#,
            r#"{"op":"query","agent":3}"#,
            r#"{"op":"snapshot"}"#,
            r#"{"op":"metrics","format":"text"}"#,
            r#"{"op":"journal"}"#,
            r#"{"op":"scrub"}"#,
            r#"{"op":"ping"}"#,
            r#"{"op":"ping","agent":9}"#,
            r#"{"op":"promote"}"#,
            r#"{"op":"shutdown"}"#,
        ];
        for line in cases {
            parse_request(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn deadlines_parse_and_default_to_none() {
        let env = parse_request(r#"{"op":"tick","deadline_ms":250}"#).unwrap();
        assert_eq!(env.deadline_ms, Some(250));
        assert_eq!(parse_request(r#"{"op":"tick"}"#).unwrap().deadline_ms, None);
        assert!(parse_request(r#"{"op":"tick","deadline_ms":-1}"#).is_err());
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for bad in [
            "",
            "not json",
            "[1,2]",
            r#"{"op":"warp"}"#,
            r#"{"op":"join","agent":1}"#,
            r#"{"op":"join","agent":1,"source":{"kind":"nope"}}"#,
            r#"{"op":"join","agent":-1,"source":{"kind":"external"}}"#,
            r#"{"op":"leave"}"#,
            r#"{"op":"observe","agent":1,"allocation":[1,"x"],"performance":1}"#,
            r#"{"op":"observe","agent":1,"allocation":[1,2]}"#,
            r#"{"op":"reallot"}"#,
            r#"{"op":"reallot","capacity":[1,"x"]}"#,
            r#"{"op":"join","agent":1,"source":{"kind":"truth","elasticities":[2.0,-1.0]}}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn agent_ids_stop_below_2_pow_53() {
        let query = |agent: &str| parse_request(&format!(r#"{{"op":"query","agent":{agent}}}"#));
        assert_eq!(
            query("9007199254740991").unwrap().request,
            Request::Query {
                agent: Some(9_007_199_254_740_991)
            }
        );
        // 2^53 + 1 reads as the double 2^53: both must be refused, or two
        // wire ids would name one agent.
        for agent in ["9007199254740992", "9007199254740993"] {
            assert_eq!(
                query(agent).unwrap_err(),
                "\"agent\" must be a non-negative integer below 2^53"
            );
        }
    }

    #[test]
    fn events_round_trip_through_journal_values() {
        let events = vec![
            MarketEvent::AgentJoined {
                id: 1,
                source: ObservationSource::GroundTruth(
                    CobbDouglas::new(1.5, vec![0.6, 0.4]).unwrap(),
                ),
            },
            MarketEvent::AgentJoined {
                id: 2,
                source: ObservationSource::Simulated {
                    benchmark: "histogram".to_string(),
                },
            },
            MarketEvent::AgentJoined {
                id: 3,
                source: ObservationSource::External,
            },
            MarketEvent::DemandChanged {
                id: 1,
                new_truth: Some(CobbDouglas::new(1.0, vec![0.3, 0.7]).unwrap()),
            },
            MarketEvent::DemandChanged {
                id: 3,
                new_truth: None,
            },
            MarketEvent::ObservationReported {
                id: 3,
                allocation: vec![1.0 / 3.0, 2.5],
                performance: 1.25,
            },
            MarketEvent::AgentLeft { id: 2 },
            MarketEvent::CapacityRealloted {
                capacity: vec![12.5, 6.0],
            },
            MarketEvent::EpochTick,
        ];
        for event in events {
            let value = event_to_value(&event);
            let back = value_to_event(&value).unwrap_or_else(|e| panic!("{value}: {e}"));
            assert_eq!(back, event, "{value}");
        }
    }

    #[test]
    fn a_message_is_one_write() {
        /// Counts `write` calls; accepts everything it is handed.
        struct Counting(Vec<Vec<u8>>);
        impl Write for Counting {
            fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
                self.0.push(bytes.to_vec());
                Ok(bytes.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let (mut sink, mut buf) = (Counting(Vec::new()), String::new());
        write_line(&mut sink, &mut buf, r#"{"op":"tick"}"#).unwrap();
        write_line(&mut sink, &mut buf, "").unwrap();
        write_line(&mut sink, &mut buf, &"x".repeat(100_000)).unwrap();
        let reply = ok_response([("epoch", Value::from_u64(7))]);
        write_value(&mut sink, &mut buf, &reply).unwrap();
        assert_eq!(sink.0.len(), 4, "one write per message");
        assert_eq!(sink.0[0], b"{\"op\":\"tick\"}\n");
        assert_eq!(sink.0[1], b"\n");
        assert_eq!(sink.0[2].len(), 100_001);
        assert_eq!(sink.0[3], b"{\"ok\":true,\"epoch\":7}\n");
    }

    #[test]
    fn responses_have_fixed_shape() {
        assert_eq!(
            ok_response([("epoch", Value::from_u64(3))]).encode(),
            "{\"ok\":true,\"epoch\":3}"
        );
        assert_eq!(
            error_response("overloaded", None, Some(5)).encode(),
            "{\"ok\":false,\"error\":\"overloaded\",\"retry_after_ms\":5}"
        );
        assert_eq!(
            error_response("market", Some("unknown agent 7"), None).encode(),
            "{\"ok\":false,\"error\":\"market\",\"detail\":\"unknown agent 7\"}"
        );
        assert_eq!(
            not_primary_response(Some("127.0.0.1:9")).encode(),
            "{\"ok\":false,\"error\":\"not_primary\",\
             \"detail\":\"this node is a standby; send mutations to the primary\",\
             \"leader\":\"127.0.0.1:9\"}"
        );
        assert_eq!(
            shard_unavailable_response(3, 25).encode(),
            "{\"ok\":false,\"error\":\"shard_unavailable\",\"shard\":3,\
             \"detail\":\"the owning shard is down; retry after backoff\",\
             \"retry_after_ms\":25}"
        );
    }
}
