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
//!              "shard"?: number } "\n"
//! code     = "protocol" | "overloaded" | "deadline" | "market"
//!          | "shutting_down" | "timeout" | "journal_overflow"
//!          | "journal_truncated" | "wal" | "not_primary" | "fenced"
//!          | "repl" | "internal" | "shard_unavailable" | "unavailable"
//! ```
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
//! Every op maps to an admission `Class` so backpressure can be applied
//! per class: a flood of cheap `query`s cannot crowd out `observe`s, and
//! vice versa.

use std::io::{self, Write};

use ref_core::utility::CobbDouglas;
use ref_market::{AgentId, MarketEvent, ObservationSource};

use crate::json::Value;

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
    buf: &mut Vec<u8>,
    message: &str,
) -> io::Result<()> {
    buf.clear();
    buf.extend_from_slice(message.as_bytes());
    buf.push(b'\n');
    writer.write_all(buf)
}

/// Admission class of a request, used for per-class queue quotas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Class {
    /// Membership and epoch control: `join`, `leave`, `demand`, `tick`,
    /// `shutdown`.
    Control = 0,
    /// Telemetry ingest: `observe`.
    Observe = 1,
    /// Read-only inspection: `query`, `snapshot`, `metrics`, `journal`,
    /// `scrub`.
    Query = 2,
}

/// Number of admission classes.
pub(crate) const NUM_CLASSES: usize = 3;

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
    /// The request's admission class.
    pub(crate) fn class(&self) -> Class {
        match self {
            Request::Join { .. }
            | Request::Leave { .. }
            | Request::Demand { .. }
            | Request::Tick
            | Request::Reallot { .. }
            | Request::Promote
            | Request::Shutdown => Class::Control,
            Request::Observe { .. } => Class::Observe,
            Request::Query { .. }
            | Request::Snapshot
            | Request::Metrics { .. }
            | Request::Journal
            | Request::Scrub
            | Request::Ping { .. } => Class::Query,
        }
    }

    /// Whether [`Request::to_event`] yields an event (without building it).
    pub(crate) fn bears_event(&self) -> bool {
        matches!(
            self,
            Request::Join { .. }
                | Request::Leave { .. }
                | Request::Demand { .. }
                | Request::Observe { .. }
                | Request::Tick
                | Request::Reallot { .. }
        )
    }

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
/// # Errors
///
/// Returns a human-readable description of the first violation; callers
/// wrap it in an `"error":"protocol"` response.
pub fn parse_request(line: &str) -> Result<Envelope, String> {
    let value = Value::parse(line).map_err(|e| format!("bad json: {e}"))?;
    if !matches!(value, Value::Obj(_)) {
        return Err("request must be a json object".to_string());
    }
    let op = value
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing string field \"op\"".to_string())?;
    let deadline_ms = match value.get("deadline_ms") {
        None | Some(Value::Null) => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| "\"deadline_ms\" must be a non-negative integer".to_string())?,
        ),
    };
    let agent = |required: bool| -> Result<Option<AgentId>, String> {
        match value.get("agent") {
            Some(v) => Ok(Some(v.as_u64().ok_or_else(|| {
                "\"agent\" must be a non-negative integer below 2^53".to_string()
            })?)),
            None if required => Err("missing field \"agent\"".to_string()),
            None => Ok(None),
        }
    };
    let request = match op {
        "join" => {
            let source = value
                .get("source")
                .ok_or_else(|| "join needs a \"source\" object".to_string())?;
            Request::Join {
                agent: agent(true)?.unwrap(),
                source: parse_source(source)?,
            }
        }
        "leave" => Request::Leave {
            agent: agent(true)?.unwrap(),
        },
        "demand" => {
            let truth = match value.get("truth") {
                None | Some(Value::Null) => None,
                Some(v) => Some(parse_cobb_douglas(v)?),
            };
            Request::Demand {
                agent: agent(true)?.unwrap(),
                truth,
            }
        }
        "observe" => {
            let allocation = f64_array(
                value
                    .get("allocation")
                    .ok_or_else(|| "observe needs an \"allocation\" array".to_string())?,
            )?;
            let performance = value
                .get("performance")
                .and_then(Value::as_f64)
                .ok_or_else(|| "observe needs a numeric \"performance\"".to_string())?;
            Request::Observe {
                agent: agent(true)?.unwrap(),
                allocation,
                performance,
            }
        }
        "tick" => Request::Tick,
        "reallot" => Request::Reallot {
            capacity: f64_array(
                value
                    .get("capacity")
                    .ok_or_else(|| "reallot needs a \"capacity\" array".to_string())?,
            )?,
        },
        "query" => Request::Query {
            agent: agent(false)?,
        },
        "snapshot" => Request::Snapshot,
        "metrics" => Request::Metrics {
            text: value.get("format").and_then(Value::as_str) == Some("text"),
        },
        "journal" => Request::Journal,
        "scrub" => Request::Scrub,
        "ping" => Request::Ping {
            agent: agent(false)?,
        },
        "promote" => Request::Promote,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown op {other:?}")),
    };
    Ok(Envelope {
        request,
        deadline_ms,
    })
}

fn f64_array(v: &Value) -> Result<Vec<f64>, String> {
    v.as_array()
        .ok_or_else(|| "expected an array of numbers".to_string())?
        .iter()
        .map(|x| {
            x.as_f64()
                .ok_or_else(|| "expected an array of numbers".to_string())
        })
        .collect()
}

fn parse_cobb_douglas(v: &Value) -> Result<CobbDouglas, String> {
    let scale = v.get("scale").and_then(Value::as_f64).unwrap_or(1.0);
    let elasticities = f64_array(
        v.get("elasticities")
            .ok_or_else(|| "utility needs an \"elasticities\" array".to_string())?,
    )?;
    CobbDouglas::new(scale, elasticities).map_err(|e| e.to_string())
}

fn parse_source(v: &Value) -> Result<ObservationSource, String> {
    match v.get("kind").and_then(Value::as_str) {
        Some("truth") => Ok(ObservationSource::GroundTruth(parse_cobb_douglas(v)?)),
        Some("sim") => Ok(ObservationSource::Simulated {
            benchmark: v
                .get("benchmark")
                .and_then(Value::as_str)
                .ok_or_else(|| "sim source needs a \"benchmark\" string".to_string())?
                .to_string(),
        }),
        Some("external") => Ok(ObservationSource::External),
        _ => Err("source \"kind\" must be truth|sim|external".to_string()),
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

/// Builds the `{"ok":true,...}` success response.
pub fn ok_response(fields: Vec<(&str, Value)>) -> Value {
    let mut pairs = vec![("ok", Value::Bool(true))];
    pairs.extend(fields);
    Value::obj(pairs)
}

/// Builds the `not_primary` rejection a standby sends for mutations,
/// carrying the current leader's client address when known so clients
/// can fail over directly instead of walking their seed list. `shard`
/// scopes the redirect when this node serves one shard of a sharded
/// deployment: clients then update only that shard's leader hint.
pub(crate) fn not_primary_response(leader: Option<&str>, shard: Option<u64>) -> Value {
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
    if let Some(shard) = shard {
        pairs.push(("shard", Value::from_u64(shard)));
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

/// Builds the `{"ok":false,"error":code,...}` failure response.
pub fn error_response(code: &str, detail: Option<&str>, retry_after_ms: Option<u64>) -> Value {
    let mut pairs = vec![("ok", Value::Bool(false)), ("error", Value::str(code))];
    if let Some(d) = detail {
        pairs.push(("detail", Value::str(d)));
    }
    if let Some(ms) = retry_after_ms {
        pairs.push(("retry_after_ms", Value::from_u64(ms)));
    }
    Value::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_parse_with_classes() {
        let cases = [
            (
                r#"{"op":"join","agent":1,"source":{"kind":"truth","elasticities":[0.6,0.4]}}"#,
                Class::Control,
            ),
            (r#"{"op":"leave","agent":2}"#, Class::Control),
            (r#"{"op":"demand","agent":2,"truth":null}"#, Class::Control),
            (
                r#"{"op":"observe","agent":1,"allocation":[1,2],"performance":1.5}"#,
                Class::Observe,
            ),
            (r#"{"op":"tick"}"#, Class::Control),
            (r#"{"op":"reallot","capacity":[8.0,4.0]}"#, Class::Control),
            (r#"{"op":"query"}"#, Class::Query),
            (r#"{"op":"query","agent":3}"#, Class::Query),
            (r#"{"op":"snapshot"}"#, Class::Query),
            (r#"{"op":"metrics","format":"text"}"#, Class::Query),
            (r#"{"op":"journal"}"#, Class::Query),
            (r#"{"op":"scrub"}"#, Class::Query),
            (r#"{"op":"ping"}"#, Class::Query),
            (r#"{"op":"ping","agent":9}"#, Class::Query),
            (r#"{"op":"promote"}"#, Class::Control),
            (r#"{"op":"shutdown"}"#, Class::Control),
        ];
        for (line, class) in cases {
            let env = parse_request(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(env.request.class(), class, "{line}");
            let bears = env.request.to_event().is_some();
            assert_eq!(env.request.bears_event(), bears, "{line}");
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
        let (mut sink, mut buf) = (Counting(Vec::new()), Vec::new());
        write_line(&mut sink, &mut buf, r#"{"op":"tick"}"#).unwrap();
        write_line(&mut sink, &mut buf, "").unwrap();
        write_line(&mut sink, &mut buf, &"x".repeat(100_000)).unwrap();
        assert_eq!(sink.0.len(), 3, "one write per message");
        assert_eq!(sink.0[0], b"{\"op\":\"tick\"}\n");
        assert_eq!(sink.0[1], b"\n");
        assert_eq!(sink.0[2].len(), 100_001);
    }

    #[test]
    fn responses_have_fixed_shape() {
        assert_eq!(
            ok_response(vec![("epoch", Value::from_u64(3))]).encode(),
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
            not_primary_response(Some("127.0.0.1:9"), Some(2)).encode(),
            "{\"ok\":false,\"error\":\"not_primary\",\
             \"detail\":\"this node is a standby; send mutations to the primary\",\
             \"leader\":\"127.0.0.1:9\",\"shard\":2}"
        );
        assert_eq!(
            shard_unavailable_response(3, 25).encode(),
            "{\"ok\":false,\"error\":\"shard_unavailable\",\"shard\":3,\
             \"detail\":\"the owning shard is down; retry after backoff\",\
             \"retry_after_ms\":25}"
        );
    }
}
