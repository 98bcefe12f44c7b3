//! The request conversion `ref-serve` shipped before `parse_request`
//! walked the line itself, kept verbatim as the reference the walk is
//! checked against: parse the whole line into a `Value` tree, then read
//! each field with `Value::get` (the first occurrence of a key wins) in
//! a fixed order. No library path runs it.
//!
//! Mounted with `#[path]` by the integration tests that use it.

#![allow(dead_code)]

use ref_core::utility::CobbDouglas;
use ref_market::{AgentId, ObservationSource};
use ref_serve::{Envelope, Request, Value};

/// Parses one protocol line into an envelope.
pub(crate) fn parse_request(line: &str) -> Result<Envelope, String> {
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
