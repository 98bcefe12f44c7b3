//! The request grammar against its reference: `parse_request` walks a
//! line once and fills the `Request` itself, and `Value::parse` builds a
//! tree with the same reader; the references under `support/` are the
//! code both replaced (a recursive tree parser, and the conversion that
//! parsed the whole line into a `Value` and read it with `Value::get`).
//!
//! Every line of a generated corpus must get the same answer from both
//! sides, compared through `Debug` so that `-0` and `0` differ: the same
//! `Ok`, or the same `Err` text, byte offset included. The corpus starts
//! from lines for every op and then varies them — key order, duplicate
//! keys, unknown keys holding nested values, whitespace, escaped keys
//! and values, `deadline_ms`, numbers at 2^53 ± 1, `-0`, `1e308`,
//! `1e309` and leading zeros — and finally flips, truncates, inserts
//! and deletes bytes. This is the hostile-bytes corpus for the request
//! grammar; a panic on any line fails the test.

#[path = "support/json_reference.rs"]
mod json_reference;
#[path = "support/request_reference.rs"]
mod request_reference;

use std::collections::BTreeSet;

use proptest::prelude::*;
use ref_serve::{parse_request, Value};

/// A SplitMix64 stream: one case's whole line from one seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True one time in `n`.
    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

const OPS: [&str; 16] = [
    "join", "leave", "demand", "observe", "tick", "reallot", "query", "snapshot", "metrics",
    "journal", "scrub", "ping", "promote", "shutdown", "warp", "",
];

/// Number texts at the edges: ids around 2^53, signed zeros, the range
/// limit, leading zeros, and texts that only look like numbers.
const NUMBERS: [&str; 36] = [
    "0",
    "1",
    "7",
    "42",
    "-1",
    "-0",
    "-0.0",
    "0.5",
    "2.25",
    "0.6",
    "0.4",
    "1e3",
    "1E2",
    "2.5e-3",
    "007",
    "00",
    "-01",
    "9007199254740991",
    "9007199254740992",
    "9007199254740993",
    "-9007199254740993",
    "1e308",
    "1e309",
    "-1e309",
    "1.7976931348623157e308",
    "5e-324",
    "1e-400",
    "1.",
    ".5",
    "-",
    "1e",
    "1e+",
    "2.0",
    "3.000",
    "+1",
    "0x10",
];

/// String bodies, already in JSON text: plain, escaped, and broken.
const STRINGS: [&str; 16] = [
    "external",
    "truth",
    "sim",
    "text",
    "histogram",
    "",
    "é数🦀",
    "\\u0074ext",
    "\\u0065xternal",
    "x\\ny\\t\\\"",
    "\\ud83d\\ude00",
    "\\ud800",
    "\\udc00",
    "\\q",
    "\\u12",
    "\\u+074",
];

fn number(g: &mut Gen) -> String {
    match g.below(4) {
        0 => format!("{}", g.below(300)),
        1 => format!("{}", (g.next() >> 11) as f64 / (1u64 << 53) as f64 * 4.0),
        _ => g.pick(&NUMBERS).to_string(),
    }
}

fn string(g: &mut Gen) -> String {
    format!("\"{}\"", g.pick(&STRINGS))
}

/// Any JSON value, nested up to `depth` more levels.
fn any(g: &mut Gen, depth: usize) -> String {
    match g.below(if depth == 0 { 5 } else { 7 }) {
        0 => "null".to_string(),
        1 => g.pick(&["true", "false"]).to_string(),
        2 => number(g),
        3 | 4 => string(g),
        5 => {
            let items: Vec<String> = (0..g.below(4)).map(|_| any(g, depth - 1)).collect();
            format!("[{}]", items.join(","))
        }
        _ => {
            let members: Vec<String> = (0..g.below(4))
                .map(|_| {
                    let name = g.pick(&["a", "kind", "op", "x"]);
                    format!("{}:{}", key(g, name), any(g, depth - 1))
                })
                .collect();
            format!("{{{}}}", members.join(","))
        }
    }
}

/// A value that is usually of `kind`'s shape and sometimes anything.
fn usually(g: &mut Gen, good: impl FnOnce(&mut Gen) -> String) -> String {
    if g.one_in(6) {
        any(g, 2)
    } else {
        good(g)
    }
}

fn numbers(g: &mut Gen, len: usize) -> String {
    let mut items: Vec<String> = (0..len).map(|_| number(g)).collect();
    if g.one_in(8) {
        let at = g.below(items.len() + 1);
        items.insert(at, any(g, 1));
    }
    format!("[{}]", items.join(","))
}

fn agent(g: &mut Gen) -> String {
    usually(g, |g| {
        if g.one_in(3) {
            number(g)
        } else {
            format!("{}", 1 + g.below(500))
        }
    })
}

/// A Cobb-Douglas object; with `kind`, a `source`.
fn utility(g: &mut Gen, kind: Option<&str>) -> String {
    let mut members = Vec::new();
    if let Some(kind) = kind {
        members.push(format!("\"kind\":\"{kind}\""));
    }
    if g.one_in(2) {
        members.push(format!("\"scale\":{}", usually(g, number)));
    }
    if !g.one_in(8) {
        let shape = |g: &mut Gen| {
            if g.one_in(2) {
                g.pick(&["[0.6,0.4]", "[0.3,0.7]", "[1]", "[0.5,0.5,0.5]"])
                    .to_string()
            } else {
                let len = 1 + g.below(3);
                numbers(g, len)
            }
        };
        members.push(format!("\"elasticities\":{}", usually(g, shape)));
    }
    if kind == Some("sim") || g.one_in(6) {
        members.push(format!("\"benchmark\":{}", usually(g, string)));
    }
    format!("{{{}}}", members.join(","))
}

fn source(g: &mut Gen) -> String {
    usually(g, |g| {
        let kind = g.pick(&["truth", "sim", "external", "warp"]);
        utility(g, Some(kind))
    })
}

/// A key in JSON text, one of its letters sometimes `\u`-escaped.
fn key(g: &mut Gen, name: &str) -> String {
    if name.is_empty() || !g.one_in(6) {
        return format!("\"{name}\"");
    }
    let at = g.below(name.len());
    let (head, tail) = name.split_at(at);
    let mut chars = tail.chars();
    let c = chars.next().unwrap();
    let hex = if g.one_in(2) {
        format!("\\u{:04x}", c as u32)
    } else {
        format!("\\u{:04X}", c as u32)
    };
    format!("\"{head}{hex}{}\"", chars.as_str())
}

/// The fields op `op` reads, each usually well formed.
fn fields(g: &mut Gen, op: &str) -> Vec<(&'static str, String)> {
    let mut fields = Vec::new();
    match op {
        "join" => {
            fields.push(("agent", agent(g)));
            fields.push(("source", source(g)));
        }
        "leave" => fields.push(("agent", agent(g))),
        "demand" => {
            fields.push(("agent", agent(g)));
            match g.below(3) {
                0 => fields.push(("truth", "null".to_string())),
                1 => {
                    let truth = usually(g, |g| utility(g, None));
                    fields.push(("truth", truth));
                }
                _ => {}
            }
        }
        "observe" => {
            fields.push(("agent", agent(g)));
            let allocation = usually(g, |g| {
                let len = g.below(4);
                numbers(g, len)
            });
            fields.push(("allocation", allocation));
            fields.push(("performance", usually(g, number)));
        }
        "reallot" => {
            let capacity = usually(g, |g| {
                let len = g.below(4);
                numbers(g, len)
            });
            fields.push(("capacity", capacity));
        }
        "query" | "ping" if g.one_in(2) => fields.push(("agent", agent(g))),
        "metrics" if g.one_in(2) => {
            let format = usually(g, |g| format!("\"{}\"", g.pick(&["text", "json"])));
            fields.push(("format", format));
        }
        _ => {}
    }
    // Drop a required field now and then.
    if !fields.is_empty() && g.one_in(10) {
        let at = g.below(fields.len());
        fields.remove(at);
    }
    fields
}

/// Whitespace, usually none.
fn ws(g: &mut Gen) -> &'static str {
    if g.one_in(4) {
        g.pick(&[" ", "  ", "\t", "\n", "\r\n", " \t "])
    } else {
        ""
    }
}

const KEYS: [&str; 10] = [
    "op",
    "agent",
    "source",
    "truth",
    "allocation",
    "performance",
    "capacity",
    "format",
    "deadline_ms",
    "benchmark",
];

/// One request line before byte-level damage.
fn request(g: &mut Gen) -> String {
    if g.one_in(25) {
        // Not an object at all.
        return any(g, 2);
    }
    let op = g.pick(&OPS);
    let mut members: Vec<(String, String)> = Vec::new();
    match g.below(12) {
        0 => {} // no op
        1 => members.push((key(g, "op"), any(g, 1))),
        _ => {
            let value = if g.one_in(8) {
                key(g, op) // a key-style escape in the value
            } else {
                format!("\"{op}\"")
            };
            members.push((key(g, "op"), value));
        }
    }
    for (name, value) in fields(g, op) {
        members.push((key(g, name), value));
    }
    if g.one_in(3) {
        let deadline = usually(g, |g| {
            if g.one_in(2) {
                format!("{}", g.below(1000))
            } else {
                number(g)
            }
        });
        members.push((key(g, "deadline_ms"), deadline));
    }
    // Duplicates of the fields a request reads, with any value.
    for _ in 0..g.below(3) {
        let name = g.pick(&KEYS);
        let value = if g.one_in(2) {
            any(g, 2)
        } else {
            let op = g.pick(&OPS);
            fields(g, op)
                .into_iter()
                .find(|(n, _)| *n == name)
                .map_or_else(|| any(g, 1), |(_, v)| v)
        };
        members.push((key(g, name), value));
    }
    // Unknown keys holding nested values, once in a while past the
    // nesting cap.
    for _ in 0..g.below(3) {
        let value = if g.one_in(10) {
            let depth = 29 + g.below(6);
            format!("{}{}", "[".repeat(depth), "]".repeat(depth))
        } else {
            any(g, 3)
        };
        let name = g.pick(&["x", "meta", "kind", "", "Op"]);
        members.push((key(g, name), value));
    }
    // Shuffle.
    for i in (1..members.len()).rev() {
        let j = g.below(i + 1);
        members.swap(i, j);
    }
    let mut line = format!("{}{{", ws(g));
    for (i, (k, v)) in members.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(ws(g));
        line.push_str(k);
        line.push_str(ws(g));
        line.push(':');
        line.push_str(ws(g));
        line.push_str(v);
        line.push_str(ws(g));
    }
    line.push('}');
    line.push_str(ws(g));
    if g.one_in(2) {
        line.push('\n');
    }
    line
}

/// Bytes a mutation inserts or writes: the grammar's own, digits,
/// controls and the lead byte of a multi-byte character.
const NOISE: [u8; 24] = [
    b'"', b'\\', b'{', b'}', b'[', b']', b',', b':', b'0', b'9', b'-', b'.', b'e', b'+', b' ',
    b'\n', b'u', b'n', b't', b'f', 0x01, 0x1f, 0x7f, 0xc3,
];

/// A request line, then byte flips, truncations, insertions and
/// deletions half of the time.
fn line(seed: u64) -> String {
    let mut g = Gen(seed);
    let mut bytes = request(&mut g).into_bytes();
    if g.one_in(2) {
        for _ in 0..1 + g.below(3) {
            let at = g.below(bytes.len() + 1);
            match g.below(5) {
                0 => bytes.truncate(at),
                1 => bytes.insert(at, NOISE[g.below(NOISE.len())]),
                2 if at < bytes.len() => {
                    bytes.remove(at);
                }
                3 if at < bytes.len() => bytes[at] ^= 1 << g.below(8),
                _ if at < bytes.len() => bytes[at] = NOISE[g.below(NOISE.len())],
                _ => {}
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The two answers for `line` as `Debug` text, the library's first.
fn answers(line: &str) -> [(String, String); 2] {
    [
        (
            format!("{:?}", Value::parse(line)),
            format!("{:?}", json_reference::parse(line)),
        ),
        (
            format!("{:?}", parse_request(line)),
            format!("{:?}", request_reference::parse_request(line)),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6_000))]

    #[test]
    fn parse_request_answers_what_the_value_path_answers(seed in 0u64..=u64::MAX) {
        let line = line(seed);
        let [value, request] = answers(&line);
        prop_assert_eq!(&value.0, &value.1, "Value::parse on {:?}", line);
        prop_assert_eq!(&request.0, &request.1, "parse_request on {:?}", line);
    }
}

/// Lines refbench sends, and lines that pin the first-occurrence rule,
/// escaped keys and the 2^53 bound.
#[test]
fn fixed_lines_answer_as_the_reference_does() {
    let lines = [
        r#"{"op":"observe","agent":17,"allocation":[0.61,0.29],"performance":0.4}"#,
        r#"{"op":"query","agent":17}"#,
        r#"{"op":"tick"}"#,
        r#"{"op":"join","agent":3,"source":{"kind":"truth","scale":1,"elasticities":[0.6,0.4]}}"#,
        r#"{"op":"join","agent":3,"source":{"kind":"external"}}"#,
        r#"{"op":"leave","agent":3}"#,
        r#"{"op":"query","agent":1,"agent":"x"}"#,
        r#"{"op":"query","agent":"x","agent":1}"#,
        r#"{"op":"query","op":"tick"}"#,
        r#"{"op":"tick","deadline_ms":9007199254740991}"#,
        r#"{"op":"query","agent":9007199254740992}"#,
        r#"{"op":"query","agent":-0}"#,
        r#"{"op":"demand","agent":2,"truth":null,"truth":{"elasticities":[1]}}"#,
        r#"{"op":"join","agent":1,"source":{"kind":"sim","benchmark":"hé"}}"#,
        r#"{"op":"observe","agent":1,"allocation":[1,[2]],"performance":1}"#,
        r#"{"op":"observe","allocation":[1e309],"agent":1,"performance":1}"#,
        "  {\"op\" : \"tick\" }  \n",
        "",
        "[]",
        "{}",
    ];
    for line in lines {
        let [value, request] = answers(line);
        assert_eq!(value.0, value.1, "Value::parse on {line:?}");
        assert_eq!(request.0, request.1, "parse_request on {line:?}");
    }
}

/// The generator reaches every outcome the grammar has: accepted lines
/// of each op, and each of the refusals below.
#[test]
fn the_corpus_reaches_every_outcome() {
    let (mut accepted, mut refusals) = (BTreeSet::new(), BTreeSet::new());
    for seed in 0..6_000 {
        match request_reference::parse_request(&line(seed)) {
            Ok(envelope) => {
                let request = format!("{:?}", envelope.request);
                accepted.insert(request.split([' ', '{']).next().unwrap().to_string());
            }
            Err(refusal) => {
                refusals.insert(refusal);
            }
        }
    }
    assert_eq!(accepted.len(), 14, "ops accepted: {accepted:?}");
    for kind in [
        "missing string field \"op\"",
        "\"deadline_ms\" must be",
        "\"agent\" must be",
        "unknown op",
        "request must be a json object",
        "expected an array of numbers",
        "join needs a",
        "observe needs an",
        "observe needs a numeric",
        "reallot needs a",
        "missing field \"agent\"",
        "utility needs an",
        "sim source needs a",
        "source \"kind\" must be",
        "nesting too deep",
        "number out of range",
        "bad number",
        "unterminated string",
        "unknown escape",
        "bad unicode escape",
        "lone high surrogate",
        "trailing characters after value",
        "unexpected character",
        "unexpected end of input",
        "expected ',' or '}'",
        "expected ':'",
        "raw control character in string",
    ] {
        assert!(
            refusals.iter().any(|seen| seen.contains(kind)),
            "no line was refused with {kind:?}"
        );
    }
}
