//! A minimal, dependency-free JSON codec for the wire protocol.
//!
//! Scope is deliberately small: one JSON value per protocol line, objects
//! preserve insertion order (so responses serialize with a fixed field
//! order), numbers are `f64` (ids must stay below 2^53 — the engine's
//! `AgentId` space used on the wire), and strings support the standard
//! escapes plus `\uXXXX` (surrogate pairs included). Number formatting
//! uses Rust's shortest round-trip `Display`, so a value that survives an
//! encode → decode cycle is bit-identical.
//!
//! There is one reader, `Reader`: a pull lexer that hands out one
//! `Token` per value and walks containers member by member. Two
//! builders drive it: [`Value::parse`], which builds a tree, and the
//! request parser (`protocol::parse_request`), which keeps only the
//! fields a request names and skips the rest. Both therefore refuse the
//! same documents with the same message at the same byte offset.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved on encode.
    Obj(Vec<(String, Value)>),
}

/// 2^53: integers below it are exact in an `f64`.
const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0;

/// `x` as a non-negative integer below 2^53, if it is one.
fn exact_u64(x: f64) -> Option<u64> {
    ((0.0..EXACT_INTEGERS).contains(&x) && x.fract() == 0.0).then_some(x as u64)
}

impl Value {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Builds a number value from anything convertible to `f64`.
    pub(crate) fn num(x: impl Into<f64>) -> Value {
        Value::Num(x.into())
    }

    /// Builds a number from a `u64` (callers must keep ids below 2^53).
    pub fn from_u64(x: u64) -> Value {
        Value::Num(x as f64)
    }

    /// Builds an array of numbers.
    pub fn num_array(xs: &[f64]) -> Value {
        Value::Arr(xs.iter().map(|x| Value::Num(*x)).collect())
    }

    /// Looks up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a non-negative integer below 2^53, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value to its compact JSON text.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the value's compact JSON text (the bytes
    /// [`Value::encode`] returns) to `out`, so a caller that keeps one
    /// buffer encodes without allocating once it has grown.
    pub fn encode_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => write_number(out, *x),
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Value::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value from `text`, requiring it to consume the
    /// whole input (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut reader = Reader::new(text);
        let value = Value::read(&mut reader)?;
        reader.finish()?;
        Ok(value)
    }

    /// Builds the value the reader is at.
    fn read(reader: &mut Reader<'_>) -> Result<Value, ParseError> {
        Ok(match reader.token()? {
            Token::Null => Value::Null,
            Token::Bool(b) => Value::Bool(b),
            Token::Num(x) => Value::Num(x),
            Token::Str(s) => Value::Str(s.into_owned()),
            Token::Arr => {
                let mut items = Vec::new();
                reader.items(|r| {
                    items.push(Value::read(r)?);
                    Ok(())
                })?;
                Value::Arr(items)
            }
            Token::Obj => {
                let mut pairs = Vec::new();
                reader.members(|r, key| {
                    pairs.push((key.into_owned(), Value::read(r)?));
                    Ok(())
                })?;
                Value::Obj(pairs)
            }
        })
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.encode())
    }
}

/// `{x}` for a finite `x`, `null` otherwise. An integral `x` below 2^53
/// in magnitude, other than `-0`, goes through integer formatting: for
/// those `{x}` prints the integer's digits and nothing else (no point,
/// no exponent), so the bytes are the same and the float formatter's
/// shortest-digit search is skipped.
fn write_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < EXACT_INTEGERS && !(x == 0.0 && x.is_sign_negative()) {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

/// Writes `s` quoted, copying each run of bytes that needs no escape
/// whole. Every byte that does is ASCII, so each run ends on a `char`
/// boundary.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (at, byte) in s.bytes().enumerate() {
        let escape = match byte {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(&s[run..at]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{byte:04x}");
        } else {
            out.push_str(escape);
        }
        run = at + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Why a document failed to parse: a message plus the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable reason.
    pub message: String,
    /// Byte offset into the input where parsing stopped.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Nesting depth cap: protocol messages are flat, anything deeper is abuse.
const MAX_DEPTH: usize = 32;

/// The start of one JSON value: a scalar whole, or the opening bracket
/// of a container whose contents [`Reader::items`] or
/// [`Reader::members`] walk next.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string, borrowed from the input unless it held an escape.
    Str(Cow<'a, str>),
    /// `[`.
    Arr,
    /// `{`.
    Obj,
}

impl Token<'_> {
    /// The token as a string slice, if it is one.
    pub(crate) fn as_str(&self) -> Option<&str> {
        match self {
            Token::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The token as an `f64`, if it is a number.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Token::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The token as a non-negative integer below 2^53, if it is one.
    pub(crate) fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
    }
}

/// The one JSON reader: a cursor over a document that yields each
/// value's [`Token`] and walks containers through callbacks, checking
/// syntax and nesting depth as it goes. What to keep is the caller's
/// choice; [`Reader::skip`] validates what it does not keep.
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open around the cursor.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the first value of `text` (leading whitespace skipped).
    pub(crate) fn new(text: &'a str) -> Reader<'a> {
        let mut reader = Reader {
            text,
            pos: 0,
            depth: 0,
        };
        reader.skip_ws();
        reader
    }

    /// Requires that nothing but whitespace follows the value read.
    pub(crate) fn finish(mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters after value"));
        }
        Ok(())
    }

    /// Reads the start of the value at the cursor. After [`Token::Arr`]
    /// or [`Token::Obj`] the caller walks the contents with
    /// [`Reader::items`] or [`Reader::members`], or hands the token to
    /// [`Reader::skip`].
    pub(crate) fn token(&mut self) -> Result<Token<'a>, ParseError> {
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Token::Null),
            Some(b't') => self.literal("true", Token::Bool(true)),
            Some(b'f') => self.literal("false", Token::Bool(false)),
            Some(b'"') => self.string().map(Token::Str),
            Some(b'[') => {
                self.pos += 1;
                Ok(Token::Arr)
            }
            Some(b'{') => {
                self.pos += 1;
                Ok(Token::Obj)
            }
            Some(b'-' | b'0'..=b'9') => self.number().map(Token::Num),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Reads one value whole and returns its token: a container is
    /// validated and skipped, and its opening token stands for it.
    pub(crate) fn value(&mut self) -> Result<Token<'a>, ParseError> {
        let token = self.token()?;
        if matches!(token, Token::Arr | Token::Obj) {
            self.skip(token.clone())?;
        }
        Ok(token)
    }

    /// Validates and discards the rest of the value `token` opened.
    pub(crate) fn skip(&mut self, token: Token<'a>) -> Result<(), ParseError> {
        match token {
            Token::Arr => self.items(|r| r.value().map(drop)),
            Token::Obj => self.members(|r, _| r.value().map(drop)),
            _ => Ok(()),
        }
    }

    /// Walks the array just opened: `item` is called at each item and
    /// must read it whole.
    pub(crate) fn items(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.contents(b']', |r| item(r))
    }

    /// Walks the object just opened: `member` is called with each key,
    /// the cursor at its value, and must read the value whole.
    pub(crate) fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.contents(b'}', |r| {
            let key = r.string()?;
            r.skip_ws();
            r.eat(b':')?;
            r.skip_ws();
            member(r, key)
        })
    }

    fn contents(
        &mut self,
        close: u8,
        mut each: impl FnMut(&mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        self.depth += 1;
        loop {
            self.skip_ws();
            each(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ if close == b']' => return Err(self.err("expected ',' or ']'")),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, expected: u8) -> Result<(), ParseError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", expected as char)))
        }
    }

    fn literal(&mut self, word: &str, token: Token<'a>) -> Result<Token<'a>, ParseError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(token)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    /// Moves the cursor past the bytes a string copies unchanged: up to
    /// its closing quote, an escape, a raw control character or the end.
    /// Each of those is ASCII, so the run ends on a `char` boundary.
    fn plain_run(&mut self) -> &'a str {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'"' || b == b'\\' || b < 0x20 {
                break;
            }
            self.pos += 1;
        }
        &self.text[start..self.pos]
    }

    /// Reads a string, borrowing it from the input when it holds no
    /// escape.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.eat(b'"')?;
        let run = self.plain_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(run));
        }
        let mut out = String::from(run);
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("bad low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.err("bad unicode escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    let run = self.plain_run();
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        if end > self.text.len() {
            return Err(self.err("truncated unicode escape"));
        }
        // The four bytes may split a multi-byte character: not hex either.
        let s = (self.text.get(self.pos..end)).ok_or_else(|| self.err("bad unicode escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad unicode escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<f64, ParseError> {
        let start = self.pos;
        let digits = |r: &mut Self| {
            while let Some(b'0'..=b'9') = r.peek() {
                r.pos += 1;
            }
        };
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        digits(self);
        if self.peek() == Some(b'.') {
            self.pos += 1;
            digits(self);
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            digits(self);
        }
        // Every byte scanned is ASCII, so the slice is on boundaries.
        let x: f64 = self.text[start..self.pos]
            .parse()
            .map_err(|_| self.err("bad number"))?;
        if !x.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for text in ["null", "true", "false", "0", "-4.25", "1e-300", "\"hi\""] {
            let v = Value::parse(text).unwrap();
            assert_eq!(Value::parse(&v.encode()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn numbers_round_trip_bit_exactly() {
        for x in [
            0.1,
            0.6,
            1.0 / 3.0,
            1e-300,
            -4.25,
            6.0e22,
            -0.0,
            9.007199254740992e15,
        ] {
            let v = Value::Num(x);
            let back = Value::parse(&v.encode()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x}");
        }
        // JSON has no non-finite numbers.
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Value::Num(x).encode(), "null");
        }
    }

    #[test]
    fn objects_preserve_field_order() {
        let v = Value::obj(vec![
            ("z", Value::num(1.0)),
            ("a", Value::Bool(true)),
            ("m", Value::Null),
        ]);
        assert_eq!(v.encode(), "{\"z\":1,\"a\":true,\"m\":null}");
        let parsed = Value::parse("{\"z\":1,\"a\":true,\"m\":null}").unwrap();
        assert_eq!(parsed, v);
        assert_eq!(parsed.get("a"), Some(&Value::Bool(true)));
        assert_eq!(parsed.get("missing"), None);
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "line\nbreak \"quoted\" tab\t back\\slash \u{1}";
        let v = Value::str(s);
        let encoded = v.encode();
        assert!(encoded.contains("\\n") && encoded.contains("\\u0001"));
        assert_eq!(Value::parse(&encoded).unwrap().as_str(), Some(s));
        // Unicode escapes, including surrogate pairs.
        assert_eq!(
            Value::parse("\"\\u00e9\\ud83d\\ude00\"").unwrap().as_str(),
            Some("é😀")
        );
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1}}",
            "\"\\ud800\"",
            "nan",
            "01a",
            "--1",
        ] {
            assert!(Value::parse(bad).is_err(), "{bad:?} should fail");
        }
        let deep = "[".repeat(64) + &"]".repeat(64);
        assert!(Value::parse(&deep).is_err());
    }

    #[test]
    fn integer_extraction_guards_precision_and_sign() {
        assert_eq!(Value::num(7.0).as_u64(), Some(7));
        assert_eq!(Value::num(-1.0).as_u64(), None);
        assert_eq!(Value::num(1.5).as_u64(), None);
        assert_eq!(Value::from_u64(123).as_u64(), Some(123));
        // Below 2^53 means below: 2^53 itself is also what 2^53 + 1
        // parses to, so admitting it would let two ids alias.
        assert_eq!(
            Value::num(9_007_199_254_740_991.0).as_u64(),
            Some(9_007_199_254_740_991)
        );
        assert_eq!(Value::num(9_007_199_254_740_992.0).as_u64(), None);
    }
}
