//! Minimal JSON value model, writer and parser.
//!
//! The workspace deliberately avoids a JSON dependency; this module provides
//! the small value model needed to export schedules and experiment tables
//! for external tooling, plus — since the campaign service speaks JSON over
//! HTTP — a strict recursive-descent parser ([`JsonValue::parse`]). Writer
//! and parser round-trip each other: `parse(v.to_json()) == v` for every
//! value the writer can produce (non-finite numbers serialise as `null`).

use std::collections::BTreeMap;
use std::fmt;

use crate::error::TraceError;

use tats_core::Schedule;
use tats_taskgraph::TaskGraph;

/// 2^53: every integer from 0 up to this one survives the round trip
/// through a JSON number (an `f64`) exactly, and 2^53 + 1 does not.
/// Integers a wire form carries, such as campaign seeds, must not exceed it.
pub const MAX_EXACT_INTEGER: u64 = 1 << 53;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values serialise as `null`).
    Number(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object with keys sorted for deterministic output.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Creates an object from key/value pairs.
    pub fn object<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (String, JsonValue)>,
    {
        JsonValue::Object(pairs.into_iter().collect())
    }

    /// Parses a JSON document. Strict: the whole input must be one value
    /// (plus surrounding whitespace); trailing content is an error.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Parse`] with the byte offset of the failure.
    ///
    /// # Examples
    ///
    /// ```
    /// use tats_trace::JsonValue;
    ///
    /// let value = JsonValue::parse("{\"id\": 3, \"key\": \"Bm1/platform/thermal/s0\"}").unwrap();
    /// assert_eq!(value.get("id").and_then(JsonValue::as_u64), Some(3));
    /// assert!(JsonValue::parse("{\"id\": 3").is_err()); // truncated
    /// ```
    pub fn parse(text: &str) -> Result<JsonValue, TraceError> {
        let mut parser = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_whitespace();
        let value = parser.value(0)?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(parser.error("trailing content after the JSON value"));
        }
        Ok(value)
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(value) => Some(*value),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integer no larger
    /// than [`MAX_EXACT_INTEGER`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(value)
                if *value >= 0.0 && value.fract() == 0.0 && *value <= MAX_EXACT_INTEGER as f64 =>
            {
                Some(*value as u64)
            }
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(value) => Some(value),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(value) => Some(*value),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Returns `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// The value of a key, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// A required object field. The `Err` of this and the other `field_*`
    /// accessors is a human-readable description naming the field, for
    /// callers (wire-protocol decoders) to wrap in their own error types.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing field.
    pub fn field<'v>(&'v self, name: &str) -> Result<&'v JsonValue, String> {
        self.get(name)
            .ok_or_else(|| format!("missing field '{name}'"))
    }

    /// A required string field.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn field_str(&self, name: &str) -> Result<&str, String> {
        self.field(name)?
            .as_str()
            .ok_or_else(|| format!("field '{name}' must be a string"))
    }

    /// A required non-negative integer field.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn field_u64(&self, name: &str) -> Result<u64, String> {
        self.field(name)?
            .as_u64()
            .ok_or_else(|| format!("field '{name}' must be a non-negative integer"))
    }

    /// A required numeric field.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn field_f64(&self, name: &str) -> Result<f64, String> {
        self.field(name)?
            .as_f64()
            .ok_or_else(|| format!("field '{name}' must be a number"))
    }

    /// A required boolean field.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn field_bool(&self, name: &str) -> Result<bool, String> {
        self.field(name)?
            .as_bool()
            .ok_or_else(|| format!("field '{name}' must be a boolean"))
    }

    /// A required array field.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or mistyped field.
    pub fn field_array(&self, name: &str) -> Result<&[JsonValue], String> {
        self.field(name)?
            .as_array()
            .ok_or_else(|| format!("field '{name}' must be an array"))
    }

    /// Serialises the value to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(value) => out.push_str(if *value { "true" } else { "false" }),
            JsonValue::Number(value) => {
                if value.is_finite() {
                    out.push_str(&format!("{value}"));
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::String(value) => write_json_string(out, value),
            JsonValue::Array(items) => {
                out.push('[');
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(map) => {
                out.push('{');
                for (index, (key, value)) in map.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    write_json_string(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `value` onto `out` as a JSON string literal — quotes plus the
/// exact escaping [`JsonValue::to_json`] uses. Public so hand-rolled
/// hot-path serializers (the span wire format) stay byte-compatible with
/// the tree serializer without building a [`JsonValue`] first.
pub fn write_json_string(out: &mut String, value: &str) {
    out.push('"');
    for ch in value.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

/// Nesting depth beyond which the parser refuses to recurse (a hostile
/// `[[[[...` would otherwise overflow the stack).
const MAX_PARSE_DEPTH: usize = 128;

/// Strict recursive-descent JSON parser over the input bytes. `text` is
/// the same input as a `&str`: scanning happens on `bytes`, while string
/// content is copied via `&text[pos..]` slices — the parser only lands on
/// `pos` values that are char boundaries, so slicing is safe and each
/// character costs O(1) (no re-validation of the remaining input).
struct Parser<'t> {
    text: &'t str,
    bytes: &'t [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> TraceError {
        TraceError::Parse {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes a literal keyword (`null`, `true`, `false`).
    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, TraceError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, TraceError> {
        if depth > MAX_PARSE_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object_value(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected byte 0x{other:02x}"))),
        }
    }

    fn number(&mut self) -> Result<JsonValue, TraceError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        match text.parse::<f64>() {
            Ok(value) if value.is_finite() => Ok(JsonValue::Number(value)),
            _ => Err(self.error(format!("malformed number '{text}'"))),
        }
    }

    fn string(&mut self) -> Result<String, TraceError> {
        debug_assert_eq!(self.peek(), Some(b'"'));
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self.peek().ok_or_else(|| self.error("dangling escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            self.pos -= 1;
                            return Err(self.error(format!("unknown escape '\\{}'", other as char)));
                        }
                    }
                }
                Some(byte) if byte < 0x20 => {
                    return Err(self.error("unescaped control character in string"))
                }
                Some(_) => {
                    // Copy the longest run of plain characters in one slice
                    // (every `pos` this loop produces is a char boundary of
                    // `text`, so indexing cannot panic).
                    let start = self.pos;
                    while matches!(self.peek(), Some(byte) if byte != b'"' && byte != b'\\' && byte >= 0x20)
                    {
                        self.pos += 1;
                        while !self.text.is_char_boundary(self.pos) {
                            self.pos += 1;
                        }
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// Parses the 4 hex digits of a `\uXXXX` escape (the `\u` is already
    /// consumed), combining UTF-16 surrogate pairs.
    fn unicode_escape(&mut self) -> Result<char, TraceError> {
        let high = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&high) {
            // High surrogate: a low surrogate escape must follow.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xDC00..0xE000).contains(&low) {
                    return Err(self.error("expected a low surrogate"));
                }
                0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00)
            } else {
                return Err(self.error("unpaired surrogate"));
            }
        } else if (0xDC00..0xE000).contains(&high) {
            return Err(self.error("unpaired low surrogate"));
        } else {
            high
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, TraceError> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|slice| std::str::from_utf8(slice).ok())
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let code = u32::from_str_radix(digits, 16)
            .map_err(|_| self.error(format!("bad hex digits '{digits}'")))?;
        self.pos += 4;
        Ok(code)
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, TraceError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object_value(&mut self, depth: usize) -> Result<JsonValue, TraceError> {
        self.pos += 1; // '{'
        let mut map = BTreeMap::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_whitespace();
            if self.peek() != Some(b'"') {
                return Err(self.error("expected a string key"));
            }
            let key = self.string()?;
            self.skip_whitespace();
            if self.peek() != Some(b':') {
                return Err(self.error("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_whitespace();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }
}

impl From<&str> for JsonValue {
    fn from(value: &str) -> Self {
        JsonValue::String(value.to_string())
    }
}

impl From<f64> for JsonValue {
    fn from(value: f64) -> Self {
        JsonValue::Number(value)
    }
}

impl From<bool> for JsonValue {
    fn from(value: bool) -> Self {
        JsonValue::Bool(value)
    }
}

impl From<usize> for JsonValue {
    fn from(value: usize) -> Self {
        JsonValue::Number(value as f64)
    }
}

/// Exports a schedule as a JSON object with per-assignment records and
/// summary metrics.
pub fn schedule_to_json(schedule: &Schedule, graph: Option<&TaskGraph>) -> JsonValue {
    let assignments: Vec<JsonValue> = schedule
        .assignments()
        .iter()
        .map(|assignment| {
            let name = graph
                .and_then(|g| g.get_task(assignment.task))
                .map(|task| task.name().to_string())
                .unwrap_or_else(|| format!("t{}", assignment.task.index()));
            JsonValue::object(vec![
                ("task".to_string(), JsonValue::from(assignment.task.index())),
                ("name".to_string(), JsonValue::from(name.as_str())),
                ("pe".to_string(), JsonValue::from(assignment.pe.index())),
                ("start".to_string(), JsonValue::from(assignment.start)),
                ("end".to_string(), JsonValue::from(assignment.end)),
                ("power".to_string(), JsonValue::from(assignment.power)),
            ])
        })
        .collect();
    JsonValue::object(vec![
        ("deadline".to_string(), JsonValue::from(schedule.deadline())),
        ("makespan".to_string(), JsonValue::from(schedule.makespan())),
        (
            "meets_deadline".to_string(),
            JsonValue::from(schedule.meets_deadline()),
        ),
        ("pe_count".to_string(), JsonValue::from(schedule.pe_count())),
        ("assignments".to_string(), JsonValue::Array(assignments)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tats_core::{PlatformFlow, Policy};
    use tats_taskgraph::Benchmark;
    use tats_techlib::profiles;

    #[test]
    fn scalar_values_serialise_correctly() {
        assert_eq!(JsonValue::Null.to_json(), "null");
        assert_eq!(JsonValue::Bool(true).to_json(), "true");
        assert_eq!(JsonValue::Number(2.5).to_json(), "2.5");
        assert_eq!(JsonValue::Number(f64::NAN).to_json(), "null");
        assert_eq!(JsonValue::from("hi").to_json(), "\"hi\"");
    }

    #[test]
    fn strings_are_escaped() {
        let value = JsonValue::from("line\n\"quoted\"\\slash");
        assert_eq!(value.to_json(), "\"line\\n\\\"quoted\\\"\\\\slash\"");
        let control = JsonValue::from("\u{1}");
        assert_eq!(control.to_json(), "\"\\u0001\"");
    }

    #[test]
    fn arrays_and_objects_nest() {
        let value = JsonValue::object(vec![
            (
                "b".to_string(),
                JsonValue::Array(vec![1.0.into(), 2.0.into()]),
            ),
            ("a".to_string(), JsonValue::from(true)),
        ]);
        // Keys are sorted for deterministic output.
        assert_eq!(value.to_json(), "{\"a\":true,\"b\":[1,2]}");
        assert_eq!(value.to_string(), value.to_json());
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let value = JsonValue::object(vec![
            ("id".to_string(), JsonValue::from(42usize)),
            (
                "key".to_string(),
                JsonValue::from("Bm1/platform/thermal/s0"),
            ),
            ("temp".to_string(), JsonValue::from(81.25)),
            ("ok".to_string(), JsonValue::from(true)),
            ("none".to_string(), JsonValue::Null),
            (
                "list".to_string(),
                JsonValue::Array(vec![1.0.into(), JsonValue::from("x")]),
            ),
        ]);
        let parsed = JsonValue::parse(&value.to_json()).expect("round trip");
        assert_eq!(parsed, value);
    }

    #[test]
    fn parse_handles_whitespace_escapes_and_nesting() {
        let value = JsonValue::parse(
            " { \"a\" : [ 1 , -2.5e1 , \"q\\\"\\\\\\n\\u0041\\ud83d\\ude00\" ] , \"b\" : { } } ",
        )
        .expect("parse");
        let items = value.get("a").and_then(JsonValue::as_array).expect("array");
        assert_eq!(items[0].as_f64(), Some(1.0));
        assert_eq!(items[1].as_f64(), Some(-25.0));
        assert_eq!(items[2].as_str(), Some("q\"\\\nA😀"));
        assert_eq!(value.get("b"), Some(&JsonValue::Object(BTreeMap::new())));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1 2]",
            "tru",
            "\"unterminated",
            "\"bad\\q\"",
            "\"\\ud800\"",
            "01x",
            "{\"a\":1} trailing",
            "nan",
            "{1: 2}",
        ] {
            let error = JsonValue::parse(bad).expect_err(bad);
            assert!(
                matches!(error, TraceError::Parse { .. }),
                "{bad}: {error:?}"
            );
            assert!(error.to_string().contains("invalid JSON"), "{bad}");
        }
        // Unbounded nesting is refused, not a stack overflow.
        let deep = "[".repeat(100_000);
        assert!(JsonValue::parse(&deep).is_err());
    }

    #[test]
    fn accessors_discriminate_types() {
        let value =
            JsonValue::parse("{\"n\": 3, \"s\": \"x\", \"b\": false, \"z\": null}").unwrap();
        assert_eq!(value.get("n").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(value.get("n").and_then(JsonValue::as_f64), Some(3.0));
        assert_eq!(value.get("s").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(value.get("b").and_then(JsonValue::as_bool), Some(false));
        assert!(value.get("z").is_some_and(JsonValue::is_null));
        assert!(value.get("missing").is_none());
        assert_eq!(JsonValue::Number(-1.0).as_u64(), None);
        assert_eq!(JsonValue::Number(1.5).as_u64(), None);
        assert_eq!(JsonValue::from("x").as_u64(), None);
        assert!(value.as_array().is_none());
        assert!(JsonValue::Null.get("x").is_none());
    }

    #[test]
    fn field_accessors_name_the_field_in_errors() {
        let value =
            JsonValue::parse("{\"n\": 3, \"s\": \"x\", \"b\": false, \"a\": [1], \"f\": 2.5}")
                .unwrap();
        assert_eq!(value.field_u64("n"), Ok(3));
        assert_eq!(value.field_f64("f"), Ok(2.5));
        assert_eq!(value.field_str("s"), Ok("x"));
        assert_eq!(value.field_bool("b"), Ok(false));
        assert_eq!(value.field_array("a").unwrap().len(), 1);
        assert!(value.field("zzz").unwrap_err().contains("'zzz'"));
        assert!(value.field_str("n").unwrap_err().contains("'n'"));
        assert!(value.field_u64("s").unwrap_err().contains("'s'"));
        assert!(value.field_bool("a").unwrap_err().contains("'a'"));
        assert!(value.field_array("f").unwrap_err().contains("'f'"));
        assert!(value.field_f64("missing").unwrap_err().contains("missing"));
    }

    #[test]
    fn long_and_multibyte_strings_parse_in_linear_time() {
        // A megabyte-scale string with multi-byte characters sprinkled in:
        // regression guard for the once-quadratic string scan (this parses
        // in milliseconds now; the quadratic version took minutes).
        let payload = "héllo wörld 😀 ".repeat(40_000);
        let doc =
            JsonValue::object(vec![("s".to_string(), JsonValue::from(payload.as_str()))]).to_json();
        let start = std::time::Instant::now();
        let parsed = JsonValue::parse(&doc).expect("parse");
        assert!(
            start.elapsed().as_secs_f64() < 2.0,
            "string scan is not linear"
        );
        assert_eq!(parsed.field_str("s"), Ok(payload.as_str()));
    }

    #[test]
    fn schedule_export_contains_every_assignment() {
        let library = profiles::standard_library(12).expect("library");
        let graph = Benchmark::Bm1.task_graph().expect("graph");
        let result = PlatformFlow::new(&library)
            .expect("flow")
            .run(&graph, Policy::Baseline)
            .expect("result");
        let json = schedule_to_json(&result.schedule, Some(&graph)).to_json();
        assert!(json.contains("\"assignments\":["));
        assert_eq!(
            json.matches("\"task\":").count(),
            result.schedule.task_count()
        );
        // The summary fields parse back to the schedule's own values.
        let parsed = JsonValue::parse(&json).expect("parse");
        assert_eq!(parsed.field_f64("makespan"), Ok(result.schedule.makespan()));
        assert_eq!(parsed.field_bool("meets_deadline"), Ok(true));
    }
}
