//! Structured span events: the distributed-tracing layer of the campaign
//! service.
//!
//! Where [`crate::metrics`] answers "how many / how fast on average", spans
//! answer "where did *this* job's wall-clock go": every interesting interval
//! (an HTTP request, a registry transition, a leased shard, one scenario,
//! one flow phase) becomes a [`SpanEvent`] with a trace id shared by the
//! whole campaign, a parent link, and microsecond start/end timestamps.
//! Reassembled into a [`SpanForest`], the events yield the campaign
//! critical path, per-phase breakdowns and a Chrome trace-event timeline
//! ([`chrome_trace`]) loadable in `chrome://tracing` / Perfetto.
//!
//! # Span schema
//!
//! One JSONL object per span, keys sorted, written through the same
//! crash-repaired [`crate::jsonl`] path as campaign records:
//!
//! | field       | type   | meaning                                             |
//! |-------------|--------|-----------------------------------------------------|
//! | `trace_id`  | string | 16-hex-digit campaign trace id, shared end-to-end   |
//! | `span_id`   | string | 16-hex-digit unique span id (never zero)            |
//! | `parent_id` | string | parent span id, `""` for a root span                |
//! | `name`      | string | what the interval is (`submit`, `lease`, `scenario`, `thermal`, ...) |
//! | `kind`      | string | `client` \| `server` \| `worker` \| `internal`      |
//! | `start_us`  | number | start, µs since the Unix epoch                      |
//! | `end_us`    | number | end, µs since the Unix epoch (`>= start_us`)        |
//! | `attrs`     | object | string key-value attributes (`benchmark`, `policy`, `shard`, `worker`, ...) |
//!
//! # Determinism
//!
//! Ids come from [`SpanIdGen`], a seeded splitmix64 sequence (the same
//! mixer the service uses for retry jitter), or from the stateless
//! [`SpanIdGen::derive`] for ids that must not depend on thread
//! interleaving (a scenario's span id is derived from the trace id and the
//! scenario id, so a re-run after a crash reproduces it exactly). Tests pin
//! exact trace trees by seeding the generator.
//!
//! # Examples
//!
//! ```
//! use tats_trace::spans::{SpanEvent, SpanForest, SpanIdGen, SpanKind};
//!
//! let mut ids = SpanIdGen::seeded(7);
//! let trace = ids.next_id();
//! let root = SpanEvent::new(trace, ids.next_id(), None, "submit", SpanKind::Server, 0, 50);
//! let child = SpanEvent::new(trace, ids.next_id(), Some(root.span_id), "lease", SpanKind::Server, 10, 40);
//! let line = child.to_line();
//! assert_eq!(SpanEvent::parse_line(&line).unwrap(), child);
//!
//! let forest = SpanForest::build(vec![root, child]);
//! assert_eq!(forest.wall_us(), 50);
//! assert_eq!(forest.critical_path().len(), 2);
//! ```

use std::collections::{BTreeMap, HashMap};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::{self, JsonValue};
use crate::jsonl;

/// Who measured the interval: which side of the wire the span lives on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// The submitting client (`tats submit`).
    Client,
    /// The campaign server (request handling, registry transitions).
    Server,
    /// A fleet worker (shard, scenario and phase spans).
    Worker,
    /// Library-internal work not attributable to a wire side.
    Internal,
}

impl SpanKind {
    /// The wire name of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Client => "client",
            SpanKind::Server => "server",
            SpanKind::Worker => "worker",
            SpanKind::Internal => "internal",
        }
    }

    /// Parses a wire name back into a kind.
    pub fn parse(text: &str) -> Option<SpanKind> {
        match text {
            "client" => Some(SpanKind::Client),
            "server" => Some(SpanKind::Server),
            "worker" => Some(SpanKind::Worker),
            "internal" => Some(SpanKind::Internal),
            _ => None,
        }
    }
}

/// Formats a span or trace id as the 16-hex-digit wire string.
pub fn id_hex(id: u64) -> String {
    format!("{id:016x}")
}

/// The wire form of an id that may be absent: [`id_hex`], or the empty
/// string for `0`, which [`parse_id`] reads back as absent.
pub fn id_hex_or_empty(id: u64) -> String {
    if id == 0 {
        String::new()
    } else {
        id_hex(id)
    }
}

/// Parses a 16-hex-digit wire id. Returns `None` for the empty string
/// (the "no parent" marker), zero, or malformed input.
pub fn parse_id(text: &str) -> Option<u64> {
    if text.is_empty() || text.len() > 16 {
        return None;
    }
    match u64::from_str_radix(text, 16) {
        Ok(0) => None,
        Ok(id) => Some(id),
        Err(_) => None,
    }
}

/// Microseconds since the Unix epoch right now — the clock every span in
/// the workspace stamps its start/end with.
pub fn now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|elapsed| elapsed.as_micros() as u64)
        .unwrap_or(0)
}

/// One completed interval of a distributed trace. See the module docs for
/// the JSONL schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Campaign-wide trace id (never zero).
    pub trace_id: u64,
    /// Unique id of this span (never zero).
    pub span_id: u64,
    /// Parent span id; `None` for a root span.
    pub parent_id: Option<u64>,
    /// What the interval is: `submit`, `lease`, `ingest`, `done`, `shard`,
    /// `scenario`, `scheduling`, `thermal`, `floorplan`, `grid`, ...
    pub name: String,
    /// Which side measured it.
    pub kind: SpanKind,
    /// Start, µs since the Unix epoch.
    pub start_us: u64,
    /// End, µs since the Unix epoch (`>= start_us`).
    pub end_us: u64,
    /// String key-value attributes (`benchmark`, `policy`, `shard`, ...).
    pub attrs: BTreeMap<String, String>,
}

impl SpanEvent {
    /// Creates a span with no attributes (add them via [`SpanEvent::attr`]).
    pub fn new(
        trace_id: u64,
        span_id: u64,
        parent_id: Option<u64>,
        name: &str,
        kind: SpanKind,
        start_us: u64,
        end_us: u64,
    ) -> Self {
        SpanEvent {
            trace_id,
            span_id,
            parent_id,
            name: name.to_string(),
            kind,
            start_us,
            end_us: end_us.max(start_us),
            attrs: BTreeMap::new(),
        }
    }

    /// Builder-style attribute: returns the span with `key = value` set.
    #[must_use]
    pub fn attr(mut self, key: &str, value: impl Into<String>) -> Self {
        self.attrs.insert(key.to_string(), value.into());
        self
    }

    /// The interval length in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Serialises the span as a [`JsonValue`] object (sorted keys).
    pub fn to_json(&self) -> JsonValue {
        let attrs = self
            .attrs
            .iter()
            .map(|(key, value)| (key.clone(), JsonValue::from(value.as_str())));
        JsonValue::object(vec![
            (
                "trace_id".to_string(),
                JsonValue::from(id_hex(self.trace_id).as_str()),
            ),
            (
                "span_id".to_string(),
                JsonValue::from(id_hex(self.span_id).as_str()),
            ),
            (
                "parent_id".to_string(),
                JsonValue::from(self.parent_id.map(id_hex).unwrap_or_default().as_str()),
            ),
            ("name".to_string(), JsonValue::from(self.name.as_str())),
            ("kind".to_string(), JsonValue::from(self.kind.as_str())),
            (
                "start_us".to_string(),
                JsonValue::Number(self.start_us as f64),
            ),
            ("end_us".to_string(), JsonValue::Number(self.end_us as f64)),
            ("attrs".to_string(), JsonValue::object(attrs)),
        ])
    }

    /// Serialises the span as one JSONL line (no trailing newline).
    ///
    /// Hand-rolled but byte-identical to `self.to_json().to_json()` (the
    /// sorted-key object form) — this runs once per span on the worker's
    /// record-post hot path, where building the [`JsonValue`] tree first
    /// costs ~20 allocations per span.
    pub fn to_line(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(192 + 24 * self.attrs.len());
        write_attrs(&mut out, &self.attrs);
        let _ = write!(out, ",\"end_us\":{}", self.end_us);
        out.push_str(",\"kind\":\"");
        out.push_str(self.kind.as_str());
        out.push_str("\",\"name\":");
        json::write_json_string(&mut out, &self.name);
        match self.parent_id {
            // Hex ids never need escaping.
            Some(parent) => {
                let _ = write!(out, ",\"parent_id\":\"{parent:016x}\"");
            }
            None => out.push_str(",\"parent_id\":\"\""),
        }
        let _ = write!(
            out,
            ",\"span_id\":\"{:016x}\",\"start_us\":{},\"trace_id\":\"{:016x}\"}}",
            self.span_id, self.start_us, self.trace_id
        );
        out
    }

    /// Decodes a span from a parsed JSON object.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the missing or malformed
    /// field, in the style of the other wire decoders.
    pub fn from_json(value: &JsonValue) -> Result<SpanEvent, String> {
        let trace_id = parse_id(value.field_str("trace_id")?)
            .ok_or_else(|| "field 'trace_id' must be a nonzero hex id".to_string())?;
        let span_id = parse_id(value.field_str("span_id")?)
            .ok_or_else(|| "field 'span_id' must be a nonzero hex id".to_string())?;
        let parent_text = value.field_str("parent_id")?;
        let parent_id = if parent_text.is_empty() {
            None
        } else {
            Some(
                parse_id(parent_text)
                    .ok_or_else(|| "field 'parent_id' must be a hex id or empty".to_string())?,
            )
        };
        let kind = SpanKind::parse(value.field_str("kind")?)
            .ok_or_else(|| "field 'kind' must be client|server|worker|internal".to_string())?;
        let start_us = value.field_u64("start_us")?;
        let end_us = value.field_u64("end_us")?;
        if end_us < start_us {
            return Err("field 'end_us' must be >= 'start_us'".to_string());
        }
        Ok(SpanEvent {
            trace_id,
            span_id,
            parent_id,
            name: value.field_str("name")?.to_string(),
            kind,
            start_us,
            end_us,
            attrs: attrs_from_json(value)?,
        })
    }

    /// Decodes a span from one JSONL line.
    ///
    /// Lines in the exact canonical [`SpanEvent::to_line`] layout take a
    /// byte-level fast path (~5x cheaper than the JSON tree parser — this
    /// runs per span on the server's ingest hot path); anything else falls
    /// back to the full parser, so arbitrary-JSON span lines still decode.
    ///
    /// # Errors
    ///
    /// As [`SpanEvent::from_json`], plus JSON parse failures.
    pub fn parse_line(line: &str) -> Result<SpanEvent, String> {
        if let Some(span) = SpanEvent::parse_canonical(line) {
            return Ok(span);
        }
        let value = JsonValue::parse(line).map_err(|e| e.to_string())?;
        SpanEvent::from_json(&value)
    }

    /// The [`SpanEvent::parse_line`] fast path: decodes the exact canonical
    /// layout `to_line` emits (sorted keys, no string escapes). Any
    /// deviation — including semantically invalid spans, which the slow
    /// path rejects with a field-naming error — returns `None`.
    fn parse_canonical(line: &str) -> Option<SpanEvent> {
        let mut attrs = BTreeMap::new();
        let raw = scan_canonical(line, |key, value| {
            attrs.insert(key.to_string(), value.to_string());
        })?;
        Some(SpanEvent {
            trace_id: raw.trace_id,
            span_id: raw.span_id,
            parent_id: raw.parent_id,
            name: raw.name.to_string(),
            kind: raw.kind,
            start_us: raw.start_us,
            end_us: raw.end_us,
            attrs,
        })
    }

    /// Validates a canonical span line without building the event, returning
    /// its `(trace_id, span_id)`. `None` for anything that is not a valid
    /// span in the exact [`SpanEvent::to_line`] layout — the zero-allocation
    /// check the server's ingest hot path runs per piggybacked span line
    /// before storing it verbatim.
    pub fn canonical_ids(line: &str) -> Option<(u64, u64)> {
        scan_canonical(line, |_, _| ()).map(|raw| (raw.trace_id, raw.span_id))
    }

    /// `true` if a JSONL line looks like a span record (has the id fields),
    /// without fully parsing it — how mixed record/span streams are
    /// partitioned.
    pub fn is_span_line(line: &str) -> bool {
        jsonl::line_str_field(line, "span_id").is_some()
            && jsonl::line_str_field(line, "trace_id").is_some()
    }
}

/// Opens a canonical span or log line with its `{"attrs":{…}` object:
/// string attributes in key order, escaped as [`JsonValue::to_json`] does.
pub(crate) fn write_attrs(out: &mut String, attrs: &BTreeMap<String, String>) {
    out.push_str("{\"attrs\":{");
    for (index, (key, value)) in attrs.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        json::write_json_string(out, key);
        out.push(':');
        json::write_json_string(out, value);
    }
    out.push('}');
}

/// Decodes the `attrs` field of a span or log object: string values only.
pub(crate) fn attrs_from_json(value: &JsonValue) -> Result<BTreeMap<String, String>, String> {
    match value.field("attrs")? {
        JsonValue::Object(map) => map
            .iter()
            .map(|(key, item)| match item.as_str() {
                Some(text) => Ok((key.clone(), text.to_string())),
                None => Err(format!("attr '{key}' must be a string")),
            })
            .collect(),
        _ => Err("field 'attrs' must be an object".to_string()),
    }
}

/// A canonical span line's fields, borrowed from the line (attrs are
/// streamed to the `scan_canonical` caller instead).
struct RawSpan<'t> {
    trace_id: u64,
    span_id: u64,
    parent_id: Option<u64>,
    name: &'t str,
    kind: SpanKind,
    start_us: u64,
    end_us: u64,
}

/// Scans the exact canonical layout [`SpanEvent::to_line`] emits (sorted
/// keys, no string escapes), handing each attr pair to `on_attr` as it
/// passes. Returns `None` on any deviation, including semantic invalidity
/// (zero ids, `end_us < start_us`) — callers that need an error message
/// fall back to the full JSON parser.
fn scan_canonical<'t>(
    line: &'t str,
    mut on_attr: impl FnMut(&'t str, &'t str),
) -> Option<RawSpan<'t>> {
    let mut scan = Scan::new(line);
    scan.attrs(&mut on_attr)?;
    scan.expect(b",\"end_us\":")?;
    let end_us = scan.number()?;
    scan.expect(b",\"kind\":")?;
    let kind = SpanKind::parse(scan.plain_string()?)?;
    scan.expect(b",\"name\":")?;
    let name = scan.plain_string()?;
    scan.expect(b",\"parent_id\":")?;
    let parent_text = scan.plain_string()?;
    let parent_id = if parent_text.is_empty() {
        None
    } else {
        Some(parse_id(parent_text)?)
    };
    scan.expect(b",\"span_id\":")?;
    let span_id = parse_id(scan.plain_string()?)?;
    scan.expect(b",\"start_us\":")?;
    let start_us = scan.number()?;
    scan.expect(b",\"trace_id\":")?;
    let trace_id = parse_id(scan.plain_string()?)?;
    scan.expect(b"}")?;
    if !scan.at_end() || end_us < start_us {
        return None;
    }
    Some(RawSpan {
        trace_id,
        span_id,
        parent_id,
        name,
        kind,
        start_us,
        end_us,
    })
}

/// Byte cursor for canonical-layout scanners ([`scan_canonical`] here, the
/// log-line fast path in [`crate::log`]): every method returns `None` on
/// the first deviation from the canonical layout, sending the caller to
/// the full JSON parser.
pub(crate) struct Scan<'t> {
    text: &'t str,
    bytes: &'t [u8],
    pos: usize,
}

impl<'t> Scan<'t> {
    pub(crate) fn new(line: &'t str) -> Self {
        Scan {
            text: line,
            bytes: line.as_bytes(),
            pos: 0,
        }
    }

    /// `true` once the whole line has been consumed.
    pub(crate) fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    pub(crate) fn expect(&mut self, token: &[u8]) -> Option<()> {
        if self.bytes[self.pos..].starts_with(token) {
            self.pos += token.len();
            Some(())
        } else {
            None
        }
    }

    /// A quoted string with no escapes (scanning for the closing `"` byte
    /// is UTF-8 safe: 0x22 never occurs in a continuation byte). A
    /// backslash or control character bails to the slow path, which
    /// unescapes properly.
    pub(crate) fn plain_string(&mut self) -> Option<&'t str> {
        self.expect(b"\"")?;
        let start = self.pos;
        while let Some(&byte) = self.bytes.get(self.pos) {
            match byte {
                b'"' => {
                    let content = &self.text[start..self.pos];
                    self.pos += 1;
                    return Some(content);
                }
                b'\\' => return None,
                byte if byte < 0x20 => return None,
                _ => self.pos += 1,
            }
        }
        None
    }

    /// The leading `{"attrs":{…}` object of a canonical span or log line,
    /// handing each key-value pair to `on_attr`.
    pub(crate) fn attrs(&mut self, mut on_attr: impl FnMut(&'t str, &'t str)) -> Option<()> {
        self.expect(b"{\"attrs\":{")?;
        if self.expect(b"}").is_some() {
            return Some(());
        }
        loop {
            let key = self.plain_string()?;
            self.expect(b":")?;
            on_attr(key, self.plain_string()?);
            if self.expect(b",").is_none() {
                return self.expect(b"}");
            }
        }
    }

    /// A plain unsigned decimal (the only number shape `to_line` emits).
    pub(crate) fn number(&mut self) -> Option<u64> {
        let start = self.pos;
        let mut value = 0u64;
        while let Some(&byte) = self.bytes.get(self.pos) {
            if !byte.is_ascii_digit() {
                break;
            }
            value = value.checked_mul(10)?.checked_add(u64::from(byte - b'0'))?;
            self.pos += 1;
        }
        (self.pos > start).then_some(value)
    }
}

/// The splitmix64 mixing function — the workspace's standard cheap 64-bit
/// hash (the retry-jitter code uses the same constants).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic trace/span id generator: a seeded splitmix64 sequence.
/// Never yields zero (the wire's "absent" marker).
#[derive(Debug, Clone)]
pub struct SpanIdGen {
    state: u64,
}

impl SpanIdGen {
    /// A generator whose id sequence is a pure function of `seed`.
    pub fn seeded(seed: u64) -> Self {
        SpanIdGen { state: seed }
    }

    /// The next id in the sequence.
    pub fn next_id(&mut self) -> u64 {
        loop {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let id = splitmix64(self.state);
            if id != 0 {
                return id;
            }
        }
    }

    /// A stateless id: a pure function of `(seed, tag)`. Used where the id
    /// must not depend on generation order — e.g. a scenario span id is
    /// `derive(trace_id ^ scenario_id, "scenario")`, identical no matter
    /// which worker thread runs the scenario or whether it re-runs after a
    /// crash.
    pub fn derive(seed: u64, tag: &str) -> u64 {
        let mixed = tag.bytes().fold(splitmix64(seed), |acc, byte| {
            splitmix64(acc ^ u64::from(byte))
        });
        if mixed == 0 {
            1
        } else {
            mixed
        }
    }
}

/// A parsed span stream reassembled into parent/child trees, ready for
/// critical-path and timeline analysis.
#[derive(Debug)]
pub struct SpanForest {
    spans: Vec<SpanEvent>,
    children: HashMap<u64, Vec<usize>>,
    roots: Vec<usize>,
}

impl SpanForest {
    /// Builds the forest. A span whose parent id is absent from the stream
    /// (e.g. the parent's batch was lost in a crash) is treated as a root,
    /// so analysis degrades gracefully instead of dropping subtrees.
    pub fn build(mut spans: Vec<SpanEvent>) -> SpanForest {
        spans.sort_by(|a, b| {
            (a.start_us, a.end_us, a.span_id).cmp(&(b.start_us, b.end_us, b.span_id))
        });
        let present: HashMap<u64, usize> = spans
            .iter()
            .enumerate()
            .map(|(index, span)| (span.span_id, index))
            .collect();
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut roots = Vec::new();
        for (index, span) in spans.iter().enumerate() {
            match span.parent_id {
                Some(parent) if present.contains_key(&parent) => {
                    children.entry(parent).or_default().push(index);
                }
                _ => roots.push(index),
            }
        }
        SpanForest {
            spans,
            children,
            roots,
        }
    }

    /// Every span, sorted by `(start_us, end_us, span_id)`.
    pub fn spans(&self) -> &[SpanEvent] {
        &self.spans
    }

    /// Number of spans in the forest.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` when the forest holds no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The root spans, in start order.
    pub fn roots(&self) -> impl Iterator<Item = &SpanEvent> {
        self.roots.iter().map(|&index| &self.spans[index])
    }

    /// The direct children of a span, in start order.
    pub fn children_of(&self, span_id: u64) -> impl Iterator<Item = &SpanEvent> {
        self.children
            .get(&span_id)
            .map(|indices| indices.as_slice())
            .unwrap_or(&[])
            .iter()
            .map(|&index| &self.spans[index])
    }

    /// Total wall-clock covered by the forest: latest end minus earliest
    /// start, in µs. Zero when empty.
    pub fn wall_us(&self) -> u64 {
        let start = self.spans.iter().map(|span| span.start_us).min();
        let end = self.spans.iter().map(|span| span.end_us).max();
        match (start, end) {
            (Some(start), Some(end)) => end.saturating_sub(start),
            _ => 0,
        }
    }

    /// The critical path: starting from the latest-ending root, repeatedly
    /// descend into the latest-ending child — the chain of spans that had
    /// to finish for the trace to finish. Ties break on span id so the
    /// path is deterministic.
    pub fn critical_path(&self) -> Vec<&SpanEvent> {
        let mut path = Vec::new();
        let Some(mut current) = self.roots().max_by_key(|span| (span.end_us, span.span_id)) else {
            return path;
        };
        loop {
            path.push(current);
            match self
                .children_of(current.span_id)
                .max_by_key(|span| (span.end_us, span.span_id))
            {
                Some(child) => current = child,
                None => return path,
            }
        }
    }

    /// Sums `duration_us` over spans selected by `filter` — the building
    /// block of per-phase and per-axis breakdowns.
    pub fn total_us_where(&self, mut filter: impl FnMut(&SpanEvent) -> bool) -> u64 {
        self.spans
            .iter()
            .filter(|span| filter(span))
            .map(SpanEvent::duration_us)
            .sum()
    }
}

/// Exports spans as Chrome trace-event JSON (the `chrome://tracing` /
/// Perfetto "JSON Array Format"): one complete (`"ph":"X"`) event per
/// span, one track (`tid`) per worker — spans carrying a `worker`
/// attribute share that worker's track, client spans get a `client`
/// track, everything else lands on the `service` track — plus
/// `thread_name` metadata events naming the tracks. Timestamps are the
/// spans' absolute microseconds; Perfetto normalises the origin itself.
pub fn chrome_trace(spans: &[SpanEvent]) -> JsonValue {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by(|&a, &b| {
        (spans[a].start_us, spans[a].span_id).cmp(&(spans[b].start_us, spans[b].span_id))
    });
    let mut tids: BTreeMap<String, usize> = BTreeMap::new();
    let mut track_of = |span: &SpanEvent| -> (String, usize) {
        let track = match span.attrs.get("worker") {
            Some(worker) => format!("worker {worker}"),
            None if span.kind == SpanKind::Client => "client".to_string(),
            None => "service".to_string(),
        };
        let next = tids.len();
        let tid = *tids.entry(track.clone()).or_insert(next);
        (track, tid)
    };
    let mut events = Vec::new();
    let mut named = std::collections::BTreeSet::new();
    for &index in &order {
        let span = &spans[index];
        let (track, tid) = track_of(span);
        if named.insert(tid) {
            events.push(JsonValue::object(vec![
                ("ph".to_string(), JsonValue::from("M")),
                ("name".to_string(), JsonValue::from("thread_name")),
                ("pid".to_string(), JsonValue::from(1usize)),
                ("tid".to_string(), JsonValue::from(tid)),
                (
                    "args".to_string(),
                    JsonValue::object(vec![("name".to_string(), JsonValue::from(track.as_str()))]),
                ),
            ]));
        }
        let mut args: Vec<(String, JsonValue)> = span
            .attrs
            .iter()
            .map(|(key, value)| (key.clone(), JsonValue::from(value.as_str())))
            .collect();
        args.push((
            "trace_id".to_string(),
            JsonValue::from(id_hex(span.trace_id).as_str()),
        ));
        args.push((
            "span_id".to_string(),
            JsonValue::from(id_hex(span.span_id).as_str()),
        ));
        events.push(JsonValue::object(vec![
            ("ph".to_string(), JsonValue::from("X")),
            ("name".to_string(), JsonValue::from(span.name.as_str())),
            ("cat".to_string(), JsonValue::from(span.kind.as_str())),
            ("ts".to_string(), JsonValue::Number(span.start_us as f64)),
            (
                "dur".to_string(),
                JsonValue::Number(span.duration_us() as f64),
            ),
            ("pid".to_string(), JsonValue::from(1usize)),
            ("tid".to_string(), JsonValue::from(tid)),
            ("args".to_string(), JsonValue::object(args)),
        ]));
    }
    JsonValue::object(vec![
        ("displayTimeUnit".to_string(), JsonValue::from("ms")),
        ("traceEvents".to_string(), JsonValue::Array(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, parent: Option<u64>, start: u64, end: u64) -> SpanEvent {
        SpanEvent::new(trace, id, parent, "scenario", SpanKind::Worker, start, end)
    }

    #[test]
    fn ids_format_and_parse() {
        assert_eq!(id_hex(0xAB), "00000000000000ab");
        assert_eq!(parse_id("00000000000000ab"), Some(0xAB));
        assert_eq!(parse_id(""), None);
        assert_eq!(parse_id("0"), None);
        assert_eq!(parse_id("zz"), None);
        assert_eq!(parse_id("11111111111111111"), None); // 17 digits
    }

    #[test]
    fn id_generator_is_deterministic_and_nonzero() {
        let mut a = SpanIdGen::seeded(42);
        let mut b = SpanIdGen::seeded(42);
        let ids: Vec<u64> = (0..100).map(|_| a.next_id()).collect();
        assert!(ids.iter().all(|&id| id != 0));
        assert!((0..100).all(|index| b.next_id() == ids[index]));
        // Distinct within a sequence and across seeds.
        let unique: std::collections::BTreeSet<_> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len());
        assert_ne!(
            SpanIdGen::seeded(1).next_id(),
            SpanIdGen::seeded(2).next_id()
        );
        // derive is stateless and tag-sensitive.
        assert_eq!(
            SpanIdGen::derive(7, "scenario"),
            SpanIdGen::derive(7, "scenario")
        );
        assert_ne!(
            SpanIdGen::derive(7, "scenario"),
            SpanIdGen::derive(7, "thermal")
        );
        assert_ne!(
            SpanIdGen::derive(7, "scenario"),
            SpanIdGen::derive(8, "scenario")
        );
    }

    #[test]
    fn span_round_trips_through_jsonl() {
        let original = span(0x11, 0x22, Some(0x33), 1_000, 2_500)
            .attr("benchmark", "Bm1")
            .attr("policy", "thermal");
        let line = original.to_line();
        assert!(jsonl::is_complete_record(&line));
        assert!(SpanEvent::is_span_line(&line));
        let parsed = SpanEvent::parse_line(&line).expect("parse");
        assert_eq!(parsed, original);
        // Root spans serialise an empty parent and come back as None.
        let root = span(0x11, 0x44, None, 0, 1);
        let parsed = SpanEvent::parse_line(&root.to_line()).expect("parse root");
        assert_eq!(parsed.parent_id, None);
    }

    #[test]
    fn non_canonical_lines_parse_through_the_slow_path() {
        // The fast scanner only accepts `to_line`'s exact byte layout;
        // anything else — reordered keys, whitespace, escaped attrs —
        // must still parse identically through the JSON tree.
        let canonical = span(0x11, 0x22, Some(0x33), 1_000, 2_500).attr("benchmark", "Bm1");
        let reordered = concat!(
            "{\"trace_id\": \"0000000000000011\", \"span_id\": \"0000000000000022\",",
            " \"parent_id\": \"0000000000000033\", \"name\": \"scenario\",",
            " \"kind\": \"worker\", \"start_us\": 1000, \"end_us\": 2500,",
            " \"attrs\": {\"benchmark\": \"Bm1\"}}"
        );
        assert_eq!(
            SpanEvent::parse_line(reordered).expect("slow path"),
            canonical
        );
        let escaped = span(0x11, 0x22, None, 0, 1).attr("note", "a\"b");
        assert_eq!(
            SpanEvent::parse_line(&escaped.to_line()).expect("escaped"),
            escaped
        );
    }

    #[test]
    fn hand_rolled_line_matches_the_tree_serializer() {
        // `to_line` bypasses the JsonValue tree for speed; it must stay
        // byte-identical to the canonical sorted-key serialization,
        // including string escaping in names and attrs.
        let spans = [
            span(0x11, 0x22, Some(0x33), 1_000, 2_500)
                .attr("benchmark", "Bm1")
                .attr("weird\"key\\", "line\nbreak\tand\r\u{1}"),
            span(u64::MAX, 1, None, 0, 0).attr("", ""),
            SpanEvent::new(1, 2, Some(3), "a \"quoted\" name", SpanKind::Client, 7, 9),
        ];
        for span in spans {
            assert_eq!(span.to_line(), span.to_json().to_json());
        }
    }

    #[test]
    fn malformed_spans_are_rejected_with_the_field_named() {
        let good = span(1, 2, None, 0, 10).to_line();
        for (needle, replacement, field) in [
            (
                "\"span_id\":\"0000000000000002\"",
                "\"span_id\":\"\"",
                "span_id",
            ),
            (
                "\"trace_id\":\"0000000000000001\"",
                "\"trace_id\":\"zz\"",
                "trace_id",
            ),
            ("\"kind\":\"worker\"", "\"kind\":\"alien\"", "kind"),
            ("\"end_us\":10", "\"end_us\":-4", "end_us"),
        ] {
            let bad = good.replace(needle, replacement);
            let error = SpanEvent::parse_line(&bad).expect_err(&bad);
            assert!(error.contains(field), "{error} should mention {field}");
        }
        // end before start is rejected even when both parse.
        let swapped = good.replace("\"start_us\":0", "\"start_us\":99");
        assert!(SpanEvent::parse_line(&swapped).is_err());
        assert!(SpanEvent::parse_line("not json").is_err());
        assert!(!SpanEvent::is_span_line("{\"id\":3}"));
    }

    #[test]
    fn forest_reconstructs_trees_and_the_critical_path() {
        let trace = 0x7;
        let root = span(trace, 10, None, 0, 100);
        let fast = span(trace, 11, Some(10), 5, 20);
        let slow = span(trace, 12, Some(10), 10, 95);
        let leaf = span(trace, 13, Some(12), 40, 90);
        let forest = SpanForest::build(vec![leaf.clone(), fast, root, slow]);
        assert_eq!(forest.len(), 4);
        assert_eq!(forest.roots().count(), 1);
        assert_eq!(forest.wall_us(), 100);
        let path: Vec<u64> = forest.critical_path().iter().map(|s| s.span_id).collect();
        assert_eq!(path, vec![10, 12, 13]);
        assert_eq!(
            forest
                .children_of(10)
                .map(|s| s.span_id)
                .collect::<Vec<_>>(),
            vec![11, 12]
        );
        // An orphan (parent id unknown) degrades to a root, not a loss.
        let orphan = span(trace, 20, Some(999), 200, 300);
        let forest = SpanForest::build(vec![span(trace, 10, None, 0, 100), orphan]);
        assert_eq!(forest.roots().count(), 2);
        assert_eq!(forest.critical_path()[0].span_id, 20);
        assert_eq!(forest.total_us_where(|s| s.name == "scenario"), 200);
    }

    #[test]
    fn chrome_export_tracks_workers_and_round_trips() {
        let spans = vec![
            span(1, 2, None, 0, 50).attr("worker", "w1"),
            span(1, 3, None, 10, 40).attr("worker", "w2"),
            SpanEvent::new(1, 4, None, "submit", SpanKind::Server, 0, 5),
        ];
        let chrome = chrome_trace(&spans);
        let text = chrome.to_json();
        let parsed = JsonValue::parse(&text).expect("chrome JSON parses");
        let events = parsed.field_array("traceEvents").expect("events");
        // 3 spans + 3 thread_name metadata events (w1, w2, service).
        assert_eq!(events.len(), 6);
        let tracks: Vec<&str> = events
            .iter()
            .filter(|event| event.get("ph").and_then(JsonValue::as_str) == Some("M"))
            .map(|event| event.get("args").unwrap().field_str("name").unwrap())
            .collect();
        // Tracks appear in first-seen order: both start-0 spans sort by
        // span id, so worker w1 (id 2) precedes the server span (id 4).
        assert_eq!(tracks, vec!["worker w1", "service", "worker w2"]);
        let complete: Vec<&JsonValue> = events
            .iter()
            .filter(|event| event.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 3);
        assert_eq!(complete[0].field_str("name"), Ok("scenario"));
        assert_eq!(complete[0].field_f64("dur"), Ok(50.0));
        assert_eq!(complete[1].field_str("name"), Ok("submit"));
        assert_eq!(complete[1].field_f64("dur"), Ok(5.0));
        // Distinct tids per track.
        let tids: std::collections::BTreeSet<u64> = complete
            .iter()
            .map(|event| event.field_u64("tid").unwrap())
            .collect();
        assert_eq!(tids.len(), 3);
    }
}
