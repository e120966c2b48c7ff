//! Structured, leveled log events: the third observability pillar of the
//! campaign service, next to [`crate::metrics`] ("how fast on average") and
//! [`crate::spans`] ("where did this job's wall-clock go"). Logs answer
//! "what happened, in order": every noteworthy transition (a lease granted,
//! a retry classified, a scenario failed, a cache entry evicted) becomes a
//! [`LogEvent`] with a level, a target, and — when a span context is active
//! — the campaign trace id, so log lines join against the span stream.
//!
//! # Log schema
//!
//! One JSONL object per event, keys sorted, written through the same
//! crash-repaired [`crate::jsonl`] path as campaign records and spans:
//!
//! | field      | type   | meaning                                              |
//! |------------|--------|------------------------------------------------------|
//! | `ts_us`    | number | event time, µs since the Unix epoch                  |
//! | `level`    | string | `error` \| `warn` \| `info` \| `debug` \| `trace`    |
//! | `target`   | string | subsystem that emitted it (`server`, `registry`, `worker`, `cli`) |
//! | `message`  | string | human-readable one-liner                             |
//! | `trace_id` | string | 16-hex-digit campaign trace id, `""` when no span context is active |
//! | `attrs`    | object | string key-value attributes (`job`, `shard`, `worker`, ...) |
//!
//! # Filtering
//!
//! A [`LogFilter`] is parsed from a `TATS_LOG`-style spec: a default level
//! plus per-target overrides, e.g. `info,server=debug` (everything at
//! `info`, the `server` target at `debug`) or `off` (nothing). The filter
//! is checked *before* an event is formatted, so disabled call sites cost
//! one branch and zero allocations.
//!
//! # Hot path
//!
//! [`LogSink::log`] serialises on the caller and enqueues on an unbounded
//! channel, so emitting threads (service workers, retry loops) never touch
//! an output or any shared buffer; the owning thread takes the lines with
//! [`LogDrain::drain_lines`] and prints or forwards them. The campaign
//! server logs on its request threads and needs no channel: it appends
//! each request's lines to a bounded [`LogRing`] whose indices are
//! monotonic, so pagers can resume with `from=k` even after old lines have
//! been overwritten, and to its `--log-file` through
//! [`crate::jsonl::JsonlWriter`].
//!
//! # Examples
//!
//! ```
//! use tats_trace::log::{log_channel, LogEvent, LogFilter, LogLevel};
//!
//! let filter = LogFilter::parse("info,worker=debug").unwrap();
//! let (sink, mut drain) = log_channel(filter);
//! assert!(sink.enabled(LogLevel::Debug, "worker"));
//! assert!(!sink.enabled(LogLevel::Debug, "server"));
//!
//! let event = LogEvent::new(LogLevel::Info, "worker", "shard leased")
//!     .at(1_700_000_000_000_000)
//!     .attr("scenario", "17");
//! sink.log(&event);
//! let lines = drain.drain_lines();
//! assert_eq!(LogEvent::parse_line(&lines[0]).unwrap(), event);
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

use crate::json::{self, JsonValue};
use crate::jsonl;
use crate::spans::{attrs_from_json, id_hex, now_us, parse_id, write_attrs, Scan};

/// Event severity, most severe first. The declaration order is the filter
/// order: a level is enabled when it is `<=` the configured maximum, so
/// `Info <= Debug` holds and a `debug` filter passes `info` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// The operation failed and was not recovered.
    Error,
    /// Something unexpected that the system rode out (a retry, a lost lease).
    Warn,
    /// Normal state transitions worth an operator's attention.
    Info,
    /// Detail for debugging a subsystem (cache evictions, poll outcomes).
    Debug,
    /// Very chatty per-item detail.
    Trace,
}

impl LogLevel {
    /// Every level, most severe first.
    pub const ALL: [LogLevel; 5] = [
        LogLevel::Error,
        LogLevel::Warn,
        LogLevel::Info,
        LogLevel::Debug,
        LogLevel::Trace,
    ];

    /// The wire name of the level.
    pub fn as_str(self) -> &'static str {
        match self {
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
            LogLevel::Trace => "trace",
        }
    }

    /// Parses a wire name back into a level.
    pub fn parse(text: &str) -> Option<LogLevel> {
        match text {
            "error" => Some(LogLevel::Error),
            "warn" => Some(LogLevel::Warn),
            "info" => Some(LogLevel::Info),
            "debug" => Some(LogLevel::Debug),
            "trace" => Some(LogLevel::Trace),
            _ => None,
        }
    }
}

/// One structured log event. See the module docs for the JSONL schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEvent {
    /// Event time, µs since the Unix epoch.
    pub ts_us: u64,
    /// Severity.
    pub level: LogLevel,
    /// Subsystem that emitted the event (`server`, `registry`, `worker`,
    /// `engine`, `cli`, ...). This is what per-target filters match.
    pub target: String,
    /// Human-readable one-liner.
    pub message: String,
    /// Campaign trace id when a span context was active, `None` otherwise.
    pub trace_id: Option<u64>,
    /// String key-value attributes (`job`, `shard`, `worker`, ...).
    pub attrs: BTreeMap<String, String>,
}

impl LogEvent {
    /// Creates an event stamped with the current wall clock and no
    /// attributes (add them via [`LogEvent::attr`]; pin the timestamp via
    /// [`LogEvent::at`] where determinism matters).
    pub fn new(level: LogLevel, target: &str, message: impl Into<String>) -> Self {
        LogEvent {
            ts_us: now_us(),
            level,
            target: target.to_string(),
            message: message.into(),
            trace_id: None,
            attrs: BTreeMap::new(),
        }
    }

    /// Builder-style timestamp override: returns the event stamped `ts_us`.
    #[must_use]
    pub fn at(mut self, ts_us: u64) -> Self {
        self.ts_us = ts_us;
        self
    }

    /// Builder-style trace context: returns the event carrying `trace_id`
    /// (zero means "no trace" and clears it).
    #[must_use]
    pub fn trace(mut self, trace_id: u64) -> Self {
        self.trace_id = (trace_id != 0).then_some(trace_id);
        self
    }

    /// Builder-style attribute: returns the event with `key = value` set.
    #[must_use]
    pub fn attr(mut self, key: &str, value: impl Into<String>) -> Self {
        self.attrs.insert(key.to_string(), value.into());
        self
    }

    /// Serialises the event as a [`JsonValue`] object (sorted keys).
    pub fn to_json(&self) -> JsonValue {
        let attrs = self
            .attrs
            .iter()
            .map(|(key, value)| (key.clone(), JsonValue::from(value.as_str())));
        JsonValue::object(vec![
            ("ts_us".to_string(), JsonValue::Number(self.ts_us as f64)),
            ("level".to_string(), JsonValue::from(self.level.as_str())),
            ("target".to_string(), JsonValue::from(self.target.as_str())),
            (
                "message".to_string(),
                JsonValue::from(self.message.as_str()),
            ),
            (
                "trace_id".to_string(),
                JsonValue::from(self.trace_id.map(id_hex).unwrap_or_default().as_str()),
            ),
            ("attrs".to_string(), JsonValue::object(attrs)),
        ])
    }

    /// Serialises the event as one JSONL line (no trailing newline).
    ///
    /// Hand-rolled but byte-identical to `self.to_json().to_json()` (the
    /// sorted-key object form) — this runs on the emitting thread for
    /// every enabled event, where building the [`JsonValue`] tree first
    /// costs ~15 allocations per line.
    pub fn to_line(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(96 + self.message.len() + 24 * self.attrs.len());
        write_attrs(&mut out, &self.attrs);
        out.push_str(",\"level\":\"");
        out.push_str(self.level.as_str());
        out.push_str("\",\"message\":");
        json::write_json_string(&mut out, &self.message);
        out.push_str(",\"target\":");
        json::write_json_string(&mut out, &self.target);
        match self.trace_id {
            // Hex ids never need escaping.
            Some(trace) => {
                let _ = write!(out, ",\"trace_id\":\"{trace:016x}\"");
            }
            None => out.push_str(",\"trace_id\":\"\""),
        }
        let _ = write!(out, ",\"ts_us\":{}}}", self.ts_us);
        out
    }

    /// Decodes an event from a parsed JSON object.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the missing or malformed
    /// field, in the style of the other wire decoders.
    pub fn from_json(value: &JsonValue) -> Result<LogEvent, String> {
        let level = LogLevel::parse(value.field_str("level")?)
            .ok_or_else(|| "field 'level' must be error|warn|info|debug|trace".to_string())?;
        let trace_text = value.field_str("trace_id")?;
        let trace_id = if trace_text.is_empty() {
            None
        } else {
            Some(
                parse_id(trace_text)
                    .ok_or_else(|| "field 'trace_id' must be a hex id or empty".to_string())?,
            )
        };
        Ok(LogEvent {
            ts_us: value.field_u64("ts_us")?,
            level,
            target: value.field_str("target")?.to_string(),
            message: value.field_str("message")?.to_string(),
            trace_id,
            attrs: attrs_from_json(value)?,
        })
    }

    /// Decodes an event from one JSONL line.
    ///
    /// Lines in the exact canonical [`LogEvent::to_line`] layout take a
    /// byte-level fast path; anything else falls back to the full JSON
    /// parser, so arbitrary-JSON log lines still decode.
    ///
    /// # Errors
    ///
    /// As [`LogEvent::from_json`], plus JSON parse failures.
    pub fn parse_line(line: &str) -> Result<LogEvent, String> {
        if let Some(event) = LogEvent::parse_canonical(line) {
            return Ok(event);
        }
        let value = JsonValue::parse(line).map_err(|e| e.to_string())?;
        LogEvent::from_json(&value)
    }

    /// The [`LogEvent::parse_line`] fast path: decodes the exact canonical
    /// layout `to_line` emits (sorted keys, no string escapes). Any
    /// deviation — including semantically invalid events, which the slow
    /// path rejects with a field-naming error — returns `None`.
    fn parse_canonical(line: &str) -> Option<LogEvent> {
        let mut scan = Scan::new(line);
        let mut attrs = BTreeMap::new();
        scan.attrs(|key, value| {
            attrs.insert(key.to_string(), value.to_string());
        })?;
        scan.expect(b",\"level\":")?;
        let level = LogLevel::parse(scan.plain_string()?)?;
        scan.expect(b",\"message\":")?;
        let message = scan.plain_string()?.to_string();
        scan.expect(b",\"target\":")?;
        let target = scan.plain_string()?.to_string();
        scan.expect(b",\"trace_id\":")?;
        let trace_text = scan.plain_string()?;
        let trace_id = if trace_text.is_empty() {
            None
        } else {
            Some(parse_id(trace_text)?)
        };
        scan.expect(b",\"ts_us\":")?;
        let ts_us = scan.number()?;
        scan.expect(b"}")?;
        if !scan.at_end() {
            return None;
        }
        Some(LogEvent {
            ts_us,
            level,
            target,
            message,
            trace_id,
            attrs,
        })
    }

    /// `true` if a JSONL line looks like a log event (has the level and
    /// target fields), without fully parsing it — how mixed streams are
    /// partitioned.
    pub fn is_log_line(line: &str) -> bool {
        jsonl::line_str_field(line, "level").is_some()
            && jsonl::line_str_field(line, "target").is_some()
    }
}

/// A parsed `TATS_LOG`-style filter: a default maximum level plus
/// per-target overrides. See the module docs for the spec grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogFilter {
    /// `None` means everything is off.
    default_max: Option<LogLevel>,
    overrides: Vec<(String, Option<LogLevel>)>,
}

impl LogFilter {
    /// A filter passing everything at `level` or more severe, all targets.
    pub fn at(level: LogLevel) -> Self {
        LogFilter {
            default_max: Some(level),
            overrides: Vec::new(),
        }
    }

    /// A filter passing nothing.
    pub fn off() -> Self {
        LogFilter {
            default_max: None,
            overrides: Vec::new(),
        }
    }

    /// Parses a spec like `info`, `off`, or `info,server=debug,engine=off`:
    /// comma-separated items, each either a bare level (sets the default)
    /// or `target=level` (overrides one target). Later items win.
    ///
    /// # Errors
    ///
    /// Names the offending item.
    pub fn parse(spec: &str) -> Result<LogFilter, String> {
        let mut filter = LogFilter::at(LogLevel::Info);
        for item in spec.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            match item.split_once('=') {
                None => filter.default_max = Self::parse_max(item)?,
                Some((target, level)) => {
                    let max = Self::parse_max(level.trim())?;
                    let target = target.trim().to_string();
                    filter.overrides.retain(|(name, _)| *name != target);
                    filter.overrides.push((target, max));
                }
            }
        }
        Ok(filter)
    }

    fn parse_max(text: &str) -> Result<Option<LogLevel>, String> {
        if text == "off" {
            return Ok(None);
        }
        LogLevel::parse(text)
            .map(Some)
            .ok_or_else(|| format!("unknown log level '{text}' (error|warn|info|debug|trace|off)"))
    }

    /// The filter the `TATS_LOG` environment variable configures, `info`
    /// when unset or unparseable (logging must not take down the system).
    pub fn from_env() -> LogFilter {
        std::env::var("TATS_LOG")
            .ok()
            .and_then(|spec| LogFilter::parse(&spec).ok())
            .unwrap_or_else(|| LogFilter::at(LogLevel::Info))
    }

    /// `true` when events at `level` from `target` pass the filter.
    pub fn enabled(&self, level: LogLevel, target: &str) -> bool {
        let max = self
            .overrides
            .iter()
            .find(|(name, _)| name == target)
            .map_or(self.default_max, |(_, max)| *max);
        max.is_some_and(|max| level <= max)
    }
}

/// The recording half of a log stream: cheap, clonable, shareable across
/// threads. [`LogSink::log`] checks the filter, serialises on the caller
/// and enqueues on an unbounded channel (lock-free on the send path); a
/// [`LogDrain`] on the owning thread takes the lines.
#[derive(Debug, Clone)]
pub struct LogSink {
    tx: Sender<String>,
    filter: Arc<LogFilter>,
}

impl LogSink {
    /// `true` when events at `level` from `target` would be recorded —
    /// check this before building an expensive message.
    pub fn enabled(&self, level: LogLevel, target: &str) -> bool {
        self.filter.enabled(level, target)
    }

    /// Records an event if the filter passes it. Never fails: if the drain
    /// is gone the line is dropped (logging must not take down the logged
    /// system).
    pub fn log(&self, event: &LogEvent) {
        if self.enabled(event.level, &event.target) {
            let _ = self.tx.send(event.to_line());
        }
    }
}

/// The draining half of a log stream: owns the buffered lines.
#[derive(Debug)]
pub struct LogDrain {
    rx: Receiver<String>,
}

impl LogDrain {
    /// Takes every buffered line, oldest first.
    pub fn drain_lines(&mut self) -> Vec<String> {
        let mut lines = Vec::new();
        while let Ok(line) = self.rx.try_recv() {
            lines.push(line);
        }
        lines
    }
}

/// A log stream: sink plus drain.
pub fn log_channel(filter: LogFilter) -> (LogSink, LogDrain) {
    let (tx, rx) = std::sync::mpsc::channel();
    (
        LogSink {
            tx,
            filter: Arc::new(filter),
        },
        LogDrain { rx },
    )
}

/// A bounded in-memory buffer of recent log lines with **monotonic**
/// indices: the first line ever pushed is index 0 forever, and when the
/// ring overwrites old lines the oldest retained index moves up instead of
/// wrapping to 0. Pagers asking for an index the ring has already
/// overwritten are served from the oldest retained line, so a slow client
/// loses old lines but never stalls or sees duplicates.
#[derive(Debug)]
pub struct LogRing {
    lines: VecDeque<String>,
    capacity: usize,
    start: usize,
}

impl LogRing {
    /// A ring retaining at most `capacity` lines (at least 1).
    pub fn new(capacity: usize) -> Self {
        LogRing {
            lines: VecDeque::new(),
            capacity: capacity.max(1),
            start: 0,
        }
    }

    /// Appends a line, evicting the oldest when the ring is full.
    pub fn push(&mut self, line: String) {
        if self.lines.len() == self.capacity {
            self.lines.pop_front();
            self.start += 1;
        }
        self.lines.push_back(line);
    }

    /// Appends every line of an iterator.
    pub fn extend(&mut self, lines: impl IntoIterator<Item = String>) {
        for line in lines {
            self.push(line);
        }
    }

    /// The index the *next* pushed line will get — what a pager passes as
    /// `from` to read only lines it has not seen.
    pub fn next_index(&self) -> usize {
        self.start + self.lines.len()
    }

    /// The index of the oldest line still retained (equal to
    /// [`LogRing::next_index`] when empty).
    pub fn oldest_index(&self) -> usize {
        self.start
    }

    /// Number of retained lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// `true` when no lines are retained.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// The last `count` retained lines, oldest first.
    pub fn tail(&self, count: usize) -> impl Iterator<Item = &str> {
        self.lines
            .iter()
            .skip(self.lines.len().saturating_sub(count))
            .map(String::as_str)
    }

    /// Pages the ring from index `from`: returns the retained lines at
    /// indices `>= from` (each newline-terminated) and the index to pass
    /// as the next `from`. A `from` below the oldest retained index is
    /// served from the oldest retained line (the skipped lines were
    /// overwritten); a `from` beyond the end returns an empty body and the
    /// current end.
    pub fn page(&self, from: usize) -> (String, usize) {
        jsonl::page(&self.lines, self.start, from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LogEvent {
        LogEvent::new(LogLevel::Warn, "worker", "lease lost")
            .at(1_700_000_000_123_456)
            .trace(0x1234_5678_9abc_def0)
            .attr("job", "j000001")
            .attr("shard", "3")
    }

    #[test]
    fn levels_round_trip_and_order_most_severe_first() {
        for level in LogLevel::ALL {
            assert_eq!(LogLevel::parse(level.as_str()), Some(level));
        }
        assert_eq!(LogLevel::parse("fatal"), None);
        assert!(LogLevel::Error < LogLevel::Warn);
        assert!(LogLevel::Info < LogLevel::Debug);
        assert!(LogLevel::Debug < LogLevel::Trace);
    }

    #[test]
    fn filter_parses_default_and_per_target_overrides() {
        let filter = LogFilter::parse("info,server=debug,engine=off").unwrap();
        assert!(filter.enabled(LogLevel::Info, "worker"));
        assert!(!filter.enabled(LogLevel::Debug, "worker"));
        assert!(filter.enabled(LogLevel::Debug, "server"));
        assert!(!filter.enabled(LogLevel::Trace, "server"));
        assert!(!filter.enabled(LogLevel::Error, "engine"));

        assert!(!LogFilter::parse("off")
            .unwrap()
            .enabled(LogLevel::Error, "server"));
        assert!(LogFilter::parse("warn")
            .unwrap()
            .enabled(LogLevel::Error, "anything"));
        assert!(!LogFilter::parse("warn")
            .unwrap()
            .enabled(LogLevel::Info, "anything"));
        // Later items win, whitespace tolerated, empty items skipped.
        let filter = LogFilter::parse(" debug , server = info ,, server = warn ").unwrap();
        assert!(!filter.enabled(LogLevel::Info, "server"));
        assert!(filter.enabled(LogLevel::Debug, "elsewhere"));
        let error = LogFilter::parse("info,server=loud").unwrap_err();
        assert!(error.contains("loud"), "{error}");
    }

    #[test]
    fn event_round_trips_through_jsonl() {
        let event = sample();
        let line = event.to_line();
        assert_eq!(LogEvent::parse_line(&line).unwrap(), event);
        assert!(LogEvent::is_log_line(&line));
        assert!(!LogEvent::is_log_line("{\"id\":3}"));

        // Untraced, attr-free events round-trip too.
        let plain = LogEvent::new(LogLevel::Info, "server", "listening").at(7);
        assert_eq!(LogEvent::parse_line(&plain.to_line()).unwrap(), plain);
    }

    #[test]
    fn hand_rolled_line_matches_the_tree_serializer() {
        let event = sample();
        assert_eq!(event.to_line(), event.to_json().to_json());
        let plain = LogEvent::new(LogLevel::Error, "cli", "boom").at(0);
        assert_eq!(plain.to_line(), plain.to_json().to_json());
        let weird = LogEvent::new(LogLevel::Debug, "tar\"get", "line\nbreak\tand\r\u{1}")
            .at(42)
            .attr("weird\"key\\", "value\u{7f}\u{2028}");
        assert_eq!(weird.to_line(), weird.to_json().to_json());
        assert_eq!(LogEvent::parse_line(&weird.to_line()).unwrap(), weird);
    }

    #[test]
    fn non_canonical_lines_parse_through_the_slow_path() {
        let event = sample();
        // Same object, spaced out: not the canonical layout.
        let spaced = event.to_json().to_json().replace("\":", "\": ");
        assert_ne!(spaced, event.to_line());
        assert_eq!(LogEvent::parse_line(&spaced).unwrap(), event);
    }

    #[test]
    fn malformed_events_are_rejected_with_the_field_named() {
        let error = LogEvent::parse_line("{\"attrs\":{}}").unwrap_err();
        assert!(error.contains("level"), "{error}");
        let line = sample().to_line();
        let error = LogEvent::parse_line(&line.replace("\"warn\"", "\"loud\"")).unwrap_err();
        assert!(error.contains("level"), "{error}");
        let error = LogEvent::parse_line(
            &line.replace("\"trace_id\":\"123456789abcdef0\"", "\"trace_id\":\"zz\""),
        )
        .unwrap_err();
        assert!(error.contains("trace_id"), "{error}");
        let error = LogEvent::parse_line("{not json").unwrap_err();
        assert!(!error.is_empty());
    }

    #[test]
    fn sink_filters_before_formatting_and_flushes_through_the_repaired_log() {
        let path = std::env::temp_dir().join("tats_log_sink_test.jsonl");
        let _ = std::fs::remove_file(&path);
        // A partial line left by a simulated kill -9 mid-write...
        std::fs::write(&path, "{\"attrs\":{},\"level\":\"info\",\"mess").unwrap();
        let (mut file, repaired) = jsonl::append_repaired(&path).unwrap();
        assert!(repaired > 0, "partial tail must be repaired away");
        let (sink, mut drain) = log_channel(LogFilter::parse("info,server=debug").unwrap());

        sink.log(&LogEvent::new(LogLevel::Info, "worker", "kept").at(1));
        sink.log(&LogEvent::new(LogLevel::Debug, "worker", "filtered").at(2));
        sink.log(&LogEvent::new(LogLevel::Debug, "server", "kept by override").at(3));
        let lines = drain.drain_lines();
        assert_eq!(lines.len(), 2);
        assert!(drain.drain_lines().is_empty());
        file.write_lines(&lines).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let events: Vec<LogEvent> = text
            .lines()
            .map(|line| LogEvent::parse_line(line).unwrap())
            .collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].message, "kept");
        assert_eq!(events[1].message, "kept by override");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn ring_pages_with_monotonic_indices() {
        // Empty ring: any `from` yields an empty body and next index 0.
        let ring = LogRing::new(4);
        assert_eq!(ring.page(0), (String::new(), 0));
        assert_eq!(ring.page(17), (String::new(), 0));
        assert!(ring.is_empty());

        let mut ring = LogRing::new(4);
        for index in 0..3 {
            ring.push(format!("line{index}"));
        }
        let (body, next) = ring.page(0);
        assert_eq!(body, "line0\nline1\nline2\n");
        assert_eq!(next, 3);
        // Incremental paging resumes where the last page ended.
        ring.push("line3".to_string());
        let (body, next) = ring.page(next);
        assert_eq!(body, "line3\n");
        assert_eq!(next, 4);
        // `from` beyond the end: empty page, index unchanged.
        assert_eq!(ring.page(99), (String::new(), 4));

        // Wrap-around overwrite: capacity 4, pushing 4..=9 evicts 0..=5.
        for index in 4..10 {
            ring.push(format!("line{index}"));
        }
        assert_eq!(ring.oldest_index(), 6);
        assert_eq!(ring.next_index(), 10);
        // A `from` below the oldest retained index is served from the
        // oldest retained line — old lines are gone, not re-numbered.
        let (body, next) = ring.page(2);
        assert_eq!(body, "line6\nline7\nline8\nline9\n");
        assert_eq!(next, 10);
        let tail: Vec<&str> = ring.tail(2).collect();
        assert_eq!(tail, ["line8", "line9"]);
    }
}
