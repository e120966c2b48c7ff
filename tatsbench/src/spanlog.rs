//! The traced run's spans, kept in memory and written at the end in the
//! `tats_trace::spans` JSONL format, so `tats trace <file>` (and its
//! `--chrome` export) opens them unchanged.

use std::path::PathBuf;
use std::time::Instant;

use tats_trace::spans::{self, SpanEvent, SpanIdGen, SpanKind};

/// Spans of one traced pass or round, stamped on the wall clock.
pub struct Spans {
    trace_id: u64,
    ids: SpanIdGen,
    base_us: u64,
    base: Instant,
    pub events: Vec<SpanEvent>,
}

impl Spans {
    pub fn new(seed: u64) -> Spans {
        Spans {
            trace_id: 0x7461_7473_6265_6e63 ^ seed,
            ids: SpanIdGen::seeded(seed),
            base_us: spans::now_us(),
            base: Instant::now(),
            events: Vec::new(),
        }
    }

    /// Wall-clock microseconds of an instant.
    pub fn at(&self, instant: Instant) -> u64 {
        self.base_us + instant.saturating_duration_since(self.base).as_micros() as u64
    }

    /// Records a span and returns its id.
    pub fn push(
        &mut self,
        parent: Option<u64>,
        name: &str,
        kind: SpanKind,
        (start_us, end_us): (u64, u64),
        attrs: &[(&str, String)],
    ) -> u64 {
        let id = self.ids.next_id();
        let mut span = SpanEvent::new(self.trace_id, id, parent, name, kind, start_us, end_us);
        for (key, value) in attrs {
            span = span.attr(key, value.clone());
        }
        self.events.push(span);
        id
    }

    /// Moves the end of span `id` (a root closed after its children).
    pub fn close(&mut self, id: u64, end_us: u64) {
        if let Some(span) = self.events.iter_mut().find(|s| s.span_id == id) {
            span.end_us = end_us;
        }
    }

    /// Writes the spans to `.tatsbench/trace/<workload>.spans.jsonl`.
    pub fn write(&self, workload: &str) -> std::io::Result<PathBuf> {
        let path = crate::bench_dir("trace")?.join(format!("{workload}.spans.jsonl"));
        let mut text = String::new();
        for span in &self.events {
            text.push_str(&span.to_line());
            text.push('\n');
        }
        std::fs::write(&path, text)?;
        Ok(path)
    }
}
