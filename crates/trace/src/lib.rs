//! Reporting and export for thermal-aware schedules.
//!
//! The scheduling core produces rich result objects; this crate turns them
//! into artefacts a person (or an external tool) can consume, and carries
//! the campaign engine's and service's observability planes:
//!
//! * [`GanttChart`] — ASCII Gantt rendering of a [`tats_core::Schedule`];
//! * [`csv`] — CSV export of schedules;
//! * [`json`] — a minimal JSON writer and parser, plus the schedule export;
//! * [`jsonl`] — streaming JSON-Lines output (one record or one batch of
//!   lines per flush, crash-repaired on reopen) used by the batch campaign
//!   engine and every file the campaign service writes, plus the resume-id
//!   scanner and the `?from=k` pager;
//! * [`log`] — structured, leveled log events (`TATS_LOG`-style filtering,
//!   sorted-key JSONL schema, a lock-free-on-the-send-path [`log::LogSink`]
//!   and a bounded monotonic-index [`log::LogRing`]) — the third
//!   observability pillar next to [`metrics`] and [`spans`];
//! * [`markdown`] — markdown rendering of the reproduced Tables 1–3;
//! * [`metrics`] — a lock-free-on-the-hot-path metrics registry (counters,
//!   gauges, log-linear latency histograms, scoped spans) with Prometheus
//!   text rendering and snapshot-based cross-worker merging;
//! * [`spans`] — distributed-tracing span events (trace/span/parent ids,
//!   µs intervals, attributes) with deterministic id generation,
//!   span-forest reconstruction with critical-path analysis, and Chrome
//!   trace-event export.
//!
//! # Examples
//!
//! ```
//! use tats_core::{PlatformFlow, Policy};
//! use tats_taskgraph::Benchmark;
//! use tats_techlib::profiles;
//! use tats_trace::{csv, GanttChart};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let library = profiles::standard_library(12)?;
//! let graph = Benchmark::Bm1.task_graph()?;
//! let result = PlatformFlow::new(&library)?.run(&graph, Policy::ThermalAware)?;
//!
//! let chart = GanttChart::new().render(&result.schedule, Some(&graph))?;
//! let table = csv::schedule_to_csv(&result.schedule, Some(&graph))?;
//! assert!(chart.contains("PE0") && table.contains("task,"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod csv;
mod error;
mod gantt;
pub mod json;
pub mod jsonl;
pub mod log;
pub mod markdown;
pub mod metrics;
pub mod spans;

pub use error::TraceError;
pub use gantt::GanttChart;
pub use json::JsonValue;
pub use metrics::{MetricsRegistry, MetricsSnapshot};
