//! `tats_service` — the campaign service: a crash-safe HTTP job server and
//! distributed shard workers over the batch campaign engine.
//!
//! `tats batch --shard i/n` (PR 3) made campaigns deterministically
//! partitionable; this crate adds the coordination layer that runs those
//! shards on many machines and merges the streams, and (PR 6) makes that
//! layer survive crashes on both sides of the wire. Everything is
//! `std`-only: `std::net::TcpListener` plus a thread per connection on the
//! server, blocking `std::net::TcpStream` clients, and the workspace's own
//! JSON value model on the wire.
//!
//! * [`Service`] binds the HTTP server ([`ServiceHandle`] stops it — or
//!   [`ServiceHandle::abort`]s it, the in-process `kill -9`); the
//!   [`Registry`] behind it owns jobs, shard leases and record sets;
//! * [`journal`] persists every registry transition as append-only JSONL:
//!   `tats serve --journal state.jsonl` survives a hard kill, and a restart
//!   on the same path replays the journal — repairing a partial trailing
//!   line, reconstructing jobs/records/shard states, and resetting stale
//!   leases so the work re-issues;
//! * [`retry`] is the shared transient-vs-fatal classification and capped
//!   exponential backoff (deterministic jitter) that the worker loop,
//!   record streaming and `tats submit --wait` all apply, so a fleet rides
//!   out a server restart instead of dying with it;
//! * [`run_worker`] is the pull loop `tats worker --connect` runs: lease a
//!   shard, run it through the engine's `Executor` (per-worker
//!   geometry-keyed thermal caches and all), stream each record back the
//!   moment it exists;
//! * [`client`] and [`http`] are the shared minimal HTTP/1.1 plumbing —
//!   persistent keep-alive connections by default ([`client::Connection`]),
//!   with `Connection: close` one-shots for probes and non-idempotent
//!   submits;
//! * (PR 7) the whole stack is instrumented through
//!   [`tats_trace::metrics`]: the server counts and times every request
//!   per endpoint template, times journal appends, and exposes it all at
//!   `GET /metrics` (Prometheus text); workers keep their own registries
//!   (lease-wait time, shard/scenario/phase timings, engine cache
//!   hits/misses, transient-vs-fatal retry counts) and piggyback a
//!   snapshot on every lease poll, so one scrape of the server shows the
//!   whole fleet, each series tagged `worker="name"`.
//!
//! The distributed invariant mirrors the engine's: **1 server + k workers
//! produce the record set of a single in-process `tats batch` run** of the
//! same [`CampaignSpec`](tats_engine::CampaignSpec) — including under
//! worker death *and server death*, because leases expire and re-issue,
//! ingest dedups by scenario id and fingerprint-checks every record, and
//! the journal acknowledges no transition it did not persist. Pinned
//! end-to-end (kills included) in `tests/distributed_equivalence.rs` and
//! `tests/crash_recovery.rs`; replay ≡ live is pinned property-style in
//! `tests/journal_replay.rs`.
//!
//! # Liveness vs readiness
//!
//! `GET /healthz` answers 200 as soon as the socket is bound ("the process
//! is alive"); `GET /readyz` answers 503 until the journal replay is being
//! served and 200 after ("requests will succeed"), with replay statistics
//! in the body. Orchestrators should gate traffic on `/readyz` and
//! restarts on `/healthz`. `GET /metrics` joins them on the unguarded
//! side of the ready gate, so a replaying server is scrapeable and its
//! `journal_replayed_*` gauges tell you what the replay recovered.
//!
//! # Scraping a live campaign
//!
//! ```text
//! $ curl -s 127.0.0.1:7070/metrics | grep -E '^(http_requests_total|journal_)'
//! http_requests_total{class="2xx",endpoint="POST /lease"} 412
//! http_requests_total{class="2xx",endpoint="POST /jobs/{id}/shards/{i}/records"} 380
//! journal_append_seconds_sum 0.0191
//! journal_append_seconds_count 423
//! journal_replayed_events 61
//! $ curl -s 127.0.0.1:7070/metrics | grep 'worker="w1"' | head -2
//! engine_cache_hits_total{worker="w1"} 96
//! engine_phase_seconds_count{phase="thermal",worker="w1"} 120
//! $ curl -s 127.0.0.1:7070/jobs/j000001/progress
//! {"job":"j000001","state":"running","done":73,"total":120,
//!  "records_per_sec":41.2,"eta_s":1.14,...}
//! ```
//!
//! `tats submit --wait` prints that progress line to stderr once a second
//! (a rewriting carriage-return line on a tty, plain appended lines when
//! piped), and `tats serve --access-log events.jsonl` appends one JSONL
//! event per request (method, path, status, duration, bytes, keep-alive)
//! to a crash-repaired log file.
//!
//! # Operating the fleet (PR 9)
//!
//! The stack emits structured logs through [`tats_trace::log`]: leveled
//! JSONL events with a target, sorted attributes and — when a span
//! context is active — the campaign's `trace_id`. The server keeps the
//! last 1024 lines in a bounded in-memory ring served at `GET
//! /logs?from=k` (pages exactly like `/records` and `/spans`, with an
//! `x-next-from` header) and `tats serve --log-file server.jsonl` tees
//! every live line to a crash-repaired file. `TATS_LOG=info,lease=debug`
//! filters per target; [`ServiceConfig::log_filter`] pins it
//! programmatically. Registry transition lines (`"target":"registry"`)
//! are stamped on the journaled clock, so a restart replays them into
//! the ring byte-for-byte; lease grants and server lifecycle lines are
//! live-only and may not survive a kill (pinned in
//! `tests/log_stream.rs`). Workers opt in via [`WorkerConfig::log`]
//! (`tats worker` streams its lines to stderr as JSONL).
//!
//! Two operator consoles sit on top: `tats top --connect HOST:PORT` is a
//! live ANSI terminal dashboard (fleet throughput, per-worker rates and
//! last-seen ages, per-job progress bars with phase p50/p99, a scrolling
//! log tail; `--once` prints one plain-text frame for scripts), and
//! `GET /dashboard` serves the same picture as a single self-contained
//! HTML page — inline styling, inline SVG sparklines, an auto-refresh
//! meta tag, and no external fetches of any kind.
//!
//! ## Which signal do I reach for?
//!
//! * **Metrics** (`GET /metrics`) answer "how much / how fast, right
//!   now": rates, counts, latency histograms per endpoint and worker.
//!   Cheap enough to scrape every second; no per-event detail.
//! * **Spans** (`GET /jobs/{id}/spans`, `tats trace`) answer "where did
//!   this job's time go": one tree per campaign with per-phase walls and
//!   the critical path. Per-job, replayable, byte-stable.
//! * **Logs** (`GET /logs`, `tats top`'s tail) answer "what happened,
//!   in order": discrete events — submits, leases, ingests, retries,
//!   crashes — each carrying the trace id that links it back to its
//!   span tree. Start triage here, pivot by `trace_id` into the span
//!   forest, quantify with the metrics page.
//!
//! # Journal compaction (PR 10)
//!
//! A long-lived journal replays every event it ever appended, so restart
//! time and disk grow without bound. Compaction folds the whole history
//! into a single `snapshot` event carrying the full registry state;
//! replay treats a leading snapshot as a fast-forward prefix and applies
//! only the events journaled after it. Trigger it on demand with
//! `POST /compact` (`tats compact --connect HOST:PORT` — the reply
//! reports bytes before/after) or automatically with `tats serve
//! --compact-every-events N`, which folds the journal every time it
//! reaches `N` events ([`ServiceConfig::compact_every_events`]).
//!
//! The safety invariant: **the old journal stays authoritative until the
//! snapshot is durable.** Compaction stages the snapshot at
//! `<journal>.compact`, fsyncs it, and only then atomically renames it
//! over the journal; a crash at any point — including a complete-looking
//! staging file a replay must *not* trust — leaves the original journal
//! in place, and the orphaned staging file is ignored and cleaned up by
//! the next compaction (pinned in `tests/journal_replay.rs` and the
//! double-crash test in `tests/crash_recovery.rs`).
//!
//! # Fair admission (PR 10)
//!
//! `POST /jobs` accepts optional `"client"` (default `"default"`) and
//! `"priority"` (default 0) fields — see [`Submission`]. The lease path
//! serves priority tiers high-to-low and round-robins across clients
//! *within* a tier, so one client's burst of jobs cannot starve another's
//! (the per-tier cursor is part of the journaled state, so replay
//! reproduces the exact grant order). With `tats serve --client-quota Q`
//! ([`ServiceConfig::client_quota`]), a submit from a client that already
//! has `Q` pending (not-yet-done) shards is refused with `429` and a
//! `retry-after` header; [`retry`] classifies the refusal as transient,
//! so `tats submit` retries it instead of dying. Quota refusals happen
//! before journaling and are never recorded — an admitted submit is
//! journaled, a refused one never was. `tats serve --max-connections C`
//! ([`ServiceConfig::max_connections`]) bounds concurrent connections the
//! same way: excess connects are shed with `503` + `retry-after` and
//! counted in `http_connections_rejected_total`.
//!
//! # Talking to a (restarted) server with curl
//!
//! ```text
//! $ tats serve --host 127.0.0.1 --port 7070 --journal state.jsonl &
//! $ curl -s 127.0.0.1:7070/readyz
//! {"ready":true,"replayed_events":0,...}
//! $ curl -s -X POST 127.0.0.1:7070/jobs \
//!     -d '{"spec":{"benchmarks":["Bm1"],...},"shards":4}'
//! {"job":"j000001","state":"queued",...}
//! $ kill -9 %1; tats serve --host 127.0.0.1 --port 7070 --journal state.jsonl &
//! $ curl -s 127.0.0.1:7070/readyz        # the job survived the kill
//! {"ready":true,"replayed_events":1,"replayed_jobs":1,...}
//! $ curl -s '127.0.0.1:7070/jobs/j000001/records?from=0' -D- | grep x-next-from
//! x-next-from: 0
//! ```
//!
//! # Examples
//!
//! ```
//! use tats_service::{client, run_worker, Service, ServiceConfig, WorkerConfig};
//! use tats_engine::CampaignSpec;
//! use tats_trace::JsonValue;
//!
//! # fn main() -> Result<(), tats_service::ServiceError> {
//! let server = Service::bind("127.0.0.1:0", ServiceConfig::default())?;
//! let addr = server.addr_string();
//!
//! // Submit the default campaign (20 scenarios) split into 2 shards.
//! let mut spec = CampaignSpec::default();
//! spec.benchmarks.truncate(1); // keep the doctest quick: 5 scenarios
//! let job = client::post_json(&addr, "/jobs", &JsonValue::object(vec![
//!     ("spec".to_string(), spec.to_json()),
//!     ("shards".to_string(), JsonValue::from(2usize)),
//! ]))?;
//!
//! // One local worker drains it.
//! let report = run_worker(&addr, &WorkerConfig {
//!     exit_when_drained: true,
//!     poll_ms: 10,
//!     ..WorkerConfig::default()
//! })?;
//! assert_eq!(report.records_posted, 5);
//!
//! let id = job.get("job").and_then(JsonValue::as_str).unwrap();
//! let records = client::get(&addr, &format!("/jobs/{id}/records"))?;
//! assert_eq!(records.body.lines().count(), 5);
//! server.stop();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
mod error;
pub mod http;
pub mod journal;
mod registry;
pub mod retry;
mod server;
mod worker;

pub use error::ServiceError;
pub use journal::{CompactReport, JournaledRegistry, ReplayReport};
pub use registry::{IngestReport, Registry, Submission};
pub use retry::RetryPolicy;
pub use server::{Service, ServiceConfig, ServiceHandle};
pub use worker::{run_worker, WorkerConfig, WorkerReport};
