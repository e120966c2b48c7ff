//! The HTTP front of the campaign service: a `std::net::TcpListener`
//! accept loop that routes requests into the journaled [`Registry`].
//!
//! Connections are persistent HTTP/1.1 keep-alive by default — a worker
//! sends its lease polls and a shard's record batches over one TCP stream
//! instead of paying a handshake per request. Each connection is handled
//! on its own thread with a bounded request budget and an idle timeout, so
//! a slow or abandoned client never blocks the accept loop and the
//! registry mutex is the only synchronisation point. The server is clocked
//! by a monotonic `Instant` taken at bind time; all lease deadlines live in
//! that clock.
//!
//! With [`ServiceConfig::journal`] set, every state transition is appended
//! to a JSONL journal ([`crate::journal`]) and a restart on the same file
//! replays it — synchronously, inside [`Service::bind`], so a corrupt
//! journal fails the boot instead of serving garbage. Replay finishes
//! before the socket exists: until then connections are refused (transient
//! — clients retry with [`crate::retry`]), and once the server accepts,
//! every endpoint answers.
//!
//! # Endpoints
//!
//! One route table in this file — method, path template, handler — drives
//! dispatch and the endpoint labels of `GET /metrics` (the method and
//! template, e.g. `GET /jobs/{id}/records`, plus `other` for anything
//! else).
//!
//! | method & path | body | purpose |
//! |---|---|---|
//! | `GET /healthz` | — | liveness probe (200 as soon as the socket is bound) |
//! | `GET /readyz` | — | readiness probe (200 with the journal-replay statistics) |
//! | `GET /metrics` | — | Prometheus text exposition |
//! | `POST /jobs` | `{"spec": <campaign spec>, "shards": n, "client"?: name, "priority"?: p}` | submit a campaign, get a job id (429 + `retry-after` over the per-client quota) |
//! | `GET /jobs` | — | status of every job |
//! | `GET /jobs/{id}` | — | one job's status |
//! | `GET /jobs/{id}/records?from=k` | — | JSONL records from index `k` (header `x-next-from`) |
//! | `GET /jobs/{id}/spans?from=k` | — | JSONL span events from index `k` (header `x-next-from`) |
//! | `GET /jobs/{id}/progress` | — | done/total, records/sec, ETA, and per-phase p50/p99 over every job the fleet has run since each worker started |
//! | `GET /jobs/{id}/summary` | — | aggregated campaign summary |
//! | `GET /workers` | — | per-worker statistics (status, last-seen age, lifetime records/sec) |
//! | `GET /logs?from=k` | — | JSONL structured log lines from ring index `k` (header `x-next-from`) |
//! | `GET /dashboard` | — | the `tats top` frame ([`crate::console`]) in a self-contained, auto-refreshing HTML page |
//! | `POST /lease` | `{"worker": name, "metrics"?: snapshot}` | lease the next available shard |
//! | `POST /jobs/{id}/shards/{i}/records` | JSONL lines (`x-worker` header) | stream shard records |
//! | `POST /jobs/{id}/shards/{i}/done` | — (`x-worker` header) | mark a shard complete |
//! | `POST /compact` | — | fold the journal into one snapshot event now (400 without a journal) |
//!
//! # Observability
//!
//! The server keeps a [`MetricsRegistry`] ([`tats_trace::metrics`]): one
//! latency histogram and per-status-class request counters per endpoint
//! label, connection/accept-backoff counters, lease request/grant
//! counters, the journal append+flush latency, the handlers' wait for the
//! registry lock (`registry_lock_wait_seconds`), and gauges describing
//! what boot-time replay reconstructed. Workers piggyback a snapshot of
//! their own registry (lease-wait time, retry counts, engine phase spans,
//! thermal cache hits) on every `POST /lease`; `GET /metrics` merges the
//! latest snapshot per worker — labelled `worker="name"` — into one
//! Prometheus text page. With [`ServiceConfig::access_log`] set, every
//! request is also appended to a JSONL access log; each access-log line
//! carries the request's `x-trace-id` (empty string when the client sent
//! none).
//!
//! The access log, the trace log and the log file are written like the
//! journal: through [`jsonl::JsonlWriter`], opened with
//! [`jsonl::append_repaired`] so a line torn by a crash is dropped on
//! reopen. Each request's lines go out in one batched write after the
//! registry lock is released and before the response is sent, so a client
//! that has its answer finds its lines on disk.
//!
//! # Distributed tracing
//!
//! With [`ServiceConfig::trace_log`] set, the server owns the merged span
//! stream of every traced campaign ([`tats_trace::spans`]): registry
//! transition spans (submit/lease/ingest/done), worker span batches
//! piggybacked on record posts, one synthesized root `campaign` span when
//! the last shard completes, and a request span for every request carrying
//! `x-trace-id`. Job-owned spans are deterministic — derived ids plus a
//! synthetic clock anchored at the submit instant make them pure functions
//! of journaled events, so a restart replays the identical stream (served
//! by `GET /jobs/{id}/spans`, analysed by `tats trace`). The trace log gets
//! each span once: the spans replay regenerates at boot were written by
//! the previous incarnation and are not appended again.
//!
//! # Structured logging
//!
//! The server keeps the last [`LOG_RING_CAPACITY`] structured log lines
//! ([`tats_trace::log`]) in a bounded ring with monotonic indices, paged
//! by `GET /logs?from=k` exactly like `/records` and `/spans`. The ring
//! collects registry transition lines (target `registry`: submit, ingest,
//! shard/job done — stamped with the *journaled* clock, `now_ms × 1000`,
//! so a restart regenerates them byte-identically from the journal),
//! live-only lease-grant lines (target `lease`), and the server's own
//! lifecycle events (target `server`: listening, journal replayed,
//! unparsable requests — wall-clock stamped, not replayed). With
//! [`ServiceConfig::log_file`] set, every *live-emitted* line is also
//! appended to that file; replay-regenerated lines are restored to the
//! ring only, never re-appended to the file (the previous incarnation
//! already wrote them). [`ServiceConfig::log_filter`] (or the `TATS_LOG`
//! environment variable) picks levels per target; filtering happens
//! before a line is built, so disabled call sites cost one branch.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use tats_engine::PHASES;
use tats_trace::log::{LogEvent, LogFilter, LogLevel, LogRing};
use tats_trace::metrics::{Counter, Histogram, MetricsRegistry, MetricsSnapshot};
use tats_trace::spans::{self, SpanEvent, SpanIdGen, SpanKind};
use tats_trace::{jsonl, JsonValue};

use crate::console;
use crate::error::ServiceError;
use crate::http::{read_request, write_response, Request};
use crate::journal::{JournaledRegistry, ReplayReport};
use crate::registry::Submission;

/// Tunables of one service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Shard-lease TTL, ms: how long a silent worker keeps a shard before it
    /// is re-leased. Every record batch a worker posts renews its lease, and
    /// a worker posts pending records once a quarter of the TTL (at most
    /// 50 ms) has passed since its last post, so the TTL only has to
    /// outlast that wait plus the heaviest scenario, not the whole shard.
    pub lease_ttl_ms: u64,
    /// Journal file that lets the state survive a process kill. `None` (the
    /// default) keeps all state in memory; with a path, every transition is
    /// appended there and binding on the same path replays it (repairing a
    /// partial trailing line first). Appends are flushed, not fsynced, so a
    /// power loss or kernel crash can drop acknowledged events.
    pub journal: Option<PathBuf>,
    /// Requests served per keep-alive connection before the server answers
    /// `connection: close` and recycles it (bounds per-connection memory
    /// and thread lifetime). `0` disables keep-alive entirely — every
    /// request gets `connection: close`, the pre-journal behaviour.
    pub keep_alive_max_requests: usize,
    /// JSONL access log: with a path, every served request appends one
    /// `{ts_ms, method, path, status, duration_us, bytes_in, bytes_out,
    /// keep_alive}` line there. The file is opened with the same
    /// partial-tail repair as the journal, so a crash mid-append never
    /// corrupts it. `None` (the default) logs nothing.
    pub access_log: Option<PathBuf>,
    /// JSONL span log (`tats serve --trace-log`): with a path, every span
    /// the server owns — registry transition spans, worker span batches
    /// accepted by ingest, and one request span per request that carries an
    /// `x-trace-id` header — is appended there (crash-repaired on reopen,
    /// like the journal). `tats trace <file>` analyses it. `None` (the
    /// default) keeps spans only in the per-job streams served by
    /// `GET /jobs/{id}/spans`.
    pub trace_log: Option<PathBuf>,
    /// JSONL structured-log file (`tats serve --log-file`): with a path,
    /// every live-emitted log line is appended there (crash-repaired on
    /// reopen, like the journal). Replay-regenerated registry lines are
    /// restored to the in-memory ring behind `GET /logs` but never
    /// re-appended to the file — the previous incarnation already wrote
    /// them. `None` (the default) keeps logs only in the ring.
    pub log_file: Option<PathBuf>,
    /// Level/target filter for structured logs. `None` (the default)
    /// reads the `TATS_LOG` environment variable, falling back to `info`;
    /// tests and benchmarks pass an explicit filter ([`LogFilter::off`]
    /// silences everything).
    pub log_filter: Option<LogFilter>,
    /// Auto-compaction threshold (`tats serve --compact-every-events n`):
    /// with `Some(n)`, the journal is rewritten as one snapshot event
    /// whenever it holds `n` or more events — replayed events count, so a
    /// long journal compacts right after boot. `None` (the default)
    /// compacts only on demand via `POST /compact`.
    pub compact_every_events: Option<u64>,
    /// Per-client pending-shard quota (`tats serve --client-quota n`): a
    /// `POST /jobs` from a client that already has `n` or more shards
    /// pending (not yet done, leased included) is refused with `429` and a
    /// `retry-after` hint. Quota refusals happen *before* the submit is
    /// journaled, so replay never re-litigates them. `0` (the default)
    /// disables the quota.
    pub client_quota: usize,
    /// Concurrent-connection cap (`tats serve --max-connections n`): the
    /// accept loop sheds connections beyond this with an immediate `503`
    /// (counted by `http_connections_rejected_total`) instead of spawning
    /// an unbounded handler thread per socket. `0` disables the cap.
    pub max_connections: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            lease_ttl_ms: 15_000,
            journal: None,
            keep_alive_max_requests: 1_000,
            access_log: None,
            trace_log: None,
            log_file: None,
            log_filter: None,
            compact_every_events: None,
            client_quota: 0,
            max_connections: 256,
        }
    }
}

/// How long a keep-alive connection may sit idle between requests before
/// the server closes it.
const KEEP_ALIVE_IDLE_TIMEOUT: Duration = Duration::from_secs(10);

/// A route handler: answers one request whose path matched its row.
type Handler = fn(&Call<'_>) -> Result<Reply, ServiceError>;

/// The route table, one row per endpoint: method, path template (each
/// `{…}` segment matches any one segment, handed to the handler in
/// [`Call::params`]) and the handler. It drives dispatch and the endpoint
/// labels of `GET /metrics` — `"{method} {path}"`, plus `other` for
/// requests no row matches, so the label set stays bounded whatever
/// clients send.
const ROUTES: [(&str, &str, Handler); 17] = [
    // The probes bypass the registry lock: /healthz means "the process
    // accepts connections", /readyz reports what the journal replay, which
    // finished before the socket was bound, reconstructed.
    ("GET", "/healthz", |_| {
        Ok(Reply::json(&JsonValue::object(vec![(
            "ok".to_string(),
            JsonValue::from(true),
        )])))
    }),
    ("GET", "/readyz", readyz),
    ("GET", "/metrics", metrics),
    ("GET", "/logs", |call| {
        let from = call.paged_from()?;
        let ring = call
            .shared
            .logs
            .ring
            .lock()
            .map_err(|_| poisoned("log ring"))?;
        Ok(Reply::page(ring.page(from)))
    }),
    ("GET", "/dashboard", dashboard),
    ("POST", "/jobs", submit),
    ("GET", "/jobs", |call| {
        let (state, now) = call.lock()?;
        Ok(Reply::json(&state.registry().jobs_status(now)))
    }),
    ("GET", "/jobs/{id}", |call| {
        let (state, now) = call.lock()?;
        Ok(Reply::json(
            &state.registry().job_status(call.params[0], now)?,
        ))
    }),
    ("GET", "/jobs/{id}/records", |call| {
        let from = call.paged_from()?;
        let (state, _) = call.lock()?;
        Ok(Reply::page(
            state.registry().records_from(call.params[0], from)?,
        ))
    }),
    ("GET", "/jobs/{id}/spans", |call| {
        let from = call.paged_from()?;
        let (state, _) = call.lock()?;
        Ok(Reply::page(
            state.registry().spans_from(call.params[0], from)?,
        ))
    }),
    ("GET", "/jobs/{id}/progress", progress),
    ("GET", "/jobs/{id}/summary", |call| {
        let (state, now) = call.lock()?;
        Ok(Reply::json(&state.registry().summary(call.params[0], now)?))
    }),
    ("GET", "/workers", |call| {
        let (state, now) = call.lock()?;
        Ok(Reply::json(&state.registry().workers_status(now)))
    }),
    ("POST", "/lease", lease),
    ("POST", "/jobs/{id}/shards/{i}/records", ingest),
    ("POST", "/jobs/{id}/shards/{i}/done", |call| {
        let worker = worker_header(call.request)?;
        let index = parse_shard_index(call.params[1])?;
        let (mut state, now) = call.lock()?;
        Ok(Reply::json(&state.shard_done(
            call.params[0],
            index,
            worker,
            now,
        )?))
    }),
    ("POST", "/compact", |call| {
        // On-demand journal compaction: fold the whole journal into one
        // snapshot event right now (400 without a journal).
        let report = call.lock()?.0.compact()?;
        Ok(Reply::json(&JsonValue::object(vec![
            (
                "bytes_before".to_string(),
                JsonValue::from(report.bytes_before as usize),
            ),
            (
                "bytes_after".to_string(),
                JsonValue::from(report.bytes_after as usize),
            ),
        ])))
    }),
];

/// The [`ROUTES`] row a request matches, with the path segments its
/// `{…}` templates captured.
fn find_route(request: &Request) -> Option<(usize, Vec<&str>)> {
    let segments = request.segments();
    ROUTES
        .iter()
        .enumerate()
        .find_map(|(index, (method, path, _))| {
            if *method != request.method {
                return None;
            }
            let mut template = path.split('/').skip(1);
            let mut params = Vec::new();
            for segment in &segments {
                match template.next()? {
                    part if part.starts_with('{') => params.push(*segment),
                    part if part == *segment => {}
                    _ => return None,
                }
            }
            template.next().is_none().then_some((index, params))
        })
}

/// Status classes `http_requests_total` is partitioned into.
const STATUS_CLASSES: [&str; 4] = ["2xx", "4xx", "5xx", "other"];

fn status_class_index(status: u16) -> usize {
    match status / 100 {
        2 => 0,
        4 => 1,
        5 => 2,
        _ => 3,
    }
}

/// Per-endpoint handles into the server's [`MetricsRegistry`].
struct EndpointMetrics {
    label: String,
    latency: Arc<Histogram>,
    classes: [Arc<Counter>; 4],
}

/// The server side of the metrics registry: request latency and status
/// counts per endpoint, connection and accept-loop health, lease traffic.
struct ServerMetrics {
    registry: MetricsRegistry,
    /// One entry per [`ROUTES`] row, then `other`. Registered at bind, so
    /// the hot path is an index plus relaxed atomics — no lock, no
    /// allocation.
    endpoints: Vec<EndpointMetrics>,
    connections: Arc<Counter>,
    connections_rejected: Arc<Counter>,
    accept_backoff: Arc<Counter>,
    lease_requests: Arc<Counter>,
    leases_granted: Arc<Counter>,
    /// How long handlers waited for the registry mutex ([`Call::lock`]):
    /// whether reads queue behind ingests.
    lock_wait: Arc<Histogram>,
}

impl ServerMetrics {
    fn new() -> Self {
        let registry = MetricsRegistry::new();
        let endpoints = ROUTES
            .iter()
            .map(|(method, path, _)| format!("{method} {path}"))
            .chain(["other".to_string()])
            .map(|label| EndpointMetrics {
                latency: registry.histogram("http_request_seconds", &[("endpoint", &label)]),
                classes: STATUS_CLASSES.map(|class| {
                    registry.counter(
                        "http_requests_total",
                        &[("class", class), ("endpoint", &label)],
                    )
                }),
                label,
            })
            .collect();
        ServerMetrics {
            connections: registry.counter("http_connections_total", &[]),
            connections_rejected: registry.counter("http_connections_rejected_total", &[]),
            accept_backoff: registry.counter("http_accept_backoff_total", &[]),
            lease_requests: registry.counter("lease_requests_total", &[]),
            leases_granted: registry.counter("leases_granted_total", &[]),
            lock_wait: registry.histogram("registry_lock_wait_seconds", &[]),
            endpoints,
            registry,
        }
    }

    /// Records one served request under its endpoint (a [`ROUTES`] index,
    /// or `ROUTES.len()` for `other`).
    fn request(&self, endpoint: usize, status: u16, elapsed: Duration) {
        let metrics = &self.endpoints[endpoint];
        metrics.latency.record_duration(elapsed);
        metrics.classes[status_class_index(status)].inc();
    }
}

/// Opens one of the server's JSONL outputs for appending, dropping a
/// partial final line a crash left behind (see [`jsonl::append_repaired`]).
fn open_jsonl(path: &Path) -> Result<Mutex<jsonl::JsonlWriter<File>>, ServiceError> {
    Ok(Mutex::new(jsonl::append_repaired(path)?.0))
}

/// The server's span log ([`ServiceConfig::trace_log`]) and the id
/// generator for per-request spans.
struct TraceLog {
    file: Mutex<jsonl::JsonlWriter<File>>,
    ids: Mutex<SpanIdGen>,
}

/// Lines retained by the `GET /logs` ring. Indices are monotonic, so a
/// pager that falls more than this far behind loses lines (served from
/// the oldest retained index) but never stalls.
pub const LOG_RING_CAPACITY: usize = 1_024;

/// The server's structured-log outputs: the bounded ring behind
/// `GET /logs` and the optional `--log-file`, plus the filter the server's
/// own events must pass (registry lines were checked when built).
struct ServerLogs {
    filter: LogFilter,
    ring: Mutex<LogRing>,
    file: Option<Mutex<jsonl::JsonlWriter<File>>>,
}

impl ServerLogs {
    /// Appends live lines to the `--log-file`, when configured, in one
    /// batched write, then to the ring. Logging is best-effort: I/O errors
    /// and poisoned locks drop lines, never requests.
    fn publish(&self, lines: Vec<String>) {
        if lines.is_empty() {
            return;
        }
        if let Some(Ok(mut file)) = self.file.as_ref().map(Mutex::lock) {
            let _ = file.write_lines(&lines);
        }
        if let Ok(mut ring) = self.ring.lock() {
            ring.extend(lines);
        }
    }

    /// Publishes one of the server's own events if the filter passes it.
    fn log(&self, event: &LogEvent) {
        if self.filter.enabled(event.level, &event.target) {
            self.publish(vec![event.to_line()]);
        }
    }
}

/// State shared between the accept loop, the connection handlers and the
/// [`ServiceHandle`].
struct Shared {
    state: Mutex<JournaledRegistry>,
    replay: ReplayReport,
    leases_reset: usize,
    /// [`ServiceConfig::client_quota`], needed at `POST /jobs` dispatch.
    client_quota: usize,
    /// [`ServiceConfig::lease_ttl_ms`] — the `retry-after` hint on a quota
    /// refusal (one TTL bounds how long a stuck shard stays pending).
    lease_ttl_ms: u64,
    /// Live connection-handler threads, bounded by
    /// [`ServiceConfig::max_connections`].
    active_connections: std::sync::atomic::AtomicUsize,
    metrics: ServerMetrics,
    /// Latest metrics snapshot each worker piggybacked on `POST /lease`.
    /// Latest-wins (worker registries are cumulative), merged fresh at
    /// every `/metrics` scrape — accumulating them here would double-count.
    worker_metrics: Mutex<BTreeMap<String, MetricsSnapshot>>,
    /// JSONL access log ([`ServiceConfig::access_log`]).
    access_log: Option<Mutex<jsonl::JsonlWriter<File>>>,
    /// JSONL span log ([`ServiceConfig::trace_log`]).
    trace: Option<TraceLog>,
    /// Structured-log ring and optional `--log-file`.
    logs: ServerLogs,
    /// Graceful-shutdown flag: the accept loop exits, in-flight responses
    /// carry `connection: close`.
    stop: AtomicBool,
    /// Crash-simulation flag ([`ServiceHandle::abort`]): handlers drop
    /// their connection without answering, like a killed process would.
    dead: AtomicBool,
}

/// A running campaign service.
///
/// Dropping the handle stops the server (see [`ServiceHandle::stop`]).
#[derive(Debug)]
pub struct ServiceHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("stop", &self.stop.load(Ordering::SeqCst))
            .field("dead", &self.dead.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl ServiceHandle {
    /// The bound address (useful with an ephemeral `:0` bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The `host:port` string clients pass to [`crate::client`] and
    /// `tats worker --connect`.
    pub fn addr_string(&self) -> String {
        self.addr.to_string()
    }

    /// What the boot-time journal replay reconstructed.
    pub fn replay_report(&self) -> ReplayReport {
        self.shared.replay
    }

    /// Stops the accept loop gracefully and joins the server thread.
    /// In-flight connection handlers finish on their own threads; their
    /// final responses carry `connection: close`.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Simulates `kill -9` from inside the process: seals the journal (no
    /// further byte is written), refuses every further state transition and
    /// drops connections without answering, then unbinds the port. A server
    /// restarted on the same journal path sees exactly the file a really
    /// killed process would have left. In-flight clients observe an I/O
    /// error or an unanswered request — never a clean HTTP error — which is
    /// what their retry policies must ride out.
    pub fn abort(mut self) {
        // `dead` first, then seal under the state lock: a handler
        // mid-mutation finishes its apply+journal atomically; every
        // handler that finds the registry sealed also finds `dead` set and
        // drops its connection unanswered. No byte hits the journal once
        // this returns.
        self.shared.dead.store(true, Ordering::SeqCst);
        if let Ok(mut state) = self.shared.state.lock() {
            state.seal();
        }
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The campaign service entry point.
#[derive(Debug)]
pub struct Service;

impl Service {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// serving on a background thread. With [`ServiceConfig::journal`] set,
    /// replays the journal synchronously first — jobs, records and shard
    /// states are reconstructed before the socket accepts, and leases from
    /// the previous incarnation are reset to pending (their deadlines lived
    /// in the dead process's clock).
    ///
    /// # Errors
    ///
    /// Propagates bind failures, journal I/O failures, and
    /// [`ServiceError::Protocol`] for a journal that does not replay — a
    /// corrupt journal fails the boot instead of serving wrong state.
    pub fn bind(addr: &str, config: ServiceConfig) -> Result<ServiceHandle, ServiceError> {
        let log_filter = config
            .log_filter
            .clone()
            .unwrap_or_else(LogFilter::from_env);
        // The filter is installed before replay so the registry regenerates
        // the log lines of every journaled transition — they are pure
        // functions of journaled inputs (see `registry::build_log`), which
        // is what keeps `GET /logs` byte-stable across a kill -9/restart.
        let (mut state, replay) = match &config.journal {
            Some(path) => JournaledRegistry::open_with_filter(
                path,
                config.lease_ttl_ms,
                Arc::new(log_filter.clone()),
            )?,
            None => {
                let mut state = JournaledRegistry::new(config.lease_ttl_ms);
                state.set_log_filter(Arc::new(log_filter.clone()));
                (state, ReplayReport::default())
            }
        };
        let leases_reset = state.reset_leases()?;
        // Auto-compaction arms *after* replay and lease reset: with the
        // threshold already crossed by a long-lived journal, the first
        // journaled mutation folds it into one snapshot.
        state.set_compact_every(config.compact_every_events);
        // Replay-regenerated log lines restore `GET /logs` continuity, but
        // only through the ring: the previous incarnation already appended
        // them to any `--log-file`.
        let mut ring = LogRing::new(LOG_RING_CAPACITY);
        ring.extend(state.take_log_lines());
        let metrics = ServerMetrics::new();
        // What boot-time replay reconstructed, as gauges: the post-restart
        // scrape target of the crash-recovery smoke test.
        let registry = &metrics.registry;
        registry
            .gauge("journal_replayed_events", &[])
            .set(replay.events as u64);
        registry
            .gauge("journal_replayed_jobs", &[])
            .set(replay.jobs as u64);
        registry
            .gauge("journal_replayed_records", &[])
            .set(replay.records as u64);
        registry
            .gauge("journal_repaired_bytes", &[])
            .set(replay.repaired_bytes);
        registry
            .gauge("journal_replayed_snapshots", &[])
            .set(replay.snapshots as u64);
        registry
            .gauge("journal_leases_reset", &[])
            .set(leases_reset as u64);
        state.set_append_latency(registry.histogram("journal_append_seconds", &[]));
        let access_log = config.access_log.as_deref().map(open_jsonl).transpose()?;
        let trace = match config.trace_log.as_deref() {
            Some(path) => Some(TraceLog {
                file: open_jsonl(path)?,
                ids: Mutex::new(SpanIdGen::seeded(spans::now_us())),
            }),
            None => None,
        };
        // Journal replay regenerated the transition spans of every replayed
        // job (they are pure functions of journaled events); the previous
        // incarnation already wrote them to its trace log, so the replayed
        // batch is discarded here instead of appended twice.
        let _ = state.take_trace_lines();
        let logs = ServerLogs {
            filter: log_filter,
            ring: Mutex::new(ring),
            file: config.log_file.as_deref().map(open_jsonl).transpose()?,
        };
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        logs.log(
            &LogEvent::new(LogLevel::Info, "server", "listening").attr("addr", addr.to_string()),
        );
        if replay.events > 0 || leases_reset > 0 {
            logs.log(
                &LogEvent::new(LogLevel::Info, "server", "journal replayed")
                    .attr("events", replay.events.to_string())
                    .attr("jobs", replay.jobs.to_string())
                    .attr("records", replay.records.to_string())
                    .attr("leases_reset", leases_reset.to_string()),
            );
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(state),
            replay,
            leases_reset,
            client_quota: config.client_quota,
            lease_ttl_ms: config.lease_ttl_ms,
            active_connections: std::sync::atomic::AtomicUsize::new(0),
            metrics,
            worker_metrics: Mutex::new(BTreeMap::new()),
            access_log,
            trace,
            logs,
            stop: AtomicBool::new(false),
            dead: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let thread = std::thread::spawn(move || {
            let epoch = Instant::now();
            // Escalating backoff for persistent accept errors (EMFILE while
            // the thread-per-connection pool is saturated): never busy-spin
            // a core, but recover quickly from a blip.
            let mut backoff_ms = 0u64;
            loop {
                let Ok((stream, _)) = listener.accept() else {
                    if accept_shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    accept_shared.metrics.accept_backoff.inc();
                    backoff_ms = (backoff_ms.max(10) * 2).min(1_000);
                    std::thread::sleep(Duration::from_millis(backoff_ms));
                    continue;
                };
                backoff_ms = 0;
                if accept_shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                // The connection gate: beyond the cap, shed with an
                // immediate 503 instead of spawning yet another handler
                // thread — an unbounded accept loop turns a connection
                // flood into thread exhaustion for the whole process.
                let limit = config.max_connections;
                if limit > 0
                    && accept_shared
                        .active_connections
                        .fetch_add(1, Ordering::SeqCst)
                        >= limit
                {
                    accept_shared
                        .active_connections
                        .fetch_sub(1, Ordering::SeqCst);
                    accept_shared.metrics.connections_rejected.inc();
                    // Shed on a throwaway thread: a client that never reads
                    // must not block the accept loop on the 503 write.
                    std::thread::spawn(move || shed_connection(stream));
                    continue;
                }
                let shared = Arc::clone(&accept_shared);
                let config = config.clone();
                std::thread::spawn(move || {
                    // Returned on every path, panics included: a leaked
                    // permit would permanently shrink the cap.
                    let _permit = (limit > 0).then(|| ConnectionPermit {
                        shared: Arc::clone(&shared),
                    });
                    handle_connection(stream, &shared, &config, epoch);
                });
            }
        });
        Ok(ServiceHandle {
            addr,
            shared,
            thread: Some(thread),
        })
    }
}

/// Milliseconds since the server's epoch — the clock every lease deadline
/// lives in.
fn now_ms(epoch: Instant) -> u64 {
    epoch.elapsed().as_millis() as u64
}

/// Returns one connection slot to the gate when a handler thread exits —
/// by any path, panic unwinds included.
struct ConnectionPermit {
    shared: Arc<Shared>,
}

impl Drop for ConnectionPermit {
    fn drop(&mut self) {
        self.shared
            .active_connections
            .fetch_sub(1, Ordering::SeqCst);
    }
}

/// Refuses a connection beyond [`ServiceConfig::max_connections`]: one
/// `503` with a `retry-after` hint, then a write-side shutdown and a short
/// drain of whatever the client already sent, so the response is actually
/// delivered instead of being discarded by a TCP reset.
fn shed_connection(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = write_response(
        &mut stream,
        503,
        "text/plain",
        &[("retry-after", "1".to_string())],
        "connection limit reached; retry shortly\n",
        false,
    );
    let _ = stream.shutdown(std::net::Shutdown::Write);
    // Drain the request bytes in flight: closing with unread data makes
    // many stacks send RST, which can destroy the queued 503.
    use std::io::Read as _;
    let mut sink = [0u8; 1_024];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

fn handle_connection(stream: TcpStream, shared: &Shared, config: &ServiceConfig, epoch: Instant) {
    // The read timeout doubles as the keep-alive idle timeout: a client
    // that sends nothing for this long gets its connection closed.
    let _ = stream.set_read_timeout(Some(KEEP_ALIVE_IDLE_TIMEOUT));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    // Responses go out in full the moment they are written; see
    // `client::dial` for why Nagle is wrong for this traffic.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let mut writer = stream;
    let mut served = 0usize;
    shared.metrics.connections.inc();
    loop {
        // Wait for the next request (or a clean close / idle timeout)
        // before parsing, so an idle keep-alive connection dies here and
        // not with a half-parsed request.
        match reader.fill_buf() {
            Ok([]) => return, // client closed cleanly
            Ok(_) => {}
            Err(_) => return, // idle timeout or reset
        }
        let request = match read_request(&mut reader) {
            Ok(request) => request,
            Err(error) => {
                shared.logs.log(
                    &LogEvent::new(LogLevel::Warn, "server", "unparsable request")
                        .attr("error", error.to_string()),
                );
                let _ = write_response(
                    &mut writer,
                    400,
                    "text/plain",
                    &[],
                    &format!("{error}\n"),
                    false,
                );
                return;
            }
        };
        served += 1;
        let keep_alive = served < config.keep_alive_max_requests
            && !request.wants_close()
            && !shared.stop.load(Ordering::SeqCst);
        let clock = Instant::now();
        let route = find_route(&request);
        let endpoint = route.as_ref().map_or(ROUTES.len(), |(index, _)| *index);
        let reply = respond(route, &request, shared, epoch);
        if shared.dead.load(Ordering::SeqCst) {
            // An aborted (pseudo-killed) server does not answer; the client
            // sees a dropped connection, exactly like a real crash.
            return;
        }
        shared
            .metrics
            .request(endpoint, reply.status, clock.elapsed());
        // Registry transitions buffer the span and log lines they emit.
        // Every state-mutating request takes them under the registry lock,
        // so the buffers never grow, and writes them once the lock is
        // released, before the response: the trace log and the log file
        // trail the journal by at most one request. Registry log lines were
        // filter-checked when built.
        let (mut span_lines, log_lines) =
            match (request.method == "POST").then(|| shared.state.lock()) {
                Some(Ok(mut state)) => (state.take_trace_lines(), state.take_log_lines()),
                _ => (Vec::new(), Vec::new()),
            };
        shared.logs.publish(log_lines);
        if let Some(trace) = &shared.trace {
            // Any request carrying a valid x-trace-id gets a request span
            // in the trace log (not in per-job streams: request spans are
            // server-local observability, job streams are deterministic).
            if let Some(trace_id) = request.header("x-trace-id").and_then(spans::parse_id) {
                let end_us = spans::now_us();
                let start_us = end_us.saturating_sub(clock.elapsed().as_micros() as u64);
                let span_id = trace.ids.lock().map_or(1, |mut ids| ids.next_id());
                let span = SpanEvent::new(
                    trace_id,
                    span_id,
                    Some(SpanIdGen::derive(trace_id, "campaign")),
                    &shared.metrics.endpoints[endpoint].label,
                    SpanKind::Server,
                    start_us,
                    end_us,
                )
                .attr("method", request.method.as_str())
                .attr("path", request.path.as_str())
                .attr("status", reply.status.to_string());
                span_lines.push(span.to_line());
            }
            if let Ok(mut file) = trace.file.lock() {
                let _ = file.write_lines(&span_lines);
            }
        }
        if let Some(log) = &shared.access_log {
            if let Ok(mut log) = log.lock() {
                let _ = log.write(&JsonValue::object(vec![
                    ("ts_ms".to_string(), JsonValue::from(now_ms(epoch) as usize)),
                    (
                        "method".to_string(),
                        JsonValue::from(request.method.as_str()),
                    ),
                    ("path".to_string(), JsonValue::from(request.path.as_str())),
                    ("status".to_string(), JsonValue::from(reply.status as usize)),
                    (
                        "duration_us".to_string(),
                        JsonValue::from(clock.elapsed().as_micros() as usize),
                    ),
                    ("bytes_in".to_string(), JsonValue::from(request.body.len())),
                    ("bytes_out".to_string(), JsonValue::from(reply.body.len())),
                    ("keep_alive".to_string(), JsonValue::from(keep_alive)),
                    (
                        "trace_id".to_string(),
                        JsonValue::from(request.header("x-trace-id").unwrap_or("")),
                    ),
                ]));
            }
        }
        let Reply {
            status,
            content_type,
            extra,
            body,
        } = reply;
        if write_response(&mut writer, status, content_type, &extra, &body, keep_alive).is_err()
            || !keep_alive
        {
            return;
        }
    }
}

/// Answers one request: through the handler of its [`ROUTES`] row when a
/// row matched, `404` otherwise. Errors become plain-text bodies with the
/// error's status code.
fn respond(
    route: Option<(usize, Vec<&str>)>,
    request: &Request,
    shared: &Shared,
    epoch: Instant,
) -> Reply {
    let result = match route {
        Some((index, params)) => (ROUTES[index].2)(&Call {
            request,
            params,
            shared,
            epoch,
        }),
        None => Err(ServiceError::NotFound(format!(
            "{} {}",
            request.method, request.path
        ))),
    };
    result.unwrap_or_else(|error| {
        // Quota refusals carry their wait hint as a header too, so plain
        // HTTP clients see it without parsing the body.
        let extra = match &error {
            ServiceError::RateLimited { retry_after_s, .. } => {
                vec![("retry-after", retry_after_s.to_string())]
            }
            _ => Vec::new(),
        };
        Reply {
            status: error.status_code(),
            content_type: "text/plain",
            extra,
            body: format!("{error}\n"),
        }
    })
}

/// What a route handler is given.
struct Call<'r> {
    request: &'r Request,
    /// The path segments the row's `{…}` templates matched, in order.
    params: Vec<&'r str>,
    shared: &'r Shared,
    epoch: Instant,
}

impl Call<'_> {
    /// Takes the registry lock, recording the wait for it in
    /// `registry_lock_wait_seconds`, then reads the server clock, so the
    /// timestamps transitions are journaled with follow the lock order.
    fn lock(&self) -> Result<(MutexGuard<'_, JournaledRegistry>, u64), ServiceError> {
        let asked = Instant::now();
        let state = self.shared.state.lock().map_err(|_| poisoned("registry"))?;
        self.shared
            .metrics
            .lock_wait
            .record_duration(asked.elapsed());
        Ok((state, now_ms(self.epoch)))
    }

    /// The `?from=k` index of a paged endpoint (0 when absent).
    fn paged_from(&self) -> Result<usize, ServiceError> {
        self.request.query_param("from").map_or(Ok(0), |value| {
            value
                .parse()
                .map_err(|_| ServiceError::BadRequest(format!("bad 'from' value '{value}'")))
        })
    }
}

fn poisoned(what: &str) -> ServiceError {
    ServiceError::Protocol(format!("{what} mutex poisoned"))
}

/// A response before it is written.
struct Reply {
    status: u16,
    content_type: &'static str,
    extra: Vec<(&'static str, String)>,
    body: String,
}

impl Reply {
    fn json(value: &JsonValue) -> Reply {
        Reply {
            status: 200,
            content_type: "application/json",
            extra: Vec::new(),
            body: value.to_json(),
        }
    }

    /// One page of a `?from=k` JSONL stream, with the index to poll from
    /// next in the `x-next-from` header.
    fn page((body, next): (String, usize)) -> Reply {
        Reply {
            status: 200,
            content_type: "application/jsonl",
            extra: vec![("x-next-from", next.to_string())],
            body,
        }
    }
}

/// The `x-worker` header, required on shard mutations so ownership checks
/// have a name to check against.
fn worker_header(request: &Request) -> Result<&str, ServiceError> {
    request
        .header("x-worker")
        .ok_or_else(|| ServiceError::BadRequest("missing x-worker header".to_string()))
}

fn parse_body_json(request: &Request) -> Result<JsonValue, ServiceError> {
    JsonValue::parse(&request.body)
        .map_err(|e| ServiceError::BadRequest(format!("request body: {e}")))
}

fn parse_shard_index(text: &str) -> Result<usize, ServiceError> {
    text.parse::<usize>()
        .map_err(|_| ServiceError::BadRequest(format!("bad shard index '{text}'")))
}

/// `GET /readyz`: always ready, since [`Service::bind`] replays the
/// journal before it binds the socket; the body reports what the replay
/// reconstructed.
fn readyz(call: &Call<'_>) -> Result<Reply, ServiceError> {
    let shared = call.shared;
    Ok(Reply::json(&JsonValue::object(vec![
        ("ready".to_string(), JsonValue::from(true)),
        (
            "replayed_events".to_string(),
            JsonValue::from(shared.replay.events),
        ),
        (
            "replayed_jobs".to_string(),
            JsonValue::from(shared.replay.jobs),
        ),
        (
            "replayed_records".to_string(),
            JsonValue::from(shared.replay.records),
        ),
        (
            "replayed_snapshots".to_string(),
            JsonValue::from(shared.replay.snapshots),
        ),
        (
            "repaired_bytes".to_string(),
            JsonValue::from(shared.replay.repaired_bytes as usize),
        ),
        (
            "leases_reset".to_string(),
            JsonValue::from(shared.leases_reset),
        ),
    ])))
}

fn metrics(call: &Call<'_>) -> Result<Reply, ServiceError> {
    let shared = call.shared;
    // Compactions are pulled from the journal at scrape time —
    // auto-compactions happen inside `append`, far from any counter
    // handle.
    if let Ok(state) = shared.state.lock() {
        shared
            .metrics
            .registry
            .gauge("journal_compactions_total", &[])
            .set(state.compactions());
    }
    let mut snapshot = shared.metrics.registry.snapshot();
    let workers = shared
        .worker_metrics
        .lock()
        .map_err(|_| poisoned("worker metrics"))?;
    for (worker, worker_snapshot) in workers.iter() {
        snapshot.merge(&worker_snapshot.clone().with_label("worker", worker));
    }
    Ok(Reply {
        status: 200,
        content_type: "text/plain; version=0.0.4",
        extra: Vec::new(),
        body: snapshot.render_prometheus(),
    })
}

fn submit(call: &Call<'_>) -> Result<Reply, ServiceError> {
    // The body — campaign spec included — is decoded before the registry
    // lock is taken: a large or malformed body must never stall the
    // endpoints every worker depends on (lease renewal, ingest).
    let submission =
        Submission::from_json(&parse_body_json(call.request)?).map_err(ServiceError::BadRequest)?;
    // A submitter that wants the campaign traced sends x-trace-id; the
    // submit instant (Unix µs) anchors the job's synthetic span clock, so
    // every later transition span is a pure function of journaled events
    // (see `Registry::submit`).
    let trace_id = call
        .request
        .header("x-trace-id")
        .and_then(spans::parse_id)
        .unwrap_or(0);
    let trace_us = if trace_id == 0 { 0 } else { spans::now_us() };
    let shared = call.shared;
    let (mut state, now) = call.lock()?;
    // Admission control, *before* the submit reaches the journal: a
    // refused submit is never journaled, so quota changes across restarts
    // can never make an old journal refuse to replay.
    if shared.client_quota > 0 {
        let client = submission.client.as_str();
        let pending = state.registry().client_pending_shards(client);
        if pending >= shared.client_quota {
            return Err(ServiceError::RateLimited {
                message: format!(
                    "client '{client}' has {pending} pending shard(s), quota {}",
                    shared.client_quota
                ),
                retry_after_s: (shared.lease_ttl_ms / 1_000).max(1),
            });
        }
    }
    let status = state.submit(submission.traced(trace_id, trace_us), now)?;
    Ok(Reply {
        status: 201,
        content_type: "application/json",
        extra: Vec::new(),
        body: status.to_json(),
    })
}

/// The `phases` array of a progress object: count and p50/p99 (µs) of each
/// engine phase that has run, in [`PHASES`] order, from the merged latest
/// snapshot of every worker, so `submit --wait` and the console can name
/// the slowest phase without a `/metrics` scrape. Worker snapshots are
/// cumulative, so the phases cover every job the fleet has run since each
/// worker started: they describe the fleet, not one job.
fn engine_phases(shared: &Shared) -> Result<Vec<JsonValue>, ServiceError> {
    let mut merged = MetricsSnapshot::default();
    for snapshot in shared
        .worker_metrics
        .lock()
        .map_err(|_| poisoned("worker metrics"))?
        .values()
    {
        merged.merge(snapshot);
    }
    let phases = PHASES
        .into_iter()
        .filter_map(|phase| {
            let histogram = merged.histogram_value("engine_phase_seconds", &[("phase", phase)])?;
            (histogram.count() > 0).then(|| {
                JsonValue::object(vec![
                    ("phase".to_string(), JsonValue::from(phase)),
                    (
                        "count".to_string(),
                        JsonValue::from(histogram.count() as usize),
                    ),
                    (
                        "p50_us".to_string(),
                        JsonValue::from(histogram.quantile(0.5) as usize),
                    ),
                    (
                        "p99_us".to_string(),
                        JsonValue::from(histogram.quantile(0.99) as usize),
                    ),
                ])
            })
        })
        .collect();
    Ok(phases)
}

/// `GET /jobs/{id}/progress`: the registry's progress object with the
/// fleet's [`engine_phases`] added as `phases`.
fn progress(call: &Call<'_>) -> Result<Reply, ServiceError> {
    let mut progress = {
        let (state, now) = call.lock()?;
        state.registry().progress(call.params[0], now)?
    };
    if let JsonValue::Object(fields) = &mut progress {
        fields.insert(
            "phases".to_string(),
            JsonValue::Array(engine_phases(call.shared)?),
        );
    }
    Ok(Reply::json(&progress))
}

/// `GET /dashboard`: the [`console::frame`] that `tats top` prints, built
/// from the registry under its lock and the fleet's [`engine_phases`],
/// HTML-escaped inside a `<pre>` of one self-contained page that refreshes
/// itself every 2 s and fetches nothing.
fn dashboard(call: &Call<'_>) -> Result<Reply, ServiceError> {
    let phases = engine_phases(call.shared)?;
    let (jobs, workers) = {
        let (state, now) = call.lock()?;
        let registry = state.registry();
        let jobs = registry
            .job_ids()
            .map(|id| registry.progress(id, now))
            .collect::<Result<Vec<_>, _>>()?;
        (jobs, registry.workers_status(now))
    };
    let (log_tail, log_next) = {
        let ring = call
            .shared
            .logs
            .ring
            .lock()
            .map_err(|_| poisoned("log ring"))?;
        let tail: Vec<String> = ring.tail(console::LOG_TAIL).map(str::to_string).collect();
        (tail, ring.next_index())
    };
    let frame = console::frame(
        "tats dashboard",
        &jobs,
        &phases,
        workers.field_array("workers").unwrap_or_default(),
        &log_tail,
        log_next,
    );
    let escaped = frame
        .replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;");
    Ok(Reply {
        status: 200,
        content_type: "text/html; charset=utf-8",
        extra: Vec::new(),
        body: format!(
            "<!doctype html><html><head><meta charset=\"utf-8\">\
             <meta http-equiv=\"refresh\" content=\"2\"><title>tats fleet</title></head>\
             <body><pre>{escaped}</pre></body></html>"
        ),
    })
}

fn lease(call: &Call<'_>) -> Result<Reply, ServiceError> {
    let shared = call.shared;
    let body = parse_body_json(call.request)?;
    let worker = body.field_str("worker").map_err(ServiceError::BadRequest)?;
    shared.metrics.lease_requests.inc();
    // Workers piggyback their cumulative metrics snapshot on lease polls.
    // Latest-wins storage; a malformed snapshot is dropped rather than
    // failing the lease (metrics are best-effort, the lease is not).
    if let Some(Ok(snapshot)) = body.get("metrics").map(MetricsSnapshot::from_json) {
        shared
            .worker_metrics
            .lock()
            .map_err(|_| poisoned("worker metrics"))?
            .insert(worker.to_string(), snapshot);
    }
    let (mut state, now) = call.lock()?;
    let response = state.lease(worker, now)?;
    if response.get("lease").is_some() {
        shared.metrics.leases_granted.inc();
    }
    Ok(Reply::json(&response))
}

fn ingest(call: &Call<'_>) -> Result<Reply, ServiceError> {
    let worker = worker_header(call.request)?;
    let index = parse_shard_index(call.params[1])?;
    let (mut state, now) = call.lock()?;
    let report = state.ingest(call.params[0], index, worker, &call.request.body, now)?;
    Ok(Reply::json(&JsonValue::object(vec![
        ("accepted".to_string(), JsonValue::from(report.accepted)),
        ("duplicates".to_string(), JsonValue::from(report.duplicates)),
        ("ignored".to_string(), JsonValue::from(report.ignored)),
    ])))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;

    #[test]
    fn healthz_readyz_and_unknown_routes() {
        let handle = Service::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind");
        let addr = handle.addr_string();
        let health = client::get(&addr, "/healthz").expect("healthz");
        assert_eq!(health.body, "{\"ok\":true}");
        let ready = client::get(&addr, "/readyz").expect("readyz");
        assert!(ready.body.contains("\"ready\":true"), "{}", ready.body);
        let missing = client::request(&addr, "GET", "/nope", &[], None).expect("request");
        assert_eq!(missing.status, 404);
        let bad = client::request(&addr, "POST", "/jobs", &[], Some("not json")).expect("request");
        assert_eq!(bad.status, 400);
        assert!(bad.body.contains("request body"), "{}", bad.body);
        let unknown_job = client::request(&addr, "GET", "/jobs/j000009", &[], None).expect("req");
        assert_eq!(unknown_job.status, 404);
        handle.stop();
    }

    #[test]
    fn metrics_serve_prometheus_text_with_the_replay_gauges() {
        let handle = Service::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind");
        let addr = handle.addr_string();
        let metrics = client::get(&addr, "/metrics").expect("metrics");
        assert_eq!(metrics.status, 200);
        assert!(
            metrics
                .body
                .contains("# TYPE http_request_seconds histogram"),
            "{}",
            metrics.body
        );
        assert!(
            metrics.body.contains("journal_replayed_events 0"),
            "{}",
            metrics.body
        );
        handle.stop();
    }

    #[test]
    fn metrics_count_requests_per_endpoint_and_class() {
        let handle = Service::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind");
        let addr = handle.addr_string();
        client::get(&addr, "/healthz").expect("healthz");
        client::get(&addr, "/healthz").expect("healthz");
        let missing = client::request(&addr, "GET", "/jobs/j000042", &[], None).expect("missing");
        assert_eq!(missing.status, 404);
        let metrics = client::get(&addr, "/metrics").expect("metrics");
        assert!(
            metrics
                .body
                .contains("http_requests_total{class=\"2xx\",endpoint=\"GET /healthz\"} 2"),
            "{}",
            metrics.body
        );
        assert!(
            metrics
                .body
                .contains("http_requests_total{class=\"4xx\",endpoint=\"GET /jobs/{id}\"} 1"),
            "{}",
            metrics.body
        );
        assert!(
            metrics
                .body
                .contains("http_request_seconds_count{endpoint=\"GET /healthz\"} 2"),
            "{}",
            metrics.body
        );
        handle.stop();
    }

    /// Every handler that takes the registry lock records its wait: `k`
    /// lock-taking requests count at least `k` waits (the scrape itself
    /// takes no `Call::lock`).
    #[test]
    fn registry_lock_waits_are_counted_per_locking_request() {
        let handle = Service::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind");
        let addr = handle.addr_string();
        let k = 5;
        for _ in 0..k {
            client::get(&addr, "/jobs").expect("jobs");
        }
        let metrics = client::get(&addr, "/metrics").expect("metrics");
        let count = metrics
            .body
            .lines()
            .find_map(|line| line.strip_prefix("registry_lock_wait_seconds_count "))
            .and_then(|value| value.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no lock-wait count in {}", metrics.body));
        assert!(count >= k, "{count} lock waits for {k} requests");
        handle.stop();
    }

    #[test]
    fn access_log_records_every_request_as_jsonl() {
        let path = std::env::temp_dir().join("tats_server_access_log_test.jsonl");
        let _ = std::fs::remove_file(&path);
        let config = ServiceConfig {
            access_log: Some(path.clone()),
            ..ServiceConfig::default()
        };
        let handle = Service::bind("127.0.0.1:0", config).expect("bind");
        let addr = handle.addr_string();
        client::get(&addr, "/healthz").expect("healthz");
        let missing = client::request(&addr, "GET", "/nope", &[], None).expect("nope");
        assert_eq!(missing.status, 404);
        let traced = client::request(
            &addr,
            "GET",
            "/healthz",
            &[("x-trace-id", "00000000deadbeef".to_string())],
            None,
        )
        .expect("traced healthz");
        assert_eq!(traced.status, 200);
        handle.stop();
        let text = std::fs::read_to_string(&path).expect("access log");
        let lines: Vec<JsonValue> = text
            .lines()
            .map(|line| JsonValue::parse(line).expect("log line"))
            .collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert_eq!(
            lines[0].get("path").and_then(JsonValue::as_str),
            Some("/healthz")
        );
        assert_eq!(
            lines[0].get("status").and_then(JsonValue::as_u64),
            Some(200)
        );
        assert_eq!(
            lines[1].get("status").and_then(JsonValue::as_u64),
            Some(404)
        );
        assert!(lines[1].get("duration_us").is_some());
        // Every line carries the trace correlation field: empty without an
        // x-trace-id header, verbatim with one.
        assert_eq!(
            lines[0].get("trace_id").and_then(JsonValue::as_str),
            Some("")
        );
        assert_eq!(
            lines[2].get("trace_id").and_then(JsonValue::as_str),
            Some("00000000deadbeef")
        );
        let _ = std::fs::remove_file(&path);
    }

    /// A hard kill can leave one partial final line in the access log; the
    /// next bind repairs it. The reopened log must keep parsing line-for-line
    /// — old lines intact, the torn tail gone, new lines appended cleanly.
    #[test]
    fn crash_repaired_access_log_parses_line_for_line() {
        use std::io::Write as _;
        let path = std::env::temp_dir().join("tats_server_access_log_repair_test.jsonl");
        let _ = std::fs::remove_file(&path);
        let config = ServiceConfig {
            access_log: Some(path.clone()),
            ..ServiceConfig::default()
        };
        let handle = Service::bind("127.0.0.1:0", config.clone()).expect("bind");
        let addr = handle.addr_string();
        client::get(&addr, "/healthz").expect("healthz");
        client::get(&addr, "/metrics").expect("metrics");
        handle.abort();
        let before: Vec<String> = std::fs::read_to_string(&path)
            .expect("access log")
            .lines()
            .map(str::to_string)
            .collect();
        assert_eq!(before.len(), 2);

        // Simulate the torn tail of a kill -9 mid-write.
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .expect("reopen");
        file.write_all(b"{\"ts_ms\":123,\"method\":\"GET\",\"path\":\"/torn")
            .expect("torn tail");
        drop(file);

        let handle = Service::bind("127.0.0.1:0", config).expect("rebind");
        client::get(&handle.addr_string(), "/healthz").expect("healthz after repair");
        handle.stop();
        let text = std::fs::read_to_string(&path).expect("access log");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert_eq!(&lines[..2], &before[..], "old lines survive verbatim");
        for line in &lines {
            let value = JsonValue::parse(line).expect("every line parses");
            assert!(value.get("trace_id").is_some(), "{line}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_stream() {
        let handle = Service::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind");
        let mut connection = client::Connection::new(&handle.addr_string());
        for _ in 0..5 {
            assert_eq!(connection.get("/healthz").expect("healthz").status, 200);
        }
        assert_eq!(connection.exchanges(), 5);
        assert_eq!(connection.dials(), 1, "one TCP dial for five exchanges");
        handle.stop();
    }

    #[test]
    fn keep_alive_request_cap_recycles_connections() {
        let config = ServiceConfig {
            keep_alive_max_requests: 2,
            ..ServiceConfig::default()
        };
        let handle = Service::bind("127.0.0.1:0", config).expect("bind");
        let mut connection = client::Connection::new(&handle.addr_string());
        for _ in 0..6 {
            assert_eq!(connection.get("/healthz").expect("healthz").status, 200);
        }
        // Every second response carries connection: close, so 6 exchanges
        // cost 3 dials — and the client never noticed.
        assert_eq!(connection.exchanges(), 6);
        assert_eq!(connection.dials(), 3);
        handle.stop();
    }

    #[test]
    fn disabled_keep_alive_closes_after_every_request() {
        let config = ServiceConfig {
            keep_alive_max_requests: 0,
            ..ServiceConfig::default()
        };
        let handle = Service::bind("127.0.0.1:0", config).expect("bind");
        let mut connection = client::Connection::new(&handle.addr_string());
        for _ in 0..3 {
            assert_eq!(connection.get("/healthz").expect("healthz").status, 200);
        }
        assert_eq!(connection.dials(), 3, "connection: close on every response");
        handle.stop();
    }

    #[test]
    fn stop_unbinds_the_port() {
        let handle = Service::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind");
        let addr = handle.addr_string();
        client::get(&addr, "/healthz").expect("alive");
        handle.stop();
        // After stop the listener is gone: connecting fails (or the probe
        // errors), never hangs.
        assert!(client::get(&addr, "/healthz").is_err());
    }

    fn tiny_submit_body(shards: usize, client: &str, priority: u64) -> String {
        let mut spec = tats_engine::CampaignSpec::default();
        spec.benchmarks.truncate(1);
        JsonValue::object(vec![
            ("spec".to_string(), spec.to_json()),
            ("shards".to_string(), JsonValue::from(shards)),
            ("client".to_string(), JsonValue::from(client)),
            ("priority".to_string(), JsonValue::from(priority as usize)),
        ])
        .to_json()
    }

    #[test]
    fn quota_refuses_with_429_and_retry_after_until_shards_drain() {
        let config = ServiceConfig {
            client_quota: 2,
            lease_ttl_ms: 5_000,
            log_filter: Some(LogFilter::off()),
            ..ServiceConfig::default()
        };
        let handle = Service::bind("127.0.0.1:0", config).expect("bind");
        let addr = handle.addr_string();
        let post = |body: &str| {
            client::request(
                &addr,
                "POST",
                "/jobs",
                &[("content-type", "application/json".to_string())],
                Some(body),
            )
            .expect("post /jobs")
        };
        // Two pending shards fill ci's quota; its next submit bounces with
        // the retry-after hint, while another client sails through.
        assert_eq!(post(&tiny_submit_body(2, "ci", 0)).status, 201);
        let refused = post(&tiny_submit_body(1, "ci", 0));
        assert_eq!(refused.status, 429, "{}", refused.body);
        assert_eq!(refused.header("retry-after"), Some("5"));
        assert!(refused.body.contains("quota 2"), "{}", refused.body);
        assert_eq!(post(&tiny_submit_body(1, "laptop", 0)).status, 201);
        // Refusals are admission control, not state: only the two accepted
        // jobs exist.
        let jobs = client::get(&addr, "/jobs").expect("jobs");
        assert_eq!(jobs.body.matches("\"job\":").count(), 2, "{}", jobs.body);
        handle.stop();
    }

    #[test]
    fn invalid_client_and_priority_fields_are_rejected() {
        let handle = Service::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind");
        let addr = handle.addr_string();
        let mut spec = tats_engine::CampaignSpec::default();
        spec.benchmarks.truncate(1);
        for body in [
            JsonValue::object(vec![
                ("spec".to_string(), spec.to_json()),
                ("client".to_string(), JsonValue::from("")),
            ]),
            JsonValue::object(vec![
                ("spec".to_string(), spec.to_json()),
                ("priority".to_string(), JsonValue::from("high")),
            ]),
        ] {
            let response =
                client::request(&addr, "POST", "/jobs", &[], Some(&body.to_json())).expect("post");
            assert_eq!(response.status, 400, "{}", response.body);
        }
        handle.stop();
    }

    #[test]
    fn removed_solvers_and_oversized_grids_are_refused_before_admission() {
        let handle = Service::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind");
        let addr = handle.addr_string();
        let mut spec = tats_engine::CampaignSpec::default();
        spec.benchmarks.truncate(1);
        let spec = spec.to_json().to_json();
        // 9007199254740993 parses as 2^53, past the largest exact seed.
        for (from, to, named) in [
            ("\"solvers\":[null]", "\"solvers\":[\"pcg\"]", "'pcg'"),
            ("\"nx\":16", "\"nx\":4294967296", "'nx'"),
            ("\"seeds\":[0]", "\"seeds\":[9007199254740993]", "'seeds'"),
        ] {
            assert!(spec.contains(from), "{spec}");
            let body = format!("{{\"spec\":{}}}", spec.replace(from, to));
            let response = client::request(&addr, "POST", "/jobs", &[], Some(&body)).expect("post");
            assert_eq!(response.status, 400, "{}", response.body);
            assert!(response.body.contains(named), "{}", response.body);
        }
        // Nothing was admitted, so no worker can lease it.
        let lease = client::request(&addr, "POST", "/lease", &[], Some("{\"worker\":\"w\"}"))
            .expect("lease");
        assert_eq!(lease.status, 200, "{}", lease.body);
        assert!(!lease.body.contains("\"lease\""), "{}", lease.body);
        let jobs = client::get(&addr, "/jobs").expect("jobs");
        assert!(!jobs.body.contains("\"job\":"), "{}", jobs.body);
        // The same body with an exact seed is admitted: the refusals above
        // came from the values, not from a malformed spec.
        let body = format!(
            "{{\"spec\":{}}}",
            spec.replace("\"seeds\":[0]", "\"seeds\":[1]")
        );
        let response = client::request(&addr, "POST", "/jobs", &[], Some(&body)).expect("post");
        assert_eq!(response.status, 201, "{}", response.body);
        handle.stop();
    }

    #[test]
    fn connection_gate_sheds_with_503_and_counts_rejections() {
        let config = ServiceConfig {
            max_connections: 1,
            ..ServiceConfig::default()
        };
        let handle = Service::bind("127.0.0.1:0", config).expect("bind");
        let addr = handle.addr_string();
        // One keep-alive connection occupies the only slot…
        let mut held = client::Connection::new(&addr);
        assert_eq!(held.get("/healthz").expect("held").status, 200);
        // …so the next connection is shed at the accept loop with a 503
        // that still reaches the client (write, shutdown, drain — no RST).
        let shed = client::request(&addr, "GET", "/healthz", &[], None).expect("shed response");
        assert_eq!(shed.status, 503, "{}", shed.body);
        assert_eq!(shed.header("retry-after"), Some("1"));
        assert!(shed.body.contains("connection limit"), "{}", shed.body);
        // Release the slot; the handler thread notices the close and
        // returns its permit shortly after.
        drop(held);
        let metrics = (0..200)
            .find_map(|_| match client::get(&addr, "/metrics") {
                Ok(scraped) => Some(scraped.body),
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(10));
                    None
                }
            })
            .expect("a freed slot admits the scrape");
        // At least the shed request above was rejected; scrape attempts
        // that raced the freed slot may have been shed too.
        let rejected = metrics
            .lines()
            .find_map(|line| line.strip_prefix("http_connections_rejected_total "))
            .and_then(|value| value.trim().parse::<u64>().ok())
            .expect("rejected counter exported");
        assert!(rejected >= 1, "{metrics}");
        handle.stop();
    }

    #[test]
    fn compact_endpoint_folds_the_journal_and_400s_without_one() {
        let path = std::env::temp_dir().join("tats_server_compact_endpoint_test.jsonl");
        let _ = std::fs::remove_file(&path);
        let config = ServiceConfig {
            journal: Some(path.clone()),
            log_filter: Some(LogFilter::off()),
            ..ServiceConfig::default()
        };
        let handle = Service::bind("127.0.0.1:0", config.clone()).expect("bind");
        let addr = handle.addr_string();
        for client_name in ["ci", "laptop", "nightly"] {
            let response = client::request(
                &addr,
                "POST",
                "/jobs",
                &[],
                Some(&tiny_submit_body(2, client_name, 0)),
            )
            .expect("submit");
            assert_eq!(response.status, 201, "{}", response.body);
        }
        let report =
            client::post_json(&addr, "/compact", &JsonValue::object(vec![])).expect("compact");
        let before = report.get("bytes_before").and_then(JsonValue::as_u64);
        let after = report.get("bytes_after").and_then(JsonValue::as_u64);
        assert!(before.is_some() && after.is_some(), "{}", report.to_json());
        let compacted = std::fs::read_to_string(&path).expect("journal");
        assert_eq!(compacted.lines().count(), 1, "{compacted}");
        assert!(compacted.contains("\"event\":\"snapshot\""), "{compacted}");
        let metrics = client::get(&addr, "/metrics").expect("metrics");
        assert!(
            metrics.body.contains("journal_compactions_total 1"),
            "{}",
            metrics.body
        );
        handle.stop();
        // A restart replays the snapshot (fast-forward) and reports it.
        let handle = Service::bind("127.0.0.1:0", config).expect("rebind");
        let ready = client::get(&handle.addr_string(), "/readyz").expect("readyz");
        assert!(
            ready.body.contains("\"replayed_snapshots\":1"),
            "{}",
            ready.body
        );
        assert!(ready.body.contains("\"replayed_jobs\":3"), "{}", ready.body);
        handle.stop();
        let _ = std::fs::remove_file(&path);

        // Journal-less server: nothing to compact, a clean 400.
        let handle = Service::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind");
        let response = client::request(&handle.addr_string(), "POST", "/compact", &[], Some("{}"))
            .expect("compact without journal");
        assert_eq!(response.status, 400, "{}", response.body);
        handle.stop();
    }

    #[test]
    fn abort_drops_clients_without_a_response() {
        let handle = Service::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind");
        let addr = handle.addr_string();
        client::get(&addr, "/healthz").expect("alive");
        handle.abort();
        let error = client::get(&addr, "/healthz").expect_err("dead");
        assert!(matches!(error, ServiceError::Io(_)), "{error}");
    }
}
