//! The shard worker: a pull loop that turns lease responses into campaign
//! work.
//!
//! A worker owns no state the server cannot reconstruct. Each iteration it
//! asks `POST /lease` for a shard; the response is self-contained (campaign
//! spec, shard selector, completed scenario ids), so the worker rebuilds the
//! [`Campaign`](tats_engine::Campaign) locally, verifies the spec
//! fingerprint matches the server's, and runs the shard's missing scenarios
//! through the existing [`Executor`] — per-worker geometry-keyed thermal
//! caches included. Completed records go back in batches (`POST
//! .../records`, which also renews the lease): one post carries up to
//! [`BATCH_RECORDS`] records, goes out sooner once [`BATCH_WAIT`] (or a
//! quarter of the lease TTL, if shorter) has passed since the shard's last
//! post, and the shard's end, the injected crash and a failing scenario
//! post what is pending first. So a worker killed mid-shard loses at most
//! one unposted batch (32 records or 50 ms of finished work) plus the
//! scenario in flight: the re-leased shard resumes from the server's
//! completed ids and the server dedups re-streams, so records are never
//! duplicated or dropped.
//!
//! All server traffic flows over one persistent keep-alive
//! [`Connection`](client::Connection) and through the worker's
//! [`RetryPolicy`]: transient failures — the server restarting (connection
//! refused until it has replayed its journal), a dropped keep-alive
//! stream — are ridden out with capped exponential backoff instead of
//! killing the worker. Fatal errors still propagate immediately: a campaign
//! fingerprint mismatch, a scenario-evaluation failure, a 4xx the server
//! would repeat forever, and the injected-crash hook (which must look like
//! a crash). Retrying a record post is safe by the same invariant as worker
//! death: the server dedups by scenario id, so a repeat of a post whose
//! response was lost is absorbed.

use std::collections::BTreeSet;
use std::process;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tats_engine::{CampaignSpec, Executor, ScenarioRecord, Shard, TraceContext};
use tats_trace::log::{LogEvent, LogLevel, LogSink};
use tats_trace::metrics::{Counter, Histogram};
use tats_trace::spans::{self, id_hex, SpanEvent, SpanIdGen, SpanKind};
use tats_trace::{JsonValue, MetricsRegistry};

use crate::client::{self, Connection};
use crate::error::ServiceError;
use crate::retry::RetryPolicy;

/// Tunables of one worker process.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Self-reported name, the unit of lease ownership. Must be unique per
    /// live worker (the default includes the process id).
    pub name: String,
    /// Worker threads of the embedded executor (`0` = all cores).
    pub threads: usize,
    /// Sleep between polls while no shard is available, ms.
    pub poll_ms: u64,
    /// Exit once the server reports itself drained (every submitted job
    /// done) instead of polling forever. Batch drivers (the bench, CI) set
    /// this; long-lived fleet workers keep the default `false`.
    pub exit_when_drained: bool,
    /// Retry policy for transient transport failures (server restarts,
    /// dropped keep-alive connections). The policy is reseeded with the
    /// worker's name at loop start, so a fleet killed by the same restart
    /// does not retry in lockstep. A `max_attempts` of 1 fails fast.
    pub retry: RetryPolicy,
    /// Test hook: abort the process-visible part of the worker (return an
    /// error as a crash would) after this many records have been streamed.
    /// Exercises the killed-worker → lease-expiry → resume path without
    /// spawning and killing real processes.
    pub fail_after_records: Option<usize>,
    /// Structured log sink (target `worker`): lease grants at debug, lost
    /// leases and transient retries at warn, shard completions and the
    /// drained exit at info, the fatal exit at error. Events carry the
    /// job's trace id when the lease shipped one. `None` logs nothing.
    pub log: Option<LogSink>,
}

/// Minimum interval between metrics snapshots piggybacked on lease polls.
/// Serializing and shipping the full registry on every poll costs more than
/// the instrumentation itself; one snapshot per interval (plus the forced
/// flush before a drained exit) keeps scrape freshness at human timescales
/// for a fraction of the cost.
const METRICS_PIGGYBACK_MS: u64 = 500;

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            name: format!("worker-{}", process::id()),
            threads: 1,
            poll_ms: 200,
            exit_when_drained: false,
            retry: RetryPolicy::default(),
            fail_after_records: None,
            log: None,
        }
    }
}

/// The worker's metrics shard: lease-wait time, shard/record throughput,
/// transient-vs-fatal retry counts, plus everything the embedded executor
/// records (per-scenario phase spans, thermal cache hits). A cumulative
/// snapshot is piggybacked on `POST /lease` polls — throttled to one per
/// `METRICS_PIGGYBACK_MS` (500 ms) while work is flowing, with a forced
/// final flush before a drained exit so the server's `GET /metrics` always
/// ends exact. The handles are pre-registered: the hot paths must not take the
/// registry's registration lock.
struct WorkerMetrics {
    registry: Arc<MetricsRegistry>,
    lease_wait: Arc<Histogram>,
    shard_seconds: Arc<Histogram>,
    shards_completed: Arc<Counter>,
    records_posted: Arc<Counter>,
    idle_polls: Arc<Counter>,
    leases_lost: Arc<Counter>,
    retry_transient: Arc<Counter>,
    retry_fatal: Arc<Counter>,
}

impl WorkerMetrics {
    fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        WorkerMetrics {
            lease_wait: registry.histogram("worker_lease_wait_seconds", &[]),
            shard_seconds: registry.histogram("worker_shard_seconds", &[]),
            shards_completed: registry.counter("worker_shards_completed_total", &[]),
            records_posted: registry.counter("worker_records_posted_total", &[]),
            idle_polls: registry.counter("worker_idle_polls_total", &[]),
            leases_lost: registry.counter("worker_leases_lost_total", &[]),
            retry_transient: registry.counter("worker_retry_transient_total", &[]),
            retry_fatal: registry.counter("worker_retry_fatal_total", &[]),
            registry,
        }
    }

    fn observe_retry(&self, transient: bool) {
        if transient {
            self.retry_transient.inc();
        } else {
            self.retry_fatal.inc();
        }
    }
}

/// Emits one `worker`-target event through the sink, if there is one. The
/// filter is checked before `build` runs, so disabled levels cost a branch
/// and no allocation.
fn worker_log(log: Option<&LogSink>, level: LogLevel, build: impl FnOnce() -> LogEvent) {
    if let Some(sink) = log {
        if sink.enabled(level, "worker") {
            sink.log(&build());
        }
    }
}

/// [`RetryPolicy::run`] with failures counted into the worker's registry,
/// and transient (about-to-retry) failures
/// logged at warn — the signal an operator sees while a fleet rides out a
/// server restart.
fn retry_observed<T>(
    retry: &RetryPolicy,
    metrics: &WorkerMetrics,
    log: Option<&LogSink>,
    op: impl FnMut() -> Result<T, ServiceError>,
) -> Result<T, ServiceError> {
    retry.run_observed(
        |error, transient| {
            metrics.observe_retry(transient);
            if transient {
                worker_log(log, LogLevel::Warn, || {
                    LogEvent::new(LogLevel::Warn, "worker", "transient failure; retrying")
                        .attr("error", error.to_string())
                });
            }
        },
        op,
    )
}

/// What a worker accomplished before exiting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Shards leased, run to completion and acknowledged as done.
    pub shards_completed: usize,
    /// Records streamed to the server (across all shards and attempts).
    pub records_posted: usize,
    /// Lease polls that came back idle.
    pub idle_polls: u64,
}

/// One parsed lease.
#[derive(Debug)]
struct Lease {
    job: String,
    shard: Shard,
    spec: CampaignSpec,
    completed: BTreeSet<u64>,
    /// `(trace_id, root_span_id)` when the job is traced: the worker wraps
    /// the shard in a span parented on the campaign root and piggybacks the
    /// executor's per-scenario span trees on record posts.
    trace: Option<(u64, u64)>,
    /// The lease's time to live, when the server sent one: it caps how long
    /// records wait between posts ([`flush_wait`]).
    ttl_ms: Option<u64>,
}

/// Wraps a field-accessor message (`JsonValue::field_*`) as a lease
/// protocol error.
fn lease_error(message: String) -> ServiceError {
    ServiceError::Protocol(format!("lease response: {message}"))
}

fn parse_lease(value: &JsonValue) -> Result<Lease, ServiceError> {
    let job = value.field_str("job").map_err(lease_error)?.to_string();
    let shard = Shard::parse(value.field_str("shard").map_err(lease_error)?)
        .map_err(|e| ServiceError::Protocol(e.to_string()))?;
    let spec = CampaignSpec::from_json(value.field("spec").map_err(lease_error)?)
        .map_err(|e| ServiceError::Protocol(format!("lease spec: {e}")))?;
    // The spec fingerprint is the cross-process resume contract: if our
    // parse of the spec hashes differently than the server's, the two sides
    // would disagree on what each scenario id means — refuse to run.
    let fingerprint = value.field_str("fingerprint").map_err(lease_error)?;
    if spec.fingerprint() != fingerprint {
        return Err(ServiceError::Protocol(format!(
            "campaign fingerprint mismatch: server says {fingerprint}, this build derives {}",
            spec.fingerprint()
        )));
    }
    let completed = value
        .field_array("completed_ids")
        .map_err(lease_error)?
        .iter()
        .map(|id| {
            id.as_u64()
                .ok_or_else(|| lease_error("field 'completed_ids' must contain integers".into()))
        })
        .collect::<Result<BTreeSet<u64>, _>>()?;
    // Trace context is optional (untraced jobs omit it). The root span id
    // is derivable from the trace id alone, so a lease from an older server
    // that ships only `trace_id` still parses.
    let trace = value
        .get("trace_id")
        .and_then(JsonValue::as_str)
        .and_then(spans::parse_id)
        .map(|trace_id| {
            let root = value
                .get("root_span")
                .and_then(JsonValue::as_str)
                .and_then(spans::parse_id)
                .unwrap_or_else(|| SpanIdGen::derive(trace_id, "campaign"));
            (trace_id, root)
        });
    Ok(Lease {
        job,
        shard,
        spec,
        completed,
        trace,
        ttl_ms: value.get("ttl_ms").and_then(JsonValue::as_u64),
    })
}

/// Records one post carries at most.
const BATCH_RECORDS: usize = 32;

/// How long a shard holding finished records goes without posting them,
/// counted from its last post (or its lease) and checked as each record
/// arrives; a short lease cuts it ([`flush_wait`]).
const BATCH_WAIT: Duration = Duration::from_millis(50);

/// The wait of a shard whose lease lives `ttl_ms`: [`BATCH_WAIT`], or a
/// quarter of the TTL when that is shorter, so that the posts that renew
/// the lease come well inside it.
fn flush_wait(ttl_ms: Option<u64>) -> Duration {
    ttl_ms.map_or(BATCH_WAIT, |ttl| {
        BATCH_WAIT.min(Duration::from_millis(ttl / 4))
    })
}

/// One leased shard's posts over the worker's connection, and the body of
/// finished records not posted yet: each record line followed by its
/// scenario's span lines, as `POST .../records` takes them.
struct ShardPosts<'a> {
    connection: &'a mut Connection,
    retry: RetryPolicy,
    metrics: &'a WorkerMetrics,
    log: Option<&'a LogSink>,
    headers: Vec<(&'static str, String)>,
    /// `/jobs/{id}/shards/{i}`.
    shard_path: String,
    /// Records posted by this worker over all its shards.
    posted_total: &'a mut usize,
    body: String,
    pending: usize,
    last_post: Instant,
    wait: Duration,
}

impl ShardPosts<'_> {
    /// Posts `body` to `path`, retrying transient failures, and expects a
    /// 2xx answer.
    fn post(&mut self, path: &str, body: Option<&str>) -> Result<(), ServiceError> {
        let (connection, headers) = (&mut *self.connection, self.headers.as_slice());
        retry_observed(&self.retry, self.metrics, self.log, || {
            connection
                .request("POST", path, headers, body)
                .and_then(client::expect_ok)
        })?;
        Ok(())
    }

    /// Adds a finished record and its span tree to the body, and posts the
    /// body once it holds [`BATCH_RECORDS`] records or the wait since the
    /// last post has run out. The spans ride the record's journaled ingest,
    /// so a crash keeps both or drops both, and the re-post after a lost
    /// response is deduped as a unit.
    fn push(&mut self, record: &ScenarioRecord, spans: &[SpanEvent]) -> Result<(), ServiceError> {
        self.body.push_str(&record.to_json().to_json());
        self.body.push('\n');
        for span in spans {
            self.body.push_str(&span.to_line());
            self.body.push('\n');
        }
        self.pending += 1;
        if self.pending >= BATCH_RECORDS || self.last_post.elapsed() >= self.wait {
            self.flush()?;
        }
        Ok(())
    }

    /// Posts the body, if it holds anything, and counts its records as
    /// posted once the server has them. A failed post drops the body: the
    /// error ends the shard.
    fn flush(&mut self) -> Result<(), ServiceError> {
        if self.body.is_empty() {
            return Ok(());
        }
        let body = std::mem::take(&mut self.body);
        let records = std::mem::take(&mut self.pending);
        self.last_post = Instant::now();
        let path = format!("{}/records", self.shard_path);
        self.post(&path, Some(&body))?;
        *self.posted_total += records;
        self.metrics.records_posted.add(records as u64);
        Ok(())
    }
}

/// Runs one leased shard, posting its records in batches ([`ShardPosts`])
/// over the shared keep-alive connection and counting each successful post
/// into `posted_total` (which therefore survives failed attempts). Posts
/// retry transient failures with `retry`, and the first error in id order
/// comes back as it is: `Err(ServiceError::Http {status: 409, ..})` means
/// the lease was lost (the caller abandons the shard and polls again),
/// `Aborted` is the injected-crash hook, and a failing scenario arrives as
/// [`ServiceError::Engine`] once the records ahead of it are posted.
/// Anything but a lost lease is fatal.
fn run_shard(
    connection: &mut Connection,
    config: &WorkerConfig,
    retry: RetryPolicy,
    lease: &Lease,
    posted_total: &mut usize,
    metrics: &WorkerMetrics,
) -> Result<(), ServiceError> {
    let campaign = lease.spec.to_campaign();
    let scenarios = campaign.shard_scenarios(lease.shard);
    let mut headers = vec![("x-worker", config.name.clone())];
    // The shard span id is a pure function of (trace id, shard index), so a
    // re-leased shard reproduces it and the server's dedup keeps one copy.
    let shard_span = lease.trace.map(|(trace_id, root)| {
        let seed = trace_id ^ (lease.shard.index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (trace_id, root, SpanIdGen::derive(seed, "shard"))
    });
    if let Some((trace_id, _, _)) = shard_span {
        headers.push(("x-trace-id", id_hex(trace_id)));
    }
    let shard_start_us = spans::now_us();
    let mut executor = Executor::new(config.threads).with_metrics(Arc::clone(&metrics.registry));
    if let Some((trace_id, _, span_id)) = shard_span {
        executor = executor.with_trace(TraceContext {
            trace_id,
            parent_span: span_id,
            worker: config.name.clone(),
        });
    }
    let mut posts = ShardPosts {
        connection,
        retry,
        metrics,
        log: config.log.as_ref(),
        headers,
        shard_path: format!("/jobs/{}/shards/{}", lease.job, lease.shard.index),
        posted_total,
        body: String::new(),
        pending: 0,
        last_post: Instant::now(),
        wait: flush_wait(lease.ttl_ms),
    };
    let run = executor.run_traced(&campaign, &scenarios, &lease.completed, |record, spans| {
        if let Some(limit) = config.fail_after_records {
            // A crash after exactly `limit` records: the pending ones go
            // out first, this one never does.
            if *posts.posted_total + posts.pending >= limit {
                posts.flush()?;
                return Err(ServiceError::Aborted(format!(
                    "injected failure after {limit} records"
                )));
            }
        }
        posts.push(record, spans)
    });
    // Close the shard span in the last batch, before announcing done, so the
    // server's merged stream has it by the time the root span is
    // synthesized.
    if let (Ok(_), Some((trace_id, root, span_id))) = (&run, shard_span) {
        let span = SpanEvent::new(
            trace_id,
            span_id,
            Some(root),
            "shard",
            SpanKind::Worker,
            shard_start_us,
            spans::now_us(),
        )
        .attr("job", lease.job.as_str())
        .attr("shard", lease.shard.to_string())
        .attr("worker", config.name.as_str());
        posts.body.push_str(&span.to_line());
        posts.body.push('\n');
    }
    // The records ahead of a failing scenario reach the server before its
    // error comes back.
    posts.flush()?;
    run?;
    let done = format!("{}/done", posts.shard_path);
    posts.post(&done, None)
}

/// The worker main loop: poll `addr` for shard leases and run them until
/// the server is drained (with [`WorkerConfig::exit_when_drained`]) or the
/// process is killed. All traffic shares one keep-alive connection;
/// transient transport failures retry per [`WorkerConfig::retry`], so the
/// loop survives a server restart shorter than its retry budget.
///
/// # Errors
///
/// Returns transport errors once the retry budget against an unreachable
/// server is exhausted, protocol errors (including a campaign-fingerprint
/// mismatch), scenario-evaluation failures, and [`ServiceError::Aborted`]
/// from the injected-crash hook. A *lost lease* (HTTP 409) is not an error:
/// the shard was re-leased to a healthier worker, so this one abandons it
/// and polls on.
pub fn run_worker(addr: &str, config: &WorkerConfig) -> Result<WorkerReport, ServiceError> {
    let result = run_worker_loop(addr, config);
    // Log the fatal exit here rather than at each early return, so every
    // error path (retry budget exhausted, protocol mismatch, engine
    // failure) leaves one last line explaining why the worker is gone.
    if let Err(error) = &result {
        worker_log(config.log.as_ref(), LogLevel::Error, || {
            LogEvent::new(LogLevel::Error, "worker", "worker failed")
                .attr("error", error.to_string())
        });
    }
    result
}

fn run_worker_loop(addr: &str, config: &WorkerConfig) -> Result<WorkerReport, ServiceError> {
    let mut report = WorkerReport::default();
    let retry = config.retry.seeded_for(&config.name);
    let mut connection = Connection::new(addr);
    let metrics = WorkerMetrics::new();
    // Time-to-lease starts when the worker begins looking for work and
    // spans idle polls, so the histogram measures how long work was waited
    // for, not how fast one HTTP round-trip is.
    let mut wait_start = Instant::now();
    // Snapshot shipping state: `metrics_dirty` means the registry holds
    // work the server has not seen (starts true so the first poll announces
    // the worker); `flush_metrics` forces the next poll to carry a snapshot
    // regardless of the throttle (set before a drained exit).
    let mut metrics_dirty = true;
    let mut flush_metrics = false;
    let mut last_snapshot: Option<Instant> = None;
    loop {
        let mut fields = vec![("worker".to_string(), JsonValue::from(config.name.as_str()))];
        // Piggyback the cumulative snapshot on the lease poll (the server
        // keeps the latest per worker and merges at scrape time) — but only
        // when there is unshipped work and the throttle allows, or a
        // pre-exit flush demands it.
        let throttle_open = last_snapshot
            .is_none_or(|sent| sent.elapsed() >= Duration::from_millis(METRICS_PIGGYBACK_MS));
        let snapshot_sent = flush_metrics || (metrics_dirty && throttle_open);
        if snapshot_sent {
            fields.push(("metrics".to_string(), metrics.registry.snapshot().to_json()));
        }
        let lease_request = JsonValue::object(fields);
        let response = retry_observed(&retry, &metrics, config.log.as_ref(), || {
            connection.post_json("/lease", &lease_request)
        })?;
        if snapshot_sent {
            last_snapshot = Some(Instant::now());
            metrics_dirty = false;
            flush_metrics = false;
        }
        if let Some(lease_value) = response.get("lease") {
            let lease = parse_lease(lease_value)?;
            let trace_id = lease.trace.map_or(0, |(trace_id, _)| trace_id);
            worker_log(config.log.as_ref(), LogLevel::Debug, || {
                LogEvent::new(LogLevel::Debug, "worker", "lease acquired")
                    .trace(trace_id)
                    .attr("job", lease.job.as_str())
                    .attr("shard", lease.shard.to_string())
            });
            metrics_dirty = true;
            let shard_clock = Instant::now();
            metrics.lease_wait.record_duration(wait_start.elapsed());
            match run_shard(
                &mut connection,
                config,
                retry,
                &lease,
                &mut report.records_posted,
                &metrics,
            ) {
                Ok(()) => {
                    report.shards_completed += 1;
                    metrics.shards_completed.inc();
                    metrics.shard_seconds.record_duration(shard_clock.elapsed());
                    worker_log(config.log.as_ref(), LogLevel::Info, || {
                        LogEvent::new(LogLevel::Info, "worker", "shard completed")
                            .trace(trace_id)
                            .attr("job", lease.job.as_str())
                            .attr("shard", lease.shard.to_string())
                    });
                    wait_start = Instant::now();
                }
                Err(ServiceError::Http { status: 409, .. }) => {
                    // Lease lost: our records so far are (deduped) on the
                    // server, the shard belongs to someone else now.
                    metrics.leases_lost.inc();
                    worker_log(config.log.as_ref(), LogLevel::Warn, || {
                        LogEvent::new(LogLevel::Warn, "worker", "lease lost")
                            .trace(trace_id)
                            .attr("job", lease.job.as_str())
                            .attr("shard", lease.shard.to_string())
                    });
                    wait_start = Instant::now();
                    continue;
                }
                // An injected crash must look like one: propagate.
                Err(error) => return Err(error),
            }
        } else {
            report.idle_polls += 1;
            metrics.idle_polls.inc();
            let drained = response
                .get("drained")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false);
            if drained && config.exit_when_drained {
                if metrics_dirty {
                    // The registry holds work the server has not seen;
                    // flush it on one more poll so the scrape ends exact,
                    // then exit on the next drained answer.
                    flush_metrics = true;
                    continue;
                }
                worker_log(config.log.as_ref(), LogLevel::Info, || {
                    LogEvent::new(LogLevel::Info, "worker", "drained; exiting")
                        .attr("shards", report.shards_completed.to_string())
                        .attr("records", report.records_posted.to_string())
                });
                return Ok(report);
            }
            std::thread::sleep(Duration::from_millis(config.poll_ms.max(1)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_parsing_validates_shape_and_fingerprint() {
        let spec = CampaignSpec::default();
        let mut fields = vec![
            ("job".to_string(), JsonValue::from("j000001")),
            ("shard".to_string(), JsonValue::from("0/2")),
            ("spec".to_string(), spec.to_json()),
            (
                "fingerprint".to_string(),
                JsonValue::from(spec.fingerprint().as_str()),
            ),
            (
                "completed_ids".to_string(),
                JsonValue::Array(vec![JsonValue::from(0usize), JsonValue::from(2usize)]),
            ),
            ("ttl_ms".to_string(), JsonValue::from(1000usize)),
        ];
        let lease = parse_lease(&JsonValue::object(fields.clone())).expect("valid lease");
        assert_eq!(lease.job, "j000001");
        assert_eq!((lease.shard.index, lease.shard.count), (0, 2));
        assert_eq!(lease.completed.iter().copied().collect::<Vec<_>>(), [0, 2]);
        assert_eq!(lease.ttl_ms, Some(1000));

        // A fingerprint that does not match the spec is refused.
        fields[3] = ("fingerprint".to_string(), JsonValue::from("deadbeef"));
        let error = parse_lease(&JsonValue::object(fields.clone())).expect_err("mismatch");
        assert!(error.to_string().contains("fingerprint"), "{error}");

        // Missing fields are named.
        let error = parse_lease(&JsonValue::object(vec![])).expect_err("empty");
        assert!(error.to_string().contains("job"), "{error}");
    }

    /// A hostile or corrupted server must never panic the worker: every
    /// malformed lease body comes back as [`ServiceError::Protocol`]
    /// (fatal, not retried), whatever shape the garbage takes.
    #[test]
    fn hostile_lease_bodies_are_protocol_errors_never_panics() {
        let spec = CampaignSpec::default();
        let good = |name: &str| -> JsonValue {
            match name {
                "job" => JsonValue::from("j000001"),
                "shard" => JsonValue::from("0/2"),
                "spec" => spec.to_json(),
                "fingerprint" => JsonValue::from(spec.fingerprint().as_str()),
                _ => JsonValue::Array(vec![JsonValue::from(0usize)]),
            }
        };
        let body = |field: &str, value: JsonValue| {
            JsonValue::object(
                ["job", "shard", "spec", "fingerprint", "completed_ids"]
                    .iter()
                    .map(|name| {
                        let filled = if *name == field {
                            value.clone()
                        } else {
                            good(name)
                        };
                        ((*name).to_string(), filled)
                    }),
            )
        };
        let hostile = [
            body("job", JsonValue::from(42usize)),
            body("shard", JsonValue::from("not-a-shard")),
            body("shard", JsonValue::from("2/2")),
            body("shard", JsonValue::from("0/0")),
            body("shard", JsonValue::from("-1/2")),
            body("spec", JsonValue::from("{}")),
            body("spec", JsonValue::object(vec![])),
            body("fingerprint", JsonValue::Null),
            body("completed_ids", JsonValue::from("0,2")),
            body(
                "completed_ids",
                JsonValue::Array(vec![JsonValue::from("zero")]),
            ),
            body("completed_ids", JsonValue::Array(vec![JsonValue::Null])),
            JsonValue::Array(vec![]),
            JsonValue::from("lease"),
            JsonValue::Null,
        ];
        for value in hostile {
            let error = parse_lease(&value).expect_err(&value.to_json());
            assert!(
                matches!(error, ServiceError::Protocol(_)),
                "{} must be Protocol, got {error}",
                value.to_json()
            );
        }
        // A valid body with hostile *optional* trace fields still parses —
        // unparsable trace ids mean "untraced", never a crash.
        let mut fields: Vec<(String, JsonValue)> = ["job", "shard", "spec", "fingerprint"]
            .iter()
            .map(|name| ((*name).to_string(), good(name)))
            .collect();
        fields.push(("completed_ids".to_string(), JsonValue::Array(vec![])));
        fields.push(("trace_id".to_string(), JsonValue::from("not-hex")));
        fields.push(("root_span".to_string(), JsonValue::from(1.5f64)));
        let lease = parse_lease(&JsonValue::object(fields)).expect("hostile trace is optional");
        assert!(lease.trace.is_none());
        assert_eq!(lease.ttl_ms, None);
    }

    /// Records wait at most 50 ms for a post, or a quarter of the lease's
    /// TTL when that is shorter; a lease without a TTL keeps 50 ms.
    #[test]
    fn the_flush_wait_is_fifty_ms_or_a_quarter_of_the_lease() {
        let ms = Duration::from_millis;
        assert_eq!(flush_wait(None), ms(50));
        assert_eq!(flush_wait(Some(15_000)), ms(50));
        assert_eq!(flush_wait(Some(200)), ms(50));
        assert_eq!(flush_wait(Some(120)), ms(30));
        assert_eq!(flush_wait(Some(3)), Duration::ZERO);
    }

    #[test]
    fn default_config_names_include_the_pid() {
        let config = WorkerConfig::default();
        assert!(config.name.starts_with("worker-"));
        assert_eq!(config.threads, 1);
        assert!(!config.exit_when_drained);
        assert_eq!(config.retry.max_attempts, 10);
    }
}
